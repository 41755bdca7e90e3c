//! A connection's output buffer: every reply frame a connection owes
//! its peer, as one contiguous run of bytes with a sent-cursor.
//!
//! Replies are encoded straight into [`OutBuf::sink`], so a turn of the
//! reactor that answers a whole pipeline of requests ends in one
//! `write(2)` of [`OutBuf::unsent`]. What the kernel took is
//! [`OutBuf::consume`]d; the consumed prefix is reclaimed lazily, and a
//! drained buffer that grew past [`RETAIN`] gives its memory back.

/// Capacity a drained buffer may keep for its next turn. One constant
/// for every connection: a connection that never sent a large reply
/// never grows this far, and one that did releases the excess the
/// moment its peer has read it, so idle connections hold no more than
/// this (and none at all until their first reply).
pub(crate) const RETAIN: usize = 64 * 1024;

#[derive(Default)]
pub(crate) struct OutBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` the socket has already taken.
    sent: usize,
}

impl OutBuf {
    /// Bytes appended but not yet written to the socket.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.sent
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where encoders append. A writer may append, and may truncate
    /// back to the length it found (abandoning a frame it began), but
    /// must leave the bytes before that length alone.
    pub(crate) fn sink(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Everything still owed to the peer, in order.
    pub(crate) fn unsent(&self) -> &[u8] {
        &self.buf[self.sent..]
    }

    /// Records that the socket took the first `n` unsent bytes.
    pub(crate) fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len(), "consumed more than was unsent");
        self.sent += n;
        if self.sent >= self.buf.len() {
            self.sent = 0;
            if self.buf.capacity() > RETAIN {
                self.buf = Vec::new();
            } else {
                self.buf.clear();
            }
        } else if self.sent >= self.buf.len() - self.sent {
            // Amortised: the remainder moved is no larger than the
            // prefix consumed since the last move.
            self.buf.drain(..self.sent);
            self.sent = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| tag ^ i as u8).collect()
    }

    #[test]
    fn append_then_consume_everything() {
        let mut out = OutBuf::default();
        assert!(out.is_empty());
        assert_eq!(out.sink().capacity(), 0, "an idle buffer owns no memory");
        out.sink().extend_from_slice(b"hello");
        out.sink().extend_from_slice(b" world");
        assert_eq!(out.len(), 11);
        assert_eq!(out.unsent(), b"hello world");
        out.consume(11);
        assert!(out.is_empty());
        assert_eq!(out.unsent(), b"");
    }

    #[test]
    fn partial_consume_across_frame_boundaries() {
        let frames = [frame(1, 10), frame(2, 300), frame(3, 7), frame(4, 64)];
        let all: Vec<u8> = frames.concat();
        // Every write size from one byte up, with frames appended
        // between writes: what comes out is what went in, in order.
        for step in 1..40 {
            let mut out = OutBuf::default();
            let mut got = Vec::new();
            let mut pending = frames.iter();
            out.sink().extend_from_slice(pending.next().unwrap());
            while !out.is_empty() {
                let n = step.min(out.len());
                got.extend_from_slice(&out.unsent()[..n]);
                out.consume(n);
                if let Some(f) = pending.next() {
                    out.sink().extend_from_slice(f);
                }
            }
            assert_eq!(got, all, "write size {step}");
        }
    }

    #[test]
    fn reclaim_keeps_unsent_bytes_intact() {
        let mut out = OutBuf::default();
        let payload = frame(9, 1000);
        out.sink().extend_from_slice(&payload);
        // Below half: the prefix stays where it is.
        out.consume(400);
        assert_eq!(out.sink().len(), 1000);
        assert_eq!(out.unsent(), &payload[400..]);
        // Past half: the prefix is dropped, the remainder moves down.
        out.consume(200);
        assert_eq!(out.sink().len(), 400);
        assert_eq!(out.unsent(), &payload[600..]);
        // Appending after a reclaim lands behind the unsent bytes.
        out.sink().extend_from_slice(b"tail");
        assert_eq!(out.len(), 404);
        assert_eq!(&out.unsent()[..400], &payload[600..]);
        assert_eq!(&out.unsent()[400..], b"tail");
    }

    #[test]
    fn truncating_an_abandoned_frame_leaves_the_rest() {
        let mut out = OutBuf::default();
        out.sink().extend_from_slice(b"kept");
        out.consume(1);
        let start = out.sink().len();
        out.sink().extend_from_slice(b"abandoned");
        out.sink().truncate(start);
        assert_eq!(out.unsent(), b"ept");
    }

    #[test]
    fn capacity_is_released_after_a_large_reply_drains() {
        let mut out = OutBuf::default();
        out.sink().extend_from_slice(&vec![7u8; 256 * 1024]);
        assert!(out.sink().capacity() >= 256 * 1024);
        out.consume(100 * 1024);
        out.consume(156 * 1024);
        assert!(out.is_empty());
        assert_eq!(out.sink().capacity(), 0, "a drained large buffer is freed");
        // A small one keeps its allocation for the next turn.
        out.sink().extend_from_slice(&[1u8; 512]);
        let cap = out.sink().capacity();
        out.consume(512);
        assert_eq!(out.sink().capacity(), cap);
        assert!(cap <= RETAIN);
    }
}
