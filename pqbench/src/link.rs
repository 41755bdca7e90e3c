//! Driving request frames at a server: the closed loop over a socket,
//! and the harness that runs one phase on every connection at once.
//!
//! A [`Link`] is one connection's worth of serving path. The socket link
//! is the end-to-end one; `trace::InProcess` is the other, so set-up,
//! the timed stream and the oracle are the same code in both runs.

use crate::layers::{FrameDecoder, Message};
use crate::workload::Frames;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request with no reply for this long fails instead of hanging.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// What one connection saw while driving one phase.
#[derive(Default)]
pub struct PhaseResult {
    /// Client-observed nanoseconds per answered frame, write to last
    /// reply byte, in completion order.
    pub latencies_ns: Vec<u64>,
    /// Frames answered with an `error` reply, or never answered.
    pub failed: u64,
    /// Longest gap between consecutive replies.
    pub max_gap_ns: u64,
    /// Request and reply bytes moved.
    pub wire_bytes: u64,
    /// `replies[i]` answers frame `i` (the last reply, for a `Batch`);
    /// filled only when asked for.
    pub replies: Vec<Option<Message>>,
}

pub trait Link {
    /// Sends every frame, at most `depth` unanswered at a time, and
    /// returns once each is answered or has timed out.
    fn drive(
        &mut self,
        frames: &Frames,
        depth: usize,
        keep_replies: bool,
    ) -> io::Result<PhaseResult>;
}

pub struct SocketLink {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl SocketLink {
    pub fn connect(addr: SocketAddr) -> io::Result<SocketLink> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(SocketLink {
            stream,
            decoder: FrameDecoder::new(),
        })
    }
}

impl Link for SocketLink {
    fn drive(
        &mut self,
        frames: &Frames,
        depth: usize,
        keep_replies: bool,
    ) -> io::Result<PhaseResult> {
        let n = frames.len();
        let mut out = PhaseResult {
            latencies_ns: Vec::with_capacity(n),
            ..PhaseResult::default()
        };
        if keep_replies {
            out.replies.resize_with(n, || None);
        }
        let begin = Instant::now();
        let mut sent_at = vec![begin; n];
        // Replies still owed to each frame (a `Batch` is owed several).
        let mut owed = frames.replies.clone();
        let (mut next, mut done) = (0usize, 0usize);
        let mut last_reply = begin;
        let mut buf = vec![0u8; 1 << 16];
        while done < n {
            // Refill the window; consecutive frames go out in one write.
            let until = n.min(done + depth);
            if next < until {
                let now = Instant::now();
                sent_at[next..until].fill(now);
                self.stream
                    .write_all(&frames.bytes[frames.start(next)..frames.ends[until - 1]])?;
                next = until;
            }
            let got = match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(got) => got,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // Everything unanswered, sent or not, failed; the
                    // connection is of no further use.
                    out.failed += (n - done) as u64;
                    return Ok(out);
                }
                Err(e) => return Err(e),
            };
            let now = Instant::now();
            out.wire_bytes += got as u64;
            self.decoder.extend(&buf[..got]);
            while let Some(msg) = self.decoder.next_frame().map_err(io::Error::other)? {
                let Message::Reply { id, error, .. } = &msg else {
                    return Err(io::Error::other(format!(
                        "unexpected frame from server: {msg:?}"
                    )));
                };
                let i = *id as usize;
                if i >= next || owed[i] == 0 {
                    return Err(io::Error::other(format!(
                        "reply to request {id} that is not in flight"
                    )));
                }
                out.failed += u64::from(error.is_some());
                out.max_gap_ns = out.max_gap_ns.max((now - last_reply).as_nanos() as u64);
                last_reply = now;
                owed[i] -= 1;
                if owed[i] == 0 {
                    done += 1;
                    out.latencies_ns.push((now - sent_at[i]).as_nanos() as u64);
                    if keep_replies {
                        out.replies[i] = Some(msg);
                    }
                }
            }
        }
        out.wire_bytes += frames.bytes.len() as u64;
        Ok(out)
    }
}

/// Runs `frames[c]` on `links[c]` for every connection at once (the
/// last one on the calling thread, so two connections use two threads)
/// and returns the per-connection results with the phase's wall time.
pub fn run_phase<L: Link + Send>(
    links: &mut [L],
    frames: &[Frames],
    depth: usize,
    keep_replies: bool,
) -> io::Result<(Vec<PhaseResult>, Duration)> {
    assert_eq!(links.len(), frames.len());
    let begin = Instant::now();
    let results: Vec<io::Result<PhaseResult>> = std::thread::scope(|scope| {
        let (mine, others) = links.split_last_mut().expect("at least one connection");
        let handles: Vec<_> = others
            .iter_mut()
            .zip(frames)
            .map(|(link, f)| scope.spawn(move || link.drive(f, depth, keep_replies)))
            .collect();
        let last = mine.drive(&frames[frames.len() - 1], depth, keep_replies);
        let mut results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        results.push(last);
        results
    });
    let elapsed = begin.elapsed();
    let results = results.into_iter().collect::<io::Result<Vec<_>>>()?;
    Ok((results, elapsed))
}
