//! Binary wire codec with length-prefixed framing.
//!
//! Layout: every frame is `u32-le length` + body; the body is a tag byte
//! followed by fields. Strings and keys are `u32-le length` + bytes;
//! optional values use a presence byte. The format is hand-rolled on
//! `bytes` in the style of the Tokio framing tutorial — no external
//! serialization crates.

use crate::message::{range_end_key, range_from_parts, Message};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pequod_store::{Key, KeyRange, Value};
use std::fmt;

/// Maximum accepted frame body, to bound allocation on malformed input.
pub const MAX_FRAME: usize = 64 << 20;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The tag byte named no known message.
    BadTag(u8),
    /// The body ended before a field was complete.
    Truncated,
    /// A declared length exceeded [`MAX_FRAME`].
    Oversized(usize),
    /// String field held invalid UTF-8.
    BadUtf8,
    /// `Batch` frames nested deeper than the decoder allows.
    TooDeep,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadTag(t) => write!(f, "unknown message tag {t:#x}"),
            CodecError::Truncated => write!(f, "truncated frame"),
            CodecError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            CodecError::TooDeep => write!(f, "batch frames nested too deeply"),
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_GET: u8 = 1;
const TAG_PUT: u8 = 2;
const TAG_REMOVE: u8 = 3;
const TAG_SCAN: u8 = 4;
const TAG_ADD_JOIN: u8 = 5;
const TAG_REPLY: u8 = 6;
const TAG_SUBSCRIBE: u8 = 7;
const TAG_SUBSCRIBE_REPLY: u8 = 8;
const TAG_NOTIFY: u8 = 9;
const TAG_UNSUBSCRIBE: u8 = 10;
const TAG_COUNT: u8 = 11;
const TAG_BATCH: u8 = 12;
const TAG_HELLO: u8 = 13;
const TAG_REPLICA_SUBSCRIBE: u8 = 14;
const TAG_NOTIFY_SEQ: u8 = 15;
const TAG_NOTIFY_ACK: u8 = 16;
const TAG_HEARTBEAT: u8 = 17;
const TAG_SNAPSHOT_CHUNK: u8 = 18;
const TAG_EPOCH_CHANGE: u8 = 19;
const TAG_NOT_PRIMARY: u8 = 20;
const TAG_MIGRATE: u8 = 21;
const TAG_METRICS: u8 = 23;

/// Maximum nesting of `Batch` frames, to bound decoder recursion on
/// malicious input. A batch of batches is already pathological; real
/// clients send one level.
const MAX_BATCH_DEPTH: u8 = 4;

// Length prefixes are back-patched: four zero bytes are reserved, the
// body is encoded behind them, and the length is written once it is
// known — no intermediate buffer at any nesting depth. That is why the
// encoder wants `AsMut<[u8]>` (`Vec<u8>`, `BytesMut`) on top of `BufMut`.

/// Reserves a `u32-le` slot at the end of `buf`; returns its offset.
fn reserve_u32(buf: &mut (impl BufMut + AsMut<[u8]>)) -> usize {
    let at = buf.as_mut().len();
    buf.put_u32_le(0);
    at
}

/// Writes `v` into the slot [`reserve_u32`] left at `at`.
fn patch_u32(buf: &mut impl AsMut<[u8]>, at: usize, v: usize) {
    buf.as_mut()[at..at + 4].copy_from_slice(&(v as u32).to_le_bytes());
}

/// Writes the byte count of everything appended after the slot at `at`
/// into that slot.
fn patch_len(buf: &mut impl AsMut<[u8]>, at: usize) {
    let len = buf.as_mut().len() - at - 4;
    patch_u32(buf, at, len);
}

fn put_bytes(buf: &mut impl BufMut, b: &[u8]) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

fn put_opt_bytes(buf: &mut impl BufMut, b: Option<&[u8]>) {
    match b {
        Some(b) => {
            buf.put_u8(1);
            put_bytes(buf, b);
        }
        None => buf.put_u8(0),
    }
}

fn put_range(buf: &mut impl BufMut, range: &KeyRange) {
    put_bytes(buf, range.first.as_bytes());
    put_opt_bytes(buf, range_end_key(range).map(|k| k.as_bytes()));
}

fn put_pairs(buf: &mut impl BufMut, pairs: &[(Key, Value)]) {
    buf.put_u32_le(pairs.len() as u32);
    for (k, v) in pairs {
        put_bytes(buf, k.as_bytes());
        put_bytes(buf, v);
    }
}

/// Encodes a message body (without the frame length prefix).
pub fn encode(msg: &Message, buf: &mut (impl BufMut + AsMut<[u8]>)) {
    match msg {
        Message::Get { id, key } => {
            buf.put_u8(TAG_GET);
            buf.put_u64_le(*id);
            put_bytes(buf, key.as_bytes());
        }
        Message::Put { id, key, value } => {
            buf.put_u8(TAG_PUT);
            buf.put_u64_le(*id);
            put_bytes(buf, key.as_bytes());
            put_bytes(buf, value);
        }
        Message::Remove { id, key } => {
            buf.put_u8(TAG_REMOVE);
            buf.put_u64_le(*id);
            put_bytes(buf, key.as_bytes());
        }
        Message::Scan { id, range } => {
            buf.put_u8(TAG_SCAN);
            buf.put_u64_le(*id);
            put_range(buf, range);
        }
        Message::AddJoin { id, text } => {
            buf.put_u8(TAG_ADD_JOIN);
            buf.put_u64_le(*id);
            put_bytes(buf, text.as_bytes());
        }
        Message::Reply { id, pairs, error } => {
            buf.put_u8(TAG_REPLY);
            buf.put_u64_le(*id);
            put_pairs(buf, pairs);
            put_opt_bytes(buf, error.as_ref().map(|s| s.as_bytes()));
        }
        Message::Subscribe { id, range } => {
            buf.put_u8(TAG_SUBSCRIBE);
            buf.put_u64_le(*id);
            put_range(buf, range);
        }
        Message::SubscribeReply { id, range, pairs } => {
            buf.put_u8(TAG_SUBSCRIBE_REPLY);
            buf.put_u64_le(*id);
            put_range(buf, range);
            put_pairs(buf, pairs);
        }
        Message::Notify { key, value } => {
            buf.put_u8(TAG_NOTIFY);
            put_bytes(buf, key.as_bytes());
            put_opt_bytes(buf, value.as_deref());
        }
        Message::Unsubscribe { range } => {
            buf.put_u8(TAG_UNSUBSCRIBE);
            put_range(buf, range);
        }
        Message::Count { id, range } => {
            buf.put_u8(TAG_COUNT);
            buf.put_u64_le(*id);
            put_range(buf, range);
        }
        Message::Batch { msgs } => {
            buf.put_u8(TAG_BATCH);
            buf.put_u32_le(msgs.len() as u32);
            for m in msgs {
                let at = reserve_u32(buf);
                encode(m, buf);
                patch_len(buf, at);
            }
        }
        Message::Hello { node } => {
            buf.put_u8(TAG_HELLO);
            buf.put_u32_le(*node);
        }
        Message::ReplicaSubscribe {
            slot,
            epoch,
            log_epoch,
            from_seq,
        } => {
            buf.put_u8(TAG_REPLICA_SUBSCRIBE);
            buf.put_u32_le(*slot);
            buf.put_u64_le(*epoch);
            buf.put_u64_le(*log_epoch);
            buf.put_u64_le(*from_seq);
        }
        Message::NotifySeq {
            slot,
            epoch,
            seq,
            key,
            value,
        } => {
            buf.put_u8(TAG_NOTIFY_SEQ);
            buf.put_u32_le(*slot);
            buf.put_u64_le(*epoch);
            buf.put_u64_le(*seq);
            put_bytes(buf, key.as_bytes());
            put_opt_bytes(buf, value.as_deref());
        }
        Message::NotifyAck { slot, epoch, seq } => {
            buf.put_u8(TAG_NOTIFY_ACK);
            buf.put_u32_le(*slot);
            buf.put_u64_le(*epoch);
            buf.put_u64_le(*seq);
        }
        Message::Heartbeat { slot, epoch, seq } => {
            buf.put_u8(TAG_HEARTBEAT);
            buf.put_u32_le(*slot);
            buf.put_u64_le(*epoch);
            buf.put_u64_le(*seq);
        }
        Message::SnapshotChunk {
            slot,
            epoch,
            upto_seq,
            done,
            pairs,
        } => {
            buf.put_u8(TAG_SNAPSHOT_CHUNK);
            buf.put_u32_le(*slot);
            buf.put_u64_le(*epoch);
            buf.put_u64_le(*upto_seq);
            buf.put_u8(u8::from(*done));
            put_pairs(buf, pairs);
        }
        Message::EpochChange {
            slot,
            epoch,
            replicas,
            upto_seq,
            dropped,
        } => {
            buf.put_u8(TAG_EPOCH_CHANGE);
            buf.put_u32_le(*slot);
            buf.put_u64_le(*epoch);
            buf.put_u32_le(replicas.len() as u32);
            for r in replicas {
                buf.put_u32_le(*r);
            }
            buf.put_u64_le(*upto_seq);
            match dropped {
                Some(n) => {
                    buf.put_u8(1);
                    buf.put_u32_le(*n);
                }
                None => buf.put_u8(0),
            }
        }
        Message::NotPrimary {
            id,
            slot,
            epoch,
            node,
        } => {
            buf.put_u8(TAG_NOT_PRIMARY);
            buf.put_u64_le(*id);
            buf.put_u32_le(*slot);
            buf.put_u64_le(*epoch);
            buf.put_u32_le(*node);
        }
        Message::Migrate { id, slot, from, to } => {
            buf.put_u8(TAG_MIGRATE);
            buf.put_u64_le(*id);
            buf.put_u32_le(*slot);
            buf.put_u32_le(*from);
            buf.put_u32_le(*to);
        }
        Message::Metrics { id, flight } => {
            buf.put_u8(TAG_METRICS);
            buf.put_u64_le(*id);
            buf.put_u8(u8::from(*flight));
        }
    }
}

/// Appends `msg` to `out` as one length-prefixed frame, encoding in
/// place: bytes already in `out` are left untouched.
pub fn encode_frame_into(msg: &Message, out: &mut Vec<u8>) {
    let at = reserve_u32(out);
    encode(msg, out);
    patch_len(out, at);
}

/// Encodes a message as one length-prefixed frame.
pub fn encode_frame(msg: &Message) -> Bytes {
    // Room for a typical request or small reply without regrowing.
    let mut frame = Vec::with_capacity(64);
    encode_frame_into(msg, &mut frame);
    Bytes::from(frame)
}

/// A `Reply` frame written pair by pair straight into an output buffer:
/// the streaming counterpart of `encode_frame_into(&Message::reply(id,
/// pairs), out)`, byte for byte, for a producer that visits its pairs
/// instead of collecting them. The pair count and the frame length are
/// back-patched by [`ReplyFrame::finish`].
pub struct ReplyFrame<'a> {
    out: &'a mut Vec<u8>,
    start: usize,
    count_at: usize,
    pairs: usize,
}

impl<'a> ReplyFrame<'a> {
    /// Opens a reply to request `id` at the end of `out`.
    pub fn begin(out: &'a mut Vec<u8>, id: u64) -> ReplyFrame<'a> {
        let start = reserve_u32(out);
        out.put_u8(TAG_REPLY);
        out.put_u64_le(id);
        let count_at = reserve_u32(out);
        ReplyFrame {
            out,
            start,
            count_at,
            pairs: 0,
        }
    }

    /// Appends one result pair: a stored value's bytes, borrowed.
    pub fn pair(&mut self, key: &Key, value: &[u8]) {
        put_bytes(self.out, key.as_bytes());
        put_bytes(self.out, value);
        self.pairs += 1;
    }

    /// Completes the frame (no error field).
    pub fn finish(self) {
        put_opt_bytes(self.out, None);
        patch_u32(self.out, self.count_at, self.pairs);
        patch_len(self.out, self.start);
    }

    /// Drops the frame: `out` is exactly as it was before
    /// [`ReplyFrame::begin`].
    pub fn abandon(self) {
        self.out.truncate(self.start);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, CodecError> {
        if self.buf.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        Ok(self.buf.get_u8())
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        if self.buf.remaining() < 4 {
            return Err(CodecError::Truncated);
        }
        Ok(self.buf.get_u32_le())
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        if self.buf.remaining() < 8 {
            return Err(CodecError::Truncated);
        }
        Ok(self.buf.get_u64_le())
    }

    /// A length-prefixed field, borrowed from the body.
    fn raw(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME {
            return Err(CodecError::Oversized(n));
        }
        if self.buf.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let (field, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(field)
    }

    fn key(&mut self) -> Result<Key, CodecError> {
        self.raw().map(Key::from)
    }

    /// A value field, copied once, straight into its handle.
    fn value(&mut self) -> Result<Value, CodecError> {
        self.raw().map(Value::copy_from_slice)
    }

    /// A presence byte, then `field` if it is set.
    fn opt<T>(
        &mut self,
        field: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            _ => field(self).map(Some),
        }
    }

    fn range(&mut self) -> Result<KeyRange, CodecError> {
        let first = self.key()?;
        let end = self.opt(Self::key)?;
        Ok(range_from_parts(first, end))
    }

    fn pairs(&mut self) -> Result<Vec<(Key, Value)>, CodecError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME / 8 {
            return Err(CodecError::Oversized(n));
        }
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let k = self.key()?;
            let v = self.value()?;
            out.push((k, v));
        }
        Ok(out)
    }

    fn string(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.raw()?.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

/// Decodes one message body (without the frame length prefix).
pub fn decode(body: &[u8]) -> Result<Message, CodecError> {
    decode_at(body, 0)
}

fn decode_at(body: &[u8], depth: u8) -> Result<Message, CodecError> {
    let mut r = Reader { buf: body };
    let tag = r.u8()?;
    let msg = match tag {
        TAG_GET => Message::Get {
            id: r.u64()?,
            key: r.key()?,
        },
        TAG_PUT => Message::Put {
            id: r.u64()?,
            key: r.key()?,
            value: r.value()?,
        },
        TAG_REMOVE => Message::Remove {
            id: r.u64()?,
            key: r.key()?,
        },
        TAG_SCAN => Message::Scan {
            id: r.u64()?,
            range: r.range()?,
        },
        TAG_ADD_JOIN => Message::AddJoin {
            id: r.u64()?,
            text: r.string()?,
        },
        TAG_REPLY => Message::Reply {
            id: r.u64()?,
            pairs: r.pairs()?,
            error: match r.u8()? {
                0 => None,
                _ => Some(r.string()?),
            },
        },
        TAG_SUBSCRIBE => Message::Subscribe {
            id: r.u64()?,
            range: r.range()?,
        },
        TAG_SUBSCRIBE_REPLY => Message::SubscribeReply {
            id: r.u64()?,
            range: r.range()?,
            pairs: r.pairs()?,
        },
        TAG_NOTIFY => Message::Notify {
            key: r.key()?,
            value: r.opt(Reader::value)?,
        },
        TAG_UNSUBSCRIBE => Message::Unsubscribe { range: r.range()? },
        TAG_COUNT => Message::Count {
            id: r.u64()?,
            range: r.range()?,
        },
        TAG_BATCH => {
            if depth >= MAX_BATCH_DEPTH {
                return Err(CodecError::TooDeep);
            }
            let n = r.u32()? as usize;
            if n > MAX_FRAME / 8 {
                return Err(CodecError::Oversized(n));
            }
            let mut msgs = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                msgs.push(decode_at(r.raw()?, depth + 1)?);
            }
            Message::Batch { msgs }
        }
        TAG_HELLO => Message::Hello { node: r.u32()? },
        TAG_REPLICA_SUBSCRIBE => Message::ReplicaSubscribe {
            slot: r.u32()?,
            epoch: r.u64()?,
            log_epoch: r.u64()?,
            from_seq: r.u64()?,
        },
        TAG_NOTIFY_SEQ => Message::NotifySeq {
            slot: r.u32()?,
            epoch: r.u64()?,
            seq: r.u64()?,
            key: r.key()?,
            value: r.opt(Reader::value)?,
        },
        TAG_NOTIFY_ACK => Message::NotifyAck {
            slot: r.u32()?,
            epoch: r.u64()?,
            seq: r.u64()?,
        },
        TAG_HEARTBEAT => Message::Heartbeat {
            slot: r.u32()?,
            epoch: r.u64()?,
            seq: r.u64()?,
        },
        TAG_SNAPSHOT_CHUNK => Message::SnapshotChunk {
            slot: r.u32()?,
            epoch: r.u64()?,
            upto_seq: r.u64()?,
            done: r.u8()? != 0,
            pairs: r.pairs()?,
        },
        TAG_EPOCH_CHANGE => {
            let slot = r.u32()?;
            let epoch = r.u64()?;
            let n = r.u32()? as usize;
            if n > MAX_FRAME / 4 {
                return Err(CodecError::Oversized(n));
            }
            let mut replicas = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                replicas.push(r.u32()?);
            }
            let upto_seq = r.u64()?;
            let dropped = match r.u8()? {
                0 => None,
                _ => Some(r.u32()?),
            };
            Message::EpochChange {
                slot,
                epoch,
                replicas,
                upto_seq,
                dropped,
            }
        }
        TAG_NOT_PRIMARY => Message::NotPrimary {
            id: r.u64()?,
            slot: r.u32()?,
            epoch: r.u64()?,
            node: r.u32()?,
        },
        TAG_MIGRATE => Message::Migrate {
            id: r.u64()?,
            slot: r.u32()?,
            from: r.u32()?,
            to: r.u32()?,
        },
        TAG_METRICS => Message::Metrics {
            id: r.u64()?,
            flight: r.u8()? != 0,
        },
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(msg)
}

/// Tries to take one complete frame off the front of `buf`, returning
/// its decoded message. Returns `Ok(None)` if more bytes are needed. The
/// body is decoded where it lies and the buffer advanced past it once,
/// decodable or not.
pub fn decode_frame(buf: &mut BytesMut) -> Result<Option<Message>, CodecError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(CodecError::Oversized(len));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let msg = decode(&buf[4..4 + len]);
    buf.advance(4 + len);
    msg.map(Some)
}

/// An incremental frame decoder: feed it bytes as they arrive off a
/// socket (in chunks of any size, down to one byte at a time) and pull
/// complete messages out. This is the decoder behind the event-driven
/// reactor's read path; it is exactly as strict as the one-shot
/// [`decode_frame`] it wraps, a property the `codec_roundtrip` suite
/// checks across arbitrary split points.
#[derive(Default)]
pub struct FrameDecoder {
    buf: BytesMut,
}

impl FrameDecoder {
    /// An empty decoder. Allocates nothing until bytes arrive, so an
    /// idle connection costs no buffer memory.
    pub fn new() -> FrameDecoder {
        FrameDecoder {
            buf: BytesMut::new(),
        }
    }

    /// Appends freshly read bytes to the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Splits the next complete frame off the stream, if one has fully
    /// arrived. An `Err` poisons nothing — the caller decides whether
    /// to close — but the byte stream is no longer meaningful after a
    /// framing error, so servers answer with one error frame and close.
    pub fn next_frame(&mut self) -> Result<Option<Message>, CodecError> {
        decode_frame(&mut self.buf)
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pequod_store::UpperBound;

    fn roundtrip(msg: Message) {
        let mut buf = BytesMut::new();
        encode(&msg, &mut buf);
        let got = decode(&buf).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(Message::Get {
            id: 7,
            key: Key::from("p|bob|100"),
        });
        roundtrip(Message::Put {
            id: 8,
            key: Key::from("p|bob|100"),
            value: Value::from_static(b"Hi"),
        });
        roundtrip(Message::Remove {
            id: 9,
            key: Key::from("p|bob|100"),
        });
        roundtrip(Message::Scan {
            id: 10,
            range: KeyRange::new("t|ann|100", "t|ann|200"),
        });
        roundtrip(Message::Scan {
            id: 11,
            range: KeyRange::with_bound("t|ann|", UpperBound::Unbounded),
        });
        roundtrip(Message::AddJoin {
            id: 12,
            text: "t|<u> = copy p|<u>".to_string(),
        });
        roundtrip(Message::reply(
            13,
            vec![
                (Key::from("a"), Value::from_static(b"1")),
                (Key::from("b"), Value::new()),
            ],
        ));
        roundtrip(Message::error(14, "nope"));
        roundtrip(Message::Subscribe {
            id: 15,
            range: KeyRange::prefix("p|bob|"),
        });
        roundtrip(Message::SubscribeReply {
            id: 16,
            range: KeyRange::prefix("p|bob|"),
            pairs: vec![(Key::from("p|bob|1"), Value::from_static(b"x"))],
        });
        roundtrip(Message::Notify {
            key: Key::from("p|bob|1"),
            value: Some(Value::from_static(b"x")),
        });
        roundtrip(Message::Notify {
            key: Key::from("p|bob|1"),
            value: None,
        });
        roundtrip(Message::Unsubscribe {
            range: KeyRange::prefix("p|"),
        });
        roundtrip(Message::Count {
            id: 17,
            range: KeyRange::prefix("t|ann|"),
        });
        roundtrip(Message::Batch { msgs: vec![] });
        roundtrip(Message::Batch {
            msgs: vec![
                Message::Get {
                    id: 1,
                    key: Key::from("a"),
                },
                Message::Count {
                    id: 2,
                    range: KeyRange::with_bound("t|", UpperBound::Unbounded),
                },
                Message::Put {
                    id: 3,
                    key: Key::from("k"),
                    value: Value::from_static(b"v"),
                },
            ],
        });
    }

    #[test]
    fn replication_messages_roundtrip() {
        roundtrip(Message::Hello { node: 3 });
        roundtrip(Message::ReplicaSubscribe {
            slot: 5,
            epoch: 2,
            log_epoch: 1,
            from_seq: 99,
        });
        roundtrip(Message::NotifySeq {
            slot: 5,
            epoch: 2,
            seq: 100,
            key: Key::from("p|bob|100"),
            value: Some(Value::from_static(b"Hi")),
        });
        roundtrip(Message::NotifySeq {
            slot: 0,
            epoch: 0,
            seq: 1,
            key: Key::from("p|bob|100"),
            value: None,
        });
        roundtrip(Message::NotifyAck {
            slot: 5,
            epoch: 2,
            seq: 100,
        });
        roundtrip(Message::Heartbeat {
            slot: 7,
            epoch: 3,
            seq: 41,
        });
        roundtrip(Message::SnapshotChunk {
            slot: 1,
            epoch: 4,
            upto_seq: 250,
            done: true,
            pairs: vec![(Key::from("p|bob|1"), Value::from_static(b"x"))],
        });
        roundtrip(Message::SnapshotChunk {
            slot: 1,
            epoch: 4,
            upto_seq: 250,
            done: false,
            pairs: vec![],
        });
        roundtrip(Message::EpochChange {
            slot: 2,
            epoch: 9,
            replicas: vec![1, 0, 2],
            upto_seq: 77,
            dropped: Some(2),
        });
        roundtrip(Message::EpochChange {
            slot: 2,
            epoch: 9,
            replicas: vec![],
            upto_seq: 0,
            dropped: None,
        });
        roundtrip(Message::NotPrimary {
            id: 18,
            slot: 3,
            epoch: 6,
            node: 1,
        });
        roundtrip(Message::Migrate {
            id: 19,
            slot: 3,
            from: 0,
            to: 2,
        });
        roundtrip(Message::Metrics {
            id: 21,
            flight: true,
        });
        roundtrip(Message::Metrics {
            id: 22,
            flight: false,
        });
    }

    #[test]
    fn batch_nesting_is_bounded() {
        // Depth 4 (batch-in-batch-in-batch-in-batch) still decodes...
        let mut msg = Message::Batch { msgs: vec![] };
        for _ in 0..3 {
            msg = Message::Batch { msgs: vec![msg] };
        }
        roundtrip(msg.clone());
        // ...but one level deeper is rejected instead of recursing.
        let deeper = Message::Batch { msgs: vec![msg] };
        let mut buf = BytesMut::new();
        encode(&deeper, &mut buf);
        assert_eq!(decode(&buf), Err(CodecError::TooDeep));
    }

    #[test]
    fn count_reply_round_trips_through_pairs() {
        let msg = Message::count_reply(5, 42);
        roundtrip(msg.clone());
        let Message::Reply { pairs, .. } = msg else {
            panic!("count_reply is a Reply");
        };
        assert_eq!(Message::parse_count(&pairs), Some(42));
        assert_eq!(Message::parse_count(&[]), None);
    }

    #[test]
    fn framing_handles_partial_input() {
        let msg = Message::Put {
            id: 1,
            key: Key::from("k"),
            value: Value::from_static(b"v"),
        };
        let frame = encode_frame(&msg);
        // Feed the frame one byte at a time.
        let mut buf = BytesMut::new();
        for (i, b) in frame.iter().enumerate() {
            buf.put_u8(*b);
            let r = decode_frame(&mut buf).unwrap();
            if i + 1 < frame.len() {
                assert!(r.is_none(), "decoded early at byte {i}");
            } else {
                assert_eq!(r, Some(msg.clone()));
            }
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn framing_handles_back_to_back_frames() {
        let m1 = Message::Get {
            id: 1,
            key: Key::from("a"),
        };
        let m2 = Message::Remove {
            id: 2,
            key: Key::from("b"),
        };
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&encode_frame(&m1));
        buf.extend_from_slice(&encode_frame(&m2));
        assert_eq!(decode_frame(&mut buf).unwrap(), Some(m1));
        assert_eq!(decode_frame(&mut buf).unwrap(), Some(m2));
        assert_eq!(decode_frame(&mut buf).unwrap(), None);
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert_eq!(decode(&[]), Err(CodecError::Truncated));
        assert_eq!(decode(&[0xfe]), Err(CodecError::BadTag(0xfe)));
        // Truncated key length.
        assert_eq!(
            decode(&[TAG_GET, 1, 0, 0, 0, 0, 0, 0, 0, 9]),
            Err(CodecError::Truncated)
        );
        // Oversized declared length.
        let mut body = vec![TAG_GET];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(decode(&body), Err(CodecError::Oversized(_))));
        // Oversized frame header.
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            decode_frame(&mut buf),
            Err(CodecError::Oversized(_))
        ));
    }

    #[test]
    fn binary_safe_keys_and_values() {
        roundtrip(Message::Put {
            id: 1,
            key: Key::from(vec![0u8, 0xff, b'|', 0x7f]),
            value: Value::from(vec![0u8; 300]),
        });
    }
}
