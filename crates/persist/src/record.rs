//! The WAL record codec: length-prefixed, checksummed frames around
//! [`DurableOp`] bodies.
//!
//! Layout of one record on disk:
//!
//! ```text
//! u32-le body_len | u32-le crc32(body) | body
//! body = tag u8 + fields; keys/values/text are u32-le length + bytes
//! ```
//!
//! Tags: `1` Put, `2` Remove, `3` AddJoin. The format is hand-rolled in
//! the style of `pequod_net::codec` (no external serialization crates)
//! and every field is binary-safe.
//!
//! Decoding distinguishes **incomplete** input (a torn tail: the file
//! ended inside a record — `Ok(None)`) from **corrupt** input (a
//! checksum mismatch or malformed body — `Err`). Recovery drops both,
//! but the distinction is reported so operators can tell a clean crash
//! from bit rot.

use crate::crc::crc32;
use pequod_core::DurableOp;
use pequod_store::{Key, Value};
use std::fmt;

/// Maximum accepted record body, to bound allocation on malformed
/// input (mirrors `pequod_net::codec::MAX_FRAME`).
pub const MAX_RECORD: usize = 64 << 20;

/// Bytes of framing per record (length + checksum words).
pub const RECORD_HEADER: usize = 8;

const TAG_PUT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_ADD_JOIN: u8 = 3;

/// Codec errors (corrupt records; torn tails are `Ok(None)` instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The stored checksum did not match the body.
    BadChecksum,
    /// The tag byte named no known operation.
    BadTag(u8),
    /// The body ended before a field was complete.
    Truncated,
    /// A declared length exceeded [`MAX_RECORD`].
    Oversized(usize),
    /// An `AddJoin` text held invalid UTF-8.
    BadUtf8,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::BadChecksum => write!(f, "record checksum mismatch"),
            RecordError::BadTag(t) => write!(f, "unknown record tag {t:#x}"),
            RecordError::Truncated => write!(f, "record body truncated"),
            RecordError::Oversized(n) => write!(f, "record of {n} bytes exceeds limit"),
            RecordError::BadUtf8 => write!(f, "invalid utf-8 in join text"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Appends `b` as a `u32-le` length and the bytes (the field encoding
/// records and snapshots share).
pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Appends one framed record (header + body) to `out`. The body is
/// encoded in place and the header filled in after it.
pub fn encode_record(op: &DurableOp, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER]);
    match op {
        DurableOp::Put(key, value) => {
            out.push(TAG_PUT);
            put_bytes(out, key.as_bytes());
            put_bytes(out, value);
        }
        DurableOp::Remove(key) => {
            out.push(TAG_REMOVE);
            put_bytes(out, key.as_bytes());
        }
        DurableOp::AddJoin(text) => {
            out.push(TAG_ADD_JOIN);
            put_bytes(out, text.as_bytes());
        }
    }
    let body = &out[start + RECORD_HEADER..];
    let header = [(body.len() as u32).to_le_bytes(), crc32(body).to_le_bytes()];
    out[start..start + 4].copy_from_slice(&header[0]);
    out[start + 4..start + RECORD_HEADER].copy_from_slice(&header[1]);
}

/// Little-endian `u32` from the first 4 bytes of `b`. Callers length-
/// check first; a short slice zero-pads rather than panicking, keeping
/// the decode path free of `unwrap`.
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    for (d, s) in a.iter_mut().zip(b) {
        *d = *s;
    }
    u32::from_le_bytes(a)
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, RecordError> {
        let (&b, rest) = self.buf.split_first().ok_or(RecordError::Truncated)?;
        self.buf = rest;
        Ok(b)
    }

    fn bytes(&mut self) -> Result<&'a [u8], RecordError> {
        if self.buf.len() < 4 {
            return Err(RecordError::Truncated);
        }
        let n = le_u32(self.buf) as usize;
        if n > MAX_RECORD {
            return Err(RecordError::Oversized(n));
        }
        if self.buf.len() < 4 + n {
            return Err(RecordError::Truncated);
        }
        let out = &self.buf[4..4 + n];
        self.buf = &self.buf[4 + n..];
        Ok(out)
    }
}

fn decode_body(body: &[u8]) -> Result<DurableOp, RecordError> {
    let mut r = Reader { buf: body };
    let op = match r.u8()? {
        TAG_PUT => {
            let key = Key::from(r.bytes()?);
            let value = Value::copy_from_slice(r.bytes()?);
            DurableOp::Put(key, value)
        }
        TAG_REMOVE => DurableOp::Remove(Key::from(r.bytes()?)),
        TAG_ADD_JOIN => DurableOp::AddJoin(
            String::from_utf8(r.bytes()?.to_vec()).map_err(|_| RecordError::BadUtf8)?,
        ),
        t => return Err(RecordError::BadTag(t)),
    };
    if !r.buf.is_empty() {
        // Trailing garbage inside a checksummed body means the encoder
        // and decoder disagree: corrupt, not torn.
        return Err(RecordError::Truncated);
    }
    Ok(op)
}

/// Tries to decode one record from the front of `buf`.
///
/// Returns `Ok(Some((op, consumed)))` for a clean record,
/// `Ok(None)` when `buf` ends inside a record (a torn tail — nothing
/// consumed), and `Err` for a corrupt record (bad checksum/body).
pub fn decode_record(buf: &[u8]) -> Result<Option<(DurableOp, usize)>, RecordError> {
    if buf.len() < RECORD_HEADER {
        return Ok(None);
    }
    let len = le_u32(&buf[0..4]) as usize;
    if len > MAX_RECORD {
        return Err(RecordError::Oversized(len));
    }
    let crc = le_u32(&buf[4..8]);
    if buf.len() < RECORD_HEADER + len {
        return Ok(None);
    }
    let body = &buf[RECORD_HEADER..RECORD_HEADER + len];
    if crc32(body) != crc {
        return Err(RecordError::BadChecksum);
    }
    let op = decode_body(body)?;
    Ok(Some((op, RECORD_HEADER + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(op: DurableOp) {
        let mut buf = Vec::new();
        encode_record(&op, &mut buf);
        let (got, consumed) = decode_record(&buf).unwrap().unwrap();
        assert_eq!(got, op);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn all_ops_roundtrip() {
        roundtrip(DurableOp::Put(
            Key::from("p|bob|0000000100"),
            Value::from_static(b"Hi"),
        ));
        roundtrip(DurableOp::Put(Key::from(""), Value::new()));
        roundtrip(DurableOp::Put(
            Key::from(vec![0u8, 0xff, b'|', 0x7f]),
            Value::from(vec![0u8; 300]),
        ));
        roundtrip(DurableOp::Remove(Key::from("s|ann|bob")));
        roundtrip(DurableOp::AddJoin(
            "t|<u>|<t:10>|<p> = check s|<u>|<p> copy p|<p>|<t:10>".to_string(),
        ));
    }

    #[test]
    fn torn_tail_is_incomplete_not_corrupt() {
        let mut buf = Vec::new();
        encode_record(
            &DurableOp::Put(Key::from("p|a|1"), Value::from_static(b"v")),
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert_eq!(
                decode_record(&buf[..cut]),
                Ok(None),
                "prefix of {cut} bytes should read as a torn tail"
            );
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = Vec::new();
        encode_record(
            &DurableOp::Put(Key::from("p|a|1"), Value::from_static(b"value")),
            &mut buf,
        );
        // Any body flip trips the checksum.
        for i in RECORD_HEADER..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert_eq!(decode_record(&bad), Err(RecordError::BadChecksum));
        }
        // A flipped checksum word is equally fatal.
        let mut bad = buf.clone();
        bad[5] ^= 0x01;
        assert_eq!(decode_record(&bad), Err(RecordError::BadChecksum));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 12]);
        assert!(matches!(
            decode_record(&buf),
            Err(RecordError::Oversized(_))
        ));
    }

    #[test]
    fn back_to_back_records_consume_exactly() {
        let ops = vec![
            DurableOp::AddJoin("a|<x> = copy b|<x>".to_string()),
            DurableOp::Put(Key::from("b|1"), Value::from_static(b"x")),
            DurableOp::Remove(Key::from("b|1")),
        ];
        let mut buf = Vec::new();
        for op in &ops {
            encode_record(op, &mut buf);
        }
        let mut at = 0;
        let mut got = Vec::new();
        while let Some((op, n)) = decode_record(&buf[at..]).unwrap() {
            got.push(op);
            at += n;
        }
        assert_eq!(got, ops);
        assert_eq!(at, buf.len());
    }
}
