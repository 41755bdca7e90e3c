//! Snapshot files: one checksummed image of an engine's durable state
//! (join texts + authoritative base pairs), written atomically.
//!
//! Layout:
//!
//! ```text
//! "PQSNAP1\n" | body | u32-le crc32(body)
//! body = u32-le join_count, joins (u32-le len + utf-8 text)...,
//!        u64-le pair_count, pairs (u32-le klen, key, u32-le vlen, value)...
//! ```
//!
//! A snapshot is written to `<path>.tmp`, fsynced, then renamed over
//! `<path>` (and the directory fsynced), so a crash mid-write can never
//! publish a half-snapshot: either the old generation's files are still
//! authoritative or the new snapshot is complete. The trailing checksum
//! guards against bit rot after publication.
//!
//! Both directions stream: `SnapshotWriter` takes pairs one at a time
//! (the pair count and checksum are patched in at the end, so the
//! writer need not know the count up front) and `SnapshotReader`
//! yields them one at a time, verifying the checksum once the last pair
//! is read. [`write_snapshot`]/[`read_snapshot`] are the whole-image
//! wrappers; the background fold (`crate::fold`) merges a reader into a
//! writer without holding either image in memory.

use crate::crc::{crc32, crc32_combine, Crc32};
use crate::record::put_bytes;
use pequod_store::{Key, Value};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Snapshot file magic (8 bytes, versioned).
pub const SNAP_MAGIC: &[u8; 8] = b"PQSNAP1\n";

/// The decoded contents of a snapshot.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SnapshotData {
    /// Installed join texts, in installation order.
    pub joins: Vec<String>,
    /// Authoritative base pairs, in key order.
    pub pairs: Vec<(Key, Value)>,
}

/// Why a snapshot file failed to load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error.
    Io(io::Error),
    /// The file is not a Pequod snapshot (bad magic) or its body is
    /// malformed or fails its checksum.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Bytes a snapshot writer or reader moves to or from the file at once.
const CHUNK: usize = 1 << 16;

/// Streams one snapshot into `<path>.tmp`: join texts up front, then
/// pairs in key order. The pair count is written as a placeholder and
/// patched by [`SnapshotWriter::write_tmp`], whose checksum joins the
/// three pieces' CRCs ([`crc32_combine`]) instead of re-reading them.
pub(crate) struct SnapshotWriter {
    file: File,
    /// Encoded pairs not yet written; checksummed as they are written.
    buf: Vec<u8>,
    tmp: PathBuf,
    path: PathBuf,
    /// Bytes and CRC of the body before the pair count (the joins).
    head_len: u64,
    head_crc: u32,
    /// Bytes and CRC of the pairs written so far.
    pairs_len: u64,
    pairs_crc: Crc32,
    pairs: u64,
}

impl SnapshotWriter {
    /// Creates `<path>.tmp` and writes the magic and the join texts.
    pub(crate) fn create(path: &Path, joins: &[String]) -> io::Result<SnapshotWriter> {
        let tmp = path.with_extension("tmp");
        let mut file = File::create(&tmp)?;
        let mut head = (joins.len() as u32).to_le_bytes().to_vec();
        for j in joins {
            put_bytes(&mut head, j.as_bytes());
        }
        file.write_all(&[&SNAP_MAGIC[..], &head, &[0; 8]].concat())?;
        Ok(SnapshotWriter {
            file,
            buf: Vec::with_capacity(CHUNK + 1024),
            tmp,
            path: path.to_path_buf(),
            head_len: head.len() as u64,
            head_crc: crc32(&head),
            pairs_len: 0,
            pairs_crc: Crc32::new(),
            pairs: 0,
        })
    }

    /// Appends one pair; callers push in ascending key order.
    pub(crate) fn push(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        put_bytes(&mut self.buf, key);
        put_bytes(&mut self.buf, value);
        self.pairs += 1;
        if self.buf.len() >= CHUNK {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.pairs_crc.update(&self.buf);
        self.pairs_len += self.buf.len() as u64;
        self.file.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Patches the pair count, appends the checksum and fsyncs the tmp
    /// file. Nothing is published until [`TmpSnapshot::publish`].
    pub(crate) fn write_tmp(mut self) -> io::Result<TmpSnapshot> {
        self.flush()?;
        let count = self.pairs.to_le_bytes();
        let body_crc = crc32_combine(
            crc32_combine(self.head_crc, crc32(&count), 8),
            self.pairs_crc.finish(),
            self.pairs_len,
        );
        self.file.write_all(&body_crc.to_le_bytes())?;
        self.file
            .seek(SeekFrom::Start(SNAP_MAGIC.len() as u64 + self.head_len))?;
        self.file.write_all(&count)?;
        self.file.sync_data()?;
        Ok(TmpSnapshot {
            tmp: self.tmp,
            path: self.path,
            bytes: SNAP_MAGIC.len() as u64 + self.head_len + 8 + self.pairs_len + 4,
        })
    }
}

/// A complete, fsynced `<path>.tmp` waiting to be renamed into place.
pub(crate) struct TmpSnapshot {
    tmp: PathBuf,
    path: PathBuf,
    bytes: u64,
}

impl TmpSnapshot {
    /// Renames the snapshot into place and fsyncs the directory; returns
    /// its size in bytes.
    pub(crate) fn publish(self) -> io::Result<u64> {
        fs::rename(&self.tmp, &self.path)?;
        sync_dir(self.path.parent().unwrap_or_else(|| Path::new(".")))?;
        Ok(self.bytes)
    }
}

/// Serializes and atomically publishes a snapshot at `path`.
pub fn write_snapshot(path: &Path, joins: &[String], pairs: &[(Key, Value)]) -> io::Result<()> {
    let mut out = SnapshotWriter::create(path, joins)?;
    for (k, v) in pairs {
        out.push(k.as_bytes(), v)?;
    }
    out.write_tmp()?.publish()?;
    Ok(())
}

/// fsyncs a directory so a just-renamed or just-created file's entry
/// survives power loss (a no-op error is ignored on filesystems that
/// reject directory fsync).
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => {
            let _ = d.sync_all();
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Err(e),
        Err(_) => Ok(()),
    }
}

/// A key and its value, borrowed from a [`SnapshotReader`]'s buffer.
pub(crate) type RawPair<'a> = (&'a [u8], &'a [u8]);

/// Streams one snapshot file: the join texts on open, then one pair per
/// [`next_pair`](SnapshotReader::next_pair), borrowed from the reader's
/// buffer. The checksum covers the whole body, so it is verified when
/// the last pair has been read — a caller must not act on the pairs
/// (publish what it built from them) before `next_pair` has returned
/// `Ok(None)`.
pub(crate) struct SnapshotReader {
    file: File,
    /// File bytes read and not yet dropped; `buf[pos..]` is unread.
    buf: Vec<u8>,
    pos: usize,
    /// `buf[..hashed]` is in `crc` already (the magic never is).
    hashed: usize,
    crc: Crc32,
    /// Installed join texts, in installation order.
    pub(crate) joins: Vec<String>,
    /// Pairs not yet read.
    left: u64,
    /// The checksum and the end of file have been verified.
    done: bool,
}

impl SnapshotReader {
    /// Opens `path` and reads everything before the first pair.
    pub(crate) fn open(path: &Path) -> Result<SnapshotReader, SnapshotError> {
        let mut r = SnapshotReader {
            file: File::open(path)?,
            buf: Vec::new(),
            pos: 0,
            hashed: 0,
            crc: Crc32::new(),
            joins: Vec::new(),
            left: 0,
            done: false,
        };
        match r.fill(SNAP_MAGIC.len()) {
            Ok(()) if r.buf.starts_with(SNAP_MAGIC) => {}
            Ok(()) | Err(SnapshotError::Corrupt(_)) => {
                return Err(SnapshotError::Corrupt("bad magic"))
            }
            Err(e) => return Err(e),
        }
        (r.pos, r.hashed) = (SNAP_MAGIC.len(), SNAP_MAGIC.len());
        let njoins = r.len_at(0)?;
        r.pos += 4;
        for _ in 0..njoins {
            let n = r.len_at(0)?;
            r.fill(4 + n)?;
            let text = &r.buf[r.pos + 4..r.pos + 4 + n];
            let join = std::str::from_utf8(text)
                .map_err(|_| SnapshotError::Corrupt("join text not utf-8"))?;
            r.joins.push(join.to_string());
            r.pos += 4 + n;
        }
        r.fill(8)?;
        let mut count = [0u8; 8];
        count.copy_from_slice(&r.buf[r.pos..r.pos + 8]);
        r.left = u64::from_le_bytes(count);
        r.pos += 8;
        Ok(r)
    }

    /// The next pair, or `Ok(None)` after the last one once the
    /// checksum and the end of file check out.
    pub(crate) fn next_pair(&mut self) -> Result<Option<RawPair<'_>>, SnapshotError> {
        if self.left == 0 {
            self.finish()?;
            return Ok(None);
        }
        let klen = self.len_at(0)?;
        let vlen = self.len_at(4 + klen)?;
        self.fill(8 + klen + vlen)?;
        let key = self.pos + 4;
        let value = key + klen + 4;
        self.pos = value + vlen;
        self.left -= 1;
        Ok(Some((
            &self.buf[key..key + klen],
            &self.buf[value..value + vlen],
        )))
    }

    fn finish(&mut self) -> Result<(), SnapshotError> {
        if self.done {
            return Ok(());
        }
        self.crc.update(&self.buf[self.hashed..self.pos]);
        self.hashed = self.pos;
        self.fill(4)?;
        let stored = crate::record::le_u32(&self.buf[self.pos..]);
        self.pos += 4;
        if stored != self.crc.finish() {
            return Err(SnapshotError::Corrupt("checksum mismatch"));
        }
        if self.pos < self.buf.len() || self.file.read(&mut [0u8; 1])? > 0 {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        self.done = true;
        Ok(())
    }

    /// The `u32-le` length `offset` bytes past the read position.
    fn len_at(&mut self, offset: usize) -> Result<usize, SnapshotError> {
        self.fill(offset + 4)?;
        let n = crate::record::le_u32(&self.buf[self.pos + offset..]) as usize;
        if n > crate::record::MAX_RECORD {
            return Err(SnapshotError::Corrupt("oversized field"));
        }
        Ok(n)
    }

    /// Makes at least `n` unread bytes available at `buf[pos..]`; a
    /// file that ends first is corrupt. Consumed bytes are checksummed
    /// and dropped first, so the buffer holds about one chunk.
    fn fill(&mut self, n: usize) -> Result<(), SnapshotError> {
        if self.buf.len() - self.pos >= n {
            return Ok(());
        }
        self.crc.update(&self.buf[self.hashed..self.pos]);
        self.buf.drain(..self.pos);
        (self.pos, self.hashed) = (0, 0);
        let want = (n - self.buf.len()).max(CHUNK) as u64;
        (&mut self.file).take(want).read_to_end(&mut self.buf)?;
        if self.buf.len() < n {
            return Err(SnapshotError::Corrupt("body ended early"));
        }
        Ok(())
    }
}

/// Loads and verifies a snapshot.
pub fn read_snapshot(path: &Path) -> Result<SnapshotData, SnapshotError> {
    let mut r = SnapshotReader::open(path)?;
    let mut pairs = Vec::with_capacity(r.left.min(1 << 16) as usize);
    while let Some((key, value)) = r.next_pair()? {
        pairs.push((Key::from(key), Value::copy_from_slice(value)));
    }
    Ok(SnapshotData {
        joins: std::mem::take(&mut r.joins),
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("pequod-snap-{}-{name}.snap", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample() -> (Vec<String>, Vec<(Key, Value)>) {
        (
            vec!["t|<u>|<t:10>|<p> = check s|<u>|<p> copy p|<p>|<t:10>".to_string()],
            vec![
                (Key::from("p|bob|0000000100"), Value::from_static(b"Hi")),
                (Key::from(vec![0u8, 0xff]), Value::from(vec![1u8, 2, 3])),
                (Key::from("s|ann|bob"), Value::from_static(b"1")),
            ],
        )
    }

    #[test]
    fn snapshot_roundtrips() {
        let path = tmp("roundtrip");
        let (joins, pairs) = sample();
        write_snapshot(&path, &joins, &pairs).unwrap();
        let got = read_snapshot(&path).unwrap();
        assert_eq!(got.joins, joins);
        assert_eq!(got.pairs, pairs);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let path = tmp("empty");
        write_snapshot(&path, &[], &[]).unwrap();
        let got = read_snapshot(&path).unwrap();
        assert!(got.joins.is_empty() && got.pairs.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_is_detected() {
        let path = tmp("corrupt");
        let (joins, pairs) = sample();
        write_snapshot(&path, &joins, &pairs).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for i in (0..clean.len()).step_by(7) {
            let mut bad = clean.clone();
            bad[i] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                read_snapshot(&path).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        // Truncation is equally fatal.
        std::fs::write(&path, &clean[..clean.len() - 5]).unwrap();
        assert!(read_snapshot(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// The streamed file is byte for byte the `PQSNAP1` layout: the
    /// whole body built in memory, then its CRC.
    #[test]
    fn the_streamed_encoding_is_the_documented_layout() {
        let path = tmp("layout");
        let (joins, pairs) = sample();
        write_snapshot(&path, &joins, &pairs).unwrap();
        let mut body = (joins.len() as u32).to_le_bytes().to_vec();
        for j in &joins {
            put_bytes(&mut body, j.as_bytes());
        }
        body.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
        for (k, v) in &pairs {
            put_bytes(&mut body, k.as_bytes());
            put_bytes(&mut body, v);
        }
        let want = [&SNAP_MAGIC[..], &body, &crc32(&body).to_le_bytes()].concat();
        assert_eq!(std::fs::read(&path).unwrap(), want);
        let _ = std::fs::remove_file(&path);
    }

    /// Many chunks' worth of pairs, fields straddling every chunk
    /// boundary, and a value longer than a chunk.
    #[test]
    fn a_snapshot_larger_than_a_chunk_roundtrips() {
        let path = tmp("chunks");
        let mut pairs: Vec<(Key, Value)> = (0..20_000u32)
            .map(|i| {
                let value = vec![(i % 251) as u8; (i % 37) as usize];
                (Key::from(format!("p|{i:08}")), Value::from(value))
            })
            .collect();
        pairs.push((Key::from("q|big"), Value::from(vec![7u8; 3 * CHUNK + 5])));
        write_snapshot(&path, &[], &pairs).unwrap();
        assert_eq!(read_snapshot(&path).unwrap().pairs, pairs);
        let _ = std::fs::remove_file(&path);
    }
}
