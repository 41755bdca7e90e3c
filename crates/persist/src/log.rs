//! The append-only write-ahead log: one file per generation, a stream
//! of framed [`DurableOp`] records (see [`crate::record`]).

use crate::record::{decode_record, encode_record, RecordError};
use pequod_core::DurableOp;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// When the log file is forced to stable storage.
///
/// Writes always reach the operating system before the client's
/// acknowledgment, so a process kill (`SIGKILL`, a panic, an OOM kill)
/// loses at most the one record being written when the process died —
/// the torn tail that recovery detects by checksum and drops. The
/// fsync policy only governs what a whole-machine **power loss** can
/// take with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync; the OS flushes on its own schedule. Fastest;
    /// power loss may drop recent acknowledged writes.
    Never,
    /// fsync after every `n` records: bounded loss under power failure
    /// at a bounded cost.
    EveryN(u64),
    /// fsync before every acknowledgment: no acknowledged write is ever
    /// lost, at full synchronous-write cost.
    Always,
}

impl FsyncPolicy {
    /// Parses the server's `--fsync` argument:
    /// `never` | `always` | `every:N`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "never" => Some(FsyncPolicy::Never),
            "always" => Some(FsyncPolicy::Always),
            _ => {
                let n: u64 = s.strip_prefix("every:")?.parse().ok()?;
                (n > 0).then_some(FsyncPolicy::EveryN(n))
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Never => write!(f, "never"),
            FsyncPolicy::EveryN(n) => write!(f, "every:{n}"),
            FsyncPolicy::Always => write!(f, "always"),
        }
    }
}

/// Appends framed records to one log file.
pub struct LogWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    since_sync: u64,
    /// Records appended through this writer.
    pub records_written: u64,
    buf: Vec<u8>,
}

impl LogWriter {
    /// Opens `path` for appending, creating it if absent. Existing
    /// bytes (a prior run's tail) are preserved **as-is** — including a
    /// torn tail, after which appended records would be unreachable to
    /// recovery. Use [`LogWriter::open_append_clean`] unless the file
    /// is known to end on a record boundary (a freshly created
    /// generation).
    pub fn open_append(path: impl AsRef<Path>, policy: FsyncPolicy) -> io::Result<LogWriter> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(LogWriter {
            file,
            path,
            policy,
            since_sync: 0,
            records_written: 0,
            buf: Vec::with_capacity(256),
        })
    }

    /// Opens `path` for appending after truncating it to its clean
    /// prefix: everything recovery would replay is kept, and a torn or
    /// corrupt tail (which would otherwise sit *between* old records
    /// and new appends, making every new record unreachable) is cut
    /// off first. Returns the writer and how many tail bytes were cut.
    pub fn open_append_clean(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> io::Result<(LogWriter, u64)> {
        let path = path.as_ref().to_path_buf();
        let tail = read_log(&path)?;
        if tail.bytes_dropped > 0 {
            let file = OpenOptions::new().write(true).open(&path)?;
            let len = file.metadata()?.len();
            file.set_len(len - tail.bytes_dropped)?;
            file.sync_data()?;
        }
        let writer = LogWriter::open_append(&path, policy)?;
        Ok((writer, tail.bytes_dropped))
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and applies the fsync policy.
    pub fn append(&mut self, op: &DurableOp) -> io::Result<()> {
        self.buf.clear();
        encode_record(op, &mut self.buf);
        self.file.write_all(&self.buf)?;
        self.records_written += 1;
        self.since_sync += 1;
        match self.policy {
            FsyncPolicy::Never => {}
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.since_sync >= n {
                    self.sync()?;
                }
            }
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.since_sync = 0;
        Ok(())
    }
}

/// The result of reading one log file tail-tolerantly.
#[derive(Debug, Default)]
pub struct LogTail {
    /// The clean records, in append order.
    pub ops: Vec<DurableOp>,
    /// Bytes at the end of the file that did not form clean records
    /// (a torn tail, or everything from the first corrupt record on).
    pub bytes_dropped: u64,
    /// `Some(err)` if reading stopped at a *corrupt* record rather
    /// than a cleanly torn tail or end of file.
    pub corruption: Option<RecordError>,
}

/// Reads every clean record from a log file, stopping (not failing) at
/// a torn or corrupt tail: a record the crash tore mid-write fails its
/// checksum or ends early, and everything after an undecodable point is
/// unrecoverable because framing cannot resynchronize.
pub fn read_log(path: impl AsRef<Path>) -> io::Result<LogTail> {
    let mut bytes = Vec::new();
    match File::open(path.as_ref()) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LogTail::default()),
        Err(e) => return Err(e),
    }
    let mut tail = LogTail::default();
    let mut at = 0usize;
    loop {
        match decode_record(&bytes[at..]) {
            Ok(Some((op, n))) => {
                tail.ops.push(op);
                at += n;
            }
            Ok(None) => break, // clean end or torn tail
            Err(e) => {
                tail.corruption = Some(e);
                break;
            }
        }
    }
    tail.bytes_dropped = (bytes.len() - at) as u64;
    Ok(tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pequod_store::Key;
    use pequod_store::Value;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("pequod-log-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_ops() -> Vec<DurableOp> {
        vec![
            DurableOp::AddJoin("a|<x> = copy b|<x>".to_string()),
            DurableOp::Put(Key::from("b|1"), Value::from_static(b"one")),
            DurableOp::Put(Key::from("b|2"), Value::from_static(b"two")),
            DurableOp::Remove(Key::from("b|1")),
        ]
    }

    #[test]
    fn append_then_read_back() {
        let path = tmp("roundtrip");
        let ops = sample_ops();
        let mut w = LogWriter::open_append(&path, FsyncPolicy::EveryN(2)).unwrap();
        for op in &ops {
            w.append(op).unwrap();
        }
        w.sync().unwrap();
        let tail = read_log(&path).unwrap();
        assert_eq!(tail.ops, ops);
        assert_eq!(tail.bytes_dropped, 0);
        assert!(tail.corruption.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopening_appends_after_existing_records() {
        let path = tmp("reopen");
        let ops = sample_ops();
        {
            let mut w = LogWriter::open_append(&path, FsyncPolicy::Never).unwrap();
            w.append(&ops[0]).unwrap();
            w.append(&ops[1]).unwrap();
        }
        {
            let mut w = LogWriter::open_append(&path, FsyncPolicy::Never).unwrap();
            w.append(&ops[2]).unwrap();
            w.append(&ops[3]).unwrap();
        }
        assert_eq!(read_log(&path).unwrap().ops, ops);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_cleanly() {
        let path = tmp("torn");
        let ops = sample_ops();
        let mut w = LogWriter::open_append(&path, FsyncPolicy::Never).unwrap();
        for op in &ops {
            w.append(op).unwrap();
        }
        drop(w);
        // Simulate a crash mid-append: chop three bytes off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let tail = read_log(&path).unwrap();
        assert_eq!(tail.ops, ops[..3]);
        assert!(tail.bytes_dropped > 0);
        assert!(tail.corruption.is_none(), "a torn tail is not corruption");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_append_clean_truncates_a_torn_tail_first() {
        let path = tmp("cleanreopen");
        let ops = sample_ops();
        {
            let mut w = LogWriter::open_append(&path, FsyncPolicy::Never).unwrap();
            for op in &ops {
                w.append(op).unwrap();
            }
        }
        // Crash mid-append: a torn record at the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        // Appending *without* cleaning would bury the new record behind
        // the torn bytes; open_append_clean cuts them first, so the new
        // record is reachable.
        let (mut w, torn) = LogWriter::open_append_clean(&path, FsyncPolicy::Never).unwrap();
        assert!(torn > 0);
        let after_crash = DurableOp::Put(Key::from("b|9"), Value::from_static(b"post-crash"));
        w.append(&after_crash).unwrap();
        drop(w);
        let tail = read_log(&path).unwrap();
        let mut want = ops[..3].to_vec();
        want.push(after_crash);
        assert_eq!(tail.ops, want, "the post-crash record must be recoverable");
        assert_eq!(tail.bytes_dropped, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_log_reads_as_empty() {
        let tail = read_log(tmp("absent")).unwrap();
        assert!(tail.ops.is_empty());
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(
            FsyncPolicy::parse("every:64"),
            Some(FsyncPolicy::EveryN(64))
        );
        assert_eq!(FsyncPolicy::parse("every:0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::EveryN(8).to_string(), "every:8");
    }
}
