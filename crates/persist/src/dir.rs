//! The on-disk layout of one engine's durable state: a data directory
//! holding numbered *generations*.
//!
//! Generation `g` consists of `snap-g.snap` (the durable state as of
//! the moment generation `g` began; generation 0 has none — the engine
//! started empty) and `wal-g.log` (every durable mutation since).
//! Compaction opens generation `g + 1`: publish `snap-(g+1).snap`,
//! start `wal-(g+1).log`, then delete generation `g`'s files — the log
//! truncation that keeps restart cost proportional to the write rate
//! since the last snapshot, not the table's lifetime.
//!
//! Recovery loads the newest generation with a valid snapshot and
//! replays every log at or after it, in order. If the newest snapshot
//! is unreadable (bit rot) it falls back to the previous generation
//! when one survives; a directory whose only snapshot is corrupt is an
//! error — silently starting empty would masquerade as data loss.

use crate::log::{read_log, LogTail};
use crate::snapshot::{read_snapshot, SnapshotData};
use pequod_core::DurableOp;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One engine's data directory.
#[derive(Debug, Clone)]
pub struct DataDir {
    root: PathBuf,
}

impl DataDir {
    /// Opens (creating if needed) a data directory. Orphaned `*.tmp`
    /// files — the remains of a snapshot write interrupted before its
    /// rename — are deleted: they are unreferenced by construction
    /// (publication is the rename), and because every compaction
    /// targets a fresh generation number they would otherwise
    /// accumulate forever.
    pub fn open(root: impl AsRef<Path>) -> io::Result<DataDir> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        for entry in fs::read_dir(&root)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(DataDir { root })
    }

    /// The directory path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of generation `g`'s write-ahead log.
    pub fn wal_path(&self, generation: u64) -> PathBuf {
        self.root.join(format!("wal-{generation}.log"))
    }

    /// Path of generation `g`'s snapshot.
    pub fn snap_path(&self, generation: u64) -> PathBuf {
        self.root.join(format!("snap-{generation}.snap"))
    }

    /// Every generation number with a log or snapshot on disk,
    /// ascending.
    pub fn generations(&self) -> io::Result<Vec<u64>> {
        let mut gens = BTreeSet::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let gen = name
                .strip_prefix("wal-")
                .and_then(|r| r.strip_suffix(".log"))
                .or_else(|| {
                    name.strip_prefix("snap-")
                        .and_then(|r| r.strip_suffix(".snap"))
                });
            if let Some(g) = gen.and_then(|g| g.parse::<u64>().ok()) {
                gens.insert(g);
            }
        }
        Ok(gens.into_iter().collect())
    }

    /// The newest generation on disk, or 0 for a fresh directory.
    pub fn current_generation(&self) -> io::Result<u64> {
        Ok(self.generations()?.last().copied().unwrap_or(0))
    }

    /// Deletes every file of generations strictly older than `keep`,
    /// telling `removed` about each one as it goes.
    pub fn remove_generations_before(
        &self,
        keep: u64,
        mut removed: impl FnMut(PathBuf),
    ) -> io::Result<()> {
        for g in self.generations()? {
            if g < keep {
                for path in [self.wal_path(g), self.snap_path(g)] {
                    if fs::remove_file(&path).is_ok() {
                        removed(path);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Everything recovery learned from a data directory.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Join texts from the loaded snapshot (installation order).
    pub joins: Vec<String>,
    /// Base pairs from the loaded snapshot.
    pub pairs: Vec<(Key, Value)>,
    /// Log records after the snapshot, in append order.
    pub ops: Vec<DurableOp>,
    /// The generation recovery will continue in.
    pub generation: u64,
    /// Whether a snapshot was loaded (false: replay started empty).
    pub had_snapshot: bool,
    /// Torn/corrupt tail bytes dropped across the replayed logs.
    pub bytes_dropped: u64,
    /// `Some(description)` if a log stopped at a **corrupt** record
    /// (checksum/format failure — bit rot) rather than a cleanly torn
    /// tail. The dropped suffix may contain intact records that framing
    /// can no longer reach, so callers must not destroy the file:
    /// [`crate::attach`] sets it aside as `wal-G.log.corrupt` instead
    /// of letting compaction delete it.
    pub corruption: Option<String>,
    /// The log file the corruption was found in.
    pub corrupt_wal: Option<std::path::PathBuf>,
}

use pequod_store::{Key, Value};

/// Reads the durable state out of a data directory: newest valid
/// snapshot plus every log at or after it. Does not touch an engine —
/// [`crate::attach`] applies the result; crash tests use it to build
/// the surviving-prefix reference.
pub fn recover(root: impl AsRef<Path>) -> io::Result<Recovered> {
    let dir = DataDir::open(root)?;
    let gens = dir.generations()?;
    let mut out = Recovered::default();
    if gens.is_empty() {
        return Ok(out);
    }
    // Newest generation whose snapshot loads cleanly.
    let mut snap: Option<(u64, SnapshotData)> = None;
    let mut newest_snap_err: Option<String> = None;
    for &g in gens.iter().rev() {
        let path = dir.snap_path(g);
        if !path.exists() {
            continue;
        }
        match read_snapshot(&path) {
            Ok(data) => {
                snap = Some((g, data));
                break;
            }
            Err(e) => {
                newest_snap_err.get_or_insert_with(|| format!("{}: {e}", path.display()));
            }
        }
    }
    let replay_from = match snap {
        Some((g, data)) => {
            out.joins = data.joins;
            out.pairs = data.pairs;
            out.had_snapshot = true;
            out.generation = g;
            g
        }
        None => {
            if let Some(err) = newest_snap_err {
                // Snapshots existed but none loaded: refusing to start
                // empty is the difference between an error and silent
                // data loss.
                return Err(io::Error::other(err));
            }
            out.generation = gens[0];
            gens[0]
        }
    };
    for &g in gens.iter().filter(|&&g| g >= replay_from) {
        let LogTail {
            ops,
            bytes_dropped,
            corruption,
        } = read_log(dir.wal_path(g))?;
        out.ops.extend(ops);
        out.bytes_dropped += bytes_dropped;
        if let Some(err) = corruption {
            if out.corruption.is_none() {
                out.corruption = Some(format!("{}: {err}", dir.wal_path(g).display()));
                out.corrupt_wal = Some(dir.wal_path(g));
            }
        }
        out.generation = out.generation.max(g);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{FsyncPolicy, LogWriter};
    use crate::snapshot::write_snapshot;
    use pequod_store::Value;

    struct Tmp(PathBuf);
    impl Tmp {
        fn new(name: &str) -> Tmp {
            let p = std::env::temp_dir().join(format!("pequod-dir-{}-{name}", std::process::id()));
            let _ = fs::remove_dir_all(&p);
            Tmp(p)
        }
    }
    impl Drop for Tmp {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let t = Tmp::new("fresh");
        let rec = recover(&t.0).unwrap();
        assert!(rec.joins.is_empty() && rec.pairs.is_empty() && rec.ops.is_empty());
        assert_eq!(rec.generation, 0);
        assert!(!rec.had_snapshot);
    }

    #[test]
    fn snapshot_plus_tail_log() {
        let t = Tmp::new("snaptail");
        let dir = DataDir::open(&t.0).unwrap();
        let joins = vec!["a|<x> = copy b|<x>".to_string()];
        let pairs = vec![(Key::from("b|1"), Value::from_static(b"one"))];
        write_snapshot(&dir.snap_path(3), &joins, &pairs).unwrap();
        let mut w = LogWriter::open_append(dir.wal_path(3), FsyncPolicy::Never).unwrap();
        let op = DurableOp::Put(Key::from("b|2"), Value::from_static(b"two"));
        w.append(&op).unwrap();
        drop(w);
        let rec = recover(&t.0).unwrap();
        assert_eq!(rec.joins, joins);
        assert_eq!(rec.pairs, pairs);
        assert_eq!(rec.ops, vec![op]);
        assert_eq!(rec.generation, 3);
        assert!(rec.had_snapshot);
    }

    #[test]
    fn logs_older_than_the_snapshot_are_ignored() {
        let t = Tmp::new("oldlogs");
        let dir = DataDir::open(&t.0).unwrap();
        let mut w = LogWriter::open_append(dir.wal_path(1), FsyncPolicy::Never).unwrap();
        w.append(&DurableOp::Put(Key::from("stale|1"), Value::new()))
            .unwrap();
        drop(w);
        write_snapshot(&dir.snap_path(2), &[], &[]).unwrap();
        let rec = recover(&t.0).unwrap();
        assert!(rec.ops.is_empty(), "generation-1 log must not replay");
        assert_eq!(rec.generation, 2);
    }

    #[test]
    fn corrupt_only_snapshot_is_an_error_not_silent_loss() {
        let t = Tmp::new("corruptsnap");
        let dir = DataDir::open(&t.0).unwrap();
        write_snapshot(&dir.snap_path(1), &[], &[]).unwrap();
        let mut bytes = fs::read(dir.snap_path(1)).unwrap();
        let len = bytes.len();
        bytes[len / 2] ^= 0xff;
        fs::write(dir.snap_path(1), bytes).unwrap();
        assert!(recover(&t.0).is_err());
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous() {
        let t = Tmp::new("fallback");
        let dir = DataDir::open(&t.0).unwrap();
        let pairs = vec![(Key::from("b|1"), Value::from_static(b"keep"))];
        write_snapshot(&dir.snap_path(1), &[], &pairs).unwrap();
        write_snapshot(&dir.snap_path(2), &[], &[]).unwrap();
        let mut bytes = fs::read(dir.snap_path(2)).unwrap();
        let len = bytes.len();
        bytes[len - 2] ^= 0xff;
        fs::write(dir.snap_path(2), bytes).unwrap();
        let rec = recover(&t.0).unwrap();
        assert_eq!(rec.pairs, pairs);
        assert_eq!(
            rec.generation, 2,
            "logs after the bad snapshot still replay"
        );
    }

    #[test]
    fn orphaned_tmp_files_are_cleaned_on_open() {
        let t = Tmp::new("tmpclean");
        fs::create_dir_all(&t.0).unwrap();
        // A crash between creating snap-3.tmp and renaming it leaves
        // this orphan; no generation ever reuses the name, so only
        // open-time housekeeping can reclaim it.
        fs::write(t.0.join("snap-3.tmp"), b"half-written").unwrap();
        write_snapshot(&DataDir::open(&t.0).unwrap().snap_path(2), &[], &[]).unwrap();
        let dir = DataDir::open(&t.0).unwrap();
        assert!(
            !t.0.join("snap-3.tmp").exists(),
            "orphan tmp must be deleted"
        );
        assert!(dir.snap_path(2).exists(), "published snapshots stay");
    }

    #[test]
    fn generation_housekeeping() {
        let t = Tmp::new("gens");
        let dir = DataDir::open(&t.0).unwrap();
        write_snapshot(&dir.snap_path(1), &[], &[]).unwrap();
        fs::write(dir.wal_path(1), b"").unwrap();
        fs::write(dir.wal_path(2), b"").unwrap();
        assert_eq!(dir.generations().unwrap(), vec![1, 2]);
        assert_eq!(dir.current_generation().unwrap(), 2);
        let mut removed = Vec::new();
        dir.remove_generations_before(2, |p| removed.push(p))
            .unwrap();
        assert_eq!(removed, vec![dir.wal_path(1), dir.snap_path(1)]);
        assert_eq!(dir.generations().unwrap(), vec![2]);
    }
}
