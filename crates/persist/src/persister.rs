//! Wiring the log to the engine: the [`Persister`] durability sink and
//! warm-restart recovery ([`attach`]).

use crate::dir::{recover, DataDir, Recovered};
use crate::fold::{FoldHook, Folder};
use crate::log::{FsyncPolicy, LogWriter};
use crate::snapshot::{sync_dir, write_snapshot};
use pequod_core::{Durability, DurableOp, Engine};
use pequod_store::{Key, Value};
use pequod_telemetry::Recorder;
use std::io;
use std::path::Path;

/// Tuning for one engine's persistence.
#[derive(Clone, Copy, Debug)]
pub struct PersistOptions {
    /// When log appends are forced to stable storage (see
    /// [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Seal the log segment after this many records and fold it into
    /// the next snapshot in the background (truncating the log);
    /// `None` disables automatic snapshots — the log grows until the
    /// next restart compacts it.
    pub snapshot_every: Option<u64>,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions {
            // Bounded loss under power failure at near-asynchronous
            // throughput; see docs/PERSISTENCE.md for the sweep.
            fsync: FsyncPolicy::EveryN(64),
            snapshot_every: Some(1 << 16),
        }
    }
}

/// Counters a [`Persister`] accumulates (readable via
/// [`Persister::stats`] in tests and diagnostics).
#[derive(Clone, Copy, Debug, Default)]
pub struct PersistStats {
    /// Records appended to the log.
    pub records_logged: u64,
    /// Snapshots published from an image the caller handed over
    /// ([`Persister::compact`]: recovery and finalization).
    pub snapshots_taken: u64,
    /// Log segments sealed and handed to the folder.
    pub segments_sealed: u64,
    /// Background folds that published a snapshot.
    pub folds: u64,
    /// Background folds that failed (their segments stay on disk).
    pub fold_failures: u64,
}

/// The concrete [`Durability`] sink: appends every captured mutation
/// to the live log segment, and every `snapshot_every` records seals
/// the segment and hands it to a `pequod-fold` thread that merges it
/// into the next snapshot generation (see `crate::fold`). The serving
/// thread never copies the engine's state: [`Durability::log`] always
/// returns `false`.
///
/// A failed append or seal-time fsync panics: an engine that
/// acknowledged a write its log silently dropped would be worse than
/// one that crashed — the crash is exactly what recovery is built to
/// survive. A failed fold does not: its segments stay, and recovery
/// replays them.
pub struct Persister {
    dir: DataDir,
    writer: LogWriter,
    /// The generation of the live segment.
    live: u64,
    opts: PersistOptions,
    since_seal: u64,
    stats: PersistStats,
    /// Telemetry sink for append/fsync latency and snapshot volume;
    /// disabled by default (every hook is then a no-op).
    recorder: Recorder,
    folder: Folder,
}

impl Persister {
    /// Opens a persister appending to `root`'s current generation.
    ///
    /// A torn tail left by a previous crash is truncated first
    /// ([`LogWriter::open_append_clean`]): appending after torn bytes
    /// would leave every new record unreachable to recovery. Callers
    /// that recovered first should prefer [`attach`], which also sets
    /// aside corrupt (bit-rotted) logs instead of truncating them.
    ///
    /// With `snapshot_every` set, the folder thread starts here.
    pub fn create(root: impl AsRef<Path>, opts: PersistOptions) -> io::Result<Persister> {
        let dir = DataDir::open(root)?;
        let live = dir.current_generation()?;
        let (writer, _torn) = LogWriter::open_append_clean(dir.wal_path(live), opts.fsync)?;
        sync_dir(dir.root())?;
        let mut folder = Folder::new(dir.clone());
        if opts.snapshot_every.is_some() {
            folder.start()?;
        }
        Ok(Persister {
            dir,
            writer,
            live,
            opts,
            since_seal: 0,
            stats: PersistStats::default(),
            recorder: Recorder::disabled(),
            folder,
        })
    }

    /// Counters.
    pub fn stats(&self) -> PersistStats {
        let (folds, fold_failures) = self.folder.counts();
        PersistStats {
            folds,
            fold_failures,
            ..self.stats
        }
    }

    /// Routes WAL append/fsync latency, snapshot volume and fold
    /// failures to `recorder`. [`attach`] installs the engine's own
    /// recorder so the persistence metrics land in the same scrape.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.folder.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Seals the live segment now — what [`Durability::log`] does every
    /// `snapshot_every` records: appends move to a fresh segment, and
    /// the sealed one is handed to the folder.
    ///
    /// If the fresh segment cannot be created (or the folder cannot
    /// start) the error is reported and the segment stays on disk: the
    /// next seal folds it along with its own.
    pub fn seal(&mut self) {
        self.since_seal = 0;
        let sealed = self.live;
        if let Err(e) = self
            .next_segment()
            .and_then(|()| self.folder.request(sealed))
        {
            eprintln!(
                "pequod-persist: sealing wal-{sealed}.log failed: {e}; \
                 it stays on disk until a later seal folds it"
            );
            self.recorder
                .flight("seal_failed", || format!("wal-{sealed}.log: {e}"));
        }
    }

    /// Moves appends to a fresh segment, `wal-(g+1).log`.
    fn next_segment(&mut self) -> io::Result<()> {
        let next = self.live + 1;
        let writer = LogWriter::open_append(self.dir.wal_path(next), self.opts.fsync)?;
        if self.opts.fsync != FsyncPolicy::Never {
            // The old segment's unsynced tail leaves the fsync window
            // with it, and the new segment's name must survive power
            // loss before a record in it is acknowledged.
            self.sync();
            sync_dir(self.dir.root())?;
        }
        self.writer = writer;
        self.live = next;
        self.stats.segments_sealed += 1;
        Ok(())
    }

    /// Blocks until the folder has no fold running or pending.
    pub fn wait_idle(&self) {
        self.folder.wait_idle();
    }

    /// Installs a hook called at every step of every fold (crash
    /// tests).
    #[doc(hidden)]
    pub fn set_fold_hook(&mut self, hook: Option<FoldHook>) {
        self.folder.set_hook(hook);
    }

    /// Publishes `joins`/`pairs` as a new snapshot generation and
    /// truncates the log: wait for the folder to go idle, write
    /// `snap-(g+1)`, open `wal-(g+1)`, delete every older generation.
    /// Crash-safe at every step — recovery always finds either the old
    /// generations intact or the new snapshot complete.
    pub fn compact(&mut self, joins: &[String], pairs: &[(Key, Value)]) -> io::Result<()> {
        self.folder.wait_idle();
        let next = self.live.saturating_add(1);
        let snap_path = self.dir.snap_path(next);
        write_snapshot(&snap_path, joins, pairs)?;
        self.writer = LogWriter::open_append(self.dir.wal_path(next), self.opts.fsync)?;
        self.live = next;
        sync_dir(self.dir.root())?;
        self.dir.remove_generations_before(next, |_| {})?;
        self.since_seal = 0;
        self.stats.snapshots_taken += 1;
        let bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
        self.recorder.snapshot_taken(bytes);
        Ok(())
    }
}

impl Drop for Persister {
    /// Finishes the folds already requested and joins the folder.
    fn drop(&mut self) {
        self.folder.stop();
    }
}

impl Durability for Persister {
    fn log(&mut self, op: &DurableOp) -> bool {
        let timer = self.recorder.timer();
        self.writer
            .append(op)
            // audit: allow(no-unwrap) — durability policy: a write the WAL
            // cannot record must not be acknowledged, so crash the server.
            .unwrap_or_else(|e| panic!("pequod-persist: WAL append failed: {e}"));
        self.recorder.wal_append(&timer);
        self.stats.records_logged += 1;
        self.since_seal += 1;
        if matches!(self.opts.snapshot_every, Some(n) if self.since_seal >= n) {
            self.seal();
        }
        false
    }

    /// The engine's finalization image (`Engine::finalize_durability`):
    /// joins the folder once its pending folds are done, then publishes
    /// the image. A later seal starts a new folder.
    fn snapshot(&mut self, joins: &[String], pairs: &[(Key, Value)]) {
        self.folder.stop();
        self.compact(joins, pairs)
            // audit: allow(no-unwrap) — a failed compaction leaves WAL and
            // snapshot generations inconsistent; crashing forces recovery.
            .unwrap_or_else(|e| panic!("pequod-persist: snapshot failed: {e}"));
    }

    fn sync(&mut self) {
        let timer = self.recorder.timer();
        self.writer
            .sync()
            // audit: allow(no-unwrap) — same policy as `log`: a sync the
            // caller depends on (shutdown, replication ack) must not fail
            // silently.
            .unwrap_or_else(|e| panic!("pequod-persist: WAL fsync failed: {e}"));
        self.recorder.wal_fsync(&timer);
    }
}

/// What [`attach`] found and did.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Joins restored (snapshot + log combined).
    pub joins: usize,
    /// Base pairs restored from the snapshot.
    pub snapshot_pairs: usize,
    /// Log records replayed after the snapshot.
    pub wal_records: u64,
    /// Torn/corrupt tail bytes dropped by checksum validation.
    pub bytes_dropped: u64,
    /// The generation serving resumed in.
    pub generation: u64,
    /// `Some(description)` if replay stopped at a **corrupt** (bit-rot)
    /// record rather than a cleanly torn crash tail. The damaged log
    /// was preserved as `wal-G.log.corrupt` for offline salvage —
    /// intact records may sit beyond the damage, unreachable to
    /// framing. Surface this to the operator.
    pub corruption: Option<String>,
}

/// Replays recovered durable state into an engine: joins first (from
/// the snapshot), then snapshot pairs, then the log tail in append
/// order. Join installation is idempotent
/// ([`Engine::add_join`] returns the existing id for an identical
/// spec), so replaying an `AddJoin` the snapshot already restored is
/// harmless. Computed ranges are *not* restored — they rebuild lazily
/// on first read, exactly like a post-eviction recompute.
pub fn replay(engine: &mut Engine, rec: &Recovered) -> Result<usize, String> {
    let mut joins = 0usize;
    for text in &rec.joins {
        engine
            .add_joins_text(text)
            .map_err(|e| format!("replaying snapshot join {text:?}: {e}"))?;
        joins += 1;
    }
    for (k, v) in &rec.pairs {
        engine.put(k.clone(), v.clone());
    }
    for op in &rec.ops {
        match op {
            DurableOp::Put(k, v) => engine.put(k.clone(), v.clone()),
            DurableOp::Remove(k) => engine.remove(k),
            DurableOp::AddJoin(text) => {
                engine
                    .add_joins_text(text)
                    .map_err(|e| format!("replaying logged join {text:?}: {e}"))?;
                joins += 1;
            }
        }
    }
    Ok(joins)
}

/// Makes `engine` durable against the data directory `root`: recovers
/// whatever a previous run left there (snapshot + log tail, torn
/// records dropped), compacts the replayed state into a fresh
/// generation so restart chains never re-replay old logs, and installs
/// a [`Persister`] capturing all future durable base writes.
///
/// Call it on a freshly built engine *before* serving; recovery
/// replays through the normal write path, and reads after `attach`
/// rebuild computed join ranges on demand.
pub fn attach(
    engine: &mut Engine,
    root: impl AsRef<Path>,
    opts: PersistOptions,
) -> io::Result<RecoveryReport> {
    let rec = recover(&root)?;
    let joins = replay(engine, &rec).map_err(io::Error::other)?;
    // A bit-rotted log is evidence, not garbage: the dropped suffix may
    // hold intact records that framing can no longer reach. Set it
    // aside under a name generation housekeeping will never touch,
    // instead of letting the compaction below delete the only copy.
    if let Some(corrupt) = &rec.corrupt_wal {
        let aside = corrupt.with_extension("log.corrupt");
        std::fs::rename(corrupt, &aside)?;
    }
    let mut persister = Persister::create(&root, opts)?;
    persister.set_recorder(engine.recorder().clone());
    // A clean restart that replayed nothing has nothing to compact:
    // skipping keeps restart loops O(1) in disk writes instead of
    // rewriting a full snapshot of the dataset per cycle. Any replayed
    // record, dropped byte, or detected corruption still compacts, so
    // restart chains never re-replay old logs.
    let clean_noop = rec.had_snapshot
        && rec.ops.is_empty()
        && rec.bytes_dropped == 0
        && rec.corruption.is_none();
    let generation = if clean_noop {
        rec.generation
    } else {
        let (join_texts, pairs) = engine.durable_state();
        persister.compact(&join_texts, &pairs)?;
        rec.generation + 1
    };
    let report = RecoveryReport {
        joins,
        snapshot_pairs: rec.pairs.len(),
        wal_records: rec.ops.len() as u64,
        bytes_dropped: rec.bytes_dropped,
        generation,
        corruption: rec.corruption.clone(),
    };
    engine.set_durability(Box::new(persister));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pequod_store::KeyRange;
    use pequod_store::Value;
    use std::path::PathBuf;

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

    struct Tmp(PathBuf);
    impl Tmp {
        fn new(name: &str) -> Tmp {
            let p = std::env::temp_dir()
                .join(format!("pequod-persister-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&p);
            Tmp(p)
        }
    }
    impl Drop for Tmp {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn no_snap() -> PersistOptions {
        PersistOptions {
            fsync: FsyncPolicy::Never,
            snapshot_every: None,
        }
    }

    #[test]
    fn warm_restart_restores_base_and_rebuilds_joins_lazily() {
        let t = Tmp::new("warm");
        {
            let mut e = Engine::new_default();
            attach(&mut e, &t.0, no_snap()).unwrap();
            e.add_join_text(TIMELINE).unwrap();
            e.put("s|ann|bob", "1");
            e.put("p|bob|0000000100", "Hi");
            // Materialize, then mutate: the computed range must not be
            // trusted across the restart.
            assert_eq!(e.scan(&KeyRange::prefix("t|ann|")).pairs.len(), 1);
            e.put("p|bob|0000000120", "again");
        }
        let mut e = Engine::new_default();
        let report = attach(&mut e, &t.0, no_snap()).unwrap();
        assert_eq!(report.joins, 1);
        assert_eq!(
            e.materialized_ranges(),
            0,
            "computed ranges must rebuild lazily, never be restored"
        );
        let tl = e.scan(&KeyRange::prefix("t|ann|")).pairs;
        assert_eq!(tl.len(), 2);
        assert_eq!(e.count(&KeyRange::prefix("p|bob|")), 2);
    }

    #[test]
    fn computed_tables_are_never_persisted() {
        let t = Tmp::new("nocomputed");
        {
            let mut e = Engine::new_default();
            attach(&mut e, &t.0, no_snap()).unwrap();
            e.add_join_text(TIMELINE).unwrap();
            e.put("s|ann|bob", "1");
            e.put("p|bob|0000000100", "Hi");
            let _ = e.scan(&KeyRange::prefix("t|ann|"));
        }
        let rec = recover(&t.0).unwrap();
        let all: Vec<DurableOp> = rec.ops;
        assert!(
            all.iter().all(|op| match op {
                DurableOp::Put(k, _) | DurableOp::Remove(k) => !k.as_bytes().starts_with(b"t|"),
                DurableOp::AddJoin(_) => true,
            }),
            "found a computed-table write in the log: {all:?}"
        );
        assert!(rec
            .pairs
            .iter()
            .all(|(k, _)| !k.as_bytes().starts_with(b"t|")));
    }

    fn every(n: u64) -> PersistOptions {
        PersistOptions {
            fsync: FsyncPolicy::Never,
            snapshot_every: Some(n),
        }
    }

    #[test]
    fn snapshot_cadence_truncates_the_log() {
        let t = Tmp::new("cadence");
        let mut p = Persister::create(&t.0, every(10)).unwrap();
        p.compact(&[], &[]).unwrap();
        for i in 0..35 {
            let op = DurableOp::Put(Key::from(format!("p|u|{i:010}")), Value::from_static(b"x"));
            assert!(!p.log(&op), "the serving thread never snapshots");
        }
        // The compaction opened generation 1; 35 records / 10 per seal
        // = 3 seals, folded in the background into one snapshot beside
        // the live segment.
        assert_eq!(p.stats().segments_sealed, 3);
        p.wait_idle();
        let dir = DataDir::open(&t.0).unwrap();
        assert_eq!(
            dir.generations().unwrap(),
            vec![4],
            "folded generations must be deleted"
        );
        assert!(dir.snap_path(4).exists() && dir.wal_path(4).exists());
        // The live segment holds only the records after the last seal.
        let rec = recover(&t.0).unwrap();
        assert_eq!(rec.pairs.len(), 30);
        assert_eq!(rec.ops.len(), 5);
        drop(p);
        let mut e = Engine::new_default();
        attach(&mut e, &t.0, every(10)).unwrap();
        assert_eq!(e.count(&KeyRange::prefix("p|u|")), 35);
    }

    #[test]
    fn finalization_joins_the_folder_and_drop_finishes_its_folds() {
        let t = Tmp::new("join");
        let pair = |i: u32| (Key::from(format!("p|a|{i:02}")), Value::from_static(b"x"));
        let put = |i: u32| {
            let (k, v) = pair(i);
            DurableOp::Put(k, v)
        };
        let mut p = Persister::create(&t.0, every(4)).unwrap();
        assert!(p.folder.running());
        for i in 0..9 {
            p.log(&put(i));
        }
        // What `Engine::finalize_durability` hands over: the folds run
        // out, the folder is joined, and the image is published.
        let pairs: Vec<(Key, Value)> = (0..9).map(pair).collect();
        p.snapshot(&[], &pairs);
        assert!(!p.folder.running());
        let rec = recover(&t.0).unwrap();
        assert_eq!((rec.pairs.len(), rec.ops.len()), (9, 0));
        // A later seal starts a folder again, and the drop finishes its
        // fold before joining it.
        for i in 9..13 {
            p.log(&put(i));
        }
        assert!(p.folder.running());
        drop(p);
        let dir = DataDir::open(&t.0).unwrap();
        assert_eq!(dir.generations().unwrap().len(), 1, "the drop folded");
        assert_eq!(recover(&t.0).unwrap().pairs.len(), 13);
    }

    #[test]
    fn a_failed_fold_keeps_its_segments_and_the_next_seal_retries() {
        let t = Tmp::new("foldfail");
        let recorder = Recorder::enabled();
        let mut p = Persister::create(&t.0, every(5)).unwrap();
        p.set_recorder(recorder.clone());
        p.compact(&[], &[]).unwrap();
        // Generation 1, as attach leaves it: the first seal folds into
        // snap-2, whose tmp path is now a directory.
        let dir = DataDir::open(&t.0).unwrap();
        let blocker = dir.snap_path(2).with_extension("tmp");
        std::fs::create_dir(&blocker).unwrap();
        let put =
            |i: u32| DurableOp::Put(Key::from(format!("p|f|{i:02}")), Value::from_static(b"v"));
        for i in 0..5 {
            p.log(&put(i));
        }
        p.wait_idle();
        assert_eq!((p.stats().folds, p.stats().fold_failures), (0, 1));
        assert_eq!(dir.generations().unwrap(), vec![1, 2], "the segments stay");
        assert_eq!(recover(&t.0).unwrap().ops.len(), 5, "recovery is complete");
        let flight = recorder.snapshot(true).flight;
        assert!(
            flight.iter().any(|ev| ev.kind == "fold_failed"),
            "{flight:?}"
        );
        // The next seal retries, folding both segments at once.
        std::fs::remove_dir(&blocker).unwrap();
        for i in 5..10 {
            p.log(&put(i));
        }
        p.wait_idle();
        assert_eq!((p.stats().folds, p.stats().fold_failures), (1, 1));
        assert_eq!(dir.generations().unwrap(), vec![3]);
        let rec = recover(&t.0).unwrap();
        assert_eq!((rec.pairs.len(), rec.ops.len()), (10, 0));
    }

    #[test]
    fn clean_restart_does_not_rewrite_the_snapshot() {
        let t = Tmp::new("cleanrestart");
        {
            let mut e = Engine::new_default();
            attach(&mut e, &t.0, no_snap()).unwrap();
            e.put("p|a|0000000001", "one");
        }
        // First restart replays one record → compacts to generation 2.
        {
            let mut e = Engine::new_default();
            let report = attach(&mut e, &t.0, no_snap()).unwrap();
            assert_eq!(report.generation, 2);
        }
        let dir = DataDir::open(&t.0).unwrap();
        let snap_mtime = std::fs::metadata(dir.snap_path(2))
            .unwrap()
            .modified()
            .unwrap();
        // Second restart replays nothing: same generation, snapshot
        // untouched — restart loops must be O(1) in disk writes.
        {
            let mut e = Engine::new_default();
            let report = attach(&mut e, &t.0, no_snap()).unwrap();
            assert_eq!(
                report.generation, 2,
                "clean restart must not bump the generation"
            );
            assert_eq!(e.count(&KeyRange::prefix("p|a|")), 1);
        }
        assert_eq!(
            std::fs::metadata(dir.snap_path(2))
                .unwrap()
                .modified()
                .unwrap(),
            snap_mtime,
            "clean restart must not rewrite the snapshot"
        );
        // And the durable chain still works after a skipped compaction.
        {
            let mut e = Engine::new_default();
            attach(&mut e, &t.0, no_snap()).unwrap();
            e.put("p|a|0000000002", "two");
        }
        let mut e = Engine::new_default();
        attach(&mut e, &t.0, no_snap()).unwrap();
        assert_eq!(e.count(&KeyRange::prefix("p|a|")), 2);
    }

    #[test]
    fn corrupt_log_is_preserved_for_salvage_not_deleted() {
        let t = Tmp::new("salvage");
        {
            let mut e = Engine::new_default();
            attach(&mut e, &t.0, no_snap()).unwrap();
            for i in 0..10 {
                e.put(format!("p|a|{i:010}"), "x");
            }
        }
        let dir = DataDir::open(&t.0).unwrap();
        let generation = dir.current_generation().unwrap();
        let wal_path = dir.wal_path(generation);
        // Bit rot in the *middle* of the log: records beyond the damage
        // are intact but unreachable — evidence worth keeping. All ten
        // records are the same length; flip a byte inside the second
        // record's checksummed body so the damage is detected as
        // corruption, not mistaken for a torn tail.
        let mut wal = std::fs::read(&wal_path).unwrap();
        let record_len = wal.len() / 10;
        let pos = record_len + record_len / 2;
        wal[pos] ^= 0x04;
        std::fs::write(&wal_path, &wal).unwrap();

        let mut e = Engine::new_default();
        let report = attach(&mut e, &t.0, no_snap()).unwrap();
        assert!(report.corruption.is_some(), "corruption must be reported");
        assert!(report.bytes_dropped > 0);
        let aside = wal_path.with_extension("log.corrupt");
        assert!(
            aside.exists(),
            "the damaged log must be set aside, not deleted"
        );
        assert_eq!(
            std::fs::read(&aside).unwrap(),
            wal,
            "the salvage copy must be byte-identical to the damaged log"
        );
        // The recovered prefix still serves, and future compactions
        // leave the salvage copy alone.
        assert!(e.count(&KeyRange::prefix("p|a|")) >= 1);
        let mut sink = e.take_durability().unwrap();
        let (joins, pairs) = e.durable_state();
        sink.snapshot(&joins, &pairs);
        assert!(
            aside.exists(),
            "compaction must never touch *.corrupt files"
        );
    }

    #[test]
    fn removes_survive_restart() {
        let t = Tmp::new("removes");
        {
            let mut e = Engine::new_default();
            attach(&mut e, &t.0, no_snap()).unwrap();
            e.put("p|a|0000000001", "one");
            e.put("p|a|0000000002", "two");
            e.remove(&Key::from("p|a|0000000001"));
        }
        let mut e = Engine::new_default();
        attach(&mut e, &t.0, no_snap()).unwrap();
        assert_eq!(e.count(&KeyRange::prefix("p|a|")), 1);
        assert!(e.get(&Key::from("p|a|0000000001")).is_none());
    }
}
