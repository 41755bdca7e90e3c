//! The background fold against the engine's own scan: streams of
//! put/remove/addjoin over binary keys, sealed every 1–8 records, where
//!
//! * once the folder is idle after a seal, the newest snapshot's joins
//!   and pairs equal `Engine::durable_state` exactly, and
//! * a copy of the data directory taken at every step of every fold —
//!   after the tmp write, after the rename, after each deletion — is
//!   what a crash there would leave, and recovers to that same state.
//!
//! The seam where the two could part is a join installed over base
//! keys that already sit in its output range: the engine's scan stops
//! counting them as durable at once, while the log still holds their
//! puts. The generator reaches it (`c|` keys are written before the
//! `c|` join arrives) and `add_join_over_existing_base_keys` pins it.
//!
//! `PROPTEST_CASES` sets the case count (default 24).

use pequod_core::{Durability, DurableOp, Engine};
use pequod_persist::{
    read_snapshot, recover, replay, DataDir, FoldStep, FsyncPolicy, PersistOptions, Persister,
};
use pequod_store::{Key, KeyRange, Value};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

const TABLES: [&str; 4] = ["a|", "b|", "c|", "n|"];
const JOINS: [&str; 2] = ["c|<x> = copy a|<x>", "n|<x> = count b|<x>"];

struct Tmp(PathBuf);
impl Tmp {
    fn new(name: &str) -> Tmp {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let p = std::env::temp_dir().join(format!(
            "pequod-foldmodel-{}-{name}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&p);
        Tmp(p)
    }
}
impl Drop for Tmp {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The engine's sink, with the persister still reachable by the test.
struct Shared(Arc<Mutex<Persister>>);

fn lock(p: &Mutex<Persister>) -> MutexGuard<'_, Persister> {
    p.lock().unwrap()
}

impl Durability for Shared {
    fn log(&mut self, op: &DurableOp) -> bool {
        lock(&self.0).log(op)
    }
    fn snapshot(&mut self, joins: &[String], pairs: &[(Key, Value)]) {
        lock(&self.0).snapshot(joins, pairs);
    }
    fn sync(&mut self) {
        lock(&self.0).sync();
    }
}

/// A durable engine whose persister the test keeps a handle on, and
/// the directory copies its fold hook takes.
struct Rig {
    engine: Engine,
    persister: Arc<Mutex<Persister>>,
    copies: Arc<Mutex<Vec<(FoldStep, PathBuf)>>>,
    dir: Tmp,
}

impl Rig {
    /// `compacted`: start from a published empty snapshot (as `attach`
    /// leaves a fresh directory) or from none at all.
    fn new(every: u64, compacted: bool) -> Rig {
        let dir = Tmp::new("rig");
        let opts = PersistOptions {
            fsync: FsyncPolicy::Never,
            snapshot_every: Some(every),
        };
        let mut p = Persister::create(&dir.0, opts).unwrap();
        if compacted {
            p.compact(&[], &[]).unwrap();
        }
        let copies = Arc::new(Mutex::new(Vec::new()));
        let (from, into) = (dir.0.clone(), Arc::clone(&copies));
        p.set_fold_hook(Some(Arc::new(move |step: &FoldStep| {
            let to = from.with_extension(format!("stop{}", into.lock().unwrap().len()));
            copy_dir(&from, &to);
            into.lock().unwrap().push((step.clone(), to));
        })));
        let persister = Arc::new(Mutex::new(p));
        let mut engine = Engine::new_default();
        engine.set_durability(Box::new(Shared(Arc::clone(&persister))));
        Rig {
            engine,
            persister,
            copies,
            dir,
        }
    }

    fn sealed(&self) -> u64 {
        lock(&self.persister).stats().segments_sealed
    }

    /// Waits out the folds, then checks every directory copy they left
    /// and, if `sealed`, the newest snapshot, against the engine.
    fn check(&mut self, sealed: bool) -> Result<(), TestCaseError> {
        lock(&self.persister).wait_idle();
        prop_assert_eq!(lock(&self.persister).stats().fold_failures, 0);
        let reference = self.engine.durable_state();
        for (step, copy) in self.copies.lock().unwrap().drain(..) {
            let got = recovered_state(&copy);
            let _ = fs::remove_dir_all(&copy);
            prop_assert_eq!(
                &got,
                &reference,
                "a crash at {:?} recovered differently",
                step
            );
        }
        if sealed {
            let snap = newest_snapshot(&self.dir.0);
            prop_assert_eq!(&snap.joins, &reference.0, "fold joins != durable_state");
            prop_assert_eq!(&snap.pairs, &reference.1, "fold pairs != durable_state");
        }
        Ok(())
    }
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
        }
    }
}

/// What an engine recovered from `dir` holds durably.
fn recovered_state(dir: &Path) -> (Vec<String>, Vec<(Key, Value)>) {
    let rec = recover(dir).unwrap();
    let mut e = Engine::new_default();
    replay(&mut e, &rec).unwrap();
    e.durable_state()
}

fn newest_snapshot(dir: &Path) -> pequod_persist::SnapshotData {
    let dir = DataDir::open(dir).unwrap();
    let newest = dir
        .generations()
        .unwrap()
        .into_iter()
        .rev()
        .find(|&g| dir.snap_path(g).exists())
        .expect("a fold published a snapshot");
    read_snapshot(&dir.snap_path(newest)).unwrap()
}

#[derive(Clone, Debug)]
enum Op {
    Put(usize, Vec<u8>, Vec<u8>),
    Remove(usize, Vec<u8>),
    AddJoin(usize),
    Scan(usize),
}

/// A small alphabet with the delimiter, NUL and 0xff in it: keys
/// collide often (overwrites, removals of live keys) and are binary.
fn suffix() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: [u8; 4] = [0, 0xff, b'|', b'a'];
    proptest::collection::vec((0..ALPHABET.len()).prop_map(|i| ALPHABET[i]), 0..3)
}

fn put() -> impl Strategy<Value = Op> {
    let value = proptest::collection::vec(any::<u8>(), 0..4);
    (0..TABLES.len(), suffix(), value).prop_map(|(t, k, v)| Op::Put(t, k, v))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Uniform over the arms: puts are three of six.
    prop_oneof![
        put(),
        put(),
        put(),
        (0..TABLES.len(), suffix()).prop_map(|(t, k)| Op::Remove(t, k)),
        (0..JOINS.len()).prop_map(Op::AddJoin),
        (0..TABLES.len()).prop_map(Op::Scan),
    ]
}

fn key(table: usize, suffix: &[u8]) -> Key {
    let mut k = TABLES[table].as_bytes().to_vec();
    k.extend_from_slice(suffix);
    Key::from(k)
}

fn apply(engine: &mut Engine, op: &Op) {
    match op {
        // A client write into an installed join's output range is a
        // computed write, never logged; only base writes are under test.
        Op::Put(t, k, v) => {
            let k = key(*t, k);
            if engine.is_durable_base(&k) {
                engine.put(k, Value::from(v.clone()));
            }
        }
        Op::Remove(t, k) => {
            let k = key(*t, k);
            if engine.is_durable_base(&k) {
                engine.remove(&k);
            }
        }
        Op::AddJoin(j) => {
            engine.add_join_text(JOINS[*j]).unwrap();
        }
        Op::Scan(t) => {
            let _ = engine.scan(&KeyRange::prefix(TABLES[*t]));
        }
    }
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn the_fold_writes_what_the_engine_scans(
        ops in proptest::collection::vec(op_strategy(), 1..48),
        every in 1u64..=8,
        compacted in any::<bool>(),
    ) {
        let mut rig = Rig::new(every, compacted);
        for op in &ops {
            let before = rig.sealed();
            apply(&mut rig.engine, op);
            let sealed = rig.sealed() > before;
            rig.check(sealed)?;
        }
        // Seal the tail too: the snapshot then holds everything.
        lock(&rig.persister).seal();
        rig.check(true)?;
    }
}

#[test]
fn add_join_over_existing_base_keys() {
    let mut rig = Rig::new(4, true);
    rig.engine.put("c|x", "base");
    rig.engine.put("c|y", "base");
    rig.engine.put("a|x", "source");
    // The join's output range now covers c|x and c|y: the scan drops
    // them from the durable state, so the fold must too. The join is
    // the fourth record, so it seals the segment.
    rig.engine.add_join_text(JOINS[0]).unwrap();
    assert_eq!(rig.sealed(), 1);
    rig.check(true).unwrap();
    let snap = newest_snapshot(&rig.dir.0);
    assert_eq!(snap.joins.len(), 1);
    assert_eq!(
        snap.pairs,
        vec![(Key::from("a|x"), Value::from_static(b"source"))]
    );
}
