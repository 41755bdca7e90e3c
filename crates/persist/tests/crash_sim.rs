//! In-process crash simulation: a durable engine's write-ahead log is
//! truncated at **every byte offset** — every possible torn tail a
//! kill can leave — and recovery must always come back as a clean
//! *prefix* of the original history, answering byte-identically to a
//! reference engine that executed exactly that prefix.
//!
//! This is the exhaustive half of the crash-consistency story; the
//! process-level half (`tests/crash_recovery.rs` at the workspace
//! root) SIGKILLs a real `pequod-server` mid-batch over TCP.

use pequod_core::{DurableOp, Engine};
use pequod_persist::{attach, recover, DataDir, FsyncPolicy, PersistOptions};
use pequod_store::{Key, KeyRange, Value};
use std::fs;
use std::path::PathBuf;

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";
const FOLLOWERS: &str = "f|<poster>|<user> = copy s|<user>|<poster>";

struct Tmp(PathBuf);
impl Tmp {
    fn new(name: &str) -> Tmp {
        let p = std::env::temp_dir().join(format!("pequod-crashsim-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        Tmp(p)
    }
}
impl Drop for Tmp {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn no_snap() -> PersistOptions {
    PersistOptions {
        fsync: FsyncPolicy::Never,
        snapshot_every: None,
    }
}

/// The scripted history: joins early, interleaved puts/removes, binary
/// values, overwrites — enough shape that a wrong prefix would answer
/// differently.
fn script() -> Vec<DurableOp> {
    let mut ops = vec![DurableOp::AddJoin(TIMELINE.to_string())];
    for (u, p) in [
        ("ann", "bob"),
        ("ann", "liz"),
        ("cat", "bob"),
        ("cat", "dan"),
    ] {
        ops.push(DurableOp::Put(
            Key::from(format!("s|{u}|{p}")),
            Value::from_static(b"1"),
        ));
    }
    ops.push(DurableOp::AddJoin(FOLLOWERS.to_string()));
    for i in 0..24u64 {
        let poster = ["bob", "liz", "dan"][(i % 3) as usize];
        ops.push(DurableOp::Put(
            Key::from(format!("p|{poster}|{:010}", 100 + i)),
            Value::from(vec![b'v', (i & 0xff) as u8, 0x00, 0xff]),
        ));
        if i % 5 == 4 {
            let victim = ["bob", "liz", "dan"][((i / 5) % 3) as usize];
            ops.push(DurableOp::Remove(Key::from(format!(
                "p|{victim}|{:010}",
                100 + i - 3
            ))));
        }
        if i % 7 == 6 {
            // Overwrite an existing post: replay order matters.
            ops.push(DurableOp::Put(
                Key::from(format!("p|bob|{:010}", 100 + i - 6)),
                Value::from_static(b"edited"),
            ));
        }
    }
    ops
}

fn apply(engine: &mut Engine, ops: &[DurableOp]) {
    for op in ops {
        match op {
            DurableOp::Put(k, v) => engine.put(k.clone(), v.clone()),
            DurableOp::Remove(k) => engine.remove(k),
            DurableOp::AddJoin(t) => {
                engine.add_joins_text(t).unwrap();
            }
        }
    }
}

/// The full observable surface: every base and computed table, scanned
/// whole, plus counts — byte-identical or bust.
fn observe(engine: &mut Engine) -> Vec<(Key, Value)> {
    let mut out = Vec::new();
    for prefix in ["p|", "s|", "t|", "f|"] {
        out.extend(engine.scan(&KeyRange::prefix(prefix)).pairs);
    }
    out
}

#[test]
fn every_truncation_point_recovers_a_clean_prefix() {
    // Build the durable history once and keep the raw log bytes.
    let origin = Tmp::new("origin");
    {
        let mut e = Engine::new_default();
        attach(&mut e, &origin.0, no_snap()).unwrap();
        apply(&mut e, &script());
        // Reads materialize computed ranges; they must not leak into
        // the log or change what recovery sees.
        let _ = e.scan(&KeyRange::prefix("t|ann|"));
        let _ = e.count(&KeyRange::prefix("f|bob|"));
    }
    let dir = DataDir::open(&origin.0).unwrap();
    let generation = dir.current_generation().unwrap();
    let wal = fs::read(dir.wal_path(generation)).unwrap();
    let snap = fs::read(dir.snap_path(generation)).unwrap();
    let full_ops = recover(&origin.0).unwrap().ops;
    assert_eq!(full_ops.len(), script().len(), "setup: everything logged");

    // Reference engines for every possible surviving prefix, built
    // lazily; index k holds the observation after script()[..k].
    let script_ops = script();
    let mut observations: Vec<Option<Vec<(Key, Value)>>> = vec![None; script_ops.len() + 1];

    let work = Tmp::new("work");
    let wdir = DataDir::open(&work.0).unwrap();
    let stride = (wal.len() / 300).max(1);
    let mut cuts: Vec<usize> = (0..=wal.len()).step_by(stride).collect();
    if *cuts.last().unwrap() != wal.len() {
        cuts.push(wal.len());
    }
    for cut in cuts {
        // Simulate the crash: same snapshot, log torn at `cut`.
        fs::write(wdir.snap_path(generation), &snap).unwrap();
        fs::write(wdir.wal_path(generation), &wal[..cut]).unwrap();

        let rec = recover(&work.0).unwrap();
        let k = rec.ops.len();
        assert!(k <= script_ops.len());
        assert_eq!(
            rec.ops,
            script_ops[..k],
            "cut at byte {cut}: recovered ops are not the history prefix"
        );

        // Recovered engine answers byte-identically to a never-crashed
        // engine that executed exactly the surviving prefix.
        let mut recovered = Engine::new_default();
        attach(&mut recovered, &work.0, no_snap()).unwrap();
        let got = observe(&mut recovered);
        let want = observations[k].get_or_insert_with(|| {
            let mut reference = Engine::new_default();
            apply(&mut reference, &script_ops[..k]);
            observe(&mut reference)
        });
        assert_eq!(
            &got, want,
            "cut at byte {cut} (prefix {k}): recovered answers diverged"
        );

        // Clean the work dir for the next cut (attach compacted it).
        for g in wdir.generations().unwrap() {
            let _ = fs::remove_file(wdir.wal_path(g));
            let _ = fs::remove_file(wdir.snap_path(g));
        }
    }
}

#[test]
fn bit_rot_in_the_log_recovers_the_prefix_before_it() {
    let origin = Tmp::new("bitrot");
    {
        let mut e = Engine::new_default();
        attach(&mut e, &origin.0, no_snap()).unwrap();
        apply(&mut e, &script());
    }
    let dir = DataDir::open(&origin.0).unwrap();
    let generation = dir.current_generation().unwrap();
    let wal = fs::read(dir.wal_path(generation)).unwrap();
    let script_ops = script();

    let work = Tmp::new("bitrot-work");
    let wdir = DataDir::open(&work.0).unwrap();
    let snap = fs::read(dir.snap_path(generation)).unwrap();
    for pos in (0..wal.len()).step_by((wal.len() / 60).max(1)) {
        let mut bad = wal.clone();
        bad[pos] ^= 0x10;
        fs::write(wdir.snap_path(generation), &snap).unwrap();
        fs::write(wdir.wal_path(generation), &bad).unwrap();
        let rec = recover(&work.0).unwrap();
        let k = rec.ops.len();
        assert!(k <= script_ops.len());
        assert_eq!(
            rec.ops,
            script_ops[..k],
            "flip at byte {pos}: surviving ops are not a clean prefix"
        );
        assert!(
            rec.bytes_dropped > 0,
            "flip at byte {pos} dropped nothing yet shortened nothing?"
        );
        for g in wdir.generations().unwrap() {
            let _ = fs::remove_file(wdir.wal_path(g));
            let _ = fs::remove_file(wdir.snap_path(g));
        }
    }
}

/// Crash *between* runs compose: recover, write more, tear again —
/// recovery always resumes from the last consistent prefix.
#[test]
fn repeated_crashes_compose() {
    let t = Tmp::new("repeat");
    let mut total = 0usize;
    for round in 0..4usize {
        let mut e = Engine::new_default();
        attach(&mut e, &t.0, no_snap()).unwrap();
        assert_eq!(e.count(&KeyRange::prefix("x|")), total);
        for i in 0..8u64 {
            e.put(format!("x|{round:02}|{i:04}"), "v");
        }
        total += 8;
        // Tear a few bytes off the current log before the next round:
        // the last put of this round is lost, as a crash would lose it.
        let dir = DataDir::open(&t.0).unwrap();
        let generation = dir.current_generation().unwrap();
        let wal = fs::read(dir.wal_path(generation)).unwrap();
        fs::write(dir.wal_path(generation), &wal[..wal.len() - 2]).unwrap();
        total -= 1;
    }
}
