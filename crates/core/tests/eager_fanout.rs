//! Eager fan-out against a from-scratch recompute.
//!
//! A post is copied into every materialized timeline of a follower
//! before the write returns (§3.2). One fixed stream drives that path
//! over many timelines at once — full ones and partial ones (a check's
//! `[t|u|since, t|u|})`), one invalidated mid-stream, posts overwritten
//! and removed, with value sharing on and off, and with a chained
//! `count` over the timelines that makes every timeline write visible to
//! another join — and then the store must hold exactly what a fresh
//! engine computes from the surviving base rows, and the maintenance
//! counters must read the figures pinned below.

use pequod_core::{Engine, EngineConfig, EngineStats};
use pequod_store::{Key, KeyRange, StoreConfig};

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";
const COUNT: &str = "n|<user> = count t|<user>|<time:10>|<poster>";

const USERS: u32 = 48;
const POSTERS: u32 = 8;

fn user(u: u32) -> String {
    format!("u{u:02}")
}

fn poster(p: u32) -> String {
    format!("w{p}")
}

fn post_key(p: u32, time: u64) -> String {
    format!("p|{}|{time:010}", poster(p))
}

fn full(u: u32) -> KeyRange {
    KeyRange::prefix(format!("t|{}|", user(u)))
}

fn since(u: u32, time: u64) -> KeyRange {
    KeyRange::new(
        format!("t|{}|{time:010}", user(u)),
        Key::from(format!("t|{}|", user(u))).prefix_end().unwrap(),
    )
}

fn count(u: u32) -> KeyRange {
    KeyRange::single(Key::from(format!("n|{}", user(u))))
}

/// Users `0..16` read whole timelines, `16..32` only what came after
/// time 150, and the rest never read: their followers' posts reach no
/// range of theirs.
fn reads() -> Vec<KeyRange> {
    let mut reads: Vec<KeyRange> = (0..16).map(full).collect();
    reads.extend((16..32).map(|u| since(u, 150)));
    reads
}

fn engine(value_sharing: bool) -> Engine {
    let store = StoreConfig::flat().with_subtable("t|", 2);
    let mut e = Engine::new(EngineConfig {
        value_sharing,
        pending_log_limit: 3,
        ..EngineConfig::with_store(store)
    });
    e.add_join_text(TIMELINE).unwrap();
    e.add_join_text(COUNT).unwrap();
    e
}

/// Every pair of the store, as strings, in key order.
fn dump(e: &Engine) -> Vec<(String, String)> {
    let mut all = Vec::new();
    e.store().for_each(|k, v| {
        all.push((k.to_string(), String::from_utf8_lossy(&v).into_owned()));
    });
    all
}

/// The fixed stream. Each user follows three of the eight posters, so a
/// post reaches about a third of the materialized timelines.
fn run(e: &mut Engine) {
    for u in 0..USERS {
        for p in [u % POSTERS, (u + 3) % POSTERS, (u + 5) % POSTERS] {
            e.put(format!("s|{}|{}", user(u), poster(p)), "1");
        }
    }
    let mut time = 100;
    let mut post = |e: &mut Engine, p: u32| {
        time += 1;
        e.put(post_key(p, time), format!("post {time} by {}", poster(p)));
        time
    };
    for p in 0..POSTERS {
        post(e, p);
    }
    for r in reads() {
        assert!(e.scan(&r).is_complete());
    }
    // Phase one: no join reads the timelines, so every copy goes into a
    // table nobody watches.
    let mut kept = Vec::new();
    for i in 0..120 {
        kept.push((i % POSTERS, post(e, i % POSTERS)));
    }
    // Overwrite one post and remove another: an Update and a Remove
    // through the same entries.
    let (p, t) = kept[40];
    e.put(post_key(p, t), "edited");
    let (p, t) = kept[41];
    e.remove(&Key::from(post_key(p, t)));
    // User 3 follows four more posters: with a log limit of 3, its
    // timeline is completely invalidated, and its entries go with it.
    for p in 0..4 {
        e.put(format!("s|{}|x{p}", user(3)), "1");
    }
    // User 7 follows one more: logged, then applied by its next read.
    e.put(format!("s|{}|x0", user(7)), "1");
    assert!(e.scan(&full(7)).is_complete());
    for i in 0..40 {
        post(e, (i * 3) % POSTERS);
    }
    // Phase two: a count over the timelines of users 0..8 now watches
    // the `t|` table, so every copy is a write another join observes.
    for u in 0..8 {
        assert!(e.scan(&count(u)).is_complete());
    }
    for i in 0..60 {
        kept.push((i % POSTERS, post(e, (i * 5) % POSTERS)));
    }
    let (p, t) = kept[100];
    e.put(post_key(p, t), "edited again");
    let (p, t) = kept[130];
    e.remove(&Key::from(post_key(p, t)));
    assert_eq!(e.check_invariants(), Vec::<String>::new());
}

/// The maintenance counters the stream leaves, in the order pinned.
fn counters(s: &EngineStats) -> [u64; 5] {
    [
        s.eager_updates,
        s.spurious_fires,
        s.writes,
        s.mods_logged,
        s.mods_applied,
    ]
}

/// Users `0..260` of [`WIDE`] read whole timelines and `260..300` only
/// what came after time 150.
fn wide_reads() -> Vec<KeyRange> {
    let mut reads: Vec<KeyRange> = (0..260).map(full).collect();
    reads.extend((260..300).map(|u| since(u, 150)));
    reads
}

/// Users in the wide stream, every one following poster 0.
const WIDE: u32 = 320;

/// A stream whose posts each reach more timelines than one chunk of a
/// fan-out holds: everyone follows poster 0, and 300 of them read their
/// timelines. An Update, a Remove, a timeline invalidated by its
/// growing follow list, and the count over `t|` ride along as in [`run`].
fn run_wide(e: &mut Engine) {
    for u in 0..WIDE {
        e.put(format!("s|{}|{}", user(u), poster(0)), "1");
    }
    let mut time = 100;
    let mut post = |e: &mut Engine| {
        time += 1;
        e.put(post_key(0, time), format!("post {time}"));
        time
    };
    post(e);
    for r in wide_reads() {
        assert!(e.scan(&r).is_complete());
    }
    let kept: Vec<u64> = (0..20).map(|_| post(e)).collect();
    e.put(post_key(0, kept[5]), "edited");
    e.remove(&Key::from(post_key(0, kept[6])));
    for p in 1..5 {
        e.put(format!("s|{}|{}", user(200), poster(p)), "1");
    }
    for _ in 0..10 {
        post(e);
    }
    for u in 0..8 {
        assert!(e.scan(&count(u)).is_complete());
    }
    for _ in 0..10 {
        post(e);
    }
    e.put(post_key(0, kept[10]), "edited again");
    e.remove(&Key::from(post_key(0, kept[11])));
    assert_eq!(e.check_invariants(), Vec::<String>::new());
}

/// Runs `stream`, brings every range `reads` names (and the counts of
/// users `0..8`) up to date, and holds the store to a fresh engine's
/// recompute from the surviving base rows; returns the counters the
/// stream itself left.
fn matches_recompute(
    value_sharing: bool,
    stream: fn(&mut Engine),
    reads: Vec<KeyRange>,
) -> [u64; 5] {
    let mut e = engine(value_sharing);
    stream(&mut e);
    let stats = counters(e.engine_stats());
    // Bring logged and invalidated ranges up to date, as their next read
    // would; a timeline maintained eagerly is already.
    let rereads: Vec<KeyRange> = reads.into_iter().chain((0..8).map(count)).collect();
    for r in &rereads {
        assert!(e.scan(r).is_complete());
    }
    let mut fresh = engine(value_sharing);
    for (k, v) in dump(&e) {
        if k.starts_with("p|") || k.starts_with("s|") {
            fresh.put(k, v);
        }
    }
    for r in &rereads {
        assert!(fresh.scan(r).is_complete());
    }
    assert_eq!(dump(&e), dump(&fresh));
    assert_eq!(e.check_invariants(), Vec::<String>::new());
    stats
}

#[test]
fn eager_fanout_matches_a_recompute_with_value_sharing() {
    assert_eq!(matches_recompute(true, run, reads()), PINNED);
}

#[test]
fn eager_fanout_matches_a_recompute_without_value_sharing() {
    assert_eq!(matches_recompute(false, run, reads()), PINNED);
}

#[test]
fn a_fanout_wider_than_a_chunk_matches_a_recompute() {
    for value_sharing in [true, false] {
        let stats = matches_recompute(value_sharing, run_wide, wide_reads());
        assert_eq!(stats, PINNED_WIDE);
    }
}

/// `eager_updates`, `spurious_fires`, `writes`, `mods_logged` and
/// `mods_applied` after the stream, as measured while each update still
/// went through the status range and its own store write: how the
/// fan-out is carried out must not move them. Most spurious fires are
/// the count's: read one key at a time, each `n|u` range derives no
/// binding for `user`, so its updater watches all of `t|`.
const PINNED: [u64; 5] = [2976, 9366, 4820, 5, 1];

/// The same counters after [`run_wide`], measured the same way.
const PINNED_WIDE: [u64; 5] = [12238, 32384, 14725, 4, 0];
