//! Multi-threaded stress tests for `pequod_core::ShardedEngine`:
//! concurrent writer and reader threads, each with its own
//! `ShardedHandle`, hammering all shards at once. Readers observe
//! eventually-consistent intermediate states; once the writers finish,
//! the counts must converge to exactly the expected totals (writes are
//! acknowledged only after their notifications are enqueued, so a
//! query issued after the last ack observes every write).

use pequod::core::partition::{ComponentHashPartition, Partition};
use pequod::core::{Client, Command, EngineConfig, Response, ShardedEngine};
use pequod::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

fn sharded(shards: u32) -> ShardedEngine {
    let part = Arc::new(ComponentHashPartition {
        component: 1,
        servers: shards,
    });
    ShardedEngine::new(
        shards as usize,
        EngineConfig::default(),
        part,
        &["p|", "s|"],
    )
}

/// Concurrent writers on disjoint key sets, readers counting while the
/// writes are in flight: no operation may fail, and the final counts
/// must equal what was written.
#[test]
fn concurrent_writers_and_readers_converge() {
    const WRITERS: usize = 4;
    const POSTS_PER_WRITER: u64 = 120;
    let mut engine = sharded(4);

    let done = Arc::new(AtomicBool::new(false));
    // Readers poll counts of every writer's post table during the run;
    // intermediate values are unconstrained (eventual consistency), but
    // must be monotone per poster since nothing is removed.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let mut h = engine.client_handle();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut last = [0u64; WRITERS];
                while !done.load(Ordering::Relaxed) {
                    for (w, prev) in last.iter_mut().enumerate() {
                        let n = h.count(&KeyRange::prefix(format!("p|w{w}|")));
                        assert!(n >= *prev, "count went backwards: {n} < {prev}");
                        *prev = n;
                    }
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let mut h = engine.client_handle();
            std::thread::spawn(move || {
                for t in 0..POSTS_PER_WRITER {
                    h.put(
                        &Key::from(format!("p|w{w}|{t:010}")),
                        &Value::from_static(b"post"),
                    );
                }
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for t in readers {
        t.join().unwrap();
    }

    let mut h = engine.client_handle();
    for w in 0..WRITERS {
        assert_eq!(
            h.count(&KeyRange::prefix(format!("p|w{w}|"))),
            POSTS_PER_WRITER,
            "writer {w}'s posts did not all land"
        );
    }
    let stats = h.stats();
    assert_eq!(stats.keys, WRITERS as u64 * POSTS_PER_WRITER);

    // Deep invariant sweep (docs/CORRECTNESS.md): every shard's
    // counters and indexes, plus cross-shard subscription symmetry.
    let violations = engine.check_invariants();
    assert!(violations.is_empty(), "invariants violated: {violations:?}");
}

/// Writers post into a live cross-shard join while readers repeatedly
/// materialize and re-validate the joined timelines. After the dust
/// settles the timeline counts must equal the number of posts each
/// followed poster made.
#[test]
fn concurrent_join_maintenance_converges() {
    const POSTERS: usize = 4;
    const POSTS_PER_POSTER: u64 = 60;
    let mut engine = sharded(4);
    {
        let mut h = engine.client_handle();
        h.add_join(TIMELINE).unwrap();
        // Two followers per poster, spread over shards: reader0 follows
        // everyone, reader1 follows the even posters.
        for p in 0..POSTERS {
            h.put(
                &Key::from(format!("s|reader0|w{p}")),
                &Value::from_static(b"1"),
            );
            if p % 2 == 0 {
                h.put(
                    &Key::from(format!("s|reader1|w{p}")),
                    &Value::from_static(b"1"),
                );
            }
        }
    }

    let done = Arc::new(AtomicBool::new(false));
    let pollers: Vec<_> = (0..2)
        .map(|r| {
            let mut h = engine.client_handle();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut last = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let n = h.count(&KeyRange::prefix(format!("t|reader{r}|")));
                    assert!(n >= last, "timeline shrank: {n} < {last}");
                    last = n;
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..POSTERS)
        .map(|p| {
            let mut h = engine.client_handle();
            std::thread::spawn(move || {
                for t in 0..POSTS_PER_POSTER {
                    h.put(
                        &Key::from(format!("p|w{p}|{t:010}")),
                        &Value::from_static(b"hi"),
                    );
                }
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for t in pollers {
        t.join().unwrap();
    }

    let mut h = engine.client_handle();
    assert_eq!(
        h.count(&KeyRange::prefix("t|reader0|")),
        POSTERS as u64 * POSTS_PER_POSTER,
        "reader0 follows everyone"
    );
    assert_eq!(
        h.count(&KeyRange::prefix("t|reader1|")),
        (POSTERS as u64).div_ceil(2) * POSTS_PER_POSTER,
        "reader1 follows the even posters"
    );

    // Deep invariant sweep after a run full of cross-shard
    // subscriptions: materialized timelines, replica residency, and
    // peer-serving symmetry must all agree (docs/CORRECTNESS.md).
    let violations = engine.check_invariants();
    assert!(violations.is_empty(), "invariants violated: {violations:?}");
}

/// A whole-table read under a hash partition is scatter-gathered from
/// every peer, and the range installs only when the slowest grant has
/// landed. Writes acked at a peer that already granted — while a peer
/// preloaded with ≈30k rows is still scanning for its grant — reach the
/// reader as notifications for a range it does not hold yet. They must
/// be kept and applied once the range installs: after the writer's last
/// ack, `count p|` equals every acked write.
#[test]
fn writes_acked_during_a_multi_peer_fetch_are_not_lost() {
    // The grant's cost grows with the preloaded rows; an unoptimised
    // build gets a smaller table and a window of about the same width.
    const PRELOAD: u64 = if cfg!(debug_assertions) {
        6_000
    } else {
        30_000
    };
    const WRITES: u64 = 5_000;
    let part = ComponentHashPartition {
        component: 1,
        servers: 3,
    };
    let home = |user: &str| part.home_of(&Key::from(format!("p|{user}|0")));
    // `count p|` executes on the shard that homes the bare prefix; the
    // writer's user and the preloaded user live on the other two.
    let reader_shard = part.home_of(&Key::from("p|"));
    let users = || (0..).map(|i| format!("u{i}"));
    let writer_user = users().find(|u| home(u) != reader_shard).unwrap();
    let slow_user = users()
        .find(|u| home(u) != reader_shard && home(u) != home(&writer_user))
        .unwrap();

    let mut engine = sharded(3);
    let preload: Vec<Command> = (0..PRELOAD)
        .map(|t| {
            Command::Put(
                Key::from(format!("p|{slow_user}|{t:010}")),
                Value::from_static(b"old post"),
            )
        })
        .collect();
    assert!(engine
        .execute_batch(preload)
        .iter()
        .all(|r| *r == Response::Ok));

    // The read starts once the writer is a tenth of the way through, so
    // the writer's shard grants at once and the rest of the writes are
    // acked while the preloaded shard is still scanning.
    let written = Arc::new(AtomicU64::new(0));
    let writer = {
        let mut h = engine.client_handle();
        let written = written.clone();
        std::thread::spawn(move || {
            for t in 0..WRITES {
                h.put(
                    &Key::from(format!("p|{writer_user}|{t:010}")),
                    &Value::from_static(b"new post"),
                );
                written.store(t + 1, Ordering::Release);
            }
        })
    };
    while written.load(Ordering::Acquire) < WRITES / 10 {
        std::thread::yield_now();
    }
    let mut reader = engine.client_handle();
    let before = written.load(Ordering::Acquire);
    let during = reader.count(&KeyRange::prefix("p|"));
    let after = written.load(Ordering::Acquire);
    writer.join().unwrap();

    // The race this test exists for: writes acked while the fetch was
    // open. Without them it would pass without exercising anything.
    assert!(
        after > before,
        "no write was acked during the fetch ({before} before it, {after} after)"
    );
    assert!(during >= PRELOAD, "the read lost preloaded rows: {during}");
    assert_eq!(
        reader.count(&KeyRange::prefix("p|")),
        PRELOAD + WRITES,
        "writes acked while the whole-table fetch was open never arrived"
    );
    let violations = engine.check_invariants();
    assert!(violations.is_empty(), "invariants violated: {violations:?}");
}
