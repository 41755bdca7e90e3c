//! Memory-limit mechanics at the engine level: pay-as-you-go eviction,
//! limit suspension, authority-aware base eviction, and output-table
//! eviction invalidating the computed ranges whose rows it drops.

// Test-only crate: shared helpers sit outside #[test] functions, so
// clippy's allow-unwrap-in-tests does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use pequod_core::config::MemoryLimit;
use pequod_core::{Engine, EngineConfig};
use pequod_store::{Key, KeyRange, StoreConfig, Value};

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

fn timeline_engine(limit: Option<MemoryLimit>) -> Engine {
    let cfg = EngineConfig {
        mem_limit: limit,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(cfg);
    e.add_join_text(TIMELINE).unwrap();
    e
}

/// Eviction pays as it goes: under a Twip-like thrash — 200 equal
/// timelines, room for about half of them — no single read or write
/// evicts more ranges than it takes to cover what that operation itself
/// added, plus one, and memory is at or under the cap after every one.
/// (With a low watermark an eighth under the cap, the first read over
/// the cap evicted a dozen ranges at once, and the next eleven none.)
#[test]
fn an_operation_evicts_what_it_grew_and_no_more() {
    const USERS: u32 = 200;
    let tweet = "a tweet that takes up some room";
    let load = |e: &mut Engine| {
        for u in 0..USERS {
            e.put(format!("s|u{u:03}|bob"), "1");
            e.put(format!("s|u{u:03}|liz"), "1");
        }
        for t in 0..15u64 {
            e.put(format!("p|bob|{t:010}"), tweet);
            e.put(format!("p|liz|{t:010}"), tweet);
        }
    };
    // What one materialized timeline occupies: the eviction unit.
    let mut twin = timeline_engine(None);
    load(&mut twin);
    let base = twin.memory_bytes();
    twin.scan(&KeyRange::prefix("t|u000|"));
    let unit = twin.memory_bytes() - base;

    let limit = MemoryLimit::new(base + 100 * unit);
    let mut e = timeline_engine(Some(limit));
    load(&mut e);
    let mut evicted_by_reads = 0;
    for round in 0..3u32 {
        // Every timeline in turn, more of them than fit: each read past
        // the first hundred materializes one unit and must evict one.
        for u in (0..USERS).map(|u| (u * 7 + round) % USERS) {
            let before = e.engine_stats().js_evictions;
            let tl = e.scan(&KeyRange::prefix(format!("t|u{u:03}|")));
            assert_eq!(tl.pairs.len(), 30 + round as usize);
            let evicted = e.engine_stats().js_evictions - before;
            assert!(evicted <= 2, "one read evicted {evicted} ranges");
            assert!(e.memory_bytes() <= limit.high_bytes);
            evicted_by_reads += evicted;
        }
        // A post lands in every materialized timeline at once: it may
        // evict as many ranges as that growth takes up, plus one.
        let post = format!("p|bob|{:010}", 100 + round);
        let out_key = format!("t|u000|{:010}|bob", 100 + round);
        let growth = e.materialized_ranges() * out_key.len() + post.len() + tweet.len();
        let before = e.engine_stats().js_evictions;
        e.put(post, tweet);
        let evicted = (e.engine_stats().js_evictions - before) as usize;
        assert!(
            evicted <= growth / unit + 1,
            "a post that added {growth} bytes evicted {evicted} ranges of {unit}"
        );
        assert!(e.memory_bytes() <= limit.high_bytes);
    }
    assert!(
        evicted_by_reads >= 300,
        "the thrash must thrash: {evicted_by_reads}"
    );
    assert!(e.engine_stats().peak_memory_bytes > limit.high_bytes as u64);
}

/// `scan_with` is `scan` without the collection: on a capped engine
/// (every read over the high watermark, so every read evicts) it visits
/// exactly the pairs `scan` returns, in order, and exactly those of an
/// uncapped engine — eviction runs after the last visit, never under
/// it. Under `--features paranoid` each of these reads also re-checks
/// every engine invariant.
#[test]
fn scan_with_visits_scans_pairs_under_a_memory_cap() {
    let limit = MemoryLimit::new(8 * 1024);
    let mut streamed = timeline_engine(Some(limit));
    let mut collected = timeline_engine(Some(limit));
    let mut free = timeline_engine(None);
    for e in [&mut streamed, &mut collected, &mut free] {
        for u in 0..60u32 {
            e.put(format!("s|u{u:03}|bob"), "1");
        }
        for t in 0..30u64 {
            e.put(format!("p|bob|{t:010}"), "a tweet that takes up some room");
        }
    }
    for round in 0..2 {
        for u in 0..60u32 {
            let range = KeyRange::prefix(format!("t|u{u:03}|"));
            let mut seen = Vec::new();
            let missing = streamed.scan_with(&range, |k, v| seen.push((k.clone(), v.to_value())));
            let want = collected.scan(&range);
            assert!(missing.is_empty() && want.is_complete());
            assert_eq!(seen, want.pairs, "round {round} user {u}");
            assert_eq!(seen, free.scan(&range).pairs, "round {round} user {u}");
            assert_eq!(seen.len(), 30);
            assert!(streamed.memory_bytes() <= limit.high_bytes);
        }
    }
    let (a, b) = (streamed.engine_stats(), collected.engine_stats());
    assert!(a.js_evictions > 0);
    assert_eq!(a.js_evictions, b.js_evictions);
    assert_eq!(a.join_execs, b.join_execs);
    // An empty range visits nothing and reports nothing.
    let empty = KeyRange::new("t|z", "t|a");
    assert!(streamed
        .scan_with(&empty, |_, _| panic!("visited an empty range"))
        .is_empty());
}

/// Many timelines share one celebrity's source range, so their
/// updaters coalesce onto a single interval-tree node. Materializing and
/// evicting them over and over must leave no entry behind, keep every
/// cross-structure invariant, and answer exactly like an uncapped engine.
#[test]
fn celebrity_timelines_evict_and_recompute_cleanly() {
    let limit = MemoryLimit::new(48 * 1024);
    let mut capped = timeline_engine(Some(limit));
    let mut free = timeline_engine(None);
    let users = 160u32;
    for e in [&mut capped, &mut free] {
        for u in 0..users {
            e.put(format!("s|u{u:03}|celeb"), "1");
            e.put(format!("s|u{u:03}|p{:02}", u % 7), "1");
        }
        for t in 0..12u64 {
            e.put(
                format!("p|celeb|{t:010}"),
                "a celebrity tweet of some length",
            );
            e.put(format!("p|p{:02}|{t:010}", t % 7), "a friend's tweet");
        }
    }
    let mut next_time = 100u64;
    for round in 0..3u32 {
        for i in 0..users {
            // A stride walk revisits timelines long after they were
            // evicted; every third read follows a fresh post or an
            // unfollow/refollow, so eager and lazy maintenance both run
            // against the coalesced node.
            let u = (i * 7 + round * 13) % users;
            if i % 3 == 0 {
                next_time += 1;
                for e in [&mut capped, &mut free] {
                    e.put(format!("p|celeb|{next_time:010}"), "breaking news");
                }
            }
            if i % 11 == 0 {
                for e in [&mut capped, &mut free] {
                    e.remove(&Key::from(format!("s|u{u:03}|celeb")));
                    e.put(format!("s|u{u:03}|celeb"), "1");
                }
            }
            let range = KeyRange::prefix(format!("t|u{u:03}|"));
            assert_eq!(capped.scan(&range).pairs, free.scan(&range).pairs);
            assert!(capped.memory_bytes() <= limit.high_bytes);
        }
        assert_eq!(capped.check_invariants(), Vec::<String>::new());
    }
    assert!(capped.engine_stats().js_evictions > users as u64);
    assert_eq!(free.engine_stats().js_evictions, 0);
    // Every capped range is recomputable: dropping them all leaves no
    // updater behind, while the uncapped engine still holds one entry
    // set per timeline on the shared node.
    capped.evict_to(0);
    assert_eq!(capped.materialized_ranges(), 0);
    assert_eq!(capped.updater_entries(), 0);
    assert_eq!(capped.check_invariants(), Vec::<String>::new());
    assert!(free.updater_entries() >= 2 * users as usize);
    assert_eq!(free.check_invariants(), Vec::<String>::new());
}

#[test]
fn set_mem_limit_suspends_and_restores() {
    let limit = MemoryLimit::new(4 * 1024);
    let mut e = timeline_engine(Some(limit));
    assert_eq!(e.mem_limit(), Some(limit));
    let saved = e.set_mem_limit(None);
    assert_eq!(saved, Some(limit));
    // Unbounded while suspended: grow well past the cap.
    for u in 0..40u32 {
        e.put(format!("s|u{u:03}|bob"), "1");
    }
    for t in 0..30u64 {
        e.put(format!("p|bob|{t:010}"), "a tweet that takes up some room");
    }
    for u in 0..40u32 {
        e.scan(&KeyRange::prefix(format!("t|u{u:03}|")));
    }
    assert!(e.memory_bytes() > limit.high_bytes);
    assert_eq!(e.engine_stats().js_evictions, 0);
    // Restoring re-arms maintenance at the next operation.
    e.set_mem_limit(saved);
    e.put("p|bob|9999999999", "trigger");
    assert!(e.memory_bytes() <= limit.high_bytes);
    assert!(e.engine_stats().js_evictions > 0);
}

#[test]
fn base_eviction_keeps_authoritative_rows() {
    let mut e = Engine::new_default();
    e.mark_remote_table("p|");
    // This engine is the authority for bob's posts; liz's are a cached
    // replica fetched from elsewhere.
    e.set_base_authority(|key: &Key| key.as_bytes().starts_with(b"p|bob|"));
    e.install_base(
        &KeyRange::prefix("p|bob|"),
        vec![(Key::from("p|bob|0000000100"), Value::from_static(b"mine"))],
    );
    e.install_base(
        &KeyRange::prefix("p|liz|"),
        vec![(
            Key::from("p|liz|0000000200"),
            Value::from_static(b"replica"),
        )],
    );
    let evicted = e.evict_to(0);
    assert!(evicted >= 1);
    assert!(e.engine_stats().base_evictions >= 1);
    // The sole copy survives; the replica is dropped.
    assert!(e.store().peek(&Key::from("p|bob|0000000100")).is_some());
    assert!(e.store().peek(&Key::from("p|liz|0000000200")).is_none());
    // Residency is released either way: both ranges must re-prove
    // themselves on the next read.
    let res = e.scan(&KeyRange::prefix("p|"));
    assert!(!res.is_complete());
}

#[test]
fn fully_authoritative_table_is_never_evicted() {
    // A home node whose cached rows are all its own: "evicting" the
    // table would free nothing while invalidating every dependent
    // computed range — so the unit is skipped entirely, residency and
    // all, and the eviction counter stays honest.
    let mut e = Engine::new_default();
    e.mark_remote_table("p|");
    e.set_base_authority(|_key: &Key| true);
    e.install_base(
        &KeyRange::prefix("p|bob|"),
        vec![(Key::from("p|bob|0000000100"), Value::from_static(b"mine"))],
    );
    let evicted = e.evict_to(0);
    assert_eq!(evicted, 0, "nothing reclaimable, nothing evicted");
    assert_eq!(e.engine_stats().base_evictions, 0);
    assert!(e.store().peek(&Key::from("p|bob|0000000100")).is_some());
    // Residency survives too: the next read needs no re-proving.
    assert!(e.scan(&KeyRange::prefix("p|bob|")).is_complete());
}

#[test]
fn evicting_an_output_table_invalidates_its_computed_ranges() {
    // A deployment that partitions the *output* table (as a cluster
    // whose joins read a partitioned table may) marks it remote; evicting its cached
    // rows must invalidate the join status ranges that own them, or a
    // later read would serve a validated-but-empty range.
    let mut e = Engine::new_default();
    e.mark_remote_table("t|");
    e.add_join_text(TIMELINE).unwrap();
    e.put("s|ann|bob", "1");
    e.put("p|bob|0000000100", "Hi");
    e.mark_resident(&KeyRange::prefix("t|ann|"));
    let want = e.scan(&KeyRange::prefix("t|ann|")).pairs;
    assert_eq!(want.len(), 1);

    let evicted = e.evict_to(0);
    assert!(evicted >= 1);

    // Transparent recompute: re-assert residency (the deployment would
    // refetch/re-prove it) and read again — identical answer.
    e.mark_resident(&KeyRange::prefix("t|ann|"));
    let got = e.scan(&KeyRange::prefix("t|ann|")).pairs;
    assert_eq!(got, want, "recomputed timeline diverged after eviction");
}

fn stored(e: &Engine, table: &str) -> Vec<String> {
    let mut rows = Vec::new();
    e.store().for_each(|k, v| {
        if k.starts_with(table.as_bytes()) {
            rows.push(format!("{k}={}", String::from_utf8_lossy(&v)));
        }
    });
    rows
}

/// Two joins write interleaved keys into one subtable; evicting one
/// join's range removes exactly its own rows — the range removal asks
/// the output pattern about every pair — and both read back whole.
#[test]
fn evicting_one_of_two_interleaved_joins_keeps_the_others_rows() {
    let store = StoreConfig::flat().with_subtable("t|", 2);
    let mut e = Engine::new(EngineConfig::with_store(store));
    e.add_join_text(
        "t|<user>|<time:3>|a|<poster> = check s|<user>|<poster> copy p|<poster>|<time:3>",
    )
    .unwrap();
    e.add_join_text(
        "t|<user>|<time:3>|b|<poster> = check s|<user>|<poster> copy q|<poster>|<time:3>",
    )
    .unwrap();
    e.put("s|ann|bob", "1");
    for t in 0..40 {
        e.put(format!("p|bob|{t:03}"), format!("post {t}"));
        e.put(format!("q|bob|{t:03}"), format!("quip {t}"));
    }
    let timeline = KeyRange::prefix("t|ann|");
    let whole = e.scan(&timeline).pairs;
    assert_eq!(whole.len(), 80);
    assert_eq!(e.materialized_ranges(), 2);
    // The least recently used unit is the first join's range.
    assert_eq!(e.evict_to(e.memory_bytes() - 1), 1);
    assert_eq!(e.check_invariants(), Vec::<String>::new());
    let left = stored(&e, "t|");
    assert_eq!(left.len(), 40, "{left:?}");
    assert!(
        left.iter().all(|row| row.contains("|b|bob=quip")),
        "{left:?}"
    );
    assert_eq!(e.scan(&timeline).pairs, whole);
    assert_eq!(e.check_invariants(), Vec::<String>::new());
}

/// A chained join reads another join's output table. A source row that
/// really goes away (an unfollow) retracts the chained outputs through
/// the notify half of the write path; evicting the source range must
/// *not* — eviction is not deletion — and instead leaves the chained
/// range to recompute, so a capped engine keeps answering like an
/// uncapped one. (Until this test, eviction told the chained join of
/// deletions: the count fell to nothing and stayed there.)
#[test]
fn evicting_a_chained_joins_source_recomputes_it_and_a_deletion_retracts_it() {
    let mut e = timeline_engine(None);
    e.add_join_text("n|<user> = count t|<user>|<time:10>|<poster>")
        .unwrap();
    e.put("s|ann|bob", "1");
    e.put("s|ann|liz", "1");
    for t in 0..5u64 {
        e.put(format!("p|bob|{t:010}"), "a tweet");
        e.put(format!("p|liz|{t:010}"), "a tweet");
    }
    let count = |e: &mut Engine| e.get(&Key::from("n|ann")).map(|v| v.to_vec());
    assert_eq!(count(&mut e), Some(b"10".to_vec()));
    assert_eq!(e.materialized_ranges(), 2);
    // The least recently used unit is the timeline the count reads.
    assert_eq!(e.evict_to(e.memory_bytes() - 1), 1);
    assert!(stored(&e, "t|").is_empty());
    assert_eq!(e.check_invariants(), Vec::<String>::new());
    assert_eq!(count(&mut e), Some(b"10".to_vec()));
    assert_eq!(stored(&e, "t|").len(), 10);
    // A deletion does retract: the unfollow is logged on the timeline
    // and applied at its next read as a range removal of liz's five
    // rows, each of which the count is told about.
    e.remove(&Key::from("s|ann|liz"));
    assert_eq!(e.scan(&KeyRange::prefix("t|ann|")).pairs.len(), 5);
    assert_eq!(stored(&e, "n|"), ["n|ann=5"]);
    assert_eq!(count(&mut e), Some(b"5".to_vec()));
    assert_eq!(stored(&e, "t|").len(), 5);
    assert_eq!(e.check_invariants(), Vec::<String>::new());
}

/// What the cap is held against is the logical estimate
/// (`Engine::memory_bytes`: key and value bytes and the engine's own
/// bookkeeping), never the layout of the store's blocks, so a layout
/// change moves no eviction. This pins that: a seeded Twip stream of 600
/// users under a cap well below its working set, with the estimate and
/// the eviction count folded into one digest after every operation. The
/// digest was taken before values moved into their blocks' slots and
/// pointer columns, and must read the same after any change that only
/// lays bytes out differently.
#[test]
fn the_eviction_trace_does_not_depend_on_the_layout() {
    const USERS: u64 = 600;
    const OPS: usize = 2500;
    // xorshift64*: the stream is a function of the seed alone.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |n: u64| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    };
    let store = StoreConfig::flat()
        .with_subtable("t|", 2)
        .with_subtable("p|", 2);
    let mut e = Engine::new(EngineConfig {
        mem_limit: Some(MemoryLimit::new(CAP)),
        ..EngineConfig::with_store(store)
    });
    e.add_join_text(TIMELINE).unwrap();
    let user = |u: u64| format!("u{u:04}");
    // A 49-byte tweet, the benchmark's length.
    let tweet = |p: u64, t: u64| format!("tweet {t:010} from {} padded to forty-nine!", user(p));
    for u in 0..USERS {
        for _ in 0..8 {
            let poster = next(USERS);
            e.put(format!("s|{}|{}", user(u), user(poster)), "1");
        }
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |e: &Engine| {
        let words = [e.memory_bytes() as u64, e.engine_stats().js_evictions];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for time in 0..OPS as u64 {
        let u = next(USERS);
        match next(100) {
            0..=29 => {
                e.scan(&KeyRange::prefix(format!("t|{}|", user(u))));
            }
            30..=84 => {
                let since = time.saturating_sub(200);
                let from = format!("t|{}|{since:010}", user(u));
                e.scan(&KeyRange::new(from, format!("t|{}}}", user(u))));
            }
            85..=94 => {
                let key = format!("p|{}|{time:010}", user(u));
                e.put(key, tweet(u, time));
            }
            _ => {
                let poster = next(USERS);
                e.put(format!("s|{}|{}", user(u), user(poster)), "1");
            }
        }
        fold(&e);
    }
    let evictions = e.engine_stats().js_evictions;
    assert!(evictions > 0, "the cap must evict");
    assert_eq!(
        (digest, evictions),
        (DIGEST, EVICTIONS),
        "the eviction trace moved"
    );
}

/// The pinned stream's cap (its uncapped estimate peaks at ≈973 kB) and
/// what it folds to, measured before values moved into their blocks'
/// slots and pointer columns.
const CAP: usize = 400_000;
const DIGEST: u64 = 0xe5e0_3592_2212_d9f0;
const EVICTIONS: u64 = 1147;
