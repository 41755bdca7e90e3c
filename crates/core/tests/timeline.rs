//! End-to-end behaviour of the Twip timeline join on a single engine:
//! dynamic materialization, eager copy maintenance, and lazy
//! subscription maintenance (§2.2, §3.2).

use pequod_core::{Engine, EngineConfig};
use pequod_store::{Key, KeyRange, StoreConfig};

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

fn tkey(user: &str, time: u64, poster: &str) -> String {
    format!("t|{user}|{time:010}|{poster}")
}

fn engine() -> Engine {
    let mut e = Engine::new(EngineConfig::with_store(
        StoreConfig::flat().with_subtable("t|", 2),
    ));
    e.add_join_text(TIMELINE).unwrap();
    e
}

fn post(e: &mut Engine, poster: &str, time: u64, text: &str) {
    e.put(format!("p|{poster}|{time:010}"), text.to_string());
}

fn follow(e: &mut Engine, user: &str, poster: &str) {
    e.put(format!("s|{user}|{poster}"), "1");
}

fn timeline(e: &mut Engine, user: &str) -> Vec<(String, String)> {
    e.scan(&KeyRange::prefix(format!("t|{user}|")))
        .pairs
        .into_iter()
        .map(|(k, v)| (k.to_string(), String::from_utf8_lossy(&v).into_owned()))
        .collect()
}

#[test]
fn scan_materializes_on_demand() {
    let mut e = engine();
    follow(&mut e, "ann", "bob");
    follow(&mut e, "ann", "liz");
    post(&mut e, "bob", 100, "Hi");
    post(&mut e, "liz", 124, "hello, world!");
    post(&mut e, "zed", 90, "not followed");

    assert_eq!(e.materialized_ranges(), 0);
    let tl = timeline(&mut e, "ann");
    assert_eq!(
        tl,
        vec![
            (tkey("ann", 100, "bob"), "Hi".to_string()),
            (tkey("ann", 124, "liz"), "hello, world!".to_string()),
        ]
    );
    assert_eq!(e.materialized_ranges(), 1);
    // The computed timeline is cached in the store.
    assert!(e.store().get(&Key::from(tkey("ann", 100, "bob"))).is_some());
}

#[test]
fn posts_are_pushed_into_materialized_timelines() {
    let mut e = engine();
    follow(&mut e, "ann", "bob");
    post(&mut e, "bob", 100, "Hi");
    timeline(&mut e, "ann"); // materialize
    let execs_before = e.engine_stats().join_execs;

    post(&mut e, "bob", 120, "again");
    let tl = timeline(&mut e, "ann");
    assert_eq!(tl.len(), 2);
    assert_eq!(tl[1].0, tkey("ann", 120, "bob"));
    // The second read required no fresh join execution: the updater
    // maintained the timeline eagerly.
    assert_eq!(e.engine_stats().join_execs, execs_before);
    assert!(e.engine_stats().eager_updates >= 1);
}

#[test]
fn posts_update_and_remove_propagate() {
    let mut e = engine();
    follow(&mut e, "ann", "bob");
    post(&mut e, "bob", 100, "Hi");
    timeline(&mut e, "ann");

    // Edit the tweet.
    post(&mut e, "bob", 100, "Hi (edited)");
    assert_eq!(timeline(&mut e, "ann")[0].1, "Hi (edited)");

    // Delete the tweet.
    e.remove(&Key::from("p|bob|0000000100"));
    assert!(timeline(&mut e, "ann").is_empty());
}

#[test]
fn new_subscription_backfills_old_posts() {
    let mut e = engine();
    follow(&mut e, "ann", "bob");
    post(&mut e, "bob", 100, "from bob");
    post(&mut e, "liz", 90, "old liz post");
    timeline(&mut e, "ann");

    // ann follows liz after liz already posted: lazy check maintenance
    // must backfill liz's old post at the next read.
    follow(&mut e, "ann", "liz");
    assert!(e.engine_stats().mods_logged >= 1);
    let tl = timeline(&mut e, "ann");
    assert_eq!(tl.len(), 2);
    assert_eq!(tl[0].0, tkey("ann", 90, "liz"));
    assert!(e.engine_stats().mods_applied >= 1);
}

#[test]
fn new_subscription_then_new_posts_maintained() {
    let mut e = engine();
    follow(&mut e, "ann", "bob");
    timeline(&mut e, "ann");
    follow(&mut e, "ann", "liz");
    timeline(&mut e, "ann"); // applies the logged subscription insert
                             // liz posts after the backfill: the updater installed during log
                             // application must route it into ann's timeline.
    post(&mut e, "liz", 200, "fresh");
    let tl = timeline(&mut e, "ann");
    assert_eq!(tl, vec![(tkey("ann", 200, "liz"), "fresh".to_string())]);
}

#[test]
fn unsubscribe_removes_posts_and_stops_updates() {
    let mut e = engine();
    follow(&mut e, "ann", "bob");
    follow(&mut e, "ann", "liz");
    post(&mut e, "bob", 100, "keep me");
    post(&mut e, "liz", 110, "drop me");
    timeline(&mut e, "ann");

    e.remove(&Key::from("s|ann|liz"));
    let tl = timeline(&mut e, "ann");
    assert_eq!(tl, vec![(tkey("ann", 100, "bob"), "keep me".to_string())]);

    // Stale-updater check: liz posts again; the removed subscription's
    // updater must not resurrect her tweets in ann's timeline.
    post(&mut e, "liz", 120, "ghost");
    let tl = timeline(&mut e, "ann");
    assert_eq!(tl.len(), 1);
    assert_eq!(tl[0].0, tkey("ann", 100, "bob"));
}

#[test]
fn timelines_are_per_user() {
    let mut e = engine();
    follow(&mut e, "ann", "bob");
    follow(&mut e, "cat", "liz");
    post(&mut e, "bob", 100, "for ann");
    post(&mut e, "liz", 101, "for cat");
    assert_eq!(timeline(&mut e, "ann").len(), 1);
    assert_eq!(timeline(&mut e, "cat").len(), 1);
    assert_eq!(timeline(&mut e, "ann")[0].1, "for ann");
    assert_eq!(timeline(&mut e, "cat")[0].1, "for cat");
}

#[test]
fn partial_timeline_scans_use_containing_ranges() {
    let mut e = engine();
    follow(&mut e, "ann", "bob");
    for t in [100u64, 150, 200, 250] {
        post(&mut e, "bob", t, "x");
    }
    // Scan only [150, 250): must return exactly the two posts inside.
    let r = KeyRange::new(
        format!("t|ann|{:010}", 150u64),
        format!("t|ann|{:010}", 250u64),
    );
    let res = e.scan(&r);
    let keys: Vec<String> = res.pairs.iter().map(|(k, _)| k.to_string()).collect();
    assert_eq!(keys, vec![tkey("ann", 150, "bob"), tkey("ann", 200, "bob")]);
}

#[test]
fn incremental_check_after_login_is_cheap() {
    let mut e = engine();
    for p in ["bob", "liz", "moe"] {
        follow(&mut e, "ann", p);
    }
    for t in 0..20u64 {
        post(&mut e, "bob", 100 + t, "x");
    }
    // Login: full timeline scan.
    timeline(&mut e, "ann");
    let execs = e.engine_stats().join_execs;
    // Incremental timeline checks (the 85% case) hit the valid range.
    for _ in 0..10 {
        let r = KeyRange::new(format!("t|ann|{:010}", 115u64), Key::from("t|ann}"));
        e.scan(&r);
    }
    assert_eq!(
        e.engine_stats().join_execs,
        execs,
        "valid ranges must not re-execute"
    );
}

#[test]
fn get_single_computed_key() {
    let mut e = engine();
    follow(&mut e, "ann", "bob");
    post(&mut e, "bob", 100, "Hi");
    let v = e.get(&Key::from(tkey("ann", 100, "bob")));
    assert_eq!(v.as_deref(), Some(&b"Hi"[..]));
    assert_eq!(e.get(&Key::from(tkey("ann", 999, "bob"))), None);
}

#[test]
fn cross_timeline_scan_is_correct() {
    let mut e = engine();
    follow(&mut e, "ann", "bob");
    follow(&mut e, "cat", "bob");
    post(&mut e, "bob", 100, "x");
    // One scan spanning the end of ann's timeline and the start of cat's.
    let res = e.scan(&KeyRange::new("t|ann|0000000050", "t|cat|0000000150"));
    let keys: Vec<String> = res.pairs.iter().map(|(k, _)| k.to_string()).collect();
    assert_eq!(keys, vec![tkey("ann", 100, "bob"), tkey("cat", 100, "bob")]);
}

#[test]
fn value_sharing_reduces_resident_bytes() {
    let text = "a somewhat long tweet body to make sharing measurable";
    let run = |sharing: bool| -> (usize, usize) {
        let cfg = EngineConfig {
            value_sharing: sharing,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(cfg);
        e.add_join_text(TIMELINE).unwrap();
        for u in 0..20 {
            e.put(format!("s|u{u:02}|bob"), "1");
        }
        e.put("p|bob|0000000100", text);
        for u in 0..20 {
            e.scan(&KeyRange::prefix(format!("t|u{u:02}|")));
        }
        let s = e.store_stats();
        (s.logical_value_bytes, s.resident_value_bytes)
    };
    let (logical_shared, resident_shared) = run(true);
    let (logical_copy, resident_copy) = run(false);
    assert_eq!(logical_shared, logical_copy);
    assert!(resident_shared < resident_copy);
    // 20 timelines share one buffer: resident is roughly 1/21 of logical.
    assert!(resident_shared * 10 < resident_copy);
}
