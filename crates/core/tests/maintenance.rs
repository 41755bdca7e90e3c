//! Maintenance policies: pull joins, snapshot joins, chained joins,
//! celebrity timelines, materialization modes, and invalidation edges.

use pequod_core::{Engine, EngineConfig, MaterializationMode};
use pequod_store::{Key, KeyRange};

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

fn keys(e: &mut Engine, prefix: &str) -> Vec<String> {
    e.scan(&KeyRange::prefix(prefix))
        .pairs
        .into_iter()
        .map(|(k, _)| k.to_string())
        .collect()
}

#[test]
fn pull_joins_compute_but_never_cache() {
    let mut e = Engine::new_default();
    e.add_join_text(&format!("{TIMELINE} ").replace(" = ", " = pull "))
        .unwrap();
    e.put("s|ann|bob", "1");
    e.put("p|bob|0000000100", "Hi");
    let tl = keys(&mut e, "t|ann|");
    assert_eq!(tl, vec!["t|ann|0000000100|bob".to_string()]);
    // Nothing cached, no updaters, no status ranges.
    assert!(e.store().get(&Key::from("t|ann|0000000100|bob")).is_none());
    assert_eq!(e.materialized_ranges(), 0);
    assert_eq!(e.updater_entries(), 0);
    // Every read recomputes.
    let execs = e.engine_stats().join_execs;
    keys(&mut e, "t|ann|");
    assert!(e.engine_stats().join_execs > execs);
    // And stays fresh without maintenance.
    e.put("p|bob|0000000120", "again");
    assert_eq!(keys(&mut e, "t|ann|").len(), 2);
}

#[test]
fn snapshot_joins_stay_stale_until_expiry() {
    let mut e = Engine::new_default();
    e.add_join_text(
        "t|<user>|<time:10>|<poster> = snapshot 30 check s|<user>|<poster> copy p|<poster>|<time:10>",
    )
    .unwrap();
    e.put("s|ann|bob", "1");
    e.put("p|bob|0000000100", "Hi");
    assert_eq!(keys(&mut e, "t|ann|").len(), 1);
    assert_eq!(e.updater_entries(), 0, "snapshot joins install no updaters");

    // New post invisible while the snapshot is fresh.
    e.put("p|bob|0000000120", "hidden");
    e.tick(10);
    assert_eq!(keys(&mut e, "t|ann|").len(), 1, "snapshot still fresh");

    // After T ticks the snapshot expires and recomputes.
    e.tick(25);
    assert_eq!(keys(&mut e, "t|ann|").len(), 2, "snapshot expired");
}

#[test]
fn celebrity_join_pull_with_helper_range() {
    // §2.3: celebrity posts go to cp|, a push join collates them into
    // ct| (time-primary), and a pull join filters ct| through the
    // reader's subscriptions on every timeline check.
    let mut e = Engine::new_default();
    e.add_joins_text(
        r#"
        ct|<time:10>|<poster> = copy cp|<poster>|<time:10>;
        t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>;
        t|<user>|<time:10>|<poster> = pull copy ct|<time:10>|<poster> check s|<user>|<poster>
        "#,
    )
    .unwrap();
    e.put("s|ann|bob", "1"); // bob: ordinary user
    e.put("s|ann|stella", "1"); // stella: celebrity
    e.put("p|bob|0000000100", "plain tweet");
    e.put("cp|stella|0000000150", "celebrity tweet");
    e.put("cp|other|0000000160", "unfollowed celebrity");

    let tl = keys(&mut e, "t|ann|");
    assert_eq!(
        tl,
        vec![
            "t|ann|0000000100|bob".to_string(),
            "t|ann|0000000150|stella".to_string(),
        ]
    );
    // The celebrity portion is not cached (pull): only the ordinary
    // timeline entry and the ct| helper row are in the store.
    assert!(e
        .store()
        .get(&Key::from("t|ann|0000000150|stella"))
        .is_none());
    assert!(e.store().get(&Key::from("ct|0000000150|stella")).is_some());

    // New celebrity post appears without any timeline maintenance.
    e.put("cp|stella|0000000170", "more");
    assert_eq!(keys(&mut e, "t|ann|").len(), 3);
}

#[test]
fn chained_push_joins_propagate() {
    // ct| is computed from cp|; a second join permutes ct| back into a
    // poster-primary ordering. Writes to cp| must flow through both.
    let mut e = Engine::new_default();
    e.add_joins_text(
        r#"
        ct|<time:10>|<poster> = copy cp|<poster>|<time:10>;
        byposter|<poster>|<time:10> = copy ct|<time:10>|<poster>
        "#,
    )
    .unwrap();
    e.put("cp|stella|0000000100", "one");
    assert_eq!(keys(&mut e, "byposter|stella|").len(), 1);
    // Incremental propagation through the chain.
    e.put("cp|stella|0000000200", "two");
    assert_eq!(keys(&mut e, "byposter|stella|").len(), 2);
    e.remove(&Key::from("cp|stella|0000000100"));
    assert_eq!(keys(&mut e, "byposter|stella|").len(), 1);
}

/// A check-source write is normally only logged on the range it
/// disturbs and applied at that range's next read (§3.2). A join that
/// reads the range's *outputs* never causes such a read, so when one is
/// watching, the modification must be applied at once or the reader
/// stays stale until someone happens to read the source.
#[test]
fn a_chained_reader_sees_a_check_source_write_without_a_read_of_its_source() {
    let mut e = Engine::new_default();
    e.add_join_text(TIMELINE).unwrap();
    e.add_join_text("n|<user> = count t|<user>|<time:10>|<poster>")
        .unwrap();
    let count = |e: &mut Engine| e.get(&Key::from("n|ann")).map(|v| v.to_vec());
    e.put("s|ann|bob", "1");
    e.put("p|bob|0000000100", "Hi");
    e.put("p|liz|0000000110", "hello");
    assert_eq!(keys(&mut e, "t|ann|").len(), 1);
    assert_eq!(count(&mut e), Some(b"1".to_vec()));
    // Subscribe, then read only the count.
    e.put("s|ann|liz", "1");
    assert_eq!(count(&mut e), Some(b"2".to_vec()));
    assert_eq!(keys(&mut e, "t|ann|").len(), 2);
    // And the other way.
    e.remove(&Key::from("s|ann|bob"));
    assert_eq!(count(&mut e), Some(b"1".to_vec()));
    assert_eq!(keys(&mut e, "t|ann|"), ["t|ann|0000000110|liz"]);
    // An unwatched timeline is still maintained lazily.
    let mut lone = Engine::new_default();
    lone.add_join_text(TIMELINE).unwrap();
    lone.put("s|ann|bob", "1");
    keys(&mut lone, "t|ann|");
    lone.put("s|ann|liz", "1");
    assert_eq!(lone.engine_stats().mods_logged, 1);
    assert_eq!(lone.engine_stats().mods_applied, 0);
}

/// A range may hold modifications logged while nothing watched its
/// table. Once a join does, the next check-source write is applied at
/// once — after that log, not ahead of it: a removal that overtook the
/// insert it undoes would find nothing to remove, and the insert,
/// replayed later, would put the tuple back for good.
#[test]
fn a_check_source_write_applied_at_once_goes_after_the_ranges_log() {
    let mut e = Engine::new_default();
    e.add_join_text(TIMELINE).unwrap();
    e.add_join_text("m|<user>|<time:10>|<poster> = copy t|<user>|<time:10>|<poster>")
        .unwrap();
    e.put("s|ann|bob", "1");
    e.put("p|bob|0000000100", "Hi");
    e.put("p|liz|0000000110", "hello");
    assert_eq!(keys(&mut e, "t|ann|").len(), 1);
    // Logged: no join watches `t|` yet.
    e.put("s|ann|liz", "1");
    assert_eq!(e.engine_stats().mods_logged, 1);
    // Someone else's mirror: `t|` is watched now, `t|ann|` is not read.
    assert!(keys(&mut e, "m|cat|").is_empty());
    e.remove(&Key::from("s|ann|liz"));
    assert_eq!(e.engine_stats().mods_applied, 1, "the log went first");
    assert_eq!(keys(&mut e, "t|ann|"), ["t|ann|0000000100|bob"]);
    // And no updater was left on liz's posts.
    e.put("p|liz|0000000120", "again");
    assert_eq!(keys(&mut e, "t|ann|"), ["t|ann|0000000100|bob"]);
    assert_eq!(keys(&mut e, "m|ann|"), ["m|ann|0000000100|bob"]);
}

#[test]
fn full_materialization_precomputes_everything() {
    let cfg = EngineConfig {
        materialization: MaterializationMode::Full,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(cfg);
    e.put("s|ann|bob", "1");
    e.put("p|bob|0000000100", "Hi");
    e.add_join_text(TIMELINE).unwrap();
    // Already materialized at install: the store holds the timeline
    // without any scan.
    assert!(e.store().get(&Key::from("t|ann|0000000100|bob")).is_some());
    let execs = e.engine_stats().join_execs;
    assert_eq!(keys(&mut e, "t|ann|").len(), 1);
    assert_eq!(
        e.engine_stats().join_execs,
        execs,
        "no recomputation on read"
    );
    // Subscriptions apply eagerly in full mode.
    e.put("p|liz|0000000090", "early");
    e.put("s|ann|liz", "1");
    assert!(e.store().get(&Key::from("t|ann|0000000090|liz")).is_some());
}

#[test]
fn no_materialization_recomputes_every_scan() {
    let cfg = EngineConfig {
        materialization: MaterializationMode::None,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(cfg);
    e.add_join_text(TIMELINE).unwrap();
    e.put("s|ann|bob", "1");
    e.put("p|bob|0000000100", "Hi");
    assert_eq!(keys(&mut e, "t|ann|").len(), 1);
    assert!(e.store().get(&Key::from("t|ann|0000000100|bob")).is_none());
    assert_eq!(e.materialized_ranges(), 0);
    let execs = e.engine_stats().join_execs;
    keys(&mut e, "t|ann|");
    assert!(e.engine_stats().join_execs > execs);
}

#[test]
fn eager_checks_apply_at_write_time() {
    let cfg = EngineConfig {
        lazy_checks: false,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(cfg);
    e.add_join_text(TIMELINE).unwrap();
    e.put("s|ann|bob", "1");
    e.put("p|bob|0000000100", "Hi");
    keys(&mut e, "t|ann|");
    e.put("p|liz|0000000090", "early");
    // With eager checks, the subscription write itself installs the
    // timeline entry.
    e.put("s|ann|liz", "1");
    assert!(e.store().get(&Key::from("t|ann|0000000090|liz")).is_some());
    assert_eq!(e.engine_stats().mods_logged, 0);
}

#[test]
fn pending_log_overflow_falls_back_to_complete_invalidation() {
    let cfg = EngineConfig {
        pending_log_limit: 5,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(cfg);
    e.add_join_text(TIMELINE).unwrap();
    e.put("s|ann|bob", "1");
    e.put("p|bob|0000000100", "Hi");
    keys(&mut e, "t|ann|");
    // Blast subscriptions past the log limit.
    for i in 0..10 {
        e.put(format!("s|ann|u{i:02}"), "1");
    }
    assert!(e.engine_stats().complete_invalidations >= 1);
    // Still correct after recompute.
    for i in 0..10 {
        e.put(format!("p|u{i:02}|00000002{i:02}"), "x");
    }
    assert_eq!(keys(&mut e, "t|ann|").len(), 11);
}

#[test]
fn circular_joins_rejected_at_install() {
    let mut e = Engine::new_default();
    e.add_join_text("b|<x> = copy a|<x>").unwrap();
    let err = e.add_join_text("a|<x> = copy b|<x>").unwrap_err();
    assert!(format!("{err}").contains("circular"));
    // Longer cycle through three joins.
    let mut e = Engine::new_default();
    e.add_join_text("b|<x> = copy a|<x>").unwrap();
    e.add_join_text("c|<x> = copy b|<x>").unwrap();
    assert!(e.add_join_text("a|<x> = copy c|<x>").is_err());
    // A DAG is fine.
    let mut e = Engine::new_default();
    e.add_join_text("b|<x> = copy a|<x>").unwrap();
    e.add_join_text("c|<x> = copy b|<x>").unwrap();
    e.add_join_text("d|<x> = check b|<x> copy c|<x>").unwrap();
}

#[test]
fn multiple_joins_same_output_range() {
    // Two joins write into t| for different posters' tables (normal and
    // promoted); both must serve one scan.
    let mut e = Engine::new_default();
    e.add_joins_text(
        r#"
        t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>;
        t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy promo|<poster>|<time:10>
        "#,
    )
    .unwrap();
    e.put("s|ann|bob", "1");
    e.put("p|bob|0000000100", "organic");
    e.put("promo|bob|0000000200", "promoted");
    assert_eq!(keys(&mut e, "t|ann|").len(), 2);
    e.put("promo|bob|0000000300", "promoted 2");
    assert_eq!(keys(&mut e, "t|ann|").len(), 3);
}

#[test]
fn eviction_of_computed_range_recomputes_on_read() {
    let mut e = Engine::new_default();
    e.add_join_text(TIMELINE).unwrap();
    e.put("s|ann|bob", "1");
    for t in 0..50u64 {
        e.put(format!("p|bob|{:010}", 100 + t), "x");
    }
    assert_eq!(keys(&mut e, "t|ann|").len(), 50);
    let with_timeline = e.memory_bytes();
    // Evict down to below current usage: the timeline (LRU'd computed
    // range) goes first.
    let evicted = e.evict_to(with_timeline / 2);
    assert!(evicted >= 1);
    assert!(e.engine_stats().js_evictions >= 1);
    assert!(e.store().get(&Key::from("t|ann|0000000100|bob")).is_none());
    // Next read recomputes the same answer.
    assert_eq!(keys(&mut e, "t|ann|").len(), 50);
}

#[test]
fn snapshot_plus_push_interleave() {
    // One range served by a push join and a snapshot join: the push part
    // stays fresh while the snapshot part lags.
    let mut e = Engine::new_default();
    e.add_joins_text(
        r#"
        page|<id>|a = copy article|<id>;
        page|<id>|v = snapshot 100 count clicks|<id>|<who>
        "#,
    )
    .unwrap();
    e.put("article|7", "body");
    e.put("clicks|7|ann", "1");
    let page = keys(&mut e, "page|7|");
    assert_eq!(page, vec!["page|7|a".to_string(), "page|7|v".to_string()]);
    e.put("article|7", "body v2");
    e.put("clicks|7|bob", "1");
    let res = e.scan(&KeyRange::prefix("page|7|"));
    let m: std::collections::HashMap<String, String> = res
        .pairs
        .into_iter()
        .map(|(k, v)| (k.to_string(), String::from_utf8_lossy(&v).into_owned()))
        .collect();
    assert_eq!(m["page|7|a"], "body v2", "push join is fresh");
    assert_eq!(m["page|7|v"], "1", "snapshot join lags");
    e.tick(150);
    let res = e.scan(&KeyRange::prefix("page|7|"));
    let m: std::collections::HashMap<String, String> = res
        .pairs
        .into_iter()
        .map(|(k, v)| (k.to_string(), String::from_utf8_lossy(&v).into_owned()))
        .collect();
    assert_eq!(m["page|7|v"], "2", "snapshot refreshed after expiry");
}
