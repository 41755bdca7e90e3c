//! Resolving missing base data (§3.3): remote/database-backed tables,
//! restart after fetch, residency metadata, and base-data eviction.

use pequod_core::{Engine, EngineConfig};
use pequod_store::{Key, KeyRange, Value};

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

#[test]
fn scan_of_remote_base_range_reports_missing() {
    let mut e = Engine::new_default();
    e.mark_remote_table("p|");
    let res = e.scan(&KeyRange::prefix("p|bob|"));
    assert!(!res.is_complete());
    assert_eq!(res.missing, vec![KeyRange::prefix("p|bob|")]);
    // Install (even an empty result marks residency) and restart.
    e.install_base(&KeyRange::prefix("p|bob|"), vec![]);
    let res = e.scan(&KeyRange::prefix("p|bob|"));
    assert!(res.is_complete());
    assert!(res.is_empty());
}

#[test]
fn join_over_remote_source_fetches_then_restarts() {
    let mut e = Engine::new_default();
    e.mark_remote_table("p|");
    e.add_join_text(TIMELINE).unwrap();
    e.put("s|ann|bob", "1");

    // First scan: the post range must be fetched.
    let res = e.scan(&KeyRange::prefix("t|ann|"));
    assert!(!res.is_complete());
    assert_eq!(res.missing.len(), 1);
    assert!(res.missing[0].contains(&Key::from("p|bob|0000000100")));
    // Nothing materialized while data was missing.
    assert_eq!(e.materialized_ranges(), 0);

    // Simulate the fetch (database or home server).
    let fetched = vec![(Key::from("p|bob|0000000100"), Value::from_static(b"Hi"))];
    e.install_base(&res.missing[0], fetched);

    // Restarted query completes and materializes.
    let res = e.scan(&KeyRange::prefix("t|ann|"));
    assert!(res.is_complete());
    assert_eq!(res.pairs.len(), 1);
    assert_eq!(e.materialized_ranges(), 1);

    // Later updates forwarded from the home server flow through
    // maintenance like local writes.
    e.put("p|bob|0000000120", "pushed");
    let res = e.scan(&KeyRange::prefix("t|ann|"));
    assert_eq!(res.pairs.len(), 2);
}

#[test]
fn partial_residency_reports_only_gaps() {
    let mut e = Engine::new_default();
    e.mark_remote_table("p|");
    e.install_base(&KeyRange::new("p|a", "p|m"), vec![]);
    let res = e.scan(&KeyRange::prefix("p|"));
    assert_eq!(res.missing.len(), 2); // [p|, p|a) and [p|m, p})
    assert!(res.missing.iter().any(|r| r.contains(&Key::from("p|zzz"))));
    assert!(!res.missing.iter().any(|r| r.contains(&Key::from("p|bob"))));
}

#[test]
fn multiple_missing_sources_reported_together() {
    let mut e = Engine::new_default();
    e.mark_remote_table("p|");
    e.mark_remote_table("s|");
    e.add_join_text(TIMELINE).unwrap();
    let res = e.scan(&KeyRange::prefix("t|ann|"));
    assert!(!res.is_complete());
    // The subscription range is missing; the post ranges cannot even be
    // named yet. After installing subscriptions, posts go missing.
    assert!(res.missing.iter().any(|r| r.first.starts_with(b"s|ann")));
    e.install_base(
        &KeyRange::prefix("s|ann|"),
        vec![(Key::from("s|ann|bob"), Value::from_static(b"1"))],
    );
    let res = e.scan(&KeyRange::prefix("t|ann|"));
    assert!(!res.is_complete());
    assert!(res.missing.iter().any(|r| r.first.starts_with(b"p|bob")));
    e.install_base(&res.missing[0], vec![]);
    let res = e.scan(&KeyRange::prefix("t|ann|"));
    assert!(res.is_complete());
}

#[test]
fn base_eviction_invalidates_dependents_and_refetches() {
    let mut e = Engine::new_default();
    e.mark_remote_table("p|");
    e.add_join_text(TIMELINE).unwrap();
    e.put("s|ann|bob", "1");
    let res = e.scan(&KeyRange::prefix("t|ann|"));
    e.install_base(
        &res.missing[0],
        vec![(Key::from("p|bob|0000000100"), Value::from_static(b"Hi"))],
    );
    assert!(e.scan(&KeyRange::prefix("t|ann|")).is_complete());

    // Evict everything evictable.
    let evicted = e.evict_to(0);
    assert!(evicted >= 1);
    assert!(e.engine_stats().base_evictions >= 1);

    // The timeline read now reports the post range missing again
    // (the dependent computed range was invalidated, not deleted).
    let res = e.scan(&KeyRange::prefix("t|ann|"));
    assert!(!res.is_complete());
    e.install_base(
        &res.missing[0],
        vec![(Key::from("p|bob|0000000100"), Value::from_static(b"Hi"))],
    );
    let res = e.scan(&KeyRange::prefix("t|ann|"));
    assert!(res.is_complete());
    assert_eq!(res.pairs.len(), 1);
}

#[test]
fn local_tables_never_report_missing() {
    let mut e = Engine::new_default();
    e.add_join_text(TIMELINE).unwrap();
    e.put("s|ann|bob", "1");
    // No posts at all: empty but complete.
    let res = e.scan(&KeyRange::prefix("t|ann|"));
    assert!(res.is_complete());
    assert!(res.is_empty());
}

#[test]
fn read_your_own_writes_on_one_server() {
    // §2.4: a client reading from and writing to a single server sees
    // its own writes immediately.
    let mut e = Engine::new_default();
    e.add_join_text(TIMELINE).unwrap();
    e.put("s|ann|ann", "1"); // follow yourself
    e.put("p|ann|0000000100", "my own tweet");
    let res = e.scan(&KeyRange::prefix("t|ann|"));
    assert_eq!(res.pairs.len(), 1);
    assert_eq!(String::from_utf8_lossy(&res.pairs[0].1), "my own tweet");
}

#[test]
fn duplicate_missing_ranges_are_deduped() {
    let mut e = Engine::new_default();
    e.mark_remote_table("p|");
    e.add_join_text(TIMELINE).unwrap();
    // Two users follow the same poster: one missing range, not two.
    e.put("s|ann|bob", "1");
    e.put("s|cat|bob", "1");
    let res = e.scan(&KeyRange::prefix("t|"));
    let bob_ranges: Vec<_> = res
        .missing
        .iter()
        .filter(|r| r.first.starts_with(b"p|bob"))
        .collect();
    assert_eq!(bob_ranges.len(), 1, "missing: {:?}", res.missing);
}

#[test]
fn residency_survives_unrelated_scans() {
    let mut e = Engine::new(EngineConfig::default());
    e.mark_remote_table("p|");
    e.install_base(
        &KeyRange::prefix("p|bob|"),
        vec![(Key::from("p|bob|0000000100"), Value::from_static(b"Hi"))],
    );
    for _ in 0..10 {
        assert!(e.scan(&KeyRange::prefix("p|bob|")).is_complete());
    }
    assert_eq!(e.resident_ranges(&Key::from("p|")).len(), 1);
}

/// A read over a whole remote table that is resident in many fragments
/// reports one gap per hole between them, and finds them in one pass:
/// each new gap was once checked against every gap reported before it,
/// so 20,000 fragments took minutes in a debug build (a 30k-row
/// whole-table grant ≈7 s in release). The bound is generous; the merge
/// takes milliseconds.
#[test]
fn a_read_over_many_resident_fragments_reports_each_gap_once_and_fast() {
    const FRAGMENTS: usize = 20_000;
    let mut e = Engine::new_default();
    e.mark_remote_table("p|");
    let key = |n: usize| Key::from(format!("p|{n:06}"));
    for n in 0..FRAGMENTS {
        e.mark_resident(&KeyRange::new(key(2 * n), key(2 * n + 1)));
    }
    let started = std::time::Instant::now();
    let res = e.scan(&KeyRange::prefix("p|"));
    let took = started.elapsed();
    assert_eq!(res.missing.len(), FRAGMENTS + 1);
    assert_eq!(res.missing[0], KeyRange::new("p|", key(0)));
    assert_eq!(res.missing[1], KeyRange::new(key(1), key(2)));
    assert!(
        took < std::time::Duration::from_secs(3),
        "{FRAGMENTS} fragments took {took:?}"
    );
    // A second read of a range it has reported adds nothing.
    let again = e.scan(&KeyRange::new(key(1), key(2)));
    assert_eq!(again.missing, vec![KeyRange::new(key(1), key(2))]);
}
