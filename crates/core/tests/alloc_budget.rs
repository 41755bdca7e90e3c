//! Allocation budget of the warm path.
//!
//! A post is turned into a handful of eager updates, and each should
//! cost little more than the append to a sorted block it ends in; a warm
//! timeline check should cost little more than collecting its answer.
//! Both were once dominated by bookkeeping allocations (5.3 per eager
//! update, 4.8 per warm check). This test counts heap allocations on a
//! warmed 500-user Twip engine and fails when a change reintroduces a
//! per-entry or per-check clone, so the regression shows up here rather
//! than in a benchmark. It also counts live bytes, to hold the density
//! of the store's subtable blocks: an appended timeline pair is two
//! 32-byte handles and should cost little more than those 64 bytes.
//!
//! Both counts repeat exactly for a given input. The counters are per
//! thread, so the tests in this binary can run in parallel without
//! seeing each other's allocations.

// Test-only crate: shared helpers sit outside #[test] functions, so
// clippy's allow-unwrap-in-tests does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use bytes::Bytes;
use pequod_core::{Engine, EngineConfig};
use pequod_join::{Pattern, SlotTable};
use pequod_store::{Key, KeyRange, StoreConfig, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn live_bytes_add(delta: i64) {
    LIVE_BYTES.with(|n| n.set(n.get() + delta));
}

/// The system allocator, counting calls that obtain memory (`alloc`,
/// `alloc_zeroed` and `realloc` all funnel through these two) and the
/// requested bytes currently held.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is
// thread-local counter arithmetic, which neither allocates (the cells
// are const-initialised and have no destructor) nor unwinds.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are `System.alloc`'s own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live_bytes_add(layout.size() as i64);
        // SAFETY: `layout` is passed through from our caller.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's obligations are `System.dealloc`'s own.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_bytes_add(-(layout.size() as i64));
        // SAFETY: `ptr` and `layout` are passed through from our caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller's obligations are `System.realloc`'s own.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live_bytes_add(new_size as i64 - layout.size() as i64);
        // SAFETY: all three are passed through from our caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread performs while running `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Growth in this thread's live heap bytes while running `f`.
fn live_bytes_in<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = f();
    (LIVE_BYTES.with(Cell::get) - before, out)
}

const USERS: u32 = 500;
const FOLLOWS: u32 = 20;
const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

fn user(u: u32) -> String {
    format!("u{u:07}")
}

fn post(poster: u32, time: u64) -> (Key, Value) {
    let text = format!("tweet {time} from {poster}: {}", "lorem ipsum ".repeat(5));
    (
        Key::from(format!("p|{}|{time:010}", user(poster))),
        Bytes::from(text.into_bytes()),
    )
}

fn timeline_since(u: u32, since: u64) -> KeyRange {
    KeyRange::new(
        format!("t|{}|{since:010}", user(u)),
        Key::from(format!("t|{}|", user(u))).prefix_end().unwrap(),
    )
}

/// A 500-user Twip engine laid out like the benchmark's server, every
/// timeline materialized, so posts fan out eagerly and checks are warm.
/// Returns the engine and the next unused timestamp.
fn warmed_twip() -> (Engine, u64) {
    let store = StoreConfig::flat()
        .with_subtable("t|", 2)
        .with_subtable("p|", 2);
    let mut config = EngineConfig::with_store(store);
    // The deep invariant checker allocates on every operation; under
    // `--features paranoid` this test still measures the serving path.
    config.paranoid = false;
    let mut engine = Engine::new(config);
    engine.add_join_text(TIMELINE).unwrap();
    for u in 0..USERS {
        for k in 1..=FOLLOWS {
            let poster = (u + k * 23) % USERS;
            engine.put(format!("s|{}|{}", user(u), user(poster)), "1");
        }
    }
    let mut time = 1_000;
    for poster in 0..USERS {
        let (k, v) = post(poster, time);
        engine.put(k, v);
        time += 1;
    }
    for u in 0..USERS {
        let timeline = engine.scan(&KeyRange::prefix(format!("t|{}|", user(u))));
        assert_eq!(timeline.pairs.len(), FOLLOWS as usize);
    }
    (engine, time)
}

#[test]
fn an_eager_update_costs_less_than_one_allocation() {
    let (mut engine, start) = warmed_twip();
    // Keys and values arrive already built, as they do from the codec.
    let posts: Vec<(Key, Value)> = (0..400u32)
        .map(|i| post((i * 7) % USERS, start + u64::from(i)))
        .collect();
    let before = engine.engine_stats().eager_updates;
    let (allocations, ()) = allocations_in(|| {
        for (k, v) in posts {
            engine.put(k, v);
        }
    });
    let updates = engine.engine_stats().eager_updates - before;
    assert_eq!(
        updates,
        400 * u64::from(FOLLOWS),
        "every follower is updated"
    );
    // Measured 0.40: three per post whatever its fan-out (the stab's
    // handle list, the source match and its slot set) and, in these 16
    // appends per timeline, one crossing from a full block into a fresh
    // one (the block, its first doubling, the directory's growth). The
    // budget is twice that; one allocation per pair would be 1.4.
    let per_update = allocations as f64 / updates as f64;
    assert!(
        per_update <= 0.8,
        "{allocations} allocations for {updates} eager updates = {per_update:.2} each (budget 0.8)"
    );
}

/// Posts arrive in time order, so every eager update lands at the end of
/// its timeline's subtable. 2500 posts add 100 pairs to each of the 500
/// timelines; what stays allocated afterwards, per update, is the pair's
/// two 32-byte handles, its share of block and directory overhead and
/// of the growing tail, and a twentieth of the post's own `p|` pair
/// (the tweet buffers the timelines share were allocated beforehand).
#[test]
fn an_appended_timeline_pair_costs_at_most_80_bytes() {
    let (mut engine, start) = warmed_twip();
    let posts: Vec<(Key, Value)> = (0..2500u32)
        .map(|i| post((i * 7) % USERS, start + u64::from(i)))
        .collect();
    let before = engine.engine_stats().eager_updates;
    let (bytes, ()) = live_bytes_in(|| {
        for (k, v) in &posts {
            engine.put(k.clone(), v.clone());
        }
    });
    let updates = engine.engine_stats().eager_updates - before;
    assert_eq!(updates, 2500 * u64::from(FOLLOWS));
    let per_update = bytes as f64 / updates as f64;
    assert!(
        per_update <= 80.0,
        "{bytes} bytes stayed live after {updates} eager updates = {per_update:.1} each (budget 80)"
    );
}

#[test]
fn a_warm_check_costs_at_most_two_allocations() {
    let (mut engine, start) = warmed_twip();
    for i in 0..USERS {
        let (k, v) = post(i, start + u64::from(i));
        engine.put(k, v);
    }
    // Each user checks for what arrived in the last 40 ticks: about two
    // of their twenty posters.
    let newest = start + u64::from(USERS);
    let checks: Vec<KeyRange> = (0..USERS).map(|u| timeline_since(u, newest - 40)).collect();
    let mut returned = 0;
    let (allocations, ()) = allocations_in(|| {
        for range in &checks {
            let got = engine.scan(range);
            assert!(got.pairs.len() <= 2 && got.is_complete());
            returned += got.pairs.len();
        }
    });
    assert!(returned >= USERS as usize, "the checks must return data");
    let per_check = allocations as f64 / checks.len() as f64;
    assert!(
        per_check <= 2.0,
        "{allocations} allocations for {} warm checks = {per_check:.2} each (budget 2)",
        checks.len()
    );
}

/// Matching a key binds each slot to a slice of the key's own buffer —
/// held in place when short, a window into the buffer when long — so
/// binding never allocates, and neither does expanding a short key.
#[test]
fn binding_a_slot_performs_no_allocation() {
    let mut table = SlotTable::new();
    let pattern = Pattern::parse("t|<user>|<time:10>|<poster>", &mut table).unwrap();
    let short = Key::from("t|u0000001|0000001000|u0000002");
    let long = Key::from(format!(
        "t|{}|0000001000|{}",
        "u".repeat(40),
        "p".repeat(50)
    ));
    for key in [short, long] {
        let mut slots = table.empty_set();
        let mut undo = Vec::with_capacity(4);
        let (allocations, ()) = allocations_in(|| {
            assert!(pattern.match_key(&key, &mut slots));
            for id in pattern.slots() {
                slots.unbind(id);
            }
            assert!(pattern.match_key_undo(&key, &mut slots, &mut undo));
        });
        assert_eq!(allocations, 0, "binding the slots of {key:?}");
        let (allocations, expanded) = allocations_in(|| pattern.expand(&slots));
        assert_eq!(expanded.as_ref(), Some(&key));
        if key.len() <= 30 {
            assert_eq!(allocations, 0, "expanding {key:?}");
        }
    }
}
