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
//! of the store's subtable blocks: an appended timeline pair is an
//! 8-byte pointer to its shared tweet and a slot of the bytes its key
//! does not share with its block's neighbours, ≈26 bytes in all.
//!
//! The same counters hold what a cold login leaves behind — a status
//! range, its updater entries, their handles — and what a bulk-loaded
//! row of a flat table costs, so that neither grows back a heap node per
//! record; and what recomputing an evicted timeline costs, which is the
//! price of every miss under a memory cap.
//!
//! Both counts repeat exactly for a given input. The counters are per
//! thread, so the tests in this binary can run in parallel without
//! seeing each other's allocations.

use bytes::Bytes;
use pequod_core::updater::{UpdaterEntry, UpdaterIndex};
use pequod_core::{Engine, EngineConfig, JsId};
use pequod_join::{Bindings, Pattern, SlotId, SlotTable};
use pequod_store::{Key, KeyRange, Store, StoreConfig, Value};
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
        Value::from(text.into_bytes()),
    )
}

fn timeline_since(u: u32, since: u64) -> KeyRange {
    KeyRange::new(
        format!("t|{}|{since:010}", user(u)),
        Key::from(format!("t|{}|", user(u))).prefix_end().unwrap(),
    )
}

/// An empty Twip engine laid out like the benchmark's server.
fn twip() -> Engine {
    let store = StoreConfig::flat()
        .with_subtable("t|", 2)
        .with_subtable("p|", 2);
    let mut config = EngineConfig::with_store(store);
    // The deep invariant checker allocates on every operation; under
    // `--features paranoid` this test still measures the serving path.
    config.paranoid = false;
    let mut engine = Engine::new(config);
    engine.add_join_text(TIMELINE).unwrap();
    engine
}

/// Every user's subscriptions, in key order.
fn subscriptions() -> Vec<Key> {
    let mut rows: Vec<Key> = (0..USERS)
        .flat_map(|u| (1..=FOLLOWS).map(move |k| (u, (u + k * 23) % USERS)))
        .map(|(u, poster)| Key::from(format!("s|{}|{}", user(u), user(poster))))
        .collect();
    rows.sort();
    rows
}

/// A 500-user Twip engine, every timeline materialized, so posts fan out
/// eagerly and checks are warm. Returns the engine and the next unused
/// timestamp.
fn warmed_twip() -> (Engine, u64) {
    let mut engine = twip();
    for row in subscriptions() {
        engine.put(row, "1");
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
    // Measured 0.58: three per post whatever its fan-out (the stab's
    // handle list, the source match and its slot set) and, in these 16
    // appends per timeline, one crossing from a full block into a fresh
    // one (the block's two arrays and their first doublings, the
    // directory's growth). The budget is 0.8; one allocation per pair
    // would be 1.4.
    let per_update = allocations as f64 / updates as f64;
    assert!(
        per_update <= 0.8,
        "{allocations} allocations for {updates} eager updates = {per_update:.2} each (budget 0.8)"
    );
}

/// Posts arrive in time order, so every eager update lands at the end of
/// its timeline's subtable. 2500 posts add 100 pairs to each of the 500
/// timelines; what stays allocated afterwards, per update, is the pair's
/// slot (its key's remainder and length, its value's code), an 8-byte
/// pointer to the shared tweet, its share of block and directory
/// overhead and of the growing tail, and a twentieth of the post's own
/// `p|` pair (the tweet buffers the timelines share were allocated
/// beforehand): 25.7 bytes (32.9 while a block held a 16-byte value
/// handle a pair, 49.1 while a value was a 32-byte handle, 67.6 while a
/// pair was two of them).
#[test]
fn an_eager_update_leaves_at_most_28_bytes() {
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
        per_update <= 28.0,
        "{bytes} bytes stayed live after {updates} eager updates = {per_update:.1} each (budget 28)"
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

/// The subscription table is flat — one ordered container for all
/// 10,000 rows: loaded in key order, the rows sit in full blocks, and
/// what stays allocated per row is one slot — the 2 or 3 bytes of
/// `s|user|poster` its block's shared prefix leaves and their length,
/// the value `"1"` and its length — plus a thirty-second of a block's
/// directory entry; the block has no pointer column: 16.4 bytes. (30.4
/// while a block held a 16-byte value handle a row, 46.1 while a value
/// was a 32-byte handle, 65.9 while a row was two of them; a B-tree
/// loaded in key order leaves every leaf half empty: 122 bytes a row.)
#[test]
fn a_bulk_loaded_flat_row_costs_at_most_18_bytes() {
    let mut engine = twip();
    let rows = subscriptions();
    let (bytes, ()) = live_bytes_in(|| {
        for row in &rows {
            engine.put(row.clone(), "1");
        }
    });
    assert_eq!(engine.store().audit(), Vec::<String>::new());
    let per_row = bytes as f64 / rows.len() as f64;
    assert!(
        per_row <= 18.0,
        "{bytes} bytes stayed live after {} rows = {per_row:.1} each (budget 18)",
        rows.len()
    );
}

/// A timeline the way eager updates build it, in one subtable and in
/// time order: 400 pairs of 30-byte keys, every one of them sharing its
/// first 16 bytes (`t|u0000012|00000`), over one shared tweet buffer. A
/// block stores the prefix its keys share once and each key's remaining
/// bytes in a slot with its value's code, and the tweet as an 8-byte
/// pointer in a column of its own, so a pair is a slot of ≈12 key bytes,
/// their length and the code, the pointer, and its share of the block
/// headers: 26.1 bytes (33.1 while a block held a 16-byte value handle a
/// pair, 48.8 while a value was a 32-byte handle, 66.2 while a pair was
/// two of them).
#[test]
fn an_appended_timeline_pair_costs_at_most_29_bytes() {
    let mut store = Store::new(StoreConfig::flat().with_subtable("t|", 2));
    // Another timeline first, so that the table itself is not counted.
    store.put(timeline_since(1, 0).first, Value::from_static(b"1"), false);
    let tweet = post(0, 0).1;
    let pairs: Vec<(Key, Value)> = (0..400u32)
        .map(|i| {
            let time = 12_345 + 7 * u64::from(i);
            let key = format!("t|{}|{time:010}|{}", user(12), user(i % 40));
            (Key::from(key), tweet.clone())
        })
        .collect();
    let (bytes, ()) = live_bytes_in(|| {
        for (k, v) in &pairs {
            store.put(k.clone(), v.clone(), false);
        }
    });
    assert_eq!(store.audit(), Vec::<String>::new());
    let per_pair = bytes as f64 / pairs.len() as f64;
    assert!(
        per_pair <= 29.0,
        "{bytes} bytes stayed live after {} pairs = {per_pair:.1} each (budget 29)",
        pairs.len()
    );
}

/// Most subtables of a cold cache hold a pair or two. What one costs
/// beside its index entries is its directory of one block and that
/// block's one allocation, its slot: the key's length byte (a lone key is
/// all prefix) and the in-place value `"1"` with its length. Measured
/// 278.9 (292.9 while a block held a 16-byte value handle a pair, 300.9
/// while a value was a 32-byte handle, 299.9 while a block held whole
/// pairs; almost all of it is the subtable index and its growth).
#[test]
fn a_one_pair_subtable_costs_at_most_307_bytes() {
    let mut store = Store::new(StoreConfig::flat().with_subtable("t|", 2));
    store.put(Key::from("t|"), Value::from_static(b"1"), false);
    let keys: Vec<Key> = (0..1000)
        .map(|u| Key::from(format!("t|{}|0000012345|{}", user(u), user(7))))
        .collect();
    let (bytes, ()) = live_bytes_in(|| {
        for k in &keys {
            store.put(k.clone(), Value::from_static(b"1"), false);
        }
    });
    let per_subtable = bytes as f64 / keys.len() as f64;
    assert!(
        per_subtable <= 307.0,
        "{bytes} bytes stayed live after {} one-pair subtables = {per_subtable:.1} each (budget 307)",
        keys.len()
    );
}

/// A login with nothing to show — no one has posted — leaves behind only
/// bookkeeping: a status range, one updater entry per source range it
/// read (the user's subscriptions, then each poster's posts), the
/// handles, and an index node for each source range no earlier login
/// watched. Per entry that was once ≈320 bytes and 4.4 allocations, one
/// of them a copy of the slot set for the plan; now the plan and the
/// entry share one packed string that lives in the entry's own cell.
#[test]
fn a_cold_login_leaves_little_behind_and_copies_no_slot_set() {
    let mut engine = twip();
    for row in subscriptions() {
        engine.put(row, "1");
    }
    let logins: Vec<KeyRange> = (0..USERS).map(|u| timeline_since(u, 0)).collect();
    let (allocations, (bytes, ())) = allocations_in(|| {
        live_bytes_in(|| {
            for range in &logins {
                assert!(engine.scan(range).pairs.is_empty());
            }
        })
    });
    let entries = engine.updater_entries();
    assert_eq!(entries, (USERS * (FOLLOWS + 1)) as usize);
    // Measured 160.5 and 3.44. The bytes include the slab's unused
    // half-doubling (10,500 cells in room for 16,384) and the ranges and
    // nodes; the allocations are forward execution's, three or so per
    // source range, which is where the next one should come out.
    let (per_entry, calls) = (
        bytes as f64 / entries as f64,
        allocations as f64 / entries as f64,
    );
    assert!(
        per_entry <= 200.0,
        "{bytes} bytes stayed live after {entries} entries = {per_entry:.1} each (budget 200)"
    );
    assert!(
        calls <= 4.0,
        "{allocations} allocations for {entries} entries = {calls:.2} each (budget 4)"
    );
}

/// The entry itself, as `install_plan` makes it: bindings packed from
/// the execution's slot set, installed on a source range other logins
/// watch already, its handle kept by the owner. With the 32 entries
/// watching beforehand, 511 owners of 32 fill the slab's last doubling
/// exactly, so the figure is the cell and the handle — not how far a
/// doubling overshot — and the allocations are one handle list per owner
/// plus the slab's doublings.
#[test]
fn an_installed_updater_entry_costs_at_most_96_bytes() {
    const OWNERS: u32 = 511;
    const EACH: u32 = 32;
    let mut table = SlotTable::new();
    let mut slots = table.empty_set();
    for name in ["user", "time", "poster"] {
        table.intern(name);
    }
    let posts = |poster: u32| KeyRange::prefix(format!("p|{}|", user(poster)));
    let mut index = UpdaterIndex::new();
    let entry = |slots: Bindings, owner: u32| UpdaterEntry {
        join: 0,
        source_idx: 1,
        slots,
        js: JsId {
            slot: owner,
            gen: 0,
        },
    };
    // Someone watches every poster already.
    for poster in 0..EACH {
        let watched = index.install(posts(poster), entry(Bindings::default(), OWNERS), &[]);
        assert!(watched.is_some());
    }
    let ranges: Vec<KeyRange> = (0..EACH).map(posts).collect();
    let names: Vec<Bytes> = (0..OWNERS.max(EACH))
        .map(|u| Bytes::from(user(u).into_bytes()))
        .collect();
    let mut owned = Vec::with_capacity(OWNERS as usize);
    let (allocations, (bytes, ())) = allocations_in(|| {
        live_bytes_in(|| {
            for owner in 0..OWNERS {
                slots.bind(SlotId(0), names[owner as usize].clone());
                let mut handles = Vec::with_capacity(ranges.len());
                for (poster, range) in ranges.iter().enumerate() {
                    slots.bind(SlotId(2), names[poster].clone());
                    let planned = entry(Bindings::pack(&slots), owner);
                    handles.extend(index.install(range.clone(), planned, &handles));
                }
                owned.push(handles);
            }
        })
    });
    let entries = (OWNERS * EACH) as usize;
    assert_eq!(index.entry_count(), entries + EACH as usize);
    assert_eq!(index.node_count(), EACH as usize);
    // Measured 80.0 and 0.03: a 72-byte cell and an 8-byte handle. The
    // entry that kept its slot set on the heap cost 216 and 1.03.
    let (per_entry, calls) = (
        bytes as f64 / entries as f64,
        allocations as f64 / entries as f64,
    );
    assert!(
        per_entry <= 96.0,
        "{bytes} bytes stayed live after {entries} entries = {per_entry:.1} each (budget 96)"
    );
    assert!(
        calls <= 0.2,
        "{allocations} allocations for {entries} installs = {calls:.2} each (budget 0.2)"
    );
}

/// A Twip engine where each of `users` follows `FOLLOWEES` of `posters`
/// posters, each of whom has posted three times: a timeline is 72 pairs,
/// about what the benchmark's capped server recomputes per miss.
const FOLLOWEES: u32 = 24;

fn followed_twip(users: u32, posters: u32) -> Engine {
    let mut engine = twip();
    for u in 0..users {
        for k in 0..FOLLOWEES {
            let poster = (u * 7 + k * 13) % posters;
            engine.put(format!("s|{}|{}", user(u), user(poster)), "1");
        }
    }
    for poster in 0..posters {
        for n in 0..3u64 {
            let (k, v) = post(poster, 1_000 + u64::from(poster) * 10 + n);
            engine.put(k, v);
        }
    }
    engine
}

/// Recomputing a timeline allocates for what it keeps — its blocks, its
/// status range's updater handles — and the execution's own growing
/// buffers, not per source range it plans (the prefix and bound keys of
/// a containing range are built in place) or per pair it writes (a run's
/// blocks are allocated once at their final size). Half the timelines
/// are materialized first, so the posters' index nodes exist, as on a
/// warm server.
#[test]
fn a_cold_timeline_materializes_in_at_most_25_allocations() {
    const USERS: u32 = 200;
    let mut engine = followed_twip(USERS, 150);
    let timeline = |u: u32| KeyRange::prefix(format!("t|{}|", user(u)));
    for u in 0..USERS / 2 {
        engine.scan_with(&timeline(u), |_, _| {});
    }
    let cold: Vec<KeyRange> = (USERS / 2..USERS).map(timeline).collect();
    let execs = engine.engine_stats().join_execs;
    let mut pairs = 0;
    let (allocations, ()) = allocations_in(|| {
        for range in &cold {
            engine.scan_with(range, |_, _| pairs += 1);
        }
    });
    let cold = engine.engine_stats().join_execs - execs;
    assert_eq!(cold, u64::from(USERS / 2), "one execution per timeline");
    assert_eq!(pairs, (USERS / 2 * FOLLOWEES * 3) as usize);
    let per_exec = allocations as f64 / cold as f64;
    assert!(
        per_exec <= 25.0,
        "{allocations} allocations for {cold} cold timelines = {per_exec:.1} each (budget 25)"
    );
}

/// A check of an evicted timeline reads only its recent part, but its
/// updaters watch each followed poster's whole post range — the range a
/// full timeline of the same posters watches already — so they chain
/// onto the existing nodes. Only the reader's own subscription range is
/// new, and a second, older partial read of the same timeline adds
/// nothing at all.
#[test]
fn a_partial_timeline_read_adds_no_node_for_the_posts_it_reads() {
    let mut engine = followed_twip(1, 150);
    // User 1 follows the same posters as user 0.
    for k in 0..FOLLOWEES {
        let poster = (k * 13) % 150;
        engine.put(format!("s|{}|{}", user(1), user(poster)), "1");
    }
    assert_eq!(
        engine
            .scan(&KeyRange::prefix(format!("t|{}|", user(0))))
            .pairs
            .len(),
        72
    );
    let nodes = engine.updater_nodes();
    assert!(nodes > FOLLOWEES as usize);
    let recent = engine.scan(&timeline_since(1, 1_800));
    assert!(recent.pairs.len() < 72 && recent.is_complete());
    assert_eq!(
        engine.updater_nodes(),
        nodes + 1,
        "a partial read adds its subscription range's node and no other"
    );
    let older = engine.scan(&timeline_since(1, 1_400));
    assert!(older.pairs.len() > recent.pairs.len());
    assert_eq!(
        engine.updater_nodes(),
        nodes + 1,
        "an older partial read adds no node"
    );
    assert_eq!(engine.check_invariants(), Vec::<String>::new());
}
