//! `pequod-store` — the ordered key-value substrate for Pequod.
//!
//! Pequod (NSDI '14) is built on a single-process ordered store with
//! string keys and values. This crate provides:
//!
//! * [`Key`] — byte-string keys (in place up to 30 bytes, refcounted
//!   beyond) with the ordering helpers the cache-join machinery depends
//!   on (`successor`, `prefix_end`).
//! * [`Value`] — values, in a 16-byte handle: in place up to 14 bytes,
//!   one shared buffer beyond, so a `copy` join's outputs share their
//!   source's bytes (§4.3). A block stores a value as a length byte and
//!   its bytes, or a pointer to that buffer, and lends it to a reader as
//!   a [`ValueRef`].
//! * [`KeyRange`] / [`UpperBound`] — half-open key ranges; every scan,
//!   join status range, updater and subscription is one of these.
//! * [`Store`] / [`Table`] — the layered tree structure of §4.1: a table
//!   layer split on the first key component, with optional hash-indexed
//!   subtables at developer-marked component boundaries.
//! * [`IntervalTree`] — the augmented search tree holding updaters,
//!   supporting stabbing queries on store writes (§3.2).
//! * [`LruTracker`] — least-recently-used ordering for evictable ranges
//!   (§2.5), addressed by the [`LruHandle`] each range keeps.
//!
//! The store is deliberately single-threaded and event-driven, like the
//! paper's C++ server: one `Store` belongs to one engine; concurrency
//! lives a level up — `pequod-net` runs one engine per server process,
//! on its reactor thread, and a machine's cores are used by running one
//! process per core. That design only needs the types
//! here to be [`Send`] (owned data, movable across threads), never
//! [`Sync`]; the assertion below pins that contract at compile time.

// No first-party unsafe: the whole system is safe Rust over the
// vendored deps. `cargo xtask audit` additionally requires a SAFETY
// comment on any future unsafe block an allow here would admit.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
mod interval_tree;
mod key;
mod lru;
mod range;
mod range_set;
mod store;
mod table;
mod value;

pub use interval_tree::{IntervalId, IntervalTree};
pub use key::{Key, SEP};
pub use lru::{LruHandle, LruTracker};
pub use range::{KeyRange, UpperBound};
pub use range_set::RangeSet;
pub use store::{Store, StoreConfig, StoreStats};
pub use table::{Table, TableStats};
pub use value::{Value, ValueRef};

/// Compile-time thread-safety contract: everything an engine owns can
/// move to the thread that serves it, and the shared-payload types (`Key`,
/// `Value`: held in place when short, refcounted via `Arc` beyond) can
/// additionally be read from many threads. If a change to the store
/// breaks one of these bounds, this fails to compile rather than
/// surfacing as a distant trait error where an engine is hosted.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Store>();
    assert_send::<Table>();
    assert_send::<IntervalTree<()>>();
    assert_send::<RangeSet>();
    assert_send::<LruTracker<Key>>();
    assert_send_sync::<Key>();
    assert_send_sync::<Value>();
    assert_send_sync::<KeyRange>();
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};

    fn key_strat() -> impl Strategy<Value = Key> {
        // Small alphabet concentrates collisions and boundary cases.
        proptest::collection::vec(
            prop_oneof![Just(b'a'), Just(b'b'), Just(b'|'), Just(0xffu8), Just(b'z')],
            0..6,
        )
        .prop_map(Key::from)
    }

    /// [`key_strat`], and a third of the time that key run out past the
    /// 30 bytes a key is held in place up to.
    fn stored_key_strat() -> impl Strategy<Value = Key> {
        (key_strat(), 0..3usize, 31..40usize).prop_map(|(k, pick, len)| match pick {
            0 => {
                let mut long = k.as_bytes().to_vec();
                long.resize(len, b'z');
                Key::from(long)
            }
            _ => k,
        })
    }

    fn range_strat() -> impl Strategy<Value = KeyRange> {
        (key_strat(), proptest::option::of(key_strat())).prop_map(|(first, end)| match end {
            Some(e) => KeyRange::new(first, e),
            None => KeyRange::with_bound(first, UpperBound::Unbounded),
        })
    }

    proptest! {
        #[test]
        fn successor_is_least_greater(k in key_strat()) {
            let s = k.successor();
            prop_assert!(s > k);
            prop_assert!(s.as_bytes().starts_with(k.as_bytes()));
        }

        #[test]
        fn prefix_end_is_correct_bound(k in key_strat(), probe in key_strat()) {
            match k.prefix_end() {
                Some(end) => {
                    if probe.starts_with(k.as_bytes()) {
                        prop_assert!(probe < end, "{:?} should be < {:?}", probe, end);
                    }
                    if probe >= end {
                        prop_assert!(!probe.starts_with(k.as_bytes()));
                    }
                }
                None => {
                    // Only the empty key or all-0xff keys lack a bound.
                    prop_assert!(k.as_bytes().iter().all(|&b| b == 0xff));
                }
            }
        }

        #[test]
        fn intersect_agrees_with_contains(a in range_strat(), b in range_strat(), probe in key_strat()) {
            let i = a.intersect(&b);
            prop_assert_eq!(i.contains(&probe), a.contains(&probe) && b.contains(&probe));
        }

        #[test]
        fn subtract_partitions(a in range_strat(), b in range_strat(), probe in key_strat()) {
            let pieces = a.subtract(&b);
            let in_pieces = pieces.iter().any(|p| p.contains(&probe));
            prop_assert_eq!(in_pieces, a.contains(&probe) && !b.contains(&probe));
            for p in &pieces {
                prop_assert!(!p.overlaps(&b));
            }
        }

        #[test]
        fn overlaps_iff_nonempty_intersection(a in range_strat(), b in range_strat()) {
            prop_assert_eq!(a.overlaps(&b), !a.intersect(&b).is_empty());
        }

        #[test]
        fn store_matches_btreemap(
            ops in proptest::collection::vec(
                // Values from empty to past the 14 bytes held in place.
                (0..3u8, stored_key_strat(), proptest::collection::vec(any::<u8>(), 0..48)),
                1..60
            ),
            scan in range_strat()
        ) {
            let mut store = Store::new(StoreConfig::flat().with_subtable("a|", 2));
            let mut model: BTreeMap<Key, Vec<u8>> = BTreeMap::new();
            for (op, key, val) in ops {
                match op {
                    0 => {
                        store.put(key.clone(), Value::from(val.clone()), false);
                        model.insert(key, val);
                    }
                    1 => {
                        let got = store.remove(&key, false).map(|v| v.to_vec());
                        let want = model.remove(&key);
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        let got = store.get(&key).map(|v| v.to_vec());
                        let want = model.get(&key).cloned();
                        prop_assert_eq!(got, want);
                    }
                }
            }
            let mut got: Vec<(Key, Vec<u8>)> = Vec::new();
            store.scan(&scan, |k, v| {
                got.push((k.clone(), v.to_vec()));
                true
            });
            let want: Vec<(Key, Vec<u8>)> = model
                .iter()
                .filter(|(k, _)| scan.contains(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(store.len(), model.len());
        }

        /// The LRU list against a `VecDeque` (front = coldest): inserts,
        /// touches, removals and pops through live and stale handles,
        /// with freed cells reused by later inserts.
        #[test]
        fn lru_matches_vecdeque(
            ops in proptest::collection::vec((0..5u8, 0..64usize), 1..150)
        ) {
            let mut lru = LruTracker::new();
            let mut model: VecDeque<(LruHandle, usize)> = VecDeque::new();
            let mut issued: Vec<LruHandle> = Vec::new();
            for (op, n) in ops {
                let pick = issued.get(n % issued.len().max(1)).copied();
                let at = pick.and_then(|h| model.iter().position(|(m, _)| *m == h));
                match (op, pick) {
                    (0 | 1, _) => {
                        let unit = issued.len();
                        let h = lru.insert(unit);
                        prop_assert!(!issued.contains(&h), "handle {:?} was issued before", h);
                        issued.push(h);
                        model.push_back((h, unit));
                    }
                    (2, Some(h)) => {
                        prop_assert_eq!(lru.touch(h), at.is_some());
                        if let Some(entry) = at.and_then(|at| model.remove(at)) {
                            model.push_back(entry);
                        }
                    }
                    (3, Some(h)) => {
                        let want = at.and_then(|at| model.remove(at)).map(|(_, unit)| unit);
                        prop_assert_eq!(lru.remove(h), want);
                    }
                    _ => {
                        prop_assert_eq!(lru.pop_lru(), model.pop_front().map(|(_, unit)| unit));
                    }
                }
                prop_assert_eq!(lru.len(), model.len());
                prop_assert_eq!(lru.is_empty(), model.is_empty());
                prop_assert_eq!(lru.peek_lru(), model.front().map(|(_, unit)| unit));
                let order: Vec<(LruHandle, usize)> = lru.iter().map(|(h, u)| (h, *u)).collect();
                prop_assert_eq!(order, Vec::from(model.clone()));
                for &h in &issued {
                    let want = model.iter().find(|(m, _)| *m == h).map(|(_, unit)| unit);
                    prop_assert_eq!(lru.get(h), want, "handle {:?}", h);
                }
                prop_assert_eq!(lru.audit(), Vec::<String>::new());
            }
        }

        #[test]
        fn range_set_matches_naive(
            ops in proptest::collection::vec((any::<bool>(), key_strat(), key_strat()), 0..25),
            probe in key_strat(),
            query in range_strat()
        ) {
            let mut set = RangeSet::new();
            let mut naive: Vec<(bool, KeyRange)> = Vec::new();
            for (add, a, b) in ops {
                let range = KeyRange::new(a.clone().min(b.clone()), a.max(b));
                if add { set.add(&range); } else { set.remove(&range); }
                naive.push((add, range));
            }
            let covered = |k: &Key| {
                let mut c = false;
                for (add, r) in &naive {
                    if r.contains(k) { c = *add; }
                }
                c
            };
            prop_assert_eq!(set.contains(&probe), covered(&probe));
            // uncovered() partitions the query range correctly at the probe.
            if query.contains(&probe) {
                let in_gap = set.uncovered(&query).iter().any(|g| g.contains(&probe));
                prop_assert_eq!(in_gap, !covered(&probe));
            }
            // Invariant: stored ranges are disjoint and non-empty.
            let ranges: Vec<KeyRange> = set.iter().collect();
            for (i, a) in ranges.iter().enumerate() {
                prop_assert!(!a.is_empty());
                for b in ranges.iter().skip(i + 1) {
                    prop_assert!(!a.overlaps(b));
                }
            }
        }

        #[test]
        fn interval_tree_matches_naive(
            intervals in proptest::collection::vec((key_strat(), key_strat()), 0..30),
            probe in key_strat(),
            qrange in range_strat()
        ) {
            let mut tree = IntervalTree::new();
            let mut naive = Vec::new();
            for (a, b) in intervals {
                let range = KeyRange::new(a.clone().min(b.clone()), a.max(b));
                let id = tree.insert(range.clone(), ());
                naive.push((id, range));
            }
            let mut got = tree.stab_ids(&probe);
            got.sort();
            let mut want: Vec<_> = naive.iter().filter(|(_, r)| r.contains(&probe)).map(|(i, _)| *i).collect();
            want.sort();
            prop_assert_eq!(got, want);

            let mut got = tree.overlapping_ids(&qrange);
            got.sort();
            let mut want: Vec<_> = naive.iter().filter(|(_, r)| r.overlaps(&qrange)).map(|(i, _)| *i).collect();
            want.sort();
            prop_assert_eq!(got, want);
        }
    }

    /// The block model's case count: one under Miri, else eight, or a
    /// thirty-second of `PROPTEST_CASES` when a run asks for more (a case
    /// is two thousand operations, each followed by a full audit).
    fn model_cases() -> u32 {
        let asked = std::env::var("PROPTEST_CASES").ok();
        match asked.and_then(|n| n.parse::<u32>().ok()) {
            _ if cfg!(miri) => 1,
            Some(n) => (n / 32).max(8),
            None => 8,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(model_cases()))]

        /// A store — one table split into subtables, one flat — against a
        /// `BTreeMap`, with enough pairs in few enough subtables that
        /// blocks fill, split, merge and empty: ascending runs (one pair at
        /// a time and as one `put_run`), mid-inserts,
        /// replaces, removals from either end down to nothing (the
        /// subtable must leave the index), point gets, early-exit scans
        /// whose bounds sit on and around the multiples of 16 and 32 where
        /// blocks begin, and range removals under a per-pair predicate —
        /// starting and ending mid-block, covering exactly one block, a
        /// whole subtable, several subtables, the flat table, both tables.
        /// The flat table is the same container grown past one chunk of
        /// its directory (four blocks, in this crate's tests): it reaches
        /// six to eight chunks, and in every case a run starts fresh
        /// chunks, a mid-insert splits one, removals empty, merge and fold
        /// them away, and range removals span three and more.
        ///
        /// The keys are shaped to reach the seams of a block's encoding:
        /// a shared prefix that every insert or removal at either end may
        /// shorten or lengthen, keys that are exactly another's prefix
        /// (an empty remainder), the bytes `0x00`, `0xff` and `|`, and —
        /// by the case's `shape` — lengths that straddle the 30 bytes a
        /// key is held in place up to, and 64-byte keys held as shared
        /// handles (a block keeps those in a list of their own, which
        /// splits, merges and range removals must carry along). Probes and
        /// bounds include keys that share none of a block's prefix,
        /// sorting below or past all of it, and bounds cut inside a
        /// prefix. Values run from one byte to 47, across the 14 a value
        /// holds in place, so that shared values are split, merged and
        /// removed too.
        #[test]
        fn subtable_blocks_match_btreemap(
            ops in proptest::collection::vec(
                (0..18u8, 0..5u8, any::<u16>(), any::<u16>()),
                if cfg!(miri) { 200..201 } else { 2000..2400 }
            ),
            shape in 0..4usize
        ) {
            // Subtables 0–3 of the split table `a|`; "subtable" 4 is the
            // flat table `f|`, which sorts after all of them. Four times
            // in a row share a stem, padded to 11, 28, 29 or 30 bytes,
            // and end in nothing, `0x00`, `|q` or `0xff` and a run of `z`
            // to 64 bytes: in key order, and time order too.
            let pad = "x".repeat([0, 17, 18, 19][shape]);
            let key = |sub: u8, time: usize| {
                let table = if sub < 4 { "a" } else { "f" };
                let mut k = format!("{table}|s{sub}|{pad}{:06}", time / 4).into_bytes();
                match time % 4 {
                    0 => {}
                    1 => k.push(0),
                    2 => k.extend_from_slice(b"|q"),
                    _ => {
                        k.push(0xff);
                        k.resize(64, b'z');
                    }
                }
                Key::from(k)
            };
            let mut store = Store::new(StoreConfig::flat().with_subtable("a|", 2));
            let mut model: BTreeMap<Key, Value> = BTreeMap::new();
            let mut stamp = 0u32;
            // The highest time each subtable was ever given.
            let mut newest = [0usize; 5];
            for (op, sub, a, b) in ops {
                let (a, b) = (usize::from(a), usize::from(b));
                let held: Vec<Key> = model.range(key(sub, 0)..key(sub + 1, 0))
                    .map(|(k, _)| k.clone())
                    .collect();
                let newest = &mut newest[usize::from(sub)];
                // Times are even when appended, so odd ones fall between.
                let mut puts: Vec<Key> = Vec::new();
                let mut removes: Vec<Key> = Vec::new();
                // Bounds: a stored key near a block boundary, the gap just
                // past it, or a cut inside its prefix.
                let edge = |n: usize| match held.get((n % (held.len() / 16 + 2)) * 16 + n % 3) {
                    Some(k) if n % 4 == 3 => Key::from(&k.as_bytes()[..k.len().saturating_sub(1 + n % 9)]),
                    Some(k) if n.is_multiple_of(2) => k.clone(),
                    Some(k) => k.successor(),
                    None => key(sub, *newest + 1),
                };
                match op {
                    // The flat table's runs are longer: its blocks gather
                    // in chunks of four, and it should hold several.
                    0 | 1 | 13.. => puts.extend((0..=a % if sub == 4 { 200 } else { 40 }).map(|_| {
                        *newest += 2;
                        key(sub, *newest)
                    })),
                    2 => puts.push(key(sub, (a % (*newest + 2)) | 1)),
                    3 => puts.extend(held.get(a % held.len().max(1)).cloned()),
                    4 => removes.extend(held.iter().rev().take(1 + a % 24).cloned()),
                    5 => removes.extend(held.iter().take(1 + a % 24).cloned()),
                    6 if a % 8 == 0 => removes.extend(held.iter().rev().cloned()),
                    6 if a % 8 == 1 => removes.extend(held.iter().cloned()),
                    6 => removes.push(key(sub, a % (*newest + 2))),
                    7 => {
                        // A stored time, or the subtable's bare stem, below
                        // every key of its blocks, or the stem and `0xff`,
                        // past them all.
                        let stem = Key::from(key(sub, 0).as_bytes().split_last().map_or(&[][..], |(_, s)| s));
                        let probe = match b % 3 {
                            0 => key(sub, a % (*newest + 2)),
                            1 => stem,
                            _ => Key::join(&[stem.as_bytes(), b"\xff"]),
                        };
                        let want = model.get(&probe).cloned();
                        prop_assert_eq!(store.get(&probe).map(|v| v.to_value()), want.clone());
                        prop_assert_eq!(store.peek(&probe).map(|v| v.to_value()), want);
                    }
                    8..10 => {
                        // Sometimes into another subtable or the other table.
                        let range = match op {
                            8 => KeyRange::new(edge(a), edge(b)),
                            _ if b % 4 == 0 => KeyRange::with_bound(edge(a), UpperBound::Unbounded),
                            _ => KeyRange::new(edge(a), key((sub + 1 + (b % 3) as u8) % 5, b)),
                        };
                        let limit = 1 + b % 70;
                        let mut got = Vec::new();
                        store.scan(&range, |k, v| {
                            got.push((k.clone(), v.to_value()));
                            got.len() < limit
                        });
                        let want: Vec<(Key, Value)> = model
                            .iter()
                            .filter(|(k, _)| range.contains(k))
                            .take(limit)
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect();
                        prop_assert_eq!(got, want, "{:?} limit {}", range, limit);
                    }
                    _ => {
                        let block = (a % (held.len() / 32 + 1)) * 32;
                        let range = match (op, held.get(block)) {
                            // Mid-block to mid-block.
                            (10, _) => KeyRange::new(edge(a), edge(b)),
                            // One whole block of an append-only subtable.
                            (11, Some(first)) if b % 2 == 0 => KeyRange::with_bound(
                                first.clone(),
                                held.get(block + 32).map_or(UpperBound::Unbounded, |k| k.clone().into()),
                            ),
                            // One whole subtable (or the flat table).
                            (11, _) => KeyRange::new(key(sub, 0), key(sub + 1, 0)),
                            // From mid-subtable across the next few, the
                            // last of them into the other table.
                            _ => KeyRange::new(edge(a), key((sub + 2 + (b % 3) as u8).min(5), b)),
                        };
                        let doomed = |k: &Key| {
                            b % 3 == 0 || (usize::from(k.as_bytes()[k.len() - 1]) + b) % 3 != 0
                        };
                        let mut offered = Vec::new();
                        let removed = store.remove_range(&range, false, |k, v| {
                            offered.push((k.clone(), v.to_value()));
                            doomed(k)
                        });
                        let in_range: Vec<(Key, Value)> = model
                            .range(range.first.clone()..)
                            .take_while(|(k, _)| range.contains(k))
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect();
                        prop_assert_eq!(&offered, &in_range, "offered once each, in order: {:?}", range);
                        model.retain(|k, _| !(range.contains(k) && doomed(k)));
                        let gone = in_range.iter().filter(|(k, _)| doomed(k)).count();
                        prop_assert_eq!(removed, gone, "{:?}", range);
                    }
                }
                let puts: Vec<(Key, Value)> = (puts.into_iter())
                    .map(|k| {
                        stamp += 1;
                        // Every length from empty to past a shared
                        // array, the seams most often: a block mixes
                        // in-place and shared values, and a rewrite of a
                        // key can flip it from one to the other.
                        const SEAMS: [usize; 8] = [0, 1, 14, 15, 49, 64, 65, 80];
                        let len = match stamp % 3 {
                            0 => stamp as usize % 81,
                            _ => SEAMS[(stamp / 3) as usize % SEAMS.len()],
                        };
                        let mut value = stamp.to_string().into_bytes();
                        value.resize(len, b'v');
                        (k, Value::from(value))
                    })
                    .collect();
                if op >= 13 {
                    // As one run, the way a join's outputs arrive.
                    let replaced: Vec<(usize, Value)> = (puts.iter().enumerate())
                        .filter_map(|(at, (k, v))| Some((at, model.insert(k.clone(), v.clone())?)))
                        .collect();
                    prop_assert_eq!(store.put_run(puts, false), replaced);
                } else {
                    for (k, v) in puts {
                        prop_assert_eq!(store.put(k.clone(), v.clone(), false), model.insert(k, v));
                    }
                }
                for k in removes {
                    prop_assert_eq!(store.remove(&k, false), model.remove(&k));
                }
                prop_assert_eq!(store.audit(), Vec::<String>::new());
                prop_assert_eq!(store.len(), model.len());
                let mut expected = model.iter();
                let mut same = true;
                store.for_each(|k, v| same &= expected.next() == Some((k, &v.to_value())));
                prop_assert!(same && expected.next().is_none(), "a full walk differs from the model");
                let subtables = (0..4u8)
                    .filter(|&s| model.range(key(s, 0)..key(s + 1, 0)).next().is_some())
                    .count();
                let split = store.tables().find(|(prefix, _)| prefix.as_bytes() == b"a|");
                prop_assert_eq!(split.map_or(0, |(_, t)| t.subtable_count()), subtables);
            }
        }
    }
}
