//! The ordered key-value store: a layer of [`Table`]s presented as a
//! single lexicographically ordered key space.
//!
//! The first tree layer separates logical tables (`p|`, `t|`, …) into
//! separate subtrees (§4.1); tables may in turn be split into
//! hash-indexed subtables. Scans that cross table boundaries walk the
//! ordered table index, so the whole store still behaves as one ordered
//! map.

use crate::key::Key;
use crate::range::KeyRange;
use crate::table::Table;
use crate::value::{Value, ValueRef};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Per-table layout configuration: the component depth at which to split
/// a table into subtables. Tables not listed stay flat.
#[derive(Clone, Debug, Default)]
pub struct StoreConfig {
    subtable_depths: Vec<(Key, usize)>,
}

impl StoreConfig {
    /// A configuration with every table flat.
    pub fn flat() -> StoreConfig {
        StoreConfig::default()
    }

    /// Marks the table owning `table_prefix` (e.g. `"t|"`) as split into
    /// subtables of `depth` components.
    pub fn with_subtable(mut self, table_prefix: impl Into<Key>, depth: usize) -> StoreConfig {
        self.subtable_depths.push((table_prefix.into(), depth));
        self
    }

    fn depth_for(&self, table_prefix: &[u8]) -> Option<usize> {
        self.subtable_depths
            .iter()
            .find(|(p, _)| p.as_bytes() == table_prefix)
            .map(|(_, d)| *d)
    }
}

/// Aggregate counters for the whole store.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Live key-value pairs.
    pub keys: usize,
    /// Total bytes of live keys.
    pub key_bytes: usize,
    /// Total bytes of live values counting every logical copy.
    pub logical_value_bytes: usize,
    /// Total bytes of live values counting shared buffers once
    /// (the §4.3 value-sharing optimization makes this smaller).
    pub resident_value_bytes: usize,
}

impl StoreStats {
    /// Resident footprint: keys plus de-duplicated values plus table
    /// bookkeeping (added by [`Store::memory_bytes`]).
    pub fn data_bytes(&self) -> usize {
        self.key_bytes + self.resident_value_bytes
    }

    /// Counts one pair put, over `old` if the key was held already.
    fn wrote(&mut self, key_len: usize, value_len: usize, old: Option<&Value>, shared: bool) {
        match old {
            Some(prev) => {
                self.logical_value_bytes = self.logical_value_bytes - prev.len() + value_len;
                // Whether the previous value was shared is not recorded;
                // a replacement is taken to be as shared as what it
                // replaces, so a shared one leaves the resident count be.
                if !shared {
                    self.resident_value_bytes =
                        self.resident_value_bytes.saturating_sub(prev.len()) + value_len;
                }
            }
            None => {
                self.keys += 1;
                self.key_bytes += key_len;
                self.logical_value_bytes += value_len;
                if !shared {
                    self.resident_value_bytes += value_len;
                }
            }
        }
    }

    /// Takes `pairs` removed pairs out of the counters.
    fn forget(&mut self, pairs: usize, key_bytes: usize, value_bytes: usize, shared: bool) {
        self.keys -= pairs;
        self.key_bytes -= key_bytes;
        self.logical_value_bytes -= value_bytes;
        if !shared {
            self.resident_value_bytes = self.resident_value_bytes.saturating_sub(value_bytes);
        }
    }
}

/// The table owning `prefix`, created flat or split as configured if
/// this is its first pair.
fn table_mut<'a>(
    tables: &'a mut BTreeMap<Key, Table>,
    config: &StoreConfig,
    prefix: Key,
) -> &'a mut Table {
    let depth = config.depth_for(prefix.as_bytes());
    tables.entry(prefix).or_insert_with(|| match depth {
        Some(d) => Table::new_split(d),
        None => Table::new_flat(),
    })
}

/// Where a walk of the table index for `range` starts: the last table
/// whose prefix is at or below `range.first`, since its span may extend
/// into the range.
fn first_table(tables: &BTreeMap<Key, Table>, range: &KeyRange) -> Bound<Key> {
    let below = (Bound::Unbounded, Bound::Included(&range.first));
    let start = tables.range::<Key, _>(below).next_back();
    Bound::Included(start.map_or(&range.first, |(prefix, _)| prefix).clone())
}

/// The ordered store.
pub struct Store {
    tables: BTreeMap<Key, Table>,
    config: StoreConfig,
    stats: StoreStats,
}

impl Store {
    /// Creates an empty store with the given layout configuration.
    pub fn new(config: StoreConfig) -> Store {
        Store {
            tables: BTreeMap::new(),
            config,
            stats: StoreStats::default(),
        }
    }

    /// Creates an empty store with every table flat.
    pub fn new_flat() -> Store {
        Store::new(StoreConfig::flat())
    }

    /// Store-wide counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Live pair count.
    pub fn len(&self) -> usize {
        self.stats.keys
    }

    /// True if no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.stats.keys == 0
    }

    /// Resident memory estimate: keys + de-duplicated values + subtable
    /// bookkeeping.
    pub fn memory_bytes(&self) -> usize {
        self.stats.data_bytes()
            + self
                .tables
                .values()
                .map(|t| t.bookkeeping_bytes())
                .sum::<usize>()
    }

    /// Iterates `(table prefix, table)` pairs in prefix order.
    pub fn tables(&self) -> impl Iterator<Item = (&Key, &Table)> {
        self.tables.iter()
    }

    /// Visits every live pair, table by table in key order.
    pub fn for_each(&self, mut f: impl FnMut(&Key, ValueRef<'_>)) {
        for t in self.tables.values() {
            t.for_each(&mut f);
        }
    }

    /// Exhaustive consistency check: each table's internal bookkeeping
    /// plus the store-wide O(1) counters recomputed from a full walk,
    /// used by the paranoid invariant checker
    /// (`Engine::check_invariants`). Returns one message per problem.
    ///
    /// `resident_value_bytes` is deliberately not recomputed: whether a
    /// value's buffer is shared is known only at insert time (the
    /// replace path in [`Store::put`] documents the approximation), so
    /// only the exact counters — `keys`, `key_bytes`,
    /// `logical_value_bytes` — are checked.
    pub fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let (mut keys, mut key_bytes, mut logical) = (0usize, 0usize, 0usize);
        for (prefix, t) in &self.tables {
            for m in t.audit() {
                problems.push(format!("table {prefix:?}: {m}"));
            }
            let (pairs, bytes, values) = t.totals();
            keys += pairs;
            key_bytes += bytes;
            logical += values;
            // Keys ascend (the table's audit checks that), so if the first
            // and the last belong to the table, every key between them does.
            for k in t.ends().into_iter().flat_map(|(first, last)| [first, last]) {
                if k.table_prefix_bytes() != prefix.as_bytes() {
                    problems.push(format!(
                        "key {k:?} filed under table {prefix:?} but belongs to {:?}",
                        k.table_prefix()
                    ));
                }
            }
        }
        if keys != self.stats.keys {
            problems.push(format!(
                "key counter says {} but a full walk finds {keys}",
                self.stats.keys
            ));
        }
        if key_bytes != self.stats.key_bytes {
            problems.push(format!(
                "key-byte counter says {} but a full walk sums {key_bytes}",
                self.stats.key_bytes
            ));
        }
        if logical != self.stats.logical_value_bytes {
            problems.push(format!(
                "logical-value-byte counter says {} but a full walk sums {logical}",
                self.stats.logical_value_bytes
            ));
        }
        problems
    }

    /// Test-only hook: skews the O(1) key counter by `delta` so tests
    /// can prove the paranoid checker notices a drifted counter. Not
    /// part of the public API.
    #[doc(hidden)]
    pub fn debug_skew_keys(&mut self, delta: isize) {
        self.stats.keys = self.stats.keys.saturating_add_signed(delta);
    }

    /// Test-only hook: files the block holding `key` under the wrong
    /// fence key, so tests can prove the paranoid checker notices.
    /// Not part of the public API.
    #[doc(hidden)]
    pub fn debug_misfile_fence(&mut self, key: &Key) {
        if let Some(table) = self.tables.get_mut(key.table_prefix_bytes()) {
            table.debug_misfile_fence(key);
        }
    }

    /// Inserts or replaces a pair. `shared` marks the value as a
    /// refcounted copy of a buffer stored elsewhere (the `copy` operator's
    /// value sharing, §4.3); shared bytes are excluded from the resident
    /// byte count. Returns the previous value.
    pub fn put(&mut self, key: Key, value: Value, shared: bool) -> Option<Value> {
        let (key_len, value_len) = (key.len(), value.len());
        // Tables are routed by a borrowed slice of the key; only a
        // table's first pair builds its prefix key.
        let old = match self.tables.get_mut(key.table_prefix_bytes()) {
            Some(table) => table.put(key, value),
            None => table_mut(&mut self.tables, &self.config, key.table_prefix()).put(key, value),
        };
        self.stats.wrote(key_len, value_len, old.as_ref(), shared);
        old
    }

    /// [`Store::put`] for every pair of `run`, with one table lookup and
    /// one subtable lookup per stretch of the run that stays in one, not
    /// one per pair: a join's freshly computed outputs, in key order, go
    /// in as one append after another. Returns the values the run
    /// replaced, each with its pair's position in the run.
    pub fn put_run(&mut self, run: Vec<(Key, Value)>, shared: bool) -> Vec<(usize, Value)> {
        let mut replaced = Vec::new();
        let mut at = 0;
        let mut run = run.into_iter();
        while let Some((first, _)) = run.as_slice().first() {
            let prefix = first.table_prefix();
            let in_table = |(k, _): &&(Key, Value)| k.table_prefix_bytes() == prefix.as_bytes();
            let stretch = run.as_slice().iter().take_while(in_table).count();
            let table = table_mut(&mut self.tables, &self.config, prefix);
            let stats = &mut self.stats;
            table.put_run(&mut run, stretch, |key_len, value_len, old| {
                stats.wrote(key_len, value_len, old.as_ref(), shared);
                replaced.extend(old.map(|old| (at, old)));
                at += 1;
            });
        }
        replaced
    }

    /// [`Store::put`] for every pair of `batch`, in its order, whatever
    /// that order is, leaving `batch` empty: one table lookup per stretch
    /// of the batch that stays in one table, and the counters written
    /// back once. An eager fan-out is such a batch: one pair at the end
    /// of each of many timelines' subtables, where [`Table::put`]
    /// appends.
    pub fn put_batch(&mut self, batch: &mut Vec<(Key, Value)>, shared: bool) {
        let mut stats = self.stats;
        let mut pairs = batch.drain(..);
        while let Some((first, _)) = pairs.as_slice().first() {
            let prefix = first.table_prefix();
            let in_table = |(k, _): &&(Key, Value)| k.table_prefix_bytes() == prefix.as_bytes();
            let stretch = pairs.as_slice().iter().take_while(in_table).count();
            let table = table_mut(&mut self.tables, &self.config, prefix);
            for (key, value) in pairs.by_ref().take(stretch) {
                let (key_len, value_len) = (key.len(), value.len());
                let old = table.put(key, value);
                stats.wrote(key_len, value_len, old.as_ref(), shared);
            }
        }
        self.stats = stats;
    }

    /// Looks up a key.
    pub fn get(&self, key: &Key) -> Option<ValueRef<'_>> {
        self.tables.get(key.table_prefix_bytes())?.get(key)
    }

    /// Removes a key, returning its value. `shared` is what
    /// [`Store::put`] was told when the pair was written: a shared
    /// value's bytes were never counted resident, so they are not
    /// subtracted either.
    pub fn remove(&mut self, key: &Key, shared: bool) -> Option<Value> {
        let removed = self.tables.get_mut(key.table_prefix_bytes())?.remove(key);
        if let Some(v) = &removed {
            self.stats.forget(1, key.len(), v.len(), shared);
        }
        removed
    }

    /// Removes every pair of `range` that `doomed` accepts — one ordered
    /// pass over the tables, subtables and blocks the range touches,
    /// `doomed` seeing each pair of the range once, the counters adjusted
    /// as pairs go — and returns how many went. This is teardown's
    /// primitive: an evicted join range drops its outputs through it
    /// (`doomed` is the join's output pattern), evicted base data its
    /// replicas (`doomed` is "not ours"). `shared` is as for
    /// [`Store::remove`] and covers the whole call.
    pub fn remove_range(
        &mut self,
        range: &KeyRange,
        shared: bool,
        mut doomed: impl FnMut(&Key, ValueRef<'_>) -> bool,
    ) -> usize {
        let (mut key_bytes, mut value_bytes) = (0, 0);
        let mut removed = 0;
        let walk = (first_table(&self.tables, range), Bound::Unbounded);
        for (prefix, table) in self.tables.range_mut(walk) {
            if !range.end.admits(prefix) {
                break;
            }
            removed += table.remove_range(range, |k, v| {
                let goes = doomed(k, v);
                if goes {
                    key_bytes += k.len();
                    value_bytes += v.len();
                }
                goes
            });
        }
        self.stats.forget(removed, key_bytes, value_bytes, shared);
        removed
    }

    /// Visits pairs in `range` in key order (across table boundaries)
    /// until the visitor returns `false`. It needs no `&mut`, so a
    /// join's forward execution reads its sources through this, nested
    /// one inside the other, straight out of the store.
    pub fn scan(&self, range: &KeyRange, mut f: impl FnMut(&Key, ValueRef<'_>) -> bool) {
        let mut stop = false;
        let walk = (first_table(&self.tables, range), Bound::Unbounded);
        for (prefix, table) in self.tables.range(walk) {
            if stop || !range.end.admits(prefix) {
                break;
            }
            table.scan(range, |k, v| {
                stop = !f(k, v);
                !stop
            });
        }
    }

    /// Convenience `put` for string literals in tests and examples.
    pub fn put_str(&mut self, key: &str, value: &str) {
        self.put(
            Key::from(key),
            Value::copy_from_slice(value.as_bytes()),
            false,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_in(s: &Store, range: &KeyRange) -> Vec<String> {
        let mut keys = Vec::new();
        s.scan(range, |k, _| {
            keys.push(k.to_string());
            true
        });
        keys
    }

    fn sample() -> Store {
        let mut s = Store::new(StoreConfig::flat().with_subtable("t|", 2));
        for (k, v) in [
            ("p|bob|100", "Hi"),
            ("p|bob|120", "again"),
            ("p|liz|124", "hello, world!"),
            ("s|ann|bob", ""),
            ("s|ann|liz", ""),
            ("t|ann|100|bob", "Hi"),
            ("t|ann|124|liz", "hello, world!"),
        ] {
            s.put_str(k, v);
        }
        s
    }

    #[test]
    fn cross_table_scan_is_globally_ordered() {
        let s = sample();
        let keys = keys_in(&s, &KeyRange::all());
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 7);
    }

    #[test]
    fn scan_spanning_two_tables() {
        let s = sample();
        let keys = keys_in(&s, &KeyRange::new("p|liz", "s|ann|c"));
        assert_eq!(keys, vec!["p|liz|124", "s|ann|bob"]);
    }

    #[test]
    fn stats_track_bytes() {
        let mut s = Store::new_flat();
        s.put(Key::from("a|1"), Value::from_static(b"xyz"), false);
        assert_eq!(s.stats().keys, 1);
        assert_eq!(s.stats().key_bytes, 3);
        assert_eq!(s.stats().logical_value_bytes, 3);
        assert_eq!(s.stats().resident_value_bytes, 3);
        // shared copy: logical grows, resident does not
        s.put(Key::from("b|1"), Value::from_static(b"xyz"), true);
        assert_eq!(s.stats().logical_value_bytes, 6);
        assert_eq!(s.stats().resident_value_bytes, 3);
        s.remove(&Key::from("a|1"), false);
        assert_eq!(s.stats().keys, 1);
        assert_eq!(s.stats().logical_value_bytes, 3);
    }

    /// A shared copy's bytes are never counted resident, so taking the
    /// copy away — by key or by range — or writing over it with another
    /// shared value must leave the original's bytes counted.
    #[test]
    fn removing_a_shared_copy_leaves_the_original_resident() {
        let tweet = Value::from(vec![b'x'; 50]);
        let mut s = Store::new_flat();
        s.put(Key::from("p|bob|1"), tweet.clone(), false);
        s.put(Key::from("t|ann|1|bob"), tweet.clone(), true);
        assert_eq!(s.stats().resident_value_bytes, 50);
        s.put(Key::from("t|ann|1|bob"), tweet.clone(), true);
        assert_eq!(s.stats().resident_value_bytes, 50);
        assert_eq!(
            s.remove(&Key::from("t|ann|1|bob"), true),
            Some(tweet.clone())
        );
        assert_eq!(s.stats().resident_value_bytes, 50);
        s.put(Key::from("t|ann|1|bob"), tweet.clone(), true);
        assert_eq!(
            s.remove_range(&KeyRange::prefix("t|"), true, |_, _| true),
            1
        );
        assert_eq!(s.stats().resident_value_bytes, 50);
        assert_eq!(s.stats().logical_value_bytes, 50);
        s.remove(&Key::from("p|bob|1"), false);
        assert_eq!(s.stats().resident_value_bytes, 0);
        assert_eq!(s.audit(), Vec::<String>::new());
    }

    /// A run goes in exactly as its pairs would one by one — across
    /// tables and subtables, new ones created on the way, out of order if
    /// it must — and reports what it replaced, by position.
    #[test]
    fn put_run_is_put_for_every_pair() {
        let pairs: Vec<(Key, Value)> = [
            ("t|ann|100|bob", "again"), // replaces sample()'s "Hi"
            ("t|ann|110|liz", "new"),
            ("t|bob|100|ann", "new subtable"),
            ("t|ann|105|bob", "out of order"),
            ("u|x", "new flat table"),
            ("p|bob|100", "replaced too"),
            ("u|x", "twice in one run"),
        ]
        .into_iter()
        .map(|(k, v)| (Key::from(k), Value::from_static(v.as_bytes())))
        .collect();
        let (mut one_by_one, mut as_run) = (sample(), sample());
        let mut want = Vec::new();
        for (at, (k, v)) in pairs.iter().enumerate() {
            want.extend(
                one_by_one
                    .put(k.clone(), v.clone(), false)
                    .map(|old| (at, old)),
            );
        }
        assert_eq!(as_run.put_run(pairs, false), want);
        assert_eq!(
            want.iter().map(|(at, _)| *at).collect::<Vec<_>>(),
            [0, 5, 6]
        );
        let all = KeyRange::all();
        assert_eq!(keys_in(&as_run, &all), keys_in(&one_by_one, &all));
        assert_eq!(as_run.memory_bytes(), one_by_one.memory_bytes());
        assert_eq!(as_run.audit(), Vec::<String>::new());
    }

    /// A batch, like a run, goes in exactly as its pairs would one by
    /// one, shared or not: here one pair at the end of each of several
    /// subtables, as an eager fan-out writes them, then pairs that
    /// replace, arrive out of order, or open a table.
    #[test]
    fn put_batch_is_put_for_every_pair() {
        let tweet = Value::from(vec![b'x'; 40]);
        let pairs: Vec<(Key, Value)> = [
            "t|ann|200|bob",
            "t|liz|200|bob",
            "t|zed|200|bob",
            "t|ann|100|bob",
            "t|ann|105|bob",
            "u|x",
            "p|bob|100",
            "t|ann|210|bob",
        ]
        .into_iter()
        .map(|k| (Key::from(k), tweet.clone()))
        .collect();
        for shared in [false, true] {
            let (mut one_by_one, mut as_batch) = (sample(), sample());
            for (k, v) in pairs.iter().cloned() {
                one_by_one.put(k, v, shared);
            }
            as_batch.put_batch(&mut pairs.clone(), shared);
            let all = KeyRange::all();
            assert_eq!(keys_in(&as_batch, &all), keys_in(&one_by_one, &all));
            let stats = |s: &Store| format!("{:?}", s.stats());
            assert_eq!(stats(&as_batch), stats(&one_by_one));
            assert_eq!(as_batch.memory_bytes(), one_by_one.memory_bytes());
            assert_eq!(as_batch.audit(), Vec::<String>::new());
        }
    }

    #[test]
    fn replace_updates_byte_accounting() {
        let mut s = Store::new_flat();
        s.put(Key::from("a|1"), Value::from_static(b"xx"), false);
        s.put(Key::from("a|1"), Value::from_static(b"yyyy"), false);
        assert_eq!(s.stats().keys, 1);
        assert_eq!(s.stats().logical_value_bytes, 4);
        assert_eq!(s.stats().resident_value_bytes, 4);
    }

    #[test]
    fn empty_scan_is_noop() {
        let s = sample();
        assert!(keys_in(&s, &KeyRange::new("z", "a")).is_empty());
        assert!(keys_in(&s, &KeyRange::new("x|", "y|")).is_empty());
    }

    /// The audit's full walk: the three counters against the pairs, and
    /// every table's first and last key against the table it is filed
    /// under, in a flat table and a split one.
    #[test]
    fn audit_reports_skewed_counters_and_misfiled_keys() {
        let mut s = sample();
        assert_eq!(s.audit(), Vec::<String>::new());
        s.debug_skew_keys(1);
        let v = s.audit();
        assert!(v.len() == 1 && v[0].starts_with("key counter"), "{v:?}");
        for (table, key) in [("p|", "q|bob|1"), ("t|", "u|ann|1|bob")] {
            let mut s = sample();
            if let Some(t) = s.tables.get_mut(table.as_bytes()) {
                t.put(Key::from(key), Value::from("x"));
            }
            s.stats.keys += 1;
            s.stats.key_bytes += key.len();
            s.stats.logical_value_bytes += 1;
            let v = s.audit();
            assert!(
                v.len() == 1 && v[0].contains(&format!("{:?} filed under table", Key::from(key))),
                "{v:?}"
            );
        }
    }
}
