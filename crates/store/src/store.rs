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
use crate::table::{Table, TableStats, Value};
use bytes::Bytes;
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
    /// Completed operations.
    pub puts: u64,
    /// Completed gets.
    pub gets: u64,
    /// Completed removes.
    pub removes: u64,
    /// Completed scans.
    pub scans: u64,
}

impl StoreStats {
    /// Resident footprint: keys plus de-duplicated values plus table
    /// bookkeeping (added by [`Store::memory_bytes`]).
    pub fn data_bytes(&self) -> usize {
        self.key_bytes + self.resident_value_bytes
    }
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

    /// Sums the per-table operation counters.
    pub fn table_stats(&self) -> TableStats {
        let mut total = TableStats::default();
        for t in self.tables.values() {
            let s = t.stats();
            total.hash_hits += s.hash_hits;
            total.single_subtable_scans += s.single_subtable_scans;
            total.cross_subtable_scans += s.cross_subtable_scans;
        }
        total
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

    /// Visits every live pair, table by table in key order, without
    /// touching the operation counters.
    pub fn for_each(&self, mut f: impl FnMut(&Key, &Value)) {
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
            t.for_each(|k, v| {
                keys += 1;
                key_bytes += k.len();
                logical += v.len();
                if k.table_prefix_bytes() != prefix.as_bytes() {
                    problems.push(format!(
                        "key {k:?} filed under table {prefix:?} but belongs to {:?}",
                        k.table_prefix()
                    ));
                }
            });
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

    /// Test-only hook: files the subtable block holding `key` under the
    /// wrong fence key, so tests can prove the paranoid checker notices.
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
        self.stats.puts += 1;
        let key_len = key.len();
        let value_len = value.len();
        // Tables are routed by a borrowed slice of the key; only a
        // table's first pair builds its prefix key.
        let old = match self.tables.get_mut(key.table_prefix_bytes()) {
            Some(table) => table.put(key, value),
            None => {
                let prefix = key.table_prefix();
                let mut table = match self.config.depth_for(prefix.as_bytes()) {
                    Some(d) => Table::new_split(d),
                    None => Table::new_flat(),
                };
                table.put(key, value);
                self.tables.insert(prefix, table);
                None
            }
        };
        match &old {
            Some(prev) => {
                self.stats.logical_value_bytes =
                    self.stats.logical_value_bytes - prev.len() + value_len;
                // We cannot tell whether the previous value was shared;
                // assume replacement preserves sharedness of the new value.
                self.stats.resident_value_bytes =
                    self.stats.resident_value_bytes.saturating_sub(prev.len());
                if !shared {
                    self.stats.resident_value_bytes += value_len;
                }
            }
            None => {
                self.stats.keys += 1;
                self.stats.key_bytes += key_len;
                self.stats.logical_value_bytes += value_len;
                if !shared {
                    self.stats.resident_value_bytes += value_len;
                }
            }
        }
        old
    }

    /// Looks up a key.
    pub fn get(&mut self, key: &Key) -> Option<&Value> {
        self.stats.gets += 1;
        self.tables.get_mut(key.table_prefix_bytes())?.get(key)
    }

    /// Looks up a key without touching statistics.
    pub fn peek(&self, key: &Key) -> Option<&Value> {
        self.tables.get(key.table_prefix_bytes())?.peek(key)
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &Key) -> Option<Value> {
        self.stats.removes += 1;
        let removed = self.tables.get_mut(key.table_prefix_bytes())?.remove(key);
        if let Some(v) = &removed {
            self.stats.keys -= 1;
            self.stats.key_bytes -= key.len();
            self.stats.logical_value_bytes -= v.len();
            self.stats.resident_value_bytes =
                self.stats.resident_value_bytes.saturating_sub(v.len());
        }
        removed
    }

    /// Visits pairs in `range` in key order (across table boundaries)
    /// until the visitor returns `false`.
    pub fn scan(&mut self, range: &KeyRange, mut f: impl FnMut(&Key, &Value) -> bool) {
        if range.is_empty() {
            return;
        }
        self.stats.scans += 1;
        // Start from the last table whose prefix is <= range.first; its
        // span may extend into the scanned range.
        let start = self
            .tables
            .range::<Key, _>((Bound::Unbounded, Bound::Included(&range.first)))
            .next_back()
            .map(|(p, _)| p.clone())
            .unwrap_or_else(|| range.first.clone());
        // Walk the table index lazily, stopping at the first table past
        // the range's end.
        let mut stop = false;
        for (prefix, table) in self
            .tables
            .range_mut::<Key, _>((Bound::Included(&start), Bound::Unbounded))
        {
            if stop || (!range.end.admits(prefix) && *prefix > range.first) {
                break;
            }
            table.scan(range, |k, v| {
                stop = !f(k, v);
                !stop
            });
        }
    }

    /// Collects all pairs in `range`.
    pub fn scan_collect(&mut self, range: &KeyRange) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        self.scan(range, |k, v| {
            out.push((k.clone(), v.clone()));
            true
        });
        out
    }

    /// Convenience `put` for string literals in tests and examples.
    pub fn put_str(&mut self, key: &str, value: &str) {
        self.put(
            Key::from(key),
            Bytes::copy_from_slice(value.as_bytes()),
            false,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut s = sample();
        let keys: Vec<String> = s
            .scan_collect(&KeyRange::all())
            .into_iter()
            .map(|(k, _)| k.to_string())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 7);
    }

    #[test]
    fn scan_spanning_two_tables() {
        let mut s = sample();
        let keys: Vec<String> = s
            .scan_collect(&KeyRange::new("p|liz", "s|ann|c"))
            .into_iter()
            .map(|(k, _)| k.to_string())
            .collect();
        assert_eq!(keys, vec!["p|liz|124", "s|ann|bob"]);
    }

    #[test]
    fn stats_track_bytes() {
        let mut s = Store::new_flat();
        s.put(Key::from("a|1"), Bytes::from_static(b"xyz"), false);
        assert_eq!(s.stats().keys, 1);
        assert_eq!(s.stats().key_bytes, 3);
        assert_eq!(s.stats().logical_value_bytes, 3);
        assert_eq!(s.stats().resident_value_bytes, 3);
        // shared copy: logical grows, resident does not
        s.put(Key::from("b|1"), Bytes::from_static(b"xyz"), true);
        assert_eq!(s.stats().logical_value_bytes, 6);
        assert_eq!(s.stats().resident_value_bytes, 3);
        s.remove(&Key::from("a|1"));
        assert_eq!(s.stats().keys, 1);
        assert_eq!(s.stats().logical_value_bytes, 3);
    }

    #[test]
    fn replace_updates_byte_accounting() {
        let mut s = Store::new_flat();
        s.put(Key::from("a|1"), Bytes::from_static(b"xx"), false);
        s.put(Key::from("a|1"), Bytes::from_static(b"yyyy"), false);
        assert_eq!(s.stats().keys, 1);
        assert_eq!(s.stats().logical_value_bytes, 4);
        assert_eq!(s.stats().resident_value_bytes, 4);
    }

    #[test]
    fn empty_scan_is_noop() {
        let mut s = sample();
        assert!(s.scan_collect(&KeyRange::new("z", "a")).is_empty());
        assert!(s.scan_collect(&KeyRange::new("x|", "y|")).is_empty());
    }
}
