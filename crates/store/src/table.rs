//! A single logical table: one contiguous region of the key space.
//!
//! Pequod's store layers trees (§4.1): the store splits keys into tables
//! by their first `|`-separated component, and tables can be further
//! subdivided into *subtables* along developer-marked component
//! boundaries (e.g. one subtable per Twip timeline, `t|ann|…`). A hash
//! index over subtable prefixes lets operations that fall entirely within
//! one subtable jump to it in `O(1)` instead of walking a large ordered
//! tree; scans that cross subtable boundaries still work, walking the
//! ordered subtable index. The paper reports this optimization speeds up
//! the Twip benchmark 1.55× at a 1.17× memory cost; `ablations` measures
//! the same trade-off.
//!
//! Under both layouts the pairs sit in the same container, [`Blocks`]: a
//! directory of fence keys over dense sorted blocks of at most 32 pairs,
//! each storing a pair in one of its equal slots — its key as the
//! remainder past the prefix the block's keys share, then its value's
//! length and, up to 14 bytes, the value itself — and each longer value
//! as an 8-byte pointer to its shared buffer in a column of its own.
//! An append is a compare with the last key and a push, anything else is
//! two binary searches and a memmove within one block, and a Twip
//! timeline pair costs ≈26 bytes: its slot and its pointer (≈33 while a
//! block held a 16-byte [`Value`] handle a pair, ≈49 while a value was a
//! 32-byte handle, ≈66 while a pair was two of them; ≈120 in a half-full
//! B-tree leaf). A read lends each value to its visitor as a
//! [`ValueRef`]. A subtable is one container — small, and written
//! almost only at its end (an eager `copy` update carries the newest
//! timestamp). A flat table is one too, however large and in whatever
//! order its keys arrive (`s|` rows, a 5–6-byte slot each, are
//! bulk-loaded in key order and then subscribed to at random):
//! past 128 blocks the directory grows a second level, so a block added
//! in the middle of a million rows moves one chunk of directory entries,
//! not all of them. `blocks.rs` describes the structure and shows the
//! measurements its two constants were chosen from, with a B-tree beside
//! them. Which tables are split is the developer's existing `--subtable`
//! marking; it decides how a key is routed to its container, never which
//! container that is.

use crate::blocks::Blocks;
use crate::key::Key;
use crate::range::KeyRange;
use crate::value::{Value, ValueRef};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeSet;
use std::ops::Bound;

enum Repr {
    /// One ordered container for the whole table.
    Flat(Blocks),
    /// Hash-indexed subtables split at a fixed component depth.
    Split {
        /// Number of key components (counting the table name) that form a
        /// subtable prefix.
        depth: usize,
        subs: HashMap<Key, Blocks>,
        /// Ordered subtable prefixes, for cross-subtable scans.
        order: BTreeSet<Key>,
    },
}

/// One logical table of ordered key-value pairs.
pub struct Table {
    len: usize,
    repr: Repr,
    /// Incrementally maintained subtable-index overhead, so memory
    /// accounting (queried after every operation on a memory-bounded
    /// engine) is O(1) instead of walking the prefix index.
    index_bytes: usize,
}

/// Estimated index overhead of one subtable prefix: the prefix key
/// stored twice (hash + ordered index) plus map-entry overhead.
fn index_entry_bytes(prefix: &[u8]) -> usize {
    2 * prefix.len() + 48
}

/// The prefix of the one subtable (of a table split at `depth`) that can
/// hold keys of `range`, if the range stays inside one. That needs the
/// start key's routing prefix to contain the full `depth` separators — a
/// shorter prefix (e.g. `t|` at depth 2) is an ancestor of many
/// subtables, not one of them — and the end key to route to it too, or
/// to equal the span's upper bound.
fn sole_subtable(depth: usize, range: &KeyRange) -> Option<&[u8]> {
    let prefix = range.first.component_prefix_bytes(depth);
    let full_depth = prefix.iter().filter(|&&b| b == crate::key::SEP).count() == depth;
    let end = range.end.as_key()?;
    let inside = end.component_prefix_bytes(depth) == prefix || end.is_prefix_end_of(prefix);
    (full_depth && inside).then_some(prefix)
}

/// The subtable prefixes, in order, whose subtables can hold keys of
/// `range`. A subtable whose prefix sorts below `range.first` can still
/// contain keys at or above it, so the walk starts one prefix early.
fn subtables_touching<'a>(
    order: &'a BTreeSet<Key>,
    range: &'a KeyRange,
) -> impl Iterator<Item = &'a Key> {
    let start = order
        .range::<Key, _>((Bound::Unbounded, Bound::Included(&range.first)))
        .next_back()
        .unwrap_or(&range.first);
    order
        .range::<Key, _>((Bound::Included(start), Bound::Unbounded))
        .take_while(|prefix| range.end.admits(prefix))
}

impl Table {
    /// Creates a flat (single-tree) table.
    pub fn new_flat() -> Table {
        Table {
            len: 0,
            repr: Repr::Flat(Blocks::new()),
            index_bytes: 0,
        }
    }

    /// Creates a table split into subtables at the given component depth.
    ///
    /// `depth` counts `|`-separated components including the table name;
    /// Twip timelines (`t|user|time|poster`) use depth 2 so each user's
    /// timeline is its own subtable.
    pub fn new_split(depth: usize) -> Table {
        assert!(depth >= 1, "subtable depth must be at least 1");
        Table {
            len: 0,
            repr: Repr::Split {
                depth,
                subs: HashMap::new(),
                order: BTreeSet::new(),
            },
            index_bytes: 0,
        }
    }

    /// Number of key-value pairs stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of subtables (1 for a flat table).
    pub fn subtable_count(&self) -> usize {
        match &self.repr {
            Repr::Flat(_) => 1,
            Repr::Split { order, .. } => order.len(),
        }
    }

    /// Approximate bookkeeping overhead in bytes beyond the stored
    /// pairs: subtable index entries (0 for a flat table). Maintained
    /// incrementally as subtables appear and empty out, so this is O(1).
    pub fn bookkeeping_bytes(&self) -> usize {
        self.index_bytes
    }

    /// Visits every pair in key order.
    pub fn for_each(&self, mut f: impl FnMut(&Key, ValueRef<'_>)) {
        match &self.repr {
            Repr::Flat(all) => all.for_each(f),
            Repr::Split { subs, order, .. } => {
                for prefix in order {
                    if let Some(sub) = subs.get(prefix) {
                        sub.for_each(&mut f);
                    }
                }
            }
        }
    }

    /// The first and the last key, if any: every key sorts between them.
    pub(crate) fn ends(&self) -> Option<(Key, Key)> {
        match &self.repr {
            Repr::Flat(all) => all.ends(),
            Repr::Split { subs, order, .. } => {
                let (first, _) = subs.get(order.first()?)?.ends()?;
                let (_, last) = subs.get(order.last()?)?.ends()?;
                Some((first, last))
            }
        }
    }

    /// Pairs, key bytes and value bytes summed over every block (see
    /// [`Blocks::totals`]).
    pub(crate) fn totals(&self) -> (usize, usize, usize) {
        let add = |(p, k, v): (usize, usize, usize), blocks: &Blocks| {
            let (bp, bk, bv) = blocks.totals();
            (p + bp, k + bk, v + bv)
        };
        match &self.repr {
            Repr::Flat(all) => add((0, 0, 0), all),
            Repr::Split { subs, .. } => subs.values().fold((0, 0, 0), add),
        }
    }

    /// Exhaustive consistency check of the table's O(1) bookkeeping
    /// (pair count, subtable index, index-byte counter) and of the block
    /// structure of the flat table or of every subtable (no empty or
    /// overfull block or chunk, ascending keys, both levels' fence keys)
    /// against a full walk, used by the paranoid invariant checker
    /// (`Engine::check_invariants`). Returns one message per problem.
    pub fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let walked: usize = match &self.repr {
            Repr::Flat(all) => all.len(),
            Repr::Split { subs, .. } => subs.values().map(Blocks::len).sum(),
        };
        if walked != self.len {
            problems.push(format!(
                "pair counter says {} but a full walk finds {walked}",
                self.len
            ));
        }
        match &self.repr {
            Repr::Flat(all) => {
                if self.index_bytes != 0 {
                    problems.push(format!(
                        "flat table carries {} index bytes; expected 0",
                        self.index_bytes
                    ));
                }
                problems.extend(all.audit());
            }
            Repr::Split { depth, subs, order } => {
                if subs.len() != order.len() {
                    problems.push(format!(
                        "subtable hash holds {} prefixes but the order index holds {}",
                        subs.len(),
                        order.len()
                    ));
                }
                for prefix in order {
                    if !subs.contains_key(prefix) {
                        problems.push(format!("ordered prefix {prefix:?} has no subtable"));
                    }
                }
                for (prefix, sub) in subs {
                    if !order.contains(prefix) {
                        problems.push(format!("subtable {prefix:?} missing from the order index"));
                    }
                    if sub.is_empty() {
                        problems.push(format!("empty subtable {prefix:?} was not dropped"));
                    }
                    for m in sub.audit() {
                        problems.push(format!("subtable {prefix:?}: {m}"));
                    }
                    // Every key sorts between these two, so if both start
                    // with the prefix every key does (and routes by it).
                    for k in sub
                        .ends()
                        .into_iter()
                        .flat_map(|(first, last)| [first, last])
                    {
                        if k.component_prefix_bytes(*depth) != prefix.as_bytes() {
                            problems.push(format!(
                                "key {k:?} filed under subtable {prefix:?} but routes to {:?}",
                                k.component_prefix(*depth)
                            ));
                        }
                    }
                }
                let want: usize = order.iter().map(|p| index_entry_bytes(p.as_bytes())).sum();
                if want != self.index_bytes {
                    problems.push(format!(
                        "index-byte counter says {} but the subtable index costs {want}",
                        self.index_bytes
                    ));
                }
            }
        }
        problems
    }

    /// Inserts or replaces a pair, returning the previous value.
    pub fn put(&mut self, key: Key, value: Value) -> Option<Value> {
        let old = match &mut self.repr {
            Repr::Flat(all) => all.put(key, value),
            Repr::Split { depth, subs, order } => {
                // Subtables are routed by a borrowed slice of the key;
                // only a subtable's first pair builds its prefix key.
                match subs.get_mut(key.component_prefix_bytes(*depth)) {
                    Some(sub) => sub.put(key, value),
                    None => {
                        let prefix = key.component_prefix(*depth);
                        self.index_bytes += index_entry_bytes(prefix.as_bytes());
                        order.insert(prefix.clone());
                        let mut sub = Blocks::new();
                        sub.put(key, value);
                        subs.insert(prefix, sub);
                        None
                    }
                }
            }
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// [`Table::put`] for the next `n` pairs of `run`, telling `wrote`
    /// each pair's key length, value length and previous value. A split
    /// table looks a subtable up once per stretch of the run that routes
    /// to it, not once per pair, and tells the subtable how long the
    /// stretch is, so a run in key order (a join's freshly computed
    /// outputs) lands in its subtable in blocks allocated once at the
    /// size the stretch calls for: the part past the subtable's end laid
    /// out whole blocks at a time, the rest put pair by pair.
    pub fn put_run(
        &mut self,
        run: &mut std::vec::IntoIter<(Key, Value)>,
        n: usize,
        mut wrote: impl FnMut(usize, usize, Option<Value>),
    ) {
        let Repr::Split { depth, subs, order } = &mut self.repr else {
            return run.by_ref().take(n).for_each(|(k, v)| {
                let (key_len, value_len) = (k.len(), v.len());
                wrote(key_len, value_len, self.put(k, v));
            });
        };
        let mut left = n;
        while let Some((first, _)) = run.as_slice()[..left].first() {
            let prefix = first.component_prefix(*depth);
            let routed_here =
                |(k, _): &&(Key, Value)| k.component_prefix_bytes(*depth) == prefix.as_bytes();
            let stretch = run.as_slice()[..left]
                .iter()
                .take_while(routed_here)
                .count();
            let sub = match subs.entry(prefix.clone()) {
                Entry::Occupied(known) => known.into_mut(),
                Entry::Vacant(unknown) => {
                    self.index_bytes += index_entry_bytes(prefix.as_bytes());
                    order.insert(prefix);
                    unknown.insert(Blocks::new())
                }
            };
            let mut to_come = stretch;
            while to_come > 0 {
                let built = sub.append_run(run, to_come, &mut |key_len, value_len| {
                    wrote(key_len, value_len, None)
                });
                self.len += built;
                to_come -= built;
                if built == 0 {
                    let Some((k, v)) = run.next() else { break };
                    let (key_len, value_len) = (k.len(), v.len());
                    let old = sub.put_in_run(k, v, to_come);
                    self.len += usize::from(old.is_none());
                    wrote(key_len, value_len, old);
                    to_come -= 1;
                }
            }
            left -= stretch;
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &Key) -> Option<ValueRef<'_>> {
        match &self.repr {
            Repr::Flat(all) => all.get(key),
            Repr::Split { depth, subs, .. } => {
                subs.get(key.component_prefix_bytes(*depth))?.get(key)
            }
        }
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &Key) -> Option<Value> {
        let removed = match &mut self.repr {
            Repr::Flat(all) => all.remove(key),
            Repr::Split { depth, subs, order } => {
                let prefix = key.component_prefix_bytes(*depth);
                let sub = subs.get_mut(prefix)?;
                let removed = sub.remove(key);
                if removed.is_some() && sub.is_empty() {
                    self.index_bytes -= index_entry_bytes(prefix);
                    subs.remove(prefix);
                    order.remove(prefix);
                }
                removed
            }
        };
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Visits pairs in `range` in key order until the visitor returns
    /// `false`: from the one subtable the range stays inside, found
    /// through the hash index, or by walking the ordered subtable index.
    pub fn scan(&self, range: &KeyRange, mut f: impl FnMut(&Key, ValueRef<'_>) -> bool) {
        if range.is_empty() {
            return;
        }
        match &self.repr {
            Repr::Flat(all) => {
                all.scan(range, &mut f);
            }
            Repr::Split { depth, subs, order } => {
                if let Some(prefix) = sole_subtable(*depth, range) {
                    if let Some(sub) = subs.get(prefix) {
                        sub.scan(range, &mut f);
                    }
                    return;
                }
                for prefix in subtables_touching(order, range) {
                    if subs.get(prefix).is_some_and(|sub| !sub.scan(range, &mut f)) {
                        break;
                    }
                }
            }
        }
    }

    /// Removes every pair of `range` that `doomed` accepts and returns
    /// how many went: one ordered pass, `doomed` seeing each pair of the
    /// range once. Subtables it empties leave the table.
    pub fn remove_range(
        &mut self,
        range: &KeyRange,
        mut doomed: impl FnMut(&Key, ValueRef<'_>) -> bool,
    ) -> usize {
        if range.is_empty() {
            return 0;
        }
        let removed = match &mut self.repr {
            Repr::Flat(all) => all.remove_range(range, &mut doomed),
            Repr::Split { depth, subs, order } => {
                let mut removed = 0;
                let mut emptied: Vec<Key> = Vec::new();
                let mut drain = |prefix: &[u8], sub: &mut Blocks| {
                    removed += sub.remove_range(range, &mut doomed);
                    if sub.is_empty() {
                        emptied.push(Key::from(prefix));
                    }
                };
                match sole_subtable(*depth, range) {
                    Some(prefix) => {
                        if let Some(sub) = subs.get_mut(prefix) {
                            drain(prefix, sub);
                        }
                    }
                    None => {
                        for prefix in subtables_touching(order, range) {
                            if let Some(sub) = subs.get_mut(prefix) {
                                drain(prefix.as_bytes(), sub);
                            }
                        }
                    }
                }
                for prefix in emptied {
                    self.index_bytes -= index_entry_bytes(prefix.as_bytes());
                    subs.remove(&prefix);
                    order.remove(&prefix);
                }
                removed
            }
        };
        self.len -= removed;
        removed
    }

    /// Test-only hook: files the block holding `key` under the wrong
    /// fence key, so tests can prove the auditor notices. Not part of
    /// the public API.
    #[doc(hidden)]
    pub fn debug_misfile_fence(&mut self, key: &Key) {
        let holder = match &mut self.repr {
            Repr::Flat(all) => Some(all),
            Repr::Split { depth, subs, .. } => subs.get_mut(key.component_prefix_bytes(*depth)),
        };
        if let Some(blocks) = holder {
            blocks.debug_misfile_fence(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(t: &Table, range: &KeyRange) -> Vec<String> {
        let mut out = Vec::new();
        t.scan(range, |k, _| {
            out.push(k.to_string());
            true
        });
        out
    }

    fn fill(t: &mut Table) {
        for k in [
            "t|ann|100|bob",
            "t|ann|120|liz",
            "t|ann|150|bob",
            "t|bob|110|ann",
            "t|bob|130|liz",
            "t|liz",
            "t|zed|999|ann",
        ] {
            t.put(Key::from(k), Value::from_static(b"v"));
        }
    }

    #[test]
    fn flat_basic_ops() {
        let mut t = Table::new_flat();
        assert!(t.put(Key::from("a|1"), Value::from_static(b"x")).is_none());
        assert_eq!(
            t.put(Key::from("a|1"), Value::from_static(b"y")).as_deref(),
            Some(&b"x"[..])
        );
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get(&Key::from("a|1")).map(|v| v.as_bytes()),
            Some(&b"y"[..])
        );
        assert_eq!(t.remove(&Key::from("a|1")).as_deref(), Some(&b"y"[..]));
        assert!(t.is_empty());
    }

    #[test]
    fn split_routes_to_subtables() {
        let mut t = Table::new_split(2);
        fill(&mut t);
        assert_eq!(t.len(), 7);
        // t|ann, t|bob, t|liz, t|zed => 4 subtables
        assert_eq!(t.subtable_count(), 4);
        assert_eq!(
            t.get(&Key::from("t|bob|110|ann")).map(|v| v.as_bytes()),
            Some(&b"v"[..])
        );
        assert!(t.get(&Key::from("t|bob|999")).is_none());
    }

    #[test]
    fn split_and_flat_scans_agree() {
        let mut flat = Table::new_flat();
        let mut split = Table::new_split(2);
        fill(&mut flat);
        fill(&mut split);
        let ranges = [
            KeyRange::prefix("t|ann|"),
            KeyRange::prefix("t|"),
            KeyRange::new("t|ann|110", "t|bob|120"),
            KeyRange::new("t|a", "t|z"),
            KeyRange::all(),
            KeyRange::new("t|liz", "t|liz\x00"),
            KeyRange::new("t|ann|150|bob", "t|zed|999|ann\x00"),
        ];
        for range in &ranges {
            assert_eq!(pairs(&flat, range), pairs(&split, range), "{range:?}");
        }
    }

    #[test]
    fn scans_inside_and_across_subtables() {
        let mut t = Table::new_split(2);
        fill(&mut t);
        assert_eq!(
            pairs(&t, &KeyRange::prefix("t|ann|")),
            ["t|ann|100|bob", "t|ann|120|liz", "t|ann|150|bob"]
        );
        assert_eq!(
            pairs(&t, &KeyRange::new("t|ann|100", "t|ann|150")),
            ["t|ann|100|bob", "t|ann|120|liz"]
        );
        assert_eq!(
            pairs(&t, &KeyRange::new("t|ann|100", "t|bob|000")),
            ["t|ann|100|bob", "t|ann|120|liz", "t|ann|150|bob"]
        );
    }

    #[test]
    fn scan_early_exit() {
        let mut t = Table::new_flat();
        fill(&mut t);
        let mut seen = 0;
        t.scan(&KeyRange::all(), |_, _| {
            seen += 1;
            seen < 3
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn short_keys_route_to_own_subtable() {
        let mut t = Table::new_split(2);
        t.put(Key::from("t|liz"), Value::from_static(b"v"));
        t.put(Key::from("t|liz|1"), Value::from_static(b"w"));
        // "t|liz" (2 components) and "t|liz|" are distinct subtables but
        // scans must interleave them correctly.
        assert_eq!(
            pairs(&t, &KeyRange::new("t|liz", "t|m")),
            vec!["t|liz".to_string(), "t|liz|1".to_string()]
        );
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn bookkeeping_grows_with_subtables() {
        let mut flat = Table::new_flat();
        let mut split = Table::new_split(2);
        fill(&mut flat);
        fill(&mut split);
        assert_eq!(flat.bookkeeping_bytes(), 0);
        assert!(split.bookkeeping_bytes() > 0);
    }
}
