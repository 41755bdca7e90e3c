//! Updaters: the incremental-maintenance hooks attached to source ranges
//! (§3.2).
//!
//! "An updater links a range of source keys with a context—a cache join,
//! a slot set, and a join status range." Updaters live in an interval
//! tree so a store write can find every applicable updater with one
//! stabbing query. Overlapping updaters are coalesced: entries installed
//! for exactly the same source range share one tree node ("if a new
//! updater is installed for the same source range as an existing
//! updater ... Pequod reduces memory usage and the size of the updater
//! tree by appending information about the new updater to the existing
//! one").

use crate::types::JsId;
use pequod_join::Bindings;
use pequod_store::{IntervalId, IntervalTree, Key, KeyRange};
use std::collections::hash_map::{Entry, HashMap};

/// An output hint (§4.2): the last aggregate output maintained through
/// one updater, letting the next maintenance event skip the store
/// lookup of the current aggregate value. Hints live beside the entries
/// ([`UpdaterIndex::set_hint`]), not in them: only `count` and `sum`
/// sources ever have one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputHint {
    /// The output key last written.
    pub out_key: Key,
    /// Its current numeric value (count/sum).
    pub num: i64,
}

/// One maintenance registration: join + source + context slot bindings +
/// target join status range. An entry owns no allocation unless its
/// bindings outgrow their handle (see [`Bindings`]), so a follower
/// chained onto a poster's source range costs one slab cell.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdaterEntry {
    /// Index of the join being maintained ([`JoinId`](crate::JoinId)'s
    /// number; `Engine::add_join` keeps it within sixteen bits).
    pub join: u16,
    /// Which source of that join this updater watches.
    pub source_idx: u16,
    /// Slot bindings captured when the updater was installed.
    pub slots: Bindings,
    /// The join status range kept up to date.
    pub js: JsId,
}

/// An exact reference to one installed [`UpdaterEntry`]: a slot of the
/// index's entry slab plus the generation the slot had when the entry
/// was installed. The owning join status range keeps the handles of its
/// own entries (`JsRange::updaters`), so tearing the range down removes
/// exactly those entries in O(1) each, however many other ranges watch
/// the same source range. A handle whose entry was removed is *stale*:
/// every lookup through it returns `None`, even after the slot has been
/// reused for another entry, because reuse bumps the generation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct UpdaterHandle {
    slot: u32,
    gen: u32,
}

/// End-of-chain marker for slab indices (never a cell: `slots.get(NIL)`
/// is `None`).
const NIL: u32 = u32::MAX;

/// One cell of the entry slab. Live cells of one node form a
/// doubly-linked chain, newest first: installing touches the chain's
/// head and nothing else of it.
struct Slot {
    /// Bumped on every removal, so stale handles never resolve.
    gen: u32,
    prev: u32,
    next: u32,
    /// The tree node (distinct source range) this entry sits on.
    node: IntervalId,
    /// `None` while the cell is on the free list.
    entry: Option<UpdaterEntry>,
}

/// The entries coalesced onto one distinct source range: the tree
/// node's payload. `head` is the newest.
struct Chain {
    head: u32,
    len: u32,
}

/// The live-node counter of `table`, if the table was ever watched.
fn watchers<'a>(per_table: &'a mut [(Key, usize)], table: &[u8]) -> Option<&'a mut usize> {
    let counted = per_table.iter_mut().find(|(t, _)| t.as_bytes() == table);
    counted.map(|(_, n)| n)
}

/// The engine-wide updater index.
///
/// The interval tree holds one node per distinct source range; the
/// entries live in one engine-wide slab and are chained per node, so a
/// node costs the same whether it carries one entry or thousands, and
/// installing onto or removing from a known node never walks the tree
/// or the node's other entries. A source range nobody watches yet costs
/// one hash of the range (the coalescing map) and a treap descent to
/// install, and the same to remove: the tree's nodes are slab cells
/// named by their ids, so nothing else is looked up or allocated.
#[derive(Default)]
pub struct UpdaterIndex {
    tree: IntervalTree<Chain>,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    by_range: HashMap<KeyRange, IntervalId>,
    entries: usize,
    /// Output hints of the entries that have one, dropped with them.
    hints: HashMap<UpdaterHandle, OutputHint>,
    /// Live node count per table prefix: lets the write path skip the
    /// stabbing query entirely for tables that no join watches (output
    /// tables see the most writes and almost never carry updaters). A
    /// handful of tables at most, so a list, not a map.
    per_table: Vec<(Key, usize)>,
}

impl UpdaterIndex {
    /// Creates an empty index.
    pub fn new() -> UpdaterIndex {
        UpdaterIndex::default()
    }

    /// Number of tree nodes (distinct source ranges).
    pub fn node_count(&self) -> usize {
        self.tree.len()
    }

    /// Number of updater entries across all nodes.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Installs an updater for `range`, coalescing with an existing node
    /// covering exactly the same range, and returns its handle.
    ///
    /// `siblings` are the handles the owning status range already holds
    /// (none for a freshly created range). A registration identical to
    /// one of them (same node, join, source, status range and slots) is
    /// dropped and `None` returned; entries of other ranges are never
    /// examined.
    pub fn install(
        &mut self,
        range: KeyRange,
        entry: UpdaterEntry,
        siblings: &[UpdaterHandle],
    ) -> Option<UpdaterHandle> {
        let node = match self.by_range.entry(range) {
            Entry::Occupied(known) => {
                let node = *known.get();
                let on_node = |h: &UpdaterHandle| {
                    let cell = self.slots.get(h.slot as usize);
                    cell.filter(|s| s.gen == h.gen && s.node == node)
                };
                if siblings
                    .iter()
                    .filter_map(on_node)
                    .any(|s| s.entry.as_ref() == Some(&entry))
                {
                    return None;
                }
                node
            }
            Entry::Vacant(unknown) => {
                let range = unknown.key();
                let table = range.first.table_prefix_bytes();
                match watchers(&mut self.per_table, table) {
                    Some(n) => *n += 1,
                    None => self.per_table.push((range.first.table_prefix(), 1)),
                }
                let node = self.tree.insert(range.clone(), Chain { head: NIL, len: 0 });
                *unknown.insert(node)
            }
        };
        // Push onto the front of the node's chain (the coalescing map
        // names live nodes only).
        let chain = self.tree.get_mut(node)?;
        let slot = self.free_slots.pop().unwrap_or(self.slots.len() as u32);
        let next = std::mem::replace(&mut chain.head, slot);
        chain.len += 1;
        let cell = Slot {
            gen: self.slots.get(slot as usize).map_or(0, |s| s.gen),
            prev: NIL,
            next,
            node,
            entry: Some(entry),
        };
        let gen = cell.gen;
        match self.slots.get_mut(slot as usize) {
            Some(s) => *s = cell,
            None => self.slots.push(cell),
        }
        if let Some(older) = self.slots.get_mut(next as usize) {
            older.prev = slot;
        }
        self.entries += 1;
        Some(UpdaterHandle { slot, gen })
    }

    /// True if no updater watches any range of `key`'s table. Ranges are
    /// indexed by their start key's table; Pequod source ranges never
    /// span tables (they come from single-table patterns).
    pub fn table_is_quiet(&self, key: &Key) -> bool {
        let table = key.table_prefix_bytes();
        let watched = |(t, n): &(Key, usize)| *n > 0 && t.as_bytes() == table;
        !self.per_table.iter().any(watched)
    }

    fn slot(&self, h: UpdaterHandle) -> Option<&Slot> {
        self.slots.get(h.slot as usize).filter(|s| s.gen == h.gen)
    }

    /// The entry behind a handle; `None` if the handle is stale.
    pub fn get(&self, h: UpdaterHandle) -> Option<&UpdaterEntry> {
        self.slot(h)?.entry.as_ref()
    }

    /// The output hint kept for the entry behind `h`, if any.
    pub fn hint(&self, h: UpdaterHandle) -> Option<&OutputHint> {
        self.hints.get(&h)
    }

    /// Keeps (or with `None` drops) the output hint of the entry behind
    /// `h`; a stale handle keeps nothing.
    pub fn set_hint(&mut self, h: UpdaterHandle, hint: Option<OutputHint>) {
        match hint {
            Some(hint) if self.get(h).is_some() => self.hints.insert(h, hint),
            _ => self.hints.remove(&h),
        };
    }

    /// Appends the handles of every entry chained on `node`, in
    /// installation order.
    fn push_chain(&self, chain: &Chain, out: &mut Vec<UpdaterHandle>) {
        let from = out.len();
        out.reserve(chain.len as usize);
        let mut cur = chain.head;
        while let Some(s) = self.slots.get(cur as usize) {
            out.push(UpdaterHandle {
                slot: cur,
                gen: s.gen,
            });
            cur = s.next;
        }
        out[from..].reverse();
    }

    /// Handles of every entry whose source range contains `key`.
    pub fn stab(&self, key: &Key) -> Vec<UpdaterHandle> {
        let mut out = Vec::new();
        self.tree
            .stab(key, |_, _, chain| self.push_chain(chain, &mut out));
        out
    }

    /// Handles of every entry whose source range overlaps `range`.
    pub fn overlapping(&self, range: &KeyRange) -> Vec<UpdaterHandle> {
        let mut out = Vec::new();
        self.tree
            .overlapping(range, |_, _, chain| self.push_chain(chain, &mut out));
        out
    }

    /// Removes the entry behind `h` in O(1), dropping its node when the
    /// chain empties. Returns the entry; `None` if the handle is stale.
    pub fn remove(&mut self, h: UpdaterHandle) -> Option<UpdaterEntry> {
        let s = self
            .slots
            .get_mut(h.slot as usize)
            .filter(|s| s.gen == h.gen)?;
        let entry = s.entry.take()?;
        s.gen = s.gen.wrapping_add(1);
        let (prev, next, node) = (s.prev, s.next, s.node);
        if let Some(older) = self.slots.get_mut(next as usize) {
            older.prev = prev;
        }
        self.free_slots.push(h.slot);
        self.entries -= 1;
        if !self.hints.is_empty() {
            self.hints.remove(&h);
        }
        // A live entry sits on a live node.
        let chain = self.tree.get_mut(node)?;
        chain.len -= 1;
        match self.slots.get_mut(prev as usize) {
            Some(newer) => newer.next = next,
            None => chain.head = next,
        }
        if chain.len == 0 {
            if let Some((range, _)) = self.tree.remove(node) {
                self.by_range.remove(&range);
                if let Some(n) = watchers(&mut self.per_table, range.first.table_prefix_bytes()) {
                    *n -= 1;
                }
            }
        }
        Some(entry)
    }

    /// Removes every entry in `handles` (a status range's own list, when
    /// the range is torn down or invalidated). Returns the number
    /// removed; stale handles are skipped.
    pub fn remove_all(&mut self, handles: &[UpdaterHandle]) -> usize {
        handles
            .iter()
            .filter(|&&h| self.remove(h).is_some())
            .count()
    }

    /// Removes the entries of `handles` that match `pred` and drops
    /// their handles (and any stale ones) from the list, which stays an
    /// exact record of the owner's live entries. Returns the number of
    /// entries removed.
    pub fn remove_where(
        &mut self,
        handles: &mut Vec<UpdaterHandle>,
        mut pred: impl FnMut(&UpdaterEntry) -> bool,
    ) -> usize {
        let mut removed = 0;
        handles.retain(|&h| match self.get(h) {
            Some(e) if pred(e) => {
                removed += usize::from(self.remove(h).is_some());
                false
            }
            Some(_) => true,
            None => false,
        });
        removed
    }

    /// Visits every `(handle, source range, entry)` triple for
    /// bookkeeping or debugging.
    pub fn for_each(&self, mut f: impl FnMut(UpdaterHandle, &KeyRange, &UpdaterEntry)) {
        let mut chain = Vec::new();
        self.tree.for_each(|_, range, on_node| {
            chain.clear();
            self.push_chain(on_node, &mut chain);
            for &h in &chain {
                if let Some(e) = self.get(h) {
                    f(h, range, e);
                }
            }
        });
    }

    /// Approximate bookkeeping bytes (for memory accounting).
    pub fn approx_bytes(&self) -> usize {
        // tree node + range keys + per-entry context
        self.node_count() * 96 + self.entry_count() * 64
    }

    /// Test-only hook: skews the recorded chain length of the node
    /// holding `h` so tests can prove the audit notices a length that
    /// disagrees with its links. Not part of the public API.
    #[doc(hidden)]
    pub fn debug_skew_node_len(&mut self, h: UpdaterHandle, delta: u32) {
        if let Some(chain) = self
            .slot(h)
            .map(|s| s.node)
            .and_then(|n| self.tree.get_mut(n))
        {
            chain.len += delta;
        }
    }

    /// Exhaustive consistency check of the index's O(1) bookkeeping
    /// against a full walk: the tree's own shape, every node's recorded
    /// length against its chain links, the entry slab's live cells and
    /// free list, the entry counter, and the coalescing map and
    /// per-table counters. Used
    /// by the paranoid invariant checker (`Engine::check_invariants`).
    /// Returns one message per problem; empty means consistent.
    pub fn audit(&self) -> Vec<String> {
        let mut problems = self.tree.audit();
        let mut chained = 0usize;
        let mut nodes = 0usize;
        let mut per_table: HashMap<Key, usize> = HashMap::new();
        self.tree.for_each(|node, range, n| {
            nodes += 1;
            *per_table.entry(range.first.table_prefix()).or_insert(0) += 1;
            if self.by_range.get(range) != Some(&node) {
                problems.push(format!(
                    "coalescing map does not point {range:?} at its node {node:?}"
                ));
            }
            // Walk the chain for `len` steps: it must stay on live cells
            // of this node, link back consistently, and end exactly
            // there (an empty node should have been dropped).
            let (mut cur, mut prev, mut walked) = (n.head, NIL, 0);
            while walked < n.len && cur != NIL {
                let cell = self.slots.get(cur as usize);
                let Some(s) = cell.filter(|s| s.entry.is_some() && s.node == node) else {
                    problems.push(format!(
                        "node {node:?} chain reaches cell {cur}, which is not a live cell of it"
                    ));
                    return;
                };
                if s.prev != prev {
                    problems.push(format!("cell {cur} on node {node:?} has broken links"));
                    return;
                }
                walked += 1;
                (prev, cur) = (cur, s.next);
            }
            chained += walked as usize;
            if n.len == 0 || walked != n.len || cur != NIL {
                problems.push(format!(
                    "node {node:?} ({range:?}) records length {} but its chain does not close \
                     there ({walked} walked)",
                    n.len
                ));
            }
        });
        let live = self.slots.iter().filter(|s| s.entry.is_some()).count();
        if chained != self.entries || live != self.entries {
            problems.push(format!(
                "updater entry counter is {} but chains hold {chained} and the slab {live}",
                self.entries
            ));
        }
        let mut free = self.free_slots.clone();
        free.sort_unstable();
        free.dedup();
        let vacant = |i: &u32| {
            self.slots
                .get(*i as usize)
                .is_some_and(|s| s.entry.is_none())
        };
        if free.len() != self.free_slots.len()
            || free.len() + live != self.slots.len()
            || !free.iter().all(vacant)
        {
            problems.push(format!(
                "entry free list ({} cells) is not exactly the slab's {} vacant cells",
                self.free_slots.len(),
                self.slots.len() - live
            ));
        }
        if let Some(h) = self.hints.keys().find(|&&h| self.get(h).is_none()) {
            problems.push(format!("an output hint outlived its entry {h:?}"));
        }
        if self.by_range.len() != nodes {
            problems.push(format!(
                "tree holds {nodes} nodes but the coalescing map {} ranges",
                self.by_range.len()
            ));
        }
        let counted: HashMap<&Key, usize> = (self.per_table.iter())
            .filter(|(_, n)| *n > 0)
            .map(|(t, n)| (t, *n))
            .collect();
        if counted != per_table.iter().map(|(t, &n)| (t, n)).collect() {
            problems.push(format!(
                "per-table counters {counted:?} disagree with the tree's {per_table:?}"
            ));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(js: u32) -> UpdaterEntry {
        UpdaterEntry {
            join: 0,
            source_idx: 1,
            slots: Bindings::default(),
            js: JsId { slot: js, gen: 0 },
        }
    }

    /// The point of the layout: links, node, join, source, status range
    /// and the bindings' handle, with nothing on the heap behind them.
    #[test]
    fn an_entry_is_one_small_cell() {
        assert!(std::mem::size_of::<Slot>() <= 72);
    }

    fn r(a: &str, b: &str) -> KeyRange {
        KeyRange::new(a, b)
    }

    #[test]
    fn coalesces_same_range() {
        let mut idx = UpdaterIndex::new();
        let a = idx.install(r("p|bob|", "p|bob}"), entry(1), &[]).unwrap();
        let b = idx.install(r("p|bob|", "p|bob}"), entry(2), &[]).unwrap();
        assert_ne!(a, b);
        assert_eq!(idx.node_count(), 1);
        assert_eq!(idx.entry_count(), 2);
        // identical duplicate of one of the owner's entries is dropped
        assert_eq!(idx.install(r("p|bob|", "p|bob}"), entry(2), &[b]), None);
        assert_eq!(idx.entry_count(), 2);
        // another range's identical-looking entry is not a sibling
        assert!(idx.install(r("p|bob|", "p|bob}"), entry(3), &[b]).is_some());
        // different range gets its own node
        idx.install(r("p|liz|", "p|liz}"), entry(1), &[a]).unwrap();
        assert_eq!(idx.node_count(), 2);
        assert_eq!(idx.audit(), Vec::<String>::new());
    }

    #[test]
    fn stab_finds_entries_in_install_order() {
        let mut idx = UpdaterIndex::new();
        let a = idx.install(r("p|bob|", "p|bob}"), entry(1), &[]).unwrap();
        idx.install(r("p|liz|", "p|liz}"), entry(2), &[]).unwrap();
        let c = idx.install(r("p|bob|", "p|bob}"), entry(3), &[]).unwrap();
        assert_eq!(idx.stab(&Key::from("p|bob|100")), vec![a, c]);
        assert_eq!(idx.overlapping(&r("p|a", "p|c")), vec![a, c]);
        assert!(idx.stab(&Key::from("p|zed|1")).is_empty());
        assert_eq!(idx.get(c).unwrap().js.slot, 3);
    }

    #[test]
    fn remove_drops_empty_nodes_and_stales_handles() {
        let mut idx = UpdaterIndex::new();
        let a = idx.install(r("p|bob|", "p|bob}"), entry(1), &[]).unwrap();
        let b = idx.install(r("p|bob|", "p|bob}"), entry(2), &[]).unwrap();
        assert_eq!(idx.remove(a).unwrap().js.slot, 1);
        assert_eq!(idx.node_count(), 1);
        assert_eq!(idx.stab(&Key::from("p|bob|5")), vec![b]);
        // stale handle: a no-op, even once its cell is reused
        assert!(idx.remove(a).is_none());
        let c = idx.install(r("p|liz|", "p|liz}"), entry(3), &[]).unwrap();
        assert!(idx.get(a).is_none() && idx.get(c).is_some());
        assert_eq!(idx.remove_all(&[a, b, c]), 2);
        assert_eq!(idx.node_count(), 0);
        assert_eq!(idx.entry_count(), 0);
        assert!(idx.table_is_quiet(&Key::from("p|bob|5")));
        assert_eq!(idx.audit(), Vec::<String>::new());
    }

    #[test]
    fn remove_where_keeps_the_list_exact() {
        let mut idx = UpdaterIndex::new();
        let mut own: Vec<UpdaterHandle> = (1..=4)
            .map(|js| idx.install(r("p|bob|", "p|bob}"), entry(js), &[]).unwrap())
            .collect();
        idx.remove(own[3]);
        assert_eq!(idx.remove_where(&mut own, |e| e.js.slot % 2 == 1), 2);
        assert_eq!(own.len(), 1);
        assert_eq!(idx.get(own[0]).unwrap().js.slot, 2);
        assert_eq!(idx.entry_count(), 1);
        assert_eq!(idx.audit(), Vec::<String>::new());
    }

    #[test]
    fn reinstall_after_teardown_works() {
        let mut idx = UpdaterIndex::new();
        let a = idx.install(r("p|bob|", "p|bob}"), entry(1), &[]).unwrap();
        idx.remove(a);
        let b = idx.install(r("p|bob|", "p|bob}"), entry(3), &[]).unwrap();
        assert_ne!(a, b);
        assert_eq!(idx.stab(&Key::from("p|bob|5")), vec![b]);
    }

    #[test]
    fn a_hint_never_outlives_its_entry() {
        let hint = |num| OutputHint {
            out_key: Key::from("karma|ann"),
            num,
        };
        let mut idx = UpdaterIndex::new();
        let a = idx.install(r("v|", "v}"), entry(1), &[]).unwrap();
        assert_eq!(idx.hint(a), None);
        idx.set_hint(a, Some(hint(7)));
        idx.set_hint(a, Some(hint(8)));
        assert_eq!(idx.hint(a).map(|h| h.num), Some(8));
        idx.remove(a);
        assert!(idx.hints.is_empty(), "removal drops the hint");
        // The same cell, reused: nothing of the old entry shows through.
        let b = idx.install(r("v|", "v}"), entry(1), &[]).unwrap();
        assert_eq!((a.slot, idx.hint(a), idx.hint(b)), (b.slot, None, None));
        // A stale handle keeps nothing, and a hint can be dropped.
        idx.set_hint(a, Some(hint(9)));
        idx.set_hint(b, Some(hint(9)));
        idx.set_hint(b, None);
        assert!(idx.hints.is_empty());
        assert_eq!(idx.audit(), Vec::<String>::new());
    }

    #[test]
    fn audit_reports_a_length_that_disagrees_with_the_chain() {
        let mut idx = UpdaterIndex::new();
        let a = idx.install(r("p|bob|", "p|bob}"), entry(1), &[]).unwrap();
        idx.install(r("p|bob|", "p|bob}"), entry(2), &[]).unwrap();
        idx.debug_skew_node_len(a, 1);
        let v = idx.audit();
        assert!(
            v.iter().any(|m| m.contains("chain does not close")),
            "skewed node length must be reported: {v:?}"
        );
    }
}
