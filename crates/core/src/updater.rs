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
/// coalesced onto a poster's source range costs one place in that
/// range's entry array.
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

/// An exact reference to one installed [`UpdaterEntry`]: a cell of the
/// index's cell slab, which records where the entry sits, plus the
/// generation the cell had when the entry was installed (kept with the
/// entry, and with the cell while it is free). The owning join
/// status range keeps the handles of its own entries
/// (`JsRange::updaters`), so tearing the range down removes exactly
/// those entries in O(1) each, however many other ranges watch the same
/// source range. A handle whose entry was removed is *stale*: every
/// lookup through it returns `None`, even after the cell has been reused
/// for another entry, because reuse bumps the generation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct UpdaterHandle {
    slot: u32,
    gen: u32,
}

/// `Cell::at` of a cell on the free list.
const NIL: u32 = u32::MAX;

/// Where one entry sits: its node and its place in the node's array.
/// Only removal and the handle lookups use it; a stab reads the arrays.
/// A handle resolves only if the place it finds holds that very handle,
/// so the cell keeps no generation, and packs to 12 bytes.
#[derive(Clone, Copy)]
#[repr(Rust, packed(4))]
struct Cell {
    /// Index into the node's `placed`; [`NIL`] while the cell is free.
    at: u32,
    /// The tree node (distinct source range) the entry sits on.
    node: IntervalId,
}

impl Cell {
    /// Where the entry is: its node, and its place there (a copy: the
    /// fields of a packed struct cannot be borrowed).
    fn at(self) -> (IntervalId, usize) {
        (self.node, self.at as usize)
    }
}

/// One place of a node's entry array: an entry with its own handle.
struct Placed {
    handle: UpdaterHandle,
    entry: UpdaterEntry,
}

/// The entries coalesced onto one distinct source range: the tree
/// node's payload. A write to the range reads them in one pass over
/// [`Node::placed`]. Their order is unspecified: a removal moves the
/// last entry into the place it frees.
enum Node {
    /// The only entry, held in the tree node itself: a source range one
    /// status range watches (a user's own subscriptions, for a
    /// timeline) costs no allocation. Removing it empties the node.
    One(Placed),
    /// Every node that has had a second entry; never empty while in
    /// the tree.
    Many(Vec<Placed>),
}

impl Node {
    fn placed(&self) -> &[Placed] {
        match self {
            Node::One(only) => std::slice::from_ref(only),
            Node::Many(placed) => placed,
        }
    }

    /// The node's entries with their handles.
    fn entries(&self) -> impl Iterator<Item = (UpdaterHandle, &UpdaterEntry)> {
        self.placed().iter().map(|p| (p.handle, &p.entry))
    }

    /// Places an entry at the end and returns its place.
    fn push(&mut self, next: Placed) -> usize {
        match self {
            Node::Many(placed) => {
                // A large array grows by an eighth, not by doubling: a
                // poster's node holds an entry per follower timeline, and
                // its spare places are resident. A small one doubles, so
                // that a login joining many small nodes seldom
                // reallocates.
                if placed.len() == placed.capacity() {
                    let len = placed.len();
                    placed.reserve_exact(if len < 32 { len } else { len / 8 });
                }
                placed.push(next);
                placed.len() - 1
            }
            Node::One(_) => {
                let mut placed = Vec::with_capacity(2);
                if let Node::One(only) = std::mem::replace(self, Node::Many(Vec::new())) {
                    placed.push(only);
                }
                placed.push(next);
                *self = Node::Many(placed);
                1
            }
        }
    }

    /// Takes the entry at `at` out of a node that keeps others, in
    /// O(1): the last entry moves into its place, and that entry's cell
    /// is told so.
    fn take(&mut self, at: usize, cells: &mut [Cell]) -> Option<UpdaterEntry> {
        let placed = match self {
            Node::Many(placed) if at < placed.len() => placed,
            _ => return None,
        };
        let gone = placed.swap_remove(at);
        if let Some(moved) = placed.get(at) {
            if let Some(c) = cells.get_mut(moved.handle.slot as usize) {
                c.at = at as u32;
            }
        }
        Some(gone.entry)
    }

    /// The only entry of a node taken out of the tree.
    fn into_only(self) -> Option<UpdaterEntry> {
        match self {
            Node::One(only) => Some(only.entry),
            Node::Many(mut placed) => placed.pop().map(|p| p.entry),
        }
    }
}

/// A handle for a new entry: a free cell of the slab at the generation
/// after its last entry's, or one past the slab's end.
fn issue(cells: &[Cell], free: &mut Vec<UpdaterHandle>) -> UpdaterHandle {
    match free.pop() {
        Some(last) => UpdaterHandle {
            slot: last.slot,
            gen: last.gen.wrapping_add(1),
        },
        None => UpdaterHandle {
            slot: cells.len() as u32,
            gen: 0,
        },
    }
}

/// The live-node counter of `table`, if the table was ever watched.
fn watchers<'a>(per_table: &'a mut [(Key, usize)], table: &[u8]) -> Option<&'a mut usize> {
    let counted = per_table.iter_mut().find(|(t, _)| t.as_bytes() == table);
    counted.map(|(_, n)| n)
}

/// The engine-wide updater index.
///
/// The interval tree holds one node per distinct source range, and each
/// node keeps its entries in one array, so a write to a range watched by
/// thousands of status ranges reads their entries in one sequential
/// pass. A handle names a small cell holding the entry's node and place,
/// so removing an entry through its handle is O(1). A source
/// range nobody watches yet costs one hash of the range (the coalescing
/// map) and a treap descent to install, and the same to remove: the
/// tree's nodes are slab cells named by their ids, so nothing else is
/// looked up.
#[derive(Default)]
pub struct UpdaterIndex {
    tree: IntervalTree<Node>,
    cells: Vec<Cell>,
    /// The free cells, each with the handle of the last entry it held.
    free_cells: Vec<UpdaterHandle>,
    by_range: HashMap<KeyRange, IntervalId>,
    entries: usize,
    /// Entries ever removed: a caller holding entries read out of the
    /// index can tell whether any of them may since have gone.
    removals: u64,
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

    /// Number of entries ever removed. While it stands still, every
    /// entry read out of the index (by [`UpdaterIndex::stab_entries`])
    /// is still installed.
    pub fn removals(&self) -> u64 {
        self.removals
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
        let (node, handle, at) = match self.by_range.entry(range) {
            Entry::Occupied(known) => {
                let node = *known.get();
                let on_node = |h: &&UpdaterHandle| {
                    (self.cells.get(h.slot as usize)).is_some_and(|c| c.at().0 == node)
                };
                let held = siblings.iter().filter(on_node).filter_map(|&h| self.get(h));
                if held.into_iter().any(|e| *e == entry) {
                    return None;
                }
                // The coalescing map names live nodes only.
                let on = self.tree.get_mut(node)?;
                let handle = issue(&self.cells, &mut self.free_cells);
                let at = on.push(Placed { handle, entry });
                (node, handle, at)
            }
            Entry::Vacant(unknown) => {
                let range = unknown.key();
                let table = range.first.table_prefix_bytes();
                match watchers(&mut self.per_table, table) {
                    Some(n) => *n += 1,
                    None => self.per_table.push((range.first.table_prefix(), 1)),
                }
                let handle = issue(&self.cells, &mut self.free_cells);
                let node = (self.tree).insert(range.clone(), Node::One(Placed { handle, entry }));
                (*unknown.insert(node), handle, 0)
            }
        };
        let cell = Cell {
            at: at as u32,
            node,
        };
        match self.cells.get_mut(handle.slot as usize) {
            Some(c) => *c = cell,
            None => self.cells.push(cell),
        }
        self.entries += 1;
        Some(handle)
    }

    /// True if no updater watches any range of `key`'s table. Ranges are
    /// indexed by their start key's table; Pequod source ranges never
    /// span tables (they come from single-table patterns).
    pub fn table_is_quiet(&self, key: &Key) -> bool {
        let table = key.table_prefix_bytes();
        let watched = |(t, n): &(Key, usize)| *n > 0 && t.as_bytes() == table;
        !self.per_table.iter().any(watched)
    }

    /// The entry behind a handle; `None` if the handle is stale.
    pub fn get(&self, h: UpdaterHandle) -> Option<&UpdaterEntry> {
        let (node, at) = self.cells.get(h.slot as usize)?.at();
        let place = self.tree.get(node)?.placed().get(at)?;
        (place.handle == h).then_some(&place.entry)
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

    /// Every entry whose source range contains `key`, with its handle:
    /// node by node, in no specified order, copied out of each node's
    /// array in one pass. The write path dispatches from this copy,
    /// because dispatching may change the index.
    pub fn stab_entries(&self, key: &Key) -> Vec<(UpdaterHandle, UpdaterEntry)> {
        let mut out = Vec::new();
        self.tree.stab(key, |_, _, on| {
            out.reserve(on.placed().len());
            out.extend(on.entries().map(|(h, e)| (h, e.clone())));
        });
        out
    }

    /// Handles of every entry whose source range contains `key`, in the
    /// order [`UpdaterIndex::stab_entries`] gives them.
    pub fn stab(&self, key: &Key) -> Vec<UpdaterHandle> {
        let mut out = Vec::new();
        self.tree
            .stab(key, |_, _, on| out.extend(on.entries().map(|(h, _)| h)));
        out
    }

    /// Handles of every entry whose source range overlaps `range`.
    pub fn overlapping(&self, range: &KeyRange) -> Vec<UpdaterHandle> {
        let mut out = Vec::new();
        self.tree
            .overlapping(range, |_, _, on| out.extend(on.entries().map(|(h, _)| h)));
        out
    }

    /// Removes the entry behind `h` in O(1), dropping its node when it
    /// was the node's only entry. Returns the entry; `None` if the
    /// handle is stale.
    pub fn remove(&mut self, h: UpdaterHandle) -> Option<UpdaterEntry> {
        self.get(h)?;
        let (node, at) = self.cells.get(h.slot as usize)?.at();
        // A live cell names a live node and a place holding its entry.
        let on = self.tree.get_mut(node)?;
        let entry = if on.placed().len() > 1 {
            on.take(at, &mut self.cells)?
        } else {
            let (range, on) = self.tree.remove(node)?;
            self.by_range.remove(&range);
            if let Some(n) = watchers(&mut self.per_table, range.first.table_prefix_bytes()) {
                *n -= 1;
            }
            on.into_only()?
        };
        if let Some(cell) = self.cells.get_mut(h.slot as usize) {
            cell.at = NIL;
        }
        self.free_cells.push(h);
        self.entries -= 1;
        self.removals += 1;
        if !self.hints.is_empty() {
            self.hints.remove(&h);
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
        self.tree.for_each(|_, range, on| {
            for (h, e) in on.entries() {
                f(h, range, e);
            }
        });
    }

    /// Approximate bookkeeping bytes (for memory accounting).
    pub fn approx_bytes(&self) -> usize {
        // tree node + range keys + per-entry context
        self.node_count() * 96 + self.entry_count() * 64
    }

    /// Exhaustive consistency check of the index's O(1) bookkeeping
    /// against a full walk: the tree's own shape; every node holding at
    /// least one entry, and every entry's cell pointing back at its
    /// place; the cell slab's live cells and free list; the entry
    /// counter; and the coalescing map and per-table counters. Used by
    /// the paranoid invariant checker (`Engine::check_invariants`).
    /// Returns one message per problem; empty means consistent.
    pub fn audit(&self) -> Vec<String> {
        let mut problems = self.tree.audit();
        let mut held = 0usize;
        let mut nodes = 0usize;
        let mut per_table: HashMap<Key, usize> = HashMap::new();
        self.tree.for_each(|node, range, on| {
            nodes += 1;
            *per_table.entry(range.first.table_prefix()).or_insert(0) += 1;
            if self.by_range.get(range) != Some(&node) {
                problems.push(format!(
                    "coalescing map does not point {range:?} at its node {node:?}"
                ));
            }
            if on.placed().is_empty() {
                problems.push(format!("node {node:?} ({range:?}) holds no entries"));
            }
            for (at, p) in on.placed().iter().enumerate() {
                let cell = self.cells.get(p.handle.slot as usize).copied();
                let home = |c: Cell| c.at() == (node, at);
                if !cell.is_some_and(home) {
                    problems.push(format!(
                        "entry {at} of node {node:?} carries {:?}, whose cell does not point \
                         back at it",
                        p.handle
                    ));
                }
            }
            held += on.placed().len();
        });
        let live = self.cells.iter().filter(|c| c.at != NIL).count();
        if held != self.entries || live != self.entries {
            problems.push(format!(
                "updater entry counter is {} but the nodes hold {held} and the cell slab {live}",
                self.entries
            ));
        }
        let mut free: Vec<u32> = self.free_cells.iter().map(|h| h.slot).collect();
        free.sort_unstable();
        free.dedup();
        let vacant = |i: &u32| self.cells.get(*i as usize).is_some_and(|c| c.at == NIL);
        if free.len() != self.free_cells.len()
            || free.len() + live != self.cells.len()
            || !free.iter().all(vacant)
        {
            problems.push(format!(
                "cell free list ({} cells) is not exactly the slab's {} vacant cells",
                self.free_cells.len(),
                self.cells.len() - live
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

    /// The point of the layout: an entry's place in its node's array is
    /// its join, source, status range, the bindings' handle and its own
    /// handle, with nothing on the heap behind them, and the cell that
    /// finds it for removal is 12 bytes: 68 in all.
    #[test]
    fn an_entry_is_one_small_cell() {
        assert!(std::mem::size_of::<Placed>() <= 56);
        assert!(std::mem::size_of::<Cell>() <= 12);
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

    impl UpdaterIndex {
        /// Points the cell of `h` one place past its entry, so tests can
        /// prove the audit notices an entry its cell does not point back
        /// at.
        pub(crate) fn debug_misplace_cell(&mut self, h: UpdaterHandle) {
            if let Some(c) = self.cells.get_mut(h.slot as usize) {
                c.at += 1;
            }
        }
    }

    #[test]
    fn audit_reports_a_cell_that_does_not_point_back() {
        let mut idx = UpdaterIndex::new();
        let a = idx.install(r("p|bob|", "p|bob}"), entry(1), &[]).unwrap();
        idx.install(r("p|bob|", "p|bob}"), entry(2), &[]).unwrap();
        idx.debug_misplace_cell(a);
        let v = idx.audit();
        assert!(
            v.iter().any(|m| m.contains("does not point back")),
            "a misplaced cell must be reported: {v:?}"
        );
    }
}
