//! An interval tree over [`KeyRange`]s.
//!
//! Pequod stores updaters in an interval tree so that every store
//! modification can find, in `O(log n + k)` time, the updaters whose
//! source ranges contain the modified key (§3.2). This implementation is
//! a treap (randomized BST) keyed by `(range.first, id)` and augmented
//! with the maximum range end in each subtree. Priorities are derived
//! deterministically from interval ids (splitmix64), so tree shape — and
//! therefore benchmark behaviour — is reproducible.
//!
//! The nodes live in one slab and link to each other by index, and an
//! [`IntervalId`] *is* its node's slab cell (plus the generation the cell
//! had when the interval went in), so inserting allocates nothing once
//! the slab has grown, removing by id finds the node's start key by one
//! indexed load instead of a side map, and a removed interval's id never
//! resolves again even after its cell is reused. A recomputed timeline
//! installs a few dozen single-use source ranges and its eviction removes
//! them again; this is the whole cost of each besides the descent.

use crate::key::Key;
use crate::range::{KeyRange, UpperBound};

/// Stable identifier for an interval stored in the tree: the slab cell
/// in the low 32 bits, the cell's generation in the high 32.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct IntervalId(pub u64);

impl IntervalId {
    fn new(cell: u32, gen: u32) -> IntervalId {
        IntervalId(u64::from(gen) << 32 | u64::from(cell))
    }

    fn cell(self) -> u32 {
        self.0 as u32
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Absent child / empty tree.
const NIL: u32 = u32::MAX;

struct Node<V> {
    id: IntervalId,
    priority: u64,
    range: KeyRange,
    max_end: UpperBound,
    value: V,
    left: u32,
    right: u32,
}

impl<V> Node<V> {
    /// BST ordering key: `(range.first, id)`.
    fn cmp_key(&self) -> (&Key, IntervalId) {
        (&self.range.first, self.id)
    }
}

/// One slab cell: a node, or the generation the next node here gets.
enum Cell<V> {
    Live(Node<V>),
    Free { gen: u32 },
}

/// Interval tree mapping [`KeyRange`]s to values, with stabbing and
/// overlap queries.
pub struct IntervalTree<V> {
    cells: Vec<Cell<V>>,
    free: Vec<u32>,
    root: u32,
}

impl<V> Default for IntervalTree<V> {
    fn default() -> Self {
        IntervalTree::new()
    }
}

impl<V> IntervalTree<V> {
    /// Creates an empty tree.
    pub fn new() -> IntervalTree<V> {
        IntervalTree {
            cells: Vec::new(),
            free: Vec::new(),
            root: NIL,
        }
    }

    /// Number of stored intervals.
    pub fn len(&self) -> usize {
        self.cells.len() - self.free.len()
    }

    /// True if the tree stores no intervals.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node in cell `at`, which the tree's own links vouch for.
    fn node(&self, at: u32) -> &Node<V> {
        match &self.cells[at as usize] {
            Cell::Live(node) => node,
            Cell::Free { .. } => unreachable!("interval tree links to vacant cell {at}"),
        }
    }

    fn node_mut(&mut self, at: u32) -> &mut Node<V> {
        match &mut self.cells[at as usize] {
            Cell::Live(node) => node,
            Cell::Free { .. } => unreachable!("interval tree links to vacant cell {at}"),
        }
    }

    /// The node `id` names, if that interval is still stored.
    fn find(&self, id: IntervalId) -> Option<&Node<V>> {
        match self.cells.get(id.cell() as usize)? {
            Cell::Live(node) if node.id == id => Some(node),
            _ => None,
        }
    }

    /// Recomputes a node's subtree maximum from its own end and its
    /// children's maxima, writing it only if it moved.
    fn update_max_end(&mut self, at: u32) {
        let node = self.node(at);
        let mut max = &node.range.end;
        for child in [node.left, node.right] {
            if child != NIL {
                max = max.max(&self.node(child).max_end);
            }
        }
        if *max != node.max_end {
            let max = max.clone();
            self.node_mut(at).max_end = max;
        }
    }

    /// Inserts an interval; empty ranges are accepted but never match
    /// queries. Returns the new interval's id.
    pub fn insert(&mut self, range: KeyRange, value: V) -> IntervalId {
        let (at, gen) = match self.free.pop() {
            Some(at) => match self.cells[at as usize] {
                Cell::Free { gen } => (at, gen),
                Cell::Live(_) => unreachable!("live cell {at} on the free list"),
            },
            None => (self.cells.len() as u32, 0),
        };
        let id = IntervalId::new(at, gen);
        let node = Cell::Live(Node {
            id,
            priority: splitmix64(id.0),
            max_end: range.end.clone(),
            range,
            value,
            left: NIL,
            right: NIL,
        });
        match self.cells.get_mut(at as usize) {
            Some(cell) => *cell = node,
            None => self.cells.push(node),
        }
        self.root = self.insert_node(self.root, at);
        id
    }

    /// Inserts node `new` into the subtree at `cur`; returns its new root.
    /// On the way down only `new`'s own end can raise a subtree's
    /// maximum, so no child is read; the split at the bottom (a couple of
    /// nodes, on average) recomputes the maxima it rearranges.
    fn insert_node(&mut self, cur: u32, new: u32) -> u32 {
        if cur == NIL {
            return new;
        }
        if self.node(new).priority > self.node(cur).priority {
            // `new` becomes the subtree's root: split `cur` by its key.
            let (left, right) = self.split(cur, new);
            let node = self.node_mut(new);
            (node.left, node.right) = (left, right);
            self.update_max_end(new);
            return new;
        }
        if self.node(new).cmp_key() < self.node(cur).cmp_key() {
            let left = self.insert_node(self.node(cur).left, new);
            self.node_mut(cur).left = left;
        } else {
            let right = self.insert_node(self.node(cur).right, new);
            self.node_mut(cur).right = right;
        }
        if self.node(new).range.end > self.node(cur).max_end {
            let end = self.node(new).range.end.clone();
            self.node_mut(cur).max_end = end;
        }
        cur
    }

    /// Splits the subtree at `cur` into the nodes ordered before node
    /// `at` and those ordered after it.
    fn split(&mut self, cur: u32, at: u32) -> (u32, u32) {
        if cur == NIL {
            return (NIL, NIL);
        }
        if self.node(cur).cmp_key() < self.node(at).cmp_key() {
            let (left, right) = self.split(self.node(cur).right, at);
            self.node_mut(cur).right = left;
            self.update_max_end(cur);
            (cur, right)
        } else {
            let (left, right) = self.split(self.node(cur).left, at);
            self.node_mut(cur).left = right;
            self.update_max_end(cur);
            (left, cur)
        }
    }

    /// Removes the interval with the given id, returning its range and value.
    pub fn remove(&mut self, id: IntervalId) -> Option<(KeyRange, V)> {
        self.find(id)?;
        let at = id.cell();
        self.root = self.unlink(self.root, at);
        self.free.push(at);
        let gen = (id.0 >> 32) as u32;
        let vacated = Cell::Free {
            gen: gen.wrapping_add(1),
        };
        match std::mem::replace(&mut self.cells[at as usize], vacated) {
            Cell::Live(node) => Some((node.range, node.value)),
            Cell::Free { .. } => unreachable!("found interval {id:?} in a vacant cell"),
        }
    }

    /// Unlinks node `at` from the subtree at `cur`, which holds it;
    /// returns the subtree's new root. An ancestor's maximum can only
    /// have dropped if it was the removed interval's own end, so the
    /// others are left alone, their children unread.
    fn unlink(&mut self, cur: u32, at: u32) -> u32 {
        if cur == at {
            let node = self.node(cur);
            return self.merge(node.left, node.right);
        }
        if self.node(at).cmp_key() < self.node(cur).cmp_key() {
            let left = self.unlink(self.node(cur).left, at);
            self.node_mut(cur).left = left;
        } else {
            let right = self.unlink(self.node(cur).right, at);
            self.node_mut(cur).right = right;
        }
        if self.node(cur).max_end == self.node(at).range.end {
            self.update_max_end(cur);
        }
        cur
    }

    /// Joins two subtrees, every node of `a` ordered before every node
    /// of `b`.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL || b == NIL {
            return if a == NIL { b } else { a };
        }
        if self.node(a).priority > self.node(b).priority {
            let right = self.merge(self.node(a).right, b);
            self.node_mut(a).right = right;
            self.update_max_end(a);
            a
        } else {
            let left = self.merge(a, self.node(b).left);
            self.node_mut(b).left = left;
            self.update_max_end(b);
            b
        }
    }

    /// Returns the value stored under `id`.
    pub fn get(&self, id: IntervalId) -> Option<&V> {
        self.find(id).map(|node| &node.value)
    }

    /// Returns a mutable reference to the value stored under `id`.
    pub fn get_mut(&mut self, id: IntervalId) -> Option<&mut V> {
        match self.cells.get_mut(id.cell() as usize)? {
            Cell::Live(node) if node.id == id => Some(&mut node.value),
            _ => None,
        }
    }

    /// Returns the range stored under `id`.
    pub fn range_of(&self, id: IntervalId) -> Option<&KeyRange> {
        self.find(id).map(|node| &node.range)
    }

    /// Visits every interval containing `key`.
    pub fn stab<'a>(&'a self, key: &Key, mut f: impl FnMut(IntervalId, &'a KeyRange, &'a V)) {
        self.stab_node(self.root, key, &mut f);
    }

    fn stab_node<'a>(
        &'a self,
        at: u32,
        key: &Key,
        f: &mut impl FnMut(IntervalId, &'a KeyRange, &'a V),
    ) {
        if at == NIL {
            return;
        }
        let node = self.node(at);
        // No interval in this subtree extends past `key`.
        if !node.max_end.admits(key) {
            return;
        }
        self.stab_node(node.left, key, f);
        if node.range.contains(key) {
            f(node.id, &node.range, &node.value);
        }
        // Intervals in the right subtree start at or after this node's start;
        // if even this node starts after `key`, none of them can contain it.
        if node.range.first <= *key {
            self.stab_node(node.right, key, f);
        }
    }

    /// Collects the ids of every interval containing `key`.
    pub fn stab_ids(&self, key: &Key) -> Vec<IntervalId> {
        let mut out = Vec::new();
        self.stab(key, |id, _, _| out.push(id));
        out
    }

    /// Visits every interval overlapping `range`.
    pub fn overlapping<'a>(
        &'a self,
        range: &KeyRange,
        mut f: impl FnMut(IntervalId, &'a KeyRange, &'a V),
    ) {
        if range.is_empty() {
            return;
        }
        self.overlap_node(self.root, range, &mut f);
    }

    fn overlap_node<'a>(
        &'a self,
        at: u32,
        range: &KeyRange,
        f: &mut impl FnMut(IntervalId, &'a KeyRange, &'a V),
    ) {
        if at == NIL {
            return;
        }
        let node = self.node(at);
        if !node.max_end.admits(&range.first) {
            return;
        }
        self.overlap_node(node.left, range, f);
        if node.range.overlaps(range) {
            f(node.id, &node.range, &node.value);
        }
        if range.end.admits(&node.range.first) {
            self.overlap_node(node.right, range, f);
        }
    }

    /// Collects the ids of every interval overlapping `range`.
    pub fn overlapping_ids(&self, range: &KeyRange) -> Vec<IntervalId> {
        let mut out = Vec::new();
        self.overlapping(range, |id, _, _| out.push(id));
        out
    }

    /// Visits all intervals in `(start, id)` order.
    pub fn for_each<'a>(&'a self, mut f: impl FnMut(IntervalId, &'a KeyRange, &'a V)) {
        self.visit_in_order(self.root, &mut f);
    }

    fn visit_in_order<'a>(&'a self, at: u32, f: &mut impl FnMut(IntervalId, &'a KeyRange, &'a V)) {
        if at == NIL {
            return;
        }
        let node = self.node(at);
        self.visit_in_order(node.left, f);
        f(node.id, &node.range, &node.value);
        self.visit_in_order(node.right, f);
    }

    /// Checks the treap's shape against a full walk: search order, heap
    /// order, every subtree maximum, and the slab's live and free cells
    /// against the nodes the links reach. Returns one message per
    /// problem.
    pub fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut reached = 0usize;
        self.audit_node(self.root, &mut reached, &mut problems);
        let live = (self.cells.iter())
            .filter(|c| matches!(c, Cell::Live(_)))
            .count();
        if reached != live || live != self.len() {
            problems.push(format!(
                "links reach {reached} nodes, the slab holds {live} and the counters say {}",
                self.len()
            ));
        }
        let vacant = |at: &u32| matches!(self.cells.get(*at as usize), Some(Cell::Free { .. }));
        let mut free = self.free.clone();
        free.sort_unstable();
        free.dedup();
        if free.len() != self.free.len() || !free.iter().all(vacant) {
            problems.push("the free list is not a set of vacant cells".to_string());
        }
        problems
    }

    fn audit_node(
        &self,
        at: u32,
        reached: &mut usize,
        problems: &mut Vec<String>,
    ) -> Option<&UpperBound> {
        if at == NIL {
            return None;
        }
        let Some(Cell::Live(node)) = self.cells.get(at as usize) else {
            problems.push(format!("a link reaches vacant cell {at}"));
            return None;
        };
        *reached += 1;
        if node.id.cell() != at {
            problems.push(format!("cell {at} holds interval {:?}", node.id));
        }
        let mut expect = &node.range.end;
        for (child, is_left) in [(node.left, true), (node.right, false)] {
            let Some(max) = self.audit_node(child, reached, problems) else {
                continue;
            };
            let below = self.node(child);
            if below.priority > node.priority {
                problems.push(format!("heap order violated under {:?}", node.id));
            }
            if (below.cmp_key() < node.cmp_key()) != is_left {
                problems.push(format!("search order violated under {:?}", node.id));
            }
            expect = expect.max(max);
        }
        if node.max_end != *expect {
            problems.push(format!("stale subtree maximum at {:?}", node.id));
        }
        Some(&node.max_end)
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for IntervalTree<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut list = f.debug_list();
        self.for_each(|id, range, value| {
            list.entry(&(id, range, value));
        });
        list.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: &str, b: &str) -> KeyRange {
        KeyRange::new(a, b)
    }

    #[test]
    fn stab_finds_containing_intervals() {
        let mut t = IntervalTree::new();
        let a = t.insert(r("b", "f"), "a");
        let b = t.insert(r("d", "k"), "b");
        let _c = t.insert(r("m", "p"), "c");
        assert_eq!(t.audit(), Vec::<String>::new());
        let mut hits = t.stab_ids(&Key::from("e"));
        hits.sort();
        assert_eq!(hits, vec![a, b]);
        assert_eq!(t.stab_ids(&Key::from("z")), vec![]);
        assert_eq!(t.stab_ids(&Key::from("b")), vec![a]); // inclusive start
        assert_eq!(t.stab_ids(&Key::from("f")), vec![b]); // exclusive end
    }

    #[test]
    fn overlap_query() {
        let mut t = IntervalTree::new();
        let a = t.insert(r("b", "f"), ());
        let _b = t.insert(r("g", "k"), ());
        let c = t.insert(r("a", "z"), ());
        let mut hits = t.overlapping_ids(&r("e", "g"));
        hits.sort();
        assert_eq!(hits, vec![a, c]);
        assert!(t.overlapping_ids(&r("x", "x")).is_empty());
    }

    #[test]
    fn remove_by_id() {
        let mut t = IntervalTree::new();
        let a = t.insert(r("b", "f"), 1);
        let b = t.insert(r("b", "f"), 2); // duplicate range, distinct id
        assert_eq!(t.audit(), Vec::<String>::new());
        let (range, v) = t.remove(a).unwrap();
        assert_eq!(range, r("b", "f"));
        assert_eq!(v, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.stab_ids(&Key::from("c")), vec![b]);
        assert!(t.remove(a).is_none());
        assert_eq!(t.audit(), Vec::<String>::new());
    }

    #[test]
    fn get_mut_and_range_of() {
        let mut t = IntervalTree::new();
        let a = t.insert(r("b", "f"), 10);
        *t.get_mut(a).unwrap() += 5;
        let mut seen = vec![];
        t.stab(&Key::from("c"), |_, _, v| seen.push(*v));
        assert_eq!(seen, vec![15]);
        assert_eq!(t.range_of(a), Some(&r("b", "f")));
        assert_eq!(t.range_of(IntervalId(999)), None);
    }

    #[test]
    fn unbounded_intervals() {
        let mut t = IntervalTree::new();
        let a = t.insert(KeyRange::with_bound("m", UpperBound::Unbounded), ());
        assert_eq!(t.stab_ids(&Key::from(vec![0xffu8; 4])), vec![a]);
        assert_eq!(t.stab_ids(&Key::from("a")), vec![]);
    }

    #[test]
    fn empty_intervals_never_match() {
        let mut t = IntervalTree::new();
        t.insert(r("m", "m"), ());
        assert!(t.stab_ids(&Key::from("m")).is_empty());
        assert!(t.overlapping_ids(&KeyRange::all()).is_empty());
    }

    #[test]
    fn many_intervals_match_naive() {
        // Deterministic pseudo-random intervals, compared against brute force.
        let mut t = IntervalTree::new();
        let mut naive: Vec<(IntervalId, KeyRange)> = Vec::new();
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..300 {
            let a = (next() % 26) as u8 + b'a';
            let b = (next() % 26) as u8 + b'a';
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let range = KeyRange::new(vec![lo], vec![hi + 1]);
            let id = t.insert(range.clone(), ());
            naive.push((id, range));
        }
        assert_eq!(t.audit(), Vec::<String>::new());
        // remove a third of them
        for i in (0..naive.len()).rev().step_by(3) {
            let (id, _) = naive.remove(i);
            t.remove(id).unwrap();
        }
        assert_eq!(t.audit(), Vec::<String>::new());
        for probe in b'a'..=b'z' {
            let key = Key::from(vec![probe]);
            let mut expect: Vec<IntervalId> = naive
                .iter()
                .filter(|(_, r)| r.contains(&key))
                .map(|(id, _)| *id)
                .collect();
            expect.sort();
            let mut got = t.stab_ids(&key);
            got.sort();
            assert_eq!(got, expect, "stab mismatch at {key:?}");
        }
        for lo in (b'a'..=b'z').step_by(3) {
            let range = KeyRange::new(vec![lo], vec![lo + 2]);
            let mut expect: Vec<IntervalId> = naive
                .iter()
                .filter(|(_, r)| r.overlaps(&range))
                .map(|(id, _)| *id)
                .collect();
            expect.sort();
            let mut got = t.overlapping_ids(&range);
            got.sort();
            assert_eq!(got, expect, "overlap mismatch at {range:?}");
        }
    }
}
