//! Least-recently-used tracking for evictable items.
//!
//! Pequod evicts the least recently used data ranges under memory
//! pressure (§2.5). The engine registers each evictable unit (a join
//! status range, or a remote table's cached base data) with
//! [`insert`](LruTracker::insert), keeps the returned [`LruHandle`] next
//! to the unit itself, and [`touch`](LruTracker::touch)es it through the
//! handle on access; eviction [`pop`](LruTracker::pop_lru)s units in LRU
//! order. The tracker is the ordering half of memory-bounded serving:
//! the engine's automatic eviction (`Engine::maintain_memory` in
//! `pequod-core`, documented in `docs/MEMORY.md`) pops from here until
//! its footprint is back under the configured cap.
//!
//! The tracker is an intrusive doubly-linked list threaded through a
//! slab: `insert`, `touch`, `remove` and `pop_lru` are `O(1)` — a few
//! indexed loads and stores, no hashing, no tree walk, no allocation
//! once the slab has grown. A handle carries the generation its cell had
//! when the unit was inserted, so a handle kept past its unit's removal
//! is *stale*: it never resolves, even after the cell is reused.
//!
//! ```
//! use pequod_store::LruTracker;
//!
//! let mut lru = LruTracker::new();
//! let ann = lru.insert("ann's timeline");
//! let _bob = lru.insert("bob's timeline");
//! let _cat = lru.insert("cat's timeline");
//! // ann reads her timeline again: she is no longer the coldest.
//! assert!(lru.touch(ann));
//! // Under memory pressure the engine pops the coldest unit first.
//! assert_eq!(lru.pop_lru(), Some("bob's timeline"));
//! assert_eq!(lru.peek_lru(), Some(&"cat's timeline"));
//! assert_eq!(lru.len(), 2);
//! ```

/// An exact reference to one tracked unit: a slab cell plus the
/// generation it had at insertion. Stale once the unit is removed or
/// popped.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LruHandle {
    slot: u32,
    gen: u32,
}

/// End-of-list marker for slab indices.
const NIL: u32 = u32::MAX;

/// One slab cell. Live cells form one list from `head` (coldest) to
/// `tail` (most recently used).
struct Cell<T> {
    /// Bumped on every removal, so stale handles never resolve.
    gen: u32,
    prev: u32,
    next: u32,
    /// `None` while the cell is on the free list.
    item: Option<T>,
}

/// Tracks last-use ordering for a set of units.
pub struct LruTracker<T> {
    cells: Vec<Cell<T>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl<T> Default for LruTracker<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LruTracker<T> {
    /// Creates an empty tracker.
    pub fn new() -> LruTracker<T> {
        LruTracker {
            cells: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of tracked units.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Starts tracking `item` as the most recently used unit and returns
    /// the handle its owner keeps.
    pub fn insert(&mut self, item: T) -> LruHandle {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.cells.push(Cell {
                    gen: 0,
                    prev: NIL,
                    next: NIL,
                    item: None,
                });
                (self.cells.len() - 1) as u32
            }
        };
        self.cells[slot as usize].item = Some(item);
        self.link_at_tail(slot);
        self.len += 1;
        LruHandle {
            slot,
            gen: self.cells[slot as usize].gen,
        }
    }

    /// Marks the unit behind `h` as just used. Returns `false` (and does
    /// nothing) if the handle is stale.
    ///
    /// ```
    /// use pequod_store::LruTracker;
    ///
    /// let mut lru = LruTracker::new();
    /// let one = lru.insert(1);
    /// let two = lru.insert(2);
    /// assert!(lru.touch(one)); // refreshed: 2 is now the eviction candidate
    /// assert_eq!(lru.pop_lru(), Some(2));
    /// assert!(!lru.touch(two)); // popped: the handle is stale
    /// assert_eq!(lru.pop_lru(), Some(1));
    /// assert_eq!(lru.pop_lru(), None);
    /// ```
    pub fn touch(&mut self, h: LruHandle) -> bool {
        if self.get(h).is_none() {
            return false;
        }
        if self.tail != h.slot {
            self.unlink(h.slot);
            self.link_at_tail(h.slot);
        }
        true
    }

    /// Stops tracking the unit behind `h`, returning it; `None` if the
    /// handle is stale.
    pub fn remove(&mut self, h: LruHandle) -> Option<T> {
        self.get(h)?;
        self.unlink(h.slot);
        self.release(h.slot)
    }

    /// Removes and returns the least recently used unit.
    pub fn pop_lru(&mut self) -> Option<T> {
        let slot = self.head;
        if slot == NIL {
            return None;
        }
        self.unlink(slot);
        self.release(slot)
    }

    /// Returns the least recently used unit without removing it.
    pub fn peek_lru(&self) -> Option<&T> {
        self.cells.get(self.head as usize)?.item.as_ref()
    }

    /// The unit behind `h`; `None` if the handle is stale.
    pub fn get(&self, h: LruHandle) -> Option<&T> {
        let cell = self.cells.get(h.slot as usize)?;
        (cell.gen == h.gen).then_some(cell.item.as_ref()).flatten()
    }

    /// Iterates tracked units with their handles, least recently used
    /// first.
    pub fn iter(&self) -> impl Iterator<Item = (LruHandle, &T)> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            let cell = self.cells.get(cur as usize)?;
            let h = LruHandle {
                slot: cur,
                gen: cell.gen,
            };
            cur = cell.next;
            Some((h, cell.item.as_ref()?))
        })
    }

    fn link_at_tail(&mut self, slot: u32) {
        let old_tail = self.tail;
        let cell = &mut self.cells[slot as usize];
        cell.prev = old_tail;
        cell.next = NIL;
        match self.cells.get_mut(old_tail as usize) {
            Some(t) => t.next = slot,
            None => self.head = slot,
        }
        self.tail = slot;
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let cell = &self.cells[slot as usize];
            (cell.prev, cell.next)
        };
        match self.cells.get_mut(prev as usize) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.cells.get_mut(next as usize) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    /// Vacates an already unlinked cell.
    fn release(&mut self, slot: u32) -> Option<T> {
        let cell = &mut self.cells[slot as usize];
        cell.gen = cell.gen.wrapping_add(1);
        self.free.push(slot);
        self.len -= 1;
        cell.item.take()
    }

    /// Exhaustive consistency check of the list against the slab, used by
    /// the paranoid invariant checker (`Engine::check_invariants`): the
    /// links agree in both directions and close at `tail`, the list holds
    /// exactly the live cells, their number is `len`, and the free list
    /// is exactly the vacant cells. Returns one message per problem;
    /// empty means consistent.
    pub fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let live = self.cells.iter().filter(|c| c.item.is_some()).count();
        let (mut cur, mut prev, mut walked) = (self.head, NIL, 0usize);
        while cur != NIL && walked <= self.cells.len() {
            let Some(cell) = self.cells.get(cur as usize).filter(|c| c.item.is_some()) else {
                problems.push(format!("lru list reaches cell {cur}, which is not live"));
                break;
            };
            if cell.prev != prev {
                problems.push(format!(
                    "lru cell {cur} links back to {} but follows {prev}",
                    cell.prev
                ));
            }
            walked += 1;
            prev = cur;
            cur = cell.next;
        }
        if cur == NIL && prev != self.tail {
            problems.push(format!(
                "lru list ends at cell {prev} but the tail is {}",
                self.tail
            ));
        }
        if walked != self.len || live != self.len {
            problems.push(format!(
                "lru counts {} units but the list holds {walked} and the slab {live}",
                self.len
            ));
        }
        let mut free = self.free.clone();
        free.sort_unstable();
        free.dedup();
        let vacant = |i: &u32| {
            self.cells
                .get(*i as usize)
                .is_some_and(|c| c.item.is_none())
        };
        if free.len() != self.free.len()
            || free.len() + live != self.cells.len()
            || !free.iter().all(vacant)
        {
            problems.push(format!(
                "lru free list ({} cells) is not exactly the slab's {} vacant cells",
                self.free.len(),
                self.cells.len() - live
            ));
        }
        problems
    }

    /// Test-only hook: desynchronizes the tracker by splicing the unit
    /// behind `h` out of the list while leaving its cell live, so tests
    /// can prove the paranoid checker notices. Not part of the public
    /// API.
    #[doc(hidden)]
    pub fn debug_desync(&mut self, h: LruHandle) {
        if self.get(h).is_some() {
            self.unlink(h.slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_lru_order() {
        let mut lru = LruTracker::new();
        for id in ["a", "b", "c"] {
            lru.insert(id);
        }
        let order: Vec<_> = lru.iter().map(|(h, id)| (lru.get(h), *id)).collect();
        assert_eq!(
            order,
            [(Some(&"a"), "a"), (Some(&"b"), "b"), (Some(&"c"), "c")]
        );
        assert_eq!(lru.pop_lru(), Some("a"));
        assert_eq!(lru.pop_lru(), Some("b"));
        assert_eq!(lru.pop_lru(), Some("c"));
        assert_eq!(lru.pop_lru(), None);
        assert!(lru.audit().is_empty());
    }

    #[test]
    fn touch_refreshes_position() {
        let mut lru = LruTracker::new();
        let one = lru.insert(1);
        lru.insert(2);
        assert!(lru.touch(one)); // 1 becomes most recent
        assert_eq!(lru.pop_lru(), Some(2));
        assert_eq!(lru.pop_lru(), Some(1));
    }

    #[test]
    fn remove_untracks_and_stales_the_handle() {
        let mut lru = LruTracker::new();
        let x = lru.insert("x");
        let y = lru.insert("y");
        assert_eq!(lru.remove(x), Some("x"));
        assert_eq!(lru.remove(x), None);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.peek_lru(), Some(&"y"));
        assert_eq!(lru.get(y), Some(&"y"));
        // The freed cell is reused; the old handle still does not resolve.
        let z = lru.insert("z");
        assert_eq!(lru.get(x), None);
        assert!(!lru.touch(x));
        assert_eq!(lru.get(z), Some(&"z"));
        assert!(lru.audit().is_empty());
    }

    #[test]
    fn desync_is_audited() {
        let mut lru = LruTracker::new();
        lru.insert(1);
        let two = lru.insert(2);
        lru.insert(3);
        lru.debug_desync(two);
        assert!(!lru.audit().is_empty());
    }
}
