//! Join status ranges (§3.2).
//!
//! "A join status range indicates whether a range of keys is up to date
//! with respect to the cache joins whose outputs overlap that range."
//! This implementation keeps one status map per installed join (rather
//! than one global cover); the maps are equivalent to the paper's single
//! cover restricted to that join and simplify interleaved joins, whose
//! outputs share tables but never keys.
//!
//! Each materialized range owns the updater entries installed for it
//! (exact handles, so invalidation tears down just those), its handle
//! in the engine's LRU list, a log of pending check-source
//! modifications for lazy maintenance, and its computation tick for
//! `snapshot T` expiry.
//!
//! Ranges live in a slab addressed by [`JsId`] — the write path resolves
//! an updater entry's target range with one indexed load — and one
//! ordered index over range starts serves the range queries of the read
//! path (`covering`, `overlapping`, `segments`).

use crate::types::{JsId, WriteKind};
use crate::updater::UpdaterHandle;
use pequod_store::{Key, KeyRange, LruHandle, UpperBound};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Validity of a materialized range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JsState {
    /// Outputs reflect all source modifications (modulo the pending log).
    Valid,
    /// Completely invalidated: outputs and updaters must be rebuilt.
    Invalid,
}

/// A check-source modification logged for lazy application (§3.2:
/// "partial invalidation instead logs the source modification into an
/// entry on the relevant join status range").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoggedMod {
    /// Index of the modified source within the join.
    pub source_idx: usize,
    /// The modified source key.
    pub key: Key,
    /// Kind of modification.
    pub kind: WriteKind,
}

/// One materialized output range of one join.
#[derive(Clone, Debug)]
pub struct JsRange {
    /// Stable id.
    pub id: JsId,
    /// Inclusive start of the output range.
    pub first: Key,
    /// Exclusive end of the output range.
    pub end: UpperBound,
    /// Validity.
    pub state: JsState,
    /// Engine tick at which the range was computed (snapshot expiry).
    pub computed_at: u64,
    /// This range's place in the engine's LRU list: a read that hits the
    /// range touches it through this handle, teardown removes it.
    pub lru: LruHandle,
    /// Exactly the live updater entries installed for this range: the
    /// range owns them, and teardown removes them through these handles.
    pub updaters: Vec<UpdaterHandle>,
    /// Pending lazily-applied source modifications.
    pub pending: Vec<LoggedMod>,
}

impl JsRange {
    /// The output range covered.
    pub fn range(&self) -> KeyRange {
        KeyRange {
            first: self.first.clone(),
            end: self.end.clone(),
        }
    }

    /// True if `key` lies inside the output range covered.
    pub fn contains(&self, key: &Key) -> bool {
        *key >= self.first && self.end.admits(key)
    }

    /// True if the output range covered shares a key with `range`.
    pub fn overlaps(&self, range: &KeyRange) -> bool {
        !range.is_empty() && self.end.admits(&range.first) && range.end.admits(&self.first)
    }

    /// True if a snapshot range computed at `computed_at` with lifetime
    /// `ttl` has expired at `now`.
    pub fn snapshot_expired(&self, ttl: u64, now: u64) -> bool {
        now >= self.computed_at.saturating_add(ttl)
    }
}

/// A piece of a clip range classified against the status map.
#[derive(Clone, Debug, PartialEq)]
pub enum Segment {
    /// Covered by the given materialized range (whole range returned;
    /// it may extend beyond the clip).
    Covered(JsId),
    /// Not covered by any materialized range.
    Gap(KeyRange),
}

/// One slab cell; `range` is `None` while the cell is on the free list.
#[derive(Debug, Default)]
struct Cell {
    /// Bumped on every removal, so stale ids never resolve.
    gen: u32,
    range: Option<JsRange>,
}

/// The status ranges of one join: a set of disjoint materialized output
/// ranges.
#[derive(Default, Debug)]
pub struct StatusMap {
    cells: Vec<Cell>,
    free: Vec<u32>,
    /// Range start → id, for range queries only; lookups by id never
    /// touch it.
    order: BTreeMap<Key, JsId>,
}

impl StatusMap {
    /// Creates an empty map.
    pub fn new() -> StatusMap {
        StatusMap::default()
    }

    /// Number of materialized ranges.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if nothing is materialized.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Inserts a new valid range; the caller guarantees it is disjoint
    /// from existing ranges (it comes from a [`Segment::Gap`]).
    /// `track` registers the new id with the engine's LRU list and
    /// returns the handle the range keeps.
    pub fn insert(
        &mut self,
        range: KeyRange,
        computed_at: u64,
        track: impl FnOnce(JsId) -> LruHandle,
    ) -> JsId {
        debug_assert!(!range.is_empty());
        debug_assert!(
            self.overlapping(&range).is_empty(),
            "status ranges must stay disjoint"
        );
        let slot = self.free.pop().unwrap_or(self.cells.len() as u32);
        if slot as usize == self.cells.len() {
            self.cells.push(Cell::default());
        }
        let cell = &mut self.cells[slot as usize];
        let id = JsId {
            slot,
            gen: cell.gen,
        };
        self.order.insert(range.first.clone(), id);
        cell.range = Some(JsRange {
            id,
            first: range.first,
            end: range.end,
            state: JsState::Valid,
            computed_at,
            lru: track(id),
            updaters: Vec::new(),
            pending: Vec::new(),
        });
        id
    }

    /// Looks up a range by id: one indexed load. `None` if the id is
    /// stale.
    #[inline]
    pub fn get(&self, id: JsId) -> Option<&JsRange> {
        let cell = self.cells.get(id.slot as usize)?;
        (cell.gen == id.gen)
            .then_some(cell.range.as_ref())
            .flatten()
    }

    /// Mutable lookup by id.
    #[inline]
    pub fn get_mut(&mut self, id: JsId) -> Option<&mut JsRange> {
        let cell = self.cells.get_mut(id.slot as usize)?;
        (cell.gen == id.gen)
            .then_some(cell.range.as_mut())
            .flatten()
    }

    /// Removes a range by id.
    pub fn remove(&mut self, id: JsId) -> Option<JsRange> {
        let cell = self.cells.get_mut(id.slot as usize)?;
        if cell.gen != id.gen {
            return None;
        }
        let js = cell.range.take()?;
        cell.gen = cell.gen.wrapping_add(1);
        self.free.push(id.slot);
        self.order.remove(&js.first);
        Some(js)
    }

    /// The last range starting at or before `key`, if any.
    fn at_or_before(&self, key: &Key) -> Option<&JsRange> {
        let (_, &id) = self
            .order
            .range::<Key, _>((Bound::Unbounded, Bound::Included(key)))
            .next_back()?;
        self.get(id)
    }

    /// The ids of ranges overlapping `range`.
    pub fn overlapping(&self, range: &KeyRange) -> Vec<JsId> {
        if range.is_empty() {
            return vec![];
        }
        let mut out = Vec::new();
        let mut from = Bound::Included(&range.first);
        if let Some(js) = self.at_or_before(&range.first) {
            if js.overlaps(range) {
                out.push(js.id);
            }
            from = Bound::Excluded(&js.first);
        }
        for (first, &id) in self.order.range::<Key, _>((from, Bound::Unbounded)) {
            if !range.end.admits(first) {
                break;
            }
            out.push(id);
        }
        out
    }

    /// The range containing `key`, if any.
    pub fn covering(&self, key: &Key) -> Option<JsId> {
        let js = self.at_or_before(key)?;
        js.contains(key).then_some(js.id)
    }

    /// The one range covering all of `clip`, if there is one: the answer
    /// to almost every warm read, found with a single ordered lookup.
    /// `Some(id)` exactly when [`StatusMap::segments`] would return
    /// `[Covered(id)]`.
    pub fn sole_cover(&self, clip: &KeyRange) -> Option<JsId> {
        if clip.is_empty() {
            return None;
        }
        let js = self.at_or_before(&clip.first)?;
        (js.end.admits(&clip.first) && clip.end <= js.end).then_some(js.id)
    }

    /// Classifies `clip` into covered ranges and gaps, in key order.
    pub fn segments(&self, clip: &KeyRange) -> Vec<Segment> {
        if clip.is_empty() {
            return vec![];
        }
        let mut out = Vec::new();
        let mut cursor = clip.first.clone();
        for id in self.overlapping(clip) {
            let Some(js) = self.get(id) else { continue };
            if js.first > cursor {
                out.push(Segment::Gap(KeyRange {
                    first: cursor.clone(),
                    end: UpperBound::Excluded(js.first.clone()),
                }));
            }
            out.push(Segment::Covered(id));
            match &js.end {
                UpperBound::Unbounded => return out,
                UpperBound::Excluded(e) => cursor = cursor.max(e.clone()),
            }
        }
        let tail = KeyRange {
            first: cursor,
            end: clip.end.clone(),
        };
        if !tail.is_empty() {
            out.push(Segment::Gap(tail));
        }
        out
    }

    /// Iterates all ranges in key order.
    pub fn iter(&self) -> impl Iterator<Item = &JsRange> {
        self.order.values().filter_map(|&id| self.get(id))
    }

    /// Exhaustive consistency check of the slab against the ordered
    /// index and the free list, used by the paranoid invariant checker
    /// (`Engine::check_invariants`): every indexed start resolves to a
    /// live cell holding a range that starts there and records that id
    /// at the cell's current generation; no live cell is unindexed; the
    /// free list is exactly the vacant cells; ranges are non-empty and
    /// disjoint. Returns one message per problem; empty means
    /// consistent.
    pub fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let live = self.cells.iter().filter(|c| c.range.is_some()).count();
        if live != self.order.len() {
            problems.push(format!(
                "status slab holds {live} ranges but the ordered index {}",
                self.order.len()
            ));
        }
        for (slot, cell) in self.cells.iter().enumerate() {
            let Some(js) = &cell.range else { continue };
            let want = JsId {
                slot: slot as u32,
                gen: cell.gen,
            };
            if js.id != want {
                problems.push(format!(
                    "status cell {slot} at generation {} holds a range recording id {:?}",
                    cell.gen, js.id
                ));
            }
        }
        let mut free = self.free.clone();
        free.sort_unstable();
        free.dedup();
        let vacant = |i: &u32| {
            self.cells
                .get(*i as usize)
                .is_some_and(|c| c.range.is_none())
        };
        if free.len() != self.free.len()
            || free.len() + live != self.cells.len()
            || !free.iter().all(vacant)
        {
            problems.push(format!(
                "status free list ({} cells) is not exactly the slab's {} vacant cells",
                self.free.len(),
                self.cells.len() - live
            ));
        }
        let mut prev: Option<&JsRange> = None;
        for (first, &id) in &self.order {
            let Some(js) = self.get(id) else {
                problems.push(format!(
                    "status index maps {first:?} to {id:?}, which resolves to no live range"
                ));
                continue;
            };
            if &js.first != first {
                problems.push(format!(
                    "status range indexed at {first:?} records first = {:?}",
                    js.first
                ));
            }
            if js.range().is_empty() {
                problems.push(format!("status range {:?} is empty", js.id));
            }
            if let Some(p) = prev {
                if p.end.admits(&js.first) {
                    problems.push(format!(
                        "status ranges overlap: {:?} and {:?}",
                        p.range(),
                        js.range()
                    ));
                }
            }
            prev = Some(js);
        }
        problems
    }

    /// Test-only hook: bumps the generation of `id`'s cell behind the
    /// ordered index's back (as a removal that forgot the index would),
    /// so tests can prove the audit notices. Not part of the public API.
    #[doc(hidden)]
    pub fn debug_skew_generation(&mut self, id: JsId) {
        if let Some(cell) = self.cells.get_mut(id.slot as usize) {
            cell.gen = cell.gen.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use pequod_store::LruTracker;

    fn r(a: &str, b: &str) -> KeyRange {
        KeyRange::new(a, b)
    }

    /// A map plus the LRU list its ranges register with.
    struct Tracked {
        m: StatusMap,
        lru: LruTracker<JsId>,
    }

    impl Tracked {
        fn new() -> Tracked {
            Tracked {
                m: StatusMap::new(),
                lru: LruTracker::new(),
            }
        }

        fn insert(&mut self, range: KeyRange, at: u64) -> JsId {
            self.m.insert(range, at, |id| self.lru.insert(id))
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = Tracked::new();
        let a = t.insert(r("b", "f"), 0);
        let b = t.insert(r("m", "p"), 1);
        assert_ne!(a, b);
        assert_eq!(t.m.get(a).unwrap().range(), r("b", "f"));
        assert_eq!(t.m.covering(&Key::from("c")), Some(a));
        assert_eq!(t.m.covering(&Key::from("g")), None);
        assert_eq!(t.m.covering(&Key::from("m")), Some(b));
        assert_eq!(t.lru.get(t.m.get(b).unwrap().lru), Some(&b));
        assert!(t.m.remove(a).is_some());
        assert_eq!(t.m.covering(&Key::from("c")), None);
        assert!(t.m.audit().is_empty());
    }

    #[test]
    fn stale_id_never_resolves_to_a_reused_cell() {
        let mut t = Tracked::new();
        let a = t.insert(r("b", "f"), 0);
        assert!(t.m.remove(a).is_some());
        let b = t.insert(r("m", "p"), 1);
        assert_eq!((a.slot, a.gen + 1), (b.slot, b.gen), "the cell is reused");
        assert!(t.m.get(a).is_none() && t.m.get_mut(a).is_none());
        assert!(t.m.remove(a).is_none());
        assert_eq!(t.m.get(b).unwrap().range(), r("m", "p"));
        assert!(t.m.audit().is_empty());
    }

    #[test]
    fn sole_cover_is_the_single_segment_case() {
        let mut t = Tracked::new();
        let a = t.insert(r("b", "f"), 0);
        let z = t.insert(KeyRange::with_bound("x", UpperBound::Unbounded), 0);
        for (clip, want) in [
            (r("b", "f"), Some(a)),
            (r("c", "e"), Some(a)),
            (r("c", "g"), None),
            (r("a", "c"), None),
            (r("f", "g"), None),
            (r("e", "c"), None),
            (r("y", "z"), Some(z)),
            (KeyRange::with_bound("y", UpperBound::Unbounded), Some(z)),
            (KeyRange::with_bound("c", UpperBound::Unbounded), None),
        ] {
            assert_eq!(t.m.sole_cover(&clip), want, "{clip:?}");
            let one = want.map(|id| vec![Segment::Covered(id)]);
            assert_eq!(
                one.is_some_and(|s| s == t.m.segments(&clip)),
                want.is_some()
            );
        }
    }

    #[test]
    fn skewed_generation_is_audited() {
        let mut t = Tracked::new();
        let a = t.insert(r("b", "f"), 0);
        t.m.debug_skew_generation(a);
        let v = t.m.audit();
        assert!(
            v.iter().any(|m| m.contains("resolves to no live range")),
            "{v:?}"
        );
    }

    #[test]
    fn segments_classify_gaps_and_covers() {
        let mut t = Tracked::new();
        let a = t.insert(r("d", "f"), 0);
        let b = t.insert(r("h", "k"), 0);
        let segs = t.m.segments(&r("b", "z"));
        assert_eq!(
            segs,
            vec![
                Segment::Gap(r("b", "d")),
                Segment::Covered(a),
                Segment::Gap(r("f", "h")),
                Segment::Covered(b),
                Segment::Gap(r("k", "z")),
            ]
        );
    }

    #[test]
    fn segments_with_partial_overlap_at_start() {
        let mut t = Tracked::new();
        let a = t.insert(r("b", "f"), 0);
        // clip starts inside the covered range
        let segs = t.m.segments(&r("d", "h"));
        assert_eq!(segs, vec![Segment::Covered(a), Segment::Gap(r("f", "h"))]);
        // clip entirely inside
        let segs = t.m.segments(&r("c", "e"));
        assert_eq!(segs, vec![Segment::Covered(a)]);
    }

    #[test]
    fn segments_of_empty_map_is_one_gap() {
        let t = Tracked::new();
        assert_eq!(t.m.segments(&r("a", "b")), vec![Segment::Gap(r("a", "b"))]);
        assert!(t.m.segments(&r("b", "a")).is_empty());
    }

    #[test]
    fn unbounded_cover_short_circuits() {
        let mut t = Tracked::new();
        let a = t.insert(KeyRange::with_bound("m", UpperBound::Unbounded), 0);
        let segs =
            t.m.segments(&KeyRange::with_bound("a", UpperBound::Unbounded));
        assert_eq!(segs, vec![Segment::Gap(r("a", "m")), Segment::Covered(a)]);
    }

    #[test]
    fn snapshot_expiry() {
        let mut t = Tracked::new();
        let a = t.insert(r("a", "b"), 100);
        let js = t.m.get(a).unwrap();
        assert!(!js.snapshot_expired(30, 129));
        assert!(js.snapshot_expired(30, 130));
    }
}
