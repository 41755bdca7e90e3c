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
//! (exact handles, so invalidation tears down just those), a log of
//! pending check-source modifications for lazy maintenance, and its
//! computation tick for `snapshot T` expiry.

use crate::types::{JsId, WriteKind};
use crate::updater::UpdaterHandle;
use pequod_store::{Key, KeyRange, UpperBound};
use std::collections::{BTreeMap, HashMap};
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

/// The status ranges of one join: a set of disjoint materialized output
/// ranges.
#[derive(Default, Debug)]
pub struct StatusMap {
    ranges: BTreeMap<Key, JsRange>,
    by_id: HashMap<JsId, Key>,
    next: u64,
}

impl StatusMap {
    /// Creates an empty map.
    pub fn new() -> StatusMap {
        StatusMap::default()
    }

    /// Number of materialized ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True if nothing is materialized.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Inserts a new valid range; the caller guarantees it is disjoint
    /// from existing ranges (it comes from a [`Segment::Gap`]).
    pub fn insert(&mut self, range: KeyRange, computed_at: u64) -> JsId {
        debug_assert!(!range.is_empty());
        debug_assert!(
            self.overlapping(&range).is_empty(),
            "status ranges must stay disjoint"
        );
        let id = JsId(self.next);
        self.next += 1;
        self.by_id.insert(id, range.first.clone());
        self.ranges.insert(
            range.first.clone(),
            JsRange {
                id,
                first: range.first,
                end: range.end,
                state: JsState::Valid,
                computed_at,
                updaters: Vec::new(),
                pending: Vec::new(),
            },
        );
        id
    }

    /// Looks up a range by id.
    pub fn get(&self, id: JsId) -> Option<&JsRange> {
        let first = self.by_id.get(&id)?;
        self.ranges.get(first)
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: JsId) -> Option<&mut JsRange> {
        let first = self.by_id.get(&id)?;
        self.ranges.get_mut(first)
    }

    /// Removes a range by id.
    pub fn remove(&mut self, id: JsId) -> Option<JsRange> {
        let first = self.by_id.remove(&id)?;
        self.ranges.remove(&first)
    }

    /// The ids of ranges overlapping `range`.
    pub fn overlapping(&self, range: &KeyRange) -> Vec<JsId> {
        if range.is_empty() {
            return vec![];
        }
        let mut out = Vec::new();
        if let Some((_, js)) = self
            .ranges
            .range::<Key, _>((Bound::Unbounded, Bound::Excluded(&range.first)))
            .next_back()
        {
            if js.range().overlaps(range) {
                out.push(js.id);
            }
        }
        for (first, js) in self
            .ranges
            .range::<Key, _>((Bound::Included(&range.first), Bound::Unbounded))
        {
            if !range.end.admits(first) {
                break;
            }
            if js.range().overlaps(range) {
                out.push(js.id);
            }
        }
        out
    }

    /// The range containing `key`, if any.
    pub fn covering(&self, key: &Key) -> Option<JsId> {
        let (_, js) = self
            .ranges
            .range::<Key, _>((Bound::Unbounded, Bound::Included(key)))
            .next_back()?;
        js.contains(key).then_some(js.id)
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
        self.ranges.values()
    }

    /// Exhaustive consistency check of the map's internal indexes, used
    /// by the paranoid invariant checker (`Engine::check_invariants`).
    /// Returns one message per problem; empty means consistent.
    pub fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.by_id.len() != self.ranges.len() {
            problems.push(format!(
                "status id-index has {} entries but {} ranges exist",
                self.by_id.len(),
                self.ranges.len()
            ));
        }
        let mut prev: Option<&JsRange> = None;
        for (first, js) in &self.ranges {
            if &js.first != first {
                problems.push(format!(
                    "status range keyed at {first:?} records first = {:?}",
                    js.first
                ));
            }
            if js.range().is_empty() {
                problems.push(format!("status range {:?} is empty", js.id));
            }
            match self.by_id.get(&js.id) {
                Some(k) if k == first => {}
                Some(k) => problems.push(format!(
                    "status id {:?} maps to {k:?}, not its range start {first:?}",
                    js.id
                )),
                None => problems.push(format!("status id {:?} missing from id-index", js.id)),
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: &str, b: &str) -> KeyRange {
        KeyRange::new(a, b)
    }

    #[test]
    fn insert_and_lookup() {
        let mut m = StatusMap::new();
        let a = m.insert(r("b", "f"), 0);
        let b = m.insert(r("m", "p"), 1);
        assert_ne!(a, b);
        assert_eq!(m.get(a).unwrap().range(), r("b", "f"));
        assert_eq!(m.covering(&Key::from("c")), Some(a));
        assert_eq!(m.covering(&Key::from("g")), None);
        assert_eq!(m.covering(&Key::from("m")), Some(b));
        assert!(m.remove(a).is_some());
        assert_eq!(m.covering(&Key::from("c")), None);
    }

    #[test]
    fn segments_classify_gaps_and_covers() {
        let mut m = StatusMap::new();
        let a = m.insert(r("d", "f"), 0);
        let b = m.insert(r("h", "k"), 0);
        let segs = m.segments(&r("b", "z"));
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
        let mut m = StatusMap::new();
        let a = m.insert(r("b", "f"), 0);
        // clip starts inside the covered range
        let segs = m.segments(&r("d", "h"));
        assert_eq!(segs, vec![Segment::Covered(a), Segment::Gap(r("f", "h"))]);
        // clip entirely inside
        let segs = m.segments(&r("c", "e"));
        assert_eq!(segs, vec![Segment::Covered(a)]);
    }

    #[test]
    fn segments_of_empty_map_is_one_gap() {
        let m = StatusMap::new();
        assert_eq!(m.segments(&r("a", "b")), vec![Segment::Gap(r("a", "b"))]);
        assert!(m.segments(&r("b", "a")).is_empty());
    }

    #[test]
    fn unbounded_cover_short_circuits() {
        let mut m = StatusMap::new();
        let a = m.insert(KeyRange::with_bound("m", UpperBound::Unbounded), 0);
        let segs = m.segments(&KeyRange::with_bound("a", UpperBound::Unbounded));
        assert_eq!(segs, vec![Segment::Gap(r("a", "m")), Segment::Covered(a)]);
    }

    #[test]
    fn snapshot_expiry() {
        let mut m = StatusMap::new();
        let a = m.insert(r("a", "b"), 100);
        let js = m.get(a).unwrap();
        assert!(!js.snapshot_expired(30, 129));
        assert!(js.snapshot_expired(30, 130));
    }
}
