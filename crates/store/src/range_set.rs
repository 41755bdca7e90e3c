//! A set of disjoint key ranges with union/cover queries.
//!
//! Used to track which parts of a remote or database-backed table are
//! resident in the cache (§3.3: "the data is loaded and metadata is
//! installed to indicate its presence"), and which parts of an output
//! range are already materialized.

use crate::key::Key;
use crate::range::{KeyRange, UpperBound};
use std::collections::BTreeMap;
use std::ops::Bound;

/// A normalized set of disjoint, non-adjacent key ranges.
#[derive(Clone, Default, Debug)]
pub struct RangeSet {
    // first -> end; invariant: disjoint and non-touching, sorted.
    ranges: BTreeMap<Key, UpperBound>,
}

impl RangeSet {
    /// Creates an empty set.
    pub fn new() -> RangeSet {
        RangeSet::default()
    }

    /// Number of maximal disjoint ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True if the set covers no keys.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The maximal ranges in order, borrowed: each one's first key and
    /// its end.
    pub fn spans(&self) -> impl Iterator<Item = (&Key, &UpperBound)> + '_ {
        self.ranges.iter()
    }

    /// Iterates the maximal ranges in order.
    pub fn iter(&self) -> impl Iterator<Item = KeyRange> + '_ {
        self.ranges.iter().map(|(first, end)| KeyRange {
            first: first.clone(),
            end: end.clone(),
        })
    }

    /// Adds a range, merging with any overlapping or adjacent ranges.
    pub fn add(&mut self, range: &KeyRange) {
        if range.is_empty() {
            return;
        }
        let mut first = range.first.clone();
        let mut end = range.end.clone();
        // Absorb a predecessor that touches us.
        if let Some((pf, pe)) = self
            .ranges
            .range::<Key, _>((Bound::Unbounded, Bound::Included(&first)))
            .next_back()
            .map(|(k, v)| (k.clone(), v.clone()))
        {
            let touches = match &pe {
                UpperBound::Excluded(e) => e >= &first,
                UpperBound::Unbounded => true,
            };
            if touches {
                self.ranges.remove(&pf);
                first = pf;
                end = end.max(pe);
            }
        }
        // Absorb successors that we touch.
        loop {
            let next = self
                .ranges
                .range::<Key, _>((Bound::Included(&first), Bound::Unbounded))
                .next()
                .map(|(k, v)| (k.clone(), v.clone()));
            match next {
                Some((nf, ne)) => {
                    let touches = match &end {
                        UpperBound::Excluded(e) => e >= &nf,
                        UpperBound::Unbounded => true,
                    };
                    if touches {
                        self.ranges.remove(&nf);
                        end = end.max(ne);
                    } else {
                        break;
                    }
                }
                None => break,
            }
        }
        self.ranges.insert(first, end);
    }

    /// Removes a range from the set (splitting covering ranges).
    pub fn remove(&mut self, range: &KeyRange) {
        if range.is_empty() {
            return;
        }
        // Find every stored range overlapping `range`.
        let mut affected: Vec<(Key, UpperBound)> = Vec::new();
        if let Some((pf, pe)) = self
            .ranges
            .range::<Key, _>((Bound::Unbounded, Bound::Excluded(&range.first)))
            .next_back()
            .map(|(k, v)| (k.clone(), v.clone()))
        {
            if (KeyRange {
                first: pf.clone(),
                end: pe.clone(),
            })
            .overlaps(range)
            {
                affected.push((pf, pe));
            }
        }
        for (f, e) in self
            .ranges
            .range::<Key, _>((Bound::Included(&range.first), Bound::Unbounded))
        {
            if !range.end.admits(f) {
                break;
            }
            affected.push((f.clone(), e.clone()));
        }
        for (f, e) in affected {
            self.ranges.remove(&f);
            let whole = KeyRange { first: f, end: e };
            for piece in whole.subtract(range) {
                self.ranges.insert(piece.first, piece.end);
            }
        }
    }

    /// True if `key` is covered.
    pub fn contains(&self, key: &Key) -> bool {
        self.ranges
            .range::<Key, _>((Bound::Unbounded, Bound::Included(key)))
            .next_back()
            .map(|(_, end)| end.admits(key))
            .unwrap_or(false)
    }

    /// True if the whole `range` is covered.
    pub fn covers(&self, range: &KeyRange) -> bool {
        self.uncovered(range).is_empty()
    }

    /// The parts of `range` not covered by the set.
    pub fn uncovered(&self, range: &KeyRange) -> Vec<KeyRange> {
        if range.is_empty() {
            return vec![];
        }
        let mut gaps = Vec::new();
        let mut cursor = range.first.clone();
        // Start with a possible covering predecessor.
        let mut candidates: Vec<(Key, UpperBound)> = Vec::new();
        if let Some((pf, pe)) = self
            .ranges
            .range::<Key, _>((Bound::Unbounded, Bound::Included(&cursor)))
            .next_back()
            .map(|(k, v)| (k.clone(), v.clone()))
        {
            candidates.push((pf, pe));
        }
        for (f, e) in self
            .ranges
            .range::<Key, _>((Bound::Excluded(&cursor), Bound::Unbounded))
        {
            if !range.end.admits(f) {
                break;
            }
            candidates.push((f.clone(), e.clone()));
        }
        let mut done = false;
        for (f, e) in candidates {
            if f > cursor {
                let gap = KeyRange {
                    first: cursor.clone(),
                    end: UpperBound::Excluded(f.clone()).min(range.end.clone()),
                };
                if !gap.is_empty() {
                    gaps.push(gap);
                }
            }
            match &e {
                UpperBound::Unbounded => {
                    done = true;
                    break;
                }
                UpperBound::Excluded(ek) => {
                    if ek > &cursor {
                        cursor = ek.clone();
                    }
                    if !range.end.admits(&cursor) {
                        done = true;
                        break;
                    }
                }
            }
        }
        if !done {
            let tail = KeyRange {
                first: cursor,
                end: range.end.clone(),
            };
            if !tail.is_empty() {
                gaps.push(tail);
            }
        }
        gaps
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: &str, b: &str) -> KeyRange {
        KeyRange::new(a, b)
    }

    #[test]
    fn add_merges_overlapping() {
        let mut s = RangeSet::new();
        s.add(&r("b", "d"));
        s.add(&r("f", "h"));
        assert_eq!(s.len(), 2);
        s.add(&r("c", "g")); // bridges both
        assert_eq!(s.len(), 1);
        assert!(s.covers(&r("b", "h")));
        assert!(!s.covers(&r("a", "h")));
    }

    #[test]
    fn add_merges_adjacent() {
        let mut s = RangeSet::new();
        s.add(&r("a", "b"));
        s.add(&r("b", "c"));
        assert_eq!(s.len(), 1);
        assert!(s.covers(&r("a", "c")));
    }

    #[test]
    fn uncovered_reports_gaps() {
        let mut s = RangeSet::new();
        s.add(&r("b", "d"));
        s.add(&r("f", "h"));
        let gaps = s.uncovered(&r("a", "j"));
        assert_eq!(gaps, vec![r("a", "b"), r("d", "f"), r("h", "j")]);
        assert!(s.uncovered(&r("b", "d")).is_empty());
        assert_eq!(s.uncovered(&r("c", "g")), vec![r("d", "f")]);
    }

    #[test]
    fn contains_points() {
        let mut s = RangeSet::new();
        s.add(&r("b", "d"));
        assert!(s.contains(&Key::from("b")));
        assert!(s.contains(&Key::from("c")));
        assert!(!s.contains(&Key::from("d")));
        assert!(!s.contains(&Key::from("a")));
    }

    #[test]
    fn remove_splits() {
        let mut s = RangeSet::new();
        s.add(&r("a", "z"));
        s.remove(&r("f", "h"));
        assert_eq!(s.len(), 2);
        assert!(s.covers(&r("a", "f")));
        assert!(s.covers(&r("h", "z")));
        assert!(!s.contains(&Key::from("g")));
    }

    #[test]
    fn unbounded_ranges_work() {
        let mut s = RangeSet::new();
        s.add(&KeyRange::with_bound("m", UpperBound::Unbounded));
        assert!(s.covers(&r("n", "z")));
        assert!(s.contains(&Key::from(vec![0xffu8; 3])));
        let gaps = s.uncovered(&KeyRange::all());
        assert_eq!(gaps, vec![r("", "m")]);
        s.remove(&r("p", "q"));
        assert!(!s.contains(&Key::from("p")));
        assert!(s.contains(&Key::from("q")));
    }

    #[test]
    fn empty_set_is_all_gap() {
        let s = RangeSet::new();
        assert_eq!(s.uncovered(&r("a", "b")), vec![r("a", "b")]);
        assert!(!s.covers(&r("a", "b")));
        assert!(s.covers(&r("a", "a"))); // empty range trivially covered
    }
}
