//! Model-based property test of the join status map: random insert /
//! remove / lookup sequences over a small key alphabet must agree with
//! a naive `Vec` of live ranges — same `get`, `covering`, `overlapping`
//! and `segments` answers, the single-range fast path (`sole_cover`)
//! agreeing with `segments` on every clip, ids that went stale never
//! resolving even after their slab cell is reused, and the bookkeeping
//! audit clean after every step.

// Test-only crate: shared helpers sit outside #[test] functions, so
// clippy's allow-unwrap-in-tests does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use pequod_core::status::{Segment, StatusMap};
use pequod_core::JsId;
use pequod_store::{Key, KeyRange, LruTracker, UpperBound};
use proptest::prelude::*;

const ALPHABET: [&str; 9] = ["", "a", "b", "b|", "c", "c|x", "d", "e", "f"];

fn key(i: usize) -> Key {
    Key::from(ALPHABET[i % ALPHABET.len()])
}

/// `[lo, hi)` over the alphabet; `hi` past the alphabet means unbounded.
fn range(lo: usize, hi: usize) -> KeyRange {
    match ALPHABET.get(hi) {
        Some(end) => KeyRange::new(key(lo), *end),
        None => KeyRange::with_bound(key(lo), UpperBound::Unbounded),
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert(usize, usize),
    /// Remove the `n`-th id ever issued (live or stale).
    Remove(usize),
    /// Look up the `n`-th id ever issued (live or stale).
    Get(usize),
    Covering(usize),
    Overlapping(usize, usize),
    Segments(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let bound = 0..ALPHABET.len() + 1;
    let pair = (0..ALPHABET.len(), bound);
    prop_oneof![
        pair.clone().prop_map(|(a, b)| Op::Insert(a, b)),
        pair.clone().prop_map(|(a, b)| Op::Insert(a, b)),
        (0..64usize).prop_map(Op::Remove),
        (0..64usize).prop_map(Op::Get),
        (0..ALPHABET.len()).prop_map(Op::Covering),
        pair.clone().prop_map(|(a, b)| Op::Overlapping(a, b)),
        pair.prop_map(|(a, b)| Op::Segments(a, b)),
    ]
}

/// The naive classification of `clip` against disjoint live ranges.
fn naive_segments(live: &[(JsId, KeyRange)], clip: &KeyRange) -> Vec<Segment> {
    let mut sorted: Vec<&(JsId, KeyRange)> =
        live.iter().filter(|(_, r)| r.overlaps(clip)).collect();
    sorted.sort_by(|a, b| a.1.first.cmp(&b.1.first));
    let mut out = Vec::new();
    let mut cursor = UpperBound::Excluded(clip.first.clone());
    for (id, r) in sorted {
        let gap = KeyRange::with_bound(
            cursor.as_key().unwrap().clone(),
            UpperBound::Excluded(r.first.clone()),
        );
        if !gap.is_empty() {
            out.push(Segment::Gap(gap));
        }
        out.push(Segment::Covered(*id));
        cursor = r.end.clone();
        if cursor == UpperBound::Unbounded {
            return out;
        }
    }
    let tail = KeyRange::with_bound(cursor.as_key().unwrap().clone(), clip.end.clone());
    if !tail.is_empty() {
        out.push(Segment::Gap(tail));
    }
    out
}

fn run(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut map = StatusMap::new();
    let mut lru: LruTracker<JsId> = LruTracker::new();
    let mut live: Vec<(JsId, KeyRange)> = Vec::new();
    let mut issued: Vec<JsId> = Vec::new();
    for op in ops {
        match *op {
            Op::Insert(lo, hi) => {
                let r = range(lo, hi);
                let clash = live.iter().any(|(_, l)| l.overlaps(&r));
                prop_assert_eq!(!map.overlapping(&r).is_empty(), clash);
                if r.is_empty() || clash {
                    continue;
                }
                let id = map.insert(r.clone(), issued.len() as u64, |id| lru.insert(id));
                prop_assert!(!issued.contains(&id), "id {:?} was issued before", id);
                issued.push(id);
                live.push((id, r));
            }
            Op::Remove(n) => {
                let Some(&id) = issued.get(n % issued.len().max(1)) else {
                    continue;
                };
                let at = live.iter().position(|(l, _)| *l == id);
                let removed = map.remove(id);
                prop_assert_eq!(removed.is_some(), at.is_some());
                if let (Some(js), Some(at)) = (removed, at) {
                    prop_assert_eq!(js.range(), live.swap_remove(at).1);
                    prop_assert_eq!(lru.remove(js.lru), Some(id));
                }
            }
            Op::Get(n) => {
                let Some(&id) = issued.get(n % issued.len().max(1)) else {
                    continue;
                };
                let want = live.iter().find(|(l, _)| *l == id).map(|(_, r)| r.clone());
                prop_assert_eq!(map.get(id).map(|js| js.range()), want.clone());
                prop_assert_eq!(map.get_mut(id).map(|js| js.range()), want);
            }
            Op::Covering(k) => {
                let k = key(k);
                let want = live.iter().find(|(_, r)| r.contains(&k)).map(|(id, _)| *id);
                prop_assert_eq!(map.covering(&k), want, "covering {:?}", k);
            }
            Op::Overlapping(lo, hi) => {
                let q = range(lo, hi);
                let mut want: Vec<&(JsId, KeyRange)> =
                    live.iter().filter(|(_, r)| r.overlaps(&q)).collect();
                want.sort_by(|a, b| a.1.first.cmp(&b.1.first));
                let want: Vec<JsId> = want.into_iter().map(|(id, _)| *id).collect();
                prop_assert_eq!(map.overlapping(&q), want, "overlapping {:?}", q);
            }
            Op::Segments(lo, hi) => {
                let clip = range(lo, hi);
                let segs = map.segments(&clip);
                prop_assert_eq!(&segs, &naive_segments(&live, &clip), "segments {:?}", clip);
                // The fast path answers exactly the one-covered-range case.
                let sole = match segs[..] {
                    [Segment::Covered(id)] => Some(id),
                    _ => None,
                };
                prop_assert_eq!(map.sole_cover(&clip), sole, "sole_cover {:?}", clip);
                // Pointwise: every key of the clip falls in the segment
                // that `covering` names for it.
                for k in (0..ALPHABET.len()).map(key).filter(|k| clip.contains(k)) {
                    let in_gap = segs
                        .iter()
                        .any(|s| matches!(s, Segment::Gap(g) if g.contains(&k)));
                    prop_assert_eq!(in_gap, map.covering(&k).is_none());
                    if let Some(id) = map.covering(&k) {
                        prop_assert!(segs.contains(&Segment::Covered(id)));
                    }
                }
            }
        }
        prop_assert_eq!(map.len(), live.len());
        prop_assert_eq!(map.iter().count(), live.len());
        prop_assert_eq!(map.audit(), Vec::<String>::new());
        for &id in &issued {
            let is_live = live.iter().any(|(l, _)| *l == id);
            prop_assert_eq!(map.get(id).is_some(), is_live, "id {:?}", id);
            if let Some(js) = map.get(id) {
                prop_assert_eq!(js.id, id);
                prop_assert_eq!(lru.get(js.lru), Some(&id));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn status_map_matches_naive_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        run(&ops)?;
    }
}

#[test]
fn a_stale_id_does_not_resolve_to_the_range_that_reused_its_cell() {
    let mut map = StatusMap::new();
    let mut lru: LruTracker<JsId> = LruTracker::new();
    let old = map.insert(range(1, 2), 0, |id| lru.insert(id));
    assert!(map.remove(old).is_some());
    let new = map.insert(range(4, 6), 0, |id| lru.insert(id));
    assert_eq!(old.slot, new.slot, "the freed cell is reused");
    assert_ne!(old, new);
    assert!(map.get(old).is_none() && map.remove(old).is_none());
    assert_eq!(map.get(new).unwrap().range(), range(4, 6));
    assert_eq!(map.audit(), Vec::<String>::new());
}
