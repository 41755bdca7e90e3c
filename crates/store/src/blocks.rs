//! Dense sorted blocks: the ordered container under every subtable.
//!
//! A subtable (§4.1) is a small range accessed with locality — one Twip
//! timeline, one poster's tweets — and almost all of its writes land at
//! its *end*: an eager `copy` update carries the newest timestamp, a
//! bulk load and a sorted materialization arrive ascending. A B-tree is
//! the wrong shape for that traffic twice over: an append still descends
//! through two or three nodes, and an append-only B-tree splits each full
//! 11-pair leaf 6/5 and never refills the left half, so its leaves sit
//! 6/11 full.
//!
//! [`Blocks`] is a two-level structure instead: a directory (`Vec`) of
//! blocks in key order, each block a sorted `Vec` of at most
//! [`BLOCK_PAIRS`] pairs, each directory entry carrying a copy of its
//! block's first key (the *fence*) so that finding a key's block touches
//! no block.
//!
//! * **Append** — [`Blocks::put`] first compares against the last key.
//!   A greater key is pushed onto the tail block; a full tail is left
//!   full and a fresh block started, so an append-only subtable is 100%
//!   dense except for its tail, and the tail grows geometrically
//!   (1, 4, 8, 16, 32 pairs), so a 3-pair subtable never pays for a
//!   whole block.
//! * **Everything else** — a binary search over the fences (after a look
//!   at the last one: reads want the newest pairs too), then one in the
//!   block; an insert or remove moves at most one block's pairs.
//!   A full block splits into two halves sized to fit, except that a key
//!   past its end starts a fresh block (an ascending run in the middle
//!   stays dense too);
//!   a removal that leaves two neighbours holding half a block between
//!   them merges them, and an emptied block leaves the directory.
//! * **Teardown** — [`Blocks::remove_range`] takes a whole range out in
//!   one pass over the blocks it touches, asking a predicate about each
//!   pair (two joins may interleave their outputs in one subtable, and
//!   an evicted range takes only its own): the container itself
//!   compares keys per block, never per pair, emptied blocks leave the
//!   directory in one compaction, and only then are the survivors merged.
//!   Evicting a timeline costs a walk over its blocks, not a search per
//!   key. The way in is the mirror image: a join's freshly computed
//!   outputs arrive as one ascending run (`Table::put_run`), so the
//!   subtable is looked up once and every pair after the first is the
//!   append above.
//!
//! The directory itself is a flat `Vec`, so adding or dropping a block in
//! the middle moves `len / BLOCK_PAIRS` entries: right for subtables,
//! wrong for an unbounded table filled in shuffled order, which is why
//! `Repr::Flat` stays on `BTreeMap`.
//!
//! # The one constant
//!
//! 2100 timelines behind a `HashMap`, 451k appends of 30-byte keys and
//! 30-byte values in post order (the `twip.post` shape), then each
//! timeline's newest tenth scanned, ten inserts per timeline at shuffled
//! old times, and the same pairs put into a fresh map in one global
//! shuffle. Scratch harness on a 2-vCPU VM, live heap bytes from a
//! counting allocator, medians of three invocations of seven runs (the
//! timings move ±25% between invocations, the bytes not at all):
//!
//! | container | append ns | B/pair | scan ns/pair | mid-insert ns | shuffled fill ns |
//! |---|---|---|---|---|---|
//! | `BTreeMap` | 358 | 122.0 | 85 | 1082 | 852 |
//! | 16-pair blocks | 149 | 69.4 | 76 | 1670 | 1070 |
//! | **32-pair blocks** | 170 | 68.2 | 81 | 1928 | 1201 |
//! | 64-pair blocks | 171 | 68.7 | 84 | 2148 | 1249 |
//!
//! Bytes bottom out at 32: below it the per-block overhead shows (a
//! 56-byte directory entry and an allocator header), above it the slack
//! in every subtable's tail block does. Appends and scans do not tell the
//! sizes apart. The price of a block is the cold mid-insert — five probes
//! 64 bytes apart and up to 2 KiB moved, against a B-tree leaf's 352
//! bytes of keys — and it grows with the block, so the constant stops
//! where the bytes stop improving.

use crate::key::Key;
use crate::range::KeyRange;
use crate::table::Value;

/// Most pairs one block holds: 32 pairs of two 32-byte handles, 2 KiB.
const BLOCK_PAIRS: usize = 32;

struct Block {
    /// A copy of `pairs[0].0`.
    fence: Key,
    /// Sorted, never empty, at most [`BLOCK_PAIRS`] long.
    pairs: Vec<(Key, Value)>,
}

impl Block {
    fn starting_with(key: Key, value: Value) -> Block {
        Block {
            fence: key.clone(),
            pairs: vec![(key, value)],
        }
    }

    fn find(&self, key: &Key) -> Result<usize, usize> {
        self.pairs.binary_search_by(|(k, _)| k.cmp(key))
    }

    fn insert(&mut self, at: usize, key: Key, value: Value) {
        if at == 0 {
            self.fence = key.clone();
        }
        self.pairs.insert(at, (key, value));
    }
}

/// An ordered map of pairs laid out as dense sorted blocks.
pub(crate) struct Blocks {
    dir: Vec<Block>,
    len: usize,
}

impl Blocks {
    /// An empty container. Its directory is sized for the one block most
    /// subtables ever need.
    pub(crate) fn new() -> Blocks {
        Blocks {
            dir: Vec::with_capacity(1),
            len: 0,
        }
    }

    /// True if no pairs are held.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the only block that may hold `key`: the last whose fence
    /// is at or below it, or the first for a key below every fence. The
    /// tail is tried first: reads ask for the newest pairs (a timeline
    /// check), and teardown removes newest-first.
    fn block_for(&self, key: &Key) -> usize {
        match self.dir.last() {
            Some(tail) if tail.fence <= *key => self.dir.len() - 1,
            _ => self
                .dir
                .partition_point(|b| b.fence <= *key)
                .saturating_sub(1),
        }
    }

    /// Inserts or replaces a pair, returning the previous value.
    pub(crate) fn put(&mut self, key: Key, value: Value) -> Option<Value> {
        let newest = self.dir.last().and_then(|tail| tail.pairs.last());
        if newest.is_none_or(|(last, _)| key > *last) {
            self.len += 1;
            match self.dir.last_mut() {
                Some(tail) if tail.pairs.len() < BLOCK_PAIRS => tail.pairs.push((key, value)),
                _ => self.dir.push(Block::starting_with(key, value)),
            }
            return None;
        }
        let b = self.block_for(&key);
        let block = &mut self.dir[b];
        let at = match block.find(&key) {
            Ok(at) => return Some(std::mem::replace(&mut block.pairs[at].1, value)),
            Err(at) => at,
        };
        self.len += 1;
        if block.pairs.len() < BLOCK_PAIRS {
            block.insert(at, key, value);
        } else if at == BLOCK_PAIRS {
            self.dir.insert(b + 1, Block::starting_with(key, value));
        } else {
            const HALF: usize = BLOCK_PAIRS / 2;
            let mut upper = Block {
                fence: block.pairs[HALF].0.clone(),
                pairs: block.pairs.split_off(HALF),
            };
            if at < HALF {
                block.insert(at, key, value);
            } else {
                upper.pairs.reserve_exact(1);
                upper.insert(at - HALF, key, value);
            }
            // Both halves are sized to fit: most never see a second
            // mid-insert, and one that does doubles again.
            block.pairs.shrink_to_fit();
            self.dir.insert(b + 1, upper);
        }
        None
    }

    /// Looks up a key.
    pub(crate) fn get(&self, key: &Key) -> Option<&Value> {
        let block = self.dir.get(self.block_for(key))?;
        let at = block.find(key).ok()?;
        Some(&block.pairs[at].1)
    }

    /// Removes a key, returning its value.
    pub(crate) fn remove(&mut self, key: &Key) -> Option<Value> {
        let b = self.block_for(key);
        let block = self.dir.get_mut(b)?;
        let at = block.find(key).ok()?;
        let (_, value) = block.pairs.remove(at);
        self.len -= 1;
        match block.pairs.first() {
            None => {
                self.dir.remove(b);
            }
            Some((first, _)) => {
                if at == 0 {
                    block.fence = first.clone();
                }
                self.merge_around(b);
            }
        }
        Some(value)
    }

    /// Removes, in one pass over the blocks `range` touches, every pair
    /// of the range that `doomed` accepts, and returns how many went.
    /// `doomed` sees each pair of the range once, in key order, and is
    /// the caller's only look at a pair before it is dropped. A block
    /// left empty leaves the directory (all of them in one compaction,
    /// so tearing a whole subtable down never shifts the directory block
    /// by block), a block that lost its first pair gets a new fence, and
    /// survivors sparse enough to share a block are merged as
    /// [`Blocks::remove`] would have.
    pub(crate) fn remove_range(
        &mut self,
        range: &KeyRange,
        doomed: &mut impl FnMut(&Key, &Value) -> bool,
    ) -> usize {
        let first = self.block_for(&range.first);
        let before = self.len;
        let mut emptied = false;
        let mut end = first;
        for block in self.dir.iter_mut().skip(first) {
            if !range.end.admits(&block.fence) {
                break;
            }
            end += 1;
            // Only the range's first and last blocks can hold pairs
            // outside it.
            let lo = match block.fence < range.first {
                true => block.pairs.partition_point(|(k, _)| *k < range.first),
                false => 0,
            };
            let hi = match block.pairs.last() {
                Some((last, _)) if !range.end.admits(last) => {
                    block.pairs.partition_point(|(k, _)| range.end.admits(k))
                }
                _ => block.pairs.len(),
            };
            let held = block.pairs.len();
            let mut at = 0;
            block.pairs.retain(|(k, v)| {
                let in_range = (lo..hi).contains(&at);
                at += 1;
                !(in_range && doomed(k, v))
            });
            self.len -= held - block.pairs.len();
            match block.pairs.first() {
                None => emptied = true,
                Some((k, _)) if *k != block.fence => block.fence = k.clone(),
                Some(_) => {}
            }
        }
        if emptied {
            let blocks = self.dir.len();
            self.dir.retain(|block| !block.pairs.is_empty());
            end -= blocks - self.dir.len();
        }
        if self.len < before {
            for b in (first..end).rev() {
                self.merge_around(b);
            }
        }
        before - self.len
    }

    /// Merges block `b` with a neighbour if the two hold at most half a
    /// block between them, so scattered removals cannot leave a subtable
    /// as a string of nearly empty 2 KiB blocks. Draining from either end
    /// never merges: the drained block's neighbour is full.
    fn merge_around(&mut self, b: usize) {
        let sparse = |dir: &[Block], left: usize| {
            dir.get(left + 1)
                .is_some_and(|right| dir[left].pairs.len() + right.pairs.len() <= BLOCK_PAIRS / 2)
        };
        let left = if sparse(&self.dir, b) {
            b
        } else if b > 0 && sparse(&self.dir, b - 1) {
            b - 1
        } else {
            return;
        };
        let right = self.dir.remove(left + 1);
        self.dir[left].pairs.extend(right.pairs);
    }

    /// Every pair in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(Key, Value)> {
        self.dir.iter().flat_map(|b| &b.pairs)
    }

    /// Visits the pairs in `range` in key order until the visitor returns
    /// `false`. Returns `false` if the visitor ended the scan.
    pub(crate) fn scan(&self, range: &KeyRange, f: &mut impl FnMut(&Key, &Value) -> bool) -> bool {
        let b = self.block_for(&range.first);
        let Some(block) = self.dir.get(b) else {
            return true;
        };
        let mut skip = block.pairs.partition_point(|(k, _)| *k < range.first);
        for block in &self.dir[b..] {
            // The bound is compared once per block, not once per pair.
            let pairs = &block.pairs[skip..];
            let ends_here = pairs.last().is_some_and(|(k, _)| !range.end.admits(k));
            let pairs = match ends_here {
                true => &pairs[..pairs.partition_point(|(k, _)| range.end.admits(k))],
                false => pairs,
            };
            for (k, v) in pairs {
                if !f(k, v) {
                    return false;
                }
            }
            if ends_here {
                break;
            }
            skip = 0;
        }
        true
    }

    /// Checks every structural invariant against a full walk: no empty
    /// block, none over capacity, keys strictly ascending within and
    /// across blocks, every fence equal to its block's first key, and
    /// the pair counter. Returns one message per problem.
    pub(crate) fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut walked = 0usize;
        let mut prev: Option<&Key> = None;
        for (b, block) in self.dir.iter().enumerate() {
            match block.pairs.first() {
                None => problems.push(format!("block {b} is empty")),
                Some((first, _)) if *first != block.fence => problems.push(format!(
                    "block {b} has fence {:?} but starts at {first:?}",
                    block.fence
                )),
                Some(_) => {}
            }
            if block.pairs.len() > BLOCK_PAIRS {
                problems.push(format!(
                    "block {b} holds {} pairs; capacity is {BLOCK_PAIRS}",
                    block.pairs.len()
                ));
            }
            for (k, _) in &block.pairs {
                if prev.is_some_and(|p| p >= k) {
                    problems.push(format!(
                        "block {b}: key {k:?} does not ascend past {prev:?}"
                    ));
                }
                prev = Some(k);
                walked += 1;
            }
        }
        if walked != self.len {
            problems.push(format!(
                "pair counter says {} but the blocks hold {walked}",
                self.len
            ));
        }
        problems
    }

    /// Test-only hook: files the block holding `key` under the wrong
    /// fence, so tests can prove the auditor notices.
    pub(crate) fn debug_misfile_fence(&mut self, key: &Key) {
        let b = self.block_for(key);
        if let Some(block) = self.dir.get_mut(b) {
            block.fence = block.fence.successor();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::UpperBound;
    use bytes::Bytes;

    fn key(n: usize) -> Key {
        Key::from(format!("t|ann|{n:06}"))
    }

    fn value(n: usize) -> Value {
        Bytes::from(n.to_string().into_bytes())
    }

    /// Keys `0, 2, 4, …` appended in order: odd keys stay free for
    /// mid-inserts.
    fn ascending(pairs: usize) -> Blocks {
        let mut blocks = Blocks::new();
        for n in 0..pairs {
            assert!(blocks.put(key(2 * n), value(n)).is_none());
        }
        blocks
    }

    fn keys_of(blocks: &Blocks) -> Vec<Key> {
        blocks.iter().map(|(k, _)| k.clone()).collect()
    }

    fn scanned(blocks: &Blocks, range: &KeyRange, limit: usize) -> Vec<Key> {
        let mut seen = Vec::new();
        blocks.scan(range, &mut |k, _| {
            seen.push(k.clone());
            seen.len() < limit
        });
        seen
    }

    fn assert_sound(blocks: &Blocks) {
        assert_eq!(blocks.audit(), Vec::<String>::new());
    }

    #[test]
    fn appends_fill_every_block_but_the_tail() {
        let blocks = ascending(3 * BLOCK_PAIRS + 5);
        let fill: Vec<usize> = blocks.dir.iter().map(|b| b.pairs.len()).collect();
        assert_eq!(fill, [BLOCK_PAIRS, BLOCK_PAIRS, BLOCK_PAIRS, 5]);
        assert_eq!(blocks.len, 3 * BLOCK_PAIRS + 5);
        assert_sound(&blocks);
    }

    #[test]
    fn a_small_subtable_never_pays_for_a_whole_block() {
        let blocks = ascending(3);
        assert_eq!(blocks.dir.len(), 1);
        assert_eq!(blocks.dir.capacity(), 1);
        assert!(blocks.dir[0].pairs.capacity() <= 4);
    }

    #[test]
    fn replace_returns_the_old_value_and_keeps_the_count() {
        let mut blocks = ascending(2 * BLOCK_PAIRS);
        for n in [0, BLOCK_PAIRS - 1, BLOCK_PAIRS, 2 * BLOCK_PAIRS - 1] {
            assert_eq!(blocks.put(key(2 * n), value(999)), Some(value(n)));
            assert_eq!(blocks.get(&key(2 * n)), Some(&value(999)));
        }
        assert_eq!(blocks.len, 2 * BLOCK_PAIRS);
        assert_sound(&blocks);
    }

    #[test]
    fn mid_insert_into_a_full_block_splits_it_in_half() {
        let mut blocks = ascending(2 * BLOCK_PAIRS);
        assert!(blocks.put(key(7), value(0)).is_none());
        let fill: Vec<usize> = blocks.dir.iter().map(|b| b.pairs.len()).collect();
        assert_eq!(fill, [BLOCK_PAIRS / 2 + 1, BLOCK_PAIRS / 2, BLOCK_PAIRS]);
        let room: Vec<usize> = blocks.dir.iter().map(|b| b.pairs.capacity()).collect();
        assert_eq!(room, fill, "both halves are sized to fit");
        assert_sound(&blocks);
        // Into the upper half, and at the split point itself.
        let mut blocks = ascending(2 * BLOCK_PAIRS);
        blocks.put(key(BLOCK_PAIRS + 7), value(0));
        blocks.put(key(2 * BLOCK_PAIRS + BLOCK_PAIRS - 1), value(0));
        assert_eq!(blocks.len, 2 * BLOCK_PAIRS + 2);
        assert_sound(&blocks);
        let mut sorted = keys_of(&blocks);
        sorted.sort();
        assert_eq!(sorted, keys_of(&blocks));
    }

    #[test]
    fn a_key_past_a_full_inner_block_starts_a_fresh_one() {
        let mut blocks = ascending(2 * BLOCK_PAIRS);
        // Above block 0's last key (2·31), below block 1's fence (2·32).
        assert!(blocks.put(key(2 * BLOCK_PAIRS - 1), value(0)).is_none());
        let fill: Vec<usize> = blocks.dir.iter().map(|b| b.pairs.len()).collect();
        assert_eq!(fill, [BLOCK_PAIRS, 1, BLOCK_PAIRS]);
        assert_sound(&blocks);
    }

    #[test]
    fn a_key_below_every_fence_moves_the_first_fence() {
        let mut blocks = Blocks::new();
        for n in (1..=40).rev() {
            blocks.put(key(n), value(n));
            assert_sound(&blocks);
        }
        assert_eq!(keys_of(&blocks), (1..=40).map(key).collect::<Vec<_>>());
    }

    #[test]
    fn newest_first_removal_pops_blocks_off_the_tail() {
        let mut blocks = ascending(2 * BLOCK_PAIRS + 3);
        for n in (0..2 * BLOCK_PAIRS + 3).rev() {
            assert_eq!(blocks.remove(&key(2 * n)), Some(value(n)));
            assert_eq!(blocks.dir.len(), n.div_ceil(BLOCK_PAIRS));
            assert_sound(&blocks);
        }
        assert!(blocks.is_empty());
    }

    #[test]
    fn oldest_first_removal_advances_the_fence() {
        let mut blocks = ascending(2 * BLOCK_PAIRS + 3);
        for n in 0..2 * BLOCK_PAIRS + 3 {
            assert_eq!(blocks.remove(&key(2 * n)), Some(value(n)));
            assert_sound(&blocks);
            assert_eq!(blocks.get(&key(2 * n)), None);
        }
        assert!(blocks.is_empty() && blocks.dir.is_empty());
    }

    #[test]
    fn scattered_removals_merge_sparse_neighbours() {
        let mut blocks = ascending(4 * BLOCK_PAIRS);
        // Keep every eighth pair: four per block.
        for n in (0..4 * BLOCK_PAIRS).filter(|n| n % 8 != 0) {
            assert!(blocks.remove(&key(2 * n)).is_some());
            assert_sound(&blocks);
        }
        assert_eq!(blocks.len, 4 * BLOCK_PAIRS / 8);
        assert_eq!(blocks.dir.len(), 1, "sixteen pairs fit half a block");
    }

    fn remove_all(blocks: &mut Blocks, range: &KeyRange) -> usize {
        blocks.remove_range(range, &mut |_, _| true)
    }

    #[test]
    fn range_removal_drops_whole_blocks_and_refences_the_edges() {
        let mut blocks = ascending(4 * BLOCK_PAIRS);
        // From pair 20 (mid-block 0) up to pair 100 (mid-block 3).
        let range = KeyRange::new(key(2 * 20), key(2 * 100));
        assert_eq!(remove_all(&mut blocks, &range), 80);
        let fill: Vec<usize> = blocks.dir.iter().map(|b| b.pairs.len()).collect();
        assert_eq!(fill, [20, 4 * BLOCK_PAIRS - 100]);
        assert_eq!(blocks.dir[1].fence, key(2 * 100));
        assert_eq!(blocks.len, 4 * BLOCK_PAIRS - 80);
        assert_sound(&blocks);
        // Exactly one block, and then a range that holds nothing.
        let mut blocks = ascending(3 * BLOCK_PAIRS);
        let second = KeyRange::new(key(2 * BLOCK_PAIRS), key(4 * BLOCK_PAIRS));
        assert_eq!(remove_all(&mut blocks, &second), BLOCK_PAIRS);
        assert_eq!(blocks.dir.len(), 2);
        assert_eq!(remove_all(&mut blocks, &second), 0);
        assert_eq!(remove_all(&mut blocks, &KeyRange::new(key(1), key(2))), 0);
        assert_sound(&blocks);
        // Everything: the directory empties.
        assert_eq!(remove_all(&mut blocks, &KeyRange::all()), 2 * BLOCK_PAIRS);
        assert!(blocks.is_empty() && blocks.dir.is_empty());
        assert_eq!(remove_all(&mut blocks, &KeyRange::all()), 0);
    }

    #[test]
    fn range_removal_offers_each_pair_of_the_range_once_in_order() {
        let mut blocks = ascending(2 * BLOCK_PAIRS + 5);
        let range = KeyRange::new(key(2 * 10 + 1), key(2 * 50 + 1));
        let mut offered = Vec::new();
        let removed = blocks.remove_range(&range, &mut |k, _| {
            offered.push(k.clone());
            false
        });
        assert_eq!(removed, 0);
        assert_eq!(offered, (11..=50).map(|n| key(2 * n)).collect::<Vec<_>>());
        assert_eq!(blocks.len, 2 * BLOCK_PAIRS + 5);
        assert_sound(&blocks);
    }

    #[test]
    fn range_removal_under_a_predicate_merges_sparse_survivors() {
        let mut blocks = ascending(4 * BLOCK_PAIRS);
        // Keep every eighth pair: four per block, sixteen in all.
        let mut n = 0;
        let removed = blocks.remove_range(&KeyRange::all(), &mut |_, _| {
            n += 1;
            (n - 1) % 8 != 0
        });
        assert_eq!(removed, 4 * BLOCK_PAIRS / 8 * 7);
        assert_eq!(blocks.dir.len(), 1, "sixteen pairs fit half a block");
        assert_eq!(keys_of(&blocks).len(), 16);
        assert_sound(&blocks);
    }

    #[test]
    fn missing_keys_are_absent_everywhere() {
        let mut blocks = ascending(2 * BLOCK_PAIRS);
        for n in [1, 2 * BLOCK_PAIRS - 1, 4 * BLOCK_PAIRS + 1] {
            assert_eq!(blocks.get(&key(n)), None);
            assert_eq!(blocks.remove(&key(n)), None);
        }
        assert_eq!(blocks.get(&Key::from("t|ann|")), None);
        let mut empty = Blocks::new();
        assert_eq!(empty.get(&key(0)), None);
        assert_eq!(empty.remove(&key(0)), None);
        assert!(scanned(&empty, &KeyRange::all(), usize::MAX).is_empty());
    }

    /// Scan bounds on, one before and one after every fence and every
    /// block's last key, bounded and unbounded, with and without an
    /// early exit, against a filter over the full walk.
    #[test]
    fn scans_agree_with_a_filter_at_every_block_boundary() {
        let mut blocks = ascending(3 * BLOCK_PAIRS + 5);
        blocks.put(key(7), value(0)); // one split, so block sizes differ
        let all = keys_of(&blocks);
        let mut edges = vec![0usize];
        for block in &blocks.dir {
            for pair in [block.pairs.first(), block.pairs.last()] {
                let at = all
                    .iter()
                    .position(|k| Some(k) == pair.map(|(k, _)| k))
                    .unwrap();
                edges.extend([at.saturating_sub(1), at, at + 1]);
            }
        }
        edges.sort_unstable();
        edges.dedup();
        // Each edge as a bound on its key and as one just past it.
        let bound = |edge: usize| match all.get(edge) {
            Some(k) => [k.clone(), k.successor()],
            None => [key(999_998), key(999_999)],
        };
        for &lo in &edges {
            for first in bound(lo) {
                let unbounded = KeyRange::with_bound(first.clone(), UpperBound::Unbounded);
                let mut ranges = vec![unbounded];
                for &hi in &edges {
                    ranges.extend(bound(hi).map(|end| KeyRange::new(first.clone(), end)));
                }
                for range in ranges {
                    let want: Vec<Key> =
                        all.iter().filter(|k| range.contains(k)).cloned().collect();
                    assert_eq!(scanned(&blocks, &range, usize::MAX), want, "{range:?}");
                    for limit in [1, BLOCK_PAIRS, BLOCK_PAIRS + 1] {
                        let cut = &want[..want.len().min(limit)];
                        assert_eq!(scanned(&blocks, &range, limit), cut, "{range:?} × {limit}");
                    }
                }
            }
        }
    }

    #[test]
    fn scan_reports_whether_the_visitor_stopped_it() {
        let blocks = ascending(BLOCK_PAIRS + 1);
        assert!(blocks.scan(&KeyRange::all(), &mut |_, _| true));
        assert!(!blocks.scan(&KeyRange::all(), &mut |_, _| false));
        assert!(blocks.scan(&KeyRange::new(key(1), key(1)), &mut |_, _| false));
    }

    #[test]
    fn audit_reports_each_broken_invariant() {
        let mut blocks = ascending(BLOCK_PAIRS + 2);
        blocks.debug_misfile_fence(&key(0));
        let problems = blocks.audit();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("has fence"), "{problems:?}");

        let mut blocks = ascending(BLOCK_PAIRS + 2);
        blocks.dir[1].pairs.clear();
        blocks.len -= 2;
        assert!(blocks.audit().iter().any(|m| m.contains("is empty")));

        let mut blocks = ascending(BLOCK_PAIRS);
        blocks.dir[0].pairs.push((key(999), value(0)));
        blocks.len += 1;
        assert!(blocks.audit().iter().any(|m| m.contains("capacity is")));

        let mut blocks = ascending(BLOCK_PAIRS + 2);
        blocks.dir[0].pairs.swap(3, 4);
        assert!(blocks.audit().iter().any(|m| m.contains("does not ascend")));
        let mut blocks = ascending(BLOCK_PAIRS + 2);
        blocks.dir.swap(0, 1);
        assert!(blocks.audit().iter().any(|m| m.contains("does not ascend")));

        let mut blocks = ascending(3);
        blocks.len = 4;
        assert!(blocks.audit().iter().any(|m| m.contains("pair counter")));
    }
}
