//! Dense sorted blocks: the ordered container under every table.
//!
//! A subtable (§4.1) is a small range accessed with locality — one Twip
//! timeline, one poster's tweets — and almost all of its writes land at
//! its *end*: an eager `copy` update carries the newest timestamp, a
//! bulk load and a sorted materialization arrive ascending. A B-tree is
//! the wrong shape for that traffic twice over: an append still descends
//! through two or three nodes, and an append-only B-tree splits each full
//! 11-pair leaf 6/5 and never refills the left half, so its leaves sit
//! 6/11 full. A flat table (`s|`) is large and written anywhere, but it
//! too is *loaded* in key order, and pays the same half-empty leaves for
//! every row it ever holds.
//!
//! [`Blocks`] is a directory (`Vec`) of blocks in key order, each block
//! a sorted `Vec` of at most [`BLOCK_PAIRS`] pairs, each directory entry
//! carrying a copy of its block's first key (the *fence*) so that finding
//! a key's block touches no block.
//!
//! * **Append** — [`Blocks::put`] first compares against the last key.
//!   A greater key is pushed onto the tail block; a full tail is left
//!   full and a fresh block started, so an append-only subtable is 100%
//!   dense except for its tail, and the tail grows through geometric
//!   size classes (1, 4, 8, 16, 32 pairs), so a 3-pair subtable never
//!   pays for a whole block. A run of appends that knows its length
//!   ([`Blocks::put_in_run`]) jumps straight to the class it will end in:
//!   a freshly materialized 76-pair timeline allocates three blocks
//!   (32, 32, 16), not fifteen growing ones, and its tail is left with
//!   room for the eager appends that follow.
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
//! * **Past one chunk** — adding or dropping a block in the middle of a
//!   flat directory moves `len / BLOCK_PAIRS` entries, which is nothing
//!   for a subtable and 3.2 ms at a million rows. So a directory of more
//!   than [`CHUNK_BLOCKS`] blocks is cut into *chunks* of at most that
//!   many, each under a copy of its first fence: one more binary search
//!   on the way in (over the chunks, tail first), and a block added or
//!   dropped moves one chunk's entries. The upper level follows the
//!   lower one's rules — a full chunk is left full by a key past its end,
//!   which starts the next, and otherwise splits into halves sized to
//!   fit; neighbours holding half a chunk's blocks between them merge; an
//!   emptied chunk leaves; and a directory back down to one chunk is a
//!   plain list of blocks again. That list is all a subtable ever has,
//!   and it is the same three words a one-level directory would be: the
//!   second level costs a 1-pair subtable no byte and no pointer to
//!   follow. Every operation is one implementation over "the lists of
//!   blocks, in order" ([`Blocks::lists`]), whichever form the directory
//!   has.
//!
//! # The two constants
//!
//! **Pairs per block.** 2100 timelines behind a `HashMap`, 451k appends
//! of 30-byte keys and 30-byte values in post order (the `twip.post`
//! shape), then each timeline's newest tenth scanned, ten inserts per
//! timeline at shuffled old times, and the same pairs put into a fresh
//! map in one global shuffle. Scratch harness on a 2-vCPU VM, live heap
//! bytes from a counting allocator, medians of three invocations of
//! seven runs (the timings move ±25% between invocations, the bytes not
//! at all):
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
//!
//! **Blocks per chunk.** One flat table of `s|user|poster` rows (28-byte
//! keys, forty to a user), loaded in key order; then 20,000 new rows
//! inserted at shuffled places, each timed; then 100,000 scans of one
//! user's rows. Same VM, same allocator, a `BTreeMap<Key, Value>` given
//! the same operations in the same process, turn and turn about; medians
//! of five runs, shuffled insert in ns (the B-tree's beside it):
//!
//! | blocks per chunk | 120k rows | 240k rows | 960k rows |
//! |---|---|---|---|
//! | 32 | 1347 (756) | 1921 (911) | 2656 (1364) |
//! | 64 | 1068 (620) | 1695 (850) | 2449 (1347) |
//! | **128** | 1031 (631) | 1503 (853) | 2458 (1352) |
//! | 256 | 1028 (627) | 1624 (884) | 2500 (1332) |
//! | one level (the prototype) | 994 | 2649 | 23,621 |
//!
//! Small chunks make the upper level long and the table tall; large ones
//! move more entries per block (7 KiB at 128, 14 at 256). 128 is at or
//! next to the best in every column, is the square root of the block
//! count somewhere between 240k and 960k rows, and bounds the longest
//! single move. With it, against the B-tree (five runs, medians):
//!
//! | rows | load ns/row | B/row loaded | scan ns, loaded | shuffled insert ns | then B/row | scan ns, after the inserts |
//! |---|---|---|---|---|---|---|
//! | 120k | 75 (211) | 65.8 (122.3) | 750 (746) | 1228 (737) | 114.5 (109.5) | 1170 (882) |
//! | 240k | 75 (208) | 65.8 (122.3) | 947 (1029) | 1637 (929) | 99.2 (115.3) | 1297 (1082) |
//! | 960k | 76 (233) | 65.8 (122.3) | 2280 (2233) | 2595 (1361) | 72.8 (120.4) | 2452 (1919) |
//!
//! Loading is three times faster and half the bytes, and a scan of the
//! loaded table costs the same. An insert into a table that has just
//! been loaded is the container's worst moment — every block is full, so
//! every insert splits one (an allocation, 1 KiB copied, a directory
//! entry inserted) — and costs 1.7–1.9× the B-tree's, which at the same
//! moment is at its best, its leaves half empty. The slowest single
//! insert of a quiet run was ≈50–60 µs for both (the VM's own hiccup;
//! when the host stalls, either container shows 0.1–3 ms outliers with
//! nothing larger than a 2 KiB block allocated or moved behind them). The
//! same asymmetry shows in what follows: 20,000 inserts into 120k rows
//! split nearly every block in two, and until those halves fill again the
//! table is *less* dense than the B-tree (114 against 110 bytes a row)
//! and a scan crosses more of them (+20–33%). Both close as the table
//! keeps growing.

use crate::key::Key;
use crate::range::KeyRange;
use crate::table::Value;
use std::ops::Range;

/// Most pairs one block holds: 32 pairs of two 32-byte handles, 2 KiB.
const BLOCK_PAIRS: usize = 32;

/// Most blocks one chunk of the directory holds. This crate's own unit
/// and model tests build with chunks of four blocks, so that a few
/// hundred pairs cross every chunk boundary the code has; the 128 that
/// ships is driven through the same events by `tests/flat_chunks.rs`,
/// which links the crate as the servers do.
const CHUNK_BLOCKS: usize = if cfg!(test) { 4 } else { 128 };

struct Block {
    /// A copy of `pairs[0].0`.
    fence: Key,
    /// Sorted, never empty, at most [`BLOCK_PAIRS`] long.
    pairs: Vec<(Key, Value)>,
}

/// A run of neighbouring blocks: what moves when the directory of a
/// large container gains or loses a block.
struct Chunk {
    /// A copy of `blocks[0].fence`.
    fence: Key,
    /// In key order, never empty, at most [`CHUNK_BLOCKS`] long.
    blocks: Vec<Block>,
}

/// The directory: one list of blocks until it outgrows a chunk, then a
/// list of chunks. The first form is every subtable's, and is exactly the
/// `Vec` a one-level directory would be — the second level costs a small
/// container neither a byte nor a pointer to follow.
enum Dir {
    /// At most [`CHUNK_BLOCKS`] blocks.
    One(Vec<Block>),
    /// Two or more chunks. Boxed so that the enum stays the size of the
    /// `Vec` above.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<Chunk>>),
}

/// Something filed in key order under a copy of its first key.
trait Fenced {
    fn fence(&self) -> &Key;
    /// What it holds: a block's pairs, a chunk's blocks.
    fn held(&self) -> usize;
    /// Takes over what its right-hand neighbour held.
    fn absorb(&mut self, right: Self);
}

impl Fenced for Block {
    fn fence(&self) -> &Key {
        &self.fence
    }

    fn held(&self) -> usize {
        self.pairs.len()
    }

    fn absorb(&mut self, right: Block) {
        self.pairs.extend(right.pairs);
    }
}

impl Fenced for Chunk {
    fn fence(&self) -> &Key {
        &self.fence
    }

    fn held(&self) -> usize {
        self.blocks.len()
    }

    fn absorb(&mut self, right: Chunk) {
        self.blocks.extend(right.blocks);
    }
}

/// Index of the only entry of `dir` that may hold `key`: the last whose
/// fence is at or below it, or the first for a key below every fence. The
/// tail is tried first: reads ask for the newest pairs (a timeline
/// check), and teardown removes newest-first.
fn entry_for<T: Fenced>(dir: &[T], key: &Key) -> usize {
    match dir.last() {
        Some(tail) if tail.fence() <= key => dir.len() - 1,
        _ => dir
            .partition_point(|entry| entry.fence() <= key)
            .saturating_sub(1),
    }
}

/// The capacity a tail block holding (or about to hold) `pairs` pairs
/// is given: the next of 1, 4, 8, 16 and 32.
fn size_class(pairs: usize) -> usize {
    match pairs {
        0 | 1 => 1,
        n => n.next_power_of_two().clamp(4, BLOCK_PAIRS),
    }
}

impl Block {
    /// A block of one pair, with room for `room` (one and the pairs an
    /// ascending run will append after it) rounded up to a size class.
    fn starting_with(key: Key, value: Value, room: usize) -> Block {
        let mut pairs = Vec::with_capacity(size_class(room));
        pairs.push((key.clone(), value));
        Block { fence: key, pairs }
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

impl Chunk {
    fn of(blocks: Vec<Block>) -> Chunk {
        Chunk {
            fence: blocks[0].fence.clone(),
            blocks,
        }
    }
}

/// True if `key` sorts above every pair of `blocks`.
fn past_end(blocks: &[Block], key: &Key) -> bool {
    let newest = blocks.last().and_then(|tail| tail.pairs.last());
    newest.is_none_or(|(last, _)| key > last)
}

/// [`Blocks::put_in_run`] within one list of blocks.
fn put_in(blocks: &mut Vec<Block>, key: Key, value: Value, room: usize) -> Option<Value> {
    if past_end(blocks, &key) {
        match blocks.last_mut() {
            Some(tail) if tail.pairs.len() < BLOCK_PAIRS => {
                let held = tail.pairs.len();
                if held == tail.pairs.capacity() {
                    tail.pairs.reserve_exact(size_class(held + room) - held);
                }
                tail.pairs.push((key, value));
            }
            _ => blocks.push(Block::starting_with(key, value, room)),
        }
        return None;
    }
    let b = entry_for(blocks, &key);
    let block = &mut blocks[b];
    let at = match block.find(&key) {
        Ok(at) => return Some(std::mem::replace(&mut block.pairs[at].1, value)),
        Err(at) => at,
    };
    if block.pairs.len() < BLOCK_PAIRS {
        block.insert(at, key, value);
    } else if at == BLOCK_PAIRS {
        blocks.insert(b + 1, Block::starting_with(key, value, 1));
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
        blocks.insert(b + 1, upper);
    }
    None
}

/// [`Blocks::remove`] within one list of blocks.
fn remove_in(blocks: &mut Vec<Block>, key: &Key) -> Option<Value> {
    let b = entry_for(blocks, key);
    let block = blocks.get_mut(b)?;
    let at = block.find(key).ok()?;
    let (_, value) = block.pairs.remove(at);
    match block.pairs.first() {
        None => {
            blocks.remove(b);
        }
        Some((first, _)) => {
            if at == 0 {
                block.fence = first.clone();
            }
            merge_around(blocks, b, BLOCK_PAIRS / 2);
        }
    }
    Some(value)
}

/// [`Blocks::remove_range`] within one list of blocks.
fn remove_range_in(
    blocks: &mut Vec<Block>,
    range: &KeyRange,
    doomed: &mut impl FnMut(&Key, &Value) -> bool,
) -> usize {
    let first = entry_for(blocks, &range.first);
    let mut removed = 0;
    let mut emptied = false;
    let mut end = first;
    for block in blocks.iter_mut().skip(first) {
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
        removed += held - block.pairs.len();
        match block.pairs.first() {
            None => emptied = true,
            Some((k, _)) if *k != block.fence => block.fence = k.clone(),
            Some(_) => {}
        }
    }
    if emptied {
        end -= drop_emptied(blocks);
    }
    if removed > 0 {
        for b in (first..end).rev() {
            merge_around(blocks, b, BLOCK_PAIRS / 2);
        }
    }
    removed
}

/// Merges entry `at` with a neighbour if the two hold at most `most`
/// between them — half a block's pairs, half a chunk's blocks — so
/// scattered removals cannot leave a subtable as a string of nearly
/// empty 2 KiB blocks. Draining from either end never merges: the
/// drained entry's neighbour is full.
fn merge_around<T: Fenced>(dir: &mut Vec<T>, at: usize, most: usize) {
    let sparse = |dir: &[T], left: usize| {
        dir.get(left + 1)
            .is_some_and(|right| dir[left].held() + right.held() <= most)
    };
    let left = if sparse(dir, at) {
        at
    } else if at > 0 && sparse(dir, at - 1) {
        at - 1
    } else {
        return;
    };
    let right = dir.remove(left + 1);
    dir[left].absorb(right);
}

/// Drops the emptied entries of `dir` in one compaction; returns how
/// many went.
fn drop_emptied<T: Fenced>(dir: &mut Vec<T>) -> usize {
    let held = dir.len();
    dir.retain(|entry| entry.held() > 0);
    held - dir.len()
}

/// How a scan of one list of blocks ended.
enum Walk {
    /// At the list's end, the range not yet exhausted.
    RanOff,
    /// At the range's end.
    Done,
    /// On the visitor's word.
    Stopped,
}

/// [`Blocks::scan`] within one list of blocks.
fn scan_in(blocks: &[Block], range: &KeyRange, f: &mut impl FnMut(&Key, &Value) -> bool) -> Walk {
    let b = entry_for(blocks, &range.first);
    let Some(block) = blocks.get(b) else {
        return Walk::RanOff;
    };
    let mut skip = block.pairs.partition_point(|(k, _)| *k < range.first);
    for (at, block) in blocks.iter().enumerate().skip(b) {
        // The bound is compared once per block, not once per pair, and
        // with the next block's fence where there is one: the search has
        // just read that, the block's own last pair is a cache line away.
        let pairs = &block.pairs[skip..];
        let whole = match blocks.get(at + 1) {
            Some(next) => range.end.admits(&next.fence),
            None => pairs.last().is_none_or(|(k, _)| range.end.admits(k)),
        };
        let pairs = match whole {
            true => pairs,
            false => &pairs[..pairs.partition_point(|(k, _)| range.end.admits(k))],
        };
        for (k, v) in pairs {
            if !f(k, v) {
                return Walk::Stopped;
            }
        }
        if !whole {
            return Walk::Done;
        }
        skip = 0;
    }
    Walk::RanOff
}

/// An ordered map of pairs laid out as dense sorted blocks.
pub(crate) struct Blocks {
    dir: Dir,
}

impl Blocks {
    /// An empty container. Its directory is sized for the one block most
    /// subtables ever need.
    pub(crate) fn new() -> Blocks {
        Blocks {
            dir: Dir::One(Vec::with_capacity(1)),
        }
    }

    /// True if no pairs are held.
    pub(crate) fn is_empty(&self) -> bool {
        matches!(&self.dir, Dir::One(blocks) if blocks.is_empty())
    }

    /// The lists of blocks in key order, starting with the only one that
    /// may hold `from` (with the first, given `None`).
    fn lists(&self, from: Option<&Key>) -> impl Iterator<Item = &[Block]> {
        let (one, many) = match &self.dir {
            Dir::One(blocks) => (Some(&blocks[..]), &[][..]),
            Dir::Many(chunks) => (None, &chunks[from.map_or(0, |k| entry_for(chunks, k))..]),
        };
        (one.into_iter()).chain(many.iter().map(|chunk| &chunk.blocks[..]))
    }

    /// The only list of blocks that may hold `key`, and its chunk's
    /// index.
    fn list_mut(&mut self, key: &Key) -> (usize, &mut Vec<Block>) {
        match &mut self.dir {
            Dir::One(blocks) => (0, blocks),
            Dir::Many(chunks) => {
                let c = entry_for(chunks, key);
                (c, &mut chunks[c].blocks)
            }
        }
    }

    /// Inserts or replaces a pair, returning the previous value.
    pub(crate) fn put(&mut self, key: Key, value: Value) -> Option<Value> {
        self.put_in_run(key, value, 1)
    }

    /// [`Blocks::put`] for a pair of an ascending run with `left` pairs
    /// still to come, this one included: a block the append starts, or a
    /// tail it grows, is sized for as many of them as it will hold,
    /// rounded up to a size class. `left` is a sizing hint only; any
    /// value gives the same contents.
    pub(crate) fn put_in_run(&mut self, key: Key, value: Value, left: usize) -> Option<Value> {
        let (c, blocks) = self.list_mut(&key);
        // A full chunk is left full by a key past its end, which starts
        // the next one (an ascending load stays dense at this level too);
        // any other block it gains splits it into two halves sized to fit.
        let full = blocks.len() == CHUNK_BLOCKS
            && blocks[CHUNK_BLOCKS - 1].pairs.len() == BLOCK_PAIRS
            && past_end(blocks, &key);
        let (old, next) = if full {
            let fresh = vec![Block::starting_with(key, value, left)];
            (None, Some(Chunk::of(fresh)))
        } else {
            let old = put_in(blocks, key, value, left);
            let upper = (blocks.len() > CHUNK_BLOCKS).then(|| {
                let upper = blocks.split_off(CHUNK_BLOCKS / 2);
                blocks.shrink_to_fit();
                Chunk::of(upper)
            });
            (old, upper)
        };
        match (&mut self.dir, next) {
            (Dir::One(blocks), Some(next)) => {
                let first = Chunk::of(std::mem::take(blocks));
                self.dir = Dir::Many(Box::new(vec![first, next]));
            }
            (Dir::Many(chunks), next) => {
                chunks[c].refence();
                if let Some(next) = next {
                    chunks.insert(c + 1, next);
                }
            }
            (Dir::One(_), None) => {}
        }
        old
    }

    /// Looks up a key.
    pub(crate) fn get(&self, key: &Key) -> Option<&Value> {
        let blocks = self.lists(Some(key)).next()?;
        let block = blocks.get(entry_for(blocks, key))?;
        let at = block.find(key).ok()?;
        Some(&block.pairs[at].1)
    }

    /// Removes a key, returning its value.
    pub(crate) fn remove(&mut self, key: &Key) -> Option<Value> {
        let (c, blocks) = self.list_mut(key);
        let value = remove_in(blocks, key)?;
        self.tidy(c..c + 1);
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
    /// [`Blocks::remove`] would have; chunks likewise.
    pub(crate) fn remove_range(
        &mut self,
        range: &KeyRange,
        doomed: &mut impl FnMut(&Key, &Value) -> bool,
    ) -> usize {
        let chunks = match &mut self.dir {
            Dir::One(blocks) => return remove_range_in(blocks, range, doomed),
            Dir::Many(chunks) => chunks,
        };
        let first = entry_for(chunks, &range.first);
        let mut end = first;
        let mut removed = 0;
        for chunk in chunks.iter_mut().skip(first) {
            if !range.end.admits(&chunk.fence) {
                break;
            }
            end += 1;
            removed += remove_range_in(&mut chunk.blocks, range, doomed);
        }
        if removed > 0 {
            self.tidy(first..end);
        }
        removed
    }

    /// Puts the directory's upper level right after pairs left the
    /// chunks `touched`: emptied chunks leave it (all in one compaction),
    /// the others are re-fenced, neighbours holding at most half a
    /// chunk's blocks between them are merged, and a directory down to
    /// one chunk goes back to being that chunk's list of blocks.
    fn tidy(&mut self, touched: Range<usize>) {
        let Dir::Many(chunks) = &mut self.dir else {
            return;
        };
        let mut end = touched.end;
        if chunks[touched.clone()].iter().any(|c| c.blocks.is_empty()) {
            end -= drop_emptied(chunks);
        }
        for c in (touched.start..end).rev() {
            chunks[c].refence();
            merge_around(chunks, c, CHUNK_BLOCKS / 2);
        }
        if chunks.len() <= 1 {
            let only = chunks.pop().map(|chunk| chunk.blocks);
            self.dir = Dir::One(only.unwrap_or_default());
        }
    }

    /// Every pair in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(Key, Value)> {
        self.lists(None).flatten().flat_map(|b| &b.pairs)
    }

    /// Visits the pairs in `range` in key order until the visitor returns
    /// `false`. Returns `false` if the visitor ended the scan.
    pub(crate) fn scan(&self, range: &KeyRange, f: &mut impl FnMut(&Key, &Value) -> bool) -> bool {
        for blocks in self.lists(Some(&range.first)) {
            match scan_in(blocks, range, f) {
                Walk::RanOff => {}
                Walk::Done => break,
                Walk::Stopped => return false,
            }
        }
        true
    }

    /// Checks every structural invariant against a full walk: no empty
    /// block or chunk, none over capacity, keys strictly ascending within
    /// and across blocks and chunks, every fence equal to its block's or
    /// chunk's first key, and an upper level only over two chunks or
    /// more. Returns one message per problem.
    pub(crate) fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if let Dir::Many(chunks) = &self.dir {
            if chunks.len() < 2 {
                problems.push(format!("{} chunk(s) under an upper level", chunks.len()));
            }
            for (c, chunk) in chunks.iter().enumerate() {
                match chunk.blocks.first() {
                    None => problems.push(format!("chunk {c} is empty")),
                    Some(first) if first.fence != chunk.fence => problems.push(format!(
                        "chunk {c} has fence {:?} but starts at {:?}",
                        chunk.fence, first.fence
                    )),
                    Some(_) => {}
                }
            }
        }
        let mut prev: Option<&Key> = None;
        let mut b = 0;
        for (c, blocks) in self.lists(None).enumerate() {
            if blocks.len() > CHUNK_BLOCKS {
                problems.push(format!(
                    "chunk {c} holds {} blocks; capacity is {CHUNK_BLOCKS}",
                    blocks.len()
                ));
            }
            for block in blocks {
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
                }
                b += 1;
            }
        }
        problems
    }

    /// Test-only hook: files the block holding `key` under the wrong
    /// fence, so tests can prove the auditor notices.
    pub(crate) fn debug_misfile_fence(&mut self, key: &Key) {
        let (_, blocks) = self.list_mut(key);
        let b = entry_for(blocks, key);
        if let Some(block) = blocks.get_mut(b) {
            block.fence = block.fence.successor();
        }
    }
}

impl Chunk {
    /// Renews the fence after the first block's may have moved.
    fn refence(&mut self) {
        match self.blocks.first() {
            Some(first) if first.fence != self.fence => self.fence = first.fence.clone(),
            _ => {}
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

    /// Every block in key order, whatever chunk it is in.
    fn blocks_of(blocks: &Blocks) -> Vec<&Block> {
        blocks.lists(None).flatten().collect()
    }

    /// Pairs held by each block.
    fn fill(blocks: &Blocks) -> Vec<usize> {
        blocks_of(blocks).iter().map(|b| b.pairs.len()).collect()
    }

    /// Blocks held by each chunk.
    fn shape(blocks: &Blocks) -> Vec<usize> {
        blocks.lists(None).map(<[Block]>::len).collect()
    }

    /// The directory's list of blocks while there is only one.
    fn only_list(blocks: &mut Blocks) -> &mut Vec<Block> {
        match &mut blocks.dir {
            Dir::One(list) => list,
            Dir::Many(_) => panic!("the directory has an upper level"),
        }
    }

    fn chunks_of(blocks: &mut Blocks) -> &mut Vec<Chunk> {
        match &mut blocks.dir {
            Dir::One(_) => panic!("the directory has no upper level"),
            Dir::Many(chunks) => chunks,
        }
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
        assert_eq!(fill(&blocks), [BLOCK_PAIRS, BLOCK_PAIRS, BLOCK_PAIRS, 5]);
        assert_eq!(blocks.iter().count(), 3 * BLOCK_PAIRS + 5);
        assert_sound(&blocks);
    }

    /// Appended one by one, a tail block climbs the size classes; told
    /// the run's length, each block starts at the class it ends in. Both
    /// hold the same pairs in the same blocks, and the run's tail keeps
    /// room for the appends after it.
    #[test]
    fn a_run_allocates_each_block_once_at_its_size_class() {
        let capacities = |blocks: &Blocks| -> Vec<usize> {
            blocks_of(blocks)
                .iter()
                .map(|b| b.pairs.capacity())
                .collect()
        };
        for run in [1, 3, 20, 2 * BLOCK_PAIRS + 12] {
            let one_by_one = ascending(run);
            let mut as_run = Blocks::new();
            for n in 0..run {
                assert!(as_run.put_in_run(key(2 * n), value(n), run - n).is_none());
            }
            assert_eq!(keys_of(&as_run), keys_of(&one_by_one));
            assert_eq!(fill(&as_run), fill(&one_by_one));
            assert_eq!(capacities(&as_run), capacities(&one_by_one), "run of {run}");
            assert_sound(&as_run);
        }
        let mut tail = Blocks::new();
        for n in 0..12 {
            tail.put_in_run(key(2 * n), value(n), 12 - n);
        }
        assert_eq!(capacities(&tail), [16]);
        tail.put(key(100), value(0));
        assert_eq!(
            capacities(&tail),
            [16],
            "an eager append after the run reallocates nothing"
        );
    }

    #[test]
    fn a_small_subtable_never_pays_for_a_whole_block() {
        let mut blocks = ascending(3);
        // Nor for the directory's second level: the handle is a `Vec`'s.
        assert_eq!(
            std::mem::size_of::<Blocks>(),
            std::mem::size_of::<Vec<Block>>()
        );
        let list = only_list(&mut blocks);
        assert_eq!((list.len(), list.capacity()), (1, 1));
        assert!(list[0].pairs.capacity() <= 4);
    }

    #[test]
    fn replace_returns_the_old_value_and_keeps_the_count() {
        let mut blocks = ascending(2 * BLOCK_PAIRS);
        for n in [0, BLOCK_PAIRS - 1, BLOCK_PAIRS, 2 * BLOCK_PAIRS - 1] {
            assert_eq!(blocks.put(key(2 * n), value(999)), Some(value(n)));
            assert_eq!(blocks.get(&key(2 * n)), Some(&value(999)));
        }
        assert_eq!(blocks.iter().count(), 2 * BLOCK_PAIRS);
        assert_sound(&blocks);
    }

    #[test]
    fn mid_insert_into_a_full_block_splits_it_in_half() {
        let mut blocks = ascending(2 * BLOCK_PAIRS);
        assert!(blocks.put(key(7), value(0)).is_none());
        assert_eq!(
            fill(&blocks),
            [BLOCK_PAIRS / 2 + 1, BLOCK_PAIRS / 2, BLOCK_PAIRS]
        );
        let room: Vec<usize> = (blocks_of(&blocks).iter())
            .map(|b| b.pairs.capacity())
            .collect();
        assert_eq!(room, fill(&blocks), "both halves are sized to fit");
        assert_sound(&blocks);
        // Into the upper half, and at the split point itself.
        let mut blocks = ascending(2 * BLOCK_PAIRS);
        blocks.put(key(BLOCK_PAIRS + 7), value(0));
        blocks.put(key(2 * BLOCK_PAIRS + BLOCK_PAIRS - 1), value(0));
        assert_eq!(blocks.iter().count(), 2 * BLOCK_PAIRS + 2);
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
        assert_eq!(fill(&blocks), [BLOCK_PAIRS, 1, BLOCK_PAIRS]);
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
            assert_eq!(fill(&blocks).len(), n.div_ceil(BLOCK_PAIRS));
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
        assert!(blocks.is_empty() && only_list(&mut blocks).is_empty());
    }

    #[test]
    fn scattered_removals_merge_sparse_neighbours() {
        let mut blocks = ascending(4 * BLOCK_PAIRS);
        // Keep every eighth pair: four per block.
        for n in (0..4 * BLOCK_PAIRS).filter(|n| n % 8 != 0) {
            assert!(blocks.remove(&key(2 * n)).is_some());
            assert_sound(&blocks);
        }
        assert_eq!(fill(&blocks), [16], "sixteen pairs fit half a block");
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
        assert_eq!(fill(&blocks), [20, 4 * BLOCK_PAIRS - 100]);
        assert_eq!(blocks_of(&blocks)[1].fence, key(2 * 100));
        assert_sound(&blocks);
        // Exactly one block, and then a range that holds nothing.
        let mut blocks = ascending(3 * BLOCK_PAIRS);
        let second = KeyRange::new(key(2 * BLOCK_PAIRS), key(4 * BLOCK_PAIRS));
        assert_eq!(remove_all(&mut blocks, &second), BLOCK_PAIRS);
        assert_eq!(fill(&blocks).len(), 2);
        assert_eq!(remove_all(&mut blocks, &second), 0);
        assert_eq!(remove_all(&mut blocks, &KeyRange::new(key(1), key(2))), 0);
        assert_sound(&blocks);
        // Everything: the directory empties.
        assert_eq!(remove_all(&mut blocks, &KeyRange::all()), 2 * BLOCK_PAIRS);
        assert!(blocks.is_empty() && only_list(&mut blocks).is_empty());
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
        assert_eq!(blocks.iter().count(), 2 * BLOCK_PAIRS + 5);
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
        assert_eq!(fill(&blocks), [16], "sixteen pairs fit half a block");
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
        for block in blocks_of(&blocks) {
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
    fn an_ascending_load_fills_every_chunk_but_the_tail() {
        const CHUNK: usize = CHUNK_BLOCKS * BLOCK_PAIRS;
        let mut blocks = ascending(CHUNK);
        assert_eq!(shape(&blocks), [CHUNK_BLOCKS]);
        assert_eq!(only_list(&mut blocks).capacity(), CHUNK_BLOCKS);
        blocks.put(key(2 * CHUNK), value(0));
        assert_eq!(shape(&blocks), [CHUNK_BLOCKS, 1]);
        assert_sound(&blocks);
        let blocks = ascending(3 * CHUNK + 5);
        assert_eq!(
            shape(&blocks),
            [CHUNK_BLOCKS, CHUNK_BLOCKS, CHUNK_BLOCKS, 1]
        );
        assert!(fill(&blocks)[..3 * CHUNK_BLOCKS]
            .iter()
            .all(|&n| n == BLOCK_PAIRS));
        assert_eq!(
            keys_of(&blocks),
            (0..3 * CHUNK + 5).map(|n| key(2 * n)).collect::<Vec<_>>()
        );
        for n in [0, CHUNK - 1, CHUNK, 3 * CHUNK + 4] {
            assert_eq!(blocks.get(&key(2 * n)), Some(&value(n)));
            assert_eq!(blocks.get(&key(2 * n + 1)), None);
        }
        assert_sound(&blocks);
    }

    #[test]
    fn a_block_too_many_splits_its_chunk_in_half() {
        const CHUNK: usize = CHUNK_BLOCKS * BLOCK_PAIRS;
        // Into the only chunk, into an inner one, and into the last.
        for (chunks, at, want) in [
            (1, 7, vec![CHUNK_BLOCKS / 2, CHUNK_BLOCKS / 2 + 1]),
            (3, 2 * CHUNK + 7, {
                let half = [CHUNK_BLOCKS / 2, CHUNK_BLOCKS / 2 + 1];
                [&[CHUNK_BLOCKS], &half[..], &[CHUNK_BLOCKS]].concat()
            }),
            (
                2,
                4 * CHUNK - 7,
                vec![CHUNK_BLOCKS, CHUNK_BLOCKS / 2, CHUNK_BLOCKS / 2 + 1],
            ),
        ] {
            let mut blocks = ascending(chunks * CHUNK);
            assert!(blocks.put(key(at), value(0)).is_none());
            assert_eq!(shape(&blocks), want);
            assert_eq!(blocks.iter().count(), chunks * CHUNK + 1);
            assert_sound(&blocks);
        }
        // A key between two full chunks starts a chunk of its own.
        let mut blocks = ascending(2 * CHUNK);
        blocks.put(key(2 * CHUNK - 1), value(0));
        assert_eq!(shape(&blocks), [CHUNK_BLOCKS, 1, CHUNK_BLOCKS]);
        assert_sound(&blocks);
    }

    #[test]
    fn a_key_below_every_chunk_moves_the_first_chunks_fence() {
        let mut blocks = Blocks::new();
        let pairs = 3 * CHUNK_BLOCKS * BLOCK_PAIRS;
        for n in (1..=pairs).rev() {
            blocks.put(key(n), value(n));
        }
        assert!(shape(&blocks).len() > 2);
        assert_sound(&blocks);
        assert_eq!(keys_of(&blocks), (1..=pairs).map(key).collect::<Vec<_>>());
    }

    #[test]
    fn removals_drop_merge_and_fold_chunks_away() {
        const CHUNK: usize = CHUNK_BLOCKS * BLOCK_PAIRS;
        // Oldest first: each chunk is re-fenced as it drains, leaves when
        // empty, and the last one standing is a plain list again.
        let mut blocks = ascending(3 * CHUNK);
        for n in 0..3 * CHUNK {
            assert_eq!(blocks.remove(&key(2 * n)), Some(value(n)));
            assert_eq!(
                shape(&blocks).len(),
                (3 * CHUNK - n - 1).div_ceil(CHUNK).max(1)
            );
            assert_sound(&blocks);
        }
        assert!(blocks.is_empty() && only_list(&mut blocks).is_empty());
        // Scattered: every block keeps one pair in sixteen, so blocks
        // merge, then chunks do.
        let mut blocks = ascending(4 * CHUNK);
        for n in (0..4 * CHUNK).filter(|n| n % 16 != 0) {
            assert!(blocks.remove(&key(2 * n)).is_some());
            assert_sound(&blocks);
        }
        assert_eq!(blocks.iter().count(), 4 * CHUNK / 16);
        assert!(shape(&blocks).iter().sum::<usize>() <= 4 * CHUNK / 16 / (BLOCK_PAIRS / 4));
        assert!(shape(&blocks).len() < 4, "{:?}", shape(&blocks));
    }

    #[test]
    fn range_removal_spans_chunks() {
        const CHUNK: usize = CHUNK_BLOCKS * BLOCK_PAIRS;
        // From mid-block in the first chunk to mid-block in the fourth.
        let mut blocks = ascending(4 * CHUNK);
        let range = KeyRange::new(key(2 * 20), key(2 * (3 * CHUNK + 40)));
        let mut offered = 0;
        let removed = blocks.remove_range(&range, &mut |_, _| {
            offered += 1;
            true
        });
        assert_eq!((removed, offered), (3 * CHUNK + 20, 3 * CHUNK + 20));
        assert_eq!(blocks.iter().count(), CHUNK - 20);
        assert_eq!(fill(&blocks)[..2], [20, BLOCK_PAIRS - 40 % BLOCK_PAIRS]);
        assert_sound(&blocks);
        // Under a predicate nothing need go, and nothing then moves.
        let mut blocks = ascending(3 * CHUNK);
        let before = shape(&blocks);
        assert_eq!(blocks.remove_range(&KeyRange::all(), &mut |_, _| false), 0);
        assert_eq!(shape(&blocks), before);
        // Everything: back to an empty list.
        assert_eq!(remove_all(&mut blocks, &KeyRange::all()), 3 * CHUNK);
        assert!(blocks.is_empty() && only_list(&mut blocks).is_empty());
    }

    #[test]
    fn audit_reports_each_broken_invariant() {
        let mut blocks = ascending(BLOCK_PAIRS + 2);
        blocks.debug_misfile_fence(&key(0));
        let problems = blocks.audit();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("has fence"), "{problems:?}");

        let mut blocks = ascending(BLOCK_PAIRS + 2);
        only_list(&mut blocks)[1].pairs.clear();
        assert!(blocks.audit().iter().any(|m| m.contains("is empty")));

        let mut blocks = ascending(BLOCK_PAIRS);
        only_list(&mut blocks)[0].pairs.push((key(999), value(0)));
        assert!(blocks.audit().iter().any(|m| m.contains("capacity is")));

        let mut blocks = ascending(BLOCK_PAIRS + 2);
        only_list(&mut blocks)[0].pairs.swap(3, 4);
        assert!(blocks.audit().iter().any(|m| m.contains("does not ascend")));
        let mut blocks = ascending(BLOCK_PAIRS + 2);
        only_list(&mut blocks).swap(0, 1);
        assert!(blocks.audit().iter().any(|m| m.contains("does not ascend")));
    }

    #[test]
    fn audit_reports_each_broken_invariant_of_the_upper_level() {
        const CHUNK: usize = CHUNK_BLOCKS * BLOCK_PAIRS;
        let broken = |break_it: fn(&mut Vec<Chunk>), message: &str| {
            let mut blocks = ascending(2 * CHUNK + 1);
            assert_sound(&blocks);
            break_it(chunks_of(&mut blocks));
            let problems = blocks.audit();
            assert!(problems.iter().any(|m| m.contains(message)), "{problems:?}");
        };
        broken(
            |chunks| chunks[1].fence = chunks[1].fence.successor(),
            "chunk 1 has fence",
        );
        broken(|chunks| chunks[2].blocks.clear(), "chunk 2 is empty");
        broken(
            |chunks| {
                let moved = chunks.remove(1).blocks;
                chunks[0].blocks.extend(moved);
            },
            "chunk 0 holds",
        );
        broken(|chunks| chunks.truncate(1), "under an upper level");
        broken(|chunks| chunks.swap(0, 1), "does not ascend");
    }
}
