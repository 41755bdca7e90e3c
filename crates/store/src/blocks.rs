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
//! holding at most [`BLOCK_PAIRS`] pairs, each directory entry carrying a
//! copy of its block's first key (the *fence*) so that finding a key's
//! block touches no block.
//!
//! * **A block** is one *slot* per pair, all of a size, and a column of
//!   pointers: two allocations at most, one for a block whose values are
//!   all short. The keys share a prefix — always the longest common
//!   prefix of the block's first and last key, read off the fence — and
//!   each is stored as its *remainder* past it: a slot starts with a
//!   length byte, then the remainder zero-padded to the block's width,
//!   the longest remainder it holds. Then comes the value, as a *code*
//!   byte ([`Value::code`]: its length, or [`BOXED`](crate::value::BOXED) past 64 bytes) and,
//!   for a value of at most [`IN_PLACE`] (14) bytes, the value itself,
//!   zero-padded to the longest such value in the block. A longer value
//!   is one shared buffer (§4.3: every timeline showing a tweet points at
//!   the tweet's one buffer), and the block keeps an 8-byte pointer to it
//!   in its column, in slot order; a block of short values (every `s|`
//!   block) has no column and allocates nothing for one. Slots are one
//!   size, so pair `i` is at `i` slots in, with no offsets to keep, and
//!   an append writes one slot and pushes at most one pointer. A Twip
//!   timeline pair `t|u0000012|0000012345|u0000034` → tweet, in a block
//!   whose times share their leading digits, costs a ≈13–16-byte slot
//!   and a pointer (keys of one table are mostly of one length, and its
//!   values of one kind, so the padding is mostly none); a subscription
//!   row `s|user|poster` → `"1"` a 5–6-byte slot. A probe compares the
//!   prefix once and then binary-searches the remainders only; a scan
//!   rebuilds each key in place on the stack for its visitor and lends
//!   it the value as a [`ValueRef`] — its bytes in the slot, or the
//!   pointer and its code — so a visit allocates nothing and touches no
//!   shared buffer or count. A key longer than a handle holds in place
//!   ([`KEY_IN_PLACE`], 30 bytes) is kept as its shared handle instead,
//!   in a list of the block's own that is made for the first such key and
//!   dropped with the last (a block of short keys, every Twip block, pays
//!   one null pointer for it), so visiting it allocates nothing either.
//!   The prefix and widths change only when the first, last, longest key
//!   or longest in-place value does — an append or front insert that
//!   shares less of the prefix, a front or back removal, a split or
//!   merge, a rewrite that widens or narrows the values — and then a
//!   block's slots are re-encoded: for an ascending timeline, once per
//!   new leading time digit in the tail block.
//!
//! * **Append** — [`Blocks::put`] first compares against the last key.
//!   A greater key is pushed onto the tail block; a full tail is left
//!   full and a fresh block started, so an append-only subtable is 100%
//!   dense except for its tail, and the tail grows through geometric
//!   size classes (1, 4, 8, 16, 32 pairs), so a 3-pair subtable never
//!   pays for a whole block. A run of appends that knows its length
//!   ([`Blocks::put_in_run`]) jumps straight to the class it will end in,
//!   and a stretch of it past the end is laid out whole blocks at a time
//!   ([`Blocks::append_run`]: each block's prefix and widths read off its
//!   pairs first, each slot written once): a freshly materialized 76-pair
//!   timeline allocates three blocks (32, 32, 16) of two allocations
//!   each, re-encodes nothing, and its tail is left with room for the
//!   eager appends that follow.
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
//!   subtable is looked up once and the run is laid out as the append
//!   above describes.
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
//! bytes from a counting allocator; when a block held whole pairs
//! (medians of three invocations of seven runs; the timings move ±25%
//! between invocations, the bytes not at all):
//!
//! | container | append ns | B/pair | scan ns/pair | mid-insert ns | shuffled fill ns |
//! |---|---|---|---|---|---|
//! | `BTreeMap` | 358 | 122.0 | 85 | 1082 | 852 |
//! | 16-pair blocks | 149 | 69.4 | 76 | 1670 | 1070 |
//! | **32-pair blocks** | 170 | 68.2 | 81 | 1928 | 1201 |
//! | 64-pair blocks | 171 | 68.7 | 84 | 2148 | 1249 |
//!
//! and since keys are slotted remainders apart from the values (the
//! three sizes built into one binary and run in turn, fastest of three
//! rounds; the last column is the bytes a pair keeps after the shuffled
//! fill):
//!
//! | container | append ns | B/pair | scan ns/pair | mid-insert ns | shuffled fill ns | B/pair, shuffled |
//! |---|---|---|---|---|---|---|
//! | 16-pair blocks | 222 | 54.8 | 50 | 1969 | 1026 | 75.7 |
//! | **32-pair blocks** | 196 | 53.6 | 31 | 1715 | 843 | 72.7 |
//! | 64-pair blocks | 219 | 52.3 | 31 | 2136 | 795 | 69.8 |
//!
//! With whole pairs the bytes bottomed out at 32: below it the per-block
//! overhead showed (a 56-byte directory entry and an allocator header),
//! above it the slack in every subtable's tail block did. With
//! remainders a block's header was 88 bytes and two allocations, and 64
//! pairs keep 1.3 bytes a pair (2%) fewer than 32; the append and the
//! cold mid-insert — a search over the slots and up to a block's values
//! and slots moved — cost 12% and 25% more there, and the shuffled fill,
//! which splits blocks rather than appending, is the only column 64 wins.
//! The constant stays at 32: the bytes do not say otherwise. (Since the
//! values moved into the slots and a pointer column the header is 96
//! bytes and a timeline pair ≈26 bytes, `core/tests/alloc_budget.rs`;
//! the constant was not measured again.)
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
use crate::value::{Shared, Value, ValueRef, IN_PLACE};
use std::cmp::Ordering;
use std::ops::Range;

/// Most pairs one block holds.
const BLOCK_PAIRS: usize = 32;

/// Longest key a [`Key`] holds in place (the handle's own limit): a block
/// rebuilds such a key from its bytes, and keeps a longer one's shared
/// handle so that visiting it allocates nothing either.
const KEY_IN_PLACE: usize = 30;

/// The length byte of a key longer than [`KEY_IN_PLACE`]: its slot holds
/// no remainder, its handle is kept in the block's list of long keys.
const LONG: u8 = 0xff;

// A length byte is never mistaken for the flag, and the pairs a range
// removal drops fit one `u64` mask.
const _: () = assert!(KEY_IN_PLACE < LONG as usize && BLOCK_PAIRS <= 64);

/// Most blocks one chunk of the directory holds. This crate's own unit
/// and model tests build with chunks of four blocks, so that a few
/// hundred pairs cross every chunk boundary the code has; the 128 that
/// ships is driven through the same events by `tests/flat_chunks.rs`,
/// which links the crate as the servers do.
const CHUNK_BLOCKS: usize = if cfg!(test) { 4 } else { 128 };

/// At most [`BLOCK_PAIRS`] pairs in key order, each in one slot: its key
/// as the remainder past the prefix all of them share, then its value's
/// code and in-place bytes. Values longer than [`IN_PLACE`] bytes are
/// pointers in a column of their own. Two allocations while it holds a
/// shared value, one while it holds none (two more while it holds a long
/// key).
struct Block {
    /// A copy of the first key. Its first `prefix` bytes begin every key.
    fence: Key,
    /// One slot of [`Block::slot_len`] bytes per pair, in key order: the
    /// length of the key's remainder past the prefix ([`LONG`] for a key
    /// too long to rebuild in place, whose remainder is behind its
    /// handle), the remainder zero-padded to `width`; then the value's
    /// code ([`Value::code`]: its length, or [`BOXED`](crate::value::BOXED)) and, for a value
    /// of at most [`IN_PLACE`] bytes, its bytes zero-padded to
    /// `value_width`.
    slots: Vec<u8>,
    /// The buffers of the values longer than [`IN_PLACE`] bytes, in key
    /// order; empty, and unallocated, while there are none.
    shared: Vec<Shared>,
    /// The long keys' handles in key order; `None` while there are none,
    /// so that a block of short keys pays one pointer for them.
    #[expect(clippy::box_collection, reason = "one pointer, not a Vec's three")]
    long: Option<Box<Vec<Key>>>,
    /// Length of the shared prefix: always the longest common prefix of
    /// the first and the last key, so it changes only when one of those
    /// does.
    prefix: u32,
    /// Length of the longest in-place key remainder (zero if there is
    /// none).
    width: u8,
    /// Length of the longest in-place value (zero if there is none).
    value_width: u8,
    /// Pairs held: never zero, at most [`BLOCK_PAIRS`].
    len: u8,
    /// Pairs the block is sized for: its slots grow to this many
    /// slots when they must grow, its pointer column to as many as its
    /// in-place values leave. At least `len`.
    room: u8,
}

// A directory entry, the block's header, stays one and a half cache
// lines: 32 bytes of fence, two `Vec`s, a pointer and eight bytes of
// lengths.
const _: () = assert!(std::mem::size_of::<Block>() <= 96);

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
    #[expect(clippy::box_collection, reason = "keeps the enum one Vec wide")]
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
        self.len()
    }

    /// Both blocks are re-encoded for the prefix the pair of them shares
    /// and the wider of their slots, then laid end to end.
    fn absorb(&mut self, mut right: Block) {
        let prefix = common_len(self.prefix(), right.prefix());
        let width = self.width_under(prefix).max(right.width_under(prefix));
        let value_width = self.value_width.max(right.value_width).into();
        self.relayout(prefix, width, value_width);
        right.relayout(prefix, width, value_width);
        self.reserve(self.len() + right.len());
        self.slots.extend_from_slice(&right.slots);
        self.shared.reserve_exact(right.shared.len());
        self.shared.append(&mut right.shared);
        if let Some(long) = right.long {
            self.longs_mut().extend(*long);
        }
        self.len += right.len;
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

/// A block's list of long keys: `None` for an empty one.
#[expect(clippy::box_collection, reason = "the type of `Block::long`")]
fn boxed(long: Vec<Key>) -> Option<Box<Vec<Key>>> {
    (!long.is_empty()).then(|| Box::new(long))
}

/// Drops the items whose bit is set in `gone`.
fn drop_marked<T>(items: &mut Vec<T>, gone: u64) {
    let mut at = 0;
    items.retain(|_| {
        at += 1;
        gone >> (at - 1) & 1 == 0
    });
}

/// Length of the longest common prefix of `a` and `b`.
fn common_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// The in-place bytes a value of code `code` puts in its slot: all of
/// them up to [`IN_PLACE`], none past (it is a pointer in the column).
#[inline]
fn in_place_len(code: u8) -> usize {
    match usize::from(code) {
        n if n <= IN_PLACE => n,
        _ => 0,
    }
}

/// True if a value of code `code` is a pointer in the column.
#[inline]
fn is_shared(code: u8) -> bool {
    usize::from(code) > IN_PLACE
}

/// The value of `slot`, whose code is `v` bytes in and whose pointer, if
/// it has one, is `column[rank]`.
#[inline]
fn view<'a>(slot: &'a [u8], v: usize, column: &'a [Shared], rank: usize) -> ValueRef<'a> {
    match slot[v] {
        code if is_shared(code) => ValueRef::shared(code, &column[rank]),
        n => ValueRef::in_place(&slot[v + 1..=v + usize::from(n)]),
    }
}

/// Writes `value`'s code and in-place bytes into the value half of a
/// slot, `at` bytes in (past the key's length byte and remainder). A
/// shared value's buffer is not read: writing a tweet's pointer touches
/// none of its bytes.
#[inline]
fn write_value(slot: &mut [u8], at: usize, value: &Value) {
    let code = value.code();
    slot[at] = code;
    if !is_shared(code) {
        slot[at + 1..=at + usize::from(code)].copy_from_slice(value);
    }
}

impl Block {
    /// A block of one pair, with room for `room` (one and the pairs an
    /// ascending run will append after it) rounded up to a size class.
    /// Its one key is all prefix, so its slot is a length byte and the
    /// value; the slots are given room for the class at half the key's
    /// length a key, what a remainder past a shared prefix is about.
    fn starting_with(key: Key, value: Value, room: usize) -> Block {
        let class = size_class(room);
        let long = key.len() > KEY_IN_PLACE;
        let value_width = in_place_len(value.code());
        let slot = 2 + value_width;
        let mut slots = Vec::with_capacity(match class {
            1 => slot,
            _ => class * (slot + key.len().min(KEY_IN_PLACE) / 2),
        });
        slots.resize(slot, 0);
        slots[0] = if long { LONG } else { 0 };
        write_value(&mut slots, 1, &value);
        let shared = match value.into_shared() {
            None => Vec::new(),
            Some(data) => {
                let mut shared = Vec::with_capacity(class);
                shared.push(data);
                shared
            }
        };
        Block {
            prefix: key.len() as u32,
            width: 0,
            value_width: value_width as u8,
            len: 1,
            room: class as u8,
            slots,
            shared,
            long: long.then(|| Box::new(vec![key.clone()])),
            fence: key,
        }
    }

    /// A block of the next `m` pairs of `run`, which ascend, with room
    /// for `room` rounded up to a size class: its prefix and widths read
    /// off the pairs first, every slot written once. `took` sees each
    /// pair.
    fn built(
        run: &mut std::vec::IntoIter<(Key, Value)>,
        m: usize,
        room: usize,
        took: &mut impl FnMut(usize, usize),
    ) -> Block {
        let pairs = &run.as_slice()[..m];
        let (first, last) = (&pairs[0].0, &pairs[m - 1].0);
        let prefix = common_len(first.as_bytes(), last.as_bytes());
        let in_place = pairs.iter().filter(|(k, _)| k.len() <= KEY_IN_PLACE);
        let width = in_place.map(|(k, _)| k.len() - prefix).max().unwrap_or(0);
        let codes = pairs.iter().map(|(_, v)| v.code());
        let value_width = codes.clone().map(in_place_len).max().unwrap_or(0);
        let class = size_class(room).max(m);
        let s = width + value_width + 2;
        let mut slots = Vec::with_capacity(class * s);
        let mut shared = match codes.filter(|&c| is_shared(c)).count() {
            0 => Vec::new(),
            n if n == m => Vec::with_capacity(class),
            n => Vec::with_capacity(n),
        };
        let mut long = Vec::new();
        let mut fence = None;
        for (key, value) in run.by_ref().take(m) {
            took(key.len(), value.len());
            let at = slots.len();
            slots.resize(at + s, 0);
            match key.len() > KEY_IN_PLACE {
                true => {
                    slots[at] = LONG;
                    long.push(key.clone());
                }
                false => {
                    slots[at] = (key.len() - prefix) as u8;
                    slots[at + 1..at + 1 + key.len() - prefix]
                        .copy_from_slice(&key.as_bytes()[prefix..]);
                }
            }
            write_value(&mut slots[at..], width + 1, &value);
            shared.extend(value.into_shared());
            fence.get_or_insert(key);
        }
        Block {
            fence: fence.unwrap_or_default(),
            slots,
            shared,
            long: boxed(long),
            prefix: prefix as u32,
            width: width as u8,
            value_width: value_width as u8,
            len: m as u8,
            room: class as u8,
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    /// The bytes every key begins with.
    fn prefix(&self) -> &[u8] {
        &self.fence.as_bytes()[..self.prefix as usize]
    }

    /// Bytes per slot: the key's length byte and remainder, the value's
    /// code and in-place bytes.
    #[inline]
    fn slot_len(&self) -> usize {
        usize::from(self.width) + usize::from(self.value_width) + 2
    }

    /// Where a slot's value half starts: its code.
    #[inline]
    fn value_offset(&self) -> usize {
        usize::from(self.width) + 1
    }

    /// Key `i`'s slot.
    #[inline]
    fn slot(&self, i: usize) -> &[u8] {
        let s = self.slot_len();
        &self.slots[i * s..(i + 1) * s]
    }

    /// Value `i`'s code.
    fn code(&self, i: usize) -> u8 {
        self.slot(i)[self.value_offset()]
    }

    /// The long keys' handles, in key order.
    fn longs(&self) -> &[Key] {
        self.long.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The long keys' handles, to change: a list is made for the first.
    fn longs_mut(&mut self) -> &mut Vec<Key> {
        self.long.get_or_insert_with(Box::default)
    }

    /// Gives up an emptied list of long keys.
    fn tidy_longs(&mut self) {
        if self.longs().is_empty() {
            self.long = None;
        }
    }

    /// How many keys before `i` are long: where `i`'s handle sits among
    /// theirs, if it is long too. Free when the block holds no handles.
    fn rank(&self, i: usize) -> usize {
        match self.long {
            None => 0,
            Some(_) => (0..i).filter(|&j| self.slot(j)[0] == LONG).count(),
        }
    }

    /// How many values before `i` are shared: where `i`'s pointer sits in
    /// the column, if it is shared too. Free when every value is shared
    /// (a timeline) or none is (a subscription table).
    fn shared_rank(&self, i: usize) -> usize {
        match self.shared.len() {
            0 => 0,
            n if n == self.len() => i,
            _ => (0..i).filter(|&j| is_shared(self.code(j))).count(),
        }
    }

    /// Key `i`'s bytes past the prefix.
    #[inline]
    fn rest(&self, i: usize) -> &[u8] {
        let slot = self.slot(i);
        match slot[0] {
            LONG => self.long_rest(i),
            n => &slot[1..=usize::from(n)],
        }
    }

    /// A long key's bytes past the prefix, read through its handle.
    #[cold]
    fn long_rest(&self, i: usize) -> &[u8] {
        &self.longs()[self.rank(i)].as_bytes()[self.prefix as usize..]
    }

    /// Key `i`, rebuilt in place, or its shared handle if it is long.
    fn key(&self, i: usize) -> Key {
        let mut key = Key::default();
        self.visit(i, i + 1, &mut |k, _| {
            key = k.clone();
            false
        });
        key
    }

    /// Value `i`, borrowed.
    fn value(&self, i: usize) -> ValueRef<'_> {
        let rank = self.shared_rank(i);
        view(self.slot(i), self.value_offset(), &self.shared, rank)
    }

    /// Value `i`, taken out of its slot and the column: the slot is left
    /// holding a stale code, for the caller to overwrite or drop.
    fn take_value(&mut self, i: usize) -> Value {
        let code = self.code(i);
        match is_shared(code) {
            true => Value::from_shared(code, self.shared.remove(self.shared_rank(i))),
            false => self.value(i).to_value(),
        }
    }

    /// Visits pairs `from..to` in key order until `f` returns `false`,
    /// each key rebuilt in place on the stack (a long one's handle
    /// shared) and each value lent: no allocation and no count touched
    /// either way. The prefix is copied once, into a template each slot
    /// completes — its padding zeros are the handle's own. Returns
    /// `false` if `f` ended the visit. (A visit, not an iterator: the key
    /// is built where `f` borrows it, never moved out of an iterator's
    /// item, which cost a scan ≈40 % more a pair in a build without
    /// LTO, the build `pqbench`'s in-process replay runs.)
    #[inline]
    fn visit(
        &self,
        from: usize,
        to: usize,
        f: &mut impl FnMut(&Key, ValueRef<'_>) -> bool,
    ) -> bool {
        let (head, width) = (self.prefix as usize, usize::from(self.width));
        let mut template = [0u8; KEY_IN_PLACE];
        // Past `KEY_IN_PLACE` bytes of prefix every key is long, and no
        // slot is copied.
        let copied = head.min(KEY_IN_PLACE);
        template[..copied].copy_from_slice(&self.prefix()[..copied]);
        let mut long = self.rank(from);
        let mut key_of = |slot: &[u8]| match slot[0] {
            LONG => {
                long += 1;
                self.longs()[long - 1].clone()
            }
            n => {
                let mut bytes = template;
                bytes[head..head + width].copy_from_slice(&slot[1..=width]);
                Key::from(&bytes[..head + usize::from(n)])
            }
        };
        // Read once, not after every call to `f`.
        let (s, v, column) = (self.slot_len(), width + 1, &self.shared[..]);
        let mut slots = self.slots[from * s..to * s].chunks_exact(s);
        if column.len() == self.len() {
            // Every value shared, as in a timeline's block: the pointers
            // step with the slots.
            return (slots.zip(&column[from..to]))
                .all(|(slot, data)| f(&key_of(slot), ValueRef::shared(slot[v], data)));
        }
        let mut shared = self.shared_rank(from);
        slots.all(|slot| {
            let value = view(slot, v, column, shared);
            shared += usize::from(is_shared(slot[v]));
            f(&key_of(slot), value)
        })
    }

    /// `key`'s bytes past the prefix, or, for a key that does not start
    /// with it, where it sorts: below every key or past them all. The
    /// prefix is compared once, and only remainders after it.
    fn strip<'k>(&self, key: &'k [u8]) -> Result<&'k [u8], usize> {
        let prefix = self.prefix();
        let head = key.len().min(prefix.len());
        match key[..head]
            .cmp(&prefix[..head])
            .then(head.cmp(&prefix.len()))
        {
            Ordering::Less => Err(0),
            Ordering::Greater => Err(self.len()),
            Ordering::Equal => Ok(&key[head..]),
        }
    }

    /// Where `key` is, or where it would go: a binary search over the
    /// slots only.
    fn find(&self, key: &[u8]) -> Result<usize, usize> {
        let rest = self.strip(key)?;
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.rest(mid).cmp(rest) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// How many keys sort below `key`.
    fn below(&self, key: &Key) -> usize {
        let (Ok(at) | Err(at)) = self.find(key.as_bytes());
        at
    }

    /// True if `key` sorts above the last key.
    fn past_last(&self, key: &[u8]) -> bool {
        self.after_last(key).is_some()
    }

    /// If `key` sorts above the last key, whether it starts with the
    /// prefix.
    fn after_last(&self, key: &[u8]) -> Option<bool> {
        match self.strip(key) {
            Ok(rest) => (self.rest(self.len() - 1) < rest).then_some(true),
            Err(at) => (at > 0).then_some(false),
        }
    }

    /// Makes room for `pairs` slots, and sizes the block for at least
    /// that many. When the slots must grow, they grow to as many as the
    /// block is sized for.
    fn reserve(&mut self, pairs: usize) {
        self.room = self.room.max(pairs as u8);
        let want = pairs * self.slot_len();
        if want > self.slots.capacity() {
            let room = usize::from(self.room) * self.slot_len();
            self.slots.reserve_exact(room - self.slots.len());
        }
    }

    /// Makes room in the column for one more pointer, after
    /// [`Block::reserve`] made room for one more pair. When it must grow,
    /// it grows to as many pointers as the pairs still to come could
    /// need.
    fn reserve_shared(&mut self) {
        if self.shared.len() == self.shared.capacity() {
            let more = usize::from(self.room) - self.len();
            self.shared.reserve_exact(more.max(1));
        }
    }

    /// The width the slots need under a prefix `to` bytes long, no longer
    /// than the current one: the current width grown by the bytes the
    /// prefix loses, or zero if every key is long.
    fn width_under(&self, to: usize) -> usize {
        match self.longs().len() < self.len() {
            true => usize::from(self.width) + self.prefix as usize - to,
            false => 0,
        }
    }

    /// Puts a pair at `at`, first re-encoding the slots if `key` does not
    /// share all of the prefix or needs a wider slot, or `value` does.
    fn insert(&mut self, at: usize, key: Key, value: Value) {
        // A full block doubles, through the size classes, as a `Vec` would.
        if self.len() == usize::from(self.room) {
            self.room = size_class(self.len() + 1) as u8;
        }
        let (rank, shared_rank) = (self.rank(at), self.shared_rank(at));
        let long = key.len() > KEY_IN_PLACE;
        let common = common_len(self.prefix(), key.as_bytes());
        let rest = match long {
            true => None,
            false => Some(&key.as_bytes()[common..]),
        };
        let width = rest.map_or(0, <[u8]>::len).max(self.width_under(common));
        let value_width = in_place_len(value.code()).max(self.value_width.into());
        self.relayout(common, width, value_width);
        self.reserve(self.len() + 1);
        let (s, end, v) = (self.slot_len(), self.slots.len(), self.value_offset());
        self.slots.resize(end + s, 0);
        self.slots.copy_within(at * s..end, (at + 1) * s);
        let slot = &mut self.slots[at * s..(at + 1) * s];
        slot.fill(0);
        match rest {
            None => slot[0] = LONG,
            Some(rest) => {
                slot[0] = rest.len() as u8;
                slot[1..=rest.len()].copy_from_slice(rest);
            }
        }
        write_value(slot, v, &value);
        if long {
            self.longs_mut().insert(rank, key.clone());
        }
        if let Some(data) = value.into_shared() {
            self.reserve_shared();
            self.shared.insert(shared_rank, data);
        }
        self.len += 1;
        if at == 0 {
            self.fence = key;
        }
    }

    /// [`Block::insert`] at the end, for a key past the last: the common
    /// write, and one slot pushed when the key starts with the prefix
    /// (`prefixed`, as [`Block::after_last`] found) and it and the value
    /// fit the slot.
    fn push(&mut self, key: Key, value: Value, prefixed: bool) {
        let (held, head) = (self.len(), self.prefix as usize);
        if !prefixed
            || key.len() > KEY_IN_PLACE
            || key.len() - head > usize::from(self.width)
            || in_place_len(value.code()) > usize::from(self.value_width)
        {
            return self.insert(held, key, value);
        }
        let rest = &key.as_bytes()[head..];
        self.reserve(held + 1);
        let (end, v) = (self.slots.len(), self.value_offset());
        self.slots.resize(end + self.slot_len(), 0);
        self.slots[end] = rest.len() as u8;
        self.slots[end + 1..=end + rest.len()].copy_from_slice(rest);
        write_value(&mut self.slots[end..], v, &value);
        if let Some(data) = value.into_shared() {
            self.reserve_shared();
            self.shared.push(data);
        }
        self.len += 1;
    }

    /// Puts `value` in place of pair `at`'s and returns the one it
    /// replaces. A slot left without the widest in-place value renews
    /// the widths.
    fn replace(&mut self, at: usize, value: Value) -> Value {
        let value_width = in_place_len(value.code()).max(self.value_width.into());
        self.relayout(self.prefix as usize, self.width.into(), value_width);
        let (shared_rank, old_code) = (self.shared_rank(at), self.code(at));
        let old = self.take_value(at);
        let (s, v) = (self.slot_len(), self.value_offset());
        let slot = &mut self.slots[at * s..(at + 1) * s];
        slot[v..].fill(0);
        write_value(slot, v, &value);
        if let Some(data) = value.into_shared() {
            self.reserve_shared();
            self.shared.insert(shared_rank, data);
        }
        let narrowed = in_place_len(old_code) == usize::from(self.value_width);
        if narrowed && in_place_len(self.code(at)) < in_place_len(old_code) {
            self.renew();
        }
        old
    }

    /// Takes pair `at` out. A block that keeps pairs but lost its first or
    /// last key, or its widest key remainder or in-place value, renews
    /// its fence, prefix and widths.
    fn remove(&mut self, at: usize) -> Value {
        let (s, n, code) = (self.slot_len(), self.slot(at)[0], self.code(at));
        if n == LONG {
            let rank = self.rank(at);
            self.longs_mut().remove(rank);
            self.tidy_longs();
        }
        let value = self.take_value(at);
        self.slots.drain(at * s..(at + 1) * s);
        self.len -= 1;
        let widest = n == self.width || in_place_len(code) == usize::from(self.value_width);
        if self.len > 0 && (at == 0 || at == self.len() || widest) {
            self.renew();
        }
        value
    }

    /// Offers pairs `from..to` to `doomed` in key order, takes out those
    /// it accepts in one compaction, and returns how many went.
    fn retain(
        &mut self,
        from: usize,
        to: usize,
        doomed: &mut impl FnMut(&Key, ValueRef<'_>) -> bool,
    ) -> usize {
        let (mut gone, mut at) = (0u64, from);
        self.visit(from, to, &mut |key, value| {
            gone |= u64::from(doomed(key, value)) << at;
            at += 1;
            true
        });
        if gone == 0 {
            return 0;
        }
        let (held, s, v) = (self.len(), self.slot_len(), self.value_offset());
        if gone.count_ones() as usize == held {
            self.len = 0;
            self.slots.clear();
            self.shared.clear();
            self.long = None;
            return held;
        }
        let (mut kept, mut long, mut long_gone) = (0, 0, 0u64);
        let (mut shared, mut shared_gone) = (0, 0u64);
        for i in 0..held {
            let dropped = gone >> i & 1 == 1;
            if self.slots[i * s] == LONG {
                long_gone |= u64::from(dropped) << long;
                long += 1;
            }
            if is_shared(self.slots[i * s + v]) {
                shared_gone |= u64::from(dropped) << shared;
                shared += 1;
            }
            if !dropped {
                self.slots.copy_within(i * s..(i + 1) * s, kept * s);
                kept += 1;
            }
        }
        self.slots.truncate(kept * s);
        drop_marked(&mut self.shared, shared_gone);
        if let Some(long) = &mut self.long {
            drop_marked(long, long_gone);
            self.tidy_longs();
        }
        self.len = kept as u8;
        self.renew();
        gone.count_ones() as usize
    }

    /// Splits pairs `at..` off into a block of their own; each half then
    /// holds the longest prefix and the narrowest slots its own pairs
    /// allow.
    fn split_off(&mut self, at: usize) -> Block {
        let (held, s, prefix) = (self.len(), self.slot_len(), self.prefix);
        let fence = self.key(at);
        let (rank, shared_rank) = (self.rank(at), self.shared_rank(at));
        let slots = self.slots[at * s..].to_vec();
        self.slots.truncate(at * s);
        let shared = self.shared.split_off(shared_rank);
        let long = (self.long.as_mut()).and_then(|long| boxed(long.split_off(rank)));
        self.tidy_longs();
        self.len = at as u8;
        let mut upper = Block {
            fence,
            slots,
            shared,
            long,
            prefix,
            width: self.width,
            value_width: self.value_width,
            len: (held - at) as u8,
            room: (held - at) as u8,
        };
        self.renew();
        upper.renew();
        upper
    }

    /// Re-derives the fence, the prefix and the widths from the pairs
    /// after the first key, the last or the widest key or value may have
    /// changed.
    fn renew(&mut self) {
        let (last, from) = (self.len() - 1, self.prefix as usize);
        let prefix = from + common_len(self.rest(0), self.rest(last));
        // Rebuilt under the old prefix, which every key still starts with.
        self.fence = self.key(0);
        let (s, v) = (self.slot_len(), self.value_offset());
        let slots = self.slots.chunks_exact(s);
        let widest = (slots.clone())
            .filter(|slot| slot[0] != LONG)
            .map(|slot| usize::from(slot[0]))
            .max();
        let value_width = slots.map(|slot| in_place_len(slot[v])).max();
        self.relayout(
            prefix,
            widest.map_or(0, |w| w + from - prefix),
            value_width.unwrap_or(0),
        );
    }

    /// Re-encodes every slot for a prefix `to` bytes long, key remainders
    /// `width` wide and in-place values `value_width` wide: a shorter
    /// prefix's lost bytes (taken from the fence) go in front of each
    /// in-place remainder, a longer one's gained bytes are cut from them,
    /// and each value's code and bytes move along. Long keys have no
    /// remainder to change.
    fn relayout(&mut self, to: usize, width: usize, value_width: usize) {
        let (from, old, old_v) = (self.prefix as usize, self.slot_len(), self.value_offset());
        if (to, width, value_width) == (from, self.width.into(), self.value_width.into()) {
            return;
        }
        let (held, s) = (self.len(), width + value_width + 2);
        let mut encoded = [0u8; BLOCK_PAIRS * (KEY_IN_PLACE + IN_PLACE + 2)];
        let lost = &self.fence.as_bytes()[to.min(from)..from];
        for (i, slot) in self.slots.chunks_exact(old).enumerate() {
            let out = &mut encoded[i * s..(i + 1) * s];
            let n = usize::from(slot[0]);
            match slot[0] {
                LONG => out[0] = LONG,
                _ if to <= from => {
                    out[0] = (n + lost.len()) as u8;
                    out[1..=lost.len()].copy_from_slice(lost);
                    out[1 + lost.len()..=lost.len() + n].copy_from_slice(&slot[1..=n]);
                }
                _ => {
                    let cut = to - from;
                    out[0] = (n - cut) as u8;
                    out[1..=n - cut].copy_from_slice(&slot[1 + cut..=n]);
                }
            }
            let m = in_place_len(slot[old_v]);
            out[width + 1..=width + 1 + m].copy_from_slice(&slot[old_v..=old_v + m]);
        }
        (self.prefix, self.width) = (to as u32, width as u8);
        self.value_width = value_width as u8;
        self.slots.clear();
        self.reserve(held);
        self.slots.extend_from_slice(&encoded[..held * s]);
    }

    /// Gives up the spare capacity of every allocation.
    fn shrink(&mut self) {
        self.slots.shrink_to_fit();
        self.shared.shrink_to_fit();
        if let Some(long) = &mut self.long {
            long.shrink_to_fit();
        }
        self.room = self.len;
    }

    /// Problems with the encoding itself, which must be sound before a
    /// pair can be rebuilt: the slot count, each length byte, code and
    /// padding, the handle and pointer counts, each pointer's buffer, the
    /// prefix's length and both widths.
    fn malformed(&self) -> Option<String> {
        let (held, s, v) = (self.len(), self.slot_len(), self.value_offset());
        if self.slots.len() != held * s {
            return Some(format!(
                "{} slot bytes are not {held} slots of {s}",
                self.slots.len()
            ));
        }
        if self.prefix as usize > self.fence.len() {
            return Some(format!("a {}-byte prefix outruns its fence", self.prefix));
        }
        if self.room < self.len {
            return Some(format!("room for {} of {held} pairs", self.room));
        }
        let (mut widest, mut widest_value) = (None, 0);
        for (i, slot) in self.slots.chunks_exact(s).enumerate() {
            let n = match slot[0] {
                LONG => 0,
                n => usize::from(n),
            };
            let m = in_place_len(slot[v]);
            let fits = n <= usize::from(self.width) && m <= usize::from(self.value_width);
            if !fits || (slot[1 + n..v].iter().chain(&slot[v + 1 + m..])).any(|&b| b != 0) {
                return Some(format!("pair {i}'s slot {slot:?} is out of shape"));
            }
            if slot[0] != LONG {
                widest = widest.max(Some(n));
            }
            widest_value = widest_value.max(m);
        }
        let slots = || self.slots.chunks_exact(s);
        let long = slots().filter(|slot| slot[0] == LONG).count();
        let shared = slots().filter(|slot| is_shared(slot[v])).count();
        if self.shared.len() != shared {
            return Some(format!(
                "{} pointers for {shared} shared values",
                self.shared.len()
            ));
        }
        let codes = slots().map(|slot| slot[v]).filter(|&c| is_shared(c));
        if let Some((code, _)) = codes.zip(&self.shared).find(|(c, data)| !data.holds(*c)) {
            return Some(format!("a pointer under code {code} holds another form"));
        }
        if self.longs().len() != long {
            return Some(format!(
                "{} handles for {long} long keys",
                self.longs().len()
            ));
        }
        if self.long.as_ref().is_some_and(|l| l.is_empty()) {
            return Some("an empty list of long keys".to_string());
        }
        if widest.unwrap_or(0) != usize::from(self.width) {
            return Some(format!(
                "key remainders {} bytes wide for a widest of {}",
                self.width,
                widest.unwrap_or(0)
            ));
        }
        if widest_value != usize::from(self.value_width) {
            return Some(format!(
                "values {} bytes wide for a widest of {widest_value}",
                self.value_width
            ));
        }
        None
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

/// If `key` sorts above every pair of `blocks`, whether it starts with
/// the tail's prefix (`false` with no tail). The tail's fence, which sits
/// in the directory, turns away a key below it before the tail's own
/// bytes are read.
fn past_end(blocks: &[Block], key: &Key) -> Option<bool> {
    match blocks.last() {
        None => Some(false),
        Some(tail) if *key > tail.fence => tail.after_last(key.as_bytes()),
        Some(_) => None,
    }
}

/// [`Blocks::put_in_run`] within one list of blocks.
fn put_in(blocks: &mut Vec<Block>, key: Key, value: Value, room: usize) -> Option<Value> {
    if let Some(prefixed) = past_end(blocks, &key) {
        match blocks.last_mut() {
            Some(tail) if tail.len() < BLOCK_PAIRS => {
                let held = tail.len();
                if held == usize::from(tail.room) {
                    tail.room = size_class(held + room) as u8;
                }
                tail.push(key, value, prefixed);
            }
            _ => {
                let fresh = Block::starting_with(key, value, room);
                blocks.push(fresh);
            }
        }
        return None;
    }
    let b = entry_for(blocks, &key);
    let block = &mut blocks[b];
    let at = match block.find(key.as_bytes()) {
        Ok(at) => return Some(block.replace(at, value)),
        Err(at) => at,
    };
    if block.len() < BLOCK_PAIRS {
        block.insert(at, key, value);
    } else if at == BLOCK_PAIRS {
        blocks.insert(b + 1, Block::starting_with(key, value, 1));
    } else {
        const HALF: usize = BLOCK_PAIRS / 2;
        let mut upper = block.split_off(HALF);
        match at < HALF {
            true => block.insert(at, key, value),
            false => {
                upper.room += 1;
                upper.insert(at - HALF, key, value);
            }
        }
        // Both halves are sized to fit: most never see a second
        // mid-insert, and one that does doubles again.
        block.shrink();
        blocks.insert(b + 1, upper);
    }
    None
}

/// [`Blocks::remove`] within one list of blocks.
fn remove_in(blocks: &mut Vec<Block>, key: &Key) -> Option<Value> {
    let b = entry_for(blocks, key);
    let block = blocks.get_mut(b)?;
    let at = block.find(key.as_bytes()).ok()?;
    let value = block.remove(at);
    match block.len() {
        0 => {
            blocks.remove(b);
        }
        _ => merge_around(blocks, b, BLOCK_PAIRS / 2),
    }
    Some(value)
}

/// [`Blocks::remove_range`] within one list of blocks.
fn remove_range_in(
    blocks: &mut Vec<Block>,
    range: &KeyRange,
    doomed: &mut impl FnMut(&Key, ValueRef<'_>) -> bool,
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
            true => block.below(&range.first),
            false => 0,
        };
        let hi = match range.end.as_key() {
            Some(bound) if !block.past_last(bound.as_bytes()) => block.below(bound),
            _ => block.len(),
        };
        removed += block.retain(lo, hi, doomed);
        emptied |= block.len() == 0;
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
fn scan_in(
    blocks: &[Block],
    range: &KeyRange,
    f: &mut impl FnMut(&Key, ValueRef<'_>) -> bool,
) -> Walk {
    let b = entry_for(blocks, &range.first);
    let Some(block) = blocks.get(b) else {
        return Walk::RanOff;
    };
    let mut skip = block.below(&range.first);
    for (at, block) in blocks.iter().enumerate().skip(b) {
        // The bound is compared once per block, not once per pair, and
        // with the next block's fence where there is one: the search has
        // just read that, the block's own last key is a cache line away.
        let cut = match (range.end.as_key(), blocks.get(at + 1)) {
            (None, _) => None,
            (Some(bound), Some(next)) if next.fence < *bound => None,
            (Some(bound), None) if block.past_last(bound.as_bytes()) => None,
            (Some(bound), _) => Some(block.below(bound).max(skip)),
        };
        if !block.visit(skip, cut.unwrap_or(block.len()), f) {
            return Walk::Stopped;
        }
        if cut.is_some() {
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
            && blocks[CHUNK_BLOCKS - 1].len() == BLOCK_PAIRS
            && past_end(blocks, &key).is_some();
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

    /// Takes pairs off the front of `run`, an ascending run with `left`
    /// pairs still to come, while they sort past every key held, and lays
    /// them out as whole blocks, each built in one pass: no slot is
    /// written twice and no block regrows. Takes nothing while the tail
    /// block has room ([`Blocks::put_in_run`] fills it) or the directory
    /// is a full chunk or more. Returns how many pairs it took; `took`
    /// sees each one.
    pub(crate) fn append_run(
        &mut self,
        run: &mut std::vec::IntoIter<(Key, Value)>,
        left: usize,
        took: &mut impl FnMut(usize, usize),
    ) -> usize {
        let Dir::One(blocks) = &mut self.dir else {
            return 0;
        };
        let mut done = 0;
        while done < left && blocks.len() < CHUNK_BLOCKS {
            let pairs = &run.as_slice()[..left - done];
            let tail_full = blocks.last().is_none_or(|tail| tail.len() == BLOCK_PAIRS);
            if !tail_full || past_end(blocks, &pairs[0].0).is_none() {
                break;
            }
            let m = 1
                + (pairs.windows(2))
                    .take(BLOCK_PAIRS - 1)
                    .take_while(|w| w[0].0 < w[1].0)
                    .count();
            blocks.push(Block::built(run, m, left - done, took));
            done += m;
        }
        done
    }

    /// Looks up a key.
    pub(crate) fn get(&self, key: &Key) -> Option<ValueRef<'_>> {
        let blocks = self.lists(Some(key)).next()?;
        let block = blocks.get(entry_for(blocks, key))?;
        let at = block.find(key.as_bytes()).ok()?;
        Some(block.value(at))
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
        doomed: &mut impl FnMut(&Key, ValueRef<'_>) -> bool,
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

    /// Pairs held, counted block by block (each block's count is checked
    /// against its encoding by [`Blocks::audit`]).
    pub(crate) fn len(&self) -> usize {
        self.lists(None).flatten().map(Block::len).sum()
    }

    /// The first and the last key, if any: every key sorts between them.
    pub(crate) fn ends(&self) -> Option<(Key, Key)> {
        let first = self.lists(None).flatten().next()?;
        let last = self.lists(None).flatten().last()?;
        Some((first.key(0), last.key(last.len() - 1)))
    }

    /// Pairs, key bytes and value bytes, summed from the slots without
    /// rebuilding a key: the full walk
    /// [`Store::audit`](crate::Store::audit) holds its counters against.
    pub(crate) fn totals(&self) -> (usize, usize, usize) {
        let (mut pairs, mut key_bytes, mut value_bytes) = (0, 0, 0);
        for block in self.lists(None).flatten() {
            let (head, v) = (block.prefix as usize, block.value_offset());
            let (mut longs, mut shared) = (block.longs().iter(), block.shared.iter());
            for slot in block.slots.chunks_exact(block.slot_len()) {
                pairs += 1;
                key_bytes += match slot[0] {
                    LONG => longs.next().map_or(0, Key::len),
                    n => head + usize::from(n),
                };
                value_bytes += match slot[v] {
                    code if is_shared(code) => {
                        (shared.next()).map_or(0, |data| ValueRef::shared(code, data).len())
                    }
                    n => usize::from(n),
                };
            }
        }
        (pairs, key_bytes, value_bytes)
    }

    /// Visits every pair in key order, each key rebuilt as
    /// [`Block::visit`] does.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&Key, ValueRef<'_>)) {
        for block in self.lists(None).flatten() {
            block.visit(0, block.len(), &mut |k, v| {
                f(k, v);
                true
            });
        }
    }

    /// Visits the pairs in `range` in key order until the visitor returns
    /// `false`. Returns `false` if the visitor ended the scan.
    pub(crate) fn scan(
        &self,
        range: &KeyRange,
        f: &mut impl FnMut(&Key, ValueRef<'_>) -> bool,
    ) -> bool {
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
    /// more; and of each block's encoding, one zero-padded slot per pair
    /// as wide as the longest key remainder and in-place value, one
    /// handle per long key, one pointer of the right form per shared
    /// value, every key rebuilt in place exactly when it is at most
    /// [`KEY_IN_PLACE`] bytes long, and a prefix that is the longest its
    /// first and last key share. Returns one message per problem.
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
        let mut prev: Option<Key> = None;
        let mut b = 0;
        for (c, blocks) in self.lists(None).enumerate() {
            if blocks.len() > CHUNK_BLOCKS {
                problems.push(format!(
                    "chunk {c} holds {} blocks; capacity is {CHUNK_BLOCKS}",
                    blocks.len()
                ));
            }
            for block in blocks {
                b += 1;
                let (b, held) = (b - 1, block.len());
                if held > BLOCK_PAIRS {
                    problems.push(format!(
                        "block {b} holds {held} pairs; capacity is {BLOCK_PAIRS}"
                    ));
                }
                if held == 0 {
                    problems.push(format!("block {b} is empty"));
                    continue;
                }
                if let Some(flaw) = block.malformed() {
                    problems.push(format!("block {b} is malformed: {flaw}"));
                    continue;
                }
                let first = block.key(0);
                if first != block.fence {
                    problems.push(format!(
                        "block {b} has fence {:?} but starts at {first:?}",
                        block.fence
                    ));
                }
                let shared = common_len(block.rest(0), block.rest(held - 1));
                if shared > 0 {
                    problems.push(format!(
                        "block {b}: its first and last keys share {shared} byte(s) past its {}-byte prefix",
                        block.prefix
                    ));
                }
                if prev.as_ref().is_some_and(|p| *p >= first) {
                    problems.push(format!(
                        "block {b}: key {first:?} does not ascend past {prev:?}"
                    ));
                }
                // Within a block keys compare as remainders: they share
                // its prefix. A long key's handle must start with it.
                let (mut long, mut last) = (0, None);
                for (i, slot) in block.slots.chunks_exact(block.slot_len()).enumerate() {
                    let rest = match slot[0] {
                        LONG => {
                            long += 1;
                            let handle = &block.longs()[long - 1];
                            if handle.len() <= KEY_IN_PLACE || !handle.starts_with(block.prefix()) {
                                problems.push(format!(
                                    "block {b}: key {handle:?} is held as a long handle under prefix {:?}",
                                    Key::from(block.prefix())
                                ));
                                last = None;
                                continue;
                            }
                            &handle.as_bytes()[block.prefix as usize..]
                        }
                        n => &slot[1..=usize::from(n)],
                    };
                    if slot[0] != LONG && block.prefix as usize + rest.len() > KEY_IN_PLACE {
                        problems.push(format!(
                            "block {b}: key {:?} is held in place past {KEY_IN_PLACE} bytes",
                            block.key(i)
                        ));
                    }
                    if last.is_some_and(|last| last >= rest) {
                        problems.push(format!(
                            "block {b}: key {:?} does not ascend past {:?}",
                            block.key(i),
                            block.key(i - 1)
                        ));
                    }
                    last = Some(rest);
                }
                prev = Some(block.key(held - 1));
            }
        }
        problems
    }

    /// The block that may hold `key`, for the test-only hooks below.
    fn block_mut(&mut self, key: &Key) -> Option<&mut Block> {
        let (_, blocks) = self.list_mut(key);
        let b = entry_for(blocks, key);
        blocks.get_mut(b)
    }

    /// Test-only hook: files the block holding `key` under the wrong
    /// fence, so tests can prove the auditor notices.
    pub(crate) fn debug_misfile_fence(&mut self, key: &Key) {
        if let Some(block) = self.block_mut(key) {
            block.fence = block.fence.successor();
        }
    }

    /// Test-only hook: re-encodes the block holding `key` under a prefix
    /// one byte shorter than its keys share. Every key still reads back
    /// right; only the prefix invariant breaks, so tests can prove the
    /// auditor notices.
    #[cfg(test)]
    pub(crate) fn debug_shorten_prefix(&mut self, key: &Key) {
        if let Some(block) = self.block_mut(key).filter(|block| block.prefix > 0) {
            let to = block.prefix as usize - 1;
            block.relayout(to, block.width_under(to), block.value_width.into());
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

    fn key(n: usize) -> Key {
        Key::from(format!("t|ann|{n:06}"))
    }

    fn value(n: usize) -> Value {
        Value::from(n.to_string().into_bytes())
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

    fn pairs_of(blocks: &Blocks) -> Vec<(Key, Value)> {
        let mut pairs = Vec::new();
        blocks.for_each(|k, v| pairs.push((k.clone(), v.to_value())));
        pairs
    }

    fn keys_of(blocks: &Blocks) -> Vec<Key> {
        pairs_of(blocks).into_iter().map(|(k, _)| k).collect()
    }

    /// Every block in key order, whatever chunk it is in.
    fn blocks_of(blocks: &Blocks) -> Vec<&Block> {
        blocks.lists(None).flatten().collect()
    }

    /// Pairs held by each block.
    fn fill(blocks: &Blocks) -> Vec<usize> {
        blocks_of(blocks).iter().map(|b| b.len()).collect()
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
        assert_eq!(pairs_of(&blocks).len(), 3 * BLOCK_PAIRS + 5);
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
                .map(|b| usize::from(b.room))
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

    /// A run past the end is laid out whole blocks at a time, each at the
    /// class it ends in, and holds what pair-by-pair appends would; the
    /// layout stops at a pair that does not ascend, and takes nothing
    /// while the tail has room or the run starts inside the container.
    #[test]
    fn a_run_past_the_end_is_laid_out_in_whole_blocks() {
        let laid_out = |blocks: &mut Blocks, run: Vec<(Key, Value)>| {
            let left = run.len();
            let (mut run, mut seen) = (run.into_iter(), 0);
            let took = blocks.append_run(&mut run, left, &mut |_, _| seen += 1);
            assert_eq!(took, seen);
            took
        };
        let pairs = |ns: &[usize]| -> Vec<(Key, Value)> {
            ns.iter().map(|&n| (key(2 * n), value(n))).collect()
        };
        let n = 2 * BLOCK_PAIRS + 12;
        let mut blocks = ascending(BLOCK_PAIRS);
        let run: Vec<usize> = (BLOCK_PAIRS..BLOCK_PAIRS + n).collect();
        assert_eq!(laid_out(&mut blocks, pairs(&run)), n);
        assert_eq!(keys_of(&blocks), keys_of(&ascending(BLOCK_PAIRS + n)));
        assert_eq!(fill(&blocks), [BLOCK_PAIRS, BLOCK_PAIRS, BLOCK_PAIRS, 12]);
        let room: Vec<usize> = (blocks_of(&blocks).iter())
            .map(|b| usize::from(b.room))
            .collect();
        assert_eq!(room, [BLOCK_PAIRS, BLOCK_PAIRS, BLOCK_PAIRS, 16]);
        assert_sound(&blocks);
        // The tail has room: nothing is taken.
        assert_eq!(laid_out(&mut blocks, pairs(&[500])), 0);
        // Stops where the run stops ascending, and below the end.
        let mut blocks = ascending(BLOCK_PAIRS);
        assert_eq!(laid_out(&mut blocks, pairs(&[40, 41, 41, 42])), 2);
        assert_eq!(laid_out(&mut blocks, pairs(&[3])), 0);
        let mut blocks = ascending(BLOCK_PAIRS);
        assert_eq!(laid_out(&mut blocks, pairs(&[1, 50])), 0);
        assert_sound(&blocks);
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
        assert!(list[0].room <= 4);
        // A block of short keys has no list of long ones: its header is
        // the fence, two `Vec`s, one null pointer and three counts.
        assert!(list[0].long.is_none());
        assert_eq!(std::mem::size_of::<Block>(), 96);
    }

    #[test]
    fn replace_returns_the_old_value_and_keeps_the_count() {
        let mut blocks = ascending(2 * BLOCK_PAIRS);
        for n in [0, BLOCK_PAIRS - 1, BLOCK_PAIRS, 2 * BLOCK_PAIRS - 1] {
            assert_eq!(blocks.put(key(2 * n), value(999)), Some(value(n)));
            assert_eq!(
                blocks.get(&key(2 * n)).map(|v| v.to_value()),
                Some(value(999))
            );
        }
        assert_eq!(pairs_of(&blocks).len(), 2 * BLOCK_PAIRS);
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
            .map(|b| usize::from(b.room))
            .collect();
        assert_eq!(room, fill(&blocks), "both halves are sized to fit");
        assert_sound(&blocks);
        // Into the upper half, and at the split point itself.
        let mut blocks = ascending(2 * BLOCK_PAIRS);
        blocks.put(key(BLOCK_PAIRS + 7), value(0));
        blocks.put(key(2 * BLOCK_PAIRS + BLOCK_PAIRS - 1), value(0));
        assert_eq!(pairs_of(&blocks).len(), 2 * BLOCK_PAIRS + 2);
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
        assert_eq!(pairs_of(&blocks).len(), 2 * BLOCK_PAIRS + 5);
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
            for edge in [block.key(0), block.key(block.len() - 1)] {
                let at = all.iter().position(|k| *k == edge).unwrap();
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
            assert_eq!(
                blocks.get(&key(2 * n)).map(|v| v.to_value()),
                Some(value(n))
            );
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
            assert_eq!(pairs_of(&blocks).len(), chunks * CHUNK + 1);
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
        assert_eq!(pairs_of(&blocks).len(), 4 * CHUNK / 16);
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
        assert_eq!(pairs_of(&blocks).len(), CHUNK - 20);
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
        let tail = &mut only_list(&mut blocks)[1];
        (tail.len, tail.slots, tail.shared) = (0, Vec::new(), Vec::new());
        assert!(blocks.audit().iter().any(|m| m.contains("is empty")));

        let mut blocks = ascending(BLOCK_PAIRS);
        only_list(&mut blocks)[0].insert(BLOCK_PAIRS, key(999), value(0));
        assert!(blocks.audit().iter().any(|m| m.contains("capacity is")));

        let mut blocks = ascending(BLOCK_PAIRS + 2);
        let moved = only_list(&mut blocks)[0].remove(3);
        only_list(&mut blocks)[0].insert(4, key(6), moved);
        assert!(blocks.audit().iter().any(|m| m.contains("does not ascend")));
        let mut blocks = ascending(BLOCK_PAIRS + 2);
        only_list(&mut blocks).swap(0, 1);
        assert!(blocks.audit().iter().any(|m| m.contains("does not ascend")));
    }

    fn raw(bytes: &[u8]) -> Key {
        Key::from(bytes)
    }

    /// The blocks against a `BTreeMap` holding the same pairs: every key
    /// read back in order, found by `get`, and every scan from each
    /// probe to the end agreeing with a filter.
    fn assert_matches(
        blocks: &Blocks,
        model: &std::collections::BTreeMap<Key, Value>,
        probes: &[Key],
    ) {
        assert_sound(blocks);
        let pairs = pairs_of(blocks);
        let want: Vec<(Key, Value)> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(pairs, want);
        for probe in probes.iter().chain(model.keys()) {
            assert_eq!(
                blocks.get(probe).map(|v| v.to_value()),
                model.get(probe).cloned(),
                "get {probe:?}"
            );
            let range = KeyRange::with_bound(probe.clone(), UpperBound::Unbounded);
            let want: Vec<Key> = model
                .range(probe.clone()..)
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(
                scanned(blocks, &range, usize::MAX),
                want,
                "scan from {probe:?}"
            );
        }
    }

    /// The prefix is always the longest the first and last key share: a
    /// lone key is all prefix, an append or front insert that shares less
    /// shortens it, a key equal to the prefix is held as an empty
    /// remainder, and taking either end away lengthens it again.
    #[test]
    fn the_prefix_follows_the_first_and_last_keys() {
        let mut blocks = Blocks::new();
        let prefix = |blocks: &Blocks| blocks_of(blocks)[0].prefix().to_vec();
        let mut model = std::collections::BTreeMap::new();
        let steps: [(&[u8], &[u8]); 7] = [
            (b"t|ann|0000012345|bob", b"t|ann|0000012345|bob"),
            (b"t|ann|0000012399|bob", b"t|ann|00000123"),
            (b"t|ann|0000013000|bob", b"t|ann|000001"),
            (b"t|ann|", b"t|ann|"),
            (b"t|ann|0000012377|liz", b"t|ann|"),
            (b"t|ann|\xff", b"t|ann|"),
            (b"t|ann|\x00", b"t|ann|"),
        ];
        for (n, (key, want)) in steps.into_iter().enumerate() {
            assert!(blocks.put(raw(key), value(n)).is_none());
            model.insert(raw(key), value(n));
            assert_eq!(prefix(&blocks), want, "after {:?}", raw(key));
            assert_matches(&blocks, &model, &[]);
        }
        for (key, want) in [
            (&b"t|ann|"[..], &b"t|ann|"[..]),
            (b"t|ann|\xff", b"t|ann|"),
            (b"t|ann|\x00", b"t|ann|000001"),
            (b"t|ann|0000013000|bob", b"t|ann|00000123"),
            (b"t|ann|0000012345|bob", b"t|ann|00000123"),
        ] {
            assert!(blocks.remove(&raw(key)).is_some());
            model.remove(&raw(key));
            assert_eq!(prefix(&blocks), want, "without {:?}", raw(key));
            assert_matches(&blocks, &model, &[]);
        }
    }

    /// Probes that route to a block but share none of its prefix sort
    /// below or past all of it, whichever way they differ; so do bounds.
    #[test]
    fn probes_outside_a_blocks_prefix_sort_below_or_past_it() {
        let mut blocks = Blocks::new();
        let mut model = std::collections::BTreeMap::new();
        for n in 0..2 * BLOCK_PAIRS + 5 {
            let key = Key::from(format!("m|{:02}|{n:04}", n / BLOCK_PAIRS));
            blocks.put(key.clone(), value(n));
            model.insert(key, value(n));
        }
        let probes: Vec<Key> = [
            &b""[..],
            b"a",
            b"m",
            b"m|",
            b"m|00",
            b"m|00|",
            b"m|00|\xff",
            b"m|01",
            b"m|01|0031\x00",
            b"m|0\xff",
            b"m}",
            b"\xff",
        ]
        .into_iter()
        .map(raw)
        .collect();
        assert_matches(&blocks, &model, &probes);
        for probe in &probes {
            assert_eq!(blocks.remove(probe), None);
        }
    }

    /// Keys of 29, 30, 31 and 64 bytes — either side of the in-place
    /// limit — ending in `0x00`, `0xff`, `|` or a letter, put in a shuffled
    /// order into one container and taken out the same way.
    #[test]
    fn keys_either_side_of_the_in_place_limit_share_blocks() {
        let mut keys = Vec::new();
        let lasts: &[u8] = if cfg!(miri) {
            &[0x00, 0xff]
        } else {
            &[0x00, 0xff, b'|', b'a']
        };
        for len in [29, 30, 31, 64] {
            for &last in lasts {
                for stem in [b'k', b'q'] {
                    let mut key = vec![stem; len - 1];
                    key.push(last);
                    keys.push(Key::from(key));
                }
            }
        }
        let order: Vec<usize> = (0..keys.len()).map(|i| (i * 23 + 7) % keys.len()).collect();
        let (mut blocks, mut model) = (Blocks::new(), std::collections::BTreeMap::new());
        for &i in &order {
            blocks.put(keys[i].clone(), value(i));
            model.insert(keys[i].clone(), value(i));
            assert_matches(&blocks, &model, &keys);
        }
        for &i in order.iter().rev() {
            assert_eq!(blocks.remove(&keys[i]), model.remove(&keys[i]));
            assert_matches(&blocks, &model, &keys);
        }
        assert!(blocks.is_empty());
    }

    /// A full block of two families splits into halves that each hold
    /// their own, longer prefix; thinned out, the halves merge back under
    /// the shorter one they share.
    #[test]
    fn half_splits_and_merges_re_encode_both_halves() {
        let family = |f: char, n: usize| Key::from(format!("a|{f}{n:02}"));
        let (mut blocks, mut model) = (Blocks::new(), std::collections::BTreeMap::new());
        for (f, n) in (0..BLOCK_PAIRS).map(|i| (if i < BLOCK_PAIRS / 2 { 'x' } else { 'y' }, i)) {
            blocks.put(family(f, n), value(n));
            model.insert(family(f, n), value(n));
        }
        assert_eq!(blocks_of(&blocks)[0].prefix(), b"a|");
        let extra = Key::from("a|x05z");
        blocks.put(extra.clone(), value(0));
        model.insert(extra, value(0));
        let prefixes: Vec<&[u8]> = blocks_of(&blocks).iter().map(|b| b.prefix()).collect();
        assert_eq!(prefixes, [&b"a|x"[..], b"a|y"]);
        assert_matches(&blocks, &model, &[]);
        for n in 2..BLOCK_PAIRS - 2 {
            let f = if n < BLOCK_PAIRS / 2 { 'x' } else { 'y' };
            assert_eq!(blocks.remove(&family(f, n)), model.remove(&family(f, n)));
            assert_matches(&blocks, &model, &[]);
        }
        assert_eq!(fill(&blocks), [5]);
        assert_eq!(blocks_of(&blocks)[0].prefix(), b"a|");
    }

    /// Range removals whose bounds end inside a block's prefix, or are
    /// a prefix of every key there.
    #[test]
    fn range_removal_bounds_may_cut_inside_a_prefix() {
        for (first, end) in [
            ("t|ann|00", "t|ann|0001"),
            ("t|ann|0000", "t|ann|00002"),
            ("t|ann|000030", "t|ann|00007"),
            ("t|", "t|ann|"),
            ("t|ann|00012", "t|b"),
        ] {
            let mut blocks = ascending(4 * BLOCK_PAIRS);
            let mut model: std::collections::BTreeMap<Key, Value> = (0..4 * BLOCK_PAIRS)
                .map(|n| (key(2 * n), value(n)))
                .collect();
            let range = KeyRange::new(first, end);
            let want = model.keys().filter(|k| range.contains(k)).count();
            assert_eq!(remove_all(&mut blocks, &range), want, "{range:?}");
            model.retain(|k, _| !range.contains(k));
            assert_matches(&blocks, &model, std::slice::from_ref(&range.first));
        }
    }

    #[test]
    fn audit_notices_a_prefix_shorter_than_its_keys_share() {
        let mut blocks = ascending(BLOCK_PAIRS + 2);
        let before = keys_of(&blocks);
        blocks.debug_shorten_prefix(&key(0));
        assert_eq!(keys_of(&blocks), before, "every key still reads back");
        let problems = blocks.audit();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("share"), "{problems:?}");
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

    /// A value of `len` bytes, distinct for each `n`.
    fn sized(n: usize, len: usize) -> Value {
        let mut bytes = format!("{n}.").into_bytes();
        bytes.resize(len, b'v');
        Value::from(bytes)
    }

    /// The value lengths at every seam the column has: empty, in place up
    /// to 14 bytes, a shared array from 15 to 64, a box past it.
    const SEAMS: [usize; 10] = [0, 1, 13, 14, 15, 16, 49, 64, 65, 80];

    /// Where a value lives: its in-place bytes, or the address of the
    /// shared buffer it reads from.
    fn lives_at(value: &[u8]) -> Option<*const u8> {
        (value.len() > IN_PLACE).then_some(value.as_ptr())
    }

    /// Values of every length from 0 to 80 bytes, mixed inside one block
    /// and put in every order: each reads back, a shared one from the
    /// very buffer it was put with, and each block keeps exactly one
    /// pointer per value past 14 bytes and pads its slots to its longest
    /// in-place value.
    #[test]
    fn values_of_every_length_share_a_block() {
        for order in 0..3 {
            let mut blocks = Blocks::new();
            let mut model = std::collections::BTreeMap::new();
            for i in 0..=80 {
                let n = match order {
                    0 => i,
                    1 => 80 - i,
                    _ => (i * 37) % 81,
                };
                let value = sized(n, n);
                let at = lives_at(&value);
                blocks.put(key(n), value.clone());
                model.insert(key(n), value);
                let got = blocks.get(&key(n)).map(|v| lives_at(&v));
                assert_eq!(got, Some(at), "{n} bytes");
            }
            assert_matches(&blocks, &model, &[]);
            for block in blocks_of(&blocks) {
                let codes = (0..block.len()).map(|i| block.code(i));
                let shared = codes.clone().filter(|&c| is_shared(c)).count();
                assert_eq!(block.shared.len(), shared);
                let widest = codes.map(in_place_len).max();
                assert_eq!(usize::from(block.value_width), widest.unwrap_or(0));
            }
        }
    }

    /// A key rewritten with values across the seams flips its slot
    /// between in place and shared, in the middle and at either end of a
    /// block, and every rewrite returns the value it replaced; the slots
    /// narrow again once the widest in-place value is gone.
    #[test]
    fn a_rewrite_flips_a_slot_between_in_place_and_shared() {
        for at in [0, 5, BLOCK_PAIRS - 1] {
            let mut blocks = ascending(BLOCK_PAIRS);
            let mut model: std::collections::BTreeMap<Key, Value> =
                pairs_of(&blocks).into_iter().collect();
            let mut previous = value(at);
            for (i, len) in SEAMS.iter().chain(SEAMS.iter().rev()).enumerate() {
                let next = sized(i, *len);
                let old = blocks.put(key(2 * at), next.clone());
                assert_eq!(old, Some(previous), "pair {at}, {len} bytes");
                model.insert(key(2 * at), next.clone());
                assert_matches(&blocks, &model, &[]);
                previous = next;
            }
            // The widest value was `value(at)`'s or a rewrite's; after a
            // shared one the slots are as narrow as the others allow.
            blocks.put(key(2 * at), sized(0, 70));
            let block = &blocks_of(&blocks)[0];
            assert_eq!(usize::from(block.value_width), 2, "pair {at}");
            assert_eq!(block.shared.len(), 1);
        }
    }

    /// A block of in-place values allocates no pointer column; a block of
    /// shared ones holds one pointer a pair, sized with the block.
    #[test]
    fn the_pointer_column_costs_only_what_it_holds() {
        let markers = ascending(3 * BLOCK_PAIRS);
        assert!(blocks_of(&markers).iter().all(|b| b.shared.capacity() == 0));
        let tweet = sized(0, 49);
        let mut timeline = Blocks::new();
        for n in 0..BLOCK_PAIRS + 3 {
            timeline.put(key(n), tweet.clone());
        }
        let held: Vec<(usize, usize)> = (blocks_of(&timeline).iter())
            .map(|b| (b.shared.len(), b.shared.capacity()))
            .collect();
        assert_eq!(held, [(BLOCK_PAIRS, BLOCK_PAIRS), (3, 4)]);
        timeline.for_each(|_, v| assert_eq!(v.as_bytes().as_ptr(), tweet.as_ptr(), "one buffer"));
    }

    /// Every structural event with values of mixed lengths in play:
    /// splits of full blocks by mid-inserts, merges and emptied blocks
    /// from removals and range removals, runs laid out whole blocks at a
    /// time, and the directory growing past one chunk and folding back,
    /// each step against a `BTreeMap`.
    #[test]
    fn the_value_column_follows_splits_merges_runs_and_chunks() {
        let mut blocks = Blocks::new();
        let mut model = std::collections::BTreeMap::new();
        let len = |n: usize| SEAMS[n % SEAMS.len()];
        // An ascending run past the end, laid out in whole blocks.
        let n = CHUNK_BLOCKS * BLOCK_PAIRS / 2;
        let run: Vec<(Key, Value)> = (0..n).map(|n| (key(4 * n), sized(n, len(n)))).collect();
        model.extend(run.iter().cloned());
        let mut run = run.into_iter();
        assert_eq!(blocks.append_run(&mut run, n, &mut |_, _| {}), n);
        assert_matches(&blocks, &model, &[]);
        // Appends past one chunk, then mid-inserts splitting full blocks.
        for n in n..3 * n {
            let v = sized(n, len(n + 3));
            blocks.put_in_run(key(4 * n), v.clone(), 3 * n - n);
            model.insert(key(4 * n), v);
        }
        assert!(matches!(blocks.dir, Dir::Many(_)));
        for n in (1..3 * n).step_by(7) {
            let v = sized(n, len(n / 7));
            blocks.put(key(4 * n + 1), v.clone());
            model.insert(key(4 * n + 1), v);
        }
        assert_matches(&blocks, &model, &[]);
        // Scattered removals merge neighbours; range removals take some
        // pairs of a range and whole blocks and chunks of it.
        for n in (0..3 * n).step_by(3) {
            assert_eq!(blocks.remove(&key(4 * n)), model.remove(&key(4 * n)));
        }
        assert_matches(&blocks, &model, &[]);
        let doomed =
            |k: &Key, v: ValueRef<'_>| k.as_bytes()[k.len() - 1].is_multiple_of(2) || v.len() > 14;
        for (from, to) in [(40, 90), (0, 4 * n), (4 * n, 12 * n)] {
            let range = KeyRange::new(key(from), key(to));
            let mut offered = Vec::new();
            let removed = blocks.remove_range(&range, &mut |k, v| {
                offered.push((k.clone(), v.to_value()));
                doomed(k, v)
            });
            let want: Vec<(Key, Value)> = (model.range(key(from)..key(to)))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(offered, want);
            model.retain(|k, v| !(range.contains(k) && doomed(k, v.view())));
            assert_eq!(
                removed,
                want.len() - model.range(key(from)..key(to)).count()
            );
            assert_matches(&blocks, &model, &[]);
        }
        let rest = KeyRange::with_bound(key(0), UpperBound::Unbounded);
        blocks.remove_range(&rest, &mut |_, _| true);
        assert!(blocks.is_empty());
    }
}
