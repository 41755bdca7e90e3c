//! A flat table past one chunk of its directory, at the chunk size the
//! servers run: the crate's own unit tests and model test build with
//! chunks of four blocks (`blocks.rs`, `CHUNK_BLOCKS`), so this is where
//! the shipped 128 — 4096 pairs to a chunk — is driven through a fresh
//! chunk, a split, range removal across chunks, a merge and the fold
//! back to one list, against a `BTreeMap` and under `Store::audit`.
//!
//! Two of those cannot be skipped without the audit saying so: a full
//! chunk that gains a block and does not split holds 129 blocks, and a
//! directory drained to one chunk that does not fold is "1 chunk(s)
//! under an upper level".

#![allow(clippy::unwrap_used, clippy::expect_used)]
use pequod_store::{Key, KeyRange, Store, StoreConfig, Value};
use std::collections::BTreeMap;

/// Pairs in a full chunk: 128 blocks of 32.
const CHUNK_PAIRS: usize = 128 * 32;

fn key(n: usize) -> Key {
    Key::from(format!("f|{n:08}"))
}

struct Pair {
    store: Store,
    model: BTreeMap<Key, Value>,
    stamp: u32,
}

impl Pair {
    fn put(&mut self, k: Key) {
        self.stamp += 1;
        let v = Value::from(self.stamp.to_string().into_bytes());
        assert_eq!(
            self.store.put(k.clone(), v.clone(), false),
            self.model.insert(k, v)
        );
    }

    fn remove(&mut self, k: &Key) {
        assert_eq!(self.store.remove(k, false), self.model.remove(k));
    }

    /// The audit, a full walk, and scans that start in one chunk and end
    /// in the next.
    fn check(&mut self, what: &str) {
        assert_eq!(self.store.audit(), Vec::<String>::new(), "{what}");
        assert_eq!(self.store.len(), self.model.len(), "{what}");
        let mut expected = self.model.iter();
        let mut same = true;
        self.store
            .for_each(|k, v| same &= expected.next() == Some((k, v)));
        assert!(same && expected.next().is_none(), "{what}: a walk differs");
        for boundary in (1..6).map(|c| 2 * c * CHUNK_PAIRS) {
            let range = KeyRange::new(key(boundary.saturating_sub(70)), key(boundary + 70));
            let mut got = Vec::new();
            self.store.scan(&range, |k, _| {
                got.push(k.clone());
                true
            });
            let want: Vec<Key> = (self.model.range(range.first.clone()..))
                .take_while(|(k, _)| range.contains(k))
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(got, want, "{what}: scan {range:?}");
        }
    }
}

#[test]
fn a_flat_table_crosses_chunks_of_the_shipped_size() {
    let mut t = Pair {
        store: Store::new(StoreConfig::flat()),
        model: BTreeMap::new(),
        stamp: 0,
    };
    // Five chunks and a bit, loaded ascending at even keys: each full
    // chunk is left full and the next started.
    let loaded = 5 * CHUNK_PAIRS + 100;
    for n in 0..loaded {
        t.put(key(2 * n));
    }
    t.check("loaded");
    // One key into the middle of every full chunk: each gains a block
    // and has to split.
    for c in 0..5 {
        t.put(key(2 * (c * CHUNK_PAIRS + CHUNK_PAIRS / 2) + 1));
        t.check("a chunk split");
    }
    // Scattered inserts, then each of them and its lower neighbour taken
    // out again.
    let mut at = 12345usize;
    let mut scattered = Vec::new();
    for i in 0..3000 {
        at = (at * 1_103_515_245 + 12345) % (2 * loaded);
        scattered.push(at | 1);
        t.put(key(at | 1));
        if i % 500 == 0 {
            t.check("scattered inserts");
        }
    }
    t.check("scattered inserts");
    for (i, n) in scattered.into_iter().enumerate() {
        t.remove(&key(n));
        t.remove(&key(n - 1));
        if i % 500 == 0 {
            t.check("scattered removals");
        }
    }
    // Nine pairs of ten out of the middle three-fifths in one range
    // removal: the blocks left merge, and the chunks that held them.
    let middle = KeyRange::new(key(2 * CHUNK_PAIRS), key(2 * 4 * CHUNK_PAIRS));
    let doomed = |k: &Key| {
        let digits = k.as_bytes();
        !(digits[digits.len() - 1] == b'0' && digits[digits.len() - 2].is_multiple_of(2))
    };
    let removed = t.store.remove_range(&middle, false, |k, _| doomed(k));
    let before = t.model.len();
    t.model.retain(|k, _| !(middle.contains(k) && doomed(k)));
    assert_eq!(removed, before - t.model.len());
    assert!(removed > 2 * CHUNK_PAIRS);
    t.check("thinned across chunks");
    // Drained from the front down to a handful: chunks empty and leave,
    // and the last one standing is a plain list of blocks again.
    let keys: Vec<Key> = t.model.keys().cloned().collect();
    for (i, k) in keys[..keys.len() - 40].iter().enumerate() {
        t.remove(k);
        if i % 1000 == 0 {
            t.check("draining");
        }
    }
    t.check("drained to one list");
    // And it grows back.
    for n in 0..2 * CHUNK_PAIRS {
        t.put(key(2 * (loaded + n)));
    }
    t.check("regrown");
}
