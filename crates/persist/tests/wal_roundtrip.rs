//! Property tests for the WAL record codec (the durability counterpart
//! of `crates/net/tests/codec_roundtrip.rs`): every [`DurableOp`] with
//! arbitrary binary keys and values survives an encode/decode round
//! trip, streams of records decode back in order, and — the part a
//! crash depends on — truncated and bit-flipped tails decode to a clean
//! prefix plus an error or `None`, never a panic and never a wrong
//! record.

// Test-only crate: proptest strategies sit outside #[test] functions,
// so clippy's allow-unwrap-in-tests does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pequod_persist::{decode_record, encode_record, DurableOp};
use pequod_store::Key;
use pequod_store::Value;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

fn bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Fully binary: delimiter bytes, NULs, and high bytes included.
    proptest::collection::vec(0u8..=255u8, 0..16)
}

fn op_strategy() -> BoxedStrategy<DurableOp> {
    prop_oneof![
        (bytes_strategy(), bytes_strategy())
            .prop_map(|(k, v)| DurableOp::Put(Key::from(k), Value::from(v))),
        bytes_strategy().prop_map(|k| DurableOp::Remove(Key::from(k))),
        proptest::string::string_regex("[a-z|<>:0-9 =]{0,24}")
            .unwrap()
            .prop_map(DurableOp::AddJoin),
    ]
    .boxed()
}

fn encode_all(ops: &[DurableOp]) -> Vec<u8> {
    let mut buf = Vec::new();
    for op in ops {
        encode_record(op, &mut buf);
    }
    buf
}

/// Decodes records until the stream ends (cleanly, torn, or corrupt),
/// returning the clean prefix. Must never panic on any input.
fn decode_all(mut buf: &[u8]) -> Vec<DurableOp> {
    let mut out = Vec::new();
    while let Ok(Some((op, n))) = decode_record(buf) {
        out.push(op);
        buf = &buf[n..];
    }
    out
}

proptest! {
    /// Any op round-trips, consuming exactly its encoding.
    #[test]
    fn any_op_roundtrips(op in op_strategy()) {
        let mut buf = Vec::new();
        encode_record(&op, &mut buf);
        let (got, n) = decode_record(&buf).unwrap().unwrap();
        prop_assert_eq!(got, op);
        prop_assert_eq!(n, buf.len());
    }

    /// A stream of records decodes back intact and in order.
    #[test]
    fn streams_roundtrip(ops in proptest::collection::vec(op_strategy(), 0..8)) {
        prop_assert_eq!(decode_all(&encode_all(&ops)), ops);
    }

    /// Chopping a stream at *any* byte boundary — the torn tail a crash
    /// leaves — yields exactly the records whose encodings fit whole
    /// before the cut: a clean prefix, no panic, no partial record.
    #[test]
    fn truncated_tail_decodes_to_a_clean_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..6),
        cut_seed in 0usize..10_000,
    ) {
        let buf = encode_all(&ops);
        let cut = cut_seed % (buf.len() + 1);
        let got = decode_all(&buf[..cut]);
        // How many whole records fit before the cut?
        let mut fit = 0usize;
        let mut at = 0usize;
        for op in &ops {
            let mut one = Vec::new();
            encode_record(op, &mut one);
            if at + one.len() <= cut {
                fit += 1;
                at += one.len();
            } else {
                break;
            }
        }
        prop_assert_eq!(got.len(), fit, "cut at {} of {}", cut, buf.len());
        prop_assert_eq!(got, ops[..fit].to_vec());
    }

    /// Flipping any single bit anywhere in a stream decodes to a clean
    /// *prefix* of the original records — the checksum stops replay at
    /// or before the damaged record, and never lets a corrupted record
    /// through as data. (A flip in a length header may also surface as
    /// a huge bogus length; that must error, not allocate or panic.)
    #[test]
    fn bit_flips_never_yield_wrong_records(
        ops in proptest::collection::vec(op_strategy(), 1..6),
        flip_seed in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let clean = encode_all(&ops);
        let mut buf = clean.clone();
        let pos = flip_seed % buf.len();
        buf[pos] ^= 1 << bit;
        let got = decode_all(&buf);
        prop_assert!(got.len() <= ops.len());
        // Which record does the flipped byte live in?
        let mut damaged = 0usize;
        let mut at = 0usize;
        for op in &ops {
            let mut one = Vec::new();
            encode_record(op, &mut one);
            if pos < at + one.len() {
                break;
            }
            damaged += 1;
            at += one.len();
        }
        // Decoding must stop at (or before) the damaged record...
        prop_assert!(got.len() <= damaged);
        // ...and whatever was decoded must literally be the original
        // prefix (the damaged record itself can never be "repaired"
        // into something else).
        prop_assert_eq!(&got[..], &ops[..got.len()]);
    }
}

/// The length-header flip worth pinning down exactly: a huge declared
/// length must be rejected without allocating, whether or not the rest
/// of the stream is intact.
#[test]
fn oversized_header_is_an_error_not_an_allocation() {
    let mut buf = Vec::new();
    encode_record(
        &DurableOp::Put(Key::from("p|a|1"), Value::from_static(b"v")),
        &mut buf,
    );
    buf[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode_record(&buf).is_err());
    // And an in-bounds but wrong length trips the checksum instead.
    let mut buf2 = Vec::new();
    encode_record(
        &DurableOp::Put(Key::from("p|a|1"), Value::from_static(b"v")),
        &mut buf2,
    );
    encode_record(&DurableOp::Remove(Key::from("p|a|1")), &mut buf2);
    let real_len = u32::from_le_bytes(buf2[..4].try_into().unwrap());
    buf2[..4].copy_from_slice(&(real_len + 2).to_le_bytes());
    assert!(matches!(decode_record(&buf2), Err(_) | Ok(None)));
}
