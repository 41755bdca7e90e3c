//! Property tests for the wire codec: every [`Message`] variant —
//! client requests, replies, the server→server subscription vocabulary,
//! and the batched frames — survives an encode/decode round trip with
//! arbitrary binary keys and values, both as bare bodies and as
//! length-prefixed frames split at arbitrary byte boundaries.

// Test-only crate: proptest strategies sit outside #[test] functions,
// so clippy's allow-unwrap-in-tests does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::BytesMut;
use pequod_net::codec::{decode, decode_frame, encode, encode_frame, FrameDecoder};
use pequod_net::Message;
use pequod_store::{Key, KeyRange, UpperBound, Value};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

fn bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Fully binary: delimiter bytes, NULs, and high bytes included.
    // Short strings, plus lengths on either side of the 30-byte boundary
    // between `Bytes`' in-place and shared representations.
    prop_oneof![
        proptest::collection::vec(0u8..=255u8, 0..12),
        proptest::collection::vec(0u8..=255u8, 29..32),
    ]
}

fn key_strategy() -> impl Strategy<Value = Key> {
    bytes_strategy().prop_map(Key::from)
}

fn value_strategy() -> impl Strategy<Value = Value> {
    bytes_strategy().prop_map(Value::from)
}

fn range_strategy() -> impl Strategy<Value = KeyRange> {
    (key_strategy(), proptest::option::of(key_strategy())).prop_map(|(first, end)| KeyRange {
        first,
        end: match end {
            Some(k) => UpperBound::Excluded(k),
            None => UpperBound::Unbounded,
        },
    })
}

fn pairs_strategy() -> impl Strategy<Value = Vec<(Key, Value)>> {
    proptest::collection::vec((key_strategy(), value_strategy()), 0..5)
}

fn error_strategy() -> impl Strategy<Value = Option<String>> {
    proptest::option::of(proptest::string::string_regex("[a-z ]{0,16}").unwrap())
}

/// Every non-batch message variant.
fn leaf_strategy() -> BoxedStrategy<Message> {
    prop_oneof![
        (0u64..1000, key_strategy()).prop_map(|(id, key)| Message::Get { id, key }),
        (0u64..1000, key_strategy(), value_strategy()).prop_map(|(id, key, value)| Message::Put {
            id,
            key,
            value
        }),
        (0u64..1000, key_strategy()).prop_map(|(id, key)| Message::Remove { id, key }),
        (0u64..1000, range_strategy()).prop_map(|(id, range)| Message::Scan { id, range }),
        (0u64..1000, range_strategy()).prop_map(|(id, range)| Message::Count { id, range }),
        (
            0u64..1000,
            proptest::string::string_regex("[a-z|<> =]{0,20}").unwrap()
        )
            .prop_map(|(id, text)| Message::AddJoin { id, text }),
        (0u64..1000, pairs_strategy(), error_strategy())
            .prop_map(|(id, pairs, error)| Message::Reply { id, pairs, error }),
        (0u64..1000, range_strategy()).prop_map(|(id, range)| Message::Subscribe { id, range }),
        (0u64..1000, range_strategy(), pairs_strategy())
            .prop_map(|(id, range, pairs)| Message::SubscribeReply { id, range, pairs }),
        (key_strategy(), proptest::option::of(value_strategy()))
            .prop_map(|(key, value)| Message::Notify { key, value }),
        range_strategy().prop_map(|range| Message::Unsubscribe { range }),
        // The replication vocabulary (crates/cluster).
        any::<u32>().prop_map(|node| Message::Hello { node }),
        (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(slot, epoch, log_epoch, from_seq)| Message::ReplicaSubscribe {
                slot,
                epoch,
                log_epoch,
                from_seq
            }
        ),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            key_strategy(),
            proptest::option::of(value_strategy())
        )
            .prop_map(|(slot, epoch, seq, key, value)| Message::NotifySeq {
                slot,
                epoch,
                seq,
                key,
                value
            }),
        (any::<u32>(), any::<u64>(), any::<u64>())
            .prop_map(|(slot, epoch, seq)| Message::NotifyAck { slot, epoch, seq }),
        (any::<u32>(), any::<u64>(), any::<u64>())
            .prop_map(|(slot, epoch, seq)| Message::Heartbeat { slot, epoch, seq }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            pairs_strategy()
        )
            .prop_map(
                |(slot, epoch, upto_seq, done, pairs)| Message::SnapshotChunk {
                    slot,
                    epoch,
                    upto_seq,
                    done,
                    pairs
                }
            ),
        (
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec(any::<u32>(), 0..6),
            any::<u64>(),
            proptest::option::of(any::<u32>())
        )
            .prop_map(
                |(slot, epoch, replicas, upto_seq, dropped)| Message::EpochChange {
                    slot,
                    epoch,
                    replicas,
                    upto_seq,
                    dropped
                }
            ),
        (0u64..1000, any::<u32>(), any::<u64>(), any::<u32>()).prop_map(
            |(id, slot, epoch, node)| Message::NotPrimary {
                id,
                slot,
                epoch,
                node
            }
        ),
        (0u64..1000, any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(id, slot, from, to)| Message::Migrate { id, slot, from, to }),
        (0u64..1000).prop_map(|id| Message::NodeStatus { id }),
    ]
    .boxed()
}

/// Any message, including batches of messages (and, at depth ≥ 2,
/// batches containing batches).
fn message_strategy(depth: u8) -> BoxedStrategy<Message> {
    if depth == 0 {
        return leaf_strategy();
    }
    prop_oneof![
        leaf_strategy(),
        proptest::collection::vec(message_strategy(depth - 1), 0..4)
            .prop_map(|msgs| Message::Batch { msgs }),
    ]
    .boxed()
}

/// Keys and values of exactly 29, 30 and 31 bytes — the last in-place
/// lengths and the first shared one — round-trip in every position a
/// byte string can take, as bodies and as frames.
#[test]
fn byte_strings_around_the_inline_boundary_roundtrip() {
    let text = |len: usize, salt: u8| -> Vec<u8> { (0..len).map(|i| i as u8 ^ salt).collect() };
    for klen in [29usize, 30, 31] {
        for vlen in [29usize, 30, 31] {
            let key = Key::from(text(klen, 0x5a));
            let value = Value::from(text(vlen, 0xa5));
            let range = KeyRange::new(key.clone(), Key::from(text(klen, 0xff)));
            let msgs = [
                Message::Put {
                    id: 7,
                    key: key.clone(),
                    value: value.clone(),
                },
                Message::Scan {
                    id: 8,
                    range: range.clone(),
                },
                Message::Reply {
                    id: 8,
                    pairs: vec![(key.clone(), value.clone()); 3],
                    error: None,
                },
                Message::Notify {
                    key: key.clone(),
                    value: Some(value.clone()),
                },
                Message::SubscribeReply {
                    id: 9,
                    range,
                    pairs: vec![(key.clone(), value.clone())],
                },
            ];
            let mut dec = FrameDecoder::new();
            for msg in &msgs {
                let mut body = BytesMut::new();
                encode(msg, &mut body);
                assert_eq!(decode(&body).as_ref(), Ok(msg), "key {klen} value {vlen}");
                dec.extend(&encode_frame(msg));
            }
            for msg in &msgs {
                assert_eq!(dec.next_frame().unwrap().as_ref(), Some(msg));
            }
            assert_eq!(dec.buffered(), 0);
        }
    }
}

proptest! {
    /// Body-level round trip for arbitrary messages (batches nested up
    /// to two levels).
    #[test]
    fn any_message_roundtrips(msg in message_strategy(2)) {
        let mut buf = BytesMut::new();
        encode(&msg, &mut buf);
        prop_assert_eq!(decode(&buf), Ok(msg));
    }

    /// Frame-level round trip: several messages concatenated into one
    /// stream, fed to the frame splitter in two arbitrary chunks, come
    /// back intact and in order.
    #[test]
    fn frames_roundtrip_across_split_boundaries(
        msgs in proptest::collection::vec(message_strategy(1), 1..4),
        split_seed in 0usize..1000,
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m));
        }
        let split = split_seed % (stream.len() + 1);
        let mut buf = BytesMut::new();
        let mut got = Vec::new();
        for chunk in [&stream[..split], &stream[split..]] {
            buf.extend_from_slice(chunk);
            while let Some(m) = decode_frame(&mut buf).unwrap() {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert!(buf.is_empty());
    }

    /// The incremental [`FrameDecoder`] (the reactor's and swarm's
    /// stream splitter), fed one byte at a time, yields exactly the
    /// messages of a one-shot decode — the parser cannot depend on any
    /// particular read-chunk alignment.
    #[test]
    fn frame_decoder_survives_single_byte_feeding(
        msgs in proptest::collection::vec(message_strategy(1), 1..4),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            dec.extend(&[b]);
            while let Some(m) = dec.next_frame().unwrap() {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// The same stream cut at arbitrary random boundaries (including
    /// empty chunks and cuts inside the length prefix) decodes to the
    /// same messages in the same order, with nothing left over.
    #[test]
    fn frame_decoder_survives_random_chunk_boundaries(
        msgs in proptest::collection::vec(message_strategy(1), 1..5),
        cuts in proptest::collection::vec(0usize..10_000, 0..9),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m));
        }
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        points.push(0);
        points.push(stream.len());
        points.sort_unstable();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for w in points.windows(2) {
            dec.extend(&stream[w[0]..w[1]]);
            while let Some(m) = dec.next_frame().unwrap() {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(dec.buffered(), 0);
    }
}
