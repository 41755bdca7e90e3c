//! Property tests for the wire codec: every [`Message`] variant —
//! client requests, replies, the server→server subscription vocabulary,
//! and the batched frames — survives an encode/decode round trip with
//! arbitrary binary keys and values, both as bare bodies and as
//! length-prefixed frames split at arbitrary byte boundaries. The
//! in-place encoders (`encode_frame_into`, `ReplyFrame`, back-patched
//! `Batch` bodies) and the decode-where-it-lies frame splitter are held
//! to the copying implementations they replaced, rebuilt here from the
//! public body codec.

use bytes::{Buf, BytesMut};
use pequod_net::codec::{
    decode, decode_frame, encode, encode_frame, encode_frame_into, CodecError, FrameDecoder,
    ReplyFrame, MAX_FRAME,
};
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

/// The encoder as it was before bodies were back-patched: every nested
/// `Batch` body is built in a buffer of its own and copied in behind
/// its length.
fn encode_with_nested_buffers(msg: &Message) -> Vec<u8> {
    let Message::Batch { msgs } = msg else {
        let mut body = Vec::new();
        encode(msg, &mut body);
        return body;
    };
    let mut out = vec![12u8];
    out.extend_from_slice(&(msgs.len() as u32).to_le_bytes());
    for m in msgs {
        let body = encode_with_nested_buffers(m);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
    }
    out
}

/// The frame splitter as it was before it decoded in place: copy the
/// body out of the stream, then decode the copy.
fn split_then_decode(buf: &mut BytesMut) -> Result<Option<Message>, CodecError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(CodecError::Oversized(len));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    buf.advance(4);
    let body = buf.split_to(len);
    decode(&body).map(Some)
}

/// Feeds `stream` to both frame splitters in the chunks `points` cut
/// and requires the same results and the same bytes left over at every
/// step, up to and including the first error.
fn splitters_agree(stream: &[u8], points: &[usize]) {
    let (mut new, mut old) = (BytesMut::new(), BytesMut::new());
    for w in points.windows(2) {
        new.extend_from_slice(&stream[w[0]..w[1]]);
        old.extend_from_slice(&stream[w[0]..w[1]]);
        loop {
            let (got, want) = (decode_frame(&mut new), split_then_decode(&mut old));
            assert_eq!(got, want);
            assert_eq!(&new[..], &old[..]);
            match got {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(_) => return,
            }
        }
    }
}

/// Sorted cut points over a stream of `len` bytes, both ends included.
fn cut_points(cuts: &[usize], len: usize) -> Vec<usize> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
    points.push(0);
    points.push(len);
    points.sort_unstable();
    points
}

/// A `Batch` nested `depth` deep with leaves of assorted sizes on every
/// level, before and after the nested batch.
fn nested_batch(depth: u8) -> Message {
    let leaf = |n: usize| Message::Put {
        id: n as u64,
        key: Key::from(vec![b'k'; n]),
        value: Value::from(vec![b'v'; 3 * n]),
    };
    let mut msg = Message::Batch {
        msgs: vec![leaf(1), leaf(40)],
    };
    for level in 1..depth {
        msg = Message::Batch {
            msgs: vec![
                leaf(level as usize),
                msg,
                Message::Batch { msgs: vec![] },
                leaf(31),
            ],
        };
    }
    msg
}

/// Walks an encoded body by its length fields alone: every nested
/// length must delimit exactly one well-formed body, with nothing left
/// over on any level. Returns the number of non-batch messages seen.
fn walk_lengths(body: &[u8]) -> usize {
    if body[0] != 12 {
        let msg = decode(body).unwrap();
        let mut again = Vec::new();
        encode(&msg, &mut again);
        assert_eq!(again, body, "leaf body is not canonical");
        return 1;
    }
    let u32_at = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().unwrap()) as usize;
    let (count, mut at, mut leaves) = (u32_at(1), 5, 0);
    for _ in 0..count {
        let len = u32_at(at);
        at += 4;
        leaves += walk_lengths(&body[at..at + len]);
        at += len;
    }
    assert_eq!(at, body.len(), "batch body longer than its members");
    leaves
}

#[test]
fn nested_batch_lengths_are_right_at_every_depth() {
    for depth in 1..=4u8 {
        let msg = nested_batch(depth);
        let mut body = b"prefix".to_vec();
        encode(&msg, &mut body);
        let body = &body[6..];
        assert_eq!(walk_lengths(body), 2 * depth as usize);
        assert_eq!(body, &encode_with_nested_buffers(&msg)[..], "depth {depth}");
        assert_eq!(decode(body), Ok(msg.clone()));
        // The frame length counts the whole nest.
        let frame = encode_frame(&msg);
        assert_eq!(&frame[..4], &(body.len() as u32).to_le_bytes());
        assert_eq!(&frame[4..], body);
    }
}

/// Framing errors come out of the in-place splitter exactly as they
/// came out of the copying one, and leave the same bytes behind.
#[test]
fn splitters_agree_on_malformed_frames() {
    let good = encode_frame(&Message::Get {
        id: 1,
        key: Key::from("p|bob|0000000100"),
    });
    let mut oversized = good.to_vec();
    oversized.extend_from_slice(&[0xff; 4]);
    let mut one_past_the_cap = good.to_vec();
    one_past_the_cap.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    // A complete frame whose body is a bad tag, an empty body, a body
    // cut inside a field, and a field length past the cap; each
    // followed by a good frame the stream never gets to.
    let bodies: [&[u8]; 4] = [
        &[0xee, 0xff, 0x01],
        &[],
        &[1, 7, 0, 0, 0, 0, 0, 0, 0, 9, 0],
        &[1, 7, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff],
    ];
    let mut streams = vec![oversized, one_past_the_cap];
    for body in bodies {
        let mut stream = good.to_vec();
        stream.extend_from_slice(&(body.len() as u32).to_le_bytes());
        stream.extend_from_slice(body);
        stream.extend_from_slice(&good);
        streams.push(stream);
    }
    for stream in &streams {
        splitters_agree(stream, &[0, stream.len()]);
        let every_byte: Vec<usize> = (0..=stream.len()).collect();
        splitters_agree(stream, &every_byte);
    }
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

    /// Back-patched `Batch` bodies are the bytes the buffer-per-batch
    /// encoder produced, at every nesting depth the decoder accepts.
    #[test]
    fn nested_bodies_match_the_buffer_per_batch_encoder(
        msgs in proptest::collection::vec(message_strategy(3), 0..3),
    ) {
        let msg = Message::Batch { msgs };
        let mut body = BytesMut::new();
        encode(&msg, &mut body);
        prop_assert_eq!(&body[..], &encode_with_nested_buffers(&msg)[..]);
        walk_lengths(&body);
    }

    /// Encoding a frame in place behind bytes already in the buffer
    /// leaves them alone and appends exactly `encode_frame`'s bytes.
    #[test]
    fn encode_frame_into_appends_exactly_encode_frame(
        prefix in proptest::collection::vec(0u8..=255u8, 0..40),
        msg in message_strategy(2),
    ) {
        let mut out = prefix.clone();
        encode_frame_into(&msg, &mut out);
        let mut want = prefix;
        want.extend_from_slice(&encode_frame(&msg));
        prop_assert_eq!(out, want);
    }

    /// A reply streamed pair by pair is the frame of the collected
    /// reply; an abandoned one leaves no byte behind.
    #[test]
    fn streamed_reply_is_the_collected_replys_frame(
        prefix in proptest::collection::vec(0u8..=255u8, 0..40),
        id in any::<u64>(),
        pairs in pairs_strategy(),
    ) {
        let mut out = prefix.clone();
        let mut frame = ReplyFrame::begin(&mut out, id);
        pairs.iter().for_each(|(k, v)| frame.pair(k, v));
        frame.finish();
        let mut want = prefix.clone();
        want.extend_from_slice(&encode_frame(&Message::reply(id, pairs.clone())));
        prop_assert_eq!(&out, &want);
        let mut frame = ReplyFrame::begin(&mut out, id);
        pairs.iter().for_each(|(k, v)| frame.pair(k, v));
        frame.abandon();
        prop_assert_eq!(out, want);
    }

    /// Messages encoded in place back to back — a connection's output
    /// buffer after one turn — decode to the same sequence however the
    /// stream is cut, and the in-place frame splitter agrees with the
    /// copying one at every step.
    #[test]
    fn frames_appended_in_place_decode_at_arbitrary_cuts(
        msgs in proptest::collection::vec(message_strategy(2), 1..5),
        cuts in proptest::collection::vec(0usize..10_000, 0..9),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            encode_frame_into(m, &mut stream);
        }
        let points = cut_points(&cuts, stream.len());
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
        splitters_agree(&stream, &points);
    }

    /// The same on damaged streams: a few bytes overwritten anywhere,
    /// length prefixes included, so frames turn oversized, truncated,
    /// mis-tagged or silently different — identically for both.
    #[test]
    fn splitters_agree_on_corrupted_streams(
        msgs in proptest::collection::vec(message_strategy(1), 1..4),
        damage in proptest::collection::vec((0usize..10_000, 0u8..=255u8), 1..4),
        cuts in proptest::collection::vec(0usize..10_000, 0..5),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            encode_frame_into(m, &mut stream);
        }
        for (at, byte) in damage {
            let at = at % stream.len();
            stream[at] = byte;
        }
        splitters_agree(&stream, &cut_points(&cuts, stream.len()));
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
        let points = cut_points(&cuts, stream.len());
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
