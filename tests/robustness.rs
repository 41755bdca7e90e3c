//! Robustness properties spanning crates: the codec never panics on
//! adversarial bytes, the cluster simulator is deterministic, and the
//! join grammar round-trips through its printer.

use pequod::cluster::{ClusterConfig, SimHarness};
use pequod::core::partition::{ServerId, TablePartition};
use pequod::core::{Engine, EngineConfig};
use pequod::join::JoinSpec;
use pequod::net::codec::{decode, decode_frame, encode_frame};
use pequod::net::Message;
use pequod::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    /// Arbitrary bytes must decode to an error or a message — never
    /// panic, never allocate unboundedly.
    #[test]
    fn codec_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
        let mut buf = bytes::BytesMut::from(&bytes[..]);
        let _ = decode_frame(&mut buf);
    }

    /// Any valid frame survives arbitrary split points in the stream.
    #[test]
    fn codec_frames_survive_fragmentation(split in 1usize..100) {
        let msg = Message::Put {
            id: 9,
            key: Key::from("p|bob|0000000100"),
            value: bytes::Bytes::from_static(b"fragmented"),
        };
        let frame = encode_frame(&msg);
        let split = split.min(frame.len() - 1);
        let mut buf = bytes::BytesMut::new();
        buf.extend_from_slice(&frame[..split]);
        prop_assert!(decode_frame(&mut buf).unwrap().is_none());
        buf.extend_from_slice(&frame[split..]);
        prop_assert_eq!(decode_frame(&mut buf).unwrap(), Some(msg));
    }

    /// Printing a parsed join and reparsing it yields the same structure.
    #[test]
    fn join_grammar_roundtrips(
        maint in prop_oneof![Just(""), Just("pull "), Just("snapshot 17 ")],
        width in prop_oneof![Just(String::new()), Just(":8".to_string())],
    ) {
        let text = format!(
            "out|<a>|<t{width}> = {maint}check src|<a>|<b> copy val|<b>|<t{width}>"
        );
        let first = JoinSpec::parse(&text).unwrap();
        let second = JoinSpec::parse(&first.to_string()).unwrap();
        prop_assert_eq!(first.maintenance, second.maintenance);
        prop_assert_eq!(first.sources.len(), second.sources.len());
        prop_assert_eq!(first.output.text(), second.output.text());
    }
}

/// The simulator is deterministic: same seed, same message interleaving,
/// same traffic accounting.
#[test]
fn simulator_is_deterministic() {
    let run = || {
        let part = Arc::new(TablePartition::new(ServerId(0)));
        let cfg = ClusterConfig::new(3, 1).with_partition(part, 3);
        let mut c = SimHarness::new(&cfg, 0xdead, 2);
        c.net.set_notify_jitter(0.5, 20);
        let call =
            |c: &mut SimHarness, node: u32, msg: Message| match c.request(0, node, msg, 5_000) {
                Message::Reply {
                    pairs, error: None, ..
                } => pairs,
                other => panic!("request failed: {other:?}"),
            };
        let put = |key: String, value: &'static [u8]| Message::Put {
            id: 0,
            key: Key::from(key),
            value: Value::from_static(value),
        };
        let scan = |prefix: &str| Message::Scan {
            id: 0,
            range: KeyRange::prefix(prefix),
        };
        for node in 0..3 {
            let text =
                "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";
            call(
                &mut c,
                node,
                Message::AddJoin {
                    id: 0,
                    text: text.into(),
                },
            );
        }
        for u in 0..10 {
            call(&mut c, 0, put(format!("s|u{u}|star"), b"1"));
        }
        call(&mut c, 1, scan("t|u3|"));
        call(&mut c, 2, scan("t|u7|"));
        for t in 0..30u64 {
            call(&mut c, 0, put(format!("p|star|{t:010}"), b"x"));
        }
        c.run_until_quiet();
        let a = call(&mut c, 1, scan("t|u3|"));
        (
            a.len(),
            c.net.stats.delivered,
            c.net.traffic.subscription_bytes,
            c.now(),
        )
    };
    assert_eq!(run(), run());
}

/// Interval-tree-backed maintenance survives a randomized torture mix of
/// joins over shared tables.
#[test]
fn multi_join_torture() {
    let mut e = Engine::new(EngineConfig::default());
    e.add_joins_text(
        r#"
        sum_by_user|<u> = sum ledger|<u>|<txn>;
        max_by_user|<u> = max ledger|<u>|<txn>;
        mirror|<u>|<txn> = copy ledger|<u>|<txn>;
        audited|<u>|<txn> = check flag|<u> copy ledger|<u>|<txn>
        "#,
    )
    .unwrap();
    let mut state = 1u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    for i in 0..600 {
        let u = next() % 5;
        let txn = next() % 40;
        match next() % 5 {
            0 => e.put(format!("flag|{u}"), "1"),
            1 => e.remove(&Key::from(format!("flag|{u}"))),
            2 => e.remove(&Key::from(format!("ledger|{u}|{txn:02}"))),
            _ => e.put(format!("ledger|{u}|{txn:02}"), format!("{}", next() % 100)),
        }
        if i % 37 == 0 {
            e.scan(&KeyRange::all());
        }
    }
    // Audit every view against a fresh recomputation.
    let audit = e.scan(&KeyRange::all());
    let mut fresh = Engine::new(EngineConfig::default());
    fresh
        .add_joins_text(
            r#"
            sum_by_user|<u> = sum ledger|<u>|<txn>;
            max_by_user|<u> = max ledger|<u>|<txn>;
            mirror|<u>|<txn> = copy ledger|<u>|<txn>;
            audited|<u>|<txn> = check flag|<u> copy ledger|<u>|<txn>
            "#,
        )
        .unwrap();
    for (k, v) in &audit.pairs {
        let table = k.table_prefix();
        if matches!(table.as_bytes(), b"ledger|" | b"flag|") {
            fresh.put(k.clone(), v.clone());
        }
    }
    let want = fresh.scan(&KeyRange::all());
    let filter = |pairs: &[(Key, Value)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .filter(|(k, _)| !k.starts_with(b"ledger|") && !k.starts_with(b"flag|"))
            .map(|(k, v)| (k.to_string(), String::from_utf8_lossy(v).into_owned()))
            .collect()
    };
    assert_eq!(filter(&audit.pairs), filter(&want.pairs));
}
