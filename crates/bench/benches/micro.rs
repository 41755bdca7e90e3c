//! Criterion micro-benchmarks for Pequod's hot paths: store operations
//! (flat vs subtable layout), pattern matching, containing-range
//! computation, join execution, incremental maintenance dispatch, and
//! the wire codec.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pequod_core::{Engine, EngineConfig};
use pequod_join::{containing_range, JoinSpec, Pattern, SlotTable};
use pequod_net::codec::{decode, encode};
use pequod_net::Message;
use pequod_store::{Key, KeyRange, Store, StoreConfig, Value};

fn store_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    for (name, config) in [
        ("flat", StoreConfig::flat()),
        ("subtables", StoreConfig::flat().with_subtable("t|", 2)),
    ] {
        // Large table: 200k timeline keys across 2000 users.
        let mut store = Store::new(config);
        for u in 0..2000 {
            for t in 0..100u64 {
                store.put(
                    Key::from(format!("t|u{u:07}|{t:010}|p")),
                    Value::from_static(b"tweet"),
                    false,
                );
            }
        }
        group.bench_function(BenchmarkId::new("get", name), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i * 16807 + 7) % 200_000;
                let u = i / 100;
                let t = i % 100;
                black_box(store.get(&Key::from(format!("t|u{u:07}|{t:010}|p")))).is_some()
            })
        });
        group.bench_function(BenchmarkId::new("scan50", name), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i * 48271 + 11) % 2000;
                let range = KeyRange::prefix(format!("t|u{i:07}|"));
                let mut n = 0;
                store.scan(&range, |_, _| {
                    n += 1;
                    n < 50
                });
                black_box(n)
            })
        });
        group.bench_function(BenchmarkId::new("put", name), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                store.put(
                    Key::from(format!("t|u{:07}|{:010}|q", i % 2000, 100 + i)),
                    Value::from_static(b"new"),
                    false,
                );
            })
        });
    }
    group.finish();
}

fn pattern_ops(c: &mut Criterion) {
    let mut table = SlotTable::new();
    let pat = Pattern::parse("t|<user>|<time:10>|<poster>", &mut table).unwrap();
    let key = Key::from("t|u0000042|0000001234|u0000007");
    c.bench_function("pattern/match_key", |b| {
        b.iter(|| {
            let mut slots = table.empty_set();
            black_box(pat.match_key(black_box(&key), &mut slots))
        })
    });
    let spec = JoinSpec::parse(
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>",
    )
    .unwrap();
    let mut slots = spec.slots.empty_set();
    slots.bind(
        spec.slots.lookup("user").unwrap(),
        bytes::Bytes::from_static(b"u0000042"),
    );
    slots.bind(
        spec.slots.lookup("poster").unwrap(),
        bytes::Bytes::from_static(b"u0000007"),
    );
    let clip = KeyRange::new("t|u0000042|0000001000", "t|u0000042|0000002000");
    c.bench_function("pattern/containing_range", |b| {
        b.iter(|| {
            black_box(containing_range(
                &spec.sources[1].pattern,
                &spec.output,
                &slots,
                &clip,
            ))
        })
    });
}

fn engine_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    let build = || {
        let mut e = Engine::new(EngineConfig::default());
        e.add_join_text(
            "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>",
        )
        .unwrap();
        for u in 0..500 {
            for f in 0..20 {
                e.put(format!("s|u{u:07}|u{:07}", (u + f * 17) % 500), "1");
            }
        }
        for t in 0..2000u64 {
            e.put(format!("p|u{:07}|{t:010}", t % 500), "tweet body text");
        }
        // Warm all timelines.
        for u in 0..500 {
            e.scan(&KeyRange::prefix(format!("t|u{u:07}|")));
        }
        e
    };
    let mut engine = build();
    group.bench_function("incremental_check", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 500;
            let r = KeyRange::new(
                format!("t|u{i:07}|{:010}", 1990u64),
                Key::from(format!("t|u{i:07}|")).prefix_end().unwrap(),
            );
            black_box(engine.scan(&r).pairs.len())
        })
    });
    group.bench_function("post_with_fanout", |b| {
        let mut t = 10_000u64;
        b.iter(|| {
            t += 1;
            engine.put(format!("p|u{:07}|{t:010}", t % 500), "fresh tweet");
        })
    });
    group.bench_function("karma_vote", |b| {
        let mut e = Engine::new(EngineConfig::default());
        e.add_join_text("karma|<a> = count vote|<a>|<id>|<v>")
            .unwrap();
        e.put("vote|kat|0|v", "1");
        e.scan(&KeyRange::prefix("karma|"));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            e.put(format!("vote|kat|{i}|v"), "1");
        })
    });
    group.finish();
}

fn codec_ops(c: &mut Criterion) {
    let msg = Message::Reply {
        id: 42,
        pairs: (0..20)
            .map(|i| {
                (
                    Key::from(format!("t|u0000001|{i:010}|u0000002")),
                    Value::from_static(b"a tweet of reasonable length"),
                )
            })
            .collect(),
        error: None,
    };
    c.bench_function("codec/encode_reply20", |b| {
        let mut buf = bytes::BytesMut::with_capacity(4096);
        b.iter(|| {
            buf.clear();
            encode(black_box(&msg), &mut buf);
            black_box(buf.len())
        })
    });
    let mut buf = bytes::BytesMut::new();
    encode(&msg, &mut buf);
    let body = buf.freeze();
    c.bench_function("codec/decode_reply20", |b| {
        b.iter(|| black_box(decode(black_box(&body)).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = store_ops, pattern_ops, engine_ops, codec_ops
}
criterion_main!(benches);
