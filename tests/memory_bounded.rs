//! Memory-bounded serving (§2.5): a capped engine holds its footprint
//! at or below the cap through a sustained zipf-skewed Twip load, while
//! answering every read byte-identically to an unbounded engine.
//!
//! The cap is self-calibrated: the workload first runs on an unbounded
//! engine to learn its natural footprint, then re-runs capped at half
//! of it — the acceptance bar of `docs/MEMORY.md`.

use pequod::core::{Engine, EngineConfig, MemoryLimit};
use pequod::prelude::*;
use pequod::workloads::twip::{
    post_key, sub_key, timeline_range, TwipMix, TwipOp, TwipWorkload, TIMELINE_JOIN,
};
use pequod::workloads::{GraphConfig, SocialGraph};

fn skewed_graph() -> SocialGraph {
    // Strong zipf skew: a handful of celebrities with hundreds of
    // followers, so posts fan into many timelines and computed data
    // dominates the footprint.
    SocialGraph::generate(&GraphConfig {
        users: 200,
        avg_followees: 15.0,
        zipf_alpha: 1.2,
        seed: 0x25e,
    })
}

fn workload(graph: &SocialGraph) -> TwipWorkload {
    TwipWorkload::generate(
        graph,
        &TwipMix {
            active_fraction: 0.7,
            checks_per_user: 10,
            seed: 0x5ca1e,
            ..TwipMix::default()
        },
    )
}

/// Drives the whole Twip flow — graph load, initial posts, warm-up
/// logins, op stream — against one engine. Every read's full pair
/// vector is recorded for cross-run comparison, and when `cap_bytes`
/// is set the engine's footprint is asserted at or below it after every
/// single operation (each public op ends with limit maintenance).
fn drive(
    engine: &mut Engine,
    graph: &SocialGraph,
    w: &TwipWorkload,
    cap_bytes: Option<usize>,
) -> Vec<Vec<(Key, Value)>> {
    let check_cap = |e: &Engine, at: &str| {
        if let Some(cap) = cap_bytes {
            let used = e.memory_bytes();
            assert!(
                used <= cap,
                "memory {used} above the cap {cap} after maintenance ({at})"
            );
        }
    };
    engine.add_joins_text(TIMELINE_JOIN).unwrap();
    for u in 0..graph.users() {
        for &p in graph.followees(u) {
            engine.put(sub_key(u, p), "1");
            check_cap(engine, "graph load");
        }
    }
    let mut time = 1u64;
    for i in 0..1200u64 {
        // Deterministic zipf-ish poster choice: celebrity-heavy.
        let poster = (i * i * 7919) as u32 % graph.users();
        engine.put(
            post_key(poster, time, false),
            "an initial tweet of reasonable length!",
        );
        check_cap(engine, "initial posts");
        time += 1;
    }
    let mut reads = Vec::new();
    let mut last_seen = vec![0u64; graph.users() as usize];
    for &u in &w.warm {
        reads.push(engine.scan(&timeline_range(u, 0)).pairs);
        check_cap(engine, "warm-up login");
        last_seen[u as usize] = time;
    }
    for op in &w.ops {
        match *op {
            TwipOp::Login(u) => {
                reads.push(engine.scan(&timeline_range(u, 0)).pairs);
                last_seen[u as usize] = time;
            }
            TwipOp::Check(u) => {
                reads.push(engine.scan(&timeline_range(u, last_seen[u as usize])).pairs);
                last_seen[u as usize] = time;
            }
            TwipOp::Subscribe(u, p) => engine.put(sub_key(u, p), "1"),
            TwipOp::Post(p) => {
                engine.put(
                    post_key(p, time, false),
                    "a brand new tweet, fresh off the press",
                );
                time += 1;
            }
        }
        check_cap(engine, "op stream");
    }
    // Sustained write storm on top: every hot poster fires repeatedly,
    // each post eagerly copied into every follower's materialized
    // timeline — the write path must keep evicting to hold the cap.
    for round in 0..10u64 {
        for poster in 0..20u32 {
            engine.put(
                post_key(poster, time, false),
                format!("storm round {round}"),
            );
            check_cap(engine, "write storm");
            time += 1;
        }
    }
    for &u in w.warm.iter().take(40) {
        reads.push(engine.scan(&timeline_range(u, 0)).pairs);
        check_cap(engine, "final reads");
    }
    reads
}

#[test]
fn capped_engine_stays_under_cap_and_answers_identically() {
    let graph = skewed_graph();
    let w = workload(&graph);

    // Calibration: the unbounded footprint.
    let mut unbounded = Engine::new(EngineConfig::default());
    let want = drive(&mut unbounded, &graph, &w, None);
    let footprint = unbounded.memory_bytes();
    assert_eq!(unbounded.engine_stats().js_evictions, 0);

    // The acceptance bar: a cap at ~50% of the unbounded footprint.
    let limit = MemoryLimit::new(footprint / 2);
    let mut capped = Engine::new(EngineConfig::default().with_mem_limit(limit));
    let got = drive(&mut capped, &graph, &w, Some(limit.high_bytes));

    assert_eq!(
        got.len(),
        want.len(),
        "capped run served a different number of reads"
    );
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g, w, "read #{i} diverged between capped and unbounded");
    }
    let stats = capped.engine_stats();
    assert!(
        stats.js_evictions > 0,
        "a cap at half the footprint must evict computed ranges"
    );
    assert!(
        stats.peak_memory_bytes as usize <= footprint,
        "peak {} cannot exceed the unbounded footprint {footprint}",
        stats.peak_memory_bytes
    );
    assert!(capped.memory_bytes() <= limit.high_bytes);
}

/// The manual eviction API and the automatic one agree: evicting to a
/// target by hand leaves the same transparent-recompute behavior the
/// automatic path relies on.
#[test]
fn manual_and_automatic_eviction_compose() {
    let limit = MemoryLimit::new(64 * 1024);
    let mut engine = Engine::new(EngineConfig::default().with_mem_limit(limit));
    engine.add_joins_text(TIMELINE_JOIN).unwrap();
    for u in 0..50u32 {
        engine.put(format!("s|u{u:07}|u0000001"), "1");
    }
    for t in 0..40u64 {
        engine.put(format!("p|u0000001|{t:010}"), "x");
    }
    let before: Vec<_> = (0..50u32)
        .map(|u| engine.scan(&timeline_range(u, 0)).pairs)
        .collect();
    // Manual eviction far below what the automatic path stops at.
    engine.evict_to(limit.high_bytes / 2);
    for (u, want) in before.iter().enumerate() {
        let got = engine.scan(&timeline_range(u as u32, 0)).pairs;
        assert_eq!(&got, want, "user {u} diverged after manual eviction");
        assert!(engine.memory_bytes() <= limit.high_bytes);
    }
}
