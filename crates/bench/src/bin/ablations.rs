//! Ablations of Pequod's implementation optimizations, reproducing the
//! in-text factors of §4 and the maintenance-policy claim of §3.2:
//!
//! * **A1 — subtables** (§4.1): hash-indexed subtables speed up the Twip
//!   benchmark 1.55x at a 1.17x memory cost.
//! * **A2 — output hints** (§4.2): last-output pointers on aggregate
//!   maintenance, 1.11x on Twip (here measured on the count-heavy Newp
//!   vote path as well).
//! * **A3 — value sharing** (§4.3): refcounted copy outputs cut memory
//!   1.14x on Twip.
//! * **M1 — lazy checks** (§3.2): logging subscription changes and
//!   applying them at read time beats eager application under
//!   subscription churn.

use pequod_bench::{
    arg_value, mib, pequod_client_or_exit, print_table, ratio, secs, twip_graph, Scale,
};
use pequod_core::{Client, EngineConfig};
use pequod_store::StoreConfig;
use pequod_workloads::newp::{run_newp, ClientNewp, NewpConfig};
use pequod_workloads::twip::{
    run_twip, ClientTwip, TwipBackend, TwipMix, TwipRunStats, TwipStrategy, TwipWorkload,
};
use pequod_workloads::SocialGraph;

/// Builds the selected deployment behind the unified client API
/// (`--backend {engine,writearound,cluster}`; engine by default).
fn backend_client(cfg: EngineConfig, tables: &[&str]) -> Box<dyn Client> {
    let backend = arg_value("--backend").unwrap_or_else(|| "engine".to_string());
    pequod_client_or_exit(&backend, cfg, tables)
}

fn twip_backend(cfg: EngineConfig) -> ClientTwip {
    let mut backend = ClientTwip::new(
        backend_client(cfg, &["p|", "s|"]),
        TwipStrategy::ServerJoins,
    );
    // Ablations isolate engine internals: no simulated network cost.
    backend.set_rpc_cost(0, 0);
    backend
}

fn twip_run(graph: &SocialGraph, workload: &TwipWorkload, cfg: EngineConfig) -> TwipRunStats {
    let mut backend = twip_backend(cfg);
    run_twip(&mut backend, graph, workload, 3000)
}

fn main() {
    let scale = Scale::from_args();
    let users = scale.count(2500) as u32;
    let graph = twip_graph(users, 0xab1);
    let mix = TwipMix {
        active_fraction: 0.7,
        checks_per_user: 12,
        seed: 0xab17,
        ..TwipMix::default()
    };
    let workload = TwipWorkload::generate(&graph, &mix);
    let mut rows = Vec::new();

    // A1: subtables on/off.
    let split = twip_run(
        &graph,
        &workload,
        EngineConfig::with_store(
            StoreConfig::flat()
                .with_subtable("t|", 2)
                .with_subtable("p|", 2),
        ),
    );
    let flat = twip_run(
        &graph,
        &workload,
        EngineConfig::with_store(StoreConfig::flat()),
    );
    rows.push(vec![
        "A1 subtables (§4.1)".into(),
        format!("{} / {}", secs(flat.elapsed), secs(split.elapsed)),
        ratio(flat.elapsed / split.elapsed),
        "1.55x faster".into(),
        format!(
            "mem {} -> {} ({})",
            mib(flat.memory_bytes),
            mib(split.memory_bytes),
            ratio(split.memory_bytes as f64 / flat.memory_bytes as f64)
        ),
    ]);

    // A2: output hints on/off (Twip + count-heavy Newp votes).
    let hints_on = twip_run(&graph, &workload, EngineConfig::default());
    let cfg = EngineConfig {
        output_hints: false,
        ..EngineConfig::default()
    };
    let hints_off = twip_run(&graph, &workload, cfg);
    rows.push(vec![
        "A2 output hints, Twip (§4.2)".into(),
        format!("{} / {}", secs(hints_off.elapsed), secs(hints_on.elapsed)),
        ratio(hints_off.elapsed / hints_on.elapsed),
        "1.11x faster".into(),
        String::new(),
    ]);
    let newp_cfg = NewpConfig {
        articles: scale.count(1500) as u32,
        users: scale.count(800) as u32,
        comments: scale.count(8000) as u32,
        votes: scale.count(16000) as u32,
        sessions: scale.count(12000) as u32,
        vote_rate: 0.6,
        comment_rate: 0.01,
        seed: 0xab19,
    };
    let newp_tables: &[&str] = &["article|", "comment|", "vote|"];
    let mut b = ClientNewp::new(backend_client(EngineConfig::default(), newp_tables), true);
    b.set_rpc_cost(0, 0);
    let nh_on = run_newp(&mut b, &newp_cfg);
    let cfg = EngineConfig {
        output_hints: false,
        ..EngineConfig::default()
    };
    let mut b = ClientNewp::new(backend_client(cfg, newp_tables), true);
    b.set_rpc_cost(0, 0);
    let nh_off = run_newp(&mut b, &newp_cfg);
    rows.push(vec![
        "A2 output hints, Newp votes".into(),
        format!("{} / {}", secs(nh_off.elapsed), secs(nh_on.elapsed)),
        ratio(nh_off.elapsed / nh_on.elapsed),
        "(count-heavy)".into(),
        String::new(),
    ]);

    // A3: value sharing on/off (memory).
    let share_on = twip_run(&graph, &workload, EngineConfig::default());
    let cfg = EngineConfig {
        value_sharing: false,
        ..EngineConfig::default()
    };
    let share_off = twip_run(&graph, &workload, cfg);
    rows.push(vec![
        "A3 value sharing (§4.3)".into(),
        format!(
            "mem {} / {}",
            mib(share_off.memory_bytes),
            mib(share_on.memory_bytes)
        ),
        ratio(share_off.memory_bytes as f64 / share_on.memory_bytes as f64),
        "1.14x less memory".into(),
        String::new(),
    ]);

    // M1: lazy vs eager check maintenance — lazy maintenance moves the
    // subscription-change cost off the write path onto later reads
    // (§3.2). Measure the write path and the read path separately.
    let m1 = |lazy: bool| -> (f64, f64) {
        let cfg = EngineConfig {
            lazy_checks: lazy,
            ..EngineConfig::default()
        };
        let mut backend = twip_backend(cfg);
        backend.load_graph(&graph);
        for t in 0..3000u64 {
            backend.load_post((t % users as u64) as u32, t, "warm tweet");
        }
        for u in 0..users / 2 {
            backend.check(u, 0); // materialize timelines
        }
        // Write path: a burst of new subscriptions.
        let start = std::time::Instant::now();
        for u in 0..users / 2 {
            backend.subscribe(u, (u + 13) % users);
            backend.subscribe(u, (u + 29) % users);
        }
        let write_path = start.elapsed().as_secs_f64();
        // Read path: the checks that absorb the deferred work.
        let start = std::time::Instant::now();
        for u in 0..users / 2 {
            backend.check(u, 0);
        }
        let read_path = start.elapsed().as_secs_f64();
        (write_path, read_path)
    };
    let (lazy_w, lazy_r) = m1(true);
    let (eager_w, eager_r) = m1(false);
    rows.push(vec![
        "M1 lazy checks: write path (§3.2)".into(),
        format!("{} / {}", secs(eager_w), secs(lazy_w)),
        ratio(eager_w / lazy_w.max(1e-9)),
        "shifts work off writes".into(),
        format!("read path {} / {}", secs(eager_r), secs(lazy_r)),
    ]);

    print_table(
        "Ablations — disabled / enabled runtime (factor > 1 means the optimization helps)",
        &["ablation", "off / on", "factor", "paper", "notes"],
        &rows,
    );
}
