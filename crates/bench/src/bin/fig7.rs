//! Figure 7: time to process a Twip experiment to completion on Pequod
//! and the comparison systems.
//!
//! Paper result (EC2 cr1.8xlarge, 1.8M-user sampled graph):
//!
//! ```text
//! Pequod        197.06 s (1.00x)
//! Redis         262.62 s (1.33x)
//! Client Pequod 323.29 s (1.64x)
//! memcached     784.43 s (3.98x)
//! PostgreSQL   1882.78 s (9.55x)
//! ```
//!
//! We run the same op mix (5% logins / 9% subscriptions / 85% checks /
//! 1% posts, 70% active users) at laptop scale and report the same
//! table. Expect the ordering and rough factors to reproduce, not the
//! absolute seconds.
//!
//! Two modes:
//!
//! * **default** — the classic comparison: each system runs its
//!   app-specific backend (sorted-set timelines on Redis, string
//!   appends on memcached, triggers on the relational engine), with
//!   system-specific costs modelled in.
//! * **`--backend {engine,writearound,cluster,redis,memcached,minidb}`**
//!   (or `--backend all`, or a comma-separated list) — the unified-API
//!   comparison: every choice is driven through the identical
//!   `pequod_core::Client` command stream (`ClientTwip`). Pequod
//!   deployments serve timelines with cache joins; join-less stores
//!   fall back to client-side fan-out. Same driver, same commands, same meter —
//!   apples to apples. `--json PATH` additionally writes the results as
//!   a JSON array (the CI bench-smoke artifact).

use pequod_baselines::{ClientPequodTwip, MemcachedTwip, PostgresTwip, RedisTwip};
use pequod_bench::{
    arg_value, print_table, ratio, secs, twip_client, twip_graph, Scale, TWIP_BACKENDS,
};
use pequod_core::{Engine, EngineConfig};
use pequod_store::StoreConfig;
use pequod_workloads::twip::{
    run_twip, ClientTwip, PequodTwip, TwipBackend, TwipMix, TwipRunStats, TwipWorkload,
};
use pequod_workloads::SocialGraph;

struct Experiment {
    graph: SocialGraph,
    workload: TwipWorkload,
    initial_posts: u64,
}

fn experiment(scale: &Scale) -> Experiment {
    let users = scale.count(3000) as u32;
    let graph = twip_graph(users, 0x5e7);
    let mix = TwipMix {
        active_fraction: 0.7,
        checks_per_user: 15,
        seed: 0xf167,
        ..TwipMix::default()
    };
    let workload = TwipWorkload::generate(&graph, &mix);
    let initial_posts = scale.count(9000);
    let h = workload.histogram();
    // Expected deliveries per post: followers weighted by post probability.
    let wsum: f64 = (0..users).map(|u| graph.post_weight(u)).sum();
    let fanout: f64 = (0..users)
        .map(|u| graph.post_weight(u) * graph.follower_count(u) as f64)
        .sum::<f64>()
        / wsum;
    println!(
        "fig7: {} users, {} edges, effective fan-out {:.0}, ops = {} logins / {} subs / {} checks / {} posts",
        users,
        graph.edges(),
        fanout,
        h[0],
        h[1],
        h[2],
        h[3]
    );
    Experiment {
        graph,
        workload,
        initial_posts,
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig::with_store(
        StoreConfig::flat()
            .with_subtable("t|", 2)
            .with_subtable("p|", 2),
    )
}

fn results_table(title: &str, results: &[(String, TwipRunStats)], paper: &[(&str, f64)]) {
    let base = results[0].1.elapsed;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(name, s)| {
            let paper_factor = paper
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, f)| format!("{f:.2}x"))
                .unwrap_or_default();
            vec![
                name.clone(),
                secs(s.elapsed),
                ratio(s.elapsed / base),
                paper_factor,
                s.rpcs.to_string(),
                format!("{:.1}", s.rpc_bytes as f64 / (1 << 20) as f64),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "system",
            "runtime (s)",
            "vs first",
            "paper",
            "rpcs",
            "rpc MiB",
        ],
        &rows,
    );
}

/// The classic comparison: each system's app-specific backend.
fn run_classic(exp: &Experiment) {
    let mut results: Vec<(String, TwipRunStats)> = Vec::new();
    {
        let mut b = PequodTwip::new(Engine::new(engine_config()));
        let s = run_twip(&mut b, &exp.graph, &exp.workload, exp.initial_posts);
        results.push((b.name().to_string(), s));
    }
    {
        let mut b = RedisTwip::new();
        let s = run_twip(&mut b, &exp.graph, &exp.workload, exp.initial_posts);
        results.push((b.name().to_string(), s));
    }
    {
        let mut b = ClientPequodTwip::new(Engine::new(engine_config()));
        let s = run_twip(&mut b, &exp.graph, &exp.workload, exp.initial_posts);
        results.push((b.name().to_string(), s));
    }
    {
        let mut b = MemcachedTwip::new();
        let s = run_twip(&mut b, &exp.graph, &exp.workload, exp.initial_posts);
        results.push((b.name().to_string(), s));
    }
    {
        let mut b = PostgresTwip::new();
        let s = run_twip(&mut b, &exp.graph, &exp.workload, exp.initial_posts);
        results.push((b.name().to_string(), s));
    }
    let paper = [
        ("pequod", 1.00),
        ("redis", 1.33),
        ("client-pequod", 1.64),
        ("memcached", 3.98),
        ("postgresql", 9.55),
    ];
    results_table(
        "Figure 7 — Twip system comparison (smaller is better)",
        &results,
        &paper,
    );
}

/// One unified-API run: the named backend behind the shared driver.
fn run_unified_one(name: &str, exp: &Experiment) -> (String, TwipRunStats) {
    let (client, strategy) = twip_client(name, engine_config()).unwrap_or_else(|| {
        eprintln!("unknown backend {name:?}; choices: {TWIP_BACKENDS:?} or all");
        std::process::exit(2);
    });
    let mut b = ClientTwip::new(client, strategy);
    let s = run_twip(&mut b, &exp.graph, &exp.workload, exp.initial_posts);
    (name.to_string(), s)
}

fn run_unified(backend: &str, exp: &Experiment) {
    let names: Vec<&str> = if backend == "all" {
        TWIP_BACKENDS.to_vec()
    } else {
        backend.split(',').collect()
    };
    let results: Vec<(String, TwipRunStats)> =
        names.iter().map(|n| run_unified_one(n, exp)).collect();
    results_table(
        "Figure 7 (unified client API) — same command stream on every backend",
        &results,
        &[],
    );
    if let Some(path) = arg_value("--json") {
        let json = results_json(&results);
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nwrote {path}");
    }
}

/// Hand-rolled JSON for the results (no serde in the offline build):
/// `[{"backend": ..., "seconds": ..., "ops": ..., "ops_per_sec": ...,
/// "rpcs": ..., "rpc_bytes": ...}, ...]`.
fn results_json(results: &[(String, TwipRunStats)]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|(name, s)| {
            format!(
                "  {{\"backend\": \"{}\", \"seconds\": {:.6}, \"ops\": {}, \
                 \"ops_per_sec\": {:.1}, \"rpcs\": {}, \"rpc_bytes\": {}}}",
                name,
                s.elapsed,
                s.ops,
                s.ops as f64 / s.elapsed.max(1e-9),
                s.rpcs,
                s.rpc_bytes
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

fn main() {
    let scale = Scale::from_args();
    let exp = experiment(&scale);
    match arg_value("--backend") {
        Some(backend) => run_unified(&backend, &exp),
        None => run_classic(&exp),
    }
}
