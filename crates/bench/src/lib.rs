//! `pequod-bench` — shared harness utilities for the figure binaries.
//!
//! Each binary regenerates one artifact of the paper's evaluation:
//!
//! | Binary      | Paper artifact                                    |
//! |-------------|---------------------------------------------------|
//! | `fig7`      | Figure 7 — system comparison table                |
//! | `fig8`      | Figure 8 — materialization strategies             |
//! | `fig9`      | Figure 9 — Newp interleaved vs non-interleaved    |
//! | `fig10`     | Figure 10 — scalability vs compute servers        |
//! | `ablations` | §4.1–§4.3 and §3.2 in-text optimization factors   |
//! | `eviction`  | §2.5 — memory-bounded serving: cap sweep vs an    |
//! |             | unbounded engine (throughput, hit rate, evictions)|
//!
//! # Flag conventions
//!
//! Every binary accepts `--scale S` (default 1) to grow the workload;
//! the default finishes in seconds on a laptop while preserving the
//! paper's ratios (edges/user, op mix, check:post ratios). The
//! unified-API binaries accept `--backend NAME` where `NAME` is one of
//! [`TWIP_BACKENDS`] (fig7 also takes `all` or a comma-separated list).
//! `fig7 --json PATH` writes the
//! results table as a JSON array — CI's bench-smoke job uses it to
//! publish a `BENCH_fig7_smoke.json` artifact per commit, so the
//! performance trajectory of the repo is recorded (`eviction --json`
//! does the same for the memory-pressure artifact,
//! `BENCH_eviction_smoke.json`).
//!
//! # What this crate provides
//!
//! The library holds the pieces every binary shares: command-line
//! parsing ([`Scale`], [`arg_value`]), backend factories
//! ([`pequod_client`], [`twip_client`]) that build any `--backend`
//! choice behind the unified `pequod_core::Client` trait, the standard
//! experiment graph ([`twip_graph`]), and Markdown-ish table printing
//! ([`print_table`]). The figure binaries themselves live in
//! `src/bin/` and `benches/micro.rs` holds criterion microbenchmarks
//! for the hot engine paths.

// No first-party unsafe: the whole system is safe Rust over the
// vendored deps. Clippy's `undocumented_unsafe_blocks` would also want a
// `SAFETY:` comment on any unsafe block an allow here admitted.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pequod_baselines::{MemcachedClient, MiniDbClient, RedisClient};
use pequod_cluster::{ClusterClient, ClusterConfig, SimHarness};
use pequod_core::partition::ComponentHashPartition;
use pequod_core::{Client, Engine, EngineConfig};
use pequod_workloads::{GraphConfig, SocialGraph, TwipStrategy};
use std::sync::Arc;

/// Harness scale parsed from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Multiplier on workload size (users, ops).
    pub factor: f64,
}

impl Scale {
    /// Parses `--scale N` (default 1.0) from `std::env::args`.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        let mut factor = 1.0;
        for i in 0..args.len() {
            if args[i] == "--scale" {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) {
                    factor = v;
                }
            }
        }
        Scale { factor }
    }

    /// Scales a base count.
    pub fn count(&self, base: u64) -> u64 {
        ((base as f64) * self.factor).round().max(1.0) as u64
    }
}

/// Returns the value following `flag` on the command line, if present.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Every backend the unified-API Twip comparison accepts.
pub const TWIP_BACKENDS: &[&str] = &[
    "engine",
    "writearound",
    "cluster",
    "redis",
    "memcached",
    "minidb",
];

/// Number of servers in `--backend cluster` deployments.
const CLUSTER_SERVERS: u32 = 2;

/// Builds a join-capable Pequod deployment as a unified-API backend.
///
/// * `engine` — one in-process [`Engine`].
/// * `writearound` — [`ClusterClient::write_around`]: an [`Engine`]
///   in front of a database node, the listed `tables` living in the
///   database.
/// * `cluster` — a simulated replicated cluster of `CLUSTER_SERVERS`
///   (2) nodes, one replica of each slot, every base table partitioned
///   by hashing the second key component, so one user's data
///   co-locates.
///
/// Returns `None` for unknown names (the join-less baselines are built
/// by [`twip_client`]).
pub fn pequod_client(name: &str, cfg: EngineConfig, tables: &[&str]) -> Option<Box<dyn Client>> {
    match name {
        "engine" => Some(Box::new(Engine::new(cfg))),
        "writearound" => Some(Box::new(ClusterClient::write_around(
            Engine::new(cfg),
            tables,
        ))),
        "cluster" => {
            let part = Arc::new(ComponentHashPartition {
                component: 1,
                servers: CLUSTER_SERVERS,
            });
            let cluster =
                ClusterConfig::new(CLUSTER_SERVERS, 1).with_partition(part, CLUSTER_SERVERS);
            let engines = (0..CLUSTER_SERVERS)
                .map(|_| Engine::new(cfg.clone()))
                .collect();
            let sim = SimHarness::with_engines(&cluster, engines, 0x5eed, 1);
            Some(Box::new(ClusterClient::simulated(sim)))
        }
        _ => None,
    }
}

/// [`pequod_client`], or print the canonical usage message and exit —
/// the shared error path of `fig8`, `fig9`, and `ablations`, so the
/// choices list cannot drift between binaries.
pub fn pequod_client_or_exit(name: &str, cfg: EngineConfig, tables: &[&str]) -> Box<dyn Client> {
    pequod_client(name, cfg, tables).unwrap_or_else(|| {
        eprintln!("unknown backend {name:?}; choices: engine, writearound, cluster");
        std::process::exit(2);
    })
}

/// Builds any `--backend` choice for the Twip experiment, paired with
/// the timeline-maintenance strategy it supports: Pequod deployments
/// get server-side joins, the baselines get client-side fan-out.
pub fn twip_client(name: &str, cfg: EngineConfig) -> Option<(Box<dyn Client>, TwipStrategy)> {
    if let Some(client) = pequod_client(name, cfg, &["p|", "s|"]) {
        return Some((client, TwipStrategy::ServerJoins));
    }
    let client: Box<dyn Client> = match name {
        "redis" => Box::new(RedisClient::new()),
        "memcached" => Box::new(MemcachedClient::new()),
        "minidb" => Box::new(MiniDbClient::new()),
        _ => return None,
    };
    Some((client, TwipStrategy::ClientFanout))
}

/// The standard Twip experiment graph at a given user count: average
/// followee count and celebrity skew follow the sampled 2009 subgraph's
/// ratios (≈40 edges/user).
pub fn twip_graph(users: u32, seed: u64) -> SocialGraph {
    SocialGraph::generate(&GraphConfig {
        users,
        avg_followees: 40.0_f64.min(users as f64 / 4.0),
        zipf_alpha: 1.2,
        seed,
    })
}

/// Prints a Markdown-ish results table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:w$} |", c, w = widths[i]));
        }
        s
    };
    println!(
        "{}",
        line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", line(&sep));
    for row in rows {
        println!("{}", line(row));
    }
}

/// Formats seconds with 2 decimals.
pub fn secs(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio like the paper's `(1.33x)`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a byte count as MiB.
pub fn mib(x: usize) -> String {
    format!("{:.1} MiB", x as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_counts() {
        let s = Scale { factor: 2.5 };
        assert_eq!(s.count(10), 25);
        assert_eq!(s.count(0), 1);
    }

    #[test]
    fn graph_helper_respects_small_sizes() {
        let g = twip_graph(100, 1);
        assert_eq!(g.users(), 100);
        assert!(g.edges() > 100);
    }

    #[test]
    fn backend_factory_builds_every_choice() {
        for name in TWIP_BACKENDS {
            let (client, _) = twip_client(name, EngineConfig::default()).expect("known backend");
            // The write-around deployment is a two-node cluster.
            let want = if *name == "writearound" {
                "cluster"
            } else {
                name
            };
            assert_eq!(client.backend_name(), want);
        }
        assert!(twip_client("nope", EngineConfig::default()).is_none());
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(1.234), "1.23");
        assert_eq!(ratio(1.5), "1.50x");
        assert_eq!(mib(1024 * 1024), "1.0 MiB");
    }
}
