//! Front-end bench: serving capacity of the event-driven front-end
//! across connection counts and pipeline depths.
//!
//! Two sweeps, both driven by [`Swarm`] (a single-threaded pipelined
//! many-connection client over the same `epoll` wrapper the server
//! uses), against a fresh one-node [`ClusterServer`] — what
//! `pequod-server` serves without `--cluster`:
//!
//! 1. **Open-connection sweep** — 100 → 5000 concurrent pipelined
//!    connections (scaled by `--scale`, capped by the process fd
//!    limit), a fixed total frame budget split across them.
//! 2. **Pipeline-depth sweep** — a fixed connection count with 1 → 64
//!    unacked frames per connection, measuring what request batching
//!    in flight is worth.
//!
//! Traffic is an even put/get mix over a small keyspace (`id` = frame
//! sequence). Any server-side error reply fails the run.
//!
//! ```text
//! frontend [--scale S] [--json PATH]
//! ```
//!
//! CI's `frontend-smoke` job publishes `BENCH_frontend_smoke.json` per
//! push, so serving capacity is recorded per commit.

use pequod_bench::{arg_value, print_table, Scale};
use pequod_cluster::{ClusterConfig, ClusterServer};
use pequod_core::{Engine, EngineConfig};
use pequod_net::{Message, Swarm, SwarmConfig};
use pequod_store::{Key, Value};
use std::time::Instant;

/// One measured run.
struct Row {
    sweep: &'static str,
    conns: usize,
    depth: usize,
    frames: u64,
    replies: u64,
    secs: f64,
    /// Client-observed per-frame latency (queued to last reply), µs.
    p50_us: u64,
    p99_us: u64,
}

impl Row {
    fn ops_per_sec(&self) -> f64 {
        self.replies as f64 / self.secs.max(1e-9)
    }
}

/// Per-process open-file limit, from `/proc/self/limits`; generous
/// fallback if the file is unreadable (non-Linux dev box).
fn fd_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3).map(str::to_string))
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or(65_536)
}

/// Runs one swarm of `conns × frames_per_conn` put/get frames against
/// a fresh server.
fn run_one(sweep: &'static str, conns: usize, depth: usize, frames_per_conn: usize) -> Row {
    let engine = Engine::new(EngineConfig::default());
    let mut server = ClusterServer::spawn(ClusterConfig::new(1, 1), 0, engine, Some("127.0.0.1:0"))
        .expect("spawn server");
    let addr = server.addr();
    let swarm = Swarm::new(SwarmConfig {
        conns,
        depth,
        frames_per_conn,
        wait_ms: 1_000,
        max_stalls: 60,
    });
    let t0 = Instant::now();
    let report = swarm
        .run(
            addr,
            |conn, seq| {
                let key = Key::from(format!("p|u{:04}|{seq:06}", conn % 512));
                if seq % 2 == 0 {
                    Message::Put {
                        id: seq as u64,
                        key,
                        value: Value::from(b"row".to_vec()),
                    }
                } else {
                    Message::Get {
                        id: seq as u64,
                        key,
                    }
                }
            },
            |_, _| {},
        )
        .unwrap_or_else(|e| panic!("swarm ({conns} conns, depth {depth}): {e}"));
    let secs = t0.elapsed().as_secs_f64();
    server.halt();
    assert_eq!(
        report.reply_errors, 0,
        "server returned error replies under load"
    );
    Row {
        sweep,
        conns,
        depth,
        frames: report.frames_sent,
        replies: report.replies,
        secs,
        p50_us: report.latency.p50(),
        p99_us: report.latency.p99(),
    }
}

fn main() {
    let scale = Scale::from_args();
    // Each swarm connection costs two fds in this process (client end +
    // server end); leave headroom for listeners, wake pipes, std fds.
    let conn_cap = (fd_limit().saturating_sub(128)) / 2;
    let mut rows: Vec<Row> = Vec::new();

    // --- Sweep 1: open connections ------------------------------------
    // Roughly constant total frame budget, split across the swarm.
    let total_frames = scale.count(120_000);
    let mut conn_levels: Vec<usize> = [100u64, 500, 1000, 2000, 5000]
        .iter()
        .map(|&c| (scale.count(c) as usize).clamp(8, conn_cap))
        .collect();
    conn_levels.dedup();
    for &conns in &conn_levels {
        let per_conn = ((total_frames as usize) / conns).max(4);
        rows.push(run_one("conns", conns, 8, per_conn));
    }

    // --- Sweep 2: pipeline depth --------------------------------------
    let depth_conns = (scale.count(64) as usize).clamp(4, conn_cap);
    let depth_frames = (scale.count(40_000) as usize / depth_conns).max(8);
    for depth in [1usize, 4, 16, 64] {
        rows.push(run_one("depth", depth_conns, depth, depth_frames));
    }

    print_table(
        "Front-end smoke — connections × pipeline depth",
        &[
            "sweep", "conns", "depth", "frames", "ops/s", "p50 µs", "p99 µs",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.sweep.to_string(),
                    r.conns.to_string(),
                    r.depth.to_string(),
                    r.frames.to_string(),
                    format!("{:.0}", r.ops_per_sec()),
                    r.p50_us.to_string(),
                    r.p99_us.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    if let Some(path) = arg_value("--json") {
        // Hand-rolled JSON, same convention as fig7/cluster (no serde
        // offline).
        let mut json = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            let sep = if i + 1 < rows.len() { "," } else { "" };
            json.push_str(&format!(
                "  {{\"sweep\": \"{}\", \"conns\": {}, \"depth\": {}, \
                 \"frames\": {}, \"replies\": {}, \"seconds\": {:.6}, \
                 \"ops_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}{sep}\n",
                r.sweep,
                r.conns,
                r.depth,
                r.frames,
                r.replies,
                r.secs,
                r.ops_per_sec(),
                r.p50_us,
                r.p99_us,
            ));
        }
        json.push_str("]\n");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nwrote {path}");
    }
}
