//! Cluster bench: what replication costs in steady state, and what a
//! primary failure costs in availability.
//!
//! Runs a real 3-node TCP cluster (replication factor 2) in-process
//! and measures three things:
//!
//! 1. **Steady-state ops/s** — a mixed put/get load through
//!    [`ClusterClient`], every write semi-synchronously replicated
//!    (acked only after all followers confirm).
//! 2. **Failover-to-first-fresh-read** — SIGKILL-equivalent halt of
//!    node 0 (`halt_abrupt`: no finalization, no goodbye), then the
//!    time until a key whose slot node 0 owned is readable again —
//!    i.e. until a follower promotes and serves it.
//! 3. **Catch-up bytes** — a blank replacement node 0 rejoins and the
//!    survivors stream it back to parity; reported as snapshot bytes +
//!    delta bytes from the replication counters.
//!
//! ```text
//! cluster [--scale S] [--json PATH]
//! ```
//!
//! CI's `cluster-smoke` job publishes `BENCH_cluster_smoke.json` per
//! push (the availability counterpart of the recovery-smoke artifact).

use pequod_bench::{arg_value, print_table, Scale};
use pequod_cluster::{ClusterClient, ClusterConfig, ClusterServer};
use pequod_core::{Engine, EngineConfig};
use pequod_store::Key;
use pequod_telemetry::metric;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Reserves `n` distinct loopback ports by binding and dropping
/// listeners; the servers rebind them immediately after.
fn free_ports(n: usize) -> Vec<u16> {
    let held: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind probe"))
        .collect();
    held.iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

fn cluster_cfg(ports: &[u16]) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(ports.len() as u32, 2);
    for (node, port) in cfg.nodes.iter_mut().zip(ports) {
        node.addr = format!("127.0.0.1:{port}");
    }
    cfg
}

fn spawn_node(cfg: &ClusterConfig, id: u32) -> ClusterServer {
    ClusterServer::spawn(cfg.clone(), id, Engine::new(EngineConfig::default()), None)
        .unwrap_or_else(|e| panic!("spawn node {id}: {e}"))
}

/// Total catch-up payload streamed by the survivors so far.
fn catchup_bytes(client: &mut ClusterClient, survivors: &[u32]) -> u64 {
    let paths =
        ["snapshot", "delta"].map(|p| format!("pequod_cluster_catchup_bytes_total{{path={p}}}"));
    survivors
        .iter()
        .filter_map(|&n| client.metrics(n, false).ok())
        .map(|pairs| {
            paths
                .iter()
                .filter_map(|key| metric(&pairs, key))
                .sum::<u64>()
        })
        .sum()
}

fn main() {
    let scale = Scale::from_args();
    let steady_ops = scale.count(4_000) as usize;
    let ports = free_ports(3);
    let cfg = cluster_cfg(&ports);
    let mut servers: Vec<Option<ClusterServer>> =
        (0..3).map(|id| Some(spawn_node(&cfg, id))).collect();
    // Let the mesh form (heartbeats flowing, no spurious promotions).
    std::thread::sleep(Duration::from_millis(200));
    let mut client = ClusterClient::connect(cfg.clone());

    // --- Phase 1: steady state ----------------------------------------
    let keyspace = 512u64;
    let key_of = |i: u64| format!("p|u{:03}|{:010}", i % keyspace, 1_000_000 + i);
    let t0 = Instant::now();
    for i in 0..steady_ops as u64 {
        let key = key_of(i);
        if i % 4 == 3 {
            // 25% reads of an already-written key.
            let probe = key_of(i / 2);
            client
                .get(probe.clone())
                .unwrap_or_else(|e| panic!("get {probe}: {e}"));
        } else {
            client
                .put(key.clone(), format!("row-{i}"))
                .unwrap_or_else(|e| panic!("put {key}: {e}"));
        }
    }
    let steady_secs = t0.elapsed().as_secs_f64();
    let steady_ops_per_sec = steady_ops as f64 / steady_secs.max(1e-9);

    // --- Phase 2: failover --------------------------------------------
    // A key node 0 is primary for: the first slot whose initial replica
    // set leads with 0 (slot assignment is round-robin, so slot 0).
    let victim_slot = (0..cfg.slots)
        .find(|&s| cfg.initial_replicas(s)[0] == 0)
        .expect("node 0 owns a slot");
    let victim_key = (0..keyspace)
        .map(|u| format!("p|u{u:03}|{:010}", 1_000_000u64))
        .find(|k| cfg.slot_of(&Key::from(k.clone())) == victim_slot)
        .expect("a key in the victim slot");
    client
        .put(victim_key.clone(), "pre-crash")
        .expect("seed victim key");

    if let Some(mut s) = servers[0].take() {
        s.halt_abrupt();
    }
    let t1 = Instant::now();
    loop {
        match client.get(victim_key.clone()) {
            Ok(Some(_)) => break,
            Ok(None) => panic!("acked write vanished during failover"),
            Err(_) if t1.elapsed() < Duration::from_secs(20) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("failover never completed: {e}"),
        }
    }
    let failover_ms = t1.elapsed().as_secs_f64() * 1e3;

    // --- Phase 3: catch-up --------------------------------------------
    // A blank node 0 rejoins; survivors stream it back via snapshot +
    // delta. Measure the payload the counters attribute to catch-up.
    let survivors = [1u32, 2u32];
    let bytes_before = catchup_bytes(&mut client, &survivors);
    servers[0] = Some(spawn_node(&cfg, 0));
    let t2 = Instant::now();
    let caught_up = |client: &mut ClusterClient| {
        client.metrics(0, false).map(|pairs| {
            let counted = |name| metric(&pairs, name).is_some_and(|n| n > 0);
            counted("pequod_cluster_snap_installs_total")
                || counted("pequod_cluster_notifies_applied_total")
        })
    };
    while !caught_up(&mut client).unwrap_or(false) {
        assert!(
            t2.elapsed() < Duration::from_secs(30),
            "replacement node never caught up"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Let the stream quiesce so the byte counters settle.
    std::thread::sleep(Duration::from_millis(500));
    let catchup = catchup_bytes(&mut client, &survivors).saturating_sub(bytes_before);

    print_table(
        "Cluster smoke — 3 nodes, replication factor 2",
        &["metric", "value"],
        &[
            vec![
                "steady-state ops/s".to_string(),
                format!("{steady_ops_per_sec:.0}"),
            ],
            vec![
                "failover to first fresh read (ms)".to_string(),
                format!("{failover_ms:.1}"),
            ],
            vec![
                "catch-up bytes (replacement node)".to_string(),
                format!("{catchup}"),
            ],
        ],
    );

    if let Some(path) = arg_value("--json") {
        // Hand-rolled JSON, same convention as fig7/recovery (no serde
        // offline).
        let json = format!(
            "[\n  {{\"phase\": \"steady\", \"ops\": {steady_ops}, \"seconds\": {steady_secs:.6}, \
             \"ops_per_sec\": {steady_ops_per_sec:.1}}},\n  \
             {{\"phase\": \"failover\", \"first_fresh_read_ms\": {failover_ms:.3}}},\n  \
             {{\"phase\": \"catchup\", \"bytes\": {catchup}}}\n]\n"
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nwrote {path}");
    }

    for slot in servers.iter_mut() {
        if let Some(mut s) = slot.take() {
            s.halt();
        }
    }
}
