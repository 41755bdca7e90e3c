//! End-to-end replication over real TCP: `ClusterServer`s in one
//! process — each a reactor thread, its ticker and one dialer per peer,
//! whatever the number of connections — a redirect-learning
//! `ClusterClient`, an abrupt primary death, reads after failover, and
//! the serving-edge properties a node inherits from the reactor: a
//! client that stops reading wedges nobody, connections cost no
//! threads, and the serving counters ride the node's telemetry.

// Test-only crate: helpers sit outside #[test] functions, so
// clippy's allow-unwrap-in-tests does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pequod_cluster::{ClusterClient, ClusterConfig, ClusterServer};
use pequod_core::Engine;
use pequod_net::codec::encode_frame;
use pequod_net::Message;
use pequod_store::{Key, KeyRange};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Reserves `n` distinct ephemeral ports by binding and dropping
/// listeners (the OS keeps them out of rotation long enough for the
/// servers to rebind).
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<_> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").port())
        .collect()
}

fn cluster_cfg(n: u32, r: usize) -> ClusterConfig {
    let ports = free_ports(n as usize);
    let mut cfg = ClusterConfig::new(n, r);
    for (node, port) in cfg.nodes.iter_mut().zip(ports) {
        node.addr = format!("127.0.0.1:{port}");
    }
    cfg
}

#[test]
fn tcp_cluster_replicates_redirects_and_fails_over() {
    let cfg = cluster_cfg(3, 2);
    let mut servers: Vec<ClusterServer> = (0..3)
        .map(|id| {
            ClusterServer::spawn(cfg.clone(), id, Engine::new_default(), None).expect("spawn node")
        })
        .collect();
    // Let the peer links and first heartbeats come up.
    std::thread::sleep(std::time::Duration::from_millis(200));

    let mut client = ClusterClient::connect(cfg.clone());
    for i in 0..20 {
        client
            .put(format!("p|u{i:02}|post"), format!("body-{i}"))
            .expect("replicated put");
    }
    for i in 0..20 {
        let v = client.get(format!("p|u{i:02}|post")).expect("get");
        assert_eq!(v.as_deref(), Some(format!("body-{i}").as_bytes()));
    }
    // Scatter-gathered scan and count see every row exactly once.
    let rows = client.scan(KeyRange::prefix("p|")).expect("scan");
    assert_eq!(rows.len(), 20);
    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "scan is sorted");
    assert_eq!(client.count(KeyRange::prefix("p|")).expect("count"), 20);

    // Crash node 0 (no graceful drain — failover must cover for it).
    servers[0].halt_abrupt();
    std::thread::sleep(std::time::Duration::from_millis(3 * cfg.timing.failover_ms));

    // Every previously acked write survives the crash, served by the
    // promoted followers; the client rediscovers primaries by cycling
    // nodes and following NotPrimary redirects.
    for i in 0..20 {
        let v = client
            .get(format!("p|u{i:02}|post"))
            .expect("get after failover");
        assert_eq!(v.as_deref(), Some(format!("body-{i}").as_bytes()));
    }
    // And new writes land on the survivors.
    client
        .put("p|u99|post", "fresh")
        .expect("put after failover");
    let v = client.get("p|u99|post").expect("read back");
    assert_eq!(v.as_deref(), Some(&b"fresh"[..]));

    let promoted: u64 = (1..3)
        .map(|n| {
            client
                .status(n)
                .expect("status")
                .iter()
                .find(|(k, _)| k.as_bytes() == b"stat|promotions")
                .and_then(|(_, v)| std::str::from_utf8(v).ok()?.parse::<u64>().ok())
                .unwrap_or(0)
        })
        .sum();
    assert!(promoted > 0, "a follower promoted itself over TCP");

    for s in &mut servers[1..] {
        s.halt();
    }
}

#[test]
fn graceful_halt_finalizes_and_serves_until_stopped() {
    let cfg = cluster_cfg(2, 2);
    let mut servers: Vec<ClusterServer> = (0..2)
        .map(|id| {
            ClusterServer::spawn(cfg.clone(), id, Engine::new_default(), None).expect("spawn node")
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(150));
    let mut client = ClusterClient::connect(cfg.clone());
    client.put("p|a|1", "x").expect("put");
    assert_eq!(
        client.get("p|a|1").expect("get").as_deref(),
        Some(&b"x"[..])
    );
    // halt() drains and finalizes; calling it twice is a no-op.
    servers[1].halt();
    servers[1].halt();
    servers[0].halt();
}

/// A numeric `stat|*` counter of node `n`.
fn stat(client: &mut ClusterClient, n: u32, name: &str) -> u64 {
    let want = format!("stat|{name}");
    client
        .status(n)
        .expect("status")
        .iter()
        .find(|(k, _)| k.as_bytes() == want.as_bytes())
        .and_then(|(_, v)| std::str::from_utf8(v).ok()?.parse().ok())
        .expect("stat present")
}

/// The first key of the form `p|wNNN|x` whose slot node 0 leads.
fn key_led_by_node_0(cfg: &ClusterConfig) -> String {
    (0..)
        .map(|i| format!("p|w{i:03}|x"))
        .find(|k| cfg.initial_replicas(cfg.slot_of(&Key::from(k.as_str())))[0] == 0)
        .expect("node 0 leads some slot")
}

/// One client that pipelines large scans and never reads must not stop
/// the node: its replies park in a bounded buffer, the reactor keeps
/// serving everyone else, heartbeats keep flowing and nobody fails
/// over. (The loop this replaced answered clients with a blocking
/// write on the thread that owned the node, so this froze it.)
#[test]
fn stuck_reader_wedges_neither_writes_nor_heartbeats() {
    let cfg = cluster_cfg(2, 2);
    let mut servers: Vec<ClusterServer> = (0..2)
        .map(|id| {
            ClusterServer::spawn(cfg.clone(), id, Engine::new_default(), None).expect("spawn node")
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    let mut b = ClusterClient::connect(cfg.clone());
    for i in 0..256 {
        b.put(format!("p|u{i:03}|big"), vec![b'z'; 4096])
            .expect("seed");
    }
    // A: 400 pipelined scans of node 0's half of that (≈0.5 MiB each),
    // far more than the socket buffers hold, and not one byte read.
    let mut a = TcpStream::connect(cfg.addr_of(0).expect("addr")).expect("connect");
    for id in 1..=400 {
        a.write_all(&encode_frame(&Message::Scan {
            id,
            range: KeyRange::prefix("p|"),
        }))
        .expect("pipeline scans");
    }
    std::thread::sleep(Duration::from_millis(300));
    // B's replicated write to a slot node 0 leads is acked promptly...
    let key = key_led_by_node_0(&cfg);
    let t0 = Instant::now();
    b.put(key.clone(), "fresh").expect("put while A is stuck");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "put took {:?} behind a stuck reader",
        t0.elapsed()
    );
    // ...and over three failover periods the follower never promotes.
    std::thread::sleep(Duration::from_millis(3 * cfg.timing.failover_ms));
    assert_eq!(stat(&mut b, 1, "promotions"), 0, "follower failed over");
    assert_eq!(stat(&mut b, 0, "promotions"), 0);
    assert_eq!(b.get(key).expect("get").as_deref(), Some(&b"fresh"[..]));
    drop(a);
    for s in &mut servers {
        s.halt();
    }
}

/// The `/proc` entries of this process's threads that carry `name`.
fn tasks_named(name: &str) -> Vec<PathBuf> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| {
            let task = task.ok()?.path();
            let comm = std::fs::read_to_string(task.join("comm")).ok()?;
            (comm.trim_end() == name).then_some(task)
        })
        .collect()
}

/// How many threads of this process carry `name`.
fn threads_named(name: &str) -> usize {
    tasks_named(name).len()
}

/// Waits until the threads behind `tasks`, which their owner has
/// joined, have left `/proc/self/task`. A joined thread can still be
/// listed for a moment: `join` returns when the kernel clears the
/// exiting thread's id, before it removes the thread's task entry. A
/// thread nobody joined stays listed and fails the wait with `what`.
fn wait_reaped(tasks: &[PathBuf], what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while tasks.iter().any(|task| task.exists()) {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs `f` on a new thread named `name`, joins it, and returns `f`'s
/// result once that thread has left `/proc/self/task`, so that a count
/// by `name` sees only the threads `f` started.
fn spawn_named<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (task, out) = std::thread::Builder::new()
        .name(name.into())
        .spawn(|| (std::fs::read_link("/proc/thread-self").unwrap(), f()))
        .unwrap()
        .join()
        .unwrap();
    // The link reads `<pid>/task/<tid>`.
    wait_reaped(&[Path::new("/proc").join(task)], "the spawner never exited");
    out
}

/// Connections cost a node no threads, and its telemetry carries the
/// reactor's serving counters next to the replication gauges.
#[test]
fn connections_cost_no_threads_and_show_in_the_metrics() {
    // The server's threads are unnamed, and Linux copies a thread's
    // name to the threads it creates: spawning from a thread of a known
    // name makes the node's own threads countable, whatever other tests
    // are running.
    const SPAWNER: &str = "node-census";
    let cfg = cluster_cfg(2, 2);
    let node_cfg = cfg.clone();
    let mut server = spawn_named(SPAWNER, move || {
        ClusterServer::spawn(node_cfg, 0, Engine::new_default(), None)
    })
    .expect("spawn node");
    assert_eq!(
        threads_named(SPAWNER),
        3,
        "a node of a 2-node cluster runs the reactor, the ticker and one dialer"
    );
    // 300 idle clients, each past its first frame.
    let idle: Vec<TcpStream> = (0..300)
        .map(|_| {
            let mut sock = TcpStream::connect(server.addr()).expect("connect");
            sock.write_all(&encode_frame(&Message::NodeStatus { id: 1 }))
                .expect("first frame");
            sock
        })
        .collect();
    let mut probe = pequod_net::TcpClient::connect(server.addr()).expect("connect");
    let wait_for = |name: &str, at_least: u64, probe: &mut pequod_net::TcpClient| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let metrics = probe.metrics(false).expect("wire Metrics");
            let value = metrics
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.parse::<u64>().ok());
            if value.is_some_and(|v| v >= at_least) {
                return metrics;
            }
            assert!(
                Instant::now() < deadline,
                "{name} never reached {at_least}: {value:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    let metrics = wait_for("pequod_conns_active", 301, &mut probe);
    assert_eq!(
        threads_named(SPAWNER),
        3,
        "301 connections added threads to the node"
    );
    for name in [
        "pequod_frames_in_total",
        "pequod_backpressure_pauses_total",
        "pequod_cluster_writes_applied_total",
        "pequod_cluster_acks_outstanding",
    ] {
        assert!(
            metrics.iter().any(|(k, _)| k == name),
            "wire Metrics lacks {name}: {metrics:?}"
        );
    }
    // The scrape provider is the same snapshot.
    let scrape = (server.telemetry())(false).to_pairs();
    assert!(scrape
        .iter()
        .any(|(k, v)| k == "pequod_conns_active" && v.parse::<u64>().is_ok_and(|n| n >= 301)));
    drop(idle);
    let node_threads = tasks_named(SPAWNER);
    server.halt();
    wait_reaped(&node_threads, "a node thread outlived halt");
    assert_eq!(threads_named(SPAWNER), 0, "a node thread outlived halt");
}
