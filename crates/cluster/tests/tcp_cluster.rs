//! End-to-end replication over real TCP: `ClusterServer`s in one
//! process — each a reactor thread, its ticker and one dialer per peer,
//! whatever the number of connections — a redirect-learning
//! `ClusterClient`, an abrupt primary death, reads after failover, and
//! the serving-edge properties a node inherits from the reactor: a
//! client that stops reading wedges nobody, connections cost no
//! threads, and the serving counters ride the node's telemetry.
//!
//! The last three tests are the multi-core deployment under load: three
//! nodes at replication 1 (one process per core, in production), many
//! concurrent clients, joins across nodes kept fresh by §2.4
//! Subscribe/Notify.

use pequod_cluster::{audit_deployment, ClusterClient, ClusterConfig, ClusterServer, NodeAudit};
use pequod_core::{Client, Command, Engine, Response};
use pequod_net::codec::encode_frame;
use pequod_net::Message;
use pequod_store::{Key, KeyRange, Value};
use pequod_telemetry::metric;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
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

    let promoted: u64 = (1..3).map(|n| failovers(&mut client, n)).sum();
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

/// How many times node `n` promoted itself, from its `Metrics` reply.
fn failovers(client: &mut ClusterClient, n: u32) -> u64 {
    let metrics = client.metrics(n, false).expect("metrics");
    metric(&metrics, "pequod_cluster_failovers_total").expect("failovers counted")
}

/// `Client::stats` over sockets sums the backend counters each node's
/// `Metrics` reply carries.
#[test]
fn stats_over_tcp_sum_every_node() {
    const KEYS: u64 = 40;
    let cfg = cluster_cfg(2, 1);
    let mut servers: Vec<ClusterServer> = (0..2)
        .map(|id| {
            ClusterServer::spawn(cfg.clone(), id, Engine::new_default(), None).expect("spawn node")
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    let mut client = ClusterClient::connect(cfg.clone());
    for i in 0..KEYS {
        client.put(format!("p|u{i:02}|post"), "x").expect("put");
    }
    let stats = Client::stats(&mut client);
    assert!(stats.keys >= KEYS, "{stats:?}");
    assert!(stats.memory_bytes > 0, "{stats:?}");
    for s in &mut servers {
        s.halt();
    }
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
    assert_eq!(failovers(&mut b, 1), 0, "follower failed over");
    assert_eq!(failovers(&mut b, 0), 0);
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
            let first = Message::Metrics {
                id: 1,
                flight: false,
            };
            sock.write_all(&encode_frame(&first)).expect("first frame");
            sock
        })
        .collect();
    let mut probe = ClusterClient::connect(ClusterConfig::one_node(server.addr()));
    let wait_for = |name: &str, at_least: u64, probe: &mut ClusterClient| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let metrics = probe.metrics(0, false).expect("wire Metrics");
            let value = metric(&metrics, name);
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
    assert!(metric(&scrape, "pequod_conns_active").is_some_and(|n| n >= 301));
    drop(idle);
    let node_threads = tasks_named(SPAWNER);
    server.halt();
    wait_reaped(&node_threads, "a node thread outlived halt");
    assert_eq!(threads_named(SPAWNER), 0, "a node thread outlived halt");
}

/// Telemetry readers on other threads reach the node through the
/// reactor's inbox: four scrapers reading while four clients write each
/// see the applied-writes counter present and never falling, the last
/// reading covers every acked write, scraping starts no thread, and a
/// scrape after `halt` answers at once.
#[test]
fn scrapes_from_other_threads_see_the_node_while_it_serves() {
    const SPAWNER: &str = "scrape-census";
    const SCRAPER: &str = "scraper";
    const WRITERS: u64 = 4;
    const WRITES: u64 = 100;
    const APPLIED: &str = "pequod_cluster_writes_applied_total";
    let mut server = spawn_named(SPAWNER, || {
        ClusterServer::spawn(
            ClusterConfig::new(1, 1),
            0,
            Engine::new_default(),
            Some("127.0.0.1:0"),
        )
    })
    .expect("spawn node");
    assert_eq!(
        threads_named(SPAWNER),
        2,
        "a one-node cluster runs the reactor and the ticker"
    );
    let done = Arc::new(AtomicBool::new(false));
    // Every scraper has read once before the first write.
    let started = Arc::new(Barrier::new(5));
    let scrapers: Vec<_> = (0..4)
        .map(|_| {
            let (scrape, done) = (server.telemetry(), done.clone());
            let started = started.clone();
            std::thread::Builder::new()
                .name(SCRAPER.into())
                .spawn(move || {
                    let mut last = 0;
                    let mut readings = 0u64;
                    loop {
                        // Read `done` first: the reading after it is
                        // taken once every write was acked.
                        let finished = done.load(Ordering::Acquire);
                        let pairs = scrape(false).to_pairs();
                        readings += 1;
                        if readings == 1 {
                            started.wait();
                        }
                        let applied = metric(&pairs, APPLIED)
                            .unwrap_or_else(|| panic!("a scrape lacks {APPLIED}"));
                        assert!(applied >= last, "{APPLIED} fell from {last} to {applied}");
                        last = applied;
                        if finished {
                            return (last, readings);
                        }
                    }
                })
                .expect("spawn scraper")
        })
        .collect();
    started.wait();
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let mut c = ClusterClient::connect(ClusterConfig::one_node(server.addr()));
            std::thread::spawn(move || {
                for t in 0..WRITES {
                    c.put(format!("p|w{w}|{t:010}"), "post").unwrap();
                }
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }
    assert_eq!(threads_named(SPAWNER), 2, "a scrape started a node thread");
    assert_eq!(threads_named(SCRAPER), 4, "a scrape started a thread");
    done.store(true, Ordering::Release);
    for t in scrapers {
        let (last, readings) = t.join().unwrap();
        assert!(
            last >= WRITERS * WRITES,
            "the last of {readings} readings saw {last} writes applied, {} acked",
            WRITERS * WRITES
        );
    }
    let scrape = server.telemetry();
    server.halt();
    let halted = Instant::now();
    scrape(false);
    (server.telemetry())(false);
    assert!(
        halted.elapsed() < Duration::from_secs(1),
        "a scrape of a halted node took {:?}",
        halted.elapsed()
    );
}

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

/// Three nodes at replication 1, serving, their links up.
fn three_rf1_nodes() -> (ClusterConfig, Vec<ClusterServer>) {
    let cfg = cluster_cfg(3, 1);
    let servers = (0..3)
        .map(|id| {
            ClusterServer::spawn(cfg.clone(), id, Engine::new_default(), None).expect("spawn node")
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    (cfg, servers)
}

/// The node that answers reads of `key`: the primary of its slot.
fn home(cfg: &ClusterConfig, key: &str) -> u32 {
    cfg.initial_replicas(cfg.slot_of(&Key::from(key)))[0]
}

/// Polls `count` until it reads `want`. An acknowledged write's
/// notification and the next read reach a subscriber on different
/// connections, so a read issued right after the ack may still miss it;
/// a lost notification never arrives and fails the wait.
fn converges(mut count: impl FnMut() -> u64, want: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = count();
        if got == want {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: {got}, want {want}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Audits the quiet cluster and halts it.
fn audit_and_halt(servers: &mut [ClusterServer]) {
    let audits: Vec<NodeAudit> = servers.iter().map(ClusterServer::audit).collect();
    assert_eq!(audit_deployment(&audits), Vec::<String>::new());
    for s in servers {
        s.halt();
    }
}

/// Concurrent writers on disjoint key sets, readers counting while the
/// writes are in flight: no operation may fail, counts never go
/// backwards, and the final counts equal what was written.
#[test]
fn concurrent_writers_and_readers_converge() {
    const WRITERS: usize = 4;
    const POSTS_PER_WRITER: u64 = 120;
    let (cfg, mut servers) = three_rf1_nodes();
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let mut c = ClusterClient::connect(cfg.clone());
            let done = done.clone();
            std::thread::spawn(move || {
                let mut last = [0u64; WRITERS];
                while !done.load(Ordering::Relaxed) {
                    for (w, prev) in last.iter_mut().enumerate() {
                        let n = c.count(KeyRange::prefix(format!("p|w{w}|"))).unwrap();
                        assert!(n >= *prev, "count went backwards: {n} < {prev}");
                        *prev = n;
                    }
                }
            })
        })
        .collect();
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let mut c = ClusterClient::connect(cfg.clone());
            std::thread::spawn(move || {
                for t in 0..POSTS_PER_WRITER {
                    c.put(format!("p|w{w}|{t:010}"), "post").unwrap();
                }
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for t in readers {
        t.join().unwrap();
    }
    // A writer's posts are read at their home: exact at once.
    let mut c = ClusterClient::connect(cfg.clone());
    for w in 0..WRITERS {
        let n = c.count(KeyRange::prefix(format!("p|w{w}|"))).unwrap();
        assert_eq!(n, POSTS_PER_WRITER, "writer {w}'s posts did not all land");
    }
    let total = WRITERS as u64 * POSTS_PER_WRITER;
    assert_eq!(c.count(KeyRange::prefix("p|")).unwrap(), total);
    audit_and_halt(&mut servers);
}

/// Writers post into a live cross-node join while readers repeatedly
/// materialize and re-validate the joined timelines. After the writers
/// finish, each timeline counts every post of the posters it follows.
#[test]
fn concurrent_join_maintenance_converges() {
    const POSTERS: usize = 4;
    const POSTS_PER_POSTER: u64 = 60;
    let (cfg, mut servers) = three_rf1_nodes();
    let mut c = ClusterClient::connect(cfg.clone());
    c.add_join(TIMELINE).unwrap();
    // reader0 follows everyone, reader1 the even posters.
    for p in 0..POSTERS {
        c.put(format!("s|reader0|w{p}"), "1").unwrap();
        if p % 2 == 0 {
            c.put(format!("s|reader1|w{p}"), "1").unwrap();
        }
    }
    // The timelines are computed away from some of their posters' homes.
    let timeline_home = |r: usize| home(&cfg, &format!("t|reader{r}|"));
    assert!((0..POSTERS).any(|p| home(&cfg, &format!("p|w{p}|")) != timeline_home(0)));

    let done = Arc::new(AtomicBool::new(false));
    let pollers: Vec<_> = (0..2)
        .map(|r| {
            let mut c = ClusterClient::connect(cfg.clone());
            let done = done.clone();
            std::thread::spawn(move || {
                let mut last = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let n = c.count(KeyRange::prefix(format!("t|reader{r}|"))).unwrap();
                    assert!(n >= last, "timeline shrank: {n} < {last}");
                    last = n;
                }
            })
        })
        .collect();
    let writers: Vec<_> = (0..POSTERS)
        .map(|p| {
            let mut c = ClusterClient::connect(cfg.clone());
            std::thread::spawn(move || {
                for t in 0..POSTS_PER_POSTER {
                    c.put(format!("p|w{p}|{t:010}"), "hi").unwrap();
                }
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for t in pollers {
        t.join().unwrap();
    }
    let mut count = |r: &str| c.count(KeyRange::prefix(r)).unwrap();
    let all = POSTERS as u64 * POSTS_PER_POSTER;
    converges(|| count("t|reader0|"), all, "reader0 follows everyone");
    let even = (POSTERS as u64).div_ceil(2) * POSTS_PER_POSTER;
    converges(
        || count("t|reader1|"),
        even,
        "reader1 follows the even posters",
    );
    audit_and_halt(&mut servers);
}

/// A whole-table read is scatter-gathered from both other nodes, and
/// the range installs only when the slower grant has landed. Writes
/// acked at the node that already granted — while the other, preloaded
/// with ≈30k rows, is still scanning for its grant — reach the reader
/// as notifications for a range it does not hold yet. They must be kept
/// and applied once the range installs.
#[test]
fn writes_acked_during_a_multi_peer_fetch_are_not_lost() {
    // The grant's cost grows with the preloaded rows; an unoptimised
    // build gets a smaller table and a window of about the same width.
    const PRELOAD: u64 = if cfg!(debug_assertions) {
        6_000
    } else {
        30_000
    };
    const WRITES: u64 = 5_000;
    let (cfg, mut servers) = three_rf1_nodes();
    // `count p|` is answered by the node homing the bare prefix; the
    // writer's user and the preloaded user live on the other two.
    let reader = home(&cfg, "p|");
    let user_home = |user: &str| home(&cfg, &format!("p|{user}|0"));
    let users = || (0..).map(|i| format!("u{i}"));
    let writer_user = users().find(|u| user_home(u) != reader).unwrap();
    let slow_user = users()
        .find(|u| user_home(u) != reader && user_home(u) != user_home(&writer_user))
        .unwrap();

    let mut c = ClusterClient::connect(cfg.clone());
    let preload: Vec<Command> = (0..PRELOAD)
        .map(|t| {
            Command::Put(
                Key::from(format!("p|{slow_user}|{t:010}")),
                Value::from_static(b"old post"),
            )
        })
        .collect();
    assert!(c.execute_batch(preload).iter().all(|r| *r == Response::Ok));

    // The read starts once the writer is a tenth of the way through, so
    // the writer's node grants at once and the rest of the writes are
    // acked while the preloaded node is still scanning.
    let written = Arc::new(AtomicU64::new(0));
    let writer = {
        let mut c = ClusterClient::connect(cfg.clone());
        let written = written.clone();
        std::thread::spawn(move || {
            for t in 0..WRITES {
                c.put(format!("p|{writer_user}|{t:010}"), "new post")
                    .unwrap();
                written.store(t + 1, Ordering::Release);
            }
        })
    };
    while written.load(Ordering::Acquire) < WRITES / 10 {
        std::thread::yield_now();
    }
    let before = written.load(Ordering::Acquire);
    let during = c.count(KeyRange::prefix("p|")).unwrap();
    let after = written.load(Ordering::Acquire);
    writer.join().unwrap();

    // The race this test exists for: writes acked while the fetch was
    // open. Without them it would pass without exercising anything.
    assert!(
        after > before,
        "no write was acked during the fetch ({before} before it, {after} after)"
    );
    assert!(during >= PRELOAD, "the read lost preloaded rows: {during}");
    converges(
        || c.count(KeyRange::prefix("p|")).unwrap(),
        PRELOAD + WRITES,
        "writes acked while the whole-table fetch was open never arrived",
    );
    audit_and_halt(&mut servers);
}
