//! Cross-crate integration tests: full application flows through the
//! public facade (`pequod::*`), spanning engine, database, network, and
//! workload crates.

use pequod::baselines::{ClientPequodTwip, MemcachedTwip, PostgresTwip, RedisTwip};
use pequod::cluster::{ClusterClient, ClusterConfig, ClusterServer, SimHarness};
use pequod::core::partition::{ServerId, SingleServer, TablePartition};
use pequod::core::{Engine, EngineConfig, MaterializationMode, MemoryLimit, WriteAround};
use pequod::prelude::*;
use pequod::telemetry::metric;
use pequod::workloads::graph::{GraphConfig, SocialGraph};
use pequod::workloads::twip::{run_twip, PequodTwip, TwipMix, TwipWorkload};
use std::sync::Arc;

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

fn small_graph(seed: u64) -> SocialGraph {
    SocialGraph::generate(&GraphConfig {
        users: 250,
        avg_followees: 8.0,
        zipf_alpha: 1.2,
        seed,
    })
}

/// Every Twip backend — Pequod, client-Pequod, Redis-like,
/// memcached-like, and the relational baseline — serves the identical
/// workload and returns the same timeline entries.
#[test]
fn all_five_systems_agree_on_twip() {
    let graph = small_graph(0xe2e);
    let mix = TwipMix {
        active_fraction: 0.5,
        checks_per_user: 4,
        seed: 0xe2e1,
        ..TwipMix::default()
    };
    let workload = TwipWorkload::generate(&graph, &mix);
    let mut results = Vec::new();

    let mut pq = PequodTwip::new(Engine::new(EngineConfig::default()));
    pq.set_rpc_cost(0, 0);
    results.push(("pequod", run_twip(&mut pq, &graph, &workload, 300)));
    let mut cp = ClientPequodTwip::new(Engine::new(EngineConfig::default()));
    results.push(("client", run_twip(&mut cp, &graph, &workload, 300)));
    let mut rd = RedisTwip::new();
    results.push(("redis", run_twip(&mut rd, &graph, &workload, 300)));
    let mut mc = MemcachedTwip::new();
    results.push(("memcached", run_twip(&mut mc, &graph, &workload, 300)));
    let mut pg = PostgresTwip::new();
    results.push(("postgres", run_twip(&mut pg, &graph, &workload, 300)));

    let expected = results[0].1.entries_returned;
    assert!(expected > 0);
    for (name, stats) in &results {
        assert_eq!(
            stats.entries_returned, expected,
            "{name} returned different timeline entries"
        );
    }
}

/// Write-around deployment: app writes to the database; the cache loads
/// and subscribes on demand; later writes arrive by notification.
#[test]
fn write_around_with_database() {
    let mut engine = Engine::new(EngineConfig::default());
    engine.add_join_text(TIMELINE).unwrap();
    let mut wa = WriteAround::new(engine, &["p|", "s|"]);
    for (user, poster) in [("ann", "bob"), ("ann", "liz"), ("cat", "bob")] {
        wa.put(
            &Key::from(format!("s|{user}|{poster}")),
            &Value::from_static(b"1"),
        );
    }
    for (poster, t) in [("bob", 100u64), ("liz", 110), ("bob", 120)] {
        wa.put(
            &Key::from(format!("p|{poster}|{t:010}")),
            &Value::from_static(b"tweet"),
        );
    }
    assert_eq!(wa.scan(&KeyRange::prefix("t|ann|")).len(), 3);
    assert_eq!(wa.scan(&KeyRange::prefix("t|cat|")).len(), 2);
    // DB-side delete flows through.
    wa.remove(&Key::from("p|bob|0000000100"));
    assert_eq!(wa.scan(&KeyRange::prefix("t|ann|")).len(), 2);
    assert!(wa.database().subscriber_count() >= 2);
}

/// A two-tier simulated cluster serves a Twip workload with the same
/// results as a single engine.
#[test]
fn distributed_matches_single_engine() {
    let graph = small_graph(0xd15);
    // Single-engine reference.
    let mut reference = Engine::new(EngineConfig::default());
    reference.add_join_text(TIMELINE).unwrap();
    // Cluster: base on 0, compute on 1.
    let part = Arc::new(TablePartition::new(ServerId(0)));
    let cfg = ClusterConfig::new(2, 1).with_partition(part, 2);
    let mut cluster = ClusterClient::simulated(SimHarness::new(&cfg, 0x5eed, 1))
        .with_read_router(Arc::new(SingleServer(ServerId(1))));
    cluster.add_join(TIMELINE).unwrap();

    let mut time = 0u64;
    for u in 0..graph.users() {
        for &p in graph.followees(u) {
            let key = format!("s|u{u:07}|u{p:07}");
            reference.put(key.clone(), "1");
            cluster.put(key, "1").unwrap();
        }
    }
    for i in 0..300u64 {
        time += 1;
        let poster = (i * 7) % graph.users() as u64;
        let key = format!("p|u{poster:07}|{time:010}");
        reference.put(key.clone(), "x");
        cluster.put(key, "x").unwrap();
    }
    for u in (0..graph.users()).step_by(7) {
        let range = KeyRange::prefix(format!("t|u{u:07}|"));
        let want = reference.scan(&range).pairs;
        let got = cluster.scan(range).unwrap();
        assert_eq!(got, want, "user {u} timeline diverged");
    }
}

/// `engine` served over TCP as a stand-alone `pequod-server` serves it:
/// the node of a one-node cluster.
fn serve(engine: Engine) -> ClusterServer {
    let addr = Some("127.0.0.1:0");
    ClusterServer::spawn(ClusterConfig::new(1, 1), 0, engine, addr).unwrap()
}

/// A client of `server`.
fn connect(server: &ClusterServer) -> ClusterClient {
    ClusterClient::connect(ClusterConfig::one_node(server.addr()))
}

/// The same engine logic works over real TCP.
#[test]
fn tcp_server_serves_newp_pages() {
    let mut engine = Engine::new_default();
    engine
        .add_joins_text(pequod::workloads::newp::NEWP_BASE_JOINS)
        .unwrap();
    engine
        .add_joins_text(pequod::workloads::newp::NEWP_PAGE_JOINS)
        .unwrap();
    let server = serve(engine);
    let mut c = connect(&server);
    c.put("article|n1|0001", "body").unwrap();
    c.put("comment|n1|0001|c1|n2", "hi").unwrap();
    c.put("vote|n1|0001|n9", "1").unwrap();
    let page = c.scan(KeyRange::prefix("page|n1|0001|")).unwrap();
    let keys: Vec<String> = page.iter().map(|(k, _)| k.to_string()).collect();
    assert_eq!(
        keys,
        vec![
            "page|n1|0001|a".to_string(),
            "page|n1|0001|c|c1|n2".to_string(),
            "page|n1|0001|r".to_string(),
        ]
    );
}

/// Memory-bounded serving over real sockets: a TCP node with a memory
/// cap (what `pequod-server --mem-limit-mb` configures) evicts under
/// load yet answers every request exactly like an unbounded node.
#[test]
fn tcp_servers_serve_memory_bounded() {
    let limit = MemoryLimit::new(24 * 1024);
    let drive = |c: &mut ClusterClient| -> Vec<Vec<(Key, Value)>> {
        c.add_join(TIMELINE).unwrap();
        for u in 0..40u32 {
            c.put(format!("s|u{u:07}|u0000099"), "1").unwrap();
        }
        for t in 0..40u64 {
            c.put(
                format!("p|u0000099|{t:010}"),
                "a tweet with some body to it",
            )
            .unwrap();
        }
        let mut reads = Vec::new();
        for _round in 0..2 {
            for u in 0..40u32 {
                reads.push(c.scan(KeyRange::prefix(format!("t|u{u:07}|"))).unwrap());
            }
        }
        reads
    };

    let unbounded = serve(Engine::new_default());
    let want = drive(&mut connect(&unbounded));

    let capped_cfg = EngineConfig::default().with_mem_limit(limit);
    let capped = serve(Engine::new(capped_cfg));
    let got = drive(&mut connect(&capped));
    assert_eq!(got, want, "capped TCP node diverged from unbounded");
    let metrics = (capped.telemetry())(false).to_pairs();
    let backend = |name| metric(&metrics, name).unwrap_or_else(|| panic!("no {name}"));
    assert!(
        backend("pequod_backend_js_evictions_total") > 0,
        "cap never triggered"
    );
    assert!(backend("pequod_backend_memory_bytes") <= limit.high_bytes as u64);
}

/// Eviction under memory pressure: computed ranges are dropped LRU-first
/// and recomputed on demand with identical results.
#[test]
fn eviction_and_recomputation_round_trip() {
    let mut engine = Engine::new(EngineConfig::default());
    engine.add_join_text(TIMELINE).unwrap();
    for u in 0..20 {
        engine.put(format!("s|u{u:07}|u0000099"), "1");
    }
    for t in 0..50u64 {
        engine.put(format!("p|u0000099|{t:010}"), "x");
    }
    let mut before = Vec::new();
    for u in 0..20 {
        before.push(engine.scan(&KeyRange::prefix(format!("t|u{u:07}|"))).pairs);
    }
    let evicted = engine.evict_to(engine.memory_bytes() / 3);
    assert!(evicted > 0);
    for u in 0..20 {
        let after = engine.scan(&KeyRange::prefix(format!("t|u{u:07}|"))).pairs;
        assert_eq!(after, before[u as usize], "user {u} lost data to eviction");
    }
}

/// Materialization modes agree on results (they differ only in cost).
#[test]
fn materialization_modes_agree() {
    let graph = small_graph(0xa9e);
    let mut engines: Vec<Engine> = [
        MaterializationMode::Dynamic,
        MaterializationMode::Full,
        MaterializationMode::None,
    ]
    .iter()
    .map(|mode| {
        let cfg = EngineConfig {
            materialization: *mode,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(cfg);
        e.add_join_text(TIMELINE).unwrap();
        e
    })
    .collect();
    let mut time = 0u64;
    for u in 0..graph.users() {
        for &p in graph.followees(u) {
            for e in engines.iter_mut() {
                e.put(format!("s|u{u:07}|u{p:07}"), "1");
            }
        }
    }
    for i in 0..200u64 {
        time += 1;
        for e in engines.iter_mut() {
            e.put(format!("p|u{:07}|{time:010}", (i * 13) % 250), "x");
        }
    }
    for u in (0..graph.users()).step_by(11) {
        let range = KeyRange::prefix(format!("t|u{u:07}|"));
        let a = engines[0].scan(&range).pairs;
        let b = engines[1].scan(&range).pairs;
        let c = engines[2].scan(&range).pairs;
        assert_eq!(a, b, "dynamic vs full diverged for user {u}");
        assert_eq!(a, c, "dynamic vs none diverged for user {u}");
    }
}
