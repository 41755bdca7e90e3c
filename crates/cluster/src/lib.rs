//! Pequod's deployment across processes: the §2.4 partitioned server,
//! with primary/follower slots, epoch failover, follower catch-up and
//! live slot migration around it.
//!
//! Every process runs one [`Node`] — the §2.4 Subscribe/Notify state
//! machine, speaking the wire [`Message`](pequod_net::Message) like
//! everything else here — inside a [`ClusterNode`] that
//! replicates the slots it holds. A read is
//! answered wherever it arrives: base data of slots held elsewhere is
//! subscribed at their primaries, so joins across slots are computed
//! where they are read and kept fresh by notifications, across
//! failovers and migrations. With one replica per slot this is the
//! paper's deployment exactly — and the way one machine uses all its
//! cores: one process per core; more replicas add the availability the
//! paper leaves out.
//!
//! - [`Node`] (`subscription.rs`) — one server of a partitioned
//!   deployment: Subscribe/Notify, fetch groups, park and restart
//!   (§2.4, §3.3). `handle(peer, msg, out)`, no I/O.
//! - [`ClusterConfig`] (`config.rs`) — the static cluster description
//!   (`nodes.toml`): node list, replication factor, the partition of
//!   keys into slots, timing.
//! - [`ClusterNode`] (`node.rs`) — the per-process state machine.
//!   Transport-agnostic: `handle(peer, msg) -> outbox` plus a
//!   logical-clock `tick`.
//! - [`SimHarness`] (`sim.rs`) — a deterministic in-memory cluster over
//!   [`SimNet`], a seeded message fabric with per-link faults
//!   ([`LinkFaults`]), `Notify` jitter and per-class wire bytes, plus
//!   per-node busy time; used by the protocol tests, the conformance
//!   suite and the Figure 10 experiment.
//! - [`ClusterServer`] (`server.rs`) — the TCP deployment: the node
//!   hosted on `pequod_net`'s reactor thread (a
//!   [`pequod_net::Dispatch`]; client connections and peer links are
//!   both reactor connections) and one dialer thread per peer with
//!   bounded backoff.
//! - [`ClusterClient`] (`client.rs`) — the one client, of a stand-alone
//!   server ([`ClusterConfig::one_node`]) and of a cluster alike: the
//!   unified [`pequod_core::Client`] on sockets or on a `SimHarness`,
//!   batches cut into runs of one frame per node, writes sent to their
//!   slot's primary as `NotPrimary` redirects teach it. It resends a
//!   request only on `NotPrimary` or an I/O failure. The write-around
//!   deployment (§2) is one of its clusters:
//!   [`ClusterClient::write_around`] puts a cache node in front of a
//!   database node that notifies it of each write.
//!
//! See `docs/REPLICATION.md` for the protocol walk-through and the
//! guarantees per fsync policy.

#![forbid(unsafe_code)]
// The serving-path rules, on non-test code (docs/CORRECTNESS.md): no
// unwrap, expect, panic! or todo!, and nothing clippy.toml disallows.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod node;
pub mod server;
pub mod sim;
pub mod subscription;

pub use client::{ClusterClient, ClusterClientError};
pub use config::{ClusterConfig, ClusterTiming, NodeSpec};
pub use node::{foreign_reserved_key, ClusterNode, ClusterPeer, ClusterStats, NO_CLEAN_ADOPT};
pub use server::ClusterServer;
pub use sim::{FaultStats, LinkFaults, SimHarness, SimNet, TrafficStats};
pub use subscription::{audit_deployment, Node, NodeAudit, NodeStats};

#[cfg(test)]
mod tests {
    use super::*;
    use pequod_core::partition::{ComponentHashPartition, Partition, ServerId, TablePartition};
    use pequod_core::{Client, Command, Engine, EngineConfig, MaterializationMode, Response};
    use pequod_net::Message;
    use pequod_store::{Key, KeyRange, Value};
    use std::sync::Arc;

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

    /// `n` nodes, one replica of each of `n` slots, keys placed by
    /// `part`, the timeline join on every node.
    fn cluster(n: u32, part: impl Partition + 'static) -> SimHarness {
        let cfg = ClusterConfig::new(n, 1).with_partition(Arc::new(part), n);
        let mut sim = SimHarness::new(&cfg, 0x5eed, 1);
        for node in 0..n {
            let text = TIMELINE.to_string();
            call(&mut sim, node, Message::AddJoin { id: 0, text });
        }
        sim
    }

    /// Base data homed on node 0; timelines computed on node 1.
    fn two_server_cluster() -> SimHarness {
        cluster(2, TablePartition::new(ServerId(0)))
    }

    /// Sends `msg` to `node` as client 0 and returns its reply's pairs.
    fn call(sim: &mut SimHarness, node: u32, msg: Message) -> Vec<(Key, Value)> {
        match sim.request(0, node, msg, 1_000) {
            Message::Reply {
                pairs, error: None, ..
            } => pairs,
            other => panic!("request failed: {other:?}"),
        }
    }

    fn put(sim: &mut SimHarness, node: u32, key: impl Into<Key>, value: &str) {
        let (key, value) = (key.into(), Value::from(value.as_bytes().to_vec()));
        call(sim, node, Message::Put { id: 0, key, value });
    }

    fn scan(sim: &mut SimHarness, node: u32, range: KeyRange) -> Vec<(Key, Value)> {
        call(sim, node, Message::Scan { id: 0, range })
    }

    #[test]
    fn remote_timeline_fetches_and_subscribes() {
        let mut c = two_server_cluster();
        put(&mut c, 0, "s|ann|bob", "1");
        put(&mut c, 0, "p|bob|0000000100", "Hi");

        // Compute node 1 has nothing; the scan triggers subscriptions.
        let tl = scan(&mut c, 1, KeyRange::prefix("t|ann|"));
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0].0, Key::from("t|ann|0000000100|bob"));
        assert!(c.node(0).subscriber_count() >= 2);
        assert!(c.node(1).node_stats().subs_established >= 2);
    }

    #[test]
    fn updates_propagate_via_notify() {
        let mut c = two_server_cluster();
        put(&mut c, 0, "s|ann|bob", "1");
        put(&mut c, 0, "p|bob|0000000100", "Hi");
        scan(&mut c, 1, KeyRange::prefix("t|ann|")); // warm + subscribe

        let fetches = c.node(1).node_stats().subs_established;
        // New post written to the home node flows to the replica.
        put(&mut c, 0, "p|bob|0000000120", "again");
        let tl = scan(&mut c, 1, KeyRange::prefix("t|ann|"));
        assert_eq!(tl.len(), 2);
        assert_eq!(
            c.node(1).node_stats().subs_established,
            fetches,
            "no refetch: updates arrived by notify"
        );
        assert!(c.node(1).node_stats().notifies_applied >= 1);

        // Removal propagates too.
        call(
            &mut c,
            0,
            Message::Remove {
                id: 0,
                key: Key::from("p|bob|0000000100"),
            },
        );
        let tl = scan(&mut c, 1, KeyRange::prefix("t|ann|"));
        assert_eq!(tl.len(), 1);

        // Each node's `Metrics` reply carries its `Node`'s counters.
        for node in 0..2 {
            let metrics = Message::Metrics {
                id: 0,
                flight: false,
            };
            let pairs = Message::parse_metrics(call(&mut c, node, metrics));
            let s = c.node(node).node_stats();
            for (name, want) in [
                ("commands", s.commands),
                ("parked", s.parked),
                ("subs_granted", s.subs_granted),
                ("subs_established", s.subs_established),
                ("notifies_sent", s.notifies_sent),
                ("notifies_applied", s.notifies_applied),
            ] {
                let got = pequod_telemetry::metric(&pairs, &format!("pequod_node_{name}_total"));
                assert_eq!(got, Some(want), "node {node}: {name}");
            }
        }
    }

    /// A write sent to a node that is not its slot's primary is
    /// redirected there, not applied; sent home, it is read anywhere.
    #[test]
    fn writes_forward_to_home_server() {
        let mut c = two_server_cluster();
        let key = Key::from("p|bob|0000000100");
        let value = Value::from_static(b"Hi");
        let id = c.client_send(0, 1, Message::Put { id: 0, key, value });
        c.run_for(5);
        let replies = c.take_replies(0);
        assert!(
            matches!(replies[..], [Message::NotPrimary { id: rid, node: 0, .. }] if rid == id),
            "{replies:?}"
        );
        assert_eq!(c.node(1).stats.redirects, 1);
        put(&mut c, 0, "p|bob|0000000100", "Hi");
        put(&mut c, 0, "s|ann|bob", "1");
        let tl = scan(&mut c, 1, KeyRange::prefix("t|ann|"));
        assert_eq!(tl.len(), 1);
    }

    #[test]
    fn replicas_on_multiple_servers_stay_fresh() {
        // Three nodes: home + two compute replicas of the same range
        // (replication-based load balancing, §2.4).
        let mut c = cluster(3, TablePartition::new(ServerId(0)));
        put(&mut c, 0, "s|ann|bob", "1");
        put(&mut c, 0, "p|bob|0000000100", "Hi");
        assert_eq!(scan(&mut c, 1, KeyRange::prefix("t|ann|")).len(), 1);
        assert_eq!(scan(&mut c, 2, KeyRange::prefix("t|ann|")).len(), 1);
        // An update fans out to both replicas.
        put(&mut c, 0, "p|bob|0000000120", "again");
        assert_eq!(scan(&mut c, 1, KeyRange::prefix("t|ann|")).len(), 2);
        assert_eq!(scan(&mut c, 2, KeyRange::prefix("t|ann|")).len(), 2);
    }

    #[test]
    fn eventual_consistency_under_notify_jitter() {
        let mut c = two_server_cluster();
        c.net.set_notify_jitter(0.5, 50);
        put(&mut c, 0, "s|ann|bob", "1");
        scan(&mut c, 1, KeyRange::prefix("t|ann|"));
        for t in 0..20u64 {
            put(&mut c, 0, format!("p|bob|{:010}", 100 + t), "x");
        }
        // After quiescence every update has arrived, jitter or not.
        c.run_until_quiet();
        assert_eq!(scan(&mut c, 1, KeyRange::prefix("t|ann|")).len(), 20);
    }

    #[test]
    fn component_hash_partition_colocates_user_data() {
        let part = ComponentHashPartition {
            component: 1,
            servers: 2,
        };
        let mut c = cluster(2, part);
        // Route each write to its home node, as the client library would.
        for (k, v) in [("s|ann|bob", "1"), ("p|bob|0000000100", "Hi")] {
            let home = part.home_of(&Key::from(k));
            put(&mut c, home.0, k, v);
        }
        // Read ann's timeline from her own node.
        let tserver = part.server_for_component(b"ann");
        let tl = scan(&mut c, tserver.0, KeyRange::prefix("t|ann|"));
        assert_eq!(tl.len(), 1);
    }

    /// A node that evicts a replicated range tells its home, which
    /// stops notifying it: the home's subscriber list and notification
    /// count stop growing once the subscriber no longer holds the range.
    #[test]
    fn an_evicted_replica_unsubscribes_at_its_home() {
        use pequod_core::MemoryLimit;
        // Posts homed on node 0, everything else on node 1, which reads
        // the timelines under a 16 KiB cap.
        let part = TablePartition::new(ServerId(1)).route("p|", ServerId(0));
        let cfg = ClusterConfig::new(2, 1).with_partition(Arc::new(part), 2);
        let capped = EngineConfig::default().with_mem_limit(MemoryLimit::new(16 * 1024));
        let engines = vec![Engine::new_default(), Engine::new(capped)];
        let mut c = SimHarness::with_engines(&cfg, engines, 0x5eed, 1);
        for node in 0..2 {
            let text = TIMELINE.to_string();
            call(&mut c, node, Message::AddJoin { id: 0, text });
        }
        put(&mut c, 1, "s|ann|bob", "1");
        put(&mut c, 0, "p|bob|0000000100", "Hi");
        assert_eq!(scan(&mut c, 1, KeyRange::prefix("t|ann|")).len(), 1);
        assert_eq!(c.node(0).subscriber_count(), 1);
        // Authoritative rows on node 1 push it past its budget until the
        // p| replica goes, then leave again.
        let filler: Vec<String> = (0..32).map(|i| format!("misc|{i:03}")).collect();
        for key in &filler {
            put(&mut c, 1, key.as_str(), &"x".repeat(1024));
        }
        for key in &filler {
            let key = Key::from(key.as_str());
            call(&mut c, 1, Message::Remove { id: 0, key });
        }
        c.run_until_quiet();
        assert!(c.node(1).engine.engine_stats().base_evictions > 0);
        assert_eq!(
            c.node(0).subscriber_count(),
            0,
            "the home still serves the evictor"
        );
        let sent = c.node(0).node_stats().notifies_sent;
        for t in 0..5u64 {
            put(&mut c, 0, format!("p|bob|{:010}", 200 + t), "x");
        }
        assert_eq!(c.node(0).node_stats().notifies_sent, sent);
        // The next read subscribes again and sees every post.
        assert_eq!(scan(&mut c, 1, KeyRange::prefix("t|ann|")).len(), 6);
        assert_eq!(c.node(0).subscriber_count(), 1);
        c.run_until_quiet();
        assert_eq!(c.check_invariants(), Vec::<String>::new());
    }

    #[test]
    fn traffic_accounting_separates_classes() {
        let mut c = two_server_cluster();
        put(&mut c, 0, "s|ann|bob", "1");
        put(&mut c, 0, "p|bob|0000000100", "Hi");
        let before = c.net.traffic.subscription_bytes;
        scan(&mut c, 1, KeyRange::prefix("t|ann|"));
        assert!(c.net.traffic.subscription_bytes > before);
        assert!(c.net.traffic.client_bytes > 0);
        assert!(c.net.stats.delivered > 4);
    }

    /// `engine` as the node of a one-node cluster on an ephemeral port:
    /// what a stand-alone `pequod-server` serves.
    fn one_node(engine: pequod_core::Engine) -> ClusterServer {
        let addr = Some("127.0.0.1:0");
        ClusterServer::spawn(ClusterConfig::new(1, 1), 0, engine, addr).unwrap()
    }

    /// A client of the one-node server at `addr`.
    fn client(addr: std::net::SocketAddr) -> ClusterClient {
        ClusterClient::connect(ClusterConfig::one_node(addr))
    }

    #[test]
    fn tcp_round_trip() {
        let mut engine = pequod_core::Engine::new_default();
        engine.add_join_text(TIMELINE).unwrap();
        let server = one_node(engine);
        let mut client = client(server.addr());

        client.put("s|ann|bob", "1").unwrap();
        client.put("p|bob|0000000100", "Hi").unwrap();
        let tl = client.scan(KeyRange::prefix("t|ann|")).unwrap();
        assert_eq!(tl.len(), 1);
        assert_eq!(&tl[0].1[..], b"Hi");
        assert_eq!(
            client.get("t|ann|0000000100|bob").unwrap().as_deref(),
            Some(&b"Hi"[..])
        );
        client.remove("p|bob|0000000100").unwrap();
        assert!(client.scan(KeyRange::prefix("t|ann|")).unwrap().is_empty());

        // Joins can be installed over the wire too.
        client
            .add_join("karma|<a> = count vote|<a>|<id>|<v>")
            .unwrap();
        client.put("vote|kat|1|ann", "1").unwrap();
        assert_eq!(client.get("karma|kat").unwrap().as_deref(), Some(&b"1"[..]));
        // Bad join text returns a remote error, not a hang.
        assert!(matches!(
            client.add_join("nonsense"),
            Err(ClusterClientError::Remote(_))
        ));
    }

    #[test]
    fn tcp_multiple_clients() {
        let server = one_node(pequod_core::Engine::new_default());
        let addr = server.addr();
        let writers: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = client(addr);
                    for j in 0..25 {
                        c.put(format!("k|{i}|{j:03}"), "v").unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let mut c = client(addr);
        assert_eq!(c.scan(KeyRange::prefix("k|")).unwrap().len(), 100);
    }

    // The write-around deployment end to end, through the `Client` API
    // and the counters of its two nodes.

    fn twip() -> ClusterClient {
        let mut engine = Engine::new(EngineConfig::default());
        engine.add_join_text(TIMELINE).unwrap();
        ClusterClient::write_around(engine, &["p|", "s|"])
    }

    /// Node `id` of a write-around deployment: 0 the cache, 1 the
    /// database.
    fn wa_node(wa: &mut ClusterClient, id: u32) -> &mut ClusterNode {
        wa.sim_mut().unwrap().node(id)
    }

    fn db_put(wa: &mut ClusterClient, key: &str, value: &'static str) {
        Client::put(wa, &Key::from(key), &Value::from_static(value.as_bytes()));
    }

    fn wa_scan(wa: &mut ClusterClient, prefix: &str) -> Vec<(Key, Value)> {
        Client::scan(wa, &KeyRange::prefix(prefix))
    }

    #[test]
    fn write_around_timeline_end_to_end() {
        let mut wa = twip();

        // Application writes go to the database only.
        db_put(&mut wa, "s|ann|bob", "1");
        db_put(&mut wa, "p|bob|0000000100", "Hi");
        assert_eq!(wa_node(&mut wa, 0).backend_stats().keys, 0);

        // A timeline read pulls base data from the database and computes.
        assert_eq!(wa_scan(&mut wa, "t|ann|").len(), 1);
        let fetches = wa_node(&mut wa, 0).node_stats().subs_established;
        assert!(fetches >= 2); // subscriptions + posts

        // A later database write is forwarded by a Notify and
        // incrementally maintained — no further fetches.
        db_put(&mut wa, "p|bob|0000000120", "again");
        assert_eq!(wa_scan(&mut wa, "t|ann|").len(), 2);
        assert_eq!(wa_node(&mut wa, 0).node_stats().subs_established, fetches);
    }

    #[test]
    fn write_around_deletion_propagates() {
        let mut wa = twip();
        db_put(&mut wa, "s|ann|bob", "1");
        db_put(&mut wa, "p|bob|0000000100", "Hi");
        assert_eq!(wa_scan(&mut wa, "t|ann|").len(), 1);
        Client::remove(&mut wa, &Key::from("p|bob|0000000100"));
        assert_eq!(wa_scan(&mut wa, "t|ann|").len(), 0);
    }

    #[test]
    fn client_api_batches_and_counts_server_side() {
        let mut wa = twip();
        let responses = wa.execute_batch(vec![
            Command::Put(Key::from("s|ann|bob"), Value::from_static(b"1")),
            Command::Put(Key::from("p|bob|0000000100"), Value::from_static(b"Hi")),
            // A read inside the batch observes the batch's own writes.
            Command::Count(KeyRange::prefix("t|ann|")),
            Command::Get(Key::from("t|ann|0000000100|bob")),
        ]);
        assert_eq!(responses[0], Response::Ok);
        assert_eq!(responses[2], Response::Count(1));
        assert_eq!(
            responses[3],
            Response::Value(Some(Value::from_static(b"Hi")))
        );
        // A write-only batch has reached the cache when it returns.
        let applied = wa_node(&mut wa, 0).node_stats().notifies_applied;
        wa.execute_batch(vec![Command::Put(
            Key::from("p|bob|0000000120"),
            Value::from_static(b"again"),
        )]);
        assert_eq!(
            wa_node(&mut wa, 0).node_stats().notifies_applied,
            applied + 1
        );
        assert_eq!(Client::count(&mut wa, &KeyRange::prefix("t|ann|")), 2);
    }

    /// The database homes base tables and nothing else: the timeline
    /// join the client installs on both nodes stays inert there, even
    /// with the cache materializing every join in full, and a write to
    /// a database table leaves no row in the cache until a read needs it.
    #[test]
    fn the_write_around_database_never_computes() {
        let full = EngineConfig {
            materialization: MaterializationMode::Full,
            ..EngineConfig::default()
        };
        let mut reference = Engine::new(full.clone());
        let mut wa = ClusterClient::write_around(Engine::new(full), &["p|", "s|"]);
        let put = |key: &str, value: &'static str| {
            Command::Put(Key::from(key), Value::from_static(value.as_bytes()))
        };
        let writes = vec![
            Command::AddJoin(TIMELINE.to_string()),
            put("s|ann|bob", "1"),
            put("s|ann|liz", "1"),
            put("s|cat|bob", "1"),
            put("p|bob|0000000100", "Hi"),
            put("p|liz|0000000110", "hello"),
        ];
        assert_eq!(
            wa.execute_batch(writes.clone()),
            reference.execute_batch(writes)
        );
        assert_eq!(wa_node(&mut wa, 0).backend_stats().keys, 0);
        let reads = vec![
            Command::Scan(KeyRange::prefix("t|ann|")),
            Command::Count(KeyRange::prefix("t|cat|")),
            put("p|bob|0000000120", "again"),
            Command::Remove(Key::from("p|liz|0000000110")),
            Command::Scan(KeyRange::prefix("t|ann|")),
            Command::Get(Key::from("t|cat|0000000120|bob")),
            Command::Count(KeyRange::prefix("t|")),
        ];
        assert_eq!(
            wa.execute_batch(reads.clone()),
            reference.execute_batch(reads)
        );
        assert_eq!(wa_node(&mut wa, 1).engine.materialized_ranges(), 0);
        assert!(wa_node(&mut wa, 0).engine.materialized_ranges() > 0);
    }

    #[test]
    fn write_around_point_reads() {
        let engine = Engine::new(EngineConfig::default());
        let mut wa = ClusterClient::write_around(engine, &["acct|"]);
        db_put(&mut wa, "acct|ann", "1000");
        let get = |wa: &mut ClusterClient, key: &str| Client::get(wa, &Key::from(key));
        assert_eq!(get(&mut wa, "acct|ann").as_deref(), Some(&b"1000"[..]));
        assert_eq!(get(&mut wa, "acct|zed"), None);
        // Cached now: a database update still reaches the cache by notify.
        db_put(&mut wa, "acct|ann", "900");
        assert_eq!(get(&mut wa, "acct|ann").as_deref(), Some(&b"900"[..]));
        assert_eq!(wa_node(&mut wa, 0).node_stats().notifies_applied, 1);
    }
}
