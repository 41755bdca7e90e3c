//! Pequod's deployment across processes: the §2.4 partitioned server,
//! with primary/follower slots, epoch failover, follower catch-up and
//! live slot migration around it.
//!
//! Every process runs one [`pequod_core::Node`] — the §2.4
//! Subscribe/Notify state machine — inside a [`ClusterNode`] that
//! replicates the slots it holds. A read is
//! answered wherever it arrives: base data of slots held elsewhere is
//! subscribed at their primaries, so joins across slots are computed
//! where they are read and kept fresh by notifications, across
//! failovers and migrations. With one replica per slot this is the
//! paper's deployment exactly — and the way one machine uses all its
//! cores: one process per core; more replicas add the availability the
//! paper leaves out.
//!
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
//!   batches planned by `pequod_core::fanout`, writes sent to their
//!   slot's primary as `NotPrimary` redirects teach it. It resends a
//!   request only on `NotPrimary` or an I/O failure.
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

pub use client::{ClusterClient, ClusterClientError};
pub use config::{ClusterConfig, ClusterTiming, NodeSpec};
pub use node::{foreign_reserved_key, ClusterNode, ClusterPeer, ClusterStats, NO_CLEAN_ADOPT};
pub use server::ClusterServer;
pub use sim::{FaultStats, LinkFaults, SimHarness, SimNet, TrafficStats};

#[cfg(test)]
mod tests {
    use super::*;
    use pequod_core::partition::{ComponentHashPartition, Partition, ServerId, TablePartition};
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
        use pequod_core::{Engine, EngineConfig, MemoryLimit};
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
}
