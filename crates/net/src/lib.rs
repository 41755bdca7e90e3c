//! `pequod-net` — the distributed tier of Pequod (§2.4).
//!
//! Base data is partitioned across servers by a [`Partition`] function;
//! each base key has a *home server*. When server `S` reads a key range
//! homed at `H`, `H` returns the data and installs a subscription: later
//! updates at `H` are forwarded to `S`, which maintains an
//! eventually-consistent replica and keeps its computed data fresh
//! through the normal updater machinery.
//!
//! That server is not implemented here: it is [`pequod_core::Node`], one
//! transport-agnostic `handle(from, msg) -> out` state machine that
//! `pequod_core::ShardedEngine` runs on shard threads and this crate
//! runs on a simulated network. What this crate adds is the wire and
//! what carries it.
//!
//! Components:
//!
//! * [`Message`] — the RPC vocabulary (client ops + server-to-server
//!   subscription traffic).
//! * [`codec`] — a hand-rolled binary wire format with length-prefixed
//!   framing.
//! * [`ServerNode`] — `pequod_core::Node` under this tier's name; the
//!   [`server`] module maps its messages 1:1 onto [`Message`].
//! * [`SimCluster`] — a deterministic in-process network hosting
//!   `ServerNode`s for experiments (latency, notify jitter, per-class
//!   byte accounting, a deployment-wide invariant audit).
//! * [`ClusterClient`] — the unified `pequod_core::Client` surface over
//!   a cluster: commands are routed by the partition function and
//!   pipelined as one batched frame per destination server. Runs, ids,
//!   routing and the fold of the replies are `pequod_core::fanout`'s,
//!   the planner `pequod_core::ShardedHandle` and the sharded frontend
//!   host too; this crate adds only the wire (`Message::request` out,
//!   `Message::into_response` back).
//! * [`FrontendServer`] / [`TcpClient`] — the real socket transport:
//!   the tree's one serving loop (one epoll thread; TCP plus an
//!   optional unix-domain socket) and a blocking client. Whatever
//!   answers the frames is a [`Dispatch`] hosted on that thread: one
//!   single-threaded engine executed right there, a multi-core
//!   [`pequod_core::ShardedEngine`]
//!   ([`FrontendServer::spawn_sharded`], whose shards answer straight
//!   into the dispatcher's reply queue and wake the reactor — a server
//!   runs the reactor and the ticker and no other thread), or — through
//!   [`FrontendServer::spawn_dispatch`] — any other `handle(from, msg)
//!   → out` state machine, which is how `pequod_cluster` serves a
//!   replicated node (client connections and node-to-node links alike).
//!
//! The [`partition`] module re-exports `pequod_core::partition`: the
//! same key-routing functions place data on server processes here and
//! on in-process engine shards in `pequod_core::sharded`.

// Unsafe is denied crate-wide; the single exception is the `epoll(7)`
// FFI shim in `reactor::sys`, which carries `#[allow(unsafe_code)]`
// plus the SAFETY comments `cargo xtask audit` requires.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod frontend;
pub mod message;
mod outbuf;
pub mod partition;
pub mod reactor;
pub mod server;
pub mod sim;
pub mod swarm;
pub mod tcp;

pub use client::ClusterClient;
pub use frontend::{FrontendConfig, FrontendServer, FrontendStats, FrontendStatsSnapshot};
pub use message::Message;
pub use partition::{ComponentHashPartition, Partition, ServerId, SingleServer, TablePartition};
pub use reactor::{Conns, Dispatch, Poller, Waker};
pub use server::{Endpoint, NodeStats, ServerNode};
pub use sim::{FaultStats, LinkFaults, SimCluster, SimConfig, SimNet, TrafficStats};
pub use swarm::{Swarm, SwarmConfig, SwarmReport};
pub use tcp::{ClientError, RetryPolicy, TcpClient};

#[cfg(test)]
mod tests {
    use super::*;
    use pequod_core::{Engine, EngineConfig};
    use pequod_store::{Key, KeyRange};
    use std::sync::Arc;

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

    /// Base data homed on server 0; timelines computed on server 1.
    fn two_server_cluster() -> SimCluster {
        let part = Arc::new(TablePartition::new(ServerId(0)));
        let nodes = vec![
            ServerNode::new(
                ServerId(0),
                Engine::new(EngineConfig::default()),
                part.clone(),
                &["p|", "s|"],
            ),
            ServerNode::new(
                ServerId(1),
                Engine::new(EngineConfig::default()),
                part,
                &["p|", "s|"],
            ),
        ];
        let mut cluster = SimCluster::new(SimConfig::default(), nodes);
        cluster.add_joins_everywhere(TIMELINE);
        cluster
    }

    #[test]
    fn remote_timeline_fetches_and_subscribes() {
        let mut c = two_server_cluster();
        c.put(ServerId(0), "s|ann|bob", "1");
        c.put(ServerId(0), "p|bob|0000000100", "Hi");

        // Compute server 1 has nothing; the scan triggers subscriptions.
        let tl = c.scan(ServerId(1), KeyRange::prefix("t|ann|"));
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0].0, Key::from("t|ann|0000000100|bob"));
        assert!(c.node(ServerId(0)).subscriber_count() >= 2);
        assert!(c.node(ServerId(1)).stats.subs_established >= 2);
    }

    #[test]
    fn updates_propagate_via_notify() {
        let mut c = two_server_cluster();
        c.put(ServerId(0), "s|ann|bob", "1");
        c.put(ServerId(0), "p|bob|0000000100", "Hi");
        c.scan(ServerId(1), KeyRange::prefix("t|ann|")); // warm + subscribe

        let fetches = c.node(ServerId(1)).stats.subs_established;
        // New post written to the home server flows to the replica.
        c.put(ServerId(0), "p|bob|0000000120", "again");
        let tl = c.scan(ServerId(1), KeyRange::prefix("t|ann|"));
        assert_eq!(tl.len(), 2);
        assert_eq!(
            c.node(ServerId(1)).stats.subs_established,
            fetches,
            "no refetch: updates arrived by notify"
        );
        assert!(c.node(ServerId(1)).stats.notifies_applied >= 1);

        // Removal propagates too.
        c.remove(ServerId(0), "p|bob|0000000100");
        let tl = c.scan(ServerId(1), KeyRange::prefix("t|ann|"));
        assert_eq!(tl.len(), 1);
    }

    #[test]
    fn writes_forward_to_home_server() {
        let mut c = two_server_cluster();
        // Write sent to the wrong server is forwarded home.
        c.put(ServerId(1), "p|bob|0000000100", "Hi");
        assert_eq!(c.node(ServerId(1)).stats.forwards, 1);
        c.put(ServerId(0), "s|ann|bob", "1");
        let tl = c.scan(ServerId(1), KeyRange::prefix("t|ann|"));
        assert_eq!(tl.len(), 1);
    }

    #[test]
    fn replicas_on_multiple_servers_stay_fresh() {
        // Three servers: home + two compute replicas of the same range
        // (replication-based load balancing, §2.4).
        let part = Arc::new(TablePartition::new(ServerId(0)));
        let nodes = (0..3)
            .map(|i| {
                ServerNode::new(
                    ServerId(i),
                    Engine::new(EngineConfig::default()),
                    part.clone(),
                    &["p|", "s|"],
                )
            })
            .collect();
        let mut c = SimCluster::new(SimConfig::default(), nodes);
        c.add_joins_everywhere(TIMELINE);
        c.put(ServerId(0), "s|ann|bob", "1");
        c.put(ServerId(0), "p|bob|0000000100", "Hi");
        assert_eq!(c.scan(ServerId(1), KeyRange::prefix("t|ann|")).len(), 1);
        assert_eq!(c.scan(ServerId(2), KeyRange::prefix("t|ann|")).len(), 1);
        // An update fans out to both replicas.
        c.put(ServerId(0), "p|bob|0000000120", "again");
        assert_eq!(c.scan(ServerId(1), KeyRange::prefix("t|ann|")).len(), 2);
        assert_eq!(c.scan(ServerId(2), KeyRange::prefix("t|ann|")).len(), 2);
    }

    #[test]
    fn eventual_consistency_under_notify_jitter() {
        let part = Arc::new(TablePartition::new(ServerId(0)));
        let nodes = (0..2)
            .map(|i| {
                ServerNode::new(
                    ServerId(i),
                    Engine::new(EngineConfig::default()),
                    part.clone(),
                    &["p|", "s|"],
                )
            })
            .collect();
        let mut c = SimCluster::new(
            SimConfig {
                notify_jitter_chance: 0.5,
                notify_jitter: 50,
                ..SimConfig::default()
            },
            nodes,
        );
        c.add_joins_everywhere(TIMELINE);
        c.put(ServerId(0), "s|ann|bob", "1");
        c.scan(ServerId(1), KeyRange::prefix("t|ann|"));
        for t in 0..20u64 {
            c.put(ServerId(0), format!("p|bob|{:010}", 100 + t), "x");
        }
        // After quiescence every update has arrived, jitter or not.
        c.run_until_quiet();
        assert_eq!(c.scan(ServerId(1), KeyRange::prefix("t|ann|")).len(), 20);
    }

    #[test]
    fn component_hash_partition_colocates_user_data() {
        let part = Arc::new(ComponentHashPartition {
            component: 1,
            servers: 2,
        });
        let nodes = (0..2)
            .map(|i| {
                ServerNode::new(
                    ServerId(i),
                    Engine::new(EngineConfig::default()),
                    part.clone(),
                    &["p|", "s|"],
                )
            })
            .collect();
        let mut c = SimCluster::new(SimConfig::default(), nodes);
        c.add_joins_everywhere(TIMELINE);
        // Route each write to its home server, as the client library would.
        for (k, v) in [("s|ann|bob", "1"), ("p|bob|0000000100", "Hi")] {
            let home = part.home_of(&Key::from(k));
            c.put(home, k, v);
        }
        // Read ann's timeline from her own server.
        let tserver = part.server_for_component(b"ann");
        let tl = c.scan(tserver, KeyRange::prefix("t|ann|"));
        assert_eq!(tl.len(), 1);
    }

    #[test]
    fn traffic_accounting_separates_classes() {
        let mut c = two_server_cluster();
        c.put(ServerId(0), "s|ann|bob", "1");
        c.put(ServerId(0), "p|bob|0000000100", "Hi");
        let before = c.traffic.subscription_bytes;
        c.scan(ServerId(1), KeyRange::prefix("t|ann|"));
        assert!(c.traffic.subscription_bytes > before);
        assert!(c.traffic.client_bytes > 0);
        assert!(c.traffic.delivered > 4);
    }

    #[test]
    fn tcp_round_trip() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.add_join_text(TIMELINE).unwrap();
        let server =
            FrontendServer::spawn("127.0.0.1:0", engine, FrontendConfig::default()).unwrap();
        let mut client = TcpClient::connect(server.addr()).unwrap();

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
            Err(ClientError::Remote(_))
        ));
    }

    #[test]
    fn tcp_sharded_round_trip() {
        use pequod_core::{Client, ShardedEngine};
        let part = Arc::new(ComponentHashPartition {
            component: 1,
            servers: 2,
        });
        let mut sharded = ShardedEngine::new(2, EngineConfig::default(), part, &["p|", "s|"]);
        sharded.add_join(TIMELINE).unwrap();
        let server =
            FrontendServer::spawn_sharded("127.0.0.1:0", sharded, FrontendConfig::default())
                .unwrap();
        assert!(server.engine().is_none());
        assert!(server.sharded().is_some());
        let mut client = TcpClient::connect(server.addr()).unwrap();

        client.put("s|ann|bob", "1").unwrap();
        client.put("p|bob|0000000100", "Hi").unwrap();
        // Timeline computed across shards, served over the wire.
        assert_eq!(client.count(KeyRange::prefix("t|ann|")).unwrap(), 1);
        let tl = client.scan(KeyRange::prefix("t|ann|")).unwrap();
        assert_eq!(tl.len(), 1);
        assert_eq!(
            client.get("t|ann|0000000100|bob").unwrap().as_deref(),
            Some(&b"Hi"[..])
        );
        client.remove("p|bob|0000000100").unwrap();
        assert_eq!(client.count(KeyRange::prefix("t|ann|")).unwrap(), 0);
        assert!(matches!(
            client.add_join("nonsense"),
            Err(ClientError::Remote(_))
        ));
    }

    #[test]
    fn tcp_sharded_multiple_clients() {
        use pequod_core::ShardedEngine;
        let part = Arc::new(ComponentHashPartition {
            component: 1,
            servers: 4,
        });
        let sharded = ShardedEngine::new(4, EngineConfig::default(), part, &["k|"]);
        let server =
            FrontendServer::spawn_sharded("127.0.0.1:0", sharded, FrontendConfig::default())
                .unwrap();
        let addr = server.addr();
        let writers: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TcpClient::connect(addr).unwrap();
                    for j in 0..25 {
                        c.put(format!("k|{i}|{j:03}"), "v").unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        // Each writer's keys co-locate on one shard; count each prefix.
        let mut c = TcpClient::connect(addr).unwrap();
        let total: u64 = (0..4)
            .map(|i| c.count(KeyRange::prefix(format!("k|{i}|"))).unwrap())
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn tcp_multiple_clients() {
        let engine = Engine::new(EngineConfig::default());
        let server =
            FrontendServer::spawn("127.0.0.1:0", engine, FrontendConfig::default()).unwrap();
        let addr = server.addr();
        let writers: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TcpClient::connect(addr).unwrap();
                    for j in 0..25 {
                        c.put(format!("k|{i}|{j:03}"), "v").unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let mut c = TcpClient::connect(addr).unwrap();
        assert_eq!(c.scan(KeyRange::prefix("k|")).unwrap().len(), 100);
    }
}
