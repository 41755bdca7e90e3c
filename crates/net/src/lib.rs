//! `pequod-net` — the wire and what carries it.
//!
//! Pequod's servers (§2.4) are not implemented here. The partitioned
//! server is [`pequod_core::Node`], one transport-agnostic
//! `handle(from, msg) -> out` state machine that
//! `pequod_core::ShardedEngine` runs on shard threads and
//! `pequod_cluster::ClusterNode` runs, with replication around it, as
//! one process of a deployment. This crate adds the wire and what
//! carries it.
//!
//! Components:
//!
//! * [`Message`] — the RPC vocabulary (client ops, server-to-server
//!   subscription traffic, replication traffic).
//! * [`codec`] — a hand-rolled binary wire format with length-prefixed
//!   framing.
//! * [`SimNet`] — a deterministic in-process message fabric: per-hop
//!   latency, seeded per-link faults and `Notify` jitter, and wire
//!   bytes counted per message class. `pequod_cluster::SimHarness`
//!   runs whole clusters on it.
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
//! * [`Swarm`] — many concurrent TCP clients driving one server, for
//!   load tests.

// Unsafe is denied crate-wide; the single exception is the `epoll(7)`
// FFI shim in `reactor::sys`, which carries `#[allow(unsafe_code)]`
// plus the SAFETY comments `cargo xtask audit` requires.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod frontend;
pub mod message;
mod outbuf;
pub mod reactor;
pub mod sim;
pub mod swarm;
pub mod tcp;

pub use frontend::{FrontendConfig, FrontendServer, FrontendStats, FrontendStatsSnapshot};
pub use message::Message;
pub use reactor::{Conns, Dispatch, Poller, Waker};
pub use sim::{FaultStats, LinkFaults, SimNet, TrafficStats};
pub use swarm::{Swarm, SwarmConfig, SwarmReport};
pub use tcp::{ClientError, RetryPolicy, TcpClient};

#[cfg(test)]
mod tests {
    use super::*;
    use pequod_core::partition::ComponentHashPartition;
    use pequod_core::{Engine, EngineConfig};
    use pequod_store::KeyRange;
    use std::sync::Arc;

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

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
