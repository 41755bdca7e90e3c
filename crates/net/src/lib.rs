//! `pequod-net` — the wire and what carries it.
//!
//! Pequod's servers (§2.4) are not implemented here. The partitioned
//! server is [`pequod_core::Node`], one transport-agnostic
//! `handle(from, msg) -> out` state machine that
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
//!   single-threaded engine executed right there, or — through
//!   [`FrontendServer::spawn_dispatch`] — any other `handle(from, msg)
//!   → out` state machine, which is how `pequod_cluster` serves a
//!   node (client connections and node-to-node links alike).
//! * [`Swarm`] — many concurrent TCP clients driving one server, for
//!   load tests.

// Unsafe is denied crate-wide; the single exception is the `epoll(7)`
// FFI shim in `reactor::sys`, whose items carry
// `#[expect(unsafe_code, reason = …)]` and whose every unsafe block a
// `SAFETY:` comment (clippy's `undocumented_unsafe_blocks`).
#![deny(unsafe_code)]
// The serving-path rules, on non-test code (docs/CORRECTNESS.md): no
// unwrap, expect, panic! or todo!, and nothing clippy.toml disallows.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(missing_docs)]

pub mod codec;
pub mod frontend;
pub mod message;
mod outbuf;
pub mod reactor;
pub mod sim;
pub mod swarm;
pub mod tcp;

pub use frontend::{FrontendConfig, FrontendServer, FrontendStats};
pub use message::Message;
pub use reactor::{Conns, Dispatch, Poller, Waker};
pub use sim::{FaultStats, LinkFaults, SimNet, TrafficStats};
pub use swarm::{Swarm, SwarmConfig, SwarmReport};
pub use tcp::{ClientError, RetryPolicy, TcpClient};

#[cfg(test)]
mod tests {
    use super::*;
    use pequod_core::{Engine, EngineConfig};
    use pequod_store::KeyRange;

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
