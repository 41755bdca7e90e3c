//! The TCP deployment driver: one [`ClusterServer`] per cluster node.
//!
//! There is no serving loop here. The node's [`ClusterNode`] state
//! machine is hosted by `pequod_net`'s reactor thread
//! ([`FrontendServer::spawn_dispatch`]): this file is the [`Dispatch`]
//! that maps connections onto [`ClusterPeer`]s and the node's outbox
//! onto connections, plus the dialer threads. Every `pequod-server` is
//! one: without `--cluster` it serves a one-node cluster at
//! replication 1.
//!
//! - **Classification.** A connection whose first frame is
//!   [`Message::Hello`] from another node of the config is a peer link
//!   from that node; any other first frame makes it a client (whose
//!   server-to-server frames are refused), its `ClusterPeer::Client`
//!   id its (generation-checked) reactor token.
//! - **Client frames** stay in flight until the node has produced one
//!   frame per id-bearing request in them
//!   ([`ClusterNode::serve_client`]): reads and redirects are encoded
//!   straight into the connection's buffer (a read complete on this
//!   node streams its pairs from the store), and a replicated
//!   write's acknowledgment arrives later — from a follower's
//!   `NotifyAck` on a peer link, or from `tick` — through
//!   [`Dispatch::deliver`]. Per connection, frames are therefore
//!   answered in arrival order, under the reactor's usual pipelining,
//!   backpressure and stall-timeout rules.
//! - **Node-to-node traffic** to peer `p` always leaves on this node's
//!   own dialed link to `p`, so per-direction FIFO holds and
//!   replication frames never reorder in transit; `p`'s traffic to us
//!   arrives on the link `p` dialed. Until our link to `p` first comes
//!   up, frames to `p` wait for it (up to `FIRST_LINK_BACKLOG`): a node
//!   serves before its peers listen. While a link that has been up is
//!   down, its frames are dropped: heartbeats and catch-up subscriptions
//!   re-converge the replicas, buffering would only replay stale
//!   traffic, and when the link comes back the node sends again the
//!   `Subscribe` of every fetch still waiting on `p`
//!   ([`ClusterNode::resubscribe`]), so no read is stranded.
//! - **Dialers**, one small thread per peer, do the only blocking work:
//!   `connect` with doubling backoff, then hand the connected socket to
//!   the reactor ([`Conns::adopt`]) and park until it reports the link
//!   closed. An adopted link is an ordinary reactor connection; its
//!   output is bounded by the write-stall timeout, not by
//!   `max_write_buffer` — a catch-up legitimately queues a slot's worth
//!   of `SnapshotChunk`s (see [`Conns::send`]).
//! - **Time** is the reactor's tick (`TICK_MS`, 5 ms; a lone node's is coarser).
//!
//! The node sits behind a mutex so [`ClusterServer::telemetry`] and the
//! halts can reach it; the lock is uncontended while serving and is
//! released before the reactor touches a socket.
//!
//! Shutdown comes in two flavors: [`ClusterServer::halt`] stops serving
//! and finalizes durability (final snapshot + fsync — the graceful
//! SIGTERM path), while [`ClusterServer::halt_abrupt`] just stops,
//! modelling a crash for failover benchmarks.

use crate::config::ClusterConfig;
use crate::node::{is_peer_only, ClusterNode, ClusterPeer, Out};
use pequod_core::node::NodeAudit;
use pequod_core::Engine;
use pequod_net::codec::encode_frame_into;
use pequod_net::{Conns, Dispatch, FrontendConfig, FrontendServer, Message, Waker};
use pequod_telemetry::SnapshotFn;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Logical-clock granularity: the reactor's tick, ms.
const TICK_MS: u64 = 5;

/// Frames held for a peer until the first link to it comes up; later
/// ones are dropped.
const FIRST_LINK_BACKLOG: usize = 4096;

/// The node, for one call into it. Every update leaves it consistent,
/// so a panicked holder's guard is recovered rather than propagated.
#[expect(
    clippy::disallowed_methods,
    reason = "a guard lasts one call into the node, which returns its outbox; frames are sent after"
)]
fn locked(node: &Mutex<ClusterNode>) -> MutexGuard<'_, ClusterNode> {
    node.lock().unwrap_or_else(|p| p.into_inner())
}

/// This node's dialed link to one peer.
struct Link {
    /// The link's reactor token; `None` while it is down.
    token: Option<u64>,
    /// Frames waiting for the link's first connection; `None` once it
    /// has come up.
    backlog: Option<Vec<Message>>,
    /// Tells the peer's dialer the link is down: dial again.
    redial: Sender<()>,
}

/// The frames the node owes a client for `msg`: one per id-bearing
/// request, and one per server-to-server frame, which it refuses.
fn owed(msg: &Message) -> usize {
    match msg {
        Message::Batch { msgs } => msgs.iter().map(owed).sum(),
        other => usize::from(other.id().is_some() || is_peer_only(other)),
    }
}

/// Hosts one [`ClusterNode`] on the reactor thread.
struct ClusterDispatch {
    node: Arc<Mutex<ClusterNode>>,
    node_id: u32,
    /// Answers a client's top-level [`Message::Metrics`]: the node's
    /// snapshot plus the reactor's serving counters.
    provider: SnapshotFn,
    /// Who each accepted connection is, decided by its first frame.
    peers: HashMap<u64, ClusterPeer>,
    links: HashMap<u32, Link>,
    /// Sockets the dialers connected, for the reactor to adopt.
    dialed: Receiver<(u32, TcpStream)>,
    /// Client frames in flight: token → (replies still owed, in all).
    owed: HashMap<u64, (usize, usize)>,
    /// The node's output for connections other than the one being
    /// served, in order, until the next `deliver`.
    late: Out,
}

impl Dispatch for ClusterDispatch {
    fn begin(&mut self, token: u64, msg: Message, out: &mut Vec<u8>) -> Option<usize> {
        let client = ClusterPeer::Client(token);
        let from = *self.peers.entry(token).or_insert(match msg {
            // A `Hello` from a node not in the config is a client's.
            Message::Hello { node } if self.links.contains_key(&node) => ClusterPeer::Node(node),
            _ => client,
        });
        if from != client {
            // Nothing is written back on a peer link: the node's answers
            // to a peer travel on our own dialed link to it, like all
            // the rest.
            let outbox = locked(&self.node).handle(from, msg);
            self.late.extend(outbox);
            return Some(0);
        }
        if let Message::Metrics { id, flight } = msg {
            let snapshot = (self.provider)(flight);
            encode_frame_into(&Message::metrics_reply(id, &snapshot), out);
            return Some(1);
        }
        let expected = owed(&msg);
        let replied = locked(&self.node).serve_client(token, msg, out, &mut self.late);
        if replied < expected {
            self.owed.insert(token, (expected - replied, expected));
            return None;
        }
        Some(replied)
    }

    fn deliver(&mut self, conns: &mut Conns) {
        while let Ok((peer, stream)) = self.dialed.try_recv() {
            let Some(link) = self.links.get_mut(&peer) else {
                continue;
            };
            link.token = conns.adopt(stream);
            if let Some(token) = link.token {
                conns.send(token, &Message::Hello { node: self.node_id });
                let held = match link.backlog.take() {
                    Some(backlog) => backlog,
                    None => (locked(&self.node).resubscribe(peer).into_iter())
                        .map(|(_, frame)| frame)
                        .collect(),
                };
                for frame in held {
                    conns.send(token, &frame);
                }
            } else {
                let _ = link.redial.send(());
            }
        }
        for (to, frame) in self.late.drain(..) {
            let token = match to {
                ClusterPeer::Client(token) => Some(token),
                ClusterPeer::Node(peer) => match self.links.get_mut(&peer) {
                    Some(Link {
                        token: None,
                        backlog: Some(backlog),
                        ..
                    }) => {
                        if backlog.len() < FIRST_LINK_BACKLOG {
                            backlog.push(frame);
                        }
                        continue;
                    }
                    link => link.and_then(|link| link.token),
                },
            };
            // A peer whose link is down: dropped (see the module docs).
            let Some(token) = token else { continue };
            conns.send(token, &frame);
            if let Some((left, total)) = self.owed.get_mut(&token) {
                *left -= 1;
                if *left == 0 {
                    conns.complete(token, *total);
                    self.owed.remove(&token);
                }
            }
        }
    }

    fn tick(&mut self, now_ms: u64) {
        let outbox = locked(&self.node).tick(now_ms);
        self.late.extend(outbox);
    }

    fn forget(&mut self, token: u64) {
        self.peers.remove(&token);
        self.owed.remove(&token);
        // One of our dialed links: its dialer tries again.
        if let Some(link) = self.links.values_mut().find(|l| l.token == Some(token)) {
            link.token = None;
            let _ = link.redial.send(());
        }
    }
}

/// Keeps one outbound link to `peer` up: connect (doubling backoff up to
/// `max_backoff_ms`), hand the socket to the reactor, sleep until the
/// reactor says the link closed, again. Returns once the dispatcher —
/// the other end of both channels — is gone.
fn dial_peer(
    peer: u32,
    addr: &str,
    max_backoff_ms: u64,
    redial: Receiver<()>,
    dialed: Sender<(u32, TcpStream)>,
    waker: Waker,
) {
    let mut backoff_ms = 10u64;
    loop {
        if let Ok(stream) = TcpStream::connect(addr) {
            backoff_ms = 10;
            let _ = dialed.send((peer, stream));
            waker.wake();
            if redial.recv().is_err() {
                return;
            }
        } else {
            let wait = redial.recv_timeout(Duration::from_millis(backoff_ms));
            if wait == Err(RecvTimeoutError::Disconnected) {
                return;
            }
            backoff_ms = (backoff_ms * 2).min(max_backoff_ms);
        }
    }
}

/// A running replicated node.
pub struct ClusterServer {
    node_id: u32,
    node: Arc<Mutex<ClusterNode>>,
    frontend: FrontendServer,
    dialers: Vec<JoinHandle<()>>,
    halted: bool,
}

impl ClusterServer {
    /// Starts cluster node `node_id` serving `engine` on its configured
    /// address (or `addr_override`, e.g. `127.0.0.1:0` in tests — the
    /// config addresses of the *other* nodes are still used to dial
    /// them).
    pub fn spawn(
        cfg: ClusterConfig,
        node_id: u32,
        engine: Engine,
        addr_override: Option<&str>,
    ) -> std::io::Result<ClusterServer> {
        let frontend = FrontendConfig::default();
        ClusterServer::spawn_with(cfg, node_id, engine, addr_override, frontend)
    }

    /// [`spawn`](ClusterServer::spawn) with the serving edge's settings
    /// (buffer caps, timeouts, the unix-domain socket) given; the tick is
    /// the cluster's own.
    pub fn spawn_with(
        cfg: ClusterConfig,
        node_id: u32,
        engine: Engine,
        addr_override: Option<&str>,
        frontend: FrontendConfig,
    ) -> std::io::Result<ClusterServer> {
        let unknown = || std::io::Error::new(std::io::ErrorKind::InvalidInput, "unknown node id");
        let bind_addr = addr_override
            .or_else(|| cfg.addr_of(node_id))
            .ok_or_else(unknown)?
            .to_string();
        // A restarted peer arms its failover timer when it boots and
        // disarms it on our first heartbeat, which travels on our dialed
        // link: retry well inside that window, or the peer promotes
        // itself over a live primary and rejoins by snapshot.
        let max_backoff_ms = (cfg.timing.failover_ms / 4).max(10);
        let peer_addrs: Vec<(u32, String)> = (0..cfg.nodes.len() as u32)
            .filter(|peer| *peer != node_id)
            .filter_map(|peer| Some((peer, cfg.addr_of(peer)?.to_string())))
            .collect();
        let recorder = engine.recorder().clone();
        let node = Arc::new(Mutex::new(ClusterNode::new(node_id, cfg, engine)));
        let snapshot: SnapshotFn = {
            let node = node.clone();
            Arc::new(move |flight| locked(&node).telemetry_snapshot(flight))
        };
        // Alone, a node runs no timer: the front-end's coarser tick.
        let alone = peer_addrs.is_empty();
        let tick_ms = if alone { frontend.tick_ms } else { TICK_MS };
        let frontend = FrontendConfig {
            tick_ms,
            ..frontend
        };
        let mut dialers = Vec::new();
        let build = |provider, waker: Waker| -> Box<dyn Dispatch> {
            let (dialed_tx, dialed) = channel();
            let mut links = HashMap::new();
            for (peer, addr) in peer_addrs {
                let (redial, redial_rx) = channel();
                links.insert(
                    peer,
                    Link {
                        token: None,
                        backlog: Some(Vec::new()),
                        redial,
                    },
                );
                let (dialed_tx, waker) = (dialed_tx.clone(), waker.clone());
                dialers.push(std::thread::spawn(move || {
                    dial_peer(peer, &addr, max_backoff_ms, redial_rx, dialed_tx, waker)
                }));
            }
            Box::new(ClusterDispatch {
                node: node.clone(),
                node_id,
                provider,
                peers: HashMap::new(),
                links,
                dialed,
                owed: HashMap::new(),
                late: Vec::new(),
            })
        };
        let frontend =
            FrontendServer::spawn_dispatch(&*bind_addr, frontend, recorder, snapshot, build)?;
        Ok(ClusterServer {
            node_id,
            node,
            frontend,
            dialers,
            halted: false,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.frontend.addr()
    }

    /// This node's id.
    pub fn node_id(&self) -> u32 {
        self.node_id
    }

    /// A telemetry provider answering with
    /// [`ClusterNode::telemetry_snapshot`] (engine metrics plus
    /// replication counters and lag gauges) and the reactor's serving
    /// counters — the snapshot a wire `Metrics` request gets. It reads
    /// the node under its mutex, and keeps answering after `halt`.
    pub fn telemetry(&self) -> SnapshotFn {
        self.frontend.telemetry()
    }

    /// This node's part of a deployment audit
    /// ([`pequod_core::node::audit_deployment`]); call it on a quiet
    /// cluster.
    pub fn audit(&self) -> NodeAudit {
        locked(&self.node).audit()
    }

    /// Graceful shutdown: stop serving (in-flight frames are abandoned,
    /// every thread is joined), then take a final durability snapshot
    /// and fsync. Idempotent.
    pub fn halt(&mut self) {
        if self.stop() {
            locked(&self.node).engine.finalize_durability();
        }
    }

    /// Abrupt shutdown (no finalization): models a crash for failover
    /// tests and benchmarks — recovery must come from the WAL.
    pub fn halt_abrupt(&mut self) {
        self.stop();
    }

    /// Stops serving; `false` if an earlier halt already did.
    fn stop(&mut self) -> bool {
        if std::mem::replace(&mut self.halted, true) {
            return false;
        }
        // The reactor thread takes the dispatcher with it, which hangs
        // up on the dialers.
        self.frontend.shutdown();
        for dialer in self.dialers.drain(..) {
            let _ = dialer.join();
        }
        true
    }
}

impl Drop for ClusterServer {
    fn drop(&mut self) {
        self.halt();
    }
}
