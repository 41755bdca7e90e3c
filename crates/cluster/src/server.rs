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
//!   frame per id-bearing request in them — a `Reply` or a
//!   `NotPrimary`, which both carry the request's id
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
//! The node is the reactor thread's. Another thread that wants a
//! snapshot ([`ClusterServer::telemetry`]) or an audit of it posts the
//! request and a reply channel to the inbox the dialers post their
//! sockets to, and rings the [`Waker`]; the next `deliver` answers.
//!
//! Shutdown comes in two flavors: [`ClusterServer::halt`] stops serving
//! and finalizes durability on the node the reactor thread hands back
//! (final snapshot + fsync — the graceful SIGTERM path), while
//! [`ClusterServer::halt_abrupt`] drops it, modelling a crash.

use crate::config::ClusterConfig;
use crate::node::{is_peer_only, ClusterNode, ClusterPeer, Out};
use crate::subscription::NodeAudit;
use pequod_core::Engine;
use pequod_net::codec::encode_frame_into;
use pequod_net::{Conns, Dispatch, FrontendConfig, FrontendServer, FrontendStats, Message, Waker};
use pequod_telemetry::{Recorder, Snapshot, SnapshotFn};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Logical-clock granularity: the reactor's tick, ms.
const TICK_MS: u64 = 5;

/// Frames held for a peer until the first link to it comes up; later
/// ones are dropped.
const FIRST_LINK_BACKLOG: usize = 4096;

/// What other threads leave for the reactor thread, which takes it in
/// `deliver`.
enum Inbox {
    /// A socket a dialer connected to a peer, for the reactor to adopt.
    Dialed(u32, TcpStream),
    /// A telemetry snapshot (with the flight ring or not) is wanted.
    Snapshot(bool, Sender<Snapshot>),
    /// The node's part of a deployment audit is wanted.
    Audit(Sender<NodeAudit>),
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

/// Hosts one [`ClusterNode`] on the reactor thread, which owns it.
struct ClusterDispatch {
    node: ClusterNode,
    /// The reactor's serving counters, mirrored into every snapshot.
    stats: Arc<FrontendStats>,
    /// Who each accepted connection is, decided by its first frame.
    peers: HashMap<u64, ClusterPeer>,
    links: HashMap<u32, Link>,
    /// Dialed sockets and other threads' requests.
    inbox: Receiver<Inbox>,
    /// Client frames in flight: token → (replies still owed, in all).
    owed: HashMap<u64, (usize, usize)>,
    /// The node's output for connections other than the one being
    /// served, in order, until the next `deliver`.
    late: Out,
}

impl ClusterDispatch {
    /// The node's telemetry plus the reactor's serving counters: what a
    /// wire [`Message::Metrics`] and [`ClusterServer::telemetry`] get.
    fn snapshot(&self, flight: bool) -> Snapshot {
        let mut snap = self.node.telemetry_snapshot(flight);
        self.stats.mirror(&mut snap);
        snap
    }

    /// Makes a socket a dialer connected our link to `peer`.
    fn adopt(&mut self, conns: &mut Conns, peer: u32, stream: TcpStream) {
        let Some(link) = self.links.get_mut(&peer) else {
            return;
        };
        link.token = conns.adopt(stream);
        let Some(token) = link.token else {
            let _ = link.redial.send(());
            return;
        };
        let node = self.node.node_id();
        conns.send(token, &Message::Hello { node });
        let held = match link.backlog.take() {
            Some(backlog) => backlog,
            None => (self.node.resubscribe(peer).into_iter())
                .map(|(_, frame)| frame)
                .collect(),
        };
        for frame in held {
            conns.send(token, &frame);
        }
    }
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
            let outbox = self.node.handle(from, msg);
            self.late.extend(outbox);
            return Some(0);
        }
        if let Message::Metrics { id, flight } = msg {
            encode_frame_into(&Message::metrics_reply(id, &self.snapshot(flight)), out);
            return Some(1);
        }
        let expected = owed(&msg);
        let replied = self.node.serve_client(token, msg, out, &mut self.late);
        if replied < expected {
            self.owed.insert(token, (expected - replied, expected));
            return None;
        }
        Some(replied)
    }

    fn deliver(&mut self, conns: &mut Conns) {
        while let Ok(item) = self.inbox.try_recv() {
            // A reader that gave up waiting is no concern of ours.
            match item {
                Inbox::Dialed(peer, stream) => self.adopt(conns, peer, stream),
                Inbox::Snapshot(flight, reply) => drop(reply.send(self.snapshot(flight))),
                Inbox::Audit(reply) => drop(reply.send(self.node.audit())),
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
        let outbox = self.node.tick(now_ms);
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
/// the other end of `redial` — is gone.
fn dial_peer(
    peer: u32,
    addr: &str,
    max_backoff_ms: u64,
    redial: Receiver<()>,
    inbox: Sender<Inbox>,
    waker: Waker,
) {
    let mut backoff_ms = 10u64;
    loop {
        if let Ok(stream) = TcpStream::connect(addr) {
            backoff_ms = 10;
            let _ = inbox.send(Inbox::Dialed(peer, stream));
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

/// Asks the reactor thread for something of its node and waits for the
/// answer; `None` once the dispatcher is gone — a halt drops the inbox
/// and every request still in it, so no caller waits on a halted node.
fn ask<T>(
    inbox: &Sender<Inbox>,
    waker: &Waker,
    request: impl FnOnce(Sender<T>) -> Inbox,
) -> Option<T> {
    let (reply, answer) = channel();
    inbox.send(request(reply)).ok()?;
    waker.wake();
    answer.recv().ok()
}

/// A running replicated node.
pub struct ClusterServer {
    frontend: FrontendServer<ClusterDispatch>,
    dialers: Vec<JoinHandle<()>>,
    /// The dispatcher's inbox, for requests from other threads.
    inbox: Sender<Inbox>,
    /// The engine's recorder, which outlives the node.
    recorder: Recorder,
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
        let node = ClusterNode::new(node_id, cfg, engine);
        // Alone, a node runs no timer: the front-end's coarser tick.
        let alone = peer_addrs.is_empty();
        let tick_ms = if alone { frontend.tick_ms } else { TICK_MS };
        let frontend = FrontendConfig {
            tick_ms,
            ..frontend
        };
        let (sender, inbox) = channel();
        let mut dialers = Vec::new();
        let build = |stats, waker: Waker| {
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
                let (sender, waker) = (sender.clone(), waker.clone());
                dialers.push(std::thread::spawn(move || {
                    dial_peer(peer, &addr, max_backoff_ms, redial_rx, sender, waker)
                }));
            }
            ClusterDispatch {
                node,
                stats,
                peers: HashMap::new(),
                links,
                inbox,
                owed: HashMap::new(),
                late: Vec::new(),
            }
        };
        let frontend =
            FrontendServer::spawn_dispatch(&*bind_addr, frontend, recorder.clone(), build)?;
        Ok(ClusterServer {
            frontend,
            dialers,
            inbox: sender,
            recorder,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.frontend.addr()
    }

    /// A telemetry provider answering with the snapshot a wire `Metrics`
    /// request gets: [`ClusterNode::telemetry_snapshot`] (engine metrics
    /// plus replication counters and lag gauges) and the reactor's
    /// serving counters. Each call asks the reactor thread, which owns
    /// the node, through its inbox. Once the server has halted it
    /// answers at once with the engine recorder's own snapshot.
    pub fn telemetry(&self) -> SnapshotFn {
        let (inbox, waker) = (self.inbox.clone(), self.frontend.waker());
        let recorder = self.recorder.clone();
        Arc::new(move |flight| {
            ask(&inbox, &waker, |reply| Inbox::Snapshot(flight, reply))
                .unwrap_or_else(|| recorder.snapshot(flight))
        })
    }

    /// This node's part of a deployment audit
    /// ([`audit_deployment`](crate::audit_deployment)), taken on the reactor
    /// thread; call it on a quiet cluster that is still serving.
    #[expect(
        clippy::panic,
        reason = "a halted server has no node left to audit: asking is a caller's bug"
    )]
    pub fn audit(&self) -> NodeAudit {
        ask(&self.inbox, &self.frontend.waker(), Inbox::Audit)
            .unwrap_or_else(|| panic!("audit of a halted cluster node"))
    }

    /// Graceful shutdown: stop serving (in-flight frames are abandoned,
    /// every thread is joined), then take a final durability snapshot
    /// and fsync on the node the reactor thread hands back. Idempotent.
    pub fn halt(&mut self) {
        if let Some(mut dispatch) = self.frontend.shutdown() {
            dispatch.node.engine.finalize_durability();
        }
        self.halt_abrupt();
    }

    /// Abrupt shutdown (no finalization): models a crash for failover
    /// tests and benchmarks — recovery must come from the WAL.
    pub fn halt_abrupt(&mut self) {
        // Dropping the dispatcher, node and all, hangs up on the dialers.
        drop(self.frontend.shutdown());
        for dialer in self.dialers.drain(..) {
            let _ = dialer.join();
        }
    }
}

impl Drop for ClusterServer {
    fn drop(&mut self) {
        self.halt();
    }
}
