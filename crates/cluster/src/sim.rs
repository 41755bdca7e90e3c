//! The deterministic in-memory cluster: a seeded message fabric
//! ([`SimNet`]) and every node's [`ClusterNode`] state machine wired
//! through it ([`SimHarness`]).
//!
//! [`SimNet`] carries [`Message`]s between endpoints with a per-hop
//! latency, per-link fault injection (loss, duplication, reordering, a
//! fixed extra delay) and optional extra jitter on `Notify` delivery —
//! the asynchronous update propagation that makes Pequod eventually
//! consistent (§2.4). Delivery order is a deterministic function of the
//! seed. It counts wire bytes per message class with the real codec,
//! which the scalability experiment (Figure 10) reports as
//! "subscription maintenance" versus "client communication" bandwidth.
//!
//! Time is virtual: [`SimHarness::run_for`] advances a millisecond
//! clock, delivering due messages and ticking every live node each
//! step, so a multi-second failover scenario runs in microseconds and
//! replays identically for a given seed. The harness also measures the
//! real CPU time each node spends handling messages
//! ([`SimHarness::busy_time`]) — all simulated nodes share one core, so
//! per-node busy time is the stand-in for a node's CPU bottleneck.
//! [`crate::ClusterClient::simulated`] drives a harness through the
//! unified client surface.

use crate::config::ClusterConfig;
use crate::node::{ClusterNode, ClusterPeer};
use pequod_core::node::NodeAudit;
use pequod_core::{BackendStats, Engine};
use pequod_net::codec::encode_frame;
use pequod_net::Message;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::Duration;

/// Per-link fault knobs for [`SimNet`].
///
/// All probabilities are per message, drawn from the fabric's seeded
/// RNG, so a given (seed, send sequence) reproduces the exact same
/// loss/duplication/reordering pattern.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently discarded.
    pub drop_chance: f64,
    /// Probability a message is delivered twice.
    pub dup_chance: f64,
    /// Probability a message is delayed by an extra random amount (up
    /// to [`LinkFaults::reorder_delay`]), letting later sends overtake
    /// it.
    pub reorder_chance: f64,
    /// Maximum extra delay applied to reordered messages, in ticks.
    pub reorder_delay: u64,
    /// Extra delay every message on the link takes, in ticks (a slow
    /// link: later sends on faster links overtake its traffic).
    pub delay: u64,
}

impl LinkFaults {
    /// A lossy, duplicating, reordering link — convenience for tests.
    pub fn lossy(drop_chance: f64, dup_chance: f64, reorder_chance: f64) -> LinkFaults {
        LinkFaults {
            drop_chance,
            dup_chance,
            reorder_chance,
            reorder_delay: 20,
            delay: 0,
        }
    }
}

/// Fault counters accumulated by a [`SimNet`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultStats {
    /// Messages discarded by `drop_chance`.
    pub dropped: u64,
    /// Extra copies injected by `dup_chance`.
    pub duplicated: u64,
    /// Messages given extra delay by `reorder_chance`.
    pub reordered: u64,
    /// Messages handed out by [`SimNet::take_due`].
    pub delivered: u64,
}

/// Wire bytes by message class, counted as messages are sent.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrafficStats {
    /// Client requests and replies, and writes forwarded between nodes.
    pub client_bytes: u64,
    /// §2.4 subscription traffic between nodes
    /// (Subscribe/SubscribeReply/Notify/Unsubscribe).
    pub subscription_bytes: u64,
    /// Replication traffic between nodes (streamed writes, their acks,
    /// heartbeats, catch-up, epoch changes).
    pub replication_bytes: u64,
}

/// xorshift64*: the fabric's seeded randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// In-flight messages in delivery order: (arrival time, send sequence)
/// keys a min-heap, the sequence number keys the payload.
type Queue = BinaryHeap<Reverse<(u64, u64)>>;

/// A deterministic point-to-point message fabric with fault injection.
///
/// `SimNet` is a bare transport: endpoints are opaque `u32` ids, the
/// caller delivers messages itself, and each directed link can drop,
/// duplicate, reorder or delay traffic. [`SimHarness`]
/// runs whole clusters on it without real sockets; the replication
/// protocol's sequence numbers and catch-up machinery are what make
/// its loss/reorder sweeps safe.
///
/// Time is the caller's: `send` stamps departures with the caller's
/// `now`, `take_due(now)` returns everything that has arrived by `now`
/// in deterministic (arrival, send-sequence) order.
pub struct SimNet {
    queue: Queue,
    payloads: HashMap<u64, (u32, u32, Message)>,
    seq: u64,
    rng: Rng,
    latency: u64,
    default_faults: LinkFaults,
    faults: HashMap<(u32, u32), LinkFaults>,
    down: HashSet<u32>,
    /// `(chance, ticks)`: a `Notify` is delayed `ticks` more with
    /// probability `chance`.
    notify_jitter: (f64, u64),
    /// Fault and delivery counters.
    pub stats: FaultStats,
    /// Wire bytes sent, by class.
    pub traffic: TrafficStats,
}

impl SimNet {
    /// A fabric with the given RNG seed and per-hop latency (ticks).
    pub fn new(seed: u64, latency: u64) -> SimNet {
        SimNet {
            queue: BinaryHeap::new(),
            payloads: HashMap::new(),
            seq: 0,
            rng: Rng(seed | 1),
            latency,
            default_faults: LinkFaults::default(),
            faults: HashMap::new(),
            down: HashSet::new(),
            notify_jitter: (0.0, 0),
            stats: FaultStats::default(),
            traffic: TrafficStats::default(),
        }
    }

    /// Delays each `Notify` by `ticks` more with probability `chance`
    /// (asynchronous propagation; updates are never lost, but may
    /// arrive after later traffic).
    pub fn set_notify_jitter(&mut self, chance: f64, ticks: u64) {
        self.notify_jitter = (chance, ticks);
    }

    /// Sets the fault profile applied to every link without an explicit
    /// override.
    pub fn set_default_faults(&mut self, faults: LinkFaults) {
        self.default_faults = faults;
    }

    /// Sets the fault profile of one directed link.
    pub fn set_link_faults(&mut self, from: u32, to: u32, faults: LinkFaults) {
        self.faults.insert((from, to), faults);
    }

    /// Marks an endpoint down (messages to or from it are blackholed)
    /// or back up — models a crashed or partitioned node.
    pub fn set_down(&mut self, endpoint: u32, down: bool) {
        if down {
            self.down.insert(endpoint);
        } else {
            self.down.remove(&endpoint);
        }
    }

    fn enqueue(&mut self, at: u64, from: u32, to: u32, msg: Message) {
        self.seq += 1;
        self.payloads.insert(self.seq, (from, to, msg));
        self.queue.push(Reverse((at, self.seq)));
    }

    /// Sends a message departing at `now`; it arrives `latency` ticks
    /// later unless the link's faults drop, duplicate, or delay it.
    /// Its encoded size counts toward [`SimNet::traffic`] either way.
    pub fn send(&mut self, now: u64, from: u32, to: u32, msg: Message) {
        let bytes = encode_frame(&msg).len() as u64;
        match msg {
            Message::Subscribe { .. }
            | Message::SubscribeReply { .. }
            | Message::Notify { .. }
            | Message::Unsubscribe { .. } => self.traffic.subscription_bytes += bytes,
            Message::ReplicaSubscribe { .. }
            | Message::NotifySeq { .. }
            | Message::NotifyAck { .. }
            | Message::Heartbeat { .. }
            | Message::SnapshotChunk { .. }
            | Message::EpochChange { .. }
            | Message::Hello { .. } => self.traffic.replication_bytes += bytes,
            _ => self.traffic.client_bytes += bytes,
        }
        if self.down.contains(&from) || self.down.contains(&to) {
            self.stats.dropped += 1;
            return;
        }
        let faults = *self.faults.get(&(from, to)).unwrap_or(&self.default_faults);
        if self.rng.chance(faults.drop_chance) {
            self.stats.dropped += 1;
            return;
        }
        let mut at = now + self.latency + faults.delay;
        let (jitter_chance, jitter) = self.notify_jitter;
        if matches!(msg, Message::Notify { .. }) && self.rng.chance(jitter_chance) {
            at += jitter;
        }
        if self.rng.chance(faults.reorder_chance) {
            self.stats.reordered += 1;
            at += 1 + self.rng.next() % faults.reorder_delay.max(1);
        }
        if self.rng.chance(faults.dup_chance) {
            self.stats.duplicated += 1;
            self.enqueue(at, from, to, msg.clone());
        }
        self.enqueue(at, from, to, msg);
    }

    /// Arrival time of the earliest in-flight message, if any.
    pub fn next_at(&self) -> Option<u64> {
        self.queue.peek().map(|Reverse((at, _))| *at)
    }

    /// True when nothing is in flight.
    pub fn is_quiet(&self) -> bool {
        self.queue.is_empty()
    }

    /// Takes every message that has arrived by `now`, in deterministic
    /// order. Messages addressed to a down endpoint are discarded at
    /// delivery time (they were in flight when it went down).
    pub fn take_due(&mut self, now: u64) -> Vec<(u32, u32, Message)> {
        let mut out = Vec::new();
        while let Some(&Reverse((at, seq))) = self.queue.peek() {
            if at > now {
                break;
            }
            self.queue.pop();
            let Some((from, to, msg)) = self.payloads.remove(&seq) else {
                continue;
            };
            if self.down.contains(&to) || self.down.contains(&from) {
                self.stats.dropped += 1;
                continue;
            }
            self.stats.delivered += 1;
            out.push((from, to, msg));
        }
        out
    }
}

/// Simulated endpoints below this are cluster nodes; at or above it,
/// clients (client `c` lives at endpoint `CLIENT_BASE + c`).
pub const CLIENT_BASE: u32 = 1000;

fn endpoint(peer: ClusterPeer) -> u32 {
    match peer {
        ClusterPeer::Node(n) => n,
        ClusterPeer::Client(c) => CLIENT_BASE + c as u32,
    }
}

fn peer(endpoint: u32) -> ClusterPeer {
    if endpoint >= CLIENT_BASE {
        ClusterPeer::Client((endpoint - CLIENT_BASE) as u64)
    } else {
        ClusterPeer::Node(endpoint)
    }
}

/// A whole simulated cluster plus its virtual clock.
pub struct SimHarness {
    /// The message fabric (fault injection knobs and traffic counters
    /// live here).
    pub net: SimNet,
    cfg: ClusterConfig,
    nodes: Vec<Option<ClusterNode>>,
    busy: Vec<Duration>,
    now: u64,
    next_id: u64,
    replies: Vec<(u64, Message)>,
    /// See [`SimHarness::reply_ledger`].
    ledger: HashMap<(u32, u64, u64), (u32, u32)>,
}

impl SimHarness {
    /// A cluster of `cfg.nodes.len()` fresh nodes over a fabric with
    /// the given fault seed and per-hop latency.
    pub fn new(cfg: &ClusterConfig, seed: u64, latency: u64) -> SimHarness {
        let engines = cfg.nodes.iter().map(|_| Engine::new_default()).collect();
        SimHarness::with_engines(cfg, engines, seed, latency)
    }

    /// A cluster over caller-built engines (e.g. durability-attached
    /// ones for restart scenarios); `engines[i]` becomes node `i`.
    pub fn with_engines(
        cfg: &ClusterConfig,
        engines: Vec<Engine>,
        seed: u64,
        latency: u64,
    ) -> SimHarness {
        let nodes: Vec<Option<ClusterNode>> = engines
            .into_iter()
            .enumerate()
            .map(|(id, e)| Some(ClusterNode::new(id as u32, cfg.clone(), e)))
            .collect();
        SimHarness {
            net: SimNet::new(seed, latency),
            cfg: cfg.clone(),
            busy: vec![Duration::ZERO; nodes.len()],
            nodes,
            now: 0,
            next_id: 1,
            replies: Vec::new(),
            ledger: HashMap::new(),
        }
    }

    /// Current virtual time, ms.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The cluster config the nodes were built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Real CPU time node `id` has spent handling messages.
    pub fn busy_time(&self, id: u32) -> Duration {
        self.busy.get(id as usize).copied().unwrap_or_default()
    }

    /// Every live node's engine counters
    /// ([`ClusterNode::backend_stats`]).
    pub fn engine_stats(&self) -> Vec<BackendStats> {
        (self.nodes.iter().flatten())
            .map(ClusterNode::backend_stats)
            .collect()
    }

    /// Audits the live nodes as one deployment
    /// ([`pequod_core::node::audit_deployment`]): every engine's deep
    /// invariant check plus node-to-node subscription symmetry. Call it
    /// on a quiet network; empty means consistent.
    pub fn check_invariants(&self) -> Vec<String> {
        let audits: Vec<NodeAudit> = self.nodes.iter().flatten().map(|n| n.audit()).collect();
        pequod_core::node::audit_deployment(&audits)
    }

    /// Borrows a live node (panics in tests if it was killed).
    pub fn node(&mut self, id: u32) -> &mut ClusterNode {
        match self.nodes.get_mut(id as usize) {
            Some(Some(n)) => n,
            _ => unreachable!("node {id} is not alive"),
        }
    }

    /// Whether `id` is currently alive.
    pub fn is_alive(&self, id: u32) -> bool {
        matches!(self.nodes.get(id as usize), Some(Some(_)))
    }

    /// Kills a node abruptly: its state machine is dropped (simulating
    /// a crash; only what its engine persisted elsewhere survives) and
    /// the fabric blackholes its traffic. Returns the dead node so a
    /// test can salvage its durable state.
    pub fn kill(&mut self, id: u32) -> Option<ClusterNode> {
        self.net.set_down(id, true);
        self.ledger.retain(|(node, _, _), _| *node != id);
        self.nodes.get_mut(id as usize).and_then(Option::take)
    }

    /// Restarts a node with the given (typically warm-recovered)
    /// engine and reconnects it to the fabric.
    pub fn restart(&mut self, id: u32, cfg: &ClusterConfig, engine: Engine) {
        self.net.set_down(id, false);
        if let Some(slot) = self.nodes.get_mut(id as usize) {
            *slot = Some(ClusterNode::new(id, cfg.clone(), engine));
        }
    }

    /// The contract a transport's in-flight gate relies on, as data:
    /// per `(node, client, request id)`, how many times the request
    /// reached that (still live) node and how many frames carrying its
    /// id the node has sent back. Once traffic quiesces the two are
    /// equal for every entry — each delivered request is answered
    /// exactly once, by a `Reply` or a `NotPrimary`.
    pub fn reply_ledger(&self) -> &HashMap<(u32, u64, u64), (u32, u32)> {
        &self.ledger
    }

    fn route(&mut self, from: u32, outbox: Vec<(ClusterPeer, Message)>) {
        for (to, msg) in outbox {
            if let (ClusterPeer::Client(c), Some(id)) = (to, msg.id()) {
                self.ledger.entry((from, c, id)).or_default().1 += 1;
            }
            self.net.send(self.now, from, endpoint(to), msg);
        }
    }

    /// Advances virtual time by `ms`, delivering messages and ticking
    /// every live node each millisecond.
    pub fn run_for(&mut self, ms: u64) {
        let until = self.now + ms;
        while self.now < until {
            self.now += 1;
            for (from, to, msg) in self.net.take_due(self.now) {
                if to >= CLIENT_BASE {
                    self.replies.push(((to - CLIENT_BASE) as u64, msg));
                    continue;
                }
                let out = match self.nodes.get_mut(to as usize) {
                    Some(Some(node)) => {
                        if let ClusterPeer::Client(c) = peer(from) {
                            let ledger = &mut self.ledger;
                            msg.for_each_id(&mut |id| {
                                ledger.entry((to, c, id)).or_default().0 += 1;
                            });
                        }
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "busy-time accounting measures real compute per node; \
                                      simulated time stays in `now`"
                        )]
                        let start = std::time::Instant::now();
                        let out = node.handle(peer(from), msg);
                        self.busy[to as usize] += start.elapsed();
                        out
                    }
                    _ => Vec::new(),
                };
                self.route(to, out);
            }
            for id in 0..self.nodes.len() {
                let out = match &mut self.nodes[id] {
                    Some(node) => node.tick(self.now),
                    None => Vec::new(),
                };
                self.route(id as u32, out);
            }
        }
    }

    /// Runs until nothing is in flight (or, on a cluster whose primaries
    /// keep heartbeating followers, for at most ten seconds).
    pub fn run_until_quiet(&mut self) {
        let until = self.now + 10_000;
        while !self.net.is_quiet() && self.now < until {
            self.run_for(1);
        }
    }

    /// Sends `msg` from client `c` to node `to` as it is, request ids
    /// included.
    pub fn send(&mut self, c: u64, to: u32, msg: Message) {
        self.net.send(self.now, CLIENT_BASE + c as u32, to, msg);
    }

    /// Sends a raw message from client `c` to a node, tagging it with
    /// a fresh request id when it carries one. Returns the id used.
    pub fn client_send(&mut self, c: u64, to: u32, msg: Message) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let msg = match msg {
            Message::Get { key, .. } => Message::Get { id, key },
            Message::Put { key, value, .. } => Message::Put { id, key, value },
            Message::Remove { key, .. } => Message::Remove { id, key },
            Message::Scan { range, .. } => Message::Scan { id, range },
            Message::Count { range, .. } => Message::Count { id, range },
            Message::AddJoin { text, .. } => Message::AddJoin { id, text },
            Message::Migrate {
                slot, from, to: t, ..
            } => Message::Migrate {
                id,
                slot,
                from,
                to: t,
            },
            Message::Metrics { flight, .. } => Message::Metrics { id, flight },
            other => other,
        };
        self.net.send(self.now, CLIENT_BASE + c as u32, to, msg);
        id
    }

    /// Sends `msg` from client `c` to node `to` under a fresh request id
    /// and runs virtual time until the node answers it; returns the
    /// answer (a `Reply` or a `NotPrimary`). Panics (test context) after
    /// `max_ms`.
    pub fn request(&mut self, c: u64, to: u32, msg: Message, max_ms: u64) -> Message {
        let id = self.client_send(c, to, msg);
        let deadline = self.now + max_ms;
        while self.now < deadline {
            self.run_for(1);
            let mut answer = None;
            self.replies.retain(|(cl, m)| {
                let mine = *cl == c && m.id() == Some(id) && answer.is_none();
                if mine {
                    answer = Some(m.clone());
                }
                !mine
            });
            if let Some(answer) = answer {
                return answer;
            }
        }
        unreachable!("request: no answer from node {to} after {max_ms}ms");
    }

    /// Drains replies delivered to client `c`.
    pub fn take_replies(&mut self, c: u64) -> Vec<Message> {
        let (mine, others) = std::mem::take(&mut self.replies)
            .into_iter()
            .partition(|(cl, _)| *cl == c);
        self.replies = others;
        mine.into_iter().map(|(_, m)| m).collect()
    }

    /// The first live node's opinion of `slot`'s primary, falling back
    /// to any live node.
    pub fn first_alive_primary(&self, slot: u32) -> u32 {
        for n in self.nodes.iter().flatten() {
            let p = n.primary_of(slot);
            if self.is_alive(p) {
                return p;
            }
        }
        self.nodes
            .iter()
            .flatten()
            .next()
            .map(|n| n.node_id())
            .unwrap_or(0)
    }
}
