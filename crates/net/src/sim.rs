//! A deterministic in-process cluster simulator.
//!
//! Servers exchange [`Message`]s through a virtual network with
//! configurable per-hop latency and (optionally) extra jitter on
//! `Notify` delivery — modelling the asynchronous update propagation
//! that makes Pequod eventually consistent (§2.4). Delivery order is a
//! deterministic function of the seed, so distributed experiments and
//! tests reproduce exactly.
//!
//! The simulator also accounts wire bytes per message class using the
//! real codec, which the scalability experiment (Figure 10) reports as
//! "subscription maintenance" versus "client communication" bandwidth.

use crate::codec::encode_frame;
use crate::message::Message;
use crate::partition::ServerId;
use crate::server::{deliver, wire, Endpoint, ServerNode};
use pequod_store::{Key, KeyRange, Value};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulator parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Per-hop latency in ticks.
    pub latency: u64,
    /// RNG seed (delivery jitter).
    pub seed: u64,
    /// Probability that a `Notify` is delayed by `notify_jitter` extra
    /// ticks (asynchronous propagation; updates are never lost).
    pub notify_jitter_chance: f64,
    /// Extra delay applied to jittered notifies.
    pub notify_jitter: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: 1,
            seed: 0x5eed,
            notify_jitter_chance: 0.0,
            notify_jitter: 10,
        }
    }
}

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
}

impl LinkFaults {
    /// A lossy, duplicating, reordering link — convenience for tests.
    pub fn lossy(drop_chance: f64, dup_chance: f64, reorder_chance: f64) -> LinkFaults {
        LinkFaults {
            drop_chance,
            dup_chance,
            reorder_chance,
            reorder_delay: 20,
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

/// xorshift64*: both simulators' seeded randomness.
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
/// Unlike [`SimCluster`] — which wraps [`ServerNode`]s and assumes the
/// lossless Subscribe/Notify protocol — `SimNet` is a bare transport:
/// endpoints are opaque `u32` ids, the caller delivers messages itself,
/// and each directed link can drop, duplicate, or reorder traffic. The
/// replicated-cluster tests (`pequod_cluster`) run their loss/reorder
/// sweeps on it without real sockets; the replication protocol's
/// sequence numbers and catch-up machinery are what make that safe.
///
/// Time is the caller's: `send` stamps departures with the caller's
/// `now`, `take_due(now)` returns everything that has arrived by `now`
/// in deterministic (arrival, send-sequence) order.
pub struct SimNet {
    queue: Queue,
    payloads: std::collections::HashMap<u64, (u32, u32, Message)>,
    seq: u64,
    rng: Rng,
    latency: u64,
    default_faults: LinkFaults,
    faults: std::collections::HashMap<(u32, u32), LinkFaults>,
    down: std::collections::HashSet<u32>,
    /// Fault and delivery counters.
    pub stats: FaultStats,
}

impl SimNet {
    /// A fabric with the given RNG seed and per-hop latency (ticks).
    pub fn new(seed: u64, latency: u64) -> SimNet {
        SimNet {
            queue: BinaryHeap::new(),
            payloads: std::collections::HashMap::new(),
            seq: 0,
            rng: Rng(seed | 1),
            latency,
            default_faults: LinkFaults::default(),
            faults: std::collections::HashMap::new(),
            down: std::collections::HashSet::new(),
            stats: FaultStats::default(),
        }
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
    pub fn send(&mut self, now: u64, from: u32, to: u32, msg: Message) {
        if self.down.contains(&from) || self.down.contains(&to) {
            self.stats.dropped += 1;
            return;
        }
        let faults = *self.faults.get(&(from, to)).unwrap_or(&self.default_faults);
        if self.rng.chance(faults.drop_chance) {
            self.stats.dropped += 1;
            return;
        }
        let mut at = now + self.latency;
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

/// Wire-byte counters by message class.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrafficStats {
    /// Bytes of client requests and replies.
    pub client_bytes: u64,
    /// Bytes of server-to-server subscription traffic
    /// (Subscribe/SubscribeReply/Notify/Unsubscribe).
    pub subscription_bytes: u64,
    /// Messages delivered.
    pub delivered: u64,
}

/// The request id of the synchronous convenience API's requests.
const SYNC_ID: u64 = u64::MAX;

/// The simulated cluster: servers plus a virtual network.
pub struct SimCluster {
    nodes: Vec<ServerNode>,
    queue: Queue,
    payloads: std::collections::HashMap<u64, (Endpoint, Endpoint, Message)>,
    replies: Vec<(u32, Message)>,
    /// What the node being stepped sends, before it goes on the wire.
    outbox: Vec<(Endpoint, pequod_core::NodeMsg)>,
    now: u64,
    seq: u64,
    rng: Rng,
    busy: Vec<std::time::Duration>,
    /// Simulator parameters.
    pub config: SimConfig,
    /// Wire accounting.
    pub traffic: TrafficStats,
}

impl SimCluster {
    /// Builds a cluster from server nodes (node `i` must have
    /// `ServerId(i)`).
    pub fn new(config: SimConfig, nodes: Vec<ServerNode>) -> SimCluster {
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id, ServerId(i as u32), "node ids must be dense");
        }
        let size = nodes.len() as u32;
        let nodes: Vec<ServerNode> = (nodes.into_iter()).map(|n| n.in_deployment(size)).collect();
        let busy = vec![std::time::Duration::ZERO; nodes.len()];
        SimCluster {
            nodes,
            queue: BinaryHeap::new(),
            payloads: std::collections::HashMap::new(),
            replies: Vec::new(),
            outbox: Vec::new(),
            now: 0,
            seq: 0,
            rng: Rng(config.seed | 1),
            busy,
            config,
            traffic: TrafficStats::default(),
        }
    }

    /// Wall-clock CPU time a server has spent processing messages. The
    /// scalability experiment (Figure 10) divides total query count by
    /// the busiest compute server's CPU time: since all simulated
    /// servers share one real core, per-server busy time is the honest
    /// stand-in for the per-server CPU bottleneck the paper measures.
    pub fn busy_time(&self, id: ServerId) -> std::time::Duration {
        self.busy[id.0 as usize]
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster has no servers.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A server by id.
    pub fn node(&self, id: ServerId) -> &ServerNode {
        &self.nodes[id.0 as usize]
    }

    /// Mutable access to a server.
    pub fn node_mut(&mut self, id: ServerId) -> &mut ServerNode {
        &mut self.nodes[id.0 as usize]
    }

    /// Audits the whole deployment, as
    /// [`ShardedEngine::check_invariants`](pequod_core::ShardedEngine::check_invariants)
    /// does for shards: every node's deep engine check plus
    /// node-to-node subscription symmetry
    /// ([`pequod_core::node::audit_deployment`]). Call it on a quiet
    /// network; empty means consistent.
    pub fn check_invariants(&self) -> Vec<String> {
        let audits: Vec<_> = self.nodes.iter().map(ServerNode::audit).collect();
        pequod_core::node::audit_deployment(&audits)
    }

    fn send(&mut self, from: Endpoint, to: Endpoint, msg: Message) {
        let bytes = encode_frame(&msg).len() as u64;
        let is_sub = matches!(
            msg,
            Message::Subscribe { .. }
                | Message::SubscribeReply { .. }
                | Message::Notify { .. }
                | Message::Unsubscribe { .. }
        );
        if is_sub {
            self.traffic.subscription_bytes += bytes;
        } else {
            self.traffic.client_bytes += bytes;
        }
        let mut delay = self.config.latency;
        if matches!(msg, Message::Notify { .. })
            && self.rng.chance(self.config.notify_jitter_chance)
        {
            delay += self.config.notify_jitter;
        }
        self.seq += 1;
        self.payloads.insert(self.seq, (from, to, msg));
        self.queue.push(Reverse((self.now + delay, self.seq)));
    }

    /// Injects a client request addressed to a server.
    pub fn request(&mut self, client: u32, server: ServerId, msg: Message) {
        self.send(
            Endpoint::Client(client.into()),
            Endpoint::Server(server),
            msg,
        );
    }

    /// Delivers the next message; returns false when the network is
    /// quiet.
    pub fn step(&mut self) -> bool {
        let Some(Reverse((at, seq))) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(at);
        let Some((from, to, msg)) = self.payloads.remove(&seq) else {
            // A queue entry without a payload would be a simulator bug;
            // skip the phantom envelope rather than crash mid-test.
            return true;
        };
        self.traffic.delivered += 1;
        match to {
            // Client tokens enter through `request` as `u32`s.
            Endpoint::Client(c) => self.replies.push((c as u32, msg)),
            Endpoint::Server(sid) => {
                let node = &mut self.nodes[sid.0 as usize];
                // Keep the engine's logical clock in sync with simulated
                // time (drives snapshot expiry).
                let behind = self.now.saturating_sub(node.engine.clock());
                node.engine.tick(behind);
                // audit: allow(wall-clock) — busy-time accounting measures
                // real compute per server; simulated time stays in `now`.
                let start = std::time::Instant::now();
                let mut out = std::mem::take(&mut self.outbox);
                deliver(node, from, msg, &mut out);
                self.busy[sid.0 as usize] += start.elapsed();
                for (to, m) in out.drain(..) {
                    self.send(Endpoint::Server(sid), to, wire(m));
                }
                self.outbox = out;
            }
        }
        true
    }

    /// Runs until no messages remain in flight.
    pub fn run_until_quiet(&mut self) {
        while self.step() {}
    }

    /// Takes accumulated client replies.
    pub fn take_replies(&mut self) -> Vec<(u32, Message)> {
        std::mem::take(&mut self.replies)
    }

    /// Takes the accumulated replies addressed to one client, leaving
    /// other clients' replies queued.
    pub fn take_replies_for(&mut self, client: u32) -> Vec<Message> {
        let mut out = Vec::new();
        self.replies.retain(|(c, m)| {
            if *c == client {
                out.push(m.clone());
                false
            } else {
                true
            }
        });
        out
    }

    // The synchronous convenience API: each call runs the network to
    // quiescence.

    /// Synchronous scan against one server.
    pub fn scan(&mut self, server: ServerId, range: KeyRange) -> Vec<(Key, Value)> {
        self.call(server, Message::Scan { id: SYNC_ID, range })
    }

    /// Synchronous put against one server (typically the key's home).
    pub fn put(&mut self, server: ServerId, key: impl Into<Key>, value: impl Into<Value>) {
        let (key, value) = (key.into(), value.into());
        self.call(
            server,
            Message::Put {
                id: SYNC_ID,
                key,
                value,
            },
        );
    }

    /// Synchronous remove against one server.
    pub fn remove(&mut self, server: ServerId, key: impl Into<Key>) {
        let key = key.into();
        self.call(server, Message::Remove { id: SYNC_ID, key });
    }

    /// Installs joins on every server.
    pub fn add_joins_everywhere(&mut self, text: &str) {
        for i in 0..self.nodes.len() {
            let text = text.to_string();
            self.call(ServerId(i as u32), Message::AddJoin { id: SYNC_ID, text });
        }
    }

    /// Sends `msg` as client 0, runs the network to quiescence and
    /// returns the reply's pairs.
    #[allow(clippy::expect_used)] // see the audit allow below
    fn call(&mut self, server: ServerId, msg: Message) -> Vec<(Key, Value)> {
        self.request(0, server, msg);
        self.run_until_quiet();
        let mut found = None;
        self.replies.retain(|(_, m)| {
            if let Message::Reply {
                id: SYNC_ID,
                pairs,
                error,
            } = m
            {
                if let Some(e) = error {
                    // audit: allow(no-unwrap) — the synchronous API is a
                    // test harness convenience; errors abort the test.
                    panic!("request failed: {e}");
                }
                found = Some(pairs.clone());
                return false;
            }
            true
        });
        // audit: allow(no-unwrap) — test-harness convenience: a missing
        // reply after run-to-quiescence is a harness bug, abort the test.
        found.expect("reply for synchronous request")
    }
}
