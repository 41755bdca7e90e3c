//! A deterministic in-process message fabric.
//!
//! Endpoints exchange [`Message`]s through a virtual network with a
//! per-hop latency, per-link fault injection (loss, duplication,
//! reordering, a fixed extra delay) and optional extra jitter on
//! `Notify` delivery — the asynchronous update propagation that makes
//! Pequod eventually consistent (§2.4). Delivery order is a
//! deterministic function of the seed, so distributed experiments and
//! tests reproduce exactly.
//!
//! The fabric also accounts wire bytes per message class using the real
//! codec, which the scalability experiment (Figure 10) reports as
//! "subscription maintenance" versus "client communication" bandwidth.

use crate::codec::encode_frame;
use crate::message::Message;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

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
/// duplicate, reorder or delay traffic. `pequod_cluster::SimHarness`
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
