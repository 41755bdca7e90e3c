//! One process of a replicated deployment: a [`ClusterNode`] is the
//! §2.4 server, [`Node`], with slot replication around it.
//!
//! The node is transport-agnostic — [`ClusterNode::handle`] consumes one
//! wire message from a peer and returns the messages to send in
//! response; [`ClusterNode::tick`] advances a logical millisecond clock
//! and returns timer-driven traffic (heartbeats, promotions, catch-up
//! retries, ack timeouts). The TCP driver (`server.rs`) and the
//! deterministic simulator (`sim.rs`) both drive the same machine.
//!
//! # Serving
//!
//! Reads, parked queries, fetch groups and Subscribe/Notify are the
//! `Node`'s: every read is `Node::handle`d (a client's `Scan` or `Get`
//! streamed by `Node::read_with`), wherever it arrives. The node's
//! [`Partition`] is the live slot view, so a key is homed here if this
//! node holds its slot, and at the slot's current primary otherwise — a
//! read that needs base data of a slot held elsewhere subscribes at
//! that slot's primary, and a join across slots is computed where it is
//! read. Every base table is partitioned over the slots; a join's
//! output table is computed data, placed by where clients read it. Two
//! rules keep replicas fresh as primaries move:
//!
//! - when an epoch change moves a slot's primary, a node that does not
//!   hold the slot forgets its replicas of the slot's keys and
//!   unsubscribes, so its next read subscribes again at the new
//!   primary ([`Node::drop_replicas`]);
//! - a `Notify` (or a grant) from a node that is not the key's home —
//!   a deposed primary's late traffic — is dropped by the `Node`.
//!
//! # Protocol summary
//!
//! The key space is split into `slots` (≤ 64) replication units by the
//! config's partition. Each slot has a replica set (`replicas[0]` =
//! primary) and a per-slot **epoch** bumped by every membership or
//! leadership change:
//!
//! - **Writes** go to the primary, which applies them through its
//!   `Node` (WAL + snapshot durability via the engine's authority hook;
//!   a `Notify` to every subscriber of the key), assigns a dense
//!   per-slot sequence number, and streams [`Message::NotifySeq`] to
//!   every follower (and migration learner). The client is acked only
//!   after *every* follower acked the sequence number — so any
//!   follower that later promotes has every acked write. Any other
//!   node answers a write with [`Message::NotPrimary`]. Alone, a node
//!   applies it straight to its engine and keeps no catch-up state.
//! - **Catch-up**: a follower that detects a gap (or restarts) sends
//!   [`Message::ReplicaSubscribe`] with its last applied sequence and
//!   the epoch that sequence was written under. The primary replays
//!   from its in-memory window when the `(seq, epoch)` lineage matches,
//!   and falls back to a chunked [`Message::SnapshotChunk`] transfer
//!   otherwise (divergent suffix of a deposed primary, or the window no
//!   longer reaches).
//! - **Failover**: followers promote after missed heartbeats, staggered
//!   by replica position so the first live follower wins. Promotion
//!   bumps the epoch and broadcasts [`Message::EpochChange`]; a deposed
//!   primary that comes back re-requests admission and is added back
//!   (another epoch bump). A primary that is deposed, or migrates a slot
//!   away, answers the slot's unacked writes (and a migration it was
//!   running) with [`Message::NotPrimary`] naming the new primary, so a
//!   client resends them there; an error `Reply` is always final.
//! - **Migration** (install → dual-notify → flip → drop): the primary
//!   snapshots the slot to a learner, mirrors every new write to it,
//!   and once the learner is caught up bumps the epoch with the learner
//!   replacing the outgoing member, which deletes its copy (it is named
//!   in [`Message::EpochChange::dropped`] so it does not re-join).
//!
//! Per-slot progress (`applied seq`, `log epoch`) and the epoch view
//! are persisted *through the store itself* under `#rep|NN` and
//! `#epoch|NN` meta keys — `#` sorts before every table name, cannot
//! start a user key, and the slot view homes it on every node, so
//! replication state rides the existing WAL/snapshot machinery and
//! survives restarts for free.

use crate::config::ClusterConfig;
use crate::subscription::{Node, NodeStats};
use pequod_core::partition::{Partition, ServerId};
use pequod_core::{BackendStats, Engine, JoinId};
use pequod_join::{parse_joins, JoinSpec};
use pequod_net::codec::{encode_frame_into, ReplyFrame};
use pequod_net::message::COUNT_KEY;
use pequod_net::Message;
use pequod_store::{Key, KeyRange, Value, ValueRef};
use pequod_telemetry::{metric, Snapshot};
use std::collections::{HashMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// `EpochChange::upto_seq` sentinel: "this is a relayed view, not the
/// promotion event — never clean-adopt, resubscribe to verify".
pub const NO_CLEAN_ADOPT: u64 = u64::MAX;

/// Pairs per snapshot chunk frame.
const SNAP_CHUNK_PAIRS: usize = 4096;

/// The answer to a client command on a `#` meta key.
const RESERVED: &str = "keys starting with '#' are reserved";

/// The answer to server-to-server traffic on a client connection.
const UNSUPPORTED: &str = "unsupported on client connection";

/// Who a message came from / goes to. The transport layer maps client
/// connection identities and node links onto this.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ClusterPeer {
    /// A client connection, by transport-assigned id.
    Client(u64),
    /// A cluster member, by node id.
    Node(u32),
}

/// Messages to deliver, in order.
pub type Out = Vec<(ClusterPeer, Message)>;

/// The entries under which [`ClusterNode::telemetry_snapshot`] carries
/// the node's [`BackendStats`]: keys and memory as gauges, the two
/// eviction counts as counters.
const BACKEND_METRICS: [&str; 4] = [
    "pequod_backend_keys",
    "pequod_backend_memory_bytes",
    "pequod_backend_js_evictions_total",
    "pequod_backend_base_evictions_total",
];

/// The [`BackendStats`] a node's `Metrics` reply carries, from its
/// flattened pairs; a missing entry reads 0.
pub(crate) fn backend_stats_of(pairs: &[(String, String)]) -> BackendStats {
    let [keys, memory_bytes, js_evictions, base_evictions] =
        BACKEND_METRICS.map(|name| metric(pairs, name).unwrap_or(0));
    BackendStats {
        keys,
        memory_bytes,
        js_evictions,
        base_evictions,
    }
}

/// Replication counters, each read as one `pequod_cluster_*` entry of
/// [`ClusterNode::telemetry_snapshot`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterStats {
    /// Client writes applied as primary.
    pub writes_applied: u64,
    /// Client writes acknowledged (all followers confirmed).
    pub writes_acked: u64,
    /// `NotPrimary` redirects issued.
    pub redirects: u64,
    /// Replicated ops streamed to followers/learners.
    pub notifies_sent: u64,
    /// Replicated ops applied as follower/learner.
    pub notifies_applied: u64,
    /// Self-promotions after missed heartbeats.
    pub promotions: u64,
    /// Epochs adopted from peers.
    pub epoch_changes: u64,
    /// Followers dropped for missing the ack deadline.
    pub follower_drops: u64,
    /// Nodes re-admitted to a replica set by this primary.
    pub readmissions: u64,
    /// Migrations completed (flips) by this primary.
    pub migrations: u64,
    /// Catch-up subscriptions sent.
    pub catchup_subscribes: u64,
    /// Window ops replayed to catching-up peers.
    pub delta_ops_sent: u64,
    /// Delta payload bytes replayed (keys + values).
    pub delta_bytes_sent: u64,
    /// Snapshot chunks sent.
    pub snap_chunks_sent: u64,
    /// Snapshot payload bytes sent (keys + values).
    pub snap_bytes_sent: u64,
    /// Snapshot chunks received.
    pub snap_chunks_in: u64,
    /// Snapshot payload bytes received.
    pub snap_bytes_in: u64,
    /// Snapshot installs completed.
    pub snap_installs: u64,
}

/// An in-progress snapshot install (receiver side).
struct SnapInstall {
    /// Epoch stamped on the chunks.
    epoch: u64,
}

/// An in-progress migration (primary side).
struct Migration {
    /// The member leaving.
    from: u32,
    /// The learner joining.
    to: u32,
    /// Who asked, and under which request id.
    client: ClusterPeer,
    id: u64,
    /// Give up (and tell the learner to drop) after this time.
    deadline: u64,
}

/// A client write awaiting follower acknowledgments.
struct PendingWrite {
    slot: u32,
    seq: u64,
    client: ClusterPeer,
    id: u64,
    deadline: u64,
}

/// Per-slot replication state. Every node tracks every slot (non-members
/// keep only the epoch/replica view, for redirects).
struct SlotState {
    epoch: u64,
    /// Current replica set; index 0 is the primary.
    replicas: Vec<u32>,
    /// Epoch under which `applied` was last advanced locally.
    log_epoch: u64,
    /// Last applied per-slot sequence number.
    applied: u64,
    /// Recent ops for delta catch-up: `(seq, epoch_assigned, key, value)`,
    /// oldest first.
    window: VecDeque<(u64, u64, Key, Option<Value>)>,
    /// Primary: cumulative acks per follower.
    follower_acked: HashMap<u32, u64>,
    /// Follower: promote when the clock passes this.
    hb_deadline: u64,
    /// Primary: next heartbeat time.
    next_hb: u64,
    /// A catch-up subscription is outstanding.
    catching_up: bool,
    /// Next allowed (re)subscription time.
    catchup_at: u64,
    /// Round-robin cursor over retry targets.
    catchup_rr: u32,
    /// Snapshot install in progress.
    snap: Option<SnapInstall>,
    /// Ops buffered while a snapshot installs: `(seq, epoch, key, value)`.
    buffer: Vec<(u64, u64, Key, Option<Value>)>,
    /// Migration learner (primary side).
    learner: Option<u32>,
    /// Learner's cumulative ack.
    learner_acked: u64,
    /// Migration source is this node and the learner is synced: bounce
    /// new writes until the flip so the handover drains.
    flip_armed: bool,
    /// Migration in flight (primary side).
    migration: Option<Migration>,
}

impl SlotState {
    fn new(replicas: Vec<u32>) -> SlotState {
        SlotState {
            epoch: 0,
            replicas,
            log_epoch: 0,
            applied: 0,
            window: VecDeque::new(),
            follower_acked: HashMap::new(),
            hb_deadline: u64::MAX,
            next_hb: 0,
            catching_up: false,
            catchup_at: 0,
            catchup_rr: 0,
            snap: None,
            buffer: Vec::new(),
            learner: None,
            learner_acked: 0,
            flip_armed: false,
            migration: None,
        }
    }

    fn primary(&self) -> u32 {
        self.replicas.first().copied().unwrap_or(u32::MAX)
    }

    fn is_member(&self, node: u32) -> bool {
        self.replicas.contains(&node)
    }
}

/// Where this node believes each slot lives, shared with its `Node` as
/// the node's [`Partition`]: a key is homed here if this node holds its
/// slot, at the slot's primary otherwise, and a `#` meta key always
/// here. The node's base-authority predicate — hence WAL coverage and
/// eviction safety — is "homed here", read without locking. The atomics
/// are written and read only by the thread that owns the `ClusterNode`
/// (the simulator's, or the TCP server's reactor thread, which `halt`
/// joins before it takes the node back), so `Relaxed` publishes nothing
/// across threads.
struct SlotView {
    me: u32,
    cfg: ClusterConfig,
    /// Bit `s` set ⇔ this node holds slot `s`.
    held: AtomicU64,
    /// Slot `s`'s primary, by this node's epoch view.
    primaries: Vec<AtomicU32>,
}

impl SlotView {
    fn home_of_slot(&self, slot: u32) -> ServerId {
        if (self.held.load(Ordering::Relaxed) >> slot) & 1 == 1 {
            return ServerId(self.me);
        }
        let primary = self.primaries.get(slot as usize);
        ServerId(primary.map_or(self.me, |p| p.load(Ordering::Relaxed)))
    }

    /// A node holding every slot homes every range: nothing to gather.
    fn holds_every_slot(&self) -> bool {
        let all = u64::MAX >> (64 - self.cfg.slots);
        self.held.load(Ordering::Relaxed) & all == all
    }
}

impl Partition for SlotView {
    fn home_of(&self, key: &Key) -> ServerId {
        if is_meta(key) {
            return ServerId(self.me);
        }
        self.home_of_slot(self.cfg.slot_of(key))
    }

    fn home_of_range(&self, range: &KeyRange) -> Option<ServerId> {
        if self.holds_every_slot() {
            return Some(ServerId(self.me));
        }
        Some(self.home_of_slot(self.cfg.slot_of_range(range)?))
    }

    fn homes(&self) -> Option<Vec<ServerId>> {
        Some((0..self.cfg.slots).map(|s| self.home_of_slot(s)).collect())
    }
}

/// Server-to-server frames: the transport's `Hello` and the replication
/// protocol. A client that sends one gets one [`UNSUPPORTED`] error.
pub(crate) fn is_peer_only(msg: &Message) -> bool {
    matches!(msg, Message::Hello { .. }) || replicated_slot(msg).is_some()
}

/// The slot a replication frame is about; `None` for any other frame.
fn replicated_slot(msg: &Message) -> Option<u32> {
    match msg {
        Message::ReplicaSubscribe { slot, .. }
        | Message::NotifySeq { slot, .. }
        | Message::NotifyAck { slot, .. }
        | Message::Heartbeat { slot, .. }
        | Message::SnapshotChunk { slot, .. }
        | Message::EpochChange { slot, .. } => Some(*slot),
        _ => None,
    }
}

/// Encodes `outbox`'s replies to `client` into `out`, counting them, the rest to `late`.
fn split_replies(client: ClusterPeer, outbox: Out, out: &mut Vec<u8>, late: &mut Out) -> usize {
    let mut replied = 0;
    for (to, frame) in outbox {
        if to == client {
            encode_frame_into(&frame, out);
            replied += 1;
        } else {
            late.push((to, frame));
        }
    }
    replied
}

/// Runs `f`, a call into the `Node` that appends its messages to `out`.
/// A client never sees the `#` meta rows: they leave its replies here
/// (a count's `#count` pair is the answer, not a row).
fn hide_meta<R>(out: &mut Out, f: impl FnOnce(&mut Out) -> R) -> R {
    let first = out.len();
    let result = f(out);
    for (to, msg) in &mut out[first..] {
        if let (ClusterPeer::Client(_), Message::Reply { pairs, .. }) = (to, msg) {
            pairs.retain(|(k, _)| !is_meta(k) || k.as_bytes() == COUNT_KEY.as_bytes());
        }
    }
    result
}

/// Replication metadata, not user data: `#rep|NN`, `#epoch|NN`.
fn is_meta(key: &Key) -> bool {
    key.as_bytes().first() == Some(&b'#')
}

/// The first `#` row of `engine` other than `#rep|N` and `#epoch|N`: a
/// user key stored before `#` was reserved, on which no node may start.
pub fn foreign_reserved_key(engine: &Engine) -> Option<Key> {
    let mut found = None;
    engine.store().scan(&KeyRange::prefix("#"), |k, _| {
        let k = k.as_bytes();
        let n = (k.strip_prefix(b"#rep|")).or_else(|| k.strip_prefix(b"#epoch|"));
        let ours = n.is_some_and(|n| !n.is_empty() && n.iter().all(u8::is_ascii_digit));
        found = (!ours).then(|| Key::from(k.to_vec()));
        ours
    });
    found
}

/// The per-process node: one [`Node`] and the replication of its slots.
/// The transport driver feeds it messages and clock ticks. It
/// dereferences to the `Node` — its `engine`, subscriptions and audit.
pub struct ClusterNode {
    id: u32,
    cfg: ClusterConfig,
    /// The §2.4 server every read, subscription and notification goes
    /// through.
    node: Node,
    view: Arc<SlotView>,
    slots: Vec<SlotState>,
    pending: Vec<PendingWrite>,
    now: u64,
    booted: bool,
    /// Replication counters.
    pub stats: ClusterStats,
}

impl Deref for ClusterNode {
    type Target = Node;

    fn deref(&self) -> &Node {
        &self.node
    }
}

impl DerefMut for ClusterNode {
    fn deref_mut(&mut self) -> &mut Node {
        &mut self.node
    }
}

fn meta_rep_key(slot: u32) -> Key {
    Key::from(format!("#rep|{slot:02}"))
}

fn meta_epoch_key(slot: u32) -> Key {
    Key::from(format!("#epoch|{slot:02}"))
}

fn ascii(v: impl ToString) -> Value {
    Value::from(v.to_string().into_bytes())
}

fn parse_u64s(v: &Value) -> Vec<u64> {
    match std::str::from_utf8(v) {
        Ok(s) => s.split([' ', ',']).filter_map(|t| t.parse().ok()).collect(),
        Err(_) => Vec::new(),
    }
}

impl ClusterNode {
    /// Wraps `engine` as cluster node `id`. The engine may already
    /// carry recovered state (warm restart): per-slot progress and
    /// epoch views are read back from the `#`-prefixed meta keys, and
    /// every slot this node is a member of starts a catch-up
    /// subscription to fetch what it missed while down.
    pub fn new(id: u32, cfg: ClusterConfig, mut engine: Engine) -> ClusterNode {
        let view = Arc::new(SlotView {
            me: id,
            cfg: cfg.clone(),
            held: AtomicU64::new(0),
            primaries: (0..cfg.slots).map(|_| AtomicU32::new(id)).collect(),
        });
        let mut slots = Vec::with_capacity(cfg.slots as usize);
        for s in 0..cfg.slots {
            let mut st = SlotState::new(cfg.initial_replicas(s));
            if let Some(v) = engine.get(&meta_epoch_key(s)) {
                let nums = parse_u64s(&v);
                if nums.len() >= 2 {
                    st.epoch = nums[0];
                    st.replicas = nums[1..].iter().map(|&n| n as u32).collect();
                }
            }
            if let Some(v) = engine.get(&meta_rep_key(s)) {
                let nums = parse_u64s(&v);
                if nums.len() >= 2 {
                    st.applied = nums[0];
                    st.log_epoch = nums[1];
                }
            }
            if st.is_member(id) {
                view.held.fetch_or(1 << s, Ordering::Relaxed);
            }
            view.primaries[s as usize].store(st.primary(), Ordering::Relaxed);
            if st.is_member(id) && st.primary() != id {
                // Warm restart / boot: ask the primary for the delta we
                // missed. The primary answers with an empty delta plus a
                // heartbeat when there is nothing to fetch. The failover
                // deadline is armed on the first tick — the driver's
                // clock may be far past zero, and an absolute deadline
                // here would promote instantly over a live primary.
                st.catching_up = true;
                st.catchup_at = 0;
            }
            slots.push(st);
        }
        let node = Node::new(ServerId(id), cfg.nodes.len() as u32, engine, view.clone());
        let mut node = ClusterNode {
            id,
            cfg,
            node,
            view,
            slots,
            pending: Vec::new(),
            now: 0,
            booted: false,
            stats: ClusterStats::default(),
        };
        if node.has_peers() {
            node.purge_unheld_rows();
        }
        node
    }

    /// Whether the deployment has another node. Alone, a node
    /// partitions no table, and a write goes straight to the engine with
    /// no window or `#rep` row kept (its slots' `applied` still counts).
    fn has_peers(&self) -> bool {
        self.cfg.nodes.len() > 1
    }

    /// A node stores a slot's rows only while it holds the slot, so
    /// that what the engine's authority filter calls durable and what
    /// the WAL (and the snapshots folded from it) holds agree. A restart
    /// can recover rows of a slot the node no longer holds — a laggard
    /// dropped from the replica set before it crashed, a learner whose
    /// migration the crash cut short. They are deleted here, under a
    /// momentary authority bit so the removals reach the WAL.
    ///
    /// The tables of the recovered rows are partitioned here too (see
    /// [`ClusterNode::partition_table`]).
    fn purge_unheld_rows(&mut self) {
        let held = self.view.held.swap(u64::MAX, Ordering::Relaxed);
        let (_joins, pairs) = self.node.engine.durable_state();
        for (k, _) in pairs {
            if is_meta(&k) {
                continue;
            }
            self.partition_table(&k);
            if (held >> self.cfg.slot_of(&k)) & 1 == 0 {
                self.node.engine.remove(&k);
            }
        }
        self.view.held.store(held, Ordering::Relaxed);
        self.partition_join_sources();
    }

    /// Every base table is partitioned over the slots: the first time
    /// this node meets a table, its engine learns that the table's rows
    /// it does not hold live elsewhere. A join's output table (computed
    /// data) is not partitioned, nor is anything at a one-node cluster.
    fn partition_table(&mut self, key: &Key) {
        if !self.has_peers() {
            return;
        }
        let engine = &mut self.node.engine;
        let table = key.table_prefix();
        if table.is_empty()
            || is_meta(&table)
            || engine.is_remote_table(&table)
            || engine.is_output_table(&table)
        {
            return;
        }
        engine.mark_remote_table(table);
    }

    /// Partitions the tables every installed join reads.
    fn partition_join_sources(&mut self) {
        let engine = &self.node.engine;
        let specs: Vec<JoinSpec> = (0..engine.join_count() as u32)
            .map(|j| engine.join(JoinId(j)).clone())
            .collect();
        self.partition_sources(&specs);
    }

    /// Partitions the tables `specs` read, apart from those they
    /// compute. A join is partitioned before the engine installs it: one
    /// materialized at install (`MaterializationMode::Full`) must find
    /// its sources missing here, not empty.
    fn partition_sources(&mut self, specs: &[JoinSpec]) {
        for source in specs.iter().flat_map(|spec| &spec.sources) {
            let table = source.pattern.key_space().first.table_prefix();
            let space = KeyRange::prefix(table.clone());
            if !specs
                .iter()
                .any(|spec| spec.output_range().overlaps(&space))
            {
                self.partition_table(&table);
            }
        }
    }

    /// This node's id.
    pub fn node_id(&self) -> u32 {
        self.id
    }

    /// The `Node`'s counters: subscriptions, notifications, parks.
    pub fn node_stats(&self) -> NodeStats {
        self.node.stats
    }

    /// The engine's counters, the `#` replication metadata rows left
    /// out of the key count.
    pub fn backend_stats(&self) -> BackendStats {
        let mut stats = self.node.engine.backend_stats();
        let mut meta = 0;
        (self.node.engine.store()).scan(&KeyRange::prefix("#"), |_, _| {
            meta += 1;
            true
        });
        stats.keys = stats.keys.saturating_sub(meta);
        stats
    }

    /// The cluster config this node was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The current logical time, in ms.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The node this one believes is `slot`'s primary.
    pub fn primary_of(&self, slot: u32) -> u32 {
        self.slots
            .get(slot as usize)
            .map_or(u32::MAX, SlotState::primary)
    }

    /// Whether this node is `slot`'s primary (by its own view).
    pub fn is_primary(&self, slot: u32) -> bool {
        self.primary_of(slot) == self.id
    }

    fn slot_of(&self, key: &Key) -> u32 {
        self.cfg.slot_of(key)
    }

    /// Whether this node stores `slot`'s data (as a member or a
    /// learner).
    fn holds(&self, slot: u32) -> bool {
        (self.view.held.load(Ordering::Relaxed) >> slot) & 1 == 1
    }

    fn set_holding(&mut self, slot: u32, holding: bool) {
        if holding {
            self.view.held.fetch_or(1u64 << slot, Ordering::Relaxed);
        } else {
            self.view.held.fetch_and(!(1u64 << slot), Ordering::Relaxed);
        }
    }

    /// Forgets this node's replicas of `slot`'s keys — every resident
    /// range that may hold one — and unsubscribes from their homes, so
    /// the next read subscribes again under the current view.
    fn forget_slot(&mut self, slot: u32, out: &mut Out) {
        let cfg = &self.cfg;
        let of_slot = |range: &KeyRange| cfg.slot_of_range(range).is_none_or(|s| s == slot);
        hide_meta(out, |out| self.node.drop_replicas(of_slot, out));
    }

    /// The `Subscribe`s of open fetches still waiting on `peer`, to send
    /// again on a link to it that came back: one sent while the link
    /// was down was lost (see [`Node::resubscribe`]).
    pub fn resubscribe(&mut self, peer: u32) -> Out {
        let mut out = Vec::new();
        self.node.resubscribe(ServerId(peer), &mut out);
        out
    }

    fn persist_rep(&mut self, slot: u32) {
        let st = &self.slots[slot as usize];
        let value = ascii(format!("{} {}", st.applied, st.log_epoch));
        self.node.engine.put(meta_rep_key(slot), value);
    }

    /// Persists `slot`'s epoch view and publishes its primary to the
    /// `Node`'s partition. When the primary moved and this node does not
    /// hold the slot, what the old primary served it is forgotten.
    fn persist_epoch(&mut self, slot: u32, out: &mut Out) {
        let st = &self.slots[slot as usize];
        let replicas: Vec<String> = st.replicas.iter().map(u32::to_string).collect();
        let value = ascii(format!("{} {}", st.epoch, replicas.join(",")));
        let (primary, holding) = (st.primary(), self.holds(slot));
        self.node.engine.put(meta_epoch_key(slot), value);
        let moved = self.view.primaries[slot as usize].swap(primary, Ordering::Relaxed) != primary;
        if moved && !holding {
            self.forget_slot(slot, out);
        }
    }

    fn push_window(&mut self, slot: u32, seq: u64, epoch: u64, key: Key, value: Option<Value>) {
        let max = self.cfg.window.max(1);
        let st = &mut self.slots[slot as usize];
        st.window.push_back((seq, epoch, key, value));
        while st.window.len() > max + 1 {
            st.window.pop_front();
        }
    }

    /// Tells every other node `slot`'s new epoch view, as of this
    /// node's position in it (`dropped` names a member leaving for good).
    fn announce(&self, slot: u32, dropped: Option<u32>, out: &mut Out) {
        let msg = self.epoch_change_msg(slot, self.slots[slot as usize].applied, dropped);
        for n in (0..self.cfg.nodes.len() as u32).filter(|n| *n != self.id) {
            out.push((ClusterPeer::Node(n), msg.clone()));
        }
    }

    /// When this follower of `slot` promotes itself if the primary stays
    /// silent: staggered by its position in the replica set.
    fn failover_deadline(&self, slot: u32) -> u64 {
        let replicas = &self.slots[slot as usize].replicas;
        let pos = replicas.iter().position(|r| *r == self.id).unwrap_or(1);
        self.now + self.cfg.timing.failover_ms * pos.max(1) as u64
    }

    /// This node's acknowledgment of its position in `slot`.
    fn ack(&self, slot: u32) -> Message {
        let st = &self.slots[slot as usize];
        let (epoch, seq) = (st.epoch, st.applied);
        Message::NotifyAck { slot, epoch, seq }
    }

    fn epoch_change_msg(&self, slot: u32, upto_seq: u64, dropped: Option<u32>) -> Message {
        let st = &self.slots[slot as usize];
        Message::EpochChange {
            slot,
            epoch: st.epoch,
            replicas: st.replicas.clone(),
            upto_seq,
            dropped,
        }
    }

    /// Base pairs of `slot` held locally, meta keys excluded. Test and
    /// snapshot-transfer accessor; replicas of a slot must agree on
    /// this exactly once traffic quiesces.
    pub fn slot_pairs(&mut self, slot: u32) -> Vec<(Key, Value)> {
        let (_joins, pairs) = self.node.engine.durable_state();
        pairs
            .into_iter()
            .filter(|(k, _)| k.as_bytes().first() != Some(&b'#') && self.cfg.slot_of(k) == slot)
            .collect()
    }

    fn drop_slot_data(&mut self, slot: u32, out: &mut Out) {
        // Delete while the authority bit is still set so the removals
        // reach the WAL; then drop authority.
        let doomed: Vec<Key> = self.slot_pairs(slot).into_iter().map(|(k, _)| k).collect();
        for k in &doomed {
            self.node.engine.remove(k);
        }
        self.set_holding(slot, false);
        self.forget_slot(slot, out);
        let st = &mut self.slots[slot as usize];
        st.window.clear();
        st.buffer.clear();
        st.snap = None;
        st.catching_up = false;
        st.applied = 0;
        st.log_epoch = 0;
        self.persist_rep(slot);
    }

    /// Sends every unacked write of `slot` back to its client as a
    /// `NotPrimary` naming the slot's primary under the current epoch,
    /// where the client resends it.
    fn fail_pending(&mut self, slot: u32, out: &mut Out) {
        let (failed, kept): (Vec<PendingWrite>, _) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| p.slot == slot);
        self.pending = kept;
        let primary = self.primary_of(slot);
        for p in failed {
            self.redirect(p.client, p.id, slot, primary, out);
        }
    }

    fn maybe_ack_pending(&mut self, slot: u32, out: &mut Out) {
        let min_acked = {
            let st = &self.slots[slot as usize];
            st.replicas[1..]
                .iter()
                .map(|f| st.follower_acked.get(f).copied().unwrap_or(0))
                .min()
                .unwrap_or(st.applied)
        };
        let (acked, kept): (Vec<PendingWrite>, _) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| p.slot == slot && p.seq <= min_acked);
        self.pending = kept;
        self.stats.writes_acked += acked.len() as u64;
        out.extend(
            acked
                .into_iter()
                .map(|p| (p.client, Message::reply(p.id, Vec::new()))),
        );
    }
}

// ----------------------------------------------------------------------
// Message handling
// ----------------------------------------------------------------------

impl ClusterNode {
    /// Handles one message from `from`, returning the messages to send.
    pub fn handle(&mut self, from: ClusterPeer, msg: Message) -> Out {
        let mut out = Vec::new();
        self.dispatch(from, msg, &mut out);
        out
    }

    fn dispatch(&mut self, from: ClusterPeer, msg: Message, out: &mut Out) {
        if matches!(from, ClusterPeer::Client(_)) && is_peer_only(&msg) {
            out.push((from, Message::error(0, UNSUPPORTED)));
            return;
        }
        // A peer's frame for a slot there is not: dropped.
        if replicated_slot(&msg).is_some_and(|slot| slot >= self.cfg.slots) {
            return;
        }
        match msg {
            Message::Put { id, key, value } => self.client_write(from, id, key, Some(value), out),
            Message::Remove { id, key } => self.client_write(from, id, key, None, out),
            Message::Metrics { id, flight } => {
                let snapshot = self.telemetry_snapshot(flight);
                out.push((from, Message::metrics_reply(id, &snapshot)));
            }
            Message::Migrate {
                id,
                slot,
                from: src,
                to,
            } => self.start_migration(from, id, slot, src, to, out),
            Message::Batch { msgs } => {
                for m in msgs {
                    self.dispatch(from, m, out);
                }
            }
            Message::ReplicaSubscribe {
                slot,
                epoch,
                log_epoch,
                from_seq,
            } => self.on_replica_subscribe(from, slot, epoch, log_epoch, from_seq, out),
            Message::NotifySeq {
                slot,
                epoch,
                seq,
                key,
                value,
            } => self.on_notify_seq(from, slot, epoch, seq, key, value, out),
            Message::NotifyAck {
                slot,
                epoch: _,
                seq,
            } => self.on_ack(from, slot, seq, out),
            Message::Heartbeat { slot, epoch, seq } => {
                self.on_heartbeat(from, slot, epoch, seq, out)
            }
            Message::SnapshotChunk {
                slot,
                epoch,
                upto_seq,
                done,
                pairs,
            } => self.on_snapshot_chunk(from, slot, epoch, upto_seq, done, pairs, out),
            Message::EpochChange {
                slot,
                epoch,
                replicas,
                upto_seq,
                dropped,
            } => self.on_epoch_change(from, slot, epoch, replicas, upto_seq, dropped, out),
            // A peer's first frame, consumed by the transport driver.
            Message::Hello { .. } => {}
            other => self.hand_to_node(from, other, out),
        }
    }

    // ------------------------------------------------------------------
    // Client requests and the §2.4 traffic: the `Node`'s
    // ------------------------------------------------------------------

    /// Serves a frame from client connection `client`: the replies it
    /// has now are encoded into `out` in request order (their number is
    /// returned), the rest of its output is appended to `late`. A `Scan`
    /// or `Get` streams from the store into its reply frame, `#` rows
    /// skipped, or, incomplete here, leaves no bytes and waits on the
    /// `Node`'s fetches; anything else goes through `handle`.
    pub fn serve_client(
        &mut self,
        client: u64,
        msg: Message,
        out: &mut Vec<u8>,
        late: &mut Out,
    ) -> usize {
        let from = ClusterPeer::Client(client);
        let (id, range) = match msg {
            Message::Batch { msgs } => {
                return (msgs.into_iter())
                    .map(|m| self.serve_client(client, m, out, late))
                    .sum();
            }
            Message::Scan { id, range } => (id, range),
            // A wire `Get` is the scan of one key: its reply carries the
            // pair, key included.
            Message::Get { id, key } if !is_meta(&key) => (id, KeyRange::single(key)),
            msg => return split_replies(from, self.handle(from, msg), out, late),
        };
        self.partition_table(&range.first);
        let mut frame = ReplyFrame::begin(out, id);
        let visit = |k: &Key, v: ValueRef<'_>| {
            if !is_meta(k) {
                frame.pair(k, &v);
            }
        };
        let mut outbox = Vec::new();
        let complete = hide_meta(&mut outbox, |outbox| {
            (self.node).read_with(from, id, &range, visit, outbox)
        });
        if complete {
            frame.finish();
        } else {
            frame.abandon();
        }
        usize::from(complete) + split_replies(from, outbox, out, late)
    }

    /// Hands a read, a join, or subscription traffic to the `Node`.
    fn hand_to_node(&mut self, from: ClusterPeer, msg: Message, out: &mut Out) {
        match &msg {
            Message::Get { id, key } if is_meta(key) => {
                return out.push((from, Message::error(*id, RESERVED)));
            }
            Message::Get { key, .. } => self.partition_table(key),
            Message::Scan { range, .. } | Message::Count { range, .. } => {
                self.partition_table(&range.first)
            }
            _ => {}
        }
        if let Message::AddJoin { text, .. } = &msg {
            // Text that does not parse is refused by the engine.
            self.partition_sources(&parse_joins(text).unwrap_or_default());
        }
        hide_meta(out, |out| self.node.handle(from, msg, out));
    }

    fn redirect(&mut self, from: ClusterPeer, id: u64, slot: u32, node: u32, out: &mut Out) {
        self.stats.redirects += 1;
        let epoch = self.slots[slot as usize].epoch;
        out.push((
            from,
            Message::NotPrimary {
                id,
                slot,
                epoch,
                node,
            },
        ));
    }

    fn client_write(
        &mut self,
        from: ClusterPeer,
        id: u64,
        key: Key,
        value: Option<Value>,
        out: &mut Out,
    ) {
        if is_meta(&key) {
            out.push((from, Message::error(id, RESERVED)));
            return;
        }
        let slot = self.slot_of(&key);
        let primary = self.primary_of(slot);
        if primary != self.id {
            self.redirect(from, id, slot, primary, out);
            return;
        }
        if self.slots[slot as usize].flip_armed {
            // Migration handover draining: bounce the write back at
            // ourselves; the client's retry lands after the flip.
            self.redirect(from, id, slot, self.id, out);
            return;
        }
        let (seq, epoch, followers, learner) = {
            let st = &mut self.slots[slot as usize];
            st.applied += 1;
            st.log_epoch = st.epoch;
            (st.applied, st.epoch, st.replicas[1..].to_vec(), st.learner)
        };
        self.node.stats.commands += 1;
        if self.has_peers() {
            // The `Node` applies the write at its home and notifies the
            // key's subscribers; the acknowledgment is the replicated
            // one below.
            self.partition_table(&key);
            self.node.write(key.clone(), value.clone(), out);
            self.push_window(slot, seq, epoch, key.clone(), value.clone());
            self.persist_rep(slot);
        } else {
            // Alone, nobody can subscribe: the engine applies the write.
            match &value {
                Some(v) => self.node.engine.put(key.clone(), v.clone()),
                None => self.node.engine.remove(&key),
            }
        }
        self.stats.writes_applied += 1;
        let mut targets = followers;
        if let Some(l) = learner {
            targets.push(l);
        }
        for t in &targets {
            self.stats.notifies_sent += 1;
            out.push((
                ClusterPeer::Node(*t),
                Message::NotifySeq {
                    slot,
                    epoch,
                    seq,
                    key: key.clone(),
                    value: value.clone(),
                },
            ));
        }
        let has_followers = self.slots[slot as usize].replicas.len() > 1;
        if has_followers {
            self.pending.push(PendingWrite {
                slot,
                seq,
                client: from,
                id,
                deadline: self.now + self.cfg.timing.ack_timeout_ms,
            });
        } else {
            self.stats.writes_acked += 1;
            out.push((from, Message::reply(id, Vec::new())));
        }
    }

    // ------------------------------------------------------------------
    // Replication: catch-up serving (primary side)
    // ------------------------------------------------------------------

    fn on_replica_subscribe(
        &mut self,
        from: ClusterPeer,
        slot: u32,
        _epoch: u64,
        log_epoch: u64,
        from_seq: u64,
        out: &mut Out,
    ) {
        let ClusterPeer::Node(n) = from else { return };
        if self.primary_of(slot) != self.id {
            // Not ours: answer with our view so the subscriber retargets.
            out.push((from, self.epoch_change_msg(slot, NO_CLEAN_ADOPT, None)));
            return;
        }
        // Re-admission: a subscriber that is neither member nor learner
        // wants back in (restarted follower, deposed primary).
        let is_known = {
            let st = &self.slots[slot as usize];
            st.is_member(n) || st.learner == Some(n)
        };
        if !is_known {
            {
                let st = &mut self.slots[slot as usize];
                st.epoch += 1;
                st.replicas.push(n);
                st.log_epoch = st.epoch;
            }
            self.persist_epoch(slot, out);
            self.stats.readmissions += 1;
            self.announce(slot, None, out);
        }
        {
            let st = &mut self.slots[slot as usize];
            if st.is_member(n) {
                st.follower_acked.insert(n, from_seq);
            }
        }
        // Delta when the subscriber's (seq, epoch) position exists in
        // our window — the same op in the same lineage — else snapshot.
        let (applied, my_log_epoch) = {
            let st = &self.slots[slot as usize];
            (st.applied, st.log_epoch)
        };
        let delta_ok = if from_seq == applied {
            log_epoch == my_log_epoch
        } else if from_seq < applied {
            let st = &self.slots[slot as usize];
            if from_seq == 0 {
                st.window.front().map(|e| e.0) == Some(1) || applied == 0
            } else {
                st.window
                    .iter()
                    .any(|(s, e, _, _)| *s == from_seq && *e == log_epoch)
            }
        } else {
            false // subscriber is ahead of us: divergent suffix
        };
        let epoch = self.slots[slot as usize].epoch;
        if delta_ok {
            let replay: Vec<(u64, Key, Option<Value>)> = self.slots[slot as usize]
                .window
                .iter()
                .filter(|(s, _, _, _)| *s > from_seq)
                .map(|(s, _, k, v)| (*s, k.clone(), v.clone()))
                .collect();
            for (seq, key, value) in replay {
                self.stats.delta_ops_sent += 1;
                self.stats.delta_bytes_sent +=
                    (key.as_bytes().len() + value.as_ref().map_or(0, |v| v.len())) as u64;
                out.push((
                    from,
                    Message::NotifySeq {
                        slot,
                        epoch,
                        seq,
                        key,
                        value,
                    },
                ));
            }
        } else {
            self.send_snapshot(slot, from, out);
        }
        // Always close with a heartbeat: an in-sync subscriber clears
        // its catching-up flag on it.
        let applied = self.slots[slot as usize].applied;
        out.push((
            from,
            Message::Heartbeat {
                slot,
                epoch,
                seq: applied,
            },
        ));
    }

    fn send_snapshot(&mut self, slot: u32, to: ClusterPeer, out: &mut Out) {
        let pairs = self.slot_pairs(slot);
        let (epoch, upto_seq) = {
            let st = &self.slots[slot as usize];
            (st.epoch, st.applied)
        };
        let mut chunks: Vec<Vec<(Key, Value)>> =
            pairs.chunks(SNAP_CHUNK_PAIRS).map(|c| c.to_vec()).collect();
        if chunks.is_empty() {
            chunks.push(Vec::new());
        }
        let last = chunks.len() - 1;
        for (i, chunk) in chunks.into_iter().enumerate() {
            self.stats.snap_chunks_sent += 1;
            self.stats.snap_bytes_sent += chunk
                .iter()
                .map(|(k, v)| k.as_bytes().len() + v.len())
                .sum::<usize>() as u64;
            out.push((
                to,
                Message::SnapshotChunk {
                    slot,
                    epoch,
                    upto_seq,
                    done: i == last,
                    pairs: chunk,
                },
            ));
        }
    }
}

// ----------------------------------------------------------------------
// Replication: follower side
// ----------------------------------------------------------------------

impl ClusterNode {
    /// A sender with a newer epoch than our view: adopt the epoch and
    /// provisionally treat it as the slot's primary until a full
    /// `EpochChange` corrects the replica list.
    fn adopt_newer_sender(&mut self, slot: u32, n: u32, epoch: u64, out: &mut Out) {
        let st = &mut self.slots[slot as usize];
        if epoch > st.epoch {
            st.epoch = epoch;
            st.replicas.retain(|r| *r != n);
            st.replicas.insert(0, n);
            self.stats.epoch_changes += 1;
            self.persist_epoch(slot, out);
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the sender, the message's fields, the outbox"
    )]
    fn on_notify_seq(
        &mut self,
        from: ClusterPeer,
        slot: u32,
        epoch: u64,
        seq: u64,
        key: Key,
        value: Option<Value>,
        out: &mut Out,
    ) {
        let ClusterPeer::Node(n) = from else { return };
        if epoch > self.slots[slot as usize].epoch {
            self.adopt_newer_sender(slot, n, epoch, out);
        }
        let st = &self.slots[slot as usize];
        if st.primary() != n {
            return; // stale primary streaming a divergent suffix
        }
        if !self.holds(slot) {
            return; // not a member or learner: snapshot will cover it
        }
        if st.snap.is_some() {
            // Mid-snapshot: hold the op until the base image lands.
            self.slots[slot as usize]
                .buffer
                .push((seq, epoch, key, value));
            return;
        }
        let applied = st.applied;
        if seq <= applied {
            // Duplicate (delta replay overlap): re-ack our position.
            out.push((from, self.ack(slot)));
        } else if seq == applied + 1 {
            self.apply_replicated(slot, seq, epoch, key, value);
            self.slots[slot as usize].catching_up = false;
            out.push((from, self.ack(slot)));
        } else {
            // Gap: the missing ops are in the primary's window; ask for
            // a replay (rate-limited by the catching-up flag).
            self.request_catchup(slot, n, out);
        }
    }

    fn apply_replicated(
        &mut self,
        slot: u32,
        seq: u64,
        epoch: u64,
        key: Key,
        value: Option<Value>,
    ) {
        self.partition_table(&key);
        match &value {
            Some(v) => self.node.engine.put(key.clone(), v.clone()),
            None => self.node.engine.remove(&key),
        }
        {
            let st = &mut self.slots[slot as usize];
            st.applied = seq;
            st.log_epoch = epoch;
        }
        self.push_window(slot, seq, epoch, key, value);
        self.persist_rep(slot);
        self.stats.notifies_applied += 1;
    }

    fn request_catchup(&mut self, slot: u32, target: u32, out: &mut Out) {
        let st = &mut self.slots[slot as usize];
        if st.catching_up || st.snap.is_some() {
            return;
        }
        st.catching_up = true;
        st.catchup_at = self.now + self.cfg.timing.resubscribe_ms;
        self.send_catchup(slot, target, out);
    }

    /// Asks `target` for what this node misses of `slot`.
    fn send_catchup(&mut self, slot: u32, target: u32, out: &mut Out) {
        let st = &self.slots[slot as usize];
        let (epoch, log_epoch, from_seq) = (st.epoch, st.log_epoch, st.applied);
        self.stats.catchup_subscribes += 1;
        let msg = Message::ReplicaSubscribe {
            slot,
            epoch,
            log_epoch,
            from_seq,
        };
        out.push((ClusterPeer::Node(target), msg));
    }

    fn on_ack(&mut self, from: ClusterPeer, slot: u32, seq: u64, out: &mut Out) {
        let ClusterPeer::Node(n) = from else { return };
        if self.primary_of(slot) != self.id {
            return;
        }
        {
            let st = &mut self.slots[slot as usize];
            if st.learner == Some(n) {
                st.learner_acked = st.learner_acked.max(seq);
            }
            if st.is_member(n) {
                let e = st.follower_acked.entry(n).or_insert(0);
                *e = (*e).max(seq);
            }
        }
        self.maybe_ack_pending(slot, out);
    }

    fn on_heartbeat(&mut self, from: ClusterPeer, slot: u32, epoch: u64, seq: u64, out: &mut Out) {
        let ClusterPeer::Node(n) = from else { return };
        if epoch < self.slots[slot as usize].epoch {
            // A deposed primary still beating: show it the new epoch.
            out.push((from, self.epoch_change_msg(slot, NO_CLEAN_ADOPT, None)));
            return;
        }
        if epoch > self.slots[slot as usize].epoch {
            self.adopt_newer_sender(slot, n, epoch, out);
        }
        let st = &self.slots[slot as usize];
        if st.primary() != n {
            return;
        }
        if st.is_member(self.id) {
            let deadline = self.failover_deadline(slot);
            let st = &mut self.slots[slot as usize];
            st.hb_deadline = deadline;
            if seq > st.applied && st.snap.is_none() && !st.catching_up {
                self.request_catchup(slot, n, out);
            } else if seq <= st.applied && st.snap.is_none() {
                st.catching_up = false;
            }
        }
        if self.holds(slot) {
            // Members and learners both re-ack on every beat; this
            // repairs acknowledgments lost to faults.
            out.push((from, self.ack(slot)));
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the sender, the message's fields, the outbox"
    )]
    fn on_snapshot_chunk(
        &mut self,
        from: ClusterPeer,
        slot: u32,
        epoch: u64,
        upto_seq: u64,
        done: bool,
        pairs: Vec<(Key, Value)>,
        out: &mut Out,
    ) {
        let ClusterPeer::Node(n) = from else { return };
        if epoch > self.slots[slot as usize].epoch {
            self.adopt_newer_sender(slot, n, epoch, out);
        }
        if self.slots[slot as usize].primary() != n {
            return;
        }
        self.stats.snap_chunks_in += 1;
        self.stats.snap_bytes_in += pairs
            .iter()
            .map(|(k, v)| k.as_bytes().len() + v.len())
            .sum::<usize>() as u64;
        if self.slots[slot as usize].snap.is_none() {
            // First chunk: clear our (possibly divergent) copy and take
            // authority so the incoming image reaches our own WAL.
            self.drop_slot_data(slot, out);
            self.set_holding(slot, true);
            self.slots[slot as usize].snap = Some(SnapInstall { epoch });
        }
        for (k, v) in pairs {
            self.partition_table(&k);
            self.node.engine.put(k, v);
        }
        if done {
            let buffered = {
                let st = &mut self.slots[slot as usize];
                st.applied = upto_seq;
                st.log_epoch = st.snap.as_ref().map(|s| s.epoch).unwrap_or(epoch);
                st.snap = None;
                st.catching_up = false;
                let mut b = std::mem::take(&mut st.buffer);
                b.sort_by_key(|(s, _, _, _)| *s);
                b
            };
            self.persist_rep(slot);
            self.stats.snap_installs += 1;
            self.node.engine.recorder().flight("catchup_install", || {
                format!("slot {slot}: snapshot catch-up installed")
            });
            for (seq, ep, k, v) in buffered {
                let applied = self.slots[slot as usize].applied;
                if seq == applied + 1 {
                    self.apply_replicated(slot, seq, ep, k, v);
                }
                // seq <= applied: covered by the snapshot; a gap beyond
                // applied+1 is left for the next heartbeat to detect.
            }
            out.push((from, self.ack(slot)));
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the sender, the message's fields, the outbox"
    )]
    fn on_epoch_change(
        &mut self,
        from: ClusterPeer,
        slot: u32,
        epoch: u64,
        replicas: Vec<u32>,
        upto_seq: u64,
        dropped: Option<u32>,
        out: &mut Out,
    ) {
        let st = &self.slots[slot as usize];
        let (my_epoch, my_primary) = (st.epoch, st.primary());
        let new_primary = replicas.first().copied().unwrap_or(u32::MAX);
        if epoch < my_epoch {
            if let ClusterPeer::Node(_) = from {
                out.push((from, self.epoch_change_msg(slot, NO_CLEAN_ADOPT, None)));
            }
            return;
        }
        if epoch == my_epoch && (replicas == self.slots[slot as usize].replicas) {
            return; // our view already
        }
        if epoch == my_epoch && new_primary >= my_primary {
            // Concurrent promotions produced the same epoch: the lower
            // node id deterministically wins.
            return;
        }
        let was_primary = my_primary == self.id;
        self.stats.epoch_changes += 1;
        {
            let st = &mut self.slots[slot as usize];
            st.epoch = epoch;
            st.replicas = replicas;
        }
        self.persist_epoch(slot, out);
        if was_primary && new_primary != self.id {
            // Deposed mid-flight: unacked writes go back to the client,
            // and so does a migration only a primary can finish, each
            // redirected to the new primary.
            self.fail_pending(slot, out);
            let st = &mut self.slots[slot as usize];
            if let Some(mig) = st.migration.take() {
                st.learner = None;
                st.flip_armed = false;
                self.redirect(mig.client, mig.id, slot, new_primary, out);
            }
        }
        if dropped == Some(self.id) {
            // Deliberately removed (migration source): delete our copy
            // and do not ask back in.
            self.drop_slot_data(slot, out);
            return;
        }
        let st = &mut self.slots[slot as usize];
        if new_primary == self.id {
            // Promoted by a flip (migration) — we were the learner and
            // are synced by construction.
            st.log_epoch = epoch;
            st.catching_up = false;
            st.snap = None;
            st.next_hb = self.now;
            st.hb_deadline = u64::MAX;
            st.follower_acked.clear();
            self.set_holding(slot, true);
            return;
        }
        if st.is_member(self.id) {
            st.next_hb = 0;
            self.slots[slot as usize].hb_deadline = self.failover_deadline(slot);
            self.set_holding(slot, true);
            let st = &mut self.slots[slot as usize];
            if upto_seq != NO_CLEAN_ADOPT && st.applied == upto_seq {
                // Clean adoption: same position in the same lineage.
                st.log_epoch = epoch;
                st.catching_up = false;
                out.push((ClusterPeer::Node(new_primary), self.ack(slot)));
            } else if st.snap.is_none() && !st.catching_up {
                self.request_catchup(slot, new_primary, out);
            }
            return;
        }
        // Not a member any more. If we still hold data (dropped as a
        // laggard, or a deposed primary), ask the new primary to take
        // us back; catch-up will reconcile our state.
        if self.holds(slot) {
            self.slots[slot as usize].catching_up = false; // force a fresh subscribe
            self.request_catchup(slot, new_primary, out);
        }
    }

    // ------------------------------------------------------------------
    // Migration (primary side)
    // ------------------------------------------------------------------

    fn start_migration(
        &mut self,
        client: ClusterPeer,
        id: u64,
        slot: u32,
        from: u32,
        to: u32,
        out: &mut Out,
    ) {
        if slot >= self.cfg.slots {
            out.push((client, Message::error(id, "no such slot")));
            return;
        }
        let primary = self.primary_of(slot);
        if primary != self.id {
            self.redirect(client, id, slot, primary, out);
            return;
        }
        let st = &self.slots[slot as usize];
        if st.migration.is_some() {
            out.push((client, Message::error(id, "migration already in progress")));
            return;
        }
        if !st.is_member(from) || st.is_member(to) || to as usize >= self.cfg.nodes.len() {
            out.push((client, Message::error(id, "bad migration endpoints")));
            return;
        }
        {
            let st = &mut self.slots[slot as usize];
            st.learner = Some(to);
            st.learner_acked = 0;
            st.migration = Some(Migration {
                from,
                to,
                client,
                id,
                deadline: self.now + 10 * self.cfg.timing.ack_timeout_ms,
            });
        }
        // Install: ship the slot image; every subsequent write is
        // dual-notified to the learner by `client_write`.
        self.send_snapshot(slot, ClusterPeer::Node(to), out);
    }

    fn finish_migration(&mut self, slot: u32, out: &mut Out) {
        let Some(mig) = self.slots[slot as usize].migration.take() else {
            return;
        };
        {
            let st = &mut self.slots[slot as usize];
            st.epoch += 1;
            for r in st.replicas.iter_mut() {
                if *r == mig.from {
                    *r = mig.to;
                }
            }
            st.learner = None;
            st.flip_armed = false;
            let acked = st.learner_acked;
            st.follower_acked.remove(&mig.from);
            st.follower_acked.insert(mig.to, acked);
        }
        self.persist_epoch(slot, out);
        self.stats.migrations += 1;
        self.node.engine.recorder().flight("migration_flip", || {
            format!("slot {slot}: authority flipped {} -> {}", mig.from, mig.to)
        });
        self.announce(slot, Some(mig.from), out);
        out.push((mig.client, Message::reply(mig.id, Vec::new())));
        if mig.from == self.id {
            // We migrated ourselves away: the learner took our replica
            // position (possibly the primacy); drop our copy.
            self.fail_pending(slot, out);
            self.drop_slot_data(slot, out);
            let st = &mut self.slots[slot as usize];
            st.log_epoch = st.epoch;
            st.follower_acked.clear();
            st.hb_deadline = u64::MAX;
        } else {
            self.maybe_ack_pending(slot, out);
        }
    }

    fn abort_migration(&mut self, slot: u32, out: &mut Out) {
        let Some(mig) = self.slots[slot as usize].migration.take() else {
            return;
        };
        {
            let st = &mut self.slots[slot as usize];
            st.learner = None;
            st.flip_armed = false;
            // Bump the epoch so the learner (named as dropped) discards
            // the half-installed copy instead of lingering with stale
            // authority.
            st.epoch += 1;
            st.log_epoch = st.epoch;
        }
        self.persist_epoch(slot, out);
        self.announce(slot, Some(mig.to), out);
        out.push((mig.client, Message::error(mig.id, "migration timed out")));
    }
}

// ----------------------------------------------------------------------
// Timers
// ----------------------------------------------------------------------

impl ClusterNode {
    /// Advances the logical clock to `now_ms` (also ticking the
    /// engine's eviction clock) and returns timer-driven traffic:
    /// heartbeats, failover promotions, catch-up retries, ack-timeout
    /// laggard drops, and migration flips.
    pub fn tick(&mut self, now_ms: u64) -> Out {
        let mut out = Vec::new();
        self.node.engine.tick(now_ms.saturating_sub(self.now));
        self.now = self.now.max(now_ms);
        if !self.booted {
            // First tick: arm failover deadlines relative to the
            // driver's clock (which may be far past zero on a restart
            // into a running cluster — promoting instantly over a live
            // primary would let an empty cold node win its slots).
            self.booted = true;
            for slot in 0..self.cfg.slots {
                let st = &self.slots[slot as usize];
                if st.is_member(self.id) && st.primary() != self.id {
                    self.slots[slot as usize].hb_deadline = self.failover_deadline(slot);
                }
            }
        }
        for slot in 0..self.cfg.slots {
            let i = slot as usize;
            if self.slots[i].primary() == self.id {
                self.tick_primary(slot, &mut out);
            } else if self.slots[i].is_member(self.id) {
                self.tick_follower(slot, &mut out);
            }
            // Catch-up retry (members and re-admission seekers alike).
            let st = &self.slots[i];
            if st.catching_up && self.now >= st.catchup_at {
                self.retry_catchup(slot, &mut out);
            }
        }
        self.tick_pending(&mut out);
        out
    }

    fn tick_primary(&mut self, slot: u32, out: &mut Out) {
        let i = slot as usize;
        if self.now >= self.slots[i].next_hb {
            let (epoch, seq, followers, learner) = {
                let st = &mut self.slots[i];
                st.next_hb = self.now + self.cfg.timing.heartbeat_ms;
                (st.epoch, st.applied, st.replicas[1..].to_vec(), st.learner)
            };
            let mut targets = followers;
            if let Some(l) = learner {
                targets.push(l);
            }
            for t in targets {
                out.push((
                    ClusterPeer::Node(t),
                    Message::Heartbeat { slot, epoch, seq },
                ));
            }
        }
        // Migration: arm the drain once the learner caught up, flip
        // once drained, abort if the learner never syncs.
        let (synced, has_mig, from_self, expired) = {
            let st = &self.slots[i];
            match &st.migration {
                None => (false, false, false, false),
                Some(m) => (
                    st.learner_acked >= st.applied,
                    true,
                    m.from == self.id,
                    self.now >= m.deadline,
                ),
            }
        };
        if !has_mig {
            return;
        }
        let slot_pending = self.pending.iter().any(|p| p.slot == slot);
        if synced && !slot_pending {
            if from_self && !self.slots[i].flip_armed {
                // Drain new writes for one tick before the flip so the
                // handover has a quiet boundary.
                self.slots[i].flip_armed = true;
            } else {
                self.finish_migration(slot, out);
            }
        } else if expired {
            self.abort_migration(slot, out);
        }
    }

    fn tick_follower(&mut self, slot: u32, out: &mut Out) {
        let i = slot as usize;
        let st = &self.slots[i];
        if self.now < st.hb_deadline || st.snap.is_some() {
            return;
        }
        // Promote: the primary went quiet past our staggered deadline.
        {
            let st = &mut self.slots[i];
            let old_primary = st.primary();
            st.epoch += 1;
            st.replicas.retain(|r| *r != self.id && *r != old_primary);
            st.replicas.insert(0, self.id);
            st.log_epoch = st.epoch;
            st.catching_up = false;
            st.buffer.clear();
            st.next_hb = self.now;
            st.hb_deadline = u64::MAX;
            st.follower_acked.clear();
            st.learner = None;
            st.migration = None;
            st.flip_armed = false;
        }
        self.persist_epoch(slot, out);
        self.persist_rep(slot);
        self.stats.promotions += 1;
        let upto = self.slots[i].applied;
        self.node.engine.recorder().flight("failover", || {
            format!(
                "node {} promoted itself for slot {slot} (epoch {}, applied {upto})",
                self.id, self.slots[i].epoch
            )
        });
        self.announce(slot, None, out);
    }

    fn retry_catchup(&mut self, slot: u32, out: &mut Out) {
        // First try goes to the believed primary; subsequent retries
        // also cycle the other nodes in case our view is stale.
        let (rr, primary) = {
            let st = &mut self.slots[slot as usize];
            st.catchup_at = self.now + self.cfg.timing.resubscribe_ms;
            let rr = st.catchup_rr;
            st.catchup_rr = st.catchup_rr.wrapping_add(1);
            (rr, st.primary())
        };
        let n = self.cfg.nodes.len() as u32;
        let target = if rr == 0 || n <= 1 {
            primary
        } else {
            let mut t = rr % n;
            if t == self.id {
                t = (t + 1) % n;
            }
            t
        };
        if target != self.id {
            self.send_catchup(slot, target, out);
        }
    }

    fn tick_pending(&mut self, out: &mut Out) {
        // Expired acks: drop the laggard followers (epoch bump) so the
        // slot degrades to the live members instead of stalling writes.
        let mut expired_slots = Vec::new();
        for p in &self.pending {
            if self.now >= p.deadline && !expired_slots.contains(&p.slot) {
                expired_slots.push(p.slot);
            }
        }
        for slot in expired_slots {
            if self.primary_of(slot) != self.id {
                continue;
            }
            let laggards: Vec<u32> = {
                let st = &self.slots[slot as usize];
                let worst = self
                    .pending
                    .iter()
                    .filter(|p| p.slot == slot && self.now >= p.deadline)
                    .map(|p| p.seq)
                    .max()
                    .unwrap_or(0);
                st.replicas[1..]
                    .iter()
                    .filter(|f| st.follower_acked.get(f).copied().unwrap_or(0) < worst)
                    .copied()
                    .collect()
            };
            if !laggards.is_empty() {
                {
                    let st = &mut self.slots[slot as usize];
                    st.replicas.retain(|r| !laggards.contains(r));
                    for l in &laggards {
                        st.follower_acked.remove(l);
                    }
                    st.epoch += 1;
                    st.log_epoch = st.epoch;
                }
                self.persist_epoch(slot, out);
                self.stats.follower_drops += laggards.len() as u64;
                self.node.engine.recorder().flight("follower_drop", || {
                    format!("slot {slot}: dropped laggards {laggards:?}")
                });
                self.announce(slot, None, out);
            }
            self.maybe_ack_pending(slot, out);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The node's telemetry snapshot — the content a
    /// [`Message::Metrics`] request is answered with, and the one view
    /// of its counters: the engine recorder's metrics, the engine's
    /// levels ([`Engine::append_levels`](pequod_core::Engine::append_levels))
    /// and [`BackendStats`] (both read from the node whether or not the
    /// recorder is on; the latter summed by `ClusterClient`'s
    /// `Client::stats`), every [`NodeStats`] field once as
    /// `pequod_node_*_total`, every [`ClusterStats`] field once, and
    /// each slot's view — epoch,
    /// applied sequence number, primary, replica ranks, this node's
    /// role — with the primary's lag gauge.
    pub fn telemetry_snapshot(&self, include_flight: bool) -> Snapshot {
        let engine = &self.node.engine;
        let mut snap = engine.recorder().snapshot(include_flight);
        engine.append_levels(&mut snap);
        let b = self.backend_stats();
        let [keys, memory, js_evictions, base_evictions] = BACKEND_METRICS;
        snap.gauge(keys, &[], b.keys);
        snap.gauge(memory, &[], b.memory_bytes);
        snap.counter(js_evictions, &[], b.js_evictions);
        snap.counter(base_evictions, &[], b.base_evictions);
        let n = &self.node.stats;
        for (name, v) in [
            ("commands", n.commands),
            ("parked", n.parked),
            ("subs_granted", n.subs_granted),
            ("subs_established", n.subs_established),
            ("notifies_sent", n.notifies_sent),
            ("notifies_applied", n.notifies_applied),
        ] {
            snap.counter(&format!("pequod_node_{name}_total"), &[], v);
        }
        let s = &self.stats;
        for (name, v) in [
            ("writes_applied", s.writes_applied),
            ("writes_acked", s.writes_acked),
            ("redirects", s.redirects),
            ("notifies_sent", s.notifies_sent),
            ("notifies_applied", s.notifies_applied),
            ("failovers", s.promotions),
            ("epoch_changes", s.epoch_changes),
            ("follower_drops", s.follower_drops),
            ("readmissions", s.readmissions),
            ("migrations", s.migrations),
            ("catchup_subscribes", s.catchup_subscribes),
            ("delta_ops_sent", s.delta_ops_sent),
            ("snap_chunks_sent", s.snap_chunks_sent),
            ("snap_chunks_in", s.snap_chunks_in),
            ("snap_bytes_in", s.snap_bytes_in),
            ("snap_installs", s.snap_installs),
        ] {
            snap.counter(&format!("pequod_cluster_{name}_total"), &[], v);
        }
        for (path, v) in [
            ("delta", s.delta_bytes_sent),
            ("snapshot", s.snap_bytes_sent),
        ] {
            snap.counter("pequod_cluster_catchup_bytes_total", &[("path", path)], v);
        }
        snap.gauge(
            "pequod_cluster_acks_outstanding",
            &[],
            self.pending.len() as u64,
        );
        for (i, st) in self.slots.iter().enumerate() {
            let slot = i.to_string();
            let at = [("slot", slot.as_str())];
            snap.gauge("pequod_cluster_slot_epoch", &at, st.epoch);
            snap.gauge("pequod_cluster_slot_applied_seq", &at, st.applied);
            let primary = u64::from(st.primary());
            snap.gauge("pequod_cluster_slot_primary", &at, primary);
            for (rank, node) in st.replicas.iter().enumerate() {
                let node = node.to_string();
                let labels = [("slot", slot.as_str()), ("node", node.as_str())];
                snap.gauge("pequod_cluster_slot_replica", &labels, rank as u64);
            }
            let role = if st.primary() == self.id {
                "primary"
            } else if st.is_member(self.id) {
                "follower"
            } else if self.holds(i as u32) {
                "learner"
            } else {
                "none"
            };
            let labels = [("slot", slot.as_str()), ("role", role)];
            snap.gauge("pequod_cluster_slot_role", &labels, 1);
            if st.primary() != self.id || st.replicas.len() < 2 {
                continue;
            }
            // Lag in sequence numbers behind the primary, for the
            // slowest follower (a follower that never acked counts
            // from zero).
            let lag = st.replicas[1..]
                .iter()
                .map(|f| {
                    st.applied
                        .saturating_sub(st.follower_acked.get(f).copied().unwrap_or(0))
                })
                .max()
                .unwrap_or(0);
            snap.gauge("pequod_replication_lag_seqs", &at, lag);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::{audit_deployment, NodeAudit};
    use pequod_core::config::MaterializationMode;
    use pequod_core::partition::{ComponentHashPartition, TablePartition};
    use pequod_core::EngineConfig;
    use pequod_net::codec::encode_frame;

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

    /// A small Twip engine; `pull` computes timelines on every read
    /// (the overlay path), otherwise they are materialised.
    fn twip(pull: bool) -> Engine {
        let mut engine = Engine::new(EngineConfig {
            materialization: if pull {
                MaterializationMode::None
            } else {
                EngineConfig::default().materialization
            },
            ..EngineConfig::default()
        });
        engine.add_joins_text(TIMELINE).unwrap();
        for poster in ["bob", "cat", "dan"] {
            engine.put(format!("s|ann|{poster}"), "1");
            for t in 0..20u64 {
                engine.put(
                    format!("p|{poster}|{t:010}"),
                    format!(
                        "{poster} says {t}, at some length: {}",
                        "x".repeat(t as usize)
                    ),
                );
            }
        }
        engine
    }

    /// `engine` as the node of a one-node cluster.
    fn one_node(engine: Engine) -> ClusterNode {
        ClusterNode::new(0, ClusterConfig::new(1, 1), engine)
    }

    /// What the collecting path would have put on the wire.
    fn collected(engine: &mut Engine, id: u64, range: &KeyRange) -> Vec<u8> {
        encode_frame(&Message::reply(id, engine.scan(range).pairs)).to_vec()
    }

    /// Serves `msg` from client 1; returns what went into `out` after
    /// `prefix` and how many replies that was, and requires that nothing
    /// else was sent.
    fn serve(node: &mut ClusterNode, msg: Message) -> (Vec<u8>, usize) {
        let (mut out, mut late) = (b"earlier replies".to_vec(), Vec::new());
        let n = node.serve_client(1, msg, &mut out, &mut late);
        assert!(late.is_empty(), "a one-node cluster sent {late:?}");
        assert_eq!(&out[..15], b"earlier replies");
        (out[15..].to_vec(), n)
    }

    #[test]
    fn streamed_reads_are_byte_identical_to_collected_replies() {
        for pull in [false, true] {
            let ranges = [
                KeyRange::prefix("t|ann|"), // computed, whole timeline
                KeyRange::new("t|ann|0000000005", "t|ann|0000000012"),
                KeyRange::prefix("p|bob|"),    // base data
                KeyRange::prefix("t|nobody|"), // computed, empty
                KeyRange::prefix("q|"),        // no such table
                KeyRange::new("t|z", "t|a"),   // empty range
                KeyRange::prefix("p|"),        // spans tables
            ];
            // Cold on the first pass, warm on the second.
            let (mut streamed, mut reference) = (one_node(twip(pull)), twip(pull));
            let commands = streamed.node_stats().commands;
            for pass in 0..2 {
                for (i, range) in ranges.iter().enumerate() {
                    let id = (pass * 100 + i) as u64;
                    let range = range.clone();
                    let want = collected(&mut reference, id, &range);
                    let got = serve(&mut streamed, Message::Scan { id, range });
                    assert_eq!(got, (want, 1), "pull={pull} pass={pass} range {i}");
                }
            }
            // A Get is the scan of one key, found or not.
            for key in [
                "t|ann|0000000003|bob",
                "p|cat|0000000019",
                "p|cat|0000000020",
            ] {
                let key = Key::from(key);
                let pairs = reference.get_result(&key).pairs;
                assert_eq!(pairs.len(), usize::from(!key.as_bytes().ends_with(b"20")));
                let want = encode_frame(&Message::reply(7, pairs)).to_vec();
                assert_eq!(serve(&mut streamed, Message::Get { id: 7, key }), (want, 1));
            }
            // Each streamed read counts as a command of the `Node`.
            let reads = 2 * ranges.len() as u64 + 3;
            assert_eq!(streamed.node_stats().commands, commands + reads);
        }
    }

    #[test]
    fn writes_and_batches_answer_like_their_messages() {
        let mut node = one_node(twip(false));
        let frame = Message::Batch {
            msgs: vec![
                Message::Put {
                    id: 1,
                    key: Key::from("p|bob|0000000100"),
                    value: Value::from_static(b"new"),
                },
                Message::Batch {
                    msgs: vec![
                        Message::Count {
                            id: 2,
                            range: KeyRange::prefix("t|ann|"),
                        },
                        Message::Remove {
                            id: 3,
                            key: Key::from("p|bob|0000000100"),
                        },
                    ],
                },
                Message::AddJoin {
                    id: 4,
                    text: "not a join".into(),
                },
                Message::Get {
                    id: 5,
                    key: Key::from("#rep|00"),
                },
                Message::Hello { node: 9 },
                // Server-to-server, and for a slot there is not.
                Message::EpochChange {
                    slot: 200,
                    epoch: 9,
                    replicas: vec![5],
                    upto_seq: 0,
                    dropped: None,
                },
            ],
        };
        let mut want = Vec::new();
        want.extend_from_slice(&encode_frame(&Message::reply(1, vec![])));
        want.extend_from_slice(&encode_frame(&Message::count_reply(2, 61)));
        want.extend_from_slice(&encode_frame(&Message::reply(3, vec![])));
        let err = twip(false).add_joins_text("not a join").unwrap_err();
        want.extend_from_slice(&encode_frame(&Message::error(4, err.to_string())));
        want.extend_from_slice(&encode_frame(&Message::error(5, RESERVED)));
        want.extend_from_slice(&encode_frame(&Message::error(0, UNSUPPORTED)));
        want.extend_from_slice(&encode_frame(&Message::error(0, UNSUPPORTED)));
        assert_eq!(serve(&mut node, frame), (want, 7));
    }

    #[test]
    fn a_peer_frame_for_a_slot_there_is_not_is_dropped() {
        let cfg = ClusterConfig::new(2, 2);
        let mut node = ClusterNode::new(0, cfg, Engine::new(EngineConfig::default()));
        let peer = ClusterPeer::Node(1);
        for msg in [
            Message::EpochChange {
                slot: 200,
                epoch: 9,
                replicas: vec![1],
                upto_seq: 0,
                dropped: None,
            },
            Message::ReplicaSubscribe {
                slot: 8,
                epoch: 0,
                log_epoch: 0,
                from_seq: 0,
            },
            Message::Heartbeat {
                slot: u32::MAX,
                epoch: 0,
                seq: 0,
            },
        ] {
            assert!(node.handle(peer, msg).is_empty());
        }
        assert!((0..8).all(|slot| node.primary_of(slot) == node.config().initial_replicas(slot)[0]));
    }

    /// A key of the `p|` table homed at `node` of a 2-node, RF=1 cluster.
    fn post_homed_at(cfg: &ClusterConfig, node: u32) -> Key {
        (0..)
            .map(|i| Key::from(format!("p|u{i}|0000000001")))
            .find(|k| cfg.initial_replicas(cfg.slot_of(k)) == [node])
            .unwrap()
    }

    #[test]
    fn an_incomplete_read_leaves_no_bytes_and_takes_the_fetch_path() {
        let cfg = ClusterConfig::new(2, 1);
        let (here, there) = (post_homed_at(&cfg, 0), post_homed_at(&cfg, 1));
        let mut node = ClusterNode::new(0, cfg, Engine::new(EngineConfig::default()));
        let value = Value::from_static(b"resident");
        node.handle(
            ClusterPeer::Client(1),
            Message::Put {
                id: 1,
                key: here,
                value,
            },
        );
        // This node's post is resident and the other node's slots are
        // not: the scan visits the one pair, then meets the gaps. (The
        // `Get` goes first: the scan's grants make its key resident.)
        for read in [
            Message::Get { id: 5, key: there },
            Message::Scan {
                id: 6,
                range: KeyRange::prefix("p|"),
            },
        ] {
            let id = read.id();
            let prefix = encode_frame(&Message::reply(4, vec![])).to_vec();
            let (mut out, mut late) = (prefix.clone(), Vec::new());
            let commands = node.node_stats().commands;
            let scans = node.engine.engine_stats().scans;
            assert_eq!(node.serve_client(1, read, &mut out, &mut late), 0);
            assert_eq!(out, prefix, "an incomplete read left bytes behind");
            assert_eq!(node.node_stats().commands, commands + 1);
            // One scan found what is missing; the fetch path did not
            // scan again before fetching it.
            assert_eq!(node.engine.engine_stats().scans, scans + 1);
            // The read parked on subscriptions at the other node; its
            // grants (empty) answer it, once.
            let mut replies = Vec::new();
            for (to, msg) in late {
                let Message::Subscribe { id: fetch, range } = msg else {
                    panic!("not a fetch: {msg:?}");
                };
                assert_eq!(to, ClusterPeer::Node(1));
                let pairs = Vec::new();
                let grant = Message::SubscribeReply {
                    id: fetch,
                    range,
                    pairs,
                };
                replies.extend(node.handle(to, grant));
            }
            assert!(
                matches!(
                    &replies[..],
                    [(ClusterPeer::Client(1), Message::Reply { error: None, .. })]
                ),
                "{replies:?}"
            );
            assert_eq!(replies[0].1.id(), id);
        }
    }

    /// Writes `n` posts and a follow through `node` as client 1 (only
    /// the keys whose slot it is primary of), half served from a socket
    /// and half handled as messages, and reads every timeline back;
    /// returns how many writes it applied.
    fn exercise(node: &mut ClusterNode, n: u64) -> u64 {
        let mut applied = 0;
        for i in 0..n {
            let user = format!("u{}", i % 16);
            for (key, value) in [
                (format!("s|{user}|u{}", (i + 1) % 16), "1".to_string()),
                (format!("p|{user}|{i:010}"), format!("post {i}")),
            ] {
                let key = Key::from(key);
                if !node.is_primary(node.config().slot_of(&key)) {
                    continue;
                }
                let put = Message::Put {
                    id: i,
                    key,
                    value: Value::from(value),
                };
                if i % 2 == 0 {
                    node.serve_client(1, put, &mut Vec::new(), &mut Vec::new());
                } else {
                    node.handle(ClusterPeer::Client(1), put);
                }
                applied += 1;
            }
            let range = KeyRange::prefix(format!("t|{user}|"));
            node.serve_client(
                1,
                Message::Scan { id: i, range },
                &mut Vec::new(),
                &mut Vec::new(),
            );
        }
        applied
    }

    /// Replication rows (`#rep|NN`, `#epoch|NN`) in `node`'s store.
    fn meta_rows(node: &ClusterNode) -> usize {
        let mut rows = 0;
        (node.engine.store()).scan(&KeyRange::prefix("#"), |_, _| {
            rows += 1;
            true
        });
        rows
    }

    /// Ops held for delta catch-up, over every slot.
    fn windowed(node: &ClusterNode) -> usize {
        node.slots.iter().map(|st| st.window.len()).sum()
    }

    #[test]
    fn a_one_node_cluster_keeps_no_state_for_peers() {
        let mut node = one_node(Engine::new(EngineConfig::default()));
        let text = TIMELINE.to_string();
        node.handle(ClusterPeer::Client(1), Message::AddJoin { id: 0, text });
        let applied = exercise(&mut node, 300);
        assert_eq!(applied, 600);
        assert_eq!(node.engine.all_resident_ranges(), Vec::<KeyRange>::new());
        assert_eq!(meta_rows(&node), 0);
        assert_eq!(windowed(&node), 0);
        let seqs: u64 = node.slots.iter().map(|st| st.applied).sum();
        assert_eq!(seqs, applied, "a slot's sequence still counts its writes");
    }

    #[test]
    fn a_replicated_primary_keeps_its_catch_up_state() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.add_joins_text(TIMELINE).unwrap();
        let mut node = ClusterNode::new(0, ClusterConfig::new(2, 2), engine);
        let applied = exercise(&mut node, 300);
        assert!(applied > 0);
        assert_eq!(windowed(&node), applied as usize);
        assert!(meta_rows(&node) > 0, "no #rep row was written");
    }

    // The §2.4 `Node` on its own, driven message by message: three
    // nodes under a component-hash partition, or a home of the `p|`
    // table and one peer.

    const CLIENT: ClusterPeer = ClusterPeer::Client(1);

    /// Three nodes under a component-hash partition, and one user homed
    /// on each.
    fn three_nodes() -> (Vec<Node>, Vec<String>) {
        let part = Arc::new(ComponentHashPartition {
            component: 1,
            servers: 3,
        });
        let nodes = (0..3)
            .map(|i| Node::new(ServerId(i), 3, posts_remote(), part.clone()))
            .collect();
        let user_on = |node: u32| {
            (0..)
                .map(|i| format!("u{i}"))
                .find(|u| part.home_of(&Key::from(format!("p|{u}|0"))) == ServerId(node))
                .unwrap()
        };
        (nodes, (0..3).map(user_on).collect())
    }

    /// An engine whose `p|` table is spread over the deployment.
    fn posts_remote() -> Engine {
        let mut engine = Engine::new_default();
        engine.mark_remote_table("p|");
        engine
    }

    fn handle(node: &mut Node, from: ClusterPeer, msg: Message) -> Out {
        let mut out = Vec::new();
        node.handle(from, msg, &mut out);
        out
    }

    fn put(node: &mut Node, key: &str) -> Out {
        let (key, value) = (Key::from(key), Value::from_static(b"v"));
        handle(node, CLIENT, Message::Put { id: 1, key, value })
    }

    fn scan(node: &mut Node, id: u64) -> Out {
        let range = KeyRange::prefix("p|");
        handle(node, CLIENT, Message::Scan { id, range })
    }

    fn keys_of(reply: &[(ClusterPeer, Message)], id: u64) -> Vec<String> {
        match reply {
            [(
                CLIENT,
                Message::Reply {
                    id: rid,
                    pairs,
                    error: None,
                },
            )] if *rid == id => pairs.iter().map(|(k, _)| k.to_string()).collect(),
            other => panic!("expected the pairs of request {id}, got {other:?}"),
        }
    }

    /// A write acknowledged by a peer that has already granted its part
    /// of a scatter-gather, while another peer's grant is still
    /// outstanding, reaches the subscriber as a `Notify` for a range it
    /// does not hold yet. It must survive until the range installs.
    #[test]
    fn notify_inside_an_open_fetch_is_held_not_dropped() {
        let (mut nodes, users) = three_nodes();
        let (reader, a, b) = (ServerId(0), ServerId(1), ServerId(2));
        let old_a = format!("p|{}|0000000001", users[1]);
        let new_a = format!("p|{}|0000000002", users[1]);
        let old_b = format!("p|{}|0000000001", users[2]);
        put(&mut nodes[1], &old_a);
        put(&mut nodes[2], &old_b);

        // The whole-table scan parks on one fetch subscribed at both peers.
        let out = scan(&mut nodes[0], 7);
        let subscribe_to = |peer: ServerId| {
            let to = ClusterPeer::Node(peer.0);
            let mut sent = out.iter().filter(|(t, _)| *t == to).map(|(_, m)| m.clone());
            match (sent.next(), sent.next()) {
                (Some(m @ Message::Subscribe { .. }), None) => m,
                other => panic!("expected one Subscribe to {peer:?}, got {other:?}"),
            }
        };
        let (to_a, to_b) = (subscribe_to(a), subscribe_to(b));
        assert_eq!(out.len(), 2);
        assert_eq!(nodes[0].parked_count(), 1);

        // A grants; the reader still waits on B.
        let mut grant_a = handle(&mut nodes[1], ClusterPeer::Node(reader.0), to_a);
        let (_, grant_a) = grant_a.pop().unwrap();
        assert!(handle(&mut nodes[0], ClusterPeer::Node(a.0), grant_a).is_empty());

        // A write at A is acknowledged: its notification precedes the ack.
        let mut acked = put(&mut nodes[1], &new_a);
        let ack = acked.pop().unwrap();
        assert!(matches!(
            ack,
            (
                CLIENT,
                Message::Reply {
                    ref pairs,
                    error: None,
                    ..
                }
            ) if pairs.is_empty()
        ));
        let (to, notify) = acked.pop().unwrap();
        assert_eq!(to, ClusterPeer::Node(reader.0));
        assert!(handle(&mut nodes[0], ClusterPeer::Node(a.0), notify).is_empty());

        // B grants: the range installs, the held write with it, and the
        // parked scan answers with all three rows.
        let mut grant_b = handle(&mut nodes[2], ClusterPeer::Node(reader.0), to_b);
        let (_, grant_b) = grant_b.pop().unwrap();
        let answered = handle(&mut nodes[0], ClusterPeer::Node(b.0), grant_b);
        let mut want = vec![old_a, new_a, old_b];
        want.sort();
        assert_eq!(keys_of(&answered, 7), want);
        assert_eq!(nodes[0].parked_count(), 0);
        // So does the scan that follows, now without a fetch.
        assert_eq!(keys_of(&scan(&mut nodes[0], 8), 8), want);
        assert_eq!(nodes[0].stats.notifies_applied, 1);

        let audits: Vec<NodeAudit> = nodes.iter().map(Node::audit).collect();
        assert_eq!(audit_deployment(&audits), Vec::<String>::new());
    }

    /// A `Subscribe` lost with a dropped link is sent again once the
    /// link is back, and a peer that answers both the original and the
    /// re-sent one is counted once: the range installs exactly once,
    /// after every peer has granted, and the read is answered once.
    #[test]
    fn a_resent_subscribe_and_a_duplicate_grant_install_once() {
        let (mut nodes, users) = three_nodes();
        let (reader, a, b) = (ServerId(0), ServerId(1), ServerId(2));
        let row_a = format!("p|{}|0000000001", users[1]);
        let row_b = format!("p|{}|0000000001", users[2]);
        put(&mut nodes[1], &row_a);
        put(&mut nodes[2], &row_b);

        // The whole-table scan subscribes at both peers; B's copy is lost.
        let out = scan(&mut nodes[0], 7);
        let subscribe_to = |peer: ServerId| {
            let to = ClusterPeer::Node(peer.0);
            (out.iter().find(|(t, _)| *t == to).map(|(_, m)| m.clone())).unwrap()
        };
        let (to_a, to_b) = (subscribe_to(a), subscribe_to(b));
        let resent = |node: &mut Node, peer: ServerId| {
            let mut out = Vec::new();
            node.resubscribe(peer, &mut out);
            out
        };

        // A grants, twice: the second changes nothing.
        let grant_a = handle(&mut nodes[1], ClusterPeer::Node(reader.0), to_a.clone());
        let grant_a = grant_a.into_iter().next().unwrap().1;
        assert!(handle(&mut nodes[0], ClusterPeer::Node(a.0), grant_a.clone()).is_empty());
        assert_eq!(resent(&mut nodes[0], a), []);
        assert!(handle(&mut nodes[0], ClusterPeer::Node(a.0), grant_a.clone()).is_empty());
        assert_eq!(nodes[0].parked_count(), 1);
        assert!(!nodes[0].engine.is_resident(&KeyRange::prefix("p|")));

        // The link to B comes back: the same Subscribe goes again.
        assert_eq!(
            resent(&mut nodes[0], b),
            [(ClusterPeer::Node(b.0), to_b.clone())]
        );
        let grant_b = handle(&mut nodes[2], ClusterPeer::Node(reader.0), to_b);
        let grant_b = grant_b.into_iter().next().unwrap().1;
        let answered = handle(&mut nodes[0], ClusterPeer::Node(b.0), grant_b.clone());
        let mut want = vec![row_a, row_b];
        want.sort();
        assert_eq!(keys_of(&answered, 7), want);
        assert_eq!(nodes[0].parked_count(), 0);

        // Late duplicates of either grant are ignored.
        assert!(handle(&mut nodes[0], ClusterPeer::Node(b.0), grant_b).is_empty());
        assert!(handle(&mut nodes[0], ClusterPeer::Node(a.0), grant_a).is_empty());
        assert_eq!(resent(&mut nodes[0], b), []);
        assert_eq!(keys_of(&scan(&mut nodes[0], 8), 8), want);
        let audits: Vec<NodeAudit> = nodes.iter().map(Node::audit).collect();
        assert_eq!(audit_deployment(&audits), Vec::<String>::new());
    }

    /// A notification for a range this node no longer holds (evicted,
    /// no fetch open) is dropped rather than re-cached as an untracked
    /// row; one for a resident range is applied.
    #[test]
    fn notify_outside_every_resident_range_is_dropped() {
        let (mut nodes, users) = three_nodes();
        let key = Key::from(format!("p|{}|0000000001", users[1]));
        let value = Some(Value::from_static(b"v"));
        let notify = Message::Notify {
            key: key.clone(),
            value,
        };
        handle(&mut nodes[0], ClusterPeer::Node(1), notify.clone());
        assert_eq!(nodes[0].stats.notifies_applied, 0);
        assert_eq!(nodes[0].engine.check_invariants(), Vec::<String>::new());
        nodes[0]
            .engine
            .install_base(&KeyRange::single(key), Vec::new());
        handle(&mut nodes[0], ClusterPeer::Node(1), notify);
        assert_eq!(nodes[0].stats.notifies_applied, 1);
        assert_eq!(nodes[0].engine.check_invariants(), Vec::<String>::new());
    }

    /// Node 1 of two, homing the whole `p|` table.
    fn post_home() -> Node {
        let part = Arc::new(TablePartition::new(ServerId(0)).route("p|", ServerId(1)));
        Node::new(ServerId(1), 2, posts_remote(), part)
    }

    fn subscribe(range: KeyRange) -> Message {
        Message::Subscribe { id: 1, range }
    }

    /// A peer that subscribes to the same range twice is recorded once,
    /// and its `Unsubscribe` drops the record.
    #[test]
    fn duplicate_subscriptions_collapse() {
        let mut home = post_home();
        let peer = ClusterPeer::Node(0);
        for _ in 0..2 {
            let out = handle(&mut home, peer, subscribe(KeyRange::prefix("p|")));
            assert!(matches!(&out[..], [(to, Message::SubscribeReply { .. })] if *to == peer));
        }
        assert_eq!(home.subscriber_count(), 1);
        assert_eq!(home.stats.subs_granted, 1);
        let range = KeyRange::prefix("p|");
        handle(&mut home, peer, Message::Unsubscribe { range });
        assert_eq!(home.subscriber_count(), 0);
    }

    /// A home notifies a subscriber of the writes inside its range, and
    /// of none outside it; a notification precedes the write's ack.
    #[test]
    fn subscriptions_notify_in_range_only() {
        let mut home = post_home();
        let peer = ClusterPeer::Node(0);
        handle(&mut home, peer, subscribe(KeyRange::prefix("p|bob|")));
        let remove = |key: &str| Message::Remove {
            id: 2,
            key: Key::from(key),
        };
        let notified = |out: &[(ClusterPeer, Message)]| -> Vec<(Key, Option<Value>)> {
            assert!(matches!(out.last(), Some((CLIENT, Message::Reply { .. }))));
            (out.iter())
                .filter_map(|(to, msg)| match msg {
                    Message::Notify { key, value } if *to == peer => {
                        Some((key.clone(), value.clone()))
                    }
                    _ => None,
                })
                .collect()
        };
        let v = Some(Value::from_static(b"v"));
        let bob = Key::from("p|bob|100");
        assert_eq!(notified(&put(&mut home, "p|bob|100")), [(bob.clone(), v)]);
        assert_eq!(notified(&put(&mut home, "p|liz|100")), []);
        let out = handle(&mut home, CLIENT, remove("p|bob|100"));
        assert_eq!(notified(&out), [(bob, None)]);
        assert_eq!(home.stats.notifies_sent, 2);
    }

    /// Serving a range that is partly missing marks its gaps resident
    /// only while the grant scans: afterwards the home's resident set is
    /// exactly what it was, disjoint ranges included.
    #[test]
    fn a_grant_leaves_the_homes_residency_as_it_found_it() {
        let mut home = post_home();
        put(&mut home, "p|bob|100");
        put(&mut home, "p|liz|100");
        home.engine
            .install_base(&KeyRange::prefix("p|cat|"), Vec::new());
        let table = Key::from("p|");
        let before = home.engine.resident_ranges(&table);
        assert_eq!(before.len(), 3);
        let out = handle(
            &mut home,
            ClusterPeer::Node(0),
            subscribe(KeyRange::prefix("p|")),
        );
        let [(_, Message::SubscribeReply { pairs, .. })] = &out[..] else {
            panic!("expected one grant, got {out:?}");
        };
        assert_eq!(pairs.len(), 2);
        assert_eq!(home.engine.resident_ranges(&table), before);
    }
}
