//! One Pequod server of a partitioned deployment (§2.4, §3.3): the
//! Subscribe/Notify state machine, independent of what carries its
//! messages.
//!
//! A [`Node`] owns one single-threaded [`Engine`]. Base tables are
//! spread over the deployment by a [`Partition`] function, so every
//! base key has one *home* node. A node that needs base data homed
//! elsewhere sends `Subscribe` to the home, which answers with the
//! rows it is the authority for and forwards every later write to them
//! as a `Notify` — the subscriber keeps an eventually-consistent
//! replica, and its computed data stays fresh through the engine's
//! ordinary updaters. A query that runs into missing data parks with a
//! restart context and runs again when its fetches have landed (§3.3).
//!
//! [`Node::handle`] consumes one wire [`Message`] and appends the
//! messages to send to the caller's [`Out`]; it never blocks and never
//! does I/O. One host drives it: [`ClusterNode`](crate::ClusterNode),
//! the replicated deployment's node, over TCP or its deterministic
//! simulator. It keeps slots, epochs and replication around one `Node`,
//! whose partition is the live slot view: a key is homed at the node
//! holding its slot, else at the slot's primary. A deployment that uses
//! every core of a machine runs one such process per core, and the
//! write-around deployment (§2) is two of them
//! ([`ClusterClient::write_around`](crate::ClusterClient::write_around)).
//!
//! # What a fetch guarantees
//!
//! A missing range the partition can prove single-homed is fetched from
//! that home. Any other range (a whole table under a hash partition) is
//! scatter-gathered: subscribed at *every* peer that homes some key
//! ([`Partition::homes`]), each of which returns only the keys it
//! homes. Either way the answers are buffered in one
//! fetch group and installed in one step when the last arrives, so no
//! query sees the range half-fetched-but-resident. Peers grant at
//! different times, so a `Notify` from a peer that has already granted
//! can arrive while the group still waits on another: it is held with
//! the group and applied right after the install, in arrival order.
//! Every write acknowledged by a home after it granted is therefore in
//! the installed range — none is dropped for arriving early.
//!
//! A `Subscribe` lost on the way (a link that dropped) is sent again when
//! the host reports the link to that peer back up
//! ([`Node::resubscribe`]). A fetch group counts each peer's grant once,
//! so the answer to the original and to the re-sent `Subscribe` cannot
//! install the range before the other peers have granted.
//!
//! A `Notify` for a range this node has evicted (resident nowhere, no
//! fetch open) is dropped: applying it would leave a replica row that
//! nothing refreshes or evicts. The next read refetches the range. The
//! node also tells the home: once an operation has evicted replicated
//! base data, every subscribed range no longer resident is given up
//! with an `Unsubscribe`, so the home stops notifying it.
//!
//! A `Notify` or a grant is taken only from the key's home. Under a
//! static partition that is every one of them; where homes move (the
//! replicated cluster's failover and migration), it keeps a deposed
//! home's late traffic out, and [`Node::drop_replicas`] forgets what
//! the old home served so the next read subscribes at the new one.
//!
//! The node's unit tests drive it message by message beside the
//! `ClusterNode`'s, in `node.rs`.

use crate::node::{ClusterPeer, Out};
use pequod_core::partition::{Partition, ServerId};
use pequod_core::Engine;
use pequod_net::Message;
use pequod_store::{Key, KeyRange, RangeSet, Value, ValueRef};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Give up on a query after this many fetch-and-restart rounds.
const MAX_RETRIES: u32 = 16;

/// Per-node counters, each read as one `pequod_node_*_total` entry of
/// [`ClusterNode::telemetry_snapshot`](crate::ClusterNode::telemetry_snapshot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Requests handled (failed ones included).
    pub commands: u64,
    /// Queries parked waiting for another node's data.
    pub parked: u64,
    /// Subscriptions granted to peers.
    pub subs_granted: u64,
    /// Subscription grants received from peers.
    pub subs_established: u64,
    /// Notifications sent to subscribers.
    pub notifies_sent: u64,
    /// Notifications applied to the engine.
    pub notifies_applied: u64,
}

/// A query and its restart context (§3.3). `outstanding` holds the
/// fetch groups it waits on.
struct Parked {
    client: ClusterPeer,
    id: u64,
    /// A count: only the number leaves the node, never the pairs.
    count: bool,
    range: KeyRange,
    outstanding: HashSet<u64>,
    retries: u32,
    /// What a scan of it already found missing, to fetch before the next.
    known: Vec<KeyRange>,
}

/// One missing range being fetched from one or several peers.
struct FetchGroup {
    range: KeyRange,
    /// The peers subscribed at.
    peers: Vec<ServerId>,
    /// The peers whose grant is still awaited.
    waiting: HashSet<ServerId>,
    pairs: Vec<(Key, Value)>,
    /// Notifications for `range` that arrived before it was installed.
    held: Vec<(Key, Option<Value>)>,
}

/// Who homes what: the partition function over a deployment of `nodes`
/// nodes (ids `0..nodes`; the partition returns node ids).
#[derive(Clone)]
struct Placement {
    partition: Arc<dyn Partition>,
    nodes: u32,
}

impl Placement {
    fn home(&self, key: &Key) -> ServerId {
        self.partition.home_of(key)
    }

    /// The one node that homes every key of `range`, when that can be
    /// proven: the range is a single key, or the partition vouches for
    /// it. `None` means the range may span nodes.
    fn range_home(&self, range: &KeyRange) -> Option<ServerId> {
        if *range == KeyRange::single(range.first.clone()) {
            return Some(self.home(&range.first));
        }
        self.partition.home_of_range(range)
    }

    /// The nodes other than `me` that home some key: whom a range that
    /// may span nodes is gathered from.
    fn peers_of(&self, me: ServerId) -> Vec<ServerId> {
        let mut homes =
            (self.partition.homes()).unwrap_or_else(|| (0..self.nodes).map(ServerId).collect());
        homes.sort_unstable();
        homes.dedup();
        homes.retain(|home| *home != me);
        homes
    }
}

/// One node's contribution to [`audit_deployment`].
pub struct NodeAudit {
    node: ServerId,
    placement: Placement,
    /// Violations from this node's [`Engine::check_invariants`].
    violations: Vec<String>,
    /// Ranges this node serves to each peer.
    serving: Vec<(KeyRange, ServerId)>,
    /// Resident ranges of this node's partitioned tables.
    resident: Vec<KeyRange>,
}

/// One Pequod server in a partitioned deployment. See the
/// [module docs](self).
pub struct Node {
    /// This node's identity.
    pub id: ServerId,
    /// The cache engine.
    pub engine: Engine,
    /// Counters.
    pub stats: NodeStats,
    placement: Placement,
    /// Ranges peers replicate from this node.
    subscribers: Vec<(KeyRange, ServerId)>,
    /// Ranges this node replicates, and the peers that serve them.
    subscriptions: Vec<(KeyRange, Vec<ServerId>)>,
    /// The engine's base-eviction count when `subscriptions` was last
    /// checked against residency.
    seen_evictions: u64,
    parked: Vec<Parked>,
    /// Open fetches, in id order.
    fetches: BTreeMap<u64, FetchGroup>,
    next_id: u64,
}

impl Node {
    /// Creates node `id` of a deployment of `nodes` nodes (ids
    /// `0..nodes`), homing what `partition` places on it: the peers a
    /// scatter-gather reaches, and the keys this node is the authority
    /// for. The host tells the engine which tables are spread over the
    /// deployment ([`Engine::mark_remote_table`]). Memory-bounded serving
    /// (§2.5) may evict replicated base data — its home still has it and
    /// the next read re-subscribes — but never the authoritative rows,
    /// which are the only copy.
    pub fn new(
        id: ServerId,
        nodes: u32,
        mut engine: Engine,
        partition: Arc<dyn Partition>,
    ) -> Node {
        assert!(id.0 < nodes, "node id outside its deployment");
        let placement = Placement { partition, nodes };
        let authority = placement.clone();
        engine.set_base_authority(move |key| nodes == 1 || authority.home(key) == id);
        Node {
            id,
            engine,
            stats: NodeStats::default(),
            placement,
            subscribers: Vec::new(),
            subscriptions: Vec::new(),
            seen_evictions: 0,
            parked: Vec::new(),
            fetches: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// Number of ranges peers replicate from this node.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Number of queries currently parked on missing data.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Handles one message, appending the messages to send, in sending
    /// order, to `out` (a buffer the host can reuse from call to call).
    /// A `Get` is answered as the scan of its one key: a reply carries
    /// pairs, so the key rides along with its value. If the engine
    /// evicted replicated base data meanwhile, the homes of the ranges
    /// it no longer holds are sent `Unsubscribe`.
    pub fn handle(&mut self, from: ClusterPeer, msg: Message, out: &mut Out) {
        self.dispatch(from, msg, out);
        self.release_evicted(out);
    }

    /// `client`'s read `id` of `range`, run as `handle` runs a `Scan` but
    /// with its pairs visited (see [`Engine::scan_with`]), not replied.
    /// `false`: incomplete here, the pairs are void, a reply follows.
    pub fn read_with(
        &mut self,
        client: ClusterPeer,
        id: u64,
        range: &KeyRange,
        visit: impl FnMut(&Key, ValueRef<'_>),
        out: &mut Out,
    ) -> bool {
        let missing = self.engine.scan_with(range, visit);
        let complete = missing.is_empty();
        if complete {
            self.stats.commands += 1;
        } else {
            self.query(client, id, false, range.clone(), missing, out);
        }
        self.release_evicted(out);
        complete
    }

    /// If the engine evicted replicated base data since the last look,
    /// unsubscribes from the homes of the ranges it no longer holds.
    fn release_evicted(&mut self, out: &mut Out) {
        let evictions = self.engine.engine_stats().base_evictions;
        if evictions != self.seen_evictions {
            self.seen_evictions = evictions;
            self.release_unresident(out);
        }
    }

    fn dispatch(&mut self, from: ClusterPeer, msg: Message, out: &mut Out) {
        match msg {
            Message::Get { id, key } => {
                self.query(from, id, false, KeyRange::single(key), Vec::new(), out)
            }
            Message::Scan { id, range } => self.query(from, id, false, range, Vec::new(), out),
            Message::Count { id, range } => self.query(from, id, true, range, Vec::new(), out),
            Message::Put { id, key, value } => self.answer_write(from, id, key, Some(value), out),
            Message::Remove { id, key } => self.answer_write(from, id, key, None, out),
            Message::AddJoin { id, text } => {
                self.stats.commands += 1;
                let reply = match self.engine.add_joins_text(&text) {
                    Ok(_) => Message::reply(id, Vec::new()),
                    Err(e) => Message::error(id, e.to_string()),
                };
                out.push((from, reply));
            }
            Message::Subscribe { id, range } => {
                let ClusterPeer::Node(peer) = from else {
                    let reply = Message::error(id, "subscribe is server-to-server");
                    return out.push((from, reply));
                };
                let pairs = self.grant(&range);
                let peer = ServerId(peer);
                if !self.subscribers.contains(&(range.clone(), peer)) {
                    self.subscribers.push((range.clone(), peer));
                    self.stats.subs_granted += 1;
                }
                out.push((from, Message::SubscribeReply { id, range, pairs }));
            }
            Message::SubscribeReply { id, pairs, .. } => self.fetch_landed(from, id, pairs, out),
            Message::Notify { key, value } => {
                // Only the key's home speaks for it: a node that was
                // its home once (a deposed primary) may still be
                // notifying.
                if from != ClusterPeer::Node(self.placement.home(&key).0) {
                    return;
                }
                for group in self.fetches.values_mut() {
                    if group.range.contains(&key) {
                        group.held.push((key.clone(), value.clone()));
                    }
                }
                if self.engine.holds_key(&key) {
                    self.apply_notify(key, value);
                }
            }
            Message::Unsubscribe { range } => {
                if let ClusterPeer::Node(peer) = from {
                    (self.subscribers).retain(|(r, s)| !(s.0 == peer && r.overlaps(&range)));
                }
            }
            // Nodes send each other no requests, so no replies either;
            // the replication and admin frames are the host's.
            _ => {}
        }
    }

    /// Tells the homes of every subscribed range this node no longer
    /// holds (evicted, or forgotten by [`Node::drop_replicas`]) to stop
    /// notifying it.
    fn release_unresident(&mut self, out: &mut Out) {
        let Node {
            engine,
            subscriptions,
            ..
        } = self;
        subscriptions.retain(|(range, peers)| {
            if engine.is_resident(range) {
                return true;
            }
            for peer in peers {
                let range = range.clone();
                out.push((ClusterPeer::Node(peer.0), Message::Unsubscribe { range }));
            }
            false
        });
    }

    /// Forgets the replicas of every resident range `moved` names —
    /// their whole tables' replicated rows, which recompute and refetch
    /// on their next read — unsubscribes from their homes, and restarts
    /// the queries waiting on fetches of such ranges, in fetch order. A
    /// host calls this when the home of some keys changes under the
    /// partition, so that the next read subscribes again at the new home.
    pub fn drop_replicas(&mut self, moved: impl Fn(&KeyRange) -> bool, out: &mut Out) {
        let mut tables: Vec<Key> = (self.engine.all_resident_ranges().iter())
            .filter(|r| moved(r))
            .map(|r| r.first.table_prefix())
            .collect();
        tables.sort_unstable();
        tables.dedup();
        for table in &tables {
            self.engine.forget_replicas(table);
        }
        self.release_unresident(out);
        let stale: Vec<u64> = (self.fetches.iter())
            .filter(|(_, group)| moved(&group.range))
            .map(|(fetch, _)| *fetch)
            .collect();
        for fetch in stale {
            if let Some(group) = self.fetches.remove(&fetch) {
                for peer in group.peers {
                    let range = group.range.clone();
                    out.push((ClusterPeer::Node(peer.0), Message::Unsubscribe { range }));
                }
            }
            self.resume_parked(fetch, out);
        }
    }

    /// Runs `client`'s read `id` of `range` — a count, or a scan — that
    /// already knows `known` to be missing.
    fn query(
        &mut self,
        client: ClusterPeer,
        id: u64,
        count: bool,
        range: KeyRange,
        known: Vec<KeyRange>,
        out: &mut Out,
    ) {
        self.stats.commands += 1;
        let q = Parked {
            client,
            id,
            count,
            range,
            outstanding: HashSet::new(),
            retries: 0,
            known,
        };
        self.drive_query(q, out);
    }

    /// A client's write: refused unless this node is its key's home
    /// (every host routes writes there), else applied by
    /// [`Node::write`] and acknowledged after its notifications.
    fn answer_write(
        &mut self,
        from: ClusterPeer,
        id: u64,
        key: Key,
        value: Option<Value>,
        out: &mut Out,
    ) {
        self.stats.commands += 1;
        if self.placement.home(&key) != self.id {
            return out.push((from, Message::error(id, "a write goes to its key's home")));
        }
        self.write(key, value, out);
        out.push((from, Message::reply(id, Vec::new())));
    }

    /// A write at its key's home, which is its authority: made resident,
    /// applied with normal incremental maintenance, and sent as one
    /// `Notify` to each subscriber of a range holding it, in subscription
    /// order (followed by any `Unsubscribe` the write's evictions call
    /// for). The caller acknowledges the write after these, so on an
    /// ordered transport a command issued after the ack finds them
    /// already delivered.
    pub fn write(&mut self, key: Key, value: Option<Value>, out: &mut Out) {
        self.engine.mark_resident(&KeyRange::single(key.clone()));
        match &value {
            Some(v) => self.engine.put(key.clone(), v.clone()),
            None => self.engine.remove(&key),
        }
        let first = out.len();
        for (range, peer) in &self.subscribers {
            let to = ClusterPeer::Node(peer.0);
            if range.contains(&key) && !out[first..].iter().any(|(sent, _)| *sent == to) {
                self.stats.notifies_sent += 1;
                let (key, value) = (key.clone(), value.clone());
                out.push((to, Message::Notify { key, value }));
            }
        }
        self.release_evicted(out);
    }

    fn apply_notify(&mut self, key: Key, value: Option<Value>) {
        self.stats.notifies_applied += 1;
        match value {
            Some(v) => self.engine.put(key, v),
            None => self.engine.remove(&key),
        }
    }

    /// Runs a query until it completes or parks on fetches. Counts are
    /// answered here: only the number leaves the node, never the pairs.
    fn drive_query(&mut self, mut q: Parked, out: &mut Out) {
        let reply = loop {
            let missing = if !q.known.is_empty() {
                std::mem::take(&mut q.known)
            } else if q.count {
                let res = self.engine.count_result(&q.range);
                if res.is_complete() {
                    break Message::count_reply(q.id, res.count as u64);
                }
                res.missing
            } else {
                let res = self.engine.scan(&q.range);
                if res.is_complete() {
                    break Message::reply(q.id, res.pairs);
                }
                res.missing
            };
            q.retries += 1;
            if q.retries > MAX_RETRIES {
                break Message::error(q.id, "query exceeded fetch retries");
            }
            for miss in missing {
                // A provably single-homed range is fetched from its
                // home; anything else may span nodes and is gathered
                // from every peer.
                let targets: Vec<ServerId> = match self.placement.range_home(&miss) {
                    Some(home) if home == self.id => Vec::new(),
                    Some(home) => vec![home],
                    None => self.placement.peers_of(self.id),
                };
                if targets.is_empty() {
                    // This node is the authority: absence is knowledge.
                    self.engine.mark_resident(&miss);
                    continue;
                }
                let fetch = self.fresh_id();
                for peer in &targets {
                    let (id, range) = (fetch, miss.clone());
                    out.push((ClusterPeer::Node(peer.0), Message::Subscribe { id, range }));
                }
                self.fetches.insert(
                    fetch,
                    FetchGroup {
                        range: miss,
                        waiting: targets.iter().copied().collect(),
                        peers: targets,
                        pairs: Vec::new(),
                        held: Vec::new(),
                    },
                );
                q.outstanding.insert(fetch);
            }
            if !q.outstanding.is_empty() {
                self.stats.parked += 1;
                self.parked.push(q);
                return;
            }
            // Everything missing was local: run again at once.
        };
        out.push((q.client, reply));
    }

    /// One peer's grant arrived. The last one of a fetch installs the
    /// whole range, applies the notifications held for it, and resumes
    /// the queries that waited. A second grant from the same peer (the
    /// answer to a re-sent `Subscribe`) is ignored. A grant speaks only
    /// for the keys its sender homes: a scatter-gather reaches every
    /// peer, and a peer that also holds keys homed elsewhere (a replica
    /// of a primary's slot) must not overwrite the home's rows with its
    /// own.
    fn fetch_landed(
        &mut self,
        from: ClusterPeer,
        fetch: u64,
        mut pairs: Vec<(Key, Value)>,
        out: &mut Out,
    ) {
        self.stats.subs_established += 1;
        let Some(group) = self.fetches.get_mut(&fetch) else {
            return;
        };
        let ClusterPeer::Node(peer) = from else {
            return;
        };
        let peer = ServerId(peer);
        if !group.waiting.remove(&peer) {
            return;
        }
        let placement = &self.placement;
        pairs.retain(|(k, _)| peer == placement.home(k));
        group.pairs.extend(pairs);
        if !group.waiting.is_empty() {
            return;
        }
        let Some(group) = self.fetches.remove(&fetch) else {
            return;
        };
        // The held writes are part of the install, and the install
        // never evicts: the parked queries must find the range whole.
        // The cap is enforced again at the end of their restart.
        let saved_limit = self.engine.set_mem_limit(None);
        self.engine.install_base(&group.range, group.pairs);
        for (key, value) in group.held {
            self.apply_notify(key, value);
        }
        self.engine.set_mem_limit(saved_limit);
        self.subscriptions.push((group.range, group.peers));
        self.resume_parked(fetch, out);
    }

    /// Sends `peer` again the `Subscribe` of every open fetch still
    /// waiting on its grant, in fetch order. A host calls this when its
    /// link to `peer` comes back after a drop that may have lost some.
    pub fn resubscribe(&mut self, peer: ServerId, out: &mut Out) {
        for (fetch, group) in &self.fetches {
            if group.waiting.contains(&peer) {
                let (id, range) = (*fetch, group.range.clone());
                out.push((ClusterPeer::Node(peer.0), Message::Subscribe { id, range }));
            }
        }
    }

    /// Restarts every parked query whose last outstanding fetch was
    /// `fetch`.
    fn resume_parked(&mut self, fetch: u64, out: &mut Out) {
        let mut ready = Vec::new();
        let mut i = 0;
        while i < self.parked.len() {
            let waited = self.parked[i].outstanding.remove(&fetch);
            if waited && self.parked[i].outstanding.is_empty() {
                ready.push(self.parked.swap_remove(i));
            } else {
                i += 1;
            }
        }
        for q in ready {
            self.drive_query(q, out);
        }
    }

    /// Serves a subscription: the rows of `range` this node homes (for
    /// those, local absence is knowledge). The range may span nodes, so
    /// what the scan below claims resident is transient — granting must
    /// not change what this node believes about keys it does not own.
    /// The gaps it marks were uncovered before, so removing exactly them
    /// afterwards restores the resident set without copying it (at a
    /// home that takes every write, one range per written key).
    /// Automatic eviction is suspended meanwhile: it could drop rows the
    /// restored residency still vouches for.
    fn grant(&mut self, range: &KeyRange) -> Vec<(Key, Value)> {
        let saved_limit = self.engine.set_mem_limit(None);
        let mut marked = Vec::new();
        let mut pairs = loop {
            let res = self.engine.scan(range);
            if res.is_complete() {
                break res.pairs;
            }
            for miss in res.missing {
                self.engine.mark_resident(&miss);
                marked.push(miss);
            }
        };
        for gap in &marked {
            self.engine.unmark_resident(gap);
        }
        self.engine.set_mem_limit(saved_limit);
        pairs.retain(|(k, _)| self.placement.home(k) == self.id);
        pairs
    }

    /// This node's part of a deployment audit: the engine's deep
    /// invariant check plus its subscription state.
    pub fn audit(&self) -> NodeAudit {
        NodeAudit {
            node: self.id,
            placement: self.placement.clone(),
            violations: self.engine.check_invariants(),
            serving: self.subscribers.clone(),
            resident: self.engine.all_resident_ranges(),
        }
    }
}

/// Checks a quiescent deployment from every node's [`Node::audit`]:
/// each engine's own invariants, and subscription symmetry — whatever a
/// node holds resident of a partitioned table, beyond what it homes
/// itself, must be covered by ranges its peers record as served to it
/// (the reverse, serving a range the peer has since evicted, is legal:
/// the peer drops the notifications). Returns one message per
/// violation.
pub fn audit_deployment(audits: &[NodeAudit]) -> Vec<String> {
    let mut v = Vec::new();
    for a in audits {
        let node = a.node.0;
        v.extend(a.violations.iter().map(|m| format!("node {node}: {m}")));
    }
    for b in audits {
        let mut served_to_b = RangeSet::new();
        for (range, _) in audits
            .iter()
            .filter(|a| a.node != b.node)
            .flat_map(|a| &a.serving)
            .filter(|(_, peer)| *peer == b.node)
        {
            served_to_b.add(range);
        }
        // A range this node homes is authoritative data, not a replica,
        // and needs no peer serving updates to it.
        let unserved = (b.resident.iter())
            .flat_map(|r| served_to_b.uncovered(r))
            .filter(|gap| b.placement.range_home(gap) != Some(b.node));
        for gap in unserved {
            v.push(format!(
                "node {}: resident replicated range {gap:?} is not served by any peer \
                 (updates to it would never arrive)",
                b.node.0
            ));
        }
    }
    v
}
