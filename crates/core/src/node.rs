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
//! [`Node::handle`] consumes one message and hands back the messages to
//! send; it never blocks and never does I/O. Two hosts drive it:
//!
//! * [`WriteAround`](crate::WriteAround) — a cache node and a database
//!   node on the caller's thread, which carries their messages from a
//!   queue until none is left;
//! * `pequod_cluster::ClusterNode` — the replicated deployment's node,
//!   over TCP or its deterministic simulator. It keeps slots, epochs and
//!   replication around one `Node`, whose partition is the live slot
//!   view: a key is homed at the node holding its slot, else at the
//!   slot's primary. It maps each [`NodeMsg`] 1:1 onto the wire
//!   `Message`. A deployment that uses every core of a machine runs one
//!   such process per core.
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

use crate::client::{Command, Response};
use crate::engine::Engine;
use crate::partition::{Partition, ServerId};
use pequod_store::{Key, KeyRange, RangeSet, Value, ValueRef};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Give up on a query after this many fetch-and-restart rounds.
const MAX_RETRIES: u32 = 16;

/// A message source or destination.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Endpoint {
    /// An application client, by whatever token its host knows it.
    Client(u64),
    /// Another node of the deployment.
    Server(ServerId),
}

/// What nodes, and their clients, say to each other.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeMsg {
    /// A client command.
    Request {
        /// Request id, echoed in the reply.
        id: u64,
        /// The command.
        command: Command,
    },
    /// The answer to a `Request`.
    Reply {
        /// The request this answers.
        id: u64,
        /// Its response.
        response: Response,
    },
    /// Peer → home: send `range`'s rows and every later update to them.
    Subscribe {
        /// The fetch this belongs to, echoed in the reply.
        id: u64,
        /// The base range wanted.
        range: KeyRange,
    },
    /// Home → peer: the rows of `range` the home is the authority for.
    SubscribeReply {
        /// The `Subscribe` this answers.
        id: u64,
        /// The subscribed range.
        range: KeyRange,
        /// Its current contents at this home.
        pairs: Vec<(Key, Value)>,
    },
    /// Home → subscriber: a write to a subscribed range.
    Notify {
        /// The written key.
        key: Key,
        /// New value, or `None` for a removal.
        value: Option<Value>,
    },
    /// Subscriber → home: stop notifying me of `range`; I no longer
    /// hold it.
    Unsubscribe {
        /// The range given up.
        range: KeyRange,
    },
}

/// Per-node counters.
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

/// What a parked query replies with once its range is complete.
#[derive(Clone, Copy, PartialEq, Eq)]
enum QueryKind {
    Get,
    Scan,
    Count,
}

/// A query and its restart context (§3.3). `outstanding` holds the
/// fetch groups it waits on.
struct Parked {
    client: Endpoint,
    id: u64,
    kind: QueryKind,
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
/// nodes (ids `0..nodes`, a partition's `ServerId(s)` meaning node
/// `s % nodes`).
#[derive(Clone)]
struct Placement {
    partition: Arc<dyn Partition>,
    nodes: u32,
}

impl Placement {
    fn home(&self, key: &Key) -> ServerId {
        ServerId(self.partition.home_of(key).0 % self.nodes)
    }

    /// The one node that homes every key of `range`, when that can be
    /// proven: the range is a single key, or the partition vouches for
    /// it. `None` means the range may span nodes.
    fn range_home(&self, range: &KeyRange) -> Option<ServerId> {
        if *range == KeyRange::single(range.first.clone()) {
            return Some(self.home(&range.first));
        }
        let home = self.partition.home_of_range(range)?;
        Some(ServerId(home.0 % self.nodes))
    }

    /// The nodes other than `me` that home some key: whom a range that
    /// may span nodes is gathered from.
    fn peers_of(&self, me: ServerId) -> Vec<ServerId> {
        let mut homes: Vec<ServerId> = match self.partition.homes() {
            Some(homes) => homes
                .into_iter()
                .map(|h| ServerId(h.0 % self.nodes))
                .collect(),
            None => (0..self.nodes).map(ServerId).collect(),
        };
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
    /// Open fetches by id.
    fetches: HashMap<u64, FetchGroup>,
    next_id: u64,
}

impl Node {
    /// Creates node `id`. `partitioned_tables` lists the base-table
    /// prefixes spread over the deployment: the engine treats them as
    /// remote and resolves residency through `partition`. The host
    /// says how many nodes there are with [`Node::in_deployment`]; until
    /// then the node assumes the smallest deployment that contains it.
    pub fn new(
        id: ServerId,
        mut engine: Engine,
        partition: Arc<dyn Partition>,
        partitioned_tables: &[&str],
    ) -> Node {
        for t in partitioned_tables {
            engine.mark_remote_table(*t);
        }
        Node {
            id,
            engine,
            stats: NodeStats::default(),
            placement: Placement {
                partition,
                nodes: id.0 + 1,
            },
            subscribers: Vec::new(),
            subscriptions: Vec::new(),
            seen_evictions: 0,
            parked: Vec::new(),
            fetches: HashMap::new(),
            next_id: 1,
        }
        .in_deployment(id.0 + 1)
    }

    /// Places the node in a deployment of `nodes` nodes (ids
    /// `0..nodes`): the peers a scatter-gather reaches, and the keys
    /// this node is the authority for. Memory-bounded serving (§2.5)
    /// may evict replicated base data — its home still has it and the
    /// next read re-subscribes — but never the authoritative rows,
    /// which are the only copy.
    pub fn in_deployment(mut self, nodes: u32) -> Node {
        assert!(self.id.0 < nodes, "node id outside its deployment");
        self.placement.nodes = nodes;
        let (placement, id) = (self.placement.clone(), self.id);
        self.engine
            .set_base_authority(move |key| nodes == 1 || placement.home(key) == id);
        self
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
    /// If the engine evicted replicated base data meanwhile, the homes
    /// of the ranges it no longer holds are sent `Unsubscribe`.
    pub fn handle(&mut self, from: Endpoint, msg: NodeMsg, out: &mut Vec<(Endpoint, NodeMsg)>) {
        self.dispatch(from, msg, out);
        self.release_evicted(out);
    }

    /// `client`'s read `id` of `range`, run as `handle` runs a `Scan` but
    /// with its pairs visited (see [`Engine::scan_with`]), not replied.
    /// `false`: incomplete here, the pairs are void, a reply follows.
    pub fn read_with(
        &mut self,
        client: Endpoint,
        id: u64,
        range: &KeyRange,
        visit: impl FnMut(&Key, ValueRef<'_>),
        out: &mut Vec<(Endpoint, NodeMsg)>,
    ) -> bool {
        let missing = self.engine.scan_with(range, visit);
        let complete = missing.is_empty();
        if complete {
            self.stats.commands += 1;
        } else {
            self.execute(client, id, Command::Scan(range.clone()), missing, out);
        }
        self.release_evicted(out);
        complete
    }

    /// If the engine evicted replicated base data since the last look,
    /// unsubscribes from the homes of the ranges it no longer holds.
    fn release_evicted(&mut self, out: &mut Vec<(Endpoint, NodeMsg)>) {
        let evictions = self.engine.engine_stats().base_evictions;
        if evictions != self.seen_evictions {
            self.seen_evictions = evictions;
            self.release_unresident(out);
        }
    }

    fn dispatch(&mut self, from: Endpoint, msg: NodeMsg, out: &mut Vec<(Endpoint, NodeMsg)>) {
        match msg {
            NodeMsg::Request { id, command } => self.execute(from, id, command, Vec::new(), out),
            // Nodes send each other no requests, so no replies either.
            NodeMsg::Reply { .. } => {}
            NodeMsg::Subscribe { id, range } => {
                let Endpoint::Server(peer) = from else {
                    let response = Response::Error("subscribe is server-to-server".into());
                    return out.push((from, NodeMsg::Reply { id, response }));
                };
                let pairs = self.grant(&range);
                if !self.subscribers.contains(&(range.clone(), peer)) {
                    self.subscribers.push((range.clone(), peer));
                    self.stats.subs_granted += 1;
                }
                out.push((from, NodeMsg::SubscribeReply { id, range, pairs }));
            }
            NodeMsg::SubscribeReply { id, pairs, .. } => self.fetch_landed(from, id, pairs, out),
            NodeMsg::Notify { key, value } => {
                // Only the key's home speaks for it: a node that was
                // its home once (a deposed primary) may still be
                // notifying.
                if from != Endpoint::Server(self.placement.home(&key)) {
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
            NodeMsg::Unsubscribe { range } => {
                if let Endpoint::Server(peer) = from {
                    (self.subscribers).retain(|(r, s)| !(*s == peer && r.overlaps(&range)));
                }
            }
        }
    }

    /// Tells the homes of every subscribed range this node no longer
    /// holds (evicted, or forgotten by [`Node::drop_replicas`]) to stop
    /// notifying it.
    fn release_unresident(&mut self, out: &mut Vec<(Endpoint, NodeMsg)>) {
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
                out.push((Endpoint::Server(*peer), NodeMsg::Unsubscribe { range }));
            }
            false
        });
    }

    /// Forgets the replicas of every resident range `moved` names —
    /// their whole tables' replicated rows, which recompute and refetch
    /// on their next read — unsubscribes from their homes, and restarts
    /// the queries waiting on fetches of such ranges. A host calls this
    /// when the home of some keys changes under the partition, so that
    /// the next read subscribes again at the new home.
    pub fn drop_replicas(
        &mut self,
        moved: impl Fn(&KeyRange) -> bool,
        out: &mut Vec<(Endpoint, NodeMsg)>,
    ) {
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
        let mut stale: Vec<u64> = (self.fetches.iter())
            .filter(|(_, group)| moved(&group.range))
            .map(|(fetch, _)| *fetch)
            .collect();
        // In id order, so the restarted queries' traffic repeats run to run.
        stale.sort_unstable();
        for fetch in stale {
            if let Some(group) = self.fetches.remove(&fetch) {
                for peer in group.peers {
                    let range = group.range.clone();
                    out.push((Endpoint::Server(peer), NodeMsg::Unsubscribe { range }));
                }
            }
            self.resume_parked(fetch, out);
        }
    }

    fn execute(
        &mut self,
        from: Endpoint,
        id: u64,
        command: Command,
        known: Vec<KeyRange>,
        out: &mut Vec<(Endpoint, NodeMsg)>,
    ) {
        self.stats.commands += 1;
        let query = |kind, range| Parked {
            client: from,
            id,
            kind,
            range,
            outstanding: HashSet::new(),
            retries: 0,
            known,
        };
        let response = match command {
            Command::Get(key) => {
                return self.drive_query(query(QueryKind::Get, KeyRange::single(key)), out)
            }
            Command::Scan(range) => return self.drive_query(query(QueryKind::Scan, range), out),
            Command::Count(range) => return self.drive_query(query(QueryKind::Count, range), out),
            Command::Put(key, value) => return self.write(from, id, key, Some(value), out),
            Command::Remove(key) => return self.write(from, id, key, None, out),
            Command::AddJoin(text) => match self.engine.add_joins_text(&text) {
                Ok(_) => Response::Ok,
                Err(e) => Response::Error(e.to_string()),
            },
        };
        out.push((from, NodeMsg::Reply { id, response }));
    }

    /// A write, at its key's home (every host routes writes there; one
    /// elsewhere is refused): made resident (this node is its
    /// authority), applied with normal incremental maintenance, and sent
    /// to every subscriber. The notifications precede the
    /// acknowledgment in the output, so on an ordered transport a
    /// command issued after the ack finds them already delivered.
    fn write(
        &mut self,
        from: Endpoint,
        id: u64,
        key: Key,
        value: Option<Value>,
        out: &mut Vec<(Endpoint, NodeMsg)>,
    ) {
        if self.placement.home(&key) != self.id {
            let response = Response::Error("a write goes to its key's home".into());
            return out.push((from, NodeMsg::Reply { id, response }));
        }
        self.engine.mark_resident(&KeyRange::single(key.clone()));
        match &value {
            Some(v) => self.engine.put(key.clone(), v.clone()),
            None => self.engine.remove(&key),
        }
        let mut notified: HashSet<ServerId> = HashSet::new();
        for (range, peer) in &self.subscribers {
            if range.contains(&key) && notified.insert(*peer) {
                self.stats.notifies_sent += 1;
                let (key, value) = (key.clone(), value.clone());
                out.push((Endpoint::Server(*peer), NodeMsg::Notify { key, value }));
            }
        }
        let response = Response::Ok;
        out.push((from, NodeMsg::Reply { id, response }));
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
    fn drive_query(&mut self, mut q: Parked, out: &mut Vec<(Endpoint, NodeMsg)>) {
        let response = loop {
            let missing = if !q.known.is_empty() {
                std::mem::take(&mut q.known)
            } else if q.kind == QueryKind::Count {
                let res = self.engine.count_result(&q.range);
                if res.is_complete() {
                    break Response::Count(res.count as u64);
                }
                res.missing
            } else {
                let res = self.engine.scan(&q.range);
                if res.is_complete() {
                    break match q.kind {
                        QueryKind::Get => {
                            Response::Value(res.pairs.into_iter().next().map(|(_, v)| v))
                        }
                        _ => Response::Pairs(res.pairs),
                    };
                }
                res.missing
            };
            q.retries += 1;
            if q.retries > MAX_RETRIES {
                break Response::Error("query exceeded fetch retries".into());
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
                    out.push((Endpoint::Server(*peer), NodeMsg::Subscribe { id, range }));
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
        out.push((q.client, NodeMsg::Reply { id: q.id, response }));
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
        from: Endpoint,
        fetch: u64,
        mut pairs: Vec<(Key, Value)>,
        out: &mut Vec<(Endpoint, NodeMsg)>,
    ) {
        self.stats.subs_established += 1;
        let Some(group) = self.fetches.get_mut(&fetch) else {
            return;
        };
        let Endpoint::Server(peer) = from else {
            return;
        };
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
    pub fn resubscribe(&mut self, peer: ServerId, out: &mut Vec<(Endpoint, NodeMsg)>) {
        let mut open: Vec<(u64, KeyRange)> = (self.fetches.iter())
            .filter(|(_, group)| group.waiting.contains(&peer))
            .map(|(fetch, group)| (*fetch, group.range.clone()))
            .collect();
        open.sort_unstable_by_key(|(fetch, _)| *fetch);
        for (id, range) in open {
            out.push((Endpoint::Server(peer), NodeMsg::Subscribe { id, range }));
        }
    }

    /// Restarts every parked query whose last outstanding fetch was
    /// `fetch`.
    fn resume_parked(&mut self, fetch: u64, out: &mut Vec<(Endpoint, NodeMsg)>) {
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
            if let Some(table) = self.engine.remote.get_mut(gap.first.table_prefix_bytes()) {
                table.resident.remove(gap);
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{ComponentHashPartition, TablePartition};

    const CLIENT: Endpoint = Endpoint::Client(1);

    /// Three nodes under a component-hash partition, and one user homed
    /// on each.
    fn three_nodes() -> (Vec<Node>, Vec<String>) {
        let part = Arc::new(ComponentHashPartition {
            component: 1,
            servers: 3,
        });
        let nodes = (0..3)
            .map(|i| {
                Node::new(ServerId(i), Engine::new_default(), part.clone(), &["p|"])
                    .in_deployment(3)
            })
            .collect();
        let user_on = |node: u32| {
            (0..)
                .map(|i| format!("u{i}"))
                .find(|u| part.home_of(&Key::from(format!("p|{u}|0"))) == ServerId(node))
                .unwrap()
        };
        (nodes, (0..3).map(user_on).collect())
    }

    fn handle(node: &mut Node, from: Endpoint, msg: NodeMsg) -> Vec<(Endpoint, NodeMsg)> {
        let mut out = Vec::new();
        node.handle(from, msg, &mut out);
        out
    }

    fn put(node: &mut Node, key: &str) -> Vec<(Endpoint, NodeMsg)> {
        let command = Command::Put(Key::from(key), Value::from_static(b"v"));
        handle(node, CLIENT, NodeMsg::Request { id: 1, command })
    }

    fn scan(node: &mut Node, id: u64) -> Vec<(Endpoint, NodeMsg)> {
        let command = Command::Scan(KeyRange::prefix("p|"));
        handle(node, CLIENT, NodeMsg::Request { id, command })
    }

    fn keys_of(reply: &[(Endpoint, NodeMsg)], id: u64) -> Vec<String> {
        match reply {
            [(
                CLIENT,
                NodeMsg::Reply {
                    id: rid,
                    response: Response::Pairs(pairs),
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
            let to = Endpoint::Server(peer);
            let mut sent = out.iter().filter(|(t, _)| *t == to).map(|(_, m)| m.clone());
            match (sent.next(), sent.next()) {
                (Some(m @ NodeMsg::Subscribe { .. }), None) => m,
                other => panic!("expected one Subscribe to {peer:?}, got {other:?}"),
            }
        };
        let (to_a, to_b) = (subscribe_to(a), subscribe_to(b));
        assert_eq!(out.len(), 2);
        assert_eq!(nodes[0].parked_count(), 1);

        // A grants; the reader still waits on B.
        let mut grant_a = handle(&mut nodes[1], Endpoint::Server(reader), to_a);
        let (_, grant_a) = grant_a.pop().unwrap();
        assert!(handle(&mut nodes[0], Endpoint::Server(a), grant_a).is_empty());

        // A write at A is acknowledged: its notification precedes the ack.
        let mut acked = put(&mut nodes[1], &new_a);
        let ack = acked.pop().unwrap();
        assert!(matches!(
            ack,
            (
                CLIENT,
                NodeMsg::Reply {
                    response: Response::Ok,
                    ..
                }
            )
        ));
        let (to, notify) = acked.pop().unwrap();
        assert_eq!(to, Endpoint::Server(reader));
        assert!(handle(&mut nodes[0], Endpoint::Server(a), notify).is_empty());

        // B grants: the range installs, the held write with it, and the
        // parked scan answers with all three rows.
        let mut grant_b = handle(&mut nodes[2], Endpoint::Server(reader), to_b);
        let (_, grant_b) = grant_b.pop().unwrap();
        let answered = handle(&mut nodes[0], Endpoint::Server(b), grant_b);
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
            let to = Endpoint::Server(peer);
            (out.iter().find(|(t, _)| *t == to).map(|(_, m)| m.clone())).unwrap()
        };
        let (to_a, to_b) = (subscribe_to(a), subscribe_to(b));
        let resent = |node: &mut Node, peer: ServerId| {
            let mut out = Vec::new();
            node.resubscribe(peer, &mut out);
            out
        };

        // A grants, twice: the second changes nothing.
        let grant_a = handle(&mut nodes[1], Endpoint::Server(reader), to_a.clone());
        let grant_a = grant_a.into_iter().next().unwrap().1;
        assert!(handle(&mut nodes[0], Endpoint::Server(a), grant_a.clone()).is_empty());
        assert_eq!(resent(&mut nodes[0], a), []);
        assert!(handle(&mut nodes[0], Endpoint::Server(a), grant_a.clone()).is_empty());
        assert_eq!(nodes[0].parked_count(), 1);
        assert!(!nodes[0].engine.is_resident(&KeyRange::prefix("p|")));

        // The link to B comes back: the same Subscribe goes again.
        assert_eq!(
            resent(&mut nodes[0], b),
            [(Endpoint::Server(b), to_b.clone())]
        );
        let grant_b = handle(&mut nodes[2], Endpoint::Server(reader), to_b);
        let grant_b = grant_b.into_iter().next().unwrap().1;
        let answered = handle(&mut nodes[0], Endpoint::Server(b), grant_b.clone());
        let mut want = vec![row_a, row_b];
        want.sort();
        assert_eq!(keys_of(&answered, 7), want);
        assert_eq!(nodes[0].parked_count(), 0);

        // Late duplicates of either grant are ignored.
        assert!(handle(&mut nodes[0], Endpoint::Server(b), grant_b).is_empty());
        assert!(handle(&mut nodes[0], Endpoint::Server(a), grant_a).is_empty());
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
        let notify = NodeMsg::Notify {
            key: key.clone(),
            value,
        };
        handle(&mut nodes[0], Endpoint::Server(ServerId(1)), notify.clone());
        assert_eq!(nodes[0].stats.notifies_applied, 0);
        assert_eq!(nodes[0].engine.check_invariants(), Vec::<String>::new());
        nodes[0]
            .engine
            .install_base(&KeyRange::single(key), Vec::new());
        handle(&mut nodes[0], Endpoint::Server(ServerId(1)), notify);
        assert_eq!(nodes[0].stats.notifies_applied, 1);
        assert_eq!(nodes[0].engine.check_invariants(), Vec::<String>::new());
    }

    /// Node 1 of two, homing the whole `p|` table.
    fn post_home() -> Node {
        let part = Arc::new(TablePartition::new(ServerId(0)).route("p|", ServerId(1)));
        Node::new(ServerId(1), Engine::new_default(), part, &["p|"]).in_deployment(2)
    }

    fn subscribe(range: KeyRange) -> NodeMsg {
        NodeMsg::Subscribe { id: 1, range }
    }

    /// A peer that subscribes to the same range twice is recorded once,
    /// and its `Unsubscribe` drops the record.
    #[test]
    fn duplicate_subscriptions_collapse() {
        let mut home = post_home();
        let peer = Endpoint::Server(ServerId(0));
        for _ in 0..2 {
            let out = handle(&mut home, peer, subscribe(KeyRange::prefix("p|")));
            assert!(matches!(&out[..], [(to, NodeMsg::SubscribeReply { .. })] if *to == peer));
        }
        assert_eq!(home.subscriber_count(), 1);
        assert_eq!(home.stats.subs_granted, 1);
        let range = KeyRange::prefix("p|");
        handle(&mut home, peer, NodeMsg::Unsubscribe { range });
        assert_eq!(home.subscriber_count(), 0);
    }

    /// A home notifies a subscriber of the writes inside its range, and
    /// of none outside it; a notification precedes the write's ack.
    #[test]
    fn subscriptions_notify_in_range_only() {
        let mut home = post_home();
        let peer = Endpoint::Server(ServerId(0));
        handle(&mut home, peer, subscribe(KeyRange::prefix("p|bob|")));
        let remove = |key: &str| {
            let command = Command::Remove(Key::from(key));
            NodeMsg::Request { id: 2, command }
        };
        let notified = |out: &[(Endpoint, NodeMsg)]| -> Vec<(Key, Option<Value>)> {
            assert!(matches!(out.last(), Some((CLIENT, NodeMsg::Reply { .. }))));
            (out.iter())
                .filter_map(|(to, msg)| match msg {
                    NodeMsg::Notify { key, value } if *to == peer => {
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
            Endpoint::Server(ServerId(0)),
            subscribe(KeyRange::prefix("p|")),
        );
        let [(_, NodeMsg::SubscribeReply { pairs, .. })] = &out[..] else {
            panic!("expected one grant, got {out:?}");
        };
        assert_eq!(pairs.len(), 2);
        assert_eq!(home.engine.resident_ranges(&table), before);
    }
}
