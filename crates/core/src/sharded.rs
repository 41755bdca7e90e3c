//! A sharded multi-core engine: N single-threaded [`Engine`] shards
//! behind one [`Client`] surface.
//!
//! The paper scales Pequod by running one single-threaded server
//! process per core and partitioning base tables across them (§2.4);
//! cross-server joins stay fresh because reading a remote base range
//! installs a *subscription* at its home server, which forwards later
//! updates with *notifications*. [`ShardedEngine`] reproduces that
//! architecture inside one process:
//!
//! * Each shard is a worker thread owning one single-threaded
//!   [`Engine`] — the engine itself needs no locks, exactly like the
//!   paper's event-driven server processes.
//! * The shard for a key is chosen by the same [`Partition`] functions
//!   the distributed tier uses for whole servers (`pequod_net`
//!   re-exports them from [`crate::partition`]).
//! * Cross-shard joins mirror the server-level Subscribe/Notify
//!   protocol over in-process channels: a query that needs base data
//!   homed on another shard parks, subscribes to the owning shard, and
//!   restarts when the data arrives; subsequent writes at the home
//!   shard are forwarded to subscribers as notifications.
//! * A range the partition cannot prove single-homed (a whole-table
//!   scan under a hash partition, say) is scatter-gathered: the
//!   executing shard subscribes to the range at *every* peer, each
//!   returns only the keys it is authoritative for, and the pieces are
//!   installed atomically — so even cross-shard ranges answer exactly
//!   like a single [`Engine`] (at broadcast cost; the paper's client
//!   routing keeps the hot paths single-shard).
//! * A [`MemoryLimit`](crate::config::MemoryLimit) in the config is
//!   split into even per-shard budgets. Each shard evicts its own LRU
//!   computed ranges and cached peer replicas (§2.5) — never the rows
//!   it is the partition's authority for — and the merged `Stats`
//!   reply sums footprints and eviction counters node-wide (see
//!   `docs/MEMORY.md`).
//!
//! # Consistency
//!
//! A batch is split into *runs* of like commands (reads / writes /
//! joins / stats), identically to `pequod_net::ClusterClient`. Each run
//! is pipelined to all shards at once; the client waits for every reply
//! before starting the next run. Because each shard's mailbox is FIFO
//! and a home shard enqueues notifications to subscribers *before*
//! acknowledging the write, any command issued after a write's
//! acknowledgment observes that write — so one client's batch answers
//! exactly like the same commands issued one at a time against a single
//! [`Engine`] (the conformance suite asserts byte-identical responses).
//! Concurrent clients (separate [`ShardedHandle`]s) see eventual
//! consistency across shards, matching the paper's semantics for
//! concurrent writers.

use crate::client::{BackendStats, Client, Command, Response};
use crate::config::EngineConfig;
use crate::engine::Engine;
use crate::partition::Partition;
use pequod_store::{Key, KeyRange, RangeSet, Value};
use pequod_telemetry::{Recorder, Snapshot};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Give up on a query after this many fetch-and-restart rounds
/// (mirrors `pequod_net::ServerNode`).
const MAX_RETRIES: u32 = 16;

/// Thread-safety contract: a whole engine moves onto each worker
/// thread, messages move between shards, and handles are shared across
/// client threads (the TCP server hands one to every connection).
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Engine>();
    assert_send::<ShardMsg>();
    assert_send_sync::<ShardedHandle>();
    assert_send_sync::<ShardSubmitter>();
};

/// A message delivered to one shard's mailbox. `Run` comes from
/// clients; the rest mirror the server-to-server subscription protocol
/// of `pequod_net::Message`.
enum ShardMsg {
    /// A run of client commands addressed to this shard; one reply per
    /// command, matched by id.
    Run {
        items: Vec<(u64, Command)>,
        reply: Sender<(u64, Response)>,
    },
    /// Peer shard `from` wants `range`'s current contents plus future
    /// updates (Subscribe).
    Subscribe {
        id: u64,
        range: KeyRange,
        from: usize,
    },
    /// The answer to a `Subscribe` this shard sent (SubscribeReply).
    SubscribeReply {
        id: u64,
        range: KeyRange,
        pairs: Vec<(Key, Value)>,
    },
    /// An update to a range this shard subscribed to (Notify).
    Notify { key: Key, value: Option<Value> },
    /// Paranoid audit: run the deep invariant checker on this shard's
    /// engine and report the shard's subscription state for the
    /// cross-shard symmetry check ([`ShardedEngine::check_invariants`]).
    CheckInvariants { reply: Sender<ShardAudit> },
    /// Graceful shutdown: final snapshot + fsync of this shard's
    /// durability sink ([`Engine::finalize_durability`]).
    Finalize { reply: Sender<()> },
    /// Stop the worker thread.
    Shutdown,
}

/// One shard's contribution to [`ShardedEngine::check_invariants`].
struct ShardAudit {
    shard: usize,
    /// Violations from this shard's `Engine::check_invariants`.
    violations: Vec<String>,
    /// Ranges this shard serves to each peer (outgoing replication).
    serving: Vec<(KeyRange, usize)>,
    /// Resident replicated ranges on this shard (incoming).
    resident: Vec<KeyRange>,
}

/// Per-shard counters, readable while the shard runs.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Client commands executed.
    pub commands: AtomicU64,
    /// Queries that parked waiting for another shard's data.
    pub parked: AtomicU64,
    /// Subscriptions granted to peer shards.
    pub subs_granted: AtomicU64,
    /// Subscriptions this shard established at peers.
    pub subs_established: AtomicU64,
    /// Notifications sent to subscribers.
    pub notifies_sent: AtomicU64,
    /// Notifications applied from home shards.
    pub notifies_applied: AtomicU64,
}

/// What a parked query replies with once its range is complete.
#[derive(Clone, Copy, PartialEq, Eq)]
enum QueryKind {
    Get,
    Scan,
    Count,
}

/// A query waiting on subscription fetches from peer shards (§3.3:
/// park with a restart context, resume when the fetches land).
/// `outstanding` holds [`FetchGroup`] ids.
struct Parked {
    id: u64,
    kind: QueryKind,
    range: KeyRange,
    reply: Sender<(u64, Response)>,
    outstanding: HashSet<u64>,
    retries: u32,
}

/// One missing range being fetched, possibly from several peers at
/// once: a range the partition can prove single-homed is fetched from
/// that home; a range that may span shards (e.g. a whole table under a
/// component-hash partition) is scatter-gathered from *every* peer,
/// each returning only the keys it is authoritative for. The pairs are
/// buffered and installed in one step when the last reply arrives, so
/// no other query can observe the range half-fetched-but-resident.
struct FetchGroup {
    range: KeyRange,
    /// Per-peer subscribe ids still outstanding.
    outstanding: HashSet<u64>,
    pairs: Vec<(Key, Value)>,
}

/// One worker: a single-threaded engine plus the subscription state a
/// `ServerNode` would keep, driven by an in-process mailbox.
struct ShardWorker {
    shard: usize,
    engine: Engine,
    partition: Arc<dyn Partition>,
    peers: Vec<Sender<ShardMsg>>,
    rx: Receiver<ShardMsg>,
    /// Ranges peer shards replicate from us.
    subscribers: Vec<(KeyRange, usize)>,
    parked: Vec<Parked>,
    /// In-flight fetches by group id.
    fetch_groups: HashMap<u64, FetchGroup>,
    /// Subscribe id → owning fetch group.
    fetch_to_group: HashMap<u64, u64>,
    next_fetch_id: u64,
    stats: Arc<ShardStats>,
}

impl ShardWorker {
    fn run(mut self) {
        while let Ok(msg) = self.rx.recv() {
            match msg {
                ShardMsg::Run { items, reply } => {
                    for (id, cmd) in items {
                        self.stats.commands.fetch_add(1, Ordering::Relaxed);
                        self.execute(id, cmd, &reply);
                    }
                }
                ShardMsg::Subscribe { id, range, from } => {
                    let pairs = self.serve_subscribe(&range);
                    if !self
                        .subscribers
                        .iter()
                        .any(|(r, p)| *p == from && r == &range)
                    {
                        self.subscribers.push((range.clone(), from));
                        self.stats.subs_granted.fetch_add(1, Ordering::Relaxed);
                    }
                    let _ = self.peers[from].send(ShardMsg::SubscribeReply { id, range, pairs });
                }
                ShardMsg::SubscribeReply { id, range, pairs } => {
                    self.stats.subs_established.fetch_add(1, Ordering::Relaxed);
                    let Some(gid) = self.fetch_to_group.remove(&id) else {
                        continue; // stale reply for a completed group
                    };
                    let Some(group) = self.fetch_groups.get_mut(&gid) else {
                        continue;
                    };
                    debug_assert!(range == group.range, "reply range matches its group");
                    group.outstanding.remove(&id);
                    group.pairs.extend(pairs);
                    if group.outstanding.is_empty() {
                        if let Some(group) = self.fetch_groups.remove(&gid) {
                            self.engine.install_base(&group.range, group.pairs);
                            self.resume_parked(gid);
                        }
                    }
                }
                ShardMsg::Notify { key, value } => {
                    // A notify for a range this shard has evicted is
                    // dropped: applying it would recreate untracked
                    // replica rows. The next read refetches the range.
                    if !self.engine.holds_key(&key) {
                        continue;
                    }
                    self.stats.notifies_applied.fetch_add(1, Ordering::Relaxed);
                    match value {
                        Some(v) => self.engine.put(key, v),
                        None => self.engine.remove(&key),
                    }
                }
                ShardMsg::CheckInvariants { reply } => {
                    // Report replica ranges only: a range this shard
                    // homes (home writes mark their key resident) is
                    // authoritative data, not a replica, and needs no
                    // peer serving updates to it.
                    let resident = self
                        .engine
                        .all_resident_ranges()
                        .into_iter()
                        .filter(|r| {
                            self.partition
                                .home_of_range(r)
                                .is_none_or(|s| s.0 as usize % self.peers.len() != self.shard)
                        })
                        .collect();
                    let _ = reply.send(ShardAudit {
                        shard: self.shard,
                        violations: self.engine.check_invariants(),
                        serving: self.subscribers.clone(),
                        resident,
                    });
                }
                ShardMsg::Finalize { reply } => {
                    self.engine.finalize_durability();
                    let _ = reply.send(());
                }
                ShardMsg::Shutdown => break,
            }
        }
    }

    fn home_shard(&self, key: &Key) -> usize {
        self.partition.home_of(key).0 as usize % self.peers.len()
    }

    fn execute(&mut self, id: u64, cmd: Command, reply: &Sender<(u64, Response)>) {
        match cmd {
            Command::Get(key) => self.start_query(id, QueryKind::Get, KeyRange::single(key), reply),
            Command::Scan(range) => self.start_query(id, QueryKind::Scan, range, reply),
            Command::Count(range) => self.start_query(id, QueryKind::Count, range, reply),
            Command::Put(key, value) => {
                self.apply_write(key, Some(value));
                let _ = reply.send((id, Response::Ok));
            }
            Command::Remove(key) => {
                self.apply_write(key, None);
                let _ = reply.send((id, Response::Ok));
            }
            Command::AddJoin(text) => {
                let resp = match self.engine.add_joins_text(&text) {
                    Ok(_) => Response::Ok,
                    Err(e) => Response::Error(e.to_string()),
                };
                let _ = reply.send((id, resp));
            }
            Command::Stats => {
                let _ = reply.send((id, Response::Stats(self.engine.backend_stats())));
            }
        }
    }

    /// A home write: make the written key resident (we are its
    /// authority), apply it with normal incremental maintenance, and
    /// forward it to every subscriber — *before* the caller's ack, so a
    /// command ordered after the ack observes the notification.
    fn apply_write(&mut self, key: Key, value: Option<Value>) {
        self.engine.mark_resident(&KeyRange::single(key.clone()));
        match &value {
            Some(v) => self.engine.put(key.clone(), v.clone()),
            None => self.engine.remove(&key),
        }
        let mut notified: HashSet<usize> = HashSet::new();
        for (range, peer) in &self.subscribers {
            if range.contains(&key) && notified.insert(*peer) {
                self.stats.notifies_sent.fetch_add(1, Ordering::Relaxed);
                let _ = self.peers[*peer].send(ShardMsg::Notify {
                    key: key.clone(),
                    value: value.clone(),
                });
            }
        }
    }

    fn start_query(
        &mut self,
        id: u64,
        kind: QueryKind,
        range: KeyRange,
        reply: &Sender<(u64, Response)>,
    ) {
        let parked = Parked {
            id,
            kind,
            range,
            reply: reply.clone(),
            outstanding: HashSet::new(),
            retries: 0,
        };
        self.drive_query(parked);
    }

    /// Runs a query until it completes or parks on subscription fetches.
    fn drive_query(&mut self, mut q: Parked) {
        loop {
            let missing = match q.kind {
                QueryKind::Count => {
                    let res = self.engine.count_result(&q.range);
                    if res.is_complete() {
                        let _ = q.reply.send((q.id, Response::Count(res.count as u64)));
                        return;
                    }
                    res.missing
                }
                QueryKind::Get | QueryKind::Scan => {
                    let res = if q.kind == QueryKind::Get {
                        self.engine.get_result(&q.range.first)
                    } else {
                        self.engine.scan(&q.range)
                    };
                    if res.is_complete() {
                        let resp = match q.kind {
                            QueryKind::Get => {
                                Response::Value(res.pairs.into_iter().next().map(|(_, v)| v))
                            }
                            _ => Response::Pairs(res.pairs),
                        };
                        let _ = q.reply.send((q.id, resp));
                        return;
                    }
                    res.missing
                }
            };
            q.retries += 1;
            if q.retries > MAX_RETRIES {
                let _ = q
                    .reply
                    .send((q.id, Response::Error("query exceeded fetch retries".into())));
                return;
            }
            let mut sent = false;
            for miss in missing {
                // A provably single-homed range is fetched from its
                // home; anything else (a range that may span shards,
                // like a whole table under a hash partition) is
                // scatter-gathered from every peer.
                let targets: Vec<usize> = match self
                    .partition
                    .home_of_range(&miss)
                    .map(|s| s.0 as usize % self.peers.len())
                {
                    Some(home) if home == self.shard => {
                        // We are the authority: absence is knowledge.
                        self.engine.mark_resident(&miss);
                        continue;
                    }
                    Some(home) => vec![home],
                    None => (0..self.peers.len()).filter(|p| *p != self.shard).collect(),
                };
                if targets.is_empty() {
                    self.engine.mark_resident(&miss);
                    continue;
                }
                q.outstanding.insert(self.start_fetch(miss, &targets));
                sent = true;
            }
            if !sent {
                // Everything missing was local: retry immediately.
                continue;
            }
            self.stats.parked.fetch_add(1, Ordering::Relaxed);
            self.parked.push(q);
            return;
        }
    }

    /// Opens a [`FetchGroup`] subscribing to `range` at each target
    /// peer; returns the group id a parked query waits on.
    fn start_fetch(&mut self, range: KeyRange, targets: &[usize]) -> u64 {
        let gid = self.next_fetch_id;
        self.next_fetch_id += 1;
        let mut outstanding = HashSet::new();
        for &peer in targets {
            let fid = self.next_fetch_id;
            self.next_fetch_id += 1;
            outstanding.insert(fid);
            self.fetch_to_group.insert(fid, gid);
            let _ = self.peers[peer].send(ShardMsg::Subscribe {
                id: fid,
                range: range.clone(),
                from: self.shard,
            });
        }
        self.fetch_groups.insert(
            gid,
            FetchGroup {
                range,
                outstanding,
                pairs: Vec::new(),
            },
        );
        gid
    }

    /// Called when a subscription fetch lands; restarts any query that
    /// was waiting on it.
    fn resume_parked(&mut self, fetch_id: u64) {
        let mut ready = Vec::new();
        let mut i = 0;
        while i < self.parked.len() {
            let waiting = self.parked[i].outstanding.remove(&fetch_id);
            if waiting && self.parked[i].outstanding.is_empty() {
                ready.push(self.parked.swap_remove(i));
            } else {
                i += 1;
            }
        }
        for q in ready {
            self.drive_query(q);
        }
    }

    /// Serves a subscription request: returns the keys in `range` this
    /// shard is authoritative for (keys homed here — for those, local
    /// absence is knowledge). The range may span shards, so residency
    /// is snapshotted and restored: granting a subscription must not
    /// change what this shard believes is resident about keys it does
    /// not own.
    fn serve_subscribe(&mut self, range: &KeyRange) -> Vec<(Key, Value)> {
        // Suspend automatic eviction while granting: the scan below
        // deliberately claims transient residency that is snapshotted
        // and restored, and an eviction in between would drop rows the
        // restored residency still vouches for.
        let saved_limit = self.engine.set_mem_limit(None);
        let snapshot: Vec<(Key, RangeSet)> = self
            .engine
            .remote
            .iter()
            .filter(|(prefix, _)| KeyRange::prefix((*prefix).clone()).overlaps(range))
            .map(|(prefix, table)| (prefix.clone(), table.resident.clone()))
            .collect();
        let mut pairs = loop {
            let res = self.engine.scan(range);
            if res.is_complete() {
                break res.pairs;
            }
            for miss in res.missing {
                self.engine.mark_resident(&miss);
            }
        };
        for (prefix, resident) in snapshot {
            if let Some(table) = self.engine.remote.get_mut(&prefix) {
                table.resident = resident;
            }
        }
        self.engine.set_mem_limit(saved_limit);
        pairs.retain(|(k, _)| self.home_shard(k) == self.shard);
        pairs
    }
}

/// Command classes whose members may share one pipelined run without
/// changing observable results (identical to the cluster client's run
/// splitting): reads don't mutate client-visible state, and writes
/// aren't observed until the next read.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CommandClass {
    Read,
    Write,
    Join,
    /// Stats aggregates across all shards, so it must not share a run
    /// with commands whose effects it would otherwise miss.
    Stats,
}

fn class_of(command: &Command) -> CommandClass {
    match command {
        Command::Get(_) | Command::Scan(_) | Command::Count(_) => CommandClass::Read,
        Command::Put(..) | Command::Remove(_) => CommandClass::Write,
        Command::AddJoin(_) => CommandClass::Join,
        Command::Stats => CommandClass::Stats,
    }
}

/// Whether two commands may share one pipelined run without changing
/// observable results (the run-splitting rule of
/// [`ShardedHandle::execute_batch`], exported so the event-driven
/// network frontend splits batches identically).
pub fn same_run_class(a: &Command, b: &Command) -> bool {
    class_of(a) == class_of(b)
}

/// Folds the per-shard replies to a broadcast `AddJoin` into one
/// response: `Ok` only if every shard installed the join, otherwise the
/// first error. Shared by the blocking [`ShardedHandle`] and the
/// event-driven frontend so both paths answer byte-identically.
pub fn fold_join_replies(replies: Vec<Response>, shards: usize) -> Response {
    if replies.len() < shards {
        return Response::Error(format!(
            "addjoin: {} of {shards} shards replied",
            replies.len()
        ));
    }
    match replies
        .into_iter()
        .find(|r| matches!(r, Response::Error(_)))
    {
        Some(err) => err,
        None => Response::Ok,
    }
}

/// Folds the per-shard replies to a broadcast `Stats` into one summed
/// [`BackendStats`]. Shared like [`fold_join_replies`].
pub fn fold_stats_replies(replies: Vec<Response>, shards: usize) -> Response {
    if replies.len() < shards {
        return Response::Error(format!(
            "stats: {} of {shards} shards replied",
            replies.len()
        ));
    }
    let mut total = BackendStats::default();
    for r in replies {
        if let Response::Stats(s) = r {
            total += s;
        }
    }
    Response::Stats(total)
}

/// How many replies one command slot expects, and how to fold them.
enum Slot {
    /// One shard answers (reads and writes).
    Single { id: u64 },
    /// Broadcast join installation: one reply per shard, folded to
    /// `Ok` or the first error.
    Join { id: u64, shards: usize },
    /// Broadcast stats: per-shard counters, summed.
    Stats { id: u64, shards: usize },
}

/// A cheap, cloneable connection to a [`ShardedEngine`]. Each handle
/// routes and pipelines its own batches; handles can be used from
/// different threads concurrently (the TCP server gives one to every
/// connection).
#[derive(Clone)]
pub struct ShardedHandle {
    senders: Arc<Vec<Sender<ShardMsg>>>,
    partition: Arc<dyn Partition>,
    next_id: u64,
}

impl ShardedHandle {
    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn home_shard(&self, key: &Key) -> usize {
        self.partition.home_of(key).0 as usize % self.senders.len()
    }

    /// Executes one same-class run: per-shard pipelined `Run` messages,
    /// then wait for every reply.
    fn execute_run(&mut self, mut commands: Vec<Command>) -> Vec<Response> {
        let shards = self.senders.len();
        // Fast path: a run of exactly one shard-addressed command (the
        // common shape — every workload check or post is one command)
        // skips the routing tables below.
        let single = if commands.len() == 1
            && !matches!(commands[0], Command::AddJoin(_) | Command::Stats)
        {
            commands.pop()
        } else {
            None
        };
        if let Some(command) = single {
            let id = self.fresh_id();
            let shard = match &command {
                Command::Get(key) | Command::Put(key, _) | Command::Remove(key) => {
                    self.home_shard(key)
                }
                Command::Scan(range) | Command::Count(range) => self.home_shard(&range.first),
                Command::AddJoin(_) | Command::Stats => unreachable!("excluded above"),
            };
            let (tx, rx) = channel();
            let _ = self.senders[shard].send(ShardMsg::Run {
                items: vec![(id, command)],
                reply: tx,
            });
            return vec![rx
                .recv()
                .map(|(_, resp)| resp)
                .unwrap_or_else(|_| Response::Error("no reply from shard".into()))];
        }
        let (tx, rx) = channel::<(u64, Response)>();
        let mut per_shard: Vec<Vec<(u64, Command)>> = vec![Vec::new(); shards];
        let mut slots: Vec<Slot> = Vec::with_capacity(commands.len());
        let mut expected = 0usize;
        for command in commands {
            let id = self.fresh_id();
            let dest = match &command {
                Command::Get(key) | Command::Put(key, _) | Command::Remove(key) => {
                    Some(self.home_shard(key))
                }
                Command::Scan(range) | Command::Count(range) => Some(self.home_shard(&range.first)),
                Command::AddJoin(_) | Command::Stats => None,
            };
            match dest {
                Some(shard) => {
                    per_shard[shard].push((id, command));
                    expected += 1;
                    slots.push(Slot::Single { id });
                }
                None => {
                    // Broadcast: every shard answers under the same id.
                    let is_stats = matches!(command, Command::Stats);
                    for q in per_shard.iter_mut() {
                        q.push((id, command.clone()));
                    }
                    expected += shards;
                    slots.push(if is_stats {
                        Slot::Stats { id, shards }
                    } else {
                        Slot::Join { id, shards }
                    });
                }
            }
        }
        for (shard, items) in per_shard.into_iter().enumerate() {
            if !items.is_empty() {
                let _ = self.senders[shard].send(ShardMsg::Run {
                    items,
                    reply: tx.clone(),
                });
            }
        }
        drop(tx);
        let mut by_id: HashMap<u64, Vec<Response>> = HashMap::new();
        for _ in 0..expected {
            match rx.recv() {
                Ok((id, resp)) => by_id.entry(id).or_default().push(resp),
                Err(_) => break, // a shard died; unanswered slots error below
            }
        }
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Single { id } => by_id
                    .remove(&id)
                    .and_then(|mut v| v.pop())
                    .unwrap_or_else(|| Response::Error("no reply from shard".into())),
                Slot::Join { id, shards } => {
                    fold_join_replies(by_id.remove(&id).unwrap_or_default(), shards)
                }
                Slot::Stats { id, shards } => {
                    fold_stats_replies(by_id.remove(&id).unwrap_or_default(), shards)
                }
            })
            .collect()
    }
}

impl Client for ShardedHandle {
    fn backend_name(&self) -> &'static str {
        "sharded"
    }

    fn execute_batch(&mut self, commands: Vec<Command>) -> Vec<Response> {
        let mut responses = Vec::with_capacity(commands.len());
        let mut run: Vec<Command> = Vec::new();
        let mut run_class = CommandClass::Read;
        for command in commands {
            let class = class_of(&command);
            if !run.is_empty() && class != run_class {
                responses.extend(self.execute_run(std::mem::take(&mut run)));
            }
            run_class = class;
            run.push(command);
        }
        if !run.is_empty() {
            responses.extend(self.execute_run(run));
        }
        responses
    }
}

/// A non-blocking, cloneable submission surface over the per-shard
/// command queues. Where a [`ShardedHandle`] parks the calling thread
/// until every reply arrives, a `ShardSubmitter` only enqueues: replies
/// come back asynchronously on the caller's channel, tagged with the
/// caller-chosen id. The event-driven network frontend serves every
/// connection through one shared submitter instead of cloning a handle
/// per connection, so accepting ten thousand sockets allocates no
/// per-connection engine state and never blocks the reactor thread.
///
/// Ordering contract: submissions from one thread to one shard are
/// executed in submission order (each shard is a FIFO mailbox), but
/// replies across shards arrive in any order. Callers that need
/// read-your-writes must wait for a run's replies before submitting a
/// dependent run, exactly like [`ShardedHandle::execute_batch`]'s run
/// splitting (see [`same_run_class`]).
#[derive(Clone)]
pub struct ShardSubmitter {
    senders: Arc<Vec<Sender<ShardMsg>>>,
    partition: Arc<dyn Partition>,
}

impl ShardSubmitter {
    /// Number of shards behind this submitter.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// The shard that executes `command`, or `None` for broadcast
    /// commands (`AddJoin`, `Stats`) that every shard must see.
    pub fn route(&self, command: &Command) -> Option<usize> {
        match command {
            Command::Get(key) | Command::Put(key, _) | Command::Remove(key) => {
                Some(self.home_shard(key))
            }
            Command::Scan(range) | Command::Count(range) => Some(self.home_shard(&range.first)),
            Command::AddJoin(_) | Command::Stats => None,
        }
    }

    fn home_shard(&self, key: &Key) -> usize {
        self.partition.home_of(key).0 as usize % self.senders.len()
    }

    /// Enqueues a run of commands on one shard. Exactly one
    /// `(id, Response)` per item arrives on `reply`, in any order.
    pub fn submit(
        &self,
        shard: usize,
        items: Vec<(u64, Command)>,
        reply: &Sender<(u64, Response)>,
    ) {
        if items.is_empty() {
            return;
        }
        let _ = self.senders[shard % self.senders.len()].send(ShardMsg::Run {
            items,
            reply: reply.clone(),
        });
    }

    /// Enqueues a broadcast command on every shard under one id;
    /// [`shards`](Self::shards) replies arrive on `reply`. Fold them
    /// with [`fold_join_replies`] / [`fold_stats_replies`].
    pub fn broadcast(&self, id: u64, command: Command, reply: &Sender<(u64, Response)>) {
        for sender in self.senders.iter() {
            let _ = sender.send(ShardMsg::Run {
                items: vec![(id, command.clone())],
                reply: reply.clone(),
            });
        }
    }
}

/// N single-threaded [`Engine`] shards, one worker thread each, behind
/// the unified [`Client`] API. See the [module docs](self) for the
/// architecture.
pub struct ShardedEngine {
    handle: ShardedHandle,
    stats: Vec<Arc<ShardStats>>,
    threads: Vec<JoinHandle<()>>,
    /// Per-shard telemetry handles (clones of the recorders installed
    /// into each shard's engine via the setup hook); empty when
    /// telemetry is off.
    recorders: Vec<Recorder>,
}

impl ShardedEngine {
    /// Spawns `shards` worker threads, each owning one
    /// [`Engine::new`]`(config)`. Keys are routed to shards by
    /// `partition` (a [`ServerId`](crate::partition::ServerId) of `s`
    /// means shard `s % shards`); every table prefix in
    /// `partitioned_tables` is spread across shards, so each shard
    /// treats it as remote and fetches missing ranges from the owning
    /// shard by subscription.
    ///
    /// A [`MemoryLimit`](crate::config::MemoryLimit) in `config` is the
    /// budget for the whole node: it is split into per-shard budgets
    /// summing exactly to the cap
    /// ([`MemoryLimit::split_nth`](crate::config::MemoryLimit::split_nth)),
    /// each shard evicts against its own share, and
    /// [`Command::Stats`] aggregates the
    /// per-shard eviction counters and footprints back into one total.
    /// Each shard is told which keys it is the authority for (via
    /// `partition`), so eviction drops only replicated base data, never
    /// the sole copy of a partitioned row.
    ///
    /// ```
    /// use pequod_core::partition::ComponentHashPartition;
    /// use pequod_core::{Client, ShardedEngine};
    /// use pequod_store::{Key, KeyRange, Value};
    /// use std::sync::Arc;
    ///
    /// // Four shards; hash the user/poster key component so one user's
    /// // posts, subscriptions, and timeline co-locate on one shard.
    /// let part = Arc::new(ComponentHashPartition { component: 1, servers: 4 });
    /// let mut sharded = ShardedEngine::new(4, Default::default(), part, &["p|", "s|"]);
    /// sharded
    ///     .add_join("t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>")
    ///     .unwrap();
    /// sharded.put(&Key::from("s|ann|bob"), &Value::from_static(b"1"));
    /// sharded.put(&Key::from("p|bob|0000000100"), &Value::from_static(b"Hi"));
    /// // ann's timeline is computed on ann's shard from posts homed on
    /// // bob's shard, fetched and kept fresh by subscription.
    /// assert_eq!(sharded.count(&KeyRange::prefix("t|ann|")), 1);
    /// ```
    #[allow(clippy::expect_used)] // see the audit allow below
    pub fn new(
        shards: usize,
        config: EngineConfig,
        partition: Arc<dyn Partition>,
        partitioned_tables: &[&str],
    ) -> ShardedEngine {
        ShardedEngine::new_with_setup(shards, config, partition, partitioned_tables, |_, _| Ok(()))
            // audit: allow(no-unwrap) — the closure is `|_, _| Ok(())`, and
            // setup errors are the only failure `new_with_setup` reports.
            .expect("no-op shard setup cannot fail")
    }

    /// [`ShardedEngine::new`] with a per-shard setup hook, run on each
    /// shard's engine after it is configured (remote tables marked,
    /// base authority installed, budget split) and *before* its worker
    /// thread starts. This is how a deployment gives every shard its
    /// own environment — `pequod_persist::open_sharded` uses it to
    /// recover each shard from, and log each shard to, its own data
    /// directory (`shard-0/`, `shard-1/`, …). A setup error aborts
    /// construction: the already-started shards are shut down and the
    /// error is returned.
    pub fn new_with_setup(
        shards: usize,
        config: EngineConfig,
        partition: Arc<dyn Partition>,
        partitioned_tables: &[&str],
        mut setup: impl FnMut(usize, &mut Engine) -> Result<(), String>,
    ) -> Result<ShardedEngine, String> {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        let channels: Vec<(Sender<ShardMsg>, Receiver<ShardMsg>)> =
            (0..shards).map(|_| channel()).collect();
        let senders: Vec<Sender<ShardMsg>> = channels.iter().map(|(tx, _)| tx.clone()).collect();
        let stats: Vec<Arc<ShardStats>> = (0..shards)
            .map(|_| Arc::new(ShardStats::default()))
            .collect();
        let mut threads: Vec<JoinHandle<()>> = Vec::with_capacity(shards);
        for (shard, (_, rx)) in channels.into_iter().enumerate() {
            // The configured memory limit is the node-wide budget; each
            // shard enforces its exact share (remainder bytes go to the
            // lowest-numbered shards, so the shares sum to the cap).
            let mut shard_config = config.clone();
            shard_config.mem_limit = config.mem_limit.map(|limit| limit.split_nth(shards, shard));
            let mut engine = Engine::new(shard_config);
            for t in partitioned_tables {
                engine.mark_remote_table(*t);
            }
            let auth_partition = partition.clone();
            engine.set_base_authority(move |key| {
                auth_partition.home_of(key).0 as usize % shards == shard
            });
            if let Err(e) = setup(shard, &mut engine) {
                // Unwind the shards already spawned.
                for tx in &senders {
                    let _ = tx.send(ShardMsg::Shutdown);
                }
                for t in threads {
                    let _ = t.join();
                }
                return Err(format!("shard setup failed: {e}"));
            }
            let worker = ShardWorker {
                shard,
                engine,
                partition: partition.clone(),
                peers: senders.clone(),
                rx,
                subscribers: Vec::new(),
                parked: Vec::new(),
                fetch_groups: HashMap::new(),
                fetch_to_group: HashMap::new(),
                next_fetch_id: 1,
                stats: stats[shard].clone(),
            };
            match std::thread::Builder::new()
                .name(format!("pequod-shard-{shard}"))
                .spawn(move || worker.run())
            {
                Ok(t) => threads.push(t),
                Err(e) => {
                    // Unwind the shards already spawned, as for a setup error.
                    for tx in &senders {
                        let _ = tx.send(ShardMsg::Shutdown);
                    }
                    for t in threads {
                        let _ = t.join();
                    }
                    return Err(format!("failed to spawn shard worker: {e}"));
                }
            }
        }
        Ok(ShardedEngine {
            handle: ShardedHandle {
                senders: Arc::new(senders),
                partition,
                next_id: 1,
            },
            stats,
            threads,
            recorders: Vec::new(),
        })
    }

    /// Registers the per-shard telemetry recorders so
    /// [`ShardedEngine::telemetry_snapshot`] can merge them. The
    /// caller installs the same recorders into the shard engines via
    /// the `new_with_setup` hook (each shard gets its own recorder;
    /// handles here are cheap clones sharing those shards' metrics).
    pub fn set_recorders(&mut self, recorders: Vec<Recorder>) {
        self.recorders = recorders;
    }

    /// The registered per-shard recorders (empty when telemetry is
    /// off).
    pub fn recorders(&self) -> &[Recorder] {
        &self.recorders
    }

    /// Merged telemetry across every shard: counters add, histograms
    /// bucket-merge, flight rings interleave by timestamp — the exact
    /// totals a single shared recorder would have seen, without any
    /// cross-shard contention on the hot path.
    pub fn telemetry_snapshot(&self, include_flight: bool) -> Snapshot {
        let mut merged = Snapshot::default();
        for r in &self.recorders {
            merged.merge(&r.snapshot(include_flight));
        }
        merged
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.handle.senders.len()
    }

    /// Graceful shutdown: every shard takes a final snapshot and
    /// fsyncs its durability sink, so a restart recovers from the
    /// snapshots without log replay. Blocks until all shards finish.
    pub fn finalize_durability(&self) {
        let (tx, rx) = channel();
        for s in self.handle.senders.iter() {
            let _ = s.send(ShardMsg::Finalize { reply: tx.clone() });
        }
        drop(tx);
        for _ in rx.iter() {}
    }

    /// Runs the deep invariant checker ([`Engine::check_invariants`])
    /// on every shard's engine and cross-checks shard-to-shard
    /// subscription symmetry: every resident replicated range on a
    /// shard must be covered by ranges its peers record as served to
    /// it (the reverse — serving a range a peer has since evicted — is
    /// legal, the peer just drops the notifies). Returns one message
    /// per violation; empty means the whole deployment is consistent.
    pub fn check_invariants(&mut self) -> Vec<String> {
        let (tx, rx) = channel();
        for s in self.handle.senders.iter() {
            let _ = s.send(ShardMsg::CheckInvariants { reply: tx.clone() });
        }
        drop(tx);
        let mut audits: Vec<ShardAudit> = rx.iter().collect();
        audits.sort_by_key(|a| a.shard);
        let mut v = Vec::new();
        for a in &audits {
            v.extend(
                a.violations
                    .iter()
                    .map(|m| format!("shard {}: {m}", a.shard)),
            );
        }
        for b in &audits {
            let mut served_to_b = RangeSet::new();
            for a in &audits {
                if a.shard == b.shard {
                    continue;
                }
                for (range, peer) in &a.serving {
                    if *peer == b.shard {
                        served_to_b.add(range);
                    }
                }
            }
            for r in &b.resident {
                if !served_to_b.covers(r) {
                    v.push(format!(
                        "shard {}: resident replicated range {r:?} is not served by \
                         any peer (updates to it would never arrive)",
                        b.shard
                    ));
                }
            }
        }
        v
    }

    /// A new independent client handle; handles are cheap to clone and
    /// may be driven from different threads concurrently.
    pub fn client_handle(&self) -> ShardedHandle {
        let mut h = self.handle.clone();
        h.next_id = 1;
        h
    }

    /// A non-blocking [`ShardSubmitter`] over this engine's shard
    /// queues — the event-driven network frontend's submission surface.
    pub fn submitter(&self) -> ShardSubmitter {
        ShardSubmitter {
            senders: self.handle.senders.clone(),
            partition: self.handle.partition.clone(),
        }
    }

    /// Counters of one shard (subscriptions, notifications, parks).
    pub fn shard_stats(&self, shard: usize) -> &ShardStats {
        &self.stats[shard]
    }
}

/// The sharded engine is itself a backend: its own primary handle.
impl Client for ShardedEngine {
    fn backend_name(&self) -> &'static str {
        "sharded"
    }

    fn execute_batch(&mut self, commands: Vec<Command>) -> Vec<Response> {
        self.handle.execute_batch(commands)
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        for tx in self.handle.senders.iter() {
            let _ = tx.send(ShardMsg::Shutdown);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{ComponentHashPartition, ServerId, TablePartition};

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

    fn hash_sharded(shards: usize) -> ShardedEngine {
        let part = Arc::new(ComponentHashPartition {
            component: 1,
            servers: shards as u32,
        });
        ShardedEngine::new(shards, EngineConfig::default(), part, &["p|", "s|"])
    }

    #[test]
    fn cross_shard_timeline_stays_fresh() {
        let mut s = hash_sharded(4);
        s.add_join(TIMELINE).unwrap();
        s.put(&Key::from("s|ann|bob"), &Value::from_static(b"1"));
        s.put(&Key::from("p|bob|0000000100"), &Value::from_static(b"Hi"));
        assert_eq!(s.scan(&KeyRange::prefix("t|ann|")).len(), 1);
        assert_eq!(
            s.get(&Key::from("t|ann|0000000100|bob")).as_deref(),
            Some(&b"Hi"[..])
        );
        // Later posts propagate by notification, not refetch.
        s.put(&Key::from("p|bob|0000000120"), &Value::from_static(b"x"));
        assert_eq!(s.count(&KeyRange::prefix("t|ann|")), 2);
        s.remove(&Key::from("p|bob|0000000100"));
        assert_eq!(s.count(&KeyRange::prefix("t|ann|")), 1);
    }

    #[test]
    fn single_shard_degenerates_to_engine() {
        let part = Arc::new(ComponentHashPartition {
            component: 1,
            servers: 1,
        });
        let mut s = ShardedEngine::new(1, EngineConfig::default(), part, &["p|", "s|"]);
        s.add_join(TIMELINE).unwrap();
        s.put(&Key::from("s|ann|bob"), &Value::from_static(b"1"));
        s.put(&Key::from("p|bob|0000000100"), &Value::from_static(b"Hi"));
        assert_eq!(s.count(&KeyRange::prefix("t|ann|")), 1);
    }

    #[test]
    fn table_partition_splits_tables_across_shards() {
        let part = Arc::new(TablePartition::new(ServerId(0)).route("p|", ServerId(1)));
        let mut s = ShardedEngine::new(2, EngineConfig::default(), part, &["p|", "s|"]);
        s.add_join(TIMELINE).unwrap();
        s.put(&Key::from("s|ann|bob"), &Value::from_static(b"1"));
        s.put(&Key::from("p|bob|0000000100"), &Value::from_static(b"Hi"));
        assert_eq!(s.count(&KeyRange::prefix("t|ann|")), 1);
        // The p| data came to shard 0 by subscription from shard 1.
        assert!(s.shard_stats(1).subs_granted.load(Ordering::Relaxed) >= 1);
        assert!(s.shard_stats(0).subs_established.load(Ordering::Relaxed) >= 1);
        s.put(&Key::from("p|bob|0000000120"), &Value::from_static(b"x"));
        assert_eq!(s.count(&KeyRange::prefix("t|ann|")), 2);
        assert!(s.shard_stats(1).notifies_sent.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn cross_shard_ranges_agree_with_engine() {
        // A whole-table range spans every shard under a hash partition:
        // the executing shard must gather all shards' keys, answer
        // byte-identically to a single engine, and stay fresh.
        let mut s = hash_sharded(4);
        let mut reference = Engine::new_default();
        for i in 0..8 {
            let key = Key::from(format!("p|user{i}|0000000001"));
            let val = Value::from_static(b"v");
            s.put(&key, &val);
            reference.put(key.clone(), val);
        }
        assert_eq!(s.count(&KeyRange::prefix("p|")), 8);
        assert_eq!(
            s.scan(&KeyRange::prefix("p|")),
            reference.scan(&KeyRange::prefix("p|")).pairs
        );
        // Sub-ranges starting at various points route to various
        // executing shards; none may have had its residency poisoned by
        // serving the broadcast above.
        for c in ["a", "b", "c", "d", "e", "f", "g", "h"] {
            let r = KeyRange::new(format!("p|{c}"), "p~");
            assert_eq!(
                s.count(&r) as usize,
                reference.scan(&r).pairs.len(),
                "sub-range starting at p|{c} diverged from the engine"
            );
        }
        // Freshness: a brand-new user's write reaches the whole-table
        // subscribers by notification.
        let key = Key::from("p|newuser|0000000001");
        let val = Value::from_static(b"v");
        s.put(&key, &val);
        reference.put(key, val);
        assert_eq!(s.count(&KeyRange::prefix("p|")), 9);
        for c in ["a", "b", "c", "d"] {
            let r = KeyRange::new(format!("p|{c}"), "p~");
            assert_eq!(s.count(&r) as usize, reference.scan(&r).pairs.len());
        }
    }

    #[test]
    fn bad_join_text_reports_one_error() {
        let mut s = hash_sharded(3);
        assert!(s.add_join("nonsense").is_err());
        // The engine keeps answering afterwards.
        s.put(&Key::from("p|bob|0000000100"), &Value::from_static(b"Hi"));
        assert_eq!(s.count(&KeyRange::prefix("p|bob|")), 1);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let mut s = hash_sharded(4);
        for i in 0..32 {
            s.put(
                &Key::from(format!("p|user{i}|0000000001")),
                &Value::from_static(b"v"),
            );
        }
        let stats = s.stats();
        assert_eq!(stats.keys, 32);
        assert!(stats.memory_bytes > 0);
    }

    #[test]
    fn handles_are_concurrent() {
        let s = hash_sharded(2);
        let mut writers = Vec::new();
        for w in 0..4 {
            let mut h = s.client_handle();
            writers.push(std::thread::spawn(move || {
                for i in 0..50 {
                    h.put(
                        &Key::from(format!("p|w{w}|{i:010}")),
                        &Value::from_static(b"v"),
                    );
                }
            }));
        }
        for t in writers {
            t.join().unwrap();
        }
        let mut h = s.client_handle();
        let total: u64 = (0..4)
            .map(|w| h.count(&KeyRange::prefix(format!("p|w{w}|"))))
            .sum();
        assert_eq!(total, 200);
    }
}
