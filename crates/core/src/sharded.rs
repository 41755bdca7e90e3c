//! A sharded multi-core engine: N single-threaded [`Engine`] shards
//! behind one [`Client`] surface.
//!
//! The paper scales Pequod by running one single-threaded server
//! process per core and partitioning base tables across them (§2.4);
//! cross-server joins stay fresh because reading a remote base range
//! installs a *subscription* at its home server, which forwards later
//! updates with *notifications*. [`ShardedEngine`] hosts that
//! architecture inside one process:
//!
//! * Each shard is a worker thread owning one [`Node`] — the very
//!   §2.4/§3.3 state machine the cluster simulator runs
//!   ([`crate::node`]): a single-threaded [`Engine`], its subscriber
//!   list, its parked queries and open fetches. The engine needs no
//!   locks, exactly like the paper's event-driven server processes.
//! * The worker is only a transport: receive from the mailbox, call
//!   [`Node::handle`], route what it returns to peer mailboxes or to
//!   the client's reply channel. Everything the protocol decides —
//!   single-home fetch or scatter-gather, atomic install, held
//!   notifications, write forwarding — is decided in the node.
//! * The shard for a key is chosen by the same [`Partition`] functions
//!   the distributed tier uses for whole servers (`pequod_net`
//!   re-exports them from [`crate::partition`]).
//! * A [`MemoryLimit`](crate::config::MemoryLimit) in the config is
//!   split into even per-shard budgets. Each shard evicts its own LRU
//!   computed ranges and cached peer replicas (§2.5) — never the rows
//!   it is the partition's authority for — and the merged `Stats`
//!   reply sums footprints and eviction counters node-wide (see
//!   `docs/MEMORY.md`).
//!
//! # Consistency
//!
//! A batch is planned by [`Fanout`], the run planner the network
//! frontend's sharded dispatcher and `pequod_net::ClusterClient` share:
//! it is split into *runs* of like commands (reads / writes / joins /
//! stats), and each run is pipelined to all shards at once; the client
//! waits for every reply before starting the next run. Each shard's
//! mailbox is FIFO and a home shard enqueues notifications to
//! subscribers *before* acknowledging the write, so any command issued
//! after a write's acknowledgment — by the same client or another — is
//! processed after that write's notification at every shard that had
//! been granted the range. One client's batch therefore answers exactly
//! like the same commands issued one at a time against a single
//! [`Engine`] (the conformance suite asserts byte-identical responses).
//!
//! Concurrent clients (separate [`ShardedHandle`]s) see eventual
//! consistency across shards, as the paper's concurrent writers do,
//! with one guarantee that holds even while a scatter-gather is open: a
//! write acknowledged by its home shard after that shard granted a
//! subscription is never lost to the subscriber. If the subscriber is
//! still waiting on another peer's grant, the notification is held and
//! applied when the range installs (see [`crate::node`]), so a read
//! after the writer's last acknowledgment observes every write.

use crate::client::{Client, Command, Response};
use crate::config::EngineConfig;
use crate::engine::Engine;
use crate::fanout::{split_runs, Fanout, PendingRun, Route};
use crate::node::{audit_deployment, Endpoint, Node, NodeAudit, NodeMsg, NodeStats};
use crate::partition::{Partition, ServerId};
use pequod_telemetry::{Recorder, Snapshot};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Thread-safety contract: a whole node moves onto each worker thread,
/// messages move between shards, and handles are shared across client
/// threads (the TCP server hands one to every connection).
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Node>();
    assert_send::<ShardMsg>();
    assert_send_sync::<ShardedHandle>();
    assert_send_sync::<ShardSubmitter>();
};

/// Where a shard answers the commands of a run: called on the shard's
/// thread with each command's id and response, once per reply the run
/// was planned to get; replies from different shards interleave in any
/// order.
pub type ReplySink = Arc<dyn Fn(u64, Response) + Send + Sync>;

/// A message delivered to one shard's mailbox.
enum ShardMsg {
    /// A run of client commands addressed to this shard; one reply per
    /// command, matched by id.
    Run {
        items: Vec<(u64, Command)>,
        reply: ReplySink,
    },
    /// Node-to-node traffic from peer shard `from`.
    Peer { from: ServerId, msg: NodeMsg },
    /// Runs a closure on the shard's node, on the shard's thread: how
    /// the owner audits, reads counters and finalizes durability.
    Visit(Box<dyn FnOnce(&mut Node) + Send>),
    /// Stop the worker thread.
    Shutdown,
}

/// One worker: a [`Node`] driven by an in-process mailbox.
struct ShardWorker {
    node: Node,
    peers: Vec<Sender<ShardMsg>>,
    rx: Receiver<ShardMsg>,
    /// Reply sinks of runs with unanswered commands, by the client
    /// token the node knows them under, with the count still owed.
    clients: HashMap<u64, (ReplySink, usize)>,
    next_client: u64,
    /// The node's output, between `handle` and `route`.
    out: Vec<(Endpoint, NodeMsg)>,
}

impl ShardWorker {
    fn run(mut self) {
        while let Ok(msg) = self.rx.recv() {
            match msg {
                ShardMsg::Run { items, reply } => {
                    let client = self.next_client;
                    self.next_client += 1;
                    self.clients.insert(client, (reply, items.len()));
                    for (id, command) in items {
                        let request = NodeMsg::Request { id, command };
                        self.node
                            .handle(Endpoint::Client(client), request, &mut self.out);
                        self.route();
                    }
                }
                ShardMsg::Peer { from, msg } => {
                    self.node.handle(Endpoint::Server(from), msg, &mut self.out);
                    self.route();
                }
                ShardMsg::Visit(visit) => visit(&mut self.node),
                ShardMsg::Shutdown => break,
            }
        }
    }

    /// Sends the node's output on its way, in order: peer traffic to
    /// the peer's mailbox, a reply to the run that asked.
    fn route(&mut self) {
        let from = self.node.id;
        for (to, msg) in self.out.drain(..) {
            match (to, msg) {
                (Endpoint::Server(peer), msg) => {
                    let _ = self.peers[peer.0 as usize].send(ShardMsg::Peer { from, msg });
                }
                (Endpoint::Client(client), NodeMsg::Reply { id, response }) => {
                    let Entry::Occupied(mut run) = self.clients.entry(client) else {
                        continue;
                    };
                    let (reply, owed) = run.get_mut();
                    reply(id, response);
                    *owed -= 1;
                    if *owed == 0 {
                        run.remove();
                    }
                }
                // A node sends its clients nothing but replies.
                (Endpoint::Client(_), _) => {}
            }
        }
    }
}

/// A cheap, cloneable connection to a [`ShardedEngine`]. Each handle
/// routes and pipelines its own batches; handles can be used from
/// different threads concurrently (the TCP server gives one to every
/// connection).
#[derive(Clone)]
pub struct ShardedHandle {
    shards: ShardSubmitter,
    fanout: Fanout,
}

impl ShardedHandle {
    /// Executes one same-class run: submit it, then wait for every
    /// reply.
    fn execute_run(&mut self, commands: Vec<Command>) -> Vec<Response> {
        let (tx, rx) = channel();
        let sink: ReplySink = Arc::new(move |id, response| {
            let _ = tx.send((id, response));
        });
        let mut run = self.shards.submit(&mut self.fanout, commands, &sink);
        drop(sink); // so a dead shard errors the recv instead of hanging it
        while !run.is_complete() {
            let Ok((id, response)) = rx.recv() else {
                break; // a shard died; its commands answer an error
            };
            run.absorb(id, response);
        }
        run.finish()
    }
}

impl Client for ShardedHandle {
    fn backend_name(&self) -> &'static str {
        "sharded"
    }

    fn execute_batch(&mut self, commands: Vec<Command>) -> Vec<Response> {
        split_runs(commands, |c| c)
            .into_iter()
            .flat_map(|run| self.execute_run(run))
            .collect()
    }
}

/// A non-blocking, cloneable submission surface over the per-shard
/// command queues. Where a [`ShardedHandle`] parks the calling thread
/// until every reply arrives, a `ShardSubmitter` only enqueues: replies
/// come back asynchronously through the caller's [`ReplySink`], tagged
/// with the ids the caller's [`Fanout`] gave them. The event-driven
/// network frontend serves every connection through one shared
/// submitter instead of cloning a handle per connection, so accepting
/// ten thousand sockets allocates no per-connection engine state and
/// never blocks the reactor thread.
///
/// Ordering contract: submissions from one thread to one shard are
/// executed in submission order (each shard is a FIFO mailbox), but
/// replies across shards arrive in any order. Callers that need
/// read-your-writes must wait for a run's replies before submitting a
/// dependent run, exactly like [`ShardedHandle::execute_batch`]'s run
/// splitting (see [`split_runs`]).
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

    /// A run planner over these shards, for [`submit`](Self::submit).
    pub fn fanout(&self) -> Fanout {
        Fanout::new(self.shards(), "shard")
    }

    /// The shard that executes `command`: its key's home. Joins and
    /// stats go to all.
    fn route(&self, command: &Command) -> Route {
        let key = match command {
            Command::Get(key) | Command::Put(key, _) | Command::Remove(key) => key,
            Command::Scan(range) | Command::Count(range) => &range.first,
            Command::AddJoin(_) | Command::Stats => return Route::All,
        };
        Route::One(self.partition.home_of(key).0 as usize % self.senders.len())
    }

    /// Plans one same-class run with `fanout` (one of this submitter's,
    /// [`fanout`](Self::fanout)) and enqueues each shard's share as one
    /// mailbox message. Every reply the returned run expects reaches
    /// `sink`, on the shard threads, in any order.
    pub fn submit(
        &self,
        fanout: &mut Fanout,
        commands: Vec<Command>,
        sink: &ReplySink,
    ) -> PendingRun {
        let (run, sends) = fanout.plan(commands, |command| self.route(command));
        for (tx, items) in self.senders.iter().zip(sends) {
            if !items.is_empty() {
                let reply = sink.clone();
                let _ = tx.send(ShardMsg::Run { items, reply });
            }
        }
        run
    }
}

/// N single-threaded [`Engine`] shards, one worker thread each, behind
/// the unified [`Client`] API. See the [module docs](self) for the
/// architecture.
pub struct ShardedEngine {
    handle: ShardedHandle,
    threads: Vec<JoinHandle<()>>,
    /// Per-shard telemetry handles (clones of the recorders installed
    /// into each shard's engine via the setup hook); empty when
    /// telemetry is off.
    recorders: Vec<Recorder>,
}

impl ShardedEngine {
    /// Spawns `shards` worker threads, each owning one [`Node`] over an
    /// [`Engine::new`]`(config)`. Keys are routed to shards by
    /// `partition` (a [`ServerId`] of `s` means shard `s % shards`);
    /// every table prefix in `partitioned_tables` is spread across
    /// shards, so each shard treats it as remote and fetches missing
    /// ranges from the owning shard by subscription.
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
        let mut threads: Vec<JoinHandle<()>> = Vec::with_capacity(shards);
        for (shard, (_, rx)) in channels.into_iter().enumerate() {
            // The configured memory limit is the node-wide budget; each
            // shard enforces its exact share (remainder bytes go to the
            // lowest-numbered shards, so the shares sum to the cap).
            let mut shard_config = config.clone();
            shard_config.mem_limit = config.mem_limit.map(|limit| limit.split_nth(shards, shard));
            let mut node = Node::new(
                ServerId(shard as u32),
                Engine::new(shard_config),
                partition.clone(),
                partitioned_tables,
            )
            .in_deployment(shards as u32);
            let spawned = setup(shard, &mut node.engine)
                .map_err(|e| format!("shard setup failed: {e}"))
                .and_then(|()| {
                    let worker = ShardWorker {
                        node,
                        peers: senders.clone(),
                        rx,
                        clients: HashMap::new(),
                        next_client: 0,
                        out: Vec::new(),
                    };
                    std::thread::Builder::new()
                        .name(format!("pequod-shard-{shard}"))
                        .spawn(move || worker.run())
                        .map_err(|e| format!("failed to spawn shard worker: {e}"))
                });
            match spawned {
                Ok(t) => threads.push(t),
                Err(e) => {
                    // Unwind the shards already spawned.
                    for tx in &senders {
                        let _ = tx.send(ShardMsg::Shutdown);
                    }
                    for t in threads {
                        let _ = t.join();
                    }
                    return Err(e);
                }
            }
        }
        let shards = ShardSubmitter {
            senders: Arc::new(senders),
            partition,
        };
        Ok(ShardedEngine {
            handle: ShardedHandle {
                fanout: shards.fanout(),
                shards,
            },
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
        self.handle.shards.shards()
    }

    /// Queues `visit` to run on one shard's node, on the shard's thread,
    /// behind whatever its mailbox already holds; the result arrives on
    /// the returned channel.
    fn visit<T: Send + 'static>(
        &self,
        shard: usize,
        visit: impl FnOnce(&mut Node) -> T + Send + 'static,
    ) -> Receiver<T> {
        let (tx, rx) = channel();
        let _ = self.handle.shards.senders[shard].send(ShardMsg::Visit(Box::new(move |node| {
            let _ = tx.send(visit(node));
        })));
        rx
    }

    /// Runs `visit` on every shard's node, all shards at once; returns
    /// the results in shard order.
    fn visit_all<T: Send + 'static>(
        &self,
        visit: impl Fn(&mut Node) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let visit = Arc::new(visit);
        let pending: Vec<Receiver<T>> = (0..self.shards())
            .map(|shard| {
                let visit = visit.clone();
                self.visit(shard, move |node| visit(node))
            })
            .collect();
        (pending.into_iter())
            .filter_map(|rx| rx.recv().ok())
            .collect()
    }

    /// Graceful shutdown: every shard takes a final snapshot and
    /// fsyncs its durability sink, so a restart recovers from the
    /// snapshots without log replay. Blocks until all shards finish.
    pub fn finalize_durability(&self) {
        self.visit_all(|node| node.engine.finalize_durability());
    }

    /// Audits the whole deployment ([`audit_deployment`]): the deep
    /// invariant checker ([`Engine::check_invariants`]) on every
    /// shard's engine, and shard-to-shard subscription symmetry.
    /// Returns one message per violation; empty means the deployment is
    /// consistent. Call it on a quiescent engine: a fetch still in
    /// flight is not a violation, but can look like one.
    pub fn check_invariants(&mut self) -> Vec<String> {
        let audits: Vec<NodeAudit> = self.visit_all(|node| node.audit());
        audit_deployment(&audits)
    }

    /// A new independent client handle; handles are cheap to clone and
    /// may be driven from different threads concurrently.
    pub fn client_handle(&self) -> ShardedHandle {
        let shards = self.handle.shards.clone();
        ShardedHandle {
            fanout: shards.fanout(),
            shards,
        }
    }

    /// A non-blocking [`ShardSubmitter`] over this engine's shard
    /// queues — the event-driven network frontend's submission surface.
    pub fn submitter(&self) -> ShardSubmitter {
        self.handle.shards.clone()
    }

    /// Counters of one shard's node (subscriptions, notifications,
    /// parks), read on the shard's thread behind the commands already
    /// in its mailbox.
    pub fn shard_stats(&self, shard: usize) -> NodeStats {
        self.visit(shard, |node| node.stats)
            .recv()
            .unwrap_or_default()
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
        for tx in self.handle.shards.senders.iter() {
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
    use crate::partition::{ComponentHashPartition, TablePartition};
    use pequod_store::{Key, KeyRange, Value};

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
        assert!(s.shard_stats(1).subs_granted >= 1);
        assert!(s.shard_stats(0).subs_established >= 1);
        s.put(&Key::from("p|bob|0000000120"), &Value::from_static(b"x"));
        assert_eq!(s.count(&KeyRange::prefix("t|ann|")), 2);
        assert!(s.shard_stats(1).notifies_sent >= 1);
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
