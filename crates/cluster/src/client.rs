//! The client of every deployment: the unified [`Client`] surface over
//! a stand-alone server ([`ClusterConfig::one_node`]) or a replicated
//! cluster, on sockets or on a [`SimHarness`] — the write-around
//! deployment ([`ClusterClient::write_around`]) among them.
//!
//! A batch is cut into runs of one command class, each sent as **one
//! pipelined frame per node** and fully answered before the next run
//! starts, so a batch answers exactly like the same commands issued one
//! at a time. Every command of a run has its own request id; a join is
//! sent to every node under one id and installs only if every node
//! installed it. Writes go to the primary of their key's slot, learned from
//! [`Message::NotPrimary`] redirects (a redirect carries the slot's
//! epoch, so stale hints never overwrite fresher ones). Reads go to the
//! primary of their first key's slot unless a read router places them
//! ([`ClusterClient::with_read_router`] — the paper sends all of user
//! *u*'s timeline checks to server *S(u)*); the node a read reaches
//! answers it whole, gathering what it does not hold from the others
//! ([`Node`](crate::Node)). Joins are installed on every node.
//!
//! **One retry rule.** A command goes again only when the node it
//! reached answered [`Message::NotPrimary`], or when its exchange with
//! that node failed on I/O (a refused or closed connection; silence on
//! a simulator). Every `Reply`, with or without an error, is final. A
//! node sends `NotPrimary` for a write to a slot it does not lead, for a
//! write arriving while it hands a slot over, and for the writes (or the
//! migration) it held unacked when it was deposed or migrated the slot
//! away — each naming the primary under the slot's current epoch.
//! Resends wait a jittered backoff that doubles from 10 ms to 640 ms,
//! for at most 16 attempts and a total that covers a failover under the
//! config's [`ClusterTiming`](crate::ClusterTiming); a redirect that
//! taught the client a fresher primary costs only a short pause, since
//! during a failover the survivors name the dead primary until the
//! epoch bumps. After an I/O failure the next node is tried, so a
//! crashed primary's survivors redirect the client. On a simulator the
//! backoff advances virtual time.

use crate::config::ClusterConfig;
use crate::node::backend_stats_of;
use crate::sim::SimHarness;
use bytes::BytesMut;
use pequod_core::partition::{Partition, ServerId, SingleServer, TablePartition};
use pequod_core::{BackendStats, Client, Command, Engine, Response};
use pequod_net::codec::{decode_frame, encode_frame};
use pequod_net::Message;
use pequod_store::{Key, KeyRange, Value};
use std::collections::HashSet;
use std::io::{Error, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Why a cluster operation failed after exhausting its retries.
#[derive(Debug)]
pub enum ClusterClientError {
    /// No node could be reached (last I/O error attached).
    Io(Error),
    /// The responsible node rejected the operation.
    Remote(String),
}

impl std::fmt::Display for ClusterClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterClientError::Io(e) => write!(f, "cluster i/o: {e}"),
            ClusterClientError::Remote(e) => write!(f, "cluster remote: {e}"),
        }
    }
}

impl std::error::Error for ClusterClientError {}

/// The client this client speaks as on a [`SimHarness`].
const SIM_CLIENT: u64 = 0;

/// How long a simulated exchange waits for its replies, in virtual ms.
const SIM_REPLY_MS: u64 = 2_000;

/// The pause after a redirect that taught the client something.
const REDIRECT_PAUSE_MS: u64 = 10;

/// Request ids of the admin calls, apart from the planner's.
const ADMIN_IDS: u64 = 1 << 63;

/// Tries per operation, the first included.
const MAX_ATTEMPTS: u32 = 16;

/// The first backoff, ms; it doubles per failed attempt.
const BASE_DELAY_MS: u64 = 10;

/// The longest single backoff, ms.
const MAX_DELAY_MS: u64 = 640;

/// The least total backoff an operation may spend, ms.
const MIN_BUDGET_MS: u64 = 5_000;

/// Deterministic jittered backoff for one operation: each failed
/// attempt waits uniformly between half and all of a delay that doubles
/// from [`BASE_DELAY_MS`] up to [`MAX_DELAY_MS`], until [`MAX_ATTEMPTS`]
/// or the budget is spent. The budget counts the pauses, not the wall
/// clock, so a seed replays the same retries.
struct Backoff {
    budget_ms: u64,
    rng: u64,
    attempt: u32,
    slept_ms: u64,
}

impl Backoff {
    fn new(budget_ms: u64) -> Backoff {
        Backoff {
            budget_ms,
            rng: 0x7e7,
            attempt: 0,
            slept_ms: 0,
        }
    }

    /// Records a failed attempt and returns how long to back off before
    /// the next, or `None` once the attempts or the budget are spent.
    fn next_delay(&mut self) -> Option<u64> {
        self.attempt += 1;
        if self.attempt >= MAX_ATTEMPTS {
            return None;
        }
        let exp = (BASE_DELAY_MS << (self.attempt - 1).min(20)).min(MAX_DELAY_MS);
        // xorshift64*, then uniform in [exp/2, exp].
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let jittered = exp / 2 + x.wrapping_mul(0x2545_f491_4f6c_dd1d) % (exp / 2 + 1);
        self.charge(jittered).then_some(jittered)
    }

    /// Charges a pause that is not a failure (a redirect that taught
    /// the client something) to the budget; `false` once it would
    /// overrun it.
    fn charge(&mut self, ms: u64) -> bool {
        let fits = self.slept_ms + ms <= self.budget_ms;
        self.slept_ms += ms * u64::from(fits);
        fits
    }
}

struct Conn {
    stream: TcpStream,
    buf: BytesMut,
}

impl Conn {
    /// Reads frames until every id in `owed` is answered (a `Reply` or a
    /// `NotPrimary`), returning those; other frames are skipped.
    fn recv(&mut self, mut owed: HashSet<u64>) -> std::io::Result<Vec<Message>> {
        let mut got = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        while !owed.is_empty() {
            match decode_frame(&mut self.buf) {
                Ok(Some(msg)) => {
                    let answer = matches!(msg, Message::Reply { .. } | Message::NotPrimary { .. });
                    if answer && msg.id().is_some_and(|id| owed.remove(&id)) {
                        got.push(msg);
                    }
                    continue;
                }
                Ok(None) => {}
                Err(e) => return Err(Error::new(ErrorKind::InvalidData, e.to_string())),
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(got)
    }
}

/// What carries the client's frames.
enum Transport {
    /// One lazily opened connection per node.
    Tcp(Vec<Option<Conn>>),
    /// A simulated cluster, owned by the client.
    Sim(Box<SimHarness>),
}

impl Transport {
    /// Sends `frame` to `node` and waits for the replies to the ids in
    /// `owed`. On sockets a failure closes the connection, so the next
    /// call redials; a dead simulated node refuses, a silent one times
    /// out.
    fn call(
        &mut self,
        cfg: &ClusterConfig,
        node: usize,
        frame: Message,
        mut owed: HashSet<u64>,
    ) -> std::io::Result<Vec<Message>> {
        match self {
            Transport::Sim(sim) if !sim.is_alive(node as u32) => {
                Err(ErrorKind::ConnectionRefused.into())
            }
            Transport::Sim(sim) => {
                sim.send(SIM_CLIENT, node as u32, frame);
                let (deadline, mut got) = (sim.now() + SIM_REPLY_MS, Vec::new());
                while !owed.is_empty() {
                    if sim.now() >= deadline {
                        return Err(ErrorKind::TimedOut.into());
                    }
                    sim.run_for(1);
                    let replies = sim.take_replies(SIM_CLIENT).into_iter();
                    got.extend(replies.filter(|r| r.id().is_some_and(|id| owed.remove(&id))));
                }
                Ok(got)
            }
            Transport::Tcp(conns) => {
                let Some(conn) = conns.get_mut(node) else {
                    return Err(ErrorKind::InvalidInput.into());
                };
                let result = send_frame(cfg, conn, node, &frame).and_then(|c| c.recv(owed));
                if result.is_err() {
                    *conn = None;
                }
                result
            }
        }
    }
}

/// The client of a stand-alone server or a cluster. See the
/// [module docs](self).
pub struct ClusterClient {
    cfg: ClusterConfig,
    /// The total backoff one operation may spend, ms.
    budget_ms: u64,
    transport: Transport,
    fanout: Fanout,
    /// Per slot, the believed primary and the epoch that taught it.
    primaries: Vec<(u32, u64)>,
    read_router: Option<Arc<dyn Partition>>,
    next_admin: u64,
}

impl ClusterClient {
    /// A client for `cfg`. An operation's backoff budget rides out a
    /// failover: the heartbeat timeout of every node in turn plus a
    /// laggard-drop wait, twice, before any node can accept the write
    /// again. Connections are opened lazily, so this never fails.
    pub fn connect(cfg: ClusterConfig) -> ClusterClient {
        let timing = cfg.timing;
        let failover_ms = cfg.nodes.len() as u64 * timing.failover_ms + timing.ack_timeout_ms;
        ClusterClient {
            primaries: (0..cfg.slots)
                .map(|s| (cfg.initial_replicas(s).first().copied().unwrap_or(0), 0))
                .collect(),
            fanout: Fanout::new(cfg.nodes.len()),
            budget_ms: (2 * failover_ms).max(MIN_BUDGET_MS),
            transport: Transport::Tcp((0..cfg.nodes.len()).map(|_| None).collect()),
            cfg,
            read_router: None,
            next_admin: ADMIN_IDS,
        }
    }

    /// A client of the simulated cluster `sim`, which it drives: each
    /// run advances virtual time until its replies are in.
    pub fn simulated(sim: SimHarness) -> ClusterClient {
        let mut client = ClusterClient::connect(sim.config().clone());
        client.transport = Transport::Sim(Box::new(sim));
        client
    }

    /// The write-around deployment (§2): a database that notifies the
    /// cache of each write, as a simulated two-node cluster. Node 0, the
    /// cache, runs over `cache` and homes every table not in
    /// `db_tables`; node 1, the database, runs over an uncapped engine
    /// of its own and homes the listed tables (e.g. `["p|", "s|"]` for
    /// Twip). Writes go to their table's home; every read goes to the
    /// cache, which fetches and subscribes to the database ranges it
    /// misses (§3.3).
    pub fn write_around(cache: Engine, db_tables: &[&str]) -> ClusterClient {
        let part = (db_tables.iter()).fold(TablePartition::new(ServerId(0)), |p, table| {
            p.route(*table, ServerId(1))
        });
        let cfg = ClusterConfig::new(2, 1).with_partition(Arc::new(part), 2);
        let engines = vec![cache, Engine::new_default()];
        ClusterClient::simulated(SimHarness::with_engines(&cfg, engines, 0x5eed, 1))
            .with_read_router(Arc::new(SingleServer(ServerId(0))))
    }

    /// Routes reads by `router` instead of by slot (§2.4: computed data
    /// is placed by client routing, not by the partition function —
    /// e.g. timeline checks for user `u` all go to compute server
    /// `S(u)`). The router's server ids are node ids.
    pub fn with_read_router(mut self, router: Arc<dyn Partition>) -> ClusterClient {
        self.read_router = Some(router);
        self
    }

    /// The cluster config this client routes by.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Mutable access to the simulated cluster, if this client drives
    /// one.
    pub fn sim_mut(&mut self) -> Option<&mut SimHarness> {
        match &mut self.transport {
            Transport::Sim(sim) => Some(sim),
            Transport::Tcp(_) => None,
        }
    }

    /// Waits `ms`: real time on sockets, virtual time on a simulator.
    fn pause(&mut self, ms: u64) {
        match &mut self.transport {
            Transport::Tcp(_) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            Transport::Sim(sim) => sim.run_for(ms),
        }
    }

    /// Sends node `n` the frames in `sends[n]` (several as one
    /// [`Message::Batch`]) and collects every reply to them, one node
    /// after another. Returns the replies and, per node, the error that
    /// cut its exchange short.
    fn exchange(&mut self, sends: Vec<Vec<Message>>) -> (Vec<Message>, Vec<Option<Error>>) {
        let mut replies = Vec::new();
        let failed = (sends.into_iter().enumerate())
            .map(|(node, mut msgs)| {
                let mut owed = HashSet::new();
                for msg in &msgs {
                    msg.for_each_id(&mut |id| {
                        owed.insert(id);
                    });
                }
                let frame = match msgs.len() {
                    0 => return None,
                    1 => msgs.remove(0),
                    _ => Message::Batch { msgs },
                };
                let got = self.transport.call(&self.cfg, node, frame, owed);
                got.map(|got| replies.extend(got)).err()
            })
            .collect();
        (replies, failed)
    }

    /// Records a `NotPrimary` hint; returns whether it taught us
    /// anything (a fresher epoch or a different primary).
    fn learn_redirect(&mut self, slot: u32, epoch: u64, node: u32) -> bool {
        match self.primaries.get_mut(slot as usize) {
            Some(known) if epoch >= known.1 => {
                let learned = *known != (node, epoch);
                *known = (node, epoch);
                learned
            }
            _ => false,
        }
    }

    /// The node believed to lead the slot of `key`.
    fn primary_of(&self, key: &Key) -> usize {
        let slot = self.cfg.slot_of(key) as usize;
        self.primaries.get(slot).map_or(0, |p| p.0 as usize)
    }

    /// The one node `command` goes to; `None` for every node (a join).
    fn destination(&self, command: &Command) -> Option<usize> {
        let read = |key: &Key| match &self.read_router {
            Some(router) => router.home_of(key).0 as usize % self.cfg.nodes.len().max(1),
            None => self.primary_of(key),
        };
        match command {
            Command::Get(key) => Some(read(key)),
            Command::Scan(range) | Command::Count(range) => Some(read(&range.first)),
            Command::Put(key, _) | Command::Remove(key) => Some(self.primary_of(key)),
            Command::AddJoin(_) => None,
        }
    }

    /// Executes one same-class run: one pipelined frame per node, the
    /// replies matched by id, then again for whatever must be retried.
    fn execute_run(&mut self, commands: Vec<Command>) -> Vec<Response> {
        let mut answers: Vec<Option<Response>> = vec![None; commands.len()];
        let mut backoff = Backoff::new(self.budget_ms);
        loop {
            let todo: Vec<usize> = (0..commands.len())
                .filter(|&i| answers[i].is_none())
                .collect();
            let run: Vec<Command> = todo.iter().map(|&i| commands[i].clone()).collect();
            let dests: Vec<Option<usize>> = run.iter().map(|c| self.destination(c)).collect();
            let (mut pending, sends) = self.fanout.plan(run.clone(), &dests);
            let (replies, failed) = self.exchange(sends);
            let mut again = vec![false; run.len()];
            let (mut learned, mut error) = (false, None);
            for reply in replies {
                let Some(pos) = reply.id().and_then(|id| pending.slot_of(id)) else {
                    continue;
                };
                match reply {
                    Message::NotPrimary {
                        slot, epoch, node, ..
                    } => {
                        again[pos] = true;
                        learned |= self.learn_redirect(slot, epoch, node);
                    }
                    reply => {
                        if let Some((id, response)) = reply.into_response(&run[pos]) {
                            pending.absorb(id, response);
                        }
                    }
                }
            }
            for (node, e) in failed.into_iter().enumerate() {
                let Some(e) = e else { continue };
                error = Some(format!("cluster i/o: node {node}: {e}"));
                for (pos, dest) in dests.iter().enumerate() {
                    match dest {
                        // After a crash the old primary refuses
                        // connections, and any live node can redirect
                        // us to the slot's real primary.
                        Some(d) if *d == node => {
                            again[pos] = true;
                            let slot = slot_of(&self.cfg, &run[pos]);
                            if let Some(p) = self.primaries.get_mut(slot as usize) {
                                p.0 = (node as u32 + 1) % self.cfg.nodes.len() as u32;
                            }
                        }
                        Some(_) => {}
                        None => again[pos] = true,
                    }
                }
            }
            for (pos, response) in pending.finish().into_iter().enumerate() {
                if !again[pos] {
                    answers[todo[pos]] = Some(response);
                }
            }
            if answers.iter().all(Option::is_some) {
                break;
            }
            // An informative redirect costs a short pause; anything
            // else, an attempt and a growing backoff.
            let pause = match error.is_some() || !learned {
                true => backoff.next_delay(),
                false => backoff
                    .charge(REDIRECT_PAUSE_MS)
                    .then_some(REDIRECT_PAUSE_MS),
            };
            let Some(pause) = pause else {
                let error = Response::Error(error.unwrap_or_else(|| "retries exhausted".into()));
                for answer in answers.iter_mut().filter(|a| a.is_none()) {
                    *answer = Some(error.clone());
                }
                break;
            };
            self.pause(pause);
        }
        answers.into_iter().flatten().collect()
    }

    /// One command, its error as a [`ClusterClientError`].
    fn call(&mut self, command: Command) -> Result<Response, ClusterClientError> {
        match self.execute(command) {
            Response::Error(e) => Err(ClusterClientError::Remote(e)),
            response => Ok(response),
        }
    }

    /// Point read.
    pub fn get(&mut self, key: impl Into<Key>) -> Result<Option<Value>, ClusterClientError> {
        match self.call(Command::Get(key.into()))? {
            Response::Value(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    /// Replicated write: returns once the slot primary has applied the
    /// write AND every in-sync follower acknowledged it.
    pub fn put(
        &mut self,
        key: impl Into<Key>,
        value: impl Into<Value>,
    ) -> Result<(), ClusterClientError> {
        self.call(Command::Put(key.into(), value.into())).map(drop)
    }

    /// Replicated delete.
    pub fn remove(&mut self, key: impl Into<Key>) -> Result<(), ClusterClientError> {
        self.call(Command::Remove(key.into())).map(drop)
    }

    /// Ordered range read, answered whole by one node.
    pub fn scan(&mut self, range: KeyRange) -> Result<Vec<(Key, Value)>, ClusterClientError> {
        match self.call(Command::Scan(range))? {
            Response::Pairs(pairs) => Ok(pairs),
            other => Err(unexpected(other)),
        }
    }

    /// Range count, answered by one node.
    pub fn count(&mut self, range: KeyRange) -> Result<u64, ClusterClientError> {
        match self.call(Command::Count(range))? {
            Response::Count(n) => Ok(n),
            other => Err(unexpected(other)),
        }
    }

    /// Installs a cache join on every node (a join may be read
    /// anywhere).
    pub fn add_join(&mut self, text: impl Into<String>) -> Result<(), ClusterClientError> {
        self.call(Command::AddJoin(text.into())).map(drop)
    }

    /// One admin request (`make` builds it under a fresh id) to `node`,
    /// answered by a `Reply` or a `NotPrimary`.
    fn admin(
        &mut self,
        node: u32,
        make: impl Fn(u64) -> Message,
    ) -> Result<Message, ClusterClientError> {
        self.next_admin += 1;
        let (id, node) = (self.next_admin, node as usize);
        let got = (self.transport).call(&self.cfg, node, make(id), HashSet::from([id]));
        let reply = got.map_err(ClusterClientError::Io)?.pop();
        reply.ok_or_else(|| ClusterClientError::Remote(format!("no reply from node {node}")))
    }

    /// Asks a slot's primary to migrate one replica: `from` leaves the
    /// set, `to` joins it, with a snapshot + dual-notify handoff in
    /// between. Blocks until the migration completes or fails.
    pub fn migrate(&mut self, slot: u32, from: u32, to: u32) -> Result<(), ClusterClientError> {
        let mut backoff = Backoff::new(self.budget_ms);
        loop {
            let node = self.primaries.get(slot as usize).map_or(0, |p| p.0);
            let (error, pause) =
                match self.admin(node, |id| Message::Migrate { id, slot, from, to }) {
                    Ok(Message::Reply { error: None, .. }) => return Ok(()),
                    Ok(Message::NotPrimary {
                        slot, epoch, node, ..
                    }) => {
                        let pause = match self.learn_redirect(slot, epoch, node) {
                            true => {
                                (backoff.charge(REDIRECT_PAUSE_MS)).then_some(REDIRECT_PAUSE_MS)
                            }
                            false => backoff.next_delay(),
                        };
                        (unexpected("redirects"), pause)
                    }
                    Ok(reply) => return Err(unexpected_reply(reply)),
                    Err(e) => (e, backoff.next_delay()),
                };
            match pause {
                Some(ms) => self.pause(ms),
                None => return Err(error),
            }
        }
    }

    /// Node `node`'s counters: its telemetry snapshot
    /// (`ClusterNode::telemetry_snapshot`, plus the serving counters on
    /// sockets, and with `flight` the flight recorder's `f|<seq>`
    /// lines) as the flattened `(key, value)` pairs a wire
    /// [`Message::Metrics`] is answered with; read one with
    /// `pequod_telemetry::metric`.
    pub fn metrics(
        &mut self,
        node: u32,
        flight: bool,
    ) -> Result<Vec<(String, String)>, ClusterClientError> {
        match self.admin(node, |id| Message::Metrics { id, flight })? {
            Message::Reply {
                pairs, error: None, ..
            } => Ok(Message::parse_metrics(pairs)),
            reply => Err(unexpected_reply(reply)),
        }
    }
}

impl Client for ClusterClient {
    fn backend_name(&self) -> &'static str {
        "cluster"
    }

    /// A run of one command class (`split_runs`) goes out as one frame
    /// per node and is fully answered before the next starts, so a
    /// batch answers exactly like the same commands issued one at a
    /// time.
    fn execute_batch(&mut self, commands: Vec<Command>) -> Vec<Response> {
        split_runs(commands)
            .into_iter()
            .flat_map(|run| self.execute_run(run))
            .collect()
    }

    /// Every reachable node's counters, summed: on sockets each node's
    /// [`ClusterClient::metrics`], on a simulator its
    /// `ClusterNode::backend_stats` read in place.
    fn stats(&mut self) -> BackendStats {
        let per_node = match &self.transport {
            Transport::Sim(sim) => sim.engine_stats(),
            Transport::Tcp(_) => (0..self.cfg.nodes.len() as u32)
                .filter_map(|node| self.metrics(node, false).ok())
                .map(|pairs| backend_stats_of(&pairs))
                .collect(),
        };
        let mut total = BackendStats::default();
        for stats in per_node {
            total += stats;
        }
        total
    }
}

/// Writes `frame` to `node` on `conn`, opening it first if needed.
fn send_frame<'c>(
    cfg: &ClusterConfig,
    conn: &'c mut Option<Conn>,
    node: usize,
    frame: &Message,
) -> std::io::Result<&'c mut Conn> {
    if conn.is_none() {
        let unknown = || Error::new(ErrorKind::InvalidInput, format!("unknown node {node}"));
        let addr = cfg.addr_of(node as u32).ok_or_else(unknown)?;
        let stream = TcpStream::connect(addr)
            .map_err(|e| Error::new(e.kind(), format!("node {node} at {addr}: {e}")))?;
        stream.set_nodelay(true)?;
        let buf = BytesMut::with_capacity(8 * 1024);
        *conn = Some(Conn { stream, buf });
    }
    let conn = conn.as_mut().ok_or(ErrorKind::NotConnected)?;
    conn.stream.write_all(&encode_frame(frame))?;
    Ok(conn)
}

/// The slot a routed command's key belongs to.
fn slot_of(cfg: &ClusterConfig, command: &Command) -> u32 {
    match command {
        Command::Scan(range) | Command::Count(range) => cfg.slot_of(&range.first),
        Command::Get(key) | Command::Put(key, _) | Command::Remove(key) => cfg.slot_of(key),
        Command::AddJoin(_) => 0,
    }
}

fn unexpected<T: std::fmt::Debug>(response: T) -> ClusterClientError {
    ClusterClientError::Remote(format!("unexpected response {response:?}"))
}

/// An error `Reply` as its message; any other answer as unexpected.
fn unexpected_reply(reply: Message) -> ClusterClientError {
    match reply {
        Message::Reply { error: Some(e), .. } => ClusterClientError::Remote(e),
        other => unexpected(other),
    }
}

// ----------------------------------------------------------------------
// The run planner
// ----------------------------------------------------------------------

/// Command classes whose members may share one pipelined run without
/// changing observable results: reads don't mutate client-visible
/// state, and writes aren't observed until the next read.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CommandClass {
    Read,
    Write,
    Join,
}

fn class_of(command: &Command) -> CommandClass {
    match command {
        Command::Get(_) | Command::Scan(_) | Command::Count(_) => CommandClass::Read,
        Command::Put(..) | Command::Remove(_) => CommandClass::Write,
        Command::AddJoin(_) => CommandClass::Join,
    }
}

/// Splits a batch, in order, into maximal runs of one command class. A
/// run executes as one pipelined round per destination and must be fully
/// answered before the next run starts, so a batch answers exactly like
/// the same commands issued one at a time.
fn split_runs(commands: Vec<Command>) -> Vec<Vec<Command>> {
    let mut runs: Vec<Vec<Command>> = Vec::new();
    let mut run_class = None;
    for command in commands {
        let class = Some(class_of(&command));
        match runs.last_mut() {
            Some(run) if class == run_class => run.push(command),
            _ => runs.push(vec![command]),
        }
        run_class = class;
    }
    runs
}

/// The run planner: hands out request ids, unique for its lifetime, and
/// plans each run over a fixed set of destinations.
struct Fanout {
    destinations: usize,
    next_id: u64,
}

impl Fanout {
    /// A planner over `destinations` destinations whose first id is 1.
    fn new(destinations: usize) -> Fanout {
        Fanout {
            destinations,
            next_id: 1,
        }
    }

    /// Plans one same-class run (see [`split_runs`]): ids in command
    /// order, each command sent to its destination in `dests` (`None`:
    /// to every one, under one id). Returns the run awaiting its replies
    /// and, per destination, the requests to send there in command order
    /// — empty for a destination nothing goes to.
    fn plan(
        &mut self,
        commands: Vec<Command>,
        dests: &[Option<usize>],
    ) -> (PendingRun, Vec<Vec<Message>>) {
        let mut sends: Vec<Vec<Message>> = vec![Vec::new(); self.destinations];
        let mut run = PendingRun {
            first_id: self.next_id,
            slots: Vec::with_capacity(commands.len()),
            owed: 0,
            destinations: self.destinations,
        };
        for (command, dest) in commands.into_iter().zip(dests) {
            let slot = match dest {
                Some(to) => {
                    sends[*to].push(Message::request(self.next_id, command));
                    run.owed += 1;
                    Answer::One(None)
                }
                None => {
                    for to in sends.iter_mut() {
                        to.push(Message::request(self.next_id, command.clone()));
                    }
                    run.owed += self.destinations;
                    Answer::All(Vec::with_capacity(self.destinations))
                }
            };
            run.slots.push(slot);
            self.next_id += 1;
        }
        (run, sends)
    }
}

/// One command's answer so far.
enum Answer {
    /// A command answered by one reply.
    One(Option<Response>),
    /// A broadcast `AddJoin`: the replies so far.
    All(Vec<Response>),
}

/// One planned run awaiting its replies: a slot per command, in command
/// order, the slot of id `first_id + i` at `i`.
struct PendingRun {
    first_id: u64,
    slots: Vec<Answer>,
    /// Replies still expected.
    owed: usize,
    destinations: usize,
}

impl PendingRun {
    /// The ids this run's replies carry.
    #[cfg(test)]
    fn ids(&self) -> std::ops::Range<u64> {
        self.first_id..self.first_id + self.slots.len() as u64
    }

    /// Which command of the run (by position) id `id` answers.
    fn slot_of(&self, id: u64) -> Option<usize> {
        let offset = usize::try_from(id.checked_sub(self.first_id)?).ok()?;
        (offset < self.slots.len()).then_some(offset)
    }

    /// Takes one reply. A reply for another run, or one more than its
    /// command is owed, is ignored. Returns whether every reply is in.
    fn absorb(&mut self, id: u64, response: Response) -> bool {
        let Some(slot) = self.slot_of(id) else {
            return self.is_complete();
        };
        match &mut self.slots[slot] {
            Answer::One(reply @ None) => *reply = Some(response),
            Answer::All(replies) if replies.len() < self.destinations => replies.push(response),
            _ => return self.is_complete(),
        }
        self.owed -= 1;
        self.is_complete()
    }

    /// Whether every reply is in.
    fn is_complete(&self) -> bool {
        self.owed == 0
    }

    /// One response per command, in command order: a single reply as
    /// it came, a broadcast folded — a join `Ok` only if every
    /// destination installed it (else the first error). A command short
    /// of its replies answers an error.
    fn finish(self) -> Vec<Response> {
        let destinations = self.destinations;
        (self.slots.into_iter())
            .map(|slot| match slot {
                Answer::One(reply) => {
                    reply.unwrap_or_else(|| Response::Error("no reply from cluster".into()))
                }
                Answer::All(replies) if replies.len() < destinations => {
                    let got = replies.len();
                    Response::Error(format!("addjoin: {got} of {destinations} nodes replied"))
                }
                Answer::All(replies) => (replies.into_iter())
                    .find(|r| matches!(r, Response::Error(_)))
                    .unwrap_or(Response::Ok),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pequod_core::partition::{ServerId, TablePartition};

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

    fn two_server_client() -> ClusterClient {
        // Posts homed on node 1, everything else on node 0.
        let part = TablePartition::new(ServerId(0)).route("p|", ServerId(1));
        let cfg = ClusterConfig::new(2, 1).with_partition(Arc::new(part), 2);
        ClusterClient::simulated(SimHarness::new(&cfg, 0x5eed, 1))
    }

    #[test]
    fn batched_commands_cross_partitions() {
        let mut client = two_server_client();
        let c: &mut dyn Client = &mut client;
        let responses = c.execute_batch(vec![
            Command::AddJoin(TIMELINE.to_string()),
            Command::Put(Key::from("s|ann|bob"), Value::from_static(b"1")),
            Command::Put(Key::from("p|bob|0000000100"), Value::from_static(b"Hi")),
        ]);
        assert_eq!(responses, vec![Response::Ok, Response::Ok, Response::Ok]);
        // The timeline is computed on node 0 from posts homed on node 1,
        // fetched by subscription.
        let tl = c.scan(&KeyRange::prefix("t|ann|"));
        assert_eq!(tl.len(), 1);
        assert_eq!(c.count(&KeyRange::prefix("t|ann|")), 1);
        assert_eq!(
            c.get(&Key::from("t|ann|0000000100|bob")).as_deref(),
            Some(&b"Hi"[..])
        );
        let sim = client.sim_mut().expect("simulated");
        assert!(sim.node(1).subscriber_count() >= 1);
        // Notifications keep the replica fresh across batches.
        let c: &mut dyn Client = &mut client;
        c.put(&Key::from("p|bob|0000000120"), &Value::from_static(b"x"));
        assert_eq!(c.count(&KeyRange::prefix("t|ann|")), 2);
        c.remove(&Key::from("p|bob|0000000100"));
        assert_eq!(c.count(&KeyRange::prefix("t|ann|")), 1);
        let stats = c.stats();
        assert!(stats.keys > 0 && stats.memory_bytes > 0);
    }

    #[test]
    fn bad_join_text_surfaces_as_error() {
        let mut c = two_server_client();
        assert!(Client::add_join(&mut c, "nonsense").is_err());
    }

    #[test]
    fn stats_observe_the_batch_writes() {
        let mut c = two_server_client();
        let out = c.execute_batch(vec![
            Command::Put(Key::from("s|ann|bob"), Value::from_static(b"1")),
            Command::Put(Key::from("p|bob|0000000100"), Value::from_static(b"Hi")),
        ]);
        assert_eq!(out, vec![Response::Ok, Response::Ok]);
        assert_eq!(c.stats().keys, 2, "stats ran before the writes landed");
    }

    #[test]
    fn foreign_replies_stay_queued() {
        let mut c = two_server_client();
        // A request from another client, in flight while this one works.
        let sim = c.sim_mut().expect("simulated");
        let range = KeyRange::prefix("s|");
        sim.send(
            7,
            0,
            Message::Scan {
                id: u64::MAX,
                range,
            },
        );
        Client::put(&mut c, &Key::from("s|ann|bob"), &Value::from_static(b"1"));
        let leftover = c.sim_mut().expect("simulated").take_replies(7);
        assert!(
            leftover.iter().any(|m| m.id() == Some(u64::MAX)),
            "client 7's reply was drained by the batch client"
        );
    }

    // The run planner on its own: ids, destinations, and the fold of the
    // replies.

    fn get(k: &str) -> Command {
        Command::Get(Key::from(k))
    }

    fn value(v: &'static [u8]) -> Response {
        Response::Value(Some(Value::from_static(v)))
    }

    /// Routes `Get("d<n>…")` to destination n and broadcasts the rest.
    fn by_first_digit(command: &Command) -> Option<usize> {
        match command {
            Command::Get(key) => Some(usize::from(key.as_bytes()[1] - b'0')),
            _ => None,
        }
    }

    /// Plans `run` with each command's destination given by `route`.
    fn plan(
        fanout: &mut Fanout,
        run: Vec<Command>,
        route: impl Fn(&Command) -> Option<usize>,
    ) -> (PendingRun, Vec<Vec<Message>>) {
        let dests: Vec<Option<usize>> = run.iter().map(route).collect();
        fanout.plan(run, &dests)
    }

    /// The request `command` goes out as under `id`.
    fn sent(id: u64, command: Command) -> Message {
        Message::request(id, command)
    }

    #[test]
    fn out_of_order_replies_land_in_their_own_slots() {
        let mut fanout = Fanout::new(3);
        let (mut run, sends) = plan(
            &mut fanout,
            vec![get("d2a"), get("d0b"), get("d2c")],
            by_first_digit,
        );
        assert_eq!(
            sends,
            vec![
                vec![sent(2, get("d0b"))],
                vec![],
                vec![sent(1, get("d2a")), sent(3, get("d2c"))]
            ]
        );
        assert!(!run.absorb(3, value(b"c")));
        assert!(!run.absorb(1, value(b"a")));
        assert!(run.absorb(2, value(b"b")));
        assert_eq!(run.finish(), vec![value(b"a"), value(b"b"), value(b"c")]);
    }

    #[test]
    fn a_broadcast_folds_by_the_join_rule() {
        let join = || Command::AddJoin("j".into());
        let error = |e: &str| Response::Error(e.into());
        let cases: [(Vec<Response>, Response); 3] = [
            (vec![Response::Ok; 3], Response::Ok),
            (
                vec![Response::Ok, error("bad"), error("worse")],
                error("bad"),
            ),
            (
                vec![Response::Ok, Response::Ok],
                error("addjoin: 2 of 3 nodes replied"),
            ),
        ];
        for (replies, want) in cases {
            let mut fanout = Fanout::new(3);
            let (mut run, sends) = plan(&mut fanout, vec![join()], by_first_digit);
            assert!(sends.iter().all(|s| s == &vec![sent(1, join())]));
            for reply in replies {
                run.absorb(1, reply);
            }
            assert_eq!(run.finish(), vec![want]);
        }
    }

    #[test]
    fn a_broadcast_ignores_extra_replies() {
        let error = Response::Error("late".into());
        let mut fanout = Fanout::new(2);
        let (mut run, _) = plan(
            &mut fanout,
            vec![Command::AddJoin("j".into())],
            by_first_digit,
        );
        assert!(!run.absorb(1, Response::Ok));
        assert!(run.absorb(1, Response::Ok));
        assert!(
            run.absorb(1, error.clone()),
            "a third reply to a 2-way broadcast"
        );
        assert!(run.absorb(9, error), "a reply for another run");
        assert_eq!(run.finish(), vec![Response::Ok]);
    }

    #[test]
    fn a_missing_reply_becomes_the_no_reply_error() {
        let mut fanout = Fanout::new(1);
        let (mut run, _) = plan(&mut fanout, vec![get("d0a"), get("d0b")], by_first_digit);
        assert!(!run.absorb(2, value(b"b")));
        assert_eq!(
            run.finish(),
            vec![Response::Error("no reply from cluster".into()), value(b"b")]
        );
    }

    #[test]
    fn ids_are_unique_across_runs_and_follow_command_order() {
        let mut fanout = Fanout::new(2);
        let scan = Command::Scan(KeyRange::prefix("d1"));
        let route = |c: &Command| match c {
            Command::Scan(_) => Some(1),
            other => by_first_digit(other),
        };
        let mut seen = Vec::new();
        for run in [
            vec![get("d1a"), scan.clone(), get("d0b")],
            vec![Command::AddJoin("j".into()), Command::AddJoin("k".into())],
        ] {
            let (pending, sends) = plan(&mut fanout, run.clone(), route);
            let mut ids: Vec<u64> = sends.iter().flatten().filter_map(Message::id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids, pending.ids().collect::<Vec<_>>());
            // Each id answers the command at its position in the run.
            let slots: Vec<usize> = pending.ids().filter_map(|id| pending.slot_of(id)).collect();
            assert_eq!(slots, (0..run.len()).collect::<Vec<_>>());
            assert_eq!(pending.slot_of(pending.ids().end), None);
            seen.extend(ids);
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(plan(&mut fanout, vec![get("d0d")], route).0.ids(), 6..7);
    }
}
