//! Cluster-aware TCP client.
//!
//! Routes single-key operations to the slot's primary, learning
//! [`Message::NotPrimary`] redirects as it goes (a redirect carries the
//! slot's epoch, so stale hints never overwrite fresher ones). Scans
//! and counts scatter-gather across every node: each node answers only
//! for the slots it is primary of, so concatenating the shards covers
//! the key space exactly once.
//!
//! Failures retry with jittered exponential backoff under a bounded
//! attempt count and total-delay budget ([`RetryPolicy`] — the same
//! knobs as the single-server `TcpClient`), cycling the believed
//! primary on connection errors so a failover is discovered within a
//! few attempts.

use crate::config::ClusterConfig;
use bytes::BytesMut;
use pequod_net::codec::{decode_frame, encode_frame};
use pequod_net::tcp::RetryPolicy;
use pequod_net::Message;
use pequod_store::{Key, KeyRange, Value};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Why a cluster operation failed after exhausting its retries.
#[derive(Debug)]
pub enum ClusterClientError {
    /// No node could be reached (last I/O error attached).
    Io(std::io::Error),
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

struct Conn {
    stream: TcpStream,
    buf: BytesMut,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: BytesMut::with_capacity(8 * 1024),
        })
    }

    /// Writes one request and reads frames until the response carrying
    /// `id` arrives (`Reply` or `NotPrimary`); unrelated frames are
    /// skipped.
    fn call(&mut self, msg: &Message, id: u64) -> std::io::Result<Message> {
        self.stream.write_all(&encode_frame(msg))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match decode_frame(&mut self.buf) {
                Ok(Some(Message::Reply {
                    id: rid,
                    pairs,
                    error,
                })) if rid == id => {
                    return Ok(Message::Reply {
                        id: rid,
                        pairs,
                        error,
                    });
                }
                Ok(Some(Message::NotPrimary {
                    id: rid,
                    slot,
                    epoch,
                    node,
                })) if rid == id => {
                    return Ok(Message::NotPrimary {
                        id: rid,
                        slot,
                        epoch,
                        node,
                    });
                }
                Ok(Some(_)) => continue,
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ));
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// A client connection to a replicated cluster.
pub struct ClusterClient {
    cfg: ClusterConfig,
    policy: RetryPolicy,
    conns: Vec<Option<Conn>>,
    /// Per-slot believed primary and the epoch that taught it.
    primaries: Vec<u32>,
    epochs: Vec<u64>,
    next_id: u64,
    rng: u64,
}

impl ClusterClient {
    /// A client for `cfg` with the default cluster retry policy: wider
    /// than the single-server default, because a failover has to ride
    /// out the heartbeat timeout (hundreds of ms) plus a possible
    /// laggard-drop wait before any node can accept the write again.
    /// Connections are opened lazily, so this never fails.
    pub fn connect(cfg: ClusterConfig) -> ClusterClient {
        let failover_budget =
            2 * (cfg.nodes.len() as u64 * cfg.timing.failover_ms + cfg.timing.ack_timeout_ms);
        let policy = RetryPolicy {
            max_attempts: 16,
            budget_ms: failover_budget.max(RetryPolicy::default().budget_ms),
            ..RetryPolicy::default()
        };
        ClusterClient::connect_with(cfg, policy)
    }

    /// A client with an explicit retry policy.
    pub fn connect_with(cfg: ClusterConfig, policy: RetryPolicy) -> ClusterClient {
        let n = cfg.nodes.len();
        let primaries = (0..cfg.slots)
            .map(|s| cfg.initial_replicas(s).first().copied().unwrap_or(0))
            .collect();
        let rng = policy.seed | 1;
        ClusterClient {
            epochs: vec![0; cfg.slots as usize],
            primaries,
            conns: (0..n).map(|_| None).collect(),
            cfg,
            policy,
            next_id: 0,
            rng,
        }
    }

    /// The cluster config this client routes by.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// xorshift64*, seeded from the policy: deterministic jitter with
    /// no wall-clock dependence.
    fn jitter(&mut self, upto: u64) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        if upto == 0 {
            0
        } else {
            x.wrapping_mul(0x2545f4914f6cdd1d) % upto
        }
    }

    /// One framed request/response against a specific node, opening or
    /// reopening its connection as needed. A failed call poisons the
    /// cached connection so the next attempt redials.
    fn call_node(&mut self, node: u32, msg: &Message, id: u64) -> std::io::Result<Message> {
        let addr = self
            .cfg
            .addr_of(node)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "unknown node"))?
            .to_string();
        let slot = self
            .conns
            .get_mut(node as usize)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "unknown node"))?;
        if slot.is_none() {
            let conn = Conn::open(&addr).map_err(|e| {
                std::io::Error::new(e.kind(), format!("node {node} at {addr}: {e}"))
            })?;
            *slot = Some(conn);
        }
        let conn = match slot.as_mut() {
            Some(c) => c,
            None => return Err(std::io::ErrorKind::NotConnected.into()),
        };
        let out = conn.call(msg, id);
        if out.is_err() {
            *slot = None;
        }
        out
    }

    /// Records a `NotPrimary` hint; returns whether it taught us
    /// anything (a fresher epoch or a different primary).
    fn learn_redirect(&mut self, slot: u32, epoch: u64, node: u32) -> bool {
        let s = slot as usize;
        if s < self.primaries.len() && epoch >= self.epochs[s] {
            let learned = epoch > self.epochs[s] || self.primaries[s] != node;
            self.epochs[s] = epoch;
            self.primaries[s] = node;
            learned
        } else {
            false
        }
    }

    /// Runs a slot-routed request to completion: follow redirects,
    /// cycle nodes on I/O errors, back off with jitter, give up when
    /// the failure count or delay budget runs out.
    ///
    /// Failures (refused connections, remote errors) consume bounded
    /// exponential-backoff attempts. Informative redirects cost only a
    /// short fixed pause: during a failover the survivors keep
    /// pointing at the dead primary until the epoch bumps, so the
    /// redirect↔refused ping-pong must not exhaust the attempt budget
    /// before `failover_ms` has elapsed — the total-delay budget is
    /// the only bound on that phase.
    fn call_slot(
        &mut self,
        slot: u32,
        make: impl Fn(u64) -> Message,
    ) -> Result<Vec<(Key, Value)>, ClusterClientError> {
        const REDIRECT_PAUSE_MS: u64 = 10;
        let mut delay = self.policy.base_delay_ms;
        let mut slept = 0u64;
        let mut failures = 0u32;
        let mut last_io: Option<std::io::Error> = None;
        let mut last_remote: Option<String> = None;
        loop {
            let node = self.primaries.get(slot as usize).copied().unwrap_or(0);
            let id = self.fresh_id();
            let msg = make(id);
            let mut pause = delay + self.jitter(delay.max(1));
            let mut failed = true;
            match self.call_node(node, &msg, id) {
                Ok(Message::Reply {
                    pairs, error: None, ..
                }) => return Ok(pairs),
                Ok(Message::Reply { error: Some(e), .. }) => {
                    // A deposed or draining primary answers with an
                    // error; the epoch change that follows will teach
                    // us the new one, so retry after a pause.
                    last_remote = Some(e);
                }
                Ok(Message::NotPrimary {
                    slot: s,
                    epoch,
                    node: p,
                    ..
                }) => {
                    if self.learn_redirect(s, epoch, p) {
                        failed = false;
                        pause = REDIRECT_PAUSE_MS;
                    } else {
                        last_remote = Some(format!("redirect loop at epoch {epoch}"));
                    }
                }
                Ok(_) => last_remote = Some("unexpected response".into()),
                Err(e) => {
                    last_io = Some(e);
                    // Try the next node: after a crash the old primary
                    // refuses connections, and any live node can
                    // redirect us to the slot's real primary.
                    let n = self.cfg.nodes.len() as u32;
                    if n > 0 {
                        if let Some(p) = self.primaries.get_mut(slot as usize) {
                            *p = (node + 1) % n;
                        }
                    }
                }
            }
            if failed {
                failures += 1;
                if failures >= self.policy.max_attempts.max(1) {
                    break;
                }
                delay = (delay * 2).min(self.policy.max_delay_ms);
            }
            if slept + pause > self.policy.budget_ms {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(pause));
            slept += pause;
        }
        match (last_remote, last_io) {
            (Some(e), _) => Err(ClusterClientError::Remote(e)),
            (None, Some(e)) => Err(ClusterClientError::Io(e)),
            (None, None) => Err(ClusterClientError::Remote("retries exhausted".into())),
        }
    }

    /// Point read.
    pub fn get(&mut self, key: impl Into<Key>) -> Result<Option<Value>, ClusterClientError> {
        let key = key.into();
        let slot = self.cfg.slot_of(&key);
        let pairs = self.call_slot(slot, |id| Message::Get {
            id,
            key: key.clone(),
        })?;
        Ok(pairs.into_iter().next().map(|(_, v)| v))
    }

    /// Replicated write: returns once the slot primary has applied the
    /// write AND every in-sync follower acknowledged it.
    pub fn put(
        &mut self,
        key: impl Into<Key>,
        value: impl Into<Value>,
    ) -> Result<(), ClusterClientError> {
        let key = key.into();
        let value = value.into();
        let slot = self.cfg.slot_of(&key);
        self.call_slot(slot, |id| Message::Put {
            id,
            key: key.clone(),
            value: value.clone(),
        })?;
        Ok(())
    }

    /// Replicated delete.
    pub fn remove(&mut self, key: impl Into<Key>) -> Result<(), ClusterClientError> {
        let key = key.into();
        let slot = self.cfg.slot_of(&key);
        self.call_slot(slot, |id| Message::Remove {
            id,
            key: key.clone(),
        })?;
        Ok(())
    }

    /// Asks every node the same question (`make` builds it under a
    /// fresh id) and hands each successful reply's pairs to `take`.
    /// Fails only if no node answered, with the last error.
    fn ask_every_node(
        &mut self,
        make: impl Fn(u64) -> Message,
        mut take: impl FnMut(Vec<(Key, Value)>),
    ) -> Result<(), ClusterClientError> {
        let mut reached = false;
        let mut last: Option<ClusterClientError> = None;
        for node in 0..self.cfg.nodes.len() as u32 {
            let id = self.fresh_id();
            match self.call_node(node, &make(id), id) {
                Ok(Message::Reply {
                    pairs, error: None, ..
                }) => {
                    reached = true;
                    take(pairs);
                }
                Ok(Message::Reply { error: Some(e), .. }) => {
                    last = Some(ClusterClientError::Remote(e));
                }
                Ok(_) => {}
                Err(e) => last = Some(ClusterClientError::Io(e)),
            }
        }
        if !reached {
            return Err(last.unwrap_or(ClusterClientError::Remote("no nodes".into())));
        }
        Ok(())
    }

    /// Ordered range read, scatter-gathered: every node contributes the
    /// rows of the slots it is primary for; the shards are merged into
    /// one sorted result.
    pub fn scan(&mut self, range: KeyRange) -> Result<Vec<(Key, Value)>, ClusterClientError> {
        let mut all = Vec::new();
        let scan = |id| Message::Scan {
            id,
            range: range.clone(),
        };
        self.ask_every_node(scan, |pairs| all.extend(pairs))?;
        all.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(all)
    }

    /// Range count, scatter-gathered: each node counts its primary
    /// slots' rows, the client sums the shards.
    pub fn count(&mut self, range: KeyRange) -> Result<u64, ClusterClientError> {
        let mut total = 0u64;
        let count = |id| Message::Count {
            id,
            range: range.clone(),
        };
        self.ask_every_node(count, |pairs| {
            total += Message::parse_count(&pairs).unwrap_or(0);
        })?;
        Ok(total)
    }

    /// Installs a cache join on every node (joins must exist wherever a
    /// slot's data might live).
    pub fn add_join(&mut self, text: impl Into<String>) -> Result<(), ClusterClientError> {
        let text = text.into();
        let add_join = |id| Message::AddJoin {
            id,
            text: text.clone(),
        };
        self.ask_every_node(add_join, |_| {})
    }

    /// Asks a slot's primary to migrate one replica: `from` leaves the
    /// set, `to` joins it, with a snapshot + dual-notify handoff in
    /// between. Blocks until the migration completes or fails.
    pub fn migrate(&mut self, slot: u32, from: u32, to: u32) -> Result<(), ClusterClientError> {
        self.call_slot(slot, |id| Message::Migrate { id, slot, from, to })?;
        Ok(())
    }

    /// A node's replication status and counters, as `(key, value)`
    /// string pairs (see `ClusterNode::status_pairs`).
    pub fn status(&mut self, node: u32) -> Result<Vec<(Key, Value)>, ClusterClientError> {
        let id = self.fresh_id();
        match self.call_node(node, &Message::NodeStatus { id }, id) {
            Ok(Message::Reply {
                pairs, error: None, ..
            }) => Ok(pairs),
            Ok(Message::Reply { error: Some(e), .. }) => Err(ClusterClientError::Remote(e)),
            Ok(_) => Err(ClusterClientError::Remote("unexpected response".into())),
            Err(e) => Err(ClusterClientError::Io(e)),
        }
    }
}
