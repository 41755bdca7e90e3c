//! Deterministic in-memory cluster: every node's [`ClusterNode`] state
//! machine wired through a seeded [`SimNet`] fabric with optional
//! drop/duplicate/reorder fault injection.
//!
//! Time is virtual: [`SimHarness::run_for`] advances a millisecond
//! clock, delivering due messages and ticking every live node each
//! step, so a multi-second failover scenario runs in microseconds and
//! replays identically for a given seed.

use crate::config::ClusterConfig;
use crate::node::{ClusterNode, ClusterPeer};
use pequod_core::Engine;
use pequod_net::{Message, SimNet};
use pequod_store::{Key, Value};
use std::collections::HashMap;

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
    /// The message fabric (fault injection knobs live here).
    pub net: SimNet,
    nodes: Vec<Option<ClusterNode>>,
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
        let nodes = engines
            .into_iter()
            .enumerate()
            .map(|(id, e)| Some(ClusterNode::new(id as u32, cfg.clone(), e)))
            .collect();
        SimHarness {
            net: SimNet::new(seed, latency),
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
                        node.handle(peer(from), msg)
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
            Message::NodeStatus { .. } => Message::NodeStatus { id },
            Message::Metrics { flight, .. } => Message::Metrics { id, flight },
            other => other,
        };
        self.net.send(self.now, CLIENT_BASE + c as u32, to, msg);
        id
    }

    /// Drains replies delivered to client `c`.
    pub fn take_replies(&mut self, c: u64) -> Vec<Message> {
        let mut mine = Vec::new();
        self.replies.retain(|(cl, m)| {
            if *cl == c {
                mine.push(m.clone());
                false
            } else {
                true
            }
        });
        mine
    }

    /// Writes through the cluster as client `c`, following `NotPrimary`
    /// redirects until the write is acknowledged. Runs virtual time
    /// forward as needed; panics (test context) after `max_ms`.
    pub fn put_acked(&mut self, c: u64, key: impl Into<Key>, value: impl Into<Value>, max_ms: u64) {
        let key = key.into();
        let value = value.into();
        let slot = {
            let cfg = self.any_cfg();
            cfg.slot_of(&key)
        };
        let mut target = self.first_alive_primary(slot);
        let deadline = self.now + max_ms;
        let mut id = self.client_send(
            c,
            target,
            Message::Put {
                id: 0,
                key: key.clone(),
                value: value.clone(),
            },
        );
        let mut sent_at = self.now;
        loop {
            self.run_for(1);
            // Client-side resend: the request or its reply may have
            // been dropped by a faulty link.
            if self.now.saturating_sub(sent_at) > 400 {
                target = self.first_alive_primary(slot);
                id = self.client_send(
                    c,
                    target,
                    Message::Put {
                        id: 0,
                        key: key.clone(),
                        value: value.clone(),
                    },
                );
                sent_at = self.now;
            }
            for reply in self.take_replies(c) {
                match reply {
                    Message::Reply {
                        id: rid,
                        error: None,
                        ..
                    } if rid == id => return,
                    Message::Reply {
                        id: rid,
                        error: Some(_),
                        ..
                    } if rid == id => {
                        // Deposed or draining primary: retry.
                        id = self.client_send(
                            c,
                            target,
                            Message::Put {
                                id: 0,
                                key: key.clone(),
                                value: value.clone(),
                            },
                        );
                    }
                    Message::NotPrimary { id: rid, node, .. } if rid == id => {
                        target = if self.is_alive(node) {
                            node
                        } else {
                            self.first_alive_primary(slot)
                        };
                        id = self.client_send(
                            c,
                            target,
                            Message::Put {
                                id: 0,
                                key: key.clone(),
                                value: value.clone(),
                            },
                        );
                    }
                    _ => {}
                }
            }
            if self.now >= deadline {
                unreachable!("put_acked: no ack for {key:?} after {max_ms}ms");
            }
        }
    }

    /// Reads `key` through the cluster as client `c`, following
    /// redirects. Returns the value, or `None` once a primary answers
    /// "no such key". Panics (test context) after `max_ms`.
    pub fn get_value(&mut self, c: u64, key: impl Into<Key>, max_ms: u64) -> Option<Value> {
        let key = key.into();
        let slot = self.any_cfg().slot_of(&key);
        let mut target = self.first_alive_primary(slot);
        let deadline = self.now + max_ms;
        let mut id = self.client_send(
            c,
            target,
            Message::Get {
                id: 0,
                key: key.clone(),
            },
        );
        let mut sent_at = self.now;
        loop {
            self.run_for(1);
            if self.now.saturating_sub(sent_at) > 400 {
                target = self.first_alive_primary(slot);
                id = self.client_send(
                    c,
                    target,
                    Message::Get {
                        id: 0,
                        key: key.clone(),
                    },
                );
                sent_at = self.now;
            }
            for reply in self.take_replies(c) {
                match reply {
                    Message::Reply {
                        id: rid,
                        pairs,
                        error: None,
                    } if rid == id => {
                        return pairs.into_iter().next().map(|(_, v)| v);
                    }
                    Message::NotPrimary { id: rid, node, .. } if rid == id => {
                        target = if self.is_alive(node) {
                            node
                        } else {
                            self.first_alive_primary(slot)
                        };
                        id = self.client_send(
                            c,
                            target,
                            Message::Get {
                                id: 0,
                                key: key.clone(),
                            },
                        );
                    }
                    _ => {}
                }
            }
            if self.now >= deadline {
                unreachable!("get_value: no answer for {key:?} after {max_ms}ms");
            }
        }
    }

    fn any_cfg(&self) -> ClusterConfig {
        self.nodes
            .iter()
            .flatten()
            .next()
            .map(|n| n.config().clone())
            .unwrap_or_else(|| ClusterConfig::new(1, 1))
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
