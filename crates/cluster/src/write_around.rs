//! The write-around deployment (§2): Pequod in front of a database that
//! forwards every write to the ranges the cache subscribed to — the §2.4
//! Subscribe/Notify protocol with the database as the home. So a
//! [`WriteAround`] is two [`Node`]s on the caller's thread: node 0, the
//! cache, over the caller's engine and homing every table not in the
//! database; node 1, the database, over an uncapped engine of its own
//! that never evicts, homing the database tables.
//!
//! Writes go to their key's home; reads, join installs and stats go to
//! the cache, which fetches and subscribes to the database ranges its
//! reads miss (§3.3). Each command's messages are carried from a queue
//! until none is left, and a home sends a write's notifications before
//! its ack, so every command after a write — in the same batch too —
//! sees it.

use crate::node::{ClusterPeer, Out};
use crate::subscription::{audit_deployment, Node};
use pequod_core::partition::{Partition, ServerId, TablePartition};
use pequod_core::{BackendStats, Client, Command, Engine, Response};
use pequod_net::Message;
use std::collections::VecDeque;
use std::sync::Arc;

const CACHE: ServerId = ServerId(0);
const DATABASE: ServerId = ServerId(1);

/// A cache node in front of a database node. See the [module
/// docs](self).
pub struct WriteAround {
    /// The cache, then the database.
    nodes: [Node; 2],
    partition: Arc<TablePartition>,
    /// Messages in flight: destination node, sender, message.
    queue: VecDeque<(u32, ClusterPeer, Message)>,
    out: Out,
}

impl WriteAround {
    /// Puts `cache` in front of a new, empty database. `db_tables` lists
    /// the table prefixes that live in the database (e.g. `["p|", "s|"]`
    /// for Twip); every other table lives in the cache.
    pub fn new(cache: Engine, db_tables: &[&str]) -> WriteAround {
        let partition = (db_tables.iter()).fold(TablePartition::new(CACHE), |p, table| {
            p.route(*table, DATABASE)
        });
        let partition = Arc::new(partition);
        let node =
            |id, engine| Node::new(id, engine, partition.clone(), db_tables).in_deployment(2);
        WriteAround {
            nodes: [node(CACHE, cache), node(DATABASE, Engine::new_default())],
            partition,
            queue: VecDeque::new(),
            out: Vec::new(),
        }
    }

    /// The cache node.
    pub fn cache(&self) -> &Node {
        &self.nodes[0]
    }

    /// The database node.
    pub fn database(&self) -> &Node {
        &self.nodes[1]
    }

    /// Audits both nodes ([`audit_deployment`]); returns one message per
    /// violation.
    pub fn check_invariants(&self) -> Vec<String> {
        audit_deployment(&[self.nodes[0].audit(), self.nodes[1].audit()])
    }

    /// Sends `command` to node `to`, then carries the nodes' messages to
    /// each other until none is left, and returns the reply, read as the
    /// answer to `command`.
    fn execute(&mut self, to: ServerId, command: Command) -> Response {
        let mut reply = None;
        let request = Message::request(0, command.clone());
        self.queue
            .push_back((to.0, ClusterPeer::Client(0), request));
        while let Some((to, from, msg)) = self.queue.pop_front() {
            self.nodes[to as usize].handle(from, msg, &mut self.out);
            for (dest, msg) in self.out.drain(..) {
                match dest {
                    ClusterPeer::Node(peer) => {
                        self.queue.push_back((peer, ClusterPeer::Node(to), msg))
                    }
                    ClusterPeer::Client(_) => {
                        if let Some((_, response)) = msg.into_response(&command) {
                            reply = Some(response);
                        }
                    }
                }
            }
        }
        reply.unwrap_or_else(|| Response::Error("the deployment did not reply".into()))
    }
}

impl Client for WriteAround {
    fn backend_name(&self) -> &'static str {
        "writearound"
    }

    fn execute_batch(&mut self, commands: Vec<Command>) -> Vec<Response> {
        (commands.into_iter())
            .map(|command| match command {
                // A write goes to its key's home: the database for its
                // tables, the cache for any other (undeclared) table.
                Command::Put(ref key, _) | Command::Remove(ref key) => {
                    let home = self.partition.home_of(key);
                    self.execute(home, command)
                }
                command => self.execute(CACHE, command),
            })
            .collect()
    }

    /// The cache's counters, its key count raised to the database's:
    /// the larger count approximates the authoritative one without
    /// counting cached replicas twice.
    fn stats(&mut self) -> BackendStats {
        let mut stats = self.cache().engine.backend_stats();
        let rows = self.database().engine.backend_stats().keys;
        stats.keys = stats.keys.max(rows);
        stats
    }
}
