//! Cluster membership and slot assignment.
//!
//! A cluster is a fixed list of nodes, a replication factor `R`, and a
//! partition of the key space into `slots` replication units. Keys map
//! to slots by a [`Partition`] function — by default the
//! [`ComponentHashPartition`], hashing one key component so that a user's rows share a slot; a
//! [`TablePartition`](pequod_core::partition::TablePartition) places
//! whole tables instead. Each slot starts with a deterministic replica
//! set of `R` nodes (`replicas[0]` is the primary); failover and
//! migration then evolve the set at runtime under per-slot epochs (see
//! `node.rs`).

use pequod_core::partition::{ComponentHashPartition, Partition};
use pequod_store::{Key, KeyRange};
use std::sync::Arc;

/// Timing knobs for replication, in milliseconds of the node's logical
/// clock (the TCP driver advances it from a sleep ticker; the simulator
/// advances it virtually).
#[derive(Clone, Copy, Debug)]
pub struct ClusterTiming {
    /// Primary heartbeat period per slot.
    pub heartbeat_ms: u64,
    /// A follower at replica position `p` promotes itself after
    /// `failover_ms * p` without a heartbeat (staggered, so the first
    /// follower wins unless it is dead too).
    pub failover_ms: u64,
    /// A primary drops a follower from the replica set (bumping the
    /// epoch) when a pending write waits longer than this for its ack.
    pub ack_timeout_ms: u64,
    /// Retry period for an unanswered catch-up subscription.
    pub resubscribe_ms: u64,
}

impl Default for ClusterTiming {
    fn default() -> Self {
        ClusterTiming {
            heartbeat_ms: 50,
            failover_ms: 400,
            ack_timeout_ms: 1_000,
            resubscribe_ms: 400,
        }
    }
}

/// One cluster member.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSpec {
    /// Dense node id (index into the node list).
    pub id: u32,
    /// TCP address (`host:port`); unused by the simulator.
    pub addr: String,
}

/// Static cluster description, typically parsed from `nodes.toml`.
#[derive(Clone)]
pub struct ClusterConfig {
    /// The member nodes; ids must be dense (node `i` at index `i`).
    pub nodes: Vec<NodeSpec>,
    /// Replication factor: each slot is kept on one primary plus
    /// `replication - 1` followers.
    pub replication: usize,
    /// Number of replication slots (max 64: the engine's authority
    /// predicate tracks slot ownership in one atomic bitmask).
    pub slots: u32,
    /// Which slot a key belongs to: the home `partition` gives it,
    /// modulo `slots`.
    pub partition: Arc<dyn Partition>,
    /// Replication window: how many recent ops a primary retains per
    /// slot for delta catch-up before falling back to a snapshot
    /// transfer.
    pub window: usize,
    /// Protocol timing.
    pub timing: ClusterTiming,
}

impl ClusterConfig {
    /// A config for `n` nodes with replication factor `r` and default
    /// tuning (8 slots hashed on key component 1). Addresses are empty —
    /// fill them in (or use [`ClusterConfig::parse`]) before TCP
    /// serving.
    pub fn new(n: u32, r: usize) -> ClusterConfig {
        ClusterConfig {
            nodes: (0..n)
                .map(|id| NodeSpec {
                    id,
                    addr: String::new(),
                })
                .collect(),
            replication: r,
            slots: 8,
            partition: hashed(1, 8),
            window: 1024,
            timing: ClusterTiming::default(),
        }
    }

    /// The stand-alone deployment: [`ClusterConfig::new(1, 1)`](ClusterConfig::new)
    /// with node 0 at `addr` — what `pequod-server` serves without
    /// `--cluster`, and what a client of such a server connects with.
    pub fn one_node(addr: impl ToString) -> ClusterConfig {
        let addr = addr.to_string();
        let nodes = vec![NodeSpec { id: 0, addr }];
        ClusterConfig {
            nodes,
            ..ClusterConfig::new(1, 1)
        }
    }

    /// The same cluster with its keys placed by `partition` into
    /// `slots` slots: the slot of a key is `partition.home_of(key)`
    /// modulo `slots`.
    pub fn with_partition(mut self, partition: Arc<dyn Partition>, slots: u32) -> ClusterConfig {
        self.partition = partition;
        self.slots = slots;
        self
    }

    /// Parses the `nodes.toml` cluster file. Accepted subset:
    ///
    /// ```toml
    /// replication = 2
    /// slots = 8
    /// component = 1
    ///
    /// [[node]]
    /// id = 0
    /// addr = "127.0.0.1:7701"
    ///
    /// [[node]]
    /// id = 1
    /// addr = "127.0.0.1:7702"
    /// ```
    ///
    /// The parser is a hand-rolled line reader (no external TOML crate
    /// in the offline build): `key = value` pairs, `[[node]]` section
    /// headers, `#` comments.
    pub fn parse(text: &str) -> Result<ClusterConfig, String> {
        let mut cfg = ClusterConfig::new(0, 2);
        cfg.nodes.clear();
        let mut in_node = false;
        let mut component = 1;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[node]]" {
                in_node = true;
                cfg.nodes.push(NodeSpec {
                    id: cfg.nodes.len() as u32,
                    addr: String::new(),
                });
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("line {}: unknown section {line}", lineno + 1));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected key = value", lineno + 1));
            };
            let key = key.trim();
            let value = value.trim().trim_matches('"');
            let parse_u64 = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("line {}: {key} needs a number, got {v:?}", lineno + 1))
            };
            if in_node {
                let Some(node) = cfg.nodes.last_mut() else {
                    return Err(format!("line {}: {key} outside [[node]]", lineno + 1));
                };
                match key {
                    "id" => node.id = parse_u64(value)? as u32,
                    "addr" => node.addr = value.to_string(),
                    _ => return Err(format!("line {}: unknown node key {key:?}", lineno + 1)),
                }
            } else {
                match key {
                    "replication" => cfg.replication = parse_u64(value)? as usize,
                    "slots" => cfg.slots = parse_u64(value)? as u32,
                    "component" => component = parse_u64(value)? as usize,
                    "window" => cfg.window = parse_u64(value)? as usize,
                    "heartbeat_ms" => cfg.timing.heartbeat_ms = parse_u64(value)?,
                    "failover_ms" => cfg.timing.failover_ms = parse_u64(value)?,
                    "ack_timeout_ms" => cfg.timing.ack_timeout_ms = parse_u64(value)?,
                    "resubscribe_ms" => cfg.timing.resubscribe_ms = parse_u64(value)?,
                    _ => return Err(format!("line {}: unknown key {key:?}", lineno + 1)),
                }
            }
        }
        cfg.partition = hashed(component, cfg.slots);
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks internal consistency (dense ids, bounds).
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("cluster has no nodes".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id != i as u32 {
                return Err(format!("node ids must be dense: index {i} has id {}", n.id));
            }
        }
        if self.replication == 0 || self.replication > self.nodes.len() {
            return Err(format!(
                "replication factor {} outside 1..={} nodes",
                self.replication,
                self.nodes.len()
            ));
        }
        if self.slots == 0 || self.slots > 64 {
            return Err(format!("slots {} outside 1..=64", self.slots));
        }
        Ok(())
    }

    /// The slot a key belongs to.
    pub fn slot_of(&self, key: &Key) -> u32 {
        self.partition.home_of(key).0 % self.slots
    }

    /// The one slot every key of `range` belongs to, when the partition
    /// can prove there is one.
    pub fn slot_of_range(&self, range: &KeyRange) -> Option<u32> {
        Some(self.partition.home_of_range(range)?.0 % self.slots)
    }

    /// The boot-time replica set of a slot: `replication` nodes
    /// round-robin from `slot % nodes`, primary first. Failover and
    /// migration evolve the set at runtime; this is only epoch 0.
    pub fn initial_replicas(&self, slot: u32) -> Vec<u32> {
        let n = self.nodes.len() as u32;
        (0..self.replication as u32)
            .map(|k| (slot + k) % n)
            .collect()
    }

    /// The address of a node id, if known.
    pub fn addr_of(&self, node: u32) -> Option<&str> {
        self.nodes.get(node as usize).map(|n| n.addr.as_str())
    }
}

/// Slots by hashing key component `component` over `slots` homes.
fn hashed(component: usize, slots: u32) -> Arc<dyn Partition> {
    Arc::new(ComponentHashPartition {
        component,
        servers: slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_documented_example() {
        let cfg = ClusterConfig::parse(
            r#"
            # a three node cluster
            replication = 2
            slots = 16
            component = 1

            [[node]]
            id = 0
            addr = "127.0.0.1:7701"

            [[node]]
            id = 1
            addr = "127.0.0.1:7702"

            [[node]]
            id = 2
            addr = "127.0.0.1:7703"
            "#,
        )
        .expect("config parses");
        assert_eq!(cfg.nodes.len(), 3);
        assert_eq!(cfg.replication, 2);
        assert_eq!(cfg.slots, 16);
        assert_eq!(cfg.addr_of(2), Some("127.0.0.1:7703"));
        assert_eq!(cfg.initial_replicas(0), vec![0, 1]);
        assert_eq!(cfg.initial_replicas(2), vec![2, 0]);
        assert_eq!(cfg.initial_replicas(5), vec![2, 0]);
    }

    #[test]
    fn parse_rejects_bad_configs() {
        assert!(ClusterConfig::parse("").is_err()); // no nodes
        assert!(ClusterConfig::parse("replication = 0\n[[node]]\nid = 0").is_err());
        assert!(ClusterConfig::parse("slots = 65\n[[node]]\nid = 0\nreplication = 1").is_err());
        assert!(ClusterConfig::parse("bogus = 1").is_err());
        assert!(ClusterConfig::parse("[[node]]\nid = 5").is_err()); // non-dense
    }

    #[test]
    fn slot_of_follows_the_hash_partition() {
        let cfg = ClusterConfig::new(3, 2);
        let a = cfg.slot_of(&Key::from("p|ann|1"));
        let b = cfg.slot_of(&Key::from("p|ann|2"));
        assert_eq!(a, b, "same user, same slot");
        assert!(a < cfg.slots);
        // A table partition places whole tables.
        let part = pequod_core::partition::TablePartition::new(pequod_core::partition::ServerId(0))
            .route("p|", pequod_core::partition::ServerId(1));
        let cfg = cfg.with_partition(Arc::new(part), 2);
        assert_eq!(cfg.slot_of(&Key::from("p|ann|1")), 1);
        assert_eq!(cfg.slot_of(&Key::from("s|ann|bob")), 0);
        assert_eq!(cfg.slot_of_range(&KeyRange::prefix("p|")), Some(1));
    }
}
