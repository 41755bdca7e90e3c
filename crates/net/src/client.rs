//! The cluster-facing implementation of the unified client API.
//!
//! [`ClusterClient`] fronts a [`SimCluster`]: each
//! [`Client::execute_batch`] call is routed through the deployment's
//! [`Partition`] function, grouped into **one pipelined [`Message::Batch`]
//! frame per destination server**, delivered in a single network
//! round-trip, and matched back to commands by request id. This is the
//! paper's client library shape: writes go to each base key's home
//! server, reads for computed data go wherever client routing places
//! them (e.g. Twip sends all of user *u*'s timeline checks to server
//! *S(u)*), and independent requests share frames instead of paying a
//! round-trip each.

use crate::message::Message;
use crate::partition::{Partition, ServerId};
use crate::sim::SimCluster;
use pequod_core::{fold_join_replies, split_runs, BackendStats, Client, Command, Response};
use pequod_store::{Key, Value};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

/// The client id under which batch traffic is injected (distinct from
/// the simulator's synchronous convenience API, which uses client 0).
const BATCH_CLIENT: u32 = 0xc11e;

/// What a wire reply should be decoded into.
#[derive(Clone, Copy)]
enum WireKind {
    Get,
    Scan,
    Count,
    Write,
    /// A broadcast join installation: one reply expected per server.
    AddJoin,
}

/// One command's pending answer: either a wire reply to await or a
/// locally computed response.
enum Slot {
    Wire { id: u64, kind: WireKind },
    Local(Response),
}

/// A batched client for a partitioned (simulated) Pequod cluster.
pub struct ClusterClient {
    cluster: SimCluster,
    partition: Arc<dyn Partition>,
    read_router: Option<Arc<dyn Partition>>,
    next_id: u64,
}

impl ClusterClient {
    /// Wraps a cluster. `partition` is the deployment's home function:
    /// writes are sent straight to each key's home server, and — unless
    /// overridden by [`ClusterClient::with_read_router`] — reads are
    /// routed the same way.
    pub fn new(cluster: SimCluster, partition: Arc<dyn Partition>) -> ClusterClient {
        ClusterClient {
            cluster,
            partition,
            read_router: None,
            next_id: 1,
        }
    }

    /// Overrides read routing (§2.4: computed data is placed by client
    /// routing, not by the partition function — e.g. timeline checks for
    /// user `u` all go to compute server `S(u)`).
    pub fn with_read_router(mut self, router: Arc<dyn Partition>) -> ClusterClient {
        self.read_router = Some(router);
        self
    }

    /// The underlying cluster (stats, traffic accounting).
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// Mutable access to the underlying cluster.
    pub fn cluster_mut(&mut self) -> &mut SimCluster {
        &mut self.cluster
    }
}

impl ClusterClient {
    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn read_home(&self, key: &Key) -> ServerId {
        match &self.read_router {
            Some(r) => r.home_of(key),
            None => self.partition.home_of(key),
        }
    }

    fn local_stats(&self) -> BackendStats {
        let mut stats = BackendStats::default();
        for i in 0..self.cluster.len() {
            stats += self.cluster.node(ServerId(i as u32)).engine.backend_stats();
        }
        stats
    }
}

impl Client for ClusterClient {
    fn backend_name(&self) -> &'static str {
        "cluster"
    }

    /// A run of one command class ([`split_runs`]) executes as one
    /// round-trip per destination, and the network runs to quiescence
    /// between runs, so a batch answers exactly like the same commands
    /// issued one at a time.
    fn execute_batch(&mut self, commands: Vec<Command>) -> Vec<Response> {
        split_runs(commands, |c| c)
            .into_iter()
            .flat_map(|run| self.execute_run(run))
            .collect()
    }
}

impl ClusterClient {
    /// Executes one same-class run: per-destination pipelined frames,
    /// one network round to quiescence, replies matched by id.
    fn execute_run(&mut self, commands: Vec<Command>) -> Vec<Response> {
        let servers = self.cluster.len();
        let mut batches: BTreeMap<ServerId, Vec<Message>> = BTreeMap::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(commands.len());
        for command in commands {
            let (kind, home) = match &command {
                Command::Get(key) => (WireKind::Get, Some(self.read_home(key))),
                Command::Scan(range) => (WireKind::Scan, Some(self.read_home(&range.first))),
                Command::Count(range) => (WireKind::Count, Some(self.read_home(&range.first))),
                Command::Put(key, _) | Command::Remove(key) => {
                    (WireKind::Write, Some(self.partition.home_of(key)))
                }
                // Joins are installed on every server; all replies
                // share one id and are collected together.
                Command::AddJoin(_) => (WireKind::AddJoin, None),
                Command::Stats => {
                    slots.push(Slot::Local(Response::Stats(self.local_stats())));
                    continue;
                }
            };
            let id = self.fresh_id();
            slots.push(Slot::Wire { id, kind });
            match home {
                Some(home) => {
                    let request = Message::request(id, command);
                    batches.entry(home).or_default().extend(request);
                }
                None => {
                    for home in (0..servers as u32).map(ServerId) {
                        let request = Message::request(id, command.clone());
                        batches.entry(home).or_default().extend(request);
                    }
                }
            }
        }

        // One pipelined frame per destination, then run the network to
        // quiescence so parked queries (remote fetches) resolve.
        for (server, mut msgs) in batches {
            let frame = if msgs.len() > 1 {
                Message::Batch { msgs }
            } else if let Some(msg) = msgs.pop() {
                msg
            } else {
                continue; // empty batch: nothing to send this destination
            };
            self.cluster.request(BATCH_CLIENT, server, frame);
        }
        self.cluster.run_until_quiet();

        // Collect replies by id. Replies addressed to other client ids
        // (e.g. the simulator's synchronous API) stay queued for their
        // owners.
        let mut by_id: HashMap<u64, Vec<ReplyParts>> = HashMap::new();
        for msg in self.cluster.take_replies_for(BATCH_CLIENT) {
            if let Message::Reply { id, pairs, error } = msg {
                by_id.entry(id).or_default().push((pairs, error));
            }
        }
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Local(r) => r,
                Slot::Wire { id, kind } => {
                    let mut replies: Vec<Response> = (by_id.remove(&id).unwrap_or_default())
                        .into_iter()
                        .map(|reply| decode_reply(kind, reply))
                        .collect();
                    match kind {
                        WireKind::AddJoin => fold_join_replies(replies, servers),
                        _ => (replies.pop())
                            .unwrap_or_else(|| Response::Error("no reply from cluster".into())),
                    }
                }
            })
            .collect()
    }
}

/// The (pairs, error) payload of one `Message::Reply`.
type ReplyParts = (Vec<(Key, Value)>, Option<String>);

/// Decodes the payload of one `Message::Reply` as the answer to a
/// request of the given kind.
fn decode_reply(kind: WireKind, (pairs, error): ReplyParts) -> Response {
    if let Some(e) = error {
        return Response::Error(e);
    }
    match kind {
        WireKind::Get => Response::Value(pairs.into_iter().next().map(|(_, v)| v)),
        WireKind::Scan => Response::Pairs(pairs),
        WireKind::Count => match Message::parse_count(&pairs) {
            Some(n) => Response::Count(n),
            None => Response::Error("malformed count reply".into()),
        },
        WireKind::Write | WireKind::AddJoin => Response::Ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::TablePartition;
    use crate::server::ServerNode;
    use crate::sim::SimConfig;
    use pequod_core::{Engine, EngineConfig};
    use pequod_store::{KeyRange, Value};

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

    fn two_server_client() -> ClusterClient {
        // Posts homed on server 1, everything else on server 0.
        let part = Arc::new(TablePartition::new(ServerId(0)).route("p|", ServerId(1)));
        let nodes = (0..2)
            .map(|i| {
                ServerNode::new(
                    ServerId(i),
                    Engine::new(EngineConfig::default()),
                    part.clone(),
                    &["p|", "s|"],
                )
            })
            .collect();
        let cluster = SimCluster::new(SimConfig::default(), nodes);
        ClusterClient::new(cluster, part)
    }

    #[test]
    fn batched_commands_cross_partitions() {
        let mut c = two_server_client();
        let responses = c.execute_batch(vec![
            Command::AddJoin(TIMELINE.to_string()),
            Command::Put(Key::from("s|ann|bob"), Value::from_static(b"1")),
            Command::Put(Key::from("p|bob|0000000100"), Value::from_static(b"Hi")),
        ]);
        assert_eq!(responses, vec![Response::Ok, Response::Ok, Response::Ok]);
        // The timeline is computed on server 0 from posts homed on
        // server 1, fetched by subscription.
        let tl = c.scan(&KeyRange::prefix("t|ann|"));
        assert_eq!(tl.len(), 1);
        assert_eq!(c.count(&KeyRange::prefix("t|ann|")), 1);
        assert_eq!(
            c.get(&Key::from("t|ann|0000000100|bob")).as_deref(),
            Some(&b"Hi"[..])
        );
        assert!(c.cluster().node(ServerId(1)).subscriber_count() >= 1);
        // Notifications keep the replica fresh across batches.
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
        assert!(c.add_join("nonsense").is_err());
    }

    #[test]
    fn stats_in_a_batch_observes_the_batch_writes() {
        let mut c = two_server_client();
        let out = c.execute_batch(vec![
            Command::Put(Key::from("s|ann|bob"), Value::from_static(b"1")),
            Command::Put(Key::from("p|bob|0000000100"), Value::from_static(b"Hi")),
            Command::Stats,
        ]);
        let Response::Stats(stats) = &out[2] else {
            panic!("expected stats, got {:?}", out[2]);
        };
        assert_eq!(stats.keys, 2, "stats snapshot ran before the writes landed");
    }

    #[test]
    fn foreign_replies_stay_queued() {
        let mut c = two_server_client();
        // A synchronous-API request from another client id, in flight
        // while the batched client works.
        c.cluster_mut().request(
            0,
            ServerId(0),
            Message::Scan {
                id: u64::MAX,
                range: KeyRange::prefix("s|"),
            },
        );
        c.put(&Key::from("s|ann|bob"), &Value::from_static(b"1"));
        let leftover = c.cluster_mut().take_replies();
        assert!(
            leftover
                .iter()
                .any(|(client, m)| *client == 0 && m.id() == Some(u64::MAX)),
            "client 0's reply was drained by the batch client"
        );
    }
}
