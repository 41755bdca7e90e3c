//! The cluster-facing implementation of the unified client API.
//!
//! [`ClusterClient`] fronts a [`SimCluster`]: each
//! [`Client::execute_batch`] call is planned by the run planner every
//! multi-engine backend shares ([`pequod_core::fanout`]), each command
//! routed through the deployment's [`Partition`] function, grouped into
//! **one pipelined [`Message::Batch`] frame per destination server**,
//! delivered in a single network round-trip, and matched back to its
//! command by request id. This is the paper's client library shape:
//! writes go to each base key's home server, reads for computed data go
//! wherever client routing places them (e.g. Twip sends all of user
//! *u*'s timeline checks to server *S(u)*), and independent requests
//! share frames instead of paying a round-trip each.

use crate::message::Message;
use crate::partition::{Partition, ServerId};
use crate::sim::SimCluster;
use pequod_core::{split_runs, BackendStats, Client, Command, Fanout, Response, Route};
use pequod_store::Key;
use std::sync::Arc;

/// The client id under which batch traffic is injected (distinct from
/// the simulator's synchronous convenience API, which uses client 0).
const BATCH_CLIENT: u32 = 0xc11e;

/// A batched client for a partitioned (simulated) Pequod cluster.
pub struct ClusterClient {
    cluster: SimCluster,
    partition: Arc<dyn Partition>,
    read_router: Option<Arc<dyn Partition>>,
    fanout: Fanout,
}

impl ClusterClient {
    /// Wraps a cluster. `partition` is the deployment's home function:
    /// writes are sent straight to each key's home server, and — unless
    /// overridden by [`ClusterClient::with_read_router`] — reads are
    /// routed the same way.
    pub fn new(cluster: SimCluster, partition: Arc<dyn Partition>) -> ClusterClient {
        ClusterClient {
            fanout: Fanout::new(cluster.len(), "cluster"),
            cluster,
            partition,
            read_router: None,
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

    /// Executes one same-class run: per-destination pipelined frames,
    /// one network round to quiescence, replies matched by id.
    fn execute_run(&mut self, commands: Vec<Command>) -> Vec<Response> {
        // What each command asked, to read its wire reply as the answer.
        let asked = commands.clone();
        let ClusterClient {
            cluster,
            partition,
            read_router,
            fanout,
        } = self;
        let home = |key: &Key| partition.home_of(key).0 as usize;
        let read_home = |key: &Key| match &*read_router {
            Some(r) => r.home_of(key).0 as usize,
            None => home(key),
        };
        let (mut run, sends) = fanout.plan(commands, |command| match command {
            Command::Get(key) => Route::One(read_home(key)),
            Command::Scan(range) | Command::Count(range) => Route::One(read_home(&range.first)),
            Command::Put(key, _) | Command::Remove(key) => Route::One(home(key)),
            // Joins are installed on every server.
            Command::AddJoin(_) => Route::All,
            Command::Stats => Route::Answered(Response::Stats(local_stats(cluster))),
        });

        // One pipelined frame per destination, then run the network to
        // quiescence so parked queries (remote fetches) resolve.
        for (server, requests) in sends.into_iter().enumerate() {
            let mut msgs: Vec<Message> = (requests.into_iter())
                .filter_map(|(id, command)| Message::request(id, command))
                .collect();
            let frame = if msgs.len() > 1 {
                Message::Batch { msgs }
            } else if let Some(msg) = msgs.pop() {
                msg
            } else {
                continue; // nothing for this destination
            };
            cluster.request(BATCH_CLIENT, ServerId(server as u32), frame);
        }
        cluster.run_until_quiet();

        // Replies addressed to other client ids (e.g. the simulator's
        // synchronous API) stay queued for their owners.
        for reply in cluster.take_replies_for(BATCH_CLIENT) {
            let Some(slot) = reply.id().and_then(|id| run.slot_of(id)) else {
                continue;
            };
            if let Some((id, response)) = reply.into_response(&asked[slot]) {
                run.absorb(id, response);
            }
        }
        run.finish()
    }
}

/// Every server's counters, summed.
fn local_stats(cluster: &SimCluster) -> BackendStats {
    let mut stats = BackendStats::default();
    for i in 0..cluster.len() {
        stats += cluster.node(ServerId(i as u32)).engine.backend_stats();
    }
    stats
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
