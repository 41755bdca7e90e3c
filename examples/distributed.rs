//! Distributed Pequod (§2.4) on the deterministic cluster simulator:
//! base data lives on a home node; a compute node executes the
//! timeline join, subscribing to the base ranges it needs; updates at
//! the home flow to the replica as notifications.
//!
//! Run with `cargo run --example distributed`.

use pequod::cluster::{ClusterClient, ClusterConfig, SimHarness};
use pequod::core::partition::{ServerId, SingleServer, TablePartition};
use pequod::net::Message;
use pequod::prelude::*;
use std::sync::Arc;

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

fn main() {
    // Node 0 is home for all base tables; node 1 computes timelines:
    // the client sends it every read.
    let part = Arc::new(TablePartition::new(ServerId(0)));
    let cfg = ClusterConfig::new(2, 1).with_partition(part, 2);
    let mut cluster = ClusterClient::simulated(SimHarness::new(&cfg, 0x5eed, 1))
        .with_read_router(Arc::new(SingleServer(ServerId(1))));
    cluster.add_join(TIMELINE).expect("join installs");

    // Writes go to the home node.
    cluster.put("s|ann|bob", "1").expect("put");
    cluster.put("p|bob|0000000100", "Hi").expect("put");

    // The first timeline read on the compute node fetches and
    // subscribes to ann's subscriptions and bob's posts.
    let tl = cluster.scan(KeyRange::prefix("t|ann|")).expect("scan");
    println!("first read from compute node: {} entries", tl.len());
    let sim = cluster.sim_mut().expect("simulated");
    println!(
        "home node granted {} subscriptions",
        sim.node(0).subscriber_count()
    );

    // A new post written at home propagates via Notify — no refetch.
    cluster
        .put("p|bob|0000000150", "pushed to the replica")
        .expect("put");
    let tl = cluster.scan(KeyRange::prefix("t|ann|")).expect("scan");
    println!("after home-node write: {} entries", tl.len());
    for (k, v) in &tl {
        println!("  {k} = {}", String::from_utf8_lossy(v));
    }
    assert_eq!(tl.len(), 2);
    let sim = cluster.sim_mut().expect("simulated");
    println!(
        "traffic: {} client bytes, {} subscription bytes over {} messages",
        sim.net.traffic.client_bytes, sim.net.traffic.subscription_bytes, sim.net.stats.delivered
    );
    // Demonstrate the request API directly too.
    let key = Key::from("t|ann|0000000150|bob");
    let reply = sim.request(7, 1, Message::Get { id: 0, key }, 1_000);
    println!("reply to client 7: {:?}", reply.id());
}
