//! Three-node replicated cluster demo: parse a nodes.toml, write
//! through the cluster client, read back, print a node's replication
//! counters.
//!
//! Run the nodes first (or see docs/REPLICATION.md), then:
//! `cargo run --example cluster_demo -- nodes.toml`

use pequod::cluster::{ClusterClient, ClusterConfig};
use pequod::telemetry::metric;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "nodes.toml".into());
    let text = std::fs::read_to_string(&path).expect("read cluster file");
    let cfg = ClusterConfig::parse(&text).expect("parse cluster file");
    let mut client = ClusterClient::connect(cfg);
    for i in 0..10u32 {
        client
            .put(format!("p|u{i:02}|post"), format!("hello-{i}"))
            .expect("replicated put");
    }
    for i in 0..10u32 {
        let v = client.get(format!("p|u{i:02}|post")).expect("get");
        println!(
            "p|u{i:02}|post = {:?}",
            v.map(|b| String::from_utf8_lossy(&b).into_owned())
        );
    }
    let metrics = client.metrics(0, false).expect("metrics");
    for name in [
        "pequod_cluster_writes_applied_total",
        "pequod_cluster_writes_acked_total",
        "pequod_cluster_notifies_sent_total",
        "pequod_cluster_notifies_applied_total",
        "pequod_cluster_redirects_total",
    ] {
        println!("{name} = {}", metric(&metrics, name).unwrap_or(0));
    }
}
