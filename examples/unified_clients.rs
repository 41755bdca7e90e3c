//! One command script, every backend.
//!
//! Demonstrates the unified client API: the same `Vec<Command>` runs
//! against the in-process engine, a write-around deployment (cache in
//! front of a database), a partitioned two-server cluster, and the
//! three baseline stores — and the KV answers agree everywhere, while
//! only the join-capable Pequod backends accept the timeline join.
//!
//! ```sh
//! cargo run --example unified_clients
//! ```

use pequod::baselines::{MemcachedClient, MiniDbClient, RedisClient};
use pequod::cluster::{ClusterClient, ClusterConfig, SimHarness};
use pequod::core::partition::{ServerId, TablePartition};
use pequod::prelude::*;
use std::sync::Arc;

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

/// Each backend with the name its row is printed under: the
/// write-around deployment is a cluster too.
fn backends() -> Vec<(&'static str, Box<dyn Client>)> {
    // Posts on node 1, every other table on node 0.
    let part = Arc::new(TablePartition::new(ServerId(0)).route("p|", ServerId(1)));
    let cfg = ClusterConfig::new(2, 1).with_partition(part, 2);
    let write_around = ClusterClient::write_around(Engine::new_default(), &["p|", "s|"]);
    vec![
        ("engine", Box::new(Engine::new_default())),
        ("writearound", Box::new(write_around)),
        (
            "cluster",
            Box::new(ClusterClient::simulated(SimHarness::new(&cfg, 0x5eed, 1))),
        ),
        ("redis", Box::new(RedisClient::new())),
        ("memcached", Box::new(MemcachedClient::new())),
        ("minidb", Box::new(MiniDbClient::new())),
    ]
}

fn main() {
    let script = vec![
        Command::Put(Key::from("s|ann|bob"), Value::from_static(b"1")),
        Command::Put(Key::from("p|bob|0000000100"), Value::from_static(b"Hi")),
        Command::Put(Key::from("p|bob|0000000120"), Value::from_static(b"again")),
        Command::Count(KeyRange::prefix("p|bob|")),
        Command::Get(Key::from("p|bob|0000000100")),
    ];
    println!("script: {} commands, batched\n", script.len());
    for (name, mut client) in backends() {
        // The join only installs on Pequod-family backends; the rest
        // answer with an explicit error and keep serving KV traffic.
        let joins = match client.add_join(TIMELINE) {
            Ok(()) => "cache joins".to_string(),
            Err(_) => "no joins (client-side fan-out)".to_string(),
        };
        let responses = client.execute_batch(script.clone());
        let count = match &responses[3] {
            Response::Count(n) => *n,
            other => panic!("unexpected response {other:?}"),
        };
        let timeline = client.count(&KeyRange::prefix("t|ann|"));
        println!(
            "{name:<12} {joins:<32} posts by bob: {count}, ann's timeline entries: {timeline}"
        );
    }
    println!("\nevery backend agrees on the KV answers; only join-capable ones computed t|ann|.");
}
