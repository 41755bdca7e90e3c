//! A real Pequod server over TCP: length-prefixed binary frames on a
//! loopback socket, one engine behind the listener — the node of a
//! one-node cluster, as `pequod-server` runs without `--cluster` —
//! joins installed over the wire.
//!
//! Run with `cargo run --example tcp_demo`.

use pequod::cluster::{ClusterConfig, ClusterServer};
use pequod::core::Engine;
use pequod::net::TcpClient;
use pequod::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let addr = Some("127.0.0.1:0");
    let server = ClusterServer::spawn(ClusterConfig::new(1, 1), 0, Engine::new_default(), addr)?;
    println!("pequod server listening on {}", server.addr());

    let mut client = TcpClient::connect(server.addr())?;
    client.add_join(
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>",
    )?;
    client.put("s|ann|bob", "1")?;
    client.put("p|bob|0000000100", "Hi over TCP")?;

    let timeline = client.scan(KeyRange::prefix("t|ann|"))?;
    for (k, v) in &timeline {
        println!("  {k} = {}", String::from_utf8_lossy(v));
    }
    assert_eq!(timeline.len(), 1);

    // A second client sees the same cache.
    let mut other = TcpClient::connect(server.addr())?;
    let v = other.get("t|ann|0000000100|bob")?;
    println!(
        "second connection read: {:?}",
        v.map(|v| String::from_utf8_lossy(&v).into_owned())
    );
    Ok(())
}
