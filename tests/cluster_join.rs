//! A join across slots, served by `pequod-server --cluster` over TCP:
//! three server processes, two replicas of each of three user-hashed
//! slots, the timeline join installed with `--join`. A timeline is read
//! from the one node holding none of the followees' slot, which computes
//! it from posts subscribed at that slot's primary and keeps it fresh as
//! new posts are notified.

use pequod::cluster::{ClusterClient, ClusterConfig};
use pequod::core::partition::{ServerId, SingleServer};
use pequod::prelude::*;
use pequod::telemetry::metric;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command as Proc, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

/// One `pequod-server` process, killed on drop.
struct Server(Child);

impl Server {
    /// Starts cluster node `id` and waits until it listens.
    fn spawn(cluster_file: &str, id: u32) -> Server {
        let mut child = Proc::new(env!("CARGO_BIN_EXE_pequod-server"))
            .args(["--cluster", cluster_file, "--node-id", &id.to_string()])
            .args(["--join", TIMELINE])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn pequod-server");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut line = String::new();
        while !line.contains("listening on ") {
            line.clear();
            let n = stderr.read_line(&mut line).expect("read server stderr");
            assert!(n > 0, "server exited before listening");
        }
        // Keep draining stderr so the child never blocks on the pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        });
        Server(child)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn a_node_outside_the_followees_slot_serves_their_timeline() {
    let ports: Vec<u16> = {
        let listeners: Vec<_> = (0..3)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        (listeners.iter())
            .map(|l| l.local_addr().expect("addr").port())
            .collect()
    };
    let mut toml = String::from("replication = 2\nslots = 3\ncomponent = 1\n");
    for (id, port) in ports.iter().enumerate() {
        toml.push_str(&format!(
            "[[node]]\nid = {id}\naddr = \"127.0.0.1:{port}\"\n"
        ));
    }
    let dir = std::env::temp_dir().join(format!("pequod-cluster-join-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cluster_file = dir.join("nodes.toml");
    std::fs::write(&cluster_file, &toml).expect("write cluster file");
    let cfg = ClusterConfig::parse(&toml).expect("cluster file parses");
    let servers: Vec<Server> = (0..3)
        .map(|id| Server::spawn(cluster_file.to_str().expect("utf-8 path"), id))
        .collect();

    // Three followees sharing one slot, and the node outside it.
    let slot_of_user = |u: &str| cfg.slot_of(&Key::from(format!("p|{u}|")));
    let followees: Vec<String> = (0..)
        .map(|i| format!("f{i}"))
        .filter(|u| slot_of_user(u) == slot_of_user("f0"))
        .take(3)
        .collect();
    let holders = cfg.initial_replicas(slot_of_user("f0"));
    let reader_node = (0..3).find(|n| !holders.contains(n)).expect("a third node");

    let mut writer = ClusterClient::connect(cfg.clone());
    let mut want = Vec::new();
    for (i, f) in followees.iter().enumerate() {
        writer.put(format!("s|ann|{f}"), "1").expect("follow");
        let time = format!("{:010}", 100 + i);
        writer
            .put(format!("p|{f}|{time}"), format!("post by {f}"))
            .expect("post");
        want.push((format!("t|ann|{time}|{f}"), format!("post by {f}")));
    }
    let mut reader = ClusterClient::connect(cfg.clone())
        .with_read_router(Arc::new(SingleServer(ServerId(reader_node))));
    let read = |reader: &mut ClusterClient| -> Vec<(String, String)> {
        (reader.scan(KeyRange::prefix("t|ann|")).expect("timeline"))
            .into_iter()
            .map(|(k, v)| (k.to_string(), String::from_utf8_lossy(&v).into_owned()))
            .collect()
    };
    assert_eq!(read(&mut reader), want, "the cross-slot timeline");

    // A new post reaches the reader's node by notification.
    let f = &followees[1];
    writer
        .put(format!("p|{f}|0000000200"), "fresh")
        .expect("post");
    want.push((format!("t|ann|0000000200|{f}"), "fresh".into()));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let got = read(&mut reader);
        if got == want {
            break;
        }
        assert!(Instant::now() < deadline, "timeline stale: {got:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let metrics = writer.metrics(reader_node, false).expect("metrics");
    let role = format!(
        "pequod_cluster_slot_role{{slot={},role=none}}",
        slot_of_user("f0")
    );
    assert_eq!(
        metric(&metrics, &role),
        Some(1),
        "the reader's node holds no replica of the followees' slot"
    );
    drop(servers);
    let _ = std::fs::remove_dir_all(&dir);
}
