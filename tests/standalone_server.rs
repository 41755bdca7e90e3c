//! `pequod-server` without `--cluster`: the one node of a one-node
//! cluster at replication 1, built in code. It is the primary of every
//! slot and reserves `#` keys like any cluster member. `--node-id`
//! names a member of a `--cluster` file: either flag alone is a usage
//! error.

use pequod::core::Engine;
use pequod::net::codec::{encode_frame, FrameDecoder};
use pequod::net::{ClientError, Message, TcpClient};
use pequod::persist::{attach, PersistOptions};
use pequod::telemetry::metric;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command as Proc, Stdio};
use std::time::Duration;

/// One stand-alone `pequod-server` process, killed on drop.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts a stand-alone server on an ephemeral port; returns it and the
/// address it printed.
fn spawn() -> (Server, String) {
    let mut child = Proc::new(env!("CARGO_BIN_EXE_pequod-server"))
        .args(["--listen", "127.0.0.1:0"])
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
    let (_, addr) = line.split_once("listening on ").expect("an address");
    (Server(child), addr.trim().to_string())
}

#[test]
fn a_stand_alone_server_is_the_primary_of_every_slot() {
    let (_server, addr) = spawn();
    let mut client = TcpClient::connect(&addr).expect("connect");
    client.put("p|bob|0000000001", "hi").expect("put");
    let metrics = client.metrics(false).expect("metrics");
    for slot in 0..8 {
        let role = format!("pequod_cluster_slot_role{{slot={slot},role=primary}}");
        assert_eq!(metric(&metrics, &role), Some(1), "{role} in {metrics:?}");
    }
    assert_eq!(metric(&metrics, "pequod_backend_keys"), Some(1));
}

#[test]
fn a_stand_alone_server_reserves_hash_keys() {
    let (_server, addr) = spawn();
    let mut client = TcpClient::connect(&addr).expect("connect");
    let reserved = |result: Result<(), ClientError>| matches!(result, Err(ClientError::Remote(e)) if e.contains("reserved"));
    assert!(reserved(client.put("#rep|00", "1")));
    assert!(reserved(client.get("#epoch|00").map(drop)));
    assert!(reserved(client.remove("#x")));
}

#[test]
fn cluster_and_node_id_go_together() {
    for half in [["--node-id", "0"], ["--cluster", "nodes.toml"]] {
        let status = Proc::new(env!("CARGO_BIN_EXE_pequod-server"))
            .args(["--listen", "127.0.0.1:0"])
            .args(half)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("run pequod-server");
        assert_eq!(status.code(), Some(2), "{half:?} alone");
    }
}

/// A connection that opens with `Hello` from a node the config does not
/// have is a client's, and its server-to-server frames are refused:
/// none of them reaches the slots.
#[test]
fn a_stand_alone_server_has_no_peers() {
    let (_server, addr) = spawn();
    let mut sock = TcpStream::connect(&addr).expect("connect");
    // A refusal is answered at once; a peer link would answer nothing.
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let frames = [
        Message::Hello { node: 1 },
        Message::EpochChange {
            slot: 200,
            epoch: 9,
            replicas: vec![1],
            upto_seq: 0,
            dropped: None,
        },
        Message::ReplicaSubscribe {
            slot: 0,
            epoch: 0,
            log_epoch: 0,
            from_seq: 0,
        },
    ];
    for frame in &frames {
        sock.write_all(&encode_frame(frame)).expect("send");
    }
    let mut dec = FrameDecoder::new();
    let mut chunk = [0u8; 4096];
    for _ in &frames {
        let reply = loop {
            if let Some(m) = dec.next_frame().expect("a frame") {
                break m;
            }
            let n = sock.read(&mut chunk).expect("read");
            assert!(n > 0, "the server closed the connection");
            dec.extend(&chunk[..n]);
        };
        assert!(
            matches!(&reply, Message::Reply { error: Some(e), .. } if e.contains("unsupported")),
            "{reply:?}"
        );
    }
    // Still serving, and a write is acknowledged at once: no follower
    // was added for it to wait on.
    let mut client = TcpClient::connect(&addr).expect("connect");
    for slot_key in ["p|a|1", "p|b|1", "p|c|1", "p|d|1", "s|a|b", "s|c|d"] {
        client.put(slot_key, "v").expect("put");
    }
    assert_eq!(
        client.get("p|a|1").expect("get").as_deref(),
        Some(&b"v"[..])
    );
}

/// A data dir holding a user key that starts with `#` (written before
/// `#` keys were reserved) is refused rather than served.
#[test]
fn a_data_dir_with_a_user_hash_key_is_refused() {
    let dir = std::env::temp_dir().join(format!("pequod-standalone-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut engine = Engine::new_default();
        attach(&mut engine, &dir, PersistOptions::default()).expect("attach");
        engine.put("p|bob|1", "v");
        engine.put("#epoch|x", "a user key");
        engine.finalize_durability();
    }
    let status = Proc::new(env!("CARGO_BIN_EXE_pequod-server"))
        .args(["--listen", "127.0.0.1:0", "--data-dir"])
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run pequod-server");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(status.code(), Some(2));
}
