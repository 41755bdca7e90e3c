//! Crash-consistency, the headline test of the `pequod-persist`
//! subsystem: a real `pequod-server --data-dir` process is **SIGKILLed
//! mid-batch** while a TCP client streams writes at it, then restarted
//! on the same directory. The recovered node must answer a conformance
//! script **byte-identically** (count + content digest + full pairs)
//! to a never-crashed reference engine that executed exactly the
//! operations that survived in the log — torn tail records are
//! detected by checksum and dropped, everything before them is served.
//!
//! Runs the single engine with and without `--mem-limit-mb` (recovery
//! and eviction compose: a capped recovered node still answers like the
//! uncapped reference), then the replicated cluster. The byte-exhaustive torn-tail sweep lives in
//! `crates/persist/tests/crash_sim.rs`; this file proves the story
//! end-to-end through a real process, a real socket, and a real kill.

use pequod::cluster::{ClusterClient, ClusterConfig};
use pequod::core::Engine;
use pequod::persist::{recover, replay};
use pequod::prelude::*;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Proc, Stdio};
use std::time::Duration;

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "pequod-crash-recovery-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns `pequod-server` on an ephemeral port and waits for its
    /// "listening on" line.
    fn spawn(extra: &[&str]) -> Server {
        let mut args = vec!["--listen", "127.0.0.1:0"];
        args.extend_from_slice(extra);
        Server::spawn_raw(&args)
    }

    /// Spawns `pequod-server` with exactly these arguments and waits
    /// for its "listening on" line.
    fn spawn_raw(extra: &[&str]) -> Server {
        let mut child = Proc::new(env!("CARGO_BIN_EXE_pequod-server"))
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn pequod-server");
        let stderr = child.stderr.take().expect("stderr piped");
        let mut reader = BufReader::new(stderr);
        let addr = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read server stderr");
            assert!(n > 0, "server exited before listening");
            if let Some(at) = line.find("listening on ") {
                let addr: SocketAddr = line[at + "listening on ".len()..]
                    .trim()
                    .parse()
                    .expect("parse listen address");
                break addr;
            }
        };
        // Keep draining stderr so the child never blocks on the pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            loop {
                sink.clear();
                match reader.read_line(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        });
        Server { child, addr }
    }

    fn connect(&self) -> ClusterClient {
        for _ in 0..50 {
            if TcpStream::connect(self.addr).is_ok() {
                return ClusterClient::connect(ClusterConfig::one_node(self.addr));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("cannot connect to {}", self.addr);
    }

    /// SIGKILL — no shutdown handler runs, exactly like a crash.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

fn post_key(poster: u32, t: u64) -> String {
    format!("p|u{poster:03}|{t:010}")
}

/// Rebuilds the surviving history from the data directory into a
/// reference engine, through the *production* replay path
/// (`persist::replay`): snapshot joins + pairs, then the log tail, in
/// order. Returns it with the number of surviving operations.
fn reference_from(dir: &Path) -> (Engine, usize) {
    let mut reference = Engine::new_default();
    let rec = recover(dir).unwrap_or_else(|e| panic!("recover {}: {e}", dir.display()));
    replay(&mut reference, &rec).unwrap_or_else(|e| panic!("replay {}: {e}", dir.display()));
    (reference, rec.pairs.len() + rec.ops.len())
}

/// FNV-1a over a pair list: the content digest half of the
/// byte-identical check.
fn digest(pairs: &[(Key, Value)]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut fold = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h ^= 0xff;
        h = h.wrapping_mul(PRIME);
    };
    for (k, v) in pairs {
        fold(k.as_bytes());
        fold(v);
    }
    h
}

/// The conformance script, driven over TCP against the recovered node
/// and in-process against the reference: every table whole, per-user
/// timelines (computed — these rebuild lazily on the recovered node),
/// counts, and point reads.
fn conformance(client: &mut ClusterClient, reference: &mut Engine, label: &str) {
    for prefix in ["p|", "s|", "t|"] {
        let got = client.scan(KeyRange::prefix(prefix)).unwrap();
        let want = reference.scan(&KeyRange::prefix(prefix)).pairs;
        assert_eq!(
            got.len(),
            want.len(),
            "{label}: scan {prefix} returned a different count"
        );
        assert_eq!(
            digest(&got),
            digest(&want),
            "{label}: scan {prefix} content digest diverged"
        );
        assert_eq!(got, want, "{label}: scan {prefix} pairs diverged");
    }
    for u in 0..8u32 {
        let r = KeyRange::prefix(format!("t|u{u:03}|"));
        assert_eq!(
            client.count(r.clone()).unwrap(),
            reference.count(&r) as u64,
            "{label}: timeline count for u{u:03} diverged"
        );
    }
    let probe = Key::from(post_key(3, 1000));
    assert_eq!(
        client.get(probe.clone()).unwrap(),
        reference.get(&probe),
        "{label}: point read diverged"
    );
}

/// One full crash→recover→conform cycle.
fn crash_and_recover(label: &str, extra_args: &[&str]) {
    let tmp = TempDir::new(label);
    let data_dir = tmp.0.join("data");
    let data_dir_s = data_dir.to_str().unwrap().to_string();
    let mut args = vec!["--data-dir", data_dir_s.as_str(), "--fsync", "every:8"];
    args.extend_from_slice(extra_args);

    // Phase 1: a server accumulates an acknowledged base: the join,
    // a follower graph, and a first wave of posts.
    let mut server = Server::spawn(&args);
    {
        let mut c = server.connect();
        c.add_join(TIMELINE).unwrap();
        for u in 0..8u32 {
            for f in 1..4u32 {
                c.put(format!("s|u{u:03}|u{:03}", (u + f) % 8), "1")
                    .unwrap();
            }
        }
        for poster in 0..8u32 {
            for t in 0..6u64 {
                c.put(post_key(poster, 1000 + t * 7), "warm").unwrap();
            }
        }
        // Read a few timelines so computed ranges exist at crash time —
        // they must be re-derived after recovery, never trusted.
        for u in 0..4u32 {
            let _ = c.count(KeyRange::prefix(format!("t|u{u:03}|"))).unwrap();
        }
    }

    // Phase 2: the kill race. A writer streams a batch of posts and
    // removes; a second thread SIGKILLs the server mid-stream.
    let addr = server.addr;
    let writer = std::thread::spawn(move || {
        if TcpStream::connect(addr).is_err() {
            return 0u32;
        }
        let mut c = ClusterClient::connect(ClusterConfig::one_node(addr));
        let mut acked = 0u32;
        for i in 0..200_000u64 {
            let poster = (i % 8) as u32;
            let r = if i % 11 == 10 {
                c.remove(post_key(poster, 1000 + (i % 6) * 7))
            } else {
                c.put(post_key(poster, 2000 + i), format!("live-{i}"))
            };
            match r {
                Ok(()) => acked += 1,
                Err(_) => break, // the server died mid-batch
            }
        }
        acked
    });
    std::thread::sleep(Duration::from_millis(120));
    server.kill();
    let acked = writer.join().unwrap();

    // Phase 3: the reference is what the log says survived. Everything
    // the client saw acknowledged must be there (fsync every:8 only
    // matters for power loss; a SIGKILL keeps OS-buffered writes).
    let (mut reference, surviving) = reference_from(&data_dir);
    // Everything phase 1 acknowledged must be in the log: 24 follow
    // edges + 48 posts (the join is counted separately).
    assert!(
        surviving >= 72,
        "{label}: only {surviving} ops survived — the acknowledged phase-1 base is missing"
    );
    assert!(
        acked < 200_000,
        "{label}: the writer finished before the kill; no mid-batch crash happened"
    );

    // Phase 4: restart on the same directory; the recovered node must
    // answer the conformance script byte-identically to the reference.
    let server = Server::spawn(&args);
    let mut c = server.connect();
    conformance(&mut c, &mut reference, label);

    // And it keeps serving: post-recovery writes land on the rebuilt
    // state exactly as they would on the reference.
    c.put(post_key(1, 9000), "after-recovery").unwrap();
    reference.put(post_key(1, 9000), "after-recovery");
    conformance(&mut c, &mut reference, &format!("{label}+write"));
}

#[test]
fn single_engine_recovers_byte_identically_after_midbatch_kill() {
    crash_and_recover("single", &[]);
}

#[test]
fn single_engine_with_mem_limit_recovers_byte_identically() {
    crash_and_recover("single-capped", &["--mem-limit-mb", "1"]);
}

// ---------------------------------------------------------------------------
// Replicated cluster: kill a node, lose nothing.
// ---------------------------------------------------------------------------

use pequod::telemetry::metric;
use std::collections::HashMap;

/// Reserves `n` distinct ephemeral ports by binding and dropping
/// listeners.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<_> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

/// Spawns one cluster member process.
fn spawn_cluster_node(cluster_file: &str, id: u32, data_dir: &str) -> Server {
    Server::spawn_raw(&[
        "--cluster",
        cluster_file,
        "--node-id",
        &id.to_string(),
        "--data-dir",
        data_dir,
        "--fsync",
        "every:8",
    ])
}

/// Sends SIGTERM (the graceful path — the process drains, finalizes
/// durability, and exits 0) and waits for the exit status.
fn sigterm_and_wait(server: &mut Server) -> std::process::ExitStatus {
    let pid = server.child.id().to_string();
    let ok = Proc::new("kill")
        .args(["-TERM", &pid])
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    assert!(ok, "kill -TERM {pid} failed");
    server.child.wait().expect("wait for SIGTERMed server")
}

/// A replicated three-node cluster (RF=2) over real TCP and real
/// processes: SIGKILL the primary mid-batch, prove no acknowledged
/// write is lost; warm-restart it and prove catch-up is a window
/// replay, not a full snapshot re-fetch; roll a node with SIGTERM;
/// finally stop everything gracefully and prove each slot's replicas
/// are byte-identical on disk (count + FNV digest).
#[test]
fn cluster_kill_primary_loses_no_acked_write_and_catches_up_by_delta() {
    let tmp = TempDir::new("cluster");
    let ports = free_ports(3);
    let mut toml = String::from("replication = 2\nslots = 8\n");
    for (id, port) in ports.iter().enumerate() {
        toml.push_str(&format!(
            "[[node]]\nid = {id}\naddr = \"127.0.0.1:{port}\"\n"
        ));
    }
    let cluster_file = tmp.0.join("nodes.toml");
    std::fs::write(&cluster_file, &toml).unwrap();
    let cluster_file_s = cluster_file.to_str().unwrap().to_string();
    let data_dirs: Vec<String> = (0..3)
        .map(|i| tmp.0.join(format!("n{i}")).to_str().unwrap().to_string())
        .collect();
    let cfg = ClusterConfig::parse(&toml).expect("cluster file parses");

    let mut servers: Vec<Option<Server>> = (0..3u32)
        .map(|id| {
            Some(spawn_cluster_node(
                &cluster_file_s,
                id,
                &data_dirs[id as usize],
            ))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));

    let mut client = ClusterClient::connect(cfg.clone());
    let mut acked: HashMap<String, String> = HashMap::new();
    let put_row = |client: &mut ClusterClient, acked: &mut HashMap<String, String>, i: u64| {
        let key = format!("p|u{:03}|{:010}", i % 12, 1000 + i);
        let value = format!("row-{i}");
        client
            .put(key.clone(), value.clone())
            .expect("replicated put");
        acked.insert(key, value);
    };

    // Phase 1: a pre-crash base, fully acknowledged.
    for i in 0..300 {
        put_row(&mut client, &mut acked, i);
    }

    // Phase 2: SIGKILL node 0 — primary of several slots — then keep
    // the batch going. The client's bounded retry + NotPrimary
    // learning rides out the failover; every put that returns Ok is a
    // write the cluster must never lose.
    if let Some(mut s) = servers[0].take() {
        s.kill();
    }
    for i in 300..600 {
        put_row(&mut client, &mut acked, i);
    }

    // No acked write lost: every row is readable from the survivors.
    for (key, want) in &acked {
        let got = client.get(key.clone()).expect("get after failover");
        assert_eq!(
            got.as_deref(),
            Some(want.as_bytes()),
            "acked write {key} lost when its primary was killed"
        );
    }
    // Scatter-gathered count sees each row exactly once.
    assert_eq!(
        client.count(KeyRange::prefix("p|")).expect("count"),
        acked.len() as u64
    );

    // Phase 3: warm restart of the killed node on its own data dir.
    // Its WAL holds everything up to the crash, so catch-up needs only
    // the writes it missed — a window delta, never a snapshot.
    servers[0] = Some(spawn_cluster_node(&cluster_file_s, 0, &data_dirs[0]));
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let caught_up = loop {
        std::thread::sleep(Duration::from_millis(300));
        let st = client.metrics(0, false).unwrap_or_default();
        let counted = |name| metric(&st, name).is_some_and(|n| n > 0);
        if counted("pequod_cluster_readmissions_total")
            || counted("pequod_cluster_notifies_applied_total")
        {
            // Readmitted somewhere; give replication a beat to drain.
            std::thread::sleep(Duration::from_millis(800));
            break client.metrics(0, false).expect("metrics after catch-up");
        }
        assert!(
            std::time::Instant::now() < deadline,
            "restarted node never rejoined the cluster"
        );
    };
    assert_eq!(
        metric(&caught_up, "pequod_cluster_snap_chunks_in_total"),
        Some(0),
        "warm restart should catch up by delta, not re-fetch snapshots"
    );
    assert!(
        metric(&caught_up, "pequod_cluster_notifies_applied_total").is_some_and(|n| n > 0),
        "the missed writes should arrive as replicated notifies"
    );

    // Phase 4: rolling restart — SIGTERM node 1 (graceful: drain,
    // final snapshot, fsync, exit 0), bring it back, keep serving.
    let status = sigterm_and_wait(servers[1].as_mut().expect("node 1 alive"));
    assert!(status.success(), "SIGTERM exit was not graceful: {status}");
    servers[1] = Some(spawn_cluster_node(&cluster_file_s, 1, &data_dirs[1]));
    std::thread::sleep(Duration::from_millis(500));
    for i in 600..650 {
        put_row(&mut client, &mut acked, i);
    }
    for (key, want) in &acked {
        let got = client.get(key.clone()).expect("get after rolling restart");
        assert_eq!(got.as_deref(), Some(want.as_bytes()));
    }

    // Let replication quiesce, then stop every node gracefully.
    std::thread::sleep(Duration::from_millis(1_500));
    for server in servers.iter_mut().flatten() {
        let status = sigterm_and_wait(server);
        assert!(status.success(), "graceful stop failed: {status}");
    }

    // Phase 5: offline byte-identical audit. Recover each node's
    // durable state through the production replay path, take the
    // highest-epoch membership view per slot, and compare each slot's
    // replicas by row count and FNV digest.
    let mut engines: Vec<Engine> = (data_dirs.iter())
        .map(|d| reference_from(Path::new(d)).0)
        .collect();
    let mut audited_slots = 0;
    let mut total_rows = 0;
    for slot in 0..cfg.slots {
        // The authoritative membership is whichever node persisted the
        // highest epoch for this slot.
        let mut best: Option<(u64, Vec<u32>)> = None;
        for e in &mut engines {
            let Some(v) = e.get(&Key::from(format!("#epoch|{slot:02}"))) else {
                continue;
            };
            let text = std::str::from_utf8(&v).expect("meta is ascii").to_string();
            let mut tokens = text.split_whitespace();
            let epoch: u64 = tokens.next().unwrap().parse().unwrap();
            let replicas: Vec<u32> = tokens
                .next()
                .unwrap_or("")
                .split(',')
                .filter_map(|t| t.parse().ok())
                .collect();
            if best.as_ref().is_none_or(|(e0, _)| epoch > *e0) {
                best = Some((epoch, replicas));
            }
        }
        // Slots that never saw an epoch change (no member died or
        // moved) persist nothing and still run the boot-time set.
        let (_, members) = best.unwrap_or((0, cfg.initial_replicas(slot)));
        let slot_rows = |e: &mut Engine| -> Vec<(Key, Value)> {
            e.scan(&KeyRange::prefix("p|"))
                .pairs
                .into_iter()
                .filter(|(k, _)| cfg.slot_of(k) == slot)
                .collect()
        };
        let reference = slot_rows(&mut engines[members[0] as usize]);
        total_rows += reference.len();
        for &m in &members[1..] {
            let pairs = slot_rows(&mut engines[m as usize]);
            assert_eq!(
                pairs.len(),
                reference.len(),
                "slot {slot}: replica row counts differ"
            );
            assert_eq!(
                digest(&pairs),
                digest(&reference),
                "slot {slot}: replicas {members:?} not byte-identical on disk"
            );
        }
        audited_slots += 1;
        // And the durable rows are exactly the acknowledged writes.
        for (k, v) in &reference {
            let key = std::str::from_utf8(k.as_bytes()).unwrap();
            assert_eq!(
                acked.get(key).map(|s| s.as_bytes()),
                Some(&v[..]),
                "slot {slot}: durable row {key} does not match its acked value"
            );
        }
    }
    assert_eq!(audited_slots, cfg.slots);
    assert_eq!(
        total_rows,
        acked.len(),
        "every acked write is durable exactly once"
    );
}

/// `--unix-socket` is the same serving edge in every mode: a
/// `--cluster` member answers the client protocol on it too.
#[test]
fn cluster_node_answers_on_its_unix_socket() {
    use pequod::net::codec::{encode_frame, FrameDecoder};
    use pequod::net::Message;
    use std::io::{Read, Write};

    let tmp = TempDir::new("cluster-unix");
    let port = free_ports(1)[0];
    let cluster_file = tmp.0.join("nodes.toml");
    std::fs::write(
        &cluster_file,
        format!("replication = 1\nslots = 4\n[[node]]\nid = 0\naddr = \"127.0.0.1:{port}\"\n"),
    )
    .unwrap();
    let sock_path = tmp.0.join("node.sock");
    let _server = Server::spawn_raw(&[
        "--cluster",
        cluster_file.to_str().unwrap(),
        "--node-id",
        "0",
        "--unix-socket",
        sock_path.to_str().unwrap(),
    ]);
    let mut sock = std::os::unix::net::UnixStream::connect(&sock_path)
        .expect("a --cluster node serves --unix-socket");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let key = Key::from("p|ann|0000000001");
    for msg in [
        Message::Put {
            id: 1,
            key: key.clone(),
            value: Value::from_static(b"over the unix socket"),
        },
        Message::Get {
            id: 2,
            key: key.clone(),
        },
    ] {
        sock.write_all(&encode_frame(&msg)).unwrap();
    }
    let mut decoder = FrameDecoder::new();
    let mut replies = Vec::new();
    let mut chunk = [0u8; 4096];
    while replies.len() < 2 {
        while let Some(reply) = decoder.next_frame().unwrap() {
            replies.push(reply);
        }
        if replies.len() < 2 {
            let n = sock.read(&mut chunk).expect("reply before the timeout");
            assert!(n > 0, "node closed the unix connection");
            decoder.extend(&chunk[..n]);
        }
    }
    assert_eq!(replies[0], Message::reply(1, vec![]));
    assert_eq!(
        replies[1],
        Message::reply(2, vec![(key, Value::from_static(b"over the unix socket"))])
    );
}
