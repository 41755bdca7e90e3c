//! Stress and robustness suite for the event-driven frontend, hosting
//! the one server there is — a one-node cluster, as a stand-alone
//! `pequod-server` runs: thousands
//! of concurrent pipelined connections, mid-frame disconnects, slow
//! readers driving backpressure, half-closes racing the read pass,
//! frames larger than the read buffer, garbage and oversized frames,
//! idle and
//! stall timeouts, deterministic shutdown, and what executing frames on
//! the reactor thread must not cost: a connection stuck behind its
//! write cap starving the others.
//!
//! Everything here is deterministic: request streams derive from
//! (connection, sequence) counters, and assertions about timeouts poll
//! server counters under a deadline instead of sleeping fixed amounts.

use pequod_cluster::{ClusterClient, ClusterConfig, ClusterServer};
use pequod_core::{Engine, EngineConfig};
use pequod_net::codec::{encode_frame, FrameDecoder};
use pequod_net::{FrontendConfig, Message, Swarm, SwarmConfig};
use pequod_store::{Key, KeyRange, Value};
use pequod_telemetry::metric;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn k(s: &str) -> Key {
    Key::from(s)
}

fn v(bytes: Vec<u8>) -> Value {
    Value::from(bytes)
}

/// `engine` as the node of a one-node cluster on an ephemeral port.
fn serve(engine: Engine, cfg: FrontendConfig) -> ClusterServer {
    let addr = Some("127.0.0.1:0");
    ClusterServer::spawn_with(ClusterConfig::new(1, 1), 0, engine, addr, cfg).unwrap()
}

fn single_server(cfg: FrontendConfig) -> ClusterServer {
    serve(Engine::new(EngineConfig::default()), cfg)
}

/// A client of the one-node server at `addr`.
fn connect(addr: std::net::SocketAddr) -> ClusterClient {
    ClusterClient::connect(ClusterConfig::one_node(addr))
}

/// Polls `cond` until it holds or `secs` elapse.
fn wait_for(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// `server`'s serving counter `name`, from the telemetry snapshot a
/// wire `Metrics` request gets.
fn counter(server: &ClusterServer, name: &str) -> u64 {
    let pairs = (server.telemetry())(false).to_pairs();
    metric(&pairs, name).unwrap_or_else(|| panic!("the snapshot lacks {name}"))
}

/// Reads error-free replies with ids `1..=count`, in that order; a
/// close or a read timeout before the last one fails the test.
fn expect_replies_in_order(sock: &mut TcpStream, count: u64) {
    let mut dec = FrameDecoder::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut next_id = 1u64;
    while next_id <= count {
        match dec.next_frame().unwrap() {
            Some(Message::Reply { id, error, .. }) => {
                assert!(error.is_none(), "reply {id}: {error:?}");
                assert_eq!(id, next_id, "replies reordered");
                next_id += 1;
            }
            Some(other) => panic!("unexpected frame {other:?}"),
            None => {
                let n = sock.read(&mut chunk).expect("replies stalled");
                assert!(n > 0, "server closed before reply {next_id} of {count}");
                dec.extend(&chunk[..n]);
            }
        }
    }
}

/// The acceptance-criteria test: 5000 concurrent connections, each
/// pipelining put+get batches, with zero dropped or reordered replies.
#[test]
fn five_thousand_pipelined_connections() {
    let mut server = single_server(FrontendConfig::default());
    let addr = server.addr();
    const CONNS: usize = 5000;
    const FRAMES: usize = 4;
    let swarm = Swarm::new(SwarmConfig {
        conns: CONNS,
        depth: 8,
        frames_per_conn: FRAMES,
        wait_ms: 1_000,
        max_stalls: 60,
    });
    // Frame s on connection c: Batch[ Put(id 2s+1), Get(id 2s+2) ] of a
    // per-(c, s) key — the get must see the put (same frame, in order).
    let next_expected: Vec<AtomicU64> = (0..CONNS).map(|_| AtomicU64::new(1)).collect();
    let expect = Arc::new(next_expected);
    let expect_cb = expect.clone();
    let report = swarm
        .run(
            addr,
            |c, s| {
                let key = format!("p|u{c}|{s:010}");
                Message::Batch {
                    msgs: vec![
                        Message::Put {
                            id: (2 * s + 1) as u64,
                            key: k(&key),
                            value: v(vec![b'x'; 32]),
                        },
                        Message::Get {
                            id: (2 * s + 2) as u64,
                            key: k(&key),
                        },
                    ],
                }
            },
            |c, msg| {
                let Message::Reply { id, pairs, error } = msg else {
                    panic!("non-reply frame on connection {c}: {msg:?}");
                };
                assert!(error.is_none(), "conn {c} id {id}: server error {error:?}");
                let want = expect_cb[c].fetch_add(1, Ordering::Relaxed);
                assert_eq!(*id, want, "conn {c}: replies reordered");
                if id % 2 == 0 {
                    assert_eq!(pairs.len(), 1, "conn {c} id {id}: get missed its put");
                }
            },
        )
        .unwrap();
    assert_eq!(report.frames_sent, (CONNS * FRAMES) as u64);
    assert_eq!(
        report.replies,
        (CONNS * FRAMES * 2) as u64,
        "dropped replies"
    );
    assert_eq!(report.reply_errors, 0);
    assert!(counter(&server, "pequod_conns_accepted_total") >= CONNS as u64);
    server.halt();
}

/// Sockets dropped mid-frame must not wedge the reactor or leak
/// connection slots.
#[test]
fn mid_frame_disconnects_leave_server_serving() {
    let mut server = single_server(FrontendConfig::default());
    let addr = server.addr();
    let frame = encode_frame(&Message::Put {
        id: 1,
        key: k("p|x|0000000001"),
        value: v(vec![b'y'; 1000]),
    });
    for i in 0..100 {
        let mut sock = TcpStream::connect(addr).unwrap();
        // A strict prefix of a frame, cut at a different point each
        // time (including inside the length header).
        let cut = 1 + (i * 7) % (frame.len() - 1);
        sock.write_all(&frame[..cut]).unwrap();
        drop(sock);
    }
    // The server must still answer normally...
    let mut client = connect(addr);
    client.put("p|ok|0000000001", "fine").unwrap();
    assert_eq!(
        client.get("p|ok|0000000001").unwrap(),
        Some(Value::from(b"fine".to_vec()))
    );
    drop(client);
    // ...and reclaim every slot.
    assert!(
        wait_for(10, || counter(&server, "pequod_conns_active") == 0),
        "connection slots leaked: {} still active",
        counter(&server, "pequod_conns_active")
    );
    assert!(counter(&server, "pequod_conns_accepted_total") >= 101);
    server.halt();
}

/// A peer that writes its requests and half-closes at once still gets
/// every reply and then a clean close. The server's read pass ends on
/// the short read that carried the frames, before it has seen the EOF
/// behind them; the EOF must still be noticed on the next readiness
/// report, or the connection would sit open forever.
#[test]
fn half_close_right_after_a_frame_still_gets_replies_and_a_clean_close() {
    let mut server = single_server(FrontendConfig::default());
    for frames in [1u64, 8] {
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut burst = Vec::new();
        for id in 1..=frames {
            burst.extend_from_slice(&encode_frame(&Message::Put {
                id,
                key: k(&format!("p|half|{id:010}")),
                value: v(b"closed".to_vec()),
            }));
        }
        sock.write_all(&burst).unwrap();
        sock.shutdown(std::net::Shutdown::Write).unwrap();
        expect_replies_in_order(&mut sock, frames);
        let mut rest = [0u8; 64];
        assert_eq!(
            sock.read(&mut rest).expect("no close after the replies"),
            0,
            "bytes after the last reply"
        );
    }
    assert!(
        wait_for(10, || counter(&server, "pequod_conns_active") == 0),
        "half-closed connections left open"
    );
    server.halt();
}

/// One request frame several times the size of the reactor's read
/// buffer arrives whole: full reads keep the read pass going, the short
/// one that ends it loses nothing.
#[test]
fn a_frame_larger_than_the_read_buffer_arrives_whole() {
    let mut server = single_server(FrontendConfig::default());
    let big: Vec<u8> = (0..200 * 1024u32).map(|i| (i % 251) as u8).collect();
    let mut client = connect(server.addr());
    client.put("p|big|0000000001", big.clone()).unwrap();
    assert_eq!(
        client.get("p|big|0000000001").unwrap(),
        Some(Value::from(big))
    );
    assert_eq!(counter(&server, "pequod_frames_in_total"), 2);
    server.halt();
}

/// A reader that stops draining its socket must pause the connection
/// (bounded write buffer), not balloon server memory — and the replies
/// must all still arrive, in order, once it resumes.
#[test]
fn slow_reader_triggers_backpressure_and_loses_nothing() {
    let mut server = single_server(FrontendConfig {
        max_write_buffer: 2048,
        stall_timeout_ms: None, // the slow reader must NOT be killed here
        ..FrontendConfig::default()
    });
    let addr = server.addr();
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_nodelay(true).unwrap();
    // One 256 KiB value, then 48 pipelined gets of it: ~12 MiB of
    // replies, far past what the kernel's socket buffers can absorb
    // (sndbuf autotunes to at most 4 MiB here), so the server's own
    // bounded write queue must engage.
    sock.write_all(&encode_frame(&Message::Put {
        id: 1,
        key: k("p|big|0000000001"),
        value: v(vec![b'z'; 256 * 1024]),
    }))
    .unwrap();
    for i in 0..48u64 {
        sock.write_all(&encode_frame(&Message::Get {
            id: 2 + i,
            key: k("p|big|0000000001"),
        }))
        .unwrap();
    }
    // Don't read: the server must hit the cap and pause this socket.
    assert!(
        wait_for(10, || counter(&server, "pequod_backpressure_pauses_total")
            > 0),
        "no backpressure pause recorded"
    );
    // Resume reading: every reply arrives, in order.
    expect_replies_in_order(&mut sock, 49);
    server.halt();
}

/// Reads one frame (blocking) then expects EOF/reset.
fn read_error_frame_then_eof(sock: &mut TcpStream) -> Message {
    let mut dec = FrameDecoder::new();
    let mut chunk = [0u8; 4096];
    let msg = loop {
        if let Some(m) = dec.next_frame().unwrap() {
            break m;
        }
        let n = sock.read(&mut chunk).unwrap();
        assert!(n > 0, "closed before the error frame");
        dec.extend(&chunk[..n]);
    };
    // After the error frame the server closes; a reset instead of a
    // clean EOF is acceptable (unread bytes may remain on our side).
    loop {
        match sock.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
    msg
}

/// Garbage and oversized frames get one protocol-level error frame and
/// a close — never a panic, never a stuck server.
#[test]
fn garbage_frames_get_error_frame_then_close() {
    let mut server = single_server(FrontendConfig::default());
    let addr = server.addr();
    // Bad tag: well-formed length, nonsense body.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&[3, 0, 0, 0, 0xEE, 0xFF, 0x01]).unwrap();
        let msg = read_error_frame_then_eof(&mut sock);
        let Message::Reply { id, error, .. } = msg else {
            panic!("expected an error reply, got {msg:?}");
        };
        assert_eq!(id, 0);
        assert!(
            error.as_deref().unwrap_or("").starts_with("codec:"),
            "unexpected error text {error:?}"
        );
    }
    // Oversized declared length: rejected from the header alone.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
        let msg = read_error_frame_then_eof(&mut sock);
        let Message::Reply { error, .. } = msg else {
            panic!("expected an error reply, got {msg:?}");
        };
        assert!(error.as_deref().unwrap_or("").starts_with("codec:"));
    }
    assert!(wait_for(5, || counter(
        &server,
        "pequod_codec_errors_total"
    ) >= 2));
    // The server still serves clean connections.
    let mut client = connect(addr);
    client.put("p|ok|0000000001", "fine").unwrap();
    server.halt();
}

/// Idle connections are reaped once the idle timeout is configured.
#[test]
fn idle_timeout_closes_quiet_connections() {
    let mut server = single_server(FrontendConfig {
        tick_ms: 5,
        idle_timeout_ms: Some(25),
        stall_timeout_ms: None,
        ..FrontendConfig::default()
    });
    let mut client = connect(server.addr());
    client.put("p|idle|0000000001", "hello").unwrap();
    // Stop talking; the server must close us.
    assert!(
        wait_for(10, || counter(&server, "pequod_conns_idle_closed_total")
            >= 1),
        "idle connection never reaped"
    );
    assert!(wait_for(10, || counter(&server, "pequod_conns_active") == 0));
    server.halt();
}

/// A stopped reader with queued replies is a stalled client: reaped by
/// the stall timeout so it cannot hold buffer memory forever.
#[test]
fn stall_timeout_closes_stuck_readers() {
    let mut server = single_server(FrontendConfig {
        tick_ms: 5,
        max_write_buffer: 1024,
        stall_timeout_ms: Some(50),
        ..FrontendConfig::default()
    });
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.write_all(&encode_frame(&Message::Put {
        id: 1,
        key: k("p|big|0000000001"),
        value: v(vec![b'q'; 256 * 1024]),
    }))
    .unwrap();
    for i in 0..48u64 {
        sock.write_all(&encode_frame(&Message::Get {
            id: 2 + i,
            key: k("p|big|0000000001"),
        }))
        .unwrap();
    }
    // Never read.
    assert!(
        wait_for(10, || counter(&server, "pequod_conns_stall_closed_total")
            >= 1),
        "stalled connection never reaped"
    );
    assert!(wait_for(10, || counter(&server, "pequod_conns_active") == 0));
    server.halt();
}

/// A burst far deeper than `max_pipeline`, delivered in one write, is
/// served to the end: the frames buffered past one turn's worth must
/// not wait for a socket event that will never come.
#[test]
fn burst_deeper_than_the_pipeline_cap_is_fully_served() {
    let mut server = single_server(FrontendConfig {
        max_pipeline: 4,
        ..FrontendConfig::default()
    });
    const FRAMES: u64 = 300;
    let mut burst = Vec::new();
    for id in 1..=FRAMES {
        burst.extend_from_slice(&encode_frame(&Message::Put {
            id,
            key: k(&format!("p|burst|{id:010}")),
            value: v(b"x".to_vec()),
        }));
    }
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock.write_all(&burst).unwrap();
    expect_replies_in_order(&mut sock, FRAMES);
    server.halt();
}

/// The `/proc` entries of this process's threads that carry `name`.
fn tasks_named(name: &str) -> Vec<PathBuf> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| {
            let task = task.ok()?.path();
            let comm = std::fs::read_to_string(task.join("comm")).ok()?;
            (comm.trim_end() == name).then_some(task)
        })
        .collect()
}

/// How many threads of this process carry `name`.
fn threads_named(name: &str) -> usize {
    tasks_named(name).len()
}

/// Waits until the threads behind `tasks`, which their owner has
/// joined, have left `/proc/self/task`. A joined thread can still be
/// listed for a moment: `join` returns when the kernel clears the
/// exiting thread's id, before it removes the thread's task entry. A
/// thread nobody joined stays listed and fails the wait with `what`.
fn wait_reaped(tasks: &[PathBuf], what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while tasks.iter().any(|task| task.exists()) {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs `f` on a new thread named `name`, joins it, and returns `f`'s
/// result once that thread has left `/proc/self/task`, so that a count
/// by `name` sees only the threads `f` started.
fn spawn_named<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (task, out) = std::thread::Builder::new()
        .name(name.into())
        .spawn(|| (std::fs::read_link("/proc/thread-self").unwrap(), f()))
        .unwrap()
        .join()
        .unwrap();
    // The link reads `<pid>/task/<tid>`.
    wait_reaped(&[Path::new("/proc").join(task)], "the spawner never exited");
    out
}

/// Frames execute on the reactor thread, with no worker pool behind it.
/// That must not let one connection hold the thread: with A stuck
/// behind its write cap (a deep pipeline of large scans, never read),
/// B's requests and a wire `Metrics` are still answered, and
/// `halt()` returns without serving A's backlog.
#[test]
fn paused_connection_starves_nobody_and_shutdown_abandons_it() {
    // The server's threads are unnamed, and Linux copies a thread's
    // name to the threads it creates: spawning from a thread of a known
    // name makes the server's own threads countable, whatever other
    // tests are running.
    const SPAWNER: &str = "census-spawner";
    let mut server = spawn_named(SPAWNER, || {
        single_server(FrontendConfig {
            max_write_buffer: 2048,
            stall_timeout_ms: None,
            ..FrontendConfig::default()
        })
    });
    assert_eq!(
        threads_named(SPAWNER),
        2,
        "a one-node server runs the reactor and the ticker, nothing else"
    );
    let addr = server.addr();
    let mut b = connect(addr);
    for i in 0..64 {
        b.put(format!("p|big|{i:010}"), vec![b'z'; 4096]).unwrap();
    }
    // A: 96 pipelined scans of 256 KiB each, far more than the socket
    // buffers hold, and not one byte read.
    const SCANS: u64 = 96;
    let mut a = TcpStream::connect(addr).unwrap();
    for id in 1..=SCANS {
        a.write_all(&encode_frame(&Message::Scan {
            id,
            range: KeyRange::prefix("p|big|"),
        }))
        .unwrap();
    }
    assert!(
        wait_for(10, || counter(&server, "pequod_backpressure_pauses_total")
            > 0),
        "connection A never hit its write cap"
    );
    assert_eq!(
        b.get("p|big|0000000001").unwrap().map(|v| v.len()),
        Some(4096),
        "connection B starved behind A"
    );
    let metrics = b.metrics(0, false).unwrap();
    assert!(
        metrics
            .iter()
            .any(|(k, v)| k == "pequod_backpressure_pauses_total" && v != "0"),
        "wire Metrics not answered with the live counters: {metrics:?}"
    );
    let server_threads = tasks_named(SPAWNER);
    server.halt();
    wait_reaped(&server_threads, "a server thread outlived shutdown");
    assert_eq!(
        threads_named(SPAWNER),
        0,
        "a server thread outlived shutdown"
    );
    // A receives what had already reached the kernel, then the close.
    a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut dec = FrameDecoder::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut answered = 0u64;
    loop {
        while let Some(reply) = dec.next_frame().unwrap() {
            answered += 1;
            assert_eq!(reply.id(), Some(answered), "replies reordered");
        }
        match a.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => dec.extend(&chunk[..n]),
        }
    }
    assert!(
        answered < SCANS,
        "shutdown served A's whole backlog ({answered} replies)"
    );
}

/// A live server says what it holds and what that costs: the engine's
/// memory estimate and the counts it is made of, as of the last
/// operation, beside the process's resident set.
#[test]
fn metrics_carry_the_engines_levels_and_the_resident_set() {
    let mut engine = Engine::new(EngineConfig::default());
    engine.set_recorder(pequod_telemetry::Recorder::enabled());
    let mut server = serve(engine, FrontendConfig::default());
    let mut client = connect(server.addr());
    client
        .add_join("t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>")
        .unwrap();
    client.put("s|ann|bob", "1").unwrap();
    client.put("p|bob|0000000100", "hi").unwrap();
    assert_eq!(client.scan(KeyRange::prefix("t|ann|")).unwrap().len(), 1);
    let metrics = client.metrics(0, false).unwrap();
    let level = |name: &str| -> u64 {
        let found = metrics.iter().find(|(k, _)| k == name);
        let (_, v) = found.unwrap_or_else(|| panic!("no {name} in {metrics:?}"));
        v.parse().unwrap()
    };
    assert_eq!(level("store.keys"), 3);
    assert_eq!(level("core.status.ranges"), 1);
    assert_eq!(level("core.updater.entries"), 2);
    assert_eq!(level("core.updater.nodes"), 2);
    assert!(level("core.memory.estimate_bytes") > 3 * 64);
    if std::path::Path::new("/proc/self/status").exists() {
        assert!(level("process.rss_bytes") > level("core.memory.estimate_bytes"));
    }
    server.halt();
}

/// `halt()` contract: once it returns, the server answers nothing,
/// new connections included.
#[test]
fn reactor_shutdown_severs_live_connections() {
    let mut server = single_server(FrontendConfig::default());
    let addr = server.addr();
    let mut client = connect(addr);
    client.put("p|pre|0000000001", "x").unwrap();
    server.halt();
    let mut sock = TcpStream::connect(addr);
    // New connections are refused entirely...
    assert!(
        sock.is_err() || {
            let s = sock.as_mut().unwrap();
            s.write_all(&encode_frame(&Message::Get {
                id: 9,
                key: k("p|pre|0000000001"),
            }))
            .ok();
            let mut buf = [0u8; 64];
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        },
        "server answered after shutdown"
    );
}

/// Scans big enough to span many reply frames survive the pipeline
/// (bounded write queue slices them out without reordering).
#[test]
fn large_scans_flow_through_bounded_buffers() {
    let mut server = single_server(FrontendConfig {
        max_write_buffer: 4096,
        ..FrontendConfig::default()
    });
    let mut client = connect(server.addr());
    for i in 0..200 {
        client.put(format!("p|u|{i:010}"), vec![b'v'; 512]).unwrap();
    }
    let pairs = client.scan(KeyRange::prefix("p|u|")).unwrap();
    assert_eq!(pairs.len(), 200);
    assert!(pairs.iter().all(|(_, val)| val.len() == 512));
    server.halt();
}
