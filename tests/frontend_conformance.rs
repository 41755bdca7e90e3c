//! Protocol-surface conformance: the same wire script, sent pipelined,
//! must produce the reply stream of an in-process reference — an
//! [`Engine`] driven by the same script, its answers framed here with
//! `Message::reply` / `count_reply` / `error` — over every serving
//! surface: the event-driven front-end on TCP and on its unix-domain
//! socket, for both the single engine and a one-node cluster
//! (`pequod-server --cluster` at replication 1). A second
//! set of scenarios checks that a `Batch` frame (nested ones included)
//! answers exactly like the same requests sent one frame at a time, and
//! a last one reads the reply stream one byte at a time through a tiny
//! receive buffer, so the server's one write per turn is cut short at
//! every offset the stream has.
//!
//! Replies are compared by count plus an FNV-1a digest of their
//! re-encoded frames (the codec is canonical, so this is the wire-byte
//! stream).

use pequod::cluster::{ClusterConfig, ClusterServer};
use pequod::core::{Engine, EngineConfig};
use pequod::net::codec::{encode_frame, FrameDecoder};
use pequod::net::{FrontendConfig, FrontendServer, Message};
use pequod::prelude::*;
use pequod::telemetry::metric;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

fn k(s: &str) -> Key {
    Key::from(s)
}

fn v(s: &str) -> Value {
    Value::from(s.as_bytes().to_vec())
}

/// Replies to [`base_script`] — count and digest — as the thread-per-
/// connection server answered it at the commit that deleted it. The
/// reference must still produce exactly this.
const BASE_SCRIPT_REPLIES: (usize, u64) = (17, 0xcccb_247b_0d87_0b37);

/// The conformance script: [`base_script`] plus a frame of batches
/// nested inside a batch, which every backend flattens in wire order.
fn script() -> Vec<Message> {
    let mut frames = base_script();
    frames.push(Message::Batch {
        msgs: vec![
            Message::Put {
                id: 17,
                key: k("p|bob|0000000300"),
                value: v("nested"),
            },
            Message::Batch {
                msgs: vec![
                    Message::Scan {
                        id: 18,
                        range: KeyRange::prefix("t|ann|"),
                    },
                    Message::Batch {
                        msgs: vec![Message::Remove {
                            id: 19,
                            key: k("p|bob|0000000300"),
                        }],
                    },
                    Message::Hello { node: 4 },
                ],
            },
            Message::Count {
                id: 20,
                range: KeyRange::prefix("t|ann|"),
            },
        ],
    });
    frames
}

/// Joins, writes, computed reads, counts, removals, batches that mix
/// writes and reads, and one unsupported (server-to-server) message.
fn base_script() -> Vec<Message> {
    vec![
        Message::AddJoin {
            id: 1,
            text: TIMELINE.to_string(),
        },
        Message::Put {
            id: 2,
            key: k("s|ann|bob"),
            value: v("1"),
        },
        Message::Batch {
            msgs: vec![
                Message::Put {
                    id: 3,
                    key: k("p|bob|0000000100"),
                    value: v("Hi"),
                },
                Message::Put {
                    id: 4,
                    key: k("p|bob|0000000120"),
                    value: v("again"),
                },
                Message::Put {
                    id: 5,
                    key: k("s|ann|cat"),
                    value: v("1"),
                },
            ],
        },
        Message::Scan {
            id: 6,
            range: KeyRange::prefix("t|ann|"),
        },
        Message::Get {
            id: 7,
            key: k("p|bob|0000000100"),
        },
        Message::Count {
            id: 8,
            range: KeyRange::prefix("t|ann|"),
        },
        // Write → read → write → read → count: read-your-writes must
        // hold within one frame.
        Message::Batch {
            msgs: vec![
                Message::Put {
                    id: 9,
                    key: k("p|cat|0000000200"),
                    value: v("meow"),
                },
                Message::Scan {
                    id: 10,
                    range: KeyRange::prefix("t|ann|"),
                },
                Message::Remove {
                    id: 11,
                    key: k("p|bob|0000000120"),
                },
                Message::Scan {
                    id: 12,
                    range: KeyRange::prefix("t|ann|"),
                },
                Message::Count {
                    id: 13,
                    range: KeyRange::prefix("t|ann|"),
                },
            ],
        },
        Message::Get {
            id: 14,
            key: k("p|nobody|0000000000"),
        },
        Message::Remove {
            id: 15,
            key: k("s|ann|cat"),
        },
        Message::Scan {
            id: 16,
            range: KeyRange::prefix("t|ann|"),
        },
        // Server-to-server traffic must be refused identically.
        Message::Hello { node: 3 },
    ]
}

/// The same script with every `Batch` flattened to individual frames
/// (same wire ids, so replies must be byte-identical).
fn flattened(frames: &[Message]) -> Vec<Message> {
    fn flatten(msg: &Message, out: &mut Vec<Message>) {
        match msg {
            Message::Batch { msgs } => msgs.iter().for_each(|m| flatten(m, out)),
            other => out.push(other.clone()),
        }
    }
    let mut out = Vec::new();
    frames.iter().for_each(|f| flatten(f, &mut out));
    out
}

/// What a server must answer to `msg`, from an engine run in-process.
fn reference_replies(engine: &mut Engine, msg: &Message, out: &mut Vec<Message>) {
    let reply = match msg {
        Message::Batch { msgs } => {
            msgs.iter().for_each(|m| reference_replies(engine, m, out));
            return;
        }
        Message::Get { id, key } => Message::reply(*id, engine.get_result(key).pairs),
        Message::Scan { id, range } => Message::reply(*id, engine.scan(range).pairs),
        Message::Count { id, range } => Message::count_reply(*id, engine.count(range) as u64),
        Message::Put { id, key, value } => {
            engine.put(key.clone(), value.clone());
            Message::reply(*id, vec![])
        }
        Message::Remove { id, key } => {
            engine.remove(key);
            Message::reply(*id, vec![])
        }
        Message::AddJoin { id, text } => match engine.add_joins_text(text) {
            Ok(_) => Message::reply(*id, vec![]),
            Err(e) => Message::error(*id, e.to_string()),
        },
        other => Message::error(other.id().unwrap_or(0), "unsupported on client connection"),
    };
    out.push(reply);
}

/// The reference's replies to `frames`, in wire order.
fn reference_stream(frames: &[Message]) -> Vec<Message> {
    let mut engine = fresh_engine();
    let mut replies = Vec::new();
    for f in frames {
        reference_replies(&mut engine, f, &mut replies);
    }
    replies
}

/// Count and digest of the reference's reply stream for `frames`.
fn reference(frames: &[Message]) -> (usize, u64) {
    let replies = reference_stream(frames);
    let fnv = replies.iter().fold(FNV_OFFSET, fnv_frame);
    (replies.len(), fnv)
}

/// Folds one reply's wire bytes into a running FNV-1a digest.
fn fnv_frame(fnv: u64, reply: &Message) -> u64 {
    encode_frame(reply)
        .iter()
        .fold(fnv, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// A surface that answers fewer replies than the reference fails the
/// read instead of hanging the suite.
const REPLY_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(20);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Sends the whole script pipelined, then reads `expected` reply
/// frames; returns (reply count, FNV-1a digest of the reply byte
/// stream).
fn run_script<S: Read + Write>(sock: &mut S, frames: &[Message], expected: usize) -> (usize, u64) {
    for f in frames {
        sock.write_all(&encode_frame(f)).unwrap();
    }
    let mut dec = FrameDecoder::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut count = 0usize;
    let mut fnv = FNV_OFFSET;
    while count < expected {
        match dec.next_frame().unwrap() {
            Some(m) => {
                count += 1;
                fnv = fnv_frame(fnv, &m);
            }
            None => {
                let n = sock.read(&mut chunk).unwrap();
                assert!(n > 0, "server closed before all replies arrived");
                dec.extend(&chunk[..n]);
            }
        }
    }
    (count, fnv)
}

fn fresh_engine() -> Engine {
    Engine::new(EngineConfig::default())
}

/// A backend of a serving surface.
#[derive(Clone, Copy, Debug)]
enum Backend {
    /// `FrontendServer::spawn` over one engine.
    Engine,
    /// A one-node, replication-1 `ClusterServer`.
    Cluster,
}

/// A fresh `backend` serving on an ephemeral port (and `cfg.unix_path`):
/// its address and how it stops.
fn serve(backend: Backend, cfg: FrontendConfig) -> (std::net::SocketAddr, Box<dyn FnOnce()>) {
    match backend {
        Backend::Engine => {
            let mut server = FrontendServer::spawn("127.0.0.1:0", fresh_engine(), cfg).unwrap();
            (server.addr(), Box::new(move || server.shutdown()))
        }
        Backend::Cluster => {
            let cluster = ClusterConfig::new(1, 1);
            let addr = Some("127.0.0.1:0");
            let mut server =
                ClusterServer::spawn_with(cluster, 0, fresh_engine(), addr, cfg).unwrap();
            (server.addr(), Box::new(move || server.halt()))
        }
    }
}

static SOCK_SEQ: AtomicU64 = AtomicU64::new(0);

fn unix_sock_path() -> PathBuf {
    let seq = SOCK_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pequod-conf-{}-{seq}.sock", std::process::id()))
}

/// Every serving surface for one backend kind, each on a fresh
/// instance (the script mutates state, so surfaces cannot share),
/// checked against the in-process reference. Returns the reference's
/// (count, digest).
fn assert_surfaces_match_reference(backend: Backend, frames: &[Message]) -> (usize, u64) {
    let want = reference(frames);
    let check = |surface: &str, got: (usize, u64)| {
        println!(
            "{backend:?} {surface}: {} replies, digest {:#018x} (reference {:#018x})",
            got.0, got.1, want.1
        );
        assert_eq!(
            got, want,
            "{surface} ({backend:?}) answered differently from the reference"
        );
    };
    // TCP surface.
    {
        let (addr, stop) = serve(backend, FrontendConfig::default());
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_nodelay(true).unwrap();
        sock.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        check("reactor-tcp", run_script(&mut sock, frames, want.0));
        drop(sock);
        stop();
    }
    // Unix-domain socket surface.
    {
        let path = unix_sock_path();
        let (_, stop) = serve(
            backend,
            FrontendConfig {
                unix_path: Some(path.clone()),
                ..FrontendConfig::default()
            },
        );
        let mut sock = UnixStream::connect(&path).unwrap();
        sock.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        check("reactor-unix", run_script(&mut sock, frames, want.0));
        drop(sock);
        stop();
        assert!(!path.exists(), "unix socket file not removed on shutdown");
    }
    want
}

/// The reference itself is pinned: on the part of the script that
/// predates it, it answers byte for byte what the deleted blocking
/// server answered.
#[test]
fn reference_reproduces_the_recorded_reply_stream() {
    assert_eq!(reference(&base_script()), BASE_SCRIPT_REPLIES);
}

#[test]
fn all_surfaces_match_the_reference_single_engine() {
    let want = assert_surfaces_match_reference(Backend::Engine, &script());
    assert_eq!(want.0, 22, "script yields 22 replies");
}

#[test]
fn all_surfaces_match_the_reference_cluster() {
    let want = assert_surfaces_match_reference(Backend::Cluster, &script());
    assert_eq!(want.0, 22, "script yields 22 replies");
}

#[test]
fn batch_equals_one_at_a_time_on_every_surface() {
    let batched = script();
    let flat = flattened(&batched);
    for backend in [Backend::Engine, Backend::Cluster] {
        assert_eq!(
            assert_surfaces_match_reference(backend, &batched),
            assert_surfaces_match_reference(backend, &flat),
            "batched and one-at-a-time reply streams diverge ({backend:?})"
        );
    }
}

/// Shrinks a socket's kernel receive buffer (`SO_RCVBUF`, which std
/// does not expose) to the smallest the kernel allows.
fn shrink_receive_buffer(sock: &TcpStream) {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};
    const SOL_SOCKET: c_int = 1;
    const SO_RCVBUF: c_int = 8;
    // SAFETY: libc's setsockopt(2) prototype; `fd` is a socket this
    // test owns and `value` outlives the call at the length passed.
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    let value: c_int = 1;
    // SAFETY: see the declaration above.
    let rc = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&value as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
}

/// The script, then enough pipelined timeline scans over kilobyte posts
/// that the replies run to hundreds of kilobytes — far more than a
/// throttled connection's socket buffers hold.
fn bulky_script() -> Vec<Message> {
    let mut frames = script();
    frames.push(Message::Batch {
        msgs: (0..48u64)
            .map(|t| Message::Put {
                id: 100 + t,
                key: k(&format!("p|bob|{:010}", 1000 + t)),
                value: Value::from(vec![b'a' + (t % 26) as u8; 1024]),
            })
            .collect(),
    });
    for id in 200..208 {
        frames.push(Message::Scan {
            id,
            range: KeyRange::prefix("t|ann|"),
        });
        frames.push(Message::Get {
            id: id + 100,
            key: k("p|bob|0000001007"),
        });
    }
    frames
}

/// Sends `frames` pipelined, then reads the reply stream one byte per
/// `read(2)` and requires exactly the reference's reply frames: nothing
/// dropped, doubled or reordered.
fn trickle<S: Read + Write>(sock: &mut S, frames: &[Message]) -> usize {
    let want: Vec<u8> = reference_stream(frames)
        .iter()
        .flat_map(|reply| encode_frame(reply).to_vec())
        .collect();
    for f in frames {
        sock.write_all(&encode_frame(f)).unwrap();
    }
    let mut got = vec![0u8; want.len()];
    for at in 0..got.len() {
        let n = sock.read(&mut got[at..at + 1]).unwrap();
        assert_eq!(n, 1, "closed at byte {at} of {}", want.len());
    }
    assert!(got == want, "reply bytes differ from the reference");
    want.len()
}

/// A reader that takes one byte at a time. Over TCP, through the
/// smallest receive buffer the kernel grants, it gets the conformance
/// script's replies byte for byte. Over the unix socket — whose send
/// buffer, unlike loopback TCP's, does not grow to megabytes — the
/// bulky script's replies overrun the socket, so the server's one write
/// per turn is accepted in part, at offsets that fall anywhere in a
/// frame, and the unsent remainder must go out intact and in order
/// behind it, with the backpressure gate (8 KiB here) pausing and
/// resuming dispatch all the while.
#[test]
fn trickle_reader_receives_the_reply_stream_byte_for_byte() {
    let cfg = FrontendConfig {
        max_write_buffer: 8 * 1024,
        ..FrontendConfig::default()
    };
    {
        let mut server = FrontendServer::spawn("127.0.0.1:0", fresh_engine(), cfg.clone()).unwrap();
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        shrink_receive_buffer(&sock);
        sock.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        trickle(&mut sock, &script());
        drop(sock);
        server.shutdown();
    }
    {
        let path = unix_sock_path();
        let mut server = FrontendServer::spawn(
            "127.0.0.1:0",
            fresh_engine(),
            FrontendConfig {
                unix_path: Some(path.clone()),
                ..cfg
            },
        )
        .unwrap();
        let mut sock = UnixStream::connect(&path).unwrap();
        sock.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        let bytes = trickle(&mut sock, &bulky_script());
        let pauses = (server.telemetry())(false).to_pairs();
        assert!(
            metric(&pauses, "pequod_backpressure_pauses_total").is_some_and(|n| n > 0),
            "{bytes} reply bytes never filled the socket, so no write was cut short"
        );
        drop(sock);
        server.shutdown();
    }
}
