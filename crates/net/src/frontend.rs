//! The event-driven network frontend: the `Reactor` readiness loop
//! plus a backend dispatcher, serving the client protocol on TCP and
//! (optionally) a unix-domain socket through identical code.
//!
//! Whatever the backend, a frame is handed to a [`Dispatch`] on the
//! reactor thread. This module's own dispatcher serves one
//! single-threaded engine; the cluster node `pequod_cluster` hosts
//! through [`FrontendServer::spawn_dispatch`] is the other.
//!
//! The single-engine dispatcher takes the engine lock once per frame,
//! runs the whole frame (every request of a `Batch`) and encodes each
//! answer into the connection's output buffer as it is produced — a
//! `Scan` or `Get` streams its pairs from the store into the reply frame
//! — so there is no queue, no second thread, no wake-up and no `Message`
//! per reply. The lock is uncontended while serving; it exists so tests
//! and shutdown can reach the engine through [`FrontendServer::engine`].
//!
//! Per connection, frames are answered strictly in arrival order; see
//! the [`reactor`](crate::reactor) module docs for the pipelining,
//! backpressure, and timeout rules.

use crate::codec::{encode_frame_into, ReplyFrame};
use crate::message::Message;
use crate::reactor::{Dispatch, Reactor, ReactorConfig, Signals, Waker};
use pequod_core::Engine;
use pequod_store::KeyRange;
use pequod_telemetry::{process_rss_bytes, Recorder, Snapshot, SnapshotFn};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Serving counters, updated live by the reactor; read them with
/// [`FrontendStats::snapshot`] (or via
/// [`FrontendServer::stats`]).
#[derive(Default)]
pub struct FrontendStats {
    /// Connections accepted over the server's lifetime (both surfaces).
    pub accepted: AtomicU64,
    /// Currently open connections (a cluster node's dialed peer links
    /// included).
    pub active: AtomicU64,
    /// Request frames decoded.
    pub frames_in: AtomicU64,
    /// Reply frames queued for writing.
    pub replies_out: AtomicU64,
    /// Bytes read off client sockets.
    pub bytes_in: AtomicU64,
    /// Bytes written to client sockets.
    pub bytes_out: AtomicU64,
    /// Times a connection's read interest was dropped because its
    /// write or pending queue hit the cap.
    pub backpressure_pauses: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_closed: AtomicU64,
    /// Connections closed by the write-stall (slow reader) timeout.
    pub stall_closed: AtomicU64,
    /// Connections poisoned by a framing error.
    pub codec_errors: AtomicU64,
}

/// A point-in-time copy of [`FrontendStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontendStatsSnapshot {
    /// See [`FrontendStats::accepted`].
    pub accepted: u64,
    /// See [`FrontendStats::active`].
    pub active: u64,
    /// See [`FrontendStats::frames_in`].
    pub frames_in: u64,
    /// See [`FrontendStats::replies_out`].
    pub replies_out: u64,
    /// See [`FrontendStats::bytes_in`].
    pub bytes_in: u64,
    /// See [`FrontendStats::bytes_out`].
    pub bytes_out: u64,
    /// See [`FrontendStats::backpressure_pauses`].
    pub backpressure_pauses: u64,
    /// See [`FrontendStats::idle_closed`].
    pub idle_closed: u64,
    /// See [`FrontendStats::stall_closed`].
    pub stall_closed: u64,
    /// See [`FrontendStats::codec_errors`].
    pub codec_errors: u64,
}

impl FrontendStats {
    /// Reads every counter (relaxed; counters are advisory).
    pub fn snapshot(&self) -> FrontendStatsSnapshot {
        FrontendStatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            replies_out: self.replies_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            backpressure_pauses: self.backpressure_pauses.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            stall_closed: self.stall_closed.load(Ordering::Relaxed),
            codec_errors: self.codec_errors.load(Ordering::Relaxed),
        }
    }
}

/// Appends the frontend's serving counters to a telemetry snapshot so
/// one scrape covers the engine and the serving path together.
fn mirror_frontend_stats(stats: &FrontendStats, snap: &mut Snapshot) {
    let s = stats.snapshot();
    snap.counter("pequod_conns_accepted_total", &[], s.accepted);
    snap.gauge("pequod_conns_active", &[], s.active);
    snap.counter("pequod_frames_in_total", &[], s.frames_in);
    snap.counter("pequod_replies_out_total", &[], s.replies_out);
    snap.counter("pequod_bytes_in_total", &[], s.bytes_in);
    snap.counter("pequod_bytes_out_total", &[], s.bytes_out);
    snap.counter(
        "pequod_backpressure_pauses_total",
        &[],
        s.backpressure_pauses,
    );
    snap.counter("pequod_conns_idle_closed_total", &[], s.idle_closed);
    snap.counter("pequod_conns_stall_closed_total", &[], s.stall_closed);
    snap.counter("pequod_codec_errors_total", &[], s.codec_errors);
}

/// Tuning for a [`FrontendServer`]. `Default` is production-shaped;
/// tests shrink the timeouts and caps to exercise them quickly.
#[derive(Clone, Debug)]
pub struct FrontendConfig {
    /// Per-connection cap on buffered reply bytes; above it the
    /// connection's reads pause (backpressure) and dispatch of its
    /// further pipelined frames waits.
    pub max_write_buffer: usize,
    /// Per-connection cap on decoded-but-undispatched frames.
    pub max_pipeline: usize,
    /// Close a connection with no traffic in either direction for this
    /// long (`None` = never; clients may legitimately idle).
    pub idle_timeout_ms: Option<u64>,
    /// Close a connection whose replies have made no write progress for
    /// this long — a slow or stopped reader holding buffer memory.
    pub stall_timeout_ms: Option<u64>,
    /// Logical-clock granularity: timeouts are rounded up to whole
    /// ticks.
    pub tick_ms: u64,
    /// Also serve on this unix-domain socket path. A stale socket file
    /// at the path is removed first; the file is removed again on
    /// shutdown.
    pub unix_path: Option<PathBuf>,
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        FrontendConfig {
            max_write_buffer: 256 * 1024,
            max_pipeline: 128,
            idle_timeout_ms: None,
            stall_timeout_ms: Some(30_000),
            tick_ms: 100,
            unix_path: None,
        }
    }
}

/// The reply to anything that is not client traffic.
pub const UNSUPPORTED: &str = "unsupported on client connection";

/// The reply to a read that ran into non-resident base data: this
/// engine serves local data only and has nobody to fetch it from.
const MISSING_BASE_DATA: &str = "missing base data (no backing store attached)";

/// Answers a `Scan` (or a `Get`, as the scan of one key) by streaming
/// the pairs out of the engine into a reply frame at the end of `out`.
/// If the read turns out incomplete, the frame begun is dropped and an
/// error frame takes its place.
fn stream_read(engine: &mut Engine, id: u64, range: &KeyRange, out: &mut Vec<u8>) {
    let mut frame = ReplyFrame::begin(out, id);
    let missing = engine.scan_with(range, |k, v| frame.pair(k, &v));
    if missing.is_empty() {
        frame.finish();
    } else {
        frame.abandon();
        encode_frame_into(&Message::error(id, MISSING_BASE_DATA), out);
    }
}

/// Executes one frame against the engine, appending one reply frame per
/// request to `out` in wire order (a `Batch` is its requests in order,
/// nested ones too: the codec bounds the nesting depth). Returns how
/// many replies that was.
fn execute(engine: &mut Engine, msg: Message, out: &mut Vec<u8>) -> usize {
    match msg {
        Message::Batch { msgs } => {
            return msgs.into_iter().map(|m| execute(engine, m, out)).sum();
        }
        Message::Scan { id, range } => stream_read(engine, id, &range, out),
        Message::Get { id, key } => stream_read(engine, id, &KeyRange::single(key), out),
        Message::Count { id, range } => {
            let res = engine.count_result(&range);
            let reply = if res.is_complete() {
                Message::count_reply(id, res.count as u64)
            } else {
                Message::error(id, MISSING_BASE_DATA)
            };
            encode_frame_into(&reply, out);
        }
        Message::Put { id, key, value } => {
            engine.put(key, value);
            ReplyFrame::begin(out, id).finish();
        }
        Message::Remove { id, key } => {
            engine.remove(&key);
            ReplyFrame::begin(out, id).finish();
        }
        Message::AddJoin { id, text } => match engine.add_joins_text(&text) {
            Ok(_) => ReplyFrame::begin(out, id).finish(),
            Err(e) => encode_frame_into(&Message::error(id, e.to_string()), out),
        },
        // Server-to-server traffic is not accepted on the client port.
        other => encode_frame_into(&Message::error(other.id().unwrap_or(0), UNSUPPORTED), out),
    }
    1
}

/// Single-engine dispatch: the frame executes here, on the reactor
/// thread, under one acquisition of the engine lock. Encoding into
/// `out` under the lock is memory traffic, not socket I/O; the guard is
/// gone before the reactor flushes.
struct SingleDispatch {
    engine: Arc<Mutex<Engine>>,
    /// Answers [`Message::Metrics`] from atomics alone, without the
    /// engine lock.
    provider: SnapshotFn,
}

impl Dispatch for SingleDispatch {
    fn begin(&mut self, _token: u64, msg: Message, out: &mut Vec<u8>) -> Option<usize> {
        if let Message::Metrics { id, flight } = msg {
            encode_frame_into(&Message::metrics_reply(id, &(self.provider)(flight)), out);
            return Some(1);
        }
        let mut engine = self.engine.lock().unwrap_or_else(|p| p.into_inner());
        Some(execute(&mut engine, msg, out))
    }
}

/// Counts a tick every `tick_ms` until stopped: the reactor's only
/// clock (no wall-clock reads on the serving path).
fn ticker_loop(signals: Arc<Signals>, tick_ms: u64, waker: Waker) {
    while !signals.stop.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(tick_ms));
        signals.ticks.fetch_add(1, Ordering::Relaxed);
        waker.wake();
    }
}

/// A running event-driven server: the reactor thread, the ticker, and a
/// deterministic [`shutdown`](FrontendServer::shutdown). Those two are
/// its only threads, whatever the backend.
///
/// ```no_run
/// use pequod_core::{Engine, EngineConfig};
/// use pequod_net::{FrontendConfig, FrontendServer};
/// let engine = Engine::new(EngineConfig::default());
/// let mut server =
///     FrontendServer::spawn("127.0.0.1:0", engine, FrontendConfig::default()).unwrap();
/// println!("serving on {}", server.addr());
/// server.shutdown();
/// ```
pub struct FrontendServer {
    addr: SocketAddr,
    unix_path: Option<PathBuf>,
    /// The backend, when it is this crate's engine (a hosted
    /// dispatcher's owner keeps its own handle on what it serves).
    engine: Option<Arc<Mutex<Engine>>>,
    provider: SnapshotFn,
    signals: Arc<Signals>,
    waker: Waker,
    stats: Arc<FrontendStats>,
    reactor_thread: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
}

impl FrontendServer {
    /// Serves one single-threaded [`Engine`] on `addr`, executing
    /// every frame on the reactor thread; port 0 binds an ephemeral
    /// port.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        engine: Engine,
        cfg: FrontendConfig,
    ) -> std::io::Result<FrontendServer> {
        let recorder = engine.recorder().clone();
        let engine = Arc::new(Mutex::new(engine));
        let snapshot: SnapshotFn = {
            let recorder = recorder.clone();
            Arc::new(move |flight| recorder.snapshot(flight))
        };
        let dispatched = engine.clone();
        let mut server = Self::spawn_dispatch(addr, cfg, recorder, snapshot, |provider, _| {
            Box::new(SingleDispatch {
                engine: dispatched,
                provider,
            })
        })?;
        server.engine = Some(engine);
        Ok(server)
    }

    /// Hosts any [`Dispatch`] on `addr` (and `cfg.unix_path`): the
    /// reactor thread, its ticker, the bounded buffers, timeouts and
    /// serving counters are the same whatever executes the frames.
    ///
    /// `recorder` takes the reactor's observations (dispatch latency,
    /// queue depth, flight events). `snapshot` is the backend's own
    /// telemetry; the server's provider — what
    /// [`telemetry`](FrontendServer::telemetry) returns and what a
    /// dispatcher should answer a wire [`Message::Metrics`] with — is
    /// that plus the serving counters, and is handed to `build` together
    /// with the reactor's [`Waker`].
    pub fn spawn_dispatch(
        addr: impl ToSocketAddrs,
        cfg: FrontendConfig,
        recorder: Recorder,
        snapshot: SnapshotFn,
        build: impl FnOnce(SnapshotFn, Waker) -> Box<dyn Dispatch>,
    ) -> std::io::Result<FrontendServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let unix = match &cfg.unix_path {
            Some(p) => {
                let _ = std::fs::remove_file(p);
                Some(UnixListener::bind(p)?)
            }
            None => None,
        };
        let signals = Arc::new(Signals::default());
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        let waker = Waker(Arc::new(wake_tx));
        let stats = Arc::new(FrontendStats::default());
        // One scrape covers the backend and the serving path together.
        let provider: SnapshotFn = {
            let stats = stats.clone();
            Arc::new(move |flight| {
                let mut snap = snapshot(flight);
                mirror_frontend_stats(&stats, &mut snap);
                snap.gauge("process.rss_bytes", &[], process_rss_bytes());
                snap
            })
        };
        let dispatch = build(provider.clone(), waker.clone());
        let tick_ms = cfg.tick_ms.max(1);
        let to_ticks = |ms: Option<u64>| ms.map(|m| m.div_ceil(tick_ms).max(1));
        let rcfg = ReactorConfig {
            max_write_buffer: cfg.max_write_buffer.max(1),
            max_pipeline: cfg.max_pipeline.max(1),
            idle_timeout_ticks: to_ticks(cfg.idle_timeout_ms),
            stall_timeout_ticks: to_ticks(cfg.stall_timeout_ms),
            tick_ms,
            recorder,
        };
        let reactor = Reactor::new(
            listener,
            unix,
            signals.clone(),
            wake_rx,
            dispatch,
            rcfg,
            stats.clone(),
        )?;
        let reactor_thread = Some(std::thread::spawn(move || reactor.run()));
        let ticker = {
            let (signals, waker) = (signals.clone(), waker.clone());
            Some(std::thread::spawn(move || {
                ticker_loop(signals, tick_ms, waker);
            }))
        };
        Ok(FrontendServer {
            addr,
            unix_path: cfg.unix_path,
            engine: None,
            provider,
            signals,
            waker,
            stats,
            reactor_thread,
            ticker,
        })
    }

    /// The bound TCP address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The unix-domain socket path, when one is being served.
    pub fn unix_path(&self) -> Option<&std::path::Path> {
        self.unix_path.as_deref()
    }

    /// Live serving counters.
    pub fn stats(&self) -> FrontendStatsSnapshot {
        self.stats.snapshot()
    }

    /// The server's telemetry provider: backend metrics plus the frontend's serving counters, the same
    /// snapshot [`Message::Metrics`] answers with. `pequod-server`
    /// hands this to the Prometheus scrape listener.
    pub fn telemetry(&self) -> SnapshotFn {
        self.provider.clone()
    }

    /// Shared access to the single-engine backend; `None` when hosting
    /// another [`Dispatch`].
    pub fn engine(&self) -> Option<Arc<Mutex<Engine>>> {
        self.engine.clone()
    }

    /// Deterministic stop: once this returns, no connection will be
    /// served another byte — accepted-but-unserved connections are
    /// refused (closed), in-flight frames are abandoned, and every
    /// frontend thread has exited.
    pub fn shutdown(&mut self) {
        let Some(reactor) = self.reactor_thread.take() else {
            return; // already stopped
        };
        self.signals.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        let _ = reactor.join();
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        if let Some(p) = &self.unix_path {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Graceful shutdown plus a final durability snapshot + fsync on
    /// the backend (a no-op without attached persistence) — the
    /// SIGTERM path of `pequod-server`.
    pub fn shutdown_finalize(&mut self) {
        self.shutdown();
        if let Some(Ok(mut engine)) = self.engine.as_ref().map(|e| e.lock()) {
            engine.finalize_durability();
        }
    }
}

impl Drop for FrontendServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_frame;
    use pequod_core::config::MaterializationMode;
    use pequod_core::EngineConfig;
    use pequod_store::{Key, Value};

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

    /// A small Twip engine; `pull` computes timelines on every read
    /// (the overlay path), otherwise they are materialised.
    fn twip(pull: bool) -> Engine {
        let mut engine = Engine::new(EngineConfig {
            materialization: if pull {
                MaterializationMode::None
            } else {
                EngineConfig::default().materialization
            },
            ..EngineConfig::default()
        });
        engine.add_joins_text(TIMELINE).unwrap();
        for poster in ["bob", "cat", "dan"] {
            engine.put(format!("s|ann|{poster}"), "1");
            for t in 0..20u64 {
                engine.put(
                    format!("p|{poster}|{t:010}"),
                    format!(
                        "{poster} says {t}, at some length: {}",
                        "x".repeat(t as usize)
                    ),
                );
            }
        }
        engine
    }

    /// What the collecting path would have put on the wire.
    fn collected(engine: &mut Engine, id: u64, range: &KeyRange) -> Vec<u8> {
        encode_frame(&Message::reply(id, engine.scan(range).pairs)).to_vec()
    }

    #[test]
    fn streamed_reads_are_byte_identical_to_collected_replies() {
        for pull in [false, true] {
            let ranges = [
                KeyRange::prefix("t|ann|"), // computed, whole timeline
                KeyRange::new("t|ann|0000000005", "t|ann|0000000012"),
                KeyRange::prefix("p|bob|"),    // base data
                KeyRange::prefix("t|nobody|"), // computed, empty
                KeyRange::prefix("q|"),        // no such table
                KeyRange::new("t|z", "t|a"),   // empty range
                KeyRange::prefix("p|"),        // spans tables
            ];
            // Cold on the first pass, warm on the second.
            let (mut streamed, mut reference) = (twip(pull), twip(pull));
            for pass in 0..2 {
                for (i, range) in ranges.iter().enumerate() {
                    let id = (pass * 100 + i) as u64;
                    let mut out = b"earlier replies".to_vec();
                    let n = execute(
                        &mut streamed,
                        Message::Scan {
                            id,
                            range: range.clone(),
                        },
                        &mut out,
                    );
                    assert_eq!(n, 1);
                    let mut want = b"earlier replies".to_vec();
                    want.extend_from_slice(&collected(&mut reference, id, range));
                    assert_eq!(out, want, "pull={pull} pass={pass} range {range:?}");
                }
            }
            // A Get is the scan of one key, found or not.
            for key in [
                "t|ann|0000000003|bob",
                "p|cat|0000000019",
                "p|cat|0000000020",
            ] {
                let mut out = Vec::new();
                execute(
                    &mut streamed,
                    Message::Get {
                        id: 7,
                        key: Key::from(key),
                    },
                    &mut out,
                );
                let pairs = reference.get_result(&Key::from(key)).pairs;
                assert_eq!(pairs.len(), usize::from(!key.ends_with("20")), "{key}");
                assert_eq!(out, encode_frame(&Message::reply(7, pairs)).to_vec());
            }
        }
    }

    #[test]
    fn writes_and_batches_answer_like_their_messages() {
        let mut engine = twip(false);
        let mut out = Vec::new();
        let frame = Message::Batch {
            msgs: vec![
                Message::Put {
                    id: 1,
                    key: Key::from("p|bob|0000000100"),
                    value: Value::from_static(b"new"),
                },
                Message::Batch {
                    msgs: vec![
                        Message::Count {
                            id: 2,
                            range: KeyRange::prefix("t|ann|"),
                        },
                        Message::Remove {
                            id: 3,
                            key: Key::from("p|bob|0000000100"),
                        },
                    ],
                },
                Message::AddJoin {
                    id: 4,
                    text: "not a join".into(),
                },
                Message::Hello { node: 9 },
            ],
        };
        assert_eq!(execute(&mut engine, frame, &mut out), 5);
        let mut want = Vec::new();
        want.extend_from_slice(&encode_frame(&Message::reply(1, vec![])));
        want.extend_from_slice(&encode_frame(&Message::count_reply(2, 61)));
        want.extend_from_slice(&encode_frame(&Message::reply(3, vec![])));
        let err = twip(false).add_joins_text("not a join").unwrap_err();
        want.extend_from_slice(&encode_frame(&Message::error(4, err.to_string())));
        want.extend_from_slice(&encode_frame(&Message::error(0, UNSUPPORTED)));
        assert_eq!(out, want);
    }

    #[test]
    fn incomplete_read_leaves_exactly_one_error_frame() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.mark_remote_table("p|");
        // bob's posts are resident, the rest of the table is not: the
        // scan visits bob's pairs and then reports the gaps around them.
        engine.install_base(
            &KeyRange::prefix("p|bob|"),
            (0..10u64)
                .map(|t| {
                    (
                        Key::from(format!("p|bob|{t:010}")),
                        Value::from_static(b"resident"),
                    )
                })
                .collect(),
        );
        let range = KeyRange::prefix("p|");
        let mut visited = 0;
        assert!(!engine.scan_with(&range, |_, _| visited += 1).is_empty());
        assert_eq!(visited, 10, "pairs were appended before the gap was known");
        for msg in [
            Message::Scan { id: 5, range },
            Message::Get {
                id: 5,
                key: Key::from("p|cat|0000000001"),
            },
        ] {
            let prefix = encode_frame(&Message::reply(4, vec![])).to_vec();
            let mut out = prefix.clone();
            execute(&mut engine, msg, &mut out);
            let error = encode_frame(&Message::error(5, MISSING_BASE_DATA));
            assert_eq!(out.len(), prefix.len() + error.len());
            assert_eq!(&out[..prefix.len()], &prefix[..]);
            assert_eq!(&out[prefix.len()..], &error[..]);
        }
    }
}
