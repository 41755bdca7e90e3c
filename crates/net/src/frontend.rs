//! The event-driven network frontend: the `Reactor` readiness loop
//! plus a backend dispatcher, serving the client protocol on TCP and
//! (optionally) a unix-domain socket through identical code.
//!
//! A frame is handed to a [`Dispatch`] on the reactor thread, which
//! encodes each answer into the connection's output buffer as it is
//! produced: there is no queue, no second thread and no wake-up per
//! reply. This crate hosts a dispatcher and executes nothing itself;
//! the one dispatcher is `pequod_cluster`'s node, hosted through
//! [`FrontendServer::spawn_dispatch`] — a stand-alone `pequod-server`
//! is a one-node cluster. The reactor thread owns the dispatcher while
//! it serves and hands it back at [`FrontendServer::shutdown`].
//!
//! Per connection, frames are answered strictly in arrival order; see
//! the [`reactor`](crate::reactor) module docs for the pipelining,
//! backpressure, and timeout rules.

use crate::reactor::{Dispatch, Reactor, ReactorConfig, Signals, Waker};
use pequod_telemetry::{process_rss_bytes, Recorder, Snapshot};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Serving counters, updated live by the reactor and handed to the
/// dispatcher's `build`, which [`mirror`](FrontendStats::mirror)s them
/// into the snapshot a wire
/// [`Message::Metrics`](crate::Message::Metrics) gets.
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

impl FrontendStats {
    /// Appends the serving counters and the process's resident size to
    /// a telemetry snapshot, so one scrape covers the backend and the
    /// serving path together. Each counter is read relaxed: they are
    /// advisory.
    pub fn mirror(&self, snap: &mut Snapshot) {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        snap.counter("pequod_conns_accepted_total", &[], read(&self.accepted));
        snap.gauge("pequod_conns_active", &[], read(&self.active));
        for (name, counter) in [
            ("pequod_frames_in_total", &self.frames_in),
            ("pequod_replies_out_total", &self.replies_out),
            ("pequod_bytes_in_total", &self.bytes_in),
            ("pequod_bytes_out_total", &self.bytes_out),
            (
                "pequod_backpressure_pauses_total",
                &self.backpressure_pauses,
            ),
            ("pequod_conns_idle_closed_total", &self.idle_closed),
            ("pequod_conns_stall_closed_total", &self.stall_closed),
            ("pequod_codec_errors_total", &self.codec_errors),
        ] {
            snap.counter(name, &[], read(counter));
        }
        snap.gauge("process.rss_bytes", &[], process_rss_bytes());
    }
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

/// Counts a tick every `tick_ms` until stopped: the reactor's only
/// clock (no wall-clock reads on the serving path).
fn ticker_loop(signals: Arc<Signals>, tick_ms: u64, waker: Waker) {
    while !signals.stop.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(tick_ms));
        signals.ticks.fetch_add(1, Ordering::Relaxed);
        waker.wake();
    }
}

/// A running event-driven server: the reactor thread, which owns the
/// dispatcher `D`, the ticker, and a deterministic
/// [`shutdown`](FrontendServer::shutdown). Those two are its only
/// threads, whatever the backend.
pub struct FrontendServer<D> {
    addr: SocketAddr,
    unix_path: Option<PathBuf>,
    signals: Arc<Signals>,
    waker: Waker,
    reactor_thread: Option<JoinHandle<D>>,
    ticker: Option<JoinHandle<()>>,
}

impl<D> FrontendServer<D> {
    /// Hosts a [`Dispatch`] on `addr` (and `cfg.unix_path`): the
    /// reactor thread, its ticker, the bounded buffers, timeouts and
    /// serving counters are the same whatever executes the frames.
    ///
    /// `recorder` takes the reactor's observations (dispatch latency,
    /// queue depth, flight events). `build` makes the dispatcher from
    /// the serving counters, which it should
    /// [`mirror`](FrontendStats::mirror) into its answer to a wire
    /// [`Message::Metrics`](crate::Message::Metrics), and the reactor's
    /// [`Waker`].
    pub fn spawn_dispatch(
        addr: impl ToSocketAddrs,
        cfg: FrontendConfig,
        recorder: Recorder,
        build: impl FnOnce(Arc<FrontendStats>, Waker) -> D,
    ) -> std::io::Result<FrontendServer<D>>
    where
        D: Dispatch + 'static,
    {
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
        let dispatch = build(stats.clone(), waker.clone());
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
            signals,
            waker,
            reactor_thread,
            ticker,
        })
    }

    /// The bound TCP address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The reactor's [`Waker`], the one `build` was given: another
    /// thread that leaves work where the dispatcher's
    /// [`deliver`](Dispatch::deliver) looks rings it.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Deterministic stop: once this returns, no connection will be
    /// served another byte — accepted-but-unserved connections are
    /// refused (closed), in-flight frames are abandoned, and every
    /// frontend thread has exited. Returns the dispatcher the reactor
    /// thread owned; `None` if an earlier call already took it.
    pub fn shutdown(&mut self) -> Option<D> {
        let reactor = self.reactor_thread.take()?;
        self.signals.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        let dispatch = reactor.join().ok();
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        if let Some(p) = &self.unix_path {
            let _ = std::fs::remove_file(p);
        }
        dispatch
    }
}

impl<D> Drop for FrontendServer<D> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
