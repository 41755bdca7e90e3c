//! The event-driven readiness core of the network frontend.
//!
//! [`Poller`] is a minimal hand-rolled `epoll(7)` wrapper (the tree's
//! only socket-facing FFI): register file descriptors under integer
//! tokens, wait for readiness. On top of it, `Reactor` runs the
//! serving loop of [`FrontendServer`](crate::frontend::FrontendServer):
//!
//! * one thread owns every connection — sockets, incremental frame
//!   decoders, bounded output buffers — and never blocks on a socket;
//! * decoded frames are handed to a `Dispatch` backend (see
//!   [`crate::frontend`]) together with the connection's output buffer:
//!   the single engine executes the frame right there, on this thread,
//!   encoding each answer into the buffer as it is produced; the
//!   sharded engine submits it to the per-shard queues and its replies
//!   come back through an injection queue plus a wakeup pipe, and are
//!   encoded into the same buffer;
//! * a reply is bytes in its connection's output buffer from the moment
//!   it exists, and a turn ends in one `write(2)` of everything the
//!   turn produced: per readiness event a connection costs one `read`,
//!   one `write`, and its share of the `epoll_wait`;
//! * per connection, frames are answered strictly in arrival order:
//!   at most one frame is dispatched at a time and further pipelined
//!   frames wait in a bounded pending queue;
//! * connections take turns: one turn dispatches at most the pending
//!   queue (`max_pipeline` frames), and a connection with more work
//!   buffered goes to the back of a run queue instead of holding the
//!   thread;
//! * backpressure: when a connection's unsent output or pending queue
//!   is at its cap, the reactor drops its read interest — the kernel
//!   socket buffer fills, the client's sends stall, and memory stays
//!   bounded. Dispatch also pauses while the unsent output is over its
//!   cap, so a slow reader pipelining huge scans cannot balloon the
//!   buffer past one response beyond the cap;
//! * time is logical: a ticker thread injects ticks every `tick_ms`,
//!   and idle/write-stall limits are counted in ticks (no wall-clock
//!   reads on the serving path, per `cargo xtask audit`).
//!
//! Malformed or oversized frames get one error reply, then the
//! connection is flushed and closed: after a framing error the byte
//! stream has no further meaning.

use crate::codec::{encode_frame_into, FrameDecoder};
use crate::frontend::FrontendStats;
use crate::message::Message;
use crate::outbuf::OutBuf;
use pequod_core::Response;
use pequod_telemetry::{Recorder, Timer};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Raw `epoll(7)` bindings. The kernel ABI is three calls and one
/// struct; binding them directly keeps the readiness loop free of any
/// async runtime while staying a few dozen lines.
#[allow(unsafe_code)]
mod sys {
    use std::os::raw::c_int;

    /// Kernel `struct epoll_event`. Packed on x86-64 (the kernel uapi
    /// declares it `__attribute__((packed))` there and only there).
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0x80000;

    // SAFETY: libc prototypes with matching signatures from epoll(7)
    // and close(2); every caller passes descriptors it owns and
    // buffers it allocated (see each call site).
    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// One readiness event from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// The descriptor is readable (or a peer hangup is pending, which
    /// reads as EOF).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// An error or hangup condition is pending.
    pub error: bool,
}

/// A level-triggered `epoll(7)` instance: the readiness primitive
/// behind `Reactor`, also reusable client-side (the `frontend` bench
/// and the stress suite drive thousands of pipelined client sockets
/// with one).
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates an epoll instance (close-on-exec).
    #[allow(unsafe_code)]
    pub fn new() -> std::io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; the returned fd is
        // owned by this Poller and closed in Drop.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    #[allow(unsafe_code)]
    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live stack value of the kernel's layout
        // for the duration of the call; `self.epfd` is the epoll fd
        // this Poller owns; `fd` is a descriptor the caller owns.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn mask(readable: bool, writable: bool) -> u32 {
        let mut m = 0;
        if readable {
            m |= sys::EPOLLIN;
        }
        if writable {
            m |= sys::EPOLLOUT;
        }
        m
    }

    /// Starts watching `fd` under `token` for the given interests.
    pub fn register(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> std::io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_ADD,
            fd,
            Self::mask(readable, writable),
            token,
        )
    }

    /// Changes the interests of an already registered `fd`.
    pub fn modify(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> std::io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_MOD,
            fd,
            Self::mask(readable, writable),
            token,
        )
    }

    /// Stops watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered descriptor is ready (or
    /// `timeout_ms` elapses; `-1` waits forever), filling `out`.
    /// Interrupted waits return an empty batch.
    #[allow(unsafe_code)]
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> std::io::Result<()> {
        out.clear();
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 512];
        // SAFETY: `buf` is a stack array of kernel-layout events that
        // outlives the call; at most `buf.len()` entries are written.
        let rc =
            unsafe { sys::epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in buf.iter().take(rc as usize) {
            // Copy out of the (possibly packed) struct before use.
            let bits = ev.events;
            let data = ev.data;
            out.push(PollEvent {
                token: data,
                readable: bits & (sys::EPOLLIN | sys::EPOLLHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                error: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        // SAFETY: closing the epoll fd this Poller created and
        // exclusively owns.
        unsafe {
            sys::close(self.epfd);
        }
    }
}

/// Either transport behind one connection: the reactor serves TCP and
/// unix-domain sockets through identical code.
pub(crate) enum Socket {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Socket {
    fn fd(&self) -> RawFd {
        match self {
            Socket::Tcp(s) => s.as_raw_fd(),
            Socket::Unix(s) => s.as_raw_fd(),
        }
    }

    fn read_some(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.read(buf),
            Socket::Unix(s) => s.read(buf),
        }
    }

    fn write_some(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.write(buf),
            Socket::Unix(s) => s.write(buf),
        }
    }
}

/// Work injected into the reactor from other threads (shard replies,
/// ticks, shutdown), paired with a byte on the wakeup pipe.
pub(crate) enum Injected {
    /// One shard's reply to a submitted command (sharded backend).
    Shard(u64, Response),
    /// Logical time advanced one tick.
    Tick,
    /// Tear everything down and exit the loop.
    Stop,
}

/// The backend half the reactor dispatches decoded frames into. Every
/// call runs on the reactor thread, so whatever time a call takes is
/// time no socket is served: the sharded backend only enqueues, the
/// single engine runs the frame to completion (a cold recompute or a
/// durability snapshot included — the paper's single-threaded server
/// makes the same trade).
pub(crate) trait Dispatch: Send {
    /// Begins executing one frame for connection `token`; `out` is the
    /// connection's output buffer, the reply sink. A frame that
    /// completes synchronously has appended one encoded reply frame per
    /// request to `out`, in wire order, and returns `Some(how many)`.
    /// Otherwise nothing was appended and the completion arrives later
    /// through [`Injected::Shard`] replies fed back to `on_shard_reply`.
    /// Bytes already in `out` are another frame's replies: append only.
    fn begin(&mut self, token: u64, msg: Message, out: &mut Vec<u8>) -> Option<usize>;

    /// Feeds one shard reply back in; returns a completed frame when
    /// this reply was the last one it waited on.
    fn on_shard_reply(&mut self, _id: u64, _resp: Response) -> Option<(u64, Vec<Message>)> {
        None
    }

    /// Drops any state held for a closed connection.
    fn forget(&mut self, _token: u64) {}
}

/// Limits and timeouts, in reactor units (bytes, frames, ticks).
pub(crate) struct ReactorConfig {
    pub max_write_buffer: usize,
    pub max_pipeline: usize,
    pub idle_timeout_ticks: Option<u64>,
    pub stall_timeout_ticks: Option<u64>,
    /// Telemetry sink for dispatch latency, queue depths, and flight
    /// events (backpressure trips, timeout closes). Disabled = no-op.
    pub recorder: Recorder,
}

/// Reserved tokens (connection tokens never reach this range: their
/// generation word is masked to 31 bits).
const TOKEN_WAKE: u64 = u64::MAX;
const TOKEN_TCP: u64 = u64::MAX - 1;
const TOKEN_UNIX: u64 = u64::MAX - 2;

struct Conn {
    sock: Socket,
    token: u64,
    decoder: FrameDecoder,
    /// Frames decoded but not yet dispatched (≤ `max_pipeline`).
    pending: VecDeque<Message>,
    /// A frame is at the dispatcher; its replies have not arrived.
    inflight: bool,
    /// On the run queue, waiting for another turn.
    queued: bool,
    /// Started when the in-flight frame was dispatched; observed into
    /// the dispatch-latency histogram when its replies are queued.
    dispatch_timer: Timer,
    /// Encoded reply frames not yet written out.
    out: OutBuf,
    /// Interests currently registered with the poller.
    reg_read: bool,
    reg_write: bool,
    /// The peer sent EOF; serve what was pipelined, then close.
    saw_eof: bool,
    /// Flush the output buffer, then close (codec error path).
    close_after_flush: bool,
    /// Set once a framing error is queued: no further bytes parse.
    poisoned: bool,
    /// Ticks since the last observed activity.
    idle_ticks: u64,
    /// Ticks the output buffer has been non-empty with no progress.
    stall_ticks: u64,
    /// Any read progress since the last tick.
    read_since_tick: bool,
    /// Any write progress since the last tick.
    wrote_since_tick: bool,
}

impl Conn {
    /// Whether the reactor wants more bytes from this peer right now
    /// (the backpressure gate).
    fn wants_read(&self, cfg: &ReactorConfig) -> bool {
        !self.saw_eof
            && !self.poisoned
            && self.pending.len() < cfg.max_pipeline
            && self.out.len() < cfg.max_write_buffer
    }

    fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// The dispatch gate: one frame at the dispatcher at a time (replies
    /// stay in arrival order), and none while the unsent output is over
    /// its cap, so a slow reader cannot balloon it past one response
    /// beyond the cap.
    fn can_dispatch(&self, cfg: &ReactorConfig) -> bool {
        !self.inflight && self.out.len() < cfg.max_write_buffer
    }

    /// Nothing left to serve or flush.
    fn drained(&self) -> bool {
        self.out.is_empty() && !self.inflight && self.pending.is_empty()
    }

    /// The in-flight frame's replies are in `out`: clear the mark and
    /// record how long the dispatch took.
    fn dispatched(&mut self, cfg: &ReactorConfig) {
        self.inflight = false;
        let timer = std::mem::replace(&mut self.dispatch_timer, Timer::disabled());
        cfg.recorder.observe_dispatch(&timer);
    }
}

/// What a connection-level I/O pass concluded.
enum IoOutcome {
    /// Keep the connection.
    Keep,
    /// Unrecoverable socket error: close it.
    Close,
}

/// Drains complete frames out of the decoder into the pending queue; a
/// framing error poisons the connection (one error reply, flush,
/// close).
fn parse_frames(conn: &mut Conn, cfg: &ReactorConfig, stats: &FrontendStats) {
    while !conn.poisoned && conn.pending.len() < cfg.max_pipeline {
        match conn.decoder.next_frame() {
            Ok(Some(msg)) => {
                conn.pending.push_back(msg);
                stats.frames_in.fetch_add(1, Ordering::Relaxed);
            }
            Ok(None) => break,
            Err(e) => {
                conn.poisoned = true;
                conn.close_after_flush = true;
                encode_frame_into(&Message::error(0, format!("codec: {e}")), conn.out.sink());
                stats.codec_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
}

/// Reads until the socket has no more to give, the peer closes, or
/// backpressure pauses the connection; decodes as it goes. A read that
/// does not fill `rdbuf` emptied the socket, so the pass ends there
/// instead of asking again just to hear `EAGAIN`: the poller is
/// level-triggered and reports the socket again if more has arrived
/// since — a peer's EOF included, which is read (as 0 bytes) on that
/// next event.
fn conn_read(
    conn: &mut Conn,
    cfg: &ReactorConfig,
    stats: &FrontendStats,
    rdbuf: &mut [u8],
) -> IoOutcome {
    loop {
        if !conn.wants_read(cfg) {
            return IoOutcome::Keep;
        }
        match conn.sock.read_some(rdbuf) {
            Ok(0) => {
                conn.saw_eof = true;
                return IoOutcome::Keep;
            }
            Ok(n) => {
                conn.decoder.extend(&rdbuf[..n]);
                conn.read_since_tick = true;
                stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                parse_frames(conn, cfg, stats);
                if n < rdbuf.len() {
                    return IoOutcome::Keep;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return IoOutcome::Keep,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return IoOutcome::Close,
        }
    }
}

/// Writes the unsent output: one `write(2)` when the socket takes it
/// all. A short write means the kernel's send buffer is full, so the
/// pass ends there and the writability event resumes it.
fn conn_flush(conn: &mut Conn, stats: &FrontendStats) -> IoOutcome {
    while !conn.out.is_empty() {
        match conn.sock.write_some(conn.out.unsent()) {
            Ok(n) => {
                let short = n < conn.out.len();
                conn.out.consume(n);
                conn.wrote_since_tick = true;
                stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                if short {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return IoOutcome::Close,
        }
    }
    IoOutcome::Keep
}

/// Pops everything out of the injection queue (no lock is ever held
/// across socket work).
fn take_injected(q: &Mutex<VecDeque<Injected>>) -> Vec<Injected> {
    match q.lock() {
        Ok(mut g) => g.drain(..).collect(),
        Err(p) => p.into_inner().drain(..).collect(),
    }
}

/// The serving loop: owns the listeners and every connection; runs on
/// one dedicated thread until [`Injected::Stop`] arrives.
pub(crate) struct Reactor {
    poller: Poller,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    /// The run queue: connections whose last turn left dispatchable
    /// frames behind. Served one turn each per loop iteration, after
    /// that iteration's readiness events.
    ready: Vec<usize>,
    injected: Arc<Mutex<VecDeque<Injected>>>,
    wake_rx: UnixStream,
    dispatch: Box<dyn Dispatch>,
    cfg: ReactorConfig,
    stats: Arc<FrontendStats>,
    rdbuf: Box<[u8]>,
}

impl Reactor {
    pub(crate) fn new(
        tcp: TcpListener,
        unix: Option<UnixListener>,
        injected: Arc<Mutex<VecDeque<Injected>>>,
        wake_rx: UnixStream,
        dispatch: Box<dyn Dispatch>,
        cfg: ReactorConfig,
        stats: Arc<FrontendStats>,
    ) -> std::io::Result<Reactor> {
        let poller = Poller::new()?;
        tcp.set_nonblocking(true)?;
        poller.register(tcp.as_raw_fd(), TOKEN_TCP, true, false)?;
        if let Some(l) = &unix {
            l.set_nonblocking(true)?;
            poller.register(l.as_raw_fd(), TOKEN_UNIX, true, false)?;
        }
        wake_rx.set_nonblocking(true)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, true, false)?;
        Ok(Reactor {
            poller,
            tcp: Some(tcp),
            unix,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 1,
            ready: Vec::new(),
            injected,
            wake_rx,
            dispatch,
            cfg,
            stats,
            rdbuf: vec![0u8; 64 * 1024].into_boxed_slice(),
        })
    }

    /// Runs until stopped. A loop-level poller failure also exits:
    /// nothing can be served without readiness notifications.
    pub(crate) fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::with_capacity(512);
        'serve: loop {
            // With connections waiting for a turn, only collect what is
            // already ready; otherwise sleep until something is.
            let timeout_ms = if self.ready.is_empty() { -1 } else { 0 };
            if self.poller.wait(&mut events, timeout_ms).is_err() {
                break;
            }
            for ev in events.iter().copied() {
                match ev.token {
                    TOKEN_WAKE => self.drain_wake(),
                    TOKEN_TCP => self.accept_tcp(),
                    TOKEN_UNIX => self.accept_unix(),
                    token => self.on_conn_event(token, ev),
                }
            }
            for inj in take_injected(&self.injected) {
                match inj {
                    Injected::Shard(id, resp) => {
                        if let Some((token, replies)) = self.dispatch.on_shard_reply(id, resp) {
                            self.finish_frame(token, replies);
                        }
                    }
                    Injected::Tick => self.on_tick(),
                    Injected::Stop => break 'serve,
                }
            }
            for idx in std::mem::take(&mut self.ready) {
                if let Some(conn) = self.conns[idx].as_mut() {
                    conn.queued = false;
                }
                self.pump(idx);
            }
        }
        self.teardown();
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn accept_tcp(&mut self) {
        loop {
            let accepted = match &self.tcp {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    self.add_conn(Socket::Tcp(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient (EMFILE, aborted handshake…): stop for this
                // readiness round rather than spinning; the listener
                // stays registered and reports readiness again.
                Err(_) => break,
            }
        }
    }

    fn accept_unix(&mut self) {
        loop {
            let accepted = match &self.unix {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => self.add_conn(Socket::Unix(stream)),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn add_conn(&mut self, sock: Socket) {
        let nonblocking = match &sock {
            Socket::Tcp(s) => s.set_nonblocking(true),
            Socket::Unix(s) => s.set_nonblocking(true),
        };
        if nonblocking.is_err() {
            return;
        }
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        // 31-bit generation word keeps conn tokens clear of the
        // reserved TOKEN_* range and disambiguates recycled slots.
        let gen = self.next_gen & 0x7fff_ffff;
        self.next_gen = self.next_gen.wrapping_add(1);
        let token = (gen << 32) | idx as u64;
        if self.poller.register(sock.fd(), token, true, false).is_err() {
            self.free.push(idx);
            return;
        }
        self.conns[idx] = Some(Conn {
            sock,
            token,
            decoder: FrameDecoder::new(),
            pending: VecDeque::new(),
            inflight: false,
            queued: false,
            dispatch_timer: Timer::disabled(),
            out: OutBuf::default(),
            reg_read: true,
            reg_write: false,
            saw_eof: false,
            close_after_flush: false,
            poisoned: false,
            idle_ticks: 0,
            stall_ticks: 0,
            read_since_tick: false,
            wrote_since_tick: false,
        });
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        self.stats.active.fetch_add(1, Ordering::Relaxed);
    }

    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = (token & 0xffff_ffff) as usize;
        match self.conns.get(idx) {
            Some(Some(c)) if c.token == token => Some(idx),
            _ => None,
        }
    }

    fn on_conn_event(&mut self, token: u64, ev: PollEvent) {
        let Some(idx) = self.resolve(token) else {
            return; // stale event for a closed/recycled slot
        };
        if ev.readable {
            let outcome = {
                let Reactor {
                    conns,
                    cfg,
                    stats,
                    rdbuf,
                    ..
                } = self;
                match conns[idx].as_mut() {
                    Some(conn) => conn_read(conn, cfg, stats, rdbuf),
                    None => return,
                }
            };
            if matches!(outcome, IoOutcome::Close) {
                self.close_conn(idx);
                return;
            }
        }
        if ev.writable {
            let outcome = {
                let Reactor { conns, stats, .. } = self;
                match conns[idx].as_mut() {
                    Some(conn) => conn_flush(conn, stats),
                    None => return,
                }
            };
            if matches!(outcome, IoOutcome::Close) {
                self.close_conn(idx);
                return;
            }
        }
        if ev.error && !ev.readable && !ev.writable {
            // Pure error/hangup with nothing to transfer: drop it.
            self.close_conn(idx);
            return;
        }
        self.pump(idx);
    }

    /// A dispatched frame came back from another thread: its replies
    /// join the connection's output like any others.
    fn finish_frame(&mut self, token: u64, replies: Vec<Message>) {
        let Some(idx) = self.resolve(token) else {
            return; // connection closed while the frame executed
        };
        if let Some(conn) = self.conns[idx].as_mut() {
            for reply in &replies {
                encode_frame_into(reply, conn.out.sink());
            }
            conn.dispatched(&self.cfg);
        }
        self.stats
            .replies_out
            .fetch_add(replies.len() as u64, Ordering::Relaxed);
        self.pump(idx);
    }

    /// One turn of the per-connection scheduler: dispatch the pending
    /// queue, flush, refill the queue from buffered bytes, sync poller
    /// interests with the backpressure gate, close drained connections.
    fn pump(&mut self, idx: usize) {
        {
            let Reactor {
                conns,
                cfg,
                stats,
                dispatch,
                ..
            } = self;
            let Some(conn) = conns[idx].as_mut() else {
                return;
            };
            while conn.can_dispatch(cfg) {
                let Some(msg) = conn.pending.pop_front() else {
                    break;
                };
                conn.inflight = true;
                conn.dispatch_timer = cfg.recorder.timer();
                cfg.recorder.observe_queue_depth(conn.pending.len() as u64);
                match dispatch.begin(conn.token, msg, conn.out.sink()) {
                    Some(replies) => {
                        conn.dispatched(cfg);
                        stats
                            .replies_out
                            .fetch_add(replies as u64, Ordering::Relaxed);
                    }
                    None => break, // completion arrives by injection
                }
            }
        }
        enum Action {
            None,
            Close,
            Modify(RawFd, u64, bool, bool),
        }
        let action = {
            let Reactor {
                conns,
                cfg,
                stats,
                ready,
                ..
            } = self;
            let Some(conn) = conns[idx].as_mut() else {
                return;
            };
            // The turn's one write: everything it produced goes out
            // now, without waiting for a writability event.
            if matches!(conn_flush(conn, stats), IoOutcome::Close) {
                self.close_conn(idx);
                return;
            }
            // Dispatching made room in the pending queue: top it up
            // from bytes the pipeline cap left in the decoder (reads
            // top it up too, so it is as full as it can be whenever a
            // turn starts). The turn can then end with frames still
            // dispatchable — more were buffered than one turn takes, or
            // the flush reopened the gate after the peer had already
            // sent everything. No socket event would bring this
            // connection back, so the run queue does.
            parse_frames(conn, cfg, stats);
            if !conn.queued && conn.can_dispatch(cfg) && !conn.pending.is_empty() {
                conn.queued = true;
                ready.push(idx);
            }
            if (conn.saw_eof || conn.close_after_flush) && conn.drained() {
                Action::Close
            } else {
                let want_r = conn.wants_read(cfg);
                let want_w = conn.wants_write();
                if want_r != conn.reg_read || want_w != conn.reg_write {
                    if conn.reg_read && !want_r && !conn.saw_eof && !conn.poisoned {
                        stats.backpressure_pauses.fetch_add(1, Ordering::Relaxed);
                        cfg.recorder.flight("backpressure", || {
                            format!(
                                "conn {} reads paused ({} bytes unsent, {} pending)",
                                conn.token,
                                conn.out.len(),
                                conn.pending.len()
                            )
                        });
                    }
                    conn.reg_read = want_r;
                    conn.reg_write = want_w;
                    Action::Modify(conn.sock.fd(), conn.token, want_r, want_w)
                } else {
                    Action::None
                }
            }
        };
        match action {
            Action::None => {}
            Action::Close => self.close_conn(idx),
            Action::Modify(fd, token, r, w) => {
                if self.poller.modify(fd, token, r, w).is_err() {
                    self.close_conn(idx);
                }
            }
        }
    }

    /// Advances logical time: idle and write-stalled connections past
    /// their limits are closed.
    fn on_tick(&mut self) {
        enum Verdict {
            Keep,
            Idle,
            Stalled,
        }
        for idx in 0..self.conns.len() {
            let verdict = {
                let Reactor { conns, cfg, .. } = self;
                let Some(conn) = conns[idx].as_mut() else {
                    continue;
                };
                if conn.read_since_tick || conn.wrote_since_tick {
                    conn.idle_ticks = 0;
                } else {
                    conn.idle_ticks += 1;
                }
                if conn.wants_write() && !conn.wrote_since_tick {
                    conn.stall_ticks += 1;
                } else {
                    conn.stall_ticks = 0;
                }
                conn.read_since_tick = false;
                conn.wrote_since_tick = false;
                let stalled = matches!(cfg.stall_timeout_ticks, Some(t) if conn.stall_ticks >= t);
                // Only a truly quiet connection is "idle": one waiting
                // on the engine or with queued work is not.
                let idle = matches!(cfg.idle_timeout_ticks, Some(t) if conn.idle_ticks >= t)
                    && conn.drained();
                if stalled {
                    Verdict::Stalled
                } else if idle {
                    Verdict::Idle
                } else {
                    Verdict::Keep
                }
            };
            match verdict {
                Verdict::Keep => {}
                Verdict::Stalled => {
                    self.stats.stall_closed.fetch_add(1, Ordering::Relaxed);
                    self.cfg
                        .recorder
                        .flight("stall_close", || format!("conn slot {idx} write-stalled"));
                    self.close_conn(idx);
                }
                Verdict::Idle => {
                    self.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
                    self.cfg
                        .recorder
                        .flight("idle_close", || format!("conn slot {idx} idle"));
                    self.close_conn(idx);
                }
            }
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            let _ = self.poller.deregister(conn.sock.fd());
            self.dispatch.forget(conn.token);
            self.stats.active.fetch_sub(1, Ordering::Relaxed);
            self.free.push(idx);
            // The socket closes on drop.
        }
    }

    /// Deterministic stop: refuse new connections, make one best-effort
    /// flush of queued replies, close every connection. Frames still
    /// pending or at the dispatcher produce no reply (their connections
    /// are gone).
    fn teardown(&mut self) {
        if let Some(l) = self.tcp.take() {
            let _ = self.poller.deregister(l.as_raw_fd());
        }
        if let Some(l) = self.unix.take() {
            let _ = self.poller.deregister(l.as_raw_fd());
        }
        for idx in 0..self.conns.len() {
            {
                let Reactor { conns, stats, .. } = self;
                match conns[idx].as_mut() {
                    Some(conn) => conn_flush(conn, stats),
                    None => continue,
                };
            }
            self.close_conn(idx);
        }
    }
}
