//! The event-driven readiness core of the network frontend.
//!
//! [`Poller`] is a minimal hand-rolled `epoll(7)` wrapper (the tree's
//! only socket-facing FFI): register file descriptors under integer
//! tokens, wait for readiness. On top of it, `Reactor` runs the
//! serving loop of [`FrontendServer`](crate::frontend::FrontendServer):
//!
//! * one thread owns every connection — sockets, incremental frame
//!   decoders, bounded output buffers — and never blocks on a socket;
//! * decoded frames are handed to a [`Dispatch`] backend together with
//!   the connection's output buffer: the single engine executes the
//!   frame right there, on this thread, encoding each answer into the
//!   buffer as it is produced; a backend whose answers come later, or
//!   belong to another connection (a cluster node's replication traffic
//!   and follower-acked writes),
//!   hands them over through [`Dispatch::deliver`], once per loop turn,
//!   and another thread that has something for it rings the [`Waker`];
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
//! * time is logical: a ticker thread counts a tick every `tick_ms`,
//!   idle/write-stall limits are counted in ticks, and the dispatcher
//!   sees the same clock as milliseconds through [`Dispatch::tick`] (no
//!   wall-clock reads on the serving path, per clippy's
//!   `disallowed_methods`).
//!
//! Malformed or oversized frames get one error reply, then the
//! connection is flushed and closed: after a framing error the byte
//! stream has no further meaning.

use crate::codec::{encode_frame_into, FrameDecoder};
use crate::frontend::FrontendStats;
use crate::message::Message;
use crate::outbuf::OutBuf;
use pequod_telemetry::{Recorder, Timer};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Raw `epoll(7)` bindings. The kernel ABI is three calls and one
/// struct; binding them directly keeps the readiness loop free of any
/// async runtime while staying a few dozen lines.
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
    #[expect(unsafe_code, reason = "calls epoll_create1(2)")]
    pub fn new() -> std::io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; the returned fd is
        // owned by this Poller and closed in Drop.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    #[expect(unsafe_code, reason = "calls epoll_ctl(2)")]
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
    #[expect(unsafe_code, reason = "calls epoll_wait(2)")]
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
    #[expect(
        unsafe_code,
        reason = "calls close(2) on the descriptor the poller owns"
    )]
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

/// What the server's other threads ask of the reactor, each request
/// paired with a ring of the [`Waker`].
#[derive(Default)]
pub(crate) struct Signals {
    /// Ticks of logical time the ticker has counted and the reactor has
    /// not yet served.
    pub ticks: AtomicU64,
    /// Tear everything down and exit the loop.
    pub stop: AtomicBool,
}

/// Rings the reactor out of `epoll_wait` from another thread (one byte
/// on its wakeup pipe). A thread that leaves work where a dispatcher's
/// [`Dispatch::deliver`] will find it — a freshly dialed
/// socket — rings this afterwards; the reactor then runs a loop turn,
/// and every turn calls `deliver`.
#[derive(Clone)]
pub struct Waker(pub(crate) Arc<UnixStream>);

impl Waker {
    /// Wakes the reactor; the byte's value is meaningless.
    pub fn wake(&self) {
        let _ = (&*self.0).write(&[1u8]);
    }
}

/// The hosting contract: a `handle(from, msg) → out` state machine
/// served by the reactor thread. [`FrontendServer::spawn_dispatch`]
/// hosts any implementation; the single engine and a cluster node are
/// the two in the tree.
///
/// Every call runs on the reactor thread, so whatever time a call takes
/// is time no socket is served: the single engine and a cluster node
/// run the frame to completion (a cold
/// recompute or a durability snapshot included — the paper's
/// single-threaded server makes the same trade). A dispatcher that
/// shares its state with other threads takes its lock inside a call and
/// releases it before returning: the reactor does socket I/O only
/// between calls.
///
/// Answers produced on other threads need no thread of the
/// dispatcher's own to bring them over: the producer leaves them where
/// [`deliver`](Dispatch::deliver) looks and rings the [`Waker`] passed
/// to [`FrontendServer::spawn_dispatch`]'s `build`. A cluster node's
/// dialer threads do exactly that with the peer links they connect.
///
/// [`FrontendServer::spawn_dispatch`]: crate::frontend::FrontendServer::spawn_dispatch
pub trait Dispatch: Send {
    /// Begins executing one frame from connection `token`; `out` is that
    /// connection's output buffer, the reply sink. `begin` may append
    /// whole encoded frames to the end of `out` (and may truncate back
    /// to the length it found, abandoning a frame it began); the bytes
    /// already there are earlier frames' replies.
    ///
    /// `Some(n)`: the frame is complete and `n` reply frames were
    /// appended — `n` is 0 for a frame nobody answers, such as traffic
    /// on a node-to-node link. `None`: the frame stays in flight.
    /// Whatever `begin` appended is written out now, the rest arrives
    /// through [`Conns::send`], and the frame counts as complete only
    /// when the dispatcher calls [`Conns::complete`] from
    /// [`deliver`](Dispatch::deliver). Until then no later frame of the
    /// same connection reaches `begin`: per connection, frames are
    /// answered in arrival order.
    fn begin(&mut self, token: u64, msg: Message, out: &mut Vec<u8>) -> Option<usize>;

    /// Hands over frames for connections other than the one being
    /// served, or produced later than the `begin` that asked for them.
    /// Called once after each loop turn's readiness events and ticks,
    /// and once after its run-queue turns; a dispatcher with nothing
    /// buffered returns at once.
    fn deliver(&mut self, _conns: &mut Conns) {}

    /// Logical time reached `now_ms` (milliseconds since the server
    /// started, advanced one `tick_ms` per tick). Frames a tick produces
    /// leave through the [`deliver`](Dispatch::deliver) that follows.
    fn tick(&mut self, _now_ms: u64) {}

    /// Connection `token` is closed. Drop everything keyed by it: its
    /// in-flight frame (which is never completed), its link or client
    /// bookkeeping. Tokens are generation-checked, so a frame sent to a
    /// forgotten token later is refused, never misdelivered.
    fn forget(&mut self, _token: u64) {}
}

/// Limits and timeouts, in reactor units (bytes, frames, ticks).
pub(crate) struct ReactorConfig {
    pub max_write_buffer: usize,
    pub max_pipeline: usize,
    pub idle_timeout_ticks: Option<u64>,
    pub stall_timeout_ticks: Option<u64>,
    /// Milliseconds of logical time per tick.
    pub tick_ms: u64,
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

/// The reactor's connection table, and a dispatcher's way to reach
/// connections other than the one being served (see
/// [`Dispatch::deliver`]): [`send`](Conns::send) a frame to one,
/// [`complete`](Conns::complete) its in-flight frame,
/// [`adopt`](Conns::adopt) a socket dialed elsewhere. Every connection
/// touched gets a turn — a flush, then its next pipelined frames —
/// before the reactor sleeps again.
pub struct Conns {
    poller: Poller,
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    /// The run queue: connections whose last turn left dispatchable
    /// frames behind, or that a dispatcher touched. Served one turn each
    /// per loop iteration, after that iteration's readiness events.
    ready: Vec<usize>,
    cfg: ReactorConfig,
    stats: Arc<FrontendStats>,
}

/// The connection `token` names and its slot, if it is still open (and
/// the slot has not been recycled for a later connection).
fn live(slots: &mut [Option<Conn>], token: u64) -> Option<(usize, &mut Conn)> {
    let idx = (token & 0xffff_ffff) as usize;
    match slots.get_mut(idx) {
        Some(Some(conn)) if conn.token == token => Some((idx, conn)),
        _ => None,
    }
}

impl Conns {
    /// Registers a connected socket; its token, or `None` if the socket
    /// could not be made non-blocking or watched (it is dropped).
    fn add(&mut self, sock: Socket) -> Option<u64> {
        let nonblocking = match &sock {
            Socket::Tcp(s) => s.set_nonblocking(true),
            Socket::Unix(s) => s.set_nonblocking(true),
        };
        if nonblocking.is_err() {
            return None;
        }
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        // 31-bit generation word keeps conn tokens clear of the
        // reserved TOKEN_* range and disambiguates recycled slots.
        let gen = self.next_gen & 0x7fff_ffff;
        self.next_gen = self.next_gen.wrapping_add(1);
        let token = (gen << 32) | idx as u64;
        if self.poller.register(sock.fd(), token, true, false).is_err() {
            self.free.push(idx);
            return None;
        }
        self.slots[idx] = Some(Conn {
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
        self.stats.active.fetch_add(1, Ordering::Relaxed);
        Some(token)
    }

    /// Gives connection `idx` a turn before the reactor sleeps again.
    fn enqueue(&mut self, idx: usize) {
        if let Some(conn) = self.slots[idx].as_mut() {
            if !conn.queued {
                conn.queued = true;
                self.ready.push(idx);
            }
        }
    }

    /// Appends one frame to connection `token`'s output; `false` if that
    /// connection is gone (the frame is dropped). Not held to
    /// `max_write_buffer`: that cap gates what a connection may *ask*
    /// for, and these frames are owed already — a write acknowledgment,
    /// or a replication stream that legitimately queues a slot's worth
    /// of snapshot chunks on a node link. What bounds them is the
    /// write-stall timeout: a peer that takes nothing for that long is
    /// closed and its buffer freed.
    pub fn send(&mut self, token: u64, msg: &Message) -> bool {
        let Some((idx, conn)) = live(&mut self.slots, token) else {
            return false;
        };
        encode_frame_into(msg, conn.out.sink());
        self.enqueue(idx);
        true
    }

    /// The frame [`Dispatch::begin`] left in flight on `token` is
    /// complete, `replies` reply frames in all: the connection's next
    /// pipelined frame may be dispatched.
    pub fn complete(&mut self, token: u64, replies: usize) {
        let Some((idx, conn)) = live(&mut self.slots, token) else {
            return; // closed while the frame executed
        };
        conn.dispatched(&self.cfg);
        self.stats
            .replies_out
            .fetch_add(replies as u64, Ordering::Relaxed);
        self.enqueue(idx);
    }

    /// Takes over an already-connected outbound socket (a cluster
    /// node's dialed link to a peer) and returns its token; `None` if it
    /// could not be registered. From here on it is an ordinary
    /// connection: frames [`send`](Conns::send)t to it are flushed by
    /// the reactor, anything the peer writes reaches
    /// [`Dispatch::begin`], and [`Dispatch::forget`] reports its close.
    pub fn adopt(&mut self, stream: TcpStream) -> Option<u64> {
        let _ = stream.set_nodelay(true);
        self.add(Socket::Tcp(stream))
    }
}

/// The serving loop: owns the listeners and every connection; runs on
/// one dedicated thread until [`Signals::stop`] is raised.
pub(crate) struct Reactor {
    conns: Conns,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    signals: Arc<Signals>,
    wake_rx: UnixStream,
    dispatch: Box<dyn Dispatch>,
    /// Logical milliseconds since start: `tick_ms` per tick.
    now_ms: u64,
    rdbuf: Box<[u8]>,
}

impl Reactor {
    pub(crate) fn new(
        tcp: TcpListener,
        unix: Option<UnixListener>,
        signals: Arc<Signals>,
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
            conns: Conns {
                poller,
                slots: Vec::new(),
                free: Vec::new(),
                next_gen: 1,
                ready: Vec::new(),
                cfg,
                stats,
            },
            tcp: Some(tcp),
            unix,
            signals,
            wake_rx,
            dispatch,
            now_ms: 0,
            rdbuf: vec![0u8; 64 * 1024].into_boxed_slice(),
        })
    }

    /// Runs until stopped. A loop-level poller failure also exits:
    /// nothing can be served without readiness notifications.
    pub(crate) fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::with_capacity(512);
        loop {
            // With connections waiting for a turn, only collect what is
            // already ready; otherwise sleep until something is.
            let timeout_ms = if self.conns.ready.is_empty() { -1 } else { 0 };
            if self.conns.poller.wait(&mut events, timeout_ms).is_err() {
                break;
            }
            // From here until the next wait no socket is read: the turn.
            let turn = self.conns.cfg.recorder.timer();
            for ev in events.iter().copied() {
                match ev.token {
                    TOKEN_WAKE => self.drain_wake(),
                    TOKEN_TCP | TOKEN_UNIX => self.accept(ev.token),
                    token => self.on_conn_event(token, ev),
                }
            }
            if self.signals.stop.load(Ordering::Relaxed) {
                break;
            }
            for _ in 0..self.signals.ticks.swap(0, Ordering::Relaxed) {
                self.on_tick();
            }
            // What the events, the ticks and other threads left for
            // other connections: each one touched joins the run queue.
            self.dispatch.deliver(&mut self.conns);
            for idx in std::mem::take(&mut self.conns.ready) {
                if let Some(conn) = self.conns.slots[idx].as_mut() {
                    conn.queued = false;
                }
                self.pump(idx);
            }
            // And what those turns produced; a connection touched here
            // is on the run queue, so the next wait does not sleep.
            self.dispatch.deliver(&mut self.conns);
            self.conns.cfg.recorder.observe_turn(&turn);
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

    /// Accepts from the listener behind `token` until it has no more.
    fn accept(&mut self, token: u64) {
        loop {
            let accepted = match (token, &self.tcp, &self.unix) {
                (TOKEN_TCP, Some(l), _) => l.accept().map(|(stream, _)| {
                    let _ = stream.set_nodelay(true);
                    Socket::Tcp(stream)
                }),
                (TOKEN_UNIX, _, Some(l)) => l.accept().map(|(stream, _)| Socket::Unix(stream)),
                _ => return,
            };
            match accepted {
                Ok(sock) => {
                    if self.conns.add(sock).is_some() {
                        self.conns.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // `WouldBlock`: drained. Anything else is transient
                // (EMFILE, aborted handshake…): stop for this readiness
                // round rather than spinning; the listener stays
                // registered and reports readiness again.
                Err(_) => break,
            }
        }
    }

    fn on_conn_event(&mut self, token: u64, ev: PollEvent) {
        let Reactor { conns, rdbuf, .. } = self;
        let Conns {
            slots, cfg, stats, ..
        } = conns;
        let Some((idx, conn)) = live(slots, token) else {
            return; // stale event for a closed/recycled slot
        };
        let mut outcome = IoOutcome::Keep;
        if ev.readable {
            outcome = conn_read(conn, cfg, stats, rdbuf);
        }
        if ev.writable && matches!(outcome, IoOutcome::Keep) {
            outcome = conn_flush(conn, stats);
        }
        // A pure error/hangup has nothing to transfer: drop it too.
        if matches!(outcome, IoOutcome::Close) || (ev.error && !ev.readable && !ev.writable) {
            self.close_conn(idx);
            return;
        }
        self.pump(idx);
    }

    /// One turn of the per-connection scheduler: dispatch the pending
    /// queue, flush, refill the queue from buffered bytes, sync poller
    /// interests with the backpressure gate, close drained connections.
    fn pump(&mut self, idx: usize) {
        {
            let Reactor {
                conns, dispatch, ..
            } = self;
            let Conns {
                slots, cfg, stats, ..
            } = conns;
            let Some(conn) = slots[idx].as_mut() else {
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
                    None => break, // completed later, through `deliver`
                }
            }
        }
        enum Action {
            None,
            Close,
            Modify(RawFd, u64, bool, bool),
        }
        let action = {
            let Conns {
                slots,
                cfg,
                stats,
                ready,
                ..
            } = &mut self.conns;
            let Some(conn) = slots[idx].as_mut() else {
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
                if self.conns.poller.modify(fd, token, r, w).is_err() {
                    self.close_conn(idx);
                }
            }
        }
    }

    /// Advances logical time: idle and write-stalled connections past
    /// their limits are closed, then the dispatcher sees the new time.
    fn on_tick(&mut self) {
        for idx in 0..self.conns.slots.len() {
            let Conns {
                slots, cfg, stats, ..
            } = &mut self.conns;
            let Some(conn) = slots[idx].as_mut() else {
                continue;
            };
            {
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
                let (closed, kind, why) = if stalled {
                    (&stats.stall_closed, "stall_close", "write-stalled")
                } else if idle {
                    (&stats.idle_closed, "idle_close", "idle")
                } else {
                    continue;
                };
                closed.fetch_add(1, Ordering::Relaxed);
                cfg.recorder
                    .flight(kind, || format!("conn slot {idx} {why}"));
            }
            self.close_conn(idx);
        }
        self.now_ms += self.conns.cfg.tick_ms;
        self.dispatch.tick(self.now_ms);
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns.slots[idx].take() {
            let _ = self.conns.poller.deregister(conn.sock.fd());
            self.dispatch.forget(conn.token);
            self.conns.stats.active.fetch_sub(1, Ordering::Relaxed);
            self.conns.free.push(idx);
            // The socket closes on drop.
        }
    }

    /// Deterministic stop: refuse new connections, make one best-effort
    /// flush of queued replies, close every connection. Frames still
    /// pending or at the dispatcher produce no reply (their connections
    /// are gone).
    fn teardown(&mut self) {
        if let Some(l) = self.tcp.take() {
            let _ = self.conns.poller.deregister(l.as_raw_fd());
        }
        if let Some(l) = self.unix.take() {
            let _ = self.conns.poller.deregister(l.as_raw_fd());
        }
        for idx in 0..self.conns.slots.len() {
            if let Some(conn) = self.conns.slots[idx].as_mut() {
                let _ = conn_flush(conn, &self.conns.stats);
            }
            self.close_conn(idx);
        }
    }
}
