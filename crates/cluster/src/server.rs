//! The TCP deployment driver: one [`ClusterServer`] per cluster node.
//!
//! One event-loop thread owns the [`ClusterNode`] state machine and all
//! client write-halves; everything else feeds it events:
//!
//! - an accept thread hands new connections to reader threads;
//! - each reader thread decodes frames and forwards them — the first
//!   frame decides whether the connection is a peer link (it opens with
//!   [`Message::Hello`]) or a client;
//! - a ticker thread advances the node's *logical* clock by fixed
//!   sleeps (no wall-clock reads on the serving path);
//! - per-peer dialer threads own the outbound node links: connect with
//!   jittered backoff, identify with `Hello`, then stream whatever the
//!   event loop queues. All of this node's traffic to a given peer uses
//!   its own dialed link, so per-direction FIFO holds and replication
//!   frames never reorder in transit.
//!
//! Shutdown comes in two flavors: [`ClusterServer::halt`] drains and
//! finalizes durability (final snapshot + fsync — the graceful SIGTERM
//! path), while [`ClusterServer::halt_abrupt`] just stops, modelling a
//! crash for failover benchmarks.

use crate::config::ClusterConfig;
use crate::node::{ClusterNode, ClusterPeer};
use bytes::BytesMut;
use pequod_core::Engine;
use pequod_net::codec::{decode_frame, encode_frame};
use pequod_net::Message;
use pequod_telemetry::{Snapshot, SnapshotFn};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Logical-clock granularity of the ticker thread, ms.
const TICK_MS: u64 = 5;

enum Event {
    /// A new client connection's write half.
    ClientConn(u64, TcpStream),
    /// A frame from a client connection.
    ClientFrame(u64, Message),
    /// A client connection closed.
    ClientGone(u64),
    /// A frame from an identified peer link.
    PeerFrame(u32, Message),
    /// Logical clock advanced to this many ms since start.
    Tick(u64),
    /// A telemetry snapshot request (`flight`, reply channel) from the
    /// scrape listener; answered by the event loop, which owns the node.
    Telemetry(bool, Sender<Snapshot>),
    /// Stop serving; finalize durability if asked, then confirm.
    Stop(bool, Sender<()>),
}

/// Accepted connections: a duplicated stream (to sever on halt) plus
/// the reader thread's handle (to join), so `halt()` is deterministic —
/// no reader services traffic after it returns.
type ReaderRegistry = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// A running replicated node.
pub struct ClusterServer {
    addr: SocketAddr,
    node_id: u32,
    tx: Sender<Event>,
    stop: Arc<AtomicBool>,
    listener_addr: SocketAddr,
    loop_thread: Option<JoinHandle<()>>,
    accept_thread: Option<JoinHandle<()>>,
    ticker_thread: Option<JoinHandle<()>>,
    readers: ReaderRegistry,
}

impl ClusterServer {
    /// Starts cluster node `node_id` serving `engine` on its configured
    /// address (or `addr_override`, e.g. `127.0.0.1:0` in tests — the
    /// config addresses of the *other* nodes are still used to dial
    /// them).
    pub fn spawn(
        cfg: ClusterConfig,
        node_id: u32,
        engine: Engine,
        addr_override: Option<&str>,
    ) -> std::io::Result<ClusterServer> {
        let bind_addr = match addr_override {
            Some(a) => a.to_string(),
            None => cfg
                .addr_of(node_id)
                .ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, "unknown node id")
                })?
                .to_string(),
        };
        let listener = TcpListener::bind(&bind_addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::<Event>();

        // Dialer threads: one outbound link per peer.
        let mut peer_tx: HashMap<u32, Sender<Message>> = HashMap::new();
        for peer in 0..cfg.nodes.len() as u32 {
            if peer == node_id {
                continue;
            }
            let Some(peer_addr) = cfg.addr_of(peer) else {
                continue;
            };
            let (ptx, prx) = channel::<Message>();
            peer_tx.insert(peer, ptx);
            let peer_addr = peer_addr.to_string();
            let dial_stop = stop.clone();
            // A restarted peer arms its failover timer when it boots and
            // disarms it on our first heartbeat, which travels on this
            // link: retry well inside that window, or the peer promotes
            // itself over a live primary and rejoins by snapshot.
            let max_backoff_ms = (cfg.timing.failover_ms / 4).max(10);
            std::thread::spawn(move || {
                dial_peer(node_id, &peer_addr, max_backoff_ms, prx, dial_stop)
            });
        }

        // Accept thread: classify connections by their first frame.
        let readers: ReaderRegistry = Arc::new(Mutex::new(Vec::new()));
        let accept_tx = tx.clone();
        let accept_stop = stop.clone();
        let accept_readers = readers.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut next_client: u64 = 1;
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // Register before serving: a connection that cannot be
                // severed on halt must not be served at all.
                let Ok(sever) = stream.try_clone() else {
                    continue;
                };
                let id = next_client;
                next_client += 1;
                let reader_tx = accept_tx.clone();
                let handle = std::thread::spawn(move || read_connection(id, stream, reader_tx));
                let mut reg = match accept_readers.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                reg.retain(|(_, h)| !h.is_finished());
                reg.push((sever, handle));
            }
        });

        // Ticker thread: logical time from accumulated sleeps.
        let tick_tx = tx.clone();
        let tick_stop = stop.clone();
        let ticker_thread = std::thread::spawn(move || {
            let mut now = 0u64;
            while !tick_stop.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(TICK_MS));
                now += TICK_MS;
                if tick_tx.send(Event::Tick(now)).is_err() {
                    break;
                }
            }
        });

        // The event loop owns the state machine.
        let node = ClusterNode::new(node_id, cfg, engine);
        let loop_thread = std::thread::spawn(move || event_loop(node, rx, peer_tx));

        Ok(ClusterServer {
            addr,
            node_id,
            tx,
            stop,
            listener_addr: addr,
            loop_thread: Some(loop_thread),
            accept_thread: Some(accept_thread),
            ticker_thread: Some(ticker_thread),
            readers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This node's id.
    pub fn node_id(&self) -> u32 {
        self.node_id
    }

    /// A telemetry provider answering with
    /// [`ClusterNode::telemetry_snapshot`] (engine metrics plus
    /// replication counters and lag gauges). Each call round-trips
    /// through the event loop, which owns the node; after `halt` it
    /// returns an empty snapshot.
    pub fn telemetry(&self) -> SnapshotFn {
        let tx = self.tx.clone();
        Arc::new(move |flight| {
            let (rtx, rrx) = channel::<Snapshot>();
            if tx.send(Event::Telemetry(flight, rtx)).is_ok() {
                if let Ok(snap) = rrx.recv() {
                    return snap;
                }
            }
            Snapshot::default()
        })
    }

    /// Graceful shutdown: stop accepting, drain the event queue, take a
    /// final durability snapshot and fsync, then stop. Idempotent.
    pub fn halt(&mut self) {
        self.halt_inner(true);
    }

    /// Abrupt shutdown (no finalization): models a crash for failover
    /// tests and benchmarks — recovery must come from the WAL.
    pub fn halt_abrupt(&mut self) {
        self.halt_inner(false);
    }

    fn halt_inner(&mut self, finalize: bool) {
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        // Poke the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.listener_addr);
        let (ack_tx, ack_rx) = channel();
        if self.tx.send(Event::Stop(finalize, ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The accept loop has exited, so the registry is complete:
        // sever every accepted connection and join its reader, so no
        // connection — even one accepted concurrently with the halt —
        // is serviced after this returns.
        let held: Vec<(TcpStream, JoinHandle<()>)> = {
            let mut reg = match self.readers.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            reg.drain(..).collect()
        };
        for (stream, handle) in held {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            let _ = handle.join();
        }
        if let Some(t) = self.ticker_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ClusterServer {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Outbound link to one peer: connect (with backoff), identify with
/// `Hello`, stream queued frames; reconnect on failure. Frames queued
/// while the link is down are dropped once the queue is drained into a
/// dead socket — the replication protocol re-converges via heartbeats
/// and catch-up subscriptions, so lossy links are safe.
fn dial_peer(
    me: u32,
    addr: &str,
    max_backoff_ms: u64,
    rx: Receiver<Message>,
    stop: Arc<AtomicBool>,
) {
    let mut sleep_ms = 10u64;
    'outer: while !stop.load(Ordering::Relaxed) {
        let stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(_) => {
                std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
                sleep_ms = (sleep_ms * 2).min(max_backoff_ms);
                // Drop whatever queued while the peer was unreachable:
                // unbounded buffering would just replay stale traffic.
                while rx.try_recv().is_ok() {}
                continue;
            }
        };
        sleep_ms = 10;
        let mut stream = stream;
        if stream.set_nodelay(true).is_err() {
            continue;
        }
        if stream
            .write_all(&encode_frame(&Message::Hello { node: me }))
            .is_err()
        {
            continue;
        }
        loop {
            let Ok(msg) = rx.recv() else { break 'outer };
            if stream.write_all(&encode_frame(&msg)).is_err() {
                continue 'outer;
            }
        }
    }
}

/// Reads frames off one accepted connection. The first frame decides
/// the connection's identity: `Hello` makes it a peer link, anything
/// else a client connection (whose write half is handed to the event
/// loop before its first message).
fn read_connection(client_id: u64, mut stream: TcpStream, tx: Sender<Event>) {
    let _ = stream.set_nodelay(true);
    let mut buf = BytesMut::with_capacity(8 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut identity: Option<ClusterPeer> = None;
    loop {
        loop {
            match decode_frame(&mut buf) {
                Ok(Some(msg)) => {
                    let event = match identity {
                        None => match msg {
                            Message::Hello { node } => {
                                identity = Some(ClusterPeer::Node(node));
                                continue;
                            }
                            other => {
                                identity = Some(ClusterPeer::Client(client_id));
                                let Ok(write_half) = stream.try_clone() else {
                                    return;
                                };
                                if tx.send(Event::ClientConn(client_id, write_half)).is_err() {
                                    return;
                                }
                                Event::ClientFrame(client_id, other)
                            }
                        },
                        Some(ClusterPeer::Node(n)) => Event::PeerFrame(n, msg),
                        Some(ClusterPeer::Client(c)) => Event::ClientFrame(c, msg),
                    };
                    if tx.send(event).is_err() {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    if identity == Some(ClusterPeer::Client(client_id)) {
                        let _ = tx.send(Event::ClientGone(client_id));
                    }
                    return;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => {
                if identity == Some(ClusterPeer::Client(client_id)) {
                    let _ = tx.send(Event::ClientGone(client_id));
                }
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// The single-threaded heart: applies every event to the state machine
/// and routes its outbox — client replies onto the owned write halves,
/// node traffic onto the dialer queues.
fn event_loop(mut node: ClusterNode, rx: Receiver<Event>, peer_tx: HashMap<u32, Sender<Message>>) {
    let mut clients: HashMap<u64, TcpStream> = HashMap::new();
    while let Ok(event) = rx.recv() {
        let outbox = match event {
            Event::ClientConn(id, stream) => {
                clients.insert(id, stream);
                continue;
            }
            Event::ClientGone(id) => {
                clients.remove(&id);
                continue;
            }
            Event::ClientFrame(id, msg) => node.handle(ClusterPeer::Client(id), msg),
            Event::PeerFrame(n, msg) => node.handle(ClusterPeer::Node(n), msg),
            Event::Tick(now) => node.tick(now),
            Event::Telemetry(flight, reply) => {
                let _ = reply.send(node.telemetry_snapshot(flight));
                continue;
            }
            Event::Stop(finalize, ack) => {
                if finalize {
                    node.engine.finalize_durability();
                }
                let _ = ack.send(());
                break;
            }
        };
        for (to, msg) in outbox {
            match to {
                ClusterPeer::Client(c) => {
                    let gone = match clients.get_mut(&c) {
                        Some(stream) => stream.write_all(&encode_frame(&msg)).is_err(),
                        None => false,
                    };
                    if gone {
                        clients.remove(&c);
                    }
                }
                ClusterPeer::Node(n) => {
                    if let Some(ptx) = peer_tx.get(&n) {
                        let _ = ptx.send(msg);
                    }
                }
            }
        }
    }
}
