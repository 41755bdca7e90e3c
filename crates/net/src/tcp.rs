//! A blocking TCP client for a Pequod server.
//!
//! [`TcpClient`] speaks the length-prefixed frame codec over `std::net`
//! (the framing discipline of the Tokio guide, without the async
//! runtime), one request in flight at a time, with bounded retry under
//! a [`RetryPolicy`]. The serving side is
//! [`FrontendServer`](crate::FrontendServer).

use crate::codec::{decode_frame, encode_frame, CodecError};
use crate::message::Message;
use bytes::BytesMut;
use pequod_store::{Key, KeyRange, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure.
    Io(std::io::Error),
    /// Undecodable reply.
    Codec(CodecError),
    /// The server reported an error.
    Remote(String),
    /// The connection closed mid-request.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Codec(e) => write!(f, "codec: {e}"),
            ClientError::Remote(e) => write!(f, "server: {e}"),
            ClientError::Disconnected => write!(f, "disconnected"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Bounded-retry policy for [`TcpClient`] (and the cluster client):
/// exponential backoff with jitter on connect and I/O errors, capped by
/// an attempt count and a total backoff budget so redirect loops and
/// dead servers fail in bounded time instead of retrying forever.
///
/// The budget is accounted as the sum of backoff sleeps (no wall-clock
/// reads), so retry behavior is deterministic for a given seed.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum tries per operation (1 = no retry).
    pub max_attempts: u32,
    /// First backoff delay in milliseconds; doubles per attempt.
    pub base_delay_ms: u64,
    /// Backoff cap per attempt, in milliseconds.
    pub max_delay_ms: u64,
    /// Total backoff budget per operation, in milliseconds: once the
    /// accumulated sleep would exceed it, the operation fails with the
    /// last error.
    pub budget_ms: u64,
    /// Jitter RNG seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base_delay_ms: 10,
            max_delay_ms: 640,
            budget_ms: 5_000,
            seed: 0x7e7,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the pre-replication behavior).
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Deterministic jittered-backoff state shared by the retrying clients.
pub(crate) struct Backoff {
    policy: RetryPolicy,
    rng: u64,
    attempt: u32,
    slept_ms: u64,
}

impl Backoff {
    pub(crate) fn new(policy: RetryPolicy) -> Backoff {
        Backoff {
            policy,
            rng: policy.seed | 1,
            attempt: 0,
            slept_ms: 0,
        }
    }

    /// Records a failed attempt. Returns `false` when the attempt count
    /// or backoff budget is exhausted (caller should give up);
    /// otherwise sleeps the jittered backoff and returns `true`.
    pub(crate) fn retry(&mut self) -> bool {
        self.attempt += 1;
        if self.attempt >= self.policy.max_attempts {
            return false;
        }
        let exp = self
            .policy
            .base_delay_ms
            .checked_shl(self.attempt.min(20) - 1)
            .unwrap_or(u64::MAX)
            .min(self.policy.max_delay_ms)
            .max(1);
        // Full jitter: uniform in [exp/2, exp].
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let jittered = exp / 2 + x.wrapping_mul(0x2545_f491_4f6c_dd1d) % (exp / 2 + 1);
        if self.slept_ms + jittered > self.policy.budget_ms {
            return false;
        }
        self.slept_ms += jittered;
        std::thread::sleep(std::time::Duration::from_millis(jittered));
        true
    }
}

/// A blocking Pequod client connection.
///
/// Transient connect and I/O failures are retried under a
/// [`RetryPolicy`] (exponential backoff with jitter, bounded attempts,
/// total backoff budget): the client reconnects and resends the
/// request. All protocol requests are idempotent (`put`/`remove` set
/// state, reads read it), so a resend after an ambiguous failure is
/// safe. Server-reported errors and codec errors are never retried.
pub struct TcpClient {
    stream: Option<TcpStream>,
    addrs: Vec<SocketAddr>,
    policy: RetryPolicy,
    buf: BytesMut,
    next_id: u64,
}

impl TcpClient {
    /// Connects to a server with the default retry policy.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpClient> {
        Self::connect_with(addr, RetryPolicy::default())
    }

    /// Connects with an explicit retry policy
    /// ([`RetryPolicy::no_retry`] restores fail-fast behavior).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> std::io::Result<TcpClient> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut client = TcpClient {
            stream: None,
            addrs,
            policy,
            buf: BytesMut::with_capacity(8 * 1024),
            next_id: 1,
        };
        let mut backoff = Backoff::new(policy);
        loop {
            match client.reconnect() {
                Ok(()) => return Ok(client),
                Err(e) => {
                    if !backoff.retry() {
                        return Err(e);
                    }
                }
            }
        }
    }

    fn reconnect(&mut self) -> std::io::Result<()> {
        let mut last = std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addresses");
        for addr in &self.addrs {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    self.stream = Some(stream);
                    self.buf.clear();
                    return Ok(());
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn call(&mut self, msg: Message) -> Result<Vec<(Key, Value)>, ClientError> {
        let mut backoff = Backoff::new(self.policy);
        loop {
            match self.call_once(&msg) {
                Err(ClientError::Io(e)) => {
                    self.stream = None;
                    if !backoff.retry() {
                        return Err(ClientError::Io(e));
                    }
                }
                Err(ClientError::Disconnected) => {
                    self.stream = None;
                    if !backoff.retry() {
                        return Err(ClientError::Disconnected);
                    }
                }
                other => return other,
            }
        }
    }

    fn call_once(&mut self, msg: &Message) -> Result<Vec<(Key, Value)>, ClientError> {
        let Some(id) = msg.id() else {
            return Err(ClientError::Remote("request message carries no id".into()));
        };
        if self.stream.is_none() {
            self.reconnect()?;
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err(ClientError::Disconnected);
        };
        stream.write_all(&encode_frame(msg))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match decode_frame(&mut self.buf).map_err(ClientError::Codec)? {
                Some(Message::Reply {
                    id: rid,
                    pairs,
                    error,
                }) if rid == id => {
                    return match error {
                        Some(e) => Err(ClientError::Remote(e)),
                        None => Ok(pairs),
                    };
                }
                Some(_) => continue, // unrelated frame (stale reply)
                None => {
                    let n = stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(ClientError::Disconnected);
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Point read.
    pub fn get(&mut self, key: impl Into<Key>) -> Result<Option<Value>, ClientError> {
        let id = self.fresh_id();
        let pairs = self.call(Message::Get {
            id,
            key: key.into(),
        })?;
        Ok(pairs.into_iter().next().map(|(_, v)| v))
    }

    /// Write.
    pub fn put(&mut self, key: impl Into<Key>, value: impl Into<Value>) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.call(Message::Put {
            id,
            key: key.into(),
            value: value.into(),
        })?;
        Ok(())
    }

    /// Delete.
    pub fn remove(&mut self, key: impl Into<Key>) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.call(Message::Remove {
            id,
            key: key.into(),
        })?;
        Ok(())
    }

    /// Ordered range read.
    pub fn scan(&mut self, range: KeyRange) -> Result<Vec<(Key, Value)>, ClientError> {
        let id = self.fresh_id();
        self.call(Message::Scan { id, range })
    }

    /// Server-side range count: only the number crosses the wire.
    pub fn count(&mut self, range: KeyRange) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        let pairs = self.call(Message::Count { id, range })?;
        Message::parse_count(&pairs)
            .ok_or_else(|| ClientError::Remote("malformed count reply".into()))
    }

    /// Install cache joins.
    pub fn add_join(&mut self, text: impl Into<String>) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.call(Message::AddJoin {
            id,
            text: text.into(),
        })?;
        Ok(())
    }

    /// The server's telemetry snapshot as flattened `(key, value)`
    /// string pairs — the [`Message::metrics_reply`] shape: scalar
    /// counters/gauges, `name.count/.sum/.p50/...` histogram sub-keys,
    /// and (with `flight`) `f|<seq>` flight-recorder lines. This is
    /// what `pequod-stats` polls.
    pub fn metrics(&mut self, flight: bool) -> Result<Vec<(String, String)>, ClientError> {
        let id = self.fresh_id();
        let pairs = self.call(Message::Metrics { id, flight })?;
        Ok(pairs
            .into_iter()
            .map(|(k, v)| {
                (
                    String::from_utf8_lossy(k.as_bytes()).into_owned(),
                    String::from_utf8_lossy(&v).into_owned(),
                )
            })
            .collect())
    }
}
