//! The Pequod RPC vocabulary.
//!
//! Clients speak `Get`/`Put`/`Remove`/`Scan`/`AddJoin` and receive
//! `Reply`. Servers speak `Subscribe`/`SubscribeReply`/`Notify` among
//! themselves to replicate base data (§2.4): reading a remote key range
//! installs a subscription at its home server, and the home server
//! forwards subsequent updates.

use pequod_core::{Command, Response};
use pequod_store::{Key, KeyRange, UpperBound, Value};

/// A wire message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Point read.
    Get {
        /// Request id, echoed in the reply.
        id: u64,
        /// Key to read.
        key: Key,
    },
    /// Insert or update.
    Put {
        /// Request id.
        id: u64,
        /// Key to write.
        key: Key,
        /// New value.
        value: Value,
    },
    /// Delete.
    Remove {
        /// Request id.
        id: u64,
        /// Key to delete.
        key: Key,
    },
    /// Ordered range read.
    Scan {
        /// Request id.
        id: u64,
        /// Range to scan.
        range: KeyRange,
    },
    /// Server-side range count. The reply is a [`Message::Reply`] whose
    /// single pair is ([`COUNT_KEY`], the count in ASCII decimal) — the
    /// server counts; the pairs are never shipped.
    Count {
        /// Request id.
        id: u64,
        /// Range to count.
        range: KeyRange,
    },
    /// Install a cache join from its textual form.
    AddJoin {
        /// Request id.
        id: u64,
        /// Join text (Figure 2 grammar).
        text: String,
    },
    /// Response to any client request.
    Reply {
        /// The request this answers.
        id: u64,
        /// Result pairs (empty for writes).
        pairs: Vec<(Key, Value)>,
        /// Error message, if the request failed.
        error: Option<String>,
    },
    /// Server→server: fetch a base range and subscribe to its updates.
    Subscribe {
        /// Request id.
        id: u64,
        /// The base range wanted.
        range: KeyRange,
    },
    /// Server→server: subscription data.
    SubscribeReply {
        /// The `Subscribe` this answers.
        id: u64,
        /// The subscribed range.
        range: KeyRange,
        /// Its current contents.
        pairs: Vec<(Key, Value)>,
    },
    /// Server→server: an update to a subscribed range.
    Notify {
        /// The modified key.
        key: Key,
        /// New value, or `None` for a removal.
        value: Option<Value>,
    },
    /// Server→server: drop subscriptions overlapping a range.
    Unsubscribe {
        /// The range to drop.
        range: KeyRange,
    },
    /// A pipelined batch delivered as one frame: the receiver handles
    /// each message in order. Replies are sent individually (a parked
    /// query inside a batch may answer long after the rest), matched by
    /// request id.
    Batch {
        /// The pipelined messages.
        msgs: Vec<Message>,
    },
    /// First frame on a node-to-node link: identifies the dialing
    /// cluster node, so subsequent frames on the connection can be
    /// attributed to it (client connections never send this).
    Hello {
        /// The dialer's node id.
        node: u32,
    },
    /// Node→node: (re)subscribe to a replicated slot. Sent by a
    /// follower that detected a sequence gap, a restarted node warm
    /// catching up, or a node asking for (re-)admission to a replica
    /// set. The primary answers with a delta of `NotifySeq` frames when
    /// its in-memory window still covers `from_seq` and the follower's
    /// log lineage is valid, or with a chunked snapshot otherwise.
    ReplicaSubscribe {
        /// The replicated slot (partition range id).
        slot: u32,
        /// The sender's current epoch for the slot.
        epoch: u64,
        /// The epoch under which the sender's local log/applied state
        /// was last written — the primary uses it to detect divergent
        /// suffixes (a deposed primary's unacknowledged tail).
        log_epoch: u64,
        /// The sender's last applied sequence number for the slot.
        from_seq: u64,
    },
    /// Node→node: one epoch-stamped, sequence-numbered base write
    /// streamed from a slot's primary to its followers. The replicated
    /// analogue of [`Message::Notify`]; per-slot sequence numbers let
    /// followers detect gaps.
    NotifySeq {
        /// The replicated slot.
        slot: u32,
        /// The primary's epoch for the slot.
        epoch: u64,
        /// Per-slot sequence number (dense, starting at 1).
        seq: u64,
        /// The modified key.
        key: Key,
        /// New value, or `None` for a removal.
        value: Option<Value>,
    },
    /// Node→node: cumulative follower acknowledgment — everything up to
    /// and including `seq` is applied and locally durable. The primary
    /// acknowledges a client write only after every follower acked it.
    NotifyAck {
        /// The replicated slot.
        slot: u32,
        /// The follower's epoch for the slot.
        epoch: u64,
        /// Highest contiguously applied sequence number.
        seq: u64,
    },
    /// Node→node: primary liveness beacon, carrying the latest assigned
    /// sequence number so an idle follower still detects gaps. Missed
    /// heartbeats trigger follower promotion (epoch bump).
    Heartbeat {
        /// The replicated slot.
        slot: u32,
        /// The primary's epoch for the slot.
        epoch: u64,
        /// Latest assigned sequence number.
        seq: u64,
    },
    /// Node→node: one chunk of a slot snapshot transfer (follower
    /// bootstrap / catch-up when the delta window no longer reaches).
    SnapshotChunk {
        /// The replicated slot.
        slot: u32,
        /// The primary's epoch for the slot.
        epoch: u64,
        /// The sequence number the snapshot is current as of; the
        /// receiver resumes delta replay from here.
        upto_seq: u64,
        /// True on the final chunk.
        done: bool,
        /// Base pairs in this chunk.
        pairs: Vec<(Key, Value)>,
    },
    /// Node→node: announces a new epoch for a slot — after a failover
    /// promotion, a membership change (laggard drop, re-admission), or
    /// a migration flip. `replicas[0]` is the new primary.
    EpochChange {
        /// The replicated slot.
        slot: u32,
        /// The new epoch.
        epoch: u64,
        /// The new replica set; index 0 is the primary.
        replicas: Vec<u32>,
        /// The primary's applied sequence number when the epoch began —
        /// a member whose applied state matches adopts the epoch
        /// without a catch-up round trip.
        upto_seq: u64,
        /// A node deliberately dropped from the set (migration source):
        /// it deletes its copy instead of re-requesting admission.
        dropped: Option<u32>,
    },
    /// Reply to a client request that reached a node that is not the
    /// slot's primary: names the node to retry against. Clients resolve
    /// the node id to an address through their cluster config.
    NotPrimary {
        /// The request this answers.
        id: u64,
        /// The slot the request's key belongs to.
        slot: u32,
        /// The replier's epoch for the slot (clients keep the highest
        /// epoch seen, ignoring stale redirects).
        epoch: u64,
        /// The believed primary's node id.
        node: u32,
    },
    /// Admin→primary: live-migrate a slot's membership from node `from`
    /// to node `to` (install → dual-notify → flip authority → drop).
    /// Answered with an empty [`Message::Reply`] once the flip is done.
    Migrate {
        /// Request id.
        id: u64,
        /// The slot to move.
        slot: u32,
        /// The member leaving the replica set.
        from: u32,
        /// The node joining in its place.
        to: u32,
    },
    /// Admin: asks any server for its telemetry snapshot, answered as
    /// a [`Message::Reply`] pair list (flattened metric entries; see
    /// `pequod_telemetry::Snapshot::to_pairs`). With `flight` set the
    /// reply also carries the flight-recorder ring as `f|<seq>` pairs.
    Metrics {
        /// Request id.
        id: u64,
        /// Include the flight-recorder event ring in the reply.
        flight: bool,
    },
}

/// The reply-pair key under which a [`Message::Count`] answer carries
/// its count. `#` cannot start a user table name in any of the paper's
/// schemas, so the key cannot collide with real data.
pub const COUNT_KEY: &str = "#count";

impl Message {
    /// The request id, if this message carries one.
    pub fn id(&self) -> Option<u64> {
        match self {
            Message::Get { id, .. }
            | Message::Put { id, .. }
            | Message::Remove { id, .. }
            | Message::Scan { id, .. }
            | Message::Count { id, .. }
            | Message::AddJoin { id, .. }
            | Message::Reply { id, .. }
            | Message::Subscribe { id, .. }
            | Message::SubscribeReply { id, .. }
            | Message::NotPrimary { id, .. }
            | Message::Migrate { id, .. }
            | Message::Metrics { id, .. } => Some(*id),
            Message::Notify { .. }
            | Message::Unsubscribe { .. }
            | Message::Batch { .. }
            | Message::Hello { .. }
            | Message::ReplicaSubscribe { .. }
            | Message::NotifySeq { .. }
            | Message::NotifyAck { .. }
            | Message::Heartbeat { .. }
            | Message::SnapshotChunk { .. }
            | Message::EpochChange { .. } => None,
        }
    }

    /// Calls `f` with the id of every id-bearing message this frame
    /// carries: its own, or those of a [`Message::Batch`]'s members,
    /// nested batches included — one per answer a server owes for it.
    pub fn for_each_id(&self, f: &mut impl FnMut(u64)) {
        match self {
            Message::Batch { msgs } => msgs.iter().for_each(|m| m.for_each_id(f)),
            other => other.id().into_iter().for_each(f),
        }
    }

    /// The wire form of a client command under request `id`.
    pub fn request(id: u64, command: Command) -> Message {
        match command {
            Command::Get(key) => Message::Get { id, key },
            Command::Scan(range) => Message::Scan { id, range },
            Command::Count(range) => Message::Count { id, range },
            Command::Put(key, value) => Message::Put { id, key, value },
            Command::Remove(key) => Message::Remove { id, key },
            Command::AddJoin(text) => Message::AddJoin { id, text },
        }
    }

    /// The inverse of [`Message::request`]: the request id and command
    /// of a client request, or the message back if it is not one.
    pub fn into_request(self) -> Result<(u64, Command), Message> {
        Ok(match self {
            Message::Get { id, key } => (id, Command::Get(key)),
            Message::Scan { id, range } => (id, Command::Scan(range)),
            Message::Count { id, range } => (id, Command::Count(range)),
            Message::Put { id, key, value } => (id, Command::Put(key, value)),
            Message::Remove { id, key } => (id, Command::Remove(key)),
            Message::AddJoin { id, text } => (id, Command::AddJoin(text)),
            other => return Err(other),
        })
    }

    /// The wire reply carrying `response` to request `id`. A `Value`
    /// carries no key for the reply to echo, so a surface answers a wire
    /// `Get` as the scan of one key instead.
    pub fn from_response(id: u64, response: Response) -> Message {
        match response {
            Response::Pairs(pairs) => Message::reply(id, pairs),
            Response::Count(n) => Message::count_reply(id, n),
            Response::Value(_) | Response::Ok => Message::reply(id, vec![]),
            Response::Error(e) => Message::error(id, e),
        }
    }

    /// The inverse of [`Message::from_response`]: the request id and
    /// the [`Response`] a `Reply` carries, read as the answer to
    /// `asked`; `None` if this is not a `Reply`.
    pub fn into_response(self, asked: &Command) -> Option<(u64, Response)> {
        let Message::Reply { id, pairs, error } = self else {
            return None;
        };
        let response = match (error, asked) {
            (Some(e), _) => Response::Error(e),
            (None, Command::Get(_)) => Response::Value(pairs.into_iter().next().map(|(_, v)| v)),
            (None, Command::Scan(_)) => Response::Pairs(pairs),
            (None, Command::Count(_)) => match Message::parse_count(&pairs) {
                Some(n) => Response::Count(n),
                None => Response::Error("malformed count reply".into()),
            },
            (None, Command::Put(..) | Command::Remove(_) | Command::AddJoin(_)) => Response::Ok,
        };
        Some((id, response))
    }

    /// A successful reply.
    pub fn reply(id: u64, pairs: Vec<(Key, Value)>) -> Message {
        Message::Reply {
            id,
            pairs,
            error: None,
        }
    }

    /// An error reply.
    pub fn error(id: u64, error: impl Into<String>) -> Message {
        Message::Reply {
            id,
            pairs: Vec::new(),
            error: Some(error.into()),
        }
    }

    /// The reply to a [`Message::Metrics`] request: the snapshot's
    /// flattened `(key, value)` pairs as a reply pair list. Every
    /// serving surface (event-driven frontend, cluster node) answers
    /// through this one encoder so the wire shape cannot diverge.
    pub fn metrics_reply(id: u64, snapshot: &pequod_telemetry::Snapshot) -> Message {
        Message::reply(
            id,
            snapshot
                .to_pairs()
                .into_iter()
                .map(|(k, v)| (Key::from(k.as_str()), Value::from(v.into_bytes())))
                .collect(),
        )
    }

    /// The inverse of [`Message::metrics_reply`]: a reply's pairs as the
    /// snapshot's flattened `(key, value)` strings, which
    /// `pequod_telemetry::metric` reads a counter out of by name.
    pub fn parse_metrics(pairs: Vec<(Key, Value)>) -> Vec<(String, String)> {
        (pairs.into_iter())
            .map(|(k, v)| {
                (
                    String::from_utf8_lossy(k.as_bytes()).into_owned(),
                    String::from_utf8_lossy(&v).into_owned(),
                )
            })
            .collect()
    }

    /// The reply to a [`Message::Count`] request.
    pub fn count_reply(id: u64, count: u64) -> Message {
        Message::Reply {
            id,
            pairs: vec![(
                Key::from(COUNT_KEY),
                Value::from(count.to_string().into_bytes()),
            )],
            error: None,
        }
    }

    /// Extracts the count from a [`Message::count_reply`] pair list.
    pub fn parse_count(pairs: &[(Key, Value)]) -> Option<u64> {
        match pairs {
            [(key, value)] if key.as_bytes() == COUNT_KEY.as_bytes() => {
                std::str::from_utf8(value).ok()?.parse().ok()
            }
            _ => None,
        }
    }
}

/// Helper: encode a range end for the wire (None = unbounded).
pub(crate) fn range_end_key(range: &KeyRange) -> Option<&Key> {
    match &range.end {
        UpperBound::Excluded(k) => Some(k),
        UpperBound::Unbounded => None,
    }
}

/// Helper: rebuild a range from wire parts.
pub(crate) fn range_from_parts(first: Key, end: Option<Key>) -> KeyRange {
    KeyRange {
        first,
        end: match end {
            Some(k) => UpperBound::Excluded(k),
            None => UpperBound::Unbounded,
        },
    }
}
