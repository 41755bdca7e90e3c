//! A distributed Pequod server node (§2.4) on the wire.
//!
//! The node itself — engine, subscriber list, parked queries, fetch
//! groups, the whole Subscribe/Notify and park/restart state machine —
//! is [`pequod_core::Node`], the same type a
//! [`ShardedEngine`](pequod_core::ShardedEngine) worker thread drives;
//! [`ServerNode`] is that type under the name this tier has always used
//! for it. It speaks [`NodeMsg`] (`Command`/`Response` plus
//! Subscribe/SubscribeReply/Notify). This module is only the 1:1
//! mapping between that vocabulary and the wire [`Message`], which
//! [`SimCluster`](crate::SimCluster) needs because it counts encoded
//! bytes per message class.
//!
//! [`Message::Unsubscribe`] is handled ([`pequod_core::Node::unsubscribe`])
//! but no node sends it: a subscriber that evicts a range keeps
//! receiving, and dropping, its notifications. Sending it on eviction
//! would change behaviour and is left for its own change.

use crate::message::Message;
use pequod_core::{Command, NodeMsg, Response};
use pequod_store::KeyRange;

pub use pequod_core::{Endpoint, Node as ServerNode, NodeStats};

/// Delivers one wire message to `node`, appending what the node sends
/// to `out`.
pub(crate) fn deliver(
    node: &mut ServerNode,
    from: Endpoint,
    msg: Message,
    out: &mut Vec<(Endpoint, NodeMsg)>,
) {
    let msg = match msg {
        Message::Batch { msgs } => {
            return msgs.into_iter().for_each(|m| deliver(node, from, m, out));
        }
        // A wire `Get` is the scan of one key: its reply carries the
        // pair, key included.
        Message::Get { id, key } => NodeMsg::Request {
            id,
            command: Command::Scan(KeyRange::single(key)),
        },
        Message::Subscribe { id, range } => NodeMsg::Subscribe { id, range },
        Message::SubscribeReply { id, range, pairs } => {
            NodeMsg::SubscribeReply { id, range, pairs }
        }
        Message::Notify { key, value } => NodeMsg::Notify { key, value },
        Message::Unsubscribe { range } => {
            if let Endpoint::Server(peer) = from {
                node.unsubscribe(peer, &range);
            }
            return;
        }
        // The home's answer to a write this node forwarded.
        Message::Reply { id, error, .. } => NodeMsg::Reply {
            id,
            response: error.map_or(Response::Ok, Response::Error),
        },
        other => match other.into_request() {
            Ok((id, command)) => NodeMsg::Request { id, command },
            // Replication traffic belongs to `pequod_cluster`'s node,
            // not the single-authority Subscribe/Notify server.
            Err(other) => {
                let response =
                    Response::Error("replication message on a non-replicated server".into());
                return out.extend(other.id().map(|id| (from, NodeMsg::Reply { id, response })));
            }
        },
    };
    node.handle(from, msg, out);
}

/// The wire form of a message a node sends.
pub(crate) fn wire(msg: NodeMsg) -> Message {
    match msg {
        NodeMsg::Reply { id, response } => Message::from_response(id, None, response),
        NodeMsg::Subscribe { id, range } => Message::Subscribe { id, range },
        NodeMsg::SubscribeReply { id, range, pairs } => {
            Message::SubscribeReply { id, range, pairs }
        }
        NodeMsg::Notify { key, value } => Message::Notify { key, value },
        // Nodes forward writes only, and every write has a wire form.
        NodeMsg::Request { id, command } => Message::request(id, command)
            .unwrap_or_else(|| Message::error(id, "command has no wire form")),
    }
}
