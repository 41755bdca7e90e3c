//! `pequod-net` — the wire and what carries it.
//!
//! Pequod's servers (§2.4) are not implemented here. The partitioned
//! server is [`pequod_core::Node`], one transport-agnostic
//! `handle(from, msg) -> out` state machine that
//! `pequod_cluster::ClusterNode` runs, with replication around it, as
//! one process of a deployment. This crate adds the wire and what
//! carries it.
//!
//! Components:
//!
//! * [`Message`] — the RPC vocabulary (client ops, server-to-server
//!   subscription traffic, replication traffic).
//! * [`codec`] — a hand-rolled binary wire format with length-prefixed
//!   framing.
//! * [`FrontendServer`] — the socket transport: the tree's one serving
//!   loop (one epoll thread; TCP plus an optional unix-domain socket).
//!   What answers the frames is a [`Dispatch`] hosted on that thread
//!   through [`FrontendServer::spawn_dispatch`]: `pequod_cluster`'s
//!   node, on client connections and node-to-node links alike. Every
//!   server is a cluster node; a stand-alone one is a one-node cluster,
//!   and `pequod_cluster::ClusterClient` is the client of every one.
//! * [`Swarm`] — many concurrent TCP clients driving one server, for
//!   load tests.

// Unsafe is denied crate-wide; the single exception is the `epoll(7)`
// FFI shim in `reactor::sys`, whose items carry
// `#[expect(unsafe_code, reason = …)]` and whose every unsafe block a
// `SAFETY:` comment (clippy's `undocumented_unsafe_blocks`).
#![deny(unsafe_code)]
// The serving-path rules, on non-test code (docs/CORRECTNESS.md): no
// unwrap, expect, panic! or todo!, and nothing clippy.toml disallows.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(missing_docs)]

pub mod codec;
pub mod frontend;
pub mod message;
mod outbuf;
pub mod reactor;
pub mod swarm;

pub use frontend::{FrontendConfig, FrontendServer, FrontendStats};
pub use message::Message;
pub use reactor::{Conns, Dispatch, Poller, Waker};
pub use swarm::{Swarm, SwarmConfig, SwarmReport};
