//! Replicated Pequod deployment: primary/follower slots with epoch
//! failover, follower catch-up, and live slot migration.
//!
//! The single-process engine ([`pequod_core::Engine`]) and the
//! single-authority distributed tier (`pequod_net`) treat every key as
//! owned by exactly one server. This crate adds the missing
//! availability story:
//!
//! - [`ClusterConfig`] (`config.rs`) — the static cluster description
//!   (`nodes.toml`): node list, replication factor, slot count, timing.
//! - [`ClusterNode`] (`node.rs`) — the per-process replication state
//!   machine. Transport-agnostic: `handle(peer, msg) -> outbox` plus a
//!   logical-clock `tick`.
//! - [`SimHarness`] (`sim.rs`) — a deterministic in-memory cluster over
//!   [`pequod_net::SimNet`] with seeded fault injection, used by the
//!   protocol conformance tests.
//! - [`ClusterServer`] / [`ClusterClient`] (`server.rs`, `client.rs`)
//!   — the TCP deployment: the node hosted on `pequod_net`'s reactor
//!   thread (a [`pequod_net::Dispatch`]; client connections and peer
//!   links are both reactor connections), one dialer thread per peer
//!   with bounded backoff, and a client that learns `NotPrimary`
//!   redirects and scatter-gathers scans.
//!
//! See `docs/REPLICATION.md` for the protocol walk-through and the
//! guarantees per fsync policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod node;
pub mod server;
pub mod sim;

pub use client::{ClusterClient, ClusterClientError};
pub use config::{ClusterConfig, ClusterTiming, NodeSpec};
pub use node::{ClusterNode, ClusterPeer, ClusterStats, NO_CLEAN_ADOPT};
pub use server::ClusterServer;
pub use sim::SimHarness;
