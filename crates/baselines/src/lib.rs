//! `pequod-baselines` — the comparison systems of Figure 7.
//!
//! Each system implements [`pequod_workloads::twip::TwipBackend`] and
//! runs the identical Twip workload:
//!
//! * [`ClientPequodTwip`] — the Pequod store without joins; clients fan
//!   posts out and backfill subscriptions themselves.
//! * [`RedisTwip`] — an unordered hash store with sorted-set timelines
//!   (client-managed, `O(1)` point ops).
//! * [`MemcachedTwip`] — a hash store whose only value is a string;
//!   timelines grow by slab-reallocating appends and every check
//!   transfers the whole string.
//! * [`PostgresTwip`] — Twip on [`minidb::MiniDb`], a small relational
//!   engine with B-tree indexes, WAL, and row triggers maintaining a
//!   timeline table (the paper's trigger-based materialized view).
//!
//! All backends meter their logical RPCs through the real wire codec so
//! relative RPC cost is comparable (see `pequod_workloads::rpc`).
//!
//! Each system additionally exposes a generic key-value implementation
//! of the unified `pequod_core::Client` API ([`client`]), so the same
//! command stream — and the same workload driver — runs against Pequod
//! deployments and every baseline alike.

// No first-party unsafe: the whole system is safe Rust over the
// vendored deps. Clippy's `undocumented_unsafe_blocks` would also want a
// `SAFETY:` comment on any unsafe block an allow here admitted.
#![forbid(unsafe_code)]
// The wall-clock rule, on non-test code (docs/CORRECTNESS.md): nothing
// clippy.toml disallows.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(missing_docs)]

pub mod client;
pub mod client_pequod;
pub mod memcached_like;
pub mod minidb;
pub mod pg_twip;
pub mod redis_like;

pub use client::{MemcachedClient, MiniDbClient, RedisClient};
pub use client_pequod::ClientPequodTwip;
pub use memcached_like::MemcachedTwip;
pub use minidb::MiniDb;
pub use pg_twip::PostgresTwip;
pub use redis_like::RedisTwip;
