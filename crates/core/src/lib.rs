//! `pequod-core` — the Pequod cache engine.
//!
//! This crate implements the heart of Pequod (NSDI '14): a single-server
//! ordered key-value cache that executes and incrementally maintains
//! *cache joins*.
//!
//! # Quick start
//!
//! ```
//! use pequod_core::Engine;
//! use pequod_store::KeyRange;
//!
//! let mut engine = Engine::new_default();
//! // The Twip timeline join: timelines are copies of posts by followed
//! // users (fixed-width 10-digit timestamps).
//! engine
//!     .add_join_text(
//!         "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>",
//!     )
//!     .unwrap();
//! // Base data: ann follows bob; bob tweets.
//! engine.put("s|ann|bob", "1");
//! engine.put("p|bob|0000000100", "Hi");
//! // Reading ann's timeline materializes it...
//! let tl = engine.scan(&KeyRange::prefix("t|ann|"));
//! assert_eq!(tl.pairs.len(), 1);
//! // ...and later posts are pushed into it incrementally.
//! engine.put("p|bob|0000000120", "again");
//! let tl = engine.scan(&KeyRange::prefix("t|ann|"));
//! assert_eq!(tl.pairs.len(), 2);
//! ```
//!
//! # Structure
//!
//! * [`Engine`] — the public API: `get`/`put`/`remove`/`scan`/`count`/
//!   `add_join`, plus remote-table residency ([`Engine::install_base`])
//!   and eviction.
//! * [`client`] — the unified [`Client`] trait: one batched
//!   command/response surface implemented by the engine, the
//!   write-around deployment, the cluster client, and the comparison
//!   systems.
//! * [`partition`] — key-routing (home servers, §2.4) for the
//!   partitioned deployments in `pequod_cluster`.
//! * [`status`] — join status ranges: which output ranges are
//!   materialized and whether they are valid (§3.2).
//! * [`updater`] — the interval-tree index of incremental-maintenance
//!   hooks, with updater coalescing and output hints (§3.2, §4.2).
//! * [`aggregate`] — `count`/`sum`/`min`/`max` value handling.
//! * [`config`] — materialization modes and the optimization toggles
//!   measured in the paper's ablations.
//! * [`durable`] — the mutation-capture hook `pequod_persist` plugs
//!   into: every acknowledged durable base write (never computed
//!   ranges, never replicas) reaches an installed [`Durability`] sink.

// No first-party unsafe: the whole system is safe Rust over the
// vendored deps. Clippy's `undocumented_unsafe_blocks` would also want a
// `SAFETY:` comment on any unsafe block an allow here admitted.
#![forbid(unsafe_code)]
// The serving-path rules, on non-test code (docs/CORRECTNESS.md): no
// unwrap, expect, panic! or todo!, and nothing clippy.toml disallows.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(missing_docs)]

pub mod aggregate;
pub mod client;
pub mod config;
pub mod durable;
mod engine;
mod exec;
mod paranoid;
pub mod partition;
pub mod status;
pub mod types;
pub mod updater;

pub use client::{BackendStats, Client, Command, Response};
pub use config::{EngineConfig, EngineStats, MaterializationMode, MemoryLimit};
pub use durable::{Durability, DurableOp};
pub use engine::{BaseAuthority, Engine, EvictUnit, JS_RANGE_OVERHEAD_BYTES};
pub use types::{CountResult, EngineError, JoinId, JsId, ScanResult, WriteKind};
