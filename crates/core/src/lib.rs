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
//!   command/response surface implemented by the engine, the sharded
//!   engine, the write-around deployment, the cluster client, and the
//!   comparison systems.
//! * [`partition`] — key-routing (home servers, §2.4), shared between
//!   the distributed tier in `pequod_net` and the in-process sharded
//!   engine.
//! * [`node`] — [`Node`]: one server of a partitioned deployment, the
//!   §2.4 Subscribe/Notify and §3.3 park/restart state machine as a
//!   transport-agnostic `handle(from, msg) -> out`. Shard threads and
//!   the cluster simulator both run it.
//! * [`sharded`] — [`ShardedEngine`]: N nodes, one worker thread each,
//!   exchanging their messages over in-process channels, so one process
//!   scales with cores.
//! * [`fanout`] — [`Fanout`]: the one run planner of every multi-engine
//!   backend — runs of like commands, ids, routing or broadcast, and the
//!   fold of the replies — shared by the sharded engine, the network
//!   frontend and the simulated cluster's client.
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
// vendored deps. `cargo xtask audit` additionally requires a SAFETY
// comment on any future unsafe block an allow here would admit.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod client;
pub mod config;
pub mod durable;
mod engine;
mod exec;
pub mod fanout;
pub mod node;
mod paranoid;
pub mod partition;
pub mod sharded;
pub mod status;
pub mod types;
pub mod updater;

pub use client::{BackendStats, Client, Command, Response};
pub use config::{EngineConfig, EngineStats, MaterializationMode, MemoryLimit};
pub use durable::{Durability, DurableOp};
pub use engine::{BaseAuthority, Engine, EvictUnit, JS_RANGE_OVERHEAD_BYTES};
pub use fanout::{split_runs, Fanout, PendingRun, Route};
pub use node::{Endpoint, Node, NodeMsg, NodeStats};
pub use sharded::{ReplySink, ShardSubmitter, ShardedEngine, ShardedHandle};
pub use types::{CountResult, EngineError, JoinId, JsId, ScanResult, WriteKind};
