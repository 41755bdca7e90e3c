//! **Pequod** — a distributed application-level key-value cache with
//! declaratively defined, incrementally maintained, dynamic, partially
//! materialized views ("cache joins").
//!
//! Rust reproduction of *Easy Freshness with Pequod Cache Joins*
//! (Kate, Kohler, Kester, Narula, Mao, Morris — NSDI 2014).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`store`] — ordered key-value substrate (keys, ranges, tables,
//!   subtables, interval tree, LRU).
//! * [`join`] — the cache-join language: patterns, slots, containing
//!   ranges, the Figure 2 grammar.
//! * [`core`] — the engine: query execution, incremental maintenance,
//!   invalidation, eviction; key-routing partitions.
//! * [`net`] — the wire and what carries it: codec and the reactor
//!   serving edge.
//! * [`cluster`] — the deployments: one §2.4 Subscribe/Notify node per
//!   process with replicated slots, epoch failover and migration, the
//!   one client of every server, its simulator over a seeded message
//!   fabric and its TCP server (`pequod-server`); the write-around
//!   deployment is a two-node cluster
//!   ([`ClusterClient::write_around`](crate::cluster::ClusterClient::write_around)).
//! * [`persist`] — durable base tables: checksummed write-ahead log,
//!   snapshots with log truncation, warm restart
//!   (`pequod-server --data-dir`); computed join ranges are never
//!   persisted — recovery replays base writes and re-derives.
//! * [`telemetry`] — runtime metrics: lock-free counters and latency
//!   histograms behind a no-op-when-disabled recorder, the flight
//!   recorder of recent notable events, and the Prometheus scrape
//!   listener (`pequod-server --metrics-addr`).
//! * [`workloads`] — Twip and Newp applications and workload
//!   generators.
//! * [`baselines`] — the comparison systems of the paper's Figure 7.
//!
//! # One client surface, many backends
//!
//! Every deployment shape implements the batched
//! [`Client`](crate::core::Client) trait — one
//! [`Command`](crate::core::Command)/[`Response`](crate::core::Response)
//! vocabulary over the in-process engine, the write-around deployment,
//! a partitioned cluster, and the baseline stores — so the same code
//! drives any of them:
//!
//! ```
//! use pequod::prelude::*;
//!
//! // Write once against `dyn Client`...
//! fn timeline_demo(client: &mut dyn Client) -> u64 {
//!     client
//!         .add_join(
//!             "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>",
//!         )
//!         .unwrap();
//!     client.execute_batch(vec![
//!         Command::Put(Key::from("s|ann|bob"), Value::from_static(b"1")),
//!         Command::Put(Key::from("p|bob|0000000100"), Value::from_static(b"Hi")),
//!     ]);
//!     // Counts are served server-side: no pairs cross the boundary.
//!     client.count(&KeyRange::prefix("t|ann|"))
//! }
//!
//! // ...run it against an in-process engine...
//! assert_eq!(timeline_demo(&mut Engine::new_default()), 1);
//!
//! // ...or a cache in front of a database, unchanged.
//! let mut wa = pequod::cluster::ClusterClient::write_around(Engine::new_default(), &["p|", "s|"]);
//! assert_eq!(timeline_demo(&mut wa), 1);
//! ```
//!
//! `pequod::cluster::ClusterClient` (a partitioned,
//! replicated cluster — over sockets or simulated — pipelining each
//! batch as one frame per destination node), and the
//! join-less baseline stores in [`baselines`] plug into the same
//! function; see `examples/unified_clients.rs`,
//! `tests/client_conformance.rs`, and `docs/ARCHITECTURE.md`.

// No first-party unsafe: the whole system is safe Rust over the
// vendored deps. Clippy's `undocumented_unsafe_blocks` would also want a
// `SAFETY:` comment on any unsafe block an allow here admitted.
#![forbid(unsafe_code)]
// The wall-clock rule, on non-test code (docs/CORRECTNESS.md): nothing
// clippy.toml disallows.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

pub use pequod_baselines as baselines;
pub use pequod_cluster as cluster;
pub use pequod_core as core;
pub use pequod_join as join;
pub use pequod_net as net;
pub use pequod_persist as persist;
pub use pequod_store as store;
pub use pequod_telemetry as telemetry;
pub use pequod_workloads as workloads;

/// The most common imports.
pub mod prelude {
    pub use pequod_core::{
        BackendStats, Client, Command, Engine, EngineConfig, MaterializationMode, MemoryLimit,
        Response, ScanResult,
    };
    pub use pequod_join::{JoinSpec, Maintenance, Operator};
    pub use pequod_store::{Key, KeyRange, Store, StoreConfig, UpperBound, Value};
}
