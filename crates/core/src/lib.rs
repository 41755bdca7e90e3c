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
//! * [`partition`] — key-routing (home servers, §2.4), shared between
//!   the replicated cluster in `pequod_cluster` and the write-around
//!   deployment.
//! * [`node`] — [`Node`]: one server of a partitioned deployment, the
//!   §2.4 Subscribe/Notify and §3.3 park/restart state machine as a
//!   transport-agnostic `handle(from, msg) -> out`. The write-around
//!   deployment and the cluster's nodes both run it; a deployment uses
//!   more cores by running more cluster processes, one per core.
//! * [`write_around`] — [`WriteAround`]: a cache in front of a database
//!   (§2), as two nodes on the caller's thread — the database is the
//!   home of its tables and notifies the cache of writes to the ranges
//!   it subscribed to.
//! * [`fanout`] — [`Fanout`]: the cluster client's run planner — runs
//!   of like commands, ids, routing or broadcast, and the fold of the
//!   replies.
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
pub mod status;
pub mod types;
pub mod updater;
pub mod write_around;

pub use client::{BackendStats, Client, Command, Response};
pub use config::{EngineConfig, EngineStats, MaterializationMode, MemoryLimit};
pub use durable::{Durability, DurableOp};
pub use engine::{BaseAuthority, Engine, EvictUnit, JS_RANGE_OVERHEAD_BYTES};
pub use fanout::{split_runs, Fanout, PendingRun, Route};
pub use node::{Endpoint, Node, NodeMsg, NodeStats};
pub use types::{CountResult, EngineError, JoinId, JsId, ScanResult, WriteKind};
pub use write_around::WriteAround;

/// The write-around deployment end to end, through the [`Client`] API
/// and the counters of its two nodes.
#[cfg(test)]
mod tests {
    use super::*;
    use pequod_store::{Key, KeyRange, Value};

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

    fn twip() -> WriteAround {
        let mut engine = Engine::new(EngineConfig::default());
        engine.add_join_text(TIMELINE).unwrap();
        WriteAround::new(engine, &["p|", "s|"])
    }

    fn put(wa: &mut WriteAround, key: &str, value: &'static str) {
        Client::put(wa, &Key::from(key), &Value::from_static(value.as_bytes()));
    }

    #[test]
    fn write_around_timeline_end_to_end() {
        let mut wa = twip();

        // Application writes go to the database only.
        put(&mut wa, "s|ann|bob", "1");
        put(&mut wa, "p|bob|0000000100", "Hi");
        assert_eq!(wa.cache().engine.store_stats().keys, 0);

        // A timeline read pulls base data from the database and computes.
        assert_eq!(wa.scan(&KeyRange::prefix("t|ann|")).len(), 1);
        let fetches = wa.cache().stats.subs_established;
        assert!(fetches >= 2); // subscriptions + posts

        // A later database write is forwarded by a Notify and
        // incrementally maintained — no further fetches.
        put(&mut wa, "p|bob|0000000120", "again");
        assert_eq!(wa.scan(&KeyRange::prefix("t|ann|")).len(), 2);
        assert_eq!(wa.cache().stats.subs_established, fetches);
    }

    #[test]
    fn write_around_deletion_propagates() {
        let mut wa = twip();
        put(&mut wa, "s|ann|bob", "1");
        put(&mut wa, "p|bob|0000000100", "Hi");
        assert_eq!(wa.scan(&KeyRange::prefix("t|ann|")).len(), 1);
        wa.remove(&Key::from("p|bob|0000000100"));
        assert_eq!(wa.scan(&KeyRange::prefix("t|ann|")).len(), 0);
    }

    #[test]
    fn client_api_batches_and_counts_server_side() {
        let mut wa = twip();
        let responses = wa.execute_batch(vec![
            Command::Put(Key::from("s|ann|bob"), Value::from_static(b"1")),
            Command::Put(Key::from("p|bob|0000000100"), Value::from_static(b"Hi")),
            // A read inside the batch observes the batch's own writes.
            Command::Count(KeyRange::prefix("t|ann|")),
            Command::Get(Key::from("t|ann|0000000100|bob")),
        ]);
        assert_eq!(responses[0], Response::Ok);
        assert_eq!(responses[2], Response::Count(1));
        assert_eq!(
            responses[3],
            Response::Value(Some(Value::from_static(b"Hi")))
        );
        // A write-only batch has reached the cache when it returns.
        let applied = wa.cache().stats.notifies_applied;
        wa.execute_batch(vec![Command::Put(
            Key::from("p|bob|0000000120"),
            Value::from_static(b"again"),
        )]);
        assert_eq!(wa.cache().stats.notifies_applied, applied + 1);
        assert_eq!(Client::count(&mut wa, &KeyRange::prefix("t|ann|")), 2);
    }

    #[test]
    fn write_around_point_reads() {
        let mut wa = WriteAround::new(Engine::new(EngineConfig::default()), &["acct|"]);
        put(&mut wa, "acct|ann", "1000");
        assert_eq!(
            wa.get(&Key::from("acct|ann")).as_deref(),
            Some(&b"1000"[..])
        );
        assert_eq!(wa.get(&Key::from("acct|zed")), None);
        // Cached now: a database update still reaches the cache by notify.
        put(&mut wa, "acct|ann", "900");
        assert_eq!(wa.get(&Key::from("acct|ann")).as_deref(), Some(&b"900"[..]));
        assert_eq!(wa.cache().stats.notifies_applied, 1);
    }
}
