//! Durability hooks: the engine-side half of the `pequod-persist`
//! subsystem.
//!
//! Pequod is a cache, but its *base* tables are often the only copy of
//! the application's data in a deployment (the paper assumes the data
//! survives "elsewhere"; our reproduction makes the cache itself able
//! to provide that elsewhere). The engine therefore exposes a
//! mutation-capture hook: every acknowledged **durable base write** —
//! a client `put`/`remove` against a base table the engine is the
//! authority for, or a join installation — is handed to an installed
//! [`Durability`] implementation *after* it is applied and *before* it
//! is acknowledged.
//!
//! What is deliberately **never** captured:
//!
//! * writes to computed (join-output) tables — recovery replays base
//!   writes and re-derives; persisting join outputs blindly would risk
//!   serving stale derived data after a restart,
//! * replica writes (keys another server is the authority
//!   for), which the authority's own log already covers, and
//! * internal maintenance writes (updater output, `install_base`
//!   fetches), which are derived state by construction.
//!
//! The concrete implementation — an append-only checksummed
//! write-ahead log with periodic snapshots — lives in the
//! `pequod_persist` crate; `core` only defines the vocabulary so the
//! engine does not depend on any storage backend.

use pequod_store::{Key, Value};

/// One durable base mutation, in acknowledgment order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DurableOp {
    /// Insert or replace of a base pair.
    Put(Key, Value),
    /// Removal of a base key.
    Remove(Key),
    /// Installation of a cache join, by its textual spec (the Figure 2
    /// grammar round-trips through `JoinSpec`'s `Display`).
    AddJoin(String),
}

/// A sink for durable base mutations, installed with
/// [`Engine::set_durability`](crate::Engine::set_durability).
///
/// The engine calls [`log`](Durability::log) once per captured
/// mutation. When `log` returns `true` the engine immediately collects
/// its durable state (join texts plus authoritative base pairs, see
/// [`Engine::durable_state`](crate::Engine::durable_state)) and calls
/// [`snapshot`](Durability::snapshot) with it — that is how a log
/// implementation asks for a compaction point without ever holding a
/// reference to the engine. That copy runs on the serving thread and
/// grows with the dataset; `pequod_persist`'s sink never asks for it,
/// and folds its sealed log segments into snapshots in the background
/// instead.
pub trait Durability: Send {
    /// Records one acknowledged mutation. Returns `true` to request an
    /// immediate snapshot of the engine's durable state.
    fn log(&mut self, op: &DurableOp) -> bool;

    /// Receives a full snapshot of durable state: installed join texts
    /// (in installation order) and every authoritative base pair.
    fn snapshot(&mut self, joins: &[String], pairs: &[(Key, Value)]);

    /// Forces buffered log records to stable storage, regardless of the
    /// sink's fsync policy. Called by
    /// [`Engine::sync_durability`](crate::Engine::sync_durability) on
    /// graceful shutdown and by replication before acknowledging a
    /// catch-up point. Default: no-op (for sinks without buffering).
    fn sync(&mut self) {}
}
