//! `pequod-persist` — durable base tables for the Pequod cache:
//! write-ahead log, snapshots, and warm restart.
//!
//! The paper's Pequod assumes base data survives somewhere else; this
//! crate makes a Pequod node able to *be* that somewhere. The design
//! follows the cache-join invariant the rest of the repo is built on:
//!
//! * **Only durable base writes are persisted.** The engine's
//!   mutation-capture hook ([`pequod_core::Durability`]) hands this
//!   crate every acknowledged authoritative base `put`/`remove` and
//!   every join installation — and nothing else. Computed (join
//!   output) ranges are never written to disk: recovery replays base
//!   writes and **re-derives**, so a restart can never serve stale
//!   joined data (the same correctness-by-recomputation rule as
//!   memory-pressure eviction, `docs/MEMORY.md`).
//! * **The log is append-only, length-prefixed, and checksummed**
//!   ([`record`]): a crash mid-write leaves a torn tail that recovery
//!   detects by CRC-32 and drops, recovering exactly the clean prefix.
//! * **Snapshots truncate the log** ([`dir`]): every `snapshot_every`
//!   records the live log segment is sealed, and a background thread
//!   folds the previous snapshot and the sealed segments into the next
//!   generation, published atomically, then deletes the older ones —
//!   keeping restart time proportional to the recent write rate
//!   without ever stopping the serving thread to copy the dataset.
//! * **Recovery is replay** ([`attach`]): newest valid snapshot, then
//!   the log tail, through the normal write path; computed ranges
//!   rebuild lazily on first read.
//!
//! See `docs/PERSISTENCE.md` for the on-disk formats, fsync policy
//! tradeoffs, and the crash-consistency test matrix
//! (`tests/crash_recovery.rs` kills a serving process mid-batch and
//! proves the recovered node answers byte-identically to a
//! never-crashed reference).

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

pub mod crc;
pub mod dir;
pub mod log;
pub mod record;
pub mod snapshot;

mod fold;
mod persister;

pub use dir::{recover, DataDir, Recovered};
#[doc(hidden)]
pub use fold::{FoldHook, FoldStep};
pub use log::{read_log, FsyncPolicy, LogTail, LogWriter};
pub use persister::{attach, replay, PersistOptions, PersistStats, Persister, RecoveryReport};
pub use record::{decode_record, encode_record, RecordError, MAX_RECORD};
pub use snapshot::{read_snapshot, write_snapshot, SnapshotData, SnapshotError};

pub use pequod_core::{Durability, DurableOp};
