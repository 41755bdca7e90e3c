//! Common identifier and result types for the engine.

use pequod_join::JoinError;
use pequod_store::{Key, KeyRange, Value};
use std::fmt;

/// Identifies an installed join within one engine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct JoinId(pub u32);

/// Identifies a join status range within one join's status map: a cell
/// of the map's slab plus the generation the cell had when the range was
/// inserted. Lookup is one indexed load; an id kept past its range's
/// removal is *stale* and never resolves, even once the cell is reused
/// for another range, because removal bumps the generation (the same
/// scheme as [`UpdaterHandle`](crate::updater::UpdaterHandle)).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct JsId {
    /// Index of the range's cell in the status map's slab.
    pub slot: u32,
    /// Generation of that cell when the range was inserted.
    pub gen: u32,
}

/// The kind of store modification delivered to an updater (§3.2: "the
/// type of change (insert new key, update existing key, or remove
/// existing key)").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteKind {
    /// A key that did not exist was inserted.
    Insert,
    /// An existing key's value was replaced.
    Update,
    /// An existing key was removed.
    Remove,
}

/// The result of a scan or get: the pairs found plus any base-data
/// ranges that were needed but not resident (§3.3). A caller that sees
/// `missing` ranges should fetch them (from the database or a home
/// server), install them with [`crate::Engine::install_base`], and
/// restart the query.
#[derive(Clone, Debug, Default)]
pub struct ScanResult {
    /// Key-value pairs in the scanned range, in key order.
    pub pairs: Vec<(Key, Value)>,
    /// Base-data ranges that must be fetched before the result is
    /// complete.
    pub missing: Vec<KeyRange>,
}

impl ScanResult {
    /// True if no base data was missing: the pairs are the full answer.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// The number of pairs returned.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no pairs were returned.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// The result of a server-side count: like [`ScanResult`] but carrying
/// only the number of matching pairs, so counting a large range never
/// materializes it for the client.
#[derive(Clone, Debug, Default)]
pub struct CountResult {
    /// Number of pairs in the counted range.
    pub count: usize,
    /// Base-data ranges that must be fetched before the count is
    /// trustworthy.
    pub missing: Vec<KeyRange>,
}

impl CountResult {
    /// True if no base data was missing: the count is the full answer.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// Errors surfaced by the engine API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The join failed to parse or validate.
    Join(JoinError),
    /// Installing the join would create a cycle with existing joins
    /// ("users should not install circular cache joins", §3).
    CircularJoin(String),
    /// The engine already holds as many joins, or the join names as many
    /// sources, as an updater entry's sixteen-bit indices can address.
    TooManyJoins,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Join(e) => write!(f, "{e}"),
            EngineError::CircularJoin(s) => write!(f, "circular cache joins: {s}"),
            EngineError::TooManyJoins => write!(f, "too many joins or join sources"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<JoinError> for EngineError {
    fn from(e: JoinError) -> Self {
        EngineError::Join(e)
    }
}
