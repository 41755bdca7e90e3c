//! Engine configuration: materialization policy and the optimization
//! toggles measured by the paper's ablations.

use pequod_store::StoreConfig;

/// Global materialization strategy (§5.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MaterializationMode {
    /// The paper's strategy: compute on demand, then keep
    /// recently-accessed ranges eagerly and incrementally updated.
    #[default]
    Dynamic,
    /// Materialize every join's full output range at install time and
    /// keep all of it up to date ("full materialization").
    Full,
    /// Never cache computed data; every query recomputes from base data
    /// ("no materialization").
    None,
}

/// A memory budget for one engine (§2.5): automatic LRU eviction keeps
/// the estimated resident footprint under a hard cap.
///
/// There is one number, the cap. Whenever an operation's maintenance
/// finds the footprint above it, least-recently-used evictable units
/// (materialized join ranges, cached base data) are dropped until the
/// footprint is back at or under the cap, and no further: an operation
/// evicts about what it grew, so the cost of staying bounded is spread
/// over the operations that cause it instead of landing on one of them in
/// a lump. Evicted computed data is transparently recomputed on the next
/// read, so a memory-bounded engine answers every query exactly like an
/// unbounded one — it just pays recomputation for cold ranges.
///
/// ```
/// use pequod_core::config::MemoryLimit;
///
/// let limit = MemoryLimit::new(1 << 20); // 1 MiB cap
/// assert_eq!(limit.high_bytes, 1 << 20);
/// assert_eq!(MemoryLimit::mb(4).high_bytes, 4 << 20);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemoryLimit {
    /// The hard cap: eviction runs while estimated memory exceeds it.
    pub high_bytes: usize,
}

impl MemoryLimit {
    /// A cap in bytes.
    pub fn new(cap_bytes: usize) -> MemoryLimit {
        MemoryLimit {
            high_bytes: cap_bytes,
        }
    }

    /// A cap in mebibytes (the unit of the servers' `--mem-limit-mb`).
    pub fn mb(megabytes: usize) -> MemoryLimit {
        MemoryLimit::new(megabytes << 20)
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Materialization strategy; `Dynamic` is Pequod's.
    pub materialization: MaterializationMode,
    /// Output hints (§4.2): cache the last aggregate output per updater,
    /// avoiding a store lookup per maintenance event.
    pub output_hints: bool,
    /// Value sharing (§4.3): `copy` outputs share the source's buffer;
    /// disabling forces a private copy per output (memory ablation).
    pub value_sharing: bool,
    /// Lazy maintenance for `check` sources (§3.2): log the modification
    /// and apply at read time. Disabling applies check modifications
    /// eagerly at write time.
    pub lazy_checks: bool,
    /// A join status range with more pending logged modifications than
    /// this falls back to complete invalidation.
    pub pending_log_limit: usize,
    /// Memory-bounded serving (§2.5): when set, the engine evicts
    /// least-recently-used computed ranges and cached base data to keep
    /// [`Engine::memory_bytes`](crate::Engine::memory_bytes) under the
    /// cap; evicted data is transparently recomputed (or refetched) on
    /// the next read. `None` (the default) disables automatic eviction.
    pub mem_limit: Option<MemoryLimit>,
    /// Table layout (subtable splits, §4.1).
    pub store: StoreConfig,
    /// Deep invariant checking: after every public read or write the
    /// engine cross-checks its O(1) counters and index structures
    /// against full recomputation
    /// ([`Engine::check_invariants`](crate::Engine::check_invariants))
    /// and panics on the first disagreement. Defaults to on when built with the `paranoid`
    /// feature (conformance and stress runs) and off otherwise;
    /// `pequod-server --paranoid` turns it on at runtime.
    pub paranoid: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            materialization: MaterializationMode::Dynamic,
            output_hints: true,
            value_sharing: true,
            lazy_checks: true,
            pending_log_limit: 64,
            mem_limit: None,
            store: StoreConfig::flat(),
            paranoid: cfg!(feature = "paranoid"),
        }
    }
}

impl EngineConfig {
    /// Dynamic materialization with the given store layout.
    pub fn with_store(store: StoreConfig) -> EngineConfig {
        EngineConfig {
            store,
            ..EngineConfig::default()
        }
    }

    /// Returns this configuration with a memory cap installed
    /// (see [`MemoryLimit`]).
    pub fn with_mem_limit(mut self, limit: MemoryLimit) -> EngineConfig {
        self.mem_limit = Some(limit);
        self
    }
}

/// Per-engine operation counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Client-visible scans served.
    pub scans: u64,
    /// Client-visible writes applied.
    pub writes: u64,
    /// Join executions (fresh computations of a gap or pull query).
    pub join_execs: u64,
    /// Output pairs produced by join executions.
    pub exec_outputs: u64,
    /// Updater fires that maintained nothing: an eager updater whose
    /// output lay outside its status range, or a logged modification
    /// that could reach no output of its range. An updater watches its
    /// source's whole determined prefix, so a write there that the
    /// range's own part of the source does not cover lands here.
    pub spurious_fires: u64,
    /// Eager maintenance operations applied (copy/aggregate updates).
    pub eager_updates: u64,
    /// Modifications logged for lazy application (partial invalidation).
    pub mods_logged: u64,
    /// Logged modifications applied at read time.
    pub mods_applied: u64,
    /// Complete invalidations of join status ranges.
    pub complete_invalidations: u64,
    /// Join status ranges materialized.
    pub ranges_materialized: u64,
    /// Aggregate updates answered from an output hint (§4.2).
    pub hint_hits: u64,
    /// Join status ranges evicted.
    pub js_evictions: u64,
    /// Base tables evicted.
    pub base_evictions: u64,
    /// Highest estimated memory observed by limit maintenance (0 when no
    /// memory limit is configured — unbounded engines never measure).
    pub peak_memory_bytes: u64,
}
