//! The Pequod engine: an ordered key-value cache with installed cache
//! joins, dynamic materialization, and incremental maintenance.
//!
//! One `Engine` corresponds to one single-threaded Pequod server process
//! (the paper's servers are single-threaded and event-driven). All public
//! operations take `&mut self`; cross-server concurrency lives in
//! `pequod-net`.
//!
//! The write path (this file) applies a store modification and dispatches
//! the updaters whose source ranges contain the key: eager maintenance
//! for `copy` and aggregate sources, lazy invalidation for `check`
//! sources (§3.2). The read path (`exec.rs`) validates join status
//! ranges, executing joins over gaps and applying pending logged
//! modifications.

use crate::aggregate::{fmt_num, parse_num};
use crate::config::{EngineConfig, EngineStats, MaterializationMode, MemoryLimit};
use crate::durable::{Durability, DurableOp};
use crate::status::{JsState, LoggedMod, StatusMap};
use crate::types::{EngineError, JoinId, JsId, WriteKind};
use crate::updater::{OutputHint, UpdaterHandle, UpdaterIndex};
use pequod_join::{JoinSpec, Operator, SlotSet};
use pequod_store::{
    Key, KeyRange, LruHandle, LruTracker, RangeSet, Store, StoreStats, UpperBound, Value,
};
use pequod_telemetry::{OpKind, RateHandle, Recorder, Timer};
use std::collections::HashMap;
use std::sync::Arc;

/// An evictable unit: a materialized join range or a remote/DB-backed
/// table's cached base data (§2.5). The LRU list stores these; the
/// handle to a unit's list cell lives with the unit itself
/// ([`JsRange::lru`](crate::status::JsRange), `RemoteTable::lru`), so a
/// touch never searches for it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvictUnit {
    /// A join status range (computed data).
    Js(u32, JsId),
    /// Cached base data of a remote table, by table prefix.
    Base(Key),
}

/// Estimated bookkeeping bytes per materialized join status range, used
/// by [`Engine::memory_bytes`]. This is the *logical* estimate eviction
/// decisions are made against — two range-bound keys, the state/clock
/// words, the updater-handle list and the range's LRU cell, about 96
/// bytes — and it is deliberately held constant across layout changes so
/// that a given workload evicts the same ranges at the same moments;
/// `docs/MEMORY.md` lists what a range occupies physically. The updater
/// entries a range owns are accounted separately
/// (`UpdaterIndex::approx_bytes`); its pending logged modifications are
/// accounted nowhere — a log is at most `pending_log_limit` short
/// records and is gone at the range's next read.
pub const JS_RANGE_OVERHEAD_BYTES: usize = 96;

/// A remote or database-backed table's residency bookkeeping.
#[derive(Default)]
pub(crate) struct RemoteTable {
    /// The ranges of the table whose data is cached here.
    pub(crate) resident: RangeSet,
    /// The table's cell in the LRU list once a read has registered it;
    /// stale after base-data eviction popped it, until the next read.
    pub(crate) lru: Option<LruHandle>,
}

/// One `(join, source)` pair's view of the key being written, computed
/// at most once per write however many updater entries share the pair.
struct SourceMatch {
    jidx: usize,
    source_idx: usize,
    /// The slots the source pattern binds from the key; `None` if the
    /// key does not have the pattern's shape.
    from_key: Option<SlotSet>,
}

/// Decides whether this engine is the *authority* for a base key (the
/// deployment's partition homes the key here). Authoritative rows are
/// never dropped by base-data eviction: nobody else has them.
pub type BaseAuthority = Arc<dyn Fn(&Key) -> bool + Send + Sync>;

/// The Pequod cache engine.
pub struct Engine {
    pub(crate) store: Store,
    pub(crate) joins: Vec<Arc<JoinSpec>>,
    pub(crate) status: Vec<StatusMap>,
    pub(crate) updaters: UpdaterIndex,
    /// Remote or database-backed tables, by table prefix.
    pub(crate) remote: HashMap<Key, RemoteTable>,
    pub(crate) lru: LruTracker<EvictUnit>,
    pub(crate) config: EngineConfig,
    pub(crate) clock: u64,
    pub(crate) stats: EngineStats,
    /// Partition-aware base-data ownership (cluster and write-around
    /// deployments); `None` means all cached base data is a replica of
    /// some backing authority and may be dropped wholesale.
    pub(crate) base_authority: Option<BaseAuthority>,
    /// Mutation-capture sink for durable base writes (`pequod-persist`
    /// installs its write-ahead log here); `None` means volatile.
    pub(crate) durability: Option<Box<dyn Durability>>,
    /// Telemetry sink; disabled by default, in which case every
    /// recording call is a no-op (no atomics, no clock reads).
    pub(crate) recorder: Recorder,
    /// Cached per-table rate handles so the hot path never takes the
    /// recorder's registration mutex.
    pub(crate) rate_handles: HashMap<Key, RateHandle>,
}

/// Marks a remote table's cached base data as just used, registering it
/// with the LRU list if no live cell tracks it (first read, or first
/// read since eviction popped it).
fn touch_base(lru: &mut LruTracker<EvictUnit>, prefix: &[u8], table: &mut RemoteTable) {
    if !table.lru.is_some_and(|h| lru.touch(h)) {
        table.lru = Some(lru.insert(EvictUnit::Base(Key::from(prefix))));
    }
}

/// Reports, into `missing`, the parts of `range` that lie in remote
/// tables and are not resident, and marks the tables it touches as just
/// used. Over the two fields it changes, so that forward execution can
/// call it while it reads the store.
///
/// A gap already inside a reported range is not reported again. The gaps
/// of one table arrive sorted and disjoint, so they are merged against
/// the reported ranges that overlap the table, sorted once, in a single
/// pass: a whole-table read over a table resident in 30k fragments costs
/// milliseconds, not the seconds a search of `missing` per gap took.
pub(crate) fn check_residency(
    remote: &mut HashMap<Key, RemoteTable>,
    lru: &mut LruTracker<EvictUnit>,
    range: &KeyRange,
    missing: &mut Vec<KeyRange>,
) {
    for (prefix, table) in remote {
        let table_range = KeyRange::prefix(prefix.clone());
        let clip = table_range.intersect(range);
        if clip.is_empty() {
            continue;
        }
        touch_base(lru, prefix.as_bytes(), table);
        let mut known: Vec<&KeyRange> = missing.iter().filter(|m| m.overlaps(&clip)).collect();
        known.sort_unstable_by(|a, b| a.first.cmp(&b.first));
        let mut known = known.into_iter().peekable();
        // The furthest end of the reported ranges that start at or below
        // the gap: the gap is inside one of them exactly when it ends
        // there or before.
        let mut reach: Option<&UpperBound> = None;
        let mut fresh = Vec::new();
        for gap in table.resident.uncovered(&clip) {
            while let Some(m) = known.next_if(|m| m.first <= gap.first) {
                reach = reach.max(Some(&m.end));
            }
            if !gap.is_empty() && reach.is_none_or(|end| *end < gap.end) {
                fresh.push(gap);
            }
        }
        missing.extend(fresh);
    }
}

/// [`Engine::is_durable_base`] over the two fields it reads, so a store
/// scan (which borrows the store mutably) can apply it per pair.
fn durable_base(joins: &[Arc<JoinSpec>], authority: &Option<BaseAuthority>, key: &Key) -> bool {
    if joins.iter().any(|j| j.output_range().contains(key)) {
        return false;
    }
    match authority {
        Some(authority) => authority(key),
        None => true,
    }
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Engine {
        Engine {
            store: Store::new(config.store.clone()),
            joins: Vec::new(),
            status: Vec::new(),
            updaters: UpdaterIndex::new(),
            remote: HashMap::new(),
            lru: LruTracker::new(),
            config,
            clock: 0,
            stats: EngineStats::default(),
            base_authority: None,
            durability: None,
            recorder: Recorder::disabled(),
            rate_handles: HashMap::new(),
        }
    }

    /// Creates an engine with default (dynamic-materialization) config.
    pub fn new_default() -> Engine {
        Engine::new(EngineConfig::default())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Installs a telemetry recorder. All subsequent operations feed
    /// it; pass [`Recorder::disabled`] to turn recording back off.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
        self.rate_handles.clear();
    }

    /// The engine's telemetry recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Records one completed public operation and, after it, the levels
    /// a live server is watched by: the memory estimate a limit is held
    /// against and the counts it is made of. A disabled recorder makes
    /// both no-ops.
    pub(crate) fn observed(&self, kind: OpKind, timer: &Timer) {
        self.recorder.observe_op(kind, timer);
        if self.recorder.is_enabled() {
            self.recorder.set_engine_levels([
                self.memory_bytes() as u64,
                self.updaters.entry_count() as u64,
                self.updaters.node_count() as u64,
                self.materialized_ranges() as u64,
                self.store.stats().keys as u64,
                self.stats.spurious_fires,
            ]);
        }
    }

    /// The cached per-table rate handle for `key`'s table, registering
    /// it on first sight. No-op handles when the recorder is disabled.
    pub(crate) fn rate_for(&mut self, key: &Key) -> &RateHandle {
        let table = key.table_prefix_bytes();
        if !self.rate_handles.contains_key(table) {
            let table = key.table_prefix();
            let handle = self.recorder.rate_handle(&table.to_string());
            self.rate_handles.insert(table, handle);
        }
        &self.rate_handles[table]
    }

    /// Operation counters.
    ///
    /// Named `engine_stats` (not `stats`) on purpose: the
    /// [`Client`](crate::Client) trait also has a `stats` method on
    /// `Engine` returning
    /// [`BackendStats`](crate::BackendStats), and an identically named
    /// inherent method made every `self.stats()` inside client
    /// plumbing a resolution puzzle (see
    /// [`Engine::backend_stats`]).
    pub fn engine_stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Store-level counters (keys, bytes).
    pub fn store_stats(&self) -> &StoreStats {
        self.store.stats()
    }

    /// Read-only access to the underlying store (testing/diagnostics).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Number of installed joins.
    pub fn join_count(&self) -> usize {
        self.joins.len()
    }

    /// The spec of an installed join.
    pub fn join(&self, id: JoinId) -> &JoinSpec {
        &self.joins[id.0 as usize]
    }

    /// Number of live updater entries.
    pub fn updater_entries(&self) -> usize {
        self.updaters.entry_count()
    }

    /// Number of updater index nodes: the distinct source ranges the
    /// entries are chained on.
    pub fn updater_nodes(&self) -> usize {
        self.updaters.node_count()
    }

    /// Number of materialized join status ranges across all joins.
    pub fn materialized_ranges(&self) -> usize {
        self.status.iter().map(|s| s.len()).sum()
    }

    /// The engine's logical clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Advances the logical clock (drives `snapshot T` expiry).
    pub fn tick(&mut self, n: u64) {
        self.clock += n;
    }

    /// Estimated resident memory: store data plus maintenance
    /// bookkeeping (updaters and join status ranges; see
    /// [`JS_RANGE_OVERHEAD_BYTES`] for the per-range estimate).
    pub fn memory_bytes(&self) -> usize {
        self.store.memory_bytes()
            + self.updaters.approx_bytes()
            + self.materialized_ranges() * JS_RANGE_OVERHEAD_BYTES
    }

    /// The configured memory limit, if any.
    pub fn mem_limit(&self) -> Option<MemoryLimit> {
        self.config.mem_limit
    }

    /// Installs (or clears) the memory limit, returning the previous
    /// one. Deployments use this to suspend eviction around operations
    /// that must observe a stable store (e.g. granting a subscription),
    /// and servers use it to apply `--mem-limit-mb` at startup.
    pub fn set_mem_limit(&mut self, limit: Option<MemoryLimit>) -> Option<MemoryLimit> {
        std::mem::replace(&mut self.config.mem_limit, limit)
    }

    /// This engine's [`BackendStats`](crate::BackendStats) snapshot —
    /// what every engine-backed [`Client::stats`](crate::Client::stats)
    /// is made of. One definition so the engine, write-around, and
    /// cluster backends cannot drift.
    pub fn backend_stats(&self) -> crate::BackendStats {
        crate::BackendStats {
            keys: self.store.stats().keys as u64,
            memory_bytes: self.memory_bytes() as u64,
            js_evictions: self.stats.js_evictions,
            base_evictions: self.stats.base_evictions,
        }
    }

    /// Declares which base keys this engine is the *authority* for.
    ///
    /// In a clustered or write-around deployment, a partitioned
    /// table's rows at their home engine are the only copy; base-data
    /// eviction must not drop them (dropping a *replica* is safe — the
    /// home still has it, and the next read refetches). The deployment
    /// installs its partition function here; an engine without an
    /// authority predicate treats all cached base data as replicas of
    /// some backing store and may drop it wholesale.
    pub fn set_base_authority(&mut self, authority: impl Fn(&Key) -> bool + Send + Sync + 'static) {
        self.base_authority = Some(Arc::new(authority));
    }

    // ------------------------------------------------------------------
    // Durability (mutation capture; see `crate::durable`)
    // ------------------------------------------------------------------

    /// Installs a durability sink. From now on every acknowledged
    /// durable base mutation — a `put`/`remove` of a key this engine is
    /// the authority for that is not in any join's output range, and
    /// every newly installed join — is passed to
    /// [`Durability::log`] *after* it is applied. Install the sink
    /// **after** recovery replay, or replay will be re-logged.
    pub fn set_durability(&mut self, durability: Box<dyn Durability>) {
        self.durability = Some(durability);
    }

    /// Removes and returns the durability sink, making the engine
    /// volatile again.
    pub fn take_durability(&mut self) -> Option<Box<dyn Durability>> {
        self.durability.take()
    }

    /// True if a durability sink is installed.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Flushes buffered WAL records to stable storage
    /// ([`Durability::sync`]), regardless of the sink's fsync policy.
    /// No-op without a sink.
    pub fn sync_durability(&mut self) {
        if let Some(d) = &mut self.durability {
            d.sync();
        }
    }

    /// Graceful-shutdown finalization: takes a final snapshot of
    /// durable state and forces it (and any remaining log tail) to
    /// stable storage, so a restart recovers from the snapshot without
    /// replaying the log. No-op without a sink.
    pub fn finalize_durability(&mut self) {
        let Some(mut durability) = self.durability.take() else {
            return;
        };
        let (joins, pairs) = self.durable_state();
        durability.snapshot(&joins, &pairs);
        durability.sync();
        self.durability = Some(durability);
    }

    /// Whether a write to `key` is a *durable base* write: the key is
    /// not in any installed join's output range (computed data is
    /// re-derived, never persisted) and this engine is its authority
    /// (replicas are the authority's log's responsibility).
    pub fn is_durable_base(&self, key: &Key) -> bool {
        durable_base(&self.joins, &self.base_authority, key)
    }

    /// The engine's durable state: installed join texts (installation
    /// order) and every authoritative base pair, read raw from the
    /// store — no validation, no recomputation, no residency changes.
    /// This is exactly what a snapshot persists; everything else
    /// (computed ranges, pending logged modifications, replica data)
    /// rebuilds on demand after recovery.
    pub fn durable_state(&mut self) -> (Vec<String>, Vec<(Key, Value)>) {
        let joins: Vec<String> = self.joins.iter().map(|j| j.to_string()).collect();
        // Filter inside the scan: computed and replica pairs (on a warm
        // Twip server, nearly all of them) are never cloned.
        let (specs, authority) = (&self.joins, &self.base_authority);
        let mut pairs = Vec::new();
        self.store.scan(&KeyRange::all(), |k, v| {
            if durable_base(specs, authority, k) {
                pairs.push((k.clone(), v.to_value()));
            }
            true
        });
        (joins, pairs)
    }

    /// Hands one captured mutation to the durability sink; if the sink
    /// asks for a snapshot, collects durable state and delivers it. The
    /// sink is taken out for the call so `durable_state` can borrow the
    /// engine.
    fn persist_op(&mut self, op: &DurableOp) {
        if self.config.paranoid {
            // Base-authority <-> durability: only base rows this engine
            // is the authority for may reach the write-ahead log. A
            // computed or replicated key here means a caller bypassed
            // the is_durable_base gate and recovery would double-apply.
            if let DurableOp::Put(k, _) | DurableOp::Remove(k) = op {
                assert!(
                    self.is_durable_base(k),
                    "paranoid: computed or non-authoritative key {k:?} reached the WAL hook"
                );
            }
        }
        let Some(mut durability) = self.durability.take() else {
            return;
        };
        if durability.log(op) {
            let (joins, pairs) = self.durable_state();
            durability.snapshot(&joins, &pairs);
        }
        self.durability = Some(durability);
    }

    // ------------------------------------------------------------------
    // Join installation
    // ------------------------------------------------------------------

    /// Installs a validated join (the "addjoin" RPC). Rejects joins that
    /// would form a cycle with already-installed joins. Under
    /// [`MaterializationMode::Full`] the join's entire output range is
    /// materialized immediately.
    ///
    /// Installation is **idempotent**: a spec textually identical to an
    /// already-installed join returns the existing [`JoinId`] instead
    /// of installing a second copy (which would double-fire
    /// maintenance). Idempotence is what lets durable recovery and
    /// server restarts replay `addjoin` safely.
    pub fn add_join(&mut self, spec: JoinSpec) -> Result<JoinId, EngineError> {
        let timer = self.recorder.timer();
        let text = spec.to_string();
        if let Some(existing) = self.joins.iter().position(|j| j.to_string() == text) {
            return Ok(JoinId(existing as u32));
        }
        self.check_acyclic(&spec)?;
        // Updater entries name their join and source in sixteen bits.
        let limit = usize::from(u16::MAX);
        if self.joins.len() >= limit || spec.sources.len() > limit {
            return Err(EngineError::TooManyJoins);
        }
        let id = JoinId(self.joins.len() as u32);
        self.joins.push(Arc::new(spec));
        self.status.push(StatusMap::new());
        if self.config.materialization == MaterializationMode::Full {
            let out_range = self.joins[id.0 as usize].output_range().clone();
            let mut missing = Vec::new();
            self.validate_join(id.0 as usize, &out_range, &mut missing);
        }
        if self.durability.is_some() {
            self.persist_op(&DurableOp::AddJoin(text));
        }
        self.paranoid_check();
        self.observed(OpKind::AddJoin, &timer);
        Ok(id)
    }

    /// Parses and installs one join from text.
    pub fn add_join_text(&mut self, text: &str) -> Result<JoinId, EngineError> {
        self.add_join(JoinSpec::parse(text)?)
    }

    /// Parses and installs several `;`-separated joins.
    pub fn add_joins_text(&mut self, text: &str) -> Result<Vec<JoinId>, EngineError> {
        let specs = pequod_join::parse_joins(text)?;
        specs.into_iter().map(|s| self.add_join(s)).collect()
    }

    fn check_acyclic(&self, new: &JoinSpec) -> Result<(), EngineError> {
        // Dependency edge a -> b: a reads b's outputs.
        let n = self.joins.len() + 1;
        let spec_of = |i: usize| -> &JoinSpec {
            if i < self.joins.len() {
                &self.joins[i]
            } else {
                new
            }
        };
        let depends = |a: usize, b: usize| -> bool {
            let outr = spec_of(b).output_range();
            spec_of(a)
                .sources
                .iter()
                .any(|s| s.pattern.key_space().overlaps(outr))
        };
        // DFS cycle detection over the small join graph.
        fn dfs(
            i: usize,
            n: usize,
            depends: &dyn Fn(usize, usize) -> bool,
            state: &mut [u8],
        ) -> bool {
            state[i] = 1;
            for j in 0..n {
                if j != i && depends(i, j) {
                    if state[j] == 1 {
                        return true;
                    }
                    if state[j] == 0 && dfs(j, n, depends, state) {
                        return true;
                    }
                }
            }
            state[i] = 2;
            false
        }
        let mut state = vec![0u8; n];
        for i in 0..n {
            if state[i] == 0 && dfs(i, n, &depends, &mut state) {
                return Err(EngineError::CircularJoin(new.output.text().to_string()));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Remote / database-backed tables (§3.3)
    // ------------------------------------------------------------------

    /// Declares the table owning `prefix` as remote or database-backed:
    /// reads against it report missing ranges until data is installed.
    pub fn mark_remote_table(&mut self, prefix: impl Into<Key>) {
        self.remote.entry(prefix.into()).or_default();
    }

    /// True if the table owning `prefix` is marked remote.
    pub fn is_remote_table(&self, prefix: &Key) -> bool {
        self.remote.contains_key(prefix)
    }

    /// Marks a range of a remote table as resident without writing data
    /// (used when a fetch returned an empty range: absence is knowledge).
    pub fn mark_resident(&mut self, range: &KeyRange) {
        let prefix = range.first.table_prefix_bytes();
        if let Some(table) = self.remote.get_mut(prefix) {
            table.resident.add(range);
            touch_base(&mut self.lru, prefix, table);
        }
    }

    /// Installs fetched base data: writes the pairs (running normal
    /// incremental maintenance) and marks the whole fetched range
    /// resident.
    ///
    /// The install itself never evicts, even over a memory limit: a
    /// parked query is usually waiting on exactly this range, and must
    /// observe it whole on its restart. The cap is enforced at the end
    /// of the next read or write ([`Engine::maintain_memory`]).
    pub fn install_base(&mut self, range: &KeyRange, pairs: Vec<(Key, Value)>) {
        for (k, v) in pairs {
            self.write(k, Some(v), false);
        }
        self.mark_resident(range);
        self.paranoid_check();
    }

    /// True if this engine should hold `key`: it is the authority for
    /// it, its table is purely local, or it lies inside a tracked
    /// resident range. A replicated key outside every resident range
    /// has been evicted and must be refetched, not re-cached piecemeal.
    pub fn holds_key(&self, key: &Key) -> bool {
        if self
            .base_authority
            .as_ref()
            .is_some_and(|authority| authority(key))
        {
            return true;
        }
        match self.remote.get(key.table_prefix_bytes()) {
            Some(table) => table.resident.contains(key),
            None => true,
        }
    }

    /// Every resident range of every remote-marked table (diagnostics
    /// and the deployment audit).
    pub fn all_resident_ranges(&self) -> Vec<KeyRange> {
        (self.remote.values())
            .flat_map(|t| t.resident.iter())
            .collect()
    }

    /// True if every key of `range` (inside one remote table) is
    /// resident here.
    pub fn is_resident(&self, range: &KeyRange) -> bool {
        (self.remote.get(range.first.table_prefix_bytes()))
            .is_some_and(|t| t.resident.covers(range))
    }

    /// True if some installed join writes into the table owning
    /// `prefix`: its rows are computed here, not stored base data.
    pub fn is_output_table(&self, prefix: &Key) -> bool {
        let table = KeyRange::prefix(prefix.clone());
        self.joins.iter().any(|j| j.output_range().overlaps(&table))
    }

    /// The resident ranges of a remote table (diagnostics).
    pub fn resident_ranges(&self, prefix: &Key) -> Vec<KeyRange> {
        self.remote
            .get(prefix)
            .map(|t| t.resident.iter().collect())
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Writes (§3.2 incremental maintenance)
    // ------------------------------------------------------------------

    /// Inserts or replaces a key, running incremental maintenance.
    ///
    /// If a durability sink is installed and this is a durable base
    /// write (see [`Engine::is_durable_base`]) the mutation is logged
    /// after it is applied and before the caller regains control — the
    /// acknowledgment a client later sees covers the log entry.
    pub fn put(&mut self, key: impl Into<Key>, value: impl Into<Value>) {
        let key = key.into();
        let value = value.into();
        let timer = self.recorder.timer();
        if self.recorder.is_enabled() {
            self.rate_for(&key).write();
        }
        // `Key`/`Value` clone by reference count, so capture is cheap.
        self.write(key.clone(), Some(value.clone()), false);
        if self.durability.is_some() && self.is_durable_base(&key) {
            self.persist_op(&DurableOp::Put(key, value));
        }
        self.maintain_memory();
        self.paranoid_check();
        self.observed(OpKind::Put, &timer);
    }

    /// Removes a key, running incremental maintenance. Logged to the
    /// durability sink under the same rules as [`Engine::put`].
    pub fn remove(&mut self, key: &Key) {
        let timer = self.recorder.timer();
        if self.recorder.is_enabled() {
            self.rate_for(key).write();
        }
        self.write(key.clone(), None, false);
        if self.durability.is_some() && self.is_durable_base(key) {
            self.persist_op(&DurableOp::Remove(key.clone()));
        }
        self.maintain_memory();
        self.paranoid_check();
        self.observed(OpKind::Remove, &timer);
    }

    /// Applies a store modification and dispatches updaters. `shared`
    /// says whether the value — the one written, or the one a removal
    /// takes away — is a `copy` output sharing its source's buffer
    /// (§4.3), which the store never counts as resident.
    pub(crate) fn write(&mut self, key: Key, value: Option<Value>, shared: bool) {
        let old = match &value {
            Some(v) => self.store.put(key.clone(), v.clone(), shared),
            None => self.store.remove(&key, shared),
        };
        let kind = match (&old, &value) {
            (None, Some(_)) => WriteKind::Insert,
            (Some(_), Some(_)) => WriteKind::Update,
            (Some(_), None) => WriteKind::Remove,
            (None, None) => return, // removing an absent key: no-op
        };
        self.stats.writes += 1;
        self.notify(&key, old.as_ref(), value.as_ref(), kind);
    }

    /// The notify half of a write: dispatches the updaters whose source
    /// ranges contain `key`, which the store has already gone from `old`
    /// to `new`. Every store modification that maintenance must see
    /// comes through here, one key at a time or a torn-down range's keys
    /// one after the other.
    pub(crate) fn notify(
        &mut self,
        key: &Key,
        old: Option<&Value>,
        new: Option<&Value>,
        kind: WriteKind,
    ) {
        // Fast exit: no join watches this table (true for output tables,
        // which receive the bulk of writes).
        if self.updaters.table_is_quiet(key) {
            return;
        }
        // Stab once, keeping handles only: dispatch may mutate the index,
        // and an entry freed meanwhile no longer resolves through its
        // handle and is skipped. Entries are read in place, never copied.
        // All scratch state lives in this frame, because dispatch
        // re-enters `write` for the output keys of chained joins.
        let work = self.updaters.stab(key);
        if work.is_empty() {
            return;
        }
        self.recorder.observe_fanout(work.len() as u64);
        let mut matched: Vec<SourceMatch> = Vec::new();
        for h in work {
            self.dispatch(h, &mut matched, key, old, new, kind);
        }
    }

    fn dispatch(
        &mut self,
        h: UpdaterHandle,
        matched: &mut Vec<SourceMatch>,
        key: &Key,
        old: Option<&Value>,
        new: Option<&Value>,
        kind: WriteKind,
    ) {
        let Some(e) = self.updaters.get(h) else {
            return;
        };
        let (jidx, source_idx, jsid) = (e.join as usize, e.source_idx as usize, e.js);
        let Some(js) = self.status[jidx].get(jsid) else {
            // Stale updater for a torn-down range: drop it.
            self.updaters.remove(h);
            return;
        };
        if js.state == JsState::Invalid {
            return; // will be recomputed wholesale at next read
        }
        let spec = &self.joins[jidx];
        let op = spec.sources[source_idx].op;
        if op == Operator::Check {
            let m = LoggedMod {
                source_idx,
                key: key.clone(),
                kind,
            };
            // Logging waits for the range's next read; a join reading the
            // range's outputs causes none, so with one watching, apply now.
            let lazy = self.config.lazy_checks
                && self.config.materialization != MaterializationMode::Full
                && self.updaters.table_is_quiet(&js.first);
            if lazy {
                let limit = self.config.pending_log_limit;
                let Some(js) = self.status[jidx].get_mut(jsid) else {
                    return;
                };
                js.pending.push(m);
                self.stats.mods_logged += 1;
                if js.pending.len() > limit {
                    self.complete_invalidate(jidx, jsid);
                }
            } else if self.apply_pending(jidx, jsid) {
                // What was logged while the table was quiet went first.
                self.apply_logged_mod(jidx, jsid, &m);
            }
            return;
        }
        // Eager sources: the output key this write maintains is the
        // entry's captured slots united with the written key's. The key
        // is matched against the source pattern once per (join, source);
        // each entry then only checks its own slots for consistency with
        // that match and expands the output key from the two slot sets
        // by reference. `None` means the source alone does not determine
        // the output key.
        let seen = |m: &SourceMatch| (m.jidx, m.source_idx) == (jidx, source_idx);
        let at = match matched.iter().position(seen) {
            Some(at) => at,
            None => {
                let mut from_key = spec.slots.empty_set();
                let fits = spec.sources[source_idx]
                    .pattern
                    .match_key(key, &mut from_key);
                matched.push(SourceMatch {
                    jidx,
                    source_idx,
                    from_key: fits.then_some(from_key),
                });
                matched.len() - 1
            }
        };
        let Some(from_key) = &matched[at].from_key else {
            return;
        };
        if !e.slots.consistent_with(from_key) {
            return;
        }
        let target = spec
            .output
            .expand_with(|id| e.slots.get(id).or_else(|| Some(&from_key.get(id)?[..])));
        if target.as_ref().is_some_and(|k| !js.contains(k)) {
            // The write lies in the watched source range but maintains
            // an output outside this status range.
            self.stats.spurious_fires += 1;
            return;
        }
        match op {
            Operator::Copy => match target {
                Some(out_key) => {
                    self.stats.eager_updates += 1;
                    match kind {
                        WriteKind::Insert | WriteKind::Update => {
                            let Some(v) = new.cloned() else { return };
                            let (v, shared) = if self.config.value_sharing {
                                (v, true)
                            } else {
                                (Value::copy_from_slice(&v), false)
                            };
                            self.write(out_key, Some(v), shared);
                        }
                        WriteKind::Remove => self.write(out_key, None, self.config.value_sharing),
                    }
                }
                None => {
                    // The copy source alone does not determine the output
                    // key (copy listed before a check, as in the celebrity
                    // join): fall back to the general re-derivation path.
                    let m = LoggedMod {
                        source_idx,
                        key: key.clone(),
                        kind,
                    };
                    self.apply_logged_mod(jidx, jsid, &m);
                }
            },
            // An aggregate whose group key is underdetermined recomputes
            // lazily.
            _ => match target {
                Some(out_key) if matches!(op, Operator::Count | Operator::Sum) => {
                    self.dispatch_numeric_agg(h, out_key, op, old, new, kind)
                }
                Some(out_key) => self.dispatch_extremum(jidx, jsid, out_key, op, old, new, kind),
                None => self.complete_invalidate(jidx, jsid),
            },
        }
    }

    fn dispatch_numeric_agg(
        &mut self,
        h: UpdaterHandle,
        out_key: Key,
        op: Operator,
        old: Option<&Value>,
        new: Option<&Value>,
        kind: WriteKind,
    ) {
        // `WriteKind` guarantees the sides an op needs (Insert has a new
        // value, Remove an old one); an absent side contributes 0.
        let old_n = old.map(|v| parse_num(v)).unwrap_or(0);
        let new_n = new.map(|v| parse_num(v)).unwrap_or(0);
        let delta = match (op, kind) {
            (Operator::Count, WriteKind::Insert) => 1,
            (Operator::Count, WriteKind::Remove) => -1,
            (Operator::Count, WriteKind::Update) => 0,
            (Operator::Sum, WriteKind::Insert) => new_n,
            (Operator::Sum, WriteKind::Remove) => -old_n,
            (Operator::Sum, WriteKind::Update) => new_n - old_n,
            _ => unreachable!(),
        };
        if delta == 0 {
            return;
        }
        self.stats.eager_updates += 1;
        // Output hint (§4.2): skip the store lookup when this updater
        // wrote the same output key last time.
        let hinted = if self.config.output_hints {
            let hint = self.updaters.hint(h);
            hint.filter(|h| h.out_key == out_key).map(|h| h.num)
        } else {
            None
        };
        let cur = match hinted {
            Some(n) => {
                self.stats.hint_hits += 1;
                Some(n)
            }
            None => self.store.get(&out_key).map(|v| parse_num(&v)),
        };
        let newv = cur.unwrap_or(0) + delta;
        let remove_group = op == Operator::Count && newv <= 0;
        if remove_group {
            self.write(out_key.clone(), None, false);
        } else {
            self.write(out_key.clone(), Some(fmt_num(newv)), false);
        }
        if self.config.output_hints {
            let hint = (!remove_group).then_some(OutputHint { out_key, num: newv });
            self.updaters.set_hint(h, hint);
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the range, the output key, the operator and the write it folds in"
    )]
    fn dispatch_extremum(
        &mut self,
        jidx: usize,
        jsid: JsId,
        out_key: Key,
        op: Operator,
        old: Option<&Value>,
        new: Option<&Value>,
        kind: WriteKind,
    ) {
        let better = |candidate: &Value, cur: &Value| -> bool {
            match op {
                Operator::Min => candidate < cur,
                Operator::Max => candidate > cur,
                _ => unreachable!(),
            }
        };
        let cur = self.store.get(&out_key).map(|v| v.to_value());
        self.stats.eager_updates += 1;
        match kind {
            WriteKind::Insert => {
                let Some(n) = new else { return };
                match &cur {
                    None => self.write(out_key, Some(n.clone()), false),
                    Some(c) => {
                        if better(n, c) {
                            self.write(out_key, Some(n.clone()), false);
                        }
                    }
                }
            }
            WriteKind::Update => {
                let (Some(o), Some(n)) = (old, new) else {
                    return;
                };
                match &cur {
                    None => self.write(out_key, Some(n.clone()), false),
                    Some(c) => {
                        if better(n, c) {
                            self.write(out_key, Some(n.clone()), false);
                        } else if o == c {
                            // The extremum may have been retracted.
                            self.complete_invalidate(jidx, jsid);
                        }
                    }
                }
            }
            WriteKind::Remove => {
                if cur.as_ref() == old {
                    self.complete_invalidate(jidx, jsid);
                }
            }
        }
    }

    /// Complete invalidation (§3.2): removes the range's updaters and
    /// marks it for wholesale recomputation at the next read. Outputs
    /// stay in the store until then (reads always validate first).
    pub(crate) fn complete_invalidate(&mut self, jidx: usize, jsid: JsId) {
        let Some(js) = self.status[jidx].get_mut(jsid) else {
            return;
        };
        if js.state == JsState::Invalid {
            return;
        }
        js.state = JsState::Invalid;
        js.pending.clear();
        let owned = std::mem::take(&mut js.updaters);
        self.updaters.remove_all(&owned);
        self.stats.complete_invalidations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

    /// An updater watches its source's whole prefix while its status
    /// range may hold only part of the output: a post older than a
    /// partial timeline's start reaches the range's updater and maintains
    /// nothing. It is counted, exported, and written nowhere.
    #[test]
    fn an_old_post_below_a_partial_timeline_is_a_spurious_fire() {
        let mut e = Engine::new_default();
        e.set_recorder(Recorder::enabled());
        e.add_join_text(TIMELINE).unwrap();
        e.put("s|ann|bob", "1");
        e.put("p|bob|0000000100", "old");
        e.put("p|bob|0000000200", "new");
        let since = KeyRange::new("t|ann|0000000150", "t|ann}");
        assert_eq!(e.scan(&since).pairs.len(), 1);
        assert_eq!(e.engine_stats().spurious_fires, 0);

        e.put("p|bob|0000000120", "older still");
        assert_eq!(e.engine_stats().spurious_fires, 1);
        assert!(e.store().get(&Key::from("t|ann|0000000120|bob")).is_none());
        // A post inside the range is maintained, not spurious.
        let updates = e.engine_stats().eager_updates;
        e.put("p|bob|0000000300", "newest");
        assert_eq!(e.engine_stats().eager_updates, updates + 1);
        assert_eq!(e.engine_stats().spurious_fires, 1);
        assert_eq!(e.scan(&since).pairs.len(), 2);

        let exported = e.recorder().snapshot(false).to_pairs();
        let fires = exported
            .iter()
            .find(|(name, _)| name == "core.updater.spurious_fires");
        assert_eq!(fires.map(|(_, v)| v.as_str()), Some("1"));
        assert_eq!(e.check_invariants(), Vec::<String>::new());
    }

    /// `durable_state` filters while it scans; what it returns must be
    /// exactly the stored pairs that pass `is_durable_base`, in key
    /// order — base rows this engine is the authority for, and neither
    /// computed rows nor replicas.
    #[test]
    fn durable_state_is_the_authoritative_base_rows_only() {
        let mut e = Engine::new_default();
        let join = "t|<user>|<time:10>|<poster> = \
                    check s|<user>|<poster> copy p|<poster>|<time:10>";
        e.add_join_text(join).unwrap();
        // This engine homes everything except the replicated `r|` table.
        e.set_base_authority(|k| !k.starts_with(b"r|"));
        e.mark_remote_table("r|");
        e.put("s|ann|bob", "1");
        e.put("s|ann|liz", "1");
        e.put(
            "p|bob|0000000100",
            "a tweet long enough to be a shared, refcounted value",
        );
        e.put("p|liz|0000000101", "hi");
        e.install_base(
            &KeyRange::prefix("r|"),
            vec![(Key::from("r|x"), Value::from_static(b"replica"))],
        );
        assert_eq!(e.scan(&KeyRange::prefix("t|ann|")).pairs.len(), 2);

        let mut stored = Vec::new();
        e.store()
            .for_each(|k, v| stored.push((k.clone(), v.to_value())));
        assert!(stored.iter().any(|(k, _)| k.starts_with(b"t|")));
        assert!(stored.iter().any(|(k, _)| k.starts_with(b"r|")));
        let want: Vec<(Key, Value)> = (stored.into_iter())
            .filter(|(k, _)| e.is_durable_base(k))
            .collect();

        let (joins, pairs) = e.durable_state();
        assert_eq!(joins, vec![e.join(JoinId(0)).to_string()]);
        assert_eq!(pairs, want);
        let keys: Vec<String> = pairs.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(
            keys,
            [
                "p|bob|0000000100",
                "p|liz|0000000101",
                "s|ann|bob",
                "s|ann|liz"
            ]
        );
    }
}
