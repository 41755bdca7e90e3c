//! The read path: scans, join status validation, forward query
//! execution (Figures 3 and 5), and lazy application of logged
//! modifications.

use crate::aggregate::Accumulator;
use crate::config::MaterializationMode;
use crate::engine::{Engine, EvictUnit};
use crate::status::{JsState, LoggedMod, Segment};
use crate::types::{CountResult, JoinId, JsId, ScanResult, WriteKind};
use crate::updater::UpdaterEntry;
use bytes::Bytes;
use pequod_join::{containing_range, JoinSpec, Maintenance, Operator, SlotSet};
use pequod_store::{Key, KeyRange, Value};
use pequod_telemetry::OpKind;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A planned updater installation recorded during forward execution
/// (Figure 5: "add updater from [ks−, ks+) to js").
pub(crate) struct PlanEntry {
    source_idx: usize,
    range: KeyRange,
    slots: SlotSet,
}

/// Pre-bound context for targeted re-execution: skip the given source
/// (its key already matched into `slots`), optionally carrying the
/// value-source's value.
pub(crate) struct PreBound {
    pub skip: usize,
    pub slots: SlotSet,
    pub value: Option<Value>,
}

impl Engine {
    // ------------------------------------------------------------------
    // Public reads
    // ------------------------------------------------------------------

    /// Scans `[range.first, range.end)`, executing and validating any
    /// overlapping cache joins first. Returns the pairs plus any base
    /// ranges that must be fetched for a complete answer (§3.3).
    pub fn scan(&mut self, range: &KeyRange) -> ScanResult {
        let mut pairs = Vec::new();
        let missing = self.scan_with(range, |k, v| pairs.push((k.clone(), v.clone())));
        ScanResult { pairs, missing }
    }

    /// The streaming form of [`Engine::scan`], and its implementation:
    /// validates now, visits lazily. Every overlapping join is executed
    /// or validated first; then `visit` sees each pair of the range by
    /// reference, in key order, straight out of the store (or out of the
    /// merged overlay when a pull join overlaps) — nothing is cloned on
    /// the caller's behalf. Returns the base ranges that must be fetched
    /// for a complete answer; pairs are visited even when it is
    /// non-empty, as `scan` returns them.
    pub fn scan_with(
        &mut self,
        range: &KeyRange,
        mut visit: impl FnMut(&Key, &Value),
    ) -> Vec<KeyRange> {
        self.stats.scans += 1;
        let timer = self.recorder.timer();
        if self.recorder.is_enabled() {
            self.rate_for(&range.first).read();
        }
        let mut missing = Vec::new();
        if range.is_empty() {
            return missing;
        }
        // Base data requested directly from a remote table?
        if !self.remote.is_empty() {
            self.check_residency(range, &mut missing);
        }
        // Joins overlapping the scan.
        let mut overlay: Option<BTreeMap<Key, Value>> = None;
        for jidx in 0..self.joins.len() {
            let clip = self.joins[jidx].output_range().intersect(range);
            if clip.is_empty() {
                continue;
            }
            if self.is_pull(jidx) {
                let map = overlay.get_or_insert_with(BTreeMap::new);
                for (k, v) in self.exec_join(jidx, &clip, None, None, &mut missing) {
                    map.insert(k, v);
                }
            } else {
                self.validate_join(jidx, &clip, &mut missing);
            }
        }
        match overlay {
            // Fast path: everything is materialized in the store; visit
            // in order without a merge map.
            None => self.store.scan(range, |k, v| {
                visit(k, v);
                true
            }),
            Some(mut map) => {
                self.store.scan(range, |k, v| {
                    map.entry(k.clone()).or_insert_with(|| v.clone());
                    true
                });
                map.iter().for_each(|(k, v)| visit(k, v));
            }
        }
        // Enforce the memory cap only after the last visit: reads
        // materialize join ranges, so a capped engine may be over the
        // high watermark right here, but the response must never
        // observe a half-evicted store.
        self.maintain_memory();
        self.paranoid_check();
        self.recorder.observe_op(OpKind::Scan, &timer);
        missing
    }

    /// Point read returning just the value. The key may be computed by a
    /// join on demand; any missing-data report is ignored, so use
    /// [`Engine::get_result`] when the engine serves remote or
    /// database-backed tables.
    pub fn get(&mut self, key: &Key) -> Option<Value> {
        self.get_result(key).pairs.pop().map(|(_, v)| v)
    }

    /// Point lookup through the same machinery as [`Engine::scan`]: the
    /// key may be computed by a join on demand, and missing base-data
    /// ranges are reported for the caller to fetch.
    pub fn get_result(&mut self, key: &Key) -> ScanResult {
        self.scan(&KeyRange::single(key.clone()))
    }

    /// Counts pairs in `range` after validating overlapping joins,
    /// without materializing the pairs for the caller (ignores
    /// missing-data reports; see [`Engine::count_result`]).
    pub fn count(&mut self, range: &KeyRange) -> usize {
        self.count_result(range).count
    }

    /// Server-side count (the `Count` command of the unified client
    /// API): validates overlapping joins like [`Engine::scan`], then
    /// folds matching pairs through an [`Accumulator::Count`] instead of
    /// cloning them into a result vector. Reports missing base-data
    /// ranges exactly as a scan would.
    pub fn count_result(&mut self, range: &KeyRange) -> CountResult {
        self.stats.scans += 1;
        let timer = self.recorder.timer();
        if self.recorder.is_enabled() {
            self.rate_for(&range.first).read();
        }
        let mut missing = Vec::new();
        if range.is_empty() {
            return CountResult::default();
        }
        if !self.remote.is_empty() {
            self.check_residency(range, &mut missing);
        }
        // Pull joins are never materialized: their outputs exist only as
        // an overlay, so count distinct keys across overlay and store.
        let mut overlay: Option<BTreeSet<Key>> = None;
        for jidx in 0..self.joins.len() {
            let clip = self.joins[jidx].output_range().intersect(range);
            if clip.is_empty() {
                continue;
            }
            if self.is_pull(jidx) {
                let set = overlay.get_or_insert_with(BTreeSet::new);
                for (k, _) in self.exec_join(jidx, &clip, None, None, &mut missing) {
                    set.insert(k);
                }
            } else {
                self.validate_join(jidx, &clip, &mut missing);
            }
        }
        let count = match overlay {
            None => {
                let mut acc = Accumulator::Count(0);
                self.store.scan(range, |_, v| {
                    acc.fold(v);
                    true
                });
                match acc {
                    Accumulator::Count(n) => n as usize,
                    _ => unreachable!("count accumulator changed kind"),
                }
            }
            Some(mut set) => {
                self.store.scan(range, |k, _| {
                    set.insert(k.clone());
                    true
                });
                set.len()
            }
        };
        self.maintain_memory();
        self.paranoid_check();
        self.recorder.observe_op(OpKind::Count, &timer);
        CountResult { count, missing }
    }

    /// Validates (materializes) joins overlapping `range` without
    /// returning data; used to warm caches.
    pub fn validate_range(&mut self, range: &KeyRange) -> Vec<KeyRange> {
        self.scan(range).missing
    }

    pub(crate) fn is_pull(&self, jidx: usize) -> bool {
        self.config.materialization == MaterializationMode::None
            || matches!(self.joins[jidx].maintenance, Maintenance::Pull)
    }

    // ------------------------------------------------------------------
    // Validation (Figure 5)
    // ------------------------------------------------------------------

    /// Ensures the join's output is materialized and valid over `clip`,
    /// which the caller has already clipped to the join's output range.
    pub(crate) fn validate_join(
        &mut self,
        jidx: usize,
        clip: &KeyRange,
        missing: &mut Vec<KeyRange>,
    ) {
        if self.is_pull(jidx) || clip.is_empty() {
            return;
        }
        // Almost every warm read lies inside one materialized range:
        // answer that with a single ordered lookup, no segment list.
        if let Some(jsid) = self.status[jidx].sole_cover(clip) {
            return self.refresh_jsrange(jidx, jsid, missing);
        }
        for seg in self.status[jidx].segments(clip) {
            match seg {
                Segment::Covered(jsid) => self.refresh_jsrange(jidx, jsid, missing),
                Segment::Gap(gap) => self.materialize_gap(jidx, &gap, missing),
            }
        }
    }

    fn refresh_jsrange(&mut self, jidx: usize, jsid: JsId, missing: &mut Vec<KeyRange>) {
        let Some(js) = self.status[jidx].get(jsid) else {
            return;
        };
        // Snapshot expiry: recompute from scratch (§3.4).
        let expired = matches!(self.joins[jidx].maintenance, Maintenance::Snapshot(ttl)
            if js.snapshot_expired(ttl, self.clock));
        if !expired && js.state == JsState::Valid && !js.pending.is_empty() {
            // Apply the pending log (lazy maintenance, §3.2).
            let pending = match self.status[jidx].get_mut(jsid) {
                Some(js) => std::mem::take(&mut js.pending),
                None => return,
            };
            for m in pending {
                self.stats.mods_applied += 1;
                self.apply_logged_mod(jidx, jsid, &m);
                // Application may have completely invalidated the range.
                match self.status[jidx].get(jsid) {
                    Some(js) if js.state == JsState::Valid => {}
                    _ => break,
                }
            }
        }
        let Some(js) = self.status[jidx].get(jsid) else {
            return;
        };
        if expired || js.state == JsState::Invalid {
            let extent = js.range();
            self.teardown_jsrange(jidx, jsid, true);
            self.materialize_gap(jidx, &extent, missing);
        } else {
            // The materialized range answered as-is: a cache hit in the
            // paper's §8 sense.
            self.recorder.lru_hit();
            self.lru.touch(js.lru);
        }
    }

    /// Computes a fresh output range and installs its status range and
    /// updaters (Figure 5). If base data was missing, nothing is
    /// installed: the restarted query recomputes after the fetch.
    pub(crate) fn materialize_gap(
        &mut self,
        jidx: usize,
        gap: &KeyRange,
        missing: &mut Vec<KeyRange>,
    ) {
        if gap.is_empty() {
            return;
        }
        self.recorder.lru_miss();
        let spec = self.joins[jidx].clone();
        let want_updaters = matches!(spec.maintenance, Maintenance::Push);
        let mut plan: Vec<PlanEntry> = Vec::new();
        let mut local_missing = Vec::new();
        let mut outs = self.exec_join(
            jidx,
            gap,
            None,
            want_updaters.then_some(&mut plan),
            &mut local_missing,
        );
        if !local_missing.is_empty() {
            missing.extend(local_missing);
            return;
        }
        let is_copy = spec.value_op() == Operator::Copy;
        // The nested loops emit a copy join's outputs outer-source-major
        // (a timeline comes out poster by poster); the store's subtables
        // append cheaply and insert dearly, so write in key order. Stable:
        // a key produced twice keeps its last value.
        outs.sort_by(|(a, _), (b, _)| a.cmp(b));
        for (k, v) in outs {
            let (v, shared) = if is_copy && self.config.value_sharing {
                (v, true)
            } else if is_copy {
                (Bytes::copy_from_slice(&v), false)
            } else {
                (v, false)
            };
            self.write(k, Some(v), shared);
        }
        let lru = &mut self.lru;
        let jsid = self.status[jidx].insert(gap.clone(), self.clock, |id| {
            lru.insert(EvictUnit::Js(jidx as u32, id))
        });
        self.install_plan(jidx, jsid, plan);
        self.stats.ranges_materialized += 1;
    }

    /// Removes a status range, its updaters, and (optionally) its
    /// outputs from the store. Output removal goes through the normal
    /// write path so downstream joins observe it.
    pub(crate) fn teardown_jsrange(&mut self, jidx: usize, jsid: JsId, remove_outputs: bool) {
        let Some(js) = self.status[jidx].remove(jsid) else {
            return;
        };
        self.updaters.remove_all(&js.updaters);
        self.lru.remove(js.lru);
        if remove_outputs {
            let spec = self.joins[jidx].clone();
            self.remove_matching_outputs(&spec, &js.range(), spec.slots.empty_set());
        }
    }

    /// Removes, through the normal write path, every stored key of
    /// `range` that the join's output pattern matches consistently with
    /// `slots`. One slot set serves the whole scan: each key's bindings
    /// are undone before the next is tried. Removals are written
    /// newest-first, so a subtable being emptied pops from its tail
    /// instead of shifting every remaining pair down.
    fn remove_matching_outputs(&mut self, spec: &JoinSpec, range: &KeyRange, mut slots: SlotSet) {
        let mut doomed = Vec::new();
        let mut undo = Vec::with_capacity(4);
        self.store.scan(range, |k, _| {
            if spec.output.match_key_undo(k, &mut slots, &mut undo) {
                doomed.push(k.clone());
                for id in undo.drain(..) {
                    slots.unbind(id);
                }
            }
            true
        });
        for k in doomed.into_iter().rev() {
            self.write(k, None, false);
        }
    }

    /// Installs the updaters planned by one execution for status range
    /// `jsid`, which comes to own them. Registrations the range already
    /// held are dropped: re-execution under an existing range can plan a
    /// source range it watches already, while one execution never plans
    /// the same registration twice (and a fresh range holds none).
    fn install_plan(&mut self, jidx: usize, jsid: JsId, plan: Vec<PlanEntry>) {
        let Some(js) = self.status[jidx].get_mut(jsid) else {
            return;
        };
        let mut installed = Vec::with_capacity(plan.len());
        for pe in plan {
            let entry = UpdaterEntry {
                join: JoinId(jidx as u32),
                source_idx: pe.source_idx,
                slots: pe.slots,
                js: jsid,
                hint: None,
            };
            installed.extend(self.updaters.install(pe.range, entry, &js.updaters));
        }
        js.updaters.extend(installed);
    }

    // ------------------------------------------------------------------
    // Forward query execution (Figure 3)
    // ------------------------------------------------------------------

    /// Executes a join over `clip`, returning its output pairs. The
    /// nested-loop enumeration follows Figure 3: derive slots from the
    /// requested range, then for each source compute a containing range,
    /// scan it, and match keys, recursing per source.
    pub(crate) fn exec_join(
        &mut self,
        jidx: usize,
        clip: &KeyRange,
        pre: Option<PreBound>,
        plan: Option<&mut Vec<PlanEntry>>,
        missing: &mut Vec<KeyRange>,
    ) -> Vec<(Key, Value)> {
        let spec = self.joins[jidx].clone();
        self.stats.join_execs += 1;
        let mut slots = spec.slots.empty_set();
        spec.output.derive_slots(clip, &mut slots);
        let (skip, value0) = match pre {
            Some(p) => {
                if !slots.merge(&p.slots) {
                    return Vec::new();
                }
                (Some(p.skip), p.value)
            }
            None => (None, None),
        };
        let mut ctx = ExecCtx {
            spec: &spec,
            jidx,
            clip,
            skip,
            out: Vec::new(),
            aggs: BTreeMap::new(),
            plan: Vec::new(),
            want_plan: plan.is_some(),
        };
        self.exec_level(&mut ctx, 0, &mut slots, value0, missing);
        let ExecCtx {
            out,
            aggs,
            plan: produced_plan,
            ..
        } = ctx;
        if let Some(p) = plan {
            *p = produced_plan;
        }
        let result = if spec.is_aggregate() {
            aggs.into_iter().map(|(k, a)| (k, a.finish())).collect()
        } else {
            out
        };
        self.stats.exec_outputs += result.len() as u64;
        result
    }

    fn exec_level(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        level: usize,
        slots: &mut SlotSet,
        captured: Option<Value>,
        missing: &mut Vec<KeyRange>,
    ) {
        if level == ctx.spec.sources.len() {
            let Some(out_key) = ctx.spec.output.expand(slots) else {
                return;
            };
            if !ctx.clip.contains(&out_key) {
                return;
            }
            let Some(v) = captured else { return };
            if ctx.spec.is_aggregate() {
                let op = ctx.spec.value_op();
                ctx.aggs
                    .entry(out_key)
                    .and_modify(|a| a.fold(&v))
                    .or_insert_with(|| Accumulator::start(op, &v));
            } else {
                ctx.out.push((out_key, v));
            }
            return;
        }
        if Some(level) == ctx.skip {
            self.exec_level(ctx, level + 1, slots, captured, missing);
            return;
        }
        let src = &ctx.spec.sources[level];
        let crange = containing_range(&src.pattern, &ctx.spec.output, slots, ctx.clip);
        if crange.is_empty() {
            return;
        }
        if ctx.want_plan {
            ctx.plan.push(PlanEntry {
                source_idx: level,
                range: crange.clone(),
                slots: slots.clone(),
            });
        }
        let found = self.collect_source(ctx.jidx, &crange, missing);
        let value_source = ctx.spec.value_source();
        // Reuse one slot set across candidates via an undo trail instead
        // of cloning per key (the nested-loop hot path).
        let mut undo = Vec::with_capacity(4);
        for (k, v) in found {
            undo.clear();
            if ctx.spec.sources[level]
                .pattern
                .match_key_undo(&k, slots, &mut undo)
            {
                let cap = if level == value_source {
                    Some(v)
                } else {
                    captured.clone()
                };
                self.exec_level(ctx, level + 1, slots, cap, missing);
                for id in undo.drain(..) {
                    slots.unbind(id);
                }
            }
        }
    }

    /// Gathers the contents of a source range: resident store data plus
    /// the outputs of any other joins that feed this range (recursive
    /// query execution, §3.3), reporting missing base data.
    fn collect_source(
        &mut self,
        cur_jidx: usize,
        crange: &KeyRange,
        missing: &mut Vec<KeyRange>,
    ) -> Vec<(Key, Value)> {
        if !self.remote.is_empty() {
            self.check_residency(crange, missing);
        }
        let mut overlay: Option<BTreeMap<Key, Value>> = None;
        for j2 in 0..self.joins.len() {
            if j2 == cur_jidx {
                continue;
            }
            let clip2 = self.joins[j2].output_range().intersect(crange);
            if clip2.is_empty() {
                continue;
            }
            if self.is_pull(j2) {
                let map = overlay.get_or_insert_with(BTreeMap::new);
                for (k, v) in self.exec_join(j2, &clip2, None, None, missing) {
                    map.insert(k, v);
                }
            } else {
                self.validate_join(j2, &clip2, missing);
            }
        }
        match overlay {
            None => {
                let mut pairs = Vec::new();
                self.store.scan(crange, |k, v| {
                    pairs.push((k.clone(), v.clone()));
                    true
                });
                pairs
            }
            Some(mut map) => {
                self.store.scan(crange, |k, v| {
                    map.entry(k.clone()).or_insert_with(|| v.clone());
                    true
                });
                map.into_iter().collect()
            }
        }
    }

    // ------------------------------------------------------------------
    // Lazy maintenance: applying logged modifications (§3.2)
    // ------------------------------------------------------------------

    /// Applies one source modification to a materialized range: a
    /// targeted re-execution with the modified key's slots pre-bound
    /// (insert) or a targeted removal of the outputs it supported
    /// (remove). Falls back to complete invalidation for aggregate
    /// groups disturbed by check-source changes and on missing data.
    pub(crate) fn apply_logged_mod(&mut self, jidx: usize, jsid: JsId, m: &LoggedMod) {
        let spec = self.joins[jidx].clone();
        let Some(js) = self.status[jidx].get(jsid) else {
            return;
        };
        let extent = js.range();
        let vsrc = spec.value_source();
        if spec.is_aggregate() && m.source_idx != vsrc {
            // A check change shifts whole groups in or out of the
            // aggregate; recompute the range.
            self.complete_invalidate(jidx, jsid);
            return;
        }
        if m.kind == WriteKind::Update && m.source_idx != vsrc {
            return; // check values are never read
        }
        let mut slots = spec.slots.empty_set();
        spec.output.derive_slots(&extent, &mut slots);
        if !spec.sources[m.source_idx]
            .pattern
            .match_key(&m.key, &mut slots)
        {
            return; // inconsistent with this range: not relevant
        }
        match m.kind {
            WriteKind::Insert | WriteKind::Update => {
                let value = if m.source_idx == vsrc {
                    match self.store.peek(&m.key).cloned() {
                        Some(v) => Some(v),
                        None => return, // key vanished since logging
                    }
                } else {
                    None
                };
                let want_updaters = matches!(spec.maintenance, Maintenance::Push);
                let mut plan: Vec<PlanEntry> = Vec::new();
                let mut local_missing = Vec::new();
                let outs = self.exec_join(
                    jidx,
                    &extent,
                    Some(PreBound {
                        skip: m.source_idx,
                        slots,
                        value,
                    }),
                    want_updaters.then_some(&mut plan),
                    &mut local_missing,
                );
                if !local_missing.is_empty() {
                    self.complete_invalidate(jidx, jsid);
                    return;
                }
                let is_copy = spec.value_op() == Operator::Copy;
                for (k, v) in outs {
                    let (v, shared) = if is_copy && self.config.value_sharing {
                        (v, true)
                    } else {
                        (Bytes::copy_from_slice(&v), false)
                    };
                    self.write(k, Some(v), shared);
                }
                self.install_plan(jidx, jsid, plan);
            }
            WriteKind::Remove => {
                // Remove the outputs this tuple supported: output keys in
                // the range consistent with the tuple's slot bindings.
                let target = containing_range(&spec.output, &spec.output, &slots, &extent)
                    .intersect(&extent);
                self.remove_matching_outputs(&spec, &target, slots.clone());
                // Drop updaters installed beneath the removed tuple so
                // future source writes stop resurrecting these outputs.
                if let Some(js) = self.status[jidx].get_mut(jsid) {
                    self.updaters.remove_where(&mut js.updaters, |e| {
                        e.source_idx > m.source_idx && e.slots.consistent_with(&slots)
                    });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Eviction (§2.5)
    // ------------------------------------------------------------------

    /// Evicts least-recently-used units until estimated memory is at or
    /// below `target_bytes` (or nothing evictable remains). Returns the
    /// number of units evicted.
    ///
    /// This is the manual form of the eviction that
    /// [`Engine::maintain_memory`] runs automatically when a
    /// [`MemoryLimit`](crate::config::MemoryLimit) is configured.
    /// Evicting computed data tears down the join status range; evicting
    /// cached base data removes the rows *without* treating them as
    /// deletions, and instead invalidates dependent computed ranges,
    /// which recompute (and refetch) on their next read.
    pub fn evict_to(&mut self, target_bytes: usize) -> usize {
        let mut evicted = 0;
        while self.memory_bytes() > target_bytes {
            let Some(unit) = self.lru.pop_lru() else {
                break;
            };
            if self.evict_one(unit) {
                evicted += 1;
            }
        }
        evicted
    }

    /// Enforces the configured [`MemoryLimit`](crate::config::MemoryLimit):
    /// when estimated memory exceeds the high watermark, least-recently-
    /// used units are evicted down to the low watermark. Returns the
    /// number of units evicted (0 when unbounded or under the cap).
    ///
    /// Every public read and write calls this after its answer is
    /// collected, so a capped engine holds the invariant *memory is at
    /// or below the cap after each operation's maintenance* (as long as
    /// anything evictable remains — authoritative base data is never
    /// dropped). Evicted computed ranges are transparently recomputed on
    /// the next read:
    ///
    /// ```
    /// use pequod_core::config::MemoryLimit;
    /// use pequod_core::{Engine, EngineConfig};
    /// use pequod_store::KeyRange;
    ///
    /// let cfg = EngineConfig::default().with_mem_limit(MemoryLimit::new(6 * 1024));
    /// let mut engine = Engine::new(cfg);
    /// engine
    ///     .add_join_text(
    ///         "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>",
    ///     )
    ///     .unwrap();
    /// for u in 0..40 {
    ///     engine.put(format!("s|u{u:03}|bob"), "1");
    /// }
    /// for t in 0..20u64 {
    ///     engine.put(format!("p|bob|{t:010}"), "some tweet text");
    /// }
    /// // Reading every timeline materializes far more than 6 KiB of
    /// // computed data; automatic eviction keeps the engine under the
    /// // cap and every answer stays identical to an unbounded engine's.
    /// for u in 0..40 {
    ///     let tl = engine.scan(&KeyRange::prefix(format!("t|u{u:03}|")));
    ///     assert_eq!(tl.pairs.len(), 20);
    ///     assert!(engine.memory_bytes() <= 6 * 1024);
    /// }
    /// assert!(engine.engine_stats().js_evictions > 0);
    /// ```
    pub fn maintain_memory(&mut self) -> usize {
        let Some(limit) = self.config.mem_limit else {
            return 0;
        };
        let used = self.memory_bytes();
        self.stats.peak_memory_bytes = self.stats.peak_memory_bytes.max(used as u64);
        if used <= limit.high_bytes {
            return 0;
        }
        let mut evicted = 0;
        loop {
            let used = self.memory_bytes();
            if used <= limit.low_bytes {
                break;
            }
            // In the hysteresis band, spare the final (most recently
            // used) unit: it is typically the range an in-flight parked
            // query just fetched, and re-evicting it would turn the
            // restart into a refetch loop.
            if self.lru.len() <= 1 && used <= limit.high_bytes {
                break;
            }
            let Some(unit) = self.lru.pop_lru() else {
                break;
            };
            if self.evict_one(unit) {
                evicted += 1;
            }
        }
        evicted
    }

    /// Evicts one unit (already removed from the LRU tracker). Returns
    /// `false` when the unit turned out unevictable — a base table
    /// whose cached rows are all authoritative — and was skipped.
    fn evict_one(&mut self, unit: EvictUnit) -> bool {
        match unit {
            EvictUnit::Js(jidx, jsid) => {
                let extent = self
                    .status
                    .get(jidx as usize)
                    .and_then(|m| m.get(jsid))
                    .map(|js| js.range());
                self.teardown_jsrange(jidx as usize, jsid, true);
                self.stats.js_evictions += 1;
                self.recorder.evicted_js(|| match extent {
                    Some(r) => format!("join {jidx} range {r:?}"),
                    None => format!("join {jidx} js {jsid:?}"),
                });
                true
            }
            EvictUnit::Base(prefix) => {
                let range = KeyRange::prefix(prefix.clone());
                // Rows this engine is the authority for are the only
                // copy and stay put; only replicas are droppable.
                let authority = self.base_authority.clone();
                let mut doomed = Vec::new();
                self.store.scan(&range, |k, _| {
                    if authority.as_ref().is_none_or(|auth| !auth(k)) {
                        doomed.push(k.clone());
                    }
                    true
                });
                if authority.is_some() && doomed.is_empty() {
                    // Every cached row in this table is ours: there is
                    // nothing to reclaim, and invalidating dependents
                    // would rebuild computed data for zero bytes freed.
                    // Skip the unit; the next read re-registers it.
                    return false;
                }
                // Source-side dependents: computed ranges maintained from
                // this base data must recompute once it is gone.
                let mut dependents: Vec<(usize, JsId)> = Vec::new();
                for h in self.updaters.overlapping(&range) {
                    if let Some(e) = self.updaters.get(h) {
                        dependents.push((e.join.0 as usize, e.js));
                    }
                }
                for (jidx, jsid) in dependents {
                    self.complete_invalidate(jidx, jsid);
                }
                // Output-side dependents: if a join *writes into* the
                // evicted table (a partitioned output table in a sharded
                // deployment), its materialized ranges lose their rows
                // below and must recompute too.
                for jidx in 0..self.joins.len() {
                    let clip = self.joins[jidx].output_range().intersect(&range);
                    if clip.is_empty() {
                        continue;
                    }
                    let covered: Vec<JsId> = self.status[jidx]
                        .segments(&clip)
                        .into_iter()
                        .filter_map(|seg| match seg {
                            Segment::Covered(id) => Some(id),
                            Segment::Gap(_) => None,
                        })
                        .collect();
                    for jsid in covered {
                        self.complete_invalidate(jidx, jsid);
                    }
                }
                // Drop the replica rows silently (eviction, not
                // deletion) and release the residency bookkeeping; kept
                // authoritative rows re-prove residency on the next
                // read without a refetch.
                for k in &doomed {
                    self.store.remove(k);
                }
                if let Some(table) = self.remote.get_mut(&prefix) {
                    table.resident.clear();
                }
                self.stats.base_evictions += 1;
                self.recorder
                    .evicted_base(|| format!("table {prefix} ({} rows)", doomed.len()));
                true
            }
        }
    }
}

struct ExecCtx<'a> {
    spec: &'a Arc<JoinSpec>,
    jidx: usize,
    clip: &'a KeyRange,
    skip: Option<usize>,
    out: Vec<(Key, Value)>,
    aggs: BTreeMap<Key, Accumulator>,
    plan: Vec<PlanEntry>,
    want_plan: bool,
}
