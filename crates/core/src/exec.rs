//! The read path: scans, join status validation, forward query
//! execution (Figures 3 and 5), and lazy application of logged
//! modifications.

use crate::aggregate::Accumulator;
use crate::config::MaterializationMode;
use crate::engine::{check_residency, Engine, EvictUnit, RemoteTable};
use crate::status::{JsState, LoggedMod, Segment};
use crate::types::{CountResult, JsId, ScanResult, WriteKind};
use crate::updater::UpdaterEntry;
use pequod_join::{containing_range, Bindings, JoinSpec, Maintenance, Operator, SlotId, SlotSet};
use pequod_store::{Key, KeyRange, LruTracker, Store, Value, ValueRef};
use pequod_telemetry::OpKind;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// A planned updater installation recorded during forward execution
/// (Figure 5: "add updater from [ks−, ks+) to js").
pub(crate) struct PlanEntry {
    source_idx: u16,
    range: KeyRange,
    slots: Bindings,
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
        let missing = self.scan_with(range, |k, v| pairs.push((k.clone(), v.to_value())));
        ScanResult { pairs, missing }
    }

    /// The streaming form of [`Engine::scan`], and its implementation:
    /// validates now, visits lazily. Every overlapping join is executed
    /// or validated first; then `visit` sees each pair of the range by
    /// reference, in key order, straight out of the store (or out of the
    /// merged overlay when a pull join overlaps), its value lent as a
    /// [`ValueRef`] — nothing is cloned on the caller's behalf. Returns
    /// the base ranges that must be fetched for a complete answer; pairs
    /// are visited even when it is non-empty, as `scan` returns them.
    pub fn scan_with(
        &mut self,
        range: &KeyRange,
        mut visit: impl FnMut(&Key, ValueRef<'_>),
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
        check_residency(&mut self.remote, &mut self.lru, range, &mut missing);
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
                    map.entry(k.clone()).or_insert_with(|| v.to_value());
                    true
                });
                map.iter().for_each(|(k, v)| visit(k, v.view()));
            }
        }
        // Enforce the memory cap only after the last visit: reads
        // materialize join ranges, so a capped engine may be over the
        // cap right here, but the response must never
        // observe a half-evicted store.
        self.maintain_memory();
        self.paranoid_check();
        self.observed(OpKind::Scan, &timer);
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
        check_residency(&mut self.remote, &mut self.lru, range, &mut missing);
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
        self.observed(OpKind::Count, &timer);
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
        if !expired {
            self.apply_pending(jidx, jsid);
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
        // The nested loops emit a copy join's outputs outer-source-major
        // (a timeline comes out poster by poster, each poster's run
        // ascending); the store's subtables append cheaply and insert
        // dearly, so write in key order. The stable sort merges the runs
        // it finds, and a key produced twice keeps its last value.
        outs.sort_by(|(a, _), (b, _)| a.cmp(b));
        self.write_outputs(&spec, outs);
        let lru = &mut self.lru;
        let jsid = self.status[jidx].insert(gap.clone(), self.clock, |id| {
            lru.insert(EvictUnit::Js(jidx as u32, id))
        });
        self.install_plan(jidx, jsid, plan);
        self.stats.ranges_materialized += 1;
    }

    /// Writes outputs a join's execution just produced: into the store
    /// as one run, then through the notify half of the write path if
    /// some join watches the output table (a chained join). A `copy`
    /// join's outputs share their sources' buffers (§4.3) unless value
    /// sharing is off, in which case each gets a private copy.
    fn write_outputs(&mut self, spec: &JoinSpec, mut outs: Vec<(Key, Value)>) {
        let is_copy = spec.value_op() == Operator::Copy;
        if is_copy && !self.config.value_sharing {
            for (_, v) in &mut outs {
                *v = Value::copy_from_slice(v);
            }
        }
        let watched = |(k, _): &(Key, Value)| !self.updaters.table_is_quiet(k);
        let written = outs.first().is_some_and(watched).then(|| outs.clone());
        self.stats.writes += outs.len() as u64;
        let shared = is_copy && self.config.value_sharing;
        let mut replaced = self.store.put_run(outs, shared).into_iter().peekable();
        for (at, (k, v)) in written.iter().flatten().enumerate() {
            let old = replaced.next_if(|(i, _)| *i == at).map(|(_, old)| old);
            let kind = match old {
                Some(_) => WriteKind::Update,
                None => WriteKind::Insert,
            };
            self.notify(k, old.as_ref(), Some(v), kind);
        }
    }

    /// Removes a status range, its updaters, and (optionally) its
    /// outputs from the store. Downstream joins observe the removed
    /// outputs ([`Engine::remove_matching_outputs`]).
    pub(crate) fn teardown_jsrange(&mut self, jidx: usize, jsid: JsId, remove_outputs: bool) {
        let Some(js) = self.status[jidx].remove(jsid) else {
            return;
        };
        self.updaters.remove_all(&js.updaters);
        self.lru.remove(js.lru);
        if remove_outputs {
            let spec = self.joins[jidx].clone();
            self.remove_matching_outputs(&spec, &js.range(), &spec.slots.empty_set());
        }
    }

    /// Removes every stored key of `range` that the join's output
    /// pattern matches consistently with `slots`, as one range removal.
    /// A removed pair reaches the notify half of the write path only
    /// when some join watches the output table (a chained join);
    /// otherwise nothing about it outlives the pass.
    fn remove_matching_outputs(&mut self, spec: &JoinSpec, range: &KeyRange, slots: &SlotSet) {
        let watched = !self.updaters.table_is_quiet(&range.first);
        let shared = spec.value_op() == Operator::Copy && self.config.value_sharing;
        let mut removed = Vec::new();
        let count = self.store.remove_range(range, shared, |k, v| {
            let ours = spec.output.matches(k, slots);
            if ours && watched {
                removed.push((k.clone(), v.to_value()));
            }
            ours
        });
        self.stats.writes += count as u64;
        for (k, v) in removed.iter().rev() {
            self.notify(k, Some(v), None, WriteKind::Remove);
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
        let held = js.updaters.len();
        js.updaters.reserve(plan.len());
        for pe in plan {
            let entry = UpdaterEntry {
                join: jidx as u16,
                source_idx: pe.source_idx,
                slots: pe.slots,
                js: jsid,
            };
            let installed = self.updaters.install(pe.range, entry, &js.updaters[..held]);
            js.updaters.extend(installed);
        }
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
        // A source another join writes into is validated, range by
        // range, before it is read, and validation writes to the store;
        // so only the sources nested under the last such one can be read
        // where they lie. In the common join every source is base data.
        let fed = |level: &usize| {
            let space = spec.sources[*level].pattern.key_space();
            let feeds = |(j, other): (usize, &Arc<JoinSpec>)| {
                j != jidx && other.output_range().overlaps(&space)
            };
            Some(*level) != skip && self.joins.iter().enumerate().any(feeds)
        };
        let in_place_from = (0..spec.sources.len()).rev().find(fed).map_or(0, |l| l + 1);
        let mut ctx = ExecCtx {
            spec: &spec,
            jidx,
            clip,
            skip,
            in_place_from,
            out: Vec::new(),
            aggs: BTreeMap::new(),
            plan: Vec::new(),
            want_plan: plan.is_some(),
            paranoid: self.config.paranoid,
            undo: Vec::with_capacity(4),
        };
        self.exec_level(
            &mut ctx,
            0,
            &mut slots,
            value0.as_ref().map(Value::view),
            missing,
        );
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

    /// One level of the nested loops for a source that another join may
    /// write into (or that has such a source nested under it): its range
    /// is gathered first ([`Engine::collect_source`]), because gathering
    /// and the levels below may both change the store. From
    /// `ctx.in_place_from` down, [`BaseData::exec_level`] takes over.
    fn exec_level(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        level: usize,
        slots: &mut SlotSet,
        captured: Option<ValueRef<'_>>,
        missing: &mut Vec<KeyRange>,
    ) {
        if level >= ctx.in_place_from {
            let mut base = BaseData {
                store: &self.store,
                remote: &mut self.remote,
                lru: &mut self.lru,
            };
            return base.exec_level(ctx, level, slots, captured, missing);
        }
        if Some(level) == ctx.skip {
            return self.exec_level(ctx, level + 1, slots, captured, missing);
        }
        let Some(crange) = ctx.source_range(level, slots) else {
            return;
        };
        for (k, v) in &self.collect_source(ctx.jidx, &crange, missing) {
            ctx.matching(
                level,
                k,
                v.view(),
                slots,
                captured,
                |ctx, slots, captured| self.exec_level(ctx, level + 1, slots, captured, missing),
            );
        }
    }

    /// Gathers the contents of a source range other joins write into:
    /// their outputs over it are brought up to date first (recursive
    /// query execution, §3.3), then resident store data is copied out
    /// beside them, reporting missing base data.
    fn collect_source(
        &mut self,
        cur_jidx: usize,
        crange: &KeyRange,
        missing: &mut Vec<KeyRange>,
    ) -> Vec<(Key, Value)> {
        check_residency(&mut self.remote, &mut self.lru, crange, missing);
        let mut overlay: BTreeMap<Key, Value> = BTreeMap::new();
        for j2 in 0..self.joins.len() {
            if j2 == cur_jidx {
                continue;
            }
            let clip2 = self.joins[j2].output_range().intersect(crange);
            if clip2.is_empty() {
                continue;
            }
            if self.is_pull(j2) {
                overlay.extend(self.exec_join(j2, &clip2, None, None, missing));
            } else {
                self.validate_join(j2, &clip2, missing);
            }
        }
        if overlay.is_empty() {
            let mut pairs = Vec::new();
            self.store.scan(crange, |k, v| {
                pairs.push((k.clone(), v.to_value()));
                true
            });
            return pairs;
        }
        self.store.scan(crange, |k, v| {
            overlay.entry(k.clone()).or_insert_with(|| v.to_value());
            true
        });
        overlay.into_iter().collect()
    }

    // ------------------------------------------------------------------
    // Lazy maintenance: applying logged modifications (§3.2)
    // ------------------------------------------------------------------

    /// Applies a valid range's pending log in the order it was written
    /// and says whether the range is still valid afterwards: applying a
    /// modification may completely invalidate it, which also drops the
    /// rest of the log.
    pub(crate) fn apply_pending(&mut self, jidx: usize, jsid: JsId) -> bool {
        let pending = match self.status[jidx].get_mut(jsid) {
            Some(js) if js.state == JsState::Valid => std::mem::take(&mut js.pending),
            _ => return false,
        };
        for m in pending {
            self.stats.mods_applied += 1;
            self.apply_logged_mod(jidx, jsid, &m);
            let js = self.status[jidx].get(jsid);
            if js.is_none_or(|js| js.state != JsState::Valid) {
                return false;
            }
        }
        true
    }

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
        // The outputs this tuple can reach in the range: none if its key
        // is inconsistent with the range's bindings or, with them,
        // expands only to keys outside it (an updater watches its
        // source's whole prefix, the range may hold part of its output).
        let mut slots = spec.slots.empty_set();
        spec.output.derive_slots(&extent, &mut slots);
        let target = (spec.sources[m.source_idx].pattern)
            .match_key(&m.key, &mut slots)
            .then(|| {
                containing_range(&spec.output, &spec.output, &slots, &extent).intersect(&extent)
            })
            .filter(|target| !target.is_empty());
        let Some(target) = target else {
            self.stats.spurious_fires += 1;
            return;
        };
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
        match m.kind {
            WriteKind::Insert | WriteKind::Update => {
                let value = if m.source_idx == vsrc {
                    match self.store.get(&m.key).map(|v| v.to_value()) {
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
                self.write_outputs(&spec, outs);
                self.install_plan(jidx, jsid, plan);
            }
            WriteKind::Remove => {
                // Remove the outputs this tuple supported: output keys in
                // the range consistent with the tuple's slot bindings.
                self.remove_matching_outputs(&spec, &target, &slots);
                // Drop updaters installed beneath the removed tuple so
                // future source writes stop resurrecting these outputs.
                if let Some(js) = self.status[jidx].get_mut(jsid) {
                    self.updaters.remove_where(&mut js.updaters, |e| {
                        usize::from(e.source_idx) > m.source_idx && e.slots.consistent_with(&slots)
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
    /// while estimated memory exceeds the cap, the least-recently-used
    /// unit is evicted, and no further — an operation evicts about what
    /// it grew, so no request pays for a wholesale purge. Returns the
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
        self.evict_to(limit.high_bytes)
    }

    /// Completely invalidates every computed range maintained from the
    /// data in `range`, which is about to be evicted. Eviction is not
    /// deletion: a reader told of deletions would retract outputs that
    /// are still right (a count over an evicted timeline would fall to
    /// nothing and stay there); an invalidated one recomputes at its
    /// next read, from the refetched or recomputed source.
    fn invalidate_readers(&mut self, range: &KeyRange) {
        if self.updaters.table_is_quiet(&range.first) {
            return;
        }
        let readers: Vec<(usize, JsId)> = (self.updaters.overlapping(range).into_iter())
            .filter_map(|h| self.updaters.get(h))
            .map(|e| (e.join as usize, e.js))
            .collect();
        for (jidx, jsid) in readers {
            self.complete_invalidate(jidx, jsid);
        }
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
                if let Some(extent) = &extent {
                    self.invalidate_readers(extent);
                }
                self.teardown_jsrange(jidx as usize, jsid, true);
                self.stats.js_evictions += 1;
                self.recorder.evicted_js(|| match extent {
                    Some(r) => format!("join {jidx} range {r:?}"),
                    None => format!("join {jidx} js {jsid:?}"),
                });
                true
            }
            EvictUnit::Base(prefix) => {
                let Some(rows) = self.drop_base(&prefix, true) else {
                    return false;
                };
                self.stats.base_evictions += 1;
                self.recorder
                    .evicted_base(|| format!("table {prefix} ({rows} rows)"));
                true
            }
        }
    }

    /// Forgets the replicated rows of the remote table `prefix` as
    /// eviction does — the rows go without being read as deletions, the
    /// computed ranges built on them recompute at their next read, and
    /// nothing of the table is resident any more — whether or not any
    /// replica was cached. A deployment calls this when the table's
    /// replicas may have gone stale: their home moved (a failover, a
    /// migration), or this engine stopped being the authority for some
    /// of its rows. Authoritative rows stay.
    pub fn forget_replicas(&mut self, prefix: &Key) {
        self.drop_base(prefix, false);
        self.paranoid_check();
    }

    /// Drops the replicated rows of table `prefix`, invalidates their
    /// readers and clears the table's residency; returns how many rows
    /// went. With `skip_if_all_ours`, a table whose cached rows are all
    /// authoritative is left alone (`None`): eviction would free nothing.
    fn drop_base(&mut self, prefix: &Key, skip_if_all_ours: bool) -> Option<usize> {
        let range = KeyRange::prefix(prefix.clone());
        // Rows this engine is the authority for are the only
        // copy and stay put; replicas are dropped, silently
        // (eviction, not deletion).
        let authority = self.base_authority.clone();
        let rows = self.store.remove_range(&range, false, |k, _| {
            authority.as_ref().is_none_or(|auth| !auth(k))
        });
        if skip_if_all_ours && authority.is_some() && rows == 0 {
            // Every cached row in this table is ours: there is
            // nothing to reclaim, and invalidating dependents
            // would rebuild computed data for zero bytes freed.
            // Skip the unit; the next read re-registers it.
            return None;
        }
        self.invalidate_readers(&range);
        // Output-side dependents: if a join *writes into* the
        // evicted table (a partitioned output table in a clustered
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
        // Release the residency bookkeeping; kept authoritative
        // rows re-prove residency on the next read without a
        // refetch.
        if let Some(table) = self.remote.get_mut(prefix) {
            table.resident.clear();
        }
        Some(rows)
    }
}

/// The engine as forward execution sees it once only base data is left
/// to read: the store, shared, so that one source's pairs are visited
/// where they lie while the sources nested under it are read; and what a
/// read of replicated base data updates (residency, recency).
struct BaseData<'a> {
    store: &'a Store,
    remote: &'a mut HashMap<Key, RemoteTable>,
    lru: &'a mut LruTracker<EvictUnit>,
}

impl BaseData<'_> {
    /// One level of the nested loops (Figure 3) over base data, ending
    /// in the output pair once every source has matched.
    fn exec_level(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        level: usize,
        slots: &mut SlotSet,
        captured: Option<ValueRef<'_>>,
        missing: &mut Vec<KeyRange>,
    ) {
        if level == ctx.spec.sources.len() {
            return ctx.emit(slots, captured);
        }
        if Some(level) == ctx.skip {
            return self.exec_level(ctx, level + 1, slots, captured, missing);
        }
        let Some(crange) = ctx.source_range(level, slots) else {
            return;
        };
        check_residency(self.remote, self.lru, &crange, missing);
        let store = self.store;
        store.scan(&crange, |k, v| {
            ctx.matching(level, k, v, slots, captured, |ctx, slots, captured| {
                self.exec_level(ctx, level + 1, slots, captured, missing)
            });
            true
        });
    }
}

struct ExecCtx<'a> {
    spec: &'a Arc<JoinSpec>,
    jidx: usize,
    clip: &'a KeyRange,
    skip: Option<usize>,
    /// Sources at this level and deeper are base data, read in place.
    in_place_from: usize,
    out: Vec<(Key, Value)>,
    aggs: BTreeMap<Key, Accumulator>,
    plan: Vec<PlanEntry>,
    want_plan: bool,
    /// Check each planned updater range against the range scanned.
    paranoid: bool,
    /// Slots bound by the matches now open, innermost last: one slot set
    /// serves every candidate key, each match's bindings undone when the
    /// levels under it return.
    undo: Vec<SlotId>,
}

impl ExecCtx<'_> {
    /// The range of source `level` that can contribute under `slots`
    /// (`None` if empty), with an updater planned when the caller wants
    /// the plan (Figure 5). The updater watches the source's whole
    /// determined-prefix range, not just the part this clip reads: every
    /// status range reading a poster's posts then shares that poster's
    /// one index node, whatever part of its timeline it holds, and a
    /// write outside the part is dropped at dispatch (a spurious fire)
    /// rather than costing a node per partial read.
    fn source_range(&mut self, level: usize, slots: &SlotSet) -> Option<KeyRange> {
        let pattern = &self.spec.sources[level].pattern;
        let crange = containing_range(pattern, &self.spec.output, slots, self.clip);
        if crange.is_empty() {
            return None;
        }
        if self.want_plan {
            let range = pattern.containing_range_basic(slots);
            // An updater narrower than what was scanned would miss writes
            // the range depends on: a staleness bug, not a cost.
            assert!(
                !self.paranoid || range.contains_range(&crange),
                "paranoid: updater range {range:?} does not contain the scanned {crange:?}"
            );
            self.plan.push(PlanEntry {
                source_idx: level as u16,
                range,
                slots: Bindings::pack(slots),
            });
        }
        Some(crange)
    }

    /// If source `level`'s pattern matches `key` consistently with
    /// `slots`, runs `nested` under the widened bindings — with `value`
    /// captured if this is the value source — and undoes them.
    fn matching<'v>(
        &mut self,
        level: usize,
        key: &Key,
        value: ValueRef<'v>,
        slots: &mut SlotSet,
        captured: Option<ValueRef<'v>>,
        nested: impl FnOnce(&mut Self, &mut SlotSet, Option<ValueRef<'v>>),
    ) {
        let mark = self.undo.len();
        let pattern = &self.spec.sources[level].pattern;
        if !pattern.match_key_undo(key, slots, &mut self.undo) {
            return;
        }
        let captured = match level == self.spec.value_source() {
            true => Some(value),
            false => captured,
        };
        nested(self, slots, captured);
        for id in self.undo.drain(mark..) {
            slots.unbind(id);
        }
    }

    /// Every source matched: the output pair, if it lies in the clip.
    fn emit(&mut self, slots: &SlotSet, captured: Option<ValueRef<'_>>) {
        let (Some(out_key), Some(v)) = (self.spec.output.expand(slots), captured) else {
            return;
        };
        if !self.clip.contains(&out_key) {
            return;
        }
        if self.spec.is_aggregate() {
            let op = self.spec.value_op();
            self.aggs
                .entry(out_key)
                .and_modify(|a| a.fold(v))
                .or_insert_with(|| Accumulator::start(op, v));
        } else {
            self.out.push((out_key, v.to_value()));
        }
    }
}
