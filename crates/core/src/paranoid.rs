//! Deep invariant checking.
//!
//! The engine maintains every byte- and pair-counter incrementally and
//! keeps four structures pointing at each other: the store, the
//! per-join status maps, the updater interval index, and the LRU
//! tracker. A bug in any one maintenance path corrupts state silently
//! and surfaces much later as a wrong answer or a leak. This module is
//! the other half of the repo's correctness tooling (see
//! `docs/CORRECTNESS.md` and its clippy lints): a full
//! cross-recomputation of everything the hot paths keep in O(1).
//!
//! [`Engine::check_invariants`] is always compiled — tests call it
//! directly, and mutation tests prove it reports precisely when a
//! structure is corrupted. The automatic after-every-operation hook
//! ([`Engine::paranoid_check`]) is gated on
//! [`EngineConfig::paranoid`](crate::EngineConfig), which defaults to
//! on under `--features paranoid` and can be enabled at runtime with
//! `pequod-server --paranoid`.
//!
//! The checks:
//!
//! 1. **Store bookkeeping** — pair counts, key/value byte counters,
//!    and the subtable index agree with a full walk, and every
//!    subtable's sorted blocks are well formed: none empty or over
//!    capacity, keys strictly ascending within and across blocks, each
//!    fence key equal to its block's first key
//!    ([`Store::audit`](pequod_store::Store::audit)).
//! 2. **LRU agreement** — the tracker's list links agree in both
//!    directions and with its slab and free list
//!    ([`LruTracker::audit`](pequod_store::LruTracker::audit)); every
//!    list cell tracks a live unit whose own handle is that cell; and
//!    every materialized join range's handle resolves back to that
//!    range (else it could never be evicted). Base units are
//!    forward-only: eviction may skip an all-authoritative table,
//!    leaving its handle stale until the next read re-registers it —
//!    but a remote table's handle that does resolve must resolve to
//!    that table.
//! 3. **Status map indexes** — the range slab against the ordered index
//!    and the free list, id generations, and range disjointness
//!    ([`StatusMap::audit`](crate::status::StatusMap::audit)).
//! 4. **Updater index bookkeeping** — each node's recorded length vs
//!    its chain links, the entry slab vs its free list, and the
//!    entry/node/per-table counters vs a tree walk
//!    ([`UpdaterIndex::audit`](crate::updater::UpdaterIndex::audit)).
//! 5. **Subscription symmetry**, both directions — every live updater
//!    entry maintains a live *valid* range that lists its handle (else
//!    teardown would leak the entry); every handle a range lists is
//!    live, belongs to that `(join, range)`, and is listed exactly once
//!    (the list is an ownership record, not a hint); and invalidated
//!    ranges hold no updaters and no pending log.
//! 6. **Remote residency / home routing** — every cached row of
//!    a remote-marked table that this engine is not the authority for
//!    lies inside a tracked resident range (untracked cached rows
//!    would never be refreshed or evicted).
//!
//! The base-authority ↔ durability invariant (no computed or
//! non-authoritative key reaches the write-ahead log) is checked at
//! the WAL hook itself (`Engine::persist_op`), where the offending key
//! is in hand.

use crate::engine::{Engine, EvictUnit};
use crate::status::JsState;
use crate::types::JsId;
use crate::updater::UpdaterHandle;
use pequod_store::KeyRange;
use std::collections::HashMap;

impl Engine {
    /// Exhaustively cross-checks the engine's internal structures and
    /// O(1) counters against full recomputation. Returns one message
    /// per violation; an empty vector means the engine is consistent.
    ///
    /// Cost is a full walk of every structure — use it in tests, in
    /// paranoid runs, and when debugging, not on a serving hot path.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut v = Vec::new();
        v.extend(
            self.store
                .audit()
                .into_iter()
                .map(|m| format!("store: {m}")),
        );
        v.extend(self.lru.audit().into_iter().map(|m| format!("lru: {m}")));
        for (jidx, smap) in self.status.iter().enumerate() {
            v.extend(
                smap.audit()
                    .into_iter()
                    .map(|m| format!("join {jidx} status: {m}")),
            );
        }
        v.extend(
            self.updaters
                .audit()
                .into_iter()
                .map(|m| format!("updaters: {m}")),
        );
        self.check_lru_residency(&mut v);
        self.check_updater_symmetry(&mut v);
        self.check_remote_residency(&mut v);
        v
    }

    /// Runs [`Engine::check_invariants`] and panics with the full
    /// violation list when [`EngineConfig::paranoid`]
    /// (crate::EngineConfig) is set; a no-op otherwise. Called at the
    /// end of every public read and write.
    pub(crate) fn paranoid_check(&self) {
        if !self.config.paranoid {
            return;
        }
        let violations = self.check_invariants();
        assert!(
            violations.is_empty(),
            "paranoid invariant check failed:\n  {}",
            violations.join("\n  ")
        );
    }

    /// LRU ↔ residency agreement (check 2 above): list cells and their
    /// owners point at each other.
    fn check_lru_residency(&self, v: &mut Vec<String>) {
        for (h, unit) in self.lru.iter() {
            match unit {
                EvictUnit::Js(jidx, jsid) => {
                    let owner = (self.status.get(*jidx as usize))
                        .and_then(|smap| smap.get(*jsid))
                        .map(|js| js.lru);
                    if owner.is_none() {
                        v.push(format!(
                            "lru: tracks join range {jidx}/{jsid:?} that no status map holds"
                        ));
                    } else if owner != Some(h) {
                        v.push(format!(
                            "lru: cell {h:?} tracks join range {jidx}/{jsid:?}, whose own \
                             handle is {owner:?}"
                        ));
                    }
                }
                EvictUnit::Base(prefix) => match self.remote.get(prefix) {
                    None => v.push(format!(
                        "lru: tracks base unit {prefix:?} but the table is not marked remote"
                    )),
                    Some(table) if table.lru != Some(h) => v.push(format!(
                        "lru: cell {h:?} tracks base unit {prefix:?}, whose own handle is {:?}",
                        table.lru
                    )),
                    Some(_) => {}
                },
            }
        }
        for (jidx, smap) in self.status.iter().enumerate() {
            for js in smap.iter() {
                if self.lru.get(js.lru) != Some(&EvictUnit::Js(jidx as u32, js.id)) {
                    v.push(format!(
                        "lru: materialized range {jidx}/{:?} is untracked and could never be evicted",
                        js.id
                    ));
                }
            }
        }
        // A remote table's handle may be absent or stale (forward-only,
        // see the module docs), but if it resolves it must resolve to
        // that table.
        for (prefix, table) in &self.remote {
            let tracked = table.lru.and_then(|h| self.lru.get(h));
            if tracked.is_some_and(|unit| *unit != EvictUnit::Base(prefix.clone())) {
                v.push(format!(
                    "lru: remote table {prefix:?} holds a handle that resolves to {tracked:?}"
                ));
            }
        }
    }

    /// Join subscription symmetry (check 5 above), both directions.
    fn check_updater_symmetry(&self, v: &mut Vec<String>) {
        // Range -> entry: every listed handle is live and belongs to the
        // range listing it; no handle is listed twice.
        let mut owner: HashMap<UpdaterHandle, (usize, JsId)> = HashMap::new();
        for (jidx, smap) in self.status.iter().enumerate() {
            for js in smap.iter() {
                if js.state == JsState::Invalid {
                    if !js.updaters.is_empty() {
                        v.push(format!(
                            "join {jidx} status: invalidated range {:?} still lists {} \
                             updater entry(ies)",
                            js.id,
                            js.updaters.len()
                        ));
                    }
                    if !js.pending.is_empty() {
                        v.push(format!(
                            "join {jidx} status: invalidated range {:?} still holds {} \
                             pending logged modification(s)",
                            js.id,
                            js.pending.len()
                        ));
                    }
                }
                for &h in &js.updaters {
                    match self.updaters.get(h) {
                        None => v.push(format!(
                            "join {jidx} status: range {:?} lists stale updater handle {h:?}",
                            js.id
                        )),
                        Some(e) if e.join as usize != jidx || e.js != js.id => v.push(format!(
                            "join {jidx} status: range {:?} lists {h:?}, which maintains \
                             join range {}/{:?}",
                            js.id, e.join, e.js
                        )),
                        Some(_) => {}
                    }
                    if let Some((j2, js2)) = owner.insert(h, (jidx, js.id)) {
                        v.push(format!(
                            "join {jidx} status: range {:?} lists {h:?}, already listed by \
                             {j2}/{js2:?}",
                            js.id
                        ));
                    }
                }
            }
        }
        // Entry -> range: every live entry maintains a live valid range
        // that lists it (else teardown would leak the entry).
        self.updaters.for_each(|h, _range, e| {
            let (jidx, jsid) = (e.join as usize, e.js);
            let Some(js) = self.status.get(jidx).and_then(|s| s.get(jsid)) else {
                v.push(format!(
                    "updaters: entry {h:?} maintains join range {jidx}/{jsid:?}, \
                     which does not exist"
                ));
                return;
            };
            if js.state != JsState::Valid {
                v.push(format!(
                    "updaters: entry {h:?} maintains join range {jidx}/{jsid:?}, \
                     which is {:?}",
                    js.state
                ));
            }
            if owner.get(&h) != Some(&(jidx, jsid)) {
                v.push(format!(
                    "updaters: entry {h:?} maintains join range {jidx}/{jsid:?}, \
                     but the range does not list it (teardown would leak the entry)"
                ));
            }
        });
    }

    /// Remote-table residency / home routing (check 6 above). Rows and
    /// resident ranges both come in key order, so one walk of each does:
    /// no lookup per row, and the authority asked only about a row that
    /// no range covers.
    fn check_remote_residency(&self, v: &mut Vec<String>) {
        for (prefix, remote) in &self.remote {
            let mut ranges = remote.resident.spans().peekable();
            self.store.scan(&KeyRange::prefix(prefix.clone()), |k, _| {
                while ranges.next_if(|(_, end)| !end.admits(k)).is_some() {}
                let resident = ranges.peek().is_some_and(|(first, _)| *first <= k);
                if !resident && !self.base_authority.as_ref().is_some_and(|auth| auth(k)) {
                    v.push(format!(
                        "remote: cached row {k:?} of table {prefix:?} is outside every \
                         resident range (it would never be refreshed or evicted)"
                    ));
                }
                true
            });
        }
    }
}

/// Mutation tests: corrupt each structure the checker covers and assert
/// the corruption is reported — precisely, without drowning it in
/// unrelated noise. A checker that never fires is indistinguishable
/// from no checker at all.
#[cfg(test)]
mod tests {
    use crate::config::EngineConfig;
    use crate::engine::{Engine, EvictUnit};
    use pequod_store::{Key, KeyRange, StoreConfig, Value};

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

    /// An engine with one materialized timeline range (timelines laid
    /// out as subtables, as the server's are), verified consistent
    /// before any test mutates it.
    fn materialized_engine() -> Engine {
        let store = StoreConfig::flat().with_subtable("t|", 2);
        let mut e = Engine::new(EngineConfig::with_store(store));
        e.add_join_text(TIMELINE).unwrap();
        e.put("s|ann|bob", "1");
        e.put("p|bob|0000000100", "hello");
        let got = e.scan(&KeyRange::prefix("t|ann|"));
        assert_eq!(got.pairs.len(), 1, "timeline should materialize one row");
        assert!(
            e.check_invariants().is_empty(),
            "a freshly materialized engine must pass the checker"
        );
        e
    }

    #[test]
    fn desynced_lru_index_is_reported() {
        let mut e = materialized_engine();
        let (h, _) = e.lru.iter().next().expect("lru tracks the range");
        e.lru.debug_desync(h);
        let v = e.check_invariants();
        assert!(
            v.iter().any(|m| m.starts_with("lru:")),
            "internal lru desync must surface as an lru violation: {v:?}"
        );
    }

    #[test]
    fn skewed_status_generation_is_reported() {
        let mut e = materialized_engine();
        let id = e.status[0].iter().next().expect("one range").id;
        e.status[0].debug_skew_generation(id);
        let v = e.check_invariants();
        assert!(
            v.iter()
                .any(|m| m.starts_with("join 0 status:") && m.contains("resolves to no live range")),
            "a status cell out of step with the ordered index must be reported: {v:?}"
        );
    }

    #[test]
    fn lru_cell_its_owner_does_not_point_at_is_reported() {
        let mut e = materialized_engine();
        let id = e.status[0].iter().next().expect("one range").id;
        e.lru.insert(EvictUnit::Js(0, id));
        let v = e.check_invariants();
        assert_eq!(v.len(), 1, "exactly one violation expected: {v:?}");
        assert!(
            v[0].contains("whose own handle is"),
            "unexpected message: {}",
            v[0]
        );
    }

    #[test]
    fn untracked_materialized_range_is_reported() {
        let mut e = materialized_engine();
        let (h, _) = (e.lru.iter())
            .find(|(_, u)| matches!(u, EvictUnit::Js(..)))
            .expect("a materialized range is lru-tracked");
        e.lru.remove(h);
        let v = e.check_invariants();
        assert_eq!(v.len(), 1, "exactly one violation expected: {v:?}");
        assert!(
            v[0].contains("untracked and could never be evicted"),
            "unexpected message: {}",
            v[0]
        );
    }

    #[test]
    fn skewed_store_counter_is_reported() {
        let mut e = materialized_engine();
        e.store.debug_skew_keys(1);
        let v = e.check_invariants();
        assert_eq!(v.len(), 1, "exactly one violation expected: {v:?}");
        assert!(
            v[0].starts_with("store:") && v[0].contains("key counter"),
            "unexpected message: {}",
            v[0]
        );
    }

    #[test]
    fn misfiled_fence_key_is_reported() {
        // In a subtable, and in the flat subscription table.
        for key in ["t|ann|0000000100|bob", "s|ann|bob"] {
            let mut e = materialized_engine();
            e.store.debug_misfile_fence(&Key::from(key));
            let v = e.check_invariants();
            assert_eq!(v.len(), 1, "exactly one violation expected: {v:?}");
            assert!(
                v[0].starts_with("store:") && v[0].contains("has fence"),
                "unexpected message: {}",
                v[0]
            );
        }
    }

    #[test]
    fn dropped_status_side_of_subscription_is_reported() {
        let mut e = materialized_engine();
        let id = e.status[0].iter().next().expect("one range").id;
        e.status[0].remove(id);
        let v = e.check_invariants();
        assert!(
            v.iter().any(|m| m.contains("which does not exist")),
            "orphaned updater entries must be reported: {v:?}"
        );
    }

    #[test]
    fn stale_handle_after_slot_reuse_is_reported() {
        let mut e = materialized_engine();
        let id = e.status[0].iter().next().expect("one range").id;
        let h = e.status[0].get(id).expect("range is live").updaters[0];
        // Free the entry behind the range's back and let another entry
        // take over its slab cell: the listed handle must not resolve to
        // the newcomer.
        let gone = e.updaters.remove(h).expect("handle was live");
        let reused = e
            .updaters
            .install(KeyRange::prefix("q|"), gone, &[])
            .expect("fresh registration");
        e.status[0]
            .get_mut(id)
            .expect("range is live")
            .updaters
            .push(reused);
        let v = e.check_invariants();
        assert_eq!(v.len(), 1, "exactly one violation expected: {v:?}");
        assert!(
            v[0].contains("lists stale updater handle"),
            "unexpected message: {}",
            v[0]
        );
    }

    #[test]
    fn foreign_handle_is_reported() {
        let mut e = materialized_engine();
        e.put("s|cat|bob", "1");
        assert_eq!(e.scan(&KeyRange::prefix("t|cat|")).pairs.len(), 1);
        let ids: Vec<_> = e.status[0].iter().map(|js| js.id).collect();
        let stolen = e.status[0].get(ids[0]).expect("live").updaters[0];
        e.status[0]
            .get_mut(ids[1])
            .expect("live")
            .updaters
            .push(stolen);
        let v = e.check_invariants();
        assert!(
            v.iter().any(|m| m.contains("which maintains"))
                && v.iter().any(|m| m.contains("already listed by")),
            "a handle listed by a range it does not maintain must be reported: {v:?}"
        );
    }

    #[test]
    fn node_length_disagreeing_with_chain_is_reported() {
        let mut e = materialized_engine();
        let id = e.status[0].iter().next().expect("one range").id;
        let h = e.status[0].get(id).expect("range is live").updaters[0];
        e.updaters.debug_skew_node_len(h, 1);
        let v = e.check_invariants();
        assert!(
            !v.is_empty() && v.iter().all(|m| m.starts_with("updaters:")),
            "a skewed node length must surface as updater-index violations: {v:?}"
        );
        assert!(
            v.iter().any(|m| m.contains("chain does not close")),
            "unexpected messages: {v:?}"
        );
    }

    #[test]
    fn unlisted_updater_node_is_reported() {
        let mut e = materialized_engine();
        let id = e.status[0].iter().next().expect("one range").id;
        e.status[0]
            .get_mut(id)
            .expect("range is live")
            .updaters
            .clear();
        let v = e.check_invariants();
        assert!(
            !v.is_empty() && v.iter().all(|m| m.contains("does not list it")),
            "every index entry must now report the missing back-reference: {v:?}"
        );
    }

    #[test]
    fn cached_row_outside_every_resident_range_is_reported() {
        let mut e = Engine::new(EngineConfig::default());
        e.set_base_authority(|k| k.starts_with(b"p|own|"));
        e.mark_remote_table("p|");
        let row = |k: &str| (Key::from(k), Value::from("v"));
        e.install_base(&KeyRange::prefix("p|b|"), vec![row("p|b|1")]);
        e.install_base(&KeyRange::prefix("p|d|"), vec![row("p|d|1")]);
        e.write(Key::from("p|own|1"), Some(Value::from("v")), false);
        assert!(
            e.check_invariants().is_empty(),
            "resident rows and the authority's own rows are consistent"
        );
        // Rows before, between and after the resident ranges, none of
        // them this engine's own.
        for k in ["p|a|1", "p|c|1", "p|e|1"] {
            e.write(Key::from(k), Some(Value::from("v")), false);
        }
        let v = e.check_invariants();
        assert_eq!(v.len(), 3, "one violation per stray row: {v:?}");
        for k in ["p|a|1", "p|c|1", "p|e|1"] {
            assert!(
                v.iter()
                    .any(|m| m.starts_with("remote:") && m.contains(&format!("{k:?}"))),
                "the stray row {k} must be reported: {v:?}"
            );
        }
    }
}
