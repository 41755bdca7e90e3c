//! Model-based property test of the updater index: random install /
//! remove-by-owner-handles / remove-by-predicate / stab sequences over a
//! handful of source ranges (so nodes coalesce heavily) must agree with
//! a naive list of `(owner, range, entry)` triples — same stabbed
//! entries (in no specified order), same counters, duplicates dropped,
//! bookkeeping audit clean after every step. `PROPTEST_CASES` sets the
//! case count (default 128).

use bytes::Bytes;
use pequod_core::updater::{UpdaterEntry, UpdaterHandle, UpdaterIndex};
use pequod_core::JsId;
use pequod_join::{Bindings, SlotId, SlotTable};
use pequod_store::{Key, KeyRange};
use proptest::prelude::*;

const OWNERS: usize = 5;

fn ranges() -> Vec<KeyRange> {
    vec![
        KeyRange::prefix("p|a|"),
        KeyRange::prefix("p|b|"),
        KeyRange::prefix("p|"),
        KeyRange::new("p|a|5", "p|a}"),
        KeyRange::single(Key::from("s|a|b")),
    ]
}

const PROBES: [&str; 6] = ["p|a|3", "p|a|7", "p|b|1", "p|c", "s|a|b", "q|x"];

fn slots(variant: u8) -> Bindings {
    let mut table = SlotTable::new();
    table.intern("user");
    table.intern("poster");
    let mut s = table.empty_set();
    if variant & 1 != 0 {
        s.bind(SlotId(0), Bytes::from_static(b"ann"));
    }
    if variant & 2 != 0 {
        s.bind(SlotId(1), Bytes::from_static(b"bob"));
    }
    Bindings::pack(&s)
}

#[derive(Clone, Debug)]
enum Op {
    Install {
        owner: usize,
        range: usize,
        source_idx: usize,
        variant: u8,
    },
    RemoveOwner(usize),
    RemoveWhere {
        owner: usize,
        source_idx: usize,
    },
    Stab(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let install = (0..OWNERS, 0..5usize, 0..2usize, 0..4u8).prop_map(|(o, r, s, v)| Op::Install {
        owner: o,
        range: r,
        source_idx: s,
        variant: v,
    });
    prop_oneof![
        install.clone(),
        install.clone(),
        install,
        (0..OWNERS).prop_map(Op::RemoveOwner),
        (0..OWNERS, 0..2usize).prop_map(|(o, s)| Op::RemoveWhere {
            owner: o,
            source_idx: s
        }),
        (0..PROBES.len()).prop_map(Op::Stab),
    ]
}

/// What the naive model remembers of one installed entry.
#[derive(Clone, Debug, PartialEq)]
struct ModelEntry {
    owner: usize,
    range: usize,
    entry: UpdaterEntry,
}

fn describe(e: &UpdaterEntry) -> String {
    format!("{e:?}")
}

fn run(ops: &[Op]) -> Result<(), TestCaseError> {
    let ranges = ranges();
    let mut idx = UpdaterIndex::new();
    let mut owned: Vec<Vec<UpdaterHandle>> = vec![Vec::new(); OWNERS];
    let mut model: Vec<ModelEntry> = Vec::new();
    for op in ops {
        match *op {
            Op::Install {
                owner,
                range,
                source_idx,
                variant,
            } => {
                let entry = UpdaterEntry {
                    // Two owners per join, so JsIds collide across joins.
                    join: (owner % 2) as u16,
                    js: JsId {
                        slot: (owner / 2) as u32,
                        gen: 0,
                    },
                    source_idx: source_idx as u16,
                    slots: slots(variant),
                };
                let candidate = ModelEntry {
                    owner,
                    range,
                    entry: entry.clone(),
                };
                let duplicate = model.contains(&candidate);
                let got = idx.install(ranges[range].clone(), entry, &owned[owner]);
                prop_assert_eq!(got.is_none(), duplicate, "duplicates, and only those, drop");
                if let Some(h) = got {
                    owned[owner].push(h);
                    model.push(candidate);
                }
            }
            Op::RemoveOwner(owner) => {
                let expect = model.iter().filter(|m| m.owner == owner).count();
                let handles = std::mem::take(&mut owned[owner]);
                prop_assert_eq!(idx.remove_all(&handles), expect);
                // The handles are stale now: a second pass removes nothing.
                prop_assert_eq!(idx.remove_all(&handles), 0);
                model.retain(|m| m.owner != owner);
            }
            Op::RemoveWhere { owner, source_idx } => {
                let doomed = |m: &ModelEntry| {
                    m.owner == owner && usize::from(m.entry.source_idx) == source_idx
                };
                let expect = model.iter().filter(|m| doomed(m)).count();
                let removed = idx.remove_where(&mut owned[owner], |e| {
                    usize::from(e.source_idx) == source_idx
                });
                prop_assert_eq!(removed, expect);
                model.retain(|m| !doomed(m));
            }
            Op::Stab(probe) => {
                let key = Key::from(PROBES[probe]);
                let mut got: Vec<String> = idx
                    .stab(&key)
                    .into_iter()
                    .map(|h| describe(idx.get(h).expect("stabbed handles are live")))
                    .collect();
                let mut want: Vec<String> = model
                    .iter()
                    .filter(|m| ranges[m.range].contains(&key))
                    .map(|m| describe(&m.entry))
                    .collect();
                got.sort();
                want.sort();
                prop_assert_eq!(got, want, "stab at {:?}", key);
            }
        }
        let mut live_ranges: Vec<usize> = model.iter().map(|m| m.range).collect();
        live_ranges.sort_unstable();
        live_ranges.dedup();
        prop_assert_eq!(idx.entry_count(), model.len());
        prop_assert_eq!(idx.node_count(), live_ranges.len());
        prop_assert_eq!(
            idx.approx_bytes(),
            live_ranges.len() * 96 + model.len() * 64
        );
        prop_assert_eq!(idx.audit(), Vec::<String>::new());
        for (owner, handles) in owned.iter().enumerate() {
            let mut got: Vec<String> = Vec::new();
            for &h in handles {
                let e = idx.get(h);
                prop_assert!(e.is_some(), "owner {} lists a stale handle", owner);
                got.extend(e.map(describe));
            }
            let want: Vec<String> = model
                .iter()
                .filter(|m| m.owner == owner)
                .map(|m| describe(&m.entry))
                .collect();
            prop_assert_eq!(got, want, "owner {}'s handles, in install order", owner);
        }
    }
    Ok(())
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(128)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn index_matches_naive_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        run(&ops)?;
    }
}

/// One node of 2,400 entries, thinned from the middle outwards until
/// 400 are left: each removal moves the node's last entry into the place
/// it frees, yet every remaining handle finds its own entry and a stab
/// finds exactly the entries kept; then new entries take the freed
/// cells, and every removed handle stays stale while every other finds
/// its own entry.
#[test]
fn a_large_node_thinned_from_the_middle_keeps_its_handles_exact() {
    const ENTRIES: u32 = 2400;
    let mut idx = UpdaterIndex::new();
    let entry = |js: u32| UpdaterEntry {
        join: 0,
        js: JsId { slot: js, gen: 0 },
        source_idx: 1,
        slots: slots(3),
    };
    let range = KeyRange::prefix("p|a|");
    let handles: Vec<UpdaterHandle> = (0..ENTRIES)
        .map(|js| idx.install(range.clone(), entry(js), &[]).unwrap())
        .collect();
    let mut kept: Vec<bool> = vec![true; ENTRIES as usize];
    let stabbed = |idx: &UpdaterIndex| {
        let mut js: Vec<u32> = (idx.stab(&Key::from("p|a|1")).into_iter())
            .map(|h| idx.get(h).unwrap().js.slot)
            .collect();
        js.sort_unstable();
        js
    };
    let check = |idx: &UpdaterIndex, kept: &[bool]| {
        let want: Vec<u32> = (0..ENTRIES).filter(|&js| kept[js as usize]).collect();
        assert_eq!(stabbed(idx), want, "a stab finds the entries kept");
        for (js, &h) in handles.iter().enumerate() {
            let found = idx.get(h).map(|e| e.js.slot);
            assert_eq!(found, kept[js].then_some(js as u32), "handle of entry {js}");
        }
        assert_eq!(idx.entry_count(), want.len());
        assert_eq!(idx.audit(), Vec::<String>::new());
    };
    for i in 0..2000u32 {
        let js = match i % 2 {
            0 => ENTRIES / 2 + i / 2,
            _ => ENTRIES / 2 - i.div_ceil(2),
        };
        assert_eq!(
            idx.remove(handles[js as usize]).map(|e| e.js.slot),
            Some(js)
        );
        kept[js as usize] = false;
        if i % 250 == 249 {
            check(&idx, &kept);
        }
    }
    assert_eq!(idx.node_count(), 1);
    // New entries take the freed cells; the old handles still resolve
    // to nothing and remove nothing.
    let fresh: Vec<UpdaterHandle> = (ENTRIES..2 * ENTRIES)
        .map(|js| idx.install(range.clone(), entry(js), &[]).unwrap())
        .collect();
    let want: Vec<u32> = (0..2 * ENTRIES)
        .filter(|&js| js >= ENTRIES || kept[js as usize])
        .collect();
    assert_eq!(stabbed(&idx), want, "kept and fresh entries");
    for (js, &h) in handles.iter().enumerate() {
        match kept[js] {
            true => assert_eq!(idx.get(h).map(|e| e.js.slot), Some(js as u32)),
            false => assert!(idx.get(h).is_none() && idx.remove(h).is_none()),
        }
    }
    for (js, &h) in (ENTRIES..).zip(&fresh) {
        assert_eq!(idx.get(h).map(|e| e.js.slot), Some(js));
    }
    assert_eq!(idx.entry_count(), 400 + ENTRIES as usize);
    assert_eq!(idx.audit(), Vec::<String>::new());
}
