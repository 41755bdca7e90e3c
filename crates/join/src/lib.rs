//! `pequod-join` — the cache-join language.
//!
//! A *cache join* (Pequod, NSDI '14) declaratively relates computed
//! key-value data to base data: the Twip timeline join
//!
//! ```text
//! t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>
//! ```
//!
//! defines `t|user|time|poster` as a copy of `p|poster|time` whenever the
//! subscription `s|user|poster` exists. This crate provides:
//!
//! * [`Pattern`] — key patterns with delimiter- and fixed-width slots,
//!   key matching, expansion, and slot derivation from scan ranges;
//! * [`SlotTable`] / [`SlotSet`] — interned slot names and partial slot
//!   assignments (§3.1's "slot sets"), and [`Bindings`], a slot set
//!   packed into the one byte string an installed updater keeps;
//! * [`containing_range`] — the minimal source range that can affect a
//!   requested output range (§3.1's "containing ranges");
//! * [`JoinSpec`] — the parsed and validated join grammar of Figure 2,
//!   including maintenance annotations (`push` / `pull` / `snapshot T`).
//!
//! Query execution and incremental maintenance live in `pequod-core`.

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

pub mod containing;
pub mod pattern;
pub mod slots;
pub mod spec;

pub use containing::containing_range;
pub use pattern::{Pattern, PatternError, Token};
pub use slots::{Bindings, SlotId, SlotSet, SlotTable};
pub use spec::{parse_joins, JoinError, JoinSpec, Maintenance, Operator, Source};

#[cfg(test)]
mod proptests {
    use super::*;
    use pequod_store::{Key, KeyRange};
    use proptest::prelude::*;

    /// Key components use a low alphabet so that the `|` delimiter sorts
    /// above every value byte, matching the documented key convention.
    fn component() -> impl Strategy<Value = String> {
        proptest::string::string_regex("[a-d]{1,3}").unwrap()
    }

    fn fixed_component(width: usize) -> impl Strategy<Value = String> {
        proptest::string::string_regex(&format!("[0-9]{{{width}}}")).unwrap()
    }

    proptest! {
        /// match(expand(slots)) binds the same slots back.
        #[test]
        fn expand_match_roundtrip(user in component(), time in fixed_component(3), poster in component()) {
            let mut table = SlotTable::new();
            let pat = Pattern::parse("t|<user>|<time:3>|<poster>", &mut table).unwrap();
            let mut slots = table.empty_set();
            slots.bind(table.lookup("user").unwrap(), user.clone().into_bytes().into());
            slots.bind(table.lookup("time").unwrap(), time.clone().into_bytes().into());
            slots.bind(table.lookup("poster").unwrap(), poster.clone().into_bytes().into());
            let key = pat.expand(&slots).unwrap();
            let mut bound = table.empty_set();
            prop_assert!(pat.match_key(&key, &mut bound));
            prop_assert_eq!(bound.get(table.lookup("user").unwrap()).unwrap().as_ref(), user.as_bytes());
            prop_assert_eq!(bound.get(table.lookup("time").unwrap()).unwrap().as_ref(), time.as_bytes());
            prop_assert_eq!(bound.get(table.lookup("poster").unwrap()).unwrap().as_ref(), poster.as_bytes());
        }

        /// Soundness of containing ranges by enumeration: every source key
        /// whose join output lands in the scanned range must fall inside
        /// the computed containing range — for random scan bounds.
        #[test]
        fn containing_range_sound(
            scan_lo in component(), scan_lo_time in fixed_component(3),
            scan_hi in component(), scan_hi_time in fixed_component(3),
            user in component(), poster in component(),
            times in proptest::collection::vec(fixed_component(3), 1..6),
        ) {
            let mut table = SlotTable::new();
            let output = Pattern::parse("t|<user>|<time:3>|<poster>", &mut table).unwrap();
            let source = Pattern::parse("p|<poster>|<time:3>", &mut table).unwrap();
            let scan = KeyRange::new(
                format!("t|{scan_lo}|{scan_lo_time}"),
                format!("t|{scan_hi}|{scan_hi_time}"),
            );
            let mut slots = table.empty_set();
            slots.bind(table.lookup("user").unwrap(), user.clone().into_bytes().into());
            slots.bind(table.lookup("poster").unwrap(), poster.clone().into_bytes().into());
            let crange = containing_range(&source, &output, &slots, &scan);
            for time in &times {
                let skey = Key::from(format!("p|{poster}|{time}"));
                let okey = Key::from(format!("t|{user}|{time}|{poster}"));
                if scan.contains(&okey) {
                    prop_assert!(
                        crange.contains(&skey),
                        "scan {:?}: {:?} contributes {:?} but containing {:?} misses it",
                        scan, skey, okey, crange
                    );
                }
            }
        }

        /// Same soundness property for a variable-width time slot, where
        /// the range must be conservative.
        #[test]
        fn containing_range_sound_variable(
            scan_lo_time in component(), scan_hi_time in component(),
            user in component(), poster in component(),
            times in proptest::collection::vec(component(), 1..6),
        ) {
            let mut table = SlotTable::new();
            let output = Pattern::parse("t|<user>|<time>|<poster>", &mut table).unwrap();
            let source = Pattern::parse("p|<poster>|<time>", &mut table).unwrap();
            let scan = KeyRange::new(
                format!("t|{user}|{scan_lo_time}"),
                format!("t|{user}|{scan_hi_time}"),
            );
            let mut slots = table.empty_set();
            slots.bind(table.lookup("user").unwrap(), user.clone().into_bytes().into());
            slots.bind(table.lookup("poster").unwrap(), poster.clone().into_bytes().into());
            let crange = containing_range(&source, &output, &slots, &scan);
            for time in &times {
                let skey = Key::from(format!("p|{poster}|{time}"));
                let okey = Key::from(format!("t|{user}|{time}|{poster}"));
                if scan.contains(&okey) {
                    prop_assert!(
                        crange.contains(&skey),
                        "scan {:?}: {:?} contributes {:?} but containing {:?} misses it",
                        scan, skey, okey, crange
                    );
                }
            }
        }

        /// derive_slots never binds a slot to a wrong value: any in-range
        /// key matching the pattern agrees with every derived binding.
        #[test]
        fn derive_slots_consistent(
            user in component(), time in fixed_component(3), poster in component(),
            hi_time in fixed_component(3),
        ) {
            let mut table = SlotTable::new();
            let pat = Pattern::parse("t|<user>|<time:3>|<poster>", &mut table).unwrap();
            let range = KeyRange::new(
                format!("t|{user}|{time}"),
                format!("t|{user}|{hi_time}"),
            );
            if range.is_empty() { return Ok(()); }
            let mut derived = table.empty_set();
            pat.derive_slots(&range, &mut derived);
            let probe = Key::from(format!("t|{user}|{time}|{poster}"));
            if range.contains(&probe) {
                let mut bound = derived.clone();
                prop_assert!(pat.match_key(&probe, &mut bound), "derived bindings conflicted with in-range key");
            }
        }
    }

    /// A slot's value: usually one of a few short strings, so that two
    /// sets often agree; sometimes empty, or on either side of the
    /// length a `Bytes` handle holds in place, or past one length byte.
    fn slot_value() -> impl Strategy<Value = Option<Vec<u8>>> {
        let sized = |len: usize| (0..3u8).prop_map(move |b| Some(vec![b'a' + b; len]));
        prop_oneof![
            Just(None),
            Just(None),
            Just(None),
            sized(3),
            sized(3),
            sized(3),
            sized(0),
            sized(30),
            sized(31),
            sized(300),
        ]
    }

    fn slot_set(values: &[Option<Vec<u8>>], spare: usize) -> SlotSet {
        let mut table = SlotTable::new();
        for i in 0..values.len() + spare {
            table.intern(&i.to_string());
        }
        let mut set = table.empty_set();
        for (i, v) in values.iter().enumerate() {
            if let Some(v) = v {
                set.bind(SlotId(i as u16), v.clone().into());
            }
        }
        set
    }

    proptest! {
        /// Packed bindings against the slot sets they were packed from:
        /// they read back slot for slot, judge consistency as the slot set
        /// would, and are equal as bytes exactly when the sets bind the
        /// same slots to the same values — whatever the sets' capacities.
        #[test]
        fn packed_bindings_match_their_slot_set(
            a in proptest::collection::vec(slot_value(), 0..140),
            b in proptest::collection::vec(slot_value(), 8..12),
            spare in 0..3usize,
        ) {
            let (set_a, set_b) = (slot_set(&a, 0), slot_set(&b, spare));
            let (packed_a, packed_b) = (Bindings::pack(&set_a), Bindings::pack(&set_b));
            for (values, set, packed) in [(&a, &set_a, &packed_a), (&b, &set_b, &packed_b)] {
                let bound: Vec<(SlotId, &[u8])> = (values.iter().enumerate())
                    .filter_map(|(i, v)| Some((SlotId(i as u16), &v.as_ref()?[..])))
                    .collect();
                prop_assert_eq!(packed.iter().collect::<Vec<_>>(), bound);
                for i in 0..values.len() + 2 {
                    let id = SlotId(i as u16);
                    prop_assert_eq!(packed.get(id), set.get(id).map(|v| &v[..]));
                }
                prop_assert_eq!(packed, &Bindings::pack(&slot_set(values, 5)));
            }
            prop_assert_eq!(packed_a.consistent_with(&set_b), set_a.consistent_with(&set_b));
            prop_assert_eq!(packed_b.consistent_with(&set_a), set_b.consistent_with(&set_a));
            let bound = |v: &[Option<Vec<u8>>]| {
                v.iter().cloned().enumerate().filter(|(_, v)| v.is_some()).collect::<Vec<_>>()
            };
            // `==` is derived: it compares the packed bytes.
            prop_assert_eq!(packed_a == packed_b, bound(&a) == bound(&b));
        }
    }
}
