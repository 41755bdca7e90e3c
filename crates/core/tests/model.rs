//! Model-based property tests: after any interleaving of base writes and
//! scans, an incrementally-maintained engine must return exactly what a
//! fresh engine computes from scratch over the same base data.
//!
//! This is the central correctness property of incremental view
//! maintenance — it exercises containing ranges, updater dispatch, lazy
//! check application, stale-updater teardown, aggregates, and
//! invalidation, under adversarial schedules.

use pequod_core::config::MemoryLimit;
use pequod_core::{Engine, EngineConfig, MaterializationMode};
use pequod_store::{Key, KeyRange, StoreConfig};
use proptest::prelude::*;

const TIMELINE: &str =
    "t|<user>|<time:3>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:3>";
const KARMA: &str = "karma|<author> = count vote|<author>|<id>|<voter>";
/// Chained over the timeline join: its source is computed, and lazily
/// maintained, data.
const LENGTH: &str = "n|<user> = count t|<user>|<time:3>|<poster>";
/// Also chained, but read one user at a time: a `m|ann|` scan reads
/// `t|ann|` and no other timeline, so the others keep their logs.
const MIRROR: &str = "m|<user>|<time:3>|<poster> = copy t|<user>|<time:3>|<poster>";

const USERS: [&str; 4] = ["ann", "bob", "cat", "liz"];

#[derive(Clone, Debug)]
enum Op {
    Follow(u8, u8),
    Unfollow(u8, u8),
    Post(u8, u16),
    Unpost(u8, u16),
    CheckTimeline(u8),
    CheckSince(u8, u16),
    Vote(u8, u8, u8),
    Unvote(u8, u8, u8),
    ReadKarma,
    ReadLengths,
    CheckMirror(u8),
}

/// Every op but the reads through the chained joins.
fn unchained_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..4u8, 0..4u8).prop_map(|(a, b)| Op::Follow(a, b)),
        (0..4u8, 0..4u8).prop_map(|(a, b)| Op::Unfollow(a, b)),
        (0..4u8, 0..500u16).prop_map(|(a, t)| Op::Post(a, t)),
        (0..4u8, 0..500u16).prop_map(|(a, t)| Op::Unpost(a, t)),
        (0..4u8).prop_map(Op::CheckTimeline),
        (0..4u8, 0..500u16).prop_map(|(a, t)| Op::CheckSince(a, t)),
        (0..4u8, 0..4u8, 0..4u8).prop_map(|(a, i, v)| Op::Vote(a, i, v)),
        (0..4u8, 0..4u8, 0..4u8).prop_map(|(a, i, v)| Op::Unvote(a, i, v)),
        Just(Op::ReadKarma),
    ]
}

/// All eleven ops, each as likely as any other.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0..11u8, unchained_op_strategy(), 0..4u8).prop_map(|(pick, op, user)| match pick {
        0 => Op::ReadLengths,
        1 => Op::CheckMirror(user),
        _ => op,
    })
}

struct Harness {
    engine: Engine,
    /// Base writes replayed into oracle engines.
    base: Vec<(String, Option<String>)>,
}

impl Harness {
    fn new(config: EngineConfig) -> Harness {
        let mut engine = Engine::new(config);
        engine.add_join_text(TIMELINE).unwrap();
        engine.add_join_text(KARMA).unwrap();
        engine.add_join_text(LENGTH).unwrap();
        engine.add_join_text(MIRROR).unwrap();
        Harness {
            engine,
            base: Vec::new(),
        }
    }

    fn write(&mut self, key: String, value: Option<&str>) {
        match value {
            Some(v) => self.engine.put(key.clone(), v.to_string()),
            None => self.engine.remove(&Key::from(key.clone())),
        }
        self.base.push((key, value.map(str::to_string)));
    }

    /// A fresh engine with the same surviving base data, used as the
    /// from-scratch oracle.
    fn oracle(&self) -> Engine {
        let cfg = EngineConfig {
            materialization: MaterializationMode::None,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(cfg);
        e.add_join_text(TIMELINE).unwrap();
        e.add_join_text(KARMA).unwrap();
        e.add_join_text(LENGTH).unwrap();
        e.add_join_text(MIRROR).unwrap();
        let mut last: std::collections::BTreeMap<String, Option<String>> = Default::default();
        for (k, v) in &self.base {
            last.insert(k.clone(), v.clone());
        }
        for (k, v) in last {
            if let Some(v) = v {
                e.put(k, v);
            }
        }
        e
    }

    fn compare(&mut self, range: &KeyRange) -> Result<(), TestCaseError> {
        let got = self.engine.scan(range);
        prop_assert!(got.is_complete());
        let want = self.oracle().scan(range);
        let got: Vec<(String, String)> = got
            .pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), String::from_utf8_lossy(&v).into_owned()))
            .collect();
        let want: Vec<(String, String)> = want
            .pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), String::from_utf8_lossy(&v).into_owned()))
            .collect();
        prop_assert_eq!(got, want, "scan {:?} diverged from oracle", range);
        Ok(())
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Follow(u, p) => self.write(
                format!("s|{}|{}", USERS[u as usize], USERS[p as usize]),
                Some("1"),
            ),
            Op::Unfollow(u, p) => self.write(
                format!("s|{}|{}", USERS[u as usize], USERS[p as usize]),
                None,
            ),
            Op::Post(u, t) => self.write(
                format!("p|{}|{:03}", USERS[u as usize], t % 1000),
                Some("tweet"),
            ),
            Op::Unpost(u, t) => {
                self.write(format!("p|{}|{:03}", USERS[u as usize], t % 1000), None)
            }
            Op::CheckTimeline(u) => {
                let prefix = format!("t|{}|", USERS[u as usize]);
                self.compare(&KeyRange::prefix(prefix))?;
            }
            Op::CheckSince(u, t) => {
                let user = USERS[u as usize];
                let range = KeyRange::new(
                    format!("t|{user}|{:03}", t % 1000),
                    Key::from(format!("t|{user}|")).prefix_end().unwrap(),
                );
                self.compare(&range)?;
            }
            Op::Vote(a, i, v) => self.write(
                format!("vote|{}|{}|{}", USERS[a as usize], i, USERS[v as usize]),
                Some("1"),
            ),
            Op::Unvote(a, i, v) => self.write(
                format!("vote|{}|{}|{}", USERS[a as usize], i, USERS[v as usize]),
                None,
            ),
            Op::ReadKarma => self.compare(&KeyRange::prefix("karma|"))?,
            Op::ReadLengths => self.compare(&KeyRange::prefix("n|"))?,
            Op::CheckMirror(u) => {
                let prefix = format!("m|{}|", USERS[u as usize]);
                self.compare(&KeyRange::prefix(prefix))?;
            }
        }
        Ok(())
    }
}

fn run_schedule(config: EngineConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    run_audited_schedule(config, ops, |_| Ok(()))
}

/// [`run_schedule`] with `audit` run on the engine after every op.
fn run_audited_schedule(
    config: EngineConfig,
    ops: &[Op],
    audit: impl Fn(&Engine) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let mut h = Harness::new(config);
    for op in ops {
        h.apply(op)?;
        audit(&h.engine)?;
    }
    // Final global audit across every join output.
    h.compare(&KeyRange::prefix("t|"))?;
    h.compare(&KeyRange::prefix("karma|"))?;
    h.compare(&KeyRange::prefix("n|"))?;
    h.compare(&KeyRange::prefix("m|"))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dynamic_materialization_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        run_schedule(EngineConfig::default(), &ops)?;
    }

    #[test]
    fn eager_checks_match_oracle(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let cfg = EngineConfig {
            lazy_checks: false,
            ..EngineConfig::default()
        };
        run_schedule(cfg, &ops)?;
    }

    #[test]
    fn full_materialization_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let cfg = EngineConfig {
            materialization: MaterializationMode::Full,
            ..EngineConfig::default()
        };
        run_schedule(cfg, &ops)?;
    }

    #[test]
    fn tiny_log_limit_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        // Force frequent complete invalidations.
        let cfg = EngineConfig {
            pending_log_limit: 1,
            ..EngineConfig::default()
        };
        run_schedule(cfg, &ops)?;
    }

    #[test]
    fn no_hints_no_sharing_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let cfg = EngineConfig {
            output_hints: false,
            value_sharing: false,
            ..EngineConfig::default()
        };
        run_schedule(cfg, &ops)?;
    }

    /// Timelines gather check-source logs while nothing reads their
    /// outputs; then one user's mirror is read, which leaves the other
    /// timelines' logs in place, and the writes go on.
    #[test]
    fn a_late_chained_reader_matches_oracle(
        quiet in proptest::collection::vec(unchained_op_strategy(), 4..40),
        reader in 0..4u8,
        watched in proptest::collection::vec(unchained_op_strategy(), 4..40),
    ) {
        let ops = [quiet, vec![Op::CheckMirror(reader)], watched].concat();
        run_schedule(EngineConfig::default(), &ops)?;
    }

    /// The evict → recompute cycle under the same op stream: a cap so
    /// small that every few operations evict a range, timelines laid out
    /// as subtables (as the servers lay them out), every engine invariant
    /// re-checked after every operation, every read still equal to the
    /// from-scratch oracle's.
    #[test]
    fn tiny_memory_cap_matches_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        cap in prop_oneof![Just(600usize), Just(1500), Just(3000)],
    ) {
        let cfg = EngineConfig::with_store(StoreConfig::flat().with_subtable("t|", 2))
            .with_mem_limit(MemoryLimit::new(cap));
        run_audited_schedule(cfg, &ops, |engine| {
            prop_assert_eq!(engine.check_invariants(), Vec::<String>::new());
            Ok(())
        })?;
    }
}
