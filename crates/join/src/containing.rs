//! Containing ranges: translating output-range constraints into minimal
//! source-key ranges (§3.1).
//!
//! "Given a slot set, a source pattern, and the requested output key
//! range, Pequod can calculate a minimal range of source keys that might
//! affect the scan's results." For the timeline join, a scan of
//! `[t|ann|100, t|ann|200)` with slots `{user→ann, poster→bob}` yields
//! the post range `[p|bob|100, p|bob|200)`.
//!
//! The computation emits the source pattern's determined prefix, then
//! *walks* the scan bound's remaining bytes through the source and output
//! patterns in lockstep, transferring bytes only while the two token
//! sequences are identical (same literals, same slots). Where they
//! diverge the walk stops and the bound is widened conservatively:
//!
//! * **lower bound** — partial consumption of a variable-width slot is
//!   discarded (a shorter slot value followed by a high delimiter byte
//!   can still produce in-range output keys);
//! * **upper bound** — partial bytes are kept, and a divergence widens
//!   the end to the prefix-end of the bytes consumed so far.
//!
//! Fixed-width slots always transfer exactly, which is why the paper's
//! tight `[p|bob|100, p|bob|+)` range requires fixed-width timestamps.
//! Correctness of variable-width transfer relies on the key convention
//! that slot values contain no byte `≥` the delimiter (true for
//! `|`-separated alphanumeric keys).

use crate::pattern::{part, Pattern, Token};
use crate::slots::SlotSet;
use pequod_store::{Key, KeyRange, UpperBound};

/// Computes the minimal range of `source` keys that can influence
/// `output` keys within `out_range`, given the bindings in `slots`
/// (Figure 3's `ss.containingrange(source, first, last)`).
pub fn containing_range(
    source: &Pattern,
    output: &Pattern,
    slots: &SlotSet,
    out_range: &KeyRange,
) -> KeyRange {
    let (ps, s_ti) = source.determined_prefix(slots);
    if s_ti == source.tokens().len() {
        // Source key fully determined.
        return KeyRange::single(ps);
    }
    let base = KeyRange::prefix(ps.clone());
    let Token::Slot { id: s_id, .. } = &source.tokens()[s_ti] else {
        unreachable!("determined_prefix stops only at slots");
    };

    // The output's first unbound slot must be that source slot: every
    // output token before it must be determined for the scan bounds to
    // transfer (an earlier unbound slot blocks them).
    let (po, o_ti) = output.determined_prefix(slots);
    if !matches!(output.tokens().get(o_ti), Some(Token::Slot { id, .. }) if id == s_id) {
        return base;
    }
    let po_end = po.prefix_end();

    let src_toks = &source.tokens()[s_ti..];
    let out_toks = &output.tokens()[o_ti..];
    let empty = || KeyRange::new(ps.clone(), ps.clone());

    // Lower bound.
    let first = {
        let o1 = &out_range.first;
        if o1 <= &po {
            ps.clone()
        } else if !o1.starts_with(po.as_bytes()) {
            // o1 > po but shares no prefix: it lies at or above po's span.
            debug_assert!(po_end.as_ref().is_some_and(|pe| o1 >= pe));
            return empty();
        } else {
            let suffix = &o1.as_bytes()[po.len()..];
            let (consumed, _) = walk(suffix, src_toks, out_toks, Mode::Lower, slots);
            Key::join(&[ps.as_bytes(), &suffix[..consumed]])
        }
    };

    // Upper bound.
    let end = match &out_range.end {
        UpperBound::Unbounded => base.end,
        UpperBound::Excluded(o2) => {
            if o2 <= &po {
                return empty();
            } else if !o2.starts_with(po.as_bytes()) {
                // o2 lies above po's entire span: no constraint.
                base.end
            } else {
                let suffix = &o2.as_bytes()[po.len()..];
                let (consumed, outcome) = walk(suffix, src_toks, out_toks, Mode::Upper, slots);
                let bound = Key::join(&[ps.as_bytes(), &suffix[..consumed]]);
                match outcome {
                    Outcome::Exhausted => UpperBound::Excluded(bound),
                    Outcome::Diverged => match bound.prefix_end() {
                        Some(pe) => UpperBound::Excluded(pe),
                        None => UpperBound::Unbounded,
                    },
                }
            }
        }
    };

    KeyRange { first, end }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Lower,
    Upper,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    /// The scan-bound suffix was fully transferred.
    Exhausted,
    /// The token sequences diverged; `consumed` bytes transferred safely.
    Diverged,
}

/// Transfers bytes of `suffix` through the aligned token sequences,
/// returning how many bytes carry over to the source bound.
fn walk<'a>(
    suffix: &[u8],
    src: &'a [Token],
    out: &'a [Token],
    mode: Mode,
    slots: &'a SlotSet,
) -> (usize, Outcome) {
    let mut pos = 0usize;
    let mut i = 0usize;
    loop {
        if pos == suffix.len() {
            return (pos, Outcome::Exhausted);
        }
        let (Some(st), Some(ot)) = (src.get(i), out.get(i)) else {
            return (pos, Outcome::Diverged);
        };
        // Resolve bound slots to their literal bytes.
        match (part(st, slots), part(ot, slots)) {
            (Some(a), Some(b)) => {
                // Both effectively literal: must be identical to transfer.
                if a != b {
                    return (pos, Outcome::Diverged);
                }
                let n = a.len().min(suffix.len() - pos);
                let m = suffix[pos..pos + n]
                    .iter()
                    .zip(a.iter())
                    .take_while(|(x, y)| x == y)
                    .count();
                if m < n {
                    // Byte mismatch inside the literal: transfer the agreeing
                    // bytes and stop (safe in both modes; see module docs).
                    return (pos + m, Outcome::Diverged);
                }
                if n < a.len() {
                    // Suffix exhausted mid-literal.
                    return (pos + n, Outcome::Exhausted);
                }
                pos += n;
                i += 1;
            }
            (None, None) => {
                // Both unbound slots: must be the same slot, same width.
                let (Token::Slot { id: sa, width: wa }, Token::Slot { id: sb, width: wb }) =
                    (st, ot)
                else {
                    unreachable!()
                };
                if sa != sb || wa != wb {
                    return (pos, Outcome::Diverged);
                }
                match wa {
                    Some(w) => {
                        let n = (*w).min(suffix.len() - pos);
                        if n < *w {
                            // Mid-slot, but fixed width transfers exactly.
                            return (pos + n, Outcome::Exhausted);
                        }
                        pos += w;
                        i += 1;
                    }
                    None => {
                        // Variable-width: extent defined by the next literal,
                        // which must be identical in both patterns.
                        let next_src = src.get(i + 1);
                        let next_out = out.get(i + 1);
                        match (next_src, next_out) {
                            (None, None) => {
                                // Both patterns end here: slot takes the rest.
                                return (suffix.len(), Outcome::Exhausted);
                            }
                            (Some(Token::Lit(a)), Some(Token::Lit(b))) if a == b => {
                                match find(&suffix[pos..], a) {
                                    Some(off) => {
                                        pos += off;
                                        i += 1; // literal verified next turn
                                    }
                                    None => {
                                        // Suffix ends inside the slot value.
                                        return match mode {
                                            Mode::Lower => (pos, Outcome::Exhausted),
                                            Mode::Upper => (suffix.len(), Outcome::Exhausted),
                                        };
                                    }
                                }
                            }
                            _ => return (pos, Outcome::Diverged),
                        }
                    }
                }
            }
            _ => return (pos, Outcome::Diverged),
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() {
        return Some(0);
    }
    if needle.len() > haystack.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::SlotTable;
    use bytes::Bytes;

    struct Setup {
        table: SlotTable,
        source_s: Pattern,
        source_p: Pattern,
        output: Pattern,
    }

    fn timeline(fixed_time: bool) -> Setup {
        let mut table = SlotTable::new();
        let time = if fixed_time { "<time:3>" } else { "<time>" };
        let output = Pattern::parse(&format!("t|<user>|{time}|<poster>"), &mut table).unwrap();
        let source_s = Pattern::parse("s|<user>|<poster>", &mut table).unwrap();
        let source_p = Pattern::parse(&format!("p|<poster>|{time}"), &mut table).unwrap();
        Setup {
            table,
            source_s,
            source_p,
            output,
        }
    }

    fn bind(setup: &Setup, pairs: &[(&str, &str)]) -> SlotSet {
        let mut s = setup.table.empty_set();
        for (name, v) in pairs {
            s.bind(
                setup.table.lookup(name).unwrap(),
                Bytes::copy_from_slice(v.as_bytes()),
            );
        }
        s
    }

    #[test]
    fn check_source_blocked_by_unbound_time() {
        // First source of the timeline join: only `user` is bound, and
        // `poster` is blocked in the output by the unbound `time`, so the
        // containing range is the whole subscription list (paper §3.1:
        // `[s|ann|, s|ann|+)`).
        let setup = timeline(true);
        let slots = bind(&setup, &[("user", "ann")]);
        let got = containing_range(
            &setup.source_s,
            &setup.output,
            &slots,
            &KeyRange::new("t|ann|100", "t|ann}"),
        );
        assert_eq!(got, KeyRange::prefix("s|ann|"));
    }

    #[test]
    fn post_source_fixed_width_is_tight() {
        // Paper §3.1: scan [t|ann|100, t|ann|200) with {user→ann,
        // poster→bob} gives the minimal post range [p|bob|100, p|bob|200).
        let setup = timeline(true);
        let slots = bind(&setup, &[("user", "ann"), ("poster", "bob")]);
        let got = containing_range(
            &setup.source_p,
            &setup.output,
            &slots,
            &KeyRange::new("t|ann|100", "t|ann|200"),
        );
        assert_eq!(got, KeyRange::new("p|bob|100", "p|bob|200"));
    }

    #[test]
    fn post_source_open_ended_scan() {
        // [t|ann|100, t|ann|+) -> [p|bob|100, p|bob|+)
        let setup = timeline(true);
        let slots = bind(&setup, &[("user", "ann"), ("poster", "bob")]);
        let got = containing_range(
            &setup.source_p,
            &setup.output,
            &slots,
            &KeyRange::new("t|ann|100", "t|ann}"),
        );
        assert_eq!(got, KeyRange::new("p|bob|100", "p|bob}"));
    }

    #[test]
    fn variable_width_time_is_conservative() {
        // Without fixed-width timestamps the lower bound cannot transfer
        // (a post key `p|bob|1` can produce output `t|ann|1|bob` which
        // sorts above `t|ann|100`), so the range widens to all posts.
        let setup = timeline(false);
        let slots = bind(&setup, &[("user", "ann"), ("poster", "bob")]);
        let got = containing_range(
            &setup.source_p,
            &setup.output,
            &slots,
            &KeyRange::new("t|ann|100", "t|ann|200"),
        );
        assert_eq!(got.first, Key::from("p|bob|"));
        // Upper bound may keep partial bytes (safe) but must cover all
        // posts that can appear in the scan.
        assert!(got.contains(&Key::from("p|bob|1")));
        assert!(got.contains(&Key::from("p|bob|199")));
    }

    #[test]
    fn scan_before_all_outputs_keeps_source_start() {
        let setup = timeline(true);
        let slots = bind(&setup, &[("user", "ann"), ("poster", "bob")]);
        let got = containing_range(
            &setup.source_p,
            &setup.output,
            &slots,
            &KeyRange::new("t|ann", "t|ann|200"),
        );
        assert_eq!(got, KeyRange::new("p|bob|", "p|bob|200"));
    }

    #[test]
    fn scan_outside_bound_prefix_is_empty() {
        let setup = timeline(true);
        let slots = bind(&setup, &[("user", "ann"), ("poster", "bob")]);
        // Scan of bob's timeline with slots bound to ann: no overlap.
        let got = containing_range(
            &setup.source_p,
            &setup.output,
            &slots,
            &KeyRange::new("t|bob|100", "t|bob|200"),
        );
        assert!(got.is_empty());
    }

    #[test]
    fn scan_covering_everything_keeps_prefix_range() {
        let setup = timeline(true);
        let slots = bind(&setup, &[("user", "ann"), ("poster", "bob")]);
        let got = containing_range(
            &setup.source_p,
            &setup.output,
            &slots,
            &KeyRange::new("a", "z"),
        );
        assert_eq!(got, KeyRange::prefix("p|bob|"));
    }

    #[test]
    fn fully_bound_source_is_single_key() {
        let setup = timeline(true);
        let slots = bind(
            &setup,
            &[("user", "ann"), ("poster", "bob"), ("time", "100")],
        );
        let got = containing_range(
            &setup.source_p,
            &setup.output,
            &slots,
            &KeyRange::new("t|ann|100", "t|ann|200"),
        );
        assert_eq!(got, KeyRange::single("p|bob|100"));
    }

    #[test]
    fn cross_timeline_scan_unbound_user() {
        // [t|ann|100, t|bob|200) with nothing bound: the subscription
        // source gets a conservative range covering both users.
        let setup = timeline(true);
        let slots = setup.table.empty_set();
        let got = containing_range(
            &setup.source_s,
            &setup.output,
            &slots,
            &KeyRange::new("t|ann|100", "t|bob|200"),
        );
        // Must contain both users' subscriptions.
        assert!(got.contains(&Key::from("s|ann|bob")));
        assert!(got.contains(&Key::from("s|ann|aaa"))); // poster below 100: still needed
        assert!(got.contains(&Key::from("s|bob|zed")));
        assert!(!got.contains(&Key::from("s|am|zed"))); // user below ann
    }

    #[test]
    fn unbounded_scan_end() {
        let setup = timeline(true);
        let slots = bind(&setup, &[("user", "ann"), ("poster", "bob")]);
        let got = containing_range(
            &setup.source_p,
            &setup.output,
            &slots,
            &KeyRange::with_bound("t|ann|100", UpperBound::Unbounded),
        );
        assert_eq!(got, KeyRange::new("p|bob|100", "p|bob}"));
    }

    /// Brute-force check: enumerate a small universe of source keys, run
    /// the real semantics (which outputs land in the scan range), and
    /// verify every contributing source key falls inside the computed
    /// containing range.
    #[test]
    fn containing_range_is_sound_by_enumeration() {
        for fixed in [true, false] {
            let setup = timeline(fixed);
            let users = ["ann", "bob"];
            let posters = ["ali", "bob", "liz"];
            let times: Vec<String> = if fixed {
                (0..6).map(|i| format!("{:03}", i * 37)).collect()
            } else {
                vec![
                    "1".into(),
                    "12".into(),
                    "123".into(),
                    "2".into(),
                    "20".into(),
                ]
            };
            let scans = [
                KeyRange::new("t|ann|037", "t|ann|112"),
                KeyRange::new("t|ann|1", "t|ann|2"),
                KeyRange::new("t|ann", "t|bob|112"),
                KeyRange::prefix("t|ann|"),
                KeyRange::all(),
            ];
            for scan in &scans {
                for user in users {
                    for poster in posters {
                        let slots = bind(&setup, &[("user", user), ("poster", poster)]);
                        let crange = containing_range(&setup.source_p, &setup.output, &slots, scan);
                        for time in &times {
                            let source_key = Key::from(format!("p|{poster}|{time}"));
                            let out_key = Key::from(format!("t|{user}|{time}|{poster}"));
                            if scan.contains(&out_key) {
                                assert!(
                                    crange.contains(&source_key),
                                    "fixed={fixed} scan={scan:?} slots=({user},{poster}) \
                                     source {source_key:?} contributes {out_key:?} but \
                                     containing range {crange:?} misses it"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Tightness spot check (fixed width): keys outside the minimal range
    /// are excluded.
    #[test]
    fn containing_range_is_tight_for_fixed_width() {
        let setup = timeline(true);
        let slots = bind(&setup, &[("user", "ann"), ("poster", "bob")]);
        let crange = containing_range(
            &setup.source_p,
            &setup.output,
            &slots,
            &KeyRange::new("t|ann|100", "t|ann|200"),
        );
        assert!(!crange.contains(&Key::from("p|bob|099")));
        assert!(!crange.contains(&Key::from("p|bob|200")));
        assert!(!crange.contains(&Key::from("p|liz|150")));
        assert!(crange.contains(&Key::from("p|bob|100")));
        assert!(crange.contains(&Key::from("p|bob|199")));
    }
}
