//! Cache join specifications: the textual grammar of Figure 2 and its
//! validation rules.
//!
//! ```text
//! <cachejoin> ::= <key> "=" ["push" | "pull" | "snapshot" <T>] <sources> [";"]
//! <sources>   ::= <source> | <sources> <source>
//! <source>    ::= <operator> <key>
//! <operator>  ::= "copy" | "min" | "max" | "count" | "sum" | "check"
//! ```
//!
//! Example (the Twip timeline join):
//!
//! ```text
//! t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>
//! ```
//!
//! Validation enforces the paper's technical requirements: in a join with
//! `n` sources exactly `n − 1` operators are `check` (§3); a join must
//! not be self-recursive; every output slot must be bound by some source;
//! a slot must have a consistent fixed width everywhere it appears.

use crate::pattern::{Pattern, PatternError};
use crate::slots::{SlotId, SlotTable};
use pequod_store::KeyRange;
use std::fmt;
use std::time::Duration;

/// A source operator (Figure 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operator {
    /// Copy the source value to the output key.
    Copy,
    /// The source key must exist; its value is ignored.
    Check,
    /// Count matching source keys.
    Count,
    /// Sum source values parsed as decimal integers.
    Sum,
    /// Lexicographic minimum of source values.
    Min,
    /// Lexicographic maximum of source values.
    Max,
}

impl Operator {
    /// True for aggregate operators (`count`, `sum`, `min`, `max`).
    pub fn is_aggregate(self) -> bool {
        matches!(
            self,
            Operator::Count | Operator::Sum | Operator::Min | Operator::Max
        )
    }

    fn parse(word: &str) -> Option<Operator> {
        Some(match word {
            "copy" => Operator::Copy,
            "check" => Operator::Check,
            "count" => Operator::Count,
            "sum" => Operator::Sum,
            "min" => Operator::Min,
            "max" => Operator::Max,
            _ => return None,
        })
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Operator::Copy => "copy",
            Operator::Check => "check",
            Operator::Count => "count",
            Operator::Sum => "sum",
            Operator::Min => "min",
            Operator::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// A maintenance annotation (§3.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Maintenance {
    /// Eager incremental maintenance (the default).
    #[default]
    Push,
    /// Recompute from scratch on every query; never cache results.
    Pull,
    /// Compute from scratch, cache without updates for the given number
    /// of engine ticks (the paper's `snapshot T`, with ticks standing in
    /// for seconds so simulations stay deterministic).
    Snapshot(u64),
}

impl Maintenance {
    /// Converts a wall-clock snapshot duration to ticks at one tick per
    /// millisecond, the convention used by the TCP server.
    pub fn snapshot_from_duration(d: Duration) -> Maintenance {
        Maintenance::Snapshot(d.as_millis() as u64)
    }
}

/// One source of a join: an operator applied to a key pattern.
#[derive(Clone, Debug)]
pub struct Source {
    /// The operator applied to matching keys.
    pub op: Operator,
    /// The source key pattern.
    pub pattern: Pattern,
}

/// A validated cache join specification.
#[derive(Clone, Debug)]
pub struct JoinSpec {
    /// The output key pattern.
    pub output: Pattern,
    /// The sources, in execution (loop-nesting) order.
    pub sources: Vec<Source>,
    /// Maintenance annotation.
    pub maintenance: Maintenance,
    /// The join's interned slot names.
    pub slots: SlotTable,
    /// Non-fatal validation warnings (e.g. potentially ambiguous copies).
    pub warnings: Vec<String>,
    /// `output.key_space()`, computed once at parse time: every scan and
    /// every source probe clips against it.
    out_range: KeyRange,
}

/// Errors from parsing or validating a join specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JoinError {
    /// The text did not match the grammar.
    Syntax(String),
    /// A key pattern failed to parse.
    Pattern(String, PatternError),
    /// The join has no sources.
    NoSources,
    /// The number of `check` operators is not `n − 1`.
    CheckCount {
        /// Sources in the join.
        sources: usize,
        /// `check` operators found.
        checks: usize,
    },
    /// An output slot is not bound by any source.
    UnboundOutputSlot(String),
    /// The output range overlaps a source range (self-recursion).
    Recursive(String),
    /// A slot has inconsistent fixed widths across patterns.
    InconsistentWidth(String),
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::Syntax(s) => write!(f, "syntax error: {s}"),
            JoinError::Pattern(p, e) => write!(f, "bad pattern {p:?}: {e}"),
            JoinError::NoSources => write!(f, "join has no sources"),
            JoinError::CheckCount { sources, checks } => write!(
                f,
                "join with {sources} sources must have exactly {} check operators, found {checks}",
                sources - 1
            ),
            JoinError::UnboundOutputSlot(s) => {
                write!(f, "output slot <{s}> is not bound by any source")
            }
            JoinError::Recursive(p) => {
                write!(f, "source {p:?} overlaps the join's own output range")
            }
            JoinError::InconsistentWidth(s) => {
                write!(f, "slot <{s}> has inconsistent widths across patterns")
            }
        }
    }
}

impl std::error::Error for JoinError {}

impl JoinSpec {
    /// Parses and validates one cache join from text. A trailing `;` is
    /// permitted; `//` and `#` comments are not (strip them with
    /// [`parse_joins`]).
    pub fn parse(text: &str) -> Result<JoinSpec, JoinError> {
        let text = text.trim().trim_end_matches(';').trim();
        let (out_text, rest) = text
            .split_once('=')
            .ok_or_else(|| JoinError::Syntax(format!("missing '=' in {text:?}")))?;
        let out_text = out_text.trim();
        let mut words = rest.split_whitespace().peekable();

        let mut maintenance = Maintenance::Push;
        match words.peek().copied() {
            Some("push") => {
                words.next();
            }
            Some("pull") => {
                maintenance = Maintenance::Pull;
                words.next();
            }
            Some("snapshot") => {
                words.next();
                let t = words
                    .next()
                    .ok_or_else(|| JoinError::Syntax("snapshot needs a duration".into()))?;
                let ticks: u64 = t
                    .parse()
                    .map_err(|_| JoinError::Syntax(format!("bad snapshot duration {t:?}")))?;
                maintenance = Maintenance::Snapshot(ticks);
            }
            _ => {}
        }

        let mut slots = SlotTable::new();
        let output = Pattern::parse(out_text, &mut slots)
            .map_err(|e| JoinError::Pattern(out_text.to_string(), e))?;

        let mut sources = Vec::new();
        while let Some(word) = words.next() {
            let op = Operator::parse(word)
                .ok_or_else(|| JoinError::Syntax(format!("expected operator, found {word:?}")))?;
            let pat_text = words
                .next()
                .ok_or_else(|| JoinError::Syntax(format!("operator {op} needs a key pattern")))?;
            let pattern = Pattern::parse(pat_text, &mut slots)
                .map_err(|e| JoinError::Pattern(pat_text.to_string(), e))?;
            sources.push(Source { op, pattern });
        }

        let mut spec = JoinSpec {
            out_range: output.key_space(),
            output,
            sources,
            maintenance,
            slots,
            warnings: Vec::new(),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The source whose operator produces the output value (the single
    /// non-`check` source).
    #[expect(
        clippy::expect_used,
        reason = "`parse` runs `validate`, which rejects a join without exactly one non-check source"
    )]
    pub fn value_source(&self) -> usize {
        self.sources
            .iter()
            .position(|s| s.op != Operator::Check)
            .expect("validated join has a value source")
    }

    /// The value operator of the join.
    pub fn value_op(&self) -> Operator {
        self.sources[self.value_source()].op
    }

    /// True if the output value is an aggregate.
    pub fn is_aggregate(&self) -> bool {
        self.value_op().is_aggregate()
    }

    /// The key range the join's outputs occupy.
    pub fn output_range(&self) -> &KeyRange {
        &self.out_range
    }

    fn validate(&mut self) -> Result<(), JoinError> {
        if self.sources.is_empty() {
            return Err(JoinError::NoSources);
        }
        let checks = self
            .sources
            .iter()
            .filter(|s| s.op == Operator::Check)
            .count();
        if checks != self.sources.len() - 1 {
            return Err(JoinError::CheckCount {
                sources: self.sources.len(),
                checks,
            });
        }

        // Consistent fixed widths per slot across all patterns.
        let mut widths: Vec<Option<Option<usize>>> = vec![None; self.slots.len()];
        for pat in std::iter::once(&self.output).chain(self.sources.iter().map(|s| &s.pattern)) {
            for tok in pat.tokens() {
                if let crate::pattern::Token::Slot { id, width } = tok {
                    let entry = &mut widths[id.0 as usize];
                    match entry {
                        None => *entry = Some(*width),
                        Some(w) if w == width => {}
                        Some(_) => {
                            return Err(JoinError::InconsistentWidth(
                                self.slots.name(*id).to_string(),
                            ))
                        }
                    }
                }
            }
        }

        // Every output slot must be bound by some source.
        let source_slots: Vec<SlotId> = self
            .sources
            .iter()
            .flat_map(|s| s.pattern.slots())
            .collect();
        for slot in self.output.slots() {
            if !source_slots.contains(&slot) {
                return Err(JoinError::UnboundOutputSlot(
                    self.slots.name(slot).to_string(),
                ));
            }
        }

        // Self-recursion: a source range overlapping the output range.
        for s in &self.sources {
            if s.pattern.key_space().overlaps(&self.out_range) {
                return Err(JoinError::Recursive(s.pattern.text().to_string()));
            }
        }

        // Ambiguity lint (§3): a copy join whose value source has slots
        // that do not appear in the output can map several source keys to
        // one output key with no way to combine their values. The paper
        // leaves such joins to the user; we warn.
        if self.value_op() == Operator::Copy {
            let out_slots: Vec<SlotId> = self.output.slots().collect();
            let vsrc = &self.sources[self.value_source()];
            for slot in vsrc.pattern.slots() {
                if !out_slots.contains(&slot) {
                    self.warnings.push(format!(
                        "copy source slot <{}> does not appear in the output key; \
                         colliding outputs are undefined",
                        self.slots.name(slot)
                    ));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for JoinSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} =", self.output)?;
        match self.maintenance {
            Maintenance::Push => {}
            Maintenance::Pull => write!(f, " pull")?,
            Maintenance::Snapshot(t) => write!(f, " snapshot {t}")?,
        }
        for s in &self.sources {
            write!(f, " {} {}", s.op, s.pattern)?;
        }
        Ok(())
    }
}

/// Parses a multi-join installation text: joins separated by `;`, with
/// `//` and `#` line comments and blank lines ignored.
pub fn parse_joins(text: &str) -> Result<Vec<JoinSpec>, JoinError> {
    let mut cleaned = String::new();
    for line in text.lines() {
        let line = match line.find("//") {
            Some(i) => &line[..i],
            None => line,
        };
        let line = match line.find('#') {
            Some(i) => &line[..i],
            None => line,
        };
        cleaned.push_str(line);
        cleaned.push('\n');
    }
    cleaned
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(JoinSpec::parse)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

    #[test]
    fn parse_timeline_join() {
        let j = JoinSpec::parse(TIMELINE).unwrap();
        assert_eq!(j.sources.len(), 2);
        assert_eq!(j.sources[0].op, Operator::Check);
        assert_eq!(j.sources[1].op, Operator::Copy);
        assert_eq!(j.maintenance, Maintenance::Push);
        assert_eq!(j.value_source(), 1);
        assert!(j.warnings.is_empty());
        assert_eq!(j.output_range(), &KeyRange::prefix("t|"));
    }

    #[test]
    fn parse_annotations() {
        let j = JoinSpec::parse("a|<x> = pull copy b|<x>;").unwrap();
        assert_eq!(j.maintenance, Maintenance::Pull);
        let j = JoinSpec::parse("a|<x> = snapshot 30 copy b|<x>").unwrap();
        assert_eq!(j.maintenance, Maintenance::Snapshot(30));
        let j = JoinSpec::parse("a|<x> = push copy b|<x>").unwrap();
        assert_eq!(j.maintenance, Maintenance::Push);
    }

    #[test]
    fn parse_aggregate_join() {
        let j = JoinSpec::parse("karma|<author> = count vote|<author>|<id>|<voter>").unwrap();
        assert!(j.is_aggregate());
        assert_eq!(j.value_op(), Operator::Count);
        assert_eq!(j.sources.len(), 1);
    }

    #[test]
    fn check_count_rule() {
        // two value operators
        assert!(matches!(
            JoinSpec::parse("a|<x> = copy b|<x> copy c|<x>"),
            Err(JoinError::CheckCount {
                sources: 2,
                checks: 0
            })
        ));
        // all checks
        assert!(matches!(
            JoinSpec::parse("a|<x> = check b|<x> check c|<x>"),
            Err(JoinError::CheckCount { .. })
        ));
        assert!(matches!(
            JoinSpec::parse("a|<x> ="),
            Err(JoinError::NoSources)
        ));
    }

    #[test]
    fn unbound_output_slot_rejected() {
        assert!(matches!(
            JoinSpec::parse("a|<x>|<y> = copy b|<x>"),
            Err(JoinError::UnboundOutputSlot(s)) if s == "y"
        ));
    }

    #[test]
    fn recursive_join_rejected() {
        assert!(matches!(
            JoinSpec::parse("t|<x> = copy t|<x>|old"),
            Err(JoinError::Recursive(_))
        ));
    }

    #[test]
    fn inconsistent_widths_rejected() {
        assert!(matches!(
            JoinSpec::parse("a|<t:4> = copy b|<t:8>"),
            Err(JoinError::InconsistentWidth(_))
        ));
    }

    #[test]
    fn ambiguous_copy_warns() {
        // Missing |poster in output: the paper's example of an ambiguous
        // join that should warn, not fail (§3).
        let j = JoinSpec::parse("t|<user>|<time> = check s|<user>|<poster> copy p|<poster>|<time>")
            .unwrap();
        assert_eq!(j.warnings.len(), 1);
        assert!(j.warnings[0].contains("poster"));
    }

    #[test]
    fn syntax_errors() {
        assert!(matches!(
            JoinSpec::parse("nonsense"),
            Err(JoinError::Syntax(_))
        ));
        assert!(matches!(
            JoinSpec::parse("a|<x> = frobnicate b|<x>"),
            Err(JoinError::Syntax(_))
        ));
        assert!(matches!(
            JoinSpec::parse("a|<x> = copy"),
            Err(JoinError::Syntax(_))
        ));
        assert!(matches!(
            JoinSpec::parse("a|<x> = snapshot copy b|<x>"),
            Err(JoinError::Syntax(_))
        ));
    }

    #[test]
    fn parse_joins_with_comments() {
        let text = r#"
            // timeline join for ordinary users
            t|<user>|<time:10>|<poster> = check s|<user>|<poster>
                copy p|<poster>|<time:10>;
            # celebrity helper
            ct|<time:10>|<poster> = copy cp|<poster>|<time:10>;
        "#;
        let joins = parse_joins(text).unwrap();
        assert_eq!(joins.len(), 2);
        assert_eq!(joins[1].output.text(), "ct|<time:10>|<poster>");
    }

    #[test]
    fn malformed_patterns_return_err() {
        use crate::pattern::PatternError;
        // Unterminated slot, in the output and in a source.
        assert!(matches!(
            JoinSpec::parse("t|<user = copy p|<user>"),
            Err(JoinError::Pattern(_, PatternError::UnterminatedSlot))
        ));
        assert!(matches!(
            JoinSpec::parse("t|<user> = copy p|<user"),
            Err(JoinError::Pattern(_, PatternError::UnterminatedSlot))
        ));
        // Widths must be positive integers.
        assert!(matches!(
            JoinSpec::parse("t|<t:xx> = copy p|<t:xx>"),
            Err(JoinError::Pattern(_, PatternError::BadWidth(_)))
        ));
        assert!(matches!(
            JoinSpec::parse("t|<t:0> = copy p|<t:0>"),
            Err(JoinError::Pattern(_, PatternError::BadWidth(_)))
        ));
        // Slot names must be nonempty [A-Za-z0-9_]+.
        assert!(matches!(
            JoinSpec::parse("t|<> = copy p|<x>"),
            Err(JoinError::Pattern(_, PatternError::BadSlotName(_)))
        ));
        assert!(matches!(
            JoinSpec::parse("t|<a-b> = copy p|<x>"),
            Err(JoinError::Pattern(_, PatternError::BadSlotName(_)))
        ));
        // Two variable-width slots with no separating literal.
        assert!(matches!(
            JoinSpec::parse("t|<a><b> = check s|<a> copy p|<b>"),
            Err(JoinError::Pattern(_, PatternError::AdjacentVariableSlots))
        ));
        // A slot may not repeat within one pattern.
        assert!(matches!(
            JoinSpec::parse("t|<a>|<a> = copy p|<a>"),
            Err(JoinError::Pattern(_, PatternError::DuplicateSlot(_)))
        ));
        // Empty output pattern.
        assert!(matches!(
            JoinSpec::parse("= copy p|<x>"),
            Err(JoinError::Pattern(_, PatternError::Empty))
        ));
    }

    #[test]
    fn malformed_text_never_panics() {
        // Adversarial inputs must all produce Err (or Ok), never panic.
        let nasty = [
            "",
            " ",
            ";",
            "=",
            "==",
            "= =",
            "a|<x> = = copy b|<x>",
            "<",
            ">",
            "<>",
            "<<<>>>",
            "a|<x> = copy <",
            "a|<x> = snapshot 99999999999999999999999 copy b|<x>",
            "a|<x> = snapshot -3 copy b|<x>",
            "a|<x:99999999999999999999> = copy b|<x>",
            "ключ|<слот> = copy p|<слот>",
            "a|<x>\u{0}|<y> = check s|<x> copy p|<y>",
            "a|<x> = copy b|<x> ;;; c|<y> = copy d|<y>",
            "🦀|<x> = copy 🦀🦀|<x>",
        ];
        for text in nasty {
            let _ = JoinSpec::parse(text);
            let _ = parse_joins(text);
        }
        // A long pathological input exercises the literal/slot scanner.
        let long = format!("a|{} = copy b|<x>", "<".repeat(4096));
        let _ = JoinSpec::parse(&long);
    }

    #[test]
    fn display_roundtrips() {
        let j = JoinSpec::parse(TIMELINE).unwrap();
        let j2 = JoinSpec::parse(&j.to_string()).unwrap();
        assert_eq!(j2.sources.len(), 2);
        let j = JoinSpec::parse("a|<x> = snapshot 5 count b|<x>|<y>").unwrap();
        assert!(j.to_string().contains("snapshot 5"));
    }
}
