//! Aggregate value handling for `count`, `sum`, `min`, and `max`.
//!
//! Pequod values are strings, so aggregates are stored as ASCII decimal
//! integers (`count`/`sum`) or as raw values compared lexicographically
//! (`min`/`max`). "Aggregated data is kept up to date just like copied
//! data" (§2.3): count and sum maintain incrementally under insert,
//! update, and remove; min and max maintain incrementally except when
//! the current extremum is retracted, which forces recomputation.

use pequod_join::Operator;
use pequod_store::Value;

/// Parses a value as a decimal integer; malformed values count as 0
/// (lenient, like SQL's ignore-NULL aggregates over a stringly store).
pub fn parse_num(v: &[u8]) -> i64 {
    let s = std::str::from_utf8(v).unwrap_or("");
    s.trim().parse().unwrap_or(0)
}

/// Formats an integer as a value.
pub fn fmt_num(n: i64) -> Value {
    Value::from(n.to_string().into_bytes())
}

/// An aggregate accumulator used during fresh join execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Accumulator {
    /// Number of tuples.
    Count(i64),
    /// Sum of numeric values.
    Sum(i64),
    /// Lexicographic minimum value.
    Min(Value),
    /// Lexicographic maximum value.
    Max(Value),
}

impl Accumulator {
    /// Starts an accumulator for `op` from the first contribution.
    pub fn start(op: Operator, v: &Value) -> Accumulator {
        match op {
            Operator::Count => Accumulator::Count(1),
            Operator::Sum => Accumulator::Sum(parse_num(v)),
            Operator::Min => Accumulator::Min(v.clone()),
            Operator::Max => Accumulator::Max(v.clone()),
            // audit: allow(no-unwrap) — callers gate on is_aggregate();
            // a copy/check operator here is a planner bug, not bad input.
            _ => panic!("not an aggregate operator: {op}"),
        }
    }

    /// Folds another contribution in.
    pub fn fold(&mut self, v: &Value) {
        match self {
            Accumulator::Count(n) => *n += 1,
            Accumulator::Sum(n) => *n += parse_num(v),
            Accumulator::Min(m) => {
                if v < m {
                    *m = v.clone();
                }
            }
            Accumulator::Max(m) => {
                if v > m {
                    *m = v.clone();
                }
            }
        }
    }

    /// The final output value.
    pub fn finish(self) -> Value {
        match self {
            Accumulator::Count(n) => fmt_num(n),
            Accumulator::Sum(n) => fmt_num(n),
            Accumulator::Min(v) | Accumulator::Max(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_is_lenient() {
        assert_eq!(parse_num(b"42"), 42);
        assert_eq!(parse_num(b"-7"), -7);
        assert_eq!(parse_num(b" 5 "), 5);
        assert_eq!(parse_num(b"junk"), 0);
        assert_eq!(parse_num(b""), 0);
        assert_eq!(parse_num(&[0xff, 0xfe]), 0);
    }

    #[test]
    fn count_and_sum_fold() {
        let v1 = Value::from_static(b"10");
        let v2 = Value::from_static(b"32");
        let mut c = Accumulator::start(Operator::Count, &v1);
        c.fold(&v2);
        assert_eq!(c.finish(), fmt_num(2));
        let mut s = Accumulator::start(Operator::Sum, &v1);
        s.fold(&v2);
        assert_eq!(s.finish(), fmt_num(42));
    }

    #[test]
    fn min_max_fold_lexicographically() {
        let a = Value::from_static(b"apple");
        let b = Value::from_static(b"banana");
        let mut m = Accumulator::start(Operator::Min, &b);
        m.fold(&a);
        assert_eq!(m.finish(), a);
        let mut m = Accumulator::start(Operator::Max, &a);
        m.fold(&b);
        assert_eq!(m.finish(), b);
    }

    #[test]
    #[should_panic(expected = "not an aggregate")]
    fn copy_is_not_an_aggregate() {
        Accumulator::start(Operator::Copy, &Value::new());
    }
}
