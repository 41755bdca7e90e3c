//! Property tests for the Prometheus exposition encoder: adversarial
//! metric names and label values must always produce well-formed
//! output (sanitized names, correctly escaped label values, one
//! sample per line, parseable values).

use pequod_telemetry::{escape_label_value, sanitize_name, Histogram, Snapshot};
use proptest::prelude::*;
use proptest::string::string_regex;

/// Raw names with characters outside the Prometheus charset.
fn raw_name() -> impl Strategy<Value = String> {
    #[allow(clippy::unwrap_used)] // static pattern, checked at test build
    string_regex("[a-zA-Z0-9 .:_/|-]{1,24}").unwrap()
}

/// Label values exercising every escape case: quote, backslash,
/// newline, braces, commas, equals.
fn raw_label() -> impl Strategy<Value = String> {
    #[allow(clippy::unwrap_used)]
    string_regex("[a-zA-Z0-9\"\\\n=,{} .-]{0,24}").unwrap()
}

/// A sample line is `name{labels} value` — check the name charset and
/// that the trailing value parses.
fn assert_line_well_formed(line: &str) {
    if line.is_empty() || line.starts_with('#') {
        return;
    }
    let name_end = line.find(['{', ' ']).unwrap_or(line.len());
    let name = &line[..name_end];
    assert!(!name.is_empty(), "empty metric name in {line:?}");
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        assert!(ok, "bad char {c:?} in metric name {name:?}");
    }
    let value = line.rsplit(' ').next().unwrap_or("");
    assert!(
        value.parse::<f64>().is_ok(),
        "unparseable sample value {value:?} in {line:?}"
    );
}

proptest! {
    #[test]
    fn sanitized_names_always_legal(name in raw_name()) {
        let s = sanitize_name(&name);
        prop_assert!(!s.is_empty());
        for (i, c) in s.chars().enumerate() {
            let ok = c.is_ascii_alphabetic() || c == '_' || c == ':'
                || (i > 0 && c.is_ascii_digit());
            prop_assert!(ok, "bad char {:?} in {:?}", c, s);
        }
    }

    #[test]
    fn escaping_round_trips(value in raw_label()) {
        let escaped = escape_label_value(&value);
        // Unescape and compare: the escape map must be injective.
        let mut un = String::new();
        let mut chars = escaped.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('\\') => un.push('\\'),
                    Some('"') => un.push('"'),
                    Some('n') => un.push('\n'),
                    other => prop_assert!(false, "dangling escape {:?}", other),
                }
            } else {
                prop_assert!(c != '"' && c != '\n', "unescaped {:?}", c);
                un.push(c);
            }
        }
        prop_assert_eq!(un, value);
    }

    #[test]
    fn exposition_is_line_well_formed(
        name in raw_name(),
        key in raw_name(),
        label in raw_label(),
        count in 0u64..64,
        v in proptest::strategy::any::<u64>(),
    ) {
        let mut s = Snapshot::default();
        s.counter(&name, &[(key.as_str(), label.as_str())], v);
        let h = Histogram::new();
        for i in 0..count {
            h.observe(i * 37);
        }
        s.histogram(&name, &[(key.as_str(), label.as_str())], h.snapshot());
        let text = s.to_prometheus();
        // Escaped label values keep every sample on one line; a raw
        // newline in a label would break the line discipline. Skip
        // the +Inf bucket line's value check via the f64 parse —
        // "+Inf" itself parses as f64 infinity, which is the point.
        for line in text.lines() {
            assert_line_well_formed(line);
        }
        // The histogram's +Inf bucket always carries the total count.
        let inf = format!("le=\"+Inf\"}} {count}");
        prop_assert!(text.contains(&inf), "missing +Inf bucket in {}", text);
    }
}
