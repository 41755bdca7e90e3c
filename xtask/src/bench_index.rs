//! `cargo xtask bench-index` — schema validation for bench artifacts.
//!
//! Every bench binary's `--json PATH` flag writes a `BENCH_*.json`
//! file that CI uploads as an artifact. Nothing previously checked
//! those files against each other, which is exactly how field-name
//! drift (one binary saying `ops_s`, another `ops_per_sec`) sneaks
//! in. This subcommand locks the convention:
//!
//! * the document must be a JSON array of flat objects (one row per
//!   measurement);
//! * every key must come from the shared field allowlist below —
//!   known-bad aliases get a pointed message;
//! * a row carrying any of `ops` / `seconds` / `ops_per_sec` must
//!   carry all three, and the rate must actually equal `ops/seconds`
//!   (0.5% tolerance), so a binary cannot quietly report a rate its
//!   own numbers contradict.
//!
//! The end-to-end ledger, `BENCH_pqbench.jsonl`, is the other shape:
//! one `bash pqbench/run.sh --seed S` document per line, tagged with
//! the revision it measured. Each line must parse and carry `rev` and
//! `seed`; every workload `BENCHMARK.json` names must be there with all
//! of its end-to-end metrics in the declared units, `correct`, and with
//! no more operations failed than attempted — so a row a PR quotes can
//! be found, and a half-written or hand-edited line cannot hide.
//!
//! Run as `cargo xtask bench-index file...` (a `.jsonl` file is checked
//! as a ledger), or with no arguments to validate every `BENCH_*.json`
//! and `BENCH_*.jsonl` in the workspace root.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The shared row vocabulary. Adding a field to a bench binary means
/// adding it here, which is the point: one place to agree on names.
const ALLOWED_FIELDS: &[&str] = &[
    // identity
    "backend",
    "mode",
    "phase",
    "sweep",
    // core throughput triple
    "ops",
    "seconds",
    "ops_per_sec",
    // latency (µs, from the swarm histograms)
    "p50_us",
    "p99_us",
    // transport
    "rpcs",
    "rpc_bytes",
    "frames",
    "replies",
    "conns",
    "depth",
    "bytes",
    // memory / eviction
    "peak_memory_bytes",
    "final_memory_bytes",
    "cap",
    "cap_bytes",
    "js_evictions",
    "base_evictions",
    "hit_rate",
    "entries_returned",
    // persistence / recovery
    "wal_records",
    "snapshot_pairs",
    "restore_seconds",
    "first_read_seconds",
    "total_seconds",
    "first_fresh_read_ms",
    "vs_no_wal",
    "answers_digest",
    // telemetry overhead
    "overhead_pct",
];

/// Aliases we know someone will reach for, mapped to the real name.
const BANNED_ALIASES: &[(&str, &str)] = &[
    ("ops_s", "ops_per_sec"),
    ("ops_sec", "ops_per_sec"),
    ("opsPerSec", "ops_per_sec"),
    ("throughput", "ops_per_sec"),
    ("qps", "ops_per_sec"),
    ("elapsed", "seconds"),
    ("duration", "seconds"),
    ("latency_p50", "p50_us"),
    ("latency_p99", "p99_us"),
];

/// Entry point for the subcommand. Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let files: Vec<PathBuf> = if args.is_empty() {
        default_artifacts()
    } else {
        args.iter().map(PathBuf::from).collect()
    };
    if files.is_empty() {
        println!("bench-index: no BENCH_*.json artifacts found (nothing to validate)");
        return 0;
    }
    let mut failures = 0usize;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench-index: cannot read {}: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        let is_ledger = path.extension().is_some_and(|ext| ext == "jsonl");
        let checked = if is_ledger {
            let spec = crate::workspace_root().join("BENCHMARK.json");
            match std::fs::read_to_string(&spec) {
                Ok(spec) => validate_ledger(&text, &spec),
                Err(e) => Err(vec![format!("cannot read {}: {e}", spec.display())]),
            }
        } else {
            validate_document(&text)
        };
        match checked {
            Ok(rows) => println!("bench-index: {} ok ({rows} row(s))", path.display()),
            Err(errors) => {
                for e in &errors {
                    eprintln!("bench-index: {}: {e}", path.display());
                }
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("bench-index: {} file(s) validated", files.len());
        0
    } else {
        eprintln!("bench-index: {failures} file(s) FAILED");
        1
    }
}

/// `BENCH_*.json` and `BENCH_*.jsonl` files in the workspace root,
/// sorted.
fn default_artifacts() -> Vec<PathBuf> {
    let root = crate::workspace_root();
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&root) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("BENCH_") && (name.ends_with(".json") || name.ends_with(".jsonl")) {
                out.push(entry.path());
            }
        }
    }
    out.sort();
    out
}

/// Validates one artifact; `Ok` carries the row count.
pub fn validate_document(text: &str) -> Result<usize, Vec<String>> {
    let value = match parse_json(text) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("invalid JSON: {e}")]),
    };
    let Json::Array(rows) = value else {
        return Err(vec!["top level must be an array of row objects".to_string()]);
    };
    let mut errors = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let Json::Object(fields) = row else {
            errors.push(format!("row {i}: not an object"));
            continue;
        };
        for key in fields.keys() {
            if let Some((_, canonical)) = BANNED_ALIASES.iter().find(|(a, _)| a == key) {
                errors.push(format!(
                    "row {i}: field {key:?} — the canonical name is {canonical:?}"
                ));
            } else if !ALLOWED_FIELDS.contains(&key.as_str()) {
                errors.push(format!(
                    "row {i}: unknown field {key:?} — add it to the shared \
                     allowlist in xtask/src/bench_index.rs if it is intentional"
                ));
            }
        }
        // Rows are flat records of numbers and non-empty strings;
        // anything else (nested structure, bools, nulls, "") reads as
        // an emitter bug, not a new schema.
        for (key, value) in fields {
            match value {
                Json::Number(_) => {}
                Json::String(s) if !s.is_empty() => {}
                Json::String(_) => {
                    errors.push(format!("row {i}: field {key:?} is an empty string"));
                }
                Json::Bool(b) => {
                    errors.push(format!(
                        "row {i}: field {key:?} is a bare boolean ({b}) — \
                         encode flags as strings so the schema stays greppable"
                    ));
                }
                other => {
                    errors.push(format!(
                        "row {i}: field {key:?} is not a scalar ({other:?})"
                    ));
                }
            }
        }
        let ops = fields.get("ops").and_then(Json::as_f64);
        let seconds = fields.get("seconds").and_then(Json::as_f64);
        let rate = fields.get("ops_per_sec").and_then(Json::as_f64);
        let present = [ops.is_some(), seconds.is_some(), rate.is_some()];
        if present.iter().any(|&p| p) && !present.iter().all(|&p| p) {
            errors.push(format!(
                "row {i}: ops/seconds/ops_per_sec must travel together \
                 (found ops={} seconds={} ops_per_sec={})",
                present[0], present[1], present[2]
            ));
        } else if let (Some(ops), Some(seconds), Some(rate)) = (ops, seconds, rate) {
            if seconds > 0.0 {
                let implied = ops / seconds;
                let tolerance = implied.abs() * 0.005 + 0.5;
                if (rate - implied).abs() > tolerance {
                    errors.push(format!(
                        "row {i}: ops_per_sec={rate} disagrees with ops/seconds={implied:.1}"
                    ));
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(rows.len())
    } else {
        Err(errors)
    }
}

/// Validates the end-to-end ledger against the benchmark's declaration
/// (`BENCHMARK.json`'s text); `Ok` carries the document count.
pub fn validate_ledger(text: &str, benchmark: &str) -> Result<usize, Vec<String>> {
    let spec = parse_json(benchmark).map_err(|e| vec![format!("BENCHMARK.json: {e}")])?;
    let named = |list: &str, field: &str| -> Vec<String> {
        let items = spec.get(list).and_then(Json::as_array).unwrap_or(&[]);
        (items.iter())
            .filter_map(|item| Some(item.get(field)?.as_str()?.to_string()))
            .collect()
    };
    let workloads = named("workloads", "name");
    let metrics: Vec<(String, String)> = (named("end_to_end", "name").into_iter())
        .zip(named("end_to_end", "unit"))
        .collect();
    if workloads.is_empty() || metrics.is_empty() {
        return Err(vec![
            "BENCHMARK.json names no workloads or no end-to-end metrics".to_string(),
        ]);
    }
    let mut errors = Vec::new();
    let mut documents = 0;
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let line_no = n + 1;
        documents += 1;
        let doc = match parse_json(line) {
            Ok(doc) => doc,
            Err(e) => {
                errors.push(format!("line {line_no}: invalid JSON: {e}"));
                continue;
            }
        };
        let rev = doc.get("rev").and_then(Json::as_str);
        if rev.is_none_or(str::is_empty) {
            errors.push(format!("line {line_no}: no \"rev\" tag"));
        }
        if doc.get("seed").and_then(Json::as_f64).is_none() {
            errors.push(format!("line {line_no}: no \"seed\""));
        }
        for workload in &workloads {
            let at = format!("line {line_no}: {workload}");
            let Some(result) = doc.get("workloads").and_then(|w| w.get(workload)) else {
                errors.push(format!("{at}: missing"));
                continue;
            };
            if !matches!(result.get("correct"), Some(Json::Bool(true))) {
                errors.push(format!("{at}: not \"correct\": true"));
            }
            let count = |field: &str| result.get(field).and_then(Json::as_f64);
            match (count("attempted"), count("failed")) {
                (Some(attempted), Some(failed)) if (0.0..=attempted).contains(&failed) => {}
                (attempted, failed) => errors.push(format!(
                    "{at}: failed ({failed:?}) is not within attempted ({attempted:?})"
                )),
            }
            for (metric, unit) in &metrics {
                let row = result.get("metrics").and_then(|m| m.get(metric));
                let value = row.and_then(|r| r.get("value")).and_then(Json::as_f64);
                let found = row.and_then(|r| r.get("unit")).and_then(Json::as_str);
                if !value.is_some_and(f64::is_finite) {
                    errors.push(format!("{at}: no value for {metric}"));
                } else if found != Some(unit.as_str()) {
                    errors.push(format!(
                        "{at}: {metric} is in {found:?}; BENCHMARK.json says {unit:?}"
                    ));
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(documents)
    } else {
        Err(errors)
    }
}

/// Minimal JSON value tree. Only what bench artifacts need: objects,
/// arrays, strings, numbers, booleans, null.
#[derive(Debug)]
pub(crate) enum Json {
    Object(BTreeMap<String, Json>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

impl Json {
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    pub(crate) fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member `key` of an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.get(key),
            _ => None,
        }
    }
}

/// Hand-rolled recursive-descent JSON parser (no registry access, no
/// serde — same discipline as the rest of the workspace).
pub(crate) fn parse_json(text: &str) -> Result<Json, String> {
    let bytes: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    let v = parse_value(&bytes, &mut pos)?;
    skip_ws(&bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[char], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some('{') => parse_object(b, pos),
        Some('[') => parse_array(b, pos),
        Some('"') => Ok(Json::String(parse_string(b, pos)?)),
        Some('t') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some('f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some('n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if *c == '-' || c.is_ascii_digit() => parse_number(b, pos),
        Some(c) => Err(format!("unexpected {c:?} at offset {pos}", pos = *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[char], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    for expected in lit.chars() {
        if b.get(*pos) != Some(&expected) {
            return Err(format!("bad literal at offset {}", *pos));
        }
        *pos += 1;
    }
    Ok(v)
}

fn parse_number(b: &[char], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&'-') {
        *pos += 1;
    }
    while b
        .get(*pos)
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
    {
        *pos += 1;
    }
    let s: String = b[start..*pos].iter().collect();
    s.parse::<f64>()
        .map(Json::Number)
        .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_string(b: &[char], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&'"') {
        return Err(format!("expected string at offset {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            '"' => return Ok(out),
            '\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex: String = b.get(*pos..*pos + 4).unwrap_or(&[]).iter().collect();
                        if hex.len() != 4 {
                            return Err("truncated \\u escape".to_string());
                        }
                        *pos += 4;
                        let code =
                            u32::from_str_radix(&hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape \\{other}")),
                }
            }
            _ => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_array(b: &[char], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&']') {
        *pos += 1;
        return Ok(Json::Array(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(',') => *pos += 1,
            Some(']') => {
                *pos += 1;
                return Ok(Json::Array(out));
            }
            _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
        }
    }
}

fn parse_object(b: &[char], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut out = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&'}') {
        *pos += 1;
        return Ok(Json::Object(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&':') {
            return Err(format!("expected ':' at offset {}", *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        out.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(',') => *pos += 1,
            Some('}') => {
                *pos += 1;
                return Ok(Json::Object(out));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_fig7_shape() {
        let doc = r#"[
  {"backend": "pequod", "seconds": 1.5, "ops": 3000, "ops_per_sec": 2000.0, "rpcs": 10, "rpc_bytes": 100},
  {"backend": "redis-like", "seconds": 2.0, "ops": 1000, "ops_per_sec": 500.0, "rpcs": 5, "rpc_bytes": 50}
]"#;
        assert_eq!(validate_document(doc), Ok(2));
    }

    #[test]
    fn rejects_banned_alias_with_pointer() {
        let doc = r#"[{"ops_s": 12.0}]"#;
        let errs = validate_document(doc).unwrap_err();
        assert!(errs[0].contains("ops_per_sec"), "{errs:?}");
    }

    #[test]
    fn rejects_unknown_field() {
        let doc = r#"[{"zoomies": 1}]"#;
        let errs = validate_document(doc).unwrap_err();
        assert!(errs[0].contains("unknown field"), "{errs:?}");
    }

    #[test]
    fn rejects_partial_throughput_triple() {
        let doc = r#"[{"ops": 100, "seconds": 2.0}]"#;
        let errs = validate_document(doc).unwrap_err();
        assert!(errs[0].contains("travel together"), "{errs:?}");
    }

    #[test]
    fn rejects_inconsistent_rate() {
        let doc = r#"[{"ops": 1000, "seconds": 1.0, "ops_per_sec": 250.0}]"#;
        let errs = validate_document(doc).unwrap_err();
        assert!(errs[0].contains("disagrees"), "{errs:?}");
    }

    #[test]
    fn rejects_non_array_top_level() {
        let errs = validate_document(r#"{"ops": 1}"#).unwrap_err();
        assert!(errs[0].contains("array"), "{errs:?}");
    }

    const BENCHMARK: &str = r#"{
        "workloads": [{"name": "twip.check"}, {"name": "twip.cold"}],
        "end_to_end": [{"name": "ops_per_s", "unit": "1/s"}, {"name": "peak_rss_mb", "unit": "MB"}]
    }"#;

    fn ledger_line(rss_unit: &str, failed: u32) -> String {
        let result = format!(
            r#"{{"correct": true, "attempted": 100, "failed": {failed}, "metrics": {{"ops_per_s": {{"value": 9.5, "unit": "1/s"}}, "peak_rss_mb": {{"value": 60.2, "unit": "{rss_unit}"}}}}}}"#
        );
        format!(
            r#"{{"rev": "PR28", "seed": 7, "workloads": {{"twip.check": {result}, "twip.cold": {result}}}}}"#
        )
    }

    #[test]
    fn accepts_a_ledger_of_whole_documents() {
        let ledger = format!("{}\n{}\n\n", ledger_line("MB", 0), ledger_line("MB", 100));
        assert_eq!(validate_ledger(&ledger, BENCHMARK), Ok(2));
    }

    #[test]
    fn rejects_each_way_a_ledger_line_can_be_wrong() {
        let good = ledger_line("MB", 0);
        let broken = |line: String, message: &str| {
            let ledger = format!("{good}\n{line}\n");
            let errs = validate_ledger(&ledger, BENCHMARK).unwrap_err();
            assert!(
                errs.iter()
                    .any(|e| e.starts_with("line 2") && e.contains(message)),
                "{errs:?}"
            );
        };
        broken(good[..good.len() - 1].to_string(), "invalid JSON");
        broken(good.replace(r#""rev": "PR28", "#, ""), "\"rev\"");
        broken(good.replace(r#""seed": 7, "#, ""), "\"seed\"");
        broken(good.replace("twip.cold", "twip.warm"), "twip.cold: missing");
        broken(good.replace("true", "false"), "correct");
        broken(ledger_line("MB", 101), "not within attempted");
        broken(ledger_line("MiB", 0), "BENCHMARK.json says \"MB\"");
        broken(good.replace("9.5", "null"), "no value for ops_per_s");
        let errs = validate_ledger(&good, "{}").unwrap_err();
        assert!(errs[0].contains("names no workloads"), "{errs:?}");
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = r#"[{"phase": "a\"b\\c\ndA", "ops": 1, "seconds": 1.0, "ops_per_sec": 1.0}]"#;
        assert_eq!(validate_document(doc), Ok(1));
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("[1] trailing").is_err());
        let parsed = parse_json(r#"{"s": "xA", "b": true, "n": null}"#).unwrap();
        let Json::Object(map) = parsed else {
            panic!("expected object")
        };
        assert_eq!(map.get("s").and_then(Json::as_str), Some("xA"));
        assert!(matches!(map.get("b"), Some(Json::Bool(true))));
        assert!(matches!(map.get("n"), Some(Json::Null)));
    }
}
