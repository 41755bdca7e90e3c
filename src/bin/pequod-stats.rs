//! `pequod-stats` — live telemetry for a running Pequod server.
//!
//! ```text
//! pequod-stats [--addr HOST:PORT] [--interval SECS] [--count N]
//!              [--json] [--flight]
//! ```
//!
//! Polls the server's `Metrics` wire frame — the same snapshot the
//! `--metrics-addr` Prometheus scrape renders — and redraws a terminal
//! table: scalar counters and gauges with per-interval rates, and one
//! row per latency histogram (count, rate, p50/p90/p99/max in µs).
//! Works against every server: a stand-alone one and any node of a
//! cluster answer the same frame.
//!
//! `--json` prints one snapshot as a JSON object and exits; `--flight`
//! dumps the server's flight recorder (recent evictions, failovers,
//! slow closes, backpressure trips) and exits. Both repeat on the
//! poll interval when `--count N` asks for more than one. The default
//! live table refreshes until the process is interrupted (or `--count`
//! polls have been drawn).
//!
//! Rates are computed client-side from the difference between
//! consecutive polls divided by the configured `--interval` — the
//! tool never needs a wall clock.

// The wall-clock rule, on non-test code (docs/CORRECTNESS.md): nothing
// clippy.toml disallows.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use pequod::cluster::{ClusterClient, ClusterConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn main() {
    let mut addr = "127.0.0.1:7634".to_string();
    let mut interval_secs: f64 = 2.0;
    let mut count: Option<u64> = None;
    let mut json = false;
    let mut flight = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().expect("--addr needs HOST:PORT"),
            "--interval" => {
                interval_secs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--interval needs seconds (e.g. 2 or 0.5)");
                assert!(interval_secs > 0.0, "--interval must be positive");
            }
            "--count" => {
                count = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--count needs a positive number"),
                );
            }
            "--json" => json = true,
            "--flight" => flight = true,
            "--help" | "-h" => {
                println!(
                    "pequod-stats [--addr HOST:PORT] [--interval SECS] [--count N] \
                     [--json] [--flight]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    // One-shot by default for the machine-readable modes; the live
    // table refreshes until interrupted.
    let polls = count.unwrap_or(if json || flight { 1 } else { u64::MAX });
    // The node at `addr`, whichever deployment it belongs to, as the one
    // node of a client's config: connected at the first poll.
    let mut client = ClusterClient::connect(ClusterConfig::one_node(&addr));
    let mut prev: BTreeMap<String, f64> = BTreeMap::new();
    let mut poll = 0u64;
    while poll < polls {
        if poll > 0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(interval_secs));
        }
        poll += 1;
        let pairs = match client.metrics(0, flight) {
            Ok(pairs) => pairs,
            Err(e) => {
                eprintln!("pequod-stats: {addr}: {e}");
                std::process::exit(1);
            }
        };
        if flight && !json {
            print_flight(&pairs);
        } else if json {
            println!("{}", render_json(&pairs));
        } else {
            let frame = render_table(&addr, poll, interval_secs, &pairs, &prev);
            // Home the cursor and clear the screen: a full redraw.
            print!("\x1b[H\x1b[2J{frame}");
        }
        prev = pairs
            .iter()
            .filter_map(|(k, v)| v.parse::<f64>().ok().map(|n| (k.clone(), n)))
            .collect();
    }
}

/// The flight-recorder dump: `f|<seq>` pairs in sequence order, one
/// rendered event line each.
fn print_flight(pairs: &[(String, String)]) {
    let mut events: Vec<(u64, &str)> = pairs
        .iter()
        .filter_map(|(k, v)| {
            k.strip_prefix("f|")
                .and_then(|seq| seq.parse().ok())
                .map(|seq| (seq, v.as_str()))
        })
        .collect();
    events.sort_by_key(|(seq, _)| *seq);
    if events.is_empty() {
        println!("(flight recorder empty)");
        return;
    }
    for (_, line) in events {
        println!("{line}");
    }
}

/// One snapshot as a JSON object: numeric values stay numbers, flight
/// lines and anything non-numeric become strings. Keys sort
/// lexicographically so diffs between polls are stable.
fn render_json(pairs: &[(String, String)]) -> String {
    let sorted: BTreeMap<&str, &str> = pairs
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let mut out = String::from("{\n");
    for (i, (k, v)) in sorted.iter().enumerate() {
        let comma = if i + 1 < sorted.len() { "," } else { "" };
        if is_plain_number(v) {
            let _ = writeln!(out, "  {}: {v}{comma}", json_string(k));
        } else {
            let _ = writeln!(out, "  {}: {}{comma}", json_string(k), json_string(v));
        }
    }
    out.push('}');
    out
}

/// Whether `v` round-trips as a JSON number (decimal integer or float;
/// rejects NaN/inf and anything with stray characters).
fn is_plain_number(v: &str) -> bool {
    v.parse::<f64>().map(|n| n.is_finite()).unwrap_or(false)
        && v.bytes()
            .all(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Histogram sub-keys (`name.count`, `name.p50`, ...) folded back into
/// one row per histogram.
#[derive(Default)]
struct HistRow {
    count: f64,
    p50: String,
    p90: String,
    p99: String,
    max: String,
}

/// The live table frame: scalars with rates, then latency rows.
fn render_table(
    addr: &str,
    poll: u64,
    interval_secs: f64,
    pairs: &[(String, String)],
    prev: &BTreeMap<String, f64>,
) -> String {
    let mut scalars: BTreeMap<&str, f64> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistRow> = BTreeMap::new();
    for (k, v) in pairs {
        if k.starts_with("f|") {
            continue;
        }
        if let Some((base, stat)) = k.rsplit_once('.') {
            if matches!(stat, "count" | "sum" | "p50" | "p90" | "p99" | "max") {
                let row = hists.entry(base.to_string()).or_default();
                match stat {
                    "count" => row.count = v.parse().unwrap_or(0.0),
                    "p50" => row.p50 = v.clone(),
                    "p90" => row.p90 = v.clone(),
                    "p99" => row.p99 = v.clone(),
                    "max" => row.max = v.clone(),
                    _ => {}
                }
                continue;
            }
        }
        if let Ok(n) = v.parse::<f64>() {
            scalars.insert(k, n);
        }
    }
    let name_w = scalars
        .keys()
        .map(|k| k.len())
        .chain(hists.keys().map(|k| k.len()))
        .max()
        .unwrap_or(20)
        .max(20);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pequod-stats — {addr} — poll {poll} (interval {interval_secs}s)\n"
    );
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>14}  {:>12}",
        "METRIC", "VALUE", "RATE/s"
    );
    for (k, v) in &scalars {
        // Rates only for cumulative series (the base name before any
        // `{labels}` ends in `_total`); gauges just show their value.
        let base = k.split('{').next().unwrap_or(k);
        let rate = prev
            .get(*k)
            .map(|p| (v - p) / interval_secs)
            .filter(|r| poll > 1 && *r >= 0.0 && base.ends_with("_total"))
            .map(|r| format!("{r:.1}"))
            .unwrap_or_default();
        let _ = writeln!(out, "{k:<name_w$}  {:>14}  {rate:>12}", fmt_num(*v));
    }
    if !hists.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<name_w$}  {:>14}  {:>12}  {:>7}  {:>7}  {:>7}  {:>9}",
            "LATENCY (µs)", "COUNT", "RATE/s", "P50", "P90", "P99", "MAX"
        );
        for (k, h) in &hists {
            let rate = prev
                .get(&format!("{k}.count"))
                .map(|p| (h.count - p) / interval_secs)
                .filter(|r| poll > 1 && *r >= 0.0)
                .map(|r| format!("{r:.1}"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{k:<name_w$}  {:>14}  {rate:>12}  {:>7}  {:>7}  {:>7}  {:>9}",
                fmt_num(h.count),
                h.p50,
                h.p90,
                h.p99,
                h.max,
            );
        }
    }
    out
}

/// Integers render without a decimal point; everything else with one.
fn fmt_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n:.1}")
    }
}
