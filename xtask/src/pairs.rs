//! `cargo xtask pairs [REV_A REV_B]` — a change against its parent, pair
//! by pair, from the end-to-end ledger.
//!
//! `BENCH_pqbench.jsonl` holds one `bash pqbench/run.sh --seed S`
//! document per line, tagged with the revision it measured. A claim is
//! judged on pairs: the two revisions run on the same seed, one after
//! the other, so that the box's weather moves both sides of a pair
//! together. This matches the documents of `REV_A` and `REV_B` by seed
//! (the later document wins when a revision ran a seed twice) and, for
//! every workload and end-to-end metric `BENCHMARK.json` declares,
//! prints
//!
//! * how many pairs there are, and in how many B is better (a tie is
//!   not);
//! * the median of the ratios B/A, and the smallest and largest;
//! * each side's median and quartiles.
//!
//! With no arguments it compares the last two revisions appended: B is
//! the revision of the ledger's last line, A the last other revision
//! before it.

use crate::bench_index::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Entry point for the subcommand. Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let root = crate::workspace_root();
    let read = |name: &str| std::fs::read_to_string(root.join(name));
    let (ledger, benchmark) = match (read("BENCH_pqbench.jsonl"), read("BENCHMARK.json")) {
        (Ok(ledger), Ok(benchmark)) => (ledger, benchmark),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("pairs: cannot read the ledger or BENCHMARK.json: {e}");
            return 2;
        }
    };
    let revs = match args {
        [] => None,
        [a, b] => Some((a.as_str(), b.as_str())),
        _ => {
            eprintln!("usage: cargo xtask pairs [REV_A REV_B]");
            return 2;
        }
    };
    match report(&ledger, &benchmark, revs) {
        Ok(text) => {
            print!("{text}");
            0
        }
        Err(e) => {
            eprintln!("pairs: {e}");
            1
        }
    }
}

/// One end-to-end metric: its name and whether lower is better.
struct Metric {
    name: String,
    lower_is_better: bool,
}

/// The report for `revs` (or the last two revisions appended) as text.
fn report(ledger: &str, benchmark: &str, revs: Option<(&str, &str)>) -> Result<String, String> {
    let spec = parse_json(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |name: &str| spec.get(name).and_then(Json::as_array).unwrap_or(&[]);
    let workloads: Vec<&str> = (list("workloads").iter())
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let metrics: Vec<Metric> = (list("end_to_end").iter())
        .filter_map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
            })
        })
        .collect();
    let mut docs = Vec::new();
    for (n, line) in ledger
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = parse_json(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let rev = doc.get("rev").and_then(Json::as_str).map(str::to_string);
        let seed = doc.get("seed").and_then(Json::as_f64);
        match (rev, seed) {
            (Some(rev), Some(seed)) => docs.push((rev, seed as i64, doc)),
            _ => return Err(format!("line {}: no \"rev\" or \"seed\"", n + 1)),
        }
    }
    let (a, b) = match revs {
        Some((a, b)) => (a.to_string(), b.to_string()),
        None => {
            let b = docs.last().map(|(rev, _, _)| rev.clone());
            let b = b.ok_or("the ledger is empty")?;
            let a = (docs.iter().rev()).find(|(rev, _, _)| *rev != b);
            let a = a.ok_or("the ledger holds one revision")?.0.clone();
            (a, b)
        }
    };
    let by_seed = |rev: &str| -> BTreeMap<i64, &Json> {
        (docs.iter())
            .filter(|(r, _, _)| r == rev)
            .map(|(_, seed, doc)| (*seed, doc))
            .collect()
    };
    let (side_a, side_b) = (by_seed(&a), by_seed(&b));
    let seeds: Vec<i64> = side_a
        .keys()
        .filter(|s| side_b.contains_key(s))
        .copied()
        .collect();
    if seeds.is_empty() {
        return Err(format!("no seed was run at both {a} and {b}"));
    }
    let mut out = String::new();
    let _ = writeln!(out, "A = {a}, B = {b}: {} pair(s) by seed", seeds.len());
    for workload in &workloads {
        let _ = writeln!(out, "\n{workload}");
        let _ = writeln!(
            out,
            "  {:<12} {:>5} {:>8} {:>24} {:>30} {:>30}",
            "metric",
            "pairs",
            "B better",
            "B/A median [min, max]",
            "A median [q1, q3]",
            "B median [q1, q3]"
        );
        for metric in &metrics {
            let value = |doc: &Json| {
                let row = doc.get("workloads")?.get(workload)?.get("metrics")?;
                row.get(&metric.name)?.get("value")?.as_f64()
            };
            let pairs: Vec<(f64, f64)> = (seeds.iter())
                .filter_map(|s| Some((value(side_a[s])?, value(side_b[s])?)))
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let better = (pairs.iter())
                .filter(|(x, y)| match metric.lower_is_better {
                    true => y < x,
                    false => y > x,
                })
                .count();
            let ratios = sorted(pairs.iter().map(|(x, y)| y / x));
            let xs = sorted(pairs.iter().map(|p| p.0));
            let ys = sorted(pairs.iter().map(|p| p.1));
            let spread = |v: &[f64]| {
                format!(
                    "{} [{}, {}]",
                    num(quantile(v, 0.5)),
                    num(quantile(v, 0.25)),
                    num(quantile(v, 0.75))
                )
            };
            let ratio = format!(
                "×{:.3} [{:.3}, {:.3}]",
                quantile(&ratios, 0.5),
                ratios[0],
                ratios[ratios.len() - 1]
            );
            let _ = writeln!(
                out,
                "  {:<12} {:>5} {:>8} {:>24} {:>30} {:>30}",
                metric.name,
                pairs.len(),
                better,
                ratio,
                spread(&xs),
                spread(&ys)
            );
        }
    }
    Ok(out)
}

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q` quantile of sorted `v`, interpolated between the two nearest
/// ranks (the median of an even count is the mean of the middle two).
fn quantile(v: &[f64], q: f64) -> f64 {
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Four significant figures, no exponent.
fn num(x: f64) -> String {
    let digits = (3 - x.abs().log10().floor() as i32).clamp(0, 6) as usize;
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{
        "workloads": [{"name": "twip.post"}],
        "end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}
        ]
    }"#;

    fn line(rev: &str, seed: u32, ops: f64, rss: f64) -> String {
        format!(
            r#"{{"rev": "{rev}", "seed": {seed}, "workloads": {{"twip.post": {{"metrics": {{"ops_per_s": {{"value": {ops}, "unit": "1/s"}}, "peak_rss_mb": {{"value": {rss}, "unit": "MB"}}}}}}}}}}"#
        )
    }

    /// Three seeds, the parent first in each pair; the third pair ties
    /// on ops/s, and an older revision and an unpaired seed are ignored.
    fn ledger() -> String {
        [
            line("old", 1, 1.0, 99.0),
            line("parent", 1, 100.0, 40.0),
            line("change", 1, 110.0, 36.0),
            line("parent", 2, 90.0, 38.0),
            line("change", 2, 80.0, 34.0),
            line("parent", 3, 95.0, 39.0),
            line("change", 3, 95.0, 35.0),
            line("parent", 4, 50.0, 30.0),
        ]
        .join("\n")
            + "\n"
            + &line("change", 9, 1.0, 1.0)
    }

    fn row<'a>(text: &'a str, metric: &str) -> Vec<&'a str> {
        let line = text.lines().find(|l| l.trim_start().starts_with(metric));
        line.unwrap_or_default().split_whitespace().collect()
    }

    #[test]
    fn pairs_by_seed_and_counts_a_tie_as_not_better() {
        let text = report(&ledger(), BENCHMARK, Some(("parent", "change"))).unwrap();
        assert!(
            text.starts_with("A = parent, B = change: 3 pair(s)"),
            "{text}"
        );
        // ops/s: 110/100, 80/90, 95/95 — one better, one worse, one tie.
        let ops = row(&text, "ops_per_s");
        assert_eq!(ops[1..3], ["3", "1"], "{text}");
        assert_eq!(ops[3..6], ["×1.000", "[0.889,", "1.100]"], "{text}");
        assert_eq!(ops[6..9], ["95.00", "[92.50,", "97.50]"], "{text}");
        assert_eq!(ops[9..12], ["95.00", "[87.50,", "102.5]"], "{text}");
        // RSS is lower in every pair: 36/40, 34/38, 35/39.
        let rss = row(&text, "peak_rss_mb");
        assert_eq!(rss[1..3], ["3", "3"], "{text}");
        assert_eq!(rss[3], "×0.897", "{text}");
        assert_eq!(rss[6..9], ["39.00", "[38.50,", "39.50]"], "{text}");
        assert_eq!(rss[9..12], ["35.00", "[34.50,", "35.50]"], "{text}");
    }

    #[test]
    fn with_no_revisions_it_takes_the_last_two_appended() {
        let text = report(&ledger(), BENCHMARK, None).unwrap();
        assert!(
            text.starts_with("A = parent, B = change: 3 pair(s)"),
            "{text}"
        );
        let err = report(&line("x", 1, 1.0, 1.0), BENCHMARK, None).unwrap_err();
        assert!(err.contains("one revision"), "{err}");
        let err = report(&ledger(), BENCHMARK, Some(("old", "nope"))).unwrap_err();
        assert!(err.contains("no seed"), "{err}");
    }
}
