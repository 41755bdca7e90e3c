//! What a run prints, and `compare`: the check of one set of runs
//! against another under the bounds in `BENCHMARK.json`.

use crate::e2e::EndToEnd;
use crate::json::Json;
use crate::latency::{median_f64, spread};
use crate::trace::Layers;
use crate::workload::Kind;

/// `(name, unit, value)`.
pub type Metric = (&'static str, &'static str, f64);

/// One workload's result: the object the contract asks for on the last
/// line of standard output, plus context that is not a metric.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub info: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        Json::Obj(self.members())
    }

    /// The same with an `info` member, for the all-workloads document.
    pub fn to_json_with_info(&self) -> Json {
        let mut members = self.members();
        let info = Json::obj(self.info.iter().map(|&(k, v)| (k, Json::Num(v))));
        members.push(("info".into(), info));
        Json::Obj(members)
    }

    fn members(&self) -> Vec<(String, Json)> {
        let metric = |&(name, unit, value): &Metric| {
            let entry = Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]);
            (name.to_string(), entry)
        };
        vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "metrics".into(),
                Json::Obj(self.metrics.iter().map(metric).collect()),
            ),
        ]
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. `failed_frac` is
/// carried by `attempted` and `failed` instead: it is 0 at the seed and
/// the contract wants metrics that never are.
pub fn end_to_end(r: &EndToEnd) -> Outcome {
    Outcome {
        attempted: r.attempted,
        failed: r.failed,
        metrics: vec![
            ("setup_s", "s", r.setup_s),
            ("ops_per_s", "1/s", r.ops_per_s),
            ("p50_us", "us", r.p50_us),
            ("p99_us", "us", r.p99_us),
            ("peak_rss_mb", "MB", r.peak_rss_mb),
        ],
        info: vec![
            ("samples_per_round", r.samples),
            ("tail_percentile", r.tail.0),
            ("tail_us", r.tail.1),
            ("timed_s", r.timed_s),
            ("failed_frac", r.failed as f64 / r.attempted.max(1) as f64),
        ],
    }
}

/// What only end-to-end runs can tell about `persist`; all zero for
/// workloads without a data dir.
#[derive(Default)]
pub struct PersistEndToEnd {
    /// 1 − ops/s(durable) ÷ ops/s(the same stream without a data dir).
    pub tax_frac: f64,
    pub stall_ms_max: f64,
    pub recovery_s: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer(l: &Layers, rtt_us: f64, p: &PersistEndToEnd) -> Vec<Metric> {
    let exec = |kind: Kind| l.exec_us_per_kind[kind as usize];
    vec![
        ("net.frontend.rtt_us", "us", rtt_us),
        ("net.codec.decode_us_per_op", "us", l.decode_us_per_op),
        ("net.codec.encode_us_per_op", "us", l.encode_us_per_op),
        ("net.codec.bytes_per_op", "bytes", l.bytes_per_op),
        ("core.exec.us_per_check", "us", exec(Kind::Check)),
        ("core.exec.us_per_login", "us", exec(Kind::Login)),
        ("core.exec.us_per_post", "us", exec(Kind::Post)),
        ("core.exec.us_per_subscribe", "us", exec(Kind::Subscribe)),
        ("core.updates_per_post", "count", l.updates_per_post),
        ("core.hit_rate", "ratio", l.hit_rate),
        ("core.js_evictions", "count", l.js_evictions as f64),
        ("join.execs", "count", l.join_execs as f64),
        ("join.outputs_per_exec", "count", l.join_outputs_per_exec),
        ("store.put_us_per_key", "us", l.store_put_us_per_key),
        ("store.scan_us_per_entry", "us", l.store_scan_us_per_entry),
        (
            "persist.append_us_per_record",
            "us",
            l.persist_append_us_per_record,
        ),
        (
            "persist.bytes_per_user_byte",
            "ratio",
            l.persist_bytes_per_user_byte,
        ),
        ("persist.snapshots", "count", l.persist_snapshots as f64),
        ("persist.tax_frac", "ratio", p.tax_frac),
        ("persist.stall_ms_max", "ms", p.stall_ms_max),
        ("persist.recovery_s", "s", p.recovery_s),
        ("trace.overhead_frac", "ratio", l.overhead_frac),
    ]
}

/// The all-workloads document `compare` reads.
pub fn document(seed: u64, seconds: u64, trace: bool, outcomes: &[(&str, Outcome)]) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("trace", Json::Num(f64::from(u8::from(trace)))),
        (
            "workloads",
            Json::obj(
                outcomes
                    .iter()
                    .map(|(name, outcome)| (*name, outcome.to_json_with_info())),
            ),
        ),
    ])
}

/// Parses a results file: one all-workloads document per line (one line
/// for a single run, several for a set of runs).
pub fn parse_runs(text: &str) -> Result<Vec<Json>, String> {
    let runs: Vec<Json> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(Json::parse)
        .collect::<Result<_, _>>()?;
    if runs.is_empty() {
        return Err("no runs in file".into());
    }
    Ok(runs)
}

/// The values of `read(workload result)` over a set of runs.
fn over_runs(
    runs: &[Json],
    workload: &str,
    read: impl Fn(&Json) -> Option<f64>,
    what: &str,
) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|run| {
            run.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(&read)
                .ok_or(format!("a run has no {what} for {workload}"))
        })
        .collect()
}

/// One row per workload × end-to-end metric: the median of each side,
/// their ratio with its base, each side's spread (quartile distance as
/// a share of the median; 0 for a single run), and the verdict against
/// the metric's bound in `BENCHMARK.json`. `worse`: B's median is worse
/// than A's by more than the bound. `unresolved`: it is not, but a
/// side's own spread is wider than the bound, so "unchanged" is not
/// shown either. Returns the rows and whether anything was worse.
pub fn compare(benchmark: &Json, a: &[Json], b: &[Json]) -> Result<(Vec<String>, bool), String> {
    let mut rows = vec![format!(
        "{:<13} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  {}",
        "workload", "metric", "A", "B", "B/A", "spreadA", "spreadB", "bound", "verdict"
    )];
    let mut any_worse = false;
    let names = a[0]
        .get("workloads")
        .ok_or("no \"workloads\" member")?
        .members();
    for (name, _) in names {
        // Over all runs of a side together, so one bad run in ten shows.
        let failed_frac = |runs: &[Json]| -> Result<f64, String> {
            let total = |key: &'static str| -> Result<f64, String> {
                Ok(over_runs(runs, name, |r| r.get(key)?.as_f64(), key)?
                    .iter()
                    .sum())
            };
            Ok(total("failed")? / total("attempted")?)
        };
        let (fa, fb) = (failed_frac(a)?, failed_frac(b)?);
        // A NaN is not "no higher": it is worse too.
        let failed_ok = fb <= fa;
        any_worse |= !failed_ok;
        rows.push(format!(
            "{name:<13} {:<12} {fa:>12.6} {fb:>12.6} {:>8} {:>8} {:>8} {:>6}  {}",
            "failed_frac",
            "",
            "",
            "",
            "0",
            if failed_ok { "ok" } else { "worse" }
        ));
        for metric in benchmark
            .get("end_to_end")
            .map(Json::items)
            .unwrap_or_default()
        {
            let field = |k: &str| {
                metric
                    .get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric without {k}"))
            };
            let (metric_name, better) = (field("name")?, field("better")?);
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let value = |r: &Json| r.get("metrics")?.get(metric_name)?.get("value")?.as_f64();
            let (mut va, mut vb) = (
                over_runs(a, name, value, metric_name)?,
                over_runs(b, name, value, metric_name)?,
            );
            let (ma, mb) = (median_f64(&mut va), median_f64(&mut vb));
            let (sa, sb) = (spread(&mut va), spread(&mut vb));
            // How much worse B is than A, as a share of A.
            let loss = if better == "lower" {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let verdict = if loss > bound {
                any_worse = true;
                "worse"
            } else if sa.max(sb) > bound {
                "unresolved"
            } else {
                "ok"
            };
            rows.push(format!(
                "{name:<13} {metric_name:<12} {ma:>12.4} {mb:>12.4} {:>8.4} {sa:>8.4} {sb:>8.4} {bound:>6}  {verdict}",
                mb / ma
            ));
        }
    }
    Ok((rows, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ops: f64, p99: f64, failed: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"w": {{"correct": true, "attempted": 100, "failed": {failed},
            "metrics": {{"ops_per_s": {{"value": {ops}, "unit": "1/s"}}, "p99_us": {{"value": {p99}, "unit": "us"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn bounds() -> Json {
        Json::parse(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                               {"name": "p99_us", "unit": "us", "better": "lower", "bound": 0.15}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let base = [run(1000.0, 100.0, 0.0)];
        let (rows, worse) = compare(&bounds(), &base, &[run(950.0, 110.0, 0.0)]).unwrap();
        assert!(!worse);
        assert_eq!(
            rows.iter().filter(|r| r.ends_with(" ok")).count(),
            3,
            "{rows:#?}"
        );
        // Higher throughput and lower latency are never worse.
        let (_, worse) = compare(&bounds(), &base, &[run(5000.0, 10.0, 0.0)]).unwrap();
        assert!(!worse);
        let (rows, worse) = compare(&bounds(), &base, &[run(1000.0, 120.0, 0.0)]).unwrap();
        assert!(worse);
        assert!(
            rows[2].ends_with(" ok") && rows[3].ends_with("worse"),
            "{rows:#?}"
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let steady: Vec<Json> = [1000.0, 1001.0, 1002.0, 1003.0]
            .map(|ops| run(ops, 100.0, 0.0))
            .into();
        let noisy: Vec<Json> = [800.0, 1000.0, 1005.0, 1300.0]
            .map(|ops| run(ops, 100.0, 0.0))
            .into();
        let (rows, worse) = compare(&bounds(), &steady, &noisy).unwrap();
        assert!(!worse);
        assert!(
            rows[2].ends_with("unresolved") && rows[3].ends_with(" ok"),
            "{rows:#?}"
        );
    }

    #[test]
    fn a_higher_failed_fraction_is_worse() {
        let (rows, worse) = compare(
            &bounds(),
            &[run(1000.0, 100.0, 0.0)],
            &[run(1000.0, 100.0, 1.0)],
        )
        .unwrap();
        assert!(worse);
        assert!(rows[1].ends_with("worse"), "{rows:#?}");
    }

    #[test]
    fn runs_that_do_not_match_are_an_error() {
        let other = Json::parse(r#"{"workloads": {"x": {}}}"#).unwrap();
        assert!(compare(&bounds(), &[run(1.0, 1.0, 0.0)], &[other]).is_err());
        assert!(compare(&bounds(), &[Json::Null], &[run(1.0, 1.0, 0.0)]).is_err());
        assert!(parse_runs("\n").is_err());
        assert_eq!(parse_runs("{}\n\n[1]\n").unwrap().len(), 2);
    }
}

#[cfg(test)]
mod contract {
    use super::*;
    use crate::workload::SPECS;

    /// `(name, unit)` of every entry of one `BENCHMARK.json` list.
    fn declared(list: &str) -> Vec<(String, String)> {
        let benchmark = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        benchmark
            .get(list)
            .unwrap()
            .items()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(name, unit, _)| (name.to_string(), unit.to_string()))
            .collect()
    }

    #[test]
    fn emits_exactly_the_metrics_benchmark_json_declares() {
        let run = EndToEnd {
            setup_s: 1.0,
            ops_per_s: 1.0,
            p50_us: 1.0,
            p99_us: 1.0,
            peak_rss_mb: 1.0,
            attempted: 1,
            failed: 0,
            samples: 1.0,
            tail: (50.0, 1.0),
            timed_s: 1.0,
            stall_ms_max: 0.0,
            recovery_s: None,
        };
        assert_eq!(emitted(&end_to_end(&run).metrics), declared("end_to_end"));
        let layers = per_layer(&Layers::default(), 0.0, &PersistEndToEnd::default());
        assert_eq!(emitted(&layers), declared("per_layer"));
    }

    #[test]
    fn runs_exactly_the_workloads_benchmark_json_declares() {
        let benchmark = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared: Vec<&str> = benchmark
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(declared, SPECS.iter().map(|s| s.name).collect::<Vec<_>>());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![("ops_per_s", "1/s", 1234.5678)],
            info: vec![("samples", 10.0)],
        };
        assert_eq!(
            outcome.to_json().to_string(),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"ops_per_s": {"value": 1234.5678, "unit": "1/s"}}}"#
        );
        let with_info = outcome.to_json_with_info();
        let keys: Vec<&str> = with_info
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics", "info"]);
    }
}
