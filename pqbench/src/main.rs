//! `pqbench`: the end-to-end Twip benchmark over a real `pequod-server`,
//! with per-layer attribution. See README.md beside this package.
//!
//! ```text
//! pqbench --server BIN --work-dir DIR --seed N [--workload NAME]
//!         [--seconds S] [--trace 0|1] [--out DIR]
//! pqbench compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! With `--workload` the last line of standard output is that workload's
//! result object; without, all four run and the line is one document
//! holding each (what `compare` reads). `--trace 1` reports the
//! per-layer metrics instead of the end-to-end ones and writes the spans
//! to `--out DIR/trace.<workload>.jsonl` (default: the work dir).

mod e2e;
mod json;
mod latency;
mod layers;
mod link;
mod report;
mod server;
mod trace;
mod workload;

use e2e::Env;
use report::{Outcome, PersistEndToEnd};
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Spec, SPECS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().is_some_and(|a| a == "compare") {
        compare(&args[1..])
    } else {
        bench(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pqbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The value after `flag`, if the flag is there.
fn flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or(format!("missing {name} (see README.md)"))
}

fn number(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    flag(args, name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("{name} wants a whole number, got {v:?}"))
    })
}

fn bench(args: &[String]) -> Result<bool, String> {
    let seed = required(args, "--seed")?
        .parse::<u64>()
        .map_err(|_| "--seed wants a whole number")?;
    let seconds = number(args, "--seconds", 10)?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1 to 60".into());
    }
    let trace = number(args, "--trace", 0)? == 1;
    let specs: Vec<&Spec> = match flag(args, "--workload") {
        Some(name) => vec![workload::spec(name).ok_or(format!("unknown workload {name:?}"))?],
        None => SPECS.iter().collect(),
    };
    let work_parent = PathBuf::from(required(args, "--work-dir")?);
    let out = flag(args, "--out").map_or(work_parent.clone(), PathBuf::from);
    let server_bin = PathBuf::from(required(args, "--server")?);
    if !server_bin.is_file() {
        return Err(format!("no server binary at {}", server_bin.display()));
    }
    let run = || -> io::Result<Vec<(&str, Outcome)>> {
        std::fs::create_dir_all(&out)?;
        let env = Env {
            server_bin,
            work: server::WorkDir::create(&work_parent)?,
        };
        e2e::prime(specs[0], seed, &env)?;
        specs
            .iter()
            .map(|spec| {
                let ops = spec.ops_per_second * seconds;
                let outcome = if trace {
                    traced(spec, seed, ops, &env, &out)?
                } else {
                    report::end_to_end(&e2e::run(spec, seed, ops, &env)?)
                };
                eprintln!(
                    "pqbench: {} attempted {} failed {}",
                    spec.name, outcome.attempted, outcome.failed
                );
                Ok((spec.name, outcome))
            })
            .collect()
    };
    let outcomes = run().map_err(|e| e.to_string())?;
    if flag(args, "--workload").is_some() {
        println!("{}", outcomes[0].1.to_json());
    } else {
        println!("{}", report::document(seed, seconds, trace, &outcomes));
    }
    Ok(outcomes.iter().all(|(_, o)| o.failed == 0))
}

/// The per-layer run of one workload: the in-process replay, the
/// serving-edge probe, and for the durable workload the two end-to-end
/// runs whose difference is the persist tax.
fn traced(spec: &Spec, seed: u64, ops: u64, env: &Env, out: &Path) -> io::Result<Outcome> {
    // Round 0 of the end-to-end run, as one stream.
    let replayed = e2e::round_workload(spec, seed, 0, ops, 1);
    let layers = trace::replay(spec, &replayed, seed, env.work.path())?;
    trace::write_spans(
        &out.join(format!("trace.{}.jsonl", spec.name)),
        &layers.spans,
    )?;
    let mut attempted = replayed.timed[0].len() as u64 + layers.checked_timelines;
    let mut failed = layers.wrong_timelines;
    let rtt_us = e2e::frontend_rtt_us(spec, env)?;
    let mut persist = PersistEndToEnd::default();
    if spec.durable {
        let durable = e2e::run(spec, seed, ops, env)?;
        let plain = Spec {
            durable: false,
            ..*spec
        };
        let bare = e2e::run(&plain, seed, ops, env)?;
        attempted += durable.attempted + bare.attempted;
        failed += durable.failed + bare.failed;
        persist = PersistEndToEnd {
            tax_frac: 1.0 - durable.ops_per_s / bare.ops_per_s,
            stall_ms_max: durable.stall_ms_max,
            recovery_s: durable.recovery_s.unwrap_or(0.0),
        };
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: report::per_layer(&layers, rtt_us, &persist),
        info: Vec::new(),
    })
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b, ..] = args else {
        return Err("usage: pqbench compare A.json B.json [--benchmark BENCHMARK.json]".into());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let benchmark = json::Json::parse(&read(
        flag(args, "--benchmark").unwrap_or("BENCHMARK.json"),
    )?)?;
    let (a, b) = (
        report::parse_runs(&read(a)?)?,
        report::parse_runs(&read(b)?)?,
    );
    let (rows, worse) = report::compare(&benchmark, &a, &b)?;
    for row in rows {
        println!("{row}");
    }
    Ok(!worse)
}
