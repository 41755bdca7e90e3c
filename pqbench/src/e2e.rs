//! The end-to-end run of one workload: a real `pequod-server` child,
//! two loopback connections, telemetry off.
//!
//! A run is [`ROUNDS`] rounds, each with its own graph and stream drawn
//! from `(seed, round)`, its own server process and a fifth of the ops;
//! every metric is the median over the rounds. On this 2-core box one
//! server process differs from the next by ±10% on identical input
//! (thread placement and wake-up patterns stick for a process's
//! lifetime), so one long phase is no steadier than its process; the
//! median over five processes is, for the same run time. README.md has
//! the measurements.

use crate::latency::{median_f64, percentile, tail_percentile};
use crate::layers::{Key, Message, Value};
use crate::link::{run_phase, Link, SocketLink};
use crate::server::{Server, WorkDir};
use crate::workload::{gets, sample, timeline_scans, Frames, Model, Spec, Workload, CONNS};
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Closed loop: [`CONNS`] connections, each with this many unanswered
/// frames, from one generator thread per connection.
pub const DEPTH: usize = 8;
/// Rounds per run; `--trace 1` replays round 0's stream in-process.
pub const ROUNDS: u64 = 5;
/// Timelines the oracle reads back each round, and base writes the
/// durable workload re-reads after its crash.
const ORACLE_USERS: usize = 40;
const DURABLE_READS: usize = 1000;

pub struct Env {
    pub server_bin: PathBuf,
    pub work: WorkDir,
}

impl Env {
    /// Where the durable workload's server keeps its log and snapshots.
    fn data_dir(&self, spec: &Spec) -> Option<PathBuf> {
        spec.durable.then(|| self.work.path().join("data"))
    }

    /// A server for `spec`, on whatever its data dir already holds.
    fn spawn(&self, spec: &Spec) -> io::Result<Server> {
        let log = self.work.path().join("server.log");
        Server::spawn(&self.server_bin, spec, self.data_dir(spec).as_deref(), &log)
    }
}

/// The workload of one round of a run.
pub fn round_workload(spec: &Spec, seed: u64, round: u64, run_ops: u64, conns: usize) -> Workload {
    // Distinct for every (seed, round) that fits in 32 bits each.
    Workload::generate(
        spec,
        seed.wrapping_mul(ROUNDS) + round,
        run_ops / ROUNDS,
        conns,
    )
}

/// Medians over the rounds, and totals.
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub peak_rss_mb: f64,
    /// Timed ops plus every oracle and recovery read, over all rounds.
    pub attempted: u64,
    /// Error replies + timeouts + oracle mismatches, over all rounds.
    pub failed: u64,
    /// Latency samples per round.
    pub samples: f64,
    /// The highest percentile with ten samples beyond it in a round,
    /// and its value.
    pub tail: (f64, f64),
    pub timed_s: f64,
    /// Longest gap between consecutive replies on a connection, in any
    /// round.
    pub stall_ms_max: f64,
    /// Kill → restart → first correct timeline; durable workload only,
    /// after the last round.
    pub recovery_s: Option<f64>,
}

/// Spawn → graph → initial posts → one login per active user.
fn set_up(spec: &Spec, workload: &Workload, env: &Env) -> io::Result<(Server, Vec<SocketLink>)> {
    if let Some(dir) = env.data_dir(spec).filter(|dir| dir.exists()) {
        std::fs::remove_dir_all(dir)?;
    }
    let server = env.spawn(spec)?;
    let mut links = connect(&server)?;
    for stage in &workload.setup {
        let (results, _) = run_phase(&mut links, stage, DEPTH, false)?;
        let failed: u64 = results.iter().map(|r| r.failed).sum();
        if failed > 0 {
            return Err(io::Error::other(format!("{failed} set-up requests failed")));
        }
    }
    Ok((server, links))
}

fn connect(server: &Server) -> io::Result<Vec<SocketLink>> {
    (0..CONNS)
        .map(|_| SocketLink::connect(server.addr))
        .collect()
}

/// One throw-away set-up of a tenth-size graph, so the first timed
/// set-up of a run sees the same machine state (page cache, CPU
/// frequency) as the later ones.
pub fn prime(spec: &Spec, seed: u64, env: &Env) -> io::Result<()> {
    let mini = Spec {
        users: spec.users / 10,
        initial_posts: spec.initial_posts / 10,
        ..*spec
    };
    set_up(&mini, &Workload::generate(&mini, seed, 0, CONNS), env).map(drop)
}

/// What one round measured.
struct Round {
    setup_s: f64,
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    peak_rss_mb: f64,
    samples: usize,
    tail_us: f64,
    timed_s: f64,
    stall_ms: f64,
}

/// Runs `run_ops` timed ops in [`ROUNDS`] rounds.
pub fn run(spec: &Spec, seed: u64, run_ops: u64, env: &Env) -> io::Result<EndToEnd> {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut rounds = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut recovery_s = None;
    for round in 0..ROUNDS {
        let workload = round_workload(spec, seed, round, run_ops, CONNS);
        let begin = Instant::now();
        let (server, mut links) = set_up(spec, &workload, env)?;
        let setup_s = begin.elapsed().as_secs_f64();

        let (results, elapsed) = run_phase(&mut links, &workload.timed, DEPTH, false)?;
        let ops: usize = workload.timed.iter().map(Frames::len).sum();
        attempted += ops as u64;
        failed += results.iter().map(|r| r.failed).sum::<u64>();
        let mut latencies: Vec<u64> = results
            .iter()
            .flat_map(|r| r.latencies_ns.iter().copied())
            .collect();
        latencies.sort_unstable();
        if latencies.is_empty() {
            return Err(io::Error::other("no request was answered"));
        }
        rounds.push(Round {
            setup_s,
            ops_per_s: ops as f64 / elapsed.as_secs_f64(),
            p50_us: us(percentile(&latencies, 50.0)),
            p99_us: us(percentile(&latencies, 99.0)),
            peak_rss_mb: server.peak_rss_mb()?,
            samples: latencies.len(),
            tail_us: us(percentile(&latencies, tail_percentile(latencies.len()))),
            timed_s: elapsed.as_secs_f64(),
            stall_ms: results.iter().map(|r| r.max_gap_ns).max().unwrap_or(0) as f64 / 1e6,
        });

        let users = oracle_users(&workload.model, seed);
        attempted += users.len() as u64;
        failed += wrong_timelines(&mut links, &workload.model, &users)?;

        if spec.durable && round + 1 == ROUNDS {
            // SIGKILL: the server gets no chance to flush or snapshot.
            drop(links);
            drop(server);
            let (reads, lost, seconds) = recover(spec, &workload.model, &users[..1], seed, env)?;
            attempted += reads;
            failed += lost;
            recovery_s = seconds;
        }
    }
    let median = |of: fn(&Round) -> f64| median_f64(&mut rounds.iter().map(of).collect::<Vec<_>>());
    let samples = median(|r| r.samples as f64);
    Ok(EndToEnd {
        setup_s: median(|r| r.setup_s),
        ops_per_s: median(|r| r.ops_per_s),
        p50_us: median(|r| r.p50_us),
        p99_us: median(|r| r.p99_us),
        peak_rss_mb: median(|r| r.peak_rss_mb),
        attempted,
        failed,
        samples,
        tail: (tail_percentile(samples as usize), median(|r| r.tail_us)),
        timed_s: median(|r| r.timed_s),
        stall_ms_max: rounds.iter().map(|r| r.stall_ms).fold(0.0, f64::max),
        recovery_s,
    })
}

/// The seeded users whose timelines the oracle reads back.
pub fn oracle_users(model: &Model, seed: u64) -> Vec<u32> {
    sample(model.users() as usize, ORACLE_USERS, seed ^ 0x0dac1e)
        .into_iter()
        .map(|u| u as u32)
        .collect()
}

/// Full-timeline scans of `users`, compared pair for pair with the
/// model; returns how many differ.
pub fn wrong_timelines<L: Link + Send>(
    links: &mut [L],
    model: &Model,
    users: &[u32],
) -> io::Result<u64> {
    let (frames, picked) = timeline_scans(users, links.len());
    let (results, _) = run_phase(links, &frames, DEPTH, true)?;
    let mut wrong = 0;
    for (result, users) in results.iter().zip(&picked) {
        for (reply, &user) in result.replies.iter().zip(users) {
            let right = matches!(
                reply,
                Some(Message::Reply { pairs, error: None, .. }) if *pairs == model.timeline(user)
            );
            wrong += u64::from(!right);
        }
    }
    Ok(wrong)
}

/// Restarts the killed durable server on its data dir, times the first
/// correct timeline of `first` and reads back [`DURABLE_READS`] seeded
/// acknowledged base writes: `(reads attempted, reads failed, seconds to
/// the first correct read)`.
fn recover(
    spec: &Spec,
    model: &Model,
    first: &[u32],
    seed: u64,
    env: &Env,
) -> io::Result<(u64, u64, Option<f64>)> {
    let begin = Instant::now();
    let server = env.spawn(spec)?;
    let mut links = connect(&server)?;
    let wrong = wrong_timelines(&mut links, model, first)?;
    let recovery_s = (wrong == 0).then(|| begin.elapsed().as_secs_f64());
    let writes = model.base_writes();
    let picked: Vec<&(Key, Value)> = sample(writes.len(), DURABLE_READS, seed ^ 0xd07ab1e)
        .into_iter()
        .map(|i| &writes[i])
        .collect();
    let lost = lost_writes(&mut links[0], &picked)?;
    Ok((
        (first.len() + picked.len()) as u64,
        wrong + lost,
        recovery_s,
    ))
}

/// Reads back acknowledged base writes; returns how many are missing or
/// changed.
fn lost_writes(link: &mut impl Link, writes: &[&(Key, Value)]) -> io::Result<u64> {
    let frames = gets(writes.iter().map(|(k, _)| k.clone()));
    let result = link.drive(&frames, DEPTH, true)?;
    let lost = result
        .replies
        .iter()
        .zip(writes)
        .filter(|(reply, (key, value))| {
            !matches!(
                reply,
                Some(Message::Reply { pairs, error: None, .. })
                    if pairs.len() == 1 && pairs[0].0 == *key && pairs[0].1 == *value
            )
        });
    Ok(lost.count() as u64)
}

/// Median round trip of a `Get` on an absent key, one in flight, on an
/// idle warmed server: the serving edge with the engine doing nothing.
pub fn frontend_rtt_us(spec: &Spec, env: &Env) -> io::Result<f64> {
    const WARM: usize = 2_000;
    const SAMPLES: usize = 20_000;
    // No data dir and no cap: the edge is the same under every workload.
    let plain = Spec {
        mem_limit_mb: None,
        durable: false,
        ..*spec
    };
    let server = env.spawn(&plain)?;
    let mut link = SocketLink::connect(server.addr)?;
    let absent = |n| gets((0..n).map(|i| Key::from(format!("absent|{i:07}"))));
    link.drive(&absent(WARM), 1, false)?;
    let mut result = link.drive(&absent(SAMPLES), 1, false)?;
    if result.failed > 0 || result.latencies_ns.is_empty() {
        return Err(io::Error::other("round-trip probe failed"));
    }
    result.latencies_ns.sort_unstable();
    Ok(percentile(&result.latencies_ns, 50.0) as f64 / 1e3)
}
