//! Conformance suite for the unified client API: the same command
//! script runs against every backend — in-process engine, write-around
//! deployment, simulated replicated cluster (one replica per slot, and
//! two), and the three baseline
//! stores — and must produce the identical response
//! sequence. This is the contract that makes the figure binaries'
//! `--backend` flag meaningful: any backend that passes here is a
//! drop-in for any other.

use pequod::baselines::{MemcachedClient, MiniDbClient, RedisClient};
use pequod::cluster::{ClusterClient, ClusterConfig, SimHarness};
use pequod::core::partition::{ComponentHashPartition, Partition, ServerId, TablePartition};
use pequod::core::{Client, Command, Engine, EngineConfig, MemoryLimit, Response, WriteAround};
use pequod::prelude::*;
use pequod::telemetry::Recorder;
use std::sync::Arc;

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

fn k(s: &str) -> Key {
    Key::from(s)
}

fn v(s: &str) -> Value {
    Value::from(s.as_bytes().to_vec())
}

/// A named factory, so each scenario starts from a fresh instance. The
/// name is the backend's, plus a `-hash` suffix for the deployments
/// partitioned by user instead of by table.
type BackendFactory = (&'static str, Box<dyn Fn() -> Box<dyn Client>>);

/// Two nodes split by table: posts homed on node 1, the rest on node
/// 0, so the scripts cross a partition boundary.
fn by_table() -> Arc<dyn Partition> {
    Arc::new(TablePartition::new(ServerId(0)).route("p|", ServerId(1)))
}

/// Two nodes split by user: every table is spread over both, and a
/// whole-table read has to gather from each.
fn by_user() -> Arc<dyn Partition> {
    Arc::new(ComponentHashPartition {
        component: 1,
        servers: 2,
    })
}

/// The tables a write-around deployment keeps in its database.
const DB_TABLES: &[&str] = &["p|", "s|", "acct|"];

/// A simulated two-node cluster over `engine()`s, one replica of each
/// of the partition's two slots.
fn cluster_of(part: Arc<dyn Partition>, engine: impl Fn() -> Engine) -> ClusterClient {
    replicated_cluster(2, 1, part, 2, engine)
}

/// A simulated cluster of `nodes` nodes over `engine()`s, `replicas`
/// replicas of each of `slots` slots placed by `part`.
fn replicated_cluster(
    nodes: u32,
    replicas: usize,
    part: Arc<dyn Partition>,
    slots: u32,
    engine: impl Fn() -> Engine,
) -> ClusterClient {
    let cfg = ClusterConfig::new(nodes, replicas).with_partition(part, slots);
    let engines = (0..nodes).map(|_| engine()).collect();
    ClusterClient::simulated(SimHarness::with_engines(&cfg, engines, 0x5eed, 1))
}

/// Three nodes, two replicas of each of six user-hashed slots.
fn cluster_rf2(engine: impl Fn() -> Engine) -> ClusterClient {
    let part = Arc::new(ComponentHashPartition {
        component: 1,
        servers: 6,
    });
    replicated_cluster(3, 2, part, 6, engine)
}

fn backends(join_capable_only: bool) -> Vec<BackendFactory> {
    let mut out: Vec<BackendFactory> = vec![
        (
            "engine",
            Box::new(|| Box::new(Engine::new(EngineConfig::default())) as Box<dyn Client>),
        ),
        (
            "writearound",
            Box::new(|| {
                Box::new(WriteAround::new(
                    Engine::new(EngineConfig::default()),
                    DB_TABLES,
                )) as Box<dyn Client>
            }),
        ),
        (
            "cluster",
            Box::new(|| Box::new(cluster_of(by_table(), Engine::new_default)) as _),
        ),
        (
            "cluster-hash",
            Box::new(|| Box::new(cluster_of(by_user(), Engine::new_default)) as _),
        ),
        (
            "cluster-rf2",
            Box::new(|| Box::new(cluster_rf2(Engine::new_default)) as _),
        ),
    ];
    if !join_capable_only {
        out.push((
            "redis",
            Box::new(|| Box::new(RedisClient::new()) as Box<dyn Client>),
        ));
        out.push((
            "memcached",
            Box::new(|| Box::new(MemcachedClient::new()) as Box<dyn Client>),
        ));
        out.push((
            "minidb",
            Box::new(|| Box::new(MiniDbClient::new()) as Box<dyn Client>),
        ));
    }
    out
}

/// Plain KV commands every backend must answer identically (no joins —
/// the baselines reject those, which `addjoin_rejection_is_explicit`
/// covers separately).
fn kv_script() -> Vec<Command> {
    vec![
        Command::Put(k("p|bob|0000000100"), v("Hi")),
        Command::Put(k("p|bob|0000000120"), v("again")),
        Command::Put(k("p|liz|0000000110"), v("hello")),
        Command::Put(k("acct|ann"), v("1000")),
        Command::Get(k("p|bob|0000000100")),
        Command::Get(k("p|zed|0000000001")), // absent
        Command::Scan(KeyRange::prefix("p|bob|")),
        Command::Scan(KeyRange::prefix("p|")),
        Command::Scan(KeyRange::prefix("s|")), // empty table
        Command::Count(KeyRange::prefix("p|")),
        Command::Count(KeyRange::prefix("acct|")),
        Command::Count(KeyRange::prefix("s|")), // zero
        Command::Put(k("p|bob|0000000100"), v("edited")), // overwrite
        Command::Get(k("p|bob|0000000100")),
        Command::Count(KeyRange::prefix("p|bob|")), // still 2
        Command::Remove(k("p|bob|0000000120")),
        Command::Remove(k("p|bob|0000000999")), // absent: no-op
        Command::Scan(KeyRange::prefix("p|bob|")),
        Command::Count(KeyRange::prefix("p|")),
        Command::Scan(KeyRange::new("p|bob|0000000100", "p|liz|0000000111")),
        Command::Get(k("acct|ann")),
        Command::Remove(k("acct|ann")),
        Command::Get(k("acct|ann")),
        // A table no deployment declared up front: the write-around
        // backend must still serve it (cache-resident), identically.
        Command::Put(k("misc|x"), v("42")),
        Command::Get(k("misc|x")),
        Command::Count(KeyRange::prefix("misc|")),
        Command::Remove(k("misc|x")),
        Command::Get(k("misc|x")),
    ]
    .into_iter()
    .chain(whole_table_reads())
    .collect()
}

/// Reads that span every node of a user-partitioned deployment:
/// the executing node has to gather all nodes' rows, answer like a
/// single engine, leave no node's residency poisoned for the sub-range
/// reads that follow from other nodes, and stay fresh.
fn whole_table_reads() -> Vec<Command> {
    let sub_ranges = |firsts: &'static [&'static str]| {
        (firsts.iter()).map(|c| Command::Count(KeyRange::new(format!("p|{c}"), "p~")))
    };
    (0..8)
        .map(|i| Command::Put(k(&format!("p|user{i}|0000000001")), v("v")))
        .chain([
            Command::Count(KeyRange::prefix("p|")),
            Command::Scan(KeyRange::prefix("p|")),
        ])
        .chain(sub_ranges(&["a", "b", "c", "d", "e", "f", "g", "h", "u"]))
        .chain([
            Command::Put(k("p|newuser|0000000001"), v("v")),
            Command::Count(KeyRange::prefix("p|")),
            Command::Scan(KeyRange::prefix("p|")),
        ])
        .chain(sub_ranges(&["a", "b", "c", "d", "n", "u"]))
        .collect()
}

/// A script exercising cache joins, for the join-capable backends:
/// installs the timeline join, mixes writes and reads, counts
/// server-side, and checks incremental maintenance of removals.
fn join_script() -> Vec<Command> {
    vec![
        Command::AddJoin(TIMELINE.to_string()),
        Command::Put(k("s|ann|bob"), v("1")),
        Command::Put(k("s|cat|bob"), v("1")),
        Command::Put(k("p|bob|0000000100"), v("Hi")),
        Command::Scan(KeyRange::prefix("t|ann|")),
        Command::Count(KeyRange::prefix("t|cat|")),
        Command::Put(k("p|bob|0000000120"), v("again")),
        Command::Scan(KeyRange::prefix("t|ann|")),
        Command::Count(KeyRange::prefix("t|ann|")),
        Command::Get(k("t|cat|0000000120|bob")),
        Command::Remove(k("p|bob|0000000100")),
        Command::Scan(KeyRange::prefix("t|ann|")),
        Command::Count(KeyRange::prefix("t|cat|")),
        Command::Put(k("s|ann|liz"), v("1")),
        Command::Put(k("p|liz|0000000130"), v("hello")),
        Command::Count(KeyRange::prefix("t|ann|")),
        Command::Scan(KeyRange::prefix("t|cat|")),
    ]
}

/// Runs a script and labels each response with its command index for
/// readable mismatch reports.
fn run_script(client: &mut dyn Client, script: Vec<Command>) -> Vec<(usize, Response)> {
    client
        .execute_batch(script)
        .into_iter()
        .enumerate()
        .collect()
}

fn assert_all_agree(script_of: fn() -> Vec<Command>, join_capable_only: bool) {
    let mut reference: Option<(&str, Vec<(usize, Response)>)> = None;
    for (name, make) in backends(join_capable_only) {
        let mut client = make();
        assert_eq!(Some(client.backend_name()), name.split('-').next());
        let got = run_script(&mut *client, script_of());
        match &reference {
            None => reference = Some((name, got)),
            Some((ref_name, want)) => {
                assert_eq!(
                    &got, want,
                    "{name} answered the script differently from {ref_name}"
                );
            }
        }
    }
}

#[test]
fn all_backends_agree_on_the_kv_script() {
    assert_all_agree(kv_script, false);
}

#[test]
fn join_capable_backends_agree_on_the_join_script() {
    assert_all_agree(join_script, true);
}

/// One big batch and the same commands issued one at a time must be
/// indistinguishable (batching is a transport optimization, not a
/// semantic one).
#[test]
fn batched_equals_one_at_a_time() {
    for (name, make) in backends(true) {
        let mut batched = make();
        let batched_out = batched.execute_batch(join_script());
        let mut single = make();
        let single_out: Vec<Response> = join_script()
            .into_iter()
            .map(|c| single.execute(c))
            .collect();
        assert_eq!(batched_out, single_out, "{name}: batch != singles");
    }
    for (name, make) in backends(false) {
        let mut batched = make();
        let batched_out = batched.execute_batch(kv_script());
        let mut single = make();
        let single_out: Vec<Response> =
            kv_script().into_iter().map(|c| single.execute(c)).collect();
        assert_eq!(batched_out, single_out, "{name}: batch != singles");
    }
}

/// Join-less backends reject joins with an error response rather than
/// silently dropping them, and keep answering later commands.
#[test]
fn addjoin_rejection_is_explicit() {
    for make in [
        || Box::new(RedisClient::new()) as Box<dyn Client>,
        || Box::new(MemcachedClient::new()) as Box<dyn Client>,
        || Box::new(MiniDbClient::new()) as Box<dyn Client>,
    ] {
        let mut client = make();
        let out = client.execute_batch(vec![
            Command::AddJoin(TIMELINE.to_string()),
            Command::Put(k("p|bob|0000000100"), v("Hi")),
            Command::Count(KeyRange::prefix("p|")),
        ]);
        assert!(matches!(out[0], Response::Error(_)));
        assert_eq!(out[1], Response::Ok);
        assert_eq!(out[2], Response::Count(1));
    }
}

/// `Client::stats` is the one answer that legitimately differs per
/// backend, and no command of the protocol: each backend reads its own
/// counters, which must still see what was written.
#[test]
fn every_backend_answers_stats() {
    for (name, make) in backends(false) {
        let mut client = make();
        client.put(&k("p|bob|0000000100"), &v("Hi"));
        let stats = client.stats();
        assert!(stats.keys >= 1, "{name} reported no keys");
        assert_eq!(stats.js_evictions, 0, "{name}: no cap, no evictions");
        assert_eq!(stats.base_evictions, 0, "{name}: no cap, no evictions");
    }
}

/// A bigger deterministic script whose computed timelines dominate the
/// footprint, so a cap at half the uncapped footprint forces evictions
/// mid-script: 24 readers × 4 followees over 8 posters, several rounds
/// of posting and timeline reads.
fn pressure_script() -> Vec<Command> {
    let mut script = vec![Command::AddJoin(TIMELINE.to_string())];
    for u in 0..24u32 {
        for f in 0..4u32 {
            script.push(Command::Put(
                k(&format!("s|r{u:03}|w{:03}", (u + f) % 8)),
                v("1"),
            ));
        }
    }
    let mut time = 0u64;
    for p in 0..8u32 {
        for _ in 0..12 {
            time += 1;
            script.push(Command::Put(
                k(&format!("p|w{p:03}|{time:010}")),
                v("a tweet of plausible length for the feed"),
            ));
        }
    }
    for _round in 0..3 {
        for u in 0..24u32 {
            script.push(Command::Scan(KeyRange::prefix(format!("t|r{u:03}|"))));
            script.push(Command::Count(KeyRange::prefix(format!("t|r{u:03}|"))));
        }
        for p in 0..8u32 {
            time += 1;
            script.push(Command::Put(
                k(&format!("p|w{p:03}|{time:010}")),
                v("a follow-up tweet between read rounds"),
            ));
        }
        script.push(Command::Remove(k(&format!("p|w000|{:010}", time - 7))));
    }
    script
}

/// A capped deployment that can also audit itself end to end.
trait Audited: Client {
    fn audit(&mut self) -> Vec<String>;
}

impl Audited for Engine {
    fn audit(&mut self) -> Vec<String> {
        self.check_invariants()
    }
}

impl Audited for WriteAround {
    fn audit(&mut self) -> Vec<String> {
        self.check_invariants()
    }
}

impl Audited for ClusterClient {
    fn audit(&mut self) -> Vec<String> {
        let sim = self.sim_mut().expect("a simulated cluster");
        sim.run_until_quiet();
        sim.check_invariants()
    }
}

/// What follows [`pressure_script`] under a cap: `filler_bytes` of rows
/// nothing may evict (plain or authoritative base data) push every node
/// past its budget until all it *can* evict is gone — computed
/// timelines and, on a multi-node deployment, the replicated base
/// ranges its peers still serve it — and are removed again. Then a
/// write to every poster, whose homes notify subscribers that no longer
/// hold the range.
fn squeeze_script(filler_bytes: usize) -> Vec<Command> {
    let value = "x".repeat(1024);
    let filler = || (0..filler_bytes / 1024 + 1).map(|i| k(&format!("misc|fill{i:04}")));
    let mut script: Vec<Command> = filler()
        .map(|key| Command::Put(key, v(&value)))
        .chain(filler().map(Command::Remove))
        .collect();
    for p in 0..8u32 {
        script.push(Command::Put(
            k(&format!("p|w{p:03}|9999999999")),
            v("a tweet posted after the evictions"),
        ));
    }
    script
}

/// Every timeline and the whole post table, read back after the squeeze.
fn read_everything() -> Vec<Command> {
    (0..24u32)
        .map(|u| Command::Scan(KeyRange::prefix(format!("t|r{u:03}|"))))
        .chain([Command::Count(KeyRange::prefix("p|"))])
        .collect()
}

/// Recompute transparency (§2.5): a memory-capped deployment must
/// answer the shared script byte-identically to an uncapped engine, on
/// every join-capable backend that can run capped — the in-process
/// engine, the write-around deployment (the cache capped, the database
/// not), and the simulated cluster (per-node budgets), partitioned by
/// table and by user. The
/// cap is calibrated to half of the uncapped engine's footprint on the
/// same script, so eviction provably fires while the script runs.
///
/// The squeeze that follows evicts replicated base ranges whose homes
/// still list the evictor as a subscriber, then writes to them; a
/// deployment-wide audit comes straight after, because a notification
/// for an evicted range must not come back as a row no resident range
/// tracks (the reads that follow would refetch the range and hide it).
#[test]
fn capped_backends_answer_like_uncapped_ones() {
    // Reference + calibration: the uncapped engine.
    let mut reference = Engine::new(EngineConfig::default());
    let want = run_script(&mut reference, pressure_script());
    let footprint = Client::stats(&mut reference).memory_bytes as usize;
    run_script(&mut reference, squeeze_script(footprint));
    let want_after = run_script(&mut reference, read_everything());
    let limit = MemoryLimit::new(footprint / 2);
    let capped = move || EngineConfig::default().with_mem_limit(limit);
    // Cluster nodes are configured explicitly: give each of the two
    // servers half of the deployment budget.
    let node_limit = MemoryLimit::new(limit.high_bytes / 2);
    let node_engine = move || Engine::new(EngineConfig::default().with_mem_limit(node_limit));

    type AuditedFactory = (&'static str, Box<dyn Fn() -> Box<dyn Audited>>);
    let deployments: Vec<AuditedFactory> = vec![
        ("engine", Box::new(move || Box::new(Engine::new(capped())))),
        (
            "writearound",
            Box::new(move || Box::new(WriteAround::new(Engine::new(capped()), DB_TABLES))),
        ),
        (
            "cluster",
            Box::new(move || Box::new(cluster_of(by_table(), node_engine))),
        ),
        (
            "cluster-hash",
            Box::new(move || Box::new(cluster_of(by_user(), node_engine))),
        ),
        (
            "cluster-rf2",
            Box::new(move || Box::new(cluster_rf2(node_engine))),
        ),
    ];
    for (name, make) in deployments {
        let mut deployment = make();
        let client: &mut dyn Client = &mut *deployment;
        let got = run_script(client, pressure_script());
        assert_eq!(
            got, want,
            "capped {name} answered the script differently from the uncapped engine"
        );
        let stats = client.stats();
        assert!(
            stats.js_evictions + stats.base_evictions > 0,
            "capped {name} never evicted (cap {} bytes, footprint {} bytes)",
            limit.high_bytes,
            footprint
        );
        let acks = client.execute_batch(squeeze_script(footprint));
        assert!(acks.iter().all(|r| *r == Response::Ok));
        assert!(
            name == "engine" || client.stats().base_evictions > 0,
            "squeezed {name} never evicted a replicated base range"
        );
        let violations = deployment.audit();
        assert!(violations.is_empty(), "squeezed {name}: {violations:?}");
        let got = run_script(&mut *deployment, read_everything());
        assert_eq!(
            got, want_after,
            "squeezed {name} answered differently from the uncapped engine"
        );
        let violations = deployment.audit();
        assert!(violations.is_empty(), "capped {name}: {violations:?}");
    }
}

/// An engine with a live telemetry recorder, for the on/off contract
/// below.
fn telemetered_engine() -> Engine {
    let mut e = Engine::new(EngineConfig::default());
    e.set_recorder(Recorder::enabled());
    e
}

/// The join-capable pequod backends with telemetry recording on every
/// engine, mirroring `backends(true)` name for name.
fn telemetered_backends() -> Vec<BackendFactory> {
    vec![
        (
            "engine",
            Box::new(|| Box::new(telemetered_engine()) as Box<dyn Client>),
        ),
        (
            "writearound",
            Box::new(|| {
                Box::new(WriteAround::new(telemetered_engine(), DB_TABLES)) as Box<dyn Client>
            }),
        ),
        (
            "cluster",
            Box::new(|| Box::new(cluster_of(by_table(), telemetered_engine)) as _),
        ),
        (
            "cluster-hash",
            Box::new(|| Box::new(cluster_of(by_user(), telemetered_engine)) as _),
        ),
        (
            "cluster-rf2",
            Box::new(|| Box::new(cluster_rf2(telemetered_engine)) as _),
        ),
    ]
}

/// Telemetry must be invisible to clients: with an enabled recorder on
/// every engine, each backend answers both scripts byte-identically to
/// its untelemetered twin — recording observes the data path, it never
/// participates in it. (The recorder is provably live: the engine
/// variant must have counted the script's operations.)
#[test]
fn telemetry_on_answers_are_byte_identical() {
    for script_of in [kv_script as fn() -> Vec<Command>, join_script] {
        for ((name, plain), (tname, telemetered)) in
            backends(true).into_iter().zip(telemetered_backends())
        {
            assert_eq!(name, tname, "factory lists diverged");
            let want = run_script(&mut *plain(), script_of());
            let got = run_script(&mut *telemetered(), script_of());
            assert_eq!(got, want, "{name}: telemetry changed the answers");
        }
    }
    let mut engine = telemetered_engine();
    run_script(&mut engine, join_script());
    let snap = engine.recorder().snapshot(false);
    assert!(
        snap.to_prometheus().contains("pequod_op_total"),
        "recorder was not live during the conformance run"
    );
}
