//! Per-layer attribution: the same seeded stream replayed in-process on
//! one thread, with the benchmark playing the serving loop and recording
//! a span around each call into a layer's public functions.
//!
//! request bytes → `net::codec` decode → `core::Engine` through the
//! `Client` trait (→ the `persist` durability hook) → `net::codec`
//! encode of the reply. Spans inside the program are a later change;
//! until then `join` and `store` time stays inside `core.exec` self
//! time, and `store` is priced separately by replaying the timeline
//! keys straight into a `Store`.

use crate::e2e::{oracle_users, wrong_timelines};
use crate::layers::{
    attach, encode_frame, timeline_range, Client, Command, Durability, DurableOp, Engine,
    EngineConfig, FrameDecoder, FsyncPolicy, Key, MemoryLimit, Message, PersistOptions, Response,
    Store, StoreConfig, Value, TIMELINE_JOIN,
};
use crate::link::{Link, PhaseResult};
use crate::workload::{sample, Frames, Kind, Model, Spec, Workload, SNAPSHOT_EVERY};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval. Spans of one request share `op`; `parent` is
/// the `id` of the span that caused this one (0 for the request's root).
#[derive(Clone, Copy)]
pub struct Span {
    pub op: u32,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

const OP: &str = "op";
const DECODE: &str = "net.codec.decode";
const EXEC: &str = "core.exec";
const ENCODE: &str = "net.codec.encode";
const APPEND: &str = "persist.append";
const SNAPSHOT: &str = "persist.snapshot";

fn store_config() -> StoreConfig {
    StoreConfig::flat()
        .with_subtable("t|", 2)
        .with_subtable("p|", 2)
}

/// What the durability wrapper saw, shared with the serving loop.
#[derive(Default)]
struct PersistLog {
    /// `(name, start_ns, end_ns)` since the serving loop last looked.
    calls: Vec<(&'static str, u64, u64)>,
    snapshots: u64,
    user_bytes: u64,
    wal_bytes: u64,
    snapshot_bytes: u64,
}

/// Times every call through the `Durability` hook and counts the bytes
/// it leaves on disk, then hands the call to the real persister.
struct TimedDurability {
    inner: Box<dyn Durability>,
    log: Arc<Mutex<PersistLog>>,
    epoch: Instant,
    dir: PathBuf,
}

fn dir_bytes(dir: &Path, extension: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == extension))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

impl Durability for TimedDurability {
    fn log(&mut self, op: &DurableOp) -> bool {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let wants_snapshot = self.inner.log(op);
        let end = self.epoch.elapsed().as_nanos() as u64;
        let mut log = self.log.lock().expect("single-threaded replay");
        log.calls.push((APPEND, start, end));
        if let DurableOp::Put(key, value) = op {
            log.user_bytes += (key.as_bytes().len() + value.len()) as u64;
        }
        wants_snapshot
    }

    fn snapshot(&mut self, joins: &[String], pairs: &[(Key, Value)]) {
        // Compaction deletes the log it replaces: count it first.
        let wal = dir_bytes(&self.dir, "log");
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.inner.snapshot(joins, pairs);
        let end = self.epoch.elapsed().as_nanos() as u64;
        let mut log = self.log.lock().expect("single-threaded replay");
        log.calls.push((SNAPSHOT, start, end));
        log.snapshots += 1;
        log.wal_bytes += wal;
        log.snapshot_bytes += dir_bytes(&self.dir, "snap");
    }

    fn sync(&mut self) {
        self.inner.sync();
    }
}

/// The in-process serving loop, as one [`Link`].
pub struct InProcess {
    engine: Engine,
    decoder: FrameDecoder,
    epoch: Instant,
    /// `None` replays without recording (set-up, and the tracing-off
    /// side of `trace.overhead_frac`).
    spans: Option<Vec<Span>>,
    /// The timed durability hook's log, and the WAL bytes already on
    /// disk when recording started.
    persist: Option<(Arc<Mutex<PersistLog>>, u64)>,
    data_dir: Option<PathBuf>,
    next_op: u32,
    next_span: u32,
}

impl InProcess {
    pub fn new(spec: &Spec, data_dir: Option<&Path>) -> io::Result<InProcess> {
        let mut config = EngineConfig::with_store(store_config());
        config.mem_limit = spec.mem_limit_mb.map(MemoryLimit::mb);
        let mut engine = Engine::new(config);
        if let Some(dir) = data_dir {
            let opts = PersistOptions {
                fsync: FsyncPolicy::Never,
                snapshot_every: Some(SNAPSHOT_EVERY),
            };
            attach(&mut engine, dir, opts)?;
        }
        Client::add_join(&mut engine, TIMELINE_JOIN).map_err(io::Error::other)?;
        Ok(InProcess {
            engine,
            decoder: FrameDecoder::new(),
            epoch: Instant::now(),
            spans: None,
            persist: None,
            data_dir: data_dir.map(Path::to_path_buf),
            next_op: 0,
            next_span: 1,
        })
    }

    /// From here on every request leaves spans, and the durability hook
    /// (if any) is timed.
    fn start_recording(&mut self) {
        self.spans = Some(Vec::new());
        if let (Some(dir), Some(inner)) = (&self.data_dir, self.engine.take_durability()) {
            let log = Arc::new(Mutex::new(PersistLog::default()));
            self.engine.set_durability(Box::new(TimedDurability {
                inner,
                log: log.clone(),
                epoch: self.epoch,
                dir: dir.clone(),
            }));
            self.persist = Some((log, dir_bytes(dir, "log")));
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span(
        &mut self,
        op: u32,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.next_span;
        self.next_span += 1;
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                op,
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
        id
    }

    /// One request frame through decode → exec → encode; returns the
    /// last reply, how many replies failed, and the reply bytes it would
    /// put on the wire.
    fn serve(&mut self, frame: &[u8]) -> io::Result<(Message, u64, usize)> {
        let recording = self.spans.is_some();
        let op = self.next_op;
        self.next_op += 1;
        let t0 = if recording { self.now() } else { 0 };
        self.decoder.extend(frame);
        let request = self
            .decoder
            .next_frame()
            .map_err(io::Error::other)?
            .ok_or_else(|| io::Error::other("incomplete request frame"))?;
        let t1 = if recording { self.now() } else { 0 };
        // One frame in, one reply per pipelined request out.
        let replies: Vec<Message> = match request {
            Message::Batch { msgs } => msgs
                .into_iter()
                .map(|m| execute(&mut self.engine, m))
                .collect(),
            single => vec![execute(&mut self.engine, single)],
        };
        let t2 = if recording { self.now() } else { 0 };
        let wire = replies.iter().map(|reply| encode_frame(reply).len()).sum();
        let failed = replies
            .iter()
            .filter(|r| matches!(r, Message::Reply { error: Some(_), .. }))
            .count();
        if recording {
            let t3 = self.now();
            let root = self.span(op, 0, OP, t0, t3);
            self.span(op, root, DECODE, t0, t1);
            let exec = self.span(op, root, EXEC, t1, t2);
            if let Some((log, _)) = &self.persist {
                let calls = std::mem::take(&mut log.lock().expect("single-threaded replay").calls);
                for (name, start, end) in calls {
                    self.span(op, exec, name, start, end);
                }
            }
            self.span(op, root, ENCODE, t2, t3);
        }
        let last = replies
            .into_iter()
            .next_back()
            .ok_or_else(|| io::Error::other("empty batch"))?;
        Ok((last, failed as u64, wire))
    }
}

/// What the server's connection handler does with one client message,
/// through the unified `Client` surface.
fn execute(engine: &mut Engine, request: Message) -> Message {
    match request {
        Message::Get { id, key } => match engine.execute(Command::Get(key.clone())) {
            Response::Value(value) => {
                Message::reply(id, value.map(|v| (key, v)).into_iter().collect())
            }
            other => Message::error(id, format!("{other:?}")),
        },
        Message::Scan { id, range } => match engine.execute(Command::Scan(range)) {
            Response::Pairs(pairs) => Message::reply(id, pairs),
            other => Message::error(id, format!("{other:?}")),
        },
        Message::Put { id, key, value } => match engine.execute(Command::Put(key, value)) {
            Response::Ok => Message::reply(id, Vec::new()),
            other => Message::error(id, format!("{other:?}")),
        },
        other => Message::error(other.id().unwrap_or(0), "not a request the benchmark sends"),
    }
}

impl Link for InProcess {
    fn drive(
        &mut self,
        frames: &Frames,
        _depth: usize,
        keep_replies: bool,
    ) -> io::Result<PhaseResult> {
        let mut out = PhaseResult::default();
        for i in 0..frames.len() {
            let (reply, failed, wire) = self.serve(frames.frame(i))?;
            out.wire_bytes += (frames.frame(i).len() + wire) as u64;
            out.failed += failed;
            if keep_replies {
                out.replies.push(Some(reply));
            }
        }
        Ok(out)
    }
}

/// The per-layer numbers of one workload's in-process replay.
#[derive(Default)]
pub struct Layers {
    pub decode_us_per_op: f64,
    pub encode_us_per_op: f64,
    pub bytes_per_op: f64,
    /// `core.exec` self time per op, by [`Kind::ALL`] order.
    pub exec_us_per_kind: [f64; 4],
    pub updates_per_post: f64,
    pub hit_rate: f64,
    pub js_evictions: u64,
    pub join_execs: u64,
    pub join_outputs_per_exec: f64,
    pub store_put_us_per_key: f64,
    pub store_scan_us_per_entry: f64,
    pub persist_append_us_per_record: f64,
    pub persist_bytes_per_user_byte: f64,
    pub persist_snapshots: u64,
    pub overhead_frac: f64,
    /// Timelines the in-process oracle found wrong, and how many it read.
    pub wrong_timelines: u64,
    pub checked_timelines: u64,
    pub spans: Vec<Span>,
}

/// Sets up and replays `workload` (generated for one connection) with
/// spans off, then again with spans on; the difference is the tracing
/// overhead, the second run gives everything else.
pub fn replay(spec: &Spec, workload: &Workload, seed: u64, work: &Path) -> io::Result<Layers> {
    let data_dir = spec.durable.then(|| work.join("trace-data"));
    let frames = &workload.timed[0];
    let kinds = &workload.kinds[0];
    let ops = frames.len().max(1) as f64;
    let set_up = || -> io::Result<InProcess> {
        if let Some(dir) = &data_dir {
            if dir.exists() {
                std::fs::remove_dir_all(dir)?;
            }
            std::fs::create_dir_all(dir)?;
        }
        let mut link = InProcess::new(spec, data_dir.as_deref())?;
        for stage in &workload.setup {
            let failed = link.drive(&stage[0], 1, false)?.failed;
            if failed > 0 {
                return Err(io::Error::other(format!(
                    "{failed} set-up requests failed in-process"
                )));
            }
        }
        Ok(link)
    };

    let mut off = set_up()?;
    let begin = Instant::now();
    off.drive(frames, 1, false)?;
    let off_s = begin.elapsed().as_secs_f64();
    drop(off);

    let mut on = set_up()?;
    on.start_recording();
    let first_op = on.next_op;
    let before = *on.engine.engine_stats();
    let begin = Instant::now();
    let timed = on.drive(frames, 1, false)?;
    let on_s = begin.elapsed().as_secs_f64();
    let after = *on.engine.engine_stats();
    let spans = on.spans.take().unwrap_or_default();

    let mut layers = Layers {
        bytes_per_op: timed.wire_bytes as f64 / ops,
        overhead_frac: 1.0 - off_s / on_s,
        ..Layers::default()
    };

    // Self time: a span minus the part its children cover. Only
    // `core.exec` has children (the persist hook).
    let mut children_ns = vec![0u64; kinds.len()];
    let (mut decode_ns, mut encode_ns) = (0u64, 0u64);
    let (mut append_ns, mut appends) = (0u64, 0u64);
    for s in &spans {
        let op = (s.op - first_op) as usize;
        match s.name {
            DECODE => decode_ns += s.ns(),
            ENCODE => encode_ns += s.ns(),
            APPEND => {
                append_ns += s.ns();
                appends += 1;
                children_ns[op] += s.ns();
            }
            SNAPSHOT => children_ns[op] += s.ns(),
            _ => {}
        }
    }
    let mut exec_ns = [0u64; 4];
    for s in spans.iter().filter(|s| s.name == EXEC) {
        let op = (s.op - first_op) as usize;
        exec_ns[kinds[op] as usize] += s.ns() - children_ns[op];
    }
    let count = |kind: Kind| kinds.iter().filter(|k| **k == kind).count() as f64;
    layers.decode_us_per_op = decode_ns as f64 / 1e3 / ops;
    layers.encode_us_per_op = encode_ns as f64 / 1e3 / ops;
    for kind in Kind::ALL {
        layers.exec_us_per_kind[kind as usize] =
            ratio(exec_ns[kind as usize] as f64 / 1e3, count(kind));
    }

    let reads = (after.scans - before.scans) as f64;
    layers.updates_per_post = ratio(
        (after.eager_updates - before.eager_updates) as f64,
        count(Kind::Post),
    );
    layers.hit_rate = 1.0
        - ratio(
            (after.ranges_materialized - before.ranges_materialized) as f64,
            reads,
        );
    layers.js_evictions = after.js_evictions - before.js_evictions;
    layers.join_execs = after.join_execs - before.join_execs;
    layers.join_outputs_per_exec = ratio(
        (after.exec_outputs - before.exec_outputs) as f64,
        layers.join_execs as f64,
    );

    if let (Some((log, wal_before)), Some(dir)) = (&on.persist, &data_dir) {
        let log = log.lock().expect("single-threaded replay");
        layers.persist_append_us_per_record = ratio(append_ns as f64 / 1e3, appends as f64);
        layers.persist_snapshots = log.snapshots;
        // Bytes written while the timed stream ran (log records, plus
        // every snapshot's rewrite of all base data) per byte of base
        // data the stream itself wrote.
        let written = log.wal_bytes + dir_bytes(dir, "log") - wal_before + log.snapshot_bytes;
        layers.persist_bytes_per_user_byte = ratio(written as f64, log.user_bytes as f64);
    }

    let users = oracle_users(&workload.model, seed);
    layers.checked_timelines = users.len() as u64;
    layers.wrong_timelines =
        wrong_timelines(std::slice::from_mut(&mut on), &workload.model, &users)?;
    drop(on);
    if let Some(dir) = &data_dir {
        std::fs::remove_dir_all(dir)?;
    }

    (layers.store_put_us_per_key, layers.store_scan_us_per_entry) =
        price_store(&workload.model, seed);
    layers.spans = spans;
    Ok(layers)
}

fn ratio(total: f64, count: f64) -> f64 {
    if count == 0.0 {
        0.0
    } else {
        total / count
    }
}

/// The timelines of a thousand seeded users, put into a bare `Store`
/// key by key in seeded order and scanned back one timeline at a time:
/// `(µs per put, µs per scanned entry)`.
fn price_store(model: &Model, seed: u64) -> (f64, f64) {
    let users = sample(model.users() as usize, 1000, seed ^ 0x5702e);
    let pairs: Vec<(Key, Value)> = users
        .iter()
        .flat_map(|&u| model.timeline(u as u32))
        .collect();
    if pairs.is_empty() {
        return (0.0, 0.0);
    }
    let mut store = Store::new(store_config());
    let order = sample(pairs.len(), pairs.len(), seed ^ 0x5702e);
    let begin = Instant::now();
    for &i in &order {
        let (key, value) = &pairs[i];
        store.put(key.clone(), value.clone(), false);
    }
    let put_us = begin.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64;

    let mut entries = 0usize;
    let begin = Instant::now();
    for &u in &users {
        store.scan(&timeline_range(u as u32, 0), |key, value| {
            std::hint::black_box((key, value));
            entries += 1;
            true
        });
    }
    let scan_us = begin.elapsed().as_secs_f64() * 1e6 / entries.max(1) as f64;
    (put_us, scan_us)
}

/// Writes one span per line: `{op_id, span_id, parent, name, start_ns,
/// end_ns}`.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"op_id\":{},\"span_id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    /// A scratch directory beside the test binary, inside the target dir.
    fn scratch(name: &str) -> PathBuf {
        let exe = std::env::current_exe().expect("test binary path");
        let dir = exe
            .parent()
            .expect("binary has a directory")
            .join(format!("pqbench-test-{name}"));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        dir
    }

    /// A twentieth of the graph and 1/200 of the ops; the cap shrinks
    /// with the graph so the cold workload still evicts.
    fn small(spec: &Spec) -> (Spec, Workload) {
        let spec = Spec {
            users: spec.users / 20,
            initial_posts: spec.initial_posts / 20,
            mem_limit_mb: spec.mem_limit_mb.map(|_| 1),
            ..*spec
        };
        let workload = Workload::generate(&spec, 1, spec.ops_per_second * 10 / 200, 1);
        (spec, workload)
    }

    #[test]
    fn every_workload_passes_the_oracle_in_process() {
        for spec in &SPECS {
            let (small_spec, workload) = small(spec);
            let layers = replay(&small_spec, &workload, 1, &scratch(spec.name)).unwrap();
            assert_eq!(layers.wrong_timelines, 0, "{}", spec.name);
            assert!(layers.checked_timelines > 0);
            assert!(
                layers.exec_us_per_kind.iter().all(|us| *us > 0.0),
                "{}",
                spec.name
            );
            // Under the cap, warmed timelines were evicted and are recomputed.
            assert_eq!(
                layers.hit_rate < 1.0,
                spec.mem_limit_mb.is_some(),
                "{}",
                spec.name
            );
            assert_eq!(
                layers.persist_append_us_per_record > 0.0,
                spec.durable,
                "{}",
                spec.name
            );
            assert_eq!(
                layers.persist_bytes_per_user_byte >= 1.0,
                spec.durable,
                "{}",
                spec.name
            );
            // Four spans per op, plus the persist hook's.
            let ops = workload.timed[0].len();
            assert!(layers.spans.len() >= 4 * ops);
            assert!(layers.spans.iter().all(|s| s.end_ns >= s.start_ns));
        }
    }

    #[test]
    fn the_oracle_catches_a_server_that_differs_from_the_model() {
        let (spec, workload) = small(&SPECS[0]);
        let mut link = InProcess::new(&spec, None).unwrap();
        for stage in &workload.setup {
            link.drive(&stage[0], 1, false).unwrap();
        }
        let users = oracle_users(&workload.model, 1);
        // The timed stream was never sent: its posts are missing.
        let wrong =
            wrong_timelines(std::slice::from_mut(&mut link), &workload.model, &users).unwrap();
        assert!(wrong > 0);
        link.drive(&workload.timed[0], 1, false).unwrap();
        let wrong =
            wrong_timelines(std::slice::from_mut(&mut link), &workload.model, &users).unwrap();
        assert_eq!(wrong, 0);
    }

    #[test]
    fn counts_repeat_with_the_seed_and_change_with_it() {
        let counts = |seed: u64| {
            let (spec, _) = small(&SPECS[2]);
            let workload = Workload::generate(&spec, seed, 500, 1);
            let l = replay(&spec, &workload, seed, &scratch("counts")).unwrap();
            (
                l.js_evictions,
                l.join_execs,
                l.updates_per_post.to_bits(),
                l.hit_rate.to_bits(),
                l.bytes_per_op.to_bits(),
            )
        };
        assert_eq!(counts(4), counts(4));
        assert_ne!(counts(4), counts(5));
    }
}
