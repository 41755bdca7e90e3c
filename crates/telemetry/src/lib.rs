//! Runtime telemetry for the Pequod reproduction.
//!
//! A [`Recorder`] is a cheap-clone handle over an optional shared
//! metrics block. When built with [`Recorder::disabled`] every method
//! is a true no-op — no atomic traffic, no clock reads — so serving
//! code can thread recorders unconditionally and pay nothing unless
//! telemetry was switched on. When enabled, hot-path recording is a
//! handful of relaxed atomic adds (see [`Histogram`]).
//!
//! The recorder carries a fixed schema covering every layer of the
//! system: per-op counts and latency histograms, join-notify fan-out,
//! LRU hits/misses/evictions, per-range read/write rate counters (fuel
//! for future adaptive freshness policies), WAL append/fsync latency,
//! snapshot bytes, reactor dispatch latency, queue depths and longest
//! loop turn — plus a
//! [`Flight`] ring of recent notable events. [`Recorder::snapshot`]
//! freezes it all into a [`Snapshot`].
//!
//! This is the only serving crate allowed to call `Instant::now`: its
//! own clippy.toml disallows `SystemTime` alone, so it may read the
//! monotonic clock where no other serving crate may, keeping the serving
//! state machines deterministic while latency measurement stays real.
//! `SystemTime` remains banned even here — telemetry never needs
//! calendar time.

#![forbid(unsafe_code)]
// The serving-path rules, on non-test code (docs/CORRECTNESS.md): no
// unwrap, expect, panic! or todo!, and nothing clippy.toml disallows.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

mod flight;
mod histogram;
mod http;
mod snapshot;

pub use flight::{Flight, FlightEvent};
pub use histogram::{Counter, Histogram, HistogramSnapshot, BUCKETS};
pub use http::MetricsServer;
pub use snapshot::{escape_label_value, metric, sanitize_name, Entry, Snapshot, Value};

/// Produces a snapshot on demand; the argument asks for the flight
/// ring to be included. Shared by the HTTP scrape endpoint and the
/// `Message::Metrics` wire handlers.
pub type SnapshotFn = Arc<dyn Fn(bool) -> Snapshot + Send + Sync>;

/// Operation classes instrumented on the engine hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Range read (`Scan` / `Get`).
    Scan,
    /// Aggregate read (`Count`).
    Count,
    /// Point write.
    Put,
    /// Point delete.
    Remove,
    /// Join registration.
    AddJoin,
}

const OP_KINDS: usize = 5;

impl OpKind {
    /// Stable label value for this op class.
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Scan => "scan",
            OpKind::Count => "count",
            OpKind::Put => "put",
            OpKind::Remove => "remove",
            OpKind::AddJoin => "add_join",
        }
    }

    fn index(self) -> usize {
        match self {
            OpKind::Scan => 0,
            OpKind::Count => 1,
            OpKind::Put => 2,
            OpKind::Remove => 3,
            OpKind::AddJoin => 4,
        }
    }
}

/// A started latency measurement. Disabled timers (from a disabled
/// recorder) never read the clock; observing them is a no-op.
#[derive(Clone, Copy, Debug)]
pub struct Timer(Option<Instant>);

impl Timer {
    /// Starts a live timer unconditionally. Use [`Recorder::timer`]
    /// instead when a recorder is in scope so the disabled path stays
    /// clock-free; this constructor exists for measurement harnesses
    /// (e.g. the bench swarm) that always want a reading.
    pub fn start() -> Timer {
        Timer(Some(Instant::now()))
    }

    /// A timer that observes as `None`.
    pub fn disabled() -> Timer {
        Timer(None)
    }

    /// Elapsed microseconds, saturated to `u64`; `None` if disabled.
    pub fn elapsed_micros(&self) -> Option<u64> {
        self.0
            .map(|t| u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX))
    }
}

/// Number of per-range rate slots. Slot 0 is the shared overflow
/// bucket (`other`) once the table fills; a fixed table keeps the hot
/// path allocation- and lock-free after registration.
const RATE_SLOTS: usize = 64;

/// Default slow-op threshold for flight-recorder capture.
const DEFAULT_SLOW_OP_MICROS: u64 = 10_000;

/// Default flight ring capacity.
const DEFAULT_FLIGHT_CAP: usize = 256;

#[derive(Debug, Default)]
struct RateSlot {
    reads: Counter,
    writes: Counter,
}

/// A registered per-range rate estimator: two relaxed counter bumps,
/// no lookup, no lock. Obtained from [`Recorder::rate_handle`].
#[derive(Clone, Debug)]
pub struct RateHandle(Option<(Arc<Inner>, usize)>);

impl RateHandle {
    /// Records one read against this range.
    #[inline]
    pub fn read(&self) {
        if let Some((inner, slot)) = &self.0 {
            inner.rate_slots[*slot].reads.inc();
        }
    }

    /// Records one write against this range.
    #[inline]
    pub fn write(&self) {
        if let Some((inner, slot)) = &self.0 {
            inner.rate_slots[*slot].writes.inc();
        }
    }
}

#[derive(Debug)]
struct Inner {
    start: Instant,
    slow_op_micros: u64,
    ops: [Histogram; OP_KINDS],
    fanout: Histogram,
    lru_hits: Counter,
    lru_misses: Counter,
    evict_js: Counter,
    evict_base: Counter,
    rate_slots: Vec<RateSlot>,
    /// `(name, slot)` registrations, guarded; read only at
    /// registration and snapshot time.
    rate_names: Mutex<Vec<(String, usize)>>,
    rate_next: AtomicU64,
    wal_append: Histogram,
    wal_fsync: Histogram,
    wal_records: Counter,
    snapshot_bytes: Counter,
    snapshots: Counter,
    dispatch: Histogram,
    queue_depth: Histogram,
    /// Longest reactor loop turn since the last snapshot, µs.
    turn_us_max: AtomicU64,
    /// The engine's levels as of its last operation, in the order of
    /// [`ENGINE_LEVELS`].
    engine_levels: [AtomicU64; ENGINE_LEVELS.len()],
    flight: Flight,
}

/// Gauge names of the levels an engine publishes after each operation
/// ([`Recorder::set_engine_levels`]): its memory estimate — what a
/// memory limit is compared with — and the counts behind it, and how
/// many updater fires so far maintained nothing.
pub const ENGINE_LEVELS: [&str; 6] = [
    "core.memory.estimate_bytes",
    "core.updater.entries",
    "core.updater.nodes",
    "core.status.ranges",
    "store.keys",
    "core.updater.spurious_fires",
];

/// The process's resident set in bytes, from the `VmRSS:` line of
/// `/proc/self/status` (which the kernel gives in kB, whatever its page
/// size); 0 where that file is not to be had. Beside
/// `core.memory.estimate_bytes` it says what a byte of the estimate
/// costs in memory.
pub fn process_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok());
    kb.unwrap_or(0) * 1024
}

/// Handle to a shared telemetry block; see the crate docs.
#[derive(Clone, Debug, Default)]
pub struct Recorder(Option<Arc<Inner>>);

impl Recorder {
    /// An enabled recorder with default thresholds.
    pub fn enabled() -> Recorder {
        Recorder::with_options(DEFAULT_SLOW_OP_MICROS, DEFAULT_FLIGHT_CAP)
    }

    /// An enabled recorder with an explicit slow-op threshold (µs) and
    /// flight-ring capacity.
    pub fn with_options(slow_op_micros: u64, flight_cap: usize) -> Recorder {
        Recorder(Some(Arc::new(Inner {
            start: Instant::now(),
            slow_op_micros,
            ops: std::array::from_fn(|_| Histogram::new()),
            fanout: Histogram::new(),
            lru_hits: Counter::new(),
            lru_misses: Counter::new(),
            evict_js: Counter::new(),
            evict_base: Counter::new(),
            rate_slots: (0..RATE_SLOTS).map(|_| RateSlot::default()).collect(),
            rate_names: Mutex::new(Vec::new()),
            rate_next: AtomicU64::new(1),
            wal_append: Histogram::new(),
            wal_fsync: Histogram::new(),
            wal_records: Counter::new(),
            snapshot_bytes: Counter::new(),
            snapshots: Counter::new(),
            dispatch: Histogram::new(),
            queue_depth: Histogram::new(),
            turn_us_max: AtomicU64::new(0),
            engine_levels: std::array::from_fn(|_| AtomicU64::new(0)),
            flight: Flight::new(flight_cap),
        })))
    }

    /// A recorder whose every method is a no-op.
    pub fn disabled() -> Recorder {
        Recorder(None)
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Starts a latency timer; disabled recorders return a timer that
    /// never read the clock.
    #[inline]
    pub fn timer(&self) -> Timer {
        if self.0.is_some() {
            Timer::start()
        } else {
            Timer::disabled()
        }
    }

    /// Microseconds since the recorder was created (0 when disabled).
    pub fn uptime_micros(&self) -> u64 {
        match &self.0 {
            Some(i) => u64::try_from(i.start.elapsed().as_micros()).unwrap_or(u64::MAX),
            None => 0,
        }
    }

    /// Records one completed operation. A sample over the slow-op
    /// threshold is also captured in the flight ring.
    #[inline]
    pub fn observe_op(&self, kind: OpKind, timer: &Timer) {
        let Some(inner) = &self.0 else { return };
        let Some(micros) = timer.elapsed_micros() else {
            return;
        };
        inner.ops[kind.index()].observe(micros);
        if micros >= inner.slow_op_micros {
            inner.flight.push(
                self.uptime_micros(),
                "slow_op",
                format!("{} took {micros}us", kind.as_str()),
            );
        }
    }

    /// Records the fan-out width of one join-notify dispatch (the
    /// number of updater entries a single write touched).
    #[inline]
    pub fn observe_fanout(&self, width: u64) {
        if let Some(inner) = &self.0 {
            inner.fanout.observe(width);
        }
    }

    /// One LRU validation that found the range already materialized.
    #[inline]
    pub fn lru_hit(&self) {
        if let Some(inner) = &self.0 {
            inner.lru_hits.inc();
        }
    }

    /// One LRU validation that had to materialize a gap.
    #[inline]
    pub fn lru_miss(&self) {
        if let Some(inner) = &self.0 {
            inner.lru_misses.inc();
        }
    }

    /// One join-state range evicted; captured in the flight ring.
    /// The detail closure only runs when enabled.
    pub fn evicted_js(&self, detail: impl FnOnce() -> String) {
        if let Some(inner) = &self.0 {
            inner.evict_js.inc();
            inner
                .flight
                .push(self.uptime_micros(), "evict_js", detail());
        }
    }

    /// One base range evicted; captured in the flight ring.
    pub fn evicted_base(&self, detail: impl FnOnce() -> String) {
        if let Some(inner) = &self.0 {
            inner.evict_base.inc();
            inner
                .flight
                .push(self.uptime_micros(), "evict_base", detail());
        }
    }

    /// Pushes an arbitrary flight event (failovers, backpressure
    /// trips…). The detail closure only runs when enabled.
    pub fn flight(&self, kind: &'static str, detail: impl FnOnce() -> String) {
        if let Some(inner) = &self.0 {
            inner.flight.push(self.uptime_micros(), kind, detail());
        }
    }

    /// Registers (or looks up) a named per-range rate estimator.
    /// After the fixed table fills, further names share the overflow
    /// slot (`other`). Callers should cache the returned handle; this
    /// call takes a mutex.
    pub fn rate_handle(&self, name: &str) -> RateHandle {
        let Some(inner) = &self.0 else {
            return RateHandle(None);
        };
        let mut names = match inner.rate_names.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if let Some((_, slot)) = names.iter().find(|(n, _)| n == name) {
            return RateHandle(Some((Arc::clone(inner), *slot)));
        }
        let next = inner.rate_next.load(Ordering::Relaxed) as usize;
        let slot = if next < RATE_SLOTS {
            inner.rate_next.store(next as u64 + 1, Ordering::Relaxed);
            names.push((name.to_string(), next));
            next
        } else {
            // Table full: everyone else shares the overflow slot.
            if !names.iter().any(|(n, _)| n == "other") {
                names.push(("other".to_string(), 0));
            }
            0
        };
        RateHandle(Some((Arc::clone(inner), slot)))
    }

    /// Records one WAL append's latency.
    #[inline]
    pub fn wal_append(&self, timer: &Timer) {
        let Some(inner) = &self.0 else { return };
        if let Some(micros) = timer.elapsed_micros() {
            inner.wal_append.observe(micros);
            inner.wal_records.inc();
        }
    }

    /// Records one WAL fsync's latency.
    #[inline]
    pub fn wal_fsync(&self, timer: &Timer) {
        let Some(inner) = &self.0 else { return };
        if let Some(micros) = timer.elapsed_micros() {
            inner.wal_fsync.observe(micros);
        }
    }

    /// Records one snapshot compaction of `bytes` written; captured in
    /// the flight ring.
    pub fn snapshot_taken(&self, bytes: u64) {
        if let Some(inner) = &self.0 {
            inner.snapshots.inc();
            inner.snapshot_bytes.add(bytes);
            inner
                .flight
                .push(self.uptime_micros(), "snapshot", format!("{bytes} bytes"));
        }
    }

    /// Records one reactor dispatch's queue-to-reply latency.
    #[inline]
    pub fn observe_dispatch(&self, timer: &Timer) {
        let Some(inner) = &self.0 else { return };
        if let Some(micros) = timer.elapsed_micros() {
            inner.dispatch.observe(micros);
        }
    }

    /// Records a connection's pending-queue depth at dispatch time.
    #[inline]
    pub fn observe_queue_depth(&self, depth: u64) {
        if let Some(inner) = &self.0 {
            inner.queue_depth.observe(depth);
        }
    }

    /// Records one turn of the reactor's loop: from the moment a wait
    /// for readiness returned until the loop was ready to wait again,
    /// which is how long no socket was read. Only the longest since the
    /// last snapshot is kept.
    #[inline]
    pub fn observe_turn(&self, timer: &Timer) {
        let Some(inner) = &self.0 else { return };
        if let Some(micros) = timer.elapsed_micros() {
            inner.turn_us_max.fetch_max(micros, Ordering::Relaxed);
        }
    }

    /// Publishes the engine's levels, in the order of [`ENGINE_LEVELS`];
    /// each snapshot reports the last ones published.
    #[inline]
    pub fn set_engine_levels(&self, levels: [u64; ENGINE_LEVELS.len()]) {
        let Some(inner) = &self.0 else { return };
        for (held, level) in inner.engine_levels.iter().zip(levels) {
            held.store(level, Ordering::Relaxed);
        }
    }

    /// Freezes the full metric schema into a [`Snapshot`]. Disabled
    /// recorders return an empty snapshot. The flight ring is included
    /// only when `include_flight` is set (dumps can be large). Taking a
    /// snapshot starts `net.reactor.turn_us_max` over: each one reports
    /// the longest turn since the one before.
    pub fn snapshot(&self, include_flight: bool) -> Snapshot {
        let mut s = Snapshot::default();
        let Some(inner) = &self.0 else { return s };
        s.gauge("pequod_uptime_us", &[], self.uptime_micros());
        for kind in [
            OpKind::Scan,
            OpKind::Count,
            OpKind::Put,
            OpKind::Remove,
            OpKind::AddJoin,
        ] {
            let h = inner.ops[kind.index()].snapshot();
            let labels = [("op", kind.as_str())];
            s.counter("pequod_op_total", &labels, h.count);
            s.histogram("pequod_op_latency_us", &labels, h);
        }
        s.histogram("pequod_join_fanout", &[], inner.fanout.snapshot());
        s.counter("pequod_lru_hits_total", &[], inner.lru_hits.get());
        s.counter("pequod_lru_misses_total", &[], inner.lru_misses.get());
        s.counter(
            "pequod_evictions_total",
            &[("kind", "js")],
            inner.evict_js.get(),
        );
        s.counter(
            "pequod_evictions_total",
            &[("kind", "base")],
            inner.evict_base.get(),
        );
        {
            let names = match inner.rate_names.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            for (name, slot) in names.iter() {
                let labels = [("range", name.as_str())];
                s.counter(
                    "pequod_range_reads_total",
                    &labels,
                    inner.rate_slots[*slot].reads.get(),
                );
                s.counter(
                    "pequod_range_writes_total",
                    &labels,
                    inner.rate_slots[*slot].writes.get(),
                );
            }
        }
        s.histogram("pequod_wal_append_us", &[], inner.wal_append.snapshot());
        s.histogram("pequod_wal_fsync_us", &[], inner.wal_fsync.snapshot());
        s.counter("pequod_wal_records_total", &[], inner.wal_records.get());
        s.counter(
            "pequod_snapshot_bytes_total",
            &[],
            inner.snapshot_bytes.get(),
        );
        s.counter("pequod_snapshots_total", &[], inner.snapshots.get());
        s.histogram("pequod_dispatch_us", &[], inner.dispatch.snapshot());
        s.histogram("pequod_queue_depth", &[], inner.queue_depth.snapshot());
        let longest_turn = inner.turn_us_max.swap(0, Ordering::Relaxed);
        s.gauge("net.reactor.turn_us_max", &[], longest_turn);
        for (name, level) in ENGINE_LEVELS.iter().zip(&inner.engine_levels) {
            s.gauge(name, &[], level.load(Ordering::Relaxed));
        }
        s.counter("pequod_flight_events_total", &[], inner.flight.total());
        if include_flight {
            s.flight = inner.flight.dump();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        let t = r.timer();
        assert!(t.elapsed_micros().is_none());
        r.observe_op(OpKind::Scan, &t);
        r.lru_hit();
        r.observe_fanout(10);
        r.evicted_js(|| panic!("detail closure must not run when disabled"));
        r.flight("x", || panic!("must not run"));
        let handle = r.rate_handle("t|");
        handle.read();
        let s = r.snapshot(true);
        assert!(s.entries.is_empty());
        assert!(s.flight.is_empty());
    }

    #[test]
    fn enabled_recorder_counts_ops() {
        let r = Recorder::enabled();
        let t = r.timer();
        r.observe_op(OpKind::Put, &t);
        r.lru_hit();
        r.lru_miss();
        r.observe_fanout(3);
        let s = r.snapshot(false);
        let put_total = s
            .entries
            .iter()
            .find(|e| e.name == "pequod_op_total" && e.labels.iter().any(|(_, v)| v == "put"));
        match put_total.map(|e| &e.value) {
            Some(Value::Counter(v)) => assert_eq!(*v, 1),
            v => panic!("missing put counter: {v:?}"),
        }
    }

    fn gauge(s: &Snapshot, name: &str) -> Option<u64> {
        s.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| match &e.value {
                Value::Gauge(v) => *v,
                other => panic!("{name} is not a gauge: {other:?}"),
            })
    }

    #[test]
    fn longest_turn_is_kept_until_a_snapshot_reads_it() {
        let r = Recorder::enabled();
        let long = r.timer();
        std::thread::sleep(std::time::Duration::from_millis(3));
        r.observe_turn(&long);
        r.observe_turn(&r.timer()); // a shorter turn does not lower it
        let first = gauge(&r.snapshot(false), "net.reactor.turn_us_max");
        assert!(first.is_some_and(|us| us >= 3_000), "{first:?}");
        r.observe_turn(&r.timer());
        let second = gauge(&r.snapshot(false), "net.reactor.turn_us_max");
        assert!(second.is_some_and(|us| us < 3_000), "{second:?}");
        // Off means no clock read and nothing recorded.
        let off = Recorder::disabled();
        off.observe_turn(&off.timer());
        assert!(off.snapshot(false).entries.is_empty());
    }

    #[test]
    fn slow_ops_land_in_flight_ring() {
        let r = Recorder::with_options(0, 8); // everything is "slow"
        let t = r.timer();
        r.observe_op(OpKind::Scan, &t);
        let s = r.snapshot(true);
        assert_eq!(s.flight.len(), 1);
        assert_eq!(s.flight[0].kind, "slow_op");
    }

    #[test]
    fn rate_table_registers_and_overflows() {
        let r = Recorder::enabled();
        let a = r.rate_handle("t|");
        let a2 = r.rate_handle("t|");
        a.read();
        a2.read();
        a.write();
        // Fill the table past capacity; extras share the overflow slot.
        for i in 0..100 {
            r.rate_handle(&format!("spill{i}|")).write();
        }
        let s = r.snapshot(false);
        let reads = s
            .entries
            .iter()
            .find(|e| {
                e.name == "pequod_range_reads_total" && e.labels.iter().any(|(_, v)| v == "t|")
            })
            .map(|e| match &e.value {
                Value::Counter(v) => *v,
                _ => 0,
            });
        assert_eq!(reads, Some(2));
        assert!(s
            .entries
            .iter()
            .any(|e| e.labels.iter().any(|(_, v)| v == "other")));
    }
}
