//! `pequod-server` — a standalone Pequod cache server over TCP.
//!
//! ```text
//! pequod-server [--listen ADDR] [--join 'SPEC'] [--joins-file PATH]
//!               [--subtable PREFIX:DEPTH] [--mem-limit-mb N]
//!               [--data-dir DIR] [--snapshot-every N]
//!               [--fsync never|always|every:N] [--paranoid]
//!               [--unix-socket PATH] [--metrics-addr HOST:PORT]
//!               [--cluster nodes.toml --node-id N]
//! ```
//!
//! Speaks the length-prefixed binary protocol of `pequod-net`; use
//! `pequod::cluster::ClusterClient` (see the `tcp_demo` example) as a
//! client — of a stand-alone server, over
//! `ClusterConfig::one_node(addr)`.
//!
//! Every server is a cluster node (without `--cluster`, of a one-node
//! cluster). Clients are served by one event-driven epoll thread with
//! pipelining, bounded write buffers, and slow-client timeouts (see
//! `docs/NETWORKING.md`); the node's engine executes requests on that
//! same thread. Keys starting with `#` are reserved.
//! `--unix-socket PATH` additionally serves the same protocol on a
//! unix-domain socket.
//!
//! `--mem-limit-mb N` serves memory-bounded (§2.5): the node evicts
//! least-recently-used computed ranges (and cached replicas) to keep
//! its estimated footprint under N MiB, transparently recomputing
//! evicted data on the next read. See `docs/MEMORY.md`.
//!
//! `--data-dir DIR` serves **durably**: base writes are captured in a
//! checksummed write-ahead log under DIR, snapshots compact the log every
//! `--snapshot-every` records (default 65536), and a restart with the
//! same DIR recovers the base tables and re-derives computed ranges on
//! first read. `--fsync` picks the power-loss window (a plain process
//! kill never loses acknowledged writes); see `docs/PERSISTENCE.md`.
//! A DIR holding a `#` key other than replication metadata (stored
//! before `#` keys were reserved) is refused with exit status 2.
//!
//! `--paranoid` turns on deep invariant checking: after every engine
//! operation the node cross-checks its O(1) counters and index
//! structures against full recomputation and aborts on the first
//! disagreement (see `docs/CORRECTNESS.md`). Orders of magnitude
//! slower — a debugging and qualification mode, not a serving mode.
//!
//! `--cluster nodes.toml --node-id N` serves as one member of a
//! **replicated cluster**: base-table slots are kept on a primary plus
//! R−1 followers with streamed writes, epoch-based failover, and live
//! migration (see `docs/REPLICATION.md`). Combine with `--data-dir`
//! for per-node durability; `--listen` overrides this node's address
//! from the cluster file (useful for tests with ephemeral ports).
//! One of `--cluster` and `--node-id` without the other is an error.
//! This is also how a deployment uses more than one core: one process
//! per core, `replication = 1`, base tables partitioned across the
//! processes and joins across them kept fresh by §2.4 Subscribe/Notify.
//!
//! `--metrics-addr HOST:PORT` turns telemetry recording on and serves
//! a Prometheus text scrape at `http://HOST:PORT/metrics` (plus the
//! flight-recorder dump at `/flight`); see `docs/OBSERVABILITY.md`.
//! Without the flag the recorder stays disabled and every hot-path
//! hook is a no-op. The same snapshot is always available on the wire
//! as a `Metrics` frame — that is what `pequod-stats` polls.
//!
//! The server exits cleanly on SIGTERM: it stops accepting
//! connections, drains in-flight requests, takes a final durability
//! snapshot, and fsyncs before exiting — a rolling restart loses
//! nothing even under `--fsync never`.

// The wall-clock rule, on non-test code (docs/CORRECTNESS.md): nothing
// clippy.toml disallows.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use pequod::cluster::{foreign_reserved_key, ClusterConfig, ClusterServer};
use pequod::core::{Engine, EngineConfig, MemoryLimit};
use pequod::persist::{FsyncPolicy, PersistOptions};
use pequod::store::StoreConfig;
use pequod::telemetry::{MetricsServer, Recorder};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the SIGTERM handler; the main loop polls it and shuts down
/// gracefully (final WAL fsync + snapshot) when it flips.
static TERMINATED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    // Async-signal-safe: a relaxed store on a static atomic.
    TERMINATED.store(true, Ordering::Relaxed);
}

const SIGTERM: i32 = 15;

extern "C" {
    /// libc `signal(2)`. The only FFI in the tree: installing a
    /// process signal handler has no safe std equivalent.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// Parks the main thread until SIGTERM (or forever if the handler
/// cannot be installed and the process is killed instead).
fn wait_for_sigterm() {
    // SAFETY: `on_sigterm` is async-signal-safe (it only stores to a
    // static atomic) and `signal` is the libc prototype with matching
    // ABI; no Rust state is touched from the handler context.
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
    while !TERMINATED.load(Ordering::Relaxed) {
        std::thread::park_timeout(std::time::Duration::from_millis(100));
    }
    eprintln!("pequod-server: SIGTERM, draining and finalizing");
}

fn main() {
    let mut listen = "127.0.0.1:7634".to_string();
    let mut joins: Vec<String> = Vec::new();
    let mut store = StoreConfig::flat();
    let mut mem_limit: Option<MemoryLimit> = None;
    let mut data_dir: Option<PathBuf> = None;
    let mut persist_opts = PersistOptions::default();
    let mut paranoid = false;
    let mut cluster_file: Option<String> = None;
    let mut node_id: Option<u32> = None;
    let mut listen_set = false;
    let mut unix_socket: Option<PathBuf> = None;
    let mut metrics_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                listen = args.next().expect("--listen needs an address");
                listen_set = true;
            }
            "--join" => joins.push(args.next().expect("--join needs a spec")),
            "--joins-file" => {
                let path = args.next().expect("--joins-file needs a path");
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
                joins.push(text);
            }
            "--subtable" => {
                let spec = args.next().expect("--subtable needs PREFIX:DEPTH");
                let (prefix, depth) = spec
                    .rsplit_once(':')
                    .expect("--subtable format is PREFIX:DEPTH");
                let depth: usize = depth.parse().expect("subtable depth must be a number");
                store = store.with_subtable(prefix, depth);
            }
            "--mem-limit-mb" => {
                let mb: usize = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--mem-limit-mb needs a positive number of MiB");
                assert!(mb >= 1, "--mem-limit-mb needs a positive number of MiB");
                mem_limit = Some(MemoryLimit::mb(mb));
            }
            "--data-dir" => {
                data_dir = Some(PathBuf::from(
                    args.next().expect("--data-dir needs a directory"),
                ));
            }
            "--snapshot-every" => {
                let n: u64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--snapshot-every needs a positive record count");
                assert!(n >= 1, "--snapshot-every needs a positive record count");
                persist_opts.snapshot_every = Some(n);
            }
            "--fsync" => {
                let policy = args.next().expect("--fsync needs never|always|every:N");
                persist_opts.fsync = FsyncPolicy::parse(&policy)
                    .unwrap_or_else(|| panic!("bad --fsync {policy:?} (never|always|every:N)"));
            }
            "--paranoid" => paranoid = true,
            "--unix-socket" => {
                unix_socket = Some(PathBuf::from(
                    args.next().expect("--unix-socket needs a path"),
                ));
            }
            "--metrics-addr" => {
                metrics_addr = Some(args.next().expect("--metrics-addr needs HOST:PORT"));
            }
            "--cluster" => {
                cluster_file = Some(args.next().expect("--cluster needs a nodes.toml path"));
            }
            "--node-id" => {
                node_id = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--node-id needs a number"),
                );
            }
            "--help" | "-h" => {
                println!(
                    "pequod-server [--listen ADDR] [--join 'SPEC']... \
                     [--joins-file PATH] [--subtable PREFIX:DEPTH]... \
                     [--mem-limit-mb N] \
                     [--data-dir DIR] [--snapshot-every N] \
                     [--fsync never|always|every:N] [--paranoid] \
                     [--unix-socket PATH] [--metrics-addr HOST:PORT] \
                     [--cluster nodes.toml --node-id N]\n\
                     Without --cluster the server is a one-node cluster. \
                     Keys starting with '#' are reserved."
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    if node_id.is_some() != cluster_file.is_some() {
        eprintln!("--cluster and --node-id go together (try --help)");
        std::process::exit(2);
    }
    let mut config = EngineConfig::with_store(store);
    config.mem_limit = mem_limit;
    if paranoid {
        config.paranoid = true;
        eprintln!("paranoid: deep invariant checking after every operation (slow)");
    }
    if let Some(limit) = mem_limit {
        eprintln!("memory-bounded serving: cap {} MiB", limit.high_bytes >> 20);
    }
    if let Some(dir) = &data_dir {
        eprintln!(
            "durable serving: data dir {} (fsync {}, snapshot every {} records)",
            dir.display(),
            persist_opts.fsync,
            persist_opts
                .snapshot_every
                .map_or("never".to_string(), |n| n.to_string()),
        );
    }
    // A stand-alone server is node 0 of a one-node cluster at `listen`.
    let (id, cluster_cfg) = match (&cluster_file, node_id) {
        (Some(path), Some(id)) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read cluster file {path}: {e}"));
            let cluster_cfg = ClusterConfig::parse(&text)
                .unwrap_or_else(|e| panic!("bad cluster file {path}: {e}"));
            eprintln!(
                "replicated cluster node {id} of {} (replication {}, {} slots)",
                cluster_cfg.nodes.len(),
                cluster_cfg.replication,
                cluster_cfg.slots,
            );
            (id, cluster_cfg)
        }
        _ => (0, ClusterConfig::one_node(&listen)),
    };
    let mut engine = Engine::new(config);
    if metrics_addr.is_some() {
        // Before `attach` so the persister clones an enabled
        // recorder and WAL latency is captured from record one.
        engine.set_recorder(Recorder::enabled());
    }
    if let Some(dir) = &data_dir {
        let report = pequod::persist::attach(&mut engine, dir, persist_opts)
            .unwrap_or_else(|e| panic!("cannot recover {}: {e}", dir.display()));
        eprintln!(
            "recovered generation {}: {} joins, {} snapshot pairs + {} logged records \
             ({} torn bytes dropped)",
            report.generation,
            report.joins,
            report.snapshot_pairs,
            report.wal_records,
            report.bytes_dropped,
        );
        if let Some(corruption) = &report.corruption {
            eprintln!(
                "WARNING: log corruption (not a clean crash tail) — {corruption}; \
                 the damaged log was preserved as wal-*.log.corrupt for salvage"
            );
        }
        if let Some(key) = foreign_reserved_key(&engine) {
            eprintln!("{} holds {key}, but '#' keys are reserved", dir.display());
            std::process::exit(2);
        }
    }
    for text in &joins {
        match engine.add_joins_text(text) {
            Ok(_) => eprintln!("installed join(s) from one spec"),
            Err(e) => {
                eprintln!("bad join: {e}");
                std::process::exit(2);
            }
        }
    }
    let frontend_cfg = pequod::net::FrontendConfig {
        unix_path: unix_socket.clone(),
        ..Default::default()
    };
    // A cluster member listens where its cluster file says, unless told
    // otherwise; a stand-alone server's config already holds `listen`.
    let listen = (listen_set && cluster_file.is_some()).then_some(listen.as_str());
    let mut server = ClusterServer::spawn_with(cluster_cfg, id, engine, listen, frontend_cfg)
        .unwrap_or_else(|e| panic!("cannot serve node {id}: {e}"));
    let addr = server.addr();
    if let Some(p) = &unix_socket {
        eprintln!("also serving on unix socket {}", p.display());
    }
    let metrics = metrics_addr.as_deref().map(|addr| {
        let ms = MetricsServer::spawn(addr, server.telemetry())
            .unwrap_or_else(|e| panic!("cannot serve metrics on {addr}: {e}"));
        eprintln!("telemetry: scrape http://{}/metrics", ms.local_addr());
        ms
    });
    // Tests parse the address off this line: keep it the tail.
    eprintln!("pequod-server listening on {addr}");
    // Serve until SIGTERM, then stop the scrapes, so none meets a halted
    // node, and drain and finalize durability so a rolling restart
    // loses nothing.
    wait_for_sigterm();
    if let Some(ms) = metrics {
        ms.stop();
    }
    server.halt();
}
