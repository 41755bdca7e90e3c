//! Thread census of a durable server: the background fold runs on
//! exactly one `pequod-fold` thread per persister, beside the reactor
//! and the ticker, and graceful shutdown joins it. (One test in this
//! binary, so no other test's folder is counted.)

use pequod::cluster::{ClusterClient, ClusterConfig, ClusterServer};
use pequod::core::Engine;
use pequod::persist::{attach, recover, FsyncPolicy, PersistOptions};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The `/proc/self/task` entries of this process's folder threads.
fn fold_tasks() -> Vec<PathBuf> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| {
            let task = task.ok()?.path();
            let comm = std::fs::read_to_string(task.join("comm")).ok()?;
            (comm.trim_end() == "pequod-fold").then_some(task)
        })
        .collect()
}

fn fold_threads() -> usize {
    fold_tasks().len()
}

/// How many folder threads there are once `want` of them are listed, or
/// after ten seconds. A thread names itself as it starts, so one just
/// spawned can be listed under its parent's name for a moment.
fn fold_threads_settled(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let n = fold_threads();
        if n == want || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Waits until the threads behind `tasks`, which their owner has
/// joined, have left `/proc/self/task`. A joined thread can still be
/// listed for a moment: `join` returns when the kernel clears the
/// exiting thread's id, before it removes the thread's task entry. A
/// thread nobody joined stays listed and fails the wait with `what`.
fn wait_reaped(tasks: &[PathBuf], what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while tasks.iter().any(|task| task.exists()) {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_durable_server_runs_one_folder_and_none_after_shutdown() {
    let dir = std::env::temp_dir().join(format!("pequod-fold-census-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = PersistOptions {
        fsync: FsyncPolicy::Never,
        snapshot_every: Some(16),
    };
    let mut engine = Engine::new_default();
    attach(&mut engine, &dir, opts).unwrap();
    let addr = Some("127.0.0.1:0");
    let mut server = ClusterServer::spawn(ClusterConfig::new(1, 1), 0, engine, addr).unwrap();
    assert_eq!(fold_threads_settled(1), 1);
    // Seals every 16 records fold on that one thread.
    let mut client = ClusterClient::connect(ClusterConfig::one_node(server.addr()));
    for i in 0..100 {
        client.put(format!("p|u{:02}|{i:010}", i % 7), "v").unwrap();
    }
    let folders = fold_tasks();
    assert_eq!(folders.len(), 1);
    server.halt();
    wait_reaped(&folders, "a folder outlived shutdown");
    assert_eq!(fold_threads(), 0, "a folder outlived shutdown");
    let rec = recover(&dir).unwrap();
    assert_eq!((rec.pairs.len(), rec.ops.len()), (100, 0));
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
