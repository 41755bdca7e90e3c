//! Thread census of a durable server: the background fold runs on
//! exactly one `pequod-fold` thread per persister, beside the reactor
//! and the ticker, and graceful shutdown joins it. (One test in this
//! binary, so no other test's folder is counted.)

use pequod::core::Engine;
use pequod::net::{FrontendConfig, FrontendServer, TcpClient};
use pequod::persist::{attach, recover, FsyncPolicy, PersistOptions};

fn fold_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "pequod-fold")
        .count()
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
    let mut server =
        FrontendServer::spawn("127.0.0.1:0", engine, FrontendConfig::default()).unwrap();
    assert_eq!(fold_threads(), 1);
    // Seals every 16 records fold on that one thread.
    let mut client = TcpClient::connect(server.addr()).unwrap();
    for i in 0..100 {
        client.put(format!("p|u{:02}|{i:010}", i % 7), "v").unwrap();
    }
    assert_eq!(fold_threads(), 1);
    server.shutdown_finalize();
    assert_eq!(fold_threads(), 0, "a folder outlived shutdown");
    let rec = recover(&dir).unwrap();
    assert_eq!((rec.pairs.len(), rec.ops.len()), (100, 0));
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
