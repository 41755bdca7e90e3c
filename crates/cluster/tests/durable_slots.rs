//! Slot authority against the background fold. A cluster node's engine
//! counts a row as durable only while the node holds the row's slot,
//! while the WAL — and every snapshot folded from it — holds whatever
//! was logged. The two agree because a node stores a slot's rows only
//! while it holds the slot: handing a slot over deletes them through
//! the log, and a restart deletes any it recovered for a slot it no
//! longer holds.

use pequod_cluster::{ClusterClient, ClusterConfig, ClusterNode, SimHarness};
use pequod_core::{Durability, DurableOp, Engine};
use pequod_net::Message;
use pequod_persist::{read_snapshot, DataDir, FsyncPolicy, PersistOptions, Persister};
use pequod_store::{Key, Value};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The engine's sink, with the persister still reachable by the test.
struct Shared(Arc<Mutex<Persister>>);

impl Durability for Shared {
    fn log(&mut self, op: &DurableOp) -> bool {
        self.0.lock().unwrap().log(op)
    }
    fn snapshot(&mut self, joins: &[String], pairs: &[(Key, Value)]) {
        self.0.lock().unwrap().snapshot(joins, pairs);
    }
    fn sync(&mut self) {
        self.0.lock().unwrap().sync();
    }
}

fn root(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "pequod-durable-slots-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A fresh durable engine sealing every 5 records.
fn durable(dir: &Path) -> (Engine, Arc<Mutex<Persister>>) {
    let opts = PersistOptions {
        fsync: FsyncPolicy::Never,
        snapshot_every: Some(5),
    };
    let persister = Arc::new(Mutex::new(Persister::create(dir, opts).unwrap()));
    let mut engine = Engine::new_default();
    engine.set_durability(Box::new(Shared(Arc::clone(&persister))));
    (engine, persister)
}

/// Seals the live segment, waits for the fold, and requires the newest
/// snapshot to be exactly what the node's engine calls durable.
fn assert_fold_matches_scan(node: &mut ClusterNode, persister: &Mutex<Persister>, dir: &Path) {
    {
        let mut p = persister.lock().unwrap();
        p.seal();
        p.wait_idle();
        assert_eq!(p.stats().fold_failures, 0);
    }
    let dir = DataDir::open(dir).unwrap();
    let newest = dir
        .generations()
        .unwrap()
        .into_iter()
        .rev()
        .find(|&g| dir.snap_path(g).exists())
        .unwrap();
    let snap = read_snapshot(&dir.snap_path(newest)).unwrap();
    let (joins, pairs) = node.engine.durable_state();
    assert_eq!(snap.joins, joins);
    assert_eq!(
        snap.pairs,
        pairs,
        "node {}: the fold kept rows the scan does not count as durable",
        node.node_id()
    );
}

#[test]
fn a_migration_folds_to_what_each_node_scans() {
    let root = root("migration");
    let cfg = ClusterConfig::new(4, 2);
    let dirs: Vec<PathBuf> = (0..4).map(|n| root.join(format!("n{n}"))).collect();
    let (engines, persisters): (Vec<Engine>, Vec<_>) = dirs.iter().map(|d| durable(d)).unzip();
    let mut sim = SimHarness::with_engines(&cfg, engines, 77, 1);
    sim.run_for(100);
    let mut client = ClusterClient::simulated(sim);
    for i in 0..40 {
        client
            .put(format!("p|u{i:02}|post"), format!("r{i}"))
            .expect("put");
    }
    let sim = client.sim_mut().expect("simulated");
    sim.run_for(200);
    // Move slot 0's follower to the node outside its set: the learner
    // takes authority, the source hands it back.
    let slot = 0u32;
    let replicas = cfg.initial_replicas(slot);
    let (primary, follower) = (replicas[0], replicas[1]);
    let spare = (0..4).find(|n| !replicas.contains(n)).unwrap();
    let id = sim.client_send(
        9,
        primary,
        Message::Migrate {
            id: 0,
            slot,
            from: follower,
            to: spare,
        },
    );
    let mut done = false;
    for round in 0..200 {
        let sim = client.sim_mut().expect("simulated");
        sim.run_for(25);
        done = sim
            .take_replies(9)
            .iter()
            .any(|m| matches!(m, Message::Reply { id: rid, error: None, .. } if *rid == id));
        if done {
            break;
        }
        if round % 4 == 0 {
            let key = format!("p|u{:02}|mig{round}", round % 40);
            client.put(key, "live").expect("put");
        }
    }
    assert!(done, "migration never completed");
    let sim = client.sim_mut().expect("simulated");
    sim.run_for(500);
    assert!(sim.node(follower).slot_pairs(slot).is_empty());
    assert!(!sim.node(spare).slot_pairs(slot).is_empty());
    for n in 0..4u32 {
        assert_fold_matches_scan(sim.node(n), &persisters[n as usize], &dirs[n as usize]);
    }
    drop(client);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_restart_outside_a_slot_purges_its_rows() {
    let root = root("purge");
    let cfg = ClusterConfig::new(3, 2);
    let (mut engine, persister) = durable(&root);
    // What node 0 recovered: rows of every slot, and a persisted view
    // in which slot 0's replica set no longer includes it (it was
    // dropped as a laggard, then crashed).
    for i in 0..20 {
        engine.put(format!("p|u{i:02}|post"), "row");
    }
    engine.put("#epoch|00", "5 1,2");
    let mut node = ClusterNode::new(0, cfg.clone(), engine);
    assert!(!node.is_primary(0));
    let held = |slot: u32| slot != 0 && cfg.initial_replicas(slot).contains(&0);
    let keys: Vec<Key> = (0..20)
        .map(|i| Key::from(format!("p|u{i:02}|post")))
        .collect();
    assert!(keys.iter().any(|k| cfg.slot_of(k) == 0));
    assert!(keys.iter().any(|k| held(cfg.slot_of(k))));
    for key in &keys {
        assert_eq!(
            node.engine.get(key).is_some(),
            held(cfg.slot_of(key)),
            "{key:?}: a node stores exactly the rows of the slots it holds"
        );
    }
    assert_fold_matches_scan(&mut node, &persister, &root);
    drop(node);
    let _ = std::fs::remove_dir_all(&root);
}
