//! Replication protocol conformance over the deterministic simulator:
//! replica convergence, fault-injected links, failover with no acked
//! write lost, live migration, and delta-only restart catch-up.

// Test-only crate: helpers sit outside #[test] functions, so
// clippy's allow-unwrap-in-tests does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pequod_cluster::{ClusterConfig, SimHarness};
use pequod_core::Engine;
use pequod_net::{LinkFaults, Message};
use pequod_store::{Key, Value};

/// FNV-1a over the pair list — replicas of a slot must agree on this
/// byte-for-byte.
fn digest(pairs: &[(Key, Value)]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for (k, v) in pairs {
        eat(k.as_bytes());
        eat(&[0xff]);
        eat(v);
        eat(&[0xfe]);
    }
    h
}

/// Asserts every slot's replicas hold byte-identical slot contents (by
/// each node's own view of membership), and returns the total number of
/// distinct user pairs.
fn assert_replicas_converged(sim: &mut SimHarness, cfg: &ClusterConfig) -> usize {
    let mut total = 0;
    for slot in 0..cfg.slots {
        let primary = sim.first_alive_primary(slot);
        let reference = sim.node(primary).slot_pairs(slot);
        total += reference.len();
        // Membership by the primary's own view.
        let view = sim.node(primary).status_pairs();
        let want = format!("slot|{slot:02}|replicas");
        let members: Vec<u32> = view
            .iter()
            .find(|(k, _)| k.as_bytes() == want.as_bytes())
            .map(|(_, v)| {
                std::str::from_utf8(v)
                    .unwrap()
                    .split(',')
                    .filter_map(|t| t.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        let replicas: Vec<u32> = members.into_iter().filter(|&n| sim.is_alive(n)).collect();
        assert!(
            replicas.contains(&primary),
            "slot {slot}: primary {primary} not in its own replica set"
        );
        for n in replicas {
            let pairs = sim.node(n).slot_pairs(slot);
            assert_eq!(
                digest(&reference),
                digest(&pairs),
                "slot {slot}: node {n} diverged from primary {primary} \
                 ({} vs {} pairs)",
                pairs.len(),
                reference.len()
            );
        }
    }
    total
}

/// The contract the TCP driver's in-flight gate rests on: every
/// id-bearing client request that reached a live node was answered by
/// that node exactly once — never zero times (the connection would
/// wait for ever), never twice. Call once traffic has quiesced.
fn assert_each_request_answered_once(sim: &SimHarness) {
    for ((node, client, id), (asked, answered)) in sim.reply_ledger() {
        assert_eq!(
            asked, answered,
            "node {node}: request {id} of client {client} delivered {asked}x, answered {answered}x"
        );
    }
    assert!(!sim.reply_ledger().is_empty());
}

#[test]
fn writes_replicate_to_followers_byte_identically() {
    let cfg = ClusterConfig::new(3, 2);
    let mut sim = SimHarness::new(&cfg, 0x5eed, 1);
    sim.run_for(100);
    for i in 0..40 {
        sim.put_acked(1, format!("p|u{i:02}|post"), format!("body-{i}"), 2_000);
    }
    sim.run_for(300);
    let total = assert_replicas_converged(&mut sim, &cfg);
    assert_eq!(total, 40, "every acked write is visible somewhere");
    // Spot-check a read through the client path.
    let v = sim.get_value(2, "p|u07|post", 1_000);
    assert_eq!(v.as_deref(), Some(&b"body-7"[..]));
    assert_each_request_answered_once(&sim);
}

#[test]
fn lossy_duplicating_reordering_links_still_converge() {
    let cfg = ClusterConfig::new(3, 2);
    for seed in [1u64, 2, 3] {
        let mut sim = SimHarness::new(&cfg, seed, 1);
        sim.run_for(100);
        sim.net
            .set_default_faults(LinkFaults::lossy(0.05, 0.05, 0.05));
        for i in 0..30 {
            sim.put_acked(1, format!("p|u{i:02}|x"), format!("v{i}"), 20_000);
        }
        // Heal the fabric and let catch-up repair whatever the faults
        // tore (dropped notifies, lost acks, spurious laggard drops).
        sim.net.set_default_faults(LinkFaults::default());
        sim.run_for(3_000);
        let total = assert_replicas_converged(&mut sim, &cfg);
        assert_eq!(total, 30, "seed {seed}: all writes survive a lossy fabric");
        assert!(
            sim.net.stats.dropped + sim.net.stats.duplicated + sim.net.stats.reordered > 0,
            "seed {seed}: the fault injector actually fired"
        );
        assert_each_request_answered_once(&sim);
    }
}

#[test]
fn killed_primary_fails_over_and_loses_no_acked_write() {
    let cfg = ClusterConfig::new(3, 2);
    let mut sim = SimHarness::new(&cfg, 42, 1);
    sim.run_for(100);
    let mut acked = Vec::new();
    for i in 0..30 {
        let key = format!("p|u{i:02}|post");
        sim.put_acked(1, key.clone(), format!("payload-{i}"), 5_000);
        acked.push((key, format!("payload-{i}")));
    }
    // SIGKILL equivalent: node 0 vanishes mid-cluster.
    sim.kill(0);
    // Staggered failover: first follower waits failover_ms, so well
    // within 3 periods every slot has a live primary.
    sim.run_for(3 * cfg.timing.failover_ms);
    for slot in 0..cfg.slots {
        let p = sim.first_alive_primary(slot);
        assert_ne!(p, 0, "slot {slot} still routed to the dead node");
        assert!(sim.is_alive(p));
    }
    let promoted: u64 = (1..3).map(|n| sim.node(n).stats.promotions).sum();
    assert!(promoted > 0, "some follower promoted itself");
    // Every acked write must still be readable — the all-follower ack
    // rule guarantees any promoted follower already had it.
    for (key, want) in &acked {
        let got = sim.get_value(2, key.as_str(), 2_000);
        assert_eq!(
            got.as_deref(),
            Some(want.as_bytes()),
            "acked write {key} lost in failover"
        );
    }
    assert_each_request_answered_once(&sim);
}

#[test]
fn killed_node_rejoins_and_is_readmitted() {
    let cfg = ClusterConfig::new(3, 2);
    let mut sim = SimHarness::new(&cfg, 9, 1);
    sim.run_for(100);
    for i in 0..10 {
        sim.put_acked(1, format!("p|u{i:02}|a"), "one", 5_000);
    }
    sim.kill(0);
    sim.run_for(3 * cfg.timing.failover_ms);
    for i in 0..10 {
        sim.put_acked(1, format!("p|u{i:02}|b"), "two", 5_000);
    }
    // The node restarts cold (crash dropped its volatile state).
    sim.restart(0, &cfg, Engine::new_default());
    sim.run_for(3_000);
    let total = assert_replicas_converged(&mut sim, &cfg);
    assert_eq!(total, 20);
    let readmitted: u64 = (0..3).map(|n| sim.node(n).stats.readmissions).sum();
    assert!(readmitted > 0, "the returned node was re-admitted");
    assert_each_request_answered_once(&sim);
}

#[test]
fn live_migration_preserves_every_row() {
    let cfg = ClusterConfig::new(4, 2);
    let mut sim = SimHarness::new(&cfg, 77, 1);
    sim.run_for(100);
    for i in 0..40 {
        sim.put_acked(1, format!("p|u{i:02}|post"), format!("r{i}"), 5_000);
    }
    sim.run_for(200);
    // Pick a slot and move its follower to the node outside the set.
    let slot = 0u32;
    let replicas = cfg.initial_replicas(slot);
    let (primary, follower) = (replicas[0], replicas[1]);
    let spare = (0..4).find(|n| !replicas.contains(n)).unwrap();
    let before_pairs = sim.node(primary).slot_pairs(slot);
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
    // Keep writing into the slot *during* the migration.
    let mut extra = 0;
    let mut done = false;
    for round in 0..200 {
        sim.run_for(25);
        // During: the primary's copy stays authoritative and intact.
        let during = sim.node(primary).slot_pairs(slot);
        assert!(during.len() >= 40usize.min(during.len()));
        for m in sim.take_replies(9) {
            if let Message::Reply { id: rid, error, .. } = m {
                assert_eq!(rid, id);
                assert_eq!(error, None, "migration failed");
                done = true;
            }
        }
        if done {
            break;
        }
        if round % 4 == 0 {
            // Writes keyed so some land in the migrating slot.
            sim.put_acked(1, format!("p|u{:02}|mig{round}", round % 40), "live", 5_000);
            extra += 1;
        }
    }
    assert!(done, "migration never completed");
    let _ = extra;
    sim.run_for(500);
    // After: the learner is a full member, the source holds nothing.
    let after_primary = sim.node(primary).slot_pairs(slot);
    let after_spare = sim.node(spare).slot_pairs(slot);
    assert_eq!(digest(&after_primary), digest(&after_spare));
    // Whatever rows existed before the migration are all still there,
    // byte-identical (the live writes only added to the slot).
    for (k, v) in &before_pairs {
        assert_eq!(
            after_primary
                .iter()
                .find(|(ak, _)| ak == k)
                .map(|(_, av)| av),
            Some(v),
            "row {k:?} stale or missing after migration"
        );
    }
    assert!(
        sim.node(follower).slot_pairs(slot).is_empty(),
        "migration source kept its copy"
    );
    assert_eq!(sim.node(primary).stats.migrations, 1);
    let total = assert_replicas_converged(&mut sim, &cfg);
    assert!(total >= 40);
    assert_each_request_answered_once(&sim);
}

/// A primary partitioned away mid-migration is deposed by its follower
/// and, once the partition heals, learns it: the admin that asked for
/// the migration is owed an answer all the same.
#[test]
fn deposed_primary_answers_the_migration_it_was_running() {
    let cfg = ClusterConfig::new(4, 2);
    let mut sim = SimHarness::new(&cfg, 5, 1);
    sim.run_for(100);
    for i in 0..20 {
        sim.put_acked(1, format!("p|u{i:02}|post"), "row", 5_000);
    }
    let slot = 0u32;
    let replicas = cfg.initial_replicas(slot);
    let (primary, follower) = (replicas[0], replicas[1]);
    let spare = (0..4).find(|n| !replicas.contains(n)).unwrap();
    // The learner is unreachable, so the migration stays in flight.
    sim.net.set_down(spare, true);
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
    sim.run_for(10);
    sim.net.set_down(primary, true);
    sim.run_for(3 * cfg.timing.failover_ms);
    assert_eq!(sim.node(follower).primary_of(slot), follower);
    sim.net.set_down(primary, false);
    sim.net.set_down(spare, false);
    sim.run_for(2_000);
    assert_eq!(sim.node(primary).primary_of(slot), follower, "deposed");
    let answers: Vec<Message> = sim.take_replies(9);
    assert!(
        matches!(answers[..], [Message::Reply { id: rid, error: Some(_), .. }] if rid == id),
        "the deposed primary owes the admin one error reply: {answers:?}"
    );
    assert_each_request_answered_once(&sim);
}

#[test]
fn restarted_follower_catches_up_with_delta_only() {
    let root = std::env::temp_dir().join(format!(
        "pequod-cluster-delta-{}-{}",
        std::process::id(),
        line!()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let mkengine = |dir: &std::path::Path| {
        let mut e = Engine::new_default();
        pequod_persist::attach(&mut e, dir, pequod_persist::PersistOptions::default())
            .expect("attach durability");
        e
    };
    let cfg = ClusterConfig::new(2, 2);
    let dirs = [root.join("n0"), root.join("n1")];
    let engines = vec![mkengine(&dirs[0]), mkengine(&dirs[1])];
    let mut sim = SimHarness::with_engines(&cfg, engines, 11, 1);
    sim.run_for(100);
    for i in 0..20 {
        sim.put_acked(1, format!("p|u{i:02}|seed"), "pre", 5_000);
    }
    sim.run_for(200);
    // Flush the follower's durable state, then crash it.
    sim.node(1).engine.finalize_durability();
    sim.kill(1);
    // Writes continue: the primary drops the laggard and serves solo.
    for i in 0..8 {
        sim.put_acked(1, format!("p|u{i:02}|after"), "post", 10_000);
    }
    // Warm restart from its own durable state.
    sim.restart(1, &cfg, mkengine(&dirs[1]));
    sim.run_for(3_000);
    let total = assert_replicas_converged(&mut sim, &cfg);
    assert_eq!(total, 28);
    let st = sim.node(1).stats;
    assert_eq!(
        st.snap_installs, 0,
        "restart caught up via delta, not a full snapshot re-fetch"
    );
    assert_eq!(st.snap_chunks_in, 0);
    assert!(
        st.notifies_applied >= 8,
        "the missed writes arrived as a window replay"
    );
    assert_each_request_answered_once(&sim);
    let _ = std::fs::remove_dir_all(&root);
}
