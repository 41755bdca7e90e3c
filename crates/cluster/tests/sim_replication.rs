//! Replication protocol conformance over the deterministic simulator:
//! replica convergence, fault-injected links, failover with no acked
//! write lost, live migration, and delta-only restart catch-up.

use pequod_cluster::{ClusterClient, ClusterConfig, ClusterStats, LinkFaults, SimHarness, SimNet};
use pequod_core::Engine;
use pequod_net::Message;
use pequod_store::{Key, KeyRange, Value};
use pequod_telemetry::metric;

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

/// The harness `client` drives.
fn harness(client: &mut ClusterClient) -> &mut SimHarness {
    client.sim_mut().expect("a simulated client")
}

/// A client driving `sim`, after 100 quiet virtual ms.
fn driving(mut sim: SimHarness) -> ClusterClient {
    sim.run_for(100);
    ClusterClient::simulated(sim)
}

/// Writes `value` at `key` through `client`, panicking unless acked.
fn put(client: &mut ClusterClient, key: impl Into<Key>, value: impl Into<Value>) {
    client.put(key, value).expect("an acknowledged write");
}

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
        let view = sim.node(primary).telemetry_snapshot(false).to_pairs();
        let replicas: Vec<u32> = (0..cfg.nodes.len() as u32)
            .filter(|n| metric(&view, &replica_key(slot, *n)).is_some() && sim.is_alive(*n))
            .collect();
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

/// The key of node `n`'s rank in `slot`'s replica list, in a node's
/// `Metrics` reply.
fn replica_key(slot: u32, n: u32) -> String {
    format!("pequod_cluster_slot_replica{{slot={slot},node={n}}}")
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
    let mut client = driving(SimHarness::new(&cfg, 0x5eed, 1));
    for i in 0..40 {
        put(&mut client, format!("p|u{i:02}|post"), format!("body-{i}"));
    }
    let sim = harness(&mut client);
    sim.run_for(300);
    let total = assert_replicas_converged(sim, &cfg);
    assert_eq!(total, 40, "every acked write is visible somewhere");
    // Spot-check a read through the client path.
    let v = client.get("p|u07|post").expect("get");
    assert_eq!(v.as_deref(), Some(&b"body-7"[..]));
    assert_each_request_answered_once(harness(&mut client));
}

#[test]
fn lossy_duplicating_reordering_links_still_converge() {
    let cfg = ClusterConfig::new(3, 2);
    for seed in [1u64, 2, 3] {
        let mut client = driving(SimHarness::new(&cfg, seed, 1));
        let sim = harness(&mut client);
        sim.net
            .set_default_faults(LinkFaults::lossy(0.05, 0.05, 0.05));
        for i in 0..30 {
            put(&mut client, format!("p|u{i:02}|x"), format!("v{i}"));
        }
        // Heal the fabric and let catch-up repair whatever the faults
        // tore (dropped notifies, lost acks, spurious laggard drops).
        let sim = harness(&mut client);
        sim.net.set_default_faults(LinkFaults::default());
        sim.run_for(3_000);
        let total = assert_replicas_converged(sim, &cfg);
        assert_eq!(total, 30, "seed {seed}: all writes survive a lossy fabric");
        assert!(
            sim.net.stats.dropped + sim.net.stats.duplicated + sim.net.stats.reordered > 0,
            "seed {seed}: the fault injector actually fired"
        );
        assert_each_request_answered_once(sim);
    }
}

/// What a lossy fabric decides for one fixed send sequence under
/// `seed`: the order the surviving copies arrive in (each by its request
/// id) and the drop, duplicate and reorder counts.
fn fabric_decisions(seed: u64) -> (Vec<u64>, [u64; 3]) {
    let mut net = SimNet::new(seed, 1);
    net.set_default_faults(LinkFaults::lossy(0.2, 0.2, 0.2));
    for id in 0..200 {
        let key = Key::from(format!("p|u{id:03}|x"));
        net.send(id, 0, 1, Message::Get { id, key });
    }
    let arrived = (net.take_due(u64::MAX).into_iter())
        .map(|(_, _, msg)| match msg {
            Message::Get { id, .. } => id,
            other => panic!("the fabric made up {other:?}"),
        })
        .collect();
    let stats = &net.stats;
    (arrived, [stats.dropped, stats.duplicated, stats.reordered])
}

/// Every seed is its own fabric, neighbouring seeds 2k and 2k+1
/// included.
#[test]
fn neighbouring_seeds_make_different_fault_decisions() {
    let (two, three) = (fabric_decisions(2), fabric_decisions(3));
    assert_eq!(two, fabric_decisions(2), "a seed replays its own decisions");
    assert_ne!(two.0, three.0, "seeds 2 and 3 deliver differently");
    for (fault, (a, b)) in ["drop", "duplicate", "reorder"]
        .iter()
        .zip(two.1.iter().zip(&three.1))
    {
        assert!(*a > 0 && *b > 0, "{fault}s happen under both seeds");
    }
    assert_ne!(two.1, three.1, "seeds 2 and 3 count different faults");
}

#[test]
fn killed_primary_fails_over_and_loses_no_acked_write() {
    let cfg = ClusterConfig::new(3, 2);
    let mut client = driving(SimHarness::new(&cfg, 42, 1));
    let mut acked = Vec::new();
    for i in 0..30 {
        let key = format!("p|u{i:02}|post");
        put(&mut client, key.clone(), format!("payload-{i}"));
        acked.push((key, format!("payload-{i}")));
    }
    // SIGKILL equivalent: node 0 vanishes mid-cluster.
    let sim = harness(&mut client);
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
        let got = client.get(key.as_str()).expect("get");
        assert_eq!(
            got.as_deref(),
            Some(want.as_bytes()),
            "acked write {key} lost in failover"
        );
    }
    assert_each_request_answered_once(harness(&mut client));
}

#[test]
fn killed_node_rejoins_and_is_readmitted() {
    let cfg = ClusterConfig::new(3, 2);
    let mut client = driving(SimHarness::new(&cfg, 9, 1));
    for i in 0..10 {
        put(&mut client, format!("p|u{i:02}|a"), "one");
    }
    let sim = harness(&mut client);
    sim.kill(0);
    sim.run_for(3 * cfg.timing.failover_ms);
    for i in 0..10 {
        put(&mut client, format!("p|u{i:02}|b"), "two");
    }
    // The node restarts cold (crash dropped its volatile state).
    let sim = harness(&mut client);
    sim.restart(0, &cfg, Engine::new_default());
    sim.run_for(3_000);
    let total = assert_replicas_converged(sim, &cfg);
    assert_eq!(total, 20);
    let readmitted: u64 = (0..3).map(|n| sim.node(n).stats.readmissions).sum();
    assert!(readmitted > 0, "the returned node was re-admitted");
    assert_each_request_answered_once(sim);
}

#[test]
fn live_migration_preserves_every_row() {
    let cfg = ClusterConfig::new(4, 2);
    let mut client = driving(SimHarness::new(&cfg, 77, 1));
    for i in 0..40 {
        put(&mut client, format!("p|u{i:02}|post"), format!("r{i}"));
    }
    let sim = harness(&mut client);
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
    let mut done = false;
    for round in 0..200 {
        let sim = harness(&mut client);
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
            put(
                &mut client,
                format!("p|u{:02}|mig{round}", round % 40),
                "live",
            );
        }
    }
    assert!(done, "migration never completed");
    let sim = harness(&mut client);
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
    let total = assert_replicas_converged(sim, &cfg);
    assert!(total >= 40);
    assert_each_request_answered_once(sim);
}

/// A primary partitioned away mid-migration is deposed by its follower
/// and, once the partition heals, learns it: the admin that asked for
/// the migration is redirected to the new primary.
#[test]
fn deposed_primary_answers_the_migration_it_was_running() {
    let cfg = ClusterConfig::new(4, 2);
    let mut client = driving(SimHarness::new(&cfg, 5, 1));
    for i in 0..20 {
        put(&mut client, format!("p|u{i:02}|post"), "row");
    }
    let sim = harness(&mut client);
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
        matches!(answers[..], [Message::NotPrimary { id: rid, node, .. }] if rid == id && node == follower),
        "the deposed primary owes the admin one redirect to {follower}: {answers:?}"
    );
    assert_each_request_answered_once(sim);
}

/// A primary cut off from its follower while a write waits for the
/// follower's ack is deposed; once the link heals it learns so and
/// sends the write back as a redirect to the new primary, where the
/// client's resend lands.
#[test]
fn a_deposed_primary_redirects_its_unacked_write() {
    let cfg = ClusterConfig::new(2, 2);
    let mut client = driving(SimHarness::new(&cfg, 3, 1));
    let key = Key::from("p|u01|post");
    let slot = cfg.slot_of(&key);
    let replicas = cfg.initial_replicas(slot);
    let (primary, follower) = (replicas[0], replicas[1]);
    let sim = harness(&mut client);
    let link = |sim: &mut SimHarness, faults: LinkFaults| {
        sim.net.set_link_faults(primary, follower, faults);
        sim.net.set_link_faults(follower, primary, faults);
    };
    let cut = LinkFaults {
        drop_chance: 1.0,
        ..LinkFaults::default()
    };
    link(sim, cut);
    let value = Value::from("v");
    let write = Message::Put {
        id: 0,
        key: key.clone(),
        value: value.clone(),
    };
    let id = sim.client_send(9, primary, write);
    // Cut off until the follower promotes itself, well inside the
    // primary's ack timeout (which would drop the follower instead).
    let deadline = sim.now() + 2 * cfg.timing.failover_ms;
    while sim.node(follower).primary_of(slot) != follower {
        assert!(sim.now() < deadline, "the follower never promoted itself");
        sim.run_for(1);
    }
    assert!(
        sim.take_replies(9).is_empty(),
        "the write was answered while unacked"
    );
    link(sim, LinkFaults::default());
    sim.run_for(500);
    assert_eq!(sim.node(primary).primary_of(slot), follower, "deposed");
    let answers = sim.take_replies(9);
    assert!(
        matches!(answers[..], [Message::NotPrimary { id: rid, node, .. }] if rid == id && node == follower),
        "the deposed primary redirects its unacked write to {follower}: {answers:?}"
    );
    // The client's same write lands at the new primary.
    put(&mut client, key.clone(), value.clone());
    let sim = harness(&mut client);
    let held = sim.node(follower).slot_pairs(slot);
    assert!(held.contains(&(key.clone(), value.clone())), "{held:?}");
    assert_eq!(client.get(key).expect("get"), Some(value));
    let sim = harness(&mut client);
    sim.run_for(500);
    assert_each_request_answered_once(sim);
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
    let mut client = driving(SimHarness::with_engines(&cfg, engines, 11, 1));
    for i in 0..20 {
        put(&mut client, format!("p|u{i:02}|seed"), "pre");
    }
    let sim = harness(&mut client);
    sim.run_for(200);
    // Flush the follower's durable state, then crash it.
    sim.node(1).engine.finalize_durability();
    sim.kill(1);
    // Writes continue: the primary drops the laggard and serves solo.
    for i in 0..8 {
        put(&mut client, format!("p|u{i:02}|after"), "post");
    }
    // Warm restart from its own durable state.
    let sim = harness(&mut client);
    sim.restart(1, &cfg, mkengine(&dirs[1]));
    sim.run_for(3_000);
    let total = assert_replicas_converged(sim, &cfg);
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
    assert_each_request_answered_once(sim);
    let _ = std::fs::remove_dir_all(&root);
}

/// FNV-1a over the `Debug` form of `parts`, in order.
fn digest_of(parts: &[String]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for part in parts {
        for b in part.bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// One seeded run — 3 nodes at RF=2, lossy links, `Notify` jitter, a
/// client's writes and timeline reads, a node killed with reads parked
/// on its fetches, then restarted — digested: every live node's slot contents and counters (nothing
/// measured in wall time), the fabric's traffic and fault counters, the
/// sorted reply ledger, and what the reads returned.
fn seeded_run(seed: u64) -> u64 {
    let cfg = ClusterConfig::new(3, 2);
    let mut client = driving(SimHarness::new(&cfg, seed, 1));
    let sim = harness(&mut client);
    sim.net
        .set_default_faults(LinkFaults::lossy(0.05, 0.05, 0.05));
    sim.net.set_notify_jitter(0.3, 7);
    let mut parts = Vec::new();
    client.add_join(TIMELINE).expect("join");
    let mut step = |client: &mut ClusterClient, i: u64| {
        let (user, poster) = (i % 5, (i * 3 + 1) % 5);
        put(client, format!("s|u{user}|u{poster}"), "1");
        put(client, format!("p|u{poster}|{i:010}"), format!("post {i}"));
        let timeline = client.scan(KeyRange::prefix(format!("t|u{user}|")));
        parts.push(format!("{timeline:?}"));
    };
    for i in 0..15 {
        step(&mut client, i);
    }
    // Reads parked on fetches at node 0 when it dies: the failover
    // restarts them, in an order no hash map may decide.
    let sim = harness(&mut client);
    for user in 5..40 {
        let range = KeyRange::prefix(format!("t|u{user}|"));
        sim.client_send(9, 2, Message::Scan { id: 0, range });
    }
    sim.run_for(1);
    sim.kill(0);
    for i in 15..30 {
        step(&mut client, i);
    }
    let sim = harness(&mut client);
    sim.restart(0, &cfg, Engine::new_default());
    sim.net.set_default_faults(LinkFaults::default());
    sim.run_for(3_000);
    for n in 0..3 {
        let node = sim.node(n);
        for slot in 0..cfg.slots {
            parts.push(format!("{:?}", node.slot_pairs(slot)));
        }
        let counters = node.telemetry_snapshot(false).to_pairs();
        parts.push(format!("{counters:?}"));
    }
    parts.push(format!("{:?} {:?}", sim.net.traffic, sim.net.stats));
    parts.push(format!("{:?}", sim.take_replies(9)));
    let mut ledger: Vec<_> = sim.reply_ledger().iter().collect();
    ledger.sort();
    parts.push(format!("{ledger:?}"));
    digest_of(&parts)
}

/// A seed reproduces a run: no hash map whose iteration order reaches
/// a message, a counter or a reply (each new map gets new keys from
/// `RandomState`, so two runs in one process differ if one does).
#[test]
fn a_seed_reproduces_a_run() {
    let digest = seeded_run(0x5eed);
    assert_eq!(seeded_run(0x5eed), digest);
    assert_ne!(
        seeded_run(0x5eee),
        digest,
        "the digest does not see the seed"
    );
}

/// A node's `Metrics` reply is the one view of its counters: after a
/// failover and a catch-up it carries every [`ClusterStats`] field
/// exactly once, with the struct's value, and every slot's view —
/// epoch, applied sequence number, primary, replica ranks, role — as
/// the node's own durable `#epoch`/`#rep` rows record it.
#[test]
fn metrics_carry_every_replication_counter_once_and_every_slot() {
    let cfg = ClusterConfig::new(3, 2);
    let mut client = driving(SimHarness::new(&cfg, 9, 1));
    for i in 0..10 {
        put(&mut client, format!("p|u{i:02}|a"), "one");
    }
    let sim = harness(&mut client);
    sim.kill(0);
    sim.run_for(3 * cfg.timing.failover_ms);
    for i in 0..10 {
        put(&mut client, format!("p|u{i:02}|b"), "two");
    }
    let sim = harness(&mut client);
    sim.restart(0, &cfg, Engine::new_default());
    sim.run_for(3_000);
    let (mut promoted, mut readmitted, mut caught_up) = (0, 0, 0);
    for n in 0..3 {
        let reply = sim.request(
            7,
            n,
            Message::Metrics {
                id: 0,
                flight: false,
            },
            1_000,
        );
        let Message::Reply {
            pairs, error: None, ..
        } = reply
        else {
            panic!("node {n} answered Metrics with {reply:?}");
        };
        let pairs = Message::parse_metrics(pairs);
        let node = sim.node(n);
        let ClusterStats {
            writes_applied,
            writes_acked,
            redirects,
            notifies_sent,
            notifies_applied,
            promotions,
            epoch_changes,
            follower_drops,
            readmissions,
            migrations,
            catchup_subscribes,
            delta_ops_sent,
            delta_bytes_sent,
            snap_chunks_sent,
            snap_bytes_sent,
            snap_chunks_in,
            snap_bytes_in,
            snap_installs,
        } = node.stats;
        let want = [
            ("pequod_cluster_writes_applied_total", writes_applied),
            ("pequod_cluster_writes_acked_total", writes_acked),
            ("pequod_cluster_redirects_total", redirects),
            ("pequod_cluster_notifies_sent_total", notifies_sent),
            ("pequod_cluster_notifies_applied_total", notifies_applied),
            ("pequod_cluster_failovers_total", promotions),
            ("pequod_cluster_epoch_changes_total", epoch_changes),
            ("pequod_cluster_follower_drops_total", follower_drops),
            ("pequod_cluster_readmissions_total", readmissions),
            ("pequod_cluster_migrations_total", migrations),
            (
                "pequod_cluster_catchup_subscribes_total",
                catchup_subscribes,
            ),
            ("pequod_cluster_delta_ops_sent_total", delta_ops_sent),
            (
                "pequod_cluster_catchup_bytes_total{path=delta}",
                delta_bytes_sent,
            ),
            ("pequod_cluster_snap_chunks_sent_total", snap_chunks_sent),
            (
                "pequod_cluster_catchup_bytes_total{path=snapshot}",
                snap_bytes_sent,
            ),
            ("pequod_cluster_snap_chunks_in_total", snap_chunks_in),
            ("pequod_cluster_snap_bytes_in_total", snap_bytes_in),
            ("pequod_cluster_snap_installs_total", snap_installs),
        ];
        for (key, value) in want {
            let times = pairs.iter().filter(|(k, _)| k == key).count();
            assert_eq!(times, 1, "node {n}: {key} appears {times} times");
            assert_eq!(metric(&pairs, key), Some(value), "node {n}: {key}");
        }
        // No counter is carried under a second name.
        let counters: Vec<&str> = (pairs.iter())
            .map(|(k, _)| k.as_str())
            .filter(|k| k.starts_with("pequod_cluster_") && k.contains("_total"))
            .collect();
        assert_eq!(counters.len(), want.len(), "node {n}: {counters:?}");
        for slot in 0..cfg.slots {
            let gauge = |field: &str| {
                let key = format!("pequod_cluster_slot_{field}{{slot={slot}}}");
                metric(&pairs, &key).unwrap_or_else(|| panic!("node {n}: no {key}"))
            };
            // `#epoch|NN` is "epoch r0,r1,…", `#rep|NN` "applied
            // log_epoch"; a node that never moved off the configured
            // view has written neither.
            let row = |key: String, initial: String| {
                let value = node.engine.store().get(&Key::from(key));
                value.map_or(initial, |v| {
                    String::from_utf8_lossy(v.as_bytes()).into_owned()
                })
            };
            let initial: Vec<String> = (cfg.initial_replicas(slot).iter())
                .map(u32::to_string)
                .collect();
            let epoch_row = row(
                format!("#epoch|{slot:02}"),
                format!("0 {}", initial.join(",")),
            );
            let (epoch, members) = epoch_row.split_once(' ').expect("epoch row");
            let members: Vec<u32> = members.split(',').map(|m| m.parse().unwrap()).collect();
            let rep_row = row(format!("#rep|{slot:02}"), "0 0".into());
            let applied = rep_row.split(' ').next().expect("rep row");
            assert_eq!(gauge("epoch").to_string(), epoch, "node {n} slot {slot}");
            assert_eq!(
                gauge("applied_seq").to_string(),
                applied,
                "node {n} slot {slot}"
            );
            assert_eq!(gauge("primary"), u64::from(node.primary_of(slot)));
            assert_eq!(u64::from(members[0]), gauge("primary"));
            for m in 0..3 {
                let rank = members.iter().position(|&r| r == m).map(|r| r as u64);
                assert_eq!(metric(&pairs, &replica_key(slot, m)), rank, "slot {slot}");
            }
            let roles: Vec<&str> = ["primary", "follower", "learner", "none"]
                .into_iter()
                .filter(|role| {
                    let key = format!("pequod_cluster_slot_role{{slot={slot},role={role}}}");
                    metric(&pairs, &key) == Some(1)
                })
                .collect();
            let allowed: &[&str] = match members.iter().position(|&m| m == n) {
                Some(0) => &["primary"],
                Some(_) => &["follower"],
                None => &["learner", "none"],
            };
            assert!(
                roles.len() == 1 && allowed.contains(&roles[0]),
                "node {n} slot {slot}: roles {roles:?}, members {members:?}"
            );
        }
        promoted += promotions;
        readmitted += readmissions;
        caught_up += delta_ops_sent + snap_chunks_sent;
    }
    // The scenario moved the counters this test is about: a failover
    // and a catch-up, by delta or by snapshot.
    assert!(promoted > 0 && readmitted > 0 && caught_up > 0);
    assert_each_request_answered_once(sim);
}
