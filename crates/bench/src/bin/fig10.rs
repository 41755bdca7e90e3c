//! Figure 10: distributed scalability — timeline-check throughput as
//! compute servers are added.
//!
//! Paper setup (§5.5): a backing store absorbing all writes plus 12–48
//! Pequod compute servers executing the timeline join; 28M active users,
//! warm caches, all of a user's requests routed to one compute server.
//! Result: throughput rises 3x (1.42M → 4.27M qps) as compute servers
//! go 12 → 48 — sub-linear because base data is duplicated per compute
//! server, and inter-server subscription traffic grows from ~10% to ~16%
//! of bytes.
//!
//! Methodology note: the cluster is simulated in one process, so we
//! report *simulated throughput* — total timeline checks divided by the
//! busiest compute server's measured CPU time. The paper's bottleneck is
//! compute-server CPU, which join execution here exercises for real; the
//! wall clock of the whole simulation is not the measurement.
//!
//! The deployment is a replicated cluster with one replica of one slot:
//! node 0 holds every base row, and the compute servers hold no slot, so
//! every base range they read is subscribed at node 0.

use pequod_bench::{print_table, twip_graph, Scale};
use pequod_cluster::{ClusterClient, ClusterConfig, SimHarness};
use pequod_core::partition::{ComponentHashPartition, Partition, ServerId, SingleServer};
use pequod_core::{Client, Engine, EngineConfig};
use pequod_net::Message;
use pequod_store::{Key, KeyRange, StoreConfig, Value};
use pequod_workloads::twip::{post_key, sub_key, user_name, TIMELINE_JOIN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Client-side read routing (§2.4): all of user `u`'s timeline checks
/// go to compute server `1 + S(u)`.
struct ComputeRouter {
    user_router: ComponentHashPartition,
}

impl Partition for ComputeRouter {
    fn home_of(&self, key: &Key) -> ServerId {
        let comp = key.components().nth(1).unwrap_or(key.as_bytes());
        ServerId(1 + self.user_router.server_for_component(comp).0)
    }
}

fn run_cluster(compute_servers: u32, users: u32, scale: &Scale) -> (f64, f64, u64, [u64; 2]) {
    let graph = twip_graph(users, 0xf10);
    // Base tables (p|, s|) are homed on server 0, which proves every
    // range single-homed; compute servers 1..=k serve timelines for
    // users hashed to them.
    let part = Arc::new(SingleServer(ServerId(0)));
    let user_router = ComponentHashPartition {
        component: 1,
        servers: compute_servers,
    };
    let cfg = ClusterConfig::new(1 + compute_servers, 1).with_partition(part, 1);
    // Node 0: the backing store (absorbs all writes).
    let mut engines = vec![Engine::new(EngineConfig::default())];
    for _ in 1..=compute_servers {
        let cfg = EngineConfig::with_store(StoreConfig::flat().with_subtable("t|", 2));
        engines.push(Engine::new(cfg));
    }
    let mut cluster = SimHarness::with_engines(&cfg, engines, 0x5eed, 1);
    // The timeline join runs on compute servers only (so no broadcast
    // AddJoin through the client, which would install it everywhere).
    for i in 1..=compute_servers {
        let text = TIMELINE_JOIN.to_string();
        cluster.request(0, i, Message::AddJoin { id: 0, text }, 1_000);
    }
    // Everything else goes through the unified client API: writes are
    // routed to the backing store by the partition function, timeline
    // reads to each user's compute server by the read router.
    let mut client =
        ClusterClient::simulated(cluster).with_read_router(Arc::new(ComputeRouter { user_router }));
    // Load the graph and initial posts at the backing store.
    let one = Value::from_static(b"1");
    let mut time = 1u64;
    for u in 0..users {
        for &p in graph.followees(u) {
            Client::put(&mut client, &Key::from(sub_key(u, p)), &one);
        }
    }
    let initial_posts = scale.count(users as u64 / 2);
    let mut rng = StdRng::seed_from_u64(0x10ad);
    let warm_tweet = Value::from_static(b"warm tweet");
    for _ in 0..initial_posts {
        let poster = rng.gen_range(0..users);
        Client::put(
            &mut client,
            &Key::from(post_key(poster, time, false)),
            &warm_tweet,
        );
        time += 1;
    }
    // Warm: log every user into their compute server (installs
    // subscriptions, base data, updaters — §5.5).
    for u in 0..users {
        Client::scan(
            &mut client,
            &KeyRange::prefix(format!("t|{}|", user_name(u))),
        );
    }
    // Reset CPU accounting after warm-up by reading a baseline.
    let sim = client.sim_mut().expect("simulated");
    let warm_busy: Vec<std::time::Duration> =
        (1..=compute_servers).map(|i| sim.busy_time(i)).collect();

    // Measured phase: checks + subscriptions + posts in the §5.1 ratio
    // (100 checks : 10 subscriptions : 1 post).
    let checks = scale.count(users as u64 * 20);
    let new_tweet = Value::from_static(b"new tweet");
    let mut executed_checks = 0u64;
    for _ in 0..checks {
        let r = rng.gen_range(0..111u32);
        if r < 100 {
            let u = rng.gen_range(0..users);
            Client::scan(
                &mut client,
                &KeyRange::new(
                    format!("t|{}|{:010}", user_name(u), time.saturating_sub(50)),
                    Key::from(format!("t|{}|", user_name(u)))
                        .prefix_end()
                        .unwrap(),
                ),
            );
            executed_checks += 1;
        } else if r < 110 {
            let u = rng.gen_range(0..users);
            let p = rng.gen_range(0..users);
            Client::put(&mut client, &Key::from(sub_key(u, p)), &one);
        } else {
            let poster = rng.gen_range(0..users);
            Client::put(
                &mut client,
                &Key::from(post_key(poster, time, false)),
                &new_tweet,
            );
            time += 1;
        }
    }
    let sim = client.sim_mut().expect("simulated");
    sim.run_until_quiet();

    // Throughput = checks / busiest compute server CPU second.
    let max_busy = (1..=compute_servers)
        .map(|i| sim.busy_time(i) - warm_busy[(i - 1) as usize])
        .max()
        .unwrap_or_default();
    let qps = executed_checks as f64 / max_busy.as_secs_f64().max(1e-9);
    let traffic = sim.net.traffic;
    let sub_frac = traffic.subscription_bytes as f64
        / (traffic.subscription_bytes + traffic.client_bytes) as f64;
    let compute_memory: u64 = (1..=compute_servers)
        .map(|i| sim.node(i).engine.memory_bytes() as u64)
        .sum();
    let bytes = [traffic.client_bytes, traffic.subscription_bytes];
    (qps, sub_frac, compute_memory, bytes)
}

fn main() {
    let scale = Scale::from_args();
    let users = scale.count(4000) as u32;
    let mut rows = Vec::new();
    let mut first_qps = None;
    for servers in [1u32, 2, 4, 8] {
        let (qps, sub_frac, mem, bytes) = run_cluster(servers, users, &scale);
        let base = *first_qps.get_or_insert(qps);
        rows.push(vec![
            servers.to_string(),
            format!("{:.0}", qps / 1000.0),
            format!("{:.2}x", qps / base),
            format!("{:.1}%", sub_frac * 100.0),
            bytes[0].to_string(),
            bytes[1].to_string(),
            format!("{:.1}", mem as f64 / (1 << 20) as f64),
        ]);
    }
    print_table(
        "Figure 10 — simulated throughput vs compute servers",
        &[
            "compute servers",
            "kqps (per busiest-server cpu-s)",
            "speedup",
            "subscription traffic",
            "client bytes",
            "subscription bytes",
            "compute memory MiB",
        ],
        &rows,
    );
    println!(
        "\npaper shape: 4x more compute servers -> ~3x throughput (sub-linear:\n\
         per-server base-data duplication grows), subscription share of network\n\
         bytes rises (paper: 10% -> 16%), total compute memory grows with servers."
    );
}
