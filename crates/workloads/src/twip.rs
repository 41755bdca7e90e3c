//! Twip: the Twitter-like microblogging application (§2.1, §5.1).
//!
//! Key schema (fixed-width 10-digit decimal timestamps so containing
//! ranges translate exactly):
//!
//! * `p|poster|time → tweet` — posts
//! * `s|user|poster → "1"` — subscriptions
//! * `t|user|time|poster → tweet` — computed timelines
//! * `cp|`/`ct|` — celebrity posts and the time-primary helper range
//!
//! The module defines the join texts, the [`TwipBackend`] abstraction
//! the comparison systems implement, the Pequod-backed implementation,
//! and the §5.1 client model: sessions of 5% login scans, 9% new
//! subscriptions, 85% incremental timeline checks, and 1% posts, with
//! post probability proportional to the log of the poster's follower
//! count.

use crate::graph::SocialGraph;
use crate::rpc::RpcMeter;
use pequod_core::{Client, Command, Engine, Response};
use pequod_net::Message;
use pequod_store::{Key, KeyRange, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Timestamp width in digits.
pub const TIME_WIDTH: usize = 10;

/// The ordinary timeline join (§2.2).
pub const TIMELINE_JOIN: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

/// The celebrity joins (§2.3): a push helper collating celebrity posts
/// in time-primary order, plus a pull join filtering them through the
/// reader's subscriptions.
pub const CELEBRITY_JOINS: &str = r#"
    ct|<time:10>|<poster> = copy cp|<poster>|<time:10>;
    t|<user>|<time:10>|<poster> = pull copy ct|<time:10>|<poster> check s|<user>|<poster>
"#;

/// Formats a user id.
pub fn user_name(u: u32) -> String {
    format!("u{u:07}")
}

/// `p|poster|time` (or `cp|` for celebrities).
pub fn post_key(poster: u32, time: u64, celebrity: bool) -> String {
    let table = if celebrity { "cp" } else { "p" };
    format!("{table}|{}|{time:0w$}", user_name(poster), w = TIME_WIDTH)
}

/// `s|user|poster`.
pub fn sub_key(user: u32, poster: u32) -> String {
    format!("s|{}|{}", user_name(user), user_name(poster))
}

/// The half-open timeline range for checks since `since`.
pub fn timeline_range(user: u32, since: u64) -> KeyRange {
    let first = format!("t|{}|{since:0w$}", user_name(user), w = TIME_WIDTH);
    let end = Key::from(format!("t|{}|", user_name(user)))
        .prefix_end()
        .expect("timeline prefix has an end");
    KeyRange::new(first, end)
}

/// The operations a Twip serving system must support. Every comparison
/// system in the Figure 7 experiment implements this.
pub trait TwipBackend {
    /// Human-readable system name.
    fn name(&self) -> &'static str;
    /// Bulk-load the social graph (untimed setup).
    fn load_graph(&mut self, graph: &SocialGraph);
    /// Bulk-load an initial post (untimed setup).
    fn load_post(&mut self, poster: u32, time: u64, text: &str);
    /// A user posts a tweet.
    fn post(&mut self, poster: u32, time: u64, text: &str);
    /// A user subscribes to a poster.
    fn subscribe(&mut self, user: u32, poster: u32);
    /// A timeline check: return the number of entries at or after
    /// `since`.
    fn check(&mut self, user: u32, since: u64) -> usize;
    /// RPCs issued since the last reset.
    fn rpcs(&self) -> u64;
    /// Wire bytes metered since the last reset.
    fn rpc_bytes(&self) -> u64;
    /// Resets the meter (after untimed setup).
    fn reset_meter(&mut self);
    /// Estimated resident memory.
    fn memory_bytes(&mut self) -> usize;
}

/// Twip served by a Pequod engine with the timeline cache join:
/// clients write posts and subscriptions and scan timelines; the cache
/// does everything else.
pub struct PequodTwip {
    /// The engine (exposed for stats).
    pub engine: Engine,
    meter: RpcMeter,
    /// Users whose posts go to the celebrity tables.
    celebrities: Vec<u32>,
    rpc_cost: (u64, u64),
}

impl PequodTwip {
    /// Creates the backend and installs the timeline join.
    pub fn new(engine: Engine) -> PequodTwip {
        Self::with_celebrities(engine, Vec::new())
    }

    /// Creates the backend with celebrity handling (§2.3) for the given
    /// users.
    pub fn with_celebrities(mut engine: Engine, celebrities: Vec<u32>) -> PequodTwip {
        engine.add_joins_text(TIMELINE_JOIN).expect("timeline join");
        if !celebrities.is_empty() {
            engine
                .add_joins_text(CELEBRITY_JOINS)
                .expect("celebrity joins");
        }
        PequodTwip {
            engine,
            meter: RpcMeter::new(),
            celebrities,
            rpc_cost: (
                crate::rpc::DEFAULT_RPC_COST_NS,
                crate::rpc::DEFAULT_RPC_COST_PER_KB_NS,
            ),
        }
    }

    fn is_celebrity(&self, u: u32) -> bool {
        self.celebrities.contains(&u)
    }

    /// Overrides the RPC cost model (0 measures pure engine work).
    pub fn set_rpc_cost(&mut self, cost_ns: u64, per_kb_ns: u64) {
        self.meter.set_cost(cost_ns, per_kb_ns);
        self.rpc_cost = (cost_ns, per_kb_ns);
    }
}

impl TwipBackend for PequodTwip {
    fn name(&self) -> &'static str {
        "pequod"
    }

    fn load_graph(&mut self, graph: &SocialGraph) {
        for u in 0..graph.users() {
            for &p in graph.followees(u) {
                self.engine.put(sub_key(u, p), "1");
            }
        }
    }

    fn load_post(&mut self, poster: u32, time: u64, text: &str) {
        let celeb = self.is_celebrity(poster);
        self.engine
            .put(post_key(poster, time, celeb), text.to_string());
    }

    fn post(&mut self, poster: u32, time: u64, text: &str) {
        let celeb = self.is_celebrity(poster);
        let key = Key::from(post_key(poster, time, celeb));
        let value = pequod_store::Value::from(text.as_bytes().to_vec());
        self.meter.put(&key, &value);
        self.engine.put(key, value);
    }

    fn subscribe(&mut self, user: u32, poster: u32) {
        let key = Key::from(sub_key(user, poster));
        let value = pequod_store::Value::from_static(b"1");
        self.meter.put(&key, &value);
        self.engine.put(key, value);
    }

    fn check(&mut self, user: u32, since: u64) -> usize {
        let range = timeline_range(user, since);
        let res = self.engine.scan(&range);
        debug_assert!(res.is_complete());
        self.meter.scan_with_reply(&range.first, &res.pairs);
        res.pairs.len()
    }

    fn rpcs(&self) -> u64 {
        self.meter.rpcs
    }

    fn rpc_bytes(&self) -> u64 {
        self.meter.bytes
    }

    fn reset_meter(&mut self) {
        self.meter = RpcMeter::new();
        self.meter.set_cost(self.rpc_cost.0, self.rpc_cost.1);
    }

    fn memory_bytes(&mut self) -> usize {
        self.engine.memory_bytes()
    }
}

/// How a deployment keeps timelines fresh when Twip is driven through
/// the unified [`Client`] API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TwipStrategy {
    /// The backend supports cache joins: install [`TIMELINE_JOIN`] and
    /// let the server maintain timelines (Pequod deployments).
    ServerJoins,
    /// No server-side computation: the client fans each post out to
    /// every follower's timeline and backfills new subscriptions itself
    /// (the paper's "client Pequod" discipline, which also fits the
    /// Redis-like, memcached-like, and relational baselines).
    ClientFanout,
}

/// Twip driven entirely through the unified [`Client`] API: the same
/// driver runs against the in-process engine, the write-around
/// deployment, the simulated cluster, and every Figure 7 baseline.
///
/// Multi-key operations (fan-out, backfill) are issued as one
/// [`Client::execute_batch`] call, so backends that own a network
/// pipeline them; timeline checks use [`Command::Count`], so backends
/// count server-side instead of shipping pairs that the driver would
/// only count. Every logical RPC is metered through the real wire codec
/// (one request frame per command, plus reply frames for reads),
/// identically for every backend.
pub struct ClientTwip {
    client: Box<dyn Client>,
    strategy: TwipStrategy,
    name: &'static str,
    meter: RpcMeter,
    rpc_cost: (u64, u64),
}

impl ClientTwip {
    /// Wraps a backend. Under [`TwipStrategy::ServerJoins`] the timeline
    /// join is installed immediately (panics if the backend rejects
    /// joins — use [`TwipStrategy::ClientFanout`] for join-less
    /// backends).
    pub fn new(mut client: Box<dyn Client>, strategy: TwipStrategy) -> ClientTwip {
        if strategy == TwipStrategy::ServerJoins {
            client
                .add_join(TIMELINE_JOIN)
                .expect("backend rejected the timeline join; use TwipStrategy::ClientFanout");
        }
        ClientTwip {
            name: client.backend_name(),
            client,
            strategy,
            meter: RpcMeter::new(),
            rpc_cost: (
                crate::rpc::DEFAULT_RPC_COST_NS,
                crate::rpc::DEFAULT_RPC_COST_PER_KB_NS,
            ),
        }
    }

    /// Overrides the RPC cost model (0 measures pure backend work).
    pub fn set_rpc_cost(&mut self, cost_ns: u64, per_kb_ns: u64) {
        self.meter.set_cost(cost_ns, per_kb_ns);
        self.rpc_cost = (cost_ns, per_kb_ns);
    }

    fn reverse_key(poster: u32, user: u32) -> String {
        format!("rs|{}|{}", user_name(poster), user_name(user))
    }

    /// The followers of `poster` via the reverse index (fan-out mode).
    fn followers(&mut self, poster: u32, metered: bool) -> Vec<String> {
        let range = KeyRange::prefix(format!("rs|{}|", user_name(poster)));
        let pairs = self.client.scan(&range);
        if metered {
            self.meter.scan_with_reply(&range.first, &pairs);
        }
        pairs
            .iter()
            .map(|(k, _)| String::from_utf8_lossy(k.components().last().unwrap()).into_owned())
            .collect()
    }

    /// Issues a batch of puts as one pipelined `execute_batch` call,
    /// metering one request frame per put.
    fn put_batch(&mut self, puts: Vec<(Key, Value)>, metered: bool) {
        if puts.is_empty() {
            return;
        }
        if metered {
            for (k, v) in &puts {
                self.meter.put(k, v);
            }
        }
        let commands = puts.into_iter().map(|(k, v)| Command::Put(k, v)).collect();
        for r in self.client.execute_batch(commands) {
            debug_assert!(matches!(r, Response::Ok), "put failed: {r:?}");
        }
    }
}

impl TwipBackend for ClientTwip {
    fn name(&self) -> &'static str {
        self.name
    }

    fn load_graph(&mut self, graph: &SocialGraph) {
        for u in 0..graph.users() {
            let mut puts: Vec<(Key, Value)> = Vec::new();
            for &p in graph.followees(u) {
                puts.push((Key::from(sub_key(u, p)), Value::from_static(b"1")));
                if self.strategy == TwipStrategy::ClientFanout {
                    puts.push((Key::from(Self::reverse_key(p, u)), Value::from_static(b"1")));
                }
            }
            self.put_batch(puts, false);
        }
    }

    fn load_post(&mut self, poster: u32, time: u64, text: &str) {
        let value = Value::from(text.as_bytes().to_vec());
        let mut puts = vec![(Key::from(post_key(poster, time, false)), value.clone())];
        if self.strategy == TwipStrategy::ClientFanout {
            for f in self.followers(poster, false) {
                puts.push((
                    Key::from(format!("t|{f}|{time:010}|{}", user_name(poster))),
                    value.clone(),
                ));
            }
        }
        self.put_batch(puts, false);
    }

    fn post(&mut self, poster: u32, time: u64, text: &str) {
        let value = Value::from(text.as_bytes().to_vec());
        let pkey = Key::from(post_key(poster, time, false));
        match self.strategy {
            TwipStrategy::ServerJoins => {
                self.meter.put(&pkey, &value);
                self.client.put(&pkey, &value);
            }
            TwipStrategy::ClientFanout => {
                let mut puts = vec![(pkey, value.clone())];
                for f in self.followers(poster, true) {
                    puts.push((
                        Key::from(format!("t|{f}|{time:010}|{}", user_name(poster))),
                        value.clone(),
                    ));
                }
                self.put_batch(puts, true);
            }
        }
    }

    fn subscribe(&mut self, user: u32, poster: u32) {
        let skey = Key::from(sub_key(user, poster));
        let one = Value::from_static(b"1");
        match self.strategy {
            TwipStrategy::ServerJoins => {
                self.meter.put(&skey, &one);
                self.client.put(&skey, &one);
            }
            TwipStrategy::ClientFanout => {
                let mut puts = vec![
                    (skey, one.clone()),
                    (Key::from(Self::reverse_key(poster, user)), one),
                ];
                // Backfill from the poster's existing tweets.
                let prange = KeyRange::prefix(format!("p|{}|", user_name(poster)));
                let posts = self.client.scan(&prange);
                self.meter.scan_with_reply(&prange.first, &posts);
                for (k, v) in posts {
                    let time = k.components().nth(2).unwrap().to_vec();
                    puts.push((
                        Key::from(
                            [
                                b"t|".as_slice(),
                                user_name(user).as_bytes(),
                                b"|",
                                &time,
                                b"|",
                                user_name(poster).as_bytes(),
                            ]
                            .concat(),
                        ),
                        v,
                    ));
                }
                self.put_batch(puts, true);
            }
        }
    }

    fn check(&mut self, user: u32, since: u64) -> usize {
        // Server-side count: the timeline length comes back as one small
        // reply, not as the materialized pairs.
        let range = timeline_range(user, since);
        let n = self.client.count(&range);
        self.meter.rpc(&Message::Count {
            id: 0,
            range: range.clone(),
        });
        self.meter.rpc(&Message::count_reply(0, n));
        n as usize
    }

    fn rpcs(&self) -> u64 {
        self.meter.rpcs
    }

    fn rpc_bytes(&self) -> u64 {
        self.meter.bytes
    }

    fn reset_meter(&mut self) {
        self.meter = RpcMeter::new();
        self.meter.set_cost(self.rpc_cost.0, self.rpc_cost.1);
    }

    fn memory_bytes(&mut self) -> usize {
        self.client.stats().memory_bytes as usize
    }
}

/// One workload operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TwipOp {
    /// Full timeline scan ("log in").
    Login(u32),
    /// Incremental timeline check.
    Check(u32),
    /// Follow a new poster.
    Subscribe(u32, u32),
    /// Post a tweet.
    Post(u32),
}

/// Client-model parameters (§5.1).
#[derive(Clone, Debug)]
pub struct TwipMix {
    /// Fraction of users that are active.
    pub active_fraction: f64,
    /// Incremental checks per active user (drives total op count).
    pub checks_per_user: u32,
    /// Percent of operations that are logins / subscriptions / checks /
    /// posts; must sum to 100.
    pub mix: [f64; 4],
    /// RNG seed.
    pub seed: u64,
}

impl Default for TwipMix {
    fn default() -> Self {
        TwipMix {
            active_fraction: 0.7,
            checks_per_user: 50,
            mix: [5.0, 9.0, 85.0, 1.0],
            seed: 0x7717,
        }
    }
}

/// A pre-generated deterministic operation stream.
pub struct TwipWorkload {
    /// Users logged in (full timeline scan) during untimed warm-up,
    /// matching the paper's cache warming (§5.5: "each active user is
    /// logged into the system prior to the experiment").
    pub warm: Vec<u32>,
    /// The operations in execution order.
    pub ops: Vec<TwipOp>,
}

impl TwipWorkload {
    /// Generates the §5.1 session stream over a social graph.
    pub fn generate(graph: &SocialGraph, mix: &TwipMix) -> TwipWorkload {
        let mut rng = StdRng::seed_from_u64(mix.seed);
        let n = graph.users();
        let active_count = ((n as f64) * mix.active_fraction).round().max(1.0) as u32;
        // Active users: a deterministic sample.
        let mut users: Vec<u32> = (0..n).collect();
        for i in (1..n as usize).rev() {
            let j = rng.gen_range(0..=i);
            users.swap(i, j);
        }
        let active = &users[..active_count as usize];
        let total_ops =
            ((active_count as u64) * (mix.checks_per_user as u64)) as f64 / (mix.mix[2] / 100.0);
        let total_ops = total_ops.round() as u64;
        // Posters weighted by log(follower count).
        let weights: Vec<f64> = (0..n).map(|u| graph.post_weight(u)).collect();
        let total_weight: f64 = weights.iter().sum();
        let mut ops = Vec::with_capacity(total_ops as usize);
        let warm = active.to_vec();
        for _ in 0..total_ops {
            let r = rng.gen::<f64>() * 100.0;
            let op = if r < mix.mix[0] {
                TwipOp::Login(active[rng.gen_range(0..active.len())])
            } else if r < mix.mix[0] + mix.mix[1] {
                let user = active[rng.gen_range(0..active.len())];
                let poster = rng.gen_range(0..n);
                TwipOp::Subscribe(user, poster)
            } else if r < mix.mix[0] + mix.mix[1] + mix.mix[2] {
                TwipOp::Check(active[rng.gen_range(0..active.len())])
            } else {
                // Weighted poster selection.
                let mut pick = rng.gen::<f64>() * total_weight;
                let mut poster = 0u32;
                for (u, w) in weights.iter().enumerate() {
                    pick -= w;
                    if pick <= 0.0 {
                        poster = u as u32;
                        break;
                    }
                }
                TwipOp::Post(poster)
            };
            ops.push(op);
        }
        TwipWorkload { warm, ops }
    }

    /// Counts ops by kind: `[logins, subscribes, checks, posts]`.
    pub fn histogram(&self) -> [u64; 4] {
        let mut h = [0u64; 4];
        for op in &self.ops {
            match op {
                TwipOp::Login(_) => h[0] += 1,
                TwipOp::Subscribe(..) => h[1] += 1,
                TwipOp::Check(_) => h[2] += 1,
                TwipOp::Post(_) => h[3] += 1,
            }
        }
        h
    }
}

/// Result of driving a workload through a backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct TwipRunStats {
    /// Wall-clock seconds for the timed phase.
    pub elapsed: f64,
    /// Operations executed.
    pub ops: u64,
    /// Timeline entries returned across all checks.
    pub entries_returned: u64,
    /// RPCs issued by the backend.
    pub rpcs: u64,
    /// Wire bytes metered.
    pub rpc_bytes: u64,
    /// Backend memory after the run.
    pub memory_bytes: usize,
}

/// Drives a workload against a backend: untimed setup (graph + initial
/// posts), then the timed op stream.
pub fn run_twip(
    backend: &mut dyn TwipBackend,
    graph: &SocialGraph,
    workload: &TwipWorkload,
    initial_posts: u64,
) -> TwipRunStats {
    // Setup: graph plus initial posts distributed by post weight.
    backend.load_graph(graph);
    let mut rng = StdRng::seed_from_u64(0xbeef);
    let weights: Vec<f64> = (0..graph.users()).map(|u| graph.post_weight(u)).collect();
    let total_weight: f64 = weights.iter().sum();
    let mut time = 1u64;
    for _ in 0..initial_posts {
        let mut pick = rng.gen::<f64>() * total_weight;
        let mut poster = 0u32;
        for (u, w) in weights.iter().enumerate() {
            pick -= w;
            if pick <= 0.0 {
                poster = u as u32;
                break;
            }
        }
        backend.load_post(poster, time, "an initial tweet of reasonable length!");
        time += 1;
    }
    // Warm-up: log every active user in, untimed (§5.5).
    let mut last_seen = vec![0u64; graph.users() as usize];
    for &u in &workload.warm {
        backend.check(u, 0);
        last_seen[u as usize] = time;
    }
    backend.reset_meter();

    // Timed phase.
    let mut stats = TwipRunStats::default();
    let start = std::time::Instant::now();
    for op in &workload.ops {
        match *op {
            TwipOp::Login(u) => {
                stats.entries_returned += backend.check(u, 0) as u64;
                last_seen[u as usize] = time;
            }
            TwipOp::Check(u) => {
                stats.entries_returned += backend.check(u, last_seen[u as usize]) as u64;
                last_seen[u as usize] = time;
            }
            TwipOp::Subscribe(u, p) => backend.subscribe(u, p),
            TwipOp::Post(p) => {
                backend.post(p, time, "a brand new tweet, fresh off the press");
                time += 1;
            }
        }
        stats.ops += 1;
    }
    stats.elapsed = start.elapsed().as_secs_f64();
    stats.rpcs = backend.rpcs();
    stats.rpc_bytes = backend.rpc_bytes();
    stats.memory_bytes = backend.memory_bytes();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphConfig;
    use pequod_core::EngineConfig;

    fn small_graph() -> SocialGraph {
        SocialGraph::generate(&GraphConfig {
            users: 300,
            avg_followees: 8.0,
            zipf_alpha: 1.2,
            seed: 3,
        })
    }

    #[test]
    fn workload_matches_requested_mix() {
        let g = small_graph();
        let mix = TwipMix {
            active_fraction: 0.5,
            checks_per_user: 20,
            ..TwipMix::default()
        };
        let w = TwipWorkload::generate(&g, &mix);
        let h = w.histogram();
        assert_eq!(w.warm.len(), 150);
        let total: u64 = h.iter().sum::<u64>();
        // checks ≈ 85%
        let checks_pct = h[2] as f64 / total as f64 * 100.0;
        assert!((80.0..90.0).contains(&checks_pct), "checks {checks_pct}%");
        // subs ≈ 9%
        let subs_pct = h[1] as f64 / total as f64 * 100.0;
        assert!((6.0..12.0).contains(&subs_pct), "subs {subs_pct}%");
        // posts ≈ 1%
        let posts_pct = h[3] as f64 / total as f64 * 100.0;
        assert!((0.3..2.5).contains(&posts_pct), "posts {posts_pct}%");
    }

    #[test]
    fn pequod_backend_serves_workload() {
        let g = small_graph();
        let mix = TwipMix {
            active_fraction: 0.4,
            checks_per_user: 5,
            seed: 5,
            ..TwipMix::default()
        };
        let w = TwipWorkload::generate(&g, &mix);
        let mut backend = PequodTwip::new(Engine::new(EngineConfig::default()));
        let stats = run_twip(&mut backend, &g, &w, 500);
        assert_eq!(stats.ops, w.ops.len() as u64);
        assert!(stats.entries_returned > 0, "timelines should have tweets");
        assert!(stats.rpcs >= stats.ops, "every op costs at least one rpc");
        assert!(backend.engine.materialized_ranges() > 0);
    }

    #[test]
    fn celebrity_backend_saves_memory() {
        let g = small_graph();
        let celebs = g.celebrities(3);
        let mix = TwipMix {
            active_fraction: 0.4,
            checks_per_user: 5,
            seed: 6,
            ..TwipMix::default()
        };
        let w = TwipWorkload::generate(&g, &mix);
        let mut plain = PequodTwip::new(Engine::new(EngineConfig::default()));
        let plain_stats = run_twip(&mut plain, &g, &w, 500);
        let mut celeb = PequodTwip::with_celebrities(Engine::new(EngineConfig::default()), celebs);
        let celeb_stats = run_twip(&mut celeb, &g, &w, 500);
        // Same timeline entries delivered either way.
        assert_eq!(plain_stats.entries_returned, celeb_stats.entries_returned);
        // Celebrity posts are not copied into every follower's timeline,
        // so the celebrity configuration stores less.
        assert!(
            celeb_stats.memory_bytes < plain_stats.memory_bytes,
            "celebrity {} vs plain {}",
            celeb_stats.memory_bytes,
            plain_stats.memory_bytes
        );
    }

    #[test]
    fn unified_driver_matches_direct_backend() {
        let g = small_graph();
        let mix = TwipMix {
            active_fraction: 0.4,
            checks_per_user: 5,
            seed: 5,
            ..TwipMix::default()
        };
        let w = TwipWorkload::generate(&g, &mix);
        let mut direct = PequodTwip::new(Engine::new(EngineConfig::default()));
        let s_direct = run_twip(&mut direct, &g, &w, 500);
        let mut unified = ClientTwip::new(
            Box::new(Engine::new(EngineConfig::default())),
            TwipStrategy::ServerJoins,
        );
        let s_unified = run_twip(&mut unified, &g, &w, 500);
        // The unified command path serves the identical timelines.
        assert_eq!(s_direct.entries_returned, s_unified.entries_returned);
        assert_eq!(unified.name(), "engine");
    }

    #[test]
    fn client_fanout_matches_server_joins() {
        let g = small_graph();
        let mix = TwipMix {
            active_fraction: 0.4,
            checks_per_user: 4,
            seed: 7,
            ..TwipMix::default()
        };
        let w = TwipWorkload::generate(&g, &mix);
        let mut joins = ClientTwip::new(
            Box::new(Engine::new(EngineConfig::default())),
            TwipStrategy::ServerJoins,
        );
        let s_joins = run_twip(&mut joins, &g, &w, 300);
        // The same backend type without joins: the driver fans out.
        let mut fanout = ClientTwip::new(
            Box::new(Engine::new(EngineConfig::default())),
            TwipStrategy::ClientFanout,
        );
        let s_fanout = run_twip(&mut fanout, &g, &w, 300);
        assert_eq!(s_joins.entries_returned, s_fanout.entries_returned);
        // ...and pays many more RPCs for it.
        assert!(
            s_fanout.rpcs > s_joins.rpcs,
            "fanout {} vs joins {}",
            s_fanout.rpcs,
            s_joins.rpcs
        );
    }

    #[test]
    fn timeline_range_formats_fixed_width() {
        let r = timeline_range(12, 34);
        assert_eq!(r.first, Key::from("t|u0000012|0000000034"));
        assert!(r.contains(&Key::from("t|u0000012|0000000100|u0000001")));
        assert!(!r.contains(&Key::from("t|u0000012|0000000033")));
        assert!(!r.contains(&Key::from("t|u0000013|0000000100|x")));
    }
}
