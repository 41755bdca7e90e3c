//! The four workloads: their fixed sizes, the seeded request streams,
//! and the model the oracle checks the server against.
//!
//! Everything the server sees is generated here from `--seed` and
//! pre-encoded into wire frames before any clock starts, so the timed
//! phase spends generator CPU on I/O only and the same seed gives a
//! byte-identical stream.

use crate::layers::{
    encode_frame, post_key, sub_key, timeline_range, user_name, GraphConfig, Key, Message,
    SocialGraph, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One workload's fixed shape. Sizes are the seed calibration recorded
/// in README.md; they are constants so both sides of a comparison do
/// identical work.
#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub users: u32,
    pub initial_posts: u32,
    /// Percent of ops that are login / subscribe / check / post.
    pub mix: [u32; 4],
    /// Timed ops per `--seconds` second: the op count is fixed as
    /// `seconds × rate`, so the timed phase lasts about `--seconds` on
    /// the calibration box and exactly as many ops everywhere.
    pub ops_per_second: u64,
    /// `--mem-limit-mb` for the server (and the traced engine).
    pub mem_limit_mb: Option<usize>,
    /// Serve with `--data-dir`, `--fsync never`, `--snapshot-every`.
    pub durable: bool,
}

/// Connections of the end-to-end run. The in-process replay uses one.
pub const CONNS: usize = 2;

/// Snapshot cadence of the durable workload, in logged records.
pub const SNAPSHOT_EVERY: u64 = 5000;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "twip.check",
        users: 3000,
        initial_posts: 9000,
        mix: [5, 9, 85, 1],
        ops_per_second: 30_000,
        mem_limit_mb: None,
        durable: false,
    },
    Spec {
        name: "twip.post",
        users: 3000,
        initial_posts: 9000,
        mix: [3, 7, 80, 10],
        ops_per_second: 23_000,
        mem_limit_mb: None,
        durable: false,
    },
    Spec {
        name: "twip.cold",
        users: 6000,
        initial_posts: 18000,
        mix: [30, 4, 65, 1],
        ops_per_second: 3_000,
        mem_limit_mb: Some(16),
        durable: false,
    },
    // twip.post's exact stream (same users, mix and rate, hence the same
    // generated bytes); only the server flags differ, so the difference
    // between the two is the persist layer.
    Spec {
        name: "twip.durable",
        users: 3000,
        initial_posts: 9000,
        mix: [3, 7, 80, 10],
        ops_per_second: 23_000,
        mem_limit_mb: None,
        durable: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Login,
    Subscribe,
    Check,
    Post,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Login, Kind::Subscribe, Kind::Check, Kind::Post];
}

/// Request frames for one connection, back to back in one buffer so a
/// run of consecutive frames goes out in one write. The request id of
/// frame `i` is `i`.
#[derive(Default, PartialEq, Eq, Debug)]
pub struct Frames {
    pub bytes: Vec<u8>,
    /// `ends[i]` is the offset one past frame `i`.
    pub ends: Vec<usize>,
    /// `replies[i]` is how many replies answer frame `i`: one, or for a
    /// `Batch` frame one per request in it.
    pub replies: Vec<u32>,
}

/// Puts per `Batch` frame while bulk loading.
const LOAD_BATCH: usize = 128;

impl Frames {
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }

    pub fn frame(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.ends[i]]
    }

    /// Appends `make(id)` as the next frame.
    pub fn push(&mut self, make: impl FnOnce(u64) -> Message) {
        let msg = make(self.ends.len() as u64);
        self.replies.push(match &msg {
            Message::Batch { msgs } => msgs.len() as u32,
            _ => 1,
        });
        self.bytes.extend_from_slice(&encode_frame(&msg));
        self.ends.push(self.bytes.len());
    }

    /// Appends `puts` as `Batch` frames of [`LOAD_BATCH`]; every request
    /// in a frame carries the frame's id.
    fn push_load(&mut self, puts: &[(String, String)]) {
        for chunk in puts.chunks(LOAD_BATCH) {
            self.push(|id| Message::Batch {
                msgs: chunk
                    .iter()
                    .map(|(k, v)| put(id, k.clone(), v.clone()))
                    .collect(),
            });
        }
    }
}

/// What the server must hold once every request has been answered:
/// final subscriptions × all posts. Built by the generator alone, never
/// from a reply.
pub struct Model {
    /// `subs[u]`: everyone `u` follows at the end.
    subs: Vec<BTreeSet<u32>>,
    /// `posts[p]`: times of every post by `p`.
    posts: Vec<Vec<u64>>,
}

impl Model {
    /// The exact full-timeline scan result for `user`.
    pub fn timeline(&self, user: u32) -> Vec<(Key, Value)> {
        let mut entries: Vec<(u64, u32)> = self.subs[user as usize]
            .iter()
            .flat_map(|&p| self.posts[p as usize].iter().map(move |&t| (t, p)))
            .collect();
        // Fixed-width times and names: key order is (time, poster) order.
        entries.sort_unstable();
        entries
            .into_iter()
            .map(|(t, p)| {
                (
                    Key::from(format!("t|{}|{t:010}|{}", user_name(user), user_name(p))),
                    Value::from(tweet(p, t).into_bytes()),
                )
            })
            .collect()
    }

    /// Every base pair the server acknowledged, as `(key, value)`.
    pub fn base_writes(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        for (u, followees) in self.subs.iter().enumerate() {
            for &p in followees {
                out.push((Key::from(sub_key(u as u32, p)), Value::from_static(b"1")));
            }
        }
        for (p, times) in self.posts.iter().enumerate() {
            for &t in times {
                let p = p as u32;
                out.push((
                    Key::from(post_key(p, t, false)),
                    Value::from(tweet(p, t).into_bytes()),
                ));
            }
        }
        out
    }

    pub fn users(&self) -> u32 {
        self.subs.len() as u32
    }
}

/// The tweet text carries its own key, so a value copied to the wrong
/// timeline entry fails the oracle.
fn tweet(poster: u32, time: u64) -> String {
    format!(
        "tweet {time:010} by {}: fresh off the press",
        user_name(poster)
    )
}

/// A generated workload: set-up stages and the timed stream, each split
/// over `conns` connections (users by `user % conns`, posts by
/// `poster % conns`), plus the model.
pub struct Workload {
    /// Set-up stages in order: graph, initial posts, one login per
    /// active user (§5.5 warm-up).
    pub setup: [Vec<Frames>; 3],
    pub timed: Vec<Frames>,
    /// `kinds[c][i]` is the kind of `timed[c]` frame `i`.
    pub kinds: Vec<Vec<Kind>>,
    pub model: Model,
}

impl Workload {
    /// `ops` timed operations over `conns` connections ([`CONNS`], or 1).
    /// With one connection the single stream is the global generation
    /// order, which is what the in-process trace replays.
    pub fn generate(spec: &Spec, seed: u64, ops: u64, conns: usize) -> Workload {
        let n = spec.users;
        let graph = SocialGraph::generate(&GraphConfig {
            users: n,
            avg_followees: 40.0_f64.min(n as f64 / 4.0),
            zipf_alpha: 1.2,
            seed,
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7717_0b5e);
        let mut model = Model {
            subs: (0..n)
                .map(|u| graph.followees(u).iter().copied().collect())
                .collect(),
            posts: vec![Vec::new(); n as usize],
        };
        let conn_of = |u: u32| u as usize % conns;
        let stage = || (0..conns).map(|_| Frames::default()).collect::<Vec<_>>();

        let mut puts = vec![Vec::new(); conns];
        for u in 0..n {
            for &p in graph.followees(u) {
                puts[conn_of(u)].push((sub_key(u, p), "1".to_string()));
            }
        }
        let mut load_graph = stage();
        for (frames, puts) in load_graph.iter_mut().zip(&puts) {
            frames.push_load(puts);
        }

        // Posters are drawn with weight log(followers) (§5.1), by
        // systematic sampling: every seed gives each poster its exact
        // share of the posts (±1) in a seeded order. Independent draws
        // would let the number of celebrity posts, and with it fan-out,
        // timeline length and memory, swing by several percent between
        // seeds, which is noise to every metric here.
        let mut cumulative = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for u in 0..n {
            total += graph.post_weight(u);
            cumulative.push(total);
        }
        let posters = |rng: &mut StdRng, count: u64| {
            let offset = rng.gen::<f64>();
            let mut picked: Vec<u32> = (0..count)
                .map(|k| (k as f64 + offset) / count as f64 * total)
                .map(|x| (cumulative.partition_point(|&c| c < x) as u32).min(n - 1))
                .collect();
            shuffle(&mut picked, rng);
            picked
        };

        let mut time = 1u64;
        let mut puts = vec![Vec::new(); conns];
        for p in posters(&mut rng, spec.initial_posts as u64) {
            puts[conn_of(p)].push((post_key(p, time, false), tweet(p, time)));
            model.posts[p as usize].push(time);
            time += 1;
        }
        let mut load_posts = stage();
        for (frames, puts) in load_posts.iter_mut().zip(&puts) {
            frames.push_load(puts);
        }

        // Active users: a seeded 70% sample of each connection's users,
        // so the connections get equal shares of the timed ops. (A plain
        // 70% sample splits up to 5% unevenly, and the longer stream
        // then finishes alone at a lower rate.)
        let mut active = Vec::new();
        for c in 0..CONNS as u32 {
            let mut class: Vec<u32> = (0..n).filter(|u| u % CONNS as u32 == c).collect();
            shuffle(&mut class, &mut rng);
            class.truncate(((class.len() as f64 * 0.7).round() as usize).max(1));
            active.extend(class);
        }
        let mut last_seen = vec![0u64; n as usize];
        let mut logins = stage();
        for &u in &active {
            logins[conn_of(u)].push(|id| scan(id, u, 0));
            last_seen[u as usize] = time;
        }

        // The mix, exactly, in a seeded order (checks take the rounding).
        let share = |kind: Kind| ops * spec.mix[kind as usize] as u64 / 100;
        let (logins_n, subscribes_n, posts_n) = (
            share(Kind::Login),
            share(Kind::Subscribe),
            share(Kind::Post),
        );
        let mut order = Vec::with_capacity(ops as usize);
        for (kind, count) in [
            (Kind::Login, logins_n),
            (Kind::Subscribe, subscribes_n),
            (Kind::Post, posts_n),
            (Kind::Check, ops - logins_n - subscribes_n - posts_n),
        ] {
            order.extend(std::iter::repeat_n(kind, count as usize));
        }
        shuffle(&mut order, &mut rng);
        let mut next_poster = posters(&mut rng, posts_n).into_iter();

        let mut timed = stage();
        let mut kinds = vec![Vec::new(); conns];
        for kind in order {
            let u = match kind {
                Kind::Post => next_poster.next().expect("one poster per post"),
                _ => active[rng.gen_range(0..active.len())],
            };
            let frames = &mut timed[conn_of(u)];
            match kind {
                Kind::Login => {
                    frames.push(|id| scan(id, u, 0));
                    last_seen[u as usize] = time;
                }
                Kind::Subscribe => {
                    let p = rng.gen_range(0..n);
                    frames.push(|id| put(id, sub_key(u, p), "1".into()));
                    model.subs[u as usize].insert(p);
                }
                Kind::Check => {
                    frames.push(|id| scan(id, u, last_seen[u as usize]));
                    last_seen[u as usize] = time;
                }
                Kind::Post => {
                    frames.push(|id| put(id, post_key(u, time, false), tweet(u, time)));
                    model.posts[u as usize].push(time);
                    time += 1;
                }
            }
            kinds[conn_of(u)].push(kind);
        }
        Workload {
            setup: [load_graph, load_posts, logins],
            timed,
            kinds,
            model,
        }
    }
}

fn put(id: u64, key: String, value: String) -> Message {
    Message::Put {
        id,
        key: Key::from(key),
        value: Value::from(value.into_bytes()),
    }
}

fn scan(id: u64, user: u32, since: u64) -> Message {
    Message::Scan {
        id,
        range: timeline_range(user, since),
    }
}

/// `Scan` frames for the full timelines of `users`, split by connection
/// like every other stage; `picked[c][i]` is the user of frame `i`.
pub fn timeline_scans(users: &[u32], conns: usize) -> (Vec<Frames>, Vec<Vec<u32>>) {
    let mut frames: Vec<Frames> = (0..conns).map(|_| Frames::default()).collect();
    let mut picked = vec![Vec::new(); conns];
    for &u in users {
        let c = u as usize % conns;
        frames[c].push(|id| scan(id, u, 0));
        picked[c].push(u);
    }
    (frames, picked)
}

/// `Get` frames for `keys` on one connection.
pub fn gets(keys: impl Iterator<Item = Key>) -> Frames {
    let mut frames = Frames::default();
    for key in keys {
        frames.push(|id| Message::Get { id, key });
    }
    frames
}

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `count` distinct seeded picks from `0..n` (all of them if `n` is
/// smaller).
pub fn sample(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut all: Vec<usize> = (0..n).collect();
    let count = count.min(n);
    for i in 0..count {
        all.swap(i, rng.gen_range(i..n));
    }
    all.truncate(count);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_differs() {
        let spec = spec("twip.post").unwrap();
        let a = Workload::generate(spec, 7, 2000, 2);
        let b = Workload::generate(spec, 7, 2000, 2);
        assert_eq!(a.setup, b.setup);
        assert_eq!(a.timed, b.timed);
        assert_eq!(a.kinds, b.kinds);
        let c = Workload::generate(spec, 8, 2000, 2);
        assert_ne!(a.timed, c.timed);
    }

    #[test]
    fn durable_replays_posts_exact_stream() {
        let post = Workload::generate(spec("twip.post").unwrap(), 3, 1500, 2);
        let durable = Workload::generate(spec("twip.durable").unwrap(), 3, 1500, 2);
        assert_eq!(post.setup, durable.setup);
        assert_eq!(post.timed, durable.timed);
    }

    #[test]
    fn streams_follow_the_mix_and_the_partition() {
        let spec = spec("twip.check").unwrap();
        let w = Workload::generate(spec, 1, 20_000, 2);
        let total: usize = w.timed.iter().map(Frames::len).sum();
        assert_eq!(total, 20_000);
        let count = |kind: Kind| w.kinds.iter().flatten().filter(|k| **k == kind).count();
        assert_eq!(
            [
                count(Kind::Login),
                count(Kind::Subscribe),
                count(Kind::Check),
                count(Kind::Post)
            ],
            [1000, 1800, 17_000, 200]
        );
        // One connection carries the same ops in generation order.
        let one = Workload::generate(spec, 1, 20_000, 1);
        assert_eq!(one.timed[0].len(), 20_000);
        assert_eq!(one.model.base_writes(), w.model.base_writes());
    }

    #[test]
    fn sample_is_distinct_and_seeded() {
        let s = sample(50, 20, 9);
        let distinct: BTreeSet<_> = s.iter().collect();
        assert_eq!(distinct.len(), 20);
        assert_eq!(s, sample(50, 20, 9));
        assert_ne!(s, sample(50, 20, 10));
        assert_eq!(sample(3, 20, 1).len(), 3);
    }
}
