//! Newp: the Hacker News-like aggregator with user karma (§2.3, §5.4).
//!
//! Key schema:
//!
//! * `article|author|id → text`
//! * `comment|author|id|cid|commenter → text`
//! * `vote|author|id|voter → "1"`
//! * `karma|author → count` — votes across all of an author's articles
//! * `rank|author|id → count` — votes on one article
//! * `page|author|id|… ` — the interleaved page range of Figure 1
//!
//! Two configurations reproduce the Figure 9 comparison: *interleaved*
//! (one `page|` scan returns everything needed to render an article) and
//! *non-interleaved* (the application issues separate reads for the
//! article, its rank, its comments, and each commenter's karma).

use crate::rpc::RpcMeter;
use pequod_core::Client;
use pequod_store::{Key, KeyRange, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Joins shared by both configurations: per-article rank and per-author
/// karma.
pub const NEWP_BASE_JOINS: &str = r#"
    karma|<author> = count vote|<author>|<id>|<voter>;
    rank|<author>|<id> = count vote|<author>|<id>|<voter>
"#;

/// The interleaved page joins of Figure 1.
pub const NEWP_PAGE_JOINS: &str = r#"
    page|<author>|<id>|a = copy article|<author>|<id>;
    page|<author>|<id>|r = copy rank|<author>|<id>;
    page|<author>|<id>|c|<cid>|<commenter> = copy comment|<author>|<id>|<cid>|<commenter>;
    page|<author>|<id>|k|<cid>|<commenter> =
        check comment|<author>|<id>|<cid>|<commenter> copy karma|<commenter>
"#;

/// Formats a user id.
pub fn user(u: u32) -> String {
    format!("n{u:06}")
}

/// Formats an article id.
pub fn article_id(a: u32) -> String {
    format!("{a:07}")
}

/// Newp driven through the unified [`Client`] API: the same driver runs
/// against the in-process engine, the write-around deployment, or the
/// simulated cluster (Newp needs cache joins, so join-less baselines
/// are out of scope), in either configuration.
pub struct ClientNewp {
    client: Box<dyn Client>,
    meter: RpcMeter,
    interleaved: bool,
    rpc_cost: (u64, u64),
}

impl ClientNewp {
    /// Wraps a join-capable backend; `interleaved` selects the Figure 1
    /// page joins versus separate per-range reads.
    pub fn new(mut client: Box<dyn Client>, interleaved: bool) -> ClientNewp {
        client
            .add_join(NEWP_BASE_JOINS)
            .expect("backend rejected the Newp base joins");
        if interleaved {
            client
                .add_join(NEWP_PAGE_JOINS)
                .expect("backend rejected the Newp page joins");
        }
        ClientNewp {
            client,
            meter: RpcMeter::new(),
            interleaved,
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

    /// Renders an article page; returns the number of data items read.
    pub fn read_article(&mut self, author: u32, id: u32) -> usize {
        let author_s = user(author);
        let id_s = article_id(id);
        if self.interleaved {
            // One scan returns the article, rank, comments, and karma.
            let range = KeyRange::prefix(format!("page|{author_s}|{id_s}|"));
            let pairs = self.client.scan(&range);
            self.meter.scan_with_reply(&range.first, &pairs);
            pairs.len()
        } else {
            // Separate reads: article, rank, comments, then karma per
            // commenter (two round trips; many RPCs).
            let mut items = 0;
            let akey = Key::from(format!("article|{author_s}|{id_s}"));
            let a = self.client.get(&akey);
            self.meter.get_with_reply(&akey, a.as_ref());
            items += a.is_some() as usize;
            let rkey = Key::from(format!("rank|{author_s}|{id_s}"));
            let r = self.client.get(&rkey);
            self.meter.get_with_reply(&rkey, r.as_ref());
            items += r.is_some() as usize;
            let crange = KeyRange::prefix(format!("comment|{author_s}|{id_s}|"));
            let comments = self.client.scan(&crange);
            self.meter.scan_with_reply(&crange.first, &comments);
            items += comments.len();
            for (ckey, _) in &comments {
                // The last component is the commenter.
                let commenter = ckey.components().last().unwrap().to_vec();
                let kkey = Key::from([b"karma|".as_slice(), &commenter].concat());
                let k = self.client.get(&kkey);
                self.meter.get_with_reply(&kkey, k.as_ref());
                items += k.is_some() as usize;
            }
            items
        }
    }

    /// Records a vote.
    pub fn vote(&mut self, author: u32, id: u32, voter: u32) {
        let key = Key::from(format!(
            "vote|{}|{}|{}",
            user(author),
            article_id(id),
            user(voter)
        ));
        let value = Value::from_static(b"1");
        self.meter.put(&key, &value);
        self.client.put(&key, &value);
    }

    /// Adds a comment.
    pub fn comment(&mut self, author: u32, id: u32, cid: u32, commenter: u32, text: &str) {
        let key = Key::from(format!(
            "comment|{}|{}|{cid:06}|{}",
            user(author),
            article_id(id),
            user(commenter)
        ));
        let value = Value::from(text.as_bytes().to_vec());
        self.meter.put(&key, &value);
        self.client.put(&key, &value);
    }

    /// Loads a pre-population row without metering.
    pub fn load(&mut self, key: String, value: &str) {
        self.client
            .put(&Key::from(key), &Value::from(value.as_bytes().to_vec()));
    }

    /// RPCs issued.
    pub fn rpcs(&self) -> u64 {
        self.meter.rpcs
    }

    /// Resets the RPC meter.
    pub fn reset_meter(&mut self) {
        self.meter = RpcMeter::new();
        self.meter.set_cost(self.rpc_cost.0, self.rpc_cost.1);
    }
}

/// Newp pre-population and session parameters (§5.4: 100K articles, 50K
/// users, 1M comments, 2M votes; 20M sessions — scaled by the harness).
#[derive(Clone, Debug)]
pub struct NewpConfig {
    /// Number of articles.
    pub articles: u32,
    /// Number of users.
    pub users: u32,
    /// Pre-populated comments.
    pub comments: u32,
    /// Pre-populated votes.
    pub votes: u32,
    /// Sessions to run.
    pub sessions: u32,
    /// Probability a session votes (the Figure 9 x-axis).
    pub vote_rate: f64,
    /// Probability a session comments.
    pub comment_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NewpConfig {
    fn default() -> Self {
        NewpConfig {
            articles: 1000,
            users: 500,
            comments: 10_000,
            votes: 20_000,
            sessions: 20_000,
            vote_rate: 0.1,
            comment_rate: 0.01,
            seed: 0x9e99,
        }
    }
}

/// Result of a Newp run.
#[derive(Clone, Copy, Debug, Default)]
pub struct NewpRunStats {
    /// Wall-clock seconds for the timed phase.
    pub elapsed: f64,
    /// Sessions executed.
    pub sessions: u64,
    /// Data items read across all article renders.
    pub items_read: u64,
    /// RPCs issued.
    pub rpcs: u64,
}

/// Article authorship is deterministic: article `a` belongs to user
/// `a % users`.
pub fn author_of(article: u32, users: u32) -> u32 {
    article % users
}

/// Pre-populates and runs Newp sessions: each session reads a random
/// article, votes with probability `vote_rate`, and comments with
/// probability `comment_rate` (§5.4).
pub fn run_newp(backend: &mut ClientNewp, cfg: &NewpConfig) -> NewpRunStats {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Pre-population (untimed).
    for a in 0..cfg.articles {
        let author = author_of(a, cfg.users);
        backend.load(
            format!("article|{}|{}", user(author), article_id(a)),
            "Breaking: ordered key-value caches considered useful",
        );
    }
    for c in 0..cfg.comments {
        let a = rng.gen_range(0..cfg.articles);
        let author = author_of(a, cfg.users);
        let commenter = rng.gen_range(0..cfg.users);
        backend.load(
            format!(
                "comment|{}|{}|{c:06}|{}",
                user(author),
                article_id(a),
                user(commenter)
            ),
            "insightful remark",
        );
    }
    for _ in 0..cfg.votes {
        let a = rng.gen_range(0..cfg.articles);
        let author = author_of(a, cfg.users);
        let voter = rng.gen_range(0..cfg.users);
        backend.load(
            format!("vote|{}|{}|{}", user(author), article_id(a), user(voter)),
            "1",
        );
    }
    backend.reset_meter();

    // Timed sessions.
    let mut stats = NewpRunStats::default();
    let mut next_cid = cfg.comments;
    let start = std::time::Instant::now();
    for _ in 0..cfg.sessions {
        let a = rng.gen_range(0..cfg.articles);
        let author = author_of(a, cfg.users);
        let visitor = rng.gen_range(0..cfg.users);
        stats.items_read += backend.read_article(author, a) as u64;
        if rng.gen::<f64>() < cfg.vote_rate {
            backend.vote(author, a, visitor);
        }
        if rng.gen::<f64>() < cfg.comment_rate {
            backend.comment(author, a, next_cid, visitor, "late to the thread");
            next_cid += 1;
        }
        stats.sessions += 1;
    }
    stats.elapsed = start.elapsed().as_secs_f64();
    stats.rpcs = backend.rpcs();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use pequod_core::{Engine, EngineConfig};

    fn tiny() -> NewpConfig {
        NewpConfig {
            articles: 50,
            users: 20,
            comments: 200,
            votes: 400,
            sessions: 300,
            vote_rate: 0.2,
            comment_rate: 0.05,
            seed: 11,
        }
    }

    fn over_engine(interleaved: bool) -> ClientNewp {
        ClientNewp::new(Box::new(Engine::new(EngineConfig::default())), interleaved)
    }

    /// An article's `page|` range, its keys as text.
    fn page(b: &mut ClientNewp, author: &str, id: &str) -> Vec<(String, Value)> {
        let range = KeyRange::prefix(format!("page|{author}|{id}|"));
        (b.client.scan(&range).into_iter())
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    #[test]
    fn interleaved_and_separate_read_the_same_data() {
        let cfg = tiny();
        let mut il = over_engine(true);
        let s1 = run_newp(&mut il, &cfg);
        let mut sep = over_engine(false);
        let s2 = run_newp(&mut sep, &cfg);
        assert_eq!(s1.sessions, s2.sessions);
        // Interleaved pages contain the same logical items: article +
        // rank + comments + karma-per-comment. Renders agree as long as
        // both sides saw the same vote/comment history. (Item counts can
        // differ by the rank/karma rows that only exist when votes
        // exist, so compare loosely.)
        assert!(s1.items_read > 0 && s2.items_read > 0);
        // Interleaved issues far fewer RPCs per read.
        assert!(
            s1.rpcs < s2.rpcs,
            "interleaved {} should be < separate {}",
            s1.rpcs,
            s2.rpcs
        );
    }

    #[test]
    fn page_scan_contains_all_item_classes() {
        let mut b = over_engine(true);
        b.load("article|n000001|0000003".into(), "the article");
        b.load("comment|n000001|0000003|000001|n000002".into(), "hi");
        b.load("vote|n000001|0000003|n000005".into(), "1");
        // The commenter's karma: a vote on one of n000002's articles.
        b.load("vote|n000002|0000009|n000005".into(), "1");
        let items = b.read_article(1, 3);
        // a, r, c, k = 4 items
        assert_eq!(items, 4);
        let keys: Vec<String> = (page(&mut b, "n000001", "0000003").into_iter())
            .map(|(k, _)| k)
            .collect();
        assert!(keys.iter().any(|k| k.ends_with("|a")));
        assert!(keys.iter().any(|k| k.ends_with("|r")));
        assert!(keys.iter().any(|k| k.contains("|c|")));
        assert!(keys.iter().any(|k| k.contains("|k|")));
    }

    #[test]
    fn votes_update_rank_and_karma_in_pages() {
        let mut b = over_engine(true);
        b.load("article|n000001|0000003".into(), "the article");
        b.read_article(1, 3);
        b.vote(1, 3, 7);
        b.vote(1, 3, 8);
        let page = page(&mut b, "n000001", "0000003");
        let rank = (page.iter())
            .find(|(k, _)| k.ends_with("|r"))
            .expect("rank row");
        assert_eq!(&rank.1[..], b"2");
    }
}
