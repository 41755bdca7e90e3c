//! Freshness of a cross-slot join while the slots it reads move: three
//! nodes, two replicas of each user-hashed slot, the Twip timeline join
//! read from the one node that holds none of the followees' slots. That
//! node subscribes to the followees' posts at their slot's primary; the
//! primary is then killed, the slot migrated, or a deposed primary's
//! notification arrives late. After each, the timeline must equal a
//! recompute from the acknowledged base rows.

use pequod_cluster::{ClusterClient, ClusterConfig, LinkFaults, SimHarness};
use pequod_core::partition::{ComponentHashPartition, ServerId, SingleServer};
use pequod_core::Client;
use pequod_store::{Key, KeyRange, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

const TIMELINE: &str =
    "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

/// One deployment under test and the base rows it acknowledged.
struct Twip {
    client: ClusterClient,
    cfg: ClusterConfig,
    base: BTreeMap<String, String>,
    reader: String,
    followees: Vec<String>,
    /// The followees' slot, its primary and follower, and the node
    /// holding neither — where every read goes.
    slot: u32,
    primary: u32,
    follower: u32,
    reader_node: u32,
    time: u64,
}

impl Twip {
    fn new(seed: u64) -> Twip {
        let part = Arc::new(ComponentHashPartition {
            component: 1,
            servers: 3,
        });
        let cfg = ClusterConfig::new(3, 2).with_partition(part, 3);
        let user_slot = |u: &str| cfg.slot_of(&Key::from(format!("p|{u}|")));
        let followees: Vec<String> = (0..)
            .map(|i| format!("f{i}"))
            .filter(|u| user_slot(u) == user_slot("f0"))
            .take(3)
            .collect();
        let slot = user_slot("f0");
        let replicas = cfg.initial_replicas(slot);
        let reader_node = (0..3).find(|n| !replicas.contains(n)).unwrap();
        let mut sim = SimHarness::new(&cfg, seed, 1);
        sim.run_for(100);
        let client = ClusterClient::simulated(sim)
            .with_read_router(Arc::new(SingleServer(ServerId(reader_node))));
        let mut twip = Twip {
            client,
            base: BTreeMap::new(),
            reader: "reader".into(),
            followees,
            slot,
            primary: replicas[0],
            follower: replicas[1],
            reader_node,
            time: 100,
            cfg,
        };
        twip.client.add_join(TIMELINE).unwrap();
        for f in twip.followees.clone() {
            twip.put(format!("s|{}|{f}", twip.reader), "1");
            twip.post(&f, "hello");
        }
        twip.assert_fresh("after loading");
        let primary = twip.primary;
        assert!(
            twip.sim().node(primary).subscriber_count() >= 1,
            "the reader's node subscribes at the followees' primary"
        );
        twip
    }

    fn sim(&mut self) -> &mut SimHarness {
        self.client.sim_mut().unwrap()
    }

    fn put(&mut self, key: String, value: &str) {
        self.client.put(key.clone(), value.to_string()).unwrap();
        self.base.insert(key, value.into());
    }

    /// A new post by `poster`; returns its key.
    fn post(&mut self, poster: &str, value: &str) -> String {
        self.time += 1;
        let key = format!("p|{poster}|{:010}", self.time);
        self.put(key.clone(), value);
        key
    }

    /// The reader's timeline, recomputed from the acknowledged rows.
    fn recompute(&self) -> Vec<(Key, Value)> {
        let mut out = BTreeMap::new();
        let subs = format!("s|{}|", self.reader);
        for sub in self.base.keys().filter(|k| k.starts_with(&subs)) {
            let poster = &sub[subs.len()..];
            let posts = format!("p|{poster}|");
            for (post, value) in self.base.iter().filter(|(k, _)| k.starts_with(&posts)) {
                let time = &post[posts.len()..];
                out.insert(format!("t|{}|{time}|{poster}", self.reader), value.clone());
            }
        }
        (out.into_iter())
            .map(|(k, v)| (Key::from(k), Value::from(v.into_bytes())))
            .collect()
    }

    fn assert_fresh(&mut self, when: &str) {
        let range = KeyRange::prefix(format!("t|{}|", self.reader));
        let got = Client::scan(&mut self.client, &range);
        assert_eq!(got, self.recompute(), "timeline stale {when}");
    }

    /// The node `sim` believes leads the followees' slot.
    fn leader(&mut self) -> u32 {
        let slot = self.slot;
        self.sim().first_alive_primary(slot)
    }
}

/// (a) The followees' primary dies and its follower is promoted: the
/// reader's node forgets what the dead primary served it and subscribes
/// again at the new one.
#[test]
fn a_promoted_follower_serves_the_reader_fresh_posts() {
    let mut t = Twip::new(1);
    let (dead, heir) = (t.primary, t.follower);
    t.sim().kill(dead);
    let failover = t.cfg.timing.failover_ms;
    t.sim().run_for(3 * failover);
    assert_eq!(t.leader(), heir, "the follower took over");
    for f in t.followees.clone() {
        t.post(&f, "after the failover");
    }
    t.assert_fresh("after a failover");
    assert!(t.sim().node(heir).subscriber_count() >= 1);
}

/// (b) The followees' slot is migrated, primary and all, onto the
/// reader's node: what it now holds it serves itself, fresh.
#[test]
fn a_migrated_slot_serves_the_reader_fresh_posts() {
    let mut t = Twip::new(2);
    let (slot, from, to) = (t.slot, t.primary, t.reader_node);
    t.client.migrate(slot, from, to).unwrap();
    t.sim().run_for(500);
    assert_eq!(t.leader(), to, "the slot moved");
    assert!(t.sim().node(from).slot_pairs(slot).is_empty());
    for f in t.followees.clone() {
        t.post(&f, "after the migration");
    }
    t.assert_fresh("after a migration");
}

/// (c) A write's notification from the primary is held up on the link
/// to the reader's node until after that primary was deposed and the
/// reader subscribed at the new one, which has since overwritten the
/// post: the late notification must not bring the old value back.
#[test]
fn a_deposed_primarys_late_notify_is_dropped() {
    let mut t = Twip::new(3);
    let (old, new, reader) = (t.primary, t.follower, t.reader_node);
    let slow = LinkFaults {
        delay: 3_000,
        ..LinkFaults::default()
    };
    t.sim().net.set_link_faults(old, reader, slow);
    let poster = t.followees[0].clone();
    let post = t.post(&poster, "first draft");
    // Depose the primary: cut it off until its follower promotes, then
    // let it back in and learn the new epoch.
    t.sim().net.set_down(old, true);
    let failover = t.cfg.timing.failover_ms;
    t.sim().run_for(3 * failover);
    t.sim().net.set_down(old, false);
    t.sim().run_for(500);
    let slot = t.slot;
    assert_eq!(t.sim().node(old).primary_of(slot), new, "deposed");
    t.put(post, "final");
    t.assert_fresh("after the overwrite");
    // The first draft's notification arrives now.
    t.sim().run_for(3_000);
    t.assert_fresh("after the deposed primary's notification arrived");
}
