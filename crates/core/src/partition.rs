//! Partition functions: mapping key ranges to home servers (§2.4).
//!
//! "Each base key has a home server to which updates are directed (a
//! partition function maps key ranges to home servers)." Computed data
//! is placed by client routing instead — e.g. Twip sends all timeline
//! checks for user `u` to server `S(u)`.
//!
//! The same routing logic is used at two scales: `pequod_cluster` maps
//! keys to the replication slots of server *processes* in a distributed
//! deployment, and [`crate::ShardedEngine`] routes them to
//! single-threaded engine *shards* within one process.

use pequod_store::{Key, KeyRange, UpperBound, SEP};

/// A server identity within one deployment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ServerId(pub u32);

/// Maps keys to their home server.
pub trait Partition: Send + Sync {
    /// The home server of `key`.
    fn home_of(&self, key: &Key) -> ServerId;

    /// The single home serving *every* key in `range`, when the
    /// partition can prove one exists; `None` means the range may span
    /// homes (e.g. a whole-table scan under a component-hash partition)
    /// and the caller must gather from all of them. The default is the
    /// conservative `None`.
    fn home_of_range(&self, range: &KeyRange) -> Option<ServerId> {
        let _ = range;
        None
    }

    /// Every server that homes some key, when the partition knows them;
    /// a range no single home serves is gathered from these. `None` (the
    /// default) means every server of the deployment.
    fn homes(&self) -> Option<Vec<ServerId>> {
        None
    }
}

/// True if every key in `range` must start with `prefix` — i.e. the
/// range lies inside the prefix's lexicographic block. Sound, not
/// complete: `false` only means "cannot prove it".
fn range_within_prefix(prefix: &Key, range: &KeyRange) -> bool {
    if !range.first.starts_with(prefix.as_bytes()) {
        return false;
    }
    match (&range.end, prefix.prefix_end()) {
        (UpperBound::Excluded(e), Some(pe)) => *e <= pe,
        _ => false,
    }
}

/// Everything lives on one server.
#[derive(Clone, Copy, Debug)]
pub struct SingleServer(pub ServerId);

impl Partition for SingleServer {
    fn home_of(&self, _key: &Key) -> ServerId {
        self.0
    }

    fn home_of_range(&self, _range: &KeyRange) -> Option<ServerId> {
        Some(self.0)
    }
}

/// Assigns whole tables (first key component) to servers, with a
/// default for unlisted tables.
#[derive(Clone, Debug)]
pub struct TablePartition {
    map: Vec<(Key, ServerId)>,
    default: ServerId,
}

impl TablePartition {
    /// Creates a table partition with the given default home.
    pub fn new(default: ServerId) -> TablePartition {
        TablePartition {
            map: Vec::new(),
            default,
        }
    }

    /// Routes the table owning `prefix` to `server`.
    pub fn route(mut self, prefix: impl Into<Key>, server: ServerId) -> TablePartition {
        self.map.push((prefix.into(), server));
        self
    }
}

impl Partition for TablePartition {
    fn home_of(&self, key: &Key) -> ServerId {
        let table = key.table_prefix();
        self.map
            .iter()
            .find(|(p, _)| *p == table)
            .map(|(_, s)| *s)
            .unwrap_or(self.default)
    }

    fn home_of_range(&self, range: &KeyRange) -> Option<ServerId> {
        // Whole tables home together, so any range inside one table's
        // block has that table's home.
        let table = range.first.table_prefix();
        (table.as_bytes().last() == Some(&SEP) && range_within_prefix(&table, range))
            .then(|| self.home_of(&range.first))
    }
}

/// Hashes one `|`-separated key component across `n` servers: the Twip
/// deployment hashes the user/poster component so a user's posts,
/// subscriptions, and timeline land on one server.
#[derive(Clone, Copy, Debug)]
pub struct ComponentHashPartition {
    /// Which component to hash (0 = table name, 1 = user, ...).
    pub component: usize,
    /// Number of servers.
    pub servers: u32,
}

impl ComponentHashPartition {
    /// The server a raw component value hashes to.
    pub fn server_for_component(&self, component: &[u8]) -> ServerId {
        ServerId((fnv1a(component) % self.servers as u64) as u32)
    }
}

impl Partition for ComponentHashPartition {
    fn home_of(&self, key: &Key) -> ServerId {
        let comp = key
            .components()
            .nth(self.component)
            .unwrap_or(key.as_bytes());
        self.server_for_component(comp)
    }

    fn home_of_range(&self, range: &KeyRange) -> Option<ServerId> {
        // A range homes to one server only if every key in it shares
        // the hashed component: the range must lie inside the block of
        // a prefix that runs through that component's trailing
        // separator (so the component is complete — `p|bo` proves
        // nothing about `p|bob|…` vs `p|bone|…`).
        let p = range.first.component_prefix(self.component + 1);
        let complete = p.as_bytes().iter().filter(|&&b| b == SEP).count() == self.component + 1;
        (complete && range_within_prefix(&p, range)).then(|| self.home_of(&range.first))
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_partition_routes_by_table() {
        let p = TablePartition::new(ServerId(0))
            .route("p|", ServerId(1))
            .route("s|", ServerId(2));
        assert_eq!(p.home_of(&Key::from("p|bob|100")), ServerId(1));
        assert_eq!(p.home_of(&Key::from("s|ann|bob")), ServerId(2));
        assert_eq!(p.home_of(&Key::from("t|ann|1")), ServerId(0));
    }

    #[test]
    fn component_hash_is_stable_and_colocates() {
        let p = ComponentHashPartition {
            component: 1,
            servers: 4,
        };
        // A user's posts and subscriptions land on the same server.
        let a = p.home_of(&Key::from("p|bob|100"));
        let b = p.home_of(&Key::from("s|bob|ann"));
        assert_eq!(a, b);
        assert_eq!(a, p.home_of(&Key::from("p|bob|999")));
        assert!(a.0 < 4);
        // Different users spread across servers (statistically).
        let homes: std::collections::HashSet<u32> = (0..64)
            .map(|i| p.home_of(&Key::from(format!("p|user{i}|1"))).0)
            .collect();
        assert!(homes.len() > 1);
    }

    #[test]
    fn single_server_routes_everything_home() {
        let p = SingleServer(ServerId(3));
        assert_eq!(p.home_of(&Key::from("anything")), ServerId(3));
        assert_eq!(p.home_of_range(&KeyRange::prefix("p|")), Some(ServerId(3)));
    }

    #[test]
    fn table_partition_proves_single_table_ranges() {
        let p = TablePartition::new(ServerId(0)).route("p|", ServerId(1));
        // Whole-table and sub-table ranges home to the table's server.
        assert_eq!(p.home_of_range(&KeyRange::prefix("p|")), Some(ServerId(1)));
        assert_eq!(
            p.home_of_range(&KeyRange::prefix("p|bob|")),
            Some(ServerId(1))
        );
        assert_eq!(
            p.home_of_range(&KeyRange::new("p|bob|100", "p|liz|200")),
            Some(ServerId(1))
        );
        // Ranges crossing tables or unbounded cannot be proven.
        assert_eq!(p.home_of_range(&KeyRange::new("p|zz", "s|aa")), None);
        assert_eq!(
            p.home_of_range(&KeyRange::with_bound(
                Key::from("p|"),
                pequod_store::UpperBound::Unbounded
            )),
            None
        );
    }

    #[test]
    fn component_hash_proves_only_complete_component_ranges() {
        let p = ComponentHashPartition {
            component: 1,
            servers: 4,
        };
        // One user's block is provably one home, matching home_of.
        assert_eq!(
            p.home_of_range(&KeyRange::prefix("p|bob|")),
            Some(p.home_of(&Key::from("p|bob|100")))
        );
        assert_eq!(
            p.home_of_range(&KeyRange::single(Key::from("p|bob|100"))),
            Some(p.home_of(&Key::from("p|bob|100")))
        );
        // A whole table spans users, so no single home...
        assert_eq!(p.home_of_range(&KeyRange::prefix("p|")), None);
        // ...and a truncated component proves nothing (`p|bo` admits
        // both `p|bob|…` and `p|bone|…`).
        assert_eq!(p.home_of_range(&KeyRange::new("p|bo", "p|bod")), None);
    }
}
