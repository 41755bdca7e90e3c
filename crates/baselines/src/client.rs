//! Unified-API clients for the comparison systems.
//!
//! The Figure 7 experiment can only compare caching strategies when
//! every system answers the same command stream, so each baseline also
//! exposes a generic key-value [`Client`]. The data structures mirror
//! each system's real storage model:
//!
//! * [`RedisClient`] — a flat key space with cheap point operations
//!   and no server-side range support. A range read is a `SCAN` +
//!   client-side filter in the real system; here the simulation store
//!   is kept ordered so experiments stay tractable, and the *cost* of
//!   the extra round trips and transferred bytes is what the workload
//!   drivers charge through the RPC meter.
//! * [`MemcachedClient`] — the same flat store; it differs from Redis
//!   in the Twip-specific backends (string-append timelines), not at
//!   the raw KV layer.
//! * [`MiniDbClient`] — a `kv(key, value)` table in [`MiniDb`] with a
//!   B-tree index on `key`: range reads and counts are served by real
//!   index scans, and every write pays heap + index + WAL costs.
//!
//! None of the three supports cache joins: [`Command::AddJoin`] answers
//! [`Response::Error`], which is itself part of the contract — a driver
//! that needs server-side computation falls back to client-side fan-out
//! (see `pequod_workloads::twip::ClientTwip`).

use crate::minidb::{MiniDb, Val};
use pequod_core::{BackendStats, Client, Command, Response};
use pequod_store::{Key, KeyRange, UpperBound, Value};
use std::collections::BTreeMap;
use std::ops::Bound;

/// The `(lo, hi)` bounds of a `KeyRange` for `BTreeMap::range`.
fn bounds(range: &KeyRange) -> (Bound<Key>, Bound<Key>) {
    let hi = match &range.end {
        UpperBound::Excluded(k) => Bound::Excluded(k.clone()),
        UpperBound::Unbounded => Bound::Unbounded,
    };
    (Bound::Included(range.first.clone()), hi)
}

/// Answers one generic KV command against the shared flat store of the
/// Redis-like and memcached-like clients.
fn flat_execute(map: &mut BTreeMap<Key, Value>, name: &str, command: Command) -> Response {
    match command {
        Command::Get(key) => Response::Value(map.get(&key).cloned()),
        Command::Scan(range) => {
            if range.is_empty() {
                return Response::Pairs(Vec::new());
            }
            let pairs: Vec<(Key, Value)> = map
                .range(bounds(&range))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            Response::Pairs(pairs)
        }
        Command::Count(range) => {
            if range.is_empty() {
                return Response::Count(0);
            }
            Response::Count(map.range(bounds(&range)).count() as u64)
        }
        Command::Put(key, value) => {
            map.insert(key, value);
            Response::Ok
        }
        Command::Remove(key) => {
            map.remove(&key);
            Response::Ok
        }
        Command::AddJoin(_) => Response::Error(format!("{name}: cache joins are not supported")),
    }
}

/// The counters of the Redis-like and memcached-like clients' flat
/// store: its pairs, each charged its bytes plus 48 of bookkeeping.
fn flat_stats(map: &BTreeMap<Key, Value>) -> BackendStats {
    BackendStats {
        keys: map.len() as u64,
        memory_bytes: (map.iter())
            .map(|(k, v)| k.as_bytes().len() + v.len() + 48)
            .sum::<usize>() as u64,
        ..BackendStats::default()
    }
}

/// A Redis-like unified-API backend over the shared flat store.
#[derive(Default)]
pub struct RedisClient {
    map: BTreeMap<Key, Value>,
}

impl RedisClient {
    /// Creates an empty store.
    pub fn new() -> RedisClient {
        RedisClient::default()
    }
}

impl Client for RedisClient {
    fn backend_name(&self) -> &'static str {
        "redis"
    }

    fn execute_batch(&mut self, commands: Vec<Command>) -> Vec<Response> {
        commands
            .into_iter()
            .map(|c| flat_execute(&mut self.map, "redis", c))
            .collect()
    }

    fn stats(&mut self) -> BackendStats {
        flat_stats(&self.map)
    }
}

/// A memcached-like unified-API backend over the shared flat store.
#[derive(Default)]
pub struct MemcachedClient {
    map: BTreeMap<Key, Value>,
}

impl MemcachedClient {
    /// Creates an empty store.
    pub fn new() -> MemcachedClient {
        MemcachedClient::default()
    }
}

impl Client for MemcachedClient {
    fn backend_name(&self) -> &'static str {
        "memcached"
    }

    fn execute_batch(&mut self, commands: Vec<Command>) -> Vec<Response> {
        commands
            .into_iter()
            .map(|c| flat_execute(&mut self.map, "memcached", c))
            .collect()
    }

    fn stats(&mut self) -> BackendStats {
        flat_stats(&self.map)
    }
}

/// The relational baseline as a unified-API backend: one `kv(key,
/// value)` table with a B-tree index on `key`. Values are stored as
/// text (`Val::Str`), like a SQL `TEXT` column — binary-unsafe values
/// are not representable, matching the real system's constraint.
pub struct MiniDbClient {
    db: MiniDb,
}

impl Default for MiniDbClient {
    fn default() -> Self {
        MiniDbClient::new()
    }
}

impl MiniDbClient {
    /// Creates the schema.
    pub fn new() -> MiniDbClient {
        let mut db = MiniDb::new();
        db.create_table("kv", 2);
        db.create_index("kv", &[0]);
        MiniDbClient { db }
    }

    /// The underlying engine (stats).
    pub fn db(&self) -> &MiniDb {
        &self.db
    }

    fn key_val(key: &Key) -> Val {
        Val::Str(String::from_utf8_lossy(key.as_bytes()).into_owned())
    }

    fn range_bounds(range: &KeyRange) -> (Vec<Val>, Option<Vec<Val>>) {
        let lo = vec![Self::key_val(&range.first)];
        let hi = range.end.as_key().map(|k| vec![Self::key_val(k)]);
        (lo, hi)
    }

    fn row_pair(row: &[Val]) -> (Key, Value) {
        let (Val::Str(k), Val::Str(v)) = (&row[0], &row[1]) else {
            unreachable!("kv rows are text");
        };
        (
            Key::from(k.as_bytes().to_vec()),
            Value::from(v.as_bytes().to_vec()),
        )
    }
}

impl Client for MiniDbClient {
    fn backend_name(&self) -> &'static str {
        "minidb"
    }

    fn execute_batch(&mut self, commands: Vec<Command>) -> Vec<Response> {
        commands
            .into_iter()
            .map(|command| match command {
                Command::Get(key) => {
                    let rows = self.db.select_eq("kv", &[0], &[Self::key_val(&key)]);
                    Response::Value(rows.first().map(|r| Self::row_pair(r).1))
                }
                Command::Scan(range) => {
                    if range.is_empty() {
                        return Response::Pairs(Vec::new());
                    }
                    let (lo, hi) = Self::range_bounds(&range);
                    let rows = self.db.query_scan("kv", &[0], &lo, hi.as_deref());
                    Response::Pairs(rows.iter().map(|r| Self::row_pair(r)).collect())
                }
                Command::Count(range) => {
                    if range.is_empty() {
                        return Response::Count(0);
                    }
                    let (lo, hi) = Self::range_bounds(&range);
                    Response::Count(self.db.count_range("kv", &[0], &lo, hi.as_deref()) as u64)
                }
                Command::Put(key, value) => {
                    // SQL upsert: DELETE + INSERT through the index.
                    let kv = Self::key_val(&key);
                    self.db.delete_eq("kv", &[0], std::slice::from_ref(&kv));
                    self.db.insert(
                        "kv",
                        vec![kv, Val::Str(String::from_utf8_lossy(&value).into_owned())],
                    );
                    Response::Ok
                }
                Command::Remove(key) => {
                    self.db.delete_eq("kv", &[0], &[Self::key_val(&key)]);
                    Response::Ok
                }
                Command::AddJoin(_) => {
                    Response::Error("minidb: cache joins are not supported".into())
                }
            })
            .collect()
    }

    fn stats(&mut self) -> BackendStats {
        BackendStats {
            keys: self.db.row_count("kv") as u64,
            memory_bytes: self.db.memory_bytes() as u64,
            ..BackendStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(client: &mut dyn Client) {
        let k = |s: &str| Key::from(s);
        let v = |s: &str| Value::from(s.as_bytes().to_vec());
        client.put(&k("p|bob|0000000100"), &v("Hi"));
        client.put(&k("p|bob|0000000120"), &v("again"));
        client.put(&k("p|liz|0000000110"), &v("hello"));
        assert_eq!(
            client.get(&k("p|bob|0000000100")).as_deref(),
            Some(&b"Hi"[..])
        );
        assert_eq!(client.get(&k("p|zed|1")), None);
        let bob = client.scan(&KeyRange::prefix("p|bob|"));
        assert_eq!(bob.len(), 2);
        assert!(bob[0].0 < bob[1].0, "scan results are ordered");
        assert_eq!(client.count(&KeyRange::prefix("p|")), 3);
        // Overwrite replaces, not duplicates.
        client.put(&k("p|bob|0000000100"), &v("edited"));
        assert_eq!(client.count(&KeyRange::prefix("p|bob|")), 2);
        assert_eq!(
            client.get(&k("p|bob|0000000100")).as_deref(),
            Some(&b"edited"[..])
        );
        client.remove(&k("p|bob|0000000100"));
        assert_eq!(client.count(&KeyRange::prefix("p|bob|")), 1);
        assert!(client.add_join("t|<a> = copy p|<a>").is_err());
        assert_eq!(client.stats().keys, 2);
    }

    #[test]
    fn redis_client_serves_generic_kv() {
        exercise(&mut RedisClient::new());
    }

    #[test]
    fn memcached_client_serves_generic_kv() {
        exercise(&mut MemcachedClient::new());
    }

    #[test]
    fn minidb_client_serves_generic_kv() {
        let mut c = MiniDbClient::new();
        exercise(&mut c);
        // The upsert + delete really went through the index machinery.
        assert!(c.db().stats.rows_deleted >= 2);
        assert!(c.db().stats.wal_bytes > 0);
    }
}
