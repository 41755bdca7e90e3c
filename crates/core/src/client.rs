//! The unified client surface: one command/response vocabulary over
//! every Pequod deployment shape.
//!
//! The paper's clients speak a single protocol — get, scan, put, remove,
//! addjoin, batched over the wire — regardless of whether they talk to
//! one cache process, a partitioned cluster, or a write-around
//! deployment in front of a database. [`Client`] reproduces that: the
//! one required method is the batched [`Client::execute_batch`], and
//! single-operation conveniences are layered on top, so a workload
//! driver written against `dyn Client` runs unchanged against
//!
//! * the in-process [`Engine`] (this crate),
//! * `pequod_cluster::ClusterClient` (a partitioned, replicated
//!   cluster — over sockets or simulated — with per-node batch
//!   pipelining; the write-around deployment, database writes and
//!   cached reads, is its `write_around`), and
//! * the comparison systems in `pequod_baselines`.
//!
//! Batching is the point, not an afterthought: a backend that owns a
//! network (the cluster) turns one `execute_batch` call into one
//! pipelined round-trip per destination server.

use crate::engine::Engine;
use pequod_store::{Key, KeyRange, Value};

/// One client operation, addressed to any [`Client`] backend.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Point read.
    Get(Key),
    /// Ordered range read.
    Scan(KeyRange),
    /// Server-side range count: the backend counts matching pairs
    /// instead of materializing them for the client.
    Count(KeyRange),
    /// Insert or replace.
    Put(Key, Value),
    /// Delete.
    Remove(Key),
    /// Install cache joins from their textual form (Figure 2 grammar).
    /// Backends without join support answer [`Response::Error`].
    AddJoin(String),
}

/// The answer to one [`Command`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Command::Get`].
    Value(Option<Value>),
    /// Answer to [`Command::Scan`]: pairs in key order.
    Pairs(Vec<(Key, Value)>),
    /// Answer to [`Command::Count`].
    Count(u64),
    /// Answer to a write or join installation that succeeded.
    Ok,
    /// The command failed; the payload is a human-readable reason.
    Error(String),
}

/// Backend counters reported by [`Client::stats`].
///
/// Multi-engine backends (the write-around deployment, the cluster
/// client) answer with the *sum* across their engines, so `memory_bytes` is the
/// deployment's whole footprint and the eviction counters record total
/// memory pressure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Live keys (or rows) resident in the backend.
    pub keys: u64,
    /// Estimated resident memory in bytes.
    pub memory_bytes: u64,
    /// Materialized join ranges evicted under memory pressure (§2.5);
    /// always 0 on join-less backends and unbounded engines.
    pub js_evictions: u64,
    /// Cached base-data tables evicted under memory pressure; always 0
    /// on join-less backends and unbounded engines.
    pub base_evictions: u64,
}

/// Multi-engine backends fold per-engine snapshots into one
/// deployment-wide total.
impl std::ops::AddAssign for BackendStats {
    fn add_assign(&mut self, rhs: BackendStats) {
        self.keys += rhs.keys;
        self.memory_bytes += rhs.memory_bytes;
        self.js_evictions += rhs.js_evictions;
        self.base_evictions += rhs.base_evictions;
    }
}

/// A connection to some Pequod-shaped serving system.
///
/// The required method is batched; the conveniences each issue a
/// one-command batch and unwrap the response. All methods take concrete
/// argument types so the trait stays object-safe — workload drivers and
/// the figure binaries hold a `Box<dyn Client>`.
///
/// # Adding a backend
///
/// Implement [`Client::backend_name`], [`Client::execute_batch`] and
/// [`Client::stats`]; answer each command with the matching
/// [`Response`] variant (never drop commands — the response vector must
/// align index-for-index with the command vector). Run the conformance suite
/// (`tests/client_conformance.rs`) to prove the backend answers the
/// shared command script identically to the existing ones.
pub trait Client {
    /// Short stable name, used by the figure binaries' `--backend` flag
    /// and results tables.
    fn backend_name(&self) -> &'static str;

    /// Executes a batch of commands, returning one response per command
    /// in order.
    ///
    /// Batching is a transport optimization, never a semantic one: a
    /// batch must answer exactly like the same commands issued one at a
    /// time (`tests/client_conformance.rs` asserts this for every
    /// backend).
    ///
    /// ```
    /// use pequod_core::{Client, Command, Engine, Response};
    /// use pequod_store::{Key, KeyRange, Value};
    ///
    /// let mut engine = Engine::new_default();
    /// let client: &mut dyn Client = &mut engine;
    /// let responses = client.execute_batch(vec![
    ///     Command::Put(Key::from("p|bob|0000000100"), Value::from_static(b"Hi")),
    ///     Command::Get(Key::from("p|bob|0000000100")),
    ///     Command::Count(KeyRange::prefix("p|")),
    ///     Command::Get(Key::from("p|zed|0000000001")), // absent
    /// ]);
    /// assert_eq!(
    ///     responses,
    ///     vec![
    ///         Response::Ok,
    ///         Response::Value(Some(Value::from_static(b"Hi"))),
    ///         Response::Count(1),
    ///         Response::Value(None),
    ///     ]
    /// );
    /// ```
    fn execute_batch(&mut self, commands: Vec<Command>) -> Vec<Response>;

    /// Executes one command.
    fn execute(&mut self, command: Command) -> Response {
        self.execute_batch(vec![command])
            .pop()
            .unwrap_or_else(|| Response::Error("backend returned no response".into()))
    }

    /// Point read; `None` if the key is absent.
    fn get(&mut self, key: &Key) -> Option<Value> {
        match self.execute(Command::Get(key.clone())) {
            Response::Value(v) => v,
            #[expect(
                clippy::panic,
                reason = "a wrong response variant is a protocol bug; these wrappers abort on it"
            )]
            other => panic!("get: unexpected response {other:?}"),
        }
    }

    /// Ordered range read.
    fn scan(&mut self, range: &KeyRange) -> Vec<(Key, Value)> {
        match self.execute(Command::Scan(range.clone())) {
            Response::Pairs(p) => p,
            #[expect(
                clippy::panic,
                reason = "a wrong response variant is a protocol bug; these wrappers abort on it"
            )]
            other => panic!("scan: unexpected response {other:?}"),
        }
    }

    /// Server-side range count.
    fn count(&mut self, range: &KeyRange) -> u64 {
        match self.execute(Command::Count(range.clone())) {
            Response::Count(n) => n,
            #[expect(
                clippy::panic,
                reason = "a wrong response variant is a protocol bug; these wrappers abort on it"
            )]
            other => panic!("count: unexpected response {other:?}"),
        }
    }

    /// Insert or replace.
    fn put(&mut self, key: &Key, value: &Value) {
        match self.execute(Command::Put(key.clone(), value.clone())) {
            Response::Ok => {}
            #[expect(
                clippy::panic,
                reason = "a wrong response variant is a protocol bug; these wrappers abort on it"
            )]
            other => panic!("put: unexpected response {other:?}"),
        }
    }

    /// Delete.
    fn remove(&mut self, key: &Key) {
        match self.execute(Command::Remove(key.clone())) {
            Response::Ok => {}
            #[expect(
                clippy::panic,
                reason = "a wrong response variant is a protocol bug; these wrappers abort on it"
            )]
            other => panic!("remove: unexpected response {other:?}"),
        }
    }

    /// Installs `;`-separated cache joins.
    fn add_join(&mut self, text: &str) -> Result<(), String> {
        match self.execute(Command::AddJoin(text.to_string())) {
            Response::Ok => Ok(()),
            Response::Error(e) => Err(e),
            #[expect(
                clippy::panic,
                reason = "a wrong response variant is a protocol bug; these wrappers abort on it"
            )]
            other => panic!("add_join: unexpected response {other:?}"),
        }
    }

    /// Backend counters, read by the backend directly: they are not a
    /// command of the protocol.
    fn stats(&mut self) -> BackendStats;
}

/// The in-process engine is itself a backend: commands apply directly,
/// with no wire or notification delay.
impl Client for Engine {
    fn backend_name(&self) -> &'static str {
        "engine"
    }

    fn execute_batch(&mut self, commands: Vec<Command>) -> Vec<Response> {
        commands
            .into_iter()
            .map(|command| match command {
                Command::Get(key) => Response::Value(self.get(&key)),
                Command::Scan(range) => Response::Pairs(self.scan(&range).pairs),
                Command::Count(range) => Response::Count(self.count(&range) as u64),
                Command::Put(key, value) => {
                    self.put(key, value);
                    Response::Ok
                }
                Command::Remove(key) => {
                    self.remove(&key);
                    Response::Ok
                }
                Command::AddJoin(text) => match self.add_joins_text(&text) {
                    Ok(_) => Response::Ok,
                    Err(e) => Response::Error(e.to_string()),
                },
            })
            .collect()
    }

    /// [`Engine::backend_stats`]: every resolution of `stats` on an
    /// `Engine` — through `&mut &mut Engine`, generic or `dyn` — ends
    /// there (`stats_cannot_recurse` below). The engine's own counters
    /// are [`Engine::engine_stats`], a different name.
    fn stats(&mut self) -> BackendStats {
        self.backend_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMELINE: &str =
        "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>";

    #[test]
    fn engine_answers_the_unified_surface() {
        let mut e = Engine::new_default();
        let c: &mut dyn Client = &mut e;
        assert_eq!(c.backend_name(), "engine");
        c.add_join(TIMELINE).unwrap();
        c.put(&Key::from("s|ann|bob"), &Value::from_static(b"1"));
        c.put(&Key::from("p|bob|0000000100"), &Value::from_static(b"Hi"));
        let tl = c.scan(&KeyRange::prefix("t|ann|"));
        assert_eq!(tl.len(), 1);
        assert_eq!(c.count(&KeyRange::prefix("t|ann|")), 1);
        assert_eq!(
            c.get(&Key::from("t|ann|0000000100|bob")).as_deref(),
            Some(&b"Hi"[..])
        );
        c.remove(&Key::from("p|bob|0000000100"));
        assert_eq!(c.count(&KeyRange::prefix("t|ann|")), 0);
        assert!(c.add_join("nonsense").is_err());
        let stats = c.stats();
        assert!(stats.keys >= 1);
        assert!(stats.memory_bytes > 0);
    }

    /// `Client::stats` on an `Engine` must agree with the inherent
    /// [`Engine::backend_stats`] through every receiver shape — direct,
    /// generic (monomorphized `&mut Engine`), double-reference, and
    /// `dyn` — and never resolve to a method that calls back into it.
    #[test]
    fn stats_cannot_recurse() {
        fn via_generic<C: Client>(c: &mut C) -> BackendStats {
            c.stats()
        }
        fn via_double_ref(e: &mut &mut Engine) -> BackendStats {
            // Autoref resolves through `&mut &mut Engine`.
            e.stats()
        }
        let mut e = Engine::new_default();
        e.put(Key::from("p|bob|0000000100"), Value::from_static(b"Hi"));
        let want = e.backend_stats();
        assert_eq!(via_generic(&mut e), want);
        assert_eq!(via_double_ref(&mut &mut e), want);
        let d: &mut dyn Client = &mut e;
        assert_eq!(d.stats(), want);
        // The engine-internal counters are a different surface with a
        // different name — no shadowing, no confusion.
        assert_eq!(e.engine_stats().writes, 1);
    }

    #[test]
    fn add_join_is_idempotent() {
        let mut e = Engine::new_default();
        let first = e.add_join_text(TIMELINE).unwrap();
        let again = e.add_join_text(TIMELINE).unwrap();
        assert_eq!(first, again, "identical spec returns the existing id");
        assert_eq!(e.join_count(), 1);
        // Maintenance fires once, not twice, per matching write.
        e.put(Key::from("s|ann|bob"), Value::from_static(b"1"));
        e.put(Key::from("p|bob|0000000100"), Value::from_static(b"Hi"));
        assert_eq!(e.count(&KeyRange::prefix("t|ann|")), 1);
    }

    #[test]
    fn batch_matches_singles() {
        let script = vec![
            Command::AddJoin(TIMELINE.to_string()),
            Command::Put(Key::from("s|ann|bob"), Value::from_static(b"1")),
            Command::Put(Key::from("p|bob|0000000100"), Value::from_static(b"Hi")),
            Command::Scan(KeyRange::prefix("t|ann|")),
            Command::Count(KeyRange::prefix("t|ann|")),
            Command::Get(Key::from("t|ann|0000000100|bob")),
        ];
        let mut batched = Engine::new_default();
        let got_batched = batched.execute_batch(script.clone());
        let mut single = Engine::new_default();
        let got_single: Vec<Response> = script.into_iter().map(|c| single.execute(c)).collect();
        assert_eq!(got_batched, got_single);
        assert_eq!(got_batched.len(), 6);
    }
}
