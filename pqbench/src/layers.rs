//! The only place pqbench names the repository's crates. Everything the
//! benchmark touches goes through these re-exports, so a refactor that
//! moves one of them breaks one file, and the surface the numbers depend
//! on is readable at a glance.

pub use pequod_core::{
    Client, Command, Durability, DurableOp, Engine, EngineConfig, MemoryLimit, Response,
};
pub use pequod_net::codec::{encode_frame, FrameDecoder};
pub use pequod_net::Message;
pub use pequod_persist::{attach, FsyncPolicy, PersistOptions};
pub use pequod_store::{Key, Store, StoreConfig, Value};
pub use pequod_workloads::twip::{post_key, sub_key, timeline_range, user_name, TIMELINE_JOIN};
pub use pequod_workloads::{GraphConfig, SocialGraph};
