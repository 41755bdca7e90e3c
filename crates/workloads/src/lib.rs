//! `pequod-workloads` — the applications and workload generators of the
//! Pequod evaluation (§5).
//!
//! The paper evaluates Pequod with two applications: **Twip**, a
//! Twitter-like service whose timelines are the canonical cache join,
//! and **Newp**, a Hacker News-like service whose front page composes
//! articles, votes, and karma. This crate reproduces both as
//! deterministic, seed-keyed workloads so every figure binary produces
//! the same op stream on every machine.
//!
//! # Modules
//!
//! * [`graph`] — synthetic power-law social graphs (the substitution for
//!   the proprietary 2009 Twitter crawl; see DESIGN.md): heavy-tailed
//!   in-degree (celebrities), ~tens of followees per user, explicit
//!   seeds.
//! * [`twip`] — the Twitter-like application: key schema
//!   (`p|poster|time`, `s|user|poster`, `t|user|time|poster`), the
//!   timeline join (including celebrity handling), the
//!   [`twip::TwipBackend`] trait the comparison systems implement, the
//!   §5.1 client model (login / subscribe / check / post mix), and
//!   [`twip::run_twip`], the harness that warms, runs, and meters one
//!   experiment.
//! * [`newp`] — the Hacker News-like application with interleaved and
//!   non-interleaved configurations (Figures 1 and 9).
//! * [`rpc`] — per-RPC cost metering through the real wire codec, so
//!   in-process backends pay proportionally for the RPCs they would
//!   issue.
//! * [`zipf`] — the Zipf sampler behind graph popularity.
//!
//! # One driver, every backend
//!
//! [`twip::ClientTwip`] and [`newp::ClientNewp`] drive the same
//! workloads through the unified `pequod_core::Client` trait, so a
//! single driver runs unchanged against the in-process engine, the
//! write-around deployment, the simulated cluster, and the join-less baseline stores (which fall
//! back to client-side fan-out). This is what gives the figure
//! binaries their `--backend` flag: same commands, same meter, any
//! deployment shape.
//!
//! # Determinism
//!
//! Workload generation never consults ambient randomness: graphs, op
//! streams, and run outcomes are pure functions of the seeds in
//! [`GraphConfig`] and [`twip::TwipMix`] (the `determinism` tests
//! assert byte-identical regeneration), so results compare across runs
//! and machines.

// No first-party unsafe: the whole system is safe Rust over the
// vendored deps. Clippy's `undocumented_unsafe_blocks` would also want a
// `SAFETY:` comment on any unsafe block an allow here admitted.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod newp;
pub mod rpc;
pub mod twip;
pub mod zipf;

pub use graph::{GraphConfig, SocialGraph};
pub use newp::{run_newp, ClientNewp, NewpBackend, NewpConfig, NewpRunStats, PequodNewp};
pub use rpc::RpcMeter;
pub use twip::{
    run_twip, ClientTwip, PequodTwip, TwipBackend, TwipMix, TwipOp, TwipRunStats, TwipStrategy,
    TwipWorkload,
};
pub use zipf::Zipf;

#[cfg(test)]
mod determinism {
    //! Workload generation is keyed entirely by explicit seeds (no
    //! `thread_rng`): the same config must yield byte-identical graphs,
    //! op streams, and run outcomes, or experiment results cannot be
    //! compared across runs and machines.

    use super::*;
    use crate::twip::{run_twip, PequodTwip, TwipMix, TwipOp, TwipWorkload};
    use pequod_core::{Engine, EngineConfig};

    fn small_graph() -> GraphConfig {
        GraphConfig {
            users: 60,
            ..GraphConfig::default()
        }
    }

    #[test]
    fn social_graph_is_deterministic() {
        let cfg = small_graph();
        let a = SocialGraph::generate(&cfg);
        let b = SocialGraph::generate(&cfg);
        assert_eq!(a.users(), b.users());
        assert_eq!(a.edges(), b.edges());
        for u in 0..a.users() {
            assert_eq!(a.followees(u), b.followees(u), "followees of {u} diverged");
        }
    }

    #[test]
    fn graph_differs_across_seeds() {
        let cfg = small_graph();
        let mut other = small_graph();
        other.seed ^= 1;
        let a = SocialGraph::generate(&cfg);
        let b = SocialGraph::generate(&other);
        let diverges =
            (0..a.users()).any(|u| a.followees(u) != b.followees(u)) || a.edges() != b.edges();
        assert!(diverges, "different seeds produced identical graphs");
    }

    #[test]
    fn twip_op_stream_is_deterministic() {
        let graph = SocialGraph::generate(&small_graph());
        let mix = TwipMix {
            checks_per_user: 10,
            seed: 42,
            ..TwipMix::default()
        };
        let a = TwipWorkload::generate(&graph, &mix);
        let b = TwipWorkload::generate(&graph, &mix);
        assert_eq!(a.warm, b.warm);
        assert_eq!(a.ops, b.ops);
        assert!(a.ops.iter().any(|op| matches!(op, TwipOp::Check(_))));
    }

    #[test]
    fn twip_run_outcome_is_deterministic() {
        let graph = SocialGraph::generate(&small_graph());
        let mix = TwipMix {
            checks_per_user: 5,
            seed: 9,
            ..TwipMix::default()
        };
        let workload = TwipWorkload::generate(&graph, &mix);
        let run = || {
            let mut backend = PequodTwip::new(Engine::new(EngineConfig::default()));
            let stats = run_twip(&mut backend, &graph, &workload, 200);
            (
                stats.ops,
                stats.entries_returned,
                stats.rpcs,
                stats.rpc_bytes,
            )
        };
        assert_eq!(run(), run());
    }
}
