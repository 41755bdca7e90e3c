//! `cargo xtask` — workspace automation for the Pequod reproduction.
//!
//! Subcommands:
//!
//! * `audit` — a hand-rolled, zero-dependency lexical lint pass over
//!   the first-party crates. There is no registry access in the build
//!   environment, so no `syn`; the auditor works on lines and tokens,
//!   the same discipline as the vendored-deps build.
//! * `bench-index` — validates the `BENCH_*.json` artifacts every
//!   bench binary's `--json` flag emits against the shared row schema
//!   (see `bench_index.rs`), so field names can never drift apart
//!   between binaries again.
//! * `lines` — the first-party line ledger: non-test lines per source
//!   root and in total (see `lines.rs`).
//!
//! Rules (see `docs/CORRECTNESS.md` for the full contract):
//!
//! * `no-unwrap` — `unwrap()` / `expect()` / `panic!` / `todo!` are
//!   denied in non-test serving-path code (`core`, `net`, `store`,
//!   `join`, `persist`).
//! * `safety-comment` — every `unsafe` occurrence needs a `// SAFETY:`
//!   comment on the same or one of the three preceding lines.
//! * `wall-clock` — `std::time::SystemTime` / `Instant::now` are
//!   forbidden outside `bench` and `workloads`: the serving path must
//!   stay deterministic (the simulator's virtual clock is the only
//!   time source experiments may observe). The rule is *scoped*: the
//!   telemetry crate alone is waived for `Instant::now` (monotonic
//!   latency measurement) while `SystemTime` stays denied even there
//!   (see `docs/OBSERVABILITY.md` for the waiver rationale).
//! * `lock-across-io` — in `net`, a `Mutex` guard bound by `let` must
//!   not be held across a socket I/O call, and no single statement may
//!   both lock and perform I/O.
//!
//! Any rule can be waived per-site with an annotation on the flagged
//! line or anywhere in the contiguous `//` comment block immediately
//! above it:
//!
//! ```text
//! // audit: allow(no-unwrap) — <reason the site is sound>
//! ```
//!
//! The reason is mandatory; a bare `allow` is itself a violation.
//!
//! `cargo xtask audit --self-test` seeds each violation class into a
//! temp directory and asserts the auditor catches it (and that the
//! exemptions — test code, annotations, strings, comments — hold), so
//! a silently broken linter fails CI.

// No first-party unsafe: the whole system is safe Rust over the
// vendored deps. `cargo xtask audit` additionally requires a SAFETY
// comment on any future unsafe block an allow here would admit.
#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

mod bench_index;
mod lexer;
mod lines;
mod rules;
mod selftest;

pub use lexer::FileText;
pub use rules::{audit_source, CrateRules, Violation};

/// First-party source roots and which rules apply to each.
///
/// `no-unwrap` covers the serving-path crates only; `wall-clock`
/// covers everything except the measurement crates (`bench`,
/// `workloads`); `lock-across-io` covers the transport crate;
/// `safety-comment` applies everywhere.
const ROOTS: &[(&str, CrateRules)] = &[
    // Telemetry is the one root waived for Instant::now (monotonic
    // measurement); every other serving rule still applies to it.
    (
        "crates/telemetry/src",
        CrateRules::serving().allow_instant(),
    ),
    ("crates/store/src", CrateRules::serving()),
    ("crates/join/src", CrateRules::serving()),
    ("crates/core/src", CrateRules::serving()),
    ("crates/persist/src", CrateRules::serving()),
    ("crates/net/src", CrateRules::serving().with_lock_io()),
    ("crates/cluster/src", CrateRules::serving().with_lock_io()),
    ("crates/baselines/src", CrateRules::deterministic()),
    ("src", CrateRules::deterministic()),
    ("crates/workloads/src", CrateRules::relaxed()),
    ("crates/bench/src", CrateRules::relaxed()),
    ("xtask/src", CrateRules::relaxed()),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("audit") if args.iter().any(|a| a == "--self-test") => selftest::run(),
        Some("audit") => run_audit(),
        Some("bench-index") => bench_index::run(&args[1..]),
        Some("lines") => lines::run(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask audit [--self-test]");
            eprintln!("       cargo xtask bench-index [BENCH_*.json ...]");
            eprintln!("       cargo xtask lines [ROOT]");
            2
        }
    };
    std::process::exit(code);
}

/// Workspace root: xtask lives at `<root>/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

fn run_audit() -> i32 {
    let root = workspace_root();
    let mut violations = Vec::new();
    let mut files = 0usize;
    let mut suppressed = 0usize;
    for (dir, rules) in ROOTS {
        let dir = root.join(dir);
        if !dir.is_dir() {
            continue;
        }
        for path in rust_files(&dir) {
            files += 1;
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("audit: cannot read {}: {e}", path.display());
                    return 2;
                }
            };
            let report = audit_source(&text, rules);
            suppressed += report.suppressed;
            for v in report.violations {
                violations.push((path.clone(), v));
            }
        }
    }
    for (path, v) in &violations {
        let rel = path.strip_prefix(&root).unwrap_or(path);
        println!("{}:{}: [{}] {}", rel.display(), v.line, v.rule, v.message);
    }
    println!(
        "audit: {} file(s), {} violation(s), {} annotated allow(s)",
        files,
        violations.len(),
        suppressed
    );
    if violations.is_empty() {
        0
    } else {
        1
    }
}

/// All `.rs` files under `dir`, recursively, in stable (sorted) order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = match std::fs::read_dir(&d) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: [{}] {}", self.line, self.rule, self.message)
    }
}
