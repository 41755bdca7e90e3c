//! `cargo xtask` — workspace automation for the Pequod reproduction.
//!
//! Subcommands:
//!
//! * `bench-index` — validates the `BENCH_*.json` artifacts every
//!   bench binary's `--json` flag emits against the shared row schema
//!   (see `bench_index.rs`), so field names can never drift apart
//!   between binaries again.
//! * `lines` — the first-party line ledger: non-test lines per source
//!   root and in total (see `lines.rs`).
//! * `pairs` — a change against its parent from the end-to-end ledger,
//!   run by run on the same seeds (see `pairs.rs`).
//!
//! The serving-path rules are compiler lints, not a subcommand: see
//! `docs/CORRECTNESS.md`.

// No first-party unsafe: the whole system is safe Rust over the
// vendored deps. Clippy's `undocumented_unsafe_blocks` would also want a
// `SAFETY:` comment on any unsafe block an allow here admitted.
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

mod bench_index;
mod lines;
mod pairs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("bench-index") => bench_index::run(&args[1..]),
        Some("lines") => lines::run(&args[1..]),
        Some("pairs") => pairs::run(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask bench-index [BENCH_*.json ...]");
            eprintln!("       cargo xtask lines [ROOT]");
            eprintln!("       cargo xtask pairs [REV_A REV_B]");
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
