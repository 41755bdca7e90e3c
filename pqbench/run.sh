#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json's `command`): builds the
# shipped server and pqbench from source, then runs pqbench against that
# server. Arguments are passed through:
#
#   bash pqbench/run.sh --workload twip.check --seed 1 --seconds 10 --trace 0
#   bash pqbench/run.sh --seed 1 > A.json           # all four workloads
#   bash pqbench/run.sh compare A.json B.json
#
# Everything is read and written inside the checkout: build output goes
# to CARGO_TARGET_DIR (default: target/ at the root), scratch files and
# span files to pqbench-work/ inside it.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
target=${CARGO_TARGET_DIR:-target}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target

# Two builds into one target directory: the root workspace's server, then
# this package. Build chatter goes to stderr; stdout is the result.
cargo build --release --offline --bin pequod-server >&2
cargo build --release --offline --manifest-path pqbench/Cargo.toml >&2

if [ "${1:-}" = compare ]; then
    exec "$target/release/pqbench" "$@"
fi
exec "$target/release/pqbench" \
    --server "$target/release/pequod-server" \
    --work-dir "$target/pqbench-work" "$@"
