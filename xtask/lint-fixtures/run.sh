#!/usr/bin/env bash
# Proves the workspace lints (docs/CORRECTNESS.md) still hold: each
# fixture here is mounted as a module of the crate its `// crate:` line
# names, in a copy of the tree under target/, and that crate is linted
# with `cargo clippy -p <crate> --all-targets -- -D warnings` (the lib's
# non-test and test builds both). A `reject_*` fixture must fail with the
# lint its `// want:` line names; an `accept_*` fixture (`// want: pass`)
# must pass. Exits non-zero if any fixture does otherwise.
#
#   bash xtask/lint-fixtures/run.sh
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
fixtures="$root/xtask/lint-fixtures"
work="$root/target/lint-fixtures"
tree="$work/tree"

# A copy of the sources, never the tree itself. `tar` keeps modification
# times, so the copy's build stays incremental from run to run.
rm -rf "$tree"
mkdir -p "$tree"
tar -C "$root" --exclude=./target --exclude=./.git --exclude=./pqbench \
    --exclude=./.bench_build -cf - . | tar -C "$tree" -xf -
export CARGO_TARGET_DIR="$work/target"

failed=0
for fixture in "$fixtures"/*.rs; do
    name=$(basename "$fixture")
    crate=$(sed -n 's|^// crate: ||p' "$fixture")
    want=$(sed -n 's|^// want: ||p' "$fixture")
    lib="$tree/crates/$crate/src/lib.rs"
    cp -p "$lib" "$work/lib.rs.orig"
    cp "$fixture" "$tree/crates/$crate/src/lint_fixture.rs"
    printf '\n#[allow(dead_code, reason = "a lint fixture: nothing calls it")]\nmod lint_fixture;\n' >>"$lib"
    status=0
    out=$(cd "$tree" && cargo clippy -q --offline --message-format=json \
        -p "pequod_$crate" --all-targets -- -D warnings 2>/dev/null) || status=$?
    cp -p "$work/lib.rs.orig" "$lib"
    rm "$tree/crates/$crate/src/lint_fixture.rs"
    lints=$(grep -o '"code":{"code":"[^"]*"' <<<"$out" | sed 's/.*"code":"//; s/"$//' |
        sort -u | paste -sd, - || true)
    if [ "$want" = pass ]; then
        if [ "$status" -eq 0 ]; then
            echo "ok    $name: $crate accepts it"
        else
            echo "FAIL  $name: $crate should accept it, but clippy reported ${lints:-an error}"
            failed=1
        fi
    elif [ "$status" -ne 0 ] && grep -qx "$want" <<<"${lints//,/$'\n'}"; then
        echo "ok    $name: $crate rejects it with $want"
    else
        echo "FAIL  $name: $crate should reject it with $want, got ${lints:-no lint}"
        failed=1
    fi
done
exit "$failed"
