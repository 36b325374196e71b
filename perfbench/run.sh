#!/usr/bin/env bash
# Builds the release serving binaries and the benchmark from this checkout,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the benchmark's result is the last line of
# stdout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "perfbench: $root is not a checkout of the repository" >&2
    exit 2
fi

cargo build --release --offline --quiet -p difftune-serve -p difftune-router >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --bins "$CARGO_TARGET_DIR/release" \
    --work "$CARGO_TARGET_DIR/perfbench-work" \
    "$@"
