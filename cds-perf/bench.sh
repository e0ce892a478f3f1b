#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json:
#   bash cds-perf/bench.sh --workload W --seed N --seconds S --trace 0|1
# Builds the shipped binaries (root workspace) and the harness (this
# package) from source into one target directory, then runs one
# workload. Rebuilding on every call is what makes a stale binary
# impossible; an up-to-date build is a ~0.2 s no-op.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --target-dir "$target" --manifest-path Cargo.toml -p cds-cli -p cds-serve
cargo build --release --quiet --offline --target-dir "$target" --manifest-path cds-perf/Cargo.toml
exec "$target/release/cds-perf" bench "$@"
