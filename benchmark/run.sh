#!/usr/bin/env bash
# Build the release binaries from source, then run vlbench with the given
# arguments. One command: `bash benchmark/run.sh` runs every workload;
# `bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1` is
# one run of one workload (what BENCHMARK.json's driver calls).
set -euo pipefail
cd "$(dirname "$0")/.."

# The benchmark measures the repository it sits in; without one there is
# nothing to build or run.
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "benchmark/run.sh: no repository around benchmark/ (Cargo.toml, crates/ missing)" >&2
    exit 1
fi

# Both builds share one target directory (the driver names it; `target` is
# the repository's own, already ignored), so nothing untracked appears
# elsewhere. Build chatter goes to stderr: stdout belongs to the results.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p vlfs-bench --bin all_figures 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bins 1>&2

exec "$CARGO_TARGET_DIR/release/vlbench" "$@"
