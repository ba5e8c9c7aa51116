#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--traced] [--label L]
#       the suite, each workload in its own process; writes out/results-L.json
#   benchmark/run.sh --compare A.json B.json
#
# Run it from the root of the checkout. The build goes to
# $CARGO_TARGET_DIR when that is set, else to benchmark/target.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout is the benchmark's alone.
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2

export PENELOPE_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export PENELOPE_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"

bin=pbench
prev=
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=pbench-traced
    fi
    prev="$arg"
done

exec "$target/release/$bin" --out "$here/out" "$@"
