#!/usr/bin/env bash
# The repo's benchmark: builds, runs, checks outputs, prints every metric
# by name with its unit and, last, one JSON result line.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#   benchmark/run.sh [--trace] [--smoke]        every workload in turn
#   benchmark/run.sh --selfcheck                A/A run of every workload
#
# W is live_stack, ingest_wide, ingest_churn or fed_lossy. --trace 0 (the
# default) reports the end-to-end metrics, --trace 1 the per-layer ones
# and writes benchmark/out/<W>.trace.json. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout ends with the result line and
# carries nothing when the build fails.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --bins 1>&2

export WBENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export WBENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"

bin=wbench
workload_given=0
prev=""
for arg in "$@"; do
    case "$arg" in
        --workload | --selfcheck) workload_given=1 ;;
        --trace) bin=wbench-traced ;;
        0) [ "$prev" = --trace ] && bin=wbench ;;
    esac
    prev="$arg"
done
exe="$CARGO_TARGET_DIR/release/$bin"

if [ "$workload_given" = 1 ]; then
    exec "$exe" --out-dir "$here/out" "$@"
fi
for w in live_stack ingest_wide ingest_churn fed_lossy; do
    echo "== $w"
    "$exe" --out-dir "$here/out" --workload "$w" "$@"
done
