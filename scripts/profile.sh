#!/usr/bin/env bash
# Where does a benchmark workload's host time go?
#
#   scripts/profile.sh <workload> [seconds]      (default 25)
#
# Builds benchmark/ into its own target directory with frame pointers
# and full debug info (the timed build has neither), runs `wbench` under
# scripts/prof/sigprof.c (SIGPROF at 250 Hz, frame-pointer stacks) and
# prints scripts/prof/report.py's tables: self time by first repo frame
# and by line, inclusive time by function, inlined frames resolved.
# Needs gcc, python3 and addr2line; downloads nothing; not a CI stage.
# Seed 1. Everything lands under target/prof (PROF_DIR overrides).
#
# To re-read the samples, restricted to the timed pass and with more
# rows than the default 30 a table (the outermost harness frames fill
# the top of the inclusive table):
#
#   python3 scripts/prof/report.py target/prof/target/release/wbench \
#       target/prof/<workload>.samples --under 'Workload>::pass' --top 80
#
# Add --alloc for the allocator's and libc's share alone (malloc, free,
# memcpy), charged to the repo caller and the caller's caller: where the
# copies are made, and for whom.
set -euo pipefail

workload="${1:?usage: scripts/profile.sh <workload> [seconds]}"
seconds="${2:-25}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${PROF_DIR:-$root/target/prof}"
mkdir -p "$dir"

gcc -O2 -shared -fPIC -o "$dir/sigprof.so" "$root/scripts/prof/sigprof.c"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=2 \
    CARGO_TARGET_DIR="$dir/target" \
    cargo build --release --offline --manifest-path "$root/benchmark/Cargo.toml" --bins 1>&2

exe="$dir/target/release/wbench"
SIGPROF_OUT="$dir/$workload.samples" LD_PRELOAD="$dir/sigprof.so" \
    "$exe" --out-dir "$dir/out" --workload "$workload" \
    --seed 1 --seconds "$seconds" --trace 0 | tail -n 1 1>&2
python3 "$root/scripts/prof/report.py" "$exe" "$dir/$workload.samples"
