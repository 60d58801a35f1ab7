#!/usr/bin/env bash
# Paired runs of the repo benchmark: a parent revision against this tree.
#
#   scripts/pairs.sh <parent-rev> <workload> <pairs> [seconds] [seed]
#   scripts/pairs.sh <parent-rev> all <pairs> [seconds] [seed]
#   scripts/pairs.sh --selftest
#
# Exports <parent-rev> with git archive into target/pairs/<rev> (kept,
# so a second call reuses its build; nothing is registered in .git), and
# this tree's files (tracked and untracked, minus the ignored ones, as
# `git ls-files -co --exclude-standard` lists them) into
# target/pairs/work (refreshed on every call, its build kept), so the two
# sides differ only in their code, not in where they are built and run
# from. Builds both exports' benchmark/ (each into its own
# benchmark/target), then runs each export's benchmark/run.sh
# --workload W --seed i --seconds S once per pair, the parent first in
# odd pairs and the change first in even ones. Pair i runs at seed i, or every pair at [seed] when it is given
# (a held-out seed). [seconds] defaults to 25, the benchmark's own run
# length. Nothing under benchmark/ is written but its build and out/.
#
# Every run's final JSON line is written to
# target/pairs/<workload>-<rev>[-seed<seed>].tsv as `side <TAB> pair
# <TAB> seed <TAB> json` and printed as one row. The summary then gives, for each
# end-to-end metric, each side's median and quartiles (linear
# interpolation between order statistics), the change's median against
# the parent's, the change's wins (ties count for neither side), and
# whether a gain can be claimed: the change better in at least nine
# pairs in ten, and its median past the parent's by more than the
# parent's interquartile range. A run that failed an operation or was
# not correct is listed under the table, and when the change has more
# such runs than the parent, no metric can claim a gain: every row reads
# "unclean".
#
# With `all` in place of a workload, every workload BENCHMARK.json
# lists runs in turn, each as above (its rows, then its summary), and
# the four summaries are printed again together at the end, each under
# its workload's name.
#
# --selftest feeds the summariser fixed run logs, one workload and
# several, and compares its output with the expected text below;
# scripts/ci.sh runs it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# summarise LOG prints LOG's summary; summarise NAME=LOG... prints
# each log's summary under a `== NAME ==` line.
summarise() {
    python3 - "$@" <<'EOF'
import json, sys

METRICS = [("setup_s", "lower"), ("pass_s", "lower"),
           ("events_per_s", "higher"), ("peak_rss_mb", "lower")]

def quartiles(xs):
    xs = sorted(xs)
    def at(p):
        k = (len(xs) - 1) * p
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return at(0.25), at(0.5), at(0.75)

def summary(path):
    runs = {}
    bad = []
    unclean = {"parent": 0, "change": 0}
    for line in open(path):
        side, pair, seed, doc = line.rstrip("\n").split("\t", 3)
        doc = json.loads(doc)
        runs.setdefault(int(pair), {})[side] = doc
        if not doc.get("correct") or doc.get("failed"):
            bad.append(f"pair {pair} {side}: correct {doc.get('correct')}, failed {doc.get('failed')}")
            unclean[side] += 1
    clean = unclean["change"] <= unclean["parent"]
    pairs = sorted(p for p, r in runs.items() if "parent" in r and "change" in r)
    print(f"{len(pairs)} complete pairs")
    print(f"{'metric':<13} {'parent median [q1, q3]':<28} {'change median [q1, q3]':<28} "
          f"{'change':>8} {'wins':>6}  gain")
    for name, better in METRICS if pairs else []:
        p = [runs[i]["parent"]["metrics"][name]["value"] for i in pairs]
        c = [runs[i]["change"]["metrics"][name]["value"] for i in pairs]
        sign = 1 if better == "higher" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        pq, cq = quartiles(p), quartiles(c)
        gap = sign * (cq[1] - pq[1])
        holds = 10 * wins >= 9 * len(pairs) and gap > pq[2] - pq[0]
        delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
        num = lambda x: f"{x:.0f}" if abs(x) >= 1000 else f"{x:.4g}"
        fmt = lambda q: f"{num(q[1])} [{num(q[0])}, {num(q[2])}]"
        print(f"{name:<13} {fmt(pq):<28} {fmt(cq):<28} {delta:>+7.1f}% "
              f"{wins:>3}/{len(pairs):<2}  {'unclean' if not clean else 'holds' if holds else 'no'}")
    for b in bad:
        print("not clean:", b)

args = sys.argv[1:]
for arg in args:
    name, _, path = arg.rpartition("=")
    if len(args) > 1:
        print(f"== {name} ==")
    summary(path)
EOF
}

if [ "${1:-}" = --selftest ]; then
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' EXIT
    for i in 1 2 3 4 5 6 7 8 9 10; do
        p="$(awk -v i="$i" 'BEGIN { printf "%.4f", 0.330 + 0.001 * (i % 4) }')"
        c="$(awk -v i="$i" 'BEGIN { printf "%.4f", 0.296 + 0.001 * (i % 3) + (i == 7) * 0.1 }')"
        printf 'parent\t%s\t%s\t{"correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 1.0}, "pass_s": {"value": %s}, "events_per_s": {"value": %s}, "peak_rss_mb": {"value": %s}}}\n' \
            "$i" "$i" "$p" "$((1000 + i))" "$((17 + i % 2))"
        printf 'change\t%s\t%s\t{"correct": %s, "attempted": 9, "failed": %s, "metrics": {"setup_s": {"value": 1.0}, "pass_s": {"value": %s}, "events_per_s": {"value": %s}, "peak_rss_mb": {"value": %s}}}\n' \
            "$i" "$i" "$([ "$i" = 4 ] && echo false || echo true)" "$((i == 4))" "$c" "$((1100 + i))" "$((17 + i % 2))"
    done > "$dir/runs.tsv"
    # The same log with pair 4's change run clean: now the gains hold.
    sed '/^change\t4\t/{s/"correct": false/"correct": true/;s/"failed": 1/"failed": 0/}' \
        "$dir/runs.tsv" > "$dir/clean.tsv"
    {
        summarise "$dir/runs.tsv"
        summarise "$dir/clean.tsv"
        summarise "live_stack=$dir/runs.tsv" "fed_lossy=$dir/clean.tsv"
    } > "$dir/got.txt"
    cat > "$dir/want.txt" <<'EOF'
10 complete pairs
metric        parent median [q1, q3]       change median [q1, q3]         change   wins  gain
setup_s       1 [1, 1]                     1 [1, 1]                        +0.0%   0/10  unclean
pass_s        0.3315 [0.331, 0.332]        0.297 [0.2963, 0.298]          -10.4%   9/10  unclean
events_per_s  1006 [1003, 1008]            1106 [1103, 1108]               +9.9%  10/10  unclean
peak_rss_mb   17.5 [17, 18]                17.5 [17, 18]                   +0.0%   0/10  unclean
not clean: pair 4 change: correct False, failed 1
10 complete pairs
metric        parent median [q1, q3]       change median [q1, q3]         change   wins  gain
setup_s       1 [1, 1]                     1 [1, 1]                        +0.0%   0/10  no
pass_s        0.3315 [0.331, 0.332]        0.297 [0.2963, 0.298]          -10.4%   9/10  holds
events_per_s  1006 [1003, 1008]            1106 [1103, 1108]               +9.9%  10/10  holds
peak_rss_mb   17.5 [17, 18]                17.5 [17, 18]                   +0.0%   0/10  no
== live_stack ==
10 complete pairs
metric        parent median [q1, q3]       change median [q1, q3]         change   wins  gain
setup_s       1 [1, 1]                     1 [1, 1]                        +0.0%   0/10  unclean
pass_s        0.3315 [0.331, 0.332]        0.297 [0.2963, 0.298]          -10.4%   9/10  unclean
events_per_s  1006 [1003, 1008]            1106 [1103, 1108]               +9.9%  10/10  unclean
peak_rss_mb   17.5 [17, 18]                17.5 [17, 18]                   +0.0%   0/10  unclean
not clean: pair 4 change: correct False, failed 1
== fed_lossy ==
10 complete pairs
metric        parent median [q1, q3]       change median [q1, q3]         change   wins  gain
setup_s       1 [1, 1]                     1 [1, 1]                        +0.0%   0/10  no
pass_s        0.3315 [0.331, 0.332]        0.297 [0.2963, 0.298]          -10.4%   9/10  holds
events_per_s  1006 [1003, 1008]            1106 [1103, 1108]               +9.9%  10/10  holds
peak_rss_mb   17.5 [17, 18]                17.5 [17, 18]                   +0.0%   0/10  no
EOF
    if ! diff -u "$dir/want.txt" "$dir/got.txt"; then
        echo "pairs.sh --selftest: the summary differs from the expected text" >&2
        exit 1
    fi
    echo "pairs.sh --selftest: summary matches"
    exit 0
fi

usage="usage: scripts/pairs.sh <parent-rev> <workload|all> <pairs> [seconds] [seed]"
rev_arg="${1:?$usage}"
workload_arg="${2:?$usage}"
pairs="${3:?$usage}"
seconds="${4:-25}"
fixed_seed="${5:-}"

rev="$(git -C "$root" rev-parse --verify "$rev_arg^{commit}")"
short="${rev:0:12}"
tree="$root/target/pairs/$short"
if [ ! -d "$tree" ]; then
    rm -rf "$tree.part"
    mkdir -p "$tree.part"
    git -C "$root" archive "$rev" | tar -x -C "$tree.part"
    mv "$tree.part" "$tree"
fi
work="$root/target/pairs/work"
mkdir -p "$work/benchmark"
find "$work" -mindepth 1 -maxdepth 1 ! -name benchmark -exec rm -rf {} +
find "$work/benchmark" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
git -C "$root" ls-files -co --exclude-standard -z \
    | (cd "$root" && while IFS= read -r -d '' f; do
        if [ -f "$f" ]; then printf '%s\0' "$f"; fi
    done) \
    | tar -C "$root" --null -T - -cf - | tar -x -C "$work"
# Each export builds into its own benchmark/target.
unset CARGO_TARGET_DIR
for dir in "$tree" "$work"; do
    cargo build --release --offline --manifest-path "$dir/benchmark/Cargo.toml" --bins >&2
done

# run_pairs WORKLOAD: every pair's rows, then the summary; the log's
# path is left in $log.
run_pairs() {
    local workload="$1" i seed order side dir line
    log="$root/target/pairs/$workload-$short${fixed_seed:+-seed$fixed_seed}.tsv"
    : > "$log"
    printf '%-4s %-4s %-6s %-8s %-8s %-12s %-8s %s\n' \
        pair seed side setup_s pass_s events_per_s rss_mb failed
    for i in $(seq 1 "$pairs"); do
        seed="${fixed_seed:-$i}"
        if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            if [ "$side" = parent ]; then dir="$tree"; else dir="$work"; fi
            # A run that fails a check still ends in its JSON line (and
            # exits non-zero); one that ends in anything else stops here.
            line="$(bash "$dir/benchmark/run.sh" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" 2>/dev/null | tail -n 1)" || true
            if [ "${line:0:1}" != "{" ]; then
                echo "$workload pair $i, $side: benchmark/run.sh printed no result line" >&2
                exit 1
            fi
            printf '%s\t%s\t%s\t%s\n' "$side" "$i" "$seed" "$line" >> "$log"
            python3 -c '
import json, sys
pair, seed, side, doc = sys.argv[1], sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
m = [doc["metrics"][k]["value"] for k in ("setup_s", "pass_s", "events_per_s", "peak_rss_mb")]
print("%-4s %-4s %-6s %-8.4f %-8.4f %-12.0f %-8.2f %s" % (pair, seed, side, *m, doc["failed"]))
' "$i" "$seed" "$side" "$line"
        done
    done
    summarise "$log"
}

if [ "$workload_arg" != all ]; then
    run_pairs "$workload_arg"
    exit 0
fi
workloads="$(python3 -c '
import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))
' "$root/BENCHMARK.json")"
logs=()
for w in $workloads; do
    echo "== $w =="
    run_pairs "$w"
    logs+=("$w=$log")
done
echo
summarise "${logs[@]}"
