#!/usr/bin/env bash
# Repo CI gate: build, test, lint, the benchmark package's own tests,
# the captured experiment outputs, and the infer / chaos / sentinel
# smokes. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release

cargo test --workspace -q

# The gates inside the workspace suite above, by name. Each ran once,
# just now; the check that closes this list fails if a refactor has
# dropped a named suite from the workspace.
#
# The batch-pipeline gates (parallel_diff, golden_report):
# - differential: pipeline::analyze vs the resolver it replaced, kept
#   in the suite as the oracle (edges, unresolved edges, warnings, CCT
#   origins), and the read side vs the String-building writers it
#   replaced (tests/read_oracle: dump JSON, stitched and crosstalk
#   texts, fingerprint), over the 36-scenario corpus (seeds x schedules
#   x fault plans);
# - golden: canonical rendered reports for two fixed TPC-W runs
#   (regenerate intentionally with UPDATE_GOLDEN=1).
#
# The read-side gates (DESIGN.md §9 "Writing the read side";
# read_side, read_alloc_budget):
# - byte identity: random dump sets whose names carry quotes,
#   backslashes, control bytes, non-ASCII text and empty names, every
#   sink writer (to_json, dump_to_json, context and origin labels, both
#   texts, the streamed fingerprint) byte for byte against the same
#   oracle, and the JSON read back to the same dumps;
# - allocation budget: analyze, fingerprint() and render_pipeline over
#   an 8- and a 16-replica fleet behind a counting allocator, pinned
#   exactly (fingerprint 6 at both widths, 12,949 at 16 replicas when it
#   rendered both texts to hash them; render_pipeline 20, 12,955 when
#   every label was a fresh String), and zero allocations over every
#   label the report has.
#
# The streaming-collector gates (streaming_diff, properties,
# golden_collector, golden_sentinel):
# - snapshot gate: finalize is pipeline::analyze over the collector's
#   own dumps, so the incremental state is read only by live snapshots,
#   and that is where it is checked. In the 36-scenario matrix
#   (streaming_diff) and after every sub-batch of the synthetic
#   interleavings (properties), every snapshot taken with no origin
#   walk pending must show what analyze over the same prefix of the
#   stream reports: the origin count, top paths, unique hot paths,
#   tiers, hotspots (tests/snapshot_oracle). The matrix prints and
#   asserts its totals (900 snapshots, 2,679 hot paths); the top_k
#   unit test holds the snapshot's one ranking helper to a full sort;
# - end state: every finalized report byte-identical to batch over the
#   run's dumps (the accumulators rebuilt every stage), the pending-edge
#   gauge equal to the unresolved edges, the staggered 12-replica fleet
#   (nothing pending at flush, wire frames <= 14.8 B/event),
#   bounded-queue backpressure, plus the
#   self-healing ingest damage matrix (corrupt / truncated / duplicate
#   / reordered / lost frames, stall watchdog; sourceless,
#   unknown-stage, duplicate-mint and lying-source damage halting
#   degraded), every accumulated dump valid;
# - properties: any epoch-respecting interleaving finalizes
#   byte-identical to batch, and pending edges never leak;
# - golden: live-query snapshot rendering, mid-run + final epoch, and
#   the rendered sentinel incident report mid-violation + post-capture
#   (regenerate intentionally with UPDATE_GOLDEN=1).
#
# The binary wire-format gates (DESIGN.md §16; wire_props, wire_fuzz,
# alloc_budget):
# - properties: decode(encode(delta)) == delta for arbitrary deltas,
#   batches, and summary frames, plus the golden frame hex dump
#   (regenerate intentionally with UPDATE_GOLDEN=1); and recycled
#   decode == fresh decode — one BatchDecoder over random frame
#   sequences, damaged frames in between, answers each frame exactly as
#   decode_batch does, so nothing of an earlier delta shows in a later
#   one;
# - allocation budget: wire ingest of the staggered fleet stream behind
#   a counting allocator, <= 1.0 allocations per event (0.907 now,
#   0.897 while CCT nodes kept two inline child slots, 0.890 while the
#   CCT's child spill was a hand-written table, 0.895
#   while the collector evicted, 1.877 while every delta copied
#   its frame names and contexts, 3.505 before the decoder recycled its
#   storage); then the same frames through a collector behind a 4-deep
#   queue with a snapshot per frame, <= 1.5 per event (1.474 now,
#   1.464 with inline child slots, 1.456 with the hand-written child
#   spill, 1.488 while a 1-epoch
#   window evicted and revived origins, 2.469
#   while names and contexts were copied, 3.283 when every eviction
#   copied the origin's tree to a flat list and every revival rebuilt
#   it; DESIGN.md §10 "Ranking without eviction", §11 "Eviction and
#   revival cost", §13 "Shared names and contexts");
# - fuzz: randomized truncation / bit flips / reordering / garbage
#   injection over encoded streams — damaged frames are rejected by the
#   envelope and healed by the §12 quarantine machinery, never a panic,
#   never a silent divergence; a lost, bit-flipped or late header frame
#   refuses the batch frames offered before it and finalizes healed or
#   empty; re-sealed structural damage is refused by apply before it
#   mutates (apply Ok => the dump validates).
#
# The federation gates (federation_diff, federation_props,
# federation_alloc_budget, golden_federation):
# - differential: leaf/regional/global federation vs flat batch
#   byte-identity over the 36-scenario matrix, plus fault scenarios
#   (lossy uplinks, partitions, leaf/regional crash recovery,
#   unrecoverable-leaf degraded finalize, a foreign delta charged to
#   its feeder), three of them with their whole FederationStats pinned;
# - properties: the summary-delta merge algebra (grouping invariance,
#   associativity, mass conservation, sketch wire round-trip);
# - allocation budget: a 24-replica federation on lossy links (frames
#   parked and duplicated) behind a counting allocator, <= 2.6
#   allocations per leaf event (2.538 now; 9.017 when checkpoints
#   deep-copied parked frames, duplicates were decoded, regionals
#   cloned every decoded delta and each leaf had its own mirror;
#   7.691 while one emitter mirror replayed every leaf in lockstep;
#   6.797 while the root ran a §10 collector; 6.609 while every hop
#   copied each frame name and context, and a regional built a sketch
#   per child digest to merge it);
# - golden: rendered federation topology mid-outage + final
#   (regenerate intentionally with UPDATE_GOLDEN=1).
#
# The byte-identity gate (fingerprint): the published TPC-W fleet
# (24 clients, 40 s, 48 replicas, as infer builds it) analyzed and
# fingerprinted, pinned to 20ca3d2b1a107f2a, the value every
# "output unchanged" claim rests on.
#
# The engine gate (DESIGN.md §11 "Event queue and engine host cost";
# engine_alloc_budget):
# - allocation budget: the smoke-shaped 3-tier stack (40 clients,
#   150 s, seed 1) run live into a recording sink behind a counting
#   allocator, <= 60 allocations per completed request (45.7 now,
#   251.3 when every quantum end returned a Vec<Dispatch>, every send
#   built the context it looked up and every epoch took fresh dumps).
#   The event order itself is held by whodunit-sim's engine_behavior
#   (same-instant tie-break, chunked == unchunked) and properties
#   (the sorted run of near events, quantum ends and deliveries, and
#   the heap of far ones pop as one heap by (time, seq)) suites.
#
# The black-box inference gates (DESIGN.md §15; infer's properties and
# scenarios, golden_infer):
# - properties: inference is a pure function of the event set
#   (deterministic, permutation-invariant), the ambiguity-1 subset is
#   always correct and only shrinks as the modelled jitter window
#   widens, full visibility reproduces ground truth exactly;
# - scenarios: the TPC-W inference slice + topology zoo under the
#   blackbox/hybrid/full visibility ladder, with the comm log proven
#   observation-only;
# - golden: the rendered inference sweep table (regenerate
#   intentionally with UPDATE_GOLDEN=1).
#
# The chaos-harness gates (zoo_chaos, chaos_detectors):
# - pinned verdicts: the exact fingerprint, violation kinds and outcome
#   of TPC-W and every zoo topology under a full fault storm (every
#   fault class on both channel roles, a victim crash and slowdown)
#   and under the planted livelock pair, plus the zoo's oracle sweeps;
# - detectors: AB/BA deadlock as a lock cycle, the planted pair caught
#   by the step budget with its spinners named, and the schedule
#   policies' tie-breaking.
cargo metadata --no-deps --offline --format-version 1 | python3 -c '
import json, sys

GATES = """
whodunit-core/parallel_diff whodunit/golden_report
whodunit-core/read_side whodunit/read_alloc_budget
whodunit-collector/streaming_diff whodunit-collector/properties
whodunit/golden_collector whodunit/golden_sentinel
whodunit-core/wire_props whodunit-collector/wire_fuzz whodunit-collector/alloc_budget
whodunit-collector/federation_diff whodunit-collector/federation_props
whodunit-collector/federation_alloc_budget whodunit/golden_federation
whodunit-infer/properties whodunit-infer/scenarios whodunit/golden_infer
whodunit/fingerprint whodunit-apps/engine_alloc_budget
whodunit-apps/zoo_chaos whodunit-sim/chaos_detectors
""".split()
have = {
    p["name"] + "/" + t["name"]
    for p in json.load(sys.stdin)["packages"]
    for t in p["targets"]
    if "test" in t["kind"]
}
missing = [g for g in GATES if g not in have]
if missing:
    sys.exit("gate suites missing from the workspace: " + " ".join(missing))
print(f"all {len(GATES)} named gate suites are workspace test targets")
'

# Lints the tests, benches and examples as well as the libraries. Also
# what keeps the outside-input readers free of indexing — the wire's
# body cursor (Reader), the envelope check (open_frame), the string
# table (get_dict), the delta-section reader, BatchDecoder, the sketch
# bucket list (get_buckets) and the summary decoder, the JSON Parser,
# the Value -> dump (dumpjson) and Value -> repro (repro) schema
# readers, and the federation's frame receivers — the merge of a
# child's deltas (check_merge, merge_stage_delta, compose_cct) and the
# root's whole-frame apply (apply_frame): each carries
# #[deny(clippy::indexing_slicing)], so the first `col[i]` written
# there fails this line, not a review. The whole core crate (the wire
# codec, the dump JSON reader and writer, the delta apply and diff,
# the summary merge, the repro reader, the flow dictionary, the CCT,
# ...), the whole collector crate (ingest, link.rs, federation/,
# quarantine.rs, sentinel.rs) and the whole simulator crate also deny
# clippy::unwrap_used outside their tests, so none of them can panic
# on an `.unwrap()`.
cargo clippy --workspace --all-targets -- -D warnings

# Formatting of the crates that are rustfmt-clean, so a stray diff
# fails here instead of riding along in the next change to the file.
# Still unformatted, the backlog (`cargo fmt --all -- --check -l`):
# whodunit-core 19 files, whodunit-collector 7, plus examples/, the
# root tests/ and vendor/. A change that formats one of them adds it
# here.
cargo fmt -p whodunit-sim -p whodunit-apps -p whodunit-workload \
    -p whodunit-report -p whodunit-infer -p whodunit-bench -- --check

# Non-test Rust lines per crate, against the last commit. Subtraction
# PRs quote `scripts/loc.sh <parent rev>` for their net lines; running
# it here keeps the script working.
bash scripts/loc.sh HEAD

# The paired-run tool perf claims are reported with
# (scripts/pairs.sh <parent-rev> <workload> <pairs>): its summariser
# over a fixed run log, against the expected table, so it cannot rot.
# It runs no benchmark.
bash scripts/pairs.sh --selftest

# The repo benchmark's own tests (benchmark/ is its own workspace, so
# the workspace suite above never sees it): harness unit tests plus a
# --smoke run of all four workloads with their output verification, so
# a product change that breaks a benchmark check fails here first.
# benchmark/ is the only place this repo measures speed; nothing below
# times anything.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Captured experiment outputs: EXPERIMENTS.md's 14-bin loop, each
# bin's stdout byte-identical to results/<bin>.txt (the bins run in
# virtual time and print no wall-clock line, so two runs never differ;
# UPDATE_GOLDEN=1 rewrites the captures instead — the variable the
# golden suites above also read, so set it only when every output
# change of the run is intended). A bin asserts its own
# shape claims, so it must also exit 0 — except the bins in XFAIL
# (name:exit), whose stdout is still diffed and which must exit with
# exactly the listed code: an XFAIL bin that starts passing fails the
# stage, so the list cannot rot.
#
# table1_tpcw_profile:101 — the bin panics on its own last assertion,
# "AdminConfirm has the largest mean crosstalk wait": at its seed the
# column reads AdminConfirm 37.52 ms against BuyConfirm 67.82 ms, on
# 20 AdminConfirm lock acquires. The model is not recalibrated and the
# assertion not loosened here; the finding is ROADMAP item 2's.
XFAIL="table1_tpcw_profile:101"
mkdir -p target/results
bad=0
for b in table1_tpcw_profile table2_overhead table3_emulation_cost \
         fig07_stitched_profile fig08_apache_profile fig09_squid_profile \
         fig10_haboob_profile fig11_response_times fig12_throughput \
         sec92_apache_overhead sec93_event_overhead ablations \
         appendix_mixes faultstorm; do
  want=0
  for x in $XFAIL; do
    if [ "${x%%:*}" = "$b" ]; then want="${x##*:}"; fi
  done
  got=0
  cargo run --release -q -p whodunit-bench --bin "$b" \
    > "target/results/$b.txt" 2> "target/results/$b.err" || got=$?
  if [ "$got" != "$want" ]; then
    echo "experiment $b: exit $got, expected $want" >&2
    tail -n 5 "target/results/$b.err" >&2
    bad=1
  fi
  if [ -n "${UPDATE_GOLDEN:-}" ]; then
    cp "target/results/$b.txt" "results/$b.txt"
  elif ! cmp -s "target/results/$b.txt" "results/$b.txt"; then
    echo "experiment $b: stdout differs from results/$b.txt" >&2
    diff -u "results/$b.txt" "target/results/$b.txt" | head -n 40 >&2 || true
    bad=1
  fi
done
if [ "$bad" != 0 ]; then
  echo "experiment outputs: FAILED (UPDATE_GOLDEN=1 accepts new stdout; exit codes are never accepted)" >&2
  exit 1
fi
echo "experiment outputs: 14 bins match results/ (XFAIL: $XFAIL)"

# Inference smoke: a reduced scenario corpus (TPC-W slice + zoo) under
# the three visibility configs; fail if any clean scenario's pairs or
# origins F1 drops below 0.95, on any accounting-oracle violation, on
# a non-exact full-visibility stitch, or if enabling the comm log
# perturbs the batch fingerprint.
cargo run --release -q -p whodunit-bench --bin infer -- --smoke --out target/BENCH_infer_smoke.json

# Chaos smoke: the explorer's own pipeline check (find -> shrink ->
# record -> replay on a planted defect), then a bounded fuzz sweep —
# 25 sampled (schedule, fault-plan) scenarios over the TPC-W stack,
# failing on any invariant-oracle violation. One harness serves every
# assembly (TPC-W here, the zoo in zoo_chaos, the sentinel below): one
# fault set resolved from a repro's roles, one planted livelock pair,
# and one judge that checks the oracles and fingerprints the run.
cargo run --release -q -p whodunit-bench --bin chaos -- --selftest --out target/chaos-smoke
cargo run --release -q -p whodunit-bench --bin chaos -- --seeds 25 --out target/chaos-smoke

# Sentinel smoke: calibrate an SLO budget from a clean run, sweep a
# reduced clean matrix (any trip is a false repro and fails), capture
# one planted faultstorm with shrink + bit-identical replay, and hold
# the always-on counts on a clean 32-replica stream (report fingerprint
# equal to a plain collector's, every epoch observed, exactly the due
# ring snapshots taken, no trip).
cargo run --release -q -p whodunit-bench --bin sentinel -- --smoke --out target/BENCH_sentinel_smoke.json

# The sentinel's repro bundle must be self-contained: chaos --replay
# reconstructs the tripped budget from the bundle's slo_* knobs alone
# and fails unless the same dimension re-trips at the recorded epoch.
cargo run --release -q -p whodunit-bench --bin chaos -- --replay target/BENCH_sentinel_smoke.repro.json

# Every published or smoke bench result must carry its gate fields: a
# bench that silently stops reporting a gate can never fail it, so a
# missing field is itself a CI failure. (`*.repro.json` is a repro
# bundle riding along with the sentinel bench, not a bench result.)
# Every infer result must also have met its batch pin, and the
# published BENCH_infer.json must pin the fingerprint infer expects
# (whodunit_bench::PUBLISHED_FP):
# the smoke above compares against a comm-off twin, so without this
# nothing would notice a stale published pin.
python3 - <<'EOF'
import glob, json, re, sys

pin = re.search(
    r"pub const PUBLISHED_FP: u64 = 0x([0-9a-f_]+);",
    open("crates/bench/src/lib.rs").read(),
)
PUBLISHED_FP = pin.group(1).replace("_", "") if pin else None

GATE_FIELDS = {
    "infer": [
        "scenarios",
        "clean_min_f1_ppm",
        "batch.identical_output",
        "ok",
    ],
    "sentinel": [
        "false_repros",
        "detection.latency_epochs",
        "capture.shrink_ratio",
        "replay.bit_identical",
        "replay.retripped",
        "always_on.identical_output",
        "always_on.epochs_seen",
        "always_on.ring_snapshots",
        "always_on.tripped",
    ],
}

bad = []
files = sorted(set(glob.glob("BENCH_*.json") + glob.glob("target/BENCH_*.json")))
for path in files:
    if path.endswith(".repro.json"):
        continue
    doc = json.load(open(path))
    bench = doc.get("bench")
    if bench not in GATE_FIELDS:
        bad.append(f"{path}: unknown bench {bench!r} (add its gate fields to ci.sh)")
        continue
    for field in GATE_FIELDS[bench]:
        node = doc
        for part in field.split("."):
            node = node.get(part) if isinstance(node, dict) else None
        if node is None:
            bad.append(f"{path}: missing gate field {field!r}")
    if bench == "infer":
        batch = doc.get("batch") or {}
        if batch.get("fingerprint") != batch.get("expected"):
            bad.append(f"{path}: batch.fingerprint {batch.get('fingerprint')} != batch.expected {batch.get('expected')}")
        if path == "BENCH_infer.json" and batch.get("expected") != PUBLISHED_FP:
            bad.append(f"{path}: batch.expected {batch.get('expected')} != PUBLISHED_FP {PUBLISHED_FP} in crates/bench/src/lib.rs")
if bad:
    print("\n".join(bad), file=sys.stderr)
    sys.exit(1)
print(f"bench gate fields present in {len(files)} result file(s)")
EOF
