#!/usr/bin/env bash
# Runs the whole suite twice on the same commit, the second time in reverse
# workload order, and compares the two sets: every workload x end-to-end
# metric must agree within its bound in BENCHMARK.json, and the exact counts
# (also the per-layer ones, from a traced run of each workload) must be
# identical. Exits non-zero otherwise.
#
#   examples/benchmark/repeat.sh            # full suite, about 7 minutes
#   examples/benchmark/repeat.sh --smoke    # same code paths, under a minute;
#                                           # timings printed but not judged
#
# Run from the repository root. Extra arguments go to every benchmark run.
set -euo pipefail

manifest=examples/benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-examples/benchmark/target}/release/wino-benchmark"
out="${CARGO_TARGET_DIR:-examples/benchmark/target}/benchmark/repeat"
mkdir -p "$out"

workloads=(resnet34_int resnet34_fp32 resnet50_int resnet20_int10_b8 serve_tcp_closed serve_overload)
reversed=()
for w in "${workloads[@]}"; do reversed=("$w" "${reversed[@]}"); done

run_set() { # <set name> <workload>...
    local set=$1
    shift
    for w in "$@"; do
        for trace in 0 1; do
            echo "set $set: $w --trace $trace" >&2
            "$bin" --workload "$w" --seed 0 --trace "$trace" "${extra[@]}" \
                | tail -n 1 >"$out/$set-$w-$trace.json"
        done
    done
}

extra=("$@")
run_set a "${workloads[@]}"
run_set b "${reversed[@]}"

smoke=0
for arg in "${extra[@]}"; do [ "$arg" = --smoke ] && smoke=1; done

python3 - "$out" "$smoke" "${workloads[@]}" <<'EOF'
import json, sys

# A smoke run's timings (one set-up cycle, a 0.3 s window) are printed but not
# judged; its exact counts still must repeat.
out, smoke, workloads = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
# Counts that must repeat exactly when the commit and the seed are the same.
exact = {"rel_err", "peak_live_bytes", "core.graph_exec.allocs_per_infer",
         "core.graph_exec.arena_fresh_allocs", "core.planner.nodes_f4",
         "core.planner.nodes_f2", "core.planner.nodes_im2col",
         "core.planner.fused_nodes", "serve.protocol.request_bytes",
         "serve.protocol.reply_bytes"}
bad = 0
print(f"{'workload':18} {'metric':34} {'set a':>14} {'set b':>14} {'worse by':>9} {'bound':>6}")
for w in workloads:
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        a, b = (json.load(open(f"{out}/{s}-{w}-{trace}.json")) for s in "ab")
        if not (a["correct"] and b["correct"]):
            print(f"{w}: a run reported correct=false")
            bad += 1
        for m in metrics:
            name = m["name"]
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if name in exact:
                verdict = "" if va == vb else "NOT IDENTICAL"
                print(f"{w:18} {name:34} {va:14.6g} {vb:14.6g} {'exact':>9} {'':6} {verdict}")
                bad += va != vb
            elif trace == 0:
                # How much worse the worse of the two sets is, as a share of
                # the better one.
                lo, hi = sorted((va, vb))
                worse_by = (hi - lo) / (lo if m["better"] == "lower" else hi)
                out_of_bound = worse_by > m["bound"] and not smoke
                print(f"{w:18} {name:34} {va:14.6g} {vb:14.6g} {worse_by:9.2%} "
                      f"{m['bound']:6.0%} {'OUT OF BOUND' if out_of_bound else ''}")
                bad += out_of_bound
p50 = lambda w: json.load(open(f"{out}/a-{w}-0.json"))["metrics"]["infer_ms_p50"]["value"]
print(f"int_over_fp32 = {p50('resnet34_int') / p50('resnet34_fp32'):.3f} "
      "(infer_ms_p50 of resnet34_int over resnet34_fp32, set a; not a metric)")
print("repeat: " + ("sets agree" if bad == 0 else f"{bad} disagreement(s)"))
sys.exit(1 if bad else 0)
EOF
