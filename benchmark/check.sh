#!/usr/bin/env bash
# Builds the benchmark, runs its tests, then runs the full benchmark
# (all seven workloads, the contract's five among them) twice on the
# same seed and checks that the two sets agree: every
# end-to-end metric within its bound from ../BENCHMARK.json, and
# `decisions`, `events`, `jobs_completed` and `avg_jct_sim_s` exactly
# (they are pure functions of the seed). Exits non-zero on disagreement.
#
#   benchmark/check.sh [SEED]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-7}"
manifest=benchmark/Cargo.toml
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

cargo build --release --offline --locked --manifest-path "$manifest"
cargo test --release --offline --locked --manifest-path "$manifest"

mkdir -p benchmark/out
for set in a b; do
    cargo run --release --offline --locked --manifest-path "$manifest" -- \
        --seed "$seed" --seconds "$seconds" --trace 0 | tee "benchmark/out/check_$set.txt"
done

python3 - "$seed" <<'EOF'
import json, re, sys

contract = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: (m["bound"], m["better"]) for m in contract["end_to_end"]}
exact = {"avg_jct_sim_s"}

def read(path):
    """workload -> (metrics, exact counts) from one full run's output."""
    runs, counts, name = {}, {}, None
    for line in open(path):
        if line.startswith("workload "):
            name = line.split()[1]
        m = re.search(r"decisions (\d+)  events (\d+)  jobs_completed (\d+)", line)
        if m and name:
            counts[name] = tuple(map(int, m.groups()))
        if line.startswith("{") and name:
            doc = json.loads(line)
            assert doc["correct"] and doc["failed"] == 0, f"{name}: {line}"
            runs[name] = {k: v["value"] for k, v in doc["metrics"].items()}
    return runs, counts

(a, ca), (b, cb) = read("benchmark/out/check_a.txt"), read("benchmark/out/check_b.txt")
names = list(a)
assert list(b) == names, f"workloads run: {names} / {list(b)}"
missing = [w["name"] for w in contract["workloads"] if w["name"] not in names]
assert not missing, f"contract workloads that did not run: {missing}"
bad = 0
for w in names:
    if ca[w] != cb[w]:
        print(f"DISAGREE {w}: counts {ca[w]} vs {cb[w]}")
        bad += 1
    for metric, (bound, better) in bounds.items():
        x, y = a[w][metric], b[w][metric]
        if metric in exact:
            ok = x == y
        else:
            # The driver's rule: the second set may not be worse than the
            # first by more than the bound.
            worse = (y - x) / x if better == "lower" else (x - y) / x
            ok = worse <= bound
        print(f"{'ok      ' if ok else 'DISAGREE'} {w:<18} {metric:<16} {x:>16.6f} {y:>16.6f}")
        bad += not ok
print(f"seed {sys.argv[1]}: {bad} disagreement(s)")
sys.exit(1 if bad else 0)
EOF
