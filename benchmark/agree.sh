#!/usr/bin/env bash
# Runs two full untraced sets back to back on the same seed and prints, per
# workload and end-to-end metric, both values, their relative difference and
# the bound from BENCHMARK.json. Exits 1 if any difference exceeds its bound.
#
#   benchmark/agree.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
seconds=$(python3 -c "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])")
workloads=$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")

mkdir -p benchmark/out
for set in 1 2; do
  for w in $workloads; do
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
      | tail -n 1 > "benchmark/out/agree.$set.$w.json"
  done
done

python3 - "$seed" $workloads <<'EOF'
import json, sys

seed, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
print(f"seed {seed}, {spec['run_seconds']} s per run; difference is set 2 against set 1")
print(f"{'workload':<15} {'metric':<24} {'set 1':>16} {'set 2':>16} {'diff':>9} {'bound':>6}")
failed = False
for w in workloads:
    runs = [json.load(open(f"benchmark/out/agree.{s}.{w}.json")) for s in (1, 2)]
    if not all(r["correct"] and r["failed"] == 0 for r in runs):
        print(f"{w}: a run reported failed operations or a failed check")
        failed = True
    for m in spec["end_to_end"]:
        a, b = (r["metrics"][m["name"]]["value"] for r in runs)
        diff = abs(b - a) / abs(a)
        verdict = "exact" if a == b else f"{diff:8.2%}"
        if diff > m["bound"]:
            verdict += " FAIL"
            failed = True
        print(f"{w:<15} {m['name']:<24} {a:16.6f} {b:16.6f} {verdict:>9} {m['bound']:6.0%}")
sys.exit(1 if failed else 0)
EOF
