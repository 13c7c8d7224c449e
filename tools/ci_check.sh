#!/usr/bin/env bash
# The full CI gate, runnable locally from the repo root:
#
#     bash tools/ci_check.sh
#
# Steps:
#   1. tier-1 test suite
#   2. kernel throughput smoke (>30% regression vs BENCH_kernel.json fails)
#   3. static check: ruff when installed, else a stdlib byte-compile of
#      every source file (the step says which one ran)
#   4. static model lint over every example architecture, including the
#      opt-in REP4xx dataflow, REP5xx control-flow and REP6xx interproc
#      layers (must be clean), plus a wall-clock bound on the analyzers
#      (tools/bench_lint.py --check)
#   5. fault-campaign smoke: seeded campaigns must reproduce byte-for-byte
#      (modem with the default retry policy, and wireless with full
#      recovery, whose scrubber, fetch timeout and fallback exercise the
#      coalesced content-carrying configuration fetch)
#   6. DSE sweep smoke: parallel + cached sweeps must be byte-identical to
#      serial re-runs (workers 1 and 2), and the warmed cache must hit
#   7. paper artifacts: the E1-E8/A1-A9 benches must pass and regenerate
#      every table under benchmarks/results/ byte-for-byte
#   8. perfbench correctness smoke: one traced replay of each workload must
#      report no failed op (run.py itself exits 0 on failed ops, so the
#      JSON line is checked here)
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== 1/8 tier-1 tests =="
python -m pytest tests -q

echo "== 2/8 kernel throughput check =="
python tools/bench_kernel.py --check

echo "== 3/8 static check =="
if command -v ruff >/dev/null 2>&1; then
    echo "running: ruff check src tests tools examples"
    ruff check src tests tools examples
else
    # Never a silent no-op: without ruff, at least every file must compile.
    echo "ruff not installed; running stdlib fallback: python -m compileall -q src tests tools examples"
    python -m compileall -q src tests tools examples
fi

echo "== 4/8 static model lint over examples/ (dataflow + cfg + interproc layers) =="
python -m repro lint --dataflow --cfg --interproc examples/*.py
python tools/bench_lint.py --check

echo "== 5/8 fault-campaign reproducibility smoke =="
python -m repro inject --builtin modem --trials 8 --seed 7 --check
python -m repro inject --builtin wireless --recovery full --trials 4 --seed 7 --check

echo "== 6/8 DSE sweep reproducibility smoke =="
SWEEP_ARGS="--techs asic,morphosys --workloads interleaved --accels fir,xtea --frames 1"
python -m repro sweep $SWEEP_ARGS --workers 1 --check --json > /dev/null
python -m repro sweep $SWEEP_ARGS --workers 2 --check --json > /dev/null
python tools/bench_sweep.py --check

echo "== 7/8 paper artifacts regenerate byte-for-byte =="
python -m pytest benchmarks -q
git diff --exit-code benchmarks/results/

echo "== 8/8 perfbench correctness smoke =="
for workload in fetch_bound bus_contended fault_campaign cold_toolchain; do
    result=$(python3 perfbench/run.py --workload "$workload" --seed 1 --trace 1 | tail -n 1)
    python3 -c '
import json, sys
workload, result = sys.argv[1], json.loads(sys.argv[2])
print("%s: %d ops, %d failed" % (workload, result["attempted"], result["failed"]))
sys.exit(result["failed"] != 0)
' "$workload" "$result"
done

echo "ci_check: all gates passed"
