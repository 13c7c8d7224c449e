"""End-to-end benchmark of the reproduction on the paper's workloads.

    python3 perfbench/run.py --workload fetch_bound --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One client in one process sends one op
at a time (closed loop, ``workers=1``); the op kinds and the reasons for
each workload are in ``perfbench/README.md``.

``--trace 0`` measures for ``--seconds`` with tracing off and reports the
end-to-end metrics.  ``--trace 1`` replays a fixed list of ops twice,
untraced and then traced (phase spans plus a deterministic profile), checks
that both give identical simulated outputs, and reports the per-layer
metrics.  Either way the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record`` runs every op any seed can produce and rewrites
``perfbench/reference.json``, the expected simulated outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List

from speed import SpeedScale
from workloads import ROOT, WORK_DIR, WORKLOADS, Harness, OpResult, merge_counts

REFERENCE = Path(__file__).resolve().parent / "reference.json"
#: Fresh interpreters started per run to time set-up.
SETUP_PROBES = 7
#: A run has at least this many ops, so the tail percentile (>= 10
#: samples beyond it) always exists.
MIN_OPS = 21
#: End-to-end metrics and their units, in BENCHMARK.json's order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Host seconds of ops between two calibrations of the host's speed.
CALIBRATION_INTERVAL_S = 0.5
#: No new op starts after this many seconds, so a run ends within 180 s.
HARD_STOP_S = 150.0


def program_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file() and (ROOT / "examples").is_dir()


def probe_setup(workload: str, seed: int, scale=None) -> Dict[str, float]:
    """Median import and set-up seconds over fresh interpreters.

    With a ``scale`` each probe is rescaled by the calibrations around it.
    """
    WORK_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    rows = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "child.py"), "setup", workload, str(seed)],
            cwd=WORK_DIR,
            env=env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        row = SimpleNamespace(**json.loads(proc.stdout.strip().splitlines()[-1]))
        rows.append(row)
        if scale is not None:
            scale.add(row, 0.0, attrs=("import_s", "setup_s"))
            scale.flush()
    return {key: statistics.median(getattr(r, key) for r in rows) for key in ("import_s", "setup_s")}


def run_unit(workload, unit, h: Harness, reference) -> List[OpResult]:
    """Execute one unit; every failure mode becomes failed ops."""
    start = time.perf_counter()
    try:
        results = workload.execute(unit, h)
    except Exception as exc:  # the op failed; count it, keep measuring
        h.designs.clear()
        seconds = (time.perf_counter() - start) / unit.n_ops
        failure = f"{type(exc).__name__}: {exc}"
        return [OpResult(unit.key, seconds, None, failure) for _ in range(unit.n_ops)]
    if len(results) != unit.n_ops:
        for r in results:
            r.failure = r.failure or f"expected {unit.n_ops} ops, got {len(results)}"
    if reference is not None:
        for r in results:
            expected = reference.get(r.key)
            if r.failure is None and expected != r.digest:
                r.failure = "no reference" if expected is None else "output differs from reference"
    return results


def install_capture(h: Harness):
    from tracing import Patches

    patches = Patches()
    patches.replace("repro.core.netlist", "Netlist.elaborate", h.capture)
    return patches


def tail(values: List[float]):
    """Highest nearest-rank percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def report_failures(results: List[OpResult]) -> None:
    failed = [r for r in results if r.failure]
    for r in failed[:10]:
        print(f"  FAILED {r.key}: {r.failure}")
    if len(failed) > 10:
        print(f"  ... {len(failed) - 10} more failures")


def run_cycles(workload, seconds: float) -> int:
    """Whole cycles that take ``seconds`` on the nominal machine.

    The run length is a number of ops, not a deadline: every run, on every
    commit, then times the same multiset of ops, and the tail percentile
    sits at the same rank.  A faster commit finishes sooner.
    """
    per_cycle = sum(u.n_ops for u in workload.pattern(random.Random(0)))
    return max(round(seconds / workload.cycle_s), -(-MIN_OPS // per_cycle), 1)


def measure(workload, seed: int, seconds: float, reference) -> dict:
    scale = SpeedScale(CALIBRATION_INTERVAL_S)
    setup = probe_setup(workload.name, seed, scale)
    h = Harness()
    patches = install_capture(h) if workload.in_process else None
    results: List[OpResult] = []
    n_cycles = run_cycles(workload, seconds)
    cycles = workload.cycles(seed)
    if workload.in_process:
        # Untimed warm-up: first-call costs belong to setup_s, not to an op.
        run_unit(workload, next(workload.cycles(seed))[0], h, None)
        h.designs.clear()
    start = time.perf_counter()
    for unit in (u for _ in range(n_cycles) for u in next(cycles)):
        if time.perf_counter() - start >= HARD_STOP_S:
            break
        for r in run_unit(workload, unit, h, reference):
            results.append(r)
            scale.add(r, r.seconds)
    scale.flush()
    wall = time.perf_counter() - start
    if patches is not None:
        patches.close()

    times = [r.seconds for r in results]
    failed = sum(1 for r in results if r.failure)
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(r.rss_kb for r in results)
    tail_s, tail_pct = tail(times)
    values = {
        "setup_s": setup["setup_s"],
        "ops_per_s": len(results) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    print(f"workload {workload.name}  seed {seed}  measured {wall:.2f} s  "
          f"cycles {n_cycles}  ops {len(results)}  "
          f"speed factor median {statistics.median(scale.factors):.3f}")
    print(f"  setup_s      {values['setup_s']:.4f} s   (median of {SETUP_PROBES} fresh interpreters)")
    print(f"  ops_per_s    {values['ops_per_s']:.4f} ops/s")
    print(f"  op_p50_s     {values['op_p50_s']:.4f} s   (n={len(times)})")
    print(f"  op_tail_s    {tail_s:.4f} s   (p{tail_pct:.1f}, n={len(times)}, 10 beyond)")
    print(f"  peak_rss_mb  {values['peak_rss_mb']:.2f} MB")
    print(f"  fail_frac    {failed / len(results):.4f}   ({failed}/{len(results)})")
    report_failures(results)
    return {"results": results, "metrics": metrics}


def per_layer_metrics(counts, self_t, spans, import_s, overhead) -> Dict[str, tuple]:
    def c(key):
        return counts.get(key, 0)

    def st(key):
        return self_t.get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    words = c("bus.config_words") + c("bus.data_words")
    return {
        "kernel.self_s": (st("kernel"), "s"),
        "kernel.process_executions": (c("kernel.process_executions"), "count"),
        "kernel.timed_activations": (c("kernel.timed_activations"), "count"),
        "kernel.delta_cycles": (c("kernel.delta_cycles"), "count"),
        "kernel.compiled_thread_waits": (c("kernel.compiled_thread_waits"), "count"),
        "kernel.us_per_execution": (ratio(st("kernel") * 1e6, c("kernel.process_executions")), "us"),
        "analysis.self_s": (st("analysis"), "s"),
        "analysis.initialize_s": (spans.get("initialize", 0.0), "s"),
        "analysis.lint_s": (spans.get("lint", 0.0), "s"),
        "bus.self_s": (st("bus"), "s"),
        "bus.memory_self_s": (st("bus.memory"), "s"),
        "bus.transactions": (c("bus.transactions"), "count"),
        "bus.config_words": (c("bus.config_words"), "words"),
        "bus.data_words": (c("bus.data_words"), "words"),
        "bus.us_per_word": (ratio(st("bus") * 1e6, words), "us"),
        "bus.arb_wait_mean_ns": (ratio(c("bus.arb_wait_total_ns"), c("bus.transactions")), "ns"),
        "bus.utilization": (ratio(c("bus.busy_ns"), c("bus.elapsed_ns")), "ratio"),
        "bus.monitor_records": (c("bus.monitor_records"), "count"),
        "core.self_s": (st("core"), "s"),
        "core.elaborate_s": (spans.get("netlist", 0.0) + spans.get("elaborate", 0.0), "s"),
        "core.switches": (c("core.switches"), "count"),
        "core.fetch_misses": (c("core.fetch_misses"), "count"),
        "core.prefetch_hits": (c("core.prefetch_hits"), "count"),
        "core.prefetch_hit_ratio": (ratio(c("core.prefetch_hits"), c("core.prefetch_requests")), "ratio"),
        "core.config_retries": (c("core.config_retries"), "count"),
        "core.reconfig_sim_us": (c("core.reconfig_sim_us"), "us"),
        "core.us_per_config_word": (ratio(st("core") * 1e6, c("bus.config_words")), "us"),
        "apps.self_s": (st("apps"), "s"),
        "apps.jobs": (c("apps.jobs"), "count"),
        "cpu.self_s": (st("cpu"), "s"),
        "faults.self_s": (st("faults"), "s"),
        "faults.trials": (c("faults.trials"), "count"),
        "faults.masked": (c("faults.masked"), "count"),
        "faults.recovered": (c("faults.recovered"), "count"),
        "faults.sdc": (c("faults.sdc"), "count"),
        "faults.hang": (c("faults.hang"), "count"),
        "dse.report_s": (spans.get("report", 0.0), "s"),
        "import.self_s": (st("import"), "s"),
        "setup.import_s": (import_s, "s"),
        "trace.overhead": (overhead, "ratio"),
    }


#: Packages whose self-time share states each workload's intent.
INTENT = {
    "fetch_bound": ("bus", "core", "kernel"),
    "bus_contended": ("apps", "cpu"),
    "fault_campaign": ("faults", "core", "bus", "kernel"),
    "cold_toolchain": ("import", "analysis"),
}


def traced(workload, seed: int, reference) -> dict:
    from tracing import Tracer

    setup = probe_setup(workload.name, seed)
    units = workload.trace_units(seed)

    def replay(h: Harness):
        patches = install_capture(h) if workload.in_process else None
        start = time.perf_counter()
        try:
            return [run_unit(workload, u, h, reference) for u in units], time.perf_counter() - start
        finally:
            if patches is not None:
                patches.close()

    untraced_results, untraced_wall = replay(Harness())
    tracer = Tracer()
    h = Harness(tracer)
    tracer.install()
    try:
        traced_results, traced_wall = replay(h)
    finally:
        tracer.uninstall()

    results: List[OpResult] = []
    counts: Dict[str, float] = {}
    for plain_ops, traced_ops in zip(untraced_results, traced_results):
        for a, b in zip(plain_ops, traced_ops):
            # Untraced children report no counts; their stdout is compared.
            if a.failure is None and (
                a.digest != b.digest or (a.counts and a.counts != b.counts)
            ):
                a.failure = "traced run's simulated outputs differ from the untraced run's"
            a.failure = a.failure or b.failure
            merge_counts(counts, b.counts)
            results.append(a)

    self_t = dict(tracer.self_time())
    for cat, s in h.child_self.items():
        self_t[cat] = self_t.get(cat, 0.0) + s
    spans = dict(tracer.spans.totals())
    for group, s in h.child_spans.items():
        spans[group] = spans.get(group, 0.0) + s
    overhead = traced_wall / untraced_wall
    metrics = per_layer_metrics(counts, self_t, spans, setup["import_s"], overhead)

    WORK_DIR.mkdir(exist_ok=True)
    trace_file = WORK_DIR / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(
        json.dumps(
            {"self_s": self_t, "span_totals_s": spans, "spans": tracer.spans.to_json()},
            indent=1,
        )
    )

    failed = sum(1 for r in results if r.failure)
    total = sum(s for cat, s in self_t.items() if cat != "bus.memory")
    print(f"workload {workload.name}  seed {seed}  traced ops {len(results)}  "
          f"untraced {untraced_wall:.2f} s  traced {traced_wall:.2f} s  "
          f"overhead {overhead:.2f}x")
    print(f"  self time by package (profiled, {total:.3f} s):")
    for cat, s in sorted(self_t.items(), key=lambda kv: -kv[1]):
        print(f"    {cat:<12} {s:9.4f} s  {100 * s / total if total else 0:5.1f}%")
    print("  phase spans (outermost, traced):")
    for group, s in sorted(spans.items()):
        print(f"    {group:<12} {s:9.4f} s")
    share = sum(self_t.get(cat, 0.0) for cat in INTENT[workload.name]) / total if total else 0.0
    print(f"  intent: {'+'.join(INTENT[workload.name])} self-time share {100 * share:.1f}%")
    print(f"  fail_frac    {failed / len(results):.4f}   ({failed}/{len(results)})")
    report_failures(results)
    print(f"  spans written to {trace_file.relative_to(ROOT)}")
    return {"results": results, "metrics": metrics}


def record() -> int:
    """Rewrite reference.json from every op any seed can produce."""
    sys.path.insert(0, str(ROOT / "src"))
    reference: Dict[str, str] = {}
    for workload in WORKLOADS.values():
        h = Harness()
        patches = install_capture(h) if workload.in_process else None
        repeats = 1 if workload.in_process else 2
        for unit in workload.pool():
            runs = [
                [(r.key, r.digest, r.failure) for r in run_unit(workload, unit, h, None)]
                for _ in range(repeats)
            ]
            for key, _digest, failure in runs[0]:
                if failure:
                    print(f"cannot record {key}: {failure}", file=sys.stderr)
                    return 1
            if any(run != runs[0] for run in runs[1:]):
                print(f"{unit.key}: output differs between two runs", file=sys.stderr)
                return 1
            reference.update((key, d) for key, d, _failure in runs[0])
            print(f"recorded {unit.key}")
        if patches is not None:
            patches.close()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} references to {REFERENCE.relative_to(ROOT)}")
    return 0


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU.

    The calibration kernel then measures the core the ops (and the
    fresh-interpreter children) run on; on a shared host each core has its
    own noisy neighbours.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no program to benchmark under {ROOT} (need src/repro and examples/)",
              file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    reference = json.loads(REFERENCE.read_text())
    workload = WORKLOADS[args.workload]
    if args.trace:
        out = traced(workload, args.seed, reference)
    else:
        out = measure(workload, args.seed, args.seconds, reference)
    results = out["results"]
    failed = sum(1 for r in results if r.failure)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
