"""Each workload still exercises what it was chosen for.

Run with ``python3 -m pytest perfbench/test_intent.py`` from the checkout
root.  The checks use simulated counts only: host-time shares move with
legitimate optimisations, these counts must not.  Each runs the workload's
traced op list untraced, at the default seed and at one other.
"""

from __future__ import annotations

import sys

import pytest

from workloads import ROOT, WORKLOADS, Harness, merge_counts

sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SEEDS = (1, 2)


def ops(workload_name: str, seed: int):
    workload = WORKLOADS[workload_name]
    reference = run.json.loads(run.REFERENCE.read_text())
    h = Harness()
    patches = run.install_capture(h) if workload.in_process else None
    try:
        results = [
            r
            for unit in workload.trace_units(seed)
            for r in run.run_unit(workload, unit, h, reference)
        ]
    finally:
        if patches is not None:
            patches.close()
    assert [r.failure for r in results if r.failure] == []
    return results


def total(results):
    counts = {}
    for r in results:
        merge_counts(counts, r.counts)
    return counts


@pytest.mark.parametrize("seed", SEEDS)
def test_fetch_bound_is_dominated_by_configuration_words(seed):
    counts = total(ops("fetch_bound", seed))
    words = counts["bus.config_words"] + counts["bus.data_words"]
    assert counts["bus.config_words"] >= 0.95 * words


@pytest.mark.parametrize("seed", SEEDS)
def test_bus_contended_waits_for_arbitration(seed):
    results = ops("bus_contended", seed)
    counts = total(results)
    assert counts["bus.arb_wait_total_ns"] > 0
    asic = [r for r in results if "/asic/" in r.key]
    assert asic and all(r.counts["bus.config_words"] == 0 for r in asic)


@pytest.mark.parametrize("seed", SEEDS)
def test_fault_campaign_recovers_and_retries(seed):
    counts = total(ops("fault_campaign", seed))
    assert counts["faults.recovered"] >= 1
    assert counts["core.config_retries"] >= 1


@pytest.mark.parametrize("seed", SEEDS)
def test_cold_toolchain_invocations_exit_zero(seed):
    results = ops("cold_toolchain", seed)
    assert sorted(r.key.split("/")[1] for r in results) == sorted(
        WORKLOADS["cold_toolchain"].invocations
    )


def test_reported_metrics_match_benchmark_json():
    spec = run.json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = run.per_layer_metrics({}, {}, {}, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_value, unit) in per_layer.items()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit in run.END_TO_END
    ]
