"""E5 — Section 5.3: the context-scheduler protocol, step by step.

Micro-benchmarks the scheduler on a controlled rig and regenerates the
per-context instrumentation table (step 5 of the protocol).

Expected shape: calls to the active context forward with zero switch cost
(step 2); calls to an inactive context suspend for exactly one bitstream
fetch plus the parameterized delays (steps 3–4); the instrumentation
accounts every switch, every configuration word and per-context active
time (step 5).
"""

import pytest

from repro.core import per_context_rows
from repro.dse import format_table
from repro.kernel import us
from tests.core.helpers import DrcfRig, small_tech

GATES = 2000  # -> 2000-byte contexts on the unit-test technology


def run_protocol():
    rig = DrcfRig(n_contexts=3, tech=small_tech(context_slots=1), context_gates=GATES)
    marks = {}

    def body():
        # step 3/4: first call switches (cold miss)
        t0 = rig.sim.now
        yield from rig.master_read(rig.addr(0))
        marks["cold_call_ns"] = (rig.sim.now - t0).to_ns()
        # step 2: repeat call forwards directly
        t0 = rig.sim.now
        yield from rig.master_read(rig.addr(0))
        marks["hot_call_ns"] = (rig.sim.now - t0).to_ns()
        # steps 3/4 again: cross-context call
        t0 = rig.sim.now
        yield from rig.master_read(rig.addr(1))
        marks["switch_call_ns"] = (rig.sim.now - t0).to_ns()
        yield from rig.master_read(rig.addr(2))
        yield from rig.master_read(rig.addr(0))

    rig.sim.spawn("p", body)
    rig.sim.run()
    return rig, marks


@pytest.fixture(scope="module")
def protocol_run():
    return run_protocol()


def test_e5_protocol_steps(benchmark, protocol_run, save_table):
    benchmark.pedantic(run_protocol, rounds=3, iterations=1)
    rig, marks = protocol_run
    stats = rig.drcf.stats

    # Step 2: the hot call is at least an order of magnitude cheaper than
    # any call that switched.
    assert marks["hot_call_ns"] * 10 < marks["switch_call_ns"]
    assert marks["hot_call_ns"] * 10 < marks["cold_call_ns"]

    # Steps 3-4: the switching call's latency is dominated by the fetch of
    # ceil(size/word) configuration words over the bus.
    words = rig.drcf.contexts[0].params.config_words(4)
    fetch_floor_ns = words * 10  # one 100 MHz bus data beat per word
    assert marks["switch_call_ns"] > fetch_floor_ns

    # Step 5: full accounting. 4 switches (0,1,2,0 cold/cross), all misses
    # on a single-slot fabric, each fetching exactly `words` words.
    assert stats.total_switches == 4
    assert stats.fetch_misses == 4
    assert stats.total_config_words == 4 * words
    assert rig.bus.monitor.words_by_tag("config") == 4 * words
    per_ctx = stats.summary()["per_context"]
    assert per_ctx["s0"]["calls"] == 3
    assert per_ctx["s1"]["calls"] == 1
    assert all(row["active_time_ns"] > 0 for row in per_ctx.values())

    save_table(
        "e5_context_scheduler",
        format_table(
            per_context_rows(rig.drcf),
            title="E5: per-context instrumentation (protocol step 5)",
        )
        + "\n\n"
        + format_table(
            [marks],
            title="E5: call latencies (hot = step 2 forward; others switch)",
        )
        + "\n\nDRCF activity timeline:\n"
        + rig.drcf.stats.timeline.render_ascii(),
    )


def test_e5_switch_cost_scales_with_context_size(benchmark):
    def measure(gates):
        rig = DrcfRig(n_contexts=2, tech=small_tech(), context_gates=gates)

        def body():
            yield from rig.master_read(rig.addr(0))
            yield from rig.master_read(rig.addr(1))

        rig.sim.spawn("p", body)
        rig.sim.run()
        return rig.drcf.stats.total_reconfig_time.to_ns()

    times = benchmark.pedantic(
        lambda: [measure(g) for g in (500, 2000, 8000)], rounds=1, iterations=1
    )
    # Reconfiguration time grows monotonically (roughly linearly) with the
    # context size parameter — Section 5.3 parameter 2 in action.
    assert times[0] < times[1] < times[2]
    assert times[2] > times[0] * 4
