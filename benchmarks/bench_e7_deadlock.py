"""E7 — Section 5.4, limitation 3: the bus deadlock and its remedies.

Reproduces the paper's condition exactly: blocking interface methods on a
shared context-memory/interface bus deadlock (the CPU holds the bus for a
call into the DRCF; the DRCF needs the bus to fetch the context), while
split transactions or a dedicated configuration bus complete normally.

Expected shape: deadlock occurs *iff* (blocking protocol AND shared bus).
"""

import pytest

from repro.apps import JobRunner, frame_interleaved_jobs, make_reconfigurable_netlist
from repro.dse import format_table
from repro.kernel import Simulator, diagnose
from repro.tech import VIRTEX2PRO

CONFIGS = [
    {"label": "blocking + shared bus", "bus_protocol": "blocking", "dedicated_config_bus": False},
    {"label": "split + shared bus", "bus_protocol": "split", "dedicated_config_bus": False},
    {"label": "blocking + dedicated cfg bus", "bus_protocol": "blocking", "dedicated_config_bus": True},
    {"label": "split + dedicated cfg bus", "bus_protocol": "split", "dedicated_config_bus": True},
]


def run_config(config):
    netlist, info = make_reconfigurable_netlist(
        ("fir", "fft"),
        tech=VIRTEX2PRO,
        bus_protocol=config["bus_protocol"],
        dedicated_config_bus=config["dedicated_config_bus"],
    )
    sim = Simulator()
    design = netlist.elaborate(sim)
    jobs = frame_interleaved_jobs(("fir", "fft"), 1, seed=5)
    runner = JobRunner(info.accel_bases, info.buffer_words)
    design["cpu"].run_task(runner.task(jobs), name="wl")
    sim.run()
    buses = [design["system_bus"]]
    if config["dedicated_config_bus"]:
        buses.append(design["config_bus"])
    report = diagnose(sim, buses=buses)
    return {
        "configuration": config["label"],
        "deadlocked": report.deadlocked,
        "jobs_completed": f"{len(runner.results)}/{len(jobs)}",
        "wait_for": report.chains[0] if report.chains else "-",
    }


@pytest.fixture(scope="module")
def rows():
    return [run_config(c) for c in CONFIGS]


def test_e7_deadlock_condition(benchmark, rows, save_table):
    benchmark.pedantic(run_config, args=(CONFIGS[0],), rounds=2, iterations=1)

    by_label = {row["configuration"]: row for row in rows}
    # Deadlock iff blocking protocol AND shared config/interface bus —
    # exactly the paper's condition.
    assert by_label["blocking + shared bus"]["deadlocked"]
    assert by_label["blocking + shared bus"]["jobs_completed"] != "2/2"
    for remedy in (
        "split + shared bus",
        "blocking + dedicated cfg bus",
        "split + dedicated cfg bus",
    ):
        assert not by_label[remedy]["deadlocked"], remedy
        assert by_label[remedy]["jobs_completed"] == "2/2"

    # The recovered wait-for chain names the paper's cycle: the DRCF queued
    # behind the master whose transfer it is servicing.
    chain = by_label["blocking + shared bus"]["wait_for"]
    assert "drcf1" in chain and "cpu" in chain

    save_table(
        "e7_deadlock",
        format_table(rows, title="E7: Section 5.4 deadlock condition matrix"),
    )
