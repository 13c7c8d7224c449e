#!/usr/bin/env python3
"""Quickstart: build both Figure 1 architectures and compare them.

Builds the paper's baseline SoC (CPU + memory + dedicated accelerators on a
shared bus), runs a frame-structured workload, then rebuilds the same
application with the accelerators folded into a dynamically reconfigurable
fabric (DRCF) on a Virtex-II-Pro-style technology, runs the identical
workload, and prints the comparison the methodology is designed to produce:
end-to-end latency, context switches, reconfiguration time and the
configuration traffic that appeared on the memory bus.

Run:  python examples/quickstart.py
"""

from repro.apps import (
    JobRunner,
    frame_interleaved_jobs,
    golden_outputs,
    make_baseline_netlist,
    make_reconfigurable_netlist,
)
from repro.core import collect_run_metrics, per_context_rows
from repro.dse import format_table
from repro.kernel import Simulator
from repro.tech import VIRTEX2PRO

ACCELS = ("fir", "fft", "viterbi", "xtea")


def build_netlist():
    """The reconfigurable architecture this demo runs (`repro lint` entry)."""
    return make_reconfigurable_netlist(ACCELS, tech=VIRTEX2PRO)


def run_architecture(netlist, info, jobs):
    """Elaborate, run the workload to completion, and gather metrics."""
    sim = Simulator()
    design = netlist.elaborate(sim)
    runner = JobRunner(info.accel_bases, info.buffer_words)
    design["cpu"].run_task(runner.task(jobs), name="workload")
    sim.run()
    assert len(runner.results) == len(jobs), "workload did not finish"
    for result in runner.results:
        assert result.outputs == golden_outputs(result.spec), (
            f"{result.spec.label}: outputs diverge from the executable spec"
        )
    drcf = design[info.drcf_name] if info.drcf_name else None
    report = collect_run_metrics(
        sim,
        bus=design["system_bus"],
        drcf=drcf,
        extra={"makespan_us": max(r.end_ns for r in runner.results) / 1e3},
    )
    return report, drcf


def main() -> None:
    jobs = frame_interleaved_jobs(ACCELS, n_frames=2, seed=7)
    print(f"workload: {len(jobs)} accelerator jobs over {ACCELS}\n")

    print("=== Figure 1(a): dedicated accelerators ===")
    baseline, info_a = make_baseline_netlist(ACCELS)
    report_a, _ = run_architecture(baseline, info_a, jobs)
    print(report_a.render("baseline metrics"))

    print("\n=== Figure 1(b): accelerators folded into a DRCF (Virtex-II Pro) ===")
    reconf, info_b = make_reconfigurable_netlist(ACCELS, tech=VIRTEX2PRO)
    report_b, drcf = run_architecture(reconf, info_b, jobs)
    print(report_b.render("DRCF metrics"))

    print("\nper-context instrumentation (Section 5.3, step 5):")
    print(format_table(per_context_rows(drcf)))

    slowdown = report_b["makespan_us"] / report_a["makespan_us"]
    print(
        f"\nsummary: DRCF run is {slowdown:.1f}x slower end-to-end; "
        f"{report_b['bus_config_words']} configuration words crossed the bus; "
        "all outputs matched the executable specification in both runs."
    )


if __name__ == "__main__":
    main()
