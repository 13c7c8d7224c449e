#!/usr/bin/env python3
"""Reproduce the Section 5.4 bus deadlock — and both remedies.

The paper's limitation 3: "The interface methods must be non-blocking or
must support split transactions if the context memory bus is the same as
the interface bus of the components. ... This results in deadlock of the
bus."

Three runs of the same workload:

1. blocking bus protocol, shared configuration memory → DEADLOCK (the CPU
   holds the bus for its call into the DRCF; the DRCF needs the same bus to
   fetch the context bitstream);
2. split-transaction bus (the paper's first remedy) → completes;
3. blocking bus but a dedicated configuration bus (the other memory
   organization) → completes.

Run:  python examples/deadlock_demo.py
"""

from repro.apps import (
    JobRunner,
    frame_interleaved_jobs,
    make_reconfigurable_netlist,
)
from repro.kernel import Simulator, diagnose
from repro.tech import VIRTEX2PRO


def build_netlist():
    """The fixed (split-transaction) variant — this one lints clean.

    The deliberately deadlocking architecture of run 1 is flagged
    statically by `python -m repro lint --builtin deadlock` (rule REP310
    on the netlist spec, REP601 on the elaborated wait-for graph with
    --interproc).
    """
    return make_reconfigurable_netlist(
        ("fir", "fft"), tech=VIRTEX2PRO, bus_protocol="split"
    )


def attempt(label: str, **soc_kwargs) -> None:
    jobs = frame_interleaved_jobs(("fir", "fft"), n_frames=1, seed=5)
    netlist, info = make_reconfigurable_netlist(
        ("fir", "fft"), tech=VIRTEX2PRO, **soc_kwargs
    )
    sim = Simulator()
    design = netlist.elaborate(sim)
    runner = JobRunner(info.accel_bases, info.buffer_words)
    design["cpu"].run_task(runner.task(jobs), name="workload")
    # The deadlock of run 1 starves the event queue, so the run returns by
    # itself; the wall-clock watchdog is belt-and-braces against livelocks
    # (it stops the run and attaches sim.watchdog_report instead of hanging).
    sim.run(max_wall_s=30.0)
    if sim.watchdog_fired:
        print(f"--- {label} ---")
        print(sim.watchdog_report.render())
        print(f"jobs completed before watchdog: {len(runner.results)}/{len(jobs)}")
        print()
        return
    report = diagnose(sim, buses=[design["system_bus"]])
    print(f"--- {label} ---")
    if report.deadlocked:
        print(report.render())
        print(f"jobs completed before deadlock: {len(runner.results)}/{len(jobs)}")
    else:
        print(f"completed: {len(runner.results)}/{len(jobs)} jobs at {sim.now}")
    print()


def main() -> None:
    attempt(
        "1. blocking protocol, shared config/interface bus (the paper's deadlock)",
        bus_protocol="blocking",
    )
    attempt(
        "2. split-transaction bus (remedy: interface methods support split)",
        bus_protocol="split",
    )
    attempt(
        "3. blocking bus + dedicated configuration bus (remedy: separate memory path)",
        bus_protocol="blocking",
        dedicated_config_bus=True,
    )


if __name__ == "__main__":
    main()
