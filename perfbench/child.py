"""Fresh-interpreter helper of ``perfbench/run.py``.

``child.py setup <workload> <seed>``
    Times how long this fresh process takes to reach its first simulated
    event: importing the program, building, transforming and elaborating
    the workload's first design and ``Simulator.initialize``.  Prints one
    JSON line ``{"import_s": ..., "setup_s": ...}``.

``child.py profile <out.json> <script.py | -m module> [args...]``
    Runs the target like ``python`` would, under the profiler and the
    phase spans, and writes the self-time table, span totals and simulated
    counts to ``out.json``.  The target's stdout and exit code pass
    through unchanged.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402


class FirstEvent(BaseException):
    """Raised out of ``Simulator.initialize`` to end the set-up probe."""


def setup(workload_name: str, seed: int) -> int:
    from tracing import Patches
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    start = time.perf_counter()
    workload.import_program()
    import_s = time.perf_counter() - start

    def stop_after(initialize):
        def initialized(sim, *args, **kwargs):
            initialize(sim, *args, **kwargs)
            raise FirstEvent

        return initialized

    Patches().replace("repro.kernel.simulator", "Simulator.initialize", stop_after)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            workload.first_event(seed)
    except FirstEvent:
        setup_s = time.perf_counter() - _T0
    else:
        print("error: the first op never initialized a simulator", file=sys.stderr)
        return 1
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
    return 0


def profile(out_path: str, argv: list) -> int:
    from tracing import Patches, Tracer
    from workloads import Harness, design_counts, merge_counts

    tracer = Tracer()
    harness = Harness()
    tracer.begin()
    code = 0
    try:
        import repro.core.netlist  # noqa: F401  (profiled: counts as import)

        Patches().replace("repro.core.netlist", "Netlist.elaborate", harness.capture)
        tracer.install()
        if argv[0] == "-m":
            sys.argv = [argv[1], *argv[2:]]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            sys.path.insert(0, os.path.dirname(os.path.abspath(argv[0])))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.end()
    sys.stdout.flush()
    counts: dict = {}
    for design in harness.designs:
        merge_counts(counts, design_counts(design))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"self": tracer.self_time(), "spans": tracer.spans.totals(), "counts": counts},
            fh,
        )
    return code


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        return setup(argv[1], int(argv[2]))
    if len(argv) >= 3 and argv[0] == "profile":
        return profile(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
