"""The benchmark's workloads: what one op is, and how it is checked.

Every op goes through the program's public API, one at a time, in one
process (``workers=1`` everywhere).  An op's inputs come from a finite pool
per workload, and the ``--seed`` only picks and orders pool entries, so
``reference.json`` holds the expected simulated outputs of *every* op any
seed can produce.  Nothing here imports ``repro`` at module level: the
set-up probe times that import itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

#: Workload seeds an op may draw (42 is the program's own default seed).
DATA_SEEDS = (42, 7, 11, 19, 23, 31, 37, 43)


@dataclass(frozen=True)
class Unit:
    """One call into the program; ``n_ops`` ops come out of it."""

    key: str
    params: Dict[str, object]
    n_ops: int = 1


@dataclass
class OpResult:
    key: str
    seconds: float
    digest: Optional[str]
    failure: Optional[str] = None
    #: Simulated counts read from the program's public objects.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Peak RSS of the op's own process, for ops run in a child.
    rss_kb: int = 0


def digest(obj: object) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# reading the program's public objects
# ---------------------------------------------------------------------------

def _modules(top) -> Iterator[object]:
    yield top
    for child in top.children:
        yield from _modules(child)


def design_counts(design) -> Dict[str, float]:
    """Per-layer counts of one finished simulation."""
    from repro.bus import Bus
    from repro.core import ContextPrefetcher, Drcf

    stats = design.sim.stats
    now_ns = design.sim.now.to_ns()
    counts: Dict[str, float] = {
        "kernel.process_executions": stats.process_executions,
        "kernel.timed_activations": stats.timed_activations,
        "kernel.delta_cycles": stats.delta_cycles,
        "kernel.compiled_thread_waits": getattr(stats, "compiled_thread_waits", 0),
    }

    def add(key: str, value: float) -> None:
        counts[key] = counts.get(key, 0) + value

    for module in _modules(design.top):
        if isinstance(module, Bus):
            monitor = module.monitor
            n = monitor.transaction_count
            add("bus.transactions", n)
            add("bus.config_words", monitor.words_by_tag("config"))
            add("bus.data_words", monitor.words_without_tag("config"))
            add("bus.arb_wait_total_ns", monitor.mean_arbitration_wait().to_ns() * n)
            add("bus.busy_ns", monitor.utilization(design.sim.now) * now_ns)
            add("bus.elapsed_ns", now_ns)
            counts["bus.monitor_records"] = max(
                counts.get("bus.monitor_records", 0),
                len(getattr(monitor, "transactions", ())),
            )
        elif isinstance(module, Drcf):
            s = module.stats
            add("core.switches", s.total_switches)
            add("core.fetch_misses", s.fetch_misses)
            add("core.prefetch_hits", s.prefetch_hits)
            add("core.config_retries", s.config_retries)
            add("core.reconfig_sim_us", s.total_reconfig_time.to_ns() / 1e3)
        elif isinstance(module, ContextPrefetcher):
            add("core.prefetch_requests", module.requests_issued)
    return counts


def merge_counts(into: Dict[str, float], counts: Dict[str, float]) -> None:
    for key, value in counts.items():
        if key == "bus.monitor_records":
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


class Harness:
    """Runs the program calls of an op; records the designs they elaborate.

    ``call`` is the only place host time is taken for in-process ops.  A
    traced harness also turns the profiler and the phase spans on around
    each call, and nowhere else, so the benchmark's own checks stay out of
    the attribution.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.designs: List[object] = []
        self.child_self: Dict[str, float] = {}
        self.child_spans: Dict[str, float] = {}

    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def capture(self, elaborate: Callable) -> Callable:
        designs = self.designs

        def capturing(netlist, sim, *args, **kwargs):
            design = elaborate(netlist, sim, *args, **kwargs)
            designs.append(design)
            return design

        return capturing

    def call(self, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` and the host seconds it took."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs), time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.end()

    def take_counts(self) -> Dict[str, float]:
        counts: Dict[str, float] = {}
        for design in self.designs:
            merge_counts(counts, design_counts(design))
        self.designs.clear()
        return counts


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    #: Ops run inside the benchmark process (False: each op is a child).
    in_process = True
    #: Units the traced run replays (fixed, so its counts repeat exactly).
    trace_length = 1
    #: Host seconds one cycle takes on the nominal machine at the commit
    #: that added the benchmark; ``--seconds`` is converted to whole cycles
    #: with it.
    cycle_s = 1.0

    def pattern(self, rng: random.Random) -> List[Unit]:
        """One cycle of units: the same multiset for every seed."""
        raise NotImplementedError

    def pool(self) -> List[Unit]:
        """Every unit any seed can produce (recorded in reference.json)."""
        raise NotImplementedError

    def cycles(self, seed: int) -> Iterator[List[Unit]]:
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self.pattern(rng)

    def trace_units(self, seed: int) -> List[Unit]:
        return next(self.cycles(seed))[: self.trace_length]

    def import_program(self) -> None:
        raise NotImplementedError

    def first_event(self, seed: int) -> None:
        """Drive the first op until the simulator initializes."""
        self.execute(next(self.cycles(seed))[0], Harness())

    def execute(self, unit: Unit, h: Harness) -> List[OpResult]:
        raise NotImplementedError


class DesignPoints(Workload):
    """Ops are ``evaluate_architecture`` design points (golden check on)."""

    #: Techs of one cycle, in order; the mix fixes the cost of a cycle.
    techs: tuple = ()
    base: Dict[str, object] = {}

    def _unit(self, tech: str, seed: int) -> Unit:
        params = dict(self.base, tech=tech, seed=seed)
        return Unit(f"{self.name}/{tech}/s{seed}", params)

    def pattern(self, rng):
        # Every tech meets every data seed once per cycle, so the cost of a
        # cycle does not depend on the run's seed.
        seeds = list(DATA_SEEDS)
        rng.shuffle(seeds)
        n = len(seeds)
        return [
            self._unit(tech, seeds[(k + j) % n])
            for k in range(n)
            for j, tech in enumerate(self.techs)
        ]

    def pool(self):
        return [self._unit(t, s) for t in dict.fromkeys(self.techs) for s in DATA_SEEDS]

    def import_program(self):
        import repro.dse  # noqa: F401

    def execute(self, unit, h):
        from repro.dse import evaluate_architecture

        row, seconds = h.call(evaluate_architecture, dict(unit.params))
        (design,) = h.designs
        problems = invariant_violations(unit.params, row, design)
        counts = h.take_counts()
        counts["apps.jobs"] = row["jobs"]
        return [
            OpResult(
                unit.key,
                seconds,
                digest(row),
                failure="; ".join(problems) or None,
                counts=counts,
            )
        ]


def invariant_violations(params: dict, row: dict, design) -> List[str]:
    """Accounting invariants of one design point, from public objects."""
    from repro.bus import Bus
    from repro.core import Drcf

    bus = next(m for m in _modules(design.top) if isinstance(m, Bus))
    drcfs = [m for m in _modules(design.top) if isinstance(m, Drcf)]
    monitor = bus.monitor
    bus_config = monitor.words_by_tag("config")
    problems = []
    if row["bus_config_words"] != bus_config:
        problems.append("metric row disagrees with BusMonitor config words")
    if design.sim.stats.process_executions <= 0:
        problems.append("no process executed")
    if params["tech"] == "asic":
        if row["switches"] != 0 or bus_config != 0 or drcfs:
            problems.append("asic point switched or moved config words")
        return problems
    (drcf,) = drcfs
    s = drcf.stats
    if s.prefetch_hits > s.total_switches:
        problems.append(f"prefetch hits {s.prefetch_hits} > switches {s.total_switches}")
    stopped = params.get("background_gap_cycles") is not None
    if stopped and bus_config < s.total_config_words:
        problems.append(
            f"bus config words {bus_config} < DrcfStats {s.total_config_words}"
        )
    if not stopped and bus_config != s.total_config_words:
        problems.append(
            f"bus config words {bus_config} != DrcfStats {s.total_config_words}"
        )
    if not params.get("prefetch"):
        busy_ns = (s.total_active_time + s.total_reconfig_time).to_ns()
        if busy_ns > row["makespan_us"] * 1e3 * (1 + 1e-12):
            problems.append(
                f"active + reconfig {busy_ns} ns > makespan {row['makespan_us'] * 1e3} ns"
            )
    return problems


class FetchBound(DesignPoints):
    name = "fetch_bound"
    # Two virtex2pro points per varicore point keep the median op inside
    # one cost cluster, so it does not flip between techs run to run.
    techs = ("virtex2pro", "virtex2pro", "varicore")
    base = {
        "accels": ["fir", "fft", "viterbi", "xtea"],
        "workload": "interleaved",
        "n_frames": 4,
        "bus_protocol": "split",
    }
    trace_length = 6
    cycle_s = 9.0


class BusContended(DesignPoints):
    name = "bus_contended"
    techs = ("asic", "morphosys", "varicore")
    base = {
        "accels": ["fir", "fft", "viterbi", "xtea"],
        "workload": "random",
        "n_frames": 2,
        "bus_protocol": "split",
        "background_gap_cycles": 8,
        "prefetch": True,
    }
    trace_length = 9
    cycle_s = 4.8


class FaultCampaign(Workload):
    name = "fault_campaign"
    #: (scenario, recovery, trials).  More modem trials than wireless ones
    #: keep the median trial inside the modem cost cluster.
    campaigns = (("modem", "retry", 8), ("wireless", "full", 4))
    #: Campaign seeds; few enough that a run covers every one twice.
    seeds = DATA_SEEDS[:4]
    trace_length = 2
    cycle_s = 7.5

    def _unit(self, scenario: str, recovery: str, trials: int, seed: int) -> Unit:
        return Unit(
            f"{self.name}/{scenario}-{recovery}/s{seed}",
            {"scenario": scenario, "recovery": recovery, "trials": trials, "seed": seed},
            n_ops=trials + 1,
        )

    def pattern(self, rng):
        seeds = list(self.seeds)
        rng.shuffle(seeds)
        return [self._unit(*c, s) for s in seeds for c in self.campaigns]

    def pool(self):
        return [self._unit(*c, s) for c in self.campaigns for s in self.seeds]

    def import_program(self):
        import repro.faults  # noqa: F401

    def execute(self, unit, h):
        from tracing import Patches

        from repro.faults import SCENARIOS, run_campaign

        p = unit.params
        trial_seconds: List[float] = []

        def timing(run_trial):
            def timed(payload):
                start = time.perf_counter()
                try:
                    return run_trial(payload)
                finally:
                    trial_seconds.append(time.perf_counter() - start)

            return timed

        # Per-trial host time comes from the engine's trial function; if a
        # later version renames it, every trial gets the campaign's mean.
        patches = Patches()
        patches.replace("repro.faults.campaign", "_run_trial", timing)
        try:
            report, seconds = h.call(
                run_campaign,
                SCENARIOS[p["scenario"]],
                trials=p["trials"],
                seed=p["seed"],
                recovery=p["recovery"],
                workers=1,
            )
        finally:
            patches.close()
        if len(trial_seconds) != unit.n_ops:
            trial_seconds = [seconds / unit.n_ops] * unit.n_ops
        data = report.to_dict()
        trials = data.pop("results")
        counts = h.take_counts()
        counts["faults.trials"] = len(trials)
        for outcome, n in data["counts"].items():
            counts[f"faults.{outcome}"] = n
        results = [OpResult(f"{unit.key}/golden", trial_seconds[0], digest(data), counts=counts)]
        for i, trial in enumerate(trials):
            results.append(
                OpResult(f"{unit.key}/t{i}", trial_seconds[i + 1], digest(trial))
            )
        return results


#: Lines of kernel bookkeeping some examples print.  They count the
#: simulator's own work (what a faster scheduler or coalesced fetch is
#: meant to reduce), not what the modelled hardware did, so they are left
#: out of the output comparison.
_KERNEL_COUNTERS = (
    "process_executions",
    "delta_cycles",
    "timed_activations",
    "signal_updates",
    "specialized_commits",
    "register_commits",
    "compiled_thread_waits",
)


def normalized_stdout(raw: bytes) -> str:
    text = raw.decode("utf-8", errors="replace").replace(str(ROOT), "<root>")
    return "\n".join(
        line
        for line in text.splitlines()
        if line.split(":", 1)[0].strip() not in _KERNEL_COUNTERS
    )


class ColdToolchain(Workload):
    name = "cold_toolchain"
    in_process = False
    invocations = (
        "lint",
        "quickstart",
        "wireless_multistandard",
        "multifabric_modem",
        "transformation_demo",
    )
    trace_length = 5
    cycle_s = 4.2
    timeout_s = 120

    def pattern(self, rng):
        names = list(self.invocations)
        rng.shuffle(names)
        return [Unit(f"{self.name}/{n}", {"name": n}) for n in names]

    def pool(self):
        return [Unit(f"{self.name}/{n}", {"name": n}) for n in self.invocations]

    def import_program(self):
        # What examples/quickstart.py imports.
        import repro.analysis  # noqa: F401
        import repro.apps  # noqa: F401
        import repro.dse  # noqa: F401
        import repro.kernel  # noqa: F401
        import repro.tech  # noqa: F401

    def first_event(self, seed):
        import runpy

        runpy.run_path(str(ROOT / "examples" / "quickstart.py"), run_name="__main__")

    @staticmethod
    def argv(name: str) -> List[str]:
        if name == "lint":
            examples = sorted(str(p) for p in (ROOT / "examples").glob("*.py"))
            return ["-m", "repro", "lint", "--dataflow", "--cfg", "--interproc", "--json", *examples]
        return [str(ROOT / "examples" / f"{name}.py")]

    def execute(self, unit, h):
        cwd = WORK_DIR / "cold"
        cwd.mkdir(parents=True, exist_ok=True)
        argv = self.argv(unit.params["name"])
        profile_out = None
        if h.tracing:
            profile_out = WORK_DIR / f"profile-{os.getpid()}.json"
            argv = [str(Path(__file__).parent / "child.py"), "profile", str(profile_out), *argv]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        out, rusage, code = _wait_child(proc, self.timeout_s)
        seconds = time.perf_counter() - start
        failure = None if code == 0 else f"exit code {code}"
        counts: Dict[str, float] = {}
        if profile_out is not None and code == 0:
            child = json.loads(profile_out.read_text())
            profile_out.unlink()
            merge_counts(counts, child["counts"])
            for cat, s in child["self"].items():
                h.child_self[cat] = h.child_self.get(cat, 0.0) + s
            for group, s in child["spans"].items():
                h.child_spans[group] = h.child_spans.get(group, 0.0) + s
        return [
            OpResult(
                unit.key,
                seconds,
                digest(normalized_stdout(out)),
                failure=failure,
                counts=counts,
                rss_kb=rusage.ru_maxrss if rusage is not None else 0,
            )
        ]


def _wait_child(proc: subprocess.Popen, timeout_s: float):
    """Read a child's stdout, reap it, and return (stdout, rusage, code).

    ``os.wait4`` reaps the child itself so its own peak RSS is known; a
    child past ``timeout_s`` is killed and reported with code -9.
    """
    import threading

    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _pid, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, rusage, proc.returncode


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (FetchBound(), BusContended(), FaultCampaign(), ColdToolchain())
}
