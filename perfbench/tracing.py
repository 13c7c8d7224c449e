"""Host-time attribution from outside the program.

Two instruments, both installed by patching the program's public phase
functions from the benchmark (nothing under ``src/`` knows about them):

* :class:`Spans` wraps each phase call (SoC template/transform, netlist
  elaboration, ``Simulator.initialize``/``run``, metric reporting, the lint
  entry point) in a wall-clock span.  Spans stay in memory; a group's time
  is the sum of its outermost spans, so a nested call of the same group
  (``BusMonitor.summary`` calling ``words_by_tag``) is not counted twice.
* :func:`self_time_by_package` folds a deterministic ``cProfile`` into self
  time per package of the program.  Functions outside the program (C
  builtins, the standard library) count toward the package that called
  them, split by the time each caller accounts for: ``ast.parse`` belongs
  to analysis and the ``Memory.read`` comprehension to bus.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span group -> (module, attribute path) of the public calls it wraps.
#: Entries the program does not define are skipped, so the table survives
#: refactors that remove one of them.
SPAN_TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "netlist": (
        ("repro.apps.soc", "make_baseline_netlist"),
        ("repro.apps.soc", "make_reconfigurable_netlist"),
        ("repro.apps.soc", "make_multi_fabric_netlist"),
        ("repro.core.transform", "transform_to_drcf"),
    ),
    "elaborate": (("repro.core.netlist", "Netlist.elaborate"),),
    "initialize": (("repro.kernel.simulator", "Simulator.initialize"),),
    "run": (("repro.kernel.simulator", "Simulator.run"),),
    "report": (
        ("repro.bus.monitor", "BusMonitor.utilization"),
        ("repro.bus.monitor", "BusMonitor.words_by_tag"),
        ("repro.bus.monitor", "BusMonitor.words_without_tag"),
        ("repro.bus.monitor", "BusMonitor.words_by_master"),
        ("repro.bus.monitor", "BusMonitor.words_by_slave"),
        ("repro.bus.monitor", "BusMonitor.mean_arbitration_wait"),
        ("repro.bus.monitor", "BusMonitor.max_arbitration_wait"),
        ("repro.bus.monitor", "BusMonitor.summary"),
        ("repro.core.stats", "DrcfStats.summary"),
        ("repro.core.power", "PowerModel.drcf_total"),
    ),
    "lint": (("repro.analysis.lint", "run_lint"),),
}


class Patches:
    """Replaces functions in place and puts the originals back on close."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, module_name: str, path: str, make: Callable) -> None:
        """Wrap ``module_name.path`` with ``make(original)``.

        A module-level function is also replaced under every alias another
        ``repro`` module bound with ``from ... import``; a method is
        replaced on its class.  A missing target is skipped.
        """
        module = sys.modules.get(module_name)
        if module is None:
            try:
                __import__(module_name)
            except ImportError:
                return
            module = sys.modules[module_name]
        owner: object = module
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = make(original)
        self._set(owner, attr, wrapper)
        if not parents:
            for other in list(sys.modules.values()):
                if (
                    other is not module
                    and getattr(other, "__name__", "").startswith("repro")
                    and getattr(other, attr, None) is original
                ):
                    self._set(other, attr, wrapper)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def close(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Spans:
    """Wall-clock spans around the program's public phase calls."""

    def __init__(self) -> None:
        #: (group, qualname, op index, start, end, depth within group)
        self.records: List[Tuple[str, str, int, float, float, int]] = []
        self.active = False
        self.op = -1
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches = Patches()

    def install(self) -> None:
        for group, targets in SPAN_TARGETS.items():
            for module_name, path in targets:
                self._patches.replace(
                    module_name, path, functools.partial(self._wrap, group)
                )

    def uninstall(self) -> None:
        self._patches.close()

    def _wrap(self, group: str, fn: Callable) -> Callable:
        depth = self._depth
        records = self.records
        name = getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            level = depth[group]
            depth[group] = level + 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depth[group] = level
                records.append((group, name, self.op, start, end, level))

        return wrapper

    def totals(self) -> Dict[str, float]:
        """Seconds per group, counting only outermost spans of a group."""
        out: Dict[str, float] = defaultdict(float)
        for group, _name, _op, start, end, level in self.records:
            if level == 0:
                out[group] += end - start
        return dict(out)

    def to_json(self) -> List[dict]:
        return [
            {"group": g, "call": n, "op": o, "start": s, "end": e, "depth": d}
            for g, n, o, s, e, d in self.records
        ]


def category(filename: str, funcname: str) -> Optional[str]:
    """The package a profiled function belongs to, or None if foreign."""
    if funcname == "<module>" or filename.startswith("<frozen importlib"):
        return "import"
    path = filename.replace("\\", "/")
    if "/src/repro/" in path:
        rel = path.split("/src/repro/", 1)[1]
        if rel == "kernel/specialize.py":
            return "analysis"
        if rel == "bus/memory.py":
            return "bus.memory"
        return rel.split("/", 1)[0] if "/" in rel else "repro"
    if "/perfbench/" in path:
        return "bench"
    return None


def self_time_by_package(stats: dict) -> Dict[str, float]:
    """Fold ``pstats.Stats(...).stats`` into self seconds per package.

    ``bus.memory`` is reported as a part of ``bus`` (its own key, already
    included in the ``bus`` total).
    """
    memo: Dict[tuple, Dict[str, float]] = {}

    def share(func: tuple, seen: frozenset) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        cat = category(func[0], func[2])
        if cat is not None:
            memo[func] = {cat: 1.0}
            return memo[func]
        if func in seen:
            return {"other": 1.0}
        callers = stats[func][4] if func in stats else {}
        weights = {caller: entry[2] for caller, entry in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: entry[1] for caller, entry in callers.items()}
            total = sum(weights.values())
        if total <= 0:
            memo[func] = {"other": 1.0}
            return memo[func]
        out: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for cat, frac in share(caller, seen | {func}).items():
                out[cat] += frac * weight / total
        memo[func] = dict(out)
        return memo[func]

    table: Dict[str, float] = defaultdict(float)
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for cat, frac in share(func, frozenset()).items():
            table[cat] += tottime * frac
    table["bus"] += table["bus.memory"]
    return dict(table)


class Tracer:
    """Spans plus a deterministic profile, on only while an op's program
    calls run (see ``workloads.Harness.call``)."""

    def __init__(self) -> None:
        import cProfile

        self.spans = Spans()
        self.profile = cProfile.Profile()
        self._profiled = False

    def install(self) -> None:
        self.spans.install()

    def uninstall(self) -> None:
        self.spans.uninstall()

    def begin(self) -> None:
        self.spans.active = True
        self._profiled = True
        self.profile.enable()

    def end(self) -> None:
        self.profile.disable()
        self.spans.active = False

    def self_time(self) -> Dict[str, float]:
        import pstats

        if not self._profiled:
            return {}
        return self_time_by_package(pstats.Stats(self.profile).stats)
