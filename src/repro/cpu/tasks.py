"""Task graphs.

The partitioning phase of the ADRIATIC flow (paper Section 5.1) operates on
the functional blocks of the executable specification.  A
:class:`TaskGraph` captures those blocks and their data dependencies; the
:class:`TaskGraphExecutor` runs them on one or more processors, respecting
dependencies, and records per-task completion times.  The profiling report
it produces feeds the partitioning rules of thumb (see
:mod:`repro.dse.partition`).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..kernel import Event, SimTime, SimulationError
from .processor import Processor, Task


@dataclass
class TaskNode:
    """One node of a task graph."""

    name: str
    task: Task
    deps: List[str] = field(default_factory=list)
    #: Optional preferred processor index for multi-CPU execution.
    affinity: Optional[int] = None


class TaskGraph:
    """A DAG of software tasks.

    :meth:`add` only accepts dependencies that already exist, so the graph
    is acyclic by construction and insertion order is a topological order.
    """

    def __init__(self, name: str = "taskgraph") -> None:
        self.name = name
        self._nodes: Dict[str, TaskNode] = {}

    def add(self, name: str, task: Task, deps: Sequence[str] = (), affinity: Optional[int] = None) -> None:
        """Add a node; all ``deps`` must already exist."""
        if name in self._nodes:
            raise SimulationError(f"task graph {self.name}: duplicate node {name!r}")
        for dep in deps:
            if dep not in self._nodes:
                raise SimulationError(
                    f"task graph {self.name}: node {name!r} depends on unknown {dep!r}"
                )
        self._nodes[name] = TaskNode(name=name, task=task, deps=list(deps), affinity=affinity)

    @property
    def node_names(self) -> List[str]:
        return list(self._nodes)

    def node(self, name: str) -> TaskNode:
        return self._nodes[name]

    def _kahn_order(self, *, lexicographic: bool) -> List[str]:
        """Kahn's algorithm; ready nodes leave in name order or FIFO order."""
        indegree = {name: len(set(node.deps)) for name, node in self._nodes.items()}
        children: Dict[str, List[str]] = {name: [] for name in self._nodes}
        for name, node in self._nodes.items():
            for dep in dict.fromkeys(node.deps):
                children[dep].append(name)
        ready = [name for name, n in indegree.items() if n == 0]
        if lexicographic:
            heapq.heapify(ready)
            pop, push = heapq.heappop, heapq.heappush
        else:
            ready = deque(ready)
            pop, push = deque.popleft, deque.append
        order: List[str] = []
        while ready:
            name = pop(ready)
            order.append(name)
            for child in children[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    push(ready, child)
        return order

    def topological_order(self) -> List[str]:
        """A deterministic topological ordering (lexicographic tie-break)."""
        return self._kahn_order(lexicographic=True)

    def critical_path(self, weights: Dict[str, float]) -> List[str]:
        """Longest path through the DAG under non-negative per-node ``weights``.

        Ties go to the earliest-added dependency, and between end nodes to
        the first in breadth-first (FIFO Kahn) order.  An empty list means
        no path has positive weight.
        """
        added = {name: i for i, name in enumerate(self._nodes)}
        best: Dict[str, float] = {}
        via: Dict[str, Optional[str]] = {}
        for name, node in self._nodes.items():  # insertion order is topological
            pred: Optional[str] = None
            for dep in sorted(node.deps, key=added.__getitem__):
                if pred is None or best[dep] > best[pred]:
                    pred = dep
            best[name] = weights.get(name, 0.0) + (best[pred] if pred is not None else 0.0)
            via[name] = pred
        order = self._kahn_order(lexicographic=False)
        end = max(order, key=best.__getitem__, default=None)
        if end is None or best[end] <= 0:
            return []
        path: List[str] = []
        step: Optional[str] = end
        while step is not None:
            path.append(step)
            step = via[step]
        return path[::-1]


class TaskGraphExecutor:
    """Runs a :class:`TaskGraph` on one or more processors.

    Each task runs as its own process on its assigned CPU, starting once
    all its dependencies' completion events have fired.  With a single CPU
    a mutex serializes execution (one in-order core).
    """

    def __init__(self, graph: TaskGraph, processors: Sequence[Processor]) -> None:
        if not processors:
            raise SimulationError("executor needs at least one processor")
        self.graph = graph
        self.processors = list(processors)
        sim = processors[0].sim
        self.sim = sim
        self._done_events: Dict[str, Event] = {}
        self._completed: set = set()
        self.start_times: Dict[str, SimTime] = {}
        self.finish_times: Dict[str, SimTime] = {}
        from ..kernel import Mutex

        self._cpu_locks = [Mutex(sim, f"{cpu.full_name}.lock") for cpu in self.processors]

    def start(self) -> None:
        """Spawn all task processes (call before ``sim.run``)."""
        for name in self.graph.topological_order():
            node = self.graph.node(name)
            self._done_events[name] = Event(self.sim, f"{self.graph.name}.{name}.done")
            cpu_index = (
                node.affinity
                if node.affinity is not None
                else self._static_assign(name)
            )
            self.sim.spawn(
                f"{self.graph.name}.{name}", self._make_body(node, cpu_index)
            )

    def _static_assign(self, name: str) -> int:
        # Deterministic spreading by topological position.
        order = self.graph.topological_order()
        return order.index(name) % len(self.processors)

    def _make_body(self, node: TaskNode, cpu_index: int):
        def body():
            # Level-sensitive dependency wait: re-check the completed set so
            # a dependency finishing before this process first suspends is
            # not missed (events are edges, `_completed` is the level).
            for dep in node.deps:
                while dep not in self._completed:
                    yield self._done_events[dep]
            cpu = self.processors[cpu_index]
            lock = self._cpu_locks[cpu_index]
            yield from lock.lock(node.name)
            try:
                self.start_times[node.name] = self.sim.now
                yield from node.task(cpu)
                self.finish_times[node.name] = self.sim.now
            finally:
                lock.unlock()
            self._completed.add(node.name)
            self._done_events[node.name].notify()

        return body

    def makespan(self) -> SimTime:
        """Completion time of the last task (after the run)."""
        if len(self.finish_times) != len(self.graph.node_names):
            missing = set(self.graph.node_names) - set(self.finish_times)
            raise SimulationError(f"task graph incomplete; unfinished: {sorted(missing)}")
        return max(self.finish_times.values())

    def profile(self) -> Dict[str, float]:
        """Per-task execution time in nanoseconds (the 'profiling report')."""
        return {
            name: (self.finish_times[name] - self.start_times[name]).to_ns()
            for name in self.finish_times
        }
