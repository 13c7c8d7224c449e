"""Task graphs: DAG construction, execution order, profiling."""

import pytest

from repro.bus import Bus, Memory
from repro.cpu import Processor, TaskGraph, TaskGraphExecutor
from repro.kernel import SimulationError, Simulator, us


def make_cpu(sim, name="cpu"):
    bus = Bus(f"{name}_bus", sim=sim, clock_freq_hz=100e6)
    mem = Memory(f"{name}_mem", sim=sim, base=0, size_words=64)
    bus.register_slave(mem)
    cpu = Processor(name, sim=sim, clock_freq_hz=100e6)
    cpu.mst_port.bind(bus)
    return cpu


def compute_task(cycles, log=None, label=""):
    def task(cpu):
        yield from cpu.compute(cycles)
        if log is not None:
            log.append(label)

    return task


class TestGraphConstruction:
    def test_duplicate_node_rejected(self):
        graph = TaskGraph("g")
        graph.add("a", compute_task(1))
        with pytest.raises(SimulationError, match="duplicate"):
            graph.add("a", compute_task(1))

    def test_unknown_dependency_rejected(self):
        graph = TaskGraph("g")
        with pytest.raises(SimulationError, match="unknown"):
            graph.add("a", compute_task(1), deps=["ghost"])

    def test_topological_order(self):
        graph = TaskGraph("g")
        graph.add("a", compute_task(1))
        graph.add("b", compute_task(1), deps=["a"])
        graph.add("c", compute_task(1), deps=["a"])
        graph.add("d", compute_task(1), deps=["b", "c"])
        order = graph.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("c") < order.index("d")

    def test_critical_path(self):
        graph = TaskGraph("g")
        graph.add("a", compute_task(1))
        graph.add("b", compute_task(1), deps=["a"])
        graph.add("c", compute_task(1), deps=["a"])
        graph.add("d", compute_task(1), deps=["b", "c"])
        weights = {"a": 1.0, "b": 10.0, "c": 1.0, "d": 1.0}
        assert graph.critical_path(weights) == ["a", "b", "d"]
        # Equal weights: the tie between b and c goes to the earlier-added b.
        assert graph.critical_path(dict.fromkeys("abcd", 1.0)) == ["a", "b", "d"]


class TestExecution:
    def test_dependencies_respected(self, sim):
        cpu = make_cpu(sim)
        log = []
        graph = TaskGraph("g")
        graph.add("a", compute_task(100, log, "a"))
        graph.add("b", compute_task(100, log, "b"), deps=["a"])
        graph.add("c", compute_task(100, log, "c"), deps=["b"])
        executor = TaskGraphExecutor(graph, [cpu])
        executor.start()
        sim.run()
        assert log == ["a", "b", "c"]
        assert executor.makespan() == us(3)

    def test_single_cpu_serializes_independent_tasks(self, sim):
        cpu = make_cpu(sim)
        graph = TaskGraph("g")
        graph.add("a", compute_task(100))
        graph.add("b", compute_task(100))
        executor = TaskGraphExecutor(graph, [cpu])
        executor.start()
        sim.run()
        assert executor.makespan() == us(2)

    def test_two_cpus_parallelize(self, sim):
        cpu1, cpu2 = make_cpu(sim, "cpu1"), make_cpu(sim, "cpu2")
        graph = TaskGraph("g")
        graph.add("a", compute_task(100), affinity=0)
        graph.add("b", compute_task(100), affinity=1)
        executor = TaskGraphExecutor(graph, [cpu1, cpu2])
        executor.start()
        sim.run()
        assert executor.makespan() == us(1)

    def test_profile_reports_durations(self, sim):
        cpu = make_cpu(sim)
        graph = TaskGraph("g")
        graph.add("a", compute_task(100))
        graph.add("b", compute_task(300), deps=["a"])
        executor = TaskGraphExecutor(graph, [cpu])
        executor.start()
        sim.run()
        profile = executor.profile()
        assert profile["a"] == 1000.0
        assert profile["b"] == 3000.0

    def test_makespan_before_completion_rejected(self, sim):
        cpu = make_cpu(sim)
        graph = TaskGraph("g")
        graph.add("a", compute_task(100))
        executor = TaskGraphExecutor(graph, [cpu])
        with pytest.raises(SimulationError, match="incomplete"):
            executor.makespan()

    def test_no_processor_rejected(self):
        graph = TaskGraph("g")
        with pytest.raises(SimulationError, match="at least one"):
            TaskGraphExecutor(graph, [])

    def test_diamond_dependency_with_zero_time_entry(self, sim):
        # Regression: a dependency finishing at t=0 before the dependent
        # process first waits must not be lost.
        cpu = make_cpu(sim)
        log = []
        graph = TaskGraph("g")
        graph.add("fast", compute_task(0, log, "fast"))
        graph.add("after", compute_task(100, log, "after"), deps=["fast"])
        executor = TaskGraphExecutor(graph, [cpu])
        executor.start()
        sim.run()
        assert log == ["fast", "after"]
