"""Scheduler semantics: determinism, run-until, delta loops, stop, spawn."""

import pytest

from repro.kernel import (
    Clock,
    DeadlockError,
    Event,
    Module,
    SchedulingError,
    Signal,
    Simulator,
    ZERO_TIME,
    ns,
)


class TestRunControl:
    def test_run_until_stops_at_boundary(self, sim):
        ticks = []

        def body():
            while True:
                yield ns(10)
                ticks.append(sim.now.to_ns())

        sim.spawn("p", body, daemon=True)
        end = sim.run(until=ns(35))
        assert ticks == [10.0, 20.0, 30.0]
        assert end == ns(35)

    def test_run_resumable(self, sim):
        ticks = []

        def body():
            while True:
                yield ns(10)
                ticks.append(sim.now.to_ns())

        sim.spawn("p", body, daemon=True)
        sim.run(until=ns(15))
        sim.run(until=ns(45))
        assert ticks == [10.0, 20.0, 30.0, 40.0]

    def test_run_to_starvation(self, sim):
        def body():
            yield ns(7)

        sim.spawn("p", body)
        end = sim.run()
        assert end == ns(7)

    def test_stop_request(self, sim):
        progressed = []

        def body():
            for _ in range(100):
                yield ns(1)
                progressed.append(sim.now.to_ns())
                if len(progressed) == 3:
                    sim.stop()

        sim.spawn("p", body)
        sim.run()
        assert len(progressed) == 3

    def test_error_on_deadlock(self, sim):
        ev = Event(sim, "never")

        def body():
            yield ev

        sim.spawn("stuck", body)
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run(error_on_deadlock=True)

    def test_schedule_in_past_rejected(self, sim):
        def body():
            yield ns(10)
            sim._schedule_timed_fs(0, lambda: None)

        sim.spawn("p", body)
        with pytest.raises(Exception, match="past"):
            sim.run()


class TestDeterminism:
    def _run_once(self, seed_order):
        sim = Simulator()
        log = []

        def make(name, delay):
            def body():
                for _ in range(3):
                    yield ns(delay)
                    log.append((name, sim.now.to_ns()))

            return body

        for name, delay in seed_order:
            sim.spawn(name, make(name, delay))
        sim.run()
        return log

    def test_identical_runs_identical_logs(self):
        order = [("a", 5), ("b", 5), ("c", 3)]
        assert self._run_once(order) == self._run_once(order)

    def test_same_time_ties_resolve_by_spawn_order(self):
        log = self._run_once([("a", 5), ("b", 5)])
        pairs = [entry for entry in log if entry[1] == 5.0]
        assert pairs == [("a", 5.0), ("b", 5.0)]


class TestDeltaCycles:
    def test_delta_loop_guard(self, sim):
        ev = Event(sim, "ping")

        def body():
            while True:
                got = yield ev
                ev.notify_delta()

        sim.spawn("p", body, daemon=True)
        ev.notify_delta()
        with pytest.raises(SchedulingError, match="delta cycles"):
            sim.run(max_deltas_per_instant=100)

    def test_signal_update_counts(self, sim):
        signal = Signal(sim, 0, "s")

        def body():
            for i in range(4):
                signal.write(i)
                yield ns(1)

        sim.spawn("p", body)
        sim.run()
        # First write is 0 -> 0 (absorbed); updates still requested 4 times.
        assert sim.stats.signal_updates == 4
        assert signal.read() == 3


class TestSpawnDynamics:
    def test_spawn_after_start(self, sim):
        log = []

        def child():
            yield ns(1)
            log.append(("child", sim.now.to_ns()))

        def parent():
            yield ns(5)
            sim.spawn("child", child)
            yield ns(10)

        sim.spawn("parent", parent)
        sim.run()
        assert log == [("child", 6.0)]

    def test_blocked_process_listing(self, sim):
        ev = Event(sim, "never")

        def body():
            yield ev

        sim.spawn("stuck", body)
        sim.run()
        blocked = sim.blocked_processes()
        assert [p.name for p in blocked] == ["stuck"]
        assert "never" in blocked[0].wait_description

    def test_pending_timed_count(self, sim):
        ev = Event(sim, "e")
        ev.notify(ns(5))
        assert sim.pending_timed_count() == 1
        ev.cancel()
        assert sim.pending_timed_count() == 0


class _Stage(Module):
    """out = src + 1, combinationally sensitive to src."""

    def __init__(self, name, parent, src):
        super().__init__(name, parent=parent)
        self.src = src
        self.out = Signal(self.sim, 0, f"{self.full_name}.out")
        self.add_method(self.propagate, sensitivity=[src.value_changed], initialize=False)

    def propagate(self):
        self.out.write(self.src.read() + 1)


class _Chain(Module):
    """A thread driving ``depth`` chained method stages once per ns."""

    def __init__(self, name, sim, depth=4, rounds=3):
        super().__init__(name, sim=sim)
        self.depth = depth
        self.rounds = rounds
        self.head = Signal(sim, 0, f"{name}.head")
        src = self.head
        for k in range(depth):
            src = _Stage(f"s{k}", self, src).out
        self.tail = src
        self.add_thread(self.drive)

    def drive(self):
        for i in range(self.rounds):
            self.head.write(i + 1)
            yield ns(1)


class _Diamond(Module):
    """a fans out to two methods that reconverge: out = 3a + 10."""

    def __init__(self, name, sim, rounds=4):
        super().__init__(name, sim=sim)
        self.rounds = rounds
        self.a = Signal(sim, 0, f"{name}.a")
        self.left = Signal(sim, 0, f"{name}.left")
        self.right = Signal(sim, 0, f"{name}.right")
        self.out = Signal(sim, 0, f"{name}.out")
        self.add_method(self.go_left, sensitivity=[self.a.value_changed], initialize=False)
        self.add_method(self.go_right, sensitivity=[self.a.value_changed], initialize=False)
        self.add_method(
            self.combine,
            sensitivity=[self.left.value_changed, self.right.value_changed],
            initialize=False,
        )
        self.add_thread(self.drive)

    def go_left(self):
        self.left.write(self.a.read() * 2)

    def go_right(self):
        self.right.write(self.a.read() + 10)

    def combine(self):
        self.out.write(self.left.read() + self.right.read())

    def drive(self):
        for i in range(self.rounds):
            self.a.write(i + 1)
            yield ns(1)


class _ClockedPipeline(Module):
    """A Clock driving two posedge stages through a register net."""

    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.clk = Clock("clk", ns(10), parent=self)
        self.d = Signal(self.sim, 0, name=f"{name}.d")
        self.q = Signal(self.sim, 0, name=f"{name}.q")
        self.q2 = Signal(self.sim, 0, name=f"{name}.q2")
        self.add_method(self.stage1, sensitivity=(self.clk.posedge,), initialize=False)
        self.add_method(self.stage2, sensitivity=(self.clk.posedge,), initialize=False)

    def stage1(self):
        self.q.write(self.d.read() + 1)

    def stage2(self):
        self.q2.write(self.q.read() * 2)


class _EdgeTaps(Module):
    """posedge/negedge methods on a signal a thread toggles once per ns."""

    def __init__(self, name, sim, rounds=6):
        super().__init__(name, sim=sim)
        self.rounds = rounds
        self.hits = []
        self.t = Signal(sim, False, f"{name}.t")
        self.add_method(self.on_pos, sensitivity=[self.t.posedge], initialize=False)
        self.add_method(self.on_neg, sensitivity=[self.t.negedge], initialize=False)
        self.add_thread(self.drive)

    def on_pos(self):
        self.hits.append(("pos", self.sim.now.femtoseconds))

    def on_neg(self):
        self.hits.append(("neg", self.sim.now.femtoseconds))

    def drive(self):
        level = False
        for _ in range(self.rounds):
            level = not level
            self.t.write(level)
            yield ns(1)


class TestModuleDesigns:
    """Method/thread netlists: combinational waves, registers, and
    instrumentation attached while the simulation runs."""

    def test_chain_settles_one_delta_per_stage(self):
        sim = Simulator()
        top = _Chain("chain", sim)
        sim.run()
        assert top.tail.read() == top.rounds + top.depth
        # Each write ripples one stage per delta cycle.
        assert sim.stats.delta_cycles == top.rounds * top.depth

    def test_diamond_reconverges(self):
        sim = Simulator()
        top = _Diamond("d", sim)
        sim.run()
        assert top.out.read() == 3 * top.rounds + 10

    def test_register_keeps_staged_semantics(self):
        # stage2 sees stage1's *previous* output in the same instant: after
        # the first posedge q2 is twice the initial q, not twice the new one.
        sim = Simulator()
        top = _ClockedPipeline("p", sim)
        top.d.write(41)
        sim.run(until=ns(14))  # exactly one posedge (clock starts high)
        assert top.q.read() == 42
        assert top.q2.read() == 0

    def test_trace_hook_spawn_runs_in_the_same_instant(self):
        sim = Simulator()
        top = _Chain("chain", sim, depth=3, rounds=4)
        ran = []

        def late():
            ran.append(sim.now.femtoseconds)
            yield ns(1)

        def hook(now):
            if now.femtoseconds == 1_000_000 and not ran:
                sim.spawn("late", late)

        sim.trace_hooks.append(hook)
        sim.run()
        assert ran == [1_000_000]
        assert top.tail.read() == top.rounds + top.depth

    def test_on_update_attached_mid_run(self):
        sim = Simulator()
        top = _Chain("chain", sim, depth=3, rounds=4)
        observed = []
        attached = []

        def hook(now):
            if now.femtoseconds == 1_000_000 and not attached:
                attached.append(1)
                top.tail.on_update(lambda t, value: observed.append((t.femtoseconds, value)))

        sim.trace_hooks.append(hook)
        sim.run()
        assert top.tail.read() == top.rounds + top.depth
        # At t ns the driver has written t+1, so tail = t + 1 + depth.
        assert observed == [(2_000_000, 3 + top.depth), (3_000_000, 4 + top.depth)]

    def test_edge_sensitive_methods(self):
        sim = Simulator()
        top = _EdgeTaps("taps", sim)
        sim.run()
        # The level toggles once per ns; each edge runs only its own method.
        assert top.hits == [
            ("pos", 0), ("neg", 1_000_000), ("pos", 2_000_000),
            ("neg", 3_000_000), ("pos", 4_000_000), ("neg", 5_000_000),
        ]
