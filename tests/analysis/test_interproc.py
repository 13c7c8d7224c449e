"""Interprocedural wait-effect analysis and the REP6xx lint layer.

Covers the lock-order / acquire-release traces and the four interproc
lint rules — including the acceptance pair: REP601
statically predicts exactly the Section 5.4 deadlock
``examples/deadlock_demo.py`` hits dynamically, and the two reports
cross-reference each other.

Classes live at file scope because the analyzers read bodies with
``inspect.getsource``.
"""

import inspect

import pytest

from repro.analysis.interproc import (
    acquire_sites,
    lock_order_trace,
    release_closure,
)
from repro.analysis.lint import (
    DEADLOCK_RULE_CODE,
    RULES,
    STATIC_DEADLOCK_RULE_CODE,
    run_lint,
)
from repro.apps import JobRunner, frame_interleaved_jobs, make_reconfigurable_netlist
from repro.kernel import (
    Fifo,
    Module,
    Mutex,
    Semaphore,
    Simulator,
    diagnose,
    ns,
    processes_of,
)
from repro.tech import VIRTEX2PRO

REP6XX = (STATIC_DEADLOCK_RULE_CODE, "REP602", "REP603", "REP604")


def interproc_lint(design):
    return run_lint(design=design, dataflow=True, cfg=True, interproc=True)


# ---------------------------------------------------------------------------
# Subject classes
# ---------------------------------------------------------------------------

class InvertedLocksTop(Module):
    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.m1 = Mutex(sim, "m1")
        self.m2 = Mutex(sim, "m2")
        self.add_thread(self.worker_a)
        self.add_thread(self.worker_b)

    def worker_a(self):
        yield from self.m1.lock("a")
        yield from self.m2.lock("a")
        self.m2.unlock()
        self.m1.unlock()

    def worker_b(self):
        yield from self.m2.lock("b")
        yield from self.m1.lock("b")
        self.m1.unlock()
        self.m2.unlock()


class ReversedMutexesTop(InvertedLocksTop):
    """InvertedLocksTop with its mutexes created in the other order."""

    def __init__(self, name, sim):
        Module.__init__(self, name, sim=sim)
        self.m2 = Mutex(sim, "m2")
        self.m1 = Mutex(sim, "m1")
        self.add_thread(self.worker_a)
        self.add_thread(self.worker_b)


class OrderedLocksTop(InvertedLocksTop):
    """Same two mutexes, one global order: no inversion to report."""

    def worker_b(self):
        yield from self.m1.lock("b")
        yield from self.m2.lock("b")
        self.m2.unlock()
        self.m1.unlock()


class LonelyAcquireTop(Module):
    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.sem = Semaphore(sim, 0, "sem")
        self.add_thread(self.worker)
        self.add_thread(self.other)

    def worker(self):
        yield from self.sem.wait()

    def other(self):
        yield ns(5)


class PostedAcquireTop(LonelyAcquireTop):
    def other(self):
        yield ns(5)
        self.sem.post()


class BuriedReleaseTop(LonelyAcquireTop):
    """The post hides two calls deep inside a foreign channel method."""

    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.fifo = Fifo(sim, capacity=2, name="f")

    def _kick(self):
        self.sem.post()

    def other(self):
        yield ns(5)
        self._kick()


class LambdaPostTop(LonelyAcquireTop):
    """The only post sits in a callback lambda the thread installs."""

    def other(self):
        self.on_done = lambda: self.sem.post()
        yield ns(5)


class LambdaUnlockTop(InvertedLocksTop):
    """The unlocks sit in a nested callback the thread installs."""

    def worker_a(self):
        yield from self.m1.lock("a")

        def release():
            self.m1.unlock()

        self.on_done = release
        yield ns(5)

    def worker_b(self):
        yield from self.m2.lock("b")
        self.on_done = lambda: self.m2.unlock()
        yield ns(5)


class SequentialLocksTop(InvertedLocksTop):
    """worker_a never holds two mutexes at once, so worker_b's m2-then-m1
    order inverts nothing."""

    def worker_a(self):
        yield from self.m1.lock("a")
        self.m1.unlock()
        yield from self.m2.lock("a")
        self.m2.unlock()


class UnresolvedLockTop(Module):
    """Locks through a container lookup the resolver cannot follow."""

    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.locks = {"a": Mutex(sim, "a")}
        self.add_thread(self.worker)

    def worker(self):
        yield from self.locks.popitem()[1].lock("w")


# ---------------------------------------------------------------------------
# Lock-order / acquire-release traces
# ---------------------------------------------------------------------------

class TestTraces:
    def _threads(self, top):
        return {p.name.rsplit(".", 1)[-1]: p for p in processes_of(top)}

    def test_lock_order_trace_tracks_held_set(self):
        sim = Simulator()
        top = InvertedLocksTop("t", sim)
        trace = lock_order_trace(self._threads(top)["worker_a"])
        assert trace.unresolved is None
        assert [a.path for a in trace.acquisitions] == [("m1",), ("m2",)]
        assert trace.acquisitions[0].held == ()
        assert trace.acquisitions[1].held == (top.m1,)

    def test_unresolvable_lock_degrades_trace(self):
        sim = Simulator()
        top = UnresolvedLockTop("t", sim)
        trace = lock_order_trace(self._threads(top)["worker"])
        assert trace.unresolved is not None

    def test_acquire_sites_resolve_live_targets(self):
        sim = Simulator()
        top = LonelyAcquireTop("t", sim)
        sites, reason = acquire_sites(self._threads(top)["worker"])
        assert reason is None
        assert [(s.method, s.target) for s in sites] == [("wait", top.sem)]

    def test_release_closure_follows_foreign_calls(self):
        sim = Simulator()
        top = BuriedReleaseTop("t", sim)
        thread = self._threads(top)["other"]
        released, complete = release_closure(top, thread.fn)
        assert complete
        assert id(top.sem) in released


class TestScopeCorners:
    """The interproc scans see nested scopes: a release installed as a
    callback still counts (``summarize_process`` ignores such bodies, see
    ``TestScopeCorners`` in test_dataflow)."""

    @pytest.mark.parametrize(
        "top_cls, thread, releasable",
        [
            (LambdaPostTop, "other", "sem"),
            (LambdaUnlockTop, "worker_a", "m1"),
            (LambdaUnlockTop, "worker_b", "m2"),
        ],
        ids=["post-in-lambda", "unlock-in-def", "unlock-in-lambda"],
    )
    def test_release_closure_sees_nested_scopes(self, top_cls, thread, releasable):
        top = top_cls("t", Simulator())
        proc = {p.name.rsplit(".", 1)[-1]: p for p in processes_of(top)}[thread]
        released, complete = release_closure(top, proc.fn)
        assert complete
        assert id(getattr(top, releasable)) in released

    def test_lambda_post_satisfies_rep604(self):
        top = LambdaPostTop("t", Simulator())
        assert not interproc_lint(top).by_code("REP604")


# ---------------------------------------------------------------------------
# REP601 — acceptance: static prediction of the Section 5.4 deadlock
# ---------------------------------------------------------------------------

def _elaborated(bus_protocol, **kwargs):
    netlist, info = make_reconfigurable_netlist(
        ("fir", "fft"), tech=VIRTEX2PRO, bus_protocol=bus_protocol, **kwargs
    )
    sim = Simulator()
    design = netlist.elaborate(sim)
    return sim, design, info


class TestStaticDeadlockRule:
    def test_fires_on_blocking_config_bus(self):
        _, design, _ = _elaborated("blocking")
        report = interproc_lint(design.top)
        diags = report.by_code(STATIC_DEADLOCK_RULE_CODE)
        assert diags, report.render()
        assert diags[0].severity == "error"
        assert "wait-for cycle" in diags[0].message
        assert "system_bus" in diags[0].message

    @pytest.mark.parametrize(
        "kwargs",
        [{"bus_protocol": "split"}, {"bus_protocol": "blocking", "dedicated_config_bus": True}],
        ids=["split", "dedicated"],
    )
    def test_silent_on_both_remedies(self, kwargs):
        _, design, _ = _elaborated(**kwargs)
        report = interproc_lint(design.top)
        assert not report.by_code(STATIC_DEADLOCK_RULE_CODE), report.render()

    def test_static_prediction_matches_dynamic_diagnosis(self):
        """The cross-reference contract: the architecture REP601 flags is
        the one that deadlocks at runtime, and each report names the
        other's diagnostic."""
        sim, design, info = _elaborated("blocking")
        lint_report = interproc_lint(design.top)
        assert lint_report.by_code(STATIC_DEADLOCK_RULE_CODE)

        jobs = frame_interleaved_jobs(("fir", "fft"), n_frames=1, seed=5)
        runner = JobRunner(info.accel_bases, info.buffer_words)
        design["cpu"].run_task(runner.task(jobs), name="workload")
        sim.run(max_wall_s=30.0)
        dynamic = diagnose(sim, buses=[design["system_bus"]])
        assert dynamic.deadlocked
        # Dynamic report -> static rules, both layers.
        assert dynamic.static_rule == DEADLOCK_RULE_CODE
        assert dynamic.interproc_rule == STATIC_DEADLOCK_RULE_CODE
        rendered = dynamic.render()
        assert DEADLOCK_RULE_CODE in rendered
        assert STATIC_DEADLOCK_RULE_CODE in rendered
        # Static rule -> runtime diagnosis.
        message = lint_report.by_code(STATIC_DEADLOCK_RULE_CODE)[0].message
        assert DEADLOCK_RULE_CODE in message
        assert "deadlock.diagnose" in message


# ---------------------------------------------------------------------------
# REP602 / REP603 / REP604
# ---------------------------------------------------------------------------

class TestLockOrderRule:
    def test_inversion_flagged_once(self):
        sim = Simulator()
        top = InvertedLocksTop("t", sim)
        diags = interproc_lint(top).by_code("REP602")
        assert len(diags) == 1
        assert diags[0].severity == "warning"
        assert "opposite order" in diags[0].message

    def test_consistent_order_is_silent(self):
        sim = Simulator()
        top = OrderedLocksTop("t", sim)
        assert not interproc_lint(top).by_code("REP602")

    def test_release_before_next_lock_is_silent(self):
        """The trace follows source order: m1 is released before m2 is
        taken, even though the release is shallower in the AST."""
        top = SequentialLocksTop("t", Simulator())
        trace = lock_order_trace(
            {p.name.rsplit(".", 1)[-1]: p for p in processes_of(top)}["worker_a"]
        )
        assert [(a.path, a.held) for a in trace.acquisitions] == [
            (("m1",), ()),
            (("m2",), ()),
        ]
        assert not interproc_lint(top).by_code("REP602")

    def test_message_names_file_lines(self):
        def file_line(func, needle):
            lines, first = inspect.getsourcelines(func)
            return first + next(i for i, line in enumerate(lines) if needle in line)

        top = InvertedLocksTop("t", Simulator())
        (diag,) = interproc_lint(top).by_code("REP602")
        line_a = file_line(InvertedLocksTop.worker_a, 'self.m2.lock("a")')
        line_b = file_line(InvertedLocksTop.worker_b, 'self.m1.lock("b")')
        assert f"(line {line_a})" in diag.message
        assert f"(line {line_b})" in diag.message

    def test_attribution_ignores_mutex_creation_order(self):
        """The reporting thread is picked by (thread name, line), not by
        which mutex object happens to sit at the lower address."""
        seen = set()
        for top_class in (InvertedLocksTop, ReversedMutexesTop) * 3:
            (diag,) = interproc_lint(top_class("t", Simulator())).by_code("REP602")
            seen.add((diag.location, diag.message))
        assert len(seen) == 1
        ((location, message),) = seen
        assert location == "t.worker_a"
        assert message.startswith("acquires mutex 'm2' while holding 'm1'")


class TestBlockingWhileLockedRule:
    def test_transport_under_lock_on_config_bus_flagged(self):
        sim, design, _ = _elaborated("blocking")

        class Locker(Module):
            def __init__(self, name, sim, parent, bus):
                super().__init__(name, sim=sim, parent=parent)
                self.m = Mutex(sim, "m")
                self.bus = bus
                self.add_thread(self.task)

            def task(self):
                yield from self.m.lock("task")
                yield from self.bus.write(0x0, [1])
                self.m.unlock()

        Locker("locker", sim, design.top, design["system_bus"])
        diags = interproc_lint(design.top).by_code("REP603")
        assert diags
        assert "holding mutex" in diags[0].message
        assert "configuration traffic" in diags[0].message

    def test_silent_without_config_path_bus(self):
        """Transport under a lock on a bus no DRCF fetches over: silent."""
        sim = Simulator()
        top = InvertedLocksTop("t", sim)  # no DRCF in the design at all
        assert not interproc_lint(top).by_code("REP603")


class TestReleaseFreeAcquireRule:
    def test_release_free_acquire_flagged(self):
        sim = Simulator()
        top = LonelyAcquireTop("t", sim)
        diags = interproc_lint(top).by_code("REP604")
        assert len(diags) == 1
        assert ".post()" in diags[0].message

    def test_posted_acquire_is_silent(self):
        sim = Simulator()
        top = PostedAcquireTop("t", sim)
        assert not interproc_lint(top).by_code("REP604")

    def test_buried_release_is_found(self):
        sim = Simulator()
        top = BuriedReleaseTop("t", sim)
        assert not interproc_lint(top).by_code("REP604")

    def test_unresolved_body_silences_whole_rule(self):
        sim = Simulator()
        top = UnresolvedLockTop("t", sim)
        assert not interproc_lint(top).by_code("REP604")


# ---------------------------------------------------------------------------
# Registry / layer plumbing
# ---------------------------------------------------------------------------

class TestRegistry:
    @pytest.mark.parametrize("code", REP6XX)
    def test_every_interproc_rule_is_explainable(self, code):
        entry = RULES[code]
        assert entry.layer == "interproc"
        assert entry.summary
        assert entry.example
        assert entry.check.__doc__

    def test_interproc_layer_is_opt_in(self):
        sim = Simulator()
        top = InvertedLocksTop("t", sim)
        without = run_lint(design=top, dataflow=True, cfg=True)
        assert not any(d.code.startswith("REP6") for d in without.diagnostics)
