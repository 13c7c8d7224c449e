"""Deadlock diagnosis (Section 5.4 limitation 3)."""

from repro.apps import (
    JobRunner,
    frame_interleaved_jobs,
    make_reconfigurable_netlist,
)
from repro.kernel import Event, Simulator, diagnose, ns
from repro.tech import VIRTEX2PRO


def run_soc(bus_protocol, **kwargs):
    netlist, info = make_reconfigurable_netlist(
        ("fir", "fft"), tech=VIRTEX2PRO, bus_protocol=bus_protocol, **kwargs
    )
    sim = Simulator()
    design = netlist.elaborate(sim)
    runner = JobRunner(info.accel_bases, info.buffer_words)
    jobs = frame_interleaved_jobs(("fir", "fft"), 1, seed=5)
    design["cpu"].run_task(runner.task(jobs), name="wl")
    sim.run()
    return sim, design, runner, jobs


class TestPaperDeadlockCondition:
    def test_blocking_shared_bus_deadlocks(self):
        sim, design, runner, jobs = run_soc("blocking")
        report = diagnose(sim, buses=[design["system_bus"]])
        assert report.deadlocked
        assert len(runner.results) < len(jobs)
        # The wait-for chain of the paper: DRCF queued behind the CPU that
        # holds the bus for its own call into the DRCF.
        assert any("drcf1" in chain and "cpu" in chain for chain in report.chains)
        assert "DEADLOCK" in report.render()

    def test_split_transactions_avoid_deadlock(self):
        sim, design, runner, jobs = run_soc("split")
        report = diagnose(sim, buses=[design["system_bus"]])
        assert not report.deadlocked
        assert len(runner.results) == len(jobs)
        assert "no deadlock" in report.render()

    def test_dedicated_config_bus_avoids_deadlock(self):
        sim, design, runner, jobs = run_soc("blocking", dedicated_config_bus=True)
        report = diagnose(sim, buses=[design["system_bus"], design["config_bus"]])
        assert not report.deadlocked
        assert len(runner.results) == len(jobs)


class TestDiagnosisMechanics:
    def test_daemons_ignored(self):
        sim = Simulator()
        ev = Event(sim, "never")

        def server():
            while True:
                yield ev

        sim.spawn("server", server, daemon=True)
        sim.run()
        assert not diagnose(sim).deadlocked

    def test_timeout_waiters_not_deadlock(self):
        sim = Simulator()

        def sleeper():
            yield ns(1_000_000)

        sim.spawn("sleeper", sleeper)
        sim.run(until=ns(10))
        report = diagnose(sim)
        assert not report.deadlocked

    def test_event_waiter_is_deadlock(self):
        sim = Simulator()
        ev = Event(sim, "never")

        def stuck():
            yield ev

        sim.spawn("stuck", stuck)
        sim.run()
        report = diagnose(sim)
        assert report.deadlocked
        assert report.blocked[0].name == "stuck"
        assert "never" in report.blocked[0].waiting_on

    def test_pending_timed_activity_not_deadlock(self):
        # If the run was merely bounded by `until`, blocked processes with
        # pending timed events are not a deadlock.
        sim = Simulator()
        ev = Event(sim, "later")

        def waiter():
            yield ev

        def notifier():
            yield ns(100)
            ev.notify()

        sim.spawn("w", waiter)
        sim.spawn("n", notifier)
        sim.run(until=ns(10))
        assert not diagnose(sim).deadlocked
