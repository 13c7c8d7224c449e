"""Full-system integration: both Figure 1 architectures on real workloads."""

import hashlib

import pytest

from repro.apps import (
    JobRunner,
    batched_jobs,
    frame_interleaved_jobs,
    golden_outputs,
    make_baseline_netlist,
    make_reconfigurable_netlist,
    switch_count_lower_bound,
)
from repro.kernel import Simulator, signals_of
from repro.tech import MORPHOSYS, VARICORE, VIRTEX2PRO
from tests.conftest import RecordingMonitor

ACCELS = ("fir", "fft", "viterbi", "xtea")


def run_workload(netlist, info, jobs):
    sim = Simulator()
    design = netlist.elaborate(sim)
    design[info.bus_name].monitor = RecordingMonitor()
    runner = JobRunner(info.accel_bases, info.buffer_words)
    design["cpu"].run_task(runner.task(jobs), name="workload")
    sim.run()
    return sim, design, runner


@pytest.fixture(scope="module")
def jobs():
    return frame_interleaved_jobs(ACCELS, n_frames=2, seed=7)


class TestFunctionalEquivalence:
    def test_baseline_matches_executable_spec(self, jobs):
        netlist, info = make_baseline_netlist(ACCELS)
        _, _, runner = run_workload(netlist, info, jobs)
        assert len(runner.results) == len(jobs)
        for result in runner.results:
            assert result.outputs == golden_outputs(result.spec), result.spec.label

    @pytest.mark.parametrize("tech", [VIRTEX2PRO, VARICORE, MORPHOSYS], ids=lambda t: t.name)
    def test_drcf_matches_executable_spec(self, jobs, tech):
        netlist, info = make_reconfigurable_netlist(ACCELS, tech=tech)
        _, _, runner = run_workload(netlist, info, jobs)
        assert len(runner.results) == len(jobs)
        for result in runner.results:
            assert result.outputs == golden_outputs(result.spec), result.spec.label


class TestOverheadShape:
    def test_drcf_adds_only_reconfig_overhead(self, jobs):
        base_netlist, base_info = make_baseline_netlist(ACCELS)
        base_sim, _, base_runner = run_workload(base_netlist, base_info, jobs)

        netlist, info = make_reconfigurable_netlist(ACCELS, tech=MORPHOSYS)
        sim, design, runner = run_workload(netlist, info, jobs)
        drcf = design[info.drcf_name]

        baseline_us = base_sim.now.to_us()
        drcf_us = sim.now.to_us()
        assert drcf_us > baseline_us
        # The slowdown is bounded by reconfig time + fabric derating: a
        # loose sanity band, not an exact equality.
        reconfig_us = drcf.stats.total_reconfig_time.to_us()
        assert drcf_us <= baseline_us * 3 + reconfig_us * 2

    def test_switch_count_matches_workload_lower_bound(self, jobs):
        # Single-slot technology: every change of block is a switch.
        netlist, info = make_reconfigurable_netlist(ACCELS, tech=VARICORE)
        _, design, _ = run_workload(netlist, info, jobs)
        stats = design[info.drcf_name].stats
        assert stats.total_switches == switch_count_lower_bound(jobs)
        assert stats.fetch_misses == switch_count_lower_bound(jobs)

    def test_batched_workload_fewer_switches_and_faster(self):
        inter = frame_interleaved_jobs(ACCELS, 2, seed=7)
        batch = batched_jobs(ACCELS, 2, seed=7)
        times = {}
        switches = {}
        for label, wl in (("inter", inter), ("batch", batch)):
            netlist, info = make_reconfigurable_netlist(ACCELS, tech=VARICORE)
            sim, design, _ = run_workload(netlist, info, wl)
            times[label] = sim.now
            switches[label] = design[info.drcf_name].stats.total_switches
        assert switches["batch"] < switches["inter"]
        assert times["batch"] < times["inter"]

    def test_technology_ordering_on_switch_heavy_workload(self, jobs):
        makespans = {}
        for tech in (VIRTEX2PRO, VARICORE, MORPHOSYS):
            netlist, info = make_reconfigurable_netlist(ACCELS, tech=tech)
            sim, _, _ = run_workload(netlist, info, jobs)
            makespans[tech.name] = sim.now
        # Coarse-grain multi-context beats medium beats fine-grain
        # single-context when contexts alternate every invocation.
        assert makespans["morphosys"] < makespans["varicore"] < makespans["virtex2pro"]


class TestTrafficAccounting:
    def test_config_words_on_bus_match_drcf_accounting(self, jobs):
        netlist, info = make_reconfigurable_netlist(ACCELS, tech=VARICORE)
        sim, design, _ = run_workload(netlist, info, jobs)
        drcf = design[info.drcf_name]
        bus = design[info.bus_name]
        assert bus.monitor.words_by_tag("config") == drcf.stats.total_config_words

    def test_config_reads_target_registered_regions(self, jobs):
        netlist, info = make_reconfigurable_netlist(ACCELS, tech=VARICORE)
        sim, design, _ = run_workload(netlist, info, jobs)
        cfgmem = design[info.config_memory_name]
        for txn in design[info.bus_name].monitor.records:
            if "config" in txn.tags:
                context = cfgmem.context_for_address(txn.addr)
                assert context is not None
                assert context in txn.tags

    def test_baseline_has_no_config_traffic(self, jobs):
        netlist, info = make_baseline_netlist(ACCELS)
        sim, design, _ = run_workload(netlist, info, jobs)
        assert design[info.bus_name].monitor.words_by_tag("config") == 0


class TestDeterminism:
    def test_identical_runs_bit_identical(self, jobs):
        results = []
        for _ in range(2):
            netlist, info = make_reconfigurable_netlist(ACCELS, tech=MORPHOSYS)
            sim, design, runner = run_workload(netlist, info, jobs)
            results.append(
                (
                    sim.now,
                    [tuple(r.outputs) for r in runner.results],
                    design[info.drcf_name].stats.summary(),
                )
            )
        assert results[0] == results[1]

    @pytest.mark.parametrize(
        "make",
        [make_baseline_netlist, lambda a: make_reconfigurable_netlist(a, tech=VIRTEX2PRO)],
        ids=["baseline", "drcf"],
    )
    def test_signal_trace_is_deterministic(self, make):
        # Every signal in the hierarchy, sampled once per finished instant,
        # must hash the same on a rerun, with the same kernel counters.
        accels = ("fir", "xtea")
        jobs = frame_interleaved_jobs(accels, n_frames=1, seed=7)
        runs = []
        for _ in range(2):
            netlist, info = make(accels)
            sim = Simulator()
            design = netlist.elaborate(sim)
            runner = JobRunner(info.accel_bases, info.buffer_words)
            design["cpu"].run_task(runner.task(jobs), name="workload")
            signals = [
                (f"{module.full_name}.{attr}", sig)
                for module in (design.top, *design.top.descendants())
                for attr, sig in sorted(signals_of(module).items())
            ]
            digest = hashlib.sha256()
            sim.trace_hooks.append(
                lambda now: digest.update(
                    (f"{now.femtoseconds}|" + "|".join(
                        f"{name}={sig.read()!r}" for name, sig in signals
                    )).encode()
                )
            )
            sim.run()
            assert [r.outputs for r in runner.results] == [
                golden_outputs(r.spec) for r in runner.results
            ]
            runs.append((digest.hexdigest(), sim.now, sim.stats.as_dict()))
        assert runs[0] == runs[1]
