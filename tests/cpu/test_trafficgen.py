"""Traffic generator: reproducibility, bounds, load shaping."""

import pytest

from repro.bus import Bus, Memory
from repro.cpu import TrafficGenerator
from repro.kernel import Simulator, us
from tests.conftest import RecordingMonitor


def make_system(sim, **gen_kwargs):
    bus = Bus("bus", sim=sim, clock_freq_hz=100e6)
    bus.monitor = RecordingMonitor()
    mem = Memory("mem", sim=sim, base=0, size_words=1024)
    bus.register_slave(mem)
    gen = TrafficGenerator(
        "gen",
        sim=sim,
        base=0,
        span_bytes=1024 * 4,
        **gen_kwargs,
    )
    gen.mst_port.bind(bus)
    return bus, gen


class TestReproducibility:
    def _trace(self, seed):
        sim = Simulator()
        bus, gen = make_system(sim, seed=seed, n_transactions=20)
        sim.run()
        return [(t.kind, t.addr, t.words) for t in bus.monitor.records]

    def test_same_seed_same_stream(self):
        assert self._trace(7) == self._trace(7)

    def test_different_seed_different_stream(self):
        assert self._trace(7) != self._trace(8)


class TestBehaviour:
    def test_transaction_count_honoured(self, sim):
        bus, gen = make_system(sim, n_transactions=15)
        sim.run()
        assert gen.issued == 15
        assert bus.monitor.transaction_count == 15

    def test_all_traffic_tagged_background(self, sim):
        bus, _ = make_system(sim, n_transactions=10)
        sim.run()
        assert bus.monitor.words_by_tag("background") == bus.monitor.total_words

    def test_read_fraction_zero_means_all_writes(self, sim):
        bus, _ = make_system(sim, n_transactions=10, read_fraction=0.0)
        sim.run()
        assert all(t.kind == "write" for t in bus.monitor.records)

    def test_gap_zero_saturates_bus(self, sim):
        bus, _ = make_system(sim, n_transactions=50, gap_cycles=0)
        sim.run()
        assert bus.monitor.utilization(sim.now) > 0.9

    def test_larger_gap_lowers_utilization(self):
        utils = []
        for gap in (0, 200):
            sim = Simulator()
            bus, _ = make_system(sim, n_transactions=50, gap_cycles=gap, seed=3)
            sim.run()
            utils.append(bus.monitor.utilization(sim.now))
        assert utils[1] < utils[0]

    def test_addresses_stay_in_window(self, sim):
        bus, _ = make_system(sim, n_transactions=40, burst_words=8)
        sim.run()
        for t in bus.monitor.records:
            assert 0 <= t.addr <= 1024 * 4 - 8 * 4

    def test_span_too_small_rejected(self, sim):
        with pytest.raises(ValueError, match="span"):
            TrafficGenerator(
                "g2", sim=sim, base=0, span_bytes=8, burst_words=4
            )

    def test_unbounded_generator_is_daemon(self, sim):
        bus, gen = make_system(sim, n_transactions=None)
        sim.run(until=us(5))
        assert gen.issued > 0
        # Marked daemon so diagnose() ignores it.
        procs = [p for p in sim._processes if p.name.endswith("gen.gen")]
        assert procs and procs[0].daemon
