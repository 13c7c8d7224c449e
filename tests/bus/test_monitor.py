"""Bus monitor aggregation."""

import tracemalloc

from repro.bus import Bus, BusMonitor, Memory
from repro.kernel import ZERO_TIME, Simulator, ns


def record(monitor, kind="read", master="cpu", slave="mem", words=4, issued=0, granted=0,
           done=40, tags=(), status="ok"):
    """Record one transfer; times in ns."""
    monitor.record(
        kind, master, slave, 0x1000, words,
        ns(issued).femtoseconds, ns(granted).femtoseconds, ns(done).femtoseconds,
        tags, status,
    )


class TestAggregation:
    def test_word_totals_and_tags(self):
        monitor = BusMonitor()
        record(monitor, words=4)
        record(monitor, words=8, tags=["config"])
        assert monitor.total_words == 12
        assert monitor.words_by_tag("config") == 8
        assert monitor.words_without_tag("config") == 4
        assert monitor.transaction_count == 2

    def test_repeated_tag_counts_once(self):
        monitor = BusMonitor()
        record(monitor, words=4, tags=["config", "s0", "config"])
        record(monitor, words=2, tags=["s0"])
        assert monitor.words_by_tag("config") == 4
        assert monitor.words_by_tag("s0") == 6
        assert monitor.words_by_tag("ghost") == 0
        assert monitor.words_without_tag("config") == monitor.total_words - 4 == 2

    def test_words_by_master(self):
        monitor = BusMonitor()
        record(monitor, master="dma", words=6)
        record(monitor, master="cpu", words=2)
        record(monitor, master="dma", words=1)
        assert monitor.words_by_master() == {"dma": 7, "cpu": 2}
        assert list(monitor.words_by_master()) == ["dma", "cpu"]  # first-seen order

    def test_busy_time_and_utilization(self):
        monitor = BusMonitor()
        record(monitor, granted=0, done=40)
        record(monitor, granted=50, done=70)
        assert monitor.busy_time() == ns(60)
        assert abs(monitor.utilization(ns(120)) - 0.5) < 1e-9
        assert monitor.utilization(ZERO_TIME) == 0.0

    def test_arbitration_waits(self):
        monitor = BusMonitor()
        assert monitor.mean_arbitration_wait() == ZERO_TIME
        record(monitor, issued=0, granted=10, done=20)
        record(monitor, issued=0, granted=30, done=40, master="dma")
        assert monitor.mean_arbitration_wait() == ns(20)

    def test_mean_wait_truncates_like_float_division(self):
        monitor = BusMonitor()
        for granted_fs in (1, 1, 2):
            monitor.record("read", "cpu", "mem", 0, 1, 0, granted_fs, granted_fs, (), "ok")
        assert monitor.mean_arbitration_wait().femtoseconds == int(4 / 3)

    def test_error_count(self):
        monitor = BusMonitor()
        record(monitor)
        record(monitor, status="error")
        assert monitor.error_count == 1
        assert monitor.transaction_count == 2

    def test_reset(self):
        monitor = BusMonitor()
        record(monitor, tags=["config"], status="error", issued=0, granted=5)
        monitor.reset()
        assert monitor.summary() == BusMonitor().summary()
        assert monitor.error_count == 0
        assert monitor.busy_time() == ZERO_TIME

    def test_summary_keys(self):
        monitor = BusMonitor()
        record(monitor, tags=["config"])
        summary = monitor.summary()
        for key in ("transactions", "total_words", "config_words", "data_words", "busy_time_ns"):
            assert key in summary


def _traced_peak(n_transfers: int) -> int:
    """tracemalloc peak, in bytes, of a bus-only run of single-word reads."""
    sim = Simulator()
    bus = Bus("bus", sim=sim)
    bus.register_slave(Memory("mem", sim=sim, base=0, size_words=16))

    def master():
        for _ in range(n_transfers):
            yield from bus.read(0, 1, master="cpu", tags=("data",))

    sim.spawn("cpu", master)
    tracemalloc.start()
    try:
        sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bus.monitor.transaction_count == n_transfers
    return peak


class TestBoundedMemory:
    #: Measured on Python 3.11: both peaks are 2,288 bytes.  Keeping one
    #: log entry per transfer costs about 270 bytes each, 1.2 MB over the
    #: 4,500 extra transfers here.  16 KiB leaves room for allocator noise
    #: and no per-transfer state.
    MARGIN_BYTES = 16 * 1024

    def test_peak_memory_independent_of_transfer_count(self):
        n = 500
        _traced_peak(n)  # warm up per-process caches
        small = _traced_peak(n)
        large = _traced_peak(10 * n)
        assert large - small <= self.MARGIN_BYTES, (small, large)
