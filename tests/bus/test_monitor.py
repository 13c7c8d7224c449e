"""Bus monitor aggregation."""

from repro.bus import BusMonitor, Transaction
from repro.kernel import ZERO_TIME, ns, us


def txn(kind="read", master="cpu", slave="mem", words=4, issued=0, granted=0, done=40, tags=()):
    return Transaction(
        kind=kind,
        master=master,
        slave=slave,
        addr=0x1000,
        words=words,
        issued_at=ns(issued),
        granted_at=ns(granted),
        completed_at=ns(done),
        tags=list(tags),
    )


class TestAggregation:
    def test_word_totals_and_tags(self):
        monitor = BusMonitor()
        monitor.record(txn(words=4))
        monitor.record(txn(words=8, tags=["config"]))
        assert monitor.total_words == 12
        assert monitor.words_by_tag("config") == 8
        assert monitor.words_without_tag("config") == 4
        assert monitor.transaction_count == 2

    def test_per_master_per_slave(self):
        monitor = BusMonitor()
        monitor.record(txn(master="cpu", words=2))
        monitor.record(txn(master="dma", slave="cfg", words=6))
        assert monitor.words_by_master() == {"cpu": 2, "dma": 6}
        assert monitor.words_by_slave() == {"mem": 2, "cfg": 6}

    def test_busy_time_and_utilization(self):
        monitor = BusMonitor()
        monitor.record(txn(granted=0, done=40))
        monitor.record(txn(granted=50, done=70))
        assert monitor.busy_time() == ns(60)
        assert abs(monitor.utilization(ns(120)) - 0.5) < 1e-9
        assert monitor.utilization(ZERO_TIME) == 0.0

    def test_arbitration_waits(self):
        monitor = BusMonitor()
        monitor.record(txn(issued=0, granted=10, done=20))
        monitor.record(txn(issued=0, granted=30, done=40, master="dma"))
        assert monitor.mean_arbitration_wait() == ns(20)
        assert monitor.mean_arbitration_wait("dma") == ns(30)
        assert monitor.max_arbitration_wait() == ns(30)
        assert monitor.mean_arbitration_wait("ghost") == ZERO_TIME

    def test_transaction_properties(self):
        t = txn(issued=5, granted=10, done=40)
        assert t.arbitration_wait == ns(5)
        assert t.latency == ns(35)
        assert not t.has_tag("config")

    def test_reset(self):
        monitor = BusMonitor()
        monitor.record(txn())
        monitor.reset()
        assert monitor.transaction_count == 0
        assert monitor.busy_time() == ZERO_TIME

    def test_summary_keys(self):
        monitor = BusMonitor()
        monitor.record(txn(tags=["config"]))
        summary = monitor.summary()
        for key in ("transactions", "total_words", "config_words", "data_words", "busy_time_ns"):
            assert key in summary
