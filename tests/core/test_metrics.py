"""Run-level metric aggregation."""

from repro.core import collect_run_metrics, per_context_rows
from tests.core.helpers import DrcfRig


def run_rig():
    rig = DrcfRig(n_contexts=2)

    def body():
        yield from rig.master_read(rig.addr(0))
        yield from rig.master_read(rig.addr(1))

    rig.sim.spawn("p", body)
    rig.sim.run()
    return rig


class TestCollectRunMetrics:
    def test_kernel_metrics_always_present(self):
        rig = run_rig()
        report = collect_run_metrics(rig.sim)
        assert report["sim_time_us"] > 0
        assert report["process_executions"] > 0

    def test_bus_and_drcf_sections(self):
        rig = run_rig()
        report = collect_run_metrics(rig.sim, bus=rig.bus, drcf=rig.drcf)
        assert report["bus_config_words"] > 0
        assert report["bus_data_words"] > 0
        assert report["drcf_switches"] == 2
        assert report["drcf_fetch_misses"] == 2
        assert report["drcf_energy_mj"] > 0
        assert 0 < report["drcf_overhead_fraction"] <= 1

    def test_extra_values_merged(self):
        rig = run_rig()
        report = collect_run_metrics(rig.sim, extra={"custom": 42})
        assert report["custom"] == 42
        assert report.get("missing", "d") == "d"

    def test_render_contains_all_keys(self):
        rig = run_rig()
        report = collect_run_metrics(rig.sim, bus=rig.bus)
        text = report.render("my run")
        assert text.startswith("my run")
        for key in report.values:
            assert key in text


class TestPerContextRows:
    def test_rows_for_each_context(self):
        rig = run_rig()
        rows = per_context_rows(rig.drcf)
        assert {row["context"] for row in rows} == {"s0", "s1"}
        for row in rows:
            assert row["calls"] == 1
            assert row["reconfigurations"] == 1
