"""The canned architecture evaluator (kept small: real simulations run)."""

import pytest

from repro.dse import evaluate_architecture, make_jobs
from repro.kernel import SimulationError


class TestMakeJobs:
    def test_workload_selection(self):
        inter = make_jobs({"workload": "interleaved", "n_frames": 2, "accels": ("fir", "fft")})
        batch = make_jobs({"workload": "batched", "n_frames": 2, "accels": ("fir", "fft")})
        rand = make_jobs({"workload": "random", "n_frames": 2, "accels": ("fir", "fft")})
        assert [j.accel for j in inter] == ["fir", "fft", "fir", "fft"]
        assert [j.accel for j in batch] == ["fir", "fir", "fft", "fft"]
        assert len(rand) == 4

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            make_jobs({"workload": "bursty"})


class TestEvaluateArchitecture:
    def test_asic_point_metrics(self):
        metrics = evaluate_architecture(
            {"tech": "asic", "n_frames": 1, "accels": ("fir", "xtea")}
        )
        assert metrics["switches"] == 0
        assert metrics["bus_config_words"] == 0
        assert metrics["flexible"] is False
        assert metrics["makespan_us"] > 0
        assert metrics["jobs"] == 2

    def test_reconfigurable_point_metrics(self):
        metrics = evaluate_architecture(
            {"tech": "morphosys", "n_frames": 1, "accels": ("fir", "xtea")}
        )
        assert metrics["switches"] == 2
        assert metrics["bus_config_words"] > 0
        assert metrics["flexible"] is True
        assert 0 < metrics["area_saving_vs_static_fabric"] < 1
        assert metrics["energy_mj"] > 0

    def test_ref8_baseline_model(self):
        full = evaluate_architecture(
            {"tech": "morphosys", "n_frames": 1, "accels": ("fir", "xtea")}
        )
        ref8 = evaluate_architecture(
            {
                "tech": "morphosys",
                "n_frames": 1,
                "accels": ("fir", "xtea"),
                "baseline_model": "ref8",
            }
        )
        assert ref8["bus_config_words"] == 0
        assert ref8["makespan_us"] <= full["makespan_us"]

    def test_policy_and_prefetch_knobs(self):
        metrics = evaluate_architecture(
            {
                "tech": "morphosys",
                "n_frames": 1,
                "accels": ("fir", "xtea"),
                "policy": "fifo",
                "prefetch": True,
            }
        )
        assert "prefetch_requests" in metrics

    def test_warm_golden_cache_still_catches_a_corrupted_output(self, monkeypatch):
        """The memoized reference is compared on every design point."""
        import repro.apps.driver as driver
        from repro.apps.workloads import _golden

        params = {"tech": "asic", "n_frames": 1, "accels": ("fir", "xtea")}
        evaluate_architecture(dict(params))
        hits = _golden.cache_info().hits
        evaluate_architecture(dict(params))
        assert _golden.cache_info().hits >= hits + 2  # both jobs came from the cache

        class Corrupting(driver.JobResult):
            def __init__(self, spec, outputs, *args, **kwargs):
                if spec.accel == "xtea":
                    outputs = [outputs[0] ^ 1] + list(outputs[1:])
                super().__init__(spec, outputs, *args, **kwargs)

        monkeypatch.setattr(driver, "JobResult", Corrupting)
        with pytest.raises(SimulationError, match="job frame0.xtea produced wrong output"):
            evaluate_architecture(dict(params))

    def test_verification_catches_bad_outputs(self, monkeypatch):
        import repro.dse.evaluators as ev

        monkeypatch.setattr(ev, "golden_outputs", lambda spec: ["wrong"])
        with pytest.raises(SimulationError, match="wrong output"):
            evaluate_architecture(
                {"tech": "asic", "n_frames": 1, "accels": ("fir",)}
            )


class TestEvaluateRobustness:
    def test_merges_performance_and_dependability_metrics(self):
        from repro.dse import evaluate_robustness

        metrics = evaluate_robustness(
            {
                "tech": "virtex2pro",
                "n_frames": 1,
                "accels": ("fir", "fft"),
                "fault_trials": 2,
                "recovery": "retry",
            }
        )
        assert metrics["makespan_us"] > 0  # the architecture row survived
        assert metrics["recovery"] == "retry"
        assert metrics["fault_trials"] == 2
        assert 0.0 <= metrics["fault_coverage"] <= 1.0
        for rate in ("sdc_rate", "hang_rate", "masked_rate"):
            assert 0.0 <= metrics[rate] <= 1.0
        assert metrics["mttr_us"] >= 0.0

    def test_rejects_dedicated_logic_points(self):
        from repro.dse import evaluate_robustness

        with pytest.raises(KeyError, match="reconfigurable"):
            evaluate_robustness({"tech": "asic", "accels": ("fir",)})
