"""VCD tracing and timeline recording."""

import pytest

from repro.kernel import Signal, Simulator, TimelineRecorder, VcdTracer, ns, signals_of
from tests.kernel.test_simulator import _Chain


class TestVcdTracer:
    def _traced_run(self, sim):
        tracer = VcdTracer("design")
        flag = Signal(sim, False, "flag")
        count = Signal(sim, 0, "count")
        tracer.trace(flag, width=1)
        tracer.trace(count, name="counter", width=8)

        def body():
            yield ns(1)
            flag.write(True)
            count.write(3)
            yield ns(1)
            count.write(7)
            yield ns(1)

        sim.spawn("p", body)
        sim.run()
        return tracer

    def test_header_and_vars(self, sim):
        tracer = self._traced_run(sim)
        text = tracer.dumps()
        assert "$timescale 1ps $end" in text
        assert "$scope module design $end" in text
        assert "$var wire 1" in text
        assert "counter" in text
        assert "$enddefinitions $end" in text

    def test_changes_recorded_with_times(self, sim):
        tracer = self._traced_run(sim)
        text = tracer.dumps()
        assert "#0" in text  # initial values
        assert "#1000" in text  # 1 ns = 1000 ps
        assert "#2000" in text
        # initial (2) + flag change + two count changes
        assert tracer.change_count == 5

    def test_scalar_and_vector_formats(self, sim):
        tracer = self._traced_run(sim)
        lines = tracer.dumps().splitlines()
        assert any(line.startswith("1") and len(line) <= 3 for line in lines)
        assert any(line.startswith("b111 ") for line in lines)

    def test_dump_to_file(self, sim, tmp_path):
        tracer = self._traced_run(sim)
        path = tmp_path / "wave.vcd"
        tracer.dump(str(path))
        assert path.read_text().startswith("$date")

    def test_id_generation_unique(self):
        ids = {VcdTracer._make_id(i) for i in range(500)}
        assert len(ids) == 500

    def test_negative_vector_value_emitted_as_twos_complement(self, sim):
        """Regression: a negative write used to serialize as ``b-101``."""
        tracer = VcdTracer("design")
        temp = Signal(sim, 0, "temp")
        tracer.trace(temp, width=8)

        def body():
            yield ns(1)
            temp.write(-5)
            yield ns(1)

        sim.spawn("p", body)
        sim.run()
        text = tracer.dumps()
        assert "-" not in text.split("$enddefinitions $end")[1]
        assert "b11111011 " in text  # -5 & 0xFF == 0xFB

    def test_negative_scalar_value_is_one(self):
        assert VcdTracer._format_change("!", -1, 1) == "1!\n"

    def test_vector_value_masked_to_width(self):
        # A value wider than the declared width is truncated, not emitted raw.
        assert VcdTracer._format_change("!", 0x1F3, 8).startswith("b11110011 ")


class TestVcdOfModuleHierarchy:
    def _dump(self):
        sim = Simulator()
        top = _Chain("chain", sim)
        tracer = VcdTracer("chain")
        traced = {}  # identity-deduped: each stage aliases its source signal
        for module in (top, *top.descendants()):
            for attr, sig in sorted(signals_of(module).items()):
                traced.setdefault(id(sig), (f"{module.full_name}.{attr}", sig))
        for name, sig in traced.values():
            tracer.trace(sig, name=name, width=8)
        sim.run()
        return top, tracer.dumps()

    def test_one_var_per_distinct_signal(self):
        top, text = self._dump()
        assert text.count("$var") == 1 + top.depth  # head + stage outputs

    def test_dump_is_deterministic(self):
        assert self._dump()[1] == self._dump()[1]


class TestTimelineRecorder:
    def test_track_busy_time(self):
        recorder = TimelineRecorder()
        recorder.record(ns(0), ns(5), "ctx", "a")
        recorder.record(ns(10), ns(12), "ctx", "b")
        assert recorder.track_busy_time("ctx") == ns(7)
        assert recorder.track_busy_time("other") == ns(0)

    def test_overlapping_intervals_not_double_counted(self):
        """Regression: overlapping intervals on one track summed to >100%."""
        recorder = TimelineRecorder()
        recorder.record(ns(0), ns(10), "bus", "read")
        recorder.record(ns(5), ns(15), "bus", "write")  # overlaps [5,10)
        assert recorder.track_busy_time("bus") == ns(15)

    def test_contained_interval_not_double_counted(self):
        recorder = TimelineRecorder()
        recorder.record(ns(0), ns(20), "bus", "outer")
        recorder.record(ns(5), ns(10), "bus", "inner")
        recorder.record(ns(30), ns(35), "bus", "later")
        assert recorder.track_busy_time("bus") == ns(25)

    def test_identical_intervals_counted_once(self):
        recorder = TimelineRecorder()
        recorder.record(ns(2), ns(6), "ctx", "a")
        recorder.record(ns(2), ns(6), "ctx", "b")
        assert recorder.track_busy_time("ctx") == ns(4)

    def test_abutting_intervals_sum(self):
        recorder = TimelineRecorder()
        recorder.record(ns(0), ns(5), "ctx", "a")
        recorder.record(ns(5), ns(9), "ctx", "b")
        assert recorder.track_busy_time("ctx") == ns(9)

    def test_overlap_merge_ignores_other_tracks(self):
        recorder = TimelineRecorder()
        recorder.record(ns(0), ns(10), "a", "x")
        recorder.record(ns(0), ns(10), "b", "y")
        assert recorder.track_busy_time("a") == ns(10)
        assert recorder.track_busy_time("b") == ns(10)

    def test_rows_sorted(self):
        recorder = TimelineRecorder()
        recorder.record(ns(10), ns(12), "t", "b")
        recorder.record(ns(0), ns(5), "t", "a")
        rows = recorder.rows
        assert rows[0][3] == "a" and rows[1][3] == "b"

    def test_invalid_interval(self):
        recorder = TimelineRecorder()
        with pytest.raises(ValueError):
            recorder.record(ns(5), ns(1), "t", "x")

    def test_ascii_rendering(self):
        recorder = TimelineRecorder()
        recorder.record(ns(0), ns(50), "active", "fir")
        recorder.record(ns(50), ns(100), "reconfig", "fft")
        art = recorder.render_ascii(width=20)
        assert "active" in art and "reconfig" in art
        assert "f" in art

    def test_empty_timeline(self):
        assert "empty" in TimelineRecorder().render_ascii()

    def test_csv_export(self):
        recorder = TimelineRecorder()
        recorder.record(ns(0), ns(5), "active", "fir")
        recorder.record(ns(5), ns(9), "reconfig", "fft")
        csv_text = recorder.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "start_ns,end_ns,track,label"
        assert lines[1] == "0.0,5.0,active,fir"
        assert lines[2] == "5.0,9.0,reconfig,fft"
