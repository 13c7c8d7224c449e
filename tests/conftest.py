"""Shared test fixtures and helpers."""

from __future__ import annotations

from typing import Dict, List, NamedTuple

import pytest

from repro.bus import BusMonitor
from repro.kernel import ZERO_TIME, Simulator, SimTime


class Box:
    """Captures the return value of a generator run as a process."""

    def __init__(self) -> None:
        self.value = None
        self.done = False


def drive(sim: Simulator, gen_fn, name: str = "driver") -> Box:
    """Spawn ``gen_fn`` (zero-arg generator function) and capture its return.

    Call ``sim.run()`` afterwards; the box then holds the return value.
    """
    box = Box()

    def runner():
        box.value = yield from gen_fn()
        box.done = True

    sim.spawn(name, runner)
    return box


class Record(NamedTuple):
    """One transfer as the bus reported it to its monitor."""

    kind: str
    master: str
    slave: str
    addr: int
    words: int
    issued_fs: int
    granted_fs: int
    completed_fs: int
    tags: List[str]
    status: str


class RecordingMonitor(BusMonitor):
    """A bus monitor that also logs every record, for per-transfer asserts.

    Install with ``bus.monitor = RecordingMonitor()`` before the run.
    """

    def record(self, kind, master, slave, addr, words, issued_fs, granted_fs,
               completed_fs, tags, status) -> None:
        super().record(kind, master, slave, addr, words, issued_fs, granted_fs,
                       completed_fs, tags, status)
        self.records.append(Record(kind, master, slave, addr, words, issued_fs,
                                   granted_fs, completed_fs, list(tags), status))

    def reset(self) -> None:
        super().reset()
        self.records: List[Record] = []

    def assert_totals_match_log(self) -> None:
        """Every running total equals the value recomputed from the log."""
        log = self.records
        words_by_master: Dict[str, int] = {}
        for r in log:
            words_by_master[r.master] = words_by_master.get(r.master, 0) + r.words
        busy = SimTime.from_fs(sum(r.completed_fs - r.granted_fs for r in log))
        wait_fs = sum(r.granted_fs - r.issued_fs for r in log)
        mean_wait = SimTime.from_fs(int(wait_fs / len(log))) if log else ZERO_TIME
        total = sum(r.words for r in log)
        config = sum(r.words for r in log if "config" in r.tags)
        expected = {
            "transactions": len(log),
            "total_words": total,
            "config_words": config,
            "data_words": sum(r.words for r in log if "config" not in r.tags),
            "busy_time_ns": busy.to_ns(),
            "mean_arbitration_wait_ns": mean_wait.to_ns(),
            "words_by_master": words_by_master,
        }
        summary = self.summary()
        assert summary == expected
        assert list(summary["words_by_master"]) == list(words_by_master)
        assert self.error_count == sum(1 for r in log if r.status != "ok")
        assert self.busy_time() == busy
        for tag in {tag for r in log for tag in r.tags}:
            tagged = sum(r.words for r in log if tag in r.tags)
            assert self.words_by_tag(tag) == tagged
            assert self.words_without_tag(tag) == total - tagged


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator per test."""
    return Simulator()
