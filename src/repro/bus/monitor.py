"""Bus traffic monitor.

Collects every completed :class:`~repro.bus.interfaces.Transaction` and
aggregates the statistics the paper's methodology is built to expose: the
memory-bus traffic generated by context switching (Section 5.3) alongside
ordinary data traffic, so design-space exploration can weigh reconfiguration
cost against computation.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from ..kernel import SimTime, ZERO_TIME
from .interfaces import Transaction


class BusMonitor:
    """Accumulates transactions and serves aggregate queries."""

    def __init__(self, name: str = "monitor") -> None:
        self.name = name
        self.transactions: List[Transaction] = []
        self._busy_fs = 0

    # -- recording -----------------------------------------------------------
    def record(self, txn: Transaction) -> None:
        """Record one completed transaction (called by the bus)."""
        self.transactions.append(txn)
        self._busy_fs += txn.completed_at.femtoseconds - txn.granted_at.femtoseconds

    # -- aggregate queries -------------------------------------------------------
    @property
    def transaction_count(self) -> int:
        return len(self.transactions)

    @property
    def error_count(self) -> int:
        """Transactions whose slave call raised (recorded with status="error")."""
        return sum(1 for t in self.transactions if t.status != "ok")

    @property
    def total_words(self) -> int:
        """Total data words moved over the bus."""
        return sum(t.words for t in self.transactions)

    def words_by_tag(self, tag: str) -> int:
        """Words moved by transactions carrying ``tag`` (e.g. ``"config"``)."""
        return sum(t.words for t in self.transactions if t.has_tag(tag))

    def words_without_tag(self, tag: str) -> int:
        return sum(t.words for t in self.transactions if not t.has_tag(tag))

    def words_by_master(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for t in self.transactions:
            out[t.master] += t.words
        return dict(out)

    def words_by_slave(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for t in self.transactions:
            out[t.slave] += t.words
        return dict(out)

    def busy_time(self) -> SimTime:
        """Total time the bus data path was occupied."""
        return SimTime.from_fs(self._busy_fs)

    def utilization(self, elapsed: SimTime) -> float:
        """Fraction of ``elapsed`` during which the bus was occupied."""
        if elapsed.femtoseconds == 0:
            return 0.0
        return min(1.0, self._busy_fs / elapsed.femtoseconds)

    def mean_arbitration_wait(self, master: Optional[str] = None) -> SimTime:
        """Average grant wait, optionally filtered by master label."""
        waits = [
            t.arbitration_wait.femtoseconds
            for t in self.transactions
            if master is None or t.master == master
        ]
        if not waits:
            return ZERO_TIME
        return SimTime.from_fs(int(sum(waits) / len(waits)))

    def max_arbitration_wait(self) -> SimTime:
        if not self.transactions:
            return ZERO_TIME
        return SimTime.from_fs(max(t.arbitration_wait.femtoseconds for t in self.transactions))

    def reset(self) -> None:
        """Discard all recorded transactions (between experiment phases)."""
        self.transactions.clear()
        self._busy_fs = 0

    def summary(self) -> Dict[str, object]:
        """A dictionary summary used by the experiment reports."""
        return {
            "transactions": self.transaction_count,
            "total_words": self.total_words,
            "config_words": self.words_by_tag("config"),
            "data_words": self.words_without_tag("config"),
            "busy_time_ns": self.busy_time().to_ns(),
            "mean_arbitration_wait_ns": self.mean_arbitration_wait().to_ns(),
            "words_by_master": self.words_by_master(),
        }
