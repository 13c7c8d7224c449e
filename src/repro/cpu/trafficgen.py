"""Synthetic bus traffic generators.

Experiment E8 needs controllable *background* bus load to show that a model
omitting configuration-memory traffic (the ref-[8] baseline) diverges as
contention grows.  :class:`TrafficGenerator` issues reads/writes to a
memory region at a configurable target utilization, using a seeded
deterministic pseudo-random stream so runs are exactly reproducible.

A generator whose port binds straight to a :class:`~repro.bus.Bus` is a
*lookahead master* of that bus: its requests are a pure function of its
private stream, so it draws them ahead of time (in the order it always
draws them: gap, address, read-or-write, payload) and the bus may settle
its transactions analytically while a configuration fetch train runs (see
:meth:`Bus.read_train <repro.bus.Bus.read_train>`).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..bus import Bus, BusMasterIf
from ..kernel import Module, Port, SimTime, cycles_to_time

#: One drawn request: the gap before it (None for no gap), its address, and
#: its payload (None for a read).
Request = Tuple[Optional[SimTime], int, Optional[List[int]]]


class TrafficGenerator(Module):
    """Issues a stream of burst transactions against an address window.

    Parameters
    ----------
    base, span_bytes:
        Address window targeted (must decode to a bus slave).
    burst_words:
        Words per transaction.
    gap_cycles:
        Mean idle bus cycles between transactions; 0 saturates the bus.
    read_fraction:
        Probability of a read (vs write) per transaction.
    seed:
        Seed of the private PRNG; identical seeds give identical streams.
    n_transactions:
        Stop after this many transactions (``None`` = run forever).
    """

    def __init__(
        self,
        name: str,
        parent=None,
        sim=None,
        *,
        base: int,
        span_bytes: int,
        burst_words: int = 4,
        gap_cycles: int = 20,
        read_fraction: float = 0.5,
        clock_freq_hz: float = 100e6,
        seed: int = 1,
        n_transactions: Optional[int] = None,
        word_bytes: int = 4,
    ) -> None:
        super().__init__(name, parent=parent, sim=sim)
        if span_bytes < burst_words * word_bytes:
            raise ValueError("address span smaller than one burst")
        self.mst_port = Port(self, BusMasterIf, name="mst_port")
        self.base = base
        self.span_bytes = span_bytes
        self.burst_words = burst_words
        self.gap_cycles = gap_cycles
        self.read_fraction = read_fraction
        self.clock_freq_hz = clock_freq_hz
        self.word_bytes = word_bytes
        self.n_transactions = n_transactions
        self._rng = random.Random(seed)
        self.issued = 0
        #: Tags of every transaction this generator issues.
        self.tags = ("background",)
        # Drawn requests not yet issued, oldest first.
        self._ahead: Deque[Request] = deque()
        self._gap_times: Dict[int, SimTime] = {}
        #: True while the thread waits out the gap before its next request.
        self.between_transactions = False
        self.process = self.add_thread(self._run, name="gen", daemon=(n_transactions is None))

    def _random_addr(self) -> int:
        max_slot = (self.span_bytes - self.burst_words * self.word_bytes) // self.word_bytes
        slot = self._rng.randint(0, max_slot)
        return self.base + slot * self.word_bytes

    def _draw(self) -> Request:
        rng = self._rng
        gap = None
        if self.gap_cycles > 0:
            cycles = rng.randint(0, 2 * self.gap_cycles)
            if cycles:
                gap = self._gap_times.get(cycles)
                if gap is None:
                    gap = self._gap_times[cycles] = cycles_to_time(cycles, self.clock_freq_hz)
        addr = self._random_addr()
        payload = None
        if rng.random() >= self.read_fraction:
            payload = [rng.getrandbits(32) for _ in range(self.burst_words)]
        return gap, addr, payload

    def peek(self, index: int) -> Request:
        """The ``index``-th request not yet issued, drawing as far as needed.

        Drawing early does not change the stream: nothing else uses the
        generator's private PRNG.
        """
        ahead = self._ahead
        while len(ahead) <= index:
            ahead.append(self._draw())
        return ahead[index]

    def consume(self, count: int) -> None:
        """Account ``count`` requests the bus completed on this generator's behalf."""
        for _ in range(count):
            self._ahead.popleft()
        self.issued += count

    def _run(self):
        bus = self.mst_port.resolve()
        if isinstance(bus, Bus):
            bus.publish_master(self)
        while self.n_transactions is None or self.issued < self.n_transactions:
            gap = self.peek(0)[0]
            if gap is not None:
                self.between_transactions = True
                yield gap
                self.between_transactions = False
            # The bus may have completed requests during the gap; issue the
            # first one still pending.
            _, addr, payload = self._ahead.popleft()
            if payload is None:
                yield from self.mst_port.read(
                    addr, self.burst_words, master=self.full_name, tags=self.tags
                )
            else:
                yield from self.mst_port.write(
                    addr, payload, master=self.full_name, tags=self.tags
                )
            self.issued += 1
        if isinstance(bus, Bus):
            # (A killed generator stays published; joint windows then refuse.)
            bus.withdraw_master(self)
