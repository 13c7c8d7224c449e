"""The shared system bus.

A bus-cycle-approximate model of the single shared bus in the paper's
Figure 1 SoC: masters arbitrate for ownership, the winning transfer pays an
address phase plus per-word data cycles, and the addressed slave's
``read``/``write`` interface method is invoked through the same mechanism
the paper uses (the slave method may itself consume simulated time).

Two protocols are supported, because the paper's Section 5.4 (limitation 3)
hinges on the difference:

``blocking``
    The bus is held for the entire slave call.  If the slave itself needs
    the same bus to make progress (the DRCF fetching configuration data
    during a context switch), the system deadlocks — exactly the failure
    mode the paper describes.
``split``
    The bus is occupied only for the request and response transfers; it is
    released while the slave processes.  This models the split-transaction
    requirement the paper states for sharing the context-memory bus with
    the component interface bus.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

from ..kernel import Module, SimTime, SimulationError, cycles_to_time
from .arbiter import Arbiter
from .interfaces import (
    BusMasterIf,
    BusSlaveIf,
    Transaction,
    check_range,
    normalize_write_data,
)
from .memory import Memory
from .monitor import BusMonitor

#: Supported bus protocols.
PROTOCOLS = ("blocking", "split")


class Bus(Module, BusMasterIf):
    """A shared multi-master bus with address decoding and arbitration.

    Parameters
    ----------
    clock_freq_hz:
        Bus clock; all cycle counts convert to time at this frequency.
    data_width_bits:
        Width of one bus word (default 32).
    address_phase_cycles:
        Cycles consumed by the address/command phase of each transfer.
    cycles_per_word:
        Data cycles per word transferred.
    protocol:
        ``"blocking"`` or ``"split"`` (see module docstring).
    arbitration:
        Arbiter policy: ``"fifo"``, ``"priority"``, or ``"round_robin"``.
    """

    def __init__(
        self,
        name: str,
        parent: Optional[Module] = None,
        sim=None,
        *,
        clock_freq_hz: float = 100e6,
        data_width_bits: int = 32,
        address_phase_cycles: int = 1,
        cycles_per_word: int = 1,
        protocol: str = "blocking",
        arbitration: str = "fifo",
    ) -> None:
        super().__init__(name, parent=parent, sim=sim)
        if protocol not in PROTOCOLS:
            raise ValueError(f"unknown bus protocol {protocol!r}; expected one of {PROTOCOLS}")
        if data_width_bits <= 0 or data_width_bits % 8:
            raise ValueError("data_width_bits must be a positive multiple of 8")
        self.clock_freq_hz = clock_freq_hz
        self.data_width_bits = data_width_bits
        self.address_phase_cycles = address_phase_cycles
        self.cycles_per_word = cycles_per_word
        self.protocol = protocol
        self.arbiter = Arbiter(self.sim, policy=arbitration, name=f"{self.full_name}.arbiter")
        self.monitor = BusMonitor(name=f"{self.full_name}.monitor")
        self._slaves: List[BusSlaveIf] = []
        self._priorities: Dict[str, int] = {}
        # One-entry decode cache: (low, high, slave) of the last hit,
        # invalidated whenever the slave map changes, so a hit is always a
        # registered slave.  Bounds are snapshotted to skip the interface
        # method calls on the hot path (slave ranges are fixed; DRCF
        # reconfiguration swaps slaves, which invalidates the entry).
        self._decode_cache: Optional[tuple] = None
        # Cycle-count -> SimTime cache; cycle durations on the transfer path
        # repeat endlessly for the same burst sizes.  Keyed only by count:
        # ``clock_freq_hz`` is fixed at construction.
        self._cycle_cache: Dict[int, SimTime] = {}

    # -- construction -----------------------------------------------------------
    @property
    def word_bytes(self) -> int:
        """Bytes per bus word."""
        return self.data_width_bits // 8

    def words_for_bytes(self, n_bytes: int) -> int:
        """Number of bus words needed to move ``n_bytes``."""
        return max(1, math.ceil(n_bytes / self.word_bytes))

    def register_slave(self, slave: BusSlaveIf) -> None:
        """Attach a slave; its address range must not overlap existing ones."""
        if not isinstance(slave, BusSlaveIf):
            raise SimulationError(
                f"{type(slave).__name__} does not implement BusSlaveIf"
            )
        low, high = slave.get_low_add(), slave.get_high_add()
        check_range(self._slave_name(slave), low, high)
        for other in self._slaves:
            if low <= other.get_high_add() and other.get_low_add() <= high:
                raise SimulationError(
                    f"address range [{low:#x}, {high:#x}] of "
                    f"{self._slave_name(slave)} overlaps "
                    f"{self._slave_name(other)}"
                )
        self._slaves.append(slave)
        self._decode_cache = None

    def unregister_slave(self, slave: BusSlaveIf) -> None:
        """Detach a slave (used by the DRCF model transformation)."""
        self._slaves.remove(slave)
        self._decode_cache = None

    @property
    def slaves(self) -> List[BusSlaveIf]:
        return list(self._slaves)

    def set_master_priority(self, master: str, priority: int) -> None:
        """Fixed priority for ``master`` (lower wins; only with priority policy)."""
        self._priorities[master] = priority

    def decode(self, addr: int) -> BusSlaveIf:
        """The slave whose range contains ``addr``."""
        cached = self._decode_cache
        if cached is not None and cached[0] <= addr <= cached[1]:
            return cached[2]
        for slave in self._slaves:
            low, high = slave.get_low_add(), slave.get_high_add()
            if low <= addr <= high:
                self._decode_cache = (low, high, slave)
                return slave
        raise SimulationError(f"bus {self.full_name}: no slave decodes address {addr:#x}")

    # -- timing helpers ------------------------------------------------------------
    def cycles(self, n: int) -> SimTime:
        """``n`` bus-clock cycles as a duration."""
        t = self._cycle_cache.get(n)
        if t is None:
            t = self._cycle_cache[n] = cycles_to_time(n, self.clock_freq_hz)
        return t

    def transfer_time(self, words: int) -> SimTime:
        """Pure data-path occupancy for a ``words``-word burst."""
        return self.cycles(self.address_phase_cycles + words * self.cycles_per_word)

    # -- BusMasterIf -------------------------------------------------------------
    def read(self, addr: int, count: int = 1, master: str = "?", tags: Sequence[str] = ()):
        """Arbitrated burst read (use with ``yield from``). Returns a list of words.

        Validates eagerly and returns the transfer generator directly, so
        each resume walks one frame less of delegation.
        """
        if count <= 0:
            raise SimulationError("burst read count must be positive")
        return self._transfer("read", addr, count, None, master, tags)

    def write(
        self,
        addr: int,
        data: Union[int, Sequence[int]],
        master: str = "?",
        tags: Sequence[str] = (),
    ):
        """Arbitrated burst write (use with ``yield from``). Returns True on success."""
        words = normalize_write_data(data)
        return self._transfer("write", addr, len(words), words, master, tags)

    def read_train(
        self,
        addr: int,
        n_words: int,
        burst_words: int,
        master: str = "?",
        tags: Sequence[str] = (),
        *,
        word_bytes: int = 4,
        content: bool = True,
    ):
        """Read ``n_words`` from ``addr`` as back-to-back bursts (generator).

        Returns the words in order, or None without ``content``: each
        per-burst transfer then asks the slave for timing only
        (:meth:`BusSlaveIf.read_timing`).  While nothing else can act,
        runs of bursts to a :class:`Memory` are coalesced into one timed
        wait whose words, monitor records, arbiter grants and memory
        bookkeeping equal the per-burst ones exactly.
        """
        if n_words > 0 and burst_words <= 0:
            raise SimulationError("burst read count must be positive")
        return self._train(addr, n_words, burst_words, master, tags, word_bytes, content)

    # -- fetch trains ----------------------------------------------------------------
    def _train(self, addr, n_words, burst_words, master, tags, word_bytes, content):
        words: Optional[List[int]] = [] if content else None
        while n_words > 0:
            window = self._quiet_window(addr, n_words, burst_words, master, word_bytes)
            if window is None:
                chunk = min(burst_words, n_words)
                data = yield from self._transfer(
                    "read", addr, chunk, None, master, tags, timing_only=not content
                )
                if content:
                    words += data
            else:
                slave, bursts = window
                yield from self._coalesced(slave, bursts, master, tags, words)
                chunk = sum(count for _, count, _ in bursts)
            addr += chunk * word_bytes
            n_words -= chunk
        return words

    def _quiet_window(self, addr, n_words, burst_words, master, word_bytes):
        """The leading bursts of a fetch train that may coalesce.

        Returns ``(memory, [(addr, words, end_fs), ...])``, or None when
        even the first burst must go per-burst.  A burst joins the window
        while it ends strictly before the kernel's next timed action and
        not past the run's ``until``; the window needs a quiet kernel
        (:meth:`Simulator.quiet_until_fs`), an idle arbiter that already
        knows ``master``, and a :class:`Memory` slave with no fault hook
        that holds every burst of the window.
        """
        if not self.arbiter.idle_for(master):
            return None
        limit = self.sim.quiet_until_fs()
        if limit is None:
            return None
        slave = self.decode(addr)
        if (
            not isinstance(slave, Memory)
            or slave.fault_hook is not None
            or word_bytes != slave.word_bytes
        ):
            return None
        chunk = min(burst_words, n_words)
        burst_fs = self._burst_fs(slave, chunk)
        end_fs = self.sim.now.femtoseconds + burst_fs
        if end_fs > limit:
            return None
        bursts = []
        words = 0
        while True:
            bursts.append((addr + words * word_bytes, chunk, end_fs))
            words += chunk
            if words == n_words:
                break
            if n_words - words < chunk:
                chunk = n_words - words
                burst_fs = self._burst_fs(slave, chunk)
            if end_fs + burst_fs > limit:
                break
            end_fs += burst_fs
        try:
            slave._index(addr, words)
        except SimulationError:
            return None  # the per-burst path raises it at the right time
        return slave, bursts

    def _burst_fs(self, memory: Memory, count: int) -> int:
        """Femtoseconds an uncontended ``count``-word read of ``memory`` takes.

        The sum of the per-burst path's waits, each rounded on its own.
        """
        fs = (
            self.cycles(self.address_phase_cycles).femtoseconds
            + memory._burst_time(count).femtoseconds
            + self.cycles(count * self.cycles_per_word).femtoseconds
        )
        if self.protocol == "split":
            fs += self.cycles(1).femtoseconds  # request transfer beat
        return fs

    def _coalesced(self, memory: Memory, bursts, master, tags, words):
        """One timed wait over ``bursts``, then their per-burst effects.

        Appends the bursts' words to ``words`` unless it is None.  Reading
        them at the window's end is exact: nothing else acts inside the
        window, so the store holds what each burst would have read.
        """
        sim = self.sim
        content = words is not None
        start = sim.now
        yield SimTime.from_fs(bursts[-1][2] - start.femtoseconds)
        last = len(bursts) - 1
        record = self.monitor.record
        name = self._slave_name(memory)
        for i, (addr, count, end_fs) in enumerate(bursts):
            end = sim.now if i == last else SimTime.from_fs(end_fs)
            data = memory._settle_read(addr, count, content)
            if content:
                words += data
            record(
                Transaction(
                    "read", master, name, addr, count, start, start, end, list(tags), "ok"
                )
            )
            start = end
        self.arbiter.grant_count += len(bursts) * (2 if self.protocol == "split" else 1)

    # -- core transfer ----------------------------------------------------------------
    def _transfer(
        self,
        kind: str,
        addr: int,
        count: int,
        payload: Optional[List[int]],
        master: str,
        tags: Sequence[str],
        timing_only: bool = False,
    ):
        sim = self.sim
        issued_at = sim.now
        priority = self._priorities.get(master, 0)
        self.decode(addr)  # decode errors surface before arbitration
        arbiter = self.arbiter
        if arbiter.try_acquire(master):
            granted_at = issued_at  # uncontended: granted in the same instant
        else:
            yield arbiter.enqueue(master, priority)
            granted_at = sim.now
        # Decode again now that the grant is held: the DRCF model
        # transformation may have swapped the slave map while this master
        # waited out arbitration, and the transfer must target the map
        # that is current at grant time.
        slave = self.decode(addr)
        data: Optional[List[int]] = None
        status: Optional[str] = "ok"
        try:
            yield self.cycles(self.address_phase_cycles)
            if self.protocol == "blocking":
                if kind == "read":
                    data = yield from (
                        slave.read_timing if timing_only else slave.read
                    )(addr, count)
                else:
                    yield from slave.write(
                        addr, payload if len(payload) > 1 else payload[0]
                    )
                yield self.cycles(count * self.cycles_per_word)
            else:
                # Split: release the bus while the slave processes.
                yield self.cycles(1)  # request transfer beat
                arbiter.release(master)
                if kind == "read":
                    data = yield from (
                        slave.read_timing if timing_only else slave.read
                    )(addr, count)
                else:
                    yield from slave.write(
                        addr, payload if len(payload) > 1 else payload[0]
                    )
                if not arbiter.try_acquire(master):
                    yield arbiter.enqueue(master, priority)
                yield self.cycles(count * self.cycles_per_word)
        except GeneratorExit:
            status = None  # master killed mid-transfer: nothing completed
            raise
        except BaseException:
            status = "error"
            raise
        finally:
            if arbiter.owner == master:
                arbiter.release(master)
            if status is not None:
                # Failed slave calls are recorded too (status="error"):
                # they occupied the bus until the failure point, and
                # silently dropping them would corrupt the monitor's
                # occupancy and contention accounting.
                self.monitor.record(
                    Transaction(
                        kind=kind,
                        master=master,
                        slave=self._slave_name(slave),
                        addr=addr,
                        words=count,
                        issued_at=issued_at,
                        granted_at=granted_at,
                        completed_at=sim.now,
                        tags=list(tags),
                        status=status,
                    )
                )
        return data if kind == "read" else True

    @staticmethod
    def _slave_name(slave: BusSlaveIf) -> str:
        return getattr(slave, "full_name", type(slave).__name__)
