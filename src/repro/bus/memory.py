"""Memory models.

:class:`Memory` is a bus slave with first-access latency and per-word
streaming cycles, backed by a sparse word store (so a multi-megabyte
configuration memory costs nothing until written).  The paper's context
scheduler "generate[s] proper data reads in to the memory space that holds
the required context" — those reads land here and their cost is what
experiment A3 varies.

:class:`ConfigMemory` is a :class:`Memory` that additionally knows which
address ranges hold which configuration bitstreams, so reads from a context
region can be asserted against in tests.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..kernel import Module, SimulationError, cycles_to_time
from .interfaces import BusSlaveIf, normalize_write_data

#: FNV-1a offset/prime (32-bit) for bitstream checksums.
_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193
_WORD_MASK = 0xFFFFFFFF
_MODULUS = 1 << 32


def region_checksum(words) -> int:
    """FNV-1a (32-bit) over a word sequence — the bitstream CRC stand-in.

    Only nonzero words are visited (see :func:`_fnv_sparse`): fetched
    bitstreams are mostly fill.
    """
    if not isinstance(words, list):
        words = list(words)
    n = len(words)
    return _fnv_sparse(((i, words[i]) for i in compress(range(n), words)), n)


def _fnv_sparse(items: Iterable[Tuple[int, int]], length: int) -> int:
    """FNV-1a over ``length`` words that are zero except at ``items``.

    ``items`` yields ``(position, word)`` pairs in ascending position
    order.  An FNV-1a step over a zero word is a multiply by the prime, so
    a run of ``n`` zero words is one multiply by the prime's ``n``-th
    power.
    """
    value = _FNV_OFFSET
    pos = 0
    for index, word in items:
        if index > pos:
            value = (value * pow(_FNV_PRIME, index - pos, _MODULUS)) & _WORD_MASK
        value ^= word & _WORD_MASK
        value = (value * _FNV_PRIME) & _WORD_MASK
        pos = index + 1
    if length > pos:
        value = (value * pow(_FNV_PRIME, length - pos, _MODULUS)) & _WORD_MASK
    return value


class Memory(Module, BusSlaveIf):
    """A latency-modelled RAM bus slave.

    Parameters
    ----------
    base, size_words:
        Decoded address range is ``[base, base + size_words*word_bytes)``.
    word_bytes:
        Addressing granularity (must match the bus word for simple systems).
    latency_cycles:
        Cycles before the first word of a burst is available.
    cycles_per_word:
        Additional cycles for each subsequent word of a burst.
    clock_freq_hz:
        Memory clock used to convert cycles to time.

    A fault injector (:mod:`repro.faults`) may set :attr:`fault_hook`; the
    hook's ``on_memory_read`` then filters every burst read's data (modeling
    transient bus/storage errors).  The attribute is ``None`` by default and
    the read path pays a single ``is None`` test for it — arming faults is
    strictly opt-in and costs nothing when disarmed.
    """

    #: Optional read-path fault filter (class default: disarmed).
    fault_hook = None

    def __init__(
        self,
        name: str,
        parent: Optional[Module] = None,
        sim=None,
        *,
        base: int = 0,
        size_words: int = 1024,
        word_bytes: int = 4,
        latency_cycles: int = 2,
        cycles_per_word: int = 1,
        clock_freq_hz: float = 100e6,
        fill: int = 0,
    ) -> None:
        super().__init__(name, parent=parent, sim=sim)
        if size_words <= 0:
            raise ValueError("memory size must be positive")
        self.base = base
        self.size_words = size_words
        self.word_bytes = word_bytes
        self.latency_cycles = latency_cycles
        self.cycles_per_word = cycles_per_word
        self.clock_freq_hz = clock_freq_hz
        self.fill = fill
        self._store: Dict[int, int] = {}
        self.read_word_count = 0
        self.write_word_count = 0
        # Burst-size -> SimTime cache: workloads issue the same burst
        # lengths over and over, and SimTime construction is pure.
        self._burst_cache: Dict[int, object] = {}

    # -- BusSlaveIf ----------------------------------------------------------
    def get_low_add(self) -> int:
        return self.base

    def get_high_add(self) -> int:
        return self.base + self.size_words * self.word_bytes - 1

    def _burst_time(self, count: int):
        t = self._burst_cache.get(count)
        if t is None:
            t = self._burst_cache[count] = cycles_to_time(
                self.latency_cycles + (count - 1) * self.cycles_per_word,
                self.clock_freq_hz,
            )
        return t

    def read(self, addr: int, count: int = 1):
        """Burst read (generator); returns ``count`` words."""
        index = self._index(addr, count)
        yield self._burst_time(count)
        self.read_word_count += count
        data = self._words(index, count)
        hook = self.fault_hook
        if hook is not None:
            data = hook.on_memory_read(self, addr, count, data)
        return data

    def read_timing(self, addr: int, count: int = 1):
        """Burst read that returns no words (generator).

        Same bounds check, burst time and bookkeeping as :meth:`read`, so
        a fetch nobody checks costs no word list.  An armed
        :attr:`fault_hook` sees the words of every read, so with one armed
        this is a plain :meth:`read`.
        """
        if self.fault_hook is not None:
            yield from self.read(addr, count)
            return
        self._index(addr, count)
        yield self._burst_time(count)
        self._settle_read(addr, count, False)

    def _settle_read(self, addr: int, count: int, content: bool) -> Optional[List[int]]:
        """Bookkeeping of a finished burst read; its words when ``content``.

        :meth:`read_timing` ends with this, and the bus calls it directly,
        burst by burst, when it coalesces a fetch train into one timed
        wait.  Only valid with no :attr:`fault_hook` armed (with one, every
        burst goes through :meth:`read`).
        """
        self.read_word_count += count
        if content:
            return self._words((addr - self.base) // self.word_bytes, count)
        return None

    def _words(self, index: int, count: int) -> List[int]:
        """The ``count`` stored words from word ``index`` on."""
        store = self._store
        if count == 1:
            return [store.get(index, self.fill)]
        if len(store) < count:
            # Sparse store: fill words, overlaid with the stored ones.
            data = [self.fill] * count
            for i, word in store.items():
                offset = i - index
                if 0 <= offset < count:
                    data[offset] = word
            return data
        fill = self.fill
        return [store.get(i, fill) for i in range(index, index + count)]

    def write(self, addr: int, data: Union[int, Sequence[int]]):
        """Burst write (generator); returns True."""
        if type(data) is int:  # scalar single-word write: skip normalization
            index = self._index(addr, 1)
            yield self._burst_time(1)
            self._store[index] = data
            self.write_word_count += 1
            return True
        words = normalize_write_data(data)
        self._index(addr, len(words))
        yield self._burst_time(len(words))
        self._settle_write(addr, words)
        return True

    def _settle_write(self, addr: int, words: List[int]) -> None:
        """Effect of a finished burst write of ``words`` at ``addr``.

        :meth:`write` ends with this; the bus calls it directly when it
        settles a lookahead master's writes at the end of a joint window.
        """
        store = self._store
        index = (addr - self.base) // self.word_bytes
        for word in words:
            store[index] = word
            index += 1
        self.write_word_count += len(words)

    # -- zero-time backdoor (test benches, loaders) --------------------------------
    def poke(self, addr: int, data: Union[int, Sequence[int]]) -> None:
        """Write words without consuming simulated time (test-bench backdoor)."""
        words = normalize_write_data(data)
        index = self._index(addr, len(words))
        for i, word in enumerate(words):
            self._store[index + i] = word

    def peek(self, addr: int, count: int = 1) -> List[int]:
        """Read words without consuming simulated time (test-bench backdoor)."""
        return self._words(self._index(addr, count), count)

    def _index(self, addr: int, count: int) -> int:
        if addr % self.word_bytes:
            raise SimulationError(
                f"{self.full_name}: unaligned access at {addr:#x} (word={self.word_bytes})"
            )
        index = (addr - self.base) // self.word_bytes
        if index < 0 or index + count > self.size_words:
            raise SimulationError(
                f"{self.full_name}: access [{addr:#x} +{count}w] outside "
                f"[{self.get_low_add():#x}, {self.get_high_add():#x}]"
            )
        return index


class ConfigMemory(Memory):
    """A memory that records named configuration (context) regions.

    The DRCF's context parameters point into this memory; registering the
    region here lets tests assert that context-switch traffic actually
    targeted the right bitstream bytes.

    For integrity modeling (fine-grain devices CRC-check each configuration
    frame), each region records a checksum of its content at registration
    time, and :meth:`inject_transient_error` corrupts exactly the next read
    touching the region — the failure-injection hook behind the DRCF's
    verify-and-refetch option.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._regions: Dict[str, Tuple[int, int]] = {}
        self._checksums: Dict[str, int] = {}
        self._transient_errors: Dict[str, int] = {}
        #: Golden sparse image of each region at registration time, for
        #: scrubbing repairs (word index -> word, only explicitly set words).
        self._golden: Dict[str, Dict[int, int]] = {}
        self.injected_errors = 0

    def register_context_region(self, context_name: str, addr: int, size_bytes: int) -> None:
        """Declare that ``context_name``'s bitstream lives at ``[addr, addr+size)``."""
        if addr < self.get_low_add() or addr + size_bytes - 1 > self.get_high_add():
            raise SimulationError(
                f"context region {context_name!r} [{addr:#x} +{size_bytes}B] outside "
                f"{self.full_name}"
            )
        self._regions[context_name] = (addr, size_bytes)
        self._checksums[context_name] = self._compute_checksum(addr, size_bytes)
        lo, hi = self._region_indices(addr, size_bytes)
        self._golden[context_name] = {
            i: w for i, w in self._store.items() if lo <= i < hi
        }

    def _region_indices(self, addr: int, size_bytes: int) -> Tuple[int, int]:
        """Half-open word-index range of a byte region."""
        lo = (addr - self.base) // self.word_bytes
        return lo, lo + max(1, -(-size_bytes // self.word_bytes))

    def _compute_checksum(self, addr: int, size_bytes: int) -> int:
        """:func:`region_checksum` of the region's current words.

        With a zero fill, only the explicitly stored words are visited.
        """
        words = max(1, -(-size_bytes // self.word_bytes))
        if self.fill & _WORD_MASK:
            return region_checksum(self.peek(addr, words))
        lo = self._index(addr, words)
        hi = lo + words
        store = self._store
        return _fnv_sparse(
            ((i - lo, store[i]) for i in sorted(i for i in store if lo <= i < hi)),
            words,
        )

    def region_of(self, context_name: str) -> Tuple[int, int]:
        """The (address, size) registered for ``context_name``."""
        return self._regions[context_name]

    def checksum_of(self, context_name: str) -> int:
        """The checksum recorded for the region at registration time."""
        return self._checksums[context_name]

    def inject_transient_error(self, context_name: str, n_bursts: int = 1) -> None:
        """Corrupt the next ``n_bursts`` burst reads touching the region.

        Models a transient configuration-memory/bus error: each affected
        burst returns one flipped bit; later bursts are clean again, so a
        whole-bitstream fetch containing a corrupted burst fails its
        checksum once and succeeds on refetch.
        """
        if context_name not in self._regions:
            raise SimulationError(
                f"{self.full_name}: unknown context region {context_name!r}"
            )
        if n_bursts <= 0:
            raise ValueError("n_bursts must be positive")
        self._transient_errors[context_name] = (
            self._transient_errors.get(context_name, 0) + n_bursts
        )

    def corrupt_region(self, context_name: str, bit_indices: Sequence[int]) -> None:
        """Flip the given absolute bit positions inside a context region.

        Models persistent configuration-memory upsets (SEUs in the bitstream
        store): the corruption stays until :meth:`scrub_region` repairs it.
        ``bit_indices`` are offsets from the region start; callers derive
        them from a seeded RNG so injections are reproducible.
        """
        if context_name not in self._regions:
            raise SimulationError(
                f"{self.full_name}: unknown context region {context_name!r}"
            )
        if not bit_indices:
            raise ValueError("need at least one bit to flip")
        addr, size_bytes = self._regions[context_name]
        lo, hi = self._region_indices(addr, size_bytes)
        word_bits = self.word_bytes * 8
        for bit in bit_indices:
            if bit < 0 or bit >= (hi - lo) * word_bits:
                raise ValueError(
                    f"bit offset {bit} outside region {context_name!r} "
                    f"({(hi - lo) * word_bits} bits)"
                )
            index = lo + bit // word_bits
            self._store[index] = self._store.get(index, self.fill) ^ (
                1 << (bit % word_bits)
            )
            self.injected_errors += 1

    def scrub_region(self, context_name: str) -> bool:
        """Restore a region to its golden (registration-time) image.

        Returns True if any word actually changed — the signal a scrubbing
        pass uses to count repairs.  The restore itself is zero-time (the
        scrubber pays for detection with real bus reads; the repair write-
        back is modeled as instantaneous ECC correction).
        """
        if context_name not in self._regions:
            raise SimulationError(
                f"{self.full_name}: unknown context region {context_name!r}"
            )
        addr, size_bytes = self._regions[context_name]
        lo, hi = self._region_indices(addr, size_bytes)
        golden = self._golden[context_name]
        repaired = False
        for index in [i for i in self._store if lo <= i < hi]:
            if index not in golden:
                del self._store[index]
                repaired = True
        for index, word in golden.items():
            if self._store.get(index) != word:
                self._store[index] = word
                repaired = True
        return repaired

    def region_is_clean(self, context_name: str) -> bool:
        """Does the region's current content match its registered checksum?"""
        addr, size_bytes = self._regions[context_name]
        return self._compute_checksum(addr, size_bytes) == self._checksums[context_name]

    def read(self, addr: int, count: int = 1):
        data = yield from super().read(addr, count)
        if self._consume_transient_error(addr):
            data = list(data)
            data[0] ^= 0x1  # single flipped bit in the first word
        return data

    def _settle_read(self, addr: int, count: int, content: bool) -> Optional[List[int]]:
        data = super()._settle_read(addr, count, content)
        if self._consume_transient_error(addr) and content:
            data[0] ^= 0x1  # as read() flips it
        return data

    def _consume_transient_error(self, addr: int) -> bool:
        """Use up one pending transient error of the region at ``addr``."""
        if not self._transient_errors:
            return False
        region = self.context_for_address(addr)
        if region is not None and self._transient_errors.get(region, 0) > 0:
            self._transient_errors[region] -= 1
            self.injected_errors += 1
            return True
        return False

    def context_for_address(self, addr: int) -> Optional[str]:
        """Which registered region (if any) contains ``addr``."""
        for name, (base, size) in self._regions.items():
            if base <= addr < base + size:
                return name
        return None
