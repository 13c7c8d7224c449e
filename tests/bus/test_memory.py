"""Memory models: latency, bounds, sparse backing, config regions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bus import ConfigMemory, Memory, region_checksum
from repro.kernel import SimulationError, Simulator, ns
from tests.conftest import drive


def naive_fnv1a(words) -> int:
    """FNV-1a (32-bit), one step per word: the checksums' reference."""
    value = 0x811C9DC5
    for word in words:
        value ^= word & 0xFFFFFFFF
        value = (value * 0x01000193) & 0xFFFFFFFF
    return value


class TestMemory:
    def test_address_range(self, sim):
        mem = Memory("m", sim=sim, base=0x100, size_words=16, word_bytes=4)
        assert mem.get_low_add() == 0x100
        assert mem.get_high_add() == 0x100 + 16 * 4 - 1

    def test_read_latency_model(self, sim):
        mem = Memory(
            "m", sim=sim, base=0, size_words=64,
            latency_cycles=3, cycles_per_word=2, clock_freq_hz=100e6,
        )

        def body():
            data = yield from mem.read(0, 4)
            return (data, sim.now.to_ns())

        box = drive(sim, body)
        sim.run()
        # 3 + (4-1)*2 = 9 cycles at 10 ns.
        assert box.value[1] == 90.0

    def test_write_read_roundtrip(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=64)

        def body():
            yield from mem.write(0x10, [5, 6])
            data = yield from mem.read(0x10, 2)
            return data

        box = drive(sim, body)
        sim.run()
        assert box.value == [5, 6]

    def test_uninitialized_reads_fill(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=8, fill=0xDEAD)
        assert mem.peek(0, 2) == [0xDEAD, 0xDEAD]

    def test_unaligned_access_rejected(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=8)
        with pytest.raises(SimulationError, match="unaligned"):
            mem.peek(2)

    def test_out_of_range_rejected(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=8)
        with pytest.raises(SimulationError, match="outside"):
            mem.peek(8 * 4)
        with pytest.raises(SimulationError, match="outside"):
            mem.poke(7 * 4, [1, 2])  # crosses the end

    def test_poke_peek_do_not_advance_time(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=8)
        mem.poke(0, [1, 2, 3])
        assert mem.peek(0, 3) == [1, 2, 3]
        assert sim.now.to_ns() == 0.0

    def test_word_counters(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=64)

        def body():
            yield from mem.write(0, [1, 2, 3])
            yield from mem.read(0, 2)

        sim.spawn("p", body)
        sim.run()
        assert mem.write_word_count == 3
        assert mem.read_word_count == 2

    def test_invalid_size(self, sim):
        with pytest.raises(ValueError):
            Memory("m", sim=sim, base=0, size_words=0)

    def test_sparse_backing_stays_small(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=1 << 24)
        mem.poke(0, [1])
        assert len(mem._store) == 1


class TestBurstWords:
    """Burst words equal a per-word lookup, however sparse the store."""

    @given(
        st.lists(st.tuples(st.integers(0, 63), st.integers(0, 2**32 - 1)), max_size=80),
        st.integers(0, 63),
        st.integers(1, 64),
        st.sampled_from([0, 0xDEAD]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_lookup(self, pokes, first, count, fill):
        count = min(count, 64 - first)
        sim = Simulator()
        mem = Memory("m", sim=sim, base=0x100, size_words=64, fill=fill)
        for index, value in pokes:
            mem.poke(0x100 + 4 * index, value)
        stored = dict(pokes)
        expected = [stored.get(i, fill) for i in range(first, first + count)]
        assert mem.peek(0x100 + 4 * first, count) == expected

        def body():
            return (yield from mem.read(0x100 + 4 * first, count))

        box = drive(sim, body)
        sim.run()
        assert box.value == expected


class TestConfigMemory:
    def test_region_registration_and_lookup(self, sim):
        mem = ConfigMemory("cfg", sim=sim, base=0x1000, size_words=1024)
        mem.register_context_region("fir", 0x1000, 256)
        mem.register_context_region("fft", 0x1100, 512)
        assert mem.region_of("fir") == (0x1000, 256)
        assert mem.context_for_address(0x1000) == "fir"
        assert mem.context_for_address(0x1100 + 511) == "fft"
        assert mem.context_for_address(0x1100 + 512) is None

    def test_region_outside_memory_rejected(self, sim):
        mem = ConfigMemory("cfg", sim=sim, base=0, size_words=16)
        with pytest.raises(SimulationError, match="outside"):
            mem.register_context_region("big", 0, 1 << 20)

    def test_unknown_region(self, sim):
        mem = ConfigMemory("cfg", sim=sim, base=0, size_words=16)
        with pytest.raises(KeyError):
            mem.region_of("nope")


# A region: (first word, size in bytes), kept inside a 64-word memory.
_regions = st.tuples(st.integers(0, 63), st.integers(1, 64 * 4)).map(
    lambda r: (r[0], min(r[1], (64 - r[0]) * 4))
)
_pokes = st.lists(
    st.tuples(st.integers(0, 63), st.integers(-(2**33), 2**33)), max_size=24
)
_fills = st.one_of(st.sampled_from([0, 1 << 32, 0xDEAD]), st.integers(0, 2**32))
# Maintenance steps after registration: ("poke", word, value),
# ("corrupt", bit offsets) or ("scrub",).
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("poke"), st.integers(0, 63), st.integers(0, 2**32 - 1)),
        st.tuples(st.just("corrupt"), st.lists(st.integers(0, 8 * 4 - 1), min_size=1, max_size=4)),
        st.tuples(st.just("scrub")),
    ),
    max_size=6,
)


_words = st.lists(
    st.one_of(
        st.just(0),
        st.integers(0, 2**32 - 1),
        st.integers(-(2**40), 2**40),  # wider than 32 bits, and negative
    ),
    max_size=200,
)


class TestRegionChecksum:
    """The sparse checksums equal the naive FNV-1a loop."""

    BASE = 0x400

    @staticmethod
    def reference(mem, addr, size_bytes):
        return naive_fnv1a(mem.peek(addr, max(1, -(-size_bytes // 4))))

    @given(_words)
    @settings(max_examples=200, deadline=None)
    def test_region_checksum_matches_naive_loop(self, words):
        assert region_checksum(words) == naive_fnv1a(words)
        # Any iterable, not just a list.
        assert region_checksum(tuple(words)) == naive_fnv1a(words)
        assert region_checksum(iter(words)) == naive_fnv1a(words)

    @given(st.integers(0, 300), st.integers(0, 300), st.integers(1, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_zero_runs(self, before, after, word):
        for words in ([0] * before, [0] * before + [word] + [0] * after):
            assert region_checksum(words) == naive_fnv1a(words)

    def test_edge_lists(self):
        assert region_checksum([]) == naive_fnv1a([]) == 0x811C9DC5
        assert region_checksum([0]) == naive_fnv1a([0])
        assert region_checksum([0] * 4096) == naive_fnv1a([0] * 4096)
        assert region_checksum([1 << 32, 0, 1 << 33]) == naive_fnv1a([0, 0, 0])

    @given(_fills, _pokes, _regions, _steps)
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_loop(self, fill, pokes, region, steps):
        mem = ConfigMemory(
            "cfg", sim=Simulator(), base=self.BASE, size_words=64, fill=fill
        )
        for index, value in pokes:
            mem.poke(self.BASE + 4 * index, value)
        first, size_bytes = region
        addr = self.BASE + 4 * first
        mem.register_context_region("ctx", addr, size_bytes)
        assert mem.checksum_of("ctx") == self.reference(mem, addr, size_bytes)
        for step in steps:
            if step[0] == "poke":
                mem.poke(self.BASE + 4 * step[1], step[2])
            elif step[0] == "corrupt":
                mem.corrupt_region("ctx", step[1])
            else:
                mem.scrub_region("ctx")
            current = self.reference(mem, addr, size_bytes)
            assert mem._compute_checksum(addr, size_bytes) == current
            assert mem.region_is_clean("ctx") == (current == mem.checksum_of("ctx"))
