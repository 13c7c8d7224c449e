"""A coalesced configuration fetch equals the per-burst fetch.

The bus coalesces the bursts of a DRCF's fetch train into one timed wait
while nothing else can act, whether the train is content-free (no fault
hook armed, nothing checking the words) or carries its words back.  Each
design here runs up to four times, through switches that already exist:

* ``fast``: as built (coalescing wherever it is allowed);
* ``per_burst``: a no-op ``sim.trace_hooks`` entry, which keeps the
  kernel from ever being quiet and so forbids coalescing;
* ``content``: a pass-through DRCF fault hook, which makes the fetch carry
  its words;
* ``content_per_burst``: both;
* ``unpublished``: no traffic generator publishes itself as a lookahead
  master, so every transfer, the train's included, goes through the bus's
  plain per-burst transfer path (the reference for the joint windows of
  :mod:`repro.bus.lookahead`).

Every simulated observable must be identical across the runs: each bus
transaction field, the arbiter counters, the memory counters and stored
words, each generator's issued count, the DRCF statistics, the
model-level corruption truth, the fetched words, the
``evaluate_architecture`` row, the fault-campaign report and the final
simulated time.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

import repro.kernel.simulator as simulator_module
from repro.bus import lookahead
from repro.bus import Bus, BusBridge, ConfigMemory, Memory, region_checksum
from repro.core import Context, ContextParameters, Drcf, RecoveryPolicy
from repro.core.netlist import Netlist
from repro.cpu import TrafficGenerator
from repro.dse import evaluate_architecture
from repro.faults import SCENARIOS, run_campaign
from repro.kernel import ZERO_TIME, Signal, Simulator, SimTime, VcdTracer, ns, us
from tests.conftest import RecordingMonitor
from tests.core.helpers import DummySlave, small_tech

MODES = ("fast", "per_burst", "content", "content_per_burst", "unpublished")

CFG_BASE = 0x10_0000
DATA_BASE = 0x8_0000


class PassThroughHook:
    """A DRCF fault hook that perturbs nothing (forces the content path).

    Records every fetched bitstream with its checksum.
    """

    def __init__(self):
        self.bitstreams = []

    def fetch_delay(self, drcf_name, context_name):
        return None

    def filter_bitstream(self, drcf_name, context_name, bitstream):
        words = list(bitstream)
        self.bitstreams.append((context_name, words, region_checksum(words)))
        return list(words)


def _modules(top):
    yield top
    for child in top.children:
        yield from _modules(child)


@contextmanager
def running_in(mode):
    """Patch, for the ``unpublished`` mode, lookahead publication away."""
    if mode != "unpublished":
        yield
        return
    publish, withdraw = Bus.publish_master, Bus.withdraw_master
    Bus.publish_master = Bus.withdraw_master = lambda self, master: None
    try:
        yield
    finally:
        Bus.publish_master, Bus.withdraw_master = publish, withdraw


def apply_mode(modules, mode: str) -> None:
    """Switch a design to ``mode`` through its existing hooks.

    Every bus also gets a :class:`RecordingMonitor`, which :func:`observe`
    reads.  The ``unpublished`` mode also needs the run inside
    :func:`running_in`.
    """
    for module in modules:
        if isinstance(module, Bus):
            module.monitor = RecordingMonitor()
            if mode.endswith("per_burst"):
                module.sim.trace_hooks.append(lambda now: None)
        elif mode.startswith("content") and isinstance(module, Drcf):
            module.fault_hook = PassThroughHook()


def observe(sim, modules) -> dict:
    """Every simulated observable of a finished run.

    Also checks each bus monitor's running totals against its record log.
    """
    out = {"now_fs": sim.now.femtoseconds}
    for module in modules:
        name = module.full_name
        if isinstance(module, Bus):
            module.monitor.assert_totals_match_log()
            arbiter = module.arbiter
            out[name] = {
                "transactions": [tuple(r) for r in module.monitor.records],
                "summary": module.monitor.summary(),
                "busy_fs": module.monitor.busy_time().femtoseconds,
                "grants": arbiter.grant_count,
                "contention": arbiter.contention_count,
                "arbiter": (arbiter.owner, arbiter.waiters, arbiter._seq, arbiter._rr_index,
                            list(arbiter._rr_order)),
                # The pool is a cache: its order is not observable.
                "grant_events": sorted(
                    (label, event.trigger_count, event._last_trigger_fs)
                    for label, event in arbiter._grant_pool.items()
                ),
            }
        elif isinstance(module, Memory):
            out[name] = (
                module.read_word_count,
                module.write_word_count,
                getattr(module, "injected_errors", None),
                dict(getattr(module, "_transient_errors", {})),
                sorted(module._store.items()),
            )
        elif isinstance(module, TrafficGenerator):
            out[name] = module.issued
        elif isinstance(module, Drcf):
            out[name] = (
                module.stats.summary(),
                [module.loaded_corrupted(c.name) for c in module.contexts],
            )
            if isinstance(module.fault_hook, PassThroughHook):
                out[WORDS] = module.fault_hook.bitstreams
    return out


#: Key of the fetched bitstreams in :func:`observe` (content modes only).
WORDS = "fetched_words"


def assert_modes_agree(runs: dict) -> None:
    """Every mode's observables equal the coalesced run's.

    The fetched words exist in the content modes only; they must agree
    between those two.
    """
    ref = runs["fast"]
    for mode, seen in runs.items():
        seen = {k: v for k, v in seen.items() if k != WORDS}
        assert seen == ref, f"{mode} differs from the coalesced run"
    assert runs["content"][WORDS] == runs["content_per_burst"][WORDS]


# ---------------------------------------------------------------------------
# hand-built DRCF designs
# ---------------------------------------------------------------------------

class FetchRig:
    """CPU + DRCF + configuration memory, optionally a contending master.

    A split bus is shared by the CPU, the DRCF's slave side and its
    configuration fetch.  A blocking bus cannot be (the paper's
    limitation 3 deadlock), so the fetch then goes over a private
    configuration bus, and the contender moves there with it.
    """

    def __init__(
        self,
        *,
        protocol="split",
        arbitration="fifo",
        burst_words=64,
        latency_cycles=2,
        contend_gap=None,
        gen_burst_words=4,
        gen_read_fraction=0.5,
        gen_seed=3,
        gen_transactions=40,
        prefetch=False,
        cache_bytes=None,
        n_contexts=3,
        context_gates=1000,
        bridged=False,
    ):
        self.sim = sim = Simulator()
        tech = small_tech(context_slots=2 if prefetch else 1, background_load=prefetch)
        self.bus = Bus("bus", sim=sim, protocol=protocol, arbitration=arbitration)
        shared = protocol == "split"
        self.cfg_bus = (
            self.bus
            if shared
            else Bus("cfg_bus", sim=sim, protocol=protocol, arbitration=arbitration)
        )
        self.cfgmem = ConfigMemory(
            "cfg", sim=sim, base=CFG_BASE, size_words=1 << 16, latency_cycles=latency_cycles
        )
        self.data = Memory("data", sim=sim, base=DATA_BASE, size_words=4096)
        self.bridge = None
        if bridged:
            # The configuration memory sits behind a bridge on its own bus.
            self.far_bus = Bus("far_bus", sim=sim, protocol=protocol, arbitration=arbitration)
            self.far_bus.register_slave(self.cfgmem)
            self.bridge = BusBridge(
                "bridge", sim=sim, low=CFG_BASE, high=self.cfgmem.get_high_add()
            )
            self.bridge.dn_port.bind(self.far_bus)
            self.cfg_bus.register_slave(self.bridge)
        else:
            self.cfg_bus.register_slave(self.cfgmem)
        self.cfg_bus.register_slave(self.data)
        size = tech.context_size_bytes(context_gates)
        stride = ((size + 63) // 64) * 64
        contexts = []
        for i in range(n_contexts):
            slave = DummySlave(f"s{i}", sim=sim, base=0x1000 * (i + 1))
            params = ContextParameters(config_addr=CFG_BASE + i * stride, size_bytes=size)
            contexts.append(
                Context(name=f"s{i}", module=slave, params=params, gates=context_gates)
            )
            self.cfgmem.register_context_region(f"s{i}", params.config_addr, size)
            params.checksum = self.cfgmem.checksum_of(f"s{i}")
        self.drcf = Drcf(
            "drcf",
            sim=sim,
            contexts=contexts,
            tech=tech,
            config_burst_words=burst_words,
            config_cache_bytes=cache_bytes,
        )
        self.drcf.mst_port.bind(self.cfg_bus)
        self.bus.register_slave(self.drcf)
        if arbitration == "priority":
            self.cfg_bus.set_master_priority("drcf", 1)
            self.cfg_bus.set_master_priority("gen", 0)
        self.generator = None
        if contend_gap is not None:
            self.generator = TrafficGenerator(
                "gen",
                sim=sim,
                base=DATA_BASE,
                span_bytes=1024,
                burst_words=gen_burst_words,
                gap_cycles=contend_gap,
                read_fraction=gen_read_fraction,
                seed=gen_seed,
                n_transactions=gen_transactions,
            )
            self.generator.mst_port.bind(self.cfg_bus)

    def modules(self):
        found = [self.bus, self.cfgmem, self.data, self.drcf]
        if self.generator is not None:
            found.append(self.generator)
        if self.cfg_bus is not self.bus:
            found.append(self.cfg_bus)
        if self.bridge is not None:
            found.append(self.far_bus)
        return found

    def addr(self, index: int) -> int:
        return 0x1000 * (index + 1) + 16

    def run_accesses(self, accesses, *, prefetches=(), until=None):
        """CPU thread: one write + read per access, prefetching where asked."""
        sim = self.sim
        prefetch_at = dict(prefetches)

        def cpu():
            for step, (index, gap_ns) in enumerate(accesses):
                if gap_ns:
                    yield ns(gap_ns)
                if step in prefetch_at:
                    self.drcf.prefetch(f"s{prefetch_at[step]}")
                yield from self.bus.write(self.addr(index), step, master="cpu")
                yield from self.bus.read(self.addr(index), 1, master="cpu")

        sim.spawn("cpu", cpu)
        return sim.run(until=until)


def run_rig(mode, accesses, prefetches=(), **rig_kwargs):
    rig = FetchRig(**rig_kwargs)
    apply_mode(rig.modules(), mode)
    with running_in(mode):
        rig.run_accesses(accesses, prefetches=prefetches)
    return rig, observe(rig.sim, rig.modules())


accesses_st = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from([0, 0, 30, 500, 4000])),
    min_size=1,
    max_size=6,
)
rig_st = st.fixed_dictionaries(
    {
        # 250-word bitstreams: 50 and 125 divide them, 16/37/64 do not.
        "burst_words": st.sampled_from([16, 37, 50, 64, 125, 300]),
        "latency_cycles": st.integers(0, 6),
        "protocol": st.sampled_from(["split", "blocking"]),
        "arbitration": st.sampled_from(["fifo", "priority", "round_robin"]),
        "contend_gap": st.sampled_from([None, 0, 1, 8, 40]),
        "gen_burst_words": st.sampled_from([1, 4, 16]),
        "gen_read_fraction": st.sampled_from([0.0, 0.5, 1.0]),
        "gen_seed": st.integers(0, 2**16),
        "prefetch": st.booleans(),
        "cache_bytes": st.sampled_from([None, 600, 4096]),
    }
)


class TestDifferential:
    @given(rig_st, accesses_st, st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)), max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_hand_built_designs(self, rig_kwargs, accesses, prefetches):
        if not rig_kwargs["prefetch"]:
            prefetches = []
        rigs, runs = {}, {}
        for mode in MODES:
            rigs[mode], runs[mode] = run_rig(mode, accesses, prefetches, **rig_kwargs)
        assert_modes_agree(runs)
        # Coalescing only ever removes kernel work.
        executions = {m: r.sim.stats.process_executions for m, r in rigs.items()}
        assert executions["fast"] <= executions["per_burst"]
        assert executions["content"] <= executions["content_per_burst"]
        assert executions["per_burst"] == executions["content_per_burst"]

    @given(
        st.fixed_dictionaries(
            {
                "tech": st.sampled_from(["morphosys", "varicore", "virtex2pro"]),
                "accels": st.sampled_from([["fir", "xtea"], ["fft", "viterbi", "fir"]]),
                "workload": st.sampled_from(["interleaved", "random"]),
                "n_frames": st.integers(1, 2),
                "config_burst_words": st.sampled_from([16, 50, 64, 100]),
                "cfg_latency_cycles": st.integers(0, 6),
                "bus_protocol": st.sampled_from(["split", "blocking"]),
                "background_gap_cycles": st.sampled_from([None, 1, 8, 40]),
                "prefetch": st.booleans(),
                "seed": st.integers(0, 3),
            }
        )
    )
    @settings(max_examples=12, deadline=None)
    def test_evaluate_architecture_rows(self, params):
        # A blocking bus shared with the fetch deadlocks by design; give
        # the configuration memory its own bus then.
        params["dedicated_config_bus"] = params["bus_protocol"] == "blocking"
        runs = {}
        for mode in MODES:
            with elaborated_in_mode(mode) as designs, running_in(mode):
                row = evaluate_architecture(dict(params))
            (design,) = designs
            runs[mode] = observe(design.sim, list(_modules(design.top)))
            runs[mode]["row"] = row
        assert_modes_agree(runs)


@contextmanager
def elaborated_in_mode(mode):
    """Patch netlist elaboration to switch every design to ``mode``."""
    designs = []
    original = Netlist.elaborate

    def elaborate(self, sim):
        design = original(self, sim)
        apply_mode(_modules(design.top), mode)
        designs.append(design)
        return design

    Netlist.elaborate = elaborate
    try:
        yield designs
    finally:
        Netlist.elaborate = original


# ---------------------------------------------------------------------------
# the window rules, one edge at a time
# ---------------------------------------------------------------------------

#: Three switches, two of them 250-word fetches in 64-word bursts.
ACCESSES = [(0, 0), (1, 0), (0, 0)]


class TestWindowRules:
    def test_quiet_fetch_coalesces(self):
        fast, seen_fast = run_rig("fast", ACCESSES)
        slow, seen_slow = run_rig("per_burst", ACCESSES)
        assert seen_fast == seen_slow
        assert fast.sim.stats.timed_activations < slow.sim.stats.timed_activations
        assert fast.sim.stats.process_executions < slow.sim.stats.process_executions

    def test_contention_keeps_per_burst_records(self):
        fast, seen_fast = run_rig("fast", ACCESSES, contend_gap=0)
        _slow, seen_slow = run_rig("per_burst", ACCESSES, contend_gap=0)
        assert seen_fast == seen_slow
        assert seen_fast["bus"]["contention"] > 0

    def test_run_until_mid_fetch(self):
        """A run stopped anywhere leaves the counters where per-burst does."""
        _rig, seen = run_rig("per_burst", ACCESSES)
        end_fs = seen["now_fs"]
        config = [t for t in seen["bus"]["transactions"] if "config" in t[8]]
        # Stop inside the first fetch, exactly on and just after a burst
        # boundary, and deep into the run.
        stops = [
            config[0][5] + 1,
            config[3][7] - 1,
            config[3][7],
            config[3][7] + 1,
            (config[5][7] + config[6][7]) // 2,
            end_fs // 2,
            end_fs - 1,
        ]
        for stop_fs in stops:
            observed = []
            for mode in ("fast", "per_burst"):
                rig = FetchRig()
                apply_mode(rig.modules(), mode)
                rig.run_accesses(ACCESSES, until=ns(stop_fs / 1e6))
                first = observe(rig.sim, rig.modules())
                rig.sim.run()
                observed.append((first, observe(rig.sim, rig.modules())))
            assert observed[0] == observed[1], f"diverged when stopped at {stop_fs} fs"

    def test_master_waking_on_a_burst_boundary(self):
        """A timed action exactly at a burst's end bounds the window before it."""
        _rig, seen = run_rig("per_burst", ACCESSES)
        config = [t for t in seen["bus"]["transactions"] if "config" in t[8]]
        for burst in (config[0], config[2], config[-1]):
            observed = []
            for mode in ("fast", "per_burst"):
                rig = FetchRig()
                apply_mode(rig.modules(), mode)

                def probe(rig=rig, at_fs=burst[7]):
                    yield ns(at_fs / 1e6)
                    yield from rig.bus.read(DATA_BASE, 8, master="probe")

                rig.sim.spawn("probe", probe)
                rig.run_accesses(ACCESSES)
                observed.append(observe(rig.sim, rig.modules()))
            assert observed[0] == observed[1]
            assert observed[0]["bus"]["contention"] > 0

    def test_vcd_and_trace_hook_output_identical(self):
        dumps, instants, executions = [], [], []
        for mode, hooked in (("fast", False), ("per_burst", False), ("fast", True)):
            rig = FetchRig()
            apply_mode(rig.modules(), mode)
            tracer = VcdTracer("rig")
            tracer.trace(rig.drcf.active_context_signal, "active", width=8)
            seen = []
            if hooked:
                rig.sim.trace_hooks.append(lambda t: seen.append(t.femtoseconds))
            rig.run_accesses(ACCESSES)
            dumps.append(tracer.dumps())
            instants.append(seen)
            executions.append(rig.sim.stats.process_executions)
        assert dumps[0] == dumps[1] == dumps[2]
        # A trace hook sees every instant, so it turns coalescing off.
        assert executions[2] == executions[1] > executions[0]
        hooked_ref = FetchRig()
        apply_mode(hooked_ref.modules(), "per_burst")
        ref_instants = []
        hooked_ref.sim.trace_hooks.append(lambda t: ref_instants.append(t.femtoseconds))
        hooked_ref.run_accesses(ACCESSES)
        assert instants[2] == ref_instants

    def test_fetch_through_bridge_stays_per_burst(self):
        fast, seen_fast = run_rig("fast", ACCESSES, bridged=True)
        slow, seen_slow = run_rig("per_burst", ACCESSES, bridged=True)
        assert seen_fast == seen_slow
        assert fast.sim.stats.process_executions == slow.sim.stats.process_executions
        assert fast.bridge.forwarded_reads > 0

    def test_memory_fault_hook_keeps_per_burst(self):
        """An armed memory hook sees every burst's words as they are read."""

        class Recorder:
            def __init__(self):
                self.bursts = []

            def on_memory_read(self, memory, addr, count, data):
                self.bursts.append((addr, count))
                return data

        runs = []
        for mode in ("content", "content_per_burst"):
            rig = FetchRig()
            apply_mode(rig.modules(), mode)
            rig.cfgmem.fault_hook = hook = Recorder()
            rig.run_accesses(ACCESSES)
            seen = observe(rig.sim, rig.modules())
            runs.append((seen, rig.sim.stats.process_executions, hook.bursts))
        assert runs[0] == runs[1]
        config = [t for t in runs[0][0]["bus"]["transactions"] if "config" in t[8]]
        assert runs[0][2] == [(t[3], t[4]) for t in config]

    def test_transient_errors_consumed_per_burst(self):
        seen = []
        for mode in ("fast", "per_burst"):
            rig = FetchRig()
            apply_mode(rig.modules(), mode)
            # Verification is off: the errors go unnoticed but are used up,
            # one per burst touching the region, as before.
            rig.cfgmem.inject_transient_error("s1", n_bursts=3)
            rig.cfgmem.inject_transient_error("s2", n_bursts=9)
            rig.run_accesses(ACCESSES)
            assert rig.cfgmem.injected_errors == 3
            assert rig.cfgmem._transient_errors == {"s1": 0, "s2": 9}
            seen.append(observe(rig.sim, rig.modules()))
        assert seen[0] == seen[1]

    def test_config_cache_hit_moves_no_bus_words(self):
        rig, seen = run_rig("fast", ACCESSES, cache_bytes=4096)
        words = rig.drcf.contexts[0].params.config_words(4)
        monitor = rig.bus.monitor
        # s0 and s1 come over the bus once; the return to s0 hits the cache.
        assert monitor.words_by_tag("config") == 2 * words
        assert rig.drcf.stats.total_config_words == 2 * words
        assert seen == run_rig("per_burst", ACCESSES, cache_bytes=4096)[1]


# ---------------------------------------------------------------------------
# content trains: verification, transient errors, upsets, scrubbing
# ---------------------------------------------------------------------------

#: A scrubber daemon never starves the event queue, so content runs stop here.
CONTENT_UNTIL = us(300)
#: Bits in one 250-word bitstream region of a FetchRig.
REGION_BITS = 250 * 32


def run_content(scene, accesses, per_burst, upsets=()):
    """Run a FetchRig set up by ``scene`` (recovery, hook, pre-armed errors).

    ``upsets`` are ``(at_fs, kind, index, arg)``; a process applies each at
    its instant: ``transient`` arms ``arg`` transient errors, ``corrupt``
    flips the bit offsets ``arg``.
    """
    rig = FetchRig(
        protocol=scene["protocol"],
        burst_words=scene["burst_words"],
        latency_cycles=scene["latency_cycles"],
        contend_gap=scene["contend_gap"],
    )
    memory = rig.cfgmem
    rig.drcf.config_memory = memory
    rig.drcf.set_recovery(
        RecoveryPolicy(
            verify=scene["verify"],
            max_retries=scene["max_retries"],
            backoff=ns(scene["backoff_ns"]) if scene["backoff_ns"] else ZERO_TIME,
            scrub_interval=us(scene["scrub_us"]) if scene["scrub_us"] else None,
            fallback_to_resident=True,
        )
    )
    if scene["hook"]:
        rig.drcf.fault_hook = PassThroughHook()
    apply_mode(rig.modules(), "per_burst" if per_burst else "fast")
    for index, n_bursts in scene["transients"]:
        memory.inject_transient_error(f"s{index}", n_bursts)

    def upsetter():
        for at_fs, kind, index, arg in sorted(upsets):
            if at_fs > rig.sim.now.femtoseconds:
                yield SimTime.from_fs(at_fs - rig.sim.now.femtoseconds)
            if kind == "transient":
                memory.inject_transient_error(f"s{index}", arg)
            else:
                memory.corrupt_region(f"s{index}", arg)

    rig.sim.spawn("upsets", upsetter)
    rig.run_accesses(accesses, until=CONTENT_UNTIL)
    seen = observe(rig.sim, rig.modules())
    seen["store"] = dict(memory._store)
    return rig, seen


def config_bursts(seen):
    """``(start_fs, end_fs)`` of every configuration burst of a run."""
    return [(t[5], t[7]) for t in seen["bus"]["transactions"] if "config" in t[8]]


scene_st = st.fixed_dictionaries(
    {
        "verify": st.booleans(),
        "hook": st.booleans(),
        "max_retries": st.integers(0, 3),
        "backoff_ns": st.sampled_from([0, 0, 300]),
        "scrub_us": st.sampled_from([None, 3, 20]),
        "burst_words": st.sampled_from([16, 37, 64, 300]),
        "latency_cycles": st.integers(0, 4),
        "protocol": st.sampled_from(["split", "blocking"]),
        "contend_gap": st.sampled_from([None, None, 8]),
        "transients": st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 3)), max_size=2
        ),
    }
)
# (which configuration burst, where inside it in permille, upset).
upsets_st = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.integers(0, 999),
        st.one_of(
            st.tuples(st.just("transient"), st.integers(0, 2), st.integers(1, 3)),
            st.tuples(
                st.just("corrupt"),
                st.integers(0, 2),
                st.lists(st.integers(0, REGION_BITS - 1), min_size=1, max_size=3),
            ),
        ),
    ),
    max_size=3,
)

#: Verification on, no fault hook: the fetch carries its words for the
#: checksum, and nothing else in the rig forces a per-burst fetch.
VERIFY_SCENE = {
    "verify": True,
    "hook": False,
    "max_retries": 3,
    "backoff_ns": 0,
    "scrub_us": None,
    "burst_words": 64,
    "latency_cycles": 2,
    "protocol": "split",
    "contend_gap": None,
    "transients": [],
}


class TestContentTrains:
    @given(scene_st, accesses_st, upsets_st)
    @settings(max_examples=40, deadline=None)
    def test_differential(self, scene, accesses, upsets):
        """Coalesced content trains equal forced per-burst ones.

        Upsets land inside configuration bursts of a clean per-burst run,
        so they arrive in the middle of fetch trains.
        """
        _rig, clean = run_content(scene, accesses, per_burst=True)
        bursts = config_bursts(clean)
        timed = []
        if bursts:
            for which, permille, (kind, index, arg) in upsets:
                start, end = bursts[which % len(bursts)]
                timed.append((start + (end - start) * permille // 1000, kind, index, arg))
        fast, seen_fast = run_content(scene, accesses, False, timed)
        slow, seen_slow = run_content(scene, accesses, True, timed)
        assert seen_fast == seen_slow
        assert fast.sim.stats.process_executions <= slow.sim.stats.process_executions

    def test_verified_fetch_coalesces(self):
        fast, seen_fast = run_content(VERIFY_SCENE, ACCESSES, per_burst=False)
        slow, seen_slow = run_content(VERIFY_SCENE, ACCESSES, per_burst=True)
        assert seen_fast == seen_slow
        assert fast.sim.stats.process_executions < slow.sim.stats.process_executions
        assert fast.drcf.stats.config_retries == 0

    def test_transient_error_flips_the_consuming_burst(self):
        scene = dict(VERIFY_SCENE, hook=True, transients=[(1, 2)])
        runs = [run_content(scene, ACCESSES, per_burst) for per_burst in (False, True)]
        (fast, seen_fast), (slow, seen_slow) = runs
        assert seen_fast == seen_slow
        assert fast.sim.stats.process_executions < slow.sim.stats.process_executions
        fetched = [words for name, words, _ in seen_fast[WORDS] if name == "s1"]
        # The first two bursts of s1's first fetch each flip bit 0 of their
        # first word; the verified refetch is clean.
        assert len(fetched) == 2
        diff = [a ^ b for a, b in zip(fetched[0], fetched[1])]
        assert [i for i, d in enumerate(diff) if d] == [0, 64]
        assert set(diff) == {0, 1}
        assert fast.drcf.stats.config_retries == 1

    def test_transient_error_armed_inside_a_train(self):
        scene = dict(VERIFY_SCENE, hook=True)
        _rig, clean = run_content(scene, ACCESSES, per_burst=True)
        # Halfway through the second burst of the second fetch (s1).
        start, end = config_bursts(clean)[5]
        upsets = [((start + end) // 2, "transient", 1, 1)]
        (fast, seen_fast), (slow, seen_slow) = [
            run_content(scene, ACCESSES, per_burst, upsets) for per_burst in (False, True)
        ]
        assert seen_fast == seen_slow
        fetched = [words for name, words, _ in seen_fast[WORDS] if name == "s1"]
        flipped = [i for i, (a, b) in enumerate(zip(*fetched)) if a != b]
        # A later burst of the train consumed it, not the train's first.
        assert len(fetched) == 2 and len(flipped) == 1 and flipped[0] >= 64
        assert fast.drcf.stats.config_retries == 1

    def test_upset_and_scrubber_cut_windows(self):
        scene = dict(VERIFY_SCENE, hook=True, scrub_us=3, max_retries=1)
        _rig, clean = run_content(scene, ACCESSES, per_burst=True)
        start, end = config_bursts(clean)[1]
        upsets = [((start + end) // 2, "corrupt", 0, [5, 700])]
        (fast, seen_fast), (slow, seen_slow) = [
            run_content(scene, ACCESSES, per_burst, upsets) for per_burst in (False, True)
        ]
        assert seen_fast == seen_slow
        assert fast.sim.stats.process_executions < slow.sim.stats.process_executions
        stats = fast.drcf.stats
        assert stats.scrubs > 0 and stats.scrub_repairs > 0


# ---------------------------------------------------------------------------
# the kernel's side of the window: nothing else may be able to act
# ---------------------------------------------------------------------------

def bus_scene(mode, setup):
    """A bus + memory; ``setup(sim, bus)`` spawns the processes."""
    sim = Simulator()
    bus = Bus("bus", sim=sim, protocol="split")
    mem = Memory("mem", sim=sim, base=0, size_words=4096)
    bus.register_slave(mem)
    apply_mode([bus], mode)
    setup(sim, bus)
    sim.run()
    return observe(sim, [bus, mem]), sim.stats.process_executions


def train(bus, delay_ns=100, n_words=300, burst_words=16):
    """A fetch-like master: a 50 ns read, then a content-free train.

    The first read makes the master known to the arbiter, so only the rule
    under test keeps the train from coalescing; the train starts at
    ``50 + delay_ns`` ns.
    """

    def body():
        yield from bus.read(0x2000, 1, master="fetch")
        yield ns(delay_ns)
        yield from bus.read_train(0, n_words, burst_words, master="fetch", content=False)

    return body


def other_read(bus, master="other", words=8):
    yield from bus.read(0x1000, words, master=master)


class TestKernelQuietness:
    """Each scene has a master requesting the bus at the train's start.

    Per-burst, that master finds the train holding the bus; a window that
    ignored the rule under test would let it in at once.
    """

    def assert_same(self, setup):
        fast = bus_scene("fast", setup)
        slow = bus_scene("per_burst", setup)
        assert fast[0] == slow[0]
        assert fast[0]["bus"]["contention"] > 0
        return fast, slow

    def test_quiet_train_coalesces(self):
        def setup(sim, bus):
            sim.spawn("fetch", train(bus))

        fast, slow = bus_scene("fast", setup), bus_scene("per_burst", setup)
        assert fast[0] == slow[0]
        assert fast[1] < slow[1]

    def test_runnable_process_blocks_window(self):
        def setup(sim, bus):
            sim.spawn("fetch", train(bus))

            def late():
                # Wakes at 150 ns from a wait armed after the train's, so
                # it is still runnable when the train starts.
                yield ns(60)
                yield ns(90)
                yield from other_read(bus)

            sim.spawn("late", late)

        self.assert_same(setup)

    def test_pending_delta_blocks_window(self):
        def setup(sim, bus):
            poke = sim.event("poke")

            def poker():
                yield ns(150)
                poke.notify_delta()

            def woken():
                yield poke
                yield from other_read(bus)

            sim.spawn("poker", poker)
            sim.spawn("woken", woken)
            sim.spawn("fetch", train(bus))

        self.assert_same(setup)

    def test_pending_update_blocks_window(self):
        def setup(sim, bus):
            flag = Signal(sim, 0, name="flag")

            def writer():
                yield ns(150)
                flag.write(1)

            def woken():
                yield flag.value_changed
                yield from other_read(bus)

            sim.spawn("writer", writer)
            sim.spawn("woken", woken)
            sim.spawn("fetch", train(bus))

        self.assert_same(setup)

    def test_owned_arbiter_blocks_window(self):
        def setup(sim, bus):
            def hog():
                # From 100 ns: a 200-word read whose data beats hold the
                # bus over 2130..4130 ns.
                yield ns(100)
                yield from bus.read(0x1000, 200, master="hog")

            sim.spawn("hog", hog)
            sim.spawn("fetch", train(bus, delay_ns=2450))

        self.assert_same(setup)

    def test_watchdog_run_coalesces(self):
        """A wall-clock watchdog that never trips changes only kernel work."""
        runs = []
        for mode in ("fast", "per_burst"):
            sim = Simulator()
            bus = Bus("bus", sim=sim, protocol="split")
            mem = Memory("mem", sim=sim, base=0, size_words=4096)
            bus.register_slave(mem)
            apply_mode([bus], mode)
            sim.spawn("fetch", train(bus))
            sim.run(max_wall_s=600)
            runs.append((observe(sim, [bus, mem]), sim.stats.process_executions))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] < runs[1][1]

    def test_watchdog_trip_mid_train_resumes_identically(self, monkeypatch):
        """A trip stops at an instant the per-burst run reaches, and resumes.

        The kernel's clock is replaced so the watchdog trips at its
        ``trip_at``-th reading; sweeping that covers every point at which
        a coalesced run checks the watchdog.
        """

        class Clock:
            def __init__(self, trip_at):
                self.readings = 0
                self.trip_at = trip_at

            def monotonic(self):
                self.readings += 1
                return 0.0 if self.readings < self.trip_at else 1e9

        def scene(mode):
            sim = Simulator()
            bus = Bus("bus", sim=sim, protocol="split")
            mem = Memory("mem", sim=sim, base=0, size_words=1 << 15)
            bus.register_slave(mem)
            for i in range(0, 1 << 15, 97):
                mem.poke(4 * i, i)
            apply_mode([bus], mode)
            fetched = []

            def fetch():
                yield from bus.read(0x1FFF0, 1, master="fetch")
                words = yield from bus.read_train(0, 24000, 16, master="fetch")
                fetched.append(words)

            def ticker():
                # Cuts the train into windows of a few bursts.
                for _ in range(300):
                    yield ns(2000)

            sim.spawn("fetch", fetch)
            sim.spawn("ticker", ticker)
            return sim, [bus, mem], fetched

        ref_sim, ref_modules, ref_words = scene("per_burst")
        instants = set()
        ref_sim.trace_hooks.append(lambda t: instants.add(t.femtoseconds))
        ref_sim.run()
        reference = observe(ref_sim, ref_modules)
        total = len(reference["bus"]["transactions"])

        mid_train = 0
        for trip_at in range(2, 40):
            sim, modules, words = scene("fast")
            monkeypatch.setattr(simulator_module, "time", Clock(trip_at))
            sim.run(max_wall_s=1.0)
            monkeypatch.undo()
            if not sim.watchdog_fired:
                break  # no watchdog check left to trip
            stop_fs = sim.now.femtoseconds
            assert stop_fs in instants
            # The bursts finished by then are exactly the per-burst run's.
            stopped = observe(sim, modules)["bus"]["transactions"]
            assert stopped == [
                t for t in reference["bus"]["transactions"] if t[7] <= stop_fs
            ]
            done = len(stopped)
            if 1 < done < total:
                mid_train += 1
            sim.run()
            assert observe(sim, modules) == reference
            assert words == ref_words
            assert sim.stats.process_executions < ref_sim.stats.process_executions
        assert mid_train >= 2

    def test_stop_requested_before_train(self):
        """A run the train's own process stops leaves no window to resume."""
        runs = []
        for mode in ("fast", "per_burst"):
            sim = Simulator()
            bus = Bus("bus", sim=sim, protocol="split")
            mem = Memory("mem", sim=sim, base=0, size_words=4096)
            bus.register_slave(mem)
            apply_mode([bus], mode)

            def body(sim=sim, bus=bus):
                yield from bus.read(0x2000, 1, master="fetch")
                sim.stop()
                yield from bus.read_train(0, 300, 16, master="fetch", content=False)

            sim.spawn("fetch", body)
            sim.run()
            stopped = observe(sim, [bus, mem])
            sim.run(until=ns(400))
            resumed = observe(sim, [bus, mem])
            sim.run()
            runs.append((stopped, resumed, observe(sim, [bus, mem])))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# joint windows: the fetch train and a lookahead traffic generator
# ---------------------------------------------------------------------------

#: A generator contending with every fetch of ACCESSES, as in experiment E8.
CONTENDED = {"contend_gap": 8, "gen_transactions": 50}


def windows_of(monkeypatch):
    """Record ``(start_fs, end_fs)`` of every joint window opened."""
    seen = []
    original = lookahead._plan_window

    def plan_window(bus, d, *args):
        plan = original(bus, d, *args)
        if plan is not None:
            seen.append((bus.sim.now.femtoseconds, plan.end_fs))
        return plan

    monkeypatch.setattr(lookahead, "_plan_window", plan_window)
    return seen


def add_generator(rig, name, base, **kwargs):
    gen = TrafficGenerator(name, sim=rig.sim, base=base, span_bytes=1024,
                           gap_cycles=8, n_transactions=200, **kwargs)
    gen.mst_port.bind(rig.cfg_bus)
    return gen


def run_each_mode(build, accesses=ACCESSES, modes=("fast", "per_burst", "unpublished"),
                  until=None):
    """Build, run and observe one design per mode; ``build()`` returns (rig, extra modules)."""
    runs, executions = {}, {}
    for mode in modes:
        rig, extra = build()
        modules = rig.modules() + extra
        apply_mode(modules, mode)
        with running_in(mode):
            rig.run_accesses(accesses, until=until)
        runs[mode] = observe(rig.sim, modules)
        executions[mode] = rig.sim.stats.process_executions
    return runs, executions


class TestJointWindow:
    def test_contended_fetch_coalesces(self, monkeypatch):
        windows = windows_of(monkeypatch)
        runs, executions = run_each_mode(lambda: (FetchRig(**CONTENDED), []))
        assert runs["fast"] == runs["per_burst"] == runs["unpublished"]
        assert runs["fast"]["bus"]["contention"] > 0
        assert windows and executions["fast"] * 2 < executions["per_burst"]
        gen_records = [t for t in runs["fast"]["bus"]["transactions"] if t[1] == "gen"]
        # The generator's transfers land inside the windows.
        inside = [t for t in gen_records if any(s < t[7] <= e for s, e in windows)]
        assert len(inside) > len(gen_records) // 2

    def test_two_generators_refuse(self, monkeypatch):
        windows = windows_of(monkeypatch)

        def build():
            rig = FetchRig(**CONTENDED)
            return rig, [add_generator(rig, "gen2", DATA_BASE + 0x1000, seed=9)]

        runs, executions = run_each_mode(build)
        assert runs["fast"] == runs["per_burst"] == runs["unpublished"]
        assert runs["fast"]["gen2"] > 0
        assert not windows
        assert executions["fast"] == executions["per_burst"]

    def test_generator_behind_bridge_refuses(self, monkeypatch):
        windows = windows_of(monkeypatch)
        far_base = 0x40_0000

        def build():
            rig = FetchRig(**CONTENDED)
            far_bus = Bus("far_bus", sim=rig.sim, protocol="split")
            far = Memory("far", sim=rig.sim, base=far_base, size_words=1024)
            far_bus.register_slave(far)
            bridge = BusBridge("bridge", sim=rig.sim, low=far_base,
                               high=far.get_high_add())
            bridge.dn_port.bind(far_bus)
            rig.cfg_bus.register_slave(bridge)
            gen = rig.generator
            gen.base = far_base  # its window now decodes to the bridge
            return rig, [far_bus, far]

        runs, executions = run_each_mode(build)
        assert runs["fast"] == runs["per_burst"] == runs["unpublished"]
        assert runs["fast"]["far"][1] > 0  # the generator's writes crossed it
        assert not windows
        assert executions["fast"] == executions["per_burst"]

    def test_generator_aimed_at_config_memory_refuses(self, monkeypatch):
        windows = windows_of(monkeypatch)

        def build():
            rig = FetchRig(**CONTENDED)
            rig.generator.base = CFG_BASE + 0x8000  # past the bitstreams
            return rig, []

        runs, executions = run_each_mode(build)
        assert runs["fast"] == runs["per_burst"] == runs["unpublished"]
        assert runs["fast"]["cfg"][1] > 0
        assert not windows
        assert executions["fast"] == executions["per_burst"]

    def test_memory_fault_hooks_refuse(self, monkeypatch):
        """An armed hook on either memory sees every burst's words as read."""
        windows = windows_of(monkeypatch)

        class Recorder:
            def __init__(self):
                self.bursts = []

            def on_memory_read(self, memory, addr, count, data):
                self.bursts.append((memory.full_name, addr, count, list(data)))
                return data

        for hooked in ("cfg", "data"):
            hooks = {}

            def build(hooked=hooked):
                rig = FetchRig(**CONTENDED)
                hook = hooks[len(hooks)] = Recorder()
                getattr(rig, "cfgmem" if hooked == "cfg" else "data").fault_hook = hook
                return rig, []

            runs, _ = run_each_mode(build)
            assert runs["fast"] == runs["per_burst"] == runs["unpublished"]
            assert hooks[0].bursts == hooks[1].bursts == hooks[2].bursts
            reads = [(t[2], t[3], t[4]) for t in runs["fast"]["bus"]["transactions"]
                     if t[0] == "read" and t[2] == hooked]
            assert [b[:3] for b in hooks[0].bursts] == reads and reads
            assert not windows

    def test_run_until_mid_window(self, monkeypatch):
        """A run stopped inside a window leaves the counters where per-burst does."""
        windows = windows_of(monkeypatch)
        full, _ = run_each_mode(lambda: (FetchRig(**CONTENDED), []), modes=("fast",))
        records = full["fast"]["bus"]["transactions"]
        assert windows
        start, end = max(windows, key=lambda w: w[1] - w[0])
        inside = sorted({t[7] for t in records if start < t[7] < end})
        stops = {start + 1, (start + end) // 2, end - 1, end, end + 1}
        stops.update(inside[:: max(1, len(inside) // 8)])
        stops.update(t + 1 for t in inside[:3])
        for stop_fs in sorted(stops):
            observed = []
            for mode in ("fast", "per_burst"):
                rig = FetchRig(**CONTENDED)
                apply_mode(rig.modules(), mode)
                rig.run_accesses(ACCESSES, until=SimTime.from_fs(stop_fs))
                first = observe(rig.sim, rig.modules())
                rig.sim.run()
                observed.append((first, observe(rig.sim, rig.modules())))
            assert observed[0] == observed[1], f"diverged when stopped at {stop_fs} fs"

    def test_watchdog_trip_mid_window_resumes_identically(self, monkeypatch):
        """A trip while a window's wait is pending stops at an instant of the
        per-burst run, and a resumed run ends identical.

        The kernel's clock is replaced so the watchdog trips at the first
        reading taken while the ``k``-th window (or a later one) is open.
        """
        real_time = simulator_module.time
        windows = windows_of(monkeypatch)

        class Clock:
            def __init__(self, sim, k):
                self.sim, self.first = sim, len(windows) + k - 1

            def monotonic(self):
                if len(windows) > self.first:
                    start, end = windows[-1]
                    if start <= self.sim.now.femtoseconds < end:
                        return 1e9
                return 0.0

        def scene(mode):
            sim = Simulator()
            bus = Bus("bus", sim=sim, protocol="split")
            mem = Memory("mem", sim=sim, base=0, size_words=1 << 14)
            data = Memory("data", sim=sim, base=0x4_0000, size_words=1024)
            bus.register_slave(mem)
            bus.register_slave(data)
            for i in range(0, 1 << 14, 97):
                mem.poke(4 * i, i)
            gen = TrafficGenerator("gen", sim=sim, base=0x4_0000, span_bytes=4096,
                                   gap_cycles=8, seed=5, n_transactions=2000)
            gen.mst_port.bind(bus)
            modules = [bus, mem, data, gen]
            apply_mode(modules, mode)
            fetched = []

            def fetch():
                yield from bus.read(0xFFF0, 1, master="fetch")
                words = yield from bus.read_train(0, 12000, 16, master="fetch")
                fetched.append(words)

            def ticker():
                # Cuts the train into many windows.
                for _ in range(600):
                    yield ns(500)

            sim.spawn("fetch", fetch)
            sim.spawn("ticker", ticker)
            return sim, modules, fetched

        ref_sim, ref_modules, ref_words = scene("per_burst")
        instants = set()
        ref_sim.trace_hooks.append(lambda t: instants.add(t.femtoseconds))
        ref_sim.run()
        reference = observe(ref_sim, ref_modules)
        ref_records = reference["bus"]["transactions"]

        trips = 0
        for k in (1, 40, 120, 250):
            sim, modules, words = scene("fast")
            monkeypatch.setattr(simulator_module, "time", Clock(sim, k))
            sim.run(max_wall_s=1.0)
            monkeypatch.setattr(simulator_module, "time", real_time)
            if not sim.watchdog_fired:
                continue
            trips += 1
            stop_fs = sim.now.femtoseconds
            assert stop_fs in instants
            stopped = observe(sim, modules)["bus"]["transactions"]
            # Everything finished before the stop instant is there; the
            # window that starts at it settles its first steps at its end.
            assert [t for t in stopped if t[7] < stop_fs] == [
                t for t in ref_records if t[7] < stop_fs
            ]
            assert all(t in ref_records for t in stopped)
            sim.run()
            assert observe(sim, modules) == reference
            assert words == ref_words
            assert sim.stats.process_executions < ref_sim.stats.process_executions
        assert trips >= 2

    def test_release_and_request_tie_inside_window(self, monkeypatch):
        """The generator asks for the bus in the femtosecond the train lets go.

        Per-burst, both wakes fire before either master runs and the
        (time, seq) order decides who acts first; the window replays that.
        """
        windows = windows_of(monkeypatch)
        address_fs = 10_000_000  # one 100 MHz cycle: address phase, request beat
        ties = 0
        for seed in range(4):
            del windows[:]
            kwargs = dict(CONTENDED, contend_gap=1, gen_seed=seed)
            runs, executions = run_each_mode(lambda: (FetchRig(**kwargs), []))
            assert runs["fast"] == runs["per_burst"] == runs["unpublished"]
            assert executions["fast"] < executions["per_burst"]
            records = runs["fast"]["bus"]["transactions"]
            releases = set()
            for t in records:
                if t[1] == "drcf":
                    releases.update((t[6] + 2 * address_fs, t[7]))  # beat end, data end
            ties += sum(
                1
                for t in records
                if t[1] == "gen"
                and t[5] in releases
                and any(start < t[5] < end for start, end in windows)
            )
        assert ties > 0


class TestContendedCountGate:
    def test_bus_contended_varicore_point(self):
        """The E8 varicore point (seed 42) runs in under a third of the events.

        Per-burst it takes 32,425 process executions; every reported
        metric stays what the per-burst run reports.
        """
        designs = []
        with elaborated_in_mode("fast") as designs:
            row = evaluate_architecture({
                "tech": "varicore", "accels": ["fir", "fft", "viterbi", "xtea"],
                "workload": "random", "n_frames": 2, "bus_protocol": "split",
                "background_gap_cycles": 8, "prefetch": True, "seed": 42,
            })
        (design,) = designs
        assert design.sim.stats.process_executions <= 32_425 // 3
        assert (row["makespan_us"], row["bus_config_words"], row["bus_data_words"],
                row["switches"]) == (1647.928, 76_876, 20_493, 5)


# ---------------------------------------------------------------------------
# whole fault campaigns
# ---------------------------------------------------------------------------

class TestCampaigns:
    @pytest.mark.parametrize("scenario, recovery", [("modem", "retry"), ("wireless", "full")])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_report_identical_to_per_burst(self, scenario, recovery, seed):
        """Watchdog on, fault hooks armed, verification on: same report."""
        reports, executions = [], []
        for mode in ("fast", "per_burst"):
            with elaborated_in_mode(mode) as designs:
                report = run_campaign(
                    SCENARIOS[scenario], trials=4, seed=seed, recovery=recovery
                )
            reports.append(report.to_json())
            executions.append(sum(d.sim.stats.process_executions for d in designs))
        assert reports[0] == reports[1]
        assert executions[0] < executions[1]
