"""Joint windows: a fetch train and a lookahead master, settled together.

A :class:`~repro.cpu.TrafficGenerator` bound straight to a bus publishes
itself there (:meth:`Bus.publish_master <repro.bus.Bus.publish_master>`):
its requests are a pure function of its private PRNG, drawn ahead of time.
While one is published, a configuration fetch train runs as
:func:`stepped_train`, which does per burst what ``Bus._transfer`` does but
keeps the transfer's state in a :class:`_Master` instead of a generator
frame.  At any step of the train it may open a *joint window*: when
nothing but the generator can act and the generator is waiting out the gap
before its next request, :class:`_Replay` advances both masters event by
event under the kernel's rules, and the train covers the result with one
timed wait.

The replay's rules are the kernel's:

* timed wakes fire in ``(time, seq)`` order, with seqs drawn in the order
  the per-burst run draws them, and every wake of an instant fires before
  any process of that instant runs;
* an arbiter grant (an immediate notification) runs the winner after the
  processes already runnable;
* the arbiter's counters change as ``try_acquire``/``enqueue``/``release``
  change them.

The window ends at the last step of the train where the generator is again
waiting out a gap, strictly before any other process's timed action and
not past the run's ``until``.  At its end the train settles, in per-burst
order, its own reads, the generator's writes and reads, every monitor
record and the arbiter counters, and re-arms the generator's gap wait.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from ..kernel import Event, SimTime, SimulationError
from .memory import Memory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .bus import Bus

# Where a master's transfer resumes next.  _GAP is the generator waiting
# before its next request; the others follow ``Bus._transfer``.
_ISSUE, _GRANT, _ADDRESS, _BEAT, _SLAVE, _REGRANT, _DATA, _GAP = range(8)

#: Phases suspended inside ``Bus._transfer``'s try block: a master killed
#: there releases the bus it holds.
_HELD = frozenset((_ADDRESS, _BEAT, _SLAVE, _REGRANT, _DATA))

#: A window ends at its first possible end after this many transfers, so
#: the replay's lists and the requests drawn ahead stay small however long
#: the train.
_WINDOW_RECORDS = 256


class _Master:
    """One master's transfer state, live (the train) or replayed."""

    __slots__ = (
        "label", "slave", "tags", "phase", "kind", "addr", "count", "issued_fs",
        "granted_fs", "version", "wake_fs", "wake_seq", "slave_fs", "data_fs",
        "rr_pos", "grants", "last_grant_fs",
    )

    def __init__(self, label: str, slave, tags) -> None:
        self.label = label
        self.slave = slave
        self.tags = tags
        self.phase = _ISSUE
        self.kind = "read"
        self.addr = self.count = self.issued_fs = self.granted_fs = 0
        self.version = 0
        self.wake_fs = None  # pending timed wake (replay only)
        self.wake_seq = 0
        self.grants = 0  # grants received from the queue (replay only)
        self.last_grant_fs = None


def stepped_train(bus: "Bus", addr, n_words, burst_words, master, tags, word_bytes, words):
    """The rest of a fetch train, burst by burst (generator).

    Per burst it does exactly what ``Bus._transfer`` does (decode,
    arbitration, address phase, the slave call, the data phase, release and
    record, and the same behaviour on errors and on being killed), but the
    state lives in a :class:`_Master`, so a joint window can take over at
    any step and hand back at any step.  Appends the words read to
    ``words`` unless it is None.
    """
    sim = bus.sim
    arbiter = bus.arbiter
    split = bus.protocol == "split"
    content = words is not None
    priority = bus._priorities.get(master, 0)
    d = _Master(master, None, tags)
    sub = None  # the slave call in flight (phase _SLAVE)
    value = None
    settled = False  # a window ended at this very step
    while True:
        if settled:
            settled = False
        elif bus._lookahead and (n_words or d.phase != _ISSUE):
            plan = _plan_window(bus, d, addr, n_words, burst_words, word_bytes)
            if plan is not None:
                if plan.gen_done:
                    # The generator's wake falls inside the window.
                    plan.gen.process._move_timeout(None)
                try:
                    yield SimTime.from_fs(plan.end_fs - sim._now_fs)
                except GeneratorExit:
                    if plan.gen_done:
                        plan.gen.process._move_timeout(plan.gen_start_fs)
                    if d.phase in _HELD and arbiter.owner == master:
                        arbiter.release(master)
                    raise
                addr, n_words = _settle(bus, plan, d, words)
                sub = None
                if d.phase == _SLAVE:
                    # The burst in flight reads on after the window: start
                    # its slave call where the per-burst run has it.
                    sub = (d.slave.read if content else d.slave.read_timing)(d.addr, d.count)
                    next(sub)
                value = None
                settled = True
                continue
        phase = d.phase
        now = sim._now_fs
        if phase == _ISSUE:
            if not n_words:
                return
            d.addr, d.count = addr, min(burst_words, n_words)
            d.issued_fs = now
            d.slave = bus.decode(addr)  # decode errors surface before arbitration
            if arbiter.try_acquire(master):
                d.granted_fs = now
                d.phase = _ADDRESS
                spec = bus.cycles(bus.address_phase_cycles)
            else:
                d.version = bus._map_version
                d.phase = _GRANT
                spec = arbiter.enqueue(master, priority)
        elif phase == _GRANT:
            d.granted_fs = now
            if bus._map_version != d.version:
                d.slave = bus.decode(d.addr)
            d.phase = _ADDRESS
            spec = bus.cycles(bus.address_phase_cycles)
        elif phase == _ADDRESS and split:
            d.phase = _BEAT
            spec = bus.cycles(1)  # request transfer beat
        elif phase == _REGRANT:
            d.phase = _DATA
            spec = bus.cycles(d.count * bus.cycles_per_word)
        elif phase == _DATA:
            if arbiter.owner == master:
                arbiter.release(master)
            bus.monitor.record(
                "read", master, bus._slave_name(d.slave), d.addr, d.count,
                d.issued_fs, d.granted_fs, now, tags, "ok",
            )
            addr += d.count * word_bytes
            n_words -= d.count
            d.phase = _ISSUE
            continue
        else:
            # The slave call: after the address phase (blocking) or the
            # request beat (split, which releases the bus first).
            if phase != _SLAVE:
                if phase == _BEAT:
                    arbiter.release(master)
                sub = (d.slave.read if content else d.slave.read_timing)(d.addr, d.count)
                d.phase = _SLAVE
                value = None
            try:
                spec = sub.send(value)
            except StopIteration as stop:
                sub = None
                if content:
                    words += stop.value
                if split and not arbiter.try_acquire(master):
                    d.phase = _REGRANT
                    spec = arbiter.enqueue(master, priority)
                else:
                    d.phase = _DATA
                    spec = bus.cycles(d.count * bus.cycles_per_word)
            except BaseException:
                # Failed slave calls are recorded too (see Bus._transfer).
                if arbiter.owner == master:
                    arbiter.release(master)
                bus.monitor.record(
                    "read", master, bus._slave_name(d.slave), d.addr, d.count,
                    d.issued_fs, d.granted_fs, sim._now_fs, tags, "error",
                )
                raise
        try:
            value = yield spec
        except GeneratorExit:
            if d.phase in _HELD:
                if sub is not None:
                    sub.close()
                if arbiter.owner == master:
                    arbiter.release(master)
            raise


def _plan_window(bus: "Bus", d: _Master, addr, n_words, burst_words, word_bytes):
    """A joint window from the train's current step, or None.

    Needs exactly one published generator, waiting out a gap; a quiet
    kernel apart from its wake (:meth:`Simulator.quiet_until_fs`); an
    arbiter that nobody waits for, held by nobody or the train, and that
    knows both masters; and two different :class:`Memory` slaves without
    fault hooks, one holding the train's remaining bursts and one the
    generator's whole address window.
    """
    if len(bus._lookahead) != 1:
        return None
    gen = bus._lookahead[0]
    if not gen.between_transactions:
        return None
    wake = gen.process._timeout_action()
    if wake is None:
        return None
    arbiter = bus.arbiter
    master = d.label
    order = arbiter._rr_order
    if (
        arbiter._queue
        or arbiter.owner not in (None, master)
        or master not in order
        or gen.full_name not in order
    ):
        return None
    sim = bus.sim
    limit = sim.quiet_until_fs(past=wake)
    if limit is None or limit <= sim._now_fs:
        return None
    try:
        memory = bus.decode(addr) if d.phase == _ISSUE else d.slave
        gen_memory = bus.decode(gen.base)
    except SimulationError:
        return None  # the per-burst path raises it at the right time
    if (
        not isinstance(memory, Memory)
        or memory.fault_hook is not None
        or memory.word_bytes != word_bytes
        or (d.phase != _ISSUE and d.slave is not memory)
        or gen_memory is memory
        or not isinstance(gen_memory, Memory)
        or gen_memory.fault_hook is not None
        or gen.word_bytes != gen_memory.word_bytes
        or gen.base % gen_memory.word_bytes
        or gen.base + gen.span_bytes - 1 > gen_memory.get_high_add()
    ):
        return None
    if n_words:
        try:
            memory._index(addr, n_words)
        except SimulationError:
            return None
    return _Replay(bus, d, memory, gen, gen_memory).run(
        wake.time_fs, addr, n_words, burst_words, word_bytes, limit
    )


class _JointPlan:
    """What a joint window settles when its one timed wait ends."""

    __slots__ = (
        "memory", "gen", "gen_memory", "gen_start_fs", "end_fs", "state", "reads",
        "gen_done", "records",
    )


class _Replay:
    """The kernel's schedule of the train and the generator, replayed.

    :meth:`run` advances both masters event by event, exactly as the
    per-burst run would, and returns the plan of the last train step at
    which the window may end, or None.
    """

    def __init__(self, bus: "Bus", d: _Master, memory: Memory, gen, gen_memory: Memory):
        self.bus = bus
        self.memory = memory
        self.gen = gen
        self.gen_memory = gen_memory
        order = bus.arbiter._rr_order
        self.train = t = _Master(d.label, memory, d.tags)
        t.phase, t.addr, t.count = d.phase, d.addr, d.count
        t.issued_fs, t.granted_fs = d.issued_fs, d.granted_fs
        t.rr_pos = order.index(d.label)
        self.other = g = _Master(gen.full_name, gen_memory, gen.tags)
        g.rr_pos = order.index(gen.full_name)

    def _times(self, m: _Master) -> None:
        """The slave and data-phase durations of ``m``'s transfer."""
        m.slave_fs = m.slave._burst_time(m.count).femtoseconds
        m.data_fs = self.bus.cycles(m.count * self.bus.cycles_per_word).femtoseconds

    def run(self, gen_wake_fs, addr, n_words, burst_words, word_bytes, limit):
        bus, gen = self.bus, self.gen
        arbiter = bus.arbiter
        split = bus.protocol == "split"
        round_robin = arbiter.policy == "round_robin"
        address_fs = bus.cycles(bus.address_phase_cycles).femtoseconds
        beat_fs = bus.cycles(1).femtoseconds
        d, g = self.train, self.other
        if d.phase != _ISSUE:
            self._times(d)
        g.count = gen.burst_words
        self._times(g)
        full = None
        # The generator's wake was drawn before anything in the window.
        g.phase, g.wake_fs, g.wake_seq = _GAP, gen_wake_fs, 0
        self.gen_start_fs = gen_wake_fs
        seq = 0
        owner = d if arbiter.owner == d.label else None
        waiter = None
        grants, contentions = arbiter.grant_count, arbiter.contention_count
        arb_seq, rr_index = arbiter._seq, arbiter._rr_index
        n_tx = gen.n_transactions
        gen_left = None if n_tx is None else n_tx - gen.issued
        reads: list = []
        records: list = []
        gen_done = 0
        state = None
        now = start = bus.sim._now_fs
        runnable = deque((d,))
        while True:
            # Evaluation: each popped master runs until it suspends.
            while runnable:
                m = runnable.popleft()
                if m is d:
                    if now > start and g.phase == _GAP and g.wake_fs is not None:
                        # The generator waits out a gap: the window may end
                        # here, with the train about to run this step.
                        state = (
                            now, d.phase, d.addr, d.count, d.issued_fs, d.granted_fs,
                            addr, n_words, len(reads), gen_done, len(records), g.wake_fs,
                            owner is d, grants, contentions, arb_seq, rr_index,
                            d.grants, d.last_grant_fs, g.grants, g.last_grant_fs,
                        )
                        if len(records) >= _WINDOW_RECORDS:
                            return self._plan(state, reads, records)
                    if d.phase == _ISSUE and not n_words:
                        return self._plan(state, reads, records)  # the train is done
                elif m.phase == _DATA and gen_done + 1 == gen_left:
                    # Its thread ends after this transfer.
                    return self._plan(state, reads, records)
                while True:
                    phase = m.phase
                    if phase == _ISSUE:
                        if m is d:
                            m.addr = addr
                            m.count = count = min(burst_words, n_words)
                            if count == burst_words:
                                if full is None:
                                    self._times(d)
                                    full = d.slave_fs, d.data_fs
                                m.slave_fs, m.data_fs = full
                            else:
                                self._times(d)
                        else:
                            _, m.addr, payload = gen.peek(gen_done)
                            m.kind = "read" if payload is None else "write"
                        m.issued_fs = now
                        if owner is None and waiter is None:
                            owner = m
                            grants += 1
                            m.granted_fs = now
                            seq += 1
                            m.phase, m.wake_fs, m.wake_seq = _ADDRESS, now + address_fs, seq
                        else:
                            contentions += 1
                            arb_seq += 1
                            waiter = m
                            m.phase = _GRANT
                        break
                    if phase == _GRANT:
                        m.granted_fs = now
                        seq += 1
                        m.phase, m.wake_fs, m.wake_seq = _ADDRESS, now + address_fs, seq
                        break
                    if phase == _ADDRESS:
                        seq += 1
                        if split:
                            m.phase, m.wake_fs, m.wake_seq = _BEAT, now + beat_fs, seq
                        else:
                            m.phase, m.wake_fs, m.wake_seq = _SLAVE, now + m.slave_fs, seq
                        break
                    if phase == _SLAVE:
                        if m is d:
                            reads.append((m.addr, m.count))
                        if split:
                            if owner is not None or waiter is not None:
                                contentions += 1
                                arb_seq += 1
                                waiter = m
                                m.phase = _REGRANT
                                break
                            owner = m
                            grants += 1
                        phase = _REGRANT
                    if phase == _REGRANT:
                        seq += 1
                        m.phase, m.wake_fs, m.wake_seq = _DATA, now + m.data_fs, seq
                        break
                    if phase == _GAP:
                        m.phase = _ISSUE
                        continue
                    # _BEAT or _DATA: the master releases the bus.
                    owner = None
                    if waiter is not None:
                        owner, waiter = waiter, None
                        grants += 1
                        if round_robin:
                            rr_index = owner.rr_pos
                        owner.grants += 1
                        owner.last_grant_fs = now
                        runnable.append(owner)
                    if phase == _BEAT:
                        seq += 1
                        m.phase, m.wake_fs, m.wake_seq = _SLAVE, now + m.slave_fs, seq
                        break
                    records.append((
                        m.kind, m.label, m.slave.full_name, m.addr, m.count,
                        m.issued_fs, m.granted_fs, now, m.tags, "ok",
                    ))
                    if m is d:
                        addr += m.count * word_bytes
                        n_words -= m.count
                        m.phase = _ISSUE
                        break  # runs on at once: _ISSUE is checked on the next pop
                    gen_done += 1
                    gap = gen.peek(gen_done)[0]
                    if gap is None:
                        m.phase = _ISSUE
                        continue
                    seq += 1
                    m.phase, m.wake_fs, m.wake_seq = _GAP, now + gap.femtoseconds, seq
                    break
                if m is d and d.phase == _ISSUE and d.wake_fs is None:
                    runnable.appendleft(d)  # the train issues its next burst now
            # Timed notification: the earliest wake, then the other one if
            # it falls on the same instant.
            first, second = d, g
            if d.wake_fs is None or (
                g.wake_fs is not None and (g.wake_fs, g.wake_seq) < (d.wake_fs, d.wake_seq)
            ):
                first, second = g, d
            now = first.wake_fs
            if now is None or now > limit:
                return self._plan(state, reads, records)
            first.wake_fs = None
            runnable.append(first)
            if second.wake_fs == now:
                second.wake_fs = None
                runnable.append(second)

    def _plan(self, state, reads, records) -> Optional[_JointPlan]:
        if state is None:
            return None
        plan = _JointPlan()
        plan.memory = self.memory
        plan.gen = self.gen
        plan.gen_memory = self.gen_memory
        plan.gen_start_fs = self.gen_start_fs
        plan.end_fs = state[0]
        plan.state = state
        plan.reads = reads[: state[8]]
        plan.gen_done = state[9]
        plan.records = records[: state[10]]
        return plan


def _settle(bus: "Bus", plan: _JointPlan, d: _Master, words):
    """Apply a finished joint window; returns the train's next ``(addr, n_words)``."""
    (_, d.phase, d.addr, d.count, d.issued_fs, d.granted_fs, addr, n_words, _, gen_done,
     _, gen_wake_fs, owner_is_train, grants, contentions, arb_seq, rr_index,
     d_grants, d_last, g_grants, g_last) = plan.state
    d.slave = memory = plan.memory
    content = words is not None
    for read_addr, count in plan.reads:
        data = memory._settle_read(read_addr, count, content)
        if content:
            words += data
    gen, gen_memory = plan.gen, plan.gen_memory
    count = gen.burst_words
    for i in range(gen_done):
        _, gen_addr, payload = gen.peek(i)
        if payload is None:
            gen_memory._settle_read(gen_addr, count, False)
        else:
            gen_memory._settle_write(gen_addr, payload)
    record = bus.monitor.record
    for entry in plan.records:
        record(*entry)
    arbiter = bus.arbiter
    arbiter.grant_count, arbiter.contention_count = grants, contentions
    arbiter._seq, arbiter._rr_index = arb_seq, rr_index
    arbiter.owner = d.label if owner_is_train else None
    for label, n, last_fs in ((d.label, d_grants, d_last), (gen.full_name, g_grants, g_last)):
        if n:
            event = arbiter._grant_pool.get(label)
            if event is None:
                event = arbiter._grant_pool[label] = Event(
                    bus.sim, f"{arbiter.name}.grant.{label}"
                )
            event._trigger_count += n
            event._last_trigger_fs = last_fs
    if gen_done:
        gen.consume(gen_done)
        gen.process._move_timeout(gen_wake_fs, gen.peek(0)[0])
    return addr, n_words
