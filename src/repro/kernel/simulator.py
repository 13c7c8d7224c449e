"""The discrete-event scheduler.

Implements the SystemC 2.0 scheduling algorithm:

1. *Evaluation phase*: run every runnable process.  Immediate notifications
   make further processes runnable within the same phase.
2. *Update phase*: apply pending primitive-channel updates (e.g. committed
   signal writes), which may post delta notifications.
3. *Delta notification phase*: fire pending delta notifications; if any
   process became runnable, start a new delta cycle at the same time.
4. *Timed notification phase*: otherwise advance simulated time to the
   earliest pending timed action and fire everything scheduled there.

The scheduler is fully deterministic: runnable processes execute in FIFO
order of becoming runnable, timed actions in (time, insertion sequence)
order, and update/delta queues in insertion order.

Hot-path design notes: every per-event cost here is O(1).  Update-queue
dedup uses the channels' ``_update_requested`` flag (the update-request
protocol) instead of a membership scan; cancelled delta notifications
leave stale queue entries that the events skip on pop (see
:mod:`repro.kernel.event`); and the current time is kept both as an
integer femtosecond count (for arithmetic) and as a cached
:class:`SimTime` (for observation) so the inner loop never re-wraps it.

``trace_hooks`` fire once per *finished instant* — after the last delta
cycle at a timestamp has settled and before time advances — so delta-only
activity (e.g. everything happening at t=0) is traced too.  Activity a
hook itself injects runs at the same instant but does not re-fire the
hooks: "once per finished instant" is a hard guarantee, and the injected
effects are visible when the hooks fire at the next instant.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque
from typing import Callable, Dict, List, Optional

from .deadlock import watchdog_report
from .errors import DeadlockError, ElaborationError, SchedulingError
from .event import Event
from .process import Process, ProcessState, ThreadProcess
from .simtime import SimTime, ZERO_TIME


class TimedAction:
    """A cancellable callback scheduled at an absolute simulation time."""

    __slots__ = ("time_fs", "seq", "callback", "cancelled")

    def __init__(self, time_fs: int, seq: int, callback: Callable[[], None]) -> None:
        self.time_fs = time_fs
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (the heap entry is skipped)."""
        self.cancelled = True

    def __lt__(self, other: "TimedAction") -> bool:
        return (self.time_fs, self.seq) < (other.time_fs, other.seq)


class SimulatorStats:
    """Bookkeeping counters exposed by :attr:`Simulator.stats`."""

    __slots__ = (
        "process_executions",
        "delta_cycles",
        "timed_activations",
        "signal_updates",
    )

    def __init__(self) -> None:
        self.process_executions = 0
        self.delta_cycles = 0
        self.timed_activations = 0
        self.signal_updates = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dictionary (for reports)."""
        return {
            "process_executions": self.process_executions,
            "delta_cycles": self.delta_cycles,
            "timed_activations": self.timed_activations,
            "signal_updates": self.signal_updates,
        }


class Simulator:
    """Owns the event queues, the module hierarchy, and the clock of record.

    Typical use::

        sim = Simulator()
        top = MySoc("top", sim=sim)
        sim.run(until=us(100))
    """

    def __init__(self, name: str = "sim") -> None:
        self.name = name
        self._now_fs = 0
        self._now_obj = ZERO_TIME  # cached SimTime mirror of _now_fs
        self._running = False
        self._started = False
        self._stop_requested = False
        self._seq = 0
        self._runnable: deque = deque()
        self._timed_heap: List[TimedAction] = []
        self._delta_events: List[Event] = []
        self._update_queue: List[object] = []
        self._processes: List[Process] = []
        self._top_modules: List[object] = []
        self._end_of_elaboration_hooks: List[Callable[[], None]] = []
        self.stats = SimulatorStats()
        #: Called with the current time once per finished instant (after the
        #: last delta cycle at that timestamp, before time advances).
        self.trace_hooks: List[Callable[[SimTime], None]] = []
        #: True when the last run was stopped by the wall-clock watchdog.
        self.watchdog_fired = False
        #: Post-mortem attached by the watchdog: a
        #: :class:`~repro.kernel.deadlock.DeadlockReport` once it trips.
        self.watchdog_report = None
        #: The process being executed by the evaluation phase right now
        #: (None between processes and outside run()).  Lets channel hooks
        #: — e.g. :attr:`Signal.write_hook` — attribute an action to the
        #: process that performed it.
        self.current_process: Optional[Process] = None
        # Latest femtosecond the running ``run()`` may reach (its ``until``
        # bound, ``math.inf`` without one); None outside a run.  Read by
        # :meth:`quiet_until_fs`.
        self._decoupling_cap = None

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        """Current simulated time.

        Lazily cached: the scheduler advances the integer ``_now_fs`` only,
        and the :class:`SimTime` wrapper is built at most once per instant,
        on first observation.
        """
        now = self._now_obj
        if now._fs != self._now_fs:
            now = self._now_obj = SimTime.from_fs(self._now_fs)
        return now

    @property
    def delta_count(self) -> int:
        """Total delta cycles executed so far."""
        return self.stats.delta_cycles

    # -- construction -------------------------------------------------------
    def event(self, name: str = "event") -> Event:
        """Create a kernel event owned by this simulator."""
        return Event(self, name)

    def register_top(self, module: object) -> None:
        """Record a top-level module (called by :class:`Module`)."""
        self._top_modules.append(module)

    def register_process(self, process: Process) -> None:
        self._processes.append(process)
        if self._started:
            process.start()

    def spawn(self, name: str, fn: Callable[[], object], daemon: bool = False) -> ThreadProcess:
        """Create (and, if the simulation has started, start) a thread process."""
        process = ThreadProcess(self, name, fn)
        process.daemon = daemon
        self.register_process(process)
        return process

    def add_end_of_elaboration_hook(self, hook: Callable[[], None]) -> None:
        """Register a callable run once, just before the first evaluation."""
        if self._started:
            raise ElaborationError("simulation already started")
        self._end_of_elaboration_hooks.append(hook)

    # -- kernel-internal scheduling hooks -------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _make_runnable(self, process: Process) -> None:
        self._runnable.append(process)

    def _schedule_timed_fs(self, time_fs: int, callback: Callable[[], None]) -> TimedAction:
        if time_fs < self._now_fs:
            raise SchedulingError("cannot schedule in the past")
        self._seq += 1
        action = TimedAction(time_fs, self._seq, callback)
        heapq.heappush(self._timed_heap, action)
        return action

    def schedule(self, delay: SimTime, callback: Callable[[], None]) -> TimedAction:
        """Schedule ``callback`` to run ``delay`` from now (kernel context)."""
        return self._schedule_timed_fs(self._now_fs + delay.femtoseconds, callback)

    def _enqueue_update(self, channel: object) -> None:
        """Set a channel's update-request flag and queue it (no dedup check).

        The single writer of the flag protocol: callers —
        :meth:`request_update` and flag-carrying channels such as
        :class:`~repro.kernel.Signal` — test ``_update_requested`` first
        and delegate here, so the set-flag-and-append step exists exactly
        once.
        """
        channel._update_requested = True  # type: ignore[attr-defined]
        self._update_queue.append(channel)

    def request_update(self, channel: object) -> None:
        """Queue a primitive channel for the next update phase (idempotent).

        ``channel`` must expose an ``_update()`` method.  Channels
        implementing the update-request protocol carry an
        ``_update_requested`` flag, making the dedup O(1); the flag is set
        here (or by the channel itself) and cleared by the update phase
        just before ``_update()`` runs.  Flagless objects (e.g. with
        ``__slots__``) fall back to a queue membership scan — by identity,
        not ``__eq__``: two distinct channels that happen to compare equal
        must still both be updated.
        """
        flag = getattr(channel, "_update_requested", None)
        if flag:
            return
        if flag is None:
            try:
                self._enqueue_update(channel)
            except AttributeError:
                if any(queued is channel for queued in self._update_queue):
                    return
                self._update_queue.append(channel)
        else:
            self._enqueue_update(channel)

    def _process_terminated(self, process: Process) -> None:
        # Kept in the list for post-mortem inspection; nothing to do here.
        pass

    # -- running --------------------------------------------------------------
    def initialize(self) -> None:
        """Run end-of-elaboration hooks and make all processes runnable."""
        if self._started:
            return
        self._started = True
        for hook in self._end_of_elaboration_hooks:
            hook()
        for process in self._processes:
            process.start()

    def stop(self) -> None:
        """Request the scheduler to stop after the current process returns."""
        self._stop_requested = True

    def run(
        self,
        until: Optional[SimTime] = None,
        *,
        max_deltas_per_instant: int = 100_000,
        error_on_deadlock: bool = False,
        max_wall_s: Optional[float] = None,
    ) -> SimTime:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this duration (measured
            from time zero, like ``sc_start``).  ``None`` runs to event
            starvation.
        max_deltas_per_instant:
            Guard against non-advancing delta loops (combinational cycles).
        error_on_deadlock:
            If true and the run ends by starvation while thread processes
            are still blocked, raise :class:`DeadlockError`.
        max_wall_s:
            Wall-clock watchdog: stop the run (instead of hanging forever)
            once this many real seconds have elapsed, setting
            :attr:`watchdog_fired` and attaching a post-mortem to
            :attr:`watchdog_report`.  Livelocks the simulated-time bound
            cannot catch — unbounded polling loops, runaway traffic
            generators — terminate cleanly this way.  ``None`` (the
            default) disables the check entirely.

        Returns the simulation time at which the run stopped.
        """
        if self._running:
            raise SchedulingError("run() is not reentrant")
        self.initialize()
        self._running = True
        self._stop_requested = False
        self.watchdog_fired = False
        wall_deadline = (
            time.monotonic() + max_wall_s if max_wall_s is not None else None
        )
        until_fs = until.femtoseconds if until is not None else None
        self._decoupling_cap = math.inf if until_fs is None else until_fs
        deltas_this_instant = 0
        instant_active = False  # anything happened at the current instant?
        hooks_fired = False  # trace hooks already ran at the current instant?
        runnable = self._runnable
        timed_heap = self._timed_heap
        stats = self.stats
        heappush, heappop = heapq.heappush, heapq.heappop
        try:
            while not self._stop_requested:
                # Evaluation phase.
                executed = False
                while runnable:
                    process = runnable.popleft()
                    executed = True
                    stats.process_executions += 1
                    self.current_process = process
                    process._execute()
                    if (
                        wall_deadline is not None
                        and (stats.process_executions & 0xFF) == 0
                        and time.monotonic() >= wall_deadline
                    ):
                        self._trip_watchdog(max_wall_s)
                    if self._stop_requested:
                        break
                if self._stop_requested:
                    break
                if executed:
                    instant_active = True
                # Update phase.
                if self._update_queue:
                    instant_active = True
                    updates, self._update_queue = self._update_queue, []
                    for channel in updates:
                        stats.signal_updates += 1
                        try:
                            channel._update_requested = False  # type: ignore[attr-defined]
                        except AttributeError:
                            pass  # flagless channel (scan-deduped)
                        channel._update()  # type: ignore[attr-defined]
                # Delta notification phase.
                if self._delta_events:
                    instant_active = True
                    events, self._delta_events = self._delta_events, []
                    for event in events:
                        event._delta_fire()
                if runnable:
                    stats.delta_cycles += 1
                    deltas_this_instant += 1
                    if deltas_this_instant > max_deltas_per_instant:
                        raise SchedulingError(
                            f"more than {max_deltas_per_instant} delta cycles at "
                            f"time {self.now}; combinational loop?"
                        )
                    continue
                if self._update_queue or self._delta_events:
                    # Updates/deltas may still be pending even without
                    # runnable processes; loop again before advancing time.
                    continue
                # The instant has settled: trace it, then advance time.
                if instant_active:
                    instant_active = False
                    if self.trace_hooks and not hooks_fired:
                        # Once per finished instant: activity a hook injects
                        # re-settles at this instant but is NOT re-traced
                        # (its effects are visible at the next firing).
                        hooks_fired = True
                        now_obj = self.now
                        for hook in self.trace_hooks:
                            hook(now_obj)
                        if runnable or self._update_queue or self._delta_events:
                            continue  # a hook injected activity at this instant
                # Timed notification phase.
                deltas_this_instant = 0
                if (
                    wall_deadline is not None
                    and (stats.timed_activations & 0xFF) == 0
                    and time.monotonic() >= wall_deadline
                ):
                    self._trip_watchdog(max_wall_s)
                    break
                next_action = self._pop_next_timed()
                if next_action is None:
                    break  # starvation
                if until_fs is not None and next_action.time_fs > until_fs:
                    heappush(timed_heap, next_action)
                    self._now_fs = until_fs
                    break
                self._now_fs = now_fs = next_action.time_fs
                hooks_fired = False
                stats.timed_activations += 1
                instant_active = True
                next_action.callback()
                # Fire everything else scheduled at the same instant.
                while timed_heap and timed_heap[0].time_fs == now_fs:
                    action = heappop(timed_heap)
                    if action.cancelled:
                        continue
                    stats.timed_activations += 1
                    action.callback()
        finally:
            self._running = False
            self._decoupling_cap = None
            self.current_process = None
        if error_on_deadlock and not self._stop_requested:
            blocked = self.blocked_processes()
            if blocked:
                names = ", ".join(p.name for p in blocked)
                raise DeadlockError(
                    f"simulation starved at {self.now} with blocked processes: {names}"
                )
        return self.now

    def quiet_until_fs(self, past: Optional[TimedAction] = None) -> Optional[float]:
        """How far the running process may advance time with nothing else acting.

        The temporal-decoupling query behind the bus's coalesced
        configuration fetch.  Returns None unless the simulation is quiet
        apart from the caller: no other process runnable, no update or
        delta notification pending, no stop requested, no trace hook
        attached, and a ``run()`` in progress.  When quiet, returns the
        latest femtosecond that lies strictly before the earliest pending
        timed action and not past the run's ``until`` bound (``math.inf``
        when neither exists): a single timed wait ending there is
        indistinguishable from any sequence of waits ending there.

        ``past`` names one pending action to look past: the wake of a
        bus master whose behaviour the caller predicts (see
        :meth:`repro.bus.Bus.publish_master`).

        A wall-clock watchdog does not matter: it stops a run only between
        two process executions or before a timed action fires.  The
        caller's wait is the next timed action, so a trip leaves the run at
        the instant the wait started, which a sequence of waits passes
        through too, and a resumed ``run()`` continues identically.
        Read-only; O(1).
        """
        cap = self._decoupling_cap
        if (
            cap is None
            or self._runnable
            or self._update_queue
            or self._delta_events
            or self._stop_requested
            or self.trace_hooks
        ):
            return None
        heap = self._timed_heap
        if heap:
            first = heap[0]
            if first is past:
                # The next action is one of the root's children.
                first = min(heap[1:3], default=None)
            # A cancelled entry here only makes the bound tighter.
            if first is not None and first.time_fs <= cap:
                return first.time_fs - 1
        return cap

    def _trip_watchdog(self, max_wall_s: float) -> None:
        """Stop the run: the wall-clock budget is exhausted.

        Attaches a post-mortem (:func:`repro.kernel.deadlock.watchdog_report`).
        """
        self.watchdog_fired = True
        self._stop_requested = True
        self.watchdog_report = watchdog_report(self, max_wall_s)

    def _pop_next_timed(self) -> Optional[TimedAction]:
        timed_heap = self._timed_heap
        while timed_heap:
            action = heapq.heappop(timed_heap)
            if not action.cancelled:
                return action
        return None

    # -- diagnosis ---------------------------------------------------------------
    def blocked_processes(self) -> List[Process]:
        """Thread processes currently suspended on a wait.

        After a run ends by starvation, any entry here whose wait is not a
        timeout indicates a process that can never resume — the raw material
        for deadlock analysis (:mod:`repro.kernel.deadlock`).
        """
        return [
            p
            for p in self._processes
            if isinstance(p, ThreadProcess) and p.state is ProcessState.WAITING
        ]

    def pending_timed_count(self) -> int:
        """Number of not-yet-cancelled timed actions still queued."""
        return sum(1 for a in self._timed_heap if not a.cancelled)

    def __repr__(self) -> str:
        return f"Simulator({self.name!r}, now={self.now})"
