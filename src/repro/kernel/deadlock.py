"""Deadlock diagnosis (paper Section 5.4, limitation 3).

"The interface methods must be non-blocking or must support split
transactions if the context memory bus is the same as the interface bus of
the components.  If this is not the case, a data transfer to a component in
DRCF would block the bus until the transfer is completed and the DRCF could
not load a new context, since the bus is already blocked.  This results in
deadlock of the bus."

After a run ends by starvation, :func:`diagnose` inspects the kernel's
blocked processes and the bus arbiter's ownership/wait queues to decide
whether the system deadlocked and to reconstruct the wait-for chain for the
report — experiment E7 reproduces exactly the paper's condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:
    from ..bus import Bus
    from .simulator import Simulator

#: The code of the limitation-3 (blocking-bus deadlock) precondition rule
#: of the static lint (:mod:`repro.analysis.lint`).  Reports cross-reference
#: it so a post-mortem points back at the static check that would have
#: caught the architecture before any simulation ran.
DEADLOCK_RULE_CODE = "REP310"

#: The code of the interprocedural wait-for-cycle rule (REP601): the
#: *live-design* sharpening of :data:`DEADLOCK_RULE_CODE`, proven on the
#: elaborated hierarchy (binding chains, live bus protocol, registered
#: slaves) rather than on netlist specs.  Reports cross-reference both.
STATIC_DEADLOCK_RULE_CODE = "REP601"


@dataclass
class BlockedProcess:
    """One process stuck at starvation time."""

    name: str
    waiting_on: str


@dataclass
class DeadlockReport:
    """Outcome of a deadlock diagnosis."""

    deadlocked: bool
    blocked: List[BlockedProcess] = field(default_factory=list)
    chains: List[str] = field(default_factory=list)
    #: The static lint rules that flag this failure mode pre-simulation;
    #: rendered in the report so a post-mortem points back at the checks
    #: that would have caught the architecture without running anything.
    #: ``static_rule`` is the netlist-spec precondition; ``interproc_rule``
    #: is its interprocedural twin, proving the wait-for cycle on the live
    #: elaborated design (``lint --interproc``).
    static_rule: str = DEADLOCK_RULE_CODE
    interproc_rule: str = STATIC_DEADLOCK_RULE_CODE
    #: True when the run was cut short by ``Simulator.run(max_wall_s=...)``
    #: rather than ending by event starvation; ``wall_s`` is the budget
    #: that expired.
    watchdog: bool = False
    wall_s: Optional[float] = None

    def render(self) -> str:
        """Human-readable report."""
        if self.watchdog:
            lines = [
                f"WATCHDOG: run stopped after {self.wall_s:g}s wall-clock "
                "without finishing (hang / livelock)"
            ]
            for item in self.blocked:
                lines.append(f"  process {item.name} waiting on {item.waiting_on}")
            for chain in self.chains:
                lines.append(f"  wait-for: {chain}")
            lines.append(
                f"  note: static lint rules {self.static_rule} and "
                f"{self.interproc_rule} flag the bus-deadlock architecture "
                "before simulation (python -m repro lint --interproc)"
            )
            return "\n".join(lines)
        if not self.deadlocked:
            return "no deadlock: simulation completed without stuck processes"
        lines = ["DEADLOCK detected:"]
        for item in self.blocked:
            lines.append(f"  process {item.name} waiting on {item.waiting_on}")
        for chain in self.chains:
            lines.append(f"  wait-for: {chain}")
        lines.append(
            f"  note: static lint rules {self.static_rule} and "
            f"{self.interproc_rule} flag this architecture before "
            "simulation (python -m repro lint --interproc)"
        )
        return "\n".join(lines)


def diagnose(sim: Simulator, buses: Sequence[Bus] = ()) -> DeadlockReport:
    """Inspect a starved simulation for deadlock.

    A process blocked on a pure timeout is merely early termination of the
    run; a process waiting on an event with no pending timed activity is
    permanently stuck.  When the supplied buses' arbiters are held while
    other requesters queue, the ownership edge is rendered as a wait-for
    chain (``waiter -> owner``) — the signature of the Section 5.4 bus
    deadlock is the DRCF queued behind the very master whose transfer it
    is servicing.
    """
    blocked: List[BlockedProcess] = []
    for process in sim.blocked_processes():
        if process.daemon:
            continue  # server loops are expected to wait forever
        description = process.wait_description or "?"
        if description.startswith("timeout"):
            continue  # would have resumed had the run continued
        blocked.append(BlockedProcess(name=process.name, waiting_on=description))
    chains: List[str] = []
    for bus in buses:
        arbiter = bus.arbiter
        if arbiter.busy and arbiter.waiters:
            for waiter in arbiter.waiters:
                chains.append(
                    f"{waiter} -> {arbiter.owner} (bus {bus.full_name} held)"
                )
    deadlocked = bool(blocked) and sim.pending_timed_count() == 0
    return DeadlockReport(deadlocked=deadlocked, blocked=blocked, chains=chains)


def watchdog_report(sim: Simulator, wall_s: float) -> DeadlockReport:
    """Post-mortem for a run tripped by the wall-clock watchdog.

    Called by the kernel when ``Simulator.run(max_wall_s=...)`` expires.
    Unlike :func:`diagnose` this runs on a *stopped*, not starved,
    simulation: processes parked on timeouts are still listed because in a
    livelock the timeouts are exactly what keeps the hang alive.
    """
    blocked = [
        BlockedProcess(name=p.name, waiting_on=p.wait_description or "?")
        for p in sim.blocked_processes()
        if not p.daemon
    ]
    return DeadlockReport(
        deadlocked=False, blocked=blocked, watchdog=True, wall_s=wall_s
    )
