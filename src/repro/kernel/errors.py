"""Exception hierarchy for the simulation kernel.

All kernel-raised errors derive from :class:`KernelError` so callers can
catch simulation problems without masking ordinary Python bugs in user
models.  Errors raised *inside* a user process are re-raised wrapped in
:class:`ProcessError` with the process name attached, so a failing model is
attributable even in large hierarchies.
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for all simulation-kernel errors."""


class ElaborationError(KernelError):
    """Raised for structural problems detected while building the model.

    Examples: binding a port twice, instantiating a module without a
    simulator, registering two children under the same name.
    """


class BindingError(ElaborationError):
    """Raised when a port/interface binding is missing or ill-typed."""


class SimulationError(KernelError):
    """Raised for problems detected while the simulation is running."""


class ProcessError(SimulationError):
    """Wraps an exception escaping a user process.

    Attributes
    ----------
    process_name:
        Hierarchical name of the process whose body raised.
    """

    def __init__(self, process_name: str, message: str) -> None:
        super().__init__(f"process '{process_name}': {message}")
        self.process_name = process_name


class SchedulingError(SimulationError):
    """Raised for illegal scheduling requests (e.g. negative delays)."""


class DeadlockError(SimulationError):
    """Raised when the kernel is asked to treat starvation as an error.

    The kernel itself never raises this spontaneously; see
    :meth:`repro.kernel.simulator.Simulator.run` with ``error_on_deadlock``
    and :mod:`repro.kernel.deadlock` for diagnosis helpers.
    """
