"""A SystemC-2.0-like discrete-event simulation kernel in pure Python.

This package is the substrate the reproduction rests on: the paper models
dynamically reconfigurable hardware *in SystemC 2.0 with no language
extensions*, so we provide the corresponding kernel facilities —
hierarchical modules, ports bound to interfaces (port-to-port chaining
plays the role of ``sc_export``), events with immediate/delta/timed
notification, signals with evaluate/update semantics, coroutine thread
processes and callback method processes, pausable clocks, blocking
channels, fixed-width datatypes, waveform tracing and deadlock/watchdog
post-mortems.

Quick tour::

    from repro.kernel import Simulator, Module, Signal, ns

    class Ping(Module):
        def __init__(self, name, sim):
            super().__init__(name, sim=sim)
            self.count = 0
            self.add_thread(self.run)

        def run(self):
            while True:
                yield ns(10)
                self.count += 1

    sim = Simulator()
    ping = Ping("ping", sim)
    sim.run(until=ns(100))
    assert ping.count == 10
"""

from .channels import Fifo, Mutex, Semaphore
from .datatypes import BitVector, saturate_signed, sint, uint
from .deadlock import BlockedProcess, DeadlockReport, diagnose, watchdog_report
from .errors import (
    BindingError,
    DeadlockError,
    ElaborationError,
    KernelError,
    ProcessError,
    SchedulingError,
    SimulationError,
)
from .event import Event, events_of
from .module import Module, processes_of
from .ports import Interface, Port, implemented_interfaces, ports_of
from .process import TIMEOUT, AllOf, AnyOf, MethodProcess, ProcessState, ThreadProcess
from .signal import Clock, Signal, signals_of
from .simtime import ZERO_TIME, SimTime, cycles_to_time, fs, ms, ns, ps, sec, us
from .simulator import Simulator, SimulatorStats, TimedAction
from .tracing import TimelineRecorder, VcdTracer

__all__ = [
    "AllOf",
    "AnyOf",
    "BindingError",
    "BitVector",
    "BlockedProcess",
    "Clock",
    "DeadlockError",
    "DeadlockReport",
    "ElaborationError",
    "Event",
    "Fifo",
    "Interface",
    "KernelError",
    "MethodProcess",
    "Module",
    "Mutex",
    "Port",
    "ProcessError",
    "ProcessState",
    "SchedulingError",
    "Semaphore",
    "Signal",
    "SimTime",
    "SimulationError",
    "Simulator",
    "SimulatorStats",
    "ThreadProcess",
    "TimedAction",
    "TimelineRecorder",
    "TIMEOUT",
    "VcdTracer",
    "ZERO_TIME",
    "cycles_to_time",
    "diagnose",
    "events_of",
    "fs",
    "implemented_interfaces",
    "ms",
    "ns",
    "ports_of",
    "processes_of",
    "ps",
    "saturate_signed",
    "sec",
    "signals_of",
    "sint",
    "uint",
    "us",
    "watchdog_report",
]
