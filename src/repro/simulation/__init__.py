"""Discrete-event simulation of UML models (subsystem S10).

A compact event-wheel kernel with coroutine processes, RTL-style
signals/clocks/waveforms, and the cosimulation harness that executes a
component assembly's state machines over one scheduler.
"""

from .kernel import (
    OVERFLOW_POLICIES,
    ProcessHandle,
    SimEvent,
    Simulator,
    Timeout,
)
from .signals import Clock, SimSignal, Waveform
from .cosim import PartInstance, SystemSimulation
from .supervisor import SUPERVISOR_ACTIONS, Supervisor
from .vcd import dump_vcd, write_vcd

__all__ = [
    "OVERFLOW_POLICIES", "ProcessHandle", "SimEvent", "Simulator", "Timeout",
    "Clock", "SimSignal", "Waveform",
    "PartInstance", "SystemSimulation",
    "SUPERVISOR_ACTIONS", "Supervisor",
    "dump_vcd", "write_vcd",
]
