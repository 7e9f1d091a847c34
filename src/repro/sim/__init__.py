"""Discrete-event execution simulator.

The simulator executes a task graph on a machine under an online
:class:`~repro.schedulers.base.SchedulingPolicy`, reproducing the measurement
setup of the paper: assignment epochs at time zero and whenever a processor
becomes idle, message latencies following equation 4, optional per-link
contention with store-and-forward hops, and full execution traces from which
speedups (Table 2) and Gantt charts (Figure 2) are derived.

Three engines implement the same semantics, bit for bit: the object engine
(:mod:`repro.sim.engine`) is the readable reference; the compiled fast
engine (:mod:`repro.sim.compile` + :mod:`repro.sim.fast_engine`) runs one
scenario in index space at both fidelities, traces included, and
:class:`Simulator` dispatches to it automatically; the lane engine
(:func:`repro.sim.batch_engine.run_lanes`) runs a group of compiled cells,
stepping latency lanes with a batched policy kernel in lock step and the
rest through :func:`run_compiled`.  Four public functions run a simulation:
:class:`Simulator`, :func:`simulate`, :func:`run_compiled` and ``run_lanes``.
"""

from repro.sim.events import EventQueue, Event
from repro.sim.message import MessageRecord
from repro.sim.trace import TaskRecord, OverheadRecord, ExecutionTrace
from repro.sim.results import SimulationResult
from repro.sim.compile import CompiledScenario, FastPacket, compile_scenario, supports_comm_model
from repro.sim.fast_engine import run_compiled
from repro.sim.engine import Simulator, simulate
from repro.sim.gantt import render_gantt

__all__ = [
    "CompiledScenario",
    "FastPacket",
    "compile_scenario",
    "supports_comm_model",
    "run_compiled",
    "EventQueue",
    "Event",
    "MessageRecord",
    "TaskRecord",
    "OverheadRecord",
    "ExecutionTrace",
    "SimulationResult",
    "Simulator",
    "simulate",
    "render_gantt",
]
