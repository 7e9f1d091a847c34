"""The discrete-event execution engine.

The engine reproduces the measurement setup of the paper's §6: a program
(directed task graph) is executed on a multicomputer (machine) under an
online scheduling policy.  Assignment epochs occur at time zero and whenever
one or more processors become idle; at each epoch the policy maps ready tasks
onto idle processors; data produced by a task on another processor reaches
its consumer after the equation-4 communication delay.

Two fidelities are available:

* ``"latency"`` (default) — every inter-processor message is charged the
  equation-4 effective cost as a pure latency.  Links never queue and
  overheads do not occupy processors.  This is the model the SA cost function
  assumes, so optimizer and simulator agree exactly.
* ``"contention"`` — messages are forwarded hop by hop (store-and-forward);
  each link carries one message at a time, the sender is busy for σ, every
  intermediate processor is busy for τ per routed message, and a processor
  cannot start a new task while it is busy with communication overheads.
  This richer model is used for the Gantt chart of Figure 2 and the fidelity
  ablation benchmark.

Because a task only becomes ready when all its predecessors have finished,
all message timings are computable at assignment time, which keeps the event
set small (task completions only) and the runs fast and deterministic.  The
ready set is maintained incrementally — a task is inserted when its
unfinished-predecessor count decrements to zero and removed when it is
assigned — so an epoch costs O(ready) rather than O(all tasks).

Heterogeneous machines are charged consistently in both fidelities: a task
of base duration ``D`` runs for ``D / speed`` on a processor of speed factor
``speed``, latency messages pay the weighted-distance volume through the
communication model, and contention messages occupy each link for ``w_ij *
link_weight``.  With the default unit speeds and weights every charge is
bit-for-bit identical to the homogeneous engine.

This module is the *object* engine — the readable reference implementation
and the differential oracle of the equivalence tests.  Runs without trace
recording (both fidelities) are dispatched automatically to the compiled
index-space fast engine (:mod:`repro.sim.compile` +
:mod:`repro.sim.fast_engine`), which is proven bit-for-bit identical; see
the ``fast`` parameter of :class:`Simulator`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from types import MappingProxyType
from typing import Dict, Hashable, List, Optional, Tuple

from repro.comm.model import CommunicationModel, LinearCommModel
from repro.exceptions import EngineFallbackError, SimulationError
from repro.machine.machine import Machine
from repro.schedulers.base import PacketContext, SchedulingPolicy, validate_assignment
from repro.sim.compile import compile_scenario, supports_comm_model
from repro.sim.events import EventQueue, TASK_FINISH
from repro.sim.fast_engine import FIDELITIES, run_compiled
from repro.sim.message import MessageRecord
from repro.sim.results import SimulationResult
from repro.sim.trace import ExecutionTrace, OverheadRecord, TaskRecord
from repro.taskgraph.graph import TaskGraph

__all__ = ["Simulator", "simulate"]

TaskId = Hashable
ProcId = int


class Simulator:
    """Simulate the execution of *graph* on *machine* under *policy*.

    Parameters
    ----------
    graph:
        The directed task graph to execute.  Validated before the run.
    machine:
        The target machine.
    policy:
        The online scheduling policy (SA, HLF, ...).  Its :meth:`reset` method
        is called before every run.
    comm_model:
        Communication model; defaults to the full equation-4 model.  Pass a
        :class:`~repro.comm.model.ZeroCommModel` for the "w/o comm" runs.
    fidelity:
        ``"latency"`` or ``"contention"`` (see module docstring).
    record_trace:
        Keep the full execution trace (task intervals, messages, overheads).
        Disable for large statistical benchmarks to save memory.
    fast:
        Engine selection.  ``None`` (default) dispatches runs without trace
        recording — both fidelities — to the compiled index-space engine
        (:mod:`repro.sim.fast_engine`) whenever the communication model is
        foldable, and uses the object engine otherwise — the two are proven
        bit-for-bit identical, so the choice is invisible.  ``True`` forces
        the fast engine (raising :class:`SimulationError` when the
        communication model cannot be folded into tables) and also allows
        it to record a trace, including the contention fidelity's overhead
        and link-occupancy records; ``False`` opts out entirely.
    replicas:
        When given, ask the policy for a multi-replica variant of itself
        (``policy.with_replicas(replicas)``, e.g. SA's batched multi-start
        annealing) and run that instead.  ``None`` leaves the policy as
        passed; policies without the hook raise :class:`SimulationError`.
    portfolio:
        When given, ask the policy for an anytime-portfolio variant of
        itself (``policy.with_portfolio(portfolio)``, e.g. SA's
        successive-halving lane racing; an ``int`` lane count or a
        :class:`~repro.annealing.portfolio.PortfolioConfig`).  Mutually
        exclusive with ``replicas``; policies without the hook raise
        :class:`SimulationError`.
    """

    def __init__(
        self,
        graph: TaskGraph,
        machine: Machine,
        policy: SchedulingPolicy,
        comm_model: Optional[CommunicationModel] = None,
        fidelity: str = "latency",
        record_trace: bool = True,
        fast: Optional[bool] = None,
        replicas: Optional[int] = None,
        portfolio=None,
    ) -> None:
        if fidelity not in FIDELITIES:
            raise SimulationError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")
        if replicas is not None and portfolio is not None:
            raise SimulationError(
                "replicas and portfolio are mutually exclusive "
                "(a portfolio already runs multiple lanes)"
            )
        if replicas is not None:
            if replicas < 1:
                raise SimulationError(f"replicas must be >= 1, got {replicas}")
            with_replicas = getattr(policy, "with_replicas", None)
            if with_replicas is None:
                raise SimulationError(
                    f"policy {policy!r} does not support replicas= "
                    "(no with_replicas hook; only SA anneals multi-start chains)"
                )
            policy = with_replicas(replicas)
        if portfolio is not None:
            with_portfolio = getattr(policy, "with_portfolio", None)
            if with_portfolio is None:
                raise SimulationError(
                    f"policy {policy!r} does not support portfolio= "
                    "(no with_portfolio hook; only SA races annealing lanes)"
                )
            policy = with_portfolio(portfolio)
        graph.validate()
        self.graph = graph
        self.machine = machine
        self.policy = policy
        self.comm_model = comm_model if comm_model is not None else LinearCommModel()
        self.fidelity = fidelity
        self.record_trace = bool(record_trace)
        self.fast = fast

    # ------------------------------------------------------------------ #
    def _use_fast_engine(self) -> bool:
        """Decide whether this run goes through the compiled fast engine.

        Both fidelities compile (the contention loop runs on the scenario's
        flat route tables); the only hard requirement is a foldable
        communication model.  Auto mode keeps trace-recording runs on the
        object engine — ``fast=True`` overrides that, e.g. for Figure 2's
        contention Gantt chart on the fast path.
        """
        if self.fast is True:
            if not supports_comm_model(self.comm_model):
                raise EngineFallbackError(
                    f"fast=True cannot fold communication model "
                    f"{type(self.comm_model).__name__} into tables; "
                    "use the object engine (fast=False) for custom models",
                    tier="fast",
                    cause=type(self.comm_model).__name__,
                )
            return True
        if self.fast is False:
            return False
        return not self.record_trace and supports_comm_model(self.comm_model)

    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute the simulation and return a :class:`SimulationResult`."""
        graph, machine = self.graph, self.machine
        self.policy.reset()

        if self._use_fast_engine():
            scenario = compile_scenario(graph, machine, self.comm_model)
            return run_compiled(
                scenario,
                self.policy,
                record_trace=self.record_trace,
                fidelity=self.fidelity,
            )

        if graph.n_tasks == 0:
            return SimulationResult(
                makespan=0.0,
                total_work=0.0,
                n_processors=machine.n_processors,
                graph_name=graph.name,
                machine_name=machine.name,
                policy_name=getattr(self.policy, "name", type(self.policy).__name__),
                fidelity=self.fidelity,
                trace=ExecutionTrace() if self.record_trace else None,
            )

        levels = graph.levels()
        # --- mutable simulation state ---------------------------------- #
        all_tasks = graph.tasks
        all_procs = machine.processors
        task_order: Dict[TaskId, int] = {t: k for k, t in enumerate(all_tasks)}
        unfinished_preds: Dict[TaskId, int] = {
            t: graph.in_degree(t) for t in all_tasks
        }
        # The ready set is maintained incrementally (decrement-to-zero
        # insertion when a predecessor finishes, removal on assignment)
        # instead of rescanning the whole task list at every epoch.  It is
        # kept as a sorted list of graph-insertion indices so the epoch's
        # ready order is identical to a full scan's.
        ready_keys: List[int] = [
            task_order[t] for t in all_tasks if unfinished_preds[t] == 0
        ]
        assigned_proc: Dict[TaskId, ProcId] = {}
        finish_times: Dict[TaskId, float] = {}
        finished: set = set()
        # Incrementally-maintained context state: the per-epoch PacketContext
        # used to be built from O(n) dict copies (placement history, finished
        # times, processor availability); these three dicts are instead kept
        # current in O(1) per placement/completion and handed to policies as
        # read-only views.  ``ctx_finish_times`` holds *finished* tasks only
        # (the contract of PacketContext.finish_times), and idle processors'
        # ready times are refreshed to the epoch time in ``run_epoch``.
        ctx_finish_times: Dict[TaskId, float] = {}
        ctx_proc_ready: Dict[ProcId, float] = {p: 0.0 for p in all_procs}
        proc_occupant: Dict[ProcId, Optional[TaskId]] = {p: None for p in all_procs}
        proc_task_free: Dict[ProcId, float] = {p: 0.0 for p in all_procs}
        proc_comm_free: Dict[ProcId, float] = {p: 0.0 for p in all_procs}
        # Per-processor speed factors (all exactly 1.0 on homogeneous
        # machines, where the division below is an exact no-op).
        proc_speed: Dict[ProcId, float] = {p: machine.speed_of(p) for p in all_procs}
        link_free: Dict[Tuple[int, int], float] = {}
        trace = ExecutionTrace()
        events = EventQueue()
        n_packets = 0

        # --- helpers ----------------------------------------------------- #
        def ready_tasks() -> List[TaskId]:
            return [all_tasks[k] for k in ready_keys]

        def idle_processors() -> List[ProcId]:
            return [p for p in all_procs if proc_occupant[p] is None]

        def add_overhead(proc: ProcId, start: float, end: float, kind: str, task=None) -> None:
            if self.record_trace and end > start:
                trace.overhead_records.append(
                    OverheadRecord(processor=proc, start_time=start, end_time=end, kind=kind, task=task)
                )

        def deliver_latency(pred: TaskId, task: TaskId, src: ProcId, dst: ProcId, send_time: float) -> float:
            weight = graph.comm(pred, task)
            cost = self.comm_model.cost(machine, weight, src, dst)
            arrival = send_time + cost
            if self.record_trace:
                trace.message_records.append(
                    MessageRecord(
                        src_task=pred,
                        dst_task=task,
                        src_proc=src,
                        dst_proc=dst,
                        weight=weight,
                        send_time=send_time,
                        arrival_time=arrival,
                        route=tuple(machine.route(src, dst)),
                    )
                )
            return arrival

        def deliver_contention(pred: TaskId, task: TaskId, src: ProcId, dst: ProcId, send_time: float) -> float:
            weight = graph.comm(pred, task)
            if not self.comm_model.enabled:
                # Zero-communication runs skip the store-and-forward machinery.
                return deliver_latency(pred, task, src, dst, send_time)
            params = machine.params
            route = machine.route(src, dst)
            sigma, tau = params.sigma, params.tau
            # Link setup on the sender.
            send_start = max(send_time, proc_comm_free[src])
            add_overhead(src, send_start, send_start + sigma, "send", task=pred)
            proc_comm_free[src] = max(proc_comm_free[src], send_start + sigma)
            at_node = send_start + sigma
            hop_intervals: List[Tuple[float, float]] = []
            unit_links = machine.has_unit_link_weights
            for k in range(len(route) - 1):
                a, b = route[k], route[k + 1]
                link = (a, b) if a < b else (b, a)
                hop_start = max(at_node, link_free.get(link, 0.0))
                hop_end = hop_start + (weight if unit_links else weight * machine.link_weight(a, b))
                link_free[link] = hop_end
                hop_intervals.append((hop_start, hop_end))
                at_node = hop_end
                if k < len(route) - 2:
                    # Intermediate processor routes the message (quarter blocks of Fig. 2).
                    add_overhead(b, hop_end, hop_end + tau, "route", task=task)
                    proc_comm_free[b] = max(proc_comm_free[b], hop_end + tau)
                    at_node = hop_end + tau
            arrival = at_node
            if self.record_trace:
                trace.message_records.append(
                    MessageRecord(
                        src_task=pred,
                        dst_task=task,
                        src_proc=src,
                        dst_proc=dst,
                        weight=weight,
                        send_time=send_start,
                        arrival_time=arrival,
                        route=tuple(route),
                        hop_intervals=tuple(hop_intervals),
                    )
                )
            return arrival

        def place(task: TaskId, proc: ProcId, now: float) -> None:
            del ready_keys[bisect_left(ready_keys, task_order[task])]
            assigned_proc[task] = proc
            proc_occupant[proc] = task
            data_ready = now
            for pred in graph.predecessors(task):
                src = assigned_proc[pred]
                # The schedule being constructed is static: once the whole
                # schedule exists, every placement is known before execution,
                # so the producer ships its result as soon as it finishes
                # (the standard model in the list-scheduling literature).
                send_time = finish_times[pred]
                if src == proc:
                    arrival = finish_times[pred]
                elif self.fidelity == "latency":
                    arrival = deliver_latency(pred, task, src, proc, send_time)
                else:
                    arrival = deliver_contention(pred, task, src, proc, send_time)
                if arrival > data_ready:
                    data_ready = arrival
            start = max(now, data_ready, proc_comm_free[proc], proc_task_free[proc])
            finish = start + graph.duration(task) / proc_speed[proc]
            proc_task_free[proc] = finish
            ctx_proc_ready[proc] = finish
            if self.record_trace:
                trace.task_records.append(
                    TaskRecord(
                        task=task,
                        processor=proc,
                        assigned_time=now,
                        start_time=start,
                        finish_time=finish,
                    )
                )
            finish_times[task] = finish
            events.push(finish, TASK_FINISH, task)

        def run_epoch(now: float) -> None:
            nonlocal n_packets
            ready = ready_tasks()
            idle = idle_processors()
            if not ready or not idle:
                return
            for p in idle:
                ctx_proc_ready[p] = now
            ctx = PacketContext(
                time=now,
                ready_tasks=ready,
                idle_processors=idle,
                graph=graph,
                machine=machine,
                levels=levels,
                task_processor=MappingProxyType(assigned_proc),
                finish_times=MappingProxyType(ctx_finish_times),
                comm_model=self.comm_model,
                processor_ready_time=MappingProxyType(ctx_proc_ready),
            )
            assignment = self.policy.assign(ctx)
            validate_assignment(ctx, assignment)
            if assignment:
                n_packets += 1
            for task, proc in assignment.items():
                place(task, proc, now)

        # --- main loop ---------------------------------------------------- #
        now = 0.0
        run_epoch(now)
        max_events = 10 * graph.n_tasks + 100  # generous livelock backstop
        processed = 0
        while len(finished) < graph.n_tasks:
            if not events:
                remaining = graph.n_tasks - len(finished)
                raise SimulationError(
                    f"simulation stalled at t={now} with {remaining} unfinished tasks: "
                    f"the policy {self.policy!r} did not assign any ready task"
                )
            batch = events.pop_simultaneous()
            processed += len(batch)
            if processed > max_events:  # pragma: no cover - defensive
                raise SimulationError("event budget exceeded; possible livelock")
            now = batch[0].time
            for event in batch:
                if event.kind != TASK_FINISH:  # pragma: no cover - defensive
                    raise SimulationError(f"unknown event kind {event.kind!r}")
                task = event.payload
                finished.add(task)
                ctx_finish_times[task] = finish_times[task]
                proc = assigned_proc[task]
                if proc_occupant[proc] == task:
                    proc_occupant[proc] = None
                for succ in graph.successors(task):
                    unfinished_preds[succ] -= 1
                    if unfinished_preds[succ] == 0:
                        insort(ready_keys, task_order[succ])
            run_epoch(now)

        makespan = max(finish_times.values()) if finish_times else 0.0
        result = SimulationResult(
            makespan=makespan,
            total_work=graph.total_work(),
            n_processors=machine.n_processors,
            graph_name=graph.name,
            machine_name=machine.name,
            policy_name=getattr(self.policy, "name", type(self.policy).__name__),
            n_packets=n_packets,
            task_processor=dict(assigned_proc),
            trace=trace if self.record_trace else None,
            fidelity=self.fidelity,
        )
        return result


def simulate(
    graph: TaskGraph,
    machine: Machine,
    policy: SchedulingPolicy,
    comm_model: Optional[CommunicationModel] = None,
    fidelity: str = "latency",
    record_trace: bool = True,
    fast: Optional[bool] = None,
    replicas: Optional[int] = None,
    portfolio=None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it once."""
    return Simulator(
        graph,
        machine,
        policy,
        comm_model=comm_model,
        fidelity=fidelity,
        record_trace=record_trace,
        fast=fast,
        replicas=replicas,
        portfolio=portfolio,
    ).run()
