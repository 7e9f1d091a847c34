"""The compiled fast simulation engine.

Runs the discrete-event loop of :mod:`repro.sim.engine` entirely in index
space over a :class:`~repro.sim.compile.CompiledScenario`:
tasks are dense integers, simulation state lives in flat arrays
(``unfinished_preds``, ``finish_times``, ``assigned_proc``, per-processor
free times), the event set is a plain ``(time, seq, task)`` heap, and every
equation-4 message cost is the edge weight against three precompiled
machine tables.  Every built-in
policy — ETF, HLF, LPT, FIFO, Random, and SA through its array-annealer
kernel — implements
:meth:`~repro.schedulers.base.SchedulingPolicy.fast_assign` and is driven
through index-space kernels; a policy without one (custom policies, or SA's
reference/trajectory configurations) receives a
:class:`~repro.schedulers.base.PacketContext` materialized lazily from
incrementally-maintained dictionaries.  Those fallback epochs are counted
(``SimulationResult.n_fallback_epochs``) and logged once per run at DEBUG
level, so a silently slow path is visible in sweep metadata instead of just
in the wall clock.

Both fidelities are implemented:

* ``"latency"`` — every inter-processor message costs its equation-4
  value from the compiled machine tables (the model the SA cost function
  assumes);
* ``"contention"`` — messages are forwarded hop by hop over the compiled
  :class:`~repro.sim.compile.ContentionTables`: a flat per-link next-free
  timeline replaces the object engine's ``(a, b)``-keyed dict, routes are
  precomputed CSR hop slices instead of per-message ``machine.route``
  calls, and the σ/τ send/route busy times are charged to a flat
  per-processor communication-free vector.  With trace recording on, the
  same send/route overhead records and per-hop link occupancy intervals
  are emitted, so Figure 2's Gantt chart can run on this engine.

Every arithmetic operation mirrors the reference engine's float operation
order, so a fast run is **bit-for-bit identical** to a reference run: same
makespan, same assignments, same task intervals, same messages and overhead
records, same fingerprint.  The golden-trace suite and the hypothesis
differential tests pin that contract for both fidelities.

:class:`~repro.sim.engine.Simulator` dispatches here automatically for runs
without trace recording whenever the communication model folds into tables,
and falls back to the object engine otherwise (``fast=True`` forces the
fast path, e.g. to record an equivalence trace; ``fast=False`` opts out).
Groups of cells go through :func:`repro.sim.batch_engine.run_lanes`, which
runs every lane it does not step in lock step here — so this module holds
the compiled engines' only context fallback and their only
store-and-forward hop loop.
"""

from __future__ import annotations

import heapq
import logging
import operator
from bisect import bisect_left, insort
from types import MappingProxyType
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.schedulers.base import PacketContext, SchedulingPolicy, validate_assignment
from repro.sim.compile import CompiledScenario, FastPacket
from repro.sim.message import MessageRecord
from repro.sim.results import SimulationResult
from repro.sim.trace import ExecutionTrace, OverheadRecord, TaskRecord

__all__ = ["FIDELITIES", "run_compiled"]

TaskId = Hashable
ProcId = int

#: The message models every engine implements (see the module docstring).
FIDELITIES = ("latency", "contention")

_LOGGER = logging.getLogger(__name__)


def _validate_fast_assignment(
    time: float,
    unfinished: List[int],
    assigned: List[int],
    proc_occupant: List[int],
    assignment: Dict[int, ProcId],
) -> None:
    """Index-space counterpart of :func:`~repro.schedulers.base.validate_assignment`.

    Checked against the engine's own state (a task is ready iff it is
    unassigned with no unfinished predecessors; a processor is idle iff it
    has no occupant), so the check costs O(assignment) instead of
    materializing ready/idle sets.
    """
    from repro.exceptions import SchedulingError

    seen: set = set()
    for task, proc in assignment.items():
        try:
            task = operator.index(task)
            proc = operator.index(proc)
        except TypeError:
            raise SchedulingError(
                f"fast assignment must map task indices to processor indices, "
                f"got {task!r} -> {proc!r} at t={time}"
            ) from None
        if not 0 <= task < len(unfinished) or assigned[task] >= 0 or unfinished[task] != 0:
            raise SchedulingError(f"task {task!r} is not ready at t={time}")
        if not 0 <= proc < len(proc_occupant) or proc_occupant[proc] >= 0:
            raise SchedulingError(f"processor {proc!r} is not idle at t={time}")
        if proc in seen:
            raise SchedulingError(f"processor {proc!r} assigned more than one task")
        seen.add(proc)


def run_compiled(
    scenario: CompiledScenario,
    policy: SchedulingPolicy,
    record_trace: bool = False,
    fidelity: str = "latency",
) -> SimulationResult:
    """Execute *scenario* under *policy* and return a :class:`SimulationResult`.

    The caller (normally :class:`~repro.sim.engine.Simulator`) is responsible
    for ``policy.reset()`` and graph validation.  *fidelity* selects the
    latency or the store-and-forward contention message model (see module
    docstring).
    """
    if fidelity not in FIDELITIES:
        raise SimulationError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")
    graph, machine = scenario.graph, scenario.machine
    n = scenario.n_tasks
    n_procs = scenario.n_procs
    policy_name = getattr(policy, "name", type(policy).__name__)
    if n == 0:
        return SimulationResult(
            makespan=0.0,
            total_work=0.0,
            n_processors=n_procs,
            graph_name=graph.name,
            machine_name=machine.name,
            policy_name=policy_name,
            fidelity=fidelity,
            trace=ExecutionTrace() if record_trace else None,
        )

    task_ids = scenario.task_ids
    # Plain-list mirrors: python list indexing returns cached floats/ints at
    # a fraction of the cost of numpy scalar indexing, and this loop is all
    # scalar.
    durations = scenario.durations_list
    speeds = scenario.speeds_list
    pred_indptr, pred_ids = scenario.pred_indptr_list, scenario.pred_ids_list
    succ_indptr, succ_ids = scenario.succ_indptr_list, scenario.succ_ids_list
    pred_weights = scenario.pred_weights_list
    # Equation-4 machine tables, flattened over (src, dst); None for the zero
    # model.
    wdist = scenario.wdist
    if wdist is not None:
        wdist = wdist.ravel().tolist()
        routing = scenario.routing.ravel().tolist()
        setup = scenario.setup.ravel().tolist()

    # --- flat simulation state ----------------------------------------- #
    unfinished = [pred_indptr[i + 1] - pred_indptr[i] for i in range(n)]
    ready_keys: List[int] = [i for i in range(n) if unfinished[i] == 0]
    assigned = [-1] * n
    finish = [0.0] * n
    n_finished = 0
    proc_occupant = [-1] * n_procs
    proc_task_free = [0.0] * n_procs
    heap: List[tuple] = []
    seq = 0
    n_packets = 0
    n_fallback = 0
    trace = ExecutionTrace()

    # Contention-only state: flat per-link next-free timeline, per-processor
    # communication busy time and the compiled route hop slices.  A
    # zero-communication contention run skips the store-and-forward
    # machinery entirely (like the object engine's ``deliver_latency``
    # shortcut), so it rides the plain latency placement path.
    contention = fidelity == "contention" and scenario.comm_enabled
    if contention:
        ct = scenario.contention_tables()
        sigma, tau = ct.sigma, ct.tau
        unit_links = ct.unit_links
        route_indptr = ct.route_indptr
        hop_links, hop_nodes, hop_mults = ct.hop_links, ct.hop_nodes, ct.hop_mults
        pair_routes = ct.routes
        link_free = [0.0] * ct.n_links
        proc_comm_free = [0.0] * n_procs

    # The object-path fallback (policies without ``fast_assign``, e.g. SA —
    # or a policy whose fast path declines one epoch) sees the same
    # PacketContext as the reference engine, built from these
    # incrementally-maintained dictionaries: O(1) upkeep per placement /
    # completion instead of O(n) copies per epoch.
    has_fast = type(policy).fast_assign is not SchedulingPolicy.fast_assign
    ctx_task_processor: Dict[TaskId, ProcId] = {}
    ctx_finish: Dict[TaskId, float] = {}
    ctx_proc_ready: Dict[ProcId, float] = {p: 0.0 for p in range(n_procs)}
    levels: Optional[Dict[TaskId, float]] = None  # graph.levels(), on first use

    # ``assigned``/``finish`` are plain lists for the scalar hot path; the
    # index-space kernels read these array aliases.
    assigned_arr = np.full(n, -1, dtype=np.intp)
    finish_arr = np.zeros(n, dtype=np.float64)
    proc_ready_arr = np.zeros(n_procs, dtype=np.float64)

    def place(ti: int, proc: int, now: float) -> None:
        del ready_keys[bisect_left(ready_keys, ti)]
        assigned[ti] = proc
        assigned_arr[ti] = proc
        proc_occupant[proc] = ti
        data_ready = now
        for e in range(pred_indptr[ti], pred_indptr[ti + 1]):
            pred = pred_ids[e]
            src = assigned[pred]
            send_time = finish[pred]
            if src == proc:
                arrival = send_time
            else:
                if wdist is None:
                    arrival = send_time + 0.0
                else:
                    k = src * n_procs + proc
                    arrival = send_time + (
                        (pred_weights[e] * wdist[k] + routing[k]) + setup[k]
                    )
                if record_trace:
                    trace.message_records.append(
                        MessageRecord(
                            src_task=task_ids[pred],
                            dst_task=task_ids[ti],
                            src_proc=src,
                            dst_proc=proc,
                            weight=pred_weights[e],
                            send_time=send_time,
                            arrival_time=float(arrival),
                            route=tuple(machine.route(src, proc)),
                        )
                    )
            if arrival > data_ready:
                data_ready = arrival
        start = max(now, data_ready, proc_task_free[proc])
        fin = start + durations[ti] / speeds[proc]
        proc_task_free[proc] = fin
        finish[ti] = fin
        finish_arr[ti] = fin
        ctx_task_processor[task_ids[ti]] = proc
        ctx_proc_ready[proc] = fin
        proc_ready_arr[proc] = fin
        if record_trace:
            trace.task_records.append(
                TaskRecord(
                    task=task_ids[ti],
                    processor=proc,
                    assigned_time=now,
                    start_time=float(start),
                    finish_time=float(fin),
                )
            )
        nonlocal seq
        heapq.heappush(heap, (fin, seq, ti))
        seq += 1

    def place_contention(ti: int, proc: int, now: float) -> None:
        """Contention-fidelity placement: store-and-forward message delivery.

        Mirrors ``deliver_contention`` of the object engine operation by
        operation — same ``max`` argument orders, same per-hop occupancy
        arithmetic, same overhead/message record conditions — over the
        precompiled flat route tables, so the two engines are bit-identical
        down to the trace record lists.
        """
        del ready_keys[bisect_left(ready_keys, ti)]
        assigned[ti] = proc
        assigned_arr[ti] = proc
        proc_occupant[proc] = ti
        data_ready = now
        for e in range(pred_indptr[ti], pred_indptr[ti + 1]):
            pred = pred_ids[e]
            src = assigned[pred]
            send_time = finish[pred]
            if src == proc:
                arrival = send_time
            else:
                weight = pred_weights[e]
                # Link setup on the sender.
                cf = proc_comm_free[src]
                send_start = send_time if send_time >= cf else cf
                end = send_start + sigma
                # ``end > send_start`` (not ``sigma > 0``): the object
                # engine's add_overhead gates on the *computed* interval, and
                # a tiny sigma can be absorbed at large times.
                if record_trace and end > send_start:
                    trace.overhead_records.append(
                        OverheadRecord(
                            processor=src,
                            start_time=send_start,
                            end_time=end,
                            kind="send",
                            task=task_ids[pred],
                        )
                    )
                if end > cf:
                    proc_comm_free[src] = end
                at_node = send_start + sigma
                base = route_indptr[src * n_procs + proc]
                top = route_indptr[src * n_procs + proc + 1]
                last = top - 1
                hop_intervals: List[tuple] = []
                for h in range(base, top):
                    lid = hop_links[h]
                    lf = link_free[lid]
                    hop_start = at_node if at_node >= lf else lf
                    hop_end = hop_start + (weight if unit_links else weight * hop_mults[h])
                    link_free[lid] = hop_end
                    if record_trace:
                        hop_intervals.append((hop_start, hop_end))
                    at_node = hop_end
                    if h < last:
                        # Intermediate processor routes the message
                        # (quarter blocks of Fig. 2).
                        b = hop_nodes[h]
                        routed = hop_end + tau
                        if record_trace and routed > hop_end:
                            trace.overhead_records.append(
                                OverheadRecord(
                                    processor=b,
                                    start_time=hop_end,
                                    end_time=routed,
                                    kind="route",
                                    task=task_ids[ti],
                                )
                            )
                        if routed > proc_comm_free[b]:
                            proc_comm_free[b] = routed
                        at_node = routed
                arrival = at_node
                if record_trace:
                    trace.message_records.append(
                        MessageRecord(
                            src_task=task_ids[pred],
                            dst_task=task_ids[ti],
                            src_proc=src,
                            dst_proc=proc,
                            weight=weight,
                            send_time=send_start,
                            arrival_time=arrival,
                            route=pair_routes[src * n_procs + proc],
                            hop_intervals=tuple(hop_intervals),
                        )
                    )
            if arrival > data_ready:
                data_ready = arrival
        start = max(now, data_ready, proc_comm_free[proc], proc_task_free[proc])
        fin = start + durations[ti] / speeds[proc]
        proc_task_free[proc] = fin
        finish[ti] = fin
        finish_arr[ti] = fin
        ctx_task_processor[task_ids[ti]] = proc
        ctx_proc_ready[proc] = fin
        proc_ready_arr[proc] = fin
        if record_trace:
            trace.task_records.append(
                TaskRecord(
                    task=task_ids[ti],
                    processor=proc,
                    assigned_time=now,
                    start_time=float(start),
                    finish_time=float(fin),
                )
            )
        nonlocal seq
        heapq.heappush(heap, (fin, seq, ti))
        seq += 1

    place_task = place_contention if contention else place

    def run_epoch(now: float) -> None:
        nonlocal n_packets
        if not ready_keys:
            return
        idle = [p for p in range(n_procs) if proc_occupant[p] < 0]
        if not idle:
            return
        ready = list(ready_keys)
        assignment: Optional[Dict[int, ProcId]] = None
        if has_fast:
            proc_ready_arr[idle] = now
            packet = FastPacket(
                time=now,
                ready=ready,
                idle=idle,
                scenario=scenario,
                assigned_proc=assigned_arr,
                finish_times=finish_arr,
                proc_ready_time=proc_ready_arr,
            )
            assignment = policy.fast_assign(packet)
            if assignment is not None:
                _validate_fast_assignment(
                    now, unfinished, assigned, proc_occupant, assignment
                )
        if assignment is None:
            # Policy has no fast path (or declined this run's configuration):
            # materialize the reference context.  Counted so silent slow
            # paths show up in result/sweep metadata.
            nonlocal levels, n_fallback
            n_fallback += 1
            if n_fallback == 1:
                _LOGGER.debug(
                    "policy %s has no fast path; materializing PacketContext "
                    "(first fallback at t=%s)",
                    policy_name,
                    now,
                )
            if levels is None:
                levels = graph.levels()
            for p in idle:
                ctx_proc_ready[p] = now
            ctx = PacketContext(
                time=now,
                ready_tasks=[task_ids[k] for k in ready],
                idle_processors=idle,
                graph=graph,
                machine=machine,
                levels=levels,
                task_processor=MappingProxyType(ctx_task_processor),
                finish_times=MappingProxyType(ctx_finish),
                comm_model=scenario.comm_model,
                processor_ready_time=MappingProxyType(ctx_proc_ready),
            )
            id_assignment = policy.assign(ctx)
            validate_assignment(ctx, id_assignment)
            assignment = {
                scenario.index_of[t]: p for t, p in id_assignment.items()
            }
        if assignment:
            n_packets += 1
        for ti, proc in assignment.items():
            place_task(ti, proc, now)

    # --- main loop ------------------------------------------------------ #
    now = 0.0
    run_epoch(now)
    max_events = 10 * n + 100  # generous livelock backstop
    processed = 0
    while n_finished < n:
        if not heap:
            remaining = n - n_finished
            raise SimulationError(
                f"simulation stalled at t={now} with {remaining} unfinished tasks: "
                f"the policy {policy!r} did not assign any ready task"
            )
        now, _, ti = heapq.heappop(heap)
        batch = [ti]
        while heap and heap[0][0] == now:
            batch.append(heapq.heappop(heap)[2])
        processed += len(batch)
        if processed > max_events:  # pragma: no cover - defensive
            raise SimulationError("event budget exceeded; possible livelock")
        for ti in batch:
            n_finished += 1
            ctx_finish[task_ids[ti]] = finish[ti]
            proc = assigned[ti]
            if proc_occupant[proc] == ti:
                proc_occupant[proc] = -1
            for e in range(succ_indptr[ti], succ_indptr[ti + 1]):
                succ = succ_ids[e]
                unfinished[succ] -= 1
                if unfinished[succ] == 0:
                    insort(ready_keys, succ)
        run_epoch(now)

    makespan = float(max(finish)) if n else 0.0
    return SimulationResult(
        makespan=makespan,
        total_work=graph.total_work(),
        n_processors=n_procs,
        graph_name=graph.name,
        machine_name=machine.name,
        policy_name=policy_name,
        n_packets=n_packets,
        task_processor={task_ids[i]: assigned[i] for i in range(n)},
        trace=trace if record_trace else None,
        n_fallback_epochs=n_fallback,
        fidelity=fidelity,
    )
