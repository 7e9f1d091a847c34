"""The lane engine: one call for a group of compiled sweep cells.

A statistical sweep is a grid of *independent* simulations; the fast engine
(:mod:`repro.sim.fast_engine`) makes each one cheap, but every run still
pays the full Python event loop.  :func:`run_lanes` takes a group of
``(scenario, policy)`` cells — *lanes* — and decides each lane from its
inputs:

* at the latency fidelity, lanes whose policy class defines a batched
  kernel (:meth:`~repro.schedulers.base.SchedulingPolicy.batch_assign`)
  advance in lock step when two or more of them qualify;
* every other lane (contention fidelity, SA and custom policies, a lone
  kernel lane) runs alone through the solo engine, :func:`run_compiled`.

The lock step advances its lanes over shared state matrices, so one round
of numpy kernels moves every lane one event batch forward:

* per-lane state is stacked into ``(B, n_max)`` / ``(B, p_max)`` arrays
  (:class:`~repro.sim.compile.StackedScenarios` holds the immutable side);
  ragged lanes are padded, and padding never escapes: padded tasks carry a
  nonzero unfinished-predecessor count and padded processors a non-idle
  occupant sentinel;
* each round pops, per lane, **all** events at that lane's next finish time
  (the solo engine's simultaneous-event batch), retires them with one
  scattered successor decrement, and runs one assignment epoch; lanes keep
  independent clocks and drop out of the active mask as they finish;
* epochs are served by the policies' batched kernels, one call per group of
  lanes sharing a policy class and placement — e.g. 64 ETF lanes resolve
  their greedy matching in a handful of masked-reduction passes.  When a
  kernel declines an epoch, each of its lanes is served by its own
  :meth:`~repro.schedulers.base.SchedulingPolicy.fast_assign`; a lane that
  declines that too raises :class:`~repro.exceptions.SimulationError`,
  since only the solo engine keeps a reference-context fallback;
* placements are fully vectorized: within a latency epoch they are
  independent (every predecessor has finished and each processor receives
  at most one task).

Every lane is **bit-identical** to a solo :func:`run_compiled` run of the
same cell — the same contract the batched annealer holds against
``anneal_replicas_scalar`` — because each arithmetic step is either a
single IEEE operation mirrored from the solo path (``+``, ``/``) or an
exact ``max``, and every policy's batched kernel reproduces its solo
selection order and RNG draws.  The hypothesis differential suite pins that
contract across policies, fidelities, machine mixes and ragged lane shapes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SchedulingError, SimulationError
from repro.schedulers.base import SchedulingPolicy
from repro.sim.compile import (
    CompiledScenario,
    FastPacket,
    StackedScenarios,
    stack_scenarios,
)
from repro.sim.fast_engine import FIDELITIES, _validate_fast_assignment, run_compiled
from repro.sim.results import SimulationResult

__all__ = ["BatchEpoch", "run_lanes"]


def _padded_sets(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack the True columns of each row of *mask* into a padded id matrix.

    Returns ``(padded, valid, counts)``: ``padded[i, :counts[i]]`` holds row
    *i*'s True column indices in increasing order (the solo engine's ready /
    idle enumeration order), ``valid`` is the matching mask.
    """
    counts = mask.sum(axis=1)
    width = max(1, int(counts.max())) if counts.size else 1
    rows, cols = np.nonzero(mask)
    offsets = np.zeros(mask.shape[0], dtype=np.intp)
    np.cumsum(counts[:-1], out=offsets[1:])
    pos = np.arange(rows.shape[0], dtype=np.intp) - np.repeat(offsets, counts)
    padded = np.zeros((mask.shape[0], width), dtype=np.intp)
    padded[rows, pos] = cols
    valid = np.arange(width)[None, :] < counts[:, None]
    return padded, valid, counts


class BatchEpoch:
    """The batched counterpart of :class:`~repro.sim.compile.FastPacket`.

    One assignment epoch over a *group* of lanes that share a policy
    configuration.  ``lanes`` are the global lane indices (increasing), and
    the state matrices are live full-batch views — row ``lanes[i]`` belongs
    to group position *i*.  ``cache`` is a per-group scratch dict that
    survives across the run's epochs (ETF keeps its arrival-row cache
    there, the rank-based kernels their static orders).
    """

    __slots__ = (
        "lanes",
        "now",
        "stacked",
        "assigned",
        "finish",
        "ready_mask",
        "idle_mask",
        "cache",
        "_ready_pad",
        "_idle_pad",
    )

    def __init__(
        self,
        lanes: np.ndarray,
        now: np.ndarray,
        stacked: StackedScenarios,
        assigned: np.ndarray,
        finish: np.ndarray,
        ready_mask: np.ndarray,
        idle_mask: np.ndarray,
        cache: dict,
    ) -> None:
        self.lanes = lanes
        self.now = now
        self.stacked = stacked
        self.assigned = assigned
        self.finish = finish
        self.ready_mask = ready_mask
        self.idle_mask = idle_mask
        self.cache = cache
        self._ready_pad = None
        self._idle_pad = None

    @property
    def n_lanes(self) -> int:
        return len(self.lanes)

    def ready_padded(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(padded, valid, counts)`` of the group's ready tasks (index order)."""
        pads = self._ready_pad
        if pads is None:
            mask = self.ready_mask
            if len(self.lanes) != mask.shape[0]:
                mask = mask[self.lanes]
            pads = self._ready_pad = _padded_sets(mask)
        return pads

    def idle_padded(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(padded, valid, counts)`` of the group's idle processors (index order)."""
        pads = self._idle_pad
        if pads is None:
            mask = self.idle_mask
            if len(self.lanes) != mask.shape[0]:
                mask = mask[self.lanes]
            pads = self._idle_pad = _padded_sets(mask)
        return pads

    def arrival_rows(self, lanes: np.ndarray, tasks: np.ndarray) -> np.ndarray:
        """Predecessor-arrival rows of ready ``(lane, task)`` pairs.

        The batched form of :meth:`FastPacket.arrival_rows`: row *k* holds,
        for every processor slot, the latest ``finish + cost`` over
        ``tasks[k]``'s predecessors on lane ``lanes[k]`` (``-inf`` without
        predecessors).  Columns beyond a lane's processor count are
        unspecified — callers gather valid processors only.  Values are
        bit-identical to the solo kernel's rows: same gather, same cost
        table entries, same exact segmented ``max``.
        """
        st = self.stacked
        starts = st.pred_start[lanes, tasks]
        counts = st.pred_count[lanes, tasks]
        total = int(counts.sum())
        if total == 0:
            return np.full((len(lanes), st.p_max), -np.inf, dtype=np.float64)
        offsets = np.zeros(len(lanes), dtype=np.intp)
        np.cumsum(counts[:-1], out=offsets[1:])
        entries = np.arange(total, dtype=np.intp) + np.repeat(starts - offsets, counts)
        lane_e = np.repeat(lanes, counts)
        preds = st.pred_ids[entries]
        fin = self.finish[lane_e, preds]
        srcs = self.assigned[lane_e, preds]
        arrivals = fin[:, None] + st.cost_rows(lane_e, entries, srcs)
        nonempty = np.flatnonzero(counts)
        seg = np.maximum.reduceat(arrivals, offsets[nonempty], axis=0)
        if len(nonempty) == len(lanes):
            return seg
        rows = np.full((len(lanes), st.p_max), -np.inf, dtype=np.float64)
        rows[nonempty] = seg
        return rows


def _validate_batch_assignment(
    lanes: np.ndarray,
    tasks: np.ndarray,
    procs: np.ndarray,
    ready_mask: np.ndarray,
    occupant: np.ndarray,
    now: np.ndarray,
) -> None:
    """Vectorized legality check of a batched kernel's triples."""
    n_max = ready_mask.shape[1]
    p_max = occupant.shape[1]
    bad = ~ready_mask[lanes, tasks]
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise SchedulingError(
            f"task {int(tasks[k])!r} is not ready at t={now[lanes[k]]}"
        )
    bad = occupant[lanes, procs] >= 0
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise SchedulingError(
            f"processor {int(procs[k])!r} is not idle at t={now[lanes[k]]}"
        )
    if np.bincount(lanes * p_max + procs).max() > 1:
        raise SchedulingError("processor assigned more than one task in a batch epoch")
    if np.bincount(lanes * n_max + tasks).max() > 1:
        raise SchedulingError("task assigned more than once in a batch epoch")


def run_lanes(
    lanes: Sequence[Tuple[CompiledScenario, SchedulingPolicy]],
    fidelity: str = "latency",
) -> List[SimulationResult]:
    """Run every ``(scenario, policy)`` lane to completion.

    The one entry for a group of compiled cells (the group counterpart of
    :func:`run_compiled`): the caller is responsible for ``policy.reset()``
    and graph validation, as the sweep's batched rung
    (:func:`repro.experiments.sweep.run_lane_group`) is.  Lanes may mix
    graphs, machines, communication models and policies; policies must be
    distinct instances per lane (stateful policies carry per-run caches and
    RNG streams).

    At the latency fidelity, the lanes whose policy class defines
    ``batch_assign`` run in lock step when there are at least two of them;
    every other lane runs alone through :func:`run_compiled`.  Returns one
    :class:`SimulationResult` per lane, in input order, each bit-identical
    to the solo fast engine's result for that cell.
    """
    if fidelity not in FIDELITIES:
        raise SimulationError(
            f"fidelity must be one of {FIDELITIES}, got {fidelity!r}"
        )
    stepped = [
        b
        for b, (_, policy) in enumerate(lanes)
        if fidelity == "latency"
        and type(policy).batch_assign is not SchedulingPolicy.batch_assign
    ]
    results: List[Optional[SimulationResult]] = [None] * len(lanes)
    if len(stepped) >= 2:
        for b, result in zip(stepped, _run_lock_step([lanes[b] for b in stepped])):
            results[b] = result
    for b, (scenario, policy) in enumerate(lanes):
        if results[b] is None:
            results[b] = run_compiled(scenario, policy, fidelity=fidelity)
    return results


def _run_lock_step(
    lanes: Sequence[Tuple[CompiledScenario, SchedulingPolicy]],
) -> List[SimulationResult]:
    """Run two or more batch-kernel lanes in lock step at the latency fidelity."""
    scenarios = [sc for sc, _ in lanes]
    policies = [pol for _, pol in lanes]
    st = stack_scenarios(scenarios)
    n_lanes, n_max, p_max = st.n_lanes, st.n_max, st.p_max
    n_tasks, n_procs = st.n_tasks, st.n_procs
    task_valid, proc_valid = st.task_valid, st.proc_valid

    # --- stacked simulation state -------------------------------------- #
    # Padded task slots keep one phantom unfinished predecessor (never
    # ready); padded processor slots a phantom occupant (never idle).
    unfinished = np.where(task_valid, st.pred_count, 1).astype(np.intp)
    unfinished_flat = unfinished.reshape(-1)
    ready_mask = task_valid & (unfinished == 0)
    # Per-lane ready count, maintained incrementally so the epoch gate never
    # rescans the full ready matrix.
    ready_count = ready_mask.sum(axis=1)
    assigned = np.full((n_lanes, n_max), -1, dtype=np.intp)
    finish = np.zeros((n_lanes, n_max), dtype=np.float64)
    # At most one task runs per processor, so the event frontier lives in a
    # (B, p_max) matrix — finish time of the task occupying each processor,
    # inf when idle — which every round's min/compare/nonzero scans instead
    # of a (B, n_max) pending table.
    proc_fin = np.full((n_lanes, p_max), np.inf, dtype=np.float64)
    occupant = np.where(proc_valid, -1, n_max).astype(np.intp)
    proc_task_free = np.zeros((n_lanes, p_max), dtype=np.float64)
    now = np.zeros(n_lanes, dtype=np.float64)
    n_finished = np.zeros(n_lanes, dtype=np.intp)
    n_packets = np.zeros(n_lanes, dtype=np.intp)
    processed = np.zeros(n_lanes, dtype=np.intp)
    max_events = 10 * n_tasks + 100
    active = n_tasks > 0

    # --- policy kernel groups ------------------------------------------ #
    # Lanes sharing a policy class and placement flavour are served by one
    # batch_assign call per epoch.
    grouped = {}
    for b, pol in enumerate(policies):
        key = (type(pol), getattr(pol, "placement", None))
        grouped.setdefault(key, []).append(b)
    groups = [(np.array(ids, dtype=np.intp), {}) for ids in grouped.values()]
    policies_arr = np.empty(n_lanes, dtype=object)
    policies_arr[:] = policies

    # --- placement ------------------------------------------------------ #
    def place_latency(L: np.ndarray, T: np.ndarray, P: np.ndarray) -> None:
        """Vectorized latency placement of the epoch's (lane, task, proc) triples.

        Within an epoch placements are independent — every predecessor has
        finished, and each processor receives at most one task — so the solo
        engine's sequential `place` calls commute and one gathered pass
        reproduces them bit for bit: ``arrival = finish [+ cost]``,
        ``start = max(now, data_ready, proc_task_free)``, and one IEEE
        divide/add for the finish time.
        """
        data_ready = now[L]  # fancy indexing: already a fresh buffer
        starts = st.pred_start[L, T]
        counts = st.pred_count[L, T]
        total = int(counts.sum())
        if total:
            offsets = np.zeros(len(L), dtype=np.intp)
            np.cumsum(counts[:-1], out=offsets[1:])
            entries = np.arange(total, dtype=np.intp) + np.repeat(
                starts - offsets, counts
            )
            lane_e = np.repeat(L, counts)
            dst_e = np.repeat(P, counts)
            preds = st.pred_ids[entries]
            fin = finish[lane_e, preds]
            srcs = assigned[lane_e, preds]
            cost = st.costs(lane_e, entries, srcs, dst_e)
            # Same-processor messages are free *without* the `+ 0.0` the
            # cross-processor zero-model path performs — mirror both.
            arrivals = np.where(srcs == dst_e, fin, fin + cost)
            if counts.min() > 0:
                # Every placed task has predecessors (the common case after
                # the first epoch): segment boundaries are the offsets as-is.
                seg = np.maximum.reduceat(arrivals, offsets)
                np.maximum(data_ready, seg, out=data_ready)
            else:
                nonempty = np.flatnonzero(counts)
                seg = np.maximum.reduceat(arrivals, offsets[nonempty])
                data_ready[nonempty] = np.maximum(data_ready[nonempty], seg)
        start = np.maximum(data_ready, proc_task_free[L, P])
        fin_new = start + st.durations[L, T] / st.speeds[L, P]
        finish[L, T] = fin_new
        proc_fin[L, P] = fin_new
        proc_task_free[L, P] = fin_new

    def assign_per_lane(
        b: int, triples: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> None:
        """One lane's epoch through its fast_assign (its group's kernel declined)."""
        nb = int(n_tasks[b])
        pb = int(n_procs[b])
        pol = policies[b]
        t_now = float(now[b])
        idle_b = occupant[b, :pb] < 0
        packet = FastPacket(
            time=t_now,
            ready=np.flatnonzero(ready_mask[b, :nb]).tolist(),
            idle=np.flatnonzero(idle_b).tolist(),
            scenario=scenarios[b],
            assigned_proc=assigned[b, :nb],
            finish_times=finish[b, :nb],
            # A busy processor frees exactly when its running task finishes,
            # so its solo proc_ready value *is* proc_task_free; idle slots
            # read the epoch time — the row the solo engine would hand over.
            proc_ready_time=np.where(idle_b, t_now, proc_task_free[b, :pb]),
        )
        assignment = pol.fast_assign(packet)
        if assignment is None:
            name = getattr(pol, "name", type(pol).__name__)
            raise SimulationError(
                f"policy {name!r} declined both batch_assign and fast_assign "
                f"at t={t_now}; the lock-step engine has no reference-context "
                "fallback, so run this lane through run_compiled"
            )
        _validate_fast_assignment(
            t_now, unfinished[b, :nb], assigned[b, :nb], occupant[b, :pb], assignment
        )
        if assignment:
            k = len(assignment)
            triples.append(
                (
                    np.full(k, b, dtype=np.intp),
                    np.fromiter(assignment.keys(), dtype=np.intp, count=k),
                    np.fromiter(assignment.values(), dtype=np.intp, count=k),
                )
            )

    def run_epoch_round() -> None:
        """One assignment epoch across every active lane with work to place."""
        idle_mask = occupant < 0
        ep_mask = active & (ready_count > 0) & idle_mask.any(axis=1)
        if not ep_mask.any():
            return
        triples: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for ids, cache in groups:
            gl = ids[ep_mask[ids]]
            if gl.size == 0:
                continue
            epoch = BatchEpoch(
                lanes=gl,
                now=now[gl],
                stacked=st,
                assigned=assigned,
                finish=finish,
                ready_mask=ready_mask,
                idle_mask=idle_mask,
                cache=cache,
            )
            result = policies[int(gl[0])].batch_assign(
                epoch, policies_arr[gl].tolist()
            )
            if result is None:
                for b in gl.tolist():
                    assign_per_lane(b, triples)
                continue
            L, T, P = (np.asarray(a, dtype=np.intp) for a in result)
            if len(L):
                _validate_batch_assignment(L, T, P, ready_mask, occupant, now)
                triples.append((L, T, P))
        if not triples:
            return
        if len(triples) == 1:
            L, T, P = triples[0]
        else:
            L = np.concatenate([t[0] for t in triples])
            T = np.concatenate([t[1] for t in triples])
            P = np.concatenate([t[2] for t in triples])
        # Commit assignments, then compute timings.
        ready_mask[L, T] = False
        assigned[L, T] = P
        occupant[L, P] = T
        cnt = np.bincount(L, minlength=n_lanes)
        np.add(n_packets, cnt > 0, out=n_packets)
        np.subtract(ready_count, cnt, out=ready_count)
        place_latency(L, T, P)

    # --- main loop ------------------------------------------------------ #
    run_epoch_round()
    while active.any():
        # Inactive lanes get NaN, which compares unequal to every finish
        # time — the active guard is folded into the comparison itself.
        next_t = np.where(active, proc_fin.min(axis=1), np.nan)
        stalled = np.isinf(next_t)
        if stalled.any():
            b = int(np.flatnonzero(stalled)[0])
            remaining = int(n_tasks[b] - n_finished[b])
            raise SimulationError(
                f"simulation stalled at t={now[b]} with {remaining} unfinished "
                f"tasks: the policy {policies[b]!r} did not assign any ready task"
            )
        fin_mask = proc_fin == next_t[:, None]
        np.copyto(now, next_t, where=active)
        lanes_f, procs_f = np.nonzero(fin_mask)
        proc_fin[lanes_f, procs_f] = np.inf
        tasks_f = occupant[lanes_f, procs_f]
        occupant[lanes_f, procs_f] = -1
        batch_sizes = np.bincount(lanes_f, minlength=n_lanes)
        processed += batch_sizes
        if (processed > max_events).any():  # pragma: no cover - defensive
            raise SimulationError("event budget exceeded; possible livelock")
        n_finished += batch_sizes
        s_start = st.succ_start[lanes_f, tasks_f]
        s_count = st.succ_count[lanes_f, tasks_f]
        total = int(s_count.sum())
        if total:
            offsets = np.zeros(len(lanes_f), dtype=np.intp)
            np.cumsum(s_count[:-1], out=offsets[1:])
            entries = np.arange(total, dtype=np.intp) + np.repeat(
                s_start - offsets, s_count
            )
            succ = st.succ_ids[entries]
            flat = np.repeat(lanes_f, s_count) * n_max + succ
            np.subtract.at(unfinished_flat, flat, 1)
            # `flat` repeats a task once per finishing predecessor edge, so a
            # task whose last predecessors finish together appears multiple
            # times — dedupe before counting (the mask scatter is idempotent,
            # the counter is not).  Sort and compare neighbours: np.unique
            # would import numpy.ma into every worker.
            became = np.sort(flat[unfinished_flat[flat] == 0])
            if len(became) > 1:
                became = became[np.append(True, became[1:] != became[:-1])]
            ready_mask.reshape(-1)[became] = True
            np.add(
                ready_count,
                np.bincount(became // n_max, minlength=n_lanes),
                out=ready_count,
            )
        active &= n_finished < n_tasks
        run_epoch_round()

    # --- results --------------------------------------------------------- #
    results: List[SimulationResult] = []
    for b, sc in enumerate(scenarios):
        nb = int(n_tasks[b])
        pol = policies[b]
        results.append(
            SimulationResult(
                makespan=float(finish[b, :nb].max()) if nb else 0.0,
                total_work=sc.graph.total_work() if nb else 0.0,
                n_processors=sc.n_procs,
                graph_name=sc.graph.name,
                machine_name=sc.machine.name,
                policy_name=getattr(pol, "name", type(pol).__name__),
                n_packets=int(n_packets[b]),
                task_processor=dict(zip(sc.task_ids, assigned[b, :nb].tolist())),
                fidelity="latency",
            )
        )
    return results
