"""The lock-step batched simulation engine: B sweep cells as lanes.

A statistical sweep is a grid of *independent* simulations; the fast engine
(:mod:`repro.sim.fast_engine`) makes each one cheap, but every run still
pays the full Python event loop.  This module advances B compiled scenarios
— *lanes* — in lock step over shared state matrices, so one round of numpy
kernels moves every lane one event batch forward:

* per-lane state is stacked into ``(B, n_max)`` / ``(B, p_max)`` arrays
  (:class:`~repro.sim.compile.StackedScenarios` holds the immutable side);
  ragged lanes are padded, and padding never escapes: padded tasks carry a
  nonzero unfinished-predecessor count and padded processors a non-idle
  occupant sentinel;
* each round pops, per lane, **all** events at that lane's next finish time
  (the solo engine's simultaneous-event batch), retires them with one
  scattered successor decrement, and runs one assignment epoch; lanes keep
  independent clocks and drop out of the active mask as they finish;
* epochs are served by the policies' batched kernels
  (:meth:`~repro.schedulers.base.SchedulingPolicy.batch_assign`) — lanes
  are grouped by policy configuration, so e.g. 64 ETF lanes resolve their
  greedy matching in a handful of masked-reduction passes.  A lane whose
  policy has no batched kernel (or whose kernel declines) falls back to its
  per-lane :meth:`fast_assign`, and failing that to a materialized
  :class:`~repro.schedulers.base.PacketContext` — counted per lane in
  ``n_fallback_epochs`` exactly like the solo engine;
* latency-fidelity placements are fully vectorized (within an epoch they
  are independent: every predecessor has finished and each processor
  receives at most one task); contention-fidelity placements replay the
  solo engine's store-and-forward arithmetic per lane, in the policy's
  placement order, over per-lane link/communication timelines.

Every lane is **bit-identical** to a solo :func:`run_compiled` run of the
same cell — the same contract the batched annealer holds against
``anneal_replicas_scalar`` — because each arithmetic step is either a
single IEEE operation mirrored from the solo path (``+``, ``/``) or an
exact ``max``, and every policy's batched kernel reproduces its solo
selection order and RNG draws.  The hypothesis differential suite pins that
contract across policies, fidelities, machine mixes and ragged lane shapes.
"""

from __future__ import annotations

import logging
from types import MappingProxyType
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SchedulingError, SimulationError
from repro.schedulers.base import PacketContext, SchedulingPolicy, validate_assignment
from repro.sim.compile import (
    CompiledScenario,
    FastPacket,
    StackedScenarios,
    stack_scenarios,
)
from repro.sim.fast_engine import FIDELITIES, _validate_fast_assignment, run_compiled
from repro.sim.results import SimulationResult

__all__ = ["BatchEpoch", "run_batch"]

TaskId = Hashable
ProcId = int

_LOGGER = logging.getLogger(__name__)


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
        base = st.cost_offset[entries] + srcs * st.n_procs[lane_e]
        # Full-width gather: cost_flat's trailing zero block keeps the pad
        # columns of the narrowest lanes in bounds (they are never read).
        idx = base[:, None] + np.arange(st.p_max, dtype=np.intp)[None, :]
        arrivals = fin[:, None] + st.cost_flat[idx]
        nonempty = np.flatnonzero(counts)
        seg = np.maximum.reduceat(arrivals, offsets[nonempty], axis=0)
        if len(nonempty) == len(lanes):
            return seg
        rows = np.full((len(lanes), st.p_max), -np.inf, dtype=np.float64)
        rows[nonempty] = seg
        return rows


class _ContentionLane:
    """Mutable store-and-forward state of one contention-fidelity lane."""

    __slots__ = ("tables", "link_free", "comm_free", "weights")

    def __init__(self, scenario: CompiledScenario) -> None:
        self.tables = scenario.contention_tables()
        self.link_free = [0.0] * self.tables.n_links
        self.comm_free = [0.0] * scenario.n_procs
        self.weights = scenario.pred_weights.tolist()


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


def run_batch(
    lanes: Sequence[Tuple[CompiledScenario, SchedulingPolicy]],
    fidelity: str = "latency",
) -> List[SimulationResult]:
    """Run every ``(scenario, policy)`` lane to completion, in lock step.

    The low-level entry point (the batched :func:`run_compiled`): the caller
    is responsible for ``policy.reset()`` and graph validation, as the
    sweep's batched rung (:func:`repro.experiments.sweep.run_lane_group`)
    is.  Lanes may mix graphs, machines, communication models and policies;
    policies must be distinct instances per lane (stateful policies carry
    per-run caches and RNG streams).  Returns one :class:`SimulationResult`
    per lane, in order, each bit-identical to the solo fast engine's result
    for that cell.
    """
    if fidelity not in FIDELITIES:
        raise SimulationError(
            f"fidelity must be one of {FIDELITIES}, got {fidelity!r}"
        )
    if not lanes:
        return []
    if len(lanes) == 1:
        # A single lane has nothing to amortize: skip the stacking copies
        # and run the solo engine it would be bit-identical to anyway.
        # Matters to callers whose group sizes are workload-driven — a
        # coalescing window that catches one job should not pay batch setup.
        scenario, policy = lanes[0]
        return [run_compiled(scenario, policy, fidelity=fidelity)]
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
    n_fallback = np.zeros(n_lanes, dtype=np.intp)
    processed = np.zeros(n_lanes, dtype=np.intp)
    max_events = 10 * n_tasks + 100
    active = n_tasks > 0

    # Contention lanes carry per-lane link/communication timelines; a
    # zero-communication lane rides the vectorized latency placement even at
    # contention fidelity, exactly like the solo engine.
    cont: List[Optional[_ContentionLane]] = [None] * n_lanes
    if fidelity == "contention":
        for b, sc in enumerate(scenarios):
            if sc.comm_enabled and n_tasks[b] > 0:
                cont[b] = _ContentionLane(sc)
    cont_lane = np.array([state is not None for state in cont], dtype=bool)

    # --- policy kernel groups ------------------------------------------ #
    # Lanes sharing a policy class (and placement flavour) are served by one
    # batch_assign call per epoch; everything else goes per lane.
    default_batch = SchedulingPolicy.batch_assign
    default_fast = SchedulingPolicy.fast_assign
    grouped: Dict[tuple, List[int]] = {}
    for b, pol in enumerate(policies):
        cls = type(pol)
        if cls.batch_assign is not default_batch:
            key = ("batch", cls, getattr(pol, "placement", None))
        else:
            key = ("perlane",)
        grouped.setdefault(key, []).append(b)
    groups = [
        (key, np.array(ids, dtype=np.intp), {}) for key, ids in grouped.items()
    ]
    policies_arr = np.empty(n_lanes, dtype=object)
    policies_arr[:] = policies
    has_fast = [type(pol).fast_assign is not default_fast for pol in policies]

    # Per-lane fallback context state, maintained incrementally (in the solo
    # engine's insertion orders) only for lanes that may need a materialized
    # PacketContext.
    ctx_lane = np.zeros(n_lanes, dtype=bool)
    for key, ids, _ in groups:
        if key[0] == "perlane":
            ctx_lane[ids] = True
    ctx_task_processor: Dict[int, Dict[TaskId, ProcId]] = {}
    ctx_finish: Dict[int, Dict[TaskId, float]] = {}
    for b in np.flatnonzero(ctx_lane):
        ctx_task_processor[int(b)] = {}
        ctx_finish[int(b)] = {}

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
            cost = st.cost_flat[
                st.cost_offset[entries] + srcs * st.n_procs[lane_e] + dst_e
            ]
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

    def place_contention(b: int, T: np.ndarray, P: np.ndarray) -> None:
        """Store-and-forward placement of one lane's epoch triples, in order.

        Scalar mirror of the solo engine's ``place_contention`` — link
        occupancy makes within-epoch placements order-dependent, so the
        triples arrive in the policy's placement order and replay it.
        """
        state = cont[b]
        ct = state.tables
        link_free, comm_free, weights = state.link_free, state.comm_free, state.weights
        sc = scenarios[b]
        pred_indptr, pred_ids = sc.pred_indptr_list, sc.pred_ids_list
        durations, speeds = sc.durations_list, sc.speeds_list
        sigma, tau = ct.sigma, ct.tau
        unit_links = ct.unit_links
        route_indptr = ct.route_indptr
        hop_links, hop_nodes, hop_mults = ct.hop_links, ct.hop_nodes, ct.hop_mults
        n_p = sc.n_procs
        fin_row = finish[b]
        asg_row = assigned[b]
        ptf_row = proc_task_free[b]
        t_now = now[b]
        for ti, proc in zip(T.tolist(), P.tolist()):
            data_ready = t_now
            for e in range(pred_indptr[ti], pred_indptr[ti + 1]):
                pred = pred_ids[e]
                src = int(asg_row[pred])
                send_time = fin_row[pred]
                if src == proc:
                    arrival = send_time
                else:
                    weight = weights[e]
                    cf = comm_free[src]
                    send_start = send_time if send_time >= cf else cf
                    end = send_start + sigma
                    if end > cf:
                        comm_free[src] = end
                    at_node = send_start + sigma
                    base = route_indptr[src * n_p + proc]
                    top = route_indptr[src * n_p + proc + 1]
                    last = top - 1
                    for h in range(base, top):
                        lid = hop_links[h]
                        lf = link_free[lid]
                        hop_start = at_node if at_node >= lf else lf
                        hop_end = hop_start + (
                            weight if unit_links else weight * hop_mults[h]
                        )
                        link_free[lid] = hop_end
                        at_node = hop_end
                        if h < last:
                            nb = hop_nodes[h]
                            routed = hop_end + tau
                            if routed > comm_free[nb]:
                                comm_free[nb] = routed
                            at_node = routed
                    arrival = at_node
                if arrival > data_ready:
                    data_ready = arrival
            start = max(t_now, data_ready, comm_free[proc], ptf_row[proc])
            fin = start + durations[ti] / speeds[proc]
            ptf_row[proc] = fin
            fin_row[ti] = fin
            proc_fin[b, proc] = fin

    def assign_per_lane(
        b: int, triples: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> None:
        """One lane's epoch through fast_assign, else a materialized context."""
        nb = int(n_tasks[b])
        pb = int(n_procs[b])
        sc = scenarios[b]
        pol = policies[b]
        t_now = float(now[b])
        ready_b = np.flatnonzero(ready_mask[b, :nb])
        idle_b = np.flatnonzero(occupant[b, :pb] < 0)
        # A busy processor frees exactly when its running task finishes, so
        # its solo proc_ready value *is* proc_task_free; idle slots read the
        # epoch time — the row the solo engine would hand the policy.
        pr_row = np.where(occupant[b, :pb] < 0, t_now, proc_task_free[b, :pb])
        assignment: Optional[Dict[int, ProcId]] = None
        if has_fast[b]:
            packet = FastPacket(
                time=t_now,
                ready=ready_b.tolist(),
                idle=idle_b.tolist(),
                scenario=sc,
                assigned_proc=assigned[b, :nb],
                finish_times=finish[b, :nb],
                proc_ready_time=pr_row,
            )
            assignment = pol.fast_assign(packet)
            if assignment is not None:
                _validate_fast_assignment(
                    t_now,
                    unfinished[b, :nb],
                    assigned[b, :nb],
                    occupant[b, :pb],
                    assignment,
                )
        if assignment is None:
            n_fallback[b] += 1
            levels_map = dict(zip(sc.task_ids, sc.levels_list))
            proc_ready_map = dict(enumerate(pr_row.tolist()))
            ctx = PacketContext(
                time=t_now,
                ready_tasks=[sc.task_ids[k] for k in ready_b.tolist()],
                idle_processors=idle_b.tolist(),
                graph=sc.graph,
                machine=sc.machine,
                levels=levels_map,
                task_processor=MappingProxyType(ctx_task_processor[b]),
                finish_times=MappingProxyType(ctx_finish[b]),
                comm_model=sc.comm_model,
                processor_ready_time=MappingProxyType(proc_ready_map),
            )
            id_assignment = pol.assign(ctx)
            validate_assignment(ctx, id_assignment)
            assignment = {sc.index_of[t]: p for t, p in id_assignment.items()}
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
        for key, ids, cache in groups:
            gl = ids[ep_mask[ids]]
            if gl.size == 0:
                continue
            result = None
            if key[0] == "batch":
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
            if result is not None:
                L, T, P = (np.asarray(a, dtype=np.intp) for a in result)
                if len(L):
                    _validate_batch_assignment(
                        L, T, P, ready_mask, occupant, now
                    )
                    triples.append((L, T, P))
            else:
                for b in gl.tolist():
                    assign_per_lane(b, triples)
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
        cont_sel = cont_lane[L]
        if not cont_sel.all():
            sel = ~cont_sel
            place_latency(L[sel], T[sel], P[sel])
        if cont_sel.any():
            # Per lane, in the concatenation order (= the policy's placement
            # order within each lane).
            for b in np.unique(L[cont_sel]).tolist():
                sel = cont_sel & (L == b)
                place_contention(b, T[sel], P[sel])
        if ctx_lane[L].any():
            for b, ti, proc in zip(L.tolist(), T.tolist(), P.tolist()):
                if ctx_lane[b]:
                    sc = scenarios[b]
                    ctx_task_processor[b][sc.task_ids[ti]] = proc

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
            # the counter is not).
            became = np.unique(flat[unfinished_flat[flat] == 0])
            ready_mask.reshape(-1)[became] = True
            np.add(
                ready_count,
                np.bincount(became // n_max, minlength=n_lanes),
                out=ready_count,
            )
        if ctx_lane[lanes_f].any():
            for b, ti in zip(lanes_f.tolist(), tasks_f.tolist()):
                if ctx_lane[b]:
                    sc = scenarios[b]
                    ctx_finish[b][sc.task_ids[ti]] = float(finish[b, ti])
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
                n_fallback_epochs=int(n_fallback[b]),
                fidelity=fidelity,
            )
        )
    return results
