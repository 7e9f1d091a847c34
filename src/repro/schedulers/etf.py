"""Earliest Task First (ETF)-style greedy scheduling with communication awareness.

This baseline approximates the ETF heuristic of Hwang et al.: among all
(ready task, idle processor) pairs it repeatedly picks the pair whose task
could *start* earliest, where the start time accounts for the arrival of
predecessor data under the equation-4 communication cost.  Ties are broken
first towards the faster processor (a no-op on homogeneous machines, where
every speed is 1.0), then by the higher task level.  ETF is a stronger
communication-aware greedy baseline than HLF and shows how much of the SA
gain a deterministic look-ahead already captures.

On heterogeneous machines the communication cost already reflects weighted
links (through the machine's weighted distances), and the speed tie-break
steers equal-earliest-start candidates onto fast processors, which is where
ETF-style earliest-start heuristics recover most of the heterogeneity gain.

The object path (:meth:`~ETFScheduler.assign`) is a matrix kernel.
Earliest starts are *epoch-invariant*: nothing assigned during the epoch
changes the arrival of a ready task's (already finished) predecessors, so
the ``(ready × idle)`` earliest-start matrix is computed once per
:meth:`~ETFScheduler.assign` and the greedy loop reduces to scanning a
single lexicographic order (:func:`greedy_pair_order`) — repeated masked
argmin over a static key is exactly "take the first unused (task,
processor) pair in that order".  The historical
O(ready²·idle²·preds) rescan-and-``list.remove`` loop produced identical
assignments and survives only in the differential tests.

The fast engine's kernel (:meth:`~ETFScheduler.fast_assign`) keeps no
matrix.  A ready task's arrival row is a run-long invariant, so it is
built once, in Python floats, and the task enters every processor's heaps;
an epoch's pairs are repeated minima over the idle processors' heap heads
— the same pairs, in the same order, as :func:`greedy_pair_order`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.schedulers.base import PacketContext, SchedulingPolicy

__all__ = ["ETFScheduler", "greedy_pair_order", "batch_greedy_pairs"]

TaskId = Hashable
ProcId = int


def greedy_pair_order(
    est: np.ndarray, proc_speeds: np.ndarray, task_levels: np.ndarray
) -> List[Tuple[int, int]]:
    """Greedy ETF matching over a static ``(n_tasks, n_procs)`` key matrix.

    Returns up to ``min(n_tasks, n_procs)`` positional ``(task_row,
    proc_col)`` pairs, selected as if by repeatedly taking the masked argmin
    of the key ``(est, -speed, -level, task_row, proc_col)`` and retiring the
    chosen row and column.  Because the keys never change within an epoch,
    that equals a single lexicographic sort followed by a first-fit scan
    (``np.lexsort`` is stable, so row-major order supplies the positional
    tie-breaks).
    """
    n_tasks, n_procs = est.shape
    neg_speed = np.tile(-proc_speeds, n_tasks)
    neg_level = np.repeat(-task_levels, n_procs)
    order = np.lexsort((neg_level, neg_speed, est.ravel()))
    pairs: List[Tuple[int, int]] = []
    used_rows = [False] * n_tasks
    used_cols = [False] * n_procs
    budget = min(n_tasks, n_procs)
    for flat in order.tolist():
        i, j = divmod(flat, n_procs)
        if used_rows[i] or used_cols[j]:
            continue
        used_rows[i] = True
        used_cols[j] = True
        pairs.append((i, j))
        if len(pairs) == budget:
            break
    return pairs


def batch_greedy_pairs(
    est: np.ndarray,
    neg_speed: np.ndarray,
    neg_level: np.ndarray,
    alive: np.ndarray,
    budget: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lane-parallel :func:`greedy_pair_order` over an ``(L, R, I)`` key tensor.

    Runs every lane's greedy ETF matching simultaneously.  The key
    ``(est, -speed, -level, row-major position)`` is static within the
    epoch, so it is rank-compressed once — a per-lane stable ``lexsort``
    whose positional fall-back is exactly the solo scan's tie-break — and
    each greedy pass is then a single masked *integer* argmin: pass *k*
    yields every lane's *k*-th pair, with the chosen row and column retired,
    which per lane reproduces the solo first-fit scan over the sorted order.
    The pass count is the largest per-lane pair count (at most
    ``min(R, I)``), not the pair total.  Returns ``(lane_rows, task_rows,
    proc_cols)`` positional triples in pass order; *alive* and *budget* are
    consumed.
    """
    n_rows, _, width_i = est.shape
    m = est.shape[1] * width_i
    order = np.lexsort(
        (
            np.broadcast_to(neg_level[:, :, None], est.shape).reshape(n_rows, m),
            np.broadcast_to(neg_speed[:, None, :], est.shape).reshape(n_rows, m),
            est.reshape(n_rows, m),
        ),
        axis=-1,
    )
    # int32 ranks: half the memory traffic of the per-pass argmins, and any
    # realistic epoch has far fewer than 2**31 (task, processor) pairs.
    rank = np.empty((n_rows, m), dtype=np.int32)
    rank[np.arange(n_rows)[:, None], order] = np.arange(m, dtype=np.int32)[None, :]
    # Retirement happens in the rank domain: dead cells are bumped to m
    # (past every live rank), so each pass is one argmin with no rebuilt
    # key tensor.
    cur = np.where(alive.reshape(n_rows, m), rank, np.int32(m))
    col_block = np.arange(width_i, dtype=np.intp)
    row_block = np.arange(est.shape[1], dtype=np.intp) * width_i
    out_l: List[np.ndarray] = []
    out_r: List[np.ndarray] = []
    out_c: List[np.ndarray] = []
    # Most lanes pair off in a couple of passes (the budget is the idle
    # count, usually small); the long tail belongs to a few lanes.  Each
    # pass therefore argmins only over the still-live lane rows, and lanes
    # leave `live` — instead of having their row blanked — the moment their
    # budget is spent or no alive cell remains.
    live = np.arange(n_rows, dtype=np.intp)
    while live.size:
        sub = cur if live.size == n_rows else cur[live]
        first = sub.argmin(axis=1)
        keep = sub[np.arange(live.size, dtype=np.intp), first] < m
        if not keep.all():
            live = live[keep]
            if not live.size:
                break
            first = first[keep]
        rows = first // width_i
        cols = first % width_i
        out_l.append(live)
        out_r.append(rows)
        out_c.append(cols)
        cur[live[:, None], rows[:, None] * width_i + col_block[None, :]] = m
        cur[live[:, None], cols[:, None] + row_block[None, :]] = m
        budget[live] -= 1
        cont = budget[live] > 0
        if not cont.all():
            live = live[cont]
    if not out_l:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, empty
    return np.concatenate(out_l), np.concatenate(out_r), np.concatenate(out_c)


class _HeapRun:
    """The run-long state of :meth:`ETFScheduler.fast_assign`.

    ``status[t]`` is 0 until task *t* is first seen ready, 1 while it is
    queued and 2 once placed.  A queued task sits in every processor's
    heaps: in ``later[p]`` as ``(row[p], -level, t)`` while its data reaches
    *p* after the epoch time, and in ``at_now[p]`` as ``(-level, t)`` once
    it can start on *p* at the epoch time.  Placed tasks leave the heaps
    lazily, when they surface at a head.
    """

    __slots__ = (
        "scenario", "status", "n_queued", "later", "at_now", "neg_level",
        "neg_speed", "pair_costs",
    )

    def __init__(self, scenario) -> None:
        n_procs = scenario.n_procs
        self.scenario = scenario
        self.status = bytearray(scenario.n_tasks)
        self.n_queued = 0
        self.later: List[list] = [[] for _ in range(n_procs)]
        self.at_now: List[list] = [[] for _ in range(n_procs)]
        self.neg_level = [-level for level in scenario.levels_list]
        self.neg_speed = [-speed for speed in scenario.speeds_list]
        # Per source processor, the equation-4 machine terms towards every
        # destination: (wdist, routing, setup).  None for the zero model.
        self.pair_costs = None
        if scenario.wdist is not None:
            self.pair_costs = [
                list(zip(wd, rt, su))
                for wd, rt, su in zip(
                    scenario.wdist.tolist(),
                    scenario.routing.tolist(),
                    scenario.setup.tolist(),
                )
            ]

    def queue(self, tasks: List[int], packet) -> None:
        """Build the arrival rows of newly ready *tasks* and push them.

        ``row[p]`` is the latest ``finish + cost`` over the task's
        predecessors were it placed on *p*, each cost in the engine's
        ``(w * wdist + routing) + setup`` order, so it is bit-identical to
        the scalar path (``max`` is exact, so accumulation order is free).
        """
        sc = self.scenario
        now = packet.time
        n_procs = sc.n_procs
        indptr, pred_ids = sc.pred_indptr_list, sc.pred_ids_list
        weights = sc.pred_weights_list
        finish = memoryview(packet.finish_times)
        assigned = memoryview(packet.assigned_proc)
        costs = self.pair_costs
        later, at_now = self.later, self.at_now
        status, neg_level = self.status, self.neg_level
        for t in tasks:
            nl = neg_level[t]
            lo, hi = indptr[t], indptr[t + 1]
            if costs is None:
                arrive = max((finish[pred_ids[e]] for e in range(lo, hi)), default=now)
                row = [arrive] * n_procs
            elif lo == hi:
                row = [now] * n_procs
            else:
                pred = pred_ids[lo]
                fin, w = finish[pred], weights[lo]
                row = [fin + ((w * a + b) + c) for a, b, c in costs[assigned[pred]]]
                for e in range(lo + 1, hi):
                    pred = pred_ids[e]
                    fin, w = finish[pred], weights[e]
                    row = [
                        r if r >= (v := fin + ((w * a + b) + c)) else v
                        for r, (a, b, c) in zip(row, costs[assigned[pred]])
                    ]
            entry = (nl, t)
            for r, cur, fut in zip(row, at_now, later):
                if r <= now:
                    heappush(cur, entry)
                else:
                    heappush(fut, (r, nl, t))
            status[t] = 1
        self.n_queued += len(tasks)

    def head(self, p: int, now: float) -> Optional[tuple]:
        """The greedy key ``(est, -speed, -level, task, proc)`` of *p*'s best task.

        First moves the tasks whose data has reached *p* by *now* from
        ``later[p]`` to ``at_now[p]``; ``None`` when no task is queued.
        """
        status = self.status
        cur, fut = self.at_now[p], self.later[p]
        while fut and fut[0][0] <= now:
            _, nl, t = heappop(fut)
            if status[t] == 1:
                heappush(cur, (nl, t))
        while cur:
            nl, t = cur[0]
            if status[t] == 1:
                return (now, self.neg_speed[p], nl, t, p)
            heappop(cur)
        while fut:
            r, nl, t = fut[0]
            if status[t] == 1:
                return (r, self.neg_speed[p], nl, t, p)
            heappop(fut)
        return None


class ETFScheduler(SchedulingPolicy):
    """Greedy earliest-start-time scheduling over the current packet.

    The selection key is ``(earliest start, -processor speed, -task level,
    tie indices)``: equal earliest starts prefer the faster processor, then
    the higher level.  On homogeneous machines every speed is 1.0, so the
    ordering reduces exactly to the classical earliest-start / higher-level
    rule.
    """

    name = "ETF"

    def __init__(self) -> None:
        self._fast_cache: Optional[_HeapRun] = None

    def reset(self) -> None:
        """Drop the per-run heaps of the fast path."""
        self._fast_cache = None

    def _earliest_start(self, ctx: PacketContext, task: TaskId, proc: ProcId) -> float:
        """Estimated earliest start of *task* on *proc* given predecessor placements."""
        start = ctx.time
        for pred in ctx.graph.predecessors(task):
            src = ctx.task_processor.get(pred)
            finish = ctx.finish_times.get(pred, ctx.time)
            if src is None:
                arrival = finish
            else:
                arrival = finish + ctx.comm_model.cost(
                    ctx.machine, ctx.graph.comm(pred, task), src, proc
                )
            if arrival > start:
                start = arrival
        return start

    def _earliest_start_matrix(self, ctx: PacketContext) -> np.ndarray:
        """The ``(n_ready, n_idle)`` matrix of :meth:`_earliest_start` values.

        Each row accumulates ``max(finish + cost_row(...))`` over the task's
        predecessors; ``cost_row`` is bit-identical to the scalar ``cost``
        and ``max`` is exact, so every entry equals the scalar helper's
        value bit for bit.
        """
        procs = np.asarray(ctx.idle_processors, dtype=np.intp)
        est = np.full((ctx.n_ready, ctx.n_idle), ctx.time, dtype=np.float64)
        for i, task in enumerate(ctx.ready_tasks):
            row = est[i]
            for pred in ctx.graph.predecessors(task):
                src = ctx.task_processor.get(pred)
                finish = ctx.finish_times.get(pred, ctx.time)
                if src is None:
                    np.maximum(row, finish, out=row)
                else:
                    arrivals = finish + ctx.comm_model.cost_row(
                        ctx.machine, ctx.graph.comm(pred, task), src, procs
                    )
                    np.maximum(row, arrivals, out=row)
        return est

    def assign(self, ctx: PacketContext) -> Dict[TaskId, ProcId]:
        if ctx.n_idle == 0 or ctx.n_ready == 0:
            return {}
        est = self._earliest_start_matrix(ctx)
        speed_of = getattr(ctx.machine, "speed_of", None)
        if speed_of is None:
            speeds = np.ones(ctx.n_idle, dtype=np.float64)
        else:
            speeds = np.array([speed_of(p) for p in ctx.idle_processors], dtype=np.float64)
        levels = np.array([ctx.levels[t] for t in ctx.ready_tasks], dtype=np.float64)
        return {
            ctx.ready_tasks[i]: ctx.idle_processors[j]
            for i, j in greedy_pair_order(est, speeds, levels)
        }

    def fast_assign(self, packet) -> Optional[Dict[int, ProcId]]:
        """Index-space ETF: per-processor heaps over run-long arrival rows.

        A ready task's predecessor-arrival row (latest ``finish + cost`` per
        processor) is a run-long invariant — every predecessor has finished
        and placements never change — so each row is built once, the first
        epoch its task shows up ready, and the task enters every
        processor's heaps (see :class:`_HeapRun`).  The earliest start on
        *p* is ``max(now, row[p])``: ``now`` for the tasks in ``at_now[p]``,
        ordered by ``(-level, task)``, and ``row[p]`` for the tasks in
        ``later[p]``, which move to ``at_now[p]`` once ``now`` reaches it.
        Each pair is then the minimum of the idle processors' heads under
        ``(est, -speed, -level, task, proc)``: exactly the first-fit scan of
        :func:`greedy_pair_order`, pair for pair and in its order, at a cost
        of O(idle²) heads per epoch instead of a ``ready × idle`` sort.
        """
        if packet.n_idle == 0 or packet.n_ready == 0:
            return {}
        sc = packet.scenario
        now = packet.time
        run = self._fast_cache
        if run is None or run.scenario is not sc:
            run = self._fast_cache = _HeapRun(sc)
        ready = packet.ready
        # Queued tasks stay ready until placed, so equal counts mean that no
        # task is newly ready.
        if len(ready) != run.n_queued:
            status = run.status
            fresh = [t for t in ready if status[t] != 1]
            if any(status[t] for t in fresh):
                # A placed task is ready again: this is a new run.
                run = self._fast_cache = _HeapRun(sc)
                fresh = list(ready)
            run.queue(fresh, packet)
        # Every ready task is queued on every processor, so each idle
        # processor has a head until the epoch's pairs are all taken.
        head = run.head
        heads = {p: head(p, now) for p in packet.idle}
        budget = min(len(ready), len(heads))
        status = run.status
        assignment: Dict[int, ProcId] = {}
        while True:
            _, _, _, task, proc = min(heads.values())
            assignment[task] = proc
            status[task] = 2
            if len(assignment) == budget:
                break
            del heads[proc]
            for p, key in heads.items():
                if key[3] == task:
                    heads[p] = head(p, now)
        run.n_queued -= budget
        return assignment

    def batch_assign(self, epoch, policies):
        """Lane-batched ETF: shared arrival-row cache + parallel greedy passes.

        The solo kernel's run-long arrival-row invariant lifts lane-wise: a
        ``(B, n_max, p_max)`` row cache lives in the group's epoch cache,
        missing ``(lane, task)`` rows are filled by one batched gather the
        first epoch the task shows up ready, and the greedy matching of all
        lanes resolves together in :func:`batch_greedy_pairs` — per lane the
        same pairs, in the same order, as :func:`greedy_pair_order`.
        """
        st = epoch.stacked
        lanes = epoch.lanes
        cached = epoch.cache.get("rows")
        if cached is None:
            cached = epoch.cache["rows"] = (
                np.zeros((st.n_lanes, st.n_max), dtype=bool),
                np.empty((st.n_lanes, st.n_max, st.p_max), dtype=np.float64),
            )
        have, rows = cached
        ready_pad, rvalid, rcounts = epoch.ready_padded()
        idle_pad, ivalid, icounts = epoch.idle_padded()
        pair_lanes = np.repeat(lanes, rcounts)
        pair_tasks = ready_pad[rvalid]  # row-major: matches the repeat order
        need = ~have[pair_lanes, pair_tasks]
        if need.any():
            new_lanes, new_tasks = pair_lanes[need], pair_tasks[need]
            rows[new_lanes, new_tasks] = epoch.arrival_rows(new_lanes, new_tasks)
            have[new_lanes, new_tasks] = True
        est = rows[lanes[:, None, None], ready_pad[:, :, None], idle_pad[:, None, :]]
        est = np.maximum(est, epoch.now[:, None, None])
        neg_speed = np.where(ivalid, -st.speeds[lanes[:, None], idle_pad], np.inf)
        neg_level = np.where(rvalid, -st.levels[lanes[:, None], ready_pad], np.inf)
        alive = rvalid[:, :, None] & ivalid[:, None, :]
        budget = np.minimum(rcounts, icounts).astype(np.intp)
        sel_l, sel_r, sel_c = batch_greedy_pairs(
            est, neg_speed, neg_level, alive, budget
        )
        return lanes[sel_l], ready_pad[sel_l, sel_r], idle_pad[sel_l, sel_c]
