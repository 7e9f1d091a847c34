"""The Highest Level First (HLF) list scheduler — the paper's baseline.

HLF (Hu 1961; Adam, Chandy & Dickinson 1974) assigns, at every epoch, the
ready tasks with the highest *levels* to the idle processors.  The level of a
task is the accumulated execution time along the longest path from the task
to a leaf, so HLF always advances the critical path first.  The placement of
a selected task onto a *particular* idle processor is **arbitrary** in the
classical algorithm — the paper exploits exactly this: simulated annealing
chooses the processor (and, among equal-priority candidates, the task) to
minimize communication, HLF does not.

Three placement variants are provided:

* ``placement="arbitrary"`` (default, the paper's baseline): selected tasks
  are placed on a random permutation of the idle processors (seeded, so runs
  are reproducible).  This is the honest reading of "arbitrary": the
  scheduler has no reason to prefer any processor.
* ``placement="index"``: selected tasks fill idle processors in increasing
  index order.  On very regular graphs (e.g. Gauss–Jordan) this deterministic
  choice can accidentally create data affinity between iterations and is then
  *better* than a typical arbitrary placement — useful as an upper-bound
  variant in the baseline benchmarks, but not representative of classical HLF.
* ``placement="min_comm"``: a communication-aware refinement that greedily
  places each selected task on the idle processor minimizing the equation-4
  cost to its predecessors — shows how much of SA's gain a simple greedy fix
  recovers (ablation).  Cost ties are broken towards the faster processor (a
  no-op on homogeneous machines).
* ``placement="fastest"``: a heterogeneity-aware variant that places the
  highest-level selected tasks on the fastest idle processors (speed ties
  broken by processor index).  On homogeneous machines this degenerates to
  ``"index"``.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.schedulers.base import (
    PacketContext,
    SchedulingPolicy,
    fastest_first,
    nontrivial_ranks,
    rank_sorted,
)
from repro.utils.rng import SeedLike, as_rng

__all__ = ["HLFScheduler"]

TaskId = Hashable
ProcId = int

_PLACEMENTS = ("arbitrary", "index", "min_comm", "fastest")


class HLFScheduler(SchedulingPolicy):
    """Highest Level First list scheduling.

    Parameters
    ----------
    placement:
        ``"arbitrary"`` (default) — random placement on the idle processors;
        ``"index"`` — fill idle processors in index order;
        ``"min_comm"`` — greedy communication-aware placement;
        ``"fastest"`` — highest-level tasks on the fastest idle processors.
    seed:
        Seed for the arbitrary placement (ignored by the other variants).
    """

    def __init__(self, placement: str = "arbitrary", seed: SeedLike = 0) -> None:
        if placement not in _PLACEMENTS:
            raise ConfigurationError(
                f"placement must be one of {_PLACEMENTS}, got {placement!r}"
            )
        self.placement = placement
        self._seed = seed
        self._rng = as_rng(seed)
        if placement == "arbitrary":
            self.name = "HLF"
        elif placement == "index":
            self.name = "HLF/index"
        elif placement == "fastest":
            self.name = "HLF/fastest"
        else:
            self.name = "HLF/min-comm"

    def reset(self) -> None:
        """Re-seed the placement RNG so repeated runs are identical."""
        self._rng = as_rng(self._seed)

    def _select_tasks(self, ctx: PacketContext) -> List[TaskId]:
        """The ready tasks sorted by decreasing level, truncated to the idle count."""
        order = sorted(
            ctx.ready_tasks,
            key=lambda t: (-ctx.levels[t], ctx.ready_tasks.index(t)),
        )
        return order[: ctx.n_idle]

    def assign(self, ctx: PacketContext) -> Dict[TaskId, ProcId]:
        if ctx.n_idle == 0 or ctx.n_ready == 0:
            return {}
        selected = self._select_tasks(ctx)
        if self.placement == "index":
            return dict(zip(selected, ctx.idle_processors))
        if self.placement == "fastest":
            return dict(zip(selected, fastest_first(ctx.machine, ctx.idle_processors)))
        if self.placement == "arbitrary":
            procs = list(ctx.idle_processors)
            order = self._rng.permutation(len(procs))
            shuffled = [procs[int(i)] for i in order]
            return dict(zip(selected, shuffled))
        return self._assign_min_comm(ctx, selected)

    def fast_assign(self, packet) -> Optional[Dict[int, ProcId]]:
        """Index-space HLF: stable level argsort + the placement kernels.

        Consumes exactly the RNG draws of the object path (one
        ``permutation(n_idle)`` per epoch for ``"arbitrary"``), so a run is
        bit-identical whichever engine drives the policy.
        """
        if packet.n_idle == 0 or packet.n_ready == 0:
            return {}
        sc = packet.scenario
        levels = sc.levels_list
        # Stable sort on -level == sorted by (-level, ready position).
        selected = sorted(packet.ready, key=lambda ti: -levels[ti])[: packet.n_idle]
        idle = packet.idle
        if self.placement == "index":
            return dict(zip(selected, idle))
        if self.placement == "fastest":
            speeds = sc.speeds_list
            procs = sorted(idle, key=lambda p: (-speeds[p], p))
            return dict(zip(selected, procs))
        if self.placement == "arbitrary":
            perm = self._rng.permutation(len(idle))
            return dict(zip(selected, (idle[int(i)] for i in perm)))
        return self._fast_min_comm(packet, selected)

    def batch_assign(self, epoch, policies):
        """Lane-batched HLF: precomputed level ranks + vectorized placement.

        Selection is one rank-gather argsort per epoch (see
        :func:`~repro.schedulers.base.stacked_ranks` — equal levels keep
        index order exactly like the solo stable sort); ``"index"`` places
        straight onto the padded idle rows, ``"fastest"`` through the
        speed-rank table, and ``"arbitrary"`` draws each lane's
        ``permutation(n_idle)`` from that lane's own RNG — the solo draw,
        stream for stream.  ``"min_comm"`` declines (before any draw): its
        sequential greedy runs per lane through :meth:`fast_assign`.
        """
        if self.placement == "min_comm":
            return None
        st = epoch.stacked
        lanes = epoch.lanes
        ranks = epoch.cache.get("ranks")
        if ranks is None:
            ranks = epoch.cache["ranks"] = (
                nontrivial_ranks(-st.levels, st.task_valid),
                nontrivial_ranks(-st.speeds, st.proc_valid)
                if self.placement == "fastest"
                else None,
            )
        level_rank, speed_rank = ranks
        ready_pad, rvalid, rcounts = epoch.ready_padded()
        idle_pad, ivalid, icounts = epoch.idle_padded()
        tasks_sel = (
            ready_pad
            if level_rank is None
            else rank_sorted(ready_pad, rvalid, level_rank, lanes)
        )
        if self.placement == "index" or (
            self.placement == "fastest" and speed_rank is None
        ):
            procs_sel = idle_pad
        elif self.placement == "fastest":
            procs_sel = rank_sorted(idle_pad, ivalid, speed_rank, lanes)
        else:  # arbitrary
            # One permutation draw per lane (the solo stream), one batched
            # gather for all of them.  ``shuffle(arange(n))`` is exactly
            # ``permutation(n)`` stream-wise, and a length-0/1 shuffle
            # consumes no stream state at all, so those lanes skip the call.
            col = np.tile(
                np.arange(idle_pad.shape[1], dtype=np.intp), (len(lanes), 1)
            )
            for row, n_idle in enumerate(icounts.tolist()):
                if n_idle > 1:
                    perm = np.arange(n_idle, dtype=np.intp)
                    policies[row]._rng.shuffle(perm)
                    col[row, :n_idle] = perm
            procs_sel = idle_pad[
                np.arange(len(lanes), dtype=np.intp)[:, None], col
            ]
        k = np.minimum(rcounts, icounts)
        li, pos = np.nonzero(np.arange(tasks_sel.shape[1])[None, :] < k[:, None])
        return lanes[li], tasks_sel[li, pos], procs_sel[li, pos]

    def _fast_min_comm(self, packet, selected: List[int]) -> Dict[int, ProcId]:
        """Greedy min-comm placement over the compiled equation-4 cost rows.

        Accumulates each candidate row in predecessor order (the float
        summation order of the scalar path) and scans free processors in
        order with the same ``cost < best or (cost == best and speed >
        best_speed)`` rule, so placements match the object path bit for bit.
        """
        sc = packet.scenario
        assignment: Dict[int, ProcId] = {}
        free: List[ProcId] = list(packet.idle)
        indptr, preds = sc.pred_indptr, sc.pred_ids
        for ti in selected:
            procs = np.asarray(free, dtype=np.intp)
            costs = np.zeros(len(free), dtype=np.float64)
            lo, hi = indptr[ti], indptr[ti + 1]
            if sc.wdist is not None and lo < hi:
                entries = np.arange(lo, hi)
                rows = sc.cost_rows(entries, packet.assigned_proc[preds[entries]])
                for row in rows[:, procs]:
                    costs = costs + row
            best_k = 0
            best_cost = float("inf")
            best_speed = 0.0
            for k, proc in enumerate(free):
                cost = costs[k]
                speed = sc.speeds[proc]
                if cost < best_cost or (cost == best_cost and speed > best_speed):
                    best_cost = cost
                    best_k = k
                    best_speed = speed
            assignment[ti] = free.pop(best_k)
        return assignment

    def _assign_min_comm(self, ctx: PacketContext, selected: List[TaskId]) -> Dict[TaskId, ProcId]:
        """Greedy communication-aware placement of the already-selected tasks.

        Cost ties go to the faster processor — inert on homogeneous machines
        (every speed is 1.0, so the first minimal-cost processor wins as
        before).
        """
        speed_of = getattr(ctx.machine, "speed_of", None)
        assignment: Dict[TaskId, ProcId] = {}
        free = list(ctx.idle_processors)
        for task in selected:
            preds = ctx.graph.predecessors(task)
            best_proc = free[0]
            best_cost = float("inf")
            best_speed = 0.0
            for proc in free:
                cost = 0.0
                for pred in preds:
                    src = ctx.task_processor.get(pred)
                    if src is None:
                        continue
                    cost += ctx.comm_model.cost(
                        ctx.machine, ctx.graph.comm(pred, task), src, proc
                    )
                speed = speed_of(proc) if speed_of is not None else 1.0
                if cost < best_cost or (cost == best_cost and speed > best_speed):
                    best_cost = cost
                    best_proc = proc
                    best_speed = speed
            assignment[task] = best_proc
            free.remove(best_proc)
        return assignment

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HLFScheduler(placement={self.placement!r})"
