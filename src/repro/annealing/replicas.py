"""Multi-replica (multi-start) annealing summaries.

A multi-replica annealing run walks B independent replicas of the same
problem — one child RNG stream each, stepped one temperature at a time as
lanes of the array walk
(:func:`repro.core.array_annealer.anneal_replicas_batched`) — and commits
the best replica's result.  This module holds the replica-level bookkeeping
shared by that function and its consumers: the per-replica statistics record,
the deterministic best-replica selection rule, and a small summary helper
for variance studies (the new capability multi-start opens beyond raw
speed: B independent end costs of the *same* packet quantify how sensitive
the annealer is to its stream).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ReplicaStats", "best_replica_index", "summarize_replicas"]


@dataclass(frozen=True)
class ReplicaStats:
    """Outcome summary of one replica of a batched annealing run.

    ``temperature_trajectory`` holds one ``(temperature, cost)`` sample per
    temperature step (the post-resync cost the stopping rule saw); it is
    populated by ``anneal_replicas_batched``'s stepped lanes and empty on
    the scalar fallback paths.  ``final_cost`` is ``None`` on paths that only surface
    the elitist best state (the reference / trajectory-recording fallbacks).
    """

    replica: int
    best_cost: float
    initial_cost: float
    final_cost: Optional[float]
    n_proposals: int
    n_accepted: int
    n_temperature_steps: int
    temperature_trajectory: Tuple[Tuple[float, float], ...] = field(default=())
    #: portfolio racing only: was this lane culled at a rung boundary?
    culled: bool = False
    #: portfolio racing only: the lane's final temperature-step budget
    #: (after reallocation); ``None`` outside portfolio runs.
    budget: Optional[int] = None

    @property
    def improvement(self) -> float:
        """Cost decrease relative to this replica's seed mapping."""
        return self.initial_cost - self.best_cost


def best_replica_index(best_costs: Sequence[float]) -> int:
    """Index of the winning replica: lowest best cost, ties to the lowest index.

    Deterministic by construction (pure comparison, no RNG), so batched runs
    commit the same replica on every rerun of the same seed.
    """
    if not best_costs:
        raise ValueError("best_replica_index needs at least one replica")
    best = 0
    for b in range(1, len(best_costs)):
        if best_costs[b] < best_costs[best]:
            best = b
    return best


def summarize_replicas(stats: Sequence[ReplicaStats]) -> Dict[str, float]:
    """Cross-replica dispersion of the best costs (variance-study headline).

    Plain aggregates — mean / min / max / spread / sample standard deviation
    — over ``best_cost``; NaN-free for a single replica (std reported as
    0.0).  Portfolio runs (any replica carrying a ``budget``) add the racing
    accounting: ``n_culled``, ``n_surviving``, ``total_budget`` (the
    post-reallocation step budgets summed) and ``steps_used`` (temperature
    steps actually walked, culled lanes truncated at their cull step).
    """
    if not stats:
        raise ValueError("summarize_replicas needs at least one replica")
    costs: List[float] = [s.best_cost for s in stats]
    n = len(costs)
    mean = sum(costs) / n
    if n > 1:
        var = sum((c - mean) ** 2 for c in costs) / (n - 1)
        std = var ** 0.5
    else:
        std = 0.0
    out = {
        "n_replicas": float(n),
        "mean_best_cost": mean,
        "std_best_cost": std,
        "min_best_cost": min(costs),
        "max_best_cost": max(costs),
        "spread": max(costs) - min(costs),
    }
    if any(s.budget is not None for s in stats):
        n_culled = sum(1 for s in stats if s.culled)
        out["n_culled"] = float(n_culled)
        out["n_surviving"] = float(n - n_culled)
        out["total_budget"] = float(sum(s.budget or 0 for s in stats))
        out["steps_used"] = float(sum(s.n_temperature_steps for s in stats))
    return out
