"""Heterogeneous annealing-lane portfolios with successive-halving racing.

PR 7's cross-family study showed fixed-budget SA losing to ETF on every
>=1000-task family: one cooling schedule and one HLF seed per packet is not
enough diversity.  A *portfolio* runs ``lanes`` heterogeneous annealing
chains over the same packet, each an array walk that
:func:`repro.core.array_annealer.anneal_replicas_batched` steps one
temperature at a time, where each lane varies three axes:

* **cooling schedule** — any :class:`~repro.annealing.cooling.CoolingSchedule`
  (geometric at several rates, linear, logarithmic);
* **initial assignment** — ``"hlf"`` (the paper's level-sorted seed),
  ``"random"``, or ``"etf"`` (seeded from the ETF scheduler's solution for
  the same packet, computed through its existing kernels);
* **perturbation scale** — a multiplier on the configured initial
  temperature (hotter lanes explore, colder lanes refine).

A :class:`SuccessiveHalvingController` races the lanes: at every ``rung``-th
temperature step it ranks the still-walking lanes by the best cost recorded
in their per-temperature trajectories (the same samples
:class:`~repro.annealing.replicas.ReplicaStats` keeps), culls the worse half
and reallocates the freed draw budget — the culled lanes' unused temperature
steps plus anything left behind by naturally-stalled lanes — evenly across
the survivors (remainder to the lowest lane indices).  All decisions derive
only from recorded costs with ties broken toward the lowest lane index
(mirroring :func:`~repro.annealing.replicas.best_replica_index`), so a
portfolio run is bit-reproducible under fixed seeds and each lane replays
exactly as a scalar single-chain walk on its own child stream.

This module is deliberately free of ``repro.core`` imports so that
``repro.core.config`` can depend on it without a cycle;
``anneal_replicas_batched`` consumes the :class:`LanePlan` duck-typed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.annealing.cooling import (
    CoolingSchedule,
    GeometricCooling,
    LinearCooling,
    LogarithmicCooling,
)
from repro.exceptions import ConfigurationError

__all__ = [
    "DEFAULT_LANE_AXES",
    "LaneSpec",
    "LanePlan",
    "PortfolioConfig",
    "PortfolioReport",
    "RungDecision",
    "SuccessiveHalvingController",
]

#: initial-assignment strategies a lane may use (superset of SAConfig's
#: ``initial_mapping`` choices: ``"etf"`` seeds from the ETF solution).
LANE_INITIAL_CHOICES = ("hlf", "random", "etf", "empty")

#: The default lane axes: ``(cooling, initial assignment, temperature scale)``
#: triples, cycled when ``lanes`` exceeds their count.  Lane 0 is always the
#: paper's exact configuration (geometric 0.9 from the HLF seed at scale 1)
#: so the portfolio never does worse than the baseline chain on stream 0;
#: the rest mix slower/faster coolings, ETF and random seeds, and hotter or
#: colder starts.
DEFAULT_LANE_AXES: Tuple[Tuple[CoolingSchedule, str, float], ...] = (
    (GeometricCooling(0.9), "hlf", 1.0),
    (GeometricCooling(0.9), "etf", 1.0),
    (GeometricCooling(0.95), "etf", 0.5),
    (GeometricCooling(0.8), "random", 1.0),
    (LinearCooling(step=0.05), "hlf", 1.0),
    (GeometricCooling(0.85), "random", 2.0),
    (LogarithmicCooling(), "etf", 0.5),
    (LinearCooling(step=0.025), "random", 1.0),
)


@dataclass(frozen=True)
class LaneSpec:
    """One lane's point on the portfolio's three axes."""

    lane: int
    cooling: CoolingSchedule
    initial: str
    temperature_scale: float


@dataclass(frozen=True)
class PortfolioConfig:
    """Portfolio shape: lane count, rung cadence, and the lane axes.

    ``base_budget`` is the per-lane temperature-step budget before any
    reallocation; ``None`` inherits ``SAConfig.max_temperature_steps`` so a
    portfolio of B lanes starts from exactly the draw budget of a fixed
    ``replicas=B`` run.
    """

    lanes: int = 8
    rung: int = 10
    base_budget: Optional[int] = None
    axes: Tuple[Tuple[CoolingSchedule, str, float], ...] = DEFAULT_LANE_AXES

    def __post_init__(self) -> None:
        if not isinstance(self.lanes, int) or self.lanes < 2:
            raise ConfigurationError(
                f"portfolio lanes must be an int >= 2, got {self.lanes!r}"
            )
        if not isinstance(self.rung, int) or self.rung < 1:
            raise ConfigurationError(
                f"portfolio rung must be an int >= 1, got {self.rung!r}"
            )
        if self.base_budget is not None and (
            not isinstance(self.base_budget, int) or self.base_budget < 1
        ):
            raise ConfigurationError(
                f"portfolio base_budget must be an int >= 1 or None, "
                f"got {self.base_budget!r}"
            )
        if not self.axes:
            raise ConfigurationError("portfolio axes must be non-empty")
        for axis in self.axes:
            cooling, initial, scale = axis
            if not isinstance(cooling, CoolingSchedule):
                raise ConfigurationError(
                    f"lane axis cooling must be a CoolingSchedule, got {cooling!r}"
                )
            if initial not in LANE_INITIAL_CHOICES:
                raise ConfigurationError(
                    f"lane initial must be one of {LANE_INITIAL_CHOICES}, "
                    f"got {initial!r}"
                )
            if not float(scale) > 0:
                raise ConfigurationError(
                    f"lane temperature scale must be > 0, got {scale!r}"
                )

    def lane_specs(self) -> Tuple[LaneSpec, ...]:
        """The per-lane axis assignment: ``axes`` cycled over ``lanes``."""
        specs = []
        for b in range(self.lanes):
            cooling, initial, scale = self.axes[b % len(self.axes)]
            specs.append(
                LaneSpec(
                    lane=b,
                    cooling=cooling,
                    initial=initial,
                    temperature_scale=float(scale),
                )
            )
        return tuple(specs)

    def wants(self, initial: str) -> bool:
        """Whether any lane uses the given initial-assignment strategy."""
        return any(spec.initial == initial for spec in self.lane_specs())


@dataclass(frozen=True)
class RungDecision:
    """One rung boundary's audit record (all lanes, recorded costs only)."""

    step: int  #: temperature step at which the rung fired
    metrics: Tuple[Tuple[int, float], ...]  #: (lane, best recorded cost) ranked
    culled: Tuple[int, ...]  #: lanes culled at this rung
    survivors: Tuple[int, ...]  #: lanes still walking after the cull
    reallocated: int  #: temperature steps moved to the survivors
    budgets: Tuple[int, ...]  #: per-lane budgets after reallocation


class SuccessiveHalvingController:
    """Deterministic successive-halving over recorded lane trajectories.

    ``anneal_replicas_batched`` calls :meth:`on_step` once per temperature
    step, after its own stall/budget stopping has retired lanes.  At rung
    boundaries (``step % rung == 0``) the still-walking lanes are ranked by
    the best cost in their recorded trajectory (ties to the lowest lane
    index), the worse half is culled, and the freed budget — culled lanes'
    remaining steps plus the unspent steps of lanes that stopped naturally
    since the last rung — is split evenly across the survivors, remainder to
    the lowest-indexed ones.  Budgets are mutated in place; the lanes' stop
    condition reads them every step.
    """

    def __init__(self, rung: int, n_lanes: int):
        self.rung = int(rung)
        self.n_lanes = int(n_lanes)
        self.rungs: List[RungDecision] = []
        self.n_culled = 0
        self.budget_reallocated = 0
        self._credited: Set[int] = set()

    @staticmethod
    def metric(trajectory: Sequence[Tuple[float, float]]) -> float:
        """A lane's racing score: best (lowest) recorded per-temperature cost."""
        return min(cost for _, cost in trajectory)

    def on_step(
        self,
        step: int,
        active: Sequence[int],
        budgets: np.ndarray,
        n_iters: np.ndarray,
        trajectories: Sequence[Sequence[Tuple[float, float]]],
    ) -> List[int]:
        """Return the lanes to cull after temperature step ``step``."""
        if step % self.rung != 0 or not len(active):
            return []
        pool = 0
        for b in range(self.n_lanes):
            # Lanes that stopped on their own (stall) donate their unspent
            # budget; credit each stopped lane exactly once.
            if b in self._credited or int(n_iters[b]) == 0:
                continue
            pool += max(0, int(budgets[b]) - int(n_iters[b]))
            self._credited.add(b)
        ranked = sorted(
            ((self.metric(trajectories[b]), b) for b in active),
            key=lambda mb: (mb[0], mb[1]),
        )
        if len(active) > 1:
            keep = (len(active) + 1) // 2
            survivors = sorted(b for _, b in ranked[:keep])
            culled = sorted(b for _, b in ranked[keep:])
            for b in culled:
                pool += max(0, int(budgets[b]) - step)
                self._credited.add(b)
        else:
            survivors = [int(b) for b in active]
            culled = []
        if pool and survivors:
            share, rem = divmod(pool, len(survivors))
            for i, b in enumerate(survivors):
                budgets[b] += share + (1 if i < rem else 0)
            self.budget_reallocated += pool
        self.n_culled += len(culled)
        self.rungs.append(
            RungDecision(
                step=step,
                metrics=tuple((b, m) for m, b in ranked),
                culled=tuple(culled),
                survivors=tuple(survivors),
                reallocated=pool,
                budgets=tuple(int(x) for x in budgets),
            )
        )
        return culled


@dataclass
class LanePlan:
    """Per-lane walk parameters handed to ``anneal_replicas_batched``.

    ``problems[b]`` builds lane *b*'s initial state, ``coolings[b]`` /
    ``t0s[b]`` drive its temperature, ``budgets[b]`` is its (mutable)
    temperature-step budget, and ``controller`` is consulted once per step
    for rung culling.  It is read duck-typed: any object with these
    attributes works.
    """

    problems: Sequence[object]
    coolings: Sequence[CoolingSchedule]
    t0s: Sequence[float]
    budgets: np.ndarray
    controller: SuccessiveHalvingController
    specs: Tuple[LaneSpec, ...] = ()


@dataclass(frozen=True)
class PortfolioReport:
    """What the racing did: lane specs, rung decisions, champion, budgets."""

    specs: Tuple[LaneSpec, ...]
    rungs: Tuple[RungDecision, ...]
    champion: int  #: winning lane (elitist best cost, ties to lowest index)
    champion_cost: float
    n_culled: int
    budget_reallocated: int
    final_budgets: Tuple[int, ...]
    n_steps: Tuple[int, ...] = ()  #: temperature steps each lane actually ran

    def best_so_far(self) -> Dict[str, object]:
        """The anytime summary: current champion plus racing counters."""
        return {
            "lane": self.champion,
            "cost": self.champion_cost,
            "initial": self.specs[self.champion].initial,
            "n_lanes": len(self.specs),
            "n_culled": self.n_culled,
            "n_rungs": len(self.rungs),
            "budget_reallocated": self.budget_reallocated,
        }

    def champion_history(
        self,
        trajectories: Sequence[Sequence[Tuple[float, float]]],
    ) -> List[Tuple[int, int, float]]:
        """``(step, lane, cost)`` whenever the recorded-cost champion improved.

        Derived purely from per-temperature trajectory samples (the racing
        signal), so truncating the trajectories at any step yields the
        champion an observer polling ``best_so_far`` would have seen then.
        """
        history: List[Tuple[int, int, float]] = []
        best = float("inf")
        step = 0
        while True:
            seen = False
            champion = -1
            champion_cost = best
            for b, traj in enumerate(trajectories):
                if step < len(traj):
                    seen = True
                    cost = traj[step][1]
                    if cost < champion_cost:
                        champion, champion_cost = b, cost
            if not seen:
                return history
            if champion >= 0:
                best = champion_cost
                history.append((step + 1, champion, champion_cost))
            step += 1
