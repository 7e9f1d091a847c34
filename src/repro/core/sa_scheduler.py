"""The staged simulated-annealing scheduling policy (paper §5).

``SAScheduler`` is a :class:`~repro.schedulers.base.SchedulingPolicy`: the
simulator calls :meth:`assign` at every assignment epoch, the scheduler forms
an annealing packet from the context, anneals it, and commits the best
mapping found.  Per-packet statistics (candidates, free processors,
iterations, cost improvements) are accumulated for the §6a analysis and the
Figure 1 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, List, Optional, Union

from repro.annealing.portfolio import PortfolioConfig
from repro.core.array_annealer import ReadyRowCache, compile_fast_packet
from repro.core.config import SAConfig
from repro.core.packet import AnnealingPacket
from repro.core.packet_annealer import PacketAnnealer, PacketAnnealingOutcome
from repro.schedulers.base import PacketContext, SchedulingPolicy
from repro.schedulers.etf import ETFScheduler
from repro.utils.rng import as_rng, spawn_rng

__all__ = ["SAScheduler", "PacketStats"]

TaskId = Hashable
ProcId = int


@dataclass(frozen=True)
class PacketStats:
    """Summary of one annealing packet, as discussed in the paper's §6a."""

    time: float
    n_ready: int
    n_idle: int
    n_assigned: int
    n_proposals: int
    n_accepted: int
    n_temperature_steps: int
    initial_cost: float
    best_cost: float

    @property
    def improvement(self) -> float:
        return self.initial_cost - self.best_cost


class SAScheduler(SchedulingPolicy):
    """Directed-taskgraph scheduling by per-packet simulated annealing.

    Parameters
    ----------
    config:
        The :class:`~repro.core.config.SAConfig`; defaults to the paper's
        configuration (equal weights, sigmoid acceptance, geometric cooling,
        5-iteration stall rule).

    Notes
    -----
    The scheduler is stateful across a run: it keeps per-packet statistics,
    the fast path's per-task row cache and, when
    ``config.record_trajectories`` is set, the full cost trajectory of every
    packet.  :meth:`reset` clears that state and re-seeds the RNG so that
    repeated simulations with the same seed are identical.
    """

    def __init__(self, config: Optional[SAConfig] = None) -> None:
        self.config = config or SAConfig.paper_defaults()
        self.name = "SA"
        self._annealer = PacketAnnealer(self.config)
        self._rng = as_rng(self.config.seed)
        self.packet_stats: List[PacketStats] = []
        self.packet_outcomes: List[PacketAnnealingOutcome] = []
        self._committed: Dict[TaskId, ProcId] = {}
        self._last_outcome: Optional[PacketAnnealingOutcome] = None
        self._fast_cache: Optional[ReadyRowCache] = None
        #: optional observer called with ``best_so_far(include_assignment=False)``
        #: after every committed packet — the anytime progress channel the
        #: scheduling service's long-running jobs report through.
        self.anytime_hook: Optional[Callable[[Dict[str, object]], None]] = None

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Clear accumulated statistics, drop the per-run row cache of the
        fast path and re-seed the internal RNG."""
        self._rng = as_rng(self.config.seed)
        self.packet_stats = []
        self.packet_outcomes = []
        self._committed = {}
        self._last_outcome = None
        self._fast_cache = None

    def with_replicas(self, replicas: int) -> "SAScheduler":
        """A new scheduler annealing *replicas* multi-start chains per packet.

        Fresh state and a fresh RNG; the original scheduler is untouched.
        The hook :class:`~repro.sim.engine.Simulator` uses for its
        ``replicas=`` knob.  The ``anytime_hook`` observer carries over, as
        in :meth:`with_portfolio`.
        """
        scheduler = SAScheduler(replace(self.config, replicas=replicas))
        scheduler.anytime_hook = self.anytime_hook
        return scheduler

    def with_portfolio(
        self, portfolio: Union[int, PortfolioConfig]
    ) -> "SAScheduler":
        """A new scheduler racing an anytime lane portfolio per packet.

        Fresh state and a fresh RNG; the original scheduler is untouched.
        The hook :class:`~repro.sim.engine.Simulator` uses for its
        ``portfolio=`` knob.  The ``anytime_hook`` observer carries over so
        progress streaming survives the simulator's internal policy copy.
        """
        scheduler = SAScheduler(
            replace(self.config, portfolio=portfolio, replicas=1)
        )
        scheduler.anytime_hook = self.anytime_hook
        return scheduler

    # ------------------------------------------------------------------ #
    def _record_outcome(
        self, time: float, packet, outcome: PacketAnnealingOutcome
    ) -> None:
        self.packet_stats.append(
            PacketStats(
                time=time,
                n_ready=packet.n_ready,
                n_idle=packet.n_idle,
                n_assigned=len(outcome.assignment),
                n_proposals=outcome.n_proposals,
                n_accepted=outcome.n_accepted,
                n_temperature_steps=outcome.n_temperature_steps,
                initial_cost=outcome.initial_cost,
                best_cost=outcome.best_cost,
            )
        )
        if self.config.record_trajectories:
            self.packet_outcomes.append(outcome)
        self._committed.update(outcome.assignment)
        self._last_outcome = outcome
        if self.anytime_hook is not None:
            self.anytime_hook(self.best_so_far(include_assignment=False))

    # ------------------------------------------------------------------ #
    def best_so_far(self, include_assignment: bool = True) -> Dict[str, object]:
        """The anytime snapshot: everything committed up to this moment.

        Safe to call mid-run (between packets): cumulative packet counters,
        the schedule assembled so far and — on portfolio runs — the last
        packet's champion summary (winning lane, its seed strategy, culling
        and budget-reallocation counters).  ``include_assignment=False``
        drops the task-to-processor mapping, leaving a flat dict of scalars
        that fits a progress message.
        """
        stats = self.packet_stats
        snapshot: Dict[str, object] = {
            "n_packets": len(stats),
            "n_tasks_assigned": len(self._committed),
            "total_initial_cost": float(sum(s.initial_cost for s in stats)),
            "total_best_cost": float(sum(s.best_cost for s in stats)),
            "total_improvement": float(sum(s.improvement for s in stats)),
        }
        last = self._last_outcome
        if last is not None and last.portfolio is not None:
            snapshot["last_packet"] = last.portfolio.best_so_far()
        if include_assignment:
            snapshot["assignment"] = dict(self._committed)
        return snapshot

    def _portfolio_seeds(
        self, compute
    ) -> Optional[Dict[str, Dict[TaskId, ProcId]]]:
        """The external seed assignments portfolio lanes may start from.

        ``compute`` produces the ETF solution for the current packet; it is
        only invoked when the portfolio actually has an ``"etf"`` lane.  ETF
        is deterministic and engine-bit-identical, so seeding from it keeps
        the object/fast differential contract intact.
        """
        portfolio = self.config.portfolio
        if portfolio is None or not portfolio.wants("etf"):
            return None
        return {"etf": compute()}

    # ------------------------------------------------------------------ #
    def assign(self, ctx: PacketContext) -> Dict[TaskId, ProcId]:
        if ctx.n_idle == 0 or ctx.n_ready == 0:
            return {}
        packet = AnnealingPacket.from_context(ctx)
        seeds = self._portfolio_seeds(lambda: ETFScheduler().assign(ctx))
        packet_rng = spawn_rng(self._rng, 1)[0]
        outcome = self._annealer.anneal(
            packet,
            ctx.machine,
            comm_model=ctx.comm_model,
            rng=packet_rng,
            seed_assignments=seeds,
        )
        if not outcome.assignment:
            # Progress guarantee: the paper's outer loop runs "until all tasks
            # are assigned", so an epoch with ready tasks and idle processors
            # must place at least one task.  A degenerate cost configuration
            # (e.g. a pure-communication cost, w_b = 0) can make the empty
            # mapping the cost optimum; fall back to the highest-level ready
            # task on the first idle processor in that case.
            top_task = max(ctx.ready_tasks, key=lambda t: ctx.levels[t])
            outcome.assignment = {top_task: ctx.idle_processors[0]}
        self._record_outcome(ctx.time, packet, outcome)
        return outcome.assignment

    # ------------------------------------------------------------------ #
    def fast_assign(self, packet) -> Optional[Dict[int, ProcId]]:
        """Index-space epoch assignment over the compiled scenario tables.

        Lowers the :class:`~repro.sim.compile.FastPacket` from per-task rows
        cached for the whole run, like ETF's arrival rows
        (:func:`~repro.core.array_annealer.compile_fast_packet`): an epoch
        with one idle processor becomes two columns
        (:class:`~repro.core.array_annealer.OneSlotPacket`), any other a
        kernel.  It then runs the same spawn / split / walk sequence as
        :meth:`assign`, so a fast-engine run commits bit-identical mappings
        and consumes the scheduler RNG identically.  Declines (before
        touching any stochastic state) for the reference path
        (``compiled=False``) and for trajectory-recording runs, which need
        the materialized context.
        """
        cfg = self.config
        if not cfg.compiled or cfg.record_trajectories:
            return None
        if packet.n_idle == 0 or packet.n_ready == 0:
            return {}
        cache = self._fast_cache
        if cache is None or cache.scenario is not packet.scenario:
            cache = self._fast_cache = ReadyRowCache(packet.scenario)
        lowered = compile_fast_packet(packet, cache, cfg.weight_balance, cfg.weight_comm)
        seeds = self._portfolio_seeds(lambda: ETFScheduler().fast_assign(packet))
        packet_rng = spawn_rng(self._rng, 1)[0]
        outcome = self._annealer.anneal_compiled(
            lowered, packet_rng, seed_assignments=seeds
        )
        if not outcome.assignment:
            # Progress guarantee, mirroring assign(): highest-level ready
            # task (first in ready order on ties) onto the first idle slot.
            levels = packet.scenario.levels_list
            top_task = max(packet.ready, key=lambda ti: levels[ti])
            outcome.assignment = {top_task: packet.idle[0]}
        self._record_outcome(packet.time, packet, outcome)
        return outcome.assignment

    # ------------------------------------------------------------------ #
    # Aggregate statistics (paper §6a narrative)
    # ------------------------------------------------------------------ #
    @property
    def n_packets(self) -> int:
        """Number of annealing packets formed so far."""
        return len(self.packet_stats)

    def average_candidates_per_packet(self) -> float:
        """Average number of ready tasks per packet (≈15 for the paper's NE run)."""
        if not self.packet_stats:
            return 0.0
        return sum(s.n_ready for s in self.packet_stats) / len(self.packet_stats)

    def average_idle_processors_per_packet(self) -> float:
        """Average number of free processors per packet (≈1.46 for the paper's NE run)."""
        if not self.packet_stats:
            return 0.0
        return sum(s.n_idle for s in self.packet_stats) / len(self.packet_stats)

    def total_proposals(self) -> int:
        return sum(s.n_proposals for s in self.packet_stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SAScheduler(w_b={self.config.weight_balance}, w_c={self.config.weight_comm})"
