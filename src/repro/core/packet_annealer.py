"""Simulated annealing of one packet's mapping.

This wires the packet state space (:class:`~repro.core.packet.PacketMapping`),
move generator (:func:`~repro.core.moves.propose_move`) and cost function
(:class:`~repro.core.cost.PacketCostFunction`) into the generic
:class:`~repro.annealing.annealer.Annealer`, and can record the per-proposal
balance / communication / total cost trajectory that Figure 1 of the paper
plots.

:class:`PacketAnnealer` has two paths.  The reference path runs the generic
loop, over ``comm_model.cost()`` calls when the configuration's ``compiled``
flag is off and over the packet's compiled
:class:`~repro.core.kernel.PacketKernel` when it records a trajectory.  Every
other anneal enters :meth:`PacketAnnealer.anneal_compiled` and runs in the
kernel's *index space*: ready tasks and idle processors are renumbered as
dense integers, every move is scored by table lookup, the walks of
:mod:`repro.core.array_annealer` anneal the single chain and the replica or
portfolio lanes, and the winning mapping is translated back to
task/processor identifiers at the end.  The kernel and the walks reproduce
the reference evaluation bit for bit, so both paths accept exactly the same
moves for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, Hashable, List, Optional, Tuple, Union

import heapq

import numpy as np

from repro.annealing.acceptance import BoltzmannSigmoidAcceptance
from repro.annealing.annealer import Annealer
from repro.annealing.portfolio import (
    LanePlan,
    PortfolioReport,
    SuccessiveHalvingController,
)
from repro.annealing.problem import AnnealingProblem
from repro.annealing.replicas import ReplicaStats, best_replica_index
from repro.annealing.stopping import CombinedStopping, MaxIterationsStopping, StallStopping
from repro.comm.model import CommunicationModel
from repro.core.array_annealer import OneSlotPacket, anneal_array, anneal_replicas_batched
from repro.core.config import SAConfig
from repro.core.cost import CostBreakdown, PacketCostFunction
from repro.core.kernel import PacketKernel
from repro.core.moves import propose_move
from repro.core.packet import AnnealingPacket, PacketMapping
from repro.exceptions import ConfigurationError
from repro.utils.rng import as_rng, split

__all__ = [
    "PacketMappingProblem",
    "PacketAnnealer",
    "PacketAnnealingOutcome",
    "SeededMappingProblem",
    "TrajectoryPoint",
]

TaskId = Hashable
ProcId = int


@dataclass(frozen=True)
class TrajectoryPoint:
    """One sample of the per-packet cost trajectory (the curves of Figure 1)."""

    iteration: int
    temperature: float
    balance_cost: float
    communication_cost: float
    total_cost: float
    accepted: bool


@dataclass
class PacketAnnealingOutcome:
    """Result of annealing one packet.

    ``assignment`` is the best mapping found (what the scheduler commits),
    ``initial_cost`` the cost of the seed mapping, ``breakdown`` the component
    costs of the best mapping, and ``trajectory`` the per-proposal component
    costs when trajectory recording was requested.

    For batched runs (``SAConfig.replicas > 1``), ``assignment``,
    ``best_cost``, ``initial_cost`` and ``n_temperature_steps`` describe the
    **winning replica**, ``n_proposals``/``n_accepted`` total the work across
    all replicas, ``best_replica`` names the winner and ``replica_stats``
    carries one :class:`~repro.annealing.replicas.ReplicaStats` per replica
    (the variance-study payload); both are ``None`` for single-chain runs.
    """

    assignment: Dict[TaskId, ProcId]
    best_cost: float
    initial_cost: float
    breakdown: CostBreakdown
    n_proposals: int
    n_accepted: int
    n_temperature_steps: int
    trajectory: List[TrajectoryPoint] = field(default_factory=list)
    best_replica: Optional[int] = None
    replica_stats: Optional[List[ReplicaStats]] = None
    #: portfolio runs only: the racing audit record (lane specs, rung
    #: decisions, champion, budget reallocation).
    portfolio: Optional[PortfolioReport] = None

    @property
    def improvement(self) -> float:
        """Cost decrease relative to the seed mapping (non-negative with elitism)."""
        return self.initial_cost - self.best_cost


def _kernel_breakdown(kernel: PacketKernel, mapping: PacketMapping) -> CostBreakdown:
    """Component costs of an index-space mapping, scored through the kernel tables."""
    fb = kernel.balance_cost(mapping)
    fc = kernel.communication_cost(mapping)
    total = kernel.weight_comm * fc / kernel.comm_range + kernel.weight_balance * fb / kernel.balance_range
    return CostBreakdown(balance=fb, communication=fc, total=total)


class PacketMappingProblem(AnnealingProblem):
    """Adapter exposing the packet-mapping search to the generic annealer.

    *cost_function* may be a :class:`~repro.core.cost.PacketCostFunction`
    (id-space packets) or a :class:`~repro.core.kernel.PacketKernel` paired
    with its index-space packet — both expose ``total_cost`` and
    ``incremental_delta``.
    """

    def __init__(
        self,
        packet: AnnealingPacket,
        cost_function: PacketCostFunction,
        initial_mapping: str = "hlf",
    ) -> None:
        self.packet = packet
        self.cost_function = cost_function
        self.initial_mapping = initial_mapping
        self._hlf_tasks: Optional[List[TaskId]] = None

    # -- initial state ---------------------------------------------------- #
    def hlf_mapping(self) -> PacketMapping:
        """Greedy highest-level-first seed: top-level tasks on processors in index order.

        This is exactly the assignment the HLF baseline would commit for the
        same packet, so annealing can only improve (in packet-cost terms) on
        the baseline's choice.  The selected tasks are computed once per
        problem (the packet is frozen) with ``heapq.nsmallest``, which is
        defined as ``sorted(...)[:k]`` — ties keep ready order; every call
        returns a fresh mapping.
        """
        packet = self.packet
        tasks = self._hlf_tasks
        if tasks is None:
            levels = packet.levels
            tasks = self._hlf_tasks = heapq.nsmallest(
                packet.n_assignable, packet.ready_tasks, key=lambda t: -levels[t]
            )
        mapping = PacketMapping()
        for task, proc in zip(tasks, packet.idle_processors):
            mapping.assign(task, proc)
        return mapping

    def random_mapping(self, rng) -> PacketMapping:
        """A uniformly random maximal injective mapping."""
        k = self.packet.n_assignable
        tasks = list(self.packet.ready_tasks)
        procs = list(self.packet.idle_processors)
        chosen_tasks = [tasks[int(i)] for i in rng.permutation(len(tasks))[:k]]
        chosen_procs = [procs[int(i)] for i in rng.permutation(len(procs))[:k]]
        mapping = PacketMapping()
        for task, proc in zip(chosen_tasks, chosen_procs):
            mapping.assign(task, proc)
        return mapping

    def initial_state(self, rng) -> PacketMapping:
        if self.initial_mapping == "hlf":
            return self.hlf_mapping()
        if self.initial_mapping == "random":
            return self.random_mapping(rng)
        return PacketMapping()  # "empty"

    # -- neighbourhood and cost ------------------------------------------- #
    def propose(self, state: PacketMapping, rng) -> PacketMapping:
        return propose_move(self.packet, state, rng)

    def cost(self, state: PacketMapping) -> float:
        return self.cost_function.total_cost(state)

    def cost_delta(self, state: PacketMapping, new_state: PacketMapping, state_cost: float):
        """Incremental cost evaluation using the move's change record.

        Falls back to a full recomputation (``None``) when the proposal does
        not carry a change record (e.g. hand-built states in tests).
        """
        changes = new_state.last_change
        if changes is None:
            return None
        return self.cost_function.incremental_delta(changes)

    def initial_temperature(self, rng, n_samples: int = 32) -> float:
        # The packet cost is normalized to order one, so a unit starting
        # temperature is appropriate; SAConfig usually overrides this anyway.
        return 1.0


class SeededMappingProblem(PacketMappingProblem):
    """A portfolio lane's initial-state strategy, optionally externally seeded.

    ``"etf"`` lanes start from the ETF scheduler's solution for the same
    packet: *seed_mapping* is the index-space assignment as a tuple of
    ``(task_index, proc_index)`` pairs sorted by task index, so both the
    object and the fast engine build the identical
    :class:`~repro.core.packet.PacketMapping` (insertion order included).
    An ``"etf"`` lane without a seed degrades to the HLF start; every other
    strategy defers to :class:`PacketMappingProblem`.
    """

    def __init__(
        self,
        packet: AnnealingPacket,
        cost_function,
        initial_mapping: str = "hlf",
        seed_mapping: Optional[Tuple[Tuple[int, int], ...]] = None,
    ) -> None:
        known = initial_mapping if initial_mapping in ("hlf", "random", "empty") else "hlf"
        super().__init__(packet, cost_function, initial_mapping=known)
        self.strategy = initial_mapping
        self.seed_mapping = seed_mapping

    def initial_state(self, rng) -> PacketMapping:
        if self.strategy == "etf" and self.seed_mapping:
            mapping = PacketMapping()
            for i, j in self.seed_mapping:
                mapping.assign(i, j)
            return mapping
        return super().initial_state(rng)


class PacketAnnealer:
    """Anneal a single packet under an :class:`~repro.core.config.SAConfig`."""

    def __init__(self, config: Optional[SAConfig] = None) -> None:
        self.config = config or SAConfig()

    # ------------------------------------------------------------------ #
    def _build_annealer(self, packet: AnnealingPacket) -> Annealer:
        """The generic annealer configured for one packet (fresh stopping state)."""
        cfg = self.config
        return Annealer(
            acceptance=cfg.acceptance,
            cooling=cfg.cooling,
            stopping=CombinedStopping(
                [
                    StallStopping(patience=cfg.stall_patience),
                    MaxIterationsStopping(max_iterations=cfg.max_temperature_steps),
                ]
            ),
            moves_per_temperature=cfg.moves_for_packet(packet.n_ready, packet.n_idle),
            initial_temperature=cfg.initial_temperature,
            record_trajectory=False,
        )

    def anneal(
        self,
        packet: AnnealingPacket,
        machine,
        comm_model: Optional[CommunicationModel] = None,
        rng=None,
        record_trajectory: Optional[bool] = None,
        seed_assignments: Optional[Dict[str, Dict[TaskId, ProcId]]] = None,
    ) -> PacketAnnealingOutcome:
        """Run simulated annealing on *packet* and return the best mapping found.

        A compiled packet that records no trajectory goes to
        :meth:`anneal_compiled` with its cost function's kernel, and so does
        a portfolio with something to place, which races its lanes and
        records nothing: asking it for a trajectory raises
        :class:`~repro.exceptions.ConfigurationError`.  Everything else is
        the reference path: one
        :meth:`Annealer.run <repro.annealing.annealer.Annealer.run>` per
        chain (one per replica child), over ``comm_model.cost()`` calls for
        ``compiled=False`` or over the kernel.

        Parameters
        ----------
        packet:
            The annealing packet (ready tasks, idle processors, predecessor
            placements).
        machine:
            The target :class:`~repro.machine.machine.Machine`.
        comm_model:
            Communication model used to score placements (defaults to the full
            equation-4 model).
        rng:
            Seed or numpy Generator for this packet's stochastic decisions.
        record_trajectory:
            Override the config's ``record_trajectories`` flag for this call.
        seed_assignments:
            Portfolio mode only: id-space assignments (strategy name ->
            ``{task: proc}``) lanes may seed from, e.g. the ETF solution the
            scheduler computed for this packet.
        """
        cfg = self.config
        rng = as_rng(rng)
        record = cfg.record_trajectories if record_trajectory is None else record_trajectory
        racing = cfg.portfolio is not None and packet.n_ready and packet.n_idle
        if racing and record:
            raise ConfigurationError(
                "a racing portfolio records no trajectory; anneal with "
                "record_trajectory=False or without the portfolio"
            )
        cost_fn = PacketCostFunction(
            packet,
            machine,
            comm_model=comm_model,
            weight_balance=cfg.weight_balance,
            weight_comm=cfg.weight_comm,
            compiled=cfg.compiled,
        )
        kernel = cost_fn.kernel
        if kernel is not None and (racing or not record):
            return self.anneal_compiled(kernel, rng, seed_assignments)
        if kernel is not None:
            problem = PacketMappingProblem(
                kernel.index_packet(), kernel, initial_mapping=cfg.initial_mapping
            )
        else:
            problem = PacketMappingProblem(packet, cost_fn, initial_mapping=cfg.initial_mapping)
        annealer = self._build_annealer(packet)
        if cfg.replicas == 1:
            return self._chain(problem, annealer, rng, kernel, record)
        chains = [
            self._chain(problem, annealer, child, kernel, record)
            for child in split(rng, cfg.replicas)
        ]
        best = best_replica_index([o.best_cost for o in chains])
        return replace(
            chains[best],
            n_proposals=sum(o.n_proposals for o in chains),
            n_accepted=sum(o.n_accepted for o in chains),
            best_replica=best,
            replica_stats=[
                ReplicaStats(
                    replica=b,
                    best_cost=o.best_cost,
                    initial_cost=o.initial_cost,
                    final_cost=None,
                    n_proposals=o.n_proposals,
                    n_accepted=o.n_accepted,
                    n_temperature_steps=o.n_temperature_steps,
                )
                for b, o in enumerate(chains)
            ],
        )

    def _chain(
        self,
        problem: PacketMappingProblem,
        annealer: Annealer,
        rng,
        kernel: Optional[PacketKernel],
        record: bool = False,
    ) -> PacketAnnealingOutcome:
        """One chain on *rng*: :func:`_split_rng`'s seed twin costs the seed
        mapping (so the outcome can report the improvement; ``"random"``
        seeds draw it again from the run twin), the run twin drives the walk.

        Over a *kernel* with the sigmoid rule and no trajectory, the walk is
        :func:`~repro.core.array_annealer.anneal_array`; otherwise it is
        :meth:`Annealer.run <repro.annealing.annealer.Annealer.run>`, whose
        callback records the trajectory when *record* is set.
        """
        seed_rng, run_rng = _split_rng(rng)
        initial_cost = problem.cost(problem.initial_state(seed_rng))
        if kernel is None:
            breakdown = problem.cost_function.breakdown
        else:
            breakdown = partial(_kernel_breakdown, kernel)
        trajectory: List[TrajectoryPoint] = []
        if kernel is not None and not record and _sigmoid(annealer.acceptance):
            result = anneal_array(kernel, problem, annealer, run_rng)
        else:
            callback = None
            if record:

                def callback(rec, state) -> None:
                    parts = breakdown(state)
                    trajectory.append(
                        TrajectoryPoint(
                            iteration=rec.iteration,
                            temperature=rec.temperature,
                            balance_cost=parts.balance,
                            communication_cost=parts.communication,
                            total_cost=parts.total,
                            accepted=rec.accepted,
                        )
                    )

            result = annealer.run(problem, seed=run_rng, callback=callback)
        best = result.best_state
        return PacketAnnealingOutcome(
            assignment=best.as_dict() if kernel is None else kernel.assignment_to_ids(best),
            best_cost=result.best_cost,
            initial_cost=initial_cost,
            breakdown=breakdown(best),
            n_proposals=result.n_proposals,
            n_accepted=result.n_accepted,
            n_temperature_steps=result.n_iterations,
            trajectory=trajectory,
        )

    # ------------------------------------------------------------------ #
    # The compiled entry (both engines)
    # ------------------------------------------------------------------ #
    def anneal_compiled(
        self,
        kernel: Union[PacketKernel, OneSlotPacket],
        rng=None,
        seed_assignments: Optional[Dict[str, Dict[TaskId, ProcId]]] = None,
    ) -> PacketAnnealingOutcome:
        """Anneal over a compiled kernel or one-slot lowering (no trajectory recording).

        Every compiled anneal that records no trajectory enters here: from
        :meth:`anneal` with its cost function's kernel, and from
        :meth:`SAScheduler.fast_assign
        <repro.core.sa_scheduler.SAScheduler.fast_assign>` with the epoch it
        lowered (:func:`repro.core.array_annealer.compile_fast_packet`), so
        both engines commit bit-identical outcomes when the tables are.
        Replicas, and a portfolio on a packet with something to place, step
        lanes (:meth:`_anneal_lanes`).  A single chain runs
        :func:`~repro.core.array_annealer.anneal_array` under the sigmoid
        rule — on a :class:`~repro.core.array_annealer.OneSlotPacket`
        directly (:meth:`_anneal_one_slot`) — and :meth:`Annealer.run
        <repro.annealing.annealer.Annealer.run>` over the kernel under any
        other.  Lanes and other rules anneal a one-slot lowering over its
        :meth:`~repro.core.array_annealer.OneSlotPacket.kernel`.
        """
        cfg = self.config
        rng = as_rng(rng)
        lanes = cfg.replicas > 1 or (
            cfg.portfolio is not None and kernel.n_ready and kernel.n_idle
        )
        if isinstance(kernel, OneSlotPacket):
            if not lanes and _sigmoid(cfg.acceptance):
                return self._anneal_one_slot(kernel, rng)
            kernel = kernel.kernel()
        if lanes:
            return self._anneal_lanes(kernel, rng, seed_assignments)
        problem = PacketMappingProblem(
            kernel.index_packet(), kernel, initial_mapping=cfg.initial_mapping
        )
        return self._chain(problem, self._build_annealer(kernel.packet), rng, kernel)

    def _anneal_one_slot(self, slot: OneSlotPacket, rng) -> PacketAnnealingOutcome:
        """The single chain over a one-slot lowering, with no kernel or problem.

        Consumes *rng* like the kernel path: :func:`_split_rng`'s seed, but
        only the run generator is built; the walk starts where the problem
        would (``"random"``: the task :meth:`PacketMappingProblem.random_mapping`
        draws from the run generator) and runs through ``anneal_array``.
        """
        initial = self.config.initial_mapping
        run_rng = np.random.default_rng(_run_seed(rng))
        if initial == "hlf":
            start = slot.hlf
        elif initial == "random":
            start = int(run_rng.permutation(slot.n_ready)[0])
            run_rng.permutation(1)  # random_mapping's processor draw
        else:
            start = -1
        result = anneal_array(slot, start, self._build_annealer(slot), run_rng)
        best = next(iter(result.best_state.task_to_proc), -1)
        return PacketAnnealingOutcome(
            assignment={slot.tasks[best]: slot.proc} if best >= 0 else {},
            best_cost=result.best_cost,
            initial_cost=slot.breakdown(start).total,
            breakdown=slot.breakdown(best),
            n_proposals=result.n_proposals,
            n_accepted=result.n_accepted,
            n_temperature_steps=result.n_iterations,
        )

    # ------------------------------------------------------------------ #
    # Replica lanes and the anytime portfolio's racing lanes
    # ------------------------------------------------------------------ #
    def build_lane_plan(
        self,
        kernel: PacketKernel,
        seed_assignments: Optional[Dict[str, Dict[TaskId, ProcId]]] = None,
    ) -> LanePlan:
        """The heterogeneous per-lane walk parameters for one packet.

        Public so the differential tests can rebuild the exact plan a
        portfolio run used and replay each lane as a scalar
        :func:`~repro.core.array_annealer.anneal_array` walk.  Id-space seed
        assignments are translated through the kernel's index maps and
        canonicalized (sorted by task index) so both engines build identical
        seeds.
        """
        cfg = self.config
        pf = cfg.portfolio
        specs = pf.lane_specs()
        index_packet = kernel.index_packet()
        seeds_ix: Dict[str, Tuple[Tuple[int, int], ...]] = {}
        for name, mapping in (seed_assignments or {}).items():
            seeds_ix[name] = tuple(
                sorted(
                    (kernel.task_index[t], kernel.proc_index[p])
                    for t, p in mapping.items()
                )
            )
        problems = [
            SeededMappingProblem(
                index_packet, kernel, spec.initial, seeds_ix.get(spec.initial)
            )
            for spec in specs
        ]
        base = pf.base_budget if pf.base_budget is not None else cfg.max_temperature_steps
        return LanePlan(
            problems=problems,
            coolings=[spec.cooling for spec in specs],
            t0s=[cfg.initial_temperature * spec.temperature_scale for spec in specs],
            budgets=np.full(pf.lanes, base, dtype=np.int64),
            controller=SuccessiveHalvingController(pf.rung, pf.lanes),
            specs=specs,
        )

    def _anneal_lanes(
        self,
        kernel: PacketKernel,
        rng,
        seed_assignments: Optional[Dict[str, Dict[TaskId, ProcId]]] = None,
    ) -> PacketAnnealingOutcome:
        """Step ``cfg.replicas`` chains, or race the portfolio's lanes, over
        one kernel and commit the lowest best cost (ties to the lowest lane).

        One :func:`~repro.utils.rng.split` child per lane, split again by
        :func:`_split_rng`: the seed twin costs the lane's seed mapping and
        the run twin drives its walk in
        :func:`~repro.core.array_annealer.anneal_replicas_batched` (under the
        portfolio's :meth:`build_lane_plan`).  Lane *b* is therefore
        bit-identical to a single chain of its own configuration on child
        *b*, culled or not.
        """
        cfg = self.config
        plan = None
        if cfg.portfolio is not None:
            plan = self.build_lane_plan(kernel, seed_assignments)
            problems = plan.problems
        else:
            problems = [
                PacketMappingProblem(
                    kernel.index_packet(), kernel, initial_mapping=cfg.initial_mapping
                )
            ] * cfg.replicas
        run_rngs = []
        initial_costs = []
        for problem, child in zip(problems, split(rng, len(problems))):
            seed_rng, run_rng = _split_rng(child)
            initial_costs.append(problem.cost(problem.initial_state(seed_rng)))
            run_rngs.append(run_rng)
        results, trajs = anneal_replicas_batched(
            kernel, problems[0], self._build_annealer(kernel.packet), run_rngs, plan=plan
        )
        culled = set()
        if plan is not None:
            for rung in plan.controller.rungs:
                culled.update(rung.culled)
        stats = [
            ReplicaStats(
                replica=b,
                best_cost=r.best_cost,
                initial_cost=initial_costs[b],
                final_cost=r.final_cost,
                n_proposals=r.n_proposals,
                n_accepted=r.n_accepted,
                n_temperature_steps=r.n_iterations,
                temperature_trajectory=tuple(trajs[b]),
                culled=b in culled,
                budget=None if plan is None else int(plan.budgets[b]),
            )
            for b, r in enumerate(results)
        ]
        best = best_replica_index([r.best_cost for r in results])
        winner = results[best]
        report = None
        if plan is not None:
            controller = plan.controller
            report = PortfolioReport(
                specs=plan.specs,
                rungs=tuple(controller.rungs),
                champion=best,
                champion_cost=winner.best_cost,
                n_culled=controller.n_culled,
                budget_reallocated=controller.budget_reallocated,
                final_budgets=tuple(int(x) for x in plan.budgets),
                n_steps=tuple(r.n_iterations for r in results),
            )
        return PacketAnnealingOutcome(
            assignment=kernel.assignment_to_ids(winner.best_state),
            best_cost=winner.best_cost,
            initial_cost=initial_costs[best],
            breakdown=_kernel_breakdown(kernel, winner.best_state),
            n_proposals=sum(r.n_proposals for r in results),
            n_accepted=sum(r.n_accepted for r in results),
            n_temperature_steps=winner.n_iterations,
            best_replica=best,
            replica_stats=stats,
            portfolio=report,
        )


def _sigmoid(acceptance) -> bool:
    """Whether *acceptance* is the sigmoid rule (eq. 1) the array walks inline."""
    return type(acceptance) is BoltzmannSigmoidAcceptance


def _run_seed(rng) -> int:
    """The seed of :func:`_split_rng`'s twins, drawn from *rng*."""
    return int(rng.integers(0, 2**63 - 1))


def _split_rng(rng):
    """Return two generators that produce identical streams.

    Both children are seeded with the same value drawn from the parent, so the
    seed mapping computed outside the annealer matches the one the annealer
    rebuilds internally for the "random" initial-mapping strategy.
    """
    seed = _run_seed(rng)
    return np.random.default_rng(seed), np.random.default_rng(seed)
