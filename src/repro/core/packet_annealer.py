"""Simulated annealing of one packet's mapping.

This wires the packet state space (:class:`~repro.core.packet.PacketMapping`),
move generator (:func:`~repro.core.moves.propose_move`) and cost function
(:class:`~repro.core.cost.PacketCostFunction`) into the generic
:class:`~repro.annealing.annealer.Annealer`, and can record the per-proposal
balance / communication / total cost trajectory that Figure 1 of the paper
plots.

When the configuration's ``compiled`` flag is set (the default), the walk
runs in the *index space* of the packet's compiled
:class:`~repro.core.kernel.PacketKernel`: ready tasks and idle processors are
renumbered as dense integers, every move is scored by table lookup, and the
winning mapping is translated back to task/processor identifiers at the end.
The kernel reproduces the reference evaluation bit for bit, so compiled and
uncompiled runs accept exactly the same moves for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Optional, Tuple, Union

import heapq
import math

import numpy as np

from repro.annealing.acceptance import BoltzmannSigmoidAcceptance
from repro.annealing.annealer import Annealer, AnnealingResult
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
from repro.core.moves import _DROP_PROBABILITY, propose_move
from repro.core.packet import AnnealingPacket, PacketMapping
from repro.utils.rng import StreamDraws, as_rng, split

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


def _anneal_indexed(
    kernel: PacketKernel,
    problem: "PacketMappingProblem",
    annealer: Annealer,
    rng,
) -> AnnealingResult:
    """Fused annealing loop over the kernel's index space.

    Replicates :meth:`~repro.annealing.annealer.Annealer.run` with the move
    generator, incremental cost and (sigmoid) acceptance rule inlined over the
    kernel's dense tables, drawing randomness through
    :class:`~repro.utils.rng.StreamDraws`.  Every stochastic decision consumes
    the generator's stream exactly as the generic loop does, so for a fixed
    seed this produces bit-identical results — only faster (no per-proposal
    mapping copies, no scalar numpy RNG calls, no method dispatch).
    """
    acceptance = annealer.acceptance
    cooling = annealer.cooling
    stopping = annealer.stopping
    moves_per_temperature = annealer.moves_per_temperature

    state0 = problem.initial_state(rng)
    t2p: Dict[int, int] = dict(state0.task_to_proc)
    p2t: Dict[int, int] = dict(state0.proc_to_task)

    brows = kernel.balance_rows
    rows = kernel.comm_rows
    wb, wc = kernel.weight_balance, kernel.weight_comm
    br, cr = kernel.balance_range, kernel.comm_range
    n_ready, n_idle = kernel.n_ready, kernel.n_idle
    comm_enabled = kernel.comm_enabled
    degenerate = n_ready == 0 or n_idle == 0

    def full_cost() -> float:
        # Mirrors PacketKernel.total_cost term for term.
        fb = -sum(brows[i][j] for i, j in t2p.items())
        fc = 0.0
        if comm_enabled:
            for i, j in t2p.items():
                fc += rows[i][j]
        return wc * fc / cr + wb * fb / br

    cost = full_cost()
    best_map = dict(t2p)
    best_cost = cost

    t0 = (
        annealer.initial_temperature
        if annealer.initial_temperature is not None
        else problem.initial_temperature(rng)
    )
    if t0 <= 0:
        raise ValueError(f"initial temperature must be > 0, got {t0}")

    stopping.reset()
    draws = StreamDraws(rng)
    sigmoid = type(acceptance) is BoltzmannSigmoidAcceptance
    exp = math.exp
    n_proposals = 0
    n_accepted = 0
    outer = 0
    while True:
        temperature = cooling.temperature(outer, t0)
        if sigmoid:
            if temperature < 0:
                raise ValueError(f"temperature must be >= 0, got {temperature}")
            zero_temp = temperature == 0.0
            infinite_temp = math.isinf(temperature)
        for _ in range(moves_per_temperature):
            # ---- propose: moves.propose_move inlined in index space ------- #
            # move kinds: 0 zero-delta, 1 drop, 2 (re)assign, 3 replace, 4 swap
            kind = 0
            delta = 0.0
            if not degenerate:
                if t2p and draws.random() < _DROP_PROBABILITY:
                    tasks = list(t2p)
                    task = tasks[draws.integers(0, len(tasks))]
                    old_j = t2p[task]
                    kind = 1
                    balance_delta = 0.0 + brows[task][old_j]
                    comm_delta = 0.0 - rows[task][old_j]
                    delta = wc * comm_delta / cr + wb * balance_delta / br
                else:
                    task = draws.integers(0, n_ready)
                    cur = t2p.get(task)
                    if cur is None:
                        new_j = draws.integers(0, n_idle)
                    elif n_idle == 1:
                        new_j = None  # nowhere else to go: zero-delta proposal
                    else:
                        idx = draws.integers(0, n_idle - 1)
                        if idx >= cur:
                            idx += 1
                        new_j = idx
                    if new_j is not None:
                        brow = brows[task]
                        row = rows[task]
                        occupant = p2t.get(new_j)
                        if occupant is None:
                            kind = 2
                            if cur is not None:
                                balance_delta = 0.0 + brow[cur]
                                comm_delta = 0.0 - row[cur]
                            else:
                                balance_delta = 0.0
                                comm_delta = 0.0
                            balance_delta -= brow[new_j]
                            comm_delta += row[new_j]
                        elif cur is None:
                            kind = 3
                            balance_delta = 0.0 + brows[occupant][new_j]
                            comm_delta = 0.0 - rows[occupant][new_j]
                            balance_delta -= brow[new_j]
                            comm_delta += row[new_j]
                        else:
                            kind = 4
                            balance_delta = 0.0 + brow[cur]
                            comm_delta = 0.0 - row[cur]
                            balance_delta -= brow[new_j]
                            comm_delta += row[new_j]
                            occ_brow = brows[occupant]
                            occ_row = rows[occupant]
                            balance_delta += occ_brow[new_j]
                            comm_delta -= occ_row[new_j]
                            balance_delta -= occ_brow[cur]
                            comm_delta += occ_row[cur]
                        delta = wc * comm_delta / cr + wb * balance_delta / br
            # ---- accept: BoltzmannSigmoidAcceptance inlined --------------- #
            n_proposals += 1
            if sigmoid:
                if zero_temp:
                    probability = 1.0 if delta < 0.0 else 0.0
                elif infinite_temp:
                    probability = 0.5
                else:
                    exponent = delta / temperature
                    if exponent > 500.0:
                        probability = 0.0
                    elif exponent < -500.0:
                        probability = 1.0
                    else:
                        probability = 1.0 / (1.0 + exp(exponent))
                if probability >= 1.0:
                    accepted = True
                elif probability <= 0.0:
                    accepted = False
                else:
                    accepted = draws.random() < probability
            else:
                accepted = acceptance.accept(delta, temperature, draws)
            if accepted:
                # Apply the move in place, reproducing the dict-insertion
                # order PacketMapping's assign/unassign/swap would leave.
                if kind == 1:
                    del t2p[task]
                    del p2t[old_j]
                elif kind == 2:
                    if cur is not None:
                        del t2p[task]
                        del p2t[cur]
                    t2p[task] = new_j
                    p2t[new_j] = task
                elif kind == 3:
                    del t2p[occupant]
                    t2p[task] = new_j
                    p2t[new_j] = task
                elif kind == 4:
                    t2p[task] = new_j
                    t2p[occupant] = cur
                    p2t[new_j] = task
                    p2t[cur] = occupant
                n_accepted += 1
                cost = cost + delta
                if cost < best_cost:
                    best_cost = cost
                    best_map = dict(t2p)
        # Per-temperature resynchronization against incremental-cost drift
        # (mirrors Annealer.run).
        resynced = full_cost()
        if abs(resynced - cost) > annealer.resync_tolerance:
            cost = resynced
        if stopping.should_stop(outer, cost):
            outer += 1
            break
        outer += 1

    return AnnealingResult(
        best_state=PacketMapping(best_map),
        best_cost=best_cost,
        final_state=PacketMapping(t2p),
        final_cost=cost,
        n_iterations=outer,
        n_proposals=n_proposals,
        n_accepted=n_accepted,
        trajectory=[],
    )


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

    def _walks_arrays(self) -> bool:
        """Whether the compiled walk is the array tier: the configured default,
        with the sigmoid acceptance rule the array walk inlines."""
        cfg = self.config
        return cfg.walk == "array" and type(cfg.acceptance) is BoltzmannSigmoidAcceptance

    def _fused_walk(self, kernel: PacketKernel, problem, annealer: Annealer, rng) -> AnnealingResult:
        """The compiled inner walk: array tier by default, kernel tier as the
        configured alternative (and the automatic fallback for non-sigmoid
        acceptance rules, which the array walk does not inline)."""
        if self._walks_arrays():
            return anneal_array(kernel, problem, annealer, rng)
        return _anneal_indexed(kernel, problem, annealer, rng)

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
        if cfg.replicas > 1:
            return self._anneal_replicated(packet, machine, comm_model, rng, record)
        if cfg.portfolio is not None and packet.n_ready and packet.n_idle:
            cost_fn = PacketCostFunction(
                packet,
                machine,
                comm_model=comm_model,
                weight_balance=cfg.weight_balance,
                weight_comm=cfg.weight_comm,
                compiled=True,
            )
            return self._anneal_portfolio(packet, cost_fn.kernel, rng, seed_assignments)

        cost_fn = PacketCostFunction(
            packet,
            machine,
            comm_model=comm_model,
            weight_balance=cfg.weight_balance,
            weight_comm=cfg.weight_comm,
            compiled=cfg.compiled,
        )
        kernel = cost_fn.kernel
        if kernel is not None:
            # Fast path: anneal in index space over the compiled tables.
            problem = PacketMappingProblem(
                kernel.index_packet(), kernel, initial_mapping=cfg.initial_mapping
            )
        else:
            problem = PacketMappingProblem(packet, cost_fn, initial_mapping=cfg.initial_mapping)

        # Evaluate the seed mapping once so the outcome can report the
        # improvement achieved by annealing.  The seed is recomputed inside the
        # annealer with the same rng stream for the "random" strategy, so a
        # dedicated child generator keeps both draws identical.
        seed_rng, run_rng = _split_rng(rng)
        initial_mapping = problem.initial_state(seed_rng)
        initial_cost = problem.cost(initial_mapping)

        trajectory: List[TrajectoryPoint] = []
        callback = None
        if record:

            def callback(rec, state) -> None:
                if kernel is not None:
                    parts = _kernel_breakdown(kernel, state)
                else:
                    parts = cost_fn.breakdown(state)
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

        annealer = self._build_annealer(packet)
        if kernel is not None and callback is None:
            # Fused fast path: same walk, same RNG stream, no per-proposal
            # copies or scalar numpy draws.
            result = self._fused_walk(kernel, problem, annealer, as_rng(run_rng))
        else:
            result = annealer.run(problem, seed=run_rng, callback=callback)

        best_mapping: PacketMapping = result.best_state
        if kernel is not None:
            assignment = kernel.assignment_to_ids(best_mapping)
            breakdown = _kernel_breakdown(kernel, best_mapping)
        else:
            assignment = best_mapping.as_dict()
            breakdown = cost_fn.breakdown(best_mapping)
        return PacketAnnealingOutcome(
            assignment=assignment,
            best_cost=result.best_cost,
            initial_cost=initial_cost,
            breakdown=breakdown,
            n_proposals=result.n_proposals,
            n_accepted=result.n_accepted,
            n_temperature_steps=result.n_iterations,
            trajectory=trajectory,
        )

    # ------------------------------------------------------------------ #
    # Prebuilt-kernel entry (the fast-engine path)
    # ------------------------------------------------------------------ #
    def anneal_compiled(
        self,
        kernel: Union[PacketKernel, OneSlotPacket],
        rng=None,
        seed_assignments: Optional[Dict[TaskId, Dict[TaskId, ProcId]]] = None,
    ) -> PacketAnnealingOutcome:
        """Anneal over a prebuilt kernel or one-slot lowering (no trajectory recording).

        The entry point of :meth:`SAScheduler.fast_assign
        <repro.core.sa_scheduler.SAScheduler.fast_assign>`: the caller
        already lowered the epoch
        (:func:`repro.core.array_annealer.compile_fast_packet`), so this
        skips the :class:`~repro.core.cost.PacketCostFunction` build and runs
        the same split-rng / seed-cost / fused-walk sequence as
        :meth:`anneal` — bit-identical outcomes when the tables are.  A
        :class:`~repro.core.array_annealer.OneSlotPacket` is annealed
        directly on the single-chain array walk (:meth:`_anneal_one_slot`);
        replica and portfolio lanes, ``walk="kernel"`` and non-sigmoid rules
        anneal over its :meth:`~repro.core.array_annealer.OneSlotPacket.kernel`.
        """
        cfg = self.config
        rng = as_rng(rng)
        if isinstance(kernel, OneSlotPacket):
            if cfg.replicas == 1 and cfg.portfolio is None and self._walks_arrays():
                return self._anneal_one_slot(kernel, rng)
            kernel = kernel.kernel()
        packet = kernel.packet
        if cfg.replicas > 1:
            return self._anneal_compiled_replicas(packet, kernel, split(rng, cfg.replicas))
        if cfg.portfolio is not None and kernel.n_ready and kernel.n_idle:
            return self._anneal_portfolio(packet, kernel, rng, seed_assignments)
        problem = PacketMappingProblem(
            kernel.index_packet(), kernel, initial_mapping=cfg.initial_mapping
        )
        annealer = self._build_annealer(packet)
        seed_rng, run_rng = _split_rng(rng)
        initial_cost = problem.cost(problem.initial_state(seed_rng))
        result = self._fused_walk(kernel, problem, annealer, as_rng(run_rng))
        best_mapping = result.best_state
        return PacketAnnealingOutcome(
            assignment=kernel.assignment_to_ids(best_mapping),
            best_cost=result.best_cost,
            initial_cost=initial_cost,
            breakdown=_kernel_breakdown(kernel, best_mapping),
            n_proposals=result.n_proposals,
            n_accepted=result.n_accepted,
            n_temperature_steps=result.n_iterations,
            trajectory=[],
        )

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
    # Batched multi-replica annealing
    # ------------------------------------------------------------------ #
    def _anneal_replicated(
        self,
        packet: AnnealingPacket,
        machine,
        comm_model,
        rng,
        record: bool,
    ) -> PacketAnnealingOutcome:
        """Anneal ``cfg.replicas`` multi-start chains and commit the best.

        Compiled, non-recording configurations step the replicas as lanes
        over one shared kernel; the reference path and trajectory-recording
        runs fall back to one full scalar anneal per child stream (same
        children, same per-replica results, no per-step lane trajectories).
        """
        cfg = self.config
        children = split(rng, cfg.replicas)
        if cfg.compiled and not record:
            cost_fn = PacketCostFunction(
                packet,
                machine,
                comm_model=comm_model,
                weight_balance=cfg.weight_balance,
                weight_comm=cfg.weight_comm,
                compiled=True,
            )
            return self._anneal_compiled_replicas(packet, cost_fn.kernel, children)
        single = PacketAnnealer(replace(cfg, replicas=1))
        outcomes = [
            single.anneal(
                packet, machine, comm_model=comm_model, rng=child, record_trajectory=record
            )
            for child in children
        ]
        stats = [
            ReplicaStats(
                replica=b,
                best_cost=o.best_cost,
                initial_cost=o.initial_cost,
                final_cost=None,
                n_proposals=o.n_proposals,
                n_accepted=o.n_accepted,
                n_temperature_steps=o.n_temperature_steps,
            )
            for b, o in enumerate(outcomes)
        ]
        best = best_replica_index([o.best_cost for o in outcomes])
        winner = outcomes[best]
        return PacketAnnealingOutcome(
            assignment=winner.assignment,
            best_cost=winner.best_cost,
            initial_cost=winner.initial_cost,
            breakdown=winner.breakdown,
            n_proposals=sum(o.n_proposals for o in outcomes),
            n_accepted=sum(o.n_accepted for o in outcomes),
            n_temperature_steps=winner.n_temperature_steps,
            trajectory=winner.trajectory,
            best_replica=best,
            replica_stats=stats,
        )

    def _anneal_compiled_replicas(
        self,
        packet: AnnealingPacket,
        kernel: PacketKernel,
        children,
    ) -> PacketAnnealingOutcome:
        """Replicas stepped as lanes over one shared kernel (the hot path)."""
        cfg = self.config
        problem = PacketMappingProblem(
            kernel.index_packet(), kernel, initial_mapping=cfg.initial_mapping
        )
        annealer = self._build_annealer(packet)
        run_rngs = []
        initial_costs = []
        for child in children:
            seed_rng, run_rng = _split_rng(child)
            initial_costs.append(problem.cost(problem.initial_state(seed_rng)))
            run_rngs.append(as_rng(run_rng))
        if cfg.walk == "array":
            results, trajs = anneal_replicas_batched(kernel, problem, annealer, run_rngs)
        else:
            # Kernel-walk oracle: one scalar fused walk per replica.
            results = [_anneal_indexed(kernel, problem, annealer, r) for r in run_rngs]
            trajs = [[] for _ in results]
        stats = [
            ReplicaStats(
                replica=b,
                best_cost=results[b].best_cost,
                initial_cost=initial_costs[b],
                final_cost=results[b].final_cost,
                n_proposals=results[b].n_proposals,
                n_accepted=results[b].n_accepted,
                n_temperature_steps=results[b].n_iterations,
                temperature_trajectory=tuple(trajs[b]),
            )
            for b in range(len(results))
        ]
        best = best_replica_index([r.best_cost for r in results])
        winner = results[best]
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
        )

    # ------------------------------------------------------------------ #
    # Anytime lane portfolio with successive-halving racing
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

    def _anneal_portfolio(
        self,
        packet: AnnealingPacket,
        kernel: PacketKernel,
        rng,
        seed_assignments: Optional[Dict[str, Dict[TaskId, ProcId]]] = None,
    ) -> PacketAnnealingOutcome:
        """Race ``cfg.portfolio.lanes`` heterogeneous chains, commit the champion.

        Same split-rng discipline as :meth:`_anneal_compiled_replicas` — one
        child stream per lane, a twin seed generator for the initial cost —
        so lane *b* is bit-identical to a scalar run of its own
        configuration on child *b*, culled or not.
        """
        cfg = self.config
        plan = self.build_lane_plan(kernel, seed_assignments)
        annealer = self._build_annealer(packet)
        children = split(rng, cfg.portfolio.lanes)
        run_rngs = []
        initial_costs = []
        for b, child in enumerate(children):
            seed_rng, run_rng = _split_rng(child)
            initial_costs.append(
                plan.problems[b].cost(plan.problems[b].initial_state(seed_rng))
            )
            run_rngs.append(as_rng(run_rng))
        results, trajs = anneal_replicas_batched(
            kernel, plan.problems[0], annealer, run_rngs, plan=plan
        )
        controller = plan.controller
        culled = set()
        for rung in controller.rungs:
            culled.update(rung.culled)
        stats = [
            ReplicaStats(
                replica=b,
                best_cost=results[b].best_cost,
                initial_cost=initial_costs[b],
                final_cost=results[b].final_cost,
                n_proposals=results[b].n_proposals,
                n_accepted=results[b].n_accepted,
                n_temperature_steps=results[b].n_iterations,
                temperature_trajectory=tuple(trajs[b]),
                culled=b in culled,
                budget=int(plan.budgets[b]),
            )
            for b in range(len(results))
        ]
        best = best_replica_index([r.best_cost for r in results])
        winner = results[best]
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
