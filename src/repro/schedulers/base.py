"""The scheduling-policy interface and the per-epoch packet context.

The paper builds the schedule *online*: an assignment epoch occurs at time
zero and whenever one or more processors become idle; at each epoch the
scheduler sees the ready tasks and the idle processors and assigns at most one
task to each idle processor.  Encoding that protocol as a
:class:`SchedulingPolicy` lets the simulated-annealing scheduler and every
list-scheduling baseline run under exactly the same execution semantics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from repro.comm.model import CommunicationModel, LinearCommModel
from repro.exceptions import SchedulingError

__all__ = [
    "PacketContext",
    "SchedulingPolicy",
    "validate_assignment",
    "fastest_first",
    "stacked_ranks",
    "nontrivial_ranks",
    "rank_sorted",
]

TaskId = Hashable
ProcId = int


def fastest_first(machine, procs) -> List[ProcId]:
    """Processors sorted by decreasing speed, index order within equal speeds.

    The shared placement order of the speed-aware schedulers (LPT, HLF
    ``"fastest"``).  On homogeneous machines (or machines without a speed
    model) every speed ties, so the result is plain increasing index order.
    """
    speed_of = getattr(machine, "speed_of", None)
    if speed_of is None:
        return sorted(procs)
    return sorted(procs, key=lambda p: (-speed_of(p), p))


@dataclass
class PacketContext:
    """Everything a policy may consult at one assignment epoch.

    Attributes
    ----------
    time:
        Current simulation time (the epoch).
    ready_tasks:
        Tasks whose predecessors have all finished and that are not yet
        assigned, in deterministic (graph insertion) order.
    idle_processors:
        Processors with no running or pending task, in increasing index order.
    graph:
        The task graph being scheduled.
    machine:
        The target machine.
    levels:
        Precomputed task levels ``n_i`` for the whole graph.
    task_processor:
        Placement history: processor of every task assigned so far (finished,
        running or pending).  Policies use it to evaluate the communication
        cost of placing a ready task near or far from its predecessors.
    finish_times:
        Completion time of every finished task (empty entries for unfinished
        ones); available to communication-aware heuristics such as ETF.
    comm_model:
        The communication model in force (zero or linear), so policies can
        score candidate placements consistently with the simulator.
    processor_ready_time:
        For every processor, the earliest time it could start a new task
        (idle processors report the epoch time; busy ones their expected
        availability).  Used by look-ahead heuristics.

    The three mapping attributes are live **read-only views** of
    incrementally-maintained engine state (not per-epoch snapshots): they
    are only valid for the duration of the :meth:`SchedulingPolicy.assign`
    call that received them, mutating them raises ``TypeError``, and a
    policy that needs scratch state or a persistent snapshot must copy
    (``dict(ctx.task_processor)``).
    """

    time: float
    ready_tasks: List[TaskId]
    idle_processors: List[ProcId]
    graph: "object"
    machine: "object"
    levels: Mapping[TaskId, float]
    task_processor: Mapping[TaskId, ProcId]
    finish_times: Mapping[TaskId, float] = field(default_factory=dict)
    comm_model: CommunicationModel = field(default_factory=LinearCommModel)
    processor_ready_time: Mapping[ProcId, float] = field(default_factory=dict)

    @property
    def n_ready(self) -> int:
        return len(self.ready_tasks)

    @property
    def n_idle(self) -> int:
        return len(self.idle_processors)


def validate_assignment(ctx: PacketContext, assignment: Dict[TaskId, ProcId]) -> None:
    """Check that *assignment* is legal for *ctx*; raise :class:`SchedulingError` otherwise.

    A legal assignment maps a subset of the ready tasks injectively onto the
    idle processors (at most one task per processor, no task or processor
    outside the packet).
    """
    ready = set(ctx.ready_tasks)
    idle = set(ctx.idle_processors)
    seen_procs: set = set()
    for task, proc in assignment.items():
        if task not in ready:
            raise SchedulingError(f"task {task!r} is not ready at t={ctx.time}")
        if proc not in idle:
            raise SchedulingError(f"processor {proc!r} is not idle at t={ctx.time}")
        if proc in seen_procs:
            raise SchedulingError(f"processor {proc!r} assigned more than one task")
        seen_procs.add(proc)


class SchedulingPolicy(ABC):
    """Online scheduling policy invoked at every assignment epoch."""

    #: Display name used in reports and benchmark tables.
    name: str = "policy"

    @abstractmethod
    def assign(self, ctx: PacketContext) -> Dict[TaskId, ProcId]:
        """Return a partial mapping ``{task_id: processor}`` for this epoch.

        The mapping must satisfy :func:`validate_assignment`; tasks left out
        remain ready and reappear in the next packet.  Returning an empty
        mapping is legal (the simulator will re-invoke the policy at the next
        epoch), but a policy must eventually assign every task or the
        simulation will abort with a livelock error.
        """

    def batch_assign(
        self, epoch, policies: List["SchedulingPolicy"]
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Batched epoch assignment for the lock-step lane engine.

        *epoch* is a :class:`~repro.sim.batch_engine.BatchEpoch` covering a
        group of lanes that share this policy's configuration, and
        *policies* the per-lane policy instances aligned with
        ``epoch.lanes`` (``self`` is ``policies[0]``; per-lane stochastic
        state such as RNG streams must be drawn from the matching
        instance).  Returns three equal-length arrays ``(lanes, tasks,
        procs)`` of global lane indices and lane-local task / processor
        indices, in any order: lanes step only at the latency fidelity,
        where an epoch's placements commute.  Defining this method is what
        makes :func:`~repro.sim.batch_engine.run_lanes` step a lane; every
        other lane runs alone on the solo engine.

        The contract extends :meth:`fast_assign` lane-wise: for every lane
        the triples must reproduce exactly the assignment (and consume
        exactly the RNG draws) the solo path would produce.  Returning
        ``None`` (the default) declines the whole group for this epoch; the
        engine then serves each lane through its :meth:`fast_assign`, so a
        kernel must decline *before* consuming any stochastic state.  A lane
        whose :meth:`fast_assign` declines too stops the lock step with a
        :class:`~repro.exceptions.SimulationError`.
        """
        return None

    def fast_assign(self, packet) -> Optional[Dict[int, ProcId]]:
        """Index-space epoch assignment for the compiled fast engine.

        *packet* is a :class:`~repro.sim.compile.FastPacket`: ready tasks are
        dense graph indices, and the compiled scenario exposes durations,
        levels, speeds and equation-4 cost tables as arrays.  A policy that
        implements this returns ``{task_index: processor}`` and **must**
        produce exactly the assignment (and consume exactly the RNG draws)
        its object-path :meth:`assign` would for the equivalent
        :class:`PacketContext` — the fast engine is proven bit-identical to
        the reference engine on that contract.

        Returning ``None`` (the default) means "no fast path": the engine
        materializes a :class:`PacketContext` and calls :meth:`assign`
        instead.  A policy deciding to return ``None`` must do so *before*
        consuming any stochastic state, or the fallback would replay draws.
        """
        return None

    def reset(self) -> None:
        """Clear any per-run state; called by the simulator before a run."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def stacked_ranks(keys: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Per-row rank of every column of *keys* in ascending stable order.

    The building block of the static-priority batched kernels: a policy
    whose selection is a stable sort of the ready list by a run-invariant
    key (LPT's ``-duration``, HLF's ``-level``, fastest-first's
    ``-speed``) precomputes each element's rank **once**; per epoch,
    sorting a ready/idle subset by its ranks reproduces the solo path's
    stable sort exactly (ranks are unique, and among equal keys the stable
    argsort leaves lower indices ranked first — the solo tie-break).
    Entries where *valid* is False (padding) rank after every real one.
    """
    keys = np.where(valid, keys, np.inf)
    order = np.argsort(keys, axis=1, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(keys.shape[0], dtype=np.intp)[:, None]
    ranks[rows, order] = np.arange(keys.shape[1], dtype=np.intp)[None, :]
    return ranks


def nontrivial_ranks(keys: np.ndarray, valid: np.ndarray) -> Optional[np.ndarray]:
    """:func:`stacked_ranks`, or ``None`` when the ranking is the identity.

    A uniform key column (every processor the same speed, say) ranks every
    row ``0..n-1``; sorting an already index-ordered padded set by identity
    ranks is a no-op, so callers treat ``None`` as "keep the padded order"
    and skip the per-epoch sort entirely.
    """
    ranks = stacked_ranks(keys, valid)
    identity = np.arange(ranks.shape[1], dtype=np.intp)
    if np.array_equal(ranks, np.broadcast_to(identity, ranks.shape)):
        return None
    return ranks


def rank_sorted(
    padded: np.ndarray, valid: np.ndarray, ranks: np.ndarray, lanes: np.ndarray
) -> np.ndarray:
    """Each row of *padded* reordered by its elements' precomputed *ranks*.

    *padded*/*valid* are a :meth:`BatchEpoch.ready_padded`-style set matrix
    for the group's lanes, *ranks* a full ``(n_lanes_total, width)`` rank
    table, *lanes* the group's global lane indices.  Padding sorts last and
    stays ignorable through the caller's valid-count truncation.
    """
    key = ranks[lanes[:, None], padded]
    key = np.where(valid, key, np.iinfo(np.intp).max)
    order = np.argsort(key, axis=1, kind="stable")
    return padded[np.arange(padded.shape[0], dtype=np.intp)[:, None], order]
