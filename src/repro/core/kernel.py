"""The compiled packet kernel: dense-index cost tables for one annealing packet.

Everything the packet cost function (paper equations 3 – 6) needs is fixed the
moment a packet is formed: the ready tasks' levels, and — because every
predecessor of a ready task is already placed — the full communication cost of
putting ready task ``t_i`` on idle processor ``P_j``.  The kernel exploits
this: it indexes the packet's ready tasks and idle processors as dense
integers ``0..n-1`` and precomputes

* ``levels[i]`` — the level ``n_i`` of ready task *i* (eq. 3),
* ``balance_rows[i][j]`` — the balance reward ``n_i * speed_j`` of placing
  ready task *i* on idle processor *j* (on homogeneous machines every entry
  of row *i* is the level itself, bit for bit), and
* ``comm_rows[i][j]`` — the total equation-4 cost of placing ready task *i*
  on idle processor *j*, built vectorized from the machine's (weighted)
  distance matrix (:func:`repro.comm.model.comm_cost_table`),

so that ``balance_cost``, ``communication_cost`` and the per-move
``incremental_delta`` reduce to O(1) table lookups with zero
``comm_model.cost()`` calls inside the annealing loop.  The accumulation
order of the tables matches the scalar implementation term for term, so a
fixed-seed annealing run over the kernel accepts exactly the same moves (and
commits exactly the same assignments) as the original per-call evaluation.

A ready task's comm row and its share of ``dF_c`` do not depend on the
packet it sits in, only on its (fixed) predecessor placements.  The range is
therefore split into a per-task step (:func:`worst_case_comm_totals`) and a
per-packet sort/clamp/sum step (:func:`comm_range_from_totals`):
:func:`compute_comm_range` composes the two for a materialized packet, while
the fast engine's front end
(:func:`~repro.core.array_annealer.compile_fast_packet`) caches each task's
full-width row and total the first epoch it is ready and hands the
per-packet slices to :meth:`PacketKernel.from_tables`.  An epoch with one
idle processor is handed off only when a path needs a kernel (replica and
portfolio lanes, the kernel walk, non-sigmoid rules); the single chain
anneals its two columns without one
(:class:`~repro.core.array_annealer.OneSlotPacket`).

The kernel also exposes the packet in *index space* (ready task *i* stands
for ``tasks[i]``, idle processor *j* for ``procs[j]``): the annealer runs its
whole walk on small-integer mappings — cheaper to hash, copy and look up than
arbitrary task identifiers — and :meth:`assignment_to_ids` translates the
winning mapping back at the end.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.comm.model import (
    CommunicationModel,
    LinearCommModel,
    comm_cost_table,
    effective_comm_cost,
)
from repro.core.packet import AnnealingPacket, PacketMapping

__all__ = [
    "PacketKernel",
    "idle_processor_speeds",
    "compute_balance_range",
    "compute_comm_range",
    "comm_range_from_totals",
    "worst_case_comm_totals",
]

TaskId = Hashable
ProcId = int


def idle_processor_speeds(packet: AnnealingPacket, machine) -> Optional[List[float]]:
    """Speed factors of the packet's idle processors, or ``None`` when uniform.

    ``None`` (every speed exactly 1.0, or a machine without a speed model)
    selects the original homogeneous code paths, which keeps default machines
    bit-for-bit unchanged.
    """
    speed_of = getattr(machine, "speed_of", None)
    if speed_of is None or getattr(machine, "has_unit_speeds", True):
        return None
    speeds = [speed_of(p) for p in packet.idle_processors]
    if all(s == 1.0 for s in speeds):
        return None
    return speeds


def compute_balance_range(packet: AnnealingPacket, speeds: Optional[List[float]] = None) -> float:
    """``dF_b = (Max - Min) / N_idle`` (paper §4.2c) with a positive-floor guard.

    *speeds* (aligned with ``packet.idle_processors``) generalizes the range
    to heterogeneous machines, where the balance reward of selecting task *i*
    on processor *j* is ``n_i * speed_j``: the ``Max`` estimate pairs the
    highest levels with the fastest processors and the ``Min`` estimate the
    lowest levels with the slowest (reverse-sorted, by the rearrangement
    inequality).  ``None`` — the homogeneous default — reproduces the paper's
    original unit-speed formula exactly.
    """
    n_idle = packet.n_idle
    if n_idle == 0:
        return 1.0
    levels = sorted((packet.levels[t] for t in packet.ready_tasks), reverse=True)
    k = min(n_idle, len(levels))
    if k == 0:
        return 1.0
    if speeds is None:
        max_sum = sum(levels[:k])
        min_sum = sum(levels[-k:])
    else:
        speeds_desc = sorted(speeds, reverse=True)
        speeds_asc = speeds_desc[::-1]
        max_sum = sum(l * s for l, s in zip(levels[:k], speeds_desc[:k]))
        min_sum = sum(l * s for l, s in zip(levels[-k:], speeds_asc[:k]))
    rng = (max_sum - min_sum) / n_idle
    # When every candidate has the same level the balancing term cannot
    # discriminate; normalize by the common level magnitude instead so the
    # term still rewards selecting *more* tasks.
    if rng <= 0.0:
        rng = max(abs(max_sum) / max(n_idle, 1), 1.0)
    return rng


def worst_case_comm_totals(machine, weight_lists) -> List[float]:
    """Each task's share of ``dF_c``: its predecessor messages priced at the diameter.

    ``weight_lists[i]`` holds the edge weights of task *i*'s placed
    predecessors, in predecessor order; entry *i* of the result is their
    equation-4 costs summed (with ``sum``, in that order) as if every
    message crossed the whole network.  On weighted machines the worst case
    pairs the hop diameter (routing overhead) with the weighted diameter
    (volume); on unit-weight machines both are the same integer.  Only the
    weights enter, so a ready task's total never changes while it waits:
    :func:`~repro.core.array_annealer.compile_fast_packet` computes it once
    per run.
    """
    diameter = max(machine.diameter, 1)
    weighted_diameter = max(getattr(machine, "weighted_diameter", diameter), 1)
    params = machine.params
    return [
        sum(
            effective_comm_cost(w, diameter, False, params, weighted_diameter)
            for w in weights
        )
        for weights in weight_lists
    ]


def comm_range_from_totals(totals: List[float], n_idle: int) -> float:
    """``dF_c`` from the per-task totals of the packet's tasks with predecessors.

    At most ``min(n_idle, candidates)`` tasks can be selected, so the estimate
    sums that many of the largest totals — explicitly clamped, so a
    degenerate packet with no idle processor keeps the neutral range of 1.0
    instead of silently summing every candidate.
    """
    k = min(n_idle, len(totals))
    if k == 0:
        return 1.0
    estimate = sum(sorted(totals, reverse=True)[:k])
    return estimate if estimate > 0 else 1.0


def compute_comm_range(packet: AnnealingPacket, machine, comm_model: CommunicationModel) -> float:
    """``dF_c``: highest-communication candidates paired with the network diameter.

    The packet-level composition of :func:`worst_case_comm_totals` (over the
    ready tasks that have placed predecessors) and
    :func:`comm_range_from_totals`.
    """
    if not comm_model.enabled:
        return 1.0
    placement = packet.predecessor_placement
    weight_lists = []
    for task in packet.ready_tasks:
        preds = placement.get(task, ())
        if preds:
            weight_lists.append([w for _, _, w in preds])
    return comm_range_from_totals(
        worst_case_comm_totals(machine, weight_lists), packet.n_idle
    )


class PacketKernel:
    """Precompiled cost tables and index-space view of one annealing packet.

    Parameters
    ----------
    packet:
        The annealing packet to compile.
    machine:
        The target :class:`~repro.machine.machine.Machine`.
    comm_model:
        Communication model used to fill the cost table (defaults to the full
        equation-4 model).
    weight_balance, weight_comm:
        The mixing weights ``w_b`` and ``w_c`` of equation 6 (validated by the
        caller, typically :class:`~repro.core.cost.PacketCostFunction`).
    comm_table:
        Optional prebuilt ``(n_ready, n_idle)`` equation-4 table.  ``None``
        (the default) builds it with :func:`~repro.comm.model.comm_cost_table`;
        a caller passing one (see :meth:`from_tables`) guarantees its entries
        are bit-identical to that construction.
    comm_range:
        Optional precomputed ``dF_c``; ``None`` (the default) computes it
        with :func:`compute_comm_range`, and a caller passing one guarantees
        it equals that value.
    """

    __slots__ = (
        "packet",
        "tasks",
        "procs",
        "n_ready",
        "n_idle",
        "task_index",
        "proc_index",
        "levels",
        "speeds",
        "balance_rows",
        "comm_table",
        "comm_rows",
        "comm_enabled",
        "weight_balance",
        "weight_comm",
        "balance_range",
        "comm_range",
    )

    def __init__(
        self,
        packet: AnnealingPacket,
        machine,
        comm_model: Optional[CommunicationModel] = None,
        weight_balance: float = 0.5,
        weight_comm: float = 0.5,
        comm_table=None,
        comm_range: Optional[float] = None,
    ) -> None:
        comm_model = comm_model if comm_model is not None else LinearCommModel()
        self.packet = packet
        self.tasks: Tuple[TaskId, ...] = packet.ready_tasks
        self.procs: Tuple[ProcId, ...] = packet.idle_processors
        self.n_ready = len(self.tasks)
        self.n_idle = len(self.procs)
        self.task_index: Dict[TaskId, int] = {t: i for i, t in enumerate(self.tasks)}
        self.proc_index: Dict[ProcId, int] = {p: j for j, p in enumerate(self.procs)}
        self.levels: List[float] = [packet.levels[t] for t in self.tasks]
        self.speeds: Optional[List[float]] = idle_processor_speeds(packet, machine)
        # The balance reward of placing ready task i on idle processor j is
        # level_i * speed_j (eq. 3 generalized to heterogeneous machines);
        # with unit speeds the product is the level itself, bit for bit.
        if self.speeds is None:
            self.balance_rows: List[List[float]] = [
                [lvl] * self.n_idle for lvl in self.levels
            ]
        else:
            self.balance_rows = [
                [lvl * s for s in self.speeds] for lvl in self.levels
            ]
        if comm_table is None:
            placements = [
                tuple((pred_proc, w) for _, pred_proc, w in packet.predecessor_placement.get(t, ()))
                for t in self.tasks
            ]
            comm_table = comm_cost_table(comm_model, machine, self.procs, placements)
        self.comm_table = comm_table
        # Nested plain-float lists: scalar indexing is faster than ndarray
        # item access in the per-proposal hot loop, and ``tolist`` preserves
        # the float64 values exactly.
        self.comm_rows: List[List[float]] = self.comm_table.tolist()
        self.comm_enabled = comm_model.enabled
        self.weight_balance = float(weight_balance)
        self.weight_comm = float(weight_comm)
        self.balance_range = compute_balance_range(packet, self.speeds)
        if comm_range is None:
            comm_range = compute_comm_range(packet, machine, comm_model)
        self.comm_range = comm_range

    @classmethod
    def from_tables(
        cls,
        packet: AnnealingPacket,
        machine,
        comm_model: CommunicationModel,
        comm_table,
        comm_range: float,
        weight_balance: float = 0.5,
        weight_comm: float = 0.5,
    ) -> "PacketKernel":
        """Build a kernel around an externally-built communication table and ``dF_c``.

        *comm_table* is the ``(n_ready, n_idle)`` equation-4 cost table and
        *comm_range* the communication normalization, typically gathered
        from run-long per-task rows and totals
        (:func:`repro.core.array_annealer.compile_fast_packet`).  The caller
        guarantees both are bit-identical to what
        :func:`~repro.comm.model.comm_cost_table` and
        :func:`compute_comm_range` would produce for *packet* — which then
        needs no predecessor placement; everything else (levels, speeds,
        balance rows, balance range) is derived by the regular constructor.
        """
        return cls(
            packet,
            machine,
            comm_model=comm_model,
            weight_balance=weight_balance,
            weight_comm=weight_comm,
            comm_table=comm_table,
            comm_range=comm_range,
        )

    # ------------------------------------------------------------------ #
    # Index-space view (what the annealer runs on)
    # ------------------------------------------------------------------ #
    def index_packet(self) -> AnnealingPacket:
        """The packet with ready tasks and idle processors renumbered ``0..n-1``.

        ``levels`` is the dense levels list (integer task *i* indexes it
        directly); the predecessor placement is dropped because the kernel's
        tables already encode all communication information.
        """
        return AnnealingPacket(
            time=self.packet.time,
            ready_tasks=tuple(range(self.n_ready)),
            idle_processors=tuple(range(self.n_idle)),
            levels=self.levels,
            predecessor_placement={},
        )

    def assignment_to_ids(self, mapping: PacketMapping) -> Dict[TaskId, ProcId]:
        """Translate an index-space mapping back to task/processor identifiers."""
        tasks, procs = self.tasks, self.procs
        return {tasks[i]: procs[j] for i, j in mapping.task_to_proc.items()}

    # ------------------------------------------------------------------ #
    # Cost evaluation in index space (the annealing hot path)
    # ------------------------------------------------------------------ #
    def balance_cost(self, mapping: PacketMapping) -> float:
        """Equation 3 over an index-space mapping (speed-scaled when heterogeneous)."""
        rows = self.balance_rows
        return -sum(rows[i][j] for i, j in mapping.task_to_proc.items())

    def communication_cost(self, mapping: PacketMapping) -> float:
        """Equation 5 over an index-space mapping: one table lookup per task."""
        if not self.comm_enabled:
            return 0.0
        rows = self.comm_rows
        total = 0.0
        for i, j in mapping.task_to_proc.items():
            total += rows[i][j]
        return total

    def total_cost(self, mapping: PacketMapping) -> float:
        """Equation 6 (normalized weighted sum) over an index-space mapping."""
        fb = self.balance_cost(mapping)
        fc = self.communication_cost(mapping)
        return self.weight_comm * fc / self.comm_range + self.weight_balance * fb / self.balance_range

    def incremental_delta(self, changes) -> float:
        """Normalized cost change of one move's ``(task, old, new)`` index triples."""
        brows = self.balance_rows
        rows = self.comm_rows
        balance_delta = 0.0
        comm_delta = 0.0
        for i, old_j, new_j in changes:
            brow = brows[i]
            row = rows[i]
            if old_j is not None:
                balance_delta += brow[old_j]
                comm_delta -= row[old_j]
            if new_j is not None:
                balance_delta -= brow[new_j]
                comm_delta += row[new_j]
        return (
            self.weight_comm * comm_delta / self.comm_range
            + self.weight_balance * balance_delta / self.balance_range
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PacketKernel(n_ready={self.n_ready}, n_idle={self.n_idle}, "
            f"comm_enabled={self.comm_enabled})"
        )
