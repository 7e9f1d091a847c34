"""Array-native annealing walks: the resumable single-chain array walk, its
single-idle specialisation, and the multi-lane loop that steps them.

This module is the third performance tier of the packet annealer (see
``SAConfig``): the *reference* tier evaluates every move through
``comm_model.cost()`` calls (``compiled=False``), the *kernel* tier
(:func:`~repro.core.packet_annealer._anneal_indexed`, PR 1) fuses the walk
over the :class:`~repro.core.kernel.PacketKernel`'s dense tables, and the
walk here moves the remaining per-proposal Python overhead onto flat arrays:

* :func:`anneal_array` — the single-chain walk on flat index state.  The
  mapping lives in assignment/occupancy vectors (``assign[i] = j`` or ``-1``)
  plus an explicit insertion-order list that reproduces the dict-order
  semantics the kernel walk relies on (drop-victim selection and the
  full-cost resynchronization both iterate in insertion order); randomness is
  consumed from per-temperature blocks of pre-drawn values — one
  ``random_raw`` bulk pull converted **vectorized** into the exact doubles
  and 32-bit halves :class:`~repro.utils.rng.StreamDraws` would have produced
  one scalar call at a time.  Every stochastic decision and every float
  operation happens in the same order as the kernel walk, so a fixed-seed run
  is bit-for-bit identical to both ``_anneal_indexed`` and the
  ``SAConfig(compiled=False)`` reference.  The walk itself is a resumable
  generator (:func:`_array_walk`) that pauses after every temperature step;
  :func:`anneal_array` drives it with the annealer's stopping rule.

  Packets with exactly one idle processor (and a ready task) — the fast
  engine's common epoch, which carries almost all annealing proposals —
  run :func:`_one_slot_walk` instead, with the same generator protocol, on
  a :class:`OneSlotPacket`'s two columns (a kernel reaches it through the
  :func:`_single_idle_walk` adapter).
  Its whole mapping is one integer (the task on the processor, or -1), each
  task's add and drop deltas are built once per packet, and its draw blocks
  carry every 32-bit half already mapped to numpy's ``integers(0, n_ready)``
  answer (Lemire's method, vectorized; the rare half that fails the fast
  test is settled exactly in :func:`_lemire_retry`).  It draws the same raw
  words and applies the same float operations in the same order, so it is
  bit-identical too; :func:`_array_walk` remains the ``n_idle >= 2`` path
  and its differential oracle.  No option selects between them:
  :func:`_walk_for` decides from the packet shape.

* :func:`anneal_replicas_batched` — B independent lanes (multi-start
  replicas, or a portfolio's heterogeneous lanes) over one shared kernel.
  Each lane is its own resumable walk (the one :func:`anneal_array` would
  run) on its own child generator (from :func:`repro.utils.rng.split`); the
  loop steps every live lane one temperature at a time in lane order, then
  applies the per-lane stall and budget rule, then lets a portfolio
  controller cull lanes.  Lane *b* is
  therefore a solo :func:`anneal_array` walk on child *b* **by
  construction** — the contract :func:`anneal_replicas_scalar` pins in the
  differential tests.

* :func:`compile_fast_packet` — lowers a fast-engine
  :class:`~repro.sim.compile.FastPacket` straight from a
  :class:`ReadyRowCache`.  A ready task's equation-4 row and its share of
  ``dF_c`` are run-long invariants, so the cache builds both once per task
  per run — the row from the compiled scenario's per-edge tensor instead of
  ``cost_row`` calls (same accumulation order, bit-identical rows).  An epoch
  with one idle processor then only gathers two columns and takes two
  numpy maxima for its :class:`OneSlotPacket`, which the single chain
  anneals as is; any other epoch gathers the ready × idle slice and sorts
  the cached totals into an index-space
  :class:`~repro.core.packet.AnnealingPacket` and its
  :class:`~repro.core.kernel.PacketKernel`.  This is what gives SA a real
  ``fast_assign``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, ClassVar, Generator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.annealing.acceptance import BoltzmannSigmoidAcceptance
from repro.annealing.annealer import Annealer, AnnealingResult
from repro.annealing.stopping import (
    CombinedStopping,
    MaxIterationsStopping,
    StallStopping,
)
from repro.core.cost import CostBreakdown
from repro.core.kernel import (
    PacketKernel,
    comm_range_from_totals,
    worst_case_comm_totals,
)
from repro.core.moves import _DROP_PROBABILITY
from repro.core.packet import AnnealingPacket, PacketMapping

__all__ = [
    "OneSlotPacket",
    "ReadyRowCache",
    "anneal_array",
    "anneal_replicas_batched",
    "anneal_replicas_scalar",
    "compile_fast_packet",
]

_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53, numpy's double construction
_M32 = (1 << 32) - 1
_RAW_BLOCK = 1024


# --------------------------------------------------------------------------- #
# The single-chain array walk
# --------------------------------------------------------------------------- #

def _array_walk(
    kernel: PacketKernel,
    problem,
    rng,
    moves: int,
    resync_tolerance: float,
    cooling,
    t0: Optional[float],
) -> Generator[Tuple[float, float], bool, AnnealingResult]:
    """The resumable array walk (sigmoid acceptance inlined).

    A generator: it yields ``(temperature, cost)`` after every temperature
    step's resynchronization — the cost a stopping rule sees — and, when
    sent a true value, returns the walk's :class:`AnnealingResult`.
    ``t0=None`` asks *problem* for the initial temperature (after the
    initial state, consuming *rng* in that order).
    """
    state0 = problem.initial_state(rng)
    n_ready, n_idle = kernel.n_ready, kernel.n_idle
    # Flat mapping state: assignment / occupancy vectors plus the explicit
    # insertion-order list that mirrors the dict-order semantics of the
    # kernel walk (drop victims and resync sums both follow it).
    assign = [-1] * n_ready
    occ = [-1] * n_idle
    order: List[int] = []
    for i, j in state0.task_to_proc.items():
        assign[i] = j
        occ[j] = i
        order.append(i)

    brows = kernel.balance_rows
    rows = kernel.comm_rows
    wb, wc = kernel.weight_balance, kernel.weight_comm
    br, cr = kernel.balance_range, kernel.comm_range
    comm_enabled = kernel.comm_enabled
    degenerate = n_ready == 0 or n_idle == 0

    def full_cost() -> float:
        # Mirrors the kernel walk's resync sum: insertion-order accumulation
        # starting from the integer 0, negated afterwards.
        acc = 0
        for i in order:
            acc = acc + brows[i][assign[i]]
        fc = 0.0
        if comm_enabled:
            for i in order:
                fc += rows[i][assign[i]]
        return wc * fc / cr + wb * (-acc) / br

    cost = full_cost()
    best_assign = assign.copy()
    best_order = order.copy()
    best_cost = cost

    if t0 is None:
        t0 = problem.initial_temperature(rng)
    if t0 <= 0:
        raise ValueError(f"initial temperature must be > 0, got {t0}")

    # Pre-drawn blocks: raw 64-bit outputs pulled in bulk and converted
    # vectorized into the doubles and 32-bit halves StreamDraws would have
    # produced scalar call by scalar call.  A pending buffered half-word in
    # the generator's state is honoured, like StreamDraws does.
    bitgen = rng.bit_generator
    gstate = bitgen.state
    half = int(gstate["uinteger"]) if gstate.get("has_uint32") else None
    dbl: List[float] = []
    lo: List[int] = []
    hi: List[int] = []
    pos = 0
    blen = 0
    # Worst-case consumption of one temperature block: four raw words per
    # proposal (drop check, task, processor, acceptance) plus slack for the
    # Lemire rejection loop (probability < 2**-26 per draw).
    worst = 4 * moves + 64

    def refill(extra: int = _RAW_BLOCK) -> None:
        nonlocal dbl, lo, hi, pos, blen
        raw = bitgen.random_raw(extra)
        dbl = dbl[pos:]
        dbl.extend(((raw >> 11) * _INV_2_53).tolist())
        lo = lo[pos:]
        lo.extend((raw & _M32).tolist())
        hi = hi[pos:]
        hi.extend((raw >> 32).tolist())
        pos = 0
        blen = len(dbl)

    exp = math.exp
    drop_p = _DROP_PROBABILITY
    n_proposals = 0
    n_accepted = 0
    outer = 0
    while True:
        temperature = cooling.temperature(outer, t0)
        if temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {temperature}")
        zero_temp = temperature == 0.0
        infinite_temp = math.isinf(temperature)
        if blen - pos < worst:
            refill(max(worst, _RAW_BLOCK))
        for _ in range(moves):
            # ---- propose (kernel-walk logic over flat state) -------------- #
            # move kinds: 0 zero-delta, 1 drop, 2 (re)assign, 3 replace, 4 swap
            kind = 0
            delta = 0.0
            if not degenerate:
                if order and dbl[pos] < drop_p:
                    pos += 1
                    na = len(order)
                    if na == 1:
                        vidx = 0
                    else:
                        if half is not None:
                            u32 = half
                            half = None
                        else:
                            u32 = lo[pos]
                            half = hi[pos]
                            pos += 1
                        m = u32 * na
                        leftover = m & _M32
                        if leftover < na:  # pragma: no cover - ~2**-26 per draw
                            threshold = (4294967296 - na) % na
                            while leftover < threshold:
                                if half is not None:
                                    u32 = half
                                    half = None
                                else:
                                    if pos >= blen:
                                        refill()
                                    u32 = lo[pos]
                                    half = hi[pos]
                                    pos += 1
                                m = u32 * na
                                leftover = m & _M32
                        vidx = m >> 32
                    task = order[vidx]
                    old_j = assign[task]
                    kind = 1
                    balance_delta = 0.0 + brows[task][old_j]
                    comm_delta = 0.0 - rows[task][old_j]
                    delta = wc * comm_delta / cr + wb * balance_delta / br
                else:
                    if order:
                        pos += 1  # the drop-check double was consumed
                    # integers(0, n_ready)
                    if n_ready == 1:
                        task = 0
                    else:
                        if half is not None:
                            u32 = half
                            half = None
                        else:
                            u32 = lo[pos]
                            half = hi[pos]
                            pos += 1
                        m = u32 * n_ready
                        leftover = m & _M32
                        if leftover < n_ready:  # pragma: no cover
                            threshold = (4294967296 - n_ready) % n_ready
                            while leftover < threshold:
                                if half is not None:
                                    u32 = half
                                    half = None
                                else:
                                    if pos >= blen:
                                        refill()
                                    u32 = lo[pos]
                                    half = hi[pos]
                                    pos += 1
                                m = u32 * n_ready
                                leftover = m & _M32
                        task = m >> 32
                    cur = assign[task]
                    if cur < 0:
                        # integers(0, n_idle)
                        if n_idle == 1:
                            new_j = 0
                        else:
                            if half is not None:
                                u32 = half
                                half = None
                            else:
                                u32 = lo[pos]
                                half = hi[pos]
                                pos += 1
                            m = u32 * n_idle
                            leftover = m & _M32
                            if leftover < n_idle:  # pragma: no cover
                                threshold = (4294967296 - n_idle) % n_idle
                                while leftover < threshold:
                                    if half is not None:
                                        u32 = half
                                        half = None
                                    else:
                                        if pos >= blen:
                                            refill()
                                        u32 = lo[pos]
                                        half = hi[pos]
                                        pos += 1
                                    m = u32 * n_idle
                                    leftover = m & _M32
                            new_j = m >> 32
                    elif n_idle == 1:
                        new_j = -1  # nowhere else to go: zero-delta proposal
                    else:
                        # integers(0, n_idle - 1), skipping the current slot
                        bound = n_idle - 1
                        if bound == 1:
                            idx = 0
                        else:
                            if half is not None:
                                u32 = half
                                half = None
                            else:
                                u32 = lo[pos]
                                half = hi[pos]
                                pos += 1
                            m = u32 * bound
                            leftover = m & _M32
                            if leftover < bound:  # pragma: no cover
                                threshold = (4294967296 - bound) % bound
                                while leftover < threshold:
                                    if half is not None:
                                        u32 = half
                                        half = None
                                    else:
                                        if pos >= blen:
                                            refill()
                                        u32 = lo[pos]
                                        half = hi[pos]
                                        pos += 1
                                    m = u32 * bound
                                    leftover = m & _M32
                            idx = m >> 32
                        if idx >= cur:
                            idx += 1
                        new_j = idx
                    if new_j >= 0:
                        brow = brows[task]
                        row = rows[task]
                        occupant = occ[new_j]
                        if occupant < 0:
                            kind = 2
                            if cur >= 0:
                                balance_delta = 0.0 + brow[cur]
                                comm_delta = 0.0 - row[cur]
                            else:
                                balance_delta = 0.0
                                comm_delta = 0.0
                            balance_delta -= brow[new_j]
                            comm_delta += row[new_j]
                        elif cur < 0:
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
            # ---- accept (sigmoid inlined) --------------------------------- #
            n_proposals += 1
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
                accepted = dbl[pos] < probability
                pos += 1
            if accepted:
                # Apply in place, reproducing the dict-insertion order the
                # kernel walk's t2p mutations would leave.
                if kind == 1:
                    assign[task] = -1
                    occ[old_j] = -1
                    del order[vidx]
                elif kind == 2:
                    if cur >= 0:
                        occ[cur] = -1
                        order.remove(task)
                    assign[task] = new_j
                    occ[new_j] = task
                    order.append(task)
                elif kind == 3:
                    assign[occupant] = -1
                    order.remove(occupant)
                    assign[task] = new_j
                    occ[new_j] = task
                    order.append(task)
                elif kind == 4:
                    assign[task] = new_j
                    assign[occupant] = cur
                    occ[new_j] = task
                    occ[cur] = occupant
                n_accepted += 1
                cost = cost + delta
                if cost < best_cost:
                    best_cost = cost
                    best_assign = assign.copy()
                    best_order = order.copy()
        # Per-temperature resynchronization against incremental-cost drift.
        resynced = full_cost()
        if abs(resynced - cost) > resync_tolerance:
            cost = resynced
        outer += 1
        if (yield temperature, cost):
            break

    return AnnealingResult(
        best_state=PacketMapping({i: best_assign[i] for i in best_order}),
        best_cost=best_cost,
        final_state=PacketMapping({i: assign[i] for i in order}),
        final_cost=cost,
        n_iterations=outer,
        n_proposals=n_proposals,
        n_accepted=n_accepted,
        trajectory=[],
    )


# --------------------------------------------------------------------------- #
# The single-idle walk: one free processor, one integer of state
# --------------------------------------------------------------------------- #

def _task_indices(halves: np.ndarray, n: int) -> np.ndarray:
    """numpy's ``integers(0, n)`` answer for each 32-bit draw in *halves*.

    Lemire's method maps ``u32`` to ``(u32 * n) >> 32`` unless the product's
    low word is below *n* (the fast test fails): the draw may be rejected, so
    its entry is ``-(u32 + 1)`` and :func:`_lemire_retry` settles it exactly.
    """
    m = halves * np.uint64(n)
    out = (m >> 32).view(np.int64)
    slow = np.flatnonzero((m & _M32) < n)
    out[slow] = -1 - halves[slow].view(np.int64)
    return out


def _draw_block(bitgen, block, pos: int, count: int, n: int):
    """Drop *block*'s first *pos* words and append *count* fresh raw words.

    A block is three parallel lists over raw 64-bit words: the double each
    word makes and the pre-indexed task draw (:func:`_task_indices`) of its
    low and of its high 32-bit half.
    """
    raw = bitgen.random_raw(count)
    dbl, task_lo, task_hi = block
    # "<u4" pairs are (low, high) halves whatever the platform's byte order.
    halves = raw.astype("<u8", copy=False).view("<u4").astype(np.uint64)
    indices = _task_indices(halves, n)
    return (
        dbl[pos:] + ((raw >> 11) * _INV_2_53).tolist(),
        task_lo[pos:] + indices[0::2].tolist(),
        task_hi[pos:] + indices[1::2].tolist(),
    )


def _lemire_retry(enc: int, n: int, half, pos: int, block, bitgen):
    """Settle a task draw whose half (entry *enc* < 0) failed the fast test.

    numpy's rejection loop: the threshold test, then fresh halves (the
    buffered *half* first, then words of *block*, refilled with
    :data:`_RAW_BLOCK` words at its end) until one is accepted.  Returns
    ``(index, half, pos, block)``.
    """
    threshold = (4294967296 - n) % n
    while True:
        m = (-1 - enc) * n
        if m & _M32 >= threshold:
            return m >> 32, half, pos, block
        if half is not None:
            enc, half = half, None
        else:
            if pos >= len(block[0]):
                block = _draw_block(bitgen, block, pos, _RAW_BLOCK, n)
                pos = 0
            enc, half = block[1][pos], block[2][pos]
            pos += 1
        if enc >= 0:
            return enc, half, pos, block


@dataclass(eq=False)
class OneSlotPacket:
    """An epoch with one idle processor and a ready task, lowered to two columns.

    Entry *i* belongs to ready task ``tasks[i]`` on ``proc``: ``balance`` is
    its balance reward (the level, times the processor's speed when that is
    not 1) and ``comm`` its equation-4 cost, bit for bit the single column
    of the epoch's :class:`~repro.core.kernel.PacketKernel`.  Built by
    :func:`compile_fast_packet` (which sets ``fast_packet``, so
    :meth:`kernel` can build the full kernel) or :meth:`of_kernel`.
    """

    fast_packet: Any
    tasks: Sequence[int]
    proc: int
    hlf: int  #: the HLF seed: the first index of the highest level
    balance: np.ndarray
    comm: np.ndarray
    balance_range: float
    comm_range: float
    weight_balance: float
    weight_comm: float
    comm_enabled: bool
    n_idle: ClassVar[int] = 1

    @property
    def n_ready(self) -> int:
        return len(self.tasks)

    @classmethod
    def of_kernel(cls, kernel: PacketKernel) -> "OneSlotPacket":
        """The columns of a kernel with one idle processor and a ready task."""
        levels = kernel.levels
        return cls(
            None, kernel.tasks, kernel.procs[0], levels.index(max(levels)),
            np.array([row[0] for row in kernel.balance_rows], dtype=np.float64),
            np.array([row[0] for row in kernel.comm_rows], dtype=np.float64),
            kernel.balance_range, kernel.comm_range,
            kernel.weight_balance, kernel.weight_comm, kernel.comm_enabled,
        )

    def kernel(self) -> PacketKernel:
        """The epoch's :class:`~repro.core.kernel.PacketKernel`, bit-identical
        to the one :func:`compile_fast_packet` builds for wider epochs."""
        return _packet_kernel(
            self.fast_packet, self.comm[:, None], self.comm_range,
            self.weight_balance, self.weight_comm,
        )

    def breakdown(self, task: int) -> CostBreakdown:
        """Equation 6's parts with *task* on the processor (``-1``: none),
        summed like :meth:`PacketKernel.total_cost`."""
        fb, fc = 0, 0.0
        if task >= 0:
            fb = -(0 + float(self.balance[task]))
            if self.comm_enabled:
                fc += float(self.comm[task])
        total = self.weight_comm * fc / self.comm_range + self.weight_balance * fb / self.balance_range
        return CostBreakdown(fb, fc, total)


def _single_idle_walk(
    kernel: PacketKernel, problem, rng, moves: int, resync_tolerance: float, cooling, t0
) -> Generator[Tuple[float, float], bool, AnnealingResult]:
    """:func:`_one_slot_walk` over a one-idle-processor kernel: the adapter
    lanes, the object engine and the tests drive.  It seeds from *problem*
    (and asks it for ``t0=None``) the way :func:`_array_walk` does."""
    placed = list(problem.initial_state(rng).task_to_proc)
    if t0 is None:
        t0 = problem.initial_temperature(rng)
    return (yield from _one_slot_walk(
        OneSlotPacket.of_kernel(kernel), placed[0] if placed else -1,
        rng, moves, resync_tolerance, cooling, t0,
    ))


def _one_slot_walk(
    slot: OneSlotPacket,
    start: int,
    rng,
    moves: int,
    resync_tolerance: float,
    cooling,
    t0: float,
) -> Generator[Tuple[float, float], bool, AnnealingResult]:
    """:func:`_array_walk` for an epoch with one idle processor and a ready task.

    Same protocol, same draws and the same float operations in the same
    order, so the results (and the raw words drawn) are bit-identical.  The
    mapping is one integer, the task on the processor or ``-1`` (*start*):
    a drop empties it, a task drawn onto the empty processor is added, a
    different task replaces the occupant and the occupant itself is a
    zero-delta proposal.  Each task's add and drop deltas are built once per
    packet; the replace delta is computed inline.  Task draws come
    pre-indexed from the draw block (:func:`_draw_block`).
    """
    state = start
    n = slot.n_ready
    b = slot.balance.tolist()
    c = slot.comm.tolist()
    wb, wc = slot.weight_balance, slot.weight_comm
    br, cr = slot.balance_range, slot.comm_range
    # Each task's add and drop deltas, vectorized: numpy's float64 ops round
    # exactly like _array_walk's scalar ones, applied in the same order.
    b_col, c_col = slot.balance, slot.comm
    add = (wc * (0.0 + c_col) / cr + wb * (0.0 - b_col) / br).tolist()
    drop = (wc * (0.0 - c_col) / cr + wb * (0.0 + b_col) / br).tolist()
    # Each state's _array_walk full_cost() for the resync; full[-1] is {}'s.
    fc_col = 0.0 + c_col if slot.comm_enabled else 0.0
    full = (wc * fc_col / cr + wb * (-(0.0 + b_col)) / br).tolist()
    full.append(slot.breakdown(-1).total)
    # The occupant's (balance_delta, comm_delta) when it leaves; unused while
    # the processor is empty.
    sb, sc = 0.0 + b[state], 0.0 - c[state]
    cost = best_cost = full[state]
    best = state

    if t0 <= 0:
        raise ValueError(f"initial temperature must be > 0, got {t0}")

    bitgen = rng.bit_generator
    gstate = bitgen.state
    half = None  # the buffered half's block entry; None when there is none
    if gstate.get("has_uint32"):
        half = int(_task_indices(np.array([gstate["uinteger"]], np.uint64), n)[0])
    block = dbl, task_lo, task_hi = [], [], []
    pos = 0
    blen = 0
    worst = 4 * moves + 64  # _array_walk's block reserve: same raw words drawn
    one_task = n == 1

    exp = math.exp
    drop_p = _DROP_PROBABILITY
    n_proposals = 0
    n_accepted = 0
    outer = 0
    while True:
        temperature = cooling.temperature(outer, t0)
        if temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {temperature}")
        zero_temp = temperature == 0.0
        regular = not (zero_temp or math.isinf(temperature))
        if blen - pos < worst:
            block = _draw_block(bitgen, block, pos, max(worst, _RAW_BLOCK), n)
            dbl, task_lo, task_hi = block
            pos = 0
            blen = len(dbl)
        for _ in range(moves):
            if state >= 0 and dbl[pos] < drop_p:
                pos += 1
                new = -1
                delta = drop[state]
            else:
                if state >= 0:
                    pos += 1  # the drop-check double was consumed
                if one_task:
                    new = 0
                elif half is None:
                    new = task_lo[pos]
                    half = task_hi[pos]
                    pos += 1
                else:
                    new = half
                    half = None
                if new < 0:  # failed Lemire's fast test: ~n * 2**-32 per draw
                    new, half, pos, block = _lemire_retry(new, n, half, pos, block, bitgen)
                    dbl, task_lo, task_hi = block
                    blen = len(dbl)
                if state < 0:
                    delta = add[new]
                elif new == state:
                    delta = 0.0
                else:
                    delta = wc * (sc + c[new]) / cr + wb * (sb - b[new]) / br
            # ---- accept (sigmoid inlined; 0 < probability <= 1 in the
            # middle branch, so only 1.0 skips the draw there) ------------- #
            if regular:
                exponent = delta / temperature
                if exponent > 500.0:
                    accepted = False
                elif exponent < -500.0:
                    accepted = True
                else:
                    probability = 1.0 / (1.0 + exp(exponent))
                    if probability >= 1.0:
                        accepted = True
                    else:
                        accepted = dbl[pos] < probability
                        pos += 1
            elif zero_temp:
                accepted = delta < 0.0
            else:
                accepted = dbl[pos] < 0.5
                pos += 1
            if accepted:
                state = new
                sb, sc = 0.0 + b[new], 0.0 - c[new]
                n_accepted += 1
                cost = cost + delta
                if cost < best_cost:
                    best_cost = cost
                    best = state
        n_proposals += moves
        resynced = full[state]
        if abs(resynced - cost) > resync_tolerance:
            cost = resynced
        outer += 1
        if (yield temperature, cost):
            break

    return AnnealingResult(
        best_state=PacketMapping({best: 0} if best >= 0 else {}),
        best_cost=best_cost,
        final_state=PacketMapping({state: 0} if state >= 0 else {}),
        final_cost=cost,
        n_iterations=outer,
        n_proposals=n_proposals,
        n_accepted=n_accepted,
        trajectory=[],
    )


def _walk_for(kernel):
    """The resumable walk for *kernel*'s packet shape (same results either way)."""
    if isinstance(kernel, OneSlotPacket):
        return _one_slot_walk
    if kernel.n_idle == 1 and kernel.n_ready >= 1:
        return _single_idle_walk
    return _array_walk


def _finish(walk) -> AnnealingResult:
    """Stop a paused resumable walk and return its result."""
    try:
        walk.send(True)
    except StopIteration as done:
        return done.value
    raise RuntimeError("the array walk did not stop when told to")


def anneal_array(
    kernel,
    problem,
    annealer: Annealer,
    rng,
) -> AnnealingResult:
    """Single-chain annealing walk over flat array state.

    Drop-in replacement for ``_anneal_indexed`` (same signature, bit-identical
    result for a fixed seed); requires the sigmoid acceptance rule — the
    caller dispatches other rules to the kernel walk.  Drives one resumable
    walk with ``annealer.stopping``, which sees every temperature step's
    ``(step, cost)``: :func:`_single_idle_walk` when the packet has one idle
    processor and a ready task, :func:`_array_walk` otherwise (same result
    either way).  *kernel* may also be a :class:`OneSlotPacket`, walked by
    :func:`_one_slot_walk`; *problem* is then the start, the task index on
    the processor or ``-1``.  See the module docstring for the draw-block
    and insertion-order machinery.
    """
    if type(annealer.acceptance) is not BoltzmannSigmoidAcceptance:
        raise ValueError("anneal_array requires BoltzmannSigmoidAcceptance")
    stopping = annealer.stopping
    stopping.reset()
    walk = _walk_for(kernel)(
        kernel,
        problem,
        rng,
        annealer.moves_per_temperature,
        annealer.resync_tolerance,
        annealer.cooling,
        annealer.initial_temperature,
    )
    step = 0
    while not stopping.should_stop(step, next(walk)[1]):
        step += 1
    return _finish(walk)


# --------------------------------------------------------------------------- #
# Multi-lane annealing: stepped lanes and their scalar reference
# --------------------------------------------------------------------------- #

def _stall_params(stopping) -> Optional[Tuple[int, float, int]]:
    """Extract (patience, tolerance, max_iterations) from the canonical
    ``CombinedStopping([StallStopping, MaxIterationsStopping])`` structure the
    packet annealer builds; ``None`` for anything else (scalar fallback)."""
    if type(stopping) is not CombinedStopping:
        return None
    patience = tolerance = max_iter = None
    for rule in stopping.rules:
        if type(rule) is StallStopping and patience is None:
            patience, tolerance = rule.patience, rule.tolerance
        elif type(rule) is MaxIterationsStopping and max_iter is None:
            max_iter = rule.max_iterations
        else:
            return None
    if patience is None or max_iter is None:
        return None
    return patience, tolerance, max_iter


def anneal_replicas_scalar(
    kernel: PacketKernel,
    problem,
    annealer: Annealer,
    rngs,
) -> Tuple[List[AnnealingResult], List[List[Tuple[float, float]]]]:
    """Reference multi-replica path: one full single-chain walk per child.

    Defines the lane contract — :func:`anneal_replicas_batched` must return
    exactly these results — and serves as its fallback for the
    configurations the stepped lanes do not cover: non-sigmoid
    acceptance (run through the kernel walk) and stopping rules other than
    the canonical stall + maximum-steps pair.  Per-temperature trajectories
    are not collected on this path.
    """
    sigmoid = type(annealer.acceptance) is BoltzmannSigmoidAcceptance
    results = []
    for r in rngs:
        if sigmoid:
            results.append(anneal_array(kernel, problem, annealer, r))
        else:
            from repro.core.packet_annealer import _anneal_indexed

            results.append(_anneal_indexed(kernel, problem, annealer, r))
    return results, [[] for _ in results]


def anneal_replicas_batched(
    kernel: PacketKernel,
    problem,
    annealer: Annealer,
    rngs,
    plan=None,
) -> Tuple[List[AnnealingResult], List[List[Tuple[float, float]]]]:
    """Anneal ``len(rngs)`` lanes over one kernel, one temperature step at a time.

    Lane *b* is a resumable walk on generator ``rngs[b]`` — the one
    :func:`anneal_array` would run for this kernel, so single-idle packets
    step :func:`_single_idle_walk` lanes — and the returned results are
    bit-identical to :func:`anneal_replicas_scalar` on the same children.  Each round steps every live lane once, in lane
    order, and records its ``(temperature, cost)`` sample (taken after the
    per-temperature resync, i.e. the value a stopping rule sees) — the
    second return value, one list per lane, and the raw material of
    variance studies.  The round then applies the stall-patience and
    step-budget rule lane by lane; a stopped lane leaves the live set while
    the rest keep walking.

    With a *plan* (:class:`repro.annealing.portfolio.LanePlan`, duck-typed)
    the lanes become heterogeneous: lane *b* seeds from
    ``plan.problems[b]``, cools via ``plan.coolings[b]`` from
    ``plan.t0s[b]``, and stops against its own (mutable) entry of
    ``plan.budgets`` instead of the shared ``max_steps``.  After each round
    ``plan.controller.on_step`` may cull lanes (rung racing) and raise the
    survivors' budgets in place.  Lane *b* still consumes its generator
    exactly like a solo :func:`anneal_array` walk with that lane's
    parameters, so culled or not, it replays as a scalar run capped at its
    recorded ``n_iterations``.
    """
    B = len(rngs)
    if B == 0:
        return [], []
    params = _stall_params(annealer.stopping)
    if type(annealer.acceptance) is not BoltzmannSigmoidAcceptance or params is None:
        if plan is not None:
            raise ValueError(
                "a lane plan needs the array walk's sigmoid acceptance and "
                "stall + max-steps stopping"
            )
        return anneal_replicas_scalar(kernel, problem, annealer, rngs)
    patience, stall_tol, max_steps = params
    if plan is None:
        problems = [problem] * B
        coolings = [annealer.cooling] * B
        t0s = [annealer.initial_temperature] * B
        budgets = [max_steps] * B
        controller = None
    else:
        problems = plan.problems
        coolings = plan.coolings
        t0s = [float(t) for t in plan.t0s]
        budgets = plan.budgets  # mutated in place by the controller
        controller = plan.controller
        if len(coolings) != B or len(t0s) != B or len(budgets) != B:
            raise ValueError("lane plan arrays must have one entry per replica")

    walk = _walk_for(kernel)
    walks = [
        walk(
            kernel,
            problems[b],
            rngs[b],
            annealer.moves_per_temperature,
            annealer.resync_tolerance,
            coolings[b],
            t0s[b],
        )
        for b in range(B)
    ]
    trajectories: List[List[Tuple[float, float]]] = [[] for _ in range(B)]
    stalls = [StallStopping(patience, stall_tol) for _ in range(B)]
    n_iters = [0] * B  # steps run by each stopped or culled lane, 0 while live
    live = list(range(B))
    step = 0
    while live:
        step += 1
        for b in live:
            trajectories[b].append(next(walks[b]))
        walking = []
        for b in live:
            stalled = stalls[b].should_stop(step - 1, trajectories[b][-1][1])
            if stalled or step >= budgets[b]:
                n_iters[b] = step
            else:
                walking.append(b)
        live = walking
        if controller is not None and live:
            culled = controller.on_step(step, live, budgets, n_iters, trajectories)
            if culled:
                for b in culled:
                    n_iters[b] = step
                live = [b for b in live if not n_iters[b]]
    return [_finish(walk) for walk in walks], trajectories


# --------------------------------------------------------------------------- #
# FastPacket -> index-space packet + kernel (the SA fast_assign front end)
# --------------------------------------------------------------------------- #

class ReadyRowCache:
    """Run-long per-task inputs of :func:`compile_fast_packet` for one scenario.

    Once a task is ready, every predecessor has finished and its placement
    never changes, so two things about the task are fixed for the rest of
    the run: its equation-4 cost row over **all** processors, and its
    worst-case communication total (its share of ``dF_c``).
    :func:`compile_fast_packet` fills both the first epoch the task shows up
    ready.  The entries depend on one run's placements: the owner drops the
    cache when the run ends (:meth:`SAScheduler.reset
    <repro.core.sa_scheduler.SAScheduler.reset>`).
    """

    __slots__ = ("scenario", "have", "rows", "totals")

    def __init__(self, scenario) -> None:
        n = scenario.n_tasks
        self.scenario = scenario
        self.have = np.zeros(n, dtype=bool)
        #: ``rows[t, p]``: the equation-4 cost of placing task *t* on processor *p*.
        self.rows = np.zeros((n, scenario.n_procs), dtype=np.float64)
        #: Worst-case comm total per task; ``-inf`` without predecessors (or
        #: communication), which keeps the task out of ``dF_c``.  An array,
        #: so a one-idle epoch's ``dF_c`` is one numpy max.
        self.totals = np.full(n, -np.inf)


def _packet_kernel(fast_packet, comm_table, comm_range, weight_balance, weight_comm):
    """The epoch's annealing packet and kernel around a gathered comm table."""
    sc = fast_packet.scenario
    ready = fast_packet.ready
    levels_list = sc.levels_list
    packet = AnnealingPacket(
        time=fast_packet.time,
        ready_tasks=tuple(ready),
        idle_processors=tuple(fast_packet.idle),
        levels={ti: levels_list[ti] for ti in ready},
        predecessor_placement={},
    )
    return PacketKernel.from_tables(
        packet, sc.machine, sc.comm_model, comm_table, comm_range,
        weight_balance, weight_comm,
    )


def compile_fast_packet(
    fast_packet,
    cache: ReadyRowCache,
    weight_balance: float = 0.5,
    weight_comm: float = 0.5,
) -> Union[PacketKernel, OneSlotPacket]:
    """Lower one fast-engine epoch into a kernel, or two columns for one idle processor.

    *fast_packet* is a :class:`~repro.sim.compile.FastPacket` (duck-typed to
    avoid a core → sim import) and *cache* the run's :class:`ReadyRowCache`
    for its scenario.  Ready tasks keep their dense graph indices as
    identifiers.  A task seen for the first time gets its cache row summed
    from the precompiled per-edge equation-4 tensor, one predecessor at a
    time from 0.0 (the accumulation order of
    :func:`~repro.comm.model.comm_cost_table`), and its worst-case total
    from :func:`~repro.core.kernel.worst_case_comm_totals`.

    An epoch with one idle processor and a ready task — the common shape —
    becomes a :class:`OneSlotPacket`: the levels (speed-scaled) and the
    processor's column of the rows, ``dF_b`` from their max and min and
    ``dF_c`` from the max of the totals.  Any other epoch becomes a
    :class:`~repro.core.kernel.PacketKernel` (its annealing packet is
    ``kernel.packet``): the ready × idle slice of the rows and ``dF_c`` from
    the sorted totals (:func:`~repro.core.kernel.comm_range_from_totals`).
    Either way the columns, tables and ranges (and therefore every annealing
    decision) are bit-identical to the ones the materialized-context path
    would build.  The packet carries no predecessor placement: the tables
    already encode it.
    """
    sc = fast_packet.scenario
    if cache.scenario is not sc:
        raise ValueError("the row cache was built for another compiled scenario")
    ready = fast_packet.ready
    idle = fast_packet.idle
    index = np.array(ready, dtype=np.intp)  # one conversion for every gather
    have, rows, totals = cache.have, cache.rows, cache.totals
    new = index[~have[index]].tolist()
    pc = sc._pred_costs  # None for the zero model: rows stay 0.0, totals -inf
    if new and pc is not None:
        indptr = sc.pred_indptr_list
        pred_ids = sc.pred_ids_list
        assigned = fast_packet.assigned_proc
        with_preds = []
        weight_lists = []
        for ti in new:
            lo, hi = indptr[ti], indptr[ti + 1]
            if lo == hi:
                continue
            row = rows[ti]
            for e in range(lo, hi):
                row += pc[e, assigned[pred_ids[e]]]
            with_preds.append(ti)
            weight_lists.append(sc.pred_weights[lo:hi].tolist())
        if with_preds:
            totals[with_preds] = worst_case_comm_totals(sc.machine, weight_lists)
    have[new] = True
    ready_totals = totals[index]
    if len(idle) == 1 and ready:
        # compute_balance_range and comm_range_from_totals for k = 1: a
        # positive speed keeps the extreme levels extreme, bit for bit.
        p = idle[0]
        levels = sc.levels[index]
        speed = sc.speeds_list[p]
        balance = levels if speed == 1.0 else levels * speed
        high = float(balance.max())
        balance_range = high - float(balance.min())
        if balance_range <= 0.0:
            balance_range = max(abs(high), 1.0)
        comm_range = float(ready_totals.max())
        return OneSlotPacket(
            fast_packet, ready, p, int(levels.argmax()), balance, rows[:, p][index],
            balance_range, comm_range if comm_range > 0 else 1.0,
            float(weight_balance), float(weight_comm), sc.comm_model.enabled,
        )
    comm_range = comm_range_from_totals(
        ready_totals[ready_totals > -np.inf].tolist(), len(idle)
    )
    return _packet_kernel(
        fast_packet, rows[np.ix_(index, idle)], comm_range, weight_balance, weight_comm
    )
