"""Array-native annealing walks: the single-chain array kernel and the
batched lock-step multi-replica engine.

This module is the third and fourth performance tier of the packet annealer
(see ``SAConfig``): the *reference* tier evaluates every move through
``comm_model.cost()`` calls (``compiled=False``), the *kernel* tier
(:func:`~repro.core.packet_annealer._anneal_indexed`, PR 1) fuses the walk
over the :class:`~repro.core.kernel.PacketKernel`'s dense tables, and the
tiers here move the remaining per-proposal Python overhead onto flat arrays:

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
  ``SAConfig(compiled=False)`` reference.

* :func:`anneal_replicas_batched` — B independent replicas annealed in
  lock-step over ``(B, k)`` state matrices with vectorized propose /
  evaluate / accept.  Each replica owns one child generator (from
  :func:`repro.utils.rng.split`) and its lane replicates the scalar
  single-chain walk on that stream **bit for bit**: per-lane draw cursors
  index pre-drawn ``(B, block)`` matrices, the Lemire bounded-integer draw is
  vectorized across lanes (with a scalar slow path for its astronomically
  rare rejection loop), move deltas are gathered from the kernel tables with
  fancy indexing in the scalar walk's float operation order, and the sigmoid
  acceptance keeps ``math.exp`` per lane so the acceptance bits cannot drift
  from the scalar path's libm.  The contract — proven by
  :func:`anneal_replicas_scalar` in the differential tests — is that replica
  *b* of a batched run equals a scalar single-chain run on child *b*.

* :func:`compile_fast_packet` — builds an index-space
  :class:`~repro.core.packet.AnnealingPacket` and its
  :class:`~repro.core.kernel.PacketKernel` directly from a fast-engine
  :class:`~repro.sim.compile.FastPacket`.  A ready task's equation-4 row and
  its share of ``dF_c`` are run-long invariants, so a :class:`ReadyRowCache`
  builds both once per task per run — the row from the compiled scenario's
  per-edge tensor instead of ``cost_row`` calls (same accumulation order,
  bit-identical rows) — and each epoch only gathers the ready × idle slice
  and sorts the cached totals.  This is what gives SA a real
  ``fast_assign``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.annealing.acceptance import BoltzmannSigmoidAcceptance
from repro.annealing.annealer import Annealer, AnnealingResult
from repro.annealing.stopping import (
    CombinedStopping,
    MaxIterationsStopping,
    StallStopping,
)
from repro.core.kernel import (
    PacketKernel,
    comm_range_from_totals,
    worst_case_comm_totals,
)
from repro.core.moves import _DROP_PROBABILITY
from repro.core.packet import AnnealingPacket, PacketMapping

__all__ = [
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

def anneal_array(
    kernel: PacketKernel,
    problem,
    annealer: Annealer,
    rng,
) -> AnnealingResult:
    """Single-chain annealing walk over flat array state.

    Drop-in replacement for ``_anneal_indexed`` (same signature, bit-identical
    result for a fixed seed); requires the sigmoid acceptance rule — the
    caller dispatches other rules to the kernel walk.  See the module
    docstring for the draw-block and insertion-order machinery.
    """
    if type(annealer.acceptance) is not BoltzmannSigmoidAcceptance:
        raise ValueError("anneal_array requires BoltzmannSigmoidAcceptance")
    cooling = annealer.cooling
    stopping = annealer.stopping
    moves = annealer.moves_per_temperature

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

    t0 = (
        annealer.initial_temperature
        if annealer.initial_temperature is not None
        else problem.initial_temperature(rng)
    )
    if t0 <= 0:
        raise ValueError(f"initial temperature must be > 0, got {t0}")

    stopping.reset()

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
        if abs(resynced - cost) > annealer.resync_tolerance:
            cost = resynced
        if stopping.should_stop(outer, cost):
            outer += 1
            break
        outer += 1

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
# The batched lock-step multi-replica engine
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
    """Reference multi-replica path: one scalar single-chain walk per child.

    Defines the batched contract — :func:`anneal_replicas_batched` must
    return exactly these results — and serves as the fallback for
    configurations the vectorized engine does not cover (non-sigmoid
    acceptance, exotic stopping rules, degenerate packets).  Per-temperature
    trajectories are not collected on this path.
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
    """Anneal ``len(rngs)`` replicas in lock-step over ``(B, k)`` state matrices.

    Replica *b* consumes generator ``rngs[b]`` exactly as
    :func:`anneal_array` would, so the returned results are bit-identical to
    :func:`anneal_replicas_scalar` on the same children — only the control
    flow is shared: proposals are drawn, scored and accepted for all live
    replicas at once with vectorized gathers over the kernel tables.  The
    second return value holds one ``(temperature, cost)`` sample per replica
    per temperature step (recorded after the per-temperature resync, i.e.
    the value the stopping rule saw) — the raw material of variance studies.

    Replicas stop independently (stall patience / max steps, replicated
    vectorized); a stopped lane simply leaves the active set while the rest
    keep walking.

    With a *plan* (:class:`repro.annealing.portfolio.LanePlan`, duck-typed)
    the lanes become heterogeneous: lane *b* seeds from
    ``plan.problems[b]``, cools via ``plan.coolings[b]`` from
    ``plan.t0s[b]``, and stops against its own (mutable) entry of
    ``plan.budgets`` instead of the shared ``max_steps``.  After each
    temperature step ``plan.controller.on_step`` may cull lanes (rung
    racing) and raise the survivors' budgets in place.  Each lane still
    consumes its generator exactly like a solo :func:`anneal_array` walk
    with that lane's parameters, so culled or not, lane *b* replays as a
    scalar run capped at its recorded ``n_iterations``.
    """
    B = len(rngs)
    if B == 0:
        return [], []
    n_ready, n_idle = kernel.n_ready, kernel.n_idle
    params = _stall_params(annealer.stopping)
    if (
        n_ready == 0
        or n_idle == 0
        or type(annealer.acceptance) is not BoltzmannSigmoidAcceptance
        or (plan is None and annealer.initial_temperature is None)
        or params is None
    ):
        if plan is not None:
            raise ValueError(
                "a lane plan needs the vectorized engine: sigmoid acceptance, "
                "stall+max stopping and a non-degenerate packet"
            )
        return anneal_replicas_scalar(kernel, problem, annealer, rngs)
    patience, stall_tol, max_steps = params
    moves = annealer.moves_per_temperature
    cooling = annealer.cooling
    resync_tol = annealer.resync_tolerance
    if plan is None:
        t0 = annealer.initial_temperature
        if t0 <= 0:
            raise ValueError(f"initial temperature must be > 0, got {t0}")
        coolings = t0s = controller = None
        budgets = np.full(B, max_steps, dtype=np.int64)
    else:
        coolings = list(plan.coolings)
        t0s = [float(t) for t in plan.t0s]
        for t in t0s:
            if t <= 0:
                raise ValueError(f"initial temperature must be > 0, got {t}")
        budgets = plan.budgets  # mutated in place by the controller
        controller = plan.controller
        if len(coolings) != B or len(t0s) != B or len(budgets) != B:
            raise ValueError("lane plan arrays must have one entry per replica")

    brows_l = kernel.balance_rows
    rows_l = kernel.comm_rows
    brows = np.asarray(brows_l, dtype=np.float64)
    rows = np.asarray(rows_l, dtype=np.float64)
    wb, wc = kernel.weight_balance, kernel.weight_comm
    br, cr = kernel.balance_range, kernel.comm_range
    comm_enabled = kernel.comm_enabled

    # ---- per-lane initial state (same Generator consumption as scalar) ---- #
    assign = np.full((B, n_ready), -1, dtype=np.int32)
    occm = np.full((B, n_idle), -1, dtype=np.int32)
    orders: List[List[int]] = []
    n_assigned = np.zeros(B, dtype=np.int64)
    for b, r in enumerate(rngs):
        st = (problem if plan is None else plan.problems[b]).initial_state(r)
        o: List[int] = []
        for i, j in st.task_to_proc.items():
            assign[b, i] = j
            occm[b, j] = i
            o.append(i)
        orders.append(o)
        n_assigned[b] = len(o)

    def full_cost_lane(b: int) -> float:
        # Insertion-order accumulation, exactly like the scalar resync.
        row = assign[b].tolist()
        acc = 0
        for i in orders[b]:
            acc = acc + brows_l[i][row[i]]
        fc = 0.0
        if comm_enabled:
            for i in orders[b]:
                fc += rows_l[i][row[i]]
        return wc * fc / cr + wb * (-acc) / br

    cost = np.array([full_cost_lane(b) for b in range(B)], dtype=np.float64)
    best_cost = cost.copy()
    best_assign = assign.copy()
    best_orders = [o.copy() for o in orders]
    n_props = np.zeros(B, dtype=np.int64)
    n_acc = np.zeros(B, dtype=np.int64)
    n_iters = np.zeros(B, dtype=np.int64)
    stall = np.zeros(B, dtype=np.int64)
    last_cost = np.zeros(B, dtype=np.float64)
    have_last = np.zeros(B, dtype=bool)
    trajectories: List[List[Tuple[float, float]]] = [[] for _ in range(B)]

    # ---- per-lane pre-drawn blocks ---------------------------------------- #
    bitgens = [r.bit_generator for r in rngs]
    halves = np.full(B, -1, dtype=np.int64)  # -1 = no buffered half-word
    for b, bg in enumerate(bitgens):
        gstate = bg.state
        if gstate.get("has_uint32"):
            halves[b] = int(gstate["uinteger"])
    cap = (4 * moves + 64) * 8  # ~8 temperature blocks of worst-case draws
    raw = np.empty((B, cap), dtype=np.uint64)
    for b, bg in enumerate(bitgens):
        raw[b] = bg.random_raw(cap)
    dbl = (raw >> np.uint64(11)) * _INV_2_53
    lom = (raw & np.uint64(_M32)).astype(np.int64)
    him = (raw >> np.uint64(32)).astype(np.int64)
    # Flat views over the (B, cap) buffers: ``take`` on a flat index beats
    # two-axis fancy indexing in the per-proposal gathers, and in-place row
    # rewrites (topup) stay visible through the views.
    dbl_flat = dbl.reshape(-1)
    lom_flat = lom.reshape(-1)
    him_flat = him.reshape(-1)
    cur = np.zeros(B, dtype=np.int64)

    def topup(lanes) -> None:
        need = 4 * moves + 64
        for b in lanes.tolist():
            c = int(cur[b])
            if cap - c >= need:
                continue
            rem = cap - c
            if rem:
                raw[b, :rem] = raw[b, c:].copy()
            raw[b, rem:] = bitgens[b].random_raw(c)
            row = raw[b]
            dbl[b] = (row >> np.uint64(11)) * _INV_2_53
            lom[b] = (row & np.uint64(_M32)).astype(np.int64)
            him[b] = (row >> np.uint64(32)).astype(np.int64)
            cur[b] = 0

    def next_u32(b: int) -> int:
        # Scalar slow path (Lemire rejections): same half-word discipline.
        h = int(halves[b])
        if h >= 0:
            halves[b] = -1
            return h
        if cur[b] >= cap:  # pragma: no cover - needs a rejection storm
            w = int(bitgens[b].random_raw(1)[0])
            halves[b] = w >> 32
            return w & _M32
        u = int(lom[b, cur[b]])
        halves[b] = int(him[b, cur[b]])
        cur[b] += 1
        return u

    def draw_ints(lanes: np.ndarray, nvec: np.ndarray) -> np.ndarray:
        """Vectorized ``integers(0, n)`` across lanes (per-lane bounds)."""
        multi = nvec > 1  # n == 1 consumes nothing and returns 0
        partial = not multi.all()
        if partial:
            if not multi.any():
                return np.zeros(lanes.size, dtype=np.int64)
            ml = lanes[multi]
            n = nvec[multi].astype(np.int64)
        else:
            ml = lanes
            n = nvec
        h = halves[ml]
        has_h = h >= 0
        if has_h.any():
            u32 = np.where(has_h, h, 0)
            fresh = ml[~has_h]
            if fresh.size:
                fidx = fresh * cap + cur[fresh]
                u32[~has_h] = lom_flat.take(fidx)
                halves[fresh] = him_flat.take(fidx)
                cur[fresh] += 1
            halves[ml[has_h]] = -1
        else:
            fidx = ml * cap + cur[ml]
            u32 = lom_flat.take(fidx)
            halves[ml] = him_flat.take(fidx)
            cur[ml] += 1
        m = u32 * n
        leftover = m & _M32
        rej = leftover < n
        if rej.any():  # pragma: no cover - ~2**-26 per draw
            for k in np.flatnonzero(rej).tolist():
                b = int(ml[k])
                nn = int(n[k])
                lv = int(leftover[k])
                mm = int(m[k])
                threshold = (4294967296 - nn) % nn
                while lv < threshold:
                    u = next_u32(b)
                    mm = u * nn
                    lv = mm & _M32
                m[k] = mm
        if not partial:
            return m >> 32
        out = np.zeros(lanes.size, dtype=np.int64)
        out[multi] = m >> 32
        return out

    # ---- the lock-step walk ----------------------------------------------- #
    active = np.arange(B)
    exp = math.exp
    n_ready_vec = np.full(B, n_ready, dtype=np.int64)
    outer = 0
    while active.size:
        if plan is None:
            temperature = cooling.temperature(outer, t0)
            if temperature < 0:
                raise ValueError(f"temperature must be >= 0, got {temperature}")
            zero_temp = temperature == 0.0
            infinite_temp = math.isinf(temperature)
            lane_temps = None
        else:
            lane_temps = {}
            for b in active.tolist():
                tb = coolings[b].temperature(outer, t0s[b])
                if tb < 0:
                    raise ValueError(f"temperature must be >= 0, got {tb}")
                lane_temps[b] = tb
        topup(active)
        act = active
        A = act.size
        act_list = act.tolist()
        act_base = act * cap
        bound_ready = n_ready_vec[:A]
        # Every active lane evaluates every proposal of the block (hoisted
        # out of the per-proposal loop; identical to the scalar counters).
        n_props[act] += moves
        for _ in range(moves):
            # -- drop check: lanes with a non-empty mapping consume a double
            na = n_assigned[act]
            has = na > 0
            drop = np.zeros(A, dtype=bool)
            if has.all():
                u = dbl_flat.take(act_base + cur[act])
                cur[act] += 1
                drop = u < _DROP_PROBABILITY
            elif has.any():
                du = act[has]
                u = dbl_flat.take(du * cap + cur[du])
                cur[du] += 1
                drop[has] = u < _DROP_PROBABILITY
            # -- first bounded draw, merged across branches: the drop victim
            #    index (bound n_assigned) or the proposed task (bound n_ready)
            drop_idx = drop.nonzero()[0]
            dropping = drop_idx.size > 0
            bound1 = np.where(drop, na, bound_ready) if dropping else bound_ready
            d1 = draw_ints(act, bound1)
            task = d1
            vidx = d1  # drop-lane interpretation (victim position)
            if dropping:
                task = d1.copy()
                task[drop_idx] = [
                    orders[act_list[k]][v]
                    for k, v in zip(drop_idx.tolist(), d1[drop_idx].tolist())
                ]
            # current processor of the selected task (drop lanes: old_j)
            cp = assign[act, task]
            # -- second bounded draw, merged: destination processor (bound
            #    n_idle for unselected tasks, n_idle - 1 skipping the current
            #    slot otherwise; n_idle == 1 with a current slot draws nothing)
            unsel = cp < 0
            eligible = ~drop & (unsel | (n_idle > 1))
            newj = np.full(A, -1, dtype=np.int64)
            el_idx = eligible.nonzero()[0]
            if el_idx.size:
                cpe = cp[el_idx]
                une = cpe < 0
                d2 = draw_ints(act[el_idx], np.where(une, n_idle, n_idle - 1))
                d2 = d2 + (~une & (d2 >= cpe))
                newj[el_idx] = d2
            # -- classify moves and evaluate deltas from the kernel tables
            delta = np.zeros(A, dtype=np.float64)
            kind = np.zeros(A, dtype=np.int8)
            occ_t = np.full(A, -1, dtype=np.int64)
            if dropping:
                tt = task[drop_idx]
                oj = cp[drop_idx]
                bd = 0.0 + brows[tt, oj]
                cd = 0.0 - rows[tt, oj]
                delta[drop_idx] = wc * cd / cr + wb * bd / br
                kind[drop_idx] = 1
            mv = newj >= 0
            mv_idx = mv.nonzero()[0]
            if mv_idx.size:
                t2 = task[mv_idx]
                c2 = cp[mv_idx]
                j2 = newj[mv_idx]
                oc = occm[act[mv_idx], j2].astype(np.int64)
                occ_t[mv_idx] = oc
                free = oc < 0
                hascur = c2 >= 0
                if free.all():
                    k2m = None  # all moves land on free processors
                    tk, jk = t2, j2
                    csafe = np.where(hascur, c2, 0)
                    bd = np.where(hascur, 0.0 + brows[tk, csafe], 0.0)
                    cd = np.where(hascur, 0.0 - rows[tk, csafe], 0.0)
                    bd = bd - brows[tk, jk]
                    cd = cd + rows[tk, jk]
                    delta[mv_idx] = wc * cd / cr + wb * bd / br
                    kind[mv_idx] = 2
                else:
                    k2m = free
                    if k2m.any():
                        tk, jk = t2[k2m], j2[k2m]
                        hc = hascur[k2m]
                        csafe = np.where(hc, c2[k2m], 0)
                        bd = np.where(hc, 0.0 + brows[tk, csafe], 0.0)
                        cd = np.where(hc, 0.0 - rows[tk, csafe], 0.0)
                        bd = bd - brows[tk, jk]
                        cd = cd + rows[tk, jk]
                        delta[mv_idx[k2m]] = wc * cd / cr + wb * bd / br
                        kind[mv_idx[k2m]] = 2
                    k3m = ~free & ~hascur
                    if k3m.any():
                        tk, jk, ok = t2[k3m], j2[k3m], oc[k3m]
                        bd = 0.0 + brows[ok, jk]
                        cd = 0.0 - rows[ok, jk]
                        bd = bd - brows[tk, jk]
                        cd = cd + rows[tk, jk]
                        delta[mv_idx[k3m]] = wc * cd / cr + wb * bd / br
                        kind[mv_idx[k3m]] = 3
                    k4m = ~free & hascur
                    if k4m.any():
                        tk, jk, ok, ck = t2[k4m], j2[k4m], oc[k4m], c2[k4m]
                        bd = 0.0 + brows[tk, ck]
                        cd = 0.0 - rows[tk, ck]
                        bd = bd - brows[tk, jk]
                        cd = cd + rows[tk, jk]
                        bd = bd + brows[ok, jk]
                        cd = cd - rows[ok, jk]
                        bd = bd - brows[ok, ck]
                        cd = cd + rows[ok, ck]
                        delta[mv_idx[k4m]] = wc * cd / cr + wb * bd / br
                        kind[mv_idx[k4m]] = 4
            # -- acceptance (sigmoid; math.exp per lane keeps libm parity
            #    with the scalar walk — numpy's vectorized exp may differ in
            #    the last ulp on some builds, which would break bit-identity)
            if lane_temps is not None:
                probs = []
                for k, d in enumerate(delta.tolist()):
                    tb = lane_temps[act_list[k]]
                    if tb == 0.0:
                        probs.append(1.0 if d < 0.0 else 0.0)
                    elif math.isinf(tb):
                        probs.append(0.5)
                    else:
                        e = d / tb
                        probs.append(
                            1.0 / (1.0 + exp(e))
                            if -500.0 <= e <= 500.0
                            else (0.0 if e > 500.0 else 1.0)
                        )
                prob = np.asarray(probs)
            elif zero_temp:
                prob = np.where(delta < 0.0, 1.0, 0.0)
            elif infinite_temp:
                prob = np.full(A, 0.5)
            else:
                prob = np.asarray(
                    [
                        1.0 / (1.0 + exp(e))
                        if -500.0 <= e <= 500.0
                        else (0.0 if e > 500.0 else 1.0)
                        for e in (delta / temperature).tolist()
                    ]
                )
            accepted = prob >= 1.0
            mid = (prob > 0.0) & (prob < 1.0)
            ml = act[mid]
            if ml.size:
                u = dbl_flat.take(ml * cap + cur[ml])
                cur[ml] += 1
                accepted[mid] = u < prob[mid]
            acc_idx = accepted.nonzero()[0]
            if acc_idx.size:
                lanes = act[acc_idx]
                n_acc[lanes] += 1
                cost[lanes] = cost[lanes] + delta[acc_idx]
                for k in acc_idx.tolist():
                    kd = int(kind[k])
                    if kd == 0:
                        continue
                    b = act_list[k]
                    t = int(task[k])
                    if kd == 1:
                        assign[b, t] = -1
                        occm[b, int(cp[k])] = -1
                        del orders[b][int(vidx[k])]
                        n_assigned[b] -= 1
                    elif kd == 2:
                        cp2 = int(cp[k])
                        nj2 = int(newj[k])
                        if cp2 >= 0:
                            occm[b, cp2] = -1
                            orders[b].remove(t)
                        else:
                            n_assigned[b] += 1
                        assign[b, t] = nj2
                        occm[b, nj2] = t
                        orders[b].append(t)
                    elif kd == 3:
                        oc2 = int(occ_t[k])
                        nj2 = int(newj[k])
                        assign[b, oc2] = -1
                        orders[b].remove(oc2)
                        assign[b, t] = nj2
                        occm[b, nj2] = t
                        orders[b].append(t)
                    else:
                        cp2 = int(cp[k])
                        nj2 = int(newj[k])
                        oc2 = int(occ_t[k])
                        assign[b, t] = nj2
                        assign[b, oc2] = cp2
                        occm[b, nj2] = t
                        occm[b, cp2] = oc2
                imp = lanes[cost[lanes] < best_cost[lanes]]
                if imp.size:
                    best_cost[imp] = cost[imp]
                    best_assign[imp] = assign[imp]
                    for b in imp.tolist():
                        best_orders[b] = orders[b].copy()
        # -- per-temperature: resync, trajectory sample, stopping
        for b in active.tolist():
            resynced = full_cost_lane(b)
            if abs(resynced - float(cost[b])) > resync_tol:
                cost[b] = resynced
            trajectories[b].append(
                (temperature if lane_temps is None else lane_temps[b], float(cost[b]))
            )
        c = cost[active]
        eq = have_last[active] & (np.abs(c - last_cost[active]) <= stall_tol)
        stall[active] = np.where(eq, stall[active] + 1, 0)
        last_cost[active] = c
        have_last[active] = True
        stop = (stall[active] >= patience) | (outer + 1 >= budgets[active])
        stopped = active[stop]
        if stopped.size:
            n_iters[stopped] = outer + 1
            active = active[~stop]
        if controller is not None and active.size:
            culled = controller.on_step(
                outer + 1, active.tolist(), budgets, n_iters, trajectories
            )
            if culled:
                n_iters[np.asarray(culled)] = outer + 1
                active = active[~np.isin(active, culled)]
        outer += 1

    results = []
    for b in range(B):
        row = best_assign[b]
        best_map = {int(i): int(row[i]) for i in best_orders[b]}
        frow = assign[b]
        final_map = {int(i): int(frow[i]) for i in orders[b]}
        results.append(
            AnnealingResult(
                best_state=PacketMapping(best_map),
                best_cost=float(best_cost[b]),
                final_state=PacketMapping(final_map),
                final_cost=float(cost[b]),
                n_iterations=int(n_iters[b]),
                n_proposals=int(n_props[b]),
                n_accepted=int(n_acc[b]),
                trajectory=[],
            )
        )
    return results, trajectories


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
        self.have: List[bool] = [False] * n
        #: ``rows[t, p]``: the equation-4 cost of placing task *t* on processor *p*.
        self.rows = np.zeros((n, scenario.n_procs), dtype=np.float64)
        #: Worst-case comm total per task; ``None`` without predecessors (or
        #: communication), which keeps the task out of ``dF_c``.
        self.totals: List[Optional[float]] = [None] * n


def compile_fast_packet(
    fast_packet,
    cache: ReadyRowCache,
    weight_balance: float = 0.5,
    weight_comm: float = 0.5,
) -> Tuple[AnnealingPacket, PacketKernel]:
    """Lower one fast-engine epoch into an annealing packet and its kernel.

    *fast_packet* is a :class:`~repro.sim.compile.FastPacket` (duck-typed to
    avoid a core → sim import) and *cache* the run's :class:`ReadyRowCache`
    for its scenario.  Ready tasks keep their dense graph indices as
    identifiers.  A task seen for the first time gets its cache row summed
    from the precompiled per-edge equation-4 tensor, one predecessor at a
    time from 0.0 (the accumulation order of
    :func:`~repro.comm.model.comm_cost_table`), and its worst-case total
    from :func:`~repro.core.kernel.worst_case_comm_totals`.  The epoch then
    gathers the ready × idle slice of the rows and sorts the ready tasks'
    totals (:func:`~repro.core.kernel.comm_range_from_totals`), so the
    tables and ranges (and therefore every annealing decision) are
    bit-identical to the ones the materialized-context path would build.
    The packet carries no predecessor placement: the kernel's tables
    already encode it.
    """
    sc = fast_packet.scenario
    if cache.scenario is not sc:
        raise ValueError("the row cache was built for another compiled scenario")
    ready = fast_packet.ready
    idle = fast_packet.idle
    have, rows, totals = cache.have, cache.rows, cache.totals
    new = [ti for ti in ready if not have[ti]]
    pc = sc._pred_costs  # None for the zero model: rows stay 0.0, totals None
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
        for ti, total in zip(with_preds, worst_case_comm_totals(sc.machine, weight_lists)):
            totals[ti] = total
    for ti in new:
        have[ti] = True
    levels_list = sc.levels_list
    packet = AnnealingPacket(
        time=fast_packet.time,
        ready_tasks=tuple(ready),
        idle_processors=tuple(idle),
        levels={ti: levels_list[ti] for ti in ready},
        predecessor_placement={},
    )
    comm_range = comm_range_from_totals(
        [t for t in map(totals.__getitem__, ready) if t is not None], len(idle)
    )
    kernel = PacketKernel.from_tables(
        packet,
        sc.machine,
        sc.comm_model,
        rows[np.ix_(ready, idle)],
        comm_range,
        weight_balance,
        weight_comm,
    )
    return packet, kernel
