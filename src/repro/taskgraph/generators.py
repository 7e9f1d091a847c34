"""Random and structured task-graph generators.

These generators serve three purposes:

* property-based and unit testing of the schedulers and the simulator,
* the random-graph benchmark that mirrors the paper's remark that HLF stays
  within 5 % of optimal on 900 random task graphs (Adam et al. 1974),
* building blocks for the paper workloads in :mod:`repro.workloads`.

All generators take a ``seed`` argument (``None``, int, or a numpy
``Generator``) and produce deterministic graphs for a fixed seed.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

import numpy as np

from repro.exceptions import TaskGraphError
from repro.taskgraph.graph import TaskGraph
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_non_negative, check_positive, check_probability

__all__ = [
    "MIN_DURATION",
    "draw_duration",
    "chain",
    "fork_join",
    "diamond",
    "intree",
    "outtree",
    "layered_random",
    "random_dag",
    "series_parallel",
    "independent_tasks",
    "graham_anomaly_graph",
]

#: Floor applied to every stochastic duration/communication draw.  At large
#: coefficients of variation (``cv >> 1``) the gamma shape ``1/cv^2`` is tiny
#: and ``rng.gamma`` underflows to exactly ``0.0`` for a sizeable fraction of
#: draws; a zero duration would make a task free and a zero-length critical
#: path possible, so draws are clamped to this floor.  Shared by every
#: generator here and by the workload-zoo families
#: (:mod:`repro.taskgraph.families`).
MIN_DURATION = 1e-9


def draw_duration(rng, mean: float, cv: float) -> float:
    """Draw a positive duration with the given mean and coefficient of variation.

    ``cv <= 0`` returns *mean* exactly (deterministic durations).  Otherwise
    the draw is gamma distributed (shape ``1/cv^2``, which keeps values
    positive) and clamped from below to :data:`MIN_DURATION` — the clamp only
    engages for ``cv >> 1``, where the tiny gamma shape underflows to zero.
    """
    if cv <= 0.0:
        return mean
    # Gamma distribution keeps durations positive; shape k = 1/cv^2.
    shape = 1.0 / (cv * cv)
    scale = mean / shape
    value = float(rng.gamma(shape, scale))
    return max(value, MIN_DURATION)


#: Backward-compatible alias (the generators below predate the public name).
_draw_duration = draw_duration


def chain(
    n_tasks: int,
    duration: float = 1.0,
    comm: float = 0.0,
    name: str = "chain",
) -> TaskGraph:
    """A linear chain ``t0 -> t1 -> ... -> t{n-1}`` (no parallelism at all)."""
    if n_tasks < 1:
        raise TaskGraphError(f"chain needs at least one task, got {n_tasks}")
    g = TaskGraph(name)
    for i in range(n_tasks):
        g.add_task(i, duration, label=f"chain[{i}]")
    for i in range(n_tasks - 1):
        g.add_dependency(i, i + 1, comm)
    return g


def independent_tasks(
    n_tasks: int,
    duration: float = 1.0,
    name: str = "independent",
) -> TaskGraph:
    """*n* tasks with no precedence constraints (perfectly parallel work)."""
    if n_tasks < 1:
        raise TaskGraphError(f"need at least one task, got {n_tasks}")
    g = TaskGraph(name)
    for i in range(n_tasks):
        g.add_task(i, duration, label=f"job[{i}]")
    return g


def fork_join(
    n_branches: int,
    branch_duration: float = 1.0,
    root_duration: float = 1.0,
    comm: float = 0.0,
    name: str = "fork_join",
) -> TaskGraph:
    """A root task forking into *n_branches* parallel tasks joined by a sink."""
    if n_branches < 1:
        raise TaskGraphError(f"need at least one branch, got {n_branches}")
    g = TaskGraph(name)
    g.add_task("fork", root_duration, label="fork")
    g.add_task("join", root_duration, label="join")
    for i in range(n_branches):
        tid = f"branch[{i}]"
        g.add_task(tid, branch_duration, label=tid)
        g.add_dependency("fork", tid, comm)
        g.add_dependency(tid, "join", comm)
    return g


def diamond(
    depth: int,
    duration: float = 1.0,
    comm: float = 0.0,
    name: str = "diamond",
) -> TaskGraph:
    """A diamond lattice: width grows to *depth* then shrinks back to one.

    Row ``r`` (0-based) has ``min(r, 2*depth - r) + 1`` tasks; every task
    depends on its at most two upper neighbours, as in a wavefront
    computation.
    """
    if depth < 1:
        raise TaskGraphError(f"depth must be >= 1, got {depth}")
    g = TaskGraph(name)
    n_rows = 2 * depth + 1

    def row_width(r: int) -> int:
        return min(r, 2 * depth - r) + 1

    for r in range(n_rows):
        for c in range(row_width(r)):
            g.add_task((r, c), duration, label=f"d[{r},{c}]")
    for r in range(1, n_rows):
        w_prev, w_cur = row_width(r - 1), row_width(r)
        for c in range(w_cur):
            if w_cur > w_prev:  # expanding half
                for pc in (c - 1, c):
                    if 0 <= pc < w_prev:
                        g.add_dependency((r - 1, pc), (r, c), comm)
            else:  # contracting half
                for pc in (c, c + 1):
                    if 0 <= pc < w_prev:
                        g.add_dependency((r - 1, pc), (r, c), comm)
    return g


def intree(
    depth: int,
    branching: int = 2,
    duration: float = 1.0,
    comm: float = 0.0,
    name: str = "intree",
) -> TaskGraph:
    """A complete in-tree (reduction tree): leaves feed towards a single root.

    Depth 0 is a single task; depth ``d`` has ``branching**d`` leaves.  This is
    the classical assembly-line / summation structure studied by Hu (1961).
    """
    if depth < 0:
        raise TaskGraphError(f"depth must be >= 0, got {depth}")
    if branching < 1:
        raise TaskGraphError(f"branching must be >= 1, got {branching}")
    g = TaskGraph(name)
    # level 0 = root (exit task); level depth = leaves (entry tasks)
    for lvl in range(depth + 1):
        for i in range(branching**lvl):
            g.add_task((lvl, i), duration, label=f"t[{lvl},{i}]")
    for lvl in range(1, depth + 1):
        for i in range(branching**lvl):
            g.add_dependency((lvl, i), (lvl - 1, i // branching), comm)
    return g


def outtree(
    depth: int,
    branching: int = 2,
    duration: float = 1.0,
    comm: float = 0.0,
    name: str = "outtree",
) -> TaskGraph:
    """A complete out-tree (broadcast tree): a single root fans out to leaves."""
    if depth < 0:
        raise TaskGraphError(f"depth must be >= 0, got {depth}")
    if branching < 1:
        raise TaskGraphError(f"branching must be >= 1, got {branching}")
    g = TaskGraph(name)
    for lvl in range(depth + 1):
        for i in range(branching**lvl):
            g.add_task((lvl, i), duration, label=f"t[{lvl},{i}]")
    for lvl in range(1, depth + 1):
        for i in range(branching**lvl):
            g.add_dependency((lvl - 1, i // branching), (lvl, i), comm)
    return g


def layered_random(
    n_layers: int,
    width: int,
    edge_probability: float = 0.5,
    mean_duration: float = 10.0,
    duration_cv: float = 0.3,
    mean_comm: float = 2.0,
    comm_cv: float = 0.3,
    seed: SeedLike = None,
    name: str = "layered_random",
) -> TaskGraph:
    """Random layered DAG: tasks arranged in layers, edges only between adjacent layers.

    Every non-entry task receives at least one predecessor from the previous
    layer so that the graph is connected along the precedence direction; the
    remaining adjacent-layer pairs are connected independently with
    *edge_probability*.  Durations and communication weights are gamma
    distributed with the requested means and coefficients of variation.
    """
    if n_layers < 1:
        raise TaskGraphError(f"n_layers must be >= 1, got {n_layers}")
    if width < 1:
        raise TaskGraphError(f"width must be >= 1, got {width}")
    check_probability("edge_probability", edge_probability)
    check_positive("mean_duration", mean_duration)
    check_non_negative("mean_comm", mean_comm)
    rng = as_rng(seed)
    g = TaskGraph(name)
    layers: list[list[Hashable]] = []
    for layer in range(n_layers):
        ids = []
        for j in range(width):
            tid = (layer, j)
            g.add_task(tid, _draw_duration(rng, mean_duration, duration_cv), label=f"L{layer}T{j}")
            ids.append(tid)
        layers.append(ids)
    for layer in range(1, n_layers):
        for v in layers[layer]:
            preds = [u for u in layers[layer - 1] if rng.random() < edge_probability]
            if not preds:
                preds = [layers[layer - 1][int(rng.integers(0, width))]]
            for u in preds:
                g.add_dependency(u, v, _draw_duration(rng, mean_comm, comm_cv) if mean_comm > 0 else 0.0)
    return g


def random_dag(
    n_tasks: int,
    edge_probability: float = 0.15,
    mean_duration: float = 10.0,
    duration_cv: float = 0.5,
    mean_comm: float = 2.0,
    comm_cv: float = 0.5,
    seed: SeedLike = None,
    name: str = "random_dag",
) -> TaskGraph:
    """Erdős–Rényi-style random DAG over a random topological order.

    Each ordered pair ``(i, j)`` with ``i < j`` in a random permutation becomes
    an edge with probability *edge_probability*; this is the classical model
    used for statistical list-scheduler comparisons (Adam et al. 1974).

    The stream is the scalar pair loop's (:func:`_scalar_edges`).  A ``PCG64``
    stream replays it from raw words (:func:`_lookahead_edges`): same graph,
    same end state.  Other bit generators, and replays that cannot account
    for every word, run the scalar loop from the saved state.
    """
    if n_tasks < 1:
        raise TaskGraphError(f"n_tasks must be >= 1, got {n_tasks}")
    check_probability("edge_probability", edge_probability)
    rng = as_rng(seed)
    g = TaskGraph(name)
    order = rng.permutation(n_tasks)
    if duration_cv <= 0.0:
        durations = [mean_duration] * n_tasks
    else:  # draw_duration's draws, in one call
        shape = 1.0 / (duration_cv * duration_cv)
        draws = rng.gamma(shape, mean_duration / shape, size=n_tasks).tolist()
        durations = [max(value, MIN_DURATION) for value in draws]
    for i, duration in enumerate(durations):
        g.add_task(i, duration, label=f"t{i}")
    n_pairs = n_tasks * (n_tasks - 1) // 2
    if not mean_comm > 0 or comm_cv <= 0.0:  # no weight draw between two decisions
        hits = np.flatnonzero(rng.random(n_pairs) < edge_probability)
        weights = [mean_comm if mean_comm > 0 else 0.0] * len(hits)
    else:
        start = rng.bit_generator.state
        args = (rng, n_pairs, edge_probability, mean_comm, comm_cv)
        found = _lookahead_edges(*args) if type(rng.bit_generator) is np.random.PCG64 else None
        if found is None:
            rng.bit_generator.state = start
            found = _scalar_edges(*args)
        hits, weights = np.array(found[0], dtype=np.int64), found[1]
    rows = np.arange(n_tasks, dtype=np.int64)
    row_start = rows * (2 * n_tasks - rows - 1) // 2  # pair index of (row, row + 1)
    a = np.searchsorted(row_start, hits, side="right") - 1
    b = hits - row_start[a] + a + 1
    for u, v, w in zip(order[a].tolist(), order[b].tolist(), weights):
        g.add_dependency(u, v, w)
    return g


def _scalar_edges(rng, n_pairs: int, p: float, mean_comm: float, comm_cv: float):
    """The pair loop: row-major indices of the pairs that became edges, and their weights."""
    hits, weights = [], []
    for k in range(n_pairs):
        if rng.random() < p:
            hits.append(k)
            weights.append(draw_duration(rng, mean_comm, comm_cv))
    return hits, weights


#: Raw words per lookahead window; its last _SLACK words serve weight draws only.
_WINDOW = 4096
_SLACK = 64


def _lookahead_edges(rng, n_pairs: int, p: float, mean_comm: float, comm_cv: float):
    """:func:`_scalar_edges` replayed from raw ``PCG64`` words, or ``None``.

    ``rng.random()`` is ``(raw >> 11) * 2**-53`` of one raw word, so a window
    of raw words decides every pair up to the next edge at once.  Each weight
    is drawn from *rng* advanced to just past its edge's word; the next raw
    word, located in the window, tells how many words the draw took.  Returns
    ``None`` when a window repeats a word, a draw runs past its window, or
    the end state is not the start state advanced by the words counted.
    """
    bitgen = rng.bit_generator
    start = bitgen.state
    shape = 1.0 / (comm_cv * comm_cv)
    scale = mean_comm / shape
    hits, weights = [], []
    k = base = at = 0  # next pair; stream positions of the window and of the generator
    while True:
        size = min(_WINDOW, 2 * (n_pairs - k) + _SLACK)
        words = bitgen.advance(base - at).random_raw(size)
        at = base + size
        ordered = np.sort(words)
        if (ordered[1:] == ordered[:-1]).any():
            return None
        decided = np.flatnonzero((words >> 11) * 2.0**-53 < p).tolist()
        words = words.tolist()
        limit = size - _SLACK
        i = 0  # window offset of pair k's decision word
        for j in decided:
            if j < i:  # a word of the last weight draw
                continue
            if j >= limit or j - i >= n_pairs - k:
                break
            k += j - i
            hits.append(k)
            bitgen.advance(base + j + 1 - at)
            weights.append(max(rng.gamma(shape, scale), MIN_DURATION))
            try:
                i = words.index(bitgen.random_raw(), j + 1)
            except ValueError:
                return None
            at = base + i + 1
            k += 1
        if n_pairs - k <= max(limit - i, 0):
            break
        k += max(limit - i, 0)
        base += max(limit, i)
    end = base + i + n_pairs - k
    state = bitgen.advance(end - at).state
    if bitgen.advance(-end).state["state"] != start["state"]:
        return None
    # advance() dropped the buffered 32-bit half, which the scalar loop keeps.
    bitgen.state = dict(state, has_uint32=start["has_uint32"], uinteger=start["uinteger"])
    return hits, weights


def series_parallel(
    depth: int,
    fanout: int = 2,
    mean_duration: float = 10.0,
    duration_cv: float = 0.3,
    mean_comm: float = 2.0,
    seed: SeedLike = None,
    name: str = "series_parallel",
) -> TaskGraph:
    """Recursive series-parallel graph (alternating fork/join composition).

    At each recursion level a segment either stays a single task (depth 0) or
    becomes a fork into *fanout* sub-segments followed by a join.  This shape
    is typical of divide-and-conquer programs.
    """
    if depth < 0:
        raise TaskGraphError(f"depth must be >= 0, got {depth}")
    if fanout < 1:
        raise TaskGraphError(f"fanout must be >= 1, got {fanout}")
    rng = as_rng(seed)
    g = TaskGraph(name)
    counter = [0]

    def new_task(tag: str) -> Hashable:
        tid = counter[0]
        counter[0] += 1
        g.add_task(tid, _draw_duration(rng, mean_duration, duration_cv), label=f"{tag}{tid}")
        return tid

    def build(level: int) -> tuple:
        """Return (entry_id, exit_id) of the generated segment."""
        if level == 0:
            t = new_task("w")
            return t, t
        fork = new_task("f")
        join = new_task("j")
        for _ in range(fanout):
            entry, exit_ = build(level - 1)
            g.add_dependency(fork, entry, mean_comm)
            g.add_dependency(exit_, join, mean_comm)
        return fork, join

    build(depth)
    return g


def graham_anomaly_graph(name: str = "graham_anomaly") -> TaskGraph:
    """The classical Graham (1969) list-scheduling anomaly instance.

    Nine tasks scheduled on three processors: the natural priority list gives
    a schedule of length 12 while the optimum is shorter; reducing durations
    or adding processors can paradoxically *increase* the list schedule
    length.  The paper notes that the SA scheduler resolves these anomalies.

    Durations follow Graham's example: T1=3, T2=2, T3=2, T4=2, T5=4, T6=4,
    T7=4, T8=4, T9=9, with T9 depending on T4, and T5..T8 depending on T4... we
    use the standard instance where T1..T3 are independent, T9 depends on T1,
    and T4..T8 are independent long tasks.
    """
    g = TaskGraph(name)
    durations = {1: 3, 2: 2, 3: 2, 4: 2, 5: 4, 6: 4, 7: 4, 8: 4, 9: 9}
    for tid, d in durations.items():
        g.add_task(tid, float(d), label=f"T{tid}")
    # Graham's figure: T9 must wait for T4; T5..T8 must wait for T3 and T4.
    g.add_dependency(4, 9, 0.0)
    for t in (5, 6, 7, 8):
        g.add_dependency(3, t, 0.0)
        g.add_dependency(4, t, 0.0)
    return g
