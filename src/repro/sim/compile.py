"""Lowering a simulation scenario into dense index space.

The object engine (:mod:`repro.sim.engine`) walks Python dictionaries: task
identifiers are arbitrary hashables, predecessor lists are re-fetched from the
graph at every epoch, and every message cost is a fresh ``comm_model.cost``
call.  For large statistical sweeps the simulator — not the optimizer — is
now the bottleneck, so this module compiles the immutable parts of a scenario
**once** and lets the fast engine (:mod:`repro.sim.fast_engine`) and the
vectorized scheduler kernels (``SchedulingPolicy.fast_assign``) run entirely
on integer indices and numpy arrays:

* tasks get dense indices ``0 .. n-1`` in graph-insertion order (the order
  every epoch's ready list is enumerated in, so index order *is* ready
  order);
* predecessor / successor adjacency is stored in CSR form (``indptr`` +
  ``indices``), with the per-edge communication weights aligned to the
  predecessor arrays;
* durations, levels and per-processor speeds become both float64 vectors
  (for the vectorized kernels) and plain Python lists (for the engine's
  scalar hot path, where list indexing beats numpy scalar indexing);
* the equation-4 effective communication cost
  ``c = w * d + (d - 1 + delta) * tau + (1 - delta) * sigma`` depends on the
  edge only through its weight ``w``, so the machine side folds into three
  ``(n_procs, n_procs)`` tables: ``wdist`` (the weighted distance),
  ``routing = (dist - 1 + I) * tau`` and ``setup = (1 - I) * sigma``.
  Every consumer evaluates ``(w * wdist[s, d] + routing[s, d]) + setup[s, d]``
  where it reads a cost, the exact float operation order of
  ``CommunicationModel.cost_row``, so each value is **bit-for-bit
  identical** to the scalar ``cost()`` call it replaces.

The graph-only half (task index, durations, levels, CSR arrays and their
list mirrors) depends on the graph alone; it is memoized per graph
structural version and shared, as the same objects, by every machine and
model the graph compiles against.

Only the built-in :class:`~repro.comm.model.LinearCommModel` and
:class:`~repro.comm.model.ZeroCommModel` (exact types, not subclasses) are
foldable; :func:`supports_comm_model` reports that, and the simulator falls
back to the object engine for anything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.comm.model import CommunicationModel, LinearCommModel, ZeroCommModel
from repro.machine.machine import Machine
from repro.taskgraph.graph import TaskGraph

__all__ = [
    "CompiledScenario",
    "ContentionTables",
    "FastPacket",
    "StackedScenarios",
    "compile_scenario",
    "stack_scenarios",
    "supports_comm_model",
    "scenario_cache_stats",
]

TaskId = Hashable


def supports_comm_model(comm_model: CommunicationModel) -> bool:
    """True when the model's costs can be folded into dense tables.

    Exact type checks on purpose: a subclass may override ``cost`` with
    arbitrary logic the tables cannot reproduce.
    """
    return type(comm_model) in (LinearCommModel, ZeroCommModel)


#: The compile memo lives on the graph (``TaskGraph._memo``, which pickling
#: drops), so it dies with the graph even though every scenario in it
#: refers back to the graph.  ``"tables"`` holds ``(structural version,
#: graph-only field dict)``; ``"scenarios"`` is an insertion-ordered
#: ``{(model type, version, machine id): (machine, scenario)}`` dict of at
#: most ``_SCENARIO_CACHE_PER_GRAPH`` entries (FIFO eviction), so
#: alternating machines or repeated mutation cannot grow it without bound.
_SCENARIO_CACHE_PER_GRAPH = 8

#: Process-wide memo counters.  Sweep workers snapshot them around each
#: scenario so per-run (and per-worker-aggregate) compile reuse is
#: reportable; a long-lived server additionally watches ``evictions`` to
#: tell a too-small cache bound (thrash) from genuine cold misses.
_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def scenario_cache_stats() -> Dict[str, int]:
    """A copy of this process's compiled-scenario memo counters.

    ``hits`` / ``misses`` count :func:`compile_scenario` lookups;
    ``evictions`` counts entries dropped by the per-graph FIFO bound.
    """
    return dict(_CACHE_STATS)


@dataclass
class ContentionTables:
    """The store-and-forward routing of a machine, lowered to flat arrays.

    The contention fidelity forwards every message hop by hop along the
    machine's deterministic shortest routes; the object engine re-fetches
    ``machine.route(src, dst)`` and keys link occupancy by ``(a, b)`` node
    tuples per message.  These tables precompute, once per compiled
    scenario, everything the fast engine's contention loop indexes:

    * undirected links get dense ids ``0 .. n_links - 1`` (enumeration
      order of ``topology.links()``), so the per-link next-free timeline is
      a flat list instead of a dict;
    * every ordered processor pair ``(src, dst)`` maps — through the CSR
      key ``src * P + dst`` — to its route's hop slice: per hop the link id
      (``hop_links``), the node the hop enters (``hop_nodes``, i.e.
      ``route[k+1]``) and the link-weight transfer multiplier
      (``hop_mults``, all 1.0 on unit-weight machines, where the engine
      skips the multiply entirely like the object engine does).

    A message of edge weight ``w`` occupies hop *k*'s link for
    ``w * hop_mults[k]`` — the per-hop ``w_ij * link_weight`` charge whose
    route-summed counterpart is the scenario's ``wdist`` table, the volume
    term of equation 4, so the two fidelities read one consistent route
    decomposition.  ``routes[src * P + dst]`` keeps the full node
    path as a tuple for trace records.
    """

    n_links: int
    sigma: float
    tau: float
    unit_links: bool
    route_indptr: List[int]
    hop_links: List[int]
    hop_nodes: List[int]
    hop_mults: List[float]
    routes: List[tuple]


def _compile_contention(machine: Machine) -> ContentionTables:
    """Lower *machine*'s routes and links into :class:`ContentionTables`."""
    n = machine.n_processors
    link_index: Dict[tuple, int] = {}
    for link in machine.topology.links():
        a, b = link
        key = (a, b) if a < b else (b, a)
        link_index.setdefault(key, len(link_index))
    all_routes = machine.all_routes()
    unit_links = bool(getattr(machine, "has_unit_link_weights", True))
    route_indptr = [0] * (n * n + 1)
    hop_links: List[int] = []
    hop_nodes: List[int] = []
    hop_mults: List[float] = []
    routes: List[tuple] = []
    for src in range(n):
        for dst in range(n):
            route = all_routes[src][dst]
            for k in range(len(route) - 1):
                a, b = route[k], route[k + 1]
                hop_links.append(link_index[(a, b) if a < b else (b, a)])
                hop_nodes.append(b)
                hop_mults.append(1.0 if unit_links else machine.link_weight(a, b))
            pair = src * n + dst
            route_indptr[pair + 1] = len(hop_links)
            routes.append(tuple(route))
    return ContentionTables(
        n_links=len(link_index),
        sigma=machine.params.sigma,
        tau=machine.params.tau,
        unit_links=unit_links,
        route_indptr=route_indptr,
        hop_links=hop_links,
        hop_nodes=hop_nodes,
        hop_mults=hop_mults,
        routes=routes,
    )


@dataclass
class CompiledScenario:
    """One (graph, machine, comm model) triple lowered to arrays.

    Attributes
    ----------
    task_ids:
        Task identifiers in graph-insertion order; position is the dense index.
    durations, levels:
        Float64 vectors over the dense task indices (``durations_list`` /
        ``levels_list`` are plain-float mirrors for scalar hot paths).
    pred_indptr, pred_ids, pred_weights:
        CSR predecessors: the predecessors of task *i* are
        ``pred_ids[pred_indptr[i]:pred_indptr[i+1]]`` (dense indices, in the
        graph's ``predecessors()`` order) and ``pred_weights`` the aligned
        edge communication weights ``w_ij``.
    succ_indptr, succ_ids:
        CSR successors, same layout.
    speeds:
        Per-processor speed factors (all 1.0 on homogeneous machines).
    comm_enabled:
        False for the zero-communication model (every cost is 0.0).
    wdist, routing, setup:
        The ``(P, P)`` machine tables of equation 4 (``None`` for the zero
        model): the cost of CSR entry *e* from processor *s* to *d* is
        ``(pred_weights[e] * wdist[s, d] + routing[s, d]) + setup[s, d]``.

    The task-indexed fields are the graph's shared, memoized arrays: treat
    them as read-only.
    """

    graph: TaskGraph
    machine: Machine
    comm_model: CommunicationModel
    task_ids: List[TaskId]
    index_of: Dict[TaskId, int]
    durations: np.ndarray
    levels: np.ndarray
    pred_indptr: np.ndarray
    pred_ids: np.ndarray
    pred_weights: np.ndarray
    succ_indptr: np.ndarray
    succ_ids: np.ndarray
    speeds: np.ndarray
    comm_enabled: bool
    durations_list: List[float] = field(repr=False, default_factory=list)
    levels_list: List[float] = field(repr=False, default_factory=list)
    speeds_list: List[float] = field(repr=False, default_factory=list)
    #: CSR layout mirrors for the scalar engine loop (plain ints).
    pred_indptr_list: List[int] = field(repr=False, default_factory=list)
    pred_ids_list: List[int] = field(repr=False, default_factory=list)
    pred_weights_list: List[float] = field(repr=False, default_factory=list)
    succ_indptr_list: List[int] = field(repr=False, default_factory=list)
    succ_ids_list: List[int] = field(repr=False, default_factory=list)
    wdist: Optional[np.ndarray] = field(repr=False, default=None)
    routing: Optional[np.ndarray] = field(repr=False, default=None)
    setup: Optional[np.ndarray] = field(repr=False, default=None)
    _contention: Optional[ContentionTables] = field(repr=False, default=None)

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def n_procs(self) -> int:
        return self.machine.n_processors

    # ------------------------------------------------------------------ #
    def contention_tables(self) -> ContentionTables:
        """The machine's store-and-forward tables, compiled on first use.

        Only the contention event loop needs them; latency runs never pay
        for route extraction.  Memoized on the scenario, which the scenario
        cache in turn memoizes per (graph, machine, model).
        """
        tables = self._contention
        if tables is None:
            tables = self._contention = _compile_contention(self.machine)
        return tables

    def pred_table(self, e: int) -> Optional[np.ndarray]:
        """The ``(P, P)`` cost table of predecessor-CSR entry *e* (``None`` when free).

        Built on demand from the machine tables.
        """
        if self.wdist is None:
            return None
        return (self.pred_weights[e] * self.wdist + self.routing) + self.setup

    def cost_rows(self, entries: np.ndarray, srcs: np.ndarray) -> np.ndarray:
        """Equation-4 rows: row *k* prices CSR entry ``entries[k]`` sent from
        processor ``srcs[k]`` to every processor.

        Only for a communicating model (``wdist`` is not ``None``).
        """
        weights = self.pred_weights[entries][:, None]
        return (weights * self.wdist[srcs] + self.routing[srcs]) + self.setup[srcs]


def _graph_tables(graph: TaskGraph) -> Dict[str, object]:
    """The machine-independent :class:`CompiledScenario` fields of *graph*.

    Memoized per graph structural version, so a graph's second machine
    reuses the task index, durations, ``levels()`` and CSR arrays as the
    same objects and pays only for its machine tables.
    """
    version = getattr(graph, "_version", None)
    entry = graph._memo.get("tables")
    if entry is not None and entry[0] == version:
        return entry[1]
    task_ids = graph.tasks
    index_of = {t: i for i, t in enumerate(task_ids)}
    n = len(task_ids)
    durations_list = [graph._tasks[t].duration for t in task_ids]
    levels = graph.levels()
    levels_list = [levels[t] for t in task_ids]

    # CSR adjacency straight off the graph's insertion-ordered dicts.
    pred_indptr_list = [0] * (n + 1)
    pred_ids_list: List[int] = []
    pred_weights_list: List[float] = []
    succ_indptr_list = [0] * (n + 1)
    succ_ids_list: List[int] = []
    for i, t in enumerate(task_ids):
        for p, w in graph._pred[t].items():
            pred_ids_list.append(index_of[p])
            pred_weights_list.append(w)
        pred_indptr_list[i + 1] = len(pred_ids_list)
        for s in graph._succ[t]:
            succ_ids_list.append(index_of[s])
        succ_indptr_list[i + 1] = len(succ_ids_list)

    tables = dict(
        task_ids=task_ids,
        index_of=index_of,
        durations=np.array(durations_list, dtype=np.float64),
        levels=np.array(levels_list, dtype=np.float64),
        pred_indptr=np.array(pred_indptr_list, dtype=np.intp),
        pred_ids=np.array(pred_ids_list, dtype=np.intp),
        pred_weights=np.array(pred_weights_list, dtype=np.float64),
        succ_indptr=np.array(succ_indptr_list, dtype=np.intp),
        succ_ids=np.array(succ_ids_list, dtype=np.intp),
        durations_list=durations_list,
        levels_list=levels_list,
        pred_indptr_list=pred_indptr_list,
        pred_ids_list=pred_ids_list,
        pred_weights_list=pred_weights_list,
        succ_indptr_list=succ_indptr_list,
        succ_ids_list=succ_ids_list,
    )
    graph._memo["tables"] = (version, tables)
    return tables


def _machine_tables(machine: Machine) -> tuple:
    """*machine*'s equation-4 tables ``(wdist, routing, setup)``, each ``(P, P)``.

    The distance matrices hold the exact values the scalar path reads:
    diagonal hops are 0, and the Kronecker delta folds the same-processor
    collapse into the routing/setup terms ((0 - 1 + 1) * tau = 0 and
    (1 - 1) * sigma = 0, like the paper).
    """
    distance = machine.distance_matrix().astype(np.float64)
    if getattr(machine, "has_unit_link_weights", True):
        wdist = distance
    else:
        wdist = machine.weighted_distance_matrix().astype(np.float64)
    eye = np.eye(machine.n_processors, dtype=np.float64)
    routing = (distance - 1.0 + eye) * machine.params.tau
    setup = (1.0 - eye) * machine.params.sigma
    return wdist, routing, setup


def compile_scenario(
    graph: TaskGraph,
    machine: Machine,
    comm_model: CommunicationModel,
) -> CompiledScenario:
    """Lower *graph* on *machine* under *comm_model* to a :class:`CompiledScenario`.

    Raises ``ValueError`` when the communication model cannot be folded
    (check :func:`supports_comm_model` first, or let the simulator fall
    back).
    """
    if not supports_comm_model(comm_model):
        raise ValueError(
            f"cannot compile communication model {type(comm_model).__name__}; "
            "only the built-in LinearCommModel/ZeroCommModel fold into tables"
        )
    # Paired comparisons (sweeps, benchmarks, golden tests) run several
    # policies over the same (graph, machine, comm) triple back to back;
    # memoize the lowering per graph, invalidated by its structural version
    # (the built-in models are stateless, so the type identifies the
    # tables).  The cached machine is compared by identity: the entry keeps
    # it alive, so its ``id()`` cannot be recycled while the entry exists.
    cache = graph._memo.setdefault("scenarios", {})
    key = (type(comm_model), getattr(graph, "_version", None), id(machine))
    entry = cache.get(key)
    if entry is not None and entry[0] is machine:
        _CACHE_STATS["hits"] += 1
        return entry[1]
    _CACHE_STATS["misses"] += 1
    if comm_model.enabled:
        wdist, routing, setup = _machine_tables(machine)
    else:
        wdist = routing = setup = None
    scenario = CompiledScenario(
        graph=graph,
        machine=machine,
        comm_model=comm_model,
        speeds=machine.speeds,
        comm_enabled=comm_model.enabled,
        speeds_list=[float(s) for s in machine.speeds],
        wdist=wdist,
        routing=routing,
        setup=setup,
        **_graph_tables(graph),
    )
    while len(cache) >= _SCENARIO_CACHE_PER_GRAPH:
        cache.pop(next(iter(cache)))
        _CACHE_STATS["evictions"] += 1
    cache[key] = (machine, scenario)
    return scenario


@dataclass
class FastPacket:
    """The index-space view of one assignment epoch.

    The fast-engine counterpart of
    :class:`~repro.schedulers.base.PacketContext`: ready tasks and idle
    processors are dense indices, and the compiled scenario gives kernels
    O(1) access to durations, levels, speeds and equation-4 costs.
    ``assigned_proc`` / ``finish_times`` are live views of the engine's full
    state arrays (entry ``-1`` / unspecified for unassigned tasks) — kernels
    may only read the entries of finished predecessors.
    ``proc_ready_time[p]`` is the epoch time for idle processors and the
    expected availability for busy ones, like
    ``PacketContext.processor_ready_time``.
    """

    time: float
    ready: List[int]
    idle: List[int]
    scenario: CompiledScenario
    assigned_proc: np.ndarray
    finish_times: np.ndarray
    proc_ready_time: np.ndarray

    @property
    def n_ready(self) -> int:
        return len(self.ready)

    @property
    def n_idle(self) -> int:
        return len(self.idle)

    def arrival_rows(self, tasks: List[int]) -> np.ndarray:
        """Per-task predecessor-arrival rows over **all** processors.

        Row *k* gives, for every processor *p*, the latest ``finish + cost``
        over the predecessors of ``tasks[k]`` were it placed on *p* —
        ``-inf`` for tasks with no predecessors.  For a *ready* task the row
        is a run-long invariant (all predecessors have finished, and
        placements never change), which is what lets ETF's kernel cache rows
        across epochs; the earliest start on processor *p* at epoch time
        ``t`` is then exactly ``max(t, row[p])``, bit-identical to the
        scalar path (``max`` is exact, so accumulation order is free).

        Evaluated as one gather over the tasks' CSR entries followed by a
        segmented ``maximum.reduceat``.
        """
        sc = self.scenario
        n_procs = sc.n_procs
        rows = np.full((len(tasks), n_procs), -np.inf, dtype=np.float64)
        task_arr = np.asarray(tasks, dtype=np.intp)
        starts = sc.pred_indptr[task_arr]
        counts = sc.pred_indptr[task_arr + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return rows
        # Flat CSR entry indices of every (task, predecessor) pair.
        offsets = np.zeros(len(tasks), dtype=np.intp)
        np.cumsum(counts[:-1], out=offsets[1:])
        entries = np.arange(total, dtype=np.intp) + np.repeat(starts - offsets, counts)
        preds = sc.pred_ids[entries]
        fin = self.finish_times[preds]
        if sc.wdist is None:
            arrivals = np.broadcast_to(fin[:, None], (total, n_procs))
        else:
            arrivals = fin[:, None] + sc.cost_rows(entries, self.assigned_proc[preds])
        # Entries are grouped by task (CSR rows are contiguous), so a
        # segmented max over the non-empty groups folds each task's
        # predecessors; empty groups keep -inf.
        nonempty = np.flatnonzero(counts)
        rows[nonempty] = np.maximum.reduceat(arrivals, offsets[nonempty], axis=0)
        return rows


@dataclass
class StackedScenarios:
    """B compiled scenarios stacked into padded lane-major tables.

    The batched engine (:mod:`repro.sim.batch_engine`) advances B independent
    sweep cells in lock step over ``(B, n_max)`` / ``(B, p_max)`` state
    matrices; this structure holds everything immutable those kernels index:

    * per-lane durations / levels / speeds, zero- (speed: one-) padded to the
      widest lane, with ``n_tasks`` / ``n_procs`` giving each lane's true
      extent (``task_valid`` / ``proc_valid`` are the matching masks);
    * predecessor and successor adjacency as **shared flat** CSR arrays:
      ``pred_start[b, t]`` / ``pred_count[b, t]`` address a contiguous run of
      ``pred_ids`` (lane-local task indices) and of the aligned edge weights
      ``pred_weights``.  Lanes compiled from the *same* graph (under any
      machine or model) point into the same run, so they cost nothing extra;
    * each lane's equation-4 machine tables, ``wdist`` / ``routing`` /
      ``setup`` as ``(B, p_max, p_max)`` arrays, zero-padded and all zeros
      for zero-communication lanes.  :meth:`cost_rows` and :meth:`costs`
      evaluate ``(w * wdist + routing) + setup`` like the solo scenario, so
      every value is bit-identical to ``CompiledScenario.pred_table(e)[src,
      dst]``; a zero-communication lane reads ``(w * 0.0 + 0.0) + 0.0 ==
      0.0``, which lets the engine's gathers run unmasked (``finish + 0.0``
      matches the solo engine's zero-model arithmetic exactly).

    The per-lane :class:`CompiledScenario` objects stay reachable through
    ``scenarios`` — the batch engine reads their task ids and graph/machine
    metadata for per-lane work and result assembly.
    """

    scenarios: List["CompiledScenario"]
    n_lanes: int
    n_max: int
    p_max: int
    n_tasks: np.ndarray
    n_procs: np.ndarray
    durations: np.ndarray
    levels: np.ndarray
    speeds: np.ndarray
    pred_start: np.ndarray
    pred_count: np.ndarray
    pred_ids: np.ndarray
    pred_weights: np.ndarray
    succ_start: np.ndarray
    succ_count: np.ndarray
    succ_ids: np.ndarray
    wdist: np.ndarray
    routing: np.ndarray
    setup: np.ndarray
    _task_valid: Optional[np.ndarray] = field(repr=False, default=None)
    _proc_valid: Optional[np.ndarray] = field(repr=False, default=None)

    @property
    def task_valid(self) -> np.ndarray:
        """Boolean ``(B, n_max)`` mask of real (non-padding) task slots."""
        mask = self._task_valid
        if mask is None:
            mask = self._task_valid = (
                np.arange(self.n_max)[None, :] < self.n_tasks[:, None]
            )
        return mask

    @property
    def proc_valid(self) -> np.ndarray:
        """Boolean ``(B, p_max)`` mask of real (non-padding) processor slots."""
        mask = self._proc_valid
        if mask is None:
            mask = self._proc_valid = (
                np.arange(self.p_max)[None, :] < self.n_procs[:, None]
            )
        return mask

    def cost_rows(
        self, lanes: np.ndarray, entries: np.ndarray, srcs: np.ndarray
    ) -> np.ndarray:
        """``(len(entries), p_max)`` equation-4 rows: row *k* prices flat CSR
        entry ``entries[k]`` of lane ``lanes[k]`` sent from processor
        ``srcs[k]`` to every processor slot (pad slots read 0.0)."""
        rows = lanes * self.p_max + srcs
        weights = self.pred_weights[entries][:, None]
        width = self.p_max
        return (
            weights * self.wdist.reshape(-1, width)[rows]
            + self.routing.reshape(-1, width)[rows]
        ) + self.setup.reshape(-1, width)[rows]

    def costs(
        self,
        lanes: np.ndarray,
        entries: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
    ) -> np.ndarray:
        """The equation-4 cost of flat CSR entry ``entries[k]`` of lane
        ``lanes[k]`` sent from ``srcs[k]`` to ``dsts[k]``."""
        cells = (lanes * self.p_max + srcs) * self.p_max + dsts
        return (
            self.pred_weights[entries] * self.wdist.reshape(-1)[cells]
            + self.routing.reshape(-1)[cells]
        ) + self.setup.reshape(-1)[cells]


def stack_scenarios(scenarios: List["CompiledScenario"]) -> StackedScenarios:
    """Stack *scenarios* (one per lane) into :class:`StackedScenarios` tables.

    Lanes whose scenarios share a graph's arrays (the same graph under
    several machines or models, or a repeated scenario) share one
    adjacency block instead of copying it.
    """
    if not scenarios:
        raise ValueError("cannot stack an empty scenario list")
    n_lanes = len(scenarios)
    n_tasks = np.array([sc.n_tasks for sc in scenarios], dtype=np.intp)
    n_procs = np.array([sc.n_procs for sc in scenarios], dtype=np.intp)
    n_max = max(1, int(n_tasks.max()))
    p_max = max(1, int(n_procs.max()))

    durations = np.zeros((n_lanes, n_max), dtype=np.float64)
    levels = np.zeros((n_lanes, n_max), dtype=np.float64)
    speeds = np.ones((n_lanes, p_max), dtype=np.float64)
    pred_start = np.zeros((n_lanes, n_max), dtype=np.intp)
    pred_count = np.zeros((n_lanes, n_max), dtype=np.intp)
    succ_start = np.zeros((n_lanes, n_max), dtype=np.intp)
    succ_count = np.zeros((n_lanes, n_max), dtype=np.intp)
    wdist = np.zeros((n_lanes, p_max, p_max), dtype=np.float64)
    routing = np.zeros((n_lanes, p_max, p_max), dtype=np.float64)
    setup = np.zeros((n_lanes, p_max, p_max), dtype=np.float64)

    # Shared flat adjacency blocks, deduplicated by the identity of the
    # graph's memoized arrays.
    pred_parts: List[np.ndarray] = []
    weight_parts: List[np.ndarray] = []
    succ_parts: List[np.ndarray] = []
    pred_len = succ_len = 0
    blocks: Dict[int, tuple] = {}
    for b, sc in enumerate(scenarios):
        block = blocks.get(id(sc.pred_ids))
        if block is None:
            pred_parts.append(sc.pred_ids)
            weight_parts.append(sc.pred_weights)
            succ_parts.append(sc.succ_ids)
            block = blocks[id(sc.pred_ids)] = (pred_len, succ_len)
            pred_len += len(sc.pred_ids)
            succ_len += len(sc.succ_ids)
        pred_base, succ_base = block
        n = sc.n_tasks
        durations[b, :n] = sc.durations
        levels[b, :n] = sc.levels
        speeds[b, : sc.n_procs] = sc.speeds
        pred_start[b, :n] = pred_base + sc.pred_indptr[:-1]
        pred_count[b, :n] = sc.pred_indptr[1:] - sc.pred_indptr[:-1]
        succ_start[b, :n] = succ_base + sc.succ_indptr[:-1]
        succ_count[b, :n] = sc.succ_indptr[1:] - sc.succ_indptr[:-1]
        if sc.wdist is not None:
            p = sc.n_procs
            wdist[b, :p, :p] = sc.wdist
            routing[b, :p, :p] = sc.routing
            setup[b, :p, :p] = sc.setup

    return StackedScenarios(
        scenarios=list(scenarios),
        n_lanes=n_lanes,
        n_max=n_max,
        p_max=p_max,
        n_tasks=n_tasks,
        n_procs=n_procs,
        durations=durations,
        levels=levels,
        speeds=speeds,
        pred_start=pred_start,
        pred_count=pred_count,
        pred_ids=np.concatenate(pred_parts),
        pred_weights=np.concatenate(weight_parts),
        succ_start=succ_start,
        succ_count=succ_count,
        succ_ids=np.concatenate(succ_parts),
        wdist=wdist,
        routing=routing,
        setup=setup,
    )
