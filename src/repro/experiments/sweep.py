"""Parallel scenario sweeps: policies × machines × graph families × seeds.

The paper evaluates four fixed programs on three architectures; the sweep
runner generalizes that grid to arbitrary scenario combinations and runs it
on a process pool, so large random-graph studies (hundreds to thousands of
simulations) complete in wall-clock time bounded by the slowest worker
rather than the sum of all runs.

Every scenario is fully described by a plain-dict spec (policy name, machine
name, graph family, seeds, communication setting, fidelity), so results are
deterministic and independent of worker count or scheduling order: the seeds
live in the spec, not in worker state.

Use it from Python::

    from repro.experiments.sweep import run_sweep
    report = run_sweep(jobs=4)
    print(report["aggregates"])

or from the command line::

    python -m repro.experiments.sweep --jobs 4 --out sweep_report.json

``--hetero`` switches the machine axis to the heterogeneous scenario family:
speed spreads {1x, 2x, 4x} (linear ramp of per-processor speed factors) on
weighted ring/mesh/hypercube interconnects, a 9-machine grid that exercises
the speed- and link-weight-aware paths of every scheduler::

    python -m repro.experiments.sweep --hetero --jobs 4 --out hetero.json

``--replicas B`` anneals every SA packet as B multi-start chains (array
walks stepped one temperature at a time as lanes, per-replica child RNG
streams) and commits the best replica — e.g. a 16-replica SA study over the
200-task family::

    python -m repro.experiments.sweep --policies SA --families dag200 \
        --replicas 16 --jobs 4 --out sa_replicas.json

``--fidelity contention`` switches every simulation to the store-and-forward
contention model; like latency runs, these ride the compiled fast engine
(``--engine auto``/``fast``) with the object engine available as the
differential oracle (``--engine object``) — CI runs the same sweep through
both and diffs the cells::

    python -m repro.experiments.sweep --fidelity contention --jobs 4 \
        --families dag200 --out contention.json

``--lanes B`` caps one lane call (``sim/batch_engine.py``'s ``run_lanes``)
at B lanes, composing with ``--jobs`` as processes × lanes: the cells are
cut into graph-contiguous items that run one call per policy (see
:func:`_plan_lane_items`).  A call steps its lanes in lock step at the
latency fidelity when the policy has a batched kernel and the call holds at
least ``LOCK_STEP_MIN_LANES`` of them, and runs them solo otherwise.  Lanes
change scheduling, never numbers: every lane is
bit-identical to its solo fast-engine run.  SA ``--replicas`` rows and
``--engine object`` sweeps stay out of lane items::

    python -m repro.experiments.sweep --families dag200 --seeds 64 \
        --jobs 4 --lanes 32 --out dag200.json

``--families`` accepts, besides the random families, every workload-zoo
family (``repro.taskgraph.families``: montage, cybershake, epigenomics,
ligo, sipht; bigmerge, splitters, grid, fern, merge_neighbours,
duration_stairs; mapreduce, crossv, gridcat) at its calibrated sweep size,
and each family's >= 1000-task policy-study instance as ``<name>-1k``::

    python -m repro.experiments.sweep --families montage mapreduce \
        --jobs 4 --lanes 16 --out zoo.json

Workers memoize the deterministic graph/machine builders per process, so the
compiled-scenario cache (``sim/compile.py``) hits across the specs a worker
runs back to back; the report's ``meta.compile_cache`` aggregates those
hits/misses across worker processes (with the distinct worker count),
``meta.n_fallback_epochs`` counts fast-engine epochs that had to materialize
a reference ``PacketContext`` (0 when every policy ran through an
index-space kernel), and ``meta.lanes`` records the lane plan (items,
batched calls, the largest call) with per-lane fallback counts.

Execution is **supervised** (``src/repro/experiments/supervisor.py``): every
cell (or lane-group item, up to policies × lanes cells) runs under a per-item
wall-clock ``--timeout``, failed items are retried up to ``--retries`` times
with exponential backoff + deterministic jitter, a crashed or killed worker
is respawned and its item re-dispatched, and ``--maxtasksperchild`` recycles
leaky workers.  Failures degrade down one engine ladder (batched → fast →
object, :func:`_run_cells`) instead of poisoning the sweep: any cell that
fails re-runs alone one rung down, and a failure on the last rung is a
structured error row (``error_type`` / ``traceback``) that keeps the record
of every step taken.
``--checkpoint`` journals completed rows to an append-only JSONL file keyed
by spec hash, and ``--resume`` restores them — re-executing only unfinished
cells, with rows and aggregates identical to an uninterrupted run::

    python -m repro.experiments.sweep --jobs 4 --lanes 8 --timeout 30 \
        --checkpoint sweep.ckpt.jsonl --out sweep.json
    # ... interrupted? pick up where it left off:
    python -m repro.experiments.sweep --jobs 4 --lanes 8 --timeout 30 \
        --checkpoint sweep.ckpt.jsonl --resume --out sweep.json

``--chaos RATE`` injects seeded, deterministic faults (worker exceptions,
hangs, abrupt deaths, malformed rows — ``repro/utils/chaos.py``) to prove
the ladder: a chaotic sweep must complete with science rows bit-identical
to a fault-free run (the CI chaos job asserts exactly that).

The module also exposes :func:`parallel_map`, the supervised pool helper the
other experiment drivers (e.g. Table 2 with ``--jobs``) reuse.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import time
import traceback as traceback_module
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.comm.model import LinearCommModel, ZeroCommModel
from repro.core.config import SAConfig
from repro.core.sa_scheduler import SAScheduler
from repro.exceptions import ConfigurationError, WorkerError
from repro.experiments.supervisor import (
    Checkpoint,
    SupervisorConfig,
    group_key,
    progress_sender,
    spec_key,
    supervised_map,
)
from repro.machine import io as machine_io
from repro.machine.machine import Machine
from repro.schedulers.etf import ETFScheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.hlf import HLFScheduler
from repro.schedulers.lpt import LPTScheduler
from repro.schedulers.random_policy import RandomScheduler
from repro.sim.batch_engine import run_lanes
from repro.sim.compile import compile_scenario, scenario_cache_stats
from repro.sim.engine import Simulator
from repro.sim.fast_engine import FIDELITIES
from repro.taskgraph import io as taskgraph_io
from repro.taskgraph.generators import layered_random, random_dag
from repro.utils.chaos import FAULT_KINDS, ChaosConfig
from repro.utils.tabulate import format_table
from repro.workloads.zoo import zoo_graph_families

__all__ = [
    "MACHINE_BUILDERS",
    "HETERO_MACHINES",
    "GRAPH_FAMILIES",
    "POLICY_BUILDERS",
    "SCIENCE_FIELDS",
    "speed_ramp",
    "hetero_machine",
    "build_grid",
    "run_scenario",
    "run_lane_group",
    "lane_eligible",
    "run_sweep",
    "parallel_map",
    "comparable_rows",
    "comparable_aggregates",
    "format_sweep_report",
    "main",
]

# --------------------------------------------------------------------------- #
# Scenario registries.  Every entry is a zero-state builder keyed by a plain
# string, so a scenario spec is picklable and self-describing.
# --------------------------------------------------------------------------- #


def speed_ramp(n_processors: int, spread: float) -> Optional[List[float]]:
    """A linear ramp of speed factors from 1.0 up to *spread*.

    ``spread = 1`` returns ``None`` (the homogeneous default), so a ``1x``
    scenario is exactly the unit-speed machine.
    """
    if spread <= 1.0 or n_processors < 2:
        return None
    step = (spread - 1.0) / (n_processors - 1)
    return [1.0 + step * i for i in range(n_processors)]


def _ring_link_weights(n: int) -> Dict[tuple, float]:
    """Alternating 1.0 / 2.0 transfer multipliers around the ring."""
    weights = {}
    for i in range(n):
        j = (i + 1) % n
        if i != j:
            weights[tuple(sorted((i, j)))] = 1.0 if i % 2 == 0 else 2.0
    return weights


def _mesh_link_weights(rows: int, cols: int) -> Dict[tuple, float]:
    """Row links at weight 1.0, column links at 2.0 (anisotropic mesh)."""
    weights = {}
    for r in range(rows):
        for c in range(cols):
            pid = r * cols + c
            if c + 1 < cols:
                weights[(pid, pid + 1)] = 1.0
            if r + 1 < rows:
                weights[(pid, pid + cols)] = 2.0
    return weights


def _hypercube_link_weights(dimension: int) -> Dict[tuple, float]:
    """Dimension-graded weights: a link along bit *k* costs ``1 + k/2``."""
    weights = {}
    for node in range(1 << dimension):
        for bit in range(dimension):
            other = node ^ (1 << bit)
            if node < other:
                weights[(node, other)] = 1.0 + 0.5 * bit
    return weights


def hetero_machine(kind: str, spread: float) -> Machine:
    """Build one heterogeneous scenario machine.

    *kind* is ``"ring9"``, ``"mesh16"`` or ``"hypercube8"``; *spread* is the
    ratio between the fastest and slowest processor (speeds ramp linearly).
    All three kinds carry non-unit link weights, so even the ``1x`` spread
    exercises weighted routing.
    """
    if kind == "ring9":
        return Machine.ring(9, speeds=speed_ramp(9, spread), link_weights=_ring_link_weights(9))
    if kind == "mesh16":
        return Machine.mesh(
            4, 4, speeds=speed_ramp(16, spread), link_weights=_mesh_link_weights(4, 4)
        )
    if kind == "hypercube8":
        return Machine.hypercube(
            3, speeds=speed_ramp(8, spread), link_weights=_hypercube_link_weights(3)
        )
    raise KeyError(f"unknown heterogeneous machine kind {kind!r}")


MACHINE_BUILDERS: Dict[str, Callable[[], Machine]] = {
    "hypercube8": lambda: Machine.hypercube(3),
    "bus8": lambda: Machine.bus(8),
    "ring9": lambda: Machine.ring(9),
    "mesh16": lambda: Machine.mesh(4, 4),
    "full4": lambda: Machine.fully_connected(4),
}

#: The heterogeneous scenario family: speed spreads {1x, 2x, 4x} on weighted
#: ring/mesh/hypercube interconnects.
HETERO_MACHINES: List[str] = []
for _kind in ("ring9", "mesh16", "hypercube8"):
    for _spread in (1, 2, 4):
        _name = f"hetero-{_kind}-{_spread}x"
        MACHINE_BUILDERS[_name] = (
            lambda kind=_kind, spread=float(_spread): hetero_machine(kind, spread)
        )
        HETERO_MACHINES.append(_name)
del _kind, _spread, _name

GRAPH_FAMILIES: Dict[str, Callable[[int], "object"]] = {
    "layered": lambda seed: layered_random(
        n_layers=6, width=8, edge_probability=0.4,
        mean_duration=20.0, mean_comm=8.0, seed=seed,
    ),
    "layered-wide": lambda seed: layered_random(
        n_layers=4, width=16, edge_probability=0.3,
        mean_duration=20.0, mean_comm=6.0, seed=seed,
    ),
    "dag": lambda seed: random_dag(
        40, edge_probability=0.2, mean_duration=15.0, mean_comm=5.0, seed=seed,
    ),
    "dag-dense": lambda seed: random_dag(
        60, edge_probability=0.35, mean_duration=15.0, mean_comm=8.0, seed=seed,
    ),
    # Large instance for engine benchmarking (bench_engine.py) and scale
    # studies: ~200 tasks, ~1500 edges.
    "dag200": lambda seed: random_dag(
        200, edge_probability=0.08, mean_duration=15.0, mean_comm=5.0, seed=seed,
    ),
}

# The realistic workload zoo (repro.taskgraph.families): every pegasus /
# elementary / irw family at its calibrated sweep size under its registry
# key, and at its >= 1000-task policy-study size as "<key>-1k".
GRAPH_FAMILIES.update(zoo_graph_families())

POLICY_BUILDERS: Dict[str, Callable[[int], "object"]] = {
    "HLF": lambda seed: HLFScheduler(seed=seed),
    "HLF/min-comm": lambda seed: HLFScheduler(placement="min_comm"),
    "HLF/fastest": lambda seed: HLFScheduler(placement="fastest"),
    "ETF": lambda seed: ETFScheduler(),
    "LPT": lambda seed: LPTScheduler(),
    "FIFO": lambda seed: FIFOScheduler(),
    "Random": lambda seed: RandomScheduler(seed=seed),
    "SA": lambda seed: SAScheduler(SAConfig.paper_defaults(seed=seed)),
}


# --------------------------------------------------------------------------- #
# Grid construction and the per-scenario worker
# --------------------------------------------------------------------------- #

#: Per-worker scenario-building caches.  The compiled-scenario memo is keyed
#: on object identity, so caching the deterministic builders per process
#: lets paired specs — the same (family, seed, machine) under several
#: policies — hit it across specs inside a worker; the hit/miss deltas are
#: reported per row and aggregated into the sweep meta.  Bounded FIFO so
#: giant custom grids cannot grow a worker without limit.
_GRAPH_CACHE: Dict[tuple, object] = {}
_MACHINE_CACHE: Dict[str, Machine] = {}
_WORKER_CACHE_LIMIT = 64


def _bounded_memo(cache: dict, key, build: Callable[[], object]):
    """``cache[key]``, made by ``build()`` on a miss; a full cache drops its
    oldest entry first (FIFO, ``_WORKER_CACHE_LIMIT`` entries)."""
    value = cache.get(key)
    if value is None:
        value = build()
        while len(cache) >= _WORKER_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[key] = value
    return value


def _spec_graph(spec: dict):
    """Resolve a spec's graph: registry ``(family, seed)`` or inline payload.

    Service jobs may carry the graph *by value* (``graph_payload``, the
    :func:`repro.taskgraph.io.to_dict` form) under a content-derived family
    key (``payload:<hash>``); the payload is deserialized once per worker and
    cached under that key, so repeated jobs on the same shipped graph hit
    the compiled-scenario memo exactly like registry families do.
    """

    def build():
        payload = spec.get("graph_payload")
        if payload is None:
            return GRAPH_FAMILIES[spec["family"]](spec["graph_seed"])
        graph = taskgraph_io.from_dict(payload)
        graph.validate()
        return graph

    return _bounded_memo(_GRAPH_CACHE, (spec["family"], spec.get("graph_seed")), build)


def _spec_machine(spec: dict) -> Machine:
    """Resolve a spec's machine: registry name or inline payload.

    The payload form (``machine_payload``, :func:`repro.machine.io.to_dict`)
    is cached per worker under its content-derived machine key, keeping the
    machine object identity stable so the scenario memo (keyed on
    ``id(machine)``) stays hot across jobs that ship the same machine.
    """

    def build() -> Machine:
        payload = spec.get("machine_payload")
        if payload is None:
            return MACHINE_BUILDERS[spec["machine"]]()
        return machine_io.from_dict(payload)

    return _bounded_memo(_MACHINE_CACHE, spec["machine"], build)


def build_grid(
    policies: Sequence[str] = ("HLF", "ETF", "SA"),
    machines: Sequence[str] = ("hypercube8", "ring9"),
    families: Sequence[str] = ("layered", "dag"),
    n_seeds: int = 17,
    base_seed: int = 0,
    comm: Sequence[bool] = (True,),
    fidelity: str = "latency",
    fast: Optional[bool] = None,
    replicas: Optional[int] = None,
    portfolio: Optional[int] = None,
) -> List[dict]:
    """Expand the scenario grid into a list of picklable spec dicts.

    Each seed index produces one graph instance per family (``graph_seed =
    base_seed + index``); every policy runs on the same instances so the
    comparison is paired.  Unknown registry keys raise ``KeyError`` early,
    before any worker starts.  *replicas* applies batched multi-start
    annealing to the SA rows only (the other policies have no replica
    notion); *portfolio* races the anytime heterogeneous-lane portfolio on
    the SA rows instead (the two are mutually exclusive).  Like unknown
    keys, an invalid count or an unknown *fidelity* raises ``ValueError``
    here rather than producing one error row per spec.
    """
    if fidelity not in FIDELITIES:
        raise ValueError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")
    if replicas is not None and replicas < 1:
        raise ValueError(f"replicas must be >= 1 or None, got {replicas}")
    if portfolio is not None and portfolio < 2:
        raise ValueError(f"portfolio must be >= 2 lanes or None, got {portfolio}")
    if replicas is not None and portfolio is not None:
        raise ValueError("replicas and portfolio are mutually exclusive")
    for name in policies:
        if name not in POLICY_BUILDERS:
            raise KeyError(f"unknown policy {name!r}; known: {sorted(POLICY_BUILDERS)}")
    for name in machines:
        if name not in MACHINE_BUILDERS:
            raise KeyError(f"unknown machine {name!r}; known: {sorted(MACHINE_BUILDERS)}")
    for name in families:
        if name not in GRAPH_FAMILIES:
            raise KeyError(f"unknown graph family {name!r}; known: {sorted(GRAPH_FAMILIES)}")
    grid: List[dict] = []
    for family in families:
        for index in range(n_seeds):
            for machine in machines:
                for with_comm in comm:
                    for policy in policies:
                        grid.append(
                            {
                                "policy": policy,
                                "machine": machine,
                                "family": family,
                                "graph_seed": base_seed + index,
                                "policy_seed": base_seed + index,
                                "with_comm": bool(with_comm),
                                "fidelity": fidelity,
                                "fast": fast,
                                "replicas": (
                                    replicas if policy.startswith("SA") else None
                                ),
                                "portfolio": (
                                    portfolio if policy.startswith("SA") else None
                                ),
                            }
                        )
    return grid


def _error_fields(error_type: str, error: str, traceback: str) -> dict:
    """The row fields of a cell that exhausted every rung of the ladder."""
    return dict(
        makespan=None, speedup=None, n_tasks=None, n_packets=None,
        n_fallback_epochs=None,
        error=f"{error_type}: {error}",
        error_type=error_type,
        traceback=traceback,
        engine_used=None,
    )


def _build_policy(spec: dict):
    """Fresh policy for one engine attempt, with anytime progress wired.

    Portfolio rows running under a supervised worker get the worker's
    progress sender as their ``anytime_hook``, so the per-packet
    ``best_so_far`` snapshots stream up the pipe while the cell runs
    (observability only — rows are bit-identical with or without it).
    """
    policy = POLICY_BUILDERS[spec["policy"]](spec["policy_seed"])
    if spec.get("portfolio") is not None:
        sender = progress_sender()
        if sender is not None and hasattr(policy, "anytime_hook"):
            policy.anytime_hook = sender
    return policy


def _run_cells(rows: List[dict], rung: str) -> None:
    """Run the cells of *rows* on one engine rung, filling the rows in place.

    The whole engine ladder, ``"batched"`` → ``"fast"`` → ``"object"``.  On
    ``"batched"`` each cell is resolved, validated, reset and compiled
    through the per-worker scenario memo, and all run as one
    :func:`~repro.sim.batch_engine.run_lanes` call (which steps a latency
    call's kernel lanes in lock step from its cut up and runs the rest
    solo); on
    ``"fast"`` / ``"object"`` each cell is one traceless :class:`Simulator`
    run on the spec's engine or pinned to the object engine.  Every rung
    gives the same numbers.

    A cell that fails re-runs alone one rung down with a fresh policy, and
    the step (error type, message, traceback) is recorded: batched → fast
    in ``lane_fallback``, fast → object in ``engine_fallbacks``.  A failure
    on the object rung is the structured error row, which keeps them.

    A batched call's wall time is split evenly over the rows it produced,
    each charged its own build's compile-cache traffic; a lane that steps
    down is measured afresh on the solo rungs, whose runtime and cache
    deltas cover a cell's run and any step below it.
    """

    def fill(row: dict, graph, result) -> None:
        row.update(
            makespan=result.makespan, speedup=result.speedup(),
            n_tasks=graph.n_tasks, n_packets=result.n_packets,
            n_fallback_epochs=result.n_fallback_epochs,
            error=None, error_type=None, traceback=None, engine_used=rung,
        )
        if row.get("_fingerprint"):
            row["fingerprint"] = result.fingerprint()

    def step_down(row: dict, exc: Exception) -> None:
        record = {
            "error_type": type(exc).__name__,
            "error": str(exc),
            "traceback": "".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            ),
        }
        if rung == "batched":
            row["lane_fallback"] = record
            _run_cells([row], "fast")
        elif rung == "fast":
            row["engine_fallbacks"].append({"from": "fast", "to": "object", **record})
            _run_cells([row], "object")
        else:
            row.update(_error_fields(**record))

    start = time.perf_counter()
    lanes, built, failed = [], [], []
    for row in rows:
        row.setdefault("lane_fallback", None)
        row.setdefault("engine_fallbacks", [])
        row.setdefault("attempts", 1)
        cell_start = time.perf_counter()
        cache_before = scenario_cache_stats()
        try:
            graph = _spec_graph(row)
            machine = _spec_machine(row)
            comm_model = LinearCommModel() if row["with_comm"] else ZeroCommModel()
            policy = _build_policy(row)
            if rung == "batched":
                graph.validate()
                policy.reset()
                lanes.append((compile_scenario(graph, machine, comm_model), policy))
                built.append((row, graph))
            else:
                result = Simulator(
                    graph, machine, policy, comm_model=comm_model,
                    fidelity=row.get("fidelity", "latency"), record_trace=False,
                    fast=row.get("fast") if rung == "fast" else False,
                    replicas=row.get("replicas"), portfolio=row.get("portfolio"),
                ).run()
                fill(row, graph, result)
        except Exception as exc:
            if rung == "batched":
                failed.append((row, exc))
                continue
            step_down(row, exc)
        cache_after = scenario_cache_stats()
        row.update(
            compile_cache_hits=cache_after["hits"] - cache_before["hits"],
            compile_cache_misses=cache_after["misses"] - cache_before["misses"],
            compile_cache_evictions=cache_after["evictions"] - cache_before["evictions"],
        )
        if rung != "batched":
            row.update(runtime_s=time.perf_counter() - cell_start, worker_pid=os.getpid())
    if lanes:
        try:
            results = run_lanes(lanes, fidelity=rows[0].get("fidelity", "latency"))
        except Exception as exc:
            failed.extend((row, exc) for row, _graph in built)
            built, results = [], []
        per_lane_s = (time.perf_counter() - start) / max(1, len(built))
        for (row, graph), result in zip(built, results):
            fill(row, graph, result)
            row.update(runtime_s=per_lane_s, worker_pid=os.getpid())
    for row, exc in failed:
        step_down(row, exc)


def run_scenario(spec: dict) -> dict:
    """Run one scenario spec and return its result row (the pool worker).

    One cell of the engine ladder (:func:`_run_cells`) from the fast rung,
    or from the object rung when the spec pins ``fast=False``.  The rungs
    taken land in ``engine_used`` / ``engine_fallbacks``, and a failure on
    the last rung is an error row instead of an exception.
    """
    row = dict(spec)
    _run_cells([row], "object" if spec.get("fast") is False else "fast")
    return row


def _lane_calls(specs: List[dict]) -> List[List[int]]:
    """The positions of *specs* per batched call: one per policy and fidelity."""
    calls: Dict[tuple, List[int]] = {}
    for pos, spec in enumerate(specs):
        key = (spec["policy"], spec.get("fidelity", "latency"))
        calls.setdefault(key, []).append(pos)
    return list(calls.values())


def run_lane_group(specs: List[dict]) -> List[dict]:
    """Run a chunk of scenario specs as batched-engine calls.

    The lane counterpart of :func:`run_scenario` (the pool worker behind
    ``--lanes``): the :func:`lane_eligible` specs of each policy and
    fidelity run on the ladder's batched rung (:func:`_run_cells`) as one
    :func:`~repro.sim.batch_engine.run_lanes` call, and every other spec
    runs alone through :func:`run_scenario`.  Each row is bit-identical to
    the one :func:`run_scenario` would have produced.

    A cell that fails to build, or every lane of a call whose run fails,
    re-runs alone on the fast rung; the healthy lanes keep their batched
    results, and the exception lands in ``lane_fallback``.
    """
    rows = [dict(spec) for spec in specs]
    laned = []
    for pos, spec in enumerate(specs):
        if lane_eligible(spec):
            laned.append(rows[pos])
        else:
            rows[pos] = run_scenario(spec)
    for positions in _lane_calls(laned):
        _run_cells([laned[pos] for pos in positions], "batched")
    return rows


def lane_eligible(spec: dict) -> bool:
    """Whether a sweep cell may ride a batched lane call.

    Replica and portfolio cells run solo: each is already an internal batch.
    ``fast=False`` pins the object engine, which has no lane path.  A laned
    cell steps in lock step only at the latency fidelity with a policy that
    has a ``batch_assign`` kernel, in a call of at least ``run_lanes``' cut;
    any other laned cell runs solo inside its call, sharing the round trip,
    not the event loop.
    """
    return (
        spec.get("replicas") is None
        and spec.get("portfolio") is None
        and spec.get("fast") is not False
    )


def _plan_lane_items(specs: List[dict], lanes: int, jobs: int) -> List[List[dict]]:
    """Cut lane-eligible *specs* into graph-contiguous lane-group items.

    Item *k* holds the *k*-th contiguous slice of every policy's specs (in
    the given order), so each of its calls (:func:`_lane_calls`) serves one
    policy with at most *lanes* lanes.  There are as few items as allow
    that, rounded up to a multiple of *jobs*, but at most ``ceil(cells/lanes)``.
    """
    counts = Counter(spec["policy"] for spec in specs)
    jobs = max(1, jobs)
    per_policy = -(-max(counts.values()) // lanes)
    n_items = min(-(-len(specs) // lanes), jobs * -(-per_policy // jobs))
    items: List[List[dict]] = [[] for _ in range(n_items)]
    seen: Counter = Counter()
    for spec in specs:
        policy = spec["policy"]
        items[seen[policy] * n_items // counts[policy]].append(spec)
        seen[policy] += 1
    return [item for item in items if item]


def _run_sweep_item(item) -> List[dict]:
    """Pool worker: one spec dict, or a list of specs run as one lane group."""
    if isinstance(item, dict):
        return [run_scenario(item)]
    return run_lane_group(item)


def _item_specs(item) -> List[dict]:
    """The scenario specs behind one pool item (solo cell or lane group)."""
    return [item] if isinstance(item, dict) else list(item)


def _item_key(item) -> str:
    """Stable supervisor key: the spec hash, or the group hash of a lane chunk."""
    if isinstance(item, dict):
        return item.get("_key") or spec_key(item)
    return group_key([spec.get("_key") or spec_key(spec) for spec in item])


#: Row fields every worker result must carry for the row to count as valid.
_ROW_REQUIRED = ("policy", "machine", "family", "makespan", "error")


def _validate_rows(item, rows) -> None:
    """Reject structurally malformed worker results (one row per spec)."""
    specs = _item_specs(item)
    if not isinstance(rows, list) or len(rows) != len(specs):
        raise WorkerError(
            f"worker returned {type(rows).__name__} instead of "
            f"{len(specs)} row(s)"
        )
    for row in rows:
        if not isinstance(row, dict):
            raise WorkerError(f"worker returned a non-dict row: {row!r}")
        missing = [key for key in _ROW_REQUIRED if key not in row]
        if missing:
            raise WorkerError(f"worker row is missing keys {missing}")


def _failure_history(failures: List[dict]) -> List[dict]:
    """The supervisor faults an item met, as recorded on its rows."""
    return [{k: f.get(k) for k in ("kind", "error_type", "error")} for f in failures]


def _annotate_rows(item, rows, attempt: int, failures: List[dict]) -> List[dict]:
    """Stamp supervisor provenance (attempt count, prior faults) on each row."""
    history = _failure_history(failures)
    for row in rows:
        row["attempts"] = attempt
        row["supervisor_failures"] = history
    return rows


def _failure_rows(item, failures: List[dict]) -> List[dict]:
    """Terminal error rows for an item whose supervised attempts ran out."""
    last = failures[-1]
    rows = []
    for spec in _item_specs(item):
        row = dict(spec)
        row.update(
            _error_fields(last["error_type"], last["error"], last.get("traceback", "")),
            lane_fallback=None,
            engine_fallbacks=[],
            attempts=len(failures),
            supervisor_failures=_failure_history(failures),
            compile_cache_hits=0,
            compile_cache_misses=0,
            runtime_s=0.0,
            worker_pid=None,
        )
        rows.append(row)
    return rows


def parallel_map(
    fn: Callable[[dict], dict],
    items: Iterable[dict],
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> List[dict]:
    """Map *fn* over *items* on the supervised worker pool.

    Results keep the input order regardless of worker scheduling, so a
    parallel run is indistinguishable from a serial one.  The pool is the
    supervised one from :mod:`repro.experiments.supervisor` — a hung or
    crashed worker is killed/respawned and its item re-dispatched — but with
    supervision features off by default (no timeout, no retries) a failure
    raises :class:`~repro.exceptions.WorkerError` like the bare ``pool.map``
    used to propagate exceptions.
    """
    results, _stats = supervised_map(
        fn,
        list(items),
        SupervisorConfig(jobs=jobs, timeout=timeout, retries=retries),
    )
    return results


# --------------------------------------------------------------------------- #
# Aggregation and the sweep driver
# --------------------------------------------------------------------------- #

def _aggregate(rows: List[dict]) -> List[dict]:
    """Group result rows by (policy, machine, family, comm) and summarize."""
    groups: Dict[tuple, List[dict]] = {}
    for row in rows:
        key = (row["policy"], row["machine"], row["family"], row["with_comm"])
        groups.setdefault(key, []).append(row)
    aggregates = []
    for (policy, machine, family, with_comm), members in sorted(groups.items()):
        ok = [m for m in members if m.get("error") is None]
        speedups = np.array([m["speedup"] for m in ok], dtype=float)
        makespans = np.array([m["makespan"] for m in ok], dtype=float)
        aggregates.append(
            {
                "policy": policy,
                "machine": machine,
                "family": family,
                "with_comm": with_comm,
                "n": len(members),
                "n_failed": len(members) - len(ok),
                "mean_speedup": float(speedups.mean()) if len(ok) else None,
                "std_speedup": float(speedups.std()) if len(ok) else None,
                "min_speedup": float(speedups.min()) if len(ok) else None,
                "max_speedup": float(speedups.max()) if len(ok) else None,
                "mean_makespan": float(makespans.mean()) if len(ok) else None,
                "total_runtime_s": float(sum(m["runtime_s"] for m in members)),
            }
        )
    return aggregates


def _fault_taxonomy(rows: List[dict]) -> dict:
    """Aggregate the structured error taxonomy across result rows."""
    errors = Counter(
        r["error_type"] for r in rows if r.get("error_type") is not None
    )
    lane_fallbacks = Counter(
        r["lane_fallback"]["error_type"]
        for r in rows
        if r.get("lane_fallback") is not None
    )
    engine_fallbacks = Counter(
        fb["error_type"] for r in rows for fb in (r.get("engine_fallbacks") or [])
    )
    return {
        "errors": dict(sorted(errors.items())),
        "lane_fallbacks": dict(sorted(lane_fallbacks.items())),
        "engine_fallbacks": dict(sorted(engine_fallbacks.items())),
        "n_retried_rows": sum(1 for r in rows if (r.get("attempts") or 1) > 1),
    }


def _grid_fingerprint(grid: List[dict]) -> dict:
    """A content fingerprint of the whole grid, for the checkpoint header."""
    keys = sorted(spec["_key"] for spec in grid)
    digest = hashlib.sha256(",".join(keys).encode("utf-8")).hexdigest()[:16]
    return {"n_cells": len(grid), "grid_sha": digest}


def run_sweep(
    policies: Sequence[str] = ("HLF", "ETF", "SA"),
    machines: Sequence[str] = ("hypercube8", "ring9"),
    families: Sequence[str] = ("layered", "dag"),
    n_seeds: int = 17,
    base_seed: int = 0,
    comm: Sequence[bool] = (True,),
    fidelity: str = "latency",
    jobs: int = 1,
    out: Optional[str] = None,
    fast: Optional[bool] = None,
    replicas: Optional[int] = None,
    portfolio: Optional[int] = None,
    lanes: int = 1,
    timeout: Optional[float] = None,
    retries: int = 2,
    maxtasksperchild: Optional[int] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    chaos: Optional[ChaosConfig] = None,
    supervisor_seed: int = 0,
) -> dict:
    """Run the whole scenario grid and return (optionally write) the report.

    The report dict has ``meta`` (grid shape, wall time, jobs), ``results``
    (one row per simulation) and ``aggregates`` (per-cell summary).  With the
    default grid that is 3 policies × 2 machines × 2 families × 17 seeds =
    204 simulations.  *fast* selects the simulation engine per
    :class:`~repro.sim.engine.Simulator` (``None`` — the default — lets
    latency runs use the compiled fast engine; ``False`` pins the object
    engine, e.g. for engine benchmarking); either way the numbers are
    bit-for-bit identical.  *replicas* turns on batched multi-start
    annealing for the SA rows (``--replicas`` on the CLI); *portfolio*
    races the anytime heterogeneous-lane portfolio on the SA rows instead
    (``--portfolio``; mutually exclusive with replicas).

    *lanes* caps the lock-step lanes of one batched-engine call, composing
    with *jobs* as processes × lanes: the :func:`lane_eligible` cells are
    cut into graph-contiguous items (:func:`_plan_lane_items`), each running
    one call per policy (:func:`run_lane_group`), and the pool distributes
    the items over workers; the count is capped at the cell count.  Lanes
    change scheduling, never numbers: each lane is bit-identical to its
    solo run.

    Execution is supervised (:mod:`repro.experiments.supervisor`): *timeout*
    arms a per-item wall-clock budget (a hung worker is killed and its item
    re-dispatched), *retries* bounds re-attempts with exponential backoff and
    deterministic jitter, *maxtasksperchild* recycles leaky workers, and
    *chaos* injects seeded faults (tests/CI).  *checkpoint* journals every
    completed row to an append-only JSONL file keyed by spec hash;
    ``resume=True`` restores finished cells from that journal and re-executes
    only the rest — producing rows and aggregates identical to an
    uninterrupted run.

    ``meta`` also surfaces how the work was produced: the total
    compiled-scenario cache hits/misses aggregated across worker processes
    (``meta.compile_cache``, with the distinct worker count), the total
    fast-engine fallback epochs (0 when every policy ran through an
    index-space kernel), the lane plan (``meta.lanes``: dispatched items,
    batched calls, the largest call's lanes and per-lane fallback counts),
    the supervisor's runtime counters (``meta.supervisor``: attempts,
    retries, timeouts, worker deaths, respawns, recycles), the
    checkpoint/restore summary (``meta.resume``) and the structured fault
    taxonomy (``meta.faults``: terminal errors and the ladder's batched →
    fast and fast → object steps, counted by exception type).
    """
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")
    if chaos is not None and "hang" in chaos.kinds and timeout is None:
        raise ConfigurationError(
            "chaos 'hang' faults require a timeout (the supervisor can only "
            "recover a hung worker by killing it at the deadline)"
        )
    if resume and not checkpoint:
        raise ConfigurationError("resume=True requires a checkpoint path")
    grid = build_grid(
        policies=policies,
        machines=machines,
        families=families,
        n_seeds=n_seeds,
        base_seed=base_seed,
        comm=comm,
        fidelity=fidelity,
        fast=fast,
        replicas=replicas,
        portfolio=portfolio,
    )
    for index, spec in enumerate(grid):
        spec["_key"] = spec_key(spec)
        spec["_index"] = index
    index_by_key: Dict[str, List[int]] = {}
    for spec in grid:
        index_by_key.setdefault(spec["_key"], []).append(spec["_index"])

    ckpt: Optional[Checkpoint] = None
    restored_rows: Dict[str, dict] = {}
    if checkpoint:
        ckpt = Checkpoint.open(checkpoint, _grid_fingerprint(grid), resume=resume)
        restored_rows = {
            key: row for key, row in ckpt.restored.items() if key in index_by_key
        }
    remaining = [spec for spec in grid if spec["_key"] not in restored_rows]

    # Auto-cap at the cell count; only lane-eligible cells ride lanes.
    effective_lanes = max(1, min(lanes, len(grid)))
    lane_specs = [s for s in remaining if effective_lanes > 1 and lane_eligible(s)]
    lane_indices = [spec["_index"] for spec in lane_specs]
    items: List[object] = list(remaining)
    if lane_specs:
        lane_set = set(lane_indices)
        items = _plan_lane_items(lane_specs, effective_lanes, jobs)
        items.extend(s for s in remaining if s["_index"] not in lane_set)
    else:
        effective_lanes = 1
    groups = [item for item in items if isinstance(item, list)]
    call_sizes = [len(call) for group in groups for call in _lane_calls(group)]

    def _journal(item, rows: List[dict]) -> None:
        if ckpt is None:
            return
        for row in rows:
            if row.get("error") is None:
                ckpt.record(
                    row["_key"],
                    {k: v for k, v in row.items() if not k.startswith("_")},
                )

    sup_config = SupervisorConfig(
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        maxtasksperchild=maxtasksperchild,
        chaos=chaos,
        seed=supervisor_seed,
    )
    wall_start = time.perf_counter()
    try:
        chunks, sup_stats = supervised_map(
            _run_sweep_item,
            items,
            sup_config,
            item_key=_item_key,
            validate=_validate_rows,
            annotate=_annotate_rows,
            on_failure=_failure_rows,
            on_result=_journal,
        )
    finally:
        if ckpt is not None:
            ckpt.close()
    wall = time.perf_counter() - wall_start
    rows = [row for chunk in chunks for row in chunk]
    # Splice journal-restored rows back in at their grid positions.
    consumed: Dict[str, int] = Counter()
    for key, stored in restored_rows.items():
        row = dict(stored)
        row["_index"] = index_by_key[key][consumed[key]]
        consumed[key] += 1
        rows.append(row)
    rows.sort(key=lambda r: r["_index"])
    per_lane_fallback = [
        int(rows[i].get("n_fallback_epochs") or 0) for i in lane_indices
    ]
    for row in rows:
        row.pop("_index", None)
        row.pop("_key", None)
    report = {
        "meta": {
            "n_simulations": len(rows),
            "n_failed": sum(1 for r in rows if r.get("error") is not None),
            "jobs": jobs,
            "wall_time_s": wall,
            "total_cpu_time_s": float(sum(r["runtime_s"] for r in rows)),
            "policies": list(policies),
            "machines": list(machines),
            "families": list(families),
            "n_seeds": n_seeds,
            "base_seed": base_seed,
            "comm": [bool(c) for c in comm],
            "fidelity": fidelity,
            "engine": {None: "auto", True: "fast", False: "object"}[fast],
            "replicas": replicas,
            "portfolio": portfolio,
            "n_fallback_epochs": sum(
                r.get("n_fallback_epochs") or 0 for r in rows
            ),
            "compile_cache": {
                "hits": sum(r.get("compile_cache_hits", 0) for r in rows),
                "misses": sum(r.get("compile_cache_misses", 0) for r in rows),
                "evictions": sum(
                    r.get("compile_cache_evictions", 0) or 0 for r in rows
                ),
                "n_workers": len(
                    {
                        r["worker_pid"]
                        for r in rows
                        if r.get("worker_pid") is not None
                    }
                ),
            },
            "lanes": {
                "requested": lanes,
                "effective": effective_lanes,
                "n_items": len(items),
                "n_groups": len(groups),
                "n_calls": len(call_sizes),
                "max_call_lanes": max(call_sizes, default=0),
                "n_lane_rows": len(lane_indices),
                "per_lane_fallback_epochs": per_lane_fallback,
            },
            "supervisor": {
                "timeout": timeout,
                "retries": retries,
                "maxtasksperchild": maxtasksperchild,
                "seed": supervisor_seed,
                "chaos": (
                    None
                    if chaos is None
                    else {
                        "rate": chaos.rate,
                        "kinds": list(chaos.kinds),
                        "seed": chaos.seed,
                        "hang_s": chaos.hang_s,
                    }
                ),
                "stats": sup_stats,
            },
            "resume": {
                "checkpoint": checkpoint,
                "resumed": bool(resume),
                "n_restored": len(restored_rows),
                "n_executed": len(rows) - len(restored_rows),
            },
            "faults": _fault_taxonomy(rows),
        },
        "results": rows,
        "aggregates": _aggregate(rows),
    }
    if out:
        # Reports often target artifact directories that fresh checkouts
        # don't have yet (e.g. the gitignored benchmarks/results/ in CI).
        parent = os.path.dirname(out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(out, "w") as fh:
            json.dump(report, fh, indent=1)
    return report


#: The science fields of a result row: what the cell *is* plus what the
#: simulation *measured* — everything that must be bit-identical across
#: engines, lane configurations, worker counts, chaos injection, and
#: checkpoint/resume.  Excludes provenance that legitimately varies
#: (timings, pids, attempt counts, cache deltas, degradation records).
SCIENCE_FIELDS = (
    "policy", "machine", "family", "graph_seed", "policy_seed", "with_comm",
    "fidelity", "fast", "replicas", "portfolio", "error",
    "makespan", "speedup", "n_tasks", "n_packets",
)


def comparable_rows(report: dict) -> List[dict]:
    """The report's rows reduced to :data:`SCIENCE_FIELDS`.

    The differential contract of the fault-tolerance layer: a chaotic,
    resumed, or degraded sweep must produce *exactly* these rows — the CI
    chaos job and the chaos differential tests compare reports through this
    projection.
    """
    return [
        {key: row.get(key) for key in SCIENCE_FIELDS}
        for row in report["results"]
    ]


def comparable_aggregates(report: dict) -> List[dict]:
    """The report's aggregates minus wall-clock totals (which always vary)."""
    return [
        {k: v for k, v in aggregate.items() if k != "total_runtime_s"}
        for aggregate in report["aggregates"]
    ]


def format_sweep_report(report: dict) -> str:
    """Render the aggregate table of a sweep report."""
    rows = [
        [
            a["policy"],
            a["machine"],
            a["family"],
            "with" if a["with_comm"] else "w/o",
            a["n"],
            a["mean_speedup"],
            a["std_speedup"],
            a["mean_makespan"],
        ]
        for a in report["aggregates"]
    ]
    meta = report["meta"]
    lanes_meta = meta.get("lanes", {})
    lanes_part = (
        f" x {lanes_meta['effective']} lanes: {lanes_meta['n_items']} items,"
        f" {lanes_meta['n_calls']} batched calls"
        if lanes_meta.get("effective", 1) > 1
        else ""
    )
    title = (
        f"Sweep: {meta['n_simulations']} simulations "
        f"({meta['jobs']} jobs{lanes_part}, {meta['wall_time_s']:.1f}s wall, "
        f"{meta['total_cpu_time_s']:.1f}s cpu)"
    )
    return format_table(
        rows,
        headers=["Policy", "Machine", "Family", "Comm", "n", "Sp mean", "Sp std", "Makespan"],
        title=title,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a parallel scheduling-scenario sweep and write a JSON report."
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument(
        "--lanes", type=int, default=1,
        help=(
            "most lock-step lanes in one batched-engine call (composes with "
            "--jobs as processes x lanes; auto-capped at the cell count). "
            "Cells are cut into graph-contiguous items that run one call per "
            "policy; SA --replicas rows and --engine object sweeps stay solo"
        ),
    )
    parser.add_argument("--seeds", type=int, default=17, help="graph seeds per family")
    parser.add_argument("--base-seed", type=int, default=0, help="first graph/policy seed")
    parser.add_argument(
        "--policies", nargs="*", default=["HLF", "ETF", "SA"],
        help=f"policies to run (known: {sorted(POLICY_BUILDERS)})",
    )
    parser.add_argument(
        "--machines", nargs="*", default=None,
        help=(
            f"machines to run (known: {sorted(MACHINE_BUILDERS)}); "
            "default hypercube8 ring9, or the 9-machine heterogeneous grid "
            "with --hetero"
        ),
    )
    parser.add_argument(
        "--hetero", action="store_true",
        help=(
            "run the heterogeneous scenario family: speed spreads {1x,2x,4x} "
            "on weighted ring/mesh/hypercube machines"
        ),
    )
    parser.add_argument(
        "--families", nargs="*", default=["layered", "dag"],
        help=f"graph families to run (known: {sorted(GRAPH_FAMILIES)})",
    )
    parser.add_argument(
        "--comm", choices=["with", "without", "both"], default="with",
        help="communication setting(s) to simulate",
    )
    parser.add_argument(
        "--fidelity", choices=["latency", "contention"], default="latency",
        help=(
            "simulator fidelity; both ride the compiled fast engine under "
            "--engine auto/fast, bit-identical to --engine object"
        ),
    )
    parser.add_argument(
        "--replicas", type=int, default=None,
        help=(
            "multi-start annealing for the SA rows: anneal this many "
            "replicas per packet (per-replica child RNG streams) and commit "
            "the best replica's mapping; other policies are unaffected "
            "(default: single-chain SA)"
        ),
    )
    parser.add_argument(
        "--portfolio", type=int, default=None,
        help=(
            "anytime SA portfolio racing for the SA rows: race this many "
            "heterogeneous lanes (cooling schedule x initial seed x "
            "temperature scale) per packet with successive-halving culling "
            "and commit the champion lane's mapping; mutually exclusive "
            "with --replicas (default: off)"
        ),
    )
    parser.add_argument(
        "--engine", choices=["auto", "fast", "object"], default="auto",
        help=(
            "simulation engine: 'auto' (default) compiles latency scenarios "
            "into the index-space fast engine, 'object' pins the reference "
            "engine, 'fast' forces the fast engine (errors on unsupported "
            "scenarios); results are bit-identical either way"
        ),
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help=(
            "per-item wall-clock budget in seconds (a cell, or a lane-group "
            "item of up to policies x --lanes cells); a worker that exceeds "
            "it is killed and its item re-dispatched (default: no timeout)"
        ),
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help=(
            "additional supervised attempts per item after the first, with "
            "exponential backoff + deterministic jitter (default 2; "
            "0 disables retry)"
        ),
    )
    parser.add_argument(
        "--maxtasksperchild", type=int, default=None,
        help=(
            "recycle each worker process after this many items so leaky "
            "workers cannot grow without bound (default: never)"
        ),
    )
    parser.add_argument(
        "--checkpoint", default=None,
        help=(
            "journal every completed row to this append-only JSONL file "
            "(keyed by spec hash) as the sweep runs"
        ),
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=(
            "restore finished cells from the --checkpoint journal and "
            "re-execute only the rest (derives <out>.checkpoint.jsonl when "
            "--checkpoint is omitted); rows and aggregates are identical to "
            "an uninterrupted run"
        ),
    )
    parser.add_argument(
        "--chaos", type=float, default=0.0, metavar="RATE",
        help=(
            "inject seeded faults into this fraction of (item, attempt) "
            "pairs to exercise the supervision ladder (default 0 = off)"
        ),
    )
    parser.add_argument(
        "--chaos-kinds", nargs="*", default=list(FAULT_KINDS),
        choices=list(FAULT_KINDS),
        help=f"fault kinds to inject (default: all of {list(FAULT_KINDS)})",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the deterministic fault decisions (default 0)",
    )
    parser.add_argument(
        "--chaos-hang", type=float, default=60.0,
        help=(
            "how long an injected hang sleeps (default 60s; must exceed "
            "--timeout for the hang to be killed rather than waited out)"
        ),
    )
    parser.add_argument("--out", default="sweep_report.json", help="JSON report path")
    args = parser.parse_args(argv)

    comm = {"with": (True,), "without": (False,), "both": (False, True)}[args.comm]
    if args.replicas is not None and args.replicas < 1:
        parser.error(f"--replicas must be >= 1, got {args.replicas}")
    if args.portfolio is not None and args.portfolio < 2:
        parser.error(f"--portfolio must be >= 2, got {args.portfolio}")
    if args.replicas is not None and args.portfolio is not None:
        parser.error("--replicas and --portfolio are mutually exclusive")
    if args.lanes < 1:
        parser.error(f"--lanes must be >= 1, got {args.lanes}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.timeout is not None and args.timeout <= 0:
        parser.error(f"--timeout must be > 0, got {args.timeout}")
    if not 0.0 <= args.chaos <= 1.0:
        parser.error(f"--chaos must be in [0, 1], got {args.chaos}")
    chaos = None
    if args.chaos > 0.0:
        if "hang" in args.chaos_kinds and args.timeout is None:
            parser.error(
                "--chaos with 'hang' faults requires --timeout (drop hang "
                "from --chaos-kinds or set a timeout)"
            )
        chaos = ChaosConfig(
            rate=args.chaos,
            kinds=tuple(args.chaos_kinds),
            seed=args.chaos_seed,
            hang_s=args.chaos_hang,
        )
    checkpoint = args.checkpoint
    if args.resume and checkpoint is None:
        checkpoint = f"{args.out}.checkpoint.jsonl"
    if args.hetero and args.machines is not None:
        parser.error("--hetero selects the heterogeneous machine grid; drop --machines "
                     "or name hetero-* machines explicitly without --hetero")
    machines = args.machines
    if machines is None:
        machines = list(HETERO_MACHINES) if args.hetero else ["hypercube8", "ring9"]
    try:
        build_grid(policies=args.policies, machines=machines, families=args.families,
                   n_seeds=1)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    report = run_sweep(
        policies=args.policies,
        machines=machines,
        families=args.families,
        n_seeds=args.seeds,
        base_seed=args.base_seed,
        comm=comm,
        fidelity=args.fidelity,
        jobs=args.jobs,
        out=args.out,
        fast={"auto": None, "fast": True, "object": False}[args.engine],
        replicas=args.replicas,
        portfolio=args.portfolio,
        lanes=args.lanes,
        timeout=args.timeout,
        retries=args.retries,
        maxtasksperchild=args.maxtasksperchild,
        checkpoint=checkpoint,
        resume=args.resume,
        chaos=chaos,
        supervisor_seed=args.chaos_seed,
    )
    print(format_sweep_report(report))
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
