"""The benchmark's four workloads and the layer hooks its traced runs use.

Every workload prepares itself (timed as ``setup_s``), measures for about
``--seconds`` seconds with tracing off, and checks every output.  A traced
run does the workload's work once with the layer hooks of
:func:`install_hooks` in place and once without, and reports per-layer
numbers (:data:`PER_LAYER`).

Cache state is explicit.  ``run_scenario`` keeps per-process graph and
compiled-scenario memos, so:

* ``sa-1k`` / ``sa-lanes`` start from a fresh process and give each cell
  of a pass its own graph, so every cell of the first pass builds and
  compiles cold (sa-lanes' two cells share one graph: one miss, one hit);
* ``sweep-dag200`` forks fresh pool workers on every ``run_sweep`` call
  from a parent that never ran a cell, so every call starts with cold
  worker memos and gets its compile hits from the three policies sharing
  each (graph, machine) pair;
* ``service-open`` is warmed on purpose: set-up sends one job for every
  (graph, machine, policy) of the mix, so the measured jobs hit warm
  worker memos, as in a long-running service.

Timings are expressed at a nominal machine speed.  Every workload samples
a :class:`~harness.Speedometer` between its operations (and a separate one
around its set-ups), and the end-to-end times and rates are rescaled by
their factors;
the measured figures are printed beside them, and a traced run reports
the calibration as ``machine.calibration_ms``.
"""

from __future__ import annotations

import contextlib
import json
import math
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from harness import (
    OpenLoop,
    Speedometer,
    Tally,
    Tracer,
    median,
    missed_limit,
    peak_rss_mb,
    tail_percentile,
)

import repro.core.packet_annealer as packet_annealer_module
import repro.core.sa_scheduler as sa_scheduler_module
import repro.experiments.sweep as sweep_module
import repro.sim.batch_engine as batch_engine_module
import repro.sim.engine as engine_module
import repro.sim.fast_engine as fast_engine_module
from repro.core.sa_scheduler import SAScheduler
from repro.experiments.sweep import (
    GRAPH_FAMILIES,
    SCIENCE_FIELDS,
    build_grid,
    run_scenario,
    run_sweep,
)
from repro.schedulers.etf import ETFScheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.hlf import HLFScheduler
from repro.schedulers.lpt import LPTScheduler
from repro.schedulers.random_policy import RandomScheduler
from repro.service import ServiceClient, ServiceConfig, serve_in_thread

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Set-up is repeated this many times per run and the median is reported.
SETUP_REPEATS = 3
#: Seconds of speedometer sampling before each set-up and after the last.
SETUP_CALIBRATE_S = 0.2

SA_BASE = {
    "policy": "SA",
    "machine": "hypercube8",
    "with_comm": True,
    "fidelity": "latency",
    "fast": None,
    "replicas": None,
    "portfolio": None,
}
SA_1K_FAMILIES = ("gridcat-1k", "montage-1k", "mapreduce-1k")
#: The speedometer is sampled before an SA pass and after each cell, for
#: this share of the cell's time but at least SA_CALIBRATE_S seconds.
SA_CALIBRATE_S = 0.3
SA_CALIBRATE_SHARE = 0.15

SWEEP_GRID = {
    "policies": ("HLF", "ETF", "LPT"),
    "machines": ("hypercube8", "ring9"),
    "families": ("dag200",),
    "n_seeds": 32,
}
SWEEP_JOBS = 2
SWEEP_LANES = 32
#: Seconds of speedometer sampling before each sweep call and after the last.
SWEEP_CALIBRATE_S = 0.2

SERVICE_WORKERS = 2
SERVICE_BATCH = 8
SERVICE_WINDOW_MS = 2.0
#: Open-loop rate, well under the 100-120 jobs/s the closed loop sustains
#: on a 2-core machine: at 60 jobs/s the tail was already unsteady.
OPEN_RATE = 20.0
#: The latency limit on the open-loop tail percentile, in measured (not
#: rescaled) milliseconds: when the tail is over it, every open-loop job
#: beyond it counts as failed.
TAIL_LIMIT_MS = 250.0
#: Requests kept in flight in the closed-loop (saturation) phase.
CLOSED_WINDOW = 16
#: Shares of ``--seconds`` spent in the open- and closed-loop phases.
OPEN_SHARE, CLOSED_SHARE = 0.5, 0.4
#: The closed-loop rate is the median over this many slices of the phase.
CLOSED_SLICES = 8
#: Seconds of speedometer sampling before, between and after the phases.
SERVICE_CALIBRATE_S = 0.5
SOCKET_TIMEOUT_S = 60.0

#: (name, unit, better) of every end-to-end metric, reported on every
#: workload with tracing off.  Times and rates are rescaled to the nominal
#: machine speed (:class:`~harness.Speedometer`).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cells_per_s", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

#: (name, unit, better) of every per-layer metric, reported on every
#: workload by a traced run; a layer a workload does not use reads 0.
#: Times and counts are per cell (a service job is one cell) unless the
#: unit says per sweep call.
PER_LAYER = [
    ("taskgraph.build_ms", "ms/cell", "lower"),
    ("sim.compile_scenario_ms", "ms/cell", "lower"),
    ("sim.compile_cache_hits", "count/cell", "higher"),
    ("sim.compile_cache_misses", "count/cell", "lower"),
    ("sim.engine_self_ms", "ms/cell", "lower"),
    ("sim.fallback_epochs", "count/cell", "lower"),
    ("core.fast_assign_ms", "ms/cell", "lower"),
    ("core.compile_fast_packet_ms", "ms/cell", "lower"),
    ("core.anneal_walk_ms", "ms/cell", "lower"),
    ("core.batched_walk_ms", "ms/cell", "lower"),
    ("core.packets", "count/cell", "lower"),
    ("core.proposals", "count/cell", "lower"),
    ("core.accept_ratio", "ratio", "higher"),
    ("core.walk_ns_per_proposal", "ns", "lower"),
    ("core.compile_fast_packet_share.gridcat-1k", "ratio", "lower"),
    ("core.compile_fast_packet_share.montage-1k", "ratio", "lower"),
    ("core.compile_fast_packet_share.mapreduce-1k", "ratio", "lower"),
    ("annealing.rungs", "count/cell", "lower"),
    ("annealing.culled_lanes", "count/cell", "higher"),
    ("schedulers.assign_ms", "ms/cell", "lower"),
    ("experiments.item_compute_ms", "ms/sweep", "lower"),
    ("experiments.dispatch_overhead_ms", "ms/sweep", "lower"),
    ("experiments.attempts", "count/sweep", "lower"),
    ("experiments.retries", "count/sweep", "lower"),
    ("service.queue_wait_ms_p50", "ms", "lower"),
    ("service.queue_wait_ms_tail", "ms", "lower"),
    ("service.compute_ms_p50", "ms", "lower"),
    ("service.mean_batch", "count", "higher"),
    ("service.affinity_hit_rate", "ratio", "higher"),
    ("loadgen.late_ms_max", "ms", "lower"),
    ("loadgen.over_limit", "count", "lower"),
    ("latency.samples", "count", "higher"),
    ("latency.tail_pct", "%", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("machine.calibration_ms", "ms", "lower"),
]

#: End-to-end metrics that are durations (multiplied by the speed factor)
#: and rates (divided by it); the rest are not rescaled.
RESCALED_TIMES = ("setup_s", "p50_ms", "tail_ms")
RESCALED_RATES = ("cells_per_s",)

#: Span names of the layers, keyed to the per-layer time metric they feed.
LAYER_SPANS = {
    "taskgraph.build": "taskgraph.build_ms",
    "sim.compile_scenario": "sim.compile_scenario_ms",
    "sim.engine": "sim.engine_self_ms",
    "core.fast_assign": "core.fast_assign_ms",
    "core.compile_fast_packet": "core.compile_fast_packet_ms",
    "core.anneal_walk": "core.anneal_walk_ms",
    "core.batched_walk": "core.batched_walk_ms",
    "schedulers.assign": "schedulers.assign_ms",
}
CELL = "bench.cell"


# --------------------------------------------------------------------------- #
# Layer hooks
# --------------------------------------------------------------------------- #


def _count_walk(tracer: Tracer, result, _args) -> None:
    tracer.counts["walk_proposals"] += result.n_proposals
    tracer.counts["accepted"] += result.n_accepted


def _count_batched(tracer: Tracer, result, _args) -> None:
    results, _trajectories = result
    for lane in results:
        tracer.counts["batched_proposals"] += lane.n_proposals
        tracer.counts["accepted"] += lane.n_accepted


def _count_packet(tracer: Tracer, result, args) -> None:
    """Packets, and portfolio racing counters from the public snapshot.

    ``fast_assign`` returns a non-empty mapping exactly when it annealed a
    packet (``{}`` for an epoch with nothing to place, ``None`` when it
    declines), and ``best_so_far`` then describes that packet.
    """
    if not result:
        return
    tracer.counts["packets"] += 1
    last = args[0].best_so_far(include_assignment=False).get("last_packet")
    if last is not None:
        tracer.counts["rungs"] += last["n_rungs"]
        tracer.counts["culled_lanes"] += last["n_culled"]


def install_hooks(tracer: Tracer) -> None:
    """Wrap each layer's public callables at the names their callers use."""
    for family in list(GRAPH_FAMILIES):
        tracer.install(GRAPH_FAMILIES, family, "taskgraph.build")
    for module in (engine_module, sweep_module):
        tracer.install(module, "compile_scenario", "sim.compile_scenario")
    for module in (engine_module, fast_engine_module, batch_engine_module):
        tracer.install(module, "run_compiled", "sim.engine")
    tracer.install(sweep_module, "run_lanes", "sim.engine")
    tracer.install(SAScheduler, "fast_assign", "core.fast_assign", _count_packet)
    tracer.install(sa_scheduler_module, "compile_fast_packet", "core.compile_fast_packet")
    tracer.install(packet_annealer_module, "anneal_array", "core.anneal_walk", _count_walk)
    tracer.install(
        packet_annealer_module, "anneal_replicas_batched", "core.batched_walk",
        _count_batched,
    )
    for cls in (ETFScheduler, HLFScheduler, LPTScheduler, FIFOScheduler, RandomScheduler):
        for attr in ("fast_assign", "batch_assign"):
            if attr in vars(cls):
                tracer.install(cls, attr, "schedulers.assign")


@contextlib.contextmanager
def traced():
    """A tracer whose hooks are installed for the block and removed after."""
    tracer = Tracer()
    try:
        install_hooks(tracer)
        yield tracer
    finally:
        tracer.uninstall()


def layer_metrics(
    tracer: Tracer, rows: List[dict], n_cells: Optional[int] = None
) -> Dict[str, float]:
    """Per-cell layer numbers from the spans of traced ``bench.cell`` regions.

    *n_cells* defaults to one cell per region; a region around a whole
    sweep passes the sweep's cell count.
    """
    regions = tracer.self_by_region(CELL)
    n_cells = n_cells or max(1, len(regions))
    totals: Counter = Counter()
    wall = 0.0
    for root, selfs in regions.items():
        totals.update(selfs)
        span = tracer.spans[root]
        wall += span[2] - span[1]
    counts = tracer.counts
    proposals = counts["walk_proposals"] + counts["batched_proposals"]
    walk_s = totals["core.anneal_walk"]
    out = {metric: 1e3 * totals[span] / n_cells for span, metric in LAYER_SPANS.items()}
    out.update(
        {
            "core.packets": counts["packets"] / n_cells,
            "core.proposals": proposals / n_cells,
            "core.accept_ratio": counts["accepted"] / proposals if proposals else 0.0,
            "core.walk_ns_per_proposal": (
                1e9 * walk_s / counts["walk_proposals"] if counts["walk_proposals"] else 0.0
            ),
            "annealing.rungs": counts["rungs"] / n_cells,
            "annealing.culled_lanes": counts["culled_lanes"] / n_cells,
            "sim.fallback_epochs": (
                sum(row.get("n_fallback_epochs") or 0 for row in rows) / n_cells
            ),
            # Share of the traced cells' wall time inside a wrapped layer.
            "trace.coverage": (1.0 - totals[CELL] / wall) if wall else 0.0,
        }
    )
    return out


def cell_breakdown(tracer: Tracer) -> List[dict]:
    """Per traced cell: its tag, wall seconds and self seconds per layer."""
    out = []
    for root, selfs in tracer.self_by_region(CELL).items():
        _name, start, end, _parent, tag = tracer.spans[root]
        wall = end - start
        out.append(
            {
                "cell": tag,
                "wall_s": wall,
                "coverage": 1.0 - selfs[CELL] / wall,
                "self_s": dict(selfs),
            }
        )
    return out


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #


def science(row: dict) -> dict:
    return {key: row.get(key) for key in SCIENCE_FIELDS}


def spec_of(row: dict) -> dict:
    """The scenario spec behind a result row (what ``run_scenario`` takes)."""
    keys = (
        "policy", "machine", "family", "graph_seed", "policy_seed",
        "with_comm", "fidelity", "fast", "replicas", "portfolio",
    )
    return {key: row.get(key) for key in keys}


def spec_id(spec: dict) -> str:
    return json.dumps(spec_of(spec), sort_keys=True)


def reference_key(spec: dict) -> str:
    return (
        f"{spec['family']}|replicas={spec['replicas']}|portfolio={spec['portfolio']}"
        f"|g{spec['graph_seed']}|p{spec['policy_seed']}"
    )


def load_reference() -> Dict[str, dict]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["cells"]


class DirectReference:
    """Expected rows from direct, in-process ``run_scenario`` calls (memoized)."""

    def __init__(self):
        self._rows: Dict[str, dict] = {}

    def expected(self, spec: dict) -> dict:
        key = spec_id(spec)
        if key not in self._rows:
            self._rows[key] = science(run_scenario(spec_of(spec)))
        return self._rows[key]

    def check(self, row: dict, spec: dict, tally: Tally) -> None:
        """Record *row*, returned for the request *spec*, as ok or failed.

        The expectation comes from the spec that was sent, never from the
        row, so a row answering another request is a mismatch.
        """
        if row.get("error") is not None:
            tally.record("error")
        elif science(row) != self.expected(spec):
            tally.record("mismatch")
        else:
            tally.record("ok")


def latency_metrics(latencies_s: List[float]) -> Dict[str, float]:
    tail, pct, n = tail_percentile(latencies_s)
    return {
        "p50_ms": 1e3 * median(latencies_s),
        "tail_ms": 1e3 * tail,
        "latency.tail_pct": pct,
        "latency.samples": float(n),
    }


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #


class Workload:
    """Prepare (timed), measure with tracing off, and optionally trace."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.tally = Tally()
        self.speed = Speedometer()
        self.notes: Dict[str, object] = {}

    def prepare(self, repeat: int) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Dict[str, float]:
        raise NotImplementedError

    def trace(self, seconds: float) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class SACells(Workload):
    """One pass over a fixed set of SA cells through ``run_scenario``.

    An SA cell's cost follows its annealing random stream: across policy
    seeds the same dag200 replicas-8 cell takes 4.6 to 8.3 s, and gridcat-1k
    varies by 20%.  Seed-varied cells would make ``cells_per_s`` depend on
    the seed more than on the code, so the cells are fixed, their outputs
    are pinned in ``reference.json``, and ``--seed`` only rotates their
    order.  The first pass builds and compiles each graph cold (sa-lanes'
    two cells share one graph: one miss, one hit); a later pass, when the
    measuring time allows one, hits the memos.
    """

    #: The cells of one pass.
    CELLS: List[dict] = []

    def __init__(self, seed: int):
        super().__init__(seed)
        self.reference = load_reference()
        shift = seed % len(self.CELLS)
        self.order = self.CELLS[shift:] + self.CELLS[:shift]

    def prepare(self, repeat: int) -> None:
        # One small SA cell on a graph no other repeat uses, so each repeat
        # pays a cold build and compile through the scalar SA path.
        spec = dict(SA_BASE, family="layered", graph_seed=10_000 + repeat,
                    policy_seed=repeat)
        row = run_scenario(spec)
        if row["error"] is not None:
            raise RuntimeError(f"set-up cell failed: {row['error']}")

    def check(self, spec: dict, row: dict) -> None:
        expected = self.reference.get(reference_key(spec))
        if row.get("error") is not None:
            self.tally.record("error")
        elif (
            expected is None
            or row["makespan"] != expected["makespan"]
            or row["n_packets"] != expected["n_packets"]
        ):
            self.tally.record("mismatch")
        else:
            self.tally.record("ok")

    def run_pass(self, tracer: Optional[Tracer] = None):
        rows, latencies = [], []
        self.speed.sample(SA_CALIBRATE_S)
        for spec in self.order:
            start = time.perf_counter()
            if tracer is None:
                row = run_scenario(spec)
            else:
                with tracer.region(CELL, tag=reference_key(spec)):
                    row = run_scenario(spec)
            latencies.append(time.perf_counter() - start)
            self.speed.sample(max(SA_CALIBRATE_S, SA_CALIBRATE_SHARE * latencies[-1]))
            self.check(spec, row)
            rows.append(row)
        return rows, latencies

    def measure(self, seconds: float) -> Dict[str, float]:
        latencies: List[float] = []
        passes = 0
        while True:
            _rows, lat = self.run_pass()
            latencies += lat
            passes += 1
            # Stop before a pass that would overrun the measuring time.
            if sum(latencies) * (passes + 1) / passes > seconds:
                break
        self.notes["passes"] = passes
        out = {"cells_per_s": len(latencies) / sum(latencies)}
        out.update(latency_metrics(latencies))
        return out

    def trace(self, seconds: float) -> Dict[str, float]:
        """A traced pass (cold, like a measured one), then an untraced pass.

        The untraced pass reuses the graph and compile memos; the traced
        pass's own build and compile time is taken out of its total before
        the two are compared, so ``trace.overhead_frac`` prices the hooks.
        """
        with traced() as tracer:
            rows, traced_lat = self.run_pass(tracer)
        _rows, untraced_lat = self.run_pass()
        out = layer_metrics(tracer, rows)
        out.update(latency_metrics(traced_lat))
        cold_ms = out["taskgraph.build_ms"] + out["sim.compile_scenario_ms"]
        traced_s = sum(traced_lat) - 1e-3 * cold_ms * len(rows)
        out["trace.overhead_frac"] = traced_s / sum(untraced_lat) - 1.0
        out["sim.compile_cache_hits"] = sum(r["compile_cache_hits"] for r in rows) / len(rows)
        out["sim.compile_cache_misses"] = sum(r["compile_cache_misses"] for r in rows) / len(rows)
        cells = cell_breakdown(tracer)
        for family in SA_1K_FAMILIES:
            walls = [c["wall_s"] for c in cells if c["cell"].startswith(family + "|")]
            packet_s = [
                c["self_s"].get("core.compile_fast_packet", 0.0)
                for c in cells
                if c["cell"].startswith(family + "|")
            ]
            if walls:
                out[f"core.compile_fast_packet_share.{family}"] = sum(packet_s) / sum(walls)
        self.notes["cells"] = [
            {"cell": c["cell"], "wall_s": c["wall_s"], "coverage": c["coverage"]}
            for c in cells
        ]
        self.trace_dump = {"cells": cells, **tracer.export()}
        return out


class SA1k(SACells):
    """SA at paper defaults on three 1000-task zoo families, two graphs each."""

    name = "sa-1k"
    CELLS = [
        dict(SA_BASE, family=family, graph_seed=variant, policy_seed=variant)
        for variant in (0, 1)
        for family in SA_1K_FAMILIES
    ]


class SALanes(SACells):
    """dag200 SA cells with 8 lock-step replicas and with an 8-lane portfolio."""

    name = "sa-lanes"
    CELLS = [
        dict(SA_BASE, family="dag200", graph_seed=0, policy_seed=0, **lanes)
        for lanes in ({"replicas": 8}, {"portfolio": 8})
    ]


class SweepDag200(Workload):
    """Repeated supervised ``run_sweep`` calls of one 192-cell list-policy grid.

    192 cells make six 32-lane groups, three per pool worker, so neither
    worker idles while the other finishes a call.
    """

    name = "sweep-dag200"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.base_seed = SWEEP_GRID["n_seeds"] * seed
        #: The spec of every row of a measured call, in the order returned.
        self.grid = build_grid(**SWEEP_GRID, base_seed=self.base_seed)
        self.reports: List[dict] = []

    def sweep(self, jobs: int, **grid) -> dict:
        options = dict(SWEEP_GRID, base_seed=self.base_seed)
        options.update(grid)
        return run_sweep(jobs=jobs, lanes=SWEEP_LANES, **options)

    def prepare(self, repeat: int) -> None:
        report = self.sweep(
            SWEEP_JOBS, families=("dag",), n_seeds=2, base_seed=10_000 + 2 * repeat
        )
        if report["meta"]["n_failed"]:
            raise RuntimeError("set-up sweep failed")

    def run_ops(self, seconds: float) -> Dict[str, float]:
        """Sweep calls until the time is up: cells over the calls' time."""
        latencies: List[float] = []
        start = time.perf_counter()
        while True:
            self.speed.sample(SWEEP_CALIBRATE_S)
            op_start = time.perf_counter()
            self.reports.append(self.sweep(SWEEP_JOBS))
            now = time.perf_counter()
            latencies.append(now - op_start)
            if now - start + latencies[-1] > seconds:
                break
        self.speed.sample(SWEEP_CALIBRATE_S)
        self.wall_s = latencies
        cells = sum(len(r["results"]) for r in self.reports)
        out = {"cells_per_s": cells / sum(latencies)}
        out.update(latency_metrics(latencies))
        return out

    def verify(self) -> None:
        """Every row against a direct run of its grid spec, after the clock stopped.

        A call must return one row per grid cell, in grid order; a missing
        row counts as an error.  Direct runs warm this process's memos,
        which later pool workers would inherit, so nothing is measured
        after this.
        """
        reference = DirectReference()
        for report in self.reports:
            rows = report["results"]
            for row, spec in zip(rows, self.grid):
                reference.check(row, spec, self.tally)
            if len(rows) < len(self.grid):
                self.tally.record("error", len(self.grid) - len(rows))
            elif len(rows) > len(self.grid):
                self.tally.record("mismatch", len(rows) - len(self.grid))

    def measure(self, seconds: float) -> Dict[str, float]:
        out = self.run_ops(seconds)
        self.verify()
        return out

    def trace(self, seconds: float) -> Dict[str, float]:
        """Pool numbers from ``meta``, the split from an inline replay.

        The measured calls run in pool workers, whose split is read from
        what the sweep returns (row ``runtime_s``, ``meta.supervisor``,
        ``meta.compile_cache``).  Replay A runs the same grid inline with
        the hooks in place, cold like a fresh worker; its rows must equal
        the pool's.  Replays B (untraced) and C (traced), both warm, price
        the hooks.
        """
        out = self.run_ops(seconds)
        n_ops = len(self.reports)
        cells = sum(len(r["results"]) for r in self.reports)
        compute = sum(row["runtime_s"] for r in self.reports for row in r["results"])
        out["experiments.item_compute_ms"] = 1e3 * compute / n_ops
        out["experiments.dispatch_overhead_ms"] = (
            1e3 * (SWEEP_JOBS * sum(self.wall_s) - compute) / n_ops
        )
        stats = [r["meta"]["supervisor"]["stats"] for r in self.reports]
        out["experiments.attempts"] = sum(s["attempts"] for s in stats) / n_ops
        out["experiments.retries"] = sum(s["retries"] for s in stats) / n_ops
        cache = [r["meta"]["compile_cache"] for r in self.reports]

        with traced() as tracer:
            with tracer.region(CELL, tag="replay-cold"):
                cold = self.sweep(1)
        layers = layer_metrics(tracer, cold["results"], n_cells=len(cold["results"]))
        for traced_row, pool_row in zip(cold["results"], self.reports[0]["results"]):
            same = science(traced_row) == science(pool_row)
            self.tally.record("ok" if same else "mismatch")
        self.verify()
        start = time.perf_counter()
        self.sweep(1)
        untraced_s = time.perf_counter() - start
        with traced() as warm_tracer:
            start = time.perf_counter()
            self.sweep(1)
            traced_s = time.perf_counter() - start
        out.update(layers)
        out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        out["sim.compile_cache_hits"] = sum(c["hits"] for c in cache) / cells
        out["sim.compile_cache_misses"] = sum(c["misses"] for c in cache) / cells
        out["sim.fallback_epochs"] = (
            sum(r["meta"]["n_fallback_epochs"] for r in self.reports) / cells
        )
        self.trace_dump = {
            "cold_replay": tracer.export(),
            "warm_replay_counts": dict(warm_tracer.counts),
            "pool_stats": stats,
            "pool_compile_cache": cache,
        }
        return out


def service_job(i: int, seed: int) -> dict:
    """Job *i* of the mix: HLF/ETF/SA over small graphs and two machines.

    The mix ``benchmarks/bench_service.py`` uses, with the seed rotating
    graph and policy seeds: 16 (graph, machine) pairs recur, so affinity
    routing and the workers' warm memos matter.
    """
    return {
        "policy": ("HLF", "ETF", "SA")[i % 3],
        "machine": ("hypercube8", "ring9")[(i // 3) % 2],
        "family": ("grid", "layered")[(i // 6) % 2],
        "graph_seed": (i // 12 + seed) % 4,
        "policy_seed": (i + seed) % 7,
        "with_comm": True,
        "fidelity": "latency",
    }


def job_spec(job: dict) -> dict:
    return dict(job, fast=None, replicas=None, portfolio=None)


class ServiceOpen(Workload):
    """A warm 2-worker service: an open loop at a low rate, then saturation.

    Requests are pipelined over one :class:`~repro.service.ServiceClient`
    connection with ids this workload assigns; ``stats`` is requested only
    while no job is in flight, so its reply is the next line read.
    """

    name = "service-open"

    def __init__(self, seed: int):
        super().__init__(seed)
        self._stack: Optional[contextlib.ExitStack] = None
        self.client: Optional[ServiceClient] = None
        self.next_id = 0
        self.sent: Dict[int, dict] = {}
        self.rows: Dict[int, dict] = {}

    # -- lifecycle ------------------------------------------------------- #
    def _stop(self) -> None:
        if self._stack is not None:
            stack, self._stack, self.client = self._stack, None, None
            stack.close()

    def close(self) -> None:
        self._stop()

    def _send(self, job: dict) -> int:
        self.next_id += 1
        self.client._send({"id": self.next_id, "op": "simulate", "job": job})
        return self.next_id

    def prepare(self, repeat: int) -> None:
        """Start the service and send one job per (graph, machine, policy)."""
        stack = contextlib.ExitStack()
        self._stack = stack
        config = ServiceConfig(
            workers=SERVICE_WORKERS, batch=SERVICE_BATCH, window_ms=SERVICE_WINDOW_MS
        )
        host, port = stack.enter_context(serve_in_thread(config))
        self.client = stack.enter_context(ServiceClient(host, port, timeout=SOCKET_TIMEOUT_S))
        warm = [service_job(i, self.seed) for i in range(48)]
        for job in warm:
            self._send(job)
        for _ in warm:
            response = self.client._recv()
            if not response.get("ok"):
                raise RuntimeError(f"set-up job failed: {response.get('error')}")

    # -- phases ---------------------------------------------------------- #
    def _accept(self, response: dict) -> None:
        """Keep a job's row; ``None`` marks a refused or failed job."""
        self.rows[response.get("id")] = response["row"] if response.get("ok") else None

    def open_loop(self, duration: float) -> OpenLoop:
        n = max(1, int(round(OPEN_RATE * duration)))
        jobs = [service_job(i, self.seed) for i in range(n)]
        first_id = self.next_id + 1
        schedule = OpenLoop(OPEN_RATE, n, time.perf_counter() + 0.05)
        failure: List[BaseException] = []

        def _sender():
            try:
                for i, job in enumerate(jobs):
                    delay = schedule.due(i) - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    self.sent[first_id + i] = job
                    self._send(job)
                    schedule.sent(i, time.perf_counter())
            except Exception as exc:  # re-raised by the reader below
                failure.append(exc)

        sender = threading.Thread(target=_sender, name="perfbench-open-loop")
        sender.start()
        try:
            for _ in range(n):
                response = self.client._recv()
                schedule.done(response["id"] - first_id, time.perf_counter())
                self._accept(response)
        finally:
            sender.join(timeout=SOCKET_TIMEOUT_S)
        if failure:
            raise failure[0]
        return schedule

    def closed_loop(self, duration: float) -> float:
        """Keep CLOSED_WINDOW jobs in flight; return completed jobs per second.

        The rate is the median over CLOSED_SLICES equal slices of the phase,
        so a scheduling burst in one slice does not set the result.
        """
        start = time.perf_counter()
        deadline = start + duration
        inflight = 0
        done_at: List[float] = []
        i = 0

        def _send_next():
            nonlocal i, inflight
            job = service_job(i, self.seed)
            self.sent[self.next_id + 1] = job
            self._send(job)
            i += 1
            inflight += 1

        for _ in range(CLOSED_WINDOW):
            _send_next()
        while inflight:
            self._accept(self.client._recv())
            inflight -= 1
            done_at.append(time.perf_counter())
            if done_at[-1] < deadline:
                _send_next()
        width = duration / CLOSED_SLICES
        counts = Counter(int((t - start) / width) for t in done_at if t < deadline)
        return median([counts[k] / width for k in range(CLOSED_SLICES)])

    def run_phases(self, seconds: float):
        before = self.client.stats()
        self.speed.sample(SERVICE_CALIBRATE_S)
        first_open = self.next_id + 1
        schedule = self.open_loop(OPEN_SHARE * seconds)
        self.speed.sample(SERVICE_CALIBRATE_S)
        jobs_per_s = self.closed_loop(CLOSED_SHARE * seconds)
        self.speed.sample(SERVICE_CALIBRATE_S)
        after = self.client.stats()
        self._stop()
        return schedule, range(first_open, first_open + schedule.n), jobs_per_s, before, after

    def measure(self, seconds: float) -> Dict[str, float]:
        schedule, open_ids, jobs_per_s, before, after = self.run_phases(seconds)
        self.schedule, self.open_ids = schedule, list(open_ids)
        self.before, self.after = before, after
        # A failed or refused job counts as beyond any latency limit.
        open_latencies = [
            math.inf if self.rows.get(rid) is None or done is None else done - schedule.due(i)
            for i, (rid, done) in enumerate(zip(self.open_ids, schedule.done_at))
        ]
        late = {self.open_ids[i] for i in missed_limit(open_latencies, 1e-3 * TAIL_LIMIT_MS)}
        # Checked after the service is down: every row against a direct run
        # of the job that was sent under its id.
        self.reference = DirectReference()
        for request_id, job in self.sent.items():
            row = self.rows.get(request_id)
            if row is None:
                self.tally.record("refused")
            elif request_id in late:
                self.tally.record("late")
            else:
                self.reference.check(row, job_spec(job), self.tally)
        out = {"cells_per_s": jobs_per_s}
        out.update(latency_metrics(schedule.latencies()))
        over = sum(1 for latency in open_latencies if latency > 1e-3 * TAIL_LIMIT_MS)
        self.notes["tail_limit_ms"] = TAIL_LIMIT_MS
        self.notes["over_limit"] = over
        out["loadgen.over_limit"] = float(over)
        out["loadgen.late_ms_max"] = 1e3 * schedule.late_max
        return out

    def trace(self, seconds: float) -> Dict[str, float]:
        """Service numbers from responses and ``stats``; the split in-process.

        Queue wait is a job's due-to-response latency minus the ``runtime_s``
        its worker reported.  The core/sim/scheduler split inside the
        workers comes from replaying the distinct jobs in this process:
        untraced (B) and traced (C), both warm like the service's workers.
        """
        out = self.measure(seconds)
        waits, computes = [], []
        for rid in self.open_ids:
            row = self.rows.get(rid)
            done = self.schedule.done_at[rid - self.open_ids[0]]
            if row is None or done is None:
                continue
            latency = done - self.schedule.due(rid - self.open_ids[0])
            waits.append(latency - row["runtime_s"])
            computes.append(row["runtime_s"])
        wait_tail, _pct, _n = tail_percentile(waits)
        out["service.queue_wait_ms_p50"] = 1e3 * median(waits)
        out["service.queue_wait_ms_tail"] = 1e3 * wait_tail
        out["service.compute_ms_p50"] = 1e3 * median(computes)
        d = {
            key: self.after["coalescing"][key] - self.before["coalescing"][key]
            for key in ("batches", "coalesced_jobs", "solo_jobs")
        }
        out["service.mean_batch"] = (
            (d["coalesced_jobs"] + d["solo_jobs"]) / d["batches"] if d["batches"] else 0.0
        )
        hits = self.after["affinity"]["hits"] - self.before["affinity"]["hits"]
        misses = self.after["affinity"]["misses"] - self.before["affinity"]["misses"]
        out["service.affinity_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        n_jobs = len(self.sent)
        for key, field in (("hits", "sim.compile_cache_hits"), ("misses", "sim.compile_cache_misses")):
            out[field] = (
                self.after["compile_cache"][key] - self.before["compile_cache"][key]
            ) / n_jobs

        # In-process replay of the distinct jobs, in send order.
        specs = list({spec_id(job): job_spec(job) for job in self.sent.values()}.values())
        start = time.perf_counter()
        untraced_rows = [run_scenario(spec) for spec in specs]
        untraced_s = time.perf_counter() - start
        with traced() as tracer:
            start = time.perf_counter()
            traced_rows = []
            for spec in specs:
                with tracer.region(CELL, tag=spec_id(spec)):
                    traced_rows.append(run_scenario(spec))
            traced_s = time.perf_counter() - start
        for traced_row, untraced_row in zip(traced_rows, untraced_rows):
            same = science(traced_row) == science(untraced_row)
            self.tally.record("ok" if same else "mismatch")
        out.update(layer_metrics(tracer, traced_rows))
        out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        self.trace_dump = {
            "stats_before": self.before,
            "stats_after": self.after,
            "replay": tracer.export(),
        }
        return out


WORKLOADS = {cls.name: cls for cls in (SA1k, SALanes, SweepDag200, ServiceOpen)}


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    """Run one workload and return the contract's result object."""
    workload = WORKLOADS[name](seed)
    # Set-up and measuring each have their own speedometer, so that each
    # is rescaled by the machine speed sampled around it.
    setup_speed = Speedometer()
    try:
        prepare_s = []
        for repeat in range(SETUP_REPEATS):
            workload.close()  # a repeated set-up starts from nothing
            setup_speed.sample(SETUP_CALIBRATE_S)
            start = time.perf_counter()
            workload.prepare(repeat)
            prepare_s.append(time.perf_counter() - start)
        setup_speed.sample(SETUP_CALIBRATE_S)
        setup_s = import_s + median(prepare_s)
        if trace:
            measured = workload.trace(seconds)
        else:
            measured = workload.measure(seconds)
    finally:
        workload.close()
    names = [metric for metric, _unit, _better in (PER_LAYER if trace else END_TO_END)]
    units = {metric: unit for metric, unit, _better in END_TO_END + PER_LAYER}
    values = dict(measured)
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = peak_rss_mb()
    values["machine.calibration_ms"] = 1e3 * workload.speed.unit_s
    factor = workload.speed.factor
    workload.notes["speed_factor"] = factor
    workload.notes["setup_speed_factor"] = setup_speed.factor
    workload.notes["as_measured"] = {
        metric: values[metric] for metric in RESCALED_TIMES + RESCALED_RATES if metric in values
    }
    values["setup_s"] *= setup_speed.factor
    for metric in RESCALED_TIMES:
        if metric in values and metric != "setup_s":
            values[metric] *= factor
    for metric in RESCALED_RATES:
        if metric in values:
            values[metric] /= factor
    metrics = {
        metric: {"value": float(values.get(metric, 0.0)), "unit": units[metric]}
        for metric in names
    }
    tally = workload.tally
    return {
        "result": {
            "correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
        "tally": tally,
        "values": values,
        "notes": workload.notes,
        "trace_dump": getattr(workload, "trace_dump", None),
    }
