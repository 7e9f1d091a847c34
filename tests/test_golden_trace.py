"""Golden-trace regression tests: fixed-seed runs must never drift.

Every (program, architecture, communication) cell of the paper's Table 2 is
simulated under the canonical SA configuration and compared bit-for-bit —
makespan, packet count, message count and every task's ``[processor, start,
finish]`` triple — against the fixtures in ``tests/golden/``.
``table2_tuned.json`` pins what ``run_table2`` reports for all 24 cells at
both fidelities: the tuned SA speedup, the mean HLF speedup and the winning
w_c.  Two
random-graph scenarios pin the generator + sweep stack the same way, and
``lanes.json`` pins multi-lane SA (``replicas=4`` and ``portfolio=4``) on
both simulation engines, together with each run's total proposals, rung
count and culled-lane count.  ``graphs.json`` pins the generated graphs themselves:
a digest of every task, edge and weight of the ``random_dag`` graphs the
sweeps build (``dag200`` seeds 0-63, ``dag`` and ``dag-dense`` seeds 0-15) and
of ``random_dag`` shapes that take its other branches.

These tests are the contract behind every performance refactor: compiled
kernels, vectorized tables and parallel sweeps may change *how* the numbers
are produced, never *which* numbers.  After an intentional behaviour change,
regenerate with::

    python -m pytest tests/test_golden_trace.py --regen-golden
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.comm.model import LinearCommModel, ZeroCommModel
from repro.core.config import SAConfig
from repro.core.sa_scheduler import SAScheduler
from repro.experiments.sweep import GRAPH_FAMILIES, MACHINE_BUILDERS
from repro.experiments.table2 import run_table2
from repro.machine.machine import Machine
from repro.sim.engine import simulate
from repro.taskgraph.generators import layered_random, random_dag
from repro.taskgraph.io import to_dict
from repro.workloads.suite import PAPER_PROGRAMS

PROGRAMS = ("NE", "GJ", "FFT", "MM")
ARCHITECTURES = ("Hypercube (8p)", "Bus (8p)", "Ring (9p)")
COMM_SETTINGS = ("with", "wo")

_ARCH_BUILDERS = {
    "Hypercube (8p)": lambda: Machine.hypercube(3),
    "Bus (8p)": lambda: Machine.bus(8),
    "Ring (9p)": lambda: Machine.ring(9),
}

TABLE2_CELLS = [
    (program, architecture, comm)
    for program in PROGRAMS
    for architecture in ARCHITECTURES
    for comm in COMM_SETTINGS
]


def _run_cell(program: str, architecture: str, comm: str):
    """One canonical fixed-seed SA run for a Table-2 cell, trace recorded."""
    graph = PAPER_PROGRAMS[program].build(seed=0)
    machine = _ARCH_BUILDERS[architecture]()
    comm_model = LinearCommModel() if comm == "with" else ZeroCommModel()
    return simulate(
        graph,
        machine,
        SAScheduler(SAConfig.paper_defaults(seed=1)),
        comm_model=comm_model,
        record_trace=True,
    )


@pytest.mark.parametrize("program,architecture,comm", TABLE2_CELLS,
                         ids=[f"{p}-{a.split(' ')[0]}-{c}" for p, a, c in TABLE2_CELLS])
def test_table2_cell_matches_golden_trace(program, architecture, comm, golden_table2):
    result = _run_cell(program, architecture, comm)
    # Sanity beyond the byte-diff: the schedule itself must be valid.
    result.trace.validate(PAPER_PROGRAMS[program].build(seed=0))
    golden_table2.check(f"{program}|{architecture}|{comm}", result.fingerprint())


@pytest.mark.parametrize("fidelity", ("latency", "contention"))
def test_tuned_table2_matches_golden(fidelity, golden_table2_tuned):
    """Table 2 as reported: best-of-w_c SA, HLF mean over placement seeds."""
    blocks = run_table2(fidelity=fidelity)
    assert [block.program for block in blocks] == [
        PAPER_PROGRAMS[key].display_name for key in PROGRAMS
    ]
    for program, block in zip(PROGRAMS, blocks):
        assert len(block.cells) == 2 * len(ARCHITECTURES)
        for cell in block.cells:
            comm = "with" if cell.with_communication else "wo"
            golden_table2_tuned.check(
                f"{fidelity}|{program}|{cell.architecture}|{comm}",
                {
                    "speedup_sa": cell.speedup_sa,
                    "speedup_hlf": cell.speedup_hlf,
                    "sa_weight_comm": cell.sa_weight_comm,
                },
            )


RANDOM_SCENARIOS = {
    "layered-seed0-hypercube8-SA": lambda: simulate(
        layered_random(
            n_layers=6, width=8, edge_probability=0.4,
            mean_duration=20.0, mean_comm=8.0, seed=0,
        ),
        Machine.hypercube(3),
        SAScheduler(SAConfig.paper_defaults(seed=0)),
        comm_model=LinearCommModel(),
        record_trace=True,
    ),
    "dag40-seed0-ring9-SA": lambda: simulate(
        random_dag(40, edge_probability=0.2, mean_duration=15.0, mean_comm=5.0, seed=0),
        Machine.ring(9),
        SAScheduler(SAConfig.paper_defaults(seed=0)),
        comm_model=LinearCommModel(),
        record_trace=True,
    ),
}


@pytest.mark.parametrize("scenario", sorted(RANDOM_SCENARIOS), ids=sorted(RANDOM_SCENARIOS))
def test_random_graph_fingerprint_matches_golden(scenario, golden_random):
    result = RANDOM_SCENARIOS[scenario]()
    result.trace.validate()
    golden_random.check(scenario, result.fingerprint())


LANE_GRAPHS = {
    "layered4x6": lambda: layered_random(
        n_layers=4, width=6, edge_probability=0.4,
        mean_duration=20.0, mean_comm=8.0, seed=0,
    ),
    "dag30": lambda: random_dag(
        30, edge_probability=0.2, mean_duration=15.0, mean_comm=5.0, seed=1
    ),
}
LANE_MODES = {
    "replicas4": lambda cfg: cfg.with_replicas(4),
    "portfolio4": lambda cfg: cfg.with_portfolio(4),
}
LANE_CELLS = [
    (mode, graph, machine, engine)
    for mode in sorted(LANE_MODES)
    for graph in sorted(LANE_GRAPHS)
    for machine in ("hypercube8", "hetero-hypercube8-4x")
    for engine in ("object", "fast")
]


@pytest.mark.parametrize("mode,graph,machine,engine", LANE_CELLS,
                         ids=["-".join(cell) for cell in LANE_CELLS])
def test_lane_run_matches_golden(mode, graph, machine, engine, golden_lanes):
    """Replica and portfolio runs: schedule plus the lane walk's work counts."""
    scheduler = SAScheduler(LANE_MODES[mode](SAConfig.paper_defaults(seed=0)))
    racing = {"rungs": 0, "culled_lanes": 0}

    def count(snapshot) -> None:
        last = snapshot.get("last_packet")
        if last is not None:
            racing["rungs"] += last["n_rungs"]
            racing["culled_lanes"] += last["n_culled"]

    scheduler.anytime_hook = count
    result = simulate(
        LANE_GRAPHS[graph](),
        MACHINE_BUILDERS[machine](),
        scheduler,
        comm_model=LinearCommModel(),
        record_trace=True,
        fast=engine == "fast",
    )
    result.trace.validate()
    golden_lanes.check(
        f"{mode}|{graph}|{machine}|{engine}",
        dict(
            result.fingerprint(),
            n_proposals=sum(s.n_proposals for s in scheduler.packet_stats),
            **racing,
        ),
    )


#: ``random_dag`` shapes beyond the sweep families, one per branch of the
#: generator: heavy-tailed weights, no weights, fixed weights, fixed
#: durations, durations and weights clamped to ``MIN_DURATION``, no pairs,
#: one pair, no edges and every edge.
GRAPH_SHAPES = {
    "comm_cv2": dict(n_tasks=80, edge_probability=0.25, comm_cv=2.0),
    "mean_comm0": dict(n_tasks=60, edge_probability=0.3, mean_comm=0.0),
    "comm_cv0": dict(n_tasks=60, edge_probability=0.3, comm_cv=0.0),
    "duration_cv0": dict(n_tasks=50, edge_probability=0.2, duration_cv=0.0),
    "cv20": dict(n_tasks=40, edge_probability=0.3, duration_cv=20.0, comm_cv=20.0),
    "n1": dict(n_tasks=1),
    "n2": dict(n_tasks=2, edge_probability=0.5),
    "p0": dict(n_tasks=30, edge_probability=0.0),
    "p1": dict(n_tasks=30, edge_probability=1.0),
}
GRAPH_CASES = (
    [(f"dag200|{seed}", lambda seed=seed: GRAPH_FAMILIES["dag200"](seed)) for seed in range(64)]
    + [
        (f"{family}|{seed}", lambda family=family, seed=seed: GRAPH_FAMILIES[family](seed))
        for family in ("dag", "dag-dense")
        for seed in range(16)
    ]
    + [
        (f"random_dag:{shape}|{seed}", lambda shape=shape, seed=seed: random_dag(**GRAPH_SHAPES[shape], seed=seed))
        for shape in GRAPH_SHAPES
        for seed in range(4)
    ]
)


@pytest.mark.parametrize("key,build", GRAPH_CASES, ids=[key for key, _ in GRAPH_CASES])
def test_generated_graph_matches_golden(key, build, golden_graphs):
    """Every task, duration, edge (in insertion order) and weight, bit for bit."""
    graph = build()
    text = json.dumps(to_dict(graph), sort_keys=True)
    golden_graphs.check(
        key,
        {
            "n_tasks": graph.n_tasks,
            "n_edges": graph.n_edges,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        },
    )
