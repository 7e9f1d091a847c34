"""Golden-trace regression tests: fixed-seed runs must never drift.

Every (program, architecture, communication) cell of the paper's Table 2 is
simulated under the canonical SA configuration and compared bit-for-bit —
makespan, packet count, message count and every task's ``[processor, start,
finish]`` triple — against the fixtures in ``tests/golden/``.  Two
random-graph scenarios pin the generator + sweep stack the same way, and
``lanes.json`` pins multi-lane SA (``replicas=4`` and ``portfolio=4``) on
both simulation engines, together with each run's total proposals, rung
count and culled-lane count.

These tests are the contract behind every performance refactor: compiled
kernels, vectorized tables and parallel sweeps may change *how* the numbers
are produced, never *which* numbers.  After an intentional behaviour change,
regenerate with::

    python -m pytest tests/test_golden_trace.py --regen-golden
"""

from __future__ import annotations

import pytest

from repro.comm.model import LinearCommModel, ZeroCommModel
from repro.core.config import SAConfig
from repro.core.sa_scheduler import SAScheduler
from repro.experiments.sweep import MACHINE_BUILDERS
from repro.machine.machine import Machine
from repro.sim.engine import simulate
from repro.taskgraph.generators import layered_random, random_dag
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
