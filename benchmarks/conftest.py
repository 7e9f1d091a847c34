"""Shared helpers for the benchmark harness.

Every benchmark regenerates one artifact of the paper (a table or a figure)
or one extension/ablation study.  Besides the timing collected by
pytest-benchmark, each benchmark writes its rendered artifact to
``benchmarks/results/<name>.txt`` so the regenerated tables can be inspected
and diffed against the paper (README.md, "Experiments, sweeps,
benchmarks").

The engine-speedup benchmarks (``bench_engine.py`` per fidelity="latency",
``bench_fidelity.py`` per fidelity="contention") share one measurement
scaffold — :func:`time_policy_sweep` over :func:`sweep_graphs` plus the
payload/table builders — so their ``BENCH_*.json`` schemas stay aligned for
``check_floors.py`` and a methodology fix lands in both at once.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.comm.model import LinearCommModel
from repro.schedulers.etf import ETFScheduler
from repro.schedulers.hlf import HLFScheduler
from repro.schedulers.lpt import LPTScheduler
from repro.sim.engine import simulate
from repro.taskgraph.generators import random_dag

RESULTS_DIR = Path(__file__).parent / "results"

#: The list-scheduler trio both engine benchmarks sweep.
SWEEP_POLICIES = {
    "HLF": lambda: HLFScheduler(seed=0),
    "ETF": lambda: ETFScheduler(),
    "LPT": lambda: LPTScheduler(),
}

SWEEP_SCENARIO = (
    "200-task random DAGs (3 seeds) x {HLF, ETF, LPT} x "
    "{hypercube8, ring9}, %s fidelity, eq-4 comm"
)


def sweep_graphs(n_seeds: int = 3):
    """The dag200 instances of the engine-speedup sweeps."""
    return [
        random_dag(200, edge_probability=0.08, mean_duration=15.0, mean_comm=5.0, seed=s)
        for s in range(n_seeds)
    ]


def time_policy_sweep(graphs, machines, fast, fidelity="latency", repeats: int = 2):
    """Wall-clock one engine over the (policy × machine × graph) sweep.

    Returns ``(per-policy seconds per run, {(policy, machine, graph):
    (makespan, n_packets)})`` — the results dict doubles as the
    fast-vs-object equivalence proof.
    """
    per_policy = {}
    results = {}
    for name, factory in SWEEP_POLICIES.items():
        start = time.perf_counter()
        for _ in range(repeats):
            for mi, machine in enumerate(machines):
                for gi, graph in enumerate(graphs):
                    result = simulate(
                        graph, machine, factory(), comm_model=LinearCommModel(),
                        fidelity=fidelity, record_trace=False, fast=fast,
                    )
                    results[(name, mi, gi)] = (result.makespan, result.n_packets)
        n_runs = repeats * len(machines) * len(graphs)
        per_policy[name] = (time.perf_counter() - start) / n_runs
    return per_policy, results


def per_policy_payload(object_s, fast_s):
    """The shared ``per_policy_ms`` BENCH_*.json block."""
    return {
        name: {
            "object": round(object_s[name] * 1e3, 3),
            "fast": round(fast_s[name] * 1e3, 3),
            "speedup": round(object_s[name] / fast_s[name], 2),
        }
        for name in SWEEP_POLICIES
    }


def render_policy_table(title, scenario, per_policy_ms, total_speedup):
    """The shared speedup-table artifact lines (per policy + total row)."""
    lines = [
        title,
        scenario,
        "",
        f"{'policy':<8} {'object':>10} {'fast':>10} {'speedup':>9}",
    ]
    for name, row in per_policy_ms.items():
        lines.append(
            f"{name:<8} {row['object']:>8.2f}ms {row['fast']:>8.2f}ms {row['speedup']:>8.2f}x"
        )
    lines.append(
        f"{'total':<8} {sum(r['object'] for r in per_policy_ms.values()):>8.2f}ms "
        f"{sum(r['fast'] for r in per_policy_ms.values()):>8.2f}ms "
        f"{total_speedup:>8.2f}x"
    )
    return lines


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_artifact(results_dir):
    """Return a ``save(name, text)`` callable that persists a rendered artifact."""

    def save(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        return path

    return save
