"""Ablation: cooling schedule and acceptance rule of the packet annealer.

The paper does not prescribe a cooling schedule; this ablation compares the
library default (geometric), linear and constant-temperature cooling, and the
paper's sigmoid acceptance versus Metropolis and pure hill climbing, on the
Newton–Euler / hypercube configuration with communication.  The point of the
study: the staged scheduler is robust to the annealing details because each
packet is a small optimization problem — every variant must stay within a
few percent of the default and above the HLF baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annealing.acceptance import (
    BoltzmannSigmoidAcceptance,
    GreedyAcceptance,
    MetropolisAcceptance,
)
from repro.annealing.cooling import ConstantTemperature, GeometricCooling, LinearCooling
from repro.comm.model import LinearCommModel
from repro.core.config import SAConfig
from repro.core.sa_scheduler import SAScheduler
from repro.machine.machine import Machine
from repro.schedulers.hlf import HLFScheduler
from repro.sim.engine import simulate
from repro.utils.tabulate import format_table
from repro.workloads.suite import paper_program

VARIANTS = {
    "geometric+sigmoid (default)": dict(
        cooling=GeometricCooling(alpha=0.9), acceptance=BoltzmannSigmoidAcceptance()
    ),
    "linear+sigmoid": dict(
        cooling=LinearCooling(step=0.05), acceptance=BoltzmannSigmoidAcceptance()
    ),
    "constant-T+sigmoid": dict(
        cooling=ConstantTemperature(), acceptance=BoltzmannSigmoidAcceptance(),
        initial_temperature=0.2,
    ),
    "geometric+metropolis": dict(
        cooling=GeometricCooling(alpha=0.9), acceptance=MetropolisAcceptance()
    ),
    "hill-climbing": dict(
        cooling=GeometricCooling(alpha=0.9), acceptance=GreedyAcceptance()
    ),
}


def _run_variants():
    graph = paper_program("NE")
    machine = Machine.hypercube(3)
    speedups = {}
    for name, overrides in VARIANTS.items():
        cfg = SAConfig(seed=1, **overrides)
        result = simulate(graph, machine, SAScheduler(cfg), comm_model=LinearCommModel(),
                          record_trace=False)
        speedups[name] = result.speedup()
    hlf = float(np.mean([
        simulate(graph, machine, HLFScheduler(seed=s), comm_model=LinearCommModel(),
                 record_trace=False).speedup()
        for s in range(3)
    ]))
    return speedups, hlf


@pytest.mark.benchmark(group="ablation-cooling")
def test_cooling_and_acceptance_ablation(benchmark, save_artifact):
    speedups, hlf = benchmark.pedantic(_run_variants, rounds=1, iterations=1)
    default = speedups["geometric+sigmoid (default)"]

    # the default must beat the baseline and no variant should collapse
    assert default > hlf
    for name, sp in speedups.items():
        assert sp >= hlf * 0.92, f"variant {name} collapsed below the HLF baseline"
        assert sp >= default * 0.85, f"variant {name} far below the default"

    rows = [[name, sp] for name, sp in speedups.items()] + [["HLF (mean)", hlf]]
    text = format_table(rows, headers=["variant", "speedup"],
                        title="Cooling / acceptance ablation - Newton-Euler on hypercube")
    save_artifact("ablation_cooling", text)
    print("\n" + text)
