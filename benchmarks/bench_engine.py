"""Benchmark: the compiled fast engine vs the reference object engine.

The end-to-end benchmark times the 200-task random-graph list-scheduler
sweep (HLF, ETF, LPT over three graph seeds on the hypercube and ring
machines) through both engines, asserts the results are **identical** (the
fast engine's contract) and the speedup is at least the loose CI floor
(≥ 2×; typical measurements are 4–6×).  A kernel micro-benchmark times one
ETF assignment epoch through the object path and the index-space kernel.

Measured numbers are persisted to ``BENCH_engine.json`` at the repository
root — the performance trajectory future engine changes regress against —
and rendered to ``benchmarks/results/engine_speedup.txt``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    SWEEP_SCENARIO,
    per_policy_payload,
    render_policy_table,
    sweep_graphs,
    time_policy_sweep,
)
from repro.comm.model import LinearCommModel
from repro.machine.machine import Machine
from repro.schedulers.base import PacketContext
from repro.schedulers.etf import ETFScheduler
from repro.sim.compile import FastPacket, compile_scenario
from repro.taskgraph.generators import layered_random

REPO_ROOT = Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"

#: Loose CI floor for the end-to-end sweep speedup (noisy shared runners);
#: local measurements are recorded in BENCH_engine.json.
MIN_SPEEDUP = 2.0


def _etf_epoch_fixture():
    """One communication-heavy ETF epoch, as context and as packet.

    Layer 0 of a two-layer graph is placed and finished; all of layer 1 is
    ready on a machine with three busy processors.
    """
    graph = layered_random(
        n_layers=2, width=60, edge_probability=0.3,
        mean_duration=20.0, mean_comm=8.0, seed=7,
    )
    machine = Machine.hypercube(3)
    comm = LinearCommModel()
    levels = graph.levels()
    scenario = compile_scenario(graph, machine, comm)
    layer0 = [t for t in graph.tasks if graph.in_degree(t) == 0]
    ready_ids = [t for t in graph.tasks if t not in set(layer0)]
    placed = {t: i % machine.n_processors for i, t in enumerate(layer0)}
    finish = {t: 10.0 + 0.5 * i for i, t in enumerate(layer0)}
    idle = list(range(machine.n_processors - 3))
    ctx = PacketContext(
        time=40.0,
        ready_tasks=ready_ids,
        idle_processors=idle,
        graph=graph,
        machine=machine,
        levels=levels,
        task_processor=placed,
        finish_times=finish,
        comm_model=comm,
    )
    assigned = np.full(scenario.n_tasks, -1, dtype=np.intp)
    fins = np.zeros(scenario.n_tasks, dtype=np.float64)
    for t, p in placed.items():
        assigned[scenario.index_of[t]] = p
        fins[scenario.index_of[t]] = finish[t]
    packet = FastPacket(
        time=40.0,
        ready=[scenario.index_of[t] for t in ready_ids],
        idle=idle,
        scenario=scenario,
        assigned_proc=assigned,
        finish_times=fins,
        proc_ready_time=np.zeros(machine.n_processors),
    )
    return scenario, ctx, packet


def _time_epoch(fn, repeats=50):
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


@pytest.mark.benchmark(group="engine")
def test_engine_sweep_speedup(benchmark, save_artifact):
    machines = [Machine.hypercube(3), Machine.ring(9)]
    graphs = sweep_graphs()

    # Warm-up + equivalence proof: identical numbers from both engines.
    object_s, object_results = time_policy_sweep(graphs, machines, fast=False, repeats=1)
    fast_s, fast_results = time_policy_sweep(graphs, machines, fast=None, repeats=1)
    assert object_results == fast_results, "fast engine diverged from the reference"

    # Timed passes.
    object_s, _ = time_policy_sweep(graphs, machines, fast=False)
    fast_s, _ = time_policy_sweep(graphs, machines, fast=None)
    speedup = sum(object_s.values()) / sum(fast_s.values())

    # Kernel micro-benchmark: one ETF epoch, object path vs index kernel.
    scenario, ctx, packet = _etf_epoch_fixture()
    etf = ETFScheduler()
    etf.reset()
    object_assignment = etf.assign(ctx)
    etf.reset()
    fast_assignment = etf.fast_assign(packet)
    assert object_assignment == {
        scenario.task_ids[t]: p for t, p in fast_assignment.items()
    }, "ETF kernel diverged from the object path"
    epoch_object_s = _time_epoch(lambda: etf.assign(ctx))
    def _fresh_fast():
        etf.reset()  # epoch cache off, measure the cold kernel
        etf.fast_assign(packet)
    epoch_fast_s = _time_epoch(_fresh_fast)

    payload = {
        "benchmark": "bench_engine",
        "scenario": {
            "sweep": SWEEP_SCENARIO % "latency",
            "kernel": "one ETF epoch: 60 ready tasks x 5 idle processors, "
                      "layer-0 predecessors placed",
        },
        "per_policy_ms": per_policy_payload(object_s, fast_s),
        "sweep_speedup": round(speedup, 2),
        "etf_epoch_us": {
            "object": round(epoch_object_s * 1e6, 1),
            "fast": round(epoch_fast_s * 1e6, 1),
            "speedup": round(epoch_object_s / epoch_fast_s, 2),
        },
        "min_speedup_asserted": MIN_SPEEDUP,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=1) + "\n")

    lines = render_policy_table(
        "Engine benchmark: compiled fast engine vs reference object engine",
        payload["scenario"]["sweep"],
        payload["per_policy_ms"],
        payload["sweep_speedup"],
    )
    lines += [
        "",
        f"ETF epoch kernel: {payload['etf_epoch_us']['object']:.0f}us -> "
        f"{payload['etf_epoch_us']['fast']:.0f}us "
        f"({payload['etf_epoch_us']['speedup']:.2f}x)",
    ]
    save_artifact("engine_speedup", "\n".join(lines))
    print("\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"fast engine only {speedup:.2f}x faster than the object engine "
        f"(floor {MIN_SPEEDUP}x); see BENCH_engine.json"
    )

    # pytest-benchmark timing: the fast-engine sweep core (one repetition).
    benchmark(lambda: time_policy_sweep(graphs, machines, fast=None, repeats=1))
