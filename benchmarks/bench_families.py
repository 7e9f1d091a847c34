"""Benchmark: cross-family policy study on the >= 1000-task workload zoo.

Does SA's edge over the list schedulers survive on realistically *shaped*
DAGs?  The paper's Table 2 answers this only for its four programs; this
study re-asks the question on the workload zoo's policy-study instances
(``build_large``, >= 1000 tasks each) for a representative family subset —
two per group: montage + cybershake (pegasus), bigmerge + grid (elementary),
mapreduce + gridcat (irw).

The {HLF, ETF, LPT} sweep runs twice — once as solo :func:`run_compiled`
calls, once as a single :func:`run_lanes` call — with every lane
fingerprint-identical between the two and the aggregate batched-sweep
speedup above a loose CI floor.  Each policy brings ``6 x N_SEEDS`` lanes,
fewer than ``run_lanes``' lock-step cut, so the call runs them solo: the
floor pins that routing a policy study through ``run_lanes`` costs
nothing, and CI's tests job drives these cells through the lock step
itself.  SA (paper-default annealing, fixed seeds) then runs solo per
cell, and the per-family mean makespans are ranked.

Measured numbers are persisted to ``BENCH_families.json`` at the repository
root — gated by ``check_floors.py`` — and the ranking table is rendered to
``benchmarks/results/families_ranking.txt``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from conftest import SWEEP_POLICIES
from repro.comm.model import LinearCommModel
from repro.core.config import SAConfig
from repro.core.sa_scheduler import SAScheduler
from repro.machine.machine import Machine
from repro.sim.batch_engine import run_lanes
from repro.sim.compile import compile_scenario
from repro.sim.fast_engine import run_compiled
from repro.taskgraph.families import FAMILIES

REPO_ROOT = Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_families.json"

#: Two families per group; every instance is the >= 1000-task build_large.
STUDY_FAMILIES = ("montage", "cybershake", "bigmerge", "grid", "mapreduce", "gridcat")

#: Graph seeds per family.  CI may shrink this; the committed baseline is
#: measured at the default.
N_SEEDS = int(os.environ.get("BENCH_FAMILIES_SEEDS", "2"))

#: Loose CI floor for the batched-sweep speedup.  The call here is only
#: ``3 policies x 6 families x N_SEEDS`` lanes of 1000-task graphs, and a
#: lock step of so few wide lanes loses to solo runs (ETF most of all), so
#: ``run_lanes`` runs them solo and the ratio sits near 1.0x.  The floor
#: pins that this routing never becomes a pathological slowdown.
MIN_SPEEDUP = 0.75

#: Timed passes per engine for the list-scheduler sweep; minimum kept.
REPEATS = 2


def _study_scenarios():
    """Compile (family, seed) -> scenario for the study grid."""
    machine = Machine.hypercube(3)
    comm = LinearCommModel()
    scenarios = {}
    for key in STUDY_FAMILIES:
        spec = FAMILIES[key]
        for seed in range(N_SEEDS):
            graph = spec.build_large(seed=seed)
            graph.validate()
            scenarios[(key, seed)] = compile_scenario(graph, machine, comm)
    return scenarios


def _rank(mean_makespans):
    """Policy names sorted best (smallest mean makespan) first."""
    return sorted(mean_makespans, key=lambda name: mean_makespans[name])


@pytest.mark.benchmark(group="families")
def test_family_policy_study(benchmark, save_artifact):
    scenarios = _study_scenarios()
    cells = sorted(scenarios)

    # ---- list schedulers: solo vs batched, timed, fingerprint-identical ----
    makespans = {}  # (policy, family, seed) -> makespan
    solo_s = batch_s = float("inf")
    for _ in range(REPEATS):
        solo = {}
        start = time.perf_counter()
        for name, factory in SWEEP_POLICIES.items():
            for cell in cells:
                policy = factory()
                policy.reset()
                solo[(name, cell)] = run_compiled(scenarios[cell], policy)
        solo_s = min(solo_s, time.perf_counter() - start)

        lanes = []
        for name, factory in SWEEP_POLICIES.items():
            for cell in cells:
                policy = factory()
                policy.reset()
                lanes.append((scenarios[cell], policy))
        start = time.perf_counter()
        batched = run_lanes(lanes)
        batch_s = min(batch_s, time.perf_counter() - start)

    lane_keys = [(name, cell) for name in SWEEP_POLICIES for cell in cells]
    for lane_key, result in zip(lane_keys, batched):
        name, (family, seed) = lane_key
        assert solo[lane_key].fingerprint() == result.fingerprint(), (
            f"{name} on {family}-1k seed {seed} diverged between the solo "
            "and batched engines"
        )
        makespans[(name, family, seed)] = result.makespan
    speedup = solo_s / batch_s

    # ---- SA: solo per cell (annealing dominates; no batching to amortize) --
    sa_s = 0.0
    for family, seed in cells:
        policy = SAScheduler(SAConfig.paper_defaults(seed=seed))
        policy.reset()
        start = time.perf_counter()
        result = run_compiled(scenarios[(family, seed)], policy)
        sa_s += time.perf_counter() - start
        makespans[("SA", family, seed)] = result.makespan

    # ---- per-family means, rankings and the SA-vs-ETF verdict -------------
    policies = list(SWEEP_POLICIES) + ["SA"]
    per_family = {}
    for family in STUDY_FAMILIES:
        means = {
            name: sum(makespans[(name, family, s)] for s in range(N_SEEDS)) / N_SEEDS
            for name in policies
        }
        per_family[family] = {
            "n_tasks": FAMILIES[family].expected_tasks(**FAMILIES[family].large_params),
            "mean_makespan": {k: round(v, 3) for k, v in means.items()},
            "ranking": _rank(means),
            "sa_vs_etf": round(means["SA"] / means["ETF"], 4),
        }
    sa_wins = sum(1 for row in per_family.values() if row["sa_vs_etf"] < 1.0)

    payload = {
        "benchmark": "bench_families",
        "scenario": (
            f"workload-zoo build_large instances (>= 1000 tasks) x hypercube8: "
            f"{len(STUDY_FAMILIES)} families x {N_SEEDS} seeds, "
            "{HLF, ETF, LPT} batched + SA solo, latency fidelity, eq-4 comm"
        ),
        "families": list(STUDY_FAMILIES),
        "n_seeds": N_SEEDS,
        "sweep_ms": {
            "solo": round(solo_s * 1e3, 3),
            "batch": round(batch_s * 1e3, 3),
            "sa_solo": round(sa_s * 1e3, 3),
        },
        "batched_sweep_speedup": round(speedup, 2),
        "min_speedup_asserted": MIN_SPEEDUP,
        "per_family": per_family,
        "sa_beats_etf_on": sa_wins,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=1) + "\n")

    # ---- rendered ranking table -------------------------------------------
    lines = [
        "Cross-family policy study: workload zoo at >= 1000 tasks",
        payload["scenario"],
        "",
        f"{'family':<12} {'tasks':>6} " +
        " ".join(f"{name:>10}" for name in policies) +
        "  ranking (best first)",
    ]
    for family, row in per_family.items():
        means = row["mean_makespan"]
        lines.append(
            f"{family:<12} {row['n_tasks']:>6} "
            + " ".join(f"{means[name]:>10.1f}" for name in policies)
            + "  " + " > ".join(row["ranking"])
        )
    lines += [
        "",
        f"SA beats ETF on {sa_wins}/{len(STUDY_FAMILIES)} families "
        f"(sa_vs_etf < 1.0)",
        f"batched {{HLF, ETF, LPT}} sweep: {solo_s * 1e3:.1f}ms solo vs "
        f"{batch_s * 1e3:.1f}ms batched ({speedup:.2f}x); "
        f"SA solo total {sa_s * 1e3:.0f}ms",
    ]
    save_artifact("families_ranking", "\n".join(lines))
    print("\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"batched engine only {speedup:.2f}x vs solo fast-engine runs at "
        f"policy-study scale (floor {MIN_SPEEDUP}x); see BENCH_families.json"
    )

    # pytest-benchmark timing: one batched ETF pass over the study grid.
    benchmark(
        lambda: run_lanes(
            [(scenarios[cell], SWEEP_POLICIES["ETF"]()) for cell in cells]
        )
    )
