"""Benchmark: the annealing-walk tiers and multi-replica annealing.

The packet annealer has two single-chain performance tiers (see
``SAConfig``): the *reference* per-call cost evaluation (``compiled=False``)
and the compiled array-native walk (the default); ``replicas=B`` runs B
multi-start chains per packet, each an array walk stepped one temperature at
a time as a lane.  This benchmark anneals the bench_kernel packet bag
(20 × (15 ready, 4 idle) + 10 × (30 ready, 8 idle), hypercube-8) through all
three, asserts the two single-chain tiers commit **identical** mappings
(same seed → same stream → same moves) and that multi-replica runs are
deterministic, and reports

* the single-chain speedup of the array walk over the reference path
  (target ≥ 3×; CI floor ≥ 2× for noisy shared runners), and
* the per-replica speedup of ``replicas=B`` over the reference path (CI
  floor ≥ 2×) — the B-replica wall clock divided by B, i.e. what one
  multi-start chain costs.  A stepped lane costs about one array walk plus
  its per-step bookkeeping, whatever B is.

That bag has no packet with a single idle processor, the shape that
carries almost all of the fast engine's annealing work, so a second bag
of 30 × (220 ready, 1 idle) packets times the single-idle walk both
drivers select for it against the general array walk (the oracle),
driven alike, asserts identical results and reports
``single_idle_speedup`` (CI floor ≥ 1.2×).

A second test races the anytime lane **portfolio** (``portfolio=8``:
heterogeneous cooling schedules × initial seeds × temperature scales with
successive-halving culling) against fixed-B multi-start (``replicas=8``) at
the matched draw budget over full SA runs of ``dag200``, ``mapreduce-1k``
and ``gridcat-1k``.  The quality metric is the ratio of total within-packet
cost improvement (portfolio / fixed; both runs are deterministic under the
shared seed, so the ratio is exactly reproducible); the minimum across
families is gated in CI against the ``min_portfolio_quality_asserted``
floor.

An end-to-end row runs SA over the sweep registry's 200-task ``dag200``
family through the object and fast engines (the SA ``fast_assign`` path),
asserting equal fingerprints and zero fallback epochs.

Measured numbers are persisted to ``BENCH_sa.json`` at the repository root
and rendered to ``benchmarks/results/sa_speedup.txt``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.comm.model import LinearCommModel
from repro.core.array_annealer import _array_walk, _finish, _single_idle_walk
from repro.core.config import SAConfig
from repro.core.cost import PacketCostFunction
from repro.core.packet import AnnealingPacket
from repro.core.packet_annealer import PacketAnnealer, PacketMappingProblem
from repro.core.sa_scheduler import SAScheduler
from repro.experiments.sweep import GRAPH_FAMILIES
from repro.machine.machine import Machine
from repro.sim.engine import simulate

REPO_ROOT = Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_sa.json"

#: Loose CI floors (noisy shared runners); the locally measured values —
#: recorded in BENCH_sa.json — are the real targets (>= 3x single-chain,
#: >= 8x per replica batched, ~1.7x single-idle walk over the array walk).
MIN_SINGLE_SPEEDUP = 2.0
MIN_BATCHED_SPEEDUP = 2.0
MIN_SINGLE_IDLE_SPEEDUP = 1.2

#: Matched draw budget of the portfolio-quality race: 8 portfolio lanes vs
#: 8 fixed multi-start replicas, both at the paper's per-lane step budget.
PORTFOLIO_LANES = 8
#: CI floor on the worst-family quality ratio.  Deterministic (seeded
#: annealing, no wall clock involved), so any drop means the racing logic
#: itself changed; measured values are 1.47-8.87x (see BENCH_sa.json).
MIN_PORTFOLIO_QUALITY = 1.2

#: Replica count of the multi-replica measurement.  Kept at 256 so the
#: per-replica numbers in BENCH_sa.json stay comparable across versions:
#: 256 lanes was the best shape of the deleted lock-step numpy engine (which
#: vectorized over lanes and broke even with the scalar array walk near
#: 128), and is the one shape where stepping lanes is slower than it was.
N_REPLICAS = 256


def _update_bench_json(fields: dict) -> None:
    """Merge *fields* into ``BENCH_sa.json`` (read-modify-write, so test
    order or a partial run such as ``-k tiers`` cannot drop the keys the
    other test wrote)."""
    payload = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    payload.update(fields)
    BENCH_JSON.write_text(json.dumps(payload, indent=1) + "\n")


def _make_packet(n_ready: int, n_idle: int, seed: int) -> AnnealingPacket:
    """A synthetic packet in the paper's regime (many candidates, few idle procs)."""
    rng = np.random.default_rng(seed)
    tasks = tuple(f"t{i}" for i in range(n_ready))
    levels = {t: float(rng.uniform(1, 100)) for t in tasks}
    placement = {
        t: tuple(
            (f"p{t}{k}", int(rng.integers(0, 8)), float(rng.uniform(0, 20)))
            for k in range(int(rng.integers(0, 4)))
        )
        for t in tasks
    }
    return AnnealingPacket(
        time=0.0,
        ready_tasks=tasks,
        idle_processors=tuple(range(n_idle)),
        levels=levels,
        predecessor_placement=placement,
    )


def _packet_bag():
    return [_make_packet(15, 4, s) for s in range(20)] + [
        _make_packet(30, 8, s) for s in range(10)
    ]


def _single_idle_bag(machine):
    """30 (220 ready, 1 idle) packets, the fast engine's common epoch shape,
    as (kernel, problem, annealer, seed) walk inputs."""
    bag = []
    for seed in range(30):
        packet = _make_packet(220, 1, seed)
        kernel = PacketCostFunction(packet, machine).kernel
        problem = PacketMappingProblem(kernel.index_packet(), kernel)
        annealer = PacketAnnealer(SAConfig(seed=0))._build_annealer(packet)
        bag.append((kernel, problem, annealer, seed))
    return bag


def _walk_bag(walk, bag):
    """Drive *walk* over every packet of *bag* the way ``anneal_array`` does."""
    results = []
    for kernel, problem, annealer, seed in bag:
        stopping = annealer.stopping
        stopping.reset()
        gen = walk(kernel, problem, np.random.default_rng(seed),
                   annealer.moves_per_temperature, annealer.resync_tolerance,
                   annealer.cooling, annealer.initial_temperature)
        step = 0
        while not stopping.should_stop(step, next(gen)[1]):
            step += 1
        r = _finish(gen)
        results.append((list(r.best_state.task_to_proc.items()), r.best_cost,
                        list(r.final_state.task_to_proc.items()), r.final_cost,
                        r.n_iterations, r.n_proposals, r.n_accepted))
    return results


def _time_walks(bag, repeats=5):
    """Best-of-*repeats* seconds of both walks over *bag*, interleaved."""
    best = {_array_walk: float("inf"), _single_idle_walk: float("inf")}
    for _ in range(repeats):
        for walk in best:
            t0 = time.perf_counter()
            _walk_bag(walk, bag)
            best[walk] = min(best[walk], time.perf_counter() - t0)
    return best[_array_walk], best[_single_idle_walk]


def _anneal_all(annealer: PacketAnnealer, packets, machine):
    return [annealer.anneal(p, machine, rng=i) for i, p in enumerate(packets)]


def _time_bag(annealer, packets, machine, repeats=1):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _anneal_all(annealer, packets, machine)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.benchmark(group="sa")
def test_sa_annealing_tiers_speedup(benchmark, save_artifact):
    machine = Machine.hypercube(3)
    packets = _packet_bag()
    reference = PacketAnnealer(SAConfig(seed=0, compiled=False))
    array = PacketAnnealer(SAConfig(seed=0))
    batched = PacketAnnealer(SAConfig(seed=0, replicas=N_REPLICAS))

    # Equivalence: both single-chain tiers replay the same walk.
    ref_out = _anneal_all(reference, packets, machine)
    arr_out = _anneal_all(array, packets, machine)
    assert [o.assignment for o in ref_out] == [o.assignment for o in arr_out]
    assert [o.best_cost for o in ref_out] == [o.best_cost for o in arr_out]
    assert [o.n_accepted for o in ref_out] == [o.n_accepted for o in arr_out]

    # Batched determinism: same seed + same B => same winners, bit for bit.
    bat_out = _anneal_all(batched, packets, machine)
    bat_out2 = _anneal_all(batched, packets, machine)
    assert [o.assignment for o in bat_out] == [o.assignment for o in bat_out2]
    assert [o.best_replica for o in bat_out] == [o.best_replica for o in bat_out2]
    # The winner achieves the minimum over its own replica set.  (The
    # replicas walk *child* streams, not the single chain's stream, so the
    # batched minimum is not comparable to the single-chain cost.)
    assert all(
        o.best_cost == min(s.best_cost for s in o.replica_stats) for o in bat_out
    )

    # Timed passes (the bags above doubled as warm-up).
    t_reference = _time_bag(reference, packets, machine)
    t_array = _time_bag(array, packets, machine, repeats=3)
    t_batched = _time_bag(batched, packets, machine, repeats=2)
    t_per_replica = t_batched / N_REPLICAS
    single_speedup = t_reference / t_array
    batched_speedup = t_reference / t_per_replica

    # The single-idle walk against the array walk on one-idle packets.
    idle_bag = _single_idle_bag(machine)
    oracle = _walk_bag(_array_walk, idle_bag)
    assert _walk_bag(_single_idle_walk, idle_bag) == oracle, "single-idle walk diverged"
    n_idle_proposals = sum(r[5] for r in oracle)
    t_idle_array, t_idle_single = _time_walks(idle_bag)
    single_idle_speedup = t_idle_array / t_idle_single

    # End-to-end: SA over the 200-task dag200 sweep family, object engine vs
    # the fast engine driving SA through its index-space fast_assign.
    graph = GRAPH_FAMILIES["dag200"](0)
    t0 = time.perf_counter()
    slow = simulate(graph, machine, SAScheduler(SAConfig.paper_defaults(seed=0)),
                    comm_model=LinearCommModel(), record_trace=False, fast=False)
    t_e2e_object = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast = simulate(graph, machine, SAScheduler(SAConfig.paper_defaults(seed=0)),
                    comm_model=LinearCommModel(), record_trace=False, fast=True)
    t_e2e_fast = time.perf_counter() - t0
    assert fast.fingerprint() == slow.fingerprint(), "SA fast path diverged"
    assert fast.n_fallback_epochs == 0, "SA fell back to the materialized context"

    payload = {
        "benchmark": "bench_sa",
        "scenario": {
            "bag": "30 packets: 20 x (15 ready, 4 idle) + 10 x (30 ready, 8 idle), "
                   "hypercube8, eq-4 comm",
            "batched": f"{N_REPLICAS} replicas per packet stepped as array-walk "
                       "lanes (per-replica child RNG streams)",
            "e2e": "SA over dag200 (200 tasks), object engine vs fast engine",
            "single_idle": "30 packets x (220 ready, 1 idle), hypercube8, eq-4 comm: "
                           "single-idle walk vs array walk, driven alike",
        },
        "tiers_ms": {
            "reference": round(t_reference * 1e3, 1),
            "array": round(t_array * 1e3, 1),
            "batched_total": round(t_batched * 1e3, 1),
            "batched_per_replica": round(t_per_replica * 1e3, 2),
        },
        "single_chain_speedup": round(single_speedup, 2),
        "batched_per_replica_speedup": round(batched_speedup, 2),
        "n_replicas": N_REPLICAS,
        "single_idle_ms": {
            "array_walk": round(t_idle_array * 1e3, 1),
            "single_idle_walk": round(t_idle_single * 1e3, 1),
        },
        "single_idle_proposals": n_idle_proposals,
        "single_idle_speedup": round(single_idle_speedup, 2),
        "e2e_dag200_ms": {
            "object": round(t_e2e_object * 1e3, 1),
            "fast": round(t_e2e_fast * 1e3, 1),
            "speedup": round(t_e2e_object / t_e2e_fast, 2),
            "fallback_epochs": fast.n_fallback_epochs,
        },
        "min_single_speedup_asserted": MIN_SINGLE_SPEEDUP,
        "min_batched_speedup_asserted": MIN_BATCHED_SPEEDUP,
        "min_single_idle_speedup_asserted": MIN_SINGLE_IDLE_SPEEDUP,
    }
    _update_bench_json(payload)

    lines = [
        "SA annealing benchmark: walk tiers + multi-replica lanes",
        payload["scenario"]["bag"],
        "",
        f"{'tier':<22} {'time':>12} {'vs reference':>13}",
        f"{'reference':<22} {t_reference * 1e3:>10.1f}ms {'1.00x':>13}",
        f"{'array walk':<22} {t_array * 1e3:>10.1f}ms {single_speedup:>12.2f}x",
        f"{'batched (per replica)':<22} {t_per_replica * 1e3:>10.2f}ms {batched_speedup:>12.2f}x",
        "",
        f"batched total: {t_batched * 1e3:.0f}ms for {N_REPLICAS} replicas x 30 packets",
        "",
        payload["scenario"]["single_idle"],
        f"{'array walk':<22} {t_idle_array * 1e3:>10.1f}ms {'1.00x':>13}",
        f"{'single-idle walk':<22} {t_idle_single * 1e3:>10.1f}ms "
        f"{single_idle_speedup:>12.2f}x",
        "",
        f"SA dag200 end-to-end: {payload['e2e_dag200_ms']['object']:.0f}ms object -> "
        f"{payload['e2e_dag200_ms']['fast']:.0f}ms fast "
        f"({payload['e2e_dag200_ms']['speedup']:.2f}x, "
        f"{fast.n_fallback_epochs} fallback epochs)",
    ]
    save_artifact("sa_speedup", "\n".join(lines))
    print("\n" + "\n".join(lines))

    assert single_speedup >= MIN_SINGLE_SPEEDUP, (
        f"array-walk speedup regressed: {single_speedup:.2f}x "
        f"(floor {MIN_SINGLE_SPEEDUP}x); see BENCH_sa.json"
    )
    assert batched_speedup >= MIN_BATCHED_SPEEDUP, (
        f"batched per-replica speedup regressed: {batched_speedup:.2f}x "
        f"(floor {MIN_BATCHED_SPEEDUP}x); see BENCH_sa.json"
    )
    assert single_idle_speedup >= MIN_SINGLE_IDLE_SPEEDUP, (
        f"single-idle walk speedup regressed: {single_idle_speedup:.2f}x "
        f"(floor {MIN_SINGLE_IDLE_SPEEDUP}x); see BENCH_sa.json"
    )

    # pytest-benchmark timing: the array-walk bag (one repetition).
    benchmark(lambda: _anneal_all(array, packets, machine))


@pytest.mark.benchmark(group="sa")
def test_sa_portfolio_quality(benchmark, save_artifact):
    """Anytime portfolio vs fixed-B multi-start at the matched draw budget."""
    machine = Machine.hypercube(3)
    families = ("dag200", "mapreduce-1k", "gridcat-1k")
    per_family = {}
    for family in families:
        graph = GRAPH_FAMILIES[family](0)
        measured = {}
        for label, scheduler in (
            ("fixed", SAScheduler(SAConfig.paper_defaults(seed=0)).with_replicas(
                PORTFOLIO_LANES
            )),
            ("portfolio", SAScheduler(
                SAConfig.paper_defaults(seed=0)
            ).with_portfolio(PORTFOLIO_LANES)),
        ):
            t0 = time.perf_counter()
            result = simulate(
                graph, machine, scheduler,
                comm_model=LinearCommModel(), record_trace=False,
            )
            elapsed = time.perf_counter() - t0
            snapshot = scheduler.best_so_far(include_assignment=False)
            measured[label] = {
                "makespan": result.makespan,
                "total_improvement": snapshot["total_improvement"],
                "n_packets": snapshot["n_packets"],
                "wall_ms": round(elapsed * 1e3, 1),
            }
        fixed = measured["fixed"]["total_improvement"]
        portfolio = measured["portfolio"]["total_improvement"]
        assert fixed > 0 and portfolio > 0, (
            f"{family}: degenerate run (improvements {fixed} / {portfolio})"
        )
        per_family[family] = {
            "quality": round(portfolio / fixed, 3),
            "fixed": measured["fixed"],
            "portfolio": measured["portfolio"],
        }

    quality_min = min(entry["quality"] for entry in per_family.values())

    _update_bench_json({
        "benchmark": "bench_sa",
        "portfolio_quality": {
            family: entry["quality"] for family, entry in per_family.items()
        },
        "portfolio_quality_detail": per_family,
        "portfolio_quality_min": quality_min,
        "portfolio_lanes": PORTFOLIO_LANES,
        "min_portfolio_quality_asserted": MIN_PORTFOLIO_QUALITY,
    })

    lines = [
        "SA anytime portfolio vs fixed-B multi-start "
        f"(matched budget, {PORTFOLIO_LANES} lanes vs {PORTFOLIO_LANES} replicas)",
        "quality = portfolio total cost improvement / fixed total cost improvement",
        "",
        f"{'family':<14} {'quality':>8} {'fixed impr':>11} {'portfolio impr':>15}",
    ]
    for family, entry in per_family.items():
        lines.append(
            f"{family:<14} {entry['quality']:>7.2f}x "
            f"{entry['fixed']['total_improvement']:>11.2f} "
            f"{entry['portfolio']['total_improvement']:>15.2f}"
        )
    lines.append("")
    lines.append(f"worst-family quality: {quality_min:.2f}x "
                 f"(floor {MIN_PORTFOLIO_QUALITY}x)")
    save_artifact("sa_portfolio_quality", "\n".join(lines))
    print("\n" + "\n".join(lines))

    assert quality_min >= MIN_PORTFOLIO_QUALITY, (
        f"portfolio quality regressed: {quality_min:.2f}x "
        f"(floor {MIN_PORTFOLIO_QUALITY}x); see BENCH_sa.json"
    )

    # pytest-benchmark timing: one portfolio-raced dag200 run.
    benchmark.pedantic(
        lambda: simulate(
            GRAPH_FAMILIES["dag200"](0), machine,
            SAScheduler(SAConfig.paper_defaults(seed=0)).with_portfolio(
                PORTFOLIO_LANES
            ),
            comm_model=LinearCommModel(), record_trace=False,
        ),
        rounds=1, iterations=1,
    )
