"""Microbenchmark: the packet-annealing hot path, compiled vs reference.

The compiled packet kernel replaces per-proposal ``comm_model.cost()`` calls
with precomputed dense tables, and the array walk anneals over them with
randomness read from blocks of raw words drawn in bulk
(:func:`repro.core.array_annealer.anneal_array`).  This benchmark anneals a
fixed bag of synthetic packets through both paths, asserts they commit
identical mappings (same seed → same stream → same moves), and reports the
speedup.  The CI assertion is deliberately loose
(≥ 3×) to tolerate noisy shared runners; typical speedups are 5–8×.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.config import SAConfig
from repro.core.packet import AnnealingPacket
from repro.core.packet_annealer import PacketAnnealer
from repro.machine.machine import Machine


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


def _anneal_all(annealer: PacketAnnealer, packets, machine):
    return [annealer.anneal(p, machine, rng=i).assignment for i, p in enumerate(packets)]


@pytest.mark.benchmark(group="kernel")
def test_packet_kernel_speedup(benchmark, save_artifact):
    machine = Machine.hypercube(3)
    packets = [_make_packet(15, 4, s) for s in range(20)] + [
        _make_packet(30, 8, s) for s in range(10)
    ]
    compiled = PacketAnnealer(SAConfig(seed=0))
    reference = PacketAnnealer(SAConfig(seed=0, compiled=False))

    # Warm-up + equivalence: the kernel must replay the reference bit for bit.
    fast = _anneal_all(compiled, packets, machine)
    slow = _anneal_all(reference, packets, machine)
    assert fast == slow

    t0 = time.perf_counter()
    _anneal_all(reference, packets, machine)
    t_reference = time.perf_counter() - t0

    def run_compiled():
        return _anneal_all(compiled, packets, machine)

    benchmark.pedantic(run_compiled, rounds=3, iterations=1)
    # benchmark.stats is None under --benchmark-disable (CI smoke runs).
    stats = getattr(benchmark, "stats", None)
    t_compiled = stats["min"] if stats else None
    if not t_compiled:
        t0 = time.perf_counter()
        run_compiled()
        t_compiled = time.perf_counter() - t0
    speedup = t_reference / t_compiled

    text = (
        f"packet-annealing hot path over {len(packets)} packets\n"
        f"reference (per-call costs): {t_reference * 1e3:8.1f} ms\n"
        f"compiled kernel:            {t_compiled * 1e3:8.1f} ms\n"
        f"speedup:                    {speedup:8.2f}x\n"
    )
    save_artifact("kernel_speedup", text)
    print("\n" + text)
    assert speedup >= 3.0, f"kernel speedup regressed: {speedup:.2f}x"
