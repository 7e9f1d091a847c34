"""The array-native annealing walks: equivalence, batching, SA fast path.

Six contracts are pinned here:

* the single-chain array walk (``SAConfig(walk="array")``, the default)
  replays the kernel walk (``walk="kernel"``) and the reference path
  (``compiled=False``) **bit for bit** — identical accepted-move counts,
  costs and committed assignments — on synthetic packets over homogeneous
  and heterogeneous machines (hypothesis + fixed cases; the 24 golden
  Table-2 cells and both random-graph fixtures pin the same walk end-to-end
  through ``tests/test_golden_trace.py`` and ``tests/test_fast_engine.py``,
  which run the default config);
* the stepped lanes of ``anneal_replicas_batched`` return, for every
  replica, exactly the result of a scalar single-chain walk on that
  replica's child stream, each lane's trajectory is the ``(temperature,
  cost)`` sequence that walk feeds its stopping rule, and fixed ``(seed,
  B)`` runs are deterministic with ``B = 1`` matching the single chain;
* the single-idle walk, which both drivers select for packets with one
  idle processor, replays ``_array_walk`` (the oracle) sample for sample,
  result for result and raw word for raw word, and its pre-indexed task
  draws decode to numpy's own ``integers(0, n)``, rejection loop included;
* :func:`~repro.core.array_annealer.compile_fast_packet`, through SA's
  run-long row cache, builds kernels — and, for one-idle epochs, one-slot
  columns and ranges — bit-identical to the cold
  :class:`~repro.core.kernel.PacketKernel` of each epoch's materialized
  context, so SA's ``fast_assign`` commits the same mappings as the
  fallback it replaces (and the fast engine reports zero fallback epochs
  for SA); the cache never outlives its run;
* the single chain anneals a one-slot lowering directly, with the outcome,
  RNG consumption and whole-run results of annealing its kernel, and
  builds a kernel only for wider epochs (replica lanes still get one);
* the ``replicas=`` knob threads through ``SAConfig`` → ``SAScheduler`` →
  ``simulate`` → sweep specs.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.array_annealer as array_annealer_module
import repro.core.packet_annealer as packet_annealer_module
import repro.core.sa_scheduler as sa_scheduler_module
from repro.annealing.cooling import GeometricCooling, LinearCooling
from repro.annealing.replicas import ReplicaStats, best_replica_index, summarize_replicas
from repro.annealing.stopping import StoppingRule
from repro.comm.model import LinearCommModel, ZeroCommModel
from repro.core.array_annealer import (
    OneSlotPacket,
    ReadyRowCache,
    _array_walk,
    _draw_block,
    _finish,
    _lemire_retry,
    _one_slot_walk,
    _single_idle_walk,
    _task_indices,
    _walk_for,
    anneal_array,
    anneal_replicas_batched,
    anneal_replicas_scalar,
    compile_fast_packet,
)
from repro.core.config import SAConfig
from repro.core.cost import PacketCostFunction
from repro.core.kernel import PacketKernel
from repro.core.packet import AnnealingPacket
from repro.core.packet_annealer import (
    PacketAnnealer,
    PacketMappingProblem,
    _anneal_indexed,
    _split_rng,
)
from repro.core.sa_scheduler import SAScheduler
from repro.exceptions import ConfigurationError, SimulationError
from repro.machine.machine import Machine
from repro.schedulers.base import PacketContext, SchedulingPolicy
from repro.schedulers.hlf import HLFScheduler
from repro.sim.compile import FastPacket, compile_scenario
from repro.sim.engine import simulate
from repro.sim.fast_engine import run_lanes
from repro.taskgraph.families import build_family
from repro.taskgraph.generators import layered_random, random_dag
from repro.taskgraph.graph import TaskGraph
from repro.utils.rng import as_rng, split

# --------------------------------------------------------------------------- #
# Fixtures and strategies
# --------------------------------------------------------------------------- #


def _make_packet(n_ready: int, n_idle: int, seed: int, n_procs: int = 8) -> AnnealingPacket:
    rng = np.random.default_rng(seed)
    tasks = tuple(f"t{i}" for i in range(n_ready))
    levels = {t: float(rng.uniform(1, 100)) for t in tasks}
    placement = {
        t: tuple(
            (f"p{t}{k}", int(rng.integers(0, n_procs)), float(rng.uniform(0, 20)))
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


def _hetero_machine(seed: int) -> Machine:
    rng = np.random.default_rng(seed)
    speeds = rng.uniform(0.5, 4.0, 8).tolist()
    topology = Machine.hypercube(3).topology
    link_weights = {
        tuple(sorted(l)): float(rng.uniform(0.5, 3.0)) for l in topology.links()
    }
    return Machine.hypercube(3, speeds=speeds, link_weights=link_weights)


_MACHINES = {
    "hom": lambda seed: Machine.hypercube(3),
    "het": _hetero_machine,
}

_SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _outcome_key(outcome):
    return (
        outcome.assignment,
        outcome.best_cost,
        outcome.initial_cost,
        outcome.n_proposals,
        outcome.n_accepted,
        outcome.n_temperature_steps,
    )


def _result_key(result):
    return (
        list(result.best_state.task_to_proc.items()),  # values AND insertion order
        result.best_cost,
        list(result.final_state.task_to_proc.items()),
        result.final_cost,
        result.n_iterations,
        result.n_proposals,
        result.n_accepted,
    )


# --------------------------------------------------------------------------- #
# Single-chain equivalence: array walk vs kernel walk vs reference
# --------------------------------------------------------------------------- #


class TestSingleChainEquivalence:
    def test_default_walk_is_array(self):
        """The golden suites run the default config, so they pin this walk."""
        assert SAConfig().walk == "array"

    @given(
        n_ready=st.integers(1, 24),
        n_idle=st.integers(1, 8),
        seed=st.integers(0, 10_000),
        machine_kind=st.sampled_from(sorted(_MACHINES)),
        comm_off=st.booleans(),
    )
    @_SETTINGS
    def test_all_three_tiers_commit_identical_walks(
        self, n_ready, n_idle, seed, machine_kind, comm_off
    ):
        packet = _make_packet(n_ready, n_idle, seed)
        machine = _MACHINES[machine_kind](seed)
        comm_model = ZeroCommModel() if comm_off else LinearCommModel()
        outcomes = [
            PacketAnnealer(cfg).anneal(packet, machine, comm_model=comm_model, rng=seed)
            for cfg in (
                SAConfig(seed=0),  # array (default)
                SAConfig(seed=0, walk="kernel"),
                SAConfig(seed=0, compiled=False),
            )
        ]
        assert _outcome_key(outcomes[0]) == _outcome_key(outcomes[1])
        assert _outcome_key(outcomes[0]) == _outcome_key(outcomes[2])

    @pytest.mark.parametrize("machine_kind", sorted(_MACHINES))
    @pytest.mark.parametrize("initial_mapping", ["hlf", "random", "empty"])
    def test_walk_level_results_identical_including_order(
        self, machine_kind, initial_mapping
    ):
        """anneal_array vs _anneal_indexed: full AnnealingResult equality,
        including the dict-insertion order of the committed mappings (which
        the drop-victim draw and the resync sums depend on)."""
        for seed in range(6):
            packet = _make_packet(12 + seed, 3 + seed % 5, seed)
            machine = _MACHINES[machine_kind](seed)
            cfg = SAConfig(seed=0, initial_mapping=initial_mapping)
            kernel = PacketCostFunction(packet, machine).kernel
            problem = PacketMappingProblem(
                kernel.index_packet(), kernel, initial_mapping=initial_mapping
            )
            annealer = PacketAnnealer(cfg)._build_annealer(packet)
            res_a = anneal_array(kernel, problem, annealer, np.random.default_rng(seed))
            res_k = _anneal_indexed(kernel, problem, annealer, np.random.default_rng(seed))
            assert _result_key(res_a) == _result_key(res_k)

    def test_degenerate_packets(self, hypercube8):
        for n_ready, n_idle in [(1, 1), (1, 8), (8, 1), (2, 2)]:
            packet = _make_packet(n_ready, n_idle, 3)
            a = PacketAnnealer(SAConfig(seed=0)).anneal(packet, hypercube8, rng=7)
            k = PacketAnnealer(SAConfig(seed=0, walk="kernel")).anneal(
                packet, hypercube8, rng=7
            )
            assert _outcome_key(a) == _outcome_key(k)

    def test_non_sigmoid_acceptance_falls_back_to_kernel_walk(self, hypercube8):
        """The array walk requires the sigmoid rule; Metropolis configs must
        still work (via the kernel walk) and match the reference."""
        from repro.annealing.acceptance import MetropolisAcceptance

        packet = _make_packet(10, 4, 0)
        fast = PacketAnnealer(SAConfig(seed=0, acceptance=MetropolisAcceptance()))
        slow = PacketAnnealer(
            SAConfig(seed=0, acceptance=MetropolisAcceptance(), compiled=False)
        )
        assert _outcome_key(fast.anneal(packet, hypercube8, rng=5)) == _outcome_key(
            slow.anneal(packet, hypercube8, rng=5)
        )

    def test_anneal_array_rejects_non_sigmoid(self, hypercube8):
        from repro.annealing.acceptance import GreedyAcceptance

        packet = _make_packet(4, 2, 0)
        kernel = PacketCostFunction(packet, hypercube8).kernel
        problem = PacketMappingProblem(kernel.index_packet(), kernel)
        annealer = PacketAnnealer(SAConfig(seed=0))._build_annealer(packet)
        annealer.acceptance = GreedyAcceptance()
        with pytest.raises(ValueError, match="Sigmoid"):
            anneal_array(kernel, problem, annealer, np.random.default_rng(0))


# --------------------------------------------------------------------------- #
# Multi-lane annealing: stepped lanes
# --------------------------------------------------------------------------- #


def _prepped_run_rngs(problem, parent_seed: int, n: int):
    """Replicate the per-replica prologue of the annealer: split the parent,
    burn the seed-mapping draw of each child, return the walk generators."""
    runs = []
    for child in split(np.random.default_rng(parent_seed), n):
        seed_rng, run_rng = _split_rng(child)
        problem.cost(problem.initial_state(seed_rng))
        runs.append(as_rng(run_rng))
    return runs


class _RecordingStopping(StoppingRule):
    """Delegates to *inner*, recording the (temperature, cost) of every step."""

    def __init__(self, inner: StoppingRule, cooling, t0: float) -> None:
        self.inner = inner
        self.cooling = cooling
        self.t0 = t0
        self.seen = []

    def reset(self) -> None:
        self.inner.reset()
        self.seen = []

    def should_stop(self, iteration: int, cost: float) -> bool:
        self.seen.append((self.cooling.temperature(iteration, self.t0), cost))
        return self.inner.should_stop(iteration, cost)


def _recorded_solo_walk(kernel, problem, packet, rng, t0=1.0):
    """A solo anneal_array walk and the samples its stopping rule saw."""
    annealer = PacketAnnealer(SAConfig(seed=0))._build_annealer(packet)
    annealer.initial_temperature = t0
    lane_t0 = problem.initial_temperature(None) if t0 is None else t0
    recorder = annealer.stopping = _RecordingStopping(
        annealer.stopping, annealer.cooling, lane_t0
    )
    return anneal_array(kernel, problem, annealer, rng), recorder.seen


class TestBatchedReplicas:
    @pytest.mark.parametrize("machine_kind", sorted(_MACHINES))
    @pytest.mark.parametrize("n_replicas", [1, 3, 8])
    def test_batched_equals_scalar_replicas(self, machine_kind, n_replicas):
        """The core contract: lane b of a batched run is bit-identical to a
        scalar single-chain walk on child stream b (B=1 included)."""
        for seed in range(4):
            packet = _make_packet(10 + 3 * seed, 2 + seed, seed)
            machine = _MACHINES[machine_kind](seed)
            kernel = PacketCostFunction(packet, machine).kernel
            problem = PacketMappingProblem(kernel.index_packet(), kernel)
            annealer = PacketAnnealer(SAConfig(seed=0))._build_annealer(packet)
            batched, trajs = anneal_replicas_batched(
                kernel, problem, annealer, _prepped_run_rngs(problem, seed, n_replicas)
            )
            scalar, _ = anneal_replicas_scalar(
                kernel, problem, annealer, _prepped_run_rngs(problem, seed, n_replicas)
            )
            assert [_result_key(r) for r in batched] == [_result_key(r) for r in scalar]
            # One (temperature, cost) sample per executed temperature step.
            assert [len(t) for t in trajs] == [r.n_iterations for r in batched]

    def test_lane_trajectory_is_what_the_solo_walk_stops_on(self):
        """Lane b's samples are the (temperature, cost) pairs a solo
        anneal_array walk on child b hands its stopping rule, step by step."""
        for seed in range(3):
            packet = _make_packet(12 + 4 * seed, 3 + seed, seed)
            kernel = PacketCostFunction(packet, _hetero_machine(seed)).kernel
            problem = PacketMappingProblem(kernel.index_packet(), kernel)
            annealer = PacketAnnealer(SAConfig(seed=0))._build_annealer(packet)
            results, trajs = anneal_replicas_batched(
                kernel, problem, annealer, _prepped_run_rngs(problem, seed, 4)
            )
            for b, rng in enumerate(_prepped_run_rngs(problem, seed, 4)):
                solo, seen = _recorded_solo_walk(kernel, problem, packet, rng)
                assert trajs[b] == seen, f"seed {seed} lane {b}"
                assert _result_key(results[b]) == _result_key(solo)

    def test_single_lane_equals_anneal_array(self, hypercube8):
        for seed in range(4):
            packet = _make_packet(9 + seed, 2 + seed, seed)
            kernel = PacketCostFunction(packet, hypercube8).kernel
            problem = PacketMappingProblem(kernel.index_packet(), kernel)
            annealer = PacketAnnealer(SAConfig(seed=0))._build_annealer(packet)
            (lane,), (traj,) = anneal_replicas_batched(
                kernel, problem, annealer, [np.random.default_rng(seed)]
            )
            solo = anneal_array(kernel, problem, annealer, np.random.default_rng(seed))
            assert _result_key(lane) == _result_key(solo)
            assert len(traj) == solo.n_iterations

    @pytest.mark.parametrize("n_ready,n_idle,t0", [
        (0, 3, 1.0), (5, 0, 1.0), (0, 0, 1.0), (7, 3, None), (0, 2, None),
    ])
    def test_degenerate_and_problem_t0_lanes_take_the_stepped_path(
        self, hypercube8, n_ready, n_idle, t0
    ):
        """Packets with nothing to place or nowhere to place it, and
        annealers that ask the problem for t0, still get one trajectory
        sample per step (the scalar reference records none)."""
        packet = _make_packet(n_ready, n_idle, 5)
        kernel = PacketCostFunction(packet, hypercube8).kernel
        problem = PacketMappingProblem(kernel.index_packet(), kernel)
        annealer = PacketAnnealer(SAConfig(seed=0))._build_annealer(packet)
        annealer.initial_temperature = t0
        results, trajs = anneal_replicas_batched(
            kernel, problem, annealer, _prepped_run_rngs(problem, 2, 3)
        )
        _, scalar_trajs = anneal_replicas_scalar(
            kernel, problem, annealer, _prepped_run_rngs(problem, 2, 3)
        )
        assert scalar_trajs == [[], [], []]
        for b, rng in enumerate(_prepped_run_rngs(problem, 2, 3)):
            solo, seen = _recorded_solo_walk(kernel, problem, packet, rng, t0)
            assert _result_key(results[b]) == _result_key(solo)
            assert trajs[b] == seen
            assert len(trajs[b]) == results[b].n_iterations > 0

    def test_batched_outcome_deterministic(self, hypercube8):
        packet = _make_packet(14, 5, 1)
        first = PacketAnnealer(SAConfig(seed=0, replicas=6)).anneal(
            packet, hypercube8, rng=11
        )
        second = PacketAnnealer(SAConfig(seed=0, replicas=6)).anneal(
            packet, hypercube8, rng=11
        )
        assert first.assignment == second.assignment
        assert first.best_replica == second.best_replica
        assert first.best_cost == second.best_cost
        assert [s.best_cost for s in first.replica_stats] == [
            s.best_cost for s in second.replica_stats
        ]

    def test_replica_stats_shape_and_winner(self, hypercube8):
        packet = _make_packet(12, 4, 2)
        outcome = PacketAnnealer(SAConfig(seed=0, replicas=5)).anneal(
            packet, hypercube8, rng=3
        )
        stats = outcome.replica_stats
        assert len(stats) == 5
        assert [s.replica for s in stats] == list(range(5))
        costs = [s.best_cost for s in stats]
        assert outcome.best_replica == best_replica_index(costs)
        assert outcome.best_cost == costs[outcome.best_replica]
        assert outcome.best_cost == min(costs)
        # Totals across replicas; the winner's temperature count.
        assert outcome.n_proposals == sum(s.n_proposals for s in stats)
        assert outcome.n_accepted == sum(s.n_accepted for s in stats)
        winner = stats[outcome.best_replica]
        assert outcome.n_temperature_steps == winner.n_temperature_steps
        assert len(winner.temperature_trajectory) == winner.n_temperature_steps
        # The walk cools monotonically; every sample carries a temperature.
        temps = [t for t, _ in winner.temperature_trajectory]
        assert temps == sorted(temps, reverse=True)
        summary = summarize_replicas(stats)
        assert summary["min_best_cost"] == outcome.best_cost
        assert summary["n_replicas"] == 5.0

    def test_multi_start_never_worse_than_single_chain(self, hypercube8):
        """Replica 0's chain is one of the B chains, so min over replicas can
        only improve on... a *different* stream than the single chain — so
        compare against the scalar replicas instead: the winner must achieve
        the minimum over its own replica set."""
        packet = _make_packet(16, 6, 4)
        outcome = PacketAnnealer(SAConfig(seed=0, replicas=7)).anneal(
            packet, hypercube8, rng=9
        )
        assert outcome.best_cost == min(s.best_cost for s in outcome.replica_stats)

    def test_reference_path_replicas_match_compiled_winner_selection(self, hypercube8):
        """compiled=False with replicas runs scalar chains per child; the
        per-replica best costs (and hence the winner) must match the compiled
        batched run on the same packet rng."""
        packet = _make_packet(9, 3, 5)
        fast = PacketAnnealer(SAConfig(seed=0, replicas=4)).anneal(
            packet, hypercube8, rng=21
        )
        slow = PacketAnnealer(SAConfig(seed=0, replicas=4, compiled=False)).anneal(
            packet, hypercube8, rng=21
        )
        assert fast.assignment == slow.assignment
        assert fast.best_replica == slow.best_replica
        assert [s.best_cost for s in fast.replica_stats] == [
            s.best_cost for s in slow.replica_stats
        ]

    def test_best_replica_index_tie_breaks_low(self):
        assert best_replica_index([2.0, 1.0, 1.0, 3.0]) == 1
        assert best_replica_index([5.0]) == 0
        with pytest.raises(ValueError):
            best_replica_index([])

    def test_summarize_replicas_single(self):
        stats = [ReplicaStats(0, 1.5, 2.0, 1.5, 10, 5, 3)]
        summary = summarize_replicas(stats)
        assert summary["std_best_cost"] == 0.0
        assert summary["spread"] == 0.0


# --------------------------------------------------------------------------- #
# The single-idle walk against _array_walk as the oracle
# --------------------------------------------------------------------------- #


def _single_idle_setup(n_ready, seed, machine_kind="hom", comm_off=False,
                       initial_mapping="hlf"):
    packet = _make_packet(n_ready, 1, seed)
    comm_model = ZeroCommModel() if comm_off else LinearCommModel()
    kernel = PacketCostFunction(
        packet, _MACHINES[machine_kind](seed), comm_model=comm_model
    ).kernel
    problem = PacketMappingProblem(
        kernel.index_packet(), kernel, initial_mapping=initial_mapping
    )
    annealer = PacketAnnealer(SAConfig(seed=0))._build_annealer(packet)
    return kernel, problem, annealer


def _drive(walk, kernel, problem, annealer, rng, cooling, t0, steps, tolerance):
    """Every (temperature, cost) a walk yields over *steps* steps, its result
    key and the generator state it leaves behind."""
    if tolerance is None:
        tolerance = annealer.resync_tolerance
    gen = walk(kernel, problem, rng, annealer.moves_per_temperature,
               tolerance, cooling, t0)
    samples = [next(gen) for _ in range(steps)]
    return samples, _result_key(_finish(gen)), rng.bit_generator.state


#: (cooling, t0, steps, resync tolerance): the paper's geometric schedule,
#: the same with every rounding drift resynced, a linear one that reaches
#: T = 0 half-way, an infinite start and the problem's own t0.
_SCHEDULES = [
    (GeometricCooling(alpha=0.9), 1.0, 30, None),
    (GeometricCooling(alpha=0.9), 1.0, 30, 0.0),
    (LinearCooling(step=0.25), 1.0, 8, None),
    (GeometricCooling(alpha=0.9), math.inf, 4, None),
    (GeometricCooling(alpha=0.9), None, 12, None),
]


def _rng_with_buffered_half(seed):
    rng = np.random.default_rng(seed)
    rng.integers(0, 10)  # leaves the high half of a word buffered
    assert rng.bit_generator.state["has_uint32"]
    return rng


def _assert_walks_agree(kernel, problem, annealer, make_rng):
    assert _walk_for(kernel) is _single_idle_walk
    for cooling, t0, steps, tolerance in _SCHEDULES:
        oracle = _drive(_array_walk, kernel, problem, annealer, make_rng(),
                        cooling, t0, steps, tolerance)
        fast = _drive(_single_idle_walk, kernel, problem, annealer, make_rng(),
                      cooling, t0, steps, tolerance)
        assert fast[0] == oracle[0], f"samples differ (t0={t0})"
        assert fast[1] == oracle[1], f"results differ (t0={t0})"
        assert fast[2] == oracle[2], f"raw words drawn differ (t0={t0})"


class TestSingleIdleWalk:
    @pytest.mark.parametrize("initial_mapping", ["hlf", "random", "empty"])
    @pytest.mark.parametrize("n_ready", [1, 2, 3, 64, 300])
    def test_replays_the_array_walk(self, n_ready, initial_mapping):
        for seed, (machine_kind, comm_off) in enumerate(
            [("hom", False), ("hom", True), ("het", False), ("het", True)]
        ):
            kernel, problem, annealer = _single_idle_setup(
                n_ready, seed, machine_kind, comm_off, initial_mapping
            )
            _assert_walks_agree(
                kernel, problem, annealer, lambda: np.random.default_rng(seed)
            )

    def test_buffered_half_word_is_the_first_task_draw(self):
        kernel, problem, annealer = _single_idle_setup(40, 3)
        _assert_walks_agree(
            kernel, problem, annealer, lambda: _rng_with_buffered_half(5)
        )

    def test_every_draw_through_the_rejection_path(self, monkeypatch):
        """Mark every half as failing the fast test: the walk settles each
        draw in _lemire_retry and must still replay the oracle."""
        monkeypatch.setattr(
            array_annealer_module, "_task_indices",
            lambda halves, n: -1 - halves.view(np.int64),
        )
        kernel, problem, annealer = _single_idle_setup(64, 2, "het")
        _assert_walks_agree(
            kernel, problem, annealer, lambda: _rng_with_buffered_half(9)
        )

    @pytest.mark.parametrize("n_ready,n_idle,walk", [
        (1, 1, "single"), (220, 1, "single"), (0, 1, "array"),
        (5, 2, "array"), (3, 0, "array"), (0, 0, "array"),
    ])
    def test_selected_for_one_idle_processor_and_a_ready_task(
        self, hypercube8, n_ready, n_idle, walk
    ):
        kernel = PacketCostFunction(_make_packet(n_ready, n_idle, 0), hypercube8).kernel
        expected = _single_idle_walk if walk == "single" else _array_walk
        assert _walk_for(kernel) is expected

    @pytest.mark.parametrize("lanes", ["replicas", "portfolio"])
    def test_lanes_equal_lanes_stepped_through_the_array_walk(
        self, lanes, monkeypatch
    ):
        """anneal_replicas_batched picks the single-idle walk per lane; its
        results, trajectories and (portfolio) racing equal lanes that step
        _array_walk."""
        for seed in range(3):
            packet = _make_packet(30 + 20 * seed, 1, seed)
            kernel = PacketCostFunction(packet, _hetero_machine(seed)).kernel
            cfg = SAConfig(seed=0, portfolio=8) if lanes == "portfolio" else SAConfig(seed=0)
            pa = PacketAnnealer(cfg)
            problem = PacketMappingProblem(kernel.index_packet(), kernel)

            def run():
                plan = pa.build_lane_plan(kernel) if lanes == "portfolio" else None
                results, trajs = anneal_replicas_batched(
                    kernel, problem, pa._build_annealer(packet),
                    _prepped_run_rngs(problem, seed, 8), plan=plan,
                )
                racing = None
                if plan is not None:
                    racing = (plan.budgets.tolist(), plan.controller.rungs)
                return [_result_key(r) for r in results], trajs, racing

            assert _walk_for(kernel) is _single_idle_walk
            fast = run()
            with monkeypatch.context() as patch:
                patch.setattr(array_annealer_module, "_walk_for", lambda k: _array_walk)
                oracle = run()
            assert fast == oracle
            if lanes == "portfolio":
                assert oracle[2][1], "no rung was raced; the check proves too little"


# --------------------------------------------------------------------------- #
# Pre-indexed task draws and the rare Lemire rejection path
# --------------------------------------------------------------------------- #


def _decode_task_draws(rng, n, count, block_words):
    """Decode *count* ``integers(0, n)`` draws the way the single-idle walk
    does: pre-indexed block entries, the buffered half first, and
    :func:`_lemire_retry` for entries that failed the fast test.  Refills
    here call this module's ``_draw_block`` import, not the module global
    :func:`_lemire_retry` looks up."""
    bitgen = rng.bit_generator
    state = bitgen.state
    half = None
    if state["has_uint32"]:
        half = int(_task_indices(np.array([state["uinteger"]], np.uint64), n)[0])
    block, pos, out, slow = ([], [], []), 0, [], 0
    for _ in range(count):
        if half is not None:
            entry, half = half, None
        else:
            if pos >= len(block[0]):
                block, pos = _draw_block(bitgen, block, pos, block_words, n), 0
            entry, half = block[1][pos], block[2][pos]
            pos += 1
        if entry < 0:
            slow += 1
            entry, half, pos, block = _lemire_retry(entry, n, half, pos, block, bitgen)
        out.append(entry)
    return out, slow


class TestPreIndexedDraws:
    @pytest.mark.parametrize("n", [3, 2**31 + 1, 2**32 - 1])
    def test_decoded_draws_equal_numpys_integers(self, n, monkeypatch):
        """n = 2**31 + 1 rejects about half of all draws and 2**32 - 1 fails
        the fast test almost always; single-word refills inside the rejection
        loop are counted through the module's _draw_block."""
        retry_refills = []

        def counted_draw_block(bitgen, block, pos, count, n):
            retry_refills.append(count)
            return _draw_block(bitgen, block, pos, count, n)

        monkeypatch.setattr(array_annealer_module, "_RAW_BLOCK", 1)
        monkeypatch.setattr(array_annealer_module, "_draw_block", counted_draw_block)
        reference = np.random.default_rng(11)
        rng = np.random.default_rng(11)
        reference.integers(0, n)
        rng.integers(0, n)  # a buffered half at the start
        got, slow = _decode_task_draws(rng, n, 400, 2)
        assert got == [int(reference.integers(0, n)) for _ in range(400)]
        assert all(0 <= x < n for x in got)
        if n == 3:
            assert slow == 0 and not retry_refills
        elif n == 2**31 + 1:
            assert retry_refills and set(retry_refills) == {1}
        else:
            assert slow > 390

    def test_entries_are_lemire_indices_or_encoded_slow_halves(self):
        halves = np.array([0, 1, 5, 2**31, 2**32 - 1], dtype=np.uint64)
        n = 3
        expected = []
        for u32 in halves.tolist():
            m = u32 * n
            expected.append(m >> 32 if m & 0xFFFFFFFF >= n else -(u32 + 1))
        assert _task_indices(halves, n).tolist() == expected
        # A zero draw fails the fast test and encodes as -1, never as "no half".
        assert expected[0] == -1

    def test_retry_accepts_at_the_threshold_and_rejects_below(self):
        """For n = 3 the threshold is 1: u32 = 0xAAAAAAAB leaves exactly 1 and
        is accepted; u32 = 0 leaves 0 and is rejected for the buffered half."""
        n = 3
        assert (4294967296 - n) % n == 1
        block = ([], [], [])
        bitgen = np.random.default_rng(0).bit_generator
        assert _lemire_retry(-(0xAAAAAAAB + 1), n, None, 0, block, bitgen) == (
            2, None, 0, block
        )
        assert _lemire_retry(-1, n, 1, 0, block, bitgen) == (1, None, 0, block)


# --------------------------------------------------------------------------- #
# compile_fast_packet: row-cached kernels == cold reference kernels
# --------------------------------------------------------------------------- #


def _ctx_of(packet, comm_model):
    """The materialized PacketContext of one fast-engine epoch."""
    sc = packet.scenario
    levels = {t: sc.levels_list[sc.index_of[t]] for t in sc.task_ids}
    placed = {
        sc.task_ids[i]: int(p)
        for i, p in enumerate(packet.assigned_proc)
        if p >= 0
    }
    return PacketContext(
        time=packet.time,
        ready_tasks=[sc.task_ids[i] for i in packet.ready],
        idle_processors=list(packet.idle),
        graph=sc.graph,
        machine=sc.machine,
        levels=levels,
        task_processor=placed,
        comm_model=comm_model,
    )


def _cold_kernel(packet, comm_model, weight_balance=0.5, weight_comm=0.5):
    """The kernel of one fast-engine epoch's materialized context."""
    return PacketKernel(
        AnnealingPacket.from_context(_ctx_of(packet, comm_model)),
        packet.scenario.machine,
        comm_model=comm_model,
        weight_balance=weight_balance,
        weight_comm=weight_comm,
    )


def _sa_kernels_of_run(graph, machine, comm_model, monkeypatch, config=None):
    """Every lowering SA anneals over in one fast-engine run, with its reference.

    Wraps ``compile_fast_packet`` at the name ``SAScheduler.fast_assign``
    calls, so the lowerings come through the run-long row cache: a
    :class:`OneSlotPacket` for each one-idle epoch, a kernel otherwise.  Each
    is paired with the cold kernel built from the epoch's materialized
    context.
    """
    captured = []
    cached = sa_scheduler_module.compile_fast_packet

    def capture(packet, cache, weight_balance, weight_comm):
        lowered = cached(packet, cache, weight_balance, weight_comm)
        reference = _cold_kernel(packet, comm_model, weight_balance, weight_comm)
        captured.append((list(packet.ready), lowered, reference))
        return lowered

    monkeypatch.setattr(sa_scheduler_module, "compile_fast_packet", capture)
    config = config or SAConfig.paper_defaults(seed=0)
    result = simulate(graph, machine, SAScheduler(config),
                      comm_model=comm_model, record_trace=False, fast=True)
    assert result.n_fallback_epochs == 0
    return captured


def _assert_slot_equals_reference(slot, reference, task_ids):
    """A one-slot lowering holds the cold kernel's single column, bit for bit."""
    assert _walk_for(slot) is _one_slot_walk
    assert [task_ids[i] for i in slot.tasks] == list(reference.tasks)
    assert (slot.proc,) == reference.procs
    for got, rows in ((slot.balance, reference.balance_rows),
                      (slot.comm, reference.comm_rows)):
        assert got.dtype == np.float64
        want = np.array([row[0] for row in rows], dtype=np.float64)
        assert got.tobytes() == want.tobytes()
    for name in ("balance_range", "comm_range", "weight_balance",
                 "weight_comm", "comm_enabled"):
        assert getattr(slot, name) == getattr(reference, name), name
    hlf = PacketMappingProblem(reference.index_packet(), reference).hlf_mapping()
    assert hlf.task_to_proc == {slot.hlf: 0}


def _assert_kernel_equals_reference(kernel, reference, task_ids):
    """Every PacketKernel field of the cached kernel equals the cold one.

    The cached kernel runs on dense task indices; the reference on task ids.
    """
    ids = [task_ids[i] for i in kernel.tasks]
    for name in PacketKernel.__slots__:
        got, want = getattr(kernel, name), getattr(reference, name)
        if name == "packet":
            assert got.time == want.time
            assert got.idle_processors == want.idle_processors
            assert [got.levels[i] for i in kernel.tasks] == [want.levels[t] for t in ids]
        elif name == "tasks":
            assert tuple(ids) == want
        elif name == "task_index":
            assert {task_ids[i]: k for i, k in got.items()} == want
        elif name == "comm_table":
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want, name


@pytest.mark.parametrize("machine_factory,comm_off,family", [
    (lambda: Machine.hypercube(3), False, None),
    (lambda: Machine.hypercube(3), True, None),
    (lambda: Machine.ring(9), False, None),
    (lambda: _hetero_machine(3), False, None),
    (lambda: Machine.hypercube(3), False, "montage"),
])
def test_compile_fast_packet_tables_bit_identical(
    machine_factory, comm_off, family, monkeypatch
):
    machine = machine_factory()
    comm_model = ZeroCommModel() if comm_off else LinearCommModel()
    if family is None:
        # Wider than the machines, so tasks wait across epochs on cached rows.
        graph = layered_random(n_layers=4, width=12, edge_probability=0.5,
                               mean_duration=15.0, mean_comm=7.0, seed=2)
    else:
        graph = build_family(family, seed=0)
    captured = _sa_kernels_of_run(graph, machine, comm_model, monkeypatch)
    task_ids = graph.tasks
    seen = set()
    carried_over = 0
    n_one_slot = 0
    for ready, lowered, reference in captured:
        if isinstance(lowered, OneSlotPacket):
            n_one_slot += 1
            _assert_slot_equals_reference(lowered, reference, task_ids)
            lowered = lowered.kernel()
        _assert_kernel_equals_reference(lowered, reference, task_ids)
        carried_over += sum(1 for ti in ready if ti in seen)
        seen.update(ready)
    assert carried_over > 0
    assert 0 < n_one_slot < len(captured), "both lowerings must be exercised"


def _one_idle_epoch(graph, ready, placed, machine=None):
    """A hand-built one-idle fast-engine epoch: *ready* task ids waiting for
    processor 3, the tasks of *placed* (id -> processor) finished."""
    machine = machine or Machine.hypercube(3)
    sc = compile_scenario(graph, machine, LinearCommModel(), levels=graph.levels())
    assigned = np.full(sc.n_tasks, -1, dtype=np.int64)
    for task, p in placed.items():
        assigned[sc.index_of[task]] = p
    return FastPacket(
        time=10.0, ready=[sc.index_of[t] for t in ready], idle=[3],
        scenario=sc, assigned_proc=assigned,
        finish_times=np.zeros(sc.n_tasks), proc_ready_time=np.zeros(sc.n_procs),
    )


def _assert_lowering_matches_cold_kernel(packet):
    comm_model = packet.scenario.comm_model
    slot = compile_fast_packet(packet, ReadyRowCache(packet.scenario))
    reference = _cold_kernel(packet, comm_model)
    task_ids = packet.scenario.task_ids
    _assert_slot_equals_reference(slot, reference, task_ids)
    _assert_kernel_equals_reference(slot.kernel(), reference, task_ids)
    return slot


class TestOneSlotLowering:
    def test_tied_top_levels_seed_the_first_in_ready_order(self):
        graph = TaskGraph()
        for task, duration in (("low", 2.0), ("b", 7.0), ("a", 7.0), ("c", 7.0)):
            graph.add_task(task, duration)
        slot = _assert_lowering_matches_cold_kernel(
            _one_idle_epoch(graph, ["low", "c", "a", "b"], {})
        )
        assert slot.hlf == 1

    @pytest.mark.parametrize("machine_kind", ["hom", "het"])
    def test_ready_tasks_without_predecessors_leave_dF_c_neutral(self, machine_kind):
        """Entry tasks have no comm total: dF_c is 1.0 although an earlier
        task has finished and comm is on."""
        graph = TaskGraph()
        for task, duration in (("root", 3.0), ("x", 4.0), ("y", 9.0), ("z", 1.5)):
            graph.add_task(task, duration)
        graph.add_task("child", 2.0)
        graph.add_dependency("root", "child", comm=5.0)
        slot = _assert_lowering_matches_cold_kernel(_one_idle_epoch(
            graph, ["x", "y", "z"], {"root": 0}, machine=_MACHINES[machine_kind](4)
        ))
        assert slot.comm_range == 1.0
        assert not slot.comm.any()

    def test_predecessor_costs_set_dF_c(self):
        graph = TaskGraph()
        for task, duration in (("p", 3.0), ("q", 2.0), ("u", 4.0), ("v", 4.0)):
            graph.add_task(task, duration)
        graph.add_dependency("p", "u", comm=5.0)
        graph.add_dependency("q", "u", comm=1.0)
        graph.add_dependency("q", "v", comm=2.5)
        slot = _assert_lowering_matches_cold_kernel(
            _one_idle_epoch(graph, ["v", "u"], {"p": 0, "q": 7})
        )
        assert slot.comm_range > 1.0 and slot.comm.all()

    def test_wider_and_empty_epochs_lower_to_kernels(self):
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        packet = _one_idle_epoch(graph, ["a"], {})
        for idle in ([2, 5], []):
            packet.idle = idle
            lowered = compile_fast_packet(packet, ReadyRowCache(packet.scenario))
            assert isinstance(lowered, PacketKernel) and lowered.n_idle == len(idle)


# --------------------------------------------------------------------------- #
# The single chain on a one-slot lowering == the same chain on its kernel
# --------------------------------------------------------------------------- #


_LAYERED = dict(n_layers=4, width=12, edge_probability=0.5,
                mean_duration=15.0, mean_comm=7.0)


def _outcome_fields(outcome):
    return (outcome.assignment, outcome.best_cost, outcome.initial_cost,
            outcome.breakdown, outcome.n_proposals, outcome.n_accepted,
            outcome.n_temperature_steps)


class TestOneSlotSingleChain:
    @pytest.mark.parametrize("comm_off", [False, True])
    @pytest.mark.parametrize("machine_kind", ["hom", "het"])
    @pytest.mark.parametrize("initial_mapping", ["hlf", "random", "empty"])
    def test_direct_walk_equals_the_kernel_path(
        self, initial_mapping, machine_kind, comm_off, monkeypatch
    ):
        config = replace(SAConfig.paper_defaults(seed=1), initial_mapping=initial_mapping)
        comm_model = ZeroCommModel() if comm_off else LinearCommModel()
        captured = _sa_kernels_of_run(
            layered_random(seed=5, **_LAYERED), _MACHINES[machine_kind](2),
            comm_model, monkeypatch, config,
        )
        slots = [low for _, low, _ in captured if isinstance(low, OneSlotPacket)]
        assert len(slots) >= 5
        annealer = PacketAnnealer(config)
        for k, slot in enumerate(slots[:12]):
            direct_rng, kernel_rng = np.random.default_rng(k), np.random.default_rng(k)
            direct = annealer.anneal_compiled(slot, direct_rng)
            converted = annealer.anneal_compiled(slot.kernel(), kernel_rng)
            assert _outcome_fields(direct) == _outcome_fields(converted)
            assert direct_rng.bit_generator.state == kernel_rng.bit_generator.state

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.0, 1.0)])
    def test_runs_equal_runs_over_kernels(self, weights, monkeypatch):
        """Whole fast-engine runs commit the same mappings, record the same
        packet stats and leave the scheduler RNG in the same state when every
        one-slot lowering is annealed as its kernel instead.  At w_b = 0 the
        empty mapping can win, and fast_assign's progress fallback fires."""
        graph = layered_random(seed=6, **_LAYERED)
        config = SAConfig.paper_defaults(seed=3).with_weights(*weights)
        empty_wins = []
        anneal_compiled = PacketAnnealer.anneal_compiled

        def spy(self, lowered, rng=None, seed_assignments=None):
            outcome = anneal_compiled(self, lowered, rng, seed_assignments)
            if isinstance(lowered, OneSlotPacket) and not outcome.assignment:
                empty_wins.append(lowered)
            return outcome

        def run():
            policy = SAScheduler(config)
            result = simulate(graph, Machine.ring(3), policy,
                              record_trace=False, fast=True)
            return (result.fingerprint(), policy.packet_stats,
                    policy._rng.bit_generator.state)

        monkeypatch.setattr(PacketAnnealer, "anneal_compiled", spy)
        direct = run()
        lower = sa_scheduler_module.compile_fast_packet

        def lower_to_kernels(*args):
            lowered = lower(*args)
            return lowered.kernel() if isinstance(lowered, OneSlotPacket) else lowered

        monkeypatch.setattr(sa_scheduler_module, "compile_fast_packet", lower_to_kernels)
        assert run() == direct
        assert any(stats.n_idle == 1 for stats in direct[1])
        if weights == (0.0, 1.0):
            assert empty_wins, "the progress fallback never fired"

    def test_single_chain_builds_kernels_only_for_wider_epochs(
        self, hypercube8, monkeypatch
    ):
        """Every packet still walks through packet_annealer.anneal_array (the
        name the benchmark's hooks wrap); replica lanes get a kernel per epoch."""
        built = []
        walks = []
        init = PacketKernel.__init__
        walk = packet_annealer_module.anneal_array

        def spy_init(self, packet, *args, **kwargs):
            built.append(packet.n_idle)
            init(self, packet, *args, **kwargs)

        def spy_walk(kernel, *args):
            walks.append(kernel.n_idle)
            return walk(kernel, *args)

        monkeypatch.setattr(PacketKernel, "__init__", spy_init)
        monkeypatch.setattr(packet_annealer_module, "anneal_array", spy_walk)
        graph = layered_random(seed=2, **_LAYERED)
        for replicas in (1, 2):
            built.clear()
            walks.clear()
            policy = SAScheduler(SAConfig.paper_defaults(seed=0).with_replicas(replicas))
            simulate(graph, hypercube8, policy, record_trace=False, fast=True)
            shapes = [stats.n_idle for stats in policy.packet_stats]
            assert 1 in shapes and max(shapes) > 1
            if replicas == 1:
                assert built == [n for n in shapes if n > 1]
                assert walks == shapes
            else:
                assert built == shapes


# --------------------------------------------------------------------------- #
# SA fast path end-to-end + the replicas= knob
# --------------------------------------------------------------------------- #


class _NoFastPolicy(SchedulingPolicy):
    name = "NoFast"

    def assign(self, ctx):
        if ctx.n_ready == 0 or ctx.n_idle == 0:
            return {}
        order = sorted(ctx.ready_tasks, key=lambda t: (-ctx.levels[t], str(t)))
        return dict(zip(order, ctx.idle_processors))


class TestSAFastPath:
    def test_sa_runs_kernelized_zero_fallbacks(self, hypercube8):
        graph = random_dag(30, edge_probability=0.2, seed=1)
        result = simulate(graph, hypercube8,
                          SAScheduler(SAConfig.paper_defaults(seed=1)),
                          record_trace=False, fast=True)
        assert result.n_fallback_epochs == 0

    def test_policy_without_fast_path_counts_fallbacks(self, hypercube8):
        graph = random_dag(30, edge_probability=0.2, seed=1)
        result = simulate(graph, hypercube8, _NoFastPolicy(),
                          record_trace=False, fast=True)
        assert result.n_fallback_epochs == result.n_packets > 0

    def test_sa_reference_config_declines_fast_path(self, hypercube8):
        """compiled=False must keep the materialized-context fallback (and
        still match the object engine bit for bit)."""
        graph = random_dag(24, edge_probability=0.2, seed=2)
        fast = simulate(graph, hypercube8,
                        SAScheduler(SAConfig(seed=1, compiled=False)),
                        record_trace=False, fast=True)
        slow = simulate(graph, hypercube8,
                        SAScheduler(SAConfig(seed=1, compiled=False)),
                        record_trace=False, fast=False)
        assert fast.n_fallback_epochs == fast.n_packets > 0
        assert fast.fingerprint() == slow.fingerprint()

    def test_sa_fast_assign_keeps_scheduler_stats(self, hypercube8):
        graph = random_dag(25, edge_probability=0.2, seed=3)
        fast_policy = SAScheduler(SAConfig.paper_defaults(seed=2))
        slow_policy = SAScheduler(SAConfig.paper_defaults(seed=2))
        fast = simulate(graph, hypercube8, fast_policy, record_trace=False, fast=True)
        slow = simulate(graph, hypercube8, slow_policy, record_trace=False, fast=False)
        assert fast.fingerprint() == slow.fingerprint()
        assert fast_policy.n_packets == slow_policy.n_packets
        assert fast_policy.packet_stats == slow_policy.packet_stats

    def test_row_cache_lifetime_matches_fresh_schedulers(self, hypercube8):
        """The run-long row cache never outlives its run.

        One scheduler is reused for simulate() on graph A, A again at the
        contention fidelity (same compiled scenario, other placements), A,
        graph B, and then as a run_lanes lane after the documented reset();
        every run must equal a fresh scheduler's.
        """
        graph_a = layered_random(n_layers=5, width=6, edge_probability=0.5,
                                 mean_duration=15.0, mean_comm=7.0, seed=3)
        graph_b = random_dag(30, edge_probability=0.2, seed=4)

        def fresh():
            return SAScheduler(SAConfig.paper_defaults(seed=5))

        def run(graph, policy, fidelity="latency"):
            return simulate(graph, hypercube8, policy, fidelity=fidelity,
                            record_trace=False, fast=True).fingerprint()

        reused = fresh()
        for graph, fidelity in ((graph_a, "latency"), (graph_a, "contention"),
                                (graph_a, "latency"), (graph_b, "latency")):
            assert run(graph, reused, fidelity) == run(graph, fresh(), fidelity)

        comm = LinearCommModel()
        scenarios = [compile_scenario(g, hypercube8, comm, levels=g.levels())
                     for g in (graph_a, graph_b)]
        reused.reset()
        lanes = run_lanes([(scenarios[0], reused), (scenarios[1], fresh())])
        assert lanes[0].fingerprint() == run(graph_a, fresh())
        assert lanes[1].fingerprint() == run(graph_b, fresh())

    @pytest.mark.parametrize("fast", [False, True])
    def test_simulate_replicas_knob(self, hypercube8, fast):
        graph = random_dag(20, edge_probability=0.2, seed=4)
        single = simulate(graph, hypercube8,
                          SAScheduler(SAConfig.paper_defaults(seed=0)),
                          record_trace=False, fast=fast)
        multi = simulate(graph, hypercube8,
                         SAScheduler(SAConfig.paper_defaults(seed=0)),
                         record_trace=False, fast=fast, replicas=4)
        again = simulate(graph, hypercube8,
                         SAScheduler(SAConfig.paper_defaults(seed=0)),
                         record_trace=False, fast=fast, replicas=4)
        assert multi.fingerprint() == again.fingerprint()  # deterministic
        assert multi.makespan > 0
        assert single.makespan > 0

    def test_replicas_identical_across_engines(self, hypercube8):
        graph = random_dag(20, edge_probability=0.2, seed=5)
        fast = simulate(graph, hypercube8,
                        SAScheduler(SAConfig.paper_defaults(seed=0)),
                        record_trace=False, fast=True, replicas=3)
        slow = simulate(graph, hypercube8,
                        SAScheduler(SAConfig.paper_defaults(seed=0)),
                        record_trace=False, fast=False, replicas=3)
        assert fast.fingerprint() == slow.fingerprint()

    def test_replicas_rejected_for_policies_without_hook(self, hypercube8, diamond_graph):
        with pytest.raises(SimulationError, match="with_replicas"):
            simulate(diamond_graph, hypercube8, HLFScheduler(seed=0), replicas=2)
        with pytest.raises(SimulationError, match="replicas"):
            simulate(diamond_graph, hypercube8,
                     SAScheduler(SAConfig.paper_defaults(seed=0)), replicas=0)

    def test_with_replicas_leaves_original_untouched(self):
        base = SAScheduler(SAConfig.paper_defaults(seed=0))
        multi = base.with_replicas(5)
        assert base.config.replicas == 1
        assert multi.config.replicas == 5
        assert multi is not base


class TestConfigValidation:
    def test_walk_choices(self):
        SAConfig(walk="kernel")
        with pytest.raises(ConfigurationError, match="walk"):
            SAConfig(walk="turbo")

    def test_replicas_positive(self):
        SAConfig(replicas=3)
        with pytest.raises(ConfigurationError, match="replicas"):
            SAConfig(replicas=0)

    def test_with_replicas_copy(self):
        cfg = SAConfig(seed=0)
        assert cfg.with_replicas(4).replicas == 4
        assert cfg.replicas == 1


class TestSplit:
    def test_split_matches_spawn_semantics(self):
        a = np.random.default_rng(42)
        b = np.random.default_rng(42)
        from repro.utils.rng import spawn_rng

        xs = [r.random() for r in split(a, 3)]
        ys = [r.random() for r in spawn_rng(b, 3)]
        assert xs == ys

    def test_split_validates(self):
        with pytest.raises(ValueError):
            split(np.random.default_rng(0), 0)
