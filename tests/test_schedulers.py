"""Tests for the list-scheduling baselines and the policy interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.model import LinearCommModel, ZeroCommModel
from repro.exceptions import ConfigurationError, SchedulingError
from repro.machine.machine import Machine
from repro.schedulers.base import PacketContext, validate_assignment
from repro.schedulers.etf import ETFScheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.hlf import HLFScheduler
from repro.schedulers.lpt import LPTScheduler
from repro.schedulers.random_policy import RandomScheduler
from repro.sim.engine import simulate
from repro.taskgraph import generators as gen
from repro.taskgraph.graph import TaskGraph


def make_ctx(graph, machine, ready, idle, placed=None, finish=None, comm=None, time=0.0):
    return PacketContext(
        time=time,
        ready_tasks=ready,
        idle_processors=idle,
        graph=graph,
        machine=machine,
        levels=graph.levels(),
        task_processor=placed or {},
        finish_times=finish or {},
        comm_model=comm or LinearCommModel(),
    )


@pytest.fixture
def priority_graph():
    """Three independent tasks with distinct levels via downstream chains."""
    g = TaskGraph("prio")
    g.add_task("high", 1.0)
    g.add_task("mid", 1.0)
    g.add_task("low", 1.0)
    # give 'high' a long tail and 'mid' a short one
    g.add_task("tail1", 5.0)
    g.add_task("tail2", 2.0)
    g.add_dependency("high", "tail1", 1.0)
    g.add_dependency("mid", "tail2", 1.0)
    return g


class TestValidateAssignment:
    def test_accepts_legal_assignment(self, diamond_graph, hypercube8):
        ctx = make_ctx(diamond_graph, hypercube8, ["b", "c"], [0, 1])
        validate_assignment(ctx, {"b": 0, "c": 1})

    def test_rejects_unready_task(self, diamond_graph, hypercube8):
        ctx = make_ctx(diamond_graph, hypercube8, ["b"], [0, 1])
        with pytest.raises(SchedulingError):
            validate_assignment(ctx, {"d": 0})

    def test_rejects_busy_processor(self, diamond_graph, hypercube8):
        ctx = make_ctx(diamond_graph, hypercube8, ["b", "c"], [0])
        with pytest.raises(SchedulingError):
            validate_assignment(ctx, {"b": 1})

    def test_rejects_duplicate_processor(self, diamond_graph, hypercube8):
        ctx = make_ctx(diamond_graph, hypercube8, ["b", "c"], [0, 1])
        with pytest.raises(SchedulingError):
            validate_assignment(ctx, {"b": 0, "c": 0})


class TestHLF:
    def test_selects_highest_level_tasks(self, priority_graph, hypercube8):
        ctx = make_ctx(priority_graph, hypercube8, ["high", "mid", "low"], [0])
        assignment = HLFScheduler().assign(ctx)
        assert list(assignment.keys()) == ["high"]

    def test_index_placement_is_deterministic(self, priority_graph, hypercube8):
        ctx = make_ctx(priority_graph, hypercube8, ["high", "mid"], [3, 5])
        assignment = HLFScheduler(placement="index").assign(ctx)
        assert assignment == {"high": 3, "mid": 5}

    def test_arbitrary_placement_reproducible_per_seed(self, priority_graph, hypercube8):
        ctx = make_ctx(priority_graph, hypercube8, ["high", "mid", "low"], [0, 1, 2])
        a = HLFScheduler(seed=7)
        b = HLFScheduler(seed=7)
        assert a.assign(ctx) == b.assign(ctx)

    def test_min_comm_placement_prefers_predecessor_processor(self, hypercube8):
        g = TaskGraph("g")
        g.add_task("p", 1.0)
        g.add_task("c", 1.0)
        g.add_dependency("p", "c", 4.0)
        ctx = make_ctx(g, hypercube8, ["c"], [2, 6], placed={"p": 6}, finish={"p": 1.0})
        assignment = HLFScheduler(placement="min_comm").assign(ctx)
        assert assignment == {"c": 6}

    def test_invalid_placement_rejected(self):
        with pytest.raises(ConfigurationError):
            HLFScheduler(placement="bogus")

    def test_empty_context(self, priority_graph, hypercube8):
        assert HLFScheduler().assign(make_ctx(priority_graph, hypercube8, [], [0])) == {}
        assert HLFScheduler().assign(make_ctx(priority_graph, hypercube8, ["high"], [])) == {}


class TestOtherBaselines:
    def test_fifo_takes_insertion_order(self, priority_graph, hypercube8):
        ctx = make_ctx(priority_graph, hypercube8, ["high", "mid", "low"], [4, 2])
        assert FIFOScheduler().assign(ctx) == {"high": 4, "mid": 2}

    def test_lpt_takes_longest_tasks(self, hypercube8):
        g = TaskGraph("g")
        for name, d in [("short", 1.0), ("long", 9.0), ("mid", 4.0)]:
            g.add_task(name, d)
        ctx = make_ctx(g, hypercube8, ["short", "long", "mid"], [0, 1])
        assignment = LPTScheduler().assign(ctx)
        assert set(assignment.keys()) == {"long", "mid"}

    def test_random_policy_is_valid_and_reproducible(self, priority_graph, hypercube8):
        ctx = make_ctx(priority_graph, hypercube8, ["high", "mid", "low"], [0, 1])
        a = RandomScheduler(seed=3)
        first = a.assign(ctx)
        validate_assignment(ctx, first)
        a.reset()
        assert a.assign(ctx) == first

    def test_etf_prefers_colocation(self, hypercube8):
        g = TaskGraph("g")
        g.add_task("p", 1.0)
        g.add_task("c1", 1.0)
        g.add_task("c2", 1.0)
        g.add_dependency("p", "c1", 4.0)
        g.add_dependency("p", "c2", 4.0)
        ctx = make_ctx(
            g,
            hypercube8,
            ["c1", "c2"],
            [0, 7],
            placed={"p": 0},
            finish={"p": 1.0},
            time=1.0,
        )
        assignment = ETFScheduler().assign(ctx)
        validate_assignment(ctx, assignment)
        # both children are placed; one of them gets the predecessor's processor
        assert 0 in assignment.values() and 7 in assignment.values()

    def test_etf_empty(self, priority_graph, hypercube8):
        assert ETFScheduler().assign(make_ctx(priority_graph, hypercube8, [], [])) == {}


class TestETFTieBreaking:
    """The docstring's tie rules, pinned: equal earliest start -> faster
    processor first, then the higher task level."""

    def test_equal_earliest_start_higher_level_wins(self, priority_graph, hypercube8):
        # All three roots are ready at t=0 with no predecessors, so every
        # (task, processor) pair has the same earliest start; only one
        # processor is idle, and the higher-level task must claim it.
        levels = priority_graph.levels()
        assert levels["high"] > levels["mid"] > levels["low"]
        ctx = make_ctx(priority_graph, hypercube8, ["low", "mid", "high"], [3])
        assignment = ETFScheduler().assign(ctx)
        assert assignment == {"high": 3}

    def test_equal_start_and_level_falls_back_to_packet_order(self, hypercube8):
        g = TaskGraph("twins")
        g.add_task("a", 2.0)
        g.add_task("b", 2.0)  # identical level, identical earliest start
        ctx = make_ctx(g, hypercube8, ["a", "b"], [5])
        assert ETFScheduler().assign(ctx) == {"a": 5}

    def test_level_beats_packet_order(self, priority_graph, hypercube8):
        # 'mid' precedes 'high' in the ready list, but 'high' has the higher
        # level and must win the single processor.
        ctx = make_ctx(priority_graph, hypercube8, ["mid", "high"], [0])
        assert ETFScheduler().assign(ctx) == {"high": 0}

    def test_equal_earliest_start_prefers_faster_processor(self, priority_graph):
        machine = Machine.fully_connected(3, speeds=[1.0, 1.0, 2.5])
        ctx = make_ctx(priority_graph, machine, ["high"], [0, 1, 2])
        assert ETFScheduler().assign(ctx) == {"high": 2}

    def test_speed_tie_break_is_inert_on_homogeneous_machines(self, priority_graph):
        default = Machine.fully_connected(3)
        explicit = Machine.fully_connected(3, speeds=[1.0, 1.0, 1.0])
        ctx_a = make_ctx(priority_graph, default, ["low", "mid", "high"], [0, 1, 2])
        ctx_b = make_ctx(priority_graph, explicit, ["low", "mid", "high"], [0, 1, 2])
        assert ETFScheduler().assign(ctx_a) == ETFScheduler().assign(ctx_b)

    def test_earlier_start_beats_level_and_speed(self, hypercube8):
        # 'far' is high-level but its predecessor data arrives late; the
        # low-level task that can start immediately goes first.
        g = TaskGraph("g")
        g.add_task("p", 1.0)
        g.add_task("far", 1.0)
        g.add_task("near", 1.0)
        g.add_task("tail", 20.0)
        g.add_dependency("p", "far", 50.0)
        g.add_dependency("far", "tail", 1.0)
        ctx = make_ctx(
            g, hypercube8, ["far", "near"], [7],
            placed={"p": 0}, finish={"p": 1.0}, time=1.0,
        )
        levels = g.levels()
        assert levels["far"] > levels["near"]
        assert ETFScheduler().assign(ctx) == {"near": 7}


class TestPoliciesEndToEnd:
    """Every baseline must produce a complete, valid schedule on random DAGs."""

    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: HLFScheduler(),
            lambda: HLFScheduler(placement="index"),
            lambda: HLFScheduler(placement="min_comm"),
            lambda: FIFOScheduler(),
            lambda: LPTScheduler(),
            lambda: RandomScheduler(seed=0),
            lambda: ETFScheduler(),
        ],
    )
    def test_policy_completes_and_is_valid(self, policy_factory, hypercube8):
        graph = gen.layered_random(4, 6, seed=9, mean_comm=4.0)
        result = simulate(graph, hypercube8, policy_factory(), comm_model=LinearCommModel())
        assert len(result.task_processor) == graph.n_tasks
        result.trace.validate(graph)
        assert result.makespan > 0
        assert 0 < result.speedup() <= hypercube8.n_processors

    def test_hlf_on_two_processors_matches_hu_bound(self, two_proc_machine):
        # Hu's algorithm is optimal for unit-duration intrees on any number of
        # processors; check the classical bound on a small reduction tree.
        tree = gen.intree(depth=3, branching=2, duration=1.0)
        result = simulate(tree, two_proc_machine, HLFScheduler(), comm_model=ZeroCommModel())
        # 15 unit tasks on 2 processors, critical path 4: optimum is 8
        assert result.makespan == pytest.approx(8.0)


class _QuadraticETFScheduler(ETFScheduler):
    """The historical O(ready²·idle²·preds) ETF selection loop.

    Kept verbatim (rescan every remaining pair per round, ``list.remove``)
    as the differential oracle for the matrix kernel that replaced it: both
    must pick the identical (task, processor) pairs, since earliest starts
    are epoch-invariant and the matrix path scans the same lexicographic key
    ``(est, -speed, -level, ti, pi)``.
    """

    def assign(self, ctx):
        if ctx.n_idle == 0 or ctx.n_ready == 0:
            return {}
        remaining_tasks = list(ctx.ready_tasks)
        remaining_procs = list(ctx.idle_processors)
        speed_of = getattr(ctx.machine, "speed_of", None)
        assignment = {}
        while remaining_tasks and remaining_procs:
            best = None
            best_pair = None
            for ti, task in enumerate(remaining_tasks):
                for pi, proc in enumerate(remaining_procs):
                    est = self._earliest_start(ctx, task, proc)
                    speed = speed_of(proc) if speed_of is not None else 1.0
                    key = (est, -speed, -ctx.levels[task], ti, pi)
                    if best is None or key < best:
                        best = key
                        best_pair = (task, proc)
            task, proc = best_pair
            assignment[task] = proc
            remaining_tasks.remove(task)
            remaining_procs.remove(proc)
        return assignment


class TestETFMatrixKernelDifferential:
    """The matrix-based ETF selection must replay the quadratic loop exactly."""

    @staticmethod
    def _machine(seed: int) -> Machine:
        kind = seed % 4
        if kind == 0:
            return Machine.hypercube(3)
        if kind == 1:
            return Machine.ring(9)
        if kind == 2:
            return Machine.bus(8)
        rng = np.random.default_rng(seed)
        topo = Machine.mesh(3, 3).topology
        return Machine.mesh(
            3, 3,
            speeds=rng.uniform(0.5, 4.0, 9).tolist(),
            link_weights={tuple(sorted(l)): float(rng.uniform(0.5, 3.0))
                          for l in topo.links()},
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_matrix_etf_matches_quadratic_etf(self, seed):
        """20 randomized scenarios: identical assignments end to end."""
        graph = gen.random_dag(
            10 + 3 * seed, edge_probability=0.1 + 0.01 * (seed % 5),
            mean_duration=10.0, mean_comm=4.0, seed=seed,
        )
        machine = self._machine(seed)
        comm = ZeroCommModel() if seed % 5 == 4 else LinearCommModel()
        old = simulate(graph, machine, _QuadraticETFScheduler(), comm_model=comm,
                       record_trace=True, fast=False)
        new = simulate(graph, machine, ETFScheduler(), comm_model=comm,
                       record_trace=True, fast=False)
        assert old.task_processor == new.task_processor
        assert old.fingerprint() == new.fingerprint()

    def test_matrix_etf_single_packet_matches_quadratic(self, diamond_graph, hypercube8):
        """One synthetic packet with placed predecessors and ties."""
        ctx = make_ctx(
            diamond_graph, hypercube8,
            ready=["b", "c"], idle=[0, 3, 5],
            placed={"a": 1}, finish={"a": 2.0}, time=2.0,
        )
        assert ETFScheduler().assign(ctx) == _QuadraticETFScheduler().assign(ctx)


class TestETFHeapKernel:
    """The fast engine's heap kernel against the object path's
    :func:`greedy_pair_order` scan: identical assignments, in identical
    order, with traces recorded."""

    @staticmethod
    def _both_paths(graph, machine, comm, fidelity="latency"):
        obj = simulate(graph, machine, ETFScheduler(), comm_model=comm,
                       fidelity=fidelity, record_trace=True, fast=False)
        fast = simulate(graph, machine, ETFScheduler(), comm_model=comm,
                        fidelity=fidelity, record_trace=True, fast=True)
        assert fast.n_fallback_epochs == 0
        assert obj.task_processor == fast.task_processor
        assert obj.fingerprint() == fast.fingerprint()
        return fast

    @staticmethod
    def _fan_out(width, seed):
        """One root fanning out to *width* tasks with varied comm, then a sink."""
        rng = np.random.default_rng(seed)
        g = TaskGraph(f"fan{width}")
        g.add_task("root", 3.0)
        g.add_task("sink", 1.0)
        for i in range(width):
            g.add_task(i, float(rng.integers(1, 30)))
            g.add_dependency("root", i, comm=float(rng.integers(0, 12)))
            g.add_dependency(i, "sink", comm=float(rng.integers(0, 4)))
        return g

    @staticmethod
    def _tie_layers(seed):
        """Layers of equal-level tasks on integer durations and weights.

        Every task of a layer has the same duration and depends on the same
        predecessors with the same weight, so whole layers tie on level, and
        binary-exact arithmetic makes earliest starts tie across tasks and
        processors.
        """
        rng = np.random.default_rng(seed)
        g = TaskGraph(f"ties{seed}")
        prev = []
        for layer in range(4):
            width = int(rng.integers(6, 14))
            duration = float(rng.integers(1, 4))
            comm = float(rng.integers(0, 3))
            names = [(layer, i) for i in range(width)]
            for name in names:
                g.add_task(name, duration)
                for pred in prev:
                    g.add_dependency(pred, name, comm=comm)
            prev = names[: int(rng.integers(1, 4))]
        return g

    @pytest.mark.parametrize("machine_name", ["hypercube8", "hetero-ring9-4x"])
    def test_wide_epoch_bigmerge_1k(self, machine_name):
        """1000 producers ready at once: every pair is a tie on the epoch
        time, broken by speed, level and task index."""
        from repro.experiments.sweep import hetero_machine
        from repro.taskgraph.families import FAMILIES

        machine = (
            Machine.hypercube(3) if machine_name == "hypercube8"
            else hetero_machine("ring9", 4.0)
        )
        graph = FAMILIES["bigmerge"].build_large(seed=0)
        assert sum(graph.in_degree(t) == 0 for t in graph.tasks) >= 1000
        self._both_paths(graph, machine, LinearCommModel())

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("machine_name", ["hypercube8", "hetero-mesh16-2x"])
    def test_wide_epoch_fan_out(self, seed, machine_name):
        """320 tasks ready at once, with arrival rows that differ per task."""
        from repro.experiments.sweep import hetero_machine

        machine = (
            Machine.hypercube(3) if machine_name == "hypercube8"
            else hetero_machine("mesh16", 2.0)
        )
        self._both_paths(self._fan_out(320, seed), machine, LinearCommModel())

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["ring9", "mesh16", "hypercube8"])
    def test_equal_est_ties_on_hetero_machines(self, seed, kind):
        """Equal earliest starts go to the faster processor, then the
        higher level, then the lower task index — at both fidelities and
        with or without communication."""
        from repro.experiments.sweep import hetero_machine

        machine = hetero_machine(kind, 2.0 + seed % 3)
        graph = self._tie_layers(seed)
        for comm in (LinearCommModel(), ZeroCommModel()):
            for fidelity in ("latency", "contention"):
                self._both_paths(graph, machine, comm, fidelity)

    def test_tie_order_on_one_epoch(self):
        """Six roots tied on level and start, three idle processors with
        speeds 1, 2, 2: the fast processors go first, in index order, and
        the pairs come back in selection order."""
        from repro.sim.compile import FastPacket, compile_scenario

        g = TaskGraph("roots")
        for i in range(6):
            g.add_task(i, 2.0)
        machine = Machine.fully_connected(3, speeds=[1.0, 2.0, 2.0])
        scenario = compile_scenario(g, machine, LinearCommModel())
        packet = FastPacket(
            time=0.0, ready=list(range(6)), idle=[0, 1, 2], scenario=scenario,
            assigned_proc=np.full(6, -1, dtype=np.intp),
            finish_times=np.zeros(6), proc_ready_time=np.zeros(3),
        )
        assignment = ETFScheduler().fast_assign(packet)
        assert list(assignment.items()) == [(0, 1), (1, 2), (2, 0)]
        ctx = make_ctx(g, machine, list(range(6)), [0, 1, 2])
        assert list(ETFScheduler().assign(ctx).items()) == list(assignment.items())

    def test_policy_reused_after_reset(self):
        """One policy runs two scenarios and the first again, reset() between
        runs; each run equals a fresh policy's run."""
        from repro.sim.compile import compile_scenario
        from repro.sim.fast_engine import run_compiled

        comm = LinearCommModel()
        scenarios = [
            compile_scenario(self._fan_out(40, 1), Machine.ring(9), comm),
            compile_scenario(gen.random_dag(60, edge_probability=0.1, seed=3),
                             Machine.hypercube(3), comm),
        ]
        policy = ETFScheduler()
        for scenario in scenarios + scenarios[:1]:
            policy.reset()
            reused = run_compiled(scenario, policy)
            assert reused.fingerprint() == run_compiled(scenario, ETFScheduler()).fingerprint()
        # Without reset() a rerun of the same scenario starts over as well:
        # a task it placed turning up ready again marks a new run.
        again = run_compiled(scenarios[0], policy)
        assert again.fingerprint() == run_compiled(scenarios[0], ETFScheduler()).fingerprint()
