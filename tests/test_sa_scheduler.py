"""Tests for SAConfig, the packet annealer and the staged SA scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.annealing.cooling import LinearCooling
from repro.comm.model import LinearCommModel, ZeroCommModel
from repro.core.config import SAConfig
from repro.core.packet import AnnealingPacket, PacketMapping
from repro.core.packet_annealer import PacketAnnealer, PacketMappingProblem
from repro.core.cost import PacketCostFunction
from repro.core.sa_scheduler import SAScheduler
from repro.exceptions import ConfigurationError
from repro.machine.machine import Machine
from repro.schedulers.base import PacketContext, validate_assignment
from repro.sim.engine import simulate
from repro.taskgraph import generators as gen


def make_packet(levels, pred_placement, idle_procs, time=0.0):
    return AnnealingPacket(
        time=time,
        ready_tasks=tuple(levels.keys()),
        idle_processors=tuple(idle_procs),
        levels=dict(levels),
        predecessor_placement={t: tuple(pred_placement.get(t, ())) for t in levels},
    )


class TestSAConfig:
    def test_defaults_are_paper_values(self):
        cfg = SAConfig.paper_defaults()
        assert cfg.weight_balance == 0.5 and cfg.weight_comm == 0.5
        assert cfg.stall_patience == 5
        assert cfg.initial_mapping == "hlf"

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            SAConfig(weight_balance=0.6, weight_comm=0.6)
        with pytest.raises(ConfigurationError):
            SAConfig(weight_balance=-0.2, weight_comm=1.2)

    def test_with_weights(self):
        cfg = SAConfig().with_weights(0.3, 0.7)
        assert cfg.weight_comm == 0.7
        assert cfg.stall_patience == SAConfig().stall_patience

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            SAConfig(initial_temperature=0.0)
        with pytest.raises(ConfigurationError):
            SAConfig(max_temperature_steps=0)
        with pytest.raises(ConfigurationError):
            SAConfig(stall_patience=0)
        with pytest.raises(ConfigurationError):
            SAConfig(initial_mapping="nope")
        with pytest.raises(ConfigurationError):
            SAConfig(moves_per_temperature=0)

    def test_moves_for_packet_scaling(self):
        cfg = SAConfig()
        assert cfg.moves_for_packet(2, 1) == 8
        assert cfg.moves_for_packet(100, 8) == 64
        assert SAConfig(moves_per_temperature=5).moves_for_packet(100, 8) == 5


class TestPacketMappingProblem:
    def test_hlf_seed_selects_highest_levels(self, hypercube8):
        packet = make_packet(
            levels={"lo": 1.0, "hi": 9.0, "mid": 5.0},
            pred_placement={},
            idle_procs=[3, 5],
        )
        fn = PacketCostFunction(packet, hypercube8)
        problem = PacketMappingProblem(packet, fn, initial_mapping="hlf")
        seed = problem.hlf_mapping()
        assert set(seed.task_to_proc) == {"hi", "mid"}
        assert seed.processor_of("hi") == 3  # first idle processor

    @pytest.mark.parametrize("n_idle", [1, 2, 3, 5, 8])
    def test_hlf_seed_ties_match_sorted_reference(self, hypercube8, n_idle):
        """Tied levels keep ready order, insertion order included, on every call."""
        levels = {"a": 2.0, "b": 5.0, "c": 2.0, "d": 5.0, "e": 1.0, "f": 5.0, "g": 2.0}
        packet = make_packet(levels=levels, pred_placement={},
                             idle_procs=list(range(n_idle)))
        problem = PacketMappingProblem(packet, PacketCostFunction(packet, hypercube8))
        order = sorted(packet.ready_tasks, key=lambda t: -levels[t])
        k = packet.n_assignable
        expected = list(zip(order[:k], packet.idle_processors[:k]))
        first, second = problem.hlf_mapping(), problem.hlf_mapping()
        assert list(first.task_to_proc.items()) == expected
        assert list(second.task_to_proc.items()) == expected
        assert first is not second
        first.unassign(expected[0][0])  # callers own their copy
        assert list(problem.hlf_mapping().task_to_proc.items()) == expected

    def test_random_seed_is_maximal_and_valid(self, hypercube8):
        packet = make_packet(
            levels={f"t{i}": float(i) for i in range(6)},
            pred_placement={},
            idle_procs=[0, 1, 2],
        )
        fn = PacketCostFunction(packet, hypercube8)
        problem = PacketMappingProblem(packet, fn, initial_mapping="random")
        m = problem.random_mapping(np.random.default_rng(0))
        assert m.n_assigned == 3
        assert len(set(m.task_to_proc.values())) == 3

    def test_empty_seed(self, hypercube8):
        packet = make_packet(levels={"a": 1.0}, pred_placement={}, idle_procs=[0])
        fn = PacketCostFunction(packet, hypercube8)
        problem = PacketMappingProblem(packet, fn, initial_mapping="empty")
        assert problem.initial_state(np.random.default_rng(0)).n_assigned == 0


class TestPacketAnnealer:
    def test_outcome_is_legal_assignment(self, hypercube8):
        packet = make_packet(
            levels={f"t{i}": float(10 - i) for i in range(6)},
            pred_placement={"t3": [("p", 0, 4.0)]},
            idle_procs=[1, 4, 6],
        )
        outcome = PacketAnnealer(SAConfig(seed=0)).anneal(packet, hypercube8, rng=0)
        assert len(outcome.assignment) <= packet.n_assignable
        assert set(outcome.assignment.values()) <= set(packet.idle_processors)
        assert outcome.n_proposals > 0

    def test_elitism_never_worse_than_hlf_seed(self, hypercube8):
        packet = make_packet(
            levels={f"t{i}": float(i % 3 + 1) for i in range(8)},
            pred_placement={f"t{i}": [("p", i % 8, 4.0)] for i in range(8)},
            idle_procs=[0, 2, 5],
        )
        outcome = PacketAnnealer(SAConfig(seed=1)).anneal(packet, hypercube8, rng=1)
        assert outcome.best_cost <= outcome.initial_cost + 1e-9
        assert outcome.improvement >= -1e-9

    def test_annealer_finds_colocation_when_levels_tie(self, hypercube8):
        # two equal-priority candidates; one has its predecessor on the only
        # idle processor — annealing must discover the communication-free choice
        packet = make_packet(
            levels={"local": 5.0, "remote": 5.0},
            pred_placement={"local": [("p", 6, 4.0)], "remote": [("q", 0, 4.0)]},
            idle_procs=[6],
        )
        outcome = PacketAnnealer(SAConfig(seed=3)).anneal(packet, hypercube8, rng=3)
        assert outcome.assignment == {"local": 6}

    def test_trajectory_recording(self, hypercube8):
        packet = make_packet(
            levels={"a": 3.0, "b": 1.0},
            pred_placement={"a": [("p", 1, 4.0)]},
            idle_procs=[0, 1],
        )
        cfg = SAConfig(seed=0, record_trajectories=True, initial_mapping="random")
        outcome = PacketAnnealer(cfg).anneal(packet, hypercube8, rng=0)
        assert len(outcome.trajectory) == outcome.n_proposals
        point = outcome.trajectory[0]
        assert np.isfinite(point.balance_cost)
        assert np.isfinite(point.communication_cost)
        assert np.isfinite(point.total_cost)

    def test_custom_cooling_schedule_respected(self, hypercube8):
        packet = make_packet(levels={"a": 1.0, "b": 2.0}, pred_placement={}, idle_procs=[0])
        cfg = SAConfig(seed=0, cooling=LinearCooling(step=0.5), max_temperature_steps=3)
        outcome = PacketAnnealer(cfg).anneal(packet, hypercube8, rng=0)
        assert outcome.n_temperature_steps <= 3

    def test_deterministic_for_fixed_rng(self, hypercube8):
        packet = make_packet(
            levels={f"t{i}": float(i) for i in range(5)},
            pred_placement={},
            idle_procs=[0, 1],
        )
        a = PacketAnnealer(SAConfig(seed=0)).anneal(packet, hypercube8, rng=11)
        b = PacketAnnealer(SAConfig(seed=0)).anneal(packet, hypercube8, rng=11)
        assert a.assignment == b.assignment
        assert a.best_cost == b.best_cost


class TestSAScheduler:
    def _context(self, graph, machine, ready, idle, placed, comm=None):
        return PacketContext(
            time=0.0,
            ready_tasks=ready,
            idle_processors=idle,
            graph=graph,
            machine=machine,
            levels=graph.levels(),
            task_processor=placed,
            comm_model=comm or LinearCommModel(),
        )

    def test_assign_returns_valid_assignment(self, diamond_graph, hypercube8):
        sched = SAScheduler(SAConfig(seed=0))
        ctx = self._context(diamond_graph, hypercube8, ["b", "c"], [1, 2, 3], {"a": 0})
        assignment = sched.assign(ctx)
        validate_assignment(ctx, assignment)
        assert assignment  # something was placed
        assert sched.n_packets == 1

    def test_empty_packet_returns_empty(self, diamond_graph, hypercube8):
        sched = SAScheduler(SAConfig(seed=0))
        ctx = self._context(diamond_graph, hypercube8, [], [0], {})
        assert sched.assign(ctx) == {}
        ctx = self._context(diamond_graph, hypercube8, ["a"], [], {})
        assert sched.assign(ctx) == {}

    def test_reset_clears_statistics_and_reseeds(self, diamond_graph, hypercube8):
        sched = SAScheduler(SAConfig(seed=5))
        ctx = self._context(diamond_graph, hypercube8, ["a"], [0, 1], {})
        first = sched.assign(ctx)
        sched.reset()
        assert sched.n_packets == 0
        second = sched.assign(ctx)
        assert first == second  # same seed, same decision

    def test_statistics_accumulate(self, hypercube8):
        graph = gen.layered_random(4, 6, seed=2, mean_comm=4.0)
        sched = SAScheduler(SAConfig(seed=0))
        result = simulate(graph, hypercube8, sched, comm_model=LinearCommModel())
        assert sched.n_packets == result.n_packets > 0
        assert sched.average_candidates_per_packet() > 0
        assert sched.average_idle_processors_per_packet() > 0
        assert sched.total_proposals() > 0

    def test_full_simulation_produces_valid_schedule(self, hypercube8):
        graph = gen.layered_random(5, 5, seed=3, mean_comm=4.0)
        sched = SAScheduler(SAConfig(seed=1))
        result = simulate(graph, hypercube8, sched, comm_model=LinearCommModel())
        assert result.trace is not None
        result.trace.validate(graph)
        assert result.makespan >= graph.critical_path_length() - 1e-9
        assert len(result.task_processor) == graph.n_tasks

    def test_scheduler_matches_hlf_without_communication(self, hypercube8):
        # with the zero model and HLF seeding, SA can only match or improve on
        # the packet cost, and speedups coincide with HLF on this simple graph
        from repro.schedulers.hlf import HLFScheduler

        graph = gen.fork_join(12, branch_duration=3.0, root_duration=1.0)
        sa = simulate(graph, hypercube8, SAScheduler(SAConfig(seed=0)), comm_model=ZeroCommModel())
        hlf = simulate(graph, hypercube8, HLFScheduler(), comm_model=ZeroCommModel())
        assert sa.makespan == pytest.approx(hlf.makespan)
