"""Anytime SA portfolio: lane specs, successive-halving racing, anytime API.

The portfolio's contract, tested bottom-up:

* **config** — lane axes validate and cycle deterministically; lane 0 is
  always the paper's exact configuration; ``SAConfig(portfolio=...)``
  normalizes and rejects incompatible knobs.
* **controller** — successive-halving decisions derive only from recorded
  per-temperature costs: rank at rung boundaries, cull the worse half (ties
  to the lowest lane index), reallocate freed budget evenly with the
  remainder to the lowest-indexed survivors, credit each donor exactly once.
* **engine differential** — every lane of a portfolio run (culled lanes
  included) replays bit-identically as a scalar single-chain walk on its own
  child stream, which is the proof that racing changes *scheduling* of
  draws, never the draws themselves.
* **anytime layers** — ``best_so_far`` snapshots through the scheduler and
  the simulator knob; sweep rows are invariant to ``--jobs``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trajectory import record_packet_trajectory
from repro.annealing.annealer import Annealer
from repro.annealing.acceptance import MetropolisAcceptance
from repro.annealing.cooling import GeometricCooling, LinearCooling
from repro.annealing.portfolio import (
    DEFAULT_LANE_AXES,
    PortfolioConfig,
    SuccessiveHalvingController,
)
from repro.annealing.replicas import ReplicaStats, summarize_replicas
from repro.annealing.stopping import (
    CombinedStopping,
    MaxIterationsStopping,
    StallStopping,
)
from repro.comm.model import LinearCommModel
from repro.core.array_annealer import anneal_array
from repro.core.config import SAConfig
from repro.core.cost import PacketCostFunction
from repro.core.packet import AnnealingPacket
from repro.core.packet_annealer import PacketAnnealer, _split_rng
from repro.core.sa_scheduler import SAScheduler
from repro.exceptions import ConfigurationError, SimulationError
from repro.machine.machine import Machine
from repro.schedulers.hlf import HLFScheduler
from repro.sim.engine import Simulator, simulate
from repro.taskgraph.generators import random_dag
from repro.utils.rng import as_rng, split


def _make_packet(n_ready: int, n_idle: int, seed: int, n_procs: int = 6):
    """A synthetic packet in the paper's regime (as in the SA benchmarks)."""
    rng = np.random.default_rng(seed)
    tasks = tuple(f"t{i}" for i in range(n_ready))
    levels = {t: float(rng.uniform(1, 100)) for t in tasks}
    placement = {
        t: tuple(
            (f"p{t}{k}", int(rng.integers(0, n_procs)), float(rng.uniform(0, 20)))
            for k in range(int(rng.integers(0, 3)))
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


def _portfolio_outcome(lanes: int, packet_seed: int = 11, rng_seed: int = 123,
                       seed_assignments=None):
    packet = _make_packet(10, 5, packet_seed)
    machine = Machine.bus(6)
    cfg = SAConfig.paper_defaults(seed=5).with_portfolio(lanes)
    annealer = PacketAnnealer(cfg)
    cost_fn = PacketCostFunction(
        packet, machine, comm_model=LinearCommModel(), compiled=True
    )
    outcome = annealer.anneal_compiled(
        cost_fn.kernel, as_rng(rng_seed), seed_assignments
    )
    return packet, cost_fn.kernel, cfg, annealer, outcome


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #

class TestPortfolioConfig:
    def test_lane_zero_is_the_paper_configuration(self):
        spec = PortfolioConfig(lanes=8).lane_specs()[0]
        assert isinstance(spec.cooling, GeometricCooling)
        assert spec.cooling.alpha == 0.9
        assert spec.initial == "hlf"
        assert spec.temperature_scale == 1.0

    def test_axes_cycle_beyond_their_count(self):
        specs = PortfolioConfig(lanes=10).lane_specs()
        assert len(specs) == 10
        n = len(DEFAULT_LANE_AXES)
        for b in (8, 9):
            cooling, initial, scale = DEFAULT_LANE_AXES[b % n]
            assert specs[b].cooling == cooling
            assert specs[b].initial == initial
            assert specs[b].lane == b

    def test_wants(self):
        assert PortfolioConfig(lanes=8).wants("etf")
        assert not PortfolioConfig(
            lanes=2, axes=((GeometricCooling(0.9), "hlf", 1.0),)
        ).wants("etf")

    @pytest.mark.parametrize("kwargs", [
        dict(lanes=1),
        dict(lanes=2.5),
        dict(rung=0),
        dict(base_budget=0),
        dict(axes=()),
        dict(axes=((GeometricCooling(0.9), "nope", 1.0),)),
        dict(axes=((GeometricCooling(0.9), "hlf", 0.0),)),
        dict(axes=(("not-cooling", "hlf", 1.0),)),
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PortfolioConfig(**kwargs)

    def test_saconfig_normalizes_int(self):
        cfg = SAConfig(portfolio=4)
        assert isinstance(cfg.portfolio, PortfolioConfig)
        assert cfg.portfolio.lanes == 4

    def test_saconfig_rejects_portfolio_with_replicas(self):
        with pytest.raises(ConfigurationError):
            SAConfig(portfolio=4, replicas=8)

    def test_saconfig_rejects_portfolio_off_the_vectorized_walk(self):
        with pytest.raises(ConfigurationError, match="compiled=True"):
            SAConfig(portfolio=4, compiled=False)

    def test_saconfig_rejects_portfolio_with_other_acceptance(self):
        with pytest.raises(ConfigurationError):
            SAConfig(portfolio=4, acceptance=MetropolisAcceptance())

    def test_saconfig_rejects_portfolio_with_trajectories(self):
        with pytest.raises(ConfigurationError, match="records no trajectories"):
            SAConfig(portfolio=4, record_trajectories=True)
        with pytest.raises(ConfigurationError, match="records no trajectories"):
            SAConfig(record_trajectories=True).with_portfolio(4)
        with pytest.raises(ConfigurationError, match="records no trajectories"):
            record_packet_trajectory(
                random_dag(12, seed=0), Machine.bus(4),
                SAConfig.paper_defaults(seed=0).with_portfolio(4),
            )

    def test_recording_anneal_of_a_racing_portfolio_raises(self):
        packet = _make_packet(10, 5, 11)
        annealer = PacketAnnealer(SAConfig.paper_defaults(seed=5).with_portfolio(4))
        with pytest.raises(ConfigurationError, match="records no trajectory"):
            annealer.anneal(packet, Machine.bus(6), LinearCommModel(), rng=123,
                            record_trajectory=True)
        outcome = annealer.anneal(packet, Machine.bus(6), LinearCommModel(), rng=123)
        assert outcome.portfolio is not None and not outcome.trajectory

    def test_with_portfolio_resets_replicas(self):
        cfg = SAConfig(replicas=8).with_portfolio(4)
        assert cfg.replicas == 1
        assert cfg.portfolio.lanes == 4


# --------------------------------------------------------------------------- #
# Successive-halving controller (pure decisions, no engine)
# --------------------------------------------------------------------------- #

def _trajectories(best_costs, steps=10):
    """Flat trajectories whose racing metric equals ``best_costs``."""
    return [
        [(1.0, cost + 1.0)] * (steps - 1) + [(1.0, cost)]
        for cost in best_costs
    ]


class TestSuccessiveHalving:
    def test_culls_worse_half_and_reallocates(self):
        controller = SuccessiveHalvingController(rung=10, n_lanes=4)
        budgets = np.array([20, 20, 20, 20], dtype=np.int64)
        n_iters = np.array([10, 10, 10, 10], dtype=np.int64)
        culled = controller.on_step(
            10, [0, 1, 2, 3], budgets, n_iters,
            _trajectories([3.0, 1.0, 4.0, 2.0]),
        )
        assert culled == [0, 2]  # the two worst metrics
        rung = controller.rungs[0]
        assert rung.survivors == (1, 3)
        assert rung.metrics == ((1, 1.0), (3, 2.0), (0, 3.0), (2, 4.0))
        # The pool is every lane's unspent budget (4 x 10, credited once)
        # plus the culled lanes' steps beyond the rung (2 x 10): 60 steps,
        # split evenly over the two survivors.
        assert rung.reallocated == 60
        assert budgets.tolist() == [20, 50, 20, 50]
        assert controller.n_culled == 2
        assert controller.budget_reallocated == 60

    def test_ties_break_to_the_lowest_lane_index(self):
        controller = SuccessiveHalvingController(rung=5, n_lanes=2)
        budgets = np.array([10, 10], dtype=np.int64)
        n_iters = np.array([5, 5], dtype=np.int64)
        culled = controller.on_step(
            5, [0, 1], budgets, n_iters, _trajectories([7.0, 7.0], steps=5)
        )
        assert culled == [1]  # equal metrics: lane 0 survives

    def test_remainder_goes_to_lowest_indexed_survivors(self):
        controller = SuccessiveHalvingController(rung=10, n_lanes=6)
        budgets = np.array([20] * 6, dtype=np.int64)
        n_iters = np.array([10] * 6, dtype=np.int64)
        controller.on_step(
            10, list(range(6)), budgets, n_iters,
            _trajectories([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        )
        # Pool: 6 x 10 unspent + 3 culled x 10 beyond the rung = 90 over the
        # 3 survivors, exactly 30 each.
        assert budgets.tolist() == [50, 50, 50, 20, 20, 20]
        # Uneven pool: 21 + 10 + 10 unspent + 10 from the culled lane = 51
        # over survivors [0, 1]: 26 to lane 0, 25 to lane 1.
        controller = SuccessiveHalvingController(rung=10, n_lanes=3)
        budgets = np.array([31, 20, 20], dtype=np.int64)
        n_iters = np.array([10, 10, 10], dtype=np.int64)
        controller.on_step(
            10, [0, 1, 2], budgets, n_iters, _trajectories([1.0, 2.0, 3.0])
        )
        assert budgets.tolist() == [57, 45, 20]

    def test_fires_only_on_rung_boundaries(self):
        controller = SuccessiveHalvingController(rung=10, n_lanes=2)
        budgets = np.array([20, 20], dtype=np.int64)
        n_iters = np.array([7, 7], dtype=np.int64)
        for step in (3, 7, 11, 19):
            assert controller.on_step(
                step, [0, 1], budgets, n_iters, _trajectories([1.0, 2.0])
            ) == []
        assert controller.rungs == []

    def test_single_survivor_is_never_culled(self):
        controller = SuccessiveHalvingController(rung=10, n_lanes=2)
        budgets = np.array([20, 20], dtype=np.int64)
        n_iters = np.array([10, 3], dtype=np.int64)
        culled = controller.on_step(
            10, [0], budgets, n_iters, _trajectories([1.0, 9.0])
        )
        assert culled == []
        # Lane 1 stalled naturally at step 3 and donates its 17 unspent
        # steps; lane 0's own 10 unspent steps round-trip through the pool.
        assert budgets.tolist() == [47, 20]

    def test_stalled_lane_donates_exactly_once(self):
        controller = SuccessiveHalvingController(rung=10, n_lanes=2)
        budgets = np.array([40, 20], dtype=np.int64)
        n_iters = np.array([10, 4], dtype=np.int64)
        trajectories = _trajectories([1.0, 9.0])
        controller.on_step(10, [0], budgets, n_iters, trajectories)
        # Pool: lane 0's 30 unspent + lane 1's 16 unspent, all to lane 0.
        assert budgets.tolist() == [86, 20]
        n_iters = np.array([20, 4], dtype=np.int64)
        controller.on_step(20, [0], budgets, n_iters, trajectories)
        assert budgets.tolist() == [86, 20]  # both already credited once


# --------------------------------------------------------------------------- #
# Engine: differential replay, determinism, replica accounting
# --------------------------------------------------------------------------- #

class TestPortfolioEngine:
    def test_every_lane_replays_as_a_scalar_walk(self):
        """Culled lanes included: racing reschedules draws, never alters them."""
        seeds = {"etf": {"t0": 0, "t1": 1}}
        packet, kernel, cfg, annealer, outcome = _portfolio_outcome(
            6, seed_assignments=seeds
        )
        plan = annealer.build_lane_plan(kernel, seeds)
        children = split(as_rng(123), cfg.portfolio.lanes)
        moves = cfg.moves_for_packet(packet.n_ready, packet.n_idle)
        assert any(s.culled for s in outcome.replica_stats), (
            "scenario produced no culls; the differential proves too little"
        )
        for b, child in enumerate(children):
            seed_rng, run_rng = _split_rng(child)
            initial_cost = plan.problems[b].cost(
                plan.problems[b].initial_state(seed_rng)
            )
            spec = plan.specs[b]
            stats = outcome.replica_stats[b]
            replay = Annealer(
                acceptance=cfg.acceptance,
                cooling=spec.cooling,
                stopping=CombinedStopping([
                    StallStopping(patience=cfg.stall_patience),
                    MaxIterationsStopping(
                        max_iterations=stats.n_temperature_steps
                    ),
                ]),
                moves_per_temperature=moves,
                initial_temperature=(
                    cfg.initial_temperature * spec.temperature_scale
                ),
                record_trajectory=False,
            )
            result = anneal_array(
                kernel, plan.problems[b], replay, as_rng(run_rng)
            )
            assert result.best_cost == stats.best_cost, f"lane {b}"
            assert result.n_iterations == stats.n_temperature_steps, f"lane {b}"
            assert result.n_proposals == stats.n_proposals, f"lane {b}"
            assert result.n_accepted == stats.n_accepted, f"lane {b}"
            assert result.final_cost == stats.final_cost, f"lane {b}"
            assert initial_cost == stats.initial_cost, f"lane {b}"

    def test_rerun_is_bit_identical(self):
        _, _, _, _, first = _portfolio_outcome(6)
        _, _, _, _, second = _portfolio_outcome(6)
        assert first.assignment == second.assignment
        assert first.best_cost == second.best_cost
        assert first.portfolio.final_budgets == second.portfolio.final_budgets
        assert [s.best_cost for s in first.replica_stats] == [
            s.best_cost for s in second.replica_stats
        ]

    def test_champion_achieves_the_lane_minimum(self):
        _, _, _, _, outcome = _portfolio_outcome(8)
        report = outcome.portfolio
        lane_costs = [s.best_cost for s in outcome.replica_stats]
        assert outcome.best_cost == min(lane_costs)
        assert report.champion == lane_costs.index(min(lane_costs))
        assert report.champion_cost == outcome.best_cost

    def test_trajectories_truncate_at_the_steps_walked(self):
        _, _, _, _, outcome = _portfolio_outcome(6)
        for stats in outcome.replica_stats:
            assert len(stats.temperature_trajectory) == stats.n_temperature_steps
            assert stats.budget is not None
            assert stats.n_temperature_steps <= stats.budget

    def test_summarize_replicas_accounts_for_racing(self):
        _, _, _, _, outcome = _portfolio_outcome(6)
        summary = summarize_replicas(outcome.replica_stats)
        assert summary["n_culled"] == float(outcome.portfolio.n_culled)
        assert summary["n_culled"] + summary["n_surviving"] == 6.0
        assert summary["total_budget"] == float(
            sum(outcome.portfolio.final_budgets)
        )
        assert summary["steps_used"] <= summary["total_budget"]

    def test_summarize_replicas_has_no_racing_keys_off_portfolio(self):
        stats = [
            ReplicaStats(
                replica=0, best_cost=1.0, initial_cost=2.0, final_cost=1.0,
                n_proposals=10, n_accepted=5, n_temperature_steps=3,
            )
        ]
        assert "n_culled" not in summarize_replicas(stats)

    @settings(max_examples=10, deadline=None)
    @given(
        lanes=st.integers(min_value=2, max_value=8),
        packet_seed=st.integers(min_value=0, max_value=50),
        rng_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_champion_cost_bounds_every_lane(self, lanes, packet_seed, rng_seed):
        _, _, _, _, outcome = _portfolio_outcome(
            lanes, packet_seed=packet_seed, rng_seed=rng_seed
        )
        for stats in outcome.replica_stats:
            assert outcome.best_cost <= stats.best_cost


# --------------------------------------------------------------------------- #
# Simulator and scheduler layers
# --------------------------------------------------------------------------- #

class TestPortfolioSimulation:
    @pytest.fixture(scope="class")
    def scenario(self):
        return random_dag(40, 0.15, seed=3), Machine.bus(4)

    def test_fast_object_and_rerun_agree(self, scenario):
        graph, machine = scenario
        results = {}
        for label, fast in (("fast", True), ("object", False), ("rerun", True)):
            policy = SAScheduler(SAConfig.paper_defaults(seed=7))
            results[label] = simulate(
                graph, machine, policy, comm_model=LinearCommModel(),
                record_trace=False, fast=fast, portfolio=4,
            )
        assert results["fast"].fingerprint() == results["object"].fingerprint()
        assert results["fast"].fingerprint() == results["rerun"].fingerprint()

    def test_portfolio_and_replicas_are_mutually_exclusive(self, scenario):
        graph, machine = scenario
        with pytest.raises(SimulationError, match="mutually exclusive"):
            Simulator(
                graph, machine, SAScheduler(), replicas=4, portfolio=4
            )

    def test_policies_without_the_hook_are_rejected(self, scenario):
        graph, machine = scenario
        with pytest.raises(SimulationError, match="with_portfolio"):
            Simulator(graph, machine, HLFScheduler(), portfolio=4)

    def test_best_so_far_snapshot(self, scenario):
        graph, machine = scenario
        policy = SAScheduler(SAConfig.paper_defaults(seed=7)).with_portfolio(4)
        simulate(
            graph, machine, policy, comm_model=LinearCommModel(),
            record_trace=False,
        )
        snapshot = policy.best_so_far()
        assert snapshot["n_packets"] == len(policy.packet_stats) > 0
        assert snapshot["n_tasks_assigned"] == graph.n_tasks
        assert len(snapshot["assignment"]) == graph.n_tasks
        last = snapshot["last_packet"]
        assert last["n_lanes"] == 4
        assert 0 <= last["lane"] < 4
        assert set(last) >= {"cost", "initial", "n_culled", "n_rungs"}
        flat = policy.best_so_far(include_assignment=False)
        assert "assignment" not in flat

    def test_anytime_hook_streams_monotone_snapshots(self, scenario):
        graph, machine = scenario
        policy = SAScheduler(SAConfig.paper_defaults(seed=7))
        seen = []
        policy.anytime_hook = seen.append
        raced = policy.with_portfolio(4)  # the hook must survive the copy
        assert raced.anytime_hook == seen.append
        simulate(
            graph, machine, raced, comm_model=LinearCommModel(),
            record_trace=False,
        )
        assert len(seen) == len(raced.packet_stats)
        counts = [snapshot["n_packets"] for snapshot in seen]
        assert counts == sorted(counts)
        assert all("assignment" not in snapshot for snapshot in seen)

    def test_anytime_hook_survives_the_replicas_copy(self, scenario):
        """simulate(replicas=B) anneals on with_replicas' copy of the policy;
        the hook must reach that copy and fire once per committed packet."""
        graph, machine = scenario
        policy = SAScheduler(SAConfig.paper_defaults(seed=7))
        seen = []
        policy.anytime_hook = seen.append
        assert policy.with_replicas(2).anytime_hook == seen.append
        result = simulate(
            graph, machine, policy, comm_model=LinearCommModel(),
            record_trace=False, replicas=2,
        )
        assert result.n_packets > 0
        assert [snapshot["n_packets"] for snapshot in seen] == list(
            range(1, result.n_packets + 1)
        )

    def test_reset_clears_the_anytime_state(self, scenario):
        graph, machine = scenario
        policy = SAScheduler(SAConfig.paper_defaults(seed=7)).with_portfolio(2)
        simulate(
            graph, machine, policy, comm_model=LinearCommModel(),
            record_trace=False,
        )
        policy.reset()
        snapshot = policy.best_so_far()
        assert snapshot["n_packets"] == 0
        assert snapshot["n_tasks_assigned"] == 0
        assert "last_packet" not in snapshot


# --------------------------------------------------------------------------- #
# Sweep integration
# --------------------------------------------------------------------------- #

class TestPortfolioSweep:
    def test_build_grid_validates_portfolio(self):
        from repro.experiments.sweep import build_grid

        with pytest.raises(ValueError, match="portfolio"):
            build_grid(
                policies=["SA"], machines=["full4"], families=["dag"],
                n_seeds=1, portfolio=1,
            )
        with pytest.raises(ValueError, match="mutually exclusive"):
            build_grid(
                policies=["SA"], machines=["full4"], families=["dag"],
                n_seeds=1, replicas=4, portfolio=4,
            )

    def test_portfolio_applies_to_sa_rows_only(self):
        from repro.experiments.sweep import build_grid

        grid = build_grid(
            policies=["SA", "HLF"], machines=["full4"], families=["dag"],
            n_seeds=1, portfolio=4,
        )
        by_policy = {spec["policy"]: spec for spec in grid}
        assert by_policy["SA"]["portfolio"] == 4
        assert by_policy["HLF"]["portfolio"] is None

    def test_rows_are_invariant_to_jobs(self, tmp_path):
        from repro.experiments.sweep import comparable_rows, run_sweep

        reports = []
        for jobs in (1, 2):
            out = tmp_path / f"portfolio_jobs{jobs}.json"
            reports.append(
                run_sweep(
                    policies=["SA"], machines=["full4"], families=["dag"],
                    n_seeds=1, jobs=jobs, out=str(out), portfolio=4,
                )
            )
        assert comparable_rows(reports[0]) == comparable_rows(reports[1])
        assert reports[0]["meta"]["portfolio"] == 4
        row = reports[0]["results"][0]
        assert row["portfolio"] == 4
        assert row["error"] is None
