"""The lane engine: lane-wise bit-identity with the solo fast engine.

The lane engine's contract is that every lane of a :func:`run_lanes` call
is **bit-identical** to a solo :func:`run_compiled` run of the same cell;
these tests pin it five ways:

* differentially under hypothesis — batches of 2-5 mixed lanes (random
  graphs and workload-zoo families × homogeneous and heterogeneous machines
  × every kernelized policy × comm on/off), raw fingerprint equality per
  lane at both fidelities;
* structurally — lane-count dispatch (B ∈ {1, 3, 8}), ragged lane shapes,
  mixed-policy batches, SA lanes, and context-only lanes
  (``n_fallback_epochs`` parity with the solo engine);
* by routing — which lanes step in lock step and which run solo
  (:class:`TestLaneRouting`);
* defensively — the batched kernel validator rejects malformed
  ``batch_assign`` triples with :class:`SchedulingError`;
* at the API surface — empty lane lists and the bad-fidelity guard of
  :func:`run_lanes` (one lane and two) and :func:`run_compiled`.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.comm.model import LinearCommModel, ZeroCommModel
from repro.core.config import SAConfig
from repro.core.sa_scheduler import SAScheduler
from repro.exceptions import SchedulingError, SimulationError
from repro.experiments.sweep import hetero_machine
from repro.machine.machine import Machine
from repro.schedulers.base import SchedulingPolicy
from repro.schedulers.etf import ETFScheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.hlf import HLFScheduler
from repro.schedulers.lpt import LPTScheduler
from repro.schedulers.random_policy import RandomScheduler
from repro.sim.batch_engine import run_lanes
from repro.sim.compile import compile_scenario
from repro.sim.fast_engine import run_compiled
from repro.taskgraph.families import FAMILIES
from repro.taskgraph.generators import layered_random, random_dag
from repro.taskgraph.graph import TaskGraph

# --------------------------------------------------------------------------- #
# Shared builders
# --------------------------------------------------------------------------- #

_POLICY_FACTORIES = {
    "ETF": lambda seed: ETFScheduler(),
    "HLF": lambda seed: HLFScheduler(seed=seed),
    "HLF/min-comm": lambda seed: HLFScheduler(placement="min_comm"),
    "HLF/fastest": lambda seed: HLFScheduler(placement="fastest"),
    "HLF/index": lambda seed: HLFScheduler(placement="index"),
    "LPT": lambda seed: LPTScheduler(),
    "FIFO": lambda seed: FIFOScheduler(),
    "Random": lambda seed: RandomScheduler(seed=seed),
}

_MACHINES = [
    Machine.hypercube(2),
    Machine.hypercube(3),
    Machine.ring(5),
    Machine.bus(6),
    Machine.mesh(2, 3),
    Machine.ring(
        7,
        speeds=[1.0, 2.0, 1.0, 3.0, 1.0, 0.5, 1.0],
        link_weights={(0, 1): 2.0, (3, 4): 0.5},
    ),
    Machine.hypercube(3, speeds=[1.0 + 0.25 * i for i in range(8)]),
]


def _compile_cell(graph, machine, comm_model):
    graph.validate()
    return compile_scenario(graph, machine, comm_model)


def _solo_and_batched(cells, fidelity="latency"):
    """Run *cells* = [(scenario, policy factory)] both ways; return results."""
    solo = []
    for scenario, factory in cells:
        policy = factory()
        policy.reset()
        solo.append(run_compiled(scenario, policy, fidelity=fidelity))
    lanes = []
    for scenario, factory in cells:
        policy = factory()
        policy.reset()
        lanes.append((scenario, policy))
    return solo, run_lanes(lanes, fidelity=fidelity)


def _assert_lanes_identical(solo, batched):
    assert len(solo) == len(batched)
    for lane, (a, b) in enumerate(zip(solo, batched)):
        assert a.fingerprint() == b.fingerprint(), f"lane {lane} diverged"
        assert a.task_processor == b.task_processor
        assert a.n_fallback_epochs == b.n_fallback_epochs


# --------------------------------------------------------------------------- #
# Hypothesis differential: batches of mixed lanes vs their solo runs
# --------------------------------------------------------------------------- #

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _lane_cells(draw):
    """2-5 heterogeneous (graph, machine, policy factory) lane cells.

    Graphs mix the random generators with workload-zoo families (drawn near
    the lower end of each family's parameter grid to keep examples fast).
    """
    n = draw(st.integers(2, 5))
    cells = []
    for _ in range(n):
        kind = draw(st.sampled_from(["layered", "dag", "sparse", "family"]))
        seed = draw(st.integers(0, 10_000))
        if kind == "layered":
            graph = layered_random(
                n_layers=draw(st.integers(1, 4)),
                width=draw(st.integers(1, 5)),
                edge_probability=0.4,
                mean_comm=5.0,
                seed=seed,
            )
        elif kind == "dag":
            graph = random_dag(draw(st.integers(1, 25)), edge_probability=0.25, seed=seed)
        elif kind == "sparse":
            graph = random_dag(draw(st.integers(1, 35)), edge_probability=0.05, seed=seed)
        else:
            spec = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
            params = {
                name: draw(st.integers(lo, min(hi, lo + 8)))
                for name, (lo, hi) in sorted(spec.param_grid.items())
            }
            graph = spec.build(seed=seed, **params)
        machine = draw(st.sampled_from(_MACHINES))
        policy_name = draw(st.sampled_from(sorted(_POLICY_FACTORIES)))
        policy_seed = draw(st.integers(0, 100))
        comm_off = draw(st.booleans())
        cells.append((graph, machine, policy_name, policy_seed, comm_off))
    return cells


class TestDifferentialEquivalence:
    @given(cells=_lane_cells(), fidelity=st.sampled_from(["latency", "contention"]))
    @_SETTINGS
    def test_every_lane_matches_its_solo_run(self, cells, fidelity):
        compiled = []
        for graph, machine, policy_name, policy_seed, comm_off in cells:
            comm_model = ZeroCommModel() if comm_off else LinearCommModel()
            scenario = _compile_cell(graph, machine, comm_model)
            factory = _POLICY_FACTORIES[policy_name]
            compiled.append((scenario, lambda f=factory, s=policy_seed: f(s)))
        solo, batched = _solo_and_batched(compiled, fidelity=fidelity)
        _assert_lanes_identical(solo, batched)


# --------------------------------------------------------------------------- #
# Fixed structural cases
# --------------------------------------------------------------------------- #


def _dag_cells(n, policy_factory):
    """n lanes of varied random DAGs over alternating machines."""
    machines = [Machine.hypercube(3), Machine.ring(9), Machine.mesh(2, 3)]
    comm = LinearCommModel()
    cells = []
    for i in range(n):
        graph = random_dag(
            10 + 7 * i, edge_probability=0.15, mean_duration=12.0,
            mean_comm=6.0, seed=i,
        )
        scenario = _compile_cell(graph, machines[i % len(machines)], comm)
        cells.append((scenario, policy_factory))
    return cells


class TestLaneStructure:
    @pytest.mark.parametrize("n_lanes", [1, 3, 8])
    def test_run_lanes_matches_solo_at_any_width(self, n_lanes):
        """B ∈ {1, 3, 8} through the dispatcher, incl. the B=1 solo path."""
        cells = _dag_cells(n_lanes, lambda: HLFScheduler(seed=0))
        solo = []
        for scenario, factory in cells:
            policy = factory()
            policy.reset()
            solo.append(run_compiled(scenario, policy))
        lanes = []
        for scenario, factory in cells:
            policy = factory()
            policy.reset()
            lanes.append((scenario, policy))
        _assert_lanes_identical(solo, run_lanes(lanes))

    def test_ragged_lanes(self):
        """Wildly mismatched task and processor counts batch correctly."""
        comm = LinearCommModel()
        shapes = [
            (TaskGraph("single"), Machine.hypercube(2)),
            (random_dag(40, edge_probability=0.1, seed=7), Machine.mesh(4, 4)),
            (random_dag(3, edge_probability=0.5, seed=2), Machine.bus(2)),
            (layered_random(n_layers=5, width=6, edge_probability=0.4,
                            mean_comm=6.0, seed=4), Machine.ring(9)),
        ]
        shapes[0][0].add_task("only", 3.0)
        cells = [
            (_compile_cell(graph, machine, comm), lambda: ETFScheduler())
            for graph, machine in shapes
        ]
        solo, batched = _solo_and_batched(cells)
        _assert_lanes_identical(solo, batched)

    def test_empty_graph_lane(self):
        """A zero-task lane finishes immediately without disturbing others."""
        comm = LinearCommModel()
        cells = [
            (_compile_cell(TaskGraph("empty"), Machine.hypercube(2), comm),
             lambda: HLFScheduler(seed=0)),
            (_compile_cell(random_dag(12, edge_probability=0.2, seed=1),
                           Machine.ring(5), comm),
             lambda: HLFScheduler(seed=0)),
        ]
        solo, batched = _solo_and_batched(cells)
        _assert_lanes_identical(solo, batched)
        assert batched[0].makespan == 0.0

    def test_mixed_policies_in_one_batch(self):
        """Different kernel groups (and fallbacks) coexist in one run."""
        comm = LinearCommModel()
        graph = random_dag(25, edge_probability=0.15, mean_comm=5.0, seed=3)
        machine = Machine.hypercube(3)
        scenario = _compile_cell(graph, machine, comm)
        factories = [
            lambda: ETFScheduler(),
            lambda: HLFScheduler(seed=1),
            lambda: HLFScheduler(placement="min_comm"),
            lambda: LPTScheduler(),
            lambda: FIFOScheduler(),
            lambda: RandomScheduler(seed=5),
        ]
        cells = [(scenario, factory) for factory in factories]
        for fidelity in ("latency", "contention"):
            solo, batched = _solo_and_batched(cells, fidelity=fidelity)
            _assert_lanes_identical(solo, batched)

    def test_weighted_link_lanes_mix_comm_models(self):
        """hetero-* machines (weighted links) with zero- and linear-comm
        lanes in one lock step: every lane prices its messages from its own
        machine tables (all zeros for the zero-comm lanes) like its solo run."""
        machines = [
            hetero_machine("ring9", 2.0),
            hetero_machine("mesh16", 4.0),
            hetero_machine("hypercube8", 1.0),
        ]
        factories = [
            lambda: ETFScheduler(),
            lambda: HLFScheduler(seed=3),
            lambda: HLFScheduler(placement="min_comm"),
            lambda: LPTScheduler(),
        ]
        combos = itertools.product(machines, (LinearCommModel(), ZeroCommModel()), factories)
        cells = []
        for i, (machine, comm, factory) in enumerate(combos):
            graph = random_dag(
                15 + i, edge_probability=0.15, mean_duration=12.0, mean_comm=6.0,
                seed=40 + i,
            )
            cells.append((_compile_cell(graph, machine, comm), factory))
        solo, batched = _solo_and_batched(cells)
        _assert_lanes_identical(solo, batched)

    def test_sa_lanes_match_solo(self):
        """SA lanes (no batch kernel) run solo inside the call, identically."""
        cells = _dag_cells(
            3, lambda: SAScheduler(SAConfig.paper_defaults(seed=2))
        )
        solo, batched = _solo_and_batched(cells)
        _assert_lanes_identical(solo, batched)


# --------------------------------------------------------------------------- #
# Context-only lanes (solo runs inside the call)
# --------------------------------------------------------------------------- #


class _CtxOnlyPolicy(SchedulingPolicy):
    """A policy with no fast/batch kernel: first ready task to first idle."""

    name = "ctx-only"

    def assign(self, ctx):
        if not ctx.ready_tasks or not ctx.idle_processors:
            return {}
        return {ctx.ready_tasks[0]: ctx.idle_processors[0]}


class TestFallback:
    def test_ctx_only_policy_counts_fallback_epochs(self):
        cells = _dag_cells(3, lambda: _CtxOnlyPolicy())
        solo, batched = _solo_and_batched(cells)
        _assert_lanes_identical(solo, batched)
        for result in batched:
            assert result.n_fallback_epochs > 0

    def test_kernelized_policies_never_fall_back(self):
        cells = _dag_cells(3, lambda: HLFScheduler(seed=0))
        _, batched = _solo_and_batched(cells)
        for result in batched:
            assert result.n_fallback_epochs == 0


# --------------------------------------------------------------------------- #
# Lane routing: lock step or solo, decided per lane
# --------------------------------------------------------------------------- #


class _DecliningKernel(_CtxOnlyPolicy):
    """A batch kernel that always declines, over a policy with no fast path."""

    name = "declining-kernel"

    def batch_assign(self, epoch, policies):
        return None


def _spy_stack(monkeypatch):
    """Record the scenario ids of every ``stack_scenarios`` call."""
    import repro.sim.batch_engine as batch_module

    stacked = []
    real = batch_module.stack_scenarios

    def spy(scenarios):
        stacked.append([id(sc) for sc in scenarios])
        return real(scenarios)

    monkeypatch.setattr(batch_module, "stack_scenarios", spy)
    return stacked


def test_lane_group_leaves_numpy_ma_unimported():
    """The lock step dedupes newly ready tasks without ``np.unique``, which
    imports ``numpy.ma`` into every forked sweep worker."""
    code = (
        "import sys; "
        "from repro.experiments.sweep import build_grid, run_lane_group; "
        "specs = build_grid(policies=('HLF', 'ETF'), machines=('hypercube8',), "
        "families=('dag',), n_seeds=2); "
        "rows = run_lane_group(specs); "
        "assert [r['engine_used'] for r in rows] == ['batched'] * 4, rows; "
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"


class TestLaneRouting:
    def test_latency_call_steps_only_kernel_lanes(self, monkeypatch):
        """HLF and ETF step together; SA and context-only lanes run solo."""
        factories = [
            lambda: HLFScheduler(seed=0),
            lambda: SAScheduler(SAConfig.paper_defaults(seed=1)),
            lambda: ETFScheduler(),
            lambda: _CtxOnlyPolicy(),
            lambda: SAScheduler(SAConfig.paper_defaults(seed=2)),
        ]
        scenarios = [scenario for scenario, _ in _dag_cells(5, None)]
        stacked = _spy_stack(monkeypatch)
        solo, lanes = _solo_and_batched(list(zip(scenarios, factories)))
        _assert_lanes_identical(solo, lanes)
        assert [r.policy_name for r in lanes] == [r.policy_name for r in solo]
        assert stacked == [[id(scenarios[0]), id(scenarios[2])]]

    def test_contention_call_never_stacks(self, monkeypatch):
        cells = _dag_cells(3, lambda: ETFScheduler())
        stacked = _spy_stack(monkeypatch)
        solo, lanes = _solo_and_batched(cells, fidelity="contention")
        _assert_lanes_identical(solo, lanes)
        assert [r.fidelity for r in lanes] == ["contention"] * 3
        assert stacked == []

    def test_lone_kernel_lane_runs_solo(self, monkeypatch):
        cells = _dag_cells(2, lambda: HLFScheduler(seed=0))
        cells[1] = (cells[1][0], lambda: _CtxOnlyPolicy())
        stacked = _spy_stack(monkeypatch)
        solo, lanes = _solo_and_batched(cells)
        _assert_lanes_identical(solo, lanes)
        assert stacked == []

    def test_kernel_and_fast_path_both_declining_raises(self):
        cells = _dag_cells(2, lambda: _DecliningKernel())
        lanes = [(scenario, factory()) for scenario, factory in cells]
        with pytest.raises(SimulationError, match="declining-kernel"):
            run_lanes(lanes)
        # One such lane runs solo, where the context fallback serves it.
        [result] = run_lanes([(cells[0][0], _DecliningKernel())])
        assert result.n_fallback_epochs > 0

    def test_declining_cell_steps_down_to_its_solo_row(self, monkeypatch):
        from repro.experiments import sweep

        monkeypatch.setitem(
            sweep.POLICY_BUILDERS, "declining", lambda seed: _DecliningKernel()
        )
        specs = [
            {"policy": "declining", "machine": "hypercube8", "family": "dag",
             "graph_seed": seed, "policy_seed": seed, "with_comm": True,
             "fidelity": "latency"}
            for seed in (0, 1)
        ]
        rows = sweep.run_lane_group([dict(spec) for spec in specs])
        for spec, row in zip(specs, rows):
            expected = sweep.run_scenario(dict(spec))
            for key in sweep.SCIENCE_FIELDS:
                assert row.get(key) == expected.get(key), key
            assert row["engine_used"] == "fast"
            assert row["lane_fallback"]["error_type"] == "SimulationError"
            assert "declining-kernel" in row["lane_fallback"]["error"]


# --------------------------------------------------------------------------- #
# Batched kernel validation
# --------------------------------------------------------------------------- #


class _BrokenKernel(SchedulingPolicy):
    """A batch kernel returning malformed triples; *mode* picks the defect."""

    name = "broken"

    def __init__(self, mode: str) -> None:
        self.mode = mode

    def assign(self, ctx):  # pragma: no cover - kernel always intercepts
        return {}

    def batch_assign(self, epoch, policies):
        lane = int(epoch.lanes[0])
        lanes = np.array([lane, lane], dtype=np.intp)
        if self.mode == "task-dup":
            return lanes, np.array([0, 0]), np.array([0, 1])
        if self.mode == "proc-dup":
            return lanes, np.array([0, 1]), np.array([0, 0])
        # not-ready: task 1 has an unfinished predecessor at t=0.
        return lanes[:1], np.array([1]), np.array([0])


def _chain_graph():
    graph = TaskGraph("chain")
    graph.add_task("a", 2.0)
    graph.add_task("b", 1.0)
    graph.add_dependency("a", "b", comm=1.0)
    return graph


def _two_roots_graph():
    graph = TaskGraph("roots")
    graph.add_task("x", 2.0)
    graph.add_task("y", 3.0)
    return graph


class TestKernelValidation:
    @pytest.mark.parametrize("mode,match", [
        ("task-dup", "task assigned more than once"),
        ("proc-dup", "processor assigned more than one task"),
        ("not-ready", "is not ready"),
    ])
    def test_malformed_triples_rejected(self, mode, match):
        graph = _chain_graph() if mode == "not-ready" else _two_roots_graph()
        scenario = _compile_cell(graph, Machine.hypercube(2), LinearCommModel())
        lanes = [(scenario, _BrokenKernel(mode)), (scenario, _BrokenKernel(mode))]
        with pytest.raises(SchedulingError, match=match):
            run_lanes(lanes)


# --------------------------------------------------------------------------- #
# Lane API surface
# --------------------------------------------------------------------------- #


class TestLaneApi:
    def test_empty_cells(self):
        assert run_lanes([]) == []

    def test_bad_fidelity_rejected(self):
        graph = _two_roots_graph()
        scenario = _compile_cell(graph, Machine.hypercube(2), LinearCommModel())
        with pytest.raises(SimulationError, match="fidelity"):
            run_lanes(
                [(scenario, HLFScheduler(seed=0)), (scenario, HLFScheduler(seed=0))],
                fidelity="exact",
            )
        with pytest.raises(SimulationError, match="fidelity"):
            run_lanes([(scenario, HLFScheduler(seed=0))], fidelity="exact")
        with pytest.raises(SimulationError, match="fidelity"):
            run_compiled(scenario, HLFScheduler(seed=0), fidelity="Contention")
