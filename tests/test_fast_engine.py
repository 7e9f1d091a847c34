"""The compiled fast engine: equivalence, dispatch and compilation tests.

The fast engine's contract is *bit-for-bit identity* with the reference
object engine; these tests pin it three ways:

* against the golden-trace fixtures — the same fingerprints the reference
  engine is pinned to, so the two engines are tied to one stored truth
  (all 24 Table-2 cells under SA through the lazy-context fallback, plus the
  random-graph scenarios);
* differentially under hypothesis — random DAGs × (homogeneous and
  heterogeneous) machines × every policy, fast vs reference fingerprints;
* structurally — CSR layout, cost tables against the scalar equation-4
  model, dispatch and the custom-comm-model guard (the contention fidelity
  has its own equivalence suite in ``test_contention_engine.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm.model import (
    CommunicationModel,
    LinearCommModel,
    ZeroCommModel,
    effective_comm_cost,
)
from repro.core.config import SAConfig
from repro.core.sa_scheduler import SAScheduler
from repro.exceptions import SimulationError
from repro.machine.machine import Machine
from repro.schedulers.etf import ETFScheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.hlf import HLFScheduler
from repro.schedulers.lpt import LPTScheduler
from repro.schedulers.random_policy import RandomScheduler
from repro.experiments.sweep import GRAPH_FAMILIES, hetero_machine
from repro.sim.compile import compile_scenario, stack_scenarios, supports_comm_model
from repro.sim.engine import Simulator, simulate
from repro.taskgraph.generators import layered_random, random_dag
from repro.taskgraph.graph import TaskGraph
from repro.workloads.suite import PAPER_PROGRAMS

from test_golden_trace import RANDOM_SCENARIOS, TABLE2_CELLS, _ARCH_BUILDERS


# --------------------------------------------------------------------------- #
# Golden-trace equivalence: the fast engine must reproduce the very same
# fingerprints the reference engine is pinned to.
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("program,architecture,comm", TABLE2_CELLS,
                         ids=[f"{p}-{a.split(' ')[0]}-{c}" for p, a, c in TABLE2_CELLS])
def test_fast_engine_matches_golden_table2_cell(program, architecture, comm, golden_table2):
    graph = PAPER_PROGRAMS[program].build(seed=0)
    machine = _ARCH_BUILDERS[architecture]()
    comm_model = LinearCommModel() if comm == "with" else ZeroCommModel()
    result = simulate(
        graph,
        machine,
        SAScheduler(SAConfig.paper_defaults(seed=1)),
        comm_model=comm_model,
        record_trace=True,
        fast=True,
    )
    result.trace.validate(graph)
    golden_table2.check(f"{program}|{architecture}|{comm}", result.fingerprint())


_FAST_RANDOM_SCENARIOS = {
    "layered-seed0-hypercube8-SA": lambda: simulate(
        layered_random(
            n_layers=6, width=8, edge_probability=0.4,
            mean_duration=20.0, mean_comm=8.0, seed=0,
        ),
        Machine.hypercube(3),
        SAScheduler(SAConfig.paper_defaults(seed=0)),
        comm_model=LinearCommModel(),
        record_trace=True,
        fast=True,
    ),
    "dag40-seed0-ring9-SA": lambda: simulate(
        random_dag(40, edge_probability=0.2, mean_duration=15.0, mean_comm=5.0, seed=0),
        Machine.ring(9),
        SAScheduler(SAConfig.paper_defaults(seed=0)),
        comm_model=LinearCommModel(),
        record_trace=True,
        fast=True,
    ),
}

assert sorted(_FAST_RANDOM_SCENARIOS) == sorted(RANDOM_SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(_FAST_RANDOM_SCENARIOS),
                         ids=sorted(_FAST_RANDOM_SCENARIOS))
def test_fast_engine_matches_golden_random_graphs(scenario, golden_random):
    result = _FAST_RANDOM_SCENARIOS[scenario]()
    result.trace.validate()
    golden_random.check(scenario, result.fingerprint())


# --------------------------------------------------------------------------- #
# Differential equivalence on fixed scenarios (hom + hetero machine family)
# --------------------------------------------------------------------------- #

def _hetero_machine(seed: int) -> Machine:
    rng = np.random.default_rng(seed)
    kind = ["ring", "hypercube", "mesh"][seed % 3]
    if kind == "ring":
        build, n = (lambda **kw: Machine.ring(9, **kw)), 9
        topology = Machine.ring(9).topology
    elif kind == "hypercube":
        build, n = (lambda **kw: Machine.hypercube(3, **kw)), 8
        topology = Machine.hypercube(3).topology
    else:
        build, n = (lambda **kw: Machine.mesh(4, 4, **kw)), 16
        topology = Machine.mesh(4, 4).topology
    speeds = rng.uniform(0.5, 4.0, n).tolist()
    link_weights = {
        tuple(sorted(l)): float(rng.uniform(0.5, 3.0)) for l in topology.links()
    }
    return build(speeds=speeds, link_weights=link_weights)


_POLICY_FACTORIES = {
    "ETF": lambda seed: ETFScheduler(),
    "HLF": lambda seed: HLFScheduler(seed=seed),
    "HLF/min-comm": lambda seed: HLFScheduler(placement="min_comm"),
    "HLF/fastest": lambda seed: HLFScheduler(placement="fastest"),
    "HLF/index": lambda seed: HLFScheduler(placement="index"),
    "LPT": lambda seed: LPTScheduler(),
    "FIFO": lambda seed: FIFOScheduler(),
    "Random": lambda seed: RandomScheduler(seed=seed),
    "SA": lambda seed: SAScheduler(SAConfig.paper_defaults(seed=seed)),
}


@pytest.mark.parametrize("policy_name", sorted(_POLICY_FACTORIES))
@pytest.mark.parametrize("seed", range(10))
def test_fast_engine_bit_identical_on_hetero_machines(policy_name, seed):
    """10 randomized heterogeneous scenarios × every policy, fast vs reference."""
    if policy_name == "SA" and seed >= 5:
        pytest.skip("SA covered on 5 hetero scenarios; annealing dominates runtime")
    graph = random_dag(
        20 + 4 * seed, edge_probability=0.15, mean_duration=12.0, mean_comm=6.0, seed=seed
    )
    machine = _hetero_machine(seed)
    make = _POLICY_FACTORIES[policy_name]
    reference = simulate(
        graph, machine, make(seed), comm_model=LinearCommModel(),
        record_trace=True, fast=False,
    )
    fast = simulate(
        graph, machine, make(seed), comm_model=LinearCommModel(),
        record_trace=True, fast=True,
    )
    assert reference.fingerprint() == fast.fingerprint()
    assert reference.task_processor == fast.task_processor


def test_fast_engine_bit_identical_without_traces():
    """The auto-dispatched (traceless) fast path matches the object engine."""
    graph = layered_random(n_layers=5, width=7, edge_probability=0.4,
                           mean_duration=18.0, mean_comm=7.0, seed=3)
    machine = Machine.hypercube(3)
    for make in (lambda: ETFScheduler(), lambda: HLFScheduler(seed=1), lambda: LPTScheduler()):
        ref = simulate(graph, machine, make(), comm_model=LinearCommModel(),
                       record_trace=False, fast=False)
        fast = simulate(graph, machine, make(), comm_model=LinearCommModel(),
                        record_trace=False)  # fast=None -> auto-dispatch
        assert ref.fingerprint() == fast.fingerprint()
        assert ref.makespan == fast.makespan
        assert ref.n_packets == fast.n_packets


# --------------------------------------------------------------------------- #
# Hypothesis differential tests
# --------------------------------------------------------------------------- #

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_machines = st.sampled_from(
    [
        Machine.hypercube(2),
        Machine.hypercube(3),
        Machine.ring(5),
        Machine.bus(6),
        Machine.mesh(2, 3),
        Machine.ring(7, speeds=[1.0, 2.0, 1.0, 3.0, 1.0, 0.5, 1.0],
                     link_weights={(0, 1): 2.0, (3, 4): 0.5}),
        Machine.hypercube(3, speeds=[1.0 + 0.25 * i for i in range(8)]),
    ]
)

_policy_factories = st.sampled_from(sorted(_POLICY_FACTORIES))


@st.composite
def _graphs(draw):
    kind = draw(st.sampled_from(["layered", "dag", "sparse"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "layered":
        return layered_random(
            n_layers=draw(st.integers(1, 5)), width=draw(st.integers(1, 6)),
            edge_probability=0.4, mean_comm=5.0, seed=seed,
        )
    if kind == "dag":
        return random_dag(draw(st.integers(1, 30)), edge_probability=0.25, seed=seed)
    return random_dag(draw(st.integers(1, 40)), edge_probability=0.05, seed=seed)


class TestDifferentialEquivalence:
    @given(graph=_graphs(), machine=_machines, policy_name=_policy_factories,
           comm_off=st.booleans(), seed=st.integers(0, 100))
    @_SETTINGS
    def test_fast_matches_reference_fingerprint(
        self, graph, machine, policy_name, comm_off, seed
    ):
        if policy_name == "SA" and graph.n_tasks > 20:
            graph = random_dag(15, edge_probability=0.2, seed=seed)  # keep SA examples quick
        make = _POLICY_FACTORIES[policy_name]
        comm_model = ZeroCommModel() if comm_off else LinearCommModel()
        ref = simulate(graph, machine, make(seed), comm_model=comm_model,
                       record_trace=True, fast=False)
        fast = simulate(graph, machine, make(seed), comm_model=comm_model,
                        record_trace=True, fast=True)
        assert ref.fingerprint() == fast.fingerprint()
        assert ref.task_processor == fast.task_processor


# --------------------------------------------------------------------------- #
# Dispatch and the foldable-comm-model guard
# --------------------------------------------------------------------------- #

class _CustomComm(CommunicationModel):
    def cost(self, machine, weight, src_proc, dst_proc):
        return 1.0 if src_proc != dst_proc else 0.0


class TestDispatch:
    def test_fast_true_accepts_contention_fidelity(self, diamond_graph, hypercube8):
        """The fast engine covers contention; forcing it matches the oracle."""
        fast = simulate(diamond_graph, hypercube8, HLFScheduler(seed=0),
                        fidelity="contention", fast=True)
        ref = simulate(diamond_graph, hypercube8, HLFScheduler(seed=0),
                       fidelity="contention", fast=False)
        assert fast.fingerprint() == ref.fingerprint()

    def test_fast_true_refuses_custom_comm_model(self, diamond_graph, hypercube8):
        with pytest.raises(SimulationError, match="fold"):
            simulate(diamond_graph, hypercube8, HLFScheduler(seed=0),
                     comm_model=_CustomComm(), fast=True)

    def test_auto_dispatch_covers_contention(self, diamond_graph, hypercube8):
        """fast=None sends traceless contention runs through the fast engine."""
        sim = Simulator(diamond_graph, hypercube8, HLFScheduler(seed=0),
                        fidelity="contention", record_trace=False)
        assert sim._use_fast_engine()
        result = sim.run()
        assert result.makespan > 0.0
        assert result.fidelity == "contention"

    def test_auto_dispatch_falls_back_on_custom_model(self, diamond_graph, hypercube8):
        result = simulate(diamond_graph, hypercube8, HLFScheduler(seed=0),
                          comm_model=_CustomComm(), record_trace=False)
        assert result.makespan > 0.0

    def test_auto_dispatch_uses_fast_engine_for_latency_runs(self, diamond_graph, hypercube8):
        sim = Simulator(diamond_graph, hypercube8, HLFScheduler(seed=0), record_trace=False)
        assert sim._use_fast_engine()

    def test_trace_recording_keeps_object_engine_under_auto(self, diamond_graph, hypercube8):
        sim = Simulator(diamond_graph, hypercube8, HLFScheduler(seed=0), record_trace=True)
        assert not sim._use_fast_engine()

    def test_fast_false_opts_out(self, diamond_graph, hypercube8):
        sim = Simulator(diamond_graph, hypercube8, HLFScheduler(seed=0),
                        record_trace=False, fast=False)
        assert not sim._use_fast_engine()

    def test_supports_comm_model_is_exact_typed(self):
        assert supports_comm_model(LinearCommModel())
        assert supports_comm_model(ZeroCommModel())
        assert not supports_comm_model(_CustomComm())

        class _SubLinear(LinearCommModel):
            def cost(self, machine, weight, src_proc, dst_proc):
                return 42.0

        assert not supports_comm_model(_SubLinear())

    def test_empty_graph_fast_run(self, hypercube8):
        result = simulate(TaskGraph("empty"), hypercube8, HLFScheduler(seed=0), fast=True)
        assert result.makespan == 0.0


# --------------------------------------------------------------------------- #
# CompiledScenario structure
# --------------------------------------------------------------------------- #

def _numpy_bytes(root, skip) -> int:
    """Bytes of the numpy buffers reachable from *root*, not through *skip*."""
    import gc

    skipped = {id(obj) for obj in skip}
    seen, total, stack = set(), 0, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in skipped or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray) and obj.base is None:
            total += obj.nbytes
        stack.extend(gc.get_referents(obj))
    return total


class TestCompiledScenario:
    def test_csr_layout_matches_graph(self, diamond_graph, hypercube8):
        sc = compile_scenario(diamond_graph, hypercube8, LinearCommModel())
        assert sc.task_ids == ["a", "b", "c", "d"]
        # d's predecessors are b and c, in graph order, with their weights.
        d = sc.index_of["d"]
        lo, hi = sc.pred_indptr[d], sc.pred_indptr[d + 1]
        assert [sc.task_ids[i] for i in sc.pred_ids[lo:hi]] == ["b", "c"]
        assert list(sc.pred_weights[lo:hi]) == [0.5, 0.5]
        # a's successors are b and c.
        a = sc.index_of["a"]
        lo, hi = sc.succ_indptr[a], sc.succ_indptr[a + 1]
        assert [sc.task_ids[i] for i in sc.succ_ids[lo:hi]] == ["b", "c"]
        assert sc.durations_list == [2.0, 3.0, 1.0, 2.0]

    @pytest.mark.parametrize("machine_factory", [
        lambda: Machine.hypercube(3),
        lambda: Machine.ring(9),
        lambda: Machine.bus(8),
        lambda: Machine.ring(5, speeds=[1, 2, 1, 3, 1],
                             link_weights={(0, 1): 2.5, (2, 3): 0.5}),
        lambda: hetero_machine("hypercube8", 4.0),
        lambda: hetero_machine("mesh16", 2.0),
    ])
    def test_cost_tables_match_scalar_equation4(self, machine_factory):
        machine = machine_factory()
        model = LinearCommModel()
        weights = (0.0, 0.5, 1.0, 7.25)
        graph = TaskGraph("fan-in")
        graph.add_task("sink", 1.0)
        for k, weight in enumerate(weights):
            graph.add_task(f"src{k}", 1.0)
            graph.add_dependency(f"src{k}", "sink", comm=weight)
        sc = compile_scenario(graph, machine, model)
        sink = sc.index_of["sink"]
        entries = range(int(sc.pred_indptr[sink]), int(sc.pred_indptr[sink + 1]))
        assert sorted(float(sc.pred_weights[e]) for e in entries) == list(weights)
        procs = np.arange(machine.n_processors)
        for e in entries:
            weight = float(sc.pred_weights[e])
            table = sc.pred_table(e)
            for u in range(machine.n_processors):
                for v in range(machine.n_processors):
                    assert table[u, v] == model.cost(machine, weight, u, v)
            # The gathered rows the engines and kernels read are the same.
            rows = sc.cost_rows(np.full(len(procs), e), procs)
            assert np.array_equal(rows, table)

    def test_zero_model_costs_are_free(self, diamond_graph, hypercube8):
        sc = compile_scenario(diamond_graph, hypercube8, ZeroCommModel())
        assert not sc.comm_enabled
        assert sc.pred_table(0) is None

    def test_graph_half_is_shared_across_machines(
        self, diamond_graph, hypercube8, ring9, monkeypatch
    ):
        calls = []
        levels = diamond_graph.levels

        def spy(*args, **kwargs):
            calls.append(args)
            return levels(*args, **kwargs)

        monkeypatch.setattr(diamond_graph, "levels", spy)
        cube = compile_scenario(diamond_graph, hypercube8, LinearCommModel())
        ring = compile_scenario(diamond_graph, ring9, LinearCommModel())
        for name in (
            "task_ids", "index_of", "durations", "levels", "pred_indptr",
            "pred_ids", "pred_weights", "succ_indptr", "succ_ids",
            "durations_list", "levels_list", "pred_indptr_list",
            "pred_ids_list", "pred_weights_list", "succ_indptr_list",
            "succ_ids_list",
        ):
            assert getattr(cube, name) is getattr(ring, name), name
        assert len(calls) == 1
        # The machine side is the scenario's own.
        assert cube.wdist.shape == (8, 8) and ring.wdist.shape == (9, 9)
        # A mutation rebuilds the graph half.
        diamond_graph.add_task("e", 1.0)
        assert compile_scenario(diamond_graph, ring9, LinearCommModel()).task_ids == [
            "a", "b", "c", "d", "e"
        ]
        assert len(calls) == 2

    def test_compiled_tables_stay_small(self):
        """No per-edge ``(n_edges, P, P)`` cost tensor, solo or stacked.

        Everything a dag200 x ring9 scenario holds, and everything the
        32-lane stack of a sweep-dag200 call (16 graphs on hypercube8 and
        ring9) holds, stays under a tenth of what such tensors would take.
        """
        graphs = [GRAPH_FAMILIES["dag200"](seed) for seed in range(16)]
        machines = [Machine.hypercube(3), Machine.ring(9)]
        scenarios = [
            compile_scenario(g, m, LinearCommModel()) for g in graphs for m in machines
        ]
        tensor_bytes = [sc.pred_ids.size * sc.n_procs**2 * 8 for sc in scenarios]
        skip = graphs + machines
        assert scenarios[1].n_procs == 9
        assert _numpy_bytes(scenarios[1], skip) < 0.1 * tensor_bytes[1]
        stacked = stack_scenarios(scenarios)
        assert _numpy_bytes(stacked, skip) < 0.1 * sum(tensor_bytes)

    def test_rejects_custom_comm_model(self, diamond_graph, hypercube8):
        with pytest.raises(ValueError, match="fold"):
            compile_scenario(diamond_graph, hypercube8, _CustomComm())

    def test_scenario_memoized_per_graph_machine_and_model(self, diamond_graph, hypercube8, ring9):
        model = LinearCommModel()
        first = compile_scenario(diamond_graph, hypercube8, model)
        assert compile_scenario(diamond_graph, hypercube8, model) is first
        # Another model type or machine compiles fresh.
        assert compile_scenario(diamond_graph, hypercube8, ZeroCommModel()) is not first
        other_machine = compile_scenario(diamond_graph, ring9, model)
        assert other_machine is not first
        # Mutating the graph invalidates the memo.
        diamond_graph.add_task("e", 1.0)
        diamond_graph.add_dependency("d", "e", comm=1.0)
        refreshed = compile_scenario(diamond_graph, hypercube8, model)
        assert refreshed is not first
        assert refreshed.n_tasks == 5

    def test_graph_stays_picklable_after_fast_simulation(self, diamond_graph, hypercube8):
        """The scenario memo lives on the graph but is not pickled:
        simulating must not change the graph's serializability (e.g. for
        multiprocessing workers)."""
        import pickle

        simulate(diamond_graph, hypercube8, HLFScheduler(seed=0), record_trace=False)
        clone = pickle.loads(pickle.dumps(diamond_graph))
        assert clone.tasks == diamond_graph.tasks
        assert clone._memo == {}

    def test_scenario_cache_is_bounded_per_graph(self, diamond_graph):
        from repro.sim.compile import _SCENARIO_CACHE_PER_GRAPH

        machines = [Machine.ring(4 + i) for i in range(_SCENARIO_CACHE_PER_GRAPH + 3)]
        for m in machines:
            compile_scenario(diamond_graph, m, LinearCommModel())
        assert len(diamond_graph._memo["scenarios"]) <= _SCENARIO_CACHE_PER_GRAPH

    def test_compiled_graph_is_freed(self, hypercube8):
        """Memoized scenarios refer back to their graph, yet must not keep
        it alive: a long-lived worker compiles an unbounded stream of
        graphs."""
        import gc
        import weakref

        graph = layered_random(3, 4, seed=0)
        compile_scenario(graph, hypercube8, LinearCommModel())
        ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert ref() is None
