"""The workload zoo: structural contracts, determinism, engines and goldens.

Four layers of coverage for the pegasus/elementary/irw families:

* **registry** — every :class:`FamilySpec`'s closed-form count formulas hold
  for the calibrated default and large parameter sets, the large instance
  really is a >= 1000-task policy-study graph, groups partition the
  registry, and unknown keys fail loudly;
* **properties (hypothesis)** — across each family's full parameter grid and
  arbitrary seeds: the built graph passes ``validate()``, matches the
  registry count formulas, draws strictly positive durations (>= the shared
  ``MIN_DURATION`` floor) and non-negative communication weights, and is
  bit-reproducible (fixed seed ⇒ identical structural fingerprint);
* **differential** — each family runs through the object, fast and batched
  engines at both fidelities on homogeneous and heterogeneous machines,
  fingerprint-identical cell for cell, plus one mixed 14-lane batch (the
  ``lock_step`` fixture steps these small lane calls, which ``run_lanes``
  would otherwise run solo);
* **golden** — one representative (family, machine, policy) cell per family
  is pinned in ``tests/golden/families.json`` (regenerate with
  ``python -m pytest tests/test_families.py --regen-golden``).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm.model import LinearCommModel
from repro.core.config import SAConfig
from repro.core.sa_scheduler import SAScheduler
from repro.machine.machine import Machine
from repro.schedulers.etf import ETFScheduler
from repro.sim.batch_engine import run_lanes
from repro.sim.compile import compile_scenario
from repro.sim.engine import simulate
from repro.sim.fast_engine import run_compiled
from repro.taskgraph.families import (
    FAMILIES,
    FAMILY_GROUPS,
    build_family,
    families_in_group,
    family_names,
    structural_fingerprint,
)
from repro.taskgraph.generators import MIN_DURATION

FAMILY_KEYS = sorted(FAMILIES)

# --------------------------------------------------------------------------- #
# Registry contracts
# --------------------------------------------------------------------------- #


class TestRegistry:
    def test_at_least_twelve_families(self):
        assert len(FAMILIES) >= 12

    def test_groups_partition_the_registry(self):
        assert sorted(FAMILY_GROUPS) == ["elementary", "irw", "pegasus"]
        flattened = [k for keys in FAMILY_GROUPS.values() for k in keys]
        assert sorted(flattened) == FAMILY_KEYS
        for group, keys in FAMILY_GROUPS.items():
            assert [s.key for s in families_in_group(group)] == keys

    @pytest.mark.parametrize("key", FAMILY_KEYS)
    def test_default_build_matches_count_formulas(self, key):
        spec = FAMILIES[key]
        graph = spec.build(seed=0)
        assert graph.n_tasks == spec.expected_tasks(**spec.default_params)
        assert graph.n_edges == spec.expected_edges(**spec.default_params)

    @pytest.mark.parametrize("key", FAMILY_KEYS)
    def test_large_build_is_a_policy_study_instance(self, key):
        spec = FAMILIES[key]
        expected = spec.expected_tasks(**spec.large_params)
        assert expected >= 1000
        # crossv's 111k-edge instance is exercised by the formula check only
        # at registry level; building it here would dominate suite runtime.
        if key == "crossv":
            return
        graph = spec.build_large(seed=0)
        assert graph.n_tasks == expected
        assert graph.n_edges == spec.expected_edges(**spec.large_params)

    def test_unknown_keys_fail_loudly(self):
        with pytest.raises(KeyError, match="unknown graph family"):
            build_family("no-such-family")
        with pytest.raises(KeyError, match="unknown family group"):
            families_in_group("no-such-group")

    def test_family_names_are_registry_order(self):
        assert family_names() == list(FAMILIES)


# --------------------------------------------------------------------------- #
# Hypothesis properties over each family's parameter grid
# --------------------------------------------------------------------------- #

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _family_instance(draw):
    """(spec, params drawn from the spec's grid, seed)."""
    spec = draw(st.sampled_from([FAMILIES[k] for k in FAMILY_KEYS]))
    params = {
        name: draw(st.integers(lo, hi))
        for name, (lo, hi) in sorted(spec.param_grid.items())
    }
    seed = draw(st.integers(0, 10_000))
    return spec, params, seed


class TestFamilyProperties:
    @given(instance=_family_instance())
    @_SETTINGS
    def test_built_graph_is_valid_and_counts_match(self, instance):
        spec, params, seed = instance
        graph = spec.build(seed=seed, **params)
        graph.validate()
        assert graph.n_tasks == spec.expected_tasks(**{**spec.default_params, **params})
        assert graph.n_edges == spec.expected_edges(**{**spec.default_params, **params})

    @given(instance=_family_instance())
    @_SETTINGS
    def test_durations_positive_and_comm_non_negative(self, instance):
        spec, params, seed = instance
        graph = spec.build(seed=seed, **params)
        for task in graph.tasks:
            assert graph.duration(task) >= MIN_DURATION
        for _, _, weight in graph.edges():
            assert weight >= 0.0

    @given(instance=_family_instance())
    @_SETTINGS
    def test_fixed_seed_reproduces_the_graph_bit_for_bit(self, instance):
        spec, params, seed = instance
        first = spec.build(seed=seed, **params)
        second = spec.build(seed=seed, **params)
        assert structural_fingerprint(first) == structural_fingerprint(second)

    @given(instance=_family_instance())
    @_SETTINGS
    def test_seed_actually_steers_the_draws(self, instance):
        spec, params, seed = instance
        if spec.key == "duration_stairs":
            return  # deterministic ramp: seed intentionally unused
        first = spec.build(seed=seed, **params)
        second = spec.build(seed=seed + 1, **params)
        assert structural_fingerprint(first) != structural_fingerprint(second)


# --------------------------------------------------------------------------- #
# Differential: object vs fast vs batched engines, both fidelities
# --------------------------------------------------------------------------- #

_MACHINES = {
    "hom": lambda: Machine.hypercube(3),
    "het": lambda: Machine.ring(
        7,
        speeds=[1.0, 2.0, 1.0, 3.0, 1.0, 0.5, 1.0],
        link_weights={(0, 1): 2.0, (3, 4): 0.5},
    ),
}


class TestEngineEquivalence:
    @pytest.mark.parametrize("machine_kind", sorted(_MACHINES))
    @pytest.mark.parametrize("key", FAMILY_KEYS)
    def test_object_fast_and_batched_engines_agree(self, key, machine_kind, lock_step):
        graph = FAMILIES[key].build(seed=3)
        machine = _MACHINES[machine_kind]()
        comm = LinearCommModel()
        graph.validate()
        scenario = compile_scenario(graph, machine, comm)
        for fidelity in ("latency", "contention"):
            obj = simulate(
                graph, machine, ETFScheduler(), comm_model=comm,
                fidelity=fidelity, record_trace=False, fast=False,
            )
            fast = simulate(
                graph, machine, ETFScheduler(), comm_model=comm,
                fidelity=fidelity, record_trace=False, fast=True,
            )
            [batched] = run_lanes([(scenario, ETFScheduler())], fidelity=fidelity)
            assert obj.fingerprint() == fast.fingerprint(), f"{key}/{fidelity}"
            assert fast.fingerprint() == batched.fingerprint(), f"{key}/{fidelity}"
            assert obj.task_processor == batched.task_processor
        assert lock_step == [1]  # the latency lane ran in lock step

    @pytest.mark.parametrize("fidelity", ["latency", "contention"])
    def test_all_families_in_one_mixed_batch(self, fidelity, lock_step):
        """Fourteen ragged family lanes in lock-step match their solo runs."""
        comm = LinearCommModel()
        machines = [_MACHINES["hom"](), _MACHINES["het"]()]
        lanes = []
        for i, key in enumerate(FAMILY_KEYS):
            graph = FAMILIES[key].build(seed=i)
            graph.validate()
            machine = machines[i % 2]
            scenario = compile_scenario(graph, machine, comm)
            lanes.append((scenario, ETFScheduler()))
        batched = run_lanes(
            [(s, ETFScheduler()) for s, _ in lanes], fidelity=fidelity
        )
        for (scenario, _), result in zip(lanes, batched):
            policy = ETFScheduler()
            policy.reset()
            solo = run_compiled(scenario, policy, fidelity=fidelity)
            assert solo.fingerprint() == result.fingerprint()
        assert lock_step == ([len(lanes)] if fidelity == "latency" else [])


# --------------------------------------------------------------------------- #
# Golden-pinned representative cells
# --------------------------------------------------------------------------- #

_SA_REPRESENTATIVES = {"montage", "bigmerge", "mapreduce"}  # one per group


def _golden_cells():
    cells = [(key, "ETF") for key in FAMILY_KEYS]
    cells += [(key, "SA") for key in sorted(_SA_REPRESENTATIVES)]
    return cells


@pytest.mark.parametrize(
    "key,policy_name", _golden_cells(),
    ids=[f"{k}-{p}" for k, p in _golden_cells()],
)
def test_family_cell_matches_golden_trace(key, policy_name, golden_families):
    graph = FAMILIES[key].build(seed=0)
    machine = Machine.hypercube(3)
    policy = (
        SAScheduler(SAConfig.paper_defaults(seed=1))
        if policy_name == "SA"
        else ETFScheduler()
    )
    result = simulate(
        graph, machine, policy,
        comm_model=LinearCommModel(), record_trace=True,
    )
    result.trace.validate(FAMILIES[key].build(seed=0))
    golden_families.check(f"{key}|hypercube8|{policy_name}", result.fingerprint())
