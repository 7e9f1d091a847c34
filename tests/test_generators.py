"""Tests for the random/structured task-graph generators."""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TaskGraphError
from repro.experiments.sweep import GRAPH_FAMILIES
from repro.taskgraph import generators as gen
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.io import to_dict
from repro.taskgraph.properties import graph_width, parallelism_profile


class TestChainForkDiamond:
    def test_chain_structure(self):
        g = gen.chain(4, duration=2.0, comm=1.0)
        assert g.n_tasks == 4 and g.n_edges == 3
        assert g.critical_path_length() == pytest.approx(8.0)

    def test_chain_needs_one_task(self):
        with pytest.raises(TaskGraphError):
            gen.chain(0)

    def test_independent_tasks(self):
        g = gen.independent_tasks(7)
        assert g.n_tasks == 7 and g.n_edges == 0
        assert graph_width(g) == 7

    def test_fork_join(self):
        g = gen.fork_join(5, branch_duration=2.0, root_duration=1.0)
        assert g.n_tasks == 7
        assert g.entry_tasks() == ["fork"]
        assert g.exit_tasks() == ["join"]
        assert g.critical_path_length() == pytest.approx(4.0)

    def test_diamond_widths(self):
        g = gen.diamond(3)
        profile = parallelism_profile(g)
        assert profile == [1, 2, 3, 4, 3, 2, 1]
        assert g.is_acyclic()

    def test_diamond_depth_validation(self):
        with pytest.raises(TaskGraphError):
            gen.diamond(0)


class TestTrees:
    def test_intree_counts(self):
        g = gen.intree(depth=3, branching=2)
        assert g.n_tasks == 15
        # leaves are the entries, the root is the single exit
        assert len(g.entry_tasks()) == 8
        assert g.exit_tasks() == [(0, 0)]

    def test_outtree_is_reverse_of_intree(self):
        g = gen.outtree(depth=2, branching=3)
        assert g.n_tasks == 13
        assert g.entry_tasks() == [(0, 0)]
        assert len(g.exit_tasks()) == 9

    def test_tree_validation(self):
        with pytest.raises(TaskGraphError):
            gen.intree(-1)
        with pytest.raises(TaskGraphError):
            gen.outtree(2, branching=0)


class TestRandomGenerators:
    def test_layered_random_shape(self):
        g = gen.layered_random(4, 5, seed=3)
        assert g.n_tasks == 20
        assert g.is_acyclic()
        # every non-entry task has at least one predecessor in the previous layer
        for (layer, j) in g.tasks:
            if layer > 0:
                assert g.in_degree((layer, j)) >= 1

    def test_layered_random_deterministic(self):
        a = gen.layered_random(3, 4, seed=11)
        b = gen.layered_random(3, 4, seed=11)
        assert list(a.edges()) == list(b.edges())
        assert [a.duration(t) for t in a.tasks] == [b.duration(t) for t in b.tasks]

    def test_layered_random_validation(self):
        with pytest.raises(TaskGraphError):
            gen.layered_random(0, 3)
        with pytest.raises(ValueError):
            gen.layered_random(2, 2, edge_probability=1.5)

    def test_random_dag_acyclic_and_sized(self):
        g = gen.random_dag(30, edge_probability=0.2, seed=5)
        assert g.n_tasks == 30
        assert g.is_acyclic()

    def test_random_dag_edge_probability_extremes(self):
        empty = gen.random_dag(10, edge_probability=0.0, seed=1)
        assert empty.n_edges == 0
        full = gen.random_dag(10, edge_probability=1.0, seed=1)
        assert full.n_edges == 45  # complete DAG

    def test_series_parallel(self):
        g = gen.series_parallel(depth=2, fanout=2, seed=7)
        assert g.is_acyclic()
        assert len(g.entry_tasks()) == 1
        assert len(g.exit_tasks()) == 1

    def test_series_parallel_depth_zero_single_task(self):
        g = gen.series_parallel(depth=0, seed=1)
        assert g.n_tasks == 1


class TestGrahamAnomaly:
    def test_instance_shape(self):
        g = gen.graham_anomaly_graph()
        assert g.n_tasks == 9
        assert g.duration(9) == 9.0
        assert g.is_acyclic()
        # T5..T8 depend on both T3 and T4
        for t in (5, 6, 7, 8):
            assert set(g.predecessors(t)) == {3, 4}


class TestGeneratorProperties:
    """Property-based checks over the generator family."""

    @given(
        n_layers=st.integers(1, 6),
        width=st.integers(1, 6),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_layered_random_always_valid(self, n_layers, width, p, seed):
        g = gen.layered_random(n_layers, width, edge_probability=p, seed=seed)
        g.validate()
        assert g.n_tasks == n_layers * width

    @given(n=st.integers(1, 40), p=st.floats(0.0, 0.5), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_dag_always_valid(self, n, p, seed):
        g = gen.random_dag(n, edge_probability=p, seed=seed)
        g.validate()
        assert g.n_tasks == n
        assert all(g.duration(t) > 0 for t in g.tasks)

    @given(depth=st.integers(0, 4), branching=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_intree_task_count_formula(self, depth, branching):
        g = gen.intree(depth, branching)
        expected = sum(branching**l for l in range(depth + 1))
        assert g.n_tasks == expected
        g.validate()


class TestDrawDuration:
    """The shared gamma duration draw and its ``MIN_DURATION`` floor."""

    def test_cv_zero_is_deterministic(self):
        rng = np.random.default_rng(0)
        assert gen.draw_duration(rng, 7.5, 0.0) == 7.5

    def test_moderate_cv_never_needs_the_clamp(self):
        rng = np.random.default_rng(1)
        draws = [gen.draw_duration(rng, 10.0, 0.3) for _ in range(2000)]
        assert all(d > gen.MIN_DURATION for d in draws)

    def test_extreme_cv_underflow_is_clamped_to_min_duration(self):
        """cv >> 1 gives gamma shape 1/cv² ≈ 0; most mass underflows to 0.0.

        Without the floor those zero draws become zero-duration tasks, which
        ``TaskGraph.validate`` rejects and which break speedup ratios.  The
        clamp must engage (some draws land exactly on ``MIN_DURATION``) and
        every draw must respect the floor.
        """
        rng = np.random.default_rng(2)
        draws = [gen.draw_duration(rng, 10.0, 100.0) for _ in range(500)]
        assert all(d >= gen.MIN_DURATION for d in draws)
        assert any(d == gen.MIN_DURATION for d in draws), (
            "expected the cv=100 gamma (shape 1e-4) to underflow and engage "
            "the MIN_DURATION clamp"
        )

    def test_private_alias_still_points_at_the_public_draw(self):
        # _draw_duration predates the public name; generators and families
        # must share one clamp.
        assert gen._draw_duration is gen.draw_duration


def _scalar_random_dag(n_tasks, edge_probability=0.15, mean_duration=10.0, duration_cv=0.5,
                       mean_comm=2.0, comm_cv=0.5, *, seed):
    """``random_dag`` as one scalar draw per duration, pair and weight: the reference stream.

    *seed* is the Generator to draw from, named like ``random_dag``'s argument.
    """
    rng = seed
    g = TaskGraph("random_dag")
    order = list(rng.permutation(n_tasks))
    for i in range(n_tasks):
        g.add_task(i, gen.draw_duration(rng, mean_duration, duration_cv), label=f"t{i}")
    for a in range(n_tasks):
        for b in range(a + 1, n_tasks):
            if rng.random() < edge_probability:
                weight = gen.draw_duration(rng, mean_comm, comm_cv) if mean_comm > 0 else 0.0
                g.add_dependency(int(order[a]), int(order[b]), weight)
    return g


def _assert_matches_scalar_loop(shape, make_rng):
    """Same tasks, durations, edge order and weights, and the same generator end state."""
    rng, reference = make_rng(), make_rng()
    got = to_dict(gen.random_dag(**shape, seed=rng))
    want = to_dict(_scalar_random_dag(**shape, seed=reference))
    for part in ("tasks", "edges"):
        # Compared as JSON, so an int where the loop gives a float differs too.
        differ = [i for i, (x, y) in enumerate(zip(got[part], want[part])) if json.dumps(x) != json.dumps(y)]
        assert len(got[part]) == len(want[part]) and not differ, (
            f"{part}: {len(got[part])} vs {len(want[part])}, first differing at {differ[:1]}"
        )
    assert _state(rng) == _state(reference)


def _state(rng) -> str:
    """The bit generator's whole state (MT19937 keeps an array in it)."""
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


#: The sweep families and the shapes that take random_dag's other branches.
SHAPES = {
    "dag200": dict(n_tasks=200, edge_probability=0.08, mean_duration=15.0, mean_comm=5.0),
    "dag": dict(n_tasks=40, edge_probability=0.2, mean_duration=15.0, mean_comm=5.0),
    "dag-dense": dict(n_tasks=60, edge_probability=0.35, mean_duration=15.0, mean_comm=8.0),
    "comm_cv2": dict(n_tasks=80, edge_probability=0.25, comm_cv=2.0),
    "mean_comm0": dict(n_tasks=60, edge_probability=0.3, mean_comm=0.0),
    "mean_comm_nan": dict(n_tasks=30, edge_probability=0.3, mean_comm=float("nan")),
    "comm_cv0": dict(n_tasks=60, edge_probability=0.3, comm_cv=0.0),
    "duration_cv0": dict(n_tasks=50, edge_probability=0.2, duration_cv=0.0),
    "cv20": dict(n_tasks=40, edge_probability=0.3, duration_cv=20.0, comm_cv=20.0),
    "n1": dict(n_tasks=1),
    "n2": dict(n_tasks=2, edge_probability=0.5),
    "p0": dict(n_tasks=30, edge_probability=0.0),
    "p1": dict(n_tasks=30, edge_probability=1.0),
}


@pytest.fixture
def fallbacks(monkeypatch):
    """Count the scalar pair loop's runs inside ``random_dag``."""
    calls = []
    scalar = gen._scalar_edges

    def spy(*args):
        calls.append(args[1:])
        return scalar(*args)

    monkeypatch.setattr(gen, "_scalar_edges", spy)
    return calls


class TestLookaheadPairLoop:
    """``random_dag``'s raw-word replay against the scalar pair loop."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shapes_match_the_scalar_loop(self, shape, fallbacks):
        for seed in range(6):
            _assert_matches_scalar_loop(SHAPES[shape], lambda: np.random.default_rng(seed))
        assert fallbacks == []

    @pytest.mark.parametrize("n", [3, 25, 120, 300])
    @pytest.mark.parametrize("p", [0.02, 0.3])
    @pytest.mark.parametrize("comm_cv", [0.5, 2.0])
    def test_sizes_up_to_300_tasks(self, n, p, comm_cv, fallbacks):
        for seed in range(2):
            shape = dict(n_tasks=n, edge_probability=p, comm_cv=comm_cv)
            _assert_matches_scalar_loop(shape, lambda: np.random.default_rng(1000 * n + seed))
        assert fallbacks == []

    @pytest.mark.parametrize("window", [70, 97, 250, 1000])
    def test_windows_that_end_mid_row(self, monkeypatch, window, fallbacks):
        monkeypatch.setattr(gen, "_WINDOW", window)
        for seed in range(4):
            for shape in (SHAPES["dag"], SHAPES["comm_cv2"], dict(n_tasks=150, edge_probability=0.05)):
                _assert_matches_scalar_loop(shape, lambda: np.random.default_rng(seed))
        assert fallbacks == []

    def test_weight_draws_that_run_past_their_window_fall_back(self, monkeypatch, fallbacks):
        monkeypatch.setattr(gen, "_WINDOW", 40)
        monkeypatch.setattr(gen, "_SLACK", 3)
        for seed in range(8):
            _assert_matches_scalar_loop(SHAPES["comm_cv2"], lambda: np.random.default_rng(seed))
        assert len(fallbacks) == 8

    @pytest.mark.parametrize("cv", ["duration_cv", "comm_cv"])
    def test_a_nan_cv_is_rejected_like_the_scalar_loop(self, cv):
        shape = dict(SHAPES["dag"], **{cv: float("nan")})
        for build in (gen.random_dag, _scalar_random_dag):
            with pytest.raises(ValueError, match="must be a finite non-negative number, got nan"):
                build(**shape, seed=np.random.default_rng(0))

    def test_a_passed_generator_keeps_its_buffered_half(self, fallbacks):
        """``advance`` drops PCG64's buffered 32-bit half; the caller gets it back."""
        held = 0

        def buffered(seed):
            rng = np.random.default_rng(seed)
            rng.integers(0, 7)  # a 32-bit draw: the other half stays buffered
            return rng

        for seed in range(20):
            _assert_matches_scalar_loop(SHAPES["dag"], lambda: buffered(seed))
            rng = buffered(seed)
            gen.random_dag(**SHAPES["dag"], seed=rng)
            held += rng.bit_generator.state["has_uint32"]
        assert fallbacks == []
        assert 0 < held < 20  # both end states occur

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
    def test_other_bit_generators_take_the_scalar_loop(self, bit_generator, fallbacks):
        for seed in range(3):
            for shape in (SHAPES["dag"], SHAPES["comm_cv2"]):
                _assert_matches_scalar_loop(shape, lambda: np.random.Generator(bit_generator(seed)))
        assert len(fallbacks) == 6
        # No weight draws: one vectorized decision draw, for any bit generator.
        _assert_matches_scalar_loop(SHAPES["mean_comm0"], lambda: np.random.Generator(bit_generator(7)))
        assert len(fallbacks) == 6

    def test_a_failed_replay_restarts_from_the_saved_state(self, monkeypatch, fallbacks):
        replay = gen._lookahead_edges

        def replay_then_fail(*args):
            assert replay(*args) is not None  # the generator has moved on
            return None

        monkeypatch.setattr(gen, "_lookahead_edges", replay_then_fail)
        for seed in range(4):
            _assert_matches_scalar_loop(SHAPES["dag200"], lambda: np.random.default_rng(seed))
        assert len(fallbacks) == 4

    def test_a_repeated_window_word_is_refused(self):
        """A window that shows the word after a weight draw twice must not be trusted.

        The first window is doctored: the first edge's weight draw is followed
        by word *m*, and a copy of it is planted in the draw's own first word.
        Located by value, the copy would make the replay miscount the draw's
        words and decide later pairs from the wrong words.
        """
        shape, scale, p = 4.0, 0.5, 0.2  # comm_cv 0.5, mean_comm 2

        class PlantedRepeat:
            def __init__(self, seed):
                self.real = np.random.PCG64(seed)
                self.planted = False

            def advance(self, delta):
                self.real.advance(delta)
                return self

            @property
            def state(self):
                return self.real.state

            @state.setter
            def state(self, value):
                self.real.state = value

            def random_raw(self, size=None):
                start = self.real.state
                words = self.real.random_raw(size)
                if size is None or self.planted:
                    return words
                self.planted = True
                j = int(np.flatnonzero((words >> 11) * 2.0**-53 < p)[0])
                probe = np.random.Generator(np.random.PCG64(0))
                probe.bit_generator.state = start
                probe.bit_generator.advance(j + 1)
                probe.gamma(shape, scale)
                m = words.tolist().index(probe.bit_generator.random_raw())
                assert m > j + 1
                words[j + 1] = words[m]
                return words

        n_pairs = 40 * 39 // 2
        for seed in range(5):
            bitgen = PlantedRepeat(seed)
            rng = SimpleNamespace(bit_generator=bitgen, gamma=np.random.Generator(bitgen.real).gamma)
            found = gen._lookahead_edges(rng, n_pairs, p, 2.0, 0.5)
            reference = gen._scalar_edges(np.random.default_rng(np.random.PCG64(seed)), n_pairs, p, 2.0, 0.5)
            assert found is None or found == reference
            assert found is None

    def test_the_sweep_graphs_never_fall_back(self, fallbacks):
        """A silent fallback would cost the sweep its speed-up with no test failing."""
        for seed in range(64):  # perfbench sweep-dag200 seeds 0 and 1
            GRAPH_FAMILIES["dag200"](seed)
        for seed in range(16):
            GRAPH_FAMILIES["dag"](seed)
            GRAPH_FAMILIES["dag-dense"](seed)
        for seed in range(32):
            gen.random_dag(100, 0.1, comm_cv=2.0, seed=seed)
        assert fallbacks == []
