"""Tests for the task-graph substrate (Task, TaskGraph, levels, properties)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.exceptions import CycleError, TaskGraphError, UnknownTaskError
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.levels import (
    compute_colevels,
    compute_levels,
    critical_path,
    critical_path_length,
)
from repro.taskgraph.properties import (
    communication_to_computation_ratio,
    edge_density,
    graph_properties,
    graph_width,
    max_speedup,
    parallelism_profile,
)
from repro.taskgraph.task import Task


class TestTask:
    def test_label_defaults_to_id(self):
        assert Task("t1", 2.0).label == "t1"

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Task("t", -1.0)

    def test_with_duration_returns_copy(self):
        t = Task("t", 1.0, "name", {"k": 1})
        t2 = t.with_duration(5.0)
        assert t2.duration == 5.0 and t.duration == 1.0
        assert t2.label == "name" and t2.attrs == {"k": 1}


class TestTaskGraphConstruction:
    def test_add_task_and_query(self, diamond_graph):
        assert diamond_graph.n_tasks == 4
        assert diamond_graph.n_edges == 4
        assert diamond_graph.duration("b") == 3.0
        assert diamond_graph.comm("a", "b") == 1.0

    def test_duplicate_task_rejected(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        with pytest.raises(TaskGraphError):
            g.add_task("a", 2.0)

    def test_dependency_to_unknown_task_rejected(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        with pytest.raises(UnknownTaskError):
            g.add_dependency("a", "missing")
        with pytest.raises(UnknownTaskError):
            g.add_dependency("missing", "a")

    def test_self_loop_rejected(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        with pytest.raises(TaskGraphError):
            g.add_dependency("a", "a")

    def test_negative_comm_rejected(self, diamond_graph):
        with pytest.raises(ValueError):
            diamond_graph.add_dependency("a", "d", comm=-1.0)

    def test_remove_dependency(self, diamond_graph):
        diamond_graph.remove_dependency("a", "b")
        assert not diamond_graph.has_edge("a", "b")
        with pytest.raises(TaskGraphError):
            diamond_graph.remove_dependency("a", "b")

    def test_contains_iter_len(self, diamond_graph):
        assert "a" in diamond_graph and "zz" not in diamond_graph
        assert len(diamond_graph) == 4
        assert list(diamond_graph) == ["a", "b", "c", "d"]

    def test_predecessors_successors(self, diamond_graph):
        assert set(diamond_graph.successors("a")) == {"b", "c"}
        assert set(diamond_graph.predecessors("d")) == {"b", "c"}
        assert diamond_graph.in_degree("d") == 2
        assert diamond_graph.out_degree("a") == 2

    def test_entry_exit_tasks(self, diamond_graph):
        assert diamond_graph.entry_tasks() == ["a"]
        assert diamond_graph.exit_tasks() == ["d"]

    def test_total_work_and_comm(self, diamond_graph):
        assert diamond_graph.total_work() == pytest.approx(8.0)
        assert diamond_graph.total_communication() == pytest.approx(3.0)

    def test_unknown_task_queries_raise(self, diamond_graph):
        with pytest.raises(UnknownTaskError):
            diamond_graph.duration("zz")
        with pytest.raises(UnknownTaskError):
            diamond_graph.successors("zz")
        with pytest.raises(UnknownTaskError):
            diamond_graph.predecessors("zz")

    def test_comm_missing_edge_raises(self, diamond_graph):
        with pytest.raises(TaskGraphError):
            diamond_graph.comm("a", "d")


class TestOrderingValidation:
    def test_topological_order_respects_edges(self, diamond_graph):
        order = diamond_graph.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for u, v, _ in diamond_graph.edges():
            assert pos[u] < pos[v]

    def test_cycle_detected(self):
        g = TaskGraph()
        for t in "abc":
            g.add_task(t, 1.0)
        g.add_dependency("a", "b")
        g.add_dependency("b", "c")
        g.add_dependency("c", "a")
        assert not g.is_acyclic()
        with pytest.raises(CycleError):
            g.topological_order()
        with pytest.raises(TaskGraphError):
            g.validate()

    def test_validate_passes_on_valid_graph(self, diamond_graph):
        diamond_graph.validate()

    @staticmethod
    def _corruptible(diamond_graph):
        """The validated diamond, due a rescan: the corruptions bypass the mutators."""
        diamond_graph.validate()
        diamond_graph._version += 1
        return diamond_graph

    @pytest.mark.parametrize("bad", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_validate_rejects_a_bad_weight_in_both_maps(self, diamond_graph, bad):
        g = self._corruptible(diamond_graph)
        g._succ["b"]["d"] = g._pred["d"]["b"] = bad
        with pytest.raises(ValueError) as err:
            g.validate()
        assert not isinstance(err.value, TaskGraphError)
        assert str(err.value) == (
            f"comm weight of edge 'b'->'d' must be a finite non-negative number, got {bad!r}"
        )

    def test_validate_rejects_disagreeing_adjacency_maps(self, diamond_graph):
        g = self._corruptible(diamond_graph)
        g._pred["d"]["b"] = 0.25
        with pytest.raises(TaskGraphError) as err:
            g.validate()
        assert str(err.value) == "inconsistent adjacency for edge 'b' -> 'd'"

    def test_validate_rejects_a_nan_duration_set_past_the_task_check(self, diamond_graph):
        g = self._corruptible(diamond_graph)
        object.__setattr__(g.task("c"), "duration", float("nan"))
        with pytest.raises(ValueError) as err:
            g.validate()
        assert not isinstance(err.value, TaskGraphError)
        assert str(err.value) == "duration of 'c' must be a finite non-negative number, got nan"


class TestConversionCopy:
    def test_networkx_roundtrip(self, diamond_graph):
        nxg = diamond_graph.to_networkx()
        back = TaskGraph.from_networkx(nxg)
        assert back.n_tasks == diamond_graph.n_tasks
        assert back.n_edges == diamond_graph.n_edges
        assert back.duration("b") == diamond_graph.duration("b")
        assert back.comm("a", "b") == diamond_graph.comm("a", "b")

    def test_sweep_and_service_import_without_networkx(self):
        # Only to_networkx imports networkx, so a fresh process that loads
        # the sweep and the service leaves it unimported.
        code = (
            "import sys, repro.experiments.sweep, repro.service; "
            "print('networkx' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert done.stdout.strip() == "False"

    def test_copy_is_independent(self, diamond_graph):
        c = diamond_graph.copy()
        c.add_task("extra", 1.0)
        assert "extra" not in diamond_graph

    def test_relabeled(self, diamond_graph):
        r = diamond_graph.relabeled({"a": "A", "d": "D"})
        assert "A" in r and "D" in r and "a" not in r
        assert r.comm("A", "b") == 1.0

    def test_relabeled_collision_rejected(self, diamond_graph):
        with pytest.raises(TaskGraphError):
            diamond_graph.relabeled({"a": "b"})


class TestLevels:
    def test_levels_of_diamond(self, diamond_graph):
        levels = compute_levels(diamond_graph)
        assert levels["d"] == pytest.approx(2.0)
        assert levels["b"] == pytest.approx(5.0)
        assert levels["c"] == pytest.approx(3.0)
        assert levels["a"] == pytest.approx(7.0)

    def test_levels_with_communication(self, diamond_graph):
        levels = compute_levels(diamond_graph, include_communication=True)
        assert levels["a"] == pytest.approx(2.0 + 1.0 + 3.0 + 0.5 + 2.0)

    def test_colevels_of_diamond(self, diamond_graph):
        co = compute_colevels(diamond_graph)
        assert co["a"] == pytest.approx(2.0)
        assert co["d"] == pytest.approx(7.0)

    def test_chain_levels_decrease(self, chain_graph):
        levels = compute_levels(chain_graph)
        assert [levels[i] for i in range(5)] == [5.0, 4.0, 3.0, 2.0, 1.0]

    def test_critical_path_diamond(self, diamond_graph):
        assert critical_path(diamond_graph) == ["a", "b", "d"]
        assert critical_path_length(diamond_graph) == pytest.approx(7.0)

    def test_critical_path_empty_graph(self):
        g = TaskGraph()
        assert critical_path(g) == []
        assert critical_path_length(g) == 0.0

    def test_level_equals_remaining_time_on_chain(self, chain_graph):
        # on a chain, level == remaining serial time including self
        levels = chain_graph.levels()
        for i in range(5):
            assert levels[i] == pytest.approx(5 - i)


class TestProperties:
    def test_cc_ratio(self, diamond_graph):
        # avg comm = 3/4, avg dur = 8/4
        assert communication_to_computation_ratio(diamond_graph) == pytest.approx(0.375)

    def test_cc_ratio_no_edges(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        assert communication_to_computation_ratio(g) == 0.0

    def test_max_speedup(self, diamond_graph):
        assert max_speedup(diamond_graph) == pytest.approx(8.0 / 7.0)

    def test_parallelism_profile_and_width(self, diamond_graph):
        assert parallelism_profile(diamond_graph) == [1, 2, 1]
        assert graph_width(diamond_graph) == 2

    def test_parallelism_profile_padding(self, diamond_graph):
        assert parallelism_profile(diamond_graph, n_bins=5) == [1, 2, 1, 0, 0]

    def test_edge_density(self, diamond_graph):
        assert edge_density(diamond_graph) == pytest.approx(4 / 6)

    def test_graph_properties_summary(self, diamond_graph):
        props = graph_properties(diamond_graph)
        assert props.n_tasks == 4
        assert props.width == 2
        assert props.depth == 3
        assert props.total_work == pytest.approx(8.0)
        row = props.as_table1_row()
        assert row[0] == "diamond" and row[1] == 4
