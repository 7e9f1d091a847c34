"""Tests for the parallel experiment sweep runner."""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

import repro.experiments.sweep as sweep_module
from repro.exceptions import ConfigurationError, WorkerError
from repro.experiments.sweep import (
    GRAPH_FAMILIES,
    HETERO_MACHINES,
    MACHINE_BUILDERS,
    POLICY_BUILDERS,
    SCIENCE_FIELDS,
    build_grid,
    comparable_aggregates,
    comparable_rows,
    format_sweep_report,
    hetero_machine,
    lane_eligible,
    main,
    reduce_cells,
    run_lane_group,
    run_scenario,
    run_sweep,
    speed_ramp,
)
from repro.utils.chaos import FAULT_KINDS, ChaosConfig


def _poison_family(seed):
    """A graph family whose builder always fails (poisoned-spec tests)."""
    raise ValueError(f"poisoned family for seed {seed}")


def _spec(seed, family="layered", policy="HLF"):
    return {
        "policy": policy,
        "machine": "hypercube8",
        "family": family,
        "graph_seed": seed,
        "policy_seed": seed,
        "with_comm": True,
        "fidelity": "latency",
    }


class TestGrid:
    def test_default_grid_size(self):
        grid = build_grid()
        assert len(grid) == 3 * 2 * 2 * 17  # policies x machines x families x seeds
        assert len(grid) >= 200

    def test_grid_is_fully_specified(self):
        for spec in build_grid(n_seeds=2):
            assert spec["policy"] in POLICY_BUILDERS
            assert spec["machine"] in MACHINE_BUILDERS
            assert spec["family"] in GRAPH_FAMILIES
            assert isinstance(spec["graph_seed"], int)

    def test_unknown_keys_rejected_early(self):
        with pytest.raises(KeyError):
            build_grid(policies=("NOPE",))
        with pytest.raises(KeyError):
            build_grid(machines=("NOPE",))
        with pytest.raises(KeyError):
            build_grid(families=("NOPE",))

    def test_comm_settings_expand(self):
        grid = build_grid(policies=("HLF",), machines=("hypercube8",),
                          families=("layered",), n_seeds=1, comm=(False, True))
        assert [g["with_comm"] for g in grid] == [False, True]


class TestScenario:
    def test_run_scenario_returns_complete_row(self):
        spec = {
            "policy": "HLF",
            "machine": "hypercube8",
            "family": "layered",
            "graph_seed": 0,
            "policy_seed": 0,
            "with_comm": True,
            "fidelity": "latency",
        }
        row = run_scenario(spec)
        assert row["error"] is None
        assert row["makespan"] > 0
        assert 0 < row["speedup"] <= 8
        assert row["runtime_s"] >= 0

    def test_scenario_is_deterministic(self):
        spec = {
            "policy": "SA",
            "machine": "ring9",
            "family": "dag",
            "graph_seed": 3,
            "policy_seed": 3,
            "with_comm": True,
            "fidelity": "latency",
        }
        assert run_scenario(spec)["makespan"] == run_scenario(spec)["makespan"]

    def test_row_reports_cache_and_fallback_counters(self):
        spec = {
            "policy": "SA",
            "machine": "hypercube8",
            "family": "layered",
            "graph_seed": 5,
            "policy_seed": 5,
            "with_comm": True,
            "fidelity": "latency",
        }
        row = run_scenario(spec)
        assert row["error"] is None
        # SA is fully kernelized in the fast engine: no materialized contexts.
        assert row["n_fallback_epochs"] == 0
        assert row["compile_cache_hits"] + row["compile_cache_misses"] >= 1
        # Same spec again in this process: graph/machine come from the worker
        # caches, so the compiled scenario memo must hit.
        again = run_scenario(spec)
        assert again["compile_cache_hits"] >= 1
        assert again["compile_cache_misses"] == 0
        assert again["makespan"] == row["makespan"]

    def test_replicas_spec_changes_sa_only(self):
        base = {
            "machine": "hypercube8",
            "family": "layered",
            "graph_seed": 1,
            "policy_seed": 1,
            "with_comm": True,
            "fidelity": "latency",
        }
        sa = run_scenario({**base, "policy": "SA", "replicas": 3})
        sa2 = run_scenario({**base, "policy": "SA", "replicas": 3})
        assert sa["error"] is None
        assert sa["makespan"] == sa2["makespan"]  # deterministic
        hlf = run_scenario({**base, "policy": "HLF", "replicas": None})
        assert hlf["error"] is None


class TestSweep:
    def _small_kwargs(self):
        return dict(
            policies=("HLF", "SA"),
            machines=("hypercube8",),
            families=("layered",),
            n_seeds=2,
        )

    def test_serial_sweep_report_structure(self):
        report = run_sweep(jobs=1, **self._small_kwargs())
        assert report["meta"]["n_simulations"] == 4
        assert report["meta"]["n_failed"] == 0
        assert len(report["results"]) == 4
        assert len(report["aggregates"]) == 2  # one per policy
        for aggregate in report["aggregates"]:
            assert aggregate["n"] == 2
            assert aggregate["mean_speedup"] > 0

    def test_parallel_equals_serial(self):
        serial = run_sweep(jobs=1, **self._small_kwargs())
        parallel = run_sweep(jobs=2, **self._small_kwargs())
        serial_makespans = [r["makespan"] for r in serial["results"]]
        parallel_makespans = [r["makespan"] for r in parallel["results"]]
        assert serial_makespans == parallel_makespans

    def test_report_written_to_json(self, tmp_path):
        out = tmp_path / "report.json"
        run_sweep(jobs=1, out=str(out), **self._small_kwargs())
        loaded = json.loads(out.read_text())
        assert loaded["meta"]["n_simulations"] == 4

    def test_format_sweep_report(self):
        report = run_sweep(jobs=1, **self._small_kwargs())
        text = format_sweep_report(report)
        assert "Sweep: 4 simulations" in text
        assert "HLF" in text and "SA" in text

    def test_meta_surfaces_cache_and_fallback_totals(self):
        report = run_sweep(jobs=1, **self._small_kwargs())
        meta = report["meta"]
        assert meta["n_fallback_epochs"] == 0  # every builtin policy kernelized
        cache = meta["compile_cache"]
        assert cache["hits"] + cache["misses"] >= 1
        # Paired policies over the same (graph, machine, model) hit the memo.
        assert cache["hits"] >= 1

    def test_replicas_validated_early(self):
        with pytest.raises(ValueError, match="replicas"):
            build_grid(policies=("SA",), machines=("hypercube8",),
                       families=("layered",), n_seeds=1, replicas=0)
        with pytest.raises(ValueError, match="replicas"):
            run_sweep(jobs=1, replicas=-1, policies=("SA",),
                      machines=("hypercube8",), families=("layered",), n_seeds=1)

    def test_fidelity_validated_early(self):
        with pytest.raises(ValueError, match="fidelity"):
            build_grid(policies=("HLF",), machines=("hypercube8",),
                       families=("layered",), n_seeds=1, fidelity="bogus")
        # Rejected before any worker starts, whatever the lane count.
        for lanes in (1, 2):
            with pytest.raises(ValueError, match="fidelity"):
                run_sweep(jobs=1, lanes=lanes, fidelity="bogus",
                          policies=("HLF", "ETF"), machines=("hypercube8",),
                          families=("layered",), n_seeds=1)

    def test_replicas_threads_into_sa_rows(self):
        grid = build_grid(policies=("HLF", "SA"), machines=("hypercube8",),
                          families=("layered",), n_seeds=1, replicas=4)
        by_policy = {g["policy"]: g for g in grid}
        assert by_policy["SA"]["replicas"] == 4
        assert by_policy["HLF"]["replicas"] is None
        report = run_sweep(jobs=1, replicas=2, **self._small_kwargs())
        assert report["meta"]["replicas"] == 2
        assert report["meta"]["n_failed"] == 0

    def test_replicas_cli_flag(self, tmp_path):
        out = tmp_path / "replicas.json"
        assert main(["--jobs", "1", "--seeds", "1", "--policies", "SA",
                     "--machines", "hypercube8", "--families", "layered",
                     "--replicas", "2", "--out", str(out)]) == 0
        loaded = json.loads(out.read_text())
        assert loaded["meta"]["replicas"] == 2
        assert loaded["results"][0]["replicas"] == 2


class TestLanes:
    _kwargs = dict(
        policies=("HLF", "ETF", "SA"),
        machines=("hypercube8", "ring9"),
        families=("layered",),
        n_seeds=2,
    )

    @staticmethod
    def _strip(rows):
        """Drop the timing/provenance/cache fields that legitimately vary
        (the scenario memo persists in-process, so a second sweep in the
        same test sees different hit/miss counts)."""
        varying = (
            "runtime_s", "worker_pid", "compile_cache_hits", "compile_cache_misses",
            "engine_used", "attempts", "supervisor_failures",
        )
        return [
            {k: v for k, v in row.items() if k not in varying} for row in rows
        ]

    def test_lane_rows_identical_to_solo(self):
        solo = run_sweep(jobs=1, **self._kwargs)
        laned = run_sweep(jobs=1, lanes=3, **self._kwargs)
        assert self._strip(laned["results"]) == self._strip(solo["results"])

    def test_lanes_compose_with_jobs(self):
        solo = run_sweep(jobs=1, **self._kwargs)
        laned = run_sweep(jobs=2, lanes=4, **self._kwargs)
        assert self._strip(laned["results"]) == self._strip(solo["results"])

    def test_lanes_validated_and_capped(self):
        with pytest.raises(ValueError, match="lanes"):
            run_sweep(jobs=1, lanes=0, **self._kwargs)
        report = run_sweep(jobs=1, lanes=999, **self._kwargs)
        meta = report["meta"]["lanes"]
        assert meta["requested"] == 999
        # Auto-capped at the grid size; SA rows (replicas or not) still lane.
        assert meta["effective"] <= report["meta"]["n_simulations"]
        assert report["meta"]["n_failed"] == 0

    def test_lane_meta_records_configuration(self):
        report = run_sweep(jobs=1, lanes=3, **self._kwargs)
        meta = report["meta"]["lanes"]
        assert meta["requested"] == 3
        assert meta["effective"] == 3
        assert meta["n_groups"] >= 1
        assert meta["n_lane_rows"] == len(meta["per_lane_fallback_epochs"])
        assert meta["n_lane_rows"] > 0
        # Every builtin policy is kernelized: no materialized contexts.
        assert set(meta["per_lane_fallback_epochs"]) == {0}

    def test_replica_rows_stay_solo(self):
        report = run_sweep(jobs=1, lanes=4, replicas=2, **self._kwargs)
        meta = report["meta"]["lanes"]
        # SA rows carry replicas and are excluded from the lane groups.
        n_sa = sum(1 for r in report["results"] if r["policy"] == "SA")
        assert meta["n_lane_rows"] == report["meta"]["n_simulations"] - n_sa
        assert report["meta"]["n_failed"] == 0

    def test_cache_stats_aggregated_across_workers(self):
        report = run_sweep(jobs=2, lanes=2, **self._kwargs)
        cache = report["meta"]["compile_cache"]
        assert cache["hits"] + cache["misses"] >= 1
        assert 1 <= cache["n_workers"] <= 2

    def test_lanes_cli_flag(self, tmp_path, capsys):
        out = tmp_path / "lanes.json"
        assert main(["--jobs", "1", "--lanes", "3", "--seeds", "2",
                     "--policies", "HLF", "ETF",
                     "--machines", "hypercube8", "--families", "layered",
                     "--out", str(out)]) == 0
        loaded = json.loads(out.read_text())
        assert loaded["meta"]["lanes"]["effective"] == 3
        assert loaded["meta"]["n_failed"] == 0

    def test_lanes_cli_rejects_non_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["--lanes", "0"])


def _spy_run_lanes(monkeypatch, delay_for=None):
    """Record (policy types, lane count) of every batched call in this process.

    *delay_for* names a policy class whose calls sleep 0.2 s first, so a
    test can see which rows a call's wall time is charged to.
    """
    calls = []
    real = sweep_module.run_lanes

    def spy(lanes, fidelity):
        kinds = {type(policy).__name__ for _scenario, policy in lanes}
        calls.append((kinds, len(lanes)))
        if kinds == {delay_for}:
            time.sleep(0.2)
        return real(lanes, fidelity=fidelity)

    monkeypatch.setattr(sweep_module, "run_lanes", spy)
    return calls


class TestLanePlan:
    """Lane-eligible cells are cut into graph-contiguous items, and each item
    runs one batched call per policy (the planner replaced grid-order groups
    whose calls mixed policies)."""

    @staticmethod
    def _keyed(grid):
        for index, spec in enumerate(grid):
            spec["_index"] = index
        return grid

    @staticmethod
    def _n_items(specs, lanes, jobs):
        most = max(Counter(s["policy"] for s in specs).values())
        return min(
            math.ceil(len(specs) / lanes),
            jobs * math.ceil(math.ceil(most / lanes) / jobs),
        )

    def _check_plan(self, specs, lanes, jobs):
        items = sweep_module._plan_lane_items(specs, lanes, jobs)
        # The items partition the specs, each item in the given order.
        assert sorted(s["_index"] for item in items for s in item) == sorted(
            s["_index"] for s in specs
        )
        for item in items:
            assert [s["_index"] for s in item] == sorted(s["_index"] for s in item)
            # Every batched call serves one policy with at most `lanes` lanes.
            for call in sweep_module._lane_calls(item):
                assert len({item[pos]["policy"] for pos in call}) == 1
                assert len(call) <= lanes
        # Item k holds the k-th contiguous, balanced slice of each policy.
        for policy in {s["policy"] for s in specs}:
            cells = [s["_index"] for s in specs if s["policy"] == policy]
            slices = [[s["_index"] for s in item if s["policy"] == policy]
                      for item in items]
            assert [i for part in slices for i in part] == cells
            sizes = [len(part) for part in slices]
            assert max(sizes) - min(sizes) <= 1
        return items

    @pytest.mark.parametrize(
        "policies, families, n_seeds, lanes, jobs",
        [
            (("HLF", "ETF", "SA"), ("layered",), 4, 8, 4),
            (("HLF", "ETF"), ("layered",), 8, 8, 4),
            (("HLF", "ETF"), ("montage", "grid"), 2, 8, 1),
            (("HLF", "SA", "LPT"), ("layered", "dag"), 5, 3, 2),
            (("ETF", "LPT"), ("dag",), 7, 4, 3),
        ],
    )
    def test_items_slice_every_policy_into_one_policy_calls(
        self, policies, families, n_seeds, lanes, jobs
    ):
        grid = self._keyed(build_grid(
            policies=policies, machines=("hypercube8", "ring9"),
            families=families, n_seeds=n_seeds,
        ))
        items = self._check_plan(grid, lanes, jobs)
        assert len(items) == self._n_items(grid, lanes, jobs)
        assert len(items) <= math.ceil(len(grid) / lanes)

    def test_dag200_benchmark_shape_makes_two_items_of_96(self):
        grid = self._keyed(build_grid(
            policies=("HLF", "ETF", "LPT"), machines=("hypercube8", "ring9"),
            families=("dag200",), n_seeds=32,
        ))
        items = self._check_plan(grid, 32, 2)
        assert [len(item) for item in items] == [96, 96]
        # Graph-contiguous: item k runs graphs 16k .. 16k + 15 only.
        for k, item in enumerate(items):
            assert {s["graph_seed"] for s in item} == set(range(16 * k, 16 * k + 16))

    def test_uneven_remaining_sets_keep_calls_within_lanes(self):
        grid = self._keyed(build_grid(
            policies=("HLF", "ETF", "LPT"), machines=("hypercube8", "ring9"),
            families=("layered", "dag"), n_seeds=6,
        ))
        rng = random.Random(7)
        for _ in range(25):
            keep = rng.uniform(0.2, 0.9)
            specs = [s for s in grid if rng.random() < keep]
            if specs:
                self._check_plan(specs, rng.randint(2, 12), rng.randint(1, 4))

    def test_resumed_sweep_calls_stay_one_policy_within_lanes(
        self, tmp_path, monkeypatch
    ):
        kwargs = dict(policies=("HLF", "ETF", "LPT"), machines=("hypercube8",),
                      families=("layered",), n_seeds=4)
        path = tmp_path / "ck.jsonl"
        full = run_sweep(jobs=1, checkpoint=str(path), **kwargs)
        # Keep the header and 5 rows: the policies are left uneven (2/2/1).
        path.write_text("\n".join(path.read_text().splitlines()[:6]) + "\n")
        calls = _spy_run_lanes(monkeypatch)
        resumed = run_sweep(
            jobs=1, lanes=3, checkpoint=str(path), resume=True, **kwargs
        )
        assert resumed["meta"]["resume"]["n_restored"] == 5
        assert comparable_rows(resumed) == comparable_rows(full)
        assert calls and all(len(kinds) == 1 and n <= 3 for kinds, n in calls)
        assert sum(n for _kinds, n in calls) == 7
        plan = resumed["meta"]["lanes"]
        assert plan["n_calls"] == len(calls)
        assert plan["max_call_lanes"] == max(n for _kinds, n in calls)

    def test_sa_replica_rows_stay_out_of_the_calls(self, monkeypatch):
        calls = _spy_run_lanes(monkeypatch)
        report = run_sweep(jobs=1, lanes=4, replicas=2, **TestLanes._kwargs)
        assert report["meta"]["n_failed"] == 0
        assert calls and all(len(kinds) == 1 and n <= 4 for kinds, n in calls)
        assert not any("SAScheduler" in kinds for kinds, _n in calls)
        for row in report["results"]:
            expected = "fast" if row["policy"] == "SA" else "batched"
            assert row["engine_used"] == expected

    def test_small_setup_sweep_stays_one_inline_item(self):
        report = run_sweep(
            jobs=2, lanes=32, policies=("HLF", "ETF", "LPT"),
            machines=("hypercube8", "ring9"), families=("dag",), n_seeds=2,
        )
        plan = report["meta"]["lanes"]
        assert (plan["n_items"], plan["n_calls"], plan["max_call_lanes"]) == (1, 3, 4)
        assert report["meta"]["supervisor"]["stats"]["mode"] == "inline"
        assert "1 items, 3 batched calls" in format_sweep_report(report)

    def test_mixed_service_batch_runs_one_call_per_policy(self, monkeypatch):
        jobs = [
            {"policy": policy, "machine": machine, "family": family,
             "graph_seed": seed, "policy_seed": seed, "with_comm": True,
             "fidelity": "latency", "fast": None, "replicas": None,
             "portfolio": None, "_fingerprint": True}
            for seed, (policy, machine, family) in enumerate([
                ("HLF", "hypercube8", "grid"), ("SA", "ring9", "layered"),
                ("ETF", "hypercube8", "layered"), ("HLF", "ring9", "grid"),
                ("SA", "hypercube8", "grid"), ("ETF", "ring9", "grid"),
            ])
        ]
        solo = [run_scenario(dict(job)) for job in jobs]
        calls = _spy_run_lanes(monkeypatch, delay_for="SAScheduler")
        rows = run_lane_group([dict(job) for job in jobs])
        assert sorted((sorted(kinds), n) for kinds, n in calls) == [
            (["ETFScheduler"], 2), (["HLFScheduler"], 2), (["SAScheduler"], 2),
        ]
        for row, expected in zip(rows, solo):
            assert row["engine_used"] == "batched"
            for key in SCIENCE_FIELDS + ("fingerprint",):
                assert row[key] == expected[key], key
        # Each call's wall time is charged to that call's own rows only.
        runtime = {}
        for row in rows:
            runtime.setdefault(row["policy"], set()).add(row["runtime_s"])
        assert all(len(times) == 1 for times in runtime.values())
        assert min(runtime["SA"]) >= 0.1
        assert max(runtime["HLF"] | runtime["ETF"]) < 0.1


class TestLaneGroupSpecs:
    """run_lane_group answers each spec with its own cell, whatever the mix."""

    @staticmethod
    def _assert_rows_match_solo(specs):
        rows = run_lane_group([dict(spec) for spec in specs])
        for spec, row in zip(specs, rows):
            expected = run_scenario(dict(spec))
            for key in SCIENCE_FIELDS:
                assert row.get(key) == expected.get(key), (spec, key)
        return rows

    def test_lane_eligibility(self):
        assert lane_eligible({"replicas": None, "fast": None})
        assert lane_eligible({"replicas": None, "fast": True})
        assert not lane_eligible({"replicas": 8, "fast": None})
        assert not lane_eligible({"replicas": None, "fast": False})
        # Portfolio cells drive heterogeneous lanes of their own; they can
        # never ride a shared lane group.
        assert not lane_eligible(
            {"replicas": None, "portfolio": 4, "fast": None}
        )

    def test_ineligible_spec_runs_alone(self):
        plain = _spec(0, family="dag", policy="SA")
        replicated = dict(plain, replicas=4)
        rows = self._assert_rows_match_solo([plain, replicated])
        assert rows[0]["engine_used"] == "batched"
        assert rows[1]["engine_used"] == "fast"

    def test_fidelities_never_share_a_call(self, monkeypatch):
        latency = _spec(1, family="dag")
        contention = dict(_spec(0, family="dag"), fidelity="contention")
        calls = _spy_run_lanes(monkeypatch)
        rows = self._assert_rows_match_solo([latency, contention])
        assert [n for _kinds, n in calls] == [1, 1]
        assert [row["fidelity"] for row in rows] == ["latency", "contention"]


class TestLevelsOnMemoHit:
    def test_memo_hit_cells_never_compute_levels(self, monkeypatch):
        """Task levels feed only a compile miss, so a memo-hit cell skips them
        on every cell path: the sweep's solo worker (``Simulator.run``'s fast
        path) and its lane groups."""
        import repro.taskgraph.levels as levels_module
        from repro.schedulers.hlf import HLFScheduler
        from repro.sim.engine import simulate
        from repro.taskgraph.generators import layered_random

        spec = _spec(11, family="dag")
        run_scenario(dict(spec))  # warm the worker caches and the scenario memo
        calls = []
        real = levels_module.compute_levels

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(levels_module, "compute_levels", spy)
        row = run_scenario(dict(spec))
        assert (row["compile_cache_hits"], row["compile_cache_misses"]) == (1, 0)
        rows = run_lane_group([dict(spec), dict(spec, policy="ETF")])
        assert [r["engine_used"] for r in rows] == ["batched", "batched"]
        machine = sweep_module._spec_machine(spec)
        assert calls == []
        # A miss still computes them, once.
        simulate(layered_random(3, 4, seed=99), machine, HLFScheduler(seed=0),
                 record_trace=False)
        assert calls == [1]


def _row(policy, makespan, speedup, policy_seed=0, **fields):
    """A hand-made result row of one Table-2-style cell."""
    row = dict(_spec(0, family="NE", policy=policy), policy_seed=policy_seed,
               makespan=makespan, speedup=speedup, error=None)
    row.update(fields)
    return row


class TestReduceCells:
    def test_hlf_mean_is_taken_in_seed_order(self):
        speedups = [1e16, 1.0, -1e16, 1.0]
        rows = [_row("HLF", 10.0 + s, x, policy_seed=s) for s, x in enumerate(speedups)]
        (cell,) = reduce_cells(rows).values()
        assert cell["HLF"]["policy"] == "HLF"
        assert cell["HLF"]["speedup"] == float(np.mean(speedups))
        assert cell["HLF"]["speedup"] != float(np.mean(sorted(speedups)))  # order matters
        assert cell["HLF"]["makespan"] == 11.5

    def test_lowest_makespan_wins_and_first_key_wins_a_tie(self):
        rows = [_row("SA/wc=0.3", 50.0, 2.0), _row("SA", 40.0, 2.5),
                _row("SA/wc=0.7", 40.0, 2.5)]
        (cell,) = reduce_cells(rows).values()
        assert cell["SA"] == {"policy": "SA", "speedup": 2.5, "makespan": 40.0}
        (cell,) = reduce_cells([rows[0], rows[2], rows[1]]).values()
        assert cell["SA"]["policy"] == "SA/wc=0.7"

    def test_cells_are_keyed_by_family_machine_comm_fidelity_and_graph(self):
        rows = [_row("SA", 40.0, 2.5), _row("SA", 30.0, 3.0, with_comm=False),
                _row("SA", 20.0, 4.0, fidelity="contention"),
                _row("SA", 10.0, 5.0, graph_seed=1), _row("HLF", 45.0, 2.2)]
        cells = reduce_cells(rows)
        assert list(cells) == [
            ("NE", "hypercube8", True, "latency", 0),
            ("NE", "hypercube8", False, "latency", 0),
            ("NE", "hypercube8", True, "contention", 0),
            ("NE", "hypercube8", True, "latency", 1),
        ]
        assert sorted(cells[("NE", "hypercube8", True, "latency", 0)]) == ["HLF", "SA"]

    def test_a_cell_with_an_error_row_raises(self):
        failed = _row("SA/wc=0.7", None, None, error="ValueError: boom",
                      error_type="ValueError", traceback="Traceback: boom")
        with pytest.raises(WorkerError, match="SA/wc=0.7 failed: ValueError: boom") as info:
            reduce_cells([_row("SA", 40.0, 2.5), failed])
        assert info.value.error_type == "ValueError"
        assert info.value.traceback == "Traceback: boom"


class TestPaperRegistryKeys:
    def test_paper_programs_are_graph_families(self):
        from repro.taskgraph.io import to_dict
        from repro.workloads.suite import PAPER_PROGRAMS

        for key in ("NE", "GJ", "FFT", "MM"):
            for seed in (0, 1):
                assert to_dict(GRAPH_FAMILIES[key](seed)) == to_dict(
                    PAPER_PROGRAMS[key].build(seed=seed)
                )

    def test_weight_variants_share_sa_defaults(self):
        from repro.core.config import SAConfig

        # The cooling and acceptance objects compare by identity; repr shows them.
        for key, wc in (("SA/wc=0.3", 0.3), ("SA", 0.5), ("SA/wc=0.7", 0.7)):
            config = POLICY_BUILDERS[key](3).config
            assert (config.weight_balance, config.weight_comm) == (1.0 - wc, wc)
            assert repr(config) == repr(
                SAConfig.paper_defaults(seed=3).with_weights(1.0 - wc, wc)
            )

    def test_cli_accepts_the_new_keys(self, tmp_path, capsys):
        out = tmp_path / "ne.json"
        assert main(["--families", "NE", "--policies", "HLF", "SA/wc=0.3",
                     "--seeds", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["meta"]["n_failed"] == 0
        assert [(r["policy"], r["family"], r["machine"]) for r in report["results"]] == [
            (policy, "NE", machine)
            for machine in ("hypercube8", "ring9")
            for policy in ("HLF", "SA/wc=0.3")
        ]

    def test_importing_the_sweep_builds_no_graph(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(sweep_module.__file__).resolve().parents[2]
        code = (
            "import repro.taskgraph.graph as g\n"
            "built = []\n"
            "real = g.TaskGraph.__init__\n"
            "def spy(self, *a, **k):\n"
            "    built.append(1)\n"
            "    real(self, *a, **k)\n"
            "g.TaskGraph.__init__ = spy\n"
            "import repro.experiments.sweep\n"
            "print(len(built))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.stdout.strip() == "0"


class TestHeteroScenarios:
    def test_speed_ramp_spans_spread(self):
        ramp = speed_ramp(9, 4.0)
        assert ramp[0] == 1.0
        assert ramp[-1] == pytest.approx(4.0)
        assert ramp == sorted(ramp)

    def test_speed_ramp_unit_spread_is_homogeneous(self):
        assert speed_ramp(9, 1.0) is None

    def test_hetero_registry_has_nine_machines(self):
        assert len(HETERO_MACHINES) == 9
        for name in HETERO_MACHINES:
            machine = MACHINE_BUILDERS[name]()
            assert machine.is_heterogeneous  # all carry weighted links
            assert not machine.has_unit_link_weights

    def test_hetero_spreads_set_speeds(self):
        assert hetero_machine("ring9", 1.0).has_unit_speeds
        m = hetero_machine("ring9", 4.0)
        assert not m.has_unit_speeds
        assert max(m.speeds) / min(m.speeds) == pytest.approx(4.0)
        with pytest.raises(KeyError):
            hetero_machine("bogus", 2.0)

    def test_hetero_grid_covers_54_cells(self):
        grid = build_grid(policies=("HLF", "ETF", "SA"), machines=HETERO_MACHINES,
                          families=("layered", "dag"), n_seeds=1)
        cells = {(g["policy"], g["machine"], g["family"]) for g in grid}
        assert len(cells) == 54

    def test_hetero_scenario_runs(self):
        spec = {
            "policy": "HLF",
            "machine": "hetero-ring9-4x",
            "family": "layered",
            "graph_seed": 0,
            "policy_seed": 0,
            "with_comm": True,
            "fidelity": "latency",
        }
        row = run_scenario(spec)
        assert row["error"] is None
        assert row["makespan"] > 0


class TestFailureTaxonomy:
    """Poisoned specs and worker exceptions become structured error rows and
    a fault taxonomy instead of failing the sweep."""

    def test_poisoned_spec_produces_structured_error_row(self, monkeypatch):
        monkeypatch.setitem(GRAPH_FAMILIES, "poison", _poison_family)
        row = run_scenario(_spec(0, family="poison"))
        assert row["makespan"] is None
        assert row["error"] == "ValueError: poisoned family for seed 0"
        assert row["error_type"] == "ValueError"
        assert "poisoned family" in row["traceback"]
        assert row["engine_used"] is None

    def test_sweep_carries_error_rows_and_fault_taxonomy(self, monkeypatch):
        monkeypatch.setitem(GRAPH_FAMILIES, "poison", _poison_family)
        report = run_sweep(
            jobs=1, policies=("HLF",), machines=("hypercube8",),
            families=("layered", "poison"), n_seeds=2, retries=0,
        )
        assert report["meta"]["n_simulations"] == 4
        assert report["meta"]["n_failed"] == 2
        assert report["meta"]["faults"]["errors"] == {"ValueError": 2}
        for row in report["results"]:
            if row["family"] == "poison":
                assert row["error_type"] == "ValueError" and row["traceback"]
            else:
                assert row["error"] is None and row["error_type"] is None
        healthy = [a for a in report["aggregates"] if a["family"] == "layered"]
        assert healthy[0]["n_failed"] == 0 and healthy[0]["mean_speedup"] > 0


class TestEngineLadder:
    """The batched → fast → object ladder: a cell that fails on one rung
    re-runs alone on the next, and its row keeps a record of every step."""

    def test_fast_engine_failure_degrades_to_object(self, monkeypatch):
        import repro.sim.engine as engine_mod

        expected = run_scenario(_spec(1))
        assert expected["engine_used"] == "fast"

        def boom(*args, **kwargs):
            raise RuntimeError("fast engine exploded")

        monkeypatch.setattr(engine_mod, "run_compiled", boom)
        row = run_scenario(_spec(1))
        assert row["error"] is None
        assert row["engine_used"] == "object"
        assert len(row["engine_fallbacks"]) == 1
        fallback = row["engine_fallbacks"][0]
        assert fallback["from"] == "fast" and fallback["to"] == "object"
        assert fallback["error_type"] == "RuntimeError"
        assert "fast engine exploded" in fallback["traceback"]
        # The ladder never changes the numbers: both engines are bit-identical.
        assert row["makespan"] == expected["makespan"]
        assert row["speedup"] == expected["speedup"]

    def test_lane_group_quarantines_poisoned_cell(self, monkeypatch):
        monkeypatch.setitem(GRAPH_FAMILIES, "poison", _poison_family)
        specs = [_spec(0), _spec(1, family="poison"), _spec(2)]
        rows = run_lane_group([dict(s) for s in specs])
        # Healthy lanes still ran batched, unaffected by the poisoned cell.
        for pos in (0, 2):
            assert rows[pos]["error"] is None
            assert rows[pos]["engine_used"] == "batched"
            assert rows[pos]["lane_fallback"] is None
            solo = run_scenario(dict(specs[pos]))
            assert rows[pos]["makespan"] == solo["makespan"]
        # The poisoned cell carries its own error row plus the reason it
        # left the batched tier.
        bad = rows[1]
        assert bad["error_type"] == "ValueError"
        assert bad["lane_fallback"]["error_type"] == "ValueError"
        assert "poisoned family" in bad["lane_fallback"]["error"]

    def test_lane_group_run_failure_quarantines_every_lane(self, monkeypatch):
        specs = [_spec(0), _spec(1)]
        solo_rows = [run_scenario(dict(s)) for s in specs]

        def boom(lanes, fidelity):
            raise RuntimeError("batched engine blew up")

        monkeypatch.setattr("repro.experiments.sweep.run_lanes", boom)
        rows = run_lane_group([dict(s) for s in specs])
        for solo, row in zip(solo_rows, rows):
            assert row["error"] is None
            assert row["lane_fallback"]["error_type"] == "RuntimeError"
            assert row["engine_used"] == "fast"
            assert row["makespan"] == solo["makespan"]
            # The solo fallback re-measures its own compile-cache traffic
            # (so meta.compile_cache stays accurate).
            assert row["compile_cache_hits"] + row["compile_cache_misses"] >= 1

    def test_lane_fallbacks_surface_in_sweep_meta(self, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.sweep.run_lanes",
            lambda lanes, fidelity: (_ for _ in ()).throw(RuntimeError("nope")),
        )
        report = run_sweep(
            jobs=1, lanes=4, policies=("HLF", "ETF"), machines=("hypercube8",),
            families=("layered",), n_seeds=2, retries=0,
        )
        assert report["meta"]["n_failed"] == 0
        assert report["meta"]["faults"]["lane_fallbacks"] == {"RuntimeError": 4}

    def test_solo_cell_failing_on_every_engine_keeps_each_step(self, monkeypatch):
        import repro.sim.engine as engine_mod

        def fast_boom(*args, **kwargs):
            raise RuntimeError("fast engine exploded")

        def object_boom():
            raise MemoryError("object engine exploded")

        monkeypatch.setattr(engine_mod, "run_compiled", fast_boom)
        monkeypatch.setattr(engine_mod, "EventQueue", object_boom)
        row = run_scenario(_spec(1))
        assert row["makespan"] is None and row["engine_used"] is None
        assert row["error_type"] == "MemoryError"
        assert "object engine exploded" in row["traceback"]
        assert row["lane_fallback"] is None
        steps = [(f["from"], f["to"], f["error_type"]) for f in row["engine_fallbacks"]]
        assert steps == [("fast", "object", "RuntimeError")]
        assert "fast engine exploded" in row["engine_fallbacks"][0]["traceback"]

    def test_lane_cell_failing_on_every_rung_keeps_each_step(self, monkeypatch):
        import repro.sim.engine as engine_mod

        def batched_boom(lanes, fidelity):
            raise RuntimeError("batched engine blew up")

        def fast_boom(*args, **kwargs):
            raise ArithmeticError("fast engine exploded")

        def object_boom():
            raise MemoryError("object engine exploded")

        monkeypatch.setattr("repro.experiments.sweep.run_lanes", batched_boom)
        monkeypatch.setattr(engine_mod, "run_compiled", fast_boom)
        monkeypatch.setattr(engine_mod, "EventQueue", object_boom)
        report = run_sweep(
            jobs=1, lanes=2, policies=("HLF",), machines=("hypercube8",),
            families=("layered",), n_seeds=2, retries=0,
        )
        assert report["meta"]["lanes"]["n_calls"] == 1
        for row in report["results"]:
            assert row["error_type"] == "MemoryError"
            assert row["lane_fallback"]["error_type"] == "RuntimeError"
            assert "batched engine blew up" in row["lane_fallback"]["traceback"]
            steps = [(f["from"], f["to"], f["error_type"]) for f in row["engine_fallbacks"]]
            assert steps == [("fast", "object", "ArithmeticError")]
        assert report["meta"]["faults"] == {
            "errors": {"MemoryError": 2},
            "lane_fallbacks": {"RuntimeError": 2},
            "engine_fallbacks": {"ArithmeticError": 2},
            "n_retried_rows": 0,
        }

    def test_object_pinned_cell_has_no_rung_below(self, monkeypatch):
        import repro.sim.engine as engine_mod

        def fast_boom(*args, **kwargs):
            raise RuntimeError("the fast engine must not run")

        def object_boom():
            raise MemoryError("object engine exploded")

        monkeypatch.setattr(engine_mod, "run_compiled", fast_boom)
        monkeypatch.setattr(engine_mod, "EventQueue", object_boom)
        row = run_scenario(dict(_spec(1), fast=False))
        assert row["error_type"] == "MemoryError"
        assert row["engine_used"] is None
        assert row["engine_fallbacks"] == []
        assert row["lane_fallback"] is None


class TestChaosDifferential:
    """The acceptance contract: with seeded faults injected, the sweep must
    complete with science rows bit-identical to a fault-free run."""

    _kwargs = dict(
        policies=("HLF", "ETF"),
        machines=("hypercube8",),
        families=("layered",),
        n_seeds=8,
    )

    def test_chaotic_sweep_is_bit_identical_to_clean(self):
        clean = run_sweep(jobs=1, **self._kwargs)
        # Seed 3 provably injects faults on this grid: retries, a timeout
        # kill, and a worker death all fire (asserted below), exercising
        # every recovery path at --jobs 4 --lanes 8.
        chaos = ChaosConfig(rate=0.35, seed=3, hang_s=20.0)
        chaotic = run_sweep(
            jobs=4, lanes=8, timeout=2.0, retries=8,
            chaos=chaos, supervisor_seed=3, **self._kwargs,
        )
        stats = chaotic["meta"]["supervisor"]["stats"]
        assert stats["retries"] + stats["timeouts"] + stats["worker_deaths"] > 0
        assert chaotic["meta"]["n_failed"] == 0
        assert comparable_rows(chaotic) == comparable_rows(clean)
        assert comparable_aggregates(chaotic) == comparable_aggregates(clean)
        assert chaotic["meta"]["supervisor"]["chaos"] == {
            "rate": 0.35, "kinds": list(FAULT_KINDS), "seed": 3, "hang_s": 20.0,
        }

    def test_chaos_hang_faults_require_a_timeout(self):
        with pytest.raises(ConfigurationError, match="hang"):
            run_sweep(jobs=1, chaos=ChaosConfig(rate=0.1), **self._kwargs)


class TestCheckpointResume:
    _kwargs = dict(
        policies=("HLF", "ETF"),
        machines=("hypercube8",),
        families=("layered",),
        n_seeds=4,
    )

    def test_checkpoint_journals_every_completed_row(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        report = run_sweep(jobs=1, checkpoint=str(path), **self._kwargs)
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert entries[0]["kind"] == "header"
        rows = [e for e in entries if e["kind"] == "row"]
        assert len(rows) == report["meta"]["n_simulations"]

    def test_kill_and_resume_reproduces_identical_report(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        full = run_sweep(jobs=1, **self._kwargs)
        run_sweep(jobs=1, checkpoint=str(path), **self._kwargs)
        # Simulate a kill mid-run: keep the header + the first 3 completed
        # rows, plus a partial trailing line from the interrupted write.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n" + lines[4][:25])
        resumed = run_sweep(
            jobs=2, lanes=4, checkpoint=str(path), resume=True, **self._kwargs
        )
        meta = resumed["meta"]["resume"]
        assert meta["resumed"] is True
        assert meta["n_restored"] == 3
        assert meta["n_executed"] == resumed["meta"]["n_simulations"] - 3
        assert comparable_rows(resumed) == comparable_rows(full)
        assert comparable_aggregates(resumed) == comparable_aggregates(full)
        # The journal is complete again after the resumed run.
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert sum(1 for e in entries if e["kind"] == "row") >= len(
            resumed["results"]
        )

    def test_resume_requires_a_checkpoint_path(self):
        with pytest.raises(ConfigurationError, match="checkpoint"):
            run_sweep(jobs=1, resume=True, **self._kwargs)

    def test_resume_refuses_a_checkpoint_from_another_grid(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        run_sweep(jobs=1, checkpoint=str(path), **self._kwargs)
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep(
                jobs=1, checkpoint=str(path), resume=True,
                **dict(self._kwargs, n_seeds=2),
            )


class TestSupervisionCli:
    _base = [
        "--seeds", "4", "--policies", "HLF",
        "--machines", "hypercube8", "--families", "layered",
    ]

    def test_chaos_with_hang_requires_timeout(self, capsys):
        with pytest.raises(SystemExit):
            main(self._base + ["--chaos", "0.2"])  # default kinds include hang

    def test_flag_validation(self, capsys):
        with pytest.raises(SystemExit):
            main(self._base + ["--chaos", "1.5"])
        with pytest.raises(SystemExit):
            main(self._base + ["--retries", "-1"])
        with pytest.raises(SystemExit):
            main(self._base + ["--timeout", "0"])

    def test_chaos_cli_run_matches_clean_run(self, tmp_path, capsys):
        clean_out = tmp_path / "clean.json"
        assert main(self._base + ["--jobs", "1", "--out", str(clean_out)]) == 0
        chaos_out = tmp_path / "chaos.json"
        assert main(self._base + [
            "--jobs", "2", "--retries", "8",
            "--chaos", "0.4", "--chaos-kinds", "raise", "malform",
            "--chaos-seed", "3", "--maxtasksperchild", "4",
            "--out", str(chaos_out),
        ]) == 0
        clean = json.loads(clean_out.read_text())
        chaotic = json.loads(chaos_out.read_text())
        supervisor = chaotic["meta"]["supervisor"]
        assert supervisor["chaos"]["rate"] == 0.4
        assert supervisor["chaos"]["kinds"] == ["raise", "malform"]
        assert supervisor["maxtasksperchild"] == 4
        assert chaotic["meta"]["n_failed"] == 0
        assert comparable_rows(chaotic) == comparable_rows(clean)
        assert comparable_aggregates(chaotic) == comparable_aggregates(clean)

    def test_resume_cli_restores_all_finished_cells(self, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt.jsonl"
        first_out = tmp_path / "first.json"
        assert main(self._base + [
            "--checkpoint", str(ckpt), "--out", str(first_out),
        ]) == 0
        second_out = tmp_path / "second.json"
        assert main(self._base + [
            "--checkpoint", str(ckpt), "--resume", "--out", str(second_out),
        ]) == 0
        first = json.loads(first_out.read_text())
        second = json.loads(second_out.read_text())
        meta = second["meta"]["resume"]
        assert meta["resumed"] is True
        assert meta["n_restored"] == second["meta"]["n_simulations"]
        assert meta["n_executed"] == 0
        assert comparable_rows(second) == comparable_rows(first)


class TestCli:
    def test_hetero_flag_selects_hetero_grid(self, tmp_path, capsys):
        out = tmp_path / "hetero.json"
        code = main([
            "--hetero", "--jobs", "2", "--seeds", "1",
            "--policies", "HLF",
            "--families", "layered",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["meta"]["machines"] == HETERO_MACHINES
        assert report["meta"]["n_simulations"] == 9
        assert report["meta"]["n_failed"] == 0

    def test_hetero_conflicts_with_explicit_machines(self, capsys):
        with pytest.raises(SystemExit):
            main(["--hetero", "--machines", "hypercube8"])

    def test_main_writes_report(self, tmp_path, capsys):
        out = tmp_path / "cli_report.json"
        code = main([
            "--jobs", "2", "--seeds", "2",
            "--policies", "HLF", "SA",
            "--machines", "hypercube8",
            "--families", "layered",
            "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["meta"]["n_simulations"] == 4
        captured = capsys.readouterr()
        assert "report written" in captured.out
