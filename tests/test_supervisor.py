"""Tests for the supervised execution layer (repro.experiments.supervisor)
and the deterministic chaos harness (repro.utils.chaos).

The pool tests use marker files in tmp_path for cross-process state: a
worker that should fail "once" records its first visit on disk, so the
retried attempt (possibly in a different, respawned process) sees the marker
and succeeds.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.exceptions import ChaosError, ConfigurationError, WorkerError
from repro.experiments.supervisor import (
    Checkpoint,
    SupervisorConfig,
    group_key,
    spec_key,
    supervised_map,
)
from repro.utils.chaos import (
    FAULT_KINDS,
    MALFORMED_PAYLOAD,
    ChaosConfig,
    det_uniform,
)


# --------------------------------------------------------------------------- #
# Worker functions (module-level so they survive any start method)
# --------------------------------------------------------------------------- #

def _double(x):
    return x * 2


def _pid_of(_item):
    return os.getpid()


def _marker_seen(marker: str) -> bool:
    if os.path.exists(marker):
        return True
    with open(marker, "w") as fh:
        fh.write("seen")
    return False


def _flaky(item):
    """Raise on the first visit to this item's marker, succeed after."""
    value, marker = item
    if not _marker_seen(marker):
        raise ValueError(f"transient failure for {value}")
    return value * 10


def _die_once(item):
    """Abruptly exit the worker on the first visit (like a segfault)."""
    value, marker = item
    if not _marker_seen(marker):
        os._exit(13)
    return value * 10


def _hang_once(item):
    """Hang far past any test timeout on the first visit."""
    value, marker = item
    if not _marker_seen(marker):
        time.sleep(120)
    return value * 10


def _fail_always(item):
    raise RuntimeError(f"permanent failure for {item}")


# --------------------------------------------------------------------------- #
# Stable keys
# --------------------------------------------------------------------------- #

class TestKeys:
    def test_spec_key_is_stable_and_content_addressed(self):
        spec = {"policy": "HLF", "machine": "ring9", "graph_seed": 3}
        assert spec_key(spec) == spec_key(dict(spec))
        assert spec_key(spec) != spec_key({**spec, "graph_seed": 4})
        assert len(spec_key(spec)) == 16

    def test_spec_key_ignores_underscore_bookkeeping(self):
        spec = {"policy": "HLF", "machine": "ring9"}
        assert spec_key(spec) == spec_key({**spec, "_index": 7, "_key": "x"})

    def test_group_key_depends_on_members_and_order(self):
        assert group_key(["a", "b"]) == group_key(["a", "b"])
        assert group_key(["a", "b"]) != group_key(["b", "a"])
        assert group_key(["a", "b"]).startswith("g")


# --------------------------------------------------------------------------- #
# Chaos harness
# --------------------------------------------------------------------------- #

class TestChaos:
    def test_det_uniform_is_deterministic_and_bounded(self):
        draws = [det_uniform(5, "fault", "cell", k) for k in range(200)]
        assert draws == [det_uniform(5, "fault", "cell", k) for k in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # Distinct keys give distinct draws (no accidental constant).
        assert len(set(draws)) == len(draws)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="rate"):
            ChaosConfig(rate=1.5)
        with pytest.raises(ConfigurationError, match="kinds"):
            ChaosConfig(rate=0.5, kinds=())
        with pytest.raises(ConfigurationError, match="unknown chaos kind"):
            ChaosConfig(rate=0.5, kinds=("explode",))
        with pytest.raises(ConfigurationError, match="hang_s"):
            ChaosConfig(rate=0.5, hang_s=0.0)

    def test_decide_is_deterministic_and_rate_extremes_hold(self):
        cfg = ChaosConfig(rate=0.5, seed=11)
        keys = [f"cell{i}" for i in range(300)]
        first = [cfg.decide(k, 1) for k in keys]
        assert first == [cfg.decide(k, 1) for k in keys]
        assert all(k is None for k in (ChaosConfig(rate=0.0).decide(k, 1) for k in keys))
        assert all(
            kind in FAULT_KINDS
            for kind in (ChaosConfig(rate=1.0).decide(k, 1) for k in keys)
        )
        # ~50% fault rate over 300 keys, generously bracketed.
        n_faults = sum(1 for kind in first if kind is not None)
        assert 100 < n_faults < 200

    def test_decide_respects_the_kind_restriction(self):
        cfg = ChaosConfig(rate=1.0, kinds=("raise",), seed=2)
        assert {cfg.decide(f"c{i}", 1) for i in range(50)} == {"raise"}

    def test_inject_raise_and_malform(self):
        cfg = ChaosConfig(rate=1.0, kinds=("raise",), seed=2)
        with pytest.raises(ChaosError, match="injected fault"):
            cfg.inject("cell", 1)
        cfg = ChaosConfig(rate=1.0, kinds=("malform",), seed=2)
        assert cfg.inject("cell", 1) == MALFORMED_PAYLOAD
        assert ChaosConfig(rate=0.0).inject("cell", 1) is None

    def test_plan_maps_only_faulting_keys(self):
        cfg = ChaosConfig(rate=0.5, seed=11)
        keys = [f"cell{i}" for i in range(100)]
        plan = cfg.plan(keys)
        assert plan == {k: cfg.decide(k, 1) for k in keys if cfg.decide(k, 1)}
        assert 0 < len(plan) < len(keys)


# --------------------------------------------------------------------------- #
# Supervisor configuration
# --------------------------------------------------------------------------- #

class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            SupervisorConfig(jobs=0)
        with pytest.raises(ConfigurationError, match="retries"):
            SupervisorConfig(retries=-1)
        with pytest.raises(ConfigurationError, match="timeout"):
            SupervisorConfig(timeout=0.0)
        with pytest.raises(ConfigurationError, match="maxtasksperchild"):
            SupervisorConfig(maxtasksperchild=0)

    def test_isolation_required_by_timeout_or_chaos(self):
        assert not SupervisorConfig(jobs=4).needs_isolation
        assert SupervisorConfig(timeout=5.0).needs_isolation
        assert SupervisorConfig(chaos=ChaosConfig(rate=0.1)).needs_isolation

    def test_backoff_is_deterministic_exponential_and_capped(self):
        cfg = SupervisorConfig(backoff_base=0.1, backoff_max=1.0, seed=4)
        delays = [cfg.backoff_delay("cell", attempt) for attempt in range(1, 9)]
        assert delays == [cfg.backoff_delay("cell", a) for a in range(1, 9)]
        # Exponential: the un-jittered base doubles until the cap.
        assert delays[0] < delays[1] < delays[2]
        # Jitter is at most +100% of the capped base.
        assert all(d <= 2.0 * cfg.backoff_max for d in delays)


# --------------------------------------------------------------------------- #
# Checkpoint journal
# --------------------------------------------------------------------------- #

class TestCheckpoint:
    FP = {"n_cells": 3, "grid_sha": "abc123"}

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with Checkpoint.open(path, self.FP) as ckpt:
            ckpt.record("k1", {"makespan": 1.0})
            ckpt.record("k2", {"makespan": 2.0})
        fingerprint, rows = Checkpoint.load(path)
        assert fingerprint == self.FP
        assert rows == {"k1": {"makespan": 1.0}, "k2": {"makespan": 2.0}}

    def test_resume_restores_previous_rows_and_appends(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with Checkpoint.open(path, self.FP) as ckpt:
            ckpt.record("k1", {"makespan": 1.0})
        with Checkpoint.open(path, self.FP, resume=True) as ckpt:
            assert ckpt.restored == {"k1": {"makespan": 1.0}}
            ckpt.record("k2", {"makespan": 2.0})
        _fp, rows = Checkpoint.load(path)
        assert set(rows) == {"k1", "k2"}

    def test_partial_trailing_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with Checkpoint.open(path, self.FP) as ckpt:
            ckpt.record("k1", {"makespan": 1.0})
        with open(path, "a") as fh:
            fh.write('{"kind": "row", "key": "k2", "row": {"makes')  # killed mid-write
        fingerprint, rows = Checkpoint.load(path)
        assert fingerprint == self.FP
        assert rows == {"k1": {"makespan": 1.0}}
        # Resuming over the truncated journal works too.
        with Checkpoint.open(path, self.FP, resume=True) as ckpt:
            assert ckpt.restored == {"k1": {"makespan": 1.0}}

    def test_resume_refuses_a_foreign_grid(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with Checkpoint.open(path, self.FP) as ckpt:
            ckpt.record("k1", {"makespan": 1.0})
        with pytest.raises(ConfigurationError, match="different sweep"):
            Checkpoint.open(path, {"n_cells": 9, "grid_sha": "zzz"}, resume=True)

    def test_resume_refuses_rows_without_header(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "row", "key": "k1", "row": {}}) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            Checkpoint.open(path, self.FP, resume=True)

    def test_resume_without_existing_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with Checkpoint.open(path, self.FP, resume=True) as ckpt:
            assert ckpt.restored == {}
        fingerprint, rows = Checkpoint.load(path)
        assert fingerprint == self.FP and rows == {}


# --------------------------------------------------------------------------- #
# supervised_map: inline path
# --------------------------------------------------------------------------- #

class TestInlineSupervision:
    def test_plain_map_in_order(self):
        results, stats = supervised_map(_double, [3, 1, 2])
        assert results == [6, 2, 4]
        assert stats["mode"] == "inline"
        assert stats["attempts"] == 3 and stats["retries"] == 0

    def test_empty_map_starts_no_pool(self):
        results, stats = supervised_map(_double, [], SupervisorConfig(jobs=4))
        assert results == []
        assert stats["mode"] == "inline" and stats["attempts"] == 0

    def test_transient_failure_is_retried(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("transient")
            return x * 10

        config = SupervisorConfig(retries=2, backoff_base=0.0)
        results, stats = supervised_map(flaky, [7], config)
        assert results == [70]
        assert stats["retries"] == 1 and stats["failed_items"] == 0

    def test_exhausted_retries_raise_worker_error_with_taxonomy(self):
        config = SupervisorConfig(retries=1, backoff_base=0.0)
        with pytest.raises(WorkerError, match="failed after 2 attempt"):
            supervised_map(_fail_always, [1], config)
        try:
            supervised_map(_fail_always, [1], config)
        except WorkerError as exc:
            assert exc.error_type == "RuntimeError"
            assert exc.attempts == 2
            assert "permanent failure" in exc.traceback

    def test_on_failure_builds_terminal_results_instead_of_raising(self):
        config = SupervisorConfig(retries=1, backoff_base=0.0)
        results, stats = supervised_map(
            _fail_always,
            ["a", "b"],
            config,
            on_failure=lambda item, failures: {
                "item": item,
                "error_type": failures[-1]["error_type"],
                "n_failures": len(failures),
            },
        )
        assert results == [
            {"item": "a", "error_type": "RuntimeError", "n_failures": 2},
            {"item": "b", "error_type": "RuntimeError", "n_failures": 2},
        ]
        assert stats["failed_items"] == 2

    def test_validation_rejects_and_retries(self):
        calls = {"n": 0}

        def improving(x):
            calls["n"] += 1
            return calls["n"]  # 1 on the first attempt, 2 on the retry

        def validate(item, result):
            if result < 2:
                raise ValueError("result too small")

        config = SupervisorConfig(retries=2, backoff_base=0.0)
        results, stats = supervised_map(improving, [0], config, validate=validate)
        assert results == [2]
        assert stats["retries"] == 1

    def test_annotate_sees_attempt_and_failure_history(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("transient")
            return x

        config = SupervisorConfig(retries=2, backoff_base=0.0)
        results, _stats = supervised_map(
            flaky,
            [5],
            config,
            annotate=lambda item, result, attempt, failures: {
                "result": result,
                "attempt": attempt,
                "prior_errors": [f["error_type"] for f in failures],
            },
        )
        assert results == [
            {"result": 5, "attempt": 2, "prior_errors": ["ValueError"]}
        ]

    def test_on_result_fires_for_successes_only(self):
        journal = []
        config = SupervisorConfig(retries=0, backoff_base=0.0)

        def sometimes(x):
            if x == 2:
                raise ValueError("no")
            return x

        results, _stats = supervised_map(
            sometimes,
            [1, 2, 3],
            config,
            on_failure=lambda item, failures: None,
            on_result=lambda item, result: journal.append(item),
        )
        assert results == [1, None, 3]
        assert journal == [1, 3]


# --------------------------------------------------------------------------- #
# supervised_map: pool path
# --------------------------------------------------------------------------- #

class TestPoolSupervision:
    def test_results_keep_input_order(self):
        results, stats = supervised_map(
            _double, list(range(12)), SupervisorConfig(jobs=4)
        )
        assert results == [x * 2 for x in range(12)]
        assert stats["mode"] == "pool"
        assert stats["attempts"] == 12

    def test_worker_exception_is_retried_across_processes(self, tmp_path):
        items = [(i, str(tmp_path / f"m{i}")) for i in range(4)]
        config = SupervisorConfig(jobs=2, retries=2, backoff_base=0.0)
        results, stats = supervised_map(_flaky, items, config)
        assert results == [0, 10, 20, 30]
        assert stats["retries"] == 4 and stats["failed_items"] == 0

    def test_worker_death_is_detected_and_the_item_redispatched(self, tmp_path):
        items = [(i, str(tmp_path / f"m{i}")) for i in range(3)]
        config = SupervisorConfig(jobs=2, retries=2, backoff_base=0.0)
        results, stats = supervised_map(_die_once, items, config)
        assert results == [0, 10, 20]
        assert stats["worker_deaths"] == 3
        assert stats["respawns"] >= 1

    def test_hung_worker_is_killed_at_the_timeout(self, tmp_path):
        items = [(i, str(tmp_path / f"m{i}")) for i in range(2)]
        config = SupervisorConfig(
            jobs=2, retries=2, timeout=1.0, backoff_base=0.0
        )
        start = time.monotonic()
        results, stats = supervised_map(_hang_once, items, config)
        assert results == [0, 10]
        assert stats["timeouts"] == 2
        assert stats["respawns"] >= 1
        # Far faster than the 120s hang: the kill actually happened.
        assert time.monotonic() - start < 30

    def test_maxtasksperchild_recycles_workers(self):
        config = SupervisorConfig(jobs=2, maxtasksperchild=2)
        results, stats = supervised_map(_pid_of, list(range(8)), config)
        assert stats["recycles"] >= 2
        # Recycling forced more distinct worker processes than pool slots.
        assert len(set(results)) > 2

    def test_recycled_worker_gets_no_cell_after_its_last_reply(self, monkeypatch):
        """A worker exits after its ``maxtasksperchild``-th reply, so it is
        retired at that reply: no cell is sent into its closing pipe, and
        with no retries to spare every cell still completes."""
        from repro.experiments import supervisor
        from repro.experiments.sweep import build_grid, run_scenario

        specs = build_grid(
            policies=("HLF",), machines=("hypercube8", "ring9"),
            families=("layered", "dag"), n_seeds=24,
        )
        late = []
        dispatch = supervisor.PoolWorker.dispatch

        def spy(worker, task, timeout):
            if worker.tasks_done >= 1:
                late.append(task.key)
            return dispatch(worker, task, timeout)

        monkeypatch.setattr(supervisor.PoolWorker, "dispatch", spy)
        config = SupervisorConfig(jobs=2, maxtasksperchild=1, retries=0)
        results, stats = supervised_map(run_scenario, specs, config)
        assert len(specs) == 96
        assert [row["error"] for row in results] == [None] * 96
        assert stats["worker_deaths"] == 0 and stats["retries"] == 0
        assert stats["attempts"] == 96
        assert late == []

    def test_exhausted_pool_retries_raise_worker_error(self):
        config = SupervisorConfig(jobs=2, retries=1, backoff_base=0.0)
        with pytest.raises(WorkerError, match="failed after 2 attempt"):
            supervised_map(_fail_always, [1, 2, 3], config)

    def test_on_failure_terminal_results_in_pool_mode(self):
        config = SupervisorConfig(jobs=2, retries=0, backoff_base=0.0)
        results, stats = supervised_map(
            _fail_always,
            [1, 2],
            config,
            on_failure=lambda item, failures: {
                "item": item,
                "error_type": failures[-1]["error_type"],
            },
        )
        assert results == [
            {"item": 1, "error_type": "RuntimeError"},
            {"item": 2, "error_type": "RuntimeError"},
        ]
        assert stats["failed_items"] == 2

    def test_chaos_forces_pool_isolation_even_at_one_job(self):
        chaos = ChaosConfig(rate=1.0, kinds=("die",), seed=0)
        config = SupervisorConfig(jobs=1, retries=0, chaos=chaos)
        results, stats = supervised_map(
            _double,
            [1, 2],
            config,
            on_failure=lambda item, failures: None,
        )
        assert stats["mode"] == "pool"
        assert results == [None, None]
        assert stats["worker_deaths"] == 2

    def test_chaos_malform_payload_is_rejected_and_retried(self):
        # Rate 1.0 malform on attempt 1 and 2... every attempt malforms, so
        # give the config enough retries that the deterministic draw matters:
        # with kinds=("malform",) every attempt faults; terminal rows result.
        chaos = ChaosConfig(rate=1.0, kinds=("malform",), seed=3)
        config = SupervisorConfig(jobs=1, retries=1, chaos=chaos, backoff_base=0.0)
        results, stats = supervised_map(
            _double,
            [4],
            config,
            on_failure=lambda item, failures: {
                "error_type": failures[-1]["error_type"],
                "kinds": [f["kind"] for f in failures],
            },
        )
        assert results == [{"error_type": "MalformedResult", "kinds": ["malformed", "malformed"]}]
        assert stats["failed_items"] == 1
