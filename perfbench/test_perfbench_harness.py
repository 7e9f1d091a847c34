"""Tests for the benchmark's own helpers (``harness.py``) and layer hooks.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

from harness import (  # noqa: E402
    OpenLoop,
    Speedometer,
    Tally,
    Tracer,
    median,
    missed_limit,
    tail_percentile,
)


# --------------------------------------------------------------------------- #
# The percentile rule
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("n", [20, 21, 50, 240, 1000])
def test_tail_has_exactly_ten_samples_beyond(n):
    samples = [float(k) for k in range(n)][::-1]  # distinct, unsorted
    value, pct, count = tail_percentile(samples)
    assert count == n
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_reports_p99_only_from_a_thousand_samples():
    assert tail_percentile(list(range(1000)))[1] == pytest.approx(99.0)
    assert tail_percentile(list(range(999)))[1] < 99.0
    value, pct, n = tail_percentile(list(range(240)))
    assert (value, n) == (229, 240) and 95.0 < pct < 96.0


def test_a_sample_without_a_tail_reports_its_median():
    assert tail_percentile([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)
    assert tail_percentile([float(k) for k in range(19)]) == (9.0, 50.0, 19)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_latency_limit_fails_the_samples_beyond_it_only_when_the_tail_is_over():
    # 100 samples: the tail percentile (p90) is the 90th smallest value.
    within = [0.01] * 95 + [0.5] * 5
    assert tail_percentile(within)[0] == 0.01
    assert missed_limit(within, 0.25) == []
    over = [0.01] * 85 + [0.5] * 15
    assert tail_percentile(over)[0] == 0.5
    assert missed_limit(over, 0.25) == list(range(85, 100))
    assert missed_limit([], 0.25) == []


def test_a_failed_request_counts_as_beyond_the_limit():
    samples = [0.01] * 80 + [math.inf] * 20
    assert missed_limit(samples, 0.25) == list(range(80, 100))


# --------------------------------------------------------------------------- #
# Open-loop due-time accounting
# --------------------------------------------------------------------------- #


def test_open_loop_latency_runs_from_the_due_time():
    loop = OpenLoop(rate=10.0, n=4, start=100.0)
    assert [loop.due(i) for i in range(4)] == pytest.approx([100.0, 100.1, 100.2, 100.3])
    # Request 1 left 50 ms late (a stall); its latency still counts the stall.
    for i, (sent, done) in enumerate([(100.0, 100.02), (100.15, 100.18), (100.2, 100.25)]):
        loop.sent(i, sent)
        loop.done(i, done)
    assert loop.late_max == pytest.approx(0.05)
    assert loop.latencies() == pytest.approx([0.02, 0.08, 0.05])  # request 3 never done


def test_open_loop_on_time_generator_is_never_late():
    loop = OpenLoop(rate=20.0, n=3, start=0.0)
    for i in range(3):
        loop.sent(i, loop.due(i))
    assert loop.late_max == 0.0
    assert loop.latencies() == []
    with pytest.raises(ValueError):
        OpenLoop(rate=0.0, n=1, start=0.0)


# --------------------------------------------------------------------------- #
# failed_frac arithmetic
# --------------------------------------------------------------------------- #


def test_failed_frac_counts_errors_refusals_and_mismatches():
    tally = Tally()
    tally.record("ok", 6)
    tally.record("error")
    tally.record("refused", 2)
    tally.record("mismatch")
    tally.record("late", 2)
    assert tally.attempted == 12
    assert (tally.errors, tally.refused, tally.mismatched, tally.late) == (1, 2, 1, 2)
    assert tally.failed == 6
    assert tally.failed_frac == pytest.approx(0.5)


def test_failed_frac_rejects_bad_input():
    tally = Tally()
    with pytest.raises(ValueError):
        tally.failed_frac
    with pytest.raises(ValueError):
        tally.record("timeout")
    with pytest.raises(ValueError):
        tally.record("ok", -1)
    tally.record("ok")
    assert tally.failed_frac == 0.0


# --------------------------------------------------------------------------- #
# Machine-speed calibration
# --------------------------------------------------------------------------- #


def test_speedometer_rescales_to_the_nominal_speed():
    ticks = iter([0.0, 0.004, 0.008, 10.0, 10.006])
    units = []
    speed = Speedometer(unit=lambda: units.append(1), nominal_s=0.002, clock=lambda: next(ticks))
    with pytest.raises(ValueError):
        speed.factor
    speed.sample(0.008)  # two units of 4 ms
    speed.sample(0.001)  # always at least one unit: 6 ms
    assert len(units) == speed.units == 3
    assert speed.unit_s == pytest.approx(0.014 / 3)
    # The machine ran at 3/7 of the nominal speed: durations shrink, rates grow.
    assert speed.factor == pytest.approx(0.002 * 3 / 0.014)


# --------------------------------------------------------------------------- #
# Wrapper install and uninstall
# --------------------------------------------------------------------------- #


class _Policy:
    def assign(self, x):
        return helpers.inner(x) + 1


helpers = types.SimpleNamespace(inner=lambda x: 2 * x)


class _Child(_Policy):
    pass


def _fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_install_records_nested_spans_and_uninstall_restores():
    registry = {"square": lambda x: x * x}
    original_assign = vars(_Policy)["assign"]
    original_inner = helpers.inner
    original_square = registry["square"]
    tracer = Tracer(clock=_fake_clock())
    assert tracer.install(_Policy, "assign", "outer")
    assert tracer.install(helpers, "inner", "inner")
    assert tracer.install(registry, "square", "square")
    assert not tracer.install(_Child, "assign", "outer")  # inherited: wrapped once
    assert not tracer.install(helpers, "absent", "x")
    assert tracer.missing == ["_Child.assign", "SimpleNamespace.absent"]

    with tracer.region("cell", tag="a"):
        assert _Child().assign(3) == 7
        assert registry["square"](3) == 9
    names = [span[0] for span in tracer.spans]
    assert names == ["cell", "outer", "inner", "square"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 0]
    # Clock ticks: cell 0..7, outer 1..4, inner 2..3, square 5..6.
    assert tracer.self_times() == [7 - 3 - 1, 3 - 1, 1, 1]
    assert tracer.self_by_region("cell") == {0: {"cell": 3, "outer": 2, "inner": 1, "square": 1}}

    tracer.uninstall()
    assert vars(_Policy)["assign"] is original_assign
    assert helpers.inner is original_inner
    assert registry["square"] is original_square
    assert _Policy().assign(1) == 3  # untraced again: no new spans
    assert len(tracer.spans) == 4


def test_uninstall_detects_a_wrapper_replaced_while_traced():
    space = types.SimpleNamespace(fn=lambda: 1)
    original = space.fn
    tracer = Tracer()
    tracer.install(space, "fn", "fn")
    space.fn = lambda: 2
    with pytest.raises(RuntimeError, match="replaced"):
        tracer.uninstall()
    assert space.fn is original


def test_after_hook_adds_counts():
    space = types.SimpleNamespace(fn=lambda n: list(range(n)))
    tracer = Tracer()
    tracer.install(space, "fn", "fn", after=lambda t, result, args: t.counts.update(items=len(result)))
    space.fn(3)
    space.fn(4)
    tracer.uninstall()
    assert tracer.counts["items"] == 7
    assert tracer.export()["counts"] == {"items": 7}


def test_layer_hooks_leave_results_identical_and_are_removed():
    import workloads
    from repro.experiments.sweep import run_scenario

    hooked = [
        (workloads.sa_scheduler_module, "compile_fast_packet"),
        (workloads.packet_annealer_module, "anneal_array"),
        (workloads.engine_module, "run_compiled"),
        (workloads.sweep_module, "run_lanes"),
    ]
    originals = [vars(owner)[attr] for owner, attr in hooked]
    originals_fast = vars(workloads.SAScheduler)["fast_assign"]
    spec = dict(workloads.SA_BASE, family="layered", graph_seed=7, policy_seed=7)
    plain = run_scenario(dict(spec))
    with workloads.traced() as tracer:
        assert tracer.missing == []
        with tracer.region(workloads.CELL, tag="layered"):
            traced_row = run_scenario(dict(spec, graph_seed=8))
        layers = workloads.layer_metrics(tracer, [traced_row])
        again = run_scenario(dict(spec))
    assert workloads.science(again) == workloads.science(plain)
    assert [vars(owner)[attr] for owner, attr in hooked] == originals
    assert vars(workloads.SAScheduler)["fast_assign"] is originals_fast
    assert layers["core.packets"] == traced_row["n_packets"]
    assert layers["core.anneal_walk_ms"] > 0 and layers["taskgraph.build_ms"] > 0
    assert 0.5 < layers["trace.coverage"] <= 1.0


def test_a_row_answering_another_request_is_a_mismatch():
    import workloads
    from repro.experiments.sweep import run_scenario

    spec_a = dict(workloads.SA_BASE, policy="HLF", family="layered", graph_seed=1, policy_seed=1)
    spec_b = dict(spec_a, graph_seed=2, policy_seed=2)
    row_a, row_b = run_scenario(dict(spec_a)), run_scenario(dict(spec_b))
    reference = workloads.DirectReference()
    tally = Tally()
    reference.check(row_a, spec_a, tally)
    reference.check(row_b, spec_a, tally)  # swapped: b's row for a's request
    reference.check(dict(row_a, error="boom"), spec_a, tally)
    assert (tally.attempted, tally.mismatched, tally.errors) == (3, 1, 1)


def test_benchmark_json_lists_the_metrics_the_workloads_report():
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in workloads.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in workloads.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
