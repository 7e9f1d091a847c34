"""Benchmark: regenerate Table 2 (SA vs HLF speedups).

Paper reference (Table 2), per program and architecture, without / with
communication:

* Without communication cost SA equals (or marginally beats) HLF.
* With communication cost SA outperforms HLF by 3.5 % – 52.8 %, with the
  largest gains on the communication-heavy Newton–Euler graph.

Absolute speedups depend on the exact task graphs (rebuilt from structure
by ``repro.workloads``) and on the simulator; the assertions below check the
paper's qualitative shape, not the absolute numbers.  The full regenerated
table is written to ``benchmarks/results/table2*.txt``.

The four programs are split into one benchmark each so the per-program cost
is visible in the pytest-benchmark report.
"""

from __future__ import annotations

import pytest

from repro.experiments.table2 import format_table2, paper_table2_reference, run_table2

ARCHITECTURES = ("Hypercube (8p)", "Bus (8p)", "Ring (9p)")


def _run_program(program: str):
    return run_table2(
        programs=[program],
        sa_weights=(0.3, 0.5, 0.7),
        hlf_placement_seeds=(0, 1, 2, 3),
    )


def _check_shape(block, program: str, min_cells_with_gain: int) -> None:
    """Assert the paper's qualitative claims for one program block."""
    n_with_gain = 0
    for arch in ARCHITECTURES:
        wo = block.cell(arch, with_communication=False)
        wi = block.cell(arch, with_communication=True)
        # (1) without communication SA matches HLF
        assert wo.speedup_sa == pytest.approx(wo.speedup_hlf, rel=0.03)
        # (2) communication does not raise the speedup (tiny tolerance: on the
        # nearly-flat MM graph the tuned with-comm schedule can edge out the
        # untuned without-comm one by a fraction of a percent)
        assert wi.speedup_sa <= wo.speedup_sa * 1.02
        assert wi.speedup_hlf <= wo.speedup_hlf * 1.02
        # (3) with communication SA does not lose to HLF (small tolerance)
        assert wi.speedup_sa >= wi.speedup_hlf * 0.97
        if wi.gain_percent > 1.0:
            n_with_gain += 1
        # the paper reference for this cell exists (sanity of the lookup table)
        assert len(paper_table2_reference(program, arch)) == 4
    assert n_with_gain >= min_cells_with_gain


@pytest.mark.benchmark(group="table2")
def test_table2_newton_euler(benchmark, save_artifact):
    blocks = benchmark.pedantic(_run_program, args=("NE",), rounds=1, iterations=1)
    # NE has the highest C/C ratio: SA must win clearly on all architectures
    _check_shape(blocks[0], "NE", min_cells_with_gain=3)
    text = format_table2(blocks)
    save_artifact("table2_newton_euler", text)
    print("\n" + text)


@pytest.mark.benchmark(group="table2")
def test_table2_gauss_jordan(benchmark, save_artifact):
    blocks = benchmark.pedantic(_run_program, args=("GJ",), rounds=1, iterations=1)
    _check_shape(blocks[0], "GJ", min_cells_with_gain=2)
    text = format_table2(blocks)
    save_artifact("table2_gauss_jordan", text)
    print("\n" + text)


@pytest.mark.benchmark(group="table2")
def test_table2_fft(benchmark, save_artifact):
    blocks = benchmark.pedantic(_run_program, args=("FFT",), rounds=1, iterations=1)
    _check_shape(blocks[0], "FFT", min_cells_with_gain=1)
    text = format_table2(blocks)
    save_artifact("table2_fft", text)
    print("\n" + text)


@pytest.mark.benchmark(group="table2")
def test_table2_matrix_multiply(benchmark, save_artifact):
    blocks = benchmark.pedantic(_run_program, args=("MM",), rounds=1, iterations=1)
    _check_shape(blocks[0], "MM", min_cells_with_gain=1)
    text = format_table2(blocks)
    save_artifact("table2_matrix_multiply", text)
    print("\n" + text)
