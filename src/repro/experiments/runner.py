"""Run every paper experiment and print the results.

``python -m repro.experiments.runner`` regenerates Table 1, Table 2, Figure 1
and Figure 2 in one go.  The benchmark harness under ``benchmarks/`` calls
the same per-experiment functions, so the two entry points always agree.

``--jobs N`` distributes Table 2's simulations, which run as sweep rows, over
the supervised pool (the report is identical for any job count);
``--fidelity`` selects the simulator model used for Table 2 ("latency" — the
default the SA cost function assumes — or the contention-aware "contention"
model).
``--hetero`` appends a heterogeneous-machines extension study (speed spreads
{1x, 2x, 4x} on weighted ring/mesh/hypercube interconnects) that goes beyond
the paper's identical-processor setup; ``--lanes B`` runs that sweep's cells
as lock-step lanes of the batched engine (processes × lanes, results
bit-identical).
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.experiments.figure1 import format_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.table1 import format_table1
from repro.experiments.table2 import format_table2

__all__ = ["run_all", "run_hetero_study", "main"]


def run_hetero_study(
    seed: int = 0,
    jobs: int = 1,
    n_seeds: int = 3,
    lanes: int = 1,
    timeout: Optional[float] = None,
    retries: int = 2,
) -> str:
    """A small heterogeneous-machines sweep rendered as a report section.

    Runs HLF, ETF and SA over the 9-machine heterogeneous grid (speed spreads
    × weighted topologies) on *n_seeds* layered random graphs per machine and
    returns the aggregate table.  *lanes* batches compatible cells through
    the lock-step engine (processes × lanes, bit-identical results).
    *timeout* and *retries* arm the supervisor's per-cell wall-clock limit and
    retry budget (see :mod:`repro.experiments.supervisor`).
    """
    from repro.experiments.sweep import HETERO_MACHINES, format_sweep_report, run_sweep

    report = run_sweep(
        policies=("HLF", "ETF", "SA"),
        machines=tuple(HETERO_MACHINES),
        families=("layered",),
        n_seeds=n_seeds,
        base_seed=seed,
        jobs=jobs,
        lanes=lanes,
        timeout=timeout,
        retries=retries,
    )
    header = (
        "Extension - heterogeneous machines "
        "(speed spreads 1x/2x/4x on weighted ring/mesh/hypercube):"
    )
    return header + "\n" + format_sweep_report(report)


def run_all(
    seed: int = 0,
    programs: Optional[List[str]] = None,
    jobs: int = 1,
    fidelity: str = "latency",
    hetero: bool = False,
    lanes: int = 1,
    timeout: Optional[float] = None,
    retries: int = 2,
) -> str:
    """Regenerate every table and figure and return the combined report text."""
    sections = [
        format_table1(seed=seed),
        "",
        format_table2(seed=seed, programs=programs, jobs=jobs, fidelity=fidelity),
        "",
        format_figure1(seed=seed),
        "",
        "Figure 2 - Gantt chart (detail) of Newton-Euler on the 8-processor hypercube:",
        run_figure2(seed=seed).chart,
    ]
    if hetero:
        sections.extend(
            [
                "",
                run_hetero_study(
                    seed=seed, jobs=jobs, lanes=lanes, timeout=timeout, retries=retries
                ),
            ]
        )
    return "\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for workloads and SA")
    parser.add_argument(
        "--programs",
        nargs="*",
        default=None,
        help="restrict Table 2 to these program keys (NE GJ FFT MM)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the Table 2 grid (results identical for any count)",
    )
    parser.add_argument(
        "--fidelity",
        choices=["latency", "contention"],
        default="latency",
        help="simulator fidelity for Table 2",
    )
    parser.add_argument(
        "--hetero",
        action="store_true",
        help="append the heterogeneous-machines extension study",
    )
    parser.add_argument(
        "--lanes",
        type=int,
        default=1,
        help=(
            "lock-step lanes per batched-engine call in the --hetero sweep "
            "(composes with --jobs as processes x lanes; results identical)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell wall-clock timeout (seconds) for the --hetero sweep",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retry budget per failed cell in the --hetero sweep",
    )
    args = parser.parse_args(argv)
    if args.lanes < 1:
        parser.error(f"--lanes must be >= 1, got {args.lanes}")
    if args.timeout is not None and args.timeout <= 0:
        parser.error(f"--timeout must be > 0, got {args.timeout}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    print(
        run_all(
            seed=args.seed,
            programs=args.programs,
            jobs=args.jobs,
            fidelity=args.fidelity,
            hetero=args.hetero,
            lanes=args.lanes,
            timeout=args.timeout,
            retries=args.retries,
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
