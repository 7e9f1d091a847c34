"""Run one workload of the repository's benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sa-1k --seed 0 --seconds 20 --trace 0

Workloads: ``sa-1k``, ``sa-lanes``, ``sweep-dag200``, ``service-open``
(see ``perfbench/README.md``).  With ``--trace 0`` the result carries the
end-to-end metrics, measured with tracing off; with ``--trace 1`` it carries
the per-layer metrics of a traced run, and the spans are written to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from the checkout's ``src/``; without it the run
exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Hard stop for one run; the contract allows 180 seconds.
RUN_LIMIT_S = 170


def _import_workloads():
    """Import the package from this checkout's ``src/`` and the workloads."""
    src = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the package from {src}: {exc}") from exc
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported {repro.__file__}, not the copy in {src}")
    import workloads

    return workloads


def _timeout(_signum, _frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    workloads = _import_workloads()
    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), import_s
        )
    finally:
        signal.alarm(0)

    result, tally = outcome["result"], outcome["tally"]
    if outcome["trace_dump"] is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace.json"
        dump = {"result": result, "notes": outcome["notes"], **outcome["trace_dump"]}
        path.write_text(json.dumps(dump))
        print(f"spans written to {path.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:14.4f} {metric['unit']}")
    print(
        f"{'failed_frac':48s} {tally.failed_frac:14.4f} "
        f"({tally.failed}/{tally.attempted}: {tally.errors} errors, "
        f"{tally.refused} refused, {tally.mismatched} wrong outputs, "
        f"{tally.late} over the latency limit)"
    )
    for key, value in outcome["notes"].items():
        print(f"note {key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
