"""The benchmark-regression gate: measured speedups must stay above floor.

Every performance benchmark persists its measured numbers to a
``BENCH_*.json`` baseline at the repository root, together with the floor it
asserted (the ``min_*_asserted`` keys).  This script reads the *measured*
speedups from ``--root`` and the *floors* from ``--floors-root`` and fails —
exit status 1, one line per violation — when any speedup is below its floor.
It is the shared gate between local runs and CI:

* locally, run the benchmarks and then the gate (floors and values both
  from the working tree)::

      python -m pytest benchmarks/bench_engine.py benchmarks/bench_sa.py \
          benchmarks/bench_fidelity.py --benchmark-disable -q
      python benchmarks/check_floors.py

* in CI, the ``bench-gate`` job stashes the **committed** baselines first,
  reruns the benchmarks (which rewrite the files in place) and then gates
  the fresh measurements against the committed floors::

      cp BENCH_*.json /tmp/committed-baselines/
      python -m pytest benchmarks/bench_*.py --benchmark-disable -q
      python benchmarks/check_floors.py --floors-root /tmp/committed-baselines

  so a change that slows a compiled engine below the floor of record fails
  the build even if the benchmark's own in-test assertion (and the floor it
  writes into the refreshed JSON) was edited in the same commit.

``--baseline-only`` skips missing files silently (useful for partial local
runs); by default every registered baseline must exist.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).parent.parent

#: baseline file -> [(speedup key path, floor key)].  A key path may use
#: dots to descend into nested objects (e.g. ``e2e_dag200_ms.speedup``).
FLOOR_CHECKS = {
    "BENCH_engine.json": [
        ("sweep_speedup", "min_speedup_asserted"),
    ],
    "BENCH_sa.json": [
        ("single_chain_speedup", "min_single_speedup_asserted"),
        ("batched_per_replica_speedup", "min_batched_speedup_asserted"),
        ("single_idle_speedup", "min_single_idle_speedup_asserted"),
        ("portfolio_quality_min", "min_portfolio_quality_asserted"),
    ],
    "BENCH_fidelity.json": [
        ("contention_sweep_speedup", "min_speedup_asserted"),
    ],
    "BENCH_batch.json": [
        ("sweep_speedup", "min_speedup_asserted"),
    ],
    "BENCH_families.json": [
        ("batched_sweep_speedup", "min_speedup_asserted"),
    ],
    "BENCH_supervisor.json": [
        ("supervised_throughput_ratio", "min_ratio_asserted"),
    ],
    "BENCH_service.json": [
        ("service_speedup", "min_speedup_asserted"),
    ],
}


def _lookup(payload: dict, dotted: str):
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def _load(path: Path):
    try:
        return json.loads(path.read_text()), None
    except (OSError, ValueError) as exc:
        return None, f"{path.name}: unreadable baseline ({exc})"


def check_file(
    path: Path, floors_path: Path, checks: List[Tuple[str, str]]
) -> List[str]:
    """Return the violation messages for one baseline file (empty = pass).

    Measured values come from *path*, floors from *floors_path* (the same
    file unless CI stashed the committed copy).
    """
    payload, err = _load(path)
    if err:
        return [err]
    floors_payload = payload
    if floors_path != path:
        floors_payload, err = _load(floors_path)
        if err:
            return [err]
    problems = []
    for value_key, floor_key in checks:
        value = _lookup(payload, value_key)
        floor = _lookup(floors_payload, floor_key)
        if value is None or floor is None:
            problems.append(
                f"{path.name}: missing {value_key!r} or {floor_key!r} "
                f"(got {value!r} / {floor!r})"
            )
        elif float(value) < float(floor):
            problems.append(
                f"{path.name}: {value_key} = {value}x is below the "
                f"{floor}x floor ({floor_key})"
            )
        else:
            print(f"ok: {path.name}: {value_key} = {value}x >= {floor}x floor")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root", type=Path, default=REPO_ROOT,
        help="directory holding the measured BENCH_*.json files (default: repo root)",
    )
    parser.add_argument(
        "--floors-root", type=Path, default=None,
        help=(
            "directory holding the baselines whose min_*_asserted floors are "
            "enforced (default: --root; CI points this at a stash of the "
            "committed files so edited floors cannot gate themselves)"
        ),
    )
    parser.add_argument(
        "--baseline-only", action="store_true",
        help="skip missing baseline files instead of failing on them",
    )
    args = parser.parse_args(argv)
    floors_root = args.floors_root if args.floors_root is not None else args.root

    problems: List[str] = []
    checked = 0
    for name, checks in FLOOR_CHECKS.items():
        path = args.root / name
        if not path.exists():
            if args.baseline_only:
                print(f"skip: {name} (not present)")
                continue
            problems.append(f"{name}: baseline missing (run its benchmark first)")
            continue
        checked += 1
        problems.extend(check_file(path, floors_root / name, checks))

    if problems:
        for line in problems:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(f"benchmark floors hold ({checked} baseline file(s) checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
