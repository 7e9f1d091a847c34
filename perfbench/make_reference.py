"""Record the reference outputs the sa-1k and sa-lanes workloads check.

Runs every sa-1k and sa-lanes cell once through ``run_scenario`` with
tracing off and writes their makespans and packet counts to
``perfbench/reference.json``.  Rerun it only when a change is meant to
alter SA results, and review the diff::

    python3 perfbench/make_reference.py

It takes about half a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from repro.experiments.sweep import run_scenario  # noqa: E402


def main() -> int:
    cells = {}
    for workload in (workloads.SA1k, workloads.SALanes):
        for spec in workload.CELLS:
            row = run_scenario(spec)
            if row["error"] is not None:
                raise SystemExit(f"{spec}: {row['error']}")
            key = workloads.reference_key(spec)
            cells[key] = {"makespan": row["makespan"], "n_packets": row["n_packets"]}
            print(key, row["makespan"], row["n_packets"], flush=True)
    payload = {
        "about": "makespan and n_packets of every sa-1k / sa-lanes cell; "
        "written by perfbench/make_reference.py",
        "cells": cells,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
