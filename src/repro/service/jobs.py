"""Job routing for the scheduling service.

Pure functions over scenario specs (the dicts
:func:`repro.service.protocol.job_to_spec` produces), separated from the
server's event loop so the routing policy is unit-testable on its own:
:func:`affinity_key` / :func:`shard` name the worker a job goes to, by a
stable hash of the (graph, machine) identity, so repeats of the same
scenario land on the worker whose compiled-scenario memo
(:mod:`repro.sim.compile`) already holds it.  Each job then runs alone on
that worker, through :func:`repro.experiments.sweep.run_scenario`.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["affinity_key", "shard"]


def affinity_key(spec: dict) -> str:
    """The cache-affinity identity of a spec: its (graph, machine) pair.

    Policy, seeds and fidelity are deliberately excluded — a compiled
    scenario is reusable across all of them, so jobs differing only there
    should share a worker (and its hot cache), not scatter.
    """
    payload = {
        "family": spec.get("family"),
        "graph_seed": spec.get("graph_seed"),
        "machine": spec.get("machine"),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def shard(spec: dict, n_workers: int) -> int:
    """The worker index a spec routes to (stable across runs and processes)."""
    if n_workers <= 1:
        return 0
    return int(affinity_key(spec), 16) % n_workers

