"""Job routing and coalescing decisions for the scheduling service.

Pure functions over scenario specs (the dicts
:func:`repro.service.protocol.job_to_spec` produces), separated from the
server's event loop so the routing policy is unit-testable on its own:

* :func:`affinity_key` / :func:`shard` — which worker a job *wants*: a
  stable hash of the (graph, machine) identity, so repeats of the same
  scenario land on the worker whose compiled-scenario memo
  (:mod:`repro.sim.compile`) already holds it.
* :func:`lane_eligible` / :func:`coalesce_key` — whether and with whom a
  job may share a worker round trip
  (:func:`repro.experiments.sweep.run_lane_group`, which makes one
  :func:`~repro.sim.batch_engine.run_lanes` call per policy and fidelity;
  only latency jobs whose policy has a batched kernel step in lock step).
  Eligibility is the sweep lane planner's own rule
  (:func:`repro.experiments.sweep.lane_eligible`), plus one fidelity per
  coalesced batch.
"""

from __future__ import annotations

import hashlib
import json
from typing import Tuple

from repro.experiments.sweep import lane_eligible

__all__ = ["affinity_key", "shard", "lane_eligible", "coalesce_key"]


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


def coalesce_key(spec: dict) -> Tuple[str, ...]:
    """Jobs with equal keys may share one batched engine call.

    A lane call runs at one fidelity (:func:`~repro.sim.batch_engine.run_lanes`);
    everything else (policy, machine, graph, seeds) may mix freely within a
    group, exactly as in sweep lane items, which run one call per policy.
    """
    return ("lanes", spec.get("fidelity", "latency"))
