"""Scheduling as a service: a persistent async job server over the simulator.

The sweep (:mod:`repro.experiments.sweep`) amortizes scenario compilation
across the cells of *one* grid; this package amortizes it across *clients*.
A long-lived asyncio TCP server (:mod:`repro.service.server`) accepts
newline-delimited JSON jobs — (task graph, machine, policy, config) tuples —
and answers with the same science rows (and optional placement fingerprints)
a direct :func:`repro.sim.engine.simulate` call would produce, bit-identical.

Two mechanisms make the server fast where one-process-per-request is slow:

* **Persistent workers** — the supervised pool workers of
  :mod:`repro.experiments.supervisor` are kept alive across requests, so
  the per-process compiled-scenario memo (:mod:`repro.sim.compile`) stays
  hot instead of being rebuilt for every job.
* **Cache-affinity sharding** — jobs are routed to workers by a stable hash
  of their (graph, machine) identity (:func:`repro.service.jobs.affinity_key`),
  so repeat scenarios land on the worker that already compiled them; the
  server's ``stats`` op proves the hit rate climbs as the cache warms.

A job goes to its worker the moment that worker is idle, one job per
round trip, and runs there as one
:func:`repro.experiments.sweep.run_scenario` call.

Workers that die mid-job are respawned and their jobs retried transparently;
malformed requests get structured errors from the :mod:`repro.exceptions`
taxonomy without disturbing the server or other clients.
"""

from repro.service.protocol import (
    PROTOCOL_VERSION,
    RequestLimits,
    decode_line,
    encode_message,
    error_response,
    job_to_spec,
    ok_response,
)
from repro.service.jobs import affinity_key
from repro.service.server import SchedulerService, ServiceConfig, serve_in_thread
from repro.service.client import ServiceClient

__all__ = [
    "PROTOCOL_VERSION",
    "RequestLimits",
    "decode_line",
    "encode_message",
    "error_response",
    "job_to_spec",
    "ok_response",
    "affinity_key",
    "SchedulerService",
    "ServiceConfig",
    "serve_in_thread",
    "ServiceClient",
]
