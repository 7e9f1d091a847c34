"""The scheduling service's newline-delimited JSON job protocol.

One request per line, one JSON object per request; the server answers each
request with exactly one JSON object on its own line (responses to pipelined
requests may interleave across jobs, so clients match on ``id``).

Requests::

    {"id": 1, "op": "ping"}
    {"id": 2, "op": "stats"}
    {"id": 3, "op": "simulate", "job": {
        "policy": "SA", "machine": "hypercube8",
        "family": "layered", "graph_seed": 0, "policy_seed": 0,
        "with_comm": true, "fidelity": "latency",
        "replicas": null, "fingerprint": true}}
    {"id": 4, "op": "submit", "job": {
        "policy": "SA", "machine": "hypercube8", "family": "dag200",
        "portfolio": 8}}
    {"id": 5, "op": "poll", "job_id": "job-1"}

``submit`` takes the same job object as ``simulate`` but returns
immediately with a ``job_id``; the job runs asynchronously and ``poll``
reports its ``state`` (``queued`` / ``running`` / ``done`` / ``error``), the
finished ``row`` once done, and — for SA ``portfolio`` jobs — the streamed
anytime ``best_so_far`` snapshot (committed packets, cumulative costs, the
last packet's champion lane) while the job is still running.

A ``simulate`` job addresses its graph by registry ``family`` + ``graph_seed``
or ships it inline as ``graph_payload`` (:mod:`repro.taskgraph.io` format);
machines likewise by registry ``machine`` name or inline ``machine_payload``
(:mod:`repro.machine.io` format).  Payload jobs are content-addressed
(``payload:<sha>`` pseudo-names), so resubmitting the same graph hits the
same worker-side caches a registry name would.

Responses::

    {"id": 3, "ok": true, "row": {"policy": "SA", ..., "fingerprint": {...}}}
    {"id": 4, "ok": false, "error": {"type": "ConfigurationError",
                                     "message": "unknown policy 'SSA' ..."}}

``row`` carries the same science fields a sweep row does (makespan, speedup,
packet counts, engine provenance, compile-cache deltas) — bit-identical to a
direct :func:`repro.sim.engine.simulate` call — plus the placement
``fingerprint`` when requested.  Errors reuse the :mod:`repro.exceptions`
taxonomy: wire-level violations are ``ProtocolError``, domain errors keep
their own types (``ConfigurationError``, ``MachineError``, ...).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.exceptions import ConfigurationError, ProtocolError, ReproError
from repro.sim.fast_engine import FIDELITIES

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "FIDELITIES",
    "RequestLimits",
    "decode_line",
    "encode_message",
    "job_to_spec",
    "ok_response",
    "error_response",
]

PROTOCOL_VERSION = 1

#: Operations the server understands.
OPS = ("simulate", "submit", "poll", "stats", "ping")


_JOB_FIELDS = {
    "policy",
    "machine",
    "machine_payload",
    "family",
    "graph_payload",
    "graph_seed",
    "policy_seed",
    "with_comm",
    "fidelity",
    "fast",
    "replicas",
    "portfolio",
    "fingerprint",
}


@dataclass(frozen=True)
class RequestLimits:
    """Size guards applied before a job is accepted.

    ``max_line_bytes`` is enforced by the stream reader (a longer line is a
    protocol error and closes the connection); ``max_tasks`` bounds inline
    graph payloads so one oversized job cannot stall a shared worker, and
    ``max_replicas`` bounds the SA replica fan-out a single job may request.
    """

    max_line_bytes: int = 8 * 2**20
    max_tasks: int = 20_000
    max_replicas: int = 512


def encode_message(message: dict) -> bytes:
    """Serialize one protocol message to its wire line."""
    return (
        json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode_line(line: Union[bytes, str]) -> dict:
    """Parse one request line into a message dict.

    Raises :class:`ProtocolError` for undecodable bytes, invalid JSON,
    non-object payloads, or an unknown/missing ``op``.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request line is not valid UTF-8: {exc}")
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"request line is not valid JSON: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {list(OPS)})")
    return message


def _content_key(kind: str, payload: dict) -> str:
    """Content-addressed pseudo-name for an inline payload.

    Derived from the canonical JSON of the payload, so the same graph or
    machine shipped twice resolves to the same worker-cache key (and the
    same affinity shard) as if it were a registry name.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
    return f"payload:{kind}:{digest}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def job_to_spec(
    job: object,
    limits: Optional[RequestLimits] = None,
    *,
    known_policies: Tuple[str, ...] = (),
    known_machines: Tuple[str, ...] = (),
    known_families: Tuple[str, ...] = (),
) -> dict:
    """Validate a ``simulate`` job and lower it to a sweep scenario spec.

    The returned spec runs through the exact worker entrypoint the sweep
    uses (:func:`repro.experiments.sweep.run_scenario`), which is what
    keeps service responses bit-identical to direct simulation.  Raises
    :class:`ProtocolError` for
    shape violations and :class:`ConfigurationError` for unknown registry
    names, mirroring the rest of the taxonomy.
    """
    limits = limits or RequestLimits()
    _require(isinstance(job, dict), "simulate request needs a 'job' object")
    unknown = set(job) - _JOB_FIELDS
    _require(not unknown, f"unknown job field(s) {sorted(unknown)}")

    policy = job.get("policy")
    _require(isinstance(policy, str), "job needs a string 'policy'")
    if known_policies and policy not in known_policies:
        raise ConfigurationError(
            f"unknown policy {policy!r} (known: {sorted(known_policies)})"
        )

    spec: dict = {"policy": policy}

    machine_payload = job.get("machine_payload")
    if machine_payload is not None:
        _require(
            isinstance(machine_payload, dict),
            "'machine_payload' must be a machine dictionary "
            "(see repro.machine.io.to_dict)",
        )
        _require(
            "machine" not in job,
            "give either 'machine' or 'machine_payload', not both",
        )
        spec["machine"] = _content_key("machine", machine_payload)
        spec["machine_payload"] = machine_payload
    else:
        machine = job.get("machine")
        _require(isinstance(machine, str), "job needs a string 'machine'")
        if known_machines and machine not in known_machines:
            raise ConfigurationError(
                f"unknown machine {machine!r} (known: {sorted(known_machines)})"
            )
        spec["machine"] = machine

    graph_payload = job.get("graph_payload")
    graph_seed = job.get("graph_seed", 0)
    _require(
        isinstance(graph_seed, int) and not isinstance(graph_seed, bool),
        "'graph_seed' must be an integer",
    )
    spec["graph_seed"] = graph_seed
    if graph_payload is not None:
        _require(
            isinstance(graph_payload, dict),
            "'graph_payload' must be a task-graph dictionary "
            "(see repro.taskgraph.io.to_dict)",
        )
        _require(
            "family" not in job,
            "give either 'family' or 'graph_payload', not both",
        )
        tasks = graph_payload.get("tasks")
        _require(
            isinstance(tasks, list),
            "'graph_payload' is missing its 'tasks' list",
        )
        if len(tasks) > limits.max_tasks:
            raise ProtocolError(
                f"graph payload has {len(tasks)} tasks, exceeding the "
                f"server's limit of {limits.max_tasks}"
            )
        spec["family"] = _content_key("graph", graph_payload)
        spec["graph_payload"] = graph_payload
    else:
        family = job.get("family")
        _require(isinstance(family, str), "job needs a string 'family'")
        if known_families and family not in known_families:
            raise ConfigurationError(
                f"unknown graph family {family!r} "
                f"(known: {sorted(known_families)})"
            )
        spec["family"] = family

    policy_seed = job.get("policy_seed", 0)
    _require(
        isinstance(policy_seed, int) and not isinstance(policy_seed, bool),
        "'policy_seed' must be an integer",
    )
    spec["policy_seed"] = policy_seed

    with_comm = job.get("with_comm", True)
    _require(isinstance(with_comm, bool), "'with_comm' must be a boolean")
    spec["with_comm"] = with_comm

    fidelity = job.get("fidelity", "latency")
    if fidelity not in FIDELITIES:
        raise ProtocolError(
            f"'fidelity' must be one of {list(FIDELITIES)}, got {fidelity!r}"
        )
    spec["fidelity"] = fidelity

    fast = job.get("fast")
    _require(fast is None or isinstance(fast, bool), "'fast' must be a boolean or null")
    spec["fast"] = fast

    replicas = job.get("replicas")
    if replicas is not None:
        _require(
            isinstance(replicas, int) and not isinstance(replicas, bool)
            and replicas >= 1,
            "'replicas' must be a positive integer or null",
        )
        if replicas > limits.max_replicas:
            raise ProtocolError(
                f"job requests {replicas} replicas, exceeding the server's "
                f"limit of {limits.max_replicas}"
            )
    spec["replicas"] = replicas

    portfolio = job.get("portfolio")
    if portfolio is not None:
        _require(
            isinstance(portfolio, int) and not isinstance(portfolio, bool)
            and portfolio >= 2,
            "'portfolio' must be an integer >= 2 or null",
        )
        _require(
            replicas is None,
            "'replicas' and 'portfolio' are mutually exclusive",
        )
        if portfolio > limits.max_replicas:
            raise ProtocolError(
                f"job requests {portfolio} portfolio lanes, exceeding the "
                f"server's limit of {limits.max_replicas}"
            )
    spec["portfolio"] = portfolio

    fingerprint = job.get("fingerprint", False)
    _require(isinstance(fingerprint, bool), "'fingerprint' must be a boolean")
    if fingerprint:
        # Underscore keys are excluded from spec_key, so asking for the
        # placement fingerprint does not change the job's identity.
        spec["_fingerprint"] = True
    return spec


def ok_response(request_id: object, row: dict) -> dict:
    """A success response carrying the result row for *request_id*."""
    return {"id": request_id, "ok": True, "row": row}


def error_response(
    request_id: object,
    error: Union[BaseException, Tuple[str, str]],
    traceback: str = "",
) -> dict:
    """A failure response: ``(type, message)`` from the taxonomy.

    Accepts either an exception instance (its class name becomes the type;
    :class:`ReproError` subclasses pass through unchanged, anything else is
    reported as-is so internal bugs stay diagnosable) or an explicit
    ``(type, message)`` pair from a worker's structured failure record.
    """
    if isinstance(error, BaseException):
        error_type = type(error).__name__
        message = str(error)
        if not isinstance(error, ReproError) and not traceback:
            message = f"{error_type}: {message}" if message else error_type
    else:
        error_type, message = error
    payload = {"type": error_type, "message": message}
    if traceback:
        payload["traceback"] = traceback
    return {"id": request_id, "ok": False, "error": payload}
