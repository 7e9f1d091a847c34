"""Scheduling service: protocol taxonomy, routing, dispatch, fault tolerance.

The service's contract has three legs, each tested here:

* **bit-identity** — responses must equal direct
  :func:`~repro.experiments.sweep.run_scenario` rows field for field,
  including placement fingerprints, for lone jobs and bursts alike;
* **structured errors** — malformed JSON, unknown registry names,
  oversized payloads and exhausted retries come back as taxonomy-typed
  error responses (:mod:`repro.exceptions`) without killing the server or
  disturbing other clients;
* **self-accounting** — the ``stats`` op's dispatch, affinity and
  compile-cache counters must reflect what actually happened, because the
  benchmark gate reads them as evidence.
"""

from __future__ import annotations

import gc
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

import repro
from repro.exceptions import ConfigurationError, ProtocolError
from repro.experiments import sweep
from repro.machine import io as machine_io
from repro.service import (
    ServiceClient,
    ServiceConfig,
    affinity_key,
    job_to_spec,
    serve_in_thread,
)
from repro.service.client import ServiceJobError
from repro.service.protocol import RequestLimits, decode_line
from repro.taskgraph import io as taskgraph_io
from repro.utils.chaos import ChaosConfig

SCIENCE = (
    "policy", "machine", "family", "graph_seed", "policy_seed",
    "with_comm", "fidelity", "makespan", "speedup", "n_tasks", "n_packets",
)


def _job(**overrides) -> dict:
    job = {
        "policy": "HLF",
        "machine": "hypercube8",
        "family": "grid",
        "graph_seed": 0,
        "policy_seed": 0,
        "with_comm": True,
        "fidelity": "latency",
    }
    job.update(overrides)
    return job


def _direct(job: dict) -> dict:
    spec = dict(job, fast=job.get("fast"), replicas=job.get("replicas"))
    if spec.pop("fingerprint", False):
        spec["_fingerprint"] = True
    return sweep.run_scenario(spec)


# --------------------------------------------------------------------------- #
# Protocol layer (no server needed)
# --------------------------------------------------------------------------- #

class TestProtocol:
    def test_rejects_invalid_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_line(b"{nope\n")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1, 2]\n")

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            decode_line(b'{"op": "frobnicate"}\n')

    def test_rejects_invalid_utf8(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_line(b'\xff\xfe{"op": "ping"}\n')

    def test_unknown_policy_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            job_to_spec(_job(policy="SSA"), known_policies=("HLF", "SA"))

    def test_unknown_machine_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown machine"):
            job_to_spec(_job(machine="torus99"), known_machines=("hypercube8",))

    def test_unknown_family_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown graph family"):
            job_to_spec(_job(family="nonesuch"), known_families=("grid",))

    def test_oversized_graph_payload_rejected(self):
        graph = sweep.GRAPH_FAMILIES["grid"](0)
        payload = taskgraph_io.to_dict(graph)
        job = _job(graph_payload=payload)
        del job["family"]
        limits = RequestLimits(max_tasks=graph.n_tasks - 1)
        with pytest.raises(ProtocolError, match="exceeding the server's limit"):
            job_to_spec(job, limits)

    def test_oversized_replicas_rejected(self):
        with pytest.raises(ProtocolError, match="replicas"):
            job_to_spec(_job(replicas=10_000), RequestLimits(max_replicas=64))

    def test_unknown_job_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job field"):
            job_to_spec(_job(colour="red"))

    def test_family_and_payload_are_exclusive(self):
        graph = sweep.GRAPH_FAMILIES["grid"](0)
        job = _job(graph_payload=taskgraph_io.to_dict(graph))
        with pytest.raises(ProtocolError, match="not both"):
            job_to_spec(job)

    def test_payload_jobs_are_content_addressed(self):
        graph = sweep.GRAPH_FAMILIES["grid"](0)
        payload = taskgraph_io.to_dict(graph)
        job = _job(graph_payload=payload)
        del job["family"]
        spec_a = job_to_spec(dict(job))
        spec_b = job_to_spec(dict(job))
        assert spec_a["family"] == spec_b["family"]
        assert spec_a["family"].startswith("payload:graph:")

    def test_fingerprint_flag_becomes_volatile_key(self):
        spec = job_to_spec(_job(fingerprint=True))
        assert spec["_fingerprint"] is True
        from repro.experiments.supervisor import spec_key

        assert spec_key(spec) == spec_key(job_to_spec(_job()))

    def test_portfolio_field_accepted(self):
        spec = job_to_spec(_job(policy="SA", portfolio=8))
        assert spec["portfolio"] == 8

    @pytest.mark.parametrize("bad", [True, 1, 0, -2, "8", 2.0])
    def test_invalid_portfolio_rejected(self, bad):
        with pytest.raises(ProtocolError, match="portfolio"):
            job_to_spec(_job(policy="SA", portfolio=bad))

    def test_portfolio_and_replicas_are_exclusive(self):
        with pytest.raises(ProtocolError, match="mutually exclusive"):
            job_to_spec(_job(policy="SA", portfolio=4, replicas=4))

    def test_oversized_portfolio_rejected(self):
        with pytest.raises(ProtocolError, match="limit"):
            job_to_spec(
                _job(policy="SA", portfolio=10_000),
                RequestLimits(max_replicas=64),
            )


class TestRouting:
    def test_affinity_ignores_policy_and_seed(self):
        a = affinity_key({"family": "grid", "graph_seed": 1, "machine": "ring9",
                          "policy": "SA", "policy_seed": 3})
        b = affinity_key({"family": "grid", "graph_seed": 1, "machine": "ring9",
                          "policy": "HLF", "policy_seed": 9})
        assert a == b

    def test_affinity_separates_graphs_and_machines(self):
        base = {"family": "grid", "graph_seed": 1, "machine": "ring9"}
        assert affinity_key(base) != affinity_key(dict(base, graph_seed=2))
        assert affinity_key(base) != affinity_key(dict(base, machine="bus8"))


# --------------------------------------------------------------------------- #
# Live server
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def service():
    config = ServiceConfig(
        workers=2,
        limits=RequestLimits(max_tasks=500, max_line_bytes=256 * 1024),
    )
    with serve_in_thread(config) as (host, port):
        yield host, port


class TestService:
    def test_ping_and_stats(self, service):
        with ServiceClient(*service) as client:
            assert client.ping()
            stats = client.stats()
            assert stats["workers"]["n"] == 2
            assert stats["protocol_version"] == 1

    def test_single_job_bit_identical(self, service):
        job = _job(fingerprint=True)
        with ServiceClient(*service) as client:
            row = client.simulate(job)
        direct = _direct(job)
        for key in SCIENCE:
            assert row[key] == direct[key], key
        assert row["fingerprint"] == direct["fingerprint"]

    def test_lone_job_is_dispatched_at_once(self):
        # Nothing reads window_ms: a job that reaches an idle worker goes
        # out at once instead of waiting for company.
        config = ServiceConfig(workers=1, window_ms=60_000.0)
        with serve_in_thread(config) as (host, port):
            with ServiceClient(host, port, timeout=10.0) as client:
                row = client.simulate(_job())
        assert row["makespan"] == _direct(_job())["makespan"]

    def test_burst_dispatches_one_job_at_a_time(self, service):
        jobs = [
            _job(policy=policy, policy_seed=seed, graph_seed=seed % 2,
                 fingerprint=True)
            for policy in ("HLF", "ETF", "SA")
            for seed in range(4)
        ]
        with ServiceClient(*service) as client:
            before = client.stats()
            rows = client.simulate_many(jobs)
            after = client.stats()
        for job, row in zip(jobs, rows):
            direct = _direct(job)
            for key in SCIENCE:
                assert row[key] == direct[key], (job, key)
            assert row["fingerprint"] == direct["fingerprint"]
            assert row["engine_used"] == direct["engine_used"], job
        dispatched = {
            key: after["coalescing"][key] - before["coalescing"][key]
            for key in ("batches", "coalesced_jobs", "solo_jobs")
        }
        assert dispatched == {
            "batches": len(jobs), "coalesced_jobs": 0, "solo_jobs": len(jobs)
        }
        assert after["coalescing"]["max_batch"] == 1
        assert after["coalescing"]["mean_batch"] == 1.0
        assert after["compile_cache"]["hits"] > before["compile_cache"]["hits"]

    def test_affinity_hit_rate_climbs_when_cache_warm(self, service):
        jobs = [_job(policy_seed=seed) for seed in range(10)]
        with ServiceClient(*service) as client:
            client.simulate_many(jobs)  # warm the shard
            before = client.stats()
            client.simulate_many(jobs)
            after = client.stats()
        new_hits = after["affinity"]["hits"] - before["affinity"]["hits"]
        new_misses = after["affinity"]["misses"] - before["affinity"]["misses"]
        assert new_hits == len(jobs) and new_misses == 0

    def test_replica_jobs_run_solo(self, service):
        job = _job(policy="SA", replicas=3)
        with ServiceClient(*service) as client:
            row = client.simulate(job)
        direct = _direct(job)
        assert row["makespan"] == direct["makespan"]
        assert row["engine_used"] == direct["engine_used"]

    def test_payload_job_matches_registry_job(self, service):
        graph = sweep.GRAPH_FAMILIES["grid"](0)
        machine = sweep.MACHINE_BUILDERS["hypercube8"]()
        payload_job = _job(
            graph_payload=taskgraph_io.to_dict(graph),
            machine_payload=machine_io.to_dict(machine),
        )
        del payload_job["family"]
        del payload_job["machine"]
        with ServiceClient(*service) as client:
            by_payload = client.simulate(payload_job)
            by_name = client.simulate(_job())
        assert by_payload["makespan"] == by_name["makespan"]
        assert by_payload["n_packets"] == by_name["n_packets"]

    def test_paper_registry_keys(self, service):
        jobs = [_job(family=key, fingerprint=True) for key in ("NE", "GJ", "FFT", "MM")]
        jobs += [
            _job(policy=key, family="NE", policy_seed=1, fingerprint=True)
            for key in ("SA/wc=0.3", "SA/wc=0.7")
        ]
        with ServiceClient(*service) as client:
            rows = client.simulate_many(jobs)
        for job, row in zip(jobs, rows):
            direct = _direct(job)
            for key in SCIENCE:
                assert row[key] == direct[key], (job, key)
            assert row["fingerprint"] == direct["fingerprint"]

    def test_contention_fidelity_jobs(self, service):
        job = _job(fidelity="contention")
        with ServiceClient(*service) as client:
            row = client.simulate(job)
        assert row["makespan"] == _direct(job)["makespan"]

    def test_portfolio_jobs_run_solo(self, service):
        job = _job(policy="SA", portfolio=2)
        with ServiceClient(*service) as client:
            row = client.simulate(job)
        direct = _direct(job)
        assert row["makespan"] == direct["makespan"]
        assert row["portfolio"] == 2
        assert row["engine_used"] == direct["engine_used"]


class TestAsyncJobs:
    def test_submit_poll_roundtrip_is_bit_identical(self, service):
        job = _job(policy="SA", portfolio=2, graph_seed=1)
        with ServiceClient(*service) as client:
            before = client.stats()
            job_id = client.submit(job)
            row = client.wait(job_id, timeout=120.0)
            record = client.poll(job_id)
            after = client.stats()
        assert record["state"] == "done"
        assert record["job_id"] == job_id
        assert record["error"] is None
        assert record["row"]["makespan"] == row["makespan"]
        direct = _direct(job)
        for key in SCIENCE:
            assert row[key] == direct[key], key
        assert row["portfolio"] == 2
        assert after["async"]["submitted"] == before["async"]["submitted"] + 1
        assert after["async"]["polls"] > before["async"]["polls"]

    def test_portfolio_job_streams_anytime_progress(self, service):
        job = _job(policy="SA", portfolio=2)
        with ServiceClient(*service) as client:
            before = client.stats()
            job_id = client.submit(job)
            client.wait(job_id, timeout=120.0)
            record = client.poll(job_id)
            after = client.stats()
        # Worker progress messages arrive on the reply pipe before the final
        # row, so a finished job's record holds the last anytime snapshot.
        snapshot = record["best_so_far"]
        assert snapshot is not None
        assert snapshot["n_packets"] == record["row"]["n_packets"]
        assert snapshot["last_packet"]["n_lanes"] == 2
        assert (
            after["async"]["progress_updates"]
            >= before["async"]["progress_updates"] + snapshot["n_packets"]
        )

    def test_poll_unknown_job_id(self, service):
        with ServiceClient(*service) as client:
            with pytest.raises(ServiceJobError) as info:
                client.poll("job-999999")
        assert info.value.error_type == "ProtocolError"


class TestServiceErrors:
    def test_malformed_json_line_gets_protocol_error(self, service):
        host, port = service
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"{this is not json\n")
            response = json.loads(sock.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"

    def test_server_survives_malformed_line(self, service):
        host, port = service
        with socket.create_connection((host, port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b'[1, 2, 3]\n')
            assert json.loads(reader.readline())["ok"] is False
            # Same connection keeps working afterwards.
            sock.sendall(
                json.dumps({"id": 7, "op": "ping"}).encode() + b"\n"
            )
            response = json.loads(reader.readline())
        assert response == {"id": 7, "ok": True, "pong": True}

    def test_unknown_policy_response(self, service):
        with ServiceClient(*service) as client:
            with pytest.raises(ServiceJobError) as info:
                client.simulate(_job(policy="SSA"))
        assert info.value.error_type == "ConfigurationError"

    def test_unknown_family_response(self, service):
        with ServiceClient(*service) as client:
            with pytest.raises(ServiceJobError) as info:
                client.simulate(_job(family="nonesuch"))
        assert info.value.error_type == "ConfigurationError"

    def test_oversized_graph_response(self, service):
        graph = sweep.GRAPH_FAMILIES["dag200"](0)  # 200 > the test limit? no:
        # the module fixture caps payloads at 500 tasks; build one above it.
        big = sweep.GRAPH_FAMILIES["dag200"](0)
        payload = taskgraph_io.to_dict(big)
        payload["tasks"] = payload["tasks"] * 4  # 800 > 500, shape-only check
        job = _job(graph_payload=payload)
        del job["family"]
        with ServiceClient(*service) as client:
            with pytest.raises(ServiceJobError) as info:
                client.simulate(job)
        assert info.value.error_type == "ProtocolError"
        assert "limit" in str(info.value)

    def test_invalid_machine_payload_keeps_taxonomy(self, service):
        job = _job(machine_payload={"n_processors": 4, "links": [[0, 99]]})
        del job["machine"]
        with ServiceClient(*service) as client:
            with pytest.raises(ServiceJobError) as info:
                client.simulate(job)
        assert info.value.error_type == "MachineError"

    @pytest.mark.parametrize("pad", [300_000, 4_000_000])
    def test_oversized_line_closes_connection_with_error(self, service, pad):
        host, port = service
        with socket.create_connection((host, port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b'{"op": "ping", "pad": "' + b"x" * pad + b'"}\n')
            response = json.loads(reader.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert reader.readline() == b""  # server hung up

    def test_errors_do_not_break_subsequent_jobs(self, service):
        with ServiceClient(*service) as client:
            responses = client.simulate_many(
                [_job(), _job(policy="SSA"), _job(policy="ETF")],
                raise_on_error=False,
            )
        assert responses[0]["ok"] and responses[2]["ok"]
        assert not responses[1]["ok"]
        assert responses[1]["error"]["type"] == "ConfigurationError"


class TestFaultTolerance:
    def test_worker_death_is_retried_transparently(self):
        # Dispatch keys are the (deterministic) spec hashes, so the seeded
        # chaos plan is reproducible: pick jobs whose worker dies on
        # attempt 1 and survives attempt 2, plus healthy ones.
        chaos = ChaosConfig(rate=0.5, kinds=("die",), seed=11)
        from repro.experiments.supervisor import spec_key

        dying, healthy = [], []
        for seed in range(60):
            job = _job(policy_seed=seed)
            key = spec_key(job_to_spec(job))
            first, second = chaos.decide(key, 1), chaos.decide(key, 2)
            if first == "die" and second is None and len(dying) < 3:
                dying.append(job)
            elif first is None and len(healthy) < 3:
                healthy.append(job)
        assert len(dying) == 3 and len(healthy) == 3

        config = ServiceConfig(workers=2, retries=3, chaos=chaos)
        jobs = healthy + dying
        with serve_in_thread(config) as (host, port):
            with ServiceClient(host, port, timeout=120.0) as client:
                rows = [client.simulate(job) for job in jobs]
                stats = client.stats()
        directs = [_direct(job) for job in jobs]
        for row, direct in zip(rows, directs):
            assert row["makespan"] == direct["makespan"]
        assert stats["workers"]["deaths"] == len(dying)
        assert stats["workers"]["respawns"] == len(dying)
        assert stats["jobs"]["retried"] == len(dying)
        assert stats["jobs"]["errors"] == 0

    def test_raised_and_malformed_replies_are_retried_like_deaths(self):
        """All three fault kinds take one retry path, with workers also
        recycling: each fault the chaos plan holds for a job's attempts
        costs exactly one retry, and every row still equals direct
        simulation (the 48-job mix of the CI service job)."""
        from repro.experiments.supervisor import spec_key

        chaos = ChaosConfig(rate=0.2, kinds=("raise", "die", "malform"), seed=3)
        jobs = [
            _job(policy=("HLF", "ETF", "SA")[i % 3],
                 machine=("hypercube8", "ring9")[(i // 3) % 2],
                 family=("grid", "layered")[(i // 6) % 2],
                 graph_seed=i % 3, policy_seed=i % 5, fingerprint=True)
            for i in range(48)
        ]
        planned = []
        for job in jobs:
            key, attempt = spec_key(job_to_spec(job)), 1
            while chaos.decide(key, attempt) is not None:
                planned.append(chaos.decide(key, attempt))
                attempt += 1
        assert (len(planned), planned.count("die")) == (10, 4)

        config = ServiceConfig(workers=2, retries=10, maxtasksperchild=3, chaos=chaos)
        with serve_in_thread(config) as (host, port):
            with ServiceClient(host, port, timeout=300.0) as client:
                rows = client.simulate_many(jobs)
                stats = client.stats()
        for job, row in zip(jobs, rows):
            direct = _direct(job)
            assert [row.get(k) for k in sweep.SCIENCE_FIELDS] == [
                direct.get(k) for k in sweep.SCIENCE_FIELDS
            ], job
            assert row["fingerprint"] == direct["fingerprint"]
        assert stats["jobs"]["errors"] == 0
        assert stats["jobs"]["retried"] == len(planned)
        assert stats["workers"]["deaths"] == planned.count("die")

    def test_exhausted_retries_fail_with_worker_death(self):
        config = ServiceConfig(
            workers=1,
            retries=1,
            chaos=ChaosConfig(rate=1.0, kinds=("die",), seed=3),
        )
        with serve_in_thread(config) as (host, port):
            with ServiceClient(host, port, timeout=120.0) as client:
                responses = client.simulate_many(
                    [_job()], raise_on_error=False
                )
                # The server survives total chaos and still answers pings.
                assert client.ping()
        assert not responses[0]["ok"]
        assert responses[0]["error"]["type"] == "WorkerDeath"
        assert "gave up" in responses[0]["error"]["message"]

    def test_recycled_workers_lose_no_jobs(self):
        # maxtasksperchild=1 retires each worker after one reply.  With no
        # retries to spare, no job may be sent to a worker on its way out.
        config = ServiceConfig(workers=1, maxtasksperchild=1, retries=0)
        jobs = [_job(policy_seed=seed) for seed in range(12)]
        with serve_in_thread(config) as (host, port):
            with ServiceClient(host, port, timeout=120.0) as client:
                rows = [client.simulate(job) for job in jobs[:4]]
                rows += client.simulate_many(jobs[4:])
                stats = client.stats()
        for job, row in zip(jobs, rows):
            assert row["makespan"] == _direct(job)["makespan"]
        assert stats["workers"]["deaths"] == 0
        assert stats["workers"]["respawns"] == len(jobs)
        assert stats["jobs"]["errors"] == 0

    def test_inline_mode_serves_without_workers(self):
        config = ServiceConfig(workers=0)
        job = _job(fingerprint=True)
        with serve_in_thread(config) as (host, port):
            with ServiceClient(host, port) as client:
                row = client.simulate(job)
                stats = client.stats()
        direct = _direct(job)
        assert row["makespan"] == direct["makespan"]
        assert row["fingerprint"] == direct["fingerprint"]
        assert stats["workers"]["n"] == 0


class TestShutdown:
    def test_close_ends_live_client_handlers(self, caplog):
        """A client holding a half-sent request open while the service shuts
        down: its handler is cancelled and awaited, not destroyed with the
        event loop."""
        # Routine loop events (the selector, "is serving") log below WARNING.
        caplog.set_level(logging.WARNING, logger="asyncio")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with serve_in_thread(ServiceConfig(workers=0)) as (host, port):
                stalled = socket.create_connection((host, port))
                stalled.sendall(b'{"id": 1, "op": "ping"')
                # Connections are accepted in order, so once a later client
                # is answered the stalled one's handler is live.
                with ServiceClient(host, port) as client:
                    assert client.ping()
            gc.collect()
        stalled.close()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_close_ends_pending_inline_jobs(self, caplog):
        """An inline (``workers=0``) job still running when the service shuts
        down is cancelled and awaited, not destroyed with the event loop."""
        caplog.set_level(logging.WARNING, logger="asyncio")
        with serve_in_thread(ServiceConfig(workers=0)) as (host, port):
            with ServiceClient(host, port) as client:
                client.submit(_job(policy="SA", family="dag200", replicas=8))
        # The cell keeps running on the loop's executor thread; the task
        # awaiting it is only collected once that thread lets go of it.
        for thread in threading.enumerate():
            if thread.name.startswith("asyncio_"):
                thread.join(timeout=120.0)
                assert not thread.is_alive(), thread.name
        gc.collect()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []

    def test_sigterm_retires_the_cli_workers(self):
        """SIGTERM ends ``python -m repro.service`` through close(): every
        pool worker that ran a job is gone within 10 s."""

        def alive(pid: int) -> bool:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            return True

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--workers", "2"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        pids = set()
        try:
            host, port = server.stdout.readline().split()[-1].rsplit(":", 1)
            jobs = [
                _job(graph_seed=seed, machine=machine)
                for seed in range(4)
                for machine in ("hypercube8", "ring9")
            ]
            with ServiceClient(host, int(port), timeout=120.0) as client:
                rows = client.simulate_many(jobs)
            pids = {row["worker_pid"] for row in rows}
            assert len(pids) == 2, pids
            server.terminate()
            assert server.wait(timeout=10) == 0
            deadline = time.monotonic() + 10.0
            while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if alive(pid)]
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()
            for pid in pids:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)
