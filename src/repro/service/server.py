"""The persistent asyncio scheduling server.

One process runs the event loop; simulation happens in the supervised pool
workers of :mod:`repro.experiments.supervisor`, kept **persistent** across
requests (unlike :func:`supervised_map`, which tears its pool down after
each grid).  Each worker's pipe is registered with the loop
(``add_reader``), and :meth:`PoolWorker.receive` turns each readiness event
into a progress snapshot, a result, a failure or an exit — no polling
thread, and no second reading of the pipe.

Request flow for a ``simulate`` job:

1. the job is validated and lowered to a sweep scenario spec
   (:func:`repro.service.protocol.job_to_spec`);
2. it is routed to the worker its :func:`~repro.service.jobs.affinity_key`
   hashes to, so repeats of a (graph, machine) pair reuse that worker's
   compiled-scenario memo;
3. it joins that worker's FIFO queue and goes to the worker the moment the
   worker is idle, one job per round trip, as one
   :func:`~repro.experiments.sweep.run_scenario` item; each reply
   dispatches the next queued job;
4. the reply row is written to the client, bit-identical to a direct
   :func:`~repro.experiments.sweep.run_scenario` call.

A ``submit`` job takes the same path but detached from its client: the
server answers immediately with a ``job_id`` and parks the outcome in a
bounded in-memory registry that ``poll`` reads — including the per-packet
``best_so_far`` snapshots an SA portfolio run streams up the worker pipe
while it anneals (a worker runs one job at a time, so every snapshot
belongs to the job in flight).

Failures follow the sweep's worker lifecycle.  A death mid-job, a raised
exception and a malformed reply each charge the job an attempt and requeue
it at the head of its queue (a dead worker is respawned first); a job out
of attempts (``retries``) gets a structured error of that failure's type,
e.g. ``WorkerDeath``.  A worker that reaches ``maxtasksperchild`` is
replaced at its last reply, with no job charged.  The ``stats`` op exposes
the counters that prove the design: dispatches, affinity hit rates,
aggregated compile-cache traffic across workers, and worker lifecycle
events.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing as mp
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Set, Tuple

from repro.exceptions import ConfigurationError, ProtocolError
from repro.experiments import sweep as sweep_module
from repro.experiments.supervisor import PoolTask, PoolWorker, SupervisorConfig
from repro.service import jobs as jobs_module
from repro.service import protocol
from repro.utils.chaos import ChaosConfig

__all__ = ["ServiceConfig", "SchedulerService", "serve_in_thread"]

#: How long the server keeps reading (and discarding) a client's bytes after
#: rejecting an oversized request line, before closing the connection anyway.
_HANG_UP_DRAIN_S = 2.0


@dataclass
class ServiceConfig:
    """How the scheduling server listens, shards and retries."""

    host: str = "127.0.0.1"
    #: TCP port; 0 asks the OS for a free port (read it back from
    #: :attr:`SchedulerService.address` after :meth:`~SchedulerService.start`).
    port: int = 0
    #: Persistent pool workers.  0 = inline debug mode: jobs run in the
    #: server process (through a thread executor) with no sharding —
    #: protocol-identical, perf-irrelevant.
    workers: int = 2
    #: Read by nothing: each job goes to its worker alone.  Kept, with
    #: ``window_ms``, because ``perfbench/workloads.py`` still passes both.
    batch: int = 8
    #: Read by nothing (see ``batch``).
    window_ms: float = 2.0
    #: Re-dispatches after a failed attempt: a death, a raised exception or
    #: a malformed reply (0 = fail a job on its first failure).
    retries: int = 2
    #: Request guards (line length, payload graph size, replica fan-out).
    limits: protocol.RequestLimits = field(default_factory=protocol.RequestLimits)
    #: Retire a worker after this many dispatches (``None`` = never).
    maxtasksperchild: Optional[int] = None
    #: Fault-injection plan threaded into the pool workers (tests/CI chaos).
    chaos: Optional[ChaosConfig] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")


class _Job:
    """One in-flight ``simulate``/``submit`` request and its retry state.

    A ``submit`` job carries its registry ``job_id`` instead of answering a
    waiting client.
    """

    __slots__ = ("request_id", "spec", "writer", "attempt", "affinity", "job_id")

    def __init__(
        self,
        request_id,
        spec: dict,
        writer: asyncio.StreamWriter,
        job_id: Optional[str] = None,
    ):
        self.request_id = request_id
        self.spec = spec
        self.writer = writer
        self.attempt = 1
        self.affinity = jobs_module.affinity_key(spec)
        self.job_id = job_id


class _WorkerSlot:
    """A persistent pool worker plus its FIFO job queue and cache ledger."""

    __slots__ = ("worker", "queue", "inflight", "seen", "dispatches")

    def __init__(self, worker: PoolWorker):
        self.worker = worker
        self.queue: Deque[_Job] = deque()
        #: The dispatched job (None = worker idle).
        self.inflight: Optional[_Job] = None
        #: Affinity keys this worker has already compiled (hit-rate ledger,
        #: mirroring the worker-side scenario memo without a round trip).
        self.seen: Set[str] = set()
        self.dispatches = 0


def _new_stats() -> dict:
    return {
        "received": 0,
        "completed": 0,
        "errors": 0,
        "protocol_errors": 0,
        "retried": 0,
        "dispatched": 0,
        "affinity_hits": 0,
        "affinity_misses": 0,
        "worker_deaths": 0,
        "respawns": 0,
        "submitted": 0,
        "polls": 0,
        "progress_updates": 0,
        "compile_cache_hits": 0,
        "compile_cache_misses": 0,
        "compile_cache_evictions": 0,
    }


class SchedulerService:
    """The asyncio front-end over a persistent supervised worker pool."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._slots: List[_WorkerSlot] = []
        self._stats = _new_stats()
        self._started_at: Optional[float] = None
        self._next_task_index = 0
        #: Async job registry for submit/poll, insertion-ordered so pruning
        #: drops the oldest *finished* jobs first (bounded memory).
        self._jobs: "OrderedDict[str, dict]" = OrderedDict()
        self._next_job_id = 0
        self._max_finished_jobs = 1024
        self._closing = False
        #: Live client-handler and inline-job (``workers=0``) tasks,
        #: cancelled and awaited by :meth:`close`.
        self._handlers: Set[asyncio.Task] = set()
        self._inline: Set[asyncio.Task] = set()
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._pool_config = SupervisorConfig(
            jobs=max(1, self.config.workers),
            maxtasksperchild=self.config.maxtasksperchild,
            chaos=self.config.chaos,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise ConfigurationError("service is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Spawn the persistent workers and start listening."""
        self._loop = asyncio.get_running_loop()
        self._started_at = time.monotonic()
        for _ in range(self.config.workers):
            self._slots.append(self._spawn_slot())
        self._server = await asyncio.start_server(
            self._handle_client,
            self.config.host,
            self.config.port,
            limit=self.config.limits.max_line_bytes,
        )
        return self.address

    async def close(self) -> None:
        """Stop accepting, end live handlers and inline jobs, drop queued
        work, retire workers.

        The handlers are cancelled and awaited before ``wait_closed()``: on
        Python 3.11 that call does not wait for them (a pending handler
        would be destroyed with the loop), and from 3.12 on it waits for
        their connections, which a client that never hangs up keeps open.
        An inline job is cancelled the same way; its executor thread runs
        the cell to the end, and the result is dropped.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            tasks = list(self._handlers) + list(self._inline)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await self._server.wait_closed()
        for slot in self._slots:
            self._remove_reader(slot)
            slot.worker.shutdown()
        self._slots = []

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def _spawn_slot(self) -> _WorkerSlot:
        slot = _WorkerSlot(
            PoolWorker(self._ctx, sweep_module._run_sweep_item, self._pool_config)
        )
        self._add_reader(slot)
        return slot

    def _add_reader(self, slot: _WorkerSlot) -> None:
        assert self._loop is not None
        self._loop.add_reader(
            slot.worker.conn.fileno(), self._on_worker_readable, slot
        )

    def _remove_reader(self, slot: _WorkerSlot) -> None:
        if self._loop is None:
            return
        with contextlib.suppress(OSError, ValueError):
            self._loop.remove_reader(slot.worker.conn.fileno())

    # ------------------------------------------------------------------ #
    # Client protocol
    # ------------------------------------------------------------------ #

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line blew the reader's limit; the stream position
                    # is unrecoverable, so answer and hang up.
                    self._stats["protocol_errors"] += 1
                    self._write(
                        writer,
                        protocol.error_response(
                            None,
                            ProtocolError(
                                "request line exceeds "
                                f"{self.config.limits.max_line_bytes} bytes"
                            ),
                        ),
                    )
                    await self._hang_up(reader, writer)
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self._handle_line(line, writer)
                await self._drain(writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # close() cancels live handlers and awaits them; end those as a
            # normal return, because on 3.11 the stream protocol's
            # done-callback logs a cancelled handler as an error.
            if not self._closing:
                raise
        finally:
            self._handlers.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    async def _hang_up(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Half-close after the last response, then discard the client's input.

        Closing a socket whose request bytes are still unread makes the
        kernel answer with a reset, which can destroy the response before
        the client reads it.  Reading to EOF (for at most
        ``_HANG_UP_DRAIN_S``) lets the client take the answer first.
        """
        await self._drain(writer)
        with contextlib.suppress(OSError, RuntimeError):
            writer.write_eof()
        deadline = time.monotonic() + _HANG_UP_DRAIN_S
        with contextlib.suppress(asyncio.TimeoutError, OSError):
            while await asyncio.wait_for(
                reader.read(1 << 16), max(0.0, deadline - time.monotonic())
            ):
                pass

    def _handle_line(self, line: bytes, writer: asyncio.StreamWriter) -> None:
        request_id = None
        try:
            message = protocol.decode_line(line)
            request_id = message.get("id")
            op = message["op"]
            if op == "ping":
                self._write(writer, {"id": request_id, "ok": True, "pong": True})
                return
            if op == "stats":
                self._write(
                    writer, {"id": request_id, "ok": True, "stats": self.stats()}
                )
                return
            if op == "poll":
                self._stats["polls"] += 1
                job_id = message.get("job_id")
                record = self._jobs.get(job_id)
                if record is None:
                    raise ProtocolError(f"unknown job_id {job_id!r}")
                self._write(
                    writer, {"id": request_id, "ok": True, "job": dict(record)}
                )
                return
            spec = protocol.job_to_spec(
                message.get("job"),
                self.config.limits,
                known_policies=tuple(sweep_module.POLICY_BUILDERS),
                known_machines=tuple(sweep_module.MACHINE_BUILDERS),
                known_families=tuple(sweep_module.GRAPH_FAMILIES),
            )
        except Exception as exc:
            self._stats["protocol_errors"] += 1
            self._write(writer, protocol.error_response(request_id, exc))
            return
        self._stats["received"] += 1
        job_id = None
        if op == "submit":
            self._stats["submitted"] += 1
            job_id = self._register_job(spec)
            # Answer now; the job continues detached and poll reads it back.
            self._write(writer, {"id": request_id, "ok": True, "job_id": job_id})
        job = _Job(request_id, spec, writer, job_id=job_id)
        if not self._slots:
            assert self._loop is not None
            task = self._loop.create_task(self._run_inline(job))
            self._inline.add(task)
            task.add_done_callback(self._inline.discard)
            return
        self._enqueue(job, front=False)

    def _register_job(self, spec: dict) -> str:
        self._next_job_id += 1
        job_id = f"job-{self._next_job_id}"
        self._jobs[job_id] = {
            "job_id": job_id,
            "state": "queued",
            "spec_key": sweep_module._item_key(spec),
            "best_so_far": None,
            "row": None,
            "error": None,
        }
        # Bound the registry: evict the oldest finished jobs beyond the cap
        # (in-flight jobs are never evicted).
        finished = [
            key
            for key, record in self._jobs.items()
            if record["state"] in ("done", "error")
        ]
        excess = len(self._jobs) - self._max_finished_jobs
        for key in finished[:max(0, excess)]:
            del self._jobs[key]
        return job_id

    async def _run_inline(self, job: _Job) -> None:
        """Debug path (``workers=0``): run in the server process."""
        assert self._loop is not None
        rows = await self._loop.run_in_executor(
            None, sweep_module._run_sweep_item, job.spec
        )
        self._stats["dispatched"] += 1
        self._finish_job(job, rows[0])

    # ------------------------------------------------------------------ #
    # Sharding and dispatch
    # ------------------------------------------------------------------ #

    def _enqueue(self, job: _Job, front: bool) -> None:
        """Queue *job* on its affinity worker (a retry goes first) and send
        it at once if that worker is idle."""
        slot = self._slots[jobs_module.shard(job.spec, len(self._slots))]
        if front:
            slot.queue.appendleft(job)
        else:
            slot.queue.append(job)
        self._dispatch(slot)

    def _dispatch(self, slot: _WorkerSlot) -> None:
        """Send the queue head to the worker, if the worker is idle."""
        if slot.inflight is not None or not slot.queue or self._closing:
            return
        job = slot.queue[0]
        self._next_task_index += 1
        task = PoolTask(
            index=self._next_task_index,
            key=sweep_module._item_key(job.spec),
            item=job.spec,
            attempt=job.attempt,
        )
        if not slot.worker.dispatch(task, timeout=None):
            # The worker exited while idle and nothing was delivered:
            # replace it and send the job to the new one, uncharged.
            self._replace_worker(slot)
            self._dispatch(slot)
            return
        slot.queue.popleft()
        slot.inflight = job
        slot.dispatches += 1
        self._stats["dispatched"] += 1
        if job.affinity in slot.seen:
            self._stats["affinity_hits"] += 1
        else:
            self._stats["affinity_misses"] += 1
            if len(slot.seen) >= 4096:
                slot.seen.clear()  # ledger bound; worker memo is bounded too
            slot.seen.add(job.affinity)
        record = self._jobs.get(job.job_id)
        if record is not None:
            record["state"] = "running"

    # ------------------------------------------------------------------ #
    # Worker replies and deaths
    # ------------------------------------------------------------------ #

    def _on_worker_readable(self, slot: _WorkerSlot) -> None:
        kind, _task, value = slot.worker.receive()
        job = slot.inflight
        if kind == "progress":
            # An anytime snapshot from the running job: the worker stays busy.
            record = self._jobs.get(job.job_id)
            if record is not None and record["state"] == "running":
                record["best_so_far"] = value
                self._stats["progress_updates"] += 1
            return
        if kind == "stale":  # pragma: no cover - one job in flight per worker
            return
        slot.inflight = None
        if kind == "exit" or slot.worker.retiring:
            # The worker died, or has sent its maxtasksperchild-th reply:
            # replace it before the next job goes out.
            self._replace_worker(slot)
        if kind == "result":
            self._account_row(value[0])
            self._finish_job(job, value[0])
        elif value is not None:
            # A raised exception, a malformed reply, or a death mid-job:
            # charge an attempt and requeue the job.
            if kind == "exit":
                self._stats["worker_deaths"] += 1
            self._retry(job, value)
        self._dispatch(slot)

    def _replace_worker(self, slot: _WorkerSlot) -> None:
        self._remove_reader(slot)
        slot.worker.shutdown()
        if self._closing:
            return
        self._stats["respawns"] += 1
        slot.worker = PoolWorker(
            self._ctx, sweep_module._run_sweep_item, self._pool_config
        )
        self._add_reader(slot)
        # A fresh process has a cold scenario memo: reset the ledger so the
        # hit-rate counters keep telling the truth.
        slot.seen.clear()

    def _retry(self, job: _Job, failure: dict) -> None:
        """Requeue *job* at its queue head, or fail it once out of attempts."""
        record = self._jobs.get(job.job_id)
        if job.attempt > self.config.retries:
            self._stats["errors"] += 1
            error_type = failure["error_type"]
            message = f"{failure['error']} (gave up after {job.attempt} attempt(s))"
            if job.job_id is None:
                self._write(
                    job.writer,
                    protocol.error_response(job.request_id, (error_type, message)),
                )
            elif record is not None:
                record["state"] = "error"
                record["error"] = {"type": error_type, "message": message}
            return
        job.attempt += 1
        self._stats["retried"] += 1
        if record is not None:
            record["state"] = "queued"
        self._enqueue(job, front=True)

    # ------------------------------------------------------------------ #
    # Responses and stats
    # ------------------------------------------------------------------ #

    def _account_row(self, row: dict) -> None:
        self._stats["compile_cache_hits"] += row.get("compile_cache_hits") or 0
        self._stats["compile_cache_misses"] += row.get("compile_cache_misses") or 0
        self._stats["compile_cache_evictions"] += (
            row.get("compile_cache_evictions") or 0
        )

    def _finish_job(self, job: _Job, row: dict) -> None:
        public = {k: v for k, v in row.items() if not k.startswith("_")}
        if job.job_id is not None:
            record = self._jobs.get(job.job_id)
            if record is not None:
                if public.get("error") is not None:
                    record["state"] = "error"
                    record["error"] = {
                        "type": public.get("error_type") or "SimulationError",
                        "message": public["error"],
                    }
                else:
                    record["state"] = "done"
                    record["row"] = public
            self._stats["errors" if public.get("error") is not None else "completed"] += 1
            return
        if public.get("error") is not None:
            self._stats["errors"] += 1
            self._write(
                job.writer,
                protocol.error_response(
                    job.request_id,
                    (public.get("error_type") or "SimulationError", public["error"]),
                    traceback=public.get("traceback") or "",
                ),
            )
            return
        self._stats["completed"] += 1
        self._write(job.writer, protocol.ok_response(job.request_id, public))

    def _write(self, writer: asyncio.StreamWriter, message: dict) -> None:
        if writer.is_closing():
            return  # the client went away; drop its responses
        with contextlib.suppress(ConnectionResetError, BrokenPipeError, OSError):
            writer.write(protocol.encode_message(message))

    async def _drain(self, writer: asyncio.StreamWriter) -> None:
        with contextlib.suppress(ConnectionResetError, BrokenPipeError, OSError):
            await writer.drain()

    def stats(self) -> dict:
        """A snapshot of the counters behind the service's perf claims."""
        s = self._stats
        hits, misses = s["affinity_hits"], s["affinity_misses"]
        routed = hits + misses
        dispatched = s["dispatched"]
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "uptime_s": (
                time.monotonic() - self._started_at if self._started_at else 0.0
            ),
            "workers": {
                "n": len(self._slots),
                "deaths": s["worker_deaths"],
                "respawns": s["respawns"],
                "queued": sum(len(slot.queue) for slot in self._slots),
                "dispatches": [slot.dispatches for slot in self._slots],
            },
            "jobs": {
                "received": s["received"],
                "completed": s["completed"],
                "errors": s["errors"],
                "protocol_errors": s["protocol_errors"],
                "retried": s["retried"],
            },
            "async": {
                "submitted": s["submitted"],
                "polls": s["polls"],
                "progress_updates": s["progress_updates"],
                "registered": len(self._jobs),
            },
            # Each dispatch carries one job.  The block keeps the keys it
            # had when jobs were batched, for readers that still take them.
            "coalescing": {
                "batches": dispatched,
                "coalesced_jobs": 0,
                "solo_jobs": dispatched,
                "max_batch": min(1, dispatched),
                "mean_batch": float(min(1, dispatched)),
            },
            "affinity": {
                "hits": hits,
                "misses": misses,
                "hit_rate": (hits / routed) if routed else 0.0,
            },
            # meta.compile_cache, aggregated across the service's workers
            # from the per-row deltas (the same ledger sweep reports carry).
            "compile_cache": {
                "hits": s["compile_cache_hits"],
                "misses": s["compile_cache_misses"],
                "evictions": s["compile_cache_evictions"],
            },
        }


@contextlib.contextmanager
def serve_in_thread(config: Optional[ServiceConfig] = None):
    """Run a :class:`SchedulerService` on a background thread (tests/benchmarks).

    Yields the bound ``(host, port)``; the server and its workers are torn
    down when the context exits.
    """
    service = SchedulerService(config)
    started = threading.Event()
    failure: List[BaseException] = []
    address: List[Tuple[str, int]] = []
    loop = asyncio.new_event_loop()

    async def _main():
        try:
            address.append(await service.start())
        except BaseException as exc:  # surface startup failures to the caller
            failure.append(exc)
            raise
        finally:
            started.set()

    def _run():
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(_main())
            loop.run_forever()
        finally:
            loop.run_until_complete(service.close())
            loop.close()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    started.wait(timeout=30.0)
    if failure:
        thread.join(timeout=5.0)
        raise failure[0]
    if not address:
        raise ConfigurationError("service failed to start within 30s")
    try:
        yield address[0]
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30.0)
