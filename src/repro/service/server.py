"""The persistent asyncio scheduling server.

One process runs the event loop; simulation happens in the supervised pool
workers of :mod:`repro.experiments.supervisor`, kept **persistent** across
requests (unlike :func:`supervised_map`, which tears its pool down after
each grid).  Each worker owns a duplex pipe whose file descriptor is
registered with the loop (``add_reader``), so results, recycles and deaths
all surface as ordinary readiness events — no polling thread.

Request flow for a ``simulate`` job:

1. the job is validated and lowered to a sweep scenario spec
   (:func:`repro.service.protocol.job_to_spec`);
2. it is routed to the worker its :func:`~repro.service.jobs.affinity_key`
   hashes to, so repeats of a (graph, machine) pair reuse that worker's
   compiled-scenario memo;
3. it waits in that worker's queue until the **coalescer** flushes — at
   batch size ``batch`` or after ``window_ms`` — and compatible queued jobs
   leave as *one* :func:`~repro.experiments.sweep.run_lane_group` item
   (one batched engine call per policy); incompatible jobs run solo via
   :func:`~repro.experiments.sweep.run_scenario`;
4. the reply rows are matched back to their requests and written to each
   client, bit-identical to direct :func:`repro.sim.engine.simulate` calls.

A ``submit`` job takes the same path but detached from its client: the
server answers immediately with a ``job_id``, runs the job **solo** (never
coalesced, so the worker's anytime progress stream attributes to exactly one
job), and parks the outcome in a bounded in-memory registry that ``poll``
reads — including the per-packet ``best_so_far`` snapshots an SA portfolio
run streams up the worker pipe while it anneals.

A worker that dies mid-batch is respawned and its jobs are requeued
transparently (bounded by ``retries``); jobs that exhaust their attempts get
a structured ``WorkerError`` response.  The ``stats`` op exposes the
counters that prove the design: coalescing batch sizes, affinity hit rates,
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
from typing import Deque, Dict, List, Optional, Set, Tuple

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
    """How the scheduling server listens, shards, coalesces, and retries."""

    host: str = "127.0.0.1"
    #: TCP port; 0 asks the OS for a free port (read it back from
    #: :attr:`SchedulerService.address` after :meth:`~SchedulerService.start`).
    port: int = 0
    #: Persistent pool workers.  0 = inline debug mode: jobs run in the
    #: server process (through a thread executor) with no sharding or
    #: coalescing — protocol-identical, perf-irrelevant.
    workers: int = 2
    #: Coalescing flush size: a worker queue holding this many compatible
    #: jobs flushes immediately as one batched lane-group call.
    batch: int = 8
    #: Coalescing time window in milliseconds: the longest a queued job
    #: waits for company before flushing anyway.
    window_ms: float = 2.0
    #: Re-dispatches after a worker death (0 = fail jobs on first death).
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
        if self.batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {self.batch}")
        if self.window_ms < 0:
            raise ConfigurationError(
                f"window_ms must be >= 0, got {self.window_ms}"
            )
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")


class _Job:
    """One in-flight ``simulate``/``submit`` request and its retry state.

    A ``submit`` job carries its registry ``job_id`` instead of answering a
    waiting client; it is never lane-coalesced, so the anytime progress its
    worker streams is unambiguous about which job it describes.
    """

    __slots__ = (
        "request_id", "spec", "writer", "attempt", "affinity", "eligible",
        "ckey", "job_id",
    )

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
        self.eligible = job_id is None and jobs_module.lane_eligible(spec)
        self.ckey = jobs_module.coalesce_key(spec)
        self.job_id = job_id


class _WorkerSlot:
    """A persistent pool worker plus its coalescing queue and cache ledger."""

    __slots__ = ("worker", "queue", "inflight", "timer", "seen", "dispatches")

    def __init__(self, worker: PoolWorker):
        self.worker = worker
        self.queue: Deque[_Job] = deque()
        #: Jobs inside the currently dispatched item (None = worker idle).
        self.inflight: Optional[List[_Job]] = None
        self.timer: Optional[asyncio.TimerHandle] = None
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
        "batches": 0,
        "coalesced_jobs": 0,
        "solo_jobs": 0,
        "max_batch": 0,
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
        #: Live client-handler tasks, cancelled and awaited by :meth:`close`.
        self._handlers: Set[asyncio.Task] = set()
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
        """Stop accepting, end live handlers, drop queued work, retire workers.

        The handlers are cancelled and awaited before ``wait_closed()``: on
        Python 3.11 that call does not wait for them (a pending handler
        would be destroyed with the loop), and from 3.12 on it waits for
        their connections, which a client that never hangs up keeps open.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            handlers = list(self._handlers)
            for task in handlers:
                task.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
        for slot in self._slots:
            if slot.timer is not None:
                slot.timer.cancel()
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
            self._loop.create_task(self._run_inline(job))
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
        self._stats["solo_jobs"] += 1
        self._finish_job(job, rows[0])

    # ------------------------------------------------------------------ #
    # Sharding, coalescing, dispatch
    # ------------------------------------------------------------------ #

    def _enqueue(self, job: _Job, front: bool) -> None:
        slot = self._slots[jobs_module.shard(job.spec, len(self._slots))]
        if front:
            slot.queue.appendleft(job)
        else:
            slot.queue.append(job)
        if slot.inflight is None and self._flushable(slot):
            self._flush(slot)
        elif slot.timer is None and slot.queue:
            assert self._loop is not None
            slot.timer = self._loop.call_later(
                self.config.window_ms / 1000.0, self._on_window, slot
            )

    def _flushable(self, slot: _WorkerSlot) -> bool:
        """Flush now, or wait out the window for more company?"""
        if not slot.queue:
            return False
        head = slot.queue[0]
        if not head.eligible or self.config.window_ms == 0:
            return True  # solo jobs gain nothing from waiting
        batchable = sum(
            1 for job in slot.queue if job.eligible and job.ckey == head.ckey
        )
        return batchable >= self.config.batch

    def _on_window(self, slot: _WorkerSlot) -> None:
        slot.timer = None
        if slot.inflight is None and slot.queue:
            self._flush(slot)

    def _take_batch(self, slot: _WorkerSlot) -> List[_Job]:
        """Pop the next dispatch group off the queue head.

        An ineligible head runs solo; an eligible head takes up to
        ``batch`` compatible jobs with it (skipped jobs keep their queue
        order for the next flush).
        """
        head = slot.queue.popleft()
        if not head.eligible:
            return [head]
        batch = [head]
        kept: List[_Job] = []
        while slot.queue and len(batch) < self.config.batch:
            job = slot.queue.popleft()
            if job.eligible and job.ckey == head.ckey:
                batch.append(job)
            else:
                kept.append(job)
        for job in reversed(kept):
            slot.queue.appendleft(job)
        return batch

    def _flush(self, slot: _WorkerSlot) -> None:
        if slot.inflight is not None or not slot.queue or self._closing:
            return
        if slot.timer is not None:
            slot.timer.cancel()
            slot.timer = None
        batch = self._take_batch(slot)
        for job in batch:
            if job.affinity in slot.seen:
                self._stats["affinity_hits"] += 1
            else:
                self._stats["affinity_misses"] += 1
                slot.seen.add(job.affinity)
        if len(slot.seen) > 4096:
            slot.seen.clear()  # ledger bound; worker memo is bounded too
        item = batch[0].spec if len(batch) == 1 else [job.spec for job in batch]
        self._stats["batches"] += 1
        self._stats["max_batch"] = max(self._stats["max_batch"], len(batch))
        if len(batch) == 1:
            self._stats["solo_jobs"] += 1
        else:
            self._stats["coalesced_jobs"] += len(batch)
        self._next_task_index += 1
        task = PoolTask(
            index=self._next_task_index,
            key=sweep_module._item_key(item),
            item=item,
            attempt=max(job.attempt for job in batch),
        )
        try:
            slot.worker.dispatch(task, timeout=None)
        except (BrokenPipeError, OSError):
            # The worker exited between replies (e.g. a maxtasksperchild
            # recycle); nothing was delivered, so requeue without charging
            # an attempt and replace the worker.
            for job in reversed(batch):
                slot.queue.appendleft(job)
            self._replace_worker(slot, died=False)
            return
        slot.inflight = batch
        slot.dispatches += 1
        for job in batch:
            if job.job_id is not None:
                record = self._jobs.get(job.job_id)
                if record is not None:
                    record["state"] = "running"

    # ------------------------------------------------------------------ #
    # Worker replies and deaths
    # ------------------------------------------------------------------ #

    def _on_worker_readable(self, slot: _WorkerSlot) -> None:
        try:
            msg = slot.worker.conn.recv()
        except (EOFError, OSError):
            self._handle_worker_exit(slot)
            return
        _index, _attempt, ok, payload, err = msg
        if ok == "progress":
            # Out-of-band anytime snapshot from a still-running cell: the
            # worker stays busy.  Async jobs dispatch solo, so the snapshot
            # belongs to the single inflight job; drop stale attempts.
            task = slot.worker.current
            batch = slot.inflight
            if (
                task is not None
                and task.index == _index
                and task.attempt == _attempt
                and batch is not None
                and len(batch) == 1
                and batch[0].job_id is not None
            ):
                record = self._jobs.get(batch[0].job_id)
                if record is not None and record["state"] == "running":
                    record["best_so_far"] = payload
                    self._stats["progress_updates"] += 1
            return
        batch = slot.inflight
        slot.inflight = None
        slot.worker.current = None
        slot.worker.tasks_done += 1
        if batch is None:  # pragma: no cover - stale reply after a requeue
            return
        if ok and isinstance(payload, list) and len(payload) == len(batch):
            for job, row in zip(batch, payload):
                self._account_row(row)
                self._finish_job(job, row)
        else:
            # The worker itself failed (chaos-injected exception, or an
            # unpicklable row): charge an attempt and retry the jobs.
            error = err or ("MalformedResult", "worker returned a malformed batch")
            self._retry_batch(slot, batch, error[0], error[1])
        self._flush(slot)

    def _handle_worker_exit(self, slot: _WorkerSlot) -> None:
        batch = slot.inflight
        slot.inflight = None
        if batch is not None:
            self._stats["worker_deaths"] += 1
        self._replace_worker(slot, died=batch is not None)
        if batch is not None:
            self._retry_batch(
                slot,
                batch,
                "WorkerDeath",
                "worker died mid-job; the job was re-dispatched",
            )
        self._flush(slot)

    def _replace_worker(self, slot: _WorkerSlot, died: bool) -> None:
        self._remove_reader(slot)
        slot.worker.current = None
        slot.worker.shutdown(kill=died)
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

    def _retry_batch(
        self, slot: _WorkerSlot, batch: List[_Job], error_type: str, message: str
    ) -> None:
        for job in reversed(batch):
            if job.attempt > self.config.retries:
                self._stats["errors"] += 1
                terminal = (
                    error_type,
                    f"{message} (gave up after {job.attempt} attempt(s))",
                )
                if job.job_id is not None:
                    record = self._jobs.get(job.job_id)
                    if record is not None:
                        record["state"] = "error"
                        record["error"] = {
                            "type": terminal[0],
                            "message": terminal[1],
                        }
                    continue
                self._write(
                    job.writer,
                    protocol.error_response(job.request_id, terminal),
                )
                continue
            job.attempt += 1
            self._stats["retried"] += 1
            if job.job_id is not None:
                record = self._jobs.get(job.job_id)
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
        dispatched = s["coalesced_jobs"] + s["solo_jobs"]
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
            "coalescing": {
                "batches": s["batches"],
                "coalesced_jobs": s["coalesced_jobs"],
                "solo_jobs": s["solo_jobs"],
                "max_batch": s["max_batch"],
                "mean_batch": (dispatched / s["batches"]) if s["batches"] else 0.0,
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
