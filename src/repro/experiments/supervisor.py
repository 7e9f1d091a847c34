"""Supervised fault-tolerant execution for scenario sweeps.

A bare ``pool.map`` cannot survive a single misbehaving worker: a hung cell
blocks the whole sweep forever, a crashed worker loses every in-flight cell,
and a 10k-cell grid that dies at cell 9,999 has to start over.  This module
is a supervised worker pool instead, in the style of distributed
discrete-event control systems, where supervision and graceful degradation
are first-class structure:

* **Per-cell wall-clock timeouts** — a worker that exceeds ``timeout`` on
  one cell is killed (SIGKILL) and replaced; the cell is retried elsewhere.
* **Bounded retry with exponential backoff + jitter** — transient failures
  (exceptions, malformed results) are retried up to ``retries`` additional
  times; the jitter is a deterministic hash draw so reruns behave
  identically.
* **Worker-death detection with respawn** — a worker that exits abruptly
  (segfault, ``os._exit``, OOM kill) is detected through its pipe's EOF,
  its in-flight cell is re-dispatched, and a replacement worker is forked.
* **Worker recycling** — ``maxtasksperchild`` retires a worker after a
  fixed number of cells so leaky workers cannot grow without bound.
* **Journaled checkpointing** — an append-only JSONL journal of completed
  rows keyed by spec hash lets an interrupted sweep ``--resume``: finished
  cells are restored from the journal and only unfinished cells re-execute,
  reproducing bit-identical aggregates.

One class owns a worker's lifecycle.  :class:`PoolWorker` sends a cell,
turns each pipe message (or the EOF of an exited process) into one event —
progress, result, failure, stale or exit — and holds the
``maxtasksperchild`` and deadline rules.  :func:`supervised_map` and the
scheduling service (:mod:`repro.service.server`) both drive workers through
it, so a death, a recycle, a raised exception and a malformed reply mean
the same in a sweep and in the service.

The pool is plumbing, not policy: cells are dispatched one at a time over a
per-worker duplex pipe (so the supervisor always knows which worker owns
which cell, and killing one worker cannot corrupt a shared queue), and
results return in input order.  A run with ``jobs=1`` and no timeout or
chaos runs each attempt in process, through the same retry and backoff
code as the pool.

Fault injection (:mod:`repro.utils.chaos`) threads through the same worker
wrapper, so the test suite and the CI chaos job can prove the whole ladder:
with 10–20% injected crashes/hangs/deaths/malformed rows, a sweep completes
with rows bit-identical (science fields) to a fault-free run.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import signal
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, WorkerError
from repro.utils.chaos import MALFORMED_PAYLOAD, ChaosConfig, det_uniform

__all__ = [
    "SupervisorConfig",
    "Checkpoint",
    "PoolTask",
    "PoolWorker",
    "supervised_map",
    "spec_key",
    "group_key",
    "progress_sender",
]

#: Supervisor wake-up interval (seconds) while waiting on workers.
_POLL_INTERVAL_S = 0.1


# --------------------------------------------------------------------------- #
# Anytime progress channel
# --------------------------------------------------------------------------- #

#: Worker-process-local progress sender, installed by :func:`_worker_loop`
#: around each cell.  A cell body (e.g. ``run_scenario`` wiring an SA
#: portfolio's ``anytime_hook``) fetches it with :func:`progress_sender` and
#: calls it with a JSON-ish snapshot dict; the snapshot travels up the worker
#: pipe as an out-of-band ``(index, attempt, "progress", snapshot, None)``
#: tuple.  Pipe replies are FIFO, so progress always precedes the cell's
#: final reply.  ``None`` whenever no supervised cell is in flight (direct
#: in-process calls) — callers must handle that.
_PROGRESS_SENDER: Optional[Callable[[dict], None]] = None


def progress_sender() -> Optional[Callable[[dict], None]]:
    """The in-flight cell's progress sender, or ``None`` outside a worker."""
    return _PROGRESS_SENDER


# --------------------------------------------------------------------------- #
# Stable cell keys
# --------------------------------------------------------------------------- #

def spec_key(spec: dict) -> str:
    """A stable content hash of a scenario spec.

    Keys starting with ``_`` (volatile bookkeeping such as ``_index``) are
    excluded, so the hash depends only on what the cell *is*, not on where
    it sits in the grid or how it was scheduled.  Used to key checkpoint
    journal entries and chaos decisions.

    A ``portfolio`` of ``None`` is also excluded: non-portfolio cells hash
    exactly as they did before the field existed, so checkpoint journals
    written by older sweeps still resume and seeded chaos plans keep firing
    on the same cells.
    """
    payload = {
        k: v for k, v in spec.items()
        if not k.startswith("_") and not (k == "portfolio" and v is None)
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def group_key(keys: Sequence[str]) -> str:
    """A stable key for a lane group, derived from its member cell keys."""
    blob = ",".join(keys).encode("utf-8")
    return "g" + hashlib.sha256(blob).hexdigest()[:15]


def _default_item_key(item: object) -> str:
    if isinstance(item, dict):
        return spec_key(item)
    if isinstance(item, (list, tuple)):
        return group_key([_default_item_key(member) for member in item])
    blob = json.dumps(item, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #

@dataclass
class SupervisorConfig:
    """How the supervised pool runs, retries, and degrades.

    ``timeout`` and ``chaos`` require process isolation (a hang can only be
    killed, and an injected ``die`` fault only survived, across a process
    boundary), so either forces the pool path even at ``jobs=1``; without
    them a single-job run executes inline.
    """

    jobs: int = 1
    #: Per-cell wall-clock budget in seconds; ``None`` disables timeouts.
    timeout: Optional[float] = None
    #: Additional attempts after the first (0 = fail on first error).
    retries: int = 2
    #: First-retry backoff in seconds; doubles per attempt, plus jitter.
    backoff_base: float = 0.05
    #: Ceiling for the exponential backoff delay.
    backoff_max: float = 2.0
    #: Seed for the deterministic backoff jitter.
    seed: int = 0
    #: Retire a worker after this many cells (``None`` = never).
    maxtasksperchild: Optional[int] = None
    #: Fault-injection plan applied around every cell in pool workers.
    chaos: Optional[ChaosConfig] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.maxtasksperchild is not None and self.maxtasksperchild < 1:
            raise ConfigurationError(
                f"maxtasksperchild must be >= 1, got {self.maxtasksperchild}"
            )

    @property
    def needs_isolation(self) -> bool:
        """Whether supervision features require subprocess workers."""
        return self.timeout is not None or self.chaos is not None

    def backoff_delay(self, key: str, attempt: int) -> float:
        """The deterministic backoff before retrying *key* after *attempt*."""
        base = min(self.backoff_max, self.backoff_base * (2 ** (attempt - 1)))
        return base * (1.0 + det_uniform(self.seed, "jitter", key, attempt))


# --------------------------------------------------------------------------- #
# Checkpoint journal
# --------------------------------------------------------------------------- #

class Checkpoint:
    """Append-only JSONL journal of completed sweep cells.

    Line 1 is a header carrying the grid fingerprint; every subsequent line
    is ``{"kind": "row", "key": <spec hash>, "row": {...}}`` appended (and
    flushed) the moment a cell completes.  A process killed mid-write leaves
    at most one partial trailing line, which :meth:`load` skips — everything
    before it is intact, which is the crash-safety contract ``--resume``
    relies on.
    """

    def __init__(self, path: str, fingerprint: dict, restored: Dict[str, dict], fh):
        self.path = path
        self.fingerprint = fingerprint
        self.restored = restored
        self._fh = fh

    # ------------------------------------------------------------------ #
    @staticmethod
    def _scan(path: str) -> Tuple[Optional[dict], Dict[str, dict], int]:
        """Parse a journal: ``(fingerprint, rows by key, valid byte length)``.

        The byte length covers every decodable line; a partial trailing line
        from a killed run falls outside it.
        """
        fingerprint: Optional[dict] = None
        rows: Dict[str, dict] = {}
        valid_end = 0
        offset = 0
        with open(path, "rb") as fh:
            for raw in fh:
                offset += len(raw)
                line = raw.decode("utf-8", errors="replace").strip()
                if line:
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue  # partial trailing line of an interrupted run
                    if entry.get("kind") == "header":
                        fingerprint = entry.get("fingerprint")
                    elif entry.get("kind") == "row":
                        rows[entry["key"]] = entry["row"]
                valid_end = offset
        return fingerprint, rows, valid_end

    @classmethod
    def load(cls, path: str) -> Tuple[Optional[dict], Dict[str, dict]]:
        """Read a journal: ``(header fingerprint, rows by spec key)``.

        Undecodable lines (the partial trailing write of a killed run) are
        skipped; a duplicate key keeps the last row recorded.
        """
        fingerprint, rows, _valid_end = cls._scan(path)
        return fingerprint, rows

    @classmethod
    def open(cls, path: str, fingerprint: dict, resume: bool = False) -> "Checkpoint":
        """Open (or create) the journal at *path* for this grid.

        With ``resume=True`` and an existing journal, previously completed
        rows are restored — after verifying the journal's header fingerprint
        matches this grid, so a checkpoint from a different sweep cannot be
        silently replayed into this one.  Without ``resume`` (or without an
        existing file) the journal is started fresh.
        """
        restored: Dict[str, dict] = {}
        if resume and os.path.exists(path):
            recorded, rows, valid_end = cls._scan(path)
            if recorded is None and rows:
                raise ConfigurationError(
                    f"checkpoint {path!r} has rows but no readable header; "
                    "refusing to resume from a corrupt journal"
                )
            if recorded is not None and recorded != fingerprint:
                raise ConfigurationError(
                    f"checkpoint {path!r} was journaled for a different sweep "
                    f"grid (header {recorded} != this grid {fingerprint}); "
                    "pass a fresh --checkpoint path or drop --resume"
                )
            restored = rows
            # Drop the partial trailing line a killed run may have left, so
            # appended records cannot merge into it.
            if valid_end < os.path.getsize(path):
                with open(path, "r+b") as trunc:
                    trunc.truncate(valid_end)
            fh = open(path, "a")
        else:
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            fh = open(path, "w")
            fh.write(json.dumps({"kind": "header", "fingerprint": fingerprint}) + "\n")
            fh.flush()
        return cls(path, fingerprint, restored, fh)

    def record(self, key: str, row: dict) -> None:
        """Append one completed row and flush it to disk immediately."""
        self._fh.write(json.dumps({"kind": "row", "key": key, "row": row}) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# The supervised pool
# --------------------------------------------------------------------------- #

@dataclass
class PoolTask:
    """One unit of supervised work: a payload item plus its retry state.

    Shared between :func:`supervised_map`'s batch pool and the scheduling
    service's persistent pool (:mod:`repro.service.server`), which reuses
    the same worker processes and dispatch wire format.
    """

    index: int
    key: str
    item: object
    attempt: int = 1
    ready_at: float = 0.0
    failures: List[dict] = field(default_factory=list)


def _failure(kind: str, error_type: str, error: str, traceback: str = "") -> dict:
    """A failure record: ``exception``, ``malformed``, ``death`` or ``timeout``."""
    return dict(kind=kind, error_type=error_type, error=error, traceback=traceback)


def _error_fields(exc: BaseException) -> Tuple[str, str, str]:
    """``(type name, message, traceback)`` of the exception being handled."""
    return type(exc).__name__, str(exc), traceback_module.format_exc()


class PoolWorker:
    """One supervised worker process, its duplex pipe and its lifecycle.

    The worker body (:func:`_worker_loop`) receives ``(index, attempt, key,
    item)`` tuples, runs ``fn(item)`` (through chaos injection when armed)
    and replies ``(index, attempt, ok, payload, error_tuple)``.  This class
    is the pipe's only reader and the only owner of the worker's state:
    :meth:`dispatch` sends one cell, :meth:`receive` turns the next message
    (or the EOF of an exited process) into one event, and :attr:`retiring`
    and :meth:`overdue` hold the ``maxtasksperchild`` and deadline rules.
    :func:`supervised_map` drives workers through this API, and so does the
    scheduling service, which keeps them **persistent** across requests so
    per-process caches stay hot and watches ``conn.fileno()`` from its
    event loop.
    """

    def __init__(self, ctx, fn, config: SupervisorConfig):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_loop,
            args=(child_conn, fn, config.chaos),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.chaos = config.chaos
        self.max_tasks = config.maxtasksperchild
        #: The cell in flight (``None`` = idle) and its wall-clock deadline.
        self.current: Optional[PoolTask] = None
        self.deadline: Optional[float] = None
        self.tasks_done = 0

    @property
    def retiring(self) -> bool:
        """Whether the worker has sent its ``maxtasksperchild``-th reply.

        It gets no further cell: its owner shuts it down and respawns the
        slot, which counts as a recycle.
        """
        return self.max_tasks is not None and self.tasks_done >= self.max_tasks

    def overdue(self, now: float) -> bool:
        """Whether the cell in flight has outlived its wall-clock deadline."""
        return self.deadline is not None and now > self.deadline

    def dispatch(self, task: PoolTask, timeout: Optional[float]) -> bool:
        """Send *task*; ``False`` when the pipe is dead and nothing was sent
        (the worker exited while idle, before its EOF was read)."""
        try:
            self.conn.send((task.index, task.attempt, task.key, task.item))
        except (BrokenPipeError, OSError):
            return False
        self.current = task
        self.deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        return True

    def receive(self) -> Tuple[str, Optional[PoolTask], object]:
        """Read one message from the worker as ``(kind, task, value)``.

        ``kind`` is one of:

        * ``"progress"`` — an anytime snapshot (*value*) from the cell in
          flight, which keeps running;
        * ``"result"`` — the cell's payload (*value*); the worker is idle;
        * ``"failure"`` — the cell raised, or returned the chaos-injected
          malformed payload; *value* is the failure record;
        * ``"stale"`` — a message for a cell that is not in flight; it
          changes nothing;
        * ``"exit"`` — EOF: the process is gone.  *value* is the death
          record of the cell that was in flight, or ``None`` if it was idle.
        """
        try:
            index, attempt, ok, payload, err = self.conn.recv()
        except (EOFError, OSError):
            task, self.current, self.deadline = self.current, None, None
            self.proc.join(timeout=5.0)
            if task is None:
                return "exit", None, None
            return "exit", task, _failure(
                "death",
                "WorkerDeath",
                f"worker died with exit code {self.proc.exitcode} while "
                f"running cell {task.key} (attempt {task.attempt})",
            )
        task = self.current
        if task is None or (task.index, task.attempt) != (index, attempt):
            return "stale", task, None
        if ok == "progress":
            return "progress", task, payload
        self.current = self.deadline = None
        self.tasks_done += 1
        if not ok:
            return "failure", task, _failure("exception", *err)
        if self.chaos is not None and payload == MALFORMED_PAYLOAD:
            return "failure", task, _failure(
                "malformed",
                "MalformedResult",
                "worker returned the chaos-injected malformed payload",
            )
        return "result", task, payload

    def shutdown(self, kill: bool = False) -> None:
        """Retire this worker: polite sentinel first, SIGKILL when asked."""
        if kill and self.proc.is_alive():
            self.proc.kill()
        elif self.proc.is_alive():
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():  # pragma: no cover - stuck even after SIGKILL
            self.proc.kill()
            self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _worker_loop(conn, fn, chaos: Optional[ChaosConfig]):
    """Worker body: receive a cell, run it (through chaos, if armed), reply.

    Runs until the ``None`` shutdown sentinel, which its :class:`PoolWorker`
    sends when it retires the worker (``maxtasksperchild``) or the pool
    shuts down.  Every exception — the cell's or an injected one — is
    reported as a structured failure tuple; injected ``die`` faults never
    reach the reply.
    """
    # A worker forked from an event loop that handles SIGTERM (the service
    # CLI) inherits the handler and the loop's wakeup fd: restore the
    # default, or a SIGTERM meant for this worker would stop the server.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):  # pragma: no cover - supervisor gone
            break
        if msg is None:
            break
        index, attempt, key, item = msg

        def _send_progress(snapshot: dict, _i=index, _a=attempt) -> None:
            try:
                conn.send((_i, _a, "progress", snapshot, None))
            except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
                pass

        global _PROGRESS_SENDER
        try:
            payload = chaos.inject(key, attempt) if chaos is not None else None
            if payload is None:
                _PROGRESS_SENDER = _send_progress
                payload = fn(item)
            reply = (index, attempt, True, payload, None)
        except KeyboardInterrupt:  # pragma: no cover - interrupted mid-cell
            break
        except BaseException as exc:
            reply = (index, attempt, False, None, _error_fields(exc))
        finally:
            _PROGRESS_SENDER = None
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - supervisor gone
            break
    conn.close()


def _new_stats(mode: str, jobs: int, n_items: int) -> dict:
    return {
        "mode": mode,
        "jobs": jobs,
        "n_items": n_items,
        "attempts": 0,
        "retries": 0,
        "timeouts": 0,
        "worker_deaths": 0,
        "respawns": 0,
        "recycles": 0,
        "failed_items": 0,
    }


def supervised_map(
    fn: Callable[[object], object],
    items: Sequence[object],
    config: Optional[SupervisorConfig] = None,
    *,
    item_key: Optional[Callable[[object], str]] = None,
    validate: Optional[Callable[[object, object], None]] = None,
    annotate: Optional[Callable[[object, object, int, List[dict]], object]] = None,
    on_failure: Optional[Callable[[object, List[dict]], object]] = None,
    on_result: Optional[Callable[[object, object], None]] = None,
) -> Tuple[List[object], dict]:
    """Map *fn* over *items* under supervision; returns ``(results, stats)``.

    Results keep input order regardless of scheduling, retries, or worker
    deaths.  Hooks:

    ``item_key(item)``
        Stable string key for chaos/backoff determinism and journaling
        (default: content hash of the item).
    ``validate(item, result)``
        Raise to reject a structurally invalid result; the attempt is
        recorded as a ``MalformedResult`` failure and retried.
    ``annotate(item, result, attempt, failures)``
        Transform a successful result before it is stored (e.g. stamp the
        attempt count onto sweep rows).
    ``on_failure(item, failures)``
        Build the terminal result for a cell whose attempts are exhausted;
        without it the supervisor raises :class:`WorkerError`.
    ``on_result(item, result)``
        Called once per *successful* item as it completes (checkpointing);
        terminal failures are not journaled, so a resumed run retries them.

    Without process isolation (``jobs=1`` or a single item, and no timeout
    or chaos) every attempt runs in process; a retry waits out its backoff
    first.  Both paths settle attempts through the same code.  Anytime
    progress snapshots a worker streams while a cell runs (see
    :func:`progress_sender`) are discarded here; the scheduling service
    reads them from its own workers.
    """
    config = config or SupervisorConfig()
    items = list(items)
    key_fn = item_key or _default_item_key
    n = len(items)
    inline = (config.jobs <= 1 or n <= 1) and not config.needs_isolation
    jobs = 1 if inline else max(1, min(config.jobs, n))
    stats = _new_stats("inline" if inline else "pool", jobs, n)
    results: List[object] = [None] * n
    n_done = 0
    pending: List[PoolTask] = [
        PoolTask(index=i, key=key_fn(item), item=item) for i, item in enumerate(items)
    ]
    pending.reverse()  # pop() from the tail keeps input order

    def _complete(task: PoolTask, payload: object, journal: bool) -> None:
        nonlocal n_done
        results[task.index] = payload
        n_done += 1
        if journal and on_result is not None:
            on_result(task.item, payload)

    def _fail_attempt(task: PoolTask, failure: dict) -> None:
        """Record one failed attempt: requeue with backoff, or go terminal."""
        task.failures.append(failure)
        if task.attempt <= config.retries:
            stats["retries"] += 1
            delay = config.backoff_delay(task.key, task.attempt)
            task.attempt += 1
            task.ready_at = time.monotonic() + delay
            pending.append(task)
            return
        stats["failed_items"] += 1
        if on_failure is None:
            raise WorkerError(
                f"cell {task.key} failed after {task.attempt} attempt(s): "
                f"{failure['error_type']}: {failure['error']}",
                error_type=failure["error_type"],
                traceback=failure["traceback"],
                attempts=task.attempt,
            )
        _complete(task, on_failure(task.item, task.failures), journal=False)

    def _settle(task: PoolTask, payload: object) -> None:
        """A returned payload: validate and store it, or fail the attempt."""
        if validate is not None:
            try:
                validate(task.item, payload)
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}"
                _fail_attempt(task, _failure("malformed", "MalformedResult", message))
                return
        if annotate is not None:
            payload = annotate(task.item, payload, task.attempt, task.failures)
        _complete(task, payload, journal=True)

    if inline:
        while pending:
            task = pending.pop()
            delay = task.ready_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            stats["attempts"] += 1
            try:
                payload = fn(task.item)
            except Exception as exc:
                _fail_attempt(task, _failure("exception", *_error_fields(exc)))
            else:
                _settle(task, payload)
        return results, stats

    # Pool path: per-worker pipes, timeouts, respawn, recycling.
    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else "spawn")
    workers = [PoolWorker(ctx, fn, config) for _ in range(jobs)]

    def _pop_ready(now: float) -> Optional[PoolTask]:
        best = None
        for i in range(len(pending) - 1, -1, -1):
            task = pending[i]
            if task.ready_at <= now:
                best = i
                break
        if best is None:
            return None
        return pending.pop(best)

    def _retire(slot: int, kill: bool = False) -> None:
        """Shut down *slot*'s worker and respawn it while cells remain."""
        worker = workers[slot]
        worker.shutdown(kill=kill)
        if worker.retiring:
            stats["recycles"] += 1
        if n_done < n:
            stats["respawns"] += 1
            workers[slot] = PoolWorker(ctx, fn, config)

    finished = False
    try:
        while n_done < n:
            now = time.monotonic()
            # Replace idle workers that are retiring or exited, then send
            # ready cells to the idle workers.
            for slot, worker in enumerate(workers):
                if worker.current is None and (
                    worker.retiring or not worker.proc.is_alive()
                ):
                    _retire(slot)
            for slot, worker in enumerate(workers):
                if worker.current is not None:
                    continue
                task = _pop_ready(now)
                if task is None:
                    break
                if worker.dispatch(task, config.timeout):
                    stats["attempts"] += 1
                else:  # the worker exited since the check above
                    pending.append(task)
                    _retire(slot)

            # Wait for the next event: a message, an exit, a deadline, or a
            # backoff expiry — whichever comes first.
            wait_t = _POLL_INTERVAL_S
            for worker in workers:
                if worker.deadline is not None:
                    wait_t = min(wait_t, max(0.0, worker.deadline - now))
            for task in pending:
                wait_t = min(wait_t, max(0.0, task.ready_at - now))
            conn_map = {worker.conn: slot for slot, worker in enumerate(workers)}
            for conn in mp_connection.wait(list(conn_map), timeout=wait_t):
                slot = conn_map[conn]
                kind, task, value = workers[slot].receive()
                if kind == "result":
                    _settle(task, value)
                elif kind == "failure":
                    _fail_attempt(task, value)
                elif kind == "exit":
                    if task is not None:
                        stats["worker_deaths"] += 1
                        _fail_attempt(task, value)
                    _retire(slot)

            # Kill workers whose in-flight cell blew its wall-clock budget.
            now = time.monotonic()
            for slot, worker in enumerate(workers):
                if worker.overdue(now):
                    task = worker.current
                    stats["timeouts"] += 1
                    _fail_attempt(
                        task,
                        _failure(
                            "timeout",
                            "CellTimeoutError",
                            f"cell {task.key} exceeded the {config.timeout}s "
                            f"wall-clock timeout (attempt {task.attempt}); "
                            "its worker was killed",
                        ),
                    )
                    _retire(slot, kill=True)
        finished = True
    finally:
        # A run cut short (a cell out of attempts, a failing hook) kills
        # its workers rather than waiting for their cells.
        for worker in workers:
            worker.shutdown(kill=not finished)
    return results, stats
