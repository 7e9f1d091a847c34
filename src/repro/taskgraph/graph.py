"""The :class:`TaskGraph` container.

``TaskGraph`` stores the quadruple ``TG = {T, R, W, <*}`` of the paper:

* ``T`` — the tasks (nodes), each with a duration ``r_i`` (CPU load),
* ``W`` — communication weights ``w_ij`` on the edges (the *time* needed to
  transfer the data produced by ``t_i`` and consumed by ``t_j`` over one
  link, i.e. message length divided by link bandwidth),
* ``<*`` — the precedence constraints given by the directed edges.

The class is a thin, validated wrapper around adjacency dictionaries.  It
keeps insertion order for deterministic iteration, supports conversion to and
from :class:`networkx.DiGraph`, and exposes the level / critical-path helpers
from :mod:`repro.taskgraph.levels` as convenience methods.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple,
)

from repro.exceptions import CycleError, TaskGraphError, UnknownTaskError
from repro.taskgraph.task import Task
from repro.utils.validation import check_non_negative

if TYPE_CHECKING:  # to_networkx imports networkx when it is called
    import networkx as nx

__all__ = ["TaskGraph"]

TaskId = Hashable


class TaskGraph:
    """A directed acyclic task graph with durations and communication weights.

    Parameters
    ----------
    name:
        Human-readable name of the graph (used in reports and benchmarks).

    Examples
    --------
    >>> g = TaskGraph("diamond")
    >>> for t, d in [("a", 2.0), ("b", 3.0), ("c", 1.0), ("d", 2.0)]:
    ...     _ = g.add_task(t, d)
    >>> g.add_dependency("a", "b", comm=1.0)
    >>> g.add_dependency("a", "c", comm=1.0)
    >>> g.add_dependency("b", "d", comm=0.5)
    >>> g.add_dependency("c", "d", comm=0.5)
    >>> g.n_tasks, g.n_edges
    (4, 4)
    >>> g.critical_path()
    ['a', 'b', 'd']
    """

    def __init__(self, name: str = "taskgraph") -> None:
        self.name = str(name)
        self._tasks: Dict[TaskId, Task] = {}
        self._succ: Dict[TaskId, Dict[TaskId, float]] = {}
        self._pred: Dict[TaskId, Dict[TaskId, float]] = {}
        # Structural version counter: bumped by every mutation, lets
        # ``validate()`` memoize its full scan (tasks are frozen records, so
        # all mutations go through the methods below).
        self._version = 0
        self._validated_version = -1
        self._total_work_version = -1
        self._total_work = 0.0
        # Compiled forms of this graph (``repro.sim.compile``), kept here so
        # they are freed with it; ``__getstate__`` leaves them out.
        self._memo: Dict[str, object] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_memo"] = {}
        return state

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_task(
        self,
        task_id: TaskId,
        duration: float,
        label: str = "",
        **attrs,
    ) -> Task:
        """Add a task and return the created :class:`Task`.

        Raises :class:`TaskGraphError` if the identifier already exists.
        """
        if task_id in self._tasks:
            raise TaskGraphError(f"duplicate task id {task_id!r} in graph {self.name!r}")
        task = Task(task_id, duration, label, attrs)
        self._tasks[task_id] = task
        self._succ[task_id] = {}
        self._pred[task_id] = {}
        self._version += 1
        return task

    def add_dependency(self, u: TaskId, v: TaskId, comm: float = 0.0) -> None:
        """Add the precedence constraint ``u <* v`` with communication weight *comm*.

        ``comm`` is the time needed to move the data produced by *u* and
        consumed by *v* across a single link (``w_uv`` in the paper).  Adding
        the same edge twice overwrites the weight.

        Raises
        ------
        UnknownTaskError
            If either endpoint has not been added.
        TaskGraphError
            For self-loops or negative weights.
        """
        if u not in self._tasks:
            raise UnknownTaskError(u)
        if v not in self._tasks:
            raise UnknownTaskError(v)
        if u == v:
            raise TaskGraphError(f"self-dependency on task {u!r} is not allowed")
        weight = check_non_negative("comm", comm)
        self._succ[u][v] = weight
        self._pred[v][u] = weight
        self._version += 1

    def remove_dependency(self, u: TaskId, v: TaskId) -> None:
        """Remove the edge ``u -> v``; raise :class:`TaskGraphError` if absent."""
        if u not in self._succ or v not in self._succ[u]:
            raise TaskGraphError(f"edge {u!r} -> {v!r} not present")
        del self._succ[u][v]
        del self._pred[v][u]
        self._version += 1

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def tasks(self) -> List[TaskId]:
        """Task identifiers in insertion order."""
        return list(self._tasks.keys())

    @property
    def n_tasks(self) -> int:
        return len(self._tasks)

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: TaskId) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[TaskId]:
        return iter(self._tasks)

    def task(self, task_id: TaskId) -> Task:
        """Return the :class:`Task` record for *task_id*."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise UnknownTaskError(task_id) from None

    def duration(self, task_id: TaskId) -> float:
        """Return the CPU load ``r_i`` of *task_id*."""
        return self.task(task_id).duration

    def comm(self, u: TaskId, v: TaskId) -> float:
        """Return the communication weight ``w_uv`` of edge ``u -> v``.

        Raises :class:`TaskGraphError` if the edge does not exist.
        """
        if u not in self._tasks:
            raise UnknownTaskError(u)
        try:
            return self._succ[u][v]
        except KeyError:
            raise TaskGraphError(f"edge {u!r} -> {v!r} not present") from None

    def has_edge(self, u: TaskId, v: TaskId) -> bool:
        return u in self._succ and v in self._succ[u]

    def successors(self, task_id: TaskId) -> List[TaskId]:
        """Immediate successors of *task_id* (tasks that must start after it)."""
        if task_id not in self._tasks:
            raise UnknownTaskError(task_id)
        return list(self._succ[task_id].keys())

    def predecessors(self, task_id: TaskId) -> List[TaskId]:
        """Immediate predecessors of *task_id*."""
        if task_id not in self._tasks:
            raise UnknownTaskError(task_id)
        return list(self._pred[task_id].keys())

    def edges(self) -> Iterator[Tuple[TaskId, TaskId, float]]:
        """Iterate over ``(u, v, comm_weight)`` triples in insertion order."""
        for u, targets in self._succ.items():
            for v, w in targets.items():
                yield (u, v, w)

    def entry_tasks(self) -> List[TaskId]:
        """Tasks with no predecessors (the graph roots)."""
        return [t for t in self._tasks if not self._pred[t]]

    def exit_tasks(self) -> List[TaskId]:
        """Tasks with no successors (the graph leaves)."""
        return [t for t in self._tasks if not self._succ[t]]

    def in_degree(self, task_id: TaskId) -> int:
        if task_id not in self._tasks:
            raise UnknownTaskError(task_id)
        return len(self._pred[task_id])

    def out_degree(self, task_id: TaskId) -> int:
        if task_id not in self._tasks:
            raise UnknownTaskError(task_id)
        return len(self._succ[task_id])

    def total_work(self) -> float:
        """Sum of all task durations (the serial execution time ``T_1``).

        Memoized on the structural version: every simulation result reads
        it, so a batched sweep would otherwise re-sum the same graph once
        per lane.
        """
        if self._total_work_version != self._version:
            self._total_work = float(sum(t.duration for t in self._tasks.values()))
            self._total_work_version = self._version
        return self._total_work

    def total_communication(self) -> float:
        """Sum of all edge communication weights."""
        return float(sum(w for _, _, w in self.edges()))

    # ------------------------------------------------------------------ #
    # Ordering and validation
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[TaskId]:
        """Return the tasks in a topological order (Kahn's algorithm).

        The order is deterministic: among simultaneously-ready tasks the
        insertion order is preserved.  Raises :class:`CycleError` if the graph
        contains a cycle.
        """
        in_deg = {t: len(self._pred[t]) for t in self._tasks}
        ready = [t for t in self._tasks if in_deg[t] == 0]
        order: List[TaskId] = []
        idx = 0
        while idx < len(ready):
            u = ready[idx]
            idx += 1
            order.append(u)
            for v in self._succ[u]:
                in_deg[v] -= 1
                if in_deg[v] == 0:
                    ready.append(v)
        if len(order) != len(self._tasks):
            raise CycleError(f"task graph {self.name!r} contains a cycle")
        return order

    def is_acyclic(self) -> bool:
        """Return ``True`` if the graph has no cycles."""
        try:
            self.topological_order()
        except CycleError:
            return False
        return True

    def validate(self) -> None:
        """Check structural invariants; raise on the first violation.

        Invariants, and what each raises:

        * the graph is acyclic — :class:`CycleError` (a
          :class:`TaskGraphError`);
        * every duration and comm weight is a finite non-negative number —
          :class:`ValueError` (from
          :func:`~repro.utils.validation.check_non_negative`), not a
          :class:`TaskGraphError`;
        * the successor and predecessor maps agree on every edge and its
          weight — :class:`TaskGraphError`.

        The scan is memoized against the structural version counter (tasks
        are frozen records, so every mutation bumps it): validating the same
        unchanged graph repeatedly — as paired policy comparisons and sweep
        drivers do — costs O(1) after the first pass.
        """
        if self._validated_version == self._version:
            return
        self.topological_order()  # raises CycleError if cyclic
        # A finite non-negative float passes without formatting its error name.
        for task in self._tasks.values():
            d = task.duration
            if not (type(d) is float and 0.0 <= d < math.inf):
                check_non_negative(f"duration of {task.task_id!r}", d)
        for u, v, w in self.edges():
            if not (type(w) is float and 0.0 <= w < math.inf):
                check_non_negative(f"comm weight of edge {u!r}->{v!r}", w)
            if self._pred[v].get(u) != w:
                raise TaskGraphError(
                    f"inconsistent adjacency for edge {u!r} -> {v!r}"
                )
        self._validated_version = self._version

    # ------------------------------------------------------------------ #
    # Derived quantities (delegating to repro.taskgraph.levels)
    # ------------------------------------------------------------------ #
    def levels(self, include_communication: bool = False) -> Dict[TaskId, float]:
        """Task levels ``n_i`` (longest downward path including own duration)."""
        from repro.taskgraph.levels import compute_levels

        return compute_levels(self, include_communication=include_communication)

    def colevels(self, include_communication: bool = False) -> Dict[TaskId, float]:
        """Co-levels (longest upward path including own duration)."""
        from repro.taskgraph.levels import compute_colevels

        return compute_colevels(self, include_communication=include_communication)

    def critical_path(self) -> List[TaskId]:
        """One longest (duration-weighted) root-to-leaf chain."""
        from repro.taskgraph.levels import critical_path

        return critical_path(self)

    def critical_path_length(self) -> float:
        """Length of the critical path (the ``T_inf`` lower bound on makespan)."""
        from repro.taskgraph.levels import critical_path_length

        return critical_path_length(self)

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> nx.DiGraph:
        """Export to a :class:`networkx.DiGraph`.

        Node attribute ``duration`` and edge attribute ``comm`` carry the
        quantitative data; node attribute ``label`` carries the display name.
        """
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for task in self._tasks.values():
            g.add_node(task.task_id, duration=task.duration, label=task.label, **dict(task.attrs))
        for u, v, w in self.edges():
            g.add_edge(u, v, comm=w)
        return g

    @classmethod
    def from_networkx(cls, g: nx.DiGraph, name: Optional[str] = None) -> "TaskGraph":
        """Build a :class:`TaskGraph` from a :class:`networkx.DiGraph`.

        Missing ``duration`` node attributes default to 1.0 and missing
        ``comm`` edge attributes default to 0.0.
        """
        tg = cls(name or g.graph.get("name", "taskgraph"))
        for node, data in g.nodes(data=True):
            extra = {k: v for k, v in data.items() if k not in ("duration", "label")}
            tg.add_task(node, float(data.get("duration", 1.0)), data.get("label", ""), **extra)
        for u, v, data in g.edges(data=True):
            tg.add_dependency(u, v, float(data.get("comm", 0.0)))
        return tg

    def copy(self, name: Optional[str] = None) -> "TaskGraph":
        """Return an independent copy of this graph."""
        new = TaskGraph(name or self.name)
        for task in self._tasks.values():
            new.add_task(task.task_id, task.duration, task.label, **dict(task.attrs))
        for u, v, w in self.edges():
            new.add_dependency(u, v, w)
        return new

    def relabeled(self, mapping: Mapping[TaskId, TaskId], name: Optional[str] = None) -> "TaskGraph":
        """Return a copy with task ids replaced according to *mapping*.

        Identifiers absent from *mapping* are kept unchanged.  Raises
        :class:`TaskGraphError` if the relabeling collapses two tasks.
        """
        new_ids = [mapping.get(t, t) for t in self._tasks]
        if len(set(new_ids)) != len(new_ids):
            raise TaskGraphError("relabeling maps two tasks to the same identifier")
        new = TaskGraph(name or self.name)
        for task in self._tasks.values():
            nid = mapping.get(task.task_id, task.task_id)
            new.add_task(nid, task.duration, task.label, **dict(task.attrs))
        for u, v, w in self.edges():
            new.add_dependency(mapping.get(u, u), mapping.get(v, v), w)
        return new

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph(name={self.name!r}, n_tasks={self.n_tasks}, "
            f"n_edges={self.n_edges})"
        )
