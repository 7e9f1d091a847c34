"""Measurement helpers shared by the benchmark's workloads.

Nothing here imports the package under test, so the helpers are unit-tested
on their own (``test_perfbench_harness.py``):

* :func:`tail_percentile` — the tail-latency rule: the highest percentile
  with at least ten samples beyond it, with the sample count;
* :class:`Tally` — operations attempted and failed (errors, refusals and
  wrong outputs), giving ``failed_frac``;
* :class:`OpenLoop` — due-time bookkeeping for an open-loop generator:
  latency runs from when a request was *due*, and lateness records how far
  the generator fell behind its schedule;
* :class:`Tracer` — spans and counts recorded by wrapping the program's
  public callables from outside, with install/uninstall that restores the
  original objects;
* :func:`missed_limit` — which samples fail a latency limit set on the
  tail percentile;
* :class:`Speedometer` — the machine's speed during a run, from a fixed
  loop timed between the run's operations, so that timings can be
  expressed at a nominal machine speed;
* :func:`peak_rss_mb` — the peak resident set of this process and its
  waited-for children.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A tail percentile needs at least this many samples strictly beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  Of ``n`` samples sorted ascending,
    the one at 0-based index ``n - 11`` has exactly ten samples above it, and
    ``(n - 10) / n`` of the samples are at or below it.  Below twenty
    samples that percentile would fall under the median, so the median is
    returned with percentile 50: the sample has no measurable tail.
    """
    n = len(samples)
    if n < 2 * TAIL_MIN_BEYOND:
        return median(samples), 50.0, n
    ordered = sorted(samples)
    return ordered[n - TAIL_MIN_BEYOND - 1], 100.0 * (n - TAIL_MIN_BEYOND) / n, n


def missed_limit(samples: Sequence[float], limit: float) -> List[int]:
    """Indices of the samples that fail a latency limit on the tail.

    The limit applies to the :func:`tail_percentile` of *samples*: when that
    percentile is within the limit no sample fails, and when it is over,
    every sample beyond the limit counts as a failed operation.  A request
    that failed or was refused should be passed as ``math.inf``, so it
    counts as beyond any limit.
    """
    if not samples or tail_percentile(samples)[0] <= limit:
        return []
    return [i for i, sample in enumerate(samples) if sample > limit]


def median(samples: Sequence[float]) -> float:
    """The median (mean of the middle pair for an even count)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("median needs at least one sample")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass
class Tally:
    """Operations attempted, and how each one that did not succeed failed.

    Every operation is recorded exactly once: ``ok``, ``error`` (raised, or
    returned an error row), ``refused`` (the system declined the request),
    ``mismatch`` (it completed with an output that differs from the
    reference) or ``late`` (it missed the latency limit, see
    :func:`missed_limit`).  ``failed_frac`` counts all four failure kinds
    against the operations attempted.
    """

    attempted: int = 0
    errors: int = 0
    refused: int = 0
    mismatched: int = 0
    late: int = 0

    _FIELDS = {"error": "errors", "refused": "refused", "mismatch": "mismatched", "late": "late"}

    def record(self, outcome: str, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"cannot record a negative count ({n})")
        if outcome != "ok" and outcome not in self._FIELDS:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.attempted += n
        if outcome != "ok":
            field = self._FIELDS[outcome]
            setattr(self, field, getattr(self, field) + n)

    @property
    def failed(self) -> int:
        return self.errors + self.refused + self.mismatched + self.late

    @property
    def failed_frac(self) -> float:
        if self.attempted == 0:
            raise ValueError("no operation was attempted")
        return self.failed / self.attempted


class OpenLoop:
    """The schedule of an open-loop generator sending *n* requests at *rate*.

    Request ``i`` is due at ``start + i / rate`` whatever happened to the
    requests before it.  :meth:`sent` records when it actually left, so
    :attr:`late_max` shows how far the generator fell behind; :meth:`done`
    records its completion, and its latency is measured from the due time,
    so a stall also charges the wait it imposes on later requests.
    """

    def __init__(self, rate: float, n: int, start: float):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.n = int(n)
        self.start = float(start)
        self.sent_at: List[Optional[float]] = [None] * self.n
        self.done_at: List[Optional[float]] = [None] * self.n

    def due(self, i: int) -> float:
        return self.start + i / self.rate

    def sent(self, i: int, t: float) -> None:
        self.sent_at[i] = t

    def done(self, i: int, t: float) -> None:
        self.done_at[i] = t

    @property
    def late_max(self) -> float:
        """The largest send delay past a due time, in seconds (0 if on time)."""
        late = [t - self.due(i) for i, t in enumerate(self.sent_at) if t is not None]
        return max([0.0] + late)

    def latencies(self) -> List[float]:
        """Due-to-completion seconds of every completed request."""
        return [t - self.due(i) for i, t in enumerate(self.done_at) if t is not None]


#: Seconds one calibration unit takes at the nominal machine speed: about
#: its median on a 2-vCPU Intel Xeon virtual machine under Python 3.11.
CALIBRATION_NOMINAL_S = 2.5e-3


def calibration_unit() -> int:
    """A fixed piece of pure-Python work that touches nothing of the program."""
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return total


class Speedometer:
    """The machine's speed during a run, from a fixed loop timed between ops.

    On a virtual machine shared with other tenants the same code runs up to
    half again as slow for stretches of milliseconds to seconds, and the
    share of slow time drifts over the hour; CPU time slows the same way,
    so it does not help.  A workload calls :meth:`sample` between its
    operations, which times :func:`calibration_unit` for a while.  Over a
    run, the samples see about the same share of slow time as the
    operations did, so :attr:`factor` — nominal over measured seconds per
    unit — rescales the run's timings to the nominal machine speed:
    multiply a duration by it, divide a rate by it.
    """

    def __init__(
        self,
        unit: Callable[[], object] = calibration_unit,
        nominal_s: float = CALIBRATION_NOMINAL_S,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.unit = unit
        self.nominal_s = float(nominal_s)
        self.clock = clock
        self.units = 0
        self.seconds = 0.0

    def sample(self, seconds: float) -> None:
        """Run the unit until *seconds* have passed, at least once."""
        start = self.clock()
        while True:
            self.unit()
            self.units += 1
            elapsed = self.clock() - start
            if elapsed >= seconds:
                break
        self.seconds += elapsed

    @property
    def unit_s(self) -> float:
        """Mean measured seconds per unit over every sample."""
        if self.units == 0:
            raise ValueError("the speedometer was never sampled")
        return self.seconds / self.units

    @property
    def factor(self) -> float:
        """Nominal seconds per measured second (below 1 on a slow machine)."""
        return self.nominal_s / self.unit_s


class Tracer:
    """Spans and counts recorded around calls into the program's layers.

    :meth:`install` replaces a callable at the name its callers look it up
    by (a module or class attribute, or a registry dict entry) with a
    wrapper that records one span per call; :meth:`uninstall` puts every
    original object back and checks that nothing else replaced it in the
    meantime.  Spans nest through a stack, so a layer's self time is its
    span's duration minus the time its child spans cover.  Everything stays
    in memory until the benchmark writes it out at the end.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent index or -1, tag]`` per span.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._installed: List[tuple] = []
        self.missing: List[str] = []

    # -- recording ------------------------------------------------------- #
    def _open(self, name: str, tag=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, tag])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = self.clock()

    @contextlib.contextmanager
    def region(self, name: str, tag=None):
        """A span around a block of the benchmark's own code."""
        index = self._open(name, tag)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        """*fn* recording a span named *name*.

        ``after(tracer, result, args)``, when given, runs after each call and
        may add counts.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(self, result, args)
            return result

        return traced

    # -- install / uninstall -------------------------------------------- #
    def install(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> bool:
        """Wrap ``owner.attr`` (or ``owner[attr]`` for a dict) in place.

        A class is wrapped only where it defines *attr* itself, so an
        inherited method is wrapped once, at its defining class.  A name
        that does not exist is skipped and listed in :attr:`missing`.
        """
        is_dict = isinstance(owner, dict)
        table = owner if is_dict else vars(owner)
        if attr not in table:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return False
        original = table[attr]
        wrapper = self.wrap(original, name, after)
        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original, wrapper, is_dict))
        return True

    def uninstall(self) -> None:
        """Restore every wrapped object, newest first, and verify it."""
        problems = []
        while self._installed:
            owner, attr, original, wrapper, is_dict = self._installed.pop()
            current = owner[attr] if is_dict else vars(owner).get(attr)
            if current is not wrapper:
                problems.append(f"{attr} was replaced while traced")
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
            restored = owner[attr] if is_dict else vars(owner).get(attr)
            if restored is not original:
                problems.append(f"{attr} could not be restored")
        if problems:
            raise RuntimeError("; ".join(problems))

    # -- analysis -------------------------------------------------------- #
    def self_times(self) -> List[float]:
        """Per span: duration minus the duration of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _tag in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def roots(self) -> List[int]:
        """Per span: the index of its outermost enclosing span."""
        root: List[int] = []
        for index, span in enumerate(self.spans):
            parent = span[3]
            root.append(index if parent < 0 else root[parent])
        return root

    def self_by_region(self, region: str) -> Dict[int, Counter]:
        """Self seconds per span name, grouped by the enclosing *region* span.

        Keys are the indices of the top-level spans named *region*; the
        region's own self time (time no wrapped layer covered) is included
        under its name.
        """
        totals: Dict[int, Counter] = {}
        selfs = self.self_times()
        for index, root in enumerate(self.roots()):
            if self.spans[root][0] != region:
                continue
            totals.setdefault(root, Counter())[self.spans[index][0]] += selfs[index]
        return totals

    def export(self) -> dict:
        """A JSON-ready dump: spans relative to the first span, plus counts."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                [name, start - t0, end - t0, parent, tag]
                for name, start, end, parent, tag in self.spans
            ],
            "counts": dict(self.counts),
            "missing_hooks": list(self.missing),
        }


def peak_rss_mb() -> float:
    """Peak resident set size of this process or any waited-for child, MiB.

    ``ru_maxrss`` is in KiB on Linux.  Children count once they have been
    waited for, which is why every workload joins its workers before the
    result is read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
