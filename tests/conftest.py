"""Shared fixtures for the test suite.

Golden-trace workflow: fixtures under ``tests/golden/`` pin fixed-seed
simulation fingerprints (see ``SimulationResult.fingerprint``) and the
generated graphs themselves (``graphs.json``).  Run

    python -m pytest tests/test_golden_trace.py --regen-golden

after an *intentional* behaviour change to rewrite them; without the flag the
golden tests fail on any bit-level drift.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.comm.model import LinearCommModel, ZeroCommModel
from repro.machine.machine import Machine
from repro.machine.params import CommParams
from repro.taskgraph.graph import TaskGraph

GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="regenerate the golden-trace fixtures under tests/golden/ instead of diffing",
    )


class GoldenStore:
    """Load / compare / regenerate one golden JSON fixture file."""

    def __init__(self, path: Path, regen: bool) -> None:
        self.path = path
        self.regen = regen
        self._data = None
        self._dirty = False

    def _load(self) -> dict:
        if self._data is None:
            if self.path.exists():
                with open(self.path) as fh:
                    self._data = json.load(fh)
            else:
                self._data = {}
        return self._data

    def check(self, key: str, fingerprint: dict) -> None:
        """Diff *fingerprint* against the stored entry (or record it with --regen-golden)."""
        data = self._load()
        if self.regen:
            data[key] = fingerprint
            self._dirty = True
            return
        if key not in data:
            pytest.fail(
                f"golden fixture {self.path.name} has no entry {key!r}; "
                f"run: python -m pytest {Path(__file__).parent.name}/test_golden_trace.py --regen-golden"
            )
        stored = data[key]
        if stored != fingerprint:
            diffs = []
            for field in sorted((set(stored) | set(fingerprint)) - {"tasks"}):
                if stored.get(field) != fingerprint.get(field):
                    diffs.append(f"{field}: golden={stored.get(field)!r} got={fingerprint.get(field)!r}")
            gold_tasks, got_tasks = stored.get("tasks", {}), fingerprint.get("tasks", {})
            changed = [
                t for t in sorted(set(gold_tasks) | set(got_tasks))
                if gold_tasks.get(t) != got_tasks.get(t)
            ]
            if changed:
                sample = ", ".join(
                    f"{t}: golden={gold_tasks.get(t)} got={got_tasks.get(t)}" for t in changed[:3]
                )
                diffs.append(f"{len(changed)} task record(s) drifted ({sample}, ...)")
            pytest.fail(
                f"golden trace drift in {self.path.name}[{key!r}]:\n  " + "\n  ".join(diffs)
            )

    def flush(self) -> None:
        if self._dirty:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "w") as fh:
                json.dump(self._data, fh, indent=1, sort_keys=True)
                fh.write("\n")
            self._dirty = False


@pytest.fixture(scope="session")
def golden_regen(request) -> bool:
    return bool(request.config.getoption("--regen-golden"))


@pytest.fixture(scope="session")
def golden_table2(golden_regen) -> GoldenStore:
    """Golden fingerprints for the 24 Table-2 cells."""
    store = GoldenStore(GOLDEN_DIR / "table2_cells.json", golden_regen)
    yield store
    store.flush()


@pytest.fixture(scope="session")
def golden_random(golden_regen) -> GoldenStore:
    """Golden fingerprints for the random-graph scenarios."""
    store = GoldenStore(GOLDEN_DIR / "random_graphs.json", golden_regen)
    yield store
    store.flush()


@pytest.fixture(scope="session")
def golden_contention(golden_regen) -> GoldenStore:
    """Golden fingerprints for the Table-2 cells under contention fidelity."""
    store = GoldenStore(GOLDEN_DIR / "contention_cells.json", golden_regen)
    yield store
    store.flush()


@pytest.fixture(scope="session")
def golden_families(golden_regen) -> GoldenStore:
    """Golden fingerprints for the workload-zoo family cells."""
    store = GoldenStore(GOLDEN_DIR / "families.json", golden_regen)
    yield store
    store.flush()


@pytest.fixture(scope="session")
def golden_lanes(golden_regen) -> GoldenStore:
    """Golden fingerprints and work counts of SA replica and portfolio runs."""
    store = GoldenStore(GOLDEN_DIR / "lanes.json", golden_regen)
    yield store
    store.flush()


@pytest.fixture(scope="session")
def golden_graphs(golden_regen) -> GoldenStore:
    """Golden digests of generated task graphs (every task, edge and weight)."""
    store = GoldenStore(GOLDEN_DIR / "graphs.json", golden_regen)
    yield store
    store.flush()


@pytest.fixture
def lock_step(monkeypatch) -> list:
    """Step every kernel lane of a latency ``run_lanes`` call, and count them.

    ``run_lanes`` runs a kernel group below ``LOCK_STEP_MIN_LANES`` lanes
    solo, so a small test call would compare solo runs with solo runs.  This
    lowers the cut to one lane and returns a list that gains the lane count
    of every ``_run_lock_step`` call.
    """
    import repro.sim.batch_engine as batch_engine

    calls: list = []
    real = batch_engine._run_lock_step

    def spy(lanes):
        calls.append(len(lanes))
        return real(lanes)

    monkeypatch.setattr(batch_engine, "LOCK_STEP_MIN_LANES", 1)
    monkeypatch.setattr(batch_engine, "_run_lock_step", spy)
    return calls


@pytest.fixture
def diamond_graph() -> TaskGraph:
    """A 4-task diamond: a -> {b, c} -> d, with communication weights."""
    g = TaskGraph("diamond")
    g.add_task("a", 2.0)
    g.add_task("b", 3.0)
    g.add_task("c", 1.0)
    g.add_task("d", 2.0)
    g.add_dependency("a", "b", comm=1.0)
    g.add_dependency("a", "c", comm=1.0)
    g.add_dependency("b", "d", comm=0.5)
    g.add_dependency("c", "d", comm=0.5)
    return g


@pytest.fixture
def chain_graph() -> TaskGraph:
    """A 5-task chain with unit durations and unit communication."""
    g = TaskGraph("chain5")
    for i in range(5):
        g.add_task(i, 1.0)
    for i in range(4):
        g.add_dependency(i, i + 1, comm=1.0)
    return g


@pytest.fixture
def wide_graph() -> TaskGraph:
    """One root fanning out to 6 independent tasks joined by a sink."""
    g = TaskGraph("wide")
    g.add_task("root", 1.0)
    g.add_task("sink", 1.0)
    for i in range(6):
        g.add_task(f"w{i}", 4.0)
        g.add_dependency("root", f"w{i}", comm=2.0)
        g.add_dependency(f"w{i}", "sink", comm=2.0)
    return g


@pytest.fixture
def hypercube8() -> Machine:
    return Machine.hypercube(3)


@pytest.fixture
def ring9() -> Machine:
    return Machine.ring(9)


@pytest.fixture
def bus8() -> Machine:
    return Machine.bus(8)


@pytest.fixture
def two_proc_machine() -> Machine:
    return Machine.fully_connected(2)


@pytest.fixture
def paper_params() -> CommParams:
    return CommParams.paper_defaults()


@pytest.fixture
def linear_comm() -> LinearCommModel:
    return LinearCommModel()


@pytest.fixture
def zero_comm() -> ZeroCommModel:
    return ZeroCommModel()
