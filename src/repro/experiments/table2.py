"""Table 2 — speedups of simulated annealing vs HLF.

For every program (NE, GJ, MM, FFT), every architecture (hypercube-8, bus-8,
ring-9) and both communication settings (without / with communication cost),
the SA scheduler and the HLF list scheduler are simulated under identical
conditions; the table reports the two speedups and the percentage gain, in
the layout of the paper's Table 2.

Measurement protocol (README.md, "Experiments, sweeps, benchmarks"):

* **HLF** places selected tasks arbitrarily (the classical algorithm gives no
  placement rule), so its speedup is reported as the mean over a few seeded
  random placements.
* **SA** is run with the cost weights tuned over a small grid, as the paper
  prescribes ("the weight factors … can be tuned to optimize the allocation
  for the highest speed-up"); the variant with the lowest makespan is
  reported together with its weight.

Every simulation is one sweep row (:mod:`repro.experiments.sweep`): the
programs are the graph families ``NE``, ``GJ``, ``FFT`` and ``MM``, the weight
variants the policies ``SA/wc=0.3``, ``SA`` and ``SA/wc=0.7``, and
:func:`~repro.experiments.sweep.reduce_cells` reduces the rows to cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.supervisor import SupervisorConfig
from repro.experiments.sweep import SA_WEIGHT_GRID, _run_specs, reduce_cells
from repro.utils.tabulate import format_table
from repro.workloads.suite import PAPER_PROGRAMS

__all__ = [
    "Table2Cell",
    "Table2Block",
    "run_table2",
    "format_table2",
    "paper_table2_reference",
    "PAPER_TABLE2",
]


@dataclass(frozen=True)
class Table2Cell:
    """One (architecture, communication setting) measurement for one program."""

    architecture: str
    with_communication: bool
    speedup_sa: float
    speedup_hlf: float
    sa_weight_comm: float = 0.5

    @property
    def gain_percent(self) -> float:
        if self.speedup_hlf <= 0:
            return 0.0
        return 100.0 * (self.speedup_sa - self.speedup_hlf) / self.speedup_hlf


@dataclass
class Table2Block:
    """All measurements for one program (one sub-table of Table 2)."""

    program: str
    cells: List[Table2Cell] = field(default_factory=list)

    def cell(self, architecture: str, with_communication: bool) -> Table2Cell:
        for c in self.cells:
            if c.architecture == architecture and c.with_communication == with_communication:
                return c
        raise KeyError((architecture, with_communication))


#: Paper-reported Table 2 values: program -> architecture ->
#: (SA w/o comm, HLF w/o comm, SA with comm, HLF with comm)
PAPER_TABLE2: Dict[str, Dict[str, tuple]] = {
    "NE": {
        "Hypercube (8p)": (7.20, 6.90, 5.6, 4.9),
        "Bus (8p)": (7.20, 6.90, 6.2, 5.2),
        "Ring (9p)": (8.00, 8.00, 5.5, 3.6),
    },
    "GJ": {
        "Hypercube (8p)": (6.67, 6.67, 4.80, 4.64),
        "Bus (8p)": (6.76, 6.67, 4.93, 4.74),
        "Ring (9p)": (8.25, 8.25, 5.02, 4.77),
    },
    "MM": {
        "Hypercube (8p)": (7.75, 7.75, 6.11, 5.19),
        "Bus (8p)": (7.75, 7.75, 6.34, 5.71),
        "Ring (9p)": (8.38, 8.38, 6.04, 4.96),
    },
    "FFT": {
        "Hypercube (8p)": (7.38, 7.38, 6.23, 4.93),
        "Bus (8p)": (7.48, 7.38, 6.27, 5.58),
        "Ring (9p)": (8.43, 8.43, 5.97, 5.10),
    },
}


def paper_table2_reference(program: str, architecture: str) -> tuple:
    """Return the paper's (SA w/o, HLF w/o, SA with, HLF with) speedups for one cell."""
    return PAPER_TABLE2[program][architecture]


#: Table 2's architectures: display name -> sweep machine key.
_ARCHITECTURES = {"Hypercube (8p)": "hypercube8", "Bus (8p)": "bus8", "Ring (9p)": "ring9"}


def run_table2(
    programs: Optional[List[str]] = None,
    seed: int = 1,
    sa_weights: Sequence[float] = (0.3, 0.5, 0.7),
    hlf_placement_seeds: Sequence[int] = (0, 1, 2, 3),
    fidelity: str = "latency",
    jobs: int = 1,
) -> List[Table2Block]:
    """Regenerate Table 2.

    Parameters
    ----------
    programs:
        Subset of program keys to run (default: all four, i.e. NE GJ FFT MM).
    seed:
        Seed of the SA scheduler (the graphs use seed 0, the calibrated
        instances).
    sa_weights:
        Grid of communication weights ``w_c`` over which SA is tuned for the
        "with communication" columns, each a value of
        :data:`~repro.experiments.sweep.SA_WEIGHT_GRID`; the "without" columns
        use 0.5 (the weights are irrelevant when communication is free).
    hlf_placement_seeds:
        Seeds of the arbitrary HLF placements averaged into the baseline.
    fidelity:
        Simulator fidelity ("latency" or "contention").
    jobs:
        Worker processes over the simulations.  Every simulation carries its
        own seeds, so results are identical for any job count.
    """
    program_keys = programs if programs is not None else list(PAPER_PROGRAMS.keys())
    sa_key = {wc: key for key, wc in SA_WEIGHT_GRID.items()}
    specs = []
    for key in program_keys:
        for machine in _ARCHITECTURES.values():
            for with_comm in (False, True):
                weights = sa_weights if with_comm else (0.5,)
                runs = [(sa_key[wc], seed) for wc in weights]
                runs += [("HLF", s) for s in hlf_placement_seeds]
                specs += [
                    {
                        "policy": policy, "machine": machine, "family": key,
                        "graph_seed": 0, "policy_seed": policy_seed,
                        "with_comm": with_comm, "fidelity": fidelity,
                    }
                    for policy, policy_seed in runs
                ]
    cells = reduce_cells(_run_specs(specs, SupervisorConfig(jobs=jobs))["results"])
    blocks: List[Table2Block] = []
    for key in program_keys:
        block = Table2Block(program=PAPER_PROGRAMS[key].display_name)
        for architecture, machine in _ARCHITECTURES.items():
            for with_comm in (False, True):
                cell = cells[(key, machine, with_comm, fidelity, 0)]
                block.cells.append(
                    Table2Cell(
                        architecture=architecture,
                        with_communication=with_comm,
                        speedup_sa=cell["SA"]["speedup"],
                        speedup_hlf=cell["HLF"]["speedup"],
                        sa_weight_comm=SA_WEIGHT_GRID[cell["SA"]["policy"]],
                    )
                )
        blocks.append(block)
    return blocks


def format_table2(blocks: Optional[List[Table2Block]] = None, **run_kwargs) -> str:
    """Render Table 2 in the paper's layout (one sub-table per program)."""
    blocks = blocks if blocks is not None else run_table2(**run_kwargs)
    sections: List[str] = []
    headers = [
        "Architecture",
        "(Sp)SA w/o",
        "(Sp)HLF w/o",
        "% gain",
        "(Sp)SA with",
        "(Sp)HLF with",
        "% gain",
    ]
    for block in blocks:
        rows = []
        architectures = []
        for cell in block.cells:
            if cell.architecture not in architectures:
                architectures.append(cell.architecture)
        for arch in architectures:
            wo = block.cell(arch, with_communication=False)
            wi = block.cell(arch, with_communication=True)
            rows.append(
                [
                    arch,
                    wo.speedup_sa,
                    wo.speedup_hlf,
                    wo.gain_percent,
                    wi.speedup_sa,
                    wi.speedup_hlf,
                    wi.gain_percent,
                ]
            )
        sections.append(
            format_table(rows, headers=headers, title=f"Table 2 - {block.program}")
        )
    return "\n\n".join(sections)
