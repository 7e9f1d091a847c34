"""Random-number-generator helpers.

Every stochastic component of the library accepts a ``seed`` argument that may
be ``None``, an integer, or an existing :class:`numpy.random.Generator`.  The
helpers here normalize those three cases so that experiments are reproducible
when a seed is given and independent when it is not.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["as_rng", "spawn_rng", "split", "SeedLike"]

SeedLike = Union[None, int, np.random.Generator]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Parameters
    ----------
    seed:
        ``None`` for a nondeterministic generator, an ``int`` for a
        deterministic one, or an existing generator which is returned
        unchanged (so that callers can thread a single stream through
        several components).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, n: int = 1) -> list[np.random.Generator]:
    """Derive *n* statistically independent child generators from *rng*.

    The children are produced by drawing fresh 63-bit seeds from the parent,
    which keeps the parent stream usable afterwards while giving each child a
    deterministic, independent stream.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    seeds = rng.integers(0, 2**63 - 1, size=n)
    return [np.random.default_rng(int(s)) for s in seeds]


def split(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split *rng* into *n* independent child generators.

    The canonical entry point for multi-replica work (e.g. the batched
    annealing engine gives each replica one child): one ``integers`` draw of
    *n* fresh 63-bit seeds from the parent, one deterministic child stream
    per seed.  Identical to :func:`spawn_rng`; the name matches the
    replica-oriented call sites.
    """
    return spawn_rng(rng, n)
