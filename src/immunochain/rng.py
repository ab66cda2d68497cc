"""Seeded random streams for reproducible replication.

One PRNG family is used everywhere: numpy's PCG64, keyed through
``SeedSequence``. Replicate ``r`` of an experiment with master seed ``s``
always draws from ``SeedSequence(entropy=s, spawn_key=(r,))``, so results
are a pure function of ``(master_seed, replicate_index)`` and never depend
on the order in which replicates run.
"""

from __future__ import annotations

import numpy as np

# numpy loads ``numpy.random`` on first attribute access; importing it here
# keeps that cost in the package import instead of a run's first replicate.
from numpy.random import PCG64, Generator, SeedSequence

_MAX_SEED = 2**64


def replicate_rng(master_seed: int, replicate_index: int = 0) -> Generator:
    """Return the PCG64 stream for one replicate of an experiment.

    Parameters
    ----------
    master_seed : int
        Experiment-level seed, a 64-bit unsigned integer.
    replicate_index : int
        Nonnegative replicate number; distinct indices give streams that
        are independent for all practical purposes.
    """
    if not isinstance(master_seed, (int, np.integer)) or not 0 <= master_seed < _MAX_SEED:
        raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed!r}")
    if not isinstance(replicate_index, (int, np.integer)) or replicate_index < 0:
        raise ValueError(f"replicate_index must be a nonnegative integer, got {replicate_index!r}")
    ss = SeedSequence(entropy=int(master_seed), spawn_key=(int(replicate_index),))
    return Generator(PCG64(ss))


def as_generator(seed: int | Generator) -> Generator:
    """Accept either a seed or an existing Generator and return a Generator."""
    if isinstance(seed, Generator):
        return seed
    return replicate_rng(seed, 0)

