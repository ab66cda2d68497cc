"""Seeded random streams for reproducible replication.

One PRNG family is used everywhere: numpy's PCG64. Replicate ``r`` of an
experiment with master seed ``s`` draws from the PCG64 stream that
``numpy.random.SeedSequence(entropy=s, spawn_key=(r,))`` seeds, so results
are a pure function of ``(master_seed, replicate_index)`` and never depend
on the order in which replicates run.

The package does not build that ``SeedSequence`` per replicate. It reads
the master seed's mixed entropy pool from ``SeedSequence(s)`` once per
seed, then computes the spawn-key mixing and the four 64-bit words PCG64
reads, with the same hash, for a block of ``_BLOCK`` consecutive replicate
indices in one vectorised ``uint32`` pass. numpy keeps the
``SeedSequence`` algorithm fixed under its stream-compatibility policy
(NEP 19), and the tests check the streams against numpy's
``SeedSequence`` itself.
"""

from __future__ import annotations

import functools

import numpy as np

# numpy loads ``numpy.random`` on first attribute access; importing it here
# keeps that cost in the package import instead of a run's first replicate.
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

_MAX_SEED = 2**64

# SeedSequence's hash constants (numpy/random/bit_generator.pyx). Chain A
# mixes the entropy into the pool, chain B draws the output words from it.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
# Hash steps spent on the padded master seed: one per pool word, then one
# per ordered pair of distinct pool words.
_SEED_STEPS = _POOL_SIZE * _POOL_SIZE

# Replicate indices per key block. A power of two (at most 2**32), so a
# block never straddles a boundary where an index gains a 32-bit word.
_BLOCK = 256
_OFFSETS = np.arange(_BLOCK, dtype=np.uint32)


def _hash_consts(init: int, mult: int, start: int, n: int) -> tuple[list[int], list[int]]:
    """Steps ``start .. start + n - 1`` of a SeedSequence hash chain.

    Step ``i`` xors a word with ``init * mult**i`` and multiplies it by
    ``init * mult**(i + 1)``, mod 2**32.
    """
    h = [init]
    for _ in range(start + n):
        h.append(h[-1] * mult & _MASK32)
    return h[start:-1], h[start + 1:]


def _hashmix(value, xor, mul):
    # Python ints or uint32 arrays; the mask is a no-op on the arrays.
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


# Output word ``i`` hashes pool word ``i % 4``; replicates run along axis 1.
_OUT_XOR, _OUT_MUL = (np.array(c, dtype=np.uint32)[:, None] for c in _hash_consts(_INIT_B, _MULT_B, 0, 8))


@functools.lru_cache(maxsize=16)
def _seed_pool(master_seed: int) -> tuple[int, ...]:
    """The entropy pool after mixing the master seed, before the spawn key.

    SeedSequence mixes the seed's 32-bit words, padded with zeros to the
    pool size, before any spawn key, so this is the pool of the seed's own
    SeedSequence.
    """
    return tuple(int(w) for w in SeedSequence(master_seed).pool)


# A run walks its replicates in order, so one 8 KB block is in use at a
# time; four cover a few interleaved seeds.
@functools.lru_cache(maxsize=4)
def _key_block(master_seed: int, block: int) -> np.ndarray:
    """PCG64's four seed words for each replicate index of one block.

    Row ``i`` holds ``SeedSequence(entropy=master_seed, spawn_key=(r,))
    .generate_state(4, np.uint64)`` for ``r = block * _BLOCK + i``. The
    array is read-only.
    """
    first = block * _BLOCK
    n_words = max(1, -(-(first + _BLOCK - 1).bit_length() // 32))
    xor, mul = (np.array(c, dtype=np.uint32).reshape(n_words, _POOL_SIZE, 1)
                for c in _hash_consts(_INIT_A, _MULT_A, _SEED_STEPS, _POOL_SIZE * n_words))
    # Pool words along axis 0, the block's replicates along axis 1.
    pool = np.array(_seed_pool(master_seed), dtype=np.uint32)[:, None]
    for k in range(n_words):
        # Only the low word varies within a block; the others are constants.
        word = first >> 32 * k & _MASK32
        if k == 0:
            word = word + _OFFSETS
        pool = _mix(pool, _hashmix(word, xor[k], mul[k]))
    state = _hashmix(np.concatenate([pool, pool]), _OUT_XOR, _OUT_MUL)
    # SeedSequence pairs its 32-bit outputs little-endian into 64-bit words.
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    words.flags.writeable = False
    return words


class _SeedWords(ISeedSequence):
    """A seed sequence that hands PCG64 its four precomputed words."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes the type itself, which is cheaper to compare than np.dtype(dtype).
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's four uint64 seed words are precomputed")
        return self._words


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
    block, row = divmod(int(replicate_index), _BLOCK)
    return Generator(PCG64(_SeedWords(_key_block(int(master_seed), block)[row])))


def as_generator(seed: int | Generator) -> Generator:
    """Accept either a seed or an existing Generator and return a Generator."""
    if isinstance(seed, Generator):
        return seed
    return replicate_rng(seed, 0)
