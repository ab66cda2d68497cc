"""Replicate streams against numpy's own SeedSequence.

``rng.replicate_rng`` derives PCG64's seed words itself, from cached blocks
of replicate indices; the reference is the stream numpy's ``SeedSequence``
seeds. Warnings are errors here, so no ``uint32`` overflow warning from the
key derivation goes unseen.
"""

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

from immunochain import rng
from immunochain.rng import replicate_rng

pytestmark = pytest.mark.filterwarnings("error")

B = rng._BLOCK
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
INDICES = [0, 1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2**32 - 1, 2**32, 2**64, 2**70 + 5]


def reference(master_seed, replicate_index):
    return Generator(PCG64(SeedSequence(entropy=master_seed, spawn_key=(replicate_index,))))


def same_stream(a, b):
    return (a.bit_generator.state == b.bit_generator.state
            and np.array_equal(a.integers(0, 2**63, 8), b.integers(0, 2**63, 8)))


@pytest.mark.parametrize("master_seed", SEEDS)
@pytest.mark.parametrize("replicate_index", INDICES)
def test_stream_equals_seed_sequence_stream(master_seed, replicate_index):
    assert same_stream(replicate_rng(master_seed, replicate_index),
                       reference(master_seed, replicate_index))


def test_numpy_integer_arguments_give_the_same_stream():
    assert same_stream(replicate_rng(np.uint64(2**64 - 1), np.int64(B + 3)),
                       reference(2**64 - 1, B + 3))
    assert same_stream(rng.as_generator(np.int32(9)), reference(9, 0))


def test_streams_do_not_depend_on_call_order_or_cache_state():
    keys = [(s, r) for s in (3, 2**40 + 7) for r in range(0, 3 * B, 37)]
    forward = [replicate_rng(s, r).random(2) for s, r in keys]
    backward = [replicate_rng(s, r).random(2) for s, r in reversed(keys)][::-1]
    interleaved = [None] * len(keys)
    for i in [*range(0, len(keys), 2), *range(1, len(keys), 2)]:
        interleaved[i] = replicate_rng(*keys[i]).random(2)
    # More distinct seeds than either cache holds evicts every block above.
    for s in range(100, 100 + 2 * rng._seed_pool.cache_info().maxsize):
        replicate_rng(s, 0)
    assert rng._key_block.cache_info().currsize == rng._key_block.cache_info().maxsize
    evicted = [replicate_rng(s, r).random(2) for s, r in keys]
    for got in (backward, interleaved, evicted):
        assert all(np.array_equal(a, b) for a, b in zip(forward, got))


def test_cached_key_blocks_are_read_only():
    block = rng._key_block(11, 0)
    assert block.shape == (B, 4) and block.dtype == np.uint64
    assert not block.flags.writeable
    seed_seq = replicate_rng(11, 5).bit_generator.seed_seq
    words = seed_seq.generate_state(4, np.uint64)
    assert not words.flags.writeable
    with pytest.raises(ValueError):
        words[0] = 0
    assert np.array_equal(words, SeedSequence(entropy=11, spawn_key=(5,)).generate_state(4, np.uint64))
    # Only PCG64's request is precomputed; any other fails loudly.
    with pytest.raises(ValueError):
        seed_seq.generate_state(8, np.uint32)


def test_seed_words_answer_pcg64s_request_however_its_dtype_is_named():
    # PCG64 asks for its words with the type np.uint64; the same request
    # spelt as a dtype gets the same words, and every other one is refused.
    seed_seq = replicate_rng(11, 5).bit_generator.seed_seq
    words = seed_seq.generate_state(4, np.uint64)
    assert np.array_equal(words, seed_seq.generate_state(4, np.dtype("uint64")))
    assert np.array_equal(words, seed_seq.generate_state(4, "uint64"))
    for n_words, dtype in [(4, np.uint32), (4, np.dtype("uint32")), (4, np.int64), (3, np.uint64),
                           (8, np.uint64), (8, np.dtype("uint64"))]:
        with pytest.raises(ValueError, match="only PCG64's four uint64 seed words"):
            seed_seq.generate_state(n_words, dtype)
    with pytest.raises(ValueError, match="only PCG64's four uint64 seed words"):
        seed_seq.generate_state(4)  # SeedSequence's default, uint32


@pytest.mark.parametrize("master_seed, replicate_index, message", [
    (0, -1, "replicate_index must be a nonnegative integer, got -1"),
    (2**64, 0, "master_seed must be a 64-bit unsigned integer, got 18446744073709551616"),
    (-1, 0, "master_seed must be a 64-bit unsigned integer, got -1"),
    (1.0, 0, "master_seed must be a 64-bit unsigned integer, got 1.0"),
    ("1", 0, "master_seed must be a 64-bit unsigned integer, got '1'"),
    (1, 2.0, "replicate_index must be a nonnegative integer, got 2.0"),
])
def test_invalid_arguments_are_refused(master_seed, replicate_index, message):
    with pytest.raises(ValueError) as err:
        replicate_rng(master_seed, replicate_index)
    assert str(err.value) == message
