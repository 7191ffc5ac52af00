"""Named random streams derived from a single pipeline seed.

Every random decision in the pipeline draws from a stream identified by
(seed, purpose name, optional ordinal). Streams are independent, so adding
draws to one stage never perturbs another stage's randomness, and any
per-record decision can be recomputed in isolation from its ordinal alone.

A stream is the generator NumPy builds as
``Generator(PCG64(stream_seed_sequence(seed, name, ordinal)))``, draw for
draw. ``stream_rng`` reaches the same PCG64 state without a SeedSequence
object per stream: it runs SeedSequence's hash for a block of 1,024
ordinals at once, as uint32 array operations, and keeps the resulting
state words of the last 64 blocks. A returned generator's
``bit_generator.seed_seq`` is therefore a holder of those words, not a
``SeedSequence``.
"""

import functools
import hashlib
import operator

import numpy as np

__all__ = ["stream_rng", "stream_seed_sequence"]

# Ordinals per block of cached state words.
_BLOCK = 1024

# SeedSequence's constants (numpy/random/bit_generator.pyx): a pool of
# four 32-bit words, the hashmix and mix multipliers, and the xorshift.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


@functools.lru_cache(maxsize=None)
def _name_words(name: str) -> tuple[int, ...]:
    # Stable 128-bit digest of the stream name, packed into 32-bit words.
    # The package uses a handful of names, so the cache stays small.
    digest = hashlib.sha256(name.encode("utf-8")).digest()[:16]
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def _entropy_words(seed: int, name: str) -> list[int]:
    # The stream's entropy words before its ordinal.
    return [seed & _MASK32, seed >> 32, *_name_words(name)]


def _checked_seed(seed) -> int:
    # An int, so that no float or other equal key reaches the block cache.
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"stream seed {seed} outside [0, 2**64)")
    return seed


def _checked_ordinal(ordinal) -> int:
    # An int, as for seeds: a float or a string names no ordinal.
    ordinal = operator.index(ordinal)
    if not 0 <= ordinal < 2**32:
        raise ValueError(f"stream ordinal {ordinal} outside [0, 2**32)")
    return ordinal


def stream_seed_sequence(seed: int, name: str, ordinal: int | None = None) -> "np.random.SeedSequence":
    """Seed material for the stream ``name`` (optionally per ``ordinal``).

    The seed must lie in [0, 2**64), two 32-bit entropy words, and an
    ordinal in [0, 2**32), one word, so each seed and each ordinal names
    a distinct stream. An integer outside its range raises ValueError;
    anything that is not an integer (a float, a string) raises TypeError.
    """
    words = _entropy_words(_checked_seed(seed), name)
    if ordinal is not None:
        words.append(_checked_ordinal(ordinal))
    # A uint32 array is the entropy numpy would build from these words
    # one int at a time, at a fraction of the cost.
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def _pcg64_state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of
    the (n, k) uint32 ``entropy``, k >= 4, as one (n, 4) uint64 array.

    The same hash as NumPy's, one column of words at a time: uint32
    arithmetic on arrays wraps as the C code does, and the hash constants
    evolve alike for every row.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        return value

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        result ^= result >> _XSHIFT
        return result

    # mix_entropy: fill the pool, mix every pool word into every other,
    # then mix each remaining entropy word into every pool word.
    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, entropy.shape[1]):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    # generate_state(4, np.uint64): eight uint32 words cycling over the
    # pool, read as little-endian pairs.
    hash_const = _INIT_B
    state = np.empty((entropy.shape[0], 2 * _POOL_SIZE), dtype=np.uint32)
    for i_dst in range(2 * _POOL_SIZE):
        value = pool[i_dst % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        state[:, i_dst] = value
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


@functools.lru_cache(maxsize=64)
def _block_state_words(seed: int, name: str, block: int | None) -> np.ndarray:
    """Read-only PCG64 state words, one row per ordinal of ``block``
    (ordinals block * 1024 onwards), or one row for the stream without an
    ordinal when ``block`` is None."""
    words = _entropy_words(seed, name)
    if block is None:
        entropy = np.array([words], dtype=np.uint32)
    else:
        entropy = np.empty((_BLOCK, len(words) + 1), dtype=np.uint32)
        entropy[:, :-1] = words
        entropy[:, -1] = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.int64)
    state = _pcg64_state_words(entropy)
    state.flags.writeable = False  # every caller of one block shares it
    return state


@functools.cache
def _state_words_class() -> type:
    # Built on first use: subclassing ISeedSequence imports numpy.random,
    # which NumPy otherwise loads only when it is first touched.
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """Seed material whose PCG64 state words are already computed."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("precomputed state holds only PCG64's four uint64 words")
            return self.words

    return StateWords


def stream_rng(seed: int, name: str, ordinal: int | None = None) -> "np.random.Generator":
    """A fresh generator for the named stream.

    The same (seed, name, ordinal) triple always yields the same draws,
    regardless of what any other stream has consumed: those of
    ``Generator(PCG64(stream_seed_sequence(seed, name, ordinal)))``.
    """
    seed = _checked_seed(seed)
    if ordinal is None:
        words = _block_state_words(seed, name, None)[0]
    else:
        block, row = divmod(_checked_ordinal(ordinal), _BLOCK)
        words = _block_state_words(seed, name, block)[row]
    return np.random.Generator(np.random.PCG64(_state_words_class()(words)))
