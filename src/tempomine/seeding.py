"""Named random streams derived from a single pipeline seed.

Every random decision in the pipeline draws from a stream identified by
(seed, purpose name, optional ordinal). Streams are independent, so adding
draws to one stage never perturbs another stage's randomness, and any
per-record decision can be recomputed in isolation from its ordinal alone.
"""

import functools
import hashlib

import numpy as np

__all__ = ["stream_rng", "stream_seed_sequence"]


@functools.lru_cache(maxsize=None)
def _name_words(name: str) -> tuple[int, ...]:
    # Stable 128-bit digest of the stream name, packed into 32-bit words.
    # The package uses a handful of names, so the cache stays small.
    digest = hashlib.sha256(name.encode("utf-8")).digest()[:16]
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def stream_seed_sequence(seed: int, name: str, ordinal: int | None = None) -> "np.random.SeedSequence":
    """Seed material for the stream ``name`` (optionally per ``ordinal``).

    An ordinal must lie in [0, 2**32): it is one 32-bit entropy word, so
    each ordinal names a distinct stream. Anything else raises ValueError.
    """
    words = [seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF, *_name_words(name)]
    if ordinal is not None:
        ordinal = int(ordinal)
        if not 0 <= ordinal < 2**32:
            raise ValueError(f"stream ordinal {ordinal} outside [0, 2**32)")
        words.append(ordinal)
    # A uint32 array is the entropy numpy would build from these words
    # one int at a time, at a fraction of the cost.
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def stream_rng(seed: int, name: str, ordinal: int | None = None) -> "np.random.Generator":
    """A fresh generator for the named stream.

    The same (seed, name, ordinal) triple always yields the same draws,
    regardless of what any other stream has consumed.
    """
    # What default_rng does with a SeedSequence, without its dispatch.
    return np.random.Generator(np.random.PCG64(stream_seed_sequence(seed, name, ordinal)))
