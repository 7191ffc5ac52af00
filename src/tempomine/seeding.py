"""Named random streams derived from a single pipeline seed.

Every random decision in the pipeline draws from a stream identified by
(seed, purpose name, optional ordinal). Streams are independent, so adding
draws to one stage never perturbs another stage's randomness, and any
per-record decision can be recomputed in isolation from its ordinal alone.
"""

import hashlib

import numpy as np

__all__ = ["stream_rng", "stream_seed_sequence"]


def _name_words(name: str) -> list[int]:
    # Stable 128-bit digest of the stream name, packed into 32-bit words.
    digest = hashlib.sha256(name.encode("utf-8")).digest()[:16]
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def stream_seed_sequence(seed: int, name: str, ordinal: int | None = None) -> np.random.SeedSequence:
    """Seed material for the stream ``name`` (optionally per ``ordinal``)."""
    entropy = [seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF] + _name_words(name)
    if ordinal is not None:
        entropy.append(int(ordinal))
    return np.random.SeedSequence(entropy)


def stream_rng(seed: int, name: str, ordinal: int | None = None) -> np.random.Generator:
    """A fresh generator for the named stream.

    The same (seed, name, ordinal) triple always yields the same draws,
    regardless of what any other stream has consumed.
    """
    return np.random.default_rng(stream_seed_sequence(seed, name, ordinal))
