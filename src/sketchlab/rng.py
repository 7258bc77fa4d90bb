"""Seed management.

All randomness in the package flows from a single 64-bit root seed through a
counter-based splitting scheme: a child stream for purpose ``p`` and counter
``c`` is ``numpy.random.Generator(PCG64(SeedSequence(root, spawn_key=(crc32(p), c))))``.
Identical (root, purpose, counter) triples always yield identical streams.
"""

import zlib

import numpy as np

from .errors import BadParams


def _key(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & 0xFFFFFFFF


def derive(root_seed: int, *path) -> np.random.Generator:
    """Derive an independent generator for (root_seed, *path).

    ``path`` elements may be strings (hashed with crc32) or integers. A root
    seed outside [0, 2^64) raises BadParams: no two roots share a stream.
    """
    root_seed = int(root_seed)
    if not 0 <= root_seed < 2**64:
        raise BadParams(f"root seed must be in [0, 2^64), got {root_seed}")
    spawn_key = tuple(_key(p) for p in path)
    ss = np.random.SeedSequence(root_seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss))


def as_generator(rng) -> np.random.Generator:
    """Accept a Generator, a seed, or None (fresh entropy) and return a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng()
    return derive(int(rng))
