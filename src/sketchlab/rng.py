"""Seed management.

All randomness in the package flows from a single 64-bit root seed through a
counter-based splitting scheme: a child stream for purpose ``p`` and counter
``c`` is ``numpy.random.Generator(SFC64(SeedSequence(root, spawn_key=(crc32(p), c))))``.
Identical (root, purpose, counter) triples always yield identical streams.

The bit generator is SFC64, the cheapest of numpy's: ``Generator.standard_normal``
on it costs about a sixth less per value than on PCG64, and the exact
discrete-Gaussian samplers spend most of their time in that call. The law of
every draw is the generator's; only the bits behind a seed depend on the
choice. Fresh-entropy generators (``as_generator(None)``) are SFC64 too.
"""

import zlib

import numpy as np

from .errors import BadParams


def _key(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & 0xFFFFFFFF


def _generator(seed_sequence) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(seed_sequence))


def derive(root_seed: int, *path) -> np.random.Generator:
    """Derive an independent generator for (root_seed, *path).

    ``path`` elements may be strings (hashed with crc32) or integers. A root
    seed outside [0, 2^64) raises BadParams: no two roots share a stream.
    """
    root_seed = int(root_seed)
    if not 0 <= root_seed < 2**64:
        raise BadParams(f"root seed must be in [0, 2^64), got {root_seed}")
    spawn_key = tuple(_key(p) for p in path)
    return _generator(np.random.SeedSequence(root_seed, spawn_key=spawn_key))


def as_generator(rng) -> np.random.Generator:
    """Accept a Generator, a seed, or None (fresh entropy) and return a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return _generator(np.random.SeedSequence())
    return derive(int(rng))
