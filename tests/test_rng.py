import numpy as np
import pytest

from sketchlab.errors import BadParams
from sketchlab.rng import as_generator, children, derive


def test_root_seed_is_read_in_64_bits():
    # every root seed in [0, 2^64) has its own streams; one outside it is
    # refused, not folded onto one inside
    assert derive(2**64 - 1, "x").integers(2**32) != derive(0, "x").integers(2**32)
    for seed in (-1, 2**64, 2**70):
        with pytest.raises(BadParams, match=r"root seed must be in \[0, 2\^64\)"):
            derive(seed, "x")
    with pytest.raises(BadParams):
        as_generator(-1)


def test_every_generator_is_sfc64():
    # derived and fresh-entropy generators share one bit generator family
    assert isinstance(derive(3, "x", 1).bit_generator, np.random.SFC64)
    assert isinstance(as_generator(None).bit_generator, np.random.SFC64)


def test_equal_paths_give_equal_draws():
    a, b = derive(3, "x", 1), derive(3, "x", 1)
    assert np.array_equal(a.standard_normal(64), b.standard_normal(64))
    assert np.array_equal(a.integers(2**62, size=64), b.integers(2**62, size=64))
    assert not np.array_equal(derive(3, "x", 2).standard_normal(64),
                              derive(3, "x", 1).standard_normal(64))


def test_children_take_one_raw_word_each():
    # child i is SFC64 seeded with the caller's i-th next raw word, and the
    # caller moves on by exactly count words
    rng, ref = derive(3, "kids"), derive(3, "kids")
    kids = children(rng, 3)
    for kid, word in zip(kids, ref.bit_generator.random_raw(3)):
        assert isinstance(kid.bit_generator, np.random.SFC64)
        twin = np.random.Generator(np.random.SFC64(np.random.SeedSequence(int(word))))
        assert np.array_equal(kid.standard_normal(8), twin.standard_normal(8))
    assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()
