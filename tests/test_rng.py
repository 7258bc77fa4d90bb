import pytest

from sketchlab.errors import BadParams
from sketchlab.rng import as_generator, derive


def test_root_seed_is_read_in_64_bits():
    # every root seed in [0, 2^64) has its own streams; one outside it is
    # refused, not folded onto one inside
    assert derive(2**64 - 1, "x").integers(2**32) != derive(0, "x").integers(2**32)
    for seed in (-1, 2**64, 2**70):
        with pytest.raises(BadParams, match=r"root seed must be in \[0, 2\^64\)"):
            derive(seed, "x")
    with pytest.raises(BadParams):
        as_generator(-1)
