import os
import sys
import tracemalloc

import pytest

sys.path.insert(0, os.path.dirname(__file__))  # make oracles importable

from sketchlab.rng import derive


@pytest.fixture
def rng():
    return derive(12345, "tests")


def seeded(*path):
    return derive(12345, *path)


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args, **kwargs) -> (fn's result, the most bytes that
    the call held at once, over what was allocated before it), as tracemalloc
    sees them; numpy reports its array buffers to tracemalloc."""
    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    return measure
