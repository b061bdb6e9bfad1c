import tracemalloc

import numpy as np
import pytest

from etdac.grid import Field, Mesh2D
from etdac.potentials import FloryHuggins, GinzburgLandau


@pytest.fixture(scope="session")
def gl():
    return GinzburgLandau()


@pytest.fixture(scope="session")
def fh():
    return FloryHuggins()


@pytest.fixture
def mesh8():
    return Mesh2D(2 * np.pi, 2 * np.pi, 8, 8)


@pytest.fixture
def mesh32():
    return Mesh2D(2 * np.pi, 2 * np.pi, 32, 32)


def sinprod(mesh, amplitude=0.5):
    x, y = mesh.cell_centers()
    return Field(mesh, (amplitude * np.sin(x) * np.sin(y)).reshape(mesh.ncells))


def random_field(mesh, seed, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return Field(mesh, rng.uniform(lo, hi, mesh.ncells))


def traced_peak(fn):
    """fn() and the peak bytes traced by tracemalloc while it ran, above
    what was traced before, as numpy reports its arrays to tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
