import numpy as np
import pytest

import discflux as dx
from discflux.curves import lower_convex_envelope, upper_concave_envelope


@pytest.fixture(scope="session")
def burgers():
    return dx.get_flux("burgers-like")


@pytest.fixture(scope="session")
def demo_cross():
    return dx.get_flux("demo-cross")


@pytest.fixture(scope="session")
def demo_swapped():
    return dx.get_flux("demo-swapped")


@pytest.fixture(scope="session")
def demo_connection(burgers):
    conn = dx.Connection(0.75, 0.25)
    return conn, dx.build_connection_transform(burgers, conn)


def monotone_chain(x, y):
    """Reference lower convex envelope: Andrew's monotone-chain scan, one sample at a time.

    A hull vertex is popped while it lies on or above the chord from the one
    before it to the new sample; the whole-array kernel must return these
    vertex arrays bit for bit.
    """
    hx, hy = [], []
    for xi, yi in zip(np.asarray(x, dtype=float).tolist(), np.asarray(y, dtype=float).tolist()):
        while len(hx) >= 2 and (hx[-1] - hx[-2]) * (yi - hy[-1]) - (hy[-1] - hy[-2]) * (xi - hx[-1]) <= 0.0:
            hx.pop()
            hy.pop()
        hx.append(xi)
        hy.append(yi)
    return np.array(hx), np.array(hy)


def concave_chain(x, y):
    """Reference upper concave envelope: the mirror of ``monotone_chain``."""
    hx, hy = monotone_chain(x, -np.asarray(y, dtype=float))
    return hx, -hy


def assert_chain_vertices(x, y):
    """Both envelopes return the reference chains' vertex arrays, bit for bit."""
    for got, want in ((lower_convex_envelope(x, y), monotone_chain(x, y)),
                      (upper_concave_envelope(x, y), concave_chain(x, y))):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def random_step_profile(rng, lo=0.0, hi=1.0, span=2.0):
    """Random piecewise-constant initial data with a handful of jumps."""
    pieces = int(rng.integers(6, 14))
    edges = np.sort(rng.uniform(-span, span, size=pieces - 1))
    vals = rng.uniform(lo, hi, size=pieces)

    def u0(x):
        return vals[np.searchsorted(edges, np.asarray(x))]

    return u0
