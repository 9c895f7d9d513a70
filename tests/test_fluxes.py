import numpy as np
import pytest

import discflux as dx
from discflux.curves import MonotoneBijection, SampledCurve
from discflux.errors import CompositionError, DomainError
from discflux.fluxes import (
    TOL_FLAT,
    _flux_table,
    clip_flux,
    compose_flux,
    find_local_maxima,
    load_flux_csv,
    save_flux_csv,
)


def test_registry_contains_demo_pairs():
    names = dx.registry_names()
    for expected in ("burgers-like", "demo-cross", "demo-swapped", "zero"):
        assert expected in names


def test_flux_values_frozen(burgers, demo_cross):
    # quadratic branch f(u) = u(1-u): sample nodes hit these exactly
    assert burgers.f(0.5) == pytest.approx(0.25, abs=1e-15)
    assert burgers.f(0.25) == pytest.approx(0.1875, abs=1e-15)
    assert burgers.f(0.75) == pytest.approx(0.1875, abs=1e-15)
    # skewed branch g(u) = 2u(1-u)^2 peaks at u = 1/3 with value 8/27
    gpos, gval = find_local_maxima(demo_cross.g)[0]
    assert gpos == pytest.approx(1 / 3, abs=1e-3)
    assert gval == pytest.approx(8 / 27, abs=1e-7)


def test_flux_pair_requires_vanishing_endpoints():
    u = np.linspace(0, 1, 101)
    with pytest.raises(ValueError):
        dx.FluxPair.from_arrays(u, u * (1 - u) + 0.01, u * (1 - u))


def test_flux_pair_requires_common_interval():
    u1 = np.linspace(0, 1, 11)
    u2 = np.linspace(0, 2, 11)
    f = SampledCurve(u1, u1 * (1 - u1))
    g = SampledCurve(u2, u2 * (2 - u2) * 0)
    with pytest.raises(ValueError):
        dx.FluxPair(f, g)


def test_flux_pair_rejects_an_empty_interval_and_unknown_branch(burgers):
    for a, b in ((0.0, 0.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="need a < b"):
            dx.FluxPair.from_callables(np.zeros_like, np.zeros_like, a, b)
    with pytest.raises(ValueError, match="unknown branch 'h'"):
        burgers.branch("h")


def _increasing_nodes(rng, lo, hi, n):
    """n strictly increasing nodes from lo to hi with gaps within a factor 5."""
    steps = np.cumsum(rng.uniform(0.2, 1.0, size=n - 1))
    nodes = lo + (hi - lo) * np.concatenate(([0.0], steps / steps[-1]))
    nodes[-1] = hi
    return nodes


def _random_composition_cases(rng, count):
    """(branch, bijection) pairs whose bijection range stays in the branch's nodes.

    Random branches vanish at both ends of a random [a, b].  Each comes once
    with a random increasing bijection onto part of [a, b], and once clipped
    with a translation whose range reaches up to one width outside [a, b],
    the two extreme translations included.
    """
    cases = []
    for k in range(count):
        a = rng.uniform(-1.0, 1.0)
        width = rng.uniform(0.5, 2.0)
        b = a + width
        x = _increasing_nodes(rng, a, b, int(rng.integers(3, 40)))
        y = rng.uniform(-0.5, 1.0, size=x.size)
        y[0] = y[-1] = 0.0
        branch = SampledCurve(x, y)

        lo = rng.uniform(-2.0, 2.0)
        hi = lo + rng.uniform(0.1, 3.0)
        r0, r1 = np.sort(rng.uniform(a, b, size=2))
        n = int(rng.integers(2, 15))
        m = MonotoneBijection(_increasing_nodes(rng, lo, hi, n), _increasing_nodes(rng, r0, r1, n))
        cases.append((branch, m))

        clipped = clip_flux(branch)
        if k == 0:
            shifts = [(-width, a, b), (width, a, b)]
        else:
            r0 = rng.uniform(a - width, b)
            shift = rng.uniform(-width, width)
            shifts = [(shift, r0 - shift, rng.uniform(r0, b + width) - shift)]
        cases.extend((clipped, MonotoneBijection.translation(*s)) for s in shifts)
    return cases


def test_compose_flux_is_exact_on_breakpoints(burgers):
    rng = np.random.default_rng(20)
    kinked = MonotoneBijection(np.array([0.0, 0.4, 1.0]), np.array([0.0, 0.7, 1.0]))
    for branch, m in [(burgers.f, kinked), *_random_composition_cases(rng, 60)]:
        comp = compose_flux(branch, m)
        assert comp.domain == m.domain
        lo, hi = m.domain
        probe = np.concatenate((np.linspace(lo, hi, 257), rng.uniform(lo, hi, size=500)))
        direct = np.asarray(branch(m.forward(probe)))
        assert np.max(np.abs(np.asarray(comp(probe)) - direct)) < 1e-12


def test_compose_flux_rejects_range_escape(burgers):
    m = MonotoneBijection(np.array([0.0, 1.0]), np.array([0.0, 1.5]))
    with pytest.raises(CompositionError):
        compose_flux(burgers.f, m)


def test_clip_flux_extends_by_zero(burgers):
    fc = clip_flux(burgers.f)
    assert fc(-0.5) == 0.0
    assert fc(1.5) == 0.0
    assert fc(0.5) == pytest.approx(0.25, abs=1e-15)
    # the extension is data: one interval width of zeros on each side, no further
    assert fc.domain == (-1.0, 2.0)
    assert np.array_equal(fc.x[1:-1], burgers.f.x) and np.array_equal(fc.y[1:-1], burgers.f.y)
    with pytest.raises(DomainError):
        fc(2.5)


def test_compose_flux_rejects_range_escaping_clipped_branch(burgers):
    m = MonotoneBijection.translation(1.25, 0.0, 1.0)
    with pytest.raises(CompositionError):
        compose_flux(clip_flux(burgers.f), m)


def test_local_maxima_single_hump(burgers):
    peaks = find_local_maxima(burgers.f)
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(0.5, abs=1e-3)
    assert peaks[0][1] == pytest.approx(0.25, abs=1e-7)


def test_local_maxima_two_humps_and_rear_selection():
    u = np.linspace(0, 1, 2001)
    y = np.sin(np.pi * u) ** 2 * (1.2 + np.cos(2 * np.pi * u))
    y[0] = y[-1] = 0.0
    curve = SampledCurve(u, y)
    peaks = find_local_maxima(curve)
    assert len(peaks) == 2
    assert peaks[0][0] < 0.5 < peaks[-1][0]


def test_plateau_maximum_reports_midpoint():
    u = np.linspace(0, 1, 1001)
    y = np.minimum(u, np.minimum(0.3, 1 - u))
    curve = SampledCurve(u, y)
    peaks = find_local_maxima(curve)
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(0.5, abs=1e-3)
    assert peaks[0][1] == pytest.approx(0.3, abs=1e-12)


def _with_middle_step(step):
    """Unit-spaced samples rising to 0 at node 4, then ``step`` at node 5, then falling.

    Both peak values are exact, so the step between them is ``step`` to the bit.
    """
    y = np.array([-0.4, -0.3, -0.2, -0.1, 0.0, step, -0.1, -0.2, -0.3, -0.4])
    return SampledCurve(np.arange(y.size, dtype=float), y)


def test_local_maxima_dead_band_edge():
    # a step of exactly TOL_FLAT joins the plateau, twice that starts a new run
    assert find_local_maxima(_with_middle_step(TOL_FLAT)) == [(4.5, TOL_FLAT)]
    assert find_local_maxima(_with_middle_step(2 * TOL_FLAT)) == [(5.0, 2 * TOL_FLAT)]


@pytest.mark.parametrize("y", [
    np.zeros(9),                                   # one run
    np.linspace(0.0, 1.0, 9),                      # every step a break, but rising
    np.concatenate((np.zeros(5), np.ones(4))),     # two runs
], ids=["flat", "rising", "two-runs"])
def test_local_maxima_need_an_interior_run_above_both_neighbours(y):
    assert find_local_maxima(SampledCurve(np.linspace(0, 1, y.size), y)) == []


def test_csv_roundtrip(tmp_path, demo_cross):
    path = tmp_path / "pair.csv"
    save_flux_csv(demo_cross, path)
    back = dx.get_flux(str(path))
    probe = np.linspace(0, 1, 513)
    assert np.max(np.abs(np.asarray(back.f(probe)) - np.asarray(demo_cross.f(probe)))) == 0.0
    assert np.max(np.abs(np.asarray(back.g(probe)) - np.asarray(demo_cross.g(probe)))) == 0.0


def test_flux_table_is_the_exact_union_of_both_lattices(tmp_path):
    # a run's flux table and its hash hold np.union1d's lattice: exact duplicates
    # go, but nodes closer than merge_close's tolerance both stay
    u = np.linspace(0.0, 1.0, 9)
    v = np.sort(np.append(u, 0.5 + 1e-14))
    flux = dx.FluxPair(SampledCurve(u, u * (1.0 - u)), SampledCurve(v, v * (1.0 - v)))
    table = _flux_table(flux)
    assert np.array_equal(table[:, 0], np.union1d(u, v))
    path = tmp_path / "pair.csv"
    save_flux_csv(flux, path)
    back = load_flux_csv(path)
    assert np.array_equal(back.g.x, v) and np.array_equal(back.g.y, flux.g(v))


def test_load_rejects_wrong_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n0,0,0\n1,0,0\n")
    with pytest.raises(Exception):
        load_flux_csv(bad)


def test_get_flux_unknown_name():
    with pytest.raises(Exception):
        dx.get_flux("definitely-not-registered")
