import numpy as np
import pytest

import discflux as dx
from discflux.curves import MonotoneBijection, SampledCurve
from discflux.errors import CompositionError


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
    gpos, gval = dx.find_local_maxima(demo_cross.g)[0]
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


def test_lipschitz_estimate(burgers):
    # |f'| = |1 - 2u| <= 1
    assert burgers.lipschitz() == pytest.approx(1.0, abs=1e-3)


def test_compose_flux_is_exact_on_breakpoints(burgers):
    m = MonotoneBijection(np.array([0.0, 0.4, 1.0]), np.array([0.0, 0.7, 1.0]))
    comp = dx.compose_flux(burgers.f, m)
    probe = np.linspace(0, 1, 257)
    direct = np.asarray(burgers.f(m.forward(probe)))
    assert np.max(np.abs(np.asarray(comp(probe)) - direct)) < 1e-14


def test_compose_flux_rejects_range_escape(burgers):
    m = MonotoneBijection(np.array([0.0, 1.0]), np.array([0.0, 1.5]))
    with pytest.raises(CompositionError):
        dx.compose_flux(burgers.f, m)


def test_clip_flux_extends_by_zero(burgers):
    fc = dx.clip_flux(burgers.f)
    assert fc(-0.5) == 0.0
    assert fc(1.5) == 0.0
    assert fc(0.5) == pytest.approx(0.25, abs=1e-15)


def test_local_maxima_single_hump(burgers):
    peaks = dx.find_local_maxima(burgers.f)
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(0.5, abs=1e-3)
    assert peaks[0][1] == pytest.approx(0.25, abs=1e-7)


def test_local_maxima_two_humps_and_rear_selection():
    u = np.linspace(0, 1, 2001)
    y = np.sin(np.pi * u) ** 2 * (1.2 + np.cos(2 * np.pi * u))
    y[0] = y[-1] = 0.0
    curve = SampledCurve(u, y)
    peaks = dx.find_local_maxima(curve)
    assert len(peaks) == 2
    assert peaks[0][0] < 0.5 < peaks[-1][0]


def test_plateau_maximum_reports_midpoint():
    u = np.linspace(0, 1, 1001)
    y = np.minimum(u, np.minimum(0.3, 1 - u))
    curve = SampledCurve(u, y)
    peaks = dx.find_local_maxima(curve)
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(0.5, abs=1e-3)
    assert peaks[0][1] == pytest.approx(0.3, abs=1e-12)


def test_csv_roundtrip(tmp_path, demo_cross):
    path = tmp_path / "pair.csv"
    dx.save_flux_csv(demo_cross, path)
    back = dx.get_flux(str(path))
    probe = np.linspace(0, 1, 513)
    assert np.max(np.abs(np.asarray(back.f(probe)) - np.asarray(demo_cross.f(probe)))) == 0.0
    assert np.max(np.abs(np.asarray(back.g(probe)) - np.asarray(demo_cross.g(probe)))) == 0.0


def test_load_rejects_wrong_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n0,0,0\n1,0,0\n")
    with pytest.raises(Exception):
        dx.load_flux_csv(bad)


def test_get_flux_unknown_name():
    with pytest.raises(Exception):
        dx.get_flux("definitely-not-registered")
