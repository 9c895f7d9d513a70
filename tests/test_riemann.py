import numpy as np
import pytest

import discflux as dx
from discflux.curves import SampledCurve
from discflux.riemann import _FLAT_TOL


def test_stationary_shock(burgers):
    sol = dx.classical_riemann(burgers.f, 0.25, 0.75)
    assert len(sol.waves) == 1
    w = sol.waves[0]
    assert w.kind == "shock"
    # f(0.25) = f(0.75) so the jump does not move
    assert w.speed_lo == pytest.approx(0.0, abs=1e-12)
    assert sol(-0.1) == pytest.approx(0.25)
    assert sol(0.1) == pytest.approx(0.75)


def test_rarefaction_fan(burgers):
    sol = dx.classical_riemann(burgers.f, 0.75, 0.25)
    assert len(sol.waves) == 1
    w = sol.waves[0]
    assert w.kind == "rarefaction"
    assert w.speed_lo == pytest.approx(-0.5, abs=1e-3)
    assert w.speed_hi == pytest.approx(0.5, abs=1e-3)
    # the fan passes through the sonic state at xi = 0
    assert sol(0.0) == pytest.approx(0.5, abs=1e-3)
    # self-similar monotone profile
    xi = np.linspace(-1, 1, 101)
    prof = sol(xi)
    assert np.all(np.diff(prof) <= 1e-12)


def test_equal_states_constant():
    c = SampledCurve(np.linspace(0, 1, 64), np.zeros(64))
    sol = dx.classical_riemann(c, 0.4, 0.4)
    assert sol.waves == ()
    assert sol(123.0) == pytest.approx(0.4)


def test_convex_flux_cases():
    u = np.linspace(-1, 1, 2001)
    f = SampledCurve(u, 0.5 * u**2)
    up = dx.classical_riemann(f, -0.5, 0.5)
    assert all(w.kind == "rarefaction" for w in up.waves)
    down = dx.classical_riemann(f, 0.5, -0.5)
    assert len(down.waves) == 1 and down.waves[0].kind == "shock"
    assert down.waves[0].speed_lo == pytest.approx(0.0, abs=1e-12)


def test_profile_at_zero_time(burgers):
    sol = dx.classical_riemann(burgers.f, 0.25, 0.75)
    x = np.array([-1.0, -0.001, 0.0, 1.0])
    assert np.allclose(sol.profile(x, 0.0), [0.25, 0.25, 0.75, 0.75])


def test_data_outside_domain_rejected(burgers):
    with pytest.raises(ValueError):
        dx.classical_riemann(burgers.f, -0.5, 0.5)


def test_random_fluxes_satisfy_jump_conditions():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(16, 200))
        u = np.linspace(0, 1, n)
        y = rng.normal(size=n).cumsum()
        y -= np.linspace(y[0], y[-1], n)  # pin both endpoints at zero
        curve = SampledCurve(u, y)
        ul, ur = rng.uniform(0, 1, size=2)
        sol = dx.classical_riemann(curve, ul, ur)
        states = sol.states
        speeds = sol.speeds
        # speeds sorted, states monotone from left to right data value
        assert np.all(np.diff(speeds) >= -1e-10)
        assert states[0] == pytest.approx(ul) and states[-1] == pytest.approx(ur)
        d = np.diff(states)
        assert np.all(d <= 1e-12) or np.all(d >= -1e-12)
        # every jump satisfies the chord (Rankine-Hugoniot) relation
        for k in range(len(speeds)):
            s1, s2 = states[k], states[k + 1]
            if abs(s2 - s1) < 1e-13:
                continue
            chord = (float(curve(s2)) - float(curve(s1))) / (s2 - s1)
            assert chord == pytest.approx(speeds[k], abs=1e-9)


def _chord_distance(curve, s1, s2):
    """Largest distance of the curve's nodes strictly between s1 and s2 from their chord (0 if none)."""
    inside = (curve.x > min(s1, s2)) & (curve.x < max(s1, s2))
    y1, y2 = float(curve(s1)), float(curve(s2))
    chord = y1 + (y2 - y1) / (s2 - s1) * (curve.x[inside] - s1)
    return float(np.max(np.abs(curve.y[inside] - chord), initial=0.0))


def test_wave_kinds_match_their_definition(burgers):
    rng = np.random.default_rng(23)
    for trial in range(150):
        n = int(rng.integers(5, 60))
        u = np.linspace(0, 1, n)
        y = rng.normal(size=n)
        for _ in range(int(rng.integers(0, 4))):  # plateaus
            s = int(rng.integers(0, n - 1))
            y[s:s + int(rng.integers(2, 6))] = y[s]
        curve = SampledCurve(u, y)
        tol = _FLAT_TOL * max(np.abs(y).max(), 1.0)
        ul, ur = rng.choice(u, 2) if trial % 3 == 0 else rng.uniform(0, 1, 2)
        sol = dx.classical_riemann(curve, ul, ur)
        states = sol.states.tolist()
        for w in sol.waves:
            i, j = states.index(w.left), states.index(w.right)
            gaps = [_chord_distance(curve, states[k], states[k + 1]) for k in range(i, j)]
            if w.kind == "rarefaction":
                assert max(gaps) <= tol
            else:
                assert j == i + 1 and gaps[0] > tol
        kinds = [w.kind for w in sol.waves]
        assert ("rarefaction", "rarefaction") not in zip(kinds, kinds[1:])

    fan = dx.classical_riemann(burgers.f, 1.0, 0.0)
    assert [w.kind for w in fan.waves] == ["rarefaction"]
    assert fan.states.size == 4097


def test_steady_connection_state(burgers):
    conn = dx.Connection(0.75, 0.25)
    x = np.array([-1.0, -1e-9, 0.0, 1e-9, 1.0])
    out = dx.steady_connection_state(burgers, conn, x)
    assert np.allclose(out, [0.75, 0.75, 0.75, 0.25, 0.25])
    assert dx.steady_connection_state(burgers, conn, 0.5) == 0.25


def test_wave_validation():
    with pytest.raises(ValueError):
        dx.Wave("sonic", 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        dx.Wave("shock", 0.0, 1.0, 1.0, 0.5)
