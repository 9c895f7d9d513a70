import gc
import warnings
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

import discflux as dx
import discflux.diagnostics as diagnostics
from discflux.diagnostics import SIGN_BAND, _hat_columns, _hat_integrals
from discflux.errors import CoverageError

from conftest import random_step_profile


def _frozen_field(burgers, u_profile, times=None, cells=256):
    """Wrap a hand-made space-time table as a stored solution field."""
    cfg = dx.SolverConfig(cells=cells, t_end=0.5)
    x = cfg.centers()
    times = np.linspace(0.0, 0.5, 33) if times is None else times
    u = np.tile(np.asarray(u_profile(x), dtype=float), (len(times), 1))
    return dx.SolutionField(
        config=cfg, times=times, v=u.copy(), u=u,
        mass=np.zeros(len(times)), boundary_flux=np.zeros((len(times), 2)),
        dt=float(times[1] - times[0]),
        flux=burgers, transform=dx.identity_transform(burgers),
    )


def test_sgn_dead_band():
    # u - c = d on the cells under one x-hat's rising edge, c elsewhere: the
    # field is constant in time, so the time term is rounding and the space
    # term is sgn(d) (g(c + d) - g(c)) times the sums of Tint and of dX there;
    # sgn is 0 within +-SIGN_BAND of zero
    u = np.linspace(-10.0, 10.0, 21)
    g = dx.SampledCurve(u, (10.0 - u) * (10.0 + u) / 10.0)
    c = 3.0
    hat = dx.SpaceTimeHat(dx.HatFunction(0.25, 0.2), dx.HatFunction(-0.5, 0.45))
    for d, sign in ((5.0, 1.0), (-5.0, -1.0), (1e-13, 0.0)):
        field = _frozen_field(dx.FluxPair(g, g), lambda x: np.where((x > -1.0) & (x <= -0.5), c + d, c))
        rep = dx.entropy_residual_side(field, c, "left", tests=[hat])
        faces = field.config.faces()
        dX = hat.x(faces[1:]) - hat.x(faces[:-1])
        T_sum = np.sum(hat.t.antiderivative(field.times[1:]) - hat.t.antiderivative(field.times[:-1]))
        expected = -sign * float(g(c + d) - g(c)) * T_sum * np.sum(dX[field.u[0] != c])
        assert rep.worst == pytest.approx(expected, rel=1e-12, abs=1e-24), d


def test_hat_function_closed_forms():
    hat = dx.HatFunction(0.5, 0.25)
    assert hat(0.5) == 1.0
    assert hat(0.25) == 0.0 and hat(0.75) == 0.0
    # antiderivative against a fine trapezoid rule
    x = np.linspace(0.0, 1.0, 20001)
    num = np.concatenate(([0.0], np.cumsum(0.5 * (hat(x)[1:] + hat(x)[:-1]) * np.diff(x))))
    ana = hat.antiderivative(x) - hat.antiderivative(x[0])
    assert np.max(np.abs(num - ana)) < 1e-8
    with pytest.raises(ValueError):
        dx.HatFunction(0.0, 0.0)
    for center, radius in ((0.15, np.nan), (np.nan, 0.1), (np.inf, 0.1), (0.0, np.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            dx.HatFunction(center, radius)


def test_default_family_layout(burgers):
    field = _frozen_field(burgers, lambda x: np.full(np.shape(x), 0.5))
    hats = dx.default_test_functions(field, count=12)
    assert len(hats) == 12
    pinned = [h for h in hats if h.x.center == 0.0]
    assert len(pinned) >= 6
    for h in hats:
        lo, hi = h.x.support
        assert lo >= field.x[0] - field.dx and hi <= field.x[-1] + field.dx
        tlo, thi = h.t.support
        assert tlo >= field.times[0] and thi <= field.times[-1]
    lefts = dx.default_test_functions(field, count=6, side="left")
    assert all(h.x.support[1] <= 0.0 for h in lefts)
    rights = dx.default_test_functions(field, count=6, side="right")
    assert all(h.x.support[0] >= 0.0 for h in rights)


def test_support_escape_detected(burgers):
    field = _frozen_field(burgers, lambda x: np.full(np.shape(x), 0.5))
    wide = dx.SpaceTimeHat(dx.HatFunction(0.25, 0.1), dx.HatFunction(0.0, 5.0))
    with pytest.raises(CoverageError):
        dx.entropy_residual_pair(field, 0.5, tests=[wide])
    late = dx.SpaceTimeHat(dx.HatFunction(0.6, 0.1), dx.HatFunction(0.0, 0.5))
    with pytest.raises(CoverageError):
        dx.entropy_residual_pair(field, 0.5, tests=[late])
    inside = dx.SpaceTimeHat(dx.HatFunction(0.25, 0.1), dx.HatFunction(0.0, 0.5))
    with pytest.raises(CoverageError):
        dx.entropy_residual_pair(field, 0.5, tests=[inside, wide])


def test_side_restriction_enforced(burgers):
    field = _frozen_field(burgers, lambda x: np.full(np.shape(x), 0.5))
    spanning = dx.SpaceTimeHat(dx.HatFunction(0.25, 0.1), dx.HatFunction(0.0, 0.5))
    with pytest.raises(CoverageError):
        dx.entropy_residual_side(field, 0.4, "left", tests=[spanning])


def test_default_family_needs_a_time_span_and_a_known_side(burgers):
    field = _frozen_field(burgers, lambda x: np.full(np.shape(x), 0.5))
    with pytest.raises(ValueError, match="unknown side 'up'"):
        dx.default_test_functions(field, side="up")
    with pytest.raises(ValueError, match="unknown side 'up'"):
        dx.entropy_residual_side(field, 0.4, "up")
    flat = _frozen_field(burgers, lambda x: np.full(np.shape(x), 0.5), times=np.zeros(2))
    with pytest.raises(CoverageError, match="positive time interval"):
        dx.default_test_functions(flat)


def test_constant_field_residuals_vanish(burgers):
    field = _frozen_field(burgers, lambda x: np.full(np.shape(x), 0.6))
    rep = dx.entropy_residual_side(field, 0.3, "left")
    assert abs(rep.worst) < 1e-15
    rep = dx.entropy_residual_side(field, 0.8, "right")
    assert abs(rep.worst) < 1e-15
    # interface family: the allowance term makes residuals non-positive
    rep = dx.entropy_residual_pair(field, 0.3)
    assert rep.ok and rep.worst <= 1e-15


def test_admissible_standing_shock_passes(burgers):
    # 0.25 left, 0.75 right is the entropy-correct standing jump for u(1-u)
    field = _frozen_field(burgers, lambda x: np.where(np.asarray(x) <= 0, 0.25, 0.75))
    hat = dx.SpaceTimeHat(dx.HatFunction(0.25, 0.2), dx.HatFunction(0.0, 0.5))
    rep = dx.entropy_residual_pair(field, 0.5, tests=[hat], tolerance=1e-3)
    assert rep.ok
    assert rep.worst <= 1e-12


def test_reversed_shock_residual_frozen_value(burgers):
    # the reversed jump violates the inequality by 2*(f(1/2) - f(3/4)) * integral(T)
    field = _frozen_field(burgers, lambda x: np.where(np.asarray(x) <= 0, 0.75, 0.25))
    hat = dx.SpaceTimeHat(dx.HatFunction(0.25, 0.2), dx.HatFunction(0.0, 0.5))
    rep = dx.entropy_residual_pair(field, 0.5, tests=[hat], tolerance=1e-3)
    assert not rep.ok
    assert rep.worst == pytest.approx(2 * (0.25 - 0.1875) * 0.2, abs=1e-12)


@pytest.mark.parametrize("left, right, cells, fails", [
    (0.75, 0.25, 256, True),     # acceptance 10's jump: 3.20 x the tolerance
    (0.65, 0.35, 1024, True),    # 1.84 x
    (0.35, 0.65, 1024, False),   # admissible: 0.00 x
], ids=["0.75|0.25", "0.65|0.35", "0.35|0.65"])
def test_automatic_tolerance_flags_inadmissible_standing_jumps(burgers, left, right, cells, fails):
    # verify's five levels with the default hats and the automatic tolerance
    # 0.5 * scale * (dx + slab), on acceptance 10's frozen field: both
    # inadmissible jumps must fail, and the admissible one pass
    field = _frozen_field(burgers, lambda x: np.where(np.asarray(x) <= 0, left, right), cells=cells)
    reports = [dx.entropy_residual_pair(field, float(xi)) for xi in np.linspace(0.0, 1.0, 7)[1:-1]]
    assert any(not r.ok for r in reports) == fails


def _sampled_fan_field(burgers, pair, cells):
    """The exact fan of (0.8, 0.4) at the cell centres and 33 times up to 0.5, stored under ``pair``.

    Each v row is each side's inverse map of its u row, the boundary fluxes
    are the exact g(0.8) t and f(0.4) t the fan leaves at both ends, and the
    mass is each row's sum times dx.
    """
    cfg = dx.SolverConfig(cells=cells, t_end=0.5)
    x = cfg.centers()
    times = np.linspace(0.0, 0.5, cfg.snapshots)
    fan = dx.classical_riemann(burgers.f, 0.8, 0.4)
    u = np.array([fan.profile(x, t) for t in times])
    v = np.where(x > 0.0, pair.alpha.inverse(u), pair.beta.inverse(u))
    return dx.SolutionField(
        config=cfg, times=times, v=v, u=u, mass=u.sum(1) * cfg.dx,
        boundary_flux=np.column_stack((burgers.g(0.8) * times, burgers.f(0.4) * times)),
        dt=float(times[1] - times[0]), flux=burgers, transform=pair,
    )


def test_the_classical_fan_fails_under_a_connection(burgers, demo_connection):
    # the fan of (0.8, 0.4) crosses u = 1/2 at x = 0: the entropy solution
    # with the identity, but not under the connection 0.75|0.25, which lets
    # at most f(0.25) = 0.1875 through x = 0.  verify's five levels with the
    # automatic tolerance must pass the one and fail the other at a hat on
    # x = 0, by a ratio that grows under refinement
    _, pair = demo_connection
    worst = {}
    for name, t in (("identity", dx.identity_transform(burgers)), ("connection", pair)):
        for cells in (256, 1024):
            field = _sampled_fan_field(burgers, t, cells)
            reports = [dx.entropy_residual_pair(field, float(xi)) for xi in np.linspace(0.0, 1.0, 7)[1:-1]]
            worst[name, cells] = max(reports, key=lambda r: r.worst / r.tolerance)
    ratio = {key: r.worst / r.tolerance for key, r in worst.items()}
    assert ratio["identity", 256] <= 0.1 and ratio["identity", 1024] <= 0.1
    assert ratio["connection", 256] >= 3.0
    assert ratio["connection", 1024] > ratio["connection", 256]
    assert worst["connection", 256].worst_hat.x.center == 0.0
    assert worst["connection", 1024].worst_hat.x.center == 0.0


def test_adapted_residual_steady_connection(burgers, demo_connection):
    conn, pair = demo_connection
    u0 = lambda x: dx.steady_connection_state(burgers, conn, x)
    field = dx.solve(burgers, u0, pair, dx.SolverConfig(cells=128, t_end=0.1))
    rep = dx.entropy_residual_connection(field, conn)
    assert rep.ok
    assert abs(rep.worst) < 1e-14
    rep2 = dx.entropy_residual_pair(field, pair.c)
    assert rep2.ok and abs(rep2.worst) < 1e-14


def _per_hat_residual(field, cstar, delta, hat):
    """The one-hat residual the reports computed before they shared the field terms."""
    times, x, dx_ = field.times, field.x, field.dx
    faces = np.concatenate((x - dx_ / 2.0, [x[-1] + dx_ / 2.0]))
    U = field.u[:-1]
    dT = hat.t(times[1:]) - hat.t(times[:-1])
    Tint = hat.t.antiderivative(times[1:]) - hat.t.antiderivative(times[:-1])
    Xint = hat.x.antiderivative(faces[1:]) - hat.x.antiderivative(faces[:-1])
    dX = hat.x(faces[1:]) - hat.x(faces[:-1])
    right = x > 0.0
    f, g = field.flux.f, field.flux.g
    E = np.abs(U - cstar)
    FU = np.where(right, f(U), g(U))
    Fc = np.where(right, f(cstar), g(cstar))
    D = U - cstar
    Q = np.subtract(D > SIGN_BAND, D < -SIGN_BAND, dtype=float) * (FU - Fc)   # sgn with the dead band
    term_t = float(dT @ (E @ Xint))
    term_x = float(Tint @ (Q @ dX))
    term_d = abs(delta) * float(hat.x(0.0)) * float(np.sum(Tint))
    return -(term_t + term_x + term_d)


def _oracle_residuals(field, cstar, delta, hats):
    return tuple(_per_hat_residual(field, cstar, delta, h) for h in hats)


def test_reports_match_per_hat_oracle(burgers, demo_cross, demo_swapped, demo_connection):
    conn, pair = demo_connection
    # alpha != beta: the two branch values of the comparison state differ
    translation = dx.build_translation_transform(demo_swapped)
    riemann = lambda ul, ur: (lambda x: np.where(np.asarray(x) <= 0.0, ul, ur))
    cfg = dx.SolverConfig(cells=128, t_end=0.1)
    # odd: a cell centre sits exactly on x = 0 and must take g, which differs
    # from f on demo-cross; benchmark: the 1024-cell, 33-snapshot shape
    odd = dx.SolverConfig(cells=129, t_end=0.1)
    fields = {
        "connection": dx.solve(burgers, riemann(0.8, 0.4), pair, cfg),
        "identity": dx.solve(burgers, riemann(0.75, 0.25), dx.identity_transform(burgers), cfg),
        "odd": dx.solve(demo_cross, riemann(0.3, 0.7), dx.identity_transform(demo_cross), odd),
        "benchmark": dx.solve(burgers, riemann(0.8, 0.4), pair, dx.SolverConfig(cells=1024, t_end=0.5)),
        "translation": dx.solve(demo_swapped, riemann(0.3, 0.7), translation, cfg),
        "translation-odd": dx.solve(demo_swapped, riemann(0.6, 0.4), translation, odd),
    }
    assert 0.0 in fields["odd"].x
    assert fields["benchmark"].u.shape == (33, 1024)
    for name, field in fields.items():
        x, t = field.x, field.transform
        hats = dx.default_test_functions(field)
        lo, hi = t.domain
        for xi in np.linspace(lo, hi, 7)[1:-1]:
            c_right, c_left = float(t.alpha.forward(xi)), float(t.beta.forward(xi))
            delta = float(field.flux.f(c_right) - field.flux.g(c_left))
            cstar = np.where(x > 0.0, c_right, c_left)
            rep = dx.entropy_residual_pair(field, float(xi))
            assert rep.residuals == _oracle_residuals(field, cstar, delta, hats), (name, xi)
            assert any(r != 0.0 for r in rep.residuals)
        for side, c in (("left", 0.6), ("right", 0.35)):
            rep = dx.entropy_residual_side(field, c, side)
            side_hats = dx.default_test_functions(field, side=side)
            assert rep.residuals == _oracle_residuals(field, np.full(x.shape, c), 0.0, side_hats)
        rep = dx.entropy_residual_connection(field, conn)
        cstar = np.where(x > 0.0, conn.B, conn.A)
        assert rep.residuals == _oracle_residuals(field, cstar, 0.0, hats), name
        assert rep.worst == max(rep.residuals)


def test_hats_sharing_an_x_hat_match_the_oracle(burgers, demo_cross, demo_connection):
    # hats that share an x-hat share its two row products; hats that share
    # only a t-hat must not, and a hat listed twice gives its residual twice
    conn, pair = demo_connection
    riemann = lambda ul, ur: (lambda x: np.where(np.asarray(x) <= 0.0, ul, ur))
    fields = {
        "connection": dx.solve(burgers, riemann(0.8, 0.4), pair, dx.SolverConfig(cells=1024, t_end=0.5)),
        "identity": dx.solve(demo_cross, riemann(0.3, 0.7), dx.identity_transform(demo_cross),
                             dx.SolverConfig(cells=129, t_end=0.1)),
    }
    for name, field in fields.items():
        x, t = field.x, field.transform
        t1 = float(field.times[-1])
        early, late = dx.HatFunction(0.4 * t1, 0.2 * t1), dx.HatFunction(0.6 * t1, 0.3 * t1)
        pinned, left, right = dx.HatFunction(0.0, 0.5), dx.HatFunction(-0.8, 0.6), dx.HatFunction(0.7, 0.4)
        twice = dx.SpaceTimeHat(late, pinned)
        hats = [dx.SpaceTimeHat(early, pinned), twice, dx.SpaceTimeHat(early, left), twice,
                dx.SpaceTimeHat(late, right), dx.SpaceTimeHat(early, right), dx.SpaceTimeHat(late, left)]
        xi = float(np.mean(t.domain))
        c_right, c_left = float(t.alpha.forward(xi)), float(t.beta.forward(xi))
        delta = float(field.flux.f(c_right) - field.flux.g(c_left))
        rep = dx.entropy_residual_pair(field, xi, tests=hats)
        assert rep.residuals == _oracle_residuals(field, np.where(x > 0.0, c_right, c_left), delta, hats), name
        assert rep.residuals[1] == rep.residuals[3]
        assert len(set(rep.residuals)) == 6, name   # no two distinct hats agree by accident
        rep = dx.entropy_residual_connection(field, conn, tests=hats)
        assert rep.residuals == _oracle_residuals(field, np.where(x > 0.0, conn.B, conn.A), 0.0, hats), name


@pytest.mark.parametrize("shift", [0.0, 5e-13, -5e-13])
def test_comparison_state_at_the_dead_band_edge_matches_the_oracle(burgers, shift):
    # cells up to 1.6e-12 from the comparison state: some inside the
    # +-SIGN_BAND dead band of sgn, where |u - c| > 0 but sgn is 0, some just outside
    plateau = 0.6
    steps = np.array([-1.1e-12, 0.0, 0.9e-12, 1.1e-12, -0.9e-12, 0.0])
    edges = np.linspace(-2.0, 0.0, len(steps) + 1)[1:-1]
    field = _frozen_field(
        burgers, lambda x: np.where(np.asarray(x) <= 0, plateau + steps[np.searchsorted(edges, x)], 0.3))
    c = float(field.u[-1, 3]) + shift
    D = np.abs(field.u - c)
    assert np.any((D > 0.0) & (D <= diagnostics.SIGN_BAND)) and np.any(D > diagnostics.SIGN_BAND)
    hats = [dx.SpaceTimeHat(dx.HatFunction(0.25, 0.2), dx.HatFunction(xc, r))
            for xc, r in ((-1.0, 0.9), (-1.2, 0.5), (-0.5, 0.45))]
    cstar = np.full(field.x.shape, c)
    for tests, family in ((hats, hats), (None, dx.default_test_functions(field, side="left"))):
        rep = dx.entropy_residual_side(field, c, "left", tests=tests)
        assert rep.residuals == _oracle_residuals(field, cstar, 0.0, family)
        assert any(r != 0.0 for r in rep.residuals)


def test_a_nan_cell_fails_the_report_as_the_oracle_does(burgers, demo_cross):
    field = dx.solve(demo_cross, lambda x: np.where(np.asarray(x) <= 0.0, 0.3, 0.7),
                     dx.identity_transform(demo_cross), dx.SolverConfig(cells=129, t_end=0.1))
    u = field.u.copy()
    u[len(u) // 2, 40] = np.nan   # left of 0: outside every hat of the right side's family too
    broken = replace(field, u=u)
    x, flux = field.x, field.flux
    for rep, cstar, delta, hats in (
        (dx.entropy_residual_pair(broken, 0.5), np.full(x.shape, 0.5), float(flux.f(0.5) - flux.g(0.5)),
         dx.default_test_functions(field)),
        (dx.entropy_residual_side(broken, 0.4, "right"), np.full(x.shape, 0.4), 0.0,
         dx.default_test_functions(field, side="right")),
    ):
        assert not rep.ok and np.isnan(rep.worst) and rep.worst_index == 0
        assert np.array(rep.residuals).tobytes() == np.array(_oracle_residuals(broken, cstar, delta, hats)).tobytes()


@st_.composite
def _hats_within(draw, nodes):
    """A hat supported inside [nodes[0], nodes[-1]]: its support ends on two
    nodes (a face, a snapshot time or the window edge) or between them."""
    i, j = sorted(draw(st_.lists(st_.integers(0, len(nodes) - 1), min_size=2, max_size=2, unique=True)))
    lo, hi = float(nodes[i]), float(nodes[j])
    if draw(st_.booleans()):
        a, b = (draw(st_.floats(lo, hi)) for _ in range(2))
        # a != b is not enough: half the gap of two neighbouring subnormals
        # (0 and 5e-324, say) rounds to a radius of 0, which HatFunction rejects
        if 0.5 * abs(a - b) > 0.0:
            lo, hi = min(a, b), max(a, b)
    return dx.HatFunction(0.5 * (lo + hi), 0.5 * (hi - lo))


@settings(max_examples=60, deadline=None)
@given(cells=st_.sampled_from([64, 129]), snapshots=st_.sampled_from([2, 5, 33]),
       side=st_.sampled_from([None, "left", "right"]), seed=st_.integers(0, 2**32 - 1),
       data=st_.data())
def test_broadcast_hat_integrals_match_each_hat(burgers, cells, snapshots, side, seed, data):
    field = _frozen_field(burgers, random_step_profile(np.random.default_rng(seed)),
                          times=np.linspace(0.0, 0.5, snapshots), cells=cells)
    times, x = field.times, field.x
    faces = np.concatenate((x - field.dx / 2.0, [x[-1] + field.dx / 2.0]))
    drawn = data.draw(st_.lists(st_.builds(dx.SpaceTimeHat, _hats_within(times), _hats_within(faces)),
                                max_size=8))
    count = data.draw(st_.integers(0 if drawn else 1, 12))
    hats = drawn + dx.default_test_functions(field, count=count, seed=seed, side=side)
    dT, Tint, dX, Xint, at_zero = _hat_integrals(times, faces, _hat_columns(hats))
    for k, h in enumerate(hats):
        # bit for bit: array_equal on the arrays, == on the scalar
        assert np.array_equal(dT[k], h.t(times[1:]) - h.t(times[:-1]))
        assert np.array_equal(Tint[k], h.t.antiderivative(times[1:]) - h.t.antiderivative(times[:-1]))
        assert np.array_equal(dX[k], h.x(faces[1:]) - h.x(faces[:-1]))
        assert np.array_equal(Xint[k], h.x.antiderivative(faces[1:]) - h.x.antiderivative(faces[:-1]))
        assert at_zero[k] == h.x(0.0)
    # and so the whole report equals the per-hat residuals
    rep = dx.entropy_residual_pair(field, 0.4, tests=hats)
    cstar = np.full(x.shape, 0.4)
    assert rep.residuals == _oracle_residuals(field, cstar, 0.0, hats)


@settings(max_examples=30, deadline=None)
@given(radius=st_.floats(5e-324, 1e-300), face=st_.integers(1, 63))
@example(radius=5e-324, face=32)
def test_subnormal_hat_radius_warns_nothing(burgers, radius, face):
    # |x - c| / r overflows to inf for a radius near the smallest float; the
    # tent is 0 there, so the integrals and a report must raise no warning
    field = _frozen_field(burgers, lambda x: np.where(np.asarray(x) <= 0, 0.75, 0.25), cells=64)
    faces = np.concatenate((field.x - field.dx / 2.0, [field.x[-1] + field.dx / 2.0]))
    hat = dx.SpaceTimeHat(dx.HatFunction(0.25, 0.2), dx.HatFunction(float(faces[face]), radius))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dT, Tint, dX, Xint, at_zero = _hat_integrals(field.times, faces, _hat_columns([hat]))
        one_by_one = hat.x(faces[1:]) - hat.x(faces[:-1])
        rep = dx.entropy_residual_pair(field, 0.4, tests=[hat])
    assert np.array_equal(dX[0], one_by_one)
    assert np.count_nonzero(dX[0]) == 2
    assert np.all(np.isfinite(rep.residuals))


@pytest.mark.parametrize("report", ["pair", "side", "connection"])
def test_empty_family_is_rejected_and_arrays_are_accepted(burgers, demo_connection, report):
    field = _frozen_field(burgers, lambda x: np.where(np.asarray(x) <= 0, 0.75, 0.25))
    run = {
        "pair": lambda tests: dx.entropy_residual_pair(field, 0.5, tests=tests),
        "side": lambda tests: dx.entropy_residual_side(field, 0.5, "left", tests=tests),
        "connection": lambda tests: dx.entropy_residual_connection(field, demo_connection[0], tests=tests),
    }[report]
    with pytest.raises(ValueError, match="test-function family is empty"):
        run([])
    hats = [dx.SpaceTimeHat(dx.HatFunction(0.25, 0.2), dx.HatFunction(-1.0, 0.5))]
    assert run(np.array(hats, dtype=object)).residuals == run(hats).residuals
    assert len(run(hats).residuals) == 1   # not the 12-hat default family


def test_report_names_its_worst_hat(burgers):
    field = _frozen_field(burgers, lambda x: np.where(np.asarray(x) <= 0, 0.75, 0.25))
    calm = dx.SpaceTimeHat(dx.HatFunction(0.25, 0.2), dx.HatFunction(-1.0, 0.5))
    shock = dx.SpaceTimeHat(dx.HatFunction(0.25, 0.2), dx.HatFunction(0.0, 0.5))
    rep = dx.entropy_residual_pair(field, 0.5, tests=[calm, shock, calm], tolerance=1e-3)
    assert rep.worst_index == 1 and rep.worst_hat is shock
    assert rep.residuals[rep.worst_index] == rep.worst
    assert rep.summary().endswith("[VIOLATED]; hat 1: t=0.25 r=0.2, x=0 r=0.5")


def test_xi_outside_domain_is_clamped(burgers):
    field = _frozen_field(burgers, lambda x: np.full(np.shape(x), 0.5))
    rep = dx.entropy_residual_pair(field, 42.0)
    assert rep.kind == "pair-kruzhkov"


@pytest.mark.parametrize("tolerance", [np.inf, -np.inf, np.nan, -1.0, -5e-324])
@pytest.mark.parametrize("report", ["pair", "side", "connection"])
def test_tolerance_that_switches_the_gate_off_is_rejected(burgers, demo_connection, report, tolerance):
    # inf passes every residual; NaN and a negative tolerance fail every one
    field = _frozen_field(burgers, lambda x: np.where(np.asarray(x) <= 0, 0.75, 0.25))
    run = {
        "pair": lambda tol: dx.entropy_residual_pair(field, 0.5, tolerance=tol),
        "side": lambda tol: dx.entropy_residual_side(field, 0.5, "left", tolerance=tol),
        "connection": lambda tol: dx.entropy_residual_connection(field, demo_connection[0], tolerance=tol),
    }[report]
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        run(tolerance)
    assert run(0.0).tolerance == 0.0
    assert run(np.float64(2.5)).tolerance == 2.5


def test_nan_xi_is_rejected_and_infinite_xi_clamped(burgers):
    field = _frozen_field(burgers, lambda x: np.where(np.asarray(x) <= 0, 0.75, 0.25))
    with pytest.raises(ValueError, match="xi must be a number"):
        dx.entropy_residual_pair(field, np.nan)
    lo, hi = field.transform.domain
    for xi, end in ((-np.inf, lo), (np.inf, hi)):
        assert dx.entropy_residual_pair(field, xi).residuals == dx.entropy_residual_pair(field, end).residuals


def test_a_nan_residual_fails_the_report_wherever_it_sits(burgers):
    # HatFunction rejects a NaN radius; a hat-like object carrying one still
    # reaches the report, whose NaN residual must fail it in either order
    field = _frozen_field(burgers, lambda x: np.full(np.shape(x), 0.5))
    good = dx.SpaceTimeHat(dx.HatFunction(0.25, 0.2), dx.HatFunction(0.0, 0.5))
    nan_hat = dx.SpaceTimeHat(SimpleNamespace(center=0.15, radius=np.nan), dx.HatFunction(0.0, 0.5))
    alone = dx.entropy_residual_pair(field, 0.5, tests=[good])
    assert alone.ok is True   # a Python bool, which callers may test by identity
    for family in ([good, nan_hat], [nan_hat, good]):
        rep = dx.entropy_residual_pair(field, 0.5, tests=family)
        k = family.index(nan_hat)
        assert rep.ok is False and np.isnan(rep.worst) and rep.worst_index == k and rep.worst_hat is nan_hat
        assert rep.residuals[1 - k] == alone.residuals[0]


def _report_bits(rep):
    """Everything a report states, its residuals as raw bytes (so -0.0 != 0.0)."""
    return (rep.kind, np.array(rep.residuals).tobytes(), rep.tolerance, rep.ok,
            rep.worst_index, rep.worst_hat)


@pytest.mark.parametrize("problem", ["identity", "connection", "translation"])
def test_kept_terms_match_a_fresh_field(burgers, demo_swapped, demo_connection, problem):
    conn, conn_pair = demo_connection
    riemann = lambda ul, ur: (lambda x: np.where(np.asarray(x) <= 0.0, ul, ur))
    flux, pair, data = {
        "identity": (burgers, dx.identity_transform(burgers), [(0.75, 0.25), (0.3, 0.8)]),
        "connection": (burgers, conn_pair, [(0.8, 0.4), (0.9, 0.1)]),
        "translation": (demo_swapped, dx.build_translation_transform(demo_swapped), [(0.3, 0.7), (0.6, 0.4)]),
    }[problem]
    cfg = dx.SolverConfig(cells=128, t_end=0.1)
    a, b = (dx.solve(flux, riemann(*d), pair, cfg) for d in data)
    six = [dx.SpaceTimeHat(dx.HatFunction(0.05, r), dx.HatFunction(c, 0.4))
           for r, c in ((0.02, -1.0), (0.03, -0.5), (0.04, 0.0), (0.02, 0.3), (0.03, 0.8), (0.04, 1.2))]
    lo, hi = pair.domain
    reports = [lambda f, xi=xi: dx.entropy_residual_pair(f, float(xi)) for xi in np.linspace(lo, hi, 7)[1:-1]]
    reports += [
        lambda f: dx.entropy_residual_side(f, 0.6, "left"),
        lambda f: dx.entropy_residual_side(f, 0.35, "right"),
        lambda f: dx.entropy_residual_connection(f, conn),
        lambda f: dx.entropy_residual_pair(f, 0.5, tests=six),
        lambda f: dx.entropy_residual_connection(f, conn, tests=six, tolerance=1e-4),
        lambda f: dx.entropy_residual_pair(f, 0.4),   # the default family again, after the explicit one
    ]
    # interleaved fields: each keeps its own terms
    for report in reports:
        for field in (a, b, a):
            assert _report_bits(report(field)) == _report_bits(report(replace(field)))


def test_default_family_is_built_once_per_side(burgers, demo_connection, monkeypatch):
    conn, pair = demo_connection
    field = dx.solve(burgers, lambda x: np.where(np.asarray(x) <= 0.0, 0.8, 0.4), pair,
                     dx.SolverConfig(cells=128, t_end=0.1))
    built = []
    default = diagnostics.default_test_functions

    def counted(fld, *args, side=None, **kwargs):
        built.append(side)
        return default(fld, *args, side=side, **kwargs)

    monkeypatch.setattr(diagnostics, "default_test_functions", counted)
    for xi in (0.2, 0.5, 0.8):
        dx.entropy_residual_pair(field, xi)
    dx.entropy_residual_connection(field, conn)
    dx.entropy_residual_side(field, 0.6, "left")
    dx.entropy_residual_side(field, 0.3, "right")
    assert sorted(built, key=str) == [None, "left", "right"]
    dx.entropy_residual_side(field, 0.2, "left")
    dx.entropy_residual_pair(field, 0.1)
    assert len(built) == 3
    dx.entropy_residual_pair(replace(field), 0.1)   # a new object keeps nothing
    assert built[3:] == [None]


def test_kept_terms_die_with_the_field(burgers, demo_connection):
    conn, pair = demo_connection
    field = dx.solve(burgers, lambda x: np.where(np.asarray(x) <= 0.0, 0.8, 0.4), pair,
                     dx.SolverConfig(cells=64, t_end=0.05))
    dx.entropy_residual_pair(field, 0.5)
    dx.entropy_residual_side(field, 0.5, "left")
    ref = weakref.ref(field)
    gc.disable()
    try:
        del field
        # freed by its reference count alone: the kept terms form no cycle with it
        assert ref() is None
    finally:
        gc.enable()
    gc.collect()
    assert ref() is None


def test_trace_extraction(burgers, demo_connection):
    conn, pair = demo_connection
    u0 = lambda x: dx.steady_connection_state(burgers, conn, x)
    field = dx.solve(burgers, u0, pair, dx.SolverConfig(cells=128, t_end=0.05))
    tr = dx.extract_traces(field)
    assert np.allclose(tr.left, 0.75) and np.allclose(tr.right, 0.25)
    assert tr.final_mismatch == 0.0
    with pytest.raises(ValueError):
        dx.extract_traces(field, offset=10.0)


def test_connection_riemann_traces_converge(burgers, demo_connection):
    # data 0.8 | 0.4 off the steady profile: at 1,024 cells the traces settle
    # on the connection (A, B) and match the fluxes across x = 0 to 1e-8
    conn, pair = demo_connection
    field = dx.solve(burgers, lambda x: np.where(np.asarray(x) <= 0, 0.8, 0.4), pair,
                     dx.SolverConfig(cells=1024, t_end=0.5))
    tr = dx.extract_traces(field)
    assert tr.final_mismatch <= 1e-8
    assert abs(tr.left[-1] - conn.A) <= 1e-6 and abs(tr.right[-1] - conn.B) <= 1e-6


@pytest.mark.parametrize("case", ["rarefaction", "shock", "connection-0.276|0.902", "connection-0.8|0.4",
                                  "demo-cross", "demo-swapped"])
def test_reference_solves_pass_verify_checks(burgers, demo_cross, demo_swapped, demo_connection, case):
    # the checks of discflux verify, in memory, at 1,024 cells with 33 and
    # with 513 snapshots: ranges, mass balance, the five pair residuals and
    # the adapted one; the snapshot count moves the automatic tolerance
    flux, pair, left, right, t_end = {
        "rarefaction": (burgers, dx.identity_transform(burgers), 0.2, 0.9, 0.5),
        "shock": (burgers, dx.identity_transform(burgers), 0.9, 0.2, 0.5),
        "connection-0.276|0.902": (burgers, demo_connection[1], 0.276, 0.902, 0.5),
        "connection-0.8|0.4": (burgers, demo_connection[1], 0.8, 0.4, 0.5),
        "demo-cross": (demo_cross, dx.identity_transform(demo_cross), 0.2, 0.8, 0.5),
        "demo-swapped": (demo_swapped, dx.build_translation_transform(demo_swapped), 0.3, 0.7, 0.2),
    }[case]
    for snapshots in (33, 513):
        cfg = dx.SolverConfig(cells=1024, t_end=t_end, snapshots=snapshots)
        field = dx.solve(flux, lambda x: np.where(np.asarray(x) <= 0, left, right), pair, cfg)
        rep = dx.bounds_report(field)
        assert rep.v_ok and rep.u_ok
        drift = field.mass - field.mass[0] + field.boundary_flux[:, 1] - field.boundary_flux[:, 0]
        assert np.max(np.abs(drift)) <= 1e-9 * max(1.0, abs(float(field.mass[0])))
        lo, hi = pair.domain
        reports = [dx.entropy_residual_pair(field, float(xi)) for xi in np.linspace(lo, hi, 7)[1:-1]]
        if pair.connection is not None:
            reports.append(dx.entropy_residual_connection(field, pair.connection))
        assert [r.summary() for r in reports if not r.ok] == [], snapshots


def test_trace_mismatch_frozen_value(burgers):
    # left state 0.6, right state 0.25: |f(0.25) - g(0.6)| = |0.1875 - 0.24|
    field = _frozen_field(burgers, lambda x: np.where(np.asarray(x) <= 0, 0.6, 0.25))
    tr = dx.extract_traces(field)
    assert tr.final_mismatch == pytest.approx(0.0525, abs=1e-7)


def test_l1_distance_metrics(burgers):
    cfg = dx.SolverConfig(cells=128, t_end=0.1)
    tent = lambda x: np.maximum(0.0, 1.0 - np.abs(np.asarray(x)))
    fa = dx.solve(burgers, lambda x: 0.3 + 0.2 * tent(x), config=cfg)
    fb = dx.solve(burgers, lambda x: 0.3 + 0.3 * tent(x), config=cfg)
    dv = dx.l1_distances(fa, fb)
    dm = dx.l1_distances(fa, fb, variable="conserved")
    # identical transforms: the two metrics agree and never grow
    assert np.allclose(dv, dm)
    assert np.max(np.diff(dm)) <= 1e-12
    assert dx.ordering_preserved(fa, fb)
    with pytest.raises(ValueError):
        dx.l1_distances(fa, fb, variable="nope")


def test_run_comparisons_reject_runs_they_cannot_compare(burgers):
    low = _frozen_field(burgers, lambda x: np.full(np.shape(x), 0.3))
    high = _frozen_field(burgers, lambda x: np.full(np.shape(x), 0.6))
    with pytest.raises(ValueError, match="runs must share grid and snapshot times"):
        dx.l1_distances(low, _frozen_field(burgers, lambda x: np.full(np.shape(x), 0.3), cells=128))
    with pytest.raises(ValueError, match="not ordered at the initial time"):
        dx.ordering_preserved(high, low)


def test_conserved_metric_contracts_across_interface(burgers, demo_connection):
    conn, pair = demo_connection
    cfg = dx.SolverConfig(cells=128, t_end=0.15)
    base = lambda x: dx.steady_connection_state(burgers, conn, x)
    u1 = lambda x: np.where(np.abs(np.asarray(x)) < 1, 0.55, base(x))
    u2 = lambda x: np.where(np.abs(np.asarray(x)) < 1, 0.65, base(x))
    f1 = dx.solve(burgers, u1, pair, cfg)
    f2 = dx.solve(burgers, u2, pair, cfg)
    dm = dx.l1_distances(f1, f2, variable="conserved")
    assert np.max(np.diff(dm)) <= 1e-12
    assert dx.ordering_preserved(f1, f2)


def test_bounds_report(burgers):
    field = _frozen_field(burgers, lambda x: np.full(np.shape(x), 0.5))
    rep = dx.bounds_report(field)
    assert rep.v_ok and rep.u_ok
    assert rep.u_min == pytest.approx(0.5) and rep.u_max == pytest.approx(0.5)
