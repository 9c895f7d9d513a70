import numpy as np
import pytest

import discflux as dx
from discflux.errors import CoverageError


def _frozen_field(burgers, u_profile, times=None, cells=256, eps=0.0625):
    """Wrap a hand-made space-time table as a stored solution field."""
    cfg = dx.SolverConfig(cells=cells, t_end=0.5)
    x = cfg.centers()
    times = np.linspace(0.0, 0.5, 33) if times is None else times
    u = np.tile(np.asarray(u_profile(x), dtype=float), (len(times), 1))
    return dx.SolutionField(
        x=x, times=times, v=u.copy(), u=u,
        mass=np.zeros(len(times)), boundary_flux=np.zeros((len(times), 2)),
        dx=cfg.dx, eps=eps, dt=float(times[1] - times[0]),
        flux=burgers, transform=dx.identity_transform(burgers),
    )


def test_sgn_dead_band():
    assert dx.sgn(5.0) == 1.0
    assert dx.sgn(-5.0) == -1.0
    assert dx.sgn(1e-13) == 0.0


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
    Q = dx.sgn(U - cstar) * (FU - Fc)
    term_t = float(dT @ (E @ Xint))
    term_x = float(Tint @ (Q @ dX))
    term_d = abs(delta) * float(hat.x(0.0)) * float(np.sum(Tint))
    return -(term_t + term_x + term_d)


def _oracle_residuals(field, cstar, delta, hats):
    return tuple(_per_hat_residual(field, cstar, delta, h) for h in hats)


def test_reports_match_per_hat_oracle(burgers, demo_connection):
    conn, pair = demo_connection
    riemann = lambda ul, ur: (lambda x: np.where(np.asarray(x) <= 0.0, ul, ur))
    cfg = dx.SolverConfig(cells=128, t_end=0.1)
    fields = {
        "connection": dx.solve(burgers, riemann(0.8, 0.4), pair, cfg),
        "identity": dx.solve(burgers, riemann(0.75, 0.25), dx.identity_transform(burgers), cfg),
    }
    for name, field in fields.items():
        x, t = field.x, field.transform
        hats = dx.default_test_functions(field)
        lo, hi = t.domain
        for xi in np.linspace(lo, hi, 7)[1:-1]:
            c_right, c_left = float(t.alpha.forward(xi)), float(t.beta.forward(xi))
            delta = float(burgers.f(c_right) - burgers.g(c_left))
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


def test_xi_outside_domain_is_clamped(burgers):
    field = _frozen_field(burgers, lambda x: np.full(np.shape(x), 0.5))
    rep = dx.entropy_residual_pair(field, 42.0)
    assert rep.kind == "pair-kruzhkov"


def test_trace_extraction(burgers, demo_connection):
    conn, pair = demo_connection
    u0 = lambda x: dx.steady_connection_state(burgers, conn, x)
    field = dx.solve(burgers, u0, pair, dx.SolverConfig(cells=128, t_end=0.05))
    tr = dx.extract_traces(field)
    assert np.allclose(tr.left, 0.75) and np.allclose(tr.right, 0.25)
    assert tr.final_mismatch == 0.0
    with pytest.raises(ValueError):
        dx.extract_traces(field, offset=10.0)


def test_trace_mismatch_frozen_value(burgers):
    # left state 0.6, right state 0.25: |f(0.25) - g(0.6)| = |0.1875 - 0.24|
    field = _frozen_field(burgers, lambda x: np.where(np.asarray(x) <= 0, 0.6, 0.25))
    tr = dx.extract_traces(field)
    assert tr.final_mismatch == pytest.approx(0.0525, abs=1e-7)


def test_l1_distance_metrics(burgers):
    cfg = dx.SolverConfig(cells=128, t_end=0.1, eps=0.05)
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


def test_conserved_metric_contracts_across_interface(burgers, demo_connection):
    conn, pair = demo_connection
    cfg = dx.SolverConfig(cells=128, t_end=0.15, eps=0.05)
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
