"""Mollifier properties, scheme invariants, and refinement behaviour."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

import discflux as dx
from discflux.errors import StabilityError
from discflux.solver import _Stepper

from conftest import random_step_profile


# ------------------------------------------------------------- mollifiers

def test_smooth_heaviside_symmetry():
    x = np.linspace(-3, 3, 1001)
    h = dx.smooth_heaviside(x, 0.5)
    assert dx.smooth_heaviside(0.0, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert np.max(np.abs(h + dx.smooth_heaviside(-x, 0.5) - 1.0)) < 1e-12
    assert np.all(np.diff(h) >= 0)
    assert dx.smooth_heaviside(-0.51, 0.5) == 0.0
    assert dx.smooth_heaviside(0.51, 0.5) == 1.0


def test_smooth_heaviside_rejects_bad_eps():
    with pytest.raises(ValueError):
        dx.smooth_heaviside(0.0, 0.0)


def test_mollify_preserves_constants(burgers):
    ident = dx.identity_transform(burgers)
    x = np.linspace(-2, 2, 257)
    v = dx.mollify_initial(np.full(x.shape, 0.37), x, ident, eps=0.25)
    assert np.max(np.abs(v - 0.37)) < 1e-14


def test_mollify_steady_connection_becomes_flat(burgers, demo_connection):
    conn, pair = demo_connection
    x = -2 + (np.arange(256) + 0.5) * (4 / 256)
    u0 = dx.steady_connection_state(burgers, conn, x)
    v = dx.mollify_initial(u0, x, pair, eps=0.125)
    assert np.max(np.abs(v - pair.c)) < 1e-13


def test_mollify_does_not_increase_variation(burgers):
    rng = np.random.default_rng(23)
    ident = dx.identity_transform(burgers)
    x = np.linspace(-2, 2, 321)
    for _ in range(5):
        u0 = random_step_profile(rng)(x)
        v = dx.mollify_initial(u0, x, ident, eps=0.2)
        assert np.sum(np.abs(np.diff(v))) <= np.sum(np.abs(np.diff(u0))) + 1e-12


# ------------------------------------------------------------ configuration

def test_config_validation():
    with pytest.raises(ValueError):
        dx.SolverConfig(cells=4)
    with pytest.raises(ValueError):
        dx.SolverConfig(cfl_hyperbolic=0.6, cfl_parabolic=0.5)
    with pytest.raises(ValueError):
        dx.SolverConfig(snapshots=1)
    with pytest.raises(ValueError):
        dx.SolverConfig(eps=1.5).resolved_eps()  # wider than a quarter domain
    cfg = dx.SolverConfig(cells=128)
    assert cfg.resolved_eps() == pytest.approx(8 * cfg.dx)
    assert len(cfg.centers()) == 128 and len(cfg.faces()) == 129


def test_solve_rejects_bad_initial_data(burgers):
    cfg = dx.SolverConfig(cells=64, t_end=0.01)
    with pytest.raises(ValueError):
        dx.solve(burgers, lambda x: np.full(np.shape(x), 1.5), config=cfg)
    with pytest.raises(ValueError):
        dx.solve(burgers, np.zeros(10), config=cfg)


def test_solve_rejects_non_finite_initial_data(burgers):
    cfg = dx.SolverConfig(cells=64, t_end=0.01)
    u0 = np.full(64, 0.5)
    u0[17] = np.nan
    with pytest.raises(ValueError, match="finite"):
        dx.solve(burgers, u0, config=cfg)


def test_range_excess_is_infinite_for_non_finite_u(burgers):
    field = dx.solve(burgers, np.full(64, 0.5), config=dx.SolverConfig(cells=64, t_end=0.01))
    assert field.range_excess() == 0.0
    u = field.u.copy()
    u[-1, 5] = np.nan
    assert replace(field, u=u).range_excess() == np.inf


def test_solve_gates_on_transform_audit(demo_swapped):
    # the raw swapped pair fails the crossing condition, so identity labels
    # must be refused outright
    with pytest.raises(ValueError, match="verification"):
        dx.solve(demo_swapped, lambda x: np.full(np.shape(x), 0.5),
                 config=dx.SolverConfig(cells=64, t_end=0.01))


# ------------------------------------------------------------------ scheme

def test_steady_connection_state_is_exact(burgers, demo_connection):
    conn, pair = demo_connection
    u0 = lambda x: dx.steady_connection_state(burgers, conn, x)
    field = dx.solve(burgers, u0, pair, dx.SolverConfig(cells=128, t_end=0.1))
    assert np.max(np.abs(field.v - pair.c)) == 0.0
    assert np.max(np.abs(field.u_final - u0(field.x))) == 0.0
    tr = dx.extract_traces(field)
    assert tr.final_mismatch == 0.0


def test_interval_endpoints_are_steady(demo_cross):
    for val in (0.0, 1.0):
        field = dx.solve(demo_cross, lambda x: np.full(np.shape(x), val),
                         config=dx.SolverConfig(cells=64, t_end=0.05))
        assert np.max(np.abs(field.u - val)) == 0.0


def test_mass_balance_telescopes(demo_cross):
    rng = np.random.default_rng(31)
    field = dx.solve(demo_cross, random_step_profile(rng),
                     config=dx.SolverConfig(cells=128, t_end=0.2))
    drift = field.mass - field.mass[0] + field.boundary_flux[:, 1] - field.boundary_flux[:, 0]
    assert np.max(np.abs(drift)) < 1e-12


def test_time_step_uses_transform_slope(burgers, demo_connection):
    _, pair = demo_connection
    cfg = dx.SolverConfig(cells=128, t_end=0.0)
    st_ident = _Stepper(burgers, dx.identity_transform(burgers), cfg)
    st_conn = _Stepper(burgers, pair, cfg)
    assert st_ident.slope_min == pytest.approx(1.0)
    # flattest transform segment of the demo connection pair
    assert st_conn.slope_min == pytest.approx(0.375, abs=5e-3)
    assert st_conn.suggest_dt() < st_ident.suggest_dt()


def _bisection_inverse(st, m):
    """The vectorised bisection the stepper used before its table lookup."""
    w = st.w_cell
    lo_val = w * st.alpha_tab[0] + (1.0 - w) * st.beta_tab[0]
    hi_val = w * st.alpha_tab[-1] + (1.0 - w) * st.beta_tab[-1]
    span = float(np.max(hi_val - lo_val))
    slack = 1e-10 * max(span, 1.0)
    if np.any(m < lo_val - slack) or np.any(m > hi_val + slack):
        worst = float(np.max(np.maximum(lo_val - m, m - hi_val)))
        raise StabilityError(
            f"conserved density left the invertible range by {worst:.3e}; "
            "reduce the time step or refine the grid"
        )
    m = np.clip(m, lo_val, hi_val)
    lo = np.zeros(m.shape, dtype=np.intp)
    hi = np.full(m.shape, len(st.ugrid) - 1, dtype=np.intp)
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        val = w * st.alpha_tab[mid] + (1.0 - w) * st.beta_tab[mid]
        take = val <= m
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    v0 = w * st.alpha_tab[lo] + (1.0 - w) * st.beta_tab[lo]
    v1 = w * st.alpha_tab[hi] + (1.0 - w) * st.beta_tab[hi]
    frac = (m - v0) / (v1 - v0)
    return st.ugrid[lo] + frac * (st.ugrid[hi] - st.ugrid[lo])


def _steppers(burgers, demo_swapped, demo_connection):
    _, conn = demo_connection
    cfg = dx.SolverConfig(cells=128, t_end=0.0)
    return {
        "connection": _Stepper(burgers, conn, cfg),
        "identity": _Stepper(burgers, dx.identity_transform(burgers), cfg),
        "translation": _Stepper(demo_swapped, dx.build_translation_transform(demo_swapped), cfg),
        # eps below half a cell: no centre lies inside the smoothing band
        "empty band": _Stepper(burgers, conn, dx.SolverConfig(cells=64, eps=0.01, t_end=0.0)),
    }


def test_inversion_lookup_matches_bisection(burgers, demo_swapped, demo_connection):
    steppers = _steppers(burgers, demo_swapped, demo_connection)
    assert steppers["connection"].band.stop > steppers["connection"].band.start
    assert steppers["empty band"].band.start == steppers["empty band"].band.stop
    rng = np.random.default_rng(43)
    for name, st in steppers.items():
        lo, hi, n = st.lo_val, st.hi_val, len(st.lo_val)
        node = rng.integers(0, len(st.ugrid), size=n)
        w = st.w_cell
        at_nodes = w * st.alpha_tab[node] + (1.0 - w) * st.beta_tab[node]
        cases = {
            "random": lo + rng.uniform(0, 1, size=n) * (hi - lo),
            "lo_val": lo.copy(),
            "hi_val": hi.copy(),
            "nodes": at_nodes,
            "below in slack": lo - 0.5 * st.slack,
            "above in slack": hi + 0.5 * st.slack,
            "at the slack edge": np.where(rng.uniform(size=n) < 0.5, lo - st.slack, hi + st.slack),
        }
        for case, m in cases.items():
            got = st.invert_conserved(m)
            assert np.array_equal(got, _bisection_inverse(st, m)), (name, case)
        assert np.array_equal(st.invert_conserved(cases["below in slack"]), np.full(n, st.ugrid[0]))
        assert np.array_equal(st.invert_conserved(cases["above in slack"]), np.full(n, st.ugrid[-1]))


@pytest.mark.parametrize("side", ["below", "above"])
def test_inversion_raises_just_beyond_the_slack(burgers, demo_swapped, demo_connection, side):
    for st in _steppers(burgers, demo_swapped, demo_connection).values():
        m = 0.5 * (st.lo_val + st.hi_val)
        i = len(m) // 2 + 3   # right of the interface, inside the band when there is one
        if side == "below":
            m[i] = np.nextafter(st.lo_val[i] - st.slack, -np.inf)
        else:
            m[i] = np.nextafter(st.hi_val[i] + st.slack, np.inf)
        with pytest.raises(StabilityError) as ref:
            _bisection_inverse(st, m)
        with pytest.raises(StabilityError, match="left the invertible range by") as got:
            st.invert_conserved(m)
        assert str(got.value) == str(ref.value)


def _increasing_table(draw, size):
    steps = draw(st_.lists(st_.floats(0.1, 1.0), min_size=size, max_size=size))
    nodes = np.concatenate(([0.0], np.cumsum(steps)))
    return nodes / nodes[-1]


@st_.composite
def _random_pair(draw):
    """Strictly increasing piecewise-linear alpha, beta from [0, 1] onto [0, 1]."""
    maps = []
    for _ in range(2):
        size = draw(st_.integers(1, 12))
        maps.append(dx.MonotoneBijection(_increasing_table(draw, size), _increasing_table(draw, size)))
    return dx.TransformPair(*maps)


@settings(max_examples=40, deadline=None)
@given(pair=_random_pair(), eps=st_.floats(0.01, 0.5), seed=st_.integers(0, 2**32 - 1))
def test_inversion_property_random_tables(burgers, pair, eps, seed):
    # the band width eps sets how many cells see a blend weight strictly inside (0, 1)
    st = _Stepper(burgers, pair, dx.SolverConfig(cells=64, eps=eps, t_end=0.0))
    v = np.random.default_rng(seed).uniform(0.0, 1.0, size=64)
    m = st.conserved(v)
    back = st.invert_conserved(m)
    assert np.max(np.abs(back - v)) < 1e-12
    assert np.array_equal(back, _bisection_inverse(st, m))


def test_inversion_round_trips_and_brackets(burgers, demo_connection):
    _, pair = demo_connection
    st = _Stepper(burgers, pair, dx.SolverConfig(cells=128, t_end=0.0))
    rng = np.random.default_rng(41)
    v = rng.uniform(0, 1, size=128)
    back = st.invert_conserved(st.conserved(v))
    assert np.max(np.abs(back - v)) < 1e-12
    with pytest.raises(StabilityError):
        st.invert_conserved(np.full(128, 5.0))


def test_reconstruct_uses_left_branch_at_interface(demo_swapped):
    pair = dx.build_translation_transform(demo_swapped)
    x = np.array([-1.0, 0.0, 1.0])
    v = np.full(3, 0.4)
    u = dx.reconstruct_u(v, x, pair)
    k_l, k_r = pair.shifts
    assert u[0] == pytest.approx(0.4 + k_l)
    assert u[1] == pytest.approx(0.4 + k_l)   # x = 0 belongs to the left side
    assert u[2] == pytest.approx(0.4 + k_r)


def test_snapshots_cover_endpoints(burgers):
    field = dx.solve(burgers, lambda x: np.full(np.shape(x), 0.5),
                     config=dx.SolverConfig(cells=64, t_end=0.07, snapshots=9))
    assert field.times[0] == 0.0
    assert field.times[-1] == pytest.approx(0.07, abs=1e-14)
    assert len(field.times) <= 9
    assert field.u.shape == (len(field.times), 64)


def test_zero_time_returns_initial_state(burgers):
    field = dx.solve(burgers, lambda x: np.full(np.shape(x), 0.5),
                     config=dx.SolverConfig(cells=64, t_end=0.0))
    assert len(field.times) == 1
    assert np.max(np.abs(field.u[0] - 0.5)) < 1e-14


def test_translated_run_stays_in_hull_domain(demo_swapped):
    pair = dx.build_translation_transform(demo_swapped)
    u0 = lambda x: np.where(np.asarray(x) <= 0, 0.3, 0.7)
    field = dx.solve(demo_swapped, u0, pair, dx.SolverConfig(cells=128, t_end=0.1))
    rep = dx.bounds_report(field)
    assert rep.v_ok and rep.u_ok
    assert field.range_excess() == 0.0


# ------------------------------------------------------------------ ladder

def test_ladder_distances_and_nesting(burgers):
    u0 = lambda x: np.where(np.asarray(x) <= 0, 0.25, 0.75)
    lad = dx.ladder(burgers, u0, base=dx.SolverConfig(cells=64, t_end=0.2), levels=3)
    assert len(lad.fields) == 3
    assert len(lad.distances) == 2
    assert all(d >= 0 for d in lad.distances)
    assert [len(f.x) for f in lad.fields] == [64, 128, 256]
    assert lad.fields[1].eps == pytest.approx(lad.fields[0].eps / 2)


def test_ladder_needs_two_levels(burgers):
    with pytest.raises(ValueError):
        dx.ladder(burgers, lambda x: np.full(np.shape(x), 0.5), levels=1)


def test_ladder_bounds_stable_for_riemann_data(burgers):
    u0 = lambda x: np.where(np.asarray(x) <= 0, 0.25, 0.75)
    lad = dx.ladder(burgers, u0, base=dx.SolverConfig(cells=64, t_end=0.2), levels=3)
    lb = dx.ladder_bounds(lad)
    assert lb.ok
    assert len(lb.c0) == len(lb.c1) == len(lb.c2) == 3
    assert max(lb.c0) <= 1e-10
    assert max(lb.c1) < 2 * min(lb.c1) + 1e-10


def test_ladder_bounds_constant_data_all_zero(burgers):
    u0 = lambda x: np.full(np.shape(x), 0.0)
    lad = dx.ladder(burgers, u0, base=dx.SolverConfig(cells=64, t_end=0.1), levels=2)
    lb = dx.ladder_bounds(lad)
    assert lb.ok
    assert max(lb.c1) == 0.0 and max(lb.c2) == 0.0
