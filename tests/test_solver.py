"""Mollifier properties, scheme invariants, and refinement behaviour."""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

import discflux as dx
from discflux.errors import StabilityError
from discflux.solver import (
    _BLOCK_STEPS,
    _apply_factors,
    _factor_tridiagonal,
    _Stepper,
    mollify_initial,
    reconstruct_u,
    smooth_heaviside,
)
from discflux.transforms import _audit

from conftest import random_step_profile


def _stepper(flux, transform, cfg):
    """The stepper ``solve`` makes for this problem, on the tables of the pair's audit."""
    return _Stepper(_audit(flux, transform)[1], transform, cfg)


# ------------------------------------------------------------- mollifiers

def test_smooth_heaviside_symmetry():
    x = np.linspace(-3, 3, 1001)
    h = smooth_heaviside(x, 0.5)
    assert smooth_heaviside(0.0, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert np.max(np.abs(h + smooth_heaviside(-x, 0.5) - 1.0)) < 1e-12
    assert np.all(np.diff(h) >= 0)
    assert smooth_heaviside(-0.51, 0.5) == 0.0
    assert smooth_heaviside(0.51, 0.5) == 1.0


def test_smooth_heaviside_rejects_bad_eps():
    with pytest.raises(ValueError):
        smooth_heaviside(0.0, 0.0)


def test_mollify_preserves_constants(burgers):
    ident = dx.identity_transform(burgers)
    x = np.linspace(-2, 2, 257)
    v = mollify_initial(np.full(x.shape, 0.37), x, ident, eps=0.25)
    assert np.max(np.abs(v - 0.37)) < 1e-14


def test_mollify_steady_connection_becomes_flat(burgers, demo_connection):
    conn, pair = demo_connection
    x = -2 + (np.arange(256) + 0.5) * (4 / 256)
    u0 = dx.steady_connection_state(burgers, conn, x)
    v = mollify_initial(u0, x, pair, eps=0.125)
    assert np.max(np.abs(v - pair.c)) < 1e-13


def test_mollify_does_not_increase_variation(burgers):
    rng = np.random.default_rng(23)
    ident = dx.identity_transform(burgers)
    x = np.linspace(-2, 2, 321)
    for _ in range(5):
        u0 = random_step_profile(rng)(x)
        v = mollify_initial(u0, x, ident, eps=0.2)
        assert np.sum(np.abs(np.diff(v))) <= np.sum(np.abs(np.diff(u0))) + 1e-12


# ------------------------------------------------------------ configuration

def test_config_validation():
    with pytest.raises(ValueError):
        dx.SolverConfig(cells=4)
    for cfl in (1.0, 0.0, -0.5):
        with pytest.raises(ValueError, match="cfl_hyperbolic"):
            dx.SolverConfig(cfl_hyperbolic=cfl)
    for bad in ({"cells": 100.5}, {"snapshots": 3.5}, {"cells": True}, {"cells": np.float64(128.0)},
                {"cells": np.bool_(True)}, {"snapshots": np.bool_(True)}):
        with pytest.raises(ValueError, match="must be an integer"):
            dx.SolverConfig(**bad)
    with pytest.raises(ValueError):
        dx.SolverConfig(snapshots=1)
    with pytest.raises(ValueError):
        dx.SolverConfig(eps=1.5)  # wider than a quarter domain
    cfg = dx.SolverConfig(cells=128)
    assert cfg.resolved_eps() == pytest.approx(8 * cfg.dx)
    assert len(cfg.centers()) == 128 and len(cfg.faces()) == 129


@pytest.mark.parametrize("bad", [
    {"t_end": np.inf}, {"half_width": np.nan}, {"half_width": np.inf}, {"eps": np.nan},
    {"eps": -np.inf}, {"half_width": "2"}, {"t_end": None}, {"cfl_hyperbolic": np.nan},
    {"cfl_hyperbolic": "0.5"}, {"cfl_hyperbolic": None},
    # bool is a numbers.Real; True must not pass as a width of 1
    {"half_width": True}, {"t_end": True}, {"t_end": False}, {"eps": True}, {"cfl_hyperbolic": True},
], ids=repr)
def test_config_rejects_non_numbers(bad):
    (name,) = bad
    with pytest.raises(ValueError, match=f"{name} must be a finite number, got {bad[name]!r}"):
        dx.SolverConfig(**bad)


@pytest.mark.parametrize("bad, message", [
    ({"half_width": 0.0}, "half_width must be positive and t_end non-negative"),
    ({"half_width": -2.0}, "half_width must be positive and t_end non-negative"),
    ({"t_end": -0.1}, "half_width must be positive and t_end non-negative"),
    ({"eps": 0.0}, "eps must be positive"),
    ({"eps": -0.1}, "eps must be positive"),
    # a quarter of the half width, but eps * half_width = 4
    ({"half_width": 8.0, "eps": 0.5}, r"eps \* half_width must stay at or below 1"),
    # the default eps = 8 * dx = 1.0 is wider than a quarter of the half width
    ({"cells": 32}, "eps must not exceed a quarter of the half width"),
], ids=repr)
def test_config_rejects_out_of_range_numbers(bad, message):
    # a config that no solve could use fails when it is made, not when it is solved
    with pytest.raises(ValueError, match=message):
        dx.SolverConfig(**bad)


def test_config_takes_numpy_integers():
    # a cell count computed with numpy is a count; it is stored as an int,
    # so the config and its run hash are those of the plain int
    cfg = dx.SolverConfig(cells=np.int64(128), snapshots=np.int32(9))
    plain = dx.SolverConfig(cells=128, snapshots=9)
    assert cfg == plain
    assert type(cfg.cells) is int and type(cfg.snapshots) is int
    assert dx.runio.config_hash(cfg.to_dict()) == dx.runio.config_hash(plain.to_dict())
    assert replace(cfg, cells=np.uint16(256)).cells == 256


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



def test_solution_field_checks_the_shape_of_u(burgers):
    # a u one cell short used to be accepted, and a report on it then failed
    # in a matrix product
    field = dx.solve(burgers, np.full(64, 0.5), config=dx.SolverConfig(cells=64, t_end=0.01))
    for u in (field.u[:, :-1], field.u[:-1], field.u[-1]):
        with pytest.raises(ValueError, match="snapshot array shape mismatch"):
            replace(field, u=u)
    # u and v must be config.cells wide, also when they agree with each other
    for arrays in ({"v": field.v[:, :-1]}, {"u": field.u[:, :-1], "v": field.v[:, :-1]},
                   {"config": replace(field.config, cells=128)}):
        with pytest.raises(ValueError, match="snapshot array shape mismatch"):
            replace(field, **arrays)

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


def test_zero_flux_takes_one_implicit_step():
    # nothing is transported, so the backward-Euler viscosity alone sets the
    # update and any step is monotone
    field = dx.solve(dx.get_flux("zero"), lambda x: np.where(np.asarray(x) <= 0, 0.2, 0.7),
                     config=dx.SolverConfig(cells=64, t_end=0.1))
    assert field.stats["steps"] == 1 and field.dt == 0.1
    assert field.mass[-1] == pytest.approx(field.mass[0], abs=1e-14)
    assert field.v.min() >= 0.2 - 1e-14 and field.v.max() <= 0.7 + 1e-14
    assert np.all(np.diff(field.v[-1]) >= 0.0)


def test_mass_balance_telescopes(demo_cross):
    rng = np.random.default_rng(31)
    field = dx.solve(demo_cross, random_step_profile(rng),
                     config=dx.SolverConfig(cells=128, t_end=0.2))
    drift = field.mass - field.mass[0] + field.boundary_flux[:, 1] - field.boundary_flux[:, 0]
    assert np.max(np.abs(drift)) < 1e-12


def test_time_step_is_free_of_the_transform_slope(burgers, demo_connection):
    # The faces dissipate in their own density, so the connection's transform
    # slopes (0.375 to 1.5) leave the interior bound cfl * dx / c alone; only
    # a narrow smoothing band, whose few cells see steep blend weights, binds.
    _, pair = demo_connection
    cfg = dx.SolverConfig(cells=1024, t_end=0.5)
    st_ident = _stepper(burgers, dx.identity_transform(burgers), cfg)
    st_conn = _stepper(burgers, pair, cfg)
    assert st_conn.suggest_dt() == st_ident.suggest_dt()
    assert st_conn.interior_dt < st_conn.band_dt
    narrow = _stepper(burgers, pair, replace(cfg, eps=cfg.dx))
    assert narrow.band_dt < narrow.interior_dt
    assert math.ceil(0.5 / narrow.suggest_dt()) == 186


def test_time_step_is_the_sharp_monotone_bound(burgers, demo_swapped, demo_connection):
    # c is the largest |f'| and |g'| in u, read here off the flux branches
    # themselves (the connection and identity transforms cover all of [a, b])
    c = max(float(np.max(np.abs(np.diff(b.y) / np.diff(b.x)))) for b in (burgers.f, burgers.g))
    for name, st in _steppers(burgers, demo_swapped, demo_connection).items():
        if name != "translation":
            assert st.speed_max == pytest.approx(c, rel=1e-12), name
        band = st.dx / st.band_rate if st.band_rate > 0.0 else math.inf
        sharp = min(st.cfg.cfl_hyperbolic * st.dx / st.speed_max, band)
        assert st.suggest_dt() == pytest.approx(sharp, rel=1e-14), name


def test_band_bound_is_sharp(burgers, demo_connection):
    # At eps = 1 dx the band sets the step.  m*_j is piecewise linear in v_j,
    # with a slope that depends on v_j alone, so the differences of m*_j over
    # the nodes of the flux lattice give its every slope; at dx / band_rate
    # they must all be non-negative, and a step 5 % longer must make one of
    # them clearly negative.
    cfg = dx.SolverConfig(cells=256, eps=4.0 / 256, t_end=0.0)
    st = _stepper(burgers, demo_connection[1], cfg)
    assert st.band_dt < st.interior_dt
    nodes = st.vgrid
    v = np.full(cfg.cells, 0.5)
    worst = {1.0: math.inf, 1.05: math.inf}
    for j in np.flatnonzero(st.w_face[:-1] != st.w_face[1:]):
        m_j, flux_jump = np.empty(len(nodes)), np.empty(len(nodes))
        for i, node in enumerate(nodes):
            v[j] = node
            m = st.conserved(v)[0]
            m_j[i], flux_jump[i] = m[j], np.diff(st.face_fluxes(v, m))[j]
        v[j] = 0.5
        for share in worst:
            m_star = m_j - (share * st.suggest_dt() / st.dx) * flux_jump
            worst[share] = min(worst[share], float(np.min(np.diff(m_star) / np.diff(nodes))))
    assert worst[1.0] >= -1e-13
    assert worst[1.05] < -1e-2


@pytest.mark.parametrize("kind, cells, steps", [
    ("connection", 1024, 160),      # benchmark workload connection-interface
    ("identity", 1024, 160),        # riemann-oracle
    ("translation", 128, 40),       # cli-batch
])
def test_benchmark_step_counts(small_problems, kind, cells, steps):
    flux, transform = small_problems[kind]
    st = _stepper(flux, transform, dx.SolverConfig(cells=cells, t_end=0.5))
    assert math.ceil(0.5 / st.suggest_dt()) == steps


def test_stats_record_the_step_rule(demo_swapped):
    pair = dx.build_translation_transform(demo_swapped)
    u0 = lambda x: np.where(np.asarray(x) <= 0, 0.3, 0.7)
    field = dx.solve(demo_swapped, u0, pair, dx.SolverConfig(cells=128, t_end=0.5))
    stats = field.stats
    assert stats["steps"] == 40
    assert field.dt == 0.5 / 40
    stepper = _stepper(demo_swapped, pair, dx.SolverConfig(cells=128, t_end=0.5))
    assert (stats["speed_max"], stats["band_rate"]) == (stepper.speed_max, stepper.band_rate)
    assert stats["dt_limit"] == "interior"
    assert not {"parabolic_rate", "slope_min", "hyperbolic_rate"} & set(stats)
    assert stats["steps"] <= stats["newton_iterations"] <= stats["steps"] * stats["newton_max"]
    assert 1 <= stats["factorizations"] <= stats["newton_iterations"]
    assert math.isfinite(stats["invert_margin"])
    assert stats["invert_margin"] >= -stepper.slack


def test_stats_name_the_band_when_it_binds(burgers, demo_connection):
    cfg = dx.SolverConfig(cells=64, eps=4.0 / 64, t_end=0.05)
    field = dx.solve(burgers, lambda x: np.where(np.asarray(x) <= 0, 0.8, 0.4), demo_connection[1], cfg)
    stepper = _stepper(burgers, demo_connection[1], cfg)
    assert field.stats["dt_limit"] == "band"
    assert field.stats["steps"] == math.ceil(cfg.t_end / stepper.band_dt)


def _steppers(burgers, demo_swapped, demo_connection):
    _, conn = demo_connection
    cfg = dx.SolverConfig(cells=128, t_end=0.0)
    return {
        "connection": _stepper(burgers, conn, cfg),
        "identity": _stepper(burgers, dx.identity_transform(burgers), cfg),
        "translation": _stepper(demo_swapped, dx.build_translation_transform(demo_swapped), cfg),
        # eps below half a cell: no centre lies inside the smoothing band
        "empty band": _stepper(burgers, conn, dx.SolverConfig(cells=64, eps=0.01, t_end=0.0)),
    }


@pytest.fixture(scope="module")
def fixed_steppers(burgers, demo_swapped, demo_connection):
    return _steppers(burgers, demo_swapped, demo_connection)


def _invert(st, m_star):
    """The implicit solve of ``m_star``, started from the middle of the table."""
    v = np.full(len(m_star), 0.5 * (st.ugrid[0] + st.ugrid[-1]))
    return st.invert_conserved(m_star, st.eps * st.suggest_dt() / st.dx**2, v, *st.conserved(v))


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
def test_lookup_returns_the_segment_slope_and_density(burgers, fixed_steppers, pair, eps, seed):
    # the band width eps sets how many cells see a blend weight strictly inside (0, 1)
    steppers = dict(fixed_steppers, random=_stepper(burgers, pair, dx.SolverConfig(cells=64, eps=eps, t_end=0.0)))
    band = {name: np.count_nonzero((st.w_cell > 0.0) & (st.w_cell < 1.0)) for name, st in steppers.items()}
    assert band["connection"] > 0 and band["empty band"] == 0
    rng = np.random.default_rng(seed)
    for name, st in steppers.items():
        w, n = st.w_cell, len(st.w_cell)
        cells = np.arange(n)
        rows = w[:, None] * st.alpha_tab + (1.0 - w[:, None]) * st.beta_tab
        lo, hi = st.ugrid[0], st.ugrid[-1]
        for v in (rng.uniform(lo, hi, size=n), st.ugrid[rng.integers(0, len(st.ugrid), size=n)],
                  np.full(n, lo), np.full(n, hi)):
            m, seg, slope = st.conserved(v)
            assert np.all(st.ugrid[seg] <= v) and np.all(v <= st.ugrid[seg + 1]), name
            secant = (rows[cells, seg + 1] - rows[cells, seg]) / (st.ugrid[seg + 1] - st.ugrid[seg])
            assert np.array_equal(slope, secant), name
            # the blend of the two interpolants that l1_distances still uses
            blended = dx.solver.conserved_density(v, w, st.table)
            assert np.max(np.abs(m - blended)) <= 4 * np.finfo(float).eps * st.scale, name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_density_raises(small_problems, bad):
    # a NaN passes every "m < lo" test; it must fail the range check anyway,
    # not reach Newton, whose "residual > tol" test it also passes
    for kind, (flux, transform) in small_problems.items():
        st = _stepper(flux, transform, dx.SolverConfig(cells=64, t_end=0.0))
        m = 0.5 * (st.lo_val + st.hi_val)
        m[20] = bad
        with pytest.raises(StabilityError, match="left the invertible range"):
            _invert(st, m)
        v = np.full(64, 0.5 * (st.ugrid[0] + st.ugrid[-1]))
        v[20] = bad
        with pytest.raises(StabilityError, match="left the invertible range"):
            st.step(v, st.suggest_dt(), st.conserved(v))


@pytest.mark.parametrize("side", ["below", "above"])
def test_inversion_raises_just_beyond_the_slack(fixed_steppers, side):
    for name, st in fixed_steppers.items():
        i = len(st.lo_val) // 2 + 3   # right of the interface, inside the band when there is one
        m = 0.5 * (st.lo_val + st.hi_val)
        # inside the range the margin is m*'s least distance to its bounds
        direct = min(np.min(m - st.lo_val), np.min(st.hi_val - m))
        assert _invert(st, m)[2] == pytest.approx(direct, rel=0.0, abs=4 * np.finfo(float).eps * st.scale)
        # at the slack edge is accepted, with the margin -slack
        m[i] = st.lo_val[i] - st.slack if side == "below" else st.hi_val[i] + st.slack
        v, _, margin, _ = _invert(st, m)
        assert st.ugrid[0] <= v[i] <= st.ugrid[-1], name
        assert margin == pytest.approx(-st.slack, rel=1e-6), name
        m[i] = np.nextafter(m[i], -np.inf if side == "below" else np.inf)
        worst = st.lo_val[i] - m[i] if side == "below" else m[i] - st.hi_val[i]
        with pytest.raises(StabilityError) as got:
            _invert(st, m)
        assert str(got.value) == (f"conserved density left the invertible range by {worst:.3e}; "
                                  "reduce the time step or refine the grid"), name


def _states(st, rng):
    """States on flux and table nodes, at both table ends, across the interface and in between."""
    n, lo, hi = st.cfg.cells, st.ugrid[0], st.ugrid[-1]
    nodes = np.concatenate((st.vgrid, st.ugrid))
    yield _clustered_state(rng, lo, hi, n)
    yield nodes[rng.integers(0, len(nodes), size=n)]
    yield np.where(st.cfg.centers() <= 0.0, hi, lo)
    yield np.full(n, lo)
    yield np.full(n, hi)


@pytest.mark.parametrize("name", ["connection", "identity", "translation", "empty band", "no blended face"])
def test_face_fluxes_read_one_branch_off_the_band(fixed_steppers, burgers, demo_connection, name):
    # A face with w_+ = 0 or 1 reads one branch only; the fluxes must equal,
    # bit for bit, blending both branches at every face.
    if name == "no blended face":
        # odd cells put the interface at a centre; eps below half a cell keeps every face off the band
        cfg = dx.SolverConfig(cells=129, eps=0.3 * 4.0 / 129, t_end=0.0)
        st = _stepper(burgers, demo_connection[1], cfg)
        assert np.all((st.w_face == 0.0) | (st.w_face == 1.0))
    else:
        st = fixed_steppers[name]
    # every cell and face left of the band has weight exactly 0, every one right of it 1
    for weights, band in ((st.w_face, st.band_faces), (st.w_cell, st.band_cells)):
        assert band.stop > band.start, name
        assert np.all(weights[:band.start] == 0.0) and np.all(weights[band.stop:] == 1.0), name
    assert np.any((st.w_face > 0.0) & (st.w_face < 1.0)) == (name != "no blended face")
    w = st.w_face
    rng = np.random.default_rng(5)
    for v in _states(st, rng):
        m = st.conserved(v)[0]
        vx = np.concatenate(([v[0]], v, [v[-1]]))
        fa_v = np.interp(vx, st.vgrid, st.fa_tab)
        gb_v = np.interp(vx, st.vgrid, st.gb_tab)
        left = w * fa_v[:-1] + (1.0 - w) * gb_v[:-1]
        right = w * fa_v[1:] + (1.0 - w) * gb_v[1:]
        jump = np.zeros(len(v) + 1)
        jump[1:-1] = np.diff(m)
        d = np.interp(v[st.band_cells], st.ugrid, st.d_tab)
        jump[st.band_faces] += st.right_gap * d[1:] - st.left_gap * d[:-1]
        want = 0.5 * (left + right) - 0.5 * st.speed_max * jump
        assert np.array_equal(st.face_fluxes(v, m), want), name


def test_inversion_returns_the_lookup_of_its_result(fixed_steppers):
    # The lookup that invert_conserved returns for the next step must be
    # conserved(v) of its clipped result, bit for bit: from Newton iterates
    # that leave the table at either end, that land on nodes, and from a
    # start that is already solved but lies just outside the table.
    rng = np.random.default_rng(23)
    for name, st in fixed_steppers.items():
        n, lo, hi = st.cfg.cells, st.ugrid[0], st.ugrid[-1]
        kappa = st.eps * st.suggest_dt() / st.dx**2
        mid = np.full(n, 0.5 * (lo + hi))
        # m* just past both ends of its range, within the slack
        m = np.where(st.cfg.centers() <= 0.0, st.lo_val - st.slack, st.hi_val + st.slack)
        problems = [(m, mid)]
        # the equations that states on the nodes solve, their m* held in the range
        for v in _states(st, rng):
            m_star = st.conserved(v)[0] + kappa * st.neumann_stencil(v)
            problems.append((np.clip(m_star, st.lo_val, st.hi_val), mid))
        # a constant start has no viscous term, so when it solves its own
        # equation there is no Newton step: just past an end it is only
        # clipped, and on a node it stays there
        for edge, sign in ((lo, -1.0), (hi, 1.0)):
            v = np.full(n, edge + sign * 1e-13 * (hi - lo))
            problems.append((st.conserved(v)[0], v))
        for node in st.inner_nodes[::max(1, len(st.inner_nodes) // 8)]:
            v = np.full(n, node)
            problems += [(st.conserved(v)[0], v), (st.conserved(v)[0], mid)]
        clipped = on_node = 0
        for m_star, v0 in problems:
            v, _, _, lookup = st.invert_conserved(m_star, kappa, v0.copy(), *st.conserved(v0))
            assert np.all((lo <= v) & (v <= hi)), name
            clipped += int(np.any((v == lo) | (v == hi)))
            on_node += int(np.count_nonzero(np.isin(v, st.inner_nodes)))
            for got, want in zip(lookup, st.conserved(v)):
                assert np.array_equal(got, want), name
        assert clipped >= 3, name
        assert on_node >= n * min(8, len(st.inner_nodes)), name


# ------------------------------------------------ monotonicity at suggest_dt

@pytest.fixture(scope="module")
def small_problems(burgers, demo_swapped, demo_connection):
    return {
        "connection": (burgers, demo_connection[1]),
        "identity": (burgers, dx.identity_transform(burgers)),
        "translation": (demo_swapped, dx.build_translation_transform(demo_swapped)),
    }


def _clustered_state(rng, lo, hi, cells):
    """Random plateaus with small ripples, so that faces see states in the
    same or neighbouring flux segments as well as far-apart ones."""
    levels = rng.uniform(lo, hi, size=int(rng.integers(2, 8)))
    v = levels[rng.integers(0, len(levels), size=cells)]
    v = np.sort(v) if rng.uniform() < 0.5 else v
    return np.clip(v + rng.normal(0.0, 1e-3 * (hi - lo), size=cells), lo, hi)


def _assert_monotone_step(st, rng):
    """Raising one cell of a random state lowers no cell's density, neither
    after the step's explicit half (the part ``suggest_dt`` bounds) nor
    after the whole step.

    Three random cells are raised, and then every band cell, where the two
    faces' blend weights differ and so ``band_rate`` can bind, from four
    states in which the band cells take values drawn across the table.
    """
    cells = st.cfg.cells
    lo, hi = st.ugrid[0], st.ugrid[-1]
    v = _clustered_state(rng, lo, hi, cells)
    dt = st.suggest_dt()

    def densities(v):
        v_new, phi = st.step(v, dt, st.conserved(v))[:2]
        # m* before the implicit solve, then m_new up to Newton's rounding
        return st.conserved(v)[0] - (dt / st.dx) * np.diff(phi), st.conserved(v_new)[0]

    def assert_raising_is_monotone(v, raised):
        before = densities(v)
        for j in raised:
            up = v.copy()
            up[j] = min(hi, v[j] + (hi - lo) * 10.0 ** rng.uniform(-6, 0))
            for half, new, old in zip(("explicit", "step"), densities(up), before):
                dm = new - old
                assert dm.min() >= -1e-13, (half, j, float(dm.min()))

    assert_raising_is_monotone(v, rng.choice(cells, size=3, replace=False))
    band = np.flatnonzero(st.w_face[:-1] != st.w_face[1:])
    for _ in range(4):
        v[band] = rng.uniform(lo, hi, size=band.size)
        assert_raising_is_monotone(v, band)


@settings(max_examples=60, deadline=None)
@given(kind=st_.sampled_from(["connection", "identity", "translation"]),
       cells=st_.sampled_from([64, 96, 128, 1024]),
       eps_cells=st_.sampled_from([None, 1.0, 2.0]),   # None: the default 8 dx
       seed=st_.integers(0, 2**32 - 1))
@example(kind="connection", cells=64, eps_cells=1.0, seed=0)   # band_rate binds here
def test_step_is_monotone_at_the_suggested_dt(small_problems, kind, cells, eps_cells, seed):
    flux, transform = small_problems[kind]
    eps = None if eps_cells is None else eps_cells * 4.0 / cells
    st = _stepper(flux, transform, dx.SolverConfig(cells=cells, eps=eps, t_end=0.0))
    _assert_monotone_step(st, np.random.default_rng(seed))


def test_step_is_monotone_on_kinked_tables(burgers):
    rng = np.random.default_rng(47)
    for st, _ in _kinked_problems(burgers):
        _assert_monotone_step(st, rng)


def test_step_is_monotone_across_a_breakpoint(small_problems):
    # v_j crosses a flux breakpoint next to a neighbour two segments away,
    # where a dissipation speed picked per face from the two states would jump
    flux, transform = small_problems["identity"]
    st = _stepper(flux, transform, dx.SolverConfig(cells=128, t_end=0.0))
    g, k, j = st.vgrid, 3000, 64
    v = np.full(128, 0.5 * (g[k] + g[k + 1]))
    v[j + 1:] = 0.5 * (g[k + 2] + g[k + 3])
    below, above = v.copy(), v.copy()
    below[j], above[j] = g[k + 1] - 1e-9, g[k + 1] + 1e-9
    dt = st.suggest_dt()
    dm = (st.conserved(st.step(above, dt, st.conserved(above))[0])[0]
          - st.conserved(st.step(below, dt, st.conserved(below))[0])[0])
    assert dm[j] > 0.0
    assert dm.min() >= -1e-13


# ------------------------------------------------------ implicit viscosity

@settings(max_examples=60, deadline=None)
@given(n=st_.integers(1, 300), seed=st_.integers(0, 2**32 - 1))
@example(n=1, seed=0)
@example(n=2, seed=1)
@example(n=3, seed=2)
@example(n=64, seed=3)
@example(n=65, seed=4)
@example(n=128, seed=5)
@example(n=129, seed=6)
@example(n=1024, seed=7)   # the benchmark's grid: four reduction levels, then a sweep
def test_tridiagonal_solve_matches_dense(n, seed):
    # strictly diagonally dominant, by a margin of at least 1/200 of the
    # coupling, so the condition number stays below about 800
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    off = rng.uniform(-1.0, 1.0, n - 1) * scale
    coupling = np.concatenate(([0.0], np.abs(off))) + np.concatenate((np.abs(off), [0.0]))
    diag = (coupling + rng.uniform(0.01, 2.0, n) * scale) * rng.choice([-1.0, 1.0])
    rhs = rng.normal(size=n)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    got = _apply_factors(_factor_tridiagonal(off, diag), rhs)
    want = np.linalg.solve(dense, rhs)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
    # one factorization serves every right-hand side, bit for bit, and
    # applying it leaves the factors, the matrix and the rhs as they were
    factors = _factor_tridiagonal(off, diag)
    matrix = (off.copy(), diag.copy())
    for rhs in [rhs, *rng.normal(size=(3, n)) * 10.0 ** rng.uniform(-3, 3, size=(3, 1)), rhs]:
        before = rhs.copy()
        assert np.array_equal(_apply_factors(factors, rhs), _apply_factors(_factor_tridiagonal(off, diag), rhs))
        assert np.array_equal(rhs, before)
    assert np.array_equal(off, matrix[0]) and np.array_equal(diag, matrix[1])


def _backward_euler_step(st, v, dt):
    """One step, checked to solve its backward-Euler equation to rounding.

    Returns the new state, the face fluxes and the residual's scale.  The
    step also returns the new state's lookup, which must be ``conserved``'s.
    """
    v_new, phi, _, _, lookup = st.step(v, dt, st.conserved(v))
    for got, want in zip(lookup, st.conserved(v_new)):
        assert np.array_equal(got, want)
    kappa = st.eps * dt / st.dx**2
    m_star = st.conserved(v)[0] - (dt / st.dx) * np.diff(phi)
    lap = (np.concatenate((v_new[1:], v_new[-1:])) - 2.0 * v_new
           + np.concatenate((v_new[:1], v_new[:-1])))   # zero-gradient ghosts
    scale = st.scale + 4.0 * kappa * st.v_mag
    resid = st.conserved(v_new)[0] - kappa * lap - m_star
    assert np.max(np.abs(resid)) <= 1e-13 * scale
    return v_new, phi, scale


@settings(max_examples=30, deadline=None)
@given(kind=st_.sampled_from(["connection", "identity", "translation"]),
       cells=st_.sampled_from([64, 96, 128, 1024]), seed=st_.integers(0, 2**32 - 1))
def test_step_solves_its_backward_euler_equation(small_problems, kind, cells, seed):
    flux, transform = small_problems[kind]
    st = _stepper(flux, transform, dx.SolverConfig(cells=cells, t_end=0.0))
    v = _clustered_state(np.random.default_rng(seed), st.ugrid[0], st.ugrid[-1], cells)
    dt = st.suggest_dt()
    v_new, phi, scale = _backward_euler_step(st, v, dt)
    # the viscous term sums to zero, so only the boundary faces move the mass
    gap = np.sum(st.conserved(v_new)[0]) - np.sum(st.conserved(v)[0]) + (dt / st.dx) * (phi[-1] - phi[0])
    assert abs(gap) <= 1e-13 * scale


def _kinked_problems(burgers):
    """60 steppers on random tables with up to 40 kinks, each with a state.

    A fixed seed, not hypothesis, so that a failure cannot shrink into a
    different case from run to run.
    """
    rng = np.random.default_rng(29)

    def table(size):
        nodes = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, size))))
        return nodes / nodes[-1]

    for _ in range(60):
        maps = [dx.MonotoneBijection(table(size), table(size))
                for size in rng.integers(1, 41, size=2)]
        cells = int(rng.choice([64, 96, 128, 1024]))
        cfg = dx.SolverConfig(cells=cells, eps=float(rng.uniform(0.5, 8.0)) * 4.0 / cells, t_end=0.0)
        st = _stepper(burgers, dx.TransformPair(*maps), cfg)
        yield st, _clustered_state(rng, st.ugrid[0], st.ugrid[-1], cells)


def test_reused_factors_match_a_fresh_stepper(small_problems):
    # A stepper keeps its last linearization.  Stepped through unrelated
    # states of every problem at two time steps, each in turn, and carrying
    # each step's lookup into the next as solve does, it must give exactly
    # what a fresh stepper gives for each call alone.
    rng = np.random.default_rng(17)
    for kind, (flux, transform) in small_problems.items():
        cfg = dx.SolverConfig(cells=128, t_end=0.0)
        kept = _stepper(flux, transform, cfg)
        lo, hi = kept.ugrid[0], kept.ugrid[-1]
        states = [_clustered_state(rng, lo, hi, cfg.cells) for _ in range(4)]
        states += [np.full(cfg.cells, 0.5 * (lo + hi)), np.where(cfg.centers() <= 0, hi, lo)]
        dts = (kept.suggest_dt(), kept.suggest_dt() / 3.0)
        fresh_count = 0
        for i, state in enumerate(states * 2):
            v, lookup = state, kept.conserved(state)
            for dt in (dts[i % 2], dts[i % 2], dts[(i + 1) % 2]):
                fresh = _stepper(flux, transform, cfg)
                want = fresh.step(v, dt, fresh.conserved(v))
                got = kept.step(v, dt, lookup)
                fresh_count += fresh.factorizations
                for a, b in zip((*got[:4], *got[4]), (*want[:4], *want[4])):
                    assert np.array_equal(a, b), kind
                v, lookup = got[0], got[4]
        # the comparison means something only if the reuse happened
        assert 0 < kept.factorizations < fresh_count, kind
        # the same segments at another kappa are another matrix
        slope, rhs = rng.uniform(1.0, 2.0, cfg.cells), rng.normal(size=cfg.cells)
        seg = np.zeros(cfg.cells, dtype=np.intp)
        for kappa in (0.5, 0.25, 0.25, 0.5):
            want = _apply_factors(
                _factor_tridiagonal(np.full(cfg.cells - 1, -kappa), slope + kappa * kept.lap_diag), rhs)
            lower, upper, factors = kept._linearization(kappa, seg, slope.copy())
            assert np.array_equal(_apply_factors(factors, rhs), want), kind
            assert np.array_equal(lower, kept.seg_lower[seg]) and np.array_equal(upper, kept.seg_upper[seg])


def test_solve_counts_its_factorizations(small_problems):
    # one matrix for a whole identity solve; on the connection table a step
    # usually starts on the matrix its previous step ended on.  Both counts
    # are exact, so they change only when the scheme's iterates do.
    riemann = lambda ul, ur: lambda x: np.where(np.asarray(x) <= 0, ul, ur)
    cfg = dx.SolverConfig(cells=1024, t_end=0.5)
    flux, ident = small_problems["identity"]
    stats = dx.solve(flux, riemann(0.7, 0.2), ident, cfg).stats
    assert (stats["steps"], stats["newton_iterations"], stats["factorizations"]) == (160, 160, 1)
    flux, conn = small_problems["connection"]
    stats = dx.solve(flux, riemann(0.8, 0.4), conn, cfg).stats
    assert (stats["steps"], stats["newton_iterations"], stats["factorizations"]) == (160, 326, 167)


@pytest.mark.parametrize("kind", ["identity", "translation", "connection"])
def test_segment_search_on_interior_nodes(small_problems, kind):
    # conserved() counts the interior nodes at or below v; that is the last
    # node at or below v, capped to a segment of the table, NaN included
    flux, transform = small_problems[kind]
    st = _stepper(flux, transform, dx.SolverConfig(cells=64, t_end=0.0))
    ugrid = st.ugrid
    span = ugrid[-1] - ugrid[0]
    v = np.concatenate((ugrid, np.nextafter(ugrid, -np.inf), np.nextafter(ugrid, np.inf),
                        0.5 * (ugrid[1:] + ugrid[:-1]),
                        [ugrid[0] - span, ugrid[0] - 1e-300, ugrid[-1] + 1e-9, ugrid[-1] + span,
                         -np.inf, np.inf, np.nan]))
    v = np.resize(v, -(-len(v) // 64) * 64).reshape(-1, 64)
    for row in v:
        old = np.clip(np.searchsorted(ugrid, row, side="right") - 1, 0, len(ugrid) - 2)
        _, seg, slope = st.conserved(row)
        assert np.array_equal(seg, old), kind
        # the slope table's NaN padding column is never read
        assert np.all(np.isfinite(slope)), kind
    assert len(st.inner_nodes) == len(ugrid) - 2
    if kind == "identity":
        assert len(ugrid) == 2


@pytest.mark.parametrize("kind", ["identity", "translation", "connection"])
def test_bracket_test_agrees_with_the_segment_search(small_problems, kind):
    # invert_conserved tests each v against the nodes that _linearization
    # gathers for its segment before it searches.  On nodes, beside them,
    # off both table ends and at -inf, the test must hold for the segment
    # the search gives and for no other; +inf and NaN fail it for every
    # segment, though the search puts them on the last one, so only there
    # does the search decide
    flux, transform = small_problems[kind]
    ugrid = transform.table()[0]
    span = ugrid[-1] - ugrid[0]
    v = np.concatenate((ugrid, np.nextafter(ugrid, -np.inf), np.nextafter(ugrid, np.inf),
                        0.5 * (ugrid[1:] + ugrid[:-1]),
                        [ugrid[0] - span, ugrid[-1] + span, -np.inf, np.inf, np.nan]))
    # one cell per v, so that the matrix the brackets come with has a row for each
    v = np.resize(v, max(len(v), 64))
    st = _stepper(flux, transform, dx.SolverConfig(cells=len(v), t_end=0.0))
    last = len(st.inner_nodes)
    seg = np.searchsorted(st.inner_nodes, v, side="right")
    bracketable = ~np.isnan(v) & (v != np.inf)
    assert np.all(seg[~bracketable] == last)   # the search puts +inf and NaN on the last segment
    slope = np.ones(len(v))
    for other in (seg, seg.copy(), np.zeros_like(seg), np.full_like(seg, last),
                  np.maximum(seg - 1, 0), np.minimum(seg + 1, last)):
        lower, upper, _ = st._linearization(1.0, other, slope)
        held = (lower <= v) & (v < upper)
        assert np.array_equal(held, (other == seg) & bracketable), kind


@pytest.mark.parametrize("kind", ["identity", "translation", "connection"])
def test_block_bookkeeping_matches_a_per_step_loop(small_problems, kind):
    # solve reduces c1 and c2 once per block of steps; every value must be
    # what a loop that computes them after each step gives, to the bit
    flux, transform = small_problems[kind]
    base = dx.SolverConfig(cells=128, t_end=0.0)
    dt_raw = _stepper(flux, transform, base).suggest_dt()
    x = base.centers()
    u0 = np.where(x <= 0.0, 0.7, 0.3) + 0.05 * np.sin(7.0 * x)
    for nsteps in (0, 1, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 160):
        cfg = replace(base, t_end=(nsteps - 0.5) * dt_raw if nsteps else 0.0)
        field = dx.solve(flux, u0, transform, cfg)
        assert field.stats["steps"] == nsteps
        st = _stepper(flux, transform, cfg)
        v = mollify_initial(u0, x, transform, st.eps)
        lookup = st.conserved(v)
        c1 = c2 = 0.0
        for _ in range(nsteps):
            v_new, _, _, _, lookup = st.step(v, field.dt, lookup)
            c1 = max(c1, float(np.sum(np.abs(v_new - v))) * cfg.dx / field.dt)
            grad = (v[1:] - v[:-1]) / cfg.dx
            c2 = max(c2, st.eps * float(np.sum(grad**2)) * cfg.dx)
            v = v_new
        assert (field.stats["c1"], field.stats["c2"]) == (c1, c2), (kind, nsteps)
        assert np.array_equal(field.v[-1], v), (kind, nsteps)
        assert (c1 > 0.0 and c2 > 0.0) == (nsteps > 0)


def test_newton_converges_on_kinked_tables(burgers):
    # Tables with many kinks make an undamped Newton step overshoot into a
    # cycle between segments; the backtracking must break every such cycle.
    for st, v in _kinked_problems(burgers):
        dt = st.suggest_dt()
        for _ in range(5):
            v = _backward_euler_step(st, v, dt)[0]


def test_newton_stops_on_a_node(burgers, demo_connection):
    # The steady connection level v = c is a table node.  Cells sitting on it
    # come back within rounding of it and flip between the segments on either
    # side, so the active set never settles; the rounding-level residual must
    # end the iteration instead.
    conn, pair = demo_connection
    cfg = dx.SolverConfig(cells=128, t_end=0.15, eps=0.05)
    st = _stepper(burgers, pair, cfg)
    x = cfg.centers()
    u0 = np.where(np.abs(x) < 1, 0.55, dx.steady_connection_state(burgers, conn, x))
    v = mollify_initial(u0, x, pair, st.eps)
    assert pair.c in st.ugrid
    assert np.count_nonzero(v == pair.c) > 0
    v_new, _, iterations, _, lookup = st.step(v, cfg.t_end / 24, st.conserved(v))
    assert 1 <= iterations <= 3
    assert np.all(np.isfinite(v_new))
    for got, want in zip(lookup, st.conserved(v_new)):
        assert np.array_equal(got, want)


def test_newton_iteration_cap_raises(monkeypatch, small_problems):
    flux, transform = small_problems["connection"]
    st = _stepper(flux, transform, dx.SolverConfig(cells=64, t_end=0.0))
    v = np.linspace(0.1, 0.9, 64)
    assert st.step(v, st.suggest_dt(), st.conserved(v))[2] >= 2
    monkeypatch.setattr(dx.solver, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(StabilityError, match=r"did not converge in 1 Newton iterations \(worst residual"):
        st.step(v, st.suggest_dt(), st.conserved(v))


def test_tracer_wraps_methods_the_stepper_has():
    # the benchmark's tracer wraps these _Stepper methods by name, through
    # vars(_Stepper); a renamed or deleted one would break its traced runs
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    names = next(ast.literal_eval(node.value) for node in ast.walk(ast.parse(tracer.read_text()))
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["STEPPER_METHODS"])
    assert names
    assert [name for name in names if name not in vars(_Stepper)] == []


def test_no_scipy_on_import_or_solve(tmp_path):
    # scipy costs about 0.2 s and 27 MB to import, and numpy.ma, which
    # np.union1d imports on its first call, 11-18 ms; a solve, a run written
    # and read back and building the transforms need neither
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import discflux as dx\n"
        "cfg = dx.SolverConfig(cells=64, t_end=0.05)\n"
        "x = cfg.centers()\n"
        "flux = dx.get_flux('burgers-like')\n"
        "pair = dx.build_connection_transform(flux, dx.Connection(0.75, 0.25))\n"
        "dx.solve(flux, np.where(x <= 0, 0.8, 0.4), pair, cfg)\n"
        "flux = dx.get_flux('demo-swapped')\n"
        "field = dx.solve(flux, np.where(x <= 0, 0.3, 0.7), dx.build_translation_transform(flux), cfg)\n"
        "dx.read_run(dx.write_run(field, sys.argv[1]))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    src = str(Path(dx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _invariant_interval(st, v0):
    """A level interval [p, q] around v0 that no solution from v0 can leave.

    A constant state rises where f∘alpha < g∘beta, because the blended face
    flux then falls across every band cell, and falls where f∘alpha > g∘beta.
    So a constant p with f∘alpha(p) <= g∘beta(p) stays below the solution and
    a constant q with f∘alpha(q) >= g∘beta(q) stays above it; with one flux
    both hold at every level and [p, q] = [min v0, max v0].
    """
    gap = st.fa_tab - st.gb_tab
    p, q = float(v0.min()), float(v0.max())
    if np.interp(p, st.vgrid, gap) > 0:
        p = float(st.vgrid[(st.vgrid <= p) & (gap <= 0)].max())
    if np.interp(q, st.vgrid, gap) < 0:
        q = float(st.vgrid[(st.vgrid >= q) & (gap >= 0)].min())
    return p, q


@settings(max_examples=25, deadline=None)
@given(kind=st_.sampled_from(["connection", "identity", "translation"]),
       seed=st_.integers(0, 2**32 - 1))
def test_solve_obeys_the_discrete_maximum_principle(small_problems, kind, seed):
    flux, transform = small_problems[kind]
    cfg = dx.SolverConfig(cells=64, t_end=0.1)
    rng = np.random.default_rng(seed)
    lo, hi = np.sort(rng.uniform(flux.a, flux.b, size=2))
    field = dx.solve(flux, random_step_profile(rng, lo, hi), transform, cfg)
    p, q = _invariant_interval(_stepper(flux, transform, cfg), field.v[0])
    if kind == "identity":
        assert (p, q) == (field.v[0].min(), field.v[0].max())
    assert field.v.min() >= p - 1e-12
    assert field.v.max() <= q + 1e-12


@settings(max_examples=25, deadline=None)
@given(kind=st_.sampled_from(["connection", "identity", "translation"]),
       seed=st_.integers(0, 2**32 - 1))
def test_solves_contract_in_conserved_l1(small_problems, kind, seed):
    flux, transform = small_problems[kind]
    # data differ only on |x| < 0.5, and the run is too short for the
    # difference to reach the boundary cells, so no L1 enters from outside.
    # The implicit viscosity couples every cell, so the boundary fluxes agree
    # to rounding (not bit for bit) only far enough from the difference: each
    # backward-Euler step's response decays by about 0.78 per cell where the
    # connection's density is flattest (slope 0.375, kappa about 6 at the
    # default eps), so a difference on |x| < 0.75 reached the left boundary
    # at about 1e-13 within the run's 10 steps
    cfg = dx.SolverConfig(cells=512, t_end=0.06)
    rng = np.random.default_rng(seed)
    base, other = random_step_profile(rng), random_step_profile(rng)
    shift = float(rng.uniform(0.05, 0.3))
    inner = lambda x: np.abs(np.asarray(x)) < 0.5
    raised = lambda x: np.where(inner(x), np.minimum(base(x) + shift, flux.b), base(x))
    low = dx.solve(flux, base, transform, cfg)
    high = dx.solve(flux, raised, transform, cfg)
    mixed = dx.solve(flux, lambda x: np.where(inner(x), other(x), base(x)), transform, cfg)
    assert dx.ordering_preserved(low, high)
    for run in (high, mixed):
        assert np.max(np.abs(run.boundary_flux - low.boundary_flux)) <= 1e-15
        dist = dx.l1_distances(low, run, variable="conserved")
        assert dist[-1] > 0.0
        assert np.all(np.diff(dist) <= 1e-13), dist


def test_reconstruct_uses_left_branch_at_interface(demo_swapped):
    pair = dx.build_translation_transform(demo_swapped)
    x = np.array([-1.0, 0.0, 1.0])
    v = np.full(3, 0.4)
    u = reconstruct_u(v, x, pair)
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


def test_snapshot_times_do_not_depend_on_the_clamp(burgers):
    # solve draws at most nsteps + 1 snapshot points; the stored times are
    # those of the whole request
    cfg = dx.SolverConfig(cells=64, t_end=0.0)
    dt_raw = _stepper(burgers, dx.identity_transform(burgers), cfg).suggest_dt()
    cfg = replace(cfg, t_end=11.5 * dt_raw)
    nsteps = 12
    for snapshots in (2, 33, nsteps, nsteps + 1, nsteps + 2, 10**4):
        field = dx.solve(burgers, lambda x: np.where(np.asarray(x) <= 0, 0.7, 0.2),
                         config=replace(cfg, snapshots=snapshots))
        assert field.stats["steps"] == nsteps
        want = sorted(set(np.round(np.linspace(0, nsteps, snapshots)).astype(int).tolist()))
        assert np.array_equal(field.times, [n * field.dt for n in want]), snapshots
        assert len(field.times) == min(snapshots, nsteps + 1)


def test_snapshot_request_does_not_set_the_memory(burgers):
    # a one-step solve stores two states, however many snapshots it is asked for
    cfg = dx.SolverConfig(cells=64, t_end=0.0)
    dt_raw = _stepper(burgers, dx.identity_transform(burgers), cfg).suggest_dt()
    cfg = replace(cfg, t_end=0.5 * dt_raw, snapshots=10**6)
    u0 = lambda x: np.where(np.asarray(x) <= 0, 0.7, 0.2)
    tracemalloc.start()
    try:
        field = dx.solve(burgers, u0, config=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.stats["steps"] == 1 and len(field.times) == 2
    assert peak < 5 * 2**20, peak


def test_zero_time_returns_initial_state(burgers):
    field = dx.solve(burgers, lambda x: np.full(np.shape(x), 0.5),
                     config=dx.SolverConfig(cells=64, t_end=0.0))
    assert len(field.times) == 1
    assert field.stats["steps"] == 0 and field.stats["invert_margin"] is None
    assert field.stats["factorizations"] == 0
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
