"""Mollifier properties, scheme invariants, and refinement behaviour."""

import ast
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

import discflux as dx
from discflux.errors import StabilityError
from discflux.solver import _Stepper, _solve_tridiagonal

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
    for cfl in (1.0, 0.0, -0.5):
        with pytest.raises(ValueError, match="cfl_hyperbolic"):
            dx.SolverConfig(cfl_hyperbolic=cfl)
    for bad in ({"cells": 100.5}, {"snapshots": 3.5}, {"cells": True}):
        with pytest.raises(ValueError, match="must be an integer"):
            dx.SolverConfig(**bad)
    with pytest.raises(ValueError):
        dx.SolverConfig(snapshots=1)
    with pytest.raises(ValueError):
        dx.SolverConfig(eps=1.5).resolved_eps()  # wider than a quarter domain
    for bad in ({"t_end": np.inf}, {"half_width": np.nan}, {"half_width": np.inf},
                {"eps": np.nan}, {"eps": -np.inf}, {"half_width": "2"}, {"t_end": None}):
        (name,) = bad
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            dx.SolverConfig(**bad)
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


def test_time_step_uses_transform_slope(burgers, demo_connection):
    _, pair = demo_connection
    cfg = dx.SolverConfig(cells=128, t_end=0.0)
    st_ident = _Stepper(burgers, dx.identity_transform(burgers), cfg)
    st_conn = _Stepper(burgers, pair, cfg)
    assert st_ident.slope_min == pytest.approx(1.0)
    # flattest transform segment of the demo connection pair
    assert st_conn.slope_min == pytest.approx(0.375, abs=5e-3)
    assert st_conn.suggest_dt() < st_ident.suggest_dt()


def test_time_step_is_the_sharp_monotone_bound(burgers, demo_swapped, demo_connection):
    for name, st in _steppers(burgers, demo_swapped, demo_connection).items():
        cfg = st.cfg
        # the viscosity is implicit, so only the hyperbolic rate limits the step
        sharp = cfg.cfl_hyperbolic * st.slope_min / (st.speed_max / st.dx)
        assert st.suggest_dt() == pytest.approx(sharp, rel=1e-14), name


@pytest.mark.parametrize("kind, cells, steps", [
    ("connection", 1024, 640),      # benchmark workload connection-interface
    ("identity", 1024, 160),        # riemann-oracle
    ("translation", 128, 40),       # cli-batch
])
def test_benchmark_step_counts(small_problems, kind, cells, steps):
    flux, transform = small_problems[kind]
    st = _Stepper(flux, transform, dx.SolverConfig(cells=cells, t_end=0.5))
    assert math.ceil(0.5 / st.suggest_dt()) == steps


def test_stats_record_the_step_rule(demo_swapped):
    pair = dx.build_translation_transform(demo_swapped)
    u0 = lambda x: np.where(np.asarray(x) <= 0, 0.3, 0.7)
    field = dx.solve(demo_swapped, u0, pair, dx.SolverConfig(cells=128, t_end=0.5))
    stats = field.stats
    assert stats["steps"] == 40
    assert field.dt == 0.5 / 40
    assert stats["hyperbolic_rate"] == stats["speed_max"] / field.dx
    assert "parabolic_rate" not in stats
    assert stats["steps"] <= stats["newton_iterations"] <= stats["steps"] * stats["newton_max"]
    stepper = _Stepper(demo_swapped, pair, dx.SolverConfig(cells=128, t_end=0.5))
    assert math.isfinite(stats["invert_margin"])
    assert stats["invert_margin"] >= -stepper.slack


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
    steppers = dict(fixed_steppers, random=_Stepper(burgers, pair, dx.SolverConfig(cells=64, eps=eps, t_end=0.0)))
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
        st = _Stepper(flux, transform, dx.SolverConfig(cells=64, t_end=0.0))
        m = 0.5 * (st.lo_val + st.hi_val)
        m[20] = bad
        with pytest.raises(StabilityError, match="left the invertible range"):
            _invert(st, m)
        v = np.full(64, 0.5 * (st.ugrid[0] + st.ugrid[-1]))
        v[20] = bad
        with pytest.raises(StabilityError, match="left the invertible range"):
            st.step(v, st.suggest_dt())


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
        v, _, margin = _invert(st, m)
        assert st.ugrid[0] <= v[i] <= st.ugrid[-1], name
        assert margin == pytest.approx(-st.slack, rel=1e-6), name
        m[i] = np.nextafter(m[i], -np.inf if side == "below" else np.inf)
        worst = st.lo_val[i] - m[i] if side == "below" else m[i] - st.hi_val[i]
        with pytest.raises(StabilityError) as got:
            _invert(st, m)
        assert str(got.value) == (f"conserved density left the invertible range by {worst:.3e}; "
                                  "reduce the time step or refine the grid"), name


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


@settings(max_examples=60, deadline=None)
@given(kind=st_.sampled_from(["connection", "identity", "translation"]),
       cells=st_.sampled_from([64, 96, 128, 1024]), seed=st_.integers(0, 2**32 - 1))
def test_step_is_monotone_at_the_suggested_dt(small_problems, kind, cells, seed):
    flux, transform = small_problems[kind]
    st = _Stepper(flux, transform, dx.SolverConfig(cells=cells, t_end=0.0))
    rng = np.random.default_rng(seed)
    lo, hi = st.ugrid[0], st.ugrid[-1]
    v = _clustered_state(rng, lo, hi, cells)
    dt = st.suggest_dt()
    # conserved(step) is the updated density m_new up to Newton's rounding
    m_new = st.conserved(st.step(v, dt)[0])[0]
    for j in rng.choice(cells, size=6, replace=False):
        up = v.copy()
        up[j] = min(hi, v[j] + (hi - lo) * 10.0 ** rng.uniform(-6, 0))
        dm = st.conserved(st.step(up, dt)[0])[0] - m_new
        assert dm.min() >= -1e-13, (j, float(dm.min()))


def test_step_is_monotone_across_a_breakpoint(small_problems):
    # v_j crosses a flux breakpoint next to a neighbour two segments away,
    # where a dissipation speed picked per face from the two states would jump
    flux, transform = small_problems["identity"]
    st = _Stepper(flux, transform, dx.SolverConfig(cells=128, t_end=0.0))
    g, k, j = st.vgrid, 3000, 64
    v = np.full(128, 0.5 * (g[k] + g[k + 1]))
    v[j + 1:] = 0.5 * (g[k + 2] + g[k + 3])
    below, above = v.copy(), v.copy()
    below[j], above[j] = g[k + 1] - 1e-9, g[k + 1] + 1e-9
    dt = st.suggest_dt()
    dm = st.conserved(st.step(above, dt)[0])[0] - st.conserved(st.step(below, dt)[0])[0]
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
    got = _solve_tridiagonal(off, diag, rhs)
    want = np.linalg.solve(dense, rhs)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


def _backward_euler_step(st, v, dt):
    """One step, checked to solve its backward-Euler equation to rounding.

    Returns the new state, the face fluxes and the residual's scale.
    """
    v_new, phi, _, _ = st.step(v, dt)
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
    st = _Stepper(flux, transform, dx.SolverConfig(cells=cells, t_end=0.0))
    v = _clustered_state(np.random.default_rng(seed), st.ugrid[0], st.ugrid[-1], cells)
    dt = st.suggest_dt()
    v_new, phi, scale = _backward_euler_step(st, v, dt)
    # the viscous term sums to zero, so only the boundary faces move the mass
    gap = np.sum(st.conserved(v_new)[0]) - np.sum(st.conserved(v)[0]) + (dt / st.dx) * (phi[-1] - phi[0])
    assert abs(gap) <= 1e-13 * scale


def test_newton_converges_on_kinked_tables(burgers):
    # Tables with many kinks make an undamped Newton step overshoot into a
    # cycle between segments; the backtracking must break every such cycle.
    # A fixed seed, not hypothesis, so that a failure cannot shrink into
    # a different case from run to run.
    rng = np.random.default_rng(29)

    def table(size):
        nodes = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, size))))
        return nodes / nodes[-1]

    for _ in range(60):
        maps = [dx.MonotoneBijection(table(size), table(size))
                for size in rng.integers(1, 41, size=2)]
        cells = int(rng.choice([64, 96, 128, 1024]))
        cfg = dx.SolverConfig(cells=cells, eps=float(rng.uniform(0.5, 8.0)) * 4.0 / cells, t_end=0.0)
        st = _Stepper(burgers, dx.TransformPair(*maps), cfg)
        v = _clustered_state(rng, st.ugrid[0], st.ugrid[-1], cells)
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
    st = _Stepper(burgers, pair, cfg)
    x = cfg.centers()
    u0 = np.where(np.abs(x) < 1, 0.55, dx.steady_connection_state(burgers, conn, x))
    v = dx.mollify_initial(u0, x, pair, st.eps)
    assert pair.c in st.ugrid
    assert np.count_nonzero(v == pair.c) > 0
    v_new, _, iterations, _ = st.step(v, cfg.t_end / 24)
    assert 1 <= iterations <= 3
    assert np.all(np.isfinite(v_new))


def test_newton_iteration_cap_raises(monkeypatch, small_problems):
    flux, transform = small_problems["connection"]
    st = _Stepper(flux, transform, dx.SolverConfig(cells=64, t_end=0.0))
    v = np.linspace(0.1, 0.9, 64)
    assert st.step(v, st.suggest_dt())[2] >= 2
    monkeypatch.setattr(dx.solver, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(StabilityError, match=r"did not converge in 1 Newton iterations \(worst residual"):
        st.step(v, st.suggest_dt())


def test_tracer_wraps_methods_the_stepper_has():
    # the benchmark's tracer wraps these _Stepper methods by name, through
    # vars(_Stepper); a renamed or deleted one would break its traced runs
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    names = next(ast.literal_eval(node.value) for node in ast.walk(ast.parse(tracer.read_text()))
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["STEPPER_METHODS"])
    assert names
    assert [name for name in names if name not in vars(_Stepper)] == []


def test_no_scipy_on_import_or_solve():
    # scipy costs about 0.2 s and 27 MB to import; the solver needs none of it
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import discflux as dx\n"
        "flux = dx.get_flux('burgers-like')\n"
        "pair = dx.build_connection_transform(flux, dx.Connection(0.75, 0.25))\n"
        "x = dx.SolverConfig(cells=64, t_end=0.05).centers()\n"
        "dx.solve(flux, np.where(x <= 0, 0.8, 0.4), pair, dx.SolverConfig(cells=64, t_end=0.05))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(dx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
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
    p, q = _invariant_interval(_Stepper(flux, transform, cfg), field.v[0])
    if kind == "identity":
        assert (p, q) == (field.v[0].min(), field.v[0].max())
    assert field.v.min() >= p - 1e-12
    assert field.v.max() <= q + 1e-12


@settings(max_examples=25, deadline=None)
@given(kind=st_.sampled_from(["connection", "identity", "translation"]),
       seed=st_.integers(0, 2**32 - 1))
def test_solves_contract_in_conserved_l1(small_problems, kind, seed):
    flux, transform = small_problems[kind]
    # data differ only on |x| < 0.75, and the run is too short for the
    # difference to reach the boundary cells, so no L1 enters from outside;
    # the implicit viscosity couples every cell, so the boundary fluxes agree
    # to rounding (not bit for bit), which a fine grid keeps far below 1e-15
    cfg = dx.SolverConfig(cells=512, t_end=0.06)
    rng = np.random.default_rng(seed)
    base, other = random_step_profile(rng), random_step_profile(rng)
    shift = float(rng.uniform(0.05, 0.3))
    inner = lambda x: np.abs(np.asarray(x)) < 0.75
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
    assert field.stats["steps"] == 0 and field.stats["invert_margin"] is None
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
