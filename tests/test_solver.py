"""Relabelling, scheme invariants, and refinement behaviour."""

import ast
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

import discflux as dx
from discflux.errors import StabilityError
from discflux.solver import _BLOCK_STEPS, _Stepper
from discflux.transforms import _audit

from conftest import random_step_profile


def _stepper(flux, transform, cfg):
    """The stepper ``solve`` makes for this problem, on the tables of the pair's audit."""
    return _Stepper(flux, _audit(flux, transform)[1], transform, cfg)


# ------------------------------------------------------------ relabelling

def test_relabel_preserves_constants(burgers):
    # a field derives its v from u: the identity pair relabels a constant as itself
    field = dx.solve(burgers, np.full(257, 0.37), config=dx.SolverConfig(cells=257, t_end=0.0))
    assert np.max(np.abs(field.v - 0.37)) < 1e-14


def test_relabel_steady_connection_becomes_flat(burgers, demo_connection):
    conn, pair = demo_connection
    cfg = dx.SolverConfig(cells=256, t_end=0.0)
    field = dx.solve(burgers, dx.steady_connection_state(burgers, conn, cfg.centers()), pair, cfg)
    assert np.max(np.abs(field.v - pair.c)) < 1e-13


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
    # the scheme's own dissipation is the vanishing viscosity: there is no eps to set
    with pytest.raises(TypeError, match="eps"):
        dx.SolverConfig(eps=0.1)
    cfg = dx.SolverConfig(cells=128)
    assert len(cfg.centers()) == 128 and len(cfg.faces()) == 129


@pytest.mark.parametrize("bad", [
    {"t_end": np.inf}, {"half_width": np.nan}, {"half_width": np.inf},
    {"half_width": "2"}, {"t_end": None}, {"cfl_hyperbolic": np.nan},
    {"cfl_hyperbolic": "0.5"}, {"cfl_hyperbolic": None},
    # bool is a numbers.Real; True must not pass as a width of 1
    {"half_width": True}, {"t_end": True}, {"t_end": False}, {"cfl_hyperbolic": True},
], ids=repr)
def test_config_rejects_non_numbers(bad):
    (name,) = bad
    with pytest.raises(ValueError, match=f"{name} must be a finite number, got {bad[name]!r}"):
        dx.SolverConfig(**bad)


@pytest.mark.parametrize("bad, message", [
    ({"half_width": 0.0}, "half_width must be positive and t_end non-negative"),
    ({"half_width": -2.0}, "half_width must be positive and t_end non-negative"),
    ({"t_end": -0.1}, "half_width must be positive and t_end non-negative"),
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
    # u must be config.cells wide
    with pytest.raises(ValueError, match="snapshot array shape mismatch"):
        replace(field, config=replace(field.config, cells=128))
    # v and the mass are u's: a field derives them and takes neither
    assert [f.name for f in fields(dx.SolutionField) if f.init] == [
        "config", "times", "u", "boundary_flux", "dt", "flux", "transform", "stats"]
    for name in ("v", "mass"):
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            replace(field, **{name: getattr(field, name)})

def test_solution_field_owns_its_arrays(burgers):
    # a field copies what it is given and makes its copies read-only: the
    # caller's arrays stay writable, and writing to them leaves the field as it was
    field = dx.solve(burgers, np.full(64, 0.5), config=dx.SolverConfig(cells=64, t_end=0.01))
    given = {name: getattr(field, name).copy() for name in ("times", "u", "boundary_flux")}
    built = replace(field, **given)
    for name, arr in given.items():
        assert arr.flags.writeable, name
        kept = getattr(built, name)
        assert not kept.flags.writeable and not np.shares_memory(kept, arr), name
        arr += 1.0
        assert np.array_equal(kept, getattr(field, name)), name


def test_solve_gates_on_transform_audit(demo_swapped):
    # the raw swapped pair fails the crossing condition, so identity labels
    # must be refused outright
    with pytest.raises(ValueError, match="verification"):
        dx.solve(demo_swapped, lambda x: np.full(np.shape(x), 0.5),
                 config=dx.SolverConfig(cells=64, t_end=0.01))


def test_solve_rejects_data_outside_the_densities_of_the_pair(burgers):
    # a pair whose maps cover [0.1, 0.9] of the flux interval [0, 1] passes
    # the audit, but no state of it has the density 0.05: the solve steps
    # the data themselves, and refuses them rather than clamp them
    squeeze = dx.MonotoneBijection(np.array([0.0, 1.0]), np.array([0.1, 0.9]))
    pair = dx.TransformPair(squeeze, squeeze)
    cfg = dx.SolverConfig(cells=64, t_end=0.01)
    assert dx.verify_transform(burgers, pair).ok
    dx.solve(burgers, np.full(64, 0.5), pair, cfg)
    u0 = np.where(cfg.centers() <= 0.0, 0.5, 0.05)
    for data in (u0, u0[::-1]):
        with pytest.raises(ValueError, match="initial data leave the densities the transform pair maps onto"):
            dx.solve(burgers, data, pair, cfg)


# ------------------------------------------------------------------ scheme

def test_steady_connection_state_is_exact(burgers, demo_connection):
    conn, pair = demo_connection
    u0 = lambda x: dx.steady_connection_state(burgers, conn, x)
    field = dx.solve(burgers, u0, pair, dx.SolverConfig(cells=128, t_end=0.1))
    assert np.max(np.abs(field.v - pair.c)) == 0.0
    assert np.max(np.abs(field.u_final - u0(field.x))) == 0.0
    tr = dx.extract_traces(field)
    assert tr.final_mismatch == 0.0


@pytest.mark.parametrize("cells", [128, 1024])
@pytest.mark.parametrize("data", ["riemann", "random"])
def test_identity_pair_on_one_flux_is_plain_lax_friedrichs(burgers, cells, data):
    # f = g and alpha = beta = the identity: the interface face's table then
    # holds f / 2 and the state itself, and the solve must be the
    # Lax-Friedrichs scheme on f at every face, the interface face included,
    # to the bit: in u, in the boundary-flux integrals and in c1
    assert np.array_equal(burgers.f.x, burgers.g.x) and np.array_equal(burgers.f.y, burgers.g.y)
    cfg = dx.SolverConfig(cells=cells, t_end=0.5)
    x = cfg.centers()
    rng = np.random.default_rng(cells)
    u0 = np.where(x <= 0.0, 0.8, 0.3) if data == "riemann" else rng.uniform(0.0, 1.0, cells)
    field = dx.solve(burgers, u0, config=cfg)
    assert field.transform.kind == "identity"
    c, dt = field.stats["speed_max"], field.dt
    u = u0
    states, bflux, c1 = [u], [(0.0, 0.0)], 0.0
    for _ in range(field.stats["steps"]):
        ux = np.concatenate(([u[0]], u, [u[-1]]))
        fx = burgers.f(ux)
        phi = 0.5 * (fx[:-1] + fx[1:]) - 0.5 * c * (ux[1:] - ux[:-1])
        u_new = u - (dt / cfg.dx) * (phi[1:] - phi[:-1])
        c1 = max(c1, float(np.sum(np.abs(u_new - u))) * cfg.dx / dt)
        left, right = bflux[-1]
        bflux.append((left + dt * float(phi[0]), right + dt * float(phi[-1])))
        states.append(u_new)
        u = u_new
    stored = [int(round(t / dt)) for t in field.times]
    assert np.array_equal(field.times, [n * dt for n in stored])
    assert np.array_equal(field.u, np.array([states[n] for n in stored]))
    assert np.array_equal(field.boundary_flux, np.array([bflux[n] for n in stored]))
    assert field.stats["c1"] == c1


@pytest.mark.parametrize("cells", [128, 1024])
@pytest.mark.parametrize("A, B", [(0.75, 0.25), (0.65, 0.35), (0.9, 0.1), (0.6, 0.4)])
def test_steady_connection_states_stay_exact_through_the_table(burgers, A, B, cells):
    # the connection's pair maps its c to (A, B) on a node of the composed
    # lattice, so both cells beside the interface face read the same table
    # entry, whose flux is g(A) = f(B): every stored row is the data, to the bit
    conn = dx.Connection(A, B)
    pair = dx.build_connection_transform(burgers, conn)
    cfg = dx.SolverConfig(cells=cells, t_end=0.5)
    u0 = dx.steady_connection_state(burgers, conn, cfg.centers())
    field = dx.solve(burgers, u0, pair, cfg)
    assert field.stats["steps"] > 0
    for i, row in enumerate(field.u):
        assert np.array_equal(row, u0), (A, B, cells, i)


@pytest.mark.parametrize("left, right, table", [(0.2, 0.9, 2.6909e-3), (0.9, 0.2, 8.4053e-3)],
                         ids=["rarefaction", "shock"])
def test_l1_error_at_1024_cells(burgers, left, right, table):
    # L1 on |x| <= 1 against the exact solution at t = 0.5, within 1.1 x of
    # the scheme's measured values: the error of the scheme's own
    # dissipation, with no added viscosity
    field = dx.solve(burgers, lambda x: np.where(np.asarray(x) <= 0, left, right),
                     config=dx.SolverConfig(cells=1024, t_end=0.5))
    exact = dx.classical_riemann(burgers.f, left, right).profile(field.x, field.times[-1])
    window = np.abs(field.x) <= 1.0
    l1 = float(np.sum(np.abs(field.u_final - exact)[window]) * field.dx)
    assert l1 <= 1.1 * table


def test_interval_endpoints_are_steady(demo_cross):
    for val in (0.0, 1.0):
        field = dx.solve(demo_cross, lambda x: np.full(np.shape(x), val),
                         config=dx.SolverConfig(cells=64, t_end=0.05))
        assert np.max(np.abs(field.u - val)) == 0.0


def test_zero_flux_takes_one_implicit_step():
    # nothing is transported, so any step is monotone and the step leaves
    # every density, and so every state, as it was
    field = dx.solve(dx.get_flux("zero"), lambda x: np.where(np.asarray(x) <= 0, 0.2, 0.7),
                     config=dx.SolverConfig(cells=64, t_end=0.1))
    assert field.stats["steps"] == 1 and field.dt == 0.1
    assert field.mass[-1] == pytest.approx(field.mass[0], abs=1e-14)
    assert field.v.min() >= 0.2 - 1e-14 and field.v.max() <= 0.7 + 1e-14
    assert np.all(np.diff(field.v[-1]) >= 0.0)
    assert np.array_equal(field.v[-1], field.v[0])


def test_mass_balance_telescopes(demo_cross):
    rng = np.random.default_rng(31)
    field = dx.solve(demo_cross, random_step_profile(rng),
                     config=dx.SolverConfig(cells=128, t_end=0.2))
    drift = field.mass - field.mass[0] + field.boundary_flux[:, 1] - field.boundary_flux[:, 0]
    assert np.max(np.abs(drift)) < 1e-12


def test_time_step_is_free_of_the_transform_slope(tmp_path, burgers, demo_connection):
    # The faces dissipate in their own density, so the connection's transform
    # slopes (0.375 to 1.5) leave the interior bound cfl * dx / c alone.  The
    # two cells beside the interface face, whose faces' weights differ by 1/2,
    # take the exact bound dx / band_rate, and on the connection that binds.
    # The pair reloaded from its CSV table steps the same.
    _, pair = demo_connection
    dx.save_transform_csv(tmp_path / "t.csv", pair)
    cfg = dx.SolverConfig(cells=1024, t_end=0.5)
    st_ident = _stepper(burgers, dx.identity_transform(burgers), cfg)
    for conn in (pair, dx.load_transform_csv(tmp_path / "t.csv")):
        st_conn = _stepper(burgers, conn, cfg)
        assert st_conn.interior_dt == st_ident.interior_dt
        assert st_conn.suggest_dt() == st_conn.band_dt < st_conn.interior_dt
        assert math.ceil(0.5 / st_conn.suggest_dt()) == 214


def test_time_step_is_the_sharp_monotone_bound(burgers, demo_swapped, demo_connection):
    # c is the largest |f'| and |g'| in u, the slope of a segment of a flux
    # branch itself
    for name, st in _steppers(burgers, demo_swapped, demo_connection).items():
        flux = demo_swapped if name == "translation" else burgers
        c = max(float(np.max(np.abs(np.diff(b.y) / np.diff(b.x)))) for b in (flux.f, flux.g))
        assert st.speed_max == c, name
        band = st.dx / st.band_rate if st.band_rate > 0.0 else math.inf
        sharp = min(st.cfg.cfl_hyperbolic * st.dx / st.speed_max, band)
        assert st.suggest_dt() == pytest.approx(sharp, rel=1e-14), name


def test_band_bound_is_sharp(burgers, demo_connection):
    # On the connection the band sets the step.  A band cell's new density
    # is piecewise linear in its relabelled state v_j, with a slope that
    # depends on v_j alone, so its differences over the nodes of the flux
    # lattice, each node entered as the density u_j it has, give its every
    # slope; at dx / band_rate they must all be non-negative, and a step 5 %
    # longer must make one of them clearly negative.
    cfg = dx.SolverConfig(cells=256, t_end=0.0)
    st = _stepper(burgers, demo_connection[1], cfg)
    assert st.band_dt < st.interior_dt
    nodes = st.vgrid
    v = np.full(cfg.cells, 0.5)
    worst = {1.0: math.inf, 1.05: math.inf}
    for j in (st.k - 1, st.k):   # the two cells beside the interface face
        u_j, flux_jump = np.empty(len(nodes)), np.empty(len(nodes))
        for i, node in enumerate(nodes):
            v[j] = node
            u = st.conserved(v)
            u_j[i], flux_jump[i] = u[j], np.diff(st.face_fluxes(u))[j]
        v[j] = 0.5
        for share in worst:
            u_new = u_j - (share * st.suggest_dt() / st.dx) * flux_jump
            worst[share] = min(worst[share], float(np.min(np.diff(u_new) / np.diff(nodes))))
    assert worst[1.0] >= -1e-13
    assert worst[1.05] < -1e-2


@pytest.mark.parametrize("kind, cells, steps", [
    ("connection", 1024, 214),      # benchmark workload connection-interface
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
    assert set(stats) == {"c1", "steps", "speed_max", "band_rate", "dt_limit", "invert_margin"}
    assert math.isfinite(stats["invert_margin"])
    assert stats["invert_margin"] >= -stepper.slack


def test_stats_name_the_band_when_it_binds(burgers, demo_connection):
    cfg = dx.SolverConfig(cells=64, t_end=0.05)
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
    }


@pytest.fixture(scope="module")
def fixed_steppers(burgers, demo_swapped, demo_connection):
    return _steppers(burgers, demo_swapped, demo_connection)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_density_raises(small_problems, bad):
    # a NaN passes every "m < lo" test; it must fail the range check anyway,
    # not reach the inversion, which would return it as a state
    for kind, (flux, transform) in small_problems.items():
        st = _stepper(flux, transform, dx.SolverConfig(cells=64, t_end=0.0))
        m = 0.5 * (st.lo_val + st.hi_val)
        m[20] = bad
        with pytest.raises(StabilityError, match="left the invertible range"):
            st.invert_conserved(m)
        # a non-finite density makes non-finite new densities, which the step's range check rejects
        u = 0.5 * (st.lo_val + st.hi_val)
        u[20] = bad
        with pytest.raises(StabilityError, match="left the invertible range"):
            st.step(u, st.suggest_dt())


@pytest.mark.parametrize("side", ["below", "above"])
def test_inversion_raises_just_beyond_the_slack(fixed_steppers, side):
    for name, st in fixed_steppers.items():
        i = len(st.lo_val) // 2 + 3   # right of the interface
        m = 0.5 * (st.lo_val + st.hi_val)
        # inside the range the margin is m*'s least distance to its bounds
        direct = min(np.min(m - st.lo_val), np.min(st.hi_val - m))
        assert st.invert_conserved(m)[1] == pytest.approx(direct, rel=0.0, abs=4 * np.finfo(float).eps * st.scale)
        # at the slack edge is accepted, with the margin -slack, and maps to the end of the table
        m[i] = st.lo_val[i] - st.slack if side == "below" else st.hi_val[i] + st.slack
        v, margin = st.invert_conserved(m)
        assert v[i] == (st.ugrid[0] if side == "below" else st.ugrid[-1]), name
        assert margin == pytest.approx(-st.slack, rel=1e-6), name
        m[i] = np.nextafter(m[i], -np.inf if side == "below" else np.inf)
        worst = st.lo_val[i] - m[i] if side == "below" else m[i] - st.hi_val[i]
        with pytest.raises(StabilityError) as got:
            st.invert_conserved(m)
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


@pytest.mark.parametrize("name", ["connection", "identity", "translation", "odd cells"])
def test_face_fluxes_read_one_branch_off_the_band(fixed_steppers, burgers, demo_connection, name):
    # The band is the interface face and its two cells.  A face left of it
    # has the weight w = 0 and reads g alone, one right of it w = 1 and reads
    # f alone, at the densities u beside it; the interface face has w = 1/2
    # and reads the relabelled states v = beta^{-1}(u_{k-1}), alpha^{-1}(u_k)
    # of its two cells.  The fluxes must equal blending both branches and
    # both densities at every face: bit for bit off the interface face, to
    # rounding on it.  Off it they are also those of the composed branches
    # at v, g∘beta(v) = g(u) and f∘alpha(v) = f(u), to rounding.
    if name == "odd cells":
        # the interface face lies half a cell right of x = 0, past the centre there
        st = _stepper(burgers, demo_connection[1], dx.SolverConfig(cells=129, t_end=0.0))
        assert st.k == 65 and abs(st.cfg.centers()[st.k - 1]) < 1e-15
    else:
        st = fixed_steppers[name]
        assert st.k == st.cfg.cells // 2
    # every cell at x <= 0 conserves beta(v)
    assert np.array_equal(np.arange(st.cfg.cells) < st.k, st.cfg.centers() <= 0.0)
    w = np.where(np.arange(st.cfg.cells + 1) < st.k, 0.0, 1.0)
    w[st.k] = 0.5
    off = np.arange(st.cfg.cells + 1) != st.k
    rng = np.random.default_rng(5)
    for v in _states(st, rng):
        u = st.conserved(v)
        ux = np.concatenate(([u[0]], u, [u[-1]]))
        f_u, g_u = np.interp(ux, *st.f_tab), np.interp(ux, *st.g_tab)
        # the band cells' states, with the ghosts' and the others' off the band
        vx = np.concatenate(([v[0]], v, [v[-1]]))
        vx[st.k:st.k + 2] = st.invert_conserved(u)[0][st.k - 1:st.k + 1]
        fa_v = np.interp(vx, st.vgrid, st.fa_tab)
        gb_v = np.interp(vx, st.vgrid, st.gb_tab)
        a_v = np.interp(vx, st.ugrid, st.alpha_tab)
        b_v = np.interp(vx, st.ugrid, st.beta_tab)

        def blend(fx, gx, ax, bx):
            left = w * fx[:-1] + (1.0 - w) * gx[:-1]
            right = w * fx[1:] + (1.0 - w) * gx[1:]
            jump = w * (ax[1:] - ax[:-1]) + (1.0 - w) * (bx[1:] - bx[:-1])
            return 0.5 * (left + right) - 0.5 * st.speed_max * jump

        got = st.face_fluxes(u)
        assert np.array_equal(got[off], blend(f_u, g_u, ux, ux)[off]), name
        composed = blend(fa_v, gb_v, a_v, b_v)
        assert got[st.k] == pytest.approx(composed[st.k], rel=0.0, abs=8 * np.finfo(float).eps), name
        assert np.max(np.abs(got - composed)) <= 8 * np.finfo(float).eps * st.scale, name


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
    """Raising one cell of a random state lowers no cell's new density,
    neither before the step's clip to the density range (the part
    ``suggest_dt`` bounds) nor after it.

    Three random cells are raised, and then the two band cells beside the
    interface face, where the two faces' weights differ and so
    ``band_rate`` can bind, from four states in which the band cells take
    values drawn across the table.
    """
    cells = st.cfg.cells
    lo, hi = st.ugrid[0], st.ugrid[-1]
    v = _clustered_state(rng, lo, hi, cells)
    dt = st.suggest_dt()

    def densities(v):
        u = st.conserved(v)
        u_new, phi = st.step(u, dt)[:2]
        # the densities before the clip, then the step's
        return u - (dt / st.dx) * np.diff(phi), u_new

    def assert_raising_is_monotone(v, raised):
        before = densities(v)
        for j in raised:
            up = v.copy()
            up[j] = min(hi, v[j] + (hi - lo) * 10.0 ** rng.uniform(-6, 0))
            for half, new, old in zip(("explicit", "step"), densities(up), before):
                dm = new - old
                assert dm.min() >= -1e-13, (half, j, float(dm.min()))

    assert_raising_is_monotone(v, rng.choice(cells, size=3, replace=False))
    band = np.array([st.k - 1, st.k])
    for _ in range(4):
        v[band] = rng.uniform(lo, hi, size=band.size)
        assert_raising_is_monotone(v, band)


@settings(max_examples=60, deadline=None)
@given(kind=st_.sampled_from(["connection", "identity", "translation"]),
       cells=st_.sampled_from([64, 96, 128, 129, 1024]),
       seed=st_.integers(0, 2**32 - 1))
@example(kind="connection", cells=64, seed=0)    # band_rate binds here
@example(kind="connection", cells=129, seed=0)   # a centre at x = 0: the interface face is half a cell right of it
def test_step_is_monotone_at_the_suggested_dt(small_problems, kind, cells, seed):
    flux, transform = small_problems[kind]
    st = _stepper(flux, transform, dx.SolverConfig(cells=cells, t_end=0.0))
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
    g, k, j = st.g_tab[0], 3000, 64
    u = np.full(128, 0.5 * (g[k] + g[k + 1]))
    u[j + 1:] = 0.5 * (g[k + 2] + g[k + 3])
    below, above = u.copy(), u.copy()
    below[j], above[j] = g[k + 1] - 1e-9, g[k + 1] + 1e-9
    dt = st.suggest_dt()
    du = st.step(above, dt)[0] - st.step(below, dt)[0]
    assert du[j] > 0.0
    assert du.min() >= -1e-13


# ---------------------------------------------------- pointwise inversion

@settings(max_examples=30, deadline=None)
@given(kind=st_.sampled_from(["connection", "identity", "translation"]),
       cells=st_.sampled_from([64, 96, 128, 129, 1024]), seed=st_.integers(0, 2**32 - 1))
def test_step_is_an_exact_pointwise_inversion(small_problems, kind, cells, seed):
    # A step moves the densities and inverts none of them: inside their
    # range its new densities are u - dt / dx * (phi_{j+1/2} - phi_{j-1/2})
    # bit for bit.  The inversion that stored snapshots and the band cells
    # read gives each cell's own density back to rounding, for the
    # densities of a step, for densities drawn across each cell's range and
    # for the table's nodes.
    flux, transform = small_problems[kind]
    st = _stepper(flux, transform, dx.SolverConfig(cells=cells, t_end=0.0))
    rng = np.random.default_rng(seed)
    u = st.conserved(_clustered_state(rng, st.ugrid[0], st.ugrid[-1], cells))
    dt = st.suggest_dt()
    u_new, phi, _ = st.step(u, dt)
    explicit = u - (dt / st.dx) * np.diff(phi)
    inside = (st.lo_val <= explicit) & (explicit <= st.hi_val)
    assert np.array_equal(u_new[inside], explicit[inside])
    assert np.array_equal(u_new, np.clip(explicit, st.lo_val, st.hi_val))
    left = np.arange(cells) < st.k
    nodes = np.where(left, st.beta_tab[rng.integers(0, len(st.ugrid), cells)],
                     st.alpha_tab[rng.integers(0, len(st.ugrid), cells)])
    for m in (u_new, st.lo_val + rng.uniform(size=cells) * (st.hi_val - st.lo_val), nodes):
        back = st.conserved(st.invert_conserved(m)[0])
        assert np.max(np.abs(back - m)) <= 4 * np.finfo(float).eps * st.scale
    # a node's density inverts to the node itself
    on_node = st.invert_conserved(nodes)[0]
    assert np.all(np.isin(on_node, st.ugrid))
    # only the boundary faces move the mass: each cell's new density is its
    # explicit update, and the sums round as well
    gap = np.sum(u_new) - np.sum(u) + (dt / st.dx) * (phi[-1] - phi[0])
    assert abs(gap) <= 4 * np.finfo(float).eps * cells * st.scale


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
        cells = int(rng.choice([64, 96, 128, 129, 1024]))
        st = _stepper(burgers, dx.TransformPair(*maps), dx.SolverConfig(cells=cells, t_end=0.0))
        yield st, _clustered_state(rng, st.ugrid[0], st.ugrid[-1], cells)


def test_inversion_is_exact_on_kinked_tables(burgers):
    # five steps on each random table: every density stays in its range, and
    # its inversion lies in the table and gives it back to rounding
    for st, v in _kinked_problems(burgers):
        dt = st.suggest_dt()
        u = st.conserved(v)
        for _ in range(5):
            u = st.step(u, dt)[0]
            assert np.all((st.lo_val <= u) & (u <= st.hi_val))
            v = st.invert_conserved(u)[0]
            assert np.all((st.ugrid[0] <= v) & (v <= st.ugrid[-1]))
            assert np.max(np.abs(st.conserved(v) - u)) <= 4 * np.finfo(float).eps * st.scale


@pytest.mark.parametrize("kind", ["identity", "translation", "connection"])
def test_block_bookkeeping_matches_a_per_step_loop(small_problems, kind):
    # solve reduces c1 once per block of steps; every value must be what a
    # loop that computes it after each step gives, to the bit
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
        u = u0   # the solve starts from the data themselves
        assert np.array_equal(field.u[0], u), (kind, nsteps)
        c1 = 0.0
        for _ in range(nsteps):
            u_new = st.step(u, field.dt)[0]
            c1 = max(c1, float(np.sum(np.abs(u_new - u))) * cfg.dx / field.dt)
            u = u_new
        assert field.stats["c1"] == c1, (kind, nsteps)
        assert np.array_equal(field.u[-1], u), (kind, nsteps)
        assert (c1 > 0.0) == (nsteps > 0)


@pytest.mark.parametrize("kind", ["identity", "translation", "connection"])
def test_step_writes_into_out(small_problems, kind):
    # solve steps into the rows of its block buffer: a step given a row
    # returns that row, holding the bits of the step that makes its own array
    flux, transform = small_problems[kind]
    st = _stepper(flux, transform, dx.SolverConfig(cells=128, t_end=0.0))
    u = st.conserved(_clustered_state(np.random.default_rng(3), st.ugrid[0], st.ugrid[-1], 128))
    dt = st.suggest_dt()
    block = np.full((2, 128), np.nan)
    row = block[1]
    new, phi, margin = st.step(u, dt)
    got = st.step(u, dt, out=row)
    assert got[0] is row
    assert np.array_equal(row, new) and np.array_equal(got[1], phi) and got[2] == margin
    assert np.all(np.isnan(block[0]))


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

    A constant state rises where f∘alpha < g∘beta, because the face flux
    then falls across both cells beside the interface face, and falls where
    f∘alpha > g∘beta.
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
    # difference to reach the boundary cells, so no L1 enters from outside:
    # a step moves a difference by at most one cell, and the run's steps
    # carry it less than 0.2 of the 1.5 to either boundary, so the boundary
    # fluxes agree bit for bit
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
        assert np.array_equal(run.boundary_flux, low.boundary_flux)
        dist = dx.l1_distances(low, run, variable="conserved")
        assert dist[-1] > 0.0
        assert np.all(np.diff(dist) <= 1e-13), dist


@pytest.mark.parametrize("kind", ["connection", "identity", "translation"])
def test_per_step_l1_change_of_u_never_rises(small_problems, kind):
    # A monotone conservative scheme contracts in L1 in its conserved
    # variable (Crandall and Tartar), and u^{n+1} = S(u^n) with u^n = S(u^{n-1}),
    # so the change per step cannot rise while no change reaches the
    # boundary faces.  The data are constant outside |x| < 0.5, 192 cells
    # from either boundary, and a change spreads by one cell a step, so
    # after 150 steps the end cells still hold their first densities.  The
    # relabelled v has no such bound: on the connection its changes rise.
    flux, transform = small_problems[kind]
    cfg = dx.SolverConfig(cells=512, t_end=0.0)
    st = _stepper(flux, transform, cfg)
    x, dt = cfg.centers(), st.suggest_dt()
    v_rises = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        inner = random_step_profile(rng, flux.a, flux.b, span=0.5)
        u0 = np.where(np.abs(x) < 0.5, inner(x), rng.uniform(flux.a, flux.b))
        u = first = u0
        v = st.invert_conserved(u)[0]
        du, dv = [], []
        for _ in range(150):
            u_new = st.step(u, dt)[0]
            v_new = st.invert_conserved(u_new)[0]
            du.append(float(np.sum(np.abs(u_new - u))) * cfg.dx)
            dv.append(float(np.sum(np.abs(v_new - v))) * cfg.dx)
            u, v = u_new, v_new
        assert (u[0], u[-1]) == (first[0], first[-1]), seed
        assert du[0] > 0.0, seed
        assert np.all(np.diff(du) <= 1e-13), (seed, float(np.max(np.diff(du))))
        v_rises.append(float(np.max(np.diff(dv))))
    if kind == "connection":
        assert min(v_rises) > 0.0, v_rises


def test_identity_solve_bytes_are_pinned(burgers):
    # the sha256 of the u and v bytes of a 256-cell identity solve, with a
    # fan and a shock; a scheme stepping v gave these same bytes
    cfg = dx.SolverConfig(cells=256, t_end=0.5)
    x = cfg.centers()
    field = dx.solve(burgers, np.where(x <= -0.5, 0.2, np.where(x <= 0.5, 0.9, 0.3)), config=cfg)
    digest = hashlib.sha256(field.u.tobytes() + field.v.tobytes()).hexdigest()
    assert digest == "43cd30fb0666aaac01076f53c450d6c33d85d21d6b0e335fe758c30618feea8e"


def test_conserved_uses_left_branch_at_interface(demo_swapped):
    # nine cells of width 1, so the middle cell's centre is x = 0 exactly
    pair = dx.build_translation_transform(demo_swapped)
    st = _stepper(demo_swapped, pair, dx.SolverConfig(half_width=4.5, cells=9, t_end=0.0))
    assert st.cfg.centers()[4] == 0.0
    u = st.conserved(np.full(9, 0.4))
    k_l, k_r = pair.shifts
    assert u[3] == pytest.approx(0.4 + k_l)
    assert u[4] == pytest.approx(0.4 + k_l)   # x = 0 belongs to the left side
    assert u[5] == pytest.approx(0.4 + k_r)


@pytest.mark.parametrize("cells", [128, 1024])
def test_stored_u_is_the_conserved_density(burgers, demo_connection, cells):
    # the solve carries u: the first row is the initial data themselves, and
    # every v row, the first included, is, bit for bit, the stepper's
    # inversion of its u row, whose density is that u to rounding; the mass
    # is the sum of u
    cfg = dx.SolverConfig(cells=cells, t_end=0.5)
    u0 = np.where(cfg.centers() <= 0, 0.8, 0.4)
    field = dx.solve(burgers, u0, demo_connection[1], cfg)
    st = _stepper(burgers, demo_connection[1], cfg)
    assert np.array_equal(field.u[0], u0)
    for i in range(len(field.times)):
        assert np.array_equal(field.v[i], st.invert_conserved(field.u[i])[0]), i
        assert np.max(np.abs(st.conserved(field.v[i]) - field.u[i])) <= 4 * np.finfo(float).eps * st.scale, i
    assert np.array_equal(field.mass, field.u.sum(axis=1) * field.dx)


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
    assert [f.dx for f in lad.fields] == [lad.fields[0].dx / 2**k for k in range(3)]


def test_ladder_needs_two_levels(burgers):
    with pytest.raises(ValueError):
        dx.ladder(burgers, lambda x: np.full(np.shape(x), 0.5), levels=1)


def test_ladder_bounds_stable_for_riemann_data(burgers):
    u0 = lambda x: np.where(np.asarray(x) <= 0, 0.25, 0.75)
    lad = dx.ladder(burgers, u0, base=dx.SolverConfig(cells=64, t_end=0.2), levels=3)
    lb = dx.ladder_bounds(lad)
    assert lb.ok
    assert len(lb.c0) == len(lb.c1) == 3
    assert max(lb.c0) <= 1e-10
    assert max(lb.c1) < 2 * min(lb.c1) + 1e-10


def test_ladder_bounds_constant_data_all_zero(burgers):
    u0 = lambda x: np.full(np.shape(x), 0.0)
    lad = dx.ladder(burgers, u0, base=dx.SolverConfig(cells=64, t_end=0.1), levels=2)
    lb = dx.ladder_bounds(lad)
    assert lb.ok
    assert max(lb.c1) == 0.0
