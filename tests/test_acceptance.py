"""End-to-end acceptance suite.

Each test exercises one advertised guarantee of the package at desk scale
(domain [-2, 2], up to 2048 cells, final time 0.5) and prints a single
PASS/FAIL line with the measured numbers next to the bound it must meet.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they go.
"""

import numpy as np
import pytest

import discflux as dx

from conftest import random_step_profile


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_range_bound_random_bv(demo_cross):
    """Solutions from random BV data never leave the flux interval."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        field = dx.solve(demo_cross, random_step_profile(rng),
                         config=dx.SolverConfig(cells=256, t_end=0.2))
        worst = max(worst, field.range_excess())
    _line(1, worst <= 1e-10,
          f"solution range: worst excess beyond [0,1] = {worst:.3e} (bound 1e-10)")


def test_02_constant_end_states(demo_cross):
    """u identically a or b is preserved and entropy-clean for 16 comparison levels."""
    worst_drift = 0.0
    worst_res = -np.inf
    for val in (0.0, 1.0):
        field = dx.solve(demo_cross, lambda x: np.full(np.shape(x), val),
                         config=dx.SolverConfig(cells=256, t_end=0.5))
        worst_drift = max(worst_drift, float(np.max(np.abs(field.u - val))))
        for xi in np.linspace(0.0, 1.0, 16):
            rep = dx.entropy_residual_pair(field, float(xi))
            worst_res = max(worst_res, rep.worst)
            assert rep.ok
    ok = worst_drift <= 1e-12 and worst_res <= 1e-12
    _line(2, ok, f"constant end states: drift {worst_drift:.3e} (bound 1e-12), "
                 f"worst residual {worst_res:.3e}")


def test_03_steady_connection_shock(burgers, demo_connection):
    """The two-trace steady profile survives a long fine run intact."""
    conn, pair = demo_connection
    u0 = lambda x: dx.steady_connection_state(burgers, conn, x)
    field = dx.solve(burgers, u0, pair, dx.SolverConfig(cells=2048, t_end=0.5))
    eps = field.eps
    mask = np.abs(field.x) <= 1.0
    l1 = float(np.sum(np.abs(field.u_final - u0(field.x))[mask]) * field.dx)
    tr = dx.extract_traces(field)
    trace_err = max(abs(tr.left[-1] - conn.A), abs(tr.right[-1] - conn.B))
    worst_res = -np.inf
    for xi in np.linspace(0.0, 1.0, 16):
        rep = dx.entropy_residual_pair(field, float(xi))
        worst_res = max(worst_res, rep.worst)
        assert rep.ok
    rep_ab = dx.entropy_residual_connection(field, conn)
    ok = (l1 <= 25 * eps and rep_ab.ok and trace_err <= 5 * eps
          and tr.final_mismatch <= 1e-3)
    _line(3, ok, f"steady connection shock: L1(-1,1) {l1:.3e} (bound {25*eps:.3e}), "
                 f"traces off by {trace_err:.3e} (bound {5*eps:.3e}), "
                 f"flux mismatch {tr.final_mismatch:.3e} (bound 1e-3), "
                 f"residuals worst {max(worst_res, rep_ab.worst):.3e}")


def test_04_classical_oracle_rate(burgers):
    """Error against the exact single-flux solution shrinks at rate >= 0.4."""
    rates = {}
    for ul, ur, name in ((0.25, 0.75, "shock"), (0.75, 0.25, "fan")):
        u0 = lambda x: np.where(np.asarray(x) <= 0, ul, ur)
        ref = dx.classical_riemann(burgers.f, ul, ur)
        errs = {}
        for cells in (512, 2048):
            field = dx.solve(burgers, u0, config=dx.SolverConfig(cells=cells, t_end=0.5))
            exact = ref.profile(field.x, field.times[-1])
            mask = np.abs(field.x) <= 1.0
            errs[cells] = float(np.sum(np.abs(field.u_final - exact)[mask]) * field.dx)
        rates[name] = np.log(errs[512] / errs[2048]) / np.log(4.0)
    ok = all(p >= 0.4 for p in rates.values())
    _line(4, ok, "oracle match: rate exponents "
                 + ", ".join(f"{k}={v:.2f}" for k, v in rates.items()) + " (bound 0.4)")


def test_05_l1_window_stability(demo_cross):
    """Interior L1 distance of two runs stays below its initial full-domain value."""
    rng = np.random.default_rng(5)
    worst_margin = -np.inf
    for _ in range(5):
        cfg = dx.SolverConfig(cells=256, t_end=0.3)
        fa = dx.solve(demo_cross, random_step_profile(rng), config=cfg)
        fb = dx.solve(demo_cross, random_step_profile(rng), config=cfg)
        d0 = float(np.sum(np.abs(fa.u[0] - fb.u[0])) * fa.dx)
        mask = np.abs(fa.x) <= 1.0
        dwin = np.sum(np.abs(fa.u - fb.u)[:, mask], axis=1) * fa.dx
        worst_margin = max(worst_margin, float(np.max(dwin - (1.05 * d0 + 10 * fa.dx))))
    _line(5, worst_margin <= 0.0,
          f"L1 stability: worst margin {worst_margin:.3e} (must be <= 0)")


def test_06_ordered_data_stay_ordered(demo_cross):
    """Pointwise ordering of initial data propagates to all stored times."""
    rng = np.random.default_rng(6)
    worst = -np.inf
    for _ in range(5):
        low = random_step_profile(rng)
        shift = float(rng.uniform(0.05, 0.3))
        high = lambda x, low=low, s=shift: np.clip(np.asarray(low(x)) + s, 0.0, 1.0)
        cfg = dx.SolverConfig(cells=256, t_end=0.2)
        fl = dx.solve(demo_cross, low, config=cfg)
        fh = dx.solve(demo_cross, high, config=cfg)
        worst = max(worst, float(np.max(fl.u - fh.u)))
    _line(6, worst <= 1e-8, f"comparison principle: max(u_low - u_high) = {worst:.3e} "
                            "(bound 1e-8)")


def test_07_rate_bounds_stable_across_ladder(burgers):
    """The time-variation and viscous-energy statistics stay O(1) under refinement."""
    u0 = lambda x: np.where(np.asarray(x) <= 0, 0.25, 0.75)
    lad = dx.ladder(burgers, u0, base=dx.SolverConfig(cells=128, t_end=0.5), levels=3)
    c1 = [f.stats["c1"] for f in lad.fields]
    c2 = [f.stats["c2"] for f in lad.fields]
    var1 = max(c1) / min(c1)
    var2 = max(c2) / min(c2)
    ok = var1 < 2.0 and var2 < 2.0 and c2[-1] <= 2.0 * c2[0]
    _line(7, ok, f"a-priori bounds: c1 spread x{var1:.3f}, c2 spread x{var2:.3f} "
                 f"(bounds x2), c2 = {c2[-1]:.4f} at the finest level")


def test_08_refinement_cauchy(burgers, demo_connection):
    """Successive ladder gaps shrink by at least 20 percent per level."""
    u_fan = lambda x: np.where(np.asarray(x) <= 0, 0.75, 0.25)
    lad1 = dx.ladder(burgers, u_fan, base=dx.SolverConfig(cells=256, t_end=0.5), levels=3)
    conn, pair = demo_connection
    u_st = lambda x: dx.steady_connection_state(burgers, conn, x)
    lad2 = dx.ladder(burgers, u_st, pair, dx.SolverConfig(cells=256, t_end=0.5), levels=3)
    ok = True
    details = []
    for name, lad in (("fan", lad1), ("steady", lad2)):
        for k in range(len(lad.distances) - 1):
            ok &= lad.distances[k + 1] <= 0.8 * lad.distances[k] + 1e-12
        details.append(f"{name} gaps " + "->".join(f"{d:.2e}" for d in lad.distances))
    _line(8, ok, "refinement Cauchy property: " + "; ".join(details) + " (ratio bound 0.8)")


def test_09_crossing_machinery(demo_cross, demo_swapped):
    """Crossing verdicts and the translation repair behave as documented."""
    good = dx.check_crossing(*dx.composed_fluxes(demo_cross, dx.identity_transform(demo_cross)))
    bad = dx.check_crossing(*dx.composed_fluxes(demo_swapped, dx.identity_transform(demo_swapped)))
    witness_ok = (not bad.holds and bad.witness is not None
                  and abs(bad.witness[0] - 0.75) < 1e-9
                  and abs(bad.witness[1] - 0.25) < 1e-9)
    pair = dx.build_translation_transform(demo_swapped)
    k_l, k_r = pair.shifts
    repaired = dx.check_crossing(*dx.composed_fluxes(demo_swapped, pair))
    ok = good.holds and witness_ok and k_l > k_r and repaired.holds
    _line(9, ok, f"crossing machinery: verdicts {good.holds}/{not bad.holds}, "
                 f"witness {bad.witness}, repair shifts ({k_l:.3g}, {k_r:.3g})")


def test_10_inadmissible_shock_flagged(burgers):
    """The reversed standing jump produces a residual far above tolerance."""
    cfg = dx.SolverConfig(cells=256, t_end=0.5)
    x = cfg.centers()
    times = np.linspace(0.0, 0.5, 33)
    u = np.tile(np.where(x <= 0, 0.75, 0.25), (33, 1))
    frozen = dx.SolutionField(
        config=cfg, times=times, v=u.copy(), u=u,
        mass=np.zeros(33), boundary_flux=np.zeros((33, 2)),
        dt=float(times[1] - times[0]),
        flux=burgers, transform=dx.identity_transform(burgers),
    )
    hat = dx.SpaceTimeHat(dx.HatFunction(0.25, 0.2), dx.HatFunction(0.0, 0.5))
    tol = 1e-3
    best = -np.inf
    for xi in (0.3, 0.4, 0.5, 0.6, 0.7):
        rep = dx.entropy_residual_pair(frozen, xi, tests=[hat], tolerance=tol)
        best = max(best, rep.worst)
    _line(10, best > 10 * tol,
          f"negative control: residual {best:.4f} > 10 x tolerance {tol:g}")
