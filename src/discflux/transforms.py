"""Crossing checks, connections, and admissibility-transform builders.

A transform pair (alpha, beta) re-labels the unknown through a strictly
increasing bijection on each side of the interface.  Solving the relabelled
problem and mapping back selects which interface shocks count as admissible;
the builders here produce pairs whose composed fluxes f∘alpha, g∘beta satisfy
the one-crossing condition that the relabelled theory requires.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .curves import CLAMP_SLACK, MonotoneBijection, SampledCurve, lower_convex_envelope, merge_close
from .errors import ConstructionError
from .fluxes import (
    FluxPair,
    clip_flux,
    compose_flux,
    find_local_maxima,
)

TOL_CROSS = 1e-10  # dead band for sign decisions on flux differences
TOL_CONN = 1e-8    # slack on the flux-matching equality f(B) = g(A)
ROUND_TRIP_REL = 1e-12
_ROUND_TRIP_SAMPLES = 1000   # probe points of the audit's round-trip check
_SHIFT_NODES = 101           # nodes of the translation search's grid over [-(b-a), b-a]


@dataclass(frozen=True)
class CrossingReport:
    """Outcome of the one-crossing test on a pair of composed fluxes."""

    holds: bool
    crossings: tuple[float, ...]
    witness: tuple[float, float] | None

    def __post_init__(self):
        if self.holds == (self.witness is not None):
            raise ValueError("witness must be present exactly when the condition fails")

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "crossings": list(self.crossings),
            "witness": list(self.witness) if self.witness else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class Connection:
    """Interface state pair (A, B): left trace A, right trace B, f(B) = g(A)."""

    A: float
    B: float
    flavor: str = "classic"

    def __post_init__(self):
        if self.flavor not in ("classic", "generalized"):
            raise ValueError(f"unknown connection flavor {self.flavor!r}")


@dataclass(frozen=True)
class ConnectionCheck:
    ok: bool
    flux_gap: float
    u_star_f: float | None
    u_star_g: float | None
    reason: str = ""


@dataclass(frozen=True)
class TransformPair:
    """Side transforms alpha (x > 0) and beta (x < 0) on a common domain.

    ``c`` is the shared preimage of the connection states when the pair was
    built for one; ``clip`` records that the composed fluxes must use the
    branches zero-extended by ``clip_flux`` (translation pairs map part of
    their domain outside [a, b], by at most one interval width).
    """

    alpha: MonotoneBijection
    beta: MonotoneBijection
    c: float | None = None
    kind: str = "custom"
    clip: bool = False
    shifts: tuple[float, float] | None = None
    connection: Connection | None = None

    def __post_init__(self):
        alo, ahi = self.alpha.domain
        blo, bhi = self.beta.domain
        span = max(ahi - alo, 1.0)
        if abs(alo - blo) > CLAMP_SLACK * span or abs(ahi - bhi) > CLAMP_SLACK * span:
            raise ValueError("alpha and beta must share a domain")

    @property
    def domain(self) -> tuple[float, float]:
        return self.alpha.domain

    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v, alpha(v), beta(v)) on the union of both breakpoint sets.

        Both maps are piecewise linear with their kinks on this lattice, so
        the table represents the pair exactly.
        """
        v = merge_close(np.union1d(self.alpha.breakpoints, self.beta.breakpoints))
        return v, self.alpha.forward(v), self.beta.forward(v)

    def meta(self) -> dict:
        return {
            "kind": self.kind,
            "c": self.c,
            "clip": self.clip,
            "shifts": list(self.shifts) if self.shifts else None,
            "connection": (
                {"A": self.connection.A, "B": self.connection.B, "flavor": self.connection.flavor}
                if self.connection
                else None
            ),
        }


def identity_transform(flux: FluxPair) -> TransformPair:
    ident = MonotoneBijection.identity(flux.a, flux.b)
    return TransformPair(ident, ident, kind="identity")


def composed_fluxes(flux: FluxPair, t: TransformPair) -> tuple[SampledCurve, SampledCurve]:
    """(f∘alpha, g∘beta) on the transform domain; a clip pair composes clip_flux branches."""
    fb = clip_flux(flux.f) if t.clip else flux.f
    gb = clip_flux(flux.g) if t.clip else flux.g
    return compose_flux(fb, t.alpha), compose_flux(gb, t.beta)


def _violation_amount(d: np.ndarray) -> float:
    """Smallest dead band under which the sign pattern of d would pass.

    The crossing condition fails exactly when a positive sample precedes a
    negative one; the returned amount is the largest overlap min(pos, -neg)
    over such ordered pairs (0 when the pattern is admissible).
    """
    pos = np.where(d > 0.0, d, 0.0)
    prev_best = np.concatenate(([0.0], np.maximum.accumulate(pos)[:-1]))
    neg = np.where(d < 0.0, -d, 0.0)
    if d.size == 0:
        return 0.0
    return float(np.max(np.minimum(prev_best, neg)))


def check_crossing(fa: SampledCurve, gb: SampledCurve, dead_band: float = TOL_CROSS) -> CrossingReport:
    """Test that fa - gb changes sign at most once, from <= 0 to >= 0.

    The check fails exactly when a sample where fa - gb exceeds the dead
    band precedes one where it falls below minus the dead band; samples
    within the dead band count as zero.  The witness, when present, is the
    pair (u, v) with fa(u) < gb(u), fa(v) > gb(v) and u >= v, taken at the
    midpoints of the offending sign regions.  Adding a common constant to
    both curves leaves the verdict unchanged.
    """
    span = max(fa.hi - fa.lo, 1.0)
    if abs(fa.lo - gb.lo) > 1e-9 * span or abs(fa.hi - gb.hi) > 1e-9 * span:
        raise ValueError("curves must share a sampled domain")
    grid = merge_close(np.union1d(fa.x, gb.x))
    d = np.asarray(fa(grid)) - np.asarray(gb(grid))
    s = np.where(d > dead_band, 1, np.where(d < -dead_band, -1, 0))

    # runs of one sign over the nonzero samples; zeros inside a run are absorbed
    nonzero = np.flatnonzero(s)
    if nonzero.size == 0:
        return CrossingReport(True, (), None)
    signs = s[nonzero]
    change = np.flatnonzero(signs[1:] != signs[:-1])
    first = nonzero[np.concatenate(([0], change + 1))]  # first sample of each run
    last = nonzero[np.concatenate((change, [nonzero.size - 1]))]
    run_sign = s[first]

    # chord roots between the bracketing nonzero samples of consecutive runs
    i1, i2 = last[:-1], first[1:]
    crossings = tuple((grid[i1] + (-d[i1]) * (grid[i2] - grid[i1]) / (d[i2] - d[i1])).tolist())

    pos = np.flatnonzero(run_sign == 1)
    neg = np.flatnonzero(run_sign == -1)
    if pos.size and neg.size and neg[-1] > pos[0]:
        p, n = pos[0], neg[-1]
        witness = (
            float(0.5 * (grid[first[n]] + grid[last[n]])),
            float(0.5 * (grid[first[p]] + grid[last[p]])),
        )
        return CrossingReport(False, crossings, witness)
    return CrossingReport(True, crossings, None)


def is_connection(flux: FluxPair, A: float, B: float, flavor: str = "classic") -> ConnectionCheck:
    """Check the flux-matching equality and the side constraints of (A, B).

    ``u_star_f`` is the left-most interior maximum of f and ``u_star_g`` the
    right-most interior maximum of g; for single-hump branches these are the
    usual critical points.  The classic flavor allows the closed brackets
    u_star_g <= A <= b and a <= B <= u_star_f; the generalized flavor demands
    the open ones.
    """
    fmax = find_local_maxima(flux.f)
    gmax = find_local_maxima(flux.g)
    usf = fmax[0][0] if fmax else None
    usg = gmax[-1][0] if gmax else None
    gap = float(abs(flux.f(B) - flux.g(A)))
    if usf is None or usg is None:
        return ConnectionCheck(False, gap, usf, usg, "a flux branch has no interior maximum")
    if gap > TOL_CONN:
        return ConnectionCheck(
            False, gap, usf, usg, f"flux mismatch |f(B)-g(A)| = {gap:.3e} exceeds {TOL_CONN:g}"
        )
    eps = 1e-12
    if flavor == "classic":
        ok = (usg - eps <= A <= flux.b + eps) and (flux.a - eps <= B <= usf + eps)
    elif flavor == "generalized":
        ok = (usg < A < flux.b) and (flux.a < B < usf)
    else:
        raise ValueError(f"unknown connection flavor {flavor!r}")
    reason = "" if ok else (
        f"state ordering violated: need A in [{usg:.6g}, {flux.b:.6g}] and "
        f"B in [{flux.a:.6g}, {usf:.6g}] ({flavor})"
    )
    return ConnectionCheck(ok, gap, usf, usg, reason)


def _translation_pair(flux: FluxPair, k_l: float, k_r: float) -> TransformPair:
    lo = flux.a - k_l
    hi = flux.b - k_r
    return TransformPair(
        MonotoneBijection.translation(k_r, lo, hi),
        MonotoneBijection.translation(k_l, lo, hi),
        kind="translation",
        clip=True,
        shifts=(float(k_l), float(k_r)),
    )


def build_translation_transform(flux: FluxPair) -> TransformPair:
    """Shifts (d, 0), d = k_l - k_r >= 0 least on a grid, making the clipped pair cross once.

    With s = v + k_l the composed difference is f(s - d) - g(s) on [a, b + d],
    so the verdict depends on d alone and |k_l| + |k_r| >= d, with equality at
    (d, 0).  The non-negative nodes of a grid over [-(b-a), b-a] are checked
    upward, exactly on the composed breakpoint union; past d = b - a the
    shifted branches overlap only where one vanishes, so the verdict stops
    changing.  A compliant pair comes back with zero shifts.
    """
    width = flux.b - flux.a
    shifts = np.linspace(-width, width, _SHIFT_NODES)
    best = (np.inf, None)
    for d in shifts[shifts >= 0.0]:
        pair = _translation_pair(flux, d, 0.0)
        fa, gb = composed_fluxes(flux, pair)
        grid = merge_close(np.union1d(fa.x, gb.x))
        amount = _violation_amount(fa(grid) - gb(grid))
        if amount <= TOL_CROSS:
            return pair
        if amount < best[0]:
            best = (amount, pair.shifts)
    raise ConstructionError(
        f"no translation shifts pass the crossing check; best miss {best[0]:.3e} at {best[1]}",
        payload={"violation": best[0], "shifts": best[1]},
    )


def _monotone_branch(curve: SampledCurve, lo: float, hi: float, increasing: bool):
    """Exact node table of a branch restricted to [lo, hi], checked monotone."""
    xs = curve.x[(curve.x > lo) & (curve.x < hi)]
    nodes = merge_close(np.concatenate(([lo], xs, [hi])))
    vals = np.asarray(curve(nodes))
    diffs = np.diff(vals)
    bad = diffs <= 0 if increasing else diffs >= 0
    if np.any(bad):
        where = float(nodes[int(np.argmax(bad))])
        word = "increasing" if increasing else "decreasing"
        raise ConstructionError(
            f"flux branch is not strictly {word} on [{lo:.6g}, {hi:.6g}] near u = {where:.6g}",
            payload={"location": where},
        )
    return nodes, vals


def build_connection_transform(flux: FluxPair, conn: Connection) -> TransformPair:
    """Build a transform pair that turns the steady state (A | B) into a constant.

    Piece layout on the common domain [a, b] with interior knots
    v1 = a + (b-a)/3, v2 = b - (b-a)/3 and c = (v1 + v2)/2:

    * beta is linear on [a, v1] onto [a, u*_g] and bridges to (c, A); on
      [c, b] it is g^{-1} of the convex minorant of f∘alpha there.
    * alpha on [a, c] is f^{-1} of the convex minorant of g∘beta (which makes
      f∘alpha <= g∘beta on [a, c] exact), bridges to (v2, u*_f) and runs
      linearly to (b, b).

    The minorants touch the data at c with common value g(A) = f(B), so the
    composed fluxes cross exactly once, at c, and alpha(c) = B, beta(c) = A.
    """
    chk = is_connection(flux, conn.A, conn.B, conn.flavor)
    if not chk.ok:
        raise ValueError(f"invalid connection ({conn.A}, {conn.B}): {chk.reason}")
    a, b = flux.a, flux.b
    A, B = float(conn.A), float(conn.B)
    usf, usg = chk.u_star_f, chk.u_star_g
    width = b - a
    tiny = 1e-9 * width
    third = width / 3.0
    v1 = a + third
    v2 = b - third
    c = 0.5 * (v1 + v2)

    # --- beta on [a, c]: linear ramp through the g-maximum, then to (c, A)
    if A - usg > tiny:
        beta_left = MonotoneBijection(np.array([a, v1, c]), np.array([a, usg, A]))
    else:
        beta_left = MonotoneBijection(np.array([a, c]), np.array([a, A]))

    # --- alpha on [a, c]: f^{-1} of the convex minorant of g∘beta
    g_beta = compose_flux(flux.g, beta_left)
    ex, ey = lower_convex_envelope(g_beta.x, g_beta.y)
    if np.any(np.diff(ey) <= 0):
        raise ConstructionError(
            "convex minorant of g∘beta is not strictly increasing on [a, c]",
            payload={"vertices": (ex.tolist(), ey.tolist())},
        )
    fb_x, fb_y = _monotone_branch(flux.f, a, usf, increasing=True)
    inner = fb_y[(fb_y > ey[0]) & (fb_y < ey[-1])]
    alpha_bp = merge_close(np.union1d(ex, np.interp(inner, ey, ex)))
    alpha_val = np.interp(
        np.clip(np.interp(alpha_bp, ex, ey), fb_y[0], fb_y[-1]), fb_y, fb_x
    )
    alpha_val[0] = a  # f^{-1}(0) up to the endpoint tolerance
    bp_list = [alpha_bp]
    val_list = [alpha_val]
    if usf - alpha_val[-1] > tiny:
        bp_list.append(np.array([v2]))
        val_list.append(np.array([usf]))
    bp_list.append(np.array([b]))
    val_list.append(np.array([b]))
    try:
        alpha = MonotoneBijection(np.concatenate(bp_list), np.concatenate(val_list))
    except ValueError as exc:
        raise ConstructionError(f"alpha table degenerate: {exc}") from exc

    # --- beta on [c, b]: g^{-1} of the convex minorant of f∘alpha
    f_alpha = compose_flux(flux.f, alpha.restricted(c, b))
    hx, hy = lower_convex_envelope(f_alpha.x, f_alpha.y)
    if np.any(np.diff(hy) >= 0):
        raise ConstructionError(
            "convex minorant of f∘alpha is not strictly decreasing on [c, b]",
            payload={"vertices": (hx.tolist(), hy.tolist())},
        )
    gb_x, gb_y = _monotone_branch(flux.g, usg, b, increasing=False)
    g_inner = gb_y[(gb_y > hy[-1]) & (gb_y < hy[0])]
    beta_bp = merge_close(np.union1d(hx, np.interp(g_inner, hy[::-1], hx[::-1])))
    beta_val = np.interp(
        np.clip(np.interp(beta_bp, hx, hy), gb_y[-1], gb_y[0]), gb_y[::-1], gb_x[::-1]
    )
    beta_val[0] = A
    beta_val[-1] = b
    bp_all = np.concatenate([beta_left.breakpoints[:-1], beta_bp])
    val_all = np.concatenate([beta_left.values[:-1], beta_val])
    try:
        beta = MonotoneBijection(bp_all, val_all)
    except ValueError as exc:
        raise ConstructionError(f"beta table degenerate: {exc}") from exc

    pair = TransformPair(
        alpha, beta, c=float(c), kind="connection", connection=conn
    )
    report = check_crossing(*composed_fluxes(flux, pair))
    if not report.holds:
        raise ConstructionError(
            "constructed pair failed the crossing check", payload=report.to_dict()
        )
    return pair


@dataclass(frozen=True)
class TransformAudit:
    ok: bool
    failures: tuple[str, ...]
    crossing: CrossingReport | None
    round_trip_error: float


def verify_transform(flux: FluxPair, t: TransformPair) -> TransformAudit:
    """Audit a transform pair: monotonicity, round trips, domains, crossing.

    This is the gate the solver applies before accepting a pair; anything a
    file or a hand-built pair might get wrong is re-checked here rather than
    trusted from construction.
    """
    failures: list[str] = []
    monotone = True
    for name, m in (("alpha", t.alpha), ("beta", t.beta)):
        dbp = np.diff(m.breakpoints)
        dval = np.diff(m.values)
        if not np.all(dbp > 0):
            failures.append(f"{name}: breakpoints not strictly increasing at index {int(np.argmin(dbp))}")
            monotone = False
        if not np.all(dval > 0):
            failures.append(f"{name}: values not strictly increasing at index {int(np.argmin(dval))}")
            monotone = False
    alo, ahi = t.alpha.domain
    blo, bhi = t.beta.domain
    span = max(ahi - alo, 1.0)
    if abs(alo - blo) > 1e-9 * span or abs(ahi - bhi) > 1e-9 * span:
        failures.append("alpha and beta domains differ")

    rt_err = np.inf
    if monotone:
        probe = np.linspace(alo, ahi, _ROUND_TRIP_SAMPLES)
        rt_err = 0.0
        for m in (t.alpha, t.beta):
            rt_err = max(rt_err, float(np.max(np.abs(m.inverse(m.forward(probe)) - probe))))
        if rt_err > ROUND_TRIP_REL * max(ahi - alo, 1.0):
            failures.append(f"round-trip error {rt_err:.3e} exceeds tolerance")

    crossing = None
    if monotone:
        try:
            fa, gb = composed_fluxes(flux, t)
            crossing = check_crossing(fa, gb)
            if not crossing.holds:
                failures.append(f"composed fluxes fail the crossing condition (witness {crossing.witness})")
            if t.c is not None:
                gap = float(abs(fa(t.c) - gb(t.c)))
                if gap > TOL_CONN:
                    failures.append(f"composed fluxes disagree at c: |f_a(c)-g_b(c)| = {gap:.3e}")
        except Exception as exc:  # composition errors count as audit failures
            failures.append(f"composition failed: {exc}")

    return TransformAudit(not failures, tuple(failures), crossing, rt_err)
