"""Entropy residuals and stability diagnostics for stored solver fields.

The residual machinery treats a stored field as piecewise constant on the
tensor grid of snapshot slabs times cells and pairs it with tent-shaped test
functions whose integrals are written in closed form.  All quadrature is then
exact for the piecewise-constant data, so steady or constant fields produce
residuals at rounding level and any reported violation is a property of the
field, not of the integration rule.  A residual does not depend on the hat
family it was computed in, nor on the reports the field served before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError
from .solver import SolutionField
from .transforms import Connection

SIGN_BAND = 1e-12
_ORDER_SLACK = 1e-10     # ordering_preserved: allowed excess of a over b
_BOUNDS_SLACK = 1e-9     # bounds_report: range slack relative to the domain width
_LADDER_RANGE_TOL = 1e-10  # ladder_bounds: largest range excess on any level
_LADDER_SPREAD = 2.0       # ladder_bounds: largest max/min ratio of c1


def _tent(x, c, r):
    """Tent of peak 1 at c and support radius r; broadcasts over all three."""
    with np.errstate(over="ignore"):   # a subnormal r: the quotient is inf, and the tent 0
        return np.maximum(0.0, 1.0 - np.abs(x - c) / r)


def _tent_integral(x, c, r):
    """Integral of the tent from c - r to x, exact; broadcasts over all three."""
    xi = np.clip(x - (c - r), 0.0, r)   # progress along the rising edge
    eta = np.clip(x - c, 0.0, r)        # progress along the falling edge
    return xi**2 / (2.0 * r) + eta - eta**2 / (2.0 * r)


@dataclass(frozen=True)
class HatFunction:
    """Tent function with peak 1 at ``center`` and support radius ``radius``."""

    center: float
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.radius)):
            raise ValueError(f"center and radius must be finite, got {self.center!r} and {self.radius!r}")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.radius, self.center + self.radius)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = _tent(arr, self.center, self.radius)
        return out if arr.shape else float(out)

    def antiderivative(self, x):
        """Integral of the hat from the left edge of its support to x, exact."""
        arr = np.asarray(x, dtype=float)
        out = _tent_integral(arr, self.center, self.radius)
        return out if arr.shape else float(out)


@dataclass(frozen=True)
class SpaceTimeHat:
    """Separable test function T(t) * X(x) built from two hats."""

    t: HatFunction
    x: HatFunction


def default_test_functions(
    field: SolutionField,
    count: int = 12,
    seed: int = 7,
    side: str | None = None,
) -> list[SpaceTimeHat]:
    """A standard family of hats inside the stored window.

    Half the family is pinned over the interface (x-hat centred on 0) at
    staggered times so interface behaviour is always probed; the rest is drawn
    from a seeded generator.  ``side`` restricts supports to x < 0 ("left") or
    x > 0 ("right"), dropping the interface-pinned members.
    """
    t0, t1 = float(field.times[0]), float(field.times[-1])
    if t1 - t0 <= 0:
        raise CoverageError("field must span a positive time interval")
    x0, x1 = float(field.x[0] - field.dx / 2), float(field.x[-1] + field.dx / 2)
    rng = np.random.default_rng(seed)
    tspan = t1 - t0
    hats: list[SpaceTimeHat] = []

    if side is None:
        pinned = (count + 1) // 2
        r = 0.2 * tspan
        for k in range(pinned):
            c = min(max(t0 + (k + 1) / (pinned + 1) * tspan, t0 + r * 1.01), t1 - r * 1.01)
            hats.append(SpaceTimeHat(HatFunction(c, r), HatFunction(0.0, min(0.25 * (x1 - x0), -x0 * 0.9, x1 * 0.9))))
        lo, hi = x0, x1
    elif side == "left":
        lo, hi = x0, 0.0
    elif side == "right":
        lo, hi = 0.0, x1
    else:
        raise ValueError(f"unknown side {side!r}")

    while len(hats) < count:
        r_x = (hi - lo) * rng.uniform(0.05, 0.2)
        c_x = rng.uniform(lo + 1.05 * r_x, hi - 1.05 * r_x)
        r_t = tspan * rng.uniform(0.1, 0.3)
        c_t = rng.uniform(t0 + 1.05 * r_t, t1 - 1.05 * r_t)
        hats.append(SpaceTimeHat(HatFunction(c_t, r_t), HatFunction(c_x, r_x)))
    return hats


def _hat_columns(hats) -> tuple[np.ndarray, ...]:
    """Centres and radii of the t- and x-hats, each as a (hats, 1) column."""
    cols = np.array([(h.t.center, h.t.radius, h.x.center, h.x.radius) for h in hats], dtype=float)
    return tuple(cols[:, k:k + 1] for k in range(4))


def _hat_integrals(times: np.ndarray, faces: np.ndarray, columns) -> tuple[np.ndarray, ...]:
    """Every hat's increments and integrals over all slabs and cells at once.

    ``columns`` are the hats' centres and radii from ``_hat_columns``.  Returns
    (dT, Tint, dX, Xint, at_zero): the change and the integral of each t-hat
    over each slab, then of each x-hat over each cell, and each x-hat's value
    at x = 0.  Row k holds exactly what hat k's own methods give.
    """
    ct, rt, cx, rx = columns
    dT = np.diff(_tent(times, ct, rt), axis=1)
    Tint = np.diff(_tent_integral(times, ct, rt), axis=1)
    dX = np.diff(_tent(faces, cx, rx), axis=1)
    Xint = np.diff(_tent_integral(faces, cx, rx), axis=1)
    return dT, Tint, dX, Xint, _tent(0.0, cx[:, 0], rx[:, 0])


def _check_support(field: SolutionField, columns):
    ct, rt, cx, rx = columns
    faces_lo = field.x[0] - field.dx / 2
    faces_hi = field.x[-1] + field.dx / 2
    if np.any(ct - rt < field.times[0] - 1e-12) or np.any(ct + rt > field.times[-1] + 1e-12):
        raise CoverageError("test function support leaves the stored time range")
    if np.any(cx - rx < faces_lo - 1e-12) or np.any(cx + rx > faces_hi + 1e-12):
        raise CoverageError("test function support leaves the stored window")


@dataclass(frozen=True)
class EntropyReport:
    """Residuals of one entropy test, judged on the worst; ``worst_hat`` is
    the test function that gave it, ``worst_index`` its place in the family."""

    kind: str
    residuals: tuple[float, ...]
    tolerance: float
    worst_index: int
    worst_hat: SpaceTimeHat

    @property
    def worst(self) -> float:
        return self.residuals[self.worst_index]

    @property
    def ok(self) -> bool:
        return bool(self.worst <= self.tolerance)

    def where(self) -> str:
        """The worst hat: its index, and the centre and radius of its t- and x-hat."""
        t, x = self.worst_hat.t, self.worst_hat.x
        return (f"hat {self.worst_index}: t={t.center:.4g} r={t.radius:.3g}, "
                f"x={x.center:.4g} r={x.radius:.3g}")

    def summary(self) -> str:
        state = "ok" if self.ok else "VIOLATED"
        return (f"{self.kind}: worst residual {self.worst:.3e} vs tol {self.tolerance:.3e} "
                f"[{state}]; {self.where()}")


def _auto_tolerance(field: SolutionField) -> float:
    scale = max(float(np.abs(field.flux.f.y).max()), float(np.abs(field.flux.g.y).max()), 1e-6)
    slab = float(np.max(np.diff(field.times))) if len(field.times) > 1 else field.dt
    return 0.5 * scale * (field.dx + slab) + 1e-9 * scale


class _FieldTerms:
    """The terms of an entropy report that depend on the field alone.

    Built by ``_field_terms`` on the first report that needs them and kept
    on the field, so the five pair reports and the adapted report of one
    verification build them once, and they die with the field.  Every
    method takes the field as an argument, so the terms hold no reference
    to it; they assume its arrays never change, as their read-only flags state.
    """

    def __init__(self, field: SolutionField):
        x, dx = field.x, field.dx
        self.faces = np.concatenate((x - dx / 2.0, [x[-1] + dx / 2.0]))
        self.split = int(np.searchsorted(x, 0.0, side="right"))   # x is sorted: g left of it, f from it on
        self.tolerance = _auto_tolerance(field)
        self._families: dict = {}
        self._branch = None
        self.buffers = tuple(np.empty(field.u[:-1].shape) for _ in range(3))   # a report's D, Q and sgn(D)
        self.state = np.empty((2, len(x)))   # a report's comparison state and its branch flux, per cell

    def family(self, field: SolutionField, tests, side: str | None = None) -> tuple:
        """The hats and each hat's terms, after the support check.

        The terms are the x-rows, a dict that maps the first hat k of each
        distinct x-hat to its rows Xint[k] and dX[k] of ``_hat_integrals``,
        then per hat its rows dT and Tint, the key of its x-hat's rows, and
        X(0) and the sum of Tint as floats (a row sum of ``Tint`` is the
        pairwise sum ``np.sum(Tint[k])`` takes).

        With ``tests`` None this is the default family of ``side``, built on
        the first call and kept; an explicit family is integrated anew.
        """
        if tests is not None:
            return tests, self._integrals(field, tests)
        family = self._families.get(side)
        if family is None:
            hats = tuple(default_test_functions(field, side=side))
            family = self._families[side] = (hats, self._integrals(field, hats))
        return family

    def _integrals(self, field: SolutionField, tests) -> tuple:
        """The x-rows and per-hat terms ``family`` returns; x-hats are equal
        when their centres and radii are, bit for bit.  The default family
        pins half its hats over the interface with one x-hat, so 12 hats
        need 7 pairs of row products."""
        columns = _hat_columns(tests)
        _check_support(field, columns)
        dT, Tint, dX, Xint, at_zero = _hat_integrals(field.times, self.faces, columns)
        first: dict = {}
        slots = [first.setdefault(key.tobytes(), k) for k, key in enumerate(np.hstack(columns[2:]))]
        x_rows = {k: (Xint[k], dX[k]) for k in first.values()}
        return x_rows, tuple(zip(dT, Tint, slots, at_zero.tolist(), Tint.sum(axis=1).tolist()))

    def branch_fluxes(self, field: SolutionField) -> np.ndarray:
        """g(u) on the cells before ``split`` and f(u) from it on, every slab."""
        if self._branch is None:
            U, k = field.u[:-1], self.split
            self._branch = np.concatenate((field.flux.g(U[:, :k]), field.flux.f(U[:, k:])), axis=1)
        return self._branch


def _field_terms(field: SolutionField) -> _FieldTerms:
    """The field's kept report terms, built on the first call."""
    terms = getattr(field, "_entropy_terms", None)
    if terms is None:
        terms = _FieldTerms(field)
        object.__setattr__(field, "_entropy_terms", terms)   # the field is frozen
    return terms


def _entropy_report(
    kind: str,
    field: SolutionField,
    c_left: float,
    c_right: float,
    interface: bool,
    tests: list[SpaceTimeHat] | None,
    tolerance: float | None,
    side: str | None = None,
) -> EntropyReport:
    """Residuals of every test function against the comparison state, judged on the worst one.

    Each residual is -(time term + space term + interface term) for one hat
    pair, exact.  The field is read as constant on each slab [t_n, t_{n+1}) x
    cell; the comparison state is ``c_left`` on the cells with x <= 0 and
    ``c_right`` on those with x > 0, and the entropy is |u - c| with the
    cell's own branch flux, g left and f right.  Each state is looked up
    once, g(c_left) and f(c_right), and one beyond the clamp raises
    DomainError; with ``interface`` the defect |f(c_right) - g(c_left)| of
    the two lookups enters as an allowance concentrated at x = 0.
    ``tests`` None takes the default family of ``side``.  The
    field's kept terms (``_field_terms``) supply each hat's rows and
    interface scalars, the branch fluxes and the automatic tolerance; only
    the terms the state enters are computed here, in whole-array passes.
    The two row products E @ Xint and Q @ dX run once per distinct x-hat,
    and each residual closes them with its own t-rows, as a lone hat would.
    A negative or tiny value means the inequality holds for that test
    function.
    """
    # inf would pass every residual and NaN or a negative value fail every one
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"{kind}: tolerance must be a finite number >= 0, got {tolerance!r}")
    if tests is not None and len(tests) == 0:
        raise ValueError(f"{kind}: the test-function family is empty")
    terms = _field_terms(field)
    tests, (x_rows, hat_terms) = terms.family(field, tests, side)
    tol = terms.tolerance if tolerance is None else float(tolerance)

    k = terms.split
    F_left, F_right = field.flux.g(c_left), field.flux.f(c_right)
    c, F = terms.state
    c[:k], c[k:], F[:k], F[k:] = c_left, c_right, F_left, F_right
    U, B = field.u[:-1], terms.branch_fluxes(field)
    D, Q, S = terms.buffers   # written in place: a report allocates no float array of the field's size
    np.subtract(U, c, out=D)
    np.subtract(B, F, out=Q)
    np.sign(D, out=S)
    E = np.abs(D, out=D)   # the entropy |u - c| takes the difference's place
    S[~(E > SIGN_BAND)] = 0.0   # sgn(D): 0 in the dead band, and at NaN
    Q *= S
    allowance = abs(float(F_right - F_left)) if interface else 0.0
    products = {j: (E @ Xint, Q @ dX) for j, (Xint, dX) in x_rows.items()}
    res = []
    for dT, Tint, j, at_zero, Tsum in hat_terms:
        EX, QX = products[j]
        res.append(-(float(dT @ EX) + float(Tint @ QX) + allowance * at_zero * Tsum))
    index = int(np.argmax(res))   # the first largest residual, or the first NaN, which then fails the report
    return EntropyReport(kind, tuple(res), tol, index, tests[index])


def entropy_residual_pair(
    field: SolutionField,
    xi: float,
    tests: list[SpaceTimeHat] | None = None,
    tolerance: float | None = None,
) -> EntropyReport:
    """Relabelled Kruzhkov test at parameter xi in the transform domain.

    The comparison state is alpha(xi) on the right of the interface and
    beta(xi) on the left; the interface defect |f(alpha(xi)) - g(beta(xi))|
    enters as an allowance concentrated at x = 0.  An xi outside the domain,
    +-inf included, is clamped to its nearer end; NaN raises ValueError.  A
    state within the clamp slack of [a, b] reads the flux at the nearer end,
    and one beyond it raises DomainError.
    """
    t = field.transform
    lo, hi = t.domain
    if math.isnan(xi):
        raise ValueError("pair-kruzhkov: xi must be a number, got nan")
    xi = float(np.clip(xi, lo, hi))
    c_right = float(t.alpha.forward(xi))
    c_left = float(t.beta.forward(xi))
    return _entropy_report("pair-kruzhkov", field, c_left, c_right, True, tests, tolerance)


def entropy_residual_side(
    field: SolutionField,
    c: float,
    side: str,
    tests: list[SpaceTimeHat] | None = None,
    tolerance: float | None = None,
) -> EntropyReport:
    """Classical one-sided Kruzhkov test away from the interface.

    ``side`` selects the half line ("left" uses g, "right" uses f); every test
    function must be supported strictly inside that half line.
    """
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    # the default family of a side is drawn inside it, so only given tests are checked
    for h in () if tests is None else tests:
        x_lo, x_hi = h.x.support
        inside = x_hi <= 1e-12 if side == "left" else x_lo >= -1e-12
        if not inside:
            raise CoverageError(f"test function support must stay on the {side} side")
    c = float(c)
    return _entropy_report(f"kruzhkov-{side}", field, c, c, False, tests, tolerance, side)


def entropy_residual_connection(
    field: SolutionField,
    conn: Connection,
    tests: list[SpaceTimeHat] | None = None,
    tolerance: float | None = None,
) -> EntropyReport:
    """Adapted-entropy test against the steady two-trace profile (A | B).

    The comparison state is A on the left and B on the right; because
    f(B) = g(A) no interface allowance is needed, which is what singles out
    the solutions adapted to this connection.
    """
    return _entropy_report("adapted-connection", field, float(conn.A), float(conn.B), False, tests, tolerance)


@dataclass(frozen=True)
class TraceReport:
    times: np.ndarray
    left: np.ndarray
    right: np.ndarray
    mismatch: np.ndarray   # |f(right) - g(left)| per snapshot

    @property
    def final_mismatch(self) -> float:
        return float(self.mismatch[-1])


def extract_traces(field: SolutionField, offset: float | None = None) -> TraceReport:
    """Sample u on both sides of the interface.

    ``offset`` is the sampling distance from 0 (default and least ``dx``),
    so on an even grid the two cells beside the interface face, which read
    both branches through it, are skipped.  The mismatch column measures how
    far the run is from the flux-matching condition a steady interface
    requires.
    """
    off = field.dx if offset is None else max(float(offset), field.dx)
    i_left = int(np.searchsorted(field.x, -off, side="right") - 1)
    i_right = int(np.searchsorted(field.x, off, side="left"))
    if i_left < 0 or i_right >= len(field.x):
        raise ValueError("offset outside the stored window")
    left = field.u[:, i_left].astype(float)
    right = field.u[:, i_right].astype(float)
    mism = np.abs(np.asarray(field.flux.f(right)) - np.asarray(field.flux.g(left)))
    return TraceReport(field.times, left, right, mism)


def l1_distances(a: SolutionField, b: SolutionField, variable: str = "v") -> np.ndarray:
    """Per-snapshot L1 distance of two runs on the same grid.

    ``variable`` picks the metric: "v" compares the transformed unknowns
    directly; "conserved" compares u, the density the scheme conserves,
    which is the quantity whose distance cannot grow (up to whatever enters
    through the boundary).
    """
    if a.v.shape != b.v.shape or not np.allclose(a.times, b.times):
        raise ValueError("runs must share grid and snapshot times")
    if variable == "v":
        return np.sum(np.abs(a.v - b.v), axis=1) * a.dx
    if variable != "conserved":
        raise ValueError(f"unknown variable {variable!r}")
    return np.sum(np.abs(a.u - b.u), axis=1) * a.dx


def ordering_preserved(a: SolutionField, b: SolutionField) -> bool:
    """True when a <= b initially implies a <= b at every stored time."""
    if not np.all(a.v[0] <= b.v[0] + _ORDER_SLACK):
        raise ValueError("runs are not ordered at the initial time")
    return bool(np.all(a.v <= b.v + _ORDER_SLACK))


@dataclass(frozen=True)
class BoundsReport:
    v_min: float
    v_max: float
    v_ok: bool
    u_min: float
    u_max: float
    u_ok: bool


def bounds_report(field: SolutionField) -> BoundsReport:
    """Range check: v inside the transform domain, u inside the flux interval."""
    lo, hi = field.transform.domain
    vmin, vmax = float(field.v.min()), float(field.v.max())
    umin, umax = float(field.u.min()), float(field.u.max())
    pad = _BOUNDS_SLACK * max(hi - lo, 1.0)
    return BoundsReport(
        vmin,
        vmax,
        lo - pad <= vmin and vmax <= hi + pad,
        umin,
        umax,
        field.flux.a - pad <= umin and umax <= field.flux.b + pad,
    )


@dataclass(frozen=True)
class LadderBounds:
    """Per-level a-priori statistics of a refinement ladder.

    ``c0`` is the range excess beyond the state interval and ``c1`` the
    worst L1 rate of change per unit time.  ``ok`` means c0 stays below
    1e-10 on every level and c1 varies by less than a factor 2, i.e. the
    quantities the scheme is supposed to control stay O(1) under
    refinement.
    """

    c0: tuple
    c1: tuple
    ok: bool


def ladder_bounds(result) -> LadderBounds:
    """Collect (c0, c1) per ladder level and check they stay O(1)."""
    c0 = tuple(f.range_excess() for f in result.fields)
    c1 = tuple(f.stats["c1"] for f in result.fields)
    ok = (
        max(c0) <= _LADDER_RANGE_TOL
        and max(c1) <= _LADDER_SPREAD * min(c1) + _LADDER_RANGE_TOL
    )
    return LadderBounds(c0, c1, ok)
