"""Crossing checks, connections, and admissibility-transform builders.

A transform pair (alpha, beta) re-labels the unknown through a strictly
increasing bijection on each side of the interface.  Solving the relabelled
problem and mapping back selects which interface shocks count as admissible;
the builders here produce pairs whose composed fluxes f∘alpha, g∘beta satisfy
the one-crossing condition that the relabelled theory requires.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .curves import (CLAMP_SLACK, MERGE_REL, MonotoneBijection, SampledCurve, _on_union, lower_convex_envelope,
                     merge_close, run_bounds)
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
    """Outcome of the one-crossing test on a pair of composed fluxes: it holds when there is no witness."""

    crossings: tuple[float, ...]
    witness: tuple[float, float] | None

    @property
    def holds(self) -> bool:
        return self.witness is None

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


@dataclass(frozen=True)
class ConnectionCheck:
    ok: bool
    flux_gap: float
    u_star_f: float | None
    u_star_g: float | None
    reason: str = ""


@dataclass(frozen=True)
class TransformPair:
    """Side transforms alpha (x > 0) and beta (x < 0) on one breakpoint lattice, their merged union.

    ``shifts`` (k_l, k_r) marks the translation pair of those shifts, whose
    composed fluxes use the zero-extended branches; ``connection`` marks a
    pair built for the interface states (A, B).  At most one of the two is
    set; ``kind`` and ``c`` are derived from them and from the maps.
    """

    alpha: MonotoneBijection
    beta: MonotoneBijection
    shifts: tuple[float, float] | None = None
    connection: Connection | None = None

    def __post_init__(self):
        alo, ahi = self.alpha.domain
        blo, bhi = self.beta.domain
        span = max(ahi - alo, 1.0)
        if abs(alo - blo) > CLAMP_SLACK * span or abs(ahi - bhi) > CLAMP_SLACK * span:
            raise ValueError("alpha and beta must share a domain")
        # each map is exact on the union, which holds its kinks; maps on one lattice stay as given,
        # so a pair rebuilt from its table() is the same numbers
        if not np.array_equal(self.alpha.breakpoints, self.beta.breakpoints):
            v = merge_close(np.sort(np.concatenate((self.alpha.breakpoints, self.beta.breakpoints))))
            for name in ("alpha", "beta"):
                object.__setattr__(self, name, _side_map(name, v, getattr(self, name).forward(v)))
        if self.shifts is not None:
            object.__setattr__(self, "shifts", tuple(float(s) for s in self.shifts))
            if len(self.shifts) != 2 or not np.all(np.isfinite(self.shifts)):
                raise ValueError(f"shifts must be two finite numbers, not {self.shifts!r}")
        if not isinstance(self.connection, (Connection, type(None))):
            raise TypeError(f"connection must be a Connection, not {type(self.connection).__name__}")
        if self.shifts is not None and self.connection is not None:
            raise ValueError("a pair sets shifts or a connection, not both")

    @property
    def kind(self) -> str:
        """'translation', 'connection', 'identity' (both maps the identity) or 'custom'."""
        if self.shifts is not None or self.connection is not None:
            return "translation" if self.connection is None else "connection"
        identity = all(np.array_equal(m.breakpoints, m.values) for m in (self.alpha, self.beta))
        return "identity" if identity else "custom"

    @property
    def c(self) -> float | None:
        """beta^{-1}(A), the shared preimage of the connection states; None without a connection."""
        return None if self.connection is None else float(self.beta.inverse(self.connection.A))

    @property
    def domain(self) -> tuple[float, float]:
        return self.alpha.domain

    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v, alpha(v), beta(v)) on the pair's one lattice: the stored (read-only) arrays."""
        return self.alpha.breakpoints, self.alpha.values, self.beta.values

    def meta(self) -> dict:
        """JSON metadata; ``shifts`` and ``connection`` are read back, ``kind`` and ``c`` are for readers."""
        return {"kind": self.kind, "c": self.c, "shifts": self.shifts,
                "connection": asdict(self.connection) if self.connection else None}


def _side_map(name: str, v, values) -> MonotoneBijection:
    """The pair's map ``name`` with these values on the lattice v.

    A map whose domain end lies less than ``CLAMP_SLACK`` inside the other
    map's passes the shared-domain check, but the shared lattice holds both
    ends, and the map is clamped between them: it repeats its end value
    there, as does a table saved from such a pair.  That ValueError names
    the map and the two ends; any other failure is ``MonotoneBijection``'s.
    """
    v, values = np.asarray(v, dtype=float), np.asarray(values, dtype=float)
    if v.size > 2:   # fewer nodes are MonotoneBijection's to reject
        span = max(v[-1] - v[0], 1.0)
        for i, j in ((0, 1), (-2, -1)):
            if values[i] == values[j] and v[j] - v[i] < CLAMP_SLACK * span:
                raise ValueError(
                    f"{name} repeats its end value {values[i]:.17g} at v = {v[i]:.17g} and {v[j]:.17g}: "
                    f"two domain ends that differ by {v[j] - v[i]:.3g}, less than CLAMP_SLACK = {CLAMP_SLACK:g} "
                    f"times the span {span:g}, so the map is clamped between them; give alpha and beta the "
                    "same domain")
    return MonotoneBijection(v, values)


def identity_transform(flux: FluxPair) -> TransformPair:
    ident = MonotoneBijection.identity(flux.a, flux.b)
    return TransformPair(ident, ident)


def _zero_extended(flux: FluxPair) -> tuple[SampledCurve, SampledCurve]:
    """The branches f and g that a translation pair composes: ``clip_flux`` of each."""
    return clip_flux(flux.f), clip_flux(flux.g)


def _branches(flux: FluxPair, t: TransformPair) -> tuple[SampledCurve, SampledCurve]:
    """(f, g) as the pair composes them: with ``t.shifts`` set, the ``_zero_extended`` branches."""
    return _zero_extended(flux) if t.shifts is not None else (flux.f, flux.g)


def composed_fluxes(flux: FluxPair, t: TransformPair) -> tuple[SampledCurve, SampledCurve]:
    """(f∘alpha, g∘beta) on the transform domain, of the ``_branches`` of the pair."""
    f, g = _branches(flux, t)
    return compose_flux(f, t.alpha), compose_flux(g, t.beta)


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
    return _crossing(fa, gb, dead_band)[0]


def _crossing(fa: SampledCurve, gb: SampledCurve, dead_band: float = TOL_CROSS) -> tuple[CrossingReport, tuple]:
    """``check_crossing``'s report, and the ``_on_union`` tables of fa and gb it is read from."""
    span = max(fa.hi - fa.lo, 1.0)
    if abs(fa.lo - gb.lo) > 1e-9 * span or abs(fa.hi - gb.hi) > 1e-9 * span:
        raise ValueError("curves must share a sampled domain")
    tables = grid, fa_grid, gb_grid = _on_union(fa, gb)
    d = fa_grid - gb_grid
    s = np.where(d > dead_band, 1, np.where(d < -dead_band, -1, 0))

    # runs of one sign over the nonzero samples; zeros inside a run are absorbed
    nonzero = np.flatnonzero(s)
    if nonzero.size == 0:
        return CrossingReport((), None), tables
    signs = s[nonzero]
    first, last = (nonzero[k] for k in run_bounds(signs[1:] != signs[:-1]))  # each run's end samples
    run_sign = s[first]

    # chord roots between the bracketing nonzero samples of consecutive runs
    i1, i2 = last[:-1], first[1:]
    crossings = tuple((grid[i1] + (-d[i1]) * (grid[i2] - grid[i1]) / (d[i2] - d[i1])).tolist())

    pos = np.flatnonzero(run_sign == 1)
    neg = np.flatnonzero(run_sign == -1)
    witness = None
    if pos.size and neg.size and neg[-1] > pos[0]:
        p, n = pos[0], neg[-1]
        witness = (
            float(0.5 * (grid[first[n]] + grid[last[n]])),
            float(0.5 * (grid[first[p]] + grid[last[p]])),
        )
    return CrossingReport(crossings, witness), tables


def is_connection(flux: FluxPair, A: float, B: float) -> ConnectionCheck:
    """Check the flux-matching equality and the side constraints of (A, B).

    ``u_star_f`` is the left-most interior maximum of f and ``u_star_g`` the
    right-most interior maximum of g; for single-hump branches these are the
    usual critical points.  The brackets u_star_g <= A <= b and
    a <= B <= u_star_f are closed.
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
    ok = (usg - eps <= A <= flux.b + eps) and (flux.a - eps <= B <= usf + eps)
    reason = "" if ok else (f"state ordering violated: need A in [{usg:.6g}, {flux.b:.6g}] and "
                            f"B in [{flux.a:.6g}, {usf:.6g}]")
    return ConnectionCheck(ok, gap, usf, usg, reason)


def _translation_pair(flux: FluxPair, k_l: float, k_r: float) -> TransformPair:
    lo = flux.a - k_l
    hi = flux.b - k_r
    return TransformPair(
        MonotoneBijection.translation(k_r, lo, hi),
        MonotoneBijection.translation(k_l, lo, hi),
        shifts=(k_l, k_r),
    )


def _translation_gap(flux: FluxPair, t: TransformPair) -> float:
    """Largest distance of t's domain from (a - k_l, b - k_r) and of its maps from v + k_r and v + k_l."""
    k_l, k_r = t.shifts
    v, alpha, beta = t.table()
    return float(max(np.max(np.abs(np.subtract(t.domain, (flux.a - k_l, flux.b - k_r)))),
                     np.max(np.abs(alpha - (v + k_r))), np.max(np.abs(beta - (v + k_l)))))


def _crosses_back(d: np.ndarray, band: float) -> bool:
    """Whether a sample of d above ``band`` precedes one below ``-band``: exactly ``_violation_amount(d) > band``."""
    above = np.flatnonzero(d > band)
    return above.size > 0 and bool(np.any(d[above[0] + 1:] < -band))


def _shift_difference(f: SampledCurve, g: SampledCurve, a: float, b: float, d: float) -> np.ndarray:
    """f(v) - g(v + d) on the composed breakpoint union of the translation pair of shifts (d, 0).

    The union is a - d, b, f's nodes between them and g's nodes between a and
    b + d shifted by -d, merged by ``merge_close``: the difference of
    ``composed_fluxes`` on ``_on_union`` (bit for bit on the registry
    lattices) without a curve built per shift.
    """
    lo = a - d
    v = merge_close(np.sort(np.concatenate(([lo, b], f.x[(f.x > lo) & (f.x < b)],
                                            g.x[(g.x > lo + d) & (g.x < b + d)] - d))))
    return f(v) - g(v + d)


def build_translation_transform(flux: FluxPair) -> TransformPair:
    """Shifts (d, 0), d = k_l - k_r >= 0 least on a grid, making the zero-extended pair cross once.

    With s = v + k_l the composed difference is f(s - d) - g(s) on [a, b + d],
    so the verdict depends on d alone and |k_l| + |k_r| >= d, with equality at
    (d, 0).  The non-negative nodes of a grid over [-(b-a), b-a] are checked
    upward on f(v) - g(v + d) (``_shift_difference``).  Past d = b - a the
    shifted branches overlap only where one vanishes, so the verdict stops
    changing.  A compliant pair comes back with zero shifts.

    Each shift is first read on f's own nodes in [a, b), where f is ``f.y``
    itself: one lookup of g, with no sort and no merge.  The union holds
    these nodes, and ``merge_close`` moves each, keeping their order, onto a
    kept node at most one gap of ``MERGE_REL`` times the span (at most
    2(b - a)) per union node away; the union has fewer nodes than the two
    zero-extended branches together.  The difference moves by at most that
    distance times the branches' largest slopes; the margin is twice this,
    which also covers the rounding of the lookups.  So a shift whose
    violation on f's nodes exceeds ``TOL_CROSS`` by more than the margin
    fails the exact check, and is rejected without it; only the survivors
    are checked on the union.  Both checks ask whether a sample above the
    band precedes one below minus the band (``_crosses_back``).  When no
    shift passes, every shift is scanned exactly again for the best miss
    that ``ConstructionError`` reports: a failure costs one pruned and one
    exact scan, and a compliant pair one prune more than the exact check
    alone (about 0.05 ms on the 4,097-node registry branches, on a 2-core
    Xeon).
    """
    a, b = flux.a, flux.b
    shifts = np.linspace(a - b, b - a, _SHIFT_NODES)
    shifts = shifts[shifts >= 0.0]
    f, g = _zero_extended(flux)
    v, fv = flux.f.x[:-1], flux.f.y[:-1]
    slope = sum(float(np.max(np.abs(np.diff(c.y) / np.diff(c.x)))) for c in (f, g))
    margin = 2.0 * (f.x.size + g.x.size) * MERGE_REL * max(2.0 * (b - a), 1.0) * slope
    for d in shifts:
        if _crosses_back(fv - g(v + d), TOL_CROSS + margin):
            continue
        if not _crosses_back(_shift_difference(f, g, a, b, d), TOL_CROSS):
            return _translation_pair(flux, d, 0.0)
    misses = [_violation_amount(_shift_difference(f, g, a, b, d)) for d in shifts]
    k = int(np.argmin(misses))
    best = (misses[k], (float(shifts[k]), 0.0))
    raise ConstructionError(
        f"no translation shifts pass the crossing check; best miss {best[0]:.3e} at {best[1]}",
        payload={"violation": best[0], "shifts": best[1]},
    )


def _minorant_inverse(composed: SampledCurve, branch: SampledCurve, lo: float, hi: float,
                      increasing: bool) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and values of branch^{-1} of the convex minorant of ``composed``, exact.

    ``composed`` is g∘beta with f increasing on [lo, hi], or f∘alpha with g
    decreasing there; the minorant must be strictly monotone the same way.
    """
    ex, ey = lower_convex_envelope(composed.x, composed.y)
    sign, word = (1.0, "increasing") if increasing else (-1.0, "decreasing")
    if np.any(sign * np.diff(ey) <= 0):
        name, where = ("g∘beta", "[a, c]") if increasing else ("f∘alpha", "[c, b]")
        raise ConstructionError(
            f"convex minorant of {name} is not strictly {word} on {where}",
            payload={"vertices": (ex.tolist(), ey.tolist())},
        )
    # the branch's exact node table on [lo, hi], checked monotone
    xs = branch.x[(branch.x > lo) & (branch.x < hi)]
    nodes = merge_close(np.concatenate(([lo], xs, [hi])))
    vals = branch(nodes)
    bad = sign * np.diff(vals) <= 0
    if np.any(bad):
        at = float(nodes[int(np.argmax(bad))])
        raise ConstructionError(
            f"flux branch is not strictly {word} on [{lo:.6g}, {hi:.6g}] near u = {at:.6g}",
            payload={"location": at},
        )
    # np.interp reads a table by increasing argument: a decreasing one is read reversed
    up = slice(None, None, 1 if increasing else -1)
    nodes, vals = nodes[up], vals[up]
    inner = vals[(vals > ey[up][0]) & (vals < ey[up][-1])]
    bp = merge_close(np.sort(np.concatenate((ex, np.interp(inner, ey[up], ex[up])))))
    out = np.interp(np.clip(np.interp(bp, ex, ey), vals[0], vals[-1]), vals, nodes)
    out[0 if increasing else -1] = nodes[0]   # the branch's zero, up to the endpoint tolerance
    return bp, out


def build_connection_transform(flux: FluxPair, conn: Connection) -> TransformPair:
    """Build a transform pair that turns the steady state (A | B) into a constant.

    Piece layout on the common domain [a, b] with interior knots
    v1 = a + (b-a)/3, v2 = b - (b-a)/3 and c = (v1 + v2)/2:

    * beta is linear on [a, v1] onto [a, u*_g] and bridges to (c, A); on
      [c, b] it is g^{-1} of the convex minorant of f∘alpha there.
    * alpha on [a, c] is f^{-1} of the convex minorant of g∘beta (which makes
      f∘alpha <= g∘beta on [a, c] exact), bridges to (v2, u*_f) and runs
      linearly to (b, b).

    Both minorant inversions are ``_minorant_inverse``, once per monotone
    direction.  The minorants touch the data at c with common value
    g(A) = f(B), so the composed fluxes cross exactly once, at c, and
    alpha(c) = B, beta(c) = A.
    """
    chk = is_connection(flux, conn.A, conn.B)
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
    alpha_bp, alpha_val = _minorant_inverse(compose_flux(flux.g, beta_left), flux.f, a, usf, increasing=True)
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
    beta_bp, beta_val = _minorant_inverse(compose_flux(flux.f, alpha.restricted(c, b)), flux.g, usg, b,
                                          increasing=False)
    beta_val[0] = A
    bp_all = np.concatenate([beta_left.breakpoints[:-1], beta_bp])
    val_all = np.concatenate([beta_left.values[:-1], beta_val])
    try:
        beta = MonotoneBijection(bp_all, val_all)
    except ValueError as exc:
        raise ConstructionError(f"beta table degenerate: {exc}") from exc

    pair = TransformPair(alpha, beta, connection=conn)
    audit = _audit(flux, pair)[0]   # kept on the pair: a solve or verification of it with flux reuses it
    if audit.crossing is None:
        raise ConstructionError("constructed pair failed its audit: " + "; ".join(audit.failures))
    if not audit.crossing.holds:
        raise ConstructionError(
            "constructed pair failed the crossing check", payload=audit.crossing.to_dict()
        )
    return pair


@dataclass(frozen=True)
class TransformAudit:
    ok: bool
    failures: tuple[str, ...]
    crossing: CrossingReport | None
    round_trip_error: float


def verify_transform(flux: FluxPair, t: TransformPair) -> TransformAudit:
    """Audit a transform pair: round trips, shifts, crossing, connection at c.

    This is the gate the solver applies before accepting a pair.  Monotone
    maps on one domain are checked at construction and their arrays are
    read-only (not to be written), so it checks what a file or a hand-built
    pair can still get wrong: a pair with ``shifts`` must be the translation
    pair of those shifts, and a pair with a connection (A, B) must map ``c``
    to B and cross there.  The audit is kept on the pair for the last flux
    object it was run against (see ``_audit``), so auditing a pair again
    with that flux, as ``solve`` and ``ladder`` do, returns the same result.
    """
    return _audit(flux, t)[0]


def _audit(flux: FluxPair, t: TransformPair) -> tuple[TransformAudit, tuple | None]:
    """``verify_transform``'s audit and the ``_on_union`` tables of ``composed_fluxes`` (None if it fails).

    The audit depends on the flux and the pair alone, and both are frozen
    with read-only arrays, so the result is kept on the pair for the flux
    object it was computed against and returned while that same object is
    passed; any other flux replaces it.  A pair made by
    ``dataclasses.replace`` or rebuilt from the same maps starts with none.
    The tables are shared by every solve of the pair and must not be written.
    """
    kept = getattr(t, "_kept_audit", None)
    if kept is not None and kept[0] is flux:
        return kept[1]
    failures: list[str] = []
    lo, hi = t.domain
    span = max(hi - lo, 1.0)
    probe = np.linspace(lo, hi, _ROUND_TRIP_SAMPLES)
    rt_err = 0.0
    for m in (t.alpha, t.beta):
        rt_err = max(rt_err, float(np.max(np.abs(m.inverse(m.forward(probe)) - probe))))
    if rt_err > ROUND_TRIP_REL * span:
        failures.append(f"round-trip error {rt_err:.3e} exceeds tolerance")

    if t.shifts is not None:
        gap = _translation_gap(flux, t)
        if gap > ROUND_TRIP_REL * span:
            failures.append(f"maps are not the translation pair of shifts {t.shifts} (gap {gap:.3e})")

    crossing = tables = None
    try:
        fa, gb = composed_fluxes(flux, t)
        crossing, tables = _crossing(fa, gb)
        if not crossing.holds:
            failures.append(f"composed fluxes fail the crossing condition (witness {crossing.witness})")
        if t.c is not None:
            gap = float(abs(fa(t.c) - gb(t.c)))
            if gap > TOL_CONN:
                failures.append(f"composed fluxes disagree at c: |f_a(c)-g_b(c)| = {gap:.3e}")
            # beta(c) = A by the definition of c; alpha must carry c to B
            gap = abs(float(t.alpha.forward(t.c)) - t.connection.B)
            if gap > ROUND_TRIP_REL * span:
                failures.append(f"alpha(c) misses the connection's B = {t.connection.B:g} (gap {gap:.3e})")
    except Exception as exc:  # composition errors count as audit failures
        failures.append(f"composition failed: {exc}")

    result = TransformAudit(not failures, tuple(failures), crossing, rt_err), tables
    object.__setattr__(t, "_kept_audit", (flux, result))   # the pair is frozen
    return result
