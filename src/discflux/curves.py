"""Piecewise-linear sampled functions and strictly monotone bijections.

Everything downstream (flux branches, admissibility transforms, envelopes,
Riemann constructions) is carried by dense piecewise-linear data.  That class
of functions is closed under composition, zero extension, convex envelopes and
inversion, and each of those operations is exact on the breakpoint lattice,
so verification checks do not have to fight discretisation noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# absolute evaluation slack: values this far past the node span are clamped,
# anything further raises DomainError
CLAMP_SLACK = 1e-9

# breakpoints closer than this (relative to the span) are merged when lattices
# are unioned: each moves at most this far, so the induced function
# perturbation is below every tolerance used
MERGE_REL = 1e-12


def _table(x, y, names: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """Float node and value arrays: 1-d, same shape, finite, at least two strictly increasing nodes.

    Read-only views of read-only copies, so the caller's arrays stay writable and
    the flag cannot be set back on the stored arrays.  A deep copy or a pickle
    comes back writable and is not checked again: the arrays are not to be written.
    """
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-d array with at least two entries")
    if y.shape != x.shape:
        raise ValueError(f"{names[0]} and {names[1]} must have matching shape")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError(f"{names[0]} and {names[1]} must be finite")
    if not np.all(np.diff(x) > 0):
        raise ValueError(f"{names[0]} must be strictly increasing")
    x.flags.writeable = y.flags.writeable = False
    return x[:], y[:]


def _lookup(u, xp: np.ndarray, fp: np.ndarray, slack: float, what: str):
    """np.interp on (xp, fp), which clamps to the end values; DomainError beyond ``slack``, NaN passes."""
    arr = np.asarray(u, dtype=float)
    lo, hi = xp[0], xp[-1]
    if arr.size and (np.fmin.reduce(arr, axis=None) < lo - slack
                     or np.fmax.reduce(arr, axis=None) > hi + slack):
        raise DomainError(f"{what} outside [{lo:.6g}, {hi:.6g}] beyond the {slack:g} clamp slack")
    return np.interp(arr, xp, fp)


def merge_close(x: np.ndarray) -> np.ndarray:
    """Drop entries of a sorted array within ``MERGE_REL * span`` of the last entry kept before them.

    So every entry lies within that distance of a kept one, and kept ones
    lie further apart; the last entry takes the place of the kept one it
    falls close to, so both ends survive.
    """
    x = np.asarray(x, dtype=float)
    if x.size <= 1:
        return x
    tol = MERGE_REL * max(x[-1] - x[0], 1.0)
    keep = np.empty(x.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(x) > tol
    # an entry far from the one before it is far from every earlier one; only an
    # entry after a dropped one (a chain) is read against the last kept entry
    prev = -1
    for i in (np.flatnonzero(~keep[1:] & ~keep[:-1]) + 1).tolist():
        if prev != i - 1:   # a new chain: its first link was dropped for x[i - 2], kept
            last = x[i - 2]
        if x[i] - last > tol:
            keep[i], last = True, x[i]
        prev = i
    out = x[keep]
    if out.size and x[-1] - out[-1] > 0:
        out = np.append(out[:-1], x[-1]) if out.size > 1 else np.array([x[0], x[-1]])
    return out


def _on_union(p: SampledCurve, q: SampledCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grid, p(grid), q(grid)) on the merged union of both node lattices, where both are exact."""
    # merge_close drops exact duplicates too; np.union1d would import numpy.ma on its first call
    grid = merge_close(np.sort(np.concatenate((p.x, q.x))))
    return grid, p(grid), q(grid)


def run_bounds(breaks) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each maximal run of an array.

    ``breaks[i]`` marks that entries i and i + 1 lie in different runs, so an
    array of n entries takes n - 1 marks and has one run more than it has
    marks set.
    """
    cut = np.flatnonzero(breaks)
    return np.concatenate(([0], cut + 1)), np.concatenate((cut, [len(breaks)]))


@dataclass(frozen=True)
class SampledCurve:
    """Piecewise-linear function on a strictly increasing node lattice.

    Evaluation tolerates ``CLAMP_SLACK`` of overshoot past the node span and
    raises DomainError beyond it; a curve that must be read further out
    carries the extra nodes as data (see ``fluxes.clip_flux``).
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = _table(self.x, self.y, ("nodes", "values"))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def lo(self) -> float:
        return float(self.x[0])

    @property
    def hi(self) -> float:
        return float(self.x[-1])

    @property
    def domain(self) -> tuple[float, float]:
        return self.lo, self.hi

    def __call__(self, u):
        return _lookup(u, self.x, self.y, CLAMP_SLACK, "evaluation point")


@dataclass(frozen=True)
class MonotoneBijection:
    """Strictly increasing piecewise-linear bijection with an exact inverse.

    The inverse is evaluated by locating the bracketing breakpoints (binary
    search) and inverting the linear segment, so forward/inverse round trips
    are exact to rounding.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp, vals = _table(self.breakpoints, self.values, ("breakpoints", "values"))
        if not np.all(np.diff(vals) > 0):
            raise ValueError("values must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def identity(cls, lo: float, hi: float) -> "MonotoneBijection":
        return cls(np.array([lo, hi]), np.array([lo, hi]))

    @classmethod
    def translation(cls, shift: float, lo: float, hi: float) -> "MonotoneBijection":
        bp = np.array([lo, hi])
        return cls(bp, bp + shift)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def range(self) -> tuple[float, float]:
        return float(self.values[0]), float(self.values[-1])

    def forward(self, u):
        bp, val = self.breakpoints, self.values
        return _lookup(u, bp, val, CLAMP_SLACK * max(bp[-1] - bp[0], 1.0), "bijection argument")

    def inverse(self, y):
        bp, val = self.breakpoints, self.values
        return _lookup(y, val, bp, CLAMP_SLACK * max(val[-1] - val[0], 1.0), "inverse-bijection argument")

    def restricted(self, lo: float, hi: float) -> "MonotoneBijection":
        bp = self.breakpoints
        inner = bp[(bp > lo) & (bp < hi)]
        nodes = merge_close(np.concatenate(([lo], inner, [hi])))
        return MonotoneBijection(nodes, self.forward(nodes))


def lower_convex_envelope(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the greatest convex minorant of piecewise-linear data.

    Whole-array passes over the surviving candidates.  Each pass drops every
    candidate on or above the chord of its candidate neighbours, then, in each
    gap between certified vertices, certifies the first candidate farthest
    below the gap's chord (a quickhull split) or drops the gap's candidates
    when none lies below it; it returns once the candidates form a convex
    chain.  Every test is the monotone chain's cross product
    ``(xb-xa)(yc-yb) - (yb-ya)(xc-xb) > 0``, so the vertices are a
    monotone-chain scan's, bit for bit, wherever rounding cannot flip its
    sign; of points collinear to rounding, either may keep one the other
    drops.  Smooth data takes a few passes (at most 9 on the registry
    branches, their sub-intervals and a branch crossing its chord three
    times), 0.05-0.9 ms for 4,097 nodes.  The result touches the data at every
    returned vertex (in particular at both endpoints) and lies below it
    everywhere else.
    """
    x, y = _table(x, y, ("x", "y"))
    keep = np.arange(x.size)  # surviving candidates, by node index
    fixed = np.zeros(x.size, dtype=bool)  # certified vertices among them
    fixed[[0, -1]] = True
    # a pass that does not return drops a candidate, so there are fewer passes
    # than nodes; certifying only picks the gaps, and a certified candidate
    # that rounding put on its neighbours' chord is dropped like any other
    while True:
        xk, yk = x[keep], y[keep]
        dx, dy = xk[1:] - xk[:-1], yk[1:] - yk[:-1]
        below = dx[:-1] * dy[1:] - dy[:-1] * dx[1:] > 0.0
        if below.all():
            return xk, yk
        stay = np.concatenate(([True], below, [True]))
        keep, fixed = keep[stay], fixed[stay]
        xk, yk = x[keep], y[keep]
        # gap of each candidate (the last one opens none) and its certified ends
        ends = np.flatnonzero(fixed)
        gap = np.cumsum(fixed[:-1]) - 1
        a, c = ends[gap], ends[gap + 1]
        xa, ya, xc, yc, xb, yb = xk[a], yk[a], xk[c], yk[c], xk[:-1], yk[:-1]
        depth = (xb - xa) * (yc - yb) - (yb - ya) * (xc - xb)  # 0 at the certified ends
        deepest = np.maximum.reduceat(depth, ends[:-1])[gap]
        split = deepest > 0.0  # the gap has a candidate below its chord
        hit = np.flatnonzero((depth == deepest) & split)
        fixed[hit[np.diff(gap[hit], prepend=-1) > 0]] = True  # the first per gap
        stay = np.append(split | fixed[:-1], True)
        keep, fixed = keep[stay], fixed[stay]


def upper_concave_envelope(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the least concave majorant (mirror of the convex hull)."""
    hx, hy = lower_convex_envelope(x, -np.asarray(y, float))
    return hx, -hy
