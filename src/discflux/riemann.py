"""Exact Riemann solutions for a single piecewise-linear flux.

For sampled fluxes the entropy solution of u_t + (f(u))_x = 0 with two-state
initial data is piecewise constant in x/t: its states are the vertices of the
relevant flux envelope between the two data values (convex minorant when the
left state is below the right one, concave majorant otherwise) and each pair
of consecutive states is separated by a jump moving at the chord slope.  This
module builds that solution directly; it serves as the reference the finite-volume
solver is measured against away from any flux discontinuity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import SampledCurve, lower_convex_envelope, merge_close, run_bounds, upper_concave_envelope
from .fluxes import FluxPair
from .transforms import Connection

_FLAT_TOL = 1e-10


@dataclass(frozen=True)
class Wave:
    """One wave of a self-similar solution, ordered left state -> right state.

    Shocks carry a single speed (speed_lo == speed_hi); rarefactions span the
    fan [speed_lo, speed_hi].
    """

    kind: str
    left: float
    right: float
    speed_lo: float
    speed_hi: float

    def __post_init__(self):
        if self.kind not in ("shock", "rarefaction"):
            raise ValueError(f"unknown wave kind {self.kind!r}")
        if self.speed_hi < self.speed_lo:
            raise ValueError("wave speeds out of order")


@dataclass(frozen=True)
class RiemannSolution:
    u_left: float
    u_right: float
    waves: tuple[Wave, ...]
    states: np.ndarray = field(repr=False)
    speeds: np.ndarray = field(repr=False)

    def __call__(self, xi):
        """Evaluate at similarity coordinates xi = x/t (right-continuous)."""
        arr = np.asarray(xi, dtype=float)
        idx = np.searchsorted(self.speeds, arr, side="right")
        out = self.states[idx]
        return out if arr.shape else float(out)

    def profile(self, x, t: float):
        """Solution values at positions x and time t (data itself at t <= 0)."""
        arr = np.asarray(x, dtype=float)
        if t <= 0.0:
            out = np.where(arr < 0.0, self.u_left, self.u_right)
            return out if arr.shape else float(out)
        return self(arr / t)


def classical_riemann(flux: SampledCurve, u_left: float, u_right: float) -> RiemannSolution:
    """Entropy solution of the two-state problem for one sampled flux branch."""
    u_left = float(u_left)
    u_right = float(u_right)
    if not all(flux.lo - 1e-12 <= u <= flux.hi + 1e-12 for u in (u_left, u_right)):   # NaN fails too
        raise ValueError(f"data outside the sampled flux domain: left {u_left!r}, right {u_right!r}")
    lo, hi = min(u_left, u_right), max(u_left, u_right)
    scale = max(abs(flux.y).max(), 1.0)
    if hi - lo <= 1e-14 * max(flux.hi - flux.lo, 1.0):
        return RiemannSolution(
            u_left, u_right, (), np.array([u_left]), np.array([], dtype=float)
        )

    inner = flux.x[(flux.x > lo) & (flux.x < hi)]
    nodes = merge_close(np.concatenate(([lo], inner, [hi])))
    vals = np.asarray(flux(nodes))
    if u_left < u_right:
        vx, vy = lower_convex_envelope(nodes, vals)
    else:
        vx, vy = upper_concave_envelope(nodes, vals)
    slopes = np.diff(vy) / np.diff(vx)

    # classify each envelope segment by the largest distance from its chord of
    # the nodes strictly inside it: on the graph -> fan piece, off it -> shock
    starts = np.searchsorted(nodes, vx[:-1])  # the vertices are nodes
    seg = np.searchsorted(vx, nodes[:-1], side="right") - 1  # segment each node starts or lies in
    dev = np.abs(vals[:-1] - (vy[seg] + slopes[seg] * (nodes[:-1] - vx[seg])))
    dev[starts] = 0.0  # a segment's start is not inside it
    shock = np.maximum.reduceat(dev, starts) > _FLAT_TOL * scale

    # orient from the left state to the right one (speeds then non-decreasing)
    if u_left < u_right:
        states, speeds = vx, slopes
    else:
        states, speeds, shock = vx[::-1], slopes[::-1], shock[::-1]

    # one wave per shock segment and per run of fan segments
    first, last = run_bounds(shock[1:] | shock[:-1])
    waves = tuple(
        Wave("shock" if shock[i] else "rarefaction",
             float(states[i]), float(states[j + 1]), float(speeds[i]), float(speeds[j]))
        for i, j in zip(first.tolist(), last.tolist())
    )
    return RiemannSolution(u_left, u_right, waves, states, speeds)


def steady_connection_state(flux: FluxPair, conn: Connection, x) -> np.ndarray:
    """The stationary two-trace profile: A left of the interface, B right of it.

    Because f(B) = g(A), this profile is an exact steady state of the
    two-flux problem; it is the anchor the connection transforms are built
    around and a convenient regression target for the solver.
    """
    arr = np.asarray(x, dtype=float)
    out = np.where(arr <= 0.0, conn.A, conn.B)
    return out if arr.shape else float(out)
