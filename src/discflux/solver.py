"""Viscous finite-volume solver for the relabelled two-flux problem.

The scheme evolves the conserved density

    m(x, v) = W(x) * alpha(v) + (1 - W(x)) * beta(v)

where W is a smoothed step of width ``eps`` centred on the interface.  Each
step moves m explicitly with the blended face flux
W * (f∘alpha) + (1 - W) * (g∘beta) and Lax-Friedrichs dissipation in each
face's own density (the Lax-Friedrichs scheme for discontinuous flux of
Karlsen and Towers, written on the relabelled density), then treats the
eps * v_xx viscosity by backward Euler.  At the step ``_Stepper.suggest_dt``
gives, both halves are monotone in v, so the transformed variable obeys a
discrete maximum principle and an L1 contraction, which is what the
admissibility argument needs from the approximation; neither the
transform's slopes nor the viscosity shrink the step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import StabilityError
from .fluxes import FluxPair
from .transforms import TransformPair, _audit, identity_transform

_BUMP_NODES = 4097
_BRACKET_SLACK = 1e-10
_NEWTON_MAX_ITER = 30
# the least share of a Newton step that the backtracking tries
_BACKTRACK_FLOOR = 2.0**-10
# a Newton residual this many ulps of its terms' magnitude counts as solved
_NEWTON_RTOL = 8 * np.finfo(float).eps
# _factor_tridiagonal sweeps systems of at most this many rows in Python
_THOMAS_ROWS = 64
# solve reduces its c1 / c2 bookkeeping once per this many steps
_BLOCK_STEPS = 16


def _bump(z: np.ndarray) -> np.ndarray:
    """The standard bump exp(-1/(1-z^2)) on |z| < 1, zero elsewhere."""
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - z[inside] ** 2))
    return out


@lru_cache(maxsize=1)
def _bump_tables():
    """Symmetrised CDF table of the standard bump on [-1, 1]."""
    z = np.linspace(-1.0, 1.0, _BUMP_NODES)
    w = _bump(z)
    dz = z[1] - z[0]
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dz)))
    cdf /= cdf[-1]
    # enforce the odd symmetry (and the exact half value at 0) to the last bit
    cdf = 0.5 * (cdf + 1.0 - cdf[::-1])
    for arr in (z, cdf):
        arr.flags.writeable = False
    return z, cdf


def smooth_heaviside(x, eps: float):
    """Mollified step: 0 below -eps, 1 above eps, exactly 1/2 at 0.

    Satisfies smooth_heaviside(-x) = 1 - smooth_heaviside(x) to rounding.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    z, cdf = _bump_tables()
    arr = np.asarray(x, dtype=float)
    out = np.interp(arr / eps, z, cdf)
    return out if arr.shape else float(out)


def mollify_initial(u0: np.ndarray, x: np.ndarray, transform: TransformPair, eps: float) -> np.ndarray:
    """Relabel initial data side by side and smooth it over radius eps.

    The sharp relabelling applies beta^{-1} at x <= 0 and alpha^{-1} at x > 0;
    the discrete bump kernel is renormalised to unit sum so constants pass
    through unchanged.  In particular a steady two-trace profile built from a
    connection becomes exactly constant in the transformed variable.
    """
    u0 = np.asarray(u0, dtype=float)
    left = x <= 0.0
    v_raw = np.where(left, transform.beta.inverse(u0), transform.alpha.inverse(u0))
    dx = float(x[1] - x[0])
    r = int(math.floor(eps / dx - 1e-12))
    if r < 1:
        return v_raw
    kernel = _bump(np.arange(-r, r + 1) * dx / eps)
    kernel /= kernel.sum()
    padded = np.pad(v_raw, r, mode="edge")
    return np.convolve(padded, kernel, mode="valid")


@dataclass(frozen=True)
class SolverConfig:
    """Grid, viscosity and time-step settings of one solve.

    ``cfl_hyperbolic`` is the share of the monotone bound dx / c off the
    smoothing band that the time step takes; it must lie in (0, 1).  The
    band cells' exact bound and the implicit viscosity set no share of their
    own (see ``_Stepper.suggest_dt``).
    """

    half_width: float = 2.0
    cells: int = 512
    eps: float | None = None      # default: 8 * dx
    t_end: float = 0.5
    cfl_hyperbolic: float = 0.8
    snapshots: int = 33

    def __post_init__(self):
        for name in ("cells", "snapshots"):
            value = getattr(self, name)
            # a numpy integer counts too, stored as an int so that to_dict()
            # stays JSON; a bool (numpy's too) is no count
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        # bool is a numbers.Real, but true is no width, time or share
        for name in ("half_width", "t_end", "cfl_hyperbolic") + (() if self.eps is None else ("eps",)):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.half_width <= 0 or self.t_end < 0:
            raise ValueError("half_width must be positive and t_end non-negative")
        if self.cells < 8:
            raise ValueError("need at least 8 cells")
        if not 0.0 < self.cfl_hyperbolic < 1.0:
            raise ValueError("cfl_hyperbolic must lie strictly between 0 and 1")
        if self.snapshots < 2:
            raise ValueError("need at least 2 snapshots")
        eps = self.resolved_eps()
        if eps <= 0:
            raise ValueError("eps must be positive")
        if eps > self.half_width / 4.0:
            raise ValueError("eps must not exceed a quarter of the half width")
        if eps * self.half_width > 1.0:
            raise ValueError("eps * half_width must stay at or below 1")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.cells

    def resolved_eps(self) -> float:
        """``eps``, or its default 8 * dx when it is None."""
        return 8.0 * self.dx if self.eps is None else float(self.eps)

    def centers(self) -> np.ndarray:
        return -self.half_width + (np.arange(self.cells) + 0.5) * self.dx

    def faces(self) -> np.ndarray:
        return -self.half_width + np.arange(self.cells + 1) * self.dx

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolutionField:
    """Snapshots of one solver run, in both the original and relabelled variables, on the
    grid of ``config``, its only record: ``x``, ``dx`` and ``eps`` are what the config gives."""

    config: SolverConfig
    times: np.ndarray
    v: np.ndarray            # snapshots x cells, transformed variable
    u: np.ndarray            # snapshots x cells, reconstructed
    mass: np.ndarray         # conserved total per snapshot
    boundary_flux: np.ndarray  # cumulative (left, right) face-flux time integrals
    dt: float
    flux: FluxPair
    transform: TransformPair
    stats: dict = field(default_factory=dict)
    x: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "x", self.config.centers())
        for name in ("x", "times", "v", "u", "mass", "boundary_flux"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not self.v.shape == self.u.shape == (len(self.times), self.config.cells):
            raise ValueError("snapshot array shape mismatch")
        if self.mass.shape != self.times.shape or self.boundary_flux.shape != (len(self.times), 2):
            raise ValueError("need one mass and one (left, right) boundary-flux pair per stored time")

    @property
    def dx(self) -> float:
        return self.config.dx

    @property
    def eps(self) -> float:
        return self.config.resolved_eps()

    @property
    def u_final(self) -> np.ndarray:
        return self.u[-1]

    def range_excess(self) -> float:
        """How far the stored u snapshots escape the flux interval [a, b].

        A non-finite value anywhere counts as an infinite excess.
        """
        if not np.all(np.isfinite(self.u)):
            return math.inf
        over = max(0.0, float(self.u.max()) - self.flux.b)
        under = max(0.0, self.flux.a - float(self.u.min()))
        return over + under


def conserved_density(v, w, table) -> np.ndarray:
    """The density w * alpha(v) + (1 - w) * beta(v) that the scheme conserves.

    ``table`` is ``TransformPair.table()`` and ``w`` the smoothed interface
    step at the cell centres; ``v`` may hold one row per snapshot.
    """
    ugrid, alpha_tab, beta_tab = table
    a = np.interp(v, ugrid, alpha_tab)
    b = np.interp(v, ugrid, beta_tab)
    return w * a + (1.0 - w) * b


def reconstruct_u(v: np.ndarray, x: np.ndarray, transform: TransformPair) -> np.ndarray:
    """Map the relabelled variable back: beta at x <= 0, alpha at x > 0."""
    v = np.asarray(v, dtype=float)
    left = np.asarray(x) <= 0.0
    return np.where(left, transform.beta.forward(v), transform.alpha.forward(v))


def _factor_tridiagonal(off, diag) -> tuple:
    """Factor the symmetric tridiagonal matrix T for ``_apply_factors``.

    T has ``diag`` on its diagonal and ``off`` (one shorter) beside it, so
    off[i] couples x[i] and x[i+1].  The factors hold everything a solve
    T x = rhs does that does not read rhs, so one factorization serves any
    number of right-hand sides.

    While more than ``_THOMAS_ROWS`` rows remain, a cyclic-reduction level
    eliminates the odd unknowns from the even rows in whole-array operations
    and leaves a half-size system, which stays symmetric.  The last system
    is eliminated by a Thomas sweep over Python floats.  At these sizes the
    cost is per numpy call, not per flop: a reduction level costs about 25
    calls whatever its size, while a 64-row sweep costs about as much as one
    level, so reducing all the way down to one row would pay six more levels
    for nothing.  There is no pivoting; it is meant for diagonally dominant
    systems such as the implicit viscosity's.

    Returns each level's couplings ``left`` and ``right`` of the odd rows to
    their even neighbours, the odd rows' reciprocal pivots ``r`` and the
    multipliers ``tl``, ``tr``; then the last system's couplings, Thomas
    ratios and pivots.  The factors hold views of ``off``: neither array
    may change while they are in use.
    """
    levels = []
    while len(diag) > _THOMAS_ROWS:
        # odd rows; those with an even row on either side
        half, inner = len(diag) // 2, (len(diag) - 1) // 2
        left, right = off[0::2], off[1::2]    # odd row 2k+1 couples to x[2k] and x[2k+2]
        r = 1.0 / diag[1::2]
        tl = left * r
        tr = right * r[:inner]
        if 2 * half == len(diag):   # as many even rows as odd ones
            b = diag[0::2] - tl * left
        else:
            b = diag[0::2].copy()
            b[:half] -= tl * left
        b[1:] -= tr * right
        levels.append((left, right, r, tl, tr))
        off, diag = -tl[:inner] * right, b
    off, diag = off.tolist(), diag.tolist()
    ratio = [0.0] * len(off)   # ratio[i] = off[i] / (row i's pivot after elimination)
    pivots = [0.0] * len(diag)
    pivot = pivots[0] = diag[0]
    for i in range(1, len(diag)):
        o = off[i - 1]
        c = ratio[i - 1] = o / pivot
        pivot = pivots[i] = diag[i] - o * c
    return levels, off, ratio, pivots


def _apply_factors(factors: tuple, rhs) -> np.ndarray:
    """Solve T x = rhs with T's ``_factor_tridiagonal`` factors: reduce rhs, sweep, substitute back."""
    levels, off, ratio, pivots = factors
    odd_rhs = []
    for left, right, r, tl, tr in levels:
        d_odd = rhs[1::2]
        if 2 * len(d_odd) == len(rhs):   # as many even rows as odd ones
            rhs = rhs[0::2] - tl * d_odd
        else:
            rhs = rhs[0::2].copy()
            rhs[:len(tl)] -= tl * d_odd
        rhs[1:] -= tr * d_odd[:len(tr)]
        odd_rhs.append(d_odd)
    rhs = rhs.tolist()
    x = [0.0] * len(rhs)
    acc = x[0] = rhs[0] / pivots[0]
    for i in range(1, len(rhs)):
        acc = x[i] = (rhs[i] - off[i - 1] * acc) / pivots[i]
    for i in range(len(rhs) - 2, -1, -1):
        acc = x[i] = x[i] - ratio[i] * acc
    x = np.array(x)
    for (left, right, r, tl, tr), d_odd in zip(reversed(levels), reversed(odd_rhs)):
        x_odd = d_odd - left * x[:len(left)]
        x_odd[:len(right)] -= right * x[1:]
        x_even, x = x, np.empty(len(x) + len(left))
        x[0::2] = x_even
        np.multiply(x_odd, r, out=x[1::2])
    return x


class _Stepper:
    """Precomputed tables and the update rule for one (flux, transform, grid)."""

    def __init__(self, tables: tuple, transform: TransformPair, cfg: SolverConfig):
        self.cfg = cfg
        self.dx = cfg.dx
        self.eps = cfg.resolved_eps()

        # f∘alpha, g∘beta on their union, kept on the pair by transforms._audit and shared by its
        # solves: read only, yet left writable, since np.interp copies a read-only table on every call
        self.vgrid, self.fa_tab, self.gb_tab = tables

        # transform tables on the shared breakpoint union, for the density m(v)
        self.table = transform.table()
        self.ugrid, self.alpha_tab, self.beta_tab = self.table
        du = np.diff(self.ugrid)
        self.d_tab = self.alpha_tab - self.beta_tab

        self.w_face = w_face = smooth_heaviside(cfg.faces(), self.eps)
        self.w_cell = w = smooth_heaviside(cfg.centers(), self.eps)
        self.w_face_c = 1.0 - w_face

        # The smoothing band: the faces where a weight differs from a
        # neighbour's, and the cells beside them.  w is non-decreasing in x,
        # and eps is at most a quarter of the half width, so w is exactly 0 at
        # the first cell and 1 at the last: every cell and face left of the
        # band has weight 0 and every one right of it weight 1.  Face k lies
        # between cells k - 1 and k; the gaps skip the two boundary faces.
        right_gap = w_face[1:-1] - w[1:]
        left_gap = w_face[1:-1] - w[:-1]
        inner = np.flatnonzero((right_gap != 0.0) | (left_gap != 0.0))
        k0, k1 = inner[0], inner[-1] + 1
        self.band_faces = slice(k0 + 1, k1 + 1)
        self.band_cells = slice(k0, k1 + 1)
        # The face j+1/2 dissipates in its own density M_+ = w_+ alpha + (1 - w_+) beta.
        # M_+ = m_j + (w_+ - w_j) * (alpha - beta), so off the band faces, where
        # w_+ equals both cells' weights, that is the jump of m itself.
        self.right_gap, self.left_gap = right_gap[k0:k1], left_gap[k0:k1]

        # density tables: off the band a cell's blended map is beta (w = 0)
        # or alpha (w = 1) itself; each band cell has its own blended row
        self.lo_val = w * self.alpha_tab[0] + (1.0 - w) * self.beta_tab[0]
        self.hi_val = w * self.alpha_tab[-1] + (1.0 - w) * self.beta_tab[-1]
        self.scale = max(float(np.max(self.hi_val - self.lo_val)), 1.0)
        self.slack = _BRACKET_SLACK * self.scale
        self.lo_bound = self.lo_val - self.slack
        self.hi_bound = self.hi_val + self.slack
        w_band = w[self.band_cells, None]
        m_rows = np.vstack([self.beta_tab, self.alpha_tab,
                            w_band * self.alpha_tab + (1.0 - w_band) * self.beta_tab])
        self.m_table = m_rows.ravel()
        # each row's slope per segment, padded with a NaN column so that a
        # cell's segment indexes both tables at the same place
        slopes = np.diff(m_rows, axis=1) / du
        self.slope_table = np.hstack([slopes, np.full((len(m_rows), 1), np.nan)]).ravel()
        row = np.where(w == 0.0, 0, 1)
        row[self.band_cells] = np.arange(2, 2 + len(w_band))
        self.row_offset = row * len(self.ugrid)
        self.inner_nodes = self.ugrid[1:-1]
        # segment s holds the v with seg_lower[s] <= v < seg_upper[s]
        self.seg_lower = np.concatenate(([-np.inf], self.inner_nodes))
        self.seg_upper = np.concatenate((self.inner_nodes, [np.inf]))
        # face_fluxes' states with their zero-gradient ghosts
        self._ghosts = np.empty(cfg.cells + 2)

        # Slopes per transform segment.  The composed fluxes bend inside a
        # transform segment, so each takes the extreme slope of the flux
        # segments that overlap it: from the one holding its left end to the
        # last one starting left of its right end.
        last_seg = len(self.vgrid) - 2
        first = np.clip(np.searchsorted(self.vgrid, self.ugrid[:-1], side="right") - 1, 0, last_seg)
        last = np.clip(np.searchsorted(self.vgrid, self.ugrid[1:], side="left") - 1, 0, last_seg)

        def seg_max(s):
            return np.maximum(np.maximum.reduceat(s, first), s[last])

        dv = np.diff(self.vgrid)
        fa_slope = np.diff(self.fa_tab) / dv
        gb_slope = np.diff(self.gb_tab) / dv
        beta_slope, alpha_slope = slopes[0], slopes[1]   # the first two rows of the density table
        # the dissipation speed: max |f'| and |g'| in u, so |F_+'| <= c * M_+'
        self.speed_max = c = float(max(np.max(seg_max(np.abs(fa_slope)) / alpha_slope),
                                       np.max(seg_max(np.abs(gb_slope)) / beta_slope)))

        # the exact rate of the cells whose faces' weights differ (see
        # suggest_dt), with the blended slopes written as beta' + w (alpha' - beta')
        cells = np.flatnonzero(w_face[:-1] != w_face[1:])
        w_lo, w_hi = w_face[cells], w_face[cells + 1]
        spread = alpha_slope - beta_slope
        num = (np.multiply.outer(w_hi + w_lo, c * spread) + (2.0 * c) * beta_slope
               + np.multiply.outer(w_hi - w_lo, seg_max(fa_slope - gb_slope)))
        rate = num / (2.0 * (np.multiply.outer(w[cells], spread) + beta_slope))
        self.band_rate = float(np.max(rate, initial=0.0))
        self.interior_dt = cfg.cfl_hyperbolic * self.dx / c if c > 0.0 else math.inf
        self.band_dt = self.dx / self.band_rate if self.band_rate > 0.0 else math.inf

        # for the implicit viscosity: the diagonal of the Neumann Laplacian
        # stencil (-1, 2, -1), and the largest |v| (it scales Newton's tolerance)
        self.lap_diag = np.full(cfg.cells, 2.0)
        self.lap_diag[[0, -1]] = 1.0
        self.v_mag = float(np.max(np.abs(self.ugrid[[0, -1]])))
        # the last linearization, as (kappa, segments, its (lower, upper,
        # factors)), and the number of linearizations this stepper has made
        self._linearized = (None, None, None)
        self.factorizations = 0

    def suggest_dt(self) -> float:
        """The monotone time step: min(cfl_hyperbolic * dx / c, dx / band_rate).

        A step first moves the density explicitly,

            m*_j = m_j(v_j) - dt / dx * (phi_{j+1/2} - phi_{j-1/2}),

        then solves m_j(v) + kappa * (L v)_j = m*_j with kappa = eps dt / dx^2
        and L the Neumann Laplacian stencil (-1, 2, -1).  Every m_j is
        increasing and L is an M-matrix, so that solve preserves order at any
        dt, and only the explicit half limits the step.

        Write w_-, w_+ for the blend weights at cell j's faces and
        F_+ = w_+ f∘alpha + (1 - w_+) g∘beta, M_+ = w_+ alpha + (1 - w_+) beta
        (F_-, M_- likewise).  The face j+1/2 dissipates
        c/2 * (M_+(v_{j+1}) - M_+(v_j)), with c the largest |f'| and |g'| in
        u, so |F_+'| <= c M_+' and m*_j depends on v_{j+1} and v_{j-1} with
        non-negative weights.  It depends on v_j through

            dm*_j/dv_j = m_j' - dt / (2 dx) * (c (M_+' + M_-') + (w_+ - w_-) (f∘alpha - g∘beta)'),

        which is non-negative once dt <= dx / rate_j with

            rate_j = (c (M_+' + M_-') + (w_+ - w_-) (f∘alpha - g∘beta)') / (2 m_j').

        Off the smoothing band w_- = w_+ = w_j, so rate_j is c and the bound
        is dx / c; ``cfl_hyperbolic`` is the share of it the step takes.  On
        the band cells (w_- < w_+) the slopes are constant on each transform
        segment except that of f∘alpha - g∘beta, whose largest value on the
        segment is the worst case; ``band_rate`` is the largest rate_j over
        those cells and segments, and the step takes all of dx / band_rate.

        A flux pair with no slope at all transports nothing, so any step is
        monotone; the step is then infinite and ``solve`` takes one step.
        """
        return min(self.interior_dt, self.band_dt)

    def conserved(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each cell's density m(v), with its table segment and the slope there.

        The segment is the last ``ugrid`` node at or below v, capped at the
        next-to-last node, so the map extends linearly past the table's ends.
        That is the count of interior nodes at or below v; a NaN counts them
        all and lands on the last segment.
        """
        return self._density(v, np.searchsorted(self.inner_nodes, v, side="right"))

    def _density(self, v: np.ndarray, seg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``conserved(v)`` for a v whose segments ``seg`` are already known."""
        at = self.row_offset + seg
        slope = self.slope_table[at]
        return self.m_table[at] + slope * (v - self.ugrid[seg]), seg, slope

    def _linearization(self, kappa: float, seg: np.ndarray, slope: np.ndarray) -> tuple:
        """Newton's linear model on the segments ``seg``, as (lower, upper, factors).

        ``lower`` and ``upper`` are seg_lower[seg] and seg_upper[seg], the
        nodes that bracket each v keeping its segment; ``factors`` are
        ``_apply_factors``' factors of diag(slope) + kappa * L, with ``slope``
        the slope of the segments ``seg``.  The last linearization is kept
        and returned again while kappa is equal and ``seg`` is the very array
        it was made for; the segment arrays a stepper makes are never
        written to.  An identity transform has one segment array for the
        whole solve.
        """
        last_kappa, last_seg, model = self._linearized
        if kappa != last_kappa or seg is not last_seg:
            diag = slope + kappa * self.lap_diag
            model = (self.seg_lower[seg], self.seg_upper[seg],
                     _factor_tridiagonal(np.full(len(diag) - 1, -kappa), diag))
            self.factorizations += 1
            self._linearized = (kappa, seg, model)
        return model

    def invert_conserved(self, m_star: np.ndarray, kappa: float, v: np.ndarray, m: np.ndarray,
                         seg: np.ndarray, slope: np.ndarray) -> tuple[np.ndarray, int, float, tuple]:
        """Solve m_j(v) + kappa * (L v)_j = m*_j for v by semismooth Newton.

        On fixed table segments the system is linear with the tridiagonal
        M-matrix diag(slope) + kappa * L.  Newton starts from the state ``v``
        the step began with, whose density ``m``, segment ``seg`` and
        ``slope`` the caller already looked up, so no m -> v search is needed.
        A full step that keeps the segments it was linearised on solves the
        linear model exactly and ends the iteration, so its density and
        residual are never formed.  Whether it kept them is a test of each v
        against its segment's two nodes, so such an iterate makes no search
        either; one that fails the test makes one.  Otherwise the step is
        halved, down to ``_BACKTRACK_FLOOR``, until the largest residual
        falls, with one search per share tried: on a table with many kinks
        the full step can overshoot into a cycle.  A rounding-level residual
        also ends the iteration, since a state sitting on a node may flip
        between the segments on either side for ever.  A step's first
        iterate usually has the segment array that the previous step ended
        on, and reuses its linearization (see ``_linearization``).

        Returns v, clipped to the table; the number of tridiagonal solves; the
        margin of m*: its least distance inside [lo_val, hi_val], negative
        when it lies outside but within ``slack``; and ``conserved(v)``, which
        the next step starts from.  The clip moves no v across an interior
        node, so the last iterate's segments serve the clipped v.  Beyond the
        slack, or for a non-finite m*, it raises StabilityError.
        """
        # the difference to a bound has the exact sign of the comparison with
        # it, so the test below accepts exactly the m* in [lo_bound, hi_bound];
        # a NaN makes room NaN and fails it too
        room = min(float((m_star - self.lo_bound).min()), float((self.hi_bound - m_star).min()))
        if not room >= 0.0:
            worst = float(np.maximum(self.lo_val - m_star, m_star - self.hi_val).max())
            raise StabilityError(
                f"conserved density left the invertible range by {worst:.3e}; "
                "reduce the time step or refine the grid"
            )
        tol = _NEWTON_RTOL * (self.scale + 4.0 * kappa * self.v_mag)
        resid = m - m_star + kappa * self.neumann_stencil(v)
        worst = float(np.abs(resid).max())
        iterations = 0
        while not worst <= tol:   # a NaN residual must not pass as converged
            if iterations == _NEWTON_MAX_ITER:
                raise StabilityError(
                    f"implicit viscosity solve did not converge in {_NEWTON_MAX_ITER} Newton "
                    f"iterations (worst residual {worst:.3e})"
                )
            iterations += 1
            lower, upper, factors = self._linearization(kappa, seg, slope)
            delta = _apply_factors(factors, resid)
            trial = v - delta
            # for a finite or -inf v the bracket test holds exactly when the
            # search would give seg back, so a trial that keeps its segments
            # costs no search.  A +inf or NaN v fails it although the search
            # puts it on the last segment, so a search that gives seg back
            # still counts as no move.
            kept = (lower <= trial).all() and (trial < upper).all()
            if not kept:
                new_seg = np.searchsorted(self.inner_nodes, trial, side="right")
                kept = np.array_equal(new_seg, seg)
            if kept:   # solved: the linear model held
                v = trial
                break
            share = 1.0
            while True:
                m, _, new_slope = self._density(trial, new_seg)
                new_resid = m - m_star + kappa * self.neumann_stencil(trial)
                new_worst = float(np.abs(new_resid).max())
                if new_worst < worst or share <= _BACKTRACK_FLOOR:
                    break
                share *= 0.5
                trial = v - share * delta
                new_seg = np.searchsorted(self.inner_nodes, trial, side="right")
            v, seg, slope, resid, worst = trial, new_seg, new_slope, new_resid, new_worst
        # np.clip's bits, NaN and signed zeros included: the bound goes first
        np.maximum(self.ugrid[0], v, out=v)
        np.minimum(self.ugrid[-1], v, out=v)
        return v, iterations, room - self.slack, self._density(v, seg)

    def face_fluxes(self, v: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Lax-Friedrichs fluxes at every face, dissipating in the face's own density.

        A face left of the band faces has w_+ = 0 and reads g∘beta alone, one
        right of them has w_+ = 1 and reads f∘alpha alone, so each branch is
        interpolated only at the states beside a face that reads it: g∘beta
        at those up to the last band face, f∘alpha from the first one on.
        0 * x + 1 * y is y, so that equals blending both branches at every
        face.

        ``m`` is ``conserved(v)[0]``.  Its jumps are the dissipation except on
        the band faces, which add (w_+ - w_{j+1}) D(v_{j+1}) - (w_+ - w_j) D(v_j)
        with D = alpha - beta.  The ghosts repeat the end cells, so the two
        boundary faces dissipate nothing.
        """
        band = self.band_faces
        f0, f1 = band.start, band.stop
        nb = f1 - f0
        vx = self._ghosts
        vx[1:-1] = v
        vx[0], vx[-1] = v[0], v[-1]   # zero-gradient ghosts
        gb_v = np.interp(vx[:f1 + 1], self.vgrid, self.gb_tab)   # states 0 .. f1
        fa_v = np.interp(vx[f0:], self.vgrid, self.fa_tab)       # states f0 .. the last
        w, w_c = self.w_face[band], self.w_face_c[band]
        # each face's flux of the state on its left plus that on its right
        total = np.empty(len(v) + 1)
        np.add(gb_v[:f0], gb_v[1:f0 + 1], out=total[:f0])
        np.add(w * fa_v[:nb] + w_c * gb_v[f0:f1], w * fa_v[1:nb + 1] + w_c * gb_v[f0 + 1:],
               out=total[f0:f1])
        np.add(fa_v[nb:-1], fa_v[nb + 1:], out=total[f1:])
        jump = np.zeros(len(v) + 1)
        np.subtract(m[1:], m[:-1], out=jump[1:-1])
        d = np.interp(v[self.band_cells], self.ugrid, self.d_tab)
        jump[band] += self.right_gap * d[1:] - self.left_gap * d[:-1]
        # one dissipation speed for every face: a speed chosen per face from
        # the two states jumps when a state crosses a breakpoint, and the
        # update is then not monotone at any time step
        return 0.5 * total - 0.5 * self.speed_max * jump

    @staticmethod
    def neumann_stencil(v: np.ndarray) -> np.ndarray:
        """(L v)_j = -v_{j-1} + 2 v_j - v_{j+1} with zero-gradient ghosts; it sums to 0."""
        out = 2.0 * v
        out[1:] -= v[:-1]
        out[:-1] -= v[1:]
        out[0] -= v[0]
        out[-1] -= v[-1]
        return out

    def step(self, v: np.ndarray, dt: float, lookup: tuple) -> tuple[np.ndarray, np.ndarray, int, float, tuple]:
        """Explicit Lax-Friedrichs transport, then the backward-Euler viscosity.

        ``lookup`` is ``conserved(v)``, which the previous step returns for
        its new state.  It serves both halves: its density moves to m*, and
        its segments and slopes linearise Newton's first iterate.  Returns the
        new state, the face fluxes, the Newton iteration count, the margin of
        m* inside the density range and the new state's lookup (see
        ``invert_conserved``).
        """
        m, seg, slope = lookup
        phi = self.face_fluxes(v, m)
        m_star = m - (dt / self.dx) * (phi[1:] - phi[:-1])
        v_new, iterations, margin, lookup = self.invert_conserved(
            m_star, self.eps * dt / self.dx**2, v, m, seg, slope)
        return v_new, phi, iterations, margin, lookup


def _block_rates(states: np.ndarray, dx: float, dt: float, eps: float) -> tuple[list, list]:
    """Per step of a block, the L1 rate of change and the viscous energy.

    ``states`` holds the state a block starts from and the state after each
    of its steps, one per row.  Step k's rate is sum |v_k - v_{k-1}| * dx / dt,
    and its energy eps * sum ((v_{k-1})_x)^2 * dx, of the state it started
    from.  A row sum over the contiguous axis is the same pairwise sum as
    ``np.sum`` of that row alone, so each value is the one a step would
    compute for itself, to the bit.
    """
    change = np.abs(states[1:] - states[:-1]).sum(axis=1)
    grad = (states[:-1, 1:] - states[:-1, :-1]) / dx
    energy = (grad**2).sum(axis=1)
    return (change * dx / dt).tolist(), (eps * energy * dx).tolist()


def solve(
    flux: FluxPair,
    u0,
    transform: TransformPair | None = None,
    config: SolverConfig | None = None,
) -> SolutionField:
    """Run the viscous scheme and return the stored snapshot record.

    ``u0`` is either a vectorised callable of x or an array of cell-centre
    values; it must take finite values in the flux interval [a, b].  The transform
    pair is audited before use and rejected with a ValueError if it fails.

    ``cfg.snapshots`` evenly spaced steps are stored, rounded to whole steps;
    a request for more than the nsteps + 1 states of a solve stores every
    state once.  ``stats`` records the largest L1 rate of change ``c1`` and
    viscous energy ``c2`` over the steps; they are reduced once per block
    of ``_BLOCK_STEPS`` steps, to the values a per-step reduction gives.
    """
    cfg = config or SolverConfig()
    t = transform or identity_transform(flux)
    audit, tables = _audit(flux, t)
    if not audit.ok:
        raise ValueError("transform failed verification: " + "; ".join(audit.failures))

    x = cfg.centers()
    u0_vals = np.asarray(u0(x) if callable(u0) else u0, dtype=float)
    if u0_vals.shape != x.shape:
        raise ValueError("initial data must match the cell count")
    if not np.all(np.isfinite(u0_vals)):
        raise ValueError("initial data must be finite")
    span = flux.b - flux.a
    if np.any(u0_vals < flux.a - 1e-9 * span) or np.any(u0_vals > flux.b + 1e-9 * span):
        raise ValueError("initial data leaves the flux interval [a, b]")
    u0_vals = np.clip(u0_vals, flux.a, flux.b)

    stepper = _Stepper(tables, t, cfg)
    eps = stepper.eps
    v = mollify_initial(u0_vals, x, t, eps)

    if cfg.t_end == 0:
        nsteps = 0
        dt = stepper.suggest_dt()
    else:
        dt_raw = stepper.suggest_dt()
        nsteps = max(1, math.ceil(cfg.t_end / dt_raw))
        dt = cfg.t_end / nsteps
    # at most nsteps + 1 times can be stored; the rounded points already
    # hit every step when there are that many
    snap_at = set(np.round(np.linspace(0, nsteps, min(cfg.snapshots, nsteps + 1))).astype(int).tolist())

    snaps_v = [v.copy()]
    snap_times = [0.0]
    lookup = stepper.conserved(v)
    mass = [float(np.sum(lookup[0]) * cfg.dx)]
    bflux = [(0.0, 0.0)]
    cum_left = cum_right = 0.0
    c1 = 0.0  # max L1 rate of change of v
    c2 = 0.0  # max viscous energy eps * sum (v_x)^2 dx
    # the current block of steps: the state it starts from, then the state
    # after each of its steps, stacked into one buffer made once per solve
    states = [v]
    block = np.empty((min(_BLOCK_STEPS, nsteps) + 1, cfg.cells))
    newton_iterations = newton_max = 0
    invert_margin = math.inf
    for n in range(1, nsteps + 1):
        v, phi, iterations, margin, lookup = stepper.step(v, dt, lookup)
        newton_iterations += iterations
        newton_max = max(newton_max, iterations)
        invert_margin = min(invert_margin, margin)
        cum_left += dt * float(phi[0])
        cum_right += dt * float(phi[-1])
        states.append(v)
        if len(states) > _BLOCK_STEPS or n == nsteps:
            change, energy = _block_rates(np.stack(states, out=block[:len(states)]), cfg.dx, dt, eps)
            c1 = max(c1, *change)
            c2 = max(c2, *energy)
            states = [v]
        if n in snap_at:
            snaps_v.append(v.copy())
            snap_times.append(n * dt)
            mass.append(float(np.sum(lookup[0]) * cfg.dx))
            bflux.append((cum_left, cum_right))
    del states, block, v   # free the block before the snapshot arrays are built

    v_arr = np.array(snaps_v)
    u_arr = reconstruct_u(v_arr, x, t)
    return SolutionField(
        config=cfg,
        times=np.array(snap_times),
        v=v_arr,
        u=u_arr,
        mass=np.array(mass),
        boundary_flux=np.array(bflux),
        dt=dt,
        flux=flux,
        transform=t,
        stats={
            "c1": c1,
            "c2": c2,
            "steps": nsteps,
            "speed_max": stepper.speed_max,
            "band_rate": stepper.band_rate,
            # the constraint that set dt: dx / band_rate or the interior's
            "dt_limit": "band" if stepper.band_dt < stepper.interior_dt else "interior",
            "newton_iterations": newton_iterations,
            "newton_max": newton_max,
            # tridiagonal factorizations: one per segment array Newton linearises on
            "factorizations": stepper.factorizations,
            # None when no step ran: the manifest is JSON, which has no inf
            "invert_margin": invert_margin if nsteps else None,
        },
    )


@dataclass(frozen=True)
class LadderResult:
    """A joint refinement eps_k = eps0 / 2^k, N_k = N0 * 2^k and its distances."""

    fields: tuple[SolutionField, ...]
    distances: tuple[float, ...]
    converging: bool


def _window_l1(coarse: SolutionField, fine: SolutionField, half: float) -> float:
    """L1 gap of final-time u on |x| <= half, fine averaged onto the coarse grid."""
    fine_avg = fine.u_final.reshape(len(coarse.x), -1).mean(axis=1)
    mask = np.abs(coarse.x) <= half
    return float(np.sum(np.abs(fine_avg[mask] - coarse.u_final[mask])) * coarse.dx)


def ladder(
    flux: FluxPair,
    u0,
    transform: TransformPair | None = None,
    base: SolverConfig | None = None,
    levels: int = 3,
) -> LadderResult:
    """Run the vanishing-viscosity refinement and report successive L1 gaps.

    The flag ``converging`` is advisory: it checks that the last gap is no
    larger than the first (it is not an acceptance gate by itself).
    """
    if levels < 2:
        raise ValueError("need at least 2 ladder levels")
    cfg0 = base or SolverConfig(cells=128, eps=None)
    eps0 = cfg0.resolved_eps()
    runs = []
    for k in range(levels):
        cfg = replace(cfg0, cells=cfg0.cells * 2**k, eps=eps0 / 2**k)
        runs.append(solve(flux, u0, transform, cfg))
    half = cfg0.half_width / 2.0
    dists = tuple(_window_l1(runs[k], runs[k + 1], half) for k in range(levels - 1))
    converging = dists[-1] <= dists[0] + 1e-12
    return LadderResult(tuple(runs), dists, converging)
