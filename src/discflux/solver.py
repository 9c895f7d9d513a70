"""Viscous finite-volume solver for the relabelled two-flux problem.

The scheme evolves the conserved density

    m(x, v) = W(x) * alpha(v) + (1 - W(x)) * beta(v)

where W is a smoothed step of width ``eps`` centred on the interface, with the
blended face flux W * (f∘alpha) + (1 - W) * (g∘beta), Lax-Friedrichs
dissipation in v at the largest flux slope speed_max, and a centred
eps * v_xx viscosity.  The update is monotone in v when
dt * (speed_max / dx + 2 eps / dx^2) stays below the flattest slope of the
transform tables (see ``_Stepper.suggest_dt``), so the transformed variable
obeys a discrete maximum principle and an L1 contraction, which is what the
admissibility argument needs from the approximation.

Each step recovers v from the updated density m cell by cell.  W is exactly
0 left of the smoothing band and exactly 1 right of it, so there m is beta(v)
or alpha(v) alone; only the few band cells have a genuinely blended map.  The
stepper tabulates every cell's map on the transform's breakpoint lattice once,
and the inversion is an exact table lookup plus one linear interpolation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

import numpy as np

from .curves import merge_close
from .errors import StabilityError
from .fluxes import FluxPair
from .transforms import TransformPair, composed_fluxes, identity_transform, verify_transform

_BUMP_NODES = 4097
_BRACKET_SLACK = 1e-10


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

    ``cfl_hyperbolic`` and ``cfl_parabolic`` form one budget: the time step
    takes their sum (which must stay below 1) of the sharp monotone bound
    slope_min / (speed_max / dx + 2 eps / dx^2), and only the sum matters.
    """

    half_width: float = 2.0
    cells: int = 512
    eps: float | None = None      # default: 8 * dx
    t_end: float = 0.5
    cfl_hyperbolic: float = 0.4
    cfl_parabolic: float = 0.4
    snapshots: int = 33

    def __post_init__(self):
        if self.half_width <= 0 or self.t_end < 0:
            raise ValueError("half_width must be positive and t_end non-negative")
        if self.cells < 8:
            raise ValueError("need at least 8 cells")
        if self.cfl_hyperbolic + self.cfl_parabolic >= 1.0:
            raise ValueError("cfl_hyperbolic + cfl_parabolic must stay below 1")
        if self.snapshots < 2:
            raise ValueError("need at least 2 snapshots")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.cells

    def resolved_eps(self) -> float:
        eps = 8.0 * self.dx if self.eps is None else float(self.eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        if eps > self.half_width / 4.0:
            raise ValueError("eps must not exceed a quarter of the half width")
        if eps * self.half_width > 1.0:
            raise ValueError("eps * half_width must stay at or below 1")
        return eps

    def centers(self) -> np.ndarray:
        return -self.half_width + (np.arange(self.cells) + 0.5) * self.dx

    def faces(self) -> np.ndarray:
        return -self.half_width + np.arange(self.cells + 1) * self.dx

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolutionField:
    """Snapshots of one solver run, in both the original and relabelled variables."""

    x: np.ndarray
    times: np.ndarray
    v: np.ndarray            # snapshots x cells, transformed variable
    u: np.ndarray            # snapshots x cells, reconstructed
    mass: np.ndarray         # conserved total per snapshot
    boundary_flux: np.ndarray  # cumulative (left, right) face-flux time integrals
    dx: float
    eps: float
    dt: float
    flux: FluxPair
    transform: TransformPair
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("x", "times", "v", "u", "mass", "boundary_flux"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.v.shape != (len(self.times), len(self.x)):
            raise ValueError("snapshot array shape mismatch")

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


class _Stepper:
    """Precomputed tables and the update rule for one (flux, transform, grid)."""

    def __init__(self, flux: FluxPair, transform: TransformPair, cfg: SolverConfig):
        self.cfg = cfg
        self.dx = cfg.dx
        self.eps = cfg.resolved_eps()

        fa, gb = composed_fluxes(flux, transform)
        grid = merge_close(np.union1d(fa.x, gb.x))
        self.vgrid = grid
        self.fa_tab = np.asarray(fa(grid))
        self.gb_tab = np.asarray(gb(grid))
        seg_speed = np.maximum(
            np.abs(np.diff(self.fa_tab)), np.abs(np.diff(self.gb_tab))
        ) / np.diff(grid)
        self.speed_max = float(seg_speed.max()) if seg_speed.size else 0.0
        # the two terms of the monotone step bound (see suggest_dt)
        self.hyperbolic_rate = self.speed_max / self.dx
        self.parabolic_rate = 2.0 * self.eps / self.dx**2

        # transform tables on the shared breakpoint union, for m <-> v
        self.table = transform.table()
        self.ugrid, self.alpha_tab, self.beta_tab = self.table
        self.du = du = np.diff(self.ugrid)
        slopes = np.concatenate([np.diff(self.alpha_tab) / du, np.diff(self.beta_tab) / du])
        self.slope_min = float(slopes.min())

        x_faces = cfg.faces()
        self.w_face = smooth_heaviside(x_faces, self.eps)
        self.w_cell = w = smooth_heaviside(cfg.centers(), self.eps)

        # inversion tables.  w is non-decreasing in x and exactly 0 (1) left
        # (right) of the smoothing band, where the blended map is beta (alpha)
        # itself; only the band cells need their own blended row.
        self.lo_val = w * self.alpha_tab[0] + (1.0 - w) * self.beta_tab[0]
        self.hi_val = w * self.alpha_tab[-1] + (1.0 - w) * self.beta_tab[-1]
        self.slack = _BRACKET_SLACK * max(float(np.max(self.hi_val - self.lo_val)), 1.0)
        self.band = slice(int(np.searchsorted(w, 0.0, side="right")),
                          int(np.searchsorted(w, 1.0, side="left")))
        w_band = w[self.band, None]
        rows = np.vstack([self.beta_tab, self.alpha_tab,
                          w_band * self.alpha_tab + (1.0 - w_band) * self.beta_tab])
        self.band_rows = rows[2:]
        self.inv_table = rows.ravel()
        row = np.where(w == 0.0, 0, 1)
        row[self.band] = np.arange(2, len(rows))
        self.row_offset = row * len(self.ugrid)

    def suggest_dt(self) -> float:
        """The monotone time step, scaled by the CFL budget.

        Write w_-, w_+ for the blend weights at cell j's faces.  Every face
        dissipates at speed_max, so the face fluxes are Lipschitz in the
        states and the update of m_j depends on v_j through

            dm_new_j/dv_j = m_j'(v_j) - dt * (speed_max / dx + 2 eps / dx^2)
                            - dt / (2 dx) * (w_+ - w_-) * (f∘alpha - g∘beta)'(v_j),

        and on v_{j-1}, v_{j+1} with non-negative weights, because speed_max
        bounds every flux slope.  With m_j' >= slope_min the update is
        monotone in v once

            dt * (speed_max / dx + 2 eps / dx^2) <= slope_min

        holds with room for the last (blend) term.  ``cfl_hyperbolic +
        cfl_parabolic`` is the share of that bound the step takes; the share
        left must cover the blend term.  That term is at most
        max(w_+ - w_-) * speed_max / dx, and the steepest face jump of the
        smoothed step is about 0.83 * dx / eps.  At the default eps = 8 dx
        the term is about 0.1 * speed_max / dx, about 1 % of the bound and
        well inside the 20 % that the default budget of 0.8 leaves.  At eps
        of a cell or less the face jump approaches 1, and the 20 % are no
        longer guaranteed to cover it.
        """
        cfl = self.cfg.cfl_hyperbolic + self.cfg.cfl_parabolic
        dt = cfl * self.slope_min / (self.hyperbolic_rate + self.parabolic_rate)
        if not np.isfinite(dt) or dt <= 0:
            raise StabilityError("no admissible time step for this configuration")
        return dt

    def conserved(self, v: np.ndarray) -> np.ndarray:
        return conserved_density(v, self.w_cell, self.table)

    def invert_conserved(self, m: np.ndarray) -> np.ndarray:
        """Solve w*alpha(v) + (1-w)*beta(v) = m per cell by exact table lookup.

        Each cell's blended map is piecewise linear on ``ugrid`` with the
        non-decreasing node values of its table row (beta left of the band,
        alpha right of it, a precomputed blend inside).  The segment is the
        last node at or below m, capped at the next-to-last node, and the
        result interpolates linearly inside it.
        """
        lo_val, hi_val = self.lo_val, self.hi_val
        if np.any(m < lo_val - self.slack) or np.any(m > hi_val + self.slack):
            worst = float(np.max(np.maximum(lo_val - m, m - hi_val)))
            raise StabilityError(
                f"conserved density left the invertible range by {worst:.3e}; "
                "reduce the time step or refine the grid"
            )
        m = np.clip(m, lo_val, hi_val)
        band = self.band
        idx = np.empty(m.shape, dtype=np.intp)
        idx[: band.start] = np.searchsorted(self.beta_tab, m[: band.start], side="right")
        idx[band] = np.count_nonzero(self.band_rows <= m[band, None], axis=1)
        idx[band.stop :] = np.searchsorted(self.alpha_tab, m[band.stop :], side="right")
        lo = np.clip(idx - 1, 0, len(self.ugrid) - 2, out=idx)
        at = self.row_offset + lo
        v0 = self.inv_table[at]
        v1 = self.inv_table[at + 1]
        frac = (m - v0) / (v1 - v0)
        return self.ugrid[lo] + frac * self.du[lo]

    def face_fluxes(self, v: np.ndarray) -> np.ndarray:
        vx = np.concatenate(([v[0]], v, [v[-1]]))  # zero-gradient ghosts
        fa_v = np.interp(vx, self.vgrid, self.fa_tab)
        gb_v = np.interp(vx, self.vgrid, self.gb_tab)
        w = self.w_face
        left = w * fa_v[:-1] + (1.0 - w) * gb_v[:-1]
        right = w * fa_v[1:] + (1.0 - w) * gb_v[1:]
        # one dissipation speed for every face: a speed chosen per face from
        # the two states jumps when a state crosses a breakpoint, and the
        # update is then not monotone at any time step (see suggest_dt)
        return 0.5 * (left + right) - 0.5 * self.speed_max * (vx[1:] - vx[:-1])

    def step(self, v: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
        phi = self.face_fluxes(v)
        vx = np.concatenate(([v[0]], v, [v[-1]]))
        lap = (vx[:-2] - 2.0 * vx[1:-1] + vx[2:]) / self.dx**2
        m = self.conserved(v)
        m_new = m - (dt / self.dx) * np.diff(phi) + self.eps * dt * lap
        return self.invert_conserved(m_new), phi


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
    """
    cfg = config or SolverConfig()
    t = transform or identity_transform(flux)
    audit = verify_transform(flux, t)
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

    stepper = _Stepper(flux, t, cfg)
    eps = stepper.eps
    v = mollify_initial(u0_vals, x, t, eps)

    if cfg.t_end == 0:
        nsteps = 0
        dt = stepper.suggest_dt()
    else:
        dt_raw = stepper.suggest_dt()
        nsteps = max(1, math.ceil(cfg.t_end / dt_raw))
        dt = cfg.t_end / nsteps
    snap_at = np.unique(np.round(np.linspace(0, nsteps, cfg.snapshots)).astype(int))

    snaps_v = [v.copy()]
    snap_times = [0.0]
    mass = [float(np.sum(stepper.conserved(v)) * cfg.dx)]
    bflux = [(0.0, 0.0)]
    cum_left = cum_right = 0.0
    c1 = 0.0  # max L1 rate of change of v
    c2 = 0.0  # max viscous energy eps * sum (v_x)^2 dx
    for n in range(1, nsteps + 1):
        v_new, phi = stepper.step(v, dt)
        c1 = max(c1, float(np.sum(np.abs(v_new - v))) * cfg.dx / dt)
        grad = np.diff(v) / cfg.dx
        c2 = max(c2, eps * float(np.sum(grad**2)) * cfg.dx)
        cum_left += dt * float(phi[0])
        cum_right += dt * float(phi[-1])
        v = v_new
        if n in snap_at:
            snaps_v.append(v.copy())
            snap_times.append(n * dt)
            mass.append(float(np.sum(stepper.conserved(v)) * cfg.dx))
            bflux.append((cum_left, cum_right))

    v_arr = np.array(snaps_v)
    u_arr = reconstruct_u(v_arr, x, t)
    return SolutionField(
        x=x,
        times=np.array(snap_times),
        v=v_arr,
        u=u_arr,
        mass=np.array(mass),
        boundary_flux=np.array(bflux),
        dx=cfg.dx,
        eps=eps,
        dt=dt,
        flux=flux,
        transform=t,
        stats={
            "c1": c1,
            "c2": c2,
            "steps": nsteps,
            "speed_max": stepper.speed_max,
            "slope_min": stepper.slope_min,
            "hyperbolic_rate": stepper.hyperbolic_rate,
            "parabolic_rate": stepper.parabolic_rate,
        },
    )


@dataclass(frozen=True)
class LadderResult:
    """A joint refinement eps_k = eps0 / 2^k, N_k = N0 * 2^k and its distances."""

    fields: tuple[SolutionField, ...]
    distances: tuple[float, ...]
    window: float
    converging: bool


def _window_l1(coarse: SolutionField, fine: SolutionField, half: float) -> float:
    """L1 gap of final-time u on |x| <= half, fine averaged onto the coarse grid."""
    ratio = len(fine.x) // len(coarse.x)
    if ratio * len(coarse.x) != len(fine.x):
        raise ValueError("ladder grids must nest")
    fine_avg = fine.u_final.reshape(len(coarse.x), ratio).mean(axis=1)
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
    return LadderResult(tuple(runs), dists, half, converging)
