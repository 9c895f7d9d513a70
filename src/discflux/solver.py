"""Finite-volume solver for the relabelled two-flux problem.

Each cell conserves u itself: the density beta(v) at x <= 0 and alpha(v)
past it, and stores that density as u.  A step moves the densities
explicitly with Lax-Friedrichs fluxes, each face dissipating in its own
density (the Lax-Friedrichs scheme for discontinuous flux of Karlsen and
Towers, written on the relabelled density), then inverts each cell's map
pointwise: v = beta^{-1}(m*) on the left and alpha^{-1}(m*) on the right.
At the step ``_Stepper.suggest_dt`` gives, the update is monotone in v, so
the transformed variable obeys a discrete maximum principle and an L1
contraction, and so the discrete entropy inequalities of monotone schemes
(Crandall and Majda): the scheme's own dissipation is the vanishing
viscosity.  The transform's slopes do not shrink the step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import StabilityError
from .fluxes import FluxPair
from .transforms import TransformPair, _audit, identity_transform

# how far, relative to the density range, m* may leave it before a step raises
_RANGE_SLACK = 1e-10
# solve reduces its c1 bookkeeping once per this many steps
_BLOCK_STEPS = 16


def relabel_initial(u0: np.ndarray, x: np.ndarray, transform: TransformPair) -> np.ndarray:
    """Relabel initial data side by side: beta^{-1} at x <= 0 and alpha^{-1} at x > 0.

    A steady two-trace profile built from a connection becomes exactly
    constant in the transformed variable.
    """
    u0 = np.asarray(u0, dtype=float)
    return np.where(x <= 0.0, transform.beta.inverse(u0), transform.alpha.inverse(u0))


@dataclass(frozen=True)
class SolverConfig:
    """Grid and time-step settings of one solve.

    ``cfl_hyperbolic`` is the share of the monotone bound dx / c away from
    the interface that the time step takes; it must lie in (0, 1).  The
    exact bound of the two cells beside the interface face sets no share of
    its own (see ``_Stepper.suggest_dt``).
    """

    half_width: float = 2.0
    cells: int = 512
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
        for name in ("half_width", "t_end", "cfl_hyperbolic"):
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

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.cells

    def centers(self) -> np.ndarray:
        return -self.half_width + (np.arange(self.cells) + 0.5) * self.dx

    def faces(self) -> np.ndarray:
        return -self.half_width + np.arange(self.cells + 1) * self.dx

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolutionField:
    """Snapshots of one solver run, in both the original and relabelled variables, on the
    grid of ``config``, its only record: ``x`` and ``dx`` are what the config gives."""

    config: SolverConfig
    times: np.ndarray
    v: np.ndarray            # snapshots x cells, transformed variable
    u: np.ndarray            # snapshots x cells, each cell's conserved density
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
        # The scheme adds no viscosity.  perfbench/workloads.py::field_differences
        # still compares a field's eps with its reload's.
        return 0.0

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


class _Stepper:
    """Precomputed tables and the update rule for one (flux, transform, grid)."""

    def __init__(self, flux: FluxPair, tables: tuple, transform: TransformPair, cfg: SolverConfig):
        self.cfg = cfg
        self.dx = cfg.dx

        # f∘alpha, g∘beta on their union, kept on the pair by transforms._audit and shared by its
        # solves: read only, yet left writable, since np.interp copies a read-only table on every call
        self.vgrid, self.fa_tab, self.gb_tab = tables

        # the pair's one lattice, for the densities: copies, being the pair's read-only arrays
        self.ugrid, self.alpha_tab, self.beta_tab = (np.array(a) for a in transform.table())
        # the interface face's dissipation density (alpha + beta) / 2
        self.mid_tab = 0.5 * (self.alpha_tab + self.beta_tab)

        # cells 0 .. k - 1 lie at x <= 0 and conserve beta(v), the others
        # alpha(v); face k, between cells k - 1 and k, is the interface face
        self.k = k = int(np.searchsorted(cfg.centers(), 0.0, side="right"))
        self.lo_val = np.full(cfg.cells, self.beta_tab[0])
        self.hi_val = np.full(cfg.cells, self.beta_tab[-1])
        self.lo_val[k:], self.hi_val[k:] = self.alpha_tab[0], self.alpha_tab[-1]
        self.scale = max(float(np.max(self.hi_val - self.lo_val)), 1.0)
        self.slack = _RANGE_SLACK * self.scale
        self.lo_bound = self.lo_val - self.slack
        self.hi_bound = self.hi_val + self.slack
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

        dv, du = np.diff(self.vgrid), np.diff(self.ugrid)
        fa_slope = np.diff(self.fa_tab) / dv
        gb_slope = np.diff(self.gb_tab) / dv
        alpha_slope = np.diff(self.alpha_tab) / du
        beta_slope = np.diff(self.beta_tab) / du
        # the dissipation speed: max |f'| and |g'| in u off the branches' own segments, so
        # |F'| <= c * M' at every face (an upper bound where the maps cover part of [a, b])
        self.speed_max = c = float(max(np.max(np.abs(np.diff(br.y) / np.diff(br.x)))
                                       for br in (flux.f, flux.g)))

        # the exact rates of the two cells beside the interface face (see
        # suggest_dt), whose faces' weights differ by 1/2
        mid_slope = 0.5 * (alpha_slope + beta_slope)
        cross = 0.5 * seg_max(fa_slope - gb_slope)
        left = (c * (beta_slope + mid_slope) + cross) / (2.0 * beta_slope)
        right = (c * (mid_slope + alpha_slope) + cross) / (2.0 * alpha_slope)
        self.band_rate = float(max(np.max(left), np.max(right)))
        self.interior_dt = cfg.cfl_hyperbolic * self.dx / c if c > 0.0 else math.inf
        self.band_dt = self.dx / self.band_rate if self.band_rate > 0.0 else math.inf

    def suggest_dt(self) -> float:
        """The monotone time step: min(cfl_hyperbolic * dx / c, dx / band_rate).

        A step moves each cell's density explicitly,

            m*_j = m_j(v_j) - dt / dx * (phi_{j+1/2} - phi_{j-1/2}),

        and then inverts it, v_j = m_j^{-1}(m*_j).  Every m_j is increasing,
        so the step preserves order once each m*_j is non-decreasing in
        every v_i.

        A face has the weight w = 0 left of the interface face, 1 right of
        it and 1/2 on it, the flux F = w f∘alpha + (1 - w) g∘beta and the
        density M = w alpha + (1 - w) beta.  It dissipates
        c/2 * (M(v_right) - M(v_left)), with c the largest |f'| and |g'| in
        u, so |F'| <= c M' and m*_j depends on v_{j+1} and v_{j-1} with
        non-negative weights.  Write w_-, w_+ (M_-, M_+) for cell j's faces;
        it depends on v_j through

            dm*_j/dv_j = m_j' - dt / (2 dx) * (c (M_+' + M_-') + (w_+ - w_-) (f∘alpha - g∘beta)'),

        which is non-negative once dt <= dx / rate_j with

            rate_j = (c (M_+' + M_-') + (w_+ - w_-) (f∘alpha - g∘beta)') / (2 m_j').

        Away from the interface face w_- = w_+ and M_± = m_j, so rate_j is c
        and the bound is dx / c; ``cfl_hyperbolic`` is the share of it the
        step takes.  The two cells beside the interface face have
        w_+ - w_- = 1/2.  There the slopes are constant on each transform
        segment except that of f∘alpha - g∘beta, whose largest value on the
        segment is the worst case; ``band_rate`` is the largest rate_j of
        the two cells over all segments, and the step takes all of
        dx / band_rate.

        A flux pair with no slope at all transports nothing, so any step is
        monotone; the step is then infinite and ``solve`` takes one step.
        """
        return min(self.interior_dt, self.band_dt)

    def conserved(self, v: np.ndarray) -> np.ndarray:
        """Each cell's density, u itself: beta(v) left of the interface face, alpha(v) right of it."""
        k = self.k
        m = np.empty(len(v))
        m[:k] = np.interp(v[:k], self.ugrid, self.beta_tab)
        m[k:] = np.interp(v[k:], self.ugrid, self.alpha_tab)
        return m

    def invert_conserved(self, m_star: np.ndarray) -> tuple[np.ndarray, float]:
        """The v whose densities are m*: beta^{-1}(m*) on the left cells, alpha^{-1}(m*) on the right.

        Returns v and the margin of m*: its least distance inside
        [lo_val, hi_val], negative when it lies outside but within
        ``slack``.  Such an m* maps to the end of the table.  Beyond the
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
        k = self.k
        v = np.empty(len(m_star))
        v[:k] = np.interp(m_star[:k], self.beta_tab, self.ugrid)
        v[k:] = np.interp(m_star[k:], self.alpha_tab, self.ugrid)
        return v, room - self.slack

    def face_fluxes(self, v: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Lax-Friedrichs fluxes at every face, dissipating in the face's own density.

        A face left of the interface face reads g∘beta and one right of it
        f∘alpha, so each branch is interpolated only at the states beside a
        face that reads it.  The interface face averages the two branches.

        ``m`` is ``conserved(v)``.  Its jumps are the dissipation except at
        the interface face, which dissipates in (alpha + beta) / 2.  The
        ghosts repeat the end cells, so the two boundary faces dissipate
        nothing.
        """
        k = self.k
        vx = self._ghosts
        vx[1:-1] = v
        vx[0], vx[-1] = v[0], v[-1]   # zero-gradient ghosts
        gb_v = np.interp(vx[:k + 2], self.vgrid, self.gb_tab)   # states 0 .. k + 1: faces 0 .. k
        fa_v = np.interp(vx[k:], self.vgrid, self.fa_tab)       # states k .. the last: faces k .. the last
        # each face's flux of the state on its left plus that on its right;
        # at the interface face both sums are exact when the branches agree
        total = np.empty(len(v) + 1)
        np.add(gb_v[:k], gb_v[1:k + 1], out=total[:k])
        total[k] = 0.5 * ((fa_v[0] + gb_v[k]) + (fa_v[1] + gb_v[k + 1]))
        np.add(fa_v[1:-1], fa_v[2:], out=total[k + 1:])
        jump = np.zeros(len(v) + 1)
        np.subtract(m[1:], m[:-1], out=jump[1:-1])
        mid = np.interp(v[k - 1:k + 1], self.ugrid, self.mid_tab)
        jump[k] = mid[1] - mid[0]
        # one dissipation speed for every face: a speed chosen per face from
        # the two states jumps when a state crosses a breakpoint, and the
        # update is then not monotone at any time step
        return 0.5 * total - 0.5 * self.speed_max * jump

    def step(self, v: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Explicit Lax-Friedrichs transport of the densities, then their pointwise inversion.

        Returns the new state, the face fluxes and the margin of m* inside
        the density range (see ``invert_conserved``).
        """
        m = self.conserved(v)
        phi = self.face_fluxes(v, m)
        m_star = m - (dt / self.dx) * (phi[1:] - phi[:-1])
        v_new, margin = self.invert_conserved(m_star)
        return v_new, phi, margin


def _block_rates(states: np.ndarray, dx: float, dt: float) -> list:
    """Per step of a block, the L1 rate of change.

    ``states`` holds the state a block starts from and the state after each
    of its steps, one per row.  Step k's rate is sum |v_k - v_{k-1}| * dx / dt.
    A row sum over the contiguous axis is the same pairwise sum as
    ``np.sum`` of that row alone, so each value is the one a step would
    compute for itself, to the bit.
    """
    change = np.abs(states[1:] - states[:-1]).sum(axis=1)
    return (change * dx / dt).tolist()


def solve(
    flux: FluxPair,
    u0,
    transform: TransformPair | None = None,
    config: SolverConfig | None = None,
) -> SolutionField:
    """Run the scheme and return the stored snapshot record.

    ``u0`` is either a vectorised callable of x or an array of cell-centre
    values; it must take finite values in the flux interval [a, b].  The transform
    pair is audited before use and rejected with a ValueError if it fails.

    ``cfg.snapshots`` evenly spaced steps are stored, rounded to whole steps;
    a request for more than the nsteps + 1 states of a solve stores every
    state once.  ``stats`` records the largest L1 rate of change ``c1`` over
    the steps; it is reduced once per block of ``_BLOCK_STEPS`` steps, to
    the value a per-step reduction gives.
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

    stepper = _Stepper(flux, tables, t, cfg)
    v = relabel_initial(u0_vals, x, t)

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

    snaps_v = [v]
    snaps_u = [stepper.conserved(v)]
    snap_times = [0.0]
    bflux = [(0.0, 0.0)]
    cum_left = cum_right = 0.0
    c1 = 0.0  # max L1 rate of change of v
    # the current block of steps: the state it starts from, then the state
    # after each of its steps, stacked into one buffer made once per solve
    states = [v]
    block = np.empty((min(_BLOCK_STEPS, nsteps) + 1, cfg.cells))
    invert_margin = math.inf
    for n in range(1, nsteps + 1):
        v, phi, margin = stepper.step(v, dt)
        invert_margin = min(invert_margin, margin)
        cum_left += dt * float(phi[0])
        cum_right += dt * float(phi[-1])
        states.append(v)
        if len(states) > _BLOCK_STEPS or n == nsteps:
            c1 = max(c1, *_block_rates(np.stack(states, out=block[:len(states)]), cfg.dx, dt))
            states = [v]
        if n in snap_at:
            snaps_v.append(v)
            snaps_u.append(stepper.conserved(v))
            snap_times.append(n * dt)
            bflux.append((cum_left, cum_right))
    del states, block, v   # free the block before the snapshot arrays are built

    u = np.array(snaps_u)   # each row sum is np.sum of that row alone (see _block_rates)
    return SolutionField(
        config=cfg,
        times=np.array(snap_times),
        v=np.array(snaps_v),
        u=u,
        mass=u.sum(axis=1) * cfg.dx,
        boundary_flux=np.array(bflux),
        dt=dt,
        flux=flux,
        transform=t,
        stats={
            "c1": c1,
            "steps": nsteps,
            "speed_max": stepper.speed_max,
            "band_rate": stepper.band_rate,
            # the constraint that set dt: dx / band_rate or the interior's
            "dt_limit": "band" if stepper.band_dt < stepper.interior_dt else "interior",
            # None when no step ran: the manifest is JSON, which has no inf
            "invert_margin": invert_margin if nsteps else None,
        },
    )


@dataclass(frozen=True)
class LadderResult:
    """A grid refinement N_k = N0 * 2^k and the gaps between successive levels."""

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
    """Refine the grid ``levels - 1`` times, doubling the cells, and report successive L1 gaps.

    The flag ``converging`` is advisory: it checks that the last gap is no
    larger than the first (it is not an acceptance gate by itself).
    """
    if levels < 2:
        raise ValueError("need at least 2 ladder levels")
    cfg0 = base or SolverConfig(cells=128)
    runs = [solve(flux, u0, transform, replace(cfg0, cells=cfg0.cells * 2**k)) for k in range(levels)]
    half = cfg0.half_width / 2.0
    dists = tuple(_window_l1(runs[k], runs[k + 1], half) for k in range(levels - 1))
    converging = dists[-1] <= dists[0] + 1e-12
    return LadderResult(tuple(runs), dists, converging)
