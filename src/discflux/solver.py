"""Finite-volume solver for the relabelled two-flux problem.

Each cell conserves u itself: the density beta(v) at x <= 0 and alpha(v)
past it.  A step moves the densities explicitly with Lax-Friedrichs fluxes,
each face dissipating in its own density.  Off the interface face
g∘beta(v) = g(u) and f∘alpha(v) = f(u), so each side runs the Lax-Friedrichs
scheme in u on its own flux branch (the scheme for discontinuous flux of
Karlsen and Towers); the relabelled v is read only where admissibility at
x = 0 is decided, in the two cells beside the interface face, by the
pointwise inversions v = beta^{-1}(u) on the left and alpha^{-1}(u) on the
right, and at the stored snapshots.  At the step ``_Stepper.suggest_dt``
gives, the update is monotone and conservative in u, so it obeys a discrete
maximum principle and contracts in L1 (Crandall and Tartar), and so the
discrete entropy inequalities of monotone schemes hold (Crandall and
Majda): the scheme's own dissipation is the vanishing viscosity.  The
transform's slopes do not shrink the step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import StabilityError
from .fluxes import FluxPair
from .transforms import TransformPair, _audit, _branches, identity_transform

# how far, relative to the density range, a new density may leave it before a step raises
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
    """Precomputed tables and the update rule for one (flux, transform, grid).

    The state is u, the density each cell conserves; the relabelled v is
    read only where admissibility at x = 0 is decided, in the two cells
    beside the interface face, and at the snapshots ``solve`` stores.
    """

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
        # the branches (x, y) the faces off the interface read in u, those the pair composes: copies,
        # as np.interp copies a read-only table on every call
        self.f_tab, self.g_tab = ((np.array(br.x), np.array(br.y)) for br in _branches(flux, transform))

        # cells 0 .. k - 1 lie at x <= 0 and conserve beta(v), the others
        # alpha(v); face k, between cells k - 1 and k, is the interface face
        self.k = k = int(np.searchsorted(cfg.centers(), 0.0, side="right"))
        self.lo_val = np.full(cfg.cells, self.beta_tab[0])
        self.hi_val = np.full(cfg.cells, self.beta_tab[-1])
        self.lo_val[k:], self.hi_val[k:] = self.alpha_tab[0], self.alpha_tab[-1]
        self.scale = max(float(np.max(self.hi_val - self.lo_val)), 1.0)
        self.slack = _RANGE_SLACK * self.scale
        # each side's density range, left then right
        self._sides = np.array([0, k])
        self._ends = (float(self.beta_tab[0]), float(self.alpha_tab[0]),
                      float(self.beta_tab[-1]), float(self.alpha_tab[-1]))
        # face_fluxes' states with their zero-gradient ghosts, and the
        # relabelled states of the two cells beside the interface face
        self._ghosts = np.empty(cfg.cells + 2)
        self._band_v = np.empty(2)

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

        A step moves each cell's density u_j explicitly,

            u_j <- u_j - dt / dx * (phi_{j+1/2} - phi_{j-1/2}),

        and the step preserves order once each new u_j is non-decreasing in
        every old u_i.  Cell j's density is m_j(v_j), with m_j = beta at
        x <= 0 and alpha past it; every m_j is increasing, so the order of
        the densities is that of the relabelled states, and the bound can be
        read in v.

        A face has the weight w = 0 left of the interface face, 1 right of
        it and 1/2 on it, the flux F = w f∘alpha + (1 - w) g∘beta and the
        density M = w alpha + (1 - w) beta.  It dissipates
        c/2 * (M(v_right) - M(v_left)), with c the largest |f'| and |g'| in
        u, so |F'| <= c M' and the new u_j depends on v_{j+1} and v_{j-1}
        with non-negative weights.  Write w_-, w_+ (M_-, M_+) for cell j's
        faces; it depends on v_j through

            du_j/dv_j = m_j' - dt / (2 dx) * (c (M_+' + M_-') + (w_+ - w_-) (f∘alpha - g∘beta)'),

        which is non-negative once dt <= dx / rate_j with

            rate_j = (c (M_+' + M_-') + (w_+ - w_-) (f∘alpha - g∘beta)') / (2 m_j').

        Away from the interface face w_- = w_+ and M_± = m_j, so rate_j is c
        (in u: the Lax-Friedrichs bound of a face that reads one branch) and
        the bound is dx / c; ``cfl_hyperbolic`` is the share of it the step
        takes.  The two cells beside the interface face have
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

    def _range(self, m: np.ndarray) -> tuple[float, bool]:
        """The margin of m and whether m lies in [lo_val, hi_val].

        The margin is the least distance of m inside [lo_val, hi_val],
        negative when m lies outside but within ``slack``.  Beyond the
        slack, or for a non-finite m, StabilityError.
        """
        # each side's least and largest density; a NaN makes both NaN
        low_l, low_r = np.minimum.reduceat(m, self._sides).tolist()
        high_l, high_r = np.maximum.reduceat(m, self._sides).tolist()
        lo_l, lo_r, hi_l, hi_r = self._ends
        s = self.slack
        rooms = (low_l - (lo_l - s), low_r - (lo_r - s), (hi_l + s) - high_l, (hi_r + s) - high_r)
        # the difference to a bound has the exact sign of the comparison with
        # it, so the test accepts exactly the m within the slack of the range;
        # a NaN fails it too
        if not (rooms[0] >= 0.0 and rooms[1] >= 0.0 and rooms[2] >= 0.0 and rooms[3] >= 0.0):
            worst = float(np.maximum(self.lo_val - m, m - self.hi_val).max())
            raise StabilityError(
                f"conserved density left the invertible range by {worst:.3e}; "
                "reduce the time step or refine the grid"
            )
        inside = lo_l <= low_l and lo_r <= low_r and high_l <= hi_l and high_r <= hi_r
        return min(rooms) - s, inside

    def invert_conserved(self, m: np.ndarray) -> tuple[np.ndarray, float]:
        """The v whose densities are m: beta^{-1}(m) on the left cells, alpha^{-1}(m) on the right.

        Returns v and the margin of m (see ``_range``).  An m within the
        slack outside [lo_val, hi_val] maps to the end of the table.
        """
        margin = self._range(m)[0]
        k = self.k
        v = np.empty(len(m))
        v[:k] = np.interp(m[:k], self.beta_tab, self.ugrid)
        v[k:] = np.interp(m[k:], self.alpha_tab, self.ugrid)
        return v, margin

    def face_fluxes(self, u: np.ndarray) -> np.ndarray:
        """Lax-Friedrichs fluxes at every face, dissipating in the face's own density.

        A face left of the interface face reads g, and one right of it f, at
        the densities beside it: the Lax-Friedrichs scheme in u on each side,
        since g∘beta(v) = g(u) and f∘alpha(v) = f(u) there.  The interface
        face reads the relabelled states of its two cells,
        v = beta^{-1}(u_{k-1}) and alpha^{-1}(u_k), averages f∘alpha and
        g∘beta at both and dissipates in (alpha + beta) / 2.  The ghosts
        repeat the end cells, so the two boundary faces dissipate nothing.
        """
        k = self.k
        ux = self._ghosts
        ux[1:-1] = u
        ux[0], ux[-1] = u[0], u[-1]   # zero-gradient ghosts
        g_u = np.interp(ux[:k + 1], *self.g_tab)    # states 0 .. k: faces 0 .. k - 1
        f_u = np.interp(ux[k + 1:], *self.f_tab)    # states k + 1 .. the last: faces k + 1 .. the last
        band = self._band_v
        band[0] = np.interp(u[k - 1], self.beta_tab, self.ugrid)
        band[1] = np.interp(u[k], self.alpha_tab, self.ugrid)
        fa_v = np.interp(band, self.vgrid, self.fa_tab)
        gb_v = np.interp(band, self.vgrid, self.gb_tab)
        mid = np.interp(band, self.ugrid, self.mid_tab)
        # each face's flux of the state on its left plus that on its right;
        # at the interface face both sums are exact when the branches agree
        total = np.empty(len(u) + 1)
        np.add(g_u[:-1], g_u[1:], out=total[:k])
        total[k] = 0.5 * ((fa_v[0] + gb_v[0]) + (fa_v[1] + gb_v[1]))
        np.add(f_u[:-1], f_u[1:], out=total[k + 1:])
        jump = np.zeros(len(u) + 1)
        np.subtract(u[1:], u[:-1], out=jump[1:-1])
        jump[k] = mid[1] - mid[0]
        # one dissipation speed for every face: a speed chosen per face from
        # the two states jumps when a state crosses a breakpoint, and the
        # update is then not monotone at any time step
        return 0.5 * total - 0.5 * self.speed_max * jump

    def step(self, u: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Explicit Lax-Friedrichs transport of the densities.

        Returns the new densities, the face fluxes and the margin of the new
        densities inside [lo_val, hi_val] (see ``_range``).  A density
        within the slack outside that range is clipped to it: the density of
        the table end that the inversion would map it to.
        """
        phi = self.face_fluxes(u)
        u_new = u - (dt / self.dx) * (phi[1:] - phi[:-1])
        margin, inside = self._range(u_new)
        if not inside:
            np.clip(u_new, self.lo_val, self.hi_val, out=u_new)
        return u_new, phi, margin


def _block_rates(states: np.ndarray, dx: float, dt: float) -> list:
    """Per step of a block, the L1 rate of change.

    ``states`` holds the densities a block starts from and those after each
    of its steps, one per row.  Step k's rate is sum |u_k - u_{k-1}| * dx / dt.
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

    The scheme steps the densities u, starting from those of the relabelled
    initial data.  ``cfg.snapshots`` evenly spaced steps are stored, rounded
    to whole steps, each with the v its densities invert to; a request for
    more than the nsteps + 1 states of a solve stores every state once.
    ``stats`` records the largest L1 rate of change of u, ``c1``, over the
    steps: a monotone conservative scheme contracts in L1 in its conserved
    variable (Crandall and Tartar).  It is reduced once per block of
    ``_BLOCK_STEPS`` steps, to the value a per-step reduction gives.
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
    u = stepper.conserved(v)

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
    snaps_u = [u]
    snap_times = [0.0]
    bflux = [(0.0, 0.0)]
    cum_left = cum_right = 0.0
    c1 = 0.0  # max L1 rate of change of u
    # the current block of steps: the densities it starts from, then those
    # after each of its steps, stacked into one buffer made once per solve
    states = [u]
    block = np.empty((min(_BLOCK_STEPS, nsteps) + 1, cfg.cells))
    invert_margin = math.inf
    for n in range(1, nsteps + 1):
        u, phi, margin = stepper.step(u, dt)
        invert_margin = min(invert_margin, margin)
        cum_left += dt * float(phi[0])
        cum_right += dt * float(phi[-1])
        states.append(u)
        if len(states) > _BLOCK_STEPS or n == nsteps:
            c1 = max(c1, *_block_rates(np.stack(states, out=block[:len(states)]), cfg.dx, dt))
            states = [u]
        if n in snap_at:
            snaps_u.append(u)
            snaps_v.append(stepper.invert_conserved(u)[0])
            snap_times.append(n * dt)
            bflux.append((cum_left, cum_right))
    del states, block, u, v   # free the block before the snapshot arrays are built

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
