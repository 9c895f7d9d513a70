"""Two-branch flux models on a common state interval [a, b].

A flux pair holds the branch active for x > 0 (``f``) and the one active for
x < 0 (``g``), both sampled on the same equispaced lattice and both vanishing
at the interval endpoints, which is what makes the endpoint states invariant.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curves import CLAMP_SLACK, MonotoneBijection, SampledCurve, merge_close, run_bounds
from .errors import CompositionError

DEFAULT_SAMPLES = 4096
TOL_ENDPOINT = 1e-12
TOL_FLAT = 1e-10


@dataclass(frozen=True)
class FluxPair:
    """Sampled flux branches f (x > 0) and g (x < 0) on [a, b]."""

    f: SampledCurve
    g: SampledCurve

    def __post_init__(self):
        if (
            abs(self.f.lo - self.g.lo) > CLAMP_SLACK
            or abs(self.f.hi - self.g.hi) > CLAMP_SLACK
        ):
            raise ValueError("flux branches must share the state interval")
        for name, curve in (("f", self.f), ("g", self.g)):
            for end in (curve.y[0], curve.y[-1]):
                if abs(end) > TOL_ENDPOINT:
                    raise ValueError(
                        f"branch {name} does not vanish at an endpoint "
                        f"(|{end:.3e}| > {TOL_ENDPOINT:g})"
                    )

    @property
    def a(self) -> float:
        return self.f.lo

    @property
    def b(self) -> float:
        return self.f.hi

    def branch(self, name: str) -> SampledCurve:
        if name == "f":
            return self.f
        if name == "g":
            return self.g
        raise ValueError(f"unknown branch {name!r}")

    @classmethod
    def from_callables(cls, f, g, a: float, b: float):
        if not a < b:
            raise ValueError("need a < b")
        u = np.linspace(a, b, DEFAULT_SAMPLES + 1)
        return cls(SampledCurve(u, np.asarray(f(u), float)), SampledCurve(u, np.asarray(g(u), float)))

    @classmethod
    def from_arrays(cls, u, fv, gv):
        u = np.asarray(u, float)
        return cls(SampledCurve(u, np.asarray(fv, float)), SampledCurve(u, np.asarray(gv, float)))


def compose_flux(branch: SampledCurve, m: MonotoneBijection) -> SampledCurve:
    """Exact composition branch∘m, sampled on m's domain.

    Breakpoints are the union of m's own breakpoints and the preimages of the
    branch nodes hit by m's range, so the result is the composition as a
    function, not a resampling of it.  m's range must lie in the branch's nodes.
    """
    rlo, rhi = m.range
    if rlo < branch.lo - CLAMP_SLACK or rhi > branch.hi + CLAMP_SLACK:
        raise CompositionError(
            f"transform range [{rlo:.6g}, {rhi:.6g}] escapes flux domain "
            f"[{branch.lo:.6g}, {branch.hi:.6g}]"
        )
    inner = branch.x[(branch.x > rlo) & (branch.x < rhi)]
    nodes = merge_close(np.union1d(m.breakpoints, m.inverse(inner)))
    return SampledCurve(nodes, branch(m.forward(nodes)))


def clip_flux(branch: SampledCurve) -> SampledCurve:
    """The branch with a zero node one interval width beyond each end.

    Continuous because the branch vanishes at its endpoints; the width covers
    every shift ``build_translation_transform`` returns.
    """
    width = branch.hi - branch.lo
    x = np.concatenate(([branch.lo - width], branch.x, [branch.hi + width]))
    return SampledCurve(x, np.concatenate(([0.0], branch.y, [0.0])))


def find_local_maxima(branch: SampledCurve) -> list[tuple[float, float]]:
    """Interior sample-level local maxima, sorted by position.

    Samples whose adjacent steps stay within ``TOL_FLAT`` form one run; an
    interior run that starts above the end of the run before it and above
    the start of the run after it is a maximum, reported at its midpoint with
    its largest value.  A flat branch (no interior value above the endpoints
    by more than ``TOL_FLAT``) yields an empty list.
    """
    if branch.x.size < 9:
        raise ValueError("need at least 8 sampling intervals to locate maxima")
    x, y = branch.x, branch.y
    first, last = run_bounds(np.abs(np.diff(y)) > TOL_FLAT)
    top = y[first[1:-1]]
    peak = 1 + np.flatnonzero((y[last[:-2]] < top) & (y[first[2:]] < top))
    pos = 0.5 * (x[first[peak]] + x[last[peak]])
    return list(zip(pos.tolist(), np.maximum.reduceat(y, first)[peak].tolist()))


# ---------------------------------------------------------------------------
# registry and CSV interchange

def _logistic(u):
    return u * (1.0 - u)


def _skew(u):
    return 2.0 * u * (1.0 - u) ** 2


_REGISTRY = {
    # f = g: the flux is continuous across the interface
    "burgers-like": (_logistic, _logistic),
    # f - g = u(1-u)(2u-1): single admissible crossing at u = 1/2
    "demo-cross": (_logistic, _skew),
    # swapped order violates the crossing condition
    "demo-swapped": (_skew, _logistic),
    "zero": (lambda u: np.zeros_like(u), lambda u: np.zeros_like(u)),
}


def registry_names() -> list[str]:
    return sorted(_REGISTRY)


def get_flux(spec: str) -> FluxPair:
    """Resolve a registry name or a CSV sample file into a FluxPair."""
    if spec in _REGISTRY:
        f, g = _REGISTRY[spec]
        return FluxPair.from_callables(f, g, 0.0, 1.0)
    path = Path(spec)
    if path.exists():
        return load_flux_csv(path)
    raise ValueError(f"unknown flux {spec!r}: not a registry name or readable file")


def save_flux_csv(flux: FluxPair, path) -> None:
    u = np.union1d(flux.f.x, flux.g.x)
    rows = np.column_stack([u, flux.f(u), flux.g(u)])
    np.savetxt(path, rows, delimiter=",", header="u,f,g", comments="", fmt="%.17g")


def load_flux_csv(path) -> FluxPair:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    if [h.strip() for h in header] != ["u", "f", "g"]:
        raise ValueError(f"{path}: expected header 'u,f,g'")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError(f"{path}: expected three columns")
    return FluxPair.from_arrays(data[:, 0], data[:, 1], data[:, 2])
