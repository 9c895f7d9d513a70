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

from .curves import CLAMP_SLACK, MonotoneBijection, SampledCurve, merge_close
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

    def lipschitz(self) -> float:
        return max(self.f.max_slope(), self.g.max_slope())

    @classmethod
    def from_callables(cls, f, g, a: float, b: float, samples: int = DEFAULT_SAMPLES):
        if not a < b:
            raise ValueError("need a < b")
        u = np.linspace(a, b, samples + 1)
        return cls(SampledCurve(u, np.asarray(f(u), float)), SampledCurve(u, np.asarray(g(u), float)))

    @classmethod
    def from_arrays(cls, u, fv, gv):
        u = np.asarray(u, float)
        return cls(SampledCurve(u, np.asarray(fv, float)), SampledCurve(u, np.asarray(gv, float)))


def compose_flux(branch: SampledCurve, m: MonotoneBijection) -> SampledCurve:
    """Exact composition branch∘m, sampled on m's domain.

    Breakpoints are the union of m's own breakpoints and the preimages of the
    branch nodes hit by m's range, so the result is the composition as a
    function, not a resampling of it.
    """
    rlo, rhi = m.range
    if branch.outside != "zero":
        if rlo < branch.lo - CLAMP_SLACK or rhi > branch.hi + CLAMP_SLACK:
            raise CompositionError(
                f"transform range [{rlo:.6g}, {rhi:.6g}] escapes flux domain "
                f"[{branch.lo:.6g}, {branch.hi:.6g}]"
            )
    inner = branch.x[(branch.x > rlo) & (branch.x < rhi)]
    nodes = merge_close(np.union1d(m.breakpoints, m.inverse(inner)))
    return SampledCurve(nodes, branch(m.forward(nodes)))


def clip_flux(branch: SampledCurve) -> SampledCurve:
    """Extend a branch by zero outside its interval (continuous by hypothesis)."""
    return SampledCurve(branch.x, branch.y, outside="zero")


def _runs(y: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Maximal runs of consecutive samples whose adjacent steps stay within tol."""
    out = []
    start = 0
    for i in range(1, y.size):
        if abs(y[i] - y[i - 1]) > tol:
            out.append((start, i - 1))
            start = i
    out.append((start, y.size - 1))
    return out


def find_local_maxima(branch: SampledCurve, tol_flat: float = TOL_FLAT) -> list[tuple[float, float]]:
    """Interior sample-level local maxima, sorted by position.

    Plateau maxima are reported at the plateau midpoint.  A flat branch (no
    interior value above the endpoints by more than ``tol_flat``) yields an
    empty list.
    """
    if branch.x.size < 9:
        raise ValueError("need at least 8 sampling intervals to locate maxima")
    y = branch.y
    runs = _runs(y, tol_flat)
    maxima = []
    for k in range(1, len(runs) - 1):
        s, e = runs[k]
        if y[runs[k - 1][1]] < y[s] and y[runs[k + 1][0]] < y[s]:
            pos = 0.5 * (branch.x[s] + branch.x[e])
            maxima.append((float(pos), float(np.max(y[s : e + 1]))))
    return maxima


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


def get_flux(spec: str, samples: int = DEFAULT_SAMPLES) -> FluxPair:
    """Resolve a registry name or a CSV sample file into a FluxPair."""
    if spec in _REGISTRY:
        f, g = _REGISTRY[spec]
        return FluxPair.from_callables(f, g, 0.0, 1.0, samples=samples)
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
