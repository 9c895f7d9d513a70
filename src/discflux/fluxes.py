"""Two-branch flux models on a common state interval [a, b].

A flux pair holds the branch active for x > 0 (``f``) and the one active for
x < 0 (``g``), both sampled on the same equispaced lattice and both vanishing
at the interval endpoints, which is what makes the endpoint states invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curves import CLAMP_SLACK, MonotoneBijection, SampledCurve, merge_close, run_bounds
from .errors import CompositionError, DiscFluxError

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
    nodes = merge_close(np.sort(np.concatenate((m.breakpoints, m.inverse(inner)))))
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
    if Path(spec).exists():
        return load_flux_csv(spec)
    raise ValueError(f"unknown flux {spec!r}: not a registry name or readable file")


def write_csv(path, table, header: str | None = None) -> None:
    """Write a 2-D table as ``%.17g`` CSV rows under an optional header line, making its directory.

    CSV is for interchange only (runs are ``.npy``), and ``read_csv`` is its one reader.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header or "", comments="")


def read_text(path) -> str:
    """The text of the UTF-8 file ``path``; every CSV table and JSON file is read through it.

    Raises ``DiscFluxError`` starting with ``path`` for a file that cannot be
    opened (a directory, no read permission, missing) or is not UTF-8.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DiscFluxError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DiscFluxError(f"{path}: {exc}") from exc


def read_csv(path, header: str) -> np.ndarray:
    """The table below the header line ``header`` of a CSV file; spaces around a name are ignored.

    Raises ``DiscFluxError`` starting with ``path`` for a file ``read_text``
    rejects, for another header, or unless there are rows and each holds one
    number per name.
    """
    names = header.split(",")
    first, _, body = read_text(path).partition("\n")
    rows = [row for row in body.split("\n") if row.strip()]
    if [name.strip() for name in first.split(",")] != names:
        raise DiscFluxError(f"{path}: expected header {header!r}, found {first.strip()!r}")
    widths = sorted({row.count(",") + 1 for row in rows})
    if widths != [len(names)]:   # no rows too, on which np.loadtxt only warns
        raise DiscFluxError(f"{path}: expected {len(names)} values per row, found {widths or 'no rows'}")
    try:
        return np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise DiscFluxError(f"{path}: {exc}") from exc


def _flux_table(flux: FluxPair) -> np.ndarray:
    """Columns u, f(u), g(u) on the union of both branches' nodes, where both are exact."""
    u = np.sort(np.concatenate((flux.f.x, flux.g.x)))
    u = u[np.append(True, u[1:] != u[:-1])]   # np.union1d's lattice: no close nodes merged, so run hashes stay
    return np.column_stack([u, flux.f(u), flux.g(u)])


def save_flux_csv(flux: FluxPair, path) -> None:
    write_csv(path, _flux_table(flux), header="u,f,g")


def load_flux_csv(path) -> FluxPair:
    """The flux pair in a 'u,f,g' file."""
    return FluxPair.from_arrays(*read_csv(path, "u,f,g").T)
