"""The benchmark's seeded workloads, one pass over each, and the correctness gates.

Every workload draws its Riemann states from ``numpy.random.default_rng(seed)``;
the library only ever sees the drawn states (as cell arrays or CLI arguments).
A pass runs every input once.  Each solve and each verification is one
operation: an operation that raises, exits non-zero or fails a gate is counted
in ``Record.failures`` and never skipped.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter as clock

import numpy as np

from bootstrap import import_discflux

dx = import_discflux()

RANGE_TOL = 1e-10   # the acceptance-suite bound on range excess
MASS_TOL = 1e-9     # |mass[-1] - mass[0] + (right - left)|; about 2e-13 at the seed
# riemann-oracle: L1 distance to classical_riemann on |x| <= 1 at 1024 cells,
# per unit jump |u_L - u_R|.  Seed values 0.08 (shock) and 0.11 (fan); the
# worst of 40 shock and 40 fan draws from the workload's ranges was 0.128.
L1_PER_JUMP = 0.2
L1_WINDOW = 1.0


# A fixed numpy kernel shaped like a solver step (interpolation on a
# 1027-node table, then a vectorised bisection), timed between operations.
# This host's single-thread speed swings by up to 1.6x over seconds to
# minutes; scaling each operation by the kernel's time around it cancels most
# of that.  Over 20 s windows of a 128-cell solve, the spread of raw means was
# 0.22 and of scaled means 0.035.  REF_NOMINAL_S is the kernel time that
# scaled seconds refer to, roughly its time here in a fast phase.
REF_NOMINAL_S = 0.007
_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.uniform(0.0, 1.0, 1024)
_REF_TABLE = np.cumsum(_REF_RNG.uniform(0.0, 1.0, 1027))
_REF_NODES = np.linspace(0.0, 1.0, _REF_TABLE.size)


def reference_s() -> float:
    t0 = clock()
    for _ in range(20):
        y = np.interp(_REF_X, _REF_NODES, _REF_TABLE)
        lo = np.zeros(y.shape, dtype=np.intp)
        hi = np.full(y.shape, _REF_TABLE.size - 1, dtype=np.intp)
        while np.any(hi - lo > 1):
            mid = (lo + hi) // 2
            take = _REF_TABLE[mid] <= y
            lo = np.where(take, mid, lo)
            hi = np.where(take, hi, mid)
    return clock() - t0


@dataclass
class Record:
    """Timings, exact counts and failures collected over one pass.

    Each timing is stored raw, next to the mean reference-kernel time
    measured just before and just after it.
    """

    solve_s: list = field(default_factory=list)
    solve_ref: list = field(default_factory=list)
    verify_s: list = field(default_factory=list)
    verify_ref: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    hyperbolic_steps: list = field(default_factory=list)
    l1_error: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    nonzero_exits: int = 0

    def op(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)

    def timed(self, call):
        """``(call(), seconds, reference seconds around the call)``; the call may raise."""
        if not self.refs:
            self.refs.append(reference_s())
        before = self.refs[-1]
        t0 = clock()
        out = call()
        elapsed = clock() - t0
        self.refs.append(reference_s())
        return out, elapsed, 0.5 * (before + self.refs[-1])


def riemann_array(cfg, ul: float, ur: float) -> np.ndarray:
    return np.where(cfg.centers() <= 0.0, ul, ur)


def hyperbolic_steps(stats: dict, cfg) -> int:
    """Step count the hyperbolic CFL limit alone would need for ``cfg.t_end``."""
    dt = cfg.cfl_hyperbolic * cfg.dx / stats["speed_max"]
    return max(1, math.ceil(cfg.t_end / dt))


def field_problems(fld) -> list:
    """Gates on a stored field that no library check covers today."""
    problems = []
    # range_excess() uses Python max(), which returns 0.0 next to a NaN
    if not (np.isfinite(fld.u).all() and np.isfinite(fld.v).all()):
        problems.append("non-finite u or v")
    excess = fld.range_excess()
    if not excess <= RANGE_TOL:
        problems.append(f"range excess {excess:.3e} > {RANGE_TOL:g}")
    left, right = fld.boundary_flux[-1]
    balance = abs(fld.mass[-1] - fld.mass[0] + (right - left))
    if not balance <= MASS_TOL:
        problems.append(f"mass balance {balance:.3e} > {MASS_TOL:g}")
    return problems


def verify_problems(fld) -> list:
    """``discflux verify``'s checks in memory, plus the adapted residual and traces."""
    problems = field_problems(fld)
    audit = dx.verify_transform(fld.flux, fld.transform)
    if not audit.ok:
        problems.append("transform audit: " + "; ".join(audit.failures))
    rep = dx.bounds_report(fld)
    if not (rep.v_ok and rep.u_ok):
        problems.append(f"ranges v [{rep.v_min:.6g}, {rep.v_max:.6g}] u [{rep.u_min:.6g}, {rep.u_max:.6g}]")
    lo, hi = fld.transform.domain
    reports = [dx.entropy_residual_pair(fld, float(xi)) for xi in np.linspace(lo, hi, 7)[1:-1]]
    if fld.transform.connection is not None:
        reports.append(dx.entropy_residual_connection(fld, fld.transform.connection))
    problems += [r.summary() for r in reports if not r.ok]
    traces = dx.extract_traces(fld)
    if not np.isfinite(traces.mismatch).all():
        problems.append("non-finite interface traces")
    return problems


def _raised(exc: Exception) -> list:
    return [f"raised {type(exc).__name__}: {exc}"]


class _InMemory:
    """Library-level workloads: solve each drawn state pair, then verify it."""

    name = ""
    flux_name = "burgers-like"
    verify_repeats = 1

    def __init__(self, seed: int, cells: int = 1024, t_end: float = 0.5):
        self.seed = seed
        self.cfg = dx.SolverConfig(cells=cells, t_end=t_end)
        self.cells = cells
        self.states = self.draw(np.random.default_rng(seed))

    def draw(self, rng) -> list:
        raise NotImplementedError

    def transform(self, flux):
        raise NotImplementedError

    def setup(self) -> None:
        """Build flux and transform, then a zero-length solve (audit, tables, mollify)."""
        flux = dx.get_flux(self.flux_name)
        dx.solve(flux, riemann_array(self.cfg, *self.states[0]), self.transform(flux),
                 replace(self.cfg, t_end=0.0))

    def run_pass(self, rec: Record, tracer, work_dir) -> None:
        flux = dx.get_flux(self.flux_name)
        t = self.transform(flux)
        for job, (ul, ur) in enumerate(self.states):
            tracer.job = job
            fld = self.solve(rec, flux, t, ul, ur)
            for _ in range(self.verify_repeats):
                self.verify(rec, fld, ul, ur)

    def solve(self, rec: Record, flux, t, ul: float, ur: float):
        try:
            fld, elapsed, ref = rec.timed(
                lambda: dx.solve(flux, riemann_array(self.cfg, ul, ur), t, self.cfg))
        except Exception as exc:  # a failed solve is counted, not fatal
            rec.op("solve", _raised(exc))
            return None
        rec.solve_s.append(elapsed)
        rec.solve_ref.append(ref)
        rec.op("solve", [])
        rec.steps.append(fld.stats["steps"])
        rec.hyperbolic_steps.append(hyperbolic_steps(fld.stats, self.cfg))
        return fld

    def verify(self, rec: Record, fld, ul: float, ur: float) -> None:
        if fld is None:
            rec.op("verify", ["no field to verify"])
            return

        def checked():
            try:
                return self.check(rec, fld, ul, ur)
            except Exception as exc:  # a crashing check is a failed verification
                return _raised(exc)

        problems, elapsed, ref = rec.timed(checked)
        rec.verify_s.append(elapsed)
        rec.verify_ref.append(ref)
        rec.op("verify", problems)

    def check(self, rec: Record, fld, ul: float, ur: float) -> list:
        return verify_problems(fld)


class ConnectionInterface(_InMemory):
    name = "connection-interface"
    connection = (0.75, 0.25)
    # A pass is one 13,650-step solve; verifying its field 8 times gives a
    # run enough verify_s samples to average over the host's speed swings.
    verify_repeats = 8

    def draw(self, rng) -> list:
        # u_L stays in [0.65, 0.95].  With u_L near 0.3 and u_R above 0.65 the
        # pair entropy residual exceeds its tolerance at 1024 cells (1.11x at
        # (0.276, 0.902)), by a ratio that grows under refinement.
        a, b = self.connection
        while True:
            ul, ur = rng.uniform(0.65, 0.95), rng.uniform(0.05, 0.95)
            if abs(ul - a) + abs(ur - b) >= 0.1:
                return [(float(ul), float(ur))]

    def transform(self, flux):
        return dx.build_connection_transform(flux, dx.Connection(*self.connection))


class RiemannOracle(_InMemory):
    name = "riemann-oracle"

    def draw(self, rng) -> list:
        # The flux u(1-u) is concave: an increasing jump is a shock, a
        # decreasing one a fan.  Both jump by 0.5 around a drawn centre, because
        # the oracle's envelope work (and so verify_s) grows with the jump.
        shock, fan = (float(c) for c in rng.uniform(0.3, 0.7, 2))
        return [(shock - 0.25, shock + 0.25), (fan + 0.25, fan - 0.25)]

    def transform(self, flux):
        return dx.identity_transform(flux)

    def check(self, rec: Record, fld, ul: float, ur: float) -> list:
        problems = verify_problems(fld)
        exact = dx.classical_riemann(fld.flux.f, ul, ur).profile(fld.x, float(fld.times[-1]))
        window = np.abs(fld.x) <= L1_WINDOW
        l1 = float(np.sum(np.abs(fld.u_final - exact)[window]) * fld.dx)
        rec.l1_error.append(l1)
        bound = L1_PER_JUMP * abs(ul - ur)
        if not l1 <= bound:
            problems.append(f"l1_error {l1:.4g} > {bound:.4g} = {L1_PER_JUMP:g} * |u_L - u_R|")
        return problems


_RUN_DIR = re.compile(r"^run written to (.+)$", re.MULTILINE)


class CliBatch:
    """A batch of ``discflux solve`` + ``discflux verify --run`` jobs, in process."""

    name = "cli-batch"
    flux_name = "demo-swapped"

    def __init__(self, seed: int, cells: int = 128, jobs: int = 8):
        from click.testing import CliRunner

        import discflux.cli

        self.seed = seed
        self.cli = discflux.cli
        self.runner = CliRunner()
        self.cells = cells
        self.cfg = dx.SolverConfig(cells=cells)
        rng = np.random.default_rng(seed)
        # Both states stay in [0.2, 0.8]: with the translation shifts (0.16, 0)
        # that demo-swapped needs, u_L < 0.16 or u_R > 0.84 is mollified out of
        # [0, 1] and `discflux verify` then raises DomainError.
        self.states = [tuple(float(s) for s in rng.uniform(0.2, 0.8, 2)) for _ in range(jobs)]
        self._seen: dict = {}

    def setup(self) -> None:
        """Build flux and translation transform, then a zero-length solve."""
        flux = dx.get_flux(self.flux_name)
        dx.solve(flux, riemann_array(self.cfg, *self.states[0]),
                 dx.build_translation_transform(flux), replace(self.cfg, t_end=0.0))

    def run_pass(self, rec: Record, tracer, work_dir) -> None:
        with self.capturing():
            for job, (ul, ur) in enumerate(self.states):
                tracer.job = job
                fld, run_dir = self.solve_job(rec, tracer, ul, ur, work_dir)
                self.verify_job(rec, tracer, fld, run_dir)

    @contextmanager
    def capturing(self):
        """Keep the field ``solve`` returns and the run ``read_run`` loads inside the CLI.

        Installed over whatever a tracer put there, and removed first.
        """
        seen = self._seen
        saved = {name: getattr(self.cli, name) for name in ("solve", "read_run")}

        def keeper(name, fn):
            def keep(*args, **kwargs):
                seen[name] = out = fn(*args, **kwargs)
                return out
            return keep

        for name, fn in saved.items():
            setattr(self.cli, name, keeper(name, fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(self.cli, name, fn)

    def _invoke(self, rec: Record, tracer, span: str, args: list):
        def invoke():
            with tracer.span(span):
                return self.runner.invoke(self.cli.main, args)

        result, elapsed, ref = rec.timed(invoke)
        if result.exit_code != 0:
            rec.nonzero_exits += 1
        return result, elapsed, ref

    def solve_job(self, rec: Record, tracer, ul: float, ur: float, work_dir):
        self._seen.clear()
        args = ["solve", "--flux", self.flux_name, "--transform", "translation",
                "--u0", f"riemann:{ul!r}:{ur!r}", "--cells", str(self.cells),
                "--out", str(work_dir)]
        result, elapsed, ref = self._invoke(rec, tracer, "cli.solve", args)
        found = _RUN_DIR.search(result.output)
        fld = self._seen.get("solve")
        if result.exit_code != 0 or found is None or fld is None:
            rec.op("solve", [f"discflux solve exited {result.exit_code}: {result.output.strip()[-200:]}"])
            return None, None
        rec.solve_s.append(elapsed)
        rec.solve_ref.append(ref)
        rec.op("solve", [])
        rec.steps.append(fld.stats["steps"])
        rec.hyperbolic_steps.append(hyperbolic_steps(fld.stats, self.cfg))
        return fld, found.group(1).strip()

    def verify_job(self, rec: Record, tracer, fld, run_dir) -> None:
        if fld is None:
            rec.op("verify", ["no run to verify"])
            return
        self._seen.pop("read_run", None)
        result, elapsed, ref = self._invoke(rec, tracer, "cli.verify", ["verify", "--run", run_dir])
        rec.verify_s.append(elapsed)
        rec.verify_ref.append(ref)
        problems = field_problems(fld)
        if result.exit_code != 0:
            problems.append(f"discflux verify exited {result.exit_code}: {result.output.strip()[-200:]}")
        loaded = self._seen.get("read_run")
        if loaded is None:
            problems.append("verify loaded no run")
        else:
            problems += field_differences(fld, loaded[0])
        rec.op("verify", problems)


def field_differences(a, b) -> list:
    """Names of the stored arrays and scalars that differ bit for bit."""
    diff = [name for name in ("x", "times", "u", "v", "mass", "boundary_flux")
            if not np.array_equal(getattr(a, name), getattr(b, name))]
    diff += [name for name in ("dx", "eps", "dt") if getattr(a, name) != getattr(b, name)]
    return [f"read_run differs from the solved field in {', '.join(diff)}"] if diff else []


WORKLOADS = {w.name: w for w in (ConnectionInterface, RiemannOracle, CliBatch)}
