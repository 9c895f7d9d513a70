"""Outside-in span tracing of the discflux layers.

``Tracer.install`` replaces every public function of the layer modules with a
timing wrapper in each namespace that holds it (the package, the defining
module, and any module that imported it by name, such as ``cli`` and
``solver``), and wraps the ``_Stepper`` step kernels on the class.  No library
file changes.  Spans (name, start, end, parent, job id) stay in memory until
the pass ends.  ``curves`` and ``errors`` are not wrapped: ``curves`` is
measured through the ``transforms``/``fluxes`` calls that use it, and
``errors`` does no work.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter as clock

LAYERS = ("solver", "transforms", "fluxes", "riemann", "diagnostics", "runio")
STEPPER_METHODS = ("step", "face_fluxes", "conserved", "invert_conserved")


class NullTracer:
    """Stands in for a tracer on untraced passes."""

    job = -1
    written_runs = ()

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.jobs: list = []
        self.errors: dict = {}      # span index -> exception type name
        self.stack = [-1]
        self.job = -1
        self.failed_checks = 0      # diagnostics reports that came back not ok
        self.written_runs: list = []
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.jobs.append(self.job)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, exc: BaseException | None = None) -> None:
        self.ends[idx] = clock()
        self.starts[idx] = t0
        self.stack.pop()
        if exc is not None:
            self.errors[idx] = type(exc).__name__

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, t0, exc)
                raise
            self._close(idx, t0)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        t0 = clock()
        try:
            yield
        except BaseException as exc:
            self._close(idx, t0, exc)
            raise
        self._close(idx, t0)

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _hook(self, layer: str, name: str):
        if layer == "diagnostics":
            return self._count_failed_check
        if (layer, name) == ("runio", "write_run"):
            return self.written_runs.append
        return None

    def _count_failed_check(self, report) -> None:
        if any(getattr(report, flag, True) is False for flag in ("ok", "v_ok", "u_ok")):
            self.failed_checks += 1

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "discflux" or n.startswith("discflux.")]
        for layer in LAYERS:
            module = sys.modules[f"discflux.{layer}"]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{layer}.{name}", fn, self._hook(layer, name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, attr, traced)
        stepper = sys.modules["discflux.solver"]._Stepper
        for name in STEPPER_METHODS:
            self._set(stepper, name, self.wrap(f"solver.{name}", vars(stepper)[name]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries -----------------------------------------------------------

    def per_name(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds]."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, name in enumerate(self.names):
            row = out[name]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return out

    def covered_s(self) -> float:
        """Time inside any span (top-level spans never overlap on one thread)."""
        return sum(self.ends[i] - self.starts[i] for i, p in enumerate(self.parents) if p < 0)

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that ran inside a span called ``ancestor``."""
        count = 0
        for i, own in enumerate(self.names):
            if own != name:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            count += p >= 0
        return count

    def count_errors(self, name: str, error: str) -> int:
        return sum(1 for i, err in self.errors.items() if err == error and self.names[i] == name)

    def dump(self, path, origin: float) -> None:
        """Write the spans as CSV, times relative to ``origin``."""
        rows = ["index,name,start_s,end_s,parent,job,error"]
        for i, name in enumerate(self.names):
            rows.append(f"{i},{name},{self.starts[i] - origin:.9f},{self.ends[i] - origin:.9f},"
                        f"{self.parents[i]},{self.jobs[i]},{self.errors.get(i, '')}")
        path.write_text("\n".join(rows) + "\n")
