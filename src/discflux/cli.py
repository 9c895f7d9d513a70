"""Command-line entry points.

Configuration can come from a JSON file (--config) with the same keys as the
solver options; explicit flags win over the file, which wins over defaults.
Run output lands under --out, the DISCFLUX_OUT environment variable, or
./runs, in a directory named by a content hash.

Exit codes: 0 success / condition holds, 1 a verification or crossing check
failed, 2 bad usage or invalid inputs.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from .diagnostics import (
    bounds_report,
    ladder_bounds,
    entropy_residual_connection,
    entropy_residual_pair,
    extract_traces,
)
from .errors import ConstructionError, DiscFluxError
from .fluxes import get_flux, registry_names, write_csv
from .riemann import classical_riemann, steady_connection_state
from .runio import load_transform_csv, read_json_object, read_run, save_transform_csv, write_run
from .solver import SolverConfig, ladder, solve
from .transforms import (
    Connection,
    TransformPair,
    build_connection_transform,
    build_translation_transform,
    identity_transform,
    verify_transform,
)

_CONFIG_KEYS = set(SolverConfig().to_dict())


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    data = read_json_object(path, "config")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    return data


def _solver_config(config_path: str | None, **flags) -> SolverConfig:
    merged = SolverConfig().to_dict()
    merged.update(_load_config(config_path))
    merged.update({k: v for k, v in flags.items() if v is not None})
    return SolverConfig(**merged)


def _parse_connection(text: str | None) -> Connection | None:
    if text is None:
        return None
    try:
        A, B = map(float, text.split(":"))
    except ValueError:
        raise click.UsageError(f"use --connection A:B, not {text!r}")
    return Connection(A, B)


def _resolve_transform(text: str, flux, conn: Connection | None) -> TransformPair:
    if text == "identity":
        return identity_transform(flux)
    if text == "translation":
        return build_translation_transform(flux)
    if text == "connection":
        if conn is None:
            raise click.UsageError("a connection transform requires --connection A:B")
        return build_connection_transform(flux, conn)
    if Path(text).exists():
        return load_transform_csv(text)
    raise click.UsageError(
        f"unknown transform {text!r} (use identity, translation, connection, or a CSV path)"
    )


def _problem(flux_name: str, transform_arg: str, connection_text: str | None):
    """The flux, connection (None without one) and transform pair that ``_problem_options`` name."""
    flux = get_flux(flux_name)
    conn = _parse_connection(connection_text)
    return flux, conn, _resolve_transform(transform_arg, flux, conn)


def _problem_options(command):
    """``command`` with the options ``--flux``, ``--transform`` and ``--connection``, in that order."""
    command = click.option("--connection", "connection_text", default=None, help="A:B")(command)
    command = click.option("--transform", "transform_arg", default="identity", show_default=True)(command)
    return click.option("--flux", "flux_name", default="demo-cross", show_default=True,
                        help=f"registry name ({', '.join(registry_names())}) or a u,f,g CSV")(command)


def _initial_profile(text: str, flux, conn: Connection | None):
    if text == "steady":
        if conn is None:
            raise click.UsageError("--u0 steady requires --connection A:B")
        return lambda x: steady_connection_state(flux, conn, x)
    if text.startswith("riemann:"):
        try:
            _, l, r = text.split(":")
            ul, ur = float(l), float(r)
        except ValueError:
            raise click.UsageError("use --u0 riemann:LEFT:RIGHT")
        return lambda x: np.where(np.asarray(x) <= 0.0, ul, ur)
    if text.startswith("constant:"):
        try:
            val = float(text.split(":", 1)[1])
        except ValueError:
            raise click.UsageError("use --u0 constant:VALUE")
        return lambda x: np.full(np.shape(x), val, dtype=float)
    if text == "bump":
        a, b = flux.a, flux.b
        mid, amp = 0.5 * (a + b), 0.45 * (b - a)
        return lambda x: mid + amp * np.exp(-np.asarray(x, dtype=float) ** 2 / 0.5)
    raise click.UsageError(f"unknown initial profile {text!r}")


def _finite_non_negative(ctx, param, value):
    # a tolerance of inf would pass every residual, NaN or a negative one fail every one; no such time has a profile
    if value is not None and not (math.isfinite(value) and value >= 0.0):
        raise click.BadParameter(f"must be a finite number >= 0, got {value}")
    return value


@contextmanager
def _usage_errors():
    """Turn a ``DiscFluxError`` or ValueError raised in the block, a bad input, into a usage error (exit 2)."""
    try:
        yield
    except (DiscFluxError, ValueError) as exc:
        raise click.UsageError(str(exc))


def _echo(message: str, err: bool = False) -> None:
    """``click.echo`` to the current ``sys.stdout`` (``sys.stderr`` with ``err``).

    click's default stream is cached per ``sys.stdout`` object in a weak-keyed
    map whose value is often that same object, so the entry never dies: each
    in-process invocation (``CliRunner``) would keep its captured output
    alive for the life of the process.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout)


@click.group()
def main():
    """Tools for conservation laws with a flux that switches at x = 0."""


@main.command("solve")
@_problem_options
@click.option("--u0", "u0_arg", default="riemann:0.25:0.75", show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default=None, help="output root (default $DISCFLUX_OUT or ./runs)")
@click.option("--cells", type=int, default=None)
@click.option("--eps", type=float, default=None)
@click.option("--t-end", "t_end", type=float, default=None)
@click.option("--half-width", "half_width", type=float, default=None)
@click.option("--snapshots", type=int, default=None)
def cli_solve(flux_name, transform_arg, connection_text, u0_arg, config_path, out,
              cells, eps, t_end, half_width, snapshots):
    """Run the viscous scheme and persist snapshots."""
    with _usage_errors():
        flux, conn, transform = _problem(flux_name, transform_arg, connection_text)
        u0 = _initial_profile(u0_arg, flux, conn)
        cfg = _solver_config(config_path, cells=cells, eps=eps, t_end=t_end,
                             half_width=half_width, snapshots=snapshots)
        field = solve(flux, u0, transform, cfg)
    run_dir = write_run(field, Path(out or os.environ.get("DISCFLUX_OUT", "runs")))
    _echo(f"run written to {run_dir}")
    _echo(f"steps={field.stats['steps']} dt={field.dt:.3e} eps={field.eps:.3e}")
    try:
        traces = extract_traces(field)
    except DiscFluxError as exc:  # the run is written; its traces cannot be evaluated
        _echo(f"final traces: unavailable: {exc}")
        sys.exit(1)
    _echo(f"final traces: left={traces.left[-1]:.6g} right={traces.right[-1]:.6g} "
               f"flux mismatch={traces.final_mismatch:.3e}")


@main.command("check-crossing")
@_problem_options
def cli_check_crossing(flux_name, transform_arg, connection_text):
    """Report whether the composed fluxes cross at most once (exit 1 if not)."""
    with _usage_errors():
        flux, _, transform = _problem(flux_name, transform_arg, connection_text)
        audit = verify_transform(flux, transform)   # a built connection pair arrives audited
    report = audit.crossing
    if report is None:   # the composition failed
        raise click.UsageError("; ".join(audit.failures))
    _echo(report.to_json())
    sys.exit(0 if report.holds else 1)


@main.command("build-transform")
@click.option("--flux", "flux_name", default="demo-cross", show_default=True)
@click.option("--mode", type=click.Choice(["translation", "connection"]), required=True)
@click.option("--connection", "connection_text", default=None)
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="destination CSV; the pair's metadata goes in a JSON file of the same name beside it")
def cli_build_transform(flux_name, mode, connection_text, out_path):
    """Construct a transform pair and write it to disk."""
    with _usage_errors():
        try:
            flux, _, pair = _problem(flux_name, mode, connection_text)
            save_transform_csv(out_path, pair)
        except ConstructionError as exc:
            _echo(f"construction failed: {exc}", err=True)
            sys.exit(1)
    _echo(f"transform written to {out_path} (kind={pair.kind}, "
               f"shifts={pair.shifts}, c={pair.c}, audit ok={verify_transform(flux, pair).ok})")


@main.command("riemann")
@click.option("--flux", "flux_name", default="demo-cross", show_default=True)
@click.option("--branch", type=click.Choice(["f", "g"]), default="f", show_default=True)
@click.option("--left", type=float, required=True)
@click.option("--right", type=float, required=True)
@click.option("--time", "t_eval", type=float, default=1.0, show_default=True, callback=_finite_non_negative)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="optional x,u profile CSV at the given time")
def cli_riemann(flux_name, branch, left, right, t_eval, out_path):
    """Exact two-state solution for one flux branch."""
    with _usage_errors():
        flux = get_flux(flux_name)
        sol = classical_riemann(flux.branch(branch), left, right)
    if not sol.waves:
        _echo("constant solution, no waves")
    for w in sol.waves:
        if w.kind == "shock":
            _echo(f"shock  {w.left:.6g} -> {w.right:.6g} at speed {w.speed_lo:.6g}")
        else:
            _echo(f"fan    {w.left:.6g} -> {w.right:.6g} over speeds "
                       f"[{w.speed_lo:.6g}, {w.speed_hi:.6g}]")
    if out_path:
        span = max(1.0, max(abs(s) for s in [*sol.speeds, 1.0]) * t_eval * 1.5)
        x = np.linspace(-span, span, 801)
        write_csv(out_path, np.column_stack([x, sol.profile(x, t_eval)]), header="x,u")
        _echo(f"profile written to {out_path}")


@main.command("verify")
@click.option("--run", "run_dir", type=click.Path(exists=True), required=True)
@click.option("--tolerance", type=float, default=None, callback=_finite_non_negative)
def cli_verify(run_dir, tolerance):
    """Re-check a stored run: transform audit, ranges, mass balance, entropy residuals."""
    try:
        field, manifest = read_run(run_dir)
    except (DiscFluxError, ValueError, OSError) as exc:  # a run that fails its own checks
        _echo(f"FAIL run integrity: {exc}")
        sys.exit(1)
    failed = False

    audit = verify_transform(field.flux, field.transform)
    _echo(f"{'PASS' if audit.ok else 'FAIL'} transform audit")
    failed |= not audit.ok

    rep = bounds_report(field)
    ok = rep.v_ok and rep.u_ok
    _echo(f"{'PASS' if ok else 'FAIL'} ranges "
               f"(v in [{rep.v_min:.6g}, {rep.v_max:.6g}], u in [{rep.u_min:.6g}, {rep.u_max:.6g}])")
    failed |= not ok

    # stored mass changes only by what the two boundary faces let through
    drift = field.mass - field.mass[0] + field.boundary_flux[:, 1] - field.boundary_flux[:, 0]
    worst = float(np.max(np.abs(drift)))
    tol = 1e-9 * max(1.0, abs(float(field.mass[0])))
    ok = worst <= tol
    _echo(f"{'PASS' if ok else 'FAIL'} mass balance (worst {worst:.3e}, tol {tol:.3e})")
    failed |= not ok

    if len(field.times) == 1:   # a run of no steps: no time window to place the hats in
        _echo("SKIP entropy residuals: the run spans no time")
        sys.exit(1 if failed else 0)
    lo, hi = field.transform.domain
    checks = [(f"entropy residual at xi={xi:.4g}", entropy_residual_pair, float(xi))
              for xi in np.linspace(lo, hi, 7)[1:-1]]
    if field.transform.connection is not None:
        checks.append(("adapted residual against the connection", entropy_residual_connection,
                       field.transform.connection))
    for label, check, arg in checks:
        try:
            er = check(field, arg, tolerance=tolerance)
        except DiscFluxError as exc:  # a residual that cannot be computed fails the run
            _echo(f"FAIL {label}: {exc}")
            failed = True
            continue
        _echo(f"{'PASS' if er.ok else 'FAIL'} {label} "
                   f"(worst {er.worst:.3e}, tol {er.tolerance:.3e}; {er.where()})")
        failed |= not er.ok

    sys.exit(1 if failed else 0)


@main.command("sweep")
@_problem_options
@click.option("--u0", "u0_arg", default="riemann:0.25:0.75", show_default=True)
@click.option("--levels", type=int, default=3, show_default=True)
@click.option("--cells", type=int, default=128, show_default=True, help="coarsest level")
@click.option("--t-end", "t_end", type=float, default=0.5, show_default=True)
def cli_sweep(flux_name, transform_arg, connection_text, u0_arg, levels, cells, t_end):
    """Joint refinement of grid and smoothing width; reports L1 gaps."""
    with _usage_errors():
        flux, conn, transform = _problem(flux_name, transform_arg, connection_text)
        u0 = _initial_profile(u0_arg, flux, conn)
        base = SolverConfig(cells=cells, t_end=t_end)
        result = ladder(flux, u0, transform, base, levels=levels)
    for k, d in enumerate(result.distances):
        _echo(f"level {k} -> {k + 1}: L1 gap {d:.6e}")
    if len(result.distances) > 1:
        ratios = [result.distances[k] / max(result.distances[k + 1], 1e-300)
                  for k in range(len(result.distances) - 1)]
        _echo("gap ratios: " + ", ".join(f"{r:.2f}" for r in ratios))
    lb = ladder_bounds(result)
    for name, vals in (("c0", lb.c0), ("c1", lb.c1), ("c2", lb.c2)):
        _echo(f"{name} per level: " + ", ".join(f"{v:.4e}" for v in vals))
    _echo(f"bounds stable: {lb.ok}")
    if not result.converging:
        _echo("warning: gaps are not shrinking at these resolutions", err=True)
    _echo(f"converging: {result.converging}")


if __name__ == "__main__":
    main()
