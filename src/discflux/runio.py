"""On-disk layout for solver runs (format 2).

A run directory is named by a short content hash and holds four CSV tables
plus one manifest:

    <out>/<hash>/manifest.json        run metadata, config, stored times, sha256 per table
    <out>/<hash>/flux.csv             sampled flux pair, columns u,f,g
    <out>/<hash>/transform.csv        sampled transforms, columns v,alpha,beta
    <out>/<hash>/snapshots/u.csv      first row the cell centres x, then one row per stored time
    <out>/<hash>/snapshots/v.csv      the same for the transformed variable

All floats are written with %.17g so reloading reproduces the arrays bit for
bit; reloading a transform is exact because the tables are piecewise linear
with their breakpoints included in the written grid.

A run is built in a temporary sibling directory and renamed into place, so a
crash leaves no partial ``<hash>/``; ``read_run`` checks every table against
its digest in the manifest before parsing it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .curves import MonotoneBijection
from .errors import DiscFluxError
from .fluxes import load_flux_csv, save_flux_csv
from .solver import SolutionField, SolverConfig
from .transforms import Connection, TransformPair

FORMAT_VERSION = 2
_FMT = "%.17g"
_VARIABLES = ("u", "v")
_TABLES = ("flux.csv", "transform.csv", *(f"snapshots/{var}.csv" for var in _VARIABLES))
_MANIFEST_KEYS = ("cells", "dx", "eps", "dt", "times", "mass", "boundary_flux")


def config_hash(payload: dict) -> str:
    """Short stable hash of a JSON-serialisable payload (sorted keys)."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _write_csv(path: Path, header: str, columns) -> None:
    arr = np.column_stack(columns)
    np.savetxt(path, arr, fmt=_FMT, delimiter=",", header=header, comments="")


def _read_csv(path: Path, header: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
    if first != header:
        raise DiscFluxError(f"{path}: expected header {header!r}, found {first!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def save_transform_csv(path: Path, t: TransformPair) -> None:
    _write_csv(Path(path), "v,alpha,beta", t.table())


def load_transform_csv(path: Path, meta: dict | None = None) -> TransformPair:
    """Reload a transform table with the ``shifts`` and ``connection`` of its ``TransformPair.meta()``.

    Other keys, ``kind`` and ``c`` among them, are ignored: the pair derives them.
    Raises ValueError when ``meta`` is not an object or either entry is malformed.
    """
    data = _read_csv(Path(path), "v,alpha,beta")
    meta = {} if meta is None else meta
    if not isinstance(meta, dict):
        raise ValueError(f"transform metadata must be a JSON object, not {type(meta).__name__}")
    alpha = MonotoneBijection(data[:, 0], data[:, 1])
    beta = MonotoneBijection(data[:, 0], data[:, 2])
    conn = meta.get("connection")
    try:
        if conn is not None:
            conn = Connection(float(conn["A"]), float(conn["B"]), conn.get("flavor", "classic"))
        return TransformPair(alpha, beta, shifts=meta.get("shifts"), connection=conn)
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        raise ValueError(f"malformed transform metadata: {exc!r}") from exc


def _numbers(value) -> np.ndarray:
    """A manifest list of numbers as floats; strings, booleans and nulls fail."""
    arr = np.array(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"expected numbers, found {value!r:.60}")
    return arr.astype(float)


def run_hash(field: SolutionField, config: SolverConfig) -> str:
    flux_tab = np.column_stack([field.flux.f.x, field.flux.f.y, field.flux.g.y])
    t_tab = np.column_stack(field.transform.table())
    payload = {
        "config": config.to_dict(),
        "flux_sha": hashlib.sha256(flux_tab.tobytes()).hexdigest()[:12],
        "transform_sha": hashlib.sha256(t_tab.tobytes()).hexdigest()[:12],
        "u0_sha": hashlib.sha256(np.ascontiguousarray(field.u[0]).tobytes()).hexdigest()[:12],
    }
    return config_hash(payload)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_run(field: SolutionField, config: SolverConfig, out_root) -> Path:
    """Persist a run as <out_root>/<hash>/ and return the directory.

    The directory appears whole or not at all; an existing run with the same
    hash is replaced.
    """
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    run_dir = out_root / run_hash(field, config)
    tmp = Path(tempfile.mkdtemp(prefix=f".{run_dir.name}-", dir=out_root))
    try:
        (tmp / "snapshots").mkdir()
        # mkdtemp makes the directory owner-only; publish it with the umask's mode like its subdirectory
        shutil.copymode(tmp / "snapshots", tmp)
        save_flux_csv(field.flux, tmp / "flux.csv")
        save_transform_csv(tmp / "transform.csv", field.transform)
        for var in _VARIABLES:
            np.savetxt(tmp / "snapshots" / f"{var}.csv", np.vstack([field.x, getattr(field, var)]),
                       fmt=_FMT, delimiter=",")
        manifest = {
            "format": FORMAT_VERSION,
            "hash": run_dir.name,
            "config": config.to_dict(),
            "cells": len(field.x),
            "dx": field.dx,
            "eps": field.eps,
            "dt": field.dt,
            "times": [float(t) for t in field.times],
            "mass": [float(m) for m in field.mass],
            "boundary_flux": [[float(l), float(r)] for l, r in field.boundary_flux],
            "sha256": {name: _sha256(tmp / name) for name in _TABLES},
            "transform": field.transform.meta(),
            "stats": field.stats,
        }
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        # os.replace cannot overwrite a non-empty directory
        if run_dir.exists():
            shutil.rmtree(run_dir)
        os.replace(tmp, run_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return run_dir


def read_run(run_dir) -> tuple[SolutionField, dict]:
    """Reload a persisted run; arrays round-trip exactly.

    Raises ``DiscFluxError`` for a run of another format, a table whose bytes
    do not match the manifest's digest, snapshot tables of the wrong shape
    or with different cell centres, or a manifest whose own entries (which no
    digest covers) are missing, of the wrong type or do not fit the tables.
    """
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    if not isinstance(manifest, dict):
        raise DiscFluxError(f"{run_dir / 'manifest.json'}: not a JSON object")
    if manifest.get("format") != FORMAT_VERSION:
        raise DiscFluxError(f"run format {manifest.get('format')!r} is not supported; "
                            f"this version reads format {FORMAT_VERSION} only")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise DiscFluxError(f"{run_dir / 'manifest.json'}: missing {', '.join(missing)}")
    for key in ("sha256", "transform"):
        if not isinstance(manifest.get(key), dict):
            raise DiscFluxError(f"{run_dir / 'manifest.json'}: {key} must be a JSON object")
    for name in _TABLES:
        if _sha256(run_dir / name) != manifest["sha256"].get(name):
            raise DiscFluxError(f"{run_dir / name}: contents do not match the manifest's sha256")
    flux = load_flux_csv(run_dir / "flux.csv")
    try:
        transform = load_transform_csv(run_dir / "transform.csv", manifest["transform"])
        times = _numbers(manifest["times"])
        tables = {}
        for var in _VARIABLES:
            path = run_dir / "snapshots" / f"{var}.csv"
            tables[var] = np.loadtxt(path, delimiter=",", ndmin=2)
            if tables[var].shape != (len(times) + 1, manifest["cells"]):
                raise DiscFluxError(f"{path}: expected {len(times) + 1} rows of {manifest['cells']} "
                                    f"values, found shape {tables[var].shape}")
        if not np.array_equal(tables["u"][0], tables["v"][0]):
            raise DiscFluxError(f"{run_dir}: the u and v snapshot tables disagree on the cell centres")
        field = SolutionField(
            x=tables["u"][0],
            times=times,
            v=tables["v"][1:],
            u=tables["u"][1:],
            mass=_numbers(manifest["mass"]),
            boundary_flux=_numbers(manifest["boundary_flux"]),
            dx=float(manifest["dx"]),
            eps=float(manifest["eps"]),
            dt=float(manifest["dt"]),
            flux=flux,
            transform=transform,
            stats=manifest.get("stats", {}),
        )
    except (TypeError, ValueError) as exc:
        raise DiscFluxError(f"{run_dir / 'manifest.json'}: {exc}") from exc
    return field, manifest
