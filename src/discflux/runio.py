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
crash leaves no partial ``<hash>/``.  The digests are of the bytes written;
``read_run`` reads each table once and checks those bytes before parsing them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .curves import MonotoneBijection
from .errors import DiscFluxError
from .fluxes import _flux_table, load_flux_csv, save_flux_csv, write_csv
from .solver import SolutionField, SolverConfig
from .transforms import Connection, TransformPair

FORMAT_VERSION = 2
_VARIABLES = ("u", "v")
_TABLES = ("flux.csv", "transform.csv", *(f"snapshots/{var}.csv" for var in _VARIABLES))
_MANIFEST_KEYS = ("cells", "dx", "eps", "dt", "times", "mass", "boundary_flux")


def config_hash(payload: dict) -> str:
    """Short stable hash of a JSON-serialisable payload (sorted keys)."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _read_csv(path, header: str) -> np.ndarray:
    with path if hasattr(path, "read") else open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise DiscFluxError(f"{path}: expected header {header!r}, found {first!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def save_transform_csv(path: Path, t: TransformPair) -> str:
    return write_csv(path, np.column_stack(t.table()), header="v,alpha,beta")


def load_transform_csv(path: Path, meta: dict | None = None) -> TransformPair:
    """Reload a transform table with the ``shifts`` and ``connection`` of its ``TransformPair.meta()``.

    ``path`` may also be an open text stream, read on from where it stands and closed.
    Other keys, ``kind`` and ``c`` among them, are ignored: the pair derives them.
    Raises ValueError when ``meta`` is not an object or either entry is malformed.
    """
    data = _read_csv(path, "v,alpha,beta")
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
    t_tab = np.column_stack(field.transform.table())
    payload = {
        "config": config.to_dict(),
        # the table flux.csv holds, so branches on different lattices hash too
        "flux_sha": hashlib.sha256(_flux_table(field.flux).tobytes()).hexdigest()[:12],
        "transform_sha": hashlib.sha256(t_tab.tobytes()).hexdigest()[:12],
        "u0_sha": hashlib.sha256(np.ascontiguousarray(field.u[0]).tobytes()).hexdigest()[:12],
    }
    return config_hash(payload)


def write_run(field: SolutionField, config: SolverConfig, out_root) -> Path:
    """Persist a run as <out_root>/<hash>/ and return the directory.

    The directory appears whole or not at all; an existing run with the same
    hash is replaced.  The manifest is strict JSON: an infinite dt is written
    as null, and any other non-finite value raises ValueError before the run
    appears.
    """
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    run_dir = out_root / run_hash(field, config)
    tmp = Path(tempfile.mkdtemp(prefix=f".{run_dir.name}-", dir=out_root))
    try:
        (tmp / "snapshots").mkdir()
        # mkdtemp makes the directory owner-only; publish it with the umask's mode like its subdirectory
        shutil.copymode(tmp / "snapshots", tmp)
        sha = {"flux.csv": save_flux_csv(field.flux, tmp / "flux.csv"),
               "transform.csv": save_transform_csv(tmp / "transform.csv", field.transform)}
        for var, name in zip(_VARIABLES, _TABLES[2:]):
            sha[name] = write_csv(tmp / name, np.vstack([field.x, getattr(field, var)]))
        manifest = {
            "format": FORMAT_VERSION,
            "hash": run_dir.name,
            "config": config.to_dict(),
            "cells": len(field.x),
            "dx": field.dx,
            "eps": field.eps,
            # JSON has no inf: a zero-length solve of a flux with no slope
            # has an infinite step, stored as null
            "dt": field.dt if math.isfinite(field.dt) else None,
            "times": [float(t) for t in field.times],
            "mass": [float(m) for m in field.mass],
            "boundary_flux": [[float(l), float(r)] for l, r in field.boundary_flux],
            "sha256": sha,
            "transform": field.transform.meta(),
            "stats": field.stats,
        }
        # any other non-finite value fails here, before the run is published
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False))
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

    A ``null`` dt reads as inf, and so does the ``Infinity`` that older
    runs wrote for it.

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
    text = {}   # each table is read once: the bytes parsed are the bytes checked
    for name in _TABLES:
        data = (run_dir / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != manifest["sha256"].get(name):
            raise DiscFluxError(f"{run_dir / name}: contents do not match the manifest's sha256")
        text[name] = io.TextIOWrapper(io.BytesIO(data))
    flux = load_flux_csv(text["flux.csv"])
    try:
        transform = load_transform_csv(text["transform.csv"], manifest["transform"])
        times = _numbers(manifest["times"])
        tables = {}
        for var in _VARIABLES:
            path = run_dir / "snapshots" / f"{var}.csv"
            tables[var] = np.loadtxt(text[f"snapshots/{var}.csv"], delimiter=",", ndmin=2)
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
            dt=math.inf if manifest["dt"] is None else float(manifest["dt"]),
            flux=flux,
            transform=transform,
            stats=manifest.get("stats", {}),
        )
    except (TypeError, ValueError) as exc:
        raise DiscFluxError(f"{run_dir / 'manifest.json'}: {exc}") from exc
    return field, manifest
