"""On-disk layout for solver runs.

A run directory is named by a short content hash and holds plain CSV plus one
manifest:

    <out>/<hash>/manifest.json        run metadata, config, snapshot times
    <out>/<hash>/flux.csv             sampled flux pair, columns u,f,g
    <out>/<hash>/transform.csv        sampled transforms, columns v,alpha,beta
    <out>/<hash>/initial.csv          first snapshot, columns x,u,v
    <out>/<hash>/snapshots/snap_NNN.csv

All floats are written with %.17g so reloading reproduces the arrays bit for
bit; reloading a transform is exact because the tables are piecewise linear
with their breakpoints included in the written grid.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .curves import MonotoneBijection
from .errors import DiscFluxError
from .fluxes import load_flux_csv, save_flux_csv
from .solver import SolutionField, SolverConfig
from .transforms import Connection, TransformPair

FORMAT_VERSION = 1
_FMT = "%.17g"


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
    data = _read_csv(Path(path), "v,alpha,beta")
    meta = meta or {}
    conn = meta.get("connection")
    return TransformPair(
        MonotoneBijection(data[:, 0], data[:, 1]),
        MonotoneBijection(data[:, 0], data[:, 2]),
        c=meta.get("c"),
        kind=meta.get("kind", "custom"),
        clip=bool(meta.get("clip", False)),
        shifts=tuple(meta["shifts"]) if meta.get("shifts") else None,
        connection=Connection(conn["A"], conn["B"], conn.get("flavor", "classic")) if conn else None,
    )


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


def write_run(field: SolutionField, config: SolverConfig, out_root) -> Path:
    """Persist a run under <out_root>/<hash>/ and return the directory."""
    run_dir = Path(out_root) / run_hash(field, config)
    snap_dir = run_dir / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)

    save_flux_csv(field.flux, run_dir / "flux.csv")
    save_transform_csv(run_dir / "transform.csv", field.transform)
    _write_csv(run_dir / "initial.csv", "x,u,v", (field.x, field.u[0], field.v[0]))
    names = []
    for k in range(len(field.times)):
        name = f"snap_{k:03d}.csv"
        _write_csv(snap_dir / name, "x,u,v", (field.x, field.u[k], field.v[k]))
        names.append(name)

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
        "snapshots": names,
        "transform": field.transform.meta(),
        "stats": field.stats,
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return run_dir


def read_run(run_dir) -> tuple[SolutionField, dict]:
    """Reload a persisted run; arrays round-trip exactly."""
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    if manifest.get("format") != FORMAT_VERSION:
        raise DiscFluxError(f"unsupported run format {manifest.get('format')!r}")
    flux = load_flux_csv(run_dir / "flux.csv")
    transform = load_transform_csv(run_dir / "transform.csv", manifest.get("transform"))
    xs, us, vs = [], [], []
    for name in manifest["snapshots"]:
        data = _read_csv(run_dir / "snapshots" / name, "x,u,v")
        xs.append(data[:, 0])
        us.append(data[:, 1])
        vs.append(data[:, 2])
    field = SolutionField(
        x=xs[0],
        times=np.array(manifest["times"]),
        v=np.array(vs),
        u=np.array(us),
        mass=np.array(manifest["mass"]),
        boundary_flux=np.array(manifest["boundary_flux"]),
        dx=float(manifest["dx"]),
        eps=float(manifest["eps"]),
        dt=float(manifest["dt"]),
        flux=flux,
        transform=transform,
        stats=manifest.get("stats", {}),
    )
    return field, manifest
