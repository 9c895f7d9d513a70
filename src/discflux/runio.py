"""On-disk layout for solver runs (format 6).

A run directory is named by a short hash of the config and of the flux,
transform and initial tables, and holds three tables plus one manifest:

    <out>/<hash>/manifest.json        run metadata, config (the only grid record), stored times, sha256 per table
    <out>/<hash>/flux.npy             sampled flux pair, columns u, f, g
    <out>/<hash>/transform.npy        sampled transforms, columns v, alpha, beta
    <out>/<hash>/snapshots/u.npy      the conserved densities: one row per stored time, one column per cell

Each table is a 2-D little-endian float64 array in numpy's ``.npy`` format,
so a run reloads bit for bit.  The densities are the run's only state: the
reloaded field derives v and the mass from them and the pair, as the solved
field does, and their first row is the initial data a replay starts from.
A transform pair holds both maps on one lattice, the one its table stores,
so the reloaded pair is the built one, composed fluxes included, and solves
to the same field.  ``read_run`` rejects a table whose bytes miss the
manifest's sha256, and a manifest whose config, with the tables, does not
give the run's hash back.  CSV is for
interchange only: a transform is its ``v,alpha,beta`` lattice table, reloaded
as the same pair too, with its metadata in a ``.json`` sidecar of the same name.
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

from .errors import DiscFluxError
from .fluxes import FluxPair, _flux_table, read_csv, read_text, write_csv
from .solver import SolutionField, SolverConfig
from .transforms import Connection, TransformPair, _side_map

FORMAT_VERSION = 6
_TABLES = ("flux.npy", "transform.npy", "snapshots/u.npy")
# column count of each table, where it does not depend on the run
_COLUMNS = {"flux.npy": 3, "transform.npy": 3}
_MANIFEST_KEYS = ("hash", "config", "dt", "times", "boundary_flux")
_DTYPE = np.dtype("<f8")
_NPY_MAGIC = b"\x93NUMPY"


def config_hash(payload: dict) -> str:
    """Short stable hash of a JSON-serialisable payload (sorted keys)."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _write_table(path: Path, table: np.ndarray) -> str:
    """Write a 2-D table as a little-endian float64 ``.npy`` file; returns the sha256 of its bytes."""
    buf = io.BytesIO()
    np.save(buf, np.asarray(table, dtype=_DTYPE), allow_pickle=False)
    data = buf.getvalue()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _load_table(path: Path, data: bytes, columns: int | None = None) -> np.ndarray:
    """The table in the ``.npy`` bytes ``data`` of ``path``, as ``_write_table`` writes it.

    Raises ``DiscFluxError`` naming ``path`` for bytes that are not one
    ``.npy`` array, or hold pickled data, another dtype than little-endian
    float64, another rank than 2 or another column count than ``columns``.
    """
    if not data.startswith(_NPY_MAGIC):
        raise DiscFluxError(f"{path}: not a .npy file")
    buf = io.BytesIO(data)
    try:
        table = np.load(buf, allow_pickle=False)
    except ValueError as exc:
        raise DiscFluxError(f"{path}: {exc}") from exc
    if buf.tell() != len(data):
        raise DiscFluxError(f"{path}: {len(data) - buf.tell()} bytes after the array")
    if table.dtype != _DTYPE or table.ndim != 2:
        raise DiscFluxError(f"{path}: expected a 2-D {_DTYPE.str} table, "
                            f"found a {table.ndim}-D {table.dtype.str} array")
    if columns is not None and table.shape[1] != columns:
        raise DiscFluxError(f"{path}: expected {columns} columns, found {table.shape[1]}")
    return table


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file ``path``, the config, sidecar or manifest that ``what`` names.

    Raises ``DiscFluxError`` starting with ``path`` for a file ``read_text``
    rejects, that is not JSON or that holds no object.
    """
    try:
        data = json.loads(read_text(path))
    except ValueError as exc:
        raise DiscFluxError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DiscFluxError(f"{path}: {what} must be a JSON object, not {type(data).__name__}")
    return data


def _sidecar(path) -> Path:
    """The ``.json`` metadata file beside the transform table ``path``.

    Raises ``DiscFluxError`` for a ``path`` ending in ``.json``: the sidecar
    would be the table itself.
    """
    sidecar = Path(path).with_suffix(".json")
    if sidecar == Path(path):
        raise DiscFluxError(f"{path}: a transform table cannot end in .json, "
                            "the name of its metadata sidecar")
    return sidecar


def save_transform_csv(path, t: TransformPair) -> None:
    """Write the pair's table to ``path`` and its ``meta()`` to the ``.json`` sidecar beside it.

    Raises ``DiscFluxError``, writing nothing, for a ``path`` ending in ``.json``.
    """
    sidecar = _sidecar(path)
    write_csv(path, np.column_stack(t.table()), header="v,alpha,beta")
    sidecar.write_text(json.dumps(t.meta(), indent=2))


def _transform_pair(table: np.ndarray, meta: dict, table_path, meta_path) -> TransformPair:
    """The pair in a ``v, alpha, beta`` table, with the ``shifts`` and ``connection`` of the object ``meta``.

    Raises ``DiscFluxError`` starting with ``table_path`` for a table that
    holds no pair, and with ``meta_path``, the file ``meta`` was read from,
    for a malformed entry.
    """
    try:
        alpha = _side_map("alpha", table[:, 0], table[:, 1])
        beta = _side_map("beta", table[:, 0], table[:, 2])
    except ValueError as exc:
        raise DiscFluxError(f"{table_path}: {exc}") from exc
    conn = meta.get("connection")
    try:
        if conn is not None:
            conn = Connection(float(conn["A"]), float(conn["B"]))
        return TransformPair(alpha, beta, shifts=meta.get("shifts"), connection=conn)
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        raise DiscFluxError(f"{meta_path}: malformed transform metadata: {exc!r}") from exc


def load_transform_csv(path) -> TransformPair:
    """Reload a transform CSV table with the ``shifts`` and ``connection`` of its sidecar, if any.

    Other keys are ignored: ``kind`` and ``c``, which the pair derives, and
    the ``flavor`` older files store with a connection.  Raises
    ``DiscFluxError`` naming the file for a ``path`` ending in ``.json``, a
    sidecar ``read_json_object`` rejects or whose entries are malformed, and
    a table ``read_csv`` rejects or that holds no pair.
    """
    sidecar = _sidecar(path)
    meta = read_json_object(sidecar, "transform metadata") if sidecar.exists() else {}
    return _transform_pair(read_csv(path, "v,alpha,beta"), meta, path, sidecar)


def _numbers(value) -> np.ndarray:
    """A manifest list of numbers as floats; strings, booleans and nulls fail."""
    arr = np.array(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"expected numbers, found {value!r:.60}")
    return arr.astype(float)


def _hash_of(config: SolverConfig, tables: dict[str, np.ndarray], u0: np.ndarray) -> str:
    def sha(arr):
        return hashlib.sha256(arr.tobytes()).hexdigest()[:12]

    payload = {
        "config": config.to_dict(),
        # the table flux.npy holds, so branches on different lattices hash too
        "flux_sha": sha(tables["flux.npy"]),
        "transform_sha": sha(tables["transform.npy"]),
        "u0_sha": sha(u0),
    }
    return config_hash(payload)


def write_run(field: SolutionField, out_root) -> Path:
    """Persist a run as <out_root>/<hash>/ and return the directory.

    The directory appears whole or not at all; an existing run with the same
    hash is replaced.  The manifest is strict JSON: an infinite dt is written
    as null, and any other non-finite value raises ValueError before the run
    appears.
    """
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    # built once: the hash and the files read the same arrays
    tables = {"flux.npy": _flux_table(field.flux), "transform.npy": np.column_stack(field.transform.table())}
    run_dir = out_root / _hash_of(field.config, tables, field.u[0])
    tables["snapshots/u.npy"] = field.u
    tmp = Path(tempfile.mkdtemp(prefix=f".{run_dir.name}-", dir=out_root))
    try:
        (tmp / "snapshots").mkdir()
        # mkdtemp makes the directory owner-only; publish it with the umask's mode like its subdirectory
        shutil.copymode(tmp / "snapshots", tmp)
        sha = {name: _write_table(tmp / name, table) for name, table in tables.items()}
        manifest = {
            "format": FORMAT_VERSION,
            "hash": run_dir.name,
            "config": field.config.to_dict(),
            # JSON has no inf: a zero-length solve of a flux with no slope
            # has an infinite step, stored as null
            "dt": field.dt if math.isfinite(field.dt) else None,
            "times": [float(t) for t in field.times],
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

    Raises ``DiscFluxError`` for a manifest ``read_json_object`` rejects
    (naming it), a run of another format, a table whose bytes do not match the manifest's
    digest, a table that is not what ``_write_table`` writes or holds no flux
    or transform pair, a density table that is not one row per stored time
    by one column per cell (each naming its file), or a manifest whose own
    entries (which no digest covers) are missing, of the wrong type, not a
    valid ``SolverConfig`` or do not fit the tables, or whose config, with
    the flux, transform and initial tables, does not hash to its ``hash``.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    manifest = read_json_object(manifest_path, "run manifest")
    if manifest.get("format") != FORMAT_VERSION:
        raise DiscFluxError(f"run format {manifest.get('format')!r} is not supported; "
                            f"this version reads format {FORMAT_VERSION} only")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise DiscFluxError(f"{manifest_path}: missing {', '.join(missing)}")
    for key in ("config", "sha256", "transform"):
        if not isinstance(manifest.get(key), dict):
            raise DiscFluxError(f"{manifest_path}: {key} must be a JSON object")
    tables = {}   # each table is read once: the bytes parsed are the bytes checked
    for name in _TABLES:
        path = run_dir / name
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != manifest["sha256"].get(name):
            raise DiscFluxError(f"{path}: contents do not match the manifest's sha256")
        tables[name] = _load_table(path, data, _COLUMNS.get(name))
    try:
        flux = FluxPair.from_arrays(*tables["flux.npy"].T)
    except ValueError as exc:
        raise DiscFluxError(f"{run_dir / 'flux.npy'}: {exc}") from exc
    transform = _transform_pair(tables["transform.npy"], manifest["transform"], run_dir / "transform.npy",
                                manifest_path)
    try:
        config = SolverConfig(**manifest["config"])
        times = _numbers(manifest["times"])
        u = tables["snapshots/u.npy"]
        if u.shape != (len(times), config.cells):
            raise DiscFluxError(f"{run_dir / 'snapshots/u.npy'}: expected {len(times)} rows of {config.cells} "
                                f"values, found shape {u.shape}")
        # the first row's bytes, or none for a table without rows, whose hash then differs
        if _hash_of(config, tables, u[:1]) != manifest["hash"]:
            raise DiscFluxError(f"{manifest_path}: the config and tables do not hash to "
                                f"the run's hash {manifest['hash']!r}")
        field = SolutionField(
            config=config,
            times=times,
            u=u,
            boundary_flux=_numbers(manifest["boundary_flux"]),
            dt=math.inf if manifest["dt"] is None else float(manifest["dt"]),
            flux=flux,
            transform=transform,
            stats=manifest.get("stats", {}),
        )
    except (TypeError, ValueError) as exc:
        raise DiscFluxError(f"{manifest_path}: {exc}") from exc
    return field, manifest
