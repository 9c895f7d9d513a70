import hashlib
import io
import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import discflux as dx
from discflux import runio
from discflux.errors import DiscFluxError
from discflux.fluxes import load_flux_csv, read_csv, write_csv

RUN_FILES = {"manifest.json", "flux.npy", "transform.npy", "snapshots/u.npy", "snapshots/v.npy"}


def _contents(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _small_run(flux, out_root, **cfg):
    cfg = dx.SolverConfig(**{"cells": 64, "t_end": 0.02, **cfg})
    field = dx.solve(flux, lambda x: np.where(np.asarray(x) <= 0.0, 0.25, 0.75), config=cfg)
    return field, cfg, dx.write_run(field, out_root)


def _resign(run_dir):
    """Recompute the manifest digests after a deliberate edit of a table."""
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["sha256"] = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                          for name in manifest["sha256"]}
    path.write_text(json.dumps(manifest))


def test_config_hash_is_stable_and_order_free():
    h1 = runio.config_hash({"a": 1, "b": [1, 2]})
    h2 = runio.config_hash({"b": [1, 2], "a": 1})
    assert h1 == h2
    assert len(h1) == 12
    assert h1 != runio.config_hash({"a": 1, "b": [1, 3]})


@pytest.mark.parametrize("case, flux_name, kind", [
    ("identity", "burgers", "identity"),
    ("translation", "demo_swapped", "translation"),
    ("connection", "burgers", "connection"),
], ids=["identity", "translation", "connection"])
def test_transform_csv_roundtrip(tmp_path, request, case, flux_name, kind):
    flux = request.getfixturevalue(flux_name)
    pair = {
        "identity": lambda: dx.identity_transform(flux),
        "translation": lambda: dx.build_translation_transform(flux),
        "connection": lambda: request.getfixturevalue("demo_connection")[1],
    }[case]()
    path = tmp_path / "t.csv"
    dx.save_transform_csv(path, pair)
    # the sidecar save_transform_csv wrote beside the table holds the pair's
    # meta through JSON, as a manifest stores it, and is what the load reads
    assert json.loads(path.with_suffix(".json").read_text()) == json.loads(json.dumps(pair.meta()))
    back = dx.load_transform_csv(path)
    # bit-exact on the stored lattice; the loaded tables hold the union of the
    # alpha and beta breakpoints, so off-lattice evaluation may differ by an
    # ulp where a segment gained an interior (collinear) node
    nodes = back.alpha.breakpoints
    assert np.max(np.abs(back.alpha.forward(nodes) - pair.alpha.forward(nodes))) == 0.0
    assert np.max(np.abs(back.beta.forward(nodes) - pair.beta.forward(nodes))) == 0.0
    probe = np.linspace(*pair.domain, 777)
    assert np.max(np.abs(back.alpha.forward(probe) - pair.alpha.forward(probe))) <= 1e-15
    assert np.max(np.abs(back.beta.forward(probe) - pair.beta.forward(probe))) <= 1e-15
    assert back.kind == pair.kind == kind
    assert back.c == pair.c
    assert back.shifts == pair.shifts
    assert back.connection == pair.connection
    # the composed fluxes, zero extension included, are the same functions;
    # a connection table gains beta's breakpoints in alpha, so compose_flux
    # places some nodes elsewhere and values move by an ulp or two there
    tol = 4 * np.finfo(float).eps if case == "connection" else 0.0
    for built, loaded in zip(dx.composed_fluxes(flux, pair), dx.composed_fluxes(flux, back)):
        assert np.max(np.abs(loaded(nodes) - built(nodes))) <= tol


def test_run_roundtrip_exact(tmp_path, burgers, demo_connection):
    conn, pair = demo_connection
    cfg = dx.SolverConfig(cells=64, t_end=0.05, snapshots=5)
    field = dx.solve(burgers, lambda x: dx.steady_connection_state(burgers, conn, x), pair, cfg)
    run_dir = dx.write_run(field, tmp_path)
    assert set(_contents(run_dir)) == RUN_FILES

    back, manifest = dx.read_run(run_dir)
    for name in ("x", "times", "u", "v", "mass", "boundary_flux"):
        assert np.array_equal(getattr(back, name), getattr(field, name)), name
    assert (back.dx, back.eps, back.dt) == (field.dx, field.eps, field.dt)
    for name in ("f", "g"):
        for arr in ("x", "y"):
            assert np.array_equal(getattr(back.flux.branch(name), arr), getattr(field.flux.branch(name), arr))
    for got, want in zip(back.transform.table(), field.transform.table()):
        assert np.array_equal(got, want)
    assert back.transform.kind == "connection"
    assert back.config == cfg
    # the config is the only record of the grid
    assert manifest["config"] == cfg.to_dict() and manifest["config"]["cells"] == 64
    assert not {"cells", "dx", "eps"} & set(manifest)
    assert "eps" not in manifest["config"]
    assert sorted(manifest["sha256"]) == sorted(RUN_FILES - {"manifest.json"})
    # one table per variable: one row per stored time, one column per cell
    table = np.load(run_dir / "snapshots" / "v.npy", allow_pickle=False)
    assert table.dtype == np.dtype("<f8")
    assert table.shape == (len(field.times), 64)
    assert np.array_equal(table, field.v)

    # entropy checks still work on the reloaded field
    rep = dx.entropy_residual_connection(back, conn)
    assert rep.ok


def test_run_hash_depends_on_inputs(tmp_path, burgers):
    cfg1 = dx.SolverConfig(cells=64, t_end=0.02, snapshots=3)
    cfg2 = dx.SolverConfig(cells=64, t_end=0.03, snapshots=3)
    u0 = lambda x: np.full(np.shape(x), 0.5)
    f1 = dx.solve(burgers, u0, config=cfg1)
    f2 = dx.solve(burgers, u0, config=cfg2)
    d1 = dx.write_run(f1, tmp_path)
    d2 = dx.write_run(f2, tmp_path)
    assert d1 != d2


def test_read_rejects_wrong_format(tmp_path):
    bad = tmp_path / "r"
    bad.mkdir()
    for version in (1, 2, 3, 4, 99):
        (bad / "manifest.json").write_text(json.dumps({"format": version}))
        with pytest.raises(DiscFluxError, match=f"run format {version} is not supported; .* format 5 only"):
            dx.read_run(bad)


def test_read_rejects_edited_table(tmp_path, burgers):
    # one byte of the data block changed, so the file still loads: only the digest catches it
    _, _, run_dir = _small_run(burgers, tmp_path)
    path = run_dir / "snapshots" / "v.npy"
    data = bytearray(path.read_bytes())
    data[-3] ^= 1
    path.write_bytes(bytes(data))
    assert np.load(path, allow_pickle=False).shape == np.load(run_dir / "snapshots" / "u.npy").shape
    with pytest.raises(DiscFluxError, match="snapshots/v.npy: contents do not match the manifest's sha256"):
        dx.read_run(run_dir)


def test_manifest_digests_are_those_of_the_files(tmp_path, demo_swapped):
    # write_run takes each digest from the bytes it wrote, not from a reread
    cfg = dx.SolverConfig(cells=64, t_end=0.02)
    field = dx.solve(demo_swapped, _step(0.3, 0.7), dx.build_translation_transform(demo_swapped), cfg)
    run_dir = dx.write_run(field, tmp_path)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["sha256"] == {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                                  for name in RUN_FILES - {"manifest.json"}}


def test_read_parses_the_bytes_it_checked(tmp_path, burgers, monkeypatch):
    # each table is read once, so a table rewritten right after its digest
    # check is not read again: what read_run parses is what it checked
    field, _, run_dir = _small_run(burgers, tmp_path)
    read_bytes = Path.read_bytes

    def read_then_spoil(path):
        data = read_bytes(path)
        if path.suffix == ".npy":
            path.write_bytes(data[:len(data) // 2])
        return data

    monkeypatch.setattr(Path, "read_bytes", read_then_spoil)
    back, _ = dx.read_run(run_dir)
    for name in ("x", "u", "v"):
        assert np.array_equal(getattr(back, name), getattr(field, name)), name
    assert np.array_equal(back.flux.g.y, field.flux.g.y)
    assert np.array_equal(back.transform.table()[0], field.transform.table()[0])


@pytest.mark.parametrize("var", ["u", "v"])
@pytest.mark.parametrize("spoil", [
    lambda t, x: t[:-1],                 # last stored time dropped
    lambda t, x: t[:, 1:],               # first cell dropped
    lambda t, x: np.vstack([x, t]),      # the cell-centre row of format 3
], ids=["short", "narrow", "centre-row"])
def test_read_checks_snapshot_table_shape(tmp_path, burgers, var, spoil):
    # re-signed, so the digest passes: the table must be len(times) x config.cells
    field, _, run_dir = _small_run(burgers, tmp_path)
    path = run_dir / "snapshots" / f"{var}.npy"
    np.save(path, spoil(np.load(path), field.x))
    _resign(run_dir)
    rows = len(field.times)
    with pytest.raises(DiscFluxError, match=re.escape(f"{path}: expected {rows} rows of 64 values, found shape")):
        dx.read_run(run_dir)


def _npy_bytes(table, **kwargs):
    buf = io.BytesIO()
    np.save(buf, table, **kwargs)
    return buf.getvalue()


def _nonvanishing(table):
    table = table.copy()
    table[0, 1] = 0.5
    return _npy_bytes(table)


@pytest.mark.parametrize("spoil, message", [
    (_nonvanishing, "branch f does not vanish"),
    (lambda t: _npy_bytes(t[:, :2]), "expected 3 columns"),
    (lambda t: _npy_bytes(t.astype(np.int64)), "<i8"),
    (lambda t: _npy_bytes(t[:, 1]), "1-D"),
    (lambda t: _npy_bytes(t.astype(object), allow_pickle=True), "allow_pickle"),
    (lambda t: _npy_bytes(t)[:40], "array header"),
    (lambda t: _npy_bytes(t) + b"\0", "1 bytes after the array"),
    (lambda t: b"u,f,g\n0,0,0\n1,0,0\n", "not a .npy file"),
], ids=["nonvanishing", "two-columns", "int", "one-d", "object", "truncated-header",
        "trailing-byte", "csv"])
def test_read_rejects_a_bad_flux_table_naming_its_file(tmp_path, burgers, spoil, message):
    # re-signed, so the digest passes and read_run must reject the table itself
    _, _, run_dir = _small_run(burgers, tmp_path)
    path = run_dir / "flux.npy"
    path.write_bytes(spoil(np.load(path)))
    _resign(run_dir)
    with pytest.raises(DiscFluxError, match=re.escape(str(path))) as err:
        dx.read_run(run_dir)
    assert message in str(err.value)


def test_read_checks_manifest_entries(tmp_path, burgers):
    # no digest covers the manifest itself, so read_run checks its entries
    _, _, run_dir = _small_run(burgers, tmp_path, snapshots=2)
    path = run_dir / "manifest.json"
    text = path.read_text()
    edits = {
        "missing config": lambda m: m.pop("config"),
        "missing hash": lambda m: m.pop("hash"),
        "do not hash to the run's hash": lambda m: m["config"].update(t_end=9.0),
        "config must be a JSON object": lambda m: m.update(config=[64]),
        "unexpected keyword argument 'dx'": lambda m: m["config"].update(dx=m["config"]["half_width"] / 32),
        "need at least 8 cells": lambda m: m["config"].update(cells=0),
        "need one mass": lambda m: m["mass"].pop(),
        "per stored time": lambda m: m["boundary_flux"].append([0.0, 0.0]),
        "could not convert": lambda m: m.update(dt="wide"),
    }
    for message, edit in edits.items():
        manifest = json.loads(text)
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(DiscFluxError, match=re.escape(f"{path}: ")) as err:
            dx.read_run(run_dir)
        assert message in str(err.value)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(DiscFluxError, match=re.escape(f"{path}: run manifest must be a JSON object, not list")):
        dx.read_run(run_dir)
    path.write_text(text)
    dx.read_run(run_dir)



def test_read_rejects_a_config_the_hash_does_not_cover(tmp_path, burgers):
    # a run solved at cfl_hyperbolic 0.5 whose manifest drops that key, so
    # the default 0.8 would fill it, and claims t_end 9.0: the config no
    # longer hashes with the tables to the run's hash
    _, _, run_dir = _small_run(burgers, tmp_path, cfl_hyperbolic=0.5)
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["config"]["cfl_hyperbolic"]
    manifest["config"]["t_end"] = 9.0
    path.write_text(json.dumps(manifest))
    with pytest.raises(DiscFluxError, match=re.escape(f"{path}: the config and tables do not hash to "
                                                      f"the run's hash {run_dir.name!r}")):
        dx.read_run(run_dir)


@pytest.mark.parametrize("data, message", [
    (b"{bad", "Expecting property name enclosed in double quotes"),
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff"),
], ids=["not-json", "not-utf8"])
def test_read_names_a_manifest_that_is_not_json(tmp_path, burgers, data, message):
    _, _, run_dir = _small_run(burgers, tmp_path)
    path = run_dir / "manifest.json"
    path.write_bytes(data)
    with pytest.raises(DiscFluxError, match=re.escape(f"{path}: {message}")):
        dx.read_run(run_dir)

def test_failed_write_leaves_no_run(tmp_path, burgers, monkeypatch):
    def broken(*args):
        raise RuntimeError("disk full")

    monkeypatch.setattr(runio, "_write_table", broken)
    with pytest.raises(RuntimeError, match="disk full"):
        _small_run(burgers, tmp_path / "runs")
    assert list((tmp_path / "runs").iterdir()) == []


def _strict_json(text):
    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=no_constant)


def test_infinite_dt_round_trips_through_strict_json(tmp_path):
    # a zero-length solve of a flux with no slope has an infinite step
    zero = dx.get_flux("zero")
    cfg = dx.SolverConfig(cells=64, t_end=0.0)
    field = dx.solve(zero, lambda x: np.where(np.asarray(x) <= 0.0, 0.25, 0.75), config=cfg)
    assert field.dt == np.inf and field.stats["speed_max"] == 0.0
    run_dir = dx.write_run(field, tmp_path)
    manifest = _strict_json((run_dir / "manifest.json").read_text())
    assert manifest["dt"] is None and manifest["stats"]["invert_margin"] is None
    back, _ = dx.read_run(run_dir)
    assert back.dt == np.inf
    for name in ("x", "times", "u", "v", "mass", "boundary_flux"):
        assert np.array_equal(getattr(back, name), getattr(field, name)), name
    # a finite step is stored as itself
    field, cfg, run_dir = _small_run(zero, tmp_path / "finite")
    assert _strict_json((run_dir / "manifest.json").read_text())["dt"] == field.dt
    assert dx.read_run(run_dir)[0].dt == field.dt


def test_manifest_of_an_older_run_with_infinity_still_loads(tmp_path):
    zero = dx.get_flux("zero")
    field, cfg, run_dir = _small_run(zero, tmp_path, t_end=0.0)
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["dt"] = float("inf")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    assert '"dt": Infinity' in path.read_text()
    assert dx.read_run(run_dir)[0].dt == np.inf


def test_non_finite_manifest_value_fails_before_the_run_appears(tmp_path, burgers):
    field, cfg, _ = _small_run(burgers, tmp_path / "first")
    bad = replace(field, stats={**field.stats, "c1": float("nan")})
    with pytest.raises(ValueError, match="JSON compliant"):
        dx.write_run(bad, tmp_path / "runs")
    assert list((tmp_path / "runs").iterdir()) == []


def test_rewrite_gives_identical_run(tmp_path, burgers):
    field, cfg, run_dir = _small_run(burgers, tmp_path, snapshots=33)
    before = _contents(run_dir)
    assert set(before) == RUN_FILES
    assert dx.write_run(field, tmp_path) == run_dir
    assert [p.name for p in tmp_path.iterdir()] == [run_dir.name]
    assert _contents(run_dir) == before


def test_write_replaces_stale_run_with_same_hash(tmp_path, burgers):
    field, cfg, run_dir = _small_run(burgers, tmp_path)
    fresh = _contents(run_dir)
    # a format-1 directory of the same inputs: per-snapshot files, initial.csv
    for name in fresh:
        (run_dir / name).unlink()
    (run_dir / "initial.csv").write_text("x,u,v\n")
    (run_dir / "snapshots" / "snap_000.csv").write_text("x,u,v\n")
    (run_dir / "manifest.json").write_text(json.dumps({"format": 1, "snapshots": ["snap_000.csv"]}))
    with pytest.raises(DiscFluxError):
        dx.read_run(run_dir)

    assert dx.write_run(field, tmp_path) == run_dir
    assert [p.name for p in tmp_path.iterdir()] == [run_dir.name]
    assert _contents(run_dir) == fresh
    dx.read_run(run_dir)


def test_csv_header_guard(tmp_path, burgers, demo_connection):
    _, pair = demo_connection
    path = tmp_path / "t.csv"
    dx.save_transform_csv(path, pair)
    text = path.read_text().replace("v,alpha,beta", "x,y,z", 1)
    path.write_text(text)
    with pytest.raises(DiscFluxError):
        dx.load_transform_csv(path)


def test_run_hash_reads_each_branch_on_its_own_lattice(tmp_path):
    # g on 17 nodes beside an f on 9: the hash reads the union table that
    # flux.npy holds, so the run writes, and a g with the same values on f's
    # nodes is another flux with another hash
    f = dx.SampledCurve(np.linspace(0.0, 1.0, 9), np.zeros(9))
    u = np.linspace(0.0, 1.0, 17)
    fine = dx.FluxPair(f, dx.SampledCurve(u, u * (1.0 - u)))
    cfg = dx.SolverConfig(cells=64, t_end=0.02)
    u0 = _step(0.25, 0.75)
    field = dx.solve(fine, u0, config=cfg)
    back, _ = dx.read_run(dx.write_run(field, tmp_path))
    for name in ("f", "g"):
        assert np.array_equal(back.flux.branch(name)(u), fine.branch(name)(u))
    nodes = np.linspace(0.0, 1.0, 9) ** 2
    on_own = dx.FluxPair(f, dx.SampledCurve(nodes, nodes * (1.0 - nodes)))
    on_f = dx.FluxPair(f, dx.SampledCurve(f.x, on_own.g.y))
    names = {dx.write_run(dx.solve(flux, u0, config=cfg), tmp_path / "runs").name for flux in (on_own, on_f)}
    assert len(names) == 2


def _extreme_table(rows, cols):
    rng = np.random.default_rng(rows * cols)
    table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-320, 300, size=(rows, cols))
    specials = [-0.0, 0.0, 5e-324, -2.5e-310, np.finfo(float).tiny, np.finfo(float).max, 1.0, -1.0 / 3.0]
    flat = table.reshape(-1)
    flat[:len(specials)] = specials[:flat.size]
    return table


# one value, one row, one column, a long table and wide rows
SHAPES = [(1, 1), (1, 5), (7, 1), (4097, 3), (34, 128), (3, 5000)]


@pytest.mark.parametrize("rows, cols", SHAPES)
@pytest.mark.parametrize("header", [None, "u,f,g"])
def test_write_csv_matches_savetxt(tmp_path, rows, cols, header):
    # the CSV bytes riemann --out and build-transform --out write: np.savetxt's
    # comma-separated %.17g rows, under the header line without a comment mark
    table = _extreme_table(rows, cols)
    path = tmp_path / "t.csv"
    write_csv(path, table, header=header)
    text = "".join(",".join("%.17g" % value for value in row) + "\n" for row in table.tolist())
    assert path.read_text() == ("" if header is None else header + "\n") + text


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_read_csv_reads_what_write_csv_wrote_bit_for_bit(tmp_path, rows, cols):
    table = _extreme_table(rows, cols)
    header = ",".join(f"c{k}" for k in range(cols))
    path = tmp_path / "t.csv"
    write_csv(path, table, header=header)
    back = read_csv(path, header)
    assert back.shape == table.shape
    assert back.tobytes() == table.tobytes()   # -0.0 and the subnormals too


# each loader's header and a table it accepts
CSV_LOADERS = {"flux": (load_flux_csv, "u,f,g", [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
               "transform": (dx.load_transform_csv, "v,alpha,beta", [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])}


@pytest.mark.parametrize("loader", sorted(CSV_LOADERS))
@pytest.mark.parametrize("body, message", [
    ("a,b,c\n0,0,0\n1,1,0\n", "expected header"),
    ("{header}\n0,0\n1,1\n", "expected 3 values per row, found [2]"),
    ("{header}\n0,0,0,0\n1,1,0,0\n", "expected 3 values per row, found [4]"),
    ("{header}\n0,0,0\n1,1\n", "expected 3 values per row, found [2, 3]"),
    ("{header}\n", "expected 3 values per row, found no rows"),
    ("{header}\n0,0,0\n1,x,0\n", "could not convert"),
], ids=["wrong-header", "two-columns", "four-columns", "ragged", "header-only", "not-a-number"])
def test_csv_loaders_reject_a_bad_table_naming_its_file(tmp_path, loader, body, message):
    load, header, _ = CSV_LOADERS[loader]
    path = tmp_path / "t.csv"
    path.write_text(body.format(header=header))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # np.loadtxt warns on a file with no rows
        with pytest.raises(DiscFluxError, match=re.escape(str(path))) as err:
            load(path)
    assert message in str(err.value)


@pytest.mark.parametrize("loader", sorted(CSV_LOADERS))
def test_csv_loaders_ignore_spaces_around_header_names(tmp_path, loader):
    load, header, table = CSV_LOADERS[loader]
    path = tmp_path / "t.csv"
    path.write_text(" " + header.replace(",", " , ") + " \n" + "".join(f"{u},{p},{q}\n" for u, p, q in table))
    assert np.array_equal(read_csv(path, header), table)
    load(path)


def _step(left, right):
    return lambda x: np.where(np.asarray(x) <= 0.0, left, right)


@pytest.mark.parametrize(
    "case, expected",
    [
        ("connection", "89b7712b1919"),
        ("identity", "e5630283695c"),
        ("translation", "5ae32e38975c"),
    ],
)
def test_run_hash_golden(tmp_path, burgers, demo_swapped, demo_connection, case, expected):
    # run-directory names are a fingerprint of the config and of the flux,
    # transform and u0 tables; a refactor must leave them unchanged
    if case == "connection":
        flux, u0, pair = burgers, _step(0.8, 0.3), demo_connection[1]
    elif case == "identity":
        flux, u0, pair = burgers, _step(0.25, 0.75), dx.identity_transform(burgers)
    else:
        flux, u0, pair = demo_swapped, _step(0.3, 0.7), dx.build_translation_transform(demo_swapped)
    cfg = dx.SolverConfig(cells=128, t_end=0.1, snapshots=5)
    run_dir = dx.write_run(dx.solve(flux, u0, pair, cfg), tmp_path)
    assert run_dir.name == expected
