import json

import numpy as np
import pytest

import discflux as dx
from discflux import runio
from discflux.errors import DiscFluxError

RUN_FILES = {"manifest.json", "flux.csv", "transform.csv", "snapshots/u.csv", "snapshots/v.csv"}


def _contents(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _small_run(flux, out_root, **cfg):
    cfg = dx.SolverConfig(**{"cells": 64, "t_end": 0.02, **cfg})
    field = dx.solve(flux, lambda x: np.where(np.asarray(x) <= 0.0, 0.25, 0.75), config=cfg)
    return field, cfg, dx.write_run(field, cfg, out_root)


def _resign(run_dir):
    """Recompute the manifest digests after a deliberate edit of a table."""
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["sha256"] = {name: runio._sha256(run_dir / name) for name in manifest["sha256"]}
    path.write_text(json.dumps(manifest))


def test_config_hash_is_stable_and_order_free():
    h1 = dx.config_hash({"a": 1, "b": [1, 2]})
    h2 = dx.config_hash({"b": [1, 2], "a": 1})
    assert h1 == h2
    assert len(h1) == 12
    assert h1 != dx.config_hash({"a": 1, "b": [1, 3]})


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
    # through JSON, as a sidecar or manifest stores it
    back = dx.load_transform_csv(path, json.loads(json.dumps(pair.meta())))
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
    run_dir = dx.write_run(field, cfg, tmp_path)
    assert set(_contents(run_dir)) == RUN_FILES

    back, manifest = dx.read_run(run_dir)
    for name in ("x", "times", "u", "v", "mass", "boundary_flux"):
        assert np.array_equal(getattr(back, name), getattr(field, name)), name
    assert (back.dx, back.eps, back.dt) == (field.dx, field.eps, field.dt)
    assert back.transform.kind == "connection"
    assert manifest["cells"] == 64
    assert sorted(manifest["sha256"]) == sorted(RUN_FILES - {"manifest.json"})
    # one table per variable: the cell centres, then one row per stored time
    table = np.loadtxt(run_dir / "snapshots" / "v.csv", delimiter=",")
    assert table.shape == (len(field.times) + 1, 64)
    assert np.array_equal(table[0], field.x)

    # entropy checks still work on the reloaded field
    rep = dx.entropy_residual_connection(back, conn)
    assert rep.ok


def test_run_hash_depends_on_inputs(tmp_path, burgers):
    cfg1 = dx.SolverConfig(cells=64, t_end=0.02, snapshots=3)
    cfg2 = dx.SolverConfig(cells=64, t_end=0.03, snapshots=3)
    u0 = lambda x: np.full(np.shape(x), 0.5)
    f1 = dx.solve(burgers, u0, config=cfg1)
    f2 = dx.solve(burgers, u0, config=cfg2)
    d1 = dx.write_run(f1, cfg1, tmp_path)
    d2 = dx.write_run(f2, cfg2, tmp_path)
    assert d1 != d2


def test_read_rejects_wrong_format(tmp_path):
    bad = tmp_path / "r"
    bad.mkdir()
    for version in (1, 99):
        (bad / "manifest.json").write_text(json.dumps({"format": version}))
        with pytest.raises(DiscFluxError, match=f"run format {version} .* format 2"):
            dx.read_run(bad)


def test_read_rejects_edited_table(tmp_path, burgers):
    # one digit changed, so the file still parses: only the digest catches it
    _, _, run_dir = _small_run(burgers, tmp_path)
    path = run_dir / "snapshots" / "v.csv"
    text = path.read_text()
    k = text.index("\n") + 3
    assert text[k].isdigit()
    path.write_text(text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:])
    np.loadtxt(path, delimiter=",")
    with pytest.raises(DiscFluxError, match="snapshots/v.csv"):
        dx.read_run(run_dir)


def test_read_checks_snapshot_table_shape_and_centres(tmp_path, burgers):
    _, _, run_dir = _small_run(burgers, tmp_path)
    u_path, v_path = run_dir / "snapshots" / "u.csv", run_dir / "snapshots" / "v.csv"
    u_text, v_text = u_path.read_text(), v_path.read_text()

    v_path.write_text(v_text[: v_text.rindex("\n", 0, -1) + 1])  # last stored time dropped
    _resign(run_dir)
    with pytest.raises(DiscFluxError, match="expected"):
        dx.read_run(run_dir)

    v_path.write_text(v_text)
    lines = u_text.splitlines(keepends=True)
    x = np.loadtxt(lines[:1], delimiter=",")
    x[0] = np.nextafter(x[0], 0.0)
    u_path.write_text(",".join(f"{c:.17g}" for c in x) + "\n" + "".join(lines[1:]))
    _resign(run_dir)
    with pytest.raises(DiscFluxError, match="cell centres"):
        dx.read_run(run_dir)


def test_read_checks_manifest_entries(tmp_path, burgers):
    # no digest covers the manifest itself, so read_run checks its entries
    _, _, run_dir = _small_run(burgers, tmp_path, snapshots=2)
    path = run_dir / "manifest.json"
    text = path.read_text()
    edits = {
        "missing dx": lambda m: m.pop("dx"),
        "need one mass": lambda m: m["mass"].pop(),
        "per stored time": lambda m: m["boundary_flux"].append([0.0, 0.0]),
        "could not convert": lambda m: m.update(eps="wide"),
    }
    for message, edit in edits.items():
        manifest = json.loads(text)
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(DiscFluxError, match=message):
            dx.read_run(run_dir)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(DiscFluxError, match="not a JSON object"):
        dx.read_run(run_dir)
    path.write_text(text)
    dx.read_run(run_dir)


def test_failed_write_leaves_no_run(tmp_path, burgers, monkeypatch):
    def broken(*args):
        raise RuntimeError("disk full")

    monkeypatch.setattr(runio, "save_transform_csv", broken)
    with pytest.raises(RuntimeError, match="disk full"):
        _small_run(burgers, tmp_path / "runs")
    assert list((tmp_path / "runs").iterdir()) == []


def test_rewrite_gives_identical_run(tmp_path, burgers):
    field, cfg, run_dir = _small_run(burgers, tmp_path, snapshots=33)
    before = _contents(run_dir)
    assert set(before) == RUN_FILES
    assert dx.write_run(field, cfg, tmp_path) == run_dir
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

    assert dx.write_run(field, cfg, tmp_path) == run_dir
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


def _step(left, right):
    return lambda x: np.where(np.asarray(x) <= 0.0, left, right)


@pytest.mark.parametrize(
    "case, expected",
    [
        ("connection", "6e07e6f5090e"),
        ("identity", "505f1587298b"),
        ("translation", "8bd04817d3c3"),
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
    run_dir = dx.write_run(dx.solve(flux, u0, pair, cfg), cfg, tmp_path)
    assert run_dir.name == expected
