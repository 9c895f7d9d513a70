import json

import numpy as np
import pytest

import discflux as dx
from discflux.errors import DiscFluxError


def test_config_hash_is_stable_and_order_free():
    h1 = dx.config_hash({"a": 1, "b": [1, 2]})
    h2 = dx.config_hash({"b": [1, 2], "a": 1})
    assert h1 == h2
    assert len(h1) == 12
    assert h1 != dx.config_hash({"a": 1, "b": [1, 3]})


def test_transform_csv_roundtrip(tmp_path, burgers, demo_connection):
    _, pair = demo_connection
    path = tmp_path / "t.csv"
    dx.save_transform_csv(path, pair)
    back = dx.load_transform_csv(path, pair.meta())
    # bit-exact on the stored lattice; the loaded tables hold the union of the
    # alpha and beta breakpoints, so off-lattice evaluation may differ by an
    # ulp where a segment gained an interior (collinear) node
    nodes = back.alpha.breakpoints
    assert np.max(np.abs(back.alpha.forward(nodes) - pair.alpha.forward(nodes))) == 0.0
    assert np.max(np.abs(back.beta.forward(nodes) - pair.beta.forward(nodes))) == 0.0
    probe = np.linspace(0, 1, 777)
    assert np.max(np.abs(back.alpha.forward(probe) - pair.alpha.forward(probe))) <= 1e-15
    assert np.max(np.abs(back.beta.forward(probe) - pair.beta.forward(probe))) <= 1e-15
    assert back.kind == "connection"
    assert back.c == pair.c
    assert back.connection == pair.connection


def test_run_roundtrip_exact(tmp_path, burgers, demo_connection):
    conn, pair = demo_connection
    cfg = dx.SolverConfig(cells=64, t_end=0.05, snapshots=5)
    field = dx.solve(burgers, lambda x: dx.steady_connection_state(burgers, conn, x), pair, cfg)
    run_dir = dx.write_run(field, cfg, tmp_path)
    assert (run_dir / "manifest.json").exists()
    assert (run_dir / "flux.csv").exists()
    assert (run_dir / "transform.csv").exists()
    assert (run_dir / "initial.csv").exists()

    back, manifest = dx.read_run(run_dir)
    assert np.array_equal(back.u, field.u)
    assert np.array_equal(back.v, field.v)
    assert np.array_equal(back.times, field.times)
    assert np.array_equal(back.mass, field.mass)
    assert back.transform.kind == "connection"
    assert manifest["cells"] == 64
    assert len(manifest["snapshots"]) == len(field.times)

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
    (bad / "manifest.json").write_text(json.dumps({"format": 99}))
    with pytest.raises(DiscFluxError):
        dx.read_run(bad)


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
        ("connection", "dcb021ec647c"),
        ("identity", "d288ce9e099d"),
        ("translation", "4612c485e80b"),
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
