import gc
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import discflux as dx
from discflux.cli import main
from discflux.fluxes import read_csv, write_csv


def run_cli(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


def test_check_crossing_exit_codes():
    ok = run_cli("check-crossing", "--flux", "demo-cross")
    assert ok.exit_code == 0
    payload = json.loads(ok.output)
    assert payload["holds"] is True

    bad = run_cli("check-crossing", "--flux", "demo-swapped")
    assert bad.exit_code == 1
    payload = json.loads(bad.output)
    assert payload["holds"] is False
    assert payload["witness"] == [0.75, 0.25]


@pytest.mark.parametrize("args", [
    ("--flux", "demo-swapped", "--transform", "translation"),
    ("--flux", "burgers-like", "--transform", "connection", "--connection", "0.75:0.25"),
], ids=["translation", "connection"])
def test_check_crossing_prints_the_report_of_the_composed_fluxes(args):
    res = run_cli("check-crossing", *args)
    assert res.exit_code == 0
    flux = dx.get_flux(args[1])
    pair = (dx.build_translation_transform(flux) if args[3] == "translation"
            else dx.build_connection_transform(flux, dx.Connection(0.75, 0.25)))
    assert res.output == dx.check_crossing(*dx.composed_fluxes(flux, pair)).to_json() + "\n"


def test_check_crossing_on_a_pair_that_does_not_compose_is_usage_error(tmp_path):
    # beta maps [0, 0.3] below 0, where g is not defined
    path = tmp_path / "t.csv"
    path.write_text("v,alpha,beta\n0,0,-0.3\n0.5,0.5,0.2\n1,1,1\n")
    res = run_cli("check-crossing", "--flux", "demo-cross", "--transform", str(path))
    assert res.exit_code == 2, res.output
    assert "composition failed: transform range [-0.3, 1] escapes flux domain [0, 1]" in res.output


def test_in_process_invocations_keep_no_output_stream():
    # click's cached default stdout would keep each CliRunner invocation's
    # stream, and the output captured in it, alive for the life of the process
    def streams():
        gc.collect()
        return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())

    run_cli("check-crossing", "--flux", "demo-cross")
    before = streams()
    for _ in range(3):
        assert run_cli("check-crossing", "--flux", "demo-cross").exit_code == 0
    assert streams() == before


def test_unknown_flux_is_usage_error():
    res = run_cli("check-crossing", "--flux", "no-such-pair")
    assert res.exit_code == 2


def test_solve_writes_run_and_verify_passes(tmp_path):
    res = run_cli(
        "solve", "--flux", "burgers-like",
        "--transform", "connection", "--connection", "0.75:0.25",
        "--u0", "steady", "--cells", "64", "--t-end", "0.05",
        "--out", str(tmp_path),
    )
    assert res.exit_code == 0, res.output
    run_dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    assert (run_dirs[0] / "manifest.json").exists()
    assert "flux mismatch=0.000e+00" in res.output

    ver = run_cli("verify", "--run", str(run_dirs[0]))
    assert ver.exit_code == 0, ver.output
    assert "FAIL" not in ver.output
    assert "PASS mass balance" in ver.output
    # five pair residuals and the adapted one, each naming its worst hat
    residuals = [line for line in ver.output.splitlines() if " residual" in line]
    assert len(residuals) == 6
    assert all(re.search(r"; hat \d+: t=\S+ r=\S+, x=\S+ r=\S+\)$", line) for line in residuals)


def test_verify_fails_on_tampered_mass(tmp_path):
    res = run_cli("solve", "--flux", "burgers-like", "--u0", "riemann:0.25:0.75",
                  "--cells", "64", "--t-end", "0.05", "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["mass"][-1] += 1e-6
    manifest_path.write_text(json.dumps(manifest))

    ver = run_cli("verify", "--run", str(run_dir))
    assert ver.exit_code == 1, ver.output
    assert "FAIL mass balance" in ver.output


def test_verify_rejects_edited_snapshot_table(tmp_path):
    res = run_cli("solve", "--flux", "burgers-like", "--u0", "riemann:0.25:0.75",
                  "--cells", "64", "--t-end", "0.05", "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    path = next(p for p in tmp_path.iterdir() if p.is_dir()) / "snapshots" / "v.npy"
    data = bytearray(path.read_bytes())
    data[-1] ^= 1   # in the last value, so the file still loads
    path.write_bytes(bytes(data))

    # catch_exceptions=False: a traceback would fail the test here
    ver = run_cli("verify", "--run", str(path.parent.parent))
    assert ver.exit_code == 1, ver.output
    assert "FAIL run integrity" in ver.output
    assert "snapshots/v.npy" in ver.output
    assert "sha256" in ver.output


@pytest.mark.parametrize("left, right, code", [
    (0.75, 0.25, 1),   # inadmissible for the concave flux
    (0.35, 0.65, 0),   # admissible
], ids=["0.75|0.25", "0.35|0.65"])
def test_verify_judges_a_frozen_standing_jump(tmp_path, burgers, left, right, code):
    # negative control: a stored run that holds a standing jump passes the
    # audit, the ranges and the mass balance, so only the entropy residuals
    # decide; the inadmissible jump must fail them and the admissible one pass
    cfg = dx.SolverConfig(cells=256, t_end=0.5, snapshots=33)
    times = np.linspace(0.0, cfg.t_end, cfg.snapshots)
    u = np.tile(np.where(cfg.centers() <= 0.0, left, right), (len(times), 1))
    field = dx.SolutionField(
        config=cfg, times=times, v=u, u=u, mass=u.sum(axis=1) * cfg.dx,
        boundary_flux=np.zeros((len(times), 2)), dt=float(times[1]),
        flux=burgers, transform=dx.identity_transform(burgers),
    )
    ver = run_cli("verify", "--run", str(dx.write_run(field, tmp_path)))
    assert ver.exit_code == code, ver.output
    assert "PASS mass balance" in ver.output
    failures = [line for line in ver.output.splitlines() if line.startswith("FAIL entropy residual")]
    assert bool(failures) == bool(code)


def test_verify_missing_run_is_a_usage_error(tmp_path):
    ver = run_cli("verify", "--run", str(tmp_path / "no-such-run"))
    assert ver.exit_code == 2, ver.output
    assert "FAIL" not in ver.output



@pytest.mark.parametrize("tolerance", ["inf", "nan", "-1"])
def test_verify_rejects_a_tolerance_that_switches_the_gate_off(tmp_path, tolerance):
    # inf used to pass every residual, NaN and -1 to fail every one on hat 0
    res = run_cli("solve", "--flux", "burgers-like", "--u0", "riemann:0.25:0.75",
                  "--cells", "64", "--t-end", "0.05", "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
    ver = run_cli("verify", "--run", str(run_dir), "--tolerance", tolerance)
    assert ver.exit_code == 2, ver.output
    assert "Invalid value for '--tolerance': must be a finite number >= 0" in ver.output
    assert "PASS" not in ver.output and "FAIL" not in ver.output
    ver = run_cli("verify", "--run", str(run_dir), "--tolerance", "0.5")
    assert ver.exit_code == 0, ver.output
    assert ver.output.count("tol 5.000e-01;") == 5


def test_verify_reports_uncomputable_residual_as_failure(tmp_path):
    # translation plus mollification moves this constant state out of [0, 1],
    # so the branch fluxes cannot be evaluated on the stored field
    flux = dx.get_flux("demo-swapped")
    cfg = dx.SolverConfig(cells=64, t_end=0.05)
    field = dx.solve(flux, lambda x: np.zeros(np.shape(x)), dx.build_translation_transform(flux), cfg)
    run_dir = dx.write_run(field, tmp_path)

    ver = run_cli("verify", "--run", str(run_dir))
    assert ver.exit_code == 1, ver.output
    assert "FAIL ranges" in ver.output
    assert "FAIL entropy residual at xi=" in ver.output
    assert "evaluation point outside [0, 1]" in ver.output
    assert "PASS entropy residual" not in ver.output


@pytest.mark.parametrize("solve_args, residuals", [
    (("--flux", "zero", "--t-end", "0"), 0),
    (("--flux", "burgers-like", "--t-end", "0"), 0),
    (("--flux", "burgers-like", "--transform", "connection", "--connection", "0.75:0.25",
      "--u0", "riemann:0.8:0.4", "--t-end", "0"), 0),
    (("--flux", "burgers-like", "--transform", "connection", "--connection", "0.75:0.25",
      "--u0", "riemann:0.8:0.4", "--t-end", "0.05"), 6),
], ids=["zero-flux-no-time", "burgers-like-no-time", "connection-no-time", "connection"])
def test_verify_skips_the_residuals_of_a_run_that_spans_no_time(tmp_path, solve_args, residuals):
    # a run of no steps stores one time, so there is no time window to place
    # the residuals' hats in: verify says it skips them and passes on the
    # other checks.  A run that spans time runs all five pair residuals and
    # the adapted one.
    res = run_cli("solve", *solve_args, "--cells", "64", "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())

    # catch_exceptions=False: a traceback would fail the test here
    ver = run_cli("verify", "--run", str(run_dir))
    assert ver.exit_code == 0, ver.output
    assert "FAIL" not in ver.output
    lines = ver.output.splitlines()
    assert [line.split(" (")[0] for line in lines[:3]] == ["PASS transform audit", "PASS ranges",
                                                          "PASS mass balance"]
    assert len([line for line in lines if re.match(r"PASS .* residual", line)]) == residuals
    skips = [line for line in lines if line.startswith("SKIP")]
    assert skips == (["SKIP entropy residuals: the run spans no time"] if residuals == 0 else [])
    assert len(lines) == 3 + max(residuals, 1)


@pytest.mark.parametrize("option, value, name", [
    ("--t-end", "inf", "t_end"),
    ("--half-width", "nan", "half_width"),
])
def test_solve_rejects_non_finite_option(tmp_path, option, value, name):
    res = run_cli("solve", "--cells", "64", option, value, "--out", str(tmp_path))
    assert res.exit_code == 2, res.output
    assert f"{name} must be a finite number" in res.output
    assert not any(tmp_path.iterdir())


def test_solve_has_no_eps_option(tmp_path):
    # the scheme's own dissipation is the vanishing viscosity: there is no eps to set
    res = run_cli("solve", "--cells", "64", "--eps", "0.1", "--out", str(tmp_path))
    assert res.exit_code == 2, res.output
    assert "No such option '--eps'" in res.output
    assert not any(tmp_path.iterdir())



@pytest.mark.parametrize("args, message", [
    (("--u0", "riemann:0.2"), "use --u0 riemann:LEFT:RIGHT"),
    (("--u0", "steady"), "--u0 steady requires --connection A:B"),
    (("--transform", "no-such-transform"), "unknown transform 'no-such-transform'"),
    (("--u0", "constant:abc"), "use --u0 constant:VALUE"),
    (("--u0", "wave"), "unknown initial profile 'wave'"),
    (("--flux", "zero", "--transform", "connection", "--connection", "0.5:0.5"),
     "a flux branch has no interior maximum"),
], ids=["riemann-one-state", "steady-without-connection", "unknown-transform", "constant-not-a-number",
        "unknown-profile", "connection-without-maximum"])
def test_solve_rejects_an_unusable_profile_or_transform(tmp_path, args, message):
    res = run_cli("solve", "--flux", "burgers-like", *args, "--cells", "64", "--t-end", "0.05",
                  "--out", str(tmp_path / "runs"))
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not (tmp_path / "runs").exists()


def test_connection_on_a_coarse_flux_table_is_usage_error(tmp_path):
    path = tmp_path / "coarse.csv"
    path.write_text("u,f,g\n0,0,0\n0.5,0.25,0.25\n1,0,0\n")
    res = run_cli("solve", "--flux", str(path), "--transform", "connection", "--connection", "0.75:0.25",
                  "--cells", "64", "--t-end", "0.05", "--out", str(tmp_path / "runs"))
    assert res.exit_code == 2, res.output
    assert "need at least 8 sampling intervals" in res.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("args", [
    ("solve", "--config"),
    ("solve", "--flux"),
    ("solve", "--transform"),
    ("check-crossing", "--flux"),
    ("riemann", "--left", "0.2", "--right", "0.8", "--flux"),
], ids=["solve-config", "solve-flux", "solve-transform", "check-crossing-flux", "riemann-flux"])
def test_a_directory_given_as_an_input_file_is_usage_error(tmp_path, args):
    # catch_exceptions=False: an IsADirectoryError would fail the test here
    res = run_cli(*args, str(tmp_path))
    assert res.exit_code == 2, res.output
    assert f"Error: {tmp_path}: " in res.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option, name, body", [
    ("--flux", "f.csv", b"u,f,g\n0,0,0\n\xff\n"),
    ("--transform", "t.csv", b"v,alpha,beta\n0,0,0\n\xff\n"),
], ids=["flux", "transform"])
def test_solve_names_a_table_that_is_not_utf8(tmp_path, option, name, body):
    path = tmp_path / name
    path.write_bytes(body)
    res = run_cli("solve", option, str(path), "--cells", "64", "--t-end", "0.05", "--out", str(tmp_path / "runs"))
    assert res.exit_code == 2, res.output
    assert f"Error: {path}: 'utf-8' codec can't decode byte 0xff" in res.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("make, message", [
    (lambda p: p.write_bytes(b"\xff\xfe"), "'utf-8' codec can't decode byte 0xff"),
    (lambda p: p.mkdir(), ""),
], ids=["not-utf8", "directory"])
def test_solve_names_a_sidecar_it_cannot_read(tmp_path, make, message):
    table = tmp_path / "ok.csv"
    table.write_text("v,alpha,beta\n0,0,0\n1,1,1\n")
    make(tmp_path / "ok.json")
    res = run_cli("solve", "--flux", "demo-cross", "--transform", str(table), "--cells", "64",
                  "--t-end", "0.05", "--out", str(tmp_path / "runs"))
    assert res.exit_code == 2, res.output
    assert f"Error: {tmp_path / 'ok.json'}: {message}" in res.output
    assert not (tmp_path / "runs").exists()


def test_solve_names_the_map_a_table_clamps(tmp_path):
    # the table a pair with beta on [1e-10, 1] and alpha on [0, 1] would save:
    # beta repeats its end value across two ends closer than CLAMP_SLACK
    table = tmp_path / "t.csv"
    table.write_text("v,alpha,beta\n0,0,1e-10\n1e-10,1e-10,1e-10\n1,1,1\n")
    res = run_cli("solve", "--flux", "burgers-like", "--transform", str(table), "--cells", "64",
                  "--t-end", "0.05", "--out", str(tmp_path / "runs"))
    assert res.exit_code == 2, res.output
    assert (f"Error: {table}: beta repeats its end value 1e-10 at v = 0 and 1e-10: two domain ends "
            "that differ by 1e-10, less than CLAMP_SLACK = 1e-09") in res.output
    assert not (tmp_path / "runs").exists()


def test_solve_bump_profile(tmp_path):
    # mid + amp * exp(-x^2 / 0.5) with mid 0.5 and amp 0.45 on [0, 1]
    res = run_cli("solve", "--flux", "burgers-like", "--u0", "bump", "--cells", "64", "--t-end", "0.05",
                  "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    field, _ = dx.read_run(next(p for p in tmp_path.iterdir() if p.is_dir()))
    u0 = field.u[0]
    assert u0.min() >= 0.5 and 0.9 < u0.max() <= 0.95
    assert np.allclose(u0, u0[::-1], rtol=0.0, atol=1e-12)   # even in x

def test_solve_reports_unavailable_traces_and_exits_1(tmp_path):
    # the same out-of-range translation run: solve writes it, then cannot
    # evaluate the branch fluxes at its interface traces
    res = run_cli("solve", "--flux", "demo-swapped", "--transform", "translation",
                  "--u0", "constant:0.0", "--cells", "64", "--t-end", "0.05",
                  "--out", str(tmp_path))
    assert res.exit_code == 1, res.output
    assert "run written to" in res.output
    assert "final traces: unavailable: " in res.output
    assert "evaluation point outside [0, 1]" in res.output
    run_dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    assert (run_dirs[0] / "manifest.json").exists()


def test_solve_honours_env_output_root(tmp_path):
    res = run_cli(
        "solve", "--flux", "burgers-like", "--u0", "constant:0.5",
        "--cells", "64", "--t-end", "0.02",
        env={"DISCFLUX_OUT": str(tmp_path / "envout")},
    )
    assert res.exit_code == 0, res.output
    assert (tmp_path / "envout").exists()


def test_solve_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cells": 64, "t_end": 0.02, "snapshots": 5}))
    res = run_cli(
        "solve", "--flux", "burgers-like", "--u0", "constant:0.4",
        "--config", str(cfg), "--t-end", "0.01", "--out", str(tmp_path / "o"),
    )
    assert res.exit_code == 0, res.output
    run_dir = next((tmp_path / "o").iterdir())
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["cells"] == 64        # from the file
    assert manifest["config"]["t_end"] == 0.01      # flag wins

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cellz": 10}))
    res = run_cli("solve", "--flux", "burgers-like", "--u0", "constant:0.4",
                  "--config", str(bad))
    assert res.exit_code == 2


@pytest.mark.parametrize("content, message", [
    (5, "must be a JSON object"),
    ([1, 2], "must be a JSON object"),
    ({"cfl_parabolic": 0.4}, "unknown config keys: ['cfl_parabolic']"),
    ({"cells": 100.5}, "cells must be an integer"),
    ({"cfl_hyperbolic": 1.0}, "cfl_hyperbolic must lie strictly between 0 and 1"),
    ({"cfl_hyperbolic": "0.5"}, "cfl_hyperbolic must be a finite number, got '0.5'"),
    ({"half_width": True}, "half_width must be a finite number, got True"),
    ({"t_end": True}, "t_end must be a finite number, got True"),
    ({"eps": 0.1}, "unknown config keys: ['eps']"),
    ({"cfl_hyperbolic": True}, "cfl_hyperbolic must be a finite number, got True"),
], ids=["number", "list", "removed-cfl-key", "fractional-cells", "cfl-one", "cfl-string",
        "half-width-true", "t-end-true", "removed-eps-key", "cfl-true"])
def test_solve_rejects_bad_config_file(tmp_path, content, message):
    # catch_exceptions=False: a traceback would fail the test here
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(content))
    res = run_cli("solve", "--flux", "burgers-like", "--u0", "constant:0.4",
                  "--config", str(path), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("raw", [b"{bad\n", b'{"cells": "\xff"}\n'], ids=["not-json", "not-utf8"])
def test_solve_names_a_config_file_it_cannot_read(tmp_path, raw):
    # catch_exceptions=False: a bare decode error would fail the test here
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    res = run_cli("solve", "--flux", "burgers-like", "--u0", "constant:0.4",
                  "--config", str(path), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2, res.output
    assert f"Error: {path}: " in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("snapshots, edit", [
    ("33", lambda m: m["config"].pop("cells")),   # the default 512 cells do not fit the tables
    ("33", lambda m: m["mass"].pop()),
    # with two stored times a one-entry mass list broadcasts against the
    # boundary fluxes and the mass balance would pass
    ("2", lambda m: m["mass"].pop()),
    ("2", lambda m: m["boundary_flux"].pop()),
    ("33", lambda m: m.update(sha256=list(m["sha256"].values()))),
    ("33", lambda m: m.update(transform=list(m["transform"].values()))),
    ("33", lambda m: m["transform"].update(connection={"B": 0.25})),
    ("33", lambda m: m["transform"].update(shifts=0.5)),
    # numeric strings: the values are right, the types are not
    ("33", lambda m: m.update(times=[repr(t) for t in m["times"]])),
], ids=["no-cells", "short-mass", "short-mass-two-snapshots", "short-boundary-flux",
        "sha256-list", "transform-list", "connection-without-A", "shifts-number", "times-strings"])
def test_verify_rejects_inconsistent_manifest(tmp_path, snapshots, edit):
    res = run_cli("solve", "--flux", "burgers-like", "--u0", "riemann:0.25:0.75",
                  "--cells", "64", "--t-end", "0.05", "--snapshots", snapshots,
                  "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
    manifest = json.loads((run_dir / "manifest.json").read_text())
    edit(manifest)
    (run_dir / "manifest.json").write_text(json.dumps(manifest))

    ver = run_cli("verify", "--run", str(run_dir))
    assert ver.exit_code == 1, ver.output
    assert "FAIL run integrity" in ver.output
    assert "PASS" not in ver.output


def test_build_transform_translation(tmp_path):
    out = tmp_path / "shift.csv"
    res = run_cli("build-transform", "--flux", "demo-swapped",
                  "--mode", "translation", "--out", str(out))
    assert res.exit_code == 0, res.output
    assert out.exists() and out.with_suffix(".json").exists()
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["kind"] == "translation"
    k_l, k_r = meta["shifts"]
    assert k_l > k_r


def test_solve_rejects_malformed_transform_metadata(tmp_path):
    out = tmp_path / "shift.csv"
    assert run_cli("build-transform", "--flux", "demo-swapped", "--mode", "translation",
                   "--out", str(out)).exit_code == 0
    meta = json.loads(out.with_suffix(".json").read_text())
    meta["shifts"] = 0.16
    out.with_suffix(".json").write_text(json.dumps(meta))
    res = run_cli("solve", "--flux", "demo-swapped", "--transform", str(out), "--u0", "constant:0.4",
                  "--cells", "64", "--t-end", "0.05", "--out", str(tmp_path / "runs"))
    assert res.exit_code == 2, res.output
    assert f"Error: {out.with_suffix('.json')}: malformed transform metadata" in res.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("table, meta, names_table, message", [
    ("v,alpha,beta\n0,0,0\n0.5,0.5,0.5\n0.4,0.6,0.6\n1,1,1\n", None, True,
     "breakpoints must be strictly increasing"),
    ("v,alpha,beta\n0,0,0\n0.5,0.6,0.5\n0.6,0.5,0.6\n1,1,1\n", None, True, "values must be strictly increasing"),
    ("v,alpha,beta\n0,0,0\n1,1,1\n", {"connection": {"A": "x"}}, False, "malformed transform metadata: "),
], ids=["v-not-increasing", "alpha-not-increasing", "connection-not-a-number"])
def test_solve_names_the_file_of_a_transform_that_holds_no_pair(tmp_path, table, meta, names_table, message):
    path = tmp_path / "bad.csv"
    path.write_text(table)
    if meta is not None:
        path.with_suffix(".json").write_text(json.dumps(meta))
    res = run_cli("solve", "--flux", "burgers-like", "--transform", str(path), "--cells", "64", "--t-end", "0.05",
                  "--out", str(tmp_path / "runs"))
    assert res.exit_code == 2, res.output
    assert f"Error: {path if names_table else path.with_suffix('.json')}: {message}" in res.output
    assert not (tmp_path / "runs").exists()


def test_build_transform_refuses_a_table_named_like_its_sidecar(tmp_path):
    # the sidecar of t.json is t.json itself: writing it would replace the table
    out = tmp_path / "t.json"
    res = run_cli("build-transform", "--flux", "demo-swapped", "--mode", "translation", "--out", str(out))
    assert res.exit_code == 2, res.output
    assert f"{out}: a transform table cannot end in .json" in res.output
    assert list(tmp_path.iterdir()) == []



def test_solve_refuses_a_table_named_like_its_sidecar(tmp_path):
    # a table at t.json would be read as its own sidecar
    path = tmp_path / "t.json"
    path.write_text("v,alpha,beta\n0,0,0\n1,1,1\n")
    res = run_cli("solve", "--flux", "demo-cross", "--transform", str(path), "--cells", "64",
                  "--t-end", "0.05", "--out", str(tmp_path / "runs"))
    assert res.exit_code == 2, res.output
    assert f"{path}: a transform table cannot end in .json" in res.output
    assert not (tmp_path / "runs").exists()

@pytest.mark.parametrize("sidecar, message", [
    ("{bad", "Expecting property name enclosed in double quotes"),
    ("[0.16, 0.0]", "transform metadata must be a JSON object, not list"),
])
def test_solve_names_a_sidecar_that_holds_no_metadata(tmp_path, sidecar, message):
    table = tmp_path / "ok.csv"
    table.write_text("v,alpha,beta\n0,0,0\n1,1,1\n")
    (tmp_path / "ok.json").write_text(sidecar)
    res = run_cli("solve", "--flux", "demo-cross", "--transform", str(table), "--cells", "64",
                  "--t-end", "0.05", "--out", str(tmp_path / "runs"))
    assert res.exit_code == 2, res.output
    assert f"{tmp_path / 'ok.json'}: {message}" in res.output
    assert not (tmp_path / "runs").exists()


# alpha maps [0, 0.3] onto [-0.3, 0]: outside the flux interval, which only
# the zero-extended branches of a translation pair may be read on
RANGE_ESCAPING_TABLE = "v,alpha,beta\n0,-0.3,0\n0.5,0.2,0.5\n1,1,1\n"


@pytest.mark.parametrize("sidecar, message", [
    ({"clip": True}, "composition failed: transform range [-0.3, 1] escapes flux domain [0, 1]"),
    ({"shifts": [0.0, 0.0]}, "maps are not the translation pair of shifts (0.0, 0.0)"),
], ids=["old-clip-flag", "zero-shifts"])
def test_range_escaping_table_fails_the_audit(tmp_path, sidecar, message):
    path = tmp_path / "t.csv"
    path.write_text(RANGE_ESCAPING_TABLE)
    path.with_suffix(".json").write_text(json.dumps(sidecar))
    flux = dx.get_flux("demo-cross")
    audit = dx.verify_transform(flux, dx.load_transform_csv(path))
    assert not audit.ok
    assert any(message in msg for msg in audit.failures), audit.failures

    res = run_cli("solve", "--flux", "demo-cross", "--transform", str(path), "--cells", "64",
                  "--t-end", "0.05", "--out", str(tmp_path / "runs"))
    assert res.exit_code == 2, res.output
    assert "transform failed verification" in res.output
    assert message in res.output
    assert not (tmp_path / "runs").exists()


def test_connection_sidecar_the_maps_do_not_realise_fails_the_audit(tmp_path):
    path = tmp_path / "ident.csv"
    path.write_text("v,alpha,beta\n0,0,0\n1,1,1\n")
    path.with_suffix(".json").write_text(json.dumps({"connection": {"A": 0.75, "B": 0.25}}))
    res = run_cli("solve", "--flux", "burgers-like", "--transform", str(path), "--cells", "64",
                  "--t-end", "0.05", "--out", str(tmp_path / "runs"))
    assert res.exit_code == 2, res.output
    assert "transform failed verification: alpha(c) misses the connection's B = 0.25" in res.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("args, old", [
    (("--flux", "burgers-like", "--transform", "connection", "--connection", "0.75:0.25",
      "--u0", "riemann:0.8:0.4"), {"kind": "identity", "c": 0.1, "clip": True,
                                   "connection": {"A": 0.75, "B": 0.25, "flavor": "generalized"}}),
    (("--flux", "demo-swapped", "--transform", "translation", "--u0", "riemann:0.3:0.7"),
     {"kind": "custom", "c": 0.5, "clip": False}),
], ids=["connection", "translation"])
def test_manifest_keys_the_pair_derives_are_ignored(tmp_path, args, old):
    res = run_cli("solve", *args, "--cells", "64", "--t-end", "0.05", "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
    before = run_cli("verify", "--run", str(run_dir)).output
    kind = json.loads((run_dir / "manifest.json").read_text())["transform"]["kind"]

    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["transform"].update(old)
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    field, _ = dx.read_run(run_dir)
    assert field.transform.kind == kind != old["kind"]
    ver = run_cli("verify", "--run", str(run_dir))
    assert ver.output == before
    assert ver.exit_code == 0, ver.output


def test_build_transform_requires_connection_states(tmp_path):
    res = run_cli("build-transform", "--flux", "burgers-like",
                  "--mode", "connection", "--out", str(tmp_path / "c.csv"))
    assert res.exit_code == 2



def test_build_transform_exits_1_when_construction_fails(tmp_path):
    # f = min(u, 0.3, 1 - u) is flat on top, so the connection builder cannot
    # invert its increasing branch; f(0.16) = g(0.8) = 0.16 all the same
    u = np.linspace(0.0, 1.0, 4097)
    flux = tmp_path / "flat.csv"
    write_csv(flux, np.column_stack([u, np.minimum(np.minimum(u, 0.3), 1.0 - u), u * (1.0 - u)]),
              header="u,f,g")
    out = tmp_path / "c.csv"
    res = run_cli("build-transform", "--flux", str(flux), "--mode", "connection",
                  "--connection", "0.8:0.16", "--out", str(out))
    assert res.exit_code == 1, res.output
    assert ("construction failed: flux branch is not strictly increasing on [0, 0.5] "
            "near u = 0.300049") in res.output
    assert not out.exists()

@pytest.mark.parametrize("text", ["0.75:0.25:classic", "0.75", "0.75:x"])
def test_connection_takes_two_numbers(tmp_path, text):
    res = run_cli("build-transform", "--flux", "burgers-like", "--mode", "connection",
                  "--connection", text, "--out", str(tmp_path / "c.csv"))
    assert res.exit_code == 2, res.output
    assert f"use --connection A:B, not {text!r}" in res.output
    assert not list(tmp_path.iterdir())


def test_connection_sidecar_with_an_old_flavor_key_solves(tmp_path):
    path = tmp_path / "conn.csv"
    assert run_cli("build-transform", "--flux", "burgers-like", "--mode", "connection",
                   "--connection", "0.75:0.25", "--out", str(path)).exit_code == 0
    sidecar = json.loads(path.with_suffix(".json").read_text())
    assert sidecar["connection"] == {"A": 0.75, "B": 0.25}
    sidecar["connection"]["flavor"] = "classic"   # as older sidecars stored it
    path.with_suffix(".json").write_text(json.dumps(sidecar))
    res = run_cli("solve", "--flux", "burgers-like", "--transform", str(path), "--u0", "riemann:0.8:0.4",
                  "--cells", "64", "--t-end", "0.05", "--out", str(tmp_path / "runs"))
    assert res.exit_code == 0, res.output
    run_dir = next((tmp_path / "runs").iterdir())
    ver = run_cli("verify", "--run", str(run_dir))
    assert ver.exit_code == 0, ver.output
    assert "PASS adapted residual against the connection" in ver.output


@pytest.mark.parametrize("body", [
    "v,alpha,beta\n0,0\n1,1\n",
    "v,alpha,beta\n0,0,0,0\n1,1,1,1\n",
    "v,alpha,beta\n",
], ids=["two-columns", "four-columns", "header-only"])
def test_solve_rejects_a_transform_table_of_the_wrong_width(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text(body)
    res = run_cli("solve", "--flux", "demo-cross", "--transform", str(path), "--cells", "64",
                  "--t-end", "0.05", "--out", str(tmp_path / "runs"))
    assert res.exit_code == 2, res.output
    assert f"{path}: expected 3 values per row" in res.output
    assert not (tmp_path / "runs").exists()


def test_riemann_command(tmp_path):
    res = run_cli("riemann", "--flux", "burgers-like", "--left", "0.25", "--right", "0.75")
    assert res.exit_code == 0
    assert "shock" in res.output and "speed 0" in res.output

    out = tmp_path / "prof.csv"
    res = run_cli("riemann", "--flux", "burgers-like", "--left", "0.75",
                  "--right", "0.25", "--out", str(out))
    assert res.exit_code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape[1] == 2
    assert np.all(np.diff(data[:, 1]) <= 1e-12)


def test_riemann_out_makes_its_directory(tmp_path):
    out = tmp_path / "new" / "dir" / "prof.csv"
    res = run_cli("riemann", "--flux", "burgers-like", "--left", "0.75", "--right", "0.25", "--out", str(out))
    assert res.exit_code == 0, res.output
    assert f"profile written to {out}" in res.output
    assert read_csv(out, "x,u").shape == (801, 2)



def test_riemann_state_outside_the_flux_interval_is_usage_error():
    # a NaN state is outside it too, as either state and with an equal other state
    for left, right in (("1.5", "0.1"), ("nan", "0.5"), ("0.5", "nan"), ("nan", "nan")):
        res = run_cli("riemann", "--flux", "burgers-like", "--left", left, "--right", right)
        assert res.exit_code == 2, res.output
        assert f"data outside the sampled flux domain: left {float(left)!r}, right {float(right)!r}" in res.output


@pytest.mark.parametrize("time", ["nan", "inf", "-1"])
def test_riemann_rejects_a_time_that_is_no_time(tmp_path, time):
    # NaN wrote the right state everywhere, inf NaN positions, and -1 the initial data
    out = tmp_path / "p.csv"
    res = run_cli("riemann", "--flux", "burgers-like", "--left", "0.2", "--right", "0.9",
                  "--time", time, "--out", str(out))
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--time': must be a finite number >= 0" in res.output
    assert not out.exists()


def test_sweep_of_one_level_is_usage_error():
    res = run_cli("sweep", "--flux", "burgers-like", "--levels", "1", "--cells", "64", "--t-end", "0.05")
    assert res.exit_code == 2, res.output
    assert "need at least 2 ladder levels" in res.output


def test_riemann_of_equal_states_has_no_waves():
    res = run_cli("riemann", "--flux", "burgers-like", "--left", "0.4", "--right", "0.4")
    assert res.exit_code == 0, res.output
    assert res.output == "constant solution, no waves\n"

def test_sweep_command():
    res = run_cli("sweep", "--flux", "burgers-like", "--u0", "riemann:0.25:0.75",
                  "--levels", "2", "--cells", "64", "--t-end", "0.05")
    assert res.exit_code == 0, res.output
    assert "L1 gap" in res.output
    assert "converging" in res.output
    # the ladder refines the grid alone: c0 and c1 per level, and no viscous energy
    assert [line.split(" per level")[0] for line in res.output.splitlines() if " per level: " in line] == ["c0", "c1"]



def test_sweep_of_three_levels_prints_the_gap_ratio():
    res = run_cli("sweep", "--flux", "burgers-like", "--u0", "riemann:0.25:0.75",
                  "--levels", "3", "--cells", "64", "--t-end", "0.05")
    assert res.exit_code == 0, res.output
    gaps = [float(m) for m in re.findall(r"^level \d -> \d: L1 gap (\S+)$", res.output, re.M)]
    assert len(gaps) == 2
    assert f"gap ratios: {gaps[0] / gaps[1]:.2f}\n" in res.output

def test_solve_rejects_unusable_transform():
    res = run_cli("solve", "--flux", "demo-swapped", "--u0", "constant:0.5",
                  "--cells", "64", "--t-end", "0.01")
    assert res.exit_code == 2
