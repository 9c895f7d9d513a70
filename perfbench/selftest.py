"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Checks that
1. every metric declared in BENCHMARK.json is emitted exactly once, with its
   unit, by every workload in both trace modes, and the tiny runs pass;
2. the exact counts (solver.steps, runio.bytes_written and the other counts)
   repeat across two traced passes;
3. a field containing NaN is counted as a failed operation;
4. a truncated run directory is counted as a failed operation;
5. run.py exits non-zero without a result where only BENCHMARK.json and the
   benchmark's own files exist.
Exits 0 when every check holds.
"""

from __future__ import annotations

import bootstrap

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
from tracer import NullTracer
from workloads import WORKLOADS, CliBatch, ConnectionInterface, Record

SEED = 1
TINY = {
    "connection-interface": {"cells": 64, "t_end": 0.05},
    "riemann-oracle": {"cells": 512, "t_end": 0.1},
    "cli-batch": {"cells": 64, "jobs": 2},
}
EXACT_UNITS = ("count", "bytes")


def _no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"duplicate keys {sorted(dup)}")
    return dict(pairs)


def declared() -> dict:
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def tiny(name: str):
    return WORKLOADS[name](SEED, **TINY[name])


def measure(name: str, trace: bool) -> dict:
    return run.measure(tiny(name), seconds=0.0, trace=trace, setup_repeats=1)


def check_emission(problems: list) -> None:
    spec = declared()
    if sorted(spec["workloads"]) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {spec['workloads']} != {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        for trace in (0, 1):
            record = measure(name, bool(trace))
            line = json.loads(run.result_line(record), object_pairs_hook=_no_duplicates)
            if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name} trace {trace}: result keys {sorted(line)}")
            got = {k: m["unit"] for k, m in line["metrics"].items()}
            if got != spec[trace]:
                problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(spec[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(spec[trace]))}, "
                                f"units {[k for k in got if k in spec[trace] and got[k] != spec[trace][k]]}")
            if not (line["correct"] and line["failed"] == 0 and line["attempted"] >= 1):
                problems.append(f"{name} trace {trace}: tiny run not correct: {record['failures'][:3]}")


def check_exact_counts(problems: list) -> None:
    for name in WORKLOADS:
        first, second = (measure(name, True)["result"]["metrics"] for _ in range(2))
        for key, m in first.items():
            if m["unit"] in EXACT_UNITS and m["value"] != second[key]["value"]:
                problems.append(f"{name}: {key} changed between passes: {m['value']} -> {second[key]['value']}")
        if name == "cli-batch" and not first["runio.bytes_written"]["value"] > 0:
            problems.append("cli-batch wrote no bytes")


def check_nan_field(problems: list) -> None:
    w = tiny("connection-interface")
    rec = Record()
    flux = bootstrap.import_discflux().get_flux(w.flux_name)
    fld = w.solve(rec, flux, w.transform(flux), *w.states[0])
    u = np.array(fld.u)
    u[-1, u.shape[1] // 2] = np.nan
    w.verify(rec, dataclasses.replace(fld, u=u), *w.states[0])
    if (rec.attempted, rec.failed) != (2, 1):
        problems.append(f"NaN field: attempted {rec.attempted}, failed {rec.failed}; expected 2 and 1")


def check_truncated_run(problems: list) -> None:
    w = tiny("cli-batch")
    rec = Record()
    bootstrap.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=bootstrap.OUT))
    try:
        with w.capturing():
            fld, run_dir = w.solve_job(rec, NullTracer(), *w.states[0], work)
            snap = sorted((Path(run_dir) / "snapshots").iterdir())[-1]
            data = snap.read_bytes()
            snap.write_bytes(data[: len(data) // 2])
            w.verify_job(rec, NullTracer(), fld, run_dir)
    finally:
        shutil.rmtree(work)
    if (rec.attempted, rec.failed) != (2, 1):
        problems.append(f"truncated run: attempted {rec.attempted}, failed {rec.failed}; expected 2 and 1")


def check_without_sources(problems: list) -> None:
    bootstrap.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=bootstrap.OUT))
    try:
        shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare)
        here = Path(__file__).resolve().parent
        shutil.copytree(here, bare / here.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        spec = json.loads((bare / "BENCHMARK.json").read_text())
        cmd = [sys.executable if a == "python3" else a for a in spec["command"]]
        proc = subprocess.run(cmd + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:]
    if proc.returncode == 0 or (last and last[0].startswith("{")):
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    checks = (check_emission, check_exact_counts, check_nan_field, check_truncated_run, check_without_sources)
    failed = 0
    for check in checks:
        problems: list = []
        check(problems)
        failed += bool(problems)
        print(f"{'PASS' if not problems else 'FAIL'} {check.__name__}")
        for p in problems:
            print(f"    {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
