"""discflux benchmark: one seeded workload, measured from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: connection-interface, riemann-oracle, cli-batch (see workloads.py).
One process, one thread.  The run first times set-up in fresh processes, warms
this process up with the same set-up, then repeats passes over the workload's
inputs until the next pass would overrun ``--seconds``.

``--trace 0`` reports the end-to-end metrics with tracing off, as means of
reference-scaled seconds (see ``workloads.reference_s``).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics from
the traced ones, plus the tracing overhead.  Human-readable lines come first;
the last line of standard output is the JSON result.  A result record with
host information lands in ``perfbench/out/``, and a traced run also writes the
spans of its first traced pass there.
"""

from __future__ import annotations

import bootstrap  # first: pins BLAS/OpenMP threads before numpy loads

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter as clock

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "solver.solve.s": "s",
    "solver.solve.self_s": "s",
    "solver.step.s": "s",
    "solver.invert_conserved.s": "s",
    "solver.face_fluxes.s": "s",
    "solver.conserved.s": "s",
    "solver.ns_per_cell_step": "ns",
    "solver.steps": "count",
    "solver.steps_over_hyperbolic": "ratio",
    "solver.stability_errors": "count",
    "transforms.verify_transform.calls": "count",
    "transforms.verify_transform.s": "s",
    "transforms.composed_fluxes.calls": "count",
    "transforms.composed_fluxes.s": "s",
    "transforms.build_connection_transform.s": "s",
    "transforms.build_translation_transform.s": "s",
    "transforms.check_crossing.calls": "count",
    "transforms.check_crossing.per_translation": "ratio",
    "fluxes.get_flux.s": "s",
    "riemann.classical_riemann.s": "s",
    "diagnostics.entropy_residual_pair.calls": "count",
    "diagnostics.entropy_residual_pair.s": "s",
    "diagnostics.entropy_residual_connection.s": "s",
    "diagnostics.extract_traces.s": "s",
    "diagnostics.bounds_report.s": "s",
    "diagnostics.checks_failed": "count",
    "runio.write_run.s": "s",
    "runio.read_run.s": "s",
    "runio.bytes_written": "bytes",
    "runio.files_written": "count",
    "cli.solve.self_s": "s",
    "cli.verify.self_s": "s",
    "cli.nonzero_exits": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_frac": "ratio",
}


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git (None outside a repo)."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
        "commit": git_commit(),
    }


def setup_times(name: str, seed: int, repeats: int) -> tuple:
    """``setup_s`` samples, each from a fresh interpreter (see setup_probe.py),
    with the reference-kernel time around each."""
    from workloads import reference_s

    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", name, "--seed", str(seed)]
    samples, refs = [], [reference_s()]
    for _ in range(repeats):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=bootstrap.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        refs.append(reference_s())
    return samples, [0.5 * (a + b) for a, b in zip(refs, refs[1:])]


def one_pass(workload, rec, tracer):
    """Run one pass in a scratch directory.

    Returns the pass's wall time without the reference-kernel runs in it, the
    mean reference time, and the bytes and files the pass's runs wrote.
    """
    scratch = bootstrap.OUT / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    try:
        t0 = clock()
        workload.run_pass(rec, tracer, work)
        wall = clock() - t0 - sum(rec.refs)
        files = [f for d in tracer.written_runs for f in Path(d).rglob("*") if f.is_file()]
        written = (sum(f.stat().st_size for f in files), len(files))
    finally:
        shutil.rmtree(work)
    return wall, statistics.mean(rec.refs), written


def layer_metrics(tr, rec, written, wall: float, plain_wall: float, cells: int) -> dict:
    """The per-layer metrics of one traced pass."""
    per = tr.per_name()

    def calls(name):
        return per[name][0] if name in per else 0

    def total(name):
        return per[name][1] if name in per else 0.0

    def self_s(name):
        return per[name][2] if name in per else 0.0

    steps, solves = calls("solver.step"), calls("solver.solve")
    translations = calls("transforms.build_translation_transform") - tr.count_errors(
        "transforms.build_translation_transform", "ConstructionError")
    return {
        "solver.solve.s": total("solver.solve"),
        "solver.solve.self_s": self_s("solver.solve"),
        "solver.step.s": total("solver.step"),
        "solver.invert_conserved.s": total("solver.invert_conserved"),
        "solver.face_fluxes.s": total("solver.face_fluxes"),
        "solver.conserved.s": total("solver.conserved"),
        "solver.ns_per_cell_step": 1e9 * total("solver.step") / (steps * cells) if steps else 0.0,
        # every solve of a workload shares one config, hence one step count
        "solver.steps": steps // max(solves, 1),
        "solver.steps_over_hyperbolic": sum(rec.steps) / sum(rec.hyperbolic_steps) if rec.hyperbolic_steps else 0.0,
        "solver.stability_errors": tr.count_errors("solver.solve", "StabilityError"),
        "transforms.verify_transform.calls": calls("transforms.verify_transform"),
        "transforms.verify_transform.s": total("transforms.verify_transform"),
        "transforms.composed_fluxes.calls": calls("transforms.composed_fluxes"),
        "transforms.composed_fluxes.s": total("transforms.composed_fluxes"),
        "transforms.build_connection_transform.s": total("transforms.build_connection_transform"),
        "transforms.build_translation_transform.s": total("transforms.build_translation_transform"),
        "transforms.check_crossing.calls": calls("transforms.check_crossing"),
        "transforms.check_crossing.per_translation": (
            tr.count_under("transforms.check_crossing", "transforms.build_translation_transform") / translations
            if translations else 0.0),
        "fluxes.get_flux.s": total("fluxes.get_flux"),
        "riemann.classical_riemann.s": total("riemann.classical_riemann"),
        "diagnostics.entropy_residual_pair.calls": calls("diagnostics.entropy_residual_pair"),
        "diagnostics.entropy_residual_pair.s": total("diagnostics.entropy_residual_pair"),
        "diagnostics.entropy_residual_connection.s": total("diagnostics.entropy_residual_connection"),
        "diagnostics.extract_traces.s": total("diagnostics.extract_traces"),
        "diagnostics.bounds_report.s": total("diagnostics.bounds_report"),
        "diagnostics.checks_failed": tr.failed_checks,
        "runio.write_run.s": total("runio.write_run"),
        "runio.read_run.s": total("runio.read_run"),
        "runio.bytes_written": written[0],
        "runio.files_written": written[1],
        "cli.solve.self_s": self_s("cli.solve"),
        "cli.verify.self_s": self_s("cli.verify"),
        "cli.nonzero_exits": rec.nonzero_exits,
        "trace.overhead_s": wall - plain_wall,
        "trace.unattributed_frac": 1.0 - tr.covered_s() / wall,
    }


def tail(samples: list):
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    import numpy as np

    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(samples, p))
    return None


def measure(workload, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one benchmark measurement and return the full result record."""
    from tracer import NullTracer, Tracer
    from workloads import Record

    seed = workload.seed
    setup = setup_times(workload.name, seed, setup_repeats) if not trace else ([], [])
    workload.setup()  # warm-up: lazy imports and the _bump_tables cache, as set-up pays them
    records, plain, plain_ref, traced, layers = [], [], [], [], []
    start = clock()
    deadline = start + seconds
    while True:
        began = clock()
        rec = Record()
        records.append(rec)
        wall, ref, _ = one_pass(workload, rec, NullTracer())
        plain.append(wall)
        plain_ref.append(ref)
        if trace:
            rec = Record()
            records.append(rec)
            tr = Tracer()
            tr.install()
            try:
                origin = clock()
                twall, _, written = one_pass(workload, rec, tr)
            finally:
                tr.uninstall()
            traced.append(twall)
            layers.append(layer_metrics(tr, rec, written, twall, wall, workload.cells))
            if len(layers) == 1:
                bootstrap.OUT.mkdir(exist_ok=True)
                tr.dump(bootstrap.OUT / f"spans-{workload.name}-seed{seed}.csv", origin)
        if 2 * clock() - began > deadline:  # the next pass would overrun
            break

    return summarise(workload, seconds, trace, records, (plain, plain_ref), traced, layers, setup, start)


def scaled(raw: list, ref: list) -> list:
    """Seconds scaled to a reference-kernel time of REF_NOMINAL_S (see workloads.py)."""
    from workloads import REF_NOMINAL_S

    return [r * REF_NOMINAL_S / f for r, f in zip(raw, ref)]


def summarise(workload, seconds, trace, records, plain, traced, layers, setup, start) -> dict:
    # untraced records only feed the timings; every record feeds the failure count
    untraced = records[::2] if trace else records
    raw = {
        "wall_s": plain,
        "setup_s": setup,
        "solve_s": ([s for r in untraced for s in r.solve_s], [s for r in untraced for s in r.solve_ref]),
        "verify_s": ([s for r in untraced for s in r.verify_s], [s for r in untraced for s in r.verify_ref]),
    }
    samples = {name: scaled(*pair) for name, pair in raw.items()}
    attempted = sum(r.attempted for r in records)
    failures = [f for r in records for f in r.failures]
    # Timings are means over the run of reference-scaled seconds; set-up is a
    # median over fresh processes.  The host's speed swings faster than a run
    # lasts, so a run's median flips between its fast and slow modes; over ten
    # cli-batch runs the mean of raw times spread 0.14 where the median spread 0.21.
    info = {
        "wall_s": statistics.mean(samples["wall_s"]),
        "setup_s": statistics.median(samples["setup_s"]) if samples["setup_s"] else None,
        "solve_s": statistics.mean(samples["solve_s"]) if samples["solve_s"] else None,
        "verify_s": statistics.mean(samples["verify_s"]) if samples["verify_s"] else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "failed_frac": len(failures) / attempted if attempted else 1.0,
        "l1_error": max((e for r in records for e in r.l1_error), default=None),
        "steps_per_solve": sorted({s for r in records for s in r.steps}),
    }
    if trace:
        # median_low keeps exact counts integral
        metrics = {name: {"value": statistics.median_low(l[name] for l in layers), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": info[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": int(trace),
        "elapsed_s": clock() - start,
        "traced_passes": traced,
        "samples": samples,
        "raw": {name: {"seconds": pair[0], "reference_s": pair[1]} for name, pair in raw.items()},
        "info": info,
        "failures": failures,
        "host": host_record(),
        "result": {
            "correct": not failures and all(m["value"] is not None for m in metrics.values()),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        },
    }


def report_lines(record: dict) -> list:
    info, res, samples = record["info"], record["result"], record["samples"]
    lines = [f"discflux benchmark: workload {record['workload']}, seed {record['seed']}, "
             f"trace {record['trace']}, {len(samples['wall_s'])} untraced + "
             f"{len(record['traced_passes'])} traced passes in {record['elapsed_s']:.1f} s"]
    for name in ("wall_s", "solve_s", "verify_s"):
        if samples[name]:
            text = (f"  {name:<12} {info[name]:.6g} s   mean of {len(samples[name])} (scaled); "
                    f"median {statistics.median(samples[name]):.6g} s")
            if tail(samples[name]):
                text += "; p%g %.6g s" % tail(samples[name])
            text += f"; raw mean {statistics.mean(record['raw'][name]['seconds']):.6g} s"
            lines.append(text)
    if samples["setup_s"]:
        lines.append(f"  {'setup_s':<12} {info['setup_s']:.6g} s   median of {len(samples['setup_s'])} "
                     f"fresh processes (scaled); raw median {statistics.median(record['raw']['setup_s']['seconds']):.6g} s")
    if info["l1_error"] is not None:
        lines.append(f"  {'l1_error':<12} {info['l1_error']:.6g}     worst over all solves")
    lines.append(f"  {'peak_rss_mb':<12} {info['peak_rss_mb']:.6g} MB")
    lines.append(f"  {'failed_frac':<12} {info['failed_frac']:.6g}     {res['failed']} of {res['attempted']} operations")
    lines.append(f"  steps per solve: {info['steps_per_solve']}")
    if record["trace"]:
        for name, m in res["metrics"].items():
            lines.append(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    lines += [f"  FAILED {f}" for f in record["failures"][:20]]
    lines.append("host " + json.dumps(record["host"], sort_keys=True))
    return lines


def result_line(record: dict) -> str:
    """The last line of standard output: correct, attempted, failed, metrics."""
    return json.dumps(record["result"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap.import_discflux()
    except bootstrap.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    record = measure(workload, args.seconds, bool(args.trace))
    bootstrap.OUT.mkdir(exist_ok=True)
    out = bootstrap.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print("\n".join(report_lines(record)))
    print(result_line(record))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
