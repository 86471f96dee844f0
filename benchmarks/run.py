#!/usr/bin/env python3
"""Seeded benchmark of gfe: four workloads, output checks, every metric by name.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload descent-s2-1d --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and a readable report.  Load comes from this one
process, one operation at a time (a closed loop with one client).
GFE_THREADS is removed from the environment, so every run is the plain
single-threaded baseline.

``correct`` is true when no operation failed and no probe failed otherwise
than the known defect does.  The probes (descent-s2-1d's order-2 solve) are
not operations: their outcome is printed in the report, but not counted in
``attempted``, ``failed`` or ``success_ratio``, so that every counted
operation is expected to succeed.  An untraced run in which no operation
succeeded prints no result and exits 1: it has no time to report.  A run
makes the probes, then at least ``min_ops`` operations, and more while the
next one is expected to end within ``--seconds`` of the start.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

- ``op_s``: median time of one successful operation: one order-1 ``minimize`` on
  descent-s2-1d (the solve time), one ``dirichlet_energy`` plus one
  ``algebraic_gradient`` on assembly-so3-2d, one CLI command from start to
  exit on the two CLI workloads (the command time).  Each wall time is
  scaled to a reference machine speed sampled during the operation (see
  speed.py); the raw wall and CPU times are printed too.  The median is over
  input cases, each the median of its repeats;
- ``setup_s``: median time, over fresh interpreters started between the
  operations, of importing gfe, making the seeded inputs (and their files)
  and building the grids and start functions, scaled like ``op_s``;
- ``success_ratio``: operations that neither raised, exited non-zero nor
  failed an output check, over operations attempted, probes apart; that is
  one minus the fail ratio, which cannot be a metric because it is 0;
- ``peak_rss_mb``: peak resident memory of the process doing the work (this
  process for library workloads, the median CLI child otherwise).

``--trace 1`` runs operation 0 untraced and then traced, back to back, with
the CLI called in process and no speed sampling, and reports the per-layer
metrics of ``spans.Recorder`` plus ``trace_overhead``, the ratio of traced to
untraced wall time.  The spans are written to ``benchmarks/_work/``.

``--smoke`` runs every workload at toy size in both modes and checks that
each metric of BENCHMARK.json appears with its unit and that traced counts
repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 5
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("descent-s2-1d", "assembly-so3-2d", "interpolate-s2-2d", "minimize-proj-s2-2d")


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_quota": None,
        "python": platform.python_version(),
        "numpy": None,
        "git_sha": None,
        "GFE_THREADS": os.environ.get("GFE_THREADS"),
    }
    env.update({k: os.environ.get(k) for k in BLAS_THREAD_VARS})
    try:
        env["cpu_quota"] = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        pass
    try:
        # a checkout that is not a repository must not report an enclosing one
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        env["git_sha"] = out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def _make_workdir(workload: str, seed: int) -> Path:
    path = WORK / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_only(args) -> int:
    """Time one set-up in this fresh interpreter, from before numpy is imported."""
    t0 = time.perf_counter()
    import workloads

    workdir = _make_workdir(args.workload, args.seed)
    try:
        workloads.WORKLOADS[args.workload](args.seed, args.toy, workdir)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Set-up is too short to sample while it runs, so the speed kernel runs
    # right after it; the first calls pay one-off costs and are dropped.
    import speed

    kernel = [speed.kernel_seconds() for _ in range(12)][2:]
    print(speed.Measurement(elapsed, kernel).scaled)
    return 0


def setup_once(args) -> float:
    """Seconds of one set-up in a fresh interpreter, scaled to the reference speed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)] + (["--toy"] if args.toy else [])
    out = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def _result(correct: bool, ops, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(r.failed for r in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def untraced(args, workload) -> dict | None:
    t0 = time.perf_counter()
    # the probes run first, so that the time budget counts them
    probes = workload.probes()
    ops, setup_times = [], []
    t_ops = time.perf_counter()

    def room_for_one_more() -> bool:
        now = time.perf_counter()
        return now + (now - t_ops) / len(ops) <= t0 + args.seconds

    while len(ops) < workload.min_ops or room_for_one_more():
        # set-ups are interleaved with the operations, so that their median
        # sees the machine over the whole run, not over one moment of it
        setup_times.append(setup_once(args))
        ops.append(workload.run(len(ops)))
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(setup_once(args))
    n_failed = sum(r.failed for r in ops)
    unexpected = n_failed + sum(r.failed and not r.known_defect for r in probes)
    print(f"operations {len(ops)} in {time.perf_counter() - t0:.2f} s (probes included)")
    for i, r in enumerate(probes):
        kind = ("known defect" if r.known_defect else "failed") if r.failed else "passed"
        print(f"probe {i} {kind} after {r.time.seconds:.2f} s: {r.detail or 'all checks hold'}")
    for i, r in enumerate(ops):
        if r.failed:
            print(f"op {i} failed after {r.time.seconds:.2f} s: {r.detail}")
    good = [k for k, r in enumerate(ops) if not r.failed]
    if not good:
        print("error: no operation succeeded, so there is no time to report", file=sys.stderr)
        return None

    def case_median(value) -> float:
        # a median over cases, each the median of its repeats, so that a
        # case met twice in a run does not weigh twice
        per_case: dict[int, list[float]] = {}
        for k in good:
            per_case.setdefault(k % len(workload.cases), []).append(value(ops[k].time))
        return statistics.median(statistics.median(v) for v in per_case.values())

    op_s = case_median(lambda t: t.scaled)
    wall_s = case_median(lambda t: t.seconds)
    cpu_s = case_median(lambda t: t.cpu)
    child_rss = [r.rss_mb for r in ops if r.rss_mb is not None]
    rss = (statistics.median(child_rss) if child_rss
           else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    for label, value in (("wall", lambda t: t.seconds), ("cpu", lambda t: t.cpu),
                         ("scaled", lambda t: t.scaled)):
        print(f"  {label:6s} s  {[round(value(ops[k].time), 4) for k in good]}")
    name = {"descent-s2-1d": "solve_s", "assembly-so3-2d": "energy_s+gradient_s"}.get(
        args.workload, "command_s")
    print(f"{name}: median {wall_s:.4f} s wall, {cpu_s:.4f} s CPU, {op_s:.4f} s at reference "
          f"speed, {len(good)} samples")
    if args.workload == "interpolate-s2-2d":
        print(f"points_per_s: {workload.rows / wall_s:.1f} wall, {workload.rows / op_s:.1f} at reference speed")
    print(f"fail_ratio: {n_failed / len(ops):.4f} ({n_failed} of {len(ops)} operations, probes apart)")
    print(f"setup_s samples {[round(w, 4) for w in setup_times]}")
    return _result(unexpected == 0, ops, {
        "op_s": (op_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "success_ratio": ((len(ops) - n_failed) / len(ops), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    })


def traced(args, workload) -> dict:
    import spans

    plain = workload.run(0, for_trace=True)
    rec = spans.Recorder()
    with_spans = workload.run(0, for_trace=True, around=rec.installed)
    ops = [plain, with_spans]
    metrics = rec.layer_metrics(getattr(workload, "qp_per_gradient", 0))
    metrics["vtkio.bytes"] = (with_spans.vtk_bytes, "bytes")
    metrics["trace_overhead"] = (with_spans.time.seconds / plain.time.seconds, "ratio")
    path = WORK / f"trace-{args.workload}-s{args.seed}.jsonl.gz"
    rec.write(path)
    print(f"{len(rec.start)} spans written to {path.relative_to(ROOT)}")
    for r in ops:
        if r.failed:
            print(f"failed after {r.time.seconds:.2f} s: {r.detail}")
    return _result(not any(r.failed for r in ops), ops, metrics)


def _counts(result: dict) -> dict:
    """The per-layer metrics that count work rather than time it."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] not in ("s", "us") and k != "trace_overhead"}


def smoke() -> int:
    """Every workload at toy size in both modes; check names, units and counts."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in WORKLOAD_NAMES:
        outputs = {}
        for trace in (0, 1, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                problems.append(f"{name} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace {trace}: keys {sorted(out)}")
            if got != expected[trace]:
                diff = set(got.items()) ^ set(expected[trace].items())
                problems.append(f"{name} trace {trace}: metric names or units differ: {sorted(diff)}")
            if not out["correct"] or out["attempted"] < 1:
                problems.append(f"{name} trace {trace}: correct={out['correct']} "
                                f"attempted={out['attempted']}")
            if trace in outputs and _counts(outputs[trace]) != _counts(out):
                problems.append(f"{name}: traced counts differ between two runs")
            outputs[trace] = out
        print(f"smoke {name}: {'ok' if not problems else 'problems so far'}", flush=True)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy-size inputs, for the smoke test")
    p.add_argument("--smoke", action="store_true", help="run every workload at toy size and check the output")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # on SIGTERM, unwind, so that a running CLI child is stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "gfe" / "__init__.py").is_file():
        print(f"error: no gfe sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_only(args)
    env = environment()
    os.environ.pop("GFE_THREADS", None)

    import numpy
    import workloads

    env["numpy"] = numpy.__version__
    print("env " + json.dumps(env, sort_keys=True))
    workdir = _make_workdir(args.workload, args.seed)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.toy, workdir)
        result = traced(args, workload) if args.trace else untraced(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
