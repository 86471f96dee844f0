#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark between two git revisions.

    python3 tools/ab_pairs.py BASE CHANGE --workload assembly-so3-2d \\
        --seeds 11 12 --pairs 10 --seconds 30

Each revision is exported with ``git archive`` into a fresh directory of
its own under one temporary directory, so that neither side runs from a
working tree or reads a bytecode cache that another run wrote; the two
directories, ``a`` and ``b`` (``side_dirs``), have paths of equal length,
since the length of a run's paths alone moves its ``peak_rss_mb`` and
``setup_s``.  Then
``benchmarks/run.py --trace 0`` runs from each copy, in pairs that
alternate their order (BASE first in even pairs, CHANGE first in odd ones),
with PYTHONDONTWRITEBYTECODE=1; the seeds are taken round-robin, one per
pair.  The report gives, for every end-to-end metric of BENCHMARK.json, the
median and quartiles of each side, the pairs the change wins (by the
metric's direction) and the median ratio CHANGE/BASE over the pairs; its
last line is the same summary as one JSON object.  The copies are removed
on exit, also after an error or Ctrl-C, and a run still going is stopped
and waited for first.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = {"base": "a", "change": "b"}     # side -> directory name, all names of one length


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def side_dirs(root: Path) -> dict[str, Path]:
    """The directory of each side under root; the paths have equal length."""
    return {side: root / name for side, name in SIDES.items()}


def export(rev: str, dest: Path) -> None:
    """The files of commit rev, as ``git archive`` gives them, under dest."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"could not export {rev}")


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The metrics of one ``benchmarks/run.py --trace 0`` run from copy, or None if it failed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:     # interrupted: stop the run (it stops its own children)
            proc.send_signal(signal.SIGTERM)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run failed (exit {proc.returncode}): {err.strip()[-300:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def directions(copy: Path) -> dict[str, str]:
    """'lower' or 'higher' per end-to-end metric, from the copy's BENCHMARK.json."""
    spec = json.loads((copy / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    summary = {}
    for name, direction in better.items():
        both = [(a[name], b[name]) for a, b in pairs if name in a and name in b]
        if not both:
            continue
        base, change = [a for a, _ in both], [b for _, b in both]
        wins = sum((b < a) if direction == "lower" else (b > a) for a, b in both)
        ratios = [b / a for a, b in both if a != 0.0]
        summary[name] = {
            "better": direction,
            "base": quartiles(base),
            "change": quartiles(change),
            "wins": wins,
            "pairs": len(both),
            "median_ratio": statistics.median(ratios) if ratios else None,
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="git revision of the reference side")
    p.add_argument("change", help="git revision of the side under test")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)

    revs = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("base", args.base), ("change", args.change))}
    print(f"base {revs['base']}  change {revs['change']}  workload {args.workload}  "
          f"seeds {args.seeds}  {args.pairs} pairs of {args.seconds:g} s")
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        copies = side_dirs(Path(tmp))
        for side, rev in revs.items():
            export(rev, copies[side])
        better = directions(copies["base"])
        pairs = []
        for k in range(args.pairs):
            seed = args.seeds[k % len(args.seeds)]
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            got = {side: run_once(copies[side], args.workload, seed, args.seconds) for side in order}
            if got["base"] is None or got["change"] is None:
                print(f"pair {k} (seed {seed}): dropped, a run failed")
                continue
            pairs.append((got["base"], got["change"]))
            shown = "  ".join(f"{n} {got['base'][n]:.5g} -> {got['change'][n]:.5g}"
                              for n in better if n in got["base"] and n in got["change"])
            print(f"pair {k} (seed {seed}, {order[0]} first): {shown}", flush=True)
    if not pairs:
        print("no complete pair", file=sys.stderr)
        return 1
    summary = summarize(pairs, better)
    for name, s in summary.items():
        (b1, b2, b3), (c1, c2, c3) = s["base"], s["change"]
        ratio = "n/a" if s["median_ratio"] is None else f"{s['median_ratio']:.4f}"
        print(f"{name:14s} base {b2:.5g} [{b1:.5g}, {b3:.5g}]  change {c2:.5g} [{c1:.5g}, {c3:.5g}]  "
              f"wins {s['wins']}/{s['pairs']} ({s['better']} is better)  median ratio {ratio}")
    print(json.dumps({"workload": args.workload, "base": revs["base"], "change": revs["change"],
                      "seeds": args.seeds, "seconds": args.seconds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
