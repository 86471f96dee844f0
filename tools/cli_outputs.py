#!/usr/bin/env python3
"""Compare the outputs of the gfe CLI between two git revisions.

    python3 tools/cli_outputs.py BASE CHANGE

Each revision is exported with ``git archive`` into a fresh directory of its
own, as ``tools/ab_pairs.py`` does (``side_dirs``: paths of equal length, as
are those of the two sides' run directories), and the same seeded inputs
(seed 3) are written once, by the base copy's gfe: the criss-cross unit
square grid of 3 x 3 cells, and for each of its order-1 and order-2 Lagrange
grids a random configuration (``gfe.sampling.random_configuration``, radius
0.3) of every node and its restriction to the boundary nodes.  Then 24 cases
run from each copy with ``python -m gfe.cli`` and PYTHONDONTWRITEBYTECODE=1:
interpolate, minimize and audit, on sphere2 and so3, with both rules, at
orders 1 and 2.  For each case the report says "identical", with the exit
code, when exit code, stdout, stderr and every output file agree byte for
byte; otherwise it prints the stdout lines that differ, the files that
differ and the largest absolute difference between the numbers of the two
CSV outputs.  The exit code is 0 when every case is identical and 1
otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from ab_pairs import _git, export, side_dirs

COMMANDS = ("interpolate", "minimize", "audit")
MANIFOLDS = ("sphere2", "so3")
RULES = ("geodesic", "projection")
ORDERS = (1, 2)
SEED = 3    # of the inputs and of audit
SIDE = 3    # cells per side of the square mesh


# ----------------------------------------------------------------------
# seeded inputs


def write_csv(path: Path, nodes, values) -> None:
    path.write_text("".join(f"{i}," + ",".join(f"{x:.17g}" for x in v) + "\n"
                            for i, v in zip(nodes, values)))


def write_inputs(root: Path, src: Path) -> None:
    """square.mesh and, per manifold and order, all_<m>_<p>.csv and bc_<m>_<p>.csv
    under root, made with the gfe package of the source tree src."""
    sys.dont_write_bytecode = True     # the copy stays as exported
    sys.path.insert(0, str(src))
    from gfe import Rotation3, Sphere, unit_square_grid, write_mesh
    from gfe.sampling import random_configuration

    square = unit_square_grid(SIDE, 1)
    write_mesh(root / "square.mesh", 2, square.vertices, square.elements)
    manifolds = {"sphere2": Sphere(2), "so3": Rotation3()}
    rng = np.random.default_rng(SEED)
    for manifold, order in itertools.product(MANIFOLDS, ORDERS):
        grid = unit_square_grid(SIDE, order)
        values = random_configuration(manifolds[manifold], grid.n_nodes, rng).reshape(grid.n_nodes, -1)
        boundary = sorted(grid.boundary_nodes)
        write_csv(root / f"all_{manifold}_{order}.csv", range(grid.n_nodes), values)
        write_csv(root / f"bc_{manifold}_{order}.csv", boundary, values[boundary])


# ----------------------------------------------------------------------
# running and comparing


def case_args(command: str, manifold: str, rule: str, order: int, inputs: Path):
    args = ["--command", command, "--manifold", manifold, "--rule", rule, "--order", str(order)]
    if command == "audit":
        return args + ["--seed", str(SEED)]
    csv = "all" if command == "interpolate" else "bc"
    return args + ["--mesh", str(inputs / "square.mesh"),
                   "--bc", str(inputs / f"{csv}_{manifold}_{order}.csv"), "--out", "out.csv"]


def run_case(copy: Path, args: list[str], workdir: Path) -> dict:
    """Exit code, stdout, stderr and the output files of one CLI run from copy in workdir."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    proc = subprocess.run([sys.executable, "-m", "gfe.cli", *args], cwd=workdir, env=env,
                          capture_output=True, text=True)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "files": files}


def csv_difference(a: bytes, b: bytes) -> float | None:
    """The largest absolute difference between the numbers of two CSVs, None if their shapes differ."""
    rows = [[[float(x) for x in line.split(",")] for line in text.decode().splitlines()] for text in (a, b)]
    if [len(r) for r in rows[0]] != [len(r) for r in rows[1]]:
        return None
    return max((abs(x - y) for ra, rb in zip(*rows) for x, y in zip(ra, rb)), default=0.0)


def compare(base: dict, change: dict) -> list[str]:
    """Report lines for one case: "identical" with the exit code, or what differs."""
    if base == change:
        return [f"identical (exit {base['code']})"]
    out = []
    if base["code"] != change["code"]:
        out.append(f"exit code {base['code']} -> {change['code']}")
    lines = [r["stdout"].splitlines() for r in (base, change)]
    for a, b in itertools.zip_longest(*lines, fillvalue="<none>"):
        if a != b:
            out.append(f"stdout: {a!r} -> {b!r}")
    if base["stderr"] != change["stderr"]:
        out.append(f"stderr: {base['stderr'].strip()!r} -> {change['stderr'].strip()!r}")
    for name in sorted(set(base["files"]) | set(change["files"])):
        a, b = base["files"].get(name), change["files"].get(name)
        if a == b:
            continue
        if a is None or b is None:
            out.append(f"{name}: only in {'change' if a is None else 'base'}")
        elif name.endswith(".csv"):
            diff = csv_difference(a, b)
            out.append(f"{name}: " + ("rows differ in shape" if diff is None
                                      else f"largest absolute difference {diff:.3e}"))
        else:
            out.append(f"{name}: differs")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="git revision of the reference side")
    p.add_argument("change", help="git revision of the side under test")
    args = p.parse_args(argv)

    revs = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("base", args.base), ("change", args.change))}
    print(f"base {revs['base']}  change {revs['change']}")
    identical = 0
    cases = list(itertools.product(COMMANDS, MANIFOLDS, RULES, ORDERS))
    with tempfile.TemporaryDirectory(prefix="cli_outputs-") as tmp:
        tmp = Path(tmp)
        copies, runs = side_dirs(tmp), side_dirs(tmp / "runs")
        for side, rev in revs.items():
            export(rev, copies[side])
        inputs = tmp / "inputs"
        inputs.mkdir()
        write_inputs(inputs, copies["base"] / "src")
        for k, (command, manifold, rule, order) in enumerate(cases):
            cli_args = case_args(command, manifold, rule, order, inputs)
            got = {side: run_case(copies[side], cli_args, runs[side] / str(k)) for side in revs}
            report = compare(got["base"], got["change"])
            identical += report[0].startswith("identical")
            print(f"{command:<12}{manifold:<9}{rule:<11}order {order}: " + "\n    ".join(report), flush=True)
    print(f"{identical} of {len(cases)} cases identical")
    return 0 if identical == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
