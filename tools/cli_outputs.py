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
orders 1 and 2.  Then the error cases run, on malformed or extreme inputs
that the tool derives as text from the sphere2 order-1 ones or writes as
they are (``ERROR_CASES``, each with its manifold: a byte that is not UTF-8,
a NaN, a node listed twice, an index outside the grid, a value off the
sphere, a missing node, a boundary CSV without rows, a repeated element, an
element row past the element count, an element index beyond int64, the
header ``gfe-meshy 2``, a 2-d element folded over its neighbour's face, a
1-d element of length 1e-300, flat values of 1e5 to interpolate and of 1e200
to minimize on a 1-d mesh, a triangle with legs of 1e-200), with the
geodesic rule; a case that now runs is compared all the same.  For each case
the report says "identical", with the exit code, when exit code, stdout,
stderr and every output file agree byte for byte; otherwise it prints the
stdout lines that differ, the files that differ and the largest absolute
difference between the numbers of the two CSV outputs.  It counts the two groups of cases
apart.  The exit code is 0 when every case is identical and 1 otherwise.
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
# name: (command, manifold, mesh, CSV) of each case on malformed or extreme input, all written by write_inputs
ERROR_CASES = {
    "not UTF-8": ("interpolate", "sphere2", "square.mesh", "not_utf8.csv"),
    "NaN": ("interpolate", "sphere2", "square.mesh", "nan.csv"),
    "node listed twice": ("minimize", "sphere2", "square.mesh", "twice.csv"),
    "index outside": ("minimize", "sphere2", "square.mesh", "outside.csv"),
    "off the sphere": ("interpolate", "sphere2", "square.mesh", "off_sphere.csv"),
    "missing node": ("interpolate", "sphere2", "square.mesh", "missing.csv"),
    "no rows": ("minimize", "sphere2", "square.mesh", "no_rows.csv"),
    "repeated element": ("minimize", "sphere2", "repeated.mesh", "bc_sphere2_1.csv"),
    "extra element row": ("minimize", "sphere2", "miscounted.mesh", "bc_sphere2_1.csv"),
    "index beyond int64": ("minimize", "sphere2", "huge_index.mesh", "bc_sphere2_1.csv"),
    "header gfe-meshy": ("minimize", "sphere2", "bad_header.mesh", "bc_sphere2_1.csv"),
    "folded element": ("minimize", "sphere2", "folded.mesh", "folded_bc.csv"),
    "element of 1e-300": ("minimize", "sphere2", "tiny.mesh", "tiny_bc.csv"),
    "flat values of 1e5": ("interpolate", "euclidean", "line.mesh", "flat_1e5.csv"),
    "flat values of 1e200": ("minimize", "euclidean", "line.mesh", "flat_1e200_bc.csv"),
    "triangle of 1e-200": ("minimize", "sphere2", "tiny_triangle.mesh", "tiny_bc.csv"),
}


# ----------------------------------------------------------------------
# seeded inputs


def write_csv(path: Path, nodes, values) -> None:
    path.write_text("".join(f"{i}," + ",".join(f"{x:.17g}" for x in v) + "\n"
                            for i, v in zip(nodes, values)))


def write_inputs(root: Path, src: Path) -> None:
    """square.mesh and, per manifold and order, all_<m>_<p>.csv and bc_<m>_<p>.csv
    under root, made with the gfe package of the source tree src, and the
    malformed inputs of ERROR_CASES, written as text."""
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

    rows = (root / "all_sphere2_1.csv").read_text().splitlines(keepends=True)
    bc = (root / "bc_sphere2_1.csv").read_text().splitlines(keepends=True)
    index, *coords = rows[4].rstrip("\n").split(",")
    off_sphere = ",".join([index] + [f"{2.0 * float(x):.17g}" for x in coords]) + "\n"
    malformed = {
        "not_utf8.csv": rows[:3] + ["\udcff"] + rows[3:],     # the byte 0xff, through surrogateescape
        "nan.csv": rows[:2] + [rows[2].rsplit(",", 1)[0] + ",nan\n"] + rows[3:],
        "twice.csv": bc + bc[:1],
        "outside.csv": bc + [f"{len(rows)},0,0,1\n"],
        "off_sphere.csv": rows[:4] + [off_sphere] + rows[5:],
        "missing.csv": rows[:5] + rows[6:],
        "no_rows.csv": ["# no rows\n"],
    }
    mesh = (root / "square.mesh").read_text().splitlines(keepends=True)
    at = int(mesh[1]) + 2       # the line of the element count
    first = mesh[at + 1].split()
    malformed |= {
        # the first element again, its vertices rotated, as one more row
        "repeated.mesh": (mesh[:at] + [f"{int(mesh[at]) + 1}\n"] + mesh[at + 1:]
                          + [" ".join(first[1:] + first[:1]) + "\n"]),
        # a count one short, so the last element row is past it
        "miscounted.mesh": mesh[:at] + [f"{int(mesh[at]) - 1}\n"] + mesh[at + 1:],
        # the last index of the first element row past int64
        "huge_index.mesh": mesh[:at + 1] + [" ".join(first[:-1] + ["9" * 23]) + "\n"] + mesh[at + 2:],
        "bad_header.mesh": ["gfe-meshy 2\n"] + mesh[1:],
        # the second triangle inside the first, on the same side of their face [0, 1]; nodes 0-2 fixed
        "folded.mesh": ["gfe-mesh 2\n4\n0 0\n1 0\n0 1\n0.2 0.2\n2\n0 1 2\n0 1 3\n"],
        "folded_bc.csv": rows[:3],
        # an element [0, 1e-300], whose squared inverse map overflows; both ends fixed
        "tiny.mesh": ["gfe-mesh 1\n3\n0\n1e-300\n1\n2\n0 1\n1 2\n"],
        "tiny_bc.csv": [rows[0], rows[2]],
        # flat values far above 1, whose rounding once failed the residual bound, and ones that overflow
        "line.mesh": ["gfe-mesh 1\n3\n0\n0.5\n1\n2\n0 1\n1 2\n"],
        "flat_1e5.csv": ["0,1e5\n1,0.5\n2,0\n"],
        "flat_1e200_bc.csv": ["0,1e200\n2,0\n"],
        # a positively oriented triangle whose determinant, 1e-400, underflows to 0
        "tiny_triangle.mesh": ["gfe-mesh 2\n3\n0 0\n1e-200 0\n0 1e-200\n1\n0 1 2\n"],
    }
    for name, lines in malformed.items():
        (root / name).write_bytes("".join(lines).encode("utf-8", "surrogateescape"))


# ----------------------------------------------------------------------
# running and comparing


def case_args(command: str, manifold: str, rule: str, order: int, inputs: Path):
    args = ["--command", command, "--manifold", manifold, "--rule", rule, "--order", str(order)]
    if command == "audit":
        return args + ["--seed", str(SEED)]
    csv = "all" if command == "interpolate" else "bc"
    return args + ["--mesh", str(inputs / "square.mesh"),
                   "--bc", str(inputs / f"{csv}_{manifold}_{order}.csv"), "--out", "out.csv"]


def error_case_args(name: str, inputs: Path):
    command, manifold, mesh, csv = ERROR_CASES[name]
    return ["--command", command, "--manifold", manifold, "--rule", "geodesic", "--order", "1",
            "--mesh", str(inputs / mesh), "--bc", str(inputs / csv), "--out", "out.csv"]


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
    cases = list(itertools.product(COMMANDS, MANIFOLDS, RULES, ORDERS))
    identical = {"cases": 0, "error cases": 0}
    with tempfile.TemporaryDirectory(prefix="cli_outputs-") as tmp:
        tmp = Path(tmp)
        copies, runs = side_dirs(tmp), side_dirs(tmp / "runs")
        for side, rev in revs.items():
            export(rev, copies[side])
        inputs = tmp / "inputs"
        inputs.mkdir()
        write_inputs(inputs, copies["base"] / "src")
        labelled = ([("cases", f"{c:<12}{m:<9}{r:<11}order {p}", case_args(c, m, r, p, inputs))
                     for c, m, r, p in cases]
                    + [("error cases", f"{ERROR_CASES[name][0]:<12}{name}", error_case_args(name, inputs))
                       for name in ERROR_CASES])
        for k, (group, label, cli_args) in enumerate(labelled):
            got = {side: run_case(copies[side], cli_args, runs[side] / str(k)) for side in revs}
            report = compare(got["base"], got["change"])
            identical[group] += report[0].startswith("identical")
            print(f"{label}: " + "\n    ".join(report), flush=True)
    print(f"{identical['cases']} of {len(cases)} cases identical")
    print(f"{identical['error cases']} of {len(ERROR_CASES)} error cases identical")
    return 0 if sum(identical.values()) == len(labelled) else 1


if __name__ == "__main__":
    sys.exit(main())
