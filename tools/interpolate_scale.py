#!/usr/bin/env python3
"""Peak memory and wall time of one CLI ``interpolate`` on an N x N order-2 sphere problem.

    python3 tools/interpolate_scale.py N

Writes the criss-cross unit square mesh of N x N cells and a random
configuration on S^2 of all its order-2 nodes (``random_configuration``,
seed 0, radius 0.3) to a temporary directory, with the gfe of this
checkout.  Then it runs ``interpolate`` (geodesic rule) from that gfe in a
child process, which reads its own VmHWM from /proc/self/status just before
it exits.  That is the child's peak resident set alone: the ``ru_maxrss``
a parent reads for a child also counts the pages the parent held when it
started the child.  It prints one JSON line: the child's peak in MB, its
wall seconds (interpreter start-up included), the number of samples it
wrote and the sha256 of its CSV, so that two checkouts can be compared
byte for byte.  Exits with the child's exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

CHILD = (
    "import sys\n"
    "from gfe.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/status') as fh:\n"
    "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
    "sys.exit(code)\n"
)


def write_inputs(root: Path, n: int) -> None:
    """root/square.mesh and root/all.csv: the N x N order-2 problem."""
    import numpy as np

    from gfe import Sphere, unit_square_grid, write_mesh
    from gfe.cli import write_nodal_csv
    from gfe.sampling import random_configuration

    grid = unit_square_grid(n, 2)
    write_mesh(root / "square.mesh", 2, grid.vertices, grid.elements)
    write_nodal_csv(root / "all.csv", random_configuration(Sphere(2), grid.n_nodes, np.random.default_rng(0)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("n", type=int, help="cells per side of the unit square")
    n = p.parse_args(argv).n
    with tempfile.TemporaryDirectory(prefix="interpolate_scale-") as tmp:
        root = Path(tmp)
        write_inputs(root, n)
        args = ["--command", "interpolate", "--manifold", "sphere2", "--rule", "geodesic", "--order", "2",
                "--mesh", str(root / "square.mesh"), "--bc", str(root / "all.csv"), "--out", str(root / "out.csv")]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CHILD, *args], env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr.strip(), file=sys.stderr)
            return proc.returncode
        csv = (root / "out.csv").read_bytes()
    print(json.dumps({
        "n": n, "peak_mb": round(int(proc.stdout.split()[-1]) / 1024, 1), "wall_s": round(wall, 3),
        "samples": csv.count(b"\n"), "sha256": hashlib.sha256(csv).hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
