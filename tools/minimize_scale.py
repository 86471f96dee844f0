#!/usr/bin/env python3
"""Time and memory of one ``gfe.minimize`` on the stereographic problem.

    python3 tools/minimize_scale.py SIDE ORDER RULE

Builds ``tests/helpers.stereographic_problem(SIDE, ORDER, RULE)`` (sigma on
the criss-cross grid of SIDE x SIDE cells, noise 0.1 at the interior nodes,
seed 0, the boundary nodes fixed) from the gfe of this checkout, and runs
``minimize`` to tol 1e-7 twice.  It prints one JSON line: the iterations,
the wall seconds and ``ru_maxrss`` (MB) after the first, untraced run, then
the ``tracemalloc`` peak (MB) of the second, traced one, with the number of
free degrees of freedom.  OpenBLAS runs on one thread unless
OPENBLAS_NUM_THREADS says otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")    # before numpy loads OpenBLAS

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from gfe import minimize  # noqa: E402
from helpers import stereographic_problem  # noqa: E402

TOL = 1e-7


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("side", type=int)
    p.add_argument("order", type=int, choices=(1, 2))
    p.add_argument("rule", choices=("geodesic", "projection"))
    args = p.parse_args(argv)
    u0, fixed = stereographic_problem(args.side, args.order, args.rule)
    start = time.perf_counter()
    _, report = minimize(u0, fixed, tol=TOL)
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracemalloc.start()
    minimize(u0, fixed, tol=TOL)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({
        "side": args.side, "order": args.order, "rule": args.rule,
        "free_dofs": (u0.grid.n_nodes - len(fixed)) * u0.manifold.intrinsic_dim,
        "iterations": report.iterations, "converged": report.converged,
        "wall_s": round(wall, 3), "ru_maxrss_mb": round(rss, 1),
        "traced_peak_mb": round(peak / 2**20, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
