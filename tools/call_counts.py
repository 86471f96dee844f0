#!/usr/bin/env python3
"""Python-level calls of one ``gfe.minimize`` on the descent-s2-1d problem.

    python3 tools/call_counts.py

Builds the problem of ``test_descent_work_per_state`` in tests/test_energy.py
(the quarter great circle from e_x to e_y with an out-of-plane bump of 0.2,
4 order-1 elements, the boundary nodes fixed, under the rotation of seed 7)
from the gfe of this checkout, runs ``minimize`` to tol 1e-6 once to warm
it up, and a second time under ``cProfile``.  It prints one JSON line: the
second run's Python-level calls (numpy's own Python wrappers included), its
center solves (``geodesic._newton`` calls), Newton linearizations
(``geodesic._linearize`` calls) and descent iterations.  The calls are
summed over the profiler's entries, one per code object, and not taken
from ``pstats.Stats.total_calls``: Stats keys functions by (file, line,
name) and keeps one of those that share a key, such as the constructors of
the named tuples, which are all compiled from '<string>', so its total
varies from run to run by the calls of the ones it drops.
"""

from __future__ import annotations

import cProfile
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from gfe import GFEFunction, Sphere, minimize, unit_interval_grid  # noqa: E402

TOL = 1e-6


def descent_problem():
    """(u0, fixed): the start of test_descent_work_per_state and its boundary nodes."""
    grid = unit_interval_grid(4, 1)
    x = grid.lagrange_nodes[:, 0]
    start = np.stack([1.0 - x, x, 0.2 * np.sin(np.pi * x)], axis=1)
    start /= np.linalg.norm(start, axis=1)[:, None]
    R = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]
    return GFEFunction(grid, Sphere(2), "geodesic", start @ R.T), set(grid.boundary_nodes)


def main() -> int:
    u0, fixed = descent_problem()
    minimize(u0, fixed, tol=TOL)
    profile = cProfile.Profile()
    report = profile.runcall(minimize, u0, fixed, tol=TOL)[1]
    entries = profile.getstats()
    calls = {name: 0 for name in ("_newton", "_linearize")}
    for e in entries:
        if getattr(e.code, "co_name", None) in calls and e.code.co_filename.endswith("geodesic.py"):
            calls[e.code.co_name] += e.callcount
    print(json.dumps({
        "total_calls": sum(e.callcount for e in entries), "center_solves": calls["_newton"],
        "newton_linearizations": calls["_linearize"], "descent_iterations": report.iterations,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
