#!/usr/bin/env python3
"""Python-level calls of one ``gfe.minimize`` on the descent-s2-1d problem
and of one metric evaluation, and the memory of a warm SO(3) energy plus
gradient.

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
varies from run to run by the calls of the ones it drops.  ``metric_calls``
counts the same way the calls of one ``energy._gradient_terms(u,
metric=True)``, the index form's blocks, on the start state with its
quadrature record built.

The same line reports ``so3_peak_kb``, the ``tracemalloc`` peak in KiB of
one ``dirichlet_energy`` plus ``algebraic_gradient`` on a warm state (its
quadrature record built) of the assembly-so3-2d kind, built from gfe alone:
a radius-0.3 random configuration (seed 7) on the 4 x 4 criss-cross
order-2 grid, geodesic rule; and ``so3_metric_peak_kb``, the peak of one
``energy._gradient_terms(u, metric=True)`` on that warm state.
"""

from __future__ import annotations

import cProfile
import json
import sys
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from gfe import (  # noqa: E402
    GFEFunction,
    Rotation3,
    Sphere,
    algebraic_gradient,
    dirichlet_energy,
    minimize,
    unit_interval_grid,
    unit_square_grid,
)
from gfe.energy import _gradient_terms  # noqa: E402
from gfe.sampling import random_configuration  # noqa: E402

TOL = 1e-6


def descent_problem():
    """(u0, fixed): the start of test_descent_work_per_state and its boundary nodes."""
    grid = unit_interval_grid(4, 1)
    x = grid.lagrange_nodes[:, 0]
    start = np.stack([1.0 - x, x, 0.2 * np.sin(np.pi * x)], axis=1)
    start /= np.linalg.norm(start, axis=1)[:, None]
    R = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]
    return GFEFunction(grid, Sphere(2), "geodesic", start @ R.T), set(grid.boundary_nodes)


def profiled_calls(f, *args, **kwargs):
    """(f's result, the Python-level calls it made, by code object)."""
    profile = cProfile.Profile()
    result = profile.runcall(f, *args, **kwargs)
    return result, profile.getstats()


def warm_peak_kb(f) -> int:
    """The tracemalloc peak, in KiB, of f(u) on the warm SO(3) state, after one untraced call."""
    man, grid = Rotation3(), unit_square_grid(4, 2)
    values = random_configuration(man, grid.n_nodes, np.random.default_rng(7), radius=0.3)
    u = GFEFunction(grid, man, "geodesic", values)
    f(u)
    tracemalloc.start()
    try:
        f(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(peak / 1024)


def main() -> int:
    u0, fixed = descent_problem()
    minimize(u0, fixed, tol=TOL)
    report, entries = profiled_calls(minimize, u0, fixed, tol=TOL)
    report = report[1]
    calls = {name: 0 for name in ("_newton", "_linearize")}
    for e in entries:
        if getattr(e.code, "co_name", None) in calls and e.code.co_filename.endswith("geodesic.py"):
            calls[e.code.co_name] += e.callcount
    metric = profiled_calls(_gradient_terms, u0, metric=True)[1]
    print(json.dumps({
        "total_calls": sum(e.callcount for e in entries), "center_solves": calls["_newton"],
        "newton_linearizations": calls["_linearize"], "descent_iterations": report.iterations,
        "metric_calls": sum(e.callcount for e in metric),
        "so3_peak_kb": warm_peak_kb(lambda u: (dirichlet_energy(u), algebraic_gradient(u))),
        "so3_metric_peak_kb": warm_peak_kb(lambda u: _gradient_terms(u, metric=True)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
