#!/usr/bin/env python3
"""Two routes to the first variation of the energy, compared numerically.

Route A differentiates the energy through the nodal coefficients: perturb
every nodal value along a tangent direction, re-evaluate, take a central
difference.  Route B assembles the test-function field belonging to the
same nodal tangent data and integrates <grad u, grad field> directly.  The
two are formulations of the same derivative, so they must agree to finite
difference accuracy — which is what makes test functions usable for weak
formulations in the first place.
"""

import numpy as np

import gfe
from gfe import (
    GFEFunction,
    GlobalTestFunction,
    Grid,
    directional_derivative,
    dirichlet_energy,
    equivalence_audit,
)
from gfe.sampling import random_configuration, random_tangent

sphere = gfe.Sphere(2)
grid = Grid(
    2,
    np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    np.array([[0, 1, 2], [0, 2, 3]]),
    order=2,
)
rng = np.random.default_rng(11)
values = random_configuration(sphere, grid.n_nodes, rng, radius=0.3)
u = GFEFunction(grid, sphere, "geodesic", values)

print(f"{'trial':>5} {'route A (coefficients)':>24} {'route B (test field)':>22} {'|A-B|':>10}")
h = 1e-5
for trial in range(5):
    vecs = [random_tangent(sphere, v, rng, scale=0.4) for v in values]
    plus = np.array([sphere.exp(v, h * w) for v, w in zip(values, vecs)])
    minus = np.array([sphere.exp(v, -h * w) for v, w in zip(values, vecs)])
    route_a = (dirichlet_energy(u.with_values(plus)) - dirichlet_energy(u.with_values(minus))) / (2 * h)
    eta = GlobalTestFunction(u, vecs)   # row i is tangent at values[i]
    route_b = directional_derivative(u, eta)
    print(f"{trial:>5} {route_a:>24.12f} {route_b:>22.12f} {abs(route_a - route_b):>10.2e}")

print(f"\nseeded 20-direction audit: max discrepancy {equivalence_audit(u, trials=20, seed=0):.2e}")
