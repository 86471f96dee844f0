#!/usr/bin/env python3
"""The nodal basis of test-function fields along a sphere-valued function.

A test function of a manifold-valued finite element function is a tangent
vector field along it, determined by one tangent vector per Lagrange node.
The nodal basis fields carry a single unit tangent vector at a single node
and vanish at all others; second-order fields visibly point "backwards"
wherever their scalar shape function dips negative.

Writes VTK files (solution plus one vertex field and one edge field) for a
quadratic function on a small grid; open them in any VTK viewer.
"""

import numpy as np

from gfe import GFEFunction, GlobalTestFunction, Sphere, unit_square_grid, write_vtk
from gfe.sampling import random_configuration

sphere = Sphere(2)
grid = unit_square_grid(1, 2)  # two quadratic triangles, 9 nodes
values = random_configuration(sphere, grid.n_nodes, np.random.default_rng(3), radius=0.35)
u = GFEFunction(grid, sphere, "geodesic", values)


def nodal_basis_function(i, j):
    """The test function carrying tangent_basis(u_i)[j] at node i and zero elsewhere."""
    vecs = np.zeros_like(u.values)
    vecs[i] = sphere.tangent_basis(u.values[i])[j]
    return GlobalTestFunction(u, vecs)


print(f"{grid.n_nodes} Lagrange nodes x dim {sphere.intrinsic_dim} "
      f"= {grid.n_nodes * sphere.intrinsic_dim} nodal basis fields")

# a vertex degree of freedom and an edge degree of freedom
vertex_field = nodal_basis_function(0, 0)
edge_node = next(i for i in range(grid.n_nodes) if i >= len(grid.vertices))
edge_field = nodal_basis_function(edge_node, 0)

for name, field in (("vertex", vertex_field), ("edge", edge_field)):
    write_vtk(f"testfield_{name}.vtk", u, field=field, field_name=f"{name}_field")
    print(f"wrote testfield_{name}.vtk")

# sample the vertex field along a line through the domain: it decays from
# its node and passes through zero where the shape function does
print(f"\n{'x':<14}{'|field|':>10}")
for t in np.linspace(0.02, 0.98, 9):
    x = np.array([t, 0.01])
    _, vec = vertex_field.evaluate(x)
    print(f"{np.array2string(x, precision=2):<14}{np.linalg.norm(vec):>10.4f}")
