"""Geometric finite elements: manifold-valued interpolation on simplicial
grids, test-function fields along the interpolants, and harmonic-map
energies with Riemannian descent.

The public surface re-exported here, as arrays: points and tangent vectors
are plain numpy arrays in embedding coordinates, and point evaluations of
derivatives and test fields return ``(q, vectors)``, the vectors tangent at
the evaluated point q.

- exceptions: the ``errors`` module
- manifolds: ``Euclidean``, ``Sphere``, ``Rotation3``, ``polar_decompose``
- reference elements: ``ReferenceElement`` (orders 1 and 2)
- local interpolation: ``GeodesicInterpolant``, ``ProjectionInterpolant``,
  ``KarcherCheck``, ``karcher_check``
- test fields: ``ElementTestField``; a test field or ``GlobalTestFunction``
  takes one (m or n, *point_shape) array of nodal tangent vectors, row i
  based at the nodal value i; the nodal basis field (i, j) is the one-hot
  array carrying tangent_basis(v_i)[j] at node i
- grids and global functions: ``Grid``, ``GFEFunction``,
  ``GlobalTestFunction``, ``read_mesh``, ``write_mesh``,
  ``unit_interval_grid``, ``unit_square_grid``, ``write_vtk``
- energy: ``QuadratureRule``, ``simplex_quadrature``, ``EnergyReport``,
  ``dirichlet_energy``, ``directional_derivative``, ``algebraic_gradient``,
  ``minimize``, ``equivalence_audit``; ``directional_derivative`` is the
  pairing of the gradient, with no node fixed, with the nodal vectors
"""

from . import errors
from .energy import (
    EnergyReport,
    QuadratureRule,
    algebraic_gradient,
    directional_derivative,
    dirichlet_energy,
    equivalence_audit,
    minimize,
    simplex_quadrature,
)
from .geodesic import GeodesicInterpolant, KarcherCheck, karcher_check
from .grid import (
    GFEFunction,
    GlobalTestFunction,
    Grid,
    read_mesh,
    unit_interval_grid,
    unit_square_grid,
    write_mesh,
)
from .jacobi import ElementTestField
from .manifold import Euclidean, Rotation3, Sphere
from .kernels import polar_decompose
from .projection import ProjectionInterpolant
from .reference_element import ReferenceElement
from .vtkio import write_vtk

__all__ = [
    "errors",
    "EnergyReport",
    "QuadratureRule",
    "algebraic_gradient",
    "directional_derivative",
    "dirichlet_energy",
    "equivalence_audit",
    "minimize",
    "simplex_quadrature",
    "GeodesicInterpolant",
    "KarcherCheck",
    "karcher_check",
    "GFEFunction",
    "GlobalTestFunction",
    "Grid",
    "read_mesh",
    "unit_interval_grid",
    "unit_square_grid",
    "write_mesh",
    "ElementTestField",
    "Euclidean",
    "Rotation3",
    "Sphere",
    "polar_decompose",
    "ProjectionInterpolant",
    "ReferenceElement",
    "write_vtk",
]

__version__ = "0.1.0"
