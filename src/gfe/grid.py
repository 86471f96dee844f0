"""Conforming simplicial grids and global manifold-valued functions.

A ``Grid`` holds the mesh (vertices plus simplices), the global Lagrange
node layout for a chosen order, and the affine maps between each element and
the reference simplex.  Global Lagrange nodes are built topologically
(vertex nodes, plus one node per global edge at order 2), so two elements
sharing a face index the same global nodes and continuity of the assembled
functions holds by construction; the test-suite additionally verifies it
numerically with two-sided face evaluations.

``GFEFunction`` attaches one manifold value per global node and an
interpolation rule (geodesic or projection); its restriction to an element
is the corresponding local interpolant, evaluated after pulling domain
points back to reference coordinates.  ``GlobalTestFunction`` attaches one
tangent vector per node and evaluates through the element test fields.

Mesh files are plain text: a header line ``gfe-mesh d``, the vertex count
followed by one coordinate line per vertex, then the element count followed
by one line of d+1 zero-based vertex indices per element.  ``#`` starts a
comment.
"""

from __future__ import annotations

import numpy as np

from .errors import AdmissibilityError, PointOutsideDomainError
from .geodesic import GeodesicInterpolant, karcher_check
from .jacobi import ElementTestField
from .manifold import Manifold, Sphere, TangentVector
from .projection import ProjectionInterpolant
from .reference_element import ReferenceElement

_RULES = ("geodesic", "projection")
_LOCATE_TOL = 1e-12


# ----------------------------------------------------------------------
# mesh I/O


def read_mesh(path):
    """Read a mesh file; returns (dim, vertices, elements)."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.append(line)
    if not tokens or not tokens[0].startswith("gfe-mesh"):
        raise ValueError(f"{path}: missing 'gfe-mesh d' header")
    try:
        dim = int(tokens[0].split()[1])
        pos = 1
        nv = int(tokens[pos]); pos += 1
        vertices = np.array(
            [[float(t) for t in tokens[pos + i].split()] for i in range(nv)]
        ).reshape(nv, dim)
        pos += nv
        ne = int(tokens[pos]); pos += 1
        elements = np.array(
            [[int(t) for t in tokens[pos + i].split()] for i in range(ne)], dtype=int
        ).reshape(ne, dim + 1)
    except (IndexError, ValueError) as exc:  # truncated file, bad number or row length
        raise ValueError(f"{path}: malformed mesh: {exc}") from None
    outside = np.flatnonzero(((elements < 0) | (elements >= nv)).any(axis=1))
    if len(outside):
        raise ValueError(f"{path}: element {outside[0]} has a vertex index outside 0..{nv - 1}")
    return dim, vertices, elements


def write_mesh(path, dim, vertices, elements) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"gfe-mesh {dim}\n")
        fh.write(f"{len(vertices)}\n")
        for v in np.atleast_2d(vertices):
            fh.write(" ".join(f"{x:.17g}" for x in v) + "\n")
        fh.write(f"{len(elements)}\n")
        for el in elements:
            fh.write(" ".join(str(int(i)) for i in el) + "\n")


# ----------------------------------------------------------------------
# grid


class Grid:
    """A conforming simplicial grid with its global Lagrange node layout.

    Attributes
    ----------
    dim, order : int
    vertices : ndarray (nv, dim)
    elements : ndarray (ne, dim+1) of vertex indices
    lagrange_nodes : ndarray (n, dim) of global node coordinates
    element_nodes : ndarray (ne, m) mapping local to global node indices
    boundary_nodes : frozenset of global node indices on the domain boundary
    """

    def __init__(self, dim: int, vertices, elements, order: int):
        if dim not in (1, 2):
            raise ValueError(f"grids support dim 1 and 2, got {dim}")
        if order not in (1, 2):
            raise ValueError(f"grids support order 1 and 2, got {order}")
        self.dim = dim
        self.order = order
        self.vertices = np.array(vertices, dtype=float).reshape(-1, dim)
        self.elements = np.array(elements, dtype=int).reshape(-1, dim + 1)
        self.ref = ReferenceElement(dim, order)

        # affine maps x = V0 + B xi, with positive orientation required
        ne = len(self.elements)
        self._origin = np.empty((ne, dim))
        self._B = np.empty((ne, dim, dim))
        self._Binv = np.empty((ne, dim, dim))
        self._detB = np.empty(ne)
        for e, el in enumerate(self.elements):
            V0 = self.vertices[el[0]]
            B = np.column_stack([self.vertices[el[k]] - V0 for k in range(1, dim + 1)])
            det = float(np.linalg.det(B))
            if det <= 0.0:
                raise ValueError(f"element {e} has non-positive orientation (det = {det:.3e})")
            self._origin[e] = V0
            self._B[e] = B
            self._Binv[e] = np.linalg.inv(B)
            self._detB[e] = det

        self._build_nodes()
        self._find_boundary()
        self._verify_node_coordinates()

    # ------------------------------------------------------------------

    def _build_nodes(self) -> None:
        nv = len(self.vertices)
        coords = [self.vertices[i] for i in range(nv)]
        edge_ids: dict[tuple[int, int], int] = {}
        element_nodes = np.empty((len(self.elements), self.ref.m), dtype=int)
        for e, el in enumerate(self.elements):
            for loc, alpha in enumerate(self.ref._alphas):
                support = np.nonzero(alpha)[0]
                if len(support) == 1:
                    element_nodes[e, loc] = el[support[0]]
                else:
                    a, b = sorted((int(el[support[0]]), int(el[support[1]])))
                    key = (a, b)
                    if key not in edge_ids:
                        edge_ids[key] = nv + len(edge_ids)
                        coords.append(0.5 * (self.vertices[a] + self.vertices[b]))
                    element_nodes[e, loc] = edge_ids[key]
        self.lagrange_nodes = np.array(coords)
        self.element_nodes = element_nodes
        self._edge_ids = edge_ids

    def _find_boundary(self) -> None:
        # faces are the (dim-1)-subsimplices opposite each local vertex
        face_count: dict[tuple[int, ...], int] = {}
        for el in self.elements:
            for k in range(self.dim + 1):
                face = tuple(sorted(int(v) for j, v in enumerate(el) if j != k))
                face_count[face] = face_count.get(face, 0) + 1
        nodes: set[int] = set()
        for face, count in face_count.items():
            if count != 1:
                continue
            nodes.update(face)
            if self.order == 2 and len(face) == 2:
                nodes.add(self._edge_ids[face])
        self.boundary_nodes = frozenset(nodes)

    def _verify_node_coordinates(self) -> None:
        # shared nodes must receive the same coordinate from every element
        for e in range(len(self.elements)):
            mapped = self._origin[e] + self.ref.nodes @ self._B[e].T
            stored = self.lagrange_nodes[self.element_nodes[e]]
            if np.max(np.abs(mapped - stored)) > 1e-12:
                raise ValueError(f"inconsistent Lagrange node coordinates on element {e}")

    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.lagrange_nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def xi_of(self, e: int, x) -> np.ndarray:
        """Reference coordinates of a domain point within element e."""
        x = np.asarray(x, dtype=float).reshape(self.dim)
        return self._Binv[e] @ (x - self._origin[e])

    def locate(self, x):
        """(element index, reference coordinates) of a domain point.

        Brute-force scan with a barycentric containment test; the first
        containing element wins.
        """
        for e in range(self.n_elements):
            xi = self.xi_of(e, x)
            if self.ref.contains(xi, tol=_LOCATE_TOL):
                return e, xi
        raise PointOutsideDomainError(f"point {np.asarray(x)} is outside the domain")


def unit_interval_grid(n_elements: int, order: int) -> Grid:
    """Uniform grid of [0, 1] with the given number of elements."""
    vertices = np.linspace(0.0, 1.0, n_elements + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n_elements), np.arange(1, n_elements + 1)])
    return Grid(1, vertices, elements, order)


def unit_square_grid(n_side: int, order: int) -> Grid:
    """Criss-cross triangulation of [0, 1]^2 with n_side x n_side cells."""
    pts = np.linspace(0.0, 1.0, n_side + 1)
    vertices = np.array([[x, y] for y in pts for x in pts])
    idx = lambda i, j: j * (n_side + 1) + i  # noqa: E731
    elements = []
    for j in range(n_side):
        for i in range(n_side):
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i + 1, j + 1), idx(i, j + 1)
            elements.append([a, b, c])
            elements.append([a, c, d])
    return Grid(2, vertices, np.array(elements), order)


# ----------------------------------------------------------------------
# global functions


class GFEFunction:
    """A grid plus one manifold value per Lagrange node plus a rule.

    ``rule`` selects geodesic or projection interpolation for every element
    restriction.  Construction validates every nodal value and, for
    geodesic interpolation on spheres, the per-element spread heuristic.
    """

    def __init__(self, grid: Grid, manifold: Manifold, rule: str, values):
        if rule not in _RULES:
            raise ValueError(f"rule must be one of {_RULES}")
        values = np.array(values, dtype=float)
        if values.shape != (grid.n_nodes,) + manifold.point_shape:
            raise ValueError(
                f"expected {grid.n_nodes} nodal values of shape {manifold.point_shape}"
            )
        for v in values:
            manifold.check_point(v)
        if rule == "geodesic" and isinstance(manifold, Sphere):
            for e in range(grid.n_elements):
                local = values[grid.element_nodes[e]]
                spread = karcher_check(manifold, local).max_pairwise_dist
                if spread > 0.9 * np.pi:
                    raise AdmissibilityError(
                        f"element {e}: nodal spread {spread:.4f} exceeds admissibility limit"
                    )
        self.grid = grid
        self.manifold = manifold
        self.rule = rule
        self.values = values

    @property
    def order(self) -> int:
        return self.grid.order

    def local(self, e: int):
        """The interpolant restricted to element e."""
        local_values = self.values[self.grid.element_nodes[e]]
        cls = GeodesicInterpolant if self.rule == "geodesic" else ProjectionInterpolant
        return cls(self.grid.ref, local_values, self.manifold)

    def evaluate(self, x, element: int | None = None) -> np.ndarray:
        """Value at a domain point (optionally within a prescribed element)."""
        e, xi = self.grid.locate(x) if element is None else (element, self.grid.xi_of(element, x))
        return self.local(e).eval(xi)

    def nodal_evaluate(self) -> np.ndarray:
        """Values at the Lagrange nodes — the algebraic representation itself."""
        return self.values.copy()

    def with_values(self, values) -> "GFEFunction":
        return GFEFunction(self.grid, self.manifold, self.rule, values)


class GlobalTestFunction:
    """A continuous vector field along a GFEFunction, one vector per node."""

    def __init__(self, base: GFEFunction, vectors):
        vectors = list(vectors)
        if len(vectors) != base.grid.n_nodes:
            raise ValueError(f"expected {base.grid.n_nodes} nodal vectors")
        for i, tv in enumerate(vectors):
            if not isinstance(tv, TangentVector):
                raise TypeError("nodal vectors must be TangentVector instances")
            if tv.manifold != base.manifold:
                raise ValueError("nodal vector lives on a different manifold")
            if not np.allclose(tv.base, base.values[i], atol=1e-12):
                raise ValueError(f"nodal vector {i} is not based at nodal value {i}")
        self.base = base
        self.vectors = vectors

    def local_field(self, e: int) -> ElementTestField:
        interp = self.base.local(e)
        local_vectors = tuple(self.vectors[g] for g in self.base.grid.element_nodes[e])
        return ElementTestField(interp, local_vectors)

    def evaluate(self, x, element: int | None = None) -> TangentVector:
        grid = self.base.grid
        e, xi = grid.locate(x) if element is None else (element, grid.xi_of(element, x))
        return self.local_field(e).eval_field(xi)


def zero_test_function(u: GFEFunction) -> GlobalTestFunction:
    man = u.manifold
    vectors = [TangentVector(man, v, np.zeros(man.point_shape)) for v in u.values]
    return GlobalTestFunction(u, vectors)


def global_nodal_basis(u: GFEFunction) -> list[GlobalTestFunction]:
    """The n*dim test functions carrying one basis vector at one node.

    Function (i, j) equals tangent_basis(u_i)[j] at Lagrange node i and the
    zero vector at all other nodes; they form a basis of the test space.
    """
    man = u.manifold
    bases = man.tangent_basis(u.values)
    out = []
    for i in range(u.grid.n_nodes):
        for j in range(man.intrinsic_dim):
            vectors = [
                TangentVector(
                    man, u.values[r], bases[i][j] if r == i else np.zeros(man.point_shape)
                )
                for r in range(u.grid.n_nodes)
            ]
            out.append(GlobalTestFunction(u, vectors))
    return out
