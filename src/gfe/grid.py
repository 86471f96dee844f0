"""Conforming simplicial grids and global manifold-valued functions.

A ``Grid`` holds the mesh (vertices plus simplices), the global Lagrange
node layout for a chosen order, and the affine maps between each element and
the reference simplex.  Global Lagrange nodes are built topologically
(vertex nodes, plus one node per global edge at order 2), so two elements
sharing a face index the same global nodes and continuity of the assembled
functions holds by construction; the test-suite additionally verifies it
numerically with two-sided face evaluations.

``GFEFunction`` attaches one manifold value per global node and an
interpolation rule (geodesic or projection), validated once, as arrays; its
restriction to an element is the corresponding local interpolant, evaluated
after pulling domain points back to reference coordinates.  Restricted to an
array of elements it is one interpolant stacked over them, which evaluates
(element, reference point) pairs in one batch.  ``GlobalTestFunction``
attaches an (n, *point_shape) array of nodal tangent vectors, row i based at
the nodal value u_i, and evaluates through the element test fields; the
nodal basis function (i, j) is the one-hot array carrying tangent_basis(u_i)[j]
at node i.

Mesh files are plain text: a header line ``gfe-mesh d``, the vertex count
followed by one coordinate line per vertex, then the element count followed
by one line of d+1 zero-based vertex indices per element, no two with the
same vertices.  ``#`` starts a comment; ``_text_rows`` reads the lines of
meshes and of the CLI's CSVs alike.
"""

from __future__ import annotations

import functools
from collections import Counter

import numpy as np

from .errors import PointOutsideDomainError
from .geodesic import GeodesicInterpolant
from .jacobi import ElementTestField, _nodal_vectors
from .manifold import Manifold
from .projection import ProjectionInterpolant
from .reference_element import _INSIDE_TOL, ReferenceElement

_RULES = {"geodesic": GeodesicInterpolant, "projection": ProjectionInterpolant}


# ----------------------------------------------------------------------
# mesh I/O


def _finite_float(token: str) -> float:
    """float(token), refusing NaN and infinities."""
    if not np.isfinite(x := float(token)):
        raise ValueError(f"non-finite number {token!r}")
    return x


def _text_rows(path, sep=None):
    """(number, tokens) of each line of the UTF-8 text file path that has text before
    its ``#``: that text split at sep (at whitespace for None), each token stripped.
    A byte that is not UTF-8, on any line, is a ValueError naming the file and the line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for n, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")    # an undecodable byte b is the lone surrogate U+DC00 + b
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise ValueError(f"{path}: line {n}: not UTF-8 text (byte {byte:#04x})") from None
            text = line.split("#", 1)[0]
            if text.strip():
                yield n, [t.strip() for t in text.split(sep)]


def read_mesh(path, lines: bool = False):
    """Read a mesh file; returns (dim, vertices, elements), and with ``lines``
    also the file line of each element row.  Errors name the line."""
    rows = list(_text_rows(path))
    if not rows or not rows[0][1][0].startswith("gfe-mesh") or len(rows[0][1]) < 2:
        raise ValueError(f"{path}: missing 'gfe-mesh d' header")
    pos = 0

    def numbers(convert, count):
        """The next line, as ``count`` numbers."""
        nonlocal pos
        pos += 1
        tokens = rows[pos][1]
        if len(tokens) != count:
            raise ValueError(f"wrong number of entries: expected {count}, got {len(tokens)}")
        return [convert(t) for t in tokens]

    def count():
        (n,) = numbers(int, 1)
        if n < 0:
            raise ValueError(f"negative count {n}")
        return n

    try:
        dim = int(rows[0][1][1])
        if dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {dim}")
        nv = count()
        vertices = np.array([numbers(_finite_float, dim) for _ in range(nv)]).reshape(nv, dim)
        ne = count()
        elements = np.array([numbers(int, dim + 1) for _ in range(ne)], dtype=int)
    except IndexError:
        raise ValueError(f"{path}: malformed mesh: the file ends at line {rows[-1][0]}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: line {rows[pos][0]}: malformed mesh: {exc}") from None
    if ne < 1:
        raise ValueError(f"{path}: mesh has no elements")
    element_lines = [n for n, _ in rows[pos - ne + 1: pos + 1]]   # the element rows end at pos
    return (dim, vertices, elements, element_lines) if lines else (dim, vertices, elements)


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
    n_nodes, n_elements : int, the numbers of Lagrange nodes and elements
    boundary_nodes : frozenset of global node indices on the domain boundary

    Vertices must be an (nv, dim) array of finite coordinates and elements
    an (ne, dim+1) array of integers in 0..nv-1; every element must be
    positively oriented, no two elements may have the same vertices (in any
    order) and every vertex must belong to an element.  Otherwise the
    constructor raises ValueError, naming the file line of an element with an
    index that is not an integer, an index out of range, the vertices of an
    earlier element or a degenerate one when ``element_lines`` (one per
    element row, as ``read_mesh(path, lines=True)`` returns them) is given.
    """

    def __init__(self, dim: int, vertices, elements, order: int, element_lines=None):
        if dim not in (1, 2):
            raise ValueError(f"grids support dim 1 and 2, got {dim}")
        if order not in (1, 2):
            raise ValueError(f"grids support order 1 and 2, got {order}")
        self.dim = dim
        self.order = order
        self.vertices = np.array(vertices, dtype=float)
        elements = np.array(elements, dtype=float)     # cast to int once every entry is an index
        if self.vertices.ndim != 2 or self.vertices.shape[1] != dim:
            raise ValueError(f"vertices must have shape (nv, {dim}), got {self.vertices.shape}")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertices must have finite coordinates")
        if elements.ndim != 2 or elements.shape[1] != dim + 1:
            raise ValueError(f"elements must have shape (ne, {dim + 1}), got {elements.shape}")
        self.n_elements = len(elements)
        self.ref = ReferenceElement(dim, order)
        nv = len(self.vertices)
        where = lambda e: "" if element_lines is None else f"line {element_lines[e]}: "   # noqa: E731
        for bad, what in ((elements != np.round(elements), "a vertex index that is not an integer"),  # NaN too
                          ((elements < 0) | (elements >= nv), f"a vertex index outside 0..{nv - 1}")):
            if bad.any():
                e = bad.any(axis=1).argmax()
                raise ValueError(f"{where(e)}element {e} has {what}")
        self.elements = elements.astype(int)
        # a repeated element, its vertices in any order, would count its integrals twice; a dict, as no
        # numpy sort: the first one in a process pages in its kernels, 128-384 KB of resident memory
        first: dict[tuple, int] = {}
        for e, el in enumerate(self.elements.tolist()):
            if (f := first.setdefault(tuple(sorted(el)), e)) != e:
                raise ValueError(f"{where(e)}element {e} repeats the vertices of element {f}")

        # affine maps x = V0 + B xi, with positive orientation required
        self._origin = self.vertices[self.elements[:, 0]]
        self._B = np.swapaxes(self.vertices[self.elements[:, 1:]] - self._origin[:, None], 1, 2)
        self._detB = np.linalg.det(self._B)
        flipped = np.flatnonzero(self._detB <= 0.0)
        if len(flipped):
            e = flipped[0]
            raise ValueError(f"{where(e)}element {e} has non-positive orientation (det = {self._detB[e]:.3e})")
        self._Binv = np.linalg.inv(self._B)
        uses = np.bincount(self.elements.ravel(), minlength=nv)
        if uses.min(initial=1) == 0:
            raise ValueError(f"vertex {np.argmin(uses)} belongs to no element")

        self._build_nodes()
        self._find_boundary()
        self._layouts = {}   # energy._layout's quadrature layouts, by intrinsic dimension

    # ------------------------------------------------------------------

    def _build_nodes(self) -> None:
        # a vertex node is its vertex; an edge node is numbered after the
        # vertices, in the order the edges first appear
        nv = len(self.vertices)
        edge_ids: dict[tuple[int, int], int] = {}
        ends = np.stack([self.elements[:, self.ref._first], self.elements[:, self.ref._last]], axis=-1)
        self.element_nodes = np.array(
            [[a if a == b else edge_ids.setdefault((min(a, b), max(a, b)), nv + len(edge_ids)) for a, b in el]
             for el in ends.tolist()], dtype=int).reshape(ends.shape[:2])
        a, b = np.array(list(edge_ids), dtype=int).reshape(-1, 2).T
        self.lagrange_nodes = np.concatenate([self.vertices, 0.5 * (self.vertices[a] + self.vertices[b])])
        self.n_nodes = len(self.lagrange_nodes)
        self._edge_ids = edge_ids

    def _find_boundary(self) -> None:
        # faces are the (dim-1)-subsimplices opposite each local vertex; one
        # on the boundary belongs to one element
        count = Counter(tuple(sorted(el[:k] + el[k + 1:]))
                        for el in self.elements.tolist() for k in range(self.dim + 1))
        faces = [face for face, c in count.items() if c == 1]
        nodes = {i for face in faces for i in face}
        if self.order == 2 and self.dim == 2:
            nodes.update(self._edge_ids[face] for face in faces)
        self.boundary_nodes = frozenset(nodes)

    # ------------------------------------------------------------------

    def _pairs(self, n_points: int):
        """(elements, point indices) of all (element, point) pairs, element-major."""
        return (
            np.repeat(np.arange(self.n_elements), n_points),
            np.tile(np.arange(n_points), self.n_elements),
        )

    def xi_of(self, e: int, x) -> np.ndarray:
        """Reference coordinates of a domain point within element e."""
        x = np.asarray(x, dtype=float).reshape(self.dim)
        return self._Binv[e] @ (x - self._origin[e])

    def locate(self, x):
        """(element index, reference coordinates) of a domain point.

        A barycentric containment test in every element at once; the first
        containing element wins.
        """
        xi = (self._Binv @ (np.reshape(x, self.dim) - self._origin)[:, :, None])[:, :, 0]
        inside = np.flatnonzero(self.ref.barycentric(xi).min(axis=-1) >= -_INSIDE_TOL)
        if len(inside) == 0:
            raise PointOutsideDomainError(f"point {np.asarray(x)} is outside the domain")
        return int(inside[0]), self.xi_of(inside[0], x)


def unit_interval_grid(n_elements: int, order: int) -> Grid:
    """Uniform grid of [0, 1] with the given number of elements."""
    vertices = np.linspace(0.0, 1.0, n_elements + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n_elements), np.arange(1, n_elements + 1)])
    return Grid(1, vertices, elements, order)


def unit_square_grid(n_side: int, order: int) -> Grid:
    """Criss-cross triangulation of [0, 1]^2 with n_side x n_side cells."""
    pts = np.linspace(0.0, 1.0, n_side + 1)
    vertices = np.array([[x, y] for y in pts for x in pts])
    # per cell, row by row: corners a, b, c, d counterclockwise from the lower left
    a = (np.arange(n_side)[:, None] * (n_side + 1) + np.arange(n_side)).ravel()
    b, c, d = a + 1, a + n_side + 2, a + n_side + 1
    return Grid(2, vertices, np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3), order)


# ----------------------------------------------------------------------
# global functions


class GFEFunction:
    """A grid plus one manifold value per Lagrange node plus a rule.

    ``rule`` selects geodesic or projection interpolation for every element
    restriction.  Construction validates every nodal value and, with the
    rule's ``_admit``, every element (the geodesic rule's sphere spread check);
    ``values`` is then read-only, and restrictions are not validated again.
    It keeps its nodal frames and the quadrature record of its first assembly
    (``energy._assembly``), so later energy and gradient calls reuse that center solve.
    """

    def __init__(self, grid: Grid, manifold: Manifold, rule: str, values):
        if rule not in _RULES:
            raise ValueError(f"rule must be one of {tuple(_RULES)}")
        values = np.array(values, dtype=float)
        if values.shape != (grid.n_nodes,) + manifold.point_shape:
            raise ValueError(
                f"expected {grid.n_nodes} nodal values of shape {manifold.point_shape}"
            )
        manifold.check_point(values)
        _RULES[rule]._admit(manifold, values[grid.element_nodes])
        values.flags.writeable = False
        self.grid = grid
        self.manifold = manifold
        self.rule = rule
        self.values = values
        self._assembly = None
        # tangent_basis(values), read-only, on first call; no reference to self, so its readers make no cycle
        self._frames = functools.cache(
            lambda: np.lib.stride_tricks.as_strided(manifold.tangent_basis(values), writeable=False))

    def local(self, e):
        """The interpolant restricted to element e.

        For an array of elements, one interpolant stacked over them: its
        values have shape (len(e), m, *point_shape), and reference points
        (len(e), d) evaluate pairwise.
        """
        nodes, frames = self.grid.element_nodes[e], self._frames
        return _RULES[self.rule](self.grid.ref, self.values[nodes], self.manifold, _checked=True,
                                 _frames_of=lambda: frames()[nodes])

    def evaluate(self, x, element: int | None = None) -> np.ndarray:
        """Value at a domain point (optionally within a prescribed element)."""
        e, xi = self.grid.locate(x) if element is None else (element, self.grid.xi_of(element, x))
        return self.local(e).eval(xi)

    def with_values(self, values) -> "GFEFunction":
        return GFEFunction(self.grid, self.manifold, self.rule, values)


class GlobalTestFunction:
    """A continuous vector field along a GFEFunction, one vector per node: ``vectors``
    is a read-only (n, *point_shape) array, row i based at the nodal value u_i."""

    def __init__(self, base: GFEFunction, vectors):
        self.base = base
        self.vectors = _nodal_vectors(base, vectors)

    def local_field(self, e: int) -> ElementTestField:
        return ElementTestField(self.base.local(e), self.vectors[self.base.grid.element_nodes[e]])

    def evaluate(self, x, element: int | None = None):
        """(q, vec): the field at a domain point, tangent at q = base.evaluate(x)."""
        grid = self.base.grid
        e, xi = grid.locate(x) if element is None else (element, grid.xi_of(element, x))
        return self.local_field(e).eval_field(xi)
