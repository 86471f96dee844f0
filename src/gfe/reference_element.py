"""Scalar Lagrange machinery on reference simplices.

The reference simplex in d dimensions is {xi >= 0, sum(xi) <= 1}.  Nodes are
the equispaced lattice points with denominator p (vertices for p = 1, plus
edge midpoints for p = 2), enumerated lexicographically with the last
reference coordinate slowest, so the 1d quadratic element has nodes at
0, 1/2, 1 in that order.  Shape functions are the classical barycentric
closed forms, which satisfy the Kronecker property exactly as evaluated.

Reference points may carry leading axes: ``xi`` of shape (..., d) gives
shape values (..., m) and gradients (..., m, d).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import OutsideElementError

_INSIDE_TOL = 1e-12


class ReferenceElement:
    """Lagrange nodes and shape functions on the unit simplex.

    Attributes
    ----------
    dim : int
        Spatial dimension d (1, 2 or 3).
    order : int
        Polynomial order p (1 or 2).
    m : int
        Number of Lagrange nodes, binomial(d + p, p).
    nodes : ndarray, shape (m, d)
        Node coordinates in the reference simplex.
    """

    def __init__(self, dim: int, order: int):
        if dim not in (1, 2, 3):
            raise ValueError(f"unsupported reference dimension {dim}")
        if order not in (1, 2):
            raise ValueError(f"unsupported polynomial order {order}")
        self.dim = dim
        self.order = order

        lattice = sorted(
            (idx for idx in itertools.product(range(order + 1), repeat=dim) if sum(idx) <= order),
            key=lambda idx: idx[::-1],
        )
        self.nodes = np.array(lattice, dtype=float) / order
        self.m = len(lattice)

        # Barycentric multi-index per node: alpha_0 counts the vertex at the
        # origin, alpha_k (k >= 1) the k-th coordinate vertex; |alpha| = p.
        self._alphas = np.array(
            [(self.order - sum(idx),) + idx for idx in lattice], dtype=int
        )
        # per node: the first and last barycentric index in its support, and
        # whether that support is a single vertex
        support = [np.flatnonzero(alpha) for alpha in self._alphas]
        self._first = np.array([s[0] for s in support])
        self._last = np.array([s[-1] for s in support])
        self._vertex = np.array([len(s) == 1 for s in support])

    # ------------------------------------------------------------------

    def barycentric(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1:] != (self.dim,):
            xi = xi.reshape(self.dim)
        return np.concatenate([1.0 - xi.sum(axis=-1, keepdims=True), xi], axis=-1)

    def contains(self, xi) -> bool:
        """Whether xi (every point of a batch) lies in the simplex, up to 1e-12."""
        return bool(self.barycentric(xi).min() >= -_INSIDE_TOL)

    def _require_inside(self, xi) -> np.ndarray:
        lam = self.barycentric(xi)
        outside = lam.min(axis=-1) < -_INSIDE_TOL
        if outside.any():
            first = lam[outside].reshape(-1, self.dim + 1)[0, 1:]
            raise OutsideElementError(f"reference point {first} lies outside the closed simplex")
        return lam

    # ------------------------------------------------------------------

    def shape_values(self, xi) -> np.ndarray:
        """Values (phi_1(xi), ..., phi_m(xi)); sums to 1 by partition of unity.
        A batch comes back in C order, as a single point does, so that products
        with it take the same numpy loops point by point."""
        lam = self._require_inside(xi)
        a, b = lam.take(self._first, -1), lam.take(self._last, -1)
        if self.order == 1:
            return a
        return np.where(self._vertex, a * (2.0 * a - 1.0), 4.0 * a * b)

    def shape_gradients(self, xi) -> np.ndarray:
        """Reference gradients, shape (..., m, d), in C order; rows sum to the zero vector."""
        lam = self._require_inside(xi)
        lead = lam.shape[:-1]
        # gradients of the barycentric coordinates
        glam = np.vstack([-np.ones(self.dim), np.eye(self.dim)])
        ga, gb = glam[self._first], glam[self._last]
        if self.order == 1:
            return np.broadcast_to(ga, lead + ga.shape).copy()
        a, b = lam.take(self._first, -1)[..., None], lam.take(self._last, -1)[..., None]
        return np.where(self._vertex[:, None], (4.0 * a - 1.0) * ga, 4.0 * (b * ga + a * gb))

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"ReferenceElement(dim={self.dim}, order={self.order}, m={self.m})"
