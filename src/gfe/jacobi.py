"""Test-function fields along an interpolant (generalized Jacobi fields).

A set of nodal tangent vectors b_1..b_m (one per Lagrange node, based at the
nodal values) determines a vector field along the interpolant,

    field(xi) = sum_i d(interpolant)/d(v_i) . b_i,

which is exactly the velocity field of any curve of interpolants whose nodal
values move with velocities b_i.  Restricted to the Lagrange nodes the field
reproduces the b_i, so fields are in linear one-to-one correspondence with
their nodal data; ``nodal_basis_fields`` returns the m*dim fields carrying a
single tangent basis vector at a single node.

Reference-space gradients of fields are evaluated by central finite
differences (default step 1e-6) with the columns projected back to the
tangent space at the field's base point.  All 2*d stencil points of all
centers of a batch are solved in one lockstep batch, warm-started from the
centers.  On flat space the fields are plain Lagrange combinations and the
gradient is assembled exactly from the shape function gradients instead,
which keeps the flat reduction accurate to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StencilOutsideElementError
from .geodesic import GeodesicInterpolant
from .manifold import Euclidean, TangentVector
from .projection import ProjectionInterpolant

Interpolant = GeodesicInterpolant | ProjectionInterpolant

_FD_STEP = 1e-6
_STENCIL_MARGIN = 1e-5


def _basis_values(interp: Interpolant, xi, q0=None):
    """Embedded values of all nodal-basis fields at xi.

    Returns ``(q, V)`` with V of shape (..., m, N, dim): column j of V[i] is
    the field that carries tangent_basis(v_i)[j] at node i and zero
    elsewhere.  ``q0`` warm-starts the center solve of the geodesic rule.
    """
    man = interp.manifold
    q, mats = interp.d_dv_all(xi, q0)
    # V[i, :, j] = sum_k mats[i][k, j] * Eq[k]
    V = np.swapaxes(man._flat(man.tangent_basis(q)), -1, -2)[..., None, :, :] @ mats
    return q, V


def _basis_ref_gradients(interp: Interpolant, xi, h: float = _FD_STEP, q=None):
    """Reference-space gradients of all nodal-basis fields at xi (..., d).

    Returns ``(q, G)`` with G of shape (..., m, N, dim, d); G[i, :, j, l] is
    the l-th reference derivative of basis field (i, j), tangentially
    projected at q = eval(xi).  A caller that already has eval(xi) passes it
    as ``q``; it also warm-starts the stencil solves.
    """
    man = interp.manifold
    elem = interp.elem
    d = elem.dim
    k = len(man.point_shape)
    xi = np.asarray(xi, dtype=float)
    q = interp.eval(xi) if q is None else q

    if isinstance(man, Euclidean):
        # flat fields are classical Lagrange combinations; differentiate exactly
        dphi = elem.shape_gradients(xi)                # (..., m, d)
        B = man.tangent_basis(interp.values)           # (..., m, dim, k)
        return q, np.swapaxes(B, -1, -2)[..., None] * dphi[..., :, None, None, :]

    lam_min = elem.barycentric(xi).min(axis=-1)
    margin = max(_STENCIL_MARGIN, 2.0 * h)
    if (lam_min < margin).any():
        raise StencilOutsideElementError(
            f"reference point is {float(lam_min[lam_min < margin].flat[0]):.2e} from the "
            f"boundary; a step-{h:.0e} stencil needs a margin of {margin:.0e}"
        )

    # stencil axis before the node axis: points xi + h*e_l, then xi - h*e_l
    steps = h * np.concatenate([np.eye(d), -np.eye(d)])
    stencil = type(interp)(elem, np.expand_dims(interp.values, -k - 2), man, _checked=True)
    _, V = _basis_values(stencil, xi[..., None, :] + steps, np.expand_dims(q, -k - 1))
    diff = np.swapaxes((V[..., :d, :, :, :] - V[..., d:, :, :, :]) / (2.0 * h), -1, -2)
    lead = diff.shape[:-1]                                    # (..., d, m, dim)
    tangential = man.project_tangent(
        q.reshape(q.shape[: q.ndim - k] + (1, 1, 1) + man.point_shape),
        diff.reshape(lead + man.point_shape),
    )
    G = np.moveaxis(np.swapaxes(man._flat(tangential), -1, -2), -4, -1)
    return q, G


def _nodal_coefficients(man, values, vecs) -> np.ndarray:
    """tangent_basis(values[i]) coefficients of the embedded vectors vecs[i], shape (n, dim)."""
    return np.einsum("ijn,in->ij", man._flat(man.tangent_basis(values)), man._flat(vecs))


def _check_nodal_vectors(vectors, manifold, values) -> tuple:
    """The vectors as a tuple, after checking they are TangentVectors based at the values."""
    vectors = tuple(vectors)
    if len(vectors) != len(values):
        raise ValueError(f"expected {len(values)} nodal vectors, got {len(vectors)}")
    for tv in vectors:
        if not isinstance(tv, TangentVector):
            raise TypeError("nodal vectors must be TangentVector instances")
        if tv.manifold != manifold:
            raise ValueError("nodal vector lives on a different manifold")
    based = np.isclose([tv.base for tv in vectors], values, atol=1e-12)
    off = np.flatnonzero(~based.reshape(len(vectors), -1).all(axis=1))
    if len(off):
        raise ValueError(f"nodal vector {off[0]} is not based at nodal value {off[0]}")
    return vectors


@dataclass(frozen=True)
class ElementTestField:
    """An interpolant together with one tangent vector per Lagrange node."""

    interp: Interpolant
    vectors: tuple

    def __post_init__(self):
        vectors = _check_nodal_vectors(self.vectors, self.interp.manifold, self.interp.values)
        object.__setattr__(self, "vectors", vectors)

    def _coefficients(self) -> np.ndarray:
        interp = self.interp
        return _nodal_coefficients(interp.manifold, interp.values, [tv.vec for tv in self.vectors])

    # ------------------------------------------------------------------

    def eval_field(self, xi) -> TangentVector:
        """Field value at xi, a tangent vector at the interpolated point."""
        man = self.interp.manifold
        q, mats = self.interp.d_dv_all(xi)
        coeff = np.einsum("ikj,ij->k", mats, self._coefficients())
        vec = np.tensordot(coeff, man.tangent_basis(q), axes=1)
        return TangentVector(man, q, vec)

    def eval_field_gradient(self, xi, h: float = _FD_STEP) -> list[TangentVector]:
        """Reference-space gradient columns of the field at xi.

        Central differences with step h; requires xi to sit at least
        max(1e-5, 2h) inside the element in barycentric coordinates.
        """
        man = self.interp.manifold
        q, G = _basis_ref_gradients(self.interp, xi, h=h)
        cols = np.einsum("injl,ij->ln", G, self._coefficients())
        return [TangentVector(man, q, c.reshape(man.point_shape)) for c in cols]


def nodal_basis_fields(interp: Interpolant) -> list[ElementTestField]:
    """The m*dim fields carrying one tangent basis vector at one node.

    Field (i, j) equals tangent_basis(v_i)[j] at Lagrange node i and the
    zero vector at every other node; together they span all test fields of
    the interpolant.
    """
    man = interp.manifold
    fields = []
    bases = man.tangent_basis(interp.values)
    for i in range(interp.elem.m):
        for j in range(man.intrinsic_dim):
            vectors = []
            for r in range(interp.elem.m):
                vec = bases[i][j] if r == i else np.zeros(man.point_shape)
                vectors.append(TangentVector(man, interp.values[r], vec))
            fields.append(ElementTestField(interp, tuple(vectors)))
    return fields
