"""Interpolants and the test-function fields along them (generalized Jacobi fields).

``Interpolant`` is the base of both interpolation rules: it validates the
nodal values v_1..v_m and derives ``d_dxi`` and ``d_dv_all`` from what a
rule supplies, namely ``eval``, the center evaluation ``_center``, the
basis-field values ``_basis_values``, values and gradients
``_basis_gradients``, and ``_admit``.

An (m, *point_shape) array of nodal tangent vectors b_1..b_m (row i based at
the nodal value v_i) determines a vector field along the interpolant,

    field(xi) = sum_i d(interpolant)/d(v_i) . b_i,

which is exactly the velocity field of any curve of interpolants whose nodal
values move with velocities b_i.  Restricted to the Lagrange nodes the field
reproduces the b_i, so fields are in linear one-to-one correspondence with
their nodal data.  The m*dim nodal basis fields carry a single tangent basis
vector at a single node: their values are the columns of the matrices of
``d_dv_all``, and ``_basis_ref_gradients`` differentiates all of them at
once.  Field values and gradient columns come back as arrays, together
with the base point q = eval(xi) they are tangent at.

Reference-space gradients of fields are exact: the interpolant
differentiates its own derivative relation in xi, from the data of its
center evaluation (for the geodesic rule the Newton solve at xi and dq/dxi,
with the third derivatives of squared distance; for the projection rule
the weighted sum and the second derivative of the projection), so they add
no Newton solve, hold on the closed element and are expressed in
tangent_basis(q) coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import Manifold
from .reference_element import ReferenceElement


class Interpolant:
    """Interpolation of m manifold values on a reference element.

    The constructor validates one element's values, shape (m, *point_shape).
    With ``_checked=True`` it trusts already validated values, which may then
    carry leading batch axes (one set of m values per point).
    """

    def __init__(self, elem: ReferenceElement, values, manifold: Manifold, *, _checked=False):
        values = np.asarray(values, dtype=float)
        if not _checked:
            values = values.copy()
            if values.shape != (elem.m,) + manifold.point_shape:
                raise ValueError(
                    f"expected {elem.m} values of shape {manifold.point_shape}, "
                    f"got array of shape {values.shape}"
                )
            manifold.check_point(values)
            self._admit(manifold, values)
        self.elem = elem
        self.values = values
        self.manifold = manifold

    @staticmethod
    def _admit(manifold: Manifold, values) -> None:
        """Raise AdmissibilityError for values (..., m, *point_shape) the rule refuses."""

    def d_dxi(self, xi):
        """eval(xi) plus the columns d(interpolant)/d(xi_k), shape (..., d, *point_shape),
        tangent at eval(xi)."""
        c, cols = self._center(xi)
        return c.q, cols

    def d_dv_all(self, xi, q0=None):
        """eval(xi) plus all m derivative matrices d(interpolant)/d(v_i).

        Matrix i maps tangent_basis(v_i) coefficients to tangent_basis(q)
        coefficients; stacked shape (..., m, dim, dim).  Column j of matrix i
        is the value of nodal basis field (i, j).  ``q0`` warm-starts a
        Newton solve, e.g. from the interpolant at a nearby point.
        """
        xi = np.asarray(xi, dtype=float)
        c, _ = self._center(xi, q0)
        return c.q, np.swapaxes(self._basis_values(xi, c), -1, -2)


def _basis_ref_gradients(interp: Interpolant, xi, center=None):
    """Reference-space gradients of all nodal-basis fields at xi (..., d).

    Returns ``(center, G, V)``: the interpolant's center evaluation at xi
    (with ``q`` and ``basis`` = tangent_basis(q)), G of shape
    (..., m, dim, dim, d), where G[..., i, j, :, l] holds the
    tangent_basis(q) coefficients of the l-th reference derivative of basis
    field (i, j), and V (..., m, dim, dim), where V[..., i, j, :] holds
    those of the field's value.  A caller that already has the center at xi
    passes it, and no Newton solve is made.
    """
    xi = np.asarray(xi, dtype=float)
    center = interp._center(xi)[0] if center is None else center
    return (center, *interp._basis_gradients(xi, center))


def _nodal_vectors(base, vectors) -> np.ndarray:
    """vectors as a read-only array, after checking that row i is tangent at base.values[i]."""
    vectors = np.array(vectors, dtype=float)
    if vectors.shape != base.values.shape:
        raise ValueError(f"nodal vectors of shape {vectors.shape}, expected {base.values.shape}")
    base.manifold.check_tangent(base.values, vectors)
    vectors.flags.writeable = False
    return vectors


@dataclass(frozen=True, eq=False)
class ElementTestField:
    """An interpolant together with one tangent vector per Lagrange node: ``vectors``
    is an (m, *point_shape) array, row i based at the interpolant's nodal value i."""

    interp: Interpolant
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", _nodal_vectors(self.interp, self.vectors))

    def _coefficients(self) -> np.ndarray:
        """tangent_basis(v_i) coefficients of the nodal vectors, shape (m, dim)."""
        man = self.interp.manifold
        B = man._flat(man.tangent_basis(self.interp.values))
        return np.einsum("ijn,in->ij", B, man._flat(self.vectors))

    # ------------------------------------------------------------------

    def eval_field(self, xi):
        """(q, vec): the field value at xi, tangent at q = eval(xi)."""
        man = self.interp.manifold
        q, mats = self.interp.d_dv_all(xi)
        coeff = np.einsum("ikj,ij->k", mats, self._coefficients())
        return q, np.tensordot(coeff, man.tangent_basis(q), axes=1)

    def eval_field_gradient(self, xi):
        """(q, cols): the reference-space gradient columns of the field at xi,
        shape (d, *point_shape), tangent at q = eval(xi); exact, and valid on
        the closed element."""
        man = self.interp.manifold
        c, G, _ = _basis_ref_gradients(self.interp, xi)
        coeff = np.einsum("ijal,ij->la", G, self._coefficients())
        return c.q, (coeff @ man._flat(c.basis)).reshape((len(coeff),) + man.point_shape)
