"""Test-function fields along an interpolant (generalized Jacobi fields).

An (m, *point_shape) array of nodal tangent vectors b_1..b_m (row i based at
the nodal value v_i) determines a vector field along the interpolant,

    field(xi) = sum_i d(interpolant)/d(v_i) . b_i,

which is exactly the velocity field of any curve of interpolants whose nodal
values move with velocities b_i.  Restricted to the Lagrange nodes the field
reproduces the b_i, so fields are in linear one-to-one correspondence with
their nodal data.  The m*dim nodal basis fields carry a single tangent basis
vector at a single node; ``_basis_ref_gradients`` differentiates all of them
at once.  Field values and gradient columns come back as arrays, together
with the base point q = eval(xi) they are tangent at.

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
from .manifold import Euclidean
from .projection import ProjectionInterpolant

Interpolant = GeodesicInterpolant | ProjectionInterpolant

_FD_STEP = 1e-6
_STENCIL_MARGIN = 1e-5


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
    qs, mats = stencil.d_dv_all(xi[..., None, :] + steps, np.expand_dims(q, -k - 1))
    # embedded values of the basis fields: V[..., i, :, j] = sum_k mats[..., i, k, j] * Eq[k]
    V = np.swapaxes(man._flat(man.tangent_basis(qs)), -1, -2)[..., None, :, :] @ mats
    diff = np.swapaxes((V[..., :d, :, :, :] - V[..., d:, :, :, :]) / (2.0 * h), -1, -2)
    lead = diff.shape[:-1]                                    # (..., d, m, dim)
    tangential = man.project_tangent(
        q.reshape(q.shape[: q.ndim - k] + (1, 1, 1) + man.point_shape),
        diff.reshape(lead + man.point_shape),
    )
    G = np.moveaxis(np.swapaxes(man._flat(tangential), -1, -2), -4, -1)
    return q, G


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
        shape (d, *point_shape), tangent at q = eval(xi).

        Central differences with step 1e-6; requires xi to sit at least 1e-5
        inside the element in barycentric coordinates.
        """
        man = self.interp.manifold
        q, G = _basis_ref_gradients(self.interp, xi)
        cols = np.einsum("injl,ij->ln", G, self._coefficients())
        return q, cols.reshape((len(cols),) + man.point_shape)
