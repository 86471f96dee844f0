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
tangent space at the field's base point.  On flat space the fields are plain
Lagrange combinations and the gradient is assembled exactly from the shape
function gradients instead, which keeps the flat reduction accurate to
machine precision.
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

    Returns ``(q, V)`` with V of shape (m, N, dim): column j of V[i] is the
    field that carries tangent_basis(v_i)[j] at node i and zero elsewhere.
    ``q0`` warm-starts the center solve of the geodesic rule.
    """
    man = interp.manifold
    dim = man.intrinsic_dim
    q, mats = interp.d_dv_all(xi, q0)
    Eq = man.tangent_basis(q).reshape(dim, -1)
    # V[i, :, j] = sum_k mats[i][k, j] * Eq[k]
    V = np.einsum("kn,ikj->inj", Eq, mats)
    return q, V


def _basis_ref_gradients(interp: Interpolant, xi, h: float = _FD_STEP, q=None):
    """Reference-space gradients of all nodal-basis fields at xi.

    Returns ``(q, G)`` with G of shape (m, N, dim, d); G[i, :, j, l] is the
    l-th reference derivative of basis field (i, j), tangentially projected
    at q = eval(xi).  A caller that already has eval(xi) passes it as ``q``;
    it also warm-starts the stencil solves.
    """
    man = interp.manifold
    elem = interp.elem
    d = elem.dim
    dim = man.intrinsic_dim
    N = man.embed_dim
    q = interp.eval(xi) if q is None else q

    if isinstance(man, Euclidean):
        # flat fields are classical Lagrange combinations; differentiate exactly
        dphi = elem.shape_gradients(xi)                # (m, d)
        B = man.tangent_basis(interp.values)           # (m, dim, k)
        G = np.einsum("il,ijn->injl", dphi, B)
        return q, G

    lam_min = float(elem.barycentric(xi).min())
    margin = max(_STENCIL_MARGIN, 2.0 * h)
    if lam_min < margin:
        raise StencilOutsideElementError(
            f"reference point is {lam_min:.2e} from the boundary; "
            f"a step-{h:.0e} stencil needs a margin of {margin:.0e}"
        )

    xi = np.asarray(xi, dtype=float).reshape(d)
    G = np.empty((elem.m, N, dim, d))
    for l in range(d):
        step = np.zeros(d)
        step[l] = h
        _, Vp = _basis_values(interp, xi + step, q)
        _, Vm = _basis_values(interp, xi - step, q)
        diff = np.swapaxes((Vp - Vm) / (2.0 * h), 1, 2)   # (m, dim, N)
        tangential = man.project_tangent(q, diff.reshape((elem.m, dim) + man.point_shape))
        G[:, :, :, l] = np.swapaxes(tangential.reshape(elem.m, dim, N), 1, 2)
    return q, G


def _nodal_coefficients(interp: Interpolant, vectors) -> np.ndarray:
    """Tangent-basis coefficients of the nodal vectors, shape (m, dim)."""
    man = interp.manifold
    B = man.tangent_basis(interp.values).reshape(interp.elem.m, man.intrinsic_dim, -1)
    vecs = np.array([tv.vec.reshape(-1) for tv in vectors])
    return np.einsum("ijn,in->ij", B, vecs)


@dataclass(frozen=True)
class ElementTestField:
    """An interpolant together with one tangent vector per Lagrange node."""

    interp: Interpolant
    vectors: tuple

    def __post_init__(self):
        vectors = tuple(self.vectors)
        object.__setattr__(self, "vectors", vectors)
        interp = self.interp
        if len(vectors) != interp.elem.m:
            raise ValueError(f"expected {interp.elem.m} nodal vectors, got {len(vectors)}")
        for i, tv in enumerate(vectors):
            if not isinstance(tv, TangentVector):
                raise TypeError("nodal vectors must be TangentVector instances")
            if tv.manifold != interp.manifold:
                raise ValueError("nodal vector lives on a different manifold")
            if not np.allclose(tv.base, interp.values[i], atol=1e-12):
                raise ValueError(f"nodal vector {i} is not based at nodal value {i}")

    # ------------------------------------------------------------------

    def eval_field(self, xi) -> TangentVector:
        """Field value at xi, a tangent vector at the interpolated point."""
        man = self.interp.manifold
        q, mats = self.interp.d_dv_all(xi)
        coeff = np.einsum("ikj,ij->k", mats, _nodal_coefficients(self.interp, self.vectors))
        vec = np.tensordot(coeff, man.tangent_basis(q), axes=1)
        return TangentVector(man, q, vec)

    def eval_field_gradient(self, xi, h: float = _FD_STEP) -> list[TangentVector]:
        """Reference-space gradient columns of the field at xi.

        Central differences with step h; requires xi to sit at least
        max(1e-5, 2h) inside the element in barycentric coordinates.
        """
        man = self.interp.manifold
        q, G = _basis_ref_gradients(self.interp, xi, h=h)
        beta = _nodal_coefficients(self.interp, self.vectors)
        cols = []
        for l in range(self.interp.elem.dim):
            vec = np.einsum("inj,ij->n", G[:, :, :, l], beta)
            cols.append(TangentVector(man, q, vec.reshape(man.point_shape)))
        return cols


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
