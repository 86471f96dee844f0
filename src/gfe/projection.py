"""Projection-based interpolation: interpolate in the embedding, then project.

The interpolant is P(sum_i phi_i(xi) * v_i) with P the closest-point
projection of the manifold (normalization for spheres, polar decomposition
for rotations, identity for flat space).  Derivatives follow from the chain
rule through the projection Jacobian; no nonlinear solve is involved.
"""

from __future__ import annotations

import numpy as np

from .manifold import Manifold, TangentVector
from .reference_element import ReferenceElement


class ProjectionInterpolant:
    """Embed-interpolate-project interpolation of m manifold values."""

    def __init__(self, elem: ReferenceElement, values, manifold: Manifold):
        values = np.array(values, dtype=float)
        if values.shape != (elem.m,) + manifold.point_shape:
            raise ValueError(
                f"expected {elem.m} values of shape {manifold.point_shape}, "
                f"got array of shape {values.shape}"
            )
        for v in values:
            manifold.check_point(v)
        self.elem = elem
        self.values = values
        self.manifold = manifold

    # ------------------------------------------------------------------

    def _weighted_sum(self, xi) -> np.ndarray:
        weights = self.elem.shape_values(xi)
        return np.tensordot(weights, self.values, axes=1)

    def eval(self, xi) -> np.ndarray:
        """P applied to the weighted embedding sum.

        Raises ProjectionUndefinedError when the sum leaves the projection's
        domain (e.g. it vanishes for sphere values straddling antipodes).
        """
        return self.manifold.project_point(self._weighted_sum(xi))

    def d_dxi(self, xi) -> list[TangentVector]:
        """Chain rule: dP/dw at the weighted sum times the sum's xi-derivative."""
        man = self.manifold
        w = self._weighted_sum(xi)
        q = man.project_point(w)
        J = man.projection_jacobian(w)
        dphi = self.elem.shape_gradients(xi)           # (m, d)
        dsum = np.tensordot(dphi.T, self.values, axes=1)  # (d, *point_shape)
        cols = []
        for k in range(self.elem.dim):
            vec = (J @ dsum[k].reshape(-1)).reshape(man.point_shape)
            cols.append(TangentVector(man, q, vec))
        return cols

    def d_dv_all(self, xi, q0=None):
        """eval(xi) plus all m nodal derivative matrices (tangent bases); q0 is unused."""
        man = self.manifold
        dim = man.intrinsic_dim
        weights = self.elem.shape_values(xi)
        w = self._weighted_sum(xi)
        q = man.project_point(w)
        EqJ = man.tangent_basis(q).reshape(dim, -1) @ man.projection_jacobian(w)
        Bv = man.tangent_basis(self.values).reshape(self.elem.m, dim, -1)
        mats = weights[:, None, None] * (EqJ @ np.swapaxes(Bv, -1, -2))
        return q, mats

    def d_dv(self, xi, i: int) -> np.ndarray:
        _, mats = self.d_dv_all(xi)
        return mats[i]

    # ------------------------------------------------------------------

    def chordal_residual(self, xi, at_point=None) -> float:
        """Stationarity residual of the chordal weighted least-squares problem.

        Measures the tangential gradient of
        q -> sum_i phi_i(xi) * |v_i - q|**2 at ``at_point`` (default: the
        interpolant's own value).  For closest-point projections this is
        zero at the interpolant, because the projected point is exactly the
        chordal minimizer.
        """
        man = self.manifold
        w = self._weighted_sum(xi)
        q = man.project_point(w) if at_point is None else np.asarray(at_point, dtype=float)
        # gradient of the chordal functional in the embedding: 2*(q - w),
        # using that the weights sum to one
        grad = 2.0 * (q - w)
        return float(np.linalg.norm(man.project_tangent(q, grad)))
