"""Projection-based interpolation: interpolate in the embedding, then project.

The interpolant is P(sum_i phi_i(xi) * v_i) with P the closest-point
projection of the manifold (normalization for spheres, polar decomposition
for rotations, identity for flat space).  Derivatives follow from the chain
rule through the projection Jacobian; no nonlinear solve is involved.

Evaluations are batched as in the geodesic module: reference points and the
nodal values of an interpolant built over several elements at once may carry
leading axes, which broadcast.  As a rule of ``jacobi.Interpolant`` it
supplies ``eval``, ``_center`` (the weighted sum with dP/dw),
``_basis_values`` and ``_basis_gradients``, and admits all values.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .jacobi import Interpolant


class ProjectionInterpolant(Interpolant):
    """Embed-interpolate-project interpolation of m manifold values."""

    def _combine(self, coeffs) -> np.ndarray:
        """sum_i coeffs[..., i] * v_i with flat values: coeffs (..., r, m) -> (..., r, N)."""
        return coeffs @ self.manifold._flat(self.values)

    def _weighted_sum(self, xi) -> np.ndarray:
        w = self._combine(self.elem.shape_values(xi)[..., None, :])[..., 0, :]
        return w.reshape(w.shape[:-1] + self.manifold.point_shape)

    def _center(self, xi):
        """(center, cols): the weighted sum w at xi with what the exact
        basis-field gradients need of it, and the columns d(interpolant)/d(xi_k)
        (..., d, *point_shape)."""
        man = self.manifold
        w = self._weighted_sum(xi)
        dsum = self._combine(np.swapaxes(self.elem.shape_gradients(xi), -1, -2))  # (..., d, N)
        J = man.projection_jacobian(w)
        cols = dsum @ np.swapaxes(J, -1, -2)
        q = man.project_point(w)
        return _Center(q, man.tangent_basis(q), w, J, dsum), \
            cols.reshape(cols.shape[:-1] + man.point_shape)

    def eval(self, xi) -> np.ndarray:
        """P applied to the weighted embedding sum.

        Raises ProjectionUndefinedError when the sum leaves the projection's
        domain (e.g. it vanishes for sphere values straddling antipodes).
        """
        return self.manifold.project_point(self._weighted_sum(xi))

    def _basis_values(self, xi, c: "_Center"):
        """Values phi_i DP(w) b_ij of the nodal basis fields from the center c at
        xi, (..., m, dim, dim), entry [i, j, a] the tangent_basis(q)[a]
        coefficient of field (i, j)."""
        man = self.manifold
        Bv = np.swapaxes(man._flat(man.tangent_basis(self.values)), -1, -2)
        first = (man._flat(c.basis) @ c.jacobian)[..., None, :, :] @ Bv
        return np.swapaxes(self.elem.shape_values(xi)[..., :, None, None] * first, -1, -2)

    def _basis_gradients(self, xi, c: "_Center"):
        """Reference gradients G of the nodal basis fields from the center c at
        xi, (..., m, dim, dim, d), entry [i, j, a, l] the tangent_basis(q)[a]
        coefficient of the l-th derivative of field (i, j), the tangential part of

            D^2P(w)[dw/dxi_l, phi_i b_ij] + dphi_i/dxi_l DP(w) b_ij,

        and the fields' values of _basis_values; returns (G, values).
        """
        man = self.manifold
        E = man._flat(c.basis)                                              # (..., dim, N)
        Bv = np.swapaxes(man._flat(man.tangent_basis(self.values)), -1, -2)  # (..., m, N, dim)
        first = (E @ c.jacobian)[..., None, :, :] @ Bv                     # (..., m, dim, dim)
        ED2 = E[..., None, :, :] @ man.projection_jacobian_deriv(c.w, c.dsum)  # (..., d, dim, N)
        second = ED2[..., None, :, :, :] @ Bv[..., :, None, :, :]          # (..., m, d, dim, dim)
        dphi = self.elem.shape_gradients(xi)                               # (..., m, d)
        phi = self.elem.shape_values(xi)
        G = phi[..., :, None, None, None] * second \
            + dphi[..., :, :, None, None] * first[..., :, None, :, :]
        V = phi[..., :, None, None] * first
        return np.swapaxes(G, -3, -1), np.swapaxes(V, -1, -2)  # [..., i, j, a, l], [..., i, j, a]


class _Center(NamedTuple):
    """q = P(w), tangent_basis(q), the weighted sum w, dP/dw (..., N, N) and
    dw/dxi (..., d, N)."""

    q: np.ndarray
    basis: np.ndarray
    w: np.ndarray
    jacobian: np.ndarray
    dsum: np.ndarray
