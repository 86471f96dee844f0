"""Projection-based interpolation: interpolate in the embedding, then project.

The interpolant is P(sum_i phi_i(xi) * v_i) with P the closest-point
projection of the manifold (normalization for spheres, polar decomposition
for rotations, identity for flat space).  Derivatives follow from the chain
rule through the projection's Jacobian DP(w) and its derivative D^2P(w),
both taken at the projected point q = P(w), so each center projects once:
on rotations one polar iteration per point gives q, and DP and D^2P are
closed forms in w and q.  No other nonlinear solve is involved.

Evaluations are batched as in the geodesic module: reference points and the
nodal values of an interpolant built over several elements at once may carry
leading axes, which broadcast.  As a rule of ``jacobi.Interpolant`` it
supplies ``eval``, ``_center`` (the weighted sum with E DP(w) and dq/dxi), and
``_basis_gradients`` from it; it admits all values, and pairs the
gradients with the energy's covectors by the base class's default.
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

    def _weighted_sum(self, phi) -> np.ndarray:
        w = self._combine(phi[..., None, :])[..., 0, :]
        return w.reshape(w.shape[:-1] + self.manifold.point_shape)

    def _center(self, xi, shape=None) -> "_Center":
        """The weighted sum w at xi with what the exact basis-field gradients
        need of it, as a ``_Center``; ``shape``: the caller's tables of ``energy._layout``."""
        man = self.manifold
        phi, dphi = (self.elem.shape_values(xi), self.elem.shape_gradients(xi)) if shape is None else shape[:2]
        w = self._weighted_sum(phi)
        dsum = self._combine(np.swapaxes(dphi, -1, -2))                    # (..., d, N)
        q = man.project_point(w)
        E = man.tangent_basis(q)
        EJ = man._flat(E) @ man.projection_jacobian(w, q)                   # E DP(w), (..., dim, N)
        return _Center(q, E, w, dsum, phi, dphi, EJ, EJ @ np.swapaxes(dsum, -1, -2))

    def eval(self, xi) -> np.ndarray:
        """P applied to the weighted embedding sum.

        Raises ProjectionUndefinedError when the sum leaves the projection's
        domain (e.g. it vanishes for sphere values straddling antipodes).
        """
        return self.manifold.project_point(self._weighted_sum(self.elem.shape_values(xi)))

    def _basis_gradients(self, c: "_Center"):
        """Reference gradients G of the nodal basis fields from the center c,
        (..., m, dim, dim, d), entry [i, j, a, l] the tangent_basis(q)[a]
        coefficient of the l-th derivative of field (i, j), the tangential part of

            D^2P(w)[dw/dxi_l, phi_i b_ij] + dphi_i/dxi_l DP(w) b_ij,

        and the fields' values phi_i DP(w) b_ij (..., m, dim, dim), entry
        [i, j, a] alike; returns (G, values).  B_v are the nodal bases and E
        = tangent_basis(q).
        """
        man = self.manifold
        Bv = man._flat(self._frames_of()).swapaxes(-1, -2)                    # (..., m, N, dim)
        E = man._flat(c.basis)                                              # (..., dim, N)
        first = c.EJ[..., None, :, :] @ Bv                                  # E DP(w) B_v (..., m, dim, dim)
        ED2 = E[..., None, :, :] @ man.projection_jacobian_deriv(c.w, c.q, c.dsum)  # (..., d, dim, N)
        second = ED2[..., None, :, :, :] @ Bv[..., :, None, :, :]         # (..., m, d, dim, dim)
        G = c.phi[..., :, None, None, None] * second \
            + c.dphi[..., :, :, None, None] * first[..., :, None, :, :]
        V = c.phi[..., :, None, None] * first
        return np.swapaxes(G, -3, -1), np.swapaxes(V, -1, -2)  # [..., i, j, a, l], [..., i, j, a]


class _Center(NamedTuple):
    """q = P(w), tangent_basis(q) = E, the weighted sum w, dw/dxi (..., d, N),
    the weights phi (..., m), their gradients dphi (..., m, d), E DP(w)
    (..., dim, N) and dq/dxi = E DP(w) (dw/dxi)^T (..., dim, d)."""

    q: np.ndarray
    basis: np.ndarray
    w: np.ndarray
    dsum: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    EJ: np.ndarray
    dq_dxi: np.ndarray
