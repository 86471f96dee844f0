"""Geodesic interpolation of manifold values on a reference element.

The interpolant at a reference point xi is the weighted Riemannian center of
the nodal values v_1..v_m with Lagrange weights phi_i(xi),

    q* = argmin_q  sum_i phi_i(xi) * dist(v_i, q)**2,

found by intrinsic Newton iteration on the stationarity condition

    sum_i phi_i(xi) * log_{q}(v_i) = 0.

Derivatives with respect to xi and with respect to the nodal values come
from differentiating that condition: with the Hessian

    H = sum_j phi_j(xi) * dist2_hess_q(v_j, q*)

one solves H * dq/dxi_k = 2 * sum_i dphi_i/dxi_k * log-coefficients and
H * dq/dv_i = -phi_i(xi) * dist2_mixed(v_i, q*), everything expressed in the
deterministic tangent bases of the manifold module.

Newton starts from the projection-based interpolant where a projection
exists and from the nodal value with the largest weight otherwise; steps are
halved (up to 20 times) whenever the residual does not decrease, which keeps
the iteration stable for second-order weights that take negative values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmissibilityError,
    CutLocusError,
    IndefiniteHessianError,
    NonConvergenceError,
    ProjectionUndefinedError,
    SingularSystemError,
)
from .manifold import Manifold, Sphere, TangentVector
from .reference_element import ReferenceElement

# contract bound on the stationarity residual, and the tighter target the
# iteration aims for (quadratic convergence makes the target nearly free;
# landing close to machine precision keeps downstream energy differences
# smooth enough for line searches)
_RESIDUAL_TOL = 1e-12
_RESIDUAL_TARGET = 1e-14
_MAX_NEWTON = 100
_MAX_DAMPING = 20
_SPHERE_SPREAD_LIMIT = 0.9 * np.pi
_MIN_EIG = 1e-10


@dataclass(frozen=True)
class KarcherCheck:
    """Advisory well-posedness diagnostic for a set of nodal values.

    ``satisfied`` is True when the values fit in a geodesic ball of radius
    below pi/(4*sqrt(K)), taking half the maximum pairwise distance as a
    conservative ball-radius proxy.  Evaluation may still succeed when the
    check fails.
    """

    max_pairwise_dist: float
    radius_bound: float
    satisfied: bool


def karcher_check(manifold: Manifold, values: np.ndarray) -> KarcherCheck:
    values = np.asarray(values, dtype=float)
    maxd = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            maxd = max(maxd, manifold.dist(values[i], values[j]))
    K = manifold.curvature_bound
    if K is None or K <= 0.0:
        return KarcherCheck(maxd, np.inf, True)
    bound = 0.25 * np.pi / np.sqrt(K)
    return KarcherCheck(maxd, bound, 0.5 * maxd < bound)


@dataclass(frozen=True)
class _Solution:
    q: np.ndarray
    basis: np.ndarray        # (dim, *point_shape), tangent_basis(q)
    hessian: np.ndarray      # (dim, dim)
    log_coeffs: np.ndarray   # (m, dim), log_q(v_i) in that basis
    weights: np.ndarray      # (m,)
    iterations: int
    residual: float


class GeodesicInterpolant:
    """Weighted-center interpolation of m manifold values on a reference element."""

    def __init__(self, elem: ReferenceElement, values, manifold: Manifold):
        values = np.array(values, dtype=float)
        if values.shape != (elem.m,) + manifold.point_shape:
            raise ValueError(
                f"expected {elem.m} values of shape {manifold.point_shape}, "
                f"got array of shape {values.shape}"
            )
        for v in values:
            manifold.check_point(v)
        if isinstance(manifold, Sphere):
            spread = karcher_check(manifold, values).max_pairwise_dist
            if spread > _SPHERE_SPREAD_LIMIT:
                raise AdmissibilityError(
                    f"nodal values spread {spread:.4f} exceeds {_SPHERE_SPREAD_LIMIT:.4f}; "
                    "interpolation refused to avoid cut-locus failures"
                )
        self.elem = elem
        self.values = values
        self.manifold = manifold

    # ------------------------------------------------------------------

    def karcher_check(self) -> KarcherCheck:
        return karcher_check(self.manifold, self.values)

    def _initial_guess(self, weights: np.ndarray) -> np.ndarray:
        man = self.manifold
        try:
            w = np.tensordot(weights, self.values, axes=1)
            return man.project_point(w)
        except ProjectionUndefinedError:
            return self.values[int(np.argmax(weights))].copy()

    def _residual(self, q: np.ndarray, weights: np.ndarray):
        logs = self.manifold.log(q, self.values)
        return logs, float(np.linalg.norm(weights @ logs.reshape(self.elem.m, -1)))

    def _linearize(self, q, weights, logs):
        """(basis at q, Hessian, log coefficients): one basis for all three."""
        man = self.manifold
        m, dim = self.elem.m, man.intrinsic_dim
        basis = man.tangent_basis(q)
        hessians = man.dist2_hess_q(self.values, q, basis_q=basis)     # (m, dim, dim)
        H = (weights @ hessians.reshape(m, -1)).reshape(dim, dim)
        L = logs.reshape(m, -1) @ basis.reshape(dim, -1).T
        return basis, 0.5 * (H + H.T), L

    def _solve(self, xi, q0=None, max_iter: int = _MAX_NEWTON) -> _Solution:
        man = self.manifold
        weights = self.elem.shape_values(xi)
        q = np.asarray(q0, dtype=float) if q0 is not None else self._initial_guess(weights)
        logs, res = self._residual(q, weights)

        iterations = 0
        while True:
            basis, H, L = self._linearize(q, weights, logs)
            if res <= _RESIDUAL_TARGET:
                break
            if iterations >= max_iter:
                raise NonConvergenceError(
                    f"Newton stalled at residual {res:.3e} after {iterations} iterations"
                )
            try:
                delta = np.linalg.solve(H, 2.0 * (weights @ L))
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError("Newton system is singular") from exc

            step = (delta @ basis.reshape(len(delta), -1)).reshape(man.point_shape)
            improved = False
            for damping in range(_MAX_DAMPING + 1):
                try:
                    q_new = man.exp(q, step)
                    logs_new, res_new = self._residual(q_new, weights)
                except CutLocusError:
                    if damping == _MAX_DAMPING:
                        raise
                    step = 0.5 * step
                    continue
                if res_new < res:
                    improved = True
                    break
                if damping < _MAX_DAMPING:
                    step = 0.5 * step
            if not improved:
                # stuck at the floating-point floor; fine if the contract holds
                if res <= _RESIDUAL_TOL:
                    break
                raise NonConvergenceError(
                    f"Newton cannot reduce the residual below {res:.3e}"
                )
            q, logs, res = q_new, logs_new, res_new
            iterations += 1

        if float(np.linalg.eigvalsh(H)[0]) <= _MIN_EIG:
            raise IndefiniteHessianError(
                "converged to a critical point whose Hessian is not positive definite"
            )
        return _Solution(q, basis, H, L, weights, iterations, res)

    # ------------------------------------------------------------------

    def eval(self, xi) -> np.ndarray:
        """The interpolated point; stationarity residual is at most 1e-12."""
        return self._solve(xi).q

    def eval_info(self, xi):
        """(point, Newton iterations, final residual) for diagnostics."""
        sol = self._solve(xi)
        return sol.q, sol.iterations, sol.residual

    def d_dxi(self, xi) -> list[TangentVector]:
        """Columns d(interpolant)/d(xi_k) as tangent vectors at eval(xi)."""
        sol = self._solve(xi)
        dphi = self.elem.shape_gradients(xi)          # (m, d)
        rhs = 2.0 * (dphi.T @ sol.log_coeffs)          # (d, dim)
        try:
            X = np.linalg.solve(sol.hessian, rhs.T)    # (dim, d)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError("derivative system is singular") from exc
        return [
            TangentVector(self.manifold, sol.q, np.tensordot(X[:, k], sol.basis, axes=1))
            for k in range(self.elem.dim)
        ]

    def d_dv_all(self, xi, q0=None):
        """eval(xi) plus all m derivative matrices d(interpolant)/d(v_i).

        Matrix i maps tangent_basis(v_i) coefficients to tangent_basis(q)
        coefficients; stacked shape (m, dim, dim).  ``q0`` warm-starts the
        Newton solve, e.g. from the interpolant at a nearby point.
        """
        sol = self._solve(xi, q0)
        mixed = self.manifold.dist2_mixed(self.values, sol.q, basis_q=sol.basis)
        try:
            mats = np.linalg.solve(sol.hessian, -sol.weights[:, None, None] * mixed)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError("derivative system is singular") from exc
        return sol.q, mats

    def d_dv(self, xi, i: int) -> np.ndarray:
        """Derivative of the interpolant with respect to nodal value i."""
        _, mats = self.d_dv_all(xi)
        return mats[i]
