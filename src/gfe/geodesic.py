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
deterministic tangent bases of the manifold module.  Differentiating the
second relation once more in xi, with the third derivatives of squared
distance (``dist2_third``), gives the exact reference gradients of the
test-function fields dq/dv_i . b from the data of the solve at xi alone.

Newton starts from the projection-based interpolant where a projection
exists and from the nodal value with the largest weight otherwise; steps are
halved (up to 20 times) whenever the residual does not decrease, which keeps
the iteration stable for second-order weights that take negative values.

Every evaluation is batched: reference points may carry leading axes, and
so may the nodal values of an interpolant built over several elements at
once (``GFEFunction.local`` with an array of elements); the two broadcast.
``_solve`` runs one Newton iteration over all points in lockstep, each
point with its own convergence test, damping halvings and cut-locus trials,
and each point takes exactly the steps it would take alone.  When points
fail, the error of the lowest-index one is raised.  The per-point methods
(``eval``, ``d_dxi``, ``d_dv_all``, ...) are that same path with one point.

As a rule of ``jacobi.Interpolant`` it supplies ``eval``, ``_center`` (the
solve at xi with dq/dxi), ``_basis_values``, ``_basis_gradients`` and
``_admit``, which refuses sphere values spread wider than 0.9*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AdmissibilityError,
    CutLocusError,
    GFEError,
    IndefiniteHessianError,
    NonConvergenceError,
    ProjectionUndefinedError,
    SingularSystemError,
)
from .jacobi import Interpolant
from .manifold import Manifold, Sphere

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


def _max_spread(manifold: Manifold, values) -> np.ndarray:
    """Largest pairwise distance among the m values (..., m, *point_shape)."""
    values = np.asarray(values, dtype=float)
    k = len(manifold.point_shape)
    d = manifold.dist(np.expand_dims(values, -k - 1), np.expand_dims(values, -k - 2))
    return np.max(d, axis=(-2, -1), initial=0.0)


def karcher_check(manifold: Manifold, values: np.ndarray) -> KarcherCheck:
    maxd = float(_max_spread(manifold, values))
    K = manifold.curvature_bound
    if K is None or K <= 0.0:
        return KarcherCheck(maxd, np.inf, True)
    bound = 0.25 * np.pi / np.sqrt(K)
    return KarcherCheck(maxd, bound, 0.5 * maxd < bound)


@dataclass(frozen=True)
class _Solution:
    """Centers of a batch of points; the arrays carry the batch's leading axes."""

    q: np.ndarray            # (..., *point_shape)
    basis: np.ndarray        # (..., dim, *point_shape), tangent_basis(q)
    hessian: np.ndarray      # (..., dim, dim)
    node_hessians: np.ndarray  # (..., m, dim, dim), dist2_hess_q(v_i, q)
    log_coeffs: np.ndarray   # (..., m, dim), the logs in that basis
    iterations: int          # lockstep Newton sweeps: the most any point took
    residual: np.ndarray     # (...,)


def _solve_each(A, b, message: str) -> np.ndarray:
    """np.linalg.solve over a stack, raising SingularSystemError."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(message) from exc


# ----------------------------------------------------------------------
# the lockstep Newton iteration over flat batches: values (P, m, *shape),
# weights (P, m), centers (P, *shape)


def _flat_rows(x, lead: int) -> np.ndarray:
    return x.reshape(x.shape[:lead] + (-1,))


def _batch_or_each(fn, shape, catch, errors: dict, index):
    """fn(slice(None)) for all points at once; if that raises ``catch``, fn(p) point by point.

    A point that fails records its exception in ``errors[index[p]]`` and gets
    zero rows.  Returns (rows, failed mask).
    """
    n = len(index)
    try:
        return fn(slice(None)), np.zeros(n, dtype=bool)
    except catch:
        pass
    rows, failed = np.zeros((n,) + shape), np.zeros(n, dtype=bool)
    for p in range(n):
        try:
            rows[p] = fn(p)
        except catch as exc:
            failed[p] = True
            errors[int(index[p])] = exc
    return rows, failed


def _logs(man: Manifold, q, values, errors: dict, index):
    """log_q(v_i) for every point, and the mask of points at the cut locus."""
    k = len(man.point_shape)
    return _batch_or_each(
        lambda s: man.log(np.expand_dims(q[s], -k - 1), values[s]),
        values.shape[1:], CutLocusError, errors, index,
    )


def _residual(weights, logs) -> np.ndarray:
    r = (weights[:, None, :] @ _flat_rows(logs, 2))[:, 0]
    return np.sqrt(np.sum(r * r, axis=-1))


def _initial_guess(man: Manifold, values, weights) -> np.ndarray:
    """Projection of the weighted embedding sum, else the heaviest nodal value."""
    P = len(weights)
    sums = (weights[:, None, :] @ _flat_rows(values, 2))[:, 0].reshape(values[:, 0].shape)
    q, undefined = _batch_or_each(
        lambda s: man.project_point(sums[s]), sums.shape[1:], ProjectionUndefinedError, {},
        np.arange(P),
    )
    q[undefined] = values[undefined, np.argmax(weights[undefined], axis=1)]
    return q


def _linearize(man: Manifold, values, weights, q, logs):
    """(basis at q, Hessian, per-node Hessians, log coefficients): one basis for all."""
    basis = man.tangent_basis(q)                                       # (P, dim, *shape)
    hessians = man.dist2_hess_q(values, q[:, None], basis_q=basis[:, None], log_qv=logs)
    H = (weights[:, None, :] @ _flat_rows(hessians, 2))[:, 0].reshape(hessians[:, 0].shape)
    L = _flat_rows(logs, 2) @ np.swapaxes(_flat_rows(basis, 2), 1, 2)  # (P, m, dim)
    return basis, 0.5 * (H + np.swapaxes(H, 1, 2)), hessians, L


def _newton(man: Manifold, values, weights, q, max_iter: int) -> _Solution:
    P, m = weights.shape
    dim = man.intrinsic_dim
    errors: dict[int, GFEError] = {}
    logs, cut = _logs(man, q, values, errors, np.arange(P))
    res = _residual(weights, logs)
    basis = np.zeros((P, dim) + man.point_shape)
    H = np.zeros((P, dim, dim))
    Hn = np.zeros((P, m, dim, dim))
    L = np.zeros((P, m, dim))
    iterations = np.zeros(P, dtype=int)
    active = ~cut

    while active.any():
        idx = np.flatnonzero(active)
        basis[idx], H[idx], Hn[idx], L[idx] = _linearize(
            man, values[idx], weights[idx], q[idx], logs[idx]
        )
        active[idx[res[idx] <= _RESIDUAL_TARGET]] = False
        idx = np.flatnonzero(active)
        for p in idx[iterations[idx] >= max_iter]:
            errors[p] = NonConvergenceError(
                f"Newton stalled at residual {res[p]:.3e} after {iterations[p]} iterations"
            )
            active[p] = False
        idx = idx[iterations[idx] < max_iter]
        if not len(idx):
            continue
        Hs, rhs = H[idx], np.swapaxes(2.0 * (weights[idx, None, :] @ L[idx]), 1, 2)
        delta, singular = _batch_or_each(
            lambda s: _solve_each(Hs[s], rhs[s], "Newton system is singular"),
            rhs.shape[1:], SingularSystemError, errors, idx,
        )
        active[idx[singular]] = False
        idx, delta = idx[~singular], delta[~singular]
        step = (np.swapaxes(delta, 1, 2) @ _flat_rows(basis[idx], 2))[:, 0]
        step = step.reshape(q[idx].shape)

        # damping, in lockstep over the points still looking for a step
        searching = np.ones(len(idx), dtype=bool)
        for damping in range(_MAX_DAMPING + 1):
            j = np.flatnonzero(searching)
            if not len(j):
                break
            pts = idx[j]
            q_new = man.exp(q[pts], step[j])
            trial_errors: dict[int, GFEError] = {}
            logs_new, cut = _logs(man, q_new, values[pts], trial_errors, pts)
            res_new = _residual(weights[pts], logs_new)
            better = ~cut & (res_new < res[pts])
            q[pts[better]], logs[pts[better]] = q_new[better], logs_new[better]
            res[pts[better]] = res_new[better]
            iterations[pts[better]] += 1
            searching[j[better]] = False
            if damping == _MAX_DAMPING:
                for p in pts[cut]:
                    errors[p] = trial_errors[p]
                    active[p] = False
                searching[j[cut]] = False
            else:
                step[j[~better]] *= 0.5
        for p in idx[searching]:
            # stuck at the floating-point floor; fine if the contract holds
            if res[p] > _RESIDUAL_TOL:
                errors[p] = NonConvergenceError(
                    f"Newton cannot reduce the residual below {res[p]:.3e}"
                )
            active[p] = False

    ok = np.ones(P, dtype=bool)
    ok[list(errors)] = False
    ok = np.flatnonzero(ok)
    for p in ok[np.linalg.eigvalsh(H[ok])[:, 0] <= _MIN_EIG]:
        errors[p] = IndefiniteHessianError(
            "converged to a critical point whose Hessian is not positive definite"
        )
    if errors:
        raise errors[min(errors)]
    return _Solution(q, basis, H, Hn, L, int(iterations.max(initial=0)), res)


# ----------------------------------------------------------------------


class GeodesicInterpolant(Interpolant):
    """Weighted-center interpolation of m manifold values on a reference element."""

    @staticmethod
    def _admit(manifold: Manifold, values) -> None:
        """Refuse sphere values spread wider than 0.9*pi, naming the first such
        element of a batch."""
        spread = _max_spread(manifold, values) if isinstance(manifold, Sphere) else 0.0
        wide = np.flatnonzero(spread > _SPHERE_SPREAD_LIMIT)
        if len(wide):
            where = f"element {wide[0]}: " if np.ndim(spread) else ""
            raise AdmissibilityError(
                f"{where}nodal values spread {np.ravel(spread)[wide[0]]:.4f} exceeds "
                f"{_SPHERE_SPREAD_LIMIT:.4f}; interpolation refused to avoid cut-locus failures"
            )

    # ------------------------------------------------------------------

    def karcher_check(self) -> KarcherCheck:
        return karcher_check(self.manifold, self.values)

    def _solve(self, xi, q0=None, max_iter: int = _MAX_NEWTON) -> _Solution:
        """Centers at the reference points xi (..., d), all in one lockstep batch.

        ``q0`` (broadcast to every point) warm-starts the iteration.
        """
        man = self.manifold
        shape = man.point_shape
        weights = self.elem.shape_values(xi)
        lead = np.broadcast_shapes(weights.shape[:-1], self.values.shape[: -len(shape) - 1])
        P = math.prod(lead)
        values = np.broadcast_to(self.values, lead + self.values.shape[-len(shape) - 1:])
        values = values.reshape((P, self.elem.m) + shape)
        w = np.broadcast_to(weights, lead + weights.shape[-1:]).reshape(P, -1)
        if q0 is None:
            q = _initial_guess(man, values, w)
        else:
            q = np.broadcast_to(np.asarray(q0, dtype=float), lead + shape).reshape((P,) + shape)
        sol = _newton(man, values, w, q.copy(), max_iter)
        return _Solution(
            *(x.reshape(lead + x.shape[1:])
              for x in (sol.q, sol.basis, sol.hessian, sol.node_hessians, sol.log_coeffs)),
            sol.iterations,
            sol.residual.reshape(lead),
        )

    # ------------------------------------------------------------------

    def eval(self, xi) -> np.ndarray:
        """The interpolated point; stationarity residual is at most 1e-12."""
        return self._solve(xi).q

    def eval_info(self, xi):
        """(point, Newton iterations, final residual) for diagnostics."""
        sol = self._solve(xi)
        return sol.q, sol.iterations, sol.residual[()]

    def _center(self, xi, q0=None):
        """(center, cols): the solve at xi, warm-started from q0, reduced to what
        the exact basis-field gradients need, and the columns d(interpolant)/d(xi_k)
        (..., d, *point_shape)."""
        man = self.manifold
        sol = self._solve(xi, q0)
        dphi = self.elem.shape_gradients(xi)                            # (..., m, d)
        rhs = 2.0 * (np.swapaxes(dphi, -1, -2) @ sol.log_coeffs)       # (..., d, dim)
        X = _solve_each(sol.hessian, np.swapaxes(rhs, -1, -2), "derivative system is singular")
        cols = np.swapaxes(X, -1, -2) @ man._flat(sol.basis)            # (..., d, N)
        # H's derivative in xi at fixed q, sum_j dphi_j/dxi_l dist2_hess_q(v_j, q)
        H_xi = np.einsum("...jl,...jab->...lab", dphi, sol.node_hessians)
        return _Center(sol.q, sol.basis, sol.hessian, H_xi, sol.log_coeffs, X), \
            cols.reshape(cols.shape[:-1] + man.point_shape)

    def _basis_values(self, xi, c: "_Center"):
        """Values of the nodal basis fields from the center c at xi, (..., m,
        dim, dim), entry [i, j, a] the tangent_basis(q)[a] coefficient of field
        (i, j): V_i = dq/dv_i = -phi_i H^-1 K_i with K_i = dist2_mixed(v_i, q)."""
        man, k = self.manifold, len(self.manifold.point_shape)
        mixed = man._mixed(self.values, np.expand_dims(c.q, -k - 1),
                           man._flat(np.expand_dims(c.basis, -k - 2)), c.log_coeffs)[-1]
        V = -self.elem.shape_values(xi)[..., :, None, None] * (np.linalg.inv(c.hessian)[..., None, :, :] @ mixed)
        return np.swapaxes(V, -1, -2)

    def _basis_gradients(self, xi, c: "_Center"):
        """Reference gradients G of the nodal basis fields from the center c at
        xi, (..., m, dim, dim, d), entry [i, j, a, l] the tangent_basis(q)[a]
        coefficient of the l-th derivative of field (i, j), and the fields'
        values of _basis_values; returns (G, values).

        Differentiates H V_i = -phi_i K_i along xi_l, with V_i = dq/dv_i,
        K_i = dist2_mixed(v_i, q) and X_l = dq/dxi_l:

            H dV_i = -dphi_il K_i - phi_i (d_X K_i) - (sum_j dphi_jl Hess_j + phi_j d_X Hess_j) V_i,

        with the derivatives d_X along X_l from dist2_third.  H is positive
        definite, as the solve checked.
        """
        man = self.manifold
        phi = self.elem.shape_values(xi)                                # (..., m)
        dphi = self.elem.shape_gradients(xi)                            # (..., m, d)
        # shapes (..., m, dim, dim), (..., d, dim, dim) and (..., m, d, dim, dim)
        mixed, hess_X, mixed_X = man.dist2_third(
            self.values, c.q, np.swapaxes(c.dq, -1, -2), phi, basis_q=c.basis,
            log_coeffs=c.log_coeffs,
        )
        Hinv = np.linalg.inv(c.hessian)[..., None, :, :]
        V = -phi[..., :, None, None] * (Hinv @ mixed)                  # (..., m, dim, dim)
        dH = c.hessian_xi + hess_X
        # minus the right-hand side, (..., m, d, dim, dim), built in place
        rhs = mixed_X
        rhs *= phi[..., :, None, None, None]
        rhs += dphi[..., :, :, None, None] * mixed[..., :, None, :, :]
        rhs += dH[..., None, :, :, :] @ V[..., :, None, :, :]
        G = np.negative(Hinv[..., None, :, :] @ rhs, out=rhs)
        return np.swapaxes(G, -1, -3), np.swapaxes(V, -1, -2)  # [..., i, j, a, l], [..., i, j, a]


class _Center(NamedTuple):
    """Of the solve at a batch of points: q, tangent_basis(q), the Hessian H,
    its xi-derivative at fixed q (..., d, dim, dim) from the per-node Hessians,
    the log coefficients (..., m, dim) and dq/dxi as tangent_basis(q)
    coefficients (..., dim, d)."""

    q: np.ndarray
    basis: np.ndarray
    hessian: np.ndarray
    hessian_xi: np.ndarray
    log_coeffs: np.ndarray
    dq: np.ndarray
