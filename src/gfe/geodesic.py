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
second relation once more in xi gives the exact reference gradients G of the
test-function fields dq/dv_i . b from the data of the solve at xi alone, kept
by ``_center`` batch-last, as the derivatives read it (``_Center``), and the
blocks of the third derivatives of squared distance
(``Manifold._third_blocks``), whose transported frames come from nodal frames
formed once per node.  The energy's gradient pairs G with u's gradient in
reverse mode (``_basis_gradient_terms``) and forms no array larger than the
log coefficients.  H is inverted by ``kernels._sym_inv`` in closed form and
certified by Sylvester's test on H - 1e-10 I.

On a two-node element Newton starts at the center itself, the geodesic
point exp_{v_1}(phi_2 log_{v_1} v_2), finds the residual at its target and
makes no step: the solve is one linearization, the one the derivatives
read.  Where that log is at the cut locus, and on larger elements, Newton
starts from the projection-based interpolant where a projection exists and
from the nodal value with the largest weight otherwise; steps are halved
(up to 20 times) whenever the residual does not decrease, which keeps the
iteration stable for second-order weights that take negative values.

Every evaluation is batched: reference points and the nodal values of an
interpolant over several elements (``GFEFunction.local`` with an array) may
carry leading axes, which broadcast; a flat batch, such as the energy's
record, goes to Newton as it is.  ``_solve`` runs one Newton iteration over
all points in lockstep, each point with its own convergence test, damping
halvings and cut-locus trials, so each takes exactly the steps it would take
alone; a pass in which every point is active, or improves, is one of whole
arrays.  The weights and the inverses of ``kernels._sym_inv`` come in
layouts that give each matmul the same numpy loop at every batch size, so
the centers of a batch equal those of its points bit for bit; derivatives
agree to rounding, and their arithmetic is not pinned: changing it moves
``minimize`` and ``audit`` outputs in their last digits, never those of
``interpolate``.  The cut locus, a stall, a singular system and an undefined
projection are masks over the batch, read point by point only when they hold
one; the lowest-index failing point's error is raised, its C-order flat
index over the leading axes as its ``point``.  As a ``jacobi.Interpolant``
rule it supplies ``eval``, ``_center``, ``_basis_gradients`` and ``_admit``,
which refuses sphere values spread wider than 0.9*pi, and overrides
``_basis_gradient_terms`` in reverse mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AdmissibilityError,
    GFEError,
    IndefiniteHessianError,
    NonConvergenceError,
    SingularSystemError,
)
from .jacobi import Interpolant
from .kernels import _near_cut, _positive_definite, _sym_inv
from .manifold import Manifold, Sphere, _batch_last, _batch_last_view, _eye

# contract bound on the stationarity residual, relative to the largest nodal
# entry where that exceeds 1 (flat-space values, whose rounding alone leaves
# eps * |v|), and the tighter target the iteration aims for (quadratic
# convergence makes the target nearly free; landing close to machine precision
# keeps downstream energy differences smooth enough for line searches)
_RESIDUAL_TOL = 1e-12
_RESIDUAL_TARGET = 1e-14
_MAX_NEWTON = 100
_MAX_DAMPING = 20
_SPHERE_SPREAD_LIMIT = 0.9 * np.pi
_SPREAD_SCREEN = np.cos(_SPHERE_SPREAD_LIMIT) + 1e-9   # of the Gram products in _admit
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


class _Solution(NamedTuple):
    """Centers of a batch of points, the arrays with the batch's leading axes."""

    q: np.ndarray            # (..., *point_shape)
    basis: np.ndarray        # (..., dim, *point_shape), tangent_basis(q)
    hessian: np.ndarray      # (..., dim, dim)
    node_hessians: np.ndarray  # (..., m, dim, dim), dist2_hess_q(v_i, q)
    log_coeffs: np.ndarray   # (..., m, dim), the logs in that basis
    iterations: int          # lockstep Newton sweeps: the most any point took
    residual: np.ndarray     # (...,)


class _Center(NamedTuple):
    """A center solve with what the derivatives read in their layout: but for q and basis, batch-last
    and contiguous (component axes, a node axis, 1 for per-point data, the leading axes reversed)."""

    q: np.ndarray            # (..., *point_shape)
    basis: np.ndarray        # (..., dim, *point_shape), tangent_basis(q)
    u: np.ndarray            # (dim, m, ...), the log coefficients in that basis
    phi: np.ndarray          # (m, ...), the Lagrange weights phi_i(xi)
    dphi: np.ndarray         # (d, m, ...), their gradients
    dq: np.ndarray           # (d, dim, 1, ...), dq/dxi
    hessian_inv: np.ndarray  # (dim, dim, 1, ...)
    hessian_xi: np.ndarray   # (d, dim, dim, 1, ...), dH/dxi at fixed q
    log_coeffs = property(lambda self: self.u.T, doc="u batch-first, (..., m, dim)")
    dq_dxi = property(lambda self: self.dq.T[..., 0, :, :], doc="dq batch-first, (..., dim, d)")


# ----------------------------------------------------------------------
# the lockstep Newton iteration over flat batches: values (P, m, *shape),
# weights (P, m), centers (P, *shape)


def _flat_rows(x, lead: int) -> np.ndarray:
    return x.reshape(x.shape[:lead] + (math.prod(x.shape[lead:]),))


def _logs(man: Manifold, q, values, weights):
    """log_q(v_i) for every point, and at each point the largest of its angles
    and the residual |sum_i phi_i log_q(v_i)|."""
    logs, angle = man._log(q[:, None], values)
    r = (weights[:, None, :] @ _flat_rows(logs, 2))[:, 0]
    return logs, angle.max(axis=1), np.sqrt((r * r).sum(-1))


def _initial_guess(man: Manifold, values, weights) -> np.ndarray:
    """On a two-node element the center itself, exp_{v_1}(phi_2 log_{v_1} v_2),
    where that log is defined; elsewhere the projection of the weighted
    embedding sum, else the heaviest nodal value."""
    if values.shape[1] == 2:
        log, angle = man._log(values[:, 0], values[:, 1])
        q = man.exp(values[:, 0], weights[:, 1].reshape((-1,) + (1,) * (log.ndim - 1)) * log)
        cut = _near_cut(angle).nonzero()[0]
        if len(cut):
            q[cut] = _projected_guess(man, values[cut], weights[cut])
        return q
    return _projected_guess(man, values, weights)


def _projected_guess(man: Manifold, values, weights) -> np.ndarray:
    """Projection of the weighted embedding sum, else the heaviest nodal value."""
    q = values[np.arange(len(weights)), weights.argmax(1)]
    sums = (weights[:, None, :] @ _flat_rows(values, 2))[:, 0].reshape(q.shape)
    defined = man._projectable(sums)
    q[defined] = man.project_point(sums[defined])
    return q


def _linearize(man: Manifold, weights, q, logs):
    """(basis at q, Hessian, per-node Hessians, log coefficients L): one basis for all, the Hessians from L."""
    basis = man.tangent_basis(q)                                       # (P, dim, *shape)
    L = _flat_rows(logs, 2) @ _flat_rows(basis, 2).swapaxes(1, 2)    # (P, m, dim)
    hessians = man._dist2_hess_q(L)
    H = (weights[:, None, :] @ _flat_rows(hessians, 2))[:, 0].reshape(hessians[:, 0].shape)
    return basis, 0.5 * (H + H.swapaxes(1, 2)), hessians, L


def _rows(x, idx) -> np.ndarray:
    """x at the points idx (ascending, of all len(x)): x itself, no gather, when they are all."""
    return x if len(idx) == len(x) else x[idx]


def _newton(man: Manifold, values, weights, q) -> _Solution:
    P = len(weights)
    logs, angle, res = _logs(man, q, values, weights)
    active = ~_near_cut(angle)
    errors: dict[int, GFEError] = {} if active.all() else {
        p: man._cut_locus_error(angle[p]) for p in (~active).nonzero()[0]}
    iterations = np.zeros(P, dtype=int)
    # (basis, H, Hn, L) at each point's latest q; an empty batch has its empty ones at once
    lin = None if P else _linearize(man, weights, q, logs)

    while active.any():
        idx = active.nonzero()[0]
        new = _linearize(man, _rows(weights, idx), _rows(q, idx), _rows(logs, idx))
        if len(idx) == P:
            lin = new       # a pass over every point: its own arrays, no copy
        else:               # into an earlier pass's arrays, or zeros where points start at the cut locus
            lin = lin or [np.zeros((P,) + x.shape[1:]) for x in new]
            for x, y in zip(lin, new):
                x[idx] = y
        basis, H, Hn, L = lin
        active[idx[_rows(res, idx) <= _RESIDUAL_TARGET]] = False
        idx = active.nonzero()[0]
        stalled = _rows(iterations, idx) >= _MAX_NEWTON
        if stalled.any():
            errors.update((p, NonConvergenceError(f"Newton stalled at residual {res[p]:.3e} after "
                                                  f"{iterations[p]} iterations")) for p in idx[stalled])
            active[idx[stalled]] = False
            idx = idx[~stalled]
        if not len(idx):
            continue
        # H is symmetric, so H.T is its batch-last stack and Hinv.T the
        # inverses, in C order; delta holds the steps as rows
        Hinv, singular = _sym_inv(_rows(H, idx).T)
        delta = 2.0 * (_rows(weights, idx)[:, None, :] @ _rows(L, idx)) @ Hinv.T
        if singular.any():
            errors.update((p, SingularSystemError("Newton system is singular")) for p in idx[singular])
            active[idx[singular]] = False
            delta, idx = delta[~singular], idx[~singular]
        step = (delta @ _flat_rows(_rows(basis, idx), 2))[:, 0].reshape(_rows(q, idx).shape)

        # damping, in lockstep over the points j (of idx) still looking for a
        # step; the ones that improve take it, all of them by whole-array assignment
        j = np.arange(len(idx))
        for damping in range(_MAX_DAMPING + 1):
            pts = _rows(idx, j)
            q_new = man.exp(_rows(q, pts), _rows(step, j))
            logs_new, angle, res_new = _logs(man, q_new, _rows(values, pts), _rows(weights, pts))
            better = ~_near_cut(angle) & (res_new < _rows(res, pts))
            b = better.nonzero()[0]
            took = _rows(pts, b) if len(b) < P else ...
            q[took], logs[took], res[took] = _rows(q_new, b), _rows(logs_new, b), _rows(res_new, b)
            iterations[took] += 1
            if len(b) == len(j):
                break
            j, pts, angle = j[~better], pts[~better], angle[~better]
            if damping < _MAX_DAMPING:
                step[j] *= 0.5
        else:   # no step left: at the cut locus, or at the floating-point floor, fine if the contract holds
            cut = _near_cut(angle)
            errors.update((p, man._cut_locus_error(a)) for p, a in zip(pts[cut], angle[cut]))
            floor = np.maximum(1.0, np.abs(_flat_rows(values[pts[~cut]], 1)).max(1))
            errors.update((p, NonConvergenceError(f"Newton cannot reduce the residual below {res[p]:.3e}"))
                          for p, f in zip(pts[~cut], floor) if res[p] > _RESIDUAL_TOL * f)
            active[pts] = False

    if lin is not None:     # not every point starts at the cut locus
        for p in (~_positive_definite((lin[1] - _MIN_EIG * _eye(man.intrinsic_dim)).T)).nonzero()[0]:
            errors.setdefault(p, IndefiniteHessianError(
                "converged to a critical point whose Hessian is not positive definite"))
    if errors:
        point = min(errors)
        errors[point].point = int(point)
        raise errors[point]
    return _Solution(q, *lin, int(iterations.max(initial=0)), res)


# ----------------------------------------------------------------------


class GeodesicInterpolant(Interpolant):
    """Weighted-center interpolation of m manifold values on a reference element."""

    @staticmethod
    def _admit(manifold: Manifold, values) -> None:
        """Refuse sphere values spread wider than 0.9*pi, naming the first such
        element of a batch.  A Gram product screens the elements: only those whose
        smallest <v_i, v_j> falls below cos(0.9*pi) + 1e-9 (the unit-length
        tolerance moves it by 2e-12) get the exact ``_max_spread``."""
        if not isinstance(manifold, Sphere):
            return
        flat = np.reshape(values, (-1,) + np.shape(values)[-2:])
        near = ((flat @ flat.swapaxes(1, 2)).min(axis=(1, 2)) < _SPREAD_SCREEN).nonzero()[0]
        wide = near[_max_spread(manifold, flat[near]) > _SPHERE_SPREAD_LIMIT] if len(near) else near
        if len(wide):
            where = f"element {wide[0]}: " if np.ndim(values) > 2 else ""
            raise AdmissibilityError(
                f"{where}nodal values spread {_max_spread(manifold, flat[wide[0]]):.4f} exceeds "
                f"{_SPHERE_SPREAD_LIMIT:.4f}; interpolation refused to avoid cut-locus failures"
            )

    # ------------------------------------------------------------------

    def karcher_check(self) -> KarcherCheck:
        return karcher_check(self.manifold, self.values)

    def _solve(self, xi, weights=None) -> _Solution:
        """Centers at the reference points xi (..., d), all in one lockstep batch, a flat one as it is;
        ``weights`` are the Lagrange weights at xi when the caller has them."""
        man, m, k = self.manifold, self.elem.m, len(self.manifold.point_shape) + 1
        weights = self.elem.shape_values(xi) if weights is None else weights
        values, lead = self.values, weights.shape[:-1]
        if values.shape[:-k] != lead or len(lead) != 1:
            lead = np.broadcast_shapes(lead, values.shape[:-k])
            P = math.prod(lead)
            values = np.broadcast_to(values, lead + values.shape[-k:]).reshape((P,) + values.shape[-k:])
            weights = np.broadcast_to(weights, lead + (m,)).reshape(P, m)
        sol = _newton(man, values, weights, _initial_guess(man, values, weights))
        return sol if len(lead) == 1 else _Solution(*(x.reshape(lead + x.shape[1:]) for x in sol[:5]),
                                                    sol.iterations, sol.residual.reshape(lead))

    # ------------------------------------------------------------------

    def eval(self, xi) -> np.ndarray:
        """The interpolated point; stationarity residual is at most 1e-12 times the largest
        |entry| of the nodal values where that exceeds 1 (only in flat space)."""
        return self._solve(xi).q

    def _center(self, xi, shape=None) -> _Center:
        """The solve at xi as a ``_Center``; ``shape``: the caller's tables of ``energy._layout``."""
        phi, dphi = (self.elem.shape_values(xi), self.elem.shape_gradients(xi)) if shape is None else shape[:2]
        sol = self._solve(xi, phi)
        if shape is None:   # the weights' leading axes broadcast to the batch's
            nodes = sol.log_coeffs.shape[:-1]
            shape = phi, dphi, _batch_last(phi, nodes, 0), _batch_last(dphi, nodes, 1)
        # H is positive definite, as the solve checked; Hinv comes batch-last, Hinv.T batch-first
        Hinv = _sym_inv(sol.hessian.T)[0]
        X = Hinv.T @ (2.0 * (dphi.swapaxes(-1, -2) @ sol.log_coeffs)).swapaxes(-1, -2)   # (..., dim, d)
        # H's derivative in xi at fixed q, sum_j dphi_j/dxi_l dist2_hess_q(v_j, q)
        H_xi = np.einsum("lj...,abj...->lab...", shape[3], sol.node_hessians.T, order="C")
        return _Center(sol.q, sol.basis, sol.log_coeffs.T.copy(), shape[2], shape[3], X.T[:, :, None].copy(),
                       Hinv[:, :, None].copy(), H_xi[:, :, :, None])

    def _batch_last_center(self, c: _Center):
        """(B, q, Eq, u) batch-last: the flattened nodal frames (dim, N, m, ...) where the transport
        reads them (``Manifold._frame_transport``, else None), q, its flattened tangent_basis, u."""
        man = self.manifold
        B = _batch_last_view(man._flat(self._frames_of()), c.u.shape[:0:-1], 2) if man._frame_transport else None
        return B, man._flat(c.q).T[:, None], man._flat(c.basis).T.swapaxes(0, 1)[:, :, None], c.u

    def _basis_gradients(self, c: _Center):
        """Reference gradients G of the nodal basis fields from the center c, (..., m, dim, dim, d),
        entry [i, j, a, l] the tangent_basis(q)[a] coefficient of the l-th derivative of field (i, j),
        and the fields' values V_i = dq/dv_i = -phi_i H^-1 K_i, K_i = dist2_mixed(v_i, q), (..., m, dim,
        dim), entry [i, j, a] alike; returns (G, values).  Differentiates H V_i = -phi_i K_i along
        xi_l, with X_l = dq/dxi_l and the derivatives d_X along X_l of Manifold.dist2_third:

            H dV_i = -dphi_il K_i - phi_i (d_X K_i) - (H_xi,l + d_X Hess_l) V_i.

        Batch-last results, [a, j, i, ...] and [l, a, j, i, ...], come back reversed.
        """
        ein, phi, Hinv = np.einsum, c.phi, c.hessian_inv
        mixed, hess_X, mixed_X = self.manifold._third_blocks(*self._batch_last_center(c), c.dq, phi)
        V = -phi * ein("ac...,cj...->aj...", Hinv, mixed)
        G = ein("ac...,lcj...->laj...", Hinv, -phi * mixed_X - c.dphi[:, None, None] * mixed
                - ein("lac...,cj...->laj...", c.hessian_xi + hess_X, V))
        return G.T, V.T

    def _basis_gradient_terms(self, c: _Center, C):
        """sum_{l,a} C[..., l, a] G[..., i, j, a, l], (..., m, dim): the relation of
        _basis_gradients transposed, with lam_l = H^-1 C_l, mu = sum_l (H_xi,l +
        d_X Hess_l) lam_l and kappa_i = phi_i H^-1 mu - sum_l dphi_il lam_l, is

            terms_i = K_i^T kappa_i - phi_i (d_X K_i)^T lam
                    = T^T (-2 a kappa_i - 2 phi_i g3 P S u_i) + 2 w (s <kappa_i, u_i> + phi_i g1 <lam, PX>)

        in the factors of Manifold.dist2_third (-2 kappa_i where v_i = q), the s directions
        contracted per point first into M = sum_l lam_l X_l^T, S = M + M^T: <lam, PX> = tr M -
        <n_i, M n_i> and sum_l (d_X Hess_l) lam_l = -2 (M U + (M^T + tr M) Y - sum_i phi_i (g1 +
        2 g2) <n_i, M n_i> u_i), U, Y the sums of phi_i g1 u_i, phi_i g2 u_i.  T gets one covector
        per (point, node) pair, and no array outgrows u (dim, m, ...)."""
        man, K = self.manifold, self.manifold._model_curvature
        phi, dphi, X, Hinv, H_xi = c.phi, c.dphi, c.dq, c.hessian_inv, c.hessian_xi
        B, q, Eq, u = self._batch_last_center(c)
        lam = np.einsum("ac...,cl...->la...", Hinv, np.ascontiguousarray(np.asarray(C).T))   # (d, dim, 1, ...)
        r, F = man._curvature_ratios(u)
        a, s, g1, g3 = F
        M = np.einsum("la...,lb...->ab...", lam, X)                          # (dim, dim, 1, ...)
        tr = (lam * X).sum((0, 1))
        Su = np.einsum("ab...,b...->a...", M + M.swapaxes(0, 1), u)          # (dim, m, ...)
        nMn = (0.5 * (u * Su).sum(0)) / np.where(r < 1e-15, np.inf, r * r)
        pg1 = phi * g1
        weights = np.array([pg1, pg1 + K * phi, (3.0 * pg1 + 2.0 * K * phi) * nMn])
        U, Y, V = np.einsum("ki...,ai...->ka...", weights, u)[:, :, None]   # (dim, 1, ...) each
        mu = (H_xi * lam[:, None]).sum((0, 2)) - 2.0 * ((M * U).sum(1) + (M * Y[:, None]).sum(0) + tr * Y - V)
        kappa = phi * (Hinv * mu).sum(1) - np.einsum("li...,la...->ai...", dphi, lam[:, :, 0])
        Su -= (2.0 * nMn) * u                                               # P S u
        Tx, w = man._transported_adjoint(B, q, Eq, u, (-2.0 * a) * kappa - (2.0 * phi * g3) * Su, F)
        Tx += w * (2.0 * (s * (kappa * u).sum(0) + pg1 * (tr - nMn)))
        return np.where(r < 1e-15, -2.0 * kappa, Tx).T
