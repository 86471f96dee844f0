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
test-function fields dq/dv_i . b from the data of the solve at xi alone,
batch-last, in the rank-one forms of the manifold module, together with
the fields' values dq/dv_i . b.  The energy's gradient pairs them with u's
gradient in reverse mode (``_basis_gradient_terms``, which overrides the
base class's pairing of formed gradients): one covector per (point, node)
pair goes through the transported frame, and no gradient, third
derivative, mixed block or frame is formed, nor any array larger than the
log coefficients; its metric, their Gram matrix, forms them.  H is
inverted by ``kernels._sym_inv`` in closed form and certified by
Sylvester's test on H - 1e-10 I.

On a two-node element Newton starts at the center itself, the geodesic
point exp_{v_1}(phi_2 log_{v_1} v_2), finds the residual at its target and
makes no step: the solve is one linearization, the one the derivatives
read.  Where that log is at the cut locus, and on larger elements, Newton
starts from the projection-based interpolant where a projection exists and
from the nodal value with the largest weight otherwise; steps are halved
(up to 20 times) whenever the residual does not decrease, which keeps the
iteration stable for second-order weights that take negative values.

Every evaluation is batched: reference points may carry leading axes, and
so may the nodal values of an interpolant built over several elements at
once (``GFEFunction.local`` with an array of elements); the two broadcast.
``_solve`` runs one Newton iteration over all points in lockstep, each
point with its own convergence test, damping halvings and cut-locus trials,
and each point takes exactly the steps it would take alone; a pass in which
every point is active, or improves, is one of whole arrays, with no gather.
The Lagrange weights and the inverses of ``kernels._sym_inv`` come in
layouts that give each matmul the same numpy loop at every batch size, so
the centers of a batch equal those of its points solved one at a time bit
for bit; derivatives agree to rounding.  An empty batch gives empty arrays.
The cut locus, a stall, a singular system and an undefined projection are
masks over the batch (the angles of ``Manifold._log``, ``_projectable``),
read point by point only when they hold one, not exceptions to recover
from.  When points fail, the error of the lowest-index one is raised, with
that C-order flat index over the batch's leading axes as its ``point``.
As a rule of ``jacobi.Interpolant`` it supplies ``eval``, ``_center``,
``_basis_gradients`` and ``_admit``, which refuses sphere values spread
wider than 0.9*pi, and overrides ``_basis_gradient_terms`` in reverse mode.
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

# contract bound on the stationarity residual, and the tighter target the
# iteration aims for (quadratic convergence makes the target nearly free;
# landing close to machine precision keeps downstream energy differences
# smooth enough for line searches)
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
    """Centers of a batch of points, the arrays with the batch's leading axes;
    ``_center`` adds the fields from hessian_inv on and drops the Hessians,
    which a state's quadrature record would otherwise keep."""

    q: np.ndarray            # (..., *point_shape)
    basis: np.ndarray        # (..., dim, *point_shape), tangent_basis(q)
    hessian: np.ndarray      # (..., dim, dim)
    node_hessians: np.ndarray  # (..., m, dim, dim), dist2_hess_q(v_i, q)
    log_coeffs: np.ndarray   # (..., m, dim), the logs in that basis
    weights: np.ndarray      # (..., m), the Lagrange weights phi_i(xi)
    iterations: int          # lockstep Newton sweeps: the most any point took
    residual: np.ndarray     # (...,)
    hessian_inv: np.ndarray | None = None       # (..., dim, dim)
    hessian_xi: np.ndarray | None = None        # (..., d, dim, dim), dH/dxi at fixed q
    dq: np.ndarray | None = None                # (..., dim, d), dq/dxi in tangent_basis(q)
    weight_gradients: np.ndarray | None = None  # (..., m, d)


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


def _linearize(man: Manifold, values, weights, q, logs):
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
    lin = None if P else _linearize(man, values, weights, q, logs)

    while active.any():
        idx = active.nonzero()[0]
        new = _linearize(man, _rows(values, idx), _rows(weights, idx), _rows(q, idx), _rows(logs, idx))
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
            errors.update((p, NonConvergenceError(f"Newton cannot reduce the residual below {res[p]:.3e}"))
                          for p in pts[~cut] if res[p] > _RESIDUAL_TOL)
            active[pts] = False

    if lin is not None:     # not every point starts at the cut locus
        for p in (~_positive_definite((lin[1] - _MIN_EIG * _eye(man.intrinsic_dim)).T)).nonzero()[0]:
            errors.setdefault(p, IndefiniteHessianError(
                "converged to a critical point whose Hessian is not positive definite"))
    if errors:
        point = min(errors)
        errors[point].point = int(point)
        raise errors[point]
    return _Solution(q, *lin, weights, int(iterations.max(initial=0)), res)


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
        """Centers at the reference points xi (..., d), all in one lockstep batch;
        ``weights`` are the Lagrange weights at xi when the caller has them."""
        man = self.manifold
        shape = man.point_shape
        weights = self.elem.shape_values(xi) if weights is None else weights
        lead = np.broadcast_shapes(weights.shape[:-1], self.values.shape[: -len(shape) - 1])
        P = math.prod(lead)
        values = np.broadcast_to(self.values, lead + self.values.shape[-len(shape) - 1:])
        values = values.reshape((P, self.elem.m) + shape)
        w = np.broadcast_to(weights, lead + weights.shape[-1:]).reshape(P, self.elem.m)
        sol = _newton(man, values, w, _initial_guess(man, values, w))
        return _Solution(*(x.reshape(lead + x.shape[1:]) for x in sol[:6]), sol.iterations,
                         sol.residual.reshape(lead))

    # ------------------------------------------------------------------

    def eval(self, xi) -> np.ndarray:
        """The interpolated point; stationarity residual is at most 1e-12."""
        return self._solve(xi).q

    def _center(self, xi, shape=None):
        """(center, cols): the solve at xi, with what the exact basis-field
        gradients need added, and the columns d(interpolant)/d(xi_k)
        (..., d, *point_shape)."""
        man = self.manifold
        phi, dphi = (self.elem.shape_values(xi), self.elem.shape_gradients(xi)) if shape is None else shape
        sol = self._solve(xi, phi)
        rhs = 2.0 * (dphi.swapaxes(-1, -2) @ sol.log_coeffs)            # (..., d, dim)
        Hinv = _sym_inv(sol.hessian.T)[0].T     # H is symmetric positive definite, as the solve checked
        X = Hinv @ rhs.swapaxes(-1, -2)
        cols = X.swapaxes(-1, -2) @ man._flat(sol.basis)               # (..., d, N)
        # H's derivative in xi at fixed q, sum_j dphi_j/dxi_l dist2_hess_q(v_j, q)
        H_xi = np.einsum("...jl,...jab->...lab", dphi, sol.node_hessians)
        return sol._replace(hessian=None, node_hessians=None, hessian_inv=Hinv, hessian_xi=H_xi, dq=X,
                            weight_gradients=dphi), \
            cols.reshape(cols.shape[:-1] + man.point_shape)

    def _batch_last_center(self, c: _Solution, *extra):
        """The center c batch-last as Manifold._dist2_third takes it: phi (m, ...),
        dphi (d, m, ...), v, q, Eq, u, X = dq/dxi (d, dim, 1, ...), H^-1 (dim, dim, 1, ...),
        H_xi (d, dim, dim, 1, ...), then the matrices extra (..., s, dim) as (s, dim, 1, ...);
        v, q and Eq, which only some frames read, as views, not copies."""
        man, lead = self.manifold, c.log_coeffs.shape[:-2]
        nodes, point = lead + (self.elem.m,), lead + (1,)
        one = lambda x, k: (x.reshape(point + x.shape[len(lead):]), point, k)   # noqa: E731
        return (_batch_last(c.weights, nodes, 0), _batch_last(c.weight_gradients, nodes, 1),
                _batch_last_view(man._flat(self.values), nodes, 1), _batch_last_view(*one(man._flat(c.q), 1)),
                _batch_last_view(*one(man._flat(c.basis), 2)), _batch_last(c.log_coeffs, nodes, 1),
                _batch_last(*one(c.dq.swapaxes(-1, -2), 2)), _batch_last(*one(c.hessian_inv, 2)),
                _batch_last(*one(c.hessian_xi, 3)), *(_batch_last(*one(x, 2)) for x in extra))

    def _basis_gradients(self, c: _Solution):
        """Reference gradients G of the nodal basis fields from the center c,
        (..., m, dim, dim, d), entry [i, j, a, l] the tangent_basis(q)[a]
        coefficient of the l-th derivative of field (i, j), and the fields'
        values V_i = dq/dv_i = -phi_i H^-1 K_i, K_i = dist2_mixed(v_i, q),
        (..., m, dim, dim), entry [i, j, a] alike; returns (G, values).
        Differentiates H V_i = -phi_i K_i along xi_l, with
        X_l = dq/dxi_l and the derivatives d_X along X_l from dist2_third:

            H dV_i = -dphi_il K_i - phi_i (d_X K_i) - (sum_j dphi_jl Hess_j + phi_j d_X Hess_j) V_i.

        H is positive definite, as the solve checked.  Batch-last results,
        [a, j, i, ...] and [l, a, j, i, ...], come back by reversing their axes.
        """
        phi, dphi, v, q, Eq, u, X, Hinv, H_xi = self._batch_last_center(c)
        mixed, hess_X, mixed_X = self.manifold._dist2_third(v, q, Eq, u, X, phi)
        HK = np.einsum("ac...,cb...->ab...", Hinv, mixed)
        V = -phi * HK
        # H^-1 applied term by term, to the smaller operand of each
        G = (np.einsum("ac...,lcb...->lab...", -phi * Hinv, mixed_X) - dphi[:, None, None] * HK
             - np.einsum("lac...,cb...->lab...", np.einsum("ac...,lcb...->lab...", Hinv, H_xi + hess_X), V))
        return G.T, V.T

    def _basis_gradient_terms(self, c: _Solution, C):
        """sum_{l,a} C[..., l, a] G[..., i, j, a, l], (..., m, dim): the relation of
        _basis_gradients transposed, with lam_l = H^-1 C_l, mu = sum_l (H_xi,l +
        d_X Hess_l) lam_l and kappa_i = phi_i H^-1 mu - sum_l dphi_il lam_l, is

            terms_i = K_i^T kappa_i - phi_i (d_X K_i)^T lam
                    = T^T (-2 a kappa_i - 2 phi_i g3 P S u_i) + 2 w (s <kappa_i, u_i> + phi_i g1 <lam, PX>)

        in the factors of Manifold._dist2_third (-2 kappa_i where v_i = q), the s directions
        contracted per point first into M = sum_l lam_l X_l^T, S = M + M^T: <lam, PX> = tr M -
        <n_i, M n_i> and sum_l (d_X Hess_l) lam_l = -2 (M U + (M^T + tr M) Y - sum_i phi_i (g1 +
        2 g2) <n_i, M n_i> u_i), U, Y the sums of phi_i g1 u_i, phi_i g2 u_i.  T gets one covector
        per (point, node) pair, and no array outgrows u (dim, m, ...)."""
        man, K = self.manifold, self.manifold._model_curvature
        phi, dphi, v, q, Eq, u, X, Hinv, H_xi, lam = self._batch_last_center(c, C @ c.hessian_inv)
        r, F = man._curvature_ratios(u)
        a, s, g1, g3 = F
        M = np.einsum("la...,lb...->ab...", lam, X)                          # (dim, dim, 1, ...)
        tr = (lam * X).sum((0, 1))
        Su = np.einsum("ab...,b...->a...", M + M.swapaxes(0, 1), u)          # (dim, m, ...)
        nMn = (0.5 * (u * Su).sum(0)) / np.where(r < 1e-15, np.inf, r * r)
        pg1 = phi * g1
        weights = np.stack([pg1, pg1 + K * phi, (3.0 * pg1 + 2.0 * K * phi) * nMn])
        U, Y, V = np.einsum("ki...,ai...->ka...", weights, u)[:, :, None]   # (dim, 1, ...) each
        mu = (H_xi * lam[:, None]).sum((0, 2)) - 2.0 * ((M * U).sum(1) + (M * Y[:, None]).sum(0) + tr * Y - V)
        kappa = phi * (Hinv * mu).sum(1) - np.einsum("li...,la...->ai...", dphi, lam[:, :, 0])
        Su -= (2.0 * nMn) * u                                               # P S u
        Tx, w = man._transported_adjoint(v, q, Eq, u, (-2.0 * a) * kappa - (2.0 * phi * g3) * Su, F)
        Tx += w * (2.0 * (s * (kappa * u).sum(0) + pg1 * (tr - nMn)))
        return np.where(r < 1e-15, -2.0 * kappa, Tx).T
