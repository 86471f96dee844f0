"""Harmonic-map Dirichlet energy on global functions, and its minimization.

The energy of u is (1/2) * integral over the domain of |grad (iota o u)|^2,
assembled with a fixed order-4 simplex quadrature; the gradient of the
embedded composition comes from the interpolants' reference derivatives
mapped through the affine element geometry.

The first variation in the direction of a test field eta is
integral of <grad u, grad eta> (valid because eta is tangent along u), with
the field gradients supplied by the jacobi module.  The algebraic gradient
collects these directional derivatives against the global nodal basis into
one tangent vector per Lagrange node, with fixed (by default: boundary)
nodes zeroed; the directional derivative along eta pairs it, with no node
fixed, with eta's nodal vectors.  ``minimize`` runs Riemannian Newton
descent with Armijo backtracking on the nodal values, with the discrete
index form (the H^1 metric of the test space minus the target's curvature
term, from the same basis fields as the gradient, so no Newton solve)
where it is positive definite and the H^1 metric otherwise, solved densely
on the free degrees of freedom.  On flat space one step solves the problem;
on smooth curved data convergence is quadratic, 3 to 5 steps at every mesh
size, and on rough data (nodal values far apart within an element) linear.

Assembly is batched: all (element, quadrature point) pairs are evaluated
together, element-major, in lockstep batches of at most ``grid._CHUNK``
Newton points.  The energy makes one center solve per batch of quadrature
points and keeps, per batch, what the exact basis-field gradients need of
it.  The gradient and the directional derivative use that once: after an
energy evaluation of the same function under the same rule they make no
Newton solve and no logarithm (which is how ``minimize`` gets its gradient
and metric from the accepted trial), and otherwise one solve per batch.  Both are
assembled in tangent_basis(q) coefficients, so no array of embedded
basis-field gradients is formed.  Per-point contributions are summed with
``math.fsum``, so results do not depend on the batch layout.

``equivalence_audit`` compares, for random nodal tangent directions, the
finite difference of the energy along the corresponding curve of nodal
values against the directional derivative, one gradient paired with every
direction; the two are discretizations of the same derivative and must
agree up to finite-difference noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GFEError, LineSearchFailure, SingularSystemError
from .grid import GFEFunction, GlobalTestFunction, _batches
from .jacobi import _basis_ref_gradients

_ARMIJO_C = 1e-4
_MAX_STEP = 1.0     # the full Newton step
_ARMIJO_BACKTRACK = 0.5
_MIN_STEP = 1e-14
_ROUNDING_FLOOR = 8.0 * np.finfo(float).eps   # relative: energy changes this small are rounding


# ----------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Reference-simplex quadrature: points (nq, d) and positive weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")


def simplex_quadrature(dim: int) -> QuadratureRule:
    """Order-4 rules: 3-point Gauss on [0,1], 6-point on the unit triangle."""
    if dim == 1:
        s = np.sqrt(3.0 / 5.0)
        pts = 0.5 * (1.0 + np.array([-s, 0.0, s]))
        wts = np.array([5.0, 8.0, 5.0]) / 18.0
        return QuadratureRule(pts.reshape(-1, 1), wts)
    if dim == 2:
        a1, w1 = 0.445948490915965, 0.223381589678011
        a2, w2 = 0.091576213509771, 0.109951743655322
        pts = []
        wts = []
        for a, w in ((a1, w1), (a2, w2)):
            pts.extend([[a, a], [1.0 - 2.0 * a, a], [a, 1.0 - 2.0 * a]])
            wts.extend([w, w, w])
        return QuadratureRule(np.array(pts), 0.5 * np.array(wts))
    raise ValueError(f"no quadrature for dimension {dim}")


@dataclass(frozen=True)
class EnergyReport:
    value: float
    gradient_norm: float
    iterations: int
    converged: bool


# ----------------------------------------------------------------------
# energy and first variation


def _rule(u: GFEFunction, quad: QuadratureRule | None) -> QuadratureRule:
    return quad or simplex_quadrature(u.grid.dim)


def _center_solves(u: GFEFunction, rule: QuadratureRule):
    """(elements, quadrature indices, the center evaluation of each batch,
    physical gradients (P, N, d) of u) at all P (element, quadrature point)
    pairs; the centers keep what the exact basis-field gradients need."""
    grid = u.grid
    els, k = grid._pairs(len(rule.weights))
    centers = []
    Gu = np.empty((len(els), u.manifold.embed_dim, grid.dim))
    for b in _batches(len(els)):
        center, cols = u.local(els[b])._center(rule.points[k[b]])
        centers.append(center)
        Gu[b] = np.swapaxes(u.manifold._flat(cols), 1, 2) @ grid._Binv[els[b]]
    return els, k, centers, Gu


def dirichlet_energy(u: GFEFunction, quad: QuadratureRule | None = None) -> float:
    """(1/2) * integral of the squared embedded gradient of u."""
    rule = _rule(u, quad)
    els, k, _, Gu = centers = _center_solves(u, rule)
    u._centers = (rule, centers)
    return 0.5 * math.fsum(u.grid._detB[els] * rule.weights[k] * np.sum(Gu * Gu, axis=(1, 2)))


def directional_derivative(
    u: GFEFunction, eta: GlobalTestFunction, quad: QuadratureRule | None = None
) -> float:
    """First variation of the Dirichlet energy in the direction of eta: the
    pairing of eta's nodal vectors with the algebraic gradient, no node fixed."""
    return math.fsum((algebraic_gradient(u, quad, fixed=()) * eta.vectors).ravel())


def _gradient_terms(u: GFEFunction, rule: QuadratureRule, metric: bool = False):
    """(coeff, A, J): gradient coefficients (n, dim) in the tangent_basis(u_i)
    coordinates, no node fixed, and with ``metric`` (else None) the parts
    (n*dim, n*dim) of the index form I = A - J over the global nodal basis
    fields phi_ij, row i*dim + j: the H^1 Gram matrix (the stiffness matrix
    on flat space) and the curvature term on a target of curvature K,

        A[(i, j), (k, l)] = sum_q w_q <grad phi_ij, grad phi_kl>,
        J[(i, j), (k, l)] = sum_q w_q K (|grad u|^2 <phi_ij, phi_kl>
                                         - sum_a <phi_ij, d_a u> <phi_kl, d_a u>).

    All come from the same basis fields, so they add no Newton solve, and
    are assembled in tangent_basis(q) coefficients at the quadrature points."""
    grid = u.grid
    man = u.manifold
    dim = man.intrinsic_dim
    # the memo is used once: it hands the energy's center solves to the gradient
    memo, u._centers = u._centers, None
    if memo is not None and np.array_equal(memo[0].points, rule.points) \
            and np.array_equal(memo[0].weights, rule.weights):
        els, k, centers, Gu = memo[1]
    else:
        els, k, centers, Gu = _center_solves(u, rule)
    K = man._model_curvature
    coeff = np.zeros((grid.n_nodes, dim))
    A, J = (np.zeros((grid.n_nodes * dim,) * 2) for _ in range(2)) if metric else (None, None)
    for b, center in zip(_batches(len(els)), centers):
        Binv = grid._Binv[els[b]]
        w = grid._detB[els[b]] * rule.weights[k[b]]
        nodes = grid.element_nodes[els[b]]
        _, G, V = _basis_ref_gradients(u.local(els[b]), rule.points[k[b]], center=center)
        # term (i, j): the weighted integrand of the directional derivative
        # along basis field (i, j), whose physical gradient is G[:, i, j] @ Binv;
        # u's gradient enters through its tangent_basis(q) coefficients EGu, as
        # C = EGu Binv^T, [p, l, a], in one matmul over G's layout [p, i, l, a, j]
        EGu = man._flat(center.basis) @ Gu[b]                            # (P, dim, d)
        C = np.swapaxes(EGu @ np.swapaxes(Binv, 1, 2), 1, 2).reshape(len(G), 1, 1, -1)
        terms = (C @ np.swapaxes(G, 2, 4).reshape(G.shape[:2] + (-1, dim)))[:, :, 0]
        np.add.at(coeff, nodes, terms * w[:, None, None])
        if metric:
            # F[p, i*dim + j] is the flattened physical gradient of field (i, j)
            F = G @ Binv[:, None, None]
            F = F.reshape(F.shape[0], -1, F.shape[3] * F.shape[4])
            dofs = (nodes[:, :, None] * dim + np.arange(dim)).reshape(len(F), -1)
            block = (dofs[:, :, None], dofs[:, None, :])
            np.add.at(A, block, (F * w[:, None, None]) @ np.swapaxes(F, 1, 2))
            if K:
                V = V.reshape(len(V), -1, dim)                           # (P, m*dim, dim)
                VG = V @ EGu                                             # <phi_ij, d_a u>
                wg2 = w * np.sum(EGu * EGu, axis=(1, 2))
                np.add.at(J, block, K * (wg2[:, None, None] * (V @ np.swapaxes(V, 1, 2))
                                         - (VG * w[:, None, None]) @ np.swapaxes(VG, 1, 2)))
    return coeff, A, J


def _embedded(man, values: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """The tangent vectors at values (n, *point_shape) with tangent_basis coefficients coeff (n, dim)."""
    return np.einsum("ij,ij...->i...", coeff, man.tangent_basis(values))


def algebraic_gradient(
    u: GFEFunction,
    quad: QuadratureRule | None = None,
    fixed: set[int] | None = None,
) -> np.ndarray:
    """Energy gradient as one embedded tangent vector per Lagrange node.

    Returns an (n, *point_shape) array.  Component (i, j) is the directional
    derivative along the global nodal basis function carrying
    tangent_basis(u_i)[j] at node i.  Entries at ``fixed`` nodes (grid
    boundary nodes by default) are zeroed.
    """
    coeff = _gradient_terms(u, _rule(u, quad))[0]
    coeff[sorted(u.grid.boundary_nodes if fixed is None else set(fixed))] = 0.0
    return _embedded(u.manifold, u.values, coeff)


# ----------------------------------------------------------------------
# minimization


def minimize(
    u0: GFEFunction,
    fixed: set[int],
    quad: QuadratureRule | None = None,
    max_iter: int = 500,
    tol: float = 1e-8,
    callback=None,
):
    """Riemannian Newton descent on the discrete index form, with Armijo
    backtracking.

    Each iteration solves M_ff c = g_f on the free degrees of freedom, where
    g holds the gradient coefficients in tangent_basis(u_i) and M is the
    index form I = A - J of ``_gradient_terms`` where ``np.linalg.cholesky``
    certifies it positive definite and the H^1 metric A otherwise (one dense
    ``np.linalg.solve``; memory grows as the square of the number of free
    degrees of freedom), and updates the nodal values outside ``fixed`` by
    v_i <- exp_{v_i}(-alpha * sum_j c_ij tangent_basis(v_i)[j]).
    The first trial step is min(1, 2 * the previous accepted step), so a
    full Newton step is tried first and never exceeded; it
    is halved until E_try <= E - 1e-4 * alpha * <g, c> and E_try < E.  A full
    step with E_try - E <= 8 * eps * |E|, at the energy's rounding floor, is
    also accepted when its gradient norm is below the current one.  Trial
    states that fail to evaluate (admissibility, cut locus, projection) are
    treated like an insufficient decrease.  Stops when the norm of the
    algebraic gradient is at most ``tol``.  Returns (minimizer,
    EnergyReport).  Raises ValueError for an empty ``fixed`` set (the metric
    is then singular), SingularSystemError when the solve fails or gives no
    descent direction (<g, c> <= 0), and LineSearchFailure when the step
    underflows below 1e-14.
    """
    rule = _rule(u0, quad)
    fixed_set = set(fixed)
    if not fixed_set:
        raise ValueError("minimize needs at least one fixed node (the H^1 metric is singular otherwise)")
    fixed_nodes = sorted(fixed_set)
    u = u0
    man = u.manifold
    n, dim = u.grid.n_nodes, man.intrinsic_dim
    free = [i for i in range(n) if i not in fixed_set]
    # the free degrees of freedom, node-major: rows i*dim + j of the metric
    free_dofs = (np.array(free, dtype=int)[:, None] * dim + np.arange(dim)).ravel()
    ff = np.ix_(free_dofs, free_dofs)
    energy = dirichlet_energy(u, rule)
    alpha_prev = 0.5 * _MAX_STEP
    iterations = 0

    def gradient(u):
        coeff, A, J = _gradient_terms(u, rule, metric=True)
        coeff[fixed_nodes] = 0.0
        A = A[ff]   # one free block at a time, each freeing its full matrix
        J = J[ff]
        return coeff, float(np.linalg.norm(_embedded(man, u.values, coeff))), A, np.subtract(A, J, out=J)

    coeff, gnorm, A, I = gradient(u)
    if callback is not None:
        callback(iterations, energy, gnorm)

    while gnorm > tol and iterations < max_iter:
        g = coeff[free].ravel()
        try:
            np.linalg.cholesky(I)
            M = I       # positive definite: the Newton step
        except np.linalg.LinAlgError:
            M = A
        try:
            c = np.linalg.solve(M, g)
            if not g @ c > 0.0:
                raise np.linalg.LinAlgError("the step is no descent direction")
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"H^1 metric is singular or not positive definite at descent iteration {iterations}"
            ) from exc
        A = I = M = None    # freed before the next assembly
        slope = float(g @ c)
        direction = _embedded(man, u.values[free], c.reshape(-1, dim))
        alpha = min(_MAX_STEP, 2.0 * alpha_prev)
        while True:
            trial = u.values.copy()
            ok, grad_try = True, None
            try:
                trial[free] = man.exp(u.values[free], -alpha * direction)
                u_try = u.with_values(trial)
                e_try = dirichlet_energy(u_try, rule)
            except GFEError:
                ok = False
            if ok and e_try <= energy - _ARMIJO_C * alpha * slope and e_try < energy:
                break
            if ok and alpha == _MAX_STEP and e_try - energy <= _ROUNDING_FLOOR * abs(energy):
                # at the energy's rounding floor the Armijo test cannot tell: the full
                # step is taken if it lowers the gradient norm, and its gradient kept
                grad_try = gradient(u_try)
                if grad_try[1] < gnorm:
                    break
                grad_try = None
            alpha *= _ARMIJO_BACKTRACK
            if alpha < _MIN_STEP:
                raise LineSearchFailure(
                    f"step underflow at descent iteration {iterations} "
                    f"(energy {energy:.12e}, gradient norm {gnorm:.3e})"
                )
        u, energy, alpha_prev = u_try, e_try, alpha
        iterations += 1
        try:
            coeff, gnorm, A, I = grad_try or gradient(u)
        except GFEError as exc:
            raise type(exc)(f"at descent iteration {iterations}: {exc}") from exc
        if callback is not None:
            callback(iterations, energy, gnorm)

    return u, EnergyReport(energy, gnorm, iterations, bool(gnorm <= tol))


# ----------------------------------------------------------------------
# two-route derivative comparison


def equivalence_audit(
    u: GFEFunction,
    quad: QuadratureRule | None = None,
    trials: int = 20,
    seed: int = 0,
) -> float:
    """Max discrepancy between the two routes to the first variation.

    For each of ``trials`` random unit nodal tangent directions: (A) central
    finite difference (h = 1e-5) of the energy along the curve of nodal
    values exp_{v_i}(t * b_i), and (B) the directional derivative against
    the assembled test field.  Discrepancies are relative when either route
    exceeds 1e-6 in magnitude and absolute otherwise.
    """
    rule = _rule(u, quad)
    man = u.manifold
    n = u.grid.n_nodes
    dim = man.intrinsic_dim
    rng = np.random.default_rng(seed)
    grad = algebraic_gradient(u, rule, fixed=())
    h = 1e-5

    worst = 0.0
    for _ in range(trials):
        coeff = rng.standard_normal((n, dim))
        coeff /= np.linalg.norm(coeff)
        vecs = _embedded(man, u.values, coeff)

        plus = man.exp(u.values, h * vecs)
        minus = man.exp(u.values, -h * vecs)
        route_a = (
            dirichlet_energy(u.with_values(plus), rule)
            - dirichlet_energy(u.with_values(minus), rule)
        ) / (2.0 * h)

        # directional_derivative(u, eta, rule), with the gradient assembled once
        route_b = math.fsum((grad * vecs).ravel())

        denom = max(abs(route_a), abs(route_b))
        disc = abs(route_a - route_b) if denom < 1e-6 else abs(route_a - route_b) / denom
        worst = max(worst, disc)
    return worst
