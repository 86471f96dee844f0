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
fixed, with eta's nodal vectors.  ``minimize`` runs Riemannian gradient
descent with Armijo backtracking on the nodal values.

Assembly is batched: all (element, quadrature point) pairs are evaluated
together, element-major, in lockstep batches of at most ``grid._CHUNK``
Newton points.  The energy makes one center solve per batch of quadrature
points; the gradient and the directional derivative add one stencil solve
per batch of _CHUNK / (2d) quadrature points (2d stencil points each), and
reuse the center solves of the last energy evaluation of the same function
under the same rule (which is how ``minimize`` gets its gradient from the
accepted trial).  Per-point contributions are summed with ``math.fsum``, so
results do not depend on the batch layout.

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

from .errors import GFEError, LineSearchFailure
from .grid import _CHUNK, GFEFunction, GlobalTestFunction, _batches
from .jacobi import _basis_ref_gradients

_FIELD_FD_STEP = 1e-6
_ARMIJO_C = 1e-4
_ARMIJO_BACKTRACK = 0.5
_MIN_STEP = 1e-14


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
    """(elements, quadrature indices, centers, physical gradients (P, N, d) of u)
    at all P (element, quadrature point) pairs."""
    grid = u.grid
    els, k = grid._pairs(len(rule.weights))
    q = np.empty((len(els),) + u.manifold.point_shape)
    Gu = np.empty((len(els), u.manifold.embed_dim, grid.dim))
    for b in _batches(len(els)):
        q[b], cols = u.local(els[b])._d_dxi(rule.points[k[b]])
        Gu[b] = np.swapaxes(u.manifold._flat(cols), 1, 2) @ grid._Binv[els[b]]
    return els, k, q, Gu


def dirichlet_energy(u: GFEFunction, quad: QuadratureRule | None = None) -> float:
    """(1/2) * integral of the squared embedded gradient of u."""
    rule = _rule(u, quad)
    els, k, q, Gu = centers = _center_solves(u, rule)
    u._centers = (rule, centers)
    return 0.5 * math.fsum(u.grid._detB[els] * rule.weights[k] * np.sum(Gu * Gu, axis=(1, 2)))


def directional_derivative(
    u: GFEFunction, eta: GlobalTestFunction, quad: QuadratureRule | None = None
) -> float:
    """First variation of the Dirichlet energy in the direction of eta: the
    pairing of eta's nodal vectors with the algebraic gradient, no node fixed."""
    return math.fsum((algebraic_gradient(u, quad, fixed=()) * eta.vectors).ravel())


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
    grid = u.grid
    man = u.manifold
    rule = _rule(u, quad)
    memo = u._centers
    if memo is not None and np.array_equal(memo[0].points, rule.points) \
            and np.array_equal(memo[0].weights, rule.weights):
        els, k, q, Gu = memo[1]
    else:
        els, k, q, Gu = _center_solves(u, rule)
    coeff = np.zeros((grid.n_nodes, man.intrinsic_dim))
    for b in _batches(len(els), _CHUNK // (2 * grid.dim)):
        Binv = grid._Binv[els[b]]
        _, G = _basis_ref_gradients(u.local(els[b]), rule.points[k[b]], h=_FIELD_FD_STEP, q=q[b])
        # term (i, j): the weighted integrand of the directional derivative
        # along basis field (i, j), whose physical gradient is G[:, i, :, j, :] @ Binv
        terms = np.einsum("pnk,pinjl,plk->pij", Gu[b], G, Binv)
        terms = terms * (grid._detB[els[b]] * rule.weights[k[b]])[:, None, None]
        np.add.at(coeff, grid.element_nodes[els[b]], terms)
    fixed_set = grid.boundary_nodes if fixed is None else set(fixed)
    coeff[sorted(fixed_set)] = 0.0
    return np.einsum("ij,ij...->i...", coeff, man.tangent_basis(u.values))


# ----------------------------------------------------------------------
# minimization


def minimize(
    u0: GFEFunction,
    fixed: set[int],
    quad: QuadratureRule | None = None,
    max_iter: int = 500,
    tol: float = 1e-8,
    initial_step: float = 1.0,
    callback=None,
):
    """Riemannian gradient descent with Armijo backtracking.

    Nodal values outside ``fixed`` are updated by v <- exp_v(-alpha * grad);
    each iteration's trial step doubles the previous accepted step and is
    halved until the energy decreases sufficiently (c = 1e-4).  Trial states
    that fail to evaluate (admissibility, cut locus, projection) are treated
    like an insufficient decrease.  Returns (minimizer, EnergyReport);
    raises LineSearchFailure when the step underflows below 1e-14.
    """
    rule = _rule(u0, quad)
    fixed_set = set(fixed)
    u = u0
    energy = dirichlet_energy(u, rule)
    alpha_prev = 0.5 * initial_step
    iterations = 0
    free = [i for i in range(u.grid.n_nodes) if i not in fixed_set]

    grad = algebraic_gradient(u, rule, fixed_set)
    gnorm = float(np.linalg.norm(grad))
    if callback is not None:
        callback(iterations, energy, gnorm)

    while gnorm > tol:
        if iterations >= max_iter:
            break
        alpha = 2.0 * alpha_prev
        while True:
            trial = u.values.copy()
            ok = True
            try:
                trial[free] = u.manifold.exp(u.values[free], -alpha * grad[free])
                u_try = u.with_values(trial)
                e_try = dirichlet_energy(u_try, rule)
            except GFEError:
                ok = False
            if ok and e_try <= energy - _ARMIJO_C * alpha * gnorm**2 and e_try < energy:
                break
            alpha *= _ARMIJO_BACKTRACK
            if alpha < _MIN_STEP:
                raise LineSearchFailure(
                    f"step underflow at descent iteration {iterations} "
                    f"(energy {energy:.12e}, gradient norm {gnorm:.3e})"
                )
        u, energy, alpha_prev = u_try, e_try, alpha
        iterations += 1
        try:
            grad = algebraic_gradient(u, rule, fixed_set)
        except GFEError as exc:
            raise type(exc)(f"at descent iteration {iterations}: {exc}") from exc
        gnorm = float(np.linalg.norm(grad))
        if callback is not None:
            callback(iterations, energy, gnorm)

    report = EnergyReport(energy, gnorm, iterations, bool(gnorm <= tol))
    return u, report


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
    bases = man.tangent_basis(u.values)
    grad = algebraic_gradient(u, rule, fixed=())
    h = 1e-5

    worst = 0.0
    for _ in range(trials):
        coeff = rng.standard_normal((n, dim))
        coeff /= np.linalg.norm(coeff)
        vecs = np.einsum("ij,ij...->i...", coeff, bases)

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
