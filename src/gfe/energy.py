"""Harmonic-map Dirichlet energy on global functions, and its minimization.

The energy of u is (1/2) * integral over the domain of |grad (iota o u)|^2,
assembled with a fixed order-4 simplex quadrature from the interpolants'
dq/dxi in tangent_basis(q) coefficients, mapped through the affine element
geometry: the basis is orthonormal, so they carry the embedded norm.

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

Assembly is batched: all (element, quadrature point) pairs of a state are
evaluated together, element-major, in one lockstep center solve; their
layout and shape tables, batch-first and batch-last, are built once per grid
(``_layout``).  A state keeps the record of its quadrature data
(``_assembly``), built by whichever of the energy, the gradient or the
directional derivative comes first, and its nodal frames; later calls on
the state make no Newton solve and no logarithm, which is how ``minimize``
gets its gradient and metric from the accepted trial; it reads the gradient
norm from the free coefficients and sums the index form, formed point by
point, into its free block once per step.  Per-point
contributions are summed with ``math.fsum``.  The gradient alone
(``algebraic_gradient``, ``directional_derivative``, ``equivalence_audit``)
pairs u's gradient with every nodal basis field's gradient through
``Interpolant._basis_gradient_terms``, which on the geodesic rule forms
none of them; the metric of ``minimize`` is their Gram matrix, summed point
by point into its free block alone, so it forms them all
(``_basis_ref_gradients``, on the geodesic rule no other block of their size)
and pairs them with ``jacobi._pair``, as the projection rule's gradient does;
it forms the blocks from them only for a state it steps from (``_gradient_route``).

``equivalence_audit`` compares the two, along random nodal directions,
with the extrapolated finite difference of the energy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GFEError, LineSearchFailure, SingularSystemError
from .grid import GFEFunction, GlobalTestFunction
from .jacobi import _basis_ref_gradients, _pair

_ARMIJO_C = 1e-4
_MAX_STEP = 1.0     # the full Newton step
_ARMIJO_BACKTRACK = 0.5
_MIN_STEP = 1e-14
_ROUNDING_FLOOR = 8.0 * np.finfo(float).eps   # relative: energy changes this small are rounding


# ----------------------------------------------------------------------
# quadrature


class QuadratureRule(NamedTuple):
    """Reference-simplex quadrature: points (nq, d) and positive weights, read-only."""

    points: np.ndarray
    weights: np.ndarray


@functools.cache
def simplex_quadrature(dim: int) -> QuadratureRule:
    """Order-4 rules: 3-point Gauss on [0,1], 6-point on the unit triangle."""
    if dim == 1:
        s = np.sqrt(3.0 / 5.0)
        rule = QuadratureRule((0.5 * (1.0 + np.array([-s, 0.0, s]))).reshape(-1, 1),
                              np.array([5.0, 8.0, 5.0]) / 18.0)
    elif dim == 2:
        pts = [p for a in (0.445948490915965, 0.091576213509771)
               for p in ([a, a], [1.0 - 2.0 * a, a], [a, 1.0 - 2.0 * a])]
        rule = QuadratureRule(np.array(pts), 0.5 * np.repeat([0.223381589678011, 0.109951743655322], 3))
    else:
        raise ValueError(f"no quadrature for dimension {dim}")
    for x in rule:
        x.flags.writeable = False
    return rule


@dataclass(frozen=True)
class EnergyReport:
    value: float
    gradient_norm: float
    iterations: int
    converged: bool


# ----------------------------------------------------------------------
# energy and first variation


def _layout(grid, dim: int):
    """(els, xi, w, Binv, dofs, shape) of grid's P (element, point) pairs under
    ``simplex_quadrature``, element-major: elements, reference points, weights
    detB * rule weights, inverse element maps, the dof i*dim + j of field
    (i, j) and shape, the Lagrange weights (P, m), their gradients (P, m, d) and both
    batch-last at xi; built once per grid and intrinsic dimension for all its states."""
    if dim not in grid._layouts:
        rule = simplex_quadrature(grid.dim)
        els, k = grid._pairs(len(rule.weights))
        xi = rule.points[k]
        dofs = (grid.element_nodes[els][:, :, None] * dim + np.arange(dim)).reshape(len(els), -1)
        phi, dphi = grid.ref.shape_values(xi), grid.ref.shape_gradients(xi)
        grid._layouts[dim] = (els, xi, grid._detB[els] * rule.weights[k], grid._Binv[els], dofs,
                              (phi, dphi, np.ascontiguousarray(phi.T), np.ascontiguousarray(dphi.T)))
    return grid._layouts[dim]


class _Assembly(NamedTuple):
    """The quadrature data of a function state u over its P (element, point)
    pairs in element-major order."""

    els: np.ndarray     # (P,) elements
    w: np.ndarray       # (P,) weights, detB * rule weights
    interp: object      # u's interpolant stacked over els
    xi: np.ndarray      # (P, d) reference points
    center: object      # the center solve at xi
    Gu: np.ndarray      # (P, dim, d) physical gradients of u in tangent_basis(q) coefficients


def _assembly(u: GFEFunction) -> _Assembly:
    """The record of u under ``simplex_quadrature``, built by one center solve
    on first use; an error of that solve names the element of its point."""
    if u._assembly is None:
        els, xi, w, Binv, _, shape = _layout(u.grid, u.manifold.intrinsic_dim)
        interp = u.local(els)
        try:
            center = interp._center(xi, shape)
        except GFEError as exc:
            if exc.point is not None:
                exc.args = (f"element {els[exc.point]}: {exc}",)
            raise
        u._assembly = _Assembly(els, w, interp, xi, center, center.dq_dxi @ Binv)
    return u._assembly


def dirichlet_energy(u: GFEFunction) -> float:
    """(1/2) * integral of the squared embedded gradient of u."""
    a = _assembly(u)
    return 0.5 * math.fsum(a.w * (a.Gu * a.Gu).sum((1, 2)))


def directional_derivative(u: GFEFunction, eta: GlobalTestFunction) -> float:
    """First variation of the Dirichlet energy in the direction of eta: the
    pairing of eta's nodal vectors with the algebraic gradient, no node fixed.
    ValueError for an eta based on another grid (object), manifold or nodal values than u."""
    base = eta.base
    other = ("grid" if base.grid is not u.grid else "manifold" if base.manifold != u.manifold
             else "nodal values" if not np.array_equal(base.values, u.values) else None)
    if other:
        raise ValueError(f"the test function is based on another {other} than u")
    return math.fsum((algebraic_gradient(u, fixed=()) * eta.vectors).ravel())


def _scatter(index, x, *shape) -> np.ndarray:
    """The entries of x summed at the flat indices index, in order, into an array of shape."""
    return np.bincount(index.ravel(), x.ravel(), math.prod(shape)).reshape(shape)


def _gradient_terms(u: GFEFunction, metric: bool = False):
    """(coeff, A, J): gradient coefficients (n, dim) in the tangent_basis(u_i)
    coordinates, no node fixed, and with ``metric`` (else None) the per-point
    blocks (P, m*dim, m*dim) of the index form I = A - J at the layout's dofs
    i*dim + j: the H^1 Gram matrix (the stiffness matrix on flat space) and the
    curvature term on a target of curvature K (None if K = 0), which sum to

        A[(i, j), (k, l)] = sum_q w_q <grad phi_ij, grad phi_kl>,
        J[(i, j), (k, l)] = sum_q w_q K (|grad u|^2 <phi_ij, phi_kl>
                                         - sum_a <phi_ij, d_a u> <phi_kl, d_a u>).

    All come from the same basis fields, so they add no Newton solve, and
    are assembled in tangent_basis(q) coefficients at the quadrature points."""
    coeff, blocks = _gradient_route(u, metric)
    return (coeff, *blocks()) if metric else (coeff, None, None)


def _gradient_route(u: GFEFunction, metric: bool):
    """(coeff, blocks): ``_gradient_terms``' coeff and, with ``metric`` (else None), the function that
    forms its (A, J) once, from the basis-field gradients coeff was paired with, dropping them as it goes."""
    grid = u.grid
    man = u.manifold
    dim = man.intrinsic_dim
    a = _assembly(u)
    K = man._model_curvature
    Binv, dofs = _layout(grid, dim)[3:5]    # _scatter sums field (i, j)'s terms at its dof
    # term (i, j): the weighted integrand of the directional derivative
    # along basis field (i, j), whose physical gradient is G[:, i, j] @ Binv;
    # u's gradient Gu enters as C = (Gu Binv^T)^T = Binv Gu^T, [p, l, a]
    C = Binv @ a.Gu.swapaxes(1, 2)
    if not metric:      # the route of the gradient alone: no G on the geodesic rule
        terms = a.interp._basis_gradient_terms(a.center, C)
        return _scatter(dofs, terms * a.w[:, None, None], grid.n_nodes, dim), None
    _, G, V = _basis_ref_gradients(a.interp, a.xi, center=a.center)

    def blocks():
        nonlocal G, V       # each dropped once read: A and J are the route's largest arrays
        # F[p, i*dim + j] is the flattened physical gradient of field (i, j)
        F, G = G @ Binv[:, None, None], None
        F = F.reshape(F.shape[0], -1, F.shape[3] * F.shape[4])
        A = (F * a.w[:, None, None]) @ F.swapaxes(1, 2)
        del F
        if not K:
            return A, None
        V = V.reshape(len(V), -1, dim)                                   # (P, m*dim, dim)
        VG, J, V = V @ a.Gu, V @ V.swapaxes(1, 2), None                 # <phi_ij, d_a u>, and J in place
        J *= (a.w * (a.Gu * a.Gu).sum((1, 2)))[:, None, None]
        J -= (VG * a.w[:, None, None]) @ VG.swapaxes(1, 2)
        J *= K
        return A, J
    return _scatter(dofs, _pair(G, C) * a.w[:, None, None], grid.n_nodes, dim), blocks


def _free_scatter(grid, dim: int, fixed):
    """(free, scatter): grid's nodes outside fixed, and the map from per-point blocks at the layout's
    dofs, such as ``_gradient_terms``' A, to their sums (nf, nf) over the free dofs, node-major."""
    free = [i for i in range(grid.n_nodes) if i not in fixed]
    nf = len(free) * dim
    number = np.full((grid.n_nodes, dim), -1)     # each dof's free index, -1 at a fixed node
    number[free] = np.arange(nf).reshape(-1, dim)
    r = number.ravel()[_layout(grid, dim)[4]]
    keep = (r[:, :, None] >= 0) & (r[:, None, :] >= 0)
    index = (r[:, :, None] * nf + r[:, None, :])[keep]
    return free, lambda blocks: _scatter(index, blocks[keep], nf, nf)


def _embedded(frames: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """The tangent vectors with coefficients coeff (n, dim) in the frames (n, dim, *point_shape)."""
    return np.einsum("ij,ij...->i...", coeff, frames)


def _fixed_nodes(grid, fixed) -> frozenset:
    """The node indices in ``fixed``; ValueError names one that is not an integer in 0..n-1 (nor a bool)."""
    for i in fixed:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < grid.n_nodes:
            raise ValueError(f"fixed node {i!r} is not an integer in 0..{grid.n_nodes - 1}")
    return frozenset(fixed)


def algebraic_gradient(u: GFEFunction, fixed: set[int] | None = None) -> np.ndarray:
    """Energy gradient as one embedded tangent vector per Lagrange node.

    Returns an (n, *point_shape) array.  Component (i, j) is the directional
    derivative along the global nodal basis function carrying
    tangent_basis(u_i)[j] at node i.  Entries at ``fixed`` nodes (grid
    boundary nodes by default) are zeroed; ValueError for a fixed index that
    is not an integer in 0..n-1.
    """
    coeff = _gradient_terms(u)[0]
    coeff[sorted(u.grid.boundary_nodes if fixed is None else _fixed_nodes(u.grid, fixed))] = 0.0
    return _embedded(u._frames(), coeff)


# ----------------------------------------------------------------------
# minimization


def minimize(
    u0: GFEFunction,
    fixed: set[int],
    max_iter: int = 500,
    tol: float = 1e-8,
    callback=None,
):
    """Riemannian Newton descent on the discrete index form, with Armijo
    backtracking.

    Each iteration solves M_ff c = g_f on the free degrees of freedom, where
    g_f holds the gradient coefficients of the free nodes in tangent_basis(u_i)
    (orthonormal, so |g_f| is the norm of the algebraic gradient) and M_ff is
    the index form I = A - J of ``_gradient_terms``, formed point by point and
    summed once into the free block, where ``np.linalg.cholesky`` certifies it
    positive definite, and the free block of the H^1 metric A otherwise (one
    dense solve; memory grows as its size squared), and updates the nodal
    values outside ``fixed`` by
    v_i <- exp_{v_i}(-alpha * sum_j c_ij tangent_basis(v_i)[j]).
    The first trial step is min(1, 2 * the previous accepted step), so a
    full Newton step is tried first and never exceeded; it
    is halved until E_try <= E - 1e-4 * alpha * <g, c> and E_try < E.  A full
    step with E_try - E <= 8 * eps * |E|, at the energy's rounding floor, is
    also accepted when its gradient norm is below the current one.  Trial
    states that fail to evaluate (admissibility, cut locus, projection) or
    whose energy overflows are treated like an insufficient decrease.  Stops
    when the norm of the algebraic gradient is at most ``tol``.  Returns (minimizer,
    EnergyReport).  Raises ValueError for a NaN or negative ``tol``, a
    negative ``max_iter``, an empty ``fixed`` set (the metric is then
    singular) or a fixed index that is not an integer in 0..n-1,
    SingularSystemError when the solve fails or gives no descent direction
    (<g, c> <= 0), and LineSearchFailure when the step underflows below 1e-14.
    """
    if not tol >= 0.0 or max_iter < 0:
        raise ValueError(f"minimize needs tol >= 0 and max_iter >= 0, got tol={tol} and max_iter={max_iter}")
    fixed_set = _fixed_nodes(u0.grid, fixed)
    if not fixed_set:
        raise ValueError("minimize needs at least one fixed node (the H^1 metric is singular otherwise)")
    u = u0
    man = u.manifold
    free, free_block = _free_scatter(u.grid, man.intrinsic_dim, fixed_set)
    energy = dirichlet_energy(u)
    alpha_prev = 0.5 * _MAX_STEP
    iterations = 0

    def gradient(u):    # the metric blocks of u are formed only if a step is taken from it
        coeff, blocks = _gradient_route(u, metric=True)
        g = coeff[free].ravel()     # in orthonormal frames: |g| is the algebraic gradient's norm
        return g, float(np.linalg.norm(g)), blocks

    g, gnorm, blocks = gradient(u)
    if callback is not None:
        callback(iterations, energy, gnorm)

    while gnorm > tol and iterations < max_iter:
        A, J = blocks()
        M = free_block(A if J is None else np.subtract(A, J, out=J))   # I = A - J, formed per point
        del J       # the per-point blocks are the step's largest arrays: none is kept into the line search
        try:
            np.linalg.cholesky(M)   # the Newton step where the index form is positive definite
        except np.linalg.LinAlgError:
            M = free_block(A)       # the H^1 step otherwise
        del A
        try:
            c = np.linalg.solve(M, g)
            if not g @ c > 0.0:
                raise np.linalg.LinAlgError("the step is no descent direction")
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"H^1 metric is singular or not positive definite at descent iteration {iterations}"
            ) from exc
        slope = float(g @ c)
        direction = _embedded(u._frames()[free], c.reshape(len(free), -1))
        alpha = min(_MAX_STEP, 2.0 * alpha_prev)
        while True:
            trial, grad_try = u.values.copy(), None
            try:
                trial[free] = man.exp(u.values[free], -alpha * direction)
                u_try = u.with_values(trial)
                e_try = dirichlet_energy(u_try)
            except GFEError:
                e_try = np.inf  # fails both tests below
            if e_try <= energy - _ARMIJO_C * alpha * slope and e_try < energy:
                break
            if alpha == _MAX_STEP and e_try - energy <= _ROUNDING_FLOOR * abs(energy):
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
        # u holds its quadrature record from the trial, so this makes no solve
        g, gnorm, blocks = grad_try or gradient(u)
        if callback is not None:
            callback(iterations, energy, gnorm)

    return u, EnergyReport(energy, gnorm, iterations, bool(gnorm <= tol))


# ----------------------------------------------------------------------
# two-route derivative comparison


def equivalence_audit(
    u: GFEFunction,
    trials: int = 20,
    seed: int = 0,
) -> float:
    """Max discrepancy between the two routes to the first variation.

    For each of ``trials`` random unit nodal tangent directions: (A) the
    Richardson extrapolation (4 D(h/2) - D(h))/3, h = 2e-3, of the central
    differences D of the energy along the curve of nodal values
    exp_{v_i}(t * b_i), whose error is O(h**4) plus rounding of about
    eps/h (near 1e-12 relative, against 2e-11 for one central difference at
    h = 1e-5), and (B) the directional derivative against the assembled test
    field.  Discrepancies are relative when either route exceeds 1e-6 in
    magnitude and absolute otherwise.
    """
    man = u.manifold
    n = u.grid.n_nodes
    dim = man.intrinsic_dim
    rng = np.random.default_rng(seed)
    grad = algebraic_gradient(u, fixed=())
    frames = u._frames()
    h = 2e-3

    worst = 0.0
    for _ in range(trials):
        coeff = rng.standard_normal((n, dim))
        coeff /= np.linalg.norm(coeff)
        vecs = _embedded(frames, coeff)

        def central(t):
            plus, minus = (dirichlet_energy(u.with_values(man.exp(u.values, s * vecs))) for s in (t, -t))
            return (plus - minus) / (2.0 * t)

        route_a = (4.0 * central(0.5 * h) - central(h)) / 3.0

        # directional_derivative(u, eta), with the gradient assembled once
        route_b = math.fsum((grad * vecs).ravel())

        denom = max(abs(route_a), abs(route_b))
        disc = abs(route_a - route_b) if denom < 1e-6 else abs(route_a - route_b) / denom
        worst = max(worst, disc)
    return worst
