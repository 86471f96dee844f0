"""Shared finite-difference oracles and small builders for the test suite.

Everything here goes through the public evaluation API only, so these
oracles stay independent of the derivative paths they are used to check.
"""

from __future__ import annotations

import numpy as np

import gfe
from gfe.cli import fd_d_dv, fd_variation  # noqa: F401  (shared with the audit command)


# ----------------------------------------------------------------------
# finite-difference oracles


def fd_hess_dist2(man, v, q, h=1e-5):
    """Central second differences of dist(v, .)**2 through exp at q."""
    dim = man.intrinsic_dim
    E = man.tangent_basis(q)

    def f(y):
        return man.dist(v, man.exp(q, np.tensordot(y, E, axes=1))) ** 2

    H = np.empty((dim, dim))
    for i in range(dim):
        for j in range(dim):
            yi = np.zeros(dim)
            yj = np.zeros(dim)
            yi[i] = h
            yj[j] = h
            H[i, j] = (f(yi + yj) - f(yi - yj) - f(yj - yi) + f(-yi - yj)) / (4 * h * h)
    return H


def fd_mixed_dist2(man, v, q, h=1e-4):
    """Cross second differences of dist**2 in (v, q) jointly."""
    dim = man.intrinsic_dim
    B = man.tangent_basis(v)
    E = man.tangent_basis(q)

    def f(s, j, t, i):
        vv = man.exp(v, s * B[j])
        qq = man.exp(q, t * E[i])
        return man.dist(vv, qq) ** 2

    M = np.empty((dim, dim))
    for i in range(dim):
        for j in range(dim):
            M[i, j] = (
                f(h, j, h, i) - f(h, j, -h, i) - f(-h, j, h, i) + f(-h, j, -h, i)
            ) / (4 * h * h)
    return M


def chordal_residual(interp, xi, at_point=None) -> float:
    """Stationarity residual of the chordal weighted least-squares problem.

    Measures the tangential gradient of q -> sum_i phi_i(xi) * |v_i - q|**2
    at ``at_point`` (default: the projection interpolant's own value).  For
    closest-point projections this is zero at the interpolant, because the
    projected point is exactly the chordal minimizer.
    """
    man = interp.manifold
    w = np.tensordot(interp.elem.shape_values(xi), interp.values, axes=1)
    q = man.project_point(w) if at_point is None else np.asarray(at_point, dtype=float)
    # gradient of the chordal functional in the embedding: 2*(q - w),
    # using that the weights sum to one
    return float(np.linalg.norm(man.project_tangent(q, 2.0 * (q - w))))


def rel_err(A, B, floor=1e-6):
    A = np.asarray(A)
    B = np.asarray(B)
    return np.linalg.norm(A - B) / max(np.linalg.norm(B), floor)


# ----------------------------------------------------------------------
# classical scalar FEM oracle (flat reduction reference)


def classical_energy(u, quad=None):
    """Dirichlet energy of a flat (Euclidean(1)) function via shape gradients."""
    grid = u.grid
    rule = quad or gfe.simplex_quadrature(grid.dim)
    total = 0.0
    for e in range(grid.n_elements):
        vals = u.values[grid.element_nodes[e], 0]
        Binv = grid._Binv[e]
        acc = 0.0
        for w, xi in zip(rule.weights, rule.points):
            dphi = grid.ref.shape_gradients(xi) @ Binv  # (m, d) physical
            g = vals @ dphi
            acc += w * float(g @ g)
        total += grid._detB[e] * acc
    return 0.5 * total


def classical_stiffness(grid, quad=None):
    """Assembled stiffness matrix of scalar P1/P2 Lagrange elements."""
    rule = quad or gfe.simplex_quadrature(grid.dim)
    n = grid.n_nodes
    K = np.zeros((n, n))
    for e in range(grid.n_elements):
        ids = grid.element_nodes[e]
        Binv = grid._Binv[e]
        for w, xi in zip(rule.weights, rule.points):
            dphi = grid.ref.shape_gradients(xi) @ Binv
            K[np.ix_(ids, ids)] += grid._detB[e] * w * (dphi @ dphi.T)
    return K


# ----------------------------------------------------------------------
# builders


def unit_tangent(man, p, coeffs):
    basis = man.tangent_basis(p)
    return np.tensordot(np.asarray(coeffs, dtype=float), basis, axes=1)


def great_circle_start(grid, e_from, e_to):
    """Chord interpolation between two unit vectors, normalized per node."""
    vals = []
    for x in grid.lagrange_nodes[:, 0]:
        w = (1.0 - x) * e_from + x * e_to
        vals.append(w / np.linalg.norm(w))
    return np.array(vals)


def random_field_vectors(man, values, rng, scale=1.0):
    from gfe.sampling import random_tangent

    return [random_tangent(man, v, rng, scale=scale) for v in values]


def nodal_basis_vectors(man, values, i, j):
    """Nodal vectors of the nodal basis field (i, j): the one-hot array carrying
    tangent_basis(values[i])[j] at node i and zero at every other node."""
    vecs = np.zeros_like(values)
    vecs[i] = man.tangent_basis(values[i])[j]
    return vecs
