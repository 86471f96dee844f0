"""Shared finite-difference oracles and small builders for the test suite.

Everything here goes through the public evaluation API only, so these
oracles stay independent of the derivative paths they are used to check.
"""

from __future__ import annotations

import numpy as np

import gfe
from gfe.cli import fd_d_dv, fd_variation  # noqa: F401  (shared with the audit command)
from gfe.errors import ProjectionUndefinedError


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


def fd_dist2_third(man, v, q, x, h=1e-4):
    """Central differences of dist2_hess_q(v, .) and dist2_mixed(v, .) as q
    moves along the geodesic with initial velocity coefficients x (dim,),
    both read in the basis of q transported along it: the oracle for
    ``dist2_third(v, q, x[None], [1.0])`` (its node axis dropped)."""
    E = man.tangent_basis(q)
    k = len(man.point_shape)
    flat = lambda a: a.reshape(a.shape[: a.ndim - k] + (-1,))  # noqa: E731

    def blocks(t):
        qt = man.exp(q, t * np.tensordot(x, E, axes=1))
        frame = man.transport(np.expand_dims(q, 0), np.expand_dims(qt, 0), E)
        C = flat(frame) @ flat(man.tangent_basis(qt)).T
        return C @ man.dist2_hess_q(v, qt) @ C.T, C @ man.dist2_mixed(v, qt)

    (Hp, Mp), (Hm, Mm) = blocks(h), blocks(-h)
    return (Hp - Hm) / (2 * h), (Mp - Mm) / (2 * h)


def transported_basis_oracle(man, v, q):
    """(w, T) for one pair of points by one log(v, q) and one parallel
    transport per basis vector: w the tangent_basis(v) coefficients of
    log_v(q), T the tangent_basis(q) coefficients of tangent_basis(v)
    transported to q; the oracle for ``Manifold._transported_basis``."""
    k = len(man.point_shape)
    flat = lambda a: a.reshape(a.shape[: a.ndim - k] + (-1,))  # noqa: E731
    Bv = man.tangent_basis(v)
    moved = np.array([man.transport(v, q, b) for b in Bv])
    return flat(Bv) @ flat(man.log(v, q)), flat(man.tangent_basis(q)) @ flat(moved).T


def fd_basis_ref_gradients(interp, xi, h=1e-6):
    """Central differences of all nodal-basis fields of a one-element
    interpolant at xi (d,): an oracle in the layout of
    ``gfe.jacobi._basis_ref_gradients``, (m, dim, dim, d) with entry
    [i, j, a, l] the tangent_basis(q)[a] coefficient of the l-th difference
    of field (i, j), after projecting it tangentially at q = eval(xi).

    The 2*d stencil points xi +- h*e_l must lie in the element; they are
    solved in one batch.
    """
    man = interp.manifold
    d = interp.elem.dim
    xi = np.asarray(xi, dtype=float)
    q = interp.eval(xi)
    # stencil points xi + h*e_l, then xi - h*e_l
    qs, mats = interp.d_dv_all(xi + h * np.concatenate([np.eye(d), -np.eye(d)]))
    E = man._flat(man.tangent_basis(qs))                      # (2d, dim, N)
    # embedded values of field (i, j) at each stencil point: sum_k mats[s, i, k, j] E[s, k]
    V = np.einsum("sikj,skn->sijn", mats, E)
    diff = (V[:d] - V[d:]) / (2.0 * h)                        # (d, m, dim, N)
    return np.einsum("lijn,an->ijal", diff, man._flat(man.tangent_basis(q)))


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


def classical_energy(u):
    """Dirichlet energy of a flat (Euclidean(1)) function via shape gradients."""
    grid = u.grid
    rule = gfe.simplex_quadrature(grid.dim)
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


def classical_stiffness(grid):
    """Assembled stiffness matrix of scalar P1/P2 Lagrange elements."""
    rule = gfe.simplex_quadrature(grid.dim)
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


def stereographic(x):
    """The inverse stereographic projection sigma(x) = (2x, 1 - |x|^2)/(1 + |x|^2),
    a harmonic map from the plane into S^2, at points x (..., 2): (values
    (..., 3), gradients (..., 3, 2))."""
    x = np.asarray(x, dtype=float)
    s = 1.0 + np.sum(x * x, axis=-1)[..., None]
    value = np.concatenate([2.0 * x, 2.0 - s], axis=-1) / s
    grad = np.concatenate([2.0 * np.eye(2) * s[..., None] - 4.0 * x[..., :, None] * x[..., None, :],
                           -4.0 * x[..., None, :]], axis=-2) / (s * s)[..., None]
    return value, grad


def stereographic_problem(n_side, order, rule, noise=0.1, seed=0, draw_interior=False):
    """sigma on the criss-cross grid of [-1/2, 1/2]^2: the start (sigma at
    the nodes plus ``noise`` times one seeded normal vector per node, added
    at the interior nodes only, normalized) and the fixed boundary nodes.
    The vectors are drawn for every node, or with ``draw_interior`` for the
    interior nodes only."""
    square = gfe.unit_square_grid(n_side, order)
    grid = gfe.Grid(2, square.vertices - 0.5, square.elements, order)
    values, _ = stereographic(grid.lagrange_nodes)
    interior = [i for i in range(grid.n_nodes) if i not in grid.boundary_nodes]
    rng = np.random.default_rng(seed)
    if draw_interior:
        values[interior] += noise * rng.standard_normal((len(interior), 3))
    else:
        values[interior] += noise * rng.standard_normal(values.shape)[interior]
    values /= np.linalg.norm(values, axis=1)[:, None]
    return gfe.GFEFunction(grid, gfe.Sphere(2), rule, values), set(grid.boundary_nodes)


def fd_energy_hessian(u, fixed, h=1e-4):
    """Central second differences of the Dirichlet energy in the coordinates
    c -> values exp_{u_i}(sum_j c_ij tangent_basis(u_i)[j]) of the nodes
    outside ``fixed``, rows node-major as in the descent metric."""
    man = u.manifold
    dim = man.intrinsic_dim
    free = [i for i in range(u.grid.n_nodes) if i not in fixed]
    basis = man.tangent_basis(u.values[free])
    n = len(free) * dim

    def energy(c):
        values = u.values.copy()
        values[free] = man.exp(u.values[free], np.einsum("ij,ij...->i...", c.reshape(-1, dim), basis))
        return gfe.dirichlet_energy(u.with_values(values))

    e = h * np.eye(n)
    H = np.empty((n, n))
    for a in range(n):
        for b in range(a, n):
            H[a, b] = H[b, a] = (energy(e[a] + e[b]) - energy(e[a] - e[b])
                                 - energy(e[b] - e[a]) + energy(-e[a] - e[b])) / (4.0 * h * h)
    return H


def node_neighbors(grid):
    """The sorted distinct neighbors of every node: the other nodes of the elements it lies in."""
    neighbors = [set() for _ in range(grid.n_nodes)]
    for ids in grid.element_nodes.tolist():
        for a in ids:
            neighbors[a].update(b for b in ids if b != a)
    return [sorted(s) for s in neighbors]


def gauss_seidel_start(grid, man, fixed_values):
    """The reference for ``gfe.cli._relaxed_start``: the same projected
    neighbor averaging, node by node in index order (Gauss-Seidel), each
    node averaging its neighbors' latest values."""
    neighbors = node_neighbors(grid)
    fixed = sorted(fixed_values)
    try:
        seed_value = man.project_point(np.mean([fixed_values[i] for i in fixed], axis=0))
    except ProjectionUndefinedError:
        seed_value = fixed_values[fixed[0]].reshape(man.point_shape)
    values = np.array([fixed_values[i].reshape(man.point_shape) if i in fixed_values else seed_value
                       for i in range(grid.n_nodes)])
    free = [i for i in range(grid.n_nodes) if i not in fixed_values]
    for _ in range(200):
        move = 0.0
        for i in free:
            avg = np.mean([values[j] for j in neighbors[i]], axis=0)
            try:
                new = man.project_point(avg)
            except ProjectionUndefinedError:
                continue
            move = max(move, float(np.linalg.norm(new - values[i])))
            values[i] = new
        if move < 1e-6:
            break
    return values


# ----------------------------------------------------------------------
# negative controls


def corrupt_d_dv_all(mp):
    """Under the monkeypatch mp, shift entry (0, 0) of every matrix that
    ``Interpolant.d_dv_all`` returns by 1e-2, for both rules."""
    exact = gfe.jacobi.Interpolant.d_dv_all

    def corrupted(self, xi):
        q, mats = exact(self, xi)
        mats = mats.copy()
        mats[..., 0, 0] += 1e-2
        return q, mats

    mp.setattr(gfe.jacobi.Interpolant, "d_dv_all", corrupted)


def start_newton_at(mp, q0):
    """Under the monkeypatch mp, start every geodesic Newton solve from q0,
    broadcast to each point of the batch, instead of its initial guess."""
    mp.setattr(gfe.geodesic, "_initial_guess",
               lambda man, values, weights: np.broadcast_to(q0, values[:, 0].shape).copy())
