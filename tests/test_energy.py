import itertools
import math

import numpy as np
import pytest
import scipy.linalg

import gfe
from gfe import (
    GFEFunction,
    GlobalTestFunction,
    algebraic_gradient,
    directional_derivative,
    dirichlet_energy,
    equivalence_audit,
    minimize,
    simplex_quadrature,
    unit_interval_grid,
    unit_square_grid,
)
from gfe.energy import _center_solves, _gradient_terms
from gfe.errors import LineSearchFailure, SingularSystemError
from gfe.kernels import _expm_skew, _hat
from gfe.sampling import random_configuration, random_point
from helpers import (
    classical_energy,
    classical_stiffness,
    fd_energy_hessian,
    great_circle_start,
    random_field_vectors,
    stereographic,
    stereographic_problem,
)

S2 = gfe.Sphere(2)
S1 = gfe.Sphere(1)
E1V = gfe.Euclidean(1)
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


def grad_norm(grad):
    return float(np.linalg.norm(grad))


def sphere_function(grid, seed, rule="geodesic", radius=0.3):
    values = random_configuration(S2, grid.n_nodes, np.random.default_rng(seed), radius=radius)
    return GFEFunction(grid, S2, rule, values)


# ----------------------------------------------------------------------
# quadrature


@pytest.mark.parametrize("dim", [1, 2])
def test_quadrature_exactness_degree_four(dim):
    rule = simplex_quadrature(dim)
    volume = 1.0 if dim == 1 else 0.5
    assert abs(rule.weights.sum() - volume) <= 1e-14
    assert np.all(rule.weights > 0)
    # oracle: exact monomial integrals over the unit simplex,
    # integral of x^a y^b = a! b! / (a+b+2)! on the triangle
    from math import factorial

    for exps in itertools.product(range(5), repeat=dim):
        if sum(exps) > 4:
            continue
        approx = sum(
            w * np.prod(np.asarray(p) ** np.asarray(exps))
            for w, p in zip(rule.weights, rule.points)
        )
        if dim == 1:
            exact = 1.0 / (exps[0] + 1)
        else:
            a, b = exps
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
        assert abs(approx - exact) <= 1e-14


# ----------------------------------------------------------------------
# energy


def test_energy_of_constant_function_is_zero():
    grid = unit_square_grid(2, 1)
    p = random_point(S2, np.random.default_rng(0))
    u = GFEFunction(grid, S2, "geodesic", np.tile(p, (grid.n_nodes, 1)))
    assert dirichlet_energy(u) <= 1e-28


def test_flat_linear_energy_is_half():
    grid = unit_interval_grid(1, 1)
    u = GFEFunction(grid, E1V, "geodesic", np.array([[0.0], [1.0]]))
    assert dirichlet_energy(u) == pytest.approx(0.5, abs=1e-14)


def test_circle_quarter_arc_energy():
    grid = unit_interval_grid(1, 1)
    u = GFEFunction(grid, S1, "geodesic", np.array([[1.0, 0.0], [0.0, 1.0]]))
    # constant-speed geodesic over one unit element: energy = speed^2 / 2
    assert dirichlet_energy(u) == pytest.approx(0.5 * (np.pi / 2) ** 2, abs=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_flat_energy_matches_classical_assembly(order):
    grid = unit_square_grid(2, order)
    rng = np.random.default_rng(1)
    values = rng.standard_normal((grid.n_nodes, 1))
    for rule in ("geodesic", "projection"):
        u = GFEFunction(grid, E1V, rule, values)
        assert abs(dirichlet_energy(u) - classical_energy(u)) <= 1e-12


# ----------------------------------------------------------------------
# first variation


def test_directional_derivative_zero_field():
    grid = unit_interval_grid(4, 1)
    u = sphere_function(grid, seed=2)
    eta = GlobalTestFunction(u, np.zeros_like(u.values))
    assert directional_derivative(u, eta) == 0.0


def test_directional_derivative_constant_function():
    grid = unit_square_grid(2, 1)
    p = random_point(S2, np.random.default_rng(3))
    u = GFEFunction(grid, S2, "geodesic", np.tile(p, (grid.n_nodes, 1)))
    vecs = random_field_vectors(S2, u.values, np.random.default_rng(4))
    eta = GlobalTestFunction(u, vecs)
    assert abs(directional_derivative(u, eta)) <= 1e-13


@pytest.mark.parametrize("rule", ["geodesic", "projection"])
def test_directional_derivative_matches_energy_fd(rule):
    grid = unit_square_grid(1, 1)
    u = sphere_function(grid, seed=5, rule=rule)
    rng = np.random.default_rng(6)
    vecs = random_field_vectors(S2, u.values, rng)
    eta = GlobalTestFunction(u, vecs)
    got = directional_derivative(u, eta)
    h = 1e-5
    up = np.array([S2.exp(v, h * w) for v, w in zip(u.values, vecs)])
    um = np.array([S2.exp(v, -h * w) for v, w in zip(u.values, vecs)])
    fd = (dirichlet_energy(u.with_values(up)) - dirichlet_energy(u.with_values(um))) / (2 * h)
    assert abs(got - fd) / max(abs(fd), 1e-6) <= 1e-4


# ----------------------------------------------------------------------
# algebraic gradient


def test_gradient_constant_function_zero():
    grid = unit_square_grid(2, 1)
    p = random_point(S2, np.random.default_rng(7))
    u = GFEFunction(grid, S2, "geodesic", np.tile(p, (grid.n_nodes, 1)))
    assert grad_norm(algebraic_gradient(u)) <= 1e-12


@pytest.mark.parametrize("order", [1, 2])
def test_flat_gradient_is_stiffness_product(order):
    grid = unit_interval_grid(4, order)
    rng = np.random.default_rng(8)
    values = rng.standard_normal((grid.n_nodes, 1))
    u = GFEFunction(grid, E1V, "geodesic", values)
    K = classical_stiffness(grid)
    expected = K @ values[:, 0]
    grad = algebraic_gradient(u)
    for i in range(grid.n_nodes):
        want = 0.0 if i in grid.boundary_nodes else expected[i]
        assert abs(grad[i][0] - want) <= 1e-10


def test_gradient_is_small_after_minimize():
    # pick a data scale where the descent can certify 1e-8 in double precision
    grid = unit_interval_grid(4, 1)
    th = 0.002
    end = np.array([np.cos(th), np.sin(th), 0.0])
    vals = great_circle_start(grid, EX, end)
    vals[2] = S2.exp(vals[2], 0.0004 * np.array([0.0, 0.0, 1.0]))
    u0 = GFEFunction(grid, S2, "geodesic", vals)
    u, report = minimize(u0, fixed={0, grid.n_nodes - 1}, tol=1e-8, max_iter=500)
    assert report.converged
    assert grad_norm(algebraic_gradient(u)) <= 1e-8


def test_energy_nonnegative_and_zero_only_for_constant():
    grid = unit_square_grid(1, 1)
    rng = np.random.default_rng(40)
    for _ in range(5):
        u = sphere_function(grid, seed=int(rng.integers(1 << 30)))
        assert dirichlet_energy(u) > 0.0
    p = random_point(S2, rng)
    const = GFEFunction(grid, S2, "geodesic", np.tile(p, (grid.n_nodes, 1)))
    assert dirichlet_energy(const) <= 1e-28


def test_gradient_matches_energy_fd_per_node():
    grid = unit_square_grid(1, 1)
    u = sphere_function(grid, seed=41)
    grad = algebraic_gradient(u, fixed=set())
    h = 1e-5
    for i in range(grid.n_nodes):
        B = S2.tangent_basis(u.values[i])
        coeff = B.reshape(2, -1) @ grad[i]
        for j in range(2):
            vp = u.values.copy()
            vm = u.values.copy()
            vp[i] = S2.exp(u.values[i], h * B[j])
            vm[i] = S2.exp(u.values[i], -h * B[j])
            fd = (dirichlet_energy(u.with_values(vp)) - dirichlet_energy(u.with_values(vm))) / (2 * h)
            assert abs(coeff[j] - fd) / max(abs(fd), 1e-6) <= 1e-4


# ----------------------------------------------------------------------
# minimization


def test_minimize_constant_data_stops_immediately():
    grid = unit_interval_grid(4, 1)
    p = random_point(S2, np.random.default_rng(9))
    u0 = GFEFunction(grid, S2, "geodesic", np.tile(p, (grid.n_nodes, 1)))
    u, report = minimize(u0, fixed=set(grid.boundary_nodes), tol=1e-10)
    assert report.iterations == 0
    assert report.converged
    assert report.value <= 1e-25


def test_minimize_flat_laplace_gives_linear_interpolant():
    grid = unit_interval_grid(4, 1)
    values = np.zeros((grid.n_nodes, 1))
    values[-1, 0] = 1.0
    values[1:4, 0] = [0.9, 0.1, 0.5]
    u0 = GFEFunction(grid, E1V, "geodesic", values)
    u, report = minimize(u0, fixed={0, grid.n_nodes - 1}, tol=1e-7, max_iter=500)
    assert report.converged
    assert abs(report.value - 0.5) <= 1e-10
    assert np.allclose(u.values[:, 0], grid.lagrange_nodes[:, 0], atol=1e-7)


def test_minimize_great_circle_benchmark():
    grid = unit_interval_grid(8, 1)
    u0 = GFEFunction(grid, S2, "geodesic", great_circle_start(grid, EX, EY))
    energies = []
    u, report = minimize(
        u0,
        fixed={0, grid.n_nodes - 1},
        tol=1e-6,
        max_iter=500,
        callback=lambda k, E, g: energies.append(E),
    )
    assert report.converged and report.iterations <= 500
    angles = grid.lagrange_nodes[:, 0] * (np.pi / 2)
    expected = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=1)
    assert np.max(np.abs(u.values - expected)) <= 1e-6
    assert abs(report.value - 0.5 * (np.pi / 2) ** 2) <= 1e-6
    # descent monotonicity
    assert all(b <= a for a, b in zip(energies, energies[1:]))


def test_minimize_equivariance_under_rotation():
    grid = unit_interval_grid(8, 1)
    rng = np.random.default_rng(10)
    R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(R) < 0:
        R[:, 0] = -R[:, 0]
    start = great_circle_start(grid, EX, EY)
    fixed = {0, grid.n_nodes - 1}
    u, _ = minimize(GFEFunction(grid, S2, "geodesic", start), fixed, tol=1e-7, max_iter=500)
    u_rot, _ = minimize(GFEFunction(grid, S2, "geodesic", start @ R.T), fixed, tol=1e-7, max_iter=500)
    assert np.max(np.abs(u_rot.values - u.values @ R.T)) <= 1e-6


def test_minimize_line_search_failure_at_unreachable_tolerance():
    grid = unit_interval_grid(4, 1)
    u0 = GFEFunction(grid, S2, "geodesic", great_circle_start(grid, EX, EY))
    # the exact gradient reaches norms of about 7e-16 here, so ask for less than eps
    with pytest.raises(LineSearchFailure):
        minimize(u0, fixed={0, grid.n_nodes - 1}, tol=1e-17, max_iter=10000)


def test_fixed_nodes_are_not_touched():
    grid = unit_interval_grid(4, 1)
    start = great_circle_start(grid, EX, EY)
    u0 = GFEFunction(grid, S2, "geodesic", start)
    fixed = {0, 2, grid.n_nodes - 1}
    u, _ = minimize(u0, fixed=fixed, tol=1e-6, max_iter=200)
    for i in fixed:
        assert np.array_equal(u.values[i], start[i])


def bumped_great_circle(n_elements, order, amplitude=0.2, rule="geodesic"):
    """Quarter great circle from e_x to e_y with an out-of-plane bump, and the exact minimizer."""
    grid = unit_interval_grid(n_elements, order)
    x = grid.lagrange_nodes[:, 0]
    start = np.stack([1.0 - x, x, amplitude * np.sin(np.pi * x)], axis=1)
    start /= np.linalg.norm(start, axis=1)[:, None]
    a = 0.5 * np.pi * x
    return GFEFunction(grid, S2, rule, start), np.stack([np.cos(a), np.sin(a), 0.0 * a], axis=1)


@pytest.mark.parametrize("n_elements", [4, 8, 16, 32, 64])
@pytest.mark.parametrize("order", [1, 2])
def test_preconditioned_descent_iterations_do_not_grow_under_refinement(order, n_elements):
    u0, exact = bumped_great_circle(n_elements, order)
    u, report = minimize(u0, fixed=set(u0.grid.boundary_nodes), tol=1e-6)
    assert report.converged
    assert report.iterations <= 15
    assert np.max(np.abs(u.values - exact)) <= 1e-5


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("make_grid", [lambda p: unit_interval_grid(4, p), lambda p: unit_square_grid(3, p)],
                         ids=["1d", "2d"])
def test_flat_preconditioned_descent_takes_one_step(make_grid, order):
    # the H^1 metric of flat space is the stiffness matrix: one full step solves Laplace
    grid = make_grid(order)
    values = np.random.default_rng(12).standard_normal((grid.n_nodes, 1))
    u, report = minimize(GFEFunction(grid, E1V, "geodesic", values), set(grid.boundary_nodes), tol=1e-9)
    assert report.converged
    assert report.iterations == 1


def test_minimize_refuses_an_empty_fixed_set():
    u0, _ = bumped_great_circle(4, 1)
    with pytest.raises(ValueError, match="fixed"):
        minimize(u0, fixed=set())


@pytest.mark.parametrize("sign", [0.0, -1.0], ids=["singular", "negative-definite"])
def test_minimize_refuses_a_metric_that_gives_no_descent_direction(monkeypatch, sign):
    # a zero metric fails the solve; a negative definite one gives <g, c> < 0;
    # both fail the Cholesky test of the index form I = A - J, so A is tried too
    real = gfe.energy._gradient_terms

    def bad_metric(u, rule, metric=False):
        coeff, A, J = real(u, rule, metric)
        return (coeff, sign * np.eye(len(A)), np.zeros_like(J)) if metric else (coeff, A, J)

    monkeypatch.setattr(gfe.energy, "_gradient_terms", bad_metric)
    u0, _ = bumped_great_circle(4, 1)
    with pytest.raises(SingularSystemError, match="descent iteration 0"):
        minimize(u0, fixed={0, u0.grid.n_nodes - 1})


# ----------------------------------------------------------------------
# the index form and the Newton step


def free_blocks(u, fixed):
    """The free blocks of the H^1 metric A and of the index form I = A - J."""
    _, A, J = _gradient_terms(u, simplex_quadrature(u.grid.dim), metric=True)
    dim = u.manifold.intrinsic_dim
    free = np.array([i for i in range(u.grid.n_nodes) if i not in fixed])
    ff = np.ix_(*[(free[:, None] * dim + np.arange(dim)).ravel()] * 2)
    return A[ff], A[ff] - J[ff]


def bent_rotation_curve(n_elements, order, rule):
    """A turn about e_z with a sinusoidal turn about e_x on top, on SO(3)."""
    grid = unit_interval_grid(n_elements, order)
    x = grid.lagrange_nodes[:, 0]
    values = [_expm_skew(_hat([0.3 * np.sin(np.pi * t), 0.0, 1.2 * t])) for t in x]
    return GFEFunction(grid, gfe.Rotation3(), rule, values)


@pytest.mark.parametrize("rule", ["geodesic", "projection"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("target", ["sphere", "so3"])
def test_index_form_is_the_energy_hessian_at_a_minimizer(target, order, rule):
    # the generalized eigenvalues of (central-difference Hessian, I) at a
    # converged minimizer; the H^1 metric alone misses the curvature term
    u0 = bumped_great_circle(4, order, rule=rule)[0] if target == "sphere" \
        else bent_rotation_curve(4, order, rule)
    fixed = set(u0.grid.boundary_nodes)
    u, report = minimize(u0, fixed, tol=1e-9)
    assert report.converged
    A, I = free_blocks(u, fixed)
    H = fd_energy_hessian(u, fixed)
    eig_I = scipy.linalg.eigh(H, I, eigvals_only=True)
    assert 0.99 <= eig_I.min() and eig_I.max() <= 1.01
    assert scipy.linalg.eigh(H, A, eigvals_only=True).min() < 0.99


@pytest.mark.parametrize("n_elements", [4, 8, 16, 32, 64])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("rule", ["geodesic", "projection"])
def test_newton_descent_converges_in_at_most_5_iterations(rule, order, n_elements):
    u0, exact = bumped_great_circle(n_elements, order, rule=rule)
    u, report = minimize(u0, fixed=set(u0.grid.boundary_nodes), tol=1e-7)
    assert report.converged
    assert report.iterations <= 5
    # nodes of the projection rule's minimizer are unevenly spaced on the circle
    assert np.max(np.abs(u.values[:, 2])) <= 1e-7
    if rule == "geodesic":
        assert np.max(np.abs(u.values - exact)) <= 1e-7


@pytest.mark.parametrize("rule", ["geodesic", "projection"])
def test_minimize_falls_back_to_the_h1_metric_where_the_index_form_is_indefinite(monkeypatch, rule):
    # a start along the long arc from e_x to e_y lies past the conjugate
    # point, where the index form is indefinite: the first steps take the
    # H^1 metric, the last ones the Newton step, and descent reaches the short arc
    certified = []
    real = np.linalg.cholesky

    def recording(M):
        try:
            real(M)
        except np.linalg.LinAlgError:
            certified.append(False)
            raise
        certified.append(True)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    grid = unit_interval_grid(8, 1)
    x = grid.lagrange_nodes[:, 0]
    start = np.stack([np.cos(1.5 * np.pi * x), -np.sin(1.5 * np.pi * x), 0.1 * np.sin(np.pi * x)], axis=1)
    start /= np.linalg.norm(start, axis=1)[:, None]
    u, report = minimize(GFEFunction(grid, S2, rule, start), set(grid.boundary_nodes), tol=1e-7)
    assert report.converged
    assert abs(report.value - np.pi**2 / 8.0) <= 2e-5
    assert not certified[0] and certified[-1]


@pytest.mark.parametrize("rule", ["geodesic", "projection"])
def test_stereographic_2x2_converges_at_tol_1e8(rule):
    # one free node: the energy-Armijo test cannot certify decreases below
    # sqrt(eps * E), a gradient norm of about 2.7e-8 here, which the linearly
    # converging H^1 step reached before 1e-8 under the projection rule
    u0, fixed = stereographic_problem(2, 1, rule)
    u, report = minimize(u0, fixed, tol=1e-8)
    assert report.converged


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rule", ["geodesic", "projection"])
def test_stereographic_2x2_interior_noise_converges_at_tol_1e8(rule, seed):
    # linear convergence reaches the energy's rounding floor (gradient norms of
    # 1e-8 to 3e-8) with the tolerance not yet met; there the full step that
    # lowers the gradient norm is accepted (4 of these 8 ended in
    # LineSearchFailure under the Armijo test alone)
    u0, fixed = stereographic_problem(2, 1, rule, seed=seed, draw_interior=True)
    energies = []
    u, report = minimize(u0, fixed, tol=1e-8, callback=lambda k, e, g: energies.append(e))
    assert report.converged and report.gradient_norm <= 1e-8
    # energies may rise only within the rounding floor
    assert all(b - a <= 8.0 * np.finfo(float).eps * abs(a) for a, b in zip(energies, energies[1:]))


def stereographic_errors(u):
    """L^2 and H^1-seminorm errors against sigma, by the energy's quadrature."""
    rule = simplex_quadrature(2)
    grid = u.grid
    els, k, centers, Gu = _center_solves(u, rule)
    q = np.concatenate([c.q for c in centers])
    value, grad = stereographic(grid._origin[els] + (grid._B[els] @ rule.points[k][:, :, None])[:, :, 0])
    w = grid._detB[els] * rule.weights[k]
    return (math.sqrt(math.fsum(w * np.sum((q - value) ** 2, axis=1))),
            math.sqrt(math.fsum(w * np.sum((Gu - grad) ** 2, axis=(1, 2)))))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("rule", ["geodesic", "projection"])
def test_discretization_errors_converge_at_the_proven_rates(rule, order):
    # L^2 ~ h^(p+1) and H^1 ~ h^p (Grohs, Hardering & Sander, FoCM 2015, for
    # the geodesic rule; with Sprecher, SINUM 2019, for the projection rule)
    errors = []
    for n_side in (2, 4, 8):
        u0, fixed = stereographic_problem(n_side, order, rule)
        u, report = minimize(u0, fixed, tol=1e-7)
        assert report.converged
        errors.append(stereographic_errors(u))
    l2, h1 = np.log2(np.array(errors[-2]) / np.array(errors[-1]))
    assert abs(l2 - (order + 1)) <= 0.25
    assert abs(h1 - order) <= 0.25


def test_order2_geodesic_gradient_matches_energy_fd_per_node():
    # the middle Gauss point coincides with the edge-midpoint node, so the
    # center sits on a nodal value (the third-derivative blocks at v = q)
    u, _ = bumped_great_circle(2, 2)
    grad = algebraic_gradient(u, fixed=())
    h = 1e-4
    for i in range(u.grid.n_nodes):
        B = S2.tangent_basis(u.values[i])
        coeff = B @ grad[i]
        for j in range(2):
            def energy_at(t):
                vals = u.values.copy()
                vals[i] = S2.exp(u.values[i], t * B[j])
                return dirichlet_energy(u.with_values(vals))
            # fourth-order central difference: truncation ~h^4, rounding ~eps/h
            fd = (8.0 * (energy_at(h) - energy_at(-h)) - (energy_at(2 * h) - energy_at(-2 * h))) / (12 * h)
            assert abs(coeff[j] - fd) <= 1e-8


# ----------------------------------------------------------------------
# equivalence of the two derivative routes


def test_equivalence_constant_function_absolute():
    grid = unit_square_grid(1, 1)
    p = random_point(S2, np.random.default_rng(11))
    u = GFEFunction(grid, S2, "geodesic", np.tile(p, (grid.n_nodes, 1)))
    assert equivalence_audit(u, trials=5, seed=0) <= 1e-10


def test_equivalence_flat_case_tight():
    grid = unit_square_grid(1, 1)
    rng = np.random.default_rng(12)
    values = rng.standard_normal((grid.n_nodes, 1))
    u = GFEFunction(grid, E1V, "geodesic", values)
    assert equivalence_audit(u, trials=10, seed=1) <= 1e-8


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("rule", ["geodesic", "projection"])
def test_equivalence_sphere_two_element_grid(order, rule):
    grid = gfe.Grid(
        2,
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0, 1, 2], [0, 2, 3]]),
        order,
    )
    u = sphere_function(grid, seed=20 + order, rule=rule)
    assert equivalence_audit(u, trials=5, seed=2) <= 5e-4


# ----------------------------------------------------------------------
# basis invariance


@pytest.mark.parametrize("man", [S2, gfe.Rotation3()], ids=lambda m: m.kind)
def test_embedded_results_do_not_depend_on_the_tangent_basis(man, monkeypatch):
    grid = unit_square_grid(1, 2)
    values = random_configuration(man, grid.n_nodes, np.random.default_rng(41), radius=0.3)
    u = GFEFunction(grid, man, "geodesic", values)
    energy = dirichlet_energy(u)
    grad = algebraic_gradient(u, fixed=set())

    # replace every basis by a fixed random orthogonal mix of its rows
    dim = man.intrinsic_dim
    R = np.linalg.qr(np.random.default_rng(3).standard_normal((dim, dim)))[0]
    closed_form = type(man).tangent_basis
    k = len(man.point_shape)

    def mixed(self, p):
        B = closed_form(self, p)
        return (R @ B.reshape(B.shape[:-k] + (-1,))).reshape(B.shape)

    monkeypatch.setattr(type(man), "tangent_basis", mixed)
    assert not np.allclose(man.tangent_basis(values[0]), closed_form(man, values[0]))
    assert abs(dirichlet_energy(u) - energy) <= 1e-10
    mixed_grad = algebraic_gradient(u, fixed=set())
    scale = max(1.0, float(np.max(np.abs(grad))))
    assert np.max(np.abs(mixed_grad - grad)) <= 1e-13 * scale
