"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion; each line is printed before the assertion so failures still
report their measured numbers.
"""

import numpy as np

import gfe
from gfe import (
    ElementTestField,
    GeodesicInterpolant,
    GFEFunction,
    GlobalTestFunction,
    ProjectionInterpolant,
    ReferenceElement,
    algebraic_gradient,
    dirichlet_energy,
    equivalence_audit,
    minimize,
    unit_interval_grid,
    unit_square_grid,
)
from gfe.cli import main as cli_main
from gfe.errors import ProjectionUndefinedError
from gfe.kernels import _polar_iterates, polar_decompose
from gfe.sampling import random_configuration, random_point, random_tangent
from helpers import (
    chordal_residual,
    classical_energy,
    classical_stiffness,
    corrupt_d_dv_all,
    fd_d_dv,
    fd_variation,
    great_circle_start,
    random_field_vectors,
)

S2 = gfe.Sphere(2)
SO3 = gfe.Rotation3()
E1V = gfe.Euclidean(1)
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


def report(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, text


def interior_xi(elem, rng):
    return 0.6 * rng.dirichlet(np.ones(elem.dim + 1))[1:] + 0.4 * elem.nodes.mean(axis=0)


def two_element_square(order):
    return gfe.Grid(
        2,
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0, 1, 2], [0, 2, 3]]),
        order,
    )


# ----------------------------------------------------------------------


def test_criterion_1_flat_reduction():
    rng = np.random.default_rng(101)
    worst = 0.0
    for grid in (unit_interval_grid(4, 1), unit_interval_grid(4, 2),
                 unit_square_grid(2, 1), unit_square_grid(2, 2)):
        values = rng.standard_normal((grid.n_nodes, 1))
        K = classical_stiffness(grid)
        for rule in ("geodesic", "projection"):
            u = GFEFunction(grid, E1V, rule, values)
            # interpolation against classical Lagrange evaluation
            for _ in range(10):
                x = rng.uniform(0.0, 1.0, size=grid.dim)
                e, xi = grid.locate(x)
                classical = grid.ref.shape_values(xi) @ values[grid.element_nodes[e], 0]
                worst = max(worst, abs(u.evaluate(x)[0] - classical))
            # test fields against classical shape-function combinations
            b = rng.standard_normal((grid.n_nodes, 1))
            eta = GlobalTestFunction(u, b)
            for _ in range(10):
                x = rng.uniform(0.0, 1.0, size=grid.dim)
                e, xi = grid.locate(x)
                classical = grid.ref.shape_values(xi) @ b[grid.element_nodes[e], 0]
                q, vec = eta.evaluate(x)
                E1V.check_tangent(q, vec)
                worst = max(worst, abs(vec[0] - classical))
            # energy and gradient against the classical assembly
            worst = max(worst, abs(dirichlet_energy(u) - classical_energy(u)))
            Kv = K @ values[:, 0]
            for i, g in enumerate(algebraic_gradient(u)):
                want = 0.0 if i in grid.boundary_nodes else Kv[i]
                worst = max(worst, abs(g[0] - want))
    report(1, worst <= 1e-12, f"flat reduction max deviation {worst:.3e} (tol 1e-12)")


def test_criterion_2_optimality_residual():
    rng = np.random.default_rng(202)
    worst = 0.0
    for man in (S2, SO3):
        for order in (1, 2):
            elem = ReferenceElement(2, order)
            for _ in range(50):
                values = random_configuration(man, elem.m, rng, radius=0.3)
                gi = GeodesicInterpolant(elem, values, man)
                xi = rng.dirichlet(np.ones(3))[1:]
                q = gi.eval(xi)
                w = elem.shape_values(xi)
                resid = np.linalg.norm(sum(wi * man.log(q, v) for wi, v in zip(w, values)))
                worst = max(worst, resid)
    report(2, worst <= 1e-12,
           f"optimality residual max {worst:.3e} over 200 seeded pairs (tol 1e-12)")


def test_criterion_3_implicit_derivative_vs_fd():
    worst = 0.0
    for man, n_configs, seed in ((S2, 50, 303), (SO3, 20, 304)):
        rng = np.random.default_rng(seed)
        for k in range(n_configs):
            order = 1 if k % 2 == 0 else 2
            elem = ReferenceElement(2, order)
            values = random_configuration(man, elem.m, rng, radius=0.3)
            gi = GeodesicInterpolant(elem, values, man)
            xi = interior_xi(elem, rng)
            _, mats = gi.d_dv_all(xi)
            for i, M in enumerate(mats):
                M_fd = fd_d_dv(gi, xi, i)
                worst = max(worst, np.linalg.norm(M - M_fd) / max(np.linalg.norm(M_fd), 1e-6))
    report(3, worst <= 1e-4,
           f"nodal derivative vs exp-curve FD max rel err {worst:.3e} (tol 1e-4)")


def test_criterion_4_kronecker_property():
    rng = np.random.default_rng(404)
    worst = 0.0
    for man in (S2, SO3):
        dim = man.intrinsic_dim
        for order in (1, 2):
            elem = ReferenceElement(2, order)
            values = random_configuration(man, elem.m, rng, radius=0.3)
            for cls in (GeodesicInterpolant, ProjectionInterpolant):
                interp = cls(elem, values, man)
                for j, node in enumerate(elem.nodes):
                    _, mats = interp.d_dv_all(node)
                    for i in range(elem.m):
                        expected = np.eye(dim) if i == j else np.zeros((dim, dim))
                        worst = max(worst, np.max(np.abs(mats[i] - expected)))
    report(4, worst <= 1e-10, f"Kronecker d_dv at nodes, max deviation {worst:.3e} (tol 1e-10)")


def test_criterion_5_sphere_jacobi_specialization():
    rng = np.random.default_rng(505)
    p = random_point(S2, rng)
    q = S2.exp(p, random_tangent(S2, p, rng, scale=1.3))
    theta = S2.dist(p, q)
    binormal = np.cross(p, q)
    binormal /= np.linalg.norm(binormal)
    interp = GeodesicInterpolant(ReferenceElement(1, 1), [p, q], S2)
    field = ElementTestField(interp, np.array([np.zeros(3), binormal]))
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 21):
        center, got = field.eval_field([t])
        S2.check_tangent(center, got)
        expected = np.sin(t * theta) / np.sin(theta) * binormal
        worst = max(worst, np.linalg.norm(got - expected))
    report(5, worst <= 1e-8,
           f"Jacobi-field profile max deviation {worst:.3e} at 21 points (tol 1e-8)")


def test_criterion_6_variation_property():
    rng = np.random.default_rng(606)
    worst = 0.0
    cases = [(S2, GeodesicInterpolant), (S2, ProjectionInterpolant),
             (SO3, GeodesicInterpolant), (SO3, ProjectionInterpolant)]
    for k in range(50):
        man, cls = cases[k % 4]
        order = 1 if (k // 4) % 2 == 0 else 2
        elem = ReferenceElement(2, order)
        values = random_configuration(man, elem.m, rng, radius=0.3)
        interp = cls(elem, values, man)
        vecs = random_field_vectors(man, values, rng)
        field = ElementTestField(interp, vecs)
        xi = interior_xi(elem, rng)
        q, got = field.eval_field(xi)
        man.check_tangent(q, got)
        _, fd = fd_variation(interp, vecs, xi)
        worst = max(worst, np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-6))
    report(6, worst <= 1e-4,
           f"variation property max rel err {worst:.3e} over 50 configs (tol 1e-4)")


def test_criterion_7_chordal_stationarity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(200):
        order = int(rng.integers(1, 3))
        elem = ReferenceElement(2, order)
        values = random_configuration(S2, elem.m, rng, radius=0.4)
        pi = ProjectionInterpolant(elem, values, S2)
        xi = rng.dirichlet(np.ones(3))[1:]
        worst = max(worst, chordal_residual(pi, xi))
    report(7, worst <= 1e-10,
           f"chordal stationarity residual max {worst:.3e} over 200 configs (tol 1e-10)")


def test_criterion_8_polar_iteration():
    rng = np.random.default_rng(808)
    worst_svd = 0.0
    ratios_ok = True
    measured = 0
    for _ in range(100):
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(U) < 0:
            U[:, 0] = -U[:, 0]
        if np.linalg.det(V) < 0:
            V[:, 0] = -V[:, 0]
        A = U @ np.diag(rng.uniform(0.35, 2.8, size=3)) @ V.T
        Q, _ = polar_decompose(A)
        Us, _, Vts = np.linalg.svd(A)
        worst_svd = max(worst_svd, np.max(np.abs(Q - Us @ Vts)))
        _, residuals = _polar_iterates(A)
        usable = [r for r in residuals if 1e-13 < r < 0.9]
        if len(usable) >= 3:
            measured += 1
            r1, r2, r3 = usable[-3:]
            ratios_ok = ratios_ok and np.log(r3) / np.log(r2) >= 1.8
            ratios_ok = ratios_ok and np.log(r2) / np.log(r1) >= 1.8
    ok = worst_svd <= 1e-8 and ratios_ok and measured >= 50
    report(8, ok,
           f"polar iteration: svd deviation {worst_svd:.3e} (tol 1e-8), "
           f"quadratic decay on {measured}/100 matrices: {ratios_ok}")


def test_criterion_9_derivative_route_equivalence():
    worst_sphere = 0.0
    for order in (1, 2):
        grid = two_element_square(order)
        values = random_configuration(S2, grid.n_nodes, np.random.default_rng(900 + order), radius=0.3)
        u = GFEFunction(grid, S2, "geodesic", values)
        worst_sphere = max(worst_sphere, equivalence_audit(u, trials=20, seed=909))
    grid = two_element_square(1)
    flat_values = np.random.default_rng(910).standard_normal((grid.n_nodes, 1))
    flat = equivalence_audit(GFEFunction(grid, E1V, "geodesic", flat_values), trials=20, seed=911)
    ok = worst_sphere <= 5e-4 and flat <= 1e-8
    report(9, ok,
           f"derivative-route equivalence: sphere {worst_sphere:.3e} (tol 5e-4), "
           f"flat {flat:.3e} (tol 1e-8)")


def test_criterion_10_harmonic_map_benchmark():
    grid = unit_interval_grid(8, 1)
    u0 = GFEFunction(grid, S2, "geodesic", great_circle_start(grid, EX, EY))
    u, rep = minimize(u0, fixed={0, grid.n_nodes - 1}, tol=1e-6, max_iter=500)
    angles = grid.lagrange_nodes[:, 0] * (np.pi / 2)
    expected = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=1)
    value_err = float(np.max(np.abs(u.values - expected)))
    energy_err = abs(rep.value - 0.5 * (np.pi / 2) ** 2)
    ok = value_err <= 1e-6 and energy_err <= 1e-6 and rep.iterations <= 500
    report(10, ok,
           f"great-circle benchmark: node err {value_err:.3e}, energy err {energy_err:.3e}, "
           f"{rep.iterations} iterations (tols 1e-6, <= 500)")


def test_criterion_11_continuity():
    rng = np.random.default_rng(111)
    worst = 0.0
    for order in (1, 2):
        grid = unit_square_grid(2, order)
        values = random_configuration(S2, grid.n_nodes, rng, radius=0.3)
        u = GFEFunction(grid, S2, "geodesic", values)
        vecs = random_field_vectors(S2, values, rng)
        eta = GlobalTestFunction(u, vecs)
        faces = {}
        for e, el in enumerate(grid.elements):
            for k in range(3):
                face = tuple(sorted(int(v) for j, v in enumerate(el) if j != k))
                faces.setdefault(face, []).append(e)
        shared = [(f, es) for f, es in faces.items() if len(es) == 2]
        count = 0
        while count < 100:
            (a, b), (ea, eb) = shared[count % len(shared)]
            t = rng.uniform(0.05, 0.95)
            x = (1 - t) * grid.vertices[a] + t * grid.vertices[b]
            worst = max(worst, np.linalg.norm(u.evaluate(x, element=ea) - u.evaluate(x, element=eb)))
            (qa, va), (qb, vb) = eta.evaluate(x, element=ea), eta.evaluate(x, element=eb)
            S2.check_tangent(qa, va)
            S2.check_tangent(qb, vb)
            worst = max(worst, np.linalg.norm(va - vb))
            count += 1
    report(11, worst <= 1e-10,
           f"two-sided face evaluation max mismatch {worst:.3e} at 200 points (tol 1e-10)")


def test_criterion_12_negative_controls(tmp_path, capsys, monkeypatch):
    pi = ProjectionInterpolant(ReferenceElement(1, 1), [EX, -EX], S2)
    raised = False
    try:
        pi.eval([0.5])
    except ProjectionUndefinedError:
        raised = True
    with monkeypatch.context() as mp:
        corrupt_d_dv_all(mp)
        code = cli_main(["--command", "audit", "--manifold", "sphere2", "--seed", "42"])
    capsys.readouterr()
    ok = raised and code == 1
    report(12, ok,
           f"negative controls: antipodal projection raised {raised}, corrupted audit exit {code}")
