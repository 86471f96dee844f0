"""The batched (lockstep) evaluation path against the per-point one."""

import math

import numpy as np
import pytest

import gfe
from gfe import GeodesicInterpolant, GFEFunction, ReferenceElement, unit_square_grid
from gfe.energy import algebraic_gradient, dirichlet_energy, equivalence_audit, minimize, simplex_quadrature
from gfe.errors import CutLocusError, IndefiniteHessianError, NonConvergenceError
from gfe.grid import _CHUNK
from gfe.jacobi import _basis_ref_gradients
from gfe.sampling import random_configuration

S2 = gfe.Sphere(2)
SO3 = gfe.Rotation3()
MANIFOLDS = [S2, SO3, gfe.Euclidean(2)]


def two_element_function(man, rule, order, seed=3):
    grid = unit_square_grid(1, order)
    values = random_configuration(man, grid.n_nodes, np.random.default_rng(seed), radius=0.3)
    return GFEFunction(grid, man, rule, values)


def all_quadrature_pairs(u):
    rule = simplex_quadrature(u.grid.dim)
    nq = len(rule.weights)
    els = np.repeat(np.arange(u.grid.n_elements), nq)
    return els, np.tile(rule.points, (u.grid.n_elements, 1))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("rule", ["geodesic", "projection"])
@pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.kind)
def test_batched_results_equal_per_point_results(man, rule, order):
    u = two_element_function(man, rule, order)
    els, xis = all_quadrature_pairs(u)
    stacked = u.local(els)
    q, cols = stacked.d_dxi(xis)
    qv, mats = stacked.d_dv_all(xis)
    for p, (e, xi) in enumerate(zip(els, xis)):
        single = u.local(e)
        assert np.max(np.abs(q[p] - single.eval(xi))) <= 1e-14
        _, cols1 = single.d_dxi(xi)
        assert np.max(np.abs(cols[p] - cols1)) <= 1e-14
        q1, mats1 = single.d_dv_all(xi)
        assert np.max(np.abs(qv[p] - q1)) <= 1e-14
        assert np.max(np.abs(mats[p] - mats1)) <= 1e-14


@pytest.mark.parametrize("rule", ["geodesic", "projection"])
@pytest.mark.parametrize("man", [S2, SO3], ids=lambda m: m.kind)
def test_batched_field_gradients_equal_per_point_ones(man, rule):
    u = two_element_function(man, rule, 2)
    els, xis = all_quadrature_pairs(u)
    _, G, _ = _basis_ref_gradients(u.local(els), xis)
    for p, (e, xi) in enumerate(zip(els, xis)):
        _, G1, _ = _basis_ref_gradients(u.local(e), xi)
        assert np.max(np.abs(G[p] - G1)) <= 1e-14


def counting_exp(monkeypatch, man):
    calls = []
    real = type(man).exp

    def exp(self, p, v):
        calls.append(None)
        return real(self, p, v)

    monkeypatch.setattr(type(man), "exp", exp)
    return calls


def test_batch_mixing_an_easy_point_and_a_damped_one_converges_for_both(monkeypatch):
    # near a vertex the order-2 weights go negative, and from the projection
    # start Newton needs step halvings on wide data; constant data needs none
    elem = ReferenceElement(1, 2)
    a = 1.35
    wide = np.array([[np.cos(a), np.sin(a), 0.0], [np.cos(a), -np.sin(a), 0.0],
                     [np.cos(a), 0.0, np.sin(a)]])
    easy = np.tile([1.0, 0.0, 0.0], (3, 1))
    xi = np.array([[0.05], [0.05]])

    trials = counting_exp(monkeypatch, S2)
    hard = GeodesicInterpolant(elem, wide, S2)._solve(xi[1])
    assert len(trials) > hard.iterations, "the hard point is expected to need damping"

    batch = GeodesicInterpolant(elem, np.stack([easy, wide]), S2, _checked=True)._solve(xi)
    assert np.all(batch.residual <= 1e-12)
    assert np.max(np.abs(batch.q[1] - hard.q)) <= 1e-14
    assert np.max(np.abs(batch.q[0] - easy[0])) <= 1e-15
    assert batch.iterations == hard.iterations


def saddle_batch(order_of_points):
    """A stacked order-1 interval interpolant whose points are easy, an
    engineered saddle (indefinite Hessian) or at the cut locus."""
    a = 1.25
    v1 = np.array([np.cos(a), np.sin(a), 0.0])
    v2 = np.array([np.cos(a), -np.sin(a), 0.0])
    cases = {
        "easy": (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([1.0, 1.0, 0.0]) / np.sqrt(2)),
        "saddle": (np.array([v1, v2]), np.array([-1.0, 0.0, 0.0])),
        "cut": (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([-1.0, 0.0, 0.0])),
    }
    values = np.stack([cases[c][0] for c in order_of_points])
    starts = np.stack([cases[c][1] for c in order_of_points])
    interp = GeodesicInterpolant(ReferenceElement(1, 1), values, S2, _checked=True)
    return interp, np.full((len(order_of_points), 1), 0.5), starts


@pytest.mark.parametrize("points, error", [
    (["easy", "saddle"], IndefiniteHessianError),
    (["easy", "cut", "saddle"], CutLocusError),
    (["saddle", "easy", "cut"], IndefiniteHessianError),
])
def test_batch_raises_the_error_of_its_lowest_failing_point(points, error):
    interp, xi, starts = saddle_batch(points)
    with pytest.raises(error):
        interp._solve(xi, q0=starts)
    # each failing point alone raises the same type
    for p, name in enumerate(points):
        single = GeodesicInterpolant(ReferenceElement(1, 1), interp.values[p], S2)
        if name == "easy":
            single._solve(xi[p], q0=starts[p])
        else:
            with pytest.raises((IndefiniteHessianError, CutLocusError)):
                single._solve(xi[p], q0=starts[p])


def test_newton_budget_applies_per_point():
    interp, xi, _ = saddle_batch(["easy", "easy"])
    q = interp._solve(xi).q
    # the first point starts at its center, the second one off it
    with pytest.raises(NonConvergenceError):
        interp._solve(xi, q0=np.stack([q[0], interp.values[1, 0]]), max_iter=0)
    interp._solve(xi, q0=q, max_iter=0)


# ----------------------------------------------------------------------
# work counts


@pytest.mark.parametrize("n_side", [1, 2])
def test_assembly_makes_one_lockstep_solve_per_batch(monkeypatch, n_side):
    calls = []
    real = GeodesicInterpolant._solve

    def counting(self, *args, **kwargs):
        calls.append(None)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(GeodesicInterpolant, "_solve", counting)
    grid = unit_square_grid(n_side, 2)
    values = random_configuration(SO3, grid.n_nodes, np.random.default_rng(n_side), radius=0.3)
    u = GFEFunction(grid, SO3, "geodesic", values)
    points = grid.n_elements * 6
    center_batches = math.ceil(points / _CHUNK)
    assert center_batches == 1

    dirichlet_energy(u)
    assert len(calls) == center_batches
    calls.clear()
    algebraic_gradient(u)          # reuses the energy's center solves and adds none
    assert len(calls) == 0
    calls.clear()
    algebraic_gradient(u.with_values(values))
    assert len(calls) == center_batches


def gradient_after_an_energy(man, monkeypatch, patched):
    """The calls that the functions ``patched`` (name -> (owner, attribute))
    receive during algebraic_gradient after dirichlet_energy of the same
    order-2 function on the 2x2 grid."""
    grid = unit_square_grid(2, 2)
    values = random_configuration(man, grid.n_nodes, np.random.default_rng(4), radius=0.3)
    u = GFEFunction(grid, man, "geodesic", values)
    dirichlet_energy(u)
    calls = []
    for name, (owner, attr) in patched.items():
        real = getattr(owner, attr)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    algebraic_gradient(u)
    return calls


def test_gradient_after_an_energy_makes_no_rotation_log(monkeypatch):
    # the transported frames come from the center solve's log coefficients
    calls = gradient_after_an_energy(SO3, monkeypatch, {
        "_logm_rotation": (gfe.manifold, "_logm_rotation"),
        "log": (gfe.Rotation3, "log"),
    })
    assert calls == []


def test_gradient_after_an_energy_makes_no_sphere_log_or_transport(monkeypatch):
    calls = gradient_after_an_energy(S2, monkeypatch, {
        "log": (gfe.Sphere, "log"),
        "transport": (gfe.Sphere, "transport"),
    })
    assert calls == []


def test_equivalence_audit_assembles_the_gradient_once(monkeypatch):
    calls = []
    real = GeodesicInterpolant._solve

    def counting(self, *args, **kwargs):
        calls.append(None)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(GeodesicInterpolant, "_solve", counting)
    u = two_element_function(S2, "geodesic", 2)
    assert equivalence_audit(u, trials=20) <= 5e-4
    # two energies per trial, plus one center solve for the gradient
    assert len(calls) == 2 * 20 + 1


def test_preconditioned_descent_adds_no_solve(monkeypatch):
    calls = []
    real = GeodesicInterpolant._solve

    def counting(self, *args, **kwargs):
        calls.append(None)
        return real(self, *args, **kwargs)

    trials = []
    real_energy = gfe.energy.dirichlet_energy

    def counting_energy(*args, **kwargs):
        trials.append(None)
        return real_energy(*args, **kwargs)

    monkeypatch.setattr(GeodesicInterpolant, "_solve", counting)
    monkeypatch.setattr(gfe.energy, "dirichlet_energy", counting_energy)
    u = two_element_function(S2, "geodesic", 2)
    marks = []
    minimize(u, set(u.grid.boundary_nodes), max_iter=1, tol=0.0,
             callback=lambda k, e, g: marks.append((len(calls), len(trials))))
    (calls0, trials0), (calls1, trials1) = marks
    # one center solve per trial energy; the accepted trial's centers serve
    # the gradient and its metric with no further solve
    assert trials1 - trials0 >= 1
    assert calls1 - calls0 == trials1 - trials0
