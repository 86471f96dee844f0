"""The batched (lockstep) evaluation path against the per-point one."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gfe
from gfe import (
    GeodesicInterpolant,
    GFEFunction,
    GlobalTestFunction,
    ReferenceElement,
    geodesic,
    unit_square_grid,
)
from gfe.energy import (
    _gradient_terms,
    algebraic_gradient,
    directional_derivative,
    dirichlet_energy,
    equivalence_audit,
    minimize,
    simplex_quadrature,
)
from gfe.errors import CutLocusError, IndefiniteHessianError, NonConvergenceError, SingularSystemError
from gfe.grid import _RULES
from gfe.jacobi import _basis_ref_gradients
from gfe.sampling import random_configuration, random_tangent
from helpers import start_newton_at

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


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("rule", ["geodesic", "projection"])
@pytest.mark.parametrize("man", [S2, SO3], ids=lambda m: m.kind)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=2302328032)   # SO(3) geodesic, 1d order 2: a one-point batch's inverse took another matmul loop
def test_stacked_values_equal_per_point_values_bit_for_bit(man, rule, d, order, seed):
    # a batch takes the same arithmetic as each of its points alone, so the
    # values agree exactly; derivatives promise only agreement to rounding
    rng = np.random.default_rng(seed)
    elem = ReferenceElement(d, order)
    interp = _RULES[rule](elem, random_configuration(man, elem.m, rng, radius=0.3), man)
    xis = rng.dirichlet(np.ones(d + 1), size=8)[:, 1:]
    assert np.array_equal(interp.eval(xis), np.stack([interp.eval(xi) for xi in xis]))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("rule", ["geodesic", "projection"])
@pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.kind)
def test_empty_batches_give_empty_arrays(man, rule, d):
    elem = ReferenceElement(d, 2)
    interp = _RULES[rule](elem, random_configuration(man, elem.m, np.random.default_rng(0), radius=0.3), man)
    xi = np.zeros((0, d))
    shape, dim = man.point_shape, man.intrinsic_dim
    assert interp.eval(xi).shape == (0,) + shape
    q, cols = interp.d_dxi(xi)
    assert q.shape == (0,) + shape and cols.shape == (0, d) + shape
    q, mats = interp.d_dv_all(xi)
    assert q.shape == (0,) + shape and mats.shape == (0, elem.m, dim, dim)
    u = two_element_function(man, rule, 2)
    assert u.local([]).eval(np.zeros((0, 2))).shape == (0,) + shape


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
def test_batch_raises_the_error_of_its_lowest_failing_point(points, error, monkeypatch):
    interp, xi, starts = saddle_batch(points)
    start_newton_at(monkeypatch, starts)
    with pytest.raises(error) as raised:
        interp._solve(xi)
    assert raised.value.point == next(p for p, name in enumerate(points) if name != "easy")
    # each failing point alone raises the same type
    for p, name in enumerate(points):
        single = GeodesicInterpolant(ReferenceElement(1, 1), interp.values[p], S2)
        start_newton_at(monkeypatch, starts[p])
        if name == "easy":
            single._solve(xi[p])
        else:
            with pytest.raises((IndefiniteHessianError, CutLocusError)):
                single._solve(xi[p])


def test_batch_with_a_point_outside_the_projection_domain_equals_per_point_results():
    # order-2 SO(3) weights: at xi = 0.83 the weighted sum has a negative
    # determinant, so Newton starts there from the heaviest nodal value,
    # while the weighted center itself exists
    elem = ReferenceElement(1, 2)
    w = np.array([[0.134, -0.587, -0.148], [-0.121, -1.163, 1.537], [-0.401, 1.031, -0.493]])
    values = SO3.exp(np.eye(3), np.tensordot(w, gfe.kernels._HATS, axes=1))
    xi = np.array([[0.0], [0.25], [0.5], [0.83], [0.84], [1.0]])
    sums = np.einsum("pm,mij->pij", elem.shape_values(xi), values)
    assert SO3._projectable(sums).tolist() == [True, True, True, False, True, True]
    interp = GeodesicInterpolant(elem, values, SO3)
    batch = interp._solve(xi)
    assert np.all(batch.residual <= 1e-12)
    for p in range(len(xi)):
        assert np.max(np.abs(batch.q[p] - interp.eval(xi[p]))) <= 1e-14


def test_newton_budget_applies_per_point(monkeypatch):
    interp, xi, _ = saddle_batch(["easy", "easy"])
    q = interp._solve(xi).q
    monkeypatch.setattr(geodesic, "_MAX_NEWTON", 0)
    # the first point starts at its center, the second one off it
    start_newton_at(monkeypatch, np.stack([q[0], interp.values[1, 0]]))
    with pytest.raises(NonConvergenceError):
        interp._solve(xi)
    start_newton_at(monkeypatch, q)
    interp._solve(xi)


def test_singular_newton_system_at_one_point_names_that_point(monkeypatch):
    interp, _, _ = saddle_batch(["easy", "easy", "easy"])
    xi = np.array([[0.2], [0.5], [0.8]])
    start_newton_at(monkeypatch, interp.values[0, 0])    # every point off its center
    real = geodesic._sym_inv

    def flagging(A):
        # the middle point's system is singular on the first sweep, when all three are active
        inv, singular = real(A)
        if A.shape[-1] == 3:
            singular = singular.copy()
            singular[1] = True
        return inv, singular

    monkeypatch.setattr(geodesic, "_sym_inv", flagging)
    with pytest.raises(SingularSystemError, match="Newton system is singular") as raised:
        interp._solve(xi)
    assert raised.value.point == 1


def test_newton_at_the_floating_point_floor_fails_only_above_the_residual_tolerance(monkeypatch):
    # with a target of 0 Newton halves its steps until none lowers the residual;
    # point 0 (constant data) starts at residual 0, point 1 stops at its floor
    a = 1.25
    values = np.array([[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                       [[np.cos(a), np.sin(a), 0.0], [np.cos(a), -np.sin(a), 0.0]]])
    interp = GeodesicInterpolant(ReferenceElement(1, 1), values, S2, _checked=True)
    xi = np.array([[0.3], [0.7]])
    monkeypatch.setattr(geodesic, "_RESIDUAL_TARGET", 0.0)
    sol = interp._solve(xi)
    assert sol.residual[0] == 0.0 and 0.0 < sol.residual[1] <= geodesic._RESIDUAL_TOL
    monkeypatch.setattr(geodesic, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(NonConvergenceError, match="Newton cannot reduce the residual below") as raised:
        interp._solve(xi)
    assert raised.value.point == 1


# ----------------------------------------------------------------------
# work counts


@pytest.mark.parametrize("n_side", [1, 2, 6])
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

    dirichlet_energy(u)            # all (element, point) pairs in one solve, 432 of them at n_side 6
    assert len(calls) == 1
    calls.clear()
    algebraic_gradient(u)          # reuses the energy's center solve and adds none
    assert len(calls) == 0
    calls.clear()
    algebraic_gradient(u.with_values(values))
    assert len(calls) == 1


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
        "_log": (gfe.Rotation3, "_log"),
    })
    assert calls == []


def test_gradient_after_an_energy_makes_no_sphere_log_or_transport(monkeypatch):
    calls = gradient_after_an_energy(S2, monkeypatch, {
        "log": (gfe.Sphere, "log"),
        "_log": (gfe.Sphere, "_log"),
        "transport": (gfe.Sphere, "transport"),
    })
    assert calls == []


@pytest.mark.parametrize("man", [S2, SO3], ids=lambda m: m.kind)
def test_gradient_after_an_energy_makes_no_lapack_call(man, monkeypatch):
    # the 2x2 and 3x3 inverses of the exact basis-field gradients are closed forms
    calls = gradient_after_an_energy(man, monkeypatch, {
        name: (np.linalg, name) for name in ("inv", "solve", "eigvalsh")
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
    # four energies per trial (the Richardson stencil), plus one center solve for the gradient
    assert len(calls) == 4 * 20 + 1


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


def test_cold_so3_projection_state_makes_one_polar_solve(monkeypatch):
    # the projection center's point, DP(w) and D^2P(w) all come from one polar iteration
    calls = []
    real = gfe.manifold._polar_iterates

    def counting(A, *args, **kwargs):
        calls.append(None)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(gfe.manifold, "_polar_iterates", counting)
    grid = unit_square_grid(2, 2)
    values = random_configuration(SO3, grid.n_nodes, np.random.default_rng(3), radius=0.3)
    u = GFEFunction(grid, SO3, "projection", values)
    dirichlet_energy(u)
    algebraic_gradient(u)
    _gradient_terms(u, metric=True)
    assert len(calls) == 1


# ----------------------------------------------------------------------
# the quadrature record a state keeps


def counting_solves(mp):
    """The list that gets one entry per GeodesicInterpolant._solve call under mp."""
    calls = []
    real = GeodesicInterpolant._solve

    def counting(self, *args, **kwargs):
        calls.append(None)
        return real(self, *args, **kwargs)

    mp.setattr(GeodesicInterpolant, "_solve", counting)
    return calls


OPERATIONS = {
    "energy": lambda u, eta: dirichlet_energy(u),
    "gradient": lambda u, eta: algebraic_gradient(u),
    "directional": lambda u, eta: directional_derivative(u, eta),
}


@pytest.mark.parametrize("man", [S2, SO3], ids=lambda m: m.kind)
@settings(max_examples=15, deadline=None)
@given(sequence=st.lists(st.sampled_from(sorted(OPERATIONS)), min_size=1, max_size=6))
def test_calls_on_one_state_give_fresh_state_results_with_one_solve_per_batch(man, sequence):
    u = two_element_function(man, "geodesic", 2)
    rng = np.random.default_rng(5)
    vectors = [random_tangent(man, v, rng) for v in u.values]
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_solves(mp)
        results = [OPERATIONS[name](u, GlobalTestFunction(u, vectors)) for name in sequence]
        assert len(calls) == 1
    for name, result in zip(sequence, results):
        fresh = u.with_values(u.values)
        assert np.array_equal(result, OPERATIONS[name](fresh, GlobalTestFunction(fresh, vectors)))
