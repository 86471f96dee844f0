"""Exact reference gradients of the nodal basis fields against the
central-difference oracle, and their pairing ``_basis_gradient_terms``
against the contraction of those gradients, on the delicate configurations:
wide nodal data, constant nodal data and a center next to a nodal value."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gfe
import gfe.kernels
from gfe import GeodesicInterpolant, ProjectionInterpolant, ReferenceElement, energy
from gfe.errors import GFEError
from gfe.jacobi import _basis_ref_gradients
from gfe.manifold import Manifold
from gfe.sampling import random_configuration
from helpers import fd_basis_ref_gradients

S2 = gfe.Sphere(2)
SO3 = gfe.Rotation3()
E2 = gfe.Euclidean(2)
# largest ball radius per manifold: a spread of 0.9*pi on the sphere (its
# admissibility limit), a turn of about 2 rad on SO(3)
MAX_RADIUS = {S2.kind: 0.45 * np.pi, SO3.kind: 1.5, E2.kind: 2.0}
CASES = [(man, rule, dim, order)
         for man in (S2, SO3, E2)
         for rule in (GeodesicInterpolant, ProjectionInterpolant)
         for dim in (1, 2) for order in (1, 2)]


def case_id(case):
    man, rule, dim, order = case
    return f"{man.kind}-{rule.__name__[:4].lower()}-{dim}d-p{order}"


def exact_vs_oracle(interp, xi, seed=0):
    """Relative gaps (exact gradients G against the oracle, and
    ``_basis_gradient_terms(c, C)`` against the contraction of G with a random
    C), or None where the configuration cannot be evaluated (Newton or
    projection refuses)."""
    try:
        c, G, _ = _basis_ref_gradients(interp, xi)
        fd = fd_basis_ref_gradients(interp, xi)
    except GFEError:
        return None
    C = np.random.default_rng(seed).standard_normal((G.shape[-1], G.shape[-2]))
    terms = np.einsum("la,ijal->ij", C, G)
    return (np.max(np.abs(G - fd)) / max(1.0, np.max(np.abs(fd))),
            np.max(np.abs(interp._basis_gradient_terms(c, C) - terms)) / np.max(np.abs(terms)))


def point_near_node(elem, node, t):
    """The reference point a fraction t of the way from a Lagrange node to the centroid."""
    centroid = np.full(elem.dim, 1.0 / (elem.dim + 1))
    return elem.nodes[node] + t * (centroid - elem.nodes[node])


@pytest.mark.parametrize("case", CASES, ids=case_id)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 1.0),
       lam=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
def test_exact_gradients_match_the_oracle(case, seed, spread, lam):
    man, rule, dim, order = case
    elem = ReferenceElement(dim, order)
    values = random_configuration(man, elem.m, np.random.default_rng(seed),
                                  radius=spread * MAX_RADIUS[man.kind])
    lam = np.array(lam[: dim + 1]) / np.sum(lam[: dim + 1])
    gaps = exact_vs_oracle(rule(elem, values, man, _checked=True), lam[1:], seed)
    assume(gaps is not None)
    assert gaps[0] <= 1e-8
    assert gaps[1] <= 1e-13


@pytest.mark.parametrize("case", CASES, ids=case_id)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), node=st.integers(0, 5), t=st.floats(5e-6, 2e-5))
def test_exact_gradients_next_to_a_nodal_value(case, seed, node, t):
    # the center lies within about 1e-4 of one nodal value
    man, rule, dim, order = case
    elem = ReferenceElement(dim, order)
    values = random_configuration(man, elem.m, np.random.default_rng(seed), radius=0.5)
    interp = rule(elem, values, man)
    xi = point_near_node(elem, node % elem.m, t)
    assert man.dist(interp.eval(xi), values[node % elem.m]) <= 1e-4
    gaps = exact_vs_oracle(interp, xi, seed)
    assert gaps is not None and gaps[0] <= 1e-8
    assert gaps[1] <= 1e-13


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_exact_gradients_for_constant_data(case):
    # every nodal value equals the center: r = 0 for every node
    man, rule, dim, order = case
    elem = ReferenceElement(dim, order)
    values = np.repeat(random_configuration(man, 1, np.random.default_rng(7)), elem.m, axis=0)
    xi = np.full(dim, 0.2)
    gaps = exact_vs_oracle(rule(elem, values, man), xi)
    assert gaps is not None and gaps[0] <= 1e-8
    assert gaps[1] <= 1e-13
    # the fields are the Lagrange combinations in one tangent space
    _, G, _ = _basis_ref_gradients(rule(elem, values, man), xi)
    dphi = elem.shape_gradients(xi)
    expected = np.einsum("il,ja->ijal", dphi, np.eye(man.intrinsic_dim))
    assert np.max(np.abs(G - expected)) <= 1e-14


@pytest.mark.parametrize("rule", [GeodesicInterpolant, ProjectionInterpolant])
@pytest.mark.parametrize("order", [1, 2])
def test_flat_gradients_are_the_shape_function_gradients(rule, order):
    elem = ReferenceElement(2, order)
    values = np.random.default_rng(8).standard_normal((elem.m, 2))
    for xi in ([0.0, 0.0], [0.3, 0.2], [1.0, 0.0], [0.5, 0.5]):
        _, G, _ = _basis_ref_gradients(rule(elem, values, E2), xi)
        expected = np.einsum("il,ja->ijal", elem.shape_gradients(xi), np.eye(2))
        assert np.max(np.abs(G - expected)) <= 1e-12


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_field_values_are_the_nodal_derivative_matrices(case):
    # V[i, j] holds the value of field (i, j), column j of d_dv_all's matrix i,
    # bit for bit: one formula gives both, at a single point and over a batch
    man, rule, dim, order = case
    elem = ReferenceElement(dim, order)
    interp = rule(elem, random_configuration(man, elem.m, np.random.default_rng(9), radius=0.5), man)
    for xi in (np.full(dim, 0.2), np.random.default_rng(10).dirichlet(np.ones(dim + 1), size=(2, 3))[..., 1:]):
        _, _, V = _basis_ref_gradients(interp, xi)
        _, mats = interp.d_dv_all(xi)
        assert mats.shape == xi.shape[:-1] + (elem.m, man.intrinsic_dim, man.intrinsic_dim)
        assert np.array_equal(V, np.swapaxes(mats, -1, -2))


@pytest.mark.parametrize("man", [S2, SO3], ids=lambda m: m.kind)
@pytest.mark.parametrize("order", [1, 2])
def test_gradient_terms_on_a_nodal_value(man, order):
    """A point exactly on a nodal value, the others spread: that node's pair
    takes the v_i = q branch (r = 0) of the reverse-mode terms, which still
    equal the contraction of G with C.  (The oracle's stencil would leave
    the element at a vertex.)"""
    elem = ReferenceElement(2, order)
    values = random_configuration(man, elem.m, np.random.default_rng(21), radius=0.5)
    interp = GeodesicInterpolant(elem, values, man)
    for node in range(elem.m):
        c, G, _ = _basis_ref_gradients(interp, elem.nodes[node])
        assert np.linalg.norm(c.log_coeffs[node]) < 1e-15
        C = np.random.default_rng(node).standard_normal((2, man.intrinsic_dim))
        terms = np.einsum("la,ijal->ij", C, G)
        assert np.max(np.abs(interp._basis_gradient_terms(c, C) - terms)) <= 1e-13 * np.max(np.abs(terms))


@pytest.mark.parametrize("man", [S2, SO3], ids=lambda m: m.kind)
def test_gradient_terms_continuous_across_the_series_cutoff(man):
    """Nodal values within a few cutoffs of each other: the reverse-mode
    terms agree whether every ratio of the stacked kernel takes its series
    or its closed form, since the kernel reads _SERIES_CUTOFF at each call."""
    elem = ReferenceElement(2, 2)
    radius = 3.0 * gfe.kernels._SERIES_CUTOFF / np.sqrt(man._model_curvature)
    values = random_configuration(man, elem.m, np.random.default_rng(22), radius=radius)
    interp = GeodesicInterpolant(elem, values, man)
    c = interp._center(np.array([[0.2, 0.3], [0.6, 0.1], [0.25, 0.25]]))
    C = np.random.default_rng(23).standard_normal((3, 2, man.intrinsic_dim))
    terms = []
    for cutoff in (8.0 * gfe.kernels._SERIES_CUTOFF, gfe.kernels._SERIES_CUTOFF / 8.0):   # all series, all closed
        with mock.patch.object(gfe.kernels, "_SERIES_CUTOFF", cutoff):
            terms.append(interp._basis_gradient_terms(c, C))
    assert not np.array_equal(terms[0], terms[1])    # the branches did switch
    assert np.max(np.abs(terms[0] - terms[1])) <= 1e-12 * np.max(np.abs(terms[0]))


def _refuse(*args, **kwargs):
    raise AssertionError("the gradient alone formed a block it does not need")


@pytest.mark.parametrize("rule", ["geodesic", "projection"])
@pytest.mark.parametrize("man", [S2, SO3], ids=lambda m: m.kind)
def test_gradient_alone_forms_no_block(monkeypatch, man, rule):
    """On the geodesic rule, on a warm state (and a cold one),
    ``algebraic_gradient`` forms no mixed block, no transported frame and no
    basis-field gradient: it returns the same gradient with each of them
    refusing to run.  The projection rule's gradient alone pairs the formed
    basis-field gradients as the metric does, so at orders 1 and 2 its
    coefficients equal the metric route's bit for bit."""
    if rule == "projection":
        for order in (1, 2):
            grid = gfe.unit_square_grid(2, order)
            u = gfe.GFEFunction(grid, man, rule, random_configuration(man, grid.n_nodes, np.random.default_rng(24)))
            assert np.array_equal(energy._gradient_terms(u)[0], energy._gradient_terms(u, metric=True)[0])
        return
    grid = gfe.unit_square_grid(2, 2)
    u = gfe.GFEFunction(grid, man, rule, random_configuration(man, grid.n_nodes, np.random.default_rng(24)))
    want = gfe.algebraic_gradient(u)
    for owner, name in ((Manifold, "_mixed"), (Manifold, "_transported_basis"),
                        (GeodesicInterpolant, "_basis_gradients"), (ProjectionInterpolant, "_basis_gradients"),
                        (energy, "_basis_ref_gradients")):
        monkeypatch.setattr(owner, name, _refuse)
    assert np.array_equal(gfe.algebraic_gradient(u), want)
    assert np.array_equal(gfe.algebraic_gradient(u.with_values(u.values)), want)
