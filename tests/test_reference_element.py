import itertools
from math import comb

import numpy as np
import pytest

from gfe import ReferenceElement
from gfe.errors import OutsideElementError


def random_inside(elem, rng):
    bary = rng.dirichlet(np.ones(elem.dim + 1))
    return bary[1:]


ALL_ELEMS = [(d, p) for d in (1, 2, 3) for p in (1, 2)]


def test_linear_1d_hat_functions():
    elem = ReferenceElement(1, 1)
    assert np.allclose(elem.shape_values([0.25]), [0.75, 0.25], atol=1e-15)
    assert np.allclose(elem.shape_gradients([0.3]), [[-1.0], [1.0]], atol=1e-15)


def test_quadratic_1d_node_order_and_values():
    elem = ReferenceElement(1, 2)
    assert np.allclose(elem.nodes[:, 0], [0.0, 0.5, 1.0])
    assert np.array_equal(elem.shape_values([0.5]), [0.0, 1.0, 0.0])
    assert np.allclose(elem.shape_values([0.25]), [0.375, 0.75, -0.125], atol=1e-15)


@pytest.mark.parametrize("dim, order, message", [
    (4, 1, "^unsupported reference dimension 4$"),
    (0, 1, "^unsupported reference dimension 0$"),
    (2, 3, "^unsupported polynomial order 3$"),
])
def test_unsupported_elements_refused(dim, order, message):
    with pytest.raises(ValueError, match=message):
        ReferenceElement(dim, order)


@pytest.mark.parametrize("dim,order", ALL_ELEMS)
def test_node_count(dim, order):
    elem = ReferenceElement(dim, order)
    assert elem.m == comb(dim + order, order)


@pytest.mark.parametrize("dim,order", ALL_ELEMS)
def test_kronecker_property_exact(dim, order):
    elem = ReferenceElement(dim, order)
    for j, node in enumerate(elem.nodes):
        vals = elem.shape_values(node)
        expected = np.zeros(elem.m)
        expected[j] = 1.0
        assert np.array_equal(vals, expected)


@pytest.mark.parametrize("dim,order", ALL_ELEMS)
def test_partition_of_unity_and_gradient_row_sums(dim, order):
    elem = ReferenceElement(dim, order)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        xi = random_inside(elem, rng)
        assert abs(elem.shape_values(xi).sum() - 1.0) <= 1e-14
        assert np.max(np.abs(elem.shape_gradients(xi).sum(axis=0))) <= 1e-14


@pytest.mark.parametrize("dim,order", ALL_ELEMS)
def test_polynomial_reproduction(dim, order):
    elem = ReferenceElement(dim, order)
    rng = np.random.default_rng(7)
    exps = [
        e
        for e in itertools.product(range(order + 1), repeat=dim)
        if sum(e) <= order
    ]
    coeffs = rng.standard_normal(len(exps))

    def poly(x):
        return sum(c * np.prod(np.asarray(x) ** np.asarray(e)) for c, e in zip(coeffs, exps))

    nodal = np.array([poly(a) for a in elem.nodes])
    for _ in range(50):
        xi = random_inside(elem, rng)
        assert abs(elem.shape_values(xi) @ nodal - poly(xi)) <= 1e-12


def test_vandermonde_oracle_quadratic_1d():
    # independent construction: invert the monomial Vandermonde system
    elem = ReferenceElement(1, 2)
    V = np.vander(elem.nodes[:, 0], 3, increasing=True)
    Vinv = np.linalg.inv(V)
    rng = np.random.default_rng(3)
    for _ in range(50):
        xi = float(rng.uniform(0, 1))
        mono = np.array([1.0, xi, xi**2])
        assert np.allclose(elem.shape_values([xi]), Vinv.T @ mono, atol=1e-12)
    assert np.isfinite(np.linalg.cond(V))


def test_gradients_match_fd():
    elem = ReferenceElement(2, 2)
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(20):
        xi = 0.2 + 0.5 * random_inside(elem, rng)
        grads = elem.shape_gradients(xi)
        for k in range(2):
            step = np.zeros(2)
            step[k] = h
            fd = (elem.shape_values(xi + step) - elem.shape_values(xi - step)) / (2 * h)
            assert np.max(np.abs(grads[:, k] - fd)) <= 1e-8


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_quadratic_vertex_functions_go_negative(dim):
    elem = ReferenceElement(dim, 2)
    rng = np.random.default_rng(11)
    vertex_ids = [i for i, a in enumerate(elem._alphas) if np.count_nonzero(a) == 1]
    lowest = 0.0
    for _ in range(500):
        vals = elem.shape_values(random_inside(elem, rng))
        lowest = min(lowest, min(vals[i] for i in vertex_ids))
    assert lowest < 0.0


def test_outside_element_raises():
    elem = ReferenceElement(2, 1)
    with pytest.raises(OutsideElementError):
        elem.shape_values([0.7, 0.7])
    with pytest.raises(OutsideElementError):
        elem.shape_gradients([-0.1, 0.2])


@pytest.mark.parametrize("order", [0, 3])
def test_unsupported_order_rejected(order):
    with pytest.raises(ValueError, match="order"):
        ReferenceElement(2, order)
