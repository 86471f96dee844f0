import numpy as np
import pytest

import gfe
from gfe import (
    ElementTestField,
    GeodesicInterpolant,
    ProjectionInterpolant,
    ReferenceElement,
)
from gfe.jacobi import _basis_ref_gradients
from gfe.sampling import random_configuration, random_point, random_tangent
from helpers import fd_basis_ref_gradients, fd_variation, nodal_basis_vectors, random_field_vectors

E1, E2, E3 = np.eye(3)
S2 = gfe.Sphere(2)
SO3 = gfe.Rotation3()


def seeded_field(man, order, seed, rule=GeodesicInterpolant, radius=0.3, scale=1.0):
    elem = ReferenceElement(2, order)
    rng = np.random.default_rng(seed)
    values = random_configuration(man, elem.m, rng, radius=radius)
    interp = rule(elem, values, man)
    vecs = random_field_vectors(man, values, rng, scale=scale)
    return ElementTestField(interp, vecs), vecs


# ----------------------------------------------------------------------
# field evaluation


def test_zero_vectors_give_zero_field():
    field, _ = seeded_field(S2, 2, seed=1, scale=0.0)
    q, vec = field.eval_field([0.2, 0.3])
    S2.check_tangent(q, vec)
    assert np.linalg.norm(vec) <= 1e-14


@pytest.mark.parametrize("rule", [GeodesicInterpolant, ProjectionInterpolant])
def test_field_restricted_to_nodes_returns_nodal_vectors(rule):
    field, vecs = seeded_field(S2, 2, seed=2, rule=rule)
    for j, node in enumerate(field.interp.elem.nodes):
        q, vec = field.eval_field(node)
        S2.check_tangent(q, vec)
        assert np.allclose(vec, vecs[j], atol=1e-10)


def test_flat_field_is_classical_lagrange_combination():
    man = gfe.Euclidean(1)
    elem = ReferenceElement(1, 2)
    values = np.array([[0.0], [0.5], [1.0]])
    interp = GeodesicInterpolant(elem, values, man)
    b = np.array([[2.0], [-1.0], [0.5]])
    field = ElementTestField(interp, b)
    for xi in np.linspace(0, 1, 7):
        expected = elem.shape_values([xi]) @ b
        q, vec = field.eval_field([xi])
        man.check_tangent(q, vec)
        assert np.allclose(vec, expected, atol=1e-13)


def test_sphere_jacobi_field_closed_form():
    # first-order 1d geodesic field with a free endpoint is the classical
    # Jacobi field sin(t*theta)/sin(theta) times the transported vector
    rng = np.random.default_rng(7)
    p = random_point(S2, rng)
    q = S2.exp(p, random_tangent(S2, p, rng, scale=1.2))
    theta = S2.dist(p, q)
    binormal = np.cross(p, q)
    binormal /= np.linalg.norm(binormal)
    interp = GeodesicInterpolant(ReferenceElement(1, 1), [p, q], S2)
    field = ElementTestField(interp, np.array([np.zeros(3), binormal]))
    for t in np.linspace(0.0, 1.0, 21):
        center, vec = field.eval_field([t])
        S2.check_tangent(center, vec)
        expected = np.sin(t * theta) / np.sin(theta) * binormal
        assert np.linalg.norm(vec - expected) <= 1e-8


def test_linearity_of_field_in_nodal_data():
    man = S2
    elem = ReferenceElement(2, 2)
    rng = np.random.default_rng(12)
    values = random_configuration(man, elem.m, rng, radius=0.3)
    interp = GeodesicInterpolant(elem, values, man)
    b = random_field_vectors(man, values, rng)
    c = random_field_vectors(man, values, rng)
    al, be = 0.7, -1.3
    combo = [al * bi + be * ci for bi, ci in zip(b, c)]
    fb = ElementTestField(interp, b)
    fc = ElementTestField(interp, c)
    fcombo = ElementTestField(interp, combo)
    for _ in range(5):
        xi = rng.dirichlet(np.ones(3))[1:]
        q, lhs = fcombo.eval_field(xi)
        man.check_tangent(q, lhs)
        rhs = al * fb.eval_field(xi)[1] + be * fc.eval_field(xi)[1]
        assert np.linalg.norm(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("man,seed", [(S2, 21), (SO3, 22)], ids=["sphere", "rotation3"])
@pytest.mark.parametrize("rule", [GeodesicInterpolant, ProjectionInterpolant])
def test_variation_property(man, seed, rule):
    field, vecs = seeded_field(man, 2, seed=seed, rule=rule)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        xi = 0.5 * rng.dirichlet(np.ones(3))[1:] + 0.15
        q, vec = field.eval_field(xi)
        man.check_tangent(q, vec)
        _, fd = fd_variation(field.interp, vecs, xi)
        assert np.linalg.norm(vec - fd) / max(np.linalg.norm(fd), 1e-6) <= 1e-4


@pytest.mark.parametrize("vectors", [
    [0.1 * E3, 0.1 * E2],        # 0.1*E2 at the nodal value E2 is not tangent
    [0.1 * E3, 0.1 * E3, E3],    # one vector too many
    [0.1 * E3, 0.1 * E3[:2]],    # ragged
    [[0.1, 0.0], [0.0, 0.1]],    # vectors of the wrong length
], ids=["not-tangent", "count", "ragged", "length"])
def test_non_tangent_or_misshapen_nodal_vectors_rejected(vectors):
    u = gfe.GFEFunction(gfe.unit_interval_grid(1, 1), S2, "geodesic", [E1, E2])
    with pytest.raises(ValueError):
        ElementTestField(u.local(0), vectors)
    with pytest.raises(ValueError):
        gfe.GlobalTestFunction(u, vectors)


@pytest.mark.parametrize("rule", [GeodesicInterpolant, ProjectionInterpolant])
@pytest.mark.parametrize("values, shape", [
    ([E1], r"\(1, 3\)"),                  # one value too few
    ([E1[:2], E2[:2]], r"\(2, 2\)"),      # values of the wrong length
], ids=["count", "length"])
def test_misshapen_element_values_refused(rule, values, shape):
    with pytest.raises(ValueError, match=rf"^expected 2 values of shape \(3,\), got array of shape {shape}$"):
        rule(ReferenceElement(1, 1), values, S2)


def test_fields_hash_and_compare_by_identity():
    field, vecs = seeded_field(S2, 1, seed=4)
    twin = ElementTestField(field.interp, vecs)
    assert field == field and field != twin
    assert len({field, twin}) == 2


# ----------------------------------------------------------------------
# field gradients


def test_zero_field_zero_gradient():
    field, _ = seeded_field(S2, 1, seed=3, scale=0.0)
    q, cols = field.eval_field_gradient([0.25, 0.25])
    S2.check_tangent(q, cols)
    for col in cols:
        assert np.linalg.norm(col) <= 1e-12


def test_flat_field_gradient_exact():
    man = gfe.Euclidean(1)
    elem = ReferenceElement(1, 2)
    values = np.array([[0.0], [0.5], [1.0]])
    interp = GeodesicInterpolant(elem, values, man)
    b = np.array([[2.0], [-1.0], [0.5]])
    field = ElementTestField(interp, b)
    for xi in (0.21, 0.5, 0.77):
        expected = elem.shape_gradients([xi])[:, 0] @ b
        q, cols = field.eval_field_gradient([xi])
        man.check_tangent(q, cols)
        assert np.allclose(cols[0], expected, atol=1e-8)


def test_gradient_richardson_convergence_on_sphere():
    field, _ = seeded_field(S2, 2, seed=5)
    xi = [0.3, 0.3]
    h = 2e-3

    def first_column(G):
        # the field's first reference gradient column, as tangent_basis(q) coefficients
        return np.einsum("ijal,ij->la", G, field._coefficients())[0]

    exact = first_column(_basis_ref_gradients(field.interp, xi)[1])
    coarse = np.linalg.norm(first_column(fd_basis_ref_gradients(field.interp, xi, h)) - exact)
    fine = np.linalg.norm(first_column(fd_basis_ref_gradients(field.interp, xi, h / 2)) - exact)
    assert coarse / fine >= 3.5


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("xi", [[1e-7, 0.5], [0.0, 0.0]], ids=["near-edge", "vertex"])
def test_field_gradient_on_the_closed_element(xi, order):
    # one-sided second-order differences of eval_field, taken into the element
    field, _ = seeded_field(S2, order, seed=6)
    q, cols = field.eval_field_gradient(xi)
    S2.check_tangent(q, cols)
    h = 1e-4
    for l in range(2):
        step = h * np.eye(2)[l]
        f0, f1, f2 = (field.eval_field(np.add(xi, t * step))[1] for t in (0, 1, 2))
        fd = S2.project_tangent(q, (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h))
        assert np.linalg.norm(cols[l] - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


# ----------------------------------------------------------------------
# nodal basis


@pytest.mark.parametrize(
    "man,elem",
    [(S2, ReferenceElement(1, 1)), (S2, ReferenceElement(2, 2)), (SO3, ReferenceElement(2, 1))],
    ids=["sphere-1d-p1", "sphere-2d-p2", "rotation3-2d-p1"],
)
def test_nodal_basis_count_and_kronecker(man, elem):
    values = random_configuration(man, elem.m, np.random.default_rng(9), radius=0.3)
    interp = GeodesicInterpolant(elem, values, man)
    dim = man.intrinsic_dim
    fields = [
        ElementTestField(interp, nodal_basis_vectors(man, values, i, j))
        for i in range(elem.m) for j in range(dim)
    ]
    assert len(fields) == elem.m * dim
    bases = [man.tangent_basis(v) for v in values]
    for i in range(elem.m):
        for j in range(dim):
            f = fields[i * dim + j]
            for k, node in enumerate(elem.nodes):
                q, vec = f.eval_field(node)
                man.check_tangent(q, vec)
                expected = bases[i][j] if k == i else np.zeros(man.point_shape)
                assert np.allclose(vec, expected, atol=1e-10)


def test_any_field_is_reproduced_by_its_nodal_expansion():
    man = S2
    elem = ReferenceElement(2, 2)
    rng = np.random.default_rng(10)
    values = random_configuration(man, elem.m, rng, radius=0.3)
    interp = GeodesicInterpolant(elem, values, man)
    vecs = random_field_vectors(man, values, rng)
    field = ElementTestField(interp, vecs)
    basis_fields = [
        ElementTestField(interp, nodal_basis_vectors(man, values, i, j))
        for i in range(elem.m) for j in range(2)
    ]
    bases = [man.tangent_basis(v) for v in values]
    coeffs = [bases[i].reshape(2, -1) @ vecs[i].reshape(-1) for i in range(elem.m)]
    for _ in range(20):
        xi = rng.dirichlet(np.ones(3))[1:]
        expansion = np.zeros(3)
        for i in range(elem.m):
            for j in range(2):
                expansion += coeffs[i][j] * basis_fields[i * 2 + j].eval_field(xi)[1]
        q, vec = field.eval_field(xi)
        man.check_tangent(q, vec)
        assert np.linalg.norm(vec - expansion) <= 1e-12
