import numpy as np
import pytest

import gfe
from gfe import GeodesicInterpolant, ProjectionInterpolant, ReferenceElement
from gfe.errors import ProjectionUndefinedError
from gfe.sampling import random_configuration, random_point
from helpers import chordal_residual, fd_d_dv, rel_err

E1, E2, E3 = np.eye(3)
S2 = gfe.Sphere(2)
SO3 = gfe.Rotation3()


def rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def seeded_interp(man, dim, order, seed, radius=0.3):
    elem = ReferenceElement(dim, order)
    values = random_configuration(man, elem.m, np.random.default_rng(seed), radius=radius)
    return ProjectionInterpolant(elem, values, man)


# ----------------------------------------------------------------------
# evaluation


def test_constant_data():
    elem = ReferenceElement(2, 2)
    p = random_point(S2, np.random.default_rng(0))
    pi = ProjectionInterpolant(elem, np.tile(p, (elem.m, 1)), S2)
    assert np.allclose(pi.eval([0.25, 0.3]), p, atol=1e-14)


def test_sphere_midpoint_is_normalized_chord():
    pi = ProjectionInterpolant(ReferenceElement(1, 1), [E1, E2], S2)
    assert np.allclose(pi.eval([0.5]), (E1 + E2) / np.sqrt(2), atol=1e-15)


def test_antipodal_data_has_no_projection():
    pi = ProjectionInterpolant(ReferenceElement(1, 1), [E1, -E1], S2)
    with pytest.raises(ProjectionUndefinedError):
        pi.eval([0.5])


def test_so3_half_turn_pair_degenerates():
    pi = ProjectionInterpolant(
        ReferenceElement(1, 1), [np.eye(3), rotation_z(np.pi)], SO3
    )
    with pytest.raises(ProjectionUndefinedError):
        pi.eval([0.5])


def test_so3_eval_matches_polar_of_weighted_sum():
    elem = ReferenceElement(1, 1)
    values = random_configuration(SO3, 2, np.random.default_rng(5), radius=0.5)
    pi = ProjectionInterpolant(elem, values, SO3)
    xi = [0.3]
    w = elem.shape_values(xi)
    expected = SO3.project_point(w[0] * values[0] + w[1] * values[1])
    assert np.allclose(pi.eval(xi), expected, atol=1e-14)


def test_agreement_at_nodes():
    for man, seed in ((S2, 1), (SO3, 2)):
        pi = seeded_interp(man, 2, 2, seed)
        for j, node in enumerate(pi.elem.nodes):
            assert np.linalg.norm(pi.eval(node) - pi.values[j]) <= 1e-12


# ----------------------------------------------------------------------
# derivatives


def test_d_dxi_constant_data_is_zero():
    elem = ReferenceElement(2, 1)
    p = random_point(S2, np.random.default_rng(3))
    pi = ProjectionInterpolant(elem, np.tile(p, (elem.m, 1)), S2)
    q, cols = pi.d_dxi([0.2, 0.5])
    S2.check_tangent(q, cols)
    for col in cols:
        assert np.linalg.norm(col) <= 1e-14


def test_d_dxi_flat_case():
    man = gfe.Euclidean(2)
    elem = ReferenceElement(2, 2)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((elem.m, 2))
    pi = ProjectionInterpolant(elem, values, man)
    xi = [0.3, 0.2]
    expected = elem.shape_gradients(xi).T @ values
    q, cols = pi.d_dxi(xi)
    man.check_tangent(q, cols)
    for k, col in enumerate(cols):
        assert np.allclose(col, expected[k], atol=1e-14)


@pytest.mark.parametrize("man,seed", [(S2, 7), (SO3, 8)], ids=["sphere", "rotation3"])
def test_d_dxi_matches_fd(man, seed):
    pi = seeded_interp(man, 2, 2, seed)
    xi = np.array([0.3, 0.25])
    h = 1e-6
    q, cols = pi.d_dxi(xi)
    man.check_tangent(q, cols)
    for k in range(2):
        step = np.zeros(2)
        step[k] = h
        fd = (pi.eval(xi + step) - pi.eval(xi - step)) / (2 * h)
        assert np.linalg.norm(cols[k] - fd) <= 1e-6


@pytest.mark.parametrize("man,seed", [(S2, 11), (SO3, 12)], ids=["sphere", "rotation3"])
def test_d_dv_kronecker_at_nodes(man, seed):
    pi = seeded_interp(man, 2, 2, seed)
    dim = man.intrinsic_dim
    for j, node in enumerate(pi.elem.nodes):
        _, mats = pi.d_dv_all(node)
        for i in range(pi.elem.m):
            expected = np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.allclose(mats[i], expected, atol=1e-10)


@pytest.mark.parametrize("man,seed", [(S2, 31), (SO3, 32)], ids=["sphere", "rotation3"])
def test_d_dv_matches_exp_curve_fd(man, seed):
    pi = seeded_interp(man, 2, 2, seed)
    rng = np.random.default_rng(seed + 100)
    xi = 0.5 * rng.dirichlet(np.ones(3))[1:] + 0.15
    _, mats = pi.d_dv_all(xi)
    for i in range(pi.elem.m):
        assert rel_err(fd_d_dv(pi, xi, i), mats[i]) <= 1e-4


def test_rotation_equivariance_on_sphere():
    rng = np.random.default_rng(9)
    elem = ReferenceElement(2, 2)
    values = random_configuration(S2, elem.m, rng, radius=0.3)
    R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(R) < 0:
        R[:, 0] = -R[:, 0]
    pi = ProjectionInterpolant(elem, values, S2)
    pi_rot = ProjectionInterpolant(elem, values @ R.T, S2)
    for _ in range(5):
        xi = rng.dirichlet([1, 1, 1])[1:]
        assert np.linalg.norm(pi_rot.eval(xi) - R @ pi.eval(xi)) <= 1e-10


# ----------------------------------------------------------------------
# chordal stationarity


def test_chordal_residual_constant_data():
    elem = ReferenceElement(2, 1)
    p = random_point(S2, np.random.default_rng(17))
    pi = ProjectionInterpolant(elem, np.tile(p, (elem.m, 1)), S2)
    assert chordal_residual(pi, [0.2, 0.2]) <= 1e-14


def test_chordal_residual_seeded_configurations():
    rng = np.random.default_rng(2718)
    elem = ReferenceElement(2, 2)
    for _ in range(200):
        values = random_configuration(S2, elem.m, rng, radius=0.4)
        pi = ProjectionInterpolant(elem, values, S2)
        xi = rng.dirichlet(np.ones(3))[1:]
        assert chordal_residual(pi, xi) <= 1e-10


def test_chordal_residual_detects_perturbed_point():
    pi = seeded_interp(S2, 2, 1, seed=55, radius=0.4)
    xi = [0.3, 0.3]
    q = pi.eval(xi)
    q_off = S2.exp(q, 0.05 * S2.tangent_basis(q)[0])
    assert chordal_residual(pi, xi, at_point=q_off) > 1e-3


# ----------------------------------------------------------------------
# relation to geodesic interpolation


def test_close_data_geodesic_and_projection_agree():
    rng = np.random.default_rng(77)
    elem = ReferenceElement(2, 2)
    for _ in range(10):
        values = random_configuration(S2, elem.m, rng, radius=0.1)
        pi = ProjectionInterpolant(elem, values, S2)
        gi = GeodesicInterpolant(elem, values, S2)
        xi = rng.dirichlet(np.ones(3))[1:]
        assert np.linalg.norm(pi.eval(xi) - gi.eval(xi)) <= 1e-3
