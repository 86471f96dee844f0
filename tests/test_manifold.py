from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import gfe
from gfe.errors import (
    CutLocusError,
    DimensionMismatchError,
    ProjectionUndefinedError,
    SingularMatrixError,
)
import gfe.kernels
from gfe.kernels import (
    _SERIES_CUTOFF,
    _expm_skew,
    _hat,
    _one_minus_cos_over_sq,
    _one_minus_t_cot_over_sq_times_t_over_sin,
    _one_minus_t_over_sin_over_sq,
    _polar_iterates,
    _sinc,
    _t_cot,
    _t_cot_slope_over_t,
    _t_over_sin,
    polar_decompose,
)
from gfe.sampling import random_point, random_tangent
from helpers import fd_dist2_third, fd_hess_dist2, fd_mixed_dist2, rel_err, transported_basis_oracle

E1, E2, E3 = np.eye(3)
ALL = [gfe.Euclidean(3), gfe.Sphere(2), gfe.Rotation3()]


def rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ----------------------------------------------------------------------
# distances


def test_sphere_dist_orthogonal():
    S = gfe.Sphere(2)
    assert S.dist(E1, E2) == pytest.approx(np.pi / 2, abs=1e-15)


@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_dist_identity(man):
    p = random_point(man, np.random.default_rng(0))
    assert man.dist(p, p) == 0.0


def test_so3_dist_matches_matrix_log_oracle():
    R = gfe.Rotation3()
    Q = rotation_z(np.pi / 2)
    oracle = np.linalg.norm(scipy.linalg.logm(Q))
    assert R.dist(np.eye(3), Q) == pytest.approx(oracle, abs=1e-12)
    # frozen value: sqrt(2) * pi/2
    assert R.dist(np.eye(3), Q) == pytest.approx(2.221441469079183, abs=1e-14)


def test_dist_dimension_mismatch():
    S = gfe.Sphere(2)
    with pytest.raises(DimensionMismatchError):
        S.dist(E1, np.array([1.0, 0.0]))


@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_metric_axioms_on_seeded_triples(man):
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        p, q, r = (random_point(man, rng) for _ in range(3))
        dpq, dqp = man.dist(p, q), man.dist(q, p)
        assert abs(dpq - dqp) <= 1e-12
        assert dpq <= man.dist(p, r) + man.dist(r, q) + 1e-12


# ----------------------------------------------------------------------
# exp / log


@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_exp_zero_vector(man):
    p = random_point(man, np.random.default_rng(5))
    assert np.allclose(man.exp(p, np.zeros(man.point_shape)), p, atol=1e-15)


def test_sphere_exp_quarter_circle():
    S = gfe.Sphere(2)
    assert np.allclose(S.exp(E1, (np.pi / 2) * E2), E2, atol=1e-15)


def test_so3_exp_matches_expm_oracle():
    R = gfe.Rotation3()
    rng = np.random.default_rng(8)
    for _ in range(10):
        w = rng.standard_normal(3)
        S = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0.0]])
        assert np.allclose(R.exp(np.eye(3), S), scipy.linalg.expm(S), atol=1e-12)


def test_sphere_log_quarter_circle():
    S = gfe.Sphere(2)
    assert np.allclose(S.log(E1, E2), (np.pi / 2) * E2, atol=1e-15)


@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_log_at_base_is_zero(man):
    p = random_point(man, np.random.default_rng(2))
    assert np.allclose(man.log(p, p), 0.0, atol=1e-15)


@pytest.mark.parametrize("man", [gfe.Sphere(2), gfe.Sphere(3), gfe.Rotation3()], ids=lambda m: f"{m.kind}{getattr(m, 'n', '')}")
def test_exp_log_roundtrip_100_random_pairs(man):
    rng = np.random.default_rng(42)
    reach = min(3.0, 0.9 * man.injectivity_radius)
    for _ in range(100):
        p = random_point(man, rng)
        q = man.exp(p, random_tangent(man, p, rng, scale=rng.uniform(0.0, reach)))
        v = man.log(p, q)
        assert np.linalg.norm(man.exp(p, v) - q) <= 1e-10
        assert abs(np.linalg.norm(v) - man.dist(p, q)) <= 1e-12


def test_cut_locus_errors():
    S = gfe.Sphere(2)
    with pytest.raises(CutLocusError):
        S.log(E1, -E1)
    R = gfe.Rotation3()
    with pytest.raises(CutLocusError):
        R.log(np.eye(3), rotation_z(np.pi))


def test_euclidean_ops_are_exact():
    man = gfe.Euclidean(3)
    rng = np.random.default_rng(3)
    p, q = rng.standard_normal(3), rng.standard_normal(3)
    assert man.dist(p, q) == np.linalg.norm(p - q)
    assert np.array_equal(man.exp(p, q), p + q)
    assert np.array_equal(man.log(p, q), q - p)
    assert np.allclose(man.dist2_hess_q(p, q), 2 * np.eye(3), atol=1e-14)
    assert np.allclose(man.dist2_mixed(p, q), -2 * np.eye(3), atol=1e-14)


# ----------------------------------------------------------------------
# tangent bases and transport


def test_sphere_tangent_basis_canonical():
    S = gfe.Sphere(2)
    B = S.tangent_basis(E3)
    assert np.allclose(B, np.array([E1, E2]), atol=1e-15)


def test_so3_tangent_basis_at_identity_is_skew():
    R = gfe.Rotation3()
    B = R.tangent_basis(np.eye(3))
    assert B.shape == (3, 3, 3)
    for b in B:
        assert np.allclose(b + b.T, 0.0, atol=1e-15)
        assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_tangent_basis_orthonormal_and_deterministic(man):
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = random_point(man, rng)
        B = man.tangent_basis(p).reshape(man.intrinsic_dim, -1)
        assert np.allclose(B @ B.T, np.eye(man.intrinsic_dim), atol=1e-12)
        again = man.tangent_basis(p).reshape(man.intrinsic_dim, -1)
        assert np.array_equal(B, again)


def test_tangent_basis_near_degenerate_point_stays_orthogonal():
    S = gfe.Sphere(2)
    q = np.array([9.99980469e-01, 6.24989796e-03, 1.04173567e-08])
    q /= np.linalg.norm(q)
    B = S.tangent_basis(q)
    assert np.max(np.abs(B @ q)) < 1e-14


def rotation_about(axis, angle):
    axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def tangency_defect(man, p, B):
    """Largest normal component of the rows of B at p."""
    if isinstance(man, gfe.Sphere):
        return float(np.max(np.abs(B @ p)))
    if isinstance(man, gfe.Rotation3):
        S = p.T @ B
        return float(np.max(np.abs(S + np.swapaxes(S, -1, -2))))
    return 0.0


def delicate_points(man):
    """Points where a closed-form basis could lose accuracy or switch branch."""
    if isinstance(man, gfe.Sphere):
        pts = [E3, -E3, E1, E2, np.array([0.6, 0.8, 0.0]), np.array([0.6, -0.8, -0.0])]
        for z in (1e-17, -1e-17, 1e-9, -1e-9):
            pts.append(np.array([0.6, 0.8, z]) / np.linalg.norm([0.6, 0.8, z]))
        return pts
    if isinstance(man, gfe.Rotation3):
        axis = np.array([1.0, -2.0, 0.5])
        return [np.eye(3), rotation_about(axis, np.pi), rotation_about(axis, np.pi - 1e-9),
                rotation_about(axis, 1e-9), rotation_about(E3, np.pi - 1e-12)]
    return [np.zeros(man.k), np.ones(man.k)]


@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_closed_form_basis_at_delicate_points(man):
    rng = np.random.default_rng(5)
    points = delicate_points(man) + [random_point(man, rng) for _ in range(20)]
    dim = man.intrinsic_dim
    for p in points:
        B = man.tangent_basis(p)
        assert B.shape == (dim,) + man.point_shape
        flat = B.reshape(dim, -1)
        assert np.max(np.abs(flat @ flat.T - np.eye(dim))) <= 1e-14
        assert tangency_defect(man, p, B) <= 1e-14
        assert np.array_equal(B, man.tangent_basis(p.copy()))
    # one batched call gives the per-point bases bit for bit
    stacked = man.tangent_basis(np.array(points))
    assert np.array_equal(stacked, np.array([man.tangent_basis(p) for p in points]))


def test_sphere_basis_at_south_pole_is_canonical():
    assert np.array_equal(gfe.Sphere(2).tangent_basis(-E3), np.array([E1, E2]))


def node_batch(man, rng, n=5):
    """A center q and n nodal values around it, the first equal to q."""
    q = random_point(man, rng)
    vals = [q] + [man.exp(q, random_tangent(man, q, rng, scale=rng.uniform(0.2, 1.0)))
                  for _ in range(n - 1)]
    return np.array(vals), q


@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_batched_dist2_blocks_equal_per_node(man):
    rng = np.random.default_rng(29)
    dim = man.intrinsic_dim
    for _ in range(3):
        V, q = node_batch(man, rng)
        H = man.dist2_hess_q(V, q)
        M = man.dist2_mixed(V, q)
        assert H.shape == M.shape == (len(V), dim, dim)
        assert np.allclose(H, [man.dist2_hess_q(v, q) for v in V], rtol=0.0, atol=1e-14)
        assert np.allclose(M, [man.dist2_mixed(v, q) for v in V], rtol=0.0, atol=1e-14)
        # passing the bases the blocks would compute changes nothing
        assert np.array_equal(H, man.dist2_hess_q(V, q, man.tangent_basis(q)))
        assert np.array_equal(M, man.dist2_mixed(V, q, man.tangent_basis(q)))
        assert np.array_equal(H[0], 2.0 * np.eye(dim))
        assert np.array_equal(M[0], -2.0 * np.eye(dim))
        for v, Hv, Mv in zip(V[1:], H[1:], M[1:]):
            assert rel_err(Hv, fd_hess_dist2(man, v, q)) <= 1e-5
            assert rel_err(Mv, fd_mixed_dist2(man, v, q)) <= 1e-5


def test_batched_log_raises_on_any_cut_locus_pair():
    S = gfe.Sphere(2)
    with pytest.raises(CutLocusError):
        S.log(E3, np.array([E1, -E3]))


@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_transport_is_isometric_and_maps_log(man):
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = random_point(man, rng)
        q = man.exp(p, random_tangent(man, p, rng, scale=0.8))
        w = random_tangent(man, p, rng, scale=rng.uniform(0.5, 2.0))
        t = man.transport(p, q, w)
        man.check_tangent(q, t)
        assert np.linalg.norm(t) == pytest.approx(np.linalg.norm(w), abs=1e-12)
        # forward direction at p maps to forward direction at q
        moved = man.transport(p, q, man.log(p, q))
        assert np.allclose(moved, -man.log(q, p), atol=1e-10)


# ----------------------------------------------------------------------
# second-derivative blocks


@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_hessian_at_coincident_points(man):
    p = random_point(man, np.random.default_rng(4))
    assert np.allclose(man.dist2_hess_q(p, p), 2 * np.eye(man.intrinsic_dim), atol=1e-14)
    assert np.allclose(man.dist2_mixed(p, p), -2 * np.eye(man.intrinsic_dim), atol=1e-14)


def test_sphere_hessian_eigenvalues_closed_form():
    S = gfe.Sphere(2)
    rng = np.random.default_rng(7)
    v = random_point(S, rng)
    theta = 0.9
    q = S.exp(v, random_tangent(S, v, rng, scale=theta))
    eig = np.sort(np.linalg.eigvalsh(S.dist2_hess_q(v, q)))
    expected = np.sort([2.0, 2.0 * theta / np.tan(theta)])
    assert np.allclose(eig, expected, atol=1e-10)
    # FD oracle at h = 1e-5
    assert np.allclose(S.dist2_hess_q(v, q), fd_hess_dist2(S, v, q), atol=1e-6)


@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_dist2_blocks_match_fd(man):
    rng = np.random.default_rng(23)
    for _ in range(4):
        v = random_point(man, rng)
        q = man.exp(v, random_tangent(man, v, rng, scale=rng.uniform(0.2, 1.0)))
        assert rel_err(man.dist2_hess_q(v, q), fd_hess_dist2(man, v, q)) <= 1e-5
        assert rel_err(man.dist2_mixed(v, q), fd_mixed_dist2(man, v, q)) <= 1e-5


def test_sphere_mixed_matches_embedding_closed_form():
    # independent oracle: differentiate log_q(v) = a(c)*(v - c q) in the
    # embedding, a(c) = arccos(c)/sqrt(1-c^2)
    S = gfe.Sphere(2)
    rng = np.random.default_rng(31)
    v = random_point(S, rng)
    q = S.exp(v, random_tangent(S, v, rng, scale=0.7))
    c = float(np.dot(v, q))
    s2 = 1.0 - c * c
    a = np.arccos(c) / np.sqrt(s2)
    da = (np.arccos(c) * c - np.sqrt(s2)) / s2**1.5
    B = S.tangent_basis(v)
    E = S.tangent_basis(q)
    M = np.empty((2, 2))
    for j, w in enumerate(B):
        dlog = da * np.dot(w, q) * (v - c * q) + a * (w - np.dot(w, q) * q)
        M[:, j] = E @ (-2.0 * dlog)
    assert np.allclose(S.dist2_mixed(v, q), M, atol=1e-12)


# ----------------------------------------------------------------------
# projections


def test_sphere_projection_basics():
    S = gfe.Sphere(2)
    assert np.allclose(S.project_point([2.0, 0.0, 0.0]), E1, atol=1e-15)
    with pytest.raises(ProjectionUndefinedError):
        S.project_point(np.zeros(3))


@pytest.mark.parametrize("man", [gfe.Sphere(2), gfe.Rotation3()], ids=lambda m: m.kind)
def test_projection_idempotent(man):
    rng = np.random.default_rng(9)
    for _ in range(10):
        w = rng.standard_normal(man.point_shape)
        if man.kind == "rotation3" and np.linalg.det(w.reshape(3, 3)) <= 0:
            w = -w
        p = man.project_point(w)
        assert np.linalg.norm(man.project_point(p) - p) <= 1e-12


def test_sphere_projection_jacobian_formula_and_homogeneity():
    S = gfe.Sphere(2)
    assert np.allclose(S.projection_jacobian(E1), np.eye(3) - np.outer(E1, E1), atol=1e-15)
    rng = np.random.default_rng(10)
    for _ in range(10):
        w = rng.standard_normal(3)
        assert np.linalg.norm(S.projection_jacobian(w) @ w) <= 1e-12


def test_so3_projection_jacobian_matches_fd():
    R = gfe.Rotation3()
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(5):
        A = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        J = R.projection_jacobian(A)
        for c in range(9):
            dA = np.zeros(9)
            dA[c] = h
            qp = R.project_point(A.reshape(-1) + dA)
            qm = R.project_point(A.reshape(-1) - dA)
            fd = (qp - qm).reshape(-1) / (2 * h)
            assert np.max(np.abs(J[:, c] - fd)) <= 1e-5


@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_projection_jacobian_deriv_matches_fd(man):
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(5):
        w = random_point(man, rng) + 0.3 * rng.standard_normal(man.point_shape)
        x = rng.standard_normal((2, man.embed_dim))
        D = man.projection_jacobian_deriv(w, x)
        assert D.shape == (2, man.embed_dim, man.embed_dim)
        for l in range(2):
            step = h * x[l].reshape(man.point_shape)
            fd = (man.projection_jacobian(w + step) - man.projection_jacobian(w - step)) / (2 * h)
            assert np.max(np.abs(D[l] - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))
        # batched over points: each equals its own call
        both = man.projection_jacobian_deriv(np.stack([w, w]), np.stack([x, 2 * x]))
        assert np.max(np.abs(both[1] - 2 * D)) <= 1e-13


def test_so3_project_point_rejects_bad_determinant():
    R = gfe.Rotation3()
    with pytest.raises(ProjectionUndefinedError):
        R.project_point(np.zeros((3, 3)))
    with pytest.raises(ProjectionUndefinedError):
        R.project_point(np.diag([1.0, 1.0, -1.0]))


# ----------------------------------------------------------------------
# polar decomposition


def test_polar_orthogonal_input_is_fixed_point():
    Q0 = rotation_z(0.7)
    Q, iters = polar_decompose(Q0)
    assert np.allclose(Q, Q0, atol=1e-14)
    assert iters == 1


def test_polar_spd_input():
    Q, _ = polar_decompose(np.diag([2.0, 3.0, 4.0]))
    assert np.allclose(Q, np.eye(3), atol=1e-13)


def test_polar_rejects_singular_and_reflected():
    with pytest.raises(SingularMatrixError):
        polar_decompose(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(SingularMatrixError):
        polar_decompose(np.diag([1.0, 1.0, -1.0]))


def _random_posdet(rng, smin=0.35, smax=2.8):
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(U) < 0:
        U[:, 0] = -U[:, 0]
    if np.linalg.det(V) < 0:
        V[:, 0] = -V[:, 0]
    return U @ np.diag(rng.uniform(smin, smax, size=3)) @ V.T


def test_polar_matches_svd_oracle_and_residual_spd():
    rng = np.random.default_rng(99)
    for _ in range(20):
        A = _random_posdet(rng)
        Q, _ = polar_decompose(A)
        U, _, Vt = np.linalg.svd(A)
        assert np.allclose(Q, U @ Vt, atol=1e-8)
        assert np.linalg.norm(Q.T @ Q - np.eye(3)) <= 1e-12
        S = Q.T @ A
        assert np.allclose(S, S.T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(0.5 * (S + S.T))) > 0


def test_polar_quadratic_residual_decay():
    rng = np.random.default_rng(1)
    seen = 0
    for _ in range(20):
        A = _random_posdet(rng)
        _, residuals = _polar_iterates(A)
        usable = [r for r in residuals if 1e-13 < r < 0.9]
        if len(usable) < 3:
            continue
        seen += 1
        r1, r2, r3 = usable[-3:]
        assert np.log(r3) / np.log(r2) >= 1.8
        assert np.log(r2) / np.log(r1) >= 1.8
    assert seen >= 10


# ----------------------------------------------------------------------
# batched exp / log round trips, property-based


VECTOR = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1
)
# angles on both sides of the series cutoff and up to the cut locus at pi - 1e-8
ANGLE = st.one_of(
    st.floats(0.0, 3.0 * _SERIES_CUTOFF),
    st.floats(0.0, np.pi - 1.01e-8),
    st.floats(np.pi - 1e-5, np.pi - 1.01e-8),
)
CASES = st.lists(st.tuples(VECTOR, VECTOR, ANGLE), min_size=1, max_size=8)


def check_round_trip(man, p, v, angle):
    """exp/log of a batch, per point as alone, and the round trips."""
    q = man.exp(p, v)
    w = man.log(p, q)
    for i in range(len(p)):
        assert np.max(np.abs(man.exp(p[i], v[i]) - q[i])) <= 1e-15
        assert np.max(np.abs(man.log(p[i], q[i]) - w[i])) <= 1e-15
    axes = tuple(range(1, q.ndim))
    scale = np.sqrt(2.0) if isinstance(man, gfe.Rotation3) else 1.0
    assert np.max(np.abs(np.sqrt(np.sum(w * w, axis=axes)) - scale * angle)) <= 1e-12
    assert np.max(np.abs(man.exp(p, w) - q)) <= 1e-12
    # the direction of log is ill-conditioned only next to the cut locus
    well = angle < 3.0
    assert np.max(np.abs(w - v)[well], initial=0.0) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(CASES)
def test_sphere_batched_exp_log_round_trip(cases):
    S = gfe.Sphere(2)
    p = np.array([a / np.linalg.norm(a) for a, _, _ in cases])
    d = np.array([b for _, b, _ in cases])
    d = d - np.sum(d * p, axis=1, keepdims=True) * p
    keep = np.linalg.norm(d, axis=1) > 0.1
    if not keep.any():
        return
    angle = np.array([t for _, _, t in cases])[keep]
    v = angle[:, None] * d[keep] / np.linalg.norm(d[keep], axis=1, keepdims=True)
    check_round_trip(S, p[keep], v, angle)


@settings(max_examples=60, deadline=None)
@given(CASES)
def test_so3_batched_exp_log_round_trip(cases):
    R = gfe.Rotation3()
    p = np.array([_expm_skew(_hat(3.0 * a)) for a, _, _ in cases])
    axis = np.array([b / np.linalg.norm(b) for _, b, _ in cases])
    angle = np.array([t for _, _, t in cases])
    v = p @ np.array([_hat(t * a) for a, t in zip(axis, angle)])
    check_round_trip(R, p, v, angle)


# ----------------------------------------------------------------------
# parallel transport and the series switch, property-based


def so3_pair(a, b, angle):
    """A rotation p and q = p exp(angle * hat(unit b)), a turn by ``angle`` away."""
    p = _expm_skew(_hat(3.0 * a))
    return p, p @ _expm_skew(_hat(angle * b / np.linalg.norm(b)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(VECTOR, VECTOR, VECTOR, ANGLE), min_size=1, max_size=8))
@pytest.mark.parametrize("man", [gfe.Sphere(2), gfe.Rotation3()], ids=lambda m: m.kind)
def test_transport_keeps_norms_and_lands_tangent(man, cases):
    angle = np.array([t for *_, t in cases])
    if isinstance(man, gfe.Sphere):
        p = np.array([a / np.linalg.norm(a) for a, _, _, _ in cases])
        d = np.array([b for _, b, _, _ in cases])
        d = d - np.sum(d * p, axis=1, keepdims=True) * p
        keep = np.linalg.norm(d, axis=1) > 0.1
        if not keep.any():
            return
        p, d, angle = p[keep], d[keep], angle[keep]
        q = man.exp(p, angle[:, None] * d / np.linalg.norm(d, axis=1, keepdims=True))
        w = np.array([c for _, _, c, _ in cases])[keep]
        w = w - np.sum(w * p, axis=1, keepdims=True) * p
        t = man.transport(p, q, w)
        normal = np.abs(np.sum(q * t, axis=1))
        # log_p(q), and so the geodesic, is ill-conditioned next to the antipode
        bound = np.maximum(1e-12, 1e-14 / (np.pi - angle))
    else:
        p, q = map(np.array, zip(*(so3_pair(a, b, t) for a, b, _, t in cases)))
        w = p @ np.array([_hat(c) for _, _, c, _ in cases])
        t = man.transport(p, q, w)
        S = np.swapaxes(q, 1, 2) @ t
        normal = np.linalg.norm(S + np.swapaxes(S, 1, 2), axis=(1, 2))
        bound = 1e-12
    norm_w = np.linalg.norm(w.reshape(len(w), -1), axis=1)
    stretch = np.abs(np.linalg.norm(t.reshape(len(t), -1), axis=1) - norm_w)
    assert np.all(np.maximum(stretch, normal) <= bound * np.maximum(1.0, norm_w))


@pytest.mark.parametrize("r", [1e-6, 1e-7])
@pytest.mark.parametrize("man", [gfe.Sphere(2), gfe.Rotation3()], ids=lambda m: m.kind)
def test_mixed_block_keeps_its_accuracy_near_coincident_points(man, r):
    """Within C*r**2 of its leading-order block -2*E_q*Pt(B_v)^T at distance r."""
    rng = np.random.default_rng(31)
    for _ in range(10):
        q = random_point(man, rng)
        d = random_tangent(man, q, rng)
        v = man.exp(q, r * d / np.linalg.norm(d))
        k = len(man.point_shape)
        moved = man.transport(np.expand_dims(v, -k - 1), np.expand_dims(q, -k - 1), man.tangent_basis(v))
        lead = -2.0 * man._flat(man.tangent_basis(q)) @ man._flat(moved).T
        assert np.max(np.abs(man.dist2_mixed(v, q) - lead)) <= r * r + 1e-14


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(VECTOR, VECTOR, st.floats(0.5, 2.0)), min_size=1, max_size=8))
@pytest.mark.parametrize("man", [gfe.Sphere(2), gfe.Rotation3()], ids=lambda m: m.kind)
def test_dist2_blocks_continuous_across_series_cutoff(man, cases):
    """Both blocks agree to 1e-12 whether the kernels near the cutoff take
    their series or their closed forms; ``f`` places the curvature-scaled
    distance sqrt(K)*r at f times the cutoff."""
    for a, b, f in cases:
        if isinstance(man, gfe.Sphere):
            q = a / np.linalg.norm(a)
            d = b - np.dot(b, q) * q
            if np.linalg.norm(d) <= 0.1:
                continue
            d /= np.linalg.norm(d)
        else:
            q = _expm_skew(_hat(3.0 * a))
            d = q @ _hat(b / (np.sqrt(2.0) * np.linalg.norm(b)))   # unit in the Frobenius norm
        v = man.exp(q, f * _SERIES_CUTOFF / np.sqrt(man._model_curvature) * d)
        blocks = []
        for cutoff in (8.0 * _SERIES_CUTOFF, _SERIES_CUTOFF / 8.0):   # all series, all closed
            with mock.patch.object(gfe.kernels, "_SERIES_CUTOFF", cutoff):
                blocks.append((man.dist2_hess_q(v, q), man.dist2_mixed(v, q)))
        (H_series, M_series), (H_closed, M_closed) = blocks
        assert np.max(np.abs(H_series - H_closed)) <= 1e-12
        assert np.max(np.abs(M_series - M_closed)) <= 1e-12


# ----------------------------------------------------------------------
# third derivatives of squared distance


def mp_t_cot_slope_over_t(t):
    a = t * mpmath.cot(t)
    return (a - a * a - t * t) / (t * t)


def mp_one_minus_t_cot_over_sq_times_t_over_sin(t):
    return (1 - t * mpmath.cot(t)) / (t * mpmath.sin(t))


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.floats(1e-12, 3.0 * _SERIES_CUTOFF), st.floats(_SERIES_CUTOFF, 2.8)))
@pytest.mark.parametrize("fn, exact", [
    (_t_cot_slope_over_t, mp_t_cot_slope_over_t),
    (_one_minus_t_cot_over_sq_times_t_over_sin, mp_one_minus_t_cot_over_sq_times_t_over_sin),
], ids=["t_cot_slope_over_t", "one_minus_t_cot_over_sq_times_t_over_sin"])
def test_third_derivative_series_helpers_match_mpmath(fn, exact, t):
    """Series below the cutoff, closed form above it; the closed form loses
    eps/t**2 to cancellation just above the cutoff (about 4e-9 there)."""
    with mpmath.workdps(50):
        want = float(exact(mpmath.mpf(t)))
    bound = 1e-15 if t < _SERIES_CUTOFF else 1e-15 + 1e-15 / t**2
    assert abs(float(fn(np.array(t))) - want) <= bound * abs(want)


SERIES_HELPERS = [
    (_sinc, lambda t: mpmath.sin(t) / t),
    (_one_minus_cos_over_sq, lambda t: (1 - mpmath.cos(t)) / t**2),
    (_t_over_sin, lambda t: t / mpmath.sin(t)),
    (_one_minus_t_over_sin_over_sq, lambda t: (1 - t / mpmath.sin(t)) / t**2),
    (_t_cot, lambda t: t * mpmath.cot(t)),
    (_t_cot_slope_over_t, mp_t_cot_slope_over_t),
    (_one_minus_t_cot_over_sq_times_t_over_sin, mp_one_minus_t_cot_over_sq_times_t_over_sin),
]


@pytest.mark.parametrize("fn, exact", SERIES_HELPERS, ids=lambda f: getattr(f, "__name__", "mp"))
def test_series_helpers_match_mpmath_on_both_sides_of_their_cutoffs(fn, exact):
    """Every helper to 1e-12 relative on (0, 0.1]: the sweep crosses each
    helper's own cutoff, a multiple of _SERIES_CUTOFF, where the closed form
    has stopped losing eps/t**2 (it lost 2.2e-8 at 2e-4 with a shared cutoff
    of 1e-4)."""
    t = np.concatenate([np.geomspace(1e-9, 0.1, 300),
                        np.linspace(0.5 * _SERIES_CUTOFF, 3.0 * _SERIES_CUTOFF, 300)])
    with mpmath.workdps(50):
        want = np.array([float(exact(mpmath.mpf(x))) for x in t])
    assert np.max(np.abs(fn(t) - want) / np.abs(want)) <= 1e-12


@pytest.mark.parametrize("r", [0.0, 1e-6, 0.3, 1.0, 2.0])
@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_dist2_third_matches_fd_along_a_geodesic(man, r):
    rng = np.random.default_rng(33)
    for _ in range(3):
        q = random_point(man, rng)
        v = man.exp(q, r * random_tangent(man, q, rng))
        x = rng.standard_normal(man.intrinsic_dim)
        mixed, hess_X, mixed_X = man.dist2_third(v[None], q, x[None], np.ones(1))
        assert np.max(np.abs(mixed[0] - man.dist2_mixed(v, q))) <= 1e-14
        H_fd, M_fd = fd_dist2_third(man, v, q, x)
        assert np.max(np.abs(hess_X[0] - H_fd)) <= 1e-7 * max(1.0, np.max(np.abs(H_fd)))
        assert np.max(np.abs(mixed_X[0, 0] - M_fd)) <= 1e-7 * max(1.0, np.max(np.abs(M_fd)))
        if isinstance(man, gfe.Euclidean) or r == 0.0:
            assert not hess_X.any() and not mixed_X.any()


# the widest pairs the interpolation admits: the 0.9*pi sphere spread, and a
# 2 rad turn on SO(3) (Frobenius distance 2*sqrt(2))
FRAME_REACH = {"euclidean": 3.0, "sphere": 0.9 * np.pi, "rotation3": 2.0 * np.sqrt(2.0)}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       frac=st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-12, 1e-4), st.floats(0.0, 1.0)))
@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_transported_frames_match_the_log_and_transport_oracle(man, seed, frac):
    """The frames from the log coefficients at q agree with one log(v, q)
    and a parallel transport, from v = q (frac 0) to the widest pair."""
    rng = np.random.default_rng(seed)
    q = random_point(man, rng)
    d = random_tangent(man, q, rng)
    v = man.exp(q, frac * FRAME_REACH[man.kind] / np.linalg.norm(d) * d)
    Eq = man.tangent_basis(q).reshape(man.intrinsic_dim, -1)
    u = Eq @ man.log(q, v).reshape(-1)
    w, T = man._transported_basis(v, q, Eq, u)
    w_oracle, T_oracle = transported_basis_oracle(man, v, q)
    assert w.shape == (man.intrinsic_dim,) and T.shape == (man.intrinsic_dim,) * 2
    assert np.max(np.abs(w - w_oracle)) <= 1e-13
    assert np.max(np.abs(T - T_oracle)) <= 1e-13


@pytest.mark.parametrize("man", [gfe.Sphere(2), gfe.Rotation3()], ids=lambda m: m.kind)
def test_dist2_third_sums_the_weighted_hessian_derivatives(man):
    rng = np.random.default_rng(34)
    q = random_point(man, rng)
    v = np.array([man.exp(q, 0.5 * random_tangent(man, q, rng)) for _ in range(4)])
    weights = rng.uniform(-0.5, 1.0, 4)
    X = rng.standard_normal((2, man.intrinsic_dim))
    mixed, hess_X, mixed_X = man.dist2_third(v, q, X, weights)
    for i in range(4):
        m1, h1, x1 = man.dist2_third(v[i:i + 1], q, X, np.ones(1))
        assert np.max(np.abs(mixed[i] - m1[0])) <= 1e-15
        assert np.max(np.abs(mixed_X[i] - x1[0])) <= 1e-15
        hess_X -= weights[i] * h1
    assert np.max(np.abs(hess_X)) <= 1e-14


@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_transport_with_a_given_log_equals_transport(man):
    rng = np.random.default_rng(35)
    p = random_point(man, rng)
    q = man.exp(p, random_tangent(man, p, rng))
    w = random_tangent(man, p, rng)
    given = man.transport(p, q, w, log_pq=man.log(p, q))
    assert np.max(np.abs(given - man.transport(p, q, w))) <= 1e-15


# ----------------------------------------------------------------------
# validation


def test_point_validation():
    S = gfe.Sphere(2)
    with pytest.raises(ValueError):
        S.check_point(np.array([1.0, 1.0, 0.0]))
    R = gfe.Rotation3()
    with pytest.raises(ValueError):
        R.check_point(np.diag([1.0, 1.0, -1.0]))


def test_tangent_vector_validation():
    S = gfe.Sphere(2)
    S.check_point(E1)
    S.check_tangent(E1, 0.3 * E2)
    with pytest.raises(ValueError):
        S.check_tangent(E1, E1)


@pytest.mark.parametrize("man", ALL, ids=lambda m: m.kind)
def test_batched_check_tangent_agrees_with_per_vector_calls(man):
    rng = np.random.default_rng(31)
    p = np.array([random_point(man, rng) for _ in range(16)])
    tangent = np.array([random_tangent(man, x, rng, scale=rng.uniform(0.5, 5.0)) for x in p])
    # normal parts p (sphere) and p times a symmetric matrix (rotations) at
    # sizes well below and well above the 1e-10 tolerance
    if isinstance(man, gfe.Sphere):
        normal = p
    elif isinstance(man, gfe.Rotation3):
        sym = rng.standard_normal((16, 3, 3))
        normal = p @ (sym + np.swapaxes(sym, 1, 2))
    else:
        normal = np.zeros_like(p)
    size = np.array([0.0, 1e-14, 1e-6, 1.0] * 4).reshape((16,) + (1,) * (p.ndim - 1))
    v = tangent + size * normal

    def accepted(x, w):
        try:
            man.check_tangent(x, w)
        except ValueError:
            return False
        return True

    each = np.array([accepted(x, w) for x, w in zip(p, v)])
    assert each.tolist() == [accepted(p[i : i + 1], v[i : i + 1]) for i in range(16)]
    assert accepted(p, v) == each.all()
    assert accepted(p[each], v[each])
    assert each.all() if isinstance(man, gfe.Euclidean) else each.sum() == 8
    with pytest.raises(DimensionMismatchError):
        man.check_tangent(p, v[..., :-1])
