import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gfe
from gfe import GeodesicInterpolant, ReferenceElement, geodesic
from gfe.errors import (
    AdmissibilityError,
    CutLocusError,
    IndefiniteHessianError,
    NonConvergenceError,
)
from gfe.grid import unit_interval_grid
from gfe.sampling import random_configuration, random_point, random_tangent
from helpers import fd_d_dv, rel_err, start_newton_at

E1, E2, E3 = np.eye(3)
S2 = gfe.Sphere(2)
SO3 = gfe.Rotation3()


def seeded_interp(man, dim, order, seed, radius=0.3):
    elem = ReferenceElement(dim, order)
    values = random_configuration(man, elem.m, np.random.default_rng(seed), radius=radius)
    return GeodesicInterpolant(elem, values, man)


# ----------------------------------------------------------------------
# evaluation


def test_constant_values_need_no_newton_steps():
    elem = ReferenceElement(2, 2)
    p = random_point(S2, np.random.default_rng(0))
    gi = GeodesicInterpolant(elem, np.tile(p, (elem.m, 1)), S2)
    sol = gi._solve([0.2, 0.3])
    assert np.allclose(sol.q, p, atol=1e-15)
    assert sol.iterations == 0


def test_euclidean_reduces_to_linear_interpolation():
    man = gfe.Euclidean(2)
    elem = ReferenceElement(2, 2)
    rng = np.random.default_rng(1)
    values = rng.standard_normal((elem.m, 2))
    gi = GeodesicInterpolant(elem, values, man)
    for _ in range(10):
        xi = rng.dirichlet([1, 1, 1])[1:]
        expected = elem.shape_values(xi) @ values
        assert np.allclose(gi.eval(xi), expected, atol=1e-13)


def test_sphere_midpoint_of_orthogonal_points():
    gi = GeodesicInterpolant(ReferenceElement(1, 1), [E1, E2], S2)
    assert np.allclose(gi.eval([0.5]), (E1 + E2) / np.sqrt(2), atol=1e-14)


@pytest.mark.parametrize("man", [S2, SO3], ids=lambda m: m.kind)
@pytest.mark.parametrize("order", [1, 2])
def test_seeded_configurations_meet_residual_contract(man, order):
    elem = ReferenceElement(2, order)
    rng = np.random.default_rng(414)
    for trial in range(10):
        values = random_configuration(man, elem.m, rng, radius=0.3)
        gi = GeodesicInterpolant(elem, values, man)
        xi = rng.dirichlet([2, 2, 2])[1:]
        sol = gi._solve(xi)
        q = sol.q
        assert sol.residual <= 1e-12
        # recompute the stationarity residual independently
        w = elem.shape_values(xi)
        r = sum(wi * man.log(q, v) for wi, v in zip(w, values))
        assert np.linalg.norm(r) <= 1e-12


@pytest.mark.parametrize("scale", [1e5, 1e8, 1e12])
@pytest.mark.parametrize("d, order", [(1, 1), (1, 2), (2, 2)])
def test_flat_values_far_above_1_give_the_lagrange_interpolant(d, order, scale):
    # rounding alone leaves a stationarity residual of about eps * |v|, above an absolute
    # 1e-12 from |v| ~ 1e4 on: nodal values of 1e5 were refused ("Newton cannot reduce the
    # residual below 2.682e-12") although the center was exact to rounding
    elem = ReferenceElement(d, order)
    rng = np.random.default_rng(5)
    values = scale * rng.standard_normal((elem.m, 2))
    xis = rng.dirichlet(np.ones(d + 1), size=16)[:, 1:]
    sol = GeodesicInterpolant(elem, values, gfe.Euclidean(2))._solve(xis)
    exact = elem.shape_values(xis) @ values
    assert np.max(np.abs(sol.q - exact)) <= 4e-16 * np.abs(values).max()
    assert np.all(sol.residual <= 1e-12 * np.abs(values).max())


@pytest.mark.parametrize("man", [gfe.Euclidean(3), S2, SO3], ids=lambda m: m.kind)
def test_linearization_node_hessians_are_dist2_hess_q(man):
    """The node Hessians a Newton linearization forms from its log coefficients
    are the public dist2_hess_q(v_i, q), also at a node, where v_i = q."""
    gi = seeded_interp(man, 2, 2, 5)
    xi = np.vstack([[0.0, 0.0], np.random.default_rng(5).dirichlet([2, 2, 2], size=4)[:, 1:]])
    q = gi.eval(xi)
    values = np.broadcast_to(gi.values, (len(xi),) + gi.values.shape)
    logs = man._log(q[:, None], values)[0]
    _, _, hessians, _ = geodesic._linearize(man, gi.elem.shape_values(xi), q, logs)
    assert hessians.shape == (len(xi), gi.elem.m, man.intrinsic_dim, man.intrinsic_dim)
    for qp, Hn in zip(q, hessians):
        assert np.max(np.abs(Hn - man.dist2_hess_q(gi.values, qp))) <= 1e-14


def test_admissibility_guard_on_wide_sphere_data():
    with pytest.raises(AdmissibilityError):
        GeodesicInterpolant(
            ReferenceElement(1, 1),
            [E1, np.array([-np.cos(0.05), np.sin(0.05), 0.0])],
            S2,
        )


LIMIT = 0.9 * np.pi


def gap(data) -> float:
    """An angle between neighboring nodes: 0.9*pi exactly, 0.9*pi +- delta with
    delta in [1e-12, 0.05], or well inside the limit."""
    kind = data.draw(st.sampled_from(["limit", "near", "inside"]))
    if kind == "limit":
        return LIMIT
    if kind == "near":
        return LIMIT + data.draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** data.draw(st.floats(-12.0, -1.3))
    return data.draw(st.floats(0.0, 0.85 * np.pi))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), order=st.sampled_from([1, 2]), n_elements=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_admissibility_at_the_spread_limit(data, order, n_elements, seed):
    """Nodes on a tilted great circle, neighbors 0.9*pi +- delta apart, with norms
    off unit length by up to 9e-13 as check_point allows: a function is refused
    exactly where the exact pairwise spread exceeds 0.9*pi, naming the lowest such
    element, and so is one element's interpolant."""
    rng = np.random.default_rng(seed)
    grid = unit_interval_grid(n_elements, order)
    phi = np.zeros(grid.n_nodes)
    phi[:n_elements + 1] = np.cumsum([0.0] + [gap(data) * rng.choice([-1.0, 1.0]) for _ in range(n_elements)])
    for a, mid, b in grid.element_nodes if order == 2 else ():
        phi[mid] = 0.5 * (phi[a] + phi[b]) + rng.uniform(-0.1, 0.1)
    tilt = rng.uniform(-1e-3, 1e-3, grid.n_nodes) * data.draw(st.sampled_from([0.0, 1.0]))
    v = np.stack([np.cos(phi), np.sin(phi), tilt], axis=1)
    R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    v = v / np.linalg.norm(v, axis=1, keepdims=True) @ R.T
    v *= 1.0 + rng.uniform(-9e-13, 9e-13, (grid.n_nodes, 1))
    spread = geodesic._max_spread(S2, v[grid.element_nodes])
    wide = np.flatnonzero(spread > LIMIT)
    if len(wide):
        with pytest.raises(AdmissibilityError, match=f"^element {wide[0]}: nodal values spread "
                                                     f"{spread[wide[0]]:.4f} exceeds"):
            gfe.GFEFunction(grid, S2, "geodesic", v)
    else:
        gfe.GFEFunction(grid, S2, "geodesic", v)
    if spread[0] > LIMIT:
        with pytest.raises(AdmissibilityError, match="^nodal values spread"):
            GeodesicInterpolant(grid.ref, v[grid.element_nodes[0]], S2)
    else:
        GeodesicInterpolant(grid.ref, v[grid.element_nodes[0]], S2)


def test_newton_nonconvergence_with_tiny_budget(monkeypatch):
    gi = seeded_interp(S2, 2, 2, seed=5)
    monkeypatch.setattr(geodesic, "_MAX_NEWTON", 0)
    start_newton_at(monkeypatch, S2.exp(gi.values[0], 0.2 * S2.tangent_basis(gi.values[0])[0]))
    with pytest.raises(NonConvergenceError):
        gi._solve([0.3, 0.3])


def test_indefinite_hessian_at_engineered_saddle(monkeypatch):
    # two points on a great circle; the antipode of their midpoint is a
    # stationary point with mixed curvature signs
    a = 1.25
    v1 = np.array([np.cos(a), np.sin(a), 0.0])
    v2 = np.array([np.cos(a), -np.sin(a), 0.0])
    gi = GeodesicInterpolant(ReferenceElement(1, 1), [v1, v2], S2)
    start_newton_at(monkeypatch, np.array([-1.0, 0.0, 0.0]))
    with pytest.raises(IndefiniteHessianError):
        gi._solve([0.5])


# ----------------------------------------------------------------------
# two-node elements: Newton starts at the geodesic point


def pair_at_angle(man, rng, angle) -> np.ndarray:
    """(2, *point_shape): a random point and the point at the given angle of
    ``Manifold._log`` from it, along a random unit direction."""
    v1 = random_point(man, rng)
    c = rng.standard_normal(man.intrinsic_dim)
    c *= angle * man._dist_per_angle / np.linalg.norm(c)
    return np.stack([v1, man.exp(v1, np.tensordot(c, man.tangent_basis(v1), axes=1))])


def assert_batch_equals_points(elem, pairs, man, xi):
    """Solve every (pair, xi) point in one batch over the stacked pairs and
    each one alone: the centers and residuals agree bit for bit.  Returns the batch."""
    sol = GeodesicInterpolant(elem, pairs[:, None], man, _checked=True)._solve(xi)
    for e, pair in enumerate(pairs):
        single = GeodesicInterpolant(elem, pair, man)
        for k in range(len(xi)):
            alone = single._solve(xi[k])
            assert np.array_equal(sol.q[e, k], alone.q) and sol.residual[e, k] == alone.residual
    return sol


@settings(max_examples=60, deadline=None)
@given(man=st.sampled_from([S2, SO3]), seed=st.integers(0, 2**32 - 1),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
       xi=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_two_node_elements_start_newton_at_their_center(man, seed, fractions, xi):
    """S^2 pairs up to the 0.9*pi spread limit and SO(3) pairs up to a rotation
    angle of pi - 1e-6, xi in [0, 1]: Newton starts at exp_{v_1}(phi_2 log_{v_1} v_2)
    and makes no step, the residual is at most 1e-14, and a batch over stacked
    pairs equals its points solved one at a time."""
    rng = np.random.default_rng(seed)
    top = LIMIT if man is S2 else np.pi - 1e-6
    pairs = np.stack([pair_at_angle(man, rng, f * top) for f in fractions])
    if man is S2:   # rounding may carry a pair at the limit just past it
        pairs = pairs[geodesic._max_spread(S2, pairs) <= LIMIT]
        assume(len(pairs))
    elem, xi = ReferenceElement(1, 1), np.array(xi)[:, None]
    sol = assert_batch_equals_points(elem, pairs, man, xi)
    assert sol.iterations == 0 and np.all(sol.residual <= 1e-14)
    phi2 = elem.shape_values(xi)[:, 1]
    for e, (v1, v2) in enumerate(pairs):
        for k in range(len(xi)):
            assert np.array_equal(sol.q[e, k], man.exp(v1, phi2[k] * man._log(v1, v2)[0]))


@pytest.mark.parametrize("gap", [2e-8, 1e-8, 9e-9, 1e-9])
def test_two_node_so3_within_the_cut_tolerance_of_the_half_turn(gap):
    """Rotation angles pi - gap: where log_{v_1} v_2 is within the 1e-8 cut
    tolerance Newton starts from the projection, as on larger elements; every
    point either raises CutLocusError or meets the 1e-12 residual contract, and
    the points that solve do so in a batch as alone, bit for bit."""
    pair = pair_at_angle(SO3, np.random.default_rng(21), np.pi - gap)
    elem, ok = ReferenceElement(1, 1), []
    for x in np.linspace(0.0, 1.0, 11):
        try:
            sol = GeodesicInterpolant(elem, pair, SO3)._solve([x])
        except CutLocusError:
            continue
        assert sol.residual <= 1e-12
        ok.append(x)
    assert ok or gap < 1e-8
    if ok:
        sol = assert_batch_equals_points(elem, pair[None], SO3, np.array(ok)[:, None])
        assert np.all(sol.residual <= 1e-12)


def test_two_node_so3_exact_half_turn_raises_at_the_first_point_of_that_element():
    half_turn = SO3.exp(np.eye(3), np.pi * np.sqrt(2.0) * SO3.tangent_basis(np.eye(3))[2])
    easy = pair_at_angle(SO3, np.random.default_rng(22), 1.0)
    values = np.stack([easy, [np.eye(3), half_turn]])[:, None]     # elements (easy, half-turn)
    xi = np.array([[0.0], [0.25], [0.5], [1.0]])
    with pytest.raises(CutLocusError, match="at the half-turn") as raised:
        GeodesicInterpolant(ReferenceElement(1, 1), values, SO3, _checked=True)._solve(xi)
    assert raised.value.point == len(xi)


@pytest.mark.parametrize("man", [S2, SO3], ids=lambda m: m.kind)
def test_two_equal_nodal_values_give_that_value(man):
    v = random_point(man, np.random.default_rng(23))
    sol = GeodesicInterpolant(ReferenceElement(1, 1), [v, v], man)._solve(np.array([[0.0], [0.4], [1.0]]))
    assert sol.iterations == 0 and np.all(sol.residual == 0.0)
    assert np.max(np.abs(sol.q - v)) <= 2.3e-16     # exp(v, 0) renormalizes a sphere point


# ----------------------------------------------------------------------
# xi-derivative


def test_d_dxi_zero_for_constant_data():
    elem = ReferenceElement(2, 1)
    p = random_point(S2, np.random.default_rng(3))
    gi = GeodesicInterpolant(elem, np.tile(p, (elem.m, 1)), S2)
    q, cols = gi.d_dxi([0.2, 0.2])
    S2.check_tangent(q, cols)
    for col in cols:
        assert np.linalg.norm(col) <= 1e-13


def test_d_dxi_flat_case():
    man = gfe.Euclidean(2)
    elem = ReferenceElement(2, 2)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((elem.m, 2))
    gi = GeodesicInterpolant(elem, values, man)
    xi = [0.25, 0.4]
    q, cols = gi.d_dxi(xi)
    man.check_tangent(q, cols)
    expected = elem.shape_gradients(xi).T @ values
    for k in range(2):
        assert np.allclose(cols[k], expected[k], atol=1e-13)


def test_first_order_curves_have_constant_speed():
    rng = np.random.default_rng(6)
    p = random_point(S2, rng)
    q = S2.exp(p, random_tangent(S2, p, rng, scale=1.1))
    gi = GeodesicInterpolant(ReferenceElement(1, 1), [p, q], S2)
    speeds = []
    for t in np.linspace(0.02, 0.98, 20):
        center, cols = gi.d_dxi([t])
        S2.check_tangent(center, cols)
        speeds.append(np.linalg.norm(cols[0]))
    assert np.std(speeds) <= 1e-8
    assert abs(speeds[0] - S2.dist(p, q)) <= 1e-8


def test_d_dxi_matches_fd_of_eval():
    gi = seeded_interp(S2, 2, 2, seed=8)
    xi = np.array([0.3, 0.25])
    h = 1e-6
    q, cols = gi.d_dxi(xi)
    S2.check_tangent(q, cols)
    for k in range(2):
        step = np.zeros(2)
        step[k] = h
        fd = (gi.eval(xi + step) - gi.eval(xi - step)) / (2 * h)
        assert np.linalg.norm(cols[k] - fd) <= 1e-5


# ----------------------------------------------------------------------
# value derivatives


@pytest.mark.parametrize("man", [S2, SO3], ids=lambda m: m.kind)
@pytest.mark.parametrize("order", [1, 2])
def test_d_dv_kronecker_at_nodes(man, order):
    elem = ReferenceElement(2, order)
    values = random_configuration(man, elem.m, np.random.default_rng(13), radius=0.3)
    gi = GeodesicInterpolant(elem, values, man)
    dim = man.intrinsic_dim
    for j, node in enumerate(elem.nodes):
        _, mats = gi.d_dv_all(node)
        for i in range(elem.m):
            expected = np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.allclose(mats[i], expected, atol=1e-10)


@pytest.mark.parametrize("man", [S2, SO3], ids=lambda m: m.kind)
@pytest.mark.parametrize("order", [1, 2])
def test_d_dv_matches_exp_curve_fd(man, order):
    elem = ReferenceElement(2, order)
    rng = np.random.default_rng(21)
    values = random_configuration(man, elem.m, rng, radius=0.3)
    gi = GeodesicInterpolant(elem, values, man)
    xi = 0.5 * rng.dirichlet(np.ones(3))[1:] + 0.15
    _, mats = gi.d_dv_all(xi)
    for i in range(elem.m):
        assert rel_err(fd_d_dv(gi, xi, i), mats[i]) <= 1e-4


def test_equal_values_d_dv_sums_to_identity():
    elem = ReferenceElement(2, 2)
    p = random_point(S2, np.random.default_rng(15))
    gi = GeodesicInterpolant(elem, np.tile(p, (elem.m, 1)), S2)
    xi = [0.22, 0.31]
    total = gi.d_dv_all(xi)[1].sum(axis=0)
    assert np.allclose(total, np.eye(2), atol=1e-10)


def test_rotation_equivariance_on_sphere():
    rng = np.random.default_rng(16)
    elem = ReferenceElement(2, 2)
    values = random_configuration(S2, elem.m, rng, radius=0.3)
    R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(R) < 0:
        R[:, 0] = -R[:, 0]
    gi = GeodesicInterpolant(elem, values, S2)
    gi_rot = GeodesicInterpolant(elem, values @ R.T, S2)
    for _ in range(5):
        xi = rng.dirichlet([1, 1, 1])[1:]
        assert np.linalg.norm(gi_rot.eval(xi) - R @ gi.eval(xi)) <= 1e-10


# ----------------------------------------------------------------------
# Karcher diagnostic


def test_karcher_check_constant_data():
    elem = ReferenceElement(1, 1)
    gi = GeodesicInterpolant(elem, [E1, E1], S2)
    chk = gi.karcher_check()
    assert chk.satisfied and chk.max_pairwise_dist == 0.0


def test_karcher_check_wide_sphere_pair_fails():
    d = np.pi / 2 + 0.2
    q = np.array([np.cos(d), np.sin(d), 0.0])
    gi = GeodesicInterpolant(ReferenceElement(1, 1), [E1, q], S2)
    chk = gi.karcher_check()
    assert chk.radius_bound == pytest.approx(np.pi / 4)
    assert not chk.satisfied


def test_karcher_check_flat_always_satisfied():
    man = gfe.Euclidean(2)
    gi = GeodesicInterpolant(
        ReferenceElement(1, 1), np.array([[0.0, 0.0], [100.0, -40.0]]), man
    )
    chk = gi.karcher_check()
    assert chk.satisfied and chk.radius_bound == np.inf
