import numpy as np
import pytest

import gfe
from gfe import (
    GFEFunction,
    GlobalTestFunction,
    Grid,
    read_mesh,
    unit_interval_grid,
    unit_square_grid,
    write_mesh,
)
from gfe.errors import AdmissibilityError, PointOutsideDomainError
from gfe.sampling import random_configuration, random_point
from gfe.vtkio import write_vtk
from helpers import nodal_basis_vectors, random_field_vectors

S2 = gfe.Sphere(2)
E1V = gfe.Euclidean(1)


def sphere_function(grid, seed, rule="geodesic", radius=0.3):
    values = random_configuration(S2, grid.n_nodes, np.random.default_rng(seed), radius=radius)
    return GFEFunction(grid, S2, rule, values)


def interior_faces(grid):
    seen = {}
    for e, el in enumerate(grid.elements):
        for k in range(grid.dim + 1):
            face = tuple(sorted(int(v) for j, v in enumerate(el) if j != k))
            seen.setdefault(face, []).append(e)
    return {f: es for f, es in seen.items() if len(es) == 2}


# ----------------------------------------------------------------------
# mesh I/O


def test_mesh_roundtrip(tmp_path):
    grid = unit_square_grid(2, 1)
    path = tmp_path / "square.mesh"
    write_mesh(path, 2, grid.vertices, grid.elements)
    dim, vertices, elements = read_mesh(path)
    assert dim == 2
    assert np.array_equal(vertices, grid.vertices)
    assert np.array_equal(elements, grid.elements)


def test_mesh_comments_and_bad_header(tmp_path):
    path = tmp_path / "line.mesh"
    path.write_text("# a comment\ngfe-mesh 1\n2\n0.0\n1.0 # trailing\n1\n0 1\n")
    dim, vertices, elements = read_mesh(path)
    assert dim == 1 and len(vertices) == 2 and len(elements) == 1
    bad = tmp_path / "bad.mesh"
    bad.write_text("not-a-mesh 1\n")
    with pytest.raises(ValueError):
        read_mesh(bad)


def square_mesh_text(element_count=None):
    """The 2 x 2 criss-cross square mesh as write_mesh writes it: elements on lines 13-20,
    their count on line 12, which element_count replaces."""
    grid = unit_square_grid(2, 1)
    text = (f"gfe-mesh 2\n9\n" + "".join(f"{x:.17g} {y:.17g}\n" for x, y in grid.vertices)
            + f"{element_count or 8}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in grid.elements))
    return text


@pytest.mark.parametrize("text, line, declared", [
    ("gfe-mesh 1\n3\n0\n0.5\n1\n2\n0 1\n1 2\n9 9\n", 9, 2),
    ("gfe-mesh 1\n3\n0\n0.5\n1\n2\n0 1\n# the end\n1 2\n\n0 1\n", 11, 2),
    (square_mesh_text(7), 20, 7),
], ids=["1d", "1d-comments", "2d"])
def test_read_mesh_refuses_a_row_after_the_declared_elements(tmp_path, text, line, declared):
    # the rows past the count used to be dropped: the 2d mesh lost its last triangle, a wrong answer
    path = tmp_path / "m.mesh"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_mesh(path)
    message = f"line {line}: malformed mesh: a row after the {declared} elements the file declares"
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("header", ["gfe-meshy 1", "gfe-mesh 1 extra"])
def test_read_mesh_header_is_exactly_two_tokens(tmp_path, header):
    path = tmp_path / "m.mesh"
    path.write_text(f"{header}\n2\n0\n1\n1\n0 1\n")
    with pytest.raises(ValueError, match="missing 'gfe-mesh d' header"):
        read_mesh(path)


@pytest.mark.parametrize("index", ["99999999999999999999999", "-99999999999999999999999", "9" * 400])
def test_read_mesh_index_beyond_int64_is_out_of_range(tmp_path, index):
    # it used to raise OverflowError, which no caller catches as a malformed mesh
    path = tmp_path / "m.mesh"
    path.write_text(f"gfe-mesh 1\n3\n0\n0.5\n1\n2\n0 1\n1 {index}\n")
    dim, vertices, elements, lines = read_mesh(path, lines=True)
    with pytest.raises(ValueError) as info:
        Grid(dim, vertices, elements, 1, element_lines=lines)
    assert str(info.value) == "line 8: element 1 has a vertex index outside 0..2"
    path.write_text("gfe-mesh 1\n3\n0\n0.5\n1\n2\n0 1\n1 1.5\n")     # still refused as a token
    with pytest.raises(ValueError, match="line 8: malformed mesh: invalid literal for int"):
        read_mesh(path)


def test_mesh_text_is_formatted_by_rows(tmp_path):
    grid = unit_square_grid(2, 1)
    path = tmp_path / "m.mesh"
    write_mesh(path, 2, grid.vertices, grid.elements)
    assert path.read_text() == square_mesh_text()


# ----------------------------------------------------------------------
# grid construction


def test_interval_grid_nodes_and_boundary():
    g1 = unit_interval_grid(4, 1)
    assert g1.n_nodes == 5
    assert sorted(g1.boundary_nodes) == [0, 4]
    g2 = unit_interval_grid(4, 2)
    assert g2.n_nodes == 9
    assert sorted(g2.boundary_nodes) == [0, 4]


def test_square_grid_nodes_and_boundary():
    g1 = unit_square_grid(2, 1)
    assert g1.n_nodes == 9
    assert g1.n_elements == 8
    assert len(g1.boundary_nodes) == 8
    g2 = unit_square_grid(2, 2)
    assert g2.n_nodes == 25  # 9 vertices + 16 edges
    assert len(g2.boundary_nodes) == 16


def test_shared_nodes_have_identical_coordinates():
    grid = unit_square_grid(3, 2)
    for e in range(grid.n_elements):
        mapped = grid._origin[e] + grid.ref.nodes @ grid._B[e].T
        assert np.max(np.abs(mapped - grid.lagrange_nodes[grid.element_nodes[e]])) <= 1e-12


def test_large_coordinates_build_a_grid():
    # a mesh in large units is as valid as the unit square: node coordinates
    # are not compared against an absolute tolerance
    unit = unit_square_grid(2, 2)
    grid = Grid(2, 0.1 + 1e6 * unit.vertices, unit.elements, 2)
    assert np.array_equal(grid.element_nodes, unit.element_nodes)
    assert np.allclose(grid.lagrange_nodes, 0.1 + 1e6 * unit.lagrange_nodes, rtol=1e-15, atol=0.0)


def test_negative_orientation_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        Grid(2, vertices, np.array([[0, 2, 1]]), 1)


def test_unused_vertex_rejected():
    with pytest.raises(ValueError, match="vertex 2 belongs to no element"):
        Grid(1, np.array([[0.0], [1.0], [2.0]]), np.array([[0, 1]]), 1)


SQUARE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


@pytest.mark.parametrize("dim, vertices, elements, message", [
    pytest.param(2, np.zeros((4, 3)), [[0, 1, 2]], r"vertices must have shape \(nv, 2\), got \(4, 3\)",
                 id="three-coordinates-in-2d"),
    pytest.param(1, np.zeros((2, 2)), [[0, 1]], r"vertices must have shape \(nv, 1\), got \(2, 2\)",
                 id="two-coordinates-in-1d"),
    pytest.param(1, [0.0, 1.0], [[0, 1]], r"vertices must have shape \(nv, 1\), got \(2,\)", id="flat-vertices"),
    pytest.param(2, [[0.0, 0.0], [1.0, np.nan], [0.0, 1.0]], [[0, 1, 2]], "vertices must have finite coordinates",
                 id="nan-coordinate"),
    pytest.param(2, SQUARE, [[0, 1, 2, 3]], r"elements must have shape \(ne, 3\), got \(1, 4\)",
                 id="four-indices-in-2d"),
    pytest.param(2, SQUARE, [[0, 1, 2], [1, 7, 2]], r"^element 1 has a vertex index outside 0\.\.3$",
                 id="index-past-the-end"),
    pytest.param(1, [[0.0], [1.0]], [[-1, 1]], r"^element 0 has a vertex index outside 0\.\.1$",
                 id="negative-index"),
])
def test_malformed_arrays_rejected(dim, vertices, elements, message):
    # refused before anything is indexed or reshaped
    with pytest.raises(ValueError, match=message):
        Grid(dim, vertices, elements, 1)


def test_out_of_range_index_names_the_element_line():
    with pytest.raises(ValueError, match=r"^line 12: element 1 has a vertex index outside 0\.\.3$"):
        Grid(2, SQUARE, [[0, 1, 2], [1, 4, 2]], 1, element_lines=[11, 12])


@pytest.mark.parametrize("elements, element_lines, message", [
    pytest.param([[0, 1.7, 2.9]], None, r"^element 0 has a vertex index that is not an integer$", id="fractions"),
    pytest.param([[0, 1, 2], [1, 3, 2.5]], [4, 7], r"^line 7: element 1 has a vertex index that is not an integer$",
                 id="names-its-line"),
    pytest.param([[0, 1, 2], [1, np.nan, 2]], None, r"^element 1 has a vertex index that is not an integer$",
                 id="nan"),
    pytest.param([[0, 1, 2], [1, 9.5, 2]], None, r"^element 1 has a vertex index that is not an integer$",
                 id="before-the-range-check"),
    pytest.param([[0, 1, 2], [1, np.inf, 2]], None, r"^element 1 has a vertex index outside 0\.\.3$", id="inf"),
])
def test_non_integer_index_rejected(elements, element_lines, message):
    with pytest.raises(ValueError, match=message):
        Grid(2, SQUARE, elements, 1, element_lines=element_lines)


@pytest.mark.parametrize("dim, vertices, elements, element_lines, message", [
    pytest.param(1, [[0.0], [0.5], [1.0]], [[0, 1], [1, 2], [1, 2]], None,
                 r"^element 2 repeats the vertices of element 1$", id="1d"),
    pytest.param(2, SQUARE, [[0, 1, 2], [1, 3, 2], [2, 0, 1]], [5, 6, 8],
                 r"^line 8: element 2 repeats the vertices of element 0$", id="2d-rotated-names-its-line"),
    pytest.param(1, [[0.0], [0.25], [0.5], [1.0]], [[2, 3], [0, 1], [1, 2], [0, 1], [2, 3]], None,
                 r"^element 3 repeats the vertices of element 1$", id="the-first-repeat"),
])
def test_repeated_element_rejected(dim, vertices, elements, element_lines, message):
    # counted twice, an element adds its integrals twice and hides its faces from the boundary
    with pytest.raises(ValueError, match=message):
        Grid(dim, vertices, elements, 1, element_lines=element_lines)


@pytest.mark.parametrize("dim, vertices, elements, element_lines, message", [
    pytest.param(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]], [[0, 1, 2], [0, 1, 3]], [6, 7],
                 r"^line 7: element 1 overlaps element 0 across the face \[0, 1\]$", id="2d-inside-names-its-line"),
    pytest.param(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.6]], [[0, 1, 2], [2, 0, 3]], None,
                 r"^element 1 overlaps element 0 across the face \[0, 2\]$", id="2d-rotated"),
    pytest.param(1, [[0.0], [1.0], [0.5]], [[0, 1], [0, 2]], None,
                 r"^element 1 overlaps element 0 across the face \[0\]$", id="1d-left-end"),
    pytest.param(1, [[0.0], [0.5], [1.0], [0.75]], [[0, 1], [1, 2], [3, 2]], None,
                 r"^element 2 overlaps element 1 across the face \[2\]$", id="1d-right-end"),
])
def test_elements_folded_over_a_shared_face_rejected(dim, vertices, elements, element_lines, message):
    # the second element lies on the first's side of their face: minimize counted the overlap and
    # reported converged=true, and in 1d node 0, the domain's left end, was missing from the boundary
    with pytest.raises(ValueError, match=message):
        Grid(dim, vertices, elements, 1, element_lines=element_lines)


@pytest.mark.parametrize("dim, vertices, elements, message", [
    pytest.param(1, [[0.0], [1e-300], [1.0]], [[0, 1], [1, 2]],
                 r"^element 0 is too small for floating point \(det = 1\.000e-300\)$", id="1d"),
    pytest.param(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1e-160]], [[0, 1, 2], [1, 3, 2]],
                 r"^element 1 is too small for floating point \(det = 1\.000e-160\)$", id="2d-sliver"),
])
def test_element_too_small_for_floating_point_rejected(dim, vertices, elements, message):
    # the energy squares B^-1: a 1e-300 element gave minimize value=inf after three RuntimeWarnings
    with pytest.raises(ValueError, match=message):
        Grid(dim, vertices, elements, 1)


@pytest.mark.parametrize("vertices, message", [
    pytest.param([[0.0, 0.0], [1e-200, 0.0], [0.0, 1e-200]],
                 r"^element 0 is too small for floating point \(det = 0\.000e\+00\)$", id="tiny"),
    pytest.param([[0.0, 0.0], [0.0, 1e-200], [1e-200, 0.0]],
                 r"^element 0 has non-positive orientation \(det = -0\.000e\+00\)$", id="tiny-mirrored"),
    pytest.param([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]],
                 r"^element 0 is too large for floating point \(det = inf\)$", id="huge"),
])
def test_an_element_whose_determinant_underflows_or_overflows_is_named(vertices, message):
    # det B = 1e-400 underflowed to 0, which read as a wrong orientation, and det B = 1e400 overflowed
    # to inf with a RuntimeWarning, to give infinite quadrature weights; the sign comes from the LU
    # factors, so the tiny triangle is named too small, its mirror image flipped and the huge one too large
    with pytest.raises(ValueError, match=message):
        Grid(2, vertices, [[0, 1, 2]], 1)


def test_small_elements_within_floating_point_build_a_grid():
    # the bound 1e150 on B^-1 leaves every mesh whose squared B^-1 is finite
    grid = Grid(1, [[0.0], [1e-140], [1.0]], [[0, 1], [1, 2]], 1)
    assert np.isfinite(grid._Binv ** 2).all()


def test_integral_float_indices_build_the_integer_grid():
    grid = Grid(2, SQUARE, np.array([[0.0, 1.0, 2.0], [1.0, 3.0, 2.0]]), 1)
    assert grid.elements.dtype == int and np.array_equal(grid.elements, [[0, 1, 2], [1, 3, 2]])


def test_point_location():
    grid = unit_square_grid(2, 1)
    e, xi = grid.locate([0.2, 0.1])
    assert grid.ref.contains(xi)
    with pytest.raises(PointOutsideDomainError):
        grid.locate([1.5, 0.0])


# ----------------------------------------------------------------------
# global functions


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Grid(3, np.eye(4, 3), [[0, 1, 2, 3]], 1), r"^grids support dim 1 and 2, got 3$",
                 id="grid-dim"),
    pytest.param(lambda: Grid(1, [[0.0], [1.0]], [[0, 1]], 3), r"^grids support order 1 and 2, got 3$",
                 id="grid-order"),
    pytest.param(lambda: GFEFunction(unit_interval_grid(2, 1), S2, "nearest", np.eye(3)),
                 r"^rule must be one of \('geodesic', 'projection'\)$", id="function-rule"),
    pytest.param(lambda: GFEFunction(unit_interval_grid(2, 1), S2, "geodesic", np.eye(3)[:2]),
                 r"^expected 3 nodal values of shape \(3,\)$", id="function-values-shape"),
])
def test_unsupported_grids_and_functions_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_constant_function_evaluates_constantly():
    grid = unit_square_grid(2, 1)
    p = random_point(S2, np.random.default_rng(1))
    u = GFEFunction(grid, S2, "geodesic", np.tile(p, (grid.n_nodes, 1)))
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(0, 1, size=2)
        assert np.allclose(u.evaluate(x), p, atol=1e-13)


@pytest.mark.parametrize("rule", ["geodesic", "projection"])
def test_evaluation_at_lagrange_nodes_reproduces_values(rule):
    grid = unit_square_grid(2, 2)
    u = sphere_function(grid, seed=3, rule=rule)
    for i, x in enumerate(grid.lagrange_nodes):
        assert np.linalg.norm(u.evaluate(x) - u.values[i]) <= 1e-12


def test_flat_function_matches_classical_interpolation():
    grid = unit_interval_grid(2, 1)
    values = np.array([[0.0], [0.25], [1.0]])
    u = GFEFunction(grid, E1V, "geodesic", values)
    for x in np.linspace(0, 1, 20):
        e, xi = grid.locate([x])
        expected = grid.ref.shape_values(xi) @ values[grid.element_nodes[e]]
        assert abs(u.evaluate([x])[0] - expected[0]) <= 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("man", [gfe.Euclidean(2), S2, gfe.Rotation3()], ids=lambda m: m.kind)
def test_non_finite_points_and_vectors_rejected(man, bad):
    # NaN fails no test written as x > tol, and infinities pass scale-relative
    # ones, so each check refuses them first; so do the functions built on them
    grid = unit_square_grid(1, 1)
    values = random_configuration(man, grid.n_nodes, np.random.default_rng(5), radius=0.3)
    p, v = values[0].copy(), np.zeros(man.point_shape)
    p.flat[0] = v.flat[0] = bad
    with pytest.raises(ValueError, match="has a non-finite entry"):
        man.check_point(p)
    with pytest.raises(ValueError, match="has a non-finite entry"):
        man.check_tangent(values[0], v)
    with pytest.raises(ValueError, match="has a non-finite entry"):
        GFEFunction(grid, man, "geodesic", np.concatenate([p[None], values[1:]]))
    vectors = np.zeros_like(values)
    vectors[1] = v
    with pytest.raises(ValueError, match="has a non-finite entry"):
        GlobalTestFunction(GFEFunction(grid, man, "geodesic", values), vectors)


def test_admissibility_reported_with_element_index():
    grid = unit_interval_grid(2, 1)
    near_antipode = np.array([np.sin(0.05), -np.cos(0.05), 0.0])
    values = np.array([[1.0, 0, 0], [0.0, 1, 0], near_antipode])
    with pytest.raises(AdmissibilityError) as err:
        GFEFunction(grid, S2, "geodesic", np.array(values))
    assert "element 1" in str(err.value)


def test_only_the_geodesic_rule_refuses_a_wide_element():
    grid = unit_interval_grid(2, 1)
    near_antipode = np.array([np.sin(0.05), -np.cos(0.05), 0.0])
    values = np.array([[1.0, 0, 0], [0.0, 1, 0], near_antipode])
    GFEFunction(grid, S2, "projection", values)
    with pytest.raises(AdmissibilityError, match="^element 1: "):
        GFEFunction(grid, S2, "geodesic", values)
    with pytest.raises(AdmissibilityError):
        gfe.GeodesicInterpolant(grid.ref, values[grid.element_nodes[1]], S2)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("rule", ["geodesic", "projection"])
def test_two_sided_face_continuity(order, rule):
    grid = unit_square_grid(2, order)
    u = sphere_function(grid, seed=5, rule=rule)
    rng = np.random.default_rng(6)
    faces = interior_faces(grid)
    checked = 0
    for (a, b), (ea, eb) in faces.items():
        for _ in range(13):
            t = rng.uniform(0.05, 0.95)
            x = (1 - t) * grid.vertices[a] + t * grid.vertices[b]
            qa = u.evaluate(x, element=ea)
            qb = u.evaluate(x, element=eb)
            assert np.linalg.norm(qa - qb) <= 1e-10
            checked += 1
    assert checked >= 100


def test_two_sided_test_function_continuity():
    grid = unit_square_grid(2, 2)
    u = sphere_function(grid, seed=7)
    rng = np.random.default_rng(8)
    vecs = random_field_vectors(S2, u.values, rng)
    eta = GlobalTestFunction(u, vecs)
    checked = 0
    for (a, b), (ea, eb) in interior_faces(grid).items():
        for _ in range(13):
            t = rng.uniform(0.05, 0.95)
            x = (1 - t) * grid.vertices[a] + t * grid.vertices[b]
            qa, va = eta.evaluate(x, element=ea)
            qb, vb = eta.evaluate(x, element=eb)
            S2.check_tangent(qa, va)
            S2.check_tangent(qb, vb)
            assert np.linalg.norm(va - vb) <= 1e-10
            checked += 1
    assert checked >= 100


def test_test_function_at_nodes_and_zero_field():
    grid = unit_interval_grid(4, 1)
    u = sphere_function(grid, seed=9)
    rng = np.random.default_rng(10)
    vecs = random_field_vectors(S2, u.values, rng)
    eta = GlobalTestFunction(u, vecs)
    for i, x in enumerate(grid.lagrange_nodes):
        q, vec = eta.evaluate(x)
        S2.check_tangent(q, vec)
        assert np.allclose(vec, vecs[i], atol=1e-10)
    zero = GlobalTestFunction(u, np.zeros_like(u.values))
    q, vec = zero.evaluate([0.37])
    S2.check_tangent(q, vec)
    assert np.linalg.norm(vec) <= 1e-14


def test_global_nodal_basis_structure_and_reproduction():
    grid = unit_interval_grid(2, 1)
    u = sphere_function(grid, seed=11)
    dim = S2.intrinsic_dim
    basis = [
        GlobalTestFunction(u, nodal_basis_vectors(S2, u.values, i, j))
        for i in range(grid.n_nodes) for j in range(dim)
    ]
    assert len(basis) == grid.n_nodes * dim
    bases = [S2.tangent_basis(v) for v in u.values]
    for i in range(grid.n_nodes):
        for j in range(dim):
            f = basis[i * dim + j]
            for k, x in enumerate(grid.lagrange_nodes):
                expected = bases[i][j] if k == i else np.zeros(3)
                q, vec = f.evaluate(x)
                S2.check_tangent(q, vec)
                assert np.allclose(vec, expected, atol=1e-10)
    # arbitrary test function equals its nodal expansion
    rng = np.random.default_rng(12)
    vecs = random_field_vectors(S2, u.values, rng)
    eta = GlobalTestFunction(u, vecs)
    coeffs = [bases[i].reshape(dim, -1) @ vecs[i].reshape(-1) for i in range(grid.n_nodes)]
    for _ in range(50):
        x = rng.uniform(0, 1, size=1)
        expansion = np.zeros(3)
        for i in range(grid.n_nodes):
            for j in range(dim):
                expansion += coeffs[i][j] * basis[i * dim + j].evaluate(x)[1]
        q, vec = eta.evaluate(x)
        S2.check_tangent(q, vec)
        assert np.linalg.norm(vec - expansion) <= 1e-12


# ----------------------------------------------------------------------
# VTK export


def test_vtk_output_structure(tmp_path):
    grid = unit_square_grid(1, 2)
    u = sphere_function(grid, seed=13)
    rng = np.random.default_rng(14)
    vecs = random_field_vectors(S2, u.values, rng)
    eta = GlobalTestFunction(u, vecs)
    path = tmp_path / "out.vtk"
    write_vtk(path, u, field=eta)
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert "DATASET UNSTRUCTURED_GRID" in lines
    assert f"POINTS {grid.n_nodes} double" in lines
    assert f"CELL_TYPES {grid.n_elements}" in lines
    idx = lines.index(f"CELL_TYPES {grid.n_elements}")
    assert lines[idx + 1] == "22"  # quadratic triangle
    assert f"POINT_DATA {grid.n_nodes}" in lines
    assert any(line.startswith("VECTORS testfield double") for line in lines)
    # deterministic output
    path2 = tmp_path / "out2.vtk"
    write_vtk(path2, u, field=eta)
    assert path.read_text() == path2.read_text()


def test_vtk_writes_nan_for_a_rotation_at_the_half_turn(tmp_path):
    # 1e-9 from the half-turn is within the cut-locus slack of 1e-8, 1e-7 is not
    SO3 = gfe.Rotation3()
    grid = unit_interval_grid(2, 1)
    turns = [0.0, np.pi - 1e-9, np.pi - 1e-7]
    values = np.array([[[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]]
                       for t in turns])
    u = GFEFunction(grid, SO3, "projection", values)
    path = tmp_path / "rot.vtk"
    write_vtk(path, u)
    lines = path.read_text().splitlines()
    k = lines.index(f"POINTS {grid.n_nodes} double")
    assert lines[k + 1] == "0 0 0"
    assert lines[k + 2] == "nan nan nan"
    last = np.array([float(t) for t in lines[k + 3].split()])
    assert np.max(np.abs(last - [0.0, 0.0, np.pi - 1e-7])) <= 1e-10


def test_vtk_rotation_axis_embedding(tmp_path):
    grid = unit_interval_grid(2, 1)
    SO3 = gfe.Rotation3()
    values = random_configuration(SO3, grid.n_nodes, np.random.default_rng(15), radius=0.4)
    u = GFEFunction(grid, SO3, "projection", values)
    path = tmp_path / "rot.vtk"
    write_vtk(path, u)
    lines = path.read_text().splitlines()
    k = lines.index(f"POINTS {grid.n_nodes} double")
    first = np.array([float(t) for t in lines[k + 1].split()])
    assert first.shape == (3,)


@pytest.mark.parametrize("man", [S2, gfe.Rotation3(), gfe.Euclidean(1)], ids=lambda m: m.kind)
def test_vtk_rows_match_per_node_formatting(tmp_path, man):
    # the node-by-node embedding and per-scalar formatting that the array writer replaced
    from gfe.kernels import _logm_rotation, _vee

    def point3(value):
        if man.kind != "rotation3":
            return np.concatenate([np.ravel(value), np.zeros(3)])[:3]
        log, angle = _logm_rotation(value)
        return np.full(3, np.nan) if angle > np.pi - 1e-8 else _vee(log)

    def vector3(base, vec):
        if man.kind != "rotation3":
            return np.concatenate([np.ravel(vec), np.zeros(3)])[:3]
        S = base.T @ vec
        return _vee(0.5 * (S - S.T))

    grid = unit_square_grid(2, 2)
    rng = np.random.default_rng(16)
    values = random_configuration(man, grid.n_nodes, rng, radius=2.5)
    if man.kind == "rotation3":     # one node at the half-turn, written as NaN
        t = np.pi - 1e-9
        values[3] = [[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]]
    u = GFEFunction(grid, man, "projection", values)
    vecs = np.array(random_field_vectors(man, values, rng, scale=3.0))
    path = tmp_path / "f.vtk"
    write_vtk(path, u, field=GlobalTestFunction(u, vecs))
    lines = path.read_text().splitlines()
    row = lambda v: " ".join(f"{x:.12g}" for x in v)   # noqa: E731
    k = lines.index(f"POINTS {grid.n_nodes} double") + 1
    assert lines[k: k + grid.n_nodes] == [row(point3(v)) for v in values]
    k = lines.index("VECTORS testfield double") + 1
    assert lines[k:] == [row(vector3(b, w)) for b, w in zip(values, vecs)]
    k = lines.index(f"CELLS {grid.n_elements} {7 * grid.n_elements}") + 1
    assert lines[k: k + grid.n_elements] == [row([6, *el[[0, 2, 5, 1, 4, 3]]]) for el in grid.element_nodes]
    assert ("nan nan nan" in lines) == (man.kind == "rotation3")
