import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfe
from gfe.cli import _csv_lines, _read_nodal_values, _relaxed_start, main, write_nodal_csv
from gfe.grid import unit_interval_grid, unit_square_grid, write_mesh
from gfe.sampling import random_configuration
from helpers import corrupt_d_dv_all, gauss_seidel_start, node_neighbors

S2 = gfe.Sphere(2)


def write_interval_mesh(path, n_elements, vertices=None):
    if vertices is None:
        vertices = np.linspace(0.0, 1.0, n_elements + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n_elements), np.arange(1, n_elements + 1)])
    write_mesh(path, 1, vertices, elements)


def env_with_gfe() -> dict:
    """The environment of a child process that imports the gfe this suite imports."""
    src = str(Path(gfe.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_bc(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for idx, coords in rows:
            fh.write(f"{idx}," + ",".join(f"{x:.17g}" for x in coords) + "\n")


# ----------------------------------------------------------------------
# nodal CSV helpers


def test_nodal_csv_roundtrip(tmp_path):
    path = tmp_path / "vals.csv"
    values = np.random.default_rng(0).standard_normal((4, 3))
    write_nodal_csv(path, values)
    _, data = _read_nodal_values(path, gfe.Euclidean(3), 4)
    for i in range(4):
        assert np.array_equal(data[i], values[i])


SPECIAL_VALUES = np.array([[-0.0, 1e-300, 1.0], [3.0, -2.5e-17, 0.1], [np.pi, -1e300, 5e-324]])


def test_nodal_csv_bytes_match_per_scalar_formatting(tmp_path):
    path = tmp_path / "vals.csv"
    write_nodal_csv(path, SPECIAL_VALUES)
    # the one-f-string-per-numpy-scalar formatting the writer replaced
    old = "".join(f"{i}," + ",".join(f"{x:.17g}" for x in np.asarray(v).reshape(-1)) + "\n"
                  for i, v in enumerate(SPECIAL_VALUES))
    assert path.read_text() == old


def test_sample_rows_match_per_scalar_formatting():
    # the rows of interpolate: element, reference point, value, with numpy indices
    els = np.array([0, 7, 12])
    old = "".join(",".join([str(e)] + [f"{x:.17g}" for x in row]) + "\n"
                  for e, row in zip(els, SPECIAL_VALUES))
    assert _csv_lines(els, SPECIAL_VALUES) == old


# ----------------------------------------------------------------------
# interpolate


def test_interpolate_constant_data(tmp_path):
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 2)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(i, [1.0, 0.0, 0.0]) for i in range(3)])
    out = tmp_path / "out.csv"
    code = main([
        "--command", "interpolate", "--manifold", "sphere2", "--rule", "geodesic",
        "--order", "1", "--mesh", str(mesh), "--bc", str(bc), "--out", str(out),
    ])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert len(rows) == 22  # 11 samples per element
    for row in rows:
        assert np.allclose([float(t) for t in row[2:]], [1.0, 0.0, 0.0], atol=1e-15)


def test_interpolate_geodesic_uniform_arc_angles(tmp_path):
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 1)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(0, [1.0, 0.0, 0.0]), (1, [0.0, 1.0, 0.0])])
    out = tmp_path / "out.csv"
    code = main([
        "--command", "interpolate", "--manifold", "sphere2", "--rule", "geodesic",
        "--order", "1", "--mesh", str(mesh), "--bc", str(bc), "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11
    angles = []
    for line in lines:
        vals = np.array([float(t) for t in line.split(",")[2:]])
        angles.append(np.arctan2(vals[1], vals[0]))
    steps = np.diff(sorted(angles))
    assert np.max(np.abs(steps - steps[0])) <= 1e-8


def test_interpolate_antipodal_projection_exits_2(tmp_path, capsys):
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 1)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(0, [1.0, 0.0, 0.0]), (1, [-1.0, 0.0, 0.0])])
    out = tmp_path / "out.csv"
    code = main([
        "--command", "interpolate", "--manifold", "sphere2", "--rule", "projection",
        "--order", "1", "--mesh", str(mesh), "--bc", str(bc), "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "projection undefined" in err
    assert "element 0" in err


def test_interpolate_names_the_one_failing_element(tmp_path, capsys):
    # elements 0 and 1 span a quarter turn each; element 2 has antipodal nodes
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 3)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(0, [1.0, 0.0, 0.0]), (1, [0.0, 1.0, 0.0]), (2, [1.0, 0.0, 0.0]), (3, [-1.0, 0.0, 0.0])])
    code = main([
        "--command", "interpolate", "--manifold", "sphere2", "--rule", "projection",
        "--mesh", str(mesh), "--bc", str(bc), "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: element 2: projection undefined")


@pytest.mark.parametrize("manifold", ["sphere2", "so3"])
@pytest.mark.parametrize("rule", ["geodesic", "projection"])
def test_interpolate_in_blocks_writes_the_bytes_of_one_batch(tmp_path, monkeypatch, manifold, rule):
    # 18 order-2 elements of 66 samples each: blocks of 50 split elements, 10**6 is one batch
    man = {"sphere2": S2, "so3": gfe.Rotation3()}[manifold]
    grid = unit_square_grid(3, 2)
    write_mesh(tmp_path / "m.mesh", 2, grid.vertices, grid.elements)
    values = random_configuration(man, grid.n_nodes, np.random.default_rng(8))
    write_bc(tmp_path / "all.csv", enumerate(values.reshape(grid.n_nodes, -1)))
    outputs = []
    for block in (50, 10**6):
        monkeypatch.setattr(gfe.cli, "_BLOCK", block)
        out = tmp_path / f"out_{block}.csv"
        assert main([
            "--command", "interpolate", "--manifold", manifold, "--rule", rule, "--order", "2",
            "--mesh", str(tmp_path / "m.mesh"), "--bc", str(tmp_path / "all.csv"), "--out", str(out),
        ]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 18 * 66


def test_interpolate_failing_in_a_later_block_writes_no_file(tmp_path, capsys, monkeypatch):
    # element 2's antipodal nodes have no projection at its sample 5, sample 27 overall: block 3 of 7
    monkeypatch.setattr(gfe.cli, "_BLOCK", 7)
    write_interval_mesh(tmp_path / "m.mesh", 3)
    write_bc(tmp_path / "bc.csv", [(0, [1.0, 0.0, 0.0]), (1, [0.0, 1.0, 0.0]), (2, [1.0, 0.0, 0.0]),
                                   (3, [-1.0, 0.0, 0.0])])
    code = main([
        "--command", "interpolate", "--manifold", "sphere2", "--rule", "projection",
        "--mesh", str(tmp_path / "m.mesh"), "--bc", str(tmp_path / "bc.csv"), "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: element 2: projection undefined")
    assert not (tmp_path / "o.csv").exists()


def test_interpolate_missing_node_values_rejected(tmp_path, capsys):
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 2)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(0, [1.0, 0.0, 0.0])])
    code = main([
        "--command", "interpolate", "--manifold", "sphere2",
        "--mesh", str(mesh), "--bc", str(bc), "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 2


def test_interpolate_names_the_element_whose_values_spread_too_wide(tmp_path, capsys):
    # element 1 spans 0.95 pi, past the geodesic rule's 0.9 pi limit
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 3)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(i, [np.cos(t), np.sin(t), 0.0]) for i, t in enumerate(np.pi * np.array([0.0, 0.3, 1.25, 1.5]))])
    code = main([
        "--command", "interpolate", "--manifold", "sphere2", "--rule", "geodesic",
        "--mesh", str(mesh), "--bc", str(bc), "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: element 1: nodal values spread")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["interpolate", "minimize"])
@pytest.mark.parametrize("missing", ["--mesh", "--bc", "--out"])
def test_a_missing_file_flag_exits_2(tmp_path, capsys, command, missing):
    flags = {"--mesh": "m.mesh", "--bc": "bc.csv", "--out": "o.csv"}
    argv = [x for flag, name in flags.items() if flag != missing for x in (flag, str(tmp_path / name))]
    assert main(["--command", command] + argv) == 2
    assert capsys.readouterr().err == f"error: {command} needs --mesh, --bc and --out\n"


def assert_one_error_line(capsys, path):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: {path}: ")
    return err


def test_interpolate_non_unit_sphere_value_exits_2(tmp_path, capsys):
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 2)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(0, [1.0, 0.0, 0.0]), (1, [2.0, 0.0, 0.0]), (2, [0.0, 1.0, 0.0])])
    code = main([
        "--command", "interpolate", "--manifold", "sphere2",
        "--mesh", str(mesh), "--bc", str(bc), "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 2
    assert "node 1" in assert_one_error_line(capsys, bc)


@pytest.mark.parametrize("bad_vertex", [3, -1])
def test_mesh_vertex_index_out_of_range_exits_2(tmp_path, capsys, bad_vertex):
    mesh = tmp_path / "m.mesh"
    mesh.write_text(f"gfe-mesh 1\n3\n0.0\n0.5\n1.0\n2\n0 1\n1 {bad_vertex}\n")
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(i, [1.0, 0.0, 0.0]) for i in range(3)])
    code = main([
        "--command", "interpolate", "--manifold", "sphere2",
        "--mesh", str(mesh), "--bc", str(bc), "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 2
    assert "element 1" in assert_one_error_line(capsys, mesh)


@pytest.mark.parametrize("mesh_text, csv_text, broken", [
    ("gfe-mesh 1\n3\n0.0\n0.5\n", "0,1,0,0\n1,0,1,0\n", "m.mesh"),  # 3 vertices announced, 2 listed
    ("gfe-mesh 1\n2\n0.0\n1.0\n1\n0 1\n", "0,1,0,0\n1,0,1,x\n", "bc.csv"),  # a word for a number
])
def test_unparsable_input_exits_2(tmp_path, capsys, mesh_text, csv_text, broken):
    (tmp_path / "m.mesh").write_text(mesh_text)
    (tmp_path / "bc.csv").write_text(csv_text)
    code = main([
        "--command", "interpolate", "--manifold", "sphere2", "--mesh", str(tmp_path / "m.mesh"),
        "--bc", str(tmp_path / "bc.csv"), "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 2
    assert_one_error_line(capsys, tmp_path / broken)


def run_with(tmp_path, command, mesh_text, csv_rows):
    mesh = tmp_path / "m.mesh"
    mesh.write_text(mesh_text)
    bc = tmp_path / "bc.csv"
    write_bc(bc, csv_rows)
    code = main([
        "--command", command, "--manifold", "sphere2",
        "--mesh", str(mesh), "--bc", str(bc), "--out", str(tmp_path / "o.csv"),
    ])
    return code, mesh, bc


@pytest.mark.parametrize("command", ["interpolate", "minimize"])
def test_csv_listing_a_node_twice_exits_2(tmp_path, capsys, command):
    rows = [(0, [1.0, 0.0, 0.0]), (1, [0.0, 1.0, 0.0]), (2, [0.0, 0.0, 1.0]), (1, [1.0, 0.0, 0.0])]
    code, _, bc = run_with(tmp_path, command, "gfe-mesh 1\n3\n0.0\n0.5\n1.0\n2\n0 1\n1 2\n", rows)
    assert code == 2
    err = assert_one_error_line(capsys, bc)
    assert "line 4" in err and "node 1" in err and "twice" in err
    assert not (tmp_path / "o.csv").exists()


def test_minimize_with_a_boundary_csv_without_rows_exits_2(tmp_path, capsys):
    code, _, _ = run_with(tmp_path, "minimize", "gfe-mesh 1\n3\n0.0\n0.5\n1.0\n2\n0 1\n1 2\n", [])
    assert code == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'bc.csv'}: boundary CSV fixes no nodes\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["interpolate", "minimize"])
def test_mesh_without_elements_exits_2(tmp_path, capsys, command):
    code, mesh, _ = run_with(tmp_path, command, "gfe-mesh 1\n2\n0.0\n1.0\n0\n",
                             [(0, [1.0, 0.0, 0.0]), (1, [0.0, 1.0, 0.0])])
    assert code == 2
    assert "no elements" in assert_one_error_line(capsys, mesh)
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["interpolate", "minimize"])
def test_degenerate_element_names_the_mesh_file(tmp_path, capsys, command):
    code, mesh, _ = run_with(tmp_path, command, "gfe-mesh 1\n3\n0.0\n0.5\n0.5\n2\n0 1\n1 2\n",
                             [(i, [1.0, 0.0, 0.0]) for i in range(3)])
    assert code == 2
    assert "element 1 has non-positive orientation" in assert_one_error_line(capsys, mesh)


@pytest.mark.parametrize("command", ["interpolate", "minimize"])
def test_degenerate_element_names_its_line(tmp_path, capsys, command):
    # comments and blank lines shift the rows; the flipped second triangle is on line 12
    mesh = ("gfe-mesh 2\n# unit square\n4\n0 0\n1 0\n1 1\n0 1\n\n2  # elements\n"
            "0 1 2\n# the next one is clockwise\n0 3 2\n")
    code, path, _ = run_with(tmp_path, command, mesh, [(i, [1.0, 0.0, 0.0]) for i in range(4)])
    assert code == 2
    err = assert_one_error_line(capsys, path)
    assert err.startswith(f"error: {path}: line 12: element 1 has non-positive orientation")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["interpolate", "minimize"])
def test_unused_vertex_names_the_mesh_file(tmp_path, capsys, command):
    code, mesh, _ = run_with(tmp_path, command, "gfe-mesh 1\n3\n0\n1\n2\n1\n0 1\n",
                             [(0, [1.0, 0.0, 0.0]), (1, [0.0, 1.0, 0.0])])
    assert code == 2
    assert "vertex 2 belongs to no element" in assert_one_error_line(capsys, mesh)
    assert not (tmp_path / "o.csv").exists()


REPEATED_ELEMENTS = {
    1: ("gfe-mesh 1\n3\n0\n0.5\n1\n3\n0 1\n1 2\n1 2\n", "line 9: element 2 repeats the vertices of element 1"),
    2: ("gfe-mesh 2\n4\n0 0\n1 0\n1 1\n0 1\n3\n0 1 2\n0 2 3\n2 0 1\n",
        "line 10: element 2 repeats the vertices of element 0"),
}


@pytest.mark.parametrize("command", ["interpolate", "minimize"])
@pytest.mark.parametrize("dim", [1, 2])
def test_repeated_element_names_its_line(tmp_path, capsys, command, dim):
    # counted twice, the 1d element gave minimize the value pi^2/6 for pi^2/8, with exit 0
    mesh_text, message = REPEATED_ELEMENTS[dim]
    code, mesh, _ = run_with(tmp_path, command, mesh_text, [(0, [1.0, 0.0, 0.0]), (dim + 1, [0.0, 1.0, 0.0])])
    assert code == 2
    assert capsys.readouterr().err == f"error: {mesh}: {message}\n"
    assert not (tmp_path / "o.csv").exists()


def run_interpolate_on_text(tmp_path, mesh_text, csv_text):
    (tmp_path / "m.mesh").write_text(mesh_text)
    (tmp_path / "bc.csv").write_text(csv_text)
    return main([
        "--command", "interpolate", "--manifold", "sphere2", "--mesh", str(tmp_path / "m.mesh"),
        "--bc", str(tmp_path / "bc.csv"), "--out", str(tmp_path / "o.csv"),
    ])


GOOD_MESH = "gfe-mesh 1\n# three vertices\n3\n0.0\n0.5\n1.0\n2\n0 1\n1 2\n"
GOOD_CSV = "0,1,0,0\n1,0,1,0\n2,0,0,1\n"


def test_mesh_vertex_index_error_names_the_line(tmp_path, capsys):
    code = run_interpolate_on_text(tmp_path, GOOD_MESH.replace("1 2\n", "1 3\n"), GOOD_CSV)
    assert code == 2
    err = assert_one_error_line(capsys, tmp_path / "m.mesh")
    assert "line 9: element 1 has a vertex index outside 0..2" in err


def test_mesh_parse_error_names_the_line(tmp_path, capsys):
    code = run_interpolate_on_text(tmp_path, GOOD_MESH.replace("0.5", "x"), GOOD_CSV)
    assert code == 2
    err = assert_one_error_line(capsys, tmp_path / "m.mesh")
    assert "line 5: malformed mesh: could not convert string to float: 'x'" in err


@pytest.mark.parametrize("mesh_text, line", [
    (GOOD_MESH.replace("\n3\n", "\n-1\n"), 3),        # vertex count
    (GOOD_MESH.replace("\n2\n", "\n-2\n"), 7),        # element count
], ids=["vertices", "elements"])
def test_mesh_negative_count_names_the_line(tmp_path, capsys, mesh_text, line):
    code = run_interpolate_on_text(tmp_path, mesh_text, GOOD_CSV)
    assert code == 2
    err = assert_one_error_line(capsys, tmp_path / "m.mesh")
    assert f"line {line}: malformed mesh: negative count" in err


@pytest.mark.parametrize("dim", [0, -1, 3])
def test_mesh_header_dimension_outside_1_and_2_names_line_1(tmp_path, capsys, dim):
    code = run_interpolate_on_text(tmp_path, GOOD_MESH.replace("gfe-mesh 1", f"gfe-mesh {dim}"), GOOD_CSV)
    assert code == 2
    assert capsys.readouterr().err == (f"error: {tmp_path / 'm.mesh'}: line 1: malformed mesh: "
                                       f"dimension must be 1 or 2, got {dim}\n")


def test_csv_value_off_the_manifold_names_the_line(tmp_path, capsys):
    csv_text = "# nodes\n" + GOOD_CSV.replace("2,0,0,1", "2,2,0,0")
    code = run_interpolate_on_text(tmp_path, GOOD_MESH, csv_text)
    assert code == 2
    err = assert_one_error_line(capsys, tmp_path / "bc.csv")
    assert "line 4: node 2: sphere point is not unit length" in err


def test_so3_value_that_is_not_orthogonal_names_its_line(tmp_path, capsys):
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 1)
    bc = tmp_path / "bc.csv"
    bc.write_text("0,1,0,0,0,1,0,0,0,1\n# stretched\n1,1,0,0,0,1,0,0,0,1.5\n")
    code = main(["--command", "interpolate", "--manifold", "so3", "--mesh", str(mesh), "--bc", str(bc),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {bc}: line 3: node 1: matrix is not orthogonal within 1e-10\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("broken, line", [("m.mesh", 2), ("bc.csv", 3)])
def test_input_that_is_not_utf8_names_its_file_and_line(tmp_path, capsys, broken, line):
    texts = {"m.mesh": GOOD_MESH.encode(), "bc.csv": GOOD_CSV.encode()}
    texts[broken] = texts[broken].replace({"m.mesh": b"three", "bc.csv": b"2,0"}[broken], b"\xff2,0")
    for name, text in texts.items():
        (tmp_path / name).write_bytes(text)
    code = main([
        "--command", "interpolate", "--manifold", "sphere2", "--mesh", str(tmp_path / "m.mesh"),
        "--bc", str(tmp_path / "bc.csv"), "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 2
    assert f"line {line}: not UTF-8 text (byte 0xff)" in assert_one_error_line(capsys, tmp_path / broken)


@pytest.mark.parametrize("command", ["interpolate", "minimize"])
@pytest.mark.parametrize("cause", ["missing directory", "directory"])
def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys, command, cause):
    out = tmp_path / "missing" / "o.csv" if cause == "missing directory" else tmp_path
    rows = [(0, [1.0, 0.0, 0.0]), (1, [0.0, 1.0, 0.0]), (2, [0.0, 0.0, 1.0])]
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 2)
    bc = tmp_path / "bc.csv"
    write_bc(bc, rows if command == "interpolate" else rows[::2])
    code = main(["--command", command, "--mesh", str(mesh), "--bc", str(bc), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {out}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bc.csv", "m.mesh"]


def test_interpolate_and_minimize_load_neither_numpy_ma_nor_numpy_random(tmp_path):
    # each costs a CLI child 8-20 ms at start-up
    write_interval_mesh(tmp_path / "m.mesh", 2)
    write_bc(tmp_path / "all.csv", [(0, [1.0, 0.0, 0.0]), (1, [0.0, 1.0, 0.0]), (2, [0.0, 0.0, 1.0])])
    write_bc(tmp_path / "bc.csv", [(0, [1.0, 0.0, 0.0]), (2, [0.0, 0.0, 1.0])])
    script = (
        "import sys\n"
        "from gfe.cli import main\n"
        "codes = [main(['--command', c, '--mesh', 'm.mesh', '--bc', bc, '--out', c + '.csv'])\n"
        "         for c, bc in (('interpolate', 'all.csv'), ('minimize', 'bc.csv'))]\n"
        "print(codes, [m for m in ('numpy.ma', 'numpy.random') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env_with_gfe(),
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "[0, 0] []", proc.stderr


def test_cli_outputs_tool_writes_its_inputs(tmp_path, capsys):
    # tools/cli_outputs.py sets sys.path and sys.dont_write_bytecode, so it runs in a child
    tools = Path(__file__).resolve().parents[1] / "tools"
    src = Path(gfe.__file__).resolve().parents[1]
    script = (f"import json, sys; from pathlib import Path; sys.path.insert(0, {str(tools)!r}); "
              f"import cli_outputs; cli_outputs.write_inputs(Path({str(tmp_path)!r}), Path({str(src)!r})); "
              f"print(json.dumps(cli_outputs.ERROR_CASES))")
    proc = subprocess.run([sys.executable, "-c", script], env=env_with_gfe(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    error_cases = json.loads(proc.stdout)
    names = {"square.mesh"} | {f"{kind}_{m}_{p}.csv" for kind in ("all", "bc") for m in ("sphere2", "so3")
                               for p in (1, 2)}
    names |= {name for _, mesh, csv in error_cases.values() for name in (mesh, csv)}
    assert {p.name for p in tmp_path.iterdir()} == names
    for p in (1, 2):
        grid = gfe.Grid(*gfe.read_mesh(tmp_path / "square.mesh"), p)
        nodes, _ = _read_nodal_values(tmp_path / f"all_so3_{p}.csv", gfe.Euclidean(9), grid.n_nodes)
        assert len(nodes) == grid.n_nodes
        nodes, _ = _read_nodal_values(tmp_path / f"bc_sphere2_{p}.csv", gfe.Euclidean(3), grid.n_nodes)
        assert set(nodes.tolist()) == grid.boundary_nodes
    for command, mesh, csv in error_cases.values():     # each malformed input is refused
        assert main(["--command", command, "--mesh", str(tmp_path / mesh), "--bc", str(tmp_path / csv),
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


def test_ab_tools_give_both_sides_paths_of_equal_length(tmp_path):
    # the length of a run's paths alone moves its peak RSS and set-up time;
    # tools/cli_outputs.py takes its copies and run directories from the same helper
    tool = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
    spec = importlib.util.spec_from_file_location("ab_pairs", tool)
    ab_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_pairs)
    for root in (tmp_path, tmp_path / "runs"):
        dirs = ab_pairs.side_dirs(root)
        assert set(dirs) == {"base", "change"} and dirs["base"] != dirs["change"]
        assert len(str(dirs["base"])) == len(str(dirs["change"]))
        assert all(d.parent == root for d in dirs.values())


def test_minimize_scale_tool_reports_one_run(tmp_path):
    tool = Path(__file__).resolve().parents[1] / "tools" / "minimize_scale.py"
    proc = subprocess.run([sys.executable, str(tool), "2", "1", "geodesic"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["free_dofs"] == 2 and report["converged"] and report["iterations"] > 0
    assert report["wall_s"] > 0.0 and report["ru_maxrss_mb"] > 0.0 and report["traced_peak_mb"] > 0.0


def test_interpolate_scale_tool_reports_one_child(tmp_path):
    tool = Path(__file__).resolve().parents[1] / "tools" / "interpolate_scale.py"
    proc = subprocess.run([sys.executable, str(tool), "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["n"] == 1 and report["samples"] == 2 * 66 and len(report["sha256"]) == 64
    assert report["peak_mb"] > 0.0 and report["wall_s"] > 0.0


def test_call_counts_tool_reports_one_minimize(tmp_path):
    tool = Path(__file__).resolve().parents[1] / "tools" / "call_counts.py"
    proc = subprocess.run([sys.executable, str(tool)], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["total_calls"] > 0
    assert (report["center_solves"], report["newton_linearizations"], report["descent_iterations"]) == (3, 3, 3)
    assert isinstance(report["metric_calls"], int) and report["metric_calls"] > 0


def test_call_counts_tool_reports_the_warm_so3_memory(tmp_path):
    tool = Path(__file__).resolve().parents[1] / "tools" / "call_counts.py"
    proc = subprocess.run([sys.executable, str(tool)], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert 0 < report["so3_peak_kb"] < 600
    assert 0 < report["so3_metric_peak_kb"] <= 1650


@pytest.mark.parametrize("bad_node", [9, -1])
def test_minimize_boundary_index_out_of_range_exits_2(tmp_path, capsys, bad_node):
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 4)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(0, [1.0, 0.0, 0.0]), (bad_node, [0.0, 1.0, 0.0])])
    code = main([
        "--command", "minimize", "--manifold", "sphere2",
        "--mesh", str(mesh), "--bc", str(bc), "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 2
    assert f"node index {bad_node}" in assert_one_error_line(capsys, bc)


def minimize_with_a_half_turn_on_the_last_element(tmp_path, rule, n_elements):
    """CLI minimize on an SO(3) interval mesh whose nodal values are the
    identity, but for the last node, a half-turn about e_z away from it."""
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, n_elements)
    bc = tmp_path / "bc.csv"
    turn = np.pi - 1e-12
    write_bc(bc, [(i, np.eye(3).ravel()) for i in range(n_elements)] + [
        (n_elements, [np.cos(turn), -np.sin(turn), 0.0, np.sin(turn), np.cos(turn), 0.0, 0.0, 0.0, 1.0])])
    return main([
        "--command", "minimize", "--manifold", "so3", "--rule", rule,
        "--mesh", str(mesh), "--bc", str(bc), "--out", str(tmp_path / "o.csv"),
    ])


@pytest.mark.parametrize("rule, message", [
    ("geodesic", "at the half-turn"), ("projection", "projection undefined"),
])
def test_minimize_start_the_rule_cannot_evaluate_exits_2(tmp_path, capsys, rule, message):
    # two rotations about e_z a half-turn apart, on one element
    code = minimize_with_a_half_turn_on_the_last_element(tmp_path, rule, 1)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: element 0: ") and message in err


@pytest.mark.parametrize("rule, message", [
    ("geodesic", "rotation angle 3.141593 is (numerically) at the half-turn"),
    ("projection", "projection undefined: weighted rotation sum has det ="),
])
def test_minimize_names_the_one_element_it_cannot_start_on(tmp_path, capsys, rule, message):
    # elements 0 and 1 hold the identity twice; element 2 spans the half-turn
    code = minimize_with_a_half_turn_on_the_last_element(tmp_path, rule, 3)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: element 2: {message}")


def test_minimize_descent_error_exits_3(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise gfe.errors.SingularSystemError("H^1 metric is singular at descent iteration 0")

    monkeypatch.setattr(gfe.cli, "minimize", singular)
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 2)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(0, [1.0, 0.0, 0.0]), (2, [0.0, 1.0, 0.0])])
    code = main([
        "--command", "minimize", "--manifold", "sphere2",
        "--mesh", str(mesh), "--bc", str(bc), "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 3
    assert capsys.readouterr().err == "error: H^1 metric is singular at descent iteration 0\n"


def test_unexpected_exception_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("something\nwent wrong")

    monkeypatch.setattr(gfe.cli, "cmd_interpolate", broken)
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 2)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(i, [1.0, 0.0, 0.0]) for i in range(3)])
    code = main([
        "--command", "interpolate", "--manifold", "sphere2",
        "--mesh", str(mesh), "--bc", str(bc), "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "error: internal: RuntimeError: something went wrong\n"
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# audit


def test_audit_euclidean_is_tight(capsys):
    code = main(["--command", "audit", "--manifold", "euclidean", "--seed", "42"])
    assert code == 0
    out = capsys.readouterr().out
    for line in out.splitlines()[1:]:
        parts = line.split()
        assert float(parts[1]) <= 1e-8
        assert parts[-1] == "ok"


@pytest.mark.parametrize("manifold", ["sphere2", "so3"])
@pytest.mark.parametrize("rule", ["geodesic", "projection"])
def test_audit_curved_passes(manifold, rule, capsys):
    code = main([
        "--command", "audit", "--manifold", manifold, "--rule", rule, "--seed", "42",
    ])
    out = capsys.readouterr().out
    assert code == 0, out


def test_audit_corrupted_ddv_exits_1(capsys, monkeypatch):
    with monkeypatch.context() as mp:
        corrupt_d_dv_all(mp)
        code = main(["--command", "audit", "--manifold", "sphere2", "--seed", "42"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    # the corruption stays local to that run
    assert main(["--command", "audit", "--manifold", "sphere2", "--seed", "42"]) == 0


# ----------------------------------------------------------------------
# minimize


def test_minimize_flat_laplace(tmp_path, capsys):
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 4)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(0, [0.0]), (4, [1.0])])
    out = tmp_path / "sol.csv"
    code = main([
        "--command", "minimize", "--manifold", "euclidean", "--rule", "geodesic",
        "--order", "1", "--mesh", str(mesh), "--bc", str(bc), "--out", str(out),
        "--tol", "1e-7", "--max-iter", "500",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    report = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    assert abs(float(report["value"]) - 0.5) <= 1e-10
    assert report["converged"] == "true"
    _, data = _read_nodal_values(out, gfe.Euclidean(1), 5)
    for i in range(5):
        assert abs(data[i][0] - i / 4) <= 1e-6
    assert (tmp_path / "sol_u.vtk").exists()
    assert (tmp_path / "sol_phi.vtk").exists()


def test_minimize_great_circle_benchmark(tmp_path, capsys):
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 8)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(0, [1.0, 0.0, 0.0]), (8, [0.0, 1.0, 0.0])])
    out = tmp_path / "sol.csv"
    code = main([
        "--command", "minimize", "--manifold", "sphere2", "--rule", "geodesic",
        "--order", "1", "--mesh", str(mesh), "--bc", str(bc), "--out", str(out),
        "--tol", "1e-6", "--max-iter", "500",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    report = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    assert abs(float(report["value"]) - 0.5 * (np.pi / 2) ** 2) <= 1e-6
    _, data = _read_nodal_values(out, gfe.Euclidean(3), 9)
    for i in range(9):
        angle = (i / 8) * (np.pi / 2)
        expected = np.array([np.cos(angle), np.sin(angle), 0.0])
        assert np.max(np.abs(data[i] - expected)) <= 1e-6


def test_minimize_2d_square(tmp_path, capsys):
    from gfe.grid import unit_square_grid, write_mesh

    grid = unit_square_grid(2, 1)
    mesh = tmp_path / "sq.mesh"
    write_mesh(mesh, 2, grid.vertices, grid.elements)
    bc = tmp_path / "bc.csv"
    rows = []
    for i in sorted(grid.boundary_nodes):
        x, y = grid.lagrange_nodes[i]
        w = np.array([1.0, 0.35 * x + 0.1 * y**2, 0.3 * y - 0.2 * x * y])
        rows.append((i, w / np.linalg.norm(w)))
    write_bc(bc, rows)
    out = tmp_path / "sol.csv"
    code = main([
        "--command", "minimize", "--manifold", "sphere2", "--mesh", str(mesh),
        "--bc", str(bc), "--out", str(out), "--tol", "1e-8", "--max-iter", "200",
    ])
    assert code == 0
    report = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line
    )
    assert report["converged"] == "true"
    assert float(report["gradient_norm"]) <= 1e-8
    # interior solution is a unit vector and the boundary rows round-trip
    _, data = _read_nodal_values(out, gfe.Euclidean(3), grid.n_nodes)
    for i, w in rows:
        assert np.array_equal(data[i], w)
    for i in range(grid.n_nodes):
        assert abs(np.linalg.norm(data[i]) - 1.0) <= 1e-12
    assert (tmp_path / "sol_u.vtk").exists() and (tmp_path / "sol_phi.vtk").exists()


def test_minimize_so3_line_is_constant_speed_rotation(tmp_path, capsys):
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 4)

    def rot_z(a):
        c, s = np.cos(a), np.sin(a)
        return np.array([c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0])

    bc = tmp_path / "bc.csv"
    write_bc(bc, [(0, rot_z(0.0)), (4, rot_z(1.2))])
    out = tmp_path / "rot.csv"
    code = main([
        "--command", "minimize", "--manifold", "so3", "--mesh", str(mesh),
        "--bc", str(bc), "--out", str(out), "--tol", "1e-7", "--max-iter", "300",
    ])
    assert code == 0
    report = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line
    )
    # one-parameter subgroup at constant speed sqrt(2)*1.2 over unit length
    assert abs(float(report["value"]) - 0.5 * 2.0 * 1.2**2) <= 1e-9
    _, data = _read_nodal_values(out, gfe.Euclidean(9), 5)
    for i in range(5):
        Q = data[i].reshape(3, 3)
        angle = np.arctan2(Q[1, 0], Q[0, 0])
        assert abs(angle - 0.3 * i) <= 1e-7


def test_minimize_is_deterministic(tmp_path):
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 4)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(0, [1.0, 0.0, 0.0]), (4, [0.0, 1.0, 0.0])])
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main([
            "--command", "minimize", "--manifold", "sphere2", "--mesh", str(mesh),
            "--bc", str(bc), "--out", str(out), "--tol", "1e-6", "--seed", "7",
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_minimize_line_search_failure_exits_3(tmp_path, capsys):
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 2, vertices=np.array([[0.0], [0.3], [1.0]]))
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(0, [0.0]), (2, [1.0])])
    code = main([
        "--command", "minimize", "--manifold", "euclidean", "--mesh", str(mesh),
        "--bc", str(bc), "--out", str(tmp_path / "s.csv"),
        "--tol", "1e-30", "--max-iter", "10000",
    ])
    assert code == 3
    assert "step underflow" in capsys.readouterr().err


def test_tol_must_be_positive(capsys):
    code = main(["--command", "audit", "--tol", "0"])
    assert code == 2


def test_seed_must_not_be_negative(capsys):
    # np.random.default_rng refuses it, which would read as a fault of gfe (exit 4)
    code = main(["--command", "audit", "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: --seed must not be negative\n"


@pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "-1e-8"), ("--tol", "inf"),
                                         ("--max-iter", "-3")])
def test_minimize_refuses_a_bad_stopping_rule_before_reading(tmp_path, capsys, flag, value):
    mesh = tmp_path / "m.mesh"
    write_interval_mesh(mesh, 2)
    bc = tmp_path / "bc.csv"
    write_bc(bc, [(0, [1.0, 0.0, 0.0]), (2, [0.0, 1.0, 0.0])])
    code = main([
        "--command", "minimize", "--manifold", "sphere2", "--mesh", str(mesh),
        "--bc", str(bc), "--out", str(tmp_path / "o.csv"), f"{flag}={value}",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} must ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bc.csv", "m.mesh"]


# ----------------------------------------------------------------------
# the starting guess of minimize

START_GRIDS = [(4, 1), (4, 2), (8, 1)]


def boundary_data(man, grid, seed=0):
    """random_configuration(radius=0.3) at the boundary nodes, flat as the CSV reader gives it."""
    values = random_configuration(man, grid.n_nodes, np.random.default_rng(seed), radius=0.3)
    return {i: man._flat(values[i]) for i in sorted(grid.boundary_nodes)}


@pytest.mark.parametrize("man", [S2, gfe.Rotation3()], ids=["sphere2", "so3"])
@pytest.mark.parametrize("n_side, order", START_GRIDS)
def test_start_is_a_fixed_point_of_projected_averaging(man, n_side, order):
    grid = unit_square_grid(n_side, order)
    data = boundary_data(man, grid)
    values = _relaxed_start(grid, man, list(data), list(data.values()))
    assert values.shape == (grid.n_nodes,) + man.point_shape
    for i in set(data):
        assert np.array_equal(man._flat(values[i]), data[i])
    for i, nbrs in enumerate(node_neighbors(grid)):
        if i not in data:
            target = man.project_point(values[nbrs].mean(axis=0))
            assert np.linalg.norm(values[i] - target) <= 2e-6


@pytest.mark.parametrize("man", [S2, gfe.Rotation3()], ids=["sphere2", "so3"])
@pytest.mark.parametrize("n_side, order", START_GRIDS)
def test_start_agrees_with_the_gauss_seidel_reference(man, n_side, order):
    grid = unit_square_grid(n_side, order)
    data = boundary_data(man, grid)
    start = _relaxed_start(grid, man, list(data), list(data.values()))
    assert np.abs(start - gauss_seidel_start(grid, man, data)).max() <= 1e-5


def test_start_keeps_the_value_of_a_node_whose_average_has_no_projection():
    # the mean of the ends and the middle node's average both vanish: the seed falls
    # back to the first fixed value, and the middle node keeps it on every sweep
    ex = np.array([1.0, 0.0, 0.0])
    values = _relaxed_start(unit_interval_grid(2, 1), S2, [0, 2], [ex, -ex])
    assert np.array_equal(values, [ex, ex, -ex])


def test_start_does_not_depend_on_the_order_of_the_rows():
    grid = unit_square_grid(4, 2)
    nodes, values = map(np.array, zip(*boundary_data(S2, grid).items()))
    shuffled = np.random.default_rng(1).permutation(len(nodes))
    assert np.array_equal(_relaxed_start(grid, S2, nodes[shuffled], values[shuffled]),
                          _relaxed_start(grid, S2, nodes, values))


def test_start_projects_all_free_nodes_in_one_call_per_sweep(monkeypatch):
    calls = []
    real = gfe.Sphere.project_point

    def counting(self, w):
        calls.append(None)
        return real(self, w)

    monkeypatch.setattr(gfe.Sphere, "project_point", counting)
    grid = unit_square_grid(8, 2)
    data = boundary_data(S2, grid)
    _relaxed_start(grid, S2, list(data), list(data.values()))
    assert 0 < len(calls) <= 201   # the seed, then at most 200 sweeps


# ----------------------------------------------------------------------
# fuzzed mesh and CSV input


FUZZ_MESHES = {
    1: "gfe-mesh 1\n# a refined middle\n4\n0\n0.25\n0.5\n1\n3\n0 1\n1 2\n2 3\n",
    2: "gfe-mesh 2\n5\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n4\n0 1 4\n1 2 4\n2 3 4\n3 0 4\n",
}
FUZZ_VALUES = [[1.0, 0.0, 0.0], [0.8, 0.6, 0.0], [0.6, 0.8, 0.0], [0.0, 0.8, 0.6], [0.6, 0.0, 0.8]]
FUZZ_FIXED = {1: [0, 3], 2: [0, 1, 2, 3]}   # the boundary nodes: node 4 of the 2d mesh is free


def fuzz_csv(dim, command):
    nodes = range(5 if dim == 2 else 4) if command == "interpolate" else FUZZ_FIXED[dim]
    return "".join(f"{i}," + ",".join(repr(x) for x in FUZZ_VALUES[i]) + "\n" for i in nodes)


@st.composite
def mutations(draw, text, sep):
    """text with one to three of: a truncated line, two swapped fields (or
    lines), a field replaced by a bad count or index, a NaN or an inf."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, len(lines) - 1))
        fields = lines[n].split(sep)
        kind = draw(st.sampled_from(["truncate", "swap", "number", "nonfinite"]))
        if kind == "truncate":
            lines[n] = lines[n][: draw(st.integers(0, max(len(lines[n]) - 1, 0)))]
            continue
        if kind == "swap":
            if len(fields) < 2:
                m = draw(st.integers(0, len(lines) - 1))
                lines[n], lines[m] = lines[m], lines[n]
                continue
            i, j = draw(st.lists(st.integers(0, len(fields) - 1), min_size=2, max_size=2, unique=True))
            fields[i], fields[j] = fields[j], fields[i]
        else:
            k = draw(st.integers(0, len(fields) - 1))
            fields[k] = draw(
                st.sampled_from(["-1", "0", "5", "9", "100000000", "1.5"]) if kind == "number"
                else st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"])
            )
        lines[n] = sep.join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.data())
@pytest.mark.parametrize("command", ["interpolate", "minimize"])
@pytest.mark.parametrize("dim", [1, 2])
def test_mutated_input_exits_0_or_2_with_one_error_line(command, dim, data):
    """A valid mesh and CSV, mutated: the command either writes finite output
    or exits 2 with exactly one ``error:`` line; no exception escapes.  A
    mutation can also leave a well-formed problem whose descent stalls at
    the line-search floor: minimize's documented exit 3, with one line."""
    mesh_text = FUZZ_MESHES[dim]
    csv_text = fuzz_csv(dim, command)
    if data.draw(st.booleans(), label="mutate the mesh"):
        mesh_text = data.draw(mutations(mesh_text, " "), label="mesh")
    else:
        csv_text = data.draw(mutations(csv_text, ","), label="csv")
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        tmp = Path(tmp)
        (tmp / "m.mesh").write_text(mesh_text)
        (tmp / "bc.csv").write_text(csv_text)
        code = main([
            "--command", command, "--manifold", "sphere2", "--mesh", str(tmp / "m.mesh"),
            "--bc", str(tmp / "bc.csv"), "--out", str(tmp / "o.csv"),
        ])
        out = (tmp / "o.csv").read_text() if code == 0 else ""
    assert code in (0, 2) or (code == 3 and command == "minimize")
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
    if code == 3:
        assert err.getvalue().startswith("error: step underflow")
    assert "nan" not in out and "inf" not in out
