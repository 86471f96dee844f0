"""Command-line front end.

Three commands, selected with --command:

interpolate
    Read a mesh and a full set of nodal values (CSV: node index followed by
    embedding coordinates), evaluate the chosen interpolation rule on a
    fixed lattice of reference points per element, and write the samples as
    CSV rows ``element, xi..., value...``.  Exits 2 on admissibility or
    projection failures, naming the offending element on stderr.

audit
    Generate a seeded random nodal configuration, then check the nodal
    derivative matrices against finite differences, the test fields against
    the variation property, and the two routes to the energy's first
    variation against each other.  Prints one table row per check and exits
    1 when any of them breaches its tolerance (1e-4, 1e-4, 5e-4).

minimize
    Read a mesh and Dirichlet data (CSV rows for the fixed nodes; at least
    one, since the descent metric is singular without a fixed node), build
    a starting guess by projected neighbor averaging, run Newton descent on
    the discrete index form (the H^1 metric of the test space minus the
    curvature term; the H^1 metric where that is not positive definite;
    one dense linear solve per iteration, memory growing as the square of
    the free degrees of freedom; quadratic convergence on smooth data,
    linear on rough data), print the energy report as key=value
    lines, and write the final nodal values as CSV plus VTK files of the
    solution and of one nodal basis test field.  Exits 3 when the line
    search fails.

Identical flags and seed produce byte-identical output files.  Malformed
input (a mesh or CSV that cannot be read or holds a NaN or an infinity, a
mesh without elements, with a degenerate element or with a vertex that
belongs to no element, an index out of range or listed twice, a value off
the manifold) is reported as one
``error: <file>: ...`` line with exit code 2; faults the file readers find,
and a degenerate element, name the line as well.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .energy import equivalence_audit, minimize
from .errors import GFEError, LineSearchFailure, ProjectionUndefinedError
from .grid import _RULES, GFEFunction, GlobalTestFunction, Grid, _batches, _finite_float, read_mesh
from .jacobi import ElementTestField
from .manifold import Euclidean, Rotation3, Sphere
from .reference_element import ReferenceElement
from .sampling import random_configuration, random_tangent
from .vtkio import write_vtk

_MANIFOLDS = {
    "euclidean": lambda: Euclidean(1),
    "sphere2": lambda: Sphere(2),
    "so3": lambda: Rotation3(),
}

_AUDIT_TOLS = (1e-4, 1e-4, 5e-4)


# ----------------------------------------------------------------------
# CSV helpers


def _nodal_rows(path, embed_dim: int):
    """(line, index, coordinates) per CSV row ``index, c1, ..., cN``; an index may appear once."""
    first_line: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [t.strip() for t in line.split(",")]
            if len(parts) != embed_dim + 1:
                raise ValueError(
                    f"{path}: line {lineno}: expected {embed_dim + 1} comma-separated fields, "
                    f"got {len(parts)}"
                )
            try:
                index = int(parts[0])
                coords = np.array([_finite_float(t) for t in parts[1:]])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if index in first_line:
                raise ValueError(
                    f"{path}: line {lineno}: node {index} is listed twice "
                    f"(first on line {first_line[index]})"
                )
            first_line[index] = lineno
            yield lineno, index, coords


def read_nodal_csv(path, embed_dim: int) -> dict[int, np.ndarray]:
    """CSV rows ``index, c1, ..., cN`` -> {index: coordinates}; an index may appear once."""
    return {index: coords for _, index, coords in _nodal_rows(path, embed_dim)}


def _read_nodal_values(path, man, n_nodes: int) -> dict[int, np.ndarray]:
    """read_nodal_csv, with every index a node of the grid and every value on man."""
    data = {}
    for lineno, index, value in _nodal_rows(path, man.embed_dim):
        where = f"{path}: line {lineno}"
        if not 0 <= index < n_nodes:
            raise ValueError(f"{where}: node index {index} is outside 0..{n_nodes - 1}")
        try:
            man.check_point(value.reshape(man.point_shape))
        except ValueError as exc:
            raise ValueError(f"{where}: node {index}: {exc}") from None
        data[index] = value
    return data


def _csv_lines(index, rows) -> str:
    """One line ``index,row...`` per row of the 2d float array rows, as %.17g."""
    line = "%d" + ",%.17g" * np.shape(rows)[1] + "\n"
    return "".join(line % (i, *row) for i, row in zip(np.asarray(index).tolist(), rows.tolist()))


def write_nodal_csv(path, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_lines(range(len(values)), np.reshape(values, (len(values), -1))))


def _read_grid(path, order: int) -> Grid:
    """read_mesh plus the Grid, whose errors name the file (and for a degenerate
    element the line)."""
    dim, vertices, elements, lines = read_mesh(path, lines=True)
    try:
        return Grid(dim, vertices, elements, order, element_lines=lines)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _sample_points(dim: int) -> np.ndarray:
    if dim == 1:
        return np.arange(11).reshape(-1, 1) / 10.0
    return np.array([[i / 10.0, j / 10.0] for i in range(11) for j in range(11 - i)])


# ----------------------------------------------------------------------
# commands


def cmd_interpolate(args) -> int:
    man = _MANIFOLDS[args.manifold]()
    try:
        grid = _read_grid(args.mesh, args.order)
        data = _read_nodal_values(args.bc, man, grid.n_nodes)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = [i for i in range(grid.n_nodes) if i not in data]
    if missing:
        print(f"error: nodal values missing for nodes {missing}", file=sys.stderr)
        return 2

    values = np.array([data[i].reshape(man.point_shape) for i in range(grid.n_nodes)])
    try:
        u = GFEFunction(grid, man, args.rule, values)
    except GFEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    xis = _sample_points(grid.dim)
    chunks = []
    pair_els, pair_xis = grid._pairs(len(xis))
    for b in _batches(len(pair_els)):
        els, k = pair_els[b], pair_xis[b]
        try:
            q = man._flat(u.local(els).eval(xis[k]))
        except GFEError:
            # name the first failing element, as an element-by-element loop would
            for e in np.unique(els):
                try:
                    u.local(e).eval(xis)
                except GFEError as exc:
                    print(f"error: element {e}: {exc}", file=sys.stderr)
                    return 2
            raise
        chunks.append(_csv_lines(els, np.hstack([xis[k], q])))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("".join(chunks))
    return 0


def _audit_sample_xis(elem: ReferenceElement, rng) -> list[np.ndarray]:
    center = elem.nodes.mean(axis=0)
    return [center] + [0.4 * center + 0.6 * rng.dirichlet(np.ones(elem.dim + 1))[1:] for _ in range(2)]


def fd_variation(interp, vecs, xi, h: float = 1e-5):
    """The variation of eval(xi) when every node moves along exp(t * vecs[i]).

    Central differences, tangentially projected at q = eval(xi); returns
    (q, derivative).  A finite-difference oracle for the test fields.
    """
    man = interp.manifold
    cls = type(interp)
    vecs = np.asarray(vecs, dtype=float)
    qp = cls(interp.elem, man.exp(interp.values, h * vecs), man).eval(xi)
    qm = cls(interp.elem, man.exp(interp.values, -h * vecs), man).eval(xi)
    q0 = interp.eval(xi)
    return q0, man.project_tangent(q0, (qp - qm) / (2.0 * h))


def fd_d_dv(interp, xi, i: int, h: float = 1e-5) -> np.ndarray:
    """Central differences of eval along exp curves through nodal value i.

    A finite-difference oracle for matrix i of ``d_dv_all``: fd_variation with
    node i alone moving along each of its tangent basis vectors, in the basis
    at eval(xi).
    """
    man = interp.manifold
    cols = []
    for b in man.tangent_basis(interp.values[i]):
        vecs = np.zeros_like(interp.values)
        vecs[i] = b
        q0, fd = fd_variation(interp, vecs, xi, h)
        cols.append(man._flat(man.tangent_basis(q0)) @ fd.reshape(-1))
    return np.stack(cols, axis=1)


def _audit_ddv_error(interp, xis) -> float:
    worst = 0.0
    for xi in xis:
        _, mats = interp.d_dv_all(xi)
        for i, M in enumerate(mats):
            M_fd = fd_d_dv(interp, xi, i)
            denom = max(np.linalg.norm(M_fd), 1e-6)
            worst = max(worst, np.linalg.norm(M - M_fd) / denom)
    return worst


def _audit_variation_error(interp, xis, rng) -> float:
    man = interp.manifold
    worst = 0.0
    for _ in range(2):
        vecs = [random_tangent(man, v, rng, scale=1.0) for v in interp.values]
        field = ElementTestField(interp, vecs)
        for xi in xis:
            _, fd = fd_variation(interp, vecs, xi)
            denom = max(np.linalg.norm(fd), 1e-6)
            worst = max(worst, np.linalg.norm(fd - field.eval_field(xi)[1]) / denom)
    return worst


def cmd_audit(args) -> int:
    man = _MANIFOLDS[args.manifold]()
    rng = np.random.default_rng(args.seed)
    elem = ReferenceElement(2, args.order)
    values = random_configuration(man, elem.m, rng, radius=0.3)
    interp = _RULES[args.rule](elem, values, man)
    if args.corrupt_ddv:  # negative control: shift entry (0, 0) of every nodal derivative
        exact = interp.d_dv_all

        def corrupted(xi, q0=None):
            q, mats = exact(xi, q0)
            mats = mats.copy()
            mats[:, 0, 0] += 1e-2
            return q, mats

        interp.d_dv_all = corrupted
    xis = _audit_sample_xis(elem, rng)

    e_ddv = _audit_ddv_error(interp, xis)
    e_var = _audit_variation_error(interp, xis, rng)

    square = Grid(
        2,
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0, 1, 2], [0, 2, 3]]),
        args.order,
    )
    grid_values = random_configuration(man, square.n_nodes, rng, radius=0.3)
    u = GFEFunction(square, man, args.rule, grid_values)
    e_eq = equivalence_audit(u, trials=20, seed=int(rng.integers(2**31)))

    rows = [
        ("d_dv_vs_fd", e_ddv, _AUDIT_TOLS[0]),
        ("variation_property", e_var, _AUDIT_TOLS[1]),
        ("equivalence", e_eq, _AUDIT_TOLS[2]),
    ]
    print(f"{'check':<22}{'max_error':>14}{'tolerance':>12}  status")
    failed = False
    for name, err, tol in rows:
        ok = err <= tol
        failed = failed or not ok
        print(f"{name:<22}{err:>14.3e}{tol:>12.1e}  {'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


def _relaxed_start(grid: Grid, man, fixed_values: dict[int, np.ndarray]) -> np.ndarray:
    """Projected neighbor averaging from the Dirichlet data."""
    n = grid.n_nodes
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for e in range(grid.n_elements):
        ids = grid.element_nodes[e]
        for a in ids:
            neighbors[a].update(int(b) for b in ids if b != a)

    values = np.empty((n,) + man.point_shape)
    fixed = sorted(fixed_values)
    mean_fixed = np.mean([fixed_values[i] for i in fixed], axis=0)
    try:
        seed_value = man.project_point(mean_fixed)
    except ProjectionUndefinedError:
        seed_value = fixed_values[fixed[0]].reshape(man.point_shape)
    for i in range(n):
        values[i] = fixed_values[i].reshape(man.point_shape) if i in fixed_values else seed_value

    free = [i for i in range(n) if i not in fixed_values]
    for _ in range(200):
        move = 0.0
        for i in free:
            avg = np.mean([values[j] for j in sorted(neighbors[i])], axis=0)
            try:
                new = man.project_point(avg)
            except ProjectionUndefinedError:
                continue
            move = max(move, float(np.linalg.norm(new - values[i])))
            values[i] = new
        if move < 1e-6:
            break
    return values


def cmd_minimize(args) -> int:
    man = _MANIFOLDS[args.manifold]()
    try:
        grid = _read_grid(args.mesh, args.order)
        data = _read_nodal_values(args.bc, man, grid.n_nodes)
        if not data:
            raise ValueError("boundary CSV fixes no nodes")
        u0 = GFEFunction(grid, man, args.rule, _relaxed_start(grid, man, data))
    except (OSError, ValueError, GFEError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        u, report = minimize(u0, fixed=set(data), max_iter=args.max_iter, tol=args.tol)
    except LineSearchFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    print(f"value={report.value:.17g}")
    print(f"gradient_norm={report.gradient_norm:.17g}")
    print(f"iterations={report.iterations}")
    print(f"converged={'true' if report.converged else 'false'}")

    write_nodal_csv(args.out, u.values)
    # the nodal basis function carrying tangent_basis(u_i)[0] at the first free node i
    i = next((i for i in range(grid.n_nodes) if i not in data), 0)
    vecs = np.zeros_like(u.values)
    vecs[i] = man.tangent_basis(u.values[i])[0]
    phi = GlobalTestFunction(u, vecs)
    stem = str(args.out)
    stem = stem[:-4] if stem.endswith(".csv") else stem
    write_vtk(stem + "_u.vtk", u, title="minimizer")
    write_vtk(stem + "_phi.vtk", u, field=phi, title="nodal basis test field")
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gfe",
        description="Manifold-valued finite element interpolation, audits, and harmonic maps.",
    )
    p.add_argument("--command", required=True, choices=("interpolate", "audit", "minimize"))
    p.add_argument("--manifold", default="sphere2", choices=sorted(_MANIFOLDS))
    p.add_argument("--rule", default="geodesic", choices=sorted(_RULES))
    p.add_argument("--order", type=int, default=1, choices=(1, 2))
    p.add_argument("--mesh", help="mesh file (gfe-mesh format)")
    p.add_argument("--bc", help="nodal value CSV (node index, embedding coordinates)")
    p.add_argument("--out", help="output path")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--corrupt-ddv", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.tol <= 0.0:
        print("error: --tol must be positive", file=sys.stderr)
        return 2
    if args.command == "audit":
        return cmd_audit(args)
    if not (args.mesh and args.bc and args.out):
        print(f"error: {args.command} needs --mesh, --bc and --out", file=sys.stderr)
        return 2
    return cmd_interpolate(args) if args.command == "interpolate" else cmd_minimize(args)


if __name__ == "__main__":
    sys.exit(main())
