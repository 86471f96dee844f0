"""Command-line front end.

Three commands, selected with --command:

interpolate
    Read a mesh and a full set of nodal values (CSV: node index followed by
    embedding coordinates), evaluate the chosen interpolation rule on a
    fixed lattice of reference points per element, in blocks of a fixed
    number of samples, and write the samples as CSV rows
    ``element, xi..., value...``.  Exits 2 on admissibility or projection
    failures, naming the offending element on stderr, and writes no file then.

audit
    Generate a seeded random nodal configuration, then check the nodal
    derivative matrices against finite differences, the test fields against
    the variation property, and the two routes to the energy's first
    variation against each other.  Prints one table row per check and exits
    1 when any of them breaches its tolerance (1e-4, 1e-4, 5e-4).

minimize
    Read a mesh and Dirichlet data (CSV rows for the fixed nodes; at least
    one, since the descent metric is singular without a fixed node), build
    a starting guess by projected neighbor averaging (all free nodes at once,
    in Jacobi sweeps, up to 200 of them, until no node moves by 1e-6), run
    Newton descent on the discrete index form (the H^1 metric of the test
    space minus the curvature term; the H^1 metric where that is not
    positive definite; one dense linear solve per iteration, memory growing
    as the square of the free degrees of freedom; quadratic convergence on
    smooth data, linear on rough data), write the final nodal values as CSV
    plus VTK files of the solution and of one nodal basis test field, then
    print the energy report as key=value lines.  Exits 2 when the
    rule cannot evaluate the starting guess (a cut locus, an undefined
    projection), naming the element, and 3 when the descent fails (the
    line search, a singular metric), each with one ``error: ...`` line.

Any other exception is a fault of gfe, not of its input: one
``error: internal: <Type>: <message>`` line and exit code 4, no traceback.
Identical flags and seed produce byte-identical output files.  Malformed
input (a mesh or CSV that cannot be read, is not UTF-8 text or holds a NaN
or an infinity, a mesh without elements, with a degenerate element, with an
element that repeats the vertices of an earlier one or with a vertex that
belongs to no element, an index out of range or listed twice, a value off
the manifold) and an ``--out`` that cannot be written (in a missing
directory, or a directory) are reported as one ``error: <file>: ...`` line
with exit code 2 and no report; faults the file readers find, and a
degenerate or repeated element, name the line as well.  Both commands read
their CSV with one function, ``_read_nodal_values``, into an array of nodes
and one of values, in file order.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .energy import _scatter, dirichlet_energy, equivalence_audit, minimize
from .errors import GFEError
from .grid import _RULES, GFEFunction, GlobalTestFunction, Grid, _finite_float, _text_rows, read_mesh
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
_FD_STEP = 1e-5     # of the finite-difference oracles
# samples per Newton batch and per write of interpolate: they bound its memory (about 2.4 KB a
# sample), and a block pays the lockstep passes of its slowest point, so blocks are not small
_BLOCK = 4096


# ----------------------------------------------------------------------
# CSV helpers


def _read_nodal_values(path, man, n_nodes: int):
    """(nodes, values) of the CSV rows ``index, c1, ..., cN``, in file order: each index a node of
    the grid, listed once, and each value a point of man, of shape (len(nodes), *man.point_shape)."""
    first_line: dict[int, int] = {}     # node -> its line, in file order
    values = []
    for lineno, parts in _text_rows(path, ","):
        where = f"{path}: line {lineno}"
        if len(parts) != man.embed_dim + 1:
            raise ValueError(f"{where}: expected {man.embed_dim + 1} comma-separated fields, got {len(parts)}")
        try:
            index = int(parts[0])
            value = np.array([_finite_float(t) for t in parts[1:]]).reshape(man.point_shape)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if index in first_line:
            raise ValueError(f"{where}: node {index} is listed twice (first on line {first_line[index]})")
        if not 0 <= index < n_nodes:
            raise ValueError(f"{where}: node index {index} is outside 0..{n_nodes - 1}")
        try:
            man.check_point(value)
        except ValueError as exc:
            raise ValueError(f"{where}: node {index}: {exc}") from None
        first_line[index] = lineno
        values.append(value)
    return np.array(list(first_line), dtype=int), np.reshape(values, (len(values),) + man.point_shape)


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


def _error(message, code: int = 2) -> int:
    """Print ``error: <message>`` as the one line on stderr; returns the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_interpolate(args) -> int:
    man = _MANIFOLDS[args.manifold]()
    try:
        grid = _read_grid(args.mesh, args.order)
        nodes, values = _read_nodal_values(args.bc, man, grid.n_nodes)
    except (OSError, ValueError) as exc:
        return _error(exc)
    missing = np.flatnonzero(np.bincount(nodes, minlength=grid.n_nodes) == 0).tolist()
    if missing:
        return _error(f"nodal values missing for nodes {missing}")

    by_node = np.empty_like(values)     # a scatter: the first numpy sort of a process pages in its kernels
    by_node[nodes] = values
    try:
        u = GFEFunction(grid, man, args.rule, by_node)
    except GFEError as exc:
        return _error(exc)
    xis = _sample_points(grid.dim)
    els, k = grid._pairs(len(xis))
    blocks = [slice(start, start + _BLOCK) for start in range(0, len(els), _BLOCK)]
    q = np.empty((len(els), man.embed_dim))
    try:
        for b in blocks:    # a batch's centers are its points' bit for bit, so blocks change no byte
            q[b] = man._flat(u.local(els[b]).eval(xis[k[b]]))
    except GFEError as exc:
        where = "" if exc.point is None else f"element {els[b][exc.point]}: "
        return _error(f"{where}{exc}")
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            for b in blocks:
                fh.write(_csv_lines(els[b], np.hstack([xis[k[b]], q[b]])))
    except OSError as exc:
        return _error(f"{exc.filename}: {exc.strerror}")
    return 0


def _audit_sample_xis(elem: ReferenceElement, rng) -> list[np.ndarray]:
    center = elem.nodes.mean(axis=0)
    return [center] + [0.4 * center + 0.6 * rng.dirichlet(np.ones(elem.dim + 1))[1:] for _ in range(2)]


def fd_variation(interp, vecs, xi):
    """The variation of eval(xi) when every node moves along exp(t * vecs[i]).

    Central differences, tangentially projected at q = eval(xi); returns
    (q, derivative), the derivative with any leading axes of vecs (sets of
    directions).  A finite-difference oracle for the test fields.
    """
    man = interp.manifold
    vecs = np.asarray(vecs, dtype=float)
    moved = man.exp(interp.values, _FD_STEP * np.stack([vecs, -vecs]))
    stacked = type(interp)(interp.elem, moved.reshape((-1,) + interp.values.shape), man, _checked=True)
    qp, qm = stacked.eval(xi).reshape(moved.shape[: moved.ndim - interp.values.ndim] + man.point_shape)
    q0 = interp.eval(xi)
    return q0, man.project_tangent(q0, (qp - qm) / (2.0 * _FD_STEP))


def fd_d_dv(interp, xi, i: int) -> np.ndarray:
    """Central differences of eval along exp curves through nodal value i.

    A finite-difference oracle for matrix i of ``d_dv_all``: fd_variation with
    node i alone moving along each of its tangent basis vectors, in the basis
    at eval(xi).
    """
    man = interp.manifold
    basis = man.tangent_basis(interp.values[i])
    vecs = np.zeros((len(basis),) + interp.values.shape)
    vecs[:, i] = basis
    q0, fd = fd_variation(interp, vecs, xi)
    return man._flat(man.tangent_basis(q0)) @ man._flat(fd).T


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

    rows = list(zip(("d_dv_vs_fd", "variation_property", "equivalence"), (e_ddv, e_var, e_eq), _AUDIT_TOLS))
    print(f"{'check':<22}{'max_error':>14}{'tolerance':>12}  status")
    for name, err, tol in rows:
        print(f"{name:<22}{err:>14.3e}{tol:>12.1e}  {'ok' if err <= tol else 'FAIL'}")
    return 0 if all(err <= tol for _, err, tol in rows) else 1


def _relaxed_start(grid: Grid, man, fixed, data) -> np.ndarray:
    """Projected neighbor averaging from the Dirichlet data, in Jacobi sweeps: data[r] is the value at
    node fixed[r], for an index array fixed in any order."""
    n, k = grid.n_nodes, man.embed_dim
    free = np.bincount(fixed, minlength=n) == 0
    # the distinct pairs (i, j != i) of nodes sharing an element, from the sorted keys i*n + j
    keys = np.sort((grid.element_nodes[:, :, None] * n + grid.element_nodes[:, None, :]).ravel())
    i, j = np.divmod(keys[np.r_[True, keys[1:] != keys[:-1]]], n)
    i, j = i[i != j], j[i != j]
    slots, counts = i[:, None] * k + np.arange(k), np.bincount(i, minlength=n)[free, None]

    values = np.empty((n, k))
    values[fixed] = np.reshape(data, (len(fixed), k))
    data = values[~free]    # by node, so the start does not depend on the order of the rows
    mean = data.mean(axis=0)
    values[free] = man._flat(man.project_point(mean)) if man._projectable(mean) else data[0]
    for _ in range(200):
        avg = _scatter(slots, values[j], n, k)[free] / counts
        ok = man._projectable(avg)
        new = values[free]
        new[ok] = man._flat(man.project_point(avg[ok]))
        move = np.linalg.norm(new - values[free], axis=1).max(initial=0.0)
        values[free] = new
        if move < 1e-6:
            break
    return values.reshape((n,) + man.point_shape)


def cmd_minimize(args) -> int:
    man = _MANIFOLDS[args.manifold]()
    try:
        grid = _read_grid(args.mesh, args.order)
        fixed, data = _read_nodal_values(args.bc, man, grid.n_nodes)
        if not len(fixed):
            raise ValueError(f"{args.bc}: boundary CSV fixes no nodes")
        u0 = GFEFunction(grid, man, args.rule, _relaxed_start(grid, man, fixed, data))
        dirichlet_energy(u0)    # kept with u0, so minimize solves no more
    except (OSError, ValueError, GFEError) as exc:
        return _error(exc)
    try:
        u, report = minimize(u0, fixed=fixed, max_iter=args.max_iter, tol=args.tol)
    except GFEError as exc:
        return _error(exc, 3)

    # the nodal basis function carrying tangent_basis(u_i)[0] at the first free node i (node 0 if none)
    i = int((np.bincount(fixed, minlength=grid.n_nodes) == 0).argmax())
    vecs = np.zeros_like(u.values)
    vecs[i] = man.tangent_basis(u.values[i])[0]
    phi = GlobalTestFunction(u, vecs)
    stem = str(args.out).removesuffix(".csv")
    try:
        write_nodal_csv(args.out, u.values)
        write_vtk(stem + "_u.vtk", u, title="minimizer")
        write_vtk(stem + "_phi.vtk", u, field=phi, title="nodal basis test field")
    except OSError as exc:
        return _error(f"{exc.filename}: {exc.strerror}")

    print(f"value={report.value:.17g}")
    print(f"gradient_norm={report.gradient_norm:.17g}")
    print(f"iterations={report.iterations}")
    print(f"converged={'true' if report.converged else 'false'}")
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
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not 0.0 < args.tol < np.inf:  # NaN too
        return _error("--tol must be positive and finite")
    for flag, value in (("--max-iter", args.max_iter), ("--seed", args.seed)):
        if value < 0:   # np.random.default_rng refuses a negative seed
            return _error(f"{flag} must not be negative")
    if args.command != "audit" and not (args.mesh and args.bc and args.out):
        return _error(f"{args.command} needs --mesh, --bc and --out")
    command = {"audit": cmd_audit, "interpolate": cmd_interpolate, "minimize": cmd_minimize}[args.command]
    try:
        return command(args)
    except Exception as exc:    # a fault of gfe, not of the input: one line, exit 4
        return _error(f"internal: {type(exc).__name__}: {' '.join(str(exc).split())}", 4)


if __name__ == "__main__":
    sys.exit(main())
