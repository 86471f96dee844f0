"""Legacy ASCII VTK export of global functions and test fields.

Point positions are the embedded function values mapped to three components
(sphere values directly, rotations as axis-angle vectors, NaN within 1e-8
of a half-turn, flat values zero padded), so a viewer shows the image of
the function.  An optional test field is written as per-point 3-component
vector data (rotation tangents as the axis coordinates of Q^T W).
"""

from __future__ import annotations

import numpy as np

from .grid import GFEFunction, GlobalTestFunction
from .kernels import _logm_rotation, _near_cut, _vee
from .manifold import Euclidean, Rotation3, Sphere

# (dim, order) -> VTK cell type and local-node permutation
_CELLS = {
    (1, 1): (3, [0, 1]),             # line
    (1, 2): (21, [0, 2, 1]),         # quadratic edge: ends then midpoint
    (2, 1): (5, [0, 1, 2]),          # triangle
    (2, 2): (22, [0, 2, 5, 1, 4, 3]),  # quadratic triangle: corners, then mid 01/12/20
}


def _pad3(v) -> np.ndarray:
    return np.concatenate([np.ravel(v)[:3], np.zeros(3)])[:3].astype(float)


def _point3(manifold, value) -> np.ndarray:
    if isinstance(manifold, (Sphere, Euclidean)):
        return _pad3(value)
    if isinstance(manifold, Rotation3):
        log, angle = _logm_rotation(np.asarray(value, dtype=float))
        return np.full(3, np.nan) if _near_cut(angle) else _vee(log)
    raise TypeError(f"no VTK embedding for manifold kind {manifold.kind!r}")


def _vector3(manifold, base, vec) -> np.ndarray:
    if isinstance(manifold, (Sphere, Euclidean)):
        return _pad3(vec)
    if isinstance(manifold, Rotation3):
        S = np.asarray(base, dtype=float).T @ np.asarray(vec, dtype=float)
        return _vee(0.5 * (S - S.T))
    raise TypeError(f"no VTK embedding for manifold kind {manifold.kind!r}")


def write_vtk(
    path,
    u: GFEFunction,
    field: GlobalTestFunction | None = None,
    field_name: str = "testfield",
    title: str = "gfe output",
) -> None:
    """Write a function (and optionally a test field) as an unstructured grid."""
    grid = u.grid
    key = (grid.dim, grid.order)
    if key not in _CELLS:
        raise ValueError(f"no VTK cell for dim/order {key}")
    cell_type, perm = _CELLS[key]

    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {grid.n_nodes} double"]
    lines += [" ".join(f"{x:.12g}" for x in _point3(u.manifold, value)) for value in u.values]
    ne = grid.n_elements
    lines.append(f"CELLS {ne} {ne * (len(perm) + 1)}")
    lines += [" ".join(map(str, [len(perm), *nodes])) for nodes in grid.element_nodes[:, perm].tolist()]
    lines += [f"CELL_TYPES {ne}"] + [str(cell_type)] * ne
    if field is not None:
        lines += [f"POINT_DATA {grid.n_nodes}", f"VECTORS {field_name} double"]
        lines += [" ".join(f"{x:.12g}" for x in _vector3(u.manifold, base, vec))
                  for base, vec in zip(field.base.values, field.vectors)]

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
