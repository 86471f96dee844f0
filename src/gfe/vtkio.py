"""Legacy ASCII VTK export of global functions and test fields.

Point positions are the embedded function values mapped to three components
(sphere values directly, rotations as axis-angle vectors, NaN within 1e-8
of a half-turn, flat values zero padded), so a viewer shows the image of
the function.  An optional test field is written as per-point 3-component
vector data (rotation tangents as the axis coordinates of Q^T W).  Both are
formed as (n, 3) arrays over all nodes at once by ``_embedded3``, and every
row of numbers is formatted by ``grid._text_lines``, the formatter of every
text file gfe writes.
"""

from __future__ import annotations

import numpy as np

from .grid import GFEFunction, GlobalTestFunction, _text_lines
from .kernels import _logm_rotation, _near_cut, _skew_part, _vee
from .manifold import Rotation3

# (dim, order) -> VTK cell type and local-node permutation
_CELLS = {
    (1, 1): (3, [0, 1]),             # line
    (1, 2): (21, [0, 2, 1]),         # quadratic edge: ends then midpoint
    (2, 1): (5, [0, 1, 2]),          # triangle
    (2, 2): (22, [0, 2, 5, 1, 4, 3]),  # quadratic triangle: corners, then mid 01/12/20
}


def _embedded3(manifold, values, vectors=None) -> np.ndarray:
    """(n, 3) VTK components of the n values, or of the n tangent vectors based at them."""
    if isinstance(manifold, Rotation3):
        if vectors is not None:
            return _vee(_skew_part(np.swapaxes(values, -1, -2) @ vectors))
        log, angle = _logm_rotation(values)
        return np.where(_near_cut(angle)[:, None], np.nan, _vee(log))
    flat = manifold._flat(values if vectors is None else vectors)[:, :3]
    return np.pad(flat, ((0, 0), (0, 3 - flat.shape[1])))


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

    ne, n = grid.n_elements, grid.n_nodes
    cells = np.column_stack([np.full(ne, len(perm)), grid.element_nodes[:, perm]])
    text = (f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n"
            + _text_lines(_embedded3(u.manifold, u.values), "%.12g")
            + f"CELLS {ne} {cells.size}\n" + _text_lines(cells, "%d")
            + f"CELL_TYPES {ne}\n" + _text_lines(np.full((ne, 1), cell_type), "%d"))
    if field is not None:
        text += (f"POINT_DATA {n}\nVECTORS {field_name} double\n"
                 + _text_lines(_embedded3(u.manifold, field.base.values, field.vectors), "%.12g"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
