"""Spans around the calls into each gfe module, recorded from outside gfe.

``Recorder.installed()`` replaces, for the duration of a ``with`` block:

- every public method of the classes in ``CLASSES``, at the class, plus the
  constructors and ``GeodesicInterpolant._solve``, the only place where the
  Newton iteration count is visible;
- every public function wherever a gfe module bound it, which covers the
  names ``gfe.cli`` imports and the calls gfe.energy makes to itself;
- the private layer boundaries in ``EXTRA_BINDINGS``.

A span is named ``<layer>.<Class>.<method>`` or ``<layer>.<function>``,
where the layer is the gfe module that defines the code.  The one exception
is ``grid.karcher_check``: the name gfe.grid binds, counted as the grid's
revalidation.  Each span records its name, start, end, parent span and
operation id in flat arrays; nothing leaves memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from array import array
from types import FunctionType

import numpy as np

from gfe import cli, energy, geodesic, grid, jacobi, manifold, projection, sampling, vtkio

MODULES = (manifold, geodesic, projection, jacobi, grid, energy, cli, vtkio, sampling)
CLASSES = (
    (manifold, (manifold.Manifold, manifold.Euclidean, manifold.Sphere, manifold.Rotation3)),
    (geodesic, (geodesic.GeodesicInterpolant,)),
    (projection, (projection.ProjectionInterpolant,)),
    (jacobi, (jacobi.ElementTestField,)),
    (grid, (grid.Grid, grid.GFEFunction, grid.GlobalTestFunction)),
)
PRIVATE_METHODS = ("__init__", "_solve")
EXTRA_BINDINGS = (
    (energy, "_basis_ref_gradients", "jacobi._basis_ref_gradients"),
    (grid, "karcher_check", "grid.karcher_check"),
    (cli, "_relaxed_start", "cli._relaxed_start"),
)
# spans that also keep a number taken from their return value
RESULT_VALUES = {
    "geodesic.GeodesicInterpolant._solve": lambda sol: sol.iterations,
    "energy.minimize": lambda out: out[1].iterations,
}


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def bindings():
    """(owner, attribute, span name) for everything to wrap."""
    extra = {(id(owner), attr) for owner, attr, _ in EXTRA_BINDINGS}
    out = [b for b in EXTRA_BINDINGS if b[1] in vars(b[0])]
    for module, classes in CLASSES:
        for cls in classes:
            for attr, fn in vars(cls).items():
                if isinstance(fn, FunctionType) and (
                    not attr.startswith("_") or attr in PRIVATE_METHODS
                ):
                    out.append((cls, attr, f"{_layer(module.__name__)}.{cls.__name__}.{attr}"))
    for module in MODULES:
        for attr, fn in vars(module).items():
            if (
                isinstance(fn, FunctionType)
                and not attr.startswith("_")
                and fn.__module__.startswith("gfe.")
                and (id(module), attr) not in extra
            ):
                out.append((module, attr, f"{_layer(fn.__module__)}.{attr}"))
    return out


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.values: dict[int, int] = {}
        self.op_id = 0
        self._stack = [-1]

    def _wrapper(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        name_id, start, end, parent, op = self.name_id, self.start, self.end, self.parent, self.op
        stack, values, clock = self._stack, self.values, time.perf_counter_ns
        value_of = RESULT_VALUES.get(span)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(rec.op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if value_of is not None:
                values[idx] = value_of(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, op_id: int = 0):
        """Wrap the gfe calls for the duration of the block."""
        self.op_id = op_id
        originals, wrappers = [], {}
        try:
            for owner, attr, span in bindings():
                fn = vars(owner)[attr]
                key = (fn, span)
                if key not in wrappers:
                    wrappers[key] = self._wrapper(span, fn)
                originals.append((owner, attr, fn))
                setattr(owner, attr, wrappers[key])
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    # ------------------------------------------------------------------

    def write(self, path) -> None:
        """The spans as JSON lines, gzip-compressed; times in ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(
                    f'{{"name":"{self.names[self.name_id[i]]}","start":{self.start[i]},'
                    f'"end":{self.end[i]},"parent":{self.parent[i]},"op":{self.op[i]}}}\n'
                )

    def layer_metrics(self, qp_per_gradient: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the recorded spans, name -> (value, unit)."""
        nid = np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        covered = np.zeros(len(dur), dtype=np.int64)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        self_ns = dur - covered
        layer = np.array([n.split(".", 1)[0] for n in self.names], dtype=str)[nid]
        method = np.array([n.rsplit(".", 1)[-1] for n in self.names], dtype=str)[nid]

        def mask(*spans):
            ids = [i for i, n in enumerate(self.names) if n in spans]
            return np.isin(nid, ids)

        def count(m) -> int:
            return int(np.count_nonzero(m))

        def total_s(m) -> float:
            return float(dur[m].sum()) / 1e9

        def pct_us(m, q=50.0) -> float:
            return float(np.percentile(dur[m], q)) / 1e3 if m.any() else 0.0

        def layer_self_s(name) -> float:
            return float(self_ns[layer == name].sum()) / 1e9

        out: dict[str, tuple[float, str]] = {}
        for kernel in ("tangent_basis", "dist2_hess_q", "dist2_mixed", "log", "exp", "project_point"):
            m = (layer == "manifold") & (method == kernel)
            out[f"manifold.{kernel}.calls"] = (count(m), "count")
            out[f"manifold.{kernel}.us"] = (pct_us(m), "us")
        out["manifold.check_point.calls"] = (count((layer == "manifold") & (method == "check_point")), "count")
        out["manifold.self_s"] = (layer_self_s("manifold"), "s")

        solve = mask("geodesic.GeodesicInterpolant._solve")
        gradient = mask("energy.algebraic_gradient")
        # parents precede their children, so one pass marks every descendant
        inside = gradient.tolist()
        for i, p in enumerate(parent.tolist()):
            inside[i] = inside[i] or (p >= 0 and inside[p])
        inside = np.array(inside, dtype=bool)
        qps = count(gradient) * qp_per_gradient
        iters = [self.values[i] for i in np.flatnonzero(solve)]
        out["geodesic.solves"] = (count(solve), "count")
        out["geodesic.solves_per_qp"] = (count(solve & inside) / qps if qps else 0.0, "solves/qp")
        out["geodesic.newton_iters_per_solve"] = (float(np.mean(iters)) if iters else 0.0, "iters/solve")
        out["geodesic.solve_us"] = (pct_us(solve), "us")
        out["geodesic.solve_us.p99"] = (pct_us(solve, 99.0), "us")
        out["geodesic.interpolants_built"] = (count(mask("geodesic.GeodesicInterpolant.__init__")), "count")
        out["geodesic.self_s"] = (layer_self_s("geodesic"), "s")

        out["projection.calls"] = (count(layer == "projection"), "count")
        out["projection.self_s"] = (layer_self_s("projection"), "s")

        stencil = mask("jacobi._basis_ref_gradients")
        out["jacobi.stencils"] = (count(stencil), "count")
        out["jacobi.stencil_us"] = (pct_us(stencil), "us")
        out["jacobi.self_s"] = (layer_self_s("jacobi"), "s")

        out["grid.functions_built"] = (count(mask("grid.GFEFunction.__init__")), "count")
        out["grid.karcher_checks"] = (count(mask("grid.karcher_check")), "count")
        out["grid.self_s"] = (layer_self_s("grid"), "s")

        descent = mask("energy.minimize")
        descent_iters = sum(self.values.get(i, 0) for i in np.flatnonzero(descent))
        trials = count(mask("grid.GFEFunction.with_values") & np.isin(parent, np.flatnonzero(descent)))
        out["energy.energy_evals"] = (count(mask("energy.dirichlet_energy")), "count")
        out["energy.gradient_evals"] = (count(gradient), "count")
        out["energy.energy_eval_s"] = (pct_us(mask("energy.dirichlet_energy")) / 1e6, "s")
        out["energy.gradient_eval_s"] = (pct_us(gradient) / 1e6, "s")
        out["energy.descent_iters"] = (descent_iters, "count")
        out["energy.trials_per_iter"] = (trials / descent_iters if descent_iters else 0.0, "trials/iter")
        out["energy.accept_ratio"] = (descent_iters / trials if trials else 0.0, "ratio")
        out["energy.rejected_trials"] = (trials - descent_iters, "count")
        out["energy.self_s"] = (layer_self_s("energy"), "s")

        out["cli.read_s"] = (total_s(mask("grid.read_mesh", "cli.read_nodal_csv")), "s")
        out["cli.start_s"] = (total_s(mask("cli._relaxed_start")), "s")
        out["cli.write_s"] = (total_s(mask("cli.write_nodal_csv", "vtkio.write_vtk")), "s")
        out["cli.self_s"] = (layer_self_s("cli"), "s")
        out["vtkio.write_s"] = (total_s(mask("vtkio.write_vtk")), "s")
        return out
