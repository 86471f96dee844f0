"""The four seeded workloads: inputs, one operation each, and output checks.

Every workload draws its inputs from ``numpy.random.default_rng(seed)`` in
its constructor, which is the set-up the benchmark times, and then runs
operations ``run(k)`` one at a time.  Operation k uses input case
``k % len(cases)``; a run makes at least ``min_ops`` operations.  On
descent-s2-1d the cases are stratified over the bump amplitude, which moves
the iteration count, so the median of a run depends little on the seed;
elsewhere they are independent draws of about equal cost.  Output checks run
after the timed region of every operation.  A failed check, an exception or
a non-zero exit counts the operation as failed; nothing is retried.  No
operation is expected to fail.  descent-s2-1d also runs a probe that records
a known defect; it is not an operation, and the one failure it may show is
the form the defect takes (``LineSearchFailure``).

Each operation is timed with ``speed.measured``, which also samples the
machine speed.  The library workloads call ``gfe`` through its submodules at
call time (``energy.minimize``, ...), so the wrappers of a traced run see the
calls.  The CLI workloads run ``gfe.cli.main(argv)`` in a fresh interpreter
(``cli_child.py``).  With ``for_trace`` set, as the traced run needs, the CLI
runs in this process and only the wall time is taken: no speed kernel runs
inside the spans.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import speed
from gfe import cli, energy, manifold
from gfe import grid as gridmod
from gfe.errors import LineSearchFailure

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD = Path(__file__).resolve().parent / "cli_child.py"
N_CASES = 4
AUDIT_TOL = 5e-4   # the tolerance of the equivalence audit in gfe.cli
FD_STEP = 1e-5     # the step of its central difference


@dataclass
class OpResult:
    time: speed.Measurement      # wall time of the operation alone, and machine speed
    failed: bool                 # raised, exited non-zero, or failed a check
    detail: str = ""
    rss_mb: float | None = None  # peak RSS of the child, CLI subprocesses only
    vtk_bytes: int = 0
    known_defect: bool = False   # failed the way the recorded defect does


def _checked(time: speed.Measurement, problems: list[str], **kw) -> OpResult:
    return OpResult(time, bool(problems), "; ".join(problems), **kw)


def _raised(time: speed.Measurement, exc: BaseException, **kw) -> OpResult:
    return OpResult(time, True, f"{type(exc).__name__}: {exc}", **kw)


# ----------------------------------------------------------------------
# seeded inputs, made with numpy alone so that a change to gfe cannot
# change them


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_rotation(rng) -> np.ndarray:
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _hat(w: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def _expm_hat(w: np.ndarray) -> np.ndarray:
    """Rodrigues' formula for exp(hat(w))."""
    theta = float(np.linalg.norm(w))
    if theta == 0.0:
        return np.eye(3)
    K = _hat(w / theta)
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def sphere_ball(rng, n: int, radius: float) -> np.ndarray:
    """n points of S^2 at geodesic distance below ``radius`` from a random center."""
    c = _unit(rng.standard_normal(3))
    d = rng.standard_normal((n, 3))
    d = _unit(d - np.outer(d @ c, c))
    t = rng.uniform(0.0, radius, n)[:, None]
    return _unit(np.cos(t) * c + np.sin(t) * d)


def so3_ball(rng, n: int, radius: float) -> np.ndarray:
    """n rotations at Frobenius distance below ``radius`` from a random center.

    The Frobenius distance of exp(hat(w)) from the identity is sqrt(2)|w|.
    """
    center = random_rotation(rng)
    out = np.empty((n, 3, 3))
    for i in range(n):
        w = _unit(rng.standard_normal(3)) * rng.uniform(0.0, radius) / math.sqrt(2.0)
        out[i] = center @ _expm_hat(w)
    return out


def stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw from each of n equal strata of [lo, hi), in seeded order."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return lo + (hi - lo) * rng.permutation(u)


# ----------------------------------------------------------------------
# library workloads


class DescentS2:
    """Library ``minimize`` on the quarter great circle, sphere, geodesic, order 1.

    The start is the chord from e_x to e_y plus an out-of-plane bump of
    amplitude in [0.1, 0.3], all under a seeded rotation R; the exact
    minimizer is R times the great circle.  Amplitude, which moves the
    iteration count, is stratified over the cases.
    """

    name = "descent-s2-1d"
    min_ops = 4   # one operation per amplitude stratum
    tol = 1e-6

    def __init__(self, seed: int, toy: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        self.n_elements = 2 if toy else 4
        self.sphere = manifold.Sphere(2)
        self.cases = [
            self._case(rng, a, self.n_elements, order=1) for a in stratified(rng, 0.1, 0.3, N_CASES)
        ]
        # Known defect, run once per run and reported, but not counted as an
        # operation (no counted operation may fail): order-2 geodesic descent
        # on this problem ends in LineSearchFailure instead of converging.  On
        # 2 elements it fails at iteration ~40 in ~4 s; on 4 elements only at
        # iteration ~200 in ~20 s, which the run's time budget cannot afford.
        self.probe_case = self._case(rng, rng.uniform(0.1, 0.3), 2, order=2)
        self.qp_per_gradient = 3 * self.n_elements

    def _case(self, rng, amplitude: float, n_elements: int, order: int):
        g = gridmod.unit_interval_grid(n_elements, order)
        R = random_rotation(rng)
        x = g.lagrange_nodes[:, 0]
        start = _unit(np.stack([1.0 - x, x, amplitude * np.sin(np.pi * x)], axis=1)) @ R.T
        a = 0.5 * np.pi * x
        exact = np.stack([np.cos(a), np.sin(a), np.zeros_like(a)], axis=1) @ R.T
        u0 = gridmod.GFEFunction(g, self.sphere, "geodesic", start)
        # at order 2 node n-1 is an edge midpoint, so fix the grid's boundary
        return u0, set(g.boundary_nodes), exact

    def _solve(self, case, for_trace=False, around=contextlib.nullcontext, probe=False) -> OpResult:
        u0, fixed, exact = case
        energies: list[float] = []
        error = None
        with around(), speed.measured(sample=not for_trace) as t:
            try:
                u, rep = energy.minimize(
                    u0, fixed, tol=self.tol, callback=lambda i, e, g: energies.append(e)
                )
            except Exception as exc:  # counted as failed, never retried
                error = exc
        if error is not None:
            # the probe's known defect, and no other failure, is expected
            return _raised(t, error, known_defect=probe and isinstance(error, LineSearchFailure))
        problems = []
        if not rep.converged:
            problems.append(f"not converged, gradient norm {rep.gradient_norm:.3e}")
        err = float(np.max(np.abs(u.values - exact)))
        if not err <= 1e-6:
            problems.append(f"max nodal error {err:.3e} > 1e-6")
        if not abs(rep.value - np.pi**2 / 8.0) <= 1e-6:
            problems.append(f"energy {rep.value!r} not within 1e-6 of pi^2/8")
        if any(b > a for a, b in zip(energies, energies[1:])):
            problems.append("callback energies not monotone")
        return _checked(t, problems)

    def run(self, k: int, for_trace: bool = False, around=contextlib.nullcontext) -> OpResult:
        return self._solve(self.cases[k % len(self.cases)], for_trace, around)

    def probes(self) -> list[OpResult]:
        return [self._solve(self.probe_case, probe=True)]


class AssemblySO3:
    """One ``dirichlet_energy`` plus one ``algebraic_gradient`` on SO(3), order 2.

    Geodesic rule on the 4x4 criss-cross grid (32 elements, 81 nodes); each
    case is a fresh radius-0.3 configuration.
    """

    name = "assembly-so3-2d"
    min_ops = 2   # a median of at least two

    def __init__(self, seed: int, toy: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        g = gridmod.unit_square_grid(1 if toy else 4, 2)
        so3 = manifold.Rotation3()
        self.fixed = sorted(g.boundary_nodes)
        self.cases = []
        for _ in range(N_CASES):
            u = gridmod.GFEFunction(g, so3, "geodesic", so3_ball(rng, g.n_nodes, 0.3))
            w = rng.standard_normal((g.n_nodes, 3))
            w[self.fixed] = 0.0
            # tangent directions Q_i hat(w_i), unit in the Frobenius norm
            w /= math.sqrt(2.0) * np.linalg.norm(w)
            self.cases.append((u, w))
        self.qp_per_gradient = 6 * g.n_elements

    def run(self, k: int, for_trace: bool = False, around=contextlib.nullcontext) -> OpResult:
        u, w = self.cases[k % len(self.cases)]
        error = None
        with around(), speed.measured(sample=not for_trace) as t:
            try:
                energy.dirichlet_energy(u)
                grad = energy.algebraic_gradient(u)
            except Exception as exc:
                error = exc
        if error is not None:
            return _raised(t, error)
        problems = []
        # one embedded vector per node, from TangentVectors or a plain array
        grad = np.array([getattr(gi, "vec", gi) for gi in grad])
        nonzero = [i for i in self.fixed if np.any(grad[i] != 0.0)]
        if nonzero:
            problems.append(f"gradient not zero at fixed nodes {nonzero[:5]}")
        directions = np.array([Q @ _hat(wi) for Q, wi in zip(u.values, w)])
        route_b = float(np.sum(grad * directions))
        try:
            plus = u.with_values([Q @ _expm_hat(FD_STEP * wi) for Q, wi in zip(u.values, w)])
            minus = u.with_values([Q @ _expm_hat(-FD_STEP * wi) for Q, wi in zip(u.values, w)])
            route_a = (energy.dirichlet_energy(plus) - energy.dirichlet_energy(minus)) / (2 * FD_STEP)
        except Exception as exc:
            problems.append(f"central difference raised {type(exc).__name__}: {exc}")
        else:
            denom = max(abs(route_a), abs(route_b))
            disc = abs(route_a - route_b) / (denom if denom >= 1e-6 else 1.0)
            if not disc <= AUDIT_TOL:
                problems.append(f"central difference vs gradient discrepancy {disc:.3e} > {AUDIT_TOL}")
        return _checked(t, problems)

    def probes(self) -> list[OpResult]:
        return []


# ----------------------------------------------------------------------
# CLI workloads


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("GFE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv: list[str], for_trace: bool, workdir: Path, around=contextlib.nullcontext):
    """(exit code, stdout, time, child peak RSS in MB or None) of one gfe command.

    The subprocess is ``cli_child.py``: gfe.cli.main(argv) in a fresh
    interpreter, which also samples the machine speed and reports it.  With
    ``for_trace`` the command runs in this process, timed by wall time alone.
    """
    if for_trace:
        out, err = io.StringIO(), io.StringIO()
        with around(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                speed.measured(sample=False) as t:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusing the arguments
                code = exc.code
            except Exception:  # a traceback, which exits 1 from the command line
                code = 1
        return code, out.getvalue(), t, None
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    kernel_path = workdir / "child.kernel"
    kernel_path.unlink(missing_ok=True)
    child = [sys.executable, str(CHILD), str(kernel_path), *argv]
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe, speed.measured(sample=False) as t:
        proc = subprocess.Popen(child, stdout=fo, stderr=fe, env=_child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child and wait for it
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    t.cpu = usage.ru_utime + usage.ru_stime
    if kernel_path.is_file():
        t.kernel = [float(x) for x in kernel_path.read_text().split()]
    else:
        t.kernel = [speed.kernel_seconds()]
    return proc.returncode, out_path.read_text(), t, usage.ru_maxrss / 1024.0


def _read_rows(path: Path) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        return [[float(t) for t in line.split(",")] for line in fh if line.strip()]


def _write_nodal(path: Path, items) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, v in items:
            fh.write(f"{i}," + ",".join(f"{x:.17g}" for x in v) + "\n")


class InterpolateS2:
    """CLI ``interpolate``: sphere, geodesic, order 2, 4x4 grid, 2112 samples.

    Nodal values lie within a radius-1.2 ball, so pairwise spread stays
    below 2.4 rad, under the 0.9 pi admissibility limit.
    """

    name = "interpolate-s2-2d"
    min_ops = 3   # a median of at least three
    rows_per_element = 66

    def __init__(self, seed: int, toy: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.grid = gridmod.unit_square_grid(1 if toy else 4, 2)
        self.mesh = workdir / "square.mesh"
        gridmod.write_mesh(self.mesh, 2, self.grid.vertices, self.grid.elements)
        self.cases = []
        for c in range(N_CASES):
            values = sphere_ball(rng, self.grid.n_nodes, 1.2)
            bc = workdir / f"nodal{c}.csv"
            _write_nodal(bc, enumerate(values))
            self.cases.append((values, bc, workdir / f"samples{c}.csv"))
        self.rows = self.rows_per_element * self.grid.n_elements

    def run(self, k: int, for_trace: bool = False, around=contextlib.nullcontext) -> OpResult:
        values, bc, out = self.cases[k % len(self.cases)]
        out.unlink(missing_ok=True)
        argv = ["--command", "interpolate", "--manifold", "sphere2", "--rule", "geodesic",
                "--order", "2", "--mesh", str(self.mesh), "--bc", str(bc), "--out", str(out)]
        code, _, t, rss = run_cli(argv, for_trace, self.workdir, around)
        if code != 0:
            return OpResult(t, True, f"exit code {code}", rss)
        return _checked(t, self._check(values, out), rss_mb=rss)

    def _check(self, values: np.ndarray, out: Path) -> list[str]:
        g = self.grid
        rows = _read_rows(out)
        problems = []
        counts = np.bincount([int(r[0]) for r in rows], minlength=g.n_elements)
        if len(counts) != g.n_elements or np.any(counts != self.rows_per_element):
            problems.append(f"rows per element {sorted(set(counts.tolist()))}, expected 66")
        q = np.array([r[3:] for r in rows])
        norm_err = float(np.max(np.abs(np.linalg.norm(q, axis=1) - 1.0)))
        if not norm_err <= 1e-12:
            problems.append(f"unit norm off by {norm_err:.3e} > 1e-12")
        vertex_err, vertex_rows = 0.0, 0
        for r in rows:
            if (r[1], r[2]) in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
                loc = np.flatnonzero(np.all(g.ref.nodes == r[1:3], axis=1))[0]
                node = g.element_nodes[int(r[0])][loc]
                vertex_err = max(vertex_err, float(np.max(np.abs(np.array(r[3:]) - values[node]))))
                vertex_rows += 1
        if vertex_rows != 3 * g.n_elements:
            problems.append(f"{vertex_rows} rows at element vertices, expected {3 * g.n_elements}")
        if not vertex_err <= 1e-12:
            problems.append(f"vertex samples differ from nodal values by {vertex_err:.3e}")
        return problems

    def probes(self) -> list[OpResult]:
        return []


class MinimizeProjS2:
    """CLI ``minimize``: sphere, projection rule, order 1, 4x4 grid, tol 1e-6.

    Boundary data is a seeded rotation of x -> normalize(x - 1/2, y - 1/2, 0.8).
    """

    name = "minimize-proj-s2-2d"
    min_ops = 3   # a median of at least three
    max_iter = 60   # five times the 12 iterations it needs; bounds a run's time

    def __init__(self, seed: int, toy: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        g = gridmod.unit_square_grid(2 if toy else 4, 1)
        self.mesh = workdir / "square.mesh"
        gridmod.write_mesh(self.mesh, 2, g.vertices, g.elements)
        fixed = sorted(g.boundary_nodes)
        x = g.lagrange_nodes[fixed]
        base = _unit(np.column_stack([x[:, 0] - 0.5, x[:, 1] - 0.5, np.full(len(x), 0.8)]))
        self.cases = []
        for c in range(N_CASES):
            data = dict(zip(fixed, base @ random_rotation(rng).T))
            bc = workdir / f"bc{c}.csv"
            _write_nodal(bc, data.items())
            # the CLI writes <stem>.csv, <stem>_u.vtk and <stem>_phi.vtk
            self.cases.append((data, bc, workdir / f"min{c}"))
        self.qp_per_gradient = 6 * g.n_elements

    def run(self, k: int, for_trace: bool = False, around=contextlib.nullcontext) -> OpResult:
        data, bc, stem = self.cases[k % len(self.cases)]
        outputs = [Path(f"{stem}.csv"), Path(f"{stem}_u.vtk"), Path(f"{stem}_phi.vtk")]
        for p in outputs:
            p.unlink(missing_ok=True)
        argv = ["--command", "minimize", "--manifold", "sphere2", "--rule", "projection",
                "--order", "1", "--mesh", str(self.mesh), "--bc", str(bc),
                "--out", str(outputs[0]), "--tol", "1e-6", "--max-iter", str(self.max_iter)]
        code, stdout, t, rss = run_cli(argv, for_trace, self.workdir, around)
        if code != 0:
            return OpResult(t, True, f"exit code {code}", rss)
        problems = []
        if "converged=true" not in stdout.split():
            problems.append("report does not say converged=true")
        rows = {int(r[0]): np.array(r[1:]) for r in _read_rows(outputs[0])}
        moved = [i for i, v in data.items() if i not in rows or not np.array_equal(rows[i], v)]
        if moved:
            problems.append(f"fixed nodes changed: {moved[:5]}")
        missing = [p.name for p in outputs[1:] if not p.is_file() or p.stat().st_size == 0]
        if missing:
            problems.append(f"VTK files not written: {missing}")
        vtk_bytes = sum(p.stat().st_size for p in outputs[1:] if p.is_file())
        return _checked(t, problems, rss_mb=rss, vtk_bytes=vtk_bytes)

    def probes(self) -> list[OpResult]:
        return []


WORKLOADS = {w.name: w for w in (DescentS2, AssemblySO3, InterpolateS2, MinimizeProjS2)}
