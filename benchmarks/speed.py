"""Machine speed, sampled while an operation is timed.

The speed of a small shared box can drift by a factor of two within
seconds, as other tenants load the cores it shares; a median over a short
run cannot hide that.  While a region is timed, a SIGALRM every
``PERIOD_S`` runs a fixed kernel of tiny numpy calls, the same kind of work
as gfe's hot path, and records how long it took.  ``Measurement.scaled`` is
the region's wall time multiplied by ``REFERENCE_S`` over the mean kernel
time: the wall time at a fixed reference speed.  The kernel takes about 3%
of the region.  It does not call gfe, so a change to gfe cannot move it.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

PERIOD_S = 0.04
REFERENCE_S = 1e-3   # kernel time that defines the reference speed

# six unit vectors and weights for a weighted mean on S^2, two rotations
_P = np.array([[1.0, 0.0, 0.0], [0.9, 0.1, 0.2], [0.8, 0.3, 0.1],
               [0.95, -0.1, 0.1], [0.85, 0.2, -0.2], [0.9, 0.0, 0.3]])
_P /= np.linalg.norm(_P, axis=1, keepdims=True)
_WEIGHTS = np.array([0.1, 0.3, 0.2, 0.15, 0.15, 0.1])
_R0 = np.array([[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0], [0.48, 0.64, 0.6]])
_R1 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _hat(w: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def kernel_seconds() -> float:
    """Time a fixed mix of the work on gfe's hot paths, on 3-vectors and 3x3s.

    Three damped Newton steps for a weighted mean of six points of S^2
    (per-point logarithms, a Gram-Schmidt tangent basis, a 2x2 solve, an
    eigenvalue check), then six steps along an SO(3) geodesic (matrix
    logarithm and Rodrigues exponential).  A mix like the workloads' tracks
    their slowdown far better than a plain arithmetic loop.
    """
    t = time.perf_counter()
    q = _WEIGHTS @ _P
    q = q / np.linalg.norm(q)
    for _ in range(3):
        logs = []
        for p in _P:
            c = float(np.dot(q, p))
            u = p - c * q
            n = float(np.linalg.norm(u))
            logs.append((float(np.arctan2(n, c)) / n) * u)
        basis = []
        for k in range(3):
            v = np.zeros(3)
            v[k] = 1.0
            v = v - float(np.dot(q, v)) * q
            for b in basis:
                v = v - np.vdot(b, v) * b
            nv = float(np.linalg.norm(v))
            if nv > 1e-8:
                basis.append(v / nv)
            if len(basis) == 2:
                break
        B = np.array(basis)
        L = np.array(logs) @ B.T
        H = 2.0 * np.eye(2) + 0.01 * np.outer(L[0], L[0])
        H = 0.5 * (H + H.T)
        step = np.tensordot(0.01 * np.linalg.solve(H, 2.0 * (_WEIGHTS @ L)), B, axes=1)
        theta = float(np.linalg.norm(step))
        q = math.cos(theta) * q + (math.sin(theta) / theta if theta else 1.0) * step
        q = q / np.linalg.norm(q)
        float(np.linalg.eigvalsh(H)[0])
    Q = _R0
    for _ in range(6):
        S = Q.T @ _R1
        theta = math.acos(max(-1.0, min(1.0, 0.5 * (float(np.trace(S)) - 1.0))))
        A = (S - S.T) * (0.5 * theta / math.sin(theta))
        w = 0.1 * np.array([A[2, 1], A[0, 2], A[1, 0]])
        n = float(np.linalg.norm(w))
        K = _hat(w / n)
        Q = Q @ (np.eye(3) + math.sin(n) * K + (1.0 - math.cos(n)) * (K @ K))
        float(np.linalg.det(Q))
        float(np.linalg.norm(Q.T @ Q - np.eye(3)))
        np.tensordot(w, np.stack([Q, Q, Q]), axes=1)
    return time.perf_counter() - t


@dataclass
class Measurement:
    seconds: float = 0.0
    kernel: list[float] = field(default_factory=list)
    cpu: float = 0.0   # CPU seconds of the process doing the work, kernel included

    @property
    def scaled(self) -> float:
        return self.seconds * REFERENCE_S / statistics.fmean(self.kernel)


@contextlib.contextmanager
def measured(sample: bool = True):
    """Time the block; with ``sample``, also sample the machine speed in it."""
    m = Measurement()
    if sample:
        kernel_seconds()  # the first call in a process pays one-off costs
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: m.kernel.append(kernel_seconds()))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    c, t = time.process_time(), time.perf_counter()
    try:
        yield m
    finally:
        m.seconds = time.perf_counter() - t
        m.cpu = time.process_time() - c
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            if not m.kernel:  # a block shorter than one period
                m.kernel.append(kernel_seconds())
