#!/usr/bin/env python3
"""Interpolating rotation matrices along an edge.

Two rotations sit at the ends of a first-order 1d element.  Geodesic
interpolation follows the one-parameter subgroup between them, so the
rotation angle grows linearly in the reference coordinate.  Projection-based
interpolation averages the matrices and maps back to SO(3) through the polar
decomposition, computed by the quadratically convergent iteration
Q <- (Q + Q^-T)/2.
"""

import numpy as np

from gfe import GeodesicInterpolant, ProjectionInterpolant, ReferenceElement, Rotation3, polar_decompose
from gfe.kernels import _polar_iterates

so3 = Rotation3()


def rot(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


A = rot([0, 0, 1], 0.3)
B = rot([1, 1, 0], 1.1)
elem = ReferenceElement(1, 1)
geo = GeodesicInterpolant(elem, [A, B], so3)
pro = ProjectionInterpolant(elem, [A, B], so3)

print(f"{'t':>5} {'angle from A (geodesic)':>24} {'angle from A (projection)':>26}")
for t in np.linspace(0.0, 1.0, 6):
    qg = geo.eval([t])
    qp = pro.eval([t])
    # dist is sqrt(2) times the rotation angle
    angle_g, angle_p = so3.dist(A, qg) / np.sqrt(2), so3.dist(A, qp) / np.sqrt(2)
    print(f"{t:5.2f} {angle_g:>24.6f} {angle_p:>26.6f}")
print("(the geodesic column is exactly linear in t)")

# the polar iteration converges quadratically: residuals square each step
M = 0.5 * (A + B) + 0.2 * np.random.default_rng(0).standard_normal((3, 3))
if np.linalg.det(M) < 0:
    M = -M
Q, iterations = polar_decompose(M)
_, residuals = _polar_iterates(M)
print(f"\npolar decomposition of a noisy average ({iterations} iterations):")
for k, r in enumerate(residuals, start=1):
    print(f"  step {k}: |Q_k+1 - Q_k| = {r:.3e}")
print(f"orthogonality defect: {np.linalg.norm(Q.T @ Q - np.eye(3)):.2e}")
