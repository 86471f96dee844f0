#!/usr/bin/env python3
"""Test fields along a geodesic are classical Jacobi fields.

Take a single first-order 1d element whose two nodal values span a geodesic
arc on the sphere.  Hold the start fixed (zero tangent vector) and attach a
unit vector perpendicular to the arc at the end.  The resulting field is the
classical Jacobi field with profile sin(t*theta)/sin(theta) — the same decay
a family of great circles through a common point exhibits.
"""

import numpy as np

from gfe import ElementTestField, GeodesicInterpolant, ReferenceElement, Sphere

sphere = Sphere(2)
p = np.array([1.0, 0.0, 0.0])
theta = 1.2
q = np.array([np.cos(theta), np.sin(theta), 0.0])
binormal = np.array([0.0, 0.0, 1.0])  # perpendicular to the arc's plane

interp = GeodesicInterpolant(ReferenceElement(1, 1), [p, q], sphere)
# one nodal tangent vector per node: zero at p, the binormal at q
field = ElementTestField(interp, np.array([np.zeros(3), binormal]))

print(f"geodesic arc length theta = {theta}")
print(f"\n{'t':>5} {'|field(t)|':>12} {'sin(t*theta)/sin(theta)':>24} {'deviation':>11}")
worst = 0.0
for t in np.linspace(0.0, 1.0, 11):
    got = np.linalg.norm(field.eval_field([t])[1])
    expected = np.sin(t * theta) / np.sin(theta)
    worst = max(worst, abs(got - expected))
    print(f"{t:5.2f} {got:12.8f} {expected:24.8f} {abs(got - expected):11.2e}")
print(f"\nmax deviation from the closed form: {worst:.2e}")
