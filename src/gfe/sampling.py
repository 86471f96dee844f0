"""Seeded random points, tangent vectors, and nodal configurations.

Used by the audit command and by the test-suite oracles; everything is
driven by an explicit ``numpy.random.Generator`` so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .kernels import _expm_skew, _hat
from .manifold import Euclidean, Manifold, Rotation3, Sphere


def random_point(manifold: Manifold, rng: np.random.Generator) -> np.ndarray:
    if isinstance(manifold, Euclidean):
        return rng.standard_normal(manifold.k)
    if isinstance(manifold, Sphere):
        while True:
            w = rng.standard_normal(manifold.n + 1)
            nrm = np.linalg.norm(w)
            if nrm > 1e-6:
                return w / nrm
    if isinstance(manifold, Rotation3):
        return _expm_skew(_hat(rng.standard_normal(3)))
    raise TypeError(f"no sampler for manifold kind {manifold.kind!r}")


def random_tangent(
    manifold: Manifold, p: np.ndarray, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    """A tangent vector at p with norm ``scale``, direction uniform over the basis."""
    basis = manifold.tangent_basis(p)
    coeff = rng.standard_normal(manifold.intrinsic_dim)
    coeff /= np.linalg.norm(coeff)
    return scale * np.tensordot(coeff, basis, axes=1)


def random_configuration(
    manifold: Manifold, m: int, rng: np.random.Generator, radius: float = 0.3
) -> np.ndarray:
    """m nodal values inside a geodesic ball of the given radius.

    The ball center is drawn first, then each value is exp of a random
    tangent with norm uniform in [0, radius).
    """
    center = random_point(manifold, rng)
    values = []
    for _ in range(m):
        v = random_tangent(manifold, center, rng, scale=float(rng.uniform(0.0, radius)))
        values.append(manifold.exp(center, v))
    return np.array(values)
