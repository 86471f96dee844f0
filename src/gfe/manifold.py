"""Embedded manifolds: flat space, unit spheres, and the rotation group SO(3).

Points and tangent vectors are plain numpy arrays in embedding coordinates:
vectors of length ``k`` for ``Euclidean(k)``, unit vectors of length ``n+1``
for ``Sphere(n)``, and orthogonal 3x3 matrices with determinant +1 for
``Rotation3``.  Tangent vectors carry the inner product of the flattened
embedding (the Frobenius inner product for rotations), so ``Rotation3``
distances come out as ``sqrt(2)`` times the rotation angle.

Besides the metric operations (``dist``, ``exp``, ``log``, parallel
``transport``) each manifold provides

- a closed-form orthonormal ``tangent_basis`` used to express all
  matrix-valued derivative data in reproducible coordinates: the identity
  rows for flat space, the rows of a Householder reflection for spheres and
  ``Q @ hat(e_k) / sqrt(2)`` for rotations,
- the two second-derivative blocks of squared distance,
  ``dist2_hess_q`` and ``dist2_mixed``, that drive the implicit derivative
  systems of the interpolation modules, and ``dist2_third``, their
  derivatives as q moves, which the exact gradients of test fields need,
- a closest-point projection ``project_point`` with its Jacobian
  ``projection_jacobian`` and the Jacobian's derivative
  ``projection_jacobian_deriv`` (normalization for spheres, the polar
  decomposition for rotations, the identity for flat space).

Every operation broadcasts over leading axes, so one call serves all nodal
values of all points of a batch; per-point results (``dist`` of two
points) come back as floats.  Point checks and projections that fail on a
batch report its first failing entry.

All three geometries have constant sectional curvature, so the
second-derivative blocks are evaluated from the closed forms of a constant
curvature model: at distance r, the Hessian of ``q -> dist(v, q)**2`` has
radial eigenvalue 2 and eigenvalue ``2*rho*cot(rho)`` on the orthogonal
complement, and the mixed block maps a perturbation ``w`` of ``v`` to

    -2*a*Pt(w) + 2*((1 - a)/r**2) * <w, log_v(q)> * log_q(v),

where ``a = rho/sin(rho)``, ``rho = sqrt(K)*r`` and ``Pt`` is parallel
transport from v to q.  (1 - a)/r**2 is a series in rho near 0, so no log
is divided by r, which would cost eps/r of accuracy near v = q.

The third derivatives follow from the same model (Sander, IMA J. Numer.
Anal. 2016).  With n = -log_q(v)/r the gradient of r at q, P = I - n n^T,
c = rho*cot(rho) and c' = dc/dr = (c - c**2 - rho**2)/r, the covariant
derivative of the Hessian 2*(c*P + n n^T) along X is

    2*(c' <n, X> P + ((1 - c)*c/r) * (PX n^T + n (PX)^T)),

and, by the symmetry of third derivatives on M x M, the derivative of the
mixed block along X, applied to a perturbation w of v, is

    2*(c' <m, w> PX - ((1 - c)*a/r) * (<n, X> p + <p, X> n)),

with m = -log_v(q)/r, a = rho/sin(rho) as above and p = P Pt(w).  c'/r
and (1 - c)*a/r**2 are series in rho near 0 ((1 - c)*c/r**2 = c'/r + K),
and every term carries a factor of order r, so the eps/r error of n near
v = q costs nothing.  On flat space (K = 0) all of them vanish.

Pt and log_v(q) enter as T, tangent_basis(v) = B_v transported to q in
tangent_basis(q) = E_q coefficients, and w = -T^T u, log_v(q) in B_v
coefficients, from the coefficients u of log_q(v) alone: T = E_q B_v^T on
flat space; on spheres log_v(q) = r sin(r) q - cos(r) log_q(v) and
T = E_q B_v^T - ((1 - cos r)/r**2) u w^T; on SO(3), where log_q(v) =
q hat(u)/sqrt(2) and transport is left translation by exp of half the log,
T = exp(-hat(u)/(2 sqrt(2)))^T and w = -u.  All operations are pure
functions of their inputs; values are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutLocusError, DimensionMismatchError, ProjectionUndefinedError
from .kernels import (
    _CUT_TOL,
    _SKEW_BASIS,
    _angle_parts,
    _as_matrices,
    _expm_skew,
    _logm_rotation,
    _one_minus_cos_over_sq,
    _one_minus_t_cot_over_sq_times_t_over_sin,
    _one_minus_t_over_sin_over_sq,
    _polar_iterates,
    _polar_jacobian,
    _polar_jacobian_deriv,
    _sinc,
    _skew_part,
    _t_cot,
    _t_cot_slope_over_t,
    _t_over_sin,
)

def _inner(a, b) -> np.ndarray:
    """<a, b> over the last axis, kept as a length-1 axis; broadcasts."""
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def _scalar(x):
    """A float for a 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _refuse_projection(bad, value, what: str) -> None:
    if bad.any():
        raise ProjectionUndefinedError(
            f"projection undefined: {what} {float(value[bad].flat[0]):.3e}"
        )


class Manifold:
    """Shared interface and the constant-curvature derivative blocks.

    Concrete subclasses set ``kind``, ``intrinsic_dim``, ``point_shape``,
    the advisory ``curvature_bound`` entering the Karcher-ball diagnostic,
    and ``_model_curvature``, the actual constant sectional curvature used
    by the closed-form second derivatives of squared distance.
    """

    kind: str
    intrinsic_dim: int
    point_shape: tuple
    curvature_bound: float | None
    _model_curvature: float

    # ------------------------------------------------------------------
    # basic helpers

    @property
    def embed_dim(self) -> int:
        return math.prod(self.point_shape)

    @property
    def injectivity_radius(self) -> float:
        raise NotImplementedError

    def _check_pair(self, p, q) -> None:
        k = len(self.point_shape)
        if np.shape(p)[-k:] != self.point_shape or np.shape(q)[-k:] != self.point_shape:
            raise DimensionMismatchError(
                f"expected two points of shape {self.point_shape} on {self.kind}, "
                f"got {np.shape(p)} and {np.shape(q)}"
            )

    def _flat(self, x) -> np.ndarray:
        """Flatten the trailing point axes of x into one embedding axis."""
        x = np.asarray(x, dtype=float)
        return x.reshape(x.shape[: x.ndim - len(self.point_shape)] + (self.embed_dim,))

    def check_point(self, p) -> None:
        raise NotImplementedError

    def check_tangent(self, p, v) -> None:
        """Raise ValueError unless v is tangent at p; leading axes broadcast."""
        raise NotImplementedError

    def project_tangent(self, p, w) -> np.ndarray:
        """Orthogonal projection of embedding vectors onto T_p M; w may carry leading axes."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # metric operations

    def dist(self, p, q):
        """Geodesic distance: a float for two points, an array for batches."""
        raise NotImplementedError

    def exp(self, p, v) -> np.ndarray:
        raise NotImplementedError

    def log(self, p, q) -> np.ndarray:
        raise NotImplementedError

    def transport(self, p, q, w, log_pq=None) -> np.ndarray:
        """Parallel transport of w in T_p M to T_q M along the connecting geodesic.

        ``log_pq`` is log(p, q) when the caller already has it.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # projections (overridden where a projection exists)

    def project_point(self, w) -> np.ndarray:
        raise NotImplementedError

    def projection_jacobian(self, w) -> np.ndarray:
        raise NotImplementedError

    def projection_jacobian_deriv(self, w, x) -> np.ndarray:
        """The derivative of projection_jacobian(w) along each of the s
        embedding directions x (..., s, N): shape (..., s, N, N), the second
        derivative of project_point with its first slot filled by x."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # tangent basis

    def tangent_basis(self, p) -> np.ndarray:
        """Orthonormal basis of T_p M, shape (..., dim, *point_shape).

        A closed form in the entries of p, so the same point always yields
        the bitwise-identical basis; p may carry leading axes.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # second-derivative blocks of squared distance

    def _curvature_factor(self, fn, r) -> np.ndarray:
        """fn(sqrt(K)*r) for the model curvature K, and 1 on flat space."""
        kappa = self._model_curvature
        return fn(np.sqrt(kappa) * r) if kappa > 0.0 else np.ones_like(r)

    def dist2_hess_q(self, v, q, basis_q=None, log_qv=None) -> np.ndarray:
        """Hessian of q -> dist(v, q)**2 in the tangent_basis(q) coordinates.

        v may carry leading (node) axes; the result has shape
        (..., dim, dim), symmetric, and equals 2*I where v = q.  ``basis_q``
        is tangent_basis(q) and ``log_qv`` is log(q, v) when the caller
        already has them.  Requires q within the injectivity radius of v
        (raises CutLocusError otherwise).
        """
        self._check_pair(v, q)
        dim = self.intrinsic_dim
        u = self._flat(self.log(q, v) if log_qv is None else log_qv)   # (..., N)
        r = np.sqrt(_inner(u, u))[..., 0]
        E = self._flat(self.tangent_basis(q) if basis_q is None else basis_q)
        # unit direction coefficients, zero where v = q (and there a = 1)
        c = np.matmul(E, u[..., None])[..., 0] / np.where(r < 1e-15, np.inf, r)[..., None]
        a = self._curvature_factor(_t_cot, r)[..., None, None]
        return 2.0 * (a * np.eye(dim) + (1.0 - a) * (c[..., :, None] * c[..., None, :]))

    def _transported_basis(self, v, q, Eq, u):
        """(w, T) of the module docstring (..., dim) and (..., dim, dim) from
        the flattened tangent_basis(q) Eq and the log coefficients u; flat space."""
        T = Eq @ np.swapaxes(self._flat(self.tangent_basis(v)), -1, -2)
        return -(np.swapaxes(T, -1, -2) @ u[..., :, None])[..., 0], T

    def _mixed(self, v, q, Eq, log_coeffs):
        """(u, r, w, T, dist2_mixed(v, q)) from the flattened tangent_basis(q) Eq
        and the coefficients u of log_q(v) in it (taken from log(q, v) when
        log_coeffs is None), r = |u| (..., 1) and (w, T) from _transported_basis."""
        if log_coeffs is None:
            log_coeffs = np.matmul(Eq, self._flat(self.log(q, v))[..., :, None])[..., 0]
        u = np.asarray(log_coeffs, dtype=float)
        r = np.sqrt(_inner(u, u))
        w, T = self._transported_basis(v, q, Eq, u)
        a = self._curvature_factor(_t_over_sin, r)[..., None]
        # (1 - a)/r**2, so that no log is divided by r (which costs eps/r near v = q)
        s = self._model_curvature * self._curvature_factor(_one_minus_t_over_sin_over_sq, r)
        # -2*a*Pt(b_j) + 2*s*<b_j, log_v q>*log_q v in the basis at q, one column j per basis vector
        M = 2.0 * (s[..., None] * (u[..., :, None] * w[..., None, :]) - a * T)
        return u, r, w, T, np.where((r < 1e-15)[..., None], -2.0 * np.eye(self.intrinsic_dim), M)

    def dist2_mixed(self, v, q, basis_q=None, log_qv=None) -> np.ndarray:
        """Mixed second derivative of dist(v, q)**2, d/dv of the q-gradient.

        Returned as a (..., dim, dim) array mapping tangent_basis(v)
        coefficients of a perturbation of v to tangent_basis(q) coefficients
        of the change in the q-gradient; v may carry leading (node) axes.
        ``basis_q`` is tangent_basis(q) and ``log_qv`` is log(q, v) when the
        caller already has them.  Equals -2*I where v = q.
        """
        self._check_pair(v, q)
        Eq = self._flat(self.tangent_basis(q) if basis_q is None else basis_q)
        U_q = self._flat(self.log(q, v) if log_qv is None else log_qv)
        return self._mixed(v, q, Eq, np.matmul(Eq, U_q[..., :, None])[..., 0])[-1]

    def dist2_third(self, v, q, X, weights, basis_q=None, log_coeffs=None):
        """Third derivatives of squared distance as q moves, for the weighted
        sum f(q) = sum_i weights_i * dist(v_i, q)**2.

        v (..., m, *point_shape) holds the m points v_i, weights (..., m)
        their weights, and X (..., s, dim) the tangent_basis(q) coefficients
        of s directions at q (..., *point_shape).  ``basis_q`` is
        tangent_basis(q) and ``log_coeffs`` (..., m, dim) the coefficients of
        log(q, v_i) in it, when the caller already has them.  Returns
        ``(mixed, hess_X, mixed_X)``:

        - mixed (..., m, dim, dim): dist2_mixed(v_i, q);
        - hess_X (..., s, dim, dim): the covariant derivative of the Hessian
          of f, sum_i weights_i * dist2_hess_q(v_i, q), along X[..., l, :];
        - mixed_X (..., m, s, dim, dim): the covariant derivative of
          dist2_mixed(v_i, q) along X[..., l, :].

        Both derivatives vanish where v_i = q and on flat space.  With
        ``log_coeffs`` given no logarithm is taken.
        """
        k = len(self.point_shape)
        q = np.expand_dims(np.asarray(q, dtype=float), -k - 1)
        self._check_pair(v, q)
        Eq = self._flat(self.tangent_basis(q) if basis_q is None
                        else np.expand_dims(basis_q, -k - 2))
        u, r, w, T, mixed = self._mixed(v, q, Eq, log_coeffs)              # u (..., m, dim)
        K = self._model_curvature
        # c'/r and (1 - c)*a/r**2 of the module docstring, c = rho*cot(rho) and
        # a = rho/sin(rho), as series in rho times K; (1 - c)*c/r**2 = c'/r + K
        g1 = K * self._curvature_factor(_t_cot_slope_over_t, r)
        g3 = K * self._curvature_factor(_one_minus_t_cot_over_sq_times_t_over_sin, r)
        # n = u/r (0 where v = q) enters only through the projection P = I - n n^T
        # and terms of order r, so its eps/r error near v = q costs nothing
        n = u / np.where(r < 1e-15, np.inf, r)
        P = np.eye(self.intrinsic_dim) - n[..., :, None] * n[..., None, :]
        X = np.expand_dims(np.asarray(X, dtype=float), -3)                  # (..., 1, s, dim)
        uX = np.matmul(X, u[..., :, None])[..., 0]                          # (..., m, s)
        PX = X @ P                                                          # (..., m, s, dim)
        # hess_X = -2 sum_i weights_i (g1 <u, X> P + g2 (PX u^T + u PX^T)), g2 = g1 + K
        phi = np.asarray(weights, dtype=float)[..., :, None]
        hess_X = np.einsum("...is,...iab->...sab", phi * g1 * uX, P)
        outer = np.einsum("...isa,...ib->...sab", (phi * (g1 + K))[..., None] * PX, u)
        hess_X += outer
        hess_X += np.swapaxes(outer, -1, -2)
        hess_X *= -2.0
        # mixed_X = 2 (g3 (<u, X> p_j + <p_j, X> u) - g1 <log_v q, b_j> PX), column j,
        # with p_j = P Pt(b_j) = (P T)[:, j]; built in place, one direction at a
        # time, as the largest array of a gradient
        T = P @ T
        XpT = X @ T                                                         # (..., m, s, dim)
        mixed_X = (g3 * uX)[..., None, None] * T[..., None, :, :]
        for l in range(XpT.shape[-2]):
            mixed_X[..., l, :, :] += (g3 * u)[..., :, None] * XpT[..., l, None, :]
            mixed_X[..., l, :, :] -= (g1 * PX[..., l, :])[..., :, None] * w[..., None, :]
        mixed_X *= 2.0
        return mixed, hess_X, mixed_X


# ----------------------------------------------------------------------
# flat space


@dataclass(frozen=True)
class Euclidean(Manifold):
    """R^k with the usual inner product; exp/log are addition/subtraction.

    Carried along so that every construction in the package can be
    regression-checked against classical Lagrange finite elements.
    """

    k: int

    kind = "euclidean"
    curvature_bound: float | None = None
    _model_curvature = 0.0

    @property
    def intrinsic_dim(self) -> int:
        return self.k

    @property
    def point_shape(self) -> tuple:
        return (self.k,)

    @property
    def injectivity_radius(self) -> float:
        return np.inf

    def check_point(self, p) -> None:
        if np.shape(p)[-1:] != (self.k,):
            raise DimensionMismatchError(f"expected a vector of length {self.k}")

    def check_tangent(self, p, v) -> None:
        if np.shape(v)[-1:] != (self.k,):
            raise DimensionMismatchError(f"expected a vector of length {self.k}")

    def project_tangent(self, p, w):
        return np.asarray(w, dtype=float).copy()

    def tangent_basis(self, p) -> np.ndarray:
        """The identity rows."""
        return np.broadcast_to(np.eye(self.k), np.shape(p)[:-1] + (self.k, self.k)).copy()

    def dist(self, p, q):
        self._check_pair(p, q)
        d = np.subtract(q, p, dtype=float)
        return float(np.linalg.norm(d)) if d.ndim == 1 else np.linalg.norm(d, axis=-1)

    def exp(self, p, v):
        return np.add(p, v, dtype=float)

    def log(self, p, q):
        self._check_pair(p, q)
        return np.subtract(q, p, dtype=float)

    def transport(self, p, q, w, log_pq=None):
        return np.asarray(w, dtype=float).copy()

    def project_point(self, w):
        return np.array(w, dtype=float)

    def projection_jacobian(self, w):
        return np.broadcast_to(np.eye(self.k), np.shape(w) + (self.k,)).copy()

    def projection_jacobian_deriv(self, w, x):
        return np.zeros(np.broadcast_shapes(np.shape(w)[:-1], np.shape(x)[:-2])
                        + np.shape(x)[-2:] + (self.k,))


# ----------------------------------------------------------------------
# spheres


@dataclass(frozen=True)
class Sphere(Manifold):
    """The unit n-sphere embedded in R^{n+1}.

    Geodesics are great circles; dist(p, q) = arccos(<p, q>).  The
    closest-point projection is w -> w/|w| with Jacobian
    I/|w| - w w^T/|w|^3.
    """

    n: int

    kind = "sphere"
    curvature_bound: float | None = 1.0
    _model_curvature = 1.0

    @property
    def intrinsic_dim(self) -> int:
        return self.n

    @property
    def point_shape(self) -> tuple:
        return (self.n + 1,)

    @property
    def injectivity_radius(self) -> float:
        return np.pi

    def check_point(self, p) -> None:
        p = np.asarray(p)
        if p.shape[-1:] != (self.n + 1,):
            raise DimensionMismatchError(f"expected a vector of length {self.n + 1}")
        nrm = np.linalg.norm(p, axis=-1)
        bad = np.abs(nrm - 1.0) > 1e-12
        if bad.any():
            raise ValueError(f"sphere point is not unit length: |p| = {float(nrm[bad].flat[0])!r}")

    def check_tangent(self, p, v) -> None:
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.n + 1,):
            raise DimensionMismatchError(f"expected a vector of length {self.n + 1}")
        # scale-aware so that representation dust on large vectors passes
        dot = np.abs(np.sum(np.asarray(p, dtype=float) * v, axis=-1))
        if (dot > 1e-10 * np.maximum(1.0, np.linalg.norm(v, axis=-1))).any():
            raise ValueError("vector is not tangent to the sphere at its base point")

    def project_tangent(self, p, w):
        w = np.asarray(w, dtype=float)
        p = np.asarray(p, dtype=float)
        return w - _inner(p, w) * p

    def tangent_basis(self, p) -> np.ndarray:
        """Rows 1..n of the Householder reflection that swaps p and -s*e_{n+1}.

        s = +-1 is the sign (bit) of p_{n+1}, the stable choice: the
        reflection vector w = p + s*e_{n+1} has |w|**2 >= 2, so the frame is
        well conditioned everywhere, including where p_{n+1} changes sign.
        At +-e_{n+1} the rows are e_1..e_n.
        """
        p = np.asarray(p, dtype=float)
        n = self.n
        w = p.copy()
        w[..., n] += np.copysign(1.0, p[..., n])
        scale = 2.0 / _inner(w, w)
        return np.eye(n, n + 1) - (scale * w[..., :n])[..., :, None] * w[..., None, :]

    def dist(self, p, q):
        self._check_pair(p, q)
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        c = _inner(p, q)
        u = q - c * p
        # atan2 of (sin, cos) stays well conditioned at all angles, unlike
        # arccos, which loses ~eps/theta accuracy near aligned points
        d = np.arctan2(np.sqrt(_inner(u, u)), c)[..., 0]
        return _scalar(np.where(np.all(p == q, axis=-1), 0.0, d))

    def exp(self, p, v):
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        theta = np.sqrt(_inner(v, v))
        q = np.cos(theta) * p + _sinc(theta) * v
        return q / np.sqrt(_inner(q, q))

    def log(self, p, q):
        self._check_pair(p, q)
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        c = _inner(p, q)
        u = q - c * p
        nrm = np.sqrt(_inner(u, u))
        theta = np.arctan2(nrm, c)
        if theta.max() > np.pi - _CUT_TOL:
            raise CutLocusError(
                f"points at distance {float(theta.max()):.6f} are (numerically) antipodal"
            )
        # zero where the points (numerically) coincide
        return (theta / np.where(nrm < 1e-14, np.inf, nrm)) * u

    def transport(self, p, q, w, log_pq=None):
        # the component along u = log_p(q) turns with the great circle, the
        # rest stays: w - <w, u> ((1 - cos t)/t**2 * u + sin(t)/t * p), t = |u|
        u = self.log(p, q) if log_pq is None else np.asarray(log_pq, dtype=float)
        w = np.asarray(w, dtype=float)
        t = np.sqrt(_inner(u, u))
        turn = _one_minus_cos_over_sq(t) * u + _sinc(t) * np.asarray(p, dtype=float)
        return w - _inner(w, u) * turn

    def _transported_basis(self, v, q, Eq, u):
        Bv = self._flat(self.tangent_basis(v))                              # (..., dim, N)
        r = np.sqrt(_inner(u, u))
        log_vq = r * np.sin(r) * np.asarray(q, dtype=float) - np.cos(r) * (u[..., None, :] @ Eq)[..., 0, :]
        w = np.matmul(Bv, log_vq[..., :, None])[..., 0]
        T = Eq @ np.swapaxes(Bv, -1, -2)
        T -= _one_minus_cos_over_sq(r)[..., None] * (u[..., :, None] * w[..., None, :])
        return w, T

    def _norm_checked(self, w):
        w = np.asarray(w, dtype=float)
        nrm = np.sqrt(_inner(w, w))
        _refuse_projection(nrm <= 1e-12, nrm, "weighted embedding sum has norm")
        return w, nrm

    def project_point(self, w):
        w, nrm = self._norm_checked(w)
        return w / nrm

    def projection_jacobian(self, w):
        w, nrm = self._norm_checked(w)
        nrm = nrm[..., None]
        return np.eye(self.n + 1) / nrm - (w[..., :, None] * w[..., None, :]) / nrm**3

    def projection_jacobian_deriv(self, w, x):
        # D^2P(w)[x, y] = -(<w,y> x + <w,x> y + <x,y> w)/|w|^3 + 3 <w,x> <w,y> w/|w|^5
        w, nrm = self._norm_checked(w)
        x = np.asarray(x, dtype=float)
        w, nrm = w[..., None, :], nrm[..., None, :, None]             # (..., 1, N), (..., 1, 1, 1)
        wx = _inner(w, x)[..., None]                                 # (..., s, 1, 1)
        ww = w[..., :, None] * w[..., None, :]
        outer = x[..., :, None] * w[..., None, :] + w[..., :, None] * x[..., None, :]
        return (3.0 * wx * ww / nrm**2 - outer - wx * np.eye(self.n + 1)) / nrm**3


# ----------------------------------------------------------------------
# SO(3)


@dataclass(frozen=True)
class Rotation3(Manifold):
    """SO(3) as 3x3 matrices, bi-invariant metric from the Frobenius product.

    With this scaling dist(Q1, Q2) = |log(Q1^T Q2)|_F = sqrt(2) * angle.
    Geodesics are one-parameter subgroups, evaluated through Rodrigues
    closed forms with series fallbacks near the identity.  The closest-point
    projection is the polar decomposition, computed by the quadratically
    convergent iteration Q <- (Q + Q^-T)/2; its Jacobian is obtained by
    forward-mode differentiation of the same iteration, truncated at the
    primal's iteration count.
    """

    kind = "rotation3"
    intrinsic_dim = 3
    point_shape = (3, 3)
    # Advisory Karcher-ball constant.  The Frobenius-scaled sectional
    # curvature is 1/8, so a bound of 1/4 keeps the ball-radius diagnostic
    # conservative.
    curvature_bound: float | None = 0.25
    _model_curvature = 0.125

    @property
    def injectivity_radius(self) -> float:
        return np.sqrt(2.0) * np.pi

    def check_point(self, p) -> None:
        Q = np.asarray(p)
        if Q.shape[-2:] != (3, 3):
            raise DimensionMismatchError("expected a 3x3 matrix")
        if (np.linalg.norm(np.swapaxes(Q, -1, -2) @ Q - np.eye(3), axis=(-2, -1)) > 1e-10).any():
            raise ValueError("matrix is not orthogonal within 1e-10")
        if (np.linalg.det(Q) <= 0.0).any():
            raise ValueError("matrix has non-positive determinant")

    def check_tangent(self, p, v) -> None:
        v = np.asarray(v, dtype=float)
        if v.shape[-2:] != (3, 3):
            raise DimensionMismatchError("expected a 3x3 matrix")
        S = np.swapaxes(np.asarray(p, dtype=float), -1, -2) @ v
        scale = np.maximum(1.0, np.linalg.norm(v, axis=(-2, -1)))
        if (np.linalg.norm(S + np.swapaxes(S, -1, -2), axis=(-2, -1)) > 1e-10 * scale).any():
            raise ValueError("vector is not tangent at its base rotation (Q^T W not skew)")

    def project_tangent(self, p, w):
        Q = np.asarray(p, dtype=float)
        return Q @ _skew_part(np.swapaxes(Q, -1, -2) @ np.asarray(w, dtype=float))

    def tangent_basis(self, p) -> np.ndarray:
        """Q @ hat(e_k) / sqrt(2) for k = 1, 2, 3."""
        return np.asarray(p, dtype=float)[..., None, :, :] @ _SKEW_BASIS

    def dist(self, p, q):
        self._check_pair(p, q)
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        d = np.sqrt(2.0) * _angle_parts(np.swapaxes(p, -1, -2) @ q)[2]
        return _scalar(np.where(np.all(p == q, axis=(-2, -1)), 0.0, d))

    def exp(self, p, v):
        Q = np.asarray(p, dtype=float)
        S = _skew_part(np.swapaxes(Q, -1, -2) @ np.asarray(v, dtype=float))
        return Q @ _expm_skew(S)

    def log(self, p, q):
        self._check_pair(p, q)
        Q1 = np.asarray(p, dtype=float)
        return Q1 @ _logm_rotation(np.swapaxes(Q1, -1, -2) @ np.asarray(q, dtype=float))

    def transport(self, p, q, w, log_pq=None):
        Q1t = np.swapaxes(np.asarray(p, dtype=float), -1, -2)
        E = _expm_skew(0.5 * _skew_part(Q1t @ (self.log(p, q) if log_pq is None else np.asarray(log_pq))))
        return np.swapaxes(Q1t, -1, -2) @ E @ _skew_part(Q1t @ np.asarray(w, dtype=float)) @ E

    def _transported_basis(self, v, q, Eq, u):
        return -u, _expm_skew(0.5 * np.tensordot(u, _SKEW_BASIS, axes=1))

    def _polar_of(self, w):
        A = _as_matrices(w)
        det = np.linalg.det(A)
        _refuse_projection(det <= 1e-12, det, "weighted rotation sum has det =")
        return A, _polar_iterates(A)

    def project_point(self, w):
        return self._polar_of(w)[1][0][-1]

    def projection_jacobian(self, w):
        return _polar_jacobian(*self._polar_of(w)[1])

    def projection_jacobian_deriv(self, w, x):
        return _polar_jacobian_deriv(*self._polar_of(w)[1], x)
