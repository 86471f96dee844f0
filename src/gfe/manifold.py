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
  systems of the interpolation modules,
- a closest-point projection ``project_point`` with its Jacobian
  ``projection_jacobian`` (normalization for spheres, the polar
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
is divided by r, which would cost eps/r of accuracy near v = q.  All
operations are pure functions of their inputs; values are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutLocusError,
    DimensionMismatchError,
    NonConvergenceError,
    ProjectionUndefinedError,
    SingularMatrixError,
)

_CUT_TOL = 1e-8       # distance-to-cut-locus slack before log refuses
_SERIES_CUTOFF = 1e-4  # switch to Taylor series below this angle


def _series_or(t, coeffs, closed):
    """closed(t) elementwise, or c0 + c2*t**2 + c4*t**4 below _SERIES_CUTOFF."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < _SERIES_CUTOFF
    if not small.any():
        return closed(t)
    c0, c2, c4 = coeffs
    t2 = t * t
    return np.where(small, c0 + t2 * (c2 + t2 * c4), closed(np.where(small, 1.0, t)))


def _sinc(t):
    """sin(t)/t."""
    return _series_or(t, (1.0, -1.0 / 6.0, 1.0 / 120.0), lambda t: np.sin(t) / t)


def _one_minus_cos_over_sq(t):
    """(1 - cos(t))/t**2."""
    return _series_or(t, (0.5, -1.0 / 24.0, 1.0 / 720.0), lambda t: (1.0 - np.cos(t)) / (t * t))


def _t_over_sin(t):
    """t/sin(t)."""
    return _series_or(t, (1.0, 1.0 / 6.0, 7.0 / 360.0), lambda t: t / np.sin(t))


def _one_minus_t_over_sin_over_sq(t):
    """(1 - t/sin(t))/t**2."""
    return _series_or(
        t, (-1.0 / 6.0, -7.0 / 360.0, -31.0 / 15120.0), lambda t: (1.0 - t / np.sin(t)) / (t * t)
    )


def _t_cot(t):
    """t*cot(t)."""
    return _series_or(t, (1.0, -1.0 / 3.0, -1.0 / 45.0), lambda t: t * np.cos(t) / np.sin(t))


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

    def transport(self, p, q, w) -> np.ndarray:
        """Parallel transport of w in T_p M to T_q M along the connecting geodesic."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # projections (overridden where a projection exists)

    def project_point(self, w) -> np.ndarray:
        raise NotImplementedError

    def projection_jacobian(self, w) -> np.ndarray:
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

    def dist2_mixed(self, v, q, basis_q=None, log_qv=None) -> np.ndarray:
        """Mixed second derivative of dist(v, q)**2, d/dv of the q-gradient.

        Returned as a (..., dim, dim) array mapping tangent_basis(v)
        coefficients of a perturbation of v to tangent_basis(q) coefficients
        of the change in the q-gradient; v may carry leading (node) axes.
        ``basis_q`` is tangent_basis(q) and ``log_qv`` is log(q, v) when the
        caller already has them.  Equals -2*I where v = q.
        """
        self._check_pair(v, q)
        v = np.asarray(v, dtype=float)
        U_v = self._flat(self.log(v, q))                     # (..., N)
        U_q = self._flat(self.log(q, v) if log_qv is None else log_qv)
        r = np.sqrt(_inner(U_q, U_q))                        # (..., 1)
        Bv = self._flat(self.tangent_basis(v))              # (..., dim, N)
        Eq = self._flat(self.tangent_basis(q) if basis_q is None else basis_q)
        # all dim basis columns of v transported to q in one call
        k = len(self.point_shape)
        moved = self._flat(self.transport(
            np.expand_dims(v, -k - 1), np.expand_dims(np.asarray(q, dtype=float), -k - 1),
            Bv.reshape(Bv.shape[:-1] + self.point_shape),
        ))
        a = self._curvature_factor(_t_over_sin, r)[..., None]
        # (1 - a)/r**2, so that no log is divided by r (which costs eps/r near v = q)
        s = self._model_curvature * self._curvature_factor(_one_minus_t_over_sin_over_sq, r)
        # -2*a*Pt(b_j) + 2*s*<b_j, U_v>*U_q in the basis at q, one column j per basis vector
        radial = np.matmul(Eq, U_q[..., :, None]) * np.matmul(Bv, U_v[..., :, None])[..., None, :, 0]
        M = 2.0 * (s[..., None] * radial - a * np.matmul(Eq, np.swapaxes(moved, -1, -2)))
        return np.where((r < 1e-15)[..., None], -2.0 * np.eye(self.intrinsic_dim), M)


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

    def transport(self, p, q, w):
        return np.asarray(w, dtype=float).copy()

    def project_point(self, w):
        return np.array(w, dtype=float)

    def projection_jacobian(self, w):
        return np.broadcast_to(np.eye(self.k), np.shape(w) + (self.k,)).copy()


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

    def transport(self, p, q, w):
        # the component along u = log_p(q) turns with the great circle, the
        # rest stays: w - <w, u> ((1 - cos t)/t**2 * u + sin(t)/t * p), t = |u|
        u = self.log(p, q)
        w = np.asarray(w, dtype=float)
        t = np.sqrt(_inner(u, u))
        turn = _one_minus_cos_over_sq(t) * u + _sinc(t) * np.asarray(p, dtype=float)
        return w - _inner(w, u) * turn

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


# ----------------------------------------------------------------------
# SO(3)


def _hat(w: np.ndarray) -> np.ndarray:
    """Skew matrix with _hat(w) @ x = w x x (cross product)."""
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def _vee(S: np.ndarray) -> np.ndarray:
    """Inverse of _hat on skew matrices; broadcasts over leading axes."""
    return np.stack([S[..., 2, 1], S[..., 0, 2], S[..., 1, 0]], axis=-1)


def _skew_part(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M - np.swapaxes(M, -1, -2))


_HATS = np.array([_hat(e) for e in np.eye(3)])
# hat(e_k)/sqrt(2): an orthonormal basis of the skew matrices, Frobenius product
_SKEW_BASIS = _HATS / np.sqrt(2.0)
# beyond this angle the rotation axis is read from the symmetric part
_SYMMETRIC_AXIS_ANGLE = 0.75 * np.pi


def _expm_skew(S: np.ndarray) -> np.ndarray:
    """Matrix exponential of 3x3 skew matrices (Rodrigues form)."""
    theta = np.linalg.norm(_vee(S), axis=-1)[..., None, None]
    return np.eye(3) + _sinc(theta) * S + _one_minus_cos_over_sq(theta) * (S @ S)


def _angle_parts(R: np.ndarray):
    """(skew part A, |vee(A)| = sin(angle), angle in [0, pi] via atan2) of rotations R."""
    A = _skew_part(R)
    s = np.linalg.norm(_vee(A), axis=-1)
    c = (np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0
    return A, s, np.arctan2(s, c)


def _logm_rotation(R: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm of rotations; skew 3x3 results.

    Raises CutLocusError within _CUT_TOL of a half-turn, where the
    logarithm branches.
    """
    A, s, theta = _angle_parts(R)
    if theta.max() > np.pi - _CUT_TOL:
        raise CutLocusError(
            f"rotation angle {float(theta.max()):.6f} is (numerically) at the half-turn"
        )
    # theta/s rather than theta/sin(theta): s keeps its relative accuracy
    factor = _series_or(theta, (1.0, 1.0 / 6.0, 7.0 / 360.0), lambda t: t)
    factor = factor / np.where(theta < _SERIES_CUTOFF, 1.0, s)
    out = factor[..., None, None] * A
    # Near the half-turn the skew part, of size sin(theta), holds the axis
    # only to eps/sin(theta); (R + R^T)/2 - cos(theta) I = (1 - cos(theta)) a a^T
    # holds it to full accuracy, and the skew part still gives its sign.
    wide = theta > _SYMMETRIC_AXIS_ANGLE
    if wide.any():
        t = theta[wide]
        B = 0.5 * (R[wide] + np.swapaxes(R[wide], -1, -2)) - np.cos(t)[:, None, None] * np.eye(3)
        j = np.argmax(np.diagonal(B, axis1=-2, axis2=-1), axis=-1)
        a = B[np.arange(len(t)), :, j]
        a = a / np.linalg.norm(a, axis=-1, keepdims=True)
        a = np.where(np.sum(a * _vee(A[wide]), axis=-1, keepdims=True) < 0.0, -a, a)
        out[wide] = t[:, None, None] * np.tensordot(a, _HATS, axes=1)
    return out


_POLAR_TOL = 1e-13


def _as_matrices(w) -> np.ndarray:
    """3x3 matrices from (..., 3, 3) input or flattened (..., 9) input."""
    w = np.asarray(w, dtype=float)
    return w if w.shape[-2:] == (3, 3) else w.reshape(w.shape[:-1] + (3, 3))


def _polar_iterates(A: np.ndarray, max_iter: int = 50):
    """Run Q <- (Q + Q^-T)/2 from Q = A, in lockstep over leading axes.

    Returns (iterates, residuals): ``iterates[0]`` is A itself,
    ``iterates[k]`` the k-th update and ``residuals[k-1]`` the Frobenius
    norm of iterates[k]-iterates[k-1].  A matrix stops moving (its residual
    is then 0) after the first update below _POLAR_TOL, so each one takes
    exactly the steps it would take alone.
    """
    Q = _as_matrices(A).copy()
    iterates, residuals = [Q], []
    active = np.ones(Q.shape[:-2], dtype=bool)
    for _ in range(max_iter):
        try:
            Qn = 0.5 * (Q + np.swapaxes(np.linalg.inv(Q), -1, -2))
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("polar iterate became singular") from exc
        Qn = np.where(active[..., None, None], Qn, Q)
        res = np.linalg.norm(Qn - Q, axis=(-2, -1))
        iterates.append(Qn)
        residuals.append(res)
        active = active & (res > _POLAR_TOL)
        Q = Qn
        if not active.any():
            return iterates, residuals
    raise NonConvergenceError(f"polar iteration did not converge in {max_iter} steps")


def polar_decompose(A: np.ndarray):
    """Orthogonal polar factor of a 3x3 matrix with positive determinant.

    Returns ``(Q, iterations)`` where Q is the closest rotation to A in the
    Frobenius norm and ``iterations`` counts the update steps performed.
    Q^T A is symmetric positive definite for valid input.
    """
    A = _as_matrices(A)
    det = float(np.linalg.det(A))
    if abs(det) < 1e-12:
        raise SingularMatrixError(f"matrix is numerically singular (det = {det:.3e})")
    if det < 0.0:
        raise SingularMatrixError(f"polar factor is not a rotation for det = {det:.3e} < 0")
    iterates, residuals = _polar_iterates(A)
    return iterates[-1], len(residuals)


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

    def transport(self, p, q, w):
        Q1 = np.asarray(p, dtype=float)
        Q1t = np.swapaxes(Q1, -1, -2)
        E = _expm_skew(0.5 * _logm_rotation(Q1t @ np.asarray(q, dtype=float)))
        Om = _skew_part(Q1t @ np.asarray(w, dtype=float))
        return Q1 @ E @ Om @ E

    def _polar_of(self, w):
        A = _as_matrices(w)
        det = np.linalg.det(A)
        _refuse_projection(det <= 1e-12, det, "weighted rotation sum has det =")
        return A, _polar_iterates(A)

    def project_point(self, w):
        return self._polar_of(w)[1][0][-1]

    def projection_jacobian(self, w):
        A, (iterates, residuals) = self._polar_of(w)
        # Seed one derivative per embedding coordinate and push all nine
        # through the primal's iterates, dQ' = (dQ - Q^-T dQ^T Q^-T)/2, for
        # as many steps as each matrix took.
        D = np.broadcast_to(np.eye(9).reshape(9, 3, 3), A.shape[:-2] + (9, 3, 3))
        active = np.ones(A.shape[:-2] + (1, 1, 1), dtype=bool)
        for Q, res in zip(iterates[:-1], residuals):
            B = np.swapaxes(np.linalg.inv(Q), -1, -2)[..., None, :, :]
            D = np.where(active, 0.5 * (D - B @ np.swapaxes(D, -1, -2) @ B), D)
            active = active & (res > _POLAR_TOL)[..., None, None, None]
        return np.swapaxes(D.reshape(A.shape[:-2] + (9, 9)), -1, -2)
