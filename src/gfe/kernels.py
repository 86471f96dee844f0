"""Closed-form numeric kernels shared by the manifolds.

- Ratios of trigonometric functions of an angle t (sin(t)/t, t/sin(t),
  t*cot(t), ...) with Taylor-series fallbacks below a cutoff of their own,
  a multiple of ``_SERIES_CUTOFF``, so none of them divides by a vanishing
  angle.  Each series runs to t**6 and each cutoff lies where its closed
  form has stopped losing eps/t**2 to cancellation: both branches stay
  within about 5e-13 relative.
- Functions of 3x3 rotation matrices: hat and vee, the Rodrigues
  exponential of skew matrices and the principal logarithm, which reads
  the rotation axis from the symmetric part near the half-turn.
- The polar decomposition, computed by the quadratically convergent
  iteration Q <- (Q + Q^-T)/2 in lockstep over leading axes, and its
  first and second derivatives, by forward-mode differentiation of the
  same iterates truncated at the primal's iteration count, so they are the
  exact derivatives of the computed factor.  ``Rotation3`` uses them as
  its closest-point projection and that projection's derivatives.
"""

from __future__ import annotations

import numpy as np

from .errors import CutLocusError, NonConvergenceError, SingularMatrixError

_CUT_TOL = 1e-8       # distance-to-cut-locus slack before log refuses
_SERIES_CUTOFF = 2e-2  # the angle below which the ratios take their Taylor series


def _series_or(t, coeffs, closed, scale=1.0):
    """closed(t) elementwise, or sum_k coeffs[k] * t**(2k) below scale * _SERIES_CUTOFF;
    coeffs[k] may stack several ratios' coefficients, as closed(t) stacks the ratios."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < scale * _SERIES_CUTOFF
    if not small.any():
        return closed(t)
    out = np.asarray(closed(np.where(small, 1.0, t)))
    t2 = np.square(t[small])
    series = coeffs[-1]
    for c in coeffs[-2::-1]:
        series = c + t2 * series
    out[..., small] = series
    return out


_SINC = (1.0, -1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0)
_ONE_MINUS_COS_OVER_SQ = (0.5, -1.0 / 24.0, 1.0 / 720.0, -1.0 / 40320.0)
_RODRIGUES = np.array([_SINC, _ONE_MINUS_COS_OVER_SQ]).T[..., None]   # both, (terms, 2, 1)


def _sinc(t):
    """sin(t)/t."""
    return _series_or(t, _SINC, lambda t: np.sin(t) / t)


def _one_minus_cos_over_sq(t):
    """(1 - cos(t))/t**2."""
    return _series_or(t, _ONE_MINUS_COS_OVER_SQ, lambda t: (1.0 - np.cos(t)) / (t * t))


def _t_over_sin(t):
    """t/sin(t)."""
    return _series_or(t, (1.0, 1.0 / 6.0, 7.0 / 360.0, 31.0 / 15120.0), lambda t: t / np.sin(t))


def _one_minus_t_over_sin_over_sq(t):
    """(1 - t/sin(t))/t**2."""
    return _series_or(t, (-1.0 / 6.0, -7.0 / 360.0, -31.0 / 15120.0, -127.0 / 604800.0),
                      lambda t: (1.0 - t / np.sin(t)) / (t * t), scale=2.5)


def _t_cot(t):
    """t*cot(t)."""
    return _series_or(t, (1.0, -1.0 / 3.0, -1.0 / 45.0, -2.0 / 945.0), lambda t: t / np.tan(t))


def _t_cot_slope_over_t(t):
    """(d/dt (t*cot(t)))/t = (a - a**2 - t**2)/t**2 with a = t*cot(t)."""

    def closed(t):
        a = t / np.tan(t)
        return (a - a * a - t * t) / (t * t)

    return _series_or(t, (-2.0 / 3.0, -4.0 / 45.0, -4.0 / 315.0, -8.0 / 4725.0), closed, scale=1.5)


def _one_minus_t_cot_over_sq_times_t_over_sin(t):
    """(1 - t*cot(t))/t**2 * t/sin(t)."""
    return _series_or(
        t, (1.0 / 3.0, 7.0 / 90.0, 31.0 / 2520.0, 127.0 / 75600.0),
        lambda t: (1.0 - t / np.tan(t)) / (t * np.sin(t)), scale=2.5,
    )


# ----------------------------------------------------------------------
# rotation matrices


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
    """Matrix exponential of 3x3 skew matrices (Rodrigues form), its two ratios under one mask."""
    sinc, cos2 = _series_or(np.linalg.norm(_vee(S), axis=-1)[..., None, None], _RODRIGUES,
                            lambda t: np.stack([np.sin(t) / t, (1.0 - np.cos(t)) / (t * t)]))
    return np.eye(3) + sinc * S + cos2 * (S @ S)


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
    # theta/s rather than theta/sin(theta): s keeps its relative accuracy, and
    # theta = atan2(s, c) keeps the ratio smooth down to s = 0, where A = 0
    out = (theta / np.where(s > 0.0, s, 1.0))[..., None, None] * A
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


# ----------------------------------------------------------------------
# the polar decomposition


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


def _polar_jacobian(iterates, residuals) -> np.ndarray:
    """d(polar factor)/dA (..., 9, 9) of flattened matrices, from the primal's
    iterates and residuals.

    One derivative per embedding coordinate is seeded and all nine are
    pushed through the iterates, dQ' = (dQ - B dQ^T B)/2 with B = Q^-T, for
    as many steps as each matrix took.
    """
    lead = iterates[0].shape[:-2]
    D = np.broadcast_to(np.eye(9).reshape(9, 3, 3), lead + (9, 3, 3))
    active = np.ones(lead + (1, 1, 1), dtype=bool)
    for Q, res in zip(iterates[:-1], residuals):
        B = np.swapaxes(np.linalg.inv(Q), -1, -2)[..., None, :, :]
        D = np.where(active, 0.5 * (D - B @ np.swapaxes(D, -1, -2) @ B), D)
        active = active & (res > _POLAR_TOL)[..., None, None, None]
    return np.swapaxes(D.reshape(lead + (9, 9)), -1, -2)


def _polar_jacobian_deriv(iterates, residuals, x) -> np.ndarray:
    """The derivative of _polar_jacobian along each of the s flattened
    directions x (..., s, 9): shape (..., s, 9, 9).

    Second-order forward mode through the same iterates: D[k] = dQ along
    embedding coordinate k, Dx[l] = dQ along x[l] and D2[l, k] the second
    derivative, with B = Q^-T,

        d2Q' = (d2Q - B d2Q^T B + B dQ_k^T B dQ_x^T B + B dQ_x^T B dQ_k^T B)/2.
    """
    lead_A = iterates[0].shape[:-2]
    x = np.asarray(x, dtype=float)
    Dx = x.reshape(x.shape[:-1] + (3, 3))[..., :, None, :, :]           # (..., s, 1, 3, 3)
    lead = np.broadcast_shapes(lead_A, Dx.shape[:-4])
    D = np.broadcast_to(np.eye(9).reshape(9, 3, 3), lead + (1, 9, 3, 3))
    D2 = np.zeros(lead + (Dx.shape[-4], 9, 3, 3))
    active = np.ones(lead_A + (1, 1, 1, 1), dtype=bool)
    T = lambda M: np.swapaxes(M, -1, -2)  # noqa: E731
    for Q, res in zip(iterates[:-1], residuals):
        B = T(np.linalg.inv(Q))[..., None, None, :, :]
        Y, Z = B @ T(D), B @ T(Dx)
        D2 = np.where(active, 0.5 * (D2 - B @ T(D2) @ B + (Y @ Z + Z @ Y) @ B), D2)
        D = np.where(active, 0.5 * (D - Y @ B), D)
        Dx = np.where(active, 0.5 * (Dx - Z @ B), Dx)
        active = active & (res > _POLAR_TOL)[..., None, None, None, None]
    return T(D2.reshape(D2.shape[:-2] + (9,)))
