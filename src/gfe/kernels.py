"""Closed-form numeric kernels shared by the manifolds.

- Ratios of trigonometric functions of an angle t.  sin(t)/t, (1 - cos(t))/t**2
  = sinc(t/2)**2/2 and t*cot(t) = cos(t)/sinc(t) cancel nowhere: plain closed
  forms, sin(t)/t guarded at t = 0.  The four of the distance derivatives take
  Taylor series (to t**6) below cutoffs of their own, multiples of
  ``_SERIES_CUTOFF`` where the closed forms have stopped losing eps/t**2 to
  cancellation, so both branches stay within about 5e-13 relative and none
  divides by a vanishing angle; ``_ratios`` evaluates them in one stacked call.
- The inverse and Sylvester's definiteness test of small symmetric
  matrices, stacked with the batch axes last, in closed form.
- Functions of 3x3 rotation matrices: hat and vee, the Rodrigues
  exponential of skew matrices and the principal logarithm, which reads
  the rotation axis from the symmetric part near the half-turn.
- The polar decomposition, computed by the quadratically convergent
  iteration Q <- (Q + Q^-T)/2 in lockstep over leading axes, and its
  first and second derivatives in closed form from Q and A: the
  derivative of the polar factor solves a Sylvester equation, a 3x3
  linear system in the skew coordinates (Higham, Functions of Matrices,
  2008, ch. 8).  ``Rotation3`` uses them as its closest-point projection
  and that projection's derivatives.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergenceError, SingularMatrixError

_CUT_TOL = 1e-8       # distance-to-cut-locus slack before log refuses
_SERIES_CUTOFF = 2e-2  # the angle below which the ratios take their Taylor series


def _near_cut(angle) -> np.ndarray:
    """Mask of the angles, pi at the cut locus, within _CUT_TOL of it."""
    return angle > np.pi - _CUT_TOL


# One row per ratio of an angle t that cancels, c = t*cot(t): the multiple of
# _SERIES_CUTOFF below which it takes its series, then the coefficients of t**0 .. t**6.
_RATIO_TABLE = np.array([
    (1.0, 1.0, 1.0 / 6.0, 7.0 / 360.0, 31.0 / 15120.0),                  # a = t/sin(t)
    (2.5, -1.0 / 6.0, -7.0 / 360.0, -31.0 / 15120.0, -127.0 / 604800.0),  # (1 - a)/t**2
    (1.5, -2.0 / 3.0, -4.0 / 45.0, -4.0 / 315.0, -8.0 / 4725.0),         # (c - c**2 - t**2)/t**2
    (2.5, 1.0 / 3.0, 7.0 / 90.0, 31.0 / 2520.0, 127.0 / 75600.0),        # (1 - c)/t**2 * a
])
_MAX_MULTIPLE = _RATIO_TABLE[:, 0].max()


def _ratios(t) -> np.ndarray:
    """The four ratios of _RATIO_TABLE at the angles t, stacked (4, *t.shape):
    the closed forms, sharing sin(t) and tan(t), at where(|t| < _SERIES_CUTOFF,
    1, t), or each row's series below its cutoff, read only then; one Horner
    pass and one np.where for all rows.  The cutoffs are read at each call."""

    def closed(t):
        sn, tt, c = np.sin(t), t * t, t / np.tan(t)
        a = t / sn
        return np.array([a, (1.0 - a) / tt, (c - c * c - tt) / tt, (1.0 - c) / (t * sn)])

    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    if at.min(initial=np.inf) >= _MAX_MULTIPLE * _SERIES_CUTOFF:
        return closed(t)
    table = _RATIO_TABLE.T.reshape((5, 4) + (1,) * t.ndim)
    t2 = t * t
    series = table[4]
    for c in table[3:0:-1]:
        series = c + t2 * series
    return np.where(at < table[0] * _SERIES_CUTOFF, series, closed(np.where(at < _SERIES_CUTOFF, 1.0, t)))


def _sinc(t):
    """sin(t)/t."""
    t = np.asarray(t, dtype=float)
    return np.divide(np.sin(t), t, out=np.ones_like(t), where=t != 0.0)


def _one_minus_cos_over_sq(t):
    """(1 - cos(t))/t**2 = sinc(t/2)**2/2."""
    return 0.5 * _sinc(0.5 * np.asarray(t, dtype=float)) ** 2


def _t_cot(t):
    """t*cot(t) = cos(t)/sinc(t)."""
    return np.cos(t) / _sinc(t)


# ----------------------------------------------------------------------
# small symmetric matrices, stacked batch-last: (n, n, *batch)


def _sym_inv(A):
    """(inverses, singular mask) of the symmetric matrices A (n, n, ...), the
    inverse of a singular one meaningless: the adjugate over the determinant
    for n <= 3, a 3x3 cofactor being the 2x2 minor of cyclically shifted rows
    and columns, and LAPACK beyond.  The inverses come in F order, so that
    their batch-first stack .T is in C order and a matmul with it takes the
    same numpy loop at every batch size."""
    n = len(A)
    if n > 3:   # A.T is the batch-first stack, as A is symmetric
        singular = np.linalg.det(A.T) == 0.0
        return np.linalg.inv(np.where(singular[..., None, None], np.eye(n), A.T)).T, singular.T
    if n == 3:
        i, j = [1, 2, 0], [2, 0, 1]
        Ai, Aj = A.take(i, 0), A.take(j, 0)
        adj = Ai.take(i, 1) * Aj.take(j, 1) - Ai.take(j, 1) * Aj.take(i, 1)
    elif n == 2:    # [[A11, -A01], [-A10, A00]], a C-order stack
        adj = np.negative(A, order="C")
        adj[0, 0], adj[1, 1] = A[1, 1], A[0, 0]
    else:
        adj = np.ones_like(A)
    det = (A[0] * adj[:, 0]).sum(0)
    return np.divide(adj, np.where(det == 0.0, 1.0, det), order="F"), det == 0.0


def _positive_definite(A):
    """Sylvester's criterion for the symmetric matrices A (n, n, ...): all leading
    minors positive, read off as the elimination pivots (ratios of consecutive
    minors), which stay accurate where the minors themselves would cancel."""
    ok = A[0, 0] > 0.0
    for _ in range(len(A) - 1):
        A = A[1:, 1:] - A[1:, :1] * (A[:1, 1:] / np.where(ok, A[0, 0], 1.0))
        ok &= A[0, 0] > 0.0
    return ok


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
    return 0.5 * (M - M.swapaxes(-1, -2))


_HATS = np.array([_hat(e) for e in np.eye(3)])
# hat(e_k)/sqrt(2): an orthonormal basis of the skew matrices, Frobenius product
_SKEW_BASIS = _HATS / np.sqrt(2.0)
# beyond this angle the rotation axis is read from the symmetric part
_SYMMETRIC_AXIS_ANGLE = 0.75 * np.pi


def _expm_skew(S: np.ndarray) -> np.ndarray:
    """Matrix exponential of 3x3 skew matrices (Rodrigues form)."""
    t = np.linalg.norm(_vee(S), axis=-1)[..., None, None]
    return np.eye(3) + _sinc(t) * S + _one_minus_cos_over_sq(t) * (S @ S)


def _angle_parts(R: np.ndarray):
    """(skew part A, |vee(A)| = sin(angle), angle in [0, pi] via atan2) of rotations R."""
    A = _skew_part(R)
    s = np.linalg.norm(_vee(A), axis=-1)
    c = (np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0
    return A, s, np.arctan2(s, c)


def _logm_rotation(R: np.ndarray):
    """(principal matrix logarithm, angle) of rotations: skew 3x3 results and
    the rotation angles in [0, pi].

    Makes no cut test; the logarithm branches where _near_cut(angle) holds.
    """
    A, s, theta = _angle_parts(R)
    # theta/s rather than theta/sin(theta): s keeps its relative accuracy, and
    # theta = atan2(s, c) keeps the ratio smooth down to s = 0, where A = 0
    out = (theta / np.where(s > 0.0, s, 1.0))[..., None, None] * A
    # Near the half-turn the skew part, of size sin(theta), holds the axis
    # only to eps/sin(theta); (R + R^T)/2 - cos(theta) I = (1 - cos(theta)) a a^T
    # holds it to full accuracy, and the skew part still gives its sign.
    wide = theta > _SYMMETRIC_AXIS_ANGLE
    if wide.any():
        t = theta[wide]
        B = 0.5 * (R[wide] + R[wide].swapaxes(-1, -2)) - np.cos(t)[:, None, None] * np.eye(3)
        j = np.argmax(np.diagonal(B, axis1=-2, axis2=-1), axis=-1)
        a = B[np.arange(len(t)), :, j]
        a = a / np.linalg.norm(a, axis=-1, keepdims=True)
        a = np.where(np.sum(a * _vee(A[wide]), axis=-1, keepdims=True) < 0.0, -a, a)
        out[wide] = t[:, None, None] * np.tensordot(a, _HATS, axes=1)
    return out, theta


# ----------------------------------------------------------------------
# the polar decomposition


_POLAR_TOL = 1e-13
_POLAR_MAX_ITER = 50


def _as_matrices(w) -> np.ndarray:
    """3x3 matrices from (..., 3, 3) input or flattened (..., 9) input."""
    w = np.asarray(w, dtype=float)
    return w if w.shape[-2:] == (3, 3) else w.reshape(w.shape[:-1] + (3, 3))


def _polar_iterates(A: np.ndarray):
    """Run Q <- (Q + Q^-T)/2 from Q = A, in lockstep over leading axes.

    Returns (Q, residuals): the polar factors and, per update, the Frobenius
    norm of its step.  A matrix stops moving (its residual is then 0) after
    the first update below _POLAR_TOL, so each one takes exactly the steps
    it would take alone.
    """
    Q = _as_matrices(A)
    residuals = []
    active = np.ones(Q.shape[:-2], dtype=bool)
    for _ in range(_POLAR_MAX_ITER):
        try:
            Qn = 0.5 * (Q + np.linalg.inv(Q).swapaxes(-1, -2))
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("polar iterate became singular") from exc
        Qn = np.where(active[..., None, None], Qn, Q)
        res = np.linalg.norm(Qn - Q, axis=(-2, -1))
        residuals.append(res)
        active = active & (res > _POLAR_TOL)
        Q = Qn
        if not active.any():
            return Q, residuals
    raise NonConvergenceError(f"polar iteration did not converge in {_POLAR_MAX_ITER} steps")


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
    Q, residuals = _polar_iterates(A)
    return Q, len(residuals)


def _polar_derivative(A, Q, x=None) -> np.ndarray:
    """DP(A) (..., 9, 9) of the polar factor Q = P(A) of flattened matrices,
    or, given s flattened directions x (..., s, 9), its derivative along each,
    D^2P(A)[x_l] (..., s, 9, 9).

    With S = sym(Q^T A) and M = tr(S) I - S, positive definite for det A > 0,
    DP(A)[X] = Q hat(w_X) solves the Sylvester equation S W + W S = Q^T X - X^T Q,
    w_X = M^-1 vee(Q^T X - X^T Q), and its derivative along Z, with
    W_Z = hat(w_Z), dS = Q^T Z - W_Z S and dm = -vee(W_Z Q^T X + X^T Q W_Z), is

        D^2P(A)[X, Z] = Q (W_Z W_X + hat(M^-1 (dm - tr(dS) w_X + dS w_X))).
    """
    T = lambda B: B.swapaxes(-1, -2)  # noqa: E731
    hat = lambda w: np.tensordot(w, _HATS, axes=1)  # noqa: E731
    QtA = T(Q) @ _as_matrices(A)
    S = 0.5 * (QtA + T(QtA))
    M = np.trace(S, axis1=-2, axis2=-1)[..., None, None] * np.eye(3) - S
    Minv = _sym_inv(M.T)[0].T[..., None, :, :]     # M is symmetric: M.T is its batch-last stack

    def omega(K):
        """M^-1 vee(K - K^T) for the matrices K = Q^T X (..., k, 3, 3)."""
        return (Minv @ _vee(K - T(K))[..., None])[..., 0]

    K = T(Q)[..., None, :, :] @ np.eye(9).reshape(9, 3, 3)              # Q^T E_b
    w = omega(K)                                                          # (..., 9, 3)
    if x is None:
        return T((Q[..., None, :, :] @ hat(w)).reshape(w.shape[:-1] + (9,)))
    Kz = T(Q)[..., None, :, :] @ _as_matrices(x)                          # (..., s, 3, 3)
    Wz = hat(omega(Kz))[..., None, :, :]                                  # (..., s, 1, 3, 3)
    N = Wz @ K[..., None, :, :, :]      # W_Z Q^T X, (..., s, 9, 3, 3); X^T Q W_Z = -N^T
    dS = (Kz - Wz[..., 0, :, :] @ S[..., None, :, :])[..., None, :, :]    # (..., s, 1, 3, 3)
    rhs = (dS @ w[..., None, :, :, None])[..., 0] \
        - np.trace(dS, axis1=-2, axis2=-1)[..., None] * w[..., None, :, :] - _vee(N - T(N))
    dw = (Minv[..., None, :, :] @ rhs[..., None])[..., 0]
    D2 = Q[..., None, None, :, :] @ (Wz @ hat(w)[..., None, :, :, :] + hat(dw))
    return T(D2.reshape(D2.shape[:-2] + (9,)))
