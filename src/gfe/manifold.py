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
- the two second-derivative blocks of squared distance, ``dist2_hess_q``
  and ``dist2_mixed``, that drive the implicit derivative systems of the
  interpolation modules, and ``dist2_third``, their derivatives as q moves,
  which the exact gradients of test fields need, all three computed from
  the coefficients u of log_q(v) in tangent_basis(q) (``_log_coeffs``),
- a closest-point projection ``project_point`` with its Jacobian
  ``projection_jacobian`` and the Jacobian's derivative
  ``projection_jacobian_deriv``, both taken at the projected point
  (normalization for spheres, the polar decomposition for rotations, the
  identity for flat space).

Every operation broadcasts over leading axes, so one call serves all nodal
values of all points of a batch; per-point results (``dist`` of two
points) come back as floats.  Point checks and projections that fail on a
batch report its first failing entry, projections also as the error's ``point``.

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
T = E_q B_v^T - ((1 - cos r)/r**2) u w^T, one contraction of the frames,
B_v per node from the caller (``_frame_transport``); on SO(3), where
log_q(v) = q hat(u)/sqrt(2) and transport is left translation by exp of
half the log, T = exp(hat(h)), h = u/(2 sqrt(2)), hat(h)^2 = h h^T - |h|^2 I,
and w = -u.
``_transported_basis`` forms T; ``_transported_adjoint`` applies T^T to one
covector x per pair without forming it, so that no array of the energy's
reverse-mode gradient outgrows u (dim, m, P): E_q^T x, B_v E_q^T x - ((1 -
cos r)/r**2) <u, x> w and x - sinc h x x + cos2 (h <h, x> - |h|^2 x).  The
ratios a, s, g1 and g3 of rho come from one stacked ``kernels._ratios``
call, and so does the Rodrigues pair of |h| = rho: sin(rho)/rho = 1/a and
(1 - cos rho)/r**2 = (g3/a - s)/a.  sin(t)/t, (1 - cos t)/t**2 and
t*cot(t), which cancel nowhere, are plain closed forms.

These kernels, the Hessian's aside, work batch-last: component axes first,
then the node and point axes, contiguous (q, Eq and B_v may be views), so
the 3x3 algebra is elementwise over whole arrays of points; the transport
kernels take B_v first, None where no transport reads it.  P is never
formed; ``_third_blocks`` is ``dist2_third`` batch-last, as the geodesic
rule reads it.  All are pure functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutLocusError, DimensionMismatchError, ProjectionUndefinedError
from .kernels import (
    _SKEW_BASIS,
    _as_matrices,
    _expm_skew,
    _logm_rotation,
    _near_cut,
    _one_minus_cos_over_sq,
    _polar_derivative,
    _polar_iterates,
    _ratios,
    _sinc,
    _skew_part,
    _t_cot,
)

def _inner(a, b) -> np.ndarray:
    """<a, b> over the last axis, kept as a length-1 axis; broadcasts."""
    return (a[..., None, :] @ b[..., :, None])[..., 0]


@functools.cache
def _eye(n, ndim=0, cols=None) -> np.ndarray:
    """The n x n (n x cols) identity, read-only, with ndim trailing batch axes of length 1."""
    eye = np.eye(n, cols).reshape((n, cols or n) + (1,) * ndim)
    eye.flags.writeable = False
    return eye


def _batch_last_view(x, lead, k) -> np.ndarray:
    """x (..., *comp) with k component axes, its leading axes broadcast to lead, viewed
    batch-last as (*comp, *reversed(lead)), so that the longest batch axis comes last."""
    x = np.asarray(x, dtype=float)
    if x.shape[:x.ndim - k] != lead:
        x = np.broadcast_to(x, lead + x.shape[x.ndim - k:])
    nb = len(lead)
    return x.transpose(tuple(range(nb, x.ndim)) + tuple(range(nb - 1, -1, -1)))


def _batch_last(x, lead, k) -> np.ndarray:
    """_batch_last_view(x, lead, k) as a contiguous array."""
    return np.ascontiguousarray(_batch_last_view(x, lead, k))


def _batch_first(x, k) -> np.ndarray:
    """The view (*lead, *comp) of a batch-last array x (*comp, *reversed(lead))."""
    return x.transpose(tuple(range(x.ndim - 1, k - 1, -1)) + tuple(range(k)))


def _scalar(x):
    """A float for a 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _binary_scaled(v, k):
    """(v/s, 1/s), s = 2**e >= 1 the least such power of two above every |entry| of v over
    its k trailing axes (1/s without them): exact scaling, under which |v/s|**2 cannot overflow."""
    inv = np.ldexp(1.0, -np.maximum(np.frexp(np.abs(v).max(axis=tuple(range(-k, 0))))[1], 0))
    return v * inv.reshape(inv.shape + (1,) * k), inv


def _rodrigues_pair(F):
    """sin(rho)/rho and (1 - cos(rho))/|u|**2, rho = sqrt(K)*|u|, from the ratios F =
    Manifold._curvature_ratios(u)[1]: 1/a and (g3/a - s)/a."""
    a, s, _, g3 = F
    sinc = 1.0 / a
    return sinc, (g3 * sinc - s) * sinc


_PROJECTION_FLOOR = 1e-12  # the norm (spheres) or determinant (SO(3)) project_point needs


def _refuse_projection(gauge, what: str) -> None:
    """Raise ProjectionUndefinedError at the first entry of gauge not above the floor."""
    bad = (~(gauge > _PROJECTION_FLOOR)).ravel().nonzero()[0]  # NaN too, as _projectable says
    if len(bad):
        exc = ProjectionUndefinedError(f"projection undefined: {what} {float(gauge.flat[bad[0]]):.3e}")
        exc.point = int(bad[0])
        raise exc


class Manifold:
    """Shared interface and the constant-curvature derivative blocks.

    Concrete subclasses set ``kind``, the sizes ``intrinsic_dim``,
    ``point_shape``, ``embed_dim`` (the product of point_shape) and
    ``injectivity_radius`` as attributes fixed at construction,
    the advisory ``curvature_bound`` entering the Karcher-ball diagnostic,
    ``_model_curvature``, the actual constant sectional curvature used by
    the closed-form second derivatives of squared distance, and for ``log``
    and ``dist`` ``_cut_message`` and ``_dist_per_angle`` (flat space has
    its own ``dist``).  They implement, all broadcasting over leading axes:

    - ``check_point(p)``, and ``check_tangent(p, v)``, which raises
      ValueError unless v is tangent at p, both after ``_finite_array``;
    - ``project_tangent(p, w)``, the orthogonal projection onto T_p M;
    - ``exp``, ``_log(p, q)`` -> (log_p(q), angle), pi at the cut locus,
      with no cut test (``log`` adds it, ``dist`` reads the angle), and
      ``transport(p, q, w)``, parallel transport from T_p M to T_q M along
      the connecting geodesic;
    - ``tangent_basis(p)``: an orthonormal basis of T_p M, shape (..., dim,
      *point_shape), a closed form in the entries of p, so the same point
      always yields the bitwise-identical basis;
    - the mask ``_projectable(w)``, ``project_point(w)``, which refuses w
      outside the projection's domain, and, at q = project_point(w) with no
      second check, ``projection_jacobian(w, q)`` and
      ``projection_jacobian_deriv(w, q, x)``, the derivative of the Jacobian
      along each of the s embedding directions x (..., s, N), shape (..., s,
      N, N): the second derivative of project_point with its first slot
      filled by x.
    """

    kind: str
    intrinsic_dim: int
    point_shape: tuple
    embed_dim: int
    injectivity_radius: float
    curvature_bound: float | None
    _model_curvature: float
    _frame_transport = False    # whether the transport reads the frames at v (spheres)

    def _finite_array(self, x, what: str) -> np.ndarray:
        """x as a float array (..., *point_shape): DimensionMismatchError for another shape,
        ValueError for a NaN or infinite entry, which would pass the checks' tolerance
        tests (nan > tol is False, inf <= tol * inf holds) or make them warn."""
        x = np.asarray(x, dtype=float)
        if x.shape[-len(self.point_shape):] != self.point_shape:
            raise DimensionMismatchError(f"expected {what} of shape {self.point_shape}, got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError(f"{what} has a non-finite entry")
        return x

    def _check_pair(self, p, q) -> None:
        k = len(self.point_shape)
        if np.shape(p)[-k:] != self.point_shape or np.shape(q)[-k:] != self.point_shape:
            raise DimensionMismatchError(
                f"expected two points of shape {self.point_shape} on {self.kind}, "
                f"got {np.shape(p)} and {np.shape(q)}"
            )

    def dist(self, p, q):
        """The angle of ``_log`` times ``_dist_per_angle``, 0 where p == q exactly."""
        self._check_pair(p, q)
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        same = np.all(self._flat(p) == self._flat(q), axis=-1)
        return _scalar(np.where(same, 0.0, self._dist_per_angle * self._log(p, q)[1]))

    def log(self, p, q):
        """log_p(q), broadcasting; raises CutLocusError where q is within
        _CUT_TOL of the cut locus of p."""
        self._check_pair(p, q)
        log, angle = self._log(p, q)
        if _near_cut(angle).any():
            raise self._cut_locus_error(angle.max())
        return log

    def _cut_locus_error(self, angle) -> CutLocusError:
        return CutLocusError(self._cut_message.format(float(angle)))

    def _flat(self, x) -> np.ndarray:
        """Flatten the trailing point axes of x into one embedding axis."""
        x = np.asarray(x, dtype=float)
        return x.reshape(x.shape[: x.ndim - len(self.point_shape)] + (self.embed_dim,))

    # ------------------------------------------------------------------
    # second-derivative blocks of squared distance

    def dist2_hess_q(self, v, q) -> np.ndarray:
        """Hessian of q -> dist(v, q)**2 in the tangent_basis(q) coordinates.

        v may carry leading (node) axes; the result has shape
        (..., dim, dim), symmetric, and equals 2*I where v = q.  Requires q
        within the injectivity radius of v (raises CutLocusError otherwise).
        """
        return self._dist2_hess_q(self._log_coeffs(v, q)[1])

    def _dist2_hess_q(self, u) -> np.ndarray:
        """dist2_hess_q from the coefficients u (..., dim) of log_q(v) in tangent_basis(q):
        2*(a*I + (1 - a)*c c^T), a = t*cot(t) at t = sqrt(K)*|u|, c = u/|u| (0 where v = q)."""
        r = np.sqrt(_inner(u, u))
        c = u / np.where(r < 1e-15, np.inf, r)
        a = _t_cot(math.sqrt(self._model_curvature) * r)[..., None]    # 1 on flat space
        return 2.0 * (a * _eye(u.shape[-1]) + (1.0 - a) * (c[..., :, None] * c[..., None, :]))

    def _transported_adjoint(self, B, q, Eq, u, x, F):
        """(T^T x, w) of the module docstring, batch-last, for one covector x (dim, ...) per pair, from the
        frames B (dim, N, ...) at v, q, Eq, u (dim, ...) and F = _curvature_ratios(u)[1]; flat: T = Eq."""
        return (Eq * x[:, None]).sum(0), -(Eq * u[:, None]).sum(0)

    def _transported_basis(self, B, q, Eq, u, F):
        """(w, T), (dim, ...) and (dim, dim, ...): T^T applied to the identity."""
        Tt, w = self._transported_adjoint(B, q, Eq[:, :, None], u[:, None], _eye(len(u), u.ndim - 1), F)
        return w[:, 0], Tt.swapaxes(0, 1)

    def _curvature_ratios(self, u):
        """r = |u| and the stacked kernels._ratios(rho), rho = sqrt(K)*r:
        a, then s, g1 and g3 times K; on flat space a = 1 and s = g1 = g3 = 0."""
        r = np.sqrt((u * u).sum(0))
        K = self._model_curvature
        F = _ratios(np.sqrt(K) * r) if K > 0.0 else np.ones((4,) + r.shape)
        F[1:] *= K
        return r, F

    def _mixed(self, B, q, Eq, u, r, F):
        """(w, T, dist2_mixed(v, q) (dim, dim, ...)) from the batch-last B, q, Eq and coefficients u
        of log_q(v) of _transported_adjoint, and r, F = _curvature_ratios(u)."""
        w, T = self._transported_basis(B, q, Eq, u, F)
        # -2*a*Pt(b_j) + 2*s*<b_j, log_v q>*log_q v, column j; s = (1 - a)/r**2,
        # so that no log is divided by r (which costs eps/r near v = q)
        M = 2.0 * (F[1] * u[:, None] * w - F[0] * T)
        return w, T, np.where(r < 1e-15, -2.0 * _eye(len(u), r.ndim), M)

    def _log_coeffs(self, v, q):
        """(Eq, u): the flattened tangent_basis(q) and the coefficients u of log(q, v) in it."""
        self._check_pair(v, q)
        Eq = self._flat(self.tangent_basis(q))
        return Eq, np.matmul(Eq, self._flat(self.log(q, v))[..., :, None])[..., 0]

    def _batch_last_args(self, v, q, *extra):
        """Batch-last the flattened frames B at v (where ``_frame_transport``), q, Eq and u of _log_coeffs,
        then the arrays of the (array, component axes) pairs extra, all over their broadcast leading axes."""
        Eq, u = self._log_coeffs(v, q)
        args = ((self._flat(q), 1), (Eq, 2), (u, 1)) + extra
        lead = np.broadcast_shapes(*(np.shape(x)[:np.ndim(x) - c] for x, c in args))
        B = _batch_last(self._flat(self.tangent_basis(v)), lead, 2) if self._frame_transport else None
        return [B] + [_batch_last(x, lead, c) for x, c in args]

    def dist2_mixed(self, v, q) -> np.ndarray:
        """Mixed second derivative of dist(v, q)**2, d/dv of the q-gradient.

        Returned as a (..., dim, dim) array mapping tangent_basis(v) coefficients of a
        perturbation of v to tangent_basis(q) coefficients of the change in the
        q-gradient; v may carry leading (node) axes.  Equals -2*I where v = q.
        """
        args = self._batch_last_args(v, q)
        return _batch_first(self._mixed(*args, *self._curvature_ratios(args[3]))[-1], 2)

    def dist2_third(self, v, q, X, weights):
        """Third derivatives of squared distance as q moves, for the weighted
        sum f(q) = sum_i weights_i * dist(v_i, q)**2: from the m points v
        (..., m, *point_shape), their weights (..., m) and the tangent_basis(q)
        coefficients X (..., s, dim) of s directions at q (..., *point_shape),
        ``(mixed, hess_X, mixed_X)``: dist2_mixed(v_i, q) (..., m, dim, dim),
        and along each X[..., l, :] the covariant derivatives of the Hessian of
        f (..., s, dim, dim) and of dist2_mixed(v_i, q) (..., m, s, dim, dim).
        Both derivatives vanish where v_i = q and on flat space.
        """
        q = np.expand_dims(np.asarray(q, dtype=float), -len(self.point_shape) - 1)
        # per-point data is broadcast over the nodes too, so hess_X comes back once per node
        mixed, hess_X, mixed_X = self._third_blocks(
            *self._batch_last_args(v, q, (np.expand_dims(X, -3), 2), (weights, 0)))
        return _batch_first(mixed, 2), _batch_first(hess_X, 3)[..., 0, :, :, :], _batch_first(mixed_X, 3)

    def _third_blocks(self, B, q, Eq, u, X, phi):
        """dist2_third batch-last, the node axis 1 for per-point data: from B, q, Eq and u of _mixed,
        X (s, dim, 1, ...) and phi (m, ...), mixed (dim, dim, m, ...), hess_X (s, dim, dim, 1, ...)
        and mixed_X (s, dim, dim, m, ...)."""
        (r, F), K, ein = self._curvature_ratios(u), self._model_curvature, np.einsum
        g1, g3, rinv = F[2], F[3], 1.0 / np.where(r < 1e-15, np.inf, r)
        w, T, mixed = self._mixed(B, q, Eq, u, r, F)
        uX, n = ein("la...,a...->l...", X, u), u * rinv
        nX, TX = uX * rinv, ein("aj...,la...->lj...", T, X)
        # mixed_X = 2 (g3 (<u, X> P T + u (PX)^T T) - g1 PX w^T), column j, P = I - n n^T, T^T n = -w/r,
        # the scalars on the smaller operands
        Xw = ((4.0 * g3 + 2.0 * g1) * nX * rinv)[:, None] * u - (2.0 * g1) * X
        mixed_X = (2.0 * g3 * uX)[:, None, None] * T + u[:, None] * (2.0 * g3 * TX)[:, None] + Xw[:, :, None] * w
        # hess_X = -2 sum_i phi_i (g1 <u, X> P + g2 (PX u^T + u PX^T)) = -2 (F I + X Y^T + Y X^T - N), g2 =
        # g1 + K, F, Y, N the sums of phi_i g1 <u_i, X>, phi_i g2 u_i and phi_i (3 g1 + 2 K) <u_i, X> n_i n_i^T
        N = ein("li...,ai...,bi...->lab...", phi * (3.0 * g1 + 2.0 * K) * uX, n, n)[:, :, :, None]
        XY = X[:, :, None] * ein("i...,ai...->a...", phi * (g1 + K), u)[:, None]
        hess_X = -2.0 * ((phi * g1 * uX).sum(1)[:, None, None, None] * _eye(len(u), u.ndim - 1)
                         + XY + XY.swapaxes(1, 2) - N)
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
    injectivity_radius = np.inf
    curvature_bound: float | None = None
    _model_curvature = 0.0

    def __post_init__(self):    # the sizes, fixed once; the frozen class refuses setattr
        self.__dict__.update(intrinsic_dim=self.k, point_shape=(self.k,), embed_dim=self.k)

    def check_point(self, p) -> None:
        self._finite_array(p, "a point")

    def check_tangent(self, p, v) -> None:
        self._finite_array(v, "a tangent vector")

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

    def _log(self, p, q):
        d = np.subtract(q, p, dtype=float)
        return d, np.zeros(d.shape[:-1])

    def transport(self, p, q, w):
        return np.asarray(w, dtype=float).copy()

    def _projectable(self, w) -> np.ndarray:
        return np.ones(np.shape(w)[:-1], dtype=bool)

    def project_point(self, w):
        return np.array(w, dtype=float)

    def projection_jacobian(self, w, q):
        return np.broadcast_to(np.eye(self.k), np.shape(w) + (self.k,)).copy()

    def projection_jacobian_deriv(self, w, q, x):
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
    _cut_message = "points at distance {:.6f} are (numerically) antipodal"
    _dist_per_angle = 1.0
    _frame_transport = True
    injectivity_radius = np.pi
    curvature_bound: float | None = 1.0
    _model_curvature = 1.0

    def __post_init__(self):    # the sizes, fixed once; the frozen class refuses setattr
        self.__dict__.update(intrinsic_dim=self.n, point_shape=(self.n + 1,), embed_dim=self.n + 1)

    def check_point(self, p) -> None:
        nrm = np.linalg.norm(self._finite_array(p, "a point"), axis=-1)
        bad = ~(np.abs(nrm - 1.0) <= 1e-12)
        if bad.any():
            raise ValueError(f"sphere point is not unit length: |p| = {float(nrm[bad].flat[0])!r}")

    def check_tangent(self, p, v) -> None:
        # scale-aware so that representation dust on large vectors passes, and
        # scaled by a power of two, which changes no decision, so that |v|**2 cannot overflow
        v, inv = _binary_scaled(self._finite_array(v, "a tangent vector"), 1)
        dot = np.abs(np.sum(np.asarray(p, dtype=float) * v, axis=-1))
        if (~(dot <= 1e-10 * np.maximum(inv, np.linalg.norm(v, axis=-1)))).any():
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
        return _eye(n, cols=n + 1) - (scale * w[..., :n])[..., :, None] * w[..., None, :]

    def exp(self, p, v):
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        theta = np.sqrt(_inner(v, v))
        q = np.cos(theta) * p + _sinc(theta) * v
        return q / np.sqrt(_inner(q, q))

    def _log(self, p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        c = _inner(p, q)
        u = q - c * p
        nrm = np.sqrt(_inner(u, u))
        # atan2 of (sin, cos) stays well conditioned at all angles, unlike
        # arccos, which loses ~eps/theta accuracy near aligned points
        theta = np.arctan2(nrm, c)
        # zero where the points (numerically) coincide
        return (theta / np.where(nrm < 1e-14, np.inf, nrm)) * u, theta[..., 0]

    def transport(self, p, q, w):
        # the component along u = log_p(q) turns with the great circle, the
        # rest stays: w - <w, u> ((1 - cos t)/t**2 * u + sin(t)/t * p), t = |u|
        u = self.log(p, q)
        w = np.asarray(w, dtype=float)
        t = np.sqrt(_inner(u, u))
        turn = _one_minus_cos_over_sq(t) * u + _sinc(t) * np.asarray(p, dtype=float)
        return w - _inner(w, u) * turn

    def _frame_log(self, B, q, Eq, u, F):
        """(w, (1 - cos r)/r**2): w = B log_v(q), in the frames B at v (dim, N, ...)."""
        sinc, cos2 = _rodrigues_pair(F)
        r2 = (u * u).sum(0)
        log_vq = (r2 * sinc) * q - (1.0 - r2 * cos2) * np.einsum("a...,ak...->k...", u, Eq)
        return np.einsum("jk...,k...->j...", B, log_vq), cos2

    def _transported_adjoint(self, B, q, Eq, u, x, F):
        # T^T x = B (Eq^T x) - ((1 - cos r)/r**2) <u, x> w, log_v(q) = r sin(r) q - cos(r) Eq^T u
        w, cos2 = self._frame_log(B, q, Eq, u, F)
        return (B * (Eq * x[:, None]).sum(0)).sum(1) - cos2 * (u * x).sum(0) * w, w

    def _transported_basis(self, B, q, Eq, u, F):
        # T = Eq B^T - ((1 - cos r)/r**2) u w^T: one contraction of the frames at q and v
        w, cos2 = self._frame_log(B, q, Eq, u, F)
        return w, np.einsum("ak...,jk...->aj...", Eq, B) - (cos2 * u)[:, None] * w

    def _projectable(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        return np.sqrt(_inner(w, w))[..., 0] > _PROJECTION_FLOOR

    def project_point(self, w):
        w = np.asarray(w, dtype=float)
        nrm = np.sqrt(_inner(w, w))
        _refuse_projection(nrm[..., 0], "weighted embedding sum has norm")
        return w / nrm

    def projection_jacobian(self, w, q):
        w = np.asarray(w, dtype=float)
        nrm = np.sqrt(_inner(w, w))[..., None]
        return np.eye(self.embed_dim) / nrm - (w[..., :, None] * w[..., None, :]) / nrm**3

    def projection_jacobian_deriv(self, w, q, x):
        # D^2P(w)[x, y] = -(<w,y> x + <w,x> y + <x,y> w)/|w|^3 + 3 <w,x> <w,y> w/|w|^5
        w, x = np.asarray(w, dtype=float), np.asarray(x, dtype=float)
        nrm = np.sqrt(_inner(w, w))
        w, nrm = w[..., None, :], nrm[..., None, :, None]             # (..., 1, N), (..., 1, 1, 1)
        wx = _inner(w, x)[..., None]                                 # (..., s, 1, 1)
        ww = w[..., :, None] * w[..., None, :]
        outer = x[..., :, None] * w[..., None, :] + w[..., :, None] * x[..., None, :]
        return (3.0 * wx * ww / nrm**2 - outer - wx * np.eye(self.embed_dim)) / nrm**3


# ----------------------------------------------------------------------
# SO(3)


@dataclass(frozen=True)
class Rotation3(Manifold):
    """SO(3) as 3x3 matrices, bi-invariant metric from the Frobenius product.

    With this scaling dist(Q1, Q2) = |log(Q1^T Q2)|_F = sqrt(2) * angle.
    Geodesics are one-parameter subgroups, evaluated through Rodrigues
    closed forms with series fallbacks near the identity.  The closest-point
    projection is the polar decomposition, computed by the quadratically
    convergent iteration Q <- (Q + Q^-T)/2; its first and second
    derivatives are closed forms in the weighted sum and its polar factor
    (``kernels._polar_derivative``), so they need no second iteration.
    """

    kind = "rotation3"
    _cut_message = "rotation angle {:.6f} is (numerically) at the half-turn"
    _dist_per_angle = math.sqrt(2.0)
    intrinsic_dim = 3
    point_shape = (3, 3)
    embed_dim = 9
    injectivity_radius = np.sqrt(2.0) * np.pi
    # Advisory Karcher-ball constant.  The Frobenius-scaled sectional
    # curvature is 1/8, so a bound of 1/4 keeps the ball-radius diagnostic
    # conservative.
    curvature_bound: float | None = 0.25
    _model_curvature = 0.125

    def check_point(self, p) -> None:
        Q = self._finite_array(p, "a point")
        if (~(np.linalg.norm(Q.swapaxes(-1, -2) @ Q - np.eye(3), axis=(-2, -1)) <= 1e-10)).any():
            raise ValueError("matrix is not orthogonal within 1e-10")
        if (np.linalg.det(Q) <= 0.0).any():
            raise ValueError("matrix has non-positive determinant")

    def check_tangent(self, p, v) -> None:
        v, inv = _binary_scaled(self._finite_array(v, "a tangent vector"), 2)    # as on spheres
        S = np.asarray(p, dtype=float).swapaxes(-1, -2) @ v
        scale = np.maximum(inv, np.linalg.norm(v, axis=(-2, -1)))
        if (~(np.linalg.norm(S + S.swapaxes(-1, -2), axis=(-2, -1)) <= 1e-10 * scale)).any():
            raise ValueError("vector is not tangent at its base rotation (Q^T W not skew)")

    def project_tangent(self, p, w):
        Q = np.asarray(p, dtype=float)
        return Q @ _skew_part(Q.swapaxes(-1, -2) @ np.asarray(w, dtype=float))

    def tangent_basis(self, p) -> np.ndarray:
        """Q @ hat(e_k) / sqrt(2) for k = 1, 2, 3."""
        return np.asarray(p, dtype=float)[..., None, :, :] @ _SKEW_BASIS

    def exp(self, p, v):
        Q = np.asarray(p, dtype=float)
        S = _skew_part(Q.swapaxes(-1, -2) @ np.asarray(v, dtype=float))
        return Q @ _expm_skew(S)

    def _log(self, p, q):
        Q1 = np.asarray(p, dtype=float)
        L, angle = _logm_rotation(Q1.swapaxes(-1, -2) @ np.asarray(q, dtype=float))
        return Q1 @ L, angle

    def transport(self, p, q, w):
        Q1t = np.asarray(p, dtype=float).swapaxes(-1, -2)
        E = _expm_skew(0.5 * _skew_part(Q1t @ self.log(p, q)))
        return Q1t.swapaxes(-1, -2) @ E @ _skew_part(Q1t @ np.asarray(w, dtype=float)) @ E

    def _transported_adjoint(self, B, q, Eq, u, x, F):
        # T = exp(hat(h)), h = sqrt(K) u, by Rodrigues with hat(h)^2 = h h^T - |h|^2 I;
        # the cross product u x x from the components (np.cross moves axes)
        sinc, cos2 = _rodrigues_pair(F)
        (u0, u1, u2), (x0, x1, x2) = u, x
        ux = np.array([u1 * x2 - u2 * x1, u2 * x0 - u0 * x2, u0 * x1 - u1 * x0])
        Tx = (cos2 * (u * x).sum(0)) * u + (1.0 - cos2 * (u * u).sum(0)) * x
        return Tx - (math.sqrt(self._model_curvature) * sinc) * ux, -u

    def _projectable(self, w) -> np.ndarray:
        return np.linalg.det(_as_matrices(w)) > _PROJECTION_FLOOR

    def project_point(self, w):
        A = _as_matrices(w)
        _refuse_projection(np.linalg.det(A), "weighted rotation sum has det =")
        return _polar_iterates(A)[0]

    def projection_jacobian(self, w, q):
        return _polar_derivative(w, q)

    def projection_jacobian_deriv(self, w, q, x):
        return _polar_derivative(w, q, x)
