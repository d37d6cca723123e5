"""Gaussian quasi-likelihood contrast and its derivatives.

For a model spec with truncated conditional moments (f_hat, h_hat) the
per-observation contrast is

    gamma_t(theta) = (x_t - f_hat_t)^2 / h_hat_t + log h_hat_t

and ``gamma_bar`` is its sample mean; the quasi-log-likelihood is exactly
``-(n/2) * gamma_bar``.  Minimizing gamma_bar is the estimation principle
used everywhere in this package.

First derivatives are analytic for every family.  They differentiate the
truncated recursions of :mod:`.models`: the arma, garch and aparch
recursions are linear filters, so their derivatives go through ``lfilter``
with the same polynomial, and the ararch variance is closed form.  Where the
``H_FLOOR`` clamp is active the variance no longer depends on the parameters,
so its share of the score is zero there.  Central differences remain only in
:func:`derivatives`, the symmetrized Hessian of the gradient that serves the
information matrices, and in the tests.

Each family's recursion is one pass over the sample (``models._recursion``);
the conditional moments, the per-observation scores and the gradient are all
read from it, each by one formula (``models._moments_from``,
:func:`_score_from`, :func:`_gradient_from`).  The score rows serve the
information matrices.  The gradient needs only their mean, so it runs the
family's filter once backwards over the sample instead of once per
parameter (reverse-mode differentiation).  ``_Objective`` is the contrast
and gradient that SLSQP's passes in a fit share: it keeps the recursion and
value of the last point it valued and reuses them when that point is asked
for again, so a step builds one recursion where :func:`gamma_bar` then
:func:`gradient` would build two.  Its values are exactly theirs.  A point
costs SLSQP one recursion and one reduction for the value (constant moments
stay scalars inside, see ``models._moments_from``) and one backward pass for
the gradient.  The public functions enter ``np.errstate`` themselves; the
objective's callbacks run in the error state that ``fitting._descend``
enters once per descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryTooClose
from .models import (
    Family,
    ModelSpec,
    _ar_filter,
    _as_values,
    _lag,
    _moments_from,
    _recursion,
    cond_moments,
    constraint_set,
    H_FLOOR,
)

#: relative step for finite differences, h_k = FD_STEP * max(1, |theta_k|)
FD_STEP = 1e-5


@dataclass(frozen=True)
class ContrastEval:
    """Value of the contrast at one parameter point."""

    gamma_bar: float
    per_t: np.ndarray
    loglik: float


@dataclass(frozen=True)
class DerivEval:
    """Second derivatives of gamma_bar at one parameter point."""

    hessian: np.ndarray


def contrast(spec: ModelSpec, theta, x) -> ContrastEval:
    """Evaluate the contrast; ``loglik`` is -(n/2)*gamma_bar by construction."""
    x = np.asarray(x, dtype=float)
    cm = cond_moments(spec, theta, x)
    # optimizer probes at explosive parameters can overflow; an infinite
    # contrast is the correct "move away" signal there
    with np.errstate(over="ignore", invalid="ignore"):
        per_t, gamma_bar = _contrast_from(x, cm)
    return ContrastEval(gamma_bar, per_t, -0.5 * x.size * gamma_bar)


def _contrast_from(x: np.ndarray, cm) -> tuple[np.ndarray, float]:
    """Per-observation contrast and its mean (``inf`` if not finite) from the
    conditional moments, whose constant parts may be scalars; callers hold
    the floating-point error state.  The mean is ``sum / n``, what
    ``np.mean`` computes, without its Python wrapper."""
    per_t = (x - cm.f_hat) ** 2 / cm.h_hat + np.log(cm.h_hat)
    gamma_bar = float(per_t.sum() / x.size)
    if not math.isfinite(gamma_bar):
        gamma_bar = float("inf")
    return per_t, gamma_bar


def gamma_bar(spec: ModelSpec, theta, x) -> float:
    return contrast(spec, theta, x).gamma_bar


def residuals(spec: ModelSpec, theta, x) -> np.ndarray:
    """Standardized residuals (x_t - f_hat_t) / sqrt(h_hat_t)."""
    x = np.asarray(x, dtype=float)
    cm = cond_moments(spec, theta, x)
    return (x - cm.f_hat) / np.sqrt(cm.h_hat)


def mu4_hat(xi) -> float:
    """Scale-free fourth-moment ratio mean(xi^4) / mean(xi^2)^2 (>= 1)."""
    xi = np.asarray(xi, dtype=float)
    m2 = float(np.mean(xi**2))
    if not m2 > 0:
        raise ValueError("fourth-moment ratio undefined for an all-zero series")
    return float(np.mean(xi**4)) / m2**2


# ---------------------------------------------------------------------------
# per-observation gradients


def grad_per_t(spec: ModelSpec, theta, x) -> np.ndarray:
    """(n, dim) matrix of per-observation contrast gradients.

    Analytic for every family (see the module docstring).  Row means equal
    the gradient of gamma_bar, which :func:`gradient` computes without the
    rows.
    """
    v = _as_values(spec, theta)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return _score_from(spec, v, x, _recursion(spec, v, x))


def _score_from(spec: ModelSpec, v: np.ndarray, x: np.ndarray, rec) -> np.ndarray:
    """Per-observation scores from the recursion ``models._recursion`` built at
    ``v``; callers hold the floating-point error state."""
    fam = spec.family
    if fam is Family.WN:
        sigma = v[0]
        return (-2.0 * x**2 / sigma**3 + 2.0 / sigma)[:, None]
    if fam is Family.ARMA:
        return _grad_arma(spec, v, x, rec)
    if fam is Family.GARCH:
        return _grad_garch(spec, v, x, rec)
    if fam is Family.APARCH:
        return _grad_aparch(spec, v, x, rec)
    return _grad_ararch(spec, v, x, rec)


def _variance_ratio(h_lin: np.ndarray, resid2: np.ndarray) -> np.ndarray:
    """d gamma_t / d h_t = (h_t - resid_t^2) / h_t^2 at the clamped variance,
    and 0 where the ``H_FLOOR`` clamp holds h_t fixed."""
    h = np.maximum(h_lin, H_FLOOR)
    ratio = (h - resid2) / h**2
    clamped = h_lin < H_FLOOR
    if clamped.any():
        ratio = np.where(clamped, 0.0, ratio)  # derivative dies on the floor
    return ratio


def _aparch_ratio(d: float, x: np.ndarray, s_lin: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d gamma_t / d s_t for the aparch power s_t = sigma_t ** delta, and 0
    where a clamp holds h_t fixed; ``h`` is the variance before its floor,
    as ``models._aparch_power`` returns it."""
    s = np.maximum(s_lin, H_FLOOR)
    clamped = (s_lin < H_FLOOR) | (h < H_FLOOR)
    # (h_t - x_t^2) / h_t^2 * dh_t/ds_t, with dh_t/ds_t = (2 / delta) * h_t / s_t
    ratio = (2.0 / d) * (h - x**2) / (h * s)
    if clamped.any():
        ratio = np.where(clamped, 0.0, ratio)  # derivative dies on the floor
    return ratio


def _aparch_gamma_slope(d: float, x: np.ndarray, gamma: float) -> np.ndarray:
    """The derivative in gamma of the unlagged ARCH term (|x_t| - gamma x_t)^delta."""
    base = np.abs(x) - gamma * x
    # at x_t = 0 the power term is 0 for every gamma: its slope is 0, not inf * 0
    slope = np.power(base, d - 1.0, out=np.zeros(x.size), where=x != 0.0)
    return -d * x * slope


def _grad_arma(spec, v, x, rec):
    p, q = spec.p, spec.q
    n = x.size
    sigma = v[p + q]
    eps, ma = rec
    # d eps / d theta_k is the MA-filter of minus the lagged x (AR part) or
    # the lagged eps (MA part); all p + q columns go through one filter call
    inputs = np.empty((p + q, n))
    for i in range(p):
        inputs[i] = -_lag(x, i + 1)
    for j in range(q):
        inputs[p + j] = -_lag(eps, j + 1)
    rows = np.empty((spec.dim, n))
    rows[: p + q] = (2.0 / sigma**2 * eps) * _ar_filter(ma, inputs)
    rows[p + q] = -2.0 * eps**2 / sigma**3 + 2.0 / sigma
    return rows.T


def _grad_garch(spec, v, x, rec):
    p, q = spec.p, spec.q
    n = x.size
    h_lin, braw = rec
    # d gamma_t / d theta_k = ratio_t * d h_t / d theta_k
    ratio = _variance_ratio(h_lin, x**2)
    # d h / d theta_k is the b-filter of the derivative of the filter input
    inputs = np.empty((spec.dim, n))
    inputs[0] = 1.0
    for i in range(p):
        inputs[1 + i] = _lag(x, i + 1) ** 2
    for j in range(q):
        inputs[1 + p + j] = _lag(h_lin, j + 1)
    return (ratio * _ar_filter(braw, inputs)).T


def _grad_aparch(spec, v, x, rec):
    p, q = spec.p, spec.q
    n = x.size
    d = spec.delta
    s_lin, braw, powers, h = rec
    ratio = _aparch_ratio(d, x, s_lin, h)
    # d s / d theta_k is the b-filter of the derivative of the filter input
    inputs = np.empty((spec.dim, n))
    inputs[0] = 1.0
    for i in range(p):
        inputs[1 + i] = _lag(powers[i], i + 1)
        inputs[1 + p + i] = v[1 + i] * _lag(_aparch_gamma_slope(d, x, v[1 + p + i]), i + 1)
    for j in range(q):
        inputs[1 + 2 * p + j] = _lag(s_lin, j + 1)
    return (ratio * _ar_filter(braw, inputs)).T


def _grad_ararch(spec, v, x, rec):
    z, h_lin = rec
    h = np.maximum(h_lin, H_FLOOR)
    ratio = _variance_ratio(h_lin, z**2)
    x1 = _lag(x, 1)
    cols = np.empty((x.size, spec.dim))
    # phi moves the mean directly and the variance through every lagged z^2
    dh_phi = np.zeros(x.size)
    for i in range(spec.p):
        dh_phi -= 2.0 * v[2 + i] * _lag(z * x1, i + 1)
    cols[:, 0] = -2.0 * z * x1 / h + ratio * dh_phi
    cols[:, 1] = ratio
    for i in range(spec.p):
        cols[:, 2 + i] = ratio * _lag(z, i + 1) ** 2
    return cols


def _fd_steps(v: np.ndarray) -> np.ndarray:
    return FD_STEP * np.maximum(1.0, np.abs(v))


def gradient(spec: ModelSpec, theta, x) -> np.ndarray:
    """Gradient of gamma_bar: the mean of the per-observation gradients,
    computed without them (see :func:`_gradient_from`)."""
    v = _as_values(spec, theta)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return _gradient_from(spec, v, x, _recursion(spec, v, x))


def _gradient_from(spec: ModelSpec, v: np.ndarray, x: np.ndarray, rec) -> np.ndarray:
    """Mean score from the recursion ``models._recursion`` built at ``v``;
    callers hold the floating-point error state.

    The arma, garch and aparch scores are ``w_t (L u_k)_t`` with ``L`` the
    family's filter, so their mean is ``<r, u_k> / n`` with ``r = L^T w`` the
    filter run backwards over ``w``: one 1-D pass, where the score rows need
    one pass per parameter.  The inputs ``u_k`` are lags, so each inner
    product is taken on slices, ``r[k:] @ u[:n - k]``.
    """
    fam = spec.family
    if fam is Family.ARMA:
        return _mean_grad_arma(spec, v, x, rec)
    if fam is Family.GARCH:
        return _mean_grad_garch(spec, v, x, rec)
    if fam is Family.APARCH:
        return _mean_grad_aparch(spec, v, x, rec)
    return _score_from(spec, v, x, rec).mean(axis=0)  # wn, ararch: no filter


def _adjoint(poly: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``L^T w`` for ``L = _ar_filter(poly, .)``: a causal filter is lower
    triangular Toeplitz, so its transpose is the filter on the reversed series.
    Returned contiguous: BLAS takes the inner products only over positive
    strides, and the identity filter's result already is."""
    return np.ascontiguousarray(_ar_filter(poly, w[::-1])[::-1])


def _lagged_dot(r: np.ndarray, u: np.ndarray, k: int) -> float:
    """``r @ _lag(u, k)`` without the lagged copy."""
    return r[k:] @ u[: u.size - k]


def _mean_grad_arma(spec, v, x, rec):
    p, q = spec.p, spec.q
    n = x.size
    sigma = v[p + q]
    eps, ma = rec
    r = _adjoint(ma, (2.0 / sigma**2) * eps)
    g = np.empty(spec.dim)
    for i in range(p):
        g[i] = -_lagged_dot(r, x, i + 1) / n
    for j in range(q):
        g[p + j] = -_lagged_dot(r, eps, j + 1) / n
    g[p + q] = -2.0 * (eps @ eps) / n / sigma**3 + 2.0 / sigma
    return g


def _mean_grad_garch(spec, v, x, rec):
    p, q = spec.p, spec.q
    n = x.size
    h_lin, braw = rec
    x2 = x**2
    r = _adjoint(braw, _variance_ratio(h_lin, x2))
    g = np.empty(spec.dim)
    g[0] = r.sum() / n
    for i in range(p):
        g[1 + i] = _lagged_dot(r, x2, i + 1) / n
    for j in range(q):
        g[1 + p + j] = _lagged_dot(r, h_lin, j + 1) / n
    return g


def _mean_grad_aparch(spec, v, x, rec):
    p, q = spec.p, spec.q
    n = x.size
    s_lin, braw, powers, h = rec
    r = _adjoint(braw, _aparch_ratio(spec.delta, x, s_lin, h))
    g = np.empty(spec.dim)
    g[0] = r.sum() / n
    for i in range(p):
        g[1 + i] = _lagged_dot(r, powers[i], i + 1) / n
        dpower = _aparch_gamma_slope(spec.delta, x, v[1 + p + i])
        g[1 + p + i] = v[1 + i] * _lagged_dot(r, dpower, i + 1) / n
    for j in range(q):
        g[1 + 2 * p + j] = _lagged_dot(r, s_lin, j + 1) / n
    return g


class _Objective:
    """gamma_bar and its gradient for the minimizers, one recursion per point.

    SLSQP asks for the gradient at the point it has just valued, and a
    restarted pass starts at the point the objective already holds.  ``value``
    keeps the recursion it built and the value, together with a copy of the
    point; asked again at that point, ``value`` returns the kept value and
    ``grad`` reads the gradient from the kept recursion.  At any other point
    ``grad`` builds its own.  Both return exactly what :func:`gamma_bar` and
    :func:`gradient` return.  So a new point costs one recursion and one
    reduction for its value, and one backward pass for its gradient.

    Callers hold the floating-point error state, ``np.errstate(over="ignore",
    invalid="ignore")`` as the public functions do; ``fitting._descend``
    enters it once per descent, not once per callback.
    """

    def __init__(self, spec: ModelSpec, x: np.ndarray):
        self.spec, self.x = spec, x
        self._point = None
        self._rec = None
        self._value = None

    def _holds(self, v: np.ndarray) -> bool:
        return self._point is not None and bool((v == self._point).all())

    def value(self, v: np.ndarray) -> float:
        if not self._holds(v):
            rec = _recursion(self.spec, v, self.x)
            self._point, self._rec = v.copy(), rec
            self._value = _contrast_from(self.x, _moments_from(self.spec, v, self.x, rec))[1]
        return self._value

    def grad(self, v: np.ndarray) -> np.ndarray:
        rec = self._rec if self._holds(v) else _recursion(self.spec, v, self.x)
        return _gradient_from(self.spec, v, self.x, rec)


def derivatives(spec: ModelSpec, theta, x, *, check_boundary: bool = True) -> DerivEval:
    """Symmetrized Hessian of gamma_bar at ``theta``: central differences of
    the analytic gradient with steps ``FD_STEP * max(1, |theta_k|)``, the one
    Hessian stencil of the package.

    Raises
    ------
    BoundaryTooClose
        when ``check_boundary`` is on and the finite-difference stencil
        (2x the step in every coordinate) would leave the constraint set.
    """
    v = _as_values(spec, theta)
    x = np.asarray(x, dtype=float)
    h = _fd_steps(v)
    if check_boundary and not constraint_set(spec).stencil_inside(v, 2.0 * h):
        raise BoundaryTooClose(
            f"{spec.name}: parameters within 2 finite-difference steps of the boundary"
        )
    hess = np.empty((v.size, v.size))
    for k in range(v.size):
        vp, vm = v.copy(), v.copy()
        vp[k] += h[k]
        vm[k] -= h[k]
        hess[k, :] = (gradient(spec, vp, x) - gradient(spec, vm, x)) / (2.0 * h[k])
    return DerivEval(0.5 * (hess + hess.T))
