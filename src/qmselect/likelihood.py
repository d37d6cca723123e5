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
``_fd_hessian``, the symmetrized Hessian of the gradient, and in the tests.

Each family's recursion is one pass over the sample (``models._recursion``);
the conditional moments and the scores are both read from it, each by one
formula (``models._moments_from``, :func:`_score_from`).  ``_Objective`` is
the contrast and gradient the fitting minimizers share: it keeps the
recursion and value of the last point it valued and reuses them when that
point is asked for again, so a step builds one recursion where
:func:`gamma_bar` then :func:`gradient` would build two.  Its values are
exactly theirs.
"""

from __future__ import annotations

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
    per_t, gamma_bar = _contrast_from(x, cond_moments(spec, theta, x))
    return ContrastEval(gamma_bar, per_t, -0.5 * x.size * gamma_bar)


def _contrast_from(x: np.ndarray, cm) -> tuple[np.ndarray, float]:
    """Per-observation contrast and its mean from the conditional moments."""
    # optimizer probes at explosive parameters can overflow; an infinite
    # contrast is the correct "move away" signal there
    with np.errstate(over="ignore", invalid="ignore"):
        per_t = (x - cm.f_hat) ** 2 / cm.h_hat + np.log(cm.h_hat)
        gamma_bar = float(np.mean(per_t))
    if not np.isfinite(gamma_bar):
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
    the gradient of gamma_bar.
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
    cols = np.empty((n, spec.dim))
    # a C-ordered copy, not the transposed view: mean(axis=0) over the view
    # differs in the last bits from the per-column result
    cols[:, : p + q] = ((2.0 / sigma**2 * eps) * _ar_filter(ma, inputs)).T
    cols[:, p + q] = -2.0 * eps**2 / sigma**3 + 2.0 / sigma
    return cols


def _grad_garch(spec, v, x, rec):
    p, q = spec.p, spec.q
    n = x.size
    h_lin, braw = rec
    clamped = h_lin < H_FLOOR
    h = np.maximum(h_lin, H_FLOOR)
    # d gamma_t / d theta_k = (h_t - x_t^2) / h_t^2 * d h_t / d theta_k
    ratio = (h - x**2) / h**2
    if clamped.any():
        ratio = np.where(clamped, 0.0, ratio)  # derivative dies on the floor
    # d h / d theta_k is the b-filter of the derivative of the filter input
    inputs = np.empty((spec.dim, n))
    inputs[0] = 1.0
    for i in range(p):
        inputs[1 + i] = _lag(x, i + 1) ** 2
    for j in range(q):
        inputs[1 + p + j] = _lag(h_lin, j + 1)
    cols = np.empty((n, spec.dim))
    # a C-ordered copy, not the transposed view: mean(axis=0) over the view
    # differs in the last bits from the per-column result
    cols[:] = (ratio * _ar_filter(braw, inputs)).T
    return cols


def _grad_aparch(spec, v, x, rec):
    p, q = spec.p, spec.q
    n = x.size
    d = spec.delta
    s_lin, braw = rec
    s = np.maximum(s_lin, H_FLOOR)
    h = s ** (2.0 / d)
    clamped = (s_lin < H_FLOOR) | (h < H_FLOOR)
    # d gamma_t / d theta_k = (h_t - x_t^2) / h_t^2 * dh_t/ds_t * d s_t / d theta_k,
    # with dh_t/ds_t = (2 / delta) * h_t / s_t
    ratio = (2.0 / d) * (h - x**2) / (h * s)
    if clamped.any():
        ratio = np.where(clamped, 0.0, ratio)  # derivative dies on the floor
    # d s / d theta_k is the b-filter of the derivative of the filter input
    inputs = np.empty((spec.dim, n))
    inputs[0] = 1.0
    for i in range(p):
        base = np.abs(x) - v[1 + p + i] * x
        inputs[1 + i] = _lag(base**d, i + 1)
        # at x_t = 0 the power term is 0 for every gamma: its slope is 0, not inf * 0
        slope = np.power(base, d - 1.0, out=np.zeros(n), where=x != 0.0)
        inputs[1 + p + i] = v[1 + i] * _lag(-d * x * slope, i + 1)
    for j in range(q):
        inputs[1 + 2 * p + j] = _lag(s_lin, j + 1)
    return (ratio * _ar_filter(braw, inputs)).T


def _grad_ararch(spec, v, x, rec):
    z, h_lin = rec
    clamped = h_lin < H_FLOOR
    h = np.maximum(h_lin, H_FLOOR)
    ratio = (h - z**2) / h**2
    if clamped.any():
        ratio = np.where(clamped, 0.0, ratio)  # variance part dies on the floor
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
    """Gradient of gamma_bar (mean of the per-observation gradients)."""
    return grad_per_t(spec, theta, x).mean(axis=0)


class _Objective:
    """gamma_bar and its gradient for the minimizers, one recursion per point.

    SLSQP asks for the gradient at the point it has just valued, and the
    polish starts where SLSQP stopped.  ``value`` keeps the recursion it
    built and the value, together with a copy of the point; asked again at
    that point, ``value`` returns the kept value and ``grad`` reads the score
    from the kept recursion.  At any other point ``grad`` builds its own.
    Both return exactly what :func:`gamma_bar` and :func:`gradient` return.
    """

    def __init__(self, spec: ModelSpec, x: np.ndarray):
        self.spec, self.x = spec, x
        self._point = None
        self._rec = None
        self._value = None

    def _holds(self, v: np.ndarray) -> bool:
        return self._point is not None and np.array_equal(v, self._point)

    def value(self, v: np.ndarray) -> float:
        if not self._holds(v):
            rec = _recursion(self.spec, v, self.x)
            self._point, self._rec = v.copy(), rec
            self._value = _contrast_from(self.x, _moments_from(self.spec, v, self.x, rec))[1]
        return self._value

    def grad(self, v: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            rec = self._rec if self._holds(v) else _recursion(self.spec, v, self.x)
            return _score_from(self.spec, v, self.x, rec).mean(axis=0)


def derivatives(spec: ModelSpec, theta, x, *, check_boundary: bool = True) -> DerivEval:
    """Symmetrized Hessian of gamma_bar at ``theta``.

    Raises
    ------
    BoundaryTooClose
        when ``check_boundary`` is on and the finite-difference stencil
        (2x the step in every coordinate) would leave the constraint set.
    """
    v = _as_values(spec, theta)
    x = np.asarray(x, dtype=float)
    if check_boundary and not constraint_set(spec).stencil_inside(v, 2.0 * _fd_steps(v)):
        raise BoundaryTooClose(
            f"{spec.name}: parameters within 2 finite-difference steps of the boundary"
        )
    return DerivEval(_fd_hessian(spec, v, x))


def _fd_hessian(spec: ModelSpec, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Symmetrized central differences of the gradient with steps
    :func:`_fd_steps`; the one Hessian stencil of the package."""
    h = _fd_steps(v)
    d = v.size
    hess = np.empty((d, d))
    for k in range(d):
        vp, vm = v.copy(), v.copy()
        vp[k] += h[k]
        vm[k] -= h[k]
        hess[k, :] = (gradient(spec, vp, x) - gradient(spec, vm, x)) / (2.0 * h[k])
    return 0.5 * (hess + hess.T)
