"""Gaussian quasi-likelihood contrast and its derivatives.

For a model spec with truncated conditional moments (f_hat, h_hat) the
per-observation contrast is

    gamma_t(theta) = (x_t - f_hat_t)^2 / h_hat_t + log h_hat_t

and ``gamma_bar`` is its sample mean; the quasi-log-likelihood is exactly
``-(n/2) * gamma_bar``.  Minimizing gamma_bar is the estimation principle
used everywhere in this package.

Analytic first derivatives are implemented for the wn, arma and garch
families by differentiating the truncated recursions (they are linear, so
their derivatives follow the same kind of recursion and go through
``lfilter`` as well).  aparch and ararch fall back to central finite
differences.  Second derivatives are always central differences of the
gradient, symmetrized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import BoundaryTooClose
from .models import (
    Family,
    ModelSpec,
    _arma_residuals,
    _as_values,
    _garch_variance,
    _lag,
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
    """First and second derivatives of gamma_bar at one parameter point."""

    gradient: np.ndarray
    hessian: np.ndarray


def contrast(spec: ModelSpec, theta, x) -> ContrastEval:
    """Evaluate the contrast; ``loglik`` is -(n/2)*gamma_bar by construction."""
    x = np.asarray(x, dtype=float)
    cm = cond_moments(spec, theta, x)
    # optimizer probes at explosive parameters can overflow; an infinite
    # contrast is the correct "move away" signal there
    with np.errstate(over="ignore", invalid="ignore"):
        per_t = (x - cm.f_hat) ** 2 / cm.h_hat + np.log(cm.h_hat)
        gamma_bar = float(np.mean(per_t))
    if not np.isfinite(gamma_bar):
        gamma_bar = float("inf")
    return ContrastEval(gamma_bar, per_t, -0.5 * x.size * gamma_bar)


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

    Analytic for wn/arma/garch, central finite differences otherwise.  Row
    means equal the gradient of gamma_bar.
    """
    v = _as_values(spec, theta)
    x = np.asarray(x, dtype=float)
    fam = spec.family
    with np.errstate(over="ignore", invalid="ignore"):
        if fam is Family.WN:
            sigma = v[0]
            return (-2.0 * x**2 / sigma**3 + 2.0 / sigma)[:, None]
        if fam is Family.ARMA:
            return _grad_arma(spec, v, x)
        if fam is Family.GARCH:
            return _grad_garch(spec, v, x)
        return _grad_fd(spec, v, x)


def _grad_arma(spec, v, x):
    p, q = spec.p, spec.q
    sigma = v[p + q]
    eps, ma = _arma_residuals(spec, v, x)
    cols = np.empty((x.size, spec.dim))
    scale = 2.0 / sigma**2
    for i in range(p):
        deps = lfilter([1.0], ma, -_lag(x, i + 1))
        cols[:, i] = scale * eps * deps
    for j in range(q):
        deps = lfilter([1.0], ma, -_lag(eps, j + 1))
        cols[:, p + j] = scale * eps * deps
    cols[:, p + q] = -2.0 * eps**2 / sigma**3 + 2.0 / sigma
    return cols


def _grad_garch(spec, v, x):
    p, q = spec.p, spec.q
    n = x.size
    h_lin, braw = _garch_variance(spec, v, x)
    clamped = h_lin < H_FLOOR
    h = np.maximum(h_lin, H_FLOOR)
    # d gamma_t / d theta_k = (h_t - x_t^2) / h_t^2 * d h_t / d theta_k
    ratio = (h - x**2) / h**2
    if clamped.any():
        ratio = np.where(clamped, 0.0, ratio)  # derivative dies on the floor
    cols = np.empty((n, spec.dim))
    cols[:, 0] = ratio * lfilter([1.0], braw, np.ones(n))
    for i in range(p):
        cols[:, 1 + i] = ratio * lfilter([1.0], braw, _lag(x, i + 1) ** 2)
    for j in range(q):
        cols[:, 1 + p + j] = ratio * lfilter([1.0], braw, _lag(h_lin, j + 1))
    return cols


def _fd_steps(v: np.ndarray) -> np.ndarray:
    return FD_STEP * np.maximum(1.0, np.abs(v))


def _grad_fd(spec, v, x):
    h = _fd_steps(v)
    cols = np.empty((x.size, v.size))
    for k in range(v.size):
        vp, vm = v.copy(), v.copy()
        vp[k] += h[k]
        vm[k] -= h[k]
        cols[:, k] = (contrast(spec, vp, x).per_t - contrast(spec, vm, x).per_t) / (
            2.0 * h[k]
        )
    return cols


def gradient(spec: ModelSpec, theta, x) -> np.ndarray:
    """Gradient of gamma_bar (mean of the per-observation gradients)."""
    return grad_per_t(spec, theta, x).mean(axis=0)


def derivatives(spec: ModelSpec, theta, x, *, check_boundary: bool = True) -> DerivEval:
    """Gradient and (symmetrized) Hessian of gamma_bar at ``theta``.

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
    return DerivEval(gradient(spec, v, x), _fd_hessian(spec, v, x))


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
