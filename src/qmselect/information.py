"""Curvature and score-covariance matrices at a fitted optimum.

Conventions (all per observation, on the contrast scale):

* ``f_hat`` is minus half the Hessian of gamma_bar at theta_hat, so it is
  negative definite at a regular interior minimum;
* ``g_hat`` is the average outer product of the per-observation contrast
  gradients divided by 4;
* ``logdet_negF`` is log det(-f_hat), computed through a Cholesky
  factorization (the matrix is screened for numerical rank first);
* ``trace_pen`` is -(2/n) * Tr(f_hat^-1 g_hat), a non-negative penalty rate
  whose n-multiple matches the closed forms in :func:`closed_form_trace`
  for well-specified models.

Boundary policy: a converged fit on a box bound or a budget face gets its
matrices like any other.  ``f_hat`` is then the Hessian of the smooth
extension of the recursions across the boundary, which the complex-step
Hessian of :func:`.likelihood.derivatives` evaluates at the fitted point
itself.  So only non-convergence and :class:`SingularF` keep a model out of
the determinant- and trace-based criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import SingularF, UnsupportedFamily
from .likelihood import derivatives, grad_per_t
from .models import Family, ModelSpec

#: relative eigenvalue floor below which -f_hat is declared singular
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class InfoMatrices:
    f_hat: np.ndarray
    g_hat: np.ndarray
    logdet_negF: float
    trace_pen: float


def _logdet_spd(chol) -> float:
    """log det of a symmetric positive definite matrix from its ``cho_factor``."""
    return float(2.0 * np.sum(np.log(np.diag(chol[0]))))


def _screen_neg_f(neg_f: np.ndarray) -> None:
    eigs = np.linalg.eigvalsh(neg_f)
    if eigs[-1] <= 0 or eigs[0] < RANK_RTOL * eigs[-1]:
        raise SingularF(
            f"curvature matrix numerically singular (eig range {eigs[0]:.3e}..{eigs[-1]:.3e})"
        )


def _trace_pen_from(chol, g_hat: np.ndarray, n: int) -> float:
    """-(2/n) Tr(f_hat^-1 g_hat) from the ``cho_factor`` of -f_hat."""
    return float((2.0 / n) * np.trace(cho_solve(chol, g_hat)))


def info_matrices(fit_result, x) -> InfoMatrices:
    """Estimate the curvature/score matrices for a converged fit.

    Raises
    ------
    SingularF
        when -f_hat fails the numerical rank screen; callers treat the model
        as unusable for determinant-based criteria.
    """
    if not fit_result.converged:
        raise ValueError(f"{fit_result.spec.name}: info matrices need a converged fit")
    x = np.asarray(x, dtype=float)
    n = x.size
    theta = fit_result.theta.values
    deriv = derivatives(fit_result.spec, theta, x)
    f_hat = -0.5 * deriv.hessian
    neg_f = -f_hat
    # screen first: a singular model needs no (n, dim) score rows
    _screen_neg_f(neg_f)
    chol = cho_factor(neg_f, lower=True)
    scores = grad_per_t(fit_result.spec, theta, x)
    g_hat = scores.T @ scores / (4.0 * n)
    return InfoMatrices(
        f_hat=f_hat,
        g_hat=g_hat,
        logdet_negF=_logdet_spd(chol),
        trace_pen=_trace_pen_from(chol, g_hat, n),
    )


class ClosedFormTrace(NamedTuple):
    """Value of -2 Tr(F^-1 G) for a well-specified family, and whether the
    expression is complete (the ararch family carries an extra model-dependent
    offset that has no closed form, so its value is only the mu4 part)."""

    value: float
    complete: bool


def closed_form_trace(family, p: int = 0, q: int = 0, mu4: float = 3.0) -> ClosedFormTrace:
    """Closed-form -2 Tr(F^-1 G) for a correctly specified model.

    ``family`` may be a :class:`Family`, a :class:`ModelSpec` (orders taken
    from it), or a family name string.  ``mu4`` is the fourth-moment ratio of
    the innovations (3 for Gaussian noise).
    """
    if isinstance(family, ModelSpec):
        p, q = family.p, family.q
        family = family.family
    if isinstance(family, str):
        family = Family(family.lower())
    if not mu4 >= 1.0:
        raise ValueError("mu4 must be >= 1")
    if p < 0 or q < 0:
        raise ValueError("orders must be non-negative")
    if family is Family.WN:
        return ClosedFormTrace(mu4 - 1.0, True)
    if family is Family.ARMA:
        return ClosedFormTrace(2.0 * (p + q) + mu4 - 1.0, True)
    if family is Family.GARCH:
        return ClosedFormTrace((mu4 - 1.0) * (p + q + 1.0), True)
    if family is Family.APARCH:
        return ClosedFormTrace((mu4 - 1.0) * (2.0 * p + q + 1.0), True)
    if family is Family.ARARCH:
        return ClosedFormTrace((mu4 - 1.0) * (p + 2.0), False)
    raise UnsupportedFamily(str(family))
