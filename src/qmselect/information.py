"""Curvature and score-covariance matrices at a fitted optimum.

Conventions (all per observation, on the contrast scale):

* ``f_hat`` is minus half the Hessian of gamma_bar at theta_hat, so it is
  negative definite at a regular interior minimum;
* ``g_hat`` is the average outer product of the per-observation contrast
  gradients divided by 4; the rows are complex steps of the conditional
  moments, taken in the same pass of :func:`.likelihood.derivatives` as the
  Hessian;
* ``logdet_negF`` is log det(-f_hat), the sum of the logs of the
  eigenvalues of -f_hat.  One symmetric eigendecomposition,
  -f_hat = U diag(lam) U^T (``np.linalg.eigh``), serves the numerical rank
  screen, the log determinant and the trace penalty;
* ``trace_pen`` is -(2/n) * Tr(f_hat^-1 g_hat) = (2/n) * sum_k
  u_k^T g_hat u_k / lam_k, a non-negative penalty rate whose n-multiple
  matches the closed forms in :func:`closed_form_trace` for well-specified
  models.

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

from .errors import SingularF
from .likelihood import derivatives
from .models import Family, ModelSpec

#: relative eigenvalue floor below which -f_hat is declared singular
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class InfoMatrices:
    f_hat: np.ndarray
    g_hat: np.ndarray
    logdet_negF: float
    trace_pen: float


def _check_finite(a: np.ndarray) -> None:
    """A non-finite matrix is a programming error, not a singular model: the
    rank screen would pass NaN eigenvalues, since every comparison with NaN
    is false."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def info_matrices(fit_result, x) -> InfoMatrices:
    """Estimate the curvature/score matrices for a converged fit.

    One call of :func:`.likelihood.derivatives` gives both: its Hessian for
    ``f_hat`` and its per-observation scores for ``g_hat``.

    Raises
    ------
    ValueError
        when the fit did not converge, or -f_hat or g_hat is not finite: a
        programming error, never an excluded model.
    SingularF
        when -f_hat fails the numerical rank screen; callers treat the model
        as unusable for determinant-based criteria.
    """
    if not fit_result.converged:
        raise ValueError(f"{fit_result.spec.name}: info matrices need a converged fit")
    x = np.asarray(x, dtype=float)
    n = x.size
    deriv = derivatives(fit_result.spec, fit_result.theta.values, x)
    f_hat = -0.5 * deriv.hessian
    neg_f = -f_hat
    _check_finite(neg_f)
    lam, u = np.linalg.eigh(neg_f)
    if lam[-1] <= 0 or lam[0] < RANK_RTOL * lam[-1]:
        raise SingularF(f"curvature matrix numerically singular (eig range {lam[0]:.3e}..{lam[-1]:.3e})")
    g_hat = deriv.scores.T @ deriv.scores / (4.0 * n)
    _check_finite(g_hat)
    return InfoMatrices(
        f_hat=f_hat,
        g_hat=g_hat,
        logdet_negF=float(np.sum(np.log(lam))),
        trace_pen=float((2.0 / n) * np.sum(np.sum(u * (g_hat @ u), axis=0) / lam)),
    )


class ClosedFormTrace(NamedTuple):
    """Value of -2 Tr(F^-1 G) for a well-specified family, and whether the
    expression is complete (the ararch family carries an extra model-dependent
    offset that has no closed form, so its value is only the mu4 part)."""

    value: float
    complete: bool


def closed_form_trace(spec: ModelSpec, *, mu4: float = 3.0) -> ClosedFormTrace:
    """Closed-form -2 Tr(F^-1 G) for a correctly specified model ``spec``.

    ``mu4`` is the fourth-moment ratio of the innovations (3 for Gaussian
    noise).
    """
    if not mu4 >= 1.0:
        raise ValueError("mu4 must be >= 1")
    if spec.family is Family.ARMA:
        return ClosedFormTrace(2.0 * (spec.p + spec.q) + mu4 - 1.0, True)
    # every ARCH family: (mu4 - 1) per parameter; ararch lacks its phi offset
    return ClosedFormTrace((mu4 - 1.0) * spec.dim, spec.family is not Family.ARARCH)
