"""Curvature and score-covariance matrices at a fitted optimum.

Conventions (all per observation, on the contrast scale):

* ``f_hat`` is minus half the Hessian of gamma_bar at theta_hat, so it is
  negative definite at a regular interior minimum;
* ``g_hat`` is the average outer product of the per-observation contrast
  gradients divided by 4; the rows are complex steps of the conditional
  moments, taken in the same pass of :func:`.likelihood.derivatives` as the
  Hessian;
* ``logdet_negF`` is log det(-f_hat), computed through a Cholesky
  factorization (the matrix is screened for numerical rank first), which
  LAPACK's ``potrf`` computes and ``potrs`` solves with; they are called
  directly, as ``scipy.linalg.cho_factor`` and ``cho_solve`` call them, and
  raise what those raise.  On the scipy versions in
  ``models._CORE_PINNED_ON`` they are the double-precision pair
  ``scipy.linalg._flapack.dpotrf``/``dpotrs``, loaded without
  ``scipy.linalg`` (``models._pinned_core``); elsewhere
  ``scipy.linalg.get_lapack_funcs`` picks them, imported where it is called;
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
import scipy

from .errors import SingularF
from .likelihood import derivatives
from .models import Family, ModelSpec, _pinned_core

#: relative eigenvalue floor below which -f_hat is declared singular
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class InfoMatrices:
    f_hat: np.ndarray
    g_hat: np.ndarray
    logdet_negF: float
    trace_pen: float


#: LAPACK's double-precision Cholesky factorization and solve, what
#: ``get_lapack_funcs`` returns for float64 matrices, the only ones the
#: package factors; None off the pinned scipy versions
_DPOTRF = _pinned_core(scipy.__version__, "scipy.linalg._flapack", "dpotrf")
_DPOTRS = _pinned_core(scipy.__version__, "scipy.linalg._flapack", "dpotrs")


def _lapack(name: str, pinned, *arrays: np.ndarray):
    """LAPACK's ``name`` for the float64 ``arrays``, as ``get_lapack_funcs``
    picks it: the ``pinned`` double-precision routine where there is one,
    else ``get_lapack_funcs`` itself, imported here."""
    if pinned is not None:
        return pinned
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs((name,), arrays)[0]


def _check_finite(a: np.ndarray) -> None:
    """The finiteness check of ``cho_factor`` and ``cho_solve``, with their message."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _cho_factor_lower(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """``scipy.linalg.cho_factor(a, lower=True)``: the same LAPACK call on
    the same arguments, with the same bytes returned and the same errors
    raised, without the wrapper's per-call cost."""
    _check_finite(a)
    potrf = _lapack("potrf", _DPOTRF, a)
    c, info = potrf(a, lower=True, overwrite_a=False, clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f'LAPACK reported an illegal value in {-info}-th argument on entry to "POTRF".')
    return c, True


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
    """-(2/n) Tr(f_hat^-1 g_hat) from the ``cho_factor`` of -f_hat; the
    solve is LAPACK's ``potrs`` on the arguments ``cho_solve`` gives it."""
    c, lower = chol
    _check_finite(g_hat)
    potrs = _lapack("potrs", _DPOTRS, c, g_hat)
    solved, info = potrs(c, g_hat, lower=lower, overwrite_b=False)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return float((2.0 / n) * np.trace(solved))


def info_matrices(fit_result, x) -> InfoMatrices:
    """Estimate the curvature/score matrices for a converged fit.

    One call of :func:`.likelihood.derivatives` gives both: its Hessian for
    ``f_hat`` and its per-observation scores for ``g_hat``.

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
    deriv = derivatives(fit_result.spec, fit_result.theta.values, x)
    f_hat = -0.5 * deriv.hessian
    neg_f = -f_hat
    _screen_neg_f(neg_f)
    chol = _cho_factor_lower(neg_f)
    g_hat = deriv.scores.T @ deriv.scores / (4.0 * n)
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
