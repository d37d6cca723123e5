"""Gaussian quasi-likelihood contrast and its derivatives.

For a model spec with truncated conditional moments (f_hat, h_hat) the
per-observation contrast is

    gamma_t(theta) = (x_t - f_hat_t)^2 / h_hat_t + log h_hat_t

and ``gamma_bar`` is its sample mean; the quasi-log-likelihood is exactly
``-(n/2) * gamma_bar``.  Minimizing gamma_bar is the estimation principle
used everywhere in this package.

One hand-derived derivative serves every family, the gradient of gamma_bar
(:func:`_gradient_from`), which differentiates the truncated recursions of
:mod:`.models`.  Where the ``H_FLOOR`` clamp is active the variance no longer
depends on the parameters, so its share of the gradient is zero there.  The
Hessian and the per-observation scores are complex steps, of that gradient
and of the conditional moments, taken in one pass (:func:`derivatives`): the
recursions run unchanged on complex parameters, but for aparch's fractional
powers, which ``models._power`` takes in real arithmetic on a complex-step
argument, ``re ** d + i d re ** (d - 1) im``.  The terms that drops are of
relative size (im / re) ** 2, about 1e-40, so it is the step's exact value;
it lands within about 1.2 eps of a 200-bit mpmath power, where numpy's
complex power lands up to 4.5 eps away at about 15 times the cost.  They
serve the information matrices.  Finite differences remain only in the
tests, as oracles.

Each family's recursion is one pass over the sample (``models._recursion``)
that returns one named record; the conditional moments and the gradient are
read from its fields (``models._moments_from``, :func:`_gradient_from`).  What
they read of the sample that no parameter moves, x^2, |x|, the mask x != 0
and x_{t-1}, is one record per sample (``models._Sample``) that builds each
on first read: ``_Objective`` holds one per fit, :func:`derivatives` one for
all its complex steps, and each public function one per call.  Every
family has one score weight d gamma_t / d level_t, arma's linear in its
residuals and the three ARCH families' :func:`_level_ratio` of their one
variance filter (garch and ararch are its delta = 2 case), so all four share
one adjoint pass and the a and b entries; sigma or omega is per family, and
aparch adds its gamma entries and ararch its phi entry.  The squared mean
residual is read where the recursion holds it (:func:`_resid2`): garch's
and aparch's x^2 from the sample, ararch's z^2 from its ARCH input.

Every public function refuses a series that is not 1-D, or is empty, with
a ValueError (``models._as_series``); it reads the shape only, so the
100,000-step oracle pays nothing for it.  :func:`gamma_bar` reads the
moments as ``_Objective`` does, a constant one a scalar, so it fills no
array of n copies; :func:`contrast`, which returns the terms, reads them
from :func:`cond_moments`.

``_Objective`` is the contrast and gradient that SLSQP's passes in a fit
share, with the contract of scipy's ``ScalarFunction``: it holds one point
and the recursion built there, and reads the value and the gradient from
that recursion on the first request of each, counting it.  So a point
builds one recursion where :func:`gamma_bar` then :func:`gradient` would
build two, in either order.  Its values are exactly theirs, so
``fitting._certified`` certifies each descent's end point from the value
and gradient the objective holds there, with no second evaluation.  A point
costs SLSQP one recursion and one reduction for the value, read from the
recursion's fields (constant moments stay scalars, see
``models._moments_from``), and one backward pass for the gradient.  The
public functions enter ``np.errstate`` themselves; the objective's callbacks
run in the error state that ``fitting._descend`` enters once per descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    Family,
    ModelSpec,
    _Sample,
    _ar_filter,
    _as_series,
    _as_values,
    _moments,
    _moments_from,
    _power,
    _recursion,
    cond_moments,
    H_FLOOR,
)

#: imaginary step of the complex-step Hessian; no difference is taken, so it
#: can sit far below the rounding error of the real part
CS_STEP = 1e-20


@dataclass(frozen=True)
class ContrastEval:
    """Value of the contrast at one parameter point: its terms ``per_t`` and
    their mean ``gamma_bar``; the quasi-log-likelihood is
    ``-0.5 * n * gamma_bar``."""

    gamma_bar: float
    per_t: np.ndarray


@dataclass(frozen=True)
class DerivEval:
    """Derivatives of the contrast at one parameter point, both complex steps
    (see :func:`derivatives`): ``hessian`` is the (dim, dim) Hessian of
    gamma_bar, ``scores`` the (n, dim) per-observation gradients of gamma_t."""

    hessian: np.ndarray
    scores: np.ndarray


def contrast(spec: ModelSpec, theta, x) -> ContrastEval:
    """Evaluate the contrast: its per-observation terms and their mean."""
    x = _as_series(x)
    cm = cond_moments(spec, theta, x)
    # optimizer probes at explosive parameters can overflow; an infinite
    # contrast is the correct "move away" signal there
    with np.errstate(over="ignore", invalid="ignore"):
        per_t, gamma_bar = _contrast_from(x, cm.f_hat, cm.h_hat)
    return ContrastEval(gamma_bar, per_t)


def _contrast_from(x: np.ndarray, f_hat, h_hat, resid2=None) -> tuple[np.ndarray, float]:
    """Per-observation contrast and its mean (``inf`` if not finite) from the
    conditional mean and variance, either of which may be a scalar; callers
    hold the floating-point error state.  ``resid2`` is the squared residual
    (x - f_hat)^2 where the caller holds it (:func:`_resid2`); otherwise it
    is squared here as an unnamed temporary, which numpy reuses in place on
    a long series (the 100,000-step oracle).  The mean is ``sum / n``, what
    ``np.mean`` computes, by the ufunc reduction it calls."""
    per_t = ((x - f_hat) ** 2 if resid2 is None else resid2) / h_hat + np.log(h_hat)
    gamma_bar = float(np.add.reduce(per_t) / per_t.size)
    if not math.isfinite(gamma_bar):
        gamma_bar = float("inf")
    return per_t, gamma_bar


def _resid2(spec: ModelSpec, rec, sample: _Sample) -> np.ndarray | None:
    """The squared mean residual that an ARCH family's recursion ``rec``
    already holds: the sample's x^2 for garch and aparch, whose mean is 0,
    and for ararch(p >= 1) its ARCH input z^2, squared once in the
    recursion; None for arma and ararch(0), which hold none."""
    if spec.family is Family.ARARCH:
        return rec.inputs[0] if rec.inputs else None
    return None if spec.family is Family.ARMA else sample.x2


def gamma_bar(spec: ModelSpec, theta, x) -> float:
    """The mean of :func:`contrast`'s terms, to the bit, without keeping
    them: the moments are read as ``_Objective`` reads them, a constant one
    a scalar (``models._moments``), so no array of n copies is filled."""
    v = _as_values(spec, theta)
    x = _as_series(x)
    cm = _moments(spec, v, x)
    with np.errstate(over="ignore", invalid="ignore"):
        return _contrast_from(x, cm.f_hat, cm.h_hat)[1]


def residuals(spec: ModelSpec, theta, x) -> np.ndarray:
    """Standardized residuals (x_t - f_hat_t) / sqrt(h_hat_t)."""
    x = _as_series(x)
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
# gradients


def _level_ratio(d: float, resid2: np.ndarray, s_lin: np.ndarray, h_lin: np.ndarray,
                 h: np.ndarray) -> np.ndarray:
    """d gamma_t / d s_t for an ARCH family's filtered level s_t, the variance
    h_t = s_t ** (2 / delta): ``(2 / delta) (h_t - resid_t^2) / (h_t s_t)``
    with s and h clamped at ``H_FLOOR``, and 0 where either is below the floor
    (the clamp holds h_t fixed there); ``h`` is ``h_lin`` clamped, which the
    caller holds.  garch and ararch are the delta = 2 case with h = s, where
    this is ``(h_t - resid_t^2) / h_t^2``: their level is their variance, the
    same array, so it is clamped and tested once.

    Under the complex-step Hessian the levels are complex.  NumPy orders
    complex numbers by real part first, so the clamps and their tests act on
    the real part, and a clamped entry's imaginary part is 0: the derivative
    dies on the floor there too."""
    if s_lin is h_lin:
        s, clamped = h, h_lin < H_FLOOR
    else:
        s, clamped = np.maximum(s_lin, H_FLOOR), (s_lin < H_FLOOR) | (h_lin < H_FLOOR)
    # (h_t - resid_t^2) / h_t^2 * dh_t/ds_t, with dh_t/ds_t = (2 / delta) * h_t / s_t
    ratio = (2.0 / d) * (h - resid2) / (h * s)
    if clamped.any():
        ratio = np.where(clamped, 0.0, ratio)  # derivative dies on the floor
    return ratio


def _aparch_gamma_slope(d: float, sample: _Sample, gamma: float) -> np.ndarray:
    """The derivative in gamma of the unlagged ARCH term (|x_t| - gamma x_t)^delta."""
    x = sample.x
    # at x_t = 0 the power term is 0 for every gamma: its slope is 0, not inf * 0
    return -d * x * _power(sample.absx - gamma * x, d - 1.0, where=sample.nonzero)


def gradient(spec: ModelSpec, theta, x) -> np.ndarray:
    """Gradient of gamma_bar: the mean of the per-observation gradients,
    computed without them (see :func:`_gradient_from`)."""
    v = _as_values(spec, theta)
    x = _as_series(x)
    sample = _Sample(x)
    with np.errstate(over="ignore", invalid="ignore"):
        return _gradient_from(spec, v, x, _recursion(spec, v, x, sample), sample)


def _gradient_from(spec: ModelSpec, v: np.ndarray, x: np.ndarray, rec, sample: _Sample | None = None,
                   h: np.ndarray | None = None) -> np.ndarray:
    """Mean score from the recursion ``models._recursion`` built at ``v``: the
    one hand-derived derivative of every family, which also runs on complex
    ``v``, for the Hessian.  Callers hold the floating-point error state.
    ``sample`` holds x's parameter-free transforms (``models._Sample``),
    built here when not given, and ``h`` the ARCH variance clamped at
    ``H_FLOOR`` where the caller holds it already.

    Every score is ``w_t (L u_k)_t`` with ``L`` the family's filter, so its
    mean is ``<r, u_k> / n`` with ``r = L^T w`` the filter run backwards over
    ``w``: one 1-D pass, where the score rows need one pass per parameter.
    The inputs ``u_k`` are lags, so each inner product is taken on slices,
    ``r[k:] @ u[:n - k]``.  The weight is arma's ``(2 / sigma^2) eps_t``, with
    sign -1 as eps falls when its coefficients rise, or :func:`_level_ratio`;
    the a entries read ``rec.inputs`` and the b entries ``rec.level``.  Only
    sigma or omega, aparch's gamma and ararch's phi (whose filter is the
    identity) are per family.  The ARCH weight reads the squared residual
    the recursion holds (:func:`_resid2`), squared here only for ararch(0).
    """
    fam, lay, n = spec.family, spec.layout, x.size
    if sample is None:
        sample = _Sample(x)
    z = rec.resid  # x itself for garch and aparch
    if fam is Family.ARMA:
        sigma = v[lay.sigma.start]
        w, sign, block_a, block_b = (2.0 / sigma**2) * z, -1.0, lay.ar, lay.ma
    else:
        if h is None:
            h = np.maximum(rec.h, H_FLOOR)
        sign, block_a, block_b = 1.0, lay.a, lay.b
        resid2 = _resid2(spec, rec, sample)
        w = _level_ratio(spec.delta, z**2 if resid2 is None else resid2, rec.level, rec.h, h)
    r = _adjoint(rec.poly, w)
    del w  # freed before the per-entry passes, where a complex step peaks
    g = np.empty(spec.dim, dtype=r.dtype)
    g_a, g_b = g[block_a], g[block_b]  # views: writes land in g
    for i, u in enumerate(rec.inputs):
        g_a[i] = sign * _lagged_dot(r, u, i + 1) / n
    for j in range(spec.q):
        g_b[j] = sign * _lagged_dot(r, rec.level, j + 1) / n
    if fam is Family.ARMA:
        g[lay.sigma.start] = -2.0 * (z @ z) / n / sigma**3 + 2.0 / sigma
        return g
    g[lay.omega.start] = r.sum() / n
    a = v[lay.a]
    if fam is Family.APARCH:
        gamma, g_gamma = v[lay.gamma], g[lay.gamma]  # g_gamma is a view of g
        for i in range(spec.p):
            dpower = _aparch_gamma_slope(spec.delta, sample, gamma[i])
            g_gamma[i] = a[i] * _lagged_dot(r, dpower, i + 1) / n
    elif fam is Family.ARARCH:
        # phi moves the mean and, through every lagged z, the variance
        zx1 = z * sample.lag1
        phi = lay.phi.start
        g[phi] = -2.0 * _lagged_dot(z / h, x, 1) / n  # ararch's level is its variance
        for i in range(spec.p):
            g[phi] -= 2.0 * a[i] * _lagged_dot(r, zx1, i + 1) / n
    return g


def _adjoint(poly: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``L^T w`` for ``L = _ar_filter(poly, .)``: a causal filter is lower
    triangular Toeplitz, so its transpose is the filter on the reversed series.
    Returned contiguous: BLAS takes the inner products only over positive
    strides, and the identity filter's result already is."""
    return np.ascontiguousarray(_ar_filter(poly, w[::-1])[::-1])


def _lagged_dot(r: np.ndarray, u: np.ndarray, k: int) -> float:
    """``r @ _lag(u, k)`` without the lagged copy."""
    return r[k:] @ u[: u.size - k]


class _Objective:
    """gamma_bar and its gradient for the minimizers and the certificate of a
    descent's end point, one recursion per point: the contract of scipy's
    ``ScalarFunction``, which ``scipy.optimize.minimize`` wraps around its
    callbacks.

    The objective holds one point, a copy, and the recursion built there,
    with the variance clamped at ``H_FLOOR`` as ``models._moments_from``
    clamps it.  :meth:`value` and :meth:`grad` first make their point the
    held one, building its recursion, unless it equals the held point; then
    each reads its result from the recursion on its first request at that
    point, counts it in ``nfev`` or ``njev``, and keeps it.  So SLSQP's
    gradient at the point it has just valued, a restarted pass's start and
    the certificate of the end point ``fitting._descend`` has just valued
    cost no new recursion, and a gradient already read is not read again.
    Both return exactly what :func:`gamma_bar` and :func:`gradient` return.
    A new point costs one recursion and one reduction for its value, and
    one backward pass for its gradient.  The sample's parameter-free
    transforms (``models._Sample``) are built once per objective, so once
    per fit, not once per point.

    Callers hold the floating-point error state, ``np.errstate(over="ignore",
    invalid="ignore")`` as the public functions do; ``fitting._descend``
    enters it once per descent, not once per callback.
    """

    def __init__(self, spec: ModelSpec, x: np.ndarray):
        self.spec, self.x = spec, x
        self.sample = _Sample(x)
        self.nfev = self.njev = 0
        self._key = self._point = self._rec = self._h = self._value = self._grad = None

    def _move(self, v: np.ndarray) -> None:
        """Make ``v`` the held point, with a recursion of its own, unless it is
        held already: its entries equal the held point's, compared as Python
        floats, which compare as numpy's ``==`` does (0.0 equals -0.0, a nan
        equals nothing)."""
        key = v.tolist()
        if key == self._key:
            return
        # drop the held point's arrays first, so the two recursions never coexist
        self._key = self._point = self._rec = self._h = self._value = self._grad = None
        rec = _recursion(self.spec, v, self.x, self.sample)
        self._key, self._point, self._rec, self._h = key, v.copy(), rec, np.maximum(rec.h, H_FLOOR)

    def value(self, v: np.ndarray) -> float:
        self._move(v)
        if self._value is None:
            rec = self._rec
            self._value = _contrast_from(self.x, rec.f, self._h, _resid2(self.spec, rec, self.sample))[1]
            self.nfev += 1
        return self._value

    def grad(self, v: np.ndarray) -> np.ndarray:
        self._move(v)
        if self._grad is None:
            self._grad = _gradient_from(self.spec, self._point, self.x, self._rec, self.sample, self._h)
            self.njev += 1
        return self._grad


def derivatives(spec: ModelSpec, theta, x) -> DerivEval:
    """Hessian and per-observation scores of gamma_bar at ``theta``, both by
    complex steps (Squire & Trapp 1998; Martins, Sturdza & Alonso 2003).

    Step k builds the family's recursion at ``theta + i CS_STEP e_k``.  Hessian
    column k is ``Im(grad) / CS_STEP`` of the analytic gradient there; score
    column k is the contrast's derivative in its two moments, one formula for
    every family: ``(-2 r_t / h_t) Im f_t + ((h_t - r_t^2) / h_t^2) Im h_t``,
    over ``CS_STEP``, with ``r = x - f`` and the weights from the real moments.
    A moment the ``H_FLOOR`` clamp holds fixed has no imaginary part.
    aparch's fractional powers of a complex-step argument are taken in real
    arithmetic (``models._power``): that is the step's exact value to
    working precision, within about 1.2 eps of a 200-bit mpmath power, and
    no complex power is called.  An aparch input power whose gamma_i the
    step leaves real is the real point's, taken from its recursion, and the
    sample's parameter-free transforms are built once for all the steps.

    Every evaluation has the real part ``theta`` itself, so both are defined
    wherever the gradient is, on a box bound or a budget face included: they
    are the derivatives of the smooth extension of the recursions across the
    boundary.  No difference is taken, so there is no cancellation and no step
    to tune.
    """
    v = _as_values(spec, theta)
    x = _as_series(x)
    sample = _Sample(x)
    hess = np.empty((v.size, v.size))
    scores = np.empty((v.size, x.size))
    with np.errstate(over="ignore", invalid="ignore"):
        rec = _recursion(spec, v, x, sample)
        cm, real_inputs = _moments_from(rec), rec.inputs
        resid = x - cm.f_hat
        w_f = (-2.0 / CS_STEP) * resid / cm.h_hat
        w_h = (cm.h_hat - resid**2) / (CS_STEP * cm.h_hat**2)
        v_complex = v.astype(complex)
        for k in range(v.size):
            vc = v_complex.copy()
            vc[k] += 1j * CS_STEP
            rec = _recursion(spec, vc, x, sample, real_inputs)
            cmc = _moments_from(rec)
            hess[:, k] = _gradient_from(spec, vc, x, rec, sample, cmc.h_hat).imag / CS_STEP
            scores[k] = w_f * np.imag(cmc.f_hat) + w_h * np.imag(cmc.h_hat)
    return DerivEval(0.5 * (hess + hess.T), scores.T)
