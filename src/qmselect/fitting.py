"""Contrast minimization: single-model fits and family sweeps.

A fit has one or two starts: a warm start if given, then the canonical
start (dynamic coefficients zero, the scale parameter set from the sample
second moment); nothing is random.  SLSQP descends from them in that order
over the box and the coefficient budgets, all budgets handed over as one
linear inequality with a constant Jacobian.  The constraint set and
these SLSQP arguments are built once per spec, not once per fit
(``models.constraint_set``, ``ConstraintSet.slsqp_args``).  A fit stops after
the first descent whose end point is certified (projected gradient at most
``GRAD_TOL``).  Within a descent, while SLSQP's end point is not certified
and the contrast still falls, SLSQP is restarted from there, up to
``MAX_PASSES`` passes.  All passes minimize one ``likelihood._Objective`` per
fit, and ``_descend`` holds the floating-point error state for all of a
start's passes.  A start is valued just before its descent, and stays in the
candidate pool, so gamma_bar(theta_hat) <= gamma_bar(start) is structural.

:func:`fit_family` fits nested models first, in order of (dim, family
declaration order, name), and warm-starts each model at the best nested
optimum whose parameter names it shares, zero-padded by name.  That point
is feasible and keeps the inner contrast, so along same-family nesting and
garch inside the power-2 aparch the fitted contrast never rises.  Every fit
is certified in one place (``_certified``): contrast, projected gradient
norm and the ``converged`` flag.  The projected gradient is the step to the
Euclidean projection of ``theta - gradient``, so it is zero exactly at a
first-order (KKT) point of the constraint set, edges and kinks of the
budgets included.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import OptimizerDiverged, QmselectError, TooShortSeries
from .likelihood import _Objective, contrast, gamma_bar, gradient
from .models import ConstraintSet, Family, ModelSpec, ParamVector, Trajectory
from .models import _as_values, constraint_set, is_nested

#: SLSQP iteration cap per pass
MAX_ITER = 500
#: a fit is converged when its projected gradient sup-norm is at most this
GRAD_TOL = 1e-6
#: SLSQP passes per start: restarts from an uncertified end point
MAX_PASSES = 4
#: failures that exclude a model; any other exception is a programming error
_FAILURES = (QmselectError, np.linalg.LinAlgError, FloatingPointError)


@dataclass
class FitResult:
    spec: ModelSpec
    theta: ParamVector
    gamma_bar_min: float
    loglik: float
    converged: bool
    n_used: int
    grad_norm: float
    iterations: int
    error: str | None = None

    @property
    def dim(self) -> int:
        return self.spec.dim


def _series(x) -> np.ndarray:
    if isinstance(x, Trajectory):
        return x.values
    return np.asarray(x, dtype=float)


def _start_point(spec: ModelSpec, cset: ConstraintSet, x: np.ndarray) -> np.ndarray:
    """Zero dynamic coefficients; the family's one scale block, sigma or omega
    (a variance, or aparch's sigma ** delta), from the uncentered second moment."""
    m2 = float(np.mean(x**2))
    v = np.zeros(spec.dim)
    v[spec.layout.sigma] = np.sqrt(m2)
    v[spec.layout.omega] = m2 ** (spec.delta / 2.0)
    return cset.project(v)


def projected_grad_norm(cset: ConstraintSet, v: np.ndarray, g: np.ndarray) -> float:
    """Sup-norm of the projected-gradient step ``v - project(v - g)``; zero
    exactly when ``v`` is a first-order (KKT) point on the feasible set."""
    return float(np.max(np.abs(v - cset.project(v - g))))


def _descend(objective: _Objective, cset: ConstraintSet, v, fv):
    """SLSQP from ``v`` (contrast ``fv``), restarted from its end point while
    that point is not certified and the contrast still falls, up to
    ``MAX_PASSES`` passes; returns (gamma_bar, theta, iterations, certified),
    where ``certified`` tells whether the end point's projected gradient is at
    most ``GRAD_TOL``.  When no pass lowers the contrast, the end point is
    ``v`` itself, and it is tested there: a warm start can already be a KKT
    point."""
    iterations = 0
    certified = None
    # the objective's callbacks run in this error state, entered once here:
    # probes at explosive parameters overflow to an infinite contrast
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        # SLSQP line searches may poke just outside the box; the contrast
        # is clamped there, so the probe values are finite and harmless
        warnings.filterwarnings("ignore", message=".*outside bounds.*")
        for _ in range(MAX_PASSES):
            res = minimize(objective.value, v, jac=objective.grad, method="SLSQP",
                           **cset.slsqp_args, options={"maxiter": MAX_ITER, "ftol": 1e-12})
            iterations += int(res.nit)
            if not np.all(np.isfinite(res.x)) or not np.isfinite(res.fun):
                break
            w = cset.project(res.x)
            fw = objective.value(w)
            if not fw < fv:
                break
            v, fv = w, fw
            certified = projected_grad_norm(cset, v, objective.grad(v)) <= GRAD_TOL
            if certified:
                break
        if certified is None:
            certified = projected_grad_norm(cset, v, objective.grad(v)) <= GRAD_TOL
    return fv, v, iterations, certified


def _certified(spec, cset, v, x, iterations: int) -> FitResult:
    """The fit at ``v``: contrast, projected gradient and convergence flag."""
    ev = contrast(spec, v, x)
    gn = projected_grad_norm(cset, v, gradient(spec, v, x))
    return FitResult(
        spec=spec,
        theta=ParamVector(spec, v),
        gamma_bar_min=ev.gamma_bar,
        loglik=ev.loglik,
        converged=gn <= GRAD_TOL,
        n_used=x.size,
        grad_norm=gn,
        iterations=iterations,
    )


def fit(spec: ModelSpec, x, warm=None) -> FitResult:
    """Minimize the contrast for one model spec over its constraint set.

    SLSQP descends first from ``warm`` if given, then from the zero-init
    start, in up to ``MAX_PASSES`` passes per start; there is no other
    minimizer.  The zero-init start is valued and descended only when the
    warm descent ends uncertified.  The candidates are each descended start,
    then each descent's end point in the order run.  Among those within 1e-10
    of the lowest contrast, the first certified one wins, and the earliest when none is certified; a
    start counts as uncertified.  The result's ``iterations`` sums SLSQP's
    iterations over the chosen start's passes.  A one-parameter model's start
    is its closed-form optimum: it is certified there with no pass.

    Raises
    ------
    ValueError
        if ``warm`` is not ``spec.dim`` values inside ``constraint_set(spec)``.
    TooShortSeries
        if the sample has fewer than ``10 * spec.dim`` observations.
    OptimizerDiverged
        if no start produces a finite contrast value.
    """
    x = _series(x)
    cset = constraint_set(spec)
    if warm is not None:
        warm = _as_values(spec, warm)
        if not cset.contains(warm):
            raise ValueError(f"warm start {warm.tolist()} is infeasible for {spec.name}")
    n = x.size
    if n < 10 * spec.dim:
        raise TooShortSeries(f"{spec.name}: n = {n} < {10 * spec.dim}")
    base = _start_point(spec, cset, x)
    if spec.dim == 1:
        return _certified(spec, cset, base, x, iterations=0)
    starts = [base]
    if warm is not None and not np.array_equal(warm, base):
        starts.insert(0, warm)

    objective = _Objective(spec, x)
    # (value, theta, iterations, certified), each start valued as it is descended
    valued, descents = [], []
    for start in starts:
        valued.append((gamma_bar(spec, start, x), start, 0, False))
        descents.append(_descend(objective, cset, start, valued[-1][0]))
        if descents[-1][3]:
            break

    finite = [c for c in valued + descents if np.isfinite(c[0])]
    if not finite:
        raise OptimizerDiverged(f"{spec.name}: no start produced a finite contrast")
    fbest = min(c[0] for c in finite)
    tied = [c for c in finite if c[0] <= fbest + 1e-10]
    _, v, iters, _ = next((c for c in tied if c[3]), tied[0])
    return _certified(spec, cset, v, x, iters)


def _warm_start(spec: ModelSpec, fits) -> np.ndarray | None:
    """The optimum of the best finite fit in ``fits`` that is nested in
    ``spec`` and whose parameter names are all among ``spec``'s, with the
    names it lacks set to zero; None when there is no such fit."""
    names = spec.param_names()
    inner = [f for f in fits if np.isfinite(f.gamma_bar_min) and is_nested(f.spec, spec)
             and set(f.spec.param_names()) <= set(names)]
    if not inner:
        return None
    named = min(inner, key=lambda f: f.gamma_bar_min).theta.named()
    return np.array([named.get(name, 0.0) for name in names])


def fit_family(family, x) -> list[FitResult]:
    """Fit every spec in ``family``, returned in the caller's order.

    The specs are fitted in order of (dim, family declaration order, name),
    each warm-started by :func:`_warm_start` from the fits made before it, so
    the results do not depend on the caller's order.  Every nested pair is
    fitted inner first: the inner model has the smaller dim, or the same dim
    and an earlier family (garch(0,q) inside aparch(2;0,q)).  Per-model
    failures (``_FAILURES``) are returned as non-converged placeholder results
    instead of raising; any other exception propagates."""
    x = _series(x)
    family = list(family)
    fits: dict[int, FitResult] = {}
    order = list(Family)
    for i in sorted(range(len(family)),
                    key=lambda i: (family[i].dim, order.index(family[i].family), family[i].name)):
        spec = family[i]
        try:
            fits[i] = fit(spec, x, _warm_start(spec, fits.values()))
        except _FAILURES as exc:
            fits[i] = FitResult(
                spec=spec,
                theta=ParamVector(spec, constraint_set(spec).project(np.zeros(spec.dim))),
                gamma_bar_min=float("nan"),
                loglik=float("nan"),
                converged=False,
                n_used=x.size,
                grad_norm=float("inf"),
                iterations=0,
                error=f"{type(exc).__name__}: {exc}",
            )
    return [fits[i] for i in range(len(family))]
