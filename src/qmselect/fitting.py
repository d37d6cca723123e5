"""Contrast minimization: single-model fits and family sweeps.

A fit has one or two starts: a warm start if given, then the canonical
start (dynamic coefficients zero, the scale parameter set from the sample
second moment); nothing is random.  SLSQP descends from them in that order
over the box and the coefficient budgets, all budgets handed over as one
linear inequality with a constant Jacobian.  The constraint set and
these SLSQP arguments are built once per spec, not once per fit
(``models.constraint_set``, ``ConstraintSet.slsqp_args``).  Each SLSQP pass is
one call of :func:`minimize`: on the scipy versions in
``models._CORE_PINNED_ON`` it drives SLSQP's C core directly, without
``scipy.optimize.minimize``'s per-call wrapper, and elsewhere it calls
``minimize``; the tests pin both to the same iterates.  A fit stops after
the first descent whose end point is certified (projected gradient at most
``GRAD_TOL``).  Within a descent, while SLSQP's end point is not certified
and the contrast still falls, SLSQP is restarted from there, up to
``MAX_PASSES`` passes.  All passes minimize one ``likelihood._Objective`` per
fit, and ``_descend`` holds the floating-point error state for all of a
start's passes.  Each descent returns the fit certified at its end point,
and its restarts, the stop after a certified descent and the pick all read
that fit's ``converged`` flag.  A descent moves only on a strict decrease of
the contrast, so it never ends above its start, and the fit picks among the
descents' fits only: gamma_bar(theta_hat) <= gamma_bar(start) is structural.

:func:`fit_family` fits nested models first, in order of (dim, family
declaration order, name), and warm-starts each model at the best nested
optimum whose parameter names it shares, zero-padded by name.  That point
is feasible and keeps the inner contrast, so along same-family nesting and
garch inside the power-2 aparch the fitted contrast never rises.  Every
point is certified in one place (``_certified``): contrast, projected
gradient norm and the ``converged`` flag, the one comparison with
``GRAD_TOL``.  The projected gradient is the step to the
Euclidean projection of ``theta - gradient``, so it is zero exactly at a
first-order (KKT) point of the constraint set, edges and kinks of the
budgets included.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy
from scipy import optimize
from scipy.optimize import OptimizeResult

from .errors import OptimizerDiverged, QmselectError, TooShortSeries
from .likelihood import _Objective, contrast, gamma_bar, gradient
from .models import ConstraintSet, Family, ModelSpec, ParamVector
from .models import _as_values, _pinned_core, constraint_set, is_nested

#: SLSQP iteration cap per pass
MAX_ITER = 500
#: SLSQP's accuracy, its ``ftol``
FTOL = 1e-12
#: a fit is converged when its projected gradient sup-norm is at most this
GRAD_TOL = 1e-6
#: SLSQP passes per start: restarts from an uncertified end point
MAX_PASSES = 4
#: failures that exclude a model; any other exception is a programming error
_FAILURES = (QmselectError, np.linalg.LinAlgError, FloatingPointError)


def _reason(exc: BaseException) -> str:
    """Why a model does not compete, as its tables write it: ``"<ErrorClass>: <message>"``."""
    return f"{type(exc).__name__}: {exc}"


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


#: SLSQP's reverse-communication C core, what ``scipy.optimize.minimize``
#: drives for ``method="SLSQP"``; None off the pinned scipy versions
_SLSQP = _pinned_core(scipy.__version__, "scipy.optimize._slsqplib", "slsqp")


def minimize(objective: _Objective, v: np.ndarray, cset: ConstraintSet) -> OptimizeResult:
    """One SLSQP pass from ``v`` over ``cset``: what
    ``scipy.optimize.minimize(objective.value, v, jac=objective.grad,
    method="SLSQP", **cset.slsqp_args, options={"maxiter": MAX_ITER, "ftol":
    FTOL})`` returns, with the same iterates and the same ``x``, ``fun``,
    ``nit``, ``nfev``, ``njev`` and ``status``.

    With a pinned core (``_SLSQP``, see ``models._pinned_core``) the core is
    driven directly, on the inputs ``minimize`` builds for it and without
    ``minimize``'s per-callback wrappers: the start is clipped to the box,
    mode 1 is answered with the value and the budget values, mode -1 with the
    gradient and the budget Jacobian.  The counts are ``minimize``'s: the
    start's value and gradient count one each, and either is evaluated again
    only at a point that differs from the last one evaluated.  Without a
    pinned core ``minimize`` itself runs; its warning that it clipped a point
    just outside the box is ignored, since the contrast is clamped there.
    """
    if _SLSQP is None:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*outside bounds.*")
            return optimize.minimize(objective.value, v, jac=objective.grad, method="SLSQP",
                                     **cset.slsqp_args, options={"maxiter": MAX_ITER, "ftol": FTOL})
    x = np.clip(v, cset.lower, cset.upper)
    n = x.size
    # the budgets are one inequality or none (ConstraintSet.slsqp_args)
    budgets = cset.slsqp_args["constraints"]
    if budgets:
        ((budget, normals),) = [(c["fun"], c["jac"]) for c in budgets]
        d, C = budget(x), np.array(normals(x), order="F")
    else:
        d, C = np.zeros(1), np.zeros((1, n), order="F")
    m = d.size if budgets else 0
    state = {"acc": FTOL, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0, "h3": 0.0,
             "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * FTOL, "exact": 0, "inconsistent": 0,
             "reset": 0, "iter": 0, "itermax": MAX_ITER, "line": 0, "m": m, "meq": 0, "mode": 0,
             "n": n}
    # scipy's workspace for m inequalities, topped up when there are none
    size = n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28 + (0 if m else 2 * n * (n + 1))
    buffer = np.zeros(size)
    indices = np.zeros(m + 2 * n + 2, dtype=np.int32)
    mult = np.zeros(m + 2 * n + 2)
    # the core marks an infinite bound by nan
    xl = np.where(np.isfinite(cset.lower), cset.lower, np.nan)
    xu = np.where(np.isfinite(cset.upper), cset.upper, np.nan)
    fx, g = objective.value(x), objective.grad(x)
    nfev = njev = 1
    at, valued, graded = x.copy(), True, True  # the last point evaluated, and what is known there
    while True:
        _SLSQP(state, fx, g, C, d, x, mult, xl, xu, buffer, indices)
        mode = state["mode"]
        if abs(mode) != 1:
            break
        if not (x == at).all():
            at, valued, graded = x.copy(), False, False
        if mode == 1:
            if not valued:
                fx, nfev, valued = objective.value(x), nfev + 1, True
            if budgets:
                d[:] = budget(x)
        else:
            if not graded:
                g, njev, graded = objective.grad(x), njev + 1, True
            if budgets:
                C[:] = normals(x)
    return OptimizeResult(x=x, fun=fx, nit=state["iter"], nfev=nfev, njev=njev, status=mode)


def _descend(objective: _Objective, cset: ConstraintSet, v, fv) -> FitResult:
    """SLSQP from ``v`` (contrast ``fv``), restarted from its end point while
    that point is not certified and the contrast still falls, up to
    ``MAX_PASSES`` passes, each one :func:`minimize` call; returns the fit that
    :func:`_certified` builds at the end point, with SLSQP's iterations summed
    over the passes.  When no pass lowers the contrast, the end point is ``v``
    itself, and it is certified there: a warm start can already be a KKT
    point.  The floating-point error state is entered once here for all the
    passes; :func:`minimize` filters the one warning of its fallback."""
    spec, x = objective.spec, objective.x
    iterations, end = 0, None
    # the objective's callbacks run in this error state, entered once here:
    # probes at explosive parameters overflow to an infinite contrast
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_PASSES):
            res = minimize(objective, v, cset)
            iterations += int(res.nit)
            if not np.all(np.isfinite(res.x)) or not np.isfinite(res.fun):
                break
            w = cset.project(res.x)
            fw = objective.value(w)
            if not fw < fv:
                break
            v, fv = w, fw
            end = _certified(spec, cset, v, x)
            if end.converged:
                break
        if end is None:  # no pass lowered the contrast: the descent ends at its start
            end = _certified(spec, cset, v, x)
    end.iterations = iterations
    return end


def _certified(spec, cset, v, x) -> FitResult:
    """The fit at ``v``: contrast, projected gradient and convergence flag,
    with no SLSQP iterations.  This is the one place where a point is
    certified."""
    ev = contrast(spec, v, x)
    gn = projected_grad_norm(cset, v, gradient(spec, v, x))
    return FitResult(
        spec=spec,
        theta=ParamVector(spec, v),
        gamma_bar_min=ev.gamma_bar,
        loglik=-0.5 * x.size * ev.gamma_bar,
        converged=gn <= GRAD_TOL,
        n_used=x.size,
        grad_norm=gn,
        iterations=0,
    )


def fit(spec: ModelSpec, x, warm=None) -> FitResult:
    """Minimize the contrast for one model spec over its constraint set.

    SLSQP descends first from ``warm`` if given, then from the zero-init
    start, in up to ``MAX_PASSES`` passes per start; there is no other
    minimizer.  Each descent ends in its certified fit (:func:`_descend`).
    The zero-init start is descended only when the warm descent's fit is not
    converged.  The fit is the lowest descent's; among those within 1e-10 of
    it, the converged one, else the earliest.  A descent never ends above its
    start, so no start competes on its own.  The result's ``iterations`` sums
    SLSQP's iterations over the chosen descent's passes.  A one-parameter
    model's start is its closed-form optimum: it is certified there with no
    pass.

    Raises
    ------
    ValueError
        if ``warm`` is not ``spec.dim`` values inside ``constraint_set(spec)``.
    TooShortSeries
        if the sample has fewer than ``10 * spec.dim`` observations.
    OptimizerDiverged
        if no start produces a finite contrast value.
    """
    x = np.asarray(x, dtype=float)
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
        return _certified(spec, cset, base, x)
    starts = [base]
    if warm is not None and not np.array_equal(warm, base):
        starts.insert(0, warm)

    objective = _Objective(spec, x)
    descents = []
    for start in starts:
        descents.append(_descend(objective, cset, start, gamma_bar(spec, start, x)))
        if descents[-1].converged:
            break

    finite = [d for d in descents if np.isfinite(d.gamma_bar_min)]
    if not finite:
        raise OptimizerDiverged(f"{spec.name}: no start produced a finite contrast")
    fbest = min(d.gamma_bar_min for d in finite)
    tied = [d for d in finite if d.gamma_bar_min <= fbest + 1e-10]
    return next((d for d in tied if d.converged), tied[0])


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
    x = np.asarray(x, dtype=float)
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
                error=_reason(exc),
            )
    return [fits[i] for i in range(len(family))]
