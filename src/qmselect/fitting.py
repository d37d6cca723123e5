"""Contrast minimization: single-model fits and family sweeps.

A fit runs from the canonical start (dynamic coefficients zero, the scale
parameter set from the sample second moment) and, if given, from a warm
start; nothing is random.  Each start goes through a constrained
quasi-Newton pass (SLSQP over the box + coefficient-budget constraints) and
a short projected-Newton polish that pushes the projected gradient below
``GRAD_TOL`` whenever the optimum is a genuine stationary point; its Hessian
is the central-difference one of :mod:`.likelihood`.  Both minimize one
``likelihood._Objective`` per fit.  The starts stay in the candidate pool,
so gamma_bar(theta_hat) <= gamma_bar(start) is structural.

:func:`fit_family` fits nested models first and warm-starts each model at
the best nested optimum whose parameter names it shares, zero-padded by
name.  That point is feasible and keeps the inner contrast, so along
same-family nesting and garch inside the power-2 aparch the fitted contrast
never rises.  Every fit is certified in one place (``_certified``):
contrast, projected gradient norm and the ``converged`` flag.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import OptimizerDiverged, QmselectError, TooShortSeries
from .likelihood import _Objective, contrast, gamma_bar, gradient, _fd_hessian
from .models import ConstraintSet, Family, ModelSpec, ParamVector, Trajectory
from .models import _as_values, constraint_set, is_nested

_ACTIVE_TOL = 1e-9

#: SLSQP iteration cap per start
MAX_ITER = 500
#: a fit is converged when its projected gradient sup-norm is at most this
GRAD_TOL = 1e-6
#: projected-Newton steps of the polish after each SLSQP pass
POLISH_STEPS = 6


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
    """Zero dynamic coefficients; scale from the uncentered second moment."""
    m2 = float(np.mean(x**2))
    v = np.zeros(spec.dim)
    fam = spec.family
    if fam is Family.WN:
        v[0] = np.sqrt(m2)
    elif fam is Family.ARMA:
        v[-1] = np.sqrt(m2)
    elif fam is Family.GARCH:
        v[0] = m2
    elif fam is Family.APARCH:
        v[0] = m2 ** (spec.delta / 2.0)
    elif fam is Family.ARARCH:
        v[1] = m2
    return cset.project(v)


def projected_grad_norm(cset: ConstraintSet, v: np.ndarray, g: np.ndarray) -> float:
    """Sup-norm of the gradient with components blocked by active constraints
    removed; zero here means first-order stationarity on the feasible set."""
    gp = g.astype(float).copy()
    at_lo = v <= cset.lower + _ACTIVE_TOL
    at_hi = v >= cset.upper - _ACTIVE_TOL
    gp[at_lo & (gp > 0)] = 0.0
    gp[at_hi & (gp < 0)] = 0.0
    for grp in cset.groups:
        if grp.value(v) < grp.bound - _ACTIVE_TOL:
            continue
        nu = np.zeros_like(v)
        for i in grp.indices:
            if abs(v[i]) > _ACTIVE_TOL:
                nu[i] = np.sign(v[i])
        denom = float(nu @ nu)
        if denom > 0 and float(nu @ gp) < 0:  # descent would push the sum outward
            gp -= (float(nu @ gp) / denom) * nu
    return float(np.max(np.abs(gp))) if gp.size else 0.0


def _polish(objective: _Objective, cset, v):
    """Projected-Newton refinement; returns (theta, gamma_bar at theta, n_steps)."""
    spec, x = objective.spec, objective.x
    steps = 0
    fv = objective.value(v)
    for _ in range(POLISH_STEPS):
        g = objective.grad(v)
        if projected_grad_norm(cset, v, g) <= GRAD_TOL:
            break
        hess = _fd_hessian(spec, v, x)
        try:
            w, q = np.linalg.eigh(hess)
            w = np.maximum(w, max(1e-8, 1e-8 * float(np.max(np.abs(w)))))
            step = -(q @ ((q.T @ g) / w))
        except np.linalg.LinAlgError:
            step = -g
        accepted = False
        t = 1.0
        while t >= 1e-3:
            cand = cset.project(v + t * step)
            fc = objective.value(cand)
            if fc < fv - 1e-14:
                v, fv = cand, fc
                accepted = True
                break
            t *= 0.5
        steps += 1
        if not accepted:
            break
    return v, fv, steps


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


def _fit_wn(spec, cset, x) -> FitResult:
    # closed form: the contrast in sigma alone is minimized at the root
    # of the uncentered second moment, clipped into the box
    sigma = float(np.clip(np.sqrt(np.mean(x**2)), cset.lower[0], cset.upper[0]))
    return _certified(spec, cset, np.array([sigma]), x, iterations=0)


def fit(spec: ModelSpec, x, warm=None) -> FitResult:
    """Minimize the contrast for one model spec over its constraint set.

    SLSQP and the polish run from the zero-init start and from ``warm`` if
    given (the closed-form wn fit ignores it).  The candidates are each start,
    then where the minimizers took it; ties within 1e-10 go to the earliest.

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
    if spec.family is Family.WN:
        return _fit_wn(spec, cset, x)

    base = _start_point(spec, cset, x)
    starts = [base]
    if warm is not None and not np.array_equal(warm, base):
        starts.append(warm)

    bounds = cset.scipy_bounds()
    cons = cset.scipy_constraints()
    objective = _Objective(spec, x)
    candidates = []  # (value, theta, iterations) in preference order
    for start in starts:
        candidates.append((gamma_bar(spec, start, x), start, 0))
        with warnings.catch_warnings():
            # SLSQP line searches may poke just outside the box; the contrast
            # is clamped there, so the probe values are finite and harmless
            warnings.filterwarnings("ignore", message=".*outside bounds.*")
            res = minimize(objective.value, start, jac=objective.grad, method="SLSQP",
                           bounds=bounds, constraints=cons,
                           options={"maxiter": MAX_ITER, "ftol": 1e-12})
        if not np.all(np.isfinite(res.x)) or not np.isfinite(res.fun):
            continue
        v, fv, extra = _polish(objective, cset, cset.project(res.x))
        candidates.append((fv, v, int(res.nit) + extra))

    finite = [c for c in candidates if np.isfinite(c[0])]
    if not finite:
        raise OptimizerDiverged(f"{spec.name}: no start produced a finite contrast")
    fbest = min(c[0] for c in finite)
    _, v, iters = next(c for c in finite if c[0] <= fbest + 1e-10)
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

    The specs are fitted in order of (dim, name), each warm-started by
    :func:`_warm_start` from the fits made before it, so the results do not
    depend on the caller's order.  Per-model failures are returned as
    non-converged placeholder results instead of raising.  Only the package's
    own errors and numerical failures count as failed fits; any other
    exception is a programming error and propagates."""
    x = _series(x)
    family = list(family)
    fits: dict[int, FitResult] = {}
    for i in sorted(range(len(family)), key=lambda i: (family[i].dim, family[i].name)):
        spec = family[i]
        try:
            fits[i] = fit(spec, x, _warm_start(spec, fits.values()))
        except (QmselectError, np.linalg.LinAlgError, FloatingPointError) as exc:
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
