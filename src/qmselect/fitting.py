"""Contrast minimization: single-model fits and family sweeps.

The minimizer runs from the canonical start (dynamic coefficients zero, the
scale parameter set from the sample second moment) plus a configurable number
of jittered restarts whose seed is derived from the data, so fits are
deterministic for identical inputs.  Each start goes through a constrained
quasi-Newton pass (SLSQP over the box + coefficient-budget constraints)
followed by a short projected-Newton polish that pushes the projected
gradient below ``grad_tol`` whenever the optimum is a genuine stationary
point; its Hessian is the central-difference one of :mod:`.likelihood`, the
same stencil :func:`~.likelihood.derivatives` uses.  The zero-init start
itself stays in the candidate pool, which makes the descent property
gamma_bar(theta_hat) <= gamma_bar(start) structural.  Every fit, the
closed-form wn one included, is certified in one place (``_certified``):
contrast, projected gradient norm and the ``converged`` flag.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import OptimizerDiverged, QmselectError, TooShortSeries
from .likelihood import contrast, gamma_bar, gradient, _fd_hessian
from .models import (
    ConstraintSet,
    Family,
    ModelSpec,
    ParamVector,
    Trajectory,
    constraint_set,
)

_ACTIVE_TOL = 1e-9


@dataclass(frozen=True)
class FitOptions:
    """Knobs for :func:`fit`; defaults match the shipped experiments."""

    max_iter: int = 500
    grad_tol: float = 1e-6
    n_restarts: int = 3
    restart_jitter: float = 0.1


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


def _restart_seed(spec: ModelSpec, x: np.ndarray) -> int:
    digest = hashlib.sha256(spec.name.encode() + x.tobytes()).digest()
    return int.from_bytes(digest[:8], "little")


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


def _polish(spec, cset, v, x, opts, max_steps: int = 6):
    """Projected-Newton refinement; returns (theta, n_steps)."""
    steps = 0
    fv = gamma_bar(spec, v, x)
    for _ in range(max_steps):
        g = gradient(spec, v, x)
        if projected_grad_norm(cset, v, g) <= opts.grad_tol:
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
            fc = gamma_bar(spec, cand, x)
            if fc < fv - 1e-14:
                v, fv = cand, fc
                accepted = True
                break
            t *= 0.5
        steps += 1
        if not accepted:
            break
    return v, steps


def _certified(spec, cset, v, x, opts, iterations: int) -> FitResult:
    """The fit at ``v``: contrast, projected gradient and convergence flag."""
    ev = contrast(spec, v, x)
    gn = projected_grad_norm(cset, v, gradient(spec, v, x))
    return FitResult(
        spec=spec,
        theta=ParamVector(spec, v),
        gamma_bar_min=ev.gamma_bar,
        loglik=ev.loglik,
        converged=gn <= opts.grad_tol,
        n_used=x.size,
        grad_norm=gn,
        iterations=iterations,
    )


def _fit_wn(spec, cset, x, opts) -> FitResult:
    # closed form: the contrast in sigma alone is minimized at the root
    # of the uncentered second moment, clipped into the box
    sigma = float(np.clip(np.sqrt(np.mean(x**2)), cset.lower[0], cset.upper[0]))
    return _certified(spec, cset, np.array([sigma]), x, opts, iterations=0)


def fit(spec: ModelSpec, x, opts: FitOptions | None = None) -> FitResult:
    """Minimize the contrast for one model spec over its constraint set.

    Raises
    ------
    TooShortSeries
        if the sample has fewer than ``10 * spec.dim`` observations.
    OptimizerDiverged
        if no start produces a finite contrast value.
    """
    opts = opts or FitOptions()
    x = _series(x)
    n = x.size
    if n < 10 * spec.dim:
        raise TooShortSeries(f"{spec.name}: n = {n} < {10 * spec.dim}")
    cset = constraint_set(spec)
    if spec.family is Family.WN:
        return _fit_wn(spec, cset, x, opts)

    base = _start_point(spec, cset, x)
    rng = np.random.default_rng(_restart_seed(spec, x))
    starts = [base]
    for _ in range(opts.n_restarts):
        jitter = rng.uniform(-opts.restart_jitter, opts.restart_jitter, size=spec.dim)
        starts.append(cset.project(base + jitter))

    bounds = cset.scipy_bounds()
    cons = cset.scipy_constraints()
    # candidates: (value, distance of start from base, theta, iterations)
    candidates = [(gamma_bar(spec, base, x), 0.0, base, 0)]
    for start in starts:
        with warnings.catch_warnings():
            # SLSQP line searches may poke just outside the box; the contrast
            # is clamped there, so the probe values are finite and harmless
            warnings.filterwarnings("ignore", message=".*outside bounds.*")
            res = minimize(
                lambda v: gamma_bar(spec, v, x),
                start,
                jac=lambda v: gradient(spec, v, x),
                method="SLSQP",
                bounds=bounds,
                constraints=cons,
                options={"maxiter": opts.max_iter, "ftol": 1e-12},
            )
        if not np.all(np.isfinite(res.x)) or not np.isfinite(res.fun):
            continue
        v = cset.project(res.x)
        v, extra = _polish(spec, cset, v, x, opts)
        fv = gamma_bar(spec, v, x)
        dist = float(np.max(np.abs(start - base)))
        candidates.append((fv, dist, v, int(res.nit) + extra))

    finite = [c for c in candidates if np.isfinite(c[0])]
    if not finite:
        raise OptimizerDiverged(f"{spec.name}: no start produced a finite contrast")
    fbest = min(c[0] for c in finite)
    # ties (within 1e-10) go to the start nearest the zero-init start
    tied = sorted((c for c in finite if c[0] <= fbest + 1e-10), key=lambda c: c[1])
    _, _, v, iters = tied[0]
    return _certified(spec, cset, v, x, opts, iters)


def fit_family(family, x, opts: FitOptions | None = None) -> list[FitResult]:
    """Fit every spec in ``family`` (order preserved); per-model failures are
    returned as non-converged placeholder results instead of raising.  Only
    the package's own errors and numerical failures count as failed fits; any
    other exception is a programming error and propagates."""
    x = _series(x)
    out = []
    for spec in family:
        try:
            out.append(fit(spec, x, opts))
        except (QmselectError, np.linalg.LinAlgError, FloatingPointError) as exc:
            out.append(
                FitResult(
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
            )
    return out
