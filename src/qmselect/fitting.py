"""Contrast minimization: single-model fits and family sweeps.

A fit has one or two starts: a warm start if given, then the canonical
start (dynamic coefficients zero, the scale parameter set from the sample
second moment); nothing is random.  SLSQP descends from them in that order
over the box and the coefficient budgets, all budgets handed over as one
linear inequality with a constant Jacobian.  This module alone says how
SLSQP sees a spec's constraint set: one read-only record per spec
(:func:`_problem`), built once from ``models.constraint_set``, holds the
box, the budget rows (one copy, every block a view of it), the one list of
products a value request takes and the C core's workspace size.  Each
SLSQP pass is one call of :func:`minimize`, which builds the constraint
Jacobian once: on the scipy versions in ``models._CORE_PINNED_ON`` it
drives SLSQP's C core directly, without ``scipy.optimize.minimize``'s
per-call wrapper, writing the budget values in place; elsewhere it calls
``minimize`` on the same bounds, products and Jacobian.  The tests pin
both to the same iterates.  The core is loaded without ``scipy.optimize``
(``models._pinned_core``), which is imported only where ``minimize`` runs,
and a pass returns :class:`SlsqpResult`, not ``OptimizeResult``.

What a fit does besides SLSQP's arithmetic and the objective's is kept
to what the record and numpy's ufuncs do directly: a pass slices its
views of the constraint vector once, the canonical start is the box clip
(its budgeted entries are 0), and the feasibility test, the projection
and the certificate's norm call the ufuncs that ``np.any``, ``np.clip``,
``np.sum`` and ``np.max`` call, without their wrappers.  The tests hold
each of these to the bits of a plain reference expression.

A fit stops after the first descent whose end point is certified
(projected gradient at most ``GRAD_TOL``).  Within a descent, while SLSQP's
end point is not certified and the contrast still falls, SLSQP is
restarted from there, up to ``MAX_PASSES`` passes.  All passes minimize one
``likelihood._Objective`` per fit, which holds one point and what it has
computed there and counts SLSQP's evaluations, so a restarted pass starts
from the value and gradient it holds; ``_descend`` holds the floating-point
error state for all of a start's passes.  Each descent returns the fit
certified at its end point, and its restarts, the stop after a certified
descent and the pick all read that fit's ``converged`` flag.  A descent
moves only on a strict decrease of the contrast, so it never ends above its
start, and the fit picks among the descents' fits only:
gamma_bar(theta_hat) <= gamma_bar(start) is structural.

:func:`fit_family` fits nested models first, in order of (dim, family
declaration order, name), and warm-starts each model at the best nested
optimum whose parameter names it shares, zero-padded by name.  That point
is feasible and keeps the inner contrast, so along same-family nesting and
garch inside the power-2 aparch the fitted contrast never rises.  Every
point is certified in one place (``_certified``): contrast, projected
gradient norm and the ``converged`` flag, the one comparison with
``GRAD_TOL``.  A descent's end point is certified from the contrast and
gradient its ``_Objective`` holds there, so certifying costs no recursion
of its own; only a one-parameter model, which no descent fits, calls
``contrast`` and ``gradient`` for it.  The projected gradient is the step to the
Euclidean projection of ``theta - gradient``, so it is zero exactly at a
first-order (KKT) point of the constraint set, edges and kinks of the
budgets included.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy

from .errors import OptimizerDiverged, QmselectError, TooShortSeries, UnsupportedFamily
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
#: largest signed budget SLSQP is given: its 2^k sign rows (65,536 at 16)
MAX_SIGNED_GROUP = 16
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


def _series(x) -> np.ndarray:
    """``x`` as a float array, checked to be a 1-D series of finite values;
    a ValueError otherwise, a bad input rather than a failed model.  It is
    not ``models._as_series``: :func:`fit` reports an empty series as a
    :class:`TooShortSeries` model failure, and the likelihood functions
    accept non-finite values, which give an infinite contrast."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"the series must be 1-D, got an array of shape {x.shape}")
    if not np.isfinite(x).all():
        bad = np.flatnonzero(~np.isfinite(x))[0]
        raise ValueError(f"the series is not finite at index {bad}: {x[bad]}")
    return x


def _fitted_series(x, fits) -> np.ndarray:
    """``x`` checked by :func:`_series`, then to be as long as the series each
    of ``fits`` was fitted on (its ``n_used``): the one series check of
    ``select_from_fits`` and ``info_matrices``."""
    x = _series(x)
    for f in fits:
        if f.n_used != x.size:
            raise ValueError(f"{f.spec.name} was fitted on {f.n_used} observations, "
                             f"the series has {x.size}")
    return x


def _start_point(spec: ModelSpec, cset: ConstraintSet, x: np.ndarray) -> np.ndarray:
    """Zero dynamic coefficients; the family's one scale block, sigma or omega
    (a variance, or aparch's sigma ** delta), from the uncentered second moment
    (``sum / n``, what ``np.mean`` computes).  Every budgeted entry is 0,
    inside its budget, so the projection onto ``cset`` is the box clip."""
    m2 = float(np.add.reduce(x**2) / x.size)
    v = np.zeros(spec.dim)
    v[spec.layout.sigma] = np.sqrt(m2)
    v[spec.layout.omega] = m2 ** (spec.delta / 2.0)
    return v.clip(cset.lower, cset.upper)


def projected_grad_norm(cset: ConstraintSet, v: np.ndarray, g: np.ndarray) -> float:
    """Sup-norm of the projected-gradient step ``v - project(v - g)``; zero
    exactly when ``v`` is a first-order (KKT) point on the feasible set."""
    return float(np.maximum.reduce(np.abs(v - cset.project(v - g))))


#: SLSQP's reverse-communication C core, what ``scipy.optimize.minimize``
#: drives for ``method="SLSQP"``; None off the pinned scipy versions
_SLSQP = _pinned_core(scipy.__version__, "scipy.optimize._slsqplib", "slsqp")


class _SlsqpCore(NamedTuple):
    """How SLSQP sees one spec's constraint set (:func:`_problem`), all of it
    read-only: the box, the set's own arrays; the budget matrix ``A``
    (``rows``), its one copy; the products a value request takes
    (``products``: rows of the constraint vector, their block of ``A`` and
    their bounds, see :func:`_problem`); the number of constraint rows
    ``m``; and the core's workspace size."""

    xl: np.ndarray
    xu: np.ndarray
    rows: np.ndarray
    products: tuple[tuple[slice, np.ndarray, np.ndarray], ...]
    m: int
    size: int

    @property
    def jac(self) -> np.ndarray:
        """The constraint Jacobian ``-A`` in Fortran order, one row of zeros
        when there is no budget; built from ``rows`` on each read, read-only."""
        jac = np.zeros((max(self.m, 1), self.xl.size), order="F")
        if self.m:
            np.negative(self.rows, out=jac)
        jac.flags.writeable = False
        return jac


@functools.cache
def _problem(spec: ModelSpec) -> _SlsqpCore:
    """SLSQP's problem for ``spec``, built once per spec.

    The budgets, the set's ``(index, signed, bound)`` triples (see
    :class:`~qmselect.models.ConstraintSet`), are one linear inequality
    ``b - A v >= 0`` with a constant Jacobian.  ``A`` holds each group's
    rows in group order, a row of ones for a non-negative group and the 2^k
    sign rows of a signed group, whose maximum is sum |v_i|; ``b`` holds the
    group's bound on each of its rows.
    SLSQP stacks separate constraints the same way.  ``A`` is kept once:
    every block is a view of it, and so is ``b``, which a product subtracts
    from (the same bits as its groups' scalar bounds).

    The value is ``b - A v``, one product per block of ``products``, the
    one list both routes of :func:`minimize` read.  A matrix-vector product
    may sum a row in another order once the matrix has more rows, but a row
    with at most two entries sums to the same bits in any order (its zeros
    add exact zeros, and a 0 * inf is a nan in every order).  So there is
    one product over all rows when every group has at most two members,
    else one per group.  A signed group of more than ``MAX_SIGNED_GROUP``
    members raises :class:`UnsupportedFamily` before any row is built."""
    cset, n = constraint_set(spec), spec.dim
    groups = [(np.arange(n)[idx], signed, bound) for idx, signed, bound in cset.groups]
    for idx, signed, _ in groups:
        if signed and idx.size > MAX_SIGNED_GROUP:
            raise UnsupportedFamily(f"a signed budget of {idx.size} coefficients takes 2^{idx.size} "
                                    f"SLSQP rows; at most {MAX_SIGNED_GROUP} are supported")
    tops = [0, *itertools.accumulate(2**idx.size if signed else 1 for idx, signed, _ in groups)]
    m = tops[-1]
    rows, bounds = np.zeros((m, n)), np.empty(m)
    for (idx, signed, bound), top, stop in zip(groups, tops, tops[1:]):
        if signed:  # itertools.product's order of the signs (1, -1): the last varies fastest
            for k, i in enumerate(idx.tolist()):
                rows[top:stop, i] = 1.0 - 2.0 * ((np.arange(stop - top) >> (idx.size - 1 - k)) & 1)
        else:
            rows[top:stop, idx] = 1.0
        bounds[top:stop] = bound
    # frozen before any view is taken: a view of a read-only array is read-only
    rows.flags.writeable = bounds.flags.writeable = False
    if all(idx.size <= 2 for idx, _, _ in groups):
        tops = [0, m] if m else []
    products = tuple((slice(i, j), rows[i:j], bounds[i:j]) for i, j in zip(tops, tops[1:]))
    # scipy's workspace for m inequalities, topped up when there are none
    size = n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28 + (0 if m else 2 * n * (n + 1))
    return _SlsqpCore(cset.lower, cset.upper, rows, products, m, size)


#: the state SLSQP's core starts a pass from, as ``_minimize_slsqp`` builds
#: it, but for the sizes ``m`` and ``n``
_STATE = {"acc": FTOL, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0, "h3": 0.0,
          "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * FTOL, "exact": 0, "inconsistent": 0,
          "reset": 0, "iter": 0, "itermax": MAX_ITER, "line": 0, "meq": 0, "mode": 0}


class SlsqpResult(NamedTuple):
    """The fields of ``scipy.optimize.OptimizeResult`` that an SLSQP pass
    reports here, under the same names."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    njev: int
    status: int


def minimize(objective: _Objective, v: np.ndarray) -> SlsqpResult:
    """One SLSQP pass from ``v`` over the constraint set of
    ``objective.spec``: what ``scipy.optimize.minimize(objective.value, v,
    jac=objective.grad, method="SLSQP", bounds=..., constraints=...,
    options={"maxiter": MAX_ITER, "ftol": FTOL})`` returns, with the same
    iterates and the same ``x``, ``fun``, ``nit``, ``nfev``, ``njev`` and
    ``status``.

    Both routes read the spec's record (:func:`_problem`), its ``products``
    for the budget values, and one constraint matrix per pass, its ``jac``,
    which neither writes: SLSQP's core only reads it (the tests hold it to
    that), and scipy's driver copies it.  With a pinned core (``_SLSQP``,
    see ``models._pinned_core``) the core is driven directly, without
    ``minimize``'s per-callback wrappers, on a point, constraint vector,
    multipliers and workspace new each pass.  The start is clipped to the
    box; mode 1 is answered with the value and the budget values, written
    through views of the constraint vector sliced once per pass, and mode
    -1 with the gradient.  The objective decides what a request costs and
    counts it, as ``minimize``'s ``ScalarFunction`` does; the start's value
    and gradient count one each, as there, even where a restarted pass
    starts at the point the objective holds.  Without a pinned core
    ``minimize`` itself runs, imported here; its warning that it clipped a
    point just outside the box is ignored, since the contrast is clamped
    there.
    """
    core = _problem(objective.spec)
    C = core.jac
    if _SLSQP is None:
        from scipy import optimize

        fun = lambda v: np.concatenate([b - a.dot(v) for _, a, b in core.products])
        budget = [{"type": "ineq", "fun": fun, "jac": lambda v: C}] if core.m else []
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*outside bounds.*")
            res = optimize.minimize(objective.value, v, jac=objective.grad, method="SLSQP",
                                    bounds=optimize.Bounds(core.xl, core.xu), constraints=budget,
                                    options={"maxiter": MAX_ITER, "ftol": FTOL})
        return SlsqpResult(res.x, res.fun, res.nit, res.nfev, res.njev, res.status)
    n, m, xl, xu = v.size, core.m, core.xl, core.xu
    x, d = v.clip(xl, xu), np.zeros(max(m, 1))
    # each product's rows of d, sliced once per pass
    products = [(d[block], a, b) for block, a, b in core.products]
    for view, a, b in products:
        np.subtract(b, a.dot(x), view)
    state = {**_STATE, "m": m, "n": n}
    buffer = np.zeros(core.size)
    indices = np.zeros(m + 2 * n + 2, dtype=np.int32)
    mult = np.zeros(m + 2 * n + 2)
    value, grad, core_step = objective.value, objective.grad, _SLSQP
    fx, g = value(x), grad(x)
    # the start counts one value and one gradient, as in scipy, also where they are held
    nfev, njev = objective.nfev - 1, objective.njev - 1
    while True:
        core_step(state, fx, g, C, d, x, mult, xl, xu, buffer, indices)
        mode = state["mode"]
        if mode == 1:
            fx = value(x)
            for view, a, b in products:
                np.subtract(b, a.dot(x), view)
        elif mode == -1:
            g = grad(x)
        else:
            break
    return SlsqpResult(x, fx, state["iter"], objective.nfev - nfev, objective.njev - njev, mode)


def _descend(objective: _Objective, cset: ConstraintSet, v, fv) -> FitResult:
    """SLSQP from ``v`` (contrast ``fv``), restarted from its end point while
    that point is not certified and the contrast still falls, up to
    ``MAX_PASSES`` passes, each one :func:`minimize` call; returns the fit that
    :func:`_certified` builds at the end point, with SLSQP's iterations summed
    over the passes.  When no pass lowers the contrast, the end point is ``v``
    itself, and it is certified there: a warm start can already be a KKT
    point.  The certificate reads the objective's value and gradient at the
    end point: after an improving pass the value it has just returned and
    the gradient from the recursion it holds there, which the next pass
    starts from, and at the start both, with one recursion if the objective
    has moved on.  The floating-point error state is entered once here for
    all the passes; :func:`minimize` filters the one warning of its
    fallback."""
    spec, x = objective.spec, objective.x
    iterations, end = 0, None
    # the objective's callbacks run in this error state, entered once here:
    # probes at explosive parameters overflow to an infinite contrast
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_PASSES):
            res = minimize(objective, v)
            iterations += int(res.nit)
            if not (np.isfinite(res.x).all() and math.isfinite(res.fun)):
                break
            w = cset.project(res.x)
            fw = objective.value(w)
            if not fw < fv:
                break
            v, fv = w, fw
            end = _certified(spec, cset, v, x, fv, objective.grad(v))
            if end.converged:
                break
        if end is None:  # no pass lowered the contrast: the descent ends at its start
            end = _certified(spec, cset, v, x, objective.value(v), objective.grad(v))
    end.iterations = iterations
    return end


def _certified(spec, cset, v, x, value, grad) -> FitResult:
    """The fit at ``v`` from its contrast ``value`` and its gradient
    ``grad``, both taken by the caller: projected gradient norm, convergence
    flag and quasi-log-likelihood, with no SLSQP iterations.  This is the one
    place where a point is certified; it evaluates nothing."""
    gn = projected_grad_norm(cset, v, grad)
    return FitResult(
        spec=spec,
        theta=ParamVector(spec, v),
        gamma_bar_min=value,
        loglik=-0.5 * x.size * value,
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
        if ``x`` is not a 1-D series of finite values (a bad input, not a
        failed model, so :func:`fit_family` does not catch it), or ``warm``
        is not ``spec.dim`` values inside ``constraint_set(spec)``.
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
        return _certified(spec, cset, base, x, contrast(spec, base, x).gamma_bar,
                          gradient(spec, base, x))
    starts = [base]
    if warm is not None and (warm != base).any():
        starts.insert(0, warm)

    objective = _Objective(spec, x)
    descents = []
    for start in starts:
        descents.append(_descend(objective, cset, start, gamma_bar(spec, start, x)))
        if descents[-1].converged:
            break

    finite = [d for d in descents if math.isfinite(d.gamma_bar_min)]
    if not finite:
        raise OptimizerDiverged(f"{spec.name}: no start produced a finite contrast")
    fbest = min(d.gamma_bar_min for d in finite)
    tied = [d for d in finite if d.gamma_bar_min <= fbest + 1e-10]
    return next((d for d in tied if d.converged), tied[0])


def _warm_start(spec: ModelSpec, fits) -> np.ndarray | None:
    """The optimum of the best finite fit in ``fits`` that is nested in
    ``spec`` and whose parameter names are all among ``spec``'s, with the
    names it lacks set to zero; None when there is no such fit."""
    names = spec._names
    covered = set(names).issuperset
    inner = [f for f in fits if math.isfinite(f.gamma_bar_min) and covered(f.spec._names)
             and is_nested(f.spec, spec)]
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
    instead of raising; any other exception propagates, the ValueError of
    :func:`fit` for a series that is not 1-D and finite included."""
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
