"""Penalized selection criteria on the canonical n-scale.

Every criterion value has the shape

    value = n * gamma_bar(theta_hat) + penalty [+ logdet_term]

summed in exactly that order, so values are bit-reproducible and two
criteria sharing a fit differ only through their penalty/logdet parts.
Each :class:`CriterionKind` carries its rule: its penalty, what it needs
(``needs_info``, ``needs_mu4``) and whether it adds log det(-F) (``logdet``),
which :func:`criterion_value` reads.  The seven named kinds are module
constants, and the private table ``_RULES`` maps each name to its kind:

* ``aic``         penalty 2|m|
* ``bic``         penalty |m| log n
* ``hq``          penalty |m| log log n
* ``tracepen``    penalty n * trace_pen from the estimated info matrices
* ``tracepen_cf`` penalty from the closed-form trace with a plug-in mu4
* ``kc``          penalty |m| log n, plus log det(-F) correction term
* ``kcprime``     penalty |m| log n - |m| log 2pi + 2 log|m|, plus log det(-F)
* custom          penalty n * pen(spec) for a user callable, checked to be
                  monotone along the nesting partial order of the family; it
                  needs neither info matrices nor mu4, whatever its name, and
                  its penalty (a ``_Rate``) is the one place its rate is held

On this scale, -2 log L, Hannan & Quinn (1979) write their criterion as
2c |m| log log n and need c > 1 for strong consistency; ``hq`` here is
c = 1/2, and it charges less than ``aic`` for n < e^(e^2) ~ 1,618.

A selection holds one :class:`ModelRow` per candidate: its fit, and its report
or why it was excluded.  When no candidate scores, no row is chosen.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import MissingInfo, UnsupportedFamily
from .fitting import _FAILURES, FitResult, _fitted_series, _reason, fit_family
from .information import InfoMatrices, closed_form_trace, info_matrices
from .likelihood import mu4_hat, residuals
from .models import ModelSpec, _write_csv, is_nested


def _aic(fit: FitResult, info, mu4) -> float:
    return 2.0 * fit.spec.dim


def _bic(fit: FitResult, info, mu4) -> float:
    return fit.spec.dim * math.log(fit.n_used)


def _hq(fit: FitResult, info, mu4) -> float:
    return fit.spec.dim * math.log(math.log(fit.n_used))


def _tracepen(fit: FitResult, info, mu4) -> float:
    return fit.n_used * info.trace_pen


def _tracepen_cf(fit: FitResult, info, mu4) -> float:
    return closed_form_trace(fit.spec, mu4=mu4).value


def _kcprime(fit: FitResult, info, mu4) -> float:
    n, m = fit.n_used, fit.spec.dim
    return m * math.log(n) - m * math.log(2.0 * math.pi) + 2.0 * math.log(m)


class _Rate(NamedTuple):
    """A custom kind's penalty n * pen(spec); two built from one pen are equal."""

    pen: Callable[[ModelSpec], float]

    def __call__(self, fit: FitResult, info, mu4) -> float:
        return fit.n_used * float(self.pen(fit.spec))


@dataclass(frozen=True)
class CriterionKind:
    """A selection criterion and the rule it carries: a module constant (found
    by :meth:`named`), or one :meth:`custom` builds from a penalty rate."""

    name: str
    penalty: Callable[[FitResult, InfoMatrices | None, float | None], float]
    needs_info: bool = False
    needs_mu4: bool = False
    logdet: bool = False

    @classmethod
    def named(cls, name: str) -> "CriterionKind":
        key = name.strip().lower()
        if key not in _RULES:
            raise ValueError(f"unknown criterion {key!r}; expected one of {_KNOWN}")
        return _RULES[key]

    @classmethod
    def custom(cls, pen: Callable[[ModelSpec], float], name: str = "custom") -> "CriterionKind":
        return cls(name, _Rate(pen))


AIC = CriterionKind("aic", _aic)
BIC = CriterionKind("bic", _bic)
HQ = CriterionKind("hq", _hq)
TRACE_PEN = CriterionKind("tracepen", _tracepen, needs_info=True)
TRACE_PEN_CF = CriterionKind("tracepen_cf", _tracepen_cf, needs_mu4=True)
KC = CriterionKind("kc", _bic, needs_info=True, logdet=True)
KC_PRIME = CriterionKind("kcprime", _kcprime, needs_info=True, logdet=True)
_RULES = {k.name: k for k in (AIC, BIC, HQ, TRACE_PEN, TRACE_PEN_CF, KC, KC_PRIME)}
_KNOWN = tuple(_RULES)


@dataclass(frozen=True)
class CriterionReport:
    """One model's criterion value and its parts, in the order
    :meth:`SelectionResult.to_csv` writes them; ``logdet_term`` is None for a
    kind without the log det(-F) term."""

    n_gamma_bar: float
    penalty: float
    logdet_term: float | None
    value: float


def criterion_value(
    fit: FitResult,
    kind: CriterionKind,
    info: InfoMatrices | None = None,
    mu4: float | None = None,
) -> CriterionReport:
    """Canonical criterion value for one fitted model; MissingInfo if the
    kind needs ``info`` or ``mu4`` and it is None."""
    if kind.needs_info and info is None:
        raise MissingInfo(f"{kind.name} needs estimated info matrices")
    if kind.needs_mu4:
        if not closed_form_trace(fit.spec).complete:
            raise UnsupportedFamily(
                f"{fit.spec.name}: closed-form trace is incomplete for this family"
            )
        if mu4 is None:
            raise MissingInfo("closed-form tracepen needs a mu4 estimate")
    n_gamma_bar = fit.n_used * fit.gamma_bar_min
    penalty = kind.penalty(fit, info, mu4)
    logdet_term = info.logdet_negF if kind.logdet else None
    value = n_gamma_bar + penalty
    if logdet_term is not None:
        value += logdet_term
    return CriterionReport(n_gamma_bar, penalty, logdet_term, value)


@dataclass
class ModelRow:
    """One candidate in a selection sweep: its fit, and its report or why it
    was excluded."""

    fit: FitResult
    report: CriterionReport | None = None
    excluded: str | None = None
    chosen: bool = False


@dataclass
class SelectionResult:
    kind: str
    rows: list[ModelRow]

    @property
    def chosen_row(self) -> ModelRow | None:
        return next((r for r in self.rows if r.chosen), None)

    @property
    def chosen(self) -> ModelSpec | None:
        row = self.chosen_row
        return None if row is None else row.fit.spec

    def to_csv(self, path) -> None:
        def line(r: ModelRow) -> list:
            parts = astuple(r.report) if r.report else (None,) * 4
            return [
                r.fit.spec.name,
                str(r.fit.converged).lower(),
                *("" if p is None else repr(p) for p in parts),
                str(r.chosen).lower(),
                r.excluded or "",
                repr(r.fit.grad_norm),
                r.fit.iterations,
            ]

        header = ["model", "converged", "n_gamma_bar", "penalty", "logdet_term", "value",
                  "chosen", "excluded", "grad_norm", "iterations"]
        _write_csv(path, header, map(line, self.rows))


def classify(truth: ModelSpec, chosen: ModelSpec) -> str:
    """true_model / overfit / misspecified relative to the data-generating spec."""
    if chosen == truth:
        return "true_model"
    if is_nested(truth, chosen):
        return "overfit"
    return "misspecified"


def _check_custom_monotone(pen: Callable[[ModelSpec], float], family: list[ModelSpec]) -> None:
    for inner in family:
        for outer in family:
            if inner is outer or not is_nested(inner, outer):
                continue
            if pen(inner) > pen(outer) + 1e-12:
                raise ValueError(
                    f"custom penalty not monotone under nesting: "
                    f"pen({inner.name}) > pen({outer.name})"
                )


def select_from_fits(
    fits: list[FitResult],
    x,
    kind: CriterionKind,
    info_cache: dict | None = None,
) -> SelectionResult:
    """Selection over already-fitted models (shared across criteria): one row
    per fit, in order, and none chosen when no candidate scores.

    ``info_cache`` maps fit index -> InfoMatrices or why they failed; it is
    filled lazily so several criteria evaluated on the same fits estimate the
    info matrices only once per model.  Only the package's own errors and numerical
    failures exclude a model; any other exception propagates, and so does
    MissingInfo, since the sweep always supplies what a rule needs.

    Raises
    ------
    ValueError
        if ``x`` is not a 1-D series of finite values (as :func:`.fitting.fit`
        checks it), or its length is not a fit's ``n_used``: the fits were
        made on another series.
    """
    x = _fitted_series(x, fits)
    if isinstance(kind.penalty, _Rate):
        _check_custom_monotone(kind.penalty.pen, [f.spec for f in fits])
    if info_cache is None:
        info_cache = {}
    rows: list[ModelRow] = []
    for i, f in enumerate(fits):
        if not f.converged:
            rows.append(ModelRow(f, excluded=f.error or "not converged"))
            continue
        info = None
        if kind.needs_info:
            if i not in info_cache:
                try:
                    info_cache[i] = info_matrices(f, x)
                except _FAILURES as exc:
                    info_cache[i] = _reason(exc)
            info = info_cache[i]
            if isinstance(info, str):
                rows.append(ModelRow(f, excluded=info))
                continue
        mu4 = None
        # a family the closed form cannot score is excluded by criterion_value
        # below, so its residual pass would be wasted
        if kind.needs_mu4 and closed_form_trace(f.spec).complete:
            xi = residuals(f.spec, f.theta.values, x)
            try:
                mu4 = mu4_hat(xi)
            except ValueError as exc:  # all-zero residuals: the ratio is undefined
                rows.append(ModelRow(f, excluded=_reason(exc)))
                continue
        try:
            rows.append(ModelRow(f, report=criterion_value(f, kind, info=info, mu4=mu4)))
        except UnsupportedFamily as exc:
            rows.append(ModelRow(f, excluded=_reason(exc)))

    scored = [r for r in rows if r.report is not None and np.isfinite(r.report.value)]
    if scored:
        best = min(scored, key=lambda r: (r.report.value, r.fit.spec.dim, r.fit.spec.name))
        best.chosen = True
    return SelectionResult(kind.name, rows)


def select(family: list[ModelSpec], x, kind: CriterionKind) -> SelectionResult:
    """Fit every model in ``family`` on ``x`` and pick the criterion minimizer.

    Ties (exactly equal values) break toward fewer parameters, then canonical
    name order.  A model that fails to fit or to score is an excluded row, not
    a failed sweep; when every model is excluded, the result has no pick.
    A series that is not 1-D and finite is a ValueError (``fitting.fit``).
    """
    fits = fit_family(family, x)
    return select_from_fits(fits, x, kind)
