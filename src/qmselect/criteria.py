"""Penalized selection criteria on the canonical n-scale.

Every criterion value has the shape

    value = n * gamma_bar(theta_hat) + penalty [+ logdet_term]

summed in exactly that order, so values are bit-reproducible and two
criteria sharing a fit differ only through their penalty/logdet parts.
Each named kind is one row of the private table ``_RULES`` (its penalty, what
it needs, whether it adds log det(-F)), which the known names, ``needs_info``,
``needs_mu4`` and :func:`criterion_value` all read:

* ``aic``         penalty 2|m|
* ``bic``         penalty |m| log n
* ``hq``          penalty |m| log log n
* ``tracepen``    penalty n * trace_pen from the estimated info matrices
* ``tracepen_cf`` penalty from the closed-form trace with a plug-in mu4
* ``kc``          penalty |m| log n, plus log det(-F) correction term
* ``kcprime``     penalty |m| log n - |m| log 2pi + 2 log|m|, plus log det(-F)
* custom          penalty n * pen(spec) for a user callable, checked to be
                  monotone along the nesting partial order of the family; it
                  needs neither info matrices nor mu4, whatever its name

A selection holds one :class:`ModelRow` per candidate: its fit, and its report
or why it was excluded.  When no candidate scores, no row is chosen.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import MissingInfo, UnsupportedFamily
from .fitting import _FAILURES, FitResult, _series, fit_family
from .information import InfoMatrices, closed_form_trace, info_matrices
from .likelihood import mu4_hat, residuals
from .models import ModelSpec, is_nested


class _Rule(NamedTuple):
    penalty: Callable[[FitResult, InfoMatrices | None, float | None], float]
    needs_info: bool = False
    needs_mu4: bool = False
    logdet: bool = False  # adds log det(-F) after the penalty


def _bic(fit: FitResult, info, mu4) -> float:
    return fit.spec.dim * math.log(fit.n_used)


def _kcprime(fit: FitResult, info, mu4) -> float:
    n, m = fit.n_used, fit.spec.dim
    return m * math.log(n) - m * math.log(2.0 * math.pi) + 2.0 * math.log(m)


_RULES = {
    "aic": _Rule(lambda fit, info, mu4: 2.0 * fit.spec.dim),
    "bic": _Rule(_bic),
    "hq": _Rule(lambda fit, info, mu4: fit.spec.dim * math.log(math.log(fit.n_used))),
    "tracepen": _Rule(lambda fit, info, mu4: fit.n_used * info.trace_pen, needs_info=True),
    "tracepen_cf": _Rule(
        lambda fit, info, mu4: closed_form_trace(fit.spec, mu4=mu4).value, needs_mu4=True
    ),
    "kc": _Rule(_bic, needs_info=True, logdet=True),
    "kcprime": _Rule(_kcprime, needs_info=True, logdet=True),
}
_KNOWN = tuple(_RULES)


@dataclass(frozen=True)
class CriterionKind:
    """A selection criterion; use the module-level singletons or
    :func:`CriterionKind.custom` for a user-supplied penalty rate."""

    name: str
    custom_pen: Callable[[ModelSpec], float] | None = None

    def __post_init__(self):
        if self.custom_pen is None and self.name not in _RULES:
            raise ValueError(f"unknown criterion {self.name!r}; expected one of {_KNOWN}")

    @classmethod
    def named(cls, name: str) -> "CriterionKind":
        return cls(name.strip().lower())

    @classmethod
    def custom(cls, pen: Callable[[ModelSpec], float], name: str = "custom") -> "CriterionKind":
        return cls(name, custom_pen=pen)

    @property
    def _rule(self) -> _Rule:
        if self.custom_pen is None:
            return _RULES[self.name]
        return _Rule(lambda fit, info, mu4: fit.n_used * float(self.custom_pen(fit.spec)))

    @property
    def needs_info(self) -> bool:
        return self._rule.needs_info

    @property
    def needs_mu4(self) -> bool:
        return self._rule.needs_mu4


AIC = CriterionKind("aic")
BIC = CriterionKind("bic")
HQ = CriterionKind("hq")
TRACE_PEN = CriterionKind("tracepen")
TRACE_PEN_CF = CriterionKind("tracepen_cf")
KC = CriterionKind("kc")
KC_PRIME = CriterionKind("kcprime")


@dataclass(frozen=True)
class CriterionComponents:
    n_gamma_bar: float
    penalty: float
    logdet_term: float | None = None
    mu4_used: float | None = None


@dataclass(frozen=True)
class CriterionReport:
    spec: ModelSpec
    kind: str
    value: float
    components: CriterionComponents


def criterion_value(
    fit: FitResult,
    kind: CriterionKind,
    info: InfoMatrices | None = None,
    mu4: float | None = None,
) -> CriterionReport:
    """Canonical criterion value for one fitted model; MissingInfo if the
    kind's rule needs ``info`` or ``mu4`` and it is None."""
    rule = kind._rule
    if rule.needs_info and info is None:
        raise MissingInfo(f"{kind.name} needs estimated info matrices")
    if rule.needs_mu4:
        if not closed_form_trace(fit.spec).complete:
            raise UnsupportedFamily(
                f"{fit.spec.name}: closed-form trace is incomplete for this family"
            )
        if mu4 is None:
            raise MissingInfo("closed-form tracepen needs a mu4 estimate")
    n_gamma_bar = fit.n_used * fit.gamma_bar_min
    penalty = rule.penalty(fit, info, mu4)
    logdet_term = info.logdet_negF if rule.logdet else None
    mu4_used = mu4 if rule.needs_mu4 else None
    value = n_gamma_bar + penalty
    if logdet_term is not None:
        value = value + logdet_term
    return CriterionReport(
        spec=fit.spec,
        kind=kind.name,
        value=value,
        components=CriterionComponents(n_gamma_bar, penalty, logdet_term, mu4_used),
    )


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
        return next((r.fit.spec for r in self.rows if r.chosen), None)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(
                [
                    "model", "converged", "n_gamma_bar", "penalty", "logdet_term", "value",
                    "chosen", "excluded", "grad_norm", "iterations",
                ]
            )
            for r in self.rows:
                comp = r.report.components if r.report else None
                w.writerow(
                    [
                        r.fit.spec.name,
                        str(r.fit.converged).lower(),
                        repr(comp.n_gamma_bar) if comp else "",
                        repr(comp.penalty) if comp else "",
                        repr(comp.logdet_term) if comp and comp.logdet_term is not None else "",
                        repr(r.report.value) if r.report else "",
                        str(r.chosen).lower(),
                        r.excluded or "",
                        repr(r.fit.grad_norm),
                        r.fit.iterations,
                    ]
                )


def classify(truth: ModelSpec, chosen: ModelSpec) -> str:
    """true_model / overfit / misspecified relative to the data-generating spec."""
    if chosen == truth:
        return "true_model"
    if is_nested(truth, chosen):
        return "overfit"
    return "misspecified"


def _check_custom_monotone(kind: CriterionKind, family: list[ModelSpec]) -> None:
    for inner in family:
        for outer in family:
            if inner is outer or not is_nested(inner, outer):
                continue
            if kind.custom_pen(inner) > kind.custom_pen(outer) + 1e-12:
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

    ``info_cache`` maps fit index -> InfoMatrices or Exception; it is filled
    lazily so several criteria evaluated on the same fits estimate the info
    matrices only once per model.  Only the package's own errors and numerical
    failures exclude a model; any other exception propagates, and so does
    MissingInfo, since the sweep always supplies what a rule needs.
    """
    x = _series(x)
    if kind.custom_pen is not None:
        _check_custom_monotone(kind, [f.spec for f in fits])
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
                    # without its traceback: the frames' locals would live as
                    # long as the cache
                    info_cache[i] = exc.with_traceback(None)
            info = info_cache[i]
            if isinstance(info, Exception):
                rows.append(ModelRow(f, excluded=f"{type(info).__name__}: {info}"))
                continue
        mu4 = None
        # a family the closed form cannot score is excluded by criterion_value
        # below, so its residual pass would be wasted
        if kind.needs_mu4 and closed_form_trace(f.spec).complete:
            xi = residuals(f.spec, f.theta.values, x)
            try:
                mu4 = mu4_hat(xi)
            except ValueError as exc:  # all-zero residuals: the ratio is undefined
                rows.append(ModelRow(f, excluded=f"{type(exc).__name__}: {exc}"))
                continue
        try:
            rows.append(ModelRow(f, report=criterion_value(f, kind, info=info, mu4=mu4)))
        except UnsupportedFamily as exc:
            rows.append(ModelRow(f, excluded=f"{type(exc).__name__}: {exc}"))

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
    """
    fits = fit_family(family, x)
    return select_from_fits(fits, x, kind)
