"""Penalized selection criteria on the canonical n-scale.

Every criterion value has the shape

    value = n * gamma_bar(theta_hat) + penalty [+ logdet_term]

summed in exactly that order, so values are bit-reproducible and two
criteria sharing a fit differ only through their penalty/logdet parts.
Available kinds:

* ``aic``         penalty 2|m|
* ``bic``         penalty |m| log n
* ``hq``          penalty |m| log log n
* ``tracepen``    penalty n * trace_pen from the estimated info matrices
* ``tracepen_cf`` penalty from the closed-form trace with a plug-in mu4
* ``kc``          penalty |m| log n, plus log det(-F) correction term
* ``kcprime``     penalty |m| log n - |m| log 2pi + 2 log|m|, plus log det(-F)
* custom          penalty n * pen(spec) for a user callable, checked to be
                  monotone along the nesting partial order of the family
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AllModelsFailed, MissingInfo, QmselectError, UnsupportedFamily
from .fitting import FitResult, fit_family
from .information import InfoMatrices, closed_form_trace, info_matrices
from .likelihood import mu4_hat, residuals
from .models import ModelSpec, Trajectory, is_nested

_KNOWN = ("aic", "bic", "hq", "tracepen", "tracepen_cf", "kc", "kcprime")


@dataclass(frozen=True)
class CriterionKind:
    """A selection criterion; use the module-level singletons or
    :func:`CriterionKind.custom` for a user-supplied penalty rate."""

    name: str
    custom_pen: Callable[[ModelSpec], float] | None = None

    @classmethod
    def named(cls, name: str) -> "CriterionKind":
        name = name.strip().lower()
        if name not in _KNOWN:
            raise ValueError(f"unknown criterion {name!r}; expected one of {_KNOWN}")
        return cls(name)

    @classmethod
    def custom(cls, pen: Callable[[ModelSpec], float], name: str = "custom") -> "CriterionKind":
        return cls(name, custom_pen=pen)

    @property
    def needs_info(self) -> bool:
        return self.name in ("tracepen", "kc", "kcprime")

    @property
    def needs_mu4(self) -> bool:
        return self.name == "tracepen_cf"


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
    """Canonical criterion value for one fitted model.

    ``info`` is required for tracepen/kc/kcprime (MissingInfo otherwise);
    ``mu4`` is required for the closed-form trace variant.
    """
    n = fit.n_used
    m = fit.spec.dim
    n_gamma_bar = n * fit.gamma_bar_min
    logdet_term = None
    mu4_used = None
    name = kind.name
    if kind.custom_pen is not None:
        penalty = n * float(kind.custom_pen(fit.spec))
    elif name == "aic":
        penalty = 2.0 * m
    elif name == "bic":
        penalty = m * math.log(n)
    elif name == "hq":
        penalty = m * math.log(math.log(n))
    elif name == "tracepen":
        if info is None:
            raise MissingInfo("tracepen needs estimated info matrices")
        penalty = n * info.trace_pen
    elif name == "tracepen_cf":
        if mu4 is None:
            raise MissingInfo("closed-form tracepen needs a mu4 estimate")
        cft = closed_form_trace(fit.spec, mu4=mu4)
        if not cft.complete:
            raise UnsupportedFamily(
                f"{fit.spec.name}: closed-form trace is incomplete for this family"
            )
        penalty = cft.value
        mu4_used = mu4
    elif name == "kc":
        if info is None:
            raise MissingInfo("kc needs estimated info matrices")
        penalty = m * math.log(n)
        logdet_term = info.logdet_negF
    elif name == "kcprime":
        if info is None:
            raise MissingInfo("kcprime needs estimated info matrices")
        penalty = m * math.log(n) - m * math.log(2.0 * math.pi) + 2.0 * math.log(m)
        logdet_term = info.logdet_negF
    else:
        raise ValueError(f"unknown criterion kind {name!r}")

    value = n_gamma_bar + penalty
    if logdet_term is not None:
        value = value + logdet_term
    return CriterionReport(
        spec=fit.spec,
        kind=name,
        value=value,
        components=CriterionComponents(n_gamma_bar, penalty, logdet_term, mu4_used),
    )


@dataclass
class ModelRow:
    """Per-model outcome inside a selection sweep."""

    spec: ModelSpec
    converged: bool
    report: CriterionReport | None = None
    excluded: str | None = None
    chosen: bool = False


@dataclass
class SelectionResult:
    kind: str
    chosen: ModelSpec
    rows: list[ModelRow]

    @property
    def chosen_row(self) -> ModelRow:
        return next(r for r in self.rows if r.chosen)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(
                ["model", "converged", "n_gamma_bar", "penalty", "logdet_term", "value", "chosen"]
            )
            for r in self.rows:
                comp = r.report.components if r.report else None
                w.writerow(
                    [
                        r.spec.name,
                        str(r.converged).lower(),
                        repr(comp.n_gamma_bar) if comp else "",
                        repr(comp.penalty) if comp else "",
                        repr(comp.logdet_term) if comp and comp.logdet_term is not None else "",
                        repr(r.report.value) if r.report else "",
                        str(r.chosen).lower(),
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
    """Selection over already-fitted models (shared across criteria).

    ``info_cache`` maps fit index -> InfoMatrices or Exception; it is filled
    lazily so several criteria evaluated on the same fits estimate the info
    matrices only once per model.  Only the package's own errors and numerical
    failures exclude a model; any other exception propagates.
    """
    x = x.values if isinstance(x, Trajectory) else np.asarray(x, dtype=float)
    if kind.custom_pen is not None:
        _check_custom_monotone(kind, [f.spec for f in fits])
    if info_cache is None:
        info_cache = {}
    rows: list[ModelRow] = []
    for i, f in enumerate(fits):
        if not f.converged:
            rows.append(ModelRow(f.spec, False, excluded=f.error or "not converged"))
            continue
        info = None
        if kind.needs_info:
            if i not in info_cache:
                try:
                    info_cache[i] = info_matrices(f, x)
                except (QmselectError, np.linalg.LinAlgError, FloatingPointError) as exc:
                    # without its traceback: the frames' locals would live as
                    # long as the cache
                    info_cache[i] = exc.with_traceback(None)
            info = info_cache[i]
            if isinstance(info, Exception):
                rows.append(
                    ModelRow(f.spec, True, excluded=f"{type(info).__name__}: {info}")
                )
                continue
        try:
            mu4 = mu4_hat(residuals(f.spec, f.theta.values, x)) if kind.needs_mu4 else None
            report = criterion_value(f, kind, info=info, mu4=mu4)
        except (UnsupportedFamily, MissingInfo) as exc:
            rows.append(ModelRow(f.spec, True, excluded=f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(ModelRow(f.spec, True, report=report))

    scored = [r for r in rows if r.report is not None and np.isfinite(r.report.value)]
    if not scored:
        raise AllModelsFailed(f"{kind.name}: no candidate produced a criterion value")
    best = min(scored, key=lambda r: (r.report.value, r.spec.dim, r.spec.name))
    best.chosen = True
    return SelectionResult(kind.name, best.spec, rows)


def select(family: list[ModelSpec], x, kind: CriterionKind) -> SelectionResult:
    """Fit every model in ``family`` on ``x`` and pick the criterion minimizer.

    Ties (exactly equal values) break toward fewer parameters, then canonical
    name order.  Models whose info matrices cannot be estimated are recorded
    as excluded rather than failing the sweep.
    """
    fits = fit_family(family, x)
    return select_from_fits(fits, x, kind)
