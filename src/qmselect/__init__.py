"""Quasi-likelihood fitting and penalized model selection for time series.

The public surface mirrors the pipeline: specify models (:mod:`.models`),
evaluate the Gaussian quasi-likelihood contrast (:mod:`.likelihood`), fit by
constrained minimization (:mod:`.fitting`), estimate curvature/score matrices
(:mod:`.information`), rank models by penalized criteria (:mod:`.criteria`),
and replicate the whole loop (:mod:`.montecarlo`).
"""

from .criteria import (
    AIC,
    BIC,
    HQ,
    KC,
    KC_PRIME,
    TRACE_PEN,
    TRACE_PEN_CF,
    CriterionKind,
    CriterionReport,
    SelectionResult,
    classify,
    criterion_value,
    select,
    select_from_fits,
)
from .errors import (
    ConfigError,
    MissingInfo,
    NonStationaryParams,
    NumericOverflow,
    OptimizerDiverged,
    QmselectError,
    SingularF,
    TooShortSeries,
    UnsupportedFamily,
)
from .fitting import FitResult, fit, fit_family
from .information import ClosedFormTrace, InfoMatrices, closed_form_trace, info_matrices
from .likelihood import (
    ContrastEval,
    DerivEval,
    contrast,
    derivatives,
    gamma_bar,
    grad_per_t,
    gradient,
    mu4_hat,
    residuals,
)
from .models import (
    CondMoments,
    ConstraintSet,
    Family,
    ModelSpec,
    ParamVector,
    Trajectory,
    aparch,
    ararch,
    arma,
    cond_moments,
    constraint_set,
    expand_family,
    garch,
    is_nested,
    parse_spec,
    simulate,
    simulate_from_noise,
    wn,
)
from .montecarlo import (
    ConsistencyTable,
    EfficiencyTable,
    ExperimentConfig,
    derive_seed,
    oracle_risk,
    run_consistency,
    run_efficiency,
    write_metadata,
)
from .version import __version__

__all__ = [
    "__version__",
    # models
    "Family", "ModelSpec", "ParamVector", "Trajectory", "CondMoments", "ConstraintSet",
    "wn", "arma", "garch", "aparch", "ararch", "parse_spec", "expand_family",
    "constraint_set", "simulate", "simulate_from_noise", "cond_moments", "is_nested",
    # likelihood
    "ContrastEval", "DerivEval", "contrast", "gamma_bar", "gradient", "grad_per_t",
    "derivatives", "residuals", "mu4_hat",
    # fitting
    "FitResult", "fit", "fit_family",
    # information
    "InfoMatrices", "ClosedFormTrace", "info_matrices", "closed_form_trace",
    # criteria
    "CriterionKind", "CriterionReport", "SelectionResult", "criterion_value",
    "select", "select_from_fits", "classify",
    "AIC", "BIC", "HQ", "TRACE_PEN", "TRACE_PEN_CF", "KC", "KC_PRIME",
    # montecarlo
    "ExperimentConfig", "ConsistencyTable", "EfficiencyTable",
    "run_consistency", "run_efficiency", "oracle_risk", "derive_seed", "write_metadata",
    # errors
    "QmselectError", "NonStationaryParams", "NumericOverflow", "TooShortSeries",
    "OptimizerDiverged", "SingularF", "MissingInfo",
    "UnsupportedFamily", "ConfigError",
]
