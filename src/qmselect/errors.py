"""Exception hierarchy used across the package.

Everything derives from :class:`QmselectError` so callers can catch the
package's failures with a single except clause while letting programming
errors (TypeError, ValueError from misuse) propagate normally.
"""


class QmselectError(Exception):
    """Base class for all package-specific errors."""


class NonStationaryParams(QmselectError):
    """Parameter vector violates the stationarity/feasibility region."""


class NumericOverflow(QmselectError):
    """A simulated trajectory exceeded the overflow guard (|X_t| > 1e10)."""


class TooShortSeries(QmselectError):
    """Series too short to fit the requested model (n < 10 * dim)."""


class OptimizerDiverged(QmselectError):
    """Every optimizer start failed to produce a finite result."""


class SingularF(QmselectError):
    """Estimated curvature matrix is numerically singular."""


class MissingInfo(QmselectError):
    """Criterion requires information matrices that were not supplied."""


class UnsupportedFamily(QmselectError):
    """Operation is not defined for the requested model family."""


class ConfigError(QmselectError):
    """Experiment configuration file is invalid."""
