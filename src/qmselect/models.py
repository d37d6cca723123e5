"""Model zoo: specifications, constraint sets, simulation, conditional moments.

The process classes handled here all have the causal form

    X_t = M(theta; X_{t-1}, X_{t-2}, ...) * xi_t + f(theta; X_{t-1}, ...)

with iid standard-normal innovations ``xi_t``, in four families:

* ``arma(p,q)``   -- linear conditional mean, constant scale sigma; white
  noise X_t = sigma * xi_t is ``arma(0,0)``, named ``wn``
* ``garch(p,q)``  -- zero mean, conditional variance recursion
* ``aparch(d;p,q)`` -- asymmetric power variant, power ``d`` fixed per spec
* ``ararch(p)``   -- AR(1) mean with ARCH(p) errors driven by the AR residual

The last three are the ARCH families.  They share one variance recursion,
s_t = omega + sum_i a_i g_i(e_{t-i}) + sum_j b_j s_{t-j}, with e the mean
residual and s the variance (aparch: the power sigma_t ** delta), and one
filter evaluates it (:func:`_arch_filter`).  Each family only chooses the
inputs g_i(e): x^2 for garch, (|x| - gamma_i x)^delta for aparch, and z^2
for ararch, with z its AR(1) residual and no b part.  Every index into a
parameter vector, here and in the other modules, reads :attr:`ModelSpec.layout`.

Conditional moments are always computed with the truncated convention: every
quantity indexed before the start of the sample is treated as zero.  All the
linear recursions are evaluated as :func:`scipy.signal.lfilter` evaluates them,
and its zero initial state is exactly that convention.  One helper runs them
(:func:`_lfilter`): where the denominator has more than one coefficient it
calls scipy's C filter ``scipy.signal._sigtools._linear_filter`` directly, as
``lfilter`` itself does, without ``lfilter``'s per-call wrapper.  That private
core is used only on the scipy versions in ``_CORE_PINNED_ON``, on which the
tests pin it bit-equal to ``lfilter``; on any other version, or when it does
not import, the helper calls ``lfilter``.  :func:`_pinned_core` loads each
private core the package calls, this one and the optimizer's of
:mod:`.fitting`, from its extension file without importing its public
package, so importing the package imports none of ``scipy.signal``,
``scipy.optimize`` and ``scipy.linalg``; those are imported only where a
fallback runs.  A
one-coefficient denominator is handled in the helper too, as one
``np.convolve``, which is what ``lfilter`` computes in that case (the
arma(p,0) residuals and the arma(0,q) paths).  Only the
all-pole filter with denominator 1 is skipped before the helper
(:func:`_ar_filter`): it is the identity.
Each family's recursion is one pass over the sample (:func:`_recursion`)
that returns the whole state of one point (:class:`_Recursion`); the
conditional moments and the mean gradient of :mod:`.likelihood` read that
record alone.  What a recursion reads of
the sample that does not depend on the parameters, x^2 (garch's input), |x|
and the mask x != 0 (aparch's) and x_{t-1} (ararch's), is one record per
sample (:class:`_Sample`) that builds each of these on first read and keeps
it, so a caller that builds recursions at many points of one sample, a fit
or the complex steps of :func:`.likelihood.derivatives`, builds each once.
arma reads only x itself.

Simulation starts from the same zero pre-sample and takes the causal form's
two steps for every family (:func:`_path_from_noise`): the scale path z = M xi
(arma: sigma xi; garch, aparch and ararch's ARCH residual: one loop per order,
generated once, with every lag a local float), then one mean filter read from
the layout.  One check refuses a path, for every family: :func:`simulate_from_noise`
raises ``NumericOverflow`` for a value beyond ``OVERFLOW_LIMIT`` or not finite.

A :class:`Trajectory` is its ``values``, and an array to numpy
(``np.asarray(traj)`` is ``values``), so every function that takes a series
takes one.  Every CSV the package writes, a trajectory, a selection or an
experiment table, goes through one writer (:func:`_write_csv`), next to the
trajectory reader.
"""

from __future__ import annotations

import csv
import functools
import importlib
import itertools
import math
import operator
import os
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import NamedTuple

import numpy as np
import scipy

from .errors import NonStationaryParams, NumericOverflow

#: stationarity margin: sums of dynamic coefficients stay below 1 - COEF_MARGIN
COEF_MARGIN = 0.02
SIGMA_MIN = 1e-3
SIGMA_MAX = 1e3
OMEGA_MIN = 1e-6
OMEGA_MAX = 1e6
#: hard lower clamp for conditional variances
H_FLOOR = 1e-8
#: slack of ConstraintSet.contains on every bound, for rounding at a face
FEASIBILITY_TOL = 1e-9
#: simulation overflow guard
OVERFLOW_LIMIT = 1e10
DEFAULT_BURN_IN = 1000


class Family(Enum):
    ARMA = "arma"
    GARCH = "garch"
    APARCH = "aparch"
    ARARCH = "ararch"


class _Layout(NamedTuple):
    """Where each block of a spec's parameters theta sits, as slices in this
    one order: the mean blocks (arma's AR and MA coefficients, ararch's phi),
    then the variance blocks; a block the family lacks is an empty slice."""

    ar: slice
    ma: slice
    phi: slice
    omega: slice
    a: slice
    gamma: slice
    b: slice
    sigma: slice


#: each family's block sizes from its orders (p, q); a block not named is empty
_BLOCK_SIZES = {
    Family.ARMA: lambda p, q: {"ar": p, "ma": q, "sigma": 1},
    Family.GARCH: lambda p, q: {"omega": 1, "a": p, "b": q},
    Family.APARCH: lambda p, q: {"omega": 1, "a": p, "gamma": p, "b": q},
    Family.ARARCH: lambda p, q: {"phi": 1, "omega": 1, "a": p},
}

#: each block's parameter names: entry i (from 1) is ``stem.format(i)``
_STEMS = {"ar": "a{}", "ma": "b{}", "phi": "phi", "omega": "omega", "a": "a{}",
          "gamma": "gamma{}", "b": "b{}", "sigma": "sigma"}


@dataclass(frozen=True)
class ModelSpec:
    """A model family with fixed orders (and fixed power for aparch).

    Degenerate orders are normalized on construction: ``garch(0,0)`` and
    ``aparch(d;0,0)`` collapse to white noise, ``arma(0,0)``, whose name is
    ``wn``; only aparch keeps a power other than 2.  ``ar(p)``, ``ma(q)`` and
    ``arch(p)`` are only aliases accepted by :func:`parse_spec` and
    :func:`expand_family`.

    Parameters are in :meth:`param_names` order, in the blocks of
    :attr:`layout`: arma's a_i, b_j and sigma; ararch's phi, then omega, the
    a_i, aparch's gamma_i and the b_j.  garch(p,q) is the power-2,
    leverage-free aparch(2;p,q), and ararch(p) garch(p,0) on an AR(1) residual.
    """

    family: Family
    p: int = 0
    q: int = 0
    delta: float = 2.0

    def __post_init__(self):
        for order in ("p", "q"):  # True is 1, an np.int64 an int, a float a TypeError
            object.__setattr__(self, order, operator.index(getattr(self, order)))
        if self.p < 0 or self.q < 0:
            raise ValueError("model orders must be non-negative")
        if self.family is Family.APARCH and not 0 < self.delta < math.inf:
            raise ValueError("aparch power must be positive and finite")
        if self.family is Family.ARARCH and self.q != 0:
            raise ValueError("ararch takes a single order p")
        if self.family in (Family.GARCH, Family.APARCH) and self.p == 0 and self.q == 0:
            object.__setattr__(self, "family", Family.ARMA)
        if self.family is not Family.APARCH:
            object.__setattr__(self, "delta", 2.0)

    @functools.cached_property
    def layout(self) -> _Layout:
        """The blocks of theta (see :class:`_Layout`), built once per spec."""
        sizes = _BLOCK_SIZES[self.family](self.p, self.q)
        bounds = [0, *itertools.accumulate(sizes.get(role, 0) for role in _Layout._fields)]
        return _Layout(*map(slice, bounds, bounds[1:]))

    @property
    def dim(self) -> int:
        """Number of free parameters: where the last block ends."""
        return self.layout.sigma.stop

    @property
    def name(self) -> str:
        """Canonical text form, parseable by :func:`parse_spec`."""
        if self == _WN:
            return "wn"
        if self.family is Family.APARCH:
            return f"aparch({_power_text(self.delta)};{self.p},{self.q})"
        if self.family is Family.ARARCH:
            return f"ararch({self.p})"
        return f"{self.family.value}({self.p},{self.q})"

    @functools.cached_property
    def _names(self) -> tuple[str, ...]:
        """The parameter names, built once per spec."""
        # ararch names its omega and a_i alpha0, alpha1, ...
        stems = {**_STEMS, "omega": "alpha0", "a": "alpha{}"} if self.family is Family.ARARCH else _STEMS
        return tuple(stems[role].format(i) for role, block in zip(_Layout._fields, self.layout)
                     for i in range(1, block.stop - block.start + 1))

    def param_names(self) -> list[str]:
        return list(self._names)

    def __str__(self) -> str:
        return self.name


def _power_text(delta: float) -> str:
    """Shortest plain decimal that parses back to ``delta`` exactly."""
    return np.format_float_positional(delta, trim="-")


_WN = ModelSpec(Family.ARMA)


def wn() -> ModelSpec:
    return _WN


def arma(p: int, q: int) -> ModelSpec:
    return ModelSpec(Family.ARMA, p, q)


def garch(p: int, q: int) -> ModelSpec:
    return ModelSpec(Family.GARCH, p, q)


def aparch(delta: float, p: int, q: int) -> ModelSpec:
    return ModelSpec(Family.APARCH, p, q, delta=float(delta))


def ararch(p: int) -> ModelSpec:
    return ModelSpec(Family.ARARCH, p)


#: text name -> (number of orders, constructor); aparch's constructor takes
#: the power first
_NAMES = {
    "wn": (0, wn),
    "ar": (1, lambda p: arma(p, 0)),
    "ma": (1, lambda q: arma(0, q)),
    "arch": (1, lambda p: garch(p, 0)),
    "ararch": (1, ararch),
    "arma": (2, arma),
    "garch": (2, garch),
    "aparch": (2, aparch),
}

_ORDER = r"\d+(?:\.\.\d+)?"
_TERM_RE = re.compile(
    rf"""\s*(?P<name>[a-z]+)\s*
        (?:\(\s*(?:(?P<power>\d+(?:\.\d*)?|\.\d+)\s*;)?\s*(?P<orders>{_ORDER}(?:\s*,\s*{_ORDER})*)\s*\))?\s*""",
    re.IGNORECASE | re.VERBOSE,
)


def _parse_term(term: str) -> list[ModelSpec]:
    """Every spec of one family term: a model name whose orders may be ranges
    ``lo..hi``, expanded in :func:`itertools.product` order."""
    m = _TERM_RE.fullmatch(term)
    if not m:
        raise ValueError(f"cannot parse model term {term!r}")
    name, power = m["name"].lower(), m["power"]
    if name not in _NAMES:
        raise ValueError(f"unknown model family in {term!r}")
    count, make = _NAMES[name]
    if power is not None and name != "aparch":
        raise ValueError(f"only aparch takes a power prefix: {term!r}")
    ranges = [_order_range(tok, term) for tok in m["orders"].split(",")] if m["orders"] else []
    if len(ranges) != count:
        raise ValueError(f"{name} takes {count} order(s): {term!r}")
    head = (float(power or 2.0),) if name == "aparch" else ()
    try:  # the constructor's rule, with the term it refuses
        return [make(*head, *orders) for orders in itertools.product(*ranges)]
    except ValueError as err:
        raise ValueError(f"cannot parse model term {term!r}: {err}") from None


def _order_range(tok: str, term: str) -> range:
    lo, _, hi = tok.partition("..")
    lo, hi = int(lo), int(hi or lo)  # int() skips the whitespace around a token
    if hi < lo:
        raise ValueError(f"empty order range {tok.strip()!r} in {term!r}")
    return range(lo, hi + 1)


def parse_spec(text: str) -> ModelSpec:
    """Parse one model name like ``arma(1,1)`` or ``aparch(1.5;1,0)``: a
    family term (see :func:`expand_family`) without order ranges.

    Accepted aliases: ``ar(p)`` for ``arma(p,0)``, ``ma(q)`` for
    ``arma(0,q)``, ``arch(p)`` for ``garch(p,0)``, and ``wn`` for
    ``arma(0,0)``.  Only aparch takes a power prefix; its default is 2.
    """
    if ".." in text:
        raise ValueError(f"a single model spec has no order ranges: {text!r}")
    return _parse_term(text)[0]


def expand_family(expr: str) -> list[ModelSpec]:
    """Expand a family expression like ``"arma(0..2,0..2)+garch(1,1)"``.

    Each ``+``-separated term is a model name, in the grammar of
    :func:`parse_spec`, whose integer orders may be ranges ``lo..hi``.
    Duplicates (e.g. the ``wn`` model reached both as ``arma(0,0)`` and
    ``garch(0,0)``) are removed, keeping first occurrence.
    """
    terms = [term.strip() for term in expr.split("+")]
    return list(dict.fromkeys(spec for term in terms for spec in _parse_term(term)))


# ---------------------------------------------------------------------------
# constraint sets


def _read_only(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values``."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ConstraintSet:
    """Box bounds plus coefficient budgets.

    ``lower`` and ``upper`` are read-only copies of the arrays given, so one
    set can serve every caller (:func:`constraint_set` builds one per spec).
    Each budget in ``groups`` is a triple ``(index, signed, bound)``: sum
    |theta_i| <= ``bound`` over ``theta[index]``, a slice where the
    coordinates run up in steps of one, else a read-only integer array,
    whose boxes reach below 0 when ``signed``.  An unpickled set is rebuilt
    read-only (pickle restores an array writable).
    """

    lower: np.ndarray
    upper: np.ndarray
    groups: tuple[tuple[slice | np.ndarray, bool, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "lower", _read_only(self.lower))
        object.__setattr__(self, "upper", _read_only(self.upper))
        object.__setattr__(self, "groups", tuple((i if isinstance(i, slice) else _read_only(i, int), s, b)
                                                 for i, s, b in self.groups))

    def __reduce__(self):
        return ConstraintSet, (self.lower, self.upper, self.groups)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, values) -> bool:
        """Whether ``values`` are finite and inside the box and every budget,
        each bound widened by ``FEASIBILITY_TOL``.  Both box faces are one
        boolean test, and each budget sums its entries of |v| by the ufunc
        reduction ``np.sum`` calls."""
        v = np.asarray(values, dtype=float)
        if v.shape != self.lower.shape or not np.isfinite(v).all():
            return False
        tol = FEASIBILITY_TOL
        if ((v < self.lower - tol) | (v > self.upper + tol)).any():
            return False
        a = np.abs(v)
        return all(np.add.reduce(a[idx]) <= bound + tol for idx, _, bound in self.groups)

    def project(self, values) -> np.ndarray:
        """The Euclidean projection onto the set, as a new array.

        Coordinates outside every budget are clipped to their box.  Inside a
        budget the box is implied, because ``constraint_set`` gives every
        budgeted coordinate a box at least as wide as the budget: a group is
        projected onto the l1-ball (signed) or the capped simplex
        (non-negative) by the sort-based rule of Duchi, Shalev-Shwartz,
        Singer & Chandra (2008), "Efficient projections onto the l1-ball for
        learning in high dimensions".

        A group inside its budget keeps its entries: ``copysign(|y|, y)`` is
        ``y`` to the bit, so a signed group's are copied.  The clip, the
        sort, the sums and the running sums call what ``np.clip``,
        ``np.sort``, ``ndarray.sum`` and ``np.cumsum`` call, without their
        Python wrappers.
        """
        y = np.asarray(values, dtype=float)
        v = y.clip(self.lower, self.upper)
        for idx, signed, bound in self.groups:
            yi = y[idx]
            a = np.abs(yi) if signed else np.maximum(yi, 0.0)
            if np.add.reduce(a) > bound:
                # shift by the threshold that leaves exactly the budget
                u = a.copy()
                u.sort()
                u = u[::-1]
                excess = np.add.accumulate(u) - bound
                rho = np.nonzero(u * np.arange(1, u.size + 1) > excess)[0][-1]
                a = np.maximum(a - excess[rho] / (rho + 1), 0.0)
                v[idx] = np.copysign(a, yi) if signed else a
            else:
                v[idx] = yi if signed else a
        return v


@functools.cache
def constraint_set(spec: ModelSpec) -> ConstraintSet:
    """Feasible parameter region for a model spec, one rule per block of its
    :attr:`ModelSpec.layout`: boxes [-c, c] (ar, ma, phi, gamma) or [0, c] (a,
    b) with the margin c = 1 - ``COEF_MARGIN``, fixed positive boxes for sigma
    and omega, and budgets sum |theta_i| <= c on ar, on ma and on a and b,
    each built once as its triple, its sign read from the box built here.

    Built once per spec: equal specs get the same set, whose arrays are
    read-only.
    """
    c = 1.0 - COEF_MARGIN
    lay = spec.layout
    boxes = {"omega": (OMEGA_MIN, OMEGA_MAX), "sigma": (SIGMA_MIN, SIGMA_MAX),
             "a": (0.0, c), "b": (0.0, c)}
    lower, upper = np.empty(spec.dim), np.empty(spec.dim)
    for role, block in zip(_Layout._fields, lay):
        lower[block], upper[block] = boxes.get(role, (-c, c))
    index = range(spec.dim)
    budgets = ([*index[lay.ar]], [*index[lay.ma]], [*index[lay.a], *index[lay.b]])
    run = lambda i: slice(i[0], i[-1] + 1) if i == [*range(i[0], i[-1] + 1)] else i
    return ConstraintSet(lower, upper, tuple((run(i), bool(lower[i[0]] < 0.0), c) for i in budgets if i))


@dataclass(frozen=True)
class ParamVector:
    """Parameter values bound to a model spec, in canonical order; read-only,
    and rebuilt read-only when unpickled (pickle restores an array writable)."""

    spec: ModelSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _read_only(_as_values(self.spec, self.values)))

    def __reduce__(self):
        return ParamVector, (self.spec, self.values)

    def named(self) -> dict[str, float]:
        return dict(zip(self.spec._names, map(float, self.values)))

    def validate(self) -> "ParamVector":
        if not constraint_set(self.spec).contains(self.values):
            raise NonStationaryParams(
                f"parameters {self.values.tolist()} outside the feasible set of {self.spec.name}"
            )
        return self


def _as_values(spec: ModelSpec, theta) -> np.ndarray:
    if isinstance(theta, ParamVector):
        if theta.spec != spec:
            raise ValueError("parameter vector bound to a different spec")
        return theta.values
    v = np.asarray(theta, dtype=float)
    if v.shape != (spec.dim,):
        got = v.size if v.ndim == 1 else f"shape {v.shape}"
        raise ValueError(f"{spec.name} takes {spec.dim} parameter{'s' * (spec.dim != 1)} "
                         f"({', '.join(spec.param_names())}), got {got}")
    return v


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """An observed or simulated series: its ``values``, and nothing else (the
    spec, parameters, seed and burn-in of a simulated one are the caller's)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    def __array__(self, dtype=None, copy=None):
        """``values`` to numpy: ``np.asarray(traj, dtype=float)`` is ``values``
        itself, with no copy."""
        return np.array(self.values, dtype=dtype, copy=copy)

    @property
    def n(self) -> int:
        return self.values.size

    def to_csv(self, path) -> None:
        _write_csv(path, ["x"], ([repr(float(v))] for v in self.values))

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
                rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not rows or rows[0] != ["x"]:
            raise ValueError(f"{path}: expected a single-column CSV with header 'x'")
        values = []
        for line, r in enumerate(rows[1:], start=2):  # the header is line 1
            if len(r) != 1:
                raise ValueError(f"{path}: line {line}: expected one field, got {len(r)}")
            try:
                values.append(float(r[0]))
            except ValueError:
                raise ValueError(f"{path}: line {line}: not a number: {r[0]!r}") from None
        x = np.array(values)
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise ValueError(f"{path}: line {bad[0] + 2}: non-finite value {float(x[bad[0]])}")
        return cls(x)


def _as_series(x) -> np.ndarray:
    """``x`` as a float array, refused with a ValueError unless it is a 1-D
    series of at least one value.  Only the shape is read, never a value, so
    the check costs the same on the 100,000-step oracle path as on a fit.
    It is not ``fitting._series``: a non-finite value gives an infinite
    contrast, and ``fit`` reports an empty series as ``TooShortSeries``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"the series must be 1-D, got an array of shape {x.shape}")
    if not x.size:
        raise ValueError("the series is empty")
    return x


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as CSV, lines ending in
    ``\\n``: the one CSV writer of the package."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _lag(arr: np.ndarray, k: int) -> np.ndarray:
    """Shift ``arr`` forward by k >= 1 steps, zero-padding the start."""
    out = np.zeros_like(arr)
    out[k:] = arr[:-k]
    return out


# ---------------------------------------------------------------------------
# simulation


def simulate(
    spec: ModelSpec,
    theta,
    n: int,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
) -> Trajectory:
    """Simulate ``n`` observations after a zero-initialized burn-in.

    The innovation stream is standard normal from numpy's PCG64 generator
    seeded with ``seed``, so trajectories are reproducible bit-for-bit.  The
    result is :func:`simulate_from_noise` on that stream: only the values of
    the last ``n`` steps.

    Raises
    ------
    NonStationaryParams
        if ``theta`` is outside :func:`constraint_set`.
    NumericOverflow
        if any |X_t|, burn-in included, exceeds 1e10 or is not finite.
    """
    values = ParamVector(spec, theta).validate().values
    if n <= 0:
        raise ValueError("n must be positive")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    rng = np.random.default_rng(seed)
    return simulate_from_noise(spec, values, rng.standard_normal(n + burn_in), burn_in=burn_in)


def simulate_from_noise(spec: ModelSpec, theta, noise, burn_in: int = 0) -> Trajectory:
    """Deterministic counterpart of :func:`simulate` with a caller-supplied
    innovation stream (used heavily by tests to pin exact paths): the path
    after its first ``burn_in`` steps."""
    values = _as_values(spec, theta)
    xi = np.asarray(noise, dtype=float)
    if not 0 <= burn_in < xi.size:
        raise ValueError(f"burn_in must be >= 0 and less than the {xi.size} steps of noise")
    x = _path_from_noise(spec, values, xi)
    if not np.all(np.isfinite(x)) or np.max(np.abs(x), initial=0.0) > OVERFLOW_LIMIT:
        raise NumericOverflow(f"simulated {spec.name} path exceeded |x| = {OVERFLOW_LIMIT:g} or is not finite")
    return Trajectory(x[burn_in:])


def _path_from_noise(spec: ModelSpec, v: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The causal form's two steps, the same for every family: the scale path
    z = M * xi (arma: sigma * xi; garch, aparch and ararch: the variance
    kernel's path, ararch's being its garch(p, 0) residual), then one mean
    filter, ``[1, b...]`` over ``[1, -a..., -phi]``, read from the layout."""
    lay = spec.layout
    if spec.family is Family.ARMA:
        z = v[lay.sigma.start] * xi
    else:
        # the kernel's arguments: the variance blocks omega, a, gamma and b, and aparch's power
        kind = Family.APARCH if spec.family is Family.APARCH else Family.GARCH
        args = v[lay.omega.start : lay.b.stop].tolist() + [spec.delta] * (kind is Family.APARCH)
        z = np.zeros(xi.size)
        try:
            _kernel(kind, spec.p, spec.q)(z, xi, *args)
        except (ValueError, OverflowError):
            z[:] = np.nan  # a math error (see _kernel) is a non-finite path
    ma = np.concatenate((_ONE, v[lay.ma]))
    ar = np.concatenate((_ONE, -v[lay.ar], -v[lay.phi]))
    return _ar_filter(ar, z) if ma.size == 1 else _lfilter(ma, ar, z)


@functools.cache
def _kernel(family: Family, p: int, q: int):
    # The simulation loop of one garch or aparch order, written out and
    # compiled once (the 101k-step oracle path of the efficiency experiment).
    # Each of the last p values (garch: squares x_{t-i} ** 2) and q variances
    # or powers s = sigma ** delta is a local of its own, CPython's fastest
    # variable, shifted by one tuple assignment, so a step runs no inner loop.
    # The lags start at 0.0, the truncated pre-sample: a pre-sample term adds
    # an exact 0.0, and ``omega + a1 * x1 + ... + b1 * s1`` evaluates left to
    # right, so every step does the same IEEE operations in the same order as
    # a loop over the min(p, t) and min(q, t) lags that exist, on numpy
    # scalars (the reference loops in tests/test_models.py); ``x ** 2``
    # rounds like numpy's scalar square, ``x * x`` does not.  Only names built
    # from range(p) and range(q) and fixed text enter the source:
    # coefficients, omega and delta are arguments, so no value reaches exec.
    # No bound is checked here: simulate_from_noise checks the whole path.  A
    # math error here (math.sqrt and math.pow raise where numpy returns nan or
    # inf) becomes a non-finite path in _path_from_noise, refused by that check.
    xs = [f"x{i}" for i in range(1, p + 1)]
    ss = [f"s{j}" for j in range(1, q + 1)]
    a = [f"a{i}" for i in range(1, p + 1)]
    b = [f"b{j}" for j in range(1, q + 1)]
    if family is Family.GARCH:
        args = [*a, *b]
        arch = [f"{ai} * {x}" for ai, x in zip(a, xs)]
        level, new_x, inverse = "sqrt(st)", "xt ** 2", ""
    else:
        g = [f"g{i}" for i in range(1, p + 1)]
        args = [*a, *g, *b, "delta"]
        arch = [f"{ai} * power(abs({x}) - {gi} * {x}, delta)" for ai, gi, x in zip(a, g, xs)]
        level, new_x, inverse = "power(st, pow_inv)", "xt", "pow_inv = 1.0 / delta"

    def assign(names, values):
        return f"{', '.join(names)} = {', '.join(values)}" if names else ""

    step = " + ".join(["omega", *arch, *(f"{bj} * {sj}" for bj, sj in zip(b, ss))])
    source = f"""
def kernel({", ".join(["out", "xi", "omega", *args])}):
    path, sqrt, power = memoryview(out), math.sqrt, math.pow
    {inverse}
    {assign(xs + ss, ["0.0"] * (p + q))}
    for t, e in enumerate(memoryview(xi)):
        st = {step}
        path[t] = xt = {level} * e
        {assign(ss, ["st", *ss[:-1]])}
        {assign(xs, [new_x, *xs[:-1]])}
"""
    namespace = {"math": math}
    exec(source, namespace)
    return namespace["kernel"]


# ---------------------------------------------------------------------------
# conditional moments (truncated recursions)


@dataclass(frozen=True)
class CondMoments:
    """Fitted conditional mean and variance series, truncated convention.

    :func:`cond_moments` returns arrays; inside the package a constant moment
    may be held as a scalar (see :class:`_Recursion`)."""

    f_hat: np.ndarray
    h_hat: np.ndarray


#: the scipy versions on which the tests pin the two private cores the
#: package calls directly: the C filter ``_sigtools._linear_filter`` bit-equal
#: to ``lfilter`` (tests/test_models.py), and SLSQP's C core
#: ``_slsqplib.slsqp``, driven by ``fitting.minimize``, to the same iterates
#: and counts as ``scipy.optimize.minimize`` (tests/test_fitting.py)
_CORE_PINNED_ON = frozenset({"1.17.1"})


def _pinned_core(version: str, module: str = "scipy.signal._sigtools", name: str = "_linear_filter"):
    """scipy's private core ``module.name`` if ``version`` is in
    ``_CORE_PINNED_ON`` and the core imports; None otherwise.  The default is
    the C filter, what ``lfilter`` calls for a denominator of more than one
    coefficient.

    A module not yet imported is loaded from its extension file, found under
    ``scipy.__path__``, without running its package's ``__init__``, and is
    registered in ``sys.modules`` under its own name, so a later import of
    the package reuses it (without binding it as the package's attribute).
    A module already in ``sys.modules`` is used as it is; a None entry there
    means it does not import."""
    if version not in _CORE_PINNED_ON:
        return None
    try:
        if module not in sys.modules:
            path = [os.path.join(root, *module.split(".")[1:-1]) for root in scipy.__path__]
            spec = PathFinder.find_spec(module, path)
            if spec is not None:
                loaded = module_from_spec(spec)
                spec.loader.exec_module(loaded)
                sys.modules[module] = loaded
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


_LINEAR_FILTER = _pinned_core(scipy.__version__)
#: the numerator of an all-pole filter, as ``lfilter`` converts ``[1.0]``,
#: and the leading coefficient of every filter polynomial
_ONE = _read_only([1.0])


def _lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``lfilter(b, a, x)`` along the last axis, the package's one filter call.

    Where ``lfilter`` would call its C core, a denominator of more than one
    coefficient, the core is called directly with the arguments ``lfilter``
    would pass it (``b`` and ``a`` are arrays already); ``lfilter``'s
    per-call wrapper costs more than the filter on short samples.  Without a
    pinned core (see :func:`_pinned_core`), ``lfilter`` itself runs,
    imported here so that ``scipy.signal`` is imported only then.  A
    one-coefficient denominator, always ``[1.0]`` here, on a 1-D ``x`` is
    ``np.convolve(b, x)`` cut to the sample, which is what ``lfilter``
    computes in that case, one row at a time."""
    if a.size == 1:
        return np.convolve(b, x)[: x.size]
    if _LINEAR_FILTER is None:
        from scipy.signal import lfilter

        return lfilter(b, a, x, axis=-1)
    return _LINEAR_FILTER(b, a, x, -1)


def _ar_filter(poly: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``lfilter([1.0], poly, u)`` along the last axis.  A polynomial of size 1
    is the identity filter, so ``u`` itself is returned: scipy would compute
    the same values with one ``np.convolve`` per row."""
    return u if poly.size == 1 else _lfilter(_ONE, poly, u)


@dataclass(slots=True)
class _Recursion:
    """A family's truncated recursion at one point, the whole state of that
    point: its ``spec``, its parameters ``v``, its ``sample`` (:class:`_Sample`;
    x is ``sample.x``) and the one pass over it that the conditional moments
    and the mean gradient are read from.

    ``level`` is the output of the family's filter and ``poly`` that filter's
    AR polynomial: the arma residuals and the MA polynomial, or an ARCH
    family's unclamped variance (aparch: power sigma ** delta) and
    ``[1, -b]``.  ``inputs`` holds the unlagged input of each a-block
    coefficient (x for arma's AR), ``resid`` the mean residual x - f (x itself
    for garch and aparch).  ``f`` and ``h`` are the conditional mean and the
    variance before its floor, ``h_hat`` the variance clamped at ``H_FLOOR``,
    built with the record.  A constant moment is a scalar, arma's variance
    and garch's and aparch's mean 0.0: the contrast broadcasts it, so nothing
    fills n copies; :func:`cond_moments` returns full arrays."""

    spec: ModelSpec
    v: np.ndarray
    sample: _Sample
    f: np.ndarray | float
    h: np.ndarray | float
    resid: np.ndarray
    poly: np.ndarray
    level: np.ndarray
    inputs: list[np.ndarray]
    h_hat: np.ndarray | float = field(init=False)

    def __post_init__(self):
        self.h_hat = np.maximum(self.h, H_FLOOR)


#: the parameter-free transforms of a sample that the recursions and the
#: mean gradient read, by the name :class:`_Sample` keeps each under
_TRANSFORMS = {
    "x2": lambda x: x**2,
    "absx": np.abs,
    "nonzero": lambda x: x != 0.0,
    "lag1": lambda x: _lag(x, 1),
}


class _Sample:
    """A sample ``x`` and its parameter-free transforms, each built from
    ``_TRANSFORMS`` on its first read and kept, read-only: ``x2`` is x^2,
    ``absx`` |x|, ``nonzero`` the mask x != 0 and ``lag1`` x_{t-1} (the
    truncated pre-sample is 0).  One serves every point of a fit
    (``likelihood._Objective``) and every complex step of one
    ``likelihood.derivatives`` call; a transform no recursion reads, as all
    of them for arma, is never built."""

    def __init__(self, x: np.ndarray):
        self.x = x

    def __getattr__(self, name: str):
        # called only for a name not yet set: build the transform, keep it
        try:
            build = _TRANSFORMS[name]
        except KeyError:
            raise AttributeError(name) from None
        value = self.__dict__[name] = build(self.x)
        value.flags.writeable = False
        return value


def _arma_residuals(spec: ModelSpec, v: np.ndarray, sample: _Sample) -> _Recursion:
    """Truncated ARMA residuals eps, filtered by the MA polynomial."""
    lay, x = spec.layout, sample.x
    # both polynomials in one array, [1, -a..., 1, b...]
    polys = np.concatenate((_ONE, -v[lay.ar], _ONE, v[lay.ma]))
    ar, ma = polys[: spec.p + 1], polys[spec.p + 1 :]
    eps = _lfilter(ar, ma, x)
    return _Recursion(spec, v, sample, x - eps, v[lay.sigma.start] ** 2, eps, ma, eps, [x] * spec.p)


def _arch_filter(v: np.ndarray, layout: _Layout, inputs, n: int):
    """The one ARCH variance filter of garch, aparch and ararch: the unclamped
    truncated level s_t = omega + sum_i a_i input_i[t - i] + sum_j b_j s_{t-j}
    and the polynomial ``[1, -b]`` that filters it, with omega, the a_i and
    the b_j read from ``v`` at their ``layout`` blocks; ``inputs`` holds one
    unlagged series per a_i.  Each lagged input is added into its slice: the
    truncated pre-sample would only add exact zeros."""
    u = np.full(n, v[layout.omega.start])
    a = v[layout.a]
    for i, w in enumerate(inputs):
        u[i + 1 :] += a[i] * w[: max(n - i - 1, 0)]
    poly = np.concatenate((_ONE, -v[layout.b]))
    return _ar_filter(poly, u), poly


def _power(base: np.ndarray, d: float, where=True) -> np.ndarray:
    """``base ** d`` for aparch's fractional powers, 0 where ``where`` is False.

    A real ``base`` gets exactly numpy's ``base ** d``.  A complex-step
    ``base = re + i im`` (``im`` of order ``likelihood.CS_STEP``) gets
    ``re ** d + i d re ** (d - 1) im`` in real arithmetic: the Taylor
    expansion of the power in ``im`` drops terms of relative size
    (im / re) ** 2, about 1e-40, so this is the step's exact value to
    working precision.  It lands within 1.2 eps of a 200-bit mpmath power,
    where numpy's complex power lands up to 4.5 eps away and costs about 15
    times a real one.  At d = 1, and at d = 2 wherever im ** 2 is below half
    an ulp of re ** 2, the bits are numpy's complex power's.  The imaginary
    part is exactly 0 wherever ``im`` is, so a zero base at d < 1 gives no
    0 * inf; the complex-step Hessian is still the step of the one analytic
    gradient."""
    if base.dtype.kind != "c":
        if where is True:
            return base ** d
        return np.power(base, d, out=np.zeros(base.shape), where=where)
    re, im = np.ascontiguousarray(base.real), np.ascontiguousarray(base.imag)
    stepped = im != 0.0
    if where is not True:
        stepped &= where
    power = np.empty(base.shape, dtype=complex)
    power.real = _power(re, d, where)
    slope = np.power(re, d - 1.0, out=np.zeros(base.shape), where=stepped)
    slope *= d
    slope *= im
    power.imag = slope
    return power


def _recursion(spec: ModelSpec, v: np.ndarray, sample: _Sample,
               real_inputs: list[np.ndarray] | None = None) -> _Recursion:
    """The family's truncated recursion at ``v`` on ``sample.x``.

    An ARCH family feeds :func:`_arch_filter`: garch the square x_t^2, shared
    by every lag; ararch the square of its AR(1) residual
    z_t = x_t - phi x_{t-1}; aparch one power (|x_t| - gamma_i x_t) ** delta
    per lag, and its variance is h = max(s, H_FLOOR) ** (2 / delta), each
    fractional power taken once per point by :func:`_power`.  Under the
    complex-step Hessian ``v`` is complex; NumPy orders complex numbers by
    real part first, so ``np.maximum`` clamps on the real part and a clamped
    entry's imaginary part is 0.

    x^2, |x| and x_{t-1} are read from ``sample``, the record of x's
    parameter-free transforms (:class:`_Sample`).
    ``real_inputs`` are the inputs of the recursion at the real part of a
    complex-step ``v``: an aparch input whose gamma_i is not stepped has no
    imaginary part, and its real part is the bits of the input there, so it
    is taken from ``real_inputs``."""
    fam, lay, x = spec.family, spec.layout, sample.x
    if fam is Family.ARMA:
        return _arma_residuals(spec, v, sample)
    if fam is Family.APARCH:
        gamma = v[lay.gamma]
        inputs = [real_inputs[i] if real_inputs is not None and gamma[i].imag == 0.0
                  else _power(sample.absx - gamma[i] * x, spec.delta) for i in range(spec.p)]
        s, poly = _arch_filter(v, lay, inputs, x.size)
        h = _power(np.maximum(s, H_FLOOR), 2.0 / spec.delta)  # the floor guards the fractional power
        return _Recursion(spec, v, sample, 0.0, h, x, poly, s, inputs)
    f, resid = 0.0, x
    if fam is Family.ARARCH:
        f = v[lay.phi.start] * sample.lag1
        resid = x - f
    # every lag shares the one square, garch's the sample's own x^2
    inputs = [sample.x2 if resid is x else resid**2] * spec.p if spec.p else []
    h, poly = _arch_filter(v, lay, inputs, x.size)
    return _Recursion(spec, v, sample, f, h, resid, poly, h, inputs)


def _moments(spec: ModelSpec, v: np.ndarray, x: np.ndarray) -> CondMoments:
    """The conditional moments at ``v``, a constant one a scalar
    (:class:`_Recursion`).  The recursion and its sample are dropped on
    return, so their arrays (garch's x^2, the unclamped level) are freed
    before a caller allocates its own: on the 100,000-step oracle
    ``likelihood.gamma_bar`` holds at most three arrays of n floats at once
    for garch(1,1) (tests/test_likelihood.py pins each family's count)."""
    rec = _recursion(spec, v, _Sample(x))
    return CondMoments(rec.f, rec.h_hat)


def cond_moments(spec: ModelSpec, theta, x) -> CondMoments:
    """Conditional mean ``f_hat`` and variance ``h_hat`` given the sample,
    each a float64 array of the sample's length.

    Pre-sample values of every series are taken as zero.  ``h_hat`` is clamped
    below at ``H_FLOOR``; inside the feasible region the clamp is inert for
    the arma/garch families (their scale floors exceed it), it only guards
    evaluations near or outside the boundary.  A series that is not 1-D, or
    is empty, is refused (:func:`_as_series`).
    """
    v = _as_values(spec, theta)
    x = _as_series(x)
    cm = _moments(spec, v, x)
    # the only constant mean is 0: np.zeros leaves its pages unwritten
    f_hat = cm.f_hat if np.ndim(cm.f_hat) else np.zeros(x.size)
    h_hat = cm.h_hat if np.ndim(cm.h_hat) else np.full(x.size, cm.h_hat)
    return CondMoments(f_hat, h_hat)


# ---------------------------------------------------------------------------
# nesting


def is_nested(inner: ModelSpec, outer: ModelSpec) -> bool:
    """True when every process of ``inner`` is realizable inside ``outer``.

    Within a family this is componentwise order dominance; across families
    only genuine parameter-space embeddings are recognized (wn inside
    everything, garch inside the power-2 aparch, arch inside ararch, ar(1)
    inside ararch).  Reflexive and transitive on the families shipped here.
    """
    fi, fo = inner.family, outer.family
    if fi is fo:
        if fi is Family.APARCH and inner.delta != outer.delta:
            return False
        return inner.p <= outer.p and inner.q <= outer.q
    if inner == _WN:
        return True
    if fi is Family.GARCH and fo is Family.APARCH:
        return outer.delta == 2.0 and inner.p <= outer.p and inner.q <= outer.q
    if fi is Family.GARCH and fo is Family.ARARCH:
        return inner.q == 0 and inner.p <= outer.p
    if fi is Family.ARMA and fo is Family.ARARCH:
        return inner.q == 0 and inner.p <= 1
    return False
