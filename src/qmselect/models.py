"""Model zoo: specifications, constraint sets, simulation, conditional moments.

The process classes handled here all have the causal form

    X_t = M(theta; X_{t-1}, X_{t-2}, ...) * xi_t + f(theta; X_{t-1}, ...)

with iid standard-normal innovations ``xi_t``, in four families:

* ``arma(p,q)``   -- linear conditional mean, constant scale sigma; white
  noise X_t = sigma * xi_t is ``arma(0,0)``, named ``wn``
* ``garch(p,q)``  -- zero mean, conditional variance recursion
* ``aparch(d;p,q)`` -- asymmetric power variant, power ``d`` fixed per spec
* ``ararch(p)``   -- AR(1) mean with ARCH(p) errors driven by the AR residual

Conditional moments are always computed with the truncated convention: every
quantity indexed before the start of the sample is treated as zero.  All the
linear recursions are evaluated with :func:`scipy.signal.lfilter`, whose zero
initial state is exactly that convention.  A filter whose denominator is 1 is
skipped: it is the identity, or a plain ``np.convolve`` for the arma(p,0)
residuals, which is what ``lfilter`` would compute there one row at a time.

Simulation starts from the same zero pre-sample.  arma paths go through
``lfilter``; each variance-driven path (garch, aparch and the ARCH residual of
ararch) is one loop per order, generated once, with every lag a local float.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.signal import lfilter

from .errors import NonStationaryParams, NumericOverflow, UnsupportedFamily

#: stationarity margin: sums of dynamic coefficients stay below 1 - COEF_MARGIN
COEF_MARGIN = 0.02
SIGMA_MIN = 1e-3
SIGMA_MAX = 1e3
OMEGA_MIN = 1e-6
OMEGA_MAX = 1e6
#: hard lower clamp for conditional variances
H_FLOOR = 1e-8
#: simulation overflow guard
OVERFLOW_LIMIT = 1e10
DEFAULT_BURN_IN = 1000


class Family(Enum):
    ARMA = "arma"
    GARCH = "garch"
    APARCH = "aparch"
    ARARCH = "ararch"


@dataclass(frozen=True)
class ModelSpec:
    """A model family with fixed orders (and fixed power for aparch).

    Degenerate orders are normalized on construction: ``garch(0,0)`` and
    ``aparch(d;0,0)`` collapse to white noise, ``arma(0,0)``, whose name is
    ``wn``; only aparch keeps a power other than 2.  ``ar(p)`` / ``arch(p)``
    are only aliases accepted by :func:`parse_spec`.
    """

    family: Family
    p: int = 0
    q: int = 0
    delta: float = 2.0

    def __post_init__(self):
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

    @property
    def dim(self) -> int:
        """Number of free parameters."""
        if self.family in (Family.ARMA, Family.GARCH):
            return self.p + self.q + 1
        if self.family is Family.APARCH:
            return 2 * self.p + self.q + 1
        return self.p + 2  # ararch

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

    def param_names(self) -> list[str]:
        if self.family is Family.ARMA:
            return [f"a{i}" for i in range(1, self.p + 1)] + [
                f"b{j}" for j in range(1, self.q + 1)
            ] + ["sigma"]
        if self.family is Family.GARCH:
            return ["omega"] + [f"a{i}" for i in range(1, self.p + 1)] + [
                f"b{j}" for j in range(1, self.q + 1)
            ]
        if self.family is Family.APARCH:
            return (
                ["omega"]
                + [f"a{i}" for i in range(1, self.p + 1)]
                + [f"gamma{i}" for i in range(1, self.p + 1)]
                + [f"b{j}" for j in range(1, self.q + 1)]
            )
        return ["phi"] + [f"alpha{i}" for i in range(0, self.p + 1)]

    def __str__(self) -> str:
        return self.name


def _power_text(delta: float) -> str:
    """Shortest plain decimal that parses back to ``delta`` exactly; the short
    ``:g`` form whenever that form already does."""
    text = f"{delta:g}"
    if "e" in text or float(text) != delta:
        text = np.format_float_positional(delta, trim="-")
    return text


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


_SPEC_RE = re.compile(
    r"""^\s*(?P<name>[a-z]+)\s*
        (?:\(\s*(?:(?P<delta>[0-9.]+)\s*;)?\s*(?P<p>\d+)\s*(?:,\s*(?P<q>\d+))?\s*\))?\s*$""",
    re.IGNORECASE | re.VERBOSE,
)


def parse_spec(text: str) -> ModelSpec:
    """Parse a canonical model name like ``arma(1,1)`` or ``aparch(1.5;1,0)``.

    Accepted aliases: ``ar(p)`` for ``arma(p,0)`` and ``arch(p)`` for
    ``garch(p,0)``.
    """
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse model spec {text!r}")
    name = m.group("name").lower()
    delta = m.group("delta")
    p = int(m.group("p")) if m.group("p") is not None else None
    q = int(m.group("q")) if m.group("q") is not None else None
    if name == "wn":
        if p is not None or delta is not None:
            raise ValueError(f"wn takes no orders: {text!r}")
        return wn()
    if delta is not None and name != "aparch":
        raise ValueError(f"only aparch takes a power prefix: {text!r}")
    if p is None:
        raise ValueError(f"missing orders in model spec {text!r}")
    if name == "ar":
        _expect_single_order(q, text)
        return arma(p, 0)
    if name == "ma":
        _expect_single_order(q, text)
        return arma(0, p)
    if name == "arch":
        _expect_single_order(q, text)
        return garch(p, 0)
    if name == "ararch":
        _expect_single_order(q, text)
        return ararch(p)
    if name == "arma":
        return arma(p, _require_q(q, text))
    if name == "garch":
        return garch(p, _require_q(q, text))
    if name == "aparch":
        return aparch(float(delta) if delta is not None else 2.0, p, _require_q(q, text))
    raise ValueError(f"unknown model family in {text!r}")


def _expect_single_order(q, text):
    if q is not None:
        raise ValueError(f"family takes a single order: {text!r}")


def _require_q(q, text):
    if q is None:
        raise ValueError(f"missing second order in {text!r}")
    return q


def expand_family(expr: str) -> list[ModelSpec]:
    """Expand a family expression like ``"arma(0..2,0..2)+garch(1,1)"``.

    Each ``+``-separated term is a model name whose integer orders may be
    ranges ``lo..hi``.  Duplicates (e.g. the ``wn`` model reached both as
    ``arma(0,0)`` and ``garch(0,0)``) are removed, keeping first occurrence.
    """
    out: list[ModelSpec] = []
    seen = set()
    for term in expr.split("+"):
        term = term.strip()
        if not term:
            raise ValueError("empty term in family expression")
        for spec in _expand_term(term):
            if spec not in seen:
                seen.add(spec)
                out.append(spec)
    return out


_RANGE_RE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")


def _expand_range(tok: str, term: str) -> range:
    m = _RANGE_RE.match(tok.strip())
    if not m:
        raise ValueError(f"bad order range {tok!r} in {term!r}")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) is not None else lo
    if hi < lo:
        raise ValueError(f"empty order range {tok!r} in {term!r}")
    return range(lo, hi + 1)


def _expand_term(term: str) -> list[ModelSpec]:
    m = re.match(r"^([a-z]+)\s*(?:\(([^)]*)\))?$", term, re.IGNORECASE)
    if not m:
        raise ValueError(f"cannot parse family term {term!r}")
    name, inner = m.group(1).lower(), m.group(2)
    if inner is None:
        return [parse_spec(term)]
    delta = None
    if ";" in inner:
        head, inner = inner.split(";", 1)
        delta = head.strip()
    toks = [t for t in inner.split(",")]
    ranges = [_expand_range(t, term) for t in toks]
    out = []
    if len(ranges) == 1:
        for p in ranges[0]:
            out.append(parse_spec(f"{name}({p})"))
    elif len(ranges) == 2:
        for p in ranges[0]:
            for q in ranges[1]:
                if delta is not None:
                    out.append(parse_spec(f"{name}({delta};{p},{q})"))
                else:
                    out.append(parse_spec(f"{name}({p},{q})"))
    else:
        raise ValueError(f"too many orders in {term!r}")
    return out


# ---------------------------------------------------------------------------
# constraint sets


@dataclass(frozen=True)
class GroupBound:
    """Constraint sum_{i in indices} |theta_i| <= bound."""

    indices: tuple[int, ...]
    bound: float

    def value(self, values: np.ndarray) -> float:
        return float(np.sum(np.abs(values[list(self.indices)])))


@dataclass(frozen=True)
class ConstraintSet:
    """Box bounds plus group absolute-sum bounds."""

    lower: np.ndarray
    upper: np.ndarray
    groups: tuple[GroupBound, ...] = ()

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, values, tol: float = 1e-9) -> bool:
        v = np.asarray(values, dtype=float)
        if v.shape != self.lower.shape:
            return False
        if np.any(v < self.lower - tol) or np.any(v > self.upper + tol):
            return False
        return all(g.value(v) <= g.bound + tol for g in self.groups)

    def _signed(self, g: GroupBound) -> bool:
        return bool(self.lower[g.indices[0]] < 0.0)

    def project(self, values) -> np.ndarray:
        """The Euclidean projection onto the set.

        Coordinates outside every budget are clipped to their box.  Inside a
        budget the box is implied, because ``constraint_set`` gives every
        budgeted coordinate a box at least as wide as the budget: a group is
        projected onto the l1-ball (signed) or the capped simplex
        (non-negative) by the sort-based rule of Duchi, Shalev-Shwartz,
        Singer & Chandra (2008), "Efficient projections onto the l1-ball for
        learning in high dimensions".
        """
        y = np.asarray(values, dtype=float)
        v = np.clip(y, self.lower, self.upper)
        for g in self.groups:
            idx = list(g.indices)
            signed = self._signed(g)
            a = np.abs(y[idx]) if signed else np.maximum(y[idx], 0.0)
            if a.sum() > g.bound:
                # shift by the threshold that leaves exactly the budget
                u = np.sort(a)[::-1]
                excess = np.cumsum(u) - g.bound
                rho = np.nonzero(u * np.arange(1, u.size + 1) > excess)[0][-1]
                a = np.maximum(a - excess[rho] / (rho + 1), 0.0)
            v[idx] = np.copysign(a, y[idx]) if signed else a
        return v

    def scipy_bounds(self) -> list[tuple[float, float]]:
        return [(float(lo), float(hi)) for lo, hi in zip(self.lower, self.upper)]

    def scipy_constraints(self) -> list[dict]:
        """The budgets as one linear inequality ``b - A v >= 0`` with a
        constant Jacobian, or none without budgets.  ``A`` holds each group's
        rows in group order, a row of ones for a non-negative group and the
        2^k sign rows of a signed group, whose maximum is sum |v_i|; ``b``
        holds the group's bound on each of its rows.  SLSQP stacks separate
        constraints the same way, so it gets the same matrix and vector from
        one callback per evaluation.  The value is taken group by group: a
        matrix-vector product may sum a row in another order once the
        matrix has more rows."""
        if not self.groups:
            return []
        parts = []
        for g in self.groups:
            k = len(g.indices)
            if self._signed(g):
                signs = list(itertools.product((1.0, -1.0), repeat=k))
            else:
                signs = [(1.0,) * k]
            a = np.zeros((len(signs), self.dim))
            a[:, list(g.indices)] = signs
            parts.append((g.bound, a))
        jac = -np.vstack([a for _, a in parts])
        return [{"type": "ineq", "fun": lambda v: np.concatenate([b - a @ v for b, a in parts]),
                 "jac": lambda v: jac}]


def constraint_set(spec: ModelSpec) -> ConstraintSet:
    """Feasible parameter region for a model spec.

    Dynamic-coefficient budgets keep a stationarity/invertibility margin of
    ``COEF_MARGIN``; scale parameters live in fixed positive boxes
    (``sigma`` in [1e-3, 1e3], variance scales in [1e-6, 1e6]).
    """
    c = 1.0 - COEF_MARGIN
    p, q = spec.p, spec.q
    if spec.family is Family.ARMA:
        lower = np.array([-c] * (p + q) + [SIGMA_MIN])
        upper = np.array([c] * (p + q) + [SIGMA_MAX])
        groups = []
        if p:
            groups.append(GroupBound(tuple(range(0, p)), c))
        if q:
            groups.append(GroupBound(tuple(range(p, p + q)), c))
        return ConstraintSet(lower, upper, tuple(groups))
    if spec.family is Family.GARCH:
        lower = np.array([OMEGA_MIN] + [0.0] * (p + q))
        upper = np.array([OMEGA_MAX] + [c] * (p + q))
        groups = (GroupBound(tuple(range(1, 1 + p + q)), c),) if p + q else ()
        return ConstraintSet(lower, upper, groups)
    if spec.family is Family.APARCH:
        lower = np.array([OMEGA_MIN] + [0.0] * p + [-c] * p + [0.0] * q)
        upper = np.array([OMEGA_MAX] + [c] * p + [c] * p + [c] * q)
        idx = tuple(range(1, 1 + p)) + tuple(range(1 + 2 * p, 1 + 2 * p + q))
        groups = (GroupBound(idx, c),) if idx else ()
        return ConstraintSet(lower, upper, groups)
    if spec.family is Family.ARARCH:
        lower = np.array([-c, OMEGA_MIN] + [0.0] * p)
        upper = np.array([c, OMEGA_MAX] + [c] * p)
        groups = (GroupBound(tuple(range(2, 2 + p)), c),) if p else ()
        return ConstraintSet(lower, upper, groups)
    raise UnsupportedFamily(str(spec.family))


@dataclass(frozen=True)
class ParamVector:
    """Parameter values bound to a model spec, in canonical order."""

    spec: ModelSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.shape != (self.spec.dim,):
            raise ValueError(
                f"{self.spec.name} needs {self.spec.dim} parameters, got shape {v.shape}"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def named(self) -> dict[str, float]:
        return dict(zip(self.spec.param_names(), map(float, self.values)))

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
        raise ValueError(f"{spec.name} needs {spec.dim} parameters, got shape {v.shape}")
    return v


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """An observed or simulated series plus (optional) provenance fields."""

    values: np.ndarray
    spec: ModelSpec | None = None
    theta: tuple[float, ...] | None = None
    seed: int | None = None
    burn_in: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    @property
    def n(self) -> int:
        return self.values.size

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["x"])
            for v in self.values:
                w.writerow([repr(float(v))])

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["x"]:
            raise ValueError(f"{path}: expected a single-column CSV with header 'x'")
        x = np.array([float(r[0]) for r in rows[1:]])
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:  # the header is line 1
            raise ValueError(f"{path}: line {bad[0] + 2}: non-finite value {float(x[bad[0]])}")
        return cls(x)


def _lag(arr: np.ndarray, k: int) -> np.ndarray:
    """Shift ``arr`` forward by k steps, zero-padding the start."""
    if k == 0:
        return arr
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
    seeded with ``seed``, so trajectories are reproducible bit-for-bit.

    Raises
    ------
    NonStationaryParams
        if ``theta`` is outside :func:`constraint_set`.
    NumericOverflow
        if any |X_t| exceeds 1e10 during the recursion.
    """
    values = _as_values(spec, theta)
    if not constraint_set(spec).contains(values):
        raise NonStationaryParams(
            f"parameters {values.tolist()} outside the feasible set of {spec.name}"
        )
    if n <= 0:
        raise ValueError("n must be positive")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n + burn_in)
    traj = simulate_from_noise(spec, values, noise, burn_in=burn_in)
    traj.seed = seed
    return traj


def simulate_from_noise(spec: ModelSpec, theta, noise, burn_in: int = 0) -> Trajectory:
    """Deterministic counterpart of :func:`simulate` with a caller-supplied
    innovation stream (used heavily by tests to pin exact paths)."""
    values = _as_values(spec, theta)
    xi = np.asarray(noise, dtype=float)
    x = _path_from_noise(spec, values, xi)
    if not np.all(np.isfinite(x)) or np.max(np.abs(x), initial=0.0) > OVERFLOW_LIMIT:
        raise NumericOverflow(f"simulated {spec.name} path exceeded |x| = {OVERFLOW_LIMIT:g}")
    return Trajectory(
        x[burn_in:], spec=spec, theta=tuple(map(float, values)), burn_in=burn_in
    )


def _path_from_noise(spec: ModelSpec, v: np.ndarray, xi: np.ndarray) -> np.ndarray:
    fam = spec.family
    p, q = spec.p, spec.q
    if fam is Family.ARMA:
        sigma = v[p + q]
        eps = sigma * xi
        ma = np.concatenate(([1.0], v[p : p + q]))
        return lfilter(ma, np.concatenate(([1.0], -v[:p])), eps)
    if fam is Family.GARCH:
        omega, a, b = v[0], v[1 : 1 + p], v[1 + p :]
        return _sim_garch(omega, a, b, xi)
    if fam is Family.APARCH:
        omega = v[0]
        a = v[1 : 1 + p]
        gam = v[1 + p : 1 + 2 * p]
        b = v[1 + 2 * p :]
        return _sim_aparch(omega, a, gam, b, spec.delta, xi)
    if fam is Family.ARARCH:
        # the AR(1) residual z is an ARCH(p) path, i.e. a garch(p, 0) one
        z = _sim_garch(v[1], v[2:], (), xi)
        return lfilter([1.0], [1.0, -v[0]], z)
    raise UnsupportedFamily(str(fam))


def _sim_garch(omega, a, b, xi):
    out = np.zeros(xi.size)
    coefs = map(float, [omega, *a, *b])
    try:
        _kernel(Family.GARCH, len(a), len(b))(out, xi, *coefs)
    except ValueError:  # math.sqrt of a negative variance (infeasible parameters)
        raise NumericOverflow("(G)ARCH simulation reached a negative variance") from None
    return out


def _sim_aparch(omega, a, gam, b, delta, xi):
    # math.pow does what numpy's scalar power does, but raises where numpy
    # would warn and return nan or inf (a negative base under a fractional
    # power, or an overflowing power); that maps to the package's overflow error
    out = np.zeros(xi.size)
    coefs = map(float, [omega, *a, *gam, *b, delta])
    try:
        _kernel(Family.APARCH, len(a), len(b))(out, xi, *coefs)
    except (ValueError, OverflowError):
        raise NumericOverflow(
            "aparch simulation reached a negative base or an overflowing power"
        ) from None
    return out


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
    xs = [f"x{i}" for i in range(1, p + 1)]
    ss = [f"s{j}" for j in range(1, q + 1)]
    a = [f"a{i}" for i in range(1, p + 1)]
    b = [f"b{j}" for j in range(1, q + 1)]
    if family is Family.GARCH:
        args, label = [*a, *b], "(G)ARCH"
        arch = [f"{ai} * {x}" for ai, x in zip(a, xs)]
        level, new_x, inverse = "sqrt(st)", "xt ** 2", ""
    else:
        g = [f"g{i}" for i in range(1, p + 1)]
        args, label = [*a, *g, *b, "delta"], "aparch"
        arch = [f"{ai} * power(abs({x}) - {gi} * {x}, delta)" for ai, gi, x in zip(a, g, xs)]
        level, new_x, inverse = "power(st, pow_inv)", "xt", "pow_inv = 1.0 / delta"

    def assign(names, values):
        return f"{', '.join(names)} = {', '.join(values)}" if names else ""

    step = " + ".join(["omega", *arch, *(f"{bj} * {sj}" for bj, sj in zip(b, ss))])
    source = f"""
def kernel({", ".join(["out", "xi", "omega", *args])}):
    path, sqrt, power, limit = memoryview(out), math.sqrt, math.pow, OVERFLOW_LIMIT
    {inverse}
    {assign(xs + ss, ["0.0"] * (p + q))}
    for t, e in enumerate(memoryview(xi)):
        st = {step}
        path[t] = xt = {level} * e
        if abs(xt) > limit:
            raise NumericOverflow("{label} simulation overflow")
        {assign(ss, ["st", *ss[:-1]])}
        {assign(xs, [new_x, *xs[:-1]])}
"""
    namespace = {"math": math, "NumericOverflow": NumericOverflow, "OVERFLOW_LIMIT": OVERFLOW_LIMIT}
    exec(source, namespace)
    return namespace["kernel"]


# ---------------------------------------------------------------------------
# conditional moments (truncated recursions)


@dataclass(frozen=True)
class CondMoments:
    """Fitted conditional mean and variance series, truncated convention.

    :func:`cond_moments` returns arrays; inside the package a constant moment
    may be held as a scalar (see :func:`_moments_from`)."""

    f_hat: np.ndarray
    h_hat: np.ndarray


def _ar_filter(poly: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``lfilter([1.0], poly, u)`` along the last axis.  A polynomial of size 1
    is the identity filter, so ``u`` itself is returned: scipy would compute
    the same values with one ``np.convolve`` per row."""
    return u if poly.size == 1 else lfilter([1.0], poly, u, axis=-1)


def _arma_residuals(spec: ModelSpec, v: np.ndarray, x: np.ndarray):
    """Truncated ARMA residuals eps and the MA polynomial they are filtered by."""
    ar = np.concatenate(([1.0], -v[: spec.p]))
    ma = np.concatenate(([1.0], v[spec.p : spec.p + spec.q]))
    if ma.size == 1:  # what lfilter computes here, without its apply_along_axis
        return np.convolve(ar, x)[: x.size], ma
    return lfilter(ar, ma, x), ma


def _garch_variance(spec: ModelSpec, v: np.ndarray, x: np.ndarray):
    """Unclamped truncated GARCH variance h_lin and the AR polynomial in the
    b coefficients that filters it."""
    p = spec.p
    u = np.full(x.size, v[0])
    for i in range(p):
        u += v[1 + i] * _lag(x, i + 1) ** 2
    b_poly = np.concatenate(([1.0], -v[1 + p :]))
    return _ar_filter(b_poly, u), b_poly


def _aparch_power(spec: ModelSpec, v: np.ndarray, x: np.ndarray):
    """Unclamped truncated APARCH power s_lin (sigma_t ** delta), the AR
    polynomial in the b coefficients that filters it, the unlagged ARCH power
    terms (|x_t| - gamma_i x_t) ** delta (one per i) and the variance
    h = max(s_lin, H_FLOOR) ** (2 / delta) before its own floor.  The moments
    and the scores read all four, so each fractional power is taken once per
    point.  Under the complex-step Hessian ``v`` is complex; NumPy orders
    complex numbers by real part first, so ``np.maximum`` clamps on the real
    part and a clamped entry's imaginary part is 0."""
    p = spec.p
    u = np.full(x.size, v[0])
    powers = []
    for i in range(p):
        w = (np.abs(x) - v[1 + p + i] * x) ** spec.delta
        powers.append(w)
        u += v[1 + i] * _lag(w, i + 1)
    b_poly = np.concatenate(([1.0], -v[1 + 2 * p :]))
    s_lin = _ar_filter(b_poly, u)
    s = np.maximum(s_lin, H_FLOOR)  # guards fractional powers off the feasible set
    return s_lin, b_poly, powers, s ** (2.0 / spec.delta)


def _ararch_residuals(spec: ModelSpec, v: np.ndarray, x: np.ndarray):
    """Truncated AR(1) residuals z and the unclamped ARCH variance they drive."""
    z = x - v[0] * _lag(x, 1)
    h = np.full(x.size, v[1])
    for i in range(spec.p):
        h += v[2 + i] * _lag(z, i + 1) ** 2
    return z, h


def _recursion(spec: ModelSpec, v: np.ndarray, x: np.ndarray):
    """The family's truncated recursion at ``v``: the one pass over the sample
    that both the conditional moments and the scores are read from."""
    fam = spec.family
    if fam is Family.ARMA:
        return _arma_residuals(spec, v, x)
    if fam is Family.GARCH:
        return _garch_variance(spec, v, x)
    if fam is Family.APARCH:
        return _aparch_power(spec, v, x)
    if fam is Family.ARARCH:
        return _ararch_residuals(spec, v, x)
    raise UnsupportedFamily(str(fam))


def _moments_from(spec: ModelSpec, v: np.ndarray, x: np.ndarray, rec) -> CondMoments:
    """Conditional moments from the recursion :func:`_recursion` built at ``v``.

    A constant moment stays a scalar: ``h`` for arma (white noise included),
    and ``f = 0.0`` for garch and aparch.  The contrast broadcasts it, so
    nothing fills n copies; :func:`cond_moments` returns full arrays."""
    fam = spec.family
    if fam is Family.ARMA:
        eps, _ = rec
        return CondMoments(x - eps, max(v[spec.p + spec.q] ** 2, H_FLOOR))
    if fam is Family.GARCH:
        h_lin, _ = rec
        return CondMoments(0.0, np.maximum(h_lin, H_FLOOR))
    if fam is Family.APARCH:
        *_, h = rec
        return CondMoments(0.0, np.maximum(h, H_FLOOR))
    _, h_lin = rec
    return CondMoments(v[0] * _lag(x, 1), np.maximum(h_lin, H_FLOOR))


def cond_moments(spec: ModelSpec, theta, x) -> CondMoments:
    """Conditional mean ``f_hat`` and variance ``h_hat`` given the sample,
    each a float64 array of the sample's length.

    Pre-sample values of every series are taken as zero.  ``h_hat`` is clamped
    below at ``H_FLOOR``; inside the feasible region the clamp is inert for
    the arma/garch families (their scale floors exceed it), it only guards
    evaluations near or outside the boundary.
    """
    v = _as_values(spec, theta)
    x = np.asarray(x, dtype=float)
    cm = _moments_from(spec, v, x, _recursion(spec, v, x))
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
