"""Replicated selection experiments: consistency rates and selection risk.

Two experiment drivers share the same replication protocol:

* :func:`run_consistency` — simulate, fit the candidate family once, let every
  criterion pick, and tabulate how often each lands on the true spec, an
  overfit (the truth nested strictly inside), a misspecified model, or fails.
* :func:`run_efficiency` — additionally scores every pick on one very long
  held-out trajectory per sample size ("oracle") and reports the mean excess
  risk of the selected model over the refitted true model, scaled by n.

A replication is described by the payload ``(config, n, r)``, holding the
frozen :class:`ExperimentConfig` itself, so a worker simulates and fits
exactly the configured specs.  Both drivers map these payloads through one
helper and read back one record: the converged true fit and the fit of each
criterion's pick, each a ``FitResult`` or None.  All held-out scoring goes
through :func:`oracle_risk`, called once per n on every distinct point.

Both tables write their CSV and text through one writer, ``_Table``, from
one list of columns; a new driver's table is one more subclass.  A config is
validated once, in :class:`ExperimentConfig`.

Seeding: replication r at sample size n draws its trajectory from a PCG64
generator keyed by SeedSequence([master_seed, n, r]); the oracle trajectory
uses a reserved tag in place of r.  Fits draw no random numbers.  Results
therefore do not depend on how replications are scheduled, and aggregation
walks replications in index order, so any ``threads`` value produces
byte-identical tables.
"""

from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .criteria import CriterionKind, classify, select_from_fits
from .errors import ConfigError
from .fitting import FitResult, fit_family
from .likelihood import gamma_bar
from .models import DEFAULT_BURN_IN, ModelSpec, _as_values, constraint_set, simulate
from .version import __version__

#: replication-index stand-in for oracle trajectory seeds
ORACLE_TAG = 2**62 + 11
DEFAULT_ORACLE_N = 100_000
MIN_ORACLE_N = 10_000
CLASSES = ("true_model", "overfit", "misspecified", "failed")


def derive_seed(master_seed: int, n: int, r: int) -> int:
    """Stable per-replication seed; r = ORACLE_TAG is reserved for oracles."""
    ss = np.random.SeedSequence([int(master_seed), int(n), int(r)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    dgp: ModelSpec
    dgp_theta: tuple[float, ...]
    family: tuple[ModelSpec, ...]
    n_values: tuple[int, ...]
    n_reps: int
    criteria: tuple[str, ...]
    master_seed: int
    oracle_n: int = DEFAULT_ORACLE_N
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.n_reps < 1:
            raise ConfigError("n_reps must be >= 1")
        if self.oracle_n < MIN_ORACLE_N:
            raise ConfigError(f"oracle_n must be >= {MIN_ORACLE_N}")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        if not self.n_values:
            raise ConfigError("n_values must not be empty")
        if any(n < 10 for n in self.n_values):
            raise ConfigError("every n value must be >= 10")
        for key, values in (("n_values", self.n_values), ("criteria", self.criteria),
                            ("family", self.family)):
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} must not repeat a value, got {', '.join(map(str, values))}")
        if not self.family:
            raise ConfigError("family must not be empty")
        if not self.criteria:
            raise ConfigError("criteria must not be empty")
        for name in self.criteria:
            try:
                CriterionKind.named(name)
            except ValueError as exc:
                raise ConfigError(f"criteria: {exc}") from None
        # fail early on a data-generating parameter of the wrong length or infeasible
        try:
            theta = _as_values(self.dgp, self.dgp_theta)
        except ValueError as exc:
            raise ConfigError(f"dgp parameters: {exc}") from None
        if not constraint_set(self.dgp).contains(theta):
            raise ConfigError(
                f"dgp parameters {list(self.dgp_theta)} infeasible for {self.dgp.name}"
            )

    def canonical_dict(self) -> dict:
        return {
            "dgp": self.dgp.name,
            "dgp_theta": list(self.dgp_theta),
            "family": [m.name for m in self.family],
            "n_values": list(self.n_values),
            "n_reps": self.n_reps,
            "criteria": list(self.criteria),
            "master_seed": self.master_seed,
            "oracle_n": self.oracle_n,
            "burn_in": self.burn_in,
        }

    def config_hash(self) -> str:
        text = json.dumps(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def write_metadata(path, config: ExperimentConfig, **extra) -> None:
    meta = {
        "master_seed": config.master_seed,
        "config_hash": config.config_hash(),
        "version": __version__,
        "oracle_n": config.oracle_n,
        "oracle_seed_tag": ORACLE_TAG,
        "oracle_shared_per_n": True,
        "burn_in": config.burn_in,
    }
    meta.update(extra)
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# replication worker (top level so process pools can pickle it)


class _Record(NamedTuple):
    true_fit: FitResult | None  # the converged fit of the dgp spec, or None
    picks: dict  # criterion name -> the fit of its pick, or None if nothing scored


def _run_replication(payload) -> _Record:
    config, n, r = payload
    seed = derive_seed(config.master_seed, n, r)
    traj = simulate(config.dgp, np.asarray(config.dgp_theta), n, seed=seed, burn_in=config.burn_in)
    fits = fit_family(config.family, traj.values)
    info_cache: dict = {}
    picks: dict = {}
    for name in config.criteria:
        row = select_from_fits(fits, traj.values, CriterionKind.named(name), info_cache).chosen_row
        picks[name] = None if row is None else row.fit
    true_fit = next((f for f in fits if f.converged and f.spec == config.dgp), None)
    return _Record(true_fit, picks)


def _replicate(config: ExperimentConfig, n: int, threads: int) -> list[_Record]:
    """Every replication at sample size n, results in replication order."""
    payloads = [(config, n, r) for r in range(config.n_reps)]
    # a fork pool starts every worker at once, so no more than there is work for
    workers = min(threads, len(payloads))
    if workers <= 1:
        return [_run_replication(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        chunk = max(1, len(payloads) // (workers * 4))
        return list(ex.map(_run_replication, payloads, chunksize=chunk))


# ---------------------------------------------------------------------------
# tables


class _Column(NamedTuple):
    csv: str  # CSV header
    label: str  # text header
    width: int
    decimals: int


@dataclass
class _Table:
    """Figures per (n, criterion) of one experiment, written as CSV and text.

    A subclass names its ``title`` (formatted with ``n_reps`` and ``dgp``) and
    its ``columns``, and defines ``_figures(n, criterion)``, one value per
    column, and ``_failed(n, criterion)``, the replications without a pick.
    """

    dgp: str
    n_reps: int
    n_values: tuple[int, ...]
    criteria: tuple[str, ...]

    title: ClassVar[str]
    columns: ClassVar[tuple[_Column, ...]]

    @classmethod
    def from_config(cls, config: ExperimentConfig):
        return cls(config.dgp.name, config.n_reps, tuple(config.n_values), tuple(config.criteria))

    def _rows(self):
        for n in self.n_values:
            for crit in self.criteria:
                yield n, crit, self._figures(n, crit)

    def failed_counts(self) -> dict:
        """Replications without a pick, as {str(n): {criterion: count}}."""
        return {str(n): {c: self._failed(n, c) for c in self.criteria} for n in self.n_values}

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["dgp", "n", "criterion", *(col.csv for col in self.columns)])
            for n, crit, figures in self._rows():
                w.writerow([self.dgp, n, crit, *map(repr, figures)])

    def to_text(self) -> str:
        lines = [self.title.format(n_reps=self.n_reps, dgp=self.dgp)]
        lines.append(f"{'n':>6}  {'criterion':<12}" + "".join(f"{c.label:>{c.width}}" for c in self.columns))
        for n, crit, figures in self._rows():
            cells = (f"{v:>{c.width}.{c.decimals}f}" for c, v in zip(self.columns, figures))
            lines.append(f"{n:>6}  {crit:<12}" + "".join(cells))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# consistency


@dataclass
class ConsistencyTable(_Table):
    counts: dict = field(default_factory=dict)  # (n, criterion) -> {class: count}

    title: ClassVar[str] = "selection frequencies (%) over {n_reps} replications of {dgp}"
    # one column per class, in CLASSES order
    columns: ClassVar[tuple[_Column, ...]] = tuple(
        _Column(f"pct_{label}", label, 12, 1) for label in ("true", "overfit", "misspec", "failed")
    )

    def count(self, n: int, criterion: str, cls: str) -> int:
        return self.counts[(n, criterion)][cls]

    def pct(self, n: int, criterion: str, cls: str) -> float:
        return 100.0 * self.counts[(n, criterion)][cls] / self.n_reps

    def _figures(self, n, criterion):
        return tuple(self.pct(n, criterion, cls) for cls in CLASSES)

    def _failed(self, n, criterion):
        return self.count(n, criterion, "failed")


def run_consistency(config: ExperimentConfig, threads: int = 1) -> ConsistencyTable:
    """Tabulate how often each criterion selects the true/overfit/misspecified
    model across replications; 'failed' counts replications where a criterion
    had no usable candidate at all."""
    table = ConsistencyTable.from_config(config)
    for n in config.n_values:
        results = _replicate(config, n, threads)
        for crit in config.criteria:
            picks = (res.picks[crit] for res in results)
            got = ["failed" if p is None else classify(config.dgp, p.spec) for p in picks]
            table.counts[(n, crit)] = {cls: got.count(cls) for cls in CLASSES}
    return table


# ---------------------------------------------------------------------------
# efficiency


def oracle_risk(
    dgp: ModelSpec, dgp_theta, eval_points, *,
    seed: int, oracle_n: int = DEFAULT_ORACLE_N, burn_in: int = DEFAULT_BURN_IN,
) -> np.ndarray:
    """Held-out contrast values for (spec, theta) pairs on one long trajectory.

    ``eval_points`` is an iterable of (ModelSpec, theta) pairs; the return
    value is the array of gamma_bar values of each pair on the oracle
    trajectory simulated from the data-generating process at ``seed``.
    """
    if oracle_n < MIN_ORACLE_N:
        raise ValueError(f"oracle_n must be >= {MIN_ORACLE_N}")
    traj = simulate(dgp, np.asarray(dgp_theta), oracle_n, seed=seed, burn_in=burn_in)
    return np.array([gamma_bar(spec, theta, traj.values) for spec, theta in eval_points])


@dataclass
class EfficiencyTable(_Table):
    rows: dict = field(default_factory=dict)  # (n, criterion) -> dict
    failed: dict = field(default_factory=dict)  # (n, criterion) -> count

    title: ClassVar[str] = "held-out selection risk over {n_reps} replications of {dgp}"
    columns: ClassVar[tuple[_Column, ...]] = (
        _Column("me", "ME", 12, 4),
        _Column("mean_loss_selected", "loss(sel)", 14, 6),
        _Column("mean_loss_true", "loss(true)", 14, 6),
    )

    def me(self, n: int, criterion: str) -> float:
        return self.rows[(n, criterion)]["me"]

    def _figures(self, n, criterion):
        row = self.rows[(n, criterion)]
        return tuple(row[c.csv] for c in self.columns)

    def _failed(self, n, criterion):
        return self.failed[(n, criterion)]


def run_efficiency(config: ExperimentConfig, threads: int = 1) -> EfficiencyTable:
    """Mean held-out excess risk of each criterion's pick, scaled by n.

    For each replication the selected model's fitted parameters and the
    refitted true model's parameters are scored on the shared per-n oracle
    trajectory; ``me`` is n * (mean selected loss - mean true-fit loss).
    """
    if config.dgp not in config.family:
        raise ConfigError("efficiency runs need the dgp spec inside the family")
    table = EfficiencyTable.from_config(config)
    star = (config.dgp, tuple(config.dgp_theta))

    def point(fit):  # a fit as a hashable (spec, theta) key
        return fit.spec, tuple(map(float, fit.theta.values))

    for n in config.n_values:
        results = _replicate(config, n, threads)
        # a replication without a converged true fit has no reference loss,
        # so none of its picks is scored; it counts as failed for every criterion
        scored = [res for res in results if res.true_fit is not None]
        # distinct held-out points, first appearance first
        picked = (f for res in scored for f in (res.true_fit, *res.picks.values()) if f is not None)
        points = dict.fromkeys((star, *map(point, picked)))
        seed = derive_seed(config.master_seed, n, ORACLE_TAG)
        values = oracle_risk(config.dgp, star[1], list(points), seed=seed,
                             oracle_n=config.oracle_n, burn_in=config.burn_in)
        risk = dict(zip(points, values))
        loss_true = [risk[point(res.true_fit)] - risk[star] for res in scored]
        mean_true = float(np.mean(loss_true)) if loss_true else float("nan")
        for c in config.criteria:
            picks = (res.picks[c] for res in scored)
            loss_sel = [risk[point(f)] - risk[star] for f in picks if f is not None]
            mean_sel = float(np.mean(loss_sel)) if loss_sel else float("nan")
            table.rows[(n, c)] = dict(
                me=n * (mean_sel - mean_true), mean_loss_selected=mean_sel, mean_loss_true=mean_true
            )
            table.failed[(n, c)] = config.n_reps - len(loss_sel)
    return table
