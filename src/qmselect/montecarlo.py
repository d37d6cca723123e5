"""Replicated selection experiments: consistency rates and selection risk.

Two experiment drivers share the same replication protocol:

* :func:`run_consistency` — simulate, fit the candidate family once, let every
  criterion pick, and tabulate how often each lands on the true spec, an
  overfit (the truth nested strictly inside), a misspecified model, or fails.
* :func:`run_efficiency` — additionally scores every pick on one very long
  held-out trajectory per sample size ("oracle") and reports the mean excess
  risk of the selected model over the refitted true model, scaled by n.

A replication is described by the payload ``(config, n, r, want_theta)``:
the frozen :class:`ExperimentConfig` itself, with its ModelSpec objects, so
a worker simulates and fits exactly the configured specs.  Both drivers
build these payloads and map them through one helper.  All held-out scoring
goes through :func:`oracle_risk`, called once per n on every distinct
(spec, theta) point the replications produced.

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

import numpy as np

from .criteria import CriterionKind, classify, select_from_fits
from .errors import AllModelsFailed, ConfigError
from .fitting import fit_family
from .likelihood import gamma_bar
from .models import ModelSpec, simulate
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
    burn_in: int = 1000

    def __post_init__(self):
        if self.n_reps < 1:
            raise ConfigError("n_reps must be >= 1")
        if not self.n_values:
            raise ConfigError("n_values must not be empty")
        if any(n < 10 for n in self.n_values):
            raise ConfigError("every n value must be >= 10")
        if not self.family:
            raise ConfigError("family must not be empty")
        for name in self.criteria:
            CriterionKind.named(name)
        # fail early on an infeasible data-generating parameter
        from .models import constraint_set

        if not constraint_set(self.dgp).contains(np.asarray(self.dgp_theta)):
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


def _metadata(config: ExperimentConfig, **extra) -> dict:
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
    return meta


def write_metadata(path, config: ExperimentConfig, **extra) -> None:
    with open(path, "w") as fh:
        json.dump(_metadata(config, **extra), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# replication worker (top level so process pools can pickle it)


def _run_replication(payload):
    config, n, r, want_theta = payload
    dgp = config.dgp
    seed = derive_seed(config.master_seed, n, r)
    traj = simulate(dgp, np.asarray(config.dgp_theta), n, seed=seed, burn_in=config.burn_in)
    fits = fit_family(config.family, traj.values)
    info_cache: dict = {}
    out: dict = {"criteria": {}}
    if want_theta:
        true_fit = next((f for f in fits if f.spec == dgp), None)
        if true_fit is not None and true_fit.converged:
            out["true_fit"] = (dgp, tuple(map(float, true_fit.theta.values)))
        else:
            out["true_fit"] = None
    for name in config.criteria:
        kind = CriterionKind.named(name)
        try:
            sel = select_from_fits(fits, traj.values, kind, info_cache)
        except AllModelsFailed:
            out["criteria"][name] = None
            continue
        entry = {"chosen": sel.chosen, "class": classify(dgp, sel.chosen)}
        if want_theta:
            chosen_fit = next(f for f in fits if f.spec == sel.chosen)
            entry["theta"] = tuple(map(float, chosen_fit.theta.values))
        out["criteria"][name] = entry
    return out


def _replicate(config: ExperimentConfig, n: int, want_theta: bool, threads: int) -> list:
    """Every replication at sample size n, results in replication order."""
    payloads = [(config, n, r, want_theta) for r in range(config.n_reps)]
    if threads <= 1:
        return [_run_replication(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=threads) as ex:
        chunk = max(1, len(payloads) // (threads * 4))
        return list(ex.map(_run_replication, payloads, chunksize=chunk))


# ---------------------------------------------------------------------------
# consistency


@dataclass
class ConsistencyTable:
    dgp: str
    n_reps: int
    n_values: tuple[int, ...]
    criteria: tuple[str, ...]
    counts: dict = field(default_factory=dict)  # (n, criterion) -> {class: count}

    def count(self, n: int, criterion: str, cls: str) -> int:
        return self.counts[(n, criterion)][cls]

    def pct(self, n: int, criterion: str, cls: str) -> float:
        return 100.0 * self.counts[(n, criterion)][cls] / self.n_reps

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["dgp", "n", "criterion", "pct_true", "pct_overfit", "pct_misspec", "pct_failed"])
            for n in self.n_values:
                for crit in self.criteria:
                    w.writerow(
                        [self.dgp, n, crit]
                        + [repr(self.pct(n, crit, cls)) for cls in CLASSES]
                    )

    def to_text(self) -> str:
        lines = [f"selection frequencies (%) over {self.n_reps} replications of {self.dgp}"]
        header = f"{'n':>6}  {'criterion':<12}" + "".join(f"{c:>12}" for c in ("true", "overfit", "misspec", "failed"))
        lines.append(header)
        for n in self.n_values:
            for crit in self.criteria:
                row = f"{n:>6}  {crit:<12}" + "".join(
                    f"{self.pct(n, crit, cls):>12.1f}" for cls in CLASSES
                )
                lines.append(row)
        return "\n".join(lines)


def run_consistency(config: ExperimentConfig, threads: int = 1) -> ConsistencyTable:
    """Tabulate how often each criterion selects the true/overfit/misspecified
    model across replications; 'failed' counts replications where a criterion
    had no usable candidate at all."""
    table = ConsistencyTable(
        dgp=config.dgp.name,
        n_reps=config.n_reps,
        n_values=tuple(config.n_values),
        criteria=tuple(config.criteria),
    )
    for n in config.n_values:
        results = _replicate(config, n, want_theta=False, threads=threads)
        for crit in config.criteria:
            cell = {cls: 0 for cls in CLASSES}
            for res in results:
                entry = res["criteria"][crit]
                cell[entry["class"] if entry else "failed"] += 1
            table.counts[(n, crit)] = cell
    return table


# ---------------------------------------------------------------------------
# efficiency


def oracle_risk(
    dgp: ModelSpec,
    dgp_theta,
    eval_points,
    oracle_n: int = DEFAULT_ORACLE_N,
    seed: int | None = None,
    burn_in: int = 1000,
    master_seed: int = 0,
    n_tag: int = 0,
) -> np.ndarray:
    """Held-out contrast values for (spec, theta) pairs on one long trajectory.

    ``eval_points`` is an iterable of (ModelSpec, theta) pairs; the return
    value is the array of gamma_bar values of each pair on the shared oracle
    trajectory simulated from the data-generating process.
    """
    if oracle_n < MIN_ORACLE_N:
        raise ValueError(f"oracle_n must be >= {MIN_ORACLE_N}")
    if seed is None:
        seed = derive_seed(master_seed, n_tag, ORACLE_TAG)
    traj = simulate(dgp, np.asarray(dgp_theta), oracle_n, seed=seed, burn_in=burn_in)
    return np.array([gamma_bar(spec, theta, traj.values) for spec, theta in eval_points])


@dataclass
class EfficiencyTable:
    dgp: str
    n_reps: int
    n_values: tuple[int, ...]
    criteria: tuple[str, ...]
    rows: dict = field(default_factory=dict)  # (n, criterion) -> dict
    failed: dict = field(default_factory=dict)  # (n, criterion) -> count

    def me(self, n: int, criterion: str) -> float:
        return self.rows[(n, criterion)]["me"]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["dgp", "n", "criterion", "me", "mean_loss_selected", "mean_loss_true"])
            for n in self.n_values:
                for crit in self.criteria:
                    row = self.rows[(n, crit)]
                    w.writerow(
                        [self.dgp, n, crit]
                        + [repr(row[k]) for k in ("me", "mean_loss_selected", "mean_loss_true")]
                    )

    def to_text(self) -> str:
        lines = [f"held-out selection risk over {self.n_reps} replications of {self.dgp}"]
        lines.append(f"{'n':>6}  {'criterion':<12}{'ME':>12}{'loss(sel)':>14}{'loss(true)':>14}")
        for n in self.n_values:
            for crit in self.criteria:
                row = self.rows[(n, crit)]
                lines.append(
                    f"{n:>6}  {crit:<12}{row['me']:>12.4f}"
                    f"{row['mean_loss_selected']:>14.6f}{row['mean_loss_true']:>14.6f}"
                )
        return "\n".join(lines)


def run_efficiency(config: ExperimentConfig, threads: int = 1) -> EfficiencyTable:
    """Mean held-out excess risk of each criterion's pick, scaled by n.

    For each replication the selected model's fitted parameters and the
    refitted true model's parameters are scored on the shared per-n oracle
    trajectory; ``me`` is n * (mean selected loss - mean true-fit loss).
    """
    if config.dgp not in config.family:
        raise ConfigError("efficiency runs need the dgp spec inside the family")
    if config.oracle_n < MIN_ORACLE_N:
        raise ConfigError(f"oracle_n must be >= {MIN_ORACLE_N}")
    table = EfficiencyTable(
        dgp=config.dgp.name,
        n_reps=config.n_reps,
        n_values=tuple(config.n_values),
        criteria=tuple(config.criteria),
    )
    star = (config.dgp, tuple(config.dgp_theta))
    for n in config.n_values:
        results = _replicate(config, n, want_theta=True, threads=threads)
        # a replication without a converged true fit has no reference loss,
        # so none of its picks is scored; it counts as failed for every criterion
        scored = [res for res in results if res["true_fit"] is not None]
        points = {star: None}  # distinct held-out points, first appearance first
        for res in scored:
            points[res["true_fit"]] = None
            for entry in res["criteria"].values():
                if entry is not None:
                    points[(entry["chosen"], entry["theta"])] = None
        values = oracle_risk(
            config.dgp,
            star[1],
            list(points),
            oracle_n=config.oracle_n,
            burn_in=config.burn_in,
            master_seed=config.master_seed,
            n_tag=n,
        )
        risk = dict(zip(points, values))
        loss_true = [risk[res["true_fit"]] - risk[star] for res in scored]
        mean_true = float(np.mean(loss_true)) if loss_true else float("nan")
        for c in config.criteria:
            picks = (res["criteria"][c] for res in scored)
            loss_sel = [risk[(e["chosen"], e["theta"])] - risk[star] for e in picks if e is not None]
            mean_sel = float(np.mean(loss_sel)) if loss_sel else float("nan")
            table.rows[(n, c)] = {
                "me": n * (mean_sel - mean_true),
                "mean_loss_selected": mean_sel,
                "mean_loss_true": mean_true,
            }
            table.failed[(n, c)] = config.n_reps - len(loss_sel)
    return table
