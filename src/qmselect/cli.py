"""Command-line front end.

Subcommands
-----------
simulate        draw one trajectory from a model and write it as CSV
select          fit a candidate family to a CSV series and pick by criterion
mc-consistency  replicated selection-frequency experiment from a config file
mc-efficiency   replicated held-out-risk experiment from a config file

``mc-<driver>`` runs ``montecarlo.run_<driver>`` and writes ``<driver>.csv``
and ``<driver>.meta.json``, whose ``failed`` counts per (n, criterion) the
replications without a pick.

Exit codes: 0 success, 2 argument/input parse error (an unreadable input or
unwritable output path included; an output path is checked before the work),
3 infeasible model parameters, 4 no candidate model usable, 5 config-file
validation error.  On exit 4, ``select`` prints each excluded model with its
reason to stderr, and ``--out`` still writes the per-model table.

Config files are flat INI text with a ``schema = 1`` marker::

    [experiment]
    schema = 1
    master_seed = 20260814
    n_values = 200, 1000
    n_reps = 100
    criteria = aic, bic, kcprime
    oracle_n = 100000
    output_dir = results/demo

    [dgp]
    model = arma(1,1)
    theta = 0.5, 0.6, 1.0

    [family]
    models = arma(0..2,0..2) + garch(1,1)

Unknown sections or keys are rejected.  ``parse_config`` and
``serialize_config`` round-trip: parsing the serialized form reproduces the
same configuration.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
from dataclasses import dataclass

import numpy as np

from .criteria import _KNOWN, CriterionKind, select
from .errors import ConfigError, NonStationaryParams, QmselectError
from .models import DEFAULT_BURN_IN, Trajectory, expand_family, parse_spec, simulate
from .montecarlo import (
    DEFAULT_ORACLE_N,
    ExperimentConfig,
    run_consistency,
    run_efficiency,
    write_metadata,
)
from .version import CONFIG_SCHEMA, __version__

EXIT_PARSE = 2
EXIT_CONSTRAINT = 3
EXIT_NO_MODEL = 4
EXIT_CONFIG = 5


@dataclass
class RunConfig:
    experiment: ExperimentConfig
    output_dir: str


_EXPERIMENT_KEYS = {
    "schema",
    "master_seed",
    "n_values",
    "n_reps",
    "criteria",
    "oracle_n",
    "output_dir",
    "burn_in",
}
_REQUIRED_EXPERIMENT = {"schema", "master_seed", "n_values", "n_reps", "criteria", "output_dir"}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config file's text; raises ConfigError naming the
    offending section/key on any problem."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config not parseable: {exc}") from exc
    expected = {"experiment", "dgp", "family"}
    got = set(cp.sections())
    if got != expected:
        missing, extra = expected - got, got - expected
        parts = []
        if missing:
            parts.append(f"missing sections: {sorted(missing)}")
        if extra:
            parts.append(f"unknown sections: {sorted(extra)}")
        raise ConfigError("; ".join(parts))

    exp = dict(cp.items("experiment"))
    unknown = set(exp) - _EXPERIMENT_KEYS
    if unknown:
        raise ConfigError(f"[experiment] unknown keys: {sorted(unknown)}")
    missing = _REQUIRED_EXPERIMENT - set(exp)
    if missing:
        raise ConfigError(f"[experiment] missing keys: {sorted(missing)}")

    def intval(section, key, raw):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from None

    schema = intval("experiment", "schema", exp["schema"])
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"[experiment] schema {schema} unsupported (expected {CONFIG_SCHEMA})")
    master_seed = intval("experiment", "master_seed", exp["master_seed"])
    n_reps = intval("experiment", "n_reps", exp["n_reps"])
    try:
        n_values = tuple(int(t) for t in exp["n_values"].replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"[experiment] n_values must be integers, got {exp['n_values']!r}") from None
    criteria = tuple(t.strip().lower() for t in exp["criteria"].split(",") if t.strip())
    oracle_n = intval("experiment", "oracle_n", exp.get("oracle_n", str(DEFAULT_ORACLE_N)))
    burn_in = intval("experiment", "burn_in", exp.get("burn_in", str(DEFAULT_BURN_IN)))
    output_dir = exp["output_dir"].strip()
    if not output_dir:
        raise ConfigError("[experiment] output_dir must not be empty")

    dgp_items = dict(cp.items("dgp"))
    if set(dgp_items) != {"model", "theta"}:
        raise ConfigError(f"[dgp] needs exactly the keys model, theta; got {sorted(dgp_items)}")
    try:
        dgp = parse_spec(dgp_items["model"])
    except ValueError as exc:
        raise ConfigError(f"[dgp] model: {exc}") from exc
    try:
        theta = tuple(float(t) for t in dgp_items["theta"].replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"[dgp] theta must be numbers, got {dgp_items['theta']!r}") from None

    fam_items = dict(cp.items("family"))
    if set(fam_items) != {"models"}:
        raise ConfigError(f"[family] needs exactly the key models; got {sorted(fam_items)}")
    try:
        family = tuple(expand_family(fam_items["models"]))
    except ValueError as exc:
        raise ConfigError(f"[family] models: {exc}") from exc

    experiment = ExperimentConfig(  # raises ConfigError on a bad field
        dgp=dgp,
        dgp_theta=theta,
        family=family,
        n_values=n_values,
        n_reps=n_reps,
        criteria=criteria,
        master_seed=master_seed,
        oracle_n=oracle_n,
        burn_in=burn_in,
    )
    return RunConfig(experiment=experiment, output_dir=output_dir)


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def serialize_config(cfg: RunConfig) -> str:
    e = cfg.experiment
    lines = [
        "[experiment]",
        f"schema = {CONFIG_SCHEMA}",
        f"master_seed = {e.master_seed}",
        "n_values = " + ", ".join(str(n) for n in e.n_values),
        f"n_reps = {e.n_reps}",
        "criteria = " + ", ".join(e.criteria),
        f"oracle_n = {e.oracle_n}",
        f"burn_in = {e.burn_in}",
        f"output_dir = {cfg.output_dir}",
        "",
        "[dgp]",
        f"model = {e.dgp.name}",
        "theta = " + ", ".join(repr(t) for t in e.dgp_theta),
        "",
        "[family]",
        "models = " + " + ".join(m.name for m in e.family),
        "",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def _check_writable(path: str | None) -> None:
    """Raise the OSError that writing ``path`` would raise, before the work
    whose output it is: the path is opened for appending, which leaves an
    existing file as it is, and a file made by this check is removed again."""
    if path is None:
        return
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _cmd_simulate(args) -> int:
    try:
        spec = parse_spec(args.model)
        theta = np.array([float(t) for t in args.theta.replace(",", " ").split()])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _check_writable(args.out)
    try:
        traj = simulate(spec, theta, args.n, seed=args.seed, burn_in=args.burn_in)
    except NonStationaryParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    v = traj.values
    print(
        f"{spec.name}: n = {v.size}, mean = {np.mean(v):.6f}, sd = {np.std(v):.6f}, "
        f"min = {np.min(v):.6f}, max = {np.max(v):.6f}"
    )
    if args.out:
        traj.to_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_select(args) -> int:
    try:
        family = expand_family(args.family)
        kind = CriterionKind.named(args.criterion)
        traj = Trajectory.from_csv(args.data)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _check_writable(args.out)
    result = select(family, traj, kind)
    row = result.chosen_row
    excluded = [f"{r.fit.spec.name} ({r.excluded})" for r in result.rows if r.excluded]
    if row is None:
        print(f"error: {result.kind}: no candidate produced a criterion value", file=sys.stderr)
        print(f"  excluded: {', '.join(excluded)}", file=sys.stderr)
    else:
        comp = row.report.components
        print(f"criterion {result.kind}: chose {result.chosen.name}")
        print(
            f"  value = {row.report.value:.6f}  (n_gamma_bar = {comp.n_gamma_bar:.6f}, "
            f"penalty = {comp.penalty:.6f}"
            + (f", logdet_term = {comp.logdet_term:.6f}" if comp.logdet_term is not None else "")
            + ")"
        )
        if excluded:
            print(f"  excluded: {', '.join(excluded)}")
    if args.out:
        result.to_csv(args.out)
        print(f"wrote {args.out}")
    return 0 if row is not None else EXIT_NO_MODEL


def _cmd_mc(args) -> int:
    """``mc-<driver>``: run ``run_<driver>`` and write ``<driver>.csv`` and
    ``<driver>.meta.json`` under the output directory."""
    stem = args.command.removeprefix("mc-")
    cfg = parse_config_file(args.config)
    if args.out_dir:
        cfg.output_dir = args.out_dir
    os.makedirs(cfg.output_dir, exist_ok=True)
    # looked up at call time, so a replaced module attribute is the one run
    table = globals()[f"run_{stem}"](cfg.experiment, threads=args.threads)
    csv_path = os.path.join(cfg.output_dir, f"{stem}.csv")
    meta_path = os.path.join(cfg.output_dir, f"{stem}.meta.json")
    table.to_csv(csv_path)
    with open(args.config, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    write_metadata(meta_path, cfg.experiment, config_file_sha256=sha, failed=table.failed_counts())
    print(table.to_text())
    print(f"wrote {csv_path} and {meta_path}")
    return 0


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmselect",
        description="quasi-likelihood fitting and penalized model selection for time series",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"qmselect {__version__} (config schema {CONFIG_SCHEMA})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a trajectory and write it as CSV")
    p.add_argument("--model", required=True, help="model spec, e.g. garch(1,1)")
    p.add_argument("--theta", required=True, help="comma-separated parameters")
    p.add_argument("--n", type=int, required=True, help="trajectory length")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN, dest="burn_in")
    p.add_argument("--out", help="output CSV path (single column 'x')")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("select", help="fit a candidate family and pick by criterion")
    p.add_argument("--data", required=True, help="input CSV with a single column 'x'")
    p.add_argument("--family", required=True, help='family expression, e.g. "arma(0..2,0..2)"')
    p.add_argument("--criterion", required=True, help="|".join(_KNOWN))
    p.add_argument("--out", help="write the per-model selection table as CSV")
    p.set_defaults(func=_cmd_select)

    for name, desc in (
        ("mc-consistency", "replicated selection-frequency experiment"),
        ("mc-efficiency", "replicated held-out-risk experiment"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--threads", type=positive_int, default=os.cpu_count() or 1)
        p.add_argument("--out-dir", help="override the config's output_dir")
        p.set_defaults(func=_cmd_mc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QmselectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an input or output path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
