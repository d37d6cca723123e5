"""Command-line front end.

Subcommands
-----------
simulate        draw one trajectory from a model and write it as CSV
select          fit a candidate family to a CSV series and pick by criterion
mc-consistency  replicated selection-frequency experiment from a config file
mc-efficiency   replicated held-out-risk experiment from a config file

``mc-<driver>`` runs ``montecarlo.run_<driver>`` and writes ``<driver>.csv``
and ``<driver>.meta.json``, whose ``failed`` counts per (n, criterion) the
replications without a pick; mc-efficiency also counts, for every criterion,
each replication whose true-model fit did not converge.

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

``_KEYS`` is the schema: each key's ``ExperimentConfig`` field, its reader
and its writer.  A key is optional exactly when its field has a default
(``oracle_n``, ``burn_in``).  Values are taken literally: ``%`` is not
interpolated.  Unknown sections or keys are rejected.  ``parse_config`` and
``serialize_config`` round-trip: parsing the serialized form reproduces the
same configuration.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import os
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, NamedTuple

import numpy as np

from .criteria import _KNOWN, CriterionKind, select
from .errors import ConfigError, NonStationaryParams, QmselectError
from .models import DEFAULT_BURN_IN, Trajectory, expand_family, parse_spec, simulate
from .montecarlo import ExperimentConfig, run_consistency, run_efficiency, write_metadata
from .version import CONFIG_SCHEMA, __version__

EXIT_PARSE = 2
EXIT_CONSTRAINT = 3
EXIT_NO_MODEL = 4
EXIT_CONFIG = 5


@dataclass
class RunConfig:
    experiment: ExperimentConfig
    output_dir: str


# ---------------------------------------------------------------------------
# config schema


def _words(text: str) -> list[str]:
    """A comma- or space-separated list, as ``--theta`` and the config's lists are written."""
    return text.replace(",", " ").split()


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(w) for w in _words(text))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(w) for w in _words(text))


def _lowered(text: str) -> tuple[str, ...]:
    return tuple(w.lower() for w in _words(text))


def _family(text: str) -> tuple:
    return tuple(expand_family(text))


def _schema(text: str) -> int:
    if int(text) != CONFIG_SCHEMA:
        raise ValueError(f"unsupported schema (expected {CONFIG_SCHEMA})")
    return CONFIG_SCHEMA


def _path(text: str) -> str:
    if not text:
        raise ValueError("must not be empty")
    return text


def _commas(values) -> str:
    return ", ".join(map(str, values))


def _pluses(values) -> str:
    return " + ".join(map(str, values))


class _Key(NamedTuple):
    field: str | None  # the ExperimentConfig field it sets; None for schema and output_dir
    read: Callable[[str], Any]  # text -> value; a ValueError says what is wrong
    write: Callable[[Any], str]  # value -> text


#: every (section, key) of a config, in the order serialize_config writes them
_KEYS = {
    ("experiment", "schema"): _Key(None, _schema, str),
    ("experiment", "master_seed"): _Key("master_seed", int, str),
    ("experiment", "n_values"): _Key("n_values", _ints, _commas),
    ("experiment", "n_reps"): _Key("n_reps", int, str),
    ("experiment", "criteria"): _Key("criteria", _lowered, _commas),
    ("experiment", "oracle_n"): _Key("oracle_n", int, str),
    ("experiment", "burn_in"): _Key("burn_in", int, str),
    ("experiment", "output_dir"): _Key(None, _path, str),
    ("dgp", "model"): _Key("dgp", parse_spec, str),
    ("dgp", "theta"): _Key("dgp_theta", _floats, _commas),
    ("family", "models"): _Key("family", _family, _pluses),
}
#: a key may be left out exactly when its field has a default
_OPTIONAL = {f.name for f in fields(ExperimentConfig) if f.default is not MISSING}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config file's text; raises ConfigError naming the
    offending section/key on any problem."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config not parseable: {exc}") from exc
    sections = list(dict.fromkeys(section for section, _ in _KEYS))
    if sorted(cp.sections()) != sorted(sections):
        raise ConfigError(f"expected the sections {sections}, got {cp.sections()}")
    unknown = [f"[{s}] {name}" for s in sections for name in cp[s] if (s, name) not in _KEYS]
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    missing = [f"[{s}] {name}" for (s, name), key in _KEYS.items()
               if name not in cp[s] and key.field not in _OPTIONAL]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    values = {}
    for (section, name), key in _KEYS.items():
        if name in cp[section]:
            raw = cp[section][name]
            try:
                values[key.field or name] = key.read(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {name} = {raw!r}: {exc}") from None
    del values["schema"]  # checked by its reader
    output_dir = values.pop("output_dir")
    return RunConfig(ExperimentConfig(**values), output_dir)  # raises ConfigError on a bad field


def _read_config(path: str) -> tuple[RunConfig, bytes]:
    """The config in the file at ``path``, and the bytes it was parsed from."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # newlines translated, as a file opened in text mode reads them; a
        # UTF-8 byte-order mark, which some editors write, is dropped
        text = io.StringIO(data.decode("utf-8-sig"), newline=None).read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text), data


def parse_config_file(path: str) -> RunConfig:
    return _read_config(path)[0]


def serialize_config(cfg: RunConfig) -> str:
    plain = {"schema": CONFIG_SCHEMA, "output_dir": cfg.output_dir}
    sections: dict[str, str] = {}
    for (section, name), key in _KEYS.items():
        value = plain[name] if key.field is None else getattr(cfg.experiment, key.field)
        sections[section] = sections.get(section, f"[{section}]\n") + f"{name} = {key.write(value)}\n"
    return "\n".join(sections.values())


# ---------------------------------------------------------------------------
# subcommands


def _check_writable(path: str | None, directory: bool = False) -> None:
    """Raise the OSError that writing ``path``, a file or a directory made
    with its parents, would raise, before the work whose output it is.  An
    existing file is opened for appending, which leaves it as it is, and
    whatever this check makes is removed again, so a refused or failed run
    leaves nothing behind."""
    if path is None:
        return
    made = []
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    if directory:
        os.makedirs(path, exist_ok=True)
    else:
        open(path, "a").close()
    for made_path in made:  # the deepest first
        (os.rmdir if os.path.isdir(made_path) else os.remove)(made_path)


def _cmd_simulate(args) -> int:
    try:  # parse, then writability, then simulation
        spec = parse_spec(args.model)
        theta = np.array(_floats(args.theta))
        _check_writable(args.out)
        traj = simulate(spec, theta, args.n, seed=args.seed, burn_in=args.burn_in)
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
        rep = row.report
        print(f"criterion {result.kind}: chose {row.fit.spec.name}")
        print(
            f"  value = {rep.value:.6f}  (n_gamma_bar = {rep.n_gamma_bar:.6f}, "
            f"penalty = {rep.penalty:.6f}"
            + (f", logdet_term = {rep.logdet_term:.6f}" if rep.logdet_term is not None else "")
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
    cfg, data = _read_config(args.config)
    if args.out_dir:
        cfg.output_dir = args.out_dir
    _check_writable(cfg.output_dir, directory=True)
    # looked up at call time, so a replaced module attribute is the one run
    table = globals()[f"run_{stem}"](cfg.experiment, threads=args.threads)
    os.makedirs(cfg.output_dir, exist_ok=True)
    csv_path = os.path.join(cfg.output_dir, f"{stem}.csv")
    meta_path = os.path.join(cfg.output_dir, f"{stem}.meta.json")
    table.to_csv(csv_path)
    sha = hashlib.sha256(data).hexdigest()  # of the bytes parsed, not the file as it is now
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
    except NonStationaryParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except QmselectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an input or output path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
