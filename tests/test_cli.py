import csv
import json
import os

import pytest

import qmselect as q
from qmselect import cli
from qmselect.cli import (
    EXIT_CONFIG,
    EXIT_CONSTRAINT,
    EXIT_NO_MODEL,
    EXIT_PARSE,
    main,
    parse_config,
    serialize_config,
)

CONFIGS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

GOOD_CONFIG = """\
[experiment]
schema = 1
master_seed = 11
n_values = 200, 500
n_reps = 4
criteria = aic, bic
oracle_n = 10000
output_dir = results/demo

[dgp]
model = arma(1,1)
theta = 0.5, 0.6, 1.0

[family]
models = wn + arma(0..1,0..1)
"""

# an aparch power that differs from its 6-significant-digit text
APARCH_CONFIG = (
    GOOD_CONFIG.replace("model = arma(1,1)", "model = aparch(1.2345678;1,1)")
    .replace("theta = 0.5, 0.6, 1.0", "theta = 0.5, 0.1, 0.3, 0.6")
    .replace("wn + arma(0..1,0..1)", "wn + aparch(1.2345678;1,0..1)")
)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# version / simulate


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "qmselect 0.1.0 (config schema 1)"


def test_simulate_writes_deterministic_csv(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["simulate", "--model", "garch(1,1)", "--theta", "1,0.35,0.4", "--n", "50", "--seed", "5"]
    code, text, _ = run_cli(base + ["--out", str(out1)], capsys)
    assert code == 0
    assert "garch(1,1): n = 50" in text
    code, _, _ = run_cli(base + ["--out", str(out2)], capsys)
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    traj = q.Trajectory.from_csv(out1)
    assert traj.values.shape == (50,)


def test_simulate_rejects_bad_model(capsys):
    code, _, err = run_cli(
        ["simulate", "--model", "armax(1,1)", "--theta", "1", "--n", "10", "--seed", "0"], capsys
    )
    assert code == EXIT_PARSE
    assert "error" in err


def test_simulate_rejects_infeasible_theta(capsys):
    code, _, err = run_cli(
        ["simulate", "--model", "arma(1,0)", "--theta", "1.5,1", "--n", "10", "--seed", "0"], capsys
    )
    assert code == EXIT_CONSTRAINT
    assert "error" in err


def test_simulate_rejects_wrong_theta_length(capsys):
    code, _, _ = run_cli(
        ["simulate", "--model", "arma(1,0)", "--theta", "0.5", "--n", "10", "--seed", "0"], capsys
    )
    assert code == EXIT_PARSE


# ---------------------------------------------------------------------------
# select


@pytest.fixture(scope="module")
def ar2_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ar2.csv"
    traj = q.simulate(q.arma(2, 0), [0.4, 0.4, 1.0], 2000, seed=7)
    traj.to_csv(path)
    return str(path)


def test_select_finds_ar2(ar2_csv, tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, text, _ = run_cli(
        ["select", "--data", ar2_csv, "--family", "arma(0..2,0..2)", "--criterion", "bic",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "criterion bic: chose arma(2,0)" in text
    assert "penalty" in text
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert sum(r["chosen"] == "true" for r in rows) == 1


def test_select_no_usable_model_exits_4(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    q.simulate(q.wn(), [1.0], 30, seed=1).to_csv(path)
    code, _, err = run_cli(
        ["select", "--data", str(path), "--family", "arma(3,3)", "--criterion", "aic"], capsys
    )
    assert code == EXIT_NO_MODEL
    assert "error" in err


def test_select_rejects_unknown_criterion(ar2_csv, capsys):
    code, _, _ = run_cli(
        ["select", "--data", ar2_csv, "--family", "wn", "--criterion", "dic"], capsys
    )
    assert code == EXIT_PARSE


def test_select_rejects_missing_file(capsys):
    code, _, _ = run_cli(
        ["select", "--data", "/nonexistent.csv", "--family", "wn", "--criterion", "aic"], capsys
    )
    assert code == EXIT_PARSE


# ---------------------------------------------------------------------------
# config parsing


def test_config_round_trip():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg.experiment.n_values == (200, 500)
    assert cfg.experiment.criteria == ("aic", "bic")
    assert cfg.experiment.dgp == q.arma(1, 1)
    assert len(cfg.experiment.family) == 4  # wn + arma(0..1,0..1) deduplicates arma(0,0)
    for text in (GOOD_CONFIG, APARCH_CONFIG):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert serialize_config(again) == serialize_config(cfg)
    assert cfg.experiment.dgp == q.aparch(1.2345678, 1, 1)
    nearby = parse_config(APARCH_CONFIG.replace("1.2345678", "1.2345679"))
    assert nearby.experiment.config_hash() != cfg.experiment.config_hash()


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda t: t.replace("n_reps = 4", "n_reps = 0"), "n_reps"),
        (lambda t: t.replace("schema = 1", "schema = 2"), "schema"),
        (lambda t: t.replace("master_seed = 11", "master_seed = 11\nrestarts = 9"), "unknown keys"),
        (lambda t: t.replace("[dgp]", "[generator]"), "sections"),
        (lambda t: t.replace("criteria = aic, bic", "criteria = aic, dic"), "criteria"),
        (lambda t: t.replace("theta = 0.5, 0.6, 1.0", "theta = 0.5, zebra"), "theta"),
        (lambda t: t.replace("n_values = 200, 500", "n_values = two hundred"), "n_values"),
        (lambda t: t.replace("theta = 0.5, 0.6, 1.0", "theta = 1.5, 0.6, 1.0"), "infeasible"),
    ],
)
def test_config_errors_name_the_field(mutate, needle):
    with pytest.raises(q.ConfigError) as exc:
        parse_config(mutate(GOOD_CONFIG))
    assert needle in str(exc.value)


def test_config_errors_exit_5(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CONFIG.replace("schema = 1", "schema = 2"))
    code, _, err = run_cli(["mc-consistency", "--config", str(bad), "--threads", "1"], capsys)
    assert code == EXIT_CONFIG
    assert "schema" in err
    code, _, err = run_cli(["mc-consistency", "--config", str(tmp_path / "nope.cfg"), "--threads", "1"], capsys)
    assert code == EXIT_CONFIG


def test_shipped_configs_parse():
    for name, family_size in [
        ("arma11_desk.cfg", 10),
        ("garch11_desk.cfg", 10),
        ("full_protocol.cfg", 97),
    ]:
        with open(os.path.join(CONFIGS_DIR, name)) as fh:
            cfg = parse_config(fh.read())
        assert len(cfg.experiment.family) == family_size
        assert cfg.experiment.dgp in cfg.experiment.family


def test_full_protocol_scale():
    with open(os.path.join(CONFIGS_DIR, "full_protocol.cfg")) as fh:
        cfg = parse_config(fh.read())
    assert cfg.experiment.n_reps == 500
    assert cfg.experiment.n_values == (200, 500, 1000, 2000)
    assert len(cfg.experiment.criteria) == 6


# ---------------------------------------------------------------------------
# experiment subcommands (tiny runs)


def test_mc_consistency_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "demo.cfg"
    cfg_path.write_text(GOOD_CONFIG.replace("n_values = 200, 500", "n_values = 200"))
    out_dir = tmp_path / "out"
    code, text, _ = run_cli(
        ["mc-consistency", "--config", str(cfg_path), "--threads", "1", "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert "selection frequencies" in text
    csv_path = out_dir / "consistency.csv"
    meta_path = out_dir / "consistency.meta.json"
    assert csv_path.is_file() and meta_path.is_file()
    meta = json.loads(meta_path.read_text())
    assert meta["master_seed"] == 11
    assert len(meta["config_file_sha256"]) == 64
    with open(csv_path, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2  # one n value x two criteria


def test_mc_efficiency_end_to_end(tmp_path, capsys, monkeypatch):
    tables = []
    real_run = cli.run_efficiency

    def recording_run(*args, **kwargs):
        tables.append(real_run(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(cli, "run_efficiency", recording_run)
    cfg_path = tmp_path / "demo.cfg"
    cfg_path.write_text(
        GOOD_CONFIG.replace("n_values = 200, 500", "n_values = 200").replace("n_reps = 4", "n_reps = 3")
    )
    out_dir = tmp_path / "out"
    code, text, _ = run_cli(
        ["mc-efficiency", "--config", str(cfg_path), "--threads", "1", "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert "held-out selection risk" in text
    assert (out_dir / "efficiency.csv").is_file()
    with open(out_dir / "efficiency.meta.json") as fh:
        meta = json.load(fh)
    (table,) = tables
    assert meta["failed"] == {"200": {c: table.failed[(200, c)] for c in ("aic", "bic")}}
