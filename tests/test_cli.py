import csv
import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmselect as q
from qmselect import cli, montecarlo
from qmselect.cli import (
    EXIT_CONFIG,
    EXIT_CONSTRAINT,
    EXIT_NO_MODEL,
    EXIT_PARSE,
    RunConfig,
    main,
    parse_config,
    serialize_config,
)

REPO_DIR = os.path.join(os.path.dirname(__file__), os.pardir)
CONFIGS_DIR = os.path.join(REPO_DIR, "configs")
SHIPPED_CONFIGS = ("configs/arma11_desk.cfg", "configs/full_protocol.cfg", "configs/garch11_desk.cfg",
                   "perfbench/configs/aparch_ararch.cfg")

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


def test_select_help_lists_every_criterion(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--help"])
    assert exc.value.code == 0
    assert "aic|bic|hq|tracepen|tracepen_cf|kc|kcprime" in capsys.readouterr().out


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


@pytest.mark.parametrize("power", [".", "1.2.3", "0", "0.0", "00", pytest.param("9" * 400, id="400-digits")])
def test_simulate_names_a_term_with_a_malformed_power(capsys, power):
    code, _, err = run_cli(
        ["simulate", "--model", f"aparch({power};1,1)", "--theta", "0.3,0.1,0.3,0.6", "--n", "10",
         "--seed", "0"], capsys
    )
    assert code == EXIT_PARSE
    assert f"cannot parse model term 'aparch({power};1,1)'" in err


def test_simulate_rejects_infeasible_theta(capsys):
    code, _, err = run_cli(
        ["simulate", "--model", "arma(1,0)", "--theta", "1.5,1", "--n", "10", "--seed", "0"], capsys
    )
    assert code == EXIT_CONSTRAINT
    assert "error" in err


def test_simulate_rejects_nan_theta(capsys):
    # every comparison with NaN is false, so only an explicit finiteness test
    # keeps a NaN omega from simulating an exploding path
    code, _, err = run_cli(
        ["simulate", "--model", "garch(1,1)", "--theta", "nan,0.1,0.1", "--n", "10", "--seed", "1"], capsys
    )
    assert code == EXIT_CONSTRAINT
    assert "outside the feasible set of garch(1,1)" in err


def test_simulate_rejects_wrong_theta_length(capsys):
    code, _, err = run_cli(
        ["simulate", "--model", "arma(1,0)", "--theta", "0.5", "--n", "10", "--seed", "0"], capsys
    )
    assert code == EXIT_PARSE
    assert "arma(1,0) takes 2 parameters (a1, sigma), got 1" in err


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


def test_select_exit_4_names_each_excluded_model_and_writes_its_table(tmp_path, capsys):
    # no candidate scores: each model is named with its reason, and --out
    # still writes one row per model
    data, out = tmp_path / "empty.csv", tmp_path / "table.csv"
    data.write_text("x\n")
    code, text, err = run_cli(
        ["select", "--data", str(data), "--family", "wn+arma(1,0)", "--criterion", "bic",
         "--out", str(out)],
        capsys,
    )
    assert code == EXIT_NO_MODEL
    assert err.startswith("error: bic: no candidate produced a criterion value\n")
    assert "wn (TooShortSeries: wn: n = 0 < 10)" in err
    assert "arma(1,0) (TooShortSeries: arma(1,0): n = 0 < 20)" in err
    assert text == f"wrote {out}\n"
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["model"], r["chosen"], r["value"]) for r in rows] == [
        ("wn", "false", ""), ("arma(1,0)", "false", "")
    ]
    assert [r["excluded"] for r in rows] == [
        "TooShortSeries: wn: n = 0 < 10", "TooShortSeries: arma(1,0): n = 0 < 20"
    ]


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_select_rejects_non_finite_data(tmp_path, capsys, bad):
    path = tmp_path / "ar1.csv"
    q.simulate(q.arma(1, 0), [0.5, 1.0], 300, seed=3).to_csv(path)
    lines = path.read_text().splitlines()
    lines[100] = bad  # line 101 of the file
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        ["select", "--data", str(path), "--family", "wn+arma(1,0)", "--criterion", "bic"], capsys
    )
    assert code == EXIT_PARSE
    assert f"line 101: non-finite value {bad}" in err


@pytest.mark.parametrize("bad,got", [("", 0), ("2.0,3.0", 2)], ids=["blank", "two_fields"])
def test_select_rejects_rows_that_are_not_one_field(tmp_path, capsys, bad, got):
    path = tmp_path / "ar1.csv"
    q.simulate(q.arma(1, 0), [0.5, 1.0], 300, seed=3).to_csv(path)
    lines = path.read_text().splitlines()
    lines[100] = bad  # line 101 of the file
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        ["select", "--data", str(path), "--family", "wn+arma(1,0)", "--criterion", "bic"], capsys
    )
    assert code == EXIT_PARSE
    assert f"line 101: expected one field, got {got}" in err


def test_select_rejects_non_numeric_data(tmp_path, capsys):
    path = tmp_path / "words.csv"
    path.write_text("x\n1.0\nabc\n2.0\n")
    code, _, err = run_cli(
        ["select", "--data", str(path), "--family", "wn+arma(1,0)", "--criterion", "bic"], capsys
    )
    assert code == EXIT_PARSE
    assert "words.csv" in err and "line 3" in err


def test_select_rejects_data_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"x\n1.0\n\xff\n2.0\n")
    code, _, err = run_cli(
        ["select", "--data", str(path), "--family", "wn+arma(1,0)", "--criterion", "bic"], capsys
    )
    assert code == EXIT_PARSE
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")


def test_select_tracepen_cf_on_an_all_zero_series_exits_4(tmp_path, capsys):
    # the fourth-moment ratio of all-zero residuals is undefined: every model
    # is excluded with that reason, and no model is left to choose
    path = tmp_path / "zero.csv"
    path.write_text("x\n" + "0.0\n" * 200)
    code, _, err = run_cli(
        ["select", "--data", str(path), "--family", "wn+arma(1,0)", "--criterion", "tracepen_cf"],
        capsys,
    )
    assert code == EXIT_NO_MODEL
    assert "no candidate produced a criterion value" in err


def test_select_excludes_an_order_above_the_budget_cap(tmp_path, capsys):
    # arma(17,0) would give SLSQP 2^17 sign rows: it is excluded, and wn picked
    path = tmp_path / "ar.csv"
    q.simulate(q.arma(1, 0), [0.5, 1.0], 200, seed=2).to_csv(path)
    code, out, _ = run_cli(
        ["select", "--data", str(path), "--family", "wn + arma(17,0)", "--criterion", "bic"], capsys
    )
    assert code == 0
    assert out.startswith("criterion bic: chose wn\n")
    assert ("  excluded: arma(17,0) (UnsupportedFamily: a signed budget of 17 coefficients takes "
            "2^17 SLSQP rows; at most 16 are supported)\n") in out


#: criterion -> (sha256 of the per-model CSV, stdout before its ``wrote`` line)
#: of ``select`` on garch(1,1) series 8, n = 300.  Most series' garch fits move
#: in their last bits with the BLAS thread count; this one's do not, so one
#: pin holds in both tier-1 runs.
SELECT_PINS = {
    "kcprime": (
        "8384b2fb80ed210d2e89b1bd3d185398267426b213446bc468591178f5303358",
        "criterion kcprime: chose ararch(1)\n"
        "  value = 617.247298  (n_gamma_bar = 607.083974, penalty = 13.794941, "
        "logdet_term = -3.631617)\n",
    ),
    "tracepen_cf": (
        "7c747186fe2bf03bad983416ae59f6a83d909af3a5c58aed447d82936eb1bb3a",
        "criterion tracepen_cf: chose garch(1,1)\n"
        "  value = 614.308196  (n_gamma_bar = 609.347378, penalty = 4.960817)\n"
        "  excluded: ararch(1) (UnsupportedFamily: ararch(1): closed-form trace is "
        "incomplete for this family)\n",
    ),
}


@pytest.mark.parametrize("criterion", sorted(SELECT_PINS))
def test_select_output_is_pinned(criterion, tmp_path, capsys):
    # kcprime fills the logdet_term column; tracepen_cf excludes ararch(1)
    data, out = tmp_path / "garch.csv", tmp_path / "table.csv"
    q.simulate(q.garch(1, 1), [1.0, 0.35, 0.4], 300, seed=8).to_csv(data)
    code, text, _ = run_cli(
        ["select", "--data", str(data), "--family", "wn + arma(1,0) + garch(0..1,1) + ararch(1)",
         "--criterion", criterion, "--out", str(out)],
        capsys,
    )
    digest, stdout = SELECT_PINS[criterion]
    assert code == 0
    assert text == stdout + f"wrote {out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    shipped = []
    for path in SHIPPED_CONFIGS:
        with open(os.path.join(REPO_DIR, path)) as fh:
            shipped.append(fh.read())
    for text in (*shipped, GOOD_CONFIG, APARCH_CONFIG):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert serialize_config(again) == serialize_config(cfg)
    assert cfg.experiment.dgp == q.aparch(1.2345678, 1, 1)
    nearby = parse_config(APARCH_CONFIG.replace("1.2345678", "1.2345679"))
    assert nearby.experiment.config_hash() != cfg.experiment.config_hash()


POSITIVE = st.floats(1e-3, 1e3)
COEF = st.floats(-0.98, 0.98)
ARCH = st.floats(0.0, 0.45)  # a1 + b1 stays inside the 0.98 budget
#: a small spec pool, each spec with a strategy for its feasible parameters
SPEC_POOL = {
    q.wn(): st.tuples(POSITIVE),
    q.arma(1, 1): st.tuples(COEF, COEF, POSITIVE),
    q.garch(1, 1): st.tuples(POSITIVE, ARCH, ARCH),
    q.aparch(1.2345678, 1, 1): st.tuples(POSITIVE, ARCH, COEF, ARCH),
    q.ararch(1): st.tuples(COEF, POSITIVE, ARCH),
}


@st.composite
def run_configs(draw):
    dgp = draw(st.sampled_from(list(SPEC_POOL)))
    experiment = q.ExperimentConfig(
        dgp=dgp,
        dgp_theta=draw(SPEC_POOL[dgp]),
        family=tuple(draw(st.lists(st.sampled_from(list(SPEC_POOL)), min_size=1, unique=True))),
        n_values=tuple(draw(st.lists(st.integers(10, 10**6), min_size=1, max_size=4, unique=True))),
        n_reps=draw(st.integers(1, 10**4)),
        criteria=tuple(draw(st.lists(st.sampled_from(cli._KNOWN), min_size=1, unique=True))),
        master_seed=draw(st.integers(0, 2**64)),
        # oracle_n and burn_in away from their defaults, so a key that is not
        # written shows
        oracle_n=draw(st.integers(montecarlo.MIN_ORACLE_N, 10**7)
                      .filter(lambda v: v != montecarlo.DEFAULT_ORACLE_N)),
        burn_in=draw(st.integers(0, 10**4).filter(lambda v: v != cli.DEFAULT_BURN_IN)),
    )
    output_dir = draw(st.sampled_from(["results/demo", "out_100%", "out_%(master_seed)s"]))
    return RunConfig(experiment, output_dir)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(cfg=run_configs())
def test_serialized_configs_parse_back_to_the_same_config(cfg):
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert again.experiment.config_hash() == cfg.experiment.config_hash()


@pytest.mark.parametrize("output_dir", ["out_100%", "out_%(master_seed)s"])
def test_config_values_are_taken_literally(output_dir):
    # no % interpolation: a value reads as it is written
    cfg = parse_config(GOOD_CONFIG.replace("results/demo", output_dir))
    assert cfg.output_dir == output_dir
    assert f"output_dir = {output_dir}\n" in serialize_config(cfg)
    assert parse_config(serialize_config(cfg)) == cfg


#: (mutation of GOOD_CONFIG, message) for config checks no other test reaches
UNREACHED_CONFIG_CHECKS = [
    (lambda t: t.replace("n_values = 200, 500", "n_values = "), "n_values must not be empty"),
    (lambda t: "a line before any section\n" + t, "config not parseable"),
    (lambda t: t.replace("theta = 0.5, 0.6, 1.0\n", ""), "missing keys: [dgp] theta"),
    (lambda t: t.replace("output_dir = results/demo", "output_dir = "),
     "[experiment] output_dir = '': must not be empty"),
]


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
        (lambda t: t.replace("theta = 0.5, 0.6, 1.0", "theta = 0.5, nan, 1.0"), "[0.5, nan, 1.0] infeasible"),
        (lambda t: t.replace("theta = 0.5, 0.6, 1.0", "theta = 0.5, 0.6"),
         "arma(1,1) takes 3 parameters (a1, b1, sigma), got 2"),
        (lambda t: t.replace("n_values = 200, 500", "n_values = 200, 200"), "n_values must not repeat"),
        (lambda t: t.replace("criteria = aic, bic", "criteria = aic, aic"), "criteria must not repeat"),
        (lambda t: t.replace("criteria = aic, bic", "criteria = ,"), "criteria must not be empty"),
        (lambda t: t.replace("master_seed = 11", "master_seed = -5"), "master_seed must be >= 0, got -5"),
        *UNREACHED_CONFIG_CHECKS,
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
    latin = tmp_path / "latin.cfg"  # a file that is not UTF-8 is an unreadable config
    latin.write_bytes(GOOD_CONFIG.replace("results/demo", "r\xe9sultats").encode("latin-1"))
    code, out, err = run_cli(["mc-consistency", "--config", str(latin), "--threads", "1"], capsys)
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith(f"config error: cannot read config {latin}: 'utf-8' codec can't decode")


@pytest.mark.parametrize(
    "argv, mutate, code, needle",
    [
        (["simulate", "--n", "0"], None, EXIT_PARSE, "error: n must be positive"),
        (["simulate", "--n", "10", "--burn-in", "-1"], None, EXIT_PARSE, "error: burn_in must be >= 0"),
        *((["mc-consistency"], mutate, EXIT_CONFIG, f"config error: {needle}")
          for mutate, needle in UNREACHED_CONFIG_CHECKS),
    ],
    ids=["n-zero", "burn-in-negative", "n-values-empty", "unparseable", "theta-missing", "output-dir-empty"],
)
def test_an_invalid_input_exits_with_its_code_and_message(tmp_path, capsys, argv, mutate, code, needle):
    if mutate is None:
        argv = [*argv, "--model", "arma(1,0)", "--theta", "0.5, 1.0", "--seed", "0"]
    else:
        config = tmp_path / "bad.cfg"
        config.write_text(mutate(GOOD_CONFIG))
        argv = [*argv, "--config", str(config), "--threads", "1"]
    got, out, err = run_cli(argv, capsys)
    assert (got, out) == (code, "")
    assert err.startswith(needle)


def test_unknown_criterion_exits_5(tmp_path, capsys):
    # checked once, by ExperimentConfig, as every other bad field is
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CONFIG.replace("criteria = aic, bic", "criteria = aic, aicc"))
    code, out, err = run_cli(["mc-consistency", "--config", str(bad), "--threads", "1"], capsys)
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith("config error: criteria: unknown criterion 'aicc'")


def test_non_finite_dgp_theta_exits_5(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CONFIG.replace("theta = 0.5, 0.6, 1.0", "theta = 0.5, 0.6, nan"))
    code, _, err = run_cli(["mc-consistency", "--config", str(bad), "--threads", "1"], capsys)
    assert code == EXIT_CONFIG
    assert "infeasible" in err


def test_negative_burn_in_exits_5(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CONFIG.replace("master_seed = 11", "master_seed = 11\nburn_in = -5"))
    code, _, err = run_cli(["mc-consistency", "--config", str(bad), "--threads", "1"], capsys)
    assert code == EXIT_CONFIG
    assert "burn_in" in err


def test_negative_master_seed_exits_5_before_any_output(tmp_path, capsys):
    cases = [
        ("mc-consistency", "master_seed = 11", "master_seed = -5", "master_seed"),
        # refused by the efficiency driver itself, not by ExperimentConfig
        ("mc-efficiency", "wn + arma(0..1,0..1)", "wn + arma(1,0)", "dgp spec inside the family"),
    ]
    for command, old, new, needle in cases:
        bad = tmp_path / "bad.cfg"
        out_dir = tmp_path / "out" / "nested"
        bad.write_text(GOOD_CONFIG.replace(old, new))
        code, _, err = run_cli(
            [command, "--config", str(bad), "--threads", "1", "--out-dir", str(out_dir)], capsys
        )
        assert code == EXIT_CONFIG
        assert needle in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    cfg_path = tmp_path / "demo.cfg"
    cfg_path.write_text(GOOD_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(["mc-consistency", "--config", str(cfg_path), "--threads", threads,
              "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == EXIT_PARSE
    assert f"argument --threads: must be >= 1, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "select", "mc-consistency"])
def test_an_unwritable_output_path_exits_2(command, ar2_csv, tmp_path, capsys, monkeypatch):
    # the path is checked before the work: nothing is fitted or printed
    fitted = []
    for module in (q.criteria, montecarlo):  # each imported fit_family by name
        monkeypatch.setattr(module, "fit_family", lambda *args: fitted.append(args))
    cfg_path = tmp_path / "demo.cfg"
    cfg_path.write_text(GOOD_CONFIG)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"  # nothing can be made below a regular file
    argv = {
        "simulate": ["simulate", "--model", "wn", "--theta", "1", "--n", "10", "--seed", "0",
                     "--out", str(out)],
        "select": ["select", "--data", ar2_csv, "--family", "wn", "--criterion", "bic",
                   "--out", str(out)],
        "mc-consistency": ["mc-consistency", "--config", str(cfg_path), "--threads", "1",
                           "--out-dir", str(out)],
    }[command]
    code, stdout, err = run_cli(argv, capsys)
    assert code == EXIT_PARSE
    assert err.startswith("error: ") and str(out) in err
    assert stdout == "" and fitted == []


def test_an_output_path_check_leaves_no_file(tmp_path, capsys, monkeypatch):
    # the check before the work makes no file a failed run would leave behind
    def diverged(*args):
        raise q.OptimizerDiverged("boom")

    monkeypatch.setattr(cli, "select", diverged)
    data, out = tmp_path / "tiny.csv", tmp_path / "table.csv"
    q.simulate(q.wn(), [1.0], 30, seed=1).to_csv(data)
    argv = ["select", "--data", str(data), "--family", "arma(3,3)", "--criterion", "aic",
            "--out", str(out)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 1
    assert not out.exists()
    # and an existing file is written only by the work itself
    out.write_text("kept\n")
    assert run_cli(argv, capsys)[0] == 1
    assert out.read_text() == "kept\n"


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


@pytest.mark.parametrize(
    "path,digest",
    [
        ("configs/arma11_desk.cfg", "ade01c2f8264665cbf07a08f00cc4244044b3b055c59e36b595e727b203cde26"),
        ("configs/full_protocol.cfg", "90914ddea3346a54567e6340cf3b8a0deeda130ae829a41b7879f6a4795a29ce"),
        ("configs/garch11_desk.cfg", "e8f4990716a45aee88a0c202a28ae2ac0049e0254a1cd70b3530a3858e7f86b0"),
        (
            "perfbench/configs/aparch_ararch.cfg",
            "04cf00c5da04bff41da9de63f8109b44444aa9ee34b9c07160d53c7001398545",
        ),
    ],
)
def test_shipped_config_hashes_are_pinned(path, digest):
    # the family's model names feed the hash, so a parser change that moves a
    # name or the order of the family shows here
    with open(os.path.join(os.path.dirname(__file__), os.pardir, path)) as fh:
        cfg = parse_config(fh.read())
    assert cfg.experiment.config_hash() == digest


def test_full_protocol_scale():
    with open(os.path.join(CONFIGS_DIR, "full_protocol.cfg")) as fh:
        cfg = parse_config(fh.read())
    assert cfg.experiment.n_reps == 500
    assert cfg.experiment.n_values == (200, 500, 1000, 2000)
    assert len(cfg.experiment.criteria) == 6


# ---------------------------------------------------------------------------
# experiment subcommands (tiny runs)


def test_mc_consistency_end_to_end(tmp_path, capsys, monkeypatch):
    tables = []
    real_run = cli.run_consistency

    def recording_run(*args, **kwargs):
        tables.append(real_run(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(cli, "run_consistency", recording_run)
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
    # failed picks per (n, criterion), read from the 'failed' class
    (table,) = tables
    assert meta["failed"] == {"200": {c: table.count(200, c, "failed") for c in ("aic", "bic")}}


def test_mc_meta_hashes_the_config_bytes_that_were_parsed(tmp_path, capsys, monkeypatch):
    # the config is edited while the run is going: the meta's digest is that
    # of the text the run parsed, not of the file as the run leaves it
    cfg_path = tmp_path / "demo.cfg"
    original = GOOD_CONFIG.replace("n_values = 200, 500", "n_values = 200").encode()
    cfg_path.write_bytes(original)
    real_run = cli.run_consistency

    def editing_run(*args, **kwargs):
        table = real_run(*args, **kwargs)
        cfg_path.write_bytes(original.replace(b"n_reps = 4", b"n_reps = 999"))
        return table

    monkeypatch.setattr(cli, "run_consistency", editing_run)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        ["mc-consistency", "--config", str(cfg_path), "--threads", "1", "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    meta = json.loads((out_dir / "consistency.meta.json").read_text())
    assert meta["config_file_sha256"] == hashlib.sha256(original).hexdigest()


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_config_files_read_any_line_ending(tmp_path, newline):
    path = tmp_path / "demo.cfg"
    path.write_bytes(GOOD_CONFIG.replace("\n", newline).encode())
    assert cli.parse_config_file(str(path)) == parse_config(GOOD_CONFIG)


def test_a_config_with_a_utf8_byte_order_mark_parses_as_the_plain_file(tmp_path):
    # some editors write a BOM; the digest still covers the bytes as read
    path = tmp_path / "bom.cfg"
    data = b"\xef\xbb\xbf# demo\n" + GOOD_CONFIG.encode()
    path.write_bytes(data)
    assert cli._read_config(str(path)) == (parse_config("# demo\n" + GOOD_CONFIG), data)


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
