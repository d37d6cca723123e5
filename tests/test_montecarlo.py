import csv
import json
import math

import numpy as np
import pytest

import qmselect as q
from qmselect.montecarlo import ORACLE_TAG, derive_seed

from conftest import DGP1, DGP2


def small_config(**over):
    spec, theta = DGP2
    base = dict(
        dgp=spec,
        dgp_theta=tuple(theta),
        family=(spec,),
        n_values=(200,),
        n_reps=3,
        criteria=("bic",),
        master_seed=42,
        oracle_n=10_000,
    )
    base.update(over)
    return q.ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# seeding and config


def test_derive_seed_deterministic_and_distinct():
    s = derive_seed(7, 200, 0)
    assert s == derive_seed(7, 200, 0)
    seen = {derive_seed(7, n, r) for n in (200, 500) for r in range(50)}
    seen |= {derive_seed(8, 200, r) for r in range(50)}
    assert len(seen) == 150
    assert all(0 <= v < 2**64 for v in seen)
    assert derive_seed(7, 200, ORACLE_TAG) not in seen


def test_config_validation():
    with pytest.raises(q.ConfigError, match="n_reps"):
        small_config(n_reps=0)
    with pytest.raises(q.ConfigError, match="n value"):
        small_config(n_values=(5,))
    with pytest.raises(q.ConfigError, match="family"):
        small_config(family=())
    with pytest.raises(ValueError, match="unknown criterion"):
        small_config(criteria=("aicc",))
    with pytest.raises(q.ConfigError, match="infeasible"):
        small_config(dgp_theta=(1.2, 0.5, 1.0))  # ar budget exceeded


def test_config_hash_tracks_content():
    a = small_config()
    b = small_config()
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != small_config(master_seed=43).config_hash()
    assert len(a.config_hash()) == 64


# ---------------------------------------------------------------------------
# consistency driver


def test_consistency_trivial_family_always_true():
    table = q.run_consistency(small_config(n_reps=4))
    assert table.count(200, "bic", "true_model") == 4
    assert table.pct(200, "bic", "true_model") == 100.0
    assert sum(table.pct(200, "bic", cls) for cls in q.montecarlo.CLASSES) == 100.0


def test_consistency_small_family_mostly_right():
    spec, theta = DGP2
    cfg = small_config(
        family=tuple(q.expand_family("wn+arma(0..1,0..1)")),
        n_values=(500,),
        n_reps=25,
        criteria=("aic", "bic"),
    )
    table = q.run_consistency(cfg)
    for crit in ("aic", "bic"):
        assert table.pct(500, crit, "true_model") >= 60.0
        assert sum(table.pct(500, crit, cls) for cls in q.montecarlo.CLASSES) == pytest.approx(100.0)


def test_consistency_threads_do_not_change_results(tmp_path):
    cfg = small_config(
        family=tuple(q.expand_family("wn+arma(0..1,0..1)")),
        n_values=(200,),
        n_reps=6,
        criteria=("aic", "bic"),
    )
    t1 = q.run_consistency(cfg, threads=1)
    t2 = q.run_consistency(cfg, threads=2)
    assert t1.counts == t2.counts
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t1.to_csv(p1)
    t2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_drivers_fit_exactly_the_configured_specs(monkeypatch):
    import qmselect.montecarlo as mc

    recorded = []
    real_fit_family = mc.fit_family

    def recorder(family, x):
        recorded.append(tuple(family))
        return real_fit_family(family, x)

    monkeypatch.setattr(mc, "fit_family", recorder)
    spec = q.aparch(1.2345678, 1, 1)
    cfg = small_config(dgp=spec, dgp_theta=(0.5, 0.1, 0.3, 0.6), family=(q.wn(), spec), n_reps=1)
    q.run_consistency(cfg)
    assert recorded == [cfg.family]


def test_consistency_csv_schema(tmp_path):
    table = q.run_consistency(small_config(criteria=("aic", "bic")))
    out = tmp_path / "cons.csv"
    table.to_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["dgp"] == "arma(1,1)"
    assert {r["criterion"] for r in rows} == {"aic", "bic"}
    for r in rows:
        total = sum(float(r[k]) for k in ("pct_true", "pct_overfit", "pct_misspec", "pct_failed"))
        assert total == pytest.approx(100.0)
    assert "true" in table.to_text()


# ---------------------------------------------------------------------------
# oracle risk


def test_oracle_risk_wn_closed_form():
    # data ~ wn(1): E gamma(sigma) = 1/sigma^2 + log sigma^2
    pts = [(q.wn(), np.array([1.0])), (q.wn(), np.array([math.sqrt(math.e)]))]
    risks = q.oracle_risk(q.wn(), [1.0], pts, oracle_n=50_000, seed=3)
    assert risks[0] == pytest.approx(1.0, rel=0.02)
    assert risks[1] == pytest.approx(1.0 / math.e + 1.0, rel=0.02)


def test_oracle_risk_minimized_near_truth():
    spec, theta = DGP1
    grid = [np.array([a1, 0.4, 1.0]) for a1 in (0.1, 0.25, 0.4, 0.55, 0.7)]
    risks = q.oracle_risk(spec, theta, [(spec, g) for g in grid], oracle_n=50_000, seed=4)
    assert int(np.argmin(risks)) == 2
    assert risks[2] == pytest.approx(1.0, rel=0.02)  # sigma = 1: E log H = 0


def test_oracle_risk_validates_length():
    with pytest.raises(ValueError, match="oracle_n"):
        q.oracle_risk(q.wn(), [1.0], [(q.wn(), [1.0])], oracle_n=100)


def test_oracle_seed_derivation_matches_tag():
    a = q.oracle_risk(q.wn(), [1.0], [(q.wn(), [1.0])], oracle_n=10_000, master_seed=9, n_tag=200)
    b = q.oracle_risk(
        q.wn(), [1.0], [(q.wn(), [1.0])], oracle_n=10_000, seed=derive_seed(9, 200, ORACLE_TAG)
    )
    assert a[0] == b[0]


# ---------------------------------------------------------------------------
# efficiency driver


def test_efficiency_trivial_family_has_exactly_zero_me(tmp_path):
    cfg = small_config(n_reps=4, criteria=("aic", "bic"))
    table = q.run_efficiency(cfg)
    assert table.me(200, "aic") == 0.0
    assert table.me(200, "bic") == 0.0
    assert table.failed[(200, "aic")] == 0
    out = tmp_path / "eff.csv"
    table.to_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["criterion"] for r in rows] == ["aic", "bic"]
    assert float(rows[0]["me"]) == 0.0
    assert float(rows[0]["mean_loss_selected"]) == float(rows[0]["mean_loss_true"])
    assert "ME" in table.to_text()


def test_efficiency_with_overfit_candidate_runs():
    spec, theta = DGP2
    cfg = small_config(
        family=(spec, q.arma(2, 2)),
        n_values=(300,),
        n_reps=5,
        criteria=("aic", "bic"),
    )
    table = q.run_efficiency(cfg)
    for crit in ("aic", "bic"):
        row = table.rows[(300, crit)]
        assert np.isfinite(row["me"])
        assert row["mean_loss_selected"] >= 0.0  # fitted loss above theta-star risk on average
        assert table.failed[(300, crit)] == 0


def test_efficiency_requires_dgp_in_family():
    with pytest.raises(q.ConfigError, match="family"):
        q.run_efficiency(small_config(family=(q.wn(),)))
    with pytest.raises(q.ConfigError, match="oracle_n"):
        q.run_efficiency(small_config(oracle_n=9_999))


# ---------------------------------------------------------------------------
# metadata


def test_metadata_file(tmp_path):
    cfg = small_config()
    path = tmp_path / "run.meta.json"
    q.write_metadata(path, cfg, table="consistency", threads_used=2)
    meta = json.loads(path.read_text())
    assert meta["master_seed"] == 42
    assert meta["config_hash"] == cfg.config_hash()
    assert meta["version"] == q.__version__
    assert meta["oracle_seed_tag"] == ORACLE_TAG
    assert meta["oracle_shared_per_n"] is True
    assert meta["burn_in"] == 1000
    assert meta["table"] == "consistency"
    assert meta["threads_used"] == 2
