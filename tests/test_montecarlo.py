import csv
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmselect as q
from qmselect.montecarlo import ORACLE_TAG, _replicate, derive_seed

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
    with pytest.raises(q.ConfigError, match="master_seed must be >= 0, got -5"):
        small_config(master_seed=-5)
    with pytest.raises(q.ConfigError, match="oracle_n must be >= 10000"):
        small_config(oracle_n=9_999)
    with pytest.raises(q.ConfigError, match="n value"):
        small_config(n_values=(5,))
    with pytest.raises(q.ConfigError, match="burn_in"):
        small_config(burn_in=-5)
    with pytest.raises(q.ConfigError, match="family"):
        small_config(family=())
    with pytest.raises(q.ConfigError, match="criteria: unknown criterion 'aicc'"):
        small_config(criteria=("aicc",))
    with pytest.raises(q.ConfigError, match="criteria must not be empty"):
        small_config(criteria=())
    with pytest.raises(q.ConfigError, match="infeasible"):
        small_config(dgp_theta=(1.2, 0.5, 1.0))  # ar budget exceeded
    with pytest.raises(q.ConfigError, match="infeasible"):
        small_config(dgp_theta=(float("nan"), 0.5, 1.0))
    with pytest.raises(q.ConfigError, match="n_values"):
        small_config(n_values=(200, 200))
    with pytest.raises(q.ConfigError, match="criteria"):
        small_config(criteria=("aic", "aic"))
    with pytest.raises(q.ConfigError, match="family must not repeat"):
        small_config(family=(q.arma(1, 1), q.arma(1, 1)))
    # a short theta is named as such, not reported as infeasible
    with pytest.raises(q.ConfigError, match=r"arma\(1,1\) takes 3 parameters \(a1, b1, sigma\), got 2"):
        small_config(dgp_theta=(0.5, 0.6))


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


def test_replication_pool_has_no_more_workers_than_replications(tmp_path, monkeypatch):
    import qmselect.montecarlo as mc

    sizes = []

    class InProcessPool:
        # records the pool size and maps in this process: no worker is started
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", InProcessPool)
    cfg = small_config(
        family=tuple(q.expand_family("wn+arma(0..1,0..1)")),
        n_values=(200, 300),
        n_reps=2,
        criteria=("aic", "bic"),
    )
    serial = q.run_consistency(cfg, threads=1)
    pooled = q.run_consistency(cfg, threads=64)
    assert sizes == [2, 2]  # one pool per n, capped at n_reps
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    serial.to_csv(p1)
    pooled.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    q.run_consistency(small_config(n_reps=1), threads=64)
    assert sizes == [2, 2]  # a single replication runs in this process


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
        q.oracle_risk(q.wn(), [1.0], [(q.wn(), [1.0])], seed=0, oracle_n=100)


def test_oracle_seed_derivation_matches_tag(monkeypatch):
    import qmselect.montecarlo as mc

    seeds = []
    real_simulate = mc.simulate

    def recorder(spec, theta, n, seed, burn_in):
        seeds.append((n, seed))
        return real_simulate(spec, theta, n, seed=seed, burn_in=burn_in)

    monkeypatch.setattr(mc, "simulate", recorder)
    q.run_efficiency(small_config(master_seed=9, n_values=(200, 300), n_reps=1))
    # per n: replication 0's path, then the oracle path keyed by the oracle tag
    assert seeds == [
        step for n in (200, 300)
        for step in ((n, derive_seed(9, n, 0)), (10_000, derive_seed(9, n, ORACLE_TAG)))
    ]


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


# ---------------------------------------------------------------------------
# regression pin: the tables of the three desk setups


ALL_CRITERIA = ("aic", "bic", "hq", "tracepen", "tracepen_cf", "kc", "kcprime")

#: dgp, theta, family, master seed and smallest n of arma11_desk,
#: garch11_desk and the aparch_ararch benchmark workload, with the sha256 of
#: the consistency CSV at 6 replications and every criterion
DESK_SETUPS = {
    "arma11_desk": (
        "arma(1,1)", (0.5, 0.6, 1.0), "arma(0..2,0..2) + garch(1,1)", 20260814, 200,
        "46f07764852ad93bf383ef4b02d865e3e0991f2287d39d9c37e3d17b61b37d09",
    ),
    "garch11_desk": (
        "garch(1,1)", (1.0, 0.35, 0.4), "wn + garch(0..2,0..2) + arma(1,0)", 20260815, 500,
        "c47854ff5fd6b37f59e46fc2cdd386653692a168208b599c3f49be2f97416c42",
    ),
    "aparch_ararch": (
        "aparch(1.5;1,1)", (0.5, 0.1, 0.3, 0.6),
        "wn + garch(1,1) + aparch(1.5;1,0..1) + aparch(2;1,1) + ararch(1..2)", 20260816, 500,
        "f60ad27304675a539741b7d397810baedbeec3e82d643635b1c4031a4e2bb6d2",
    ),
}


@pytest.mark.parametrize("setup", sorted(DESK_SETUPS))
def test_desk_consistency_tables_are_pinned(setup, tmp_path):
    dgp, theta, family, seed, n, digest = DESK_SETUPS[setup]
    cfg = q.ExperimentConfig(
        dgp=q.parse_spec(dgp),
        dgp_theta=theta,
        family=tuple(q.expand_family(family)),
        n_values=(n,),
        n_reps=6,
        criteria=ALL_CRITERIA,
        master_seed=seed,
    )
    path = tmp_path / "consistency.csv"
    q.run_consistency(cfg).to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


#: the sha256 of the efficiency CSV of garch11_desk's setup at n = 500,
#: 4 replications, every criterion and a 10,000-step oracle
EFFICIENCY_CSV_SHA256 = "5f293cf251e142146b9f55fb76462874045ed735c7d02a2349f191a0faea9489"


def test_desk_efficiency_table_is_pinned(tmp_path):
    dgp, theta, family, seed, n, _ = DESK_SETUPS["garch11_desk"]
    cfg = q.ExperimentConfig(
        dgp=q.parse_spec(dgp),
        dgp_theta=theta,
        family=tuple(q.expand_family(family)),
        n_values=(n,),
        n_reps=4,
        criteria=ALL_CRITERIA,
        master_seed=seed,
        oracle_n=10_000,
    )
    path = tmp_path / "efficiency.csv"
    q.run_efficiency(cfg).to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EFFICIENCY_CSV_SHA256


def ararch_config(family):
    return q.ExperimentConfig(
        dgp=q.parse_spec("ararch(1)"),
        dgp_theta=(0.3, 1.0, 0.2),
        family=tuple(q.expand_family(family)),
        n_values=(100, 400),
        n_reps=4,
        criteria=("aic", "bic", "tracepen_cf"),
        master_seed=5,
        oracle_n=10_000,
    )


def test_consistency_text_is_pinned():
    # garch(1,0) is misspecified for ararch(1) data, and the only model
    # tracepen_cf can score
    text = q.run_consistency(ararch_config("garch(1,0) + ararch(1..2)")).to_text()
    assert text == (
        "selection frequencies (%) over 4 replications of ararch(1)\n"
        "     n  criterion           true     overfit     misspec      failed\n"
        "   100  aic                100.0         0.0         0.0         0.0\n"
        "   100  bic                 50.0         0.0        50.0         0.0\n"
        "   100  tracepen_cf          0.0         0.0       100.0         0.0\n"
        "   400  aic                 75.0        25.0         0.0         0.0\n"
        "   400  bic                100.0         0.0         0.0         0.0\n"
        "   400  tracepen_cf          0.0         0.0       100.0         0.0"
    )


def test_efficiency_text_is_pinned():
    # tracepen_cf scores no ararch model, so it fails every replication
    table = q.run_efficiency(ararch_config("ararch(1..2)"))
    assert table.failed[(100, "tracepen_cf")] == table.failed[(400, "tracepen_cf")] == 4
    assert table.to_text() == (
        "held-out selection risk over 4 replications of ararch(1)\n"
        "     n  criterion             ME     loss(sel)    loss(true)\n"
        "   100  aic               0.0000      0.026489      0.026489\n"
        "   100  bic               0.0000      0.026489      0.026489\n"
        "   100  tracepen_cf          nan           nan      0.026489\n"
        "   400  aic               0.4804      0.008344      0.007143\n"
        "   400  bic               0.0000      0.007143      0.007143\n"
        "   400  tracepen_cf          nan           nan      0.007143"
    )


# ---------------------------------------------------------------------------
# replication prefix and per-n independence


def _record_bits(rec):
    """A replication record with every fit as its spec and theta's bytes."""
    def bits(f):
        return None if f is None else (f.spec, f.theta.values.tobytes())

    return bits(rec.true_fit), {c: bits(f) for c, f in rec.picks.items()}


PROPERTY_DATA = [(q.arma(1, 1), (0.5, 0.6, 1.0)), (q.garch(1, 1), (1.0, 0.35, 0.4))]
PROPERTY_FAMILY = tuple(q.expand_family("wn + arma(0..1,0..1) + garch(1,1)"))


def property_config(data, **over):
    dgp, theta = data
    return small_config(dgp=dgp, dgp_theta=theta, family=PROPERTY_FAMILY,
                        criteria=("aic", "bic", "kcprime"), **over)


@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(data=st.sampled_from(PROPERTY_DATA), seed=st.integers(0, 2**32), k=st.integers(1, 3),
       n=st.sampled_from([100, 300]))
def test_the_first_k_replications_do_not_depend_on_n_reps(data, seed, k, n):
    # replication r's series is seeded by (master_seed, n, r) alone
    short = _replicate(property_config(data, master_seed=seed, n_reps=k), n, threads=1)
    long = _replicate(property_config(data, master_seed=seed, n_reps=2 * k), n, threads=1)
    assert [_record_bits(rec) for rec in long[:k]] == [_record_bits(rec) for rec in short]


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(data=st.sampled_from(PROPERTY_DATA), seed=st.integers(0, 2**32),
       n_values=st.lists(st.sampled_from([100, 200, 300]), min_size=2, max_size=2, unique=True))
def test_rows_of_one_n_do_not_depend_on_the_other_n_values(data, seed, n_values):
    # each n has its own replication seeds and its own oracle; rows are
    # compared as the CSV writes them, so a NaN figure compares equal
    def rows(table, n):
        return [(tuple(map(repr, table._figures(n, c))), table._failed(n, c)) for c in table.criteria]

    for run in (q.run_consistency, q.run_efficiency):
        both = run(property_config(data, master_seed=seed, n_values=tuple(n_values), n_reps=2))
        for n in n_values:
            alone = run(property_config(data, master_seed=seed, n_values=(n,), n_reps=2))
            assert rows(both, n) == rows(alone, n), (run.__name__, n)
