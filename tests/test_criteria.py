import csv
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmselect as q
import qmselect.criteria
from qmselect.criteria import CriterionKind, select_from_fits
from qmselect.models import is_nested


def fake_fit(spec, gamma_bar_min, n=100):
    return q.FitResult(
        spec=spec,
        theta=q.ParamVector(spec, np.zeros(spec.dim) + 0.1),
        gamma_bar_min=gamma_bar_min,
        loglik=-0.5 * n * gamma_bar_min,
        converged=True,
        n_used=n,
        grad_norm=0.0,
        iterations=1,
    )


# ---------------------------------------------------------------------------
# closed-form values


def test_bic_value_by_hand():
    # 100 * 1.5 + 2 * log(100) = 150 + 9.21034037197618...
    rep = q.criterion_value(fake_fit(q.arma(1, 0), 1.5), q.BIC)
    assert rep.value == 159.21034037197618
    assert rep.penalty == 2 * math.log(100)


def test_aic_value_by_hand():
    rep = q.criterion_value(fake_fit(q.wn(), 0.0), q.AIC)
    assert rep.value == 2.0
    assert rep.n_gamma_bar == 0.0


def test_hq_penalty():
    rep = q.criterion_value(fake_fit(q.garch(1, 1), 1.0), q.HQ)
    assert rep.penalty == pytest.approx(3 * math.log(math.log(100)))


def test_tracepen_uses_info_rate():
    info = q.InfoMatrices(-np.eye(2), np.eye(2), 0.0, trace_pen=0.04)
    rep = q.criterion_value(fake_fit(q.arma(1, 0), 1.0), q.TRACE_PEN, info=info)
    assert rep.penalty == pytest.approx(100 * 0.04)


def test_tracepen_cf_needs_complete_family():
    rep = q.criterion_value(fake_fit(q.garch(1, 1), 1.0), q.TRACE_PEN_CF, mu4=3.0)
    assert rep.penalty == pytest.approx(6.0)
    with pytest.raises(q.UnsupportedFamily):
        q.criterion_value(fake_fit(q.ararch(1), 1.0), q.TRACE_PEN_CF, mu4=3.0)


def test_kc_report_is_its_parts_and_their_sum():
    # one flat record, in the CSV's column order, summed left to right
    info = q.InfoMatrices(-np.eye(2), np.eye(2), 0.7, trace_pen=0.04)
    rep = q.criterion_value(fake_fit(q.arma(1, 0), 1.25), q.KC, info=info)
    penalty = 2 * math.log(100)
    assert dataclasses.astuple(rep) == (125.0, penalty, 0.7, 125.0 + penalty + 0.7)
    assert q.criterion_value(fake_fit(q.arma(1, 0), 1.25), q.BIC).logdet_term is None


def test_info_criteria_require_info():
    for kind in (q.TRACE_PEN, q.KC, q.KC_PRIME):
        with pytest.raises(q.MissingInfo):
            q.criterion_value(fake_fit(q.arma(1, 0), 1.0), kind)
    with pytest.raises(q.MissingInfo):
        q.criterion_value(fake_fit(q.arma(1, 0), 1.0), q.TRACE_PEN_CF)


def test_kcprime_minus_bic_identity_fabricated():
    rng = np.random.default_rng(44)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        spec = q.wn() if m == 1 else q.arma(m - 1, 0)
        fit = fake_fit(spec, float(rng.uniform(0.5, 3.0)), n=int(rng.integers(50, 5000)))
        logdet = float(rng.uniform(-4.0, 4.0))
        info = q.InfoMatrices(-np.eye(m), np.eye(m), logdet, 0.01)
        kcp = q.criterion_value(fit, q.KC_PRIME, info=info)
        bic = q.criterion_value(fit, q.BIC)
        expected = -m * math.log(2 * math.pi) + logdet + 2 * math.log(m)
        scale = max(1.0, abs(bic.value))
        assert abs((kcp.value - bic.value) - expected) <= 1e-12 * scale


def test_kcprime_minus_bic_identity_real_fit(dgp2_series_2000, dgp2_fit_2000):
    info = q.info_matrices(dgp2_fit_2000, dgp2_series_2000.values)
    kcp = q.criterion_value(dgp2_fit_2000, q.KC_PRIME, info=info)
    bic = q.criterion_value(dgp2_fit_2000, q.BIC)
    m = dgp2_fit_2000.spec.dim
    expected = -m * math.log(2 * math.pi) + info.logdet_negF + 2 * math.log(m)
    assert (kcp.value - bic.value) == pytest.approx(expected, abs=1e-12 * max(1.0, abs(bic.value)))
    # kc differs from kcprime by exactly the two extra penalty pieces
    kc = q.criterion_value(dgp2_fit_2000, q.KC, info=info)
    assert (kc.value - kcp.value) == pytest.approx(
        m * math.log(2 * math.pi) - 2 * math.log(m), abs=1e-10
    )


# ---------------------------------------------------------------------------
# selection mechanics


def test_tie_breaks_toward_smaller_then_name():
    fits = [
        fake_fit(q.arma(0, 1), 1.0),
        fake_fit(q.arma(2, 0), 0.5),  # larger dim, better fit...
        fake_fit(q.arma(1, 0), 1.0),
    ]
    # custom zero penalty makes arma(0,1) and arma(1,0) tie exactly
    kind = CriterionKind.custom(lambda s: 0.0, name="flat")
    fits[1].gamma_bar_min = 1.0  # now a three-way tie on value
    sel = select_from_fits(fits, np.zeros(100), kind)
    assert sel.chosen == q.arma(0, 1)  # dim 2 ties broken by name: arma(0,1) < arma(1,0)


def test_custom_penalty_monotone_check():
    x = np.zeros(100)
    fits = [fake_fit(q.wn(), 1.0), fake_fit(q.arma(1, 0), 1.0)]
    ok = CriterionKind.custom(lambda s: 0.1 * s.dim)
    select_from_fits(fits, x, ok)
    bad = CriterionKind.custom(lambda s: -0.1 * s.dim)
    with pytest.raises(ValueError, match="monotone"):
        select_from_fits(fits, x, bad)


def test_select_matches_brute_force_and_order_invariant(dgp2_series_2000):
    family = q.expand_family("wn+arma(0..1,0..1)+garch(1,1)")
    x = dgp2_series_2000.values
    fits = q.fit_family(family, x)
    for kind in (q.AIC, q.BIC, q.KC_PRIME):
        sel = select_from_fits(fits, x, kind)
        values = {r.fit.spec.name: r.report.value for r in sel.rows if r.report}
        assert sel.chosen.name == min(values, key=lambda k: values[k])
        rev = select_from_fits(list(reversed(fits)), x, kind)
        assert rev.chosen == sel.chosen
        rev_values = {r.fit.spec.name: r.report.value for r in rev.rows if r.report}
        assert rev_values == values


def test_boundary_optima_compete_in_kcprime(dgp3_series_2000):
    x = dgp3_series_2000.values
    fits = q.fit_family(q.expand_family("garch(0..2,0..2)"), x)
    g12 = next(f for f in fits if f.spec == q.garch(1, 2))
    # b2 reaches its bound 0 exactly at one BLAS thread, to rounding at more
    assert g12.converged and 0.0 <= g12.theta.named()["b2"] < 1e-15
    sel = select_from_fits(fits, x, q.KC_PRIME)
    row = next(r for r in sel.rows if r.fit.spec == q.garch(1, 2))
    assert row.report is not None and row.excluded is None
    assert sel.chosen == q.garch(1, 1)


def test_unconverged_fits_become_excluded_rows():
    fits = [fake_fit(q.wn(), 1.0)]
    bad = fake_fit(q.arma(1, 0), np.nan)
    bad.converged = False
    bad.error = "boom"
    fits.append(bad)
    sel = select_from_fits(fits, np.zeros(100), q.AIC)
    assert sel.chosen == q.wn()
    row = next(r for r in sel.rows if r.fit.spec == q.arma(1, 0))
    assert row.excluded == "boom" and row.report is None


def test_all_models_failed():
    # no candidate scores: the result has no pick, and every row keeps its
    # fit and the reason it was excluded
    bad = fake_fit(q.wn(), np.nan)
    bad.converged = False
    worse = fake_fit(q.arma(1, 0), np.nan)
    worse.converged, worse.error = False, "TooShortSeries: arma(1,0): n = 0 < 20"
    sel = select_from_fits([bad, worse], np.zeros(100), q.AIC)
    assert sel.chosen is None and sel.chosen_row is None
    assert [r.fit for r in sel.rows] == [bad, worse]
    assert [r.excluded for r in sel.rows] == ["not converged", worse.error]
    assert not any(r.chosen or r.report for r in sel.rows)


def test_cached_info_failures_hold_no_traceback(monkeypatch):
    # the cache holds a failure's reason text, so no exception, traceback or
    # frame lives as long as the cache
    def singular(fit, x):
        raise q.SingularF("flat")

    monkeypatch.setattr(qmselect.criteria, "info_matrices", singular)
    cache = {}
    sel = select_from_fits([fake_fit(q.wn(), 1.0)], np.zeros(100), q.KC_PRIME, cache)
    assert sel.chosen is None and sel.rows[0].excluded == "SingularF: flat"
    assert cache == {0: "SingularF: flat"}


def test_tracepen_cf_skips_the_residual_pass_of_a_family_it_cannot_score(monkeypatch):
    fits = [fake_fit(spec, 1.0) for spec in q.expand_family("wn+ararch(0..2)")]
    x = q.simulate(q.ararch(1), [0.3, 1.0, 0.2], 100, seed=5).values
    mu4 = q.mu4_hat(q.residuals(q.wn(), fits[0].theta.values, x))
    real, calls = qmselect.criteria.residuals, []

    def counting(spec, theta, x):
        calls.append(spec)
        return real(spec, theta, x)

    monkeypatch.setattr(qmselect.criteria, "residuals", counting)
    sel = select_from_fits(fits, x, q.TRACE_PEN_CF)
    assert calls == [q.wn()]
    wn_row, *ararch_rows = sel.rows
    assert wn_row.excluded is None
    assert wn_row.report.value == 100 * 1.0 + q.closed_form_trace(q.wn(), mu4=mu4).value
    for k, row in enumerate(ararch_rows):
        assert row.report is None
        assert row.excluded == (
            f"UnsupportedFamily: ararch({k}): closed-form trace is incomplete for this family"
        )


@pytest.mark.parametrize("name", ["kcprime", "tracepen_cf"])
def test_a_custom_kind_named_like_a_builtin_needs_nothing(monkeypatch, name):
    calls = []

    def singular(fit, x):
        calls.append(fit.spec)
        raise q.SingularF("flat")

    monkeypatch.setattr(qmselect.criteria, "info_matrices", singular)
    fits = [fake_fit(q.wn(), 1.0), fake_fit(q.arma(1, 0), 0.9)]
    kind = CriterionKind.custom(lambda s: 0.01 * s.dim, name=name)
    # all-zero residuals leave mu4 undefined, so a mu4 pass would exclude both
    sel = select_from_fits(fits, np.zeros(100), kind)
    assert sel.kind == name and sel.chosen == q.arma(1, 0)
    assert [r.report.value for r in sel.rows] == [
        100 * f.gamma_bar_min + 100 * (0.01 * f.spec.dim) for f in fits
    ]
    assert not kind.needs_info and not kind.needs_mu4
    assert calls == []


def test_missing_info_propagates_out_of_a_sweep(monkeypatch):
    # the sweep hands every kind what its rule needs, so MissingInfo is a bug,
    # never an excluded model
    def missing(fit, kind, info=None, mu4=None):
        raise q.MissingInfo("no info")

    monkeypatch.setattr(qmselect.criteria, "criterion_value", missing)
    fits = [fake_fit(q.wn(), 1.0), fake_fit(q.arma(1, 0), 0.9)]
    with pytest.raises(q.MissingInfo, match="no info"):
        select_from_fits(fits, np.zeros(100), q.AIC)


def test_a_kind_with_an_unknown_name_is_refused_when_built():
    with pytest.raises(ValueError, match="unknown criterion 'aicc'"):
        CriterionKind.named("aicc")


def test_classify():
    truth = q.arma(1, 1)
    assert q.classify(truth, q.arma(1, 1)) == "true_model"
    assert q.classify(truth, q.arma(2, 2)) == "overfit"
    assert q.classify(truth, q.arma(1, 0)) == "misspecified"
    assert q.classify(truth, q.garch(1, 1)) == "misspecified"


def test_named_kinds_and_validation():
    assert CriterionKind.named(" BIC ").name == "bic"
    assert CriterionKind.named(" BIC ") is q.BIC
    with pytest.raises(ValueError, match="unknown criterion"):
        CriterionKind.named("aicc")


def _flat_rate(spec):
    return 0.01 * spec.dim


@pytest.mark.parametrize("name", list(qmselect.criteria._RULES))
def test_a_named_kind_pickles_and_is_found_by_name(name):
    # each penalty is a module-level function, so a kind pickles by reference
    kind = CriterionKind.named(f" {name.upper()} ")
    assert kind is qmselect.criteria._RULES[name] and kind.name == name
    assert pickle.loads(pickle.dumps(kind)) == kind


def test_a_custom_kind_pickles_and_scores_the_same():
    kind = CriterionKind.custom(_flat_rate, name="flat")
    back = pickle.loads(pickle.dumps(kind))
    assert back == kind == CriterionKind.custom(_flat_rate, name="flat")
    fit = fake_fit(q.arma(1, 0), 1.0)
    assert q.criterion_value(fit, back) == q.criterion_value(fit, kind)


def test_selection_csv_schema(tmp_path, dgp2_series_2000):
    sel = q.select(q.expand_family("wn+arma(1,1)"), dgp2_series_2000.values, q.BIC)
    out = tmp_path / "sel.csv"
    sel.to_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["model"] for r in rows] == ["wn", "arma(1,1)"]
    assert sum(r["chosen"] == "true" for r in rows) == 1
    chosen = next(r for r in rows if r["chosen"] == "true")
    # repr round-trip: value column reproduces the float exactly
    assert float(chosen["value"]) == sel.chosen_row.report.value
    assert rows[0]["logdet_term"] == ""  # bic has no logdet part


def test_selection_csv_records_exclusions(tmp_path, monkeypatch, dgp2_series_2000):
    # a model kept out of the criterion says why in the table, not only on stdout
    x = dgp2_series_2000.values
    fits = q.fit_family(q.expand_family("wn+arma(1,1)"), x)
    info_matrices = qmselect.criteria.info_matrices

    def singular_wn(fit, x):
        if fit.spec == q.wn():
            raise q.SingularF("flat")
        return info_matrices(fit, x)

    monkeypatch.setattr(qmselect.criteria, "info_matrices", singular_wn)
    sel = select_from_fits(fits, x, q.KC_PRIME)
    out = tmp_path / "sel.csv"
    sel.to_csv(out)
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = {r["model"]: r for r in reader}
    assert reader.fieldnames[-4:] == ["chosen", "excluded", "grad_norm", "iterations"]
    assert rows["wn"]["excluded"] == "SingularF: flat"
    assert rows["wn"]["value"] == "" and rows["wn"]["chosen"] == "false"
    assert rows["arma(1,1)"]["excluded"] == "" and rows["arma(1,1)"]["chosen"] == "true"
    # every row, excluded or not, carries its fit's certificate exactly
    for f in fits:
        assert float(rows[f.spec.name]["grad_norm"]) == f.grad_norm
        assert int(rows[f.spec.name]["iterations"]) == f.iterations
    assert int(rows["arma(1,1)"]["iterations"]) > 0


# ---------------------------------------------------------------------------
# every family end to end

#: the smallest spec of each family, with a point to simulate it at
SMALLEST = {
    q.Family.ARMA: (q.wn(), [1.0]),
    q.Family.GARCH: (q.garch(1, 0), [1.0, 0.3]),
    q.Family.APARCH: (q.aparch(1.5, 1, 0), [1.0, 0.3, 0.2]),
    q.Family.ARARCH: (q.ararch(0), [0.5, 1.0]),
}


@pytest.mark.parametrize("family", list(q.Family), ids=lambda f: f.value)
def test_smallest_spec_of_every_family_runs_end_to_end(family):
    spec, theta = SMALLEST[family]
    assert spec.family is family
    x = q.simulate(spec, theta, 800, seed=17).values
    fit = q.fit(spec, x)
    assert fit.converged
    info = q.info_matrices(fit, x)
    mu4 = q.mu4_hat(q.residuals(spec, fit.theta.values, x))
    for name in qmselect.criteria._KNOWN:
        kind = CriterionKind.named(name)
        if kind.needs_mu4 and not q.closed_form_trace(spec).complete:
            with pytest.raises(q.UnsupportedFamily):
                q.criterion_value(fit, kind, info, mu4)
            continue
        assert math.isfinite(q.criterion_value(fit, kind, info, mu4).value)


# ---------------------------------------------------------------------------
# irrelevant candidates


IIA_BASE = q.expand_family("wn + arma(0..1,0..1) + garch(0..1,0..1)")
IIA_CRITERIA = ("aic", "bic", "hq", "tracepen", "kc", "kcprime")


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(
    data=st.sampled_from([(q.garch(1, 1), (1.0, 0.1, 0.8)), (q.arma(1, 1), (0.5, 0.6, 1.0))]),
    seed=st.integers(0, 2**16),
    added=st.sampled_from([q.aparch(1.5, 2, 2), q.arma(3, 3), q.garch(3, 3)]),
    at=st.integers(0, len(IIA_BASE)),
)
def test_an_irrelevant_candidate_moves_no_other_fit_and_no_other_pick(data, seed, added, at):
    # a candidate nested in no other one warm-starts none of them, so every
    # other fit stays bit-identical; the argmin then keeps its old pick or
    # takes the new model, and every other row keeps its value or reason
    assert not any(is_nested(added, spec) for spec in IIA_BASE)
    x = q.simulate(*data, 500, seed=seed).values
    family = [*IIA_BASE[:at], added, *IIA_BASE[at:]]
    before, after = q.fit_family(IIA_BASE, x), q.fit_family(family, x)
    others = after[:at] + after[at + 1:]
    for old, new in zip(before, others):
        assert new.spec == old.spec
        assert new.theta.values.tobytes() == old.theta.values.tobytes()
        assert (new.gamma_bar_min, new.converged, new.grad_norm, new.iterations) == (
            old.gamma_bar_min, old.converged, old.grad_norm, old.iterations)
    cache_before, cache_after = {}, {}
    for name in IIA_CRITERIA:
        kind = CriterionKind.named(name)
        old = select_from_fits(before, x, kind, cache_before)
        new = select_from_fits(after, x, kind, cache_after)
        assert new.chosen in (old.chosen, added), name
        for r_old, r_new in zip(old.rows, new.rows[:at] + new.rows[at + 1:]):
            assert (r_new.report, r_new.excluded) == (r_old.report, r_old.excluded), name


@pytest.mark.parametrize("kind", [q.BIC, q.TRACE_PEN_CF, q.KC_PRIME], ids=lambda k: k.name)
@pytest.mark.parametrize("bad", ["nan", "2-D", "truncated"])
def test_select_from_fits_refuses_a_series_the_fits_were_not_made_on(kind, bad):
    # a bad series is a ValueError, as in fit, not a pick, excluded models
    # or info matrices taken on another series
    x = q.simulate(q.arma(1, 0), [0.5, 1.0], 200, seed=1).values
    fits = q.fit_family(q.expand_family("wn + arma(1,0) + garch(1,1)"), x)
    assert select_from_fits(fits, x, kind).chosen is not None
    y = x.copy()
    if bad == "nan":
        y[50], message = np.nan, "not finite at index 50: nan"
    elif bad == "2-D":
        y, message = y.reshape(20, 10), r"must be 1-D, got an array of shape \(20, 10\)"
    else:
        y, message = y[:100], "wn was fitted on 200 observations, the series has 100"
    with pytest.raises(ValueError, match=message):
        select_from_fits(fits, y, kind)
