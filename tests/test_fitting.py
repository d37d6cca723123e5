import numpy as np
import pytest
from numpy.testing import assert_allclose

import qmselect as q
import qmselect.fitting
import qmselect.likelihood
import qmselect.models
from qmselect.fitting import _start_point, _warm_start, projected_grad_norm
from qmselect.models import constraint_set, is_nested
from qmselect.montecarlo import derive_seed

from conftest import DGP1, DGP2, DGP3


def test_wn_fit_is_closed_form():
    x = np.random.default_rng(3).standard_normal(400) * 1.7
    res = q.fit(q.wn(), x)
    assert res.converged
    assert res.theta.values[0] == pytest.approx(np.sqrt(np.mean(x**2)), abs=1e-8)
    assert res.grad_norm <= 1e-6


def test_too_short_series_rejected():
    with pytest.raises(q.TooShortSeries):
        q.fit(q.arma(1, 1), np.ones(20))  # needs 10 * dim = 30


def test_fit_beats_start_point():
    spec, theta = DGP2
    x = q.simulate(spec, theta, 600, seed=21).values
    for s in [q.arma(2, 2), q.garch(1, 1), q.ararch(2)]:
        res = q.fit(s, x)
        cset = constraint_set(s)
        start = _start_point(s, cset, x)
        assert res.gamma_bar_min <= q.gamma_bar(s, start, x) + 1e-12


def test_fit_is_deterministic(dgp2_series_2000):
    x = dgp2_series_2000.values
    a = q.fit(q.arma(1, 1), x)
    b = q.fit(q.arma(1, 1), x)
    assert a.theta.values.tobytes() == b.theta.values.tobytes()
    assert a.gamma_bar_min == b.gamma_bar_min
    assert a.grad_norm == b.grad_norm


def test_fitted_parameters_are_feasible(dgp2_series_2000, dgp3_series_2000):
    pairs = [
        (q.arma(2, 2), dgp2_series_2000),
        (q.garch(2, 2), dgp3_series_2000),
        (q.aparch(2.0, 1, 1), dgp3_series_2000),
        (q.ararch(2), dgp3_series_2000),
    ]
    for spec, traj in pairs:
        res = q.fit(spec, traj.values)
        assert constraint_set(spec).contains(res.theta.values)


def test_converged_implies_small_projected_gradient(dgp2_series_2000, dgp3_series_2000):
    for spec, traj in [(q.arma(1, 1), dgp2_series_2000), (q.garch(1, 1), dgp3_series_2000)]:
        res = q.fit(spec, traj.values)
        assert res.converged
        assert res.grad_norm <= 1e-6
        # reported norm is reproducible from the reported point
        g = q.gradient(spec, res.theta.values, traj.values)
        pg = projected_grad_norm(constraint_set(spec), res.theta.values, g)
        assert pg == pytest.approx(res.grad_norm, rel=1e-9, abs=1e-12)


def test_ar1_estimates_concentrate():
    hits = 0
    for seed in range(20):
        x = q.simulate(q.arma(1, 0), [0.5, 1.0], 10_000, seed=seed).values
        res = q.fit(q.arma(1, 0), x)
        assert res.converged
        if np.max(np.abs(res.theta.values - [0.5, 1.0])) <= 0.03:
            hits += 1
    assert hits >= 19


def test_arma11_estimates_concentrate():
    spec, theta = DGP2
    hits = 0
    for seed in range(100, 120):
        x = q.simulate(spec, theta, 2000, seed=seed).values
        res = q.fit(spec, x)
        assert res.converged
        if np.max(np.abs(res.theta.values - theta)) <= 0.1:
            hits += 1
    assert hits >= 18


def test_nested_models_do_not_fit_worse():
    spec, theta = DGP1
    x = q.simulate(spec, theta, 1500, seed=5).values
    chains = [
        [q.wn(), q.arma(1, 0), q.arma(2, 0), q.arma(2, 1)],
        [q.wn(), q.garch(1, 1), q.garch(2, 1)],
    ]
    for chain in chains:
        values = [q.fit(s, x).gamma_bar_min for s in chain]
        for small, big in zip(values, values[1:]):
            assert big <= small + 1e-6


BUILDERS = ("_arma_residuals", "_garch_variance", "_aparch_power", "_ararch_residuals")


RECURSION_CASES = [
    (q.arma(1, 1), (0.5, 0.6, 1.0)),
    (q.garch(1, 1), (1.0, 0.35, 0.4)),
    (q.aparch(1.5, 1, 1), (0.3, 0.1, 0.3, 0.6)),
    (q.ararch(2), (0.5, 0.4, 0.2, 0.3)),
]


@pytest.mark.parametrize("spec,theta", RECURSION_CASES, ids=[str(s) for s, _ in RECURSION_CASES])
def test_slsqp_builds_one_recursion_per_function_evaluation(monkeypatch, spec, theta):
    # every gradient SLSQP asks for is at the point it has just valued, so
    # the score must come from that evaluation's recursion, not a new one
    x = q.simulate(spec, theta, 600, seed=31).values
    calls = {"inside": False, "builds": 0}
    for name in BUILDERS:
        for module in (qmselect.models, qmselect.likelihood):
            if hasattr(module, name):
                builder = getattr(module, name)

                def counted(*args, builder=builder):
                    calls["builds"] += calls["inside"]
                    return builder(*args)

                monkeypatch.setattr(module, name, counted)
    seen = []
    real_minimize = qmselect.fitting.minimize

    def minimize(*args, **kwargs):
        calls["inside"], calls["builds"] = True, 0
        try:
            res = real_minimize(*args, **kwargs)
        finally:
            calls["inside"] = False
        seen.append((calls["builds"], res.nfev, res.njev))
        return res

    monkeypatch.setattr(qmselect.fitting, "minimize", minimize)
    q.fit(spec, x)
    assert len(seen) == 1  # the zero-init start alone
    q.fit(spec, x, theta)
    assert len(seen) == 3  # one more pass from each of zero-init and warm
    for builds, nfev, njev in seen:
        assert njev >= 1
        assert builds == nfev, (builds, nfev, njev)


@pytest.fixture(scope="module")
def garch_grid():
    spec, theta = DGP3
    x = q.simulate(spec, theta, 2000, seed=derive_seed(7, 2000, 2)).values
    family = q.expand_family("garch(0..2,0..2)")
    return family, x, q.fit_family(family, x)


def test_fit_family_contrast_never_rises_along_nesting(garch_grid):
    # every outer model has the padded inner optimum among its candidates
    family, _, fits = garch_grid
    pairs = 0
    for inner in fits:
        for outer in fits:
            if inner is outer or not is_nested(inner.spec, outer.spec):
                continue
            if not set(inner.spec.param_names()) <= set(outer.spec.param_names()):
                continue
            pairs += 1
            assert outer.gamma_bar_min <= inner.gamma_bar_min + 1e-10, (inner.spec, outer.spec)
    assert pairs == 19  # strict dominance pairs of the 3x3 order grid without wn


def test_fit_family_results_do_not_depend_on_the_callers_order(garch_grid):
    family, x, fits = garch_grid
    backwards = q.fit_family(family[::-1], x)[::-1]
    for a, b in zip(fits, backwards):
        assert a.spec == b.spec
        assert a.theta.values.tobytes() == b.theta.values.tobytes()
        assert a.gamma_bar_min == b.gamma_bar_min


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4(b): SLSQP and the polish stop garch(0,1) at an "
    "interior point that is not stationary",
)
def test_garch01_fit_does_not_stall_in_the_interior():
    # garch(0,1) has no name-compatible nested model, so no warm start helps:
    # the fit stops non-converged near (0.891, 0.796), projected gradient
    # 0.037 and n * gamma_bar 4953.71, where the grid point (0.571, 0.870)
    # already gives 4953.22 (garch_desk_eff at seed 7, driver call 3, rep 1)
    spec, theta = DGP3
    x = q.simulate(spec, theta, 2000, seed=derive_seed(7_000_003, 2000, 1)).values
    res = q.fit(q.garch(0, 1), x)
    assert res.converged
    assert x.size * res.gamma_bar_min <= 4953.3


def test_warm_start_pads_by_parameter_name(dgp2_series_2000, dgp3_series_2000):
    x = dgp3_series_2000.values
    garch = q.fit(q.garch(1, 1), x)
    omega, a1, b1 = garch.theta.values
    aparch = q.aparch(2.0, 1, 1)
    warm = _warm_start(aparch, [garch])
    assert warm.tolist() == [omega, a1, 0.0, b1]
    assert q.gamma_bar(aparch, warm, x) == pytest.approx(garch.gamma_bar_min, rel=1e-12)
    wn = q.fit(q.wn(), dgp2_series_2000.values)
    assert _warm_start(q.arma(1, 1), [wn]).tolist() == [0.0, 0.0, wn.theta.values[0]]
    # ararch names its scale alpha0, not omega: no warm start across that embedding
    assert _warm_start(q.ararch(1), [q.fit(q.garch(1, 0), x)]) is None
    # a failed fit is never a warm start
    failed = q.fit_family([q.garch(1, 1)], x[:25])[0]
    assert _warm_start(q.garch(2, 1), [failed]) is None


@pytest.mark.parametrize(
    "warm",
    [[1.0, 0.3], [1.0, 0.3, 0.4, 0.0], [1.0, -0.1, 0.4], [1.0, 0.6, 0.6]],
    ids=["short", "long", "below-box", "over-budget"],
)
def test_fit_rejects_a_bad_warm_start(dgp3_series_2000, warm):
    with pytest.raises(ValueError) as info:
        q.fit(q.garch(1, 1), dgp3_series_2000.values, warm)
    assert not isinstance(info.value, q.QmselectError)


def test_fit_family_propagates_a_bad_warm_start(monkeypatch, dgp3_series_2000):
    # a warm start outside the set is a programming error, not a failed fit
    monkeypatch.setattr("qmselect.fitting._warm_start", lambda spec, fits: np.full(spec.dim, -1.0))
    with pytest.raises(ValueError, match="warm start"):
        q.fit_family([q.garch(1, 1)], dgp3_series_2000.values)


def test_fit_family_keeps_order_and_flags_failures(dgp2_series_2000):
    specs = q.expand_family("wn+arma(1,1)+garch(1,1)")
    fits = q.fit_family(specs, dgp2_series_2000.values)
    assert [f.spec for f in fits] == specs
    assert all(f.converged for f in fits)
    # a series too short for the larger models yields placeholders, not raises
    short = dgp2_series_2000.values[:25]
    fits = q.fit_family(specs, short)
    assert fits[0].converged  # wn needs only 10 points
    assert not fits[1].converged and "TooShortSeries" in fits[1].error
    assert np.isnan(fits[1].gamma_bar_min)


def test_fit_family_propagates_programming_errors(monkeypatch, dgp2_series_2000):
    def broken(spec, x, warm=None):
        raise TypeError("bug in fit")

    monkeypatch.setattr("qmselect.fitting.fit", broken)
    with pytest.raises(TypeError, match="bug in fit"):
        q.fit_family([q.wn()], dgp2_series_2000.values)


def test_select_propagates_programming_errors(monkeypatch, dgp2_series_2000):
    fits = q.fit_family([q.wn(), q.arma(1, 1)], dgp2_series_2000.values)

    def broken(fit_result, x):
        raise TypeError("bug in info_matrices")

    monkeypatch.setattr("qmselect.criteria.info_matrices", broken)
    with pytest.raises(TypeError, match="bug in info_matrices"):
        q.select_from_fits(fits, dgp2_series_2000.values, q.KC)


def test_start_point_matches_second_moment():
    x = np.full(50, 3.0)
    assert_allclose(_start_point(q.wn(), constraint_set(q.wn()), x), [3.0])
    v = _start_point(q.garch(1, 1), constraint_set(q.garch(1, 1)), x)
    assert v[0] == pytest.approx(9.0)
    assert_allclose(v[1:], 0.0)
