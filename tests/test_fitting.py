import numpy as np
import pytest
from numpy.testing import assert_allclose

import qmselect as q
from qmselect.fitting import _start_point, projected_grad_norm
from qmselect.models import constraint_set

from conftest import DGP1, DGP2


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
    def broken(spec, x, opts=None):
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


def test_restart_count_zero_still_works(dgp2_series_2000):
    res = q.fit(q.arma(1, 1), dgp2_series_2000.values, q.FitOptions(n_restarts=0))
    assert res.converged


def test_start_point_matches_second_moment():
    x = np.full(50, 3.0)
    assert_allclose(_start_point(q.wn(), constraint_set(q.wn()), x), [3.0])
    v = _start_point(q.garch(1, 1), constraint_set(q.garch(1, 1)), x)
    assert v[0] == pytest.approx(9.0)
    assert_allclose(v[1:], 0.0)
