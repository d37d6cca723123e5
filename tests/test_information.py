import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve

import qmselect as q
import qmselect.information
from qmselect.information import _logdet_spd, _screen_neg_f, _trace_pen_from


# ---------------------------------------------------------------------------
# closed forms


@pytest.mark.parametrize(
    "family,p,qq,mu4,expected",
    [
        ("wn", 0, 0, 3.0, 2.0),
        ("arma", 1, 1, 3.0, 6.0),
        ("arma", 2, 0, 3.0, 6.0),
        ("garch", 1, 1, 3.0, 6.0),
        ("aparch", 1, 1, 5.0, 16.0),
        ("arma", 0, 0, 9.0, 8.0),
    ],
)
def test_closed_form_trace_values(family, p, qq, mu4, expected):
    spec = q.wn() if family == "wn" else q.ModelSpec(q.Family(family), p, qq)
    cf = q.closed_form_trace(spec, mu4=mu4)
    assert cf.value == pytest.approx(expected)
    assert cf.complete


@pytest.mark.parametrize("mu4", [1.0, 3.0, 9.0])
def test_closed_form_trace_of_wn_is_arma00(mu4):
    assert q.closed_form_trace(q.wn(), mu4=mu4) == q.closed_form_trace(q.arma(0, 0), mu4=mu4)


def test_closed_form_trace_accepts_spec():
    cf = q.closed_form_trace(q.garch(2, 1))
    assert cf.value == pytest.approx(2.0 * 4.0)


def test_ararch_trace_is_flagged_incomplete():
    cf = q.closed_form_trace(q.ararch(1), mu4=3.0)
    assert cf.value == pytest.approx(6.0)
    assert not cf.complete


def test_closed_form_trace_validates_inputs():
    with pytest.raises(ValueError):
        q.closed_form_trace(q.arma(1, 0), mu4=0.5)
    with pytest.raises(ValueError):
        q.closed_form_trace(q.garch(-1, 0))


# ---------------------------------------------------------------------------
# linear algebra helpers


def test_trace_pen_scalar_case():
    # f = -2, g = 2: -(2/n) tr(f^-1 g) = 2/n
    assert _trace_pen_from(cho_factor(np.array([[2.0]])), np.array([[2.0]]), 50) == pytest.approx(2.0 / 50)


def test_trace_pen_identity_case():
    assert _trace_pen_from(cho_factor(np.eye(3)), np.eye(3), 10) == pytest.approx(0.6)


def test_trace_pen_matches_explicit_inverse():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 3))
    neg_f = a @ a.T + 3.0 * np.eye(3)
    b = rng.standard_normal((3, 3))
    g = b @ b.T
    direct = (2.0 / 100) * np.trace(np.linalg.inv(neg_f) @ g)
    assert _trace_pen_from(cho_factor(neg_f), g, 100) == pytest.approx(direct, abs=1e-10)


def test_logdet_matches_slogdet_and_permutation_invariant():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4))
    m = a @ a.T + 2.0 * np.eye(4)
    assert _logdet_spd(cho_factor(m)) == pytest.approx(np.linalg.slogdet(m)[1], abs=1e-10)
    perm = np.array([2, 0, 3, 1])
    assert _logdet_spd(cho_factor(m[np.ix_(perm, perm)])) == pytest.approx(
        _logdet_spd(cho_factor(m)), abs=1e-10
    )


def test_screen_rejects_singular_and_indefinite():
    with pytest.raises(q.SingularF):
        _screen_neg_f(np.diag([1.0, 1e-14]))
    with pytest.raises(q.SingularF):
        _screen_neg_f(np.diag([1.0, -1.0]))
    _screen_neg_f(np.diag([1.0, 1e-3]))  # fine


# ---------------------------------------------------------------------------
# estimates on simulated data


def test_info_requires_converged_fit():
    bad = q.FitResult(
        spec=q.wn(),
        theta=q.ParamVector(q.wn(), [1.0]),
        gamma_bar_min=np.nan,
        loglik=np.nan,
        converged=False,
        n_used=100,
        grad_norm=np.inf,
        iterations=0,
        error="x",
    )
    with pytest.raises(ValueError):
        q.info_matrices(bad, np.zeros(100))


def test_wn_trace_estimate_near_two():
    x = q.simulate(q.wn(), [1.0], 20_000, seed=31).values
    res = q.fit(q.wn(), x)
    info = q.info_matrices(res, x)
    assert info.trace_pen >= 0
    assert x.size * info.trace_pen == pytest.approx(2.0, abs=0.3)
    # for wn the curvature is scalar 2/sigma^2 in the -2F convention:
    # gamma(s) = x^2/s^2 + 2 log s has d2/ds2 = 6 x^2/s^4 - 2/s^2, so at the
    # optimum (s^2 = mean x^2) the Hessian is 4/s^2 and f_hat = -2/s^2.
    assert info.f_hat[0, 0] == pytest.approx(-2.0 / res.theta.values[0] ** 2, rel=1e-3)


def test_garch_trace_estimate_matches_closed_form(dgp3, dgp3_series_2000, dgp3_fit_2000):
    spec, _ = dgp3
    x = dgp3_series_2000.values
    info = q.info_matrices(dgp3_fit_2000, x)
    xi = q.residuals(spec, dgp3_fit_2000.theta.values, x)
    cf = q.closed_form_trace(spec, mu4=q.mu4_hat(xi))
    assert x.size * info.trace_pen == pytest.approx(cf.value, rel=0.25)
    assert np.isfinite(info.logdet_negF)
    assert_allclose(info.g_hat, info.g_hat.T, atol=1e-14)


def test_arma_trace_estimate_matches_closed_form(dgp2, dgp2_series_2000, dgp2_fit_2000):
    spec, _ = dgp2
    x = dgp2_series_2000.values
    info = q.info_matrices(dgp2_fit_2000, x)
    xi = q.residuals(spec, dgp2_fit_2000.theta.values, x)
    cf = q.closed_form_trace(spec, mu4=q.mu4_hat(xi))
    assert x.size * info.trace_pen == pytest.approx(cf.value, rel=0.25)


def test_cho_solve_pipeline_consistent_with_inverse(dgp2_series_2000, dgp2_fit_2000):
    info = q.info_matrices(dgp2_fit_2000, dgp2_series_2000.values)
    neg_f = -info.f_hat
    c = cho_factor(neg_f, lower=True)
    assert_allclose(
        cho_solve(c, info.g_hat), np.linalg.inv(neg_f) @ info.g_hat, atol=1e-10 * np.max(np.abs(info.g_hat))
    )


def test_g_hat_is_the_mean_outer_product_of_the_score_rows(dgp3_series_2000, dgp3_fit_2000):
    # the score rows come from the Hessian's complex pass, the rows derivatives returns
    x = dgp3_series_2000.values
    info = q.info_matrices(dgp3_fit_2000, x)
    scores = q.derivatives(dgp3_fit_2000.spec, dgp3_fit_2000.theta.values, x).scores
    assert np.array_equal(info.g_hat, scores.T @ scores / (4.0 * x.size))


# ---------------------------------------------------------------------------
# the direct LAPACK calls are the scipy wrappers' calls


def _info_by_wrappers(fit_result, x):
    """info_matrices' four outputs computed with cho_factor and cho_solve."""
    n = x.size
    deriv = q.derivatives(fit_result.spec, fit_result.theta.values, x)
    f_hat = -0.5 * deriv.hessian
    chol = cho_factor(-f_hat, lower=True)
    g_hat = deriv.scores.T @ deriv.scores / (4.0 * n)
    logdet = float(2.0 * np.sum(np.log(np.diag(chol[0]))))
    return f_hat, g_hat, logdet, float((2.0 / n) * np.trace(cho_solve(chol, g_hat)))


INFO_BYTES_CASES = [
    (q.arma(2, 1), (0.6, -0.3, 0.4, 1.0)),
    (q.garch(1, 1), (1.0, 0.35, 0.4)),
    (q.aparch(1.5, 1, 1), (0.3, 0.1, 0.3, 0.6)),
    (q.ararch(2), (0.5, 0.4, 0.2, 0.3)),
]


@pytest.mark.parametrize(
    "spec,theta,pinned",
    [pytest.param(spec, theta, True, id=f"{spec}-{theta}") for spec, theta in INFO_BYTES_CASES]
    + [pytest.param(q.garch(1, 1), (1.0, 0.35, 0.4), False, id="garch(1,1)-(1.0, 0.35, 0.4)-get_lapack_funcs")],
)
def test_info_matrices_are_the_bytes_of_cho_factor_and_cho_solve(monkeypatch, spec, theta, pinned):
    calls = []
    if not pinned:
        # without the pinned LAPACK pair, get_lapack_funcs picks each routine
        real = scipy.linalg.get_lapack_funcs
        monkeypatch.setattr(qmselect.information, "_DPOTRF", None)
        monkeypatch.setattr(qmselect.information, "_DPOTRS", None)
        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lambda *args: calls.append(args) or real(*args))
    x = q.simulate(spec, theta, 800, seed=61).values
    res = q.fit(spec, x)
    assert res.converged
    info = q.info_matrices(res, x)
    assert len(calls) == (0 if pinned else 2)
    f_hat, g_hat, logdet, trace = _info_by_wrappers(res, x)
    assert info.f_hat.tobytes() == f_hat.tobytes()
    assert info.g_hat.tobytes() == g_hat.tobytes()
    assert np.float64(info.logdet_negF).tobytes() == np.float64(logdet).tobytes()
    assert np.float64(info.trace_pen).tobytes() == np.float64(trace).tobytes()


def _raised(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad", ["nan", "inf", "not positive definite"])
def test_a_bad_matrix_at_the_factorization_raises_what_cho_factor_raises(monkeypatch, bad):
    # the rank screen is bypassed, so the matrix reaches the factorization
    # as it would if the screen passed it
    neg_f = {"nan": np.array([[2.0, np.nan], [np.nan, 1.0]]),
             "inf": np.array([[2.0, 0.0], [0.0, np.inf]]),
             "not positive definite": np.array([[1.0, 2.0], [2.0, 1.0]])}[bad]
    want = _raised(cho_factor, neg_f, True)
    assert want[0] in (ValueError, np.linalg.LinAlgError)
    spec, x = q.garch(0, 2), np.ones(100)
    res = q.FitResult(spec=spec, theta=q.ParamVector(spec, [1.0, 0.1, 0.1]), gamma_bar_min=1.0,
                      loglik=-50.0, converged=True, n_used=100, grad_norm=0.0, iterations=1)
    monkeypatch.setattr(qmselect.information, "_screen_neg_f", lambda neg_f: None)
    monkeypatch.setattr(qmselect.information, "derivatives",
                        lambda spec, theta, x: q.DerivEval(2.0 * neg_f, np.ones((100, 2))))
    assert _raised(q.info_matrices, res, x) == want


def test_a_non_finite_g_hat_at_the_solve_raises_what_cho_solve_raises():
    chol = cho_factor(np.eye(2), lower=True)
    g_hat = np.array([[1.0, np.inf], [np.inf, 1.0]])
    assert _raised(_trace_pen_from, chol, g_hat, 10) == _raised(cho_solve, chol, g_hat)
