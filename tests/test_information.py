import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve

import qmselect as q
import qmselect.information
from qmselect.fitting import _FAILURES


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
# log det and the trace penalty from -f_hat's eigendecomposition


def _info_from(monkeypatch, neg_f, g_hat, n, scores=None):
    """info_matrices on a converged fit whose derivatives give ``-f_hat =
    neg_f`` and ``scores``, by default n score rows whose mean outer product
    over 4 is ``g_hat``."""
    neg_f = np.asarray(neg_f, dtype=float)
    dim = neg_f.shape[0]
    if scores is None:
        scores = np.zeros((n, dim))
        scores[:dim] = np.sqrt(4.0 * n) * np.linalg.cholesky(g_hat).T
    spec = q.arma(dim - 1, 0)
    res = q.FitResult(spec=spec, theta=q.ParamVector(spec, [0.0] * (dim - 1) + [1.0]), gamma_bar_min=1.0,
                      loglik=-0.5 * n, converged=True, n_used=n, grad_norm=0.0, iterations=1)
    monkeypatch.setattr(qmselect.information, "derivatives",
                        lambda spec, theta, x: q.DerivEval(2.0 * neg_f, scores))
    return q.info_matrices(res, np.ones(n))


def test_trace_pen_scalar_case(monkeypatch):
    # f = -2, g = 2: -(2/n) tr(f^-1 g) = 2/n
    assert _info_from(monkeypatch, [[2.0]], [[2.0]], 50).trace_pen == pytest.approx(2.0 / 50)


def test_trace_pen_identity_case(monkeypatch):
    assert _info_from(monkeypatch, np.eye(3), np.eye(3), 10).trace_pen == pytest.approx(0.6)


def test_trace_pen_matches_explicit_inverse(monkeypatch):
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 3))
    neg_f = a @ a.T + 3.0 * np.eye(3)
    b = rng.standard_normal((3, 3))
    g = b @ b.T
    direct = (2.0 / 100) * np.trace(np.linalg.inv(neg_f) @ g)
    assert _info_from(monkeypatch, neg_f, g, 100).trace_pen == pytest.approx(direct, abs=1e-10)


def test_logdet_matches_slogdet_and_permutation_invariant(monkeypatch):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4))
    m = a @ a.T + 2.0 * np.eye(4)
    logdet = _info_from(monkeypatch, m, np.eye(4), 100).logdet_negF
    assert logdet == pytest.approx(np.linalg.slogdet(m)[1], abs=1e-10)
    perm = np.array([2, 0, 3, 1])
    assert _info_from(monkeypatch, m[np.ix_(perm, perm)], np.eye(4), 100).logdet_negF == pytest.approx(
        logdet, abs=1e-10
    )


def test_screen_rejects_singular_and_indefinite(monkeypatch):
    # the screen reads the eigenvalues, so a matrix that is not positive
    # definite is excluded there: no factorization is left to fail
    for neg_f in (np.diag([1.0, 1e-14]), np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]])):
        with pytest.raises(q.SingularF):
            _info_from(monkeypatch, neg_f, np.eye(2), 100)
    _info_from(monkeypatch, np.diag([1.0, 1e-3]), np.eye(2), 100)  # fine


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


def test_info_refuses_a_series_of_another_length():
    # select_from_fits' check: a fit on 300 values returned matrices for the
    # first 200 of them without complaint
    x = q.simulate(q.arma(1, 0), [0.5, 1.0], 300, seed=33).values
    res = q.fit(q.arma(1, 0), x)
    with pytest.raises(ValueError, match=r"arma\(1,0\) was fitted on 300 observations, the series has 200"):
        q.info_matrices(res, x[:200])
    q.info_matrices(res, x)


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


def test_g_hat_is_the_mean_outer_product_of_the_score_rows(dgp3_series_2000, dgp3_fit_2000):
    # the score rows come from the Hessian's complex pass, the rows derivatives returns
    x = dgp3_series_2000.values
    info = q.info_matrices(dgp3_fit_2000, x)
    scores = q.derivatives(dgp3_fit_2000.spec, dgp3_fit_2000.theta.values, x).scores
    assert np.array_equal(info.g_hat, scores.T @ scores / (4.0 * x.size))


# ---------------------------------------------------------------------------
# the eigendecomposition agrees with numpy's determinant and solve


def _assert_matches_slogdet_and_solve(info, n):
    # Both sides are backward stable: each is exact for a matrix within about
    # dim * eps * ||-f_hat|| of -f_hat, which moves each log lam_k, and each
    # term of the trace over lam_k, by about dim * kappa * eps relatively,
    # kappa being -f_hat's condition number.  Over dim terms and two sides the
    # tolerance is 2 * dim^2 * kappa * eps: relative on det(-f_hat) and on
    # the trace, so absolute on log det.
    neg_f = -info.f_hat
    dim = neg_f.shape[0]
    tol = 2.0 * dim**2 * np.linalg.cond(neg_f) * np.finfo(float).eps
    sign, logdet = np.linalg.slogdet(neg_f)
    assert sign == 1.0
    assert abs(info.logdet_negF - logdet) <= tol
    trace = (2.0 / n) * np.trace(np.linalg.solve(neg_f, info.g_hat))
    assert abs(info.trace_pen - trace) <= tol * abs(trace)


INFO_CASES = [
    (q.arma(2, 1), (0.6, -0.3, 0.4, 1.0)),
    (q.garch(1, 1), (1.0, 0.35, 0.4)),
    (q.aparch(1.5, 1, 1), (0.3, 0.1, 0.3, 0.6)),
    (q.ararch(2), (0.5, 0.4, 0.2, 0.3)),
]


@pytest.mark.parametrize("spec,theta", [pytest.param(*case, id="{}-{}".format(*case)) for case in INFO_CASES])
def test_info_matrices_match_slogdet_and_solve(spec, theta):
    x = q.simulate(spec, theta, 800, seed=61).values
    res = q.fit(spec, x)
    assert res.converged
    _assert_matches_slogdet_and_solve(q.info_matrices(res, x), x.size)


def test_info_matrices_match_slogdet_and_solve_near_the_screen(monkeypatch):
    # eigenvalues 1 down to 1e-8, a condition number 100 times below the
    # screen's 1 / RANK_RTOL, in a random basis, with random score rows
    rng = np.random.default_rng(64)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    neg_f = (u * np.geomspace(1.0, 1e-8, 4)) @ u.T
    neg_f = 0.5 * (neg_f + neg_f.T)
    assert 0.5e8 < np.linalg.cond(neg_f) < 2e8
    b = rng.standard_normal((4, 4))
    info = _info_from(monkeypatch, neg_f, b @ b.T, 500)
    _assert_matches_slogdet_and_solve(info, 500)


def _raised(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad", ["nan", "inf", "not positive definite"])
def test_a_bad_matrix_at_the_factorization_raises_what_cho_factor_raises(monkeypatch, bad):
    # cho_factor's error decides a model's fate, and info_matrices' error
    # decides it the same way.  A non-finite -f_hat is a programming error:
    # it raises cho_factor's ValueError, never SingularF or LinAlgError, which
    # would count the model as excluded.  Nothing is bypassed: without the
    # finiteness check NaN eigenvalues would pass the screen, since every
    # comparison with NaN is false.  An indefinite -f_hat, cho_factor's
    # LinAlgError, is excluded by the eigenvalue screen as SingularF.
    neg_f = {"nan": np.array([[2.0, np.nan], [np.nan, 1.0]]),
             "inf": np.array([[2.0, 0.0], [0.0, np.inf]]),
             "not positive definite": np.array([[1.0, 2.0], [2.0, 1.0]])}[bad]
    want = _raised(cho_factor, neg_f, True)
    got = _raised(_info_from, monkeypatch, neg_f, np.eye(2), 100)
    assert issubclass(got[0], _FAILURES) == issubclass(want[0], _FAILURES)
    if bad == "not positive definite":
        assert want[0] is np.linalg.LinAlgError
        assert got[0] is q.SingularF
    else:
        assert want[0] is ValueError
        assert got == want


def test_a_non_finite_g_hat_at_the_solve_raises_what_cho_solve_raises(monkeypatch):
    scores = np.ones((100, 2))
    scores[0, 1] = np.inf
    g_hat = scores.T @ scores / 400.0
    want = _raised(cho_solve, cho_factor(np.eye(2), lower=True), g_hat)
    assert want[0] is ValueError
    assert _raised(_info_from, monkeypatch, np.eye(2), None, 100, scores) == want
