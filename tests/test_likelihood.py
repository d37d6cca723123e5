import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.signal import lfilter

import qmselect as q
import qmselect.likelihood
import qmselect.models
from qmselect.likelihood import _Objective


def fd_gradient(spec, theta, x, h=1e-6):
    """Independent central-difference reference used to check the analytic
    score recursions."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.size)
    for k in range(theta.size):
        hp = h * max(1.0, abs(theta[k]))
        tp, tm = theta.copy(), theta.copy()
        tp[k] += hp
        tm[k] -= hp
        out[k] = (q.gamma_bar(spec, tp, x) - q.gamma_bar(spec, tm, x)) / (2 * hp)
    return out


# ---------------------------------------------------------------------------
# contrast values


def test_wn_zero_series_gives_zero_contrast():
    ev = q.contrast(q.wn(), [1.0], np.zeros(3))
    assert_allclose(ev.per_t, 0.0)
    assert ev.gamma_bar == 0.0


def test_wn_unit_contrast_at_sigma_sq_e():
    # x == 0, sigma^2 = e: gamma_t = 0 + log(e) = 1
    ev = q.contrast(q.wn(), [math.sqrt(math.e)], np.zeros(10))
    assert ev.gamma_bar == pytest.approx(1.0, abs=1e-15)


def test_ar1_contrast_by_hand():
    ev = q.contrast(q.arma(1, 0), [0.5, 1.0], [1.0, 2.0])
    assert_allclose(ev.per_t, [1.0, 2.25])
    assert ev.gamma_bar == pytest.approx(1.625)


def test_loglik_identity_is_exact():
    x = np.random.default_rng(0).standard_normal(137)
    for spec, theta in [
        (q.wn(), [1.3]),
        (q.arma(1, 1), [0.3, -0.2, 0.9]),
        (q.garch(1, 1), [0.5, 0.2, 0.3]),
    ]:
        ev = q.contrast(spec, theta, x)
        assert ev.loglik == -0.5 * x.size * ev.gamma_bar
        assert ev.gamma_bar == float(np.mean(ev.per_t))


# ---------------------------------------------------------------------------
# analytic gradients


def test_wn_sigma_derivative_by_hand():
    # d/ds [c^2/s^2 + 2 log s] = -2 c^2 / s^3 + 2/s
    g = q.gradient(q.wn(), [1.0], np.full(5, 2.0))
    assert g[0] == pytest.approx(-6.0)
    g0 = q.gradient(q.wn(), [1.0], np.full(5, 1.0))
    assert g0[0] == pytest.approx(0.0, abs=1e-15)


def test_ar1_phi_gradient_by_hand():
    g = q.gradient(q.arma(1, 0), [0.0, 1.0], [1.0, 2.0])
    assert g[0] == pytest.approx(-2.0)


def _aparch_point(rng, p, q):
    a = rng.uniform(0.03, 0.3 / p, size=p)
    b = rng.uniform(0.05, 0.85 - a.sum(), size=q) / max(q, 1)
    return np.r_[rng.uniform(0.1, 1.0), a, rng.uniform(-0.5, 0.5, size=p), b]


def _ararch_point(rng, p):
    alpha = rng.uniform(0.03, 0.6 / p, size=p)
    return np.r_[rng.uniform(-0.7, 0.7), rng.uniform(0.2, 2.0), alpha]


def _interior_points(spec, rng, count):
    if spec == q.arma(1, 1):
        for _ in range(count):
            yield np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), rng.uniform(0.5, 2.0)])
    elif spec == q.garch(1, 1):
        for _ in range(count):
            a = rng.uniform(0.05, 0.5)
            yield np.array([rng.uniform(0.1, 2.0), a, rng.uniform(0.05, 0.9 - a)])
    elif spec == q.wn():
        for _ in range(count):
            yield np.array([rng.uniform(0.3, 3.0)])
    elif spec.family is q.Family.APARCH:
        for _ in range(count):
            yield _aparch_point(rng, spec.p, spec.q)
    elif spec.family is q.Family.ARARCH:
        for _ in range(count):
            yield _ararch_point(rng, spec.p)
    else:
        raise AssertionError(spec)


SCORED_SPECS = [
    q.wn(),
    q.arma(1, 1),
    q.garch(1, 1),
    q.aparch(1.5, 1, 1),
    q.aparch(2.0, 1, 1),
    q.aparch(1.5, 2, 1),
    q.ararch(1),
    q.ararch(2),
]


@pytest.mark.parametrize("spec", SCORED_SPECS, ids=str)
def test_analytic_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(101)
    x = q.simulate(spec, next(_interior_points(spec, rng, 1)), 500, seed=55).values
    for theta in _interior_points(spec, rng, 20):
        ga = q.gradient(spec, theta, x)
        gf = fd_gradient(spec, theta, x)
        denom = max(1.0, float(np.max(np.abs(gf))))
        assert np.max(np.abs(ga - gf)) / denom <= 1e-5


def _edge_series(zeros: bool) -> np.ndarray:
    x = np.random.default_rng(1).standard_normal(200)
    if zeros:
        x[::11] = 0.0
    return x


# the branches the interior points miss: (spec, two points, series with exact zeros)
OBJECTIVE_EDGES = [
    # scalar sigma^2 meets the convolve path of the skipped MA filter
    pytest.param(q.arma(2, 0), ([0.5, -0.3, 1.2], [0.1, 0.6, 0.8]), False, id="arma(2,0)"),
    # h_lin under H_FLOOR: the clamp sets h and zeroes the variance ratio
    pytest.param(q.garch(1, 1), ([1e-9, 1e-9, 0.5], [1e-9, 0.0, 0.9]), False,
                 id="garch(1,1)-on-the-floor"),
    # delta < 1 with x_t = 0: the kept power terms next to the finite gamma slope
    pytest.param(q.aparch(0.7, 2, 1), ([0.3, 0.1, 0.05, 0.3, -0.2, 0.5],
                                       [0.6, 0.2, 0.1, -0.4, 0.5, 0.3]), True,
                 id="aparch(0.7;2,1)-exact-zeros"),
    # an explosive MA filter overflows: gamma_bar is inf
    pytest.param(q.arma(1, 1), ([0.5, 60.0, 0.5], [-0.3, -45.0, 1.0]), False,
                 id="arma(1,1)-explosive"),
]


@pytest.mark.parametrize(
    "spec,edge,zeros",
    [pytest.param(s, None, False, id=str(s)) for s in SCORED_SPECS] + OBJECTIVE_EDGES,
)
def test_slsqp_objective_equals_gamma_bar_and_gradient(spec, edge, zeros):
    # the objective fitting hands to SLSQP must be the public contrast and
    # gradient exactly, whether or not its grad reuses the kept recursion
    if edge is None:
        rng = np.random.default_rng(303)
        x = q.simulate(spec, next(_interior_points(spec, rng, 1)), 400, seed=77).values
        points = list(_interior_points(spec, rng, 6))
    else:
        x = _edge_series(zeros)
        points = [np.array(v) for v in edge]
    if edge is not None and spec == q.arma(1, 1):  # the explosive case overflows
        assert all(q.gamma_bar(spec, v, x) == math.inf for v in points)

    def same(got, want):
        # the explosive point's gradient is nan where the overflow meets zero
        return np.array_equal(got, want, equal_nan=True)

    for a, b in zip(points[::2], points[1::2]):
        # the callbacks run in the error state fitting._descend holds
        with np.errstate(over="ignore", invalid="ignore"):
            # value then grad at the same point
            obj = _Objective(spec, x)
            va, ga = obj.value(a), obj.grad(a.copy())
            # grad at a point never valued
            gb_fresh = _Objective(spec, x).grad(b)
            # value(a), value(b), grad(a): the slot holds b
            obj = _Objective(spec, x)
            obj.value(a)
            vb, ga_other, gb = obj.value(b), obj.grad(a), obj.grad(b)
        assert va == q.gamma_bar(spec, a, x)
        assert vb == q.gamma_bar(spec, b, x)
        assert same(ga, q.gradient(spec, a, x))
        assert same(ga_other, q.gradient(spec, a, x))
        assert same(gb_fresh, q.gradient(spec, b, x))
        assert same(gb, q.gradient(spec, b, x))


@pytest.mark.parametrize("spec", SCORED_SPECS, ids=str)
def test_objective_value_at_the_kept_point_builds_nothing(monkeypatch, spec):
    # each pass's end point is valued again after SLSQP returns; that must not rebuild
    rng = np.random.default_rng(404)
    x = q.simulate(spec, next(_interior_points(spec, rng, 1)), 300, seed=78).values
    a = next(_interior_points(spec, rng, 1))
    builds = []
    build = qmselect.likelihood._recursion

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(qmselect.likelihood, "_recursion", counted)
    obj = _Objective(spec, x)
    first = obj.value(a)
    assert obj.value(a.copy()) == first == q.gamma_bar(spec, a, x)
    assert len(builds) == 1


def fd_rows(spec, theta, x, h=1e-6):
    """Central differences of the per-observation contrast, one column per
    parameter."""
    theta = np.asarray(theta, dtype=float)
    cols = np.empty((x.size, theta.size))
    for k in range(theta.size):
        hp = h * max(1.0, abs(theta[k]))
        tp, tm = theta.copy(), theta.copy()
        tp[k] += hp
        tm[k] -= hp
        cols[:, k] = (q.contrast(spec, tp, x).per_t - q.contrast(spec, tm, x).per_t) / (2 * hp)
    return cols


@pytest.mark.parametrize("spec", SCORED_SPECS, ids=str)
def test_grad_per_t_rows_match_finite_differences(spec):
    # info_matrices builds G from the rows themselves, not only their mean
    rng = np.random.default_rng(202)
    x = q.simulate(spec, next(_interior_points(spec, rng, 1)), 300, seed=66).values
    for theta in _interior_points(spec, rng, 3):
        rows = q.grad_per_t(spec, theta, x)
        ref = fd_rows(spec, theta, x)
        assert rows.shape == ref.shape
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(rows - ref)) / scale <= 1e-5


def test_aparch_gamma_score_finite_at_exact_zeros():
    # for delta < 1 the slope (|x| - gamma x)^(delta - 1) is infinite at x = 0,
    # where the power term itself is flat in gamma
    spec, theta = q.aparch(0.5, 1, 1), np.array([0.3, 0.15, 0.3, 0.6])
    x = q.simulate(spec, theta, 400, seed=12).values.copy()
    x[::13] = 0.0
    rows = q.grad_per_t(spec, theta, x)
    assert np.all(np.isfinite(rows))
    gf = fd_gradient(spec, theta, x)
    assert np.max(np.abs(rows.mean(axis=0) - gf)) / max(1.0, float(np.max(np.abs(gf)))) <= 1e-5


@pytest.mark.parametrize("p,q_", [(1, 0), (1, 1), (2, 1)])
def test_aparch_power_two_score_reduces_to_garch(p, q_):
    x = np.random.default_rng(11).standard_normal(300)
    omega, a, b = 0.8, np.full(p, 0.2 / p), np.full(q_, 0.5 / max(q_, 1))
    g = q.grad_per_t(q.garch(p, q_), np.r_[omega, a, b], x)
    full = q.grad_per_t(q.aparch(2.0, p, q_), np.r_[omega, a, np.zeros(p), b], x)
    keep = [0, *range(1, 1 + p), *range(1 + 2 * p, 1 + 2 * p + q_)]
    assert_allclose(full[:, keep], g, rtol=1e-12)


@pytest.mark.parametrize("p", [1, 2])
def test_ararch_score_at_zero_phi_reduces_to_arch(p):
    x = np.random.default_rng(12).standard_normal(300)
    alpha = np.r_[0.7, np.full(p, 0.3 / p)]
    g = q.grad_per_t(q.garch(p, 0), alpha, x)
    full = q.grad_per_t(q.ararch(p), np.r_[0.0, alpha], x)
    assert_allclose(full[:, 1:], g, rtol=1e-12)


@pytest.mark.parametrize(
    "spec,theta",
    [
        (q.arma(2, 0), [0.5, -0.3, 1.2]),
        (q.garch(2, 0), [0.5, 0.2, 0.1]),
        (q.aparch(1.5, 2, 0), [0.3, 0.1, 0.05, 0.3, -0.2]),
    ],
    ids=str,
)
def test_skipped_identity_filters_equal_lfilter(monkeypatch, spec, theta):
    # with no q part the recursion's denominator is [1.0]: the package skips
    # that filter, and must get exactly what scipy's lfilter gives
    v = np.array(theta)
    x = q.simulate(spec, v, 400, seed=5).values
    got_rec = qmselect.models._recursion(spec, v, x)
    got_scores = q.grad_per_t(spec, v, x)
    got_grad = q.gradient(spec, v, x)
    assert got_rec[1].tolist() == [1.0]

    def ar_filter(poly, u):
        return lfilter([1.0], poly, u, axis=-1)

    monkeypatch.setattr(qmselect.models, "_ar_filter", ar_filter)
    monkeypatch.setattr(qmselect.likelihood, "_ar_filter", ar_filter)
    if spec.family is q.Family.ARMA:
        want_rec = (lfilter(np.r_[1.0, -v[:2]], [1.0], x), got_rec[1])
    else:
        want_rec = qmselect.models._recursion(spec, v, x)
    assert np.array_equal(got_rec[0], want_rec[0])
    with np.errstate(over="ignore", invalid="ignore"):
        want_scores = qmselect.likelihood._score_from(spec, v, x, want_rec)
        want_grad = qmselect.likelihood._gradient_from(spec, v, x, want_rec)
    assert np.array_equal(got_scores, want_scores)
    assert np.array_equal(got_grad, want_grad)


def test_grad_per_t_rows_average_to_gradient():
    # the gradient is the rows' mean taken by the backward (adjoint) filter
    # pass; one input per branch of that path
    x = np.random.default_rng(1).standard_normal(200)
    with_zeros = x.copy()
    with_zeros[::11] = 0.0
    floor = np.array([1e-9, 1e-9, 0.5])
    h_lin, _ = qmselect.models._recursion(q.garch(1, 1), floor, x)
    assert (h_lin < qmselect.models.H_FLOOR).any()
    for spec, theta, series in [
        (q.wn(), [1.3], x),
        (q.arma(1, 1), [0.3, -0.2, 0.9], x),
        (q.arma(2, 2), [0.3, 0.2, -0.4, 0.1, 1.1], x),
        (q.arma(2, 0), [0.5, -0.3, 1.2], x),  # identity MA filter, skipped
        (q.garch(1, 1), [0.5, 0.2, 0.3], x),
        (q.garch(0, 2), [0.5, 0.3, 0.2], x),
        (q.garch(2, 2), [0.4, 0.1, 0.15, 0.3, 0.2], x),
        (q.garch(1, 1), floor, x),  # on the H_FLOOR clamp
        (q.aparch(1.5, 1, 0), [0.5, 0.2, 0.1], x),
        (q.aparch(0.7, 2, 1), [0.3, 0.1, 0.05, 0.3, -0.2, 0.5], with_zeros),
        (q.ararch(1), [0.3, 0.5, 0.2], x),
        (q.ararch(2), [0.3, 0.5, 0.2, 0.1], x),
    ]:
        rows = q.grad_per_t(spec, theta, series)
        assert rows.shape == (200, len(theta))
        assert_allclose(rows.mean(axis=0), q.gradient(spec, theta, series), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# hessians


def test_hessian_symmetric_and_psd_at_optimum(dgp2_series_2000, dgp2_fit_2000):
    d = q.derivatives(q.arma(1, 1), dgp2_fit_2000.theta.values, dgp2_series_2000.values)
    asym = np.max(np.abs(d.hessian - d.hessian.T))
    assert asym <= 1e-10 * max(1.0, np.max(np.abs(d.hessian)))
    eigs = np.linalg.eigvalsh(d.hessian)
    assert eigs[0] >= -1e-6 * eigs[-1]


def test_hessian_psd_at_garch_optimum(dgp3_series_2000, dgp3_fit_2000):
    d = q.derivatives(q.garch(1, 1), dgp3_fit_2000.theta.values, dgp3_series_2000.values)
    eigs = np.linalg.eigvalsh(d.hessian)
    assert eigs[0] >= -1e-6 * eigs[-1]


def fd_hessian(spec, theta, x, h=1e-6):
    """Independent central-difference reference of the analytic gradient,
    steps relative to each parameter (absolute at 0), so a parameter near the
    ``H_FLOOR`` clamp is not stepped across it."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty((theta.size, theta.size))
    for k in range(theta.size):
        hk = h * (abs(theta[k]) or 1.0)
        tp, tm = theta.copy(), theta.copy()
        tp[k] += hk
        tm[k] -= hk
        out[:, k] = (q.gradient(spec, tp, x) - q.gradient(spec, tm, x)) / (2 * hk)
    return 0.5 * (out + out.T)


# one case per family and recursion branch, boundary points included
HESSIAN_CASES = [
    pytest.param(q.wn(), [1.3], False, id="wn"),
    pytest.param(q.arma(1, 1), [0.3, -0.2, 0.9], False, id="arma(1,1)"),
    pytest.param(q.arma(2, 2), [0.3, 0.2, -0.4, 0.1, 1.1], False, id="arma(2,2)"),
    # identity MA filter: the convolve path
    pytest.param(q.arma(3, 0), [0.3, 0.2, -0.1, 1.2], False, id="arma(3,0)"),
    pytest.param(q.garch(1, 1), [0.5, 0.2, 0.3], False, id="garch(1,1)"),
    pytest.param(q.garch(0, 2), [0.5, 0.3, 0.2], False, id="garch(0,2)"),
    pytest.param(q.garch(1, 1), [1e-9, 1e-9, 0.5], False, id="garch(1,1)-on-the-floor"),
    pytest.param(q.aparch(1.5, 1, 0), [0.5, 0.2, 0.1], False, id="aparch(1.5;1,0)"),
    pytest.param(q.aparch(0.7, 2, 1), [0.3, 0.1, 0.05, 0.3, -0.2, 0.5], True,
                 id="aparch(0.7;2,1)-zeros"),
    pytest.param(q.ararch(1), [0.3, 0.5, 0.2], False, id="ararch(1)"),
    pytest.param(q.ararch(2), [0.3, 0.5, 0.2, 0.1], False, id="ararch(2)"),
    pytest.param(q.garch(2, 1), [0.4, 0.0, 0.2, 0.5], False, id="garch(2,1)-a1-on-its-bound"),
    # sum |a_i| = 0.98, the budget
    pytest.param(q.arma(3, 0), [0.5, -0.3, 0.18, 1.0], False, id="arma(3,0)-on-the-budget-face"),
]


@pytest.mark.parametrize("spec, theta, zeros", HESSIAN_CASES)
def test_complex_step_hessian_matches_central_differences(spec, theta, zeros):
    # a dropped imaginary part would give a zero column; under the suite's
    # filterwarnings = error it raises ComplexWarning instead
    x = _edge_series(zeros)
    got = q.derivatives(spec, theta, x).hessian
    assert_allclose(got, fd_hessian(spec, theta, x), rtol=1e-7)
    assert np.array_equal(got, got.T)


# ---------------------------------------------------------------------------
# residuals and moment ratio


def test_residuals_for_wn_are_scaled_data():
    x = np.array([1.0, -2.0, 3.0])
    assert_allclose(q.residuals(q.wn(), [2.0], x), x / 2.0)


def test_mu4_alternating_signs_is_one():
    assert q.mu4_hat(np.array([1.0, -1.0, 1.0, -1.0])) == pytest.approx(1.0)


def test_mu4_gaussian_near_three():
    xi = np.random.default_rng(8).standard_normal(100_000)
    assert 2.9 <= q.mu4_hat(xi) <= 3.1


def test_mu4_scale_invariant():
    xi = np.random.default_rng(9).standard_normal(500)
    assert q.mu4_hat(xi) == pytest.approx(q.mu4_hat(10.0 * xi), rel=1e-12)


def test_mu4_rejects_zero_series():
    with pytest.raises(ValueError):
        q.mu4_hat(np.zeros(10))
