import collections
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.signal import lfilter

import qmselect as q
import qmselect.fitting
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
        assert ev.gamma_bar == float(np.mean(ev.per_t))
        fit = q.fit(spec, x)
        assert fit.loglik == -0.5 * x.size * fit.gamma_bar_min


# ---------------------------------------------------------------------------
# analytic gradients


def test_wn_sigma_derivative_by_hand():
    # d/ds [c^2/s^2 + 2 log s] = -2 c^2 / s^3 + 2/s
    g = q.gradient(q.wn(), [1.0], np.full(5, 2.0))
    assert g[0] == pytest.approx(-6.0)
    g0 = q.gradient(q.wn(), [1.0], np.full(5, 1.0))
    assert g0[0] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("n", [50, 200, 2000])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.3, 2.0])
def test_white_noise_gradient_is_its_closed_form(n, sigma):
    x = np.random.default_rng(n).standard_normal(n) * 1.2
    expected = -2.0 * (x @ x) / n / sigma**3 + 2.0 / sigma
    assert q.gradient(q.wn(), [sigma], x).tolist() == [expected]


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


def test_objective_computes_and_counts_each_value_and_gradient_once_per_point(monkeypatch):
    # scipy's ScalarFunction contract: one held point and its recursion, the
    # value and the gradient each computed and counted on its first request
    spec = q.garch(1, 1)
    x = q.simulate(spec, (1.0, 0.35, 0.4), 300, seed=79).values
    a, b = np.array([1.0, 0.3, 0.4]), np.array([0.9, 0.2, 0.5])
    builds = []
    build = qmselect.likelihood._recursion

    def counted(spec, v, *rest):
        builds.append(v.tolist())
        return build(spec, v, *rest)

    monkeypatch.setattr(qmselect.likelihood, "_recursion", counted)
    obj = _Objective(spec, x)
    counts = []
    for ask, v in [("value", a), ("grad", a), ("value", a.copy()), ("grad", a), ("grad", b),
                   ("value", b), ("value", a), ("grad", b)]:
        getattr(obj, ask)(v)
        counts.append((obj.nfev, obj.njev))
    assert builds == [a.tolist(), b.tolist(), a.tolist(), b.tolist()]
    assert counts == [(1, 0), (1, 1), (1, 1), (1, 1), (1, 2), (2, 2), (3, 2), (3, 3)]
    # the kept gradient is handed out again, not recomputed
    assert obj.grad(b) is obj.grad(b.copy())


def test_the_objective_holds_a_copy_of_its_point():
    # SLSQP writes its point in place: the held recursion keeps the point it
    # was built at, so the gradient asked there after such a write is still
    # the gradient at that point, not at the written one
    spec = q.arma(1, 1)
    x = q.simulate(spec, (0.5, 0.6, 1.0), 300, seed=79).values
    a = np.array([0.5, 0.6, 1.0])
    obj, v = _Objective(spec, x), a.copy()
    obj.value(v)
    v[:] = [0.3, 0.1, 1.1]  # the gradient reads arma's sigma from the point
    with np.errstate(over="ignore", invalid="ignore"):
        assert obj.grad(a).tobytes() == q.gradient(spec, a, x).tobytes()


# (spec, point, the transforms its recursions and gradient read)
TRANSFORM_CASES = [
    (q.arma(1, 1), (0.5, 0.6, 1.0), set()),
    (q.garch(1, 1), (1.0, 0.35, 0.4), {"x2"}),
    (q.aparch(1.5, 1, 1), (0.3, 0.1, 0.3, 0.6), {"x2", "absx", "nonzero"}),
    (q.ararch(2), (0.5, 0.4, 0.2, 0.3), {"lag1"}),
]


@pytest.mark.parametrize("spec,theta,names", TRANSFORM_CASES, ids=[str(c[0]) for c in TRANSFORM_CASES])
def test_a_fit_and_a_derivatives_call_build_each_transform_once(monkeypatch, spec, theta, names):
    # x^2, |x|, the mask x != 0 and x_{t-1} do not move with theta: the fit's
    # objective builds each once for all its points, derivatives once for all
    # its complex steps, and each public contrast or gradient call the fit
    # makes at most once; arma reads none of them
    x = q.simulate(spec, theta, 600, seed=33).values
    objective_builds, public_builds = collections.Counter(), []
    scope = [objective_builds]
    for name, build in list(qmselect.models._TRANSFORMS.items()):

        def counted(series, name=name, build=build):
            scope[-1][name] += 1
            return build(series)

        monkeypatch.setitem(qmselect.models._TRANSFORMS, name, counted)
    for public in ("contrast", "gamma_bar", "gradient"):

        def scoped(*args, fn=getattr(qmselect.fitting, public)):
            public_builds.append(collections.Counter())
            scope.append(public_builds[-1])
            try:
                return fn(*args)
            finally:
                scope.pop()

        monkeypatch.setattr(qmselect.fitting, public, scoped)
    res = q.fit(spec, x)
    assert res.iterations > 0
    assert objective_builds == dict.fromkeys(names, 1)
    assert public_builds and all(set(c) <= names and max(c.values(), default=1) == 1 for c in public_builds)
    objective_builds.clear()
    q.derivatives(spec, res.theta, x)
    assert objective_builds == dict.fromkeys(names, 1)


def _feasible_point(spec, unit):
    """A point of the constraint set from values in [0, 1): the scale entry
    in [0.05, 5), every other entry across its box, then projected onto the
    budgets."""
    cset, lay = q.constraint_set(spec), spec.layout
    scale = lay.sigma if spec.family is q.Family.ARMA else lay.omega
    v = cset.lower + np.asarray(unit[: spec.dim]) * (cset.upper - cset.lower)
    v[scale] = 0.05 + 4.95 * unit[scale.start]
    return cset.project(v)


PROPERTY_SPECS = [q.arma(1, 1), q.garch(1, 1), q.aparch(0.7, 2, 1), q.ararch(2)]


@pytest.mark.parametrize("spec,theta", [c[:2] for c in TRANSFORM_CASES] + [(q.ararch(0), (0.5, 0.4))],
                         ids=[str(c[0]) for c in TRANSFORM_CASES] + ["ararch(0)"])
def test_the_squared_residual_is_read_where_the_recursion_holds_it(spec, theta):
    # ararch(p >= 1) squares its AR(1) residual once per point, as its ARCH
    # input; garch and aparch read the sample's x^2; arma and ararch(0) hold
    # no square, so the contrast squares its residual as an unnamed temporary
    x = q.simulate(q.ararch(1), (0.5, 0.4, 0.3), 300, seed=80).values
    v = np.asarray(theta, dtype=float)
    sample = qmselect.models._Sample(x)
    rec = qmselect.models._recursion(spec, v, sample)
    resid2 = qmselect.likelihood._resid2(rec)
    if spec.family is q.Family.ARARCH and spec.p:
        assert resid2 is rec.inputs[0]
        assert resid2.tobytes() == ((x - rec.f) ** 2).tobytes() == (rec.resid**2).tobytes()
    elif spec.family in (q.Family.GARCH, q.Family.APARCH):
        assert resid2 is sample.x2
    else:
        assert resid2 is None
    with np.errstate(over="ignore", invalid="ignore"):
        obj = _Objective(spec, x)
        assert obj.value(v) == q.gamma_bar(spec, v, x)
        assert obj.grad(v).tobytes() == q.gradient(spec, v, x).tobytes()


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(spec=st.sampled_from(PROPERTY_SPECS),
       unit=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=6, max_size=6))
def test_objective_equals_the_public_functions_at_random_feasible_points(spec, unit):
    # the objective reads the fit's one record of the sample's transforms,
    # the public functions build their own: the bits must not differ, on a
    # series with exact zeros for aparch's mask
    x = _edge_series(zeros=True)
    v = _feasible_point(spec, unit)
    assert q.constraint_set(spec).contains(v)
    obj, fresh = _Objective(spec, x), _Objective(spec, x)
    with np.errstate(over="ignore", invalid="ignore"):
        value, held = obj.value(v), obj.grad(v)
        # the other order: the gradient builds the recursion the value reads
        fresh_grad, fresh_value = fresh.grad(v), fresh.value(v)
    assert value == fresh_value == q.gamma_bar(spec, v, x)
    assert np.array_equal(held, q.gradient(spec, v, x), equal_nan=True)
    assert np.array_equal(fresh_grad, held, equal_nan=True)


@pytest.mark.parametrize("complex_step", [False, True])
def test_level_ratio_of_the_variance_is_the_same_bits_as_of_its_copy(complex_step):
    # garch and ararch pass their variance as their level: one array, clamped
    # and tested once, must give the bytes of two equal arrays, on the floor too
    rng = np.random.default_rng(17)
    h_lin = rng.uniform(0.1, 2.0, 200)
    h_lin[::7] = 1e-9
    h_lin[3] = 0.0
    resid2 = rng.standard_normal(200) ** 2
    if complex_step:
        h_lin = h_lin + 1j * qmselect.likelihood.CS_STEP * rng.standard_normal(200)
    assert (h_lin < qmselect.models.H_FLOOR).sum() > 20
    h = np.maximum(h_lin, qmselect.models.H_FLOOR)
    same = qmselect.likelihood._level_ratio(2.0, resid2, h_lin, h_lin, h)
    copied = qmselect.likelihood._level_ratio(2.0, resid2, h_lin, h_lin.copy(), h)
    assert same.tobytes() == copied.tobytes()
    assert (same[::7] == 0.0).all()


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("spec,theta", [(q.aparch(1.5, 1, 1), [0.3, 0.1, 0.3, 0.6]),
                                        (q.aparch(0.7, 2, 1), [0.3, 0.1, 0.05, 0.3, -0.2, 0.5])], ids=str)
def test_complex_steps_reuse_the_real_input_powers_to_the_bit(spec, theta, zeros):
    # a step that leaves gamma_i real takes the real point's input power: the
    # recursion is the one built without it, field by field
    x = _edge_series(zeros)
    v = np.array(theta)
    sample = qmselect.models._Sample(x)
    real = qmselect.models._recursion(spec, v, sample)
    for k in range(spec.dim):
        vc = v.astype(complex)
        vc[k] += 1j * qmselect.likelihood.CS_STEP
        reused = qmselect.models._recursion(spec, vc, sample, real.inputs)
        fresh = qmselect.models._recursion(spec, vc, qmselect.models._Sample(x))
        gamma = spec.layout.gamma.start
        for i in range(spec.p):
            assert (reused.inputs[i] is real.inputs[i]) == (k != gamma + i)
            assert np.asarray(reused.inputs[i], dtype=complex).tobytes() == fresh.inputs[i].tobytes()
        for field in ("h", "level", "poly"):
            assert getattr(reused, field).tobytes() == getattr(fresh, field).tobytes(), (k, field)


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
        rows = q.derivatives(spec, theta, x).scores
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
    rows = q.derivatives(spec, theta, x).scores
    assert np.all(np.isfinite(rows))
    gf = fd_gradient(spec, theta, x)
    assert np.max(np.abs(rows.mean(axis=0) - gf)) / max(1.0, float(np.max(np.abs(gf)))) <= 1e-5


@pytest.mark.parametrize("p,q_", [(1, 0), (1, 1), (2, 1)])
def test_aparch_power_two_score_reduces_to_garch(p, q_):
    x = np.random.default_rng(11).standard_normal(300)
    omega, a, b = 0.8, np.full(p, 0.2 / p), np.full(q_, 0.5 / max(q_, 1))
    g = q.derivatives(q.garch(p, q_), np.r_[omega, a, b], x).scores
    full = q.derivatives(q.aparch(2.0, p, q_), np.r_[omega, a, np.zeros(p), b], x).scores
    keep = [0, *range(1, 1 + p), *range(1 + 2 * p, 1 + 2 * p + q_)]
    assert_allclose(full[:, keep], g, rtol=1e-12)


@pytest.mark.parametrize("p", [1, 2])
def test_ararch_score_at_zero_phi_reduces_to_arch(p):
    x = np.random.default_rng(12).standard_normal(300)
    alpha = np.r_[0.7, np.full(p, 0.3 / p)]
    g = q.derivatives(q.garch(p, 0), alpha, x).scores
    full = q.derivatives(q.ararch(p), np.r_[0.0, alpha], x).scores
    assert_allclose(full[:, 1:], g, rtol=1e-12)


@pytest.mark.parametrize("step", [None, 0, 1], ids=["real", "complex_phi", "complex_omega"])
@pytest.mark.parametrize("p", [1, 2])
def test_ararch_is_garch_p0_on_its_ar1_residual(p, step):
    # ararch(p) feeds its AR(1) residual z to the one ARCH filter and the one
    # gradient block: its variance and its omega and a entries are exactly
    # garch(p, 0)'s on z, on a real point and on a complex-step one
    x = np.random.default_rng(13).standard_normal(300)
    v = np.r_[0.4, 0.6, np.full(p, 0.3 / p)]
    if step is not None:
        v = v.astype(complex)
        v[step] += 1j * qmselect.likelihood.CS_STEP
    z = x - v[0] * np.r_[0.0, x[:-1]]
    rec = qmselect.models._recursion(q.ararch(p), v, qmselect.models._Sample(x))
    arch = qmselect.models._recursion(q.garch(p, 0), v[1:], qmselect.models._Sample(z))
    assert np.array_equal(rec.resid, z)
    assert np.array_equal(rec.h, arch.h)
    g = qmselect.likelihood._gradient_from(rec)
    g_arch = qmselect.likelihood._gradient_from(arch)
    assert np.array_equal(g[1:], g_arch)


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
    sample = qmselect.models._Sample(x)
    got_rec = qmselect.models._recursion(spec, v, sample)
    got_scores = q.derivatives(spec, v, x).scores
    got_grad = q.gradient(spec, v, x)
    assert got_rec.poly.tolist() == [1.0]

    def ar_filter(poly, u):
        return lfilter([1.0], poly, u, axis=-1)

    recursion = qmselect.models._recursion

    def lfilter_recursion(spec, v, sample, *rest):
        rec = recursion(spec, v, sample, *rest)
        if spec.family is q.Family.ARMA:  # the residuals skip _ar_filter
            eps = lfilter(np.r_[1.0, -v[: spec.p]], [1.0], sample.x)
            rec = dataclasses.replace(rec, f=sample.x - eps, resid=eps, level=eps)
        return rec

    monkeypatch.setattr(qmselect.models, "_ar_filter", ar_filter)
    monkeypatch.setattr(qmselect.likelihood, "_ar_filter", ar_filter)
    monkeypatch.setattr(qmselect.likelihood, "_recursion", lfilter_recursion)
    assert np.array_equal(got_rec.level, lfilter_recursion(spec, v, sample).level)
    # the scores and the gradient, on the real and the complex recursions
    assert np.array_equal(got_scores, q.derivatives(spec, v, x).scores)
    assert np.array_equal(got_grad, q.gradient(spec, v, x))


@pytest.mark.parametrize(
    "spec,theta",
    [
        (q.arma(1, 1), [0.5, 0.6, 1.0]),
        (q.garch(1, 1), [0.3, 0.2, 0.5]),
        (q.aparch(1.5, 1, 1), [0.3, 0.1, 0.3, 0.6]),
        (q.ararch(2), [0.5, 0.4, 0.2, 0.3]),
    ],
    ids=str,
)
def test_filter_helper_equals_lfilter_through_fits_and_derivatives(monkeypatch, spec, theta):
    # every filter goes through models._lfilter, which calls scipy's C core
    # directly on a pinned scipy: with lfilter in its place, the path, the
    # fit, the gradient and the complex-step derivatives are bit-identical
    def outputs():
        x = q.simulate(spec, theta, 400, seed=12).values
        res = q.fit(spec, x)
        deriv = q.derivatives(spec, res.theta, x)
        return (x, res.theta.values, res.gamma_bar_min, res.grad_norm, res.iterations,
                q.gradient(spec, theta, x), deriv.hessian, deriv.scores)

    got = outputs()
    monkeypatch.setattr(qmselect.models, "_lfilter", lambda b, a, x: lfilter(b, a, x, axis=-1))
    for g, w in zip(got, outputs()):
        assert np.array_equal(g, w)


def test_grad_per_t_rows_average_to_gradient():
    # the rows are complex steps of the moments, the gradient is each
    # family's hand-derived mean score (the backward filter pass for arma,
    # garch and aparch, closed forms for wn and ararch); one input per branch
    x = np.random.default_rng(1).standard_normal(200)
    with_zeros = x.copy()
    with_zeros[::11] = 0.0
    floor = np.array([1e-9, 1e-9, 0.5])
    h_lin = qmselect.models._recursion(q.garch(1, 1), floor, qmselect.models._Sample(x)).level
    assert (h_lin < qmselect.models.H_FLOOR).any()
    arch_floor = np.array([0.3, 1e-9, 1e-9])
    h_lin = qmselect.models._recursion(q.ararch(1), arch_floor, qmselect.models._Sample(x)).level
    assert (h_lin < qmselect.models.H_FLOOR).any() and (h_lin > qmselect.models.H_FLOOR).any()
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
        (q.ararch(1), arch_floor, x),  # on the H_FLOOR clamp
    ]:
        rows = q.derivatives(spec, theta, series).scores
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


@pytest.mark.parametrize("spec, theta, zeros", HESSIAN_CASES)
def test_complex_step_scores_match_central_differences(spec, theta, zeros):
    # the rows are the complex step of the moments through the contrast;
    # the oracle differences the per-observation contrast itself, with the
    # steps of fd_hessian
    x = _edge_series(zeros)
    theta = np.asarray(theta, dtype=float)
    ref = np.empty((x.size, theta.size))
    for k in range(theta.size):
        hk = 1e-6 * (abs(theta[k]) or 1.0)
        tp, tm = theta.copy(), theta.copy()
        tp[k] += hk
        tm[k] -= hk
        ref[:, k] = (q.contrast(spec, tp, x).per_t - q.contrast(spec, tm, x).per_t) / (2 * hk)
    # an entry near 0 carries the differences' rounding error, ~1e-10 of the
    # largest entry: the tolerance is relative to the largest one
    scale = float(np.max(np.abs(ref)))
    assert_allclose(q.derivatives(spec, theta, x).scores, ref, rtol=1e-7, atol=1e-7 * scale)


@pytest.mark.parametrize(
    "spec, theta",
    [
        (q.wn(), [1.3]),
        (q.arma(1, 1), [0.3, -0.2, 0.9]),
        (q.garch(1, 1), [0.5, 0.2, 0.3]),
        (q.aparch(1.5, 1, 1), [0.3, 0.15, 0.3, 0.6]),
        (q.ararch(2), [0.3, 0.5, 0.2, 0.1]),
    ],
    ids=str,
)
def test_hessian_is_the_complex_step_of_the_mean_gradient(spec, theta):
    # building the score rows in the same pass leaves the Hessian as it was
    x = _edge_series(False)
    v = np.asarray(theta, dtype=float)
    cols = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(v.size):
            vc = v.astype(complex)
            vc[k] += 1j * qmselect.likelihood.CS_STEP
            rec = qmselect.models._recursion(spec, vc, qmselect.models._Sample(x))
            cols.append(qmselect.likelihood._gradient_from(rec).imag)
    hess = np.column_stack(cols) / qmselect.likelihood.CS_STEP
    assert np.array_equal(q.derivatives(spec, v, x).hessian, 0.5 * (hess + hess.T))


def _pin_points(spec, rng):
    """Four feasible points of ``spec``: two inside its budgets, one on their
    faces (the coefficients pushed out, then projected), and one with the
    scale entry under its lower bound by the feasibility tolerance and no b
    coefficients, where aparch's ``H_FLOOR`` clamp bites on a tiny series."""
    cs = q.constraint_set(spec)
    lo, hi = cs.lower, np.minimum(cs.upper, 2.0)
    coef = lo <= 0.0  # every entry but sigma or omega
    inside = [cs.project(rng.uniform(lo, hi)) * np.where(coef, 0.8, 1.0) for _ in range(2)]
    u = rng.uniform(lo, hi)
    face = cs.project(u + np.where(coef, np.copysign(2.0, u), 0.0))
    low = cs.project(rng.uniform(lo, hi))
    low[~coef] = lo[~coef] - qmselect.models.FEASIBILITY_TOL
    low[spec.layout.b] = 0.0
    return inside + [face, low]


#: sha256 of the gradient, Hessian and score bytes at the points of
#: _pin_points, the last on the series scaled by 1e-5; aparch(0.7;2,1) pins
#: a power below 1, whose slope has a negative exponent
PINNED_SPECS = [q.wn(), q.arma(1, 1), q.arma(2, 2), q.arma(0, 3), q.garch(2, 1),
                q.aparch(1.5, 1, 1), q.ararch(2), q.aparch(0.7, 2, 1)]
DERIVATIVES_SHA256 = "2faba68443d5395e91f19befed06899d9d707cdcacdea0a7efe16210cc58134b"
#: the same digest where numpy's float64 power is the C library's: only the
#: two aparch specs of a non-integer power move
DERIVATIVES_SHA256_LIBM = "85db655e8b12e9b6b9460df023f8e8b31d2abb57fb5c85b095aa6d710058a433"


def _numpy_power_is_libms() -> bool:
    """Whether numpy's float64 power is ``math.pow``'s, the C library's, on
    1,001 points of ``x ** 1.5``.  numpy built for AVX-512 takes it from its
    SIMD math library on a CPU that has AVX-512, which differs from libm on
    about 5 % of inputs (67 of these); elsewhere numpy calls libm."""
    x = np.linspace(0.01, 4.0, 1001)
    return (x**1.5).tolist() == [math.pow(b, 1.5) for b in x.tolist()]


def test_derivatives_are_pinned_to_the_bit():
    # the fit pins reach these bits only through the few specs they fit; this
    # one holds every family's gradient and both complex steps at full
    # precision.  aparch's fractional powers are numpy's, so the pin is the
    # digest of the power numpy runs here, never either digest
    rng = np.random.default_rng(29)
    x = rng.standard_normal(300)
    digest = hashlib.sha256()
    for spec in PINNED_SPECS:
        for k, v in enumerate(_pin_points(spec, rng)):
            assert q.constraint_set(spec).contains(v)
            xk = x if k < 3 else 1e-5 * x
            if spec.family is q.Family.APARCH and k == 3:
                assert (qmselect.models._recursion(spec, v, qmselect.models._Sample(xk)).h
                        < qmselect.models.H_FLOOR).any()
            d = q.derivatives(spec, v, xk)
            digest.update(q.gradient(spec, v, xk).tobytes() + d.hessian.tobytes() + d.scores.tobytes())
    assert digest.hexdigest() == (DERIVATIVES_SHA256_LIBM if _numpy_power_is_libms() else DERIVATIVES_SHA256)


#: (spec, point, the float64 arrays of n that gamma_bar may hold at once)
ORACLE_PEAKS = [
    (q.garch(1, 1), [0.5, 0.1, 0.8], 3),
    (q.arma(1, 1), [0.5, 0.3, 1.0], 2),
    (q.aparch(1.5, 1, 1), [0.3, 0.1, 0.2, 0.7], 5),
    (q.ararch(2), [0.3, 0.5, 0.2, 0.1], 6),
]


@pytest.mark.parametrize("spec,theta,arrays", ORACLE_PEAKS, ids=[str(c[0]) for c in ORACLE_PEAKS])
def test_the_oracle_contrast_holds_no_more_arrays_than_pinned(spec, theta, arrays):
    # the efficiency experiment values gamma_bar on a 100,000-step series per
    # fit: its peak, counted in arrays of n floats plus 64 kB for the rest,
    # must not grow, as an array of n copies of a constant moment would
    n = 100_000
    x = np.random.default_rng(61).standard_normal(n)
    q.gamma_bar(spec, theta, x)  # what is built once per process, outside the count
    tracemalloc.start()
    try:
        q.gamma_bar(spec, theta, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * n + 64 * 1024, peak / (8 * n)


PUBLIC_SERIES_FUNCTIONS = ("cond_moments", "contrast", "gamma_bar", "gradient", "derivatives", "residuals")


@pytest.mark.parametrize("spec,theta", [c[:2] for c in TRANSFORM_CASES], ids=[str(c[0]) for c in TRANSFORM_CASES])
@pytest.mark.parametrize("name", PUBLIC_SERIES_FUNCTIONS)
def test_a_series_that_is_not_1d_or_is_empty_is_refused(spec, theta, name):
    # fit's message for a 2-D array, and an empty series refused too, where
    # arma failed inside numpy and the ARCH families returned inf and nan
    fn = getattr(q, name)
    x = q.simulate(spec, theta, 40, seed=3).values
    with pytest.raises(ValueError, match=r"the series must be 1-D, got an array of shape \(4, 10\)"):
        fn(spec, theta, x.reshape(4, 10))
    with pytest.raises(ValueError, match="the series is empty"):
        fn(spec, theta, np.empty(0))
    with pytest.raises(ValueError, match="the series is empty"):
        fn(spec, theta, [])
    fn(spec, theta, x[:1])  # one value is a series
    fn(spec, theta, q.Trajectory(x))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(a=st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, math.nan, math.inf, -math.inf]), min_size=3, max_size=3),
       b=st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, math.nan, math.inf, -math.inf]), min_size=3, max_size=3))
def test_the_objective_holds_a_point_as_numpys_equality_does(a, b):
    # a point is held when numpy's == holds it, the reference: -0.0 equals
    # 0.0, and a nan equals nothing, not even the held nan
    a, b = np.array(a), np.array(b)
    builds = []
    obj = _Objective(q.garch(1, 1), _edge_series(zeros=False))
    build = qmselect.likelihood._recursion
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(qmselect.likelihood, "_recursion", lambda *args: builds.append(1) or build(*args))
        obj.value(a)
        obj.value(b)
    assert len(builds) == (1 if (a == b).all() else 2)


# ---------------------------------------------------------------------------
# residuals and moment ratio


def test_residuals_for_wn_are_scaled_data():
    x = np.array([1.0, -2.0, 3.0])
    assert_allclose(q.residuals(q.wn(), [2.0], x), x / 2.0)


def test_derivatives_takes_no_boundary_keyword():
    # check_boundary had no effect and is gone
    with pytest.raises(TypeError):
        q.derivatives(q.wn(), [1.0], np.ones(20), check_boundary=False)


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


def test_mu4_refuses_a_series_that_is_not_1d_or_is_empty():
    # a 3x3 array of ones read 1.0, and an empty series warned of numpy's
    # empty mean before an all-zero error
    with pytest.raises(ValueError, match=r"the series must be 1-D, got an array of shape \(3, 3\)"):
        q.mu4_hat(np.ones((3, 3)))
    with pytest.raises(ValueError, match="the series is empty"):
        q.mu4_hat([])
