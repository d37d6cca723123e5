import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qmselect as q
import qmselect.fitting
import qmselect.likelihood
import qmselect.models
from qmselect.fitting import _start_point, _warm_start, projected_grad_norm
from qmselect.models import constraint_set, is_nested
from qmselect.montecarlo import derive_seed

from conftest import DGP1, DGP2, DGP3, SHIPPED_SPECS, budgets, draw_edge_vector, sign_rows

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def test_wn_fit_is_closed_form():
    x = np.random.default_rng(3).standard_normal(400) * 1.7
    res = q.fit(q.wn(), x)
    assert res.converged
    assert res.theta.values[0] == pytest.approx(np.sqrt(np.mean(x**2)), abs=1e-8)
    assert res.grad_norm <= 1e-6


@pytest.mark.parametrize("n", [50, 200, 2000])
def test_wn_fit_is_its_start_with_no_slsqp_pass(monkeypatch, n):
    def no_minimizer(*args, **kwargs):
        raise AssertionError("white noise is fitted in closed form")

    monkeypatch.setattr(qmselect.fitting, "minimize", no_minimizer)
    x = np.random.default_rng(n).standard_normal(n) * 1.3
    cset = constraint_set(q.wn())
    res = q.fit(q.wn(), x, warm=[0.5])
    assert res.theta.values.tolist() == [np.clip(np.sqrt(np.mean(x**2)), cset.lower[0], cset.upper[0])]
    assert res.iterations == 0 and res.converged
    assert res.gamma_bar_min == q.gamma_bar(q.wn(), res.theta.values, x)


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


def test_certificate_is_zero_at_a_budget_kink():
    # a1 sits on the budget and a2 = 0: the normal cone of sum |a_i| <= 0.98
    # there contains (1, s) for every s in [-1, 1], so -g = (1, 0.5) is blocked
    cs = constraint_set(q.arma(2, 0))
    v, g = np.array([0.98, 0.0, 1.0]), np.array([-1.0, -0.5, 0.0])
    assert projected_grad_norm(cs, v, g) <= 1e-15


def test_certificate_sees_a_bound_reached_to_rounding():
    # b1 = 1.5e-9 is 1.5e-9 from its lower bound, so a gradient pushing it
    # down can move it no further than that
    cs = constraint_set(q.garch(1, 1))
    v, g = np.array([1.0, 0.3, 1.5e-9]), np.array([0.0, 0.0, 3.9e-4])
    assert projected_grad_norm(cs, v, g) <= qmselect.fitting.GRAD_TOL


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


def _slsqp_core_or_skip():
    try:
        from scipy.optimize._slsqplib import slsqp
    except ImportError:
        pytest.skip("this scipy has no _slsqplib.slsqp")
    return slsqp


SLSQP_PIN_SPECS = [q.arma(1, 1), q.arma(2, 2), q.arma(3, 1), q.garch(1, 1), q.garch(0, 2),
                   q.aparch(1.5, 1, 1), q.ararch(2)]
#: the large budgets: 64 and 66 sign rows, two long groups of one product
#: each, and a budget indexed by an array, not a slice
SLSQP_LARGE_PIN_SPECS = [q.arma(6, 0), q.arma(1, 6), q.arma(6, 6), q.aparch(1.5, 2, 1)]


def _slsqp_pin_starts(spec, cset, x):
    """The zero-init start, a start on a budget face (every dynamic
    coefficient pushed out, alternating in sign where its box allows, then
    projected) and a fit's certified end point, a KKT point."""
    base = _start_point(spec, cset, x)
    dynamic = cset.upper < 1.0
    push = np.where(cset.lower < 0.0, (-1.0) ** np.arange(spec.dim), 1.0) * 1.5
    face = cset.project(np.where(dynamic, push, base))
    kkt = q.fit(spec, x).theta.values
    return {"zero-init": base, "budget face": face, "kkt": kkt}


def _assert_pass_is_scipys(monkeypatch, spec, x, v):
    """fitting.minimize from ``v`` on the core gives what its fallback,
    scipy.optimize.minimize on the bounds and constraint built from the same
    record, gives, bit for bit, counts and exit mode included, each on a
    fresh objective."""
    core = _slsqp_core_or_skip()
    with np.errstate(over="ignore", invalid="ignore"):
        monkeypatch.setattr(qmselect.fitting, "_SLSQP", None)
        want = qmselect.fitting.minimize(qmselect.likelihood._Objective(spec, x), v)
        monkeypatch.setattr(qmselect.fitting, "_SLSQP", core)
        got = qmselect.fitting.minimize(qmselect.likelihood._Objective(spec, x), v)
    assert got.x.dtype == want.x.dtype and got.x.tobytes() == want.x.tobytes()
    assert (got.fun, got.nit, got.nfev, got.njev, got.status) == \
        (want.fun, want.nit, want.nfev, want.njev, want.status)


def _pin_series(spec, seed):
    dgp, theta = DGP2 if spec.family is q.Family.ARMA else DGP3
    return q.simulate(dgp, theta, 500, seed=seed).values


@pytest.mark.parametrize("spec", SLSQP_PIN_SPECS + SLSQP_LARGE_PIN_SPECS, ids=str)
def test_slsqp_core_pass_is_bit_equal_to_minimize(monkeypatch, spec):
    # the pin behind models._CORE_PINNED_ON for SLSQP: the core, driven by
    # fitting.minimize, takes the iterates scipy.optimize.minimize takes
    x = _pin_series(spec, 41)
    cset = constraint_set(spec)
    starts = _slsqp_pin_starts(spec, cset, x)
    assert not cset.contains(starts["budget face"] * 1.01)  # on the face, not inside
    for name, v in starts.items():
        v0 = v.copy()
        _assert_pass_is_scipys(monkeypatch, spec, x, v)
        assert np.array_equal(v, v0), name  # the start is not written to


def test_slsqp_core_pass_without_budgets_is_bit_equal_to_minimize(monkeypatch):
    # ararch(0), the one spec with no budget: no constraint row (m = 0),
    # a row of zeros for the Jacobian and scipy's workspace top-up
    spec = q.ararch(0)
    x = q.simulate(q.ararch(1), (0.5, 0.4, 0.3), 500, seed=42).values
    problem = qmselect.fitting._problem(spec)
    assert not constraint_set(spec).groups
    assert (problem.m, problem.rows.shape, problem.products) == (0, (0, 2), ())
    assert np.array_equal(problem.jac, np.zeros((1, 2)))
    for v in (_start_point(spec, constraint_set(spec), x), np.array([0.9, 0.9])):
        _assert_pass_is_scipys(monkeypatch, spec, x, v)


@pytest.mark.parametrize("spec", SLSQP_PIN_SPECS, ids=str)
def test_slsqp_core_never_writes_the_gradient_or_the_box(monkeypatch, spec):
    # the core is handed the objective's kept gradient, which the next
    # request and the certificate read again, and the spec's read-only box,
    # which every fit of the spec shares: a write to either would move
    # later iterates, so the bytes must not change across any core call
    core = _slsqp_core_or_skip()
    calls = []

    def spy(state, fx, g, C, d, xk, mult, xl, xu, buffer, indices):
        before = [a.tobytes() for a in (g, xl, xu)]
        core(state, fx, g, C, d, xk, mult, xl, xu, buffer, indices)
        calls.append(before == [a.tobytes() for a in (g, xl, xu)])

    monkeypatch.setattr(qmselect.fitting, "_SLSQP", spy)
    x = _pin_series(spec, 41)
    problem = qmselect.fitting._problem(spec)
    assert not problem.xl.flags.writeable and not problem.xu.flags.writeable
    for v in _slsqp_pin_starts(spec, constraint_set(spec), x).values():
        with np.errstate(over="ignore", invalid="ignore"):
            qmselect.fitting.minimize(qmselect.likelihood._Objective(spec, x), v)
    assert calls and all(calls), calls.count(False)


def test_minimize_answers_each_core_request_once_per_point(monkeypatch):
    # a scripted core asks for values (mode 1) and gradients (mode -1) at a
    # fixed sequence of points, scrambling the constraint vector after each
    # call as a core may; minimize must evaluate a point only when it moves,
    # count only those evaluations, rewrite the budget values on every
    # mode-1 request and hand over the Jacobian -A on every mode -1 (the
    # real core never writes it: test_slsqp_core_never_writes_the_jacobian)
    spec = q.arma(1, 1)
    x = q.simulate(spec, (0.5, 0.6, 1.0), 200, seed=3).values
    problem = qmselect.fitting._problem(spec)
    blocks, _ = _budget_reference(spec)
    start, moved, other = np.array([0.1, 0.2, 0.9]), np.array([0.3, 0.1, 1.1]), np.array([0.2, 0.4, 1.0])
    script = [(1, moved), (-1, moved), (1, moved), (-1, moved), (-1, other), (1, other), (0, other)]
    calls = []

    def core(state, fx, g, C, d, xk, mult, xl, xu, buffer, indices):
        calls.append((state["tol"], state["acc"], fx, g.copy(), C.copy(), d.copy(), xk.copy()))
        mode, point = script[len(calls) - 1]
        d[:] = np.nan
        xk[:] = point
        state["mode"], state["iter"] = mode, len(calls)

    recursions = []
    build = qmselect.likelihood._recursion

    def counted(spec, v, sample, *rest):
        recursions.append(v.copy())
        return build(spec, v, sample, *rest)

    monkeypatch.setattr(qmselect.fitting, "_SLSQP", core)
    monkeypatch.setattr(qmselect.likelihood, "_recursion", counted)
    with np.errstate(over="ignore", invalid="ignore"):
        res = qmselect.fitting.minimize(qmselect.likelihood._Objective(spec, x), start)
    # the start, the moved point's value and the other point's gradient, whose
    # recursion its value then reads
    assert [r.tolist() for r in recursions] == [start.tolist(), moved.tolist(), other.tolist()]
    assert (res.nfev, res.njev, res.nit, res.status) == (3, 3, len(script), 0)
    assert np.array_equal(res.x, other) and res.fun == q.gamma_bar(spec, other, x)
    at = [start] + [point for _, point in script]
    asked = [0] + [mode for mode, _ in script]
    for i, (tol, acc, fx, g, C, d, xk) in enumerate(calls):
        assert tol == 10.0 * acc
        assert np.array_equal(xk, at[i])
        # the value and gradient handed back are those at the point asked
        last_valued = max(j for j in range(i + 1) if asked[j] in (0, 1))
        last_graded = max(j for j in range(i + 1) if asked[j] in (0, -1))
        assert fx == q.gamma_bar(spec, at[last_valued], x)
        assert np.array_equal(g, q.gradient(spec, at[last_graded], x))
        if asked[i] in (0, 1):
            assert np.array_equal(d, np.concatenate([b - a @ xk for a, b in blocks])), i
        if asked[i] in (0, -1):
            assert np.array_equal(C, problem.jac), i


BUILDERS = ("_arma_residuals", "_arch_filter")


RECURSION_CASES = [
    (q.arma(1, 1), (0.5, 0.6, 1.0)),
    (q.garch(1, 1), (1.0, 0.35, 0.4)),
    (q.aparch(1.5, 1, 1), (0.3, 0.1, 0.3, 0.6)),
    (q.ararch(2), (0.5, 0.4, 0.2, 0.3)),
]


@pytest.mark.parametrize("spec,theta", RECURSION_CASES, ids=[str(s) for s, _ in RECURSION_CASES])
def test_slsqp_builds_one_recursion_per_function_evaluation(monkeypatch, spec, theta):
    # every gradient SLSQP asks for is at the point it has just valued, so
    # the score must come from that evaluation's recursion, not a new one; a
    # restarted pass begins at the point the objective already holds
    x = q.simulate(spec, theta, 600, seed=31).values
    cset = constraint_set(spec)
    calls = {"inside": False, "builds": 0}
    for name in BUILDERS:
        modules = [m for m in (qmselect.models, qmselect.likelihood) if hasattr(m, name)]
        assert modules, f"recursion builder {name} exists in neither module"
        for module in modules:
            builder = getattr(module, name)

            def counted(*args, builder=builder):
                calls["builds"] += calls["inside"]
                return builder(*args)

            monkeypatch.setattr(module, name, counted)
    seen = []
    real_minimize = qmselect.fitting.minimize

    def minimize(fun, x0, *args, **kwargs):
        calls["inside"], calls["builds"] = True, 0
        try:
            res = real_minimize(fun, x0, *args, **kwargs)
        finally:
            calls["inside"] = False
        seen.append((x0.copy(), res.x.copy(), calls["builds"], res.nfev, res.njev))
        return res

    monkeypatch.setattr(qmselect.fitting, "minimize", minimize)
    base = _start_point(spec, cset, x)
    for warm, starts in ((None, [base]), (theta, [np.asarray(theta)])):
        seen.clear()
        q.fit(spec, x, warm)
        passes = []  # passes per start
        for i, (x0, _, builds, nfev, njev) in enumerate(seen):
            assert njev >= 1
            restart = i > 0 and np.array_equal(x0, cset.project(seen[i - 1][1]))
            if not restart:
                assert np.array_equal(x0, starts[len(passes)])
                passes.append(0)
            passes[-1] += 1
            assert builds == nfev - restart, (restart, builds, nfev, njev)
        assert len(passes) == len(starts)
        assert all(1 <= k <= qmselect.fitting.MAX_PASSES for k in passes)


def _record_descents(monkeypatch):
    """Patch ``fitting.minimize`` to record each call's ``x0``; a restarted
    pass is recorded too, so the caller keeps only the starts it expects."""
    x0s = []
    real_minimize = qmselect.fitting.minimize

    def minimize(fun, x0, *args, **kwargs):
        x0s.append(np.array(x0, copy=True))
        return real_minimize(fun, x0, *args, **kwargs)

    monkeypatch.setattr(qmselect.fitting, "minimize", minimize)
    return x0s


@pytest.mark.parametrize("spec,theta", RECURSION_CASES, ids=[str(s) for s, _ in RECURSION_CASES])
def test_a_certified_warm_descent_skips_the_zero_init_descent(monkeypatch, spec, theta):
    # the zero-init start is not descended, so it is not valued either: the
    # one gamma_bar call values the warm start
    x = q.simulate(spec, theta, 600, seed=31).values
    base = _start_point(spec, constraint_set(spec), x)
    x0s = _record_descents(monkeypatch)
    valued = []
    real_gamma_bar = qmselect.fitting.gamma_bar

    def gamma_bar(spec, v, x):
        valued.append(np.array(v, copy=True))
        return real_gamma_bar(spec, v, x)

    monkeypatch.setattr(qmselect.fitting, "gamma_bar", gamma_bar)
    res = q.fit(spec, x, theta)
    assert res.converged
    assert np.array_equal(x0s[0], theta)
    assert not any(np.array_equal(x0, base) for x0 in x0s)
    assert len(valued) == 1 and np.array_equal(valued[0], theta)


@pytest.mark.parametrize("spec,theta", RECURSION_CASES, ids=[str(s) for s, _ in RECURSION_CASES])
def test_a_warm_start_at_the_optimum_certifies_without_moving(monkeypatch, spec, theta):
    # SLSQP cannot lower the contrast from the optimum itself, so the descent
    # ends where it began; that start is tested there and certifies
    x = q.simulate(spec, theta, 600, seed=31).values
    optimum = q.fit(spec, x).theta.values
    x0s = _record_descents(monkeypatch)
    res = q.fit(spec, x, optimum)
    assert len(x0s) == 1 and np.array_equal(x0s[0], optimum)
    assert res.converged and np.array_equal(res.theta.values, optimum)


@pytest.mark.parametrize("spec,theta", RECURSION_CASES, ids=[str(s) for s, _ in RECURSION_CASES])
def test_a_warm_refit_at_a_certified_optimum_is_one_descent_of_one_pass(monkeypatch, spec, theta):
    # the bootstrap's path: each resample is refitted warm from the fit it
    # perturbs; at a certified optimum that is one descent of one SLSQP pass,
    # and the refit is the fit, to the bit
    x = q.simulate(spec, theta, 600, seed=32).values
    first = q.fit(spec, x)
    assert first.converged
    descents, passes = [], []
    real_descend, real_minimize = qmselect.fitting._descend, qmselect.fitting.minimize

    def descend(objective, cset, v, fv):
        descents.append(v.copy())
        return real_descend(objective, cset, v, fv)

    def minimize(objective, v):
        passes.append(v.copy())
        return real_minimize(objective, v)

    monkeypatch.setattr(qmselect.fitting, "_descend", descend)
    monkeypatch.setattr(qmselect.fitting, "minimize", minimize)
    refit = q.fit(spec, x, first.theta)
    assert len(descents) == len(passes) == 1
    assert descents[0].tobytes() == passes[0].tobytes() == first.theta.values.tobytes()
    assert refit.theta.values.tobytes() == first.theta.values.tobytes()
    assert (refit.gamma_bar_min, refit.grad_norm, refit.converged) == \
        (first.gamma_bar_min, first.grad_norm, True)


@pytest.mark.parametrize("spec,theta", RECURSION_CASES, ids=[str(s) for s, _ in RECURSION_CASES])
def test_an_uncertified_warm_descent_is_followed_by_the_zero_init_one(monkeypatch, spec, theta):
    # with a zero tolerance no end point certifies, so both starts are
    # descended, warm first, and the fit is no higher than either start
    monkeypatch.setattr(qmselect.fitting, "GRAD_TOL", 0.0)
    x = q.simulate(spec, theta, 600, seed=31).values
    base = _start_point(spec, constraint_set(spec), x)
    x0s = _record_descents(monkeypatch)
    res = q.fit(spec, x, theta)
    starts = [x0 for x0 in x0s if np.array_equal(x0, theta) or np.array_equal(x0, base)]
    assert [np.array_equal(x0, base) for x0 in starts] == [False, True]
    assert res.gamma_bar_min <= q.gamma_bar(spec, theta, x)
    assert res.gamma_bar_min <= q.gamma_bar(spec, base, x)


def _descent_fit(spec, end, value, iterations, converged):
    """The fit a patched ``_descend`` returns: ``end`` with the given contrast,
    iterations and flag."""
    return qmselect.fitting.FitResult(
        spec=spec, theta=q.ParamVector(spec, end), gamma_bar_min=value, loglik=-300.0 * value,
        converged=converged, n_used=600, grad_norm=0.0 if converged else 1.0, iterations=iterations,
    )


@pytest.mark.parametrize("certified", [(False, True), (True, False), (False, False)],
                         ids=["zero-init", "warm", "neither"])
def test_a_certified_candidate_wins_a_tie(monkeypatch, certified):
    # the two descents end within 1e-10 of each other, below both starts;
    # the certified end point is taken over an earlier uncertified one, and
    # the earliest descent when neither is certified
    spec, theta = RECURSION_CASES[1]
    x = q.simulate(spec, theta, 600, seed=31).values
    warm = np.asarray(theta)
    base = _start_point(spec, constraint_set(spec), x)
    ends = {"warm": np.array([1.1, 0.3, 0.45]), "base": np.array([1.2, 0.32, 0.41])}
    low = min(q.gamma_bar(spec, warm, x), q.gamma_bar(spec, base, x)) - 1.0
    outcome = {"warm": _descent_fit(spec, ends["warm"], low + 5e-11, 3, certified[0]),
               "base": _descent_fit(spec, ends["base"], low, 4, certified[1])}

    def descend(objective, cset, v, fv):
        return outcome["warm" if np.array_equal(v, warm) else "base"]

    monkeypatch.setattr(qmselect.fitting, "_descend", descend)
    res = q.fit(spec, x, warm)
    expected = "base" if certified == (False, True) else "warm"
    assert res.theta.values.tolist() == ends[expected].tolist()
    assert res.iterations == outcome[expected].iterations


def test_a_start_never_beats_its_own_descent(monkeypatch):
    # a descent that ends uncertified within 1e-10 below its start is the
    # fit, with its iterations: the start itself is not a candidate
    spec, theta = RECURSION_CASES[1]
    x = q.simulate(spec, theta, 600, seed=31).values
    end = np.array([1.1, 0.3, 0.45])

    def descend(objective, cset, v, fv):
        return _descent_fit(spec, end, fv - 5e-11, 7, False)

    monkeypatch.setattr(qmselect.fitting, "_descend", descend)
    res = q.fit(spec, x)
    assert res.theta.values.tolist() == end.tolist()
    assert res.iterations == 7


def test_an_uncertified_end_point_is_followed_by_the_zero_init_descent(monkeypatch):
    # the certificate has one site: with a tolerance that no projected
    # gradient norm can meet, the warm descent's fit is not converged, so the
    # zero-init start is descended too, and the fit reports converged False
    spec, theta = RECURSION_CASES[1]
    x = q.simulate(spec, theta, 600, seed=31).values
    base = _start_point(spec, constraint_set(spec), x)
    x0s = _record_descents(monkeypatch)
    monkeypatch.setattr(qmselect.fitting, "GRAD_TOL", -1.0)
    res = q.fit(spec, x, theta)
    assert np.array_equal(x0s[0], theta)
    assert any(np.array_equal(x0, base) for x0 in x0s)
    assert not res.converged


#: (fitted spec, data-generating spec, its parameters): each recursion case
#: on its own data, and two fits with more lags than their data
CERTIFICATE_CASES = [(spec, spec, theta) for spec, theta in RECURSION_CASES] + [
    (q.arma(2, 2), *DGP2),
    (q.garch(2, 1), *DGP3),
]


@pytest.mark.parametrize("spec,dgp,theta", CERTIFICATE_CASES, ids=[str(s) for s, _, _ in CERTIFICATE_CASES])
def test_the_certificate_is_a_fresh_evaluation_to_the_bit(spec, dgp, theta):
    # the certificate reads the contrast and gradient the fit's objective
    # already holds; they must be exactly what the public functions return at
    # the fitted point, after a descent and after a warm start at the
    # optimum, where the descent ends at its start
    x = q.simulate(dgp, theta, 600, seed=31).values
    cset = constraint_set(spec)
    descended = q.fit(spec, x)
    at_start = q.fit(spec, x, descended.theta.values)
    # a pass that lowered the contrast would have moved the point
    assert np.array_equal(at_start.theta.values, descended.theta.values)
    for res in (descended, at_start):
        v = res.theta.values
        assert res.gamma_bar_min == q.gamma_bar(spec, v, x)
        assert res.loglik == -0.5 * x.size * res.gamma_bar_min
        assert res.grad_norm == projected_grad_norm(cset, v, q.gradient(spec, v, x))


def _count_calls(monkeypatch, module, names):
    """Replace each of ``names`` in ``module`` by a wrapper counting its calls."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, name=name, real=real, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("spec,theta", RECURSION_CASES, ids=[str(s) for s, _ in RECURSION_CASES])
def test_a_fit_values_each_start_once_and_certifies_from_its_objective(monkeypatch, spec, theta, warm):
    # fitting.contrast, .gamma_bar and .gradient are the names the traced
    # benchmark wraps (the contract tests/test_bench_contract.py pins), so
    # their counts are what it reports: a multi-parameter fit values each
    # start it descends once, and everything else, its certificates
    # included, comes from the fit's objective
    if warm:  # no end point certifies, so both starts are descended
        monkeypatch.setattr(qmselect.fitting, "GRAD_TOL", 0.0)
    x = q.simulate(spec, theta, 600, seed=31).values
    descents = _count_calls(monkeypatch, qmselect.fitting, ["_descend"])
    counts = _count_calls(monkeypatch, qmselect.fitting, ["contrast", "gamma_bar", "gradient"])
    q.fit(spec, x, theta if warm else None)
    assert descents["_descend"] == (2 if warm else 1)
    assert counts == {"contrast": 0, "gamma_bar": descents["_descend"], "gradient": 0}


def test_a_one_parameter_fit_is_certified_by_one_contrast_and_one_gradient(monkeypatch):
    counts = _count_calls(monkeypatch, qmselect.fitting, ["contrast", "gamma_bar", "gradient"])
    x = np.random.default_rng(4).standard_normal(300)
    assert q.fit(q.wn(), x).converged
    assert counts == {"contrast": 1, "gamma_bar": 0, "gradient": 1}


@pytest.mark.parametrize("spec,theta", RECURSION_CASES[:3], ids=[str(s) for s, _ in RECURSION_CASES[:3]])
def test_fit_never_builds_the_score_rows(monkeypatch, spec, theta):
    # the optimizer and the certificate only need the mean score, which the
    # backward filter pass gives without the (n, dim) rows; the rows come
    # only from complex steps, so a fit never evaluates a complex point
    x = q.simulate(spec, theta, 600, seed=32).values
    recursion = qmselect.likelihood._recursion

    def real_only(spec, v, sample, *rest):
        if np.iscomplexobj(v):
            raise AssertionError("complex point evaluated during a fit")
        return recursion(spec, v, sample, *rest)

    monkeypatch.setattr(qmselect.likelihood, "_recursion", real_only)
    assert q.fit(spec, x).converged


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


def test_an_order_above_the_budget_cap_is_an_excluded_model():
    # arma(17,0)'s AR budget would give SLSQP 2^17 sign rows: the fit raises,
    # and the sweep records the model as excluded, with its reason
    x = q.simulate(q.arma(1, 0), [0.5, 1.0], 200, seed=3).values
    with pytest.raises(q.UnsupportedFamily):
        q.fit(q.arma(17, 0), x)
    white, wide = q.fit_family([q.wn(), q.arma(17, 0)], x)
    assert white.error is None and white.converged
    assert wide.spec == q.arma(17, 0) and not wide.converged and np.isnan(wide.gamma_bar_min)
    assert wide.error == ("UnsupportedFamily: a signed budget of 17 coefficients takes 2^17 SLSQP rows; "
                          "at most 16 are supported")


SIGN_FLIP_FAMILY = "wn + arma(0..2,0..2) + garch(0..2,0..2) + aparch(1.5;1,1) + ararch(1..2)"


@pytest.mark.parametrize(
    "dgp,theta",
    [(q.garch(1, 1), (1.0, 0.35, 0.4)), (q.arma(1, 1), (0.5, 0.6, 1.0)),
     (q.aparch(1.5, 1, 1), (0.3, 0.1, 0.3, 0.6))],
    ids=str,
)
def test_fit_family_is_sign_flip_invariant(dgp, theta):
    # x -> -x: every contrast sees only squares, |x| or products of two
    # signed terms, and the constraint sets are symmetric, so each fit is
    # bit-identical, with aparch's gamma (the sign of its leverage) negated
    family = q.expand_family(SIGN_FLIP_FAMILY)
    for seed in (0, 1):
        x = q.simulate(dgp, theta, 300, seed=seed).values
        for fit, flipped in zip(q.fit_family(family, x), q.fit_family(family, -x)):
            mirrored = flipped.theta.values.copy()
            mirrored[flipped.spec.layout.gamma] *= -1.0
            assert np.array_equal(fit.theta.values, mirrored), (fit.spec, seed)
            assert fit.gamma_bar_min == flipped.gamma_bar_min, (fit.spec, seed)
            assert fit.converged == flipped.converged, (fit.spec, seed)


def test_fit_family_fits_garch_before_the_equal_dim_aparch_nesting_it(monkeypatch, dgp3_series_2000):
    # garch(0,1) and aparch(2;0,1) share their dim, and "aparch" sorts first by
    # name; the family declaration order fits garch first and warm-starts
    # aparch at its optimum
    x = dgp3_series_2000.values
    garch, aparch = q.garch(0, 1), q.aparch(2.0, 0, 1)
    warms = {}
    real_fit = qmselect.fitting.fit

    def fit(spec, x, warm=None):
        warms[spec] = warm
        return real_fit(spec, x, warm)

    monkeypatch.setattr(qmselect.fitting, "fit", fit)
    fit_aparch, fit_garch = q.fit_family([aparch, garch], x)
    assert warms[garch] is None
    assert warms[aparch] is not None and np.array_equal(warms[aparch], fit_garch.theta.values)
    assert fit_aparch.gamma_bar_min <= fit_garch.gamma_bar_min


GARCH01_SEED = derive_seed(7_000_003, 2000, 1)  # garch_desk_eff at seed 7, driver call 3, rep 1


def test_garch01_fit_does_not_stall_in_the_interior():
    # garch(0,1) has no name-compatible nested model, so no warm start helps:
    # a single SLSQP pass stopped non-converged near (0.891, 0.796), projected
    # gradient 0.037 and n * gamma_bar 4953.71, where the grid point
    # (0.571, 0.870) already gives 4953.22
    spec, theta = DGP3
    x = q.simulate(spec, theta, 2000, seed=GARCH01_SEED).values
    res = q.fit(q.garch(0, 1), x)
    assert res.converged
    assert x.size * res.gamma_bar_min <= 4953.3


GARCH01_CHILD = """
import qmselect as q
x = q.simulate(q.{spec}, {theta}, 2000, seed={seed}).values
res = q.fit(q.garch(0, 1), x)
print(int(res.converged), repr(x.size * res.gamma_bar_min))
"""


def test_garch01_fit_does_not_depend_on_the_blas_thread_count():
    # SLSQP's least-squares subproblem goes through BLAS, whose thread count
    # can move the points SLSQP visits; the certified optimum must not move
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    child = GARCH01_CHILD.format(spec=DGP3[0].name, theta=DGP3[1], seed=GARCH01_SEED)
    out = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        converged, value = run.stdout.split()
        assert converged == "1", threads
        out.append(float(value))
    assert abs(out[0] - out[1]) <= 1e-6, out


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
    [[1.0, 0.3], [1.0, 0.3, 0.4, 0.0], [1.0, -0.1, 0.4], [1.0, 0.6, 0.6], [float("nan"), 0.1, 0.1]],
    ids=["short", "long", "below-box", "over-budget", "nan"],
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "2-D"], ids=str)
def test_a_bad_series_is_a_value_error_not_a_failed_model(bad):
    # a non-finite or non-1-D series is a bad input: fit refuses it, and the
    # sweep and the selection propagate that, rather than report every
    # candidate as failed to fit
    x = q.simulate(q.arma(1, 0), [0.5, 1.0], 200, seed=1).values.copy()
    if bad == "2-D":
        x, message = x.reshape(20, 10), r"must be 1-D, got an array of shape \(20, 10\)"
    else:
        x[50], message = bad, f"not finite at index 50: {bad}"
    family = q.expand_family("wn + arma(1,0) + garch(1,1)")
    for spec in family:
        with pytest.raises(ValueError, match=message) as info:
            q.fit(spec, x)
        assert not isinstance(info.value, q.QmselectError)
    with pytest.raises(ValueError, match=message):
        q.fit_family(family, x)
    with pytest.raises(ValueError, match=message):
        q.select(family, x, q.BIC)


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


def _start_point_reference(spec, cset, x):
    """``_start_point`` as it was written before its projection became the
    box clip: the reference of the oracle below."""
    m2 = float(np.mean(x**2))
    v = np.zeros(spec.dim)
    v[spec.layout.sigma] = np.sqrt(m2)
    v[spec.layout.omega] = m2 ** (spec.delta / 2.0)
    return cset.project(v)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(spec=st.sampled_from(SHIPPED_SPECS),
       x=st.lists(st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-4, 1e-4), st.just(-0.0)),
                  min_size=1, max_size=40),
       scale=st.sampled_from([1e-200, 1e-3, 1.0, 1e3, 1e200]))
def test_the_start_point_is_the_clip_to_the_bit(spec, x, scale):
    # every budgeted entry of the start is 0, so its projection is its clip:
    # the same bits as the projection, the scale entry on its bounds too
    # (a tiny or huge series' second moment is clipped)
    cset = constraint_set(spec)
    series = np.asarray(x) * scale
    with np.errstate(over="ignore", under="ignore"):
        want = _start_point_reference(spec, cset, series)
        got = _start_point(spec, cset, series)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_the_projected_gradient_norm_keeps_the_bits_of_its_reference(data):
    # the certificate's norm, np.max's reduction called directly, on every
    # shipped spec's set, at points and gradients with nan, +-inf and -0.0
    spec = data.draw(st.sampled_from(SHIPPED_SPECS))
    cset = constraint_set(spec)
    v, g = draw_edge_vector(data, cset), draw_edge_vector(data, cset)
    with np.errstate(all="ignore"):
        try:
            want = float(np.max(np.abs(v - cset.project(v - g))))
        except IndexError:  # an infinite entry in a budget: both raise
            with pytest.raises(IndexError):
                projected_grad_norm(cset, v, g)
            return
        got = projected_grad_norm(cset, v, g)
    assert np.array([got]).tobytes() == np.array([want]).tobytes()


def _budget_reference(spec):
    """The budget blocks and bounds, and the Jacobian ``-A``, as they were
    built before the record kept its rows once: each group's sign rows a
    matrix of its own, from ``itertools.product``, stacked for the Jacobian."""
    blocks = []
    for coords, signed, bound in budgets(constraint_set(spec)):
        signs = sign_rows(coords, signed)
        a = np.zeros((len(signs), spec.dim))
        a[:, coords] = signs
        blocks.append((a, bound))
    jac = np.array(-np.vstack([a for a, _ in blocks]) if blocks else np.zeros((1, spec.dim)), order="F")
    return blocks, jac


def _run_products(cs):
    """The record's product slices by the rule it was built by before it
    kept one list of products: each run of consecutive groups of at most two
    members one product, every larger group one of its own."""
    runs, top = [], 0
    for coords, signed, _ in budgets(cs):
        stop, short = top + len(sign_rows(coords, signed)), len(coords) <= 2
        if short and runs and runs[-1][2]:
            runs[-1][1] = stop
        else:
            runs.append([top, stop, short])
        top = stop
    return [slice(i, j) for i, j, _ in runs]


def test_every_spec_takes_the_products_of_the_run_rule():
    # one product over all rows when every group is short, else one per
    # group: on at most two groups, what merging runs of short groups gave
    for spec in SHIPPED_SPECS + q.expand_family("arma(0..7,0..7) + aparch(1.5;0..2,0..2) + ararch(0..3)"):
        problem = qmselect.fitting._problem(spec)
        assert [block for block, _, _ in problem.products] == _run_products(constraint_set(spec)), spec


@pytest.mark.parametrize("pinned", [False, True], ids=["fallback", "core"])
def test_minimize_builds_the_jacobian_once_per_pass(monkeypatch, pinned):
    # both routes hand SLSQP one constraint matrix per pass; the fallback
    # rebuilt it at every iteration
    if pinned:
        _slsqp_core_or_skip()
    else:
        monkeypatch.setattr(qmselect.fitting, "_SLSQP", None)
    built = []
    jac = qmselect.fitting._SlsqpCore.jac

    def counted(problem):
        built.append(problem.m)
        return jac.fget(problem)

    monkeypatch.setattr(qmselect.fitting._SlsqpCore, "jac", property(counted))
    spec = q.arma(2, 2)
    x = _pin_series(spec, 41)
    with np.errstate(over="ignore", invalid="ignore"):
        res = qmselect.fitting.minimize(qmselect.likelihood._Objective(spec, x),
                                        _start_point(spec, constraint_set(spec), x))
    assert res.nit > 10 and built == [8]


def test_slsqp_core_never_writes_the_jacobian(monkeypatch):
    # minimize builds the constraint matrix -A once per pass and hands the
    # core that one array at every request, never rewriting it: a core that
    # wrote it would move later iterates, so its bytes must not change
    # across any core call of whole fits, on the 2^6 sign rows of a signed
    # budget, aparch's a-and-b budget, whose entries are not contiguous, and
    # ararch(0)'s row of zeros, which has no budget
    core = _slsqp_core_or_skip()
    writes, shapes = [], set()

    def spy(state, fx, g, C, d, xk, mult, xl, xu, buffer, indices):
        before = C.tobytes()
        core(state, fx, g, C, d, xk, mult, xl, xu, buffer, indices)
        writes.append(C.tobytes() != before)
        shapes.add(C.shape)

    monkeypatch.setattr(qmselect.fitting, "_SLSQP", spy)
    family = q.expand_family("arma(0..2,0..2) + arma(6,0) + arma(1,6) + garch(1,1) + aparch(1.5;2,1) + ararch(0..2)")
    for spec, theta in [DGP2, DGP3]:
        fits = q.fit_family(family, q.simulate(spec, theta, 400, seed=43).values)
        assert all(f.error is None for f in fits)
    assert writes and not any(writes), sum(writes)
    assert {(64, 7), (66, 8), (1, 6), (1, 2)} <= shapes


def _scripted_pass(spec, points):
    """The constraint vectors and matrices minimize hands a scripted core
    that asks for a value at each of ``points``, scrambling the constraint
    vector, then for a gradient at the last: (point, d, C) per core call,
    with the request each call answered (0 for the start)."""
    script = [(1, p) for p in points] + [(-1, points[-1]), (0, points[-1])]
    seen = []

    def core(state, fx, g, C, d, xk, mult, xl, xu, buffer, indices):
        asked = script[len(seen) - 1][0] if seen else 0
        seen.append((asked, xk.copy(), d.copy(), C.copy(order="F")))
        mode, point = script[len(seen) - 1]
        d[:] = np.nan
        xk[:] = point
        state["mode"] = mode

    x = np.random.default_rng(5).standard_normal(60)
    start = constraint_set(spec).project(np.full(spec.dim, 0.1))
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(qmselect.fitting, "_SLSQP", core)
        qmselect.fitting.minimize(qmselect.likelihood._Objective(spec, x), start)
    return seen


def _assert_budget_values_are_the_references(spec, seen):
    blocks, jac = _budget_reference(spec)
    with np.errstate(all="ignore"):
        for i, (asked, xk, d, C) in enumerate(seen):
            if asked in (0, 1):  # the start, or a value request just answered
                want = np.concatenate([b - a @ xk for a, b in blocks]) if blocks else np.zeros(1)
                assert d.tobytes() == want.tobytes(), (spec, i)
            if asked in (0, -1):
                assert C.tobytes("F") == jac.tobytes("F"), (spec, i)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_minimize_hands_the_core_the_budget_values_of_their_reference(data):
    # a scripted core asks for values at points with nan, +-inf, -0.0 and
    # box edges; each constraint vector minimize then hands it, one product
    # over all rows when every group has at most two members, else one per
    # group, has the bits of the group by group reference, and each
    # Jacobian handed back after a gradient request those of -A
    spec = data.draw(st.sampled_from([s for s in SHIPPED_SPECS if s.dim > 1]))
    points = [draw_edge_vector(data, constraint_set(spec)) for _ in range(3)]
    _assert_budget_values_are_the_references(spec, _scripted_pass(spec, points))


def test_every_shipped_spec_gets_the_budget_values_of_their_reference():
    # a group of three or more members is a product of its own: stacked
    # after a short group, arma(1,6)'s 64 sign rows sum in another order on
    # some points, so every shipped spec is run here, each at 30 points
    rng = np.random.default_rng(17)
    for spec in SHIPPED_SPECS:
        if spec.dim > 1:
            points = list(rng.standard_normal((30, spec.dim)) * rng.choice([1e-3, 1.0, 1e3], (30, spec.dim)))
            _assert_budget_values_are_the_references(spec, _scripted_pass(spec, points))
