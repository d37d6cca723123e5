import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.signal import lfilter

import qmselect as q
from qmselect import fitting, models
from qmselect.models import H_FLOOR, _lag

from conftest import SHIPPED_SPECS, budgets, draw_edge_vector, sign_rows


# ---------------------------------------------------------------------------
# specs, parsing, enumeration


def test_canonical_names_round_trip():
    for spec in [
        q.wn(),
        q.arma(1, 1),
        q.arma(2, 0),
        q.garch(1, 1),
        q.aparch(1.5, 1, 1),
        q.aparch(1.2345678, 1, 1),
        q.aparch(0.1 + 0.2, 1, 1),
        q.aparch(1e-5, 1, 1),
        q.aparch(1234567.0, 1, 1),
        q.ararch(2),
    ]:
        assert q.parse_spec(spec.name) == spec


def test_aparch_names_keep_the_short_power_form():
    # names feed config_hash, so these texts must not move
    for delta in (2.0, 1.5, 0.5, 1.25):
        assert q.aparch(delta, 1, 1).name == f"aparch({delta:g};1,1)"


def test_aliases_normalize():
    assert q.parse_spec("ar(2)") == q.arma(2, 0)
    assert q.parse_spec("arch(3)") == q.garch(3, 0)
    assert q.parse_spec("ARMA(1, 1)") == q.arma(1, 1)
    assert q.parse_spec("wn") == q.wn()


def test_empty_models_collapse_to_wn():
    assert q.arma(0, 0) == q.wn()
    assert q.garch(0, 0) == q.wn()
    assert q.aparch(1.5, 0, 0) == q.wn()


def test_white_noise_is_arma00():
    assert len(q.Family) == 4
    assert q.wn().family is q.Family.ARMA and (q.wn().p, q.wn().q) == (0, 0)
    assert q.aparch(1.5, 0, 0).delta == 2.0
    # only aparch keeps a power, so a stray one cannot split equal specs
    assert q.ModelSpec(q.Family.GARCH, 1, 1, delta=3.0) == q.garch(1, 1)
    assert q.ModelSpec(q.Family.ARARCH, 1, delta=0.5) == q.ararch(1)
    assert q.aparch(1.5, 1, 0).delta == 1.5
    assert q.parse_spec("wn").name == q.arma(0, 0).name == "wn"


#: each constructor, from two orders (ararch takes only the first)
CONSTRUCTORS = {"arma": q.arma, "garch": q.garch, "aparch": lambda p, r: q.aparch(1.5, p, r),
                "ararch": lambda p, r: q.ararch(p)}


@pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_orders_are_ints(make):
    # a bool order is its int, and the name it gives parses back
    spec = make(True, True)
    assert spec == make(1, 1) and type(spec.p) is int and type(spec.q) is int
    assert q.parse_spec(spec.name) == spec
    # numpy integer orders give an equal spec, with the same name and hash
    wide, plain = make(np.int64(2), np.int64(1)), make(2, 1)
    assert wide == plain and wide.name == plain.name and hash(wide) == hash(plain)
    # a float order is refused when the spec is built
    with pytest.raises(TypeError):
        make(1.0, 1)
    with pytest.raises(TypeError):
        q.ModelSpec(spec.family, 1, 1.0)


@pytest.mark.parametrize(
    "bad",
    [
        "arma(1)",
        "garch(1,)",
        "frob(1,2)",
        "wn(1)",
        "arma(-1,0)",
        pytest.param(f"aparch({'9' * 400};1,1)", id="aparch-infinite-power"),
    ],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        q.parse_spec(bad)


@pytest.mark.parametrize("power", [".", "1.2.3", "1.5.", "1.5.0", "0", "0.0", "00",
                                   pytest.param("9" * 400, id="400-digits")])
def test_a_malformed_power_names_its_term(power):
    # the power is a decimal: anything else is a term that does not parse
    term = f"aparch({power};1,1)"
    for read in (q.parse_spec, q.expand_family):
        with pytest.raises(ValueError, match=r"cannot parse model term 'aparch\(" + re.escape(power)):
            read(term)


@pytest.mark.parametrize("power, delta", [("1.5", 1.5), ("2", 2.0), ("2.", 2.0), (".5", 0.5), (" 1.5 ", 1.5)])
def test_every_decimal_power_parses(power, delta):
    spec = q.parse_spec(f"aparch({power};1,1)")
    assert spec == q.aparch(delta, 1, 1)
    assert q.expand_family(f"aparch({power};1..1,1)") == [spec]


def test_dims():
    assert q.wn().dim == 1
    assert q.arma(2, 1).dim == 4
    assert q.garch(1, 1).dim == 3
    assert q.aparch(2.0, 1, 1).dim == 4
    assert q.ararch(2).dim == 4


def test_param_names_match_dims():
    for spec in [q.wn(), q.arma(2, 1), q.garch(1, 2), q.aparch(1.0, 2, 1), q.ararch(1)]:
        assert len(spec.param_names()) == spec.dim


def test_param_names_are_built_once_and_returned_as_a_new_list():
    spec = q.aparch(1.5, 2, 1)
    names = spec.param_names()
    names.append("extra")
    assert spec.param_names() == ["omega", "a1", "a2", "gamma1", "gamma2", "b1"]
    assert spec.param_names() is not spec.param_names()
    assert spec._names is spec._names


# the parameter order and feasible set that --theta, [dgp] theta and fit(...).theta mean
PINNED_LAYOUTS = [
    (q.wn(), ["sigma"], [1e-3], [1e3], []),
    (q.arma(2, 1), ["a1", "a2", "b1", "sigma"],
     [-0.98, -0.98, -0.98, 1e-3], [0.98, 0.98, 0.98, 1e3], [(0, 1), (2,)]),
    (q.garch(1, 2), ["omega", "a1", "b1", "b2"],
     [1e-6, 0.0, 0.0, 0.0], [1e6, 0.98, 0.98, 0.98], [(1, 2, 3)]),
    (q.aparch(1.5, 2, 1), ["omega", "a1", "a2", "gamma1", "gamma2", "b1"],
     [1e-6, 0.0, 0.0, -0.98, -0.98, 0.0], [1e6, 0.98, 0.98, 0.98, 0.98, 0.98], [(1, 2, 5)]),
    (q.ararch(2), ["phi", "alpha0", "alpha1", "alpha2"],
     [-0.98, 1e-6, 0.0, 0.0], [0.98, 1e6, 0.98, 0.98], [(2, 3)]),
]


@pytest.mark.parametrize(
    "spec,names,lower,upper,groups", PINNED_LAYOUTS, ids=[case[0].name for case in PINNED_LAYOUTS]
)
def test_parameter_layout_is_pinned(spec, names, lower, upper, groups):
    cset = q.constraint_set(spec)
    assert spec.param_names() == names
    np.testing.assert_array_equal(cset.lower, lower)
    np.testing.assert_array_equal(cset.upper, upper)
    assert [tuple(coords) for coords, _, _ in budgets(cset)] == groups
    assert all(bound == 0.98 for _, _, bound in cset.groups)


@pytest.mark.parametrize(
    "spec,blocks",
    [
        (q.wn(), {"sigma": (0, 1)}),
        (q.arma(2, 1), {"ar": (0, 2), "ma": (2, 3), "sigma": (3, 4)}),
        (q.garch(1, 2), {"omega": (0, 1), "a": (1, 2), "b": (2, 4)}),
        (q.aparch(1.5, 2, 1), {"omega": (0, 1), "a": (1, 3), "gamma": (3, 5), "b": (5, 6)}),
        (q.ararch(2), {"phi": (0, 1), "omega": (1, 2), "a": (2, 4)}),
    ],
    ids=[case[0].name for case in PINNED_LAYOUTS],
)
def test_layout_blocks_tile_theta_in_role_order(spec, blocks):
    lay = spec.layout
    assert lay._fields == ("ar", "ma", "phi", "omega", "a", "gamma", "b", "sigma")
    assert all(block.step is None for block in lay)
    assert {role: (b.start, b.stop) for role, b in zip(lay._fields, lay) if b.stop > b.start} == blocks
    assert [i for block in lay for i in range(block.start, block.stop)] == list(range(spec.dim))
    assert spec.layout is lay  # built once per spec


def test_expand_family_full_grid_count():
    fam = q.expand_family("arma(0..6,0..6)+garch(0..6,0..6)")
    # 49 + 49 minus the shared empty model
    assert len(fam) == 97
    assert len(set(fam)) == 97
    assert q.wn() in fam


def test_expand_family_dedup_and_order():
    fam = q.expand_family("arma(0..1,0..1)+garch(0..1,0..1)")
    names = [m.name for m in fam]
    assert names[0] == "wn"
    assert names.count("wn") == 1
    assert "garch(1,1)" in names


@pytest.mark.parametrize("bad", ["arma(2..1,0)", "arma(0..2)", "", "arma(a,b)"])
def test_expand_family_rejects(bad):
    with pytest.raises(ValueError):
        q.expand_family(bad)


@pytest.mark.parametrize("term", ["ararch(1.5;1)", "ar(2.5;0..1)", "ma(1.5;1)", "arch(7;1..2)"])
def test_expand_family_rejects_a_power_prefix_off_aparch(term):
    # a family term reads like a model name: the power is aparch's alone
    with pytest.raises(ValueError, match="power prefix"):
        q.expand_family(term)


@pytest.mark.parametrize(
    "term",
    [
        # test_parse_rejects_garbage
        "arma(1)",
        "garch(1,)",
        "frob(1,2)",
        "wn(1)",
        "arma(-1,0)",
        f"aparch({'9' * 400};1,1)",
        # test_aliases_normalize
        "ar(2)",
        "arch(3)",
        "ARMA(1, 1)",
        "wn",
    ],
)
def test_a_single_term_expands_to_its_parsed_spec(term):
    try:
        spec = q.parse_spec(term)
    except ValueError:
        with pytest.raises(ValueError):
            q.expand_family(term)
    else:
        assert q.expand_family(term) == [spec]


# ---------------------------------------------------------------------------
# constraint sets


def test_wn_constraint_box():
    cs = q.constraint_set(q.wn())
    assert_allclose(cs.lower, [1e-3])
    assert_allclose(cs.upper, [1e3])
    assert not cs.groups


def test_garch_constraints():
    cs = q.constraint_set(q.garch(1, 1))
    assert cs.contains([1.0, 0.35, 0.4])
    assert not cs.contains([1.0, 0.6, 0.5])  # coefficient budget exceeded
    assert not cs.contains([0.0, 0.1, 0.1])  # omega below floor
    assert not cs.contains([1.0, -0.01, 0.1])
    # every comparison with NaN is false, so NaN needs a test of its own
    assert not cs.contains([np.nan, 0.1, 0.1])


def test_all_dgps_feasible(dgp1, dgp2, dgp3):
    for spec, theta in (dgp1, dgp2, dgp3):
        assert q.constraint_set(spec).contains(np.array(theta))


def test_arma_per_part_budgets():
    cs = q.constraint_set(q.arma(1, 1))
    assert cs.contains([0.5, 0.6, 1.0])     # each part under its own budget
    assert not cs.contains([0.99, 0.0, 1.0])
    assert not cs.contains([0.5, 0.99, 1.0])
    cs2 = q.constraint_set(q.arma(2, 0))
    assert cs2.contains([0.4, 0.4, 1.0])
    assert not cs2.contains([0.6, 0.5, 1.0])  # |a1|+|a2| over budget


def test_project_restores_feasibility():
    cs = q.constraint_set(q.garch(1, 1))
    v = cs.project(np.array([-5.0, 0.7, 0.6]))
    assert cs.contains(v)
    assert v[0] >= 1e-6
    assert v[1] + v[2] <= 0.98 + 1e-12


PROJECTION_SPECS = [q.wn(), q.arma(2, 3), q.garch(2, 1), q.aparch(1.5, 2, 1), q.ararch(2)]


def _budget_vertices(cs, w):
    """``w`` with one budget's coordinates moved to each vertex of the budget,
    and with every coordinate outside the budgets at its lower or upper bound."""
    free = np.setdiff1d(np.arange(cs.dim), [i for coords, _, _ in budgets(cs) for i in coords])
    out = []
    for bound in (cs.lower, cs.upper):
        v = w.copy()
        v[free] = bound[free]
        out.append(v)
    for coords, signed, bound in budgets(cs):
        for i in coords:
            for sign in (1.0, -1.0) if signed else (1.0,):
                v = w.copy()
                v[coords] = 0.0
                v[i] = sign * bound
                out.append(v)
    return out


@pytest.mark.parametrize("spec", PROJECTION_SPECS, ids=str)
def test_project_is_the_euclidean_projection(spec, monkeypatch):
    # P u is the nearest feasible point iff (u - Pu).(w - Pu) <= 0 for every
    # feasible w; the budget's vertices are where a wrong shrink shows first
    cs = q.constraint_set(spec)
    rng = np.random.default_rng(11)
    feasible = [cs.project(rng.uniform(-1.5, 1.5, cs.dim)) for _ in range(10)]
    feasible += [v for w in feasible[:3] for v in _budget_vertices(cs, w)]
    assert all(cs.contains(w) for w in feasible)
    # a projection lands on the set to within 1e-12, far inside the usual slack
    monkeypatch.setattr(q.models, "FEASIBILITY_TOL", 1e-12)
    for scale in (0.5, 1.5, 4.0):
        for _ in range(50):
            u = rng.uniform(-scale, scale, cs.dim)
            pu = cs.project(u)
            assert cs.contains(pu)
            assert np.max(np.abs(cs.project(pu) - pu)) <= 1e-15
            for w in feasible:
                assert (u - pu) @ (w - pu) <= 1e-12, (u, pu, w)


def _sign_blocks(cs):
    """Each group's rows of the budget matrix: a row of ones for a
    non-negative group, the 2^k sign rows of a signed one."""
    blocks = []
    for coords, signed, _ in budgets(cs):
        signs = sign_rows(coords, signed)
        block = np.zeros((len(signs), cs.dim))
        block[:, coords] = signs
        blocks.append(block)
    return blocks


def _group_rows(cs):
    """Each group's slice of the budget rows, in group order."""
    ends = np.cumsum([0] + [b.shape[0] for b in _sign_blocks(cs)]).tolist()
    return [slice(i, j) for i, j in zip(ends, ends[1:])]


def test_budget_jacobian_is_constant_and_charges_zero_coefficients():
    problem = fitting._problem(q.garch(1, 1))
    v = np.array([1.0, 0.0, 0.5])
    assert_allclose(problem.jac, [[0.0, -1.0, -1.0]])
    ((_, _, bound),) = q.constraint_set(q.garch(1, 1)).groups
    assert problem.rows.shape == (1, 3) and (bound - problem.rows @ v)[0] == pytest.approx(0.48)
    # all budgets are one inequality with a constant, read-only Jacobian in
    # Fortran order: each group's rows in group order, its bound on each of
    # them, and a signed budget's sign rows have sum |v_i| as their maximum
    for spec, scale in ((q.arma(3, 1), 0.5), (q.arma(1, 6), 1e4)):
        cs, problem = q.constraint_set(spec), fitting._problem(spec)
        blocks, slices = _sign_blocks(cs), _group_rows(cs)
        assert np.array_equal(problem.jac, -np.vstack(blocks))
        assert problem.jac.flags.f_contiguous and not problem.jac.flags.writeable
        assert problem.m == slices[-1].stop and problem.rows.shape == (problem.m, cs.dim)
        # a group of three or more members is a product of its own
        assert [block for block, _, _ in problem.products] == slices
        bounds = np.concatenate([b for _, _, b in problem.products])
        assert all(np.array_equal(problem.rows[rows], block) and np.all(bounds[rows] == bound)
                   for (_, _, bound), block, rows in zip(budgets(cs), blocks, slices))
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.uniform(-scale, scale, cs.dim)
            for (coords, _, bound), rows in zip(budgets(cs), slices):
                l1 = np.sum(np.abs(v[coords]))
                assert np.min(bounds[rows] - problem.rows[rows] @ v) == \
                    pytest.approx(bound - l1, abs=1e-15 * max(1.0, scale))


def test_one_budget_is_one_product_and_every_set_gives_slsqp_its_box():
    # a single group's value is its bound minus its rows' product
    problem = fitting._problem(q.arma(2, 0))
    ((block, a, bound),) = problem.products
    rows = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]])
    v = np.array([0.3, -0.45, 1.2])
    assert block == slice(0, 4) and np.array_equal(problem.rows, rows)
    assert np.array_equal(bound - a @ v, 0.98 - rows @ v)
    for spec in (q.wn(), q.arma(2, 1), q.garch(1, 1), q.aparch(1.5, 1, 1), q.ararch(2), q.ararch(0)):
        cs, problem = q.constraint_set(spec), fitting._problem(spec)
        # the set's own read-only box, every bound finite
        assert problem.xl is cs.lower and problem.xu is cs.upper
        assert np.all(np.isfinite(cs.lower)) and np.all(np.isfinite(cs.upper))
        assert problem.m == sum(b.shape[0] for b in _sign_blocks(cs))
        assert np.array_equal(problem.rows, np.vstack(_sign_blocks(cs) or [np.zeros((0, cs.dim))]))
        assert problem.jac.shape == (max(problem.m, 1), cs.dim)


def test_constraint_set_is_built_once_per_spec_and_cannot_be_written():
    cs = q.constraint_set(q.arma(2, 1))
    assert q.constraint_set(q.parse_spec("arma(2,1)")) is cs
    problem = fitting._problem(q.arma(2, 1))
    assert fitting._problem(q.parse_spec("arma(2,1)")) is problem
    arrays = [cs.lower, cs.upper, problem.rows, problem.jac]
    arrays += [array for _, a, b in problem.products for array in (a, b)]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # a set built by hand keeps copies of the arrays it was given
    lower, upper = np.zeros(2), np.ones(2)
    hand = q.ConstraintSet(lower, upper)
    lower[0] = upper[0] = 5.0
    assert hand.lower.tolist() == [0.0, 0.0] and hand.upper.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("spec", [q.arma(17, 0), q.arma(0, 17), q.arma(17, 17)], ids=str)
def test_a_signed_budget_above_the_cap_is_refused_before_its_rows_are_built(monkeypatch, spec):
    # 2^17 sign rows would be built; an order of 24 would need about 3.4 GB
    # for the matrix alone
    def no_rows(*args, **kwargs):
        raise AssertionError("a sign row was built")

    cs = q.constraint_set(spec)
    monkeypatch.setattr(itertools, "product", no_rows)
    monkeypatch.setattr(np, "zeros", no_rows)  # the budget matrix is allocated with it
    with pytest.raises(q.UnsupportedFamily, match=r"signed budget of 17 coefficients takes 2\^17 SLSQP rows"):
        fitting._problem(spec)
    monkeypatch.undo()
    assert cs.contains(cs.project(np.zeros(cs.dim)))  # the set itself still works


def test_a_signed_budget_at_the_cap_is_built():
    # through the uncached function, so its 2^16 rows are not kept
    cached = fitting._problem.cache_info().currsize
    problem = fitting._problem.__wrapped__(q.arma(16, 0))
    assert problem.jac.shape == (2**16, 17) and problem.m == 2**16
    assert fitting._problem.cache_info().currsize == cached


@pytest.mark.parametrize("spec", [q.wn(), q.arma(2, 1), q.garch(1, 1), q.aparch(1.5, 1, 1)], ids=str)
def test_project_returns_a_new_array_the_caller_may_write(spec):
    cs = q.constraint_set(spec)
    for point in (np.full(cs.dim, 0.7), q.ParamVector(spec, cs.project(np.zeros(cs.dim))).values):
        before = point.copy()
        projected = cs.project(point)
        expected = projected.copy()
        assert projected.flags.writeable and not np.shares_memory(projected, point)
        projected[:] = 123.0
        assert np.array_equal(point, before)
        assert np.array_equal(cs.project(point), expected)


def _contains_reference(cs, values):
    """``ConstraintSet.contains`` as it was written before its box test
    became one pass: the reference of the oracle below."""
    v = np.asarray(values, dtype=float)
    if v.shape != cs.lower.shape or not np.all(np.isfinite(v)):
        return False
    tol = models.FEASIBILITY_TOL
    if np.any(v < cs.lower - tol) or np.any(v > cs.upper + tol):
        return False
    return all(np.sum(np.abs(v[idx])) <= bound + tol for idx, _, bound in budgets(cs))


def _project_reference(cs, values):
    """``ConstraintSet.project`` as it was written before a group inside its
    budget kept its entries: the reference of the oracle below."""
    y = np.asarray(values, dtype=float)
    v = np.clip(y, cs.lower, cs.upper)
    for idx, signed, bound in budgets(cs):
        a = np.abs(y[idx]) if signed else np.maximum(y[idx], 0.0)
        if a.sum() > bound:
            u = np.sort(a)[::-1]
            excess = np.cumsum(u) - bound
            rho = np.nonzero(u * np.arange(1, u.size + 1) > excess)[0][-1]
            a = np.maximum(a - excess[rho] / (rho + 1), 0.0)
        v[idx] = np.copysign(a, y[idx]) if signed else a
    return v


def _outcome(fn, *args):
    """What ``fn(*args)`` gives, bytes for an array, or the class of what it raises."""
    try:
        with np.errstate(all="ignore"):
            got = fn(*args)
    except Exception as exc:  # the reference raises too, with the same class
        return type(exc)
    return got.tobytes() if isinstance(got, np.ndarray) else got


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_contains_and_project_keep_the_bits_of_their_reference(data):
    # on every shipped spec's set and on vectors with nan, +-inf, -0.0 and
    # entries on or one tolerance beside a box edge, the rewritten tests and
    # projection give what the reference gives, to the bit; a point on a
    # budget face, and one just outside it, are tested too
    spec = data.draw(st.sampled_from(SHIPPED_SPECS))
    cs = q.constraint_set(spec)
    v = draw_edge_vector(data, cs)
    with np.errstate(all="ignore"):
        face = _project_reference(cs, np.nan_to_num(v, nan=0.5, posinf=3.0, neginf=-3.0) * 3.0)
    for w in (v, face, face * (1.0 + 1e-9), face + models.FEASIBILITY_TOL):
        assert cs.contains(w) is _contains_reference(cs, w)
        assert _outcome(cs.project, w) == _outcome(_project_reference, cs, w)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.3, 2.0])
def test_white_noise_path_is_the_scaled_noise(sigma):
    xi = np.random.default_rng(5).standard_normal(300)
    assert np.array_equal(q.simulate_from_noise(q.wn(), [sigma], xi).values, sigma * xi)


MOMENT_CASES = [
    (q.wn(), [1.3]),
    (q.arma(2, 1), [0.3, 0.2, -0.4, 1.1]),
    (q.arma(2, 0), [0.5, -0.3, 1.2]),
    (q.garch(1, 1), [0.5, 0.2, 0.3]),
    (q.aparch(1.5, 1, 1), [0.3, 0.1, 0.3, 0.6]),
    (q.ararch(1), [0.5, 0.4, 0.2]),
]


@pytest.mark.parametrize("spec,theta", MOMENT_CASES, ids=[str(s) for s, _ in MOMENT_CASES])
def test_public_moments_and_contrast_are_full_length_arrays(spec, theta):
    # constant moments are scalars inside the package, never at its boundary
    x = q.simulate(spec, theta, 150, seed=8).values
    cm = q.cond_moments(spec, theta, x)
    for arr in (cm.f_hat, cm.h_hat, q.contrast(spec, theta, x).per_t):
        assert isinstance(arr, np.ndarray)
        assert arr.dtype == np.float64 and arr.shape == (x.size,)
        assert arr.flags.writeable


def test_every_budget_implies_its_coordinates_box():
    # ``ConstraintSet.project`` treats the box of a budgeted coordinate as
    # implied by the budget: disjoint groups, each all signed or all
    # non-negative, whose coordinates' boxes hold the budget's whole range
    specs = [q.wn()]
    for p in range(4):
        specs.append(q.ararch(p))
        for r in range(4):
            specs += [q.arma(p, r), q.garch(p, r), q.aparch(0.5, p, r), q.aparch(2.0, p, r)]
    for spec in specs:
        cs = q.constraint_set(spec)
        seen = set()
        # the set holds each budget's sign, so it must be its box's
        for (_, signed, _), (coords, box_signed, bound) in zip(cs.groups, budgets(cs)):
            assert coords and not seen & set(coords), spec
            seen |= set(coords)
            assert signed is box_signed, spec
            lower = cs.lower[coords]
            assert np.all(lower == 0.0) or np.all(lower <= -bound), spec
            assert np.all(cs.upper[coords] >= bound), spec


def test_every_budget_is_one_triple_over_its_layout_blocks():
    # each budget is held once, as (index, signed, bound): the index selects
    # its layout blocks' coordinates in order, a slice unless it skips some
    # (aparch's a and b around its gammas), the sign is its box's, and the
    # bound the margin's
    family = "arma(0..7,0..7) + garch(0..3,0..3) + aparch(1.5;0..3,0..3) + aparch(2;0..3,0..3) + ararch(0..3)"
    for spec in dict.fromkeys(SHIPPED_SPECS + q.expand_family(family)):
        cs, lay, coords = q.constraint_set(spec), spec.layout, np.arange(spec.dim)
        want = [coords[lay.ar], coords[lay.ma], np.concatenate([coords[lay.a], coords[lay.b]])]
        assert [coords[idx].tolist() for idx, _, _ in cs.groups] == [w.tolist() for w in want if w.size], spec
        skips = spec.family is q.Family.APARCH and spec.p >= 1 and spec.q >= 1
        for idx, signed, bound in cs.groups:
            if skips:
                assert isinstance(idx, np.ndarray) and not idx.flags.writeable, spec
            else:
                assert isinstance(idx, slice) and idx.step is None, spec
            assert (cs.lower[idx] < 0.0).tolist() == [signed] * len(coords[idx]), spec
            assert bound == 1.0 - models.COEF_MARGIN, spec


def test_param_vector_validation():
    pv = q.ParamVector(q.garch(1, 1), [1.0, 0.35, 0.4])
    assert pv.named() == {"omega": 1.0, "a1": 0.35, "b1": 0.4}
    with pytest.raises(ValueError):
        q.ParamVector(q.garch(1, 1), [1.0, 0.35])
    with pytest.raises(q.NonStationaryParams):
        q.ParamVector(q.garch(1, 1), [1.0, 0.9, 0.4]).validate()


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_param_vector_stays_read_only_through_pickle(protocol):
    # protocols 2 to 4 restore a plain array writable; a replication pool
    # pickles its fits with protocol 4
    pv = q.ParamVector(q.garch(1, 1), [1.0, 0.35, 0.4])
    back = pickle.loads(pickle.dumps(pv, protocol=protocol))
    assert back.spec == pv.spec and np.array_equal(back.values, pv.values)
    assert not back.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        back.values[0] = 9.0


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_constraint_set_stays_read_only_through_pickle(protocol):
    # protocols 0 to 4 restore a plain array writable
    cs = q.constraint_set(q.arma(2, 1))
    back = pickle.loads(pickle.dumps(cs, protocol=protocol))
    assert np.array_equal(back.lower, cs.lower) and np.array_equal(back.upper, cs.upper)
    assert back.groups == cs.groups
    for bound in (back.lower, back.upper):
        assert not bound.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bound[0] = 9.0
    # a budget's index array is rebuilt read-only too
    cs = q.constraint_set(q.aparch(1.5, 2, 1))
    ((idx, signed, bound),) = pickle.loads(pickle.dumps(cs, protocol=protocol)).groups
    assert idx.tolist() == [1, 2, 5] and (signed, bound) == cs.groups[0][1:]
    with pytest.raises(ValueError, match="read-only"):
        idx[0] = 0


# ---------------------------------------------------------------------------
# simulation


def test_simulate_deterministic():
    a = q.simulate(q.garch(1, 1), [1.0, 0.35, 0.4], 500, seed=5)
    b = q.simulate(q.garch(1, 1), [1.0, 0.35, 0.4], 500, seed=5)
    assert np.array_equal(a.values, b.values)
    c = q.simulate(q.garch(1, 1), [1.0, 0.35, 0.4], 500, seed=6)
    assert not np.array_equal(a.values, c.values)


def test_simulate_rejects_infeasible():
    with pytest.raises(q.NonStationaryParams):
        q.simulate(q.arma(1, 0), [1.2, 1.0], 100, seed=0)
    with pytest.raises(q.NonStationaryParams):
        q.simulate(q.garch(1, 1), [1.0, 0.7, 0.5], 100, seed=0)


def test_zero_noise_gives_zero_path():
    traj = q.simulate_from_noise(q.arma(1, 0), [0.5, 1.0], np.zeros(50))
    assert_allclose(traj.values, 0.0)
    traj = q.simulate_from_noise(q.garch(1, 1), [1.0, 0.35, 0.4], np.zeros(50))
    assert_allclose(traj.values, 0.0)


def test_degenerate_garch_is_scaled_noise():
    xi = np.random.default_rng(3).standard_normal(200)
    traj = q.simulate_from_noise(q.garch(1, 0), [4.0, 0.0], xi)
    assert_allclose(traj.values, 2.0 * xi, rtol=0, atol=1e-14)


def test_overflow_guard():
    with pytest.raises(q.NumericOverflow):
        q.simulate_from_noise(q.wn(), [1e3], np.array([1e8]))


# the simulation loops as first written, on numpy scalars: the package's loops
# must reproduce them bit for bit


def _reference_garch(omega, a, b, xi):
    p, q_ = len(a), len(b)
    n = xi.size
    x = np.zeros(n)
    h = np.zeros(n)
    a, b = list(map(float, a)), list(map(float, b))
    for t in range(n):
        ht = omega
        for i in range(min(p, t)):
            ht += a[i] * x[t - 1 - i] ** 2
        for j in range(min(q_, t)):
            ht += b[j] * h[t - 1 - j]
        h[t] = ht
        x[t] = math.sqrt(ht) * xi[t]
    return x


def _reference_aparch(omega, a, gam, b, delta, xi):
    p, q_ = len(a), len(b)
    n = xi.size
    x = np.zeros(n)
    s = np.zeros(n)
    pow_inv = 1.0 / delta
    for t in range(n):
        st = omega
        for i in range(min(p, t)):
            xi_lag = x[t - 1 - i]
            st += a[i] * (abs(xi_lag) - gam[i] * xi_lag) ** delta
        for j in range(min(q_, t)):
            st += b[j] * s[t - 1 - j]
        s[t] = st
        x[t] = st**pow_inv * xi[t]
    return x


def _reference_ararch(phi, alpha0, alpha, xi):
    p = len(alpha)
    n = xi.size
    x = np.zeros(n)
    z = np.zeros(n)
    prev = 0.0
    for t in range(n):
        ht = alpha0
        for i in range(min(p, t)):
            ht += alpha[i] * z[t - 1 - i] ** 2
        z[t] = math.sqrt(ht) * xi[t]
        x[t] = phi * prev + z[t]
        prev = x[t]
    return x


def _reference_path(spec, v, xi):
    p = spec.p
    if spec.family is q.Family.GARCH:
        return _reference_garch(v[0], v[1 : 1 + p], v[1 + p :], xi)
    if spec.family is q.Family.APARCH:
        a, gam, b = v[1 : 1 + p], v[1 + p : 1 + 2 * p], v[1 + 2 * p :]
        return _reference_aparch(v[0], a, gam, b, spec.delta, xi)
    return _reference_ararch(v[0], v[1], v[2:], xi)


@pytest.mark.parametrize(
    "spec,theta",
    [
        (q.garch(1, 1), [1.0, 0.35, 0.4]),
        (q.garch(2, 1), [0.5, 0.2, 0.1, 0.4]),
        (q.garch(0, 2), [0.8, 0.5, 0.3]),
        (q.garch(3, 0), [0.4, 0.3, 0.2, 0.1]),
        (q.garch(2, 2), [0.3, 0.15, 0.1, 0.4, 0.2]),
        (q.garch(3, 3), [0.2, 0.1, 0.05, 0.05, 0.3, 0.2, 0.1]),
        (q.aparch(1.5, 1, 1), [0.3, 0.1, 0.3, 0.7]),
        (q.aparch(1.5, 3, 2), [0.2, 0.05, 0.04, 0.03, 0.3, -0.2, 0.1, 0.4, 0.3]),
        (q.aparch(0.7, 0, 2), [0.3, 0.5, 0.3]),  # no ARCH term
        (q.aparch(0.7, 2, 1), [0.2, 0.05, 0.1, -0.4, 0.5, 0.6]),
        (q.aparch(2, 2, 2), [0.2, 0.1, 0.05, 0.5, -0.3, 0.4, 0.3]),
        (q.aparch(0.5, 1, 0), [0.6, 0.4, -0.7]),
        (q.ararch(0), [0.5, 0.8]),  # no lag at all
        (q.ararch(1), [-0.6, 0.8, 0.5]),
        (q.ararch(2), [0.5, 0.4, 0.2, 0.3]),
        (q.ararch(3), [0.9, 0.3, 0.3, 0.2, 0.25]),
    ],
    ids=str,
)
def test_simulation_matches_reference_loop(spec, theta):
    v = np.array(theta)
    # lengths 1 to 3 end before every lag holds a sample value for the larger orders
    for seed, n in ((0, 3000), (1, 3000), (2, 3000), (3, 1), (4, 2), (5, 3)):
        xi = np.random.default_rng(seed).standard_normal(n)
        got = q.simulate_from_noise(spec, v, xi).values
        assert np.array_equal(got, _reference_path(spec, v, xi))


@pytest.mark.parametrize(
    "theta",
    [
        [0.3, 0.1, 1.5, 0.5],  # |gamma| > 1: negative base of a fractional power
        [-0.3, 0.1, 0.3, 0.5],  # omega < 0: negative sigma ** delta
        [1e70, 0.1, 0.0, 0.5],  # sigma ** delta overflows on the first step
    ],
)
def test_infeasible_aparch_noise_paths_overflow(theta):
    # simulate_from_noise does not check feasibility; a power that leaves the
    # real numbers must end in the package's overflow error, with no warning
    spec = q.aparch(0.2, 1, 1) if theta[0] > 1e60 else q.aparch(1.5, 1, 1)
    xi = np.random.default_rng(4).standard_normal(50)
    with pytest.raises(q.NumericOverflow):
        q.simulate_from_noise(spec, theta, xi)


@pytest.mark.parametrize(
    "theta",
    [
        [0.5, 1.0, 5.0],  # explosive ARCH residual
        [0.5, 1e30, 0.2],  # the residual overflows on the first step
        [1.5, 1.0, 0.2],  # explosive AR mean, overflowing to inf
        [-1.5, 1.0, 0.2],
        [0.5, -1.0, 0.2],  # alpha0 < 0: negative ARCH variance on the first step
    ],
)
def test_infeasible_ararch_noise_paths_overflow(theta):
    xi = np.random.default_rng(4).standard_normal(2000)
    with pytest.raises(q.NumericOverflow):
        q.simulate_from_noise(q.ararch(1), theta, xi)


def test_explosive_garch_noise_path_overflows():
    # the kernel checks no bound: the one check after the path refuses it
    xi = np.random.default_rng(4).standard_normal(2000)
    with pytest.raises(q.NumericOverflow, match=r"simulated garch\(1,0\) path exceeded \|x\| = 1e\+10"):
        q.simulate_from_noise(q.garch(1, 0), [1.0, 5.0], xi)


def test_negative_garch_intercept_noise_path_overflows():
    # omega < 0 makes the first variance negative; math.sqrt must not leak
    xi = np.random.default_rng(4).standard_normal(2000)
    with pytest.raises(q.NumericOverflow):
        q.simulate_from_noise(q.garch(1, 1), [-1.0, 0.1, 0.2], xi)


def test_burn_in_dropped():
    traj = q.simulate(q.arma(1, 0), [0.5, 1.0], 100, seed=1, burn_in=250)
    assert traj.n == 100
    xi = np.random.default_rng(1).standard_normal(350)
    full = q.simulate_from_noise(q.arma(1, 0), [0.5, 1.0], xi)
    assert np.array_equal(traj.values, full.values[-100:])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: q.ModelSpec(q.Family.ARARCH, 1, 1), "ararch takes a single order p"),
        (lambda: q.parse_spec("arma(0..1,0)"), "a single model spec has no order ranges"),
        (lambda: q.cond_moments(q.arma(1, 1), q.ParamVector(q.garch(1, 1), [1.0, 0.1, 0.2]), np.ones(5)),
         "parameter vector bound to a different spec"),
        (lambda: q.simulate(q.arma(1, 0), [0.5, 1.0], 0, seed=0), "n must be positive"),
        (lambda: q.simulate(q.arma(1, 0), [0.5, 1.0], 10, seed=0, burn_in=-1), "burn_in must be >= 0"),
    ],
    ids=["ararch-q", "spec-range", "foreign-theta", "n-zero", "burn-in-negative"],
)
def test_an_invalid_argument_says_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("burn_in", [-3, 10, 12])
def test_simulate_from_noise_refuses_a_burn_in_outside_the_noise(burn_in):
    # a negative burn_in would keep the last steps, one past the noise none
    with pytest.raises(ValueError, match=r"burn_in must be >= 0 and less than the 10 steps of noise"):
        q.simulate_from_noise(q.arma(1, 0), (0.5, 1.0), np.ones(10), burn_in=burn_in)


def test_dgp1_variance_matches_closed_form(dgp1):
    spec, theta = dgp1
    traj = q.simulate(spec, np.array(theta), 100_000, seed=77)
    phi1, phi2, sigma = theta
    target = sigma**2 * (1 - phi2) / ((1 + phi2) * ((1 - phi2) ** 2 - phi1**2))
    assert target == pytest.approx(2.142857142857143)
    assert np.var(traj.values) == pytest.approx(target, rel=0.03)


@pytest.mark.parametrize("which", ["dgp1", "dgp2", "dgp3"])
def test_dgp_sample_mean_sane(which, request):
    spec, theta = request.getfixturevalue(which)
    traj = q.simulate(spec, np.array(theta), 20_000, seed=13)
    v = traj.values
    assert abs(np.mean(v)) <= 5.0 * np.std(v) / np.sqrt(v.size)


# ---------------------------------------------------------------------------
# conditional moments


def test_garch_truncated_recursion_by_hand():
    cm = q.cond_moments(q.garch(1, 1), [1.0, 0.35, 0.4], [2.0, 1.0])
    assert_allclose(cm.f_hat, [0.0, 0.0])
    assert_allclose(cm.h_hat, [1.0, 2.8])


def test_arma_truncated_recursion_by_hand():
    cm = q.cond_moments(q.arma(1, 1), [0.5, 0.6, 1.0], [1.0, 1.0])
    assert_allclose(cm.f_hat, [0.0, 1.1])
    assert_allclose(cm.h_hat, [1.0, 1.0])


def test_ararch_moments_by_hand():
    # f_t = phi*x_{t-1};  h_t = a0 + a1*(x_{t-1} - phi*x_{t-2})^2, zero pre-sample
    # with x = (1, 2, -1): residuals z = (1, 1.5, -2)
    x = np.array([1.0, 2.0, -1.0])
    cm = q.cond_moments(q.ararch(1), [0.5, 0.3, 0.2], x)
    assert_allclose(cm.f_hat, [0.0, 0.5, 1.0])
    assert_allclose(cm.h_hat, [0.3, 0.3 + 0.2 * 1.0, 0.3 + 0.2 * 2.25])


def test_aparch_power_two_reduces_to_garch():
    x = np.random.default_rng(11).standard_normal(300)
    g = q.cond_moments(q.garch(1, 1), [0.8, 0.2, 0.5], x)
    a = q.cond_moments(q.aparch(2.0, 1, 1), [0.8, 0.2, 0.0, 0.5], x)
    assert_allclose(a.h_hat, g.h_hat, rtol=1e-12)
    assert_allclose(a.f_hat, 0.0)


def _complex_step_bases():
    # real parts over aparch's bases, imaginary parts of the complex step's size
    rng = np.random.default_rng(37)
    re = rng.uniform(1e-3, 5.0, 200)
    im = rng.choice([-1.0, 1.0], 200) * rng.uniform(0.1, 10.0, 200) * 1e-20
    return re + 1j * im


@pytest.mark.parametrize("d", [1.5, 4 / 3, 2.5, 0.7])
def test_power_of_a_complex_step_is_within_two_eps_of_mpmath(d):
    import mpmath

    base = _complex_step_bases()
    got = models._power(base, d)
    eps = np.finfo(float).eps
    with mpmath.workprec(200):
        for b, g in zip(base, got):
            want = mpmath.power(mpmath.mpc(b.real, b.imag), mpmath.mpf(d))
            for part, ref in ((g.real, want.real), (g.imag, want.imag)):
                assert abs(mpmath.mpf(part) - ref) <= 2 * eps * abs(ref)


@pytest.mark.parametrize("d", [1.0, 2.0])
def test_an_integer_power_of_a_complex_step_is_numpys_to_the_bit(d):
    base = _complex_step_bases()
    assert models._power(base, d).tobytes() == (base**d).tobytes()


@pytest.mark.parametrize("d", [1.5, 4 / 3, 2.5, 0.7, 1.0, 2.0, -0.5])
def test_a_real_power_is_numpys_to_the_bit(d):
    re = _complex_step_bases().real
    assert models._power(re, d).tobytes() == (re**d).tobytes()
    keep = re > 1.0
    masked = models._power(re, d, where=keep)
    assert masked.tobytes() == np.where(keep, re**d, 0.0).tobytes()


def test_a_zero_base_gives_zero_and_no_warning():
    # at a zero base with no step, d < 1 would take 0 ** (d - 1) = inf times im = 0
    base = np.array([0j, 2.0 + 1e-20j])
    with np.errstate(all="raise"):
        got = models._power(base, 0.7)
        slope = models._power(base, 0.7 - 1.0, where=base.real != 0.0)
    assert got[0] == 0 and slope[0] == 0
    assert np.isfinite(got).all() and np.isfinite(slope).all()


def test_ar1_truncation_exact_after_first_step():
    x = np.random.default_rng(4).standard_normal(50)
    cm = q.cond_moments(q.arma(1, 0), [0.7, 1.0], x)
    assert cm.f_hat[0] == 0.0
    assert_allclose(cm.f_hat[1:], 0.7 * x[:-1], rtol=0, atol=1e-15)


def test_arma_truncation_error_decays_geometrically(dgp2):
    # starting the recursion mid-sample (zero pre-sample) vs with the true past:
    # the gap at offset t must shrink like |b|^t
    spec, theta = dgp2
    b = theta[1]
    traj = q.simulate(spec, np.array(theta), 400, seed=21)
    full = q.cond_moments(spec, np.array(theta), traj.values)
    k = 200
    tail = q.cond_moments(spec, np.array(theta), traj.values[k:])
    gap = np.abs(full.f_hat[k:] - tail.f_hat)
    t = np.arange(gap.size)
    # the two solutions of the residual recursion differ by exactly gap0 * b^t
    assert np.all(gap <= gap[0] * b**t + 1e-12)
    assert gap[50] < 1e-10


def test_h_floor_holds_at_scale_floor():
    x = np.random.default_rng(9).standard_normal(100)
    cm = q.cond_moments(q.garch(1, 1), [1e-6, 0.0, 0.0], x)
    assert np.all(cm.h_hat >= H_FLOOR)
    # evaluation just outside the feasible set stays clamped and finite
    cm2 = q.cond_moments(q.garch(1, 1), [1e-6, -0.01, 0.0], x)
    assert np.all(cm2.h_hat >= H_FLOOR)
    assert np.all(np.isfinite(cm2.h_hat))


def test_lag_helper():
    arr = np.array([1.0, 2.0, 3.0])
    assert_allclose(_lag(arr, 1), [0.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# linear filters

# denominators of size 2-4, as the ARCH b parts, the MA residual filters and
# the ARMA simulation's AR polynomials give them
FILTER_DENOMINATORS = [[1.0, -0.5], [1.0, -0.3, 0.2], [1.0, -0.1, 0.2, -0.05]]


def _filter_inputs(a):
    """Real, complex-step and reversed-view inputs of one filter, as the
    recursions, the complex-step Hessian and the adjoint pass them."""
    a = np.array(a)
    x = np.random.default_rng(len(a)).standard_normal(500)
    ac = a + 1j * 1e-20 * np.arange(a.size)
    xc = x + 1j * 1e-20 * np.cos(np.arange(x.size))
    return [(a, x), (a, x[::-1]), (ac, xc), (ac, xc[::-1]), (a, xc[::-1])]


def _core_or_skip():
    try:
        from scipy.signal._sigtools import _linear_filter
    except ImportError:
        pytest.skip("this scipy has no _sigtools._linear_filter")
    return _linear_filter


@pytest.mark.parametrize("a", FILTER_DENOMINATORS, ids=str)
def test_filter_core_is_bit_equal_to_lfilter(a):
    # the pin behind models._CORE_PINNED_ON: scipy's C core, called directly,
    # gives exactly what lfilter gives, on every kind of input the package has
    core = _core_or_skip()
    for b in ([1.0], [1.0, 0.4], [1.0, -0.3, 0.25]):  # all-pole, then ARMA numerators
        for den, x in _filter_inputs(a):
            want = lfilter(b, den, x)
            got = core(np.array(b), den, x, -1)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("a", [[1.0], *FILTER_DENOMINATORS], ids=str)
def test_filter_helper_is_bit_equal_to_lfilter(a):
    for b in (models._ONE, np.array([1.0, 0.4]), np.array([1.0, -0.3, 0.25])):
        for den, x in _filter_inputs(a):
            want = lfilter(b, den, x)
            got = models._lfilter(b, den, x)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_filter_helper_uses_the_core_only_on_a_pinned_scipy():
    assert models._LINEAR_FILTER is models._pinned_core(scipy.__version__)
    if scipy.__version__ in models._CORE_PINNED_ON:
        assert models._LINEAR_FILTER is _core_or_skip()


def test_filter_guard_falls_back_to_lfilter(monkeypatch):
    version = next(iter(models._CORE_PINNED_ON))
    assert models._pinned_core("0.0.0") is None
    monkeypatch.setitem(sys.modules, "scipy.signal._sigtools", None)  # the core does not import
    assert models._pinned_core(version) is None
    # without a core the helper is lfilter itself
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return lfilter(*args, **kwargs)

    monkeypatch.setattr(models, "_LINEAR_FILTER", None)
    monkeypatch.setattr("scipy.signal.lfilter", counted)
    (a, x), *_ = _filter_inputs(FILTER_DENOMINATORS[1])
    assert np.array_equal(models._lfilter(models._ONE, a, x), lfilter([1.0], a, x))
    assert len(calls) == 1


#: SLSQP's C core, driven by fitting.minimize (pinned in tests/test_fitting.py)
SLSQP_CORE = ("scipy.optimize._slsqplib", "slsqp")


def test_slsqp_uses_the_core_only_on_a_pinned_scipy():
    assert fitting._SLSQP is models._pinned_core(scipy.__version__, *SLSQP_CORE)
    if scipy.__version__ in models._CORE_PINNED_ON:
        from scipy.optimize._slsqplib import slsqp

        assert fitting._SLSQP is slsqp


def test_slsqp_guard_falls_back_to_minimize(monkeypatch):
    version = next(iter(models._CORE_PINNED_ON))
    assert models._pinned_core("0.0.0", *SLSQP_CORE) is None
    monkeypatch.setitem(sys.modules, SLSQP_CORE[0], None)  # the core does not import
    assert models._pinned_core(version, *SLSQP_CORE) is None
    # without a core each pass is one scipy.optimize.minimize call, and the
    # fit is the same to the bit
    series = [(spec, q.simulate(spec, theta, 500, seed=43).values)
              for spec, theta in ((q.arma(1, 1), (0.5, 0.6, 1.0)), (q.garch(1, 1), (1.0, 0.35, 0.4)))]
    on_core = [q.fit(spec, x) for spec, x in series]
    passes, calls = [], []
    real_pass, real_minimize = fitting.minimize, scipy.optimize.minimize

    def counted_pass(*args, **kwargs):
        passes.append(args)
        return real_pass(*args, **kwargs)

    def counted(*args, **kwargs):
        calls.append(args)
        return real_minimize(*args, **kwargs)

    monkeypatch.setattr(fitting, "_SLSQP", None)
    monkeypatch.setattr(fitting, "minimize", counted_pass)
    monkeypatch.setattr(scipy.optimize, "minimize", counted)
    fallback = [q.fit(spec, x) for spec, x in series]
    assert len(calls) == len(passes) >= len(series)
    assert pickle.dumps(fallback) == pickle.dumps(on_core)


# ---------------------------------------------------------------------------
# the cores are loaded without their public packages

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
#: the public scipy packages behind the two cores, and what importing
#: them imports in turn
PUBLIC_SCIPY = ("scipy.signal", "scipy.optimize", "scipy.linalg", "scipy.stats", "scipy.sparse",
                "scipy.special")

DRIVERS_CHILD = """
import sys
import qmselect.cli
import qmselect as q
cfg = q.ExperimentConfig(dgp=q.ararch(1), dgp_theta=(0.5, 0.4, 0.3), n_values=(200,), n_reps=2,
                         criteria=("tracepen", "kcprime"), master_seed=5, oracle_n=10_000,
                         family=(q.wn(), q.arma(1, 0), q.garch(1, 1), q.aparch(1.5, 1, 1), q.ararch(1)))
for threads in (1, 2):
    q.run_consistency(cfg, threads=threads)
    q.run_efficiency(cfg, threads=threads)
print(*[name for name in {packages} if name in sys.modules])
"""

PUBLIC_CHILD = """
import json, sys

def package():
    global fitting, models
    from qmselect import fitting, models

def public():
    global np, scipy
    import numpy as np
    import scipy.linalg, scipy.optimize, scipy.signal

for step in sys.argv[1:]:
    {"package": package, "public": public}[step]()

from scipy.optimize import minimize
from scipy.optimize._slsqplib import slsqp
from scipy.signal import lfilter
from scipy.signal._sigtools import _linear_filter

# each extension module is initialized once: the package's handles are the
# public packages' own
assert models._LINEAR_FILTER is _linear_filter and fitting._SLSQP is slsqp
x = np.random.default_rng(3).standard_normal(300)
b, a = np.array([1.0, 0.3]), np.array([1.0, -0.5, 0.2])
assert lfilter(b, a, x).tobytes() == models._lfilter(b, a, x).tobytes()
res = minimize(lambda v: float((v - 1.0) @ (v - 1.0)), np.zeros(2), method="SLSQP",
               bounds=[(0.0, 0.5), (None, None)])
assert res.success and np.allclose(res.x, [0.5, 1.0])
print(json.dumps([hasattr(scipy.signal, "_sigtools"), hasattr(scipy.optimize, "_slsqplib"),
                  hasattr(scipy.linalg, "_flapack")]))
"""


def _run_child(code: str, *args: str) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120, check=True)
    return run.stdout.strip()


def _pinned_or_skip():
    if scipy.__version__ not in models._CORE_PINNED_ON:
        pytest.skip("off the pinned scipy the fallbacks import the public packages")


def test_the_package_imports_no_public_scipy_package():
    # a removal, not a deferral: the cli, both drivers at one and two
    # workers, every family and the criteria that decompose -f_hat run
    # without importing any of them, nor LAPACK's scipy wrappers, which the
    # package no longer calls
    _pinned_or_skip()
    assert _run_child(DRIVERS_CHILD.format(packages=PUBLIC_SCIPY + ("scipy.linalg._flapack",))) == ""


@pytest.mark.parametrize("order", [("package", "public"), ("public", "package")], ids="-then-".join)
def test_public_scipy_runs_next_to_the_package(order):
    # the public routines run, and each extension module is initialized
    # once, whichever is imported first.  A package imported after qmselect
    # does not bind the module qmselect loaded as its attribute
    # (``scipy.signal._sigtools``); ``from scipy.signal._sigtools import
    # ...``, the only form scipy itself uses, still finds it.  The package
    # does not load ``scipy.linalg._flapack``, so ``scipy.linalg`` binds it
    # in both orders
    _pinned_or_skip()
    bound = order[0] == "public"
    assert json.loads(_run_child(PUBLIC_CHILD, *order)) == [bound, bound, True]


# ---------------------------------------------------------------------------
# nesting


def test_nesting_examples():
    assert q.is_nested(q.arma(1, 0), q.arma(2, 1))
    assert not q.is_nested(q.arma(2, 1), q.arma(1, 0))
    assert q.is_nested(q.wn(), q.garch(1, 1))
    assert q.is_nested(q.wn(), q.arma(1, 1))
    assert not q.is_nested(q.arma(1, 0), q.garch(2, 2))
    assert not q.is_nested(q.garch(1, 1), q.arma(2, 2))
    assert q.is_nested(q.garch(1, 1), q.aparch(2.0, 1, 1))
    assert not q.is_nested(q.garch(1, 1), q.aparch(1.5, 1, 1))
    assert q.is_nested(q.garch(2, 0), q.ararch(2))
    assert q.is_nested(q.arma(1, 0), q.ararch(1))


def test_white_noise_is_inside_every_family_and_holds_only_itself():
    outers = [q.arma(0, 1), q.garch(1, 0), q.aparch(1.5, 0, 1), q.ararch(0)]
    assert [s.family for s in outers] == list(q.Family)
    for outer in outers:
        assert q.is_nested(q.wn(), outer)
    fam = q.expand_family(
        "arma(0..2,0..2)+garch(0..2,0..2)+aparch(1.5;0..1,0..1)+aparch(2;0..1,0..1)+ararch(0..2)"
    )
    for spec in fam:
        assert q.is_nested(spec, q.wn()) == (spec == q.wn())


def test_nesting_reflexive_transitive():
    fam = q.expand_family("arma(0..2,0..2)+garch(0..2,0..2)")
    for m in fam:
        assert q.is_nested(m, m)
    for a in fam:
        for b in fam:
            for c in fam:
                if q.is_nested(a, b) and q.is_nested(b, c):
                    assert q.is_nested(a, c)


# ---------------------------------------------------------------------------
# trajectory CSV round trip


def test_trajectory_csv_round_trip(tmp_path):
    traj = q.simulate(q.wn(), [1.0], 25, seed=2)
    path = tmp_path / "x.csv"
    traj.to_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "x"
    back = q.Trajectory.from_csv(path)
    assert np.array_equal(back.values, traj.values)


def test_trajectory_csv_with_a_utf8_byte_order_mark_reads_the_same_values(tmp_path):
    traj = q.simulate(q.wn(), [1.0], 25, seed=2)
    path = tmp_path / "x.csv"
    traj.to_csv(path)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert np.array_equal(q.Trajectory.from_csv(bom).values, traj.values)


def test_trajectory_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y\n1.0\n")
    with pytest.raises(ValueError):
        q.Trajectory.from_csv(path)


# ---------------------------------------------------------------------------
# a trajectory is an array to numpy


def test_a_trajectory_is_its_values_to_numpy():
    traj = q.simulate(q.wn(), [1.0], 25, seed=2)
    assert np.asarray(traj, dtype=float) is traj.values
    copied = np.array(traj)
    assert copied is not traj.values and np.array_equal(copied, traj.values)


#: every public function that takes a series, called on the series ``x`` of
#: a garch(1,1) fit ``fit`` at its optimum ``v``
_SERIES_CALLS = {
    "fit": lambda x, fit, v: q.fit(fit.spec, x),
    "fit_family": lambda x, fit, v: q.fit_family([q.wn(), fit.spec], x),
    "select": lambda x, fit, v: q.select([q.wn(), fit.spec], x, q.BIC),
    "select_from_fits": lambda x, fit, v: q.select_from_fits([fit], x, q.KC),
    "contrast": lambda x, fit, v: q.contrast(fit.spec, v, x),
    "gamma_bar": lambda x, fit, v: q.gamma_bar(fit.spec, v, x),
    "gradient": lambda x, fit, v: q.gradient(fit.spec, v, x),
    "cond_moments": lambda x, fit, v: q.cond_moments(fit.spec, v, x),
    "residuals": lambda x, fit, v: q.residuals(fit.spec, v, x),
    "derivatives": lambda x, fit, v: q.derivatives(fit.spec, v, x),
    "info_matrices": lambda x, fit, v: q.info_matrices(fit, x),
    "mu4_hat": lambda x, fit, v: q.mu4_hat(x),
}


@pytest.fixture(scope="module")
def garch_sample():
    traj = q.simulate(q.garch(1, 1), [1.0, 0.35, 0.4], 300, seed=4)
    return traj, q.fit(q.garch(1, 1), traj.values)


@pytest.mark.parametrize("name", list(_SERIES_CALLS))
def test_every_series_taking_function_accepts_a_trajectory(garch_sample, name):
    # what simulate returns goes wherever its values go, with the same result
    traj, fit = garch_sample
    call, v = _SERIES_CALLS[name], fit.theta.values
    assert pickle.dumps(call(traj, fit, v)) == pickle.dumps(call(traj.values, fit, v))


def _arch_filter_by_lag_copies(v, layout, inputs, n):
    """The ARCH filter as each lagged input was once added: a zero-padded
    lagged copy of the whole input, and a polynomial converted from a list."""
    u = np.full(n, v[layout.omega.start])
    a = v[layout.a]
    for i, w in enumerate(inputs):
        u += a[i] * _lag(w, i + 1)
    poly = np.concatenate(([1.0], -v[layout.b]))
    return models._ar_filter(poly, u), poly


@pytest.mark.parametrize(
    "spec,theta",
    [
        (q.garch(2, 2), (0.2, 0.1, 0.05, 0.3, 0.2)),
        (q.aparch(1.5, 2, 1), (0.2, 0.05, 0.1, -0.4, 0.5, 0.6)),
        (q.ararch(3), (0.5, 0.4, 0.2, 0.1, 0.1)),
    ],
    ids=str,
)
def test_the_in_slice_arch_filter_is_the_lag_copy_filter_to_the_byte(monkeypatch, spec, theta):
    # the pre-sample terms of a lag copy only ever added exact zeros, on the
    # real recursion and on every complex step of the Hessian
    x = q.simulate(spec, theta, 400, seed=17).values
    v = np.asarray(theta, dtype=float)
    points = [v]
    for k in range(v.size):
        vc = v.astype(complex)
        vc[k] += 1j * q.likelihood.CS_STEP
        points.append(vc)
    sample = models._Sample(x)
    got = [models._recursion(spec, p, sample) for p in points]
    monkeypatch.setattr(models, "_arch_filter", _arch_filter_by_lag_copies)
    want = [models._recursion(spec, p, sample) for p in points]
    for g, w in zip(got, want):
        for field in ("level", "h", "poly"):
            a, b = np.asarray(getattr(g, field)), np.asarray(getattr(w, field))
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
