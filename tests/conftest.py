import itertools

import numpy as np
import pytest

import qmselect as q

# the three reference data-generating processes used across the suite
DGP1 = (q.arma(2, 0), (0.4, 0.4, 1.0))
DGP2 = (q.arma(1, 1), (0.5, 0.6, 1.0))
DGP3 = (q.garch(1, 1), (1.0, 0.35, 0.4))


@pytest.fixture(scope="session")
def dgp1():
    return DGP1


@pytest.fixture(scope="session")
def dgp2():
    return DGP2


@pytest.fixture(scope="session")
def dgp3():
    return DGP3


@pytest.fixture(scope="session")
def dgp2_series_2000():
    spec, theta = DGP2
    return q.simulate(spec, np.array(theta), 2000, seed=909)


@pytest.fixture(scope="session")
def dgp3_series_2000():
    spec, theta = DGP3
    return q.simulate(spec, np.array(theta), 2000, seed=910)


@pytest.fixture(scope="session")
def dgp2_fit_2000(dgp2_series_2000):
    return q.fit(q.arma(1, 1), dgp2_series_2000)


@pytest.fixture(scope="session")
def dgp3_fit_2000(dgp3_series_2000):
    return q.fit(q.garch(1, 1), dgp3_series_2000)


#: every spec of the shipped configs' families (configs/ and
#: perfbench/configs/), each once
SHIPPED_SPECS = q.expand_family(
    "wn + arma(0..6,0..6) + garch(0..6,0..6) + aparch(1.5;1,0..1) + aparch(2;1,1) + ararch(1..2)"
)


def budgets(cs):
    """Each budget of ``cs`` as its coordinates (a list), whether it is
    signed, read from the box and not from the set's triple, and its bound."""
    out = []
    for idx, _, bound in cs.groups:
        coords = np.arange(cs.dim)[idx].tolist()
        out.append((coords, bool(cs.lower[coords[0]] < 0.0), bound))
    return out


def sign_rows(coords, signed):
    """A budget's rows of the budget matrix over its coordinates: the 2^k
    sign rows of a signed budget in ``itertools.product`` order, the last
    varying fastest, else one row of ones."""
    return list(itertools.product((1.0, -1.0), repeat=len(coords))) if signed else [(1.0,) * len(coords)]


#: entries no feasible point has, drawn next to ordinary ones
SPECIAL_VALUES = (float("nan"), float("inf"), -float("inf"), -0.0, 0.0)


def draw_edge_vector(data, cs):
    """A vector of ``cs.dim`` entries drawn with hypothesis's ``data``: each
    one inside its box, on a box edge or one ``FEASIBILITY_TOL`` beside it,
    one of ``SPECIAL_VALUES``, or anywhere in [-3, 3]."""
    from hypothesis import strategies as st

    tol = q.models.FEASIBILITY_TOL
    v = np.empty(cs.dim)
    for i, (lo, hi) in enumerate(zip(cs.lower.tolist(), cs.upper.tolist())):
        kind = data.draw(st.sampled_from(("inside", "edge", "special", "wide")))
        if kind == "inside":
            v[i] = data.draw(st.floats(lo, hi))
        elif kind == "edge":
            v[i] = data.draw(st.sampled_from((lo, hi))) + data.draw(st.sampled_from((-tol, 0.0, tol)))
        elif kind == "special":
            v[i] = data.draw(st.sampled_from(SPECIAL_VALUES))
        else:
            v[i] = data.draw(st.floats(-3.0, 3.0))
    return v
