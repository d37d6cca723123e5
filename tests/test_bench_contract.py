"""The traced benchmark wraps package names from outside (``perfbench/tracer.py``).

These tests pin that contract: every name the tracer patches must exist in the
module it patches, must be called from there during a driver run, and must be
restored afterwards.
"""

import os

import pytest

import qmselect as q

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    return tracer


def tiny_efficiency_config():
    spec = q.arma(1, 0)
    return q.ExperimentConfig(
        dgp=spec,
        dgp_theta=(0.5, 1.0),
        family=(q.wn(), spec),
        n_values=(200,),
        n_reps=1,
        criteria=("kcprime",),
        master_seed=5,
        oracle_n=10_000,
    )


def boundary_table(tracer):
    """key -> (module, attribute, span name), read without patching anything."""
    table = tracer.Tracer(timed=False, boundaries=())._boundaries()
    return {key: entry[:3] for key, entry in table.items()}


def test_full_tracer_counts_every_span_and_restores(tracer):
    table = boundary_table(tracer)
    originals = {key: getattr(module, attr) for key, (module, attr, _) in table.items()}
    tr = tracer.Tracer(timed=False)
    try:
        q.run_efficiency(tiny_efficiency_config())
    finally:
        tr.uninstall()
    for key, (module, attr, name) in table.items():
        assert tr.counts[name + ".calls"] >= 1, name
        assert getattr(module, attr) is originals[key], key


def test_each_boundary_is_called_where_it_is_patched(tracer):
    table = boundary_table(tracer)
    originals = {key: getattr(module, attr) for key, (module, attr, _) in table.items()}
    tracers = {key: tracer.Tracer(timed=False, boundaries=(key,)) for key in table}
    try:
        q.run_efficiency(tiny_efficiency_config())
    finally:
        for tr in reversed(list(tracers.values())):
            tr.uninstall()
    for key, (module, attr, name) in table.items():
        assert tracers[key].counts[name + ".calls"] >= 1, key
        assert getattr(module, attr) is originals[key], key
