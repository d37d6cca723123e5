"""End-to-end acceptance gate.

Each test covers one shipping criterion, prints a single [PASS]/[FAIL] line
with the measured numbers (run with ``-s`` to see them), and asserts both the
criterion and its wall-clock budget.  Experiment-level checks use fixed master
seeds, so the numbers below are reproducible bit-for-bit on any machine.
"""

import json
import math
import time

import numpy as np

import qmselect as q
from qmselect.cli import main as cli_main
from qmselect.models import constraint_set

from conftest import DGP1, DGP2, DGP3


def _report(ok: bool, label: str, t0: float) -> float:
    elapsed = time.perf_counter() - t0
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label} [{elapsed:.1f}s]")
    return elapsed


def _fake_fit(spec, gbar, n):
    return q.FitResult(
        spec=spec, theta=q.ParamVector(spec, np.full(spec.dim, 0.1)), gamma_bar_min=gbar,
        loglik=-0.5 * n * gbar, converged=True, n_used=n, grad_norm=0.0, iterations=1,
    )


def test_criterion_1_formula_agreement():
    """Criterion values match independent recomputation to 1e-12 relative,
    and the kcprime/bic gap equals its closed form at the same precision."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(50, 20_000))
        gbar = float(rng.uniform(0.2, 4.0))
        logdet = float(rng.uniform(-5.0, 5.0))
        tp_rate = float(rng.uniform(0.0, 0.1))
        spec = q.wn() if m == 1 else q.arma(m - 1, 0)
        fit = _fake_fit(spec, gbar, n)
        info = q.InfoMatrices(-np.eye(m), np.eye(m), logdet, tp_rate)
        expected = {
            "aic": n * gbar + 2.0 * m,
            "bic": n * gbar + m * math.log(n),
            "hq": n * gbar + m * math.log(math.log(n)),
            "tracepen": n * gbar + n * tp_rate,
            "kc": n * gbar + m * math.log(n) + logdet,
            "kcprime": n * gbar
            + (m * math.log(n) - m * math.log(2 * math.pi) + 2 * math.log(m))
            + logdet,
        }
        got = {
            k: q.criterion_value(fit, q.CriterionKind.named(k), info=info).value for k in expected
        }
        for k in expected:
            worst = max(worst, abs(got[k] - expected[k]) / max(1.0, abs(expected[k])))
        gap = got["kcprime"] - got["bic"]
        gap_cf = -m * math.log(2 * math.pi) + logdet + 2 * math.log(m)
        worst = max(worst, abs(gap - gap_cf) / max(1.0, abs(got["bic"])))
    ok = worst <= 1e-12
    elapsed = _report(ok, f"criterion values & kcprime-bic gap: worst rel err {worst:.2e} (<= 1e-12)", t0)
    assert ok and elapsed < 1.0


def test_criterion_2_gradients_and_hessians():
    """Analytic scores match test-side finite differences to 1e-5 relative at
    twenty interior points per family; finite-difference Hessians are
    symmetric to 1e-10 relative."""
    t0 = time.perf_counter()

    def fd(spec, theta, x):
        out = np.empty(theta.size)
        for k in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[k]))
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            out[k] = (q.gamma_bar(spec, tp, x) - q.gamma_bar(spec, tm, x)) / (2 * h)
        return out

    rng = np.random.default_rng(77)
    worst_g = 0.0
    worst_h = 0.0
    for spec, draw in [
        (q.arma(1, 1), lambda: np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), rng.uniform(0.5, 2.0)])),
        (q.garch(1, 1), lambda: np.array([rng.uniform(0.1, 2.0), rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45)])),
    ]:
        x = q.simulate(spec, draw(), 500, seed=int(rng.integers(1e6))).values
        for i in range(20):
            theta = draw()
            ga = q.gradient(spec, theta, x)
            gf = fd(spec, theta, x)
            worst_g = max(worst_g, float(np.max(np.abs(ga - gf)) / max(1.0, np.max(np.abs(gf)))))
            if i < 5:
                hess = q.derivatives(spec, theta, x).hessian
                asym = float(np.max(np.abs(hess - hess.T)) / max(1.0, np.max(np.abs(hess))))
                worst_h = max(worst_h, asym)
    ok = worst_g <= 1e-5 and worst_h <= 1e-10
    elapsed = _report(
        ok, f"score vs FD rel err {worst_g:.2e} (<= 1e-5); hessian asymmetry {worst_h:.2e} (<= 1e-10)", t0
    )
    assert ok and elapsed < 30.0


def test_criterion_3_trace_penalty_agreement():
    """At n = 20000 the estimated n * trace penalty is within 15% of the
    closed form for a well-specified arma(1,1) and garch(1,1)."""
    t0 = time.perf_counter()
    rels = {}
    for (spec, theta), seed in [(DGP2, 333), (DGP3, 334)]:
        x = q.simulate(spec, theta, 20_000, seed=seed).values
        res = q.fit(spec, x)
        assert res.converged
        info = q.info_matrices(res, x)
        mu4 = q.mu4_hat(q.residuals(spec, res.theta.values, x))
        cf = q.closed_form_trace(spec, mu4=mu4)
        rels[spec.name] = abs(x.size * info.trace_pen - cf.value) / cf.value
    ok = all(r <= 0.15 for r in rels.values())
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in rels.items())
    elapsed = _report(ok, f"n*trace_pen vs closed form rel err {detail} (<= 0.15)", t0)
    assert ok and elapsed < 120.0


def test_criterion_4_ar2_estimation_accuracy():
    """Fitting the ar(2) generator at n = 10000 lands within 0.05 of the true
    parameters (sup norm) in at least 19 of 20 seeded replications."""
    t0 = time.perf_counter()
    spec, theta = DGP1
    hits = 0
    worst = 0.0
    for seed in range(400, 420):
        x = q.simulate(spec, theta, 10_000, seed=seed).values
        res = q.fit(spec, x)
        err = float(np.max(np.abs(res.theta.values - theta)))
        worst = max(worst, err)
        hits += res.converged and err <= 0.05
    ok = hits >= 19
    elapsed = _report(ok, f"ar(2) n=10000: {hits}/20 within 0.05 (worst {worst:.4f}; need >= 19)", t0)
    assert ok and elapsed < 60.0


def test_criterion_5_consistency_ordering():
    """Selection frequencies on arma(1,1) data at n = 1000 over 100
    replications: bic picks the true model >= 75%, kcprime within 5 points of
    bic, aic no better than bic."""
    t0 = time.perf_counter()
    spec, theta = DGP2
    cfg = q.ExperimentConfig(
        dgp=spec,
        dgp_theta=tuple(theta),
        family=tuple(q.expand_family("arma(0..2,0..2) + garch(1,1)")),
        n_values=(1000,),
        n_reps=100,
        criteria=("aic", "bic", "kcprime"),
        master_seed=20260814,
    )
    table = q.run_consistency(cfg)
    pct = {c: table.pct(1000, c, "true_model") for c in cfg.criteria}
    ok = pct["bic"] >= 75.0 and pct["kcprime"] >= pct["bic"] - 5.0 and pct["aic"] <= pct["bic"]
    elapsed = _report(
        ok,
        f"consistency n=1000: true% aic {pct['aic']:.0f}, bic {pct['bic']:.0f}, "
        f"kcprime {pct['kcprime']:.0f} (bic >= 75, kcprime >= bic-5, aic <= bic)",
        t0,
    )
    assert ok and elapsed < 600.0


def test_criterion_6_efficiency_ordering():
    """Held-out excess risk on arma(1,1) data at n = 2000 over 100
    replications: aic pays a strictly higher selection price than bic and
    kcprime, and bic stays below 1.0."""
    t0 = time.perf_counter()
    spec, theta = DGP2
    cfg = q.ExperimentConfig(
        dgp=spec,
        dgp_theta=tuple(theta),
        family=tuple(q.expand_family("arma(0..2,0..2) + garch(1,1)")),
        n_values=(2000,),
        n_reps=100,
        criteria=("aic", "bic", "kcprime"),
        master_seed=20260814,
        oracle_n=100_000,
    )
    table = q.run_efficiency(cfg)
    me = {c: table.me(2000, c) for c in cfg.criteria}
    ok = me["aic"] > me["bic"] and me["aic"] > me["kcprime"] and me["bic"] <= 1.0
    elapsed = _report(
        ok,
        f"efficiency n=2000: ME aic {me['aic']:.4f}, bic {me['bic']:.4f}, "
        f"kcprime {me['kcprime']:.4f} (aic > bic, aic > kcprime, bic <= 1.0)",
        t0,
    )
    assert ok and elapsed < 900.0


def test_criterion_7_overfit_pressure():
    """On ar(2) data at n = 1000 over 200 replications, aic overfits at least
    5% of the time while bic is wrong no more often than aic."""
    t0 = time.perf_counter()
    spec, theta = DGP1
    cfg = q.ExperimentConfig(
        dgp=spec,
        dgp_theta=tuple(theta),
        family=tuple(q.expand_family("arma(0..2,0..2)")),
        n_values=(1000,),
        n_reps=200,
        criteria=("aic", "bic"),
        master_seed=20260901,
    )
    table = q.run_consistency(cfg)
    over_aic = table.pct(1000, "aic", "overfit")
    wrong = {c: 100.0 - table.pct(1000, c, "true_model") for c in cfg.criteria}
    ok = over_aic >= 5.0 and wrong["bic"] <= wrong["aic"]
    elapsed = _report(
        ok,
        f"overfit pressure n=1000: aic overfit {over_aic:.1f}% (>= 5), wrong% aic "
        f"{wrong['aic']:.1f} vs bic {wrong['bic']:.1f} (bic <= aic)",
        t0,
    )
    assert ok and elapsed < 600.0


def test_criterion_8_oracle_risk_optimality():
    """On a 100000-point held-out trajectory the true parameter's risk is not
    beaten by random feasible alternatives beyond twice the paired standard
    error, for all three generators."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    failures = []
    margin_worst = -np.inf
    for dgp_idx, (spec, theta) in enumerate((DGP1, DGP2, DGP3)):
        theta = np.asarray(theta, dtype=float)
        cset = constraint_set(spec)
        traj = q.simulate(spec, theta, 100_000, seed=9000 + dgp_idx)
        star = q.contrast(spec, theta, traj.values).per_t
        for _ in range(10):
            alt = cset.project(theta + rng.uniform(-0.15, 0.15, size=theta.size))
            if np.allclose(alt, theta):
                continue
            diff = star - q.contrast(spec, alt, traj.values).per_t
            mean_d = float(np.mean(diff))
            se = float(np.std(diff, ddof=1) / math.sqrt(diff.size))
            margin_worst = max(margin_worst, mean_d - 2.0 * se)
            if mean_d > 2.0 * se:
                failures.append((spec.name, alt, mean_d, se))
    ok = not failures
    elapsed = _report(
        ok,
        f"oracle risk optimality: worst mean-diff minus 2*SE {margin_worst:.2e} "
        f"(<= 0), {len(failures)} violations over 30 alternatives",
        t0,
    )
    assert ok and elapsed < 120.0


def test_criterion_9_cli_thread_determinism(tmp_path):
    """The mc-consistency subcommand writes byte-identical tables for any
    --threads value."""
    t0 = time.perf_counter()
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "[experiment]\n"
        "schema = 1\n"
        "master_seed = 606\n"
        "n_values = 200\n"
        "n_reps = 10\n"
        "criteria = aic, bic\n"
        "output_dir = unused\n"
        "\n"
        "[dgp]\n"
        "model = arma(1,1)\n"
        "theta = 0.5, 0.6, 1.0\n"
        "\n"
        "[family]\n"
        "models = wn + arma(0..1,0..1)\n"
    )
    outputs = []
    for threads, sub in ((1, "t1"), (2, "t2")):
        out_dir = tmp_path / sub
        code = cli_main(
            ["mc-consistency", "--config", str(cfg_path), "--threads", str(threads),
             "--out-dir", str(out_dir)]
        )
        assert code == 0
        outputs.append((out_dir / "consistency.csv").read_bytes())
        meta = json.loads((out_dir / "consistency.meta.json").read_text())
        assert meta["master_seed"] == 606
    ok = outputs[0] == outputs[1]
    elapsed = _report(ok, "mc-consistency --threads 1 vs 2: byte-identical csv", t0)
    assert ok and elapsed < 120.0
