"""Workloads, measurement, correctness gate and report of the qmselect benchmark.

Every run drives the package through its public calls only
(``qmselect.cli.parse_config_file``, ``run_consistency``, ``run_efficiency``),
single process, ``threads=1``.

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then, after a warm-up, driver calls for ``--seconds`` seconds,
each made on the package and on ``qmselect_base`` (a frozen copy of it) with
the same data, so that the speed ratio cancels data cost and host drift.
``--trace 1`` runs a fixed number of driver calls twice, once with call
counters only and once with spans, and reports per-layer self times and
counts; the two passes must agree exactly on tables and counts.

Driver call ``i`` of a run with seed ``s`` uses ``master_seed = s * ITER_STRIDE + i``
and the workload's ``reps_per_call`` replications at every n of its config,
so the same seed always gives the same trajectories.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import qmselect
from qmselect import run_consistency, run_efficiency
from qmselect.cli import parse_config_file
from qmselect.montecarlo import CLASSES, ConsistencyTable

import qmselect_base
from qmselect_base import cli as frozen_cli
from tracer import LAYERS, Tracer

ITER_STRIDE = 1_000_000
SETUP_REPEATS = 5
#: an untraced run measures at least this many replications, so that a
#: full_protocol run (4 replications per call) pools two call pairs
MIN_REPS = 8
#: specs whose per-fit time the report prints (the ROADMAP's per-fit baselines)
BASELINE_SPECS = ("garch(1,1)", "aparch(1.5;1,1)", "ararch(2)")
#: boundaries the untraced run counts (no clocks): fit outcomes and info exclusions
UNTRACED_COUNTERS = ("fit_family", "info_matrices")
INFO_RAISED = "information.info_matrices.raised."

SETUP_CODE = """
import sys, time
w0, c0 = time.perf_counter(), time.process_time()
sys.path.insert(0, sys.argv[1])
import qmselect
from qmselect.cli import parse_config_file
parse_config_file(sys.argv[2])
print(time.process_time() - c0, time.perf_counter() - w0)
"""


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # relative to the checkout root
    driver: str  # "consistency" or "efficiency"
    reps_per_call: int
    traced_calls: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "garch_desk_eff", "configs/garch11_desk.cfg", "efficiency", 2, 6,
            "only workload on the oracle path: a 101k-step GARCH simulation per n and "
            "held-out scoring, so simulation and oracle changes show here",
        ),
        Workload(
            "arma_desk", "configs/arma11_desk.cfg", "consistency", 2, 8,
            "fit-bound on the analytic arma/garch gradient path, with the ARMA KKT "
            "failures and boundary exclusions, so optimizer, warm-start and KKT changes show here",
        ),
        Workload(
            "aparch_ararch", "perfbench/configs/aparch_ararch.cfg", "consistency", 1, 10,
            "only workload on the finite-difference gradient path (aparch, ararch), "
            "where analytic aparch/ararch derivatives show",
        ),
        # Not in BENCHMARK.json: one call (a replication at each of four n)
        # costs 24-35 s, so a paired run takes a minute and does not fit the
        # time budget next to the others.  Run it by hand for the projected
        # protocol cost.
        Workload(
            "full_protocol", "configs/full_protocol.cfg", "consistency", 1, 1,
            "97-model family at n = 200, 500, 1000, 2000: bound by analytic-gradient "
            "fitting and info matrices; prints the projected cost of the whole protocol",
        ),
    )
}

DRIVERS = {"consistency": run_consistency, "efficiency": run_efficiency}
FROZEN_DRIVERS = {"consistency": qmselect_base.run_consistency, "efficiency": qmselect_base.run_efficiency}


class CheckFailed(Exception):
    """An output or determinism check failed; the run reports no metrics."""


# ---------------------------------------------------------------------------
# configs and tables


def call_config(base, wl: Workload, seed: int, i: int):
    return dataclasses.replace(base, n_reps=wl.reps_per_call, master_seed=seed * ITER_STRIDE + i)


def check_config(base, seed: int):
    """Small config for the thread-invariance check: the dgp plus the first
    few family members, two replications at the smallest n."""
    family = tuple(dict.fromkeys(base.family[:4] + (base.dgp,)))
    return dataclasses.replace(
        base, family=family, n_values=(min(base.n_values),), n_reps=2,
        oracle_n=10_000, master_seed=seed,
    )


def table_csv(table, scratch: Path) -> bytes:
    table.to_csv(scratch)
    return scratch.read_bytes()


def validate(table) -> list[str]:
    """Problems with one table: class shares must sum to 100 and ``me`` must
    be finite wherever a criterion picked at least once."""
    problems = []
    for n in table.n_values:
        for crit in table.criteria:
            if isinstance(table, ConsistencyTable):
                if sum(table.count(n, crit, c) for c in CLASSES) != table.n_reps:
                    problems.append(f"n={n} {crit}: class counts do not sum to n_reps")
                total = sum(table.pct(n, crit, c) for c in CLASSES)
                if abs(total - 100.0) > 1e-9:
                    problems.append(f"n={n} {crit}: class percentages sum to {total!r}")
            else:
                failed = table.failed[(n, crit)]
                if not 0 <= failed <= table.n_reps:
                    problems.append(f"n={n} {crit}: failed = {failed}")
                if failed < table.n_reps and not math.isfinite(table.me(n, crit)):
                    problems.append(f"n={n} {crit}: me = {table.me(n, crit)!r} with picks")
    return problems


def pick_failures(table) -> tuple[int, int]:
    """(picks failed, picks attempted) over (n, replication, criterion)."""
    attempted = table.n_reps * len(table.n_values) * len(table.criteria)
    if isinstance(table, ConsistencyTable):
        failed = sum(table.count(n, c, "failed") for n in table.n_values for c in table.criteria)
    else:
        failed = sum(table.failed.values())
    return failed, attempted


def selection_summary(tables) -> dict:
    """Information only: true-model rate (consistency) or mean ``me``
    (efficiency) per n and criterion, pooled over the run's driver calls."""
    out = {}
    first = tables[0]
    for n in first.n_values:
        for crit in first.criteria:
            if isinstance(first, ConsistencyTable):
                hits = sum(t.count(n, crit, "true_model") for t in tables)
                out[f"pct_true n={n} {crit}"] = round(100.0 * hits / sum(t.n_reps for t in tables), 3)
            else:
                out[f"me n={n} {crit}"] = round(float(np.mean([t.me(n, crit) for t in tables])), 6)
    return out


def check_tables(tables, label: str) -> None:
    for k, t in enumerate(tables):
        problems = validate(t)
        if problems:
            raise CheckFailed(f"{label} call {k}: " + "; ".join(problems))


def check_threads(base, seed: int, scratch: Path) -> None:
    """Both drivers on a small config: threads=1 and threads=2 must give
    byte-identical, valid tables."""
    cfg = check_config(base, seed)
    for name, driver in DRIVERS.items():
        one = driver(cfg, threads=1)
        check_tables([one], f"{name} check")
        if table_csv(one, scratch) != table_csv(driver(cfg, threads=2), scratch):
            raise CheckFailed(f"{name} tables differ between threads=1 and threads=2")


# ---------------------------------------------------------------------------
# measurement


def measure_setup(root: Path, config_path: Path) -> list[tuple[float, float]]:
    """(CPU, wall) seconds to import qmselect and parse the config, each in a
    fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(root / "src"), str(config_path)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        cpu, wall = map(float, out.stdout.split())
        times.append((cpu, wall))
    return times


def timed_call(driver, cfg):
    w0, c0 = time.perf_counter(), time.process_time()
    table = driver(cfg, threads=1)
    return time.perf_counter() - w0, time.process_time() - c0, table


def driver_calls(wl: Workload, base, seed: int, tracer: Tracer, calls: int):
    """Driver calls 0 .. calls-1 on the package under test; returns the tables."""
    tables = []
    for i in range(calls):
        cfg = call_config(base, wl, seed, i)
        tracer.expect(cfg, i)
        span = tracer.open_span("montecarlo.driver")
        tables.append(DRIVERS[wl.driver](cfg, threads=1))
        tracer.close_span(span)
    return tables


def paired_calls(wl: Workload, base, frozen_base, seed: int, seconds: float):
    """Driver call pairs 0, 1, ... until ``seconds`` have passed and at least
    ``MIN_REPS`` replications are done.  Pair i runs call i on the package
    under test and on the frozen baseline copy, same config and data, in
    alternating order.  Returns per-pair (wall, cpu, baseline cpu, table)."""
    driver, frozen_driver = DRIVERS[wl.driver], FROZEN_DRIVERS[wl.driver]
    start = time.perf_counter()
    out = []
    reps = 0
    while True:
        i = len(out)
        cfg = call_config(base, wl, seed, i)
        frozen_cfg = call_config(frozen_base, wl, seed, i)
        if i % 2:
            frozen_cpu = timed_call(frozen_driver, frozen_cfg)[1]
            wall, cpu, table = timed_call(driver, cfg)
        else:
            wall, cpu, table = timed_call(driver, cfg)
            frozen_cpu = timed_call(frozen_driver, frozen_cfg)[1]
        out.append((wall, cpu, frozen_cpu, table))
        reps += cfg.n_reps * len(cfg.n_values)
        if reps >= MIN_REPS and time.perf_counter() - start >= seconds:
            return out


def traced_pass(wl: Workload, config_path: Path, seed: int, timed: bool):
    """One pass of a traced run: parse the config, then ``wl.traced_calls``
    driver calls.  Returns (wall seconds, tables, tracer, start time)."""
    tracer = Tracer(timed=timed)
    try:
        t0 = time.perf_counter()
        span = tracer.open_span("cli.parse_config")
        base = parse_config_file(str(config_path)).experiment
        tracer.close_span(span)
        tables = driver_calls(wl, base, seed, tracer, wl.traced_calls)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return wall, tables, tracer, t0


def frac(num: int, den: int) -> float:
    return num / den if den else 0.0


def outcomes(counts: Counter, tables, scratch: Path) -> dict:
    """Fit, info-matrix and pick outcomes of a run, plus the table digest and
    selection summary; information only, not metrics."""
    excluded = {k.rsplit(".", 1)[1]: v for k, v in counts.items() if k.startswith(INFO_RAISED)}
    picks_failed, picks = map(sum, zip(*(pick_failures(t) for t in tables)))
    return {
        "fits": counts["fitting.fits"],
        "fit_fail_frac": frac(counts["fitting.fits_failed"], counts["fitting.fits"]),
        "info_matrices_calls": counts["information.info_matrices.calls"],
        "info_excluded": excluded,
        "info_excluded_frac": frac(sum(excluded.values()), counts["information.info_matrices.calls"]),
        "picks": picks,
        "picks_failed": picks_failed,
        "pick_fail_frac": frac(picks_failed, picks),
        "table_sha256": hashlib.sha256(b"".join(table_csv(t, scratch) for t in tables)).hexdigest(),
        **selection_summary(tables),
    }


# ---------------------------------------------------------------------------
# runs


def untraced_run(wl, base, config_path, seed, seconds, root, scratch):
    setup = measure_setup(root, config_path)
    check_threads(base, seed, scratch)  # also the warm-up
    frozen_base = frozen_cli.parse_config_file(str(config_path)).experiment
    for frozen_driver in FROZEN_DRIVERS.values():  # warm the baseline copy too
        frozen_driver(check_config(frozen_base, seed), threads=1)
    counter = Tracer(timed=False, boundaries=UNTRACED_COUNTERS)
    try:
        calls = paired_calls(wl, base, frozen_base, seed, seconds)
    finally:
        counter.uninstall()
    tables = [t for *_, t in calls]
    check_tables(tables, wl.name)
    reps = sum(t.n_reps * len(t.n_values) for t in tables)
    cpu = sum(c for _, c, _, _ in calls)
    frozen_cpu = sum(f for _, _, f, _ in calls)
    rate = reps / cpu
    metrics = {
        "speed_vs_base": (statistics.median(f / c for _, c, f, _ in calls), "x"),
        "setup_s": (statistics.median(c for c, _ in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "reps_per_s": rate,
        "reps_per_wall_s": reps / sum(w for w, _, _, _ in calls),
        "baseline_reps_per_s": reps / frozen_cpu,
        "driver_calls": len(calls),
        "replications": reps,
        "call_cpu_s (package, baseline)": [(round(c, 4), round(f, 4)) for _, c, f, _ in calls],
        "setup_s_samples (cpu, wall)": [(round(c, 4), round(w, 4)) for c, w in setup],
        **outcomes(counter.counts, tables, scratch),
    }
    info["projected_config_h"] = base.n_reps * len(base.n_values) / rate / 3600.0
    return metrics, info, {}


def traced_run(wl, base, config_path, seed, scratch, spans_path):
    check_threads(base, seed, scratch)  # also the warm-up
    counted_wall, counted_tables, counted, _ = traced_pass(wl, config_path, seed, timed=False)
    wall, tables, tracer, t0 = traced_pass(wl, config_path, seed, timed=True)
    check_tables(tables, wl.name)
    if [table_csv(t, scratch) for t in tables] != [table_csv(t, scratch) for t in counted_tables]:
        raise CheckFailed("tables differ between two passes at the same seed")
    if counted.counts != tracer.counts:
        diff = {k: (counted.counts[k], tracer.counts[k])
                for k in set(counted.counts) | set(tracer.counts) if counted.counts[k] != tracer.counts[k]}
        raise CheckFailed(f"work counts differ between two passes at the same seed: {diff}")

    selfs, calls = tracer.self_times()
    counts = tracer.counts
    outcome = outcomes(counts, tables, scratch)
    layer_self = Counter()
    for name, seconds in selfs.items():
        layer_self[name.split(".", 1)[0]] += seconds
    metrics = {}
    for name in ("models.simulate", "models.cond_moments", "likelihood.contrast",
                 "likelihood.gradient", "likelihood.derivatives", "fitting.fit",
                 "information.info_matrices", "criteria.select_from_fits"):
        metrics[f"{name}.s"] = (selfs.get(name, 0.0), "s")
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    metrics["fitting.slsqp.s"] = (selfs.get("fitting.slsqp", 0.0), "s")
    for key in ("nit", "nfev", "njev"):
        metrics[f"fitting.slsqp.{key}"] = (counts[f"fitting.slsqp.{key}"], "count")
    metrics["fitting.converged_frac"] = (1.0 - outcome["fit_fail_frac"], "fraction")
    for reason in ("BoundaryTooClose", "SingularF"):
        metrics[f"information.excluded.{reason}"] = (outcome["info_excluded"].get(reason, 0), "count")
    metrics["information.excluded_frac"] = (outcome["info_excluded_frac"], "fraction")
    metrics["montecarlo.driver.s"] = (selfs.get("montecarlo.driver", 0.0), "s")
    metrics["cli.parse_config.s"] = (selfs.get("cli.parse_config", 0.0), "s")
    for layer in LAYERS:
        metrics[f"self.{layer}.s"] = (layer_self[layer], "s")
    metrics["self.remainder.s"] = (wall - sum(selfs.values()), "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - counted_wall, "s")

    by_family, by_spec = tracer.fit_seconds()
    per_fit_ms = {f"{spec} n={n}": round(1e3 * total / fits, 3)
                  for (spec, n), (total, fits) in sorted(by_spec.items())}
    info = {
        "counted_pass_wall_s": counted_wall,
        "spans": len(tracer.spans),
        "montecarlo.oracle.s (oracle simulation + held-out scoring, inclusive)": tracer.oracle_seconds(),
        **{f"fitting.fit.{f}.s (inclusive)": by_family.get(f, 0.0)
           for f in ("wn", "arma", "garch", "aparch", "ararch")},
        "fit ms per call, baseline specs": {
            k: v for k, v in per_fit_ms.items() if k.split(" ")[0] in BASELINE_SPECS
        },
        "raised (all boundaries)": {k: v for k, v in counts.items() if ".raised." in k},
        **outcome,
    }
    tracer.dump(spans_path, t0)
    return metrics, info, {"fit ms per call (spec, n)": per_fit_ms}


# ---------------------------------------------------------------------------
# environment and report


def environment(root: Path, seed: int, blas_pin: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "qmselect").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qmselect": qmselect.__version__,
        "blas_threads": {k: os.environ.get(k) for k in blas_pin},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the config's master_seed)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help=f"measuring time of an untraced run (whole driver calls, at least {MIN_REPS} replications)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv, root: Path, blas_pin: dict) -> int:
    args = parse_args(argv)
    if not Path(qmselect.__file__).resolve().is_relative_to(root / "src"):
        print(f"perfbench: qmselect imported from {qmselect.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    config_path = root / wl.config
    base = parse_config_file(str(config_path)).experiment
    seed = base.master_seed if args.seed is None else args.seed
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = f"{wl.name}-seed{seed}-trace{args.trace}"
    scratch = out_dir / f"{run_id}.table.csv"
    env = environment(root, seed, blas_pin)
    try:
        if args.trace:
            metrics, info, detail = traced_run(
                wl, base, config_path, seed, scratch, out_dir / f"{run_id}.spans.json")
        else:
            metrics, info, detail = untraced_run(
                wl, base, config_path, seed, args.seconds, root, scratch)
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        scratch.unlink(missing_ok=True)

    print(f"workload {wl.name}: {wl.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    for name, value in info.items():
        print(f"  info {name}: {value}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": True,
        "attempted": info["picks"],
        "failed": info["picks_failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out_dir / f"{run_id}.json", "w") as fh:
        json.dump({"workload": wl.name, "env": env, "info": {**info, **detail}, **result}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0
