"""Counters and spans around qmselect's layer boundaries, from outside the package.

The package modules bind their collaborators with ``from .x import y``, so a
call such as ``fit_family -> fit`` looks ``fit`` up in the caller's module
globals at call time.  :class:`Tracer` therefore replaces the name in the
caller's module (``qmselect.fitting.fit`` for ``fit_family``'s calls), not in
the module that defines it, and restores every original on
:meth:`Tracer.uninstall`.
SLSQP's callbacks in ``fit`` resolve ``gamma_bar``/``gradient`` the same way,
so they are seen too.  Nothing under ``src/`` is modified.

A tracer counts calls (and a few outcomes read from return values) at every
boundary it wraps.  With ``timed=True`` it also records one span per call:
name, start, end, parent span and replication id, kept in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import qmselect.criteria
import qmselect.fitting
import qmselect.information
import qmselect.likelihood
import qmselect.montecarlo
from qmselect.montecarlo import ORACLE_TAG, derive_seed

LAYERS = ("models", "likelihood", "fitting", "information", "criteria", "montecarlo", "cli")


class Tracer:
    def __init__(self, timed: bool, boundaries: tuple[str, ...] | None = None):
        self.timed = timed
        self.counts: Counter = Counter()
        # span: [name, start, end, parent index or -1, replication id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._rep: str | None = None
        self._oracle_rep: str | None = None
        self._seed_tags: dict[int, str] = {}
        self._fit_spans: dict[int, tuple[str, str, int]] = {}  # span -> (family, spec, n)
        self._patched: list[tuple[object, str, object]] = []
        table = self._boundaries()
        for key in table if boundaries is None else boundaries:
            module, attr, name, tag, after = table[key]
            self._patch(module, attr, name, tag, after)

    # -- boundary table --------------------------------------------------

    def _boundaries(self) -> dict:
        """key -> (caller module, attribute, span name, tag hook, return hook)."""
        fitting, likelihood = qmselect.fitting, qmselect.likelihood
        mc, crit, info = qmselect.montecarlo, qmselect.criteria, qmselect.information
        return {
            "simulate": (mc, "simulate", "models.simulate", self._tag_simulate, None),
            "oracle": (mc, "gamma_bar", "montecarlo.oracle", self._tag_oracle, None),
            "fit_family": (mc, "fit_family", "fitting.fit_family", None, self._after_fit_family),
            "fit": (fitting, "fit", "fitting.fit", self._tag_fit, None),
            "slsqp": (fitting, "minimize", "fitting.slsqp", None, self._after_minimize),
            "contrast": (fitting, "contrast", "likelihood.contrast", None, None),
            "gamma_bar": (fitting, "gamma_bar", "likelihood.contrast", None, None),
            "gradient": (fitting, "gradient", "likelihood.gradient", None, None),
            "cond_moments": (likelihood, "cond_moments", "models.cond_moments", None, None),
            "select_from_fits": (mc, "select_from_fits", "criteria.select_from_fits", None, None),
            "info_matrices": (crit, "info_matrices", "information.info_matrices", None, None),
            "derivatives": (info, "derivatives", "likelihood.derivatives", None, None),
        }

    def _patch(self, module, attr, name, tag, after) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self._wrap(original, name, tag, after))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, tag, after):
        counts, spans, stack = self.counts, self.spans, self._stack
        calls = name + ".calls"
        clock = time.perf_counter
        timed = self.timed

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if tag is not None:
                tag(args, kwargs)
            idx = -1
            if timed:
                idx = len(spans)
                spans.append([name, clock(), None, stack[-1] if stack else -1, self._rep])
                stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                if idx >= 0:
                    spans[idx][2] = clock()
                    stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks -----------------------------------------------------------

    def expect(self, config, call: int) -> None:
        """Map the trajectory seeds of driver call ``call`` to replication ids
        ("call/n/r", or "call/n/oracle"), so spans can be tagged by replication."""
        self._seed_tags = {}
        for n in config.n_values:
            for r in range(config.n_reps):
                self._seed_tags[derive_seed(config.master_seed, n, r)] = f"{call}/{n}/{r}"
            self._seed_tags[derive_seed(config.master_seed, n, ORACLE_TAG)] = f"{call}/{n}/oracle"

    def _tag_simulate(self, args, kwargs) -> None:
        self._rep = self._seed_tags.get(kwargs.get("seed", args[3] if len(args) > 3 else None), "?")
        if self._rep.endswith("/oracle"):
            self._oracle_rep = self._rep

    def _tag_oracle(self, args, kwargs) -> None:
        self._rep = self._oracle_rep

    def _tag_fit(self, args, kwargs) -> None:
        if self.timed:  # the span about to be opened gets index len(spans)
            spec, x = args[0], args[1]
            self._fit_spans[len(self.spans)] = (spec.family.value, spec.name, len(x))

    def _after_fit_family(self, fits) -> None:
        self.counts["fitting.fits"] += len(fits)
        self.counts["fitting.fits_failed"] += sum(
            1 for f in fits if not f.converged or f.error is not None
        )

    def _after_minimize(self, res) -> None:
        for key in ("nfev", "njev", "nit"):
            self.counts[f"fitting.slsqp.{key}"] += int(getattr(res, key, 0) or 0)

    # -- derived figures -------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """(self seconds per span name, calls per span name) from the spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            selfs[name] += (end - start) - child[i]
        return dict(selfs), {k[: -len(".calls")]: v for k, v in self.counts.items() if k.endswith(".calls")}

    def oracle_seconds(self) -> float:
        """Inclusive time of the oracle path: oracle simulation plus held-out scoring."""
        return sum(
            end - start
            for name, start, end, parent, rep in self.spans
            if rep is not None and rep.endswith("/oracle")
            and name in ("models.simulate", "montecarlo.oracle")
            and (parent < 0 or self.spans[parent][0] == "montecarlo.driver")
        )

    def fit_seconds(self) -> tuple[dict, dict]:
        """Inclusive fit time per model family, and per (spec, n) as
        (total seconds, fits)."""
        by_family: Counter = Counter()
        by_spec: dict = {}
        for idx, (family, spec, n) in self._fit_spans.items():
            _, start, end, _, _ = self.spans[idx]
            by_family[family] += end - start
            total, fits = by_spec.get((spec, n), (0.0, 0))
            by_spec[(spec, n)] = (total + end - start, fits + 1)
        return dict(by_family), by_spec

    def open_span(self, name: str) -> int:
        """Span around a call the benchmark makes itself; no-op when untimed."""
        if not self.timed:
            return -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def close_span(self, idx: int) -> None:
        if idx < 0:
            return
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def dump(self, path, t0: float) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [
            [ids[name], round((start - t0) * 1e6), round((end - t0) * 1e6), parent, rep]
            for name, start, end, parent, rep in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": names, "fields": ["name", "start_us", "end_us", "parent", "rep"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")
