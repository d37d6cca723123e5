"""Check the traced benchmark runs against their pinned figures.

Run after the six traced runs, each workload at its config's seed and at
seed 7::

    for w in garch_desk_eff arma_desk aparch_ararch; do
        python3 perfbench/run.py --workload "$w" --trace 1
        python3 perfbench/run.py --workload "$w" --seed 7 --trace 1
    done
    python3 scripts/check_pins.py

It reads ``perfbench/out/<workload>-seed<seed>-trace1.json``, prints one
line per run, and exits 1 if any pinned figure moved.  A change that moves
one iterate of one fit moves the table hash or SLSQP's counts; one that adds
an evaluation moves a call count (contrast, gradient, info_matrices or
cond_moments); one that moves an exclusion or flips a certificate moves the
SingularF count or ``converged_frac``.  A change that moves them on purpose
updates the pins here.
"""

import json
import pathlib
import sys

OUT = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "out"

#: the metrics pinned after the table hash, in the order of each pin
KEYS = ("fitting.slsqp.nit", "fitting.slsqp.nfev", "fitting.slsqp.njev",
        "likelihood.contrast.calls", "likelihood.gradient.calls",
        "information.excluded.SingularF", "information.info_matrices.calls",
        "fitting.converged_frac", "models.cond_moments.calls")

#: (workload, seed: the config's, then 7): (table_sha256, then KEYS)
PINS = {
    ("arma_desk", 20260814): ("d0bdd95a1dc4965ebf0a229942f00f8ad1a70318298011cf15e2b5befdb96960", 2991, 3889, 2991, 320, 32, 17, 320, 1.0, 32),
    ("garch_desk_eff", 20260815): ("1bb2b021c73ba6829f3cc91809a0d44272d8c1ec85325a5289679645bdf9a816", 2299, 2767, 2294, 240, 24, 27, 240, 1.0, 24),
    ("aparch_ararch", 20260816): ("d1fe6e36c8150eaa2b12523cde2e121350a07799a2f43e12f598a749dc7f66c6", 1714, 2085, 1714, 140, 20, 6, 140, 1.0, 20),
    ("arma_desk", 7): ("09702c12f7178e3548e7eb34a096bf4cb2a5b80093c22acc392a73fd961a2281", 2925, 3869, 2925, 320, 32, 11, 320, 1.0, 32),
    ("garch_desk_eff", 7): ("84e504b9b75b8e7b200f610cf13bf7e7062b56f44ba28ccd5cf449b6c41d7848", 2453, 2945, 2449, 240, 24, 17, 240, 1.0, 24),
    ("aparch_ararch", 7): ("cd18c731f64212aa6e6947e9dd57922ae7d9b93bcbff9a551c55dd22e4a00b08", 1725, 2011, 1725, 141, 20, 4, 140, 1.0, 20),
}


def main() -> int:
    failed = False
    for (workload, seed), pin in PINS.items():
        with open(OUT / f"{workload}-seed{seed}-trace1.json") as fh:
            run = json.load(fh)
        got = (run["info"]["table_sha256"], *(run["metrics"][k]["value"] for k in KEYS))
        print(workload, seed, "ok" if got == pin else f"moved: {got} != {pin}")
        failed |= got != pin
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
