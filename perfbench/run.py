"""Benchmark entry point for qmselect.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout: it imports ``qmselect`` from the
checkout's ``src/`` and nothing else, and exits with code 2 when that tree is
missing.  BLAS threads are pinned to 1 before numpy is first imported, so the
figures measure one core.  See ``perfbench/README.md`` for workloads and
metrics.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main() -> int:
    src = ROOT / "src"
    if not (src / "qmselect" / "__init__.py").is_file():
        print(f"perfbench: no qmselect sources under {src}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(src))
    import qmbench

    return qmbench.main(sys.argv[1:], ROOT, BLAS_PIN)


if __name__ == "__main__":
    sys.exit(main())
