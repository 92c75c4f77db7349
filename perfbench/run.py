"""nlwe benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bound --seed 0 --seconds 45 --trace 0

The package is imported from the checkout's ``src/``; nothing needs to be
installed. See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("bound", "certify-upb")

# One BLAS thread: below nproc on any machine, and steadier than two on a
# shared two-CPU box. Set before numpy is first imported.
BLAS_THREADS = "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nlwe" / "__init__.py").is_file():
        print(f"perfbench: no nlwe sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import nlwe.cli
    if not Path(nlwe.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: nlwe imported from {nlwe.cli.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import bench
    return bench.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
