"""Benchmark entry point.

    python3 perfbench/run.py --workload {stream_decode,analytic} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src``
directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exit status 2 means the checkout has no package source or the arguments
are invalid; no result is printed then.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("stream_decode", "analytic")
# BLAS and OpenMP read these when numpy loads, so they are set before any
# module that imports numpy is imported.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be > 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=_seconds)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cascade_iv" / "__init__.py").is_file():
        print(f"perfbench: no package source under {src}", file=sys.stderr)
        return 2
    for key in THREAD_ENV:
        os.environ[key] = "1"
    os.environ.pop("CASCADE_IV_THREADS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src), str(ROOT / "perfbench")])
    sys.path.insert(0, str(src))

    import bench  # loads numpy, after the thread pins

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), THREAD_ENV)


if __name__ == "__main__":
    sys.exit(main())
