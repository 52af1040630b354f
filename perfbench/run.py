"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fwd_full_c250 --seed 3 \
        --seconds 20 --trace 0

One client drives the package in a closed loop, in this process, with the
BLAS library pinned to one thread. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` measures a stretch untraced, then the same workload
under the tracer, and reports the per-layer metrics. Every line but the
last is for people; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results and, for
traced runs, the spans are also written under ``perfbench/out/``.
"""

import os

# before numpy is first imported, so OpenBLAS starts with one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sepformer", "__init__.py")):
        print("error: no sepformer package under %s; run from a checkout "
              "of the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench
    return bench.main(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
