"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py [--workload NAME ...]

Runs every case of each workload with the package as it stands and writes
``perfbench/refs/<workload>.json``. Record again only when a change is
meant to alter the numbers, and say so where the change is described.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+",
                        choices=sorted(workloads.WORKLOADS),
                        default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for name in args.workload:
        path = workloads.record(workloads.WORKLOADS[name],
                                range(workloads.N_CASES), ROOT)
        print("wrote %s" % os.path.relpath(path, ROOT), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
