"""floqlab benchmark.

    python3 perfbench/run.py --workload {diagram,quench,edges} --seed N \
        --seconds S --trace {0,1}

Run from the root of a floqlab source tree; the program is imported from
./src.  The last line of standard output is the result as JSON.  See
perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FLOQLAB_WORKERS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["diagram", "quench", "edges"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "floqlab" / "__init__.py").is_file():
        print(f"error: no floqlab source tree under {src}", file=sys.stderr)
        return 2
    # The thread and worker policy under test is the program's own, so these
    # are cleared before numpy (and with it OpenBLAS) is first imported.
    inherited = {name: os.environ.pop(name, None) for name in THREAD_VARS}
    sys.path.insert(0, str(src))

    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace), inherited, ROOT)


if __name__ == "__main__":
    sys.exit(main())
