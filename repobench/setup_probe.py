"""One fresh-interpreter set-up: import, load specs, resolve configs.

``run.py`` launches this several times and takes the median wall time
as ``setup_s``: everything before the first simulated event that can
be timed from outside the process. Prints the number of resolved
configs, which the caller checks.

    python3 repobench/setup_probe.py --workload sweep --seed 1994
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    from repro import api  # noqa: F401  (the import is part of set-up)

    from repobench import workloads

    configs = workloads.make(args.workload, args.seed, quick=args.quick).resolve()
    print(len(configs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
