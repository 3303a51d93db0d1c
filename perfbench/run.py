"""Campaign benchmark: host time per classified fault, per execution mode.

Run from the repository root::

    python3 perfbench/run.py --workload seu_exhaustive --seed 0 \\
        --seconds 15 --trace 0

Workloads: ``pll_analog``, ``seu_exhaustive``, ``seu_sampled``,
``seu_fanout`` (see ``perfbench/NOTES.md``).  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  The line
before last on standard output is the run's full record (machine
fingerprint, every repetition, exact work counters); the last line is
the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 when every classification matched its reference,
1 when one did not, 2 when the library source is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result, record = bench.run(
            args.workload, args.seed, args.seconds, args.trace, scratch,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
