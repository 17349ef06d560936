"""Benchmark entry point.

    python3 perfbench/run.py --workload consistency --seed 1 --seconds 20 --trace 0

Runs one workload against the cpskit sources in ``src/`` of the checkout
holding this file and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones of a traced run.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("consistency", "validity", "online", "band-cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "cpskit" / "__init__.py").is_file():
        print(f"perfbench: no cpskit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cpskit

    if Path(cpskit.__file__).resolve().parent != SRC / "cpskit":
        print(f"perfbench: imported cpskit from {cpskit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    # Generated input files live in the checkout and are removed on exit.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        w = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            result = bench.traced_run(w, args.seconds)
        else:
            result = bench.timed_run(w, args.seconds, str(SRC))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
