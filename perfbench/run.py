"""Benchmark entry point for flagbott.

Run from the repository root:

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  Full records go to
.perfbench_out/.  The program under test is read from src/; without it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "flagbott" / "__init__.py").is_file():
        print(f"perfbench: no flagbott sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    return harness.main(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
