#!/usr/bin/env python3
"""Run the full scenario gallery and print a one-line verdict per scenario.

Usage: python3 scripts/run_gallery.py [--out reports]
"""

import argparse
import json
import sys
from pathlib import Path

from renormlab.cli import run


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="reports")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    worst = 0
    for path in sorted((Path(__file__).parent / "scenarios").glob("*.json")):
        name = path.stem
        scenario = json.loads(path.read_text())
        out = Path(args.out) / name
        code = run(scenario, out, seed=args.seed)
        summary = json.loads((out / "summary.json").read_text())
        tag = "PASS" if code == 0 else "FAIL"
        print(f"{tag}  {name:<22} tasks={summary['tasks']}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
