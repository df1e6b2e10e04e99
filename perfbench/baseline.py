#!/usr/bin/env python3
"""Reproduce the ROADMAP "Baseline at this re-anchor" table from traced runs.

Usage:
    python3 perfbench/baseline.py [--seed 0]

Runs ``run.py --trace 1`` on line_gallery and product_registry (about two
minutes on a 2-core machine) and prints each ROADMAP row with the span or
metric it maps to.  A stage's time is the span's inclusive time from the
results file, so child layers count with their parent as in the ROADMAP
table; the whole run is the untraced unit measured in the same invocation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench_out" / "results"

# ROADMAP row -> span whose inclusive time it reports
ROWS = (
    ("space construction", "space.construct"),
    ("build_config", "norm.build_config"),
    ("validate_metric (in build-config task)", "space.validate_metric"),
    ("verify-bmap task (re-runs verify_bmap)", "cli.task.verify-bmap"),
    ("norm-suite", "cli.task.norm-suite"),
    ("dual-suite", "cli.task.dual-suite"),
    ("detect", "cli.task.detect"),
)
WORKLOADS = ("line_gallery", "product_registry")


def load(workload: str, seed: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", "10", "--trace", "1"], check=True, stdout=subprocess.DEVNULL)
    return json.loads((RESULTS / f"{workload}-seed{seed}-trace1.json").read_text())


def cell(result: dict, span: str) -> str:
    found = result["spans"].get(span)
    return f"{found['total_s']:.3g} s" if found else "–"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    results = [load(w, args.seed) for w in WORKLOADS]
    print(f"| stage | {' | '.join(WORKLOADS)} | span |")
    print("|---|---|---|---|")
    for label, span in ROWS:
        print(f"| {label} | {' | '.join(cell(r, span) for r in results)} | `{span}` |")
    whole = " | ".join(f"{r['run_s']['untraced']:.3g} s" for r in results)
    print(f"| whole run | {whole} | `run_s` (untraced unit) |")
    print(f"\nmachine: {results[0]['machine']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
