"""The benchmark's workloads: scenario documents and the size of a run.

The documents under ``scenarios/`` are the benchmark's own copies, so
later edits to the shipped gallery cannot change a workload.  The amount
of work in a run depends only on ``--seconds`` and the nominal unit times
below, never on how fast the code under test is, so two commits always
do the same work.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent

# gallery workloads: one unit is one pass over the scenarios, in a fresh
# process, through renormlab.cli.run; nominal_s sizes the number of units
GALLERY = {
    "line_gallery": {"scenarios": ["line_trivial"], "nominal_s": 50.0},
    "product_registry": {"scenarios": ["rotation_product"], "nominal_s": 5.0},
    "counterexamples": {"scenarios": ["remark25_gallery", "onepoint_bounded"], "nominal_s": 2.5},
}
# line_gallery (one unit is about 50 s on a 2-core machine, its traced run
# twice that) is kept for the ROADMAP baseline table and for before/after
# claims on the line, but BENCHMARK.json does not list it: see README.md
QUERIES = "norm_queries"
NAMES = (*GALLERY, QUERIES)


def document(name: str) -> dict:
    return json.loads((HERE / "scenarios" / f"{name}.json").read_text())


def units(workload: str, seconds: int) -> int:
    return max(1, round(seconds / GALLERY[workload]["nominal_s"]))


def query_count(seconds: int) -> int:
    return max(1, round(seconds * document(QUERIES)["queries_per_second"]))


def documents(workload: str) -> dict:
    names = GALLERY[workload]["scenarios"] if workload in GALLERY else [QUERIES]
    return {name: document(name) for name in names}
