#!/usr/bin/env python3
"""Alternating pair runs of the benchmark between two revisions.

Each revision is extracted with ``git archive <rev> | tar -x`` into its own
directory under ``--work``, so the benchmark runs the committed files only
and ``.git`` is left alone.  ``perfbench/run.py`` of each checkout runs
unchanged, with ``PYTHONDONTWRITEBYTECODE=1``.

    python3 scripts/bench_pairs.py pairs --parent REV --change REV --workload product_registry \\
        --pairs 10 --seed 5701 --name "claim" --out BENCH_57.json
    python3 scripts/bench_pairs.py sizes --parent REV --change REV --runs 3 --out BENCH_57.json

``pairs`` appends one set of pair runs with its summary to ``--out``
(created with the file's header fields when missing); an A/A set gives the
same revision twice.  ``sizes`` appends fresh-process runs of the
200,001-point line (``line_trivial`` at window [-1000, 1000], tasks
``build-config`` and ``verify-bmap``) with the time of each stage.
``traced`` appends ``--trace 1`` runs of each side, alternating, with the
per-layer metrics of the workload in seed order.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("run_s", "setup_s", "peak_rss_mb", "query_p50_ms", "query_p99_ms")
COMMAND = ("python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0, each checkout in its own "
           "directory (git archive of the revision), PYTHONDONTWRITEBYTECODE=1")
PAIRING = ("pair i runs the parent first when i is even and the change first when i is odd; every workload "
           "of a pair runs on both sides before the next pair")
SUMMARY_RULE = ("quartiles are numpy.percentile 25/50/75 (linear) over the runs of one side; "
                "relative_change_of_median is change median / parent median - 1; change_lower_pairs counts "
                "pairs where the change reads strictly lower; parent_iqr is q3 - q1 of the parent's runs, and "
                "parent_iqr_relative that over the parent's median")


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summarize(parent: list[float], change: list[float]) -> dict:
    """The summary rule, stated once: the per-side quartiles, the median
    change, the pair wins and the parent's IQR; ``parent[i]`` and
    ``change[i]`` are pair i."""
    a, b = quartiles(parent), quartiles(change)
    iqr = a["q3"] - a["q1"]
    return {
        "parent": a,
        "change": b,
        "relative_change_of_median": b["median"] / a["median"] - 1,
        "change_lower_pairs": sum(y < x for x, y in zip(parent, change)),
        "change_higher_pairs": sum(y > x for x, y in zip(parent, change)),
        "parent_iqr": iqr,
        "parent_iqr_relative": iqr / a["median"],
        "median_gap_exceeds_parent_iqr": abs(b["median"] - a["median"]) > iqr,
    }


def checkout(rev: str, work: Path, side: str) -> tuple[str, Path]:
    """The full hash of ``rev`` and its extracted tree under ``work``, one
    directory per side, so that an A/A set also runs from two directories."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    where = work / f"{side}-{sha}"
    if not where.is_dir():
        where.mkdir(parents=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(where)], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise SystemExit(f"git archive {rev} failed")
    return sha, where


def bench(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", "30", "--trace", str(trace)], cwd=tree, env=env, capture_output=True,
                          text=True)
    out = {"exit": proc.returncode}
    if proc.returncode == 0:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        out.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"],
                   metrics={k: v["value"] for k, v in last["metrics"].items()})
    return out


# one fresh process per run: cli.main on the 200,001-point line, with the
# stages timed by wrapping their module bindings
_SIZE_RUN = r"""
import json, resource, sys, tempfile, time
from renormlab import cli, norm, orbits, tuples
stages = {}
def timed(key, fn):
    def run(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stages.setdefault(key, []).append(time.perf_counter() - start)
    return run
norm.select_dense_points = timed("select_dense_points", orbits.select_dense_points)
norm.verify_bmap = cli.verify_bmap = timed("verify_bmap", tuples.verify_bmap)
norm._class_weights = timed("class_weights", norm._class_weights)
norm.build_config = cli.build_config = timed("build_config", norm.build_config)
scenario = json.load(open("scripts/scenarios/line_trivial.json"))
scenario["space"]["params"]["window"] = [-1000, 1000]
scenario["tasks"] = ["build-config", "verify-bmap"]
with tempfile.TemporaryDirectory() as tmp:
    with open(tmp + "/line.json", "w") as f:
        json.dump(scenario, f)
    start = time.perf_counter()
    code = cli.main(["run", tmp + "/line.json", "--out", tmp + "/out"])
    wall = time.perf_counter() - start
    ok = json.load(open(tmp + "/out/verify-bmap.json"))["ok"]
print(json.dumps({"exit": code, "ok": ok, "run_s": wall,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "stages_s": stages}))
"""


def size_run(tree: Path) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", _SIZE_RUN], cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    info = Path("/proc/cpuinfo").read_text() if Path("/proc/cpuinfo").exists() else ""
    cpu = next((line.split(":", 1)[1].strip() for line in info.splitlines() if line.startswith("model name")),
               platform.processor())
    mem = Path("/proc/meminfo").read_text().splitlines()[0].split(":", 1)[1].strip() \
        if Path("/proc/meminfo").exists() else None
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "memory": mem, "platform": platform.platform()}


def load(path: Path, revisions: dict) -> dict:
    if path.exists():
        doc = json.loads(path.read_text())
    else:
        doc = {"what": "", "command": COMMAND, "pairing": PAIRING, "summary_rule": SUMMARY_RULE,
               "machine": machine(), "python": platform.python_version(), "numpy": np.__version__,
               "revisions": {}, "claim": "", "sets": []}
    doc["revisions"].update(revisions)
    return doc


def pairs(args, work: Path) -> dict:
    (parent, a), (change, b) = checkout(args.parent, work, "parent"), checkout(args.change, work, "change")
    sides = {"parent": a, "change": b}
    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        for workload in args.workload:
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                run = bench(sides[side], workload, seed)
                runs.append({"pair": i, "side": side, "workload": workload, "seed": seed, **run})
                print(f"pair {i} {workload} {side}: {run.get('metrics', run)}", file=sys.stderr)
    summary = {}
    for workload in args.workload:
        ok = {side: [r for r in runs if r["workload"] == workload and r["side"] == side and r["exit"] == 0]
              for side in sides}
        done = sorted({r["pair"] for r in ok["parent"]} & {r["pair"] for r in ok["change"]})
        by_pair = {side: {r["pair"]: r for r in ok[side]} for side in sides}
        entry = {"pairs": len(done),
                 "failed": {s: sum(by_pair[s][i]["failed"] for i in done) for s in sides},
                 "exit_nonzero": {s: sum(r["exit"] != 0 for r in runs if r["workload"] == workload
                                         and r["side"] == s) for s in sides}}
        for metric in METRICS:
            entry[metric] = summarize([by_pair["parent"][i]["metrics"][metric] for i in done],
                                      [by_pair["change"][i]["metrics"][metric] for i in done])
        summary[workload] = entry
    return {"name": args.name, "why": args.why, "sides": {"parent": parent, "change": change},
            "seeds": [args.seed + i for i in range(args.pairs)], "summary": summary, "runs": runs}


def traced(args, work: Path) -> dict:
    (parent, a), (change, b) = checkout(args.parent, work, "parent"), checkout(args.change, work, "change")
    metrics: dict = {}
    for i in range(args.pairs):
        for side, tree in ((("parent", a), ("change", b)) if i % 2 == 0 else (("change", b), ("parent", a))):
            run = bench(tree, args.workload[0], args.seed + i, trace=1)
            for name, value in run.get("metrics", {}).items():
                metrics.setdefault(name, {"parent": [None] * args.pairs, "change": [None] * args.pairs})
                metrics[name][side][i] = value
            print(f"traced {i} {side}: exit {run['exit']}", file=sys.stderr)
    return {"what": "per-layer self times (s) and counts from --trace 1 runs, one per side per seed, sides "
                    "alternating; each list is in seed order",
            "sides": {"parent": parent, "change": change}, "workload": args.workload[0],
            "seeds": [args.seed + i for i in range(args.pairs)], "metrics": metrics}


def sizes(args, work: Path) -> dict:
    (parent, a), (change, b) = checkout(args.parent, work, "parent"), checkout(args.change, work, "change")
    runs = []
    for i in range(args.runs):
        for side, tree in ((("parent", a), ("change", b)) if i % 2 == 0 else (("change", b), ("parent", a))):
            runs.append({"run": i, "side": side, **size_run(tree)})
            print(f"size run {i} {side}: {runs[-1]}", file=sys.stderr)
    return {"what": "fresh-process runs of line_trivial at window [-1000, 1000] (n = 200,001), tasks build-config "
                    "and verify-bmap, through cli.main; run_s excludes imports, stages_s lists every call",
            "sides": {"parent": parent, "change": change}, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("pairs", "traced", "sizes"):
        p = sub.add_parser(mode)
        p.add_argument("--parent", required=True)
        p.add_argument("--change", required=True)
        p.add_argument("--out", type=Path, required=True)
        p.add_argument("--work", type=Path, default=None, help="where checkouts go (default: a temporary directory)")
        if mode != "sizes":
            p.add_argument("--workload", nargs="+", required=True)
            p.add_argument("--pairs", type=int, required=True)
            p.add_argument("--seed", type=int, required=True)
        if mode == "pairs":
            p.add_argument("--name", required=True)
            p.add_argument("--why", default="")
        if mode == "sizes":
            p.add_argument("--runs", type=int, required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        result = {"pairs": pairs, "traced": traced, "sizes": sizes}[args.mode](args, work)
    sides = result["sides"]
    doc = load(args.out, sides if sides["parent"] != sides["change"] else {})  # an A/A set names no change
    if args.mode == "pairs":
        doc["sets"].append(result)
    else:
        doc.setdefault({"traced": "traced", "sizes": "size_runs"}[args.mode], []).append(result)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
