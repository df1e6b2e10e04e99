#!/usr/bin/env python3
"""renormlab benchmark: one workload, one run, metrics as a JSON last line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: product_registry, norm_queries, counterexamples, and
line_gallery, which BENCHMARK.json leaves out (see perfbench/README.md).  Every unit of work runs in a fresh,
single-threaded Python process against the library under ``src/``, one
process at a time.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same work once untraced and once traced and reports
the per-layer metrics.  A results file with provenance, digests and sample
counts goes to ``.perfbench_out/results/``.  Exits 2 without a result when
the library source is missing or a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 5          # gallery runs add set-up-only processes up to this
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}


class WorkerError(RuntimeError):
    pass


def spawn(job: dict) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    job = dict(job, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    src = (ROOT / "src").resolve()
    if not Path(result["renormlab_file"]).resolve().is_relative_to(src):
        raise WorkerError(f"worker imported renormlab from {result['renormlab_file']}, not {src}")
    return result


def run_unit(workload: str, seed: int, index: int, trace: bool = False) -> dict:
    """One gallery unit in its own process; its report directory is removed after."""
    out = OUT / "work" / f"{workload}-{seed}-{index}-{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        return spawn({"workload": workload, "seed": seed, "mode": "unit", "trace": trace, "out": str(out)})
    finally:
        shutil.rmtree(out, ignore_errors=True)


def query_job(seed: int, stream: int, queries: int, trace: bool = False) -> dict:
    return {"workload": workloads.QUERIES, "seed": seed, "mode": "queries", "stream": stream,
            "queries": queries, "trace": trace}


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ----------------------------------------------------------------------
# operations, failures and digests


def gallery_ops(units: list[dict]) -> tuple[int, list[str], dict, int]:
    """Attempted operations, failures, the digests of the first unit and
    the number of operations whose report digest differs from it.

    A report whose digest differs from the first unit's (same seed, same
    run) fails its task's operation.
    """
    attempted, failures, mismatched = 0, [], 0
    first = {s["scenario"]: s["digests"] for s in units[0]["scenarios"]}
    for i, unit in enumerate(units):
        for s in unit["scenarios"]:
            changed = {f for f, d in s["digests"].items() if first[s["scenario"]].get(f) != d}
            changed |= set(first[s["scenario"]]) - set(s["digests"])
            for op in s["ops"]:
                attempted += 1
                if not op["ok"]:
                    failures.append(f"unit {i} {s['scenario']} {op['task']}: {op['why']}")
                elif f"{op['task']}.json" in changed or "summary.json" in changed:
                    mismatched += 1
                    failures.append(f"unit {i} {s['scenario']} {op['task']}: report digest differs from unit 0")
    flat = {f"{scen}/{f}": d for scen, files in first.items() for f, d in files.items()}
    return attempted, failures, flat, mismatched


def published_digest_changes(workload: str, seed: int, digests: dict) -> dict | None:
    """Outputs whose digest differs from perfbench/digests.json; reported, never failed."""
    published = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    if published is None:
        return None
    return {k: {"published": published[k], "now": d} for k, d in digests.items()
            if k in published and published[k] != d}


# ----------------------------------------------------------------------
# the two kinds of run


def untraced_run(workload: str, seed: int, seconds: int) -> dict:
    if workload == workloads.QUERIES:
        doc = workloads.document(workloads.QUERIES)
        total = workloads.query_count(seconds)
        shares = [total // doc["workers"] + (i < total % doc["workers"]) for i in range(doc["workers"])]
        results = [spawn(query_job(seed, i, q)) for i, q in enumerate(shares)]
        latencies = [v for r in results for v in r["latencies_ms"]]
        attempted = sum(r["attempted"] for r in results)
        failures = [f for r in results for f in r["failures"]]
        failed = sum(r["failed"] for r in results)
        digests = {f"stream{i}-queries{q}": r["digest"] for i, (r, q) in enumerate(zip(results, shares))}
        extra = {"registry_classes": [r["registry_classes"] for r in results], "queries": shares}
    else:
        results = [run_unit(workload, seed, i) for i in range(workloads.units(workload, seconds))]
        # one latency sample per unit, so every sample is the same work
        latencies = [r["run_s"] * 1e3 for r in results]
        attempted, failures, digests, _ = gallery_ops(results)
        failed = len(failures)
        extra = {"units": len(results), "unit_s": [r["run_s"] for r in results],
                 "exit_codes": [[s["exit_code"] for s in r["scenarios"]] for r in results]}
    setups = [r["setup_s"] for r in results]
    rss = [r["peak_rss_mb"] for r in results]
    while workload != workloads.QUERIES and len(setups) < SETUP_SAMPLES:
        setups.append(spawn({"workload": workload, "seed": seed, "mode": "setup", "trace": False})["setup_s"])
    metrics = {
        "run_s": sum(r["run_s"] for r in results),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
        "query_p50_ms": statistics.median(latencies),
        "query_p99_ms": percentile(latencies, 99),
    }
    samples = {"run_s": len(results), "setup_s": len(setups), "peak_rss_mb": len(rss),
               "query_p50_ms": len(latencies), "query_p99_ms": len(latencies)}
    return {"metrics": metrics, "metric_units": END_TO_END, "samples": samples, "attempted": attempted,
            "failed": failed, "failures": failures[:50], "digests": digests,
            "setup_samples_s": setups, "numpy": results[0]["numpy"], **extra}


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    """The same work untraced then traced, each in its own process; the
    outputs must be identical and every wrapper removed."""
    if workload == workloads.QUERIES:
        total = workloads.query_count(seconds)
        plain, traced = (spawn(query_job(seed, 0, total, trace=t)) for t in (False, True))
        attempted = plain["attempted"] + traced["attempted"]
        failures = plain["failures"] + traced["failures"]
        failed = plain["failed"] + traced["failed"]
        same_output = plain["digest"] == traced["digest"]
        digests = {"untraced": plain["digest"], "traced": traced["digest"]}
    else:
        plain, traced = (run_unit(workload, seed, i, trace=bool(i)) for i in (0, 1))
        attempted, failures, digests, mismatched = gallery_ops([plain, traced])
        failed = len(failures)
        same_output = mismatched == 0
    if not same_output:
        failed += 1
        failures.append("traced and untraced outputs differ")
    if traced["leftover_wrappers"]:
        failed += 1
        failures.append(f"wrappers left installed: {traced['leftover_wrappers']}")
    metrics = dict(traced["per_layer"], **{"trace.overhead_s": traced["run_s"] - plain["run_s"]})
    return {"metrics": metrics, "metric_units": spans.PER_LAYER, "attempted": attempted,
            "failed": failed, "failures": failures[:50], "digests": digests,
            "same_output": same_output, "leftover_wrappers": traced["leftover_wrappers"],
            "run_s": {"untraced": plain["run_s"], "traced": traced["run_s"]},
            "spans": traced["spans"], "numpy": traced["numpy"]}


# ----------------------------------------------------------------------
# provenance


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f).strip() for f in ("level", "type", "size"))
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    mem = next((line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), None)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "caches": caches,
            "mem_total": mem, "python": platform.python_version(), "platform": platform.platform()}


def git_revision() -> dict:
    """Revision and dirty flag, or nulls when the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                env=env, capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}
    return {"revision": rev, "dirty": bool(status.strip())}


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "renormlab" / "__init__.py").is_file():
        print(f"renormlab source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.time()
    try:
        run = (traced_run if args.trace else untraced_run)(args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    if not args.trace:
        run["published_digest_changes"] = published_digest_changes(args.workload, args.seed, run["digests"])
    run["fail_frac"] = run["failed"] / run["attempted"]
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "started_unix": started, "wall_s": time.time() - started,
        "machine": machine(), "numpy": run.pop("numpy"), "git": git_revision(),
        "timer": "time.perf_counter within a process, time.monotonic across processes",
        "documents": workloads.documents(args.workload), **run,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")

    for name, value in run["metrics"].items():
        count = run.get("samples", {}).get(name)
        print(f"{name:<40} {value:>14.6g} {run['metric_units'][name]}" + (f"  (n={count})" if count else ""))
    print(f"{'fail_frac':<40} {run['fail_frac']:>14.6g}  ({run['failed']} of {run['attempted']} operations)")
    for failure in run["failures"]:
        print(f"FAIL {failure}")
    if run.get("published_digest_changes"):
        print(f"note: {len(run['published_digest_changes'])} report digests differ from perfbench/digests.json")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": run["metric_units"][k]} for k, v in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
