"""One fresh process of a benchmark run.

Usage (from run.py): python3 perfbench/worker.py '<job json>'

The job names the workload, the seed, what to do (``setup`` only, one
gallery ``unit``, or a block of ``queries``), whether to trace, and the
parent's clock reading just before it started this process.  Set-up time
runs from that reading to the first timed operation on the shared
monotonic clock.  The last line of standard output is one JSON result.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

from renormlab import cli, detector, norm

import spans
import workloads


# ----------------------------------------------------------------------
# gallery workloads


def check_gallery(scenario: dict, out: Path, exit_code: int) -> list[dict]:
    """One operation per task: the run must exit 0, each task report must
    say ok, and each detect verdict must equal its expectation."""
    ops = []
    for task in scenario["tasks"]:
        why = None
        path = out / f"{task}.json"
        if exit_code != 0:
            why = f"exit code {exit_code}"
        elif not path.is_file():
            why = "report missing"
        else:
            report = json.loads(path.read_text())
            if report.get("ok") is not True:
                why = "report ok is not true"
            elif task == "detect":
                specs = scenario["detect"]
                if len(report["operators"]) != len(specs):
                    why = f"{len(report['operators'])} detect verdicts for {len(specs)} operators"
                for spec, op in zip(specs, report["operators"]):
                    if "expect" in spec and op["verdict"] != spec["expect"]:
                        why = f"{op['operator']}: verdict {op['verdict']} != {spec['expect']}"
        ops.append({"task": task, "ok": why is None, "why": why})
    return ops


def gallery_unit(job: dict, tracer) -> dict:
    out_root = Path(job["out"])
    scenarios = []
    for name, scenario in workloads.documents(job["workload"]).items():
        out = out_root / name
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        code = cli.run(scenario, out, seed=job["seed"])
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        scenarios.append({
            "scenario": name,
            "seconds": seconds,
            "exit_code": code,
            "ops": check_gallery(scenario, out, code),
            "digests": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.glob("*.json"))},
        })
    return {"scenarios": scenarios, "run_s": sum(s["seconds"] for s in scenarios)}


# ----------------------------------------------------------------------
# norm_queries: a closed loop with one client over a built configuration


KINDS = ("triple_norm", "gamma_cap_trace", "dual_norm_atoms", "certify")


def random_function(space, rng: np.random.Generator) -> np.ndarray:
    """Either a sum of 2-6 tent bumps of random sign, centre and radius,
    or uniform noise; never identically zero."""
    if rng.random() < 0.5:
        return rng.uniform(-1.0, 1.0, size=space.n)
    k = int(rng.integers(2, 7))
    centres = rng.integers(0, space.n, size=k)
    radii = rng.uniform(0.2, 2.0, size=k)
    heights = rng.uniform(0.2, 1.0, size=k) * rng.choice((-1.0, 1.0), size=k)
    tents = np.maximum(0.0, 1.0 - space.dmat[centres] / radii[:, None])
    return heights @ tents


def draw_queries(doc: dict, cfg, count: int, rng: np.random.Generator) -> list[tuple]:
    """Seeded inputs; dual tuples stay inside the registered windows, so
    queries only read the class registry."""
    mix = doc["mix"]
    kinds = rng.choice(len(KINDS), size=count, p=[mix[k] for k in KINDS])
    lo, hi = doc["beta_range"]
    queries = []
    for kind in kinds:
        kind = KINDS[kind]
        if kind in ("triple_norm", "gamma_cap_trace"):
            queries.append((kind, random_function(cfg.space, rng)))
        elif kind == "dual_norm_atoms":
            n = int(rng.choice(doc["dual_tuple_sizes"]))
            last_start = cfg.base_count - 1 if n == 1 else cfg.depth - n
            start = int(rng.integers(1, last_start + 1))
            gammas = [int(rng.integers(0, len(cfg.orbit_of_base(start + j)))) for j in range(n + 1)]
            queries.append((kind, (cfg.tuple_index(start, gammas), rng.uniform(lo, hi, size=n + 1))))
        else:
            queries.append((kind, int(rng.integers(0, len(doc["certify"])))))
    return queries


def ask(kind: str, arg, cfg, doc: dict, operators: list):
    if kind == "triple_norm":
        return norm.triple_norm(arg, cfg)
    if kind == "gamma_cap_trace":
        return norm.gamma_cap_trace(arg, cfg, doc["gamma_caps"])
    if kind == "dual_norm_atoms":
        t, beta = arg
        return norm.dual_norm_atoms(t, beta, cfg)
    return detector.certify(operators[arg][0], cfg, test_depth=doc["test_depth"])


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_query(kind: str, arg, res, cfg, operators: list) -> tuple[str | None, list]:
    """Failure reason (None when correct) and the output for the digest."""
    if kind == "triple_norm":
        sup = float(np.max(np.abs(arg)))
        out = [res.value, res.truncation_bound, list(res.argmax_points)]
        if not (sup * (1 - 1e-12) <= res.value <= cfg.bc.C * sup * (1 + 1e-12)):
            return f"sandwich fails: sup {sup!r}, value {res.value!r}", out
        if not math.isfinite(res.truncation_bound):
            return "truncation bound not finite", out
        start = res.argmax_window[0]
        oracle = norm.rho(cfg.tuple_index(start, res.argmax_gammas), arg, cfg)
        if not close(res.value, oracle):
            return f"value {res.value!r} != rho {oracle!r} on the argmax tuple", out
        return None, out
    if kind == "gamma_cap_trace":
        values = [v for _, v in res]
        if any(b < a for a, b in zip(values, values[1:])):
            return "cap trace decreases", values
        return None, values
    if kind == "dual_norm_atoms":
        value, a = res
        beta = arg[1]
        out = [value, a.tolist()]
        if not close(value, float(beta @ a)):
            return f"dual value {value!r} != beta.a", out
        if np.any(a < 0.8 - 1e-12) or np.any(a > 1.0 + 1e-12):
            return f"entries outside [4/5, 1]: {a.tolist()}", out
        return None, out
    expect = operators[arg][1]
    if res.verdict != expect:
        return f"{res.verdict} != {expect}", [res.verdict]
    return None, [res.verdict]


def norm_queries(job: dict, tracer) -> dict:
    doc = workloads.document(workloads.QUERIES)
    space = cli.make_space(doc["space"])
    group = cli.make_group(doc["group"], space)
    cfg = norm.build_config(space, group, C=doc["C"], depth=doc["depth"])
    operators = [(cli.make_operator(spec, space, group), spec["expect"]) for spec in doc["certify"]]
    classes_before = len(cfg.registry.all_classes())
    ready = time.monotonic()
    if tracer is not None:
        tracer.active = False
    rng = np.random.default_rng([job["seed"], job["stream"]])
    digest = hashlib.sha256()
    latencies, failures = [], []
    run_s = 0.0
    remaining = job["queries"]
    while remaining:
        queries = draw_queries(doc, cfg, min(doc["chunk"], remaining), rng)
        remaining -= len(queries)
        results = []
        if tracer is not None:
            tracer.active = True
        t_chunk = perf_counter()
        for kind, arg in queries:
            t0 = perf_counter()
            res = ask(kind, arg, cfg, doc, operators)
            latencies.append((perf_counter() - t0) * 1e3)
            results.append(res)
        run_s += perf_counter() - t_chunk
        if tracer is not None:
            tracer.active = False
        for (kind, arg), res in zip(queries, results):
            why, out = check_query(kind, arg, res, cfg, operators)
            digest.update(json.dumps([kind, out]).encode())
            if why is not None:
                failures.append(f"{kind}: {why}")
    classes_after = len(cfg.registry.all_classes())
    if classes_after != classes_before:
        # the queries are meant to read the registry only
        failures.append(f"registry grew from {classes_before} to {classes_after} classes during the queries")
    return {
        "ready": ready,
        "run_s": run_s,
        "latencies_ms": latencies,
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:20],
        "digest": digest.hexdigest(),
        "registry_classes": [classes_before, classes_after],
    }


# ----------------------------------------------------------------------


def main() -> int:
    job = json.loads(sys.argv[1])
    result = {"numpy": np.__version__, "renormlab_file": cli.__file__}
    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    if job["mode"] == "setup":
        result["ready"] = time.monotonic()
    elif job["mode"] == "unit":
        result["ready"] = time.monotonic()
        result.update(gallery_unit(job, tracer))
    else:
        result.update(norm_queries(job, tracer))
    result["setup_s"] = result.pop("ready") - job["t_spawn"]
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics()
        result["spans"] = tracer.span_table()
        result["leftover_wrappers"] = spans.leftover_wrappers()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
