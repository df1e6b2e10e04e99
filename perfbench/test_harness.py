"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import renormlab  # noqa: E402
from renormlab import cli, norm, tuples  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "space": {"builtin": "line", "params": {"step": 0.05, "window": [-2, 2]}},
    "group": {"builtin": "trivial"},
    "C": 1.1,
    "depth": 4,
    "seed": 7,
    "tasks": ["build-config", "verify-bmap", "norm-suite", "dual-suite", "detect"],
    "norm_suite": {"count": 10},
    "detect": [{"builtin": "identity", "expect": "certified-in-G"}],
}


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def reports(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.json"))}


def test_wrappers_rebind_every_lookup_and_are_removed():
    originals = (cli.verify_bmap, norm.verify_bmap, tuples.verify_bmap,
                 tuples.ClassRegistry.__dict__["classify"], renormlab.build_config)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.verify_bmap is norm.verify_bmap is tuples.verify_bmap
        assert cli.verify_bmap.__perfbench_wrapped__ is originals[0]
        assert hasattr(tuples.ClassRegistry.__dict__["classify"], "__perfbench_wrapped__")
        assert hasattr(renormlab.build_config, "__perfbench_wrapped__")
        assert spans.leftover_wrappers()
    finally:
        tracer.uninstall()
    assert spans.leftover_wrappers() == []
    assert (cli.verify_bmap, norm.verify_bmap, tuples.verify_bmap,
            tuples.ClassRegistry.__dict__["classify"], renormlab.build_config) == originals


def test_tracing_changes_no_report(tmp_path):
    assert cli.run(SMALL, tmp_path / "plain") == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.run(SMALL, tmp_path / "traced") == 0
    finally:
        tracer.uninstall()
    assert reports(tmp_path / "plain") == reports(tmp_path / "traced")
    metrics = tracer.metrics()
    assert metrics["tuples.verify_bmap.calls"] == 2
    assert metrics["space.validate_metric.calls"] == 1
    assert metrics["tuples.classify.new"] == metrics["tuples.registry_classes"] > 0
    # self times never double count: they add up to at most the run's span
    total = tracer.span_table()["cli.run"]["total_s"]
    assert sum(s["self_s"] for s in tracer.span_table().values()) <= total * (1 + 1e-9)


def test_metric_names_match_benchmark_json():
    bench = benchmark_json()
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(spans.PER_LAYER)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert m["unit"] == {**run.END_TO_END, **spans.PER_LAYER}[m["name"]]
    assert set(spans.Tracer().metrics()) == set(spans.PER_LAYER) - {"trace.overhead_s"}


def _last_json(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_emits_every_end_to_end_metric():
    out = _last_json("counterexamples", 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 2
    assert list(out["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    out = _last_json("counterexamples", 1)
    assert out["correct"]
    assert list(out["metrics"]) == [m["name"] for m in benchmark_json()["per_layer"]]
