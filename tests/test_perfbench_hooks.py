"""The library names that the traced benchmark (perfbench/spans.py) wraps
and reads, and that the benchmark worker (perfbench/worker.py) calls, must
keep existing, so that a refactor which breaks the benchmark fails here
first."""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

import renormlab
from renormlab import cli, detector, norm

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
WORKER_PY = SPANS_PY.with_name("worker.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in module.MODULES:
        importlib.import_module("renormlab." + name)
    return module


def test_every_wrapped_name_resolves(spans):
    mods = spans._library_modules()
    for mod, attr in [*spans.SPANS, *spans.COUNTED]:
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(mods[mod], cls_name)).get(meth)), (mod, attr)
        else:
            assert callable(getattr(mods[mod], attr, None)), (mod, attr)


def test_tracer_install_and_uninstall_leave_no_wrapper(spans):
    before = {name: getattr(renormlab, name) for name in ("build_config", "verify_bmap")}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.leftover_wrappers()
    finally:
        tracer.uninstall()
    assert spans.leftover_wrappers() == []
    assert {name: getattr(renormlab, name) for name in before} == before


def test_every_library_name_the_worker_reads_resolves():
    # read from the source: importing the worker would import the tracer
    # and the workload documents with it
    modules = {"cli": cli, "detector": detector, "norm": norm}
    read = {(node.value.id, node.attr) for node in ast.walk(ast.parse(WORKER_PY.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {mod for mod, _ in read} == set(modules)
    missing = sorted(f"{mod}.{attr}" for mod, attr in read if not hasattr(modules[mod], attr))
    assert missing == []


def test_window_plan_keeps_the_fields_the_observers_read():
    names = {f.name for f in dataclasses.fields(norm.WindowPlan)}
    assert {"starts", "gammas", "idx", "weights"} <= names
    assert isinstance(norm.WindowPlan.count, property)


def test_traced_build_registers_every_class_through_classify(spans, product_space, rotation_group):
    tracer = spans.Tracer()
    tracer.install()
    try:
        cfg = renormlab.build_config(product_space, rotation_group, C=1.1, depth=3)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["tuples.classify.new"] == metrics["tuples.registry_classes"] == len(cfg.registry.all_classes())
    assert metrics["norm.plan_tuples"] == sum(p.count for p in cfg.plans)
    assert metrics["tuples.verify_bmap.calls"] == 1


def test_traced_build_reads_one_word_list(spans, product_space, rotation_group):
    # every key reads the W images of the one word table
    tracer = spans.Tracer()
    tracer.install()
    try:
        cfg = renormlab.build_config(product_space, rotation_group, C=1.1, depth=3)
        renormlab.certify(rotation_group.generators[0], cfg, test_depth=3)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # the registry, the orbit code and certify read the word table, and
    # none of them builds the word objects
    assert metrics["operators.words.count"] == 0
    W = len(rotation_group.word_table()[0])
    assert metrics["tuples.canonical_key.calls"] > 0
    assert metrics["tuples.canonical_key.images"] == W * metrics["tuples.canonical_key.calls"]
