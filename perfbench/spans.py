"""Layer spans for renormlab, recorded from outside the library.

``Tracer.install()`` replaces selected public functions of the renormlab
modules with thin wrappers.  Every module-level name bound to a target
function is rebound (``renormlab.norm.verify_bmap`` and
``renormlab.cli.verify_bmap`` are separate bindings), and methods are
replaced on their class.  ``Tracer.uninstall()`` restores every binding.

A span's self time is its duration minus the time its child spans cover.
Nested spans of one name (``builtin_space`` calling ``product``) add their
self times, so the per-name sum never counts an interval twice.  Counters
are recorded at the same boundaries; sizes in MB or GB are computed from
array shapes, not measured.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

MODULES = ("space", "operators", "orbits", "tuples", "norm", "detector", "bounded", "io", "cli")

TASKS = ("build-config", "verify-bmap", "norm-suite", "dual-suite", "detect",
         "sot-gallery", "bounded-suite")

# (module, attribute) -> span name; a dotted attribute is a method on a class
SPANS = {
    ("space", "builtin_space"): "space.construct",
    ("space", "product"): "space.construct",
    ("space", "validate_metric"): "space.validate_metric",
    ("operators", "GroupSpec.words"): "operators.words",
    ("operators", "check_sot_convergence"): "operators.check_sot_convergence",
    ("operators", "check_local_equicontinuity"): "operators.check_local_equicontinuity",
    ("orbits", "select_dense_points"): "orbits.select_dense_points",
    ("orbits", "equivalent"): "orbits.equivalent",
    ("tuples", "ClassRegistry.classify"): "tuples.classify",
    ("tuples", "ClassRegistry.canonical_key"): "tuples.canonical_key",
    ("tuples", "enumerate_window"): "tuples.enumerate_window",
    ("tuples", "verify_bmap"): "tuples.verify_bmap",
    ("norm", "build_config"): "norm.build_config",
    ("norm", "triple_norm"): "norm.triple_norm",
    ("norm", "gamma_cap_trace"): "norm.gamma_cap_trace",
    ("norm", "dual_norm_atoms"): "norm.dual_norm_atoms",
    ("norm", "witness_function"): "norm.witness_function",
    ("detector", "certify"): "detector.certify",
    ("detector", "check_weight_one"): "detector.check_weight_one",
    ("bounded", "m_weight"): "bounded.m_weight",
    ("bounded", "group_norm"): "bounded.group_norm",
    ("bounded", "conjugate"): "bounded.conjugate",
    ("io", "dump_json"): "io.dump_json",
    ("cli", "run"): "cli.run",
    **{("cli", "task_" + t.replace("-", "_")): "cli.task." + t for t in TASKS},
}

# functions whose calls are counted but whose time stays with the caller
COUNTED = {
    ("operators", "compose"): "operators.compose.calls",
    ("orbits", "orbit_closure"): "orbits.orbit_closure.calls",
    ("norm", "solve_unit"): "norm.solve_unit.calls",
}

# spans whose call counts are reported as "<span>.calls"
CALLED = ("space.validate_metric", "orbits.equivalent", "tuples.classify", "tuples.canonical_key",
          "tuples.enumerate_window", "tuples.verify_bmap", "norm.triple_norm", "norm.dual_norm_atoms",
          "detector.certify", "bounded.group_norm")


def _self_time_metric(span: str) -> str:
    if span == "cli.run":
        return "cli.self_s"
    if span.startswith("cli.task."):
        return "cli.task_s." + span.removeprefix("cli.task.")
    return span + "_s"


# self-time metric -> span name
SELF_TIME_METRICS = {_self_time_metric(span): span for span in SPANS.values()}

# every per-layer metric with its unit, in report order
PER_LAYER = {
    **{name: "s" for name in SELF_TIME_METRICS},
    **{f"{span}.calls": "count" for span in CALLED},
    **{name: "count" for name in COUNTED.values()},
    "space.validate_metric.triples": "count",
    "space.validate_metric.gb_moved": "GB",
    "space.dmat_mb": "MB",
    "operators.words.count": "count",
    "orbits.base_points": "count",
    "tuples.classify.new": "count",
    "tuples.classify.hit_ratio": "ratio",
    "tuples.canonical_key.images": "count",
    "tuples.verify_bmap.checked": "count",
    "tuples.registry_classes": "count",
    "norm.plan_tuples": "count",
    "norm.plan_mb": "MB",
    "norm.triple_norm.tuple_evals": "count",
    "io.report_bytes": "B",
    "trace.overhead_s": "s",
}

MB = 2.0 ** 20


def _validate_metric_bytes(report: dict) -> float:
    """Bytes the triangle check streams, computed from its mode.

    The exhaustive loop runs n passes over (n, n) arrays: it writes
    ``via``, reads ``d`` and ``via``, writes ``gap`` and reads ``gap`` for
    the max, five float64 passes in all.  The random mode gathers three
    distances per triple and writes one gap.
    """
    n = report["n"]
    if report["mode"] == "exhaustive":
        return 5 * 8.0 * n * n * n
    return 4 * 8.0 * report["triples_checked"]


class Tracer:
    """Collects spans and counters while installed; inert when paused."""

    def __init__(self):
        self.active = True
        self.stats: dict[str, list] = {}   # span -> [calls, self_s, total_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._open: dict[str, int] = {}
        self._bindings: list[tuple[object, str, object]] = []
        # objects already counted, by id; holding them keeps the ids unique
        self._seen: dict[int, object] = {}
        self._registries: dict[int, object] = {}

    # -- recording ------------------------------------------------------

    def add(self, name: str, k: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def _first_sight(self, obj) -> bool:
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj
        return True

    def _span(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._open[name] = tracer._open.get(name, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._stack.pop()
                tracer._open[name] -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                st = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dt - frame[0]
                if tracer._open[name] == 0:
                    st[2] += dt
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def _counted(self, counter: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.add(counter)
            return fn(*args, **kwargs)

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    # -- observers: counts taken from arguments and results --------------

    def _observers(self) -> dict:
        def construct(args, kwargs, space):
            mb = space.dmat.nbytes / MB
            self.counters["space.dmat_mb"] = max(self.counters.get("space.dmat_mb", 0.0), mb)

        def validate_metric(args, kwargs, report):
            self.add("space.validate_metric.triples", report["triples_checked"])
            self.add("space.validate_metric.gb_moved", _validate_metric_bytes(report) / 1e9)

        def words(args, kwargs, out):
            if self._first_sight(out):
                self.add("operators.words.count", len(out))

        def select(args, kwargs, out):
            self.add("orbits.base_points", len(out[0]))

        def classify(args, kwargs, info):
            self._registries[id(args[0])] = args[0]
            if self._first_sight(info):
                self.add("tuples.classify.new")

        def canonical_key(args, kwargs, key):
            self.add("tuples.canonical_key.images", len(args[0].word_maps))

        def verify_bmap(args, kwargs, report):
            self.add("tuples.verify_bmap.checked", report["checked"])

        def build_config(args, kwargs, cfg):
            self.add("norm.plan_tuples", sum(p.count for p in cfg.plans))
            nbytes = sum(p.starts.nbytes + p.gammas.nbytes + p.idx.nbytes + p.weights.nbytes
                         for p in cfg.plans)
            self.add("norm.plan_mb", nbytes / MB)

        def triple_norm(args, kwargs, res):
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            self.add("norm.triple_norm.tuple_evals", sum(p.count for p in cfg.plans))

        def dump_json(args, kwargs, res):
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.add("io.report_bytes", os.path.getsize(path))

        return {
            "space.construct": construct,
            "space.validate_metric": validate_metric,
            "operators.words": words,
            "orbits.select_dense_points": select,
            "tuples.classify": classify,
            "tuples.canonical_key": canonical_key,
            "tuples.verify_bmap": verify_bmap,
            "norm.build_config": build_config,
            "norm.triple_norm": triple_norm,
            "io.dump_json": dump_json,
        }

    # -- installing and removing wrappers -------------------------------

    def install(self) -> None:
        """Wrap every target; the renormlab modules must be imported."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        mods = _library_modules()
        observers = self._observers()
        for (mod, attr), span in SPANS.items():
            self._wrap(mods, mod, attr, lambda fn, s=span: self._span(s, fn, observers.get(s)))
        for (mod, attr), counter in COUNTED.items():
            self._wrap(mods, mod, attr, lambda fn, c=counter: self._counted(c, fn))

    def _wrap(self, mods: dict, mod: str, attr: str, make) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[meth]
            self._bindings.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mods[mod], attr)
        wrapper = make(original)
        for module in mods.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._bindings.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._bindings):
            setattr(owner, name, original)
        self._bindings.clear()
        self._seen.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``."""
        out = {name: 0.0 for name in PER_LAYER if name != "trace.overhead_s"}
        for name, span in SELF_TIME_METRICS.items():
            out[name] = self.stats.get(span, [0, 0.0, 0.0])[1]
        for span in CALLED:
            out[f"{span}.calls"] = self.stats.get(span, [0])[0]
        out.update(self.counters)
        calls = out["tuples.classify.calls"]
        out["tuples.classify.hit_ratio"] = (calls - out["tuples.classify.new"]) / calls if calls else 0.0
        out["tuples.registry_classes"] = max((len(r.all_classes()) for r in self._registries.values()), default=0)
        return {k: float(v) for k, v in out.items()}

    def span_table(self) -> dict[str, dict]:
        return {name: {"calls": c, "self_s": s, "total_s": t}
                for name, (c, s, t) in sorted(self.stats.items())}


def _library_modules() -> dict:
    import renormlab

    mods = {"renormlab": renormlab}
    for name in MODULES:
        mods[name] = sys.modules["renormlab." + name]
    return mods


def leftover_wrappers() -> list[str]:
    """Names in the renormlab modules and classes still bound to a wrapper."""
    found = []
    for mod_name, module in _library_modules().items():
        for name, value in vars(module).items():
            if hasattr(value, "__perfbench_wrapped__"):
                found.append(f"{mod_name}.{name}")
            if isinstance(value, type) and value.__module__.startswith("renormlab"):
                for meth, member in vars(value).items():
                    if hasattr(member, "__perfbench_wrapped__"):
                        found.append(f"{mod_name}.{name}.{meth}")
    return sorted(set(found))
