"""Scenario runner and report emitter.

``renorm-lab run scenario.json --out reports/`` executes the scenario's
tasks in order and writes one JSON report per task plus a summary; reports
embed the parameter provenance so every number is replayable.  Exit codes:
0 all assertions pass, 1 an assertion failed, 2 input error.

``renorm-lab eval`` exposes the one-shot flags (--space, --group, --check,
--orbits, --norm, --dual, --certify, --bounded-group) for quick queries.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
import traceback
from pathlib import Path

import numpy as np

from . import io as rio
from .bounded import _agree, _image_weight, conjugate, m_weight
from .detector import certify
from .norm import (
    WITNESS_EPS,
    RenormConfig,
    TupleBudgetError,
    build_config,
    dual_norm_atoms,
    dual_norm_delta,
    triple_norm,
    witness_for_tuple,
    witness_function,
)
from .operators import (
    GroupSpec,
    check_local_equicontinuity,
    check_sot_convergence,
    circle_rotation,
    compose,
    identity,
    interval_flip,
    lift,
    line_translation,
    multiplication,
    onepoint_swap_group,
    remark25_sequence,
)
from .orbits import orbit_closure
from .space import SampledSpace, _integer, _positive, builtin_space, validate_metric
from .tuples import choose_parameters, verify_bmap


class InputError(Exception):
    pass


# the verdicts ``certify`` returns, which a detect entry may expect
_VERDICTS = ("certified-in-G", "rejected", "inconclusive")


# ----------------------------------------------------------------------
# scenario object construction


def make_space(spec: dict) -> SampledSpace:
    if "file" in spec:
        return rio.load_space(spec["file"])
    if "builtin" in spec:
        return builtin_space(spec["builtin"], **spec.get("params", {}))
    raise InputError("space spec needs 'builtin' or 'file'")


def make_group(spec: dict, space: SampledSpace) -> GroupSpec:
    if "file" in spec:
        return rio.load_group(spec["file"], space)
    kind = spec.get("builtin")
    word_cap = _integer(spec.get("word_cap", 2 if kind == "onepoint_swaps" else 6), "group word_cap", 1)
    if kind == "trivial":
        return GroupSpec.trivial(space)
    if kind == "rotation":
        q = _integer(spec.get("q", 12), "group q", 1)
        lifted = bool(space.factors)
        circ = space.factors[0] if lifted else space
        if circ.metric_form.get("form") != "circle":
            raise InputError("rotation group needs a circle or circle-product space")
        gen = circle_rotation(circ, steps=_rotation_steps(circ, q, "group q"))
        gen.label = f"rot2pi/{q}"
        return GroupSpec((lift(gen, space, "left") if lifted else gen,), word_cap=word_cap,
                         label=f"rot{q}-lift" if lifted else f"rot{q}")
    if kind == "onepoint_swaps":
        return onepoint_swap_group(space, word_cap=word_cap, count=spec.get("count"))
    raise InputError(f"unknown group spec {spec!r}")


def _rotation_steps(circ: SampledSpace, q: int, name: str) -> int:
    """Steps of the rotation by 2 pi / q, snapped to the circle's sample."""
    count = circ.metric_form["count"]
    if q > count:
        raise InputError(f"{name} must be at most the circle's point count {count}, got {q}")
    return count // q


def make_operator(spec: dict, space: SampledSpace, group: GroupSpec):
    if "file" in spec:
        return rio.load_operator(spec["file"], space)
    kind = spec.get("builtin")
    if kind == "identity":
        return identity(space)
    if kind == "translation":
        return line_translation(space, float(spec["offset"]))
    if kind == "multiplication":
        return compose(multiplication(space, float(spec["factor"])), identity(space))
    if kind == "generator_word":
        indices = spec.get("indices", [0])
        if not isinstance(indices, (list, tuple)):
            raise InputError(f"detect operator generator_word: indices must be a list of generator indices, "
                             f"got {indices!r}")
        op = identity(space)
        for j, gi in enumerate(indices):
            gi = _integer(gi, f"detect operator generator_word: indices[{j}]", 0)
            if gi >= len(group.generators):
                raise InputError(f"detect operator generator_word: indices[{j}] must be below "
                                 f"{len(group.generators)}, the group's generator count, got {gi}")
            op = compose(op, group.generators[gi])
        op.label = "word:" + ",".join(str(i) for i in indices)
        return op
    if kind == "rotation_flip":
        if [f.metric_form.get("form") for f in space.factors] != ["circle", "line"]:
            raise InputError("rotation_flip needs a circle x line product space")
        circ, seg = space.factors
        q = _integer(spec.get("q", 12), "detect operator rotation_flip: q", 1)
        steps = _rotation_steps(circ, q, "detect operator rotation_flip: q")
        rot = lift(circle_rotation(circ, steps=steps), space, "left")
        flip = lift(interval_flip(seg), space, "right")
        out = compose(rot, flip)
        out.label = "rotation+flip"
        return out
    raise InputError(f"unknown operator spec {spec!r}")


# ----------------------------------------------------------------------
# random test functions

# knots of a random piecewise-linear function on a line, anchors elsewhere
_KNOTS = 12


def random_piecewise_linear(space: SampledSpace, rng: np.random.Generator) -> np.ndarray:
    if space.metric_form.get("form") == "line":
        coords = space.metric.x
        kx = np.sort(rng.choice(coords, size=min(_KNOTS, len(coords)), replace=False))
        ky = rng.uniform(-1.0, 1.0, size=len(kx))
        return np.interp(coords, kx, ky)
    # generic fallback: smooth-ish random field via a few anchor points
    anchors = rng.integers(0, space.n, size=min(_KNOTS, space.n))
    vals = rng.uniform(-1.0, 1.0, size=len(anchors))
    scale = max(space.metric.diameter / 4, space.resolution)
    weights = np.exp(-space.metric.cross(np.arange(space.n), anchors) / scale)
    return (weights * vals).sum(axis=1) / weights.sum(axis=1)


# ----------------------------------------------------------------------
# tasks


def task_build_config(cfg: RenormConfig) -> dict:
    metric_report = validate_metric(cfg.space)
    return {
        "ok": bool(metric_report["ok"]),
        "provenance": cfg.provenance(),
        "metric_report": metric_report,
        "base_points": [cfg.space.points[i] for i in cfg.base_points],
        "selection_audit": cfg.selection_audit[:20],
        "registry_size": len(cfg.registry),
        "registry": list(itertools.islice(cfg.registry.to_records(cfg.space.points), 200)),
        "compactness_note": "compactness at sample scale means containment in an exhaustion element",
    }


def task_verify_bmap(cfg: RenormConfig) -> dict:
    report = verify_bmap(cfg.bc, cfg.depth, cfg.registry)
    return {"ok": report["ok"], "report": {k: v for k, v in report.items()},
            "provenance": cfg.provenance()}


def task_norm_suite(cfg: RenormConfig, count: int, rng: np.random.Generator) -> dict:
    worst_lower = 0.0
    worst_upper = 0.0
    worst_bound = 0.0
    for _ in range(count):
        x = random_piecewise_linear(cfg.space, rng)
        sup = float(np.max(np.abs(x)))
        if sup == 0:
            continue
        res = triple_norm(x, cfg)
        worst_lower = max(worst_lower, (sup - res.value) / sup)
        worst_upper = max(worst_upper, (res.value - cfg.bc.C * sup) / sup)
        worst_bound = max(worst_bound, res.truncation_bound / sup)
    ok = worst_lower <= 1e-12 and worst_upper <= 1e-12 and worst_bound <= 0.02
    return {
        "ok": bool(ok),
        "functions": count,
        "worst_lower_defect": worst_lower,
        "worst_upper_excess": worst_upper,
        "worst_relative_truncation_bound": worst_bound,
        "coverage_defect": cfg.coverage_defect,
        "provenance": cfg.provenance(),
    }


def task_dual_suite(cfg: RenormConfig, tuple_budget: int, grid: int) -> dict:
    betas = np.linspace(0.8, 1.0, grid)
    entries = []
    ok = True
    picked = 0
    for n in (1, 2):
        for start in range(1, cfg.base_count - n):
            if picked >= tuple_budget:
                break
            t = cfg.base_tuple(start, n)
            # one solve: a(t) is the fingerprint, and each beta's value is
            # beta . a(t), the float dual_norm_atoms returns for it
            fp = dual_norm_atoms(t, np.full(n + 1, betas[0]), cfg)[1]
            vals = [float(np.full(n + 1, b) @ fp) for b in betas]
            if not all(0.8 * (n + 1) * 0.8 - 1e-9 <= v <= (n + 1) + 1e-9 for v in vals):
                ok = False
            if any(b2 < b1 - 1e-12 for b1, b2 in zip(vals, vals[1:])):
                ok = False  # must be monotone in beta
            entries.append({
                "tuple": [cfg.space.points[p] for p in t.points],
                "fingerprint": [float(v) for v in fp],
                "values": vals,
            })
            picked += 1
    delta_checks = []
    for i in range(1, min(4, cfg.base_count + 1)):
        p = cfg.base_points[i - 1]
        check = {
            "point": cfg.space.points[p],
            "dual": dual_norm_delta(p, cfg),
            "expected": 1.0 / cfg.lam(i),
        }
        # lower-bound evidence: maximize the atom pairing over a witness bump
        try:
            t = cfg.base_tuple(i, 1) if i < cfg.base_count else cfg.base_tuple(i - 1, 1)
            u = (1.0 / cfg.lam(t.start), 1.0 / cfg.lam(t.start + 1))
            spec = witness_for_tuple(t, cfg, u)
            x, _ = witness_function(spec, cfg)
            ratio = float(x[p]) / triple_norm(x, cfg).value
            check["bump_lower_bound"] = ratio
            if ratio < (1 - WITNESS_EPS) * check["dual"]:
                ok = False
        except ValueError as exc:
            check["bump_lower_bound"] = None
            check["bump_note"] = str(exc)
        delta_checks.append(check)
        if abs(check["dual"] - check["expected"]) > 1e-12:
            ok = False
    return {"ok": bool(ok), "entries": entries, "delta_checks": delta_checks,
            "provenance": cfg.provenance()}


def task_detect(cfg: RenormConfig, operators: list) -> dict:
    """Certify each (operator, test_depth, expected verdict or None)."""
    reports = []
    ok = True
    for op, test_depth, expect in operators:
        verdict = certify(op, cfg, test_depth=test_depth)
        rep = {
            "operator": op.label,
            "verdict": verdict.verdict,
            "weight_ok": verdict.weight.weight_ok,
            "max_weight_deviation": verdict.weight.max_weight_deviation,
            "approx_group_element": verdict.approx_group_element,
            "witness": verdict.witness,
            "caps": verdict.caps,
            "checks": [
                {"tuple": list(c.tuple_points), "image": list(c.image_points),
                 "outcome": c.outcome, "detail": c.detail}
                for c in verdict.orbit_checks
            ],
        }
        if expect is not None:
            rep["expect"] = expect
            if verdict.verdict != expect:
                ok = False
        reports.append(rep)
    return {"ok": bool(ok), "operators": reports, "provenance": cfg.provenance()}


def task_sot_gallery(space: SampledSpace, eps: float) -> dict:
    if space.metric_form.get("form") != "remark25":
        raise InputError("sot-gallery runs on the remark25 space")
    n_max = space.metric_form["n_max"]
    column = [space.index(f"(0,{i})") for i in range(1, n_max + 1)] + [space.index("(0,inf)")]
    seq = remark25_sequence(space)
    lim = identity(space)
    # the top exhaustion element is the whole truncated sample: its
    # convergence threshold sits one step beyond the sampled horizon, so the
    # gallery checks the compacts whose thresholds are in-horizon
    K_list = list(space.exhaustion[:-1])
    verdict = check_sot_convergence(seq, lim, K_list, eps)
    x = np.zeros(space.n)
    x[column] = 1.0  # the column's indicator
    # sup |phi_n x - x|, read at the points each map moves
    gaps = seq.deviations(x).tolist()
    eq = check_local_equicontinuity(
        seq.inverse(), space.compact(column[2:], "column-tail"), (0.5,), space,
    )
    cond = {c.name: c for c in verdict.conditions}
    ok = (
        cond["phi_uniform"].passed
        and cond["weight_uniform"].passed
        and not cond["inverse_images"].passed
        and cond["inverse_images"].witness is not None
        and all(abs(g - 1.0) < 1e-15 for g in gaps)
        and not eq.equicontinuous
    )
    return {
        "ok": bool(ok),
        "eps": eps,
        "compacts_checked": [K.label for K in K_list],
        "top_element_note": "K_top equals the truncated sample; threshold exceeds horizon",
        "conditions": {
            name: {"passed": c.passed, "witness": c.witness, "thresholds": c.thresholds}
            for name, c in cond.items()
        },
        "moreover_applicable": verdict.moreover_applicable,
        "moreover_detail": verdict.moreover_detail,
        "sup_gaps_of_explicit_function": gaps,
        "inverse_family_equicontinuous": eq.equicontinuous,
    }


def task_bounded_suite(space: SampledSpace, group: GroupSpec) -> dict:
    if space.metric_form.get("form") != "onepoint01N":
        raise InputError("bounded-suite runs on the onepoint01N space")
    bgn = m_weight(group)
    n_max = space.metric_form["n_max"]
    inf_idx = space.index("inf")
    m_checks = {"inf": float(bgn.m[inf_idx])}
    i0, i1 = ([space.index(f"({i},{n})") for n in range(1, n_max + 1)] for i in (0, 1))
    ok = bgn.m[inf_idx] == 1.0 and (bgn.m[i0] == 1.0).all() and (bgn.m[i1] == 0.5).all()
    ok = ok and ("inf" in bgn.flagged)
    conj_dev = 0.0
    # the first, second and last generators: g_1, g_2 and g_n_max on the full
    # swap family, and no index past a smaller family's end; each one's
    # weight, and its exact distance from a sup-norm isometry
    for g in group.generators[:2] + group.generators[-1:]:
        cg = conjugate(g, bgn)
        conj_dev = max(conj_dev, float(np.max(np.abs(cg.weight - 1.0))),
                       float(np.max(np.abs(_image_weight(cg.forward, cg.weight) - 1.0))))
    # both formulas are sups of per-point columns times |x|, so they agree on
    # every x exactly when they agree on every indicator: there m_G and s
    agree = bool(_agree(bgn.m_G, bgn.s).all())
    ok = ok and conj_dev <= 1e-12 and agree
    return {
        "ok": bool(ok),
        "m_checks": m_checks,
        "flagged": bgn.flagged,
        "C_G": bgn.C_G,
        "cap_trace": bgn.cap_trace,
        "max_conjugation_deviation": conj_dev,
        "group_norm_formulas_agree": agree,
    }


# ----------------------------------------------------------------------
# runner


def run(scenario: dict, out_dir: Path, seed: int | None = None) -> int:
    seed = _integer(scenario.get("seed", 0), "seed", 0) if seed is None else seed
    cfg: RenormConfig | None = None
    build_error: Exception | None = None

    def ensure_cfg() -> RenormConfig:
        # one build per run; a failed build fails every task that needs it
        nonlocal cfg, build_error
        if cfg is None and build_error is None:
            try:
                cfg = build_config(space, group, C=C, depth=depth,
                                   gamma_cap=gamma_cap, base_count=base_count)
            except TupleBudgetError as exc:
                raise InputError(str(exc)) from exc
            except Exception as exc:
                build_error = exc
        if build_error is not None:
            raise build_error
        return cfg

    # each entry looks its task_* function up when it runs, so a rebound
    # module attribute takes effect; norm-suite, the one task that draws,
    # seeds its own generator
    table = {
        "build-config": lambda: task_build_config(ensure_cfg()),
        "verify-bmap": lambda: task_verify_bmap(ensure_cfg()),
        "norm-suite": lambda: task_norm_suite(ensure_cfg(), count, np.random.default_rng(seed)),
        "dual-suite": lambda: task_dual_suite(ensure_cfg(), tuple_budget, grid),
        "detect": lambda: task_detect(ensure_cfg(), operators),
        "sot-gallery": lambda: task_sot_gallery(space, eps),
        "bounded-suite": lambda: task_bounded_suite(space, group),
    }
    tasks = scenario.get("tasks", [])
    for task in tasks:
        if task not in table:
            raise InputError(f"unknown task {task!r}")
    # every field is read and checked here, before any report is written
    C = float(scenario.get("C", 1.1))
    try:
        choose_parameters(C)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    depth = _integer(scenario.get("depth", 6), "depth", 2)
    base_count = scenario.get("base_count")
    if base_count is not None:
        _integer(base_count, "base_count", depth)
    gamma_cap = scenario.get("gamma_cap")
    if gamma_cap is not None:
        _integer(gamma_cap, "gamma_cap", 1)
    count = _integer(scenario.get("norm_suite", {}).get("count", 50), "norm_suite count", 1)
    dual = scenario.get("dual_suite", {})
    tuple_budget = _integer(dual.get("tuples", 10), "dual_suite tuples", 1)
    grid = _integer(dual.get("beta_grid", 5), "dual_suite beta_grid", 1)
    eps = float(_positive(scenario.get("sot_gallery", {}).get("eps", 0.01), "sot_gallery eps"))
    space = make_space(scenario["space"])
    if base_count is not None and base_count > space.n:
        raise InputError(f"base_count {base_count} exceeds the {space.n} points of space {space.name!r}")
    # an explicit group is built and checked here; the default trivial one
    # only when a task other than sot-gallery, which reads no group, runs
    group = (make_group(scenario.get("group", {"builtin": "trivial"}), space)
             if "group" in scenario or set(tasks) - {"sot-gallery"} else None)
    operators = []
    if "detect" in tasks:
        for spec in scenario.get("detect", []):
            op = make_operator(spec, space, group)
            test_depth = _integer(spec.get("test_depth", 4), f"detect operator {op.label!r}: test_depth", 1)
            expect = spec.get("expect")
            if expect is not None and expect not in _VERDICTS:
                raise InputError(f"detect operator {op.label!r}: expect must be one of "
                                 f"{', '.join(map(repr, _VERDICTS))}, got {expect!r}")
            operators.append((op, test_depth, expect))

    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"seed": seed, "tasks": {}, "scenario": scenario}
    exit_code = 0
    for task in tasks:
        try:
            report = table[task]()
        except InputError:
            raise
        except Exception as exc:  # assertion-level failure inside a task
            report = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        rio.dump_json(report, out_dir / f"{task}.json")
        summary["tasks"][task] = report.get("ok", False)
        if not report.get("ok", False):
            exit_code = 1
    rio.dump_json(summary, out_dir / "summary.json")
    return exit_code


# ----------------------------------------------------------------------
# one-shot evaluation


def _point_ids(text: str) -> list[str]:
    """The comma-separated point ids of a flag; a comma inside parentheses
    belongs to its id, as in ``(1,50)``."""
    return [p.strip() for p in re.split(r",(?![^()]*\))", text)]


def _spec(arg: str) -> dict:
    """The spec of a flag that takes a builtin name or a .json file."""
    return {"file": arg} if arg.endswith(".json") else {"builtin": arg}


def eval_command(args) -> int:
    if args.space is None:
        raise InputError("--space is required")
    if args.mg_report and not args.bounded_group:
        raise InputError("--mg-report needs --bounded-group")
    space = make_space(_spec(args.space))
    group = make_group(_spec(args.group), space) if args.group else None
    out: dict = {}
    if args.check:
        if group is None:
            raise InputError("--check needs --group")
        seq = list(group.generators)
        lim = identity(space)
        if args.check == "sot":
            verdict = check_sot_convergence(seq, lim, list(space.exhaustion), 1e-2)
            out = {
                "converges": verdict.converges,
                "conditions": {c.name: c.passed for c in verdict.conditions},
                "weight_bound": verdict.weight_bound,
            }
        elif args.check == "equicont":
            rep = check_local_equicontinuity([g.forward for g in seq], space.top_exhaustion,
                                             (0.5, 0.25, 0.1), space)
            # an unconstrained delta is inf, which JSON cannot hold
            table = [(eps, None if delta == math.inf else delta) for eps, delta in rep.table]
            out = {"equicontinuous": rep.equicontinuous, "table": table,
                   "witnesses": [(e, list(wit)) for e, wit in rep.witnesses]}
        else:
            raise InputError("--check must be sot or equicont")
    elif args.orbits:
        if group is None:
            raise InputError("--orbits needs --group")
        points = tuple(space.index(p) for p in _point_ids(args.orbits))
        orb = orbit_closure(group, points)
        out = {
            "base": [space.points[i] for i in orb.base],
            "word_cap": orb.word_cap,
            "samples": [[space.points[i] for i in s] for s in orb.samples],
            "window_clipped": orb.window_clipped,
        }
    elif args.norm or args.dual or args.certify:
        if group is None:
            group = GroupSpec.trivial(space)
        cfg = build_config(space, group, C=args.C, depth=args.depth,
                           gamma_cap=args.gamma_cap)
        if args.norm:
            x = rio.load_function(args.norm, space)
            res = triple_norm(x, cfg)
            out = {
                "value": res.value,
                "truncation_bound": res.truncation_bound,
                "argmax_window": list(res.argmax_window),
                "argmax_points": list(res.argmax_points),
                "gamma_capped": res.gamma_capped,
                "coverage_defect": res.coverage_defect,
                "provenance": cfg.provenance(),
            }
        elif args.dual:
            ids = _point_ids(args.dual[0])
            beta = [float(b) for b in args.dual[1:]]
            t = cfg.window_tuple(tuple(space.index(p) for p in ids))
            if t is None:
                raise InputError(f"tuple {','.join(ids)} does not sit on a consecutive base "
                                 "window; eval accepts only tuples on a consecutive base window")
            value, fp = dual_norm_atoms(t, beta, cfg)
            out = {"value": value, "fingerprint": [float(v) for v in fp],
                   "provenance": cfg.provenance()}
        else:
            op = rio.load_operator(args.certify, space)
            verdict = certify(op, cfg)
            out = {"verdict": verdict.verdict, "witness": verdict.witness,
                   "approx_group_element": verdict.approx_group_element,
                   "caps": verdict.caps}
    elif args.bounded_group:
        bgn = m_weight(make_group(_spec(args.bounded_group), space))
        out = {"C_G": bgn.C_G, "cap_trace": bgn.cap_trace}
        if args.mg_report:
            out["m"] = {space.points[i]: float(v) for i, v in enumerate(bgn.m)}
            out["flagged"] = bgn.flagged
    else:
        out = {"space": space.name, "n": space.n,
               "metric_report": validate_metric(space)}
    text = json.dumps(out, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="renorm-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default="reports")
    p_run.add_argument("--seed", type=int, default=None)

    p_eval = sub.add_parser("eval", help="one-shot evaluations")
    p_eval.add_argument("--space", help="builtin name or space file")
    p_eval.add_argument("--group", help="builtin name or group file")
    action = p_eval.add_mutually_exclusive_group()  # one query per call
    action.add_argument("--check", choices=["sot", "equicont"])
    action.add_argument("--orbits", help="comma-separated point ids")
    action.add_argument("--norm", help="function file")
    action.add_argument("--dual", nargs="+", help="tuple-ids beta0 beta1 ...")
    action.add_argument("--certify", help="operator file")
    action.add_argument("--bounded-group", dest="bounded_group", help="builtin name or group file")
    p_eval.add_argument("--mg-report", dest="mg_report", action="store_true")
    p_eval.add_argument("--depth", type=int, default=4)
    p_eval.add_argument("--C", type=float, default=1.1)
    p_eval.add_argument("--gamma-cap", dest="gamma_cap", type=int, default=None)
    p_eval.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            scenario = json.loads(Path(args.scenario).read_text())
            return run(scenario, Path(args.out), seed=args.seed)
        return eval_command(args)
    except (InputError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's ArrayMemoryError is one: not an input error
        print(f"out of memory: renorm-lab {args.command} stopped ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
