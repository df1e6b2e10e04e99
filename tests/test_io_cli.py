import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import renormlab as rl
from renormlab import io as rio
from renormlab import cli, norm
from renormlab import space as space_mod
from renormlab.cli import InputError, main, run
from renormlab.norm import TupleBudgetError
from renormlab.operators import interval_flip, line_translation, onepoint_swap_group


def test_space_round_trip_builtin(tmp_path):
    sp = rl.builtin_space("remark25", n_max=6)
    path = tmp_path / "space.json"
    rio.save_space(sp, path)
    back = rio.load_space(path)
    assert back.points == sp.points
    assert np.allclose(back.dmat, sp.dmat)
    assert back.resolution == sp.resolution


def test_space_round_trip_matrix(tmp_path):
    sp = rl.builtin_space("circle", count=12)
    doc = rio.space_to_dict(sp)
    doc["metric"] = {"form": "matrix", "values": sp.dmat.tolist()}
    path = tmp_path / "space.json"
    rio.dump_json(doc, path)
    back = rio.load_space(path)
    assert back.points == sp.points
    assert np.allclose(back.dmat, sp.dmat)


def test_a_saved_matrix_space_reloads_as_the_same_space(tmp_path):
    # the circle's distances are not 12-decimal numbers; the file keeps every bit
    twin = _matrix_twin(rl.builtin_space("circle", count=12))
    rio.save_space(twin, tmp_path / "twin.json")
    back = rio.load_space(tmp_path / "twin.json")
    assert back.dmat.tobytes() == twin.dmat.tobytes() and space_mod.same_space(back, twin)
    assert np.array_equal(rl.compose(rl.identity(twin), rl.identity(back)).forward, np.arange(twin.n))
    # a file with rounded distances still loads
    doc = rio.space_to_dict(twin)
    doc["metric"]["values"] = np.round(twin.dmat, 12).tolist()
    rio.dump_json(doc, tmp_path / "rounded.json")
    assert rio.load_space(tmp_path / "rounded.json").points == twin.points


def test_cli_eval_refuses_a_space_file_with_a_fractional_exhaustion_member(tmp_path, capsys):
    doc = rio.space_to_dict(_matrix_twin(rl.builtin_space("line", step=0.5, window=(0, 1))))
    doc["exhaustion"][0]["members"][0] = 0.5
    path = tmp_path / "fractional.json"
    rio.dump_json(doc, path)
    assert main(["eval", "--space", str(path)]) == 2
    assert f"space file {path}: compact set member 0.5 is not an integer" in capsys.readouterr().err


def _builtin_form_by_tag_list(form):
    # the tag list space_to_dict kept before it asked whether the metric is closed-form
    kind = form.get("form")
    if kind in ("line", "circle", "remark25", "onepoint01N"):
        return form
    if kind == "product":
        a, b = _builtin_form_by_tag_list(form["a"]), _builtin_form_by_tag_list(form["b"])
        if a and b:
            return {"form": "product", "a": a, "b": b}
    return None


def test_space_to_dict_metric_matches_the_tag_list():
    spaces = [rl.builtin_space(name, **params) for name, params in (
        ("line", {"step": 0.5, "window": (0, 2)}), ("circle", {"count": 6}),
        ("plane", {"step": 1.0, "window": (0, 2)}), ("remark25", {"n_max": 4}),
        ("onepoint01N", {"n_max": 4}), ("circle_x_interval", {"count": 6, "levels": 3}))]
    matrix_factor = _matrix_twin(rl.builtin_space("circle", count=4))
    line = rl.builtin_space("line", step=0.5, window=(0, 1))
    spaces += [rl.product(matrix_factor, line), matrix_factor]
    forms = []
    for sp in spaces:
        form = _builtin_form_by_tag_list(sp.metric_form)
        if form is None and sp.factors:  # each factor nested as its own document
            form = {"form": "product", "a": rio.space_to_dict(sp.factors[0]), "b": rio.space_to_dict(sp.factors[1])}
        expected = form if form is not None else {"form": "matrix", "values": sp.dmat.tolist()}
        metric = rio.space_to_dict(sp)["metric"]
        assert metric == expected
        forms.append(metric["form"])
    assert forms == ["line", "circle", "product", "remark25", "onepoint01N", "product", "product", "matrix"]
    nested = rio.space_to_dict(spaces[-2])["metric"]
    assert nested["a"]["metric"]["form"] == "matrix" and nested["b"]["metric"] == line.metric_form


def _matrix_twin(space):
    """The space with its closed-form tag replaced by the matrix form."""
    return dataclasses.replace(space, metric_form={"form": "matrix"}, factors=())


def test_a_product_with_a_matrix_factor_reloads_with_its_factors(tmp_path):
    sp = rl.product(rl.builtin_space("circle", count=12), _matrix_twin(rl.builtin_space("line", step=0.5, window=(0, 1))))
    assert cli.make_group({"builtin": "rotation"}, sp).label == "rot12-lift"
    rio.save_space(sp, tmp_path / "cxm.json")
    back = rio.load_space(tmp_path / "cxm.json")
    assert back.name == sp.name and back.metric_form == sp.metric_form
    assert [f.metric_form for f in back.factors] == [f.metric_form for f in sp.factors]
    assert space_mod.same_space(back, sp)  # the line's distances 0, 0.5 and 1 save exactly
    assert cli.make_group({"builtin": "rotation"}, back).label == "rot12-lift"
    doc = rio.space_to_dict(sp)
    doc["points"][0] = "c999|x+0"
    rio.dump_json(doc, tmp_path / "moved.json")
    with pytest.raises(ValueError, match="product space does not reproduce the stored points"):
        rio.load_space(tmp_path / "moved.json")
    # such a product saved as one plain matrix still loads, as that matrix
    doc = rio.space_to_dict(sp)
    doc["metric"] = {"form": "matrix", "values": np.round(sp.dmat, 12).tolist()}
    rio.dump_json(doc, tmp_path / "plain.json")
    plain = rio.load_space(tmp_path / "plain.json")
    assert plain.factors == () and plain.points == sp.points and np.allclose(plain.dmat, sp.dmat)


_ROUND_TRIP_GROUPS = [{"builtin": "trivial"}, {"builtin": "rotation", "q": 4, "word_cap": 3},
                      {"builtin": "onepoint_swaps", "count": 2}]
_ROUND_TRIP_OPERATORS = [{"builtin": "identity"}, {"builtin": "translation", "offset": 0.5},
                         {"builtin": "multiplication", "factor": 2.0},
                         {"builtin": "generator_word", "indices": [0, 0]}, {"builtin": "rotation_flip", "q": 4}]


def _round_trip_spaces():
    circle, line = rl.builtin_space("circle", count=12), rl.builtin_space("line", step=0.5, window=(0, 1))
    yield from (rl.builtin_space(name, **params) for name, params in (
        ("line", {"step": 0.5, "window": (0, 2)}), ("circle", {"count": 12}),
        ("plane", {"step": 1.0, "window": (0, 2)}), ("remark25", {"n_max": 4}),
        ("onepoint01N", {"n_max": 4}), ("circle_x_interval", {"count": 12, "levels": 4})))
    yield from (rl.product(circle, _matrix_twin(line)), rl.product(_matrix_twin(line), circle),
                rl.product(_matrix_twin(circle), line), rl.product(_matrix_twin(line), _matrix_twin(line)),
                _matrix_twin(line))


def _builder_outcomes(space):
    """What every group and operator builder of the cli makes of the space:
    each result's maps and weights, or its refusal."""

    def outcome(build):
        try:
            made = build()
        except (InputError, ValueError) as exc:
            return None, f"refused: {exc}"
        ops = made.generators if isinstance(made, rl.GroupSpec) else (made,)
        return made, [(op.label, op.forward.tolist(), op.backward.tolist(), op.weight.tolist()) for op in ops]

    out = {}
    for gspec in _ROUND_TRIP_GROUPS:
        group, out[str(gspec)] = outcome(lambda: cli.make_group(gspec, space))
        group = group or rl.GroupSpec.trivial(space)
        for ospec in _ROUND_TRIP_OPERATORS:
            out[str(gspec), str(ospec)] = outcome(lambda: cli.make_operator(ospec, space, group))[1]
    return out


def _tag_id(form):
    return f"{_tag_id(form['a'])}x{_tag_id(form['b'])}" if form["form"] == "product" else form["form"]


@pytest.mark.parametrize("space", list(_round_trip_spaces()), ids=lambda sp: _tag_id(sp.metric_form))
def test_builders_act_the_same_before_and_after_a_round_trip(tmp_path, space):
    rio.save_space(space, tmp_path / "space.json")
    back = rio.load_space(tmp_path / "space.json")
    assert back.points == space.points and back.metric_form == space.metric_form
    assert [f.metric_form for f in back.factors] == [f.metric_form for f in space.factors]
    before, after = _builder_outcomes(space), _builder_outcomes(back)
    assert after == before
    assert any(not isinstance(o, str) for o in before.values())


def test_a_space_acts_the_same_before_and_after_a_round_trip(tmp_path):
    # what a space is comes from its tag alone: a line is a line on both
    # sides of save_space/load_space, and its matrix twin is one on neither
    line = rl.builtin_space("line", step=0.25, window=(0, 1))
    twin = dataclasses.replace(line, metric_form={"form": "matrix"})
    rio.save_space(line, tmp_path / "line.json")
    rio.save_space(twin, tmp_path / "twin.json")
    back = rio.load_space(tmp_path / "line.json")
    assert np.array_equal(line_translation(back, 0.25).forward, line_translation(line, 0.25).forward)
    assert np.array_equal(interval_flip(back).forward, interval_flip(line).forward)
    for space in (twin, rio.load_space(tmp_path / "twin.json")):
        with pytest.raises(ValueError, match="line_translation requires a line space"):
            line_translation(space, 0.25)
        with pytest.raises(ValueError, match="interval_flip requires a line space"):
            interval_flip(space)


@pytest.mark.parametrize("bad", [2.9, True, 0, "3", None])
def test_group_file_word_cap_must_be_an_integer(tmp_path, bad):
    sp = rl.builtin_space("line", step=0.5, window=(0, 2))
    doc = rio.group_to_dict(rl.GroupSpec.trivial(sp))
    doc["word_cap"] = bad
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        rio.load_group(path, sp)
    assert str(err.value) == f"group file {path}: group word_cap must be an integer >= 1, got {bad!r}"


def test_a_group_file_whose_generator_drifts_on_remark25_exits_2_naming_it(tmp_path, capsys):
    # the generator sends (0,48) to (0,49), which its inverse fixes: the
    # round trip moves (0,48) by 2^-48, beyond remark25's exact 2^-49
    sp = rl.builtin_space("remark25")
    forward = list(sp.points)
    forward[sp.index("(0,48)")] = "(0,49)"
    path = tmp_path / "drift.json"
    path.write_text(json.dumps({"label": "drift", "word_cap": 1, "generators": [
        {"label": "drift", "weight": {"form": "const", "value": 1.0}, "forward": forward,
         "backward": list(sp.points)}]}))
    assert main(["eval", "--space", "remark25", "--group", str(path), "--orbits", "(0,inf)"]) == 2
    err = capsys.readouterr().err
    assert f"group file {path}: map round trip displaces 1 points" in err and "(first: (0,48))" in err


def test_a_group_file_without_generators_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"label": "", "word_cap": 2, "generators": []}))
    message = f"group file {path}: a group needs at least one generator"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"space": {"builtin": "circle"}, "group": {"file": str(path)},
                                    "tasks": ["build-config"]}))
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.json"))
    assert main(["eval", "--space", "circle", "--group", str(path), "--orbits", "c000"]) == 2
    assert message in capsys.readouterr().err


def test_operator_round_trip(tmp_path):
    sp = rl.builtin_space("line", step=0.1, window=(0, 2))
    op = line_translation(sp, 0.3)
    path = tmp_path / "op.json"
    rio.save_operator(op, path)
    back = rio.load_operator(path, sp)
    assert np.array_equal(back.forward, op.forward)
    assert np.array_equal(back.backward, op.backward)
    assert np.allclose(back.weight, op.weight)
    assert back.allowed_defects == op.allowed_defects


def test_group_round_trip(tmp_path):
    sp = rl.builtin_space("onepoint01N", n_max=6)
    G = onepoint_swap_group(sp, word_cap=2, count=3)
    path = tmp_path / "group.json"
    rio.save_group(G, path)
    back = rio.load_group(path, sp)
    assert len(back.generators) == len(G.generators)
    assert back.word_cap == G.word_cap
    for a, b in zip(back.generators, G.generators):
        assert a.key() == b.key()


def test_group_file_with_a_closure_tag_still_loads(tmp_path):
    # files saved before the key was retired carry "closure_tag"; a load
    # ignores it and a save no longer writes it
    sp = rl.builtin_space("circle", count=12)
    G = cli.make_group({"builtin": "rotation"}, sp)
    doc = rio.group_to_dict(G)
    assert "closure_tag" not in doc
    path = tmp_path / "group.json"
    path.write_text(json.dumps({**doc, "closure_tag": True}))
    back = rio.load_group(path, sp)
    assert (back.label, back.word_cap) == (G.label, G.word_cap)
    assert [g.key() for g in back.generators] == [g.key() for g in G.generators]
    assert rio.group_to_dict(back) == doc


def test_function_round_trip(tmp_path):
    sp = rl.builtin_space("circle", count=12)
    x = np.linspace(-1, 1, sp.n)
    path = tmp_path / "fn.json"
    rio.save_function(sp, x, path)
    assert np.allclose(rio.load_function(path, sp), x)


def test_run_empty_task_list(tmp_path):
    scenario = {"space": {"builtin": "circle", "params": {"count": 12}}, "tasks": []}
    code = run(scenario, tmp_path / "out")
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["tasks"] == {}


def test_run_detect_failure_sets_exit_one(tmp_path):
    scenario = {
        "space": {"builtin": "line", "params": {"step": 0.05, "window": [-2, 2]}},
        "group": {"builtin": "trivial"},
        "C": 1.1,
        "depth": 4,
        "tasks": ["detect"],
        "detect": [
            {"builtin": "translation", "offset": 0.3, "expect": "certified-in-G"},
        ],
    }
    assert run(scenario, tmp_path / "out") == 1
    report = json.loads((tmp_path / "out" / "detect.json").read_text())
    assert report["operators"][0]["verdict"] == "rejected"


def test_run_reports_are_deterministic(tmp_path):
    scenario = {
        "space": {"builtin": "line", "params": {"step": 0.05, "window": [-2, 2]}},
        "group": {"builtin": "trivial"},
        "C": 1.1,
        "depth": 4,
        "seed": 7,
        "tasks": ["norm-suite", "dual-suite"],
        "norm_suite": {"count": 10},
    }
    assert run(scenario, tmp_path / "a") == 0
    assert run(scenario, tmp_path / "b") == 0
    for name in ("norm-suite.json", "dual-suite.json", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_reports_embed_provenance(tmp_path):
    scenario = {
        "space": {"builtin": "line", "params": {"step": 0.05, "window": [-2, 2]}},
        "group": {"builtin": "trivial"},
        "C": 1.1,
        "depth": 4,
        "tasks": ["norm-suite"],
        "norm_suite": {"count": 5},
    }
    run(scenario, tmp_path / "out")
    report = json.loads((tmp_path / "out" / "norm-suite.json").read_text())
    prov = report["provenance"]
    assert prov["C"] == 1.1 and prov["L"] == 22
    assert "lambda_rule" in prov and "word_cap" in prov


def test_cli_main_input_error(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 2


def test_cli_main_bad_task(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "space": {"builtin": "circle", "params": {"count": 12}},
        "tasks": ["explode"],
    }))
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2


def test_cli_eval_orbits(tmp_path, capsys):
    code = main(["eval", "--space", "circle", "--group", "rotation", "--orbits", "c000"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert ["c000"] in out["samples"]
    # 64 is not divisible by 12: the generator snaps to a 5-step rotation of
    # order 64, and the word cap of 6 reaches shifts -30..30
    assert len(out["samples"]) == 13


@pytest.mark.parametrize("ids, samples", [
    ("(1,50)", [["(0,50)"], ["(1,50)"]]),
    ("(1,50), (0,49)", [["(0,50)", "(0,49)"], ["(0,50)", "(1,49)"], ["(1,50)", "(0,49)"], ["(1,50)", "(1,49)"]]),
])
def test_cli_eval_orbits_reads_ids_with_commas(capsys, ids, samples):
    # a comma inside parentheses belongs to its id
    assert main(["eval", "--space", "onepoint01N", "--group", "onepoint_swaps", "--orbits", ids]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["base"] == [p.strip() for p in ids.split(", ")]
    assert out["samples"] == samples


@pytest.mark.parametrize("ids, beta", [("(0,1)", ["0.9"]), ("(0,1),(0,2)", ["0.9", "0.9"])])
def test_cli_eval_dual_reads_ids_with_commas(capsys, ids, beta):
    assert main(["eval", "--space", "onepoint01N", "--dual", ids, *beta]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["fingerprint"]) == len(beta)
    assert 0 < out["value"] <= len(beta)


def test_cli_eval_norm(tmp_path):
    sp = rl.builtin_space("line", step=0.05, window=(-2, 2))
    x = np.sin(sp.metric.x)
    fn = tmp_path / "fn.json"
    rio.save_function(sp, x, fn)
    spfile = tmp_path / "space.json"
    rio.save_space(sp, spfile)
    out = tmp_path / "norm.json"
    code = main(["eval", "--space", str(spfile), "--norm", str(fn),
                 "--depth", "4", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    sup = float(np.max(np.abs(x)))
    assert sup <= report["value"] <= 1.1 * sup + 1e-12


def test_cli_eval_bounded_group(capsys):
    code = main(["eval", "--space", "onepoint01N", "--bounded-group", "onepoint_swaps",
                 "--mg-report"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["C_G"] == 2.0
    assert out["flagged"] == ["inf"]
    assert out["m"]["inf"] == 1.0


def test_cli_eval_bounded_group_builds_the_named_group(capsys):
    code = main(["eval", "--space", "circle", "--bounded-group", "rotation"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["C_G"] == 1.0
    code, err = _eval_exit(["--space", "circle", "--bounded-group", "nosuch"])
    assert code == 2 and "unknown group spec {'builtin': 'nosuch'}" in err


def test_cli_eval_takes_one_action_flag():
    code, err = _eval_exit(["--space", "circle", "--group", "rotation", "--orbits", "c000", "--check", "sot"])
    assert code == 2
    assert "argument --check: not allowed with argument --orbits" in err


def test_cli_eval_mg_report_needs_bounded_group():
    # the flag only adds to the --bounded-group report, so alone it is refused
    code, err = _eval_exit(["--space", "circle", "--group", "rotation", "--orbits", "c000", "--mg-report"])
    assert code == 2
    assert "--mg-report needs --bounded-group" in err


def test_run_rejects_unknown_task_before_writing(tmp_path):
    scenario = {
        "space": {"builtin": "line", "params": {"step": 0.05, "window": [-2, 2]}},
        "tasks": ["build-config", "bogus"],
    }
    with pytest.raises(InputError, match="bogus"):
        run(scenario, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_over_budget_scenario_exits_2_before_building(tmp_path, capsys):
    scenario = json.loads((Path(__file__).resolve().parent.parent / "scripts" / "scenarios"
                           / "rotation_product.json").read_text())
    scenario["depth"] = 9
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(scenario))
    t0 = time.perf_counter()
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    err = capsys.readouterr().err
    found = re.search(r"depth 9 with gamma_cap None enumerates (\d+) window tuples", err)
    assert found and int(found.group(1)) > 2_000_000, err
    assert not list((tmp_path / "out").glob("*.json"))


def test_tuple_budget_counts_every_plan_row(product_space, rotation_group, monkeypatch):
    cfg = rl.build_config(product_space, rotation_group, C=1.1, depth=3, gamma_cap=4)
    total = sum(plan.count for plan in cfg.plans)
    monkeypatch.setattr(norm, "MAX_TUPLES", total)
    rl.build_config(product_space, rotation_group, C=1.1, depth=3, gamma_cap=4)
    monkeypatch.setattr(norm, "MAX_TUPLES", total - 1)
    with pytest.raises(TupleBudgetError, match=f"gamma_cap 4 enumerates {total} window tuples, "
                                               f"more than max_tuples {total - 1}"):
        rl.build_config(product_space, rotation_group, C=1.1, depth=3, gamma_cap=4)


@pytest.mark.parametrize("depth", [3.0, 1, True, "4"])
def test_build_config_refuses_a_depth_that_is_not_an_integer_at_least_2(depth):
    sp = rl.builtin_space("line", step=0.25, window=(-2, 2))
    with pytest.raises(ValueError, match=re.escape(f"depth must be an integer >= 2, got {depth!r}")):
        rl.build_config(sp, rl.GroupSpec.trivial(sp), C=1.1, depth=depth)


def test_eval_depth_below_2_exits_2_naming_the_depth(tmp_path, capsys):
    sp = rl.builtin_space("line", step=0.25, window=(-2, 2))
    fn = tmp_path / "fn.json"
    rio.save_function(sp, np.ones(sp.n), fn)
    argv = ["eval", "--space", "line", "--norm", str(fn), "--depth", "1"]
    assert main(argv) == 2
    assert "depth must be an integer >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("gamma_cap", [0, -1, 1.5, True, "3"])
def test_build_config_rejects_gamma_cap_below_one(gamma_cap):
    sp = rl.builtin_space("line", step=0.25, window=(-2, 2))
    with pytest.raises(TupleBudgetError, match="gamma_cap must be None or an integer >= 1"):
        rl.build_config(sp, rl.GroupSpec.trivial(sp), C=1.1, depth=4, gamma_cap=gamma_cap)


def test_gamma_cap_zero_exits_2_in_run_and_eval(tmp_path, capsys):
    scenario = {
        "space": {"builtin": "line", "params": {"step": 0.25, "window": [-2, 2]}},
        "depth": 4,
        "gamma_cap": 0,
        "tasks": ["build-config", "norm-suite"],
    }
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "gamma_cap must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.json"))
    spfile = tmp_path / "space.json"
    rio.save_space(rl.builtin_space("line", step=0.25, window=(-2, 2)), spfile)
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"values": {p: 0.5 for p in rio.load_space(spfile).points}}))
    assert main(["eval", "--space", str(spfile), "--norm", str(fn), "--gamma-cap", "0"]) == 2
    assert "gamma_cap must be None or an integer >= 1, got 0" in capsys.readouterr().err


def test_gamma_cap_is_checked_before_a_task_that_needs_no_config(tmp_path, capsys):
    # sot-gallery runs without the configuration, so a bad gamma_cap read
    # only by the build would come after its report
    scenario = {
        "space": {"builtin": "remark25", "params": {"n_max": 8}},
        "depth": 4,
        "gamma_cap": 0,
        "tasks": ["sot-gallery", "build-config"],
    }
    path = tmp_path / "gallery.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "gamma_cap must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.json"))


@pytest.mark.parametrize("bad", [0, -1, 2.5, 4.0, "4", True, None])
def test_bad_test_depth_exits_2_naming_the_operator(tmp_path, capsys, bad):
    scenario = {
        "space": {"builtin": "line", "params": {"step": 0.25, "window": [-2, 2]}},
        "depth": 4,
        "tasks": ["detect"],
        "detect": [
            {"builtin": "identity", "expect": "certified-in-G"},
            {"builtin": "translation", "offset": 0.5, "test_depth": bad},
        ],
    }
    path = tmp_path / "detect.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"detect operator 'shift+0.5': test_depth must be an integer >= 1, got {bad!r}" in err
    assert not (tmp_path / "out" / "detect.json").exists()


@pytest.mark.parametrize("spec, message", [
    ({"builtin": "rotation_flip", "q": 4.5}, "detect operator rotation_flip: q must be an integer >= 1, got 4.5"),
    ({"builtin": "rotation_flip", "q": 0}, "detect operator rotation_flip: q must be an integer >= 1, got 0"),
    ({"builtin": "generator_word", "indices": [0.9]},
     "detect operator generator_word: indices[0] must be an integer >= 0, got 0.9"),
    ({"builtin": "generator_word", "indices": [0, 7]},
     "detect operator generator_word: indices[1] must be below 2, the group's generator count, got 7"),
    ({"builtin": "rotation_flip", "q": 100},
     "detect operator rotation_flip: q must be at most the circle's point count 12, got 100"),
])
def test_bad_operator_spec_exits_2_naming_the_field(tmp_path, capsys, spec, message):
    scenario = {
        "space": {"builtin": "circle_x_interval", "params": {"count": 12, "levels": 4}},
        "group": {"builtin": "rotation", "q": 4, "word_cap": 4},
        "depth": 3,
        "tasks": ["build-config", "detect"],
        "detect": [{"builtin": "identity", "expect": "certified-in-G"}, spec],
    }
    path = tmp_path / "detect.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list((tmp_path / "out").glob("*.json"))


def test_a_swap_count_above_n_max_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "swaps.json"
    path.write_text(json.dumps({"space": {"builtin": "onepoint01N"}, "tasks": ["build-config"],
                                "group": {"builtin": "onepoint_swaps", "count": 500}}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "group count must be at most the space's n_max 50, got 500" in err and "Traceback" not in err


@pytest.mark.parametrize("group", [{"builtin": "onepoint_swaps", "count": 10}, {"builtin": "trivial"}])
def test_bounded_suite_on_a_smaller_family_reports_its_checks(tmp_path, group):
    # m is 1 at (1,n) past the family's last swap, so the suite fails on its
    # checks, not on a generator index past the family's end
    scenario = {"space": {"builtin": "onepoint01N"}, "group": group, "tasks": ["bounded-suite"]}
    assert run(scenario, tmp_path / "out") == 1
    report = json.loads((tmp_path / "out" / "bounded-suite.json").read_text())
    assert report["ok"] is False and "error" not in report
    assert report["group_norm_formulas_agree"] is True
    assert report["max_conjugation_deviation"] == 0.0


def test_norm_suite_draws_the_same_functions_after_bounded_suite(tmp_path):
    # norm-suite seeds its own generator: no other task shares its stream
    scenario = {"space": {"builtin": "onepoint01N", "params": {"n_max": 8}},
                "group": {"builtin": "onepoint_swaps"}, "depth": 3, "seed": 0,
                "norm_suite": {"count": 5}}
    reports = []
    for tasks in (["norm-suite"], ["bounded-suite", "norm-suite"]):
        out = tmp_path / "-".join(tasks)
        assert run({**scenario, "tasks": tasks}, out) == 0
        reports.append((out / "norm-suite.json").read_bytes())
    assert reports[0] == reports[1]


def test_bounded_suite_catches_a_formula_mismatch_at_one_point(tmp_path, monkeypatch):
    # s and m_G differ at one point of 101, where m_G is 1: a function
    # bounded by 1 reads at most 1.5 there against 2 at any (1,n), so only
    # that point's indicator tells the formulas apart
    real = cli.m_weight

    def one_point_off(group):
        bgn = real(group)
        s = bgn.s.copy()
        z = group.space.index("(0,7)")
        assert bgn.m_G[z] == s[z] == 1.0
        s[z] = 1.5
        return dataclasses.replace(bgn, s=s)

    monkeypatch.setattr(cli, "m_weight", one_point_off)
    scenario = {"space": {"builtin": "onepoint01N"}, "group": {"builtin": "onepoint_swaps"},
                "tasks": ["bounded-suite"]}
    assert run(scenario, tmp_path / "out") == 1
    report = json.loads((tmp_path / "out" / "bounded-suite.json").read_text())
    assert report["group_norm_formulas_agree"] is False and "error" not in report


def test_counterexample_scenarios_import_no_random_module(tmp_path):
    # remark25_gallery and onepoint_bounded draw nothing, so a fresh process
    # that runs both never loads numpy.random
    root = Path(__file__).resolve().parent.parent
    code = textwrap.dedent("""
        import json, sys
        from pathlib import Path
        from renormlab import cli
        for name in ("remark25_gallery", "onepoint_bounded"):
            scenario = json.loads((Path(sys.argv[1]) / "scripts" / "scenarios" / f"{name}.json").read_text())
            assert cli.run(scenario, Path(sys.argv[2]) / name) == 0, name
        assert "numpy.random" not in sys.modules, "numpy.random was imported"
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, str(root), str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("offset", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_translation_offset_exits_2_naming_it(tmp_path, capsys, offset):
    path = tmp_path / "detect.json"
    path.write_text('{"space": {"builtin": "line", "params": {"step": 0.25, "window": [-2, 2]}}, '
                    '"tasks": ["detect"], "detect": [{"builtin": "translation", "offset": %s}]}' % offset)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"line_translation offset must be a finite number, got {float(offset)!r}" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [0, -2, 2.0, "5", False])
def test_bad_beta_grid_exits_2(tmp_path, capsys, bad):
    scenario = {
        "space": {"builtin": "line", "params": {"step": 0.25, "window": [-2, 2]}},
        "depth": 4,
        "tasks": ["dual-suite"],
        "dual_suite": {"beta_grid": bad},
    }
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"dual_suite beta_grid must be an integer >= 1, got {bad!r}" in capsys.readouterr().err


@pytest.mark.parametrize("field, bad, message", [
    ("norm_suite", {"count": -5}, "norm_suite count must be an integer >= 1, got -5"),
    ("dual_suite", {"tuples": -3}, "dual_suite tuples must be an integer >= 1, got -3"),
    ("depth", 4.7, "depth must be an integer >= 2, got 4.7"),
    ("depth", 1, "depth must be an integer >= 2, got 1"),
    ("C", 2.0, "C must lie in (1, 1.1], got 2.0"),
    ("base_count", 0, "base_count must be an integer >= 4, got 0"),
    ("gamma_cap", 1.5, "gamma_cap must be an integer >= 1, got 1.5"),
    ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
    ("seed", -1, "seed must be an integer >= 0, got -1"),
    ("group", {"builtin": "trivial", "word_cap": 6.9}, "group word_cap must be an integer >= 1, got 6.9"),
    ("group", {"builtin": "rotation", "q": 2.5}, "group q must be an integer >= 1, got 2.5"),
    ("group", {"builtin": "onepoint_swaps", "count": 1.5}, "group count must be an integer >= 1, got 1.5"),
    ("sot_gallery", {"eps": -1}, "sot_gallery eps must be a finite number > 0, got -1"),
    ("sot_gallery", {"eps": "0.01"}, "sot_gallery eps must be a finite number > 0, got '0.01'"),
])
def test_bad_scenario_field_exits_2_before_any_report(tmp_path, capsys, field, bad, message):
    scenario = {
        "space": {"builtin": "line", "params": {"step": 0.25, "window": [-2, 2]}},
        "depth": 4,
        "tasks": ["build-config", "norm-suite", "dual-suite"],
        field: bad,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.json"))


def test_base_count_above_the_sample_size_exits_2_naming_both(tmp_path, capsys):
    # a 12-point circle has no 50 base points: refused at the boundary,
    # where the selection would blame the resolution at step 13
    scenario = {"space": {"builtin": "circle", "params": {"count": 12}}, "group": {"builtin": "trivial"},
                "depth": 3, "base_count": 50, "tasks": ["build-config"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "base_count 50 exceeds the 12 points of space 'circle'" in err
    assert "resolution" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("space, params, message", [
    ("circle_x_interval", {"levels": 2.5}, "circle_x_interval levels must be an integer >= 2, got 2.5"),
    ("circle_x_interval", {"levels": 1}, "circle_x_interval levels must be an integer >= 2, got 1"),
    ("circle_x_interval", {"count": 2}, "circle count must be an integer >= 3, got 2"),
    ("circle", {"cnt": 12}, "builtin space 'circle': unknown param 'cnt'; it takes count"),
    ("circle", {"count": 12.5}, "circle count must be an integer >= 3, got 12.5"),
    ("circle", {"count": True}, "circle count must be an integer >= 3, got True"),
    ("remark25", {"n_max": 2}, "remark25 n_max must be an integer >= 3, got 2"),
    ("onepoint01N", {"n_max": 1}, "onepoint01N n_max must be an integer >= 2, got 1"),
    ("line", {"resolution": 0.1}, "builtin space 'line': unknown param 'resolution'; it takes step, window"),
    ("line", {"step": 0}, "line step must be a finite number > 0, got 0"),
    ("line", {"step": "0.1"}, "line step must be a finite number > 0, got '0.1'"),
    ("line", {"step": math.inf}, "line step must be a finite number > 0, got inf"),
    ("plane", {"step": -0.5}, "line step must be a finite number > 0, got -0.5"),
    ("line", {"window": [1, -1]}, "line window must be two finite numbers lo < hi, got [1, -1]"),
    ("line", {"window": 5}, "line window must be two finite numbers lo < hi, got 5"),
    ("plane", {"window": [0, "1"]}, "line window must be two finite numbers lo < hi, got [0, '1']"),
])
def test_bad_builtin_space_param_exits_2_naming_it(tmp_path, capsys, space, params, message):
    scenario = {"space": {"builtin": space, "params": params}, "depth": 3, "tasks": ["build-config"]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list((tmp_path / "out").glob("*.json"))


@pytest.mark.parametrize("space", [
    {"builtin": "circle", "params": {"count": 12}},
    {"builtin": "circle_x_interval", "params": {"count": 12, "levels": 4}},
])
def test_rotation_q_above_the_point_count_exits_2(tmp_path, capsys, space):
    # count // q would be a rotation by 0 steps, the identity
    scenario = {"space": space, "group": {"builtin": "rotation", "q": 100}, "depth": 3,
                "tasks": ["build-config"]}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "group q must be at most the circle's point count 12, got 100" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.json"))


def test_run_builds_a_failing_config_once(tmp_path, monkeypatch):
    calls = []
    build = cli.build_config
    monkeypatch.setattr(cli, "build_config", lambda *a, **k: calls.append(1) or build(*a, **k))
    scenario = {
        "space": {"builtin": "line", "params": {"step": 0.5, "window": [-1, 1]}},
        "depth": 8,
        "tasks": ["build-config", "verify-bmap", "detect"],
        "detect": [],
    }
    assert run(scenario, tmp_path / "out") == 1
    assert len(calls) == 1
    errors = {json.loads((tmp_path / "out" / f"{t}.json").read_text())["error"] for t in scenario["tasks"]}
    assert len(errors) == 1 and "depth 8 needs" in errors.pop()


def test_a_sot_gallery_run_builds_no_default_group(tmp_path, monkeypatch):
    # the task reads no group, so the trivial default is never built
    monkeypatch.setattr(cli.GroupSpec, "trivial", mock.Mock(side_effect=AssertionError("built")))
    scenario = {"space": {"builtin": "remark25", "params": {"n_max": 8}}, "tasks": ["sot-gallery"]}
    assert run(scenario, tmp_path / "out") == 0


def test_a_bad_explicit_group_exits_2_before_a_sot_gallery_report(tmp_path, capsys):
    # an explicit group spec is still built and checked before any report
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"space": {"builtin": "remark25", "params": {"n_max": 8}},
                                "group": {"builtin": "nonesuch"}, "tasks": ["sot-gallery"]}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "unknown group spec {'builtin': 'nonesuch'}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.json"))


def _dusty(space):
    """A matrix twin of ``space`` as a space file whose diagonal is 1e-13
    and whose distances above the diagonal sit one ulp up."""
    doc = rio.space_to_dict(_matrix_twin(space))
    d = space.dmat.copy()
    upper = np.triu_indices(space.n, 1)
    d[upper] = np.nextafter(d[upper], np.inf)
    np.fill_diagonal(d, 1e-13)
    doc["metric"]["values"] = d.tolist()
    return doc


def test_a_dusty_matrix_space_reads_as_the_exact_metric(tmp_path):
    # the loader zeroes the dust and averages the skew, so the slot table,
    # certify, the base window and eval --dual read an exact metric (they
    # read 1e-13, 1e-13, no window and exit 2 on the dust)
    line = rl.builtin_space("line", step=0.5, window=(-3, 3))
    path = tmp_path / "dusty.json"
    rio.dump_json(_dusty(line), path)
    dusty = rio.load_space(path)
    d = dusty.dmat
    assert np.array_equal(d, d.T) and not np.diagonal(d).any()
    cfg = rl.build_config(dusty, rl.GroupSpec.trivial(dusty))
    assert cfg.coverage_defect == 0.0
    assert cfg.window_tuple(cfg.base_tuple(1, 2).points) == cfg.base_tuple(1, 2)
    assert rl.certify(rl.identity(dusty), cfg).approx_group_element[1] == 0.0
    assert main(["eval", "--space", str(path), "--dual", "x-3,x-2.5", "1", "1"]) == 0
    # the saved file holds the exact matrix, which reloads bit for bit
    rio.save_space(dusty, tmp_path / "saved.json")
    again = rio.load_space(tmp_path / "saved.json")
    assert again.dmat.tobytes() == d.tobytes() and space_mod.same_space(again, dusty)


def test_cli_eval_norm_rejects_bad_function_files(tmp_path, capsys):
    sp = rl.builtin_space("line", step=0.1, window=(-2, 2))
    spfile = tmp_path / "space.json"
    rio.save_space(sp, spfile)
    values = {p: 0.5 for p in sp.points}
    nan_file = tmp_path / "nan.json"
    nan_file.write_text(json.dumps({"values": {**values, "x-2": float("nan")}}))
    short_file = tmp_path / "short.json"
    short_file.write_text(json.dumps({"values": {p: v for p, v in values.items() if p != "x-2"}}))
    for path, why in ((nan_file, "non-finite value nan at point 'x-2'"),
                      (short_file, "no value for point 'x-2'")):
        out = tmp_path / "norm.json"
        code = main(["eval", "--space", str(spfile), "--norm", str(path),
                     "--depth", "4", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert str(path) in err and why in err


def test_cli_eval_loader_errors_name_the_file(tmp_path, capsys):
    sp = rl.builtin_space("line", step=0.1, window=(-2, 2))
    spfile = tmp_path / "space.json"
    rio.save_space(sp, spfile)
    bad_space = rio.space_to_dict(sp)
    bad_space["points"][0] = "x999"
    op = rio.operator_to_dict(line_translation(sp, 0.3))
    op["forward"][3] = "x999"
    group = rio.group_to_dict(rl.GroupSpec.trivial(sp))
    del group["word_cap"]
    files = {name: tmp_path / f"{name}.json" for name in ("badspace", "badop", "badgroup")}
    for name, doc in zip(files, (bad_space, op, group)):
        files[name].write_text(json.dumps(doc))
    cases = [
        (["--space", str(files["badspace"])],
         f"space file {files['badspace']}: closed-form space does not reproduce the stored points"),
        (["--space", str(spfile), "--certify", str(files["badop"])],
         f"operator file {files['badop']}: unknown point id 'x999' in space 'line'"),
        (["--space", str(spfile), "--group", str(files["badgroup"]), "--orbits", "x+0"],
         f"group file {files['badgroup']}: missing field 'word_cap'"),
    ]
    for argv, why in cases:
        assert main(["eval", *argv]) == 2
        assert why in capsys.readouterr().err


def test_cli_eval_dual_off_window_tuple_names_ids(tmp_path, capsys):
    spfile = tmp_path / "space.json"
    rio.save_space(rl.builtin_space("line", step=0.1, window=(-1, 1)), spfile)
    assert main(["eval", "--space", str(spfile), "--dual", "x-1,x+1", "1", "1"]) == 2
    err = capsys.readouterr().err
    assert "tuple x-1,x+1 does not sit on a consecutive base window" in err
    assert "eval accepts only tuples on a consecutive base window" in err
    assert "reference" not in err


def test_cli_eval_space_certifies_closed_form_metric(capsys):
    assert main(["eval", "--space", "circle_x_interval"]) == 0
    report = json.loads(capsys.readouterr().out)["metric_report"]
    assert report["mode"] == "closed-form" and report["ok"]
    assert report["formula"]["form"] == "product" and report["formula_defect"] == 0.0


@pytest.mark.parametrize("name, params", [
    ("circle_x_interval", {"count": 6, "levels": 3}),
    ("plane", {"step": 1.0, "window": (0, 2)}),
])
def test_saved_builtin_space_keeps_its_name(tmp_path, capsys, name, params):
    sp = rl.builtin_space(name, **params)
    path = tmp_path / "space.json"
    rio.save_space(sp, path)
    back = rio.load_space(path)
    assert back.name == name and back.points == sp.points
    assert back.metric_form == sp.metric_form and back.dmat.tobytes() == sp.dmat.tobytes()
    assert ([f.metric_form for f in back.factors] == [sp.metric_form["a"], sp.metric_form["b"]]
            and (back.factors[0] is back.factors[1]) == (name == "plane"))
    assert main(["eval", "--space", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["space"] == name and out["metric_report"]["mode"] == "closed-form"


def test_dump_json_rejects_non_finite(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        rio.dump_json({"gap": float("inf")}, path)


def test_cli_eval_equicont_writes_unconstrained_delta_as_null(capsys):
    code = main(["eval", "--space", "onepoint01N", "--group", "onepoint_swaps", "--check", "equicont"])
    assert code == 0
    table = json.loads(capsys.readouterr().out)["table"]
    assert [eps for eps, _ in table] == [0.1, 0.25, 0.5]
    assert None in [delta for _, delta in table]


_EVAL_SPACE = rl.builtin_space("line", step=0.1, window=(-1, 1))


def _eval_exit(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(["eval", *argv])
        except SystemExit as exc:  # argparse rejects a malformed number itself
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("eval")
    rio.save_space(_EVAL_SPACE, d / "space.json")
    return d


@given(
    bad_id=st.text(alphabet="xc+-.0123456789", min_size=1, max_size=6).filter(
        lambda p: p not in _EVAL_SPACE.points and not p.startswith("-")),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_eval_rejects_bad_ids_and_values_on_every_flag(eval_dir, bad_id, value):
    sp = _EVAL_SPACE
    space = str(eval_dir / "space.json")
    ids = sp.points
    bad, named = repr(bad_id), str(value)

    def write(name, doc):
        path = eval_dir / name
        path.write_text(json.dumps(doc))
        return str(path)

    matrix = rio.space_to_dict(sp)
    values = sp.dmat.tolist()
    values[0][1] = values[1][0] = value
    matrix["metric"] = {"form": "matrix", "values": values}
    group = rio.group_to_dict(rl.GroupSpec.trivial(sp))
    group["generators"][0]["backward"][2] = bad_id
    op = rio.operator_to_dict(line_translation(sp, 0.3))
    op["forward"][3] = bad_id
    nan_op = {**rio.operator_to_dict(line_translation(sp, 0.3)),
              "weight": {"form": "const", "value": value}}
    fn = {p: 0.5 for p in ids}
    renamed = {**{p: 0.5 for p in ids[1:]}, bad_id: 0.5}
    files = {
        "space": write("matrix.json", matrix),
        "group": write("group.json", group),
        "op": write("op.json", op),
        "nan_op": write("nan_op.json", nan_op),
        "fn": write("fn.json", {"values": {**fn, ids[4]: value}}),
        "renamed": write("renamed.json", {"values": renamed}),
        "short": write("short.json", {"values": list(fn.values())[1:]}),
    }
    beta = "nan" if math.isnan(value) else "inf"  # argparse reads "-inf" as a flag
    cases = [
        (["--space", files["space"]], [f"non-finite distance {named}", repr(ids[0]), repr(ids[1])]),
        (["--space", space, "--group", files["group"], "--orbits", ids[0]], [bad]),
        (["--space", space, "--group", files["group"], "--check", "sot"], [bad]),
        (["--space", space, "--group", "trivial", f"--orbits={bad_id}"], [bad]),
        (["--space", space, "--dual", f"{ids[0]},{bad_id}", "1", "1"], [bad]),
        (["--space", space, "--dual", f"{ids[0]},{ids[1]}", beta, "1"], ["beta", beta]),
        (["--space", space, "--dual", f"{ids[0]},{ids[1]}", "1"], ["beta"]),
        (["--space", space, "--certify", files["op"]], [bad]),
        (["--space", space, "--certify", files["nan_op"]], [f"weight {named}", repr(ids[0])]),
        (["--space", space, "--norm", files["fn"]], [f"non-finite value {named}", repr(ids[4])]),
        (["--space", space, "--norm", files["renamed"]], [bad]),
        (["--space", space, "--norm", files["short"]], ["20 values for 21 points"]),
        (["--space", space, "--bounded-group", files["group"]], [bad]),
        (["--space", space, "--norm", files["fn"], f"--C={value}"], ["C must lie", named]),
        (["--space", space, "--norm", files["fn"], "--depth", beta], ["--depth", beta]),
        (["--space", space, "--norm", files["fn"], "--gamma-cap", beta], ["--gamma-cap", beta]),
    ]
    for argv, names in cases:
        code, err = _eval_exit(argv)
        assert code == 2, (argv, err)
        assert all(name in err for name in names), (argv, err)


@pytest.mark.parametrize("builtin,n_max", [("onepoint01N", 1080), ("remark25", 1075)])
def test_run_refuses_a_dyadic_n_max_past_1074_naming_it(tmp_path, capsys, builtin, n_max):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"space": {"builtin": builtin, "params": {"n_max": n_max}},
                                "tasks": ["build-config"]}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{builtin} n_max must be at most 1074" in err and f"got {n_max}" in err, err
    assert "zero distance" not in err
    assert not list((tmp_path / "out").glob("*.json"))
