import json

import numpy as np
import pytest

import renormlab as rl
from renormlab import io as rio
from renormlab.cli import InputError, main, run
from renormlab.operators import line_translation, onepoint_swap_group


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


def test_cli_eval_norm(tmp_path):
    sp = rl.builtin_space("line", step=0.05, window=(-2, 2))
    x = np.sin(sp.aux["coords"])
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


def test_run_rejects_unknown_task_before_writing(tmp_path):
    scenario = {
        "space": {"builtin": "line", "params": {"step": 0.05, "window": [-2, 2]}},
        "tasks": ["build-config", "bogus"],
    }
    with pytest.raises(InputError, match="bogus"):
        run(scenario, tmp_path / "out")
    assert not (tmp_path / "out").exists()


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
