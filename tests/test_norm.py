import dataclasses
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renormlab as rl
from renormlab import norm
from key_oracles import last_slot_weights
from renormlab.norm import (
    WITNESS_EPS,
    NormResult,
    TriangularSystem,
    build_matrix,
    dual_norm_atoms,
    dual_norm_delta,
    find_cutoff,
    gamma_cap_trace,
    rho,
    solve_unit,
    triple_norm,
    witness_for_tuple,
    witness_function,
    WitnessSpec,
    _class_weights,
    _dense,
)
from renormlab.operators import circle_rotation
from renormlab.orbits import equivalent, select_dense_points
from renormlab.tuples import (
    ClassRegistry,
    TupleIndex,
    choose_parameters,
    enumeration_index,
    enumeration_tail,
)


# ----------------------------------------------------------------------
# triangular systems


def test_solve_unit_1x1():
    T = TriangularSystem(lambdas=[1.05], zeta=np.zeros((1, 1)))
    assert solve_unit(T)[0] == pytest.approx(1 / 1.05)


def test_solve_unit_diagonal():
    T = TriangularSystem(lambdas=[1.05] * 3, zeta=np.zeros((3, 3)))
    assert np.allclose(solve_unit(T), 1 / 1.05)


def test_solve_unit_two_step_oracle():
    # frozen by direct two-step back substitution
    a1 = 1 / 1.025
    a0 = (1 - a1 / 81) / 1.05
    T = TriangularSystem(lambdas=[1.05, 1.025], zeta=[[0, 1 / 81], [0, 0]])
    z = solve_unit(T)
    assert z[1] == pytest.approx(a1, abs=1e-15)
    assert z[0] == pytest.approx(a0, abs=1e-15)
    assert z[0] == pytest.approx(0.9409099381999111, abs=1e-12)


def test_solve_unit_residual():
    T = TriangularSystem(lambdas=[1.09, 1.05, 1.02], zeta=[[0, 1e-3, 1e-5], [0, 0, 1e-5], [0, 0, 0]])
    z = solve_unit(T)
    assert np.max(np.abs(T.matrix() @ z - 1.0)) <= 1e-12


def test_triangular_hypothesis_bounds():
    with pytest.raises(ValueError, match="zeta bound violation"):
        TriangularSystem(lambdas=[1.05, 1.02], zeta=[[0, 0.5], [0, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        TriangularSystem(lambdas=[1.2, 1.1], zeta=np.zeros((2, 2)))


def test_triangular_system_refuses_nan_by_entry():
    with pytest.raises(ValueError, match=r"diagonal must lie in \[1, 1.1\]: entry 1 is nan"):
        TriangularSystem(lambdas=[1.05, np.nan], zeta=np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"zeta entries must be nonnegative: entry \(0, 2\) is nan"):
        TriangularSystem(lambdas=[1.05, 1.04, 1.03], zeta=[[0, 1e-3, np.nan], [0, 0, 0], [0, 0, 0]])


def _random_system(rng, n):
    lam = np.sort(rng.uniform(1.0005, 1.0995, size=n))[::-1]
    zeta = np.zeros((n, n))
    for j in range(1, n):
        bound = 9.0 ** (4 - 3 * (j + 1))
        zeta[:j, j] = rng.uniform(0.0, bound, size=j)
    return TriangularSystem(lambdas=lam, zeta=zeta)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_solve_unit_bounds_property(n, seed):
    T = _random_system(np.random.default_rng(seed), n)
    z = solve_unit(T)
    assert np.all(z >= 0.8) and np.all(z <= 1.0 + 1e-12)


# ----------------------------------------------------------------------
# seminorms and the certified sup


def test_build_config_refuses_a_group_on_another_space():
    circle12 = rl.builtin_space("circle", count=12)
    group = rl.GroupSpec((circle_rotation(rl.builtin_space("circle", count=24), steps=2),), word_cap=3)
    with pytest.raises(ValueError, match=re.escape(
            "group acts on space 'circle' (24 points), not on the config's space 'circle' (12 points)")):
        rl.build_config(circle12, group, C=1.1, depth=3)
    # a group on a separately built equal circle acts on this one
    equal = rl.GroupSpec((circle_rotation(rl.builtin_space("circle", count=12), steps=1),), word_cap=3)
    assert rl.build_config(circle12, equal, C=1.1, depth=3).space is circle12


def test_build_config_on_an_8001_point_line_holds_no_matrix():
    # the matrix alone would take 488 MiB; base points from ball queries and
    # a slot table of pairs keep the traced peak near 12.5 MB
    space = rl.builtin_space("line", step=0.0025, window=(-10, 10))
    group = rl.GroupSpec.trivial(space)
    tracemalloc.start()
    try:
        cfg = rl.build_config(space, group, C=1.1, depth=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.n == cfg.base_count == 8001
    assert peak <= 64 * 2**20, peak


@pytest.mark.parametrize("base_count, message", [(2.5, "got 2.5"), (1, "got 1"), (True, "got True")])
def test_build_config_refuses_a_bad_base_count_by_name(base_count, message):
    space = rl.builtin_space("line", step=0.5)
    group = rl.GroupSpec.trivial(space)
    assert len(rl.build_config(space, group, depth=2, base_count=3).base_points) == 3
    with pytest.raises(ValueError, match=f"base_count must be an integer >= 2, {message}"):
        rl.build_config(space, group, depth=2, base_count=base_count)


def test_rho_zero_function(line_cfg):
    t = line_cfg.base_tuple(1, 2)
    assert rho(t, np.zeros(line_cfg.space.n), line_cfg) == 0.0


def test_rho_constant_one_pair(line_cfg):
    t = line_cfg.base_tuple(1, 1)
    info = line_cfg.registry.classify(1, t.points)
    expected = line_cfg.lam(1) + line_cfg.bc.inv_L_pow(info.exponent)
    assert rho(t, np.ones(line_cfg.space.n), line_cfg) == pytest.approx(expected)
    assert expected == pytest.approx(1.05 + 22.0 ** -2)


def test_rho_invariance_under_generators(product_cfg):
    g = product_cfg.group.generators[0]
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, size=product_cfg.space.n)
    gx = g.apply(x)
    t = product_cfg.base_tuple(1, 2)
    gt_points = tuple(int(g.forward[p]) for p in t.points)
    slots = product_cfg.classify_slots(gt_points, tol=0)
    gt = TupleIndex(1, tuple(s[1] for s in slots), gt_points)
    assert rho(gt, x, product_cfg) == pytest.approx(rho(t, gx, product_cfg), abs=1e-14)


def test_triple_norm_zero(line_cfg):
    res = triple_norm(np.zeros(line_cfg.space.n), line_cfg)
    assert res.value == 0.0
    assert res.truncation_bound == 0.0


def test_triple_norm_sandwich_random(line_cfg):
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = rng.uniform(-1, 1, size=line_cfg.space.n)
        sup = float(np.max(np.abs(x)))
        res = triple_norm(x, line_cfg)
        assert sup <= res.value <= 1.1 * sup + 1e-12


def test_triple_norm_scale_and_lattice_invariance(line_cfg):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=line_cfg.space.n)
    v = triple_norm(x, line_cfg).value
    assert triple_norm(-2.5 * x, line_cfg).value == pytest.approx(2.5 * v, abs=1e-14)
    assert triple_norm(np.abs(x), line_cfg).value == pytest.approx(v, abs=0)


def test_gamma_cap_trace_monotone(product_cfg):
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, size=product_cfg.space.n)
    trace = gamma_cap_trace(x, product_cfg, caps=(1, 2, 4, 8, 12))
    values = [v for _, v in trace]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(triple_norm(x, product_cfg).value)


def test_a_window_outside_the_bases_is_refused(product_cfg):
    count = product_cfg.base_count
    assert product_cfg.base_tuple(count - 1, 1).start == count - 1
    for call, (start, length) in ((lambda: product_cfg.tuple_index(0, (0,)), (0, 1)),
                                  (lambda: product_cfg.tuple_index(count + 1, ()), (count + 1, 0)),
                                  (lambda: product_cfg.base_tuple(count, 1), (count, 2)),
                                  (lambda: product_cfg.base_tuple(-1, 3), (-1, 4))):
        with pytest.raises(ValueError, match=re.escape(
                f"window of {length} bases from base {start} outside bases 1..{count}")):
            call()


def test_plan_evaluation_rejects_bad_functions(line_cfg):
    points = line_cfg.space.points
    x = np.sin(np.arange(line_cfg.space.n, dtype=float))
    queries = (triple_norm, lambda f, cfg: gamma_cap_trace(f, cfg, (1, 2)))
    for value in (np.nan, np.inf, -np.inf):
        bad = x.copy()
        bad[[7, 9]] = value
        for query in queries:
            with pytest.raises(ValueError, match=re.escape(f"non-finite value {value} at point '{points[7]}'")):
                query(bad, line_cfg)
    for query in queries:
        with pytest.raises(ValueError, match=re.escape(f"first point without a value: '{points[-3]}'")):
            query(x[:-3], line_cfg)
        with pytest.raises(ValueError, match="first point without a value: None"):
            query(np.append(x, 0.5), line_cfg)


def _gamma_cap_trace_per_cap(x, cfg, caps):
    # the per-cap masked re-gather that the one plan-row evaluation replaced
    ax = np.abs(np.asarray(x, dtype=float))
    out = []
    for cap in sorted(set(int(c) for c in caps)):
        best = 0.0
        for plan in cfg.plans:
            mask = (plan.gammas < cap).all(axis=1)
            if not mask.any():
                continue
            vals = (ax[plan.idx[mask]] * plan.weights[mask]).sum(axis=1)
            best = max(best, float(vals.max()))
        out.append((cap, best))
    return out


@pytest.mark.parametrize("name", ["product_cfg", "line20_cfg", "product_capped_cfg"])
def test_gamma_cap_trace_matches_per_cap_masks(name, request):
    cfg = request.getfixturevalue(name)
    rng = np.random.default_rng(11)
    caps = (0, 1, 2, 3, 5, 8, 12, 100)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=cfg.space.n)
        assert gamma_cap_trace(x, cfg, caps) == _gamma_cap_trace_per_cap(x, cfg, caps)
    assert cfg.gamma_capped == (name == "product_capped_cfg")


# the per-row gather and row sum that the prefix-tree walk replaced, and
# triple_norm's argmax rule read off it: the first plan, then the first
# row, holding the largest value wins


def _plan_values_by_row(x, cfg):
    ax = np.abs(np.asarray(x, dtype=float))
    return [(ax[plan.idx] * plan.weights).sum(axis=1) for plan in cfg.plans]


def _plan_values(x, cfg):
    # the full prefix-tree walk that the pruned walk computes a few nodes
    # of: every row is its parent's value plus the term of its last slot
    ax = np.abs(np.asarray(x, dtype=float))
    heads = cfg.heads
    vals = heads.weights[:, 0] * ax.take(heads.idx[:, 0])
    plan0, *deeper = cfg.plans
    out = [vals.take(plan0.parent)]
    for plan in deeper:
        term = ax.take(plan.idx[:, -1])
        term *= plan.weights[:, -1]
        term += vals.take(plan.parent)
        vals = term
        out.append(vals)
    return out


def _norm_result(x, cfg, vals):
    best = max(float(v.max()) for v in vals)
    plan, v = next((plan, v) for plan, v in zip(cfg.plans, vals) if (v == best).any())
    pos = int(np.flatnonzero(v == best)[0])
    start = int(plan.starts[pos])
    return NormResult(
        value=best,
        truncation_bound=float(np.abs(x).max()) * enumeration_tail(cfg.bc, cfg.depth * (cfg.depth - 1) // 2),
        argmax_window=(start, start + plan.n),
        argmax_gammas=tuple(int(g) for g in plan.gammas[pos]),
        argmax_points=tuple(cfg.space.points[int(i)] for i in plan.idx[pos]),
        gamma_capped=cfg.gamma_capped,
        coverage_defect=cfg.coverage_defect,
    )


def _triple_norm_by_row(x, cfg):
    return _norm_result(x, cfg, _plan_values_by_row(x, cfg))


def _triple_norm_full(x, cfg):
    return _norm_result(x, cfg, _plan_values(x, cfg))


def _gamma_cap_trace_full(x, cfg, caps):
    # every plan row, masked by its largest label per cap
    vals = np.concatenate(_plan_values(x, cfg))
    top = np.concatenate([plan.gammas.max(axis=1) for plan in cfg.plans])
    out = []
    for cap in sorted(set(int(c) for c in caps)):
        below = vals[top < min(cap, int(top.max()) + 1)]
        out.append((cap, float(below.max()) if below.size else 0.0))
    return out


def _reweighted(cfg, scales, rng, low=0.5):
    # cfg with the last-slot weights of plans 1, 2, ... redrawn as its scale
    # times uniform(low, 1), the earlier columns following the parents: the
    # pruned walk must not lean on the shipped weights' decay
    below, plans = cfg.heads, [cfg.plans[0]]
    for plan, scale in zip(cfg.plans[1:], scales, strict=True):
        last = scale * rng.uniform(low, 1.0, size=plan.count)
        below = dataclasses.replace(plan, weights=np.column_stack([below.weights[plan.parent], last]))
        plans.append(below)
    return dataclasses.replace(cfg, plans=plans)


@pytest.fixture(scope="module")
def line8_cfg(line_space):
    # rows of 8 terms, where numpy's row sum turns pairwise
    return rl.build_config(line_space, rl.GroupSpec.trivial(line_space), C=1.1, depth=8, base_count=20)


@pytest.fixture(scope="module")
def product5_cfg(product_space, rotation_group):
    return rl.build_config(product_space, rotation_group, C=1.1, depth=5)


@pytest.fixture(scope="module")
def tree_cfgs(product_cfg, line_cfg, product_capped_cfg, product_word_capped_cfg, line8_cfg, product5_cfg):
    return {"product_cfg": product_cfg, "line_cfg": line_cfg,
            "product_capped_cfg": product_capped_cfg, "product_word_capped_cfg": product_word_capped_cfg,
            "line8_cfg": line8_cfg, "product5_cfg": product5_cfg}


def _function(kind, cfg, rng, scale, level):
    n = cfg.space.n
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, scale)
    if kind in ("tents", "plateau"):
        # the benchmark's family: 2-6 tent bumps of random sign, centre and
        # radius; a plateau clips it at half its sup, so that many heads
        # share the max and the walk keeps several parents
        k = int(rng.integers(2, 7))
        centres = rng.integers(0, n, size=k)
        radii = rng.uniform(0.2, 2.0, size=k)
        heights = rng.uniform(0.2, 1.0, size=k) * rng.choice((-1.0, 1.0), size=k)
        x = scale * (heights @ np.maximum(0.0, 1.0 - cfg.space.metric.cross(centres, np.arange(n)) / radii[:, None]))
        if kind == "plateau":
            cut = float(np.abs(x).max()) / 2
            x = np.clip(x, -cut, cut)
        return x
    x = scale * rng.uniform(-1, 1, size=n)
    if kind == "sparse":
        return x * (rng.uniform(size=n) < 0.02)
    if kind == "dense":
        return x
    plan = cfg.plans[level]
    r = int(rng.integers(plan.count))
    x *= 1e-6
    with np.errstate(divide="ignore", over="ignore"):  # weights that underflowed to 0
        if kind == "deep":
            # a row's slots scaled by 1/weight: terms of comparable size
            x[plan.idx[r]] = scale * rng.uniform(0.5, 1.5, size=plan.n + 1) / plan.weights[r]
        else:
            # "half-ulp": the row's last term near half an ulp of its parent's value
            x[plan.idx[r, :-1]] = scale * rng.uniform(0.5, 1.5, size=plan.n)
            parent = float(np.abs(x[plan.idx[r, 0]])) * float(plan.weights[r, 0])
            for k in range(1, plan.n):
                parent = float(np.abs(x[plan.idx[r, k]])) * float(plan.weights[r, k]) + parent
            nudge = 1.0 + int(rng.integers(-2, 3)) * 2.0 ** -52
            x[plan.idx[r, -1]] = math.ulp(parent) / 2 * nudge / plan.weights[r, -1]
    return np.clip(x, -1e300, 1e300)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_tree_walk_matches_per_row_gather(tree_cfgs, data):
    name = data.draw(st.sampled_from(sorted(tree_cfgs)))
    cfg = tree_cfgs[name]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    weights = data.draw(st.sampled_from(["shipped", "flat", "mixed"]))
    if weights != "shipped":
        scales = [1.0 if weights == "flat" else data.draw(st.sampled_from([1e-30, 1e-9, 1e-3, 1.0]))
                  for _ in cfg.plans[1:]]
        cfg = _reweighted(cfg, scales, rng)
    kind = data.draw(st.sampled_from(["dense", "sparse", "zero", "constant", "deep", "half-ulp", "tents", "plateau"]))
    scale = data.draw(st.sampled_from([1e-300, 1e-3, 1.0, 7.5, 1e300]))
    level = data.draw(st.integers(1, len(cfg.plans) - 1))
    x = _function(kind, cfg, rng, scale, level)
    got = _plan_values(x, cfg)
    if cfg.depth < 8:
        want = _plan_values_by_row(x, cfg)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (name, kind)
    assert triple_norm(x, cfg) == _triple_norm_full(x, cfg), (name, weights, kind)
    top = max(int(p.gammas.max()) for p in cfg.plans)
    caps = data.draw(st.lists(st.integers(-3, top + 3) | st.sampled_from([2**40, 2**70]), max_size=8))
    trace = gamma_cap_trace(x, cfg, caps)
    assert trace == _gamma_cap_trace_full(x, cfg, caps), (name, weights, kind, caps)
    if cfg.depth < 8:
        assert trace == _gamma_cap_trace_per_cap(x, cfg, caps), (name, weights, kind, caps)


def _indicator(cfg, plan, r, value=1.0):
    x = np.zeros(cfg.space.n)
    x[plan.idx[r]] = value
    return x


@pytest.mark.parametrize("name", ["product_cfg", "line8_cfg", "product5_cfg", "product_word_capped_cfg"])
def test_bounded_walk_reaches_every_level(name, request):
    # on unit weights the first row over a function's support holds the
    # argmax, at any level; on the shipped weights a term below half an ulp
    # of its row cannot lift it, so the argmax stays in the first levels
    base = request.getfixturevalue(name)
    cfg = _reweighted(base, [1.0] * (len(base.plans) - 1), np.random.default_rng(3), low=1.0)
    caps = (1, 2, 3, 5, 100)
    for plan in cfg.plans[1:]:
        r = int(np.flatnonzero((plan.starts == 1) & (plan.gammas == 0).all(axis=1))[0])
        x = _indicator(cfg, plan, r)
        res = triple_norm(x, cfg)
        assert res == _triple_norm_full(x, cfg)
        assert res.argmax_window == (1, 1 + plan.n) and res.argmax_gammas == (0,) * (plan.n + 1)
        assert gamma_cap_trace(x, cfg, caps) == _gamma_cap_trace_full(x, cfg, caps)


@pytest.mark.parametrize("name", ["product_cfg", "line8_cfg", "product5_cfg"])
def test_bounded_walk_chains_the_bound_to_the_deepest_plan(name, request):
    # plan 0 holds a max that tops every row of plan 2 by more than plan 2's
    # terms, but the deepest plan's heavy last slot lifts its row past it:
    # only the bound chained to the deepest plan keeps the row's ancestors
    # in the walk
    base = request.getfixturevalue(name)
    depth_scales = [1e-3] + [1e-9] * (len(base.plans) - 3) + [1.0]
    cfg = _reweighted(base, depth_scales, np.random.default_rng(4))
    deepest = cfg.plans[-1]
    x = _indicator(cfg, deepest, 0)
    vals = _plan_values(x, cfg)
    lifted, plan1_max = float(vals[-1].max()), float(vals[1].max())
    assert lifted > plan1_max + 0.25
    q = int(cfg.plans[0].idx[0, 0])  # the head of the last base
    assert x[q] == 0.0
    x[q] = (plan1_max + lifted) / 2 / float(cfg.plans[0].weights[0, 0])
    res = triple_norm(x, cfg)
    assert res == _triple_norm_full(x, cfg)
    assert res.argmax_window == (1, 1 + deepest.n)


@pytest.mark.parametrize("name", ["product_cfg", "product5_cfg"])
def test_cap_trace_bounds_each_cap_by_its_own_max(name, request):
    # a heavy label-1 point caps no bound below cap 1, where the deepest
    # plan still lifts the base tuple's row
    base = request.getfixturevalue(name)
    cfg = _reweighted(base, [1e-3] + [1e-9] * (len(base.plans) - 3) + [1e-2], np.random.default_rng(5))
    deepest = cfg.plans[-1]
    x = _indicator(cfg, deepest, 0)
    plan0 = cfg.plans[0]
    x[int(plan0.idx[1, 0])] = 5.0  # label 1 of the last base
    caps = (1, 2, 12)
    trace = gamma_cap_trace(x, cfg, caps)
    assert trace == _gamma_cap_trace_full(x, cfg, caps)
    vals = _plan_values(x, cfg)
    assert trace[0][1] == float(vals[-1][0]) > max(float(v.max()) for v in vals[1:-1])


@pytest.mark.parametrize("name", ["product_cfg", "product5_cfg", "product_word_capped_cfg", "line8_cfg"])
def test_cap_trace_settles_caps_over_vanishing_points_early(name, request, monkeypatch):
    # a function that vanishes on the orbit points of every label below a
    # small cap holds that cap's rows at 0.0: the cap settles before the
    # walk, its rows answer to the next cap's running max, which their
    # chains cannot reach, and the walk's levels, the plans it computed a
    # row of, stop before the deepest plan (held to the settled cap's 0.0,
    # the rows would go down to it)
    cfg = request.getfixturevalue(name)
    heads = cfg.heads
    depths = []
    walk = norm._walk
    monkeypatch.setattr(norm, "_walk", lambda *args: depths.append(len((out := walk(*args))[0])) or out)
    rng = np.random.default_rng(7)
    caps = (1, 2, 3, 4, 6, 8, 12)
    for low in (1, 2, 3):
        x = rng.uniform(-1, 1, size=cfg.space.n)
        x[heads.idx[heads.gammas[:, 0] < low, 0]] = 0.0
        trace = gamma_cap_trace(x, cfg, caps)
        assert trace == _gamma_cap_trace_full(x, cfg, caps), (name, low)
        assert trace[0] == (1, 0.0)
    assert max(depths) < len(cfg.plans), depths


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", ["product_cfg", "product5_cfg"])
def test_walk_keeps_a_low_parent_whose_heavy_descendant_holds_the_max(name, n, request):
    # plan n's last slot weighs 2 and every other plan's 1e-9: a row of
    # plan n whose parent sits far below the largest head value still
    # holds the max, which only the parent's chained bound, not its value,
    # can see coming
    base = request.getfixturevalue(name)
    scales = [1e-9] * (len(base.plans) - 1)
    scales[n - 1] = 2.0
    cfg = _reweighted(base, scales, np.random.default_rng(6), low=1.0)
    plan = cfg.plans[n]
    r = int(np.flatnonzero(plan.starts == 2)[5])
    x = np.zeros(cfg.space.n)
    x[plan.idx[r, :-1]] = 0.1
    x[plan.idx[r, -1]] = 1.0
    vals = _plan_values(x, cfg)
    heads = cfg.heads
    head_max = float((heads.weights[:, 0] * np.abs(x)[heads.idx[:, 0]]).max())
    parent = float(vals[n - 1][plan.parent[r]]) if n > 1 else float(heads.weights[plan.parent[r], 0]) * 0.1
    assert parent < head_max / 5 and float(vals[n][r]) > 2 * head_max
    res = triple_norm(x, cfg)
    assert res == _triple_norm_full(x, cfg)
    assert res.argmax_window == (2, 2 + n) and res.argmax_gammas == tuple(plan.gammas[r].tolist())
    caps = (1, int(plan.gammas[r].max()), int(plan.gammas[r].max()) + 1, 12)
    assert gamma_cap_trace(x, cfg, caps) == _gamma_cap_trace_full(x, cfg, caps)


@pytest.mark.parametrize("name", ["product_cfg", "line8_cfg"])
def test_walk_keeps_the_plan_1_rows_that_tie_a_head_max_plan_0_lacks(name, request):
    # one head off the last base holds the largest head value, and weights
    # of 1e-30 leave its children's terms below half an ulp: its first
    # child ties it and is the first argmax, in plan 1, so the walk must
    # keep a head whose chained bound only ties the running max
    base = request.getfixturevalue(name)
    cfg = _reweighted(base, [1e-30] * (len(base.plans) - 1), np.random.default_rng(8), low=1.0)
    heads = cfg.heads
    x = np.zeros(cfg.space.n)
    x[heads.idx[0, 0]] = 1.0
    assert heads.starts[0] == 1 < cfg.base_count
    res = triple_norm(x, cfg)
    assert res == _triple_norm_full(x, cfg)
    assert res.value == float(heads.weights[0, 0])
    assert res.argmax_window == (1, 2) and res.argmax_gammas == (0, 0)
    assert gamma_cap_trace(x, cfg, (1, 2, 12)) == _gamma_cap_trace_full(x, cfg, (1, 2, 12))


def test_walk_computes_few_rows_of_plan_1_on_noise(product_cfg):
    # the shipped weights put plan 1's terms near 2e-3 of the head values,
    # so only the parents of the few rows near the max keep their children
    cfg = product_cfg
    plan1 = cfg.plans[1]
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=cfg.space.n)
        levels = norm._walk(np.abs(x), cfg, norm._AllRows(float(np.abs(x).max())))[0]
        computed = sum(len(rows) for plan, rows, *_ in levels if plan is plan1)
        assert 0 < computed <= 0.02 * plan1.count, computed
        assert triple_norm(x, cfg) == _triple_norm_full(x, cfg)


@pytest.mark.parametrize("name", ["product_cfg", "product5_cfg", "line8_cfg", "product_word_capped_cfg"])
def test_walk_slices_one_parent_and_gathers_several(name, request):
    # a level that keeps one parent slices its children as one range; one
    # that keeps several gathers them: the benchmark's tent sums take the
    # first way, their plateaus the second, and both match the full tree
    cfg = request.getfixturevalue(name)
    rng = np.random.default_rng(13)
    caps = (1, 2, 3, 4, 6, 8, 12)
    taken = {"tents": set(), "plateau": set()}
    for kind in ("tents", "plateau") * 12:
        x = _function(kind, cfg, rng, 1.0, 1)
        ax = np.abs(x)
        for walk_caps in (norm._AllRows(float(ax.max())), norm._LabelCaps(caps, cfg, ax)):
            levels = norm._walk(ax, cfg, walk_caps)[0]
            taken[kind] |= {type(rows) for _, rows, *_ in levels[1:]}
        assert triple_norm(x, cfg) == _triple_norm_full(x, cfg), (name, kind)
        assert gamma_cap_trace(x, cfg, caps) == _gamma_cap_trace_full(x, cfg, caps), (name, kind)
    assert range in taken["tents"] and np.ndarray in taken["plateau"], taken


def _chain_by_numpy(v, steps):
    # the chained bound as the walk once added it, one numpy add per step
    out = np.float64(v)
    with np.errstate(over="ignore"):
        for s in steps:
            out = out + np.float64(s)
    return out


def _ulps_around(t, k=64):
    below, above, out = t, t, [t]
    for _ in range(k):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return [v for v in out if 0.0 <= v <= math.inf]


def _check_floor(need, steps):
    f = norm._floor(need, steps)
    assert f <= need
    # no float under the floor, down to 0.0, has a chain that reaches the need
    for v in [0.0, *_ulps_around(f)]:
        if v < f:
            assert _chain_by_numpy(v, steps) < need, (need, steps, f, v)
    return f


@pytest.mark.parametrize("need,steps,at_top", [
    # shipped-like: steps near 2e-3, 1e-5 and 3e-8 of the need
    (math.nextafter(0.75, 1), [1.5e-3, 7.5e-6, 2.2e-8], False),
    # need minus the steps' sum is negative: every value reaches it
    (1e-3, [1.0, 0.5], False),
    (0.3, [0.1, 0.2], False),
    # sup = 0, so every step is 0: the floor is the need itself
    (5e-324, [0.0, 0.0, 0.0], True),
    (0.625, [0.0], True),
    # a need of inf: only a chain that overflows reaches it
    (math.inf, [1.0, 2.0], True),
    (math.inf, [1e308, 1e308], False),
    # steps below half an ulp of the need: no value short of it reaches it
    (1.0, [1e-17, 1e-17, 1e-17], True),
    # tiny needs and steps, near the subnormals
    (3e-320, [1e-320, 5e-324], False),
])
def test_floor_is_the_need_exactly_where_the_float_below_it_falls_short(need, steps, at_top):
    f = _check_floor(need, steps)
    assert (f == need) == at_top
    assert (_chain_by_numpy(math.nextafter(need, 0.0), steps) < need) == at_top


@given(need=st.floats(0.0, 1e300) | st.sampled_from([math.inf, 5e-324, 1.0]),
       steps=st.lists(st.floats(0.0, 1e300) | st.floats(0.0, 1e-300) | st.just(0.0), min_size=1, max_size=5),
       scale=st.sampled_from([1.0, 1e-3, 1e-16, 1e3]))
@settings(max_examples=300, deadline=None)
def test_floor_is_sound_on_drawn_steps(need, steps, scale):
    # steps scaled near the need reach both the exact top and the margin
    _check_floor(need, [s * scale if need == math.inf else min(s, need) * scale for s in steps])


@pytest.mark.parametrize("name", ["product_cfg", "product5_cfg", "line8_cfg", "product_word_capped_cfg"])
def test_all_rows_keep_exactly_the_parents_whose_chain_reaches_the_need(name, request, monkeypatch):
    # the floor keeps a parent in excess only when its value lies between
    # the floor and the least value whose chain reaches the need; on every
    # level of these walks it keeps what the per-row chain keeps
    cfg = request.getfixturevalue(name)
    keep, seen = norm._AllRows.keep, []

    def checked(vals, need, steps, top):
        got = keep(vals, need, steps, top)
        want = (_chain_by_numpy(vals, steps) >= need).nonzero()[0]
        assert np.array_equal(got, want), (name, need, steps)
        seen.append(len(steps))
        return got

    monkeypatch.setattr(norm._AllRows, "keep", staticmethod(checked))
    rng = np.random.default_rng(14)
    for kind in ("tents", "dense", "indicator", "constant") * 10:
        if kind == "indicator":
            x = np.zeros(cfg.space.n)
            x[rng.integers(cfg.space.n, size=int(rng.integers(1, 4)))] = 1.0
        else:
            x = _function(kind, cfg, rng, float(rng.uniform(0.5, 2.0)), 1)
        assert triple_norm(x, cfg) == _triple_norm_full(x, cfg), (name, kind)
    # each function compared its heads, and some compared deeper levels too
    assert len(seen) >= 40 and len(set(seen)) >= 2, seen


@pytest.mark.parametrize("name", ["line_cfg", "product_cfg"])
def test_constant_functions_keep_the_first_argmax(name, request):
    # ties everywhere: plan 0 wins on zero, and the first row of the first
    # best plan on a constant
    cfg = request.getfixturevalue(name)
    zero = triple_norm(np.zeros(cfg.space.n), cfg)
    assert zero.argmax_window == (cfg.base_count, cfg.base_count) and zero.argmax_gammas == (0,)
    for c in (1.0, -0.5):
        x = np.full(cfg.space.n, c)
        assert triple_norm(x, cfg) == _triple_norm_by_row(x, cfg)


@pytest.mark.parametrize("name", ["product_cfg", "line_cfg", "product_capped_cfg", "product_word_capped_cfg"])
def test_parent_links_point_at_row_prefixes(name, request):
    cfg = request.getfixturevalue(name)
    heads = cfg.heads
    assert heads.parent is None and heads.n == 0
    assert np.array_equal(np.unique(heads.starts), np.arange(1, cfg.base_count + 1))
    plan0, *deeper = cfg.plans
    assert (plan0.starts == cfg.base_count).all()
    # plan 0's rows are the last head rows, which the walk reads as a slice
    assert np.array_equal(plan0.parent, np.arange(heads.count - plan0.count, heads.count))
    for a in ("starts", "gammas", "idx", "weights"):
        assert np.array_equal(getattr(heads, a)[plan0.parent], getattr(plan0, a))
    below = heads
    for plan in deeper:
        assert plan.parent.shape == plan.starts.shape
        assert np.array_equal(below.starts[plan.parent], plan.starts), (name, plan.n)
        for a in ("gammas", "idx", "weights"):
            assert np.array_equal(getattr(below, a)[plan.parent], getattr(plan, a)[:, :-1]), (name, plan.n, a)
        # every row of the level below that the plan's windows extend has
        # children, and the links are nondecreasing, so those children are
        # one range of rows, which the plan records
        assert np.array_equal(np.unique(plan.parent), np.arange(plan.parent.max() + 1))
        assert (np.diff(plan.parent) >= 0).all(), (name, plan.n)
        assert len(plan.child_start) == len(plan.child_count) == plan.parent.max() + 1
        for p in range(len(plan.child_count)):
            kids = np.flatnonzero(plan.parent == p)
            assert np.array_equal(kids, plan.child_start[p] + np.arange(plan.child_count[p])), (name, plan.n, p)
        assert np.array_equal(plan.child_rank, np.arange(plan.child_count.max()))
        below = plan
    assert plan0.child_start is plan0.child_count is plan0.child_rank is heads.child_start is None
    # each level, the head table included, records each row's largest
    # label, which is at least its parent's
    for plan in (heads, *cfg.plans):
        top = plan.gammas.max(axis=1)
        assert np.array_equal(plan.top, top)
        assert plan.last_max == plan.weights[:, -1].max()
        if plan.parent is not None:
            parent_level = heads if plan.n <= 1 else cfg.plans[plan.n - 1]
            assert (top >= parent_level.gammas.max(axis=1)[plan.parent]).all()


def test_tree_walk_adds_left_to_right_past_seven_terms(line8_cfg):
    # depth 8 gives rows of 8 terms, where numpy's row sum turns pairwise;
    # the walk adds each row left to right, as rho does
    cfg = line8_cfg
    assert cfg.plans[-1].n == 7
    rng = np.random.default_rng(5)
    deepest = cfg.plans[-1]
    pairwise_differs = 0
    for _ in range(20):
        # terms of comparable size on the deepest row, so rounding depends on the order
        x = rng.uniform(-1, 1, size=cfg.space.n)
        x[deepest.idx[0]] = rng.uniform(0.5, 1.5, size=deepest.n + 1) / deepest.weights[0]
        for plan, vals, by_row in zip(cfg.plans, _plan_values(x, cfg), _plan_values_by_row(x, cfg)):
            for r in range(plan.count):
                assert vals[r] == rho(cfg.tuple_index(int(plan.starts[r]), plan.gammas[r]), x, cfg), (plan.n, r)
            pairwise_differs += int((vals != by_row).sum())
        assert triple_norm(x, cfg) == _triple_norm_full(x, cfg)
    assert pairwise_differs > 0


def test_triple_norm_unit_witness(line_cfg):
    # scaled bump at a base point: norm lands within the bound of 1
    i = 3
    p = line_cfg.base_points[i - 1]
    x = np.zeros(line_cfg.space.n)
    x[p] = 1.0 / line_cfg.lam(i)
    res = triple_norm(x, line_cfg)
    assert res.value <= 1.0 + 1e-12
    assert res.value >= 1.0 - res.truncation_bound - 1e-12


def test_witness_function_norm_close_to_quotient_formula(line_cfg):
    t = line_cfg.base_tuple(2, 2)
    a = solve_unit(build_matrix(t, line_cfg))
    spec = witness_for_tuple(t, line_cfg, a)
    x, audit = witness_function(spec, line_cfg)
    for k, p in enumerate(t.points):
        assert x[p] == pytest.approx(a[k])
    res = triple_norm(x, line_cfg)
    assert res.value <= (1 + 0.05) * 1.0 + 1e-12
    assert audit["r1_checked"] > 0


def test_witness_on_product_checks_exceptional_orbits(product_cfg):
    # a pair carrying a non-minimal class: the avoidance audit must examine
    # the lighter classes of the same window
    t = product_cfg.tuple_index(1, (0, 3))
    assert product_cfg.registry.classify(1, t.points).ordinal > 1
    a = solve_unit(build_matrix(t, product_cfg))
    spec = witness_for_tuple(t, product_cfg, a)
    x, audit = witness_function(spec, product_cfg)
    assert audit["r2_checked"] > 0
    assert triple_norm(x, product_cfg).value <= 1.05 + 1e-12


def test_witness_function_never_grows_the_registry(product_cfg):
    # windows (3, 2) and (2, 3) end past the depth, so none of their classes
    # is registered; the avoidance audit reads them without registering
    registry = product_cfg.registry
    for start, gammas in ((3, (0, 5, 2)), (2, (1, 3, 0, 4))):
        t = product_cfg.tuple_index(start, gammas)
        spec = witness_for_tuple(t, product_cfg, [1 / product_cfg.lam(start + k) for k in range(len(gammas))])
        assert registry.prefix_classes(t.start, t.points)[-1] is None
        size = len(registry)
        _, audit = witness_function(spec, product_cfg)
        assert audit["r2_checked"] > 0
        assert len(registry) == size


def test_witness_function_rejects_overlap(line_cfg):
    p = line_cfg.base_points[0]
    q = line_cfg.base_points[1]
    spec = WitnessSpec(targets=((p, 0.9), (q, 0.9)), ball_radii=(0.1, 0.1), cutoff_M=8,
                       tuple_ref=line_cfg.base_tuple(1, 1))
    with pytest.raises(ValueError, match="overlap"):
        witness_function(spec, line_cfg)


def test_witness_function_names_colliding_orbit(line_cfg):
    # the target is base 1's point, held at the slot of base 2, so base 1's
    # orbit is not its own and meets its support
    p = line_cfg.base_points[0]
    spec = WitnessSpec(targets=((p, 0.9),), ball_radii=(0.05,), cutoff_M=8, tuple_ref=line_cfg.base_tuple(2, 0))
    with pytest.raises(ValueError, match="support of target 0 meets the orbit of base point 1"):
        witness_function(spec, line_cfg)


def test_witness_spec_refuses_a_target_count_off_the_reference_tuple(line_cfg):
    p, q = line_cfg.base_points[:2]
    with pytest.raises(ValueError, match="one target per slot of the reference tuple required"):
        WitnessSpec(targets=((p, 0.9), (q, 0.9)), ball_radii=(0.1, 0.1), cutoff_M=8,
                    tuple_ref=line_cfg.base_tuple(1, 2))


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -0.1])
def test_witness_spec_refuses_a_radius_that_is_not_a_finite_positive_number(line_cfg, radius):
    p, q = line_cfg.base_points[:2]
    with pytest.raises(ValueError, match=re.escape(f"ball radius must be a finite number > 0, got {radius!r}")):
        WitnessSpec(targets=((p, 0.9), (q, 0.9)), ball_radii=(0.1, radius), cutoff_M=8,
                    tuple_ref=line_cfg.base_tuple(1, 1))


def test_find_cutoff_inequality(line_cfg):
    M = find_cutoff(line_cfg, 3, 0.05)
    lamM = line_cfg.lam(M)
    assert lamM + line_cfg.bc.L ** (3.0 - M) < min(line_cfg.lam(4), 1.05)
    assert M > 3


# ----------------------------------------------------------------------
# dual norms


def test_dual_norm_delta_on_base_orbit(line_cfg):
    p3 = line_cfg.base_points[2]
    assert dual_norm_delta(p3, line_cfg) == pytest.approx(1 / line_cfg.lam(3))


def test_dual_norm_delta_off_orbits():
    space = rl.builtin_space("line", step=0.01, window=(0, 2))
    group = rl.GroupSpec.trivial(space)
    cfg = rl.build_config(space, group, C=1.1, depth=4, base_count=20)
    far = space.n - 1  # far right, outside the 20 selected base points
    assert dual_norm_delta(far, cfg) == 1.0


def test_dual_norm_delta_numeric_cross_check(line_cfg):
    # bump maximization gives a lower-bound ratio within 2 percent
    i = 3
    t = line_cfg.base_tuple(i, 1)
    spec = witness_for_tuple(t, line_cfg, (1 / line_cfg.lam(i), 1 / line_cfg.lam(i + 1)))
    x, _ = witness_function(spec, line_cfg)
    value = triple_norm(x, line_cfg).value
    ratio = x[t.points[0]] / value
    assert ratio >= (1 - WITNESS_EPS) * dual_norm_delta(t.points[0], line_cfg)


# the per-orbit searches that the base-orbit slot table replaced, kept as
# oracles: exact orbit points resolve to their first slot; classify_slots
# then takes the nearest base orbit within tol and dual_norm_delta the first


def _first_slots(cfg):
    lookup = {}
    for bi, enum in enumerate(cfg.orbit_enums, start=1):
        for gpos, p in enumerate(enum):
            lookup.setdefault(p, (bi, gpos))
    return lookup


def _classify_slots_oracle(cfg, lookup, p, tol):
    hit = lookup.get(int(p))
    if hit is None and tol > 0:
        best = None
        for bi, enum in enumerate(cfg.orbit_enums, start=1):
            dmin = cfg.space.dmat[p, list(enum)].min()
            if dmin <= tol and (best is None or dmin < best[0]):
                pos = int(np.argmin(cfg.space.dmat[p, list(enum)]))
                best = (dmin, (bi, pos))
        hit = best[1] if best else None
    return hit


def _dual_norm_delta_oracle(cfg, lookup, p, tol):
    hit = lookup.get(int(p))
    if hit is not None:
        return 1.0 / cfg.lam(hit[0])
    for bi, enum in enumerate(cfg.orbit_enums, start=1):
        if cfg.space.dmat[p, list(enum)].min() <= tol:
            return 1.0 / cfg.lam(bi)
    return 1.0


@pytest.fixture(scope="module")
def line20_cfg(line_space):
    return rl.build_config(line_space, rl.GroupSpec.trivial(line_space), C=1.1, depth=4,
                           base_count=20)


@pytest.fixture(scope="module")
def product8_cfg(product_space, rotation_group):
    # off-orbit points here often lie equally near two orbit points
    return rl.build_config(product_space, rotation_group, C=1.1, depth=4, base_count=8)


@pytest.mark.parametrize("name", ["product_cfg", "product8_cfg", "line20_cfg"])
def test_slot_table_matches_orbit_search(name, request):
    cfg = request.getfixturevalue(name)
    lookup = _first_slots(cfg)
    res = cfg.space.resolution
    points = range(cfg.space.n)
    for tol in (0.0, res + 1e-12, 2 * res):
        assert cfg.classify_slots(points, tol) == [
            _classify_slots_oracle(cfg, lookup, p, tol) for p in points
        ]
    assert [dual_norm_delta(p, cfg) for p in points] == [
        _dual_norm_delta_oracle(cfg, lookup, p, cfg.space._resolution_tol) for p in points
    ]
    dist = cfg.space.dmat[:, sorted(lookup)].min(axis=1)
    assert cfg.coverage_defect == float(dist.max())


def _slot_table_full_gather(cfg):
    """The slot table from every row against the slot columns, as the build
    made it before orbit points took their own slot."""
    first_slot = {}
    for bi, enum in enumerate(cfg.orbit_enums, start=1):
        for gpos, p in enumerate(enum):
            first_slot.setdefault(p, (bi, gpos))
    slots = np.asarray(list(first_slot.values()), dtype=np.intp)
    gather = np.take(cfg.space.dmat, list(first_slot), axis=1)
    nearest = gather.argmin(axis=1)
    return gather[np.arange(cfg.space.n), nearest], slots[nearest, 0], slots[nearest, 1]


@pytest.mark.parametrize("name", ["product_cfg", "product_word_capped_cfg", "line_cfg", "line20_cfg",
                                  "product8_cfg"])
def test_slot_table_matches_the_full_gather(name, request):
    cfg = request.getfixturevalue(name)
    dist, base, gamma = _slot_table_full_gather(cfg)
    assert cfg.slot_dist.tobytes() == dist.tobytes()
    assert np.array_equal(cfg.slot_base, base) and np.array_equal(cfg.slot_gamma, gamma)
    assert cfg.coverage_defect == float(dist.max())
    if name == "line20_cfg":  # base_count-limited: most points are off the orbits
        assert cfg.coverage_defect > 0


def test_dual_norm_atoms_singleton(line_cfg):
    t = TupleIndex(4, (0,), (line_cfg.base_points[3],))
    v, fp = dual_norm_atoms(t, [1.0], line_cfg)
    assert v == pytest.approx(1 / line_cfg.lam(4))
    assert fp[0] == pytest.approx(1 / line_cfg.lam(4))


def test_dual_norm_atoms_sum_bounds(line_cfg):
    for n in (1, 2):
        t = line_cfg.base_tuple(1, n)
        v, _ = dual_norm_atoms(t, np.ones(n + 1), line_cfg)
        assert (n + 1) * 0.8 <= v <= (n + 1)


def test_dual_norm_atoms_invariance_exact(product_cfg):
    g = product_cfg.group.generators[0]
    t = product_cfg.base_tuple(1, 1)
    beta = np.array([0.9, 0.95])
    v_t, fp_t = dual_norm_atoms(t, beta, product_cfg)
    moved = product_cfg.window_tuple(tuple(int(g.forward[p]) for p in t.points))
    v_s, fp_s = dual_norm_atoms(moved, beta, product_cfg)
    assert v_s == v_t
    assert np.array_equal(fp_s, fp_t)


def test_dual_norm_atoms_window_enforced(line_cfg):
    t = line_cfg.base_tuple(1, 1)
    with pytest.raises(ValueError, match="window"):
        dual_norm_atoms(t, [0.5, 0.9], line_cfg)


def test_build_matrix_pair_entries(line_cfg):
    t = line_cfg.base_tuple(1, 1)
    T = build_matrix(t, line_cfg)
    assert T.lambdas[0] == pytest.approx(1.05)
    assert T.lambdas[1] == pytest.approx(1.025)
    info = line_cfg.registry.classify(1, t.points)
    assert T.zeta[0, 1] == pytest.approx(line_cfg.bc.inv_L_pow(info.exponent))


def test_build_matrix_class_constant(product_cfg):
    g = product_cfg.group.generators[0]
    t = product_cfg.base_tuple(2, 2)
    moved_points = tuple(int(g.forward[p]) for p in t.points)
    slots = product_cfg.classify_slots(moved_points, tol=0)
    s = TupleIndex(2, tuple(x[1] for x in slots), moved_points)
    assert np.array_equal(build_matrix(t, product_cfg).matrix(),
                          build_matrix(s, product_cfg).matrix())


def _validate_by_column(lambdas, zeta):
    # the per-column TriangularSystem validator that the masked compares
    # replaced: the message of the first broken rule, or None; a NaN on the
    # diagonal or above it breaks the range or the sign rule
    lambdas = np.asarray(lambdas, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    s = len(lambdas)
    if zeta.shape != (s, s):
        return "zeta shape mismatch"
    if np.any(np.tril(zeta) != 0):
        return "zeta must be strictly upper triangular"
    for k in range(s):
        if not 1.0 <= lambdas[k] <= 1.1 + 1e-12:
            return f"diagonal must lie in [1, 1.1]: entry {k} is {lambdas[k]}"
    if np.any(np.diff(lambdas) > 1e-12):
        return "diagonal must be non-increasing"
    for j in range(s):
        for k in range(s):
            if not zeta[j, k] >= 0:
                return f"zeta entries must be nonnegative: entry ({j}, {k}) is {zeta[j, k]}"
    for k in range(1, s):
        if np.any(zeta[:k, k] > 9.0 ** (4 - 3 * (k + 1)) + 1e-12):
            return (f"zeta bound violation in column {k}: "
                    "entries exceed the hypothesis bound (is L <= 9?)")
    return None


def _validate_masked(lambdas, zeta):
    try:
        TriangularSystem(lambdas=lambdas, zeta=zeta)
    except ValueError as exc:
        return str(exc)
    return None


_BREAKS = ("lower", "diagonal-low", "diagonal-high", "increasing", "negative",
           "column", "column-edge", "nan", "nan-diagonal", "shape")


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6),
       st.lists(st.sampled_from(_BREAKS), max_size=3))
@settings(max_examples=300, deadline=None)
def test_masked_validator_matches_per_column_validator(s, seed, breaks):
    rng = np.random.default_rng(seed)
    T = _random_system(rng, s)
    lam, zeta = T.lambdas.copy(), T.zeta.copy()
    upper = [(j, k) for k in range(1, s) for j in range(k)]
    for rule in breaks:
        if rule == "lower":
            j = int(rng.integers(0, s))
            zeta[j, int(rng.integers(0, j + 1))] = rng.choice([1e-300, 0.25, -1.0, -0.0])
        elif rule == "diagonal-low":
            lam[int(rng.integers(0, s))] = rng.choice([1.0 - 1e-15, 0.5])
        elif rule == "diagonal-high":
            lam[int(rng.integers(0, s))] = rng.choice([1.1 + 2e-12, 1.1 + 1e-12, 2.0])
        elif rule == "increasing" and s > 1:
            i = int(rng.integers(1, s))
            lam[i] = lam[i - 1] + rng.choice([1e-12, 2e-12, 1e-4])
        elif rule == "negative" and upper:
            zeta[upper[int(rng.integers(0, len(upper)))]] = rng.choice([-1e-300, -0.0, -1e-3])
        elif rule in ("column", "column-edge") and upper:
            j, k = upper[int(rng.integers(0, len(upper)))]
            edge = 9.0 ** (4 - 3 * (k + 1)) + 1e-12
            zeta[j, k] = edge if rule == "column-edge" else edge * (1 + rng.uniform(1e-9, 1.0))
        elif rule == "nan":
            zeta[int(rng.integers(0, s)), int(rng.integers(0, s))] = np.nan
        elif rule == "nan-diagonal":
            lam[int(rng.integers(0, s))] = np.nan
        elif rule == "shape":
            zeta = np.zeros((s, s + 1))
    expected = _validate_by_column(lam, zeta)
    assert _validate_masked(lam, zeta) == expected
    if not breaks:
        assert expected is None


def _build_matrix_per_segment(t, cfg):
    # the build that the batched class read replaced: one batch-of-one
    # classify per segment, in (j, k) order
    s = t.n + 1
    lambdas = np.array([cfg.lam(t.start + k) for k in range(s)])
    zeta = np.zeros((s, s))
    for j in range(s):
        for k in range(j + 1, s):
            seg = t.segment(j, k)
            zeta[j, k] = cfg.bc.inv_L_pow(cfg.registry.classify(seg.start, seg.points).exponent)
    return TriangularSystem(lambdas=lambdas, zeta=zeta)


@pytest.mark.parametrize("name", ["product_cfg", "line_cfg", "product_capped_cfg", "product_word_capped_cfg"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_batched_build_matches_per_segment_classify(name, data, request, fork):
    # tuples beyond the depth and labels beyond a gamma cap register new
    # classes: the two builds must register them with the same ordinals
    cfg = request.getfixturevalue(name)
    tuples = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        n = data.draw(st.integers(min_value=0, max_value=cfg.depth + 1))
        start = data.draw(st.integers(min_value=1, max_value=cfg.base_count - n))
        gammas = [data.draw(st.integers(min_value=0, max_value=len(cfg.orbit_of_base(start + j)) - 1))
                  for j in range(n + 1)]
        tuples.append(cfg.tuple_index(start, gammas))
    old, new = fork(cfg), fork(cfg)
    for t in tuples:
        a, b = _build_matrix_per_segment(t, old), build_matrix(t, new)
        assert a.lambdas.tobytes() == b.lambdas.tobytes()
        assert a.zeta.tobytes() == b.zeta.tobytes()
    assert list(old.registry.to_records(cfg.space.points)) == list(new.registry.to_records(cfg.space.points))


def test_dual_norm_atoms_rejects_beta_length_before_registering(product_cfg, fork):
    cfg = fork(product_cfg)
    t = cfg.base_tuple(1, cfg.depth)
    before = list(cfg.registry.to_records(cfg.space.points))
    for beta in ([0.9] * cfg.depth, [0.9] * (cfg.depth + 2), [[0.9] * (cfg.depth + 1)]):
        with pytest.raises(ValueError, match="^beta length mismatch$"):
            dual_norm_atoms(t, beta, cfg)
    assert list(cfg.registry.to_records(cfg.space.points)) == before
    dual_norm_atoms(t, [0.9] * (cfg.depth + 1), cfg)
    assert len(cfg.registry.all_classes()) == len(before) + 3


# ----------------------------------------------------------------------
# comparison systems: a tuple that matches t on both overlapping sub-windows
# yet lies in no enumerated end-label class gets t's class system with the
# corner entry pinned to the limiting value L^-c(t); nothing in the library
# builds one since certify's comparison branch went, so the systems live here
# as oracles of the class systems' entry structure


def assemble_comparison(lambdas, seg_exponents, c_t, bc):
    s = len(lambdas)
    zeta = np.zeros((s, s))
    for (j, k), exp in seg_exponents.items():
        zeta[j, k] = bc.inv_L_pow(exp)
    zeta[0, s - 1] = bc.inv_L_pow(Fraction(c_t))
    return TriangularSystem(lambdas=np.asarray(lambdas, float), zeta=zeta)


def comparison_matrix(s_points, t, cfg):
    # the preconditions are tested with the sampled orbit machinery; the
    # error names which equivalence held when they fail
    s_points = tuple(int(p) for p in s_points)
    if len(s_points) != t.n + 1:
        raise ValueError("length mismatch")
    n = t.n
    head_ok = equivalent(s_points[:-1], t.points[:-1], cfg.group)
    tail_ok = equivalent(s_points[1:], t.points[1:], cfg.group)
    if not (head_ok and tail_ok):
        raise ValueError(
            "not almost equivalent: "
            f"head equivalence {'held' if head_ok else 'failed'}, "
            f"tail equivalence {'held' if tail_ok else 'failed'}"
        )
    for gamma, end_pt in enumerate(cfg.orbit_of_base(t.start + n)):
        if equivalent(s_points, t.points[:-1] + (end_pt,), cfg.group):
            raise ValueError(
                f"tuple is equivalent to the end-label {gamma} class; "
                "the plain class system applies"
            )
    lambdas = [cfg.lam(t.start + k) for k in range(n + 1)]
    seg_exponents = {
        (j, k): cfg.registry.classify(t.start + j, s_points[j : k + 1]).exponent
        for j in range(n + 1) for k in range(j + 1, n + 1) if (j, k) != (0, n)
    }
    return assemble_comparison(lambdas, seg_exponents, 3 * enumeration_index(t.start, t.n), cfg.bc)



def test_comparison_synthetic_entry_difference():
    bc = choose_parameters(1.1)
    c_t = 3 * enumeration_index(2, 1)
    lambdas = [bc.lam(2), bc.lam(3)]
    T_class = TriangularSystem(lambdas=lambdas,
                               zeta=[[0, bc.inv_L_pow(Fraction(c_t - 1))], [0, 0]])
    T_comp = assemble_comparison(lambdas, {}, c_t, bc)
    a_class = solve_unit(T_class)
    a_comp = solve_unit(T_comp)
    predicted = (1 / lambdas[0]) * (bc.inv_L_pow(Fraction(c_t - 1)) - bc.inv_L_pow(Fraction(c_t))) * a_class[1]
    assert a_comp[1] == a_class[1]
    assert (a_comp[0] - a_class[0]) == pytest.approx(predicted, abs=1e-15)
    assert a_comp[0] > a_class[0]


def test_comparison_matrix_error_when_equivalent(product_cfg):
    g = product_cfg.group.generators[0]
    t = product_cfg.base_tuple(1, 1)
    s = tuple(int(g.forward[p]) for p in t.points)
    with pytest.raises(ValueError, match="end-label"):
        comparison_matrix(s, t, product_cfg)


def test_comparison_matrix_error_not_almost_equivalent(product_cfg):
    t = product_cfg.base_tuple(1, 1)
    s = (t.points[0], t.points[0])  # head matches, tail does not
    with pytest.raises(ValueError, match="tail equivalence failed"):
        comparison_matrix(s, t, product_cfg)


def test_comparison_rows_match_class_rows_below_corner():
    bc = choose_parameters(1.1)
    lambdas = [bc.lam(1), bc.lam(2), bc.lam(3)]
    segs = {(0, 1): Fraction(2), (1, 2): Fraction(5)}
    T = assemble_comparison(lambdas, segs, 9, bc)
    assert T.zeta[1, 2] == pytest.approx(bc.inv_L_pow(Fraction(5)))
    assert T.zeta[0, 2] == pytest.approx(bc.inv_L_pow(Fraction(9)))


def _build_window_by_window(space, group, C, depth, gamma_cap=None):
    # the per-window build with a per-level np.unique and a per-row
    # classify that the level-by-level plans replaced
    bc = choose_parameters(C)
    base, _ = select_dense_points(space, group)
    registry = ClassRegistry([w.forward for w in group.words()])
    orbit_enums = [tuple(dict.fromkeys(col)) for col in registry.word_maps[:, list(base)].T.tolist()]

    def build_window(start, n):
        ranges = [len(orbit_enums[start + j - 1]) for j in range(n + 1)]
        if gamma_cap is not None:
            ranges = [min(r, gamma_cap) for r in ranges]
        count = math.prod(ranges)
        gam = np.array(list(itertools.product(*(range(r) for r in ranges))), dtype=np.intp)
        gam = gam.reshape(count, n + 1)
        idx = np.empty_like(gam)
        for j in range(n + 1):
            idx[:, j] = np.asarray(orbit_enums[start + j - 1], dtype=np.intp)[gam[:, j]]
        weights = np.empty((count, n + 1))
        weights[:, 0] = bc.lam(start)
        for k in range(1, n + 1):
            uniq, inv = np.unique(idx[:, : k + 1], axis=0, return_inverse=True)
            vals = np.empty(len(uniq))
            for u, row in enumerate(uniq):
                vals[u] = bc.inv_L_pow(registry.classify(start, row).exponent)
            weights[:, k] = vals[inv]
        return np.full(count, start, dtype=np.intp), gam, idx, weights

    raw, deep = {}, set()
    for end in range(2, min(depth, len(base)) + 1):
        for length in range(2, end + 1):
            start = end - length + 1
            deep.add((start, length - 1))
            raw.setdefault(length - 1, []).append(build_window(start, length - 1))
    for i in range(1, len(base)):
        if (i, 1) not in deep:
            raw.setdefault(1, []).append(build_window(i, 1))
    raw.setdefault(0, []).append(build_window(len(base), 0))
    plans = [(n, *(np.concatenate([r[j] for r in rows]) for j in range(4))) for n, rows in sorted(raw.items())]
    return tuple(base), registry, plans


@pytest.mark.parametrize("name", ["product_cfg", "line_cfg", "product_word_capped_cfg", "product_capped_cfg"])
def test_level_plans_match_window_by_window_build(name, request):
    # built afresh: the shared configs' registries gain classes as other tests query them
    shared = request.getfixturevalue(name)
    cfg = rl.build_config(shared.space, shared.group, C=shared.bc.C, depth=shared.depth,
                          gamma_cap=shared.gamma_cap)
    base, registry, plans = _build_window_by_window(cfg.space, cfg.group, cfg.bc.C, cfg.depth, cfg.gamma_cap)
    assert base == cfg.base_points
    assert list(registry.to_records(cfg.space.points)) == list(cfg.registry.to_records(cfg.space.points))
    assert ([(m, i.ordinal, i.exponent) for m, i in registry.all_classes()]
            == [(m, i.ordinal, i.exponent) for m, i in cfg.registry.all_classes()])
    assert [p[0] for p in plans] == [p.n for p in cfg.plans]
    for ref, plan in zip(plans, cfg.plans):
        for a, b in zip(ref[1:], (plan.starts, plan.gammas, plan.idx, plan.weights)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (name, plan.n)


def test_last_slot_classes_follow_sorted_rows_per_window():
    # rows out of order, and two windows whose rows coincide
    registry = ClassRegistry([np.arange(6)])
    bc = choose_parameters(1.1)
    starts = np.array([1, 2, 2, 2])
    idx = np.array([[0, 1], [0, 2], [0, 1], [0, 2]])
    # the identity keys each row by itself: a row's class is its (start,
    # idx) rank
    rank = _dense((starts * 6 + idx[:, 0]) * 6 + idx[:, 1])
    weights = _class_weights(registry, bc, starts, idx, rank, rank)
    records = list(registry.to_records(range(6)))
    assert [(r["m"], r["ordinal"], r["representative"]) for r in records] == [
        (1, 1, [0, 1]), (2, 1, [0, 1]), (2, 2, [0, 2])]
    assert weights.tolist() == [bc.inv_L_pow(registry.classify(int(s), row).exponent)
                                for s, row in zip(starts, idx.tolist())]
    oracle = ClassRegistry([np.arange(6)])
    assert last_slot_weights(oracle, bc, starts, idx).tobytes() == weights.tobytes()
    assert list(oracle.to_records(range(6))) == records


def test_dual_suite_solves_each_tuple_once(line_cfg, monkeypatch):
    from renormlab import cli, norm

    sizes = []
    solve = norm.solve_unit
    monkeypatch.setattr(norm, "solve_unit", lambda T: sizes.append(T.size) or solve(T))
    report = cli.task_dual_suite(line_cfg, tuple_budget=6, grid=5)
    entries = report["entries"]
    assert [len(e["tuple"]) for e in entries] == sizes  # one solve per tuple, of its size
    # each beta's value is the one a solve per beta gives
    for e in entries:
        t = line_cfg.window_tuple([line_cfg.space.index(p) for p in e["tuple"]])
        betas = np.linspace(0.8, 1.0, 5)
        assert e["values"] == [dual_norm_atoms(t, np.full(len(e["tuple"]), b), line_cfg)[0] for b in betas]
