import dataclasses
import math
import re

import numpy as np
import pytest

import renormlab as rl
from group_oracles import close_by_inverting, op_key
from renormlab import cli, operators
from renormlab import io as rio
from renormlab.bounded import _image_weight, conjugate, group_norm, m_weight
from renormlab.operators import (
    GroupSpec,
    WeightedComposition,
    circle_rotation,
    identity,
    invert,
    line_translation,
    multiplication,
    onepoint_swap_group,
)


def test_isometric_group_gives_sup_norm():
    circ = rl.builtin_space("circle", count=24)
    G = GroupSpec((circle_rotation(circ, steps=2),), word_cap=4)
    bgn = m_weight(G)
    assert np.all(bgn.m == 1.0)
    assert bgn.C_G == 1.0
    assert bgn.flagged == []
    x = np.ones(circ.n)
    res = group_norm(x, bgn)
    assert res.value == 1.0 and res.agree


def test_swap_group_extremal_weight(onepoint_space, swap_group):
    bgn = m_weight(swap_group)
    n_max = onepoint_space.metric_form["n_max"]
    assert bgn.m[onepoint_space.index("inf")] == 1.0
    for n in range(1, n_max + 1):
        assert bgn.m[onepoint_space.index(f"(1,{n})")] == 0.5
        assert bgn.m[onepoint_space.index(f"(0,{n})")] == 1.0
    assert bgn.flagged == ["inf"]
    assert bgn.C_G == 2.0
    assert np.all(bgn.m >= 1.0 / bgn.C_G)
    assert np.all(bgn.m <= 1.0)


def _single_generator_group(word_cap):
    """A one-generator bounded non-isometric group on a [0,1] grid: the map
    expands the first quarter threefold and its weight peaks at 2 inside the
    squeezed middle band."""
    seg = rl.builtin_space("line", step=1 / 64, window=(0, 1))
    coords = seg.metric.x
    n = seg.n

    def phi(t):
        return 3 * t if t <= 0.25 else (t + 2) / 3

    def phi_inv(s):
        return s / 3 if s <= 0.75 else 3 * s - 2

    fwd = np.array([int(round(phi(c) * 64)) for c in coords], dtype=np.intp)
    bwd = np.array([int(round(phi_inv(c) * 64)) for c in coords], dtype=np.intp)
    a = np.interp(coords, [0.0, 0.25, 0.375, 0.5, 1.0], [1.0, 1.0, 2.0, 1.0, 1.0])
    idx = np.arange(n)
    gap = np.maximum(seg.dmat[bwd[fwd], idx], seg.dmat[fwd[bwd], idx])
    defects = frozenset(int(i) for i in np.nonzero(gap > 2 * seg.resolution)[0])
    g = WeightedComposition(seg, a, fwd, bwd, label="expander", allowed_defects=defects)
    return GroupSpec((g,), word_cap=word_cap, label="one-gen")


def _saved_groups():
    """(name, space, group) of every builtin group, on a space it acts on,
    and of the expander, whose map is many-to-one."""
    circle = rl.builtin_space("circle", count=12)
    product = rl.builtin_space("circle_x_interval", count=12, levels=3)
    onepoint = rl.builtin_space("onepoint01N", n_max=6)
    line = rl.builtin_space("line", step=0.5, window=(-2, 2))
    yield "trivial", line, cli.make_group({"builtin": "trivial"}, line)
    yield "rotation", circle, cli.make_group({"builtin": "rotation", "q": 4, "word_cap": 3}, circle)
    yield "rotation lifted", product, cli.make_group({"builtin": "rotation", "q": 6, "word_cap": 2}, product)
    yield "onepoint_swaps", onepoint, cli.make_group({"builtin": "onepoint_swaps"}, onepoint)
    expander = _single_generator_group(word_cap=2)
    yield "expander", expander.space, expander


@pytest.mark.parametrize("name", [name for name, *_ in _saved_groups()])
def test_saved_group_reloads_as_the_same_group(name, tmp_path):
    # closing a closed generator list adds nothing, so save, load and save
    # again write the same bytes and the reloaded group has the same words
    _, space, group = next(case for case in _saved_groups() if case[0] == name)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    rio.save_group(group, first)
    back = rio.load_group(first, space)
    rio.save_group(back, second)
    assert first.read_bytes() == second.read_bytes()
    assert [op_key(g) for g in back.generators] == [op_key(g) for g in group.generators]
    for a, b in zip(back.word_table(), group.word_table(), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    if name == "expander":
        assert (len(back.generators), len(back.word_table()[0])) == (2, 7)


def _random_generators(seed):
    """Seeded weighted maps on a 9-point circle: permutations, with their
    inverse map or another one, and many-to-one maps, weighted from {1/2,
    1, 2, 3} so that keys coincide; some are given twice and some with
    their formal inverse, in a shuffled order."""
    sp = rl.builtin_space("circle", count=9)
    rng = np.random.default_rng(seed)
    gens = []
    for k in range(int(rng.integers(1, 6))):
        forward = rng.permutation(9) if rng.random() < 0.5 else rng.integers(0, 9, 9)
        backward = np.argsort(forward) if rng.random() < 0.6 else rng.integers(0, 9, 9)
        weight = rng.choice([0.5, 1.0, 2.0, 3.0], 9) if rng.random() < 0.7 else np.ones(9)
        g = WeightedComposition(sp, weight, forward, backward, label=f"g{k}", allowed_defects=frozenset(range(9)))
        gens += [g, *[invert(g)] * (rng.random() < 0.4), *[g] * (rng.random() < 0.2)]
    return [gens[i] for i in rng.permutation(len(gens))]


def _closure_cases():
    """(name, generator list): every prefix of every builtin group's and
    the expander's closed generator list, the prefixes as given and the
    whole list closed already, then the seeded random lists."""
    for name, _, group in _saved_groups():
        for k in range(1, len(group.generators) + 1):
            yield f"{name}[:{k}]", group.generators[:k]
    for seed in range(40):
        yield f"random {seed}", _random_generators(seed)


_CLOSURE_CASES = dict(_closure_cases())


@pytest.mark.parametrize("name", list(_CLOSURE_CASES))
def test_keyed_closure_matches_inverting_one_generator_at_a_time(name):
    # the generators, their order, labels, forms, defects and arrays,
    # bitwise; a closed list's closure adds nothing (P11)
    gens = _CLOSURE_CASES[name]
    got, want = rl.GroupSpec(tuple(gens), word_cap=1).generators, close_by_inverting(gens)
    assert [(g.label, g.form, g.allowed_defects) for g in got] == [(g.label, g.form, g.allowed_defects) for g in want]
    for a, b in zip(got, want, strict=True):
        for field in ("forward", "weight", "backward"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (name, field)
    assert [op_key(g) for g in rl.GroupSpec(got, word_cap=1).generators] == [op_key(g) for g in got]


@pytest.fixture(scope="module")
def groups(swap_group, rotation_group):
    # the swaps, the many-to-one expander, and rot12 at caps 6 and 4
    return {
        "swaps": swap_group,
        "expander": _single_generator_group(word_cap=4),
        "rot12 cap 6": rotation_group,
        "rot12 cap 4": GroupSpec(rotation_group.generators, word_cap=4),
    }


def _norm_inputs(n, seed):
    """Dense and sparse functions on n points, then one with an inf entry
    and one with both signs of inf: sparse bumps put the sup on a single
    point and its images."""
    rng = np.random.default_rng(seed)
    for k in range(12):
        yield rng.uniform(-1, 1, size=n) * (rng.uniform(size=n) < 0.1 * k)
    x = rng.uniform(-1, 1, size=n)
    x[n // 3] = np.inf
    yield x.copy()
    x[n - 1] = -np.inf
    yield x


def test_single_generator_trace_monotone():
    G = _single_generator_group(word_cap=4)
    bgn = m_weight(G)
    mins = [v for _, v in bgn.cap_trace]
    assert all(b <= a + 1e-15 for a, b in zip(mins, mins[1:]))
    assert np.all(bgn.m <= 1.0)  # identity is a word


def test_group_norm_swap_bump(onepoint_space, swap_group):
    bgn = m_weight(swap_group)
    x = np.zeros(onepoint_space.n)
    x[onepoint_space.index("(1,9)")] = 1.0
    res = group_norm(x, bgn)
    assert res.value == 2.0
    assert res.sup_over_words == 2.0
    assert res.agree


def test_group_norm_ratio_window(onepoint_space, swap_group):
    bgn = m_weight(swap_group)
    rng = np.random.default_rng(23)
    for _ in range(25):
        x = rng.uniform(-1, 1, size=onepoint_space.n)
        sup = float(np.max(np.abs(x)))
        res = group_norm(x, bgn)
        assert sup / bgn.C_G - 1e-12 <= res.value <= bgn.C_G * sup + 1e-12


def test_group_norm_word_sup_matches_per_word_loop(groups):
    for name, group in groups.items():
        bgn = m_weight(group)
        words = group.words()
        for x in _norm_inputs(group.space.n, 37):
            per_word = max(float(np.max(np.abs(w.apply(x)))) for w in words)
            assert group_norm(x, bgn).sup_over_words == per_word, name


def test_group_norm_lattice_monotone(onepoint_space, swap_group):
    bgn = m_weight(swap_group)
    rng = np.random.default_rng(29)
    for _ in range(25):
        y = rng.uniform(-1, 1, size=onepoint_space.n)
        x = y * rng.uniform(0, 1, size=onepoint_space.n)  # |x| <= |y|
        assert group_norm(x, bgn).value <= group_norm(y, bgn).value + 1e-15


def test_conjugate_isometric_group_unchanged():
    circ = rl.builtin_space("circle", count=24)
    G = GroupSpec((circle_rotation(circ, steps=3),), word_cap=3)
    bgn = m_weight(G)
    g = G.generators[0]
    cg = conjugate(g, bgn)
    assert np.array_equal(cg.forward, g.forward)
    assert np.allclose(cg.weight, g.weight)


def test_conjugate_swap_is_weight_one(onepoint_space, swap_group):
    bgn = m_weight(swap_group)
    for n in (1, 4, 50):
        g = swap_group.generators[n - 1]
        cg = conjugate(g, bgn)
        assert np.allclose(cg.weight, 1.0)
        i0 = onepoint_space.index(f"(0,{n})")
        i1 = onepoint_space.index(f"(1,{n})")
        assert cg.forward[i0] == i1 and cg.forward[i1] == i0


def test_conjugate_is_homomorphism(onepoint_space, swap_group):
    from renormlab.operators import compose
    bgn = m_weight(swap_group)
    g, h = swap_group.generators[2], swap_group.generators[7]
    lhs = conjugate(compose(g, h), bgn)
    rhs = compose(conjugate(g, bgn), conjugate(h, bgn))
    assert np.array_equal(lhs.forward, rhs.forward)
    assert np.allclose(lhs.weight, rhs.weight, atol=1e-14)


def test_conjugate_sup_isometric_on_random_functions(onepoint_space, swap_group):
    bgn = m_weight(swap_group)
    rng = np.random.default_rng(31)
    cg = conjugate(swap_group.generators[10], bgn)
    for _ in range(50):
        f = rng.uniform(-1, 1, size=onepoint_space.n)
        assert abs(np.max(np.abs(cg.apply(f))) - np.max(np.abs(f))) <= 1e-12


def test_conjugate_accepts_an_operator_on_an_equal_space_and_refuses_others():
    line = rl.builtin_space("line", step=0.5, window=(0, 1))
    twin = dataclasses.replace(line, metric_form={"form": "matrix"})
    rotations = m_weight(GroupSpec((circle_rotation(rl.builtin_space("circle", count=12), steps=1),), word_cap=2))
    trivial = m_weight(GroupSpec.trivial(line))
    for g, bgn in ((circle_rotation(rl.builtin_space("circle", count=12), steps=3), rotations),
                   (identity(rl.builtin_space("line", step=0.5, window=(0, 1))), trivial)):
        out = conjugate(g, bgn)
        assert np.array_equal(out.forward, g.forward) and np.all(out.weight == 1.0)
    for g, bgn in ((circle_rotation(rl.builtin_space("circle", count=24), steps=2), rotations),
                   (identity(twin), trivial)):
        with pytest.raises(ValueError, match="operator and group act on different spaces"):
            conjugate(g, bgn)


def test_group_norm_word_sup_equals_the_direct_formula(groups):
    # also 200 swaps, whose 20,101 words are built here and freed after
    for name, group in {**groups, "200 swaps": None}.items():
        if group is None:
            group = onepoint_swap_group(rl.builtin_space("onepoint01N", n_max=200), word_cap=2)
        bgn = m_weight(group)
        forward, weight = group.word_table()
        for x in _norm_inputs(group.space.n, 41):
            direct = np.max(np.abs(weight * x[forward]))
            assert np.float64(group_norm(x, bgn).sup_over_words).tobytes() == direct.tobytes(), name
        x[3] = np.nan  # a NaN in x is the sup, as it is the direct formula's
        assert math.isnan(np.max(np.abs(weight * x[forward])))
        assert math.isnan(group_norm(x, bgn).sup_over_words), name


def test_group_norm_reads_no_word_table(groups, monkeypatch):
    bgns = {name: m_weight(group) for name, group in groups.items()}
    expected = {name: group_norm(np.linspace(-1, 1, g.space.n), bgns[name]) for name, g in groups.items()}

    def refuse(self, cap=None):
        raise AssertionError("group_norm read the word table")

    monkeypatch.setattr(GroupSpec, "word_table", refuse)
    for name, group in groups.items():
        assert group_norm(np.linspace(-1, 1, group.space.n), bgns[name]) == expected[name], name


def test_cap_trace_is_the_minimum_of_each_cap_prefix(groups):
    # doubling weights make every cap's minimum differ; each cap's words
    # are a fresh group's of the same generators at that cap, where the
    # expander gives only its first: its map is many-to-one, so the inverse
    # of its inverse is a third map
    seg = rl.builtin_space("line", step=0.25, window=(0, 1))
    doubling = GroupSpec((multiplication(seg, 2.0),), word_cap=3)
    for name, group in {**groups, "doubling": doubling}.items():
        gens = group.generators[:1] if name == "expander" else group.generators
        bgn = m_weight(group)
        prefix = [(c, float(GroupSpec(gens, word_cap=c).word_table()[1].min())) for c in range(1, group.word_cap + 1)]
        assert bgn.cap_trace == prefix, name
    assert [v for _, v in m_weight(doubling).cap_trace] == [0.5, 0.25, 0.125]


@pytest.mark.parametrize("shape", [(1,), (50,), (102,), (101, 1), (1, 101), ()],
                         ids=["1", "50", "102", "101x1", "1x101", "scalar"])
def test_group_norm_refuses_a_function_of_another_shape(swap_group, shape):
    # 101 points: a length-1 x would broadcast against the per-point columns
    bgn = m_weight(swap_group)
    with pytest.raises(ValueError, match=rf"function of shape {re.escape(str(shape))} for 101 points"):
        group_norm(np.ones(shape), bgn)


def test_group_norm_agrees_where_both_formulas_read_inf(onepoint_space):
    # inf - inf is NaN, so equal infinite values agree before the
    # tolerance test; a NaN in x still never agrees
    bgn = m_weight(onepoint_swap_group(onepoint_space, word_cap=2, count=5))
    for entries in ({0: math.inf}, {0: -math.inf}, {2: math.inf, 51: -math.inf}):
        x = np.linspace(-1, 1, onepoint_space.n)
        for i, v in entries.items():
            x[i] = v
        got = group_norm(x, bgn)
        assert got.value == got.sup_over_words == math.inf and got.agree, entries
    x[3] = math.nan
    assert not group_norm(x, bgn).agree


def test_conjugate_refuses_a_clamped_translation():
    # the shift clamps at the window's edge: 10 of the 81 points have no
    # preimage, so the indicator of x-2 has norm 0 after the map, and no
    # point of the extremal weight is flagged to excuse it
    line = rl.builtin_space("line", step=0.05, window=(-2, 2))
    g = line_translation(line, 0.5)
    bgn = m_weight(GroupSpec((g,), word_cap=2))
    assert bgn.flagged == [] and line.n == 81
    assert np.count_nonzero(np.bincount(g.forward, minlength=line.n) == 0) == 10
    e = np.zeros(line.n)
    e[line.index("x-2")] = 1.0
    assert np.max(np.abs(g.apply(e))) == 0.0
    with pytest.raises(AssertionError, match=re.escape("conjugated operator is not a sup-norm isometry (1.0)")):
        conjugate(g, bgn)


def test_conjugate_of_a_non_isometry_only_warns_where_the_weight_is_flagged(onepoint_space, swap_group, caplog):
    bgn = m_weight(swap_group)
    assert bgn.flagged == ["inf"]
    with caplog.at_level("WARNING", logger="renormlab.bounded"):
        out = conjugate(multiplication(onepoint_space, 2.0), bgn)
    assert np.all(out.weight == 2.0)
    assert "conjugated operator deviates from isometry by 1;" in caplog.text


def test_swaps_and_rotations_conjugate_to_exact_isometries(swap_group):
    circ = rl.builtin_space("circle", count=24)
    rotations = GroupSpec((circle_rotation(circ, steps=2),), word_cap=4)
    for group in (swap_group, rotations):
        bgn = m_weight(group)
        # m_weight's column s is the helper's, over the whole word table
        assert np.array_equal(bgn.s, _image_weight(*group.word_table()))
        for g in group.generators:
            cg = conjugate(g, bgn)
            assert np.max(np.abs(_image_weight(cg.forward, cg.weight) - 1.0)) == 0.0, g.label


def _m_weight_table(gens, cap):
    """m, s and the cap trace of ``GroupSpec(gens, word_cap=cap)`` as
    m_weight read them from its word table: the column minima, the largest
    weight into each point, and the running minimum of the row minima cut
    after each cap's words.  The words up to cap c are the table's first
    rows, as many as a fresh ``GroupSpec(gens, word_cap=c)`` holds."""
    tables = [GroupSpec(gens, word_cap=c).word_table() for c in range(1, cap + 1)]
    forward, weights = tables[-1]
    prefix_min = np.minimum.accumulate(weights.min(axis=1))
    trace = [(c, float(prefix_min[len(f) - 1])) for c, (f, _) in enumerate(tables, 1)]
    return weights.min(axis=0), _image_weight(forward, weights), trace


def _weighted_permutations():
    """A rotation of a 12-point circle and a reflection, with non-dyadic
    weights given point by point (no form, so no word is re-snapped)."""
    circ = rl.builtin_space("circle", count=12)
    idx = np.arange(circ.n)

    def perm(forward, weight, label):
        backward = np.empty_like(forward)
        backward[forward] = idx
        return WeightedComposition(circ, weight, forward, backward, label=label)

    return (perm((idx + 1) % circ.n, 0.7 + 0.1 * (idx % 3), "r"),
            perm(idx[::-1].copy(), np.where(idx < 4, 1.3, 0.9), "f"))


def _oracle_cases():
    """(name, a maker of the generators as given, cap).  onepoint_swaps run
    at n_max 6 and 50 with caps 1-3, and at 200 with caps 1-2: cap 3 there
    is 1,333,501 words, a table of about 12 GB.  The expander's map is
    many-to-one, so the inverse of its inverse is a third map; its closed
    generators, given again, close to themselves."""
    for n_max, caps in ((6, (1, 2, 3)), (50, (1, 2, 3)), (200, (1, 2))):
        for cap in caps:
            yield (f"swaps n_max {n_max} cap {cap}",
                   lambda n_max=n_max: onepoint_swap_group(rl.builtin_space("onepoint01N", n_max=n_max)).generators,
                   cap)
    yield "expander cap 4", lambda: _single_generator_group(word_cap=1).generators, 4
    yield "circle rotations", lambda: (circle_rotation(rl.builtin_space("circle", count=24), steps=2),), 4


@pytest.mark.parametrize("name,gens,cap", list(_oracle_cases()), ids=[name for name, *_ in _oracle_cases()])
def test_m_weight_is_the_word_table_path_bitwise(name, gens, cap):
    gens = gens()
    bgn = m_weight(GroupSpec(gens, word_cap=cap))
    m, s, trace = _m_weight_table(gens, cap)
    assert bgn.m.tobytes() == m.tobytes() and bgn.s.tobytes() == s.tobytes(), name
    assert bgn.cap_trace == trace and bgn.C_G == float(s.max()), name


@pytest.mark.parametrize("cap", [4, 6])
def test_m_weight_is_the_word_table_path_bitwise_on_rot12(rotation_group, cap):
    gens = rotation_group.generators[:1]
    bgn = m_weight(GroupSpec(gens, word_cap=cap))
    m, s, trace = _m_weight_table(gens, cap)
    assert bgn.m.tobytes() == m.tobytes() and bgn.s.tobytes() == s.tobytes()
    assert bgn.cap_trace == trace


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_m_weight_on_non_dyadic_weights_keeps_the_association_rule(cap):
    # M multiplies a word's first letter first and the table its last
    # letter last, so m and the trace may differ by an ulp per letter, and
    # s by the table's 12-decimal dedupe
    bgn = m_weight(GroupSpec(_weighted_permutations(), word_cap=cap))
    m, s, trace = _m_weight_table(_weighted_permutations(), cap)
    tol = 2 * cap * np.finfo(float).eps
    assert np.all(np.abs(bgn.m - m) <= 1e-12 + tol * m)
    assert np.all(np.abs(bgn.s - s) <= 1e-12 + tol * s)
    assert [c for c, _ in bgn.cap_trace] == [c for c, _ in trace] == list(range(1, cap + 1))
    assert all(abs(a - b) <= 1e-12 + tol * b for (_, a), (_, b) in zip(bgn.cap_trace, trace))
    # two letters associate one way only; from three on the rule is needed
    assert (bgn.m.tobytes() == m.tobytes()) == (cap == 2)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_m_weight_refuses_a_word_weight_that_under_or_overflows(onepoint_space, scale):
    # level 2 squares the weights: m underflows to 0 and s overflows to inf,
    # where the word table refuses the word
    group = GroupSpec((multiplication(onepoint_space, scale),), word_cap=2)
    with pytest.raises(ValueError, match=r"^weight 0\.0 at point '\(0,1\)': must be positive and finite$"):
        m_weight(group)
    with pytest.raises(ValueError, match="must be positive and finite"):
        group.word_table()
    assert m_weight(GroupSpec(group.generators, word_cap=1)).C_G == max(scale, 1 / scale)


def test_m_weight_and_the_bounded_suite_build_no_word_table(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a word table was built")

    monkeypatch.setattr(operators, "_next_level", refuse)
    for _, gens, cap in _oracle_cases():
        m_weight(GroupSpec(gens(), word_cap=cap))
    m_weight(GroupSpec(_weighted_permutations(), word_cap=4))
    scenario = {"space": {"builtin": "onepoint01N", "params": {"n_max": 50}},
                "group": {"builtin": "onepoint_swaps", "word_cap": 3}, "tasks": ["bounded-suite"]}
    assert cli.run(scenario, tmp_path / "out") == 0
    capsys.readouterr()
    assert cli.main(["eval", "--space", "onepoint01N", "--bounded-group", "onepoint_swaps", "--mg-report"]) == 0
    assert '"C_G": 2.0' in capsys.readouterr().out
