import dataclasses
import json
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renormlab as rl
from renormlab import cli, operators
from renormlab import space as space_mod
from renormlab.space import (
    _SYMMETRY_TILE,
    CompactSet,
    _Line,
    _Onepoint01N,
    _Remark25,
    builtin_space,
    product,
    validate_metric,
)


def test_fatten_rejects_empty():
    sp = builtin_space("line", step=0.5, window=(0, 2))
    with pytest.raises(ValueError, match="empty compact set"):
        sp.compact([], "nothing")


def test_product_max_metric():
    a = builtin_space("line", step=1.0, window=(0, 1))  # 2 points at distance 1
    b = builtin_space("line", step=0.5, window=(0, 1))  # 3-point grid
    prod = product(a, b)
    assert prod.n == 6
    for ia in range(a.n):
        for ib in range(b.n):
            for ja in range(a.n):
                for jb in range(b.n):
                    got = prod.metric.pair(ia * b.n + ib, ja * b.n + jb)
                    assert got == pytest.approx(max(a.metric.pair(ia, ja), b.metric.pair(ib, jb)))


def test_product_with_singleton_is_isometric():
    a = builtin_space("circle", count=8)
    single = rl.SampledSpace(
        name="pt", points=("p",), dmat=np.zeros((1, 1)),
        exhaustion=(CompactSet((0,), "pt"),), resolution=0.1,
        isolated=np.array([False]), metric_form={"form": "matrix"},
    )
    prod = product(a, single)
    assert prod.n == a.n
    assert np.allclose(prod.dmat, a.dmat)


def test_factors_must_carry_the_product_tags_parts():
    a, b = builtin_space("circle", count=4), builtin_space("line", step=0.5, window=(0, 1))
    prod = product(a, b)
    assert prod.factors == (a, b)
    refused = "factor spaces must carry the product tag's 'a' and 'b'"
    for changes in ({"factors": (b, a)}, {"factors": (a,)}, {"factors": (a, b, b)},
                    {"metric_form": {"form": "matrix"}}):  # a new tag keeps the old factors
        with pytest.raises(ValueError, match=refused):
            dataclasses.replace(prod, **changes)
    with pytest.raises(ValueError, match=refused):
        dataclasses.replace(a, factors=(a, a))  # not a product tag
    twin = dataclasses.replace(prod, metric_form={"form": "matrix"}, factors=())
    assert twin.factors == () and twin.dmat.tobytes() == prod.dmat.tobytes()


def test_same_space_compares_points_tags_and_matrix_bytes():
    # equal points and tags, and for a matrix-form space equal bytes: the
    # one rule by which operators, groups and products compare spaces
    circle, line = builtin_space("circle", count=12), builtin_space("line", step=0.5, window=(0, 1))
    twin = _matrix_twin(line)
    assert space_mod.same_space(circle, builtin_space("circle", count=12))
    assert space_mod.same_space(twin, _matrix_twin(builtin_space("line", step=0.5, window=(0, 1))))
    assert space_mod.same_space(product(twin, circle), product(_matrix_twin(line), builtin_space("circle", count=12)))
    renamed = dataclasses.replace(circle, points=tuple(f"p{i}" for i in range(12)), dmat=None)
    stretched = dataclasses.replace(twin, dmat=2 * twin.dmat)
    for a, b in ((circle, builtin_space("circle", count=24)), (line, twin), (circle, renamed),
                 (twin, stretched), (product(twin, circle), product(stretched, circle))):
        assert not space_mod.same_space(a, b) and not space_mod.same_space(b, a)
    plane = builtin_space("plane", step=1.0, window=(0, 2))
    assert plane.factors[0] is plane.factors[1]  # equal factor tags share one space


def test_product_circle_interval_audit():
    circ = builtin_space("circle", count=64)
    seg = builtin_space("line", step=1 / 15, window=(0, 1))
    prod = product(circ, seg)
    assert prod.n == 64 * 16
    assert prod.top_exhaustion.members.tolist() == list(range(prod.n))
    assert prod.resolution == max(circ.resolution, seg.resolution)


def test_builtin_remark25_small():
    sp = builtin_space("remark25", n_max=5)
    assert len(sp.points) == 6 + 25
    d = sp.metric.pair(sp.index("(0,2)"), sp.index("(0,4)"))
    assert d == pytest.approx(2.0 ** -2)
    # any pair involving first coordinate >= 1 sits at distance 1
    assert sp.metric.pair(sp.index("(3,2)"), sp.index("(0,4)")) == 1.0
    assert sp.metric.pair(sp.index("(3,2)"), sp.index("(1,2)")) == 1.0
    assert sp.metric.pair(sp.index("(0,3)"), sp.index("(0,inf)")) == pytest.approx(2.0 ** -3)


def test_builtin_onepoint_small():
    sp = builtin_space("onepoint01N", n_max=4)
    assert len(sp.points) == 9
    assert sp.metric.pair(sp.index("(0,2)"), sp.index("(1,3)")) == pytest.approx(2.0 ** -2)
    assert sp.metric.pair(sp.index("(1,3)"), sp.index("inf")) == pytest.approx(2.0 ** -3)
    assert not sp.isolated[sp.index("inf")]
    assert sp.isolated[sp.index("(0,2)")]


def test_builtin_line_window():
    sp = builtin_space("line", step=0.01, window=(-10, 10))
    assert sp.n == 2001
    labels = [k.label for k in sp.exhaustion]
    assert labels[0] == "[-1,1]"
    assert sp.exhaustion[-1].members.tolist() == list(range(sp.n))


def test_duplicate_point_ids_are_named_with_two_positions():
    # the .6g ids of a step far below the window's magnitude collide
    with pytest.raises(ValueError, match=r"duplicate point id 'x\+1' at positions 0 and 49"):
        builtin_space("line", step=1e-7, window=[1, 1.00001])
    sp = builtin_space("line", step=0.5, window=(0, 1))
    with pytest.raises(ValueError, match="duplicate point id 'b' at positions 1 and 2"):
        dataclasses.replace(sp, points=("a", "b", "b"), metric_form={"form": "matrix"}, dmat=sp.dmat)


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_space("klein_bottle")


def _matrix_twin(sp):
    """The space with its closed-form tag replaced by the matrix form, so
    that validate_metric examines triples."""
    return dataclasses.replace(sp, metric_form={"form": "matrix"}, factors=())


@pytest.mark.parametrize("name,params", [
    ("line", {"step": 0.05, "window": (-2, 2)}),
    ("circle", {"count": 48}),
    ("remark25", {"n_max": 10}),
    ("onepoint01N", {"n_max": 12}),
    ("circle_x_interval", {"count": 16, "levels": 8}),
])
def test_metric_axioms_exhaustive(name, params):
    sp = _matrix_twin(builtin_space(name, **params))
    report = validate_metric(sp)
    assert report["mode"] == "exhaustive"
    assert report["ok"], report


def test_metric_axioms_random_mode(remark_space):
    report = validate_metric(_matrix_twin(remark_space))  # 2,551 points
    assert report["mode"] == "random"
    assert report["triples_checked"] == 100_000
    assert report["ok"]


_TEST_SIZE = [
    ("line", {"step": 0.05, "window": (-2, 2)}),
    ("circle", {"count": 48}),
    ("plane", {"step": 0.5, "window": (-2, 2)}),
    ("remark25", {"n_max": 10}),
    ("onepoint01N", {"n_max": 12}),
    ("circle_x_interval", {"count": 16, "levels": 8}),
]


def _perturbed(sp, i, j, delta):
    """The matrix twin of the space with d(i, j) and d(j, i) moved by delta."""
    d = sp.dmat.copy()
    d[i, j] += delta
    d[j, i] = d[i, j]
    return dataclasses.replace(sp, dmat=d, metric_form={"form": "matrix"}, factors=())


@pytest.mark.parametrize("name,params", _TEST_SIZE)
def test_closed_form_certificate_agrees_with_exhaustive(name, params):
    sp = builtin_space(name, **params)
    cert = validate_metric(sp)
    full = validate_metric(_matrix_twin(sp))
    assert cert["mode"] == "closed-form" and full["mode"] == "exhaustive"
    assert cert["formula"] == sp.metric_form and cert["formula_defect"] == 0.0
    assert cert["triples_checked"] == 0 and "worst_triple" not in cert
    assert cert["ok"] == full["ok"]
    assert full["worst_triangle_gap"] <= cert["triangle_gap_bound"]
    exact = name in ("remark25", "onepoint01N")  # dyadic distances round nowhere
    assert cert["triangle_gap_bound"] == (0.0 if exact else 8 * np.finfo(float).eps * sp.dmat.max())


@pytest.mark.parametrize("name,params", _TEST_SIZE)
def test_closed_form_tag_refuses_a_given_matrix(name, params):
    sp = builtin_space(name, **params)
    with pytest.raises(ValueError, match="builds its own distance matrix; pass dmat=None"):
        dataclasses.replace(sp, dmat=sp.dmat)


def test_closed_form_tag_refuses_a_sample_of_another_size():
    sp = builtin_space("line", step=1.0, window=(0, 4))
    with pytest.raises(ValueError, match="metric tag has 11 points, the sample 5"):
        dataclasses.replace(sp, dmat=None, metric_form={"form": "line", "step": 0.1, "window": [0.0, 1.0]})


@pytest.mark.parametrize("sp", [builtin_space("line", step=1.0, window=(0, 4)),
                                _matrix_twin(builtin_space("circle", count=6))])
def test_space_is_immutable(sp):
    with pytest.raises(dataclasses.FrozenInstanceError):
        sp.dmat = sp.dmat.copy()
    with pytest.raises(ValueError, match="read-only"):
        sp.dmat[0, 1] = 7.0
    assert sp.dmat[0, 1] != 7.0


def test_space_keeps_its_own_copy_of_a_given_matrix():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    sp = _matrix_space(d)
    d[0, 1] = d[1, 0] = 5.0
    assert sp.dmat[0, 1] == 1.0 and not sp.dmat.flags.writeable


@pytest.mark.parametrize("sp,i,j", [
    (builtin_space("line", step=1.0, window=(0, 4)), 0, 4),
    (builtin_space("plane", step=1.0, window=(0, 2)), 0, 8),
])
@pytest.mark.parametrize("delta,still_metric", [(0.5, False), (-0.5, True)])
def test_closed_form_rejects_perturbed_tagged_matrix(sp, i, j, delta, still_metric):
    # the tag refuses any given matrix; the perturbed matrix's twin gets the
    # exhaustive check
    bad = _perturbed(sp, i, j, delta)
    with pytest.raises(ValueError, match="builds its own distance matrix"):
        dataclasses.replace(sp, dmat=bad.dmat)
    full = validate_metric(bad)
    assert full["mode"] == "exhaustive" and full["triangle_ok"] == full["ok"] == still_metric
    assert abs(bad.dmat[i, j] - sp.dmat[i, j]) == pytest.approx(abs(delta))


_SMALL = [builtin_space("line", step=1.0, window=(0, 6)), builtin_space("plane", step=1.0, window=(0, 2)),
          product(builtin_space("circle", count=4), builtin_space("line", step=0.5, window=(0, 1)))]


@given(which=st.integers(0, len(_SMALL) - 1), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.0, 1e-15, 1e-12, 1e-10, 3e-10, 1e-9, 1e-6, 0.1, 0.4]))
@settings(max_examples=60, deadline=None)
def test_closed_form_ok_implies_exhaustive_triangle_ok(which, seed, scale):
    # a matrix within scale of the formula's has triangle gaps at most 3
    # scale above the certificate's bound on the formula itself
    sp = _SMALL[which]
    noise = np.random.default_rng(seed).uniform(-scale, scale, size=sp.dmat.shape)
    noise = np.triu(noise, 1)
    bad = dataclasses.replace(sp, dmat=sp.dmat + noise + noise.T, metric_form={"form": "matrix"}, factors=())
    cert = validate_metric(sp)
    full = validate_metric(bad)
    assert full["worst_triangle_gap"] <= 3 * scale + cert["triangle_gap_bound"]
    if 3 * scale + cert["triangle_gap_bound"] <= 1e-9:
        assert full["triangle_ok"]


@pytest.mark.parametrize("form", [
    pytest.param({"form": "matrix"}, id="form0"),
    pytest.param({"form": "product", "a": {"form": "circle", "count": 4}, "b": {"form": "matrix"}},
                 id="form2"),
])
def test_closed_form_falls_back_when_the_formula_does_not_fit(form):
    sp = dataclasses.replace(builtin_space("line", step=1.0, window=(0, 4)), metric_form=form)
    report = validate_metric(sp)
    assert report["mode"] == "exhaustive" and report["ok"]
    assert report["triples_checked"] == sp.n ** 3


def test_one_run_builds_no_closed_form_matrix(tmp_path):
    # the constructor, base-point selection, the slot table, validate_metric
    # and the round-trip checks compute single rows, balls and entries from
    # the coordinates; no call computes the (81, 81) matrix
    scenario = {"space": {"builtin": "line", "params": {"step": 0.05, "window": [-2, 2]}},
                "depth": 4, "tasks": ["build-config"]}
    with mock.patch.object(_Line, "_pair", autospec=True, side_effect=_Line._pair) as spy:
        assert cli.run(scenario, tmp_path) == 0
    shapes = [np.broadcast_shapes(np.shape(c.args[1]), np.shape(c.args[2])) for c in spy.call_args_list]
    assert all(np.prod(s) <= 81 for s in shapes)  # one row at most
    report = json.loads((tmp_path / "build-config.json").read_text())["metric_report"]
    assert report["mode"] == "closed-form" and report["ok"]


def test_exhaustion_validation():
    with pytest.raises(ValueError, match="nested"):
        rl.SampledSpace(
            name="bad", points=("a", "b"),
            dmat=np.array([[0.0, 1.0], [1.0, 0.0]]),
            exhaustion=(CompactSet((1,), "x"), CompactSet((0,), "y")),
            resolution=0.5, isolated=np.zeros(2, dtype=bool),
            metric_form={"form": "matrix"},
        )
    with pytest.raises(ValueError, match="cover"):
        rl.SampledSpace(
            name="bad", points=("a", "b"),
            dmat=np.array([[0.0, 1.0], [1.0, 0.0]]),
            exhaustion=(CompactSet((0,), "x"),),
            resolution=0.5, isolated=np.zeros(2, dtype=bool),
            metric_form={"form": "matrix"},
        )


def _exhaustion_refusal(karrs, n):
    """The constructor's exhaustion checks one compact at a time, as first
    written: compact k's nesting in the one before, then its range; then
    the cover.  The message of the first that fails, or None."""
    prev = np.empty(0, dtype=np.intp)
    for cur in karrs:
        if not np.isin(prev, cur, assume_unique=True).all():
            return "exhaustion sets are not nested"
        if cur[-1] >= n or cur[0] < 0:
            return "exhaustion member out of range"
        prev = cur
    return None if prev.size == n else "exhaustion does not cover the sample"


@st.composite
def _exhaustions(draw, n=6):
    """Lists of compacts of an n-point space: a nested chain, a compact
    of which may lose a member or gain one outside the space."""
    order = draw(st.permutations(range(n)))
    sets = [set(order[:k]) for k in sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=5)))]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(sets) - 1))
        change = draw(st.sampled_from(["drop", "above", "below"]))
        if change == "drop" and len(sets[k]) > 1:
            sets[k].discard(draw(st.sampled_from(sorted(sets[k]))))
        elif change == "above":
            sets[k].add(n + draw(st.integers(0, 2)))
        elif change == "below":
            sets[k].add(-1 - draw(st.integers(0, 2)))
    return [np.array(sorted(c), dtype=np.intp) for c in sets]


def _grid_space(n, exhaustion):
    idx = np.arange(n, dtype=float)
    return rl.SampledSpace(name="grid", points=tuple(f"p{i}" for i in range(n)),
                           dmat=np.abs(idx[:, None] - idx), exhaustion=exhaustion, resolution=0.5,
                           isolated=np.zeros(n, dtype=bool), metric_form={"form": "matrix"})


@given(_exhaustions())
@settings(max_examples=300, deadline=None)
def test_exhaustion_refusals_keep_their_messages_and_order(karrs):
    # one walk over the compacts (space._nested_runs) refuses what the
    # compact-at-a-time checks refused, with the first of their messages
    expected = _exhaustion_refusal(karrs, 6)
    exhaustion = tuple(CompactSet(c, f"K{k}") for k, c in enumerate(karrs))
    if expected is None:
        assert _grid_space(6, exhaustion).n == 6
    else:
        with pytest.raises(ValueError, match=f"^{expected}$"):
            _grid_space(6, exhaustion)


@pytest.mark.parametrize("karrs, message", [
    # not nested at compact 1, out of range at compact 2
    ([[0, 1], [0, 2], [0, 1, 2, 9]], "exhaustion sets are not nested"),
    # out of range at compact 1, not nested at compact 2
    ([[0, 1], [0, 1, 9], [0, 2]], "exhaustion member out of range"),
    # both at compact 1: nesting is checked first
    ([[0, 1], [0, 2, 9]], "exhaustion sets are not nested"),
    # out of range below 0, and nested in range
    ([[0, 1], [-1, 0, 1, 2]], "exhaustion member out of range"),
    ([[0, 1], [0, 1, 2]], "exhaustion does not cover the sample"),
])
def test_exhaustion_refusals_fire_in_the_checks_order(karrs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _grid_space(4, tuple(CompactSet(c) for c in karrs))


@given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=8), min_size=1, max_size=7))
@settings(max_examples=200, deadline=None)
def test_nested_runs_are_the_maximal_runs_with_their_entries(sets):
    karrs = [np.array(sorted(c), dtype=np.intp) for c in sets]
    starts = [0] + [k for k in range(1, len(sets)) if not sets[k - 1] <= sets[k]]
    runs = list(zip(starts, starts[1:] + [len(sets)]))[::-1]
    got = []
    for first, end, enter in space_mod._nested_runs(karrs, 8):
        got.append((first, end))
        for x in range(8):
            if x in sets[end - 1]:
                assert enter[x] == min(k for k in range(first, end) if x in sets[k])
            else:
                assert enter[x] >= end
    assert got == runs


@pytest.mark.parametrize("n_max", [3, 7, 50])
def test_remark25_point_ids_are_the_g_formatted_coordinates(n_max):
    metric = _Remark25({"form": "remark25", "n_max": n_max})
    expected = tuple(f"({a:g},{b:g})" for a, b in zip(metric.first.tolist(), metric.level.tolist()))
    assert metric._layout()["points"] == expected


def test_space_rejects_non_finite_distances():
    for value in (np.inf, np.nan):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, value], [2.0, value, 0.0]])
        with pytest.raises(ValueError, match=f"non-finite distance {value} between points 'b' and 'c'"):
            rl.SampledSpace(
                name="bad", points=("a", "b", "c"), dmat=d,
                exhaustion=(CompactSet((0, 1, 2), "all"),),
                resolution=0.5, isolated=np.zeros(3, dtype=bool),
                metric_form={"form": "matrix"},
            )


def _matrix_space(d):
    n = len(d)
    return rl.SampledSpace(
        name="m", points=tuple(f"p{i}" for i in range(n)), dmat=d,
        exhaustion=(CompactSet(tuple(range(n)), "all"),),
        resolution=0.5, isolated=np.zeros(n, dtype=bool), metric_form={"form": "matrix"},
    )


@pytest.mark.parametrize("scale,skew,accepted", [
    (1.0, 1e-13, True),     # within atol
    (0.01, 1e-6, False),    # beyond atol and rtol * |d|
    (1e3, 1e-6, True),      # beyond atol, within rtol * |d|
    (1e3, 1e-1, False),
])
def test_symmetry_rule_tolerates_float_dust_only(scale, skew, accepted):
    d = scale * np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    d[0, 2] += skew
    if accepted:
        assert validate_metric(_matrix_space(d))["symmetric"] is True
    else:
        with pytest.raises(ValueError, match="metric not symmetric on the sample"):
            _matrix_space(d)


def test_an_accepted_skew_is_averaged_and_the_rest_keeps_its_bits():
    # d(0, 1) and d(1, 0) differ by 5e-6, within rtol 1e-5 of 1.0 though
    # far beyond atol 1e-12: both become their mean, the diagonal dust 0,
    # and every symmetric pair keeps its float
    d = np.array([[1e-13, 1.0, 0.1 + 0.2], [1.000005, 0.0, 1.5], [0.1 + 0.2, 1.5, -1e-12]])
    sp = _matrix_space(d.copy())
    assert validate_metric(sp)["symmetric"] is True
    assert sp.dmat[0, 1] == sp.dmat[1, 0] == 1.0 / 2 + 1.000005 / 2
    assert sp.dmat[0, 2] == sp.dmat[2, 0] == 0.1 + 0.2 and sp.dmat[1, 2] == 1.5
    assert np.diagonal(sp.dmat).tolist() == [0.0, 0.0, 0.0]
    assert d[1, 0] == 1.000005 and not sp.dmat.flags.writeable  # the caller's array is not touched


# closed-form spaces whose matrices the property test below dusts
_CLEAN = [builtin_space("line", step=0.5, window=(-3, 3)), builtin_space("circle", count=12),
          builtin_space("remark25", n_max=4), builtin_space("onepoint01N", n_max=5),
          builtin_space("circle_x_interval", count=6, levels=3)]


@st.composite
def _dusty_matrices(draw):
    """A closed-form space, its matrix given diagonal dust in [0, 1e-12]
    and an accepted skew above the diagonal (ulps, an absolute shift below
    atol, or a relative one below rtol) at some entries, and the matrix
    that dust normalizes to: each skewed pair's mean, a zero diagonal."""
    sp = draw(st.sampled_from(_CLEAN))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    d, n = sp.dmat.copy(), sp.n
    if draw(st.booleans()):
        np.fill_diagonal(d, rng.choice([0.0, 1e-13, 1e-12, rng.uniform(0, 1e-12)], size=n))
    rows, cols = np.triu_indices(n, 1)
    keep = rng.random(rows.size) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    upper = rows[keep], cols[keep]
    skew = draw(st.sampled_from(["ulp", "absolute", "relative"]))
    if skew == "ulp":
        d[upper] = np.nextafter(d[upper], np.inf)
    elif skew == "absolute":
        d[upper] += rng.uniform(-4e-13, 4e-13, upper[0].size)
    else:
        d[upper] *= 1 + rng.uniform(-4e-6, 4e-6, upper[0].size)
    exact = np.where(d != d.T, d / 2 + d.T / 2, d)
    np.fill_diagonal(exact, 0.0)
    return sp, d, exact


def _readers(space):
    """What selection, the config, certify, the round trips and the SOT
    check read off a space: each as a comparable value."""
    group = rl.GroupSpec.trivial(space)
    cfg = rl.build_config(space, group)
    rng = np.random.default_rng(space.n)
    perms = [rng.permutation(space.n) for _ in range(3)]
    stages = [rl.WeightedComposition(space, np.ones(space.n), p, np.argsort(p)) for p in perms]
    scrambled = rng.integers(0, space.n, size=space.n)
    return (rl.select_dense_points(space, group), cfg.slot_base.tobytes(), cfg.slot_gamma.tobytes(),
            cfg.slot_dist.tobytes(), cfg.coverage_defect, rl.certify(rl.identity(space), cfg),
            operators._roundtrip_defects(space, scrambled, np.arange(space.n)),
            operators.check_sot_convergence(stages, rl.identity(space), list(space.exhaustion), 1e-13))


@given(_dusty_matrices())
@settings(max_examples=40, deadline=None)
def test_a_dusty_matrix_is_read_as_the_exact_metric_it_stands_for(case):
    sp, dusty, exact = case
    a, b = _matrix_space_of(sp, dusty), _matrix_space_of(sp, exact)
    assert space_mod.same_space(a, b) and a.dmat.tobytes() == b.dmat.tobytes() == exact.tobytes()
    assert (a.dmat == a.dmat.T).all() and not np.diagonal(a.dmat).any()
    if (dusty == exact).all():  # an exact matrix keeps every bit
        assert a.dmat.tobytes() == dusty.tobytes()
    assert _readers(a) == _readers(b)


def _matrix_space_of(sp, d):
    return dataclasses.replace(sp, dmat=d, metric_form={"form": "matrix"}, factors=())


def test_space_rejects_zero_off_diagonal_only():
    with pytest.raises(ValueError, match="distinct sample points at zero distance"):
        _matrix_space(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    assert _matrix_space(np.zeros((1, 1))).n == 1


def test_index_names_unknown_id_and_space():
    sp = builtin_space("circle", count=12)
    assert sp.index("c003") == 3
    with pytest.raises(ValueError, match="unknown point id 'c999' in space 'circle'"):
        sp.index("c999")


def _dyadic_dist_reference(level, first=None):
    """The four-pass builder the one-pass kernel replaced: min-outer, power,
    or-outer and a masked write."""
    d = np.minimum.outer(level, level)
    np.power(2.0, np.negative(d, out=d), out=d)
    if first is not None:
        far = first >= 1
        d[np.logical_or.outer(far, far)] = 1.0
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.parametrize("n_max", [3, 4, 17, 50])
def test_dyadic_kernel_matches_the_four_pass_builder(n_max):
    metric = _Remark25({"form": "remark25", "n_max": n_max})
    expected = _dyadic_dist_reference(metric.level, metric.first)
    idx, n = np.arange(metric.n), metric.n
    assert metric._pair(idx[:, None], idx, np.empty((n, n))).tobytes() == expected.tobytes()
    assert builtin_space("remark25", n_max=n_max).dmat.tobytes() == expected.tobytes()
    expected = _dyadic_dist_reference(_Onepoint01N({"form": "onepoint01N", "n_max": n_max}).level)
    assert builtin_space("onepoint01N", n_max=n_max).dmat.tobytes() == expected.tobytes()


def _one_way_close_pair():
    # a pair (a, b) with allclose(a, b) but not allclose(b, a): the
    # tolerance scales with the second argument
    a, b = 1.0, 1.0 + 1.000005e-5
    assert np.isclose(a, b, atol=1e-12) and not np.isclose(b, a, atol=1e-12)
    return a, b


_T = _SYMMETRY_TILE


@pytest.mark.parametrize("n", [1, 5, _T - 1, _T, _T + 1, 2 * _T + 37])
def test_tiled_symmetry_matches_allclose(n):
    # the constructor refuses exactly the matrices that are not allclose to
    # their transpose at atol 1e-12, across the real tile edges
    rng = np.random.default_rng(n)
    x = rng.random((n, n)) + 1.0
    sym = x + x.T
    np.fill_diagonal(sym, 0.0)
    edges = sorted({(0, n - 1), (n - 1, 0), (min(_T - 1, n - 1), min(_T, n - 1)),
                    (min(_T, n - 1), min(_T - 1, n - 1)), (min(1, n - 1), min(2, n - 1))})
    cases = [sym]
    for i, j in edges:  # tile edges, the last partial tile and the diagonal tile
        if i == j:
            continue
        for delta in (1e-13, 1e-6, 1.0):
            d = sym.copy()
            d[i, j] += delta
            cases.append(d)
        d = sym.copy()
        d[i, j], d[j, i] = _one_way_close_pair()
        cases.append(d)
        d = sym.copy()
        d[j, i], d[i, j] = _one_way_close_pair()
        cases.append(d)
    verdicts = set()
    for d in cases:
        expected = bool(np.allclose(d, d.T, atol=1e-12))
        if expected:
            assert _matrix_space(d).n == n
        else:
            with pytest.raises(ValueError, match="metric not symmetric on the sample"):
                _matrix_space(d)
        verdicts.add(expected)
    assert verdicts == ({True} if n == 1 else {True, False})


def test_constructor_refuses_a_nan_at_the_tile_edges():
    # the NaN that a write past the constructor once planted; writes are
    # now refused, so the constructor's walk is the one place to see it
    n = _T + 9
    x = np.random.default_rng(1).random((n, n)) + 1.0
    d = np.triu(x, 1) + np.triu(x, 1).T
    for i, j in ((0, n - 1), (_T - 1, _T), (n - 1, n - 1), (3, 3)):
        bad = d.copy()
        bad[i, j] = np.nan
        with pytest.raises(ValueError, match=f"non-finite distance nan between points 'p{i}' and 'p{j}'"):
            _matrix_space(bad)
        sp = _matrix_space(d)
        with pytest.raises(ValueError, match="read-only"):
            sp.dmat[i, j] = np.nan


def _constructor_checks_reference(d, points):
    # the full-matrix passes the tile walk replaced, in their order
    if not np.isfinite(d).all():
        i, j = np.argwhere(~np.isfinite(d))[0]
        return f"non-finite distance {d[i, j]} between points {points[i]!r} and {points[j]!r}"
    if not np.allclose(d, d.T, atol=1e-12):
        return "metric not symmetric on the sample"
    diag = np.diag(d)
    if np.any(np.abs(diag) > 1e-12):
        return "metric has nonzero diagonal"
    if np.count_nonzero(d <= 0) > np.count_nonzero(diag <= 0):
        return "distinct sample points at zero distance"
    return None


_DEFECTS = {
    "inf": lambda d, i, j: d.__setitem__((i, j), np.inf),
    "-inf": lambda d, i, j: d.__setitem__((i, j), -np.inf),
    "nan": lambda d, i, j: d.__setitem__((i, j), np.nan),
    "skew": lambda d, i, j: d.__setitem__((i, j), d[i, j] + 0.5),
    "zero pair": lambda d, i, j: (d.__setitem__((i, j), 0.0), d.__setitem__((j, i), 0.0)),
    "negative pair": lambda d, i, j: (d.__setitem__((i, j), -1.0), d.__setitem__((j, i), -1.0)),
    "diagonal": lambda d, i, j: d.__setitem__((i, i), 1e-6),
}


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_constructor_tile_walk_keeps_message_and_precedence(data):
    # many small tiles, so defects land in different tiles and in either
    # order along the walk
    n = data.draw(st.integers(2, 11))
    tile = data.draw(st.sampled_from([1, 2, 3, 4, _T]))
    x = np.random.default_rng(n).random((n, n)) + 1.0
    d = np.triu(x, 1) + np.triu(x, 1).T
    defects = data.draw(st.lists(st.tuples(st.sampled_from(sorted(_DEFECTS)), st.integers(0, n - 1),
                                           st.integers(0, n - 1)), max_size=3))
    for kind, i, j in defects:
        _DEFECTS[kind](d, i, j)
    points = tuple(f"p{i}" for i in range(n))
    expected = _constructor_checks_reference(d, points)
    with mock.patch.object(space_mod, "_SYMMETRY_TILE", tile):
        if expected is None:
            assert _matrix_space(d).n == n
        else:
            with pytest.raises(ValueError) as err:
                _matrix_space(d)
            assert str(err.value) == expected


def _loop_exhaustion(coords, lo, hi):
    """The line's exhaustion as a loop over every integer m up to the
    window's bound builds it, keeping the first m of each distinct set."""
    bound, sets, m = max(abs(lo), abs(hi)), [], 1
    while True:
        members = tuple(np.nonzero(np.abs(coords) <= min(m, bound) + 1e-12)[0].tolist())
        if members and (not sets or sets[-1][0] != members):
            sets.append((members, f"[-{m},{m}]"))
        if m >= bound:
            break
        m += 1
    return sets


@given(lo=st.sampled_from([-7.5, -3, -1, -0.25, 0, 0.5, 2, 6.0]),
       width=st.sampled_from([0.5, 1, 2.25, 3, 8, 13.5]),
       step=st.sampled_from([0.05, 0.25, 0.3, 1.0, 1.5, 2.0, 4.0]))
@settings(max_examples=80, deadline=None)
def test_line_exhaustion_keeps_the_first_m_of_each_distinct_set(lo, width, step):
    sp = builtin_space("line", step=step, window=(lo, lo + width))
    sets = [(tuple(k.members.tolist()), k.label) for k in sp.exhaustion]
    expected = _loop_exhaustion(sp.metric.x, lo, lo + width)
    if not expected or len(expected[-1][0]) != sp.n:
        expected.append((tuple(range(sp.n)), "window"))
    assert sets == expected
    assert len(sp.exhaustion) <= sp.n + 1


def test_wide_line_window_builds_one_set_per_point():
    # the loop over every integer m up to 1e9 never finished
    start = time.perf_counter()
    sp = builtin_space("line", step=1e8, window=(0, 1e9))
    assert time.perf_counter() - start < 0.5
    assert sp.n == 11 and len(sp.exhaustion) <= sp.n + 1
    assert [k.label for k in sp.exhaustion] == ["[-1,1]"] + [f"[-{m},{m}]" for m in range(10**8, 10**9 + 1, 10**8)]
    assert [len(k) for k in sp.exhaustion] == list(range(1, 12))


@pytest.mark.parametrize("name", ["onepoint01N", "remark25"])
@pytest.mark.parametrize("n_max", [1075, 1080])
def test_dyadic_n_max_past_1074_is_refused_naming_it(name, n_max):
    # 2^-1075 rounds to 0.0, so two points of the deepest level would be at
    # zero distance; the refusal comes before any point is laid out
    assert 2.0 ** -1074 > 0.0 == 2.0 ** -1075
    with pytest.raises(ValueError, match=f"^{name} n_max must be at most 1074, .* got {n_max}$"):
        builtin_space(name, n_max=n_max)


def test_onepoint_at_n_max_1074_keeps_every_distance_positive():
    sp = builtin_space("onepoint01N", n_max=1074)
    assert sp.resolution == 2.0 ** -1074 > 0.0
    assert sp.metric.pair(np.array([sp.index("(0,1074)")]), np.array([sp.index("(1,1074)")]))[0] == 2.0 ** -1074
