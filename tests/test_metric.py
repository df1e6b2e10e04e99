"""The metric object of a sampled space: closed-form distances computed from
coordinates, the O(n) constructor certificate, and the readers that never
build a matrix."""

import dataclasses
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import renormlab as rl
from renormlab import cli
from renormlab import space as space_mod
from renormlab.space import CompactSet, builtin_space

ROOT = Path(__file__).resolve().parents[1]

_BUILTINS = [
    ("line", {"step": 0.05, "window": (-2, 2)}),
    ("circle", {"count": 48}),
    ("plane", {"step": 0.5, "window": (-2, 2)}),
    ("remark25", {"n_max": 10}),
    ("onepoint01N", {"n_max": 12}),
    ("circle_x_interval", {"count": 16, "levels": 8}),
]


def _reference(form):
    """The full matrix of a closed-form tag, from the whole-matrix formulas
    that the metric's elementwise helpers replaced."""
    kind = form["form"]
    if kind == "line":
        x = space_mod._Line(form).x
        return np.abs(np.subtract.outer(x, x))
    if kind == "circle":
        d = np.abs(np.subtract.outer(*[space_mod._Circle(form).x] * 2))
        return np.minimum(d, 2 * math.pi - d)
    if kind in ("remark25", "onepoint01N"):
        if kind == "remark25":
            metric = space_mod._Remark25(form)
            first, level = metric.first, metric.level
        else:
            first, level = None, space_mod._Onepoint01N(form).level
        q = np.power(2.0, -level)
        if first is not None:
            q[first >= 1] = 1.0
        d = np.maximum.outer(q, q)
        np.fill_diagonal(d, 0.0)
        return d
    da, db = _reference(form["a"]), _reference(form["b"])
    n = len(da) * len(db)
    return np.maximum(da[:, None, :, None], db[None, :, None, :]).reshape(n, n)


@pytest.mark.parametrize("name,params", _BUILTINS)
def test_closed_form_entries_are_bitwise_the_formula(name, params):
    sp = builtin_space(name, **params)
    ref = _reference(sp.metric_form)
    metric = sp.metric
    rng = np.random.default_rng(len(ref))
    I, J = rng.integers(0, sp.n, size=(2, 3, 57))
    assert metric.pair(I, J).tobytes() == ref[I, J].tobytes()
    assert metric.pair(I[0], 5).tobytes() == ref[I[0], 5].tobytes()
    assert sp.metric.pair(3, 1) == ref[3, 1]
    rows, cols = I[0], np.concatenate([J[1], [0, sp.n - 1]])
    assert metric.cross(rows, cols).tobytes() == ref[np.ix_(rows, cols)].tobytes()
    assert metric.diameter == ref.max()
    assert sp.dmat.tobytes() == ref.tobytes()
    if name == "plane":  # equal factors share one factor space and one metric
        assert sp.factors[0] is sp.factors[1] and metric.a is metric.b is sp.factors[0].metric


# every metric keeps the default set_distances: the two dyadic kinds, a
# line, a circle, a product and a matrix form
_SET_SPACES = [
    builtin_space("remark25", n_max=6),
    builtin_space("onepoint01N", n_max=5),
    builtin_space("line", step=0.25, window=(-3, 3)),
    builtin_space("circle", count=30),
    builtin_space("circle_x_interval", count=8, levels=4),
    dataclasses.replace(builtin_space("plane", step=0.5, window=(-1, 1)), metric_form={"form": "matrix"}, factors=()),
]


@st.composite
def _set_lists(draw):
    """A space, the points to read (all of them, or a list that may repeat
    a point), a list of index arrays (nested, repeated or not nested; an
    array may repeat an index) and a block size."""
    sp = draw(st.sampled_from(_SET_SPACES))
    points = draw(st.one_of(st.just(list(range(sp.n))), st.lists(st.integers(0, sp.n - 1), max_size=30)))
    order = np.array(draw(st.permutations(range(sp.n))), dtype=np.intp)
    sizes = sorted(draw(st.lists(st.integers(1, sp.n), min_size=1, max_size=6)))
    nested = [order[:k] for k in sizes]
    kind = draw(st.sampled_from(["nested", "repeated", "not nested"]))
    if kind == "nested":
        sets = nested
    elif kind == "repeated":
        sets = draw(st.lists(st.sampled_from(nested), min_size=1, max_size=8))
        sets = [np.concatenate([s, s[:draw(st.integers(0, 3))]]) for s in sets]
    else:
        sets = [np.array(draw(st.lists(st.integers(0, sp.n - 1), min_size=1, max_size=40)), dtype=np.intp)
                for _ in range(draw(st.integers(1, 5)))]
    block = draw(st.sampled_from([8, 8 * 7, 8 * 100, space_mod._GATHER_BYTES]))
    return sp, np.array(points, dtype=np.intp), sets, block


@given(_set_lists())
@settings(max_examples=200, deadline=None)
def test_default_set_distances_are_bitwise_the_dense_minimum(case):
    sp, points, sets, gather_bytes = case
    assert type(sp.metric).set_distances is space_mod.Metric.set_distances
    with mock.patch.object(space_mod, "_GATHER_BYTES", gather_bytes):
        table = sp.metric.set_distances(points, sets)
    assert table.shape == (len(points), len(sets))
    for k, s in enumerate(sets):
        assert table[:, k].tobytes() == sp.dmat[points][:, s].min(axis=1).tobytes(), k


@st.composite
def _nested_groups(draw):
    """A space, points to read, and nested sets as members (repeats
    allowed) with the first set each enters, the first set nonempty."""
    sp = draw(st.sampled_from(_SET_SPACES))
    width = draw(st.integers(1, 5))
    members = draw(st.lists(st.integers(0, sp.n - 1), min_size=1, max_size=40))
    enter = draw(st.lists(st.integers(0, width - 1), min_size=len(members), max_size=len(members)))
    enter[0] = 0
    points = draw(st.lists(st.integers(0, sp.n - 1), max_size=20))
    eps = draw(st.sampled_from([1e-13, 2.0 ** -4, 0.2, 0.25, 0.5, 1.0, 3.0]))
    return sp, *(np.array(a, dtype=np.intp) for a in (points, members, enter)), width, eps


@given(_nested_groups())
@settings(max_examples=200, deadline=None)
def test_far_counts_count_the_sets_farther_than_eps(case):
    # the dyadic closed form and the default running min both count the
    # sets S_k = members[enter <= k] whose direct distance exceeds eps
    sp, points, members, enter, width, eps = case
    direct = [int(sum(sp.dmat[y, members[enter <= k]].min() > eps for k in range(width))) for y in points]
    assert sp.metric._far_counts(points, members, enter, width, eps).tolist() == direct
    with mock.patch.object(space_mod, "_GATHER_BYTES", 8):
        assert space_mod.Metric._far_counts(sp.metric, points, members, enter, width, eps).tolist() == direct


@pytest.mark.parametrize("name", space_mod.BUILTIN_NAMES)
def test_diameter_is_bitwise_the_matrix_max(name):
    sp = builtin_space(name)
    assert sp.metric.diameter == sp.dmat.max()
    # a dyadic distance is exact: its rounding bound, and so its slack, is 0
    exact = name in ("remark25", "onepoint01N")
    assert sp._resolution_tol == sp.resolution + (0.0 if exact else 8 * np.finfo(float).eps * sp.dmat.max())


@pytest.mark.parametrize("name,params", _BUILTINS)
def test_a_given_matrix_rounds_as_a_computed_one(name, params):
    # a matrix twin, dyadic or not, reads the default bound 8 eps max d;
    # its matrix, exactly symmetric with a zero diagonal, keeps every bit
    sp = builtin_space(name, **params)
    twin = dataclasses.replace(sp, dmat=sp.dmat, metric_form={"form": "matrix"}, factors=())
    assert twin._resolution_tol == sp.resolution + 8 * np.finfo(float).eps * sp.dmat.max()
    assert twin.dmat.tobytes() == sp.dmat.tobytes()


def test_matrix_is_built_once_on_first_read_and_read_only():
    sp = builtin_space("remark25", n_max=6)
    assert "dense" not in vars(sp.metric)
    assert rl.validate_metric(sp)["mode"] == "closed-form"
    assert "dense" not in vars(sp.metric)
    d = sp.dmat
    assert sp.dmat is d and not d.flags.writeable


def test_circle_x_interval_builds_each_factor_matrix_at_most_once():
    Circle, Line = space_mod._Circle, space_mod._Line
    with mock.patch.object(Circle, "_pair", autospec=True, side_effect=Circle._pair) as circ_spy, \
            mock.patch.object(Line, "_pair", autospec=True, side_effect=Line._pair) as seg_spy:
        sp = builtin_space("circle_x_interval")
        circ, seg = sp.factors
        for space in (sp, circ, seg, sp):
            assert space.dmat.shape == (space.n, space.n)
    calls = circ_spy.call_args_list + seg_spy.call_args_list
    shapes = [np.broadcast_shapes(np.shape(c.args[1]), np.shape(c.args[2])) for c in calls]
    # the circle's matrix is computed once, the interval's once; every other
    # call computes one row of a constructor's certificate
    assert shapes.count((circ.n, circ.n)) == 1 and shapes.count((seg.n, seg.n)) == 1
    assert all(len(s) == 1 and s[0] in (circ.n, seg.n, sp.n) for s in shapes
               if s not in ((circ.n, circ.n), (seg.n, seg.n)))
    assert sp.metric.a is circ.metric and sp.metric.b is seg.metric


# ----------------------------------------------------------------------
# the O(n) certificate against the tile walk


def _walk_verdict(metric, points):
    try:
        space_mod._tile_walk(metric.dense, points)
    except ValueError as exc:
        return str(exc)
    return None


def _constructor_verdict(form, points):
    try:
        rl.SampledSpace(name="s", points=points, dmat=None,
                        exhaustion=(CompactSet(tuple(range(len(points))), "all"),),
                        resolution=1.0, isolated=np.zeros(len(points), dtype=bool), metric_form=form)
    except ValueError as exc:
        return str(exc)
    return None


# windows whose coordinates collide (1e16 + 1 rounds to 1e16), overflow to
# inf, or whose spread overflows; the rest draw ordinary grids
_EDGE_LINES = [
    {"form": "line", "step": 1.0, "window": [1e16, 1e16 + 8]},
    {"form": "line", "step": 0.5, "window": [2.0**53, 2.0**53 + 8]},
    {"form": "line", "step": 1e308, "window": [0.0, 1.7e308]},
    {"form": "line", "step": 1e308, "window": [-1e308, 0.7e308]},
    {"form": "line", "step": 1e307, "window": [1e308, 1.5e308]},
    {"form": "line", "step": 1e307, "window": [1.7e308, 1.79e308]},
    {"form": "line", "step": 3.0, "window": [-1.0, 0.5]},
]


@st.composite
def _line_tags(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_EDGE_LINES))
    lo = draw(st.sampled_from([0.0, -3.0, 2.5, 1e15, -1e16, 1e300]))
    step = draw(st.sampled_from([1.0, 0.5, 0.3, 4.0, 1e-3, abs(lo) * 1e-16 or 1.0]))
    width = step * draw(st.integers(1, 24)) + draw(st.sampled_from([0.0, 0.4 * step]))
    return {"form": "line", "step": step, "window": [lo, lo + width]}


_FACTORS = st.one_of(
    _line_tags(),
    st.integers(3, 20).map(lambda c: {"form": "circle", "count": c}),
    st.integers(2, 12).map(lambda n: {"form": "onepoint01N", "n_max": n}),
    st.integers(3, 5).map(lambda n: {"form": "remark25", "n_max": n}),
)
_TAGS = st.one_of(_FACTORS, st.builds(lambda a, b: {"form": "product", "a": a, "b": b}, _FACTORS, _FACTORS))


@given(form=_TAGS)
@settings(max_examples=150, deadline=None)
@np.errstate(invalid="ignore", over="ignore")
def test_certificate_refuses_exactly_where_the_tile_walk_does(form):
    try:
        metric = space_mod._closed_form(form)
    except (ValueError, OverflowError):  # the tag itself is refused, before any check
        assume(False)
    assume(metric.n <= 900)
    points = tuple(f"p{i}" for i in range(metric.n))
    expected = _walk_verdict(metric, points)
    event(f"refusal: {expected}")
    assert _constructor_verdict(form, points) == expected


@pytest.mark.parametrize("form,refusal", [
    ({"form": "line", "step": 1.0, "window": [1e16, 1e16 + 8]}, "distinct sample points at zero distance"),
    ({"form": "line", "step": 1e308, "window": [0.0, 1.7e308]},
     "non-finite distance inf between points 'p0' and 'p2'"),
    ({"form": "line", "step": 1e308, "window": [-1e308, 0.7e308]},
     "non-finite distance inf between points 'p0' and 'p2'"),
    # 2^-1075 underflows to 0, where (0,1075), (1,1075) and inf would all
    # sit at q = 0: the tag is refused by name before any walk
    ({"form": "onepoint01N", "n_max": 1075},
     "onepoint01N n_max must be at most 1074, where 2^-n_max is the least positive float, got 1075"),
    ({"form": "onepoint01N", "n_max": 1074}, None),
    ({"form": "product", "a": {"form": "circle", "count": 3},
      "b": {"form": "line", "step": 1.0, "window": [1e16, 1e16 + 4]}}, "distinct sample points at zero distance"),
])
@np.errstate(invalid="ignore", over="ignore")
def test_certificate_edge_tags(form, refusal):
    try:
        metric = space_mod._closed_form(form)
    except ValueError as exc:  # the tag itself, and so the constructor on any points
        assert str(exc) == refusal == _constructor_verdict(form, ("p0", "p1"))
        return
    points = tuple(f"p{i}" for i in range(metric.n))
    assert _walk_verdict(metric, points) == refusal
    assert _constructor_verdict(form, points) == refusal


# ----------------------------------------------------------------------
# rows and balls against the full matrix


def _dense_ball(d, centres, r):
    return np.flatnonzero((d[np.atleast_1d(centres)] < r).any(axis=0))


def _radii(d, rng):
    """Radii at which a ball changes: drawn distances and the floats next to
    them, 1e-9, 0, a negative radius, inf and NaN."""
    values = d[rng.integers(0, len(d), 6), rng.integers(0, len(d), 6)]
    return [*values, *np.nextafter(values, np.inf), *np.nextafter(values, -np.inf), 1e-9, 0.0, -1.0, math.inf, math.nan]


def _check_rows_and_balls(metric, d, rng):
    # rows, balls and nearest points
    n = len(d)
    for i in {0, n - 1, *rng.integers(0, n, 4).tolist()}:
        assert metric.row(i).tobytes() == d[i].tobytes(), i
    for r in _radii(d, rng):
        for size in (1, 1, 3, 12):  # an orbit may repeat a centre
            centres = rng.integers(0, n, size)
            assert np.array_equal(metric.ball(centres, r), _dense_ball(d, centres, r)), (r, centres)
        assert np.array_equal(metric.ball(int(centres[0]), r), _dense_ball(d, centres[0], r))
        # a centre given twice takes the path of many centres
        assert np.array_equal(metric.ball(centres[[0, 0]], r), _dense_ball(d, centres[0], r))
        assert metric.ball(centres, r).dtype == np.intp
    # repeated columns tie, and the first wins; 400 columns make blocks of 81 rows
    for cols in (rng.integers(0, n, 12), rng.integers(0, n, 400)):
        rows = rng.permutation(n)
        assert np.array_equal(metric.nearest(rows, cols), d[rows][:, cols].argmin(axis=1))


@given(form=_TAGS, matrix=st.booleans(), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
@np.errstate(invalid="ignore", over="ignore")
def test_row_and_ball_are_bitwise_the_dense_row(form, matrix, seed):
    # closed forms, their products and the matrix form, on every tag the
    # constructor accepts
    try:
        metric = space_mod._closed_form(form)
    except (ValueError, OverflowError):
        assume(False)
    assume(metric.n <= 900)
    points = tuple(f"p{i}" for i in range(metric.n))
    assume(_constructor_verdict(form, points) is None)
    d = _reference(form)
    if matrix:
        # a given matrix need only be symmetric to a tolerance: one ulp up
        # above the diagonal, which the tile walk replaces by each pair's
        # mean, the same float on both sides
        skewed = d.copy()
        upper = np.triu_indices(len(d), 1)
        skewed[upper] = np.nextafter(d[upper], np.inf)
        metric = space_mod._Dense(skewed.copy())
        metric._certify(points)
        d = np.where(skewed != skewed.T, skewed / 2 + skewed.T / 2, skewed)
        assert np.array_equal(d, d.T) and not np.diagonal(d).any()
    event(type(metric).__name__)
    _check_rows_and_balls(metric, d, np.random.default_rng(seed))


@pytest.mark.parametrize("name,params", [
    ("plane", {"step": 0.25, "window": (-2, 2)}),  # two factors, one metric
    ("circle", {"count": 64}),
    ("remark25", {"n_max": 50}),  # the column's last points are 2^-50 apart
    ("onepoint01N", {"n_max": 50}),
    ("circle_x_interval", {"count": 48, "levels": 16}),
])
def test_row_and_ball_on_builtins(name, params):
    sp = builtin_space(name, **params)
    d = _reference(sp.metric_form)
    _check_rows_and_balls(sp.metric, d, np.random.default_rng(sp.n))
    if name == "plane":
        assert sp.metric.a is sp.metric.b
    if name == "remark25":
        # distinct points closer than 1e-9: (0,30) to (0,50) and (0,inf),
        # 2^-30 to 2^-50 apart
        near = [sp.index(f"(0,{k})") for k in [*range(30, 51), "inf"]]
        assert sp.metric.ball(near[-2], 1e-9).tolist() == near
        assert sp.metric.ball(near[-1], 2.0 ** -50).tolist() == near[-1:]
        assert sp.metric.ball(near[-1], np.nextafter(2.0 ** -50, 1)).tolist() == near[-2:]
    if name == "circle":
        # the arc around angle 0 wraps past the last angle, and back
        r = 1.5 * sp.metric.pair(0, 1)
        assert sp.metric.ball(0, r).tolist() == [0, 1, 63]
        assert sp.metric.ball(63, r).tolist() == [0, 62, 63]
        assert sp.metric.ball([0, 32], math.pi).tolist() == list(range(64))


# ----------------------------------------------------------------------
# the counterexamples gallery computes every distance from coordinates


@pytest.mark.parametrize("name", ["remark25_gallery", "onepoint_bounded"])
def test_counterexample_scenarios_never_build_a_matrix(name, tmp_path):
    def refuse(metric):
        raise AssertionError(f"{type(metric).__name__} built its dense matrix")

    scenario = json.loads((ROOT / "scripts" / "scenarios" / f"{name}.json").read_text())
    with mock.patch.object(space_mod.Metric, "dense", property(refuse)):
        assert cli.run(scenario, tmp_path) == 0
    for report in (ROOT / "tests" / "golden" / name).glob("*.json"):
        assert (tmp_path / report.name).read_bytes() == report.read_bytes(), report.name


@pytest.mark.parametrize("name", ["rotation_product", "line_trivial"])
def test_closed_form_scenarios_never_build_a_matrix(name, tmp_path):
    # base points from ball queries; the slot table, certify, the witness
    # functions and the random functions read rows, pairs and blocks
    def refuse(metric):
        raise AssertionError(f"{type(metric).__name__} built its dense matrix")

    scenario = json.loads((ROOT / "scripts" / "scenarios" / f"{name}.json").read_text())
    with mock.patch.object(space_mod.Metric, "dense", property(refuse)):
        assert cli.run(scenario, tmp_path) == 0
    for report in (ROOT / "tests" / "golden" / name).glob("*.json"):
        assert (tmp_path / report.name).read_bytes() == report.read_bytes(), report.name


@pytest.mark.parametrize("name,params", [
    ("line", {"step": 0.05, "window": (-10, 10)}),
    ("line", {"step": 0.3, "window": (1000, 1030)}),  # rounded gaps of unequal bits
    ("line", {"step": 10, "window": (0, 1)}),  # one point: no pair
    ("circle", {"count": 64}),
    ("circle", {"count": 3}),
    ("plane", {"step": 0.25, "window": (-2, 2)}),
    ("remark25", {"n_max": 50}),
    ("onepoint01N", {"n_max": 50}),
    ("circle_x_interval", {"count": 48, "levels": 16}),
])
def test_separation_bounds_every_computed_distance_of_distinct_points(name, params):
    # a lower bound on the off-diagonal of the computed matrix: exact but
    # on a circle, whose wrapped arcs it bounds from the largest difference;
    # positive, as the constructor's check that distinct points are apart
    sp = builtin_space(name, **params)
    d = sp.dmat
    least = d[~np.eye(sp.n, dtype=bool)].min(initial=np.inf)
    sep = sp.metric.separation
    assert 0 < sep <= least
    if "circle" in name:
        assert least - sep <= sp.metric.rounding
    else:
        assert sep == least
    matrix = rl.SampledSpace(name="twin", points=sp.points, dmat=d, exhaustion=sp.exhaustion,
                             resolution=sp.resolution, isolated=sp.isolated, metric_form={"form": "matrix"})
    assert matrix.metric.separation == least
