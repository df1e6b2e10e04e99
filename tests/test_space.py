import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renormlab as rl
from renormlab import space as space_mod
from renormlab.space import (
    _SYMMETRY_TILE,
    CompactSet,
    _dyadic_dist,
    _onepoint01N_levels,
    _remark25_coords,
    _symmetric,
    builtin_space,
    fatten,
    product,
    validate_metric,
)


def grid_fatten_oracle(coords, K_coords, delta):
    """Direct set comprehension over the grid."""
    return {i for i, c in enumerate(coords)
            if min(abs(c - k) for k in K_coords) <= delta + 1e-12}


def test_fatten_grid_matches_comprehension():
    sp = builtin_space("line", step=0.01, window=(0, 3))
    coords = sp.aux["coords"]
    K = sp.compact([i for i, c in enumerate(coords) if c <= 1.0 + 1e-12], "unit")
    fat, inside_top = fatten(sp, K, 0.1)
    expected = grid_fatten_oracle(coords, [coords[i] for i in K.members], 0.1)
    assert set(fat.members) == expected
    assert coords[max(fat.members)] == pytest.approx(1.1)
    assert inside_top


def test_fatten_contains_K_and_zero_radius_is_identity():
    sp = builtin_space("line", step=0.1, window=(0, 2))
    K = sp.compact(range(3, 8), "K")
    for delta in (0.05, 0.1, 0.5, 1.0):
        fat, _ = fatten(sp, K, delta)
        assert set(K.members) <= set(fat.members)
    # radius below the grid step returns K itself
    tiny, _ = fatten(sp, K, 0.04)
    assert set(tiny.members) == set(K.members)


def test_fatten_monotone_in_delta_and_K():
    sp = builtin_space("line", step=0.1, window=(0, 2))
    K_small = sp.compact(range(4, 6), "s")
    K_big = sp.compact(range(3, 9), "b")
    prev = set()
    for delta in np.arange(0.05, 1.0, 0.05):
        cur = set(fatten(sp, K_small, float(delta))[0].members)
        assert prev <= cur
        prev = cur
        assert cur <= set(fatten(sp, K_big, float(delta))[0].members)


def test_fatten_remark25_column_tail():
    sp = builtin_space("remark25", n_max=8)
    ids = [f"(0,{i})" for i in range(3, 9)] + ["(0,inf)"]
    K = sp.compact([sp.index(p) for p in ids], "tail")
    fat, _ = fatten(sp, K, 0.2)
    # d((0,x),(0,y)) = 2^-min: points with x <= 2 sit at distance >= 0.25,
    # every (i,j) at distance 1, so the fattening is K itself
    assert set(fat.members) == set(K.members)
    fat2, _ = fatten(sp, K, 0.25)
    assert set(fat2.members) == set(K.members) | {sp.index("(0,2)")}


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
                    got = prod.d(ia * b.n + ib, ja * b.n + jb)
                    assert got == pytest.approx(max(a.d(ia, ja), b.d(ib, jb)))


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


def test_product_circle_interval_audit():
    circ = builtin_space("circle", count=64)
    seg = builtin_space("line", step=1 / 15, window=(0, 1))
    prod = product(circ, seg)
    assert prod.n == 64 * 16
    assert set(prod.top_exhaustion.members) == set(range(prod.n))
    assert prod.resolution == max(circ.resolution, seg.resolution)


def test_builtin_remark25_small():
    sp = builtin_space("remark25", n_max=5)
    assert len(sp.points) == 6 + 25
    d = sp.d(sp.index("(0,2)"), sp.index("(0,4)"))
    assert d == pytest.approx(2.0 ** -2)
    # any pair involving first coordinate >= 1 sits at distance 1
    assert sp.d(sp.index("(3,2)"), sp.index("(0,4)")) == 1.0
    assert sp.d(sp.index("(3,2)"), sp.index("(1,2)")) == 1.0
    assert sp.d(sp.index("(0,3)"), sp.index("(0,inf)")) == pytest.approx(2.0 ** -3)


def test_builtin_onepoint_small():
    sp = builtin_space("onepoint01N", n_max=4)
    assert len(sp.points) == 9
    assert sp.d(sp.index("(0,2)"), sp.index("(1,3)")) == pytest.approx(2.0 ** -2)
    assert sp.d(sp.index("(1,3)"), sp.index("inf")) == pytest.approx(2.0 ** -3)
    assert not sp.isolated[sp.index("inf")]
    assert sp.isolated[sp.index("(0,2)")]


def test_builtin_line_window():
    sp = builtin_space("line", step=0.01, window=(-10, 10))
    assert sp.n == 2001
    labels = [k.label for k in sp.exhaustion]
    assert labels[0] == "[-1,1]"
    assert set(sp.exhaustion[-1].members) == set(range(sp.n))


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_space("klein_bottle")


def _matrix_twin(sp):
    """The space with its closed-form tag replaced by the matrix form, so
    that validate_metric examines triples."""
    return dataclasses.replace(sp, metric_form={"form": "matrix"})


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
    """The space with d(i, j) and d(j, i) moved by delta, metric tag kept."""
    d = sp.dmat.copy()
    d[i, j] += delta
    d[j, i] = d[i, j]
    return dataclasses.replace(sp, dmat=d)


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


@pytest.mark.parametrize("sp,i,j", [
    (builtin_space("line", step=1.0, window=(0, 4)), 0, 4),
    (builtin_space("plane", step=1.0, window=(0, 2)), 0, 8),
])
@pytest.mark.parametrize("delta,still_metric", [(0.5, False), (-0.5, True)])
def test_closed_form_rejects_perturbed_tagged_matrix(sp, i, j, delta, still_metric):
    bad = _perturbed(sp, i, j, delta)
    cert = validate_metric(bad)
    assert cert["mode"] == "closed-form" and not cert["ok"] and not cert["triangle_ok"]
    assert cert["formula_defect"] == abs(bad.dmat[i, j] - sp.dmat[i, j]) == pytest.approx(abs(delta))
    assert validate_metric(_matrix_twin(bad))["triangle_ok"] == still_metric


_SMALL = [builtin_space("line", step=1.0, window=(0, 6)), builtin_space("plane", step=1.0, window=(0, 2)),
          product(builtin_space("circle", count=4), builtin_space("line", step=0.5, window=(0, 1)))]


@given(which=st.integers(0, len(_SMALL) - 1), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.0, 1e-15, 1e-12, 1e-10, 3e-10, 1e-9, 1e-6, 0.1, 0.4]))
@settings(max_examples=60, deadline=None)
def test_closed_form_ok_implies_exhaustive_triangle_ok(which, seed, scale):
    sp = _SMALL[which]
    noise = np.random.default_rng(seed).uniform(-scale, scale, size=sp.dmat.shape)
    noise = np.triu(noise, 1)
    bad = dataclasses.replace(sp, dmat=sp.dmat + noise + noise.T)
    cert = validate_metric(bad)
    full = validate_metric(_matrix_twin(bad))
    assert full["worst_triangle_gap"] <= cert["triangle_gap_bound"]
    if cert["ok"]:
        assert full["triangle_ok"]


@pytest.mark.parametrize("form", [
    {"form": "matrix"},
    {"form": "line", "step": 0.1, "window": [0.0, 1.0]},
    {"form": "product", "a": {"form": "circle", "count": 4}, "b": {"form": "matrix"}},
])
def test_closed_form_falls_back_when_the_formula_does_not_fit(form):
    sp = dataclasses.replace(builtin_space("line", step=1.0, window=(0, 4)), metric_form=form)
    report = validate_metric(sp)
    assert report["mode"] == "exhaustive" and report["ok"]
    assert report["triples_checked"] == sp.n ** 3


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
        sp = _matrix_space(np.triu(d) + np.triu(d, 1).T)
        sp.dmat = d  # past the constructor: the report must say it too
        assert validate_metric(sp)["symmetric"] is False


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


def _symmetric_reference(d, atol):
    """The untiled check the tiled one replaced."""
    return bool(np.array_equal(d, d.T) or np.allclose(d, d.T, atol=atol))


@pytest.mark.parametrize("n_max", [3, 4, 17, 50])
def test_dyadic_kernel_matches_the_four_pass_builder(n_max):
    first, second = _remark25_coords(n_max)
    expected = _dyadic_dist_reference(second, first)
    assert _dyadic_dist(second, first).tobytes() == expected.tobytes()
    assert builtin_space("remark25", n_max=n_max).dmat.tobytes() == expected.tobytes()
    level = _onepoint01N_levels(n_max)
    expected = _dyadic_dist_reference(level)
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
    rng = np.random.default_rng(n)
    x = rng.random((n, n))
    sym = x + x.T
    edges = sorted({(0, n - 1), (n - 1, 0), (min(_T - 1, n - 1), min(_T, n - 1)),
                    (min(_T, n - 1), min(_T - 1, n - 1)), (min(1, n - 1), min(2, n - 1))})
    cases = [sym]
    for i, j in edges:  # tile edges, the last partial tile and the diagonal tile
        for delta in (1e-13, 1e-6, 1.0):
            d = sym.copy()
            d[i, j] += delta
            cases.append(d)
        if i != j:
            d = sym.copy()
            d[i, j], d[j, i] = _one_way_close_pair()
            cases.append(d)
            d = sym.copy()
            d[j, i], d[i, j] = _one_way_close_pair()
            cases.append(d)
    verdicts = set()
    for d in cases:
        for atol in (1e-12, 1e-9):
            expected = bool(np.allclose(d, d.T, atol=atol))
            assert _symmetric(d, atol) == _symmetric_reference(d, atol) == expected
            verdicts.add(expected)
    assert verdicts == ({True} if n == 1 else {True, False})


def test_tiled_symmetry_sees_a_nan_set_past_the_constructor():
    n = _T + 9
    x = np.random.default_rng(1).random((n, n)) + 1.0
    d = np.triu(x, 1) + np.triu(x, 1).T
    for i, j in ((0, n - 1), (_T - 1, _T), (n - 1, n - 1), (3, 3)):
        sp = _matrix_space(d.copy())
        sp.dmat[i, j] = np.nan  # the validate_metric path
        assert validate_metric(sp)["symmetric"] is False
        assert _symmetric(sp.dmat, 1e-9) == _symmetric_reference(sp.dmat, 1e-9) is False


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
