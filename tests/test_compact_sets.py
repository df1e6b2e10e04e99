"""Compact sets as sorted index arrays.

The loop builders below build remark25's exhaustion, its maps and a
product's exhaustion index by index, in Python; they are the oracles for
the library's array slices.  The member-array layouts, the member-array
product and the per-map patch loop are the paths that the exhaustions
stated by their entries and the one-pass patches replaced, kept as
oracles.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from renormlab import io as rio
from renormlab import operators
from renormlab import space as space_mod
from renormlab.operators import (_PatchSequence, _roundtrip_defects, check_sot_convergence, identity,
                                 line_translation, remark25_map, remark25_sequence)
from renormlab.space import CompactSet, SampledSpace, builtin_space, product


def _loop_remark25_exhaustion(n_max):
    column = list(range(n_max + 1))
    exhaustion = []
    for m in range(1, n_max + 1):
        block = [
            (n_max + 1) + (i - 1) * n_max + (j - 1)
            for i in range(1, m + 1)
            for j in range(1, m + 1)
        ]
        exhaustion.append((sorted(column + block), f"K{m}"))
    return exhaustion


def _loop_remark25_map(n_max, n):
    N = (n_max + 1) + n_max * n_max
    fwd = np.arange(N)
    bwd = np.arange(N)

    def col(x):
        return x - 1

    inf_idx = n_max

    def row(i, j):
        return (n_max + 1) + (i - 1) * n_max + (j - 1)

    for i in range(n, n_max):
        fwd[col(i)] = col(i + 1)
    fwd[col(n_max)] = inf_idx
    fwd[row(n, n)] = col(n)
    for i in range(n + 1, n_max + 1):
        fwd[row(n, i)] = row(n, i - 1)

    for i in range(n + 1, n_max + 1):
        bwd[col(i)] = col(i - 1)
    bwd[col(n)] = row(n, n)
    for i in range(n, n_max):
        bwd[row(n, i)] = row(n, i + 1)
    return fwd, bwd


def _loop_product_exhaustion(a, b):
    nb, sets = b.n, []
    for m in range(max(len(a.exhaustion), len(b.exhaustion))):
        ka = a.exhaustion[min(m, len(a.exhaustion) - 1)]
        kb = b.exhaustion[min(m, len(b.exhaustion) - 1)]
        members = [ia * nb + ib for ia in ka.members.tolist() for ib in kb.members.tolist()]
        sets.append((sorted(members), f"{ka.label}x{kb.label}"))
    return sets


def _sets(space):
    return [(k.members.tolist(), k.label) for k in space.exhaustion]


@pytest.mark.parametrize("n_max", [3, 4, 7, 50, 101])
def test_remark25_exhaustion_and_maps_match_the_loop_builders(n_max):
    sp = builtin_space("remark25", n_max=n_max)
    assert sp.n == (n_max + 1) + n_max * n_max  # 2,551 points at n_max 50
    assert _sets(sp) == _loop_remark25_exhaustion(n_max)
    for n in range(1, n_max + 1):
        op = remark25_map(sp, n)
        fwd, bwd = _loop_remark25_map(n_max, n)
        assert op.label == f"phi_{n}"
        assert op.forward.tolist() == fwd.tolist()
        assert op.backward.tolist() == bwd.tolist()
        assert op.allowed_defects == _roundtrip_defects(sp, fwd, bwd) == {sp.index(f"({n},{n_max})")}


_FACTORS = {
    "line": builtin_space("line", step=0.5, window=(-2.5, 3.0)),  # four nested sets
    "circle": builtin_space("circle", count=5),
    "remark25": builtin_space("remark25", n_max=3),
    "onepoint01N": builtin_space("onepoint01N", n_max=2),
}


@pytest.mark.parametrize("a, b", list(itertools.product(_FACTORS, repeat=2)))
def test_product_exhaustion_matches_the_loop_builder(a, b):
    fa, fb = _FACTORS[a], _FACTORS[b]
    assert _sets(product(fa, fb)) == _loop_product_exhaustion(fa, fb)


def _member_product(a, b):
    """A product's exhaustion as ``product`` built it from its factors'
    member arrays, before it read their entries: one array per compact."""
    ka, kb, out = a.exhaustion, b.exhaustion, []
    for m in range(max(len(ka), len(kb))):
        x, y = ka[min(m, len(ka) - 1)], kb[min(m, len(kb) - 1)]
        members = x.members[:, None] * b.n + y.members  # row-major, so already sorted
        out.append(CompactSet(members.ravel(), label=f"{x.label}x{y.label}"))
    return tuple(out)


_MATRIX_LINE = dataclasses.replace(_FACTORS["line"], metric_form={"form": "matrix"}, factors=())


@pytest.mark.parametrize("space", [
    builtin_space("plane", step=0.5, window=(-2.0, 2.0)),
    builtin_space("circle_x_interval", count=6, levels=4),
    # a matrix factor
    product(builtin_space("circle", count=4), _MATRIX_LINE),
    builtin_space("plane"),
    builtin_space("plane", step=0.05),
    builtin_space("circle_x_interval"),
    product(_FACTORS["line"], _FACTORS["circle"]),  # depths 4 and 1
    product(_FACTORS["remark25"], _FACTORS["line"]),  # depths 3 and 4
    product(_FACTORS["remark25"], _MATRIX_LINE),
])
def test_builtin_and_matrix_products_match_the_loop_builder(space):
    # the product of the factors' entries has the bytes, dtype and labels
    # of the member-array product
    assert _sets(space) == _loop_product_exhaustion(*space.factors)
    _same_compacts(space.exhaustion, _member_product(*space.factors))


@pytest.mark.parametrize("members", [
    (5, 1, 3, 1), [3, 5, 1], {1, 3, 5}, range(1, 6, 2),
    np.array([5, 3, 1, 3]), np.array([1, 3, 5], dtype=np.uint8), np.array([3, 1, 5], dtype=np.uint64),
])
def test_members_are_a_sorted_unique_read_only_index_array(members):
    k = CompactSet(members, "k")
    assert k.members.dtype == np.intp and k.members.tolist() == [1, 3, 5] and len(k) == 3
    assert not k.members.flags.writeable
    with pytest.raises(ValueError):
        k.members[0] = 0
    if isinstance(members, np.ndarray):  # the caller's array is neither kept nor frozen
        assert members.flags.writeable and not np.shares_memory(members, k.members)


@pytest.mark.parametrize("bad", [0.5, 2.0, True, False, "1", None, np.float64(1.5)])
def test_a_member_that_is_not_an_integer_is_refused_by_name(bad):
    message = f"compact set member {bad!r} is not an integer"
    with pytest.raises(ValueError) as err:
        CompactSet((0, bad, 7))
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        builtin_space("circle", count=8).compact([0, bad, 7])
    assert str(err.value) == message


def test_an_array_that_is_not_of_integers_is_refused_naming_its_first_value():
    for values, first in ((np.array([0.5, 1.0]), 0.5), (np.array([True, False]), True)):
        with pytest.raises(ValueError) as err:
            CompactSet(values)
        assert str(err.value) == f"compact set member {first!r} is not an integer"


@pytest.mark.parametrize("bad, members", [
    (2**70, [0, 2**70]), (-2**63 - 1, [-2**63 - 1, 0]), (2**63, np.array([0, 2**63], dtype=np.uint64)),
])
def test_a_member_no_index_can_hold_is_refused_by_name(bad, members):
    with pytest.raises(ValueError) as err:
        CompactSet(members)
    assert str(err.value) == f"compact set member {bad!r} is out of range"


@pytest.mark.parametrize("members", [[-1, 0], [0, 8], [8]])
def test_compact_refuses_a_member_outside_the_space(members):
    with pytest.raises(ValueError, match="^compact set member outside space$"):
        builtin_space("circle", count=8).compact(members)


@pytest.mark.parametrize("exhaustion", [
    (CompactSet((0, 1, 2)),),
    (CompactSet((-1, 0, 1)),),
    (CompactSet((0,)), CompactSet((0, 1, 5))),
])
def test_an_exhaustion_member_out_of_range_is_refused(exhaustion):
    with pytest.raises(ValueError, match="^exhaustion member out of range$"):
        SampledSpace(name="bad", points=("a", "b"), dmat=np.array([[0.0, 1.0], [1.0, 0.0]]),
                     exhaustion=exhaustion, resolution=0.5, isolated=np.zeros(2, dtype=bool),
                     metric_form={"form": "matrix"})


def test_a_fine_line_builds_in_bounded_traced_memory():
    # the n = 20,001 line peaks near 5.0 MB traced; a boxed int per
    # exhaustion member (110,010 of them) would take it to 11.4 MB
    builtin_space("line", step=0.5)  # imports and first-call caches outside the trace
    tracemalloc.start()
    try:
        sp = builtin_space("line", step=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp.n == 20_001
    assert peak < 7_000_000


def _member_layout(space):
    """The exhaustion of a remark25 or line space as one member array per
    compact, as its ``_layout`` once built it."""
    tag, n = space.metric_form, space.n
    if tag["form"] == "remark25":
        n_max = tag["n_max"]
        column, grid = np.arange(n_max + 1), np.arange(n_max + 1, n).reshape(n_max, n_max)
        return tuple(CompactSet(np.concatenate([column, grid[:m, :m].ravel()]), label=f"K{m}")
                     for m in range(1, n_max + 1))
    lo, hi = tag["window"]
    enter = space_mod._line_entries(np.abs(space.metric.x), max(abs(lo), abs(hi)))
    exhaustion = [CompactSet(np.flatnonzero(enter <= m), label=f"[-{m},{m}]")
                  for m in map(int, sorted(set(enter[np.isfinite(enter)].tolist())))]
    if not exhaustion or len(exhaustion[-1]) != n:
        exhaustion.append(CompactSet(np.arange(n), label="window"))
    return tuple(exhaustion)


def _loop_patches(space, n_max, ns):
    """The counterexample maps ``ns`` as patches, built one map at a time."""
    parts = []
    for n in ns:
        col = np.arange(n - 1, n_max)
        row = n_max + 1 + (n - 1) * n_max + col
        forward = np.concatenate([col + 1, [n - 1], row[:-1]])
        backward = np.concatenate([row[:1], col[:-1], row[1:], row[-1:]])
        parts.append((np.concatenate([col, row]), forward, backward))
    at, forward, backward = (np.concatenate(a) for a in zip(*parts))
    start = np.concatenate([[0], np.cumsum([p[0].size for p in parts])])
    return _PatchSequence(space, start, at, np.ones(at.size), forward, backward,
                          [f"phi_{n}" for n in ns], [frozenset({n_max + n * n_max}) for n in ns])


def _same_patches(got, want):
    for field in ("start", "at", "weight", "forward", "backward"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert (got.labels, got.defects) == (want.labels, want.defects)


@pytest.mark.parametrize("n_max", range(3, 61))
def test_one_pass_patches_match_the_per_map_loop(n_max):
    sp = builtin_space("remark25", n_max=n_max)
    _same_patches(remark25_sequence(sp), _loop_patches(sp, n_max, range(1, n_max + 1)))
    for n in range(1, n_max + 1):
        _same_patches(operators._remark25_patches(sp, n_max, [n]), _loop_patches(sp, n_max, [n]))
    for n in (1, n_max // 2 + 1, n_max):  # remark25_map's single n, as an operator
        got, want = remark25_map(sp, n), _loop_patches(sp, n_max, [n])[0]
        for field in ("weight", "forward", "backward"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (n, field)
        assert (got.label, got.allowed_defects) == (want.label, want.allowed_defects)


def _same_compacts(got, want):
    assert [(K.label, len(K)) for K in got] == [(K.label, len(K)) for K in want]
    for a, b in zip(got, want):
        assert a.members.dtype == b.members.dtype and a.members.tobytes() == b.members.tobytes(), a.label
        assert not a.members.flags.writeable


def _sot_on_both(space, seq, limit, cut, eps):
    """The SOT verdict on the compacts ``cut`` of the space's exhaustion,
    read from its entries, and on the same compacts as member arrays, with
    the labels of the compacts whose members the entry read built."""
    entered = list(space.exhaustion[cut])
    got = check_sot_convergence(seq, limit, entered, eps)
    built = [K.label for K in entered if "members" in vars(K)]
    want = check_sot_convergence(seq, limit, list(_member_layout(space)[cut]), eps)
    return got, want, built


@pytest.mark.parametrize("n_max", range(3, 61))
def test_entered_exhaustion_matches_the_member_layout_on_remark25(n_max):
    sp = builtin_space("remark25", n_max=n_max)
    seq = remark25_sequence(sp)
    for limit, cut, eps in ((identity(sp), slice(None, -1), 0.01), (identity(sp), slice(None), 0.3),
                            (remark25_map(sp, 3), slice(1, None), 0.01), (identity(sp), slice(1, -1), 1e-9)):
        got, want, built = _sot_on_both(sp, seq, limit, cut, eps)
        assert got == want, (limit.label, cut, eps)
        if eps == 0.01 and cut.start is None and 2.0 ** -n_max < eps:
            # the gallery's read, the first on this space: with the column
            # finer than eps, its witnesses and the inverse family's name
            # K1, the one compact it builds
            assert built == ["K1"]
    _same_compacts(sp.exhaustion, _member_layout(sp))
    assert _with_exhaustion(sp, _member_layout(sp)).n == sp.n


@pytest.mark.parametrize("params", [{}, {"step": 0.5, "window": (-2.5, 3.0)}, {"step": 0.3, "window": (0.2, 0.9)},
                                    {"step": 0.25, "window": (-3, 3)}])
def test_entered_exhaustion_matches_the_member_layout_on_the_line(params):
    line = builtin_space("line", **params)  # {} is the shipped line
    step = line.metric_form["step"]
    seq = [line_translation(line, c * step) for c in (6, 4, 3, 2, 1, 1, -1, 1, 1)]
    for limit in (identity(line), line_translation(line, step)):
        for cut in (slice(None), slice(1, None), slice(None, -1)):
            if not line.exhaustion[cut]:
                continue
            for eps in (step / 4, 2.5 * step):
                got, want, built = _sot_on_both(line, seq, limit, cut, eps)
                assert got == want, (limit.label, cut, eps)
    _same_compacts(line.exhaustion, _member_layout(line))


def _with_exhaustion(space, exhaustion):
    return SampledSpace(name=space.name, points=space.points, dmat=None, exhaustion=exhaustion,
                        resolution=space.resolution, isolated=space.isolated, metric_form=space.metric_form)


def test_an_entered_exhaustion_is_checked_from_its_entries():
    # building and checking the space builds no member array; a run of the
    # compacts that misses a point is refused as a member walk refuses it
    sp = builtin_space("remark25", n_max=6)
    assert not any("members" in vars(K) for K in sp.exhaustion)
    assert _with_exhaustion(sp, sp.exhaustion[2:]).n == sp.n
    for cut in (slice(None, -1), slice(1, 3)):
        for exhaustion in (sp.exhaustion[cut], _member_layout(sp)[cut]):
            with pytest.raises(ValueError, match="^exhaustion does not cover the sample$"):
                _with_exhaustion(sp, exhaustion)
    assert not any("members" in vars(K) for K in sp.exhaustion)


def _one_entry_run(space):
    """The space holds its exhaustion as one entry array, and its
    construction built no member array."""
    K = space.exhaustion
    assert all(type(k) is space_mod._Entered and k.enter is K[0].enter and k.k == j for j, k in enumerate(K))
    assert K[0].enter.shape == (space.n,) and K[0].enter.dtype == np.intp and not K[0].enter.flags.writeable
    assert not any("members" in vars(k) for k in K)


_SMALL = {"line": {}, "circle": {}, "plane": {"step": 0.5}, "remark25": {"n_max": 7},
          "onepoint01N": {"n_max": 5}, "circle_x_interval": {"count": 6, "levels": 4}}


def _saved_spaces():
    yield from (builtin_space(name, **_SMALL[name]) for name in space_mod.BUILTIN_NAMES)
    yield _MATRIX_LINE
    yield product(_FACTORS["circle"], _MATRIX_LINE)
    yield product(_MATRIX_LINE, _MATRIX_LINE)


@pytest.mark.parametrize("space", list(_saved_spaces()), ids=lambda sp: sp.name)
def test_every_space_loaded_from_a_file_holds_one_entry_run(space, tmp_path):
    # a matrix-form space is read back from its member arrays, which the
    # constructor states by their entries; the saved document is the same
    rio.save_space(space, tmp_path / "space.json")
    loaded = rio.load_space(tmp_path / "space.json")
    for sp in (loaded, *loaded.factors):
        _one_entry_run(sp)
    _same_compacts(loaded.exhaustion, space.exhaustion)
    assert rio.space_to_dict(loaded) == rio.space_to_dict(space)


@pytest.mark.parametrize("name", space_mod.BUILTIN_NAMES)
def test_every_builtin_holds_one_entry_run(name):
    assert set(_SMALL) == set(space_mod.BUILTIN_NAMES)
    space = builtin_space(name, **_SMALL[name])
    for sp in (space, *space.factors):
        _one_entry_run(sp)
