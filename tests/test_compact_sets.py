"""Compact sets as sorted index arrays.

The loop builders below build remark25's exhaustion, its maps and a
product's exhaustion index by index, in Python; they are the oracles for
the library's array slices.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from renormlab.operators import _roundtrip_defects, remark25_map
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
        assert op.allowed_defects == _roundtrip_defects(sp, fwd[None], bwd[None])[0]


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


@pytest.mark.parametrize("space", [
    builtin_space("plane", step=0.5, window=(-2.0, 2.0)),
    builtin_space("circle_x_interval", count=6, levels=4),
    # a matrix factor
    product(builtin_space("circle", count=4),
            dataclasses.replace(_FACTORS["line"], metric_form={"form": "matrix"}, factors=())),
])
def test_builtin_and_matrix_products_match_the_loop_builder(space):
    assert _sets(space) == _loop_product_exhaustion(*space.factors)


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
