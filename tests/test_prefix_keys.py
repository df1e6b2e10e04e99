"""Keys derived by the prefix identity against the block-lexsort key path
they replaced (``key_oracles``).

The plan build refines each level's keys from its parent's with
``ClassRegistry.extend_keys``, and the dual systems read every segment's
class from its suffix's one key with ``ClassRegistry.prefix_classes``.
Both must give the keys, classes, ordinals and weights that keying every
row from scratch gave, on word lists closed under composition and on
capped ones alike.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renormlab as rl
from key_oracles import build_system_by_lookup, canonical_keys, last_slot_weights, lookup_rows
from renormlab import norm
from renormlab.norm import build_matrix
from renormlab.tuples import ClassRegistry


def _level_keys(registry, points, parents):
    """The keys of every level, each refined from its parent level's: level
    0 keys the head points, level n > 0 extends row parents[n][t] of level
    n - 1 by points[n][t]."""
    words = np.ones((len(registry.word_maps), len(points[0])), dtype=bool)
    keys = np.empty((len(points[0]), 0), dtype=np.intp)
    out = []
    for n, point in enumerate(points):
        if n:
            keys, words = keys[parents[n]], words[:, parents[n]]
        entry, words = registry.extend_keys(point, words)
        keys = np.column_stack([keys, entry])
        out.append(keys)
    return out


@st.composite
def _word_maps_and_levels(draw):
    # arbitrary index maps, so the word list need not be closed under
    # composition, and a random tree of rows over up to five levels
    n = draw(st.integers(min_value=1, max_value=12))
    index = st.integers(min_value=0, max_value=n - 1)
    maps = draw(st.lists(st.lists(index, min_size=n, max_size=n), min_size=1, max_size=6))
    points, parents = [draw(st.lists(index, min_size=1, max_size=8))], [None]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        size = len(points[-1])
        parents.append(draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=12)))
        points.append(draw(st.lists(index, min_size=len(parents[-1]), max_size=len(parents[-1]))))
    return np.asarray(maps), points, parents


@given(_word_maps_and_levels())
@settings(max_examples=300)
def test_refined_keys_match_block_lexsort_keys(case):
    maps, points, parents = case
    registry = ClassRegistry(maps)
    rows = np.asarray(points[0], dtype=np.intp)[:, None]
    for n, keys in enumerate(_level_keys(registry, points, parents)):
        if n:
            rows = np.column_stack([rows[parents[n]], points[n]])
        assert keys.tolist() == canonical_keys(registry, rows).tolist(), n
        assert [tuple(k) for k in keys.tolist()] == [registry.canonical_key(r) for r in rows.tolist()]


def _plan_points(cfg):
    # the head points, then each plan's new last points and parent rows
    plans = cfg.plans[1:]
    return ([cfg.heads.idx[:, 0], *(p.idx[:, -1] for p in plans)],
            [None, *(p.parent for p in plans)])


def _lexsort_weights(registry, bc, starts, idx, cls, rank):
    # the plan build's class weights as the lexsort path keyed them
    return last_slot_weights(registry, bc, starts, idx)


# (space, word cap of the rotation group or None for its own, depth, gamma cap)
BUILDS = {
    "product depth 3": ("product", None, 3, None),
    "product depth 4": ("product", None, 4, None),
    "product depth 5": ("product", None, 5, None),
    "product word cap 1": ("product", 1, 4, None),
    "product word cap 2": ("product", 2, 4, None),
    "product word cap 3": ("product", 3, 4, None),
    "product word cap 4": ("product", 4, 4, None),
    "product gamma cap 5": ("product", None, 4, 5),
    "line depth 6": ("line", None, 6, None),
}


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_level_keys_build_what_the_lexsort_build_did(build, product_space, rotation_group, line_space):
    kind, cap, depth, gamma_cap = BUILDS[build]
    if kind == "line":
        space, group = line_space, rl.GroupSpec.trivial(line_space)
    else:
        space = product_space
        group = rotation_group if cap is None else rl.GroupSpec(rotation_group.generators, word_cap=cap)
    new = rl.build_config(space, group, C=1.1, depth=depth, gamma_cap=gamma_cap)
    with mock.patch.object(norm, "_class_weights", _lexsort_weights):
        old = rl.build_config(space, group, C=1.1, depth=depth, gamma_cap=gamma_cap)
    assert list(new.registry.to_records(space.points)) == list(old.registry.to_records(space.points))
    assert [p.n for p in new.plans] == [p.n for p in old.plans]
    for a, b in zip(new.plans, old.plans):
        assert a.weights.tobytes() == b.weights.tobytes(), (build, a.n)
    # every level's refined keys are the keys of its rows
    heads, plans = new.heads, new.plans[1:]
    levels = _level_keys(new.registry, *_plan_points(new))
    assert levels[0].tolist() == canonical_keys(new.registry, heads.idx).tolist()
    for keys, plan in zip(levels[1:], plans):
        assert keys.tolist() == canonical_keys(new.registry, plan.idx).tolist(), (build, plan.n)


@pytest.mark.parametrize("name", ["product_cfg", "line_cfg", "product_capped_cfg", "product_word_capped_cfg"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_prefix_classes_match_lookup_rows(name, data, request, fork):
    # tuples past the depth and labels past a gamma cap have segments the
    # registry lacks: both builds must register them with the same ordinals
    cfg = request.getfixturevalue(name)
    old, new = fork(cfg), fork(cfg)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        n = data.draw(st.integers(min_value=1, max_value=cfg.depth + 1))
        start = data.draw(st.integers(min_value=1, max_value=cfg.base_count - n))
        gammas = [data.draw(st.integers(min_value=0, max_value=len(cfg.orbit_of_base(start + j)) - 1))
                  for j in range(n + 1)]
        t = new.tuple_index(start, gammas)
        for j in range(n):
            suffix = np.asarray(t.points[j:], dtype=np.intp)
            expected = [lookup_rows(new.registry, [start + j], suffix[None, : k + 1])[0]
                        for k in range(1, len(suffix))]
            assert new.registry.prefix_classes(start + j, t.points[j:]) == expected, (t, j)
        a, b = build_system_by_lookup(t, old), build_matrix(t, new)
        assert a.lambdas.tobytes() == b.lambdas.tobytes()
        assert a.zeta.tobytes() == b.zeta.tobytes()
    assert list(old.registry.to_records(cfg.space.points)) == list(new.registry.to_records(cfg.space.points))
