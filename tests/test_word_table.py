"""The one word table of a group against the per-word and per-cap loops
that its consumers ran before they read it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renormlab as rl
from renormlab.bounded import group_norm, m_weight
from renormlab.operators import WeightedComposition, line_translation, multiplication, onepoint_swap
from renormlab.orbits import orbit_closure, tuple_distance


def _orbit_closure_loop(group, t, cap=None):
    # one pass over the words, each image compared with every kept one
    space = group.space
    base = tuple(int(i) for i in t)
    tol = 2 * space.resolution * (1 - 1e-9)
    defect_sets = [g.allowed_defects for g in group.generators]
    clipped = False
    kept = []
    for w in group.words(cap):
        img = tuple(int(w.forward[i]) for i in base)
        if any(i in ds for ds in defect_sets for i in img):
            clipped = True
        if all(img != k and tuple_distance(space, img, k) >= tol for k in kept):
            kept.append(img)
    if base not in kept:
        kept.append(base)
    return tuple(sorted(kept)), clipped


def _m_weight_loop(group, cap):
    # one weight stack per cap
    trace, m, bound = [], None, 0.0
    for c in range(1, cap + 1):
        weights = np.stack([w.weight for w in group.words(c)])
        m = weights.min(axis=0)
        bound = float(weights.max())
        trace.append((c, float(m.min())))
    return m, bound, trace


def _sup_over_words_loop(group, x):
    return max(float(np.max(np.abs(w.apply(x)))) for w in group.words())


@pytest.fixture(scope="module")
def gallery(swap_group, rotation_group, line_space):
    # the three gallery groups, and line translations, whose clamped edges
    # are declared defects that clip orbits
    return {
        "onepoint swaps": swap_group,
        "rot12 lift": rotation_group,
        "trivial line": rl.GroupSpec.trivial(line_space),
        "line translations": rl.GroupSpec((line_translation(line_space, 0.5),), word_cap=4),
    }


@pytest.fixture(scope="module")
def bounded(gallery):
    return {name: m_weight(group) for name, group in gallery.items()}


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_table_consumers_match_per_word_loops(gallery, bounded, data):
    name = data.draw(st.sampled_from(sorted(gallery)))
    group = gallery[name]
    n = group.space.n
    t = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    cap = data.draw(st.one_of(st.none(), st.integers(0, group.word_cap)))
    orb = orbit_closure(group, t, cap)
    samples, clipped = _orbit_closure_loop(group, t, cap)
    assert orb.samples == samples, (name, t, cap)
    assert orb.window_clipped == clipped, (name, t, cap)

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # sparse bumps put the sup on a few points and their images
    x = rng.uniform(-1, 1, size=n) * (rng.uniform(size=n) < data.draw(st.sampled_from([0.05, 1.0])))
    assert group_norm(x, bounded[name]).sup_over_words == _sup_over_words_loop(group, x)


def test_orbit_dedupe_keeps_the_first_image_within_the_scale(onepoint_space, swap_group):
    # near inf the swapped pair (0, 50), (1, 50) is closer than twice the
    # resolution: the image met first in word order, the base itself, is kept
    i0, i1 = onepoint_space.index("(0,50)"), onepoint_space.index("(1,50)")
    i2 = onepoint_space.index("(0,49)")
    assert orbit_closure(swap_group, (i0,)).samples == ((i0,),)
    assert orbit_closure(swap_group, (i1,)).samples == ((i1,),)
    for t in [(i1, i2), (i2, i1), (i1, i0)]:
        assert orbit_closure(swap_group, t).samples == _orbit_closure_loop(swap_group, t)[0], t


def test_orbit_dropped_image_still_clips(onepoint_space):
    # a declared defect met only by an image the scale dedupe drops
    i0, i1 = onepoint_space.index("(0,50)"), onepoint_space.index("(1,50)")
    g = onepoint_swap(onepoint_space, 50)
    clipped = WeightedComposition(onepoint_space, g.weight, g.forward, g.backward,
                                  label="g_50", allowed_defects=frozenset({i1}))
    group = rl.GroupSpec((clipped,), word_cap=2)
    orb = orbit_closure(group, (i0,))
    assert orb.samples == ((i0,),)
    assert orb.window_clipped
    assert (orb.samples, orb.window_clipped) == _orbit_closure_loop(group, (i0,))


def test_m_weight_matches_per_cap_stacks(gallery):
    # doubling weights make every cap's minimum and maximum differ
    seg = rl.builtin_space("line", step=0.25, window=(0, 1))
    doubling = rl.GroupSpec((multiplication(seg, 2.0),), word_cap=3)
    for name, group in {**gallery, "doubling": doubling}.items():
        for cap in range(1, group.word_cap + 1):
            bgn = m_weight(group, word_cap=cap)
            m, bound, trace = _m_weight_loop(group, cap)
            assert np.array_equal(bgn.m, m), (name, cap)
            assert bgn.C_G == bound, (name, cap)
            assert bgn.cap_trace == trace, (name, cap)


def test_words_of_each_cap_prefix_the_one_enumeration(gallery):
    for name, group in gallery.items():
        full = group.words()
        forward, weight = group.word_table()
        assert group.words() is full and group.words(group.word_cap) is full, name
        for c in range(group.word_cap + 1):
            words = group.words(c)
            assert group.words(c) is words, (name, c)
            assert words == full[: len(words)], (name, c)
            # a fresh group capped at c enumerates exactly that prefix
            fresh = rl.GroupSpec(group.generators, word_cap=max(c, 1)).words(c)
            assert [w.key() for w in fresh] == [w.key() for w in words], (name, c)
            fwd_c, wt_c = group.word_table(c)
            assert np.shares_memory(fwd_c, forward) and np.shares_memory(wt_c, weight), (name, c)
            assert np.array_equal(fwd_c, np.stack([w.forward for w in words])), (name, c)
            assert np.array_equal(wt_c, np.stack([w.weight for w in words])), (name, c)
        with pytest.raises(ValueError, match="word cap"):
            group.words(group.word_cap + 1)
