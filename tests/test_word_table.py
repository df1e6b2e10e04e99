"""The one word table of a group against the per-word and per-cap loops
that its consumers ran before they read it."""

import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renormlab as rl
from group_oracles import op_key
from renormlab import cli
from renormlab import io as rio
from renormlab import operators
from renormlab.bounded import group_norm, m_weight
from renormlab.operators import (
    WeightedComposition,
    _compose_forms,
    _roundtrip_defects,
    circle_rotation,
    identity,
    interval_flip,
    line_translation,
    multiplication,
    onepoint_swap,
    remark25_sequence,
)
from renormlab.orbits import orbit_closure


def _map_key(forward, weight):
    return forward.tobytes() + np.round(weight, 12).tobytes()


def _label(h, g):
    return f"{h}*{g}" if (h and g) else (h or g)


def _snapped(space, form, label):
    # a word declares the round-trip defects of its own maps, re-snapped
    # or not
    if form is not None and form.get("kind") == "rotation":
        op = circle_rotation(space, angle=form["angle"])
    elif form is not None and form.get("kind") == "translation":
        op = line_translation(space, form["offset"])
    else:
        return None
    op.label = label
    op.allowed_defects = _roundtrip_defects(space, op.forward, op.backward)
    return op


def _composite(h, g, weight, forward, form):
    # snapping errors of non-isometric maps amplify under composition; the
    # composite declares its own round-trip defects, measured once, and
    # none of its factors'
    backward = h.backward[g.backward]
    defects = _roundtrip_defects(h.space, forward, backward)
    return WeightedComposition(
        space=h.space,
        weight=weight,
        forward=forward,
        backward=backward,
        label=_label(h.label, g.label),
        form=form,
        allowed_defects=defects,
        measured_defects=defects,
    )


def _compose(h, g):
    # the scalar product of one pair: re-snapped from a rotation or
    # translation form, else composed point by point
    form = _compose_forms(h.form, g.form)
    snapped = _snapped(h.space, form, _label(h.label, g.label))
    if snapped is not None:
        return snapped
    return _composite(h, g, h.weight * g.weight[h.forward], g.forward[h.forward], form)


def _enumerate_per_word(group):
    # the breadth-first enumeration that built one WeightedComposition per
    # new word; returns, for each c, the words of length <= c
    if not all(rl.space.same_space(g.space, group.space) for g in group.generators):
        raise ValueError("mismatched spaces")
    e = identity(group.space)
    out = [e]
    seen = {op_key(e)}
    frontier = [e]
    prefixes = [[e]]
    for _ in range(group.word_cap):
        nxt = []
        for w in frontier:
            for g in group.generators:
                # a composite is built, and its defects measured, only
                # when its key is new; re-snapped forms are keyed as built
                form = _compose_forms(w.form, g.form)
                c = _snapped(w.space, form, _label(w.label, g.label))
                if c is None:
                    weight, forward = w.weight * g.weight[w.forward], g.forward[w.forward]
                    k = _map_key(forward, weight)
                else:
                    k = op_key(c)
                if k in seen:
                    continue
                seen.add(k)
                if c is None:
                    c = _composite(w, g, weight, forward, form)
                out.append(c)
                nxt.append(c)
        frontier = nxt
        prefixes.append(list(out))
    return prefixes


def _assert_matches_oracle(group, name):
    # the table of every cap up to the group's, a fresh group's at each cap
    # below it, with its row counts, and the word objects, bitwise
    prefixes = _enumerate_per_word(group)
    forward, weight = group.word_table()
    for c, oracle in enumerate(prefixes):
        fwd_c, wt_c = (forward, weight) if c == group.word_cap else _capped(group, max(c, 1)).word_table()
        if c == 0:  # the identity alone, the first row of every table
            fwd_c, wt_c = fwd_c[:1], wt_c[:1]
        assert len(fwd_c) == len(wt_c) == len(oracle), (name, c)
        assert np.array_equal(fwd_c, np.stack([w.forward for w in oracle])), (name, c)
        assert fwd_c.dtype == np.intp and wt_c.dtype == np.float64, (name, c)
        # bitwise: equal float bytes, so -0.0 and NaN payloads count too
        assert wt_c.tobytes() == np.stack([w.weight for w in oracle]).tobytes(), (name, c)
    words = group.words()
    assert len(words) == len(prefixes[-1]), name
    for w, o in zip(words, prefixes[-1]):
        assert (w.label, w.form, w.allowed_defects) == (o.label, o.form, o.allowed_defects), (name, o.label)
        for field in ("forward", "weight", "backward"):
            a, b = getattr(w, field), getattr(o, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, o.label, field)
        # the objects own their arrays: writing through one leaves the table
        assert not np.shares_memory(w.forward, forward) and not np.shares_memory(w.weight, weight), name


def _orbit_closure_loop(group, t):
    # one pass over the words, each image kept unless it repeats one
    base = tuple(int(i) for i in t)
    defect_sets = [g.allowed_defects for g in group.generators]
    clipped = False
    kept = []
    for w in group.words():
        img = tuple(int(w.forward[i]) for i in base)
        if any(i in ds for ds in defect_sets for i in img):
            clipped = True
        if img not in kept:
            kept.append(img)
    if base not in kept:
        kept.append(base)
    return tuple(sorted(kept)), clipped


def _capped(group, cap):
    # a fresh group capped at cap: its words are a prefix of the group's
    return rl.GroupSpec(group.generators, word_cap=cap)


def _m_weight_loop(group):
    # one weight stack per cap
    trace, m, bound = [], None, 0.0
    for c in range(1, group.word_cap + 1):
        weights = np.stack([w.weight for w in _capped(group, c).words()])
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


@pytest.fixture(scope="module")
def capped(gallery):
    return {name: {c: _capped(group, c) for c in range(1, group.word_cap + 1)}
            for name, group in gallery.items()}


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_table_consumers_match_per_word_loops(gallery, bounded, capped, data):
    name = data.draw(st.sampled_from(sorted(gallery)))
    group = gallery[name]
    n = group.space.n
    t = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    cap = data.draw(st.integers(1, group.word_cap))
    orb = orbit_closure(capped[name][cap], t)
    samples, clipped = _orbit_closure_loop(capped[name][cap], t)
    assert orb.samples == samples, (name, t, cap)
    assert orb.window_clipped == clipped, (name, t, cap)

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # sparse bumps put the sup on a few points and their images
    x = rng.uniform(-1, 1, size=n) * (rng.uniform(size=n) < data.draw(st.sampled_from([0.05, 1.0])))
    assert group_norm(x, bounded[name]).sup_over_words == _sup_over_words_loop(group, x)


def test_orbit_closure_reads_the_table_as_the_loop_does(gallery):
    # rot12 at its cap 6 and at cap 4, swaps, the trivial line, and line
    # translations, whose edge images clip
    groups = {**gallery, "rot12 cap 4": _capped(gallery["rot12 lift"], 4)}
    rng = np.random.default_rng(0)
    for name, group in groups.items():
        n = group.space.n
        tuples = [(), (0,), (n // 2,), (n - 1, 0), *map(tuple, rng.integers(0, n, size=(30, 3)).tolist())]
        seen = set()
        for t in tuples:
            orb = orbit_closure(group, t)
            assert (orb.samples, orb.window_clipped) == _orbit_closure_loop(group, t), (name, t)
            seen.add(orb.window_clipped)
        assert seen == ({False, True} if name == "line translations" else {False}), name


def test_orbit_keeps_distinct_images_closer_than_the_scale(onepoint_space, swap_group):
    # near inf the swapped pair (0, 50), (1, 50) is closer than twice the
    # resolution, and each is the other's image: both are in either orbit
    i0, i1 = onepoint_space.index("(0,50)"), onepoint_space.index("(1,50)")
    i2 = onepoint_space.index("(0,49)")
    assert orbit_closure(swap_group, (i0,)).samples == ((i0,), (i1,))
    assert orbit_closure(swap_group, (i1,)).samples == ((i0,), (i1,))
    assert onepoint_space.dmat[i0, i1] < 2 * onepoint_space.resolution
    for t in [(i1, i2), (i2, i1), (i1, i0)]:
        assert orbit_closure(swap_group, t).samples == _orbit_closure_loop(swap_group, t)[0], t


def test_orbit_image_on_a_declared_defect_clips(onepoint_space):
    # a declared defect met only by an image closer than the scale
    i0, i1 = onepoint_space.index("(0,50)"), onepoint_space.index("(1,50)")
    g = onepoint_swap(onepoint_space, 50)
    clipped = WeightedComposition(onepoint_space, g.weight, g.forward, g.backward,
                                  label="g_50", allowed_defects=frozenset({i1}))
    group = rl.GroupSpec((clipped,), word_cap=2)
    orb = orbit_closure(group, (i0,))
    assert orb.samples == ((i0,), (i1,))
    assert orb.window_clipped
    assert (orb.samples, orb.window_clipped) == _orbit_closure_loop(group, (i0,))


def test_m_weight_matches_per_cap_stacks(gallery):
    # doubling weights make every cap's minimum and maximum differ
    seg = rl.builtin_space("line", step=0.25, window=(0, 1))
    doubling = rl.GroupSpec((multiplication(seg, 2.0),), word_cap=3)
    for name, group in {**gallery, "doubling": doubling}.items():
        for cap in range(1, group.word_cap + 1):
            prefix = _capped(group, cap)
            bgn = m_weight(prefix)
            m, bound, trace = _m_weight_loop(prefix)
            assert np.array_equal(bgn.m, m), (name, cap)
            assert bgn.C_G == bound, (name, cap)
            assert bgn.cap_trace == trace, (name, cap)


def test_words_of_each_cap_prefix_the_one_enumeration(gallery):
    for name, group in gallery.items():
        full = group.words()
        forward, weight = group.word_table()
        assert group.words() is full, name
        assert len(forward) == len(weight) == len(full), name
        for c in range(1, group.word_cap + 1):
            # a fresh group capped at c enumerates exactly a prefix of the
            # words and of the table's rows
            fresh = _capped(group, c)
            fwd_c, wt_c = fresh.word_table()
            words = full[: len(fwd_c)]
            assert [op_key(w) for w in fresh.words()] == [op_key(w) for w in words], (name, c)
            assert np.array_equal(fwd_c, forward[: len(fwd_c)]), (name, c)
            assert wt_c.tobytes() == weight[: len(wt_c)].tobytes(), (name, c)
            assert np.array_equal(fwd_c, np.stack([w.forward for w in words])), (name, c)
            assert np.array_equal(wt_c, np.stack([w.weight for w in words])), (name, c)


def _more_groups(product_space):
    # snapped rotations, measured round-trip defects and composed weights
    circ, seg = product_space.factors
    return {
        "circle rotations": rl.GroupSpec((circle_rotation(circ, steps=4), circle_rotation(circ, steps=6)),
                                         word_cap=3),
        "remark25 maps": rl.GroupSpec(tuple(remark25_sequence(rl.builtin_space("remark25", n_max=7))),
                                      word_cap=2),
        "weighted flips": rl.GroupSpec((interval_flip(seg), multiplication(seg, 2.0)), word_cap=3),
    }


def test_batched_table_matches_per_word_oracle(gallery, product_space):
    groups = {**gallery, **_more_groups(product_space)}
    assert any(w.allowed_defects for w in groups["remark25 maps"].words()[len(groups["remark25 maps"].generators):])
    for name, group in groups.items():
        for cap in range(1, group.word_cap + 1):
            # a fresh group builds the table for this cap; its words are then
            # built from the table
            _assert_matches_oracle(rl.GroupSpec(group.generators, word_cap=cap), f"{name} cap {cap}")


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_batched_table_matches_oracle_on_swap_subsets(onepoint_space, data):
    gens = [onepoint_swap(onepoint_space, m)
            for m in data.draw(st.lists(st.integers(1, 50), min_size=1, max_size=8, unique=True))]
    cap = data.draw(st.integers(1, 3))
    # one candidate per block up to all of a level in one block
    block = data.draw(st.sampled_from([1, 3 * onepoint_space.n, operators._WORD_BLOCK]))
    with mock.patch.object(operators, "_WORD_BLOCK", block):
        _assert_matches_oracle(rl.GroupSpec(tuple(gens), word_cap=cap), (sorted(g.label for g in gens), cap))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_first_bad_composite_weight_raises_as_the_oracle(onepoint_space, scale):
    # level 2 squares the weight: it overflows to inf or underflows to 0
    group = rl.GroupSpec((multiplication(onepoint_space, scale),), word_cap=2)
    with pytest.raises(ValueError) as oracle:
        _enumerate_per_word(group)
    assert "must be positive and finite" in str(oracle.value)
    for call in (group.word_table, group.words):
        with pytest.raises(ValueError) as batched:
            call()
        assert str(batched.value) == str(oracle.value)
    # a good level 1 of the same group
    _assert_matches_oracle(rl.GroupSpec(group.generators, word_cap=1), scale)


@pytest.fixture(scope="module")
def compose_pools(rotation_group, product_space, line_space, onepoint_space, tmp_path_factory):
    # operators on one space per pool: snapped forms, edge defects, weights
    # that overflow or underflow when squared, and reloaded empty labels
    circ, seg = product_space.factors
    folder = tmp_path_factory.mktemp("ops")

    def reloaded(op):
        path = folder / f"{len(list(folder.iterdir()))}.json"
        rio.save_operator(op, path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "label": ""}))
        return rio.load_operator(path, op.space)

    words = rotation_group.words()
    pools = {
        "rot12 lift": [*words[:6], operators.lift(interval_flip(seg), product_space, "right"),
                       reloaded(words[3]), multiplication(product_space, 1.5)],
        "plain circle": [circle_rotation(circ, angle=1.0), circle_rotation(circ, angle=-0.3),
                         circle_rotation(circ, steps=5), reloaded(circle_rotation(circ, angle=1.0)),
                         reloaded(circle_rotation(circ, steps=2)), multiplication(circ, 2.0)],
        "line edges": [line_translation(line_space, 0.5), line_translation(line_space, -7.25),
                       line_translation(line_space, 19.995), reloaded(line_translation(line_space, 3.0)),
                       multiplication(line_space, 0.5), identity(line_space)],
        "onepoint swaps": [onepoint_swap(onepoint_space, 1), onepoint_swap(onepoint_space, 50),
                           reloaded(onepoint_swap(onepoint_space, 7)), multiplication(onepoint_space, 1e200),
                           multiplication(onepoint_space, 1e-200)],
    }
    for ops in pools.values():
        ops.extend(operators.invert(op) for op in list(ops))
    return pools


@pytest.mark.filterwarnings("ignore:overflow encountered")
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_compose_matches_the_scalar_product(compose_pools, data):
    pool = compose_pools[data.draw(st.sampled_from(sorted(compose_pools)))]
    _assert_compose_matches(data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool)))


def _assert_compose_matches(h, g):
    try:
        oracle = _compose(h, g)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            rl.compose(h, g)
        assert "must be positive and finite" in str(exc)
        assert str(got.value) == str(exc)
        return
    got = rl.compose(h, g)
    for field in ("forward", "backward", "weight"):
        a, b = getattr(got, field), getattr(oracle, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert (got.form, got.allowed_defects, op_key(got)) == (oracle.form, oracle.allowed_defects, op_key(oracle))
    assert op_key(got) == _map_key(oracle.forward, oracle.weight)
    # one label rule, re-snapped or not: an empty label drops out
    assert got.label == oracle.label == _label(h.label, g.label)


def _collide(forward, weight):
    # every row's fingerprint is 0, so every pair of entries collides
    return np.zeros(len(forward), dtype=np.uint64)


def _block_cases(group):
    # a fingerprint for every row at 0; one candidate per block; and one
    # frontier word's candidates per block, so that the two orders of two
    # commuting generators, g_i g_j and g_j g_i, fall in two blocks
    n, k = group.space.n, len(group.generators)
    return {
        "every fingerprint 0": mock.patch.object(operators, "_fingerprints", _collide),
        "one row per block": mock.patch.object(operators, "_WORD_BLOCK", 1),
        "a duplicate pair split across blocks": mock.patch.object(operators, "_WORD_BLOCK", k * n),
    }


@pytest.fixture(scope="module")
def every_group(gallery, product_space):
    # every builtin group (rotations lifted and on their circle, swaps, the
    # trivial group), line translations, snapped rotations, measured
    # defects and composed weights
    circ = product_space.factors[0]
    groups = {**gallery, **_more_groups(product_space),
              "rot12 on its circle": cli.make_group({"builtin": "rotation"}, circ)}
    assert groups["rot12 on its circle"].generators[0].form["kind"] == "rotation"
    return groups


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("case", ["every fingerprint 0", "one row per block", "a duplicate pair split across blocks"])
def test_table_matches_the_oracle_under_collisions_and_block_edges(every_group, case):
    for name, group in every_group.items():
        for cap in range(1, group.word_cap + 1):
            # a capped group builds its own table, under the patch
            with _block_cases(group)[case]:
                _assert_matches_oracle(rl.GroupSpec(group.generators, word_cap=cap), (name, cap, case))


def test_a_split_duplicate_pair_is_found_across_blocks(swap_group):
    # g_1 g_2 and g_2 g_1 are candidates of the frontier words g_1 and g_2,
    # so with one frontier word per block they are composed in two blocks
    # and only the dedupe over the level merges them
    group = rl.GroupSpec(swap_group.generators[:3], word_cap=2)
    with _block_cases(group)["a duplicate pair split across blocks"]:
        labels = [w.label for w in group.words()]
    assert "id*g_1*g_2" in labels and "id*g_2*g_1" not in labels
    _assert_matches_oracle(group, "three swaps")


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("case", ["every fingerprint 0", "one row per block"])
def test_compose_matches_the_scalar_product_under_collisions_and_block_edges(compose_pools, case):
    for name, pool in compose_pools.items():
        for h, g in itertools.product(pool, repeat=2):
            with _block_cases(rl.GroupSpec((h,), word_cap=1))[case]:
                _assert_compose_matches(h, g)


def test_colliding_keys_are_confirmed_apart(onepoint_space):
    # under a fingerprint that maps every row to 0, a weighted word, the
    # identity's map with another weight, is not merged with the identity
    doubling = rl.GroupSpec((multiplication(onepoint_space, 2.0),), word_cap=2)
    with mock.patch.object(operators, "_fingerprints", _collide):
        words = doubling.words()
    assert [w.label for w in words] == ["id", "id*mult", "id*mult^-1", "id*mult*mult", "id*mult^-1*mult^-1"]
    assert len({op_key(w) for w in words}) == len(words)
