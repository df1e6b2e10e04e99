import re
from unittest import mock

import numpy as np
import pytest

import renormlab as rl
from renormlab import cli
from renormlab import space as space_mod
from renormlab.operators import circle_rotation
from renormlab.orbits import equivalent, orbit_closure, select_dense_points

import build_oracles


def test_trivial_group_orbit_is_singleton(line_space):
    G = rl.GroupSpec.trivial(line_space)
    orb = orbit_closure(G, (42,))
    assert orb.samples == ((42,),)
    assert orb.base in orb.samples


def test_empty_tuple_is_its_own_orbit_and_equivalent_to_itself(onepoint_space, swap_group):
    circle = rl.builtin_space("circle", count=12)
    for group in (rl.GroupSpec.trivial(circle), swap_group):
        assert orbit_closure(group, ()).samples == ((),)
        assert equivalent((), (), group) is True
    with pytest.raises(ValueError, match="length mismatch"):
        equivalent((), (0,), swap_group)


def test_rational_rotation_orbit_size():
    circ = rl.builtin_space("circle", count=48)
    G = rl.GroupSpec((circle_rotation(circ, steps=4),), word_cap=6)
    orb = orbit_closure(G, (0,))
    assert len(orb) == 12


def test_swap_group_orbit(onepoint_space, swap_group):
    i0 = onepoint_space.index("(0,9)")
    i1 = onepoint_space.index("(1,9)")
    orb = orbit_closure(swap_group, (i0,))
    assert {s[0] for s in orb.samples} == {i0, i1}


def test_equivalent_reflexive_and_symmetric(product_cfg):
    group = product_cfg.group
    pts = [product_cfg.base_points[i] for i in range(4)]
    for p in pts:
        assert equivalent((p,), (p,), group)
    for p in pts:
        for q in pts:
            assert equivalent((p,), (q,), group) == equivalent((q,), (p,), group)


def test_equivalent_rotated_tuple():
    circ = rl.builtin_space("circle", count=48)
    G = rl.GroupSpec((circle_rotation(circ, steps=4),), word_cap=6)
    assert equivalent((8, 12), (0, 4), G)
    assert not equivalent((1, 5), (0, 4), G)
    assert not equivalent((8, 13), (0, 4), G)  # one slot on the orbit is not enough


def test_equivalent_transitive_on_orbit_samples():
    circ = rl.builtin_space("circle", count=48)
    G = rl.GroupSpec((circle_rotation(circ, steps=4),), word_cap=6)
    base = (0, 9)
    orb = orbit_closure(G, base)
    samples = list(orb.samples)[:5]
    for s in samples:
        for u in samples:
            assert equivalent(s, base, G) and equivalent(base, u, G)
            assert equivalent(s, u, G)


def test_distinct_points_below_an_absolute_slack_stay_inequivalent(onepoint_space):
    # (0,k) and (1,k) lie 2^-k apart, below 1e-12 from k = 40 on; the
    # default tolerance's slack scales with the distances, so only the
    # resolution 2^-50 (and float error far below 2^-48) can merge them
    G = rl.GroupSpec.trivial(onepoint_space)
    idx = onepoint_space.index
    for k in range(30, 49):
        s, t = (idx(f"(0,{k})"),), (idx(f"(1,{k})"),)
        assert not equivalent(s, t, G), k
        assert equivalent(s, s, G), k


def test_dyadic_column_points_stay_apart_from_inf(remark_space):
    # remark25 distances are exact, so "within the resolution" is the
    # resolution itself: (0,49) lies 2^-49 from inf, twice the resolution
    G = rl.GroupSpec.trivial(remark_space)
    idx = remark_space.index
    assert not equivalent((idx("(0,49)"),), (idx("(0,inf)"),), G)
    assert equivalent((idx("(0,inf)"),), (idx("(0,inf)"),), G)
    big = rl.builtin_space("remark25", n_max=200)
    G = rl.GroupSpec.trivial(big)
    assert not equivalent((big.index("(0,50)"),), (big.index("(0,200)"),), G)


def _equivalent_by_closure(s, t, group):
    # the forward test that the metric read replaced: the orbit_closure
    # samples of t, read through the dense matrix
    space = group.space
    d = space.dmat[np.asarray(orbit_closure(group, t).samples), np.asarray(s)]
    return bool(d.max(axis=1).min() < space._resolution_tol)


def _tuple_pairs(group, rng, size, count):
    # pairs (s, t) of tuples: s a word image of t (equivalent), s = t with
    # one slot moved to a nearby point, and s drawn at random
    space = group.space
    table = group.word_table()[0]
    for _ in range(count):
        t = rng.integers(0, space.n, size=size)
        image = table[int(rng.integers(0, len(table))), t]
        moved = image.copy()
        slot = int(rng.integers(0, size))
        moved[slot] = int(np.argsort(space.dmat[moved[slot]])[1])
        for s in (image, moved, rng.integers(0, space.n, size=size)):
            yield tuple(s.tolist()), tuple(t.tolist())


def _onepoint_pairs(space):
    idx = space.index
    pts = [idx(f"({side},{k})") for k in range(30, 49) for side in (0, 1)]
    return [((p,), (q,)) for p in pts for q in pts]


def test_equivalent_agrees_with_the_orbit_closure_test(product_space, rotation_group, swap_group,
                                                       line_space, onepoint_space):
    rng = np.random.default_rng(0)
    capped = rl.GroupSpec(rotation_group.generators, word_cap=4)
    cases = [(group, list(_tuple_pairs(group, rng, size, 60)))
             for group in (rotation_group, capped) for size in (1, 2, 3)]
    n = onepoint_space.n
    cases.append((swap_group, [((p,), (q,)) for p in range(n) for q in range(0, n, 7)]))
    trivial_line = rl.GroupSpec.trivial(line_space)
    cases.append((trivial_line, list(_tuple_pairs(trivial_line, rng, 2, 100))))
    for group in (rl.GroupSpec.trivial(onepoint_space), swap_group):
        cases.append((group, _onepoint_pairs(onepoint_space)))
    for group, pairs in cases:
        hits = [equivalent(s, t, group) for s, t in pairs]
        assert hits == [_equivalent_by_closure(s, t, group) for s, t in pairs], group.label
        assert any(hits) and not all(hits), group.label


@pytest.mark.parametrize("name, group_spec", [("remark25", {"builtin": "trivial"}),
                                              ("onepoint01N", {"builtin": "onepoint_swaps"})])
def test_equivalent_builds_no_dense_matrix(name, group_spec):
    def refuse(metric):
        raise AssertionError(f"{type(metric).__name__} built its dense matrix")

    space = rl.builtin_space(name, n_max=50)
    group = cli.make_group(group_spec, space)
    p, q = space.index("(0,40)"), space.index("(1,40)")
    with mock.patch.object(space_mod.Metric, "dense", property(refuse)):
        assert equivalent((p, q), (p, q), group)
        assert not equivalent((p,), (q,), rl.GroupSpec.trivial(space))
        assert equivalent((p,), (q,), group) == (name == "onepoint01N")


def test_selected_base_points_inequivalent(line_cfg):
    group = line_cfg.group
    for i in range(4):
        for j in range(i + 1, 5):
            assert not equivalent(
                (line_cfg.base_points[i],), (line_cfg.base_points[j],), group
            )


def _covered_ball(orbit, space, probe_radius):
    """The first point whose ball of probe_radius the single-point orbit
    sample, fattened by the resolution, covers; None when the orbit is
    nowhere dense at that scale."""
    orb = sorted({s[0] for s in orbit.samples})
    near_orbit = space.dmat[:, orb].min(axis=1) <= space.resolution + 1e-15
    covered = ~((space.dmat <= probe_radius + 1e-15) & ~near_orbit).any(axis=1)
    return space.points[int(np.argmax(covered))] if covered.any() else None


def test_nowhere_dense_trivial_singleton(line_space):
    G = rl.GroupSpec.trivial(line_space)
    orb = orbit_closure(G, (1000,))
    assert _covered_ball(orb, line_space, 0.1) is None


def test_nowhere_dense_fails_for_snapped_irrational_rotation():
    circ = rl.builtin_space("circle", count=48)
    G = rl.GroupSpec((circle_rotation(circ, angle=1.0),), word_cap=400)
    orb = orbit_closure(G, (0,))
    assert _covered_ball(orb, circ, 0.2) is not None


def test_nowhere_dense_product_rotation(product_space, rotation_group):
    orb = orbit_closure(rotation_group, (0,))
    assert _covered_ball(orb, product_space, 0.2) is None


def test_select_trivial_group_takes_enumeration(line_space):
    G = rl.GroupSpec.trivial(line_space)
    chosen, audit = select_dense_points(line_space, G, count=10)
    assert chosen == list(range(10))
    assert all(a["distance"] == 0.0 for a in audit)


def test_select_respects_radius_audit(line_space):
    G = rl.GroupSpec.trivial(line_space)
    _, audit = select_dense_points(line_space, G, count=25)
    for a in audit:
        assert a["distance"] <= a["radius"] + 1e-12
        assert a["radius"] == max(2.0 ** (-a["step"]), line_space.resolution)


def test_select_product_rotation_stops_at_orbit_count(product_space, rotation_group):
    chosen, _ = select_dense_points(product_space, rotation_group)
    assert len(chosen) == 64  # 4 circle residues x 16 interval levels
    with pytest.raises(ValueError, match="resolution too coarse"):
        select_dense_points(product_space, rotation_group, count=65)


def _select_every_step(space, group, count=None):
    # the selection that runs every step, past the point where every
    # sample point lies within 1e-9 of a picked orbit, read from the full
    # matrix: the oracle of the ball queries
    if count is not None and count > space.n:
        raise ValueError(f"count {count} exceeds the {space.n} points of space {space.name!r}")
    dmat = space.dmat
    table = group.word_table()[0]
    chosen, audit = [], []
    orbit_dist = np.full(space.n, np.inf)
    target = count if count is not None else space.n
    step = 0
    for ref in range(space.n):
        if len(chosen) >= target:
            break
        step += 1
        radius = max(2.0 ** (-step), space.resolution)
        cand = np.nonzero(dmat[ref] <= radius + 1e-15)[0]
        cand = cand[np.lexsort((cand, dmat[ref][cand]))]
        pick = next((int(c) for c in cand if orbit_dist[c] >= 1e-9), None)
        if pick is None:
            if count is not None:
                raise ValueError(f"resolution too coarse for disjointness at step {step}")
            continue
        chosen.append(pick)
        orbit = list(dict.fromkeys(table[:, pick].tolist()))
        orbit_dist = np.minimum(orbit_dist, dmat[:, orbit].min(axis=1))
        audit.append({"step": step, "reference": space.points[ref], "selected": space.points[pick],
                      "distance": float(dmat[ref, pick]), "radius": radius})
    if count is not None and len(chosen) < count:
        raise ValueError(f"resolution too coarse for disjointness at step {step + 1}")
    return chosen, audit


def _selection_cases():
    # every builtin under the trivial group, and the rotation and swap
    # groups with closed and capped word lists
    for name in rl.space.BUILTIN_NAMES:
        space = rl.builtin_space(name)
        yield name, rl.GroupSpec.trivial(space)
        if name in ("circle", "circle_x_interval"):
            for cap in (6, 4, 2):
                yield f"{name} rot12 cap {cap}", cli.make_group({"builtin": "rotation", "word_cap": cap}, space)
        if name == "onepoint01N":
            for cap in (2, 1):
                yield f"{name} swaps cap {cap}", cli.make_group({"builtin": "onepoint_swaps", "word_cap": cap}, space)


def _outcome(fn, space, group, count):
    try:
        return fn(space, group, count=count)
    except ValueError as e:
        return str(e)


def test_select_stops_once_every_point_is_blocked():
    # same picks, audit and refusal as the selection that runs every step
    stopped_early = 0
    for label, group in _selection_cases():
        space = group.space
        chosen, audit = select_dense_points(space, group)
        assert (chosen, audit) == _select_every_step(space, group), label
        stopped_early += audit[-1]["step"] < space.n
        for count in (1, len(chosen) // 2 + 1, len(chosen), len(chosen) + 1):
            got = _outcome(select_dense_points, space, group, count)
            assert got == _outcome(_select_every_step, space, group, count), (label, count)
        # a count above the sample size is refused before any step
        refusal = "count" if len(chosen) == space.n else "resolution too coarse for disjointness at step"
        assert got.startswith(refusal), label
    assert stopped_early


def test_base_orbits_disjoint_only_under_a_closed_word_list(product_cfg, product_word_capped_cfg):
    # each pick lies off the earlier picks' orbits; under the closed rot12
    # list the orbits never share an entry, under its 9-word cap they do
    for cfg, expected in ((product_cfg, (768, 0)), (product_word_capped_cfg, (1152, 384))):
        earlier: set[int] = set()
        for b, enum in zip(cfg.base_points, cfg.orbit_enums):
            assert b not in earlier
            earlier.update(enum)
        entries = sum(len(e) for e in cfg.orbit_enums)
        assert (entries, entries - len(earlier)) == expected


def test_select_swap_group_avoids_paired_points(onepoint_space, swap_group):
    chosen, _ = select_dense_points(onepoint_space, swap_group)
    ids = [onepoint_space.points[c] for c in chosen]
    for pid in ids:
        if pid.startswith("(0,"):
            assert pid.replace("(0,", "(1,") not in ids
        if pid.startswith("(1,"):
            assert pid.replace("(1,", "(0,") not in ids


def test_orbit_closure_invariant_under_generator(product_space, rotation_group):
    g = rotation_group.generators[0]
    base = (3, 100)
    moved = tuple(int(g.forward[i]) for i in base)
    orb1 = orbit_closure(rotation_group, base)
    orb2 = orbit_closure(rotation_group, moved)
    assert orb1.samples == orb2.samples


def test_select_takes_a_candidate_at_exactly_radius_plus_slack():
    # step 2's reference "b" lies in the swap orbit of step 1's pick "a"; its
    # only candidate "c" is exactly fl(0.25 + 1e-15) away, which passes the
    # test d <= radius + 1e-15
    edge = 0.25 + 1e-15
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, edge], [1.0, edge, 0.0]])
    space = rl.SampledSpace(name="three", points=("a", "b", "c"), dmat=d,
                            exhaustion=(space_mod.CompactSet(range(3), "all"),), resolution=0.25,
                            isolated=np.zeros(3, dtype=bool), metric_form={"form": "matrix"})
    swap = rl.WeightedComposition(space, np.ones(3), np.array([1, 0, 2]), np.array([1, 0, 2]))
    group = rl.GroupSpec((swap,), word_cap=2)
    chosen, audit = select_dense_points(space, group)
    assert (chosen, audit) == _select_every_step(space, group)
    assert chosen == [0, 2] and audit[1]["distance"] == edge


def test_select_picks_an_unblocked_reference_at_distance_0_on_a_dusty_diagonal():
    # a given matrix may carry a diagonal up to 1e-12, which the constructor
    # sets to 0: "a" is its own pick at distance 0, not "b" at 1e-13, and
    # its 1e-9 ball blocks "b"
    d = np.array([[1e-12, 1e-13], [1e-13, 1e-12]])
    space = rl.SampledSpace(name="two", points=("a", "b"), dmat=d,
                            exhaustion=(space_mod.CompactSet(range(2), "all"),), resolution=0.25,
                            isolated=np.zeros(2, dtype=bool), metric_form={"form": "matrix"})
    assert np.diagonal(space.dmat).tolist() == [0.0, 0.0]
    group = rl.GroupSpec.trivial(space)
    chosen, audit = select_dense_points(space, group)
    assert (chosen, audit) == _select_every_step(space, group)
    assert chosen == [0] and audit[0]["distance"] == 0.0


def test_select_blocks_the_points_whose_distance_to_an_orbit_is_below_1e_9():
    # d("b", "a") < 1e-9 <= d("a", "b"), within the constructor's symmetry
    # tolerance, so both become their mean, below 1e-9: picking "a" blocks
    # "b", so step 2 picks "c", not "b"
    near = 1e-9 - 5e-13
    d = np.array([[0.0, 1e-9, 0.2], [near, 0.0, 0.2], [0.2, 0.2, 0.0]])
    space = rl.SampledSpace(name="three", points=("a", "b", "c"), dmat=d,
                            exhaustion=(space_mod.CompactSet(range(3), "all"),), resolution=0.25,
                            isolated=np.zeros(3, dtype=bool), metric_form={"form": "matrix"})
    group = rl.GroupSpec.trivial(space)
    chosen, audit = select_dense_points(space, group)
    assert (chosen, audit) == _select_every_step(space, group)
    assert chosen == [0, 2]


def test_select_refuses_a_count_above_the_sample_size_before_any_step(line_space):
    # named with both numbers, before a single ball is queried
    G = rl.GroupSpec.trivial(line_space)
    with mock.patch.object(type(line_space.metric), "ball", side_effect=AssertionError("a step ran")):
        with pytest.raises(ValueError, match=re.escape("count 2002 exceeds the 2001 points of space 'line'")):
            select_dense_points(line_space, G, count=2002)
    assert len(select_dense_points(line_space, G, count=2001)[0]) == 2001


@pytest.mark.parametrize("bad", [2.5, 0, -1, True, "3"])
def test_select_dense_points_refuses_a_count_that_is_not_an_integer_at_least_1(line_space, bad):
    G = rl.GroupSpec.trivial(line_space)
    with pytest.raises(ValueError, match=re.escape(f"count must be an integer >= 1, got {bad!r}")):
        select_dense_points(line_space, G, count=bad)
    assert len(select_dense_points(line_space, G, count=np.int64(3))[0]) == 3


def _index_cases():
    # the builtins and groups above, a translation group on the line (its
    # steps find blocked references and search their balls), small
    # remark25 and onepoint01N spaces whose points are at least 2^-20 apart
    # (index blocking), and matrix-form twins of a line and of remark25
    yield from _selection_cases()
    line = rl.builtin_space("line", step=0.05, window=(-2, 2))
    shift = rl.operators.line_translation(line, 0.25)
    yield "line translations", rl.GroupSpec((shift,), word_cap=4)
    for name in ("remark25", "onepoint01N"):
        space = rl.builtin_space(name, n_max=20)
        yield f"{name} n_max 20", rl.GroupSpec.trivial(space)
    for name, params in (("line", {"step": 0.25, "window": (-2, 2)}), ("remark25", {"n_max": 40})):
        closed = rl.builtin_space(name, **params)
        matrix = rl.SampledSpace(name=f"{name} matrix", points=closed.points, dmat=closed.dmat,
                                 exhaustion=closed.exhaustion, resolution=closed.resolution,
                                 isolated=closed.isolated, metric_form={"form": "matrix"})
        yield f"{name} matrix", rl.GroupSpec.trivial(matrix)


def test_select_by_index_matches_the_ball_path_oracle():
    # the picks, audit and refusals of the selection that blocks every
    # pick's orbit by one ball query, on every metric kind, both paths taken
    paths = set()
    for label, group in _index_cases():
        space = group.space
        paths.add(space.metric.separation > 1e-9)
        chosen, audit = select_dense_points(space, group)
        assert (chosen, audit) == build_oracles.select_dense_points(space, group), label
        for count in (1, len(chosen) // 2 + 1, len(chosen), len(chosen) + 1):
            got = _outcome(select_dense_points, space, group, count)
            assert got == _outcome(build_oracles.select_dense_points, space, group, count), (label, count)
    assert paths == {True, False}


def test_select_by_index_matches_the_oracle_on_the_fixture_configs(line_cfg, product_cfg, product_word_capped_cfg):
    for cfg in (line_cfg, product_cfg, product_word_capped_cfg):
        base, audit = build_oracles.select_dense_points(cfg.space, cfg.group)
        assert (list(cfg.base_points), cfg.selection_audit) == (base, audit)


def test_select_by_index_queries_no_ball_where_points_are_apart(line_space):
    # the line's references are never blocked under the trivial group, so
    # no step reads a distance; remark25's column is 2^-50 apart at its
    # bottom, so there every pick's orbit is a ball query
    G = rl.GroupSpec.trivial(line_space)
    with mock.patch.object(type(line_space.metric), "ball", side_effect=AssertionError("ball query")):
        chosen, _ = select_dense_points(line_space, G)
    assert chosen == list(range(line_space.n))
    remark = rl.builtin_space("remark25", n_max=50)
    assert remark.metric.separation == 2.0 ** -50
    with mock.patch.object(type(remark.metric), "ball", wraps=remark.metric.ball) as ball:
        chosen, _ = select_dense_points(remark, rl.GroupSpec.trivial(remark))
    assert ball.call_count >= len(chosen)
