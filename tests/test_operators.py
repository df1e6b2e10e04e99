import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renormlab as rl
from renormlab import operators
from renormlab.operators import (
    ConditionReport,
    SOTVerdict,
    _preimage_distances,
    _tail_threshold,
    check_local_equicontinuity,
    check_sot_convergence,
    circle_rotation,
    compose,
    identity,
    interval_flip,
    invert,
    lift,
    line_translation,
    multiplication,
    onepoint_swap,
    onepoint_swap_group,
    pointwise_implies_sot,
    remark25_map,
    remark25_sequence,
)


def test_apply_identity(line_space):
    op = identity(line_space)
    f = np.sin(line_space.aux["coords"])
    assert np.array_equal(op.apply(f), f)


def test_apply_swap_on_constant(onepoint_space):
    g = onepoint_swap(onepoint_space, 7)
    y = g.apply(np.ones(onepoint_space.n))
    assert y[onepoint_space.index("(0,7)")] == 2.0
    assert y[onepoint_space.index("(1,7)")] == 0.5
    mask = np.ones(onepoint_space.n, dtype=bool)
    mask[[onepoint_space.index("(0,7)"), onepoint_space.index("(1,7)")]] = False
    assert np.all(y[mask] == 1.0)


def test_swap_is_involution(onepoint_space):
    g = onepoint_swap(onepoint_space, 3)
    gg = compose(g, g)
    assert np.array_equal(gg.forward, np.arange(onepoint_space.n))
    assert np.allclose(gg.weight, 1.0)
    assert np.allclose(gg.apply(np.ones(onepoint_space.n)), 1.0)


def test_compose_with_inverse_is_identity(product_space, rotation_group):
    g = rotation_group.generators[0]
    gi = invert(g)
    e = compose(g, gi)
    disp = product_space.dmat[e.forward, np.arange(product_space.n)]
    assert disp.max() <= 2 * product_space.resolution
    assert np.max(np.abs(e.weight - 1.0)) < 1e-12


def test_compose_weight_one_closed(product_space, rotation_group):
    g = rotation_group.generators[0]
    h = rotation_group.generators[1]
    assert compose(g, h).is_weight_one


def test_compose_swaps_combines_weights(onepoint_space):
    g2, g5 = onepoint_swap(onepoint_space, 2), onepoint_swap(onepoint_space, 5)
    c = compose(g2, g5)
    for n in (2, 5):
        assert c.weight[onepoint_space.index(f"(0,{n})")] == 2.0
        assert c.weight[onepoint_space.index(f"(1,{n})")] == 0.5
        i0, i1 = onepoint_space.index(f"(0,{n})"), onepoint_space.index(f"(1,{n})")
        assert c.forward[i0] == i1 and c.forward[i1] == i0


def test_compose_associative_on_sampled_triples(onepoint_space):
    gens = [onepoint_swap(onepoint_space, n) for n in (1, 2, 3)]
    tol = 2 * onepoint_space.resolution
    for a, b, c in itertools.product(gens, repeat=3):
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        disp = onepoint_space.dmat[left.forward, right.forward]
        assert disp.max() <= tol
        assert np.max(np.abs(left.weight - right.weight)) < 1e-12


def test_weight_one_preserves_sup_norm(product_space, rotation_group):
    rng = np.random.default_rng(5)
    for w in rotation_group.words()[:6]:
        f = rng.uniform(-2, 2, size=product_space.n)
        assert np.max(np.abs(w.apply(f))) == np.max(np.abs(f))


def test_operator_validation_rejects_bad_roundtrip(line_space):
    n = line_space.n
    fwd = np.arange(n)
    bwd = np.roll(np.arange(n), 50)  # displaces everything by 0.5
    with pytest.raises(ValueError, match="round trip"):
        rl.WeightedComposition(line_space, np.ones(n), fwd, bwd)


def test_sot_constant_sequence_passes(product_space, rotation_group):
    g = rotation_group.generators[0]
    verdict = check_sot_convergence([g] * 6, g, list(product_space.exhaustion), 1e-6)
    assert verdict.converges
    assert all(c.passed for c in verdict.conditions)


def test_sot_constant_weighted_sequence_passes(onepoint_space):
    g = onepoint_swap(onepoint_space, 5)
    verdict = check_sot_convergence([g] * 4, g, list(onepoint_space.exhaustion), 1e-9)
    assert verdict.converges


@pytest.mark.parametrize("n_max", [3, 6, 12])
def test_sot_remark25_conditions_at_every_stage(n_max):
    sp = rl.builtin_space("remark25", n_max=n_max)
    seq = remark25_sequence(sp)
    verdict = check_sot_convergence(seq, identity(sp), list(sp.exhaustion[:-1]), 0.3)
    cond = {c.name: c for c in verdict.conditions}
    assert cond["phi_uniform"].passed
    assert cond["weight_uniform"].passed
    assert not cond["inverse_images"].passed
    assert cond["inverse_images"].witness is not None
    assert not verdict.converges


def sot_reference(seq, limit, K_list, eps):
    """The per-compact, per-stage checker: a fresh min over the preimage
    columns for every compact and one reduction per stage and condition."""
    space = limit.space
    weight_bound = max(float(g.weight.max()) for g in seq)
    horizon = len(seq)
    names = ("phi_uniform", "weight_uniform", "inverse_images")
    witnesses = {name: [] for name in names}
    thresholds = {name: {} for name in names}
    gap_phi = [space.dmat[g.forward, limit.forward] for g in seq]
    gap_w = [np.abs(g.weight - limit.weight) for g in seq]
    for K in K_list:
        karr = K.as_array()
        dist_to_inv_K = space.dmat[:, limit.backward[karr]].min(axis=1)
        v = {name: [] for name in names}
        for n0, g in enumerate(seq, start=1):
            for name, gap in (("phi_uniform", gap_phi[n0 - 1][karr]),
                              ("weight_uniform", gap_w[n0 - 1][karr]),
                              ("inverse_images", dist_to_inv_K[g.backward[karr]])):
                if gap.max() > eps:
                    v[name].append(n0)
                    witnesses[name].append((n0, K.label, space.points[int(karr[int(gap.argmax())])]))
        for name in names:
            thresholds[name][K.label] = _tail_threshold(v[name], horizon)
    reports = []
    for name in names:
        th = thresholds[name]
        passed = all(t is not None for t in th.values())
        witness = min(witnesses[name]) if (not passed and witnesses[name]) else None
        reports.append(ConditionReport(name=name, passed=passed, thresholds=th, witness=witness))
    inv_maps = [g.backward for g in seq]
    moreover, detail = True, "inverse family locally equicontinuous on all supplied compacts"
    for K in K_list:
        eq = check_local_equicontinuity(inv_maps, K, (eps,), space=space)
        if eq.witnesses:
            g_i, s, t = eq.witnesses[0][1]
            moreover = False
            detail = (f"inverse family not equicontinuous on {K.label or 'K'}: "
                      f"member {g_i} maps {s},{t} apart")
            break
    return SOTVerdict(converges=all(r.passed for r in reports), conditions=reports,
                      weight_bound=weight_bound, moreover_applicable=moreover,
                      moreover_detail=detail, horizon=horizon)


def _remark25_case():
    """remark25 at small n_max: its own exhaustion, identity limit."""
    sp = rl.builtin_space("remark25", n_max=7)
    return sp, remark25_sequence(sp), identity(sp), list(sp.exhaustion)


def _remark25_moved_limit_case():
    """remark25 with a non-identity limit, whose preimages of the nested
    exhaustion are nested too, but not the compacts themselves."""
    sp = rl.builtin_space("remark25", n_max=7)
    return sp, remark25_sequence(sp), remark25_map(sp, 3), list(sp.exhaustion)


def _rotation_case():
    """Shrinking rotations of a circle against a fixed non-identity rotation,
    on nested arcs."""
    circ = rl.builtin_space("circle", count=40)
    seq = [circle_rotation(circ, steps=5 + max(0, 6 - n)) for n in range(1, 10)]
    arcs = [circ.compact(range(10 - k, 14 + 2 * k), f"arc{k}") for k in range(5)]
    return circ, seq, circle_rotation(circ, steps=5), arcs + list(circ.exhaustion)


_SOT_CASES = [_remark25_case(), _remark25_moved_limit_case(), _rotation_case()]


@st.composite
def _sot_inputs(draw):
    sp, seq, limit, nested = draw(st.sampled_from(_SOT_CASES))
    order = draw(st.sampled_from(["nested", "reversed", "shuffled", "repeated", "subsets"]))
    if order == "nested":
        K_list = nested[:draw(st.integers(1, len(nested)))]
    elif order == "reversed":
        K_list = nested[::-1]
    elif order == "shuffled":
        K_list = draw(st.permutations(nested))
    elif order == "repeated":
        K_list = draw(st.lists(st.sampled_from(nested), min_size=1, max_size=8))
    else:
        K_list = [sp.compact(m, f"S{i}") for i, m in enumerate(draw(st.lists(
            st.sets(st.integers(0, sp.n - 1), min_size=1, max_size=12), min_size=1, max_size=5)))]
    stages = draw(st.integers(1, len(seq)))
    eps = draw(st.sampled_from([1e-9, 0.01, 0.1, 0.2, 0.3, 0.6, 1.5]))
    return seq[:stages], limit, K_list, eps


@given(_sot_inputs())
@settings(max_examples=200, deadline=None)
def test_sot_matches_per_compact_reference(inputs):
    seq, limit, K_list, eps = inputs
    assert check_sot_convergence(seq, limit, K_list, eps) == sot_reference(seq, limit, K_list, eps)


def test_sot_matches_reference_on_the_gallery_exhaustion(remark_space):
    seq, lim = remark25_sequence(remark_space), identity(remark_space)
    K_list = list(remark_space.exhaustion[:-1])
    for eps in (0.01, 0.3):
        assert check_sot_convergence(seq, lim, K_list, eps) == sot_reference(seq, lim, K_list, eps)


def _repeated_run(sp):
    # a nested run with repeats, a compact that is not nested (a new run),
    # then a second run with a repeat
    K = sp.exhaustion
    return [K[0], K[0], K[4], K[4], K[4], K[2], K[9], K[9], K[1]]


@pytest.mark.parametrize("gather_bytes", [None, 1, 8 * 1000, 8 * 76 * 7])
def test_preimage_table_matches_direct_minimum(remark_space, monkeypatch, gather_bytes):
    # row blocks of 1 row, of a few rows, and the default block, none of
    # which divides n
    if gather_bytes is not None:
        monkeypatch.setattr(operators, "_GATHER_BYTES", gather_bytes)
    K_list = _repeated_run(remark_space)
    limit = remark25_map(remark_space, 3)
    karrs = [K.as_array() for K in K_list]
    # the three runs end at K[4], K[9] and K[1], each compact of which the
    # map keeps in size
    for karr in (karrs[4], karrs[7], karrs[8]):
        rows = max(1, operators._GATHER_BYTES // (8 * np.unique(limit.backward[karr]).size))
        assert rows == 1 or remark_space.n % rows != 0
    table = _preimage_distances(remark_space.dmat, limit.backward, karrs)
    for k, karr in enumerate(karrs):
        direct = remark_space.dmat[:, np.unique(limit.backward[karr])].min(axis=1)
        assert table[:, k].tobytes() == direct.tobytes(), k


def test_sot_matches_reference_on_repeated_compacts(remark_space):
    seq, lim = remark25_sequence(remark_space), identity(remark_space)
    K_list = _repeated_run(remark_space)
    for eps in (0.01, 0.3):
        assert check_sot_convergence(seq, lim, K_list, eps) == sot_reference(seq, lim, K_list, eps)


def test_sot_remark25_explicit_function(remark_space):
    x = (np.asarray(remark_space.aux["first"]) == 0).astype(float)
    for g in remark25_sequence(remark_space):
        assert np.max(np.abs(g.apply(x) - x)) == 1.0


def test_sot_shrinking_rotations_pass():
    circ = rl.builtin_space("circle", count=64)
    seq = [circle_rotation(circ, steps=max(0, 8 - n)) for n in range(1, 13)]
    verdict = check_sot_convergence(seq, identity(circ), list(circ.exhaustion), 0.05)
    assert verdict.converges
    assert verdict.moreover_applicable


def test_equicontinuity_isometries_delta_equals_eps():
    circ = rl.builtin_space("circle", count=32)
    fam = [circle_rotation(circ, steps=s) for s in range(1, 6)]
    rep = check_local_equicontinuity([g.forward for g in fam], circ.top_exhaustion, (0.5, 0.25, 0.1), circ)
    assert rep.equicontinuous
    for eps, delta in rep.table:
        assert delta >= eps - 1e-12


def test_equicontinuity_translations_on_line(line_space):
    fam = [line_translation(line_space, c) for c in (-1.0, -0.5, 0.5, 1.0)]
    K = line_space.compact(range(600, 1400), "mid")  # away from the clamped edges
    rep = check_local_equicontinuity([g.forward for g in fam], K, (0.5, 0.25, 0.1), line_space)
    assert rep.equicontinuous
    for eps, delta in rep.table:
        assert delta >= eps - 1e-12


def test_equicontinuity_remark25_inverse_family_fails(remark_space):
    seq = remark25_sequence(remark_space)
    tail = [remark_space.index(f"(0,{i})") for i in range(3, 51)]
    tail.append(remark_space.index("(0,inf)"))
    rep = check_local_equicontinuity(
        [g.backward for g in seq], remark_space.compact(tail, "tail"),
        (0.5,), space=remark_space,
    )
    assert not rep.equicontinuous
    eps, (member, s, t) = rep.witnesses[0]
    assert eps == 0.5
    # the witness pair is re-checkable
    g = seq[member]
    si, ti = remark_space.index(s), remark_space.index(t)
    assert remark_space.d(int(g.backward[si]), int(g.backward[ti])) >= 0.5


def test_pointwise_lemma_rotations():
    circ = rl.builtin_space("circle", count=64)
    G = rl.GroupSpec((circle_rotation(circ, steps=8),), word_cap=4)
    seq = [circle_rotation(circ, steps=max(0, 8 - 2 * n)) for n in range(1, 10)]
    rep = pointwise_implies_sot(G, seq, identity(circ), eps=0.05)
    assert rep["pointwise"] and rep["sot"] and rep["equivalence_held"]


def test_pointwise_lemma_constant_sequence(product_space, rotation_group):
    g = rotation_group.generators[0]
    rep = pointwise_implies_sot(rotation_group, [g] * 5, g, eps=1e-6)
    assert rep["pointwise"] and rep["sot"] and rep["equivalence_held"]


def test_pointwise_lemma_remark25_precondition_error():
    sp = rl.builtin_space("remark25", n_max=12)
    seq = remark25_sequence(sp)
    G = rl.GroupSpec(tuple(seq[:4]), word_cap=1)
    with pytest.raises(ValueError, match="not locally equicontinuous"):
        pointwise_implies_sot(G, seq, identity(sp), eps=0.05)


def test_word_enumeration_deterministic(onepoint_space):
    g1 = onepoint_swap_group(onepoint_space, word_cap=2, count=6)
    g2 = onepoint_swap_group(onepoint_space, word_cap=2, count=6)
    w1 = [w.key() for w in g1.words()]
    w2 = [w.key() for w in g2.words()]
    assert w1 == w2
    assert len(w1) == 1 + 6 + 15  # identity, swaps, unordered pairs


def _words_loop(group, cap):
    # the enumeration that composed every (word, generator) pair before
    # deduplicating by key
    e = identity(group.space)
    out, seen, frontier = [e], {e.key()}, [e]
    for _ in range(cap):
        nxt = []
        for w in frontier:
            for g in group.generators:
                c = compose(w, g)
                if c.key() not in seen:
                    seen.add(c.key())
                    out.append(c)
                    nxt.append(c)
        frontier = nxt
        if not frontier:
            break
    return out


def _word_groups(onepoint_space, product_space, rotation_group, line_space):
    circ = product_space.aux["a"]
    remark = rl.builtin_space("remark25", n_max=7)
    return {
        "onepoint swaps": onepoint_swap_group(onepoint_space, word_cap=2, count=12),
        "lifted rotations": rotation_group,
        "circle rotations": rl.GroupSpec((circle_rotation(circ, steps=4), circle_rotation(circ, steps=6)),
                                         word_cap=3),
        "line translations": rl.GroupSpec((line_translation(line_space, 0.5),), word_cap=4),
        "remark25 maps": rl.GroupSpec(tuple(remark25_sequence(remark)), word_cap=2),
        "weighted flips": rl.GroupSpec((interval_flip(product_space.aux["b"]),
                                        multiplication(product_space.aux["b"], 2.0)), word_cap=3),
    }


def test_words_match_compose_every_pair_loop(onepoint_space, product_space, rotation_group, line_space):
    for name, group in _word_groups(onepoint_space, product_space, rotation_group, line_space).items():
        fast = rl.GroupSpec(group.generators, word_cap=group.word_cap).words()
        slow = _words_loop(group, group.word_cap)
        assert [w.label for w in fast] == [w.label for w in slow], name
        assert [w.key() for w in fast] == [w.key() for w in slow], name
        assert [w.allowed_defects for w in fast] == [w.allowed_defects for w in slow], name
        assert [w.form for w in fast] == [w.form for w in slow], name
        assert all(np.array_equal(a.backward, b.backward) for a, b in zip(fast, slow)), name


def test_words_measure_each_new_composite_once(onepoint_space, monkeypatch):
    from renormlab import operators

    group = onepoint_swap_group(onepoint_space, word_cap=2)
    calls = []
    measure = operators._roundtrip_defects
    # composites are measured a level block at a time: count measured rows
    monkeypatch.setattr(operators, "_roundtrip_defects",
                        lambda space, fwd, bwd: calls.append(len(fwd)) or measure(space, fwd, bwd))
    words = group.words()
    # the identity plus one measured row per distinct composite, none again
    # when the word objects are built
    assert len(words) == 1 + 50 + 50 * 49 // 2  # identity, swaps, unordered pairs
    assert sum(calls) == len(words)


def test_lift_acts_on_one_factor(product_space):
    circ, seg = product_space.aux["a"], product_space.aux["b"]
    rot = circle_rotation(circ, steps=4)
    lifted = lift(rot, product_space, "left")
    nb = seg.n
    for ia in (0, 5):
        for ib in (0, 3):
            assert lifted.forward[ia * nb + ib] == ((ia + 4) % circ.n) * nb + ib
    flip = lift(interval_flip(seg), product_space, "right")
    assert flip.forward[0 * nb + 0] == 0 * nb + (nb - 1)


def test_unbounded_weight_rejected(line_space):
    n = line_space.n
    idx = np.arange(n)
    with pytest.raises(ValueError, match="positive and finite"):
        rl.WeightedComposition(line_space, np.full(n, np.inf), idx, idx)
