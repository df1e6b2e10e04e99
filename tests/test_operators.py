import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renormlab as rl
from renormlab import cli, operators
from renormlab import space as space_mod
from renormlab.operators import (
    ConditionReport,
    SOTVerdict,
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
    remark25_map,
    remark25_sequence,
)


def test_apply_identity(line_space):
    op = identity(line_space)
    f = np.sin(line_space.metric.x)
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
    assert np.max(np.abs(compose(g, h).weight - 1.0)) <= 1e-12


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


@pytest.mark.parametrize("k", [30, 40])
def test_round_trip_slack_scales_with_the_resolution(onepoint_space, k):
    # at n_max 50 the resolution is 2^-50; moving (0,k) onto inf moves its
    # round trip by 2^-k, far beyond 2*resolution even where it is below
    # an absolute 1e-12 (k = 40)
    s = onepoint_space
    fwd = np.arange(s.n)
    fwd[s.index(f"(0,{k})")] = s.index("inf")
    with pytest.raises(ValueError, match=r"round trip displaces 1 points .*\(first: \(0,%d\)\)" % k):
        rl.WeightedComposition(s, np.ones(s.n), fwd, np.arange(s.n))
    assert operators._roundtrip_defects(s, fwd[None], np.arange(s.n)[None]) == [
        frozenset({s.index(f"(0,{k})")})]


def test_a_dyadic_round_trip_allows_exactly_twice_the_resolution(remark_space):
    # remark25 distances are exact, so the same-point rule is 2^-49 at
    # n_max 50: (0,49) sent to (0,50), 2^-49 away, stays the same point;
    # (0,48) sent to (0,49), 2^-48 away, does not
    s = remark_space
    assert s._resolution_tol == s.resolution
    for k, moved in ((48, True), (49, False)):
        fwd = np.arange(s.n)
        fwd[s.index(f"(0,{k})")] = s.index(f"(0,{k + 1})")
        if moved:
            with pytest.raises(ValueError, match=re.escape(f"round trip displaces 1 points beyond 2*resolution "
                                                           f"plus rounding (first: (0,{k}))")):
                rl.WeightedComposition(s, np.ones(s.n), fwd, np.arange(s.n))
        else:
            rl.WeightedComposition(s, np.ones(s.n), fwd, np.arange(s.n))


def _roundtrip_defects_everywhere(space, forward, backward):
    # the round trip measured at every point, the fixed ones included
    n = space.n
    offsets = (np.arange(len(forward)) * n)[:, None]
    idx = np.arange(n)
    gap = np.maximum(space.metric.pair(backward.ravel()[forward + offsets], idx),
                     space.metric.pair(forward.ravel()[backward + offsets], idx))
    far = gap > space.resolution + space._resolution_tol
    return [frozenset(np.flatnonzero(row).tolist()) for row in far]


def _scrambled(n, rng, rows=6):
    # identity maps with a few entries of each side sent anywhere
    fwd, bwd = np.tile(np.arange(n), (2, rows, 1))
    for maps in (fwd, bwd):
        for row in maps:
            at = rng.integers(0, n, size=3)
            row[at] = rng.integers(0, n, size=3)
    return fwd, bwd


def _roundtrip_cases():
    rng = np.random.default_rng(11)
    for n_max in (3, 4, 7, 50):
        sp = rl.builtin_space("remark25", n_max=n_max)
        seq = remark25_sequence(sp)
        yield f"remark25 {n_max}", sp, np.stack([g.forward for g in seq]), np.stack([g.backward for g in seq])
        yield f"remark25 {n_max} scrambled", sp, *_scrambled(sp.n, rng)
    sp = rl.builtin_space("onepoint01N", n_max=50)
    words = onepoint_swap_group(sp, word_cap=2).words()
    yield "onepoint words", sp, np.stack([g.forward for g in words]), np.stack([g.backward for g in words])
    yield "onepoint scrambled", sp, *_scrambled(sp.n, rng)
    # a matrix twin whose diagonal holds values up to the constructor's
    # 1e-12 above a resolution of 1e-13: its fixed points can be defects
    sp = rl.builtin_space("remark25", n_max=7)
    dmat = sp.dmat.copy()
    np.fill_diagonal(dmat, rng.choice([0.0, 1e-13, 1e-12], size=sp.n))
    twin = dataclasses.replace(sp, dmat=dmat, resolution=1e-13, metric_form={"form": "matrix"})
    seq = remark25_sequence(sp)
    idx = np.arange(sp.n)
    yield "matrix twin", twin, np.stack([idx, *(g.forward for g in seq)]), np.stack([idx, *(g.backward for g in seq)])
    yield "matrix twin scrambled", twin, *_scrambled(sp.n, rng)


def test_roundtrip_defects_read_only_moved_points():
    for label, sp, fwd, bwd in _roundtrip_cases():
        got = operators._roundtrip_defects(sp, fwd, bwd)
        assert got == _roundtrip_defects_everywhere(sp, fwd, bwd), label
        if label == "matrix twin":
            # the identity's defects are exactly the points of a large diagonal
            assert got[0] == frozenset(np.flatnonzero(np.diagonal(sp.dmat) == 1e-12).tolist()) != frozenset()
        if "scrambled" in label:
            assert any(got), label


@pytest.mark.parametrize("n_max", [3, 4, 7, 50])
def test_remark25_maps_and_inverses_declare_their_measured_defects(n_max):
    # the inverse's round trips are the map's in the other order, so the
    # map's defects are the inverse's measured ones
    sp = rl.builtin_space("remark25", n_max=n_max)
    for g in remark25_sequence(sp):
        defects = _roundtrip_defects_everywhere(sp, g.forward[None], g.backward[None])[0]
        assert g.allowed_defects == defects
        assert _roundtrip_defects_everywhere(sp, g.backward[None], g.forward[None])[0] == defects
        inv = invert(g)
        assert inv.allowed_defects == defects
        assert np.array_equal(inv.forward, g.backward) and np.array_equal(inv.backward, g.forward)
    assert defects  # row n_max's truncation edge


def test_sot_constant_sequence_passes(product_space, rotation_group):
    g = rotation_group.generators[0]
    verdict = check_sot_convergence([g] * 6, g, list(product_space.exhaustion), 1e-6)
    assert verdict.converges
    assert all(c.passed for c in verdict.conditions)


def test_sot_constant_weighted_sequence_passes(onepoint_space):
    g = onepoint_swap(onepoint_space, 5)
    verdict = check_sot_convergence([g] * 4, g, list(onepoint_space.exhaustion), 1e-9)
    assert verdict.converges


def _remark25_gallery_inputs():
    # the gallery's inputs at n_max 10: its sequence, the exhaustion minus
    # its top compact, and the column tail
    sp = rl.builtin_space("remark25", n_max=10)
    tail = [sp.index(f"(0,{i})") for i in range(3, 11)] + [sp.index("(0,inf)")]
    return sp, remark25_sequence(sp), list(sp.exhaustion[:-1]), sp.compact(tail, "column-tail")


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.01, True, "0.01"])
def test_sot_refuses_an_eps_that_is_not_a_finite_positive_number(eps):
    sp, seq, K_list, _ = _remark25_gallery_inputs()
    cond = {c.name: c.passed for c in check_sot_convergence(seq, identity(sp), K_list, 0.01).conditions}
    assert not cond["inverse_images"]
    with pytest.raises(ValueError, match=re.escape(f"eps must be a finite number > 0, got {eps!r}")):
        check_sot_convergence(seq, identity(sp), K_list, eps)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.5])
def test_equicontinuity_refuses_a_grid_entry_that_is_not_a_finite_positive_number(bad):
    sp, seq, _, tail = _remark25_gallery_inputs()
    maps = [g.backward for g in seq]
    assert not check_local_equicontinuity(maps, tail, (0.5,), sp).equicontinuous
    with pytest.raises(ValueError, match=re.escape(f"moduli grid eps must be a finite number > 0, got {bad!r}")):
        check_local_equicontinuity(maps, tail, (0.5, bad), sp)


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
        karr = K.members
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
                      moreover_detail=detail)


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


def _onepoint_case():
    """Swaps of onepoint01N, whose weights 2 and 1/2 move out along the
    rows, against the identity, on nested sets that grow along both rows."""
    sp = rl.builtin_space("onepoint01N", n_max=9)
    grow = [sp.compact(np.r_[0:m, 9:9 + m], f"C{m}") for m in (1, 3, 6)]
    return sp, [onepoint_swap(sp, n) for n in range(1, 10)], identity(sp), grow + list(sp.exhaustion)


def _remark25_matrix_case():
    """The moved-limit remark25 case on a matrix-form twin of its space,
    whose set distances come from the sweep, not the closed form."""
    sp, seq, limit, nested = _remark25_moved_limit_case()
    twin = dataclasses.replace(sp, metric_form={"form": "matrix"})

    def on_twin(g):
        return operators.WeightedComposition(twin, g.weight, g.forward, g.backward,
                                             allowed_defects=g.allowed_defects)
    return twin, [on_twin(g) for g in seq], on_twin(limit), [twin.compact(K.members, K.label) for K in nested]


_SOT_CASES = [_remark25_case(), _remark25_moved_limit_case(), _rotation_case(), _onepoint_case(),
              _remark25_matrix_case()]


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
    # the default sweep of Metric.set_distances, on a metric that overrides
    # it: row blocks of 1 row, of a few rows, and the default block, none of
    # which divides n
    if gather_bytes is not None:
        monkeypatch.setattr(space_mod, "_GATHER_BYTES", gather_bytes)
    K_list = _repeated_run(remark_space)
    limit = remark25_map(remark_space, 3)
    sets = [limit.backward[K.members] for K in K_list]
    # each set is swept on its own, and the map keeps every compact in size
    for s in sets:
        rows = max(1, space_mod._GATHER_BYTES // (8 * np.unique(s).size))
        assert rows == 1 or remark_space.n % rows != 0
    table = space_mod.Metric.set_distances(remark_space.metric, sets)
    for k, s in enumerate(sets):
        direct = remark_space.dmat[:, np.unique(s)].min(axis=1)
        assert table[:, k].tobytes() == direct.tobytes(), k


def _set_lists(sp):
    """Nested, repeated and non-nested lists of compacts of a dyadic space."""
    K, n = sp.exhaustion, sp.n
    if len(K) > 1:  # remark25
        return [list(K), _repeated_run(sp), [K[5], K[1], K[3], K[3], K[0]]]
    half = (n - 1) // 2  # onepoint01N: (0, k) at k - 1, (1, k) at half + k - 1, inf last
    grow = [sp.compact(np.r_[0:m, half:half + m], f"C{m}") for m in (1, 4, 9)]
    return [grow + [K[0]], [grow[1], grow[1], K[0], grow[0], grow[2]],
            [sp.compact([n - 1], "inf"), sp.compact([0, 3], "pair")]]


@pytest.mark.parametrize("kind", ["remark25", "onepoint01N"])
def test_dyadic_set_distances_equal_the_sweep(kind):
    sp = rl.builtin_space(kind, n_max=20)
    limits = [identity(sp)] + ([remark25_map(sp, 3)] if kind == "remark25" else [onepoint_swap(sp, 4)])
    for K_list, limit in itertools.product(_set_lists(sp), limits):
        sets = [limit.backward[K.members] for K in K_list]
        closed = sp.metric.set_distances(sets)
        swept = space_mod.Metric.set_distances(sp.metric, sets)
        assert closed.shape == swept.shape == (sp.n, len(sets))
        for k in range(len(sets)):
            assert closed[:, k].tobytes() == swept[:, k].tobytes(), (kind, k)


def test_sot_matches_reference_on_repeated_compacts(remark_space):
    seq, lim = remark25_sequence(remark_space), identity(remark_space)
    K_list = _repeated_run(remark_space)
    for eps in (0.01, 0.3):
        assert check_sot_convergence(seq, lim, K_list, eps) == sot_reference(seq, lim, K_list, eps)


def test_sot_gallery_at_n_max_200_builds_no_dense_matrix(monkeypatch):
    # 40,201 points: the matrix would be 12.9 GB; every distance the
    # gallery reads comes from coordinates
    def refuse(metric):
        raise AssertionError(f"dense matrix of {metric.n} points built")

    monkeypatch.setattr(space_mod.Metric, "dense", property(refuse))
    report = cli.task_sot_gallery(rl.builtin_space("remark25", n_max=200), 0.01)
    assert report["ok"]


def test_sot_remark25_explicit_function(remark_space):
    x = np.array([p.startswith("(0,") for p in remark_space.points], dtype=float)  # the column
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
    assert remark_space.metric.pair(int(g.backward[si]), int(g.backward[ti])) >= 0.5


def pointwise_implies_sot(group, seq, limit, eps):
    """Whether the maps converge pointwise and whether the operators
    converge in SOT; the two agree when the group's words are locally
    equicontinuous, so a word family that is not raises, naming the
    witness."""
    space = group.space
    for K in space.exhaustion:
        eq = check_local_equicontinuity(group.word_table()[0], K, (0.5, 0.25, 0.1), space)
        if eq.witnesses:
            _, (mi, s, t) = eq.witnesses[0]
            raise ValueError(f"group family not locally equicontinuous on {K.label or 'K'}: "
                             f"word {mi} separates {s} and {t}")
    viol = [n for n, g in enumerate(seq, start=1) if space.dmat[g.forward, limit.forward].max() > eps]
    pointwise = _tail_threshold(viol, len(seq)) is not None
    sot = check_sot_convergence(seq, limit, list(space.exhaustion), eps).converges
    return {"pointwise": pointwise, "sot": sot, "equivalence_held": pointwise == sot}


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
    circ = product_space.factors[0]
    remark = rl.builtin_space("remark25", n_max=7)
    return {
        "onepoint swaps": onepoint_swap_group(onepoint_space, word_cap=2, count=12),
        "lifted rotations": rotation_group,
        "circle rotations": rl.GroupSpec((circle_rotation(circ, steps=4), circle_rotation(circ, steps=6)),
                                         word_cap=3),
        "line translations": rl.GroupSpec((line_translation(line_space, 0.5),), word_cap=4),
        "remark25 maps": rl.GroupSpec(tuple(remark25_sequence(remark)), word_cap=2),
        "weighted flips": rl.GroupSpec((interval_flip(product_space.factors[1]),
                                        multiplication(product_space.factors[1], 2.0)), word_cap=3),
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


def test_words_do_not_measure_resnapped_composites(monkeypatch):
    # every composite of circle rotations is re-snapped from its summed
    # angle, and the rotation built from it measures its own round trips,
    # so the level measures no block of composites again
    circ = rl.builtin_space("circle", count=12)
    group = rl.GroupSpec((circle_rotation(circ, steps=1), circle_rotation(circ, steps=5)), word_cap=3)
    calls = []
    measure = operators._roundtrip_defects
    monkeypatch.setattr(operators, "_roundtrip_defects",
                        lambda space, fwd, bwd: calls.append(len(fwd)) or measure(space, fwd, bwd))
    words = group.words()
    assert len(words) == 12 and calls == [1] * len(calls)
    assert all(w.form["kind"] == "rotation" for w in words[1:])


def test_lift_acts_on_one_factor(product_space):
    circ, seg = product_space.factors
    rot = circle_rotation(circ, steps=4)
    lifted = lift(rot, product_space, "left")
    nb = seg.n
    for ia in (0, 5):
        for ib in (0, 3):
            assert lifted.forward[ia * nb + ib] == ((ia + 4) % circ.n) * nb + ib
    flip = lift(interval_flip(seg), product_space, "right")
    assert flip.forward[0 * nb + 0] == 0 * nb + (nb - 1)


def test_lift_accepts_an_operator_on_an_equal_separately_built_factor():
    prod = rl.builtin_space("circle_x_interval")
    lifted = lift(circle_rotation(rl.builtin_space("circle", count=48), steps=4), prod, "left")
    own = lift(circle_rotation(prod.factors[0], steps=4), prod, "left")
    assert lifted.space is prod
    assert np.array_equal(lifted.forward, own.forward) and np.array_equal(lifted.weight, own.weight)
    seg = rl.builtin_space("line", step=1 / 15, window=(0, 1))
    assert np.array_equal(lift(interval_flip(seg), prod, "right").forward,
                          lift(interval_flip(prod.factors[1]), prod, "right").forward)
    with pytest.raises(ValueError, match="operator does not act on the left factor"):
        lift(circle_rotation(rl.builtin_space("circle", count=24), steps=2), prod, "left")
    twin = dataclasses.replace(seg, metric_form={"form": "matrix"})
    with pytest.raises(ValueError, match="operator does not act on the right factor"):
        lift(identity(twin), prod, "right")


def _same_space_pairs():
    """(operator, operator on a separately built equal space, operators on
    other spaces): a circle of 12 and the line on [0, 1] with step 0.5."""
    line = rl.builtin_space("line", step=0.5, window=(0, 1))
    twin = dataclasses.replace(line, metric_form={"form": "matrix"})
    circle = rl.builtin_space("circle", count=12)
    return [
        (circle_rotation(circle, steps=1), circle_rotation(rl.builtin_space("circle", count=12), steps=2),
         [circle_rotation(rl.builtin_space("circle", count=24), steps=2)]),
        (line_translation(line, 0.5), line_translation(rl.builtin_space("line", step=0.5, window=(0, 1)), 0.5),
         [identity(twin)]),
    ]


def test_compose_and_groups_accept_equal_spaces_and_refuse_others():
    for g, h, others in _same_space_pairs():
        assert np.array_equal(compose(g, h).forward, h.forward[g.forward])
        words = rl.GroupSpec((g, h), word_cap=2).word_table()[0]
        assert len(words) > 1
        for other in others:
            with pytest.raises(ValueError, match="mismatched spaces"):
                compose(g, other)
            with pytest.raises(ValueError, match="mismatched spaces"):
                rl.GroupSpec((g, other), word_cap=2).word_table()


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_or_offset_is_refused_naming_it(angle):
    with pytest.raises(ValueError, match=f"circle_rotation angle must be a finite number, got {angle!r}"):
        circle_rotation(rl.builtin_space("circle", count=12), angle=angle)
    with pytest.raises(ValueError, match=f"line_translation offset must be a finite number, got {angle!r}"):
        line_translation(rl.builtin_space("line", step=0.5, window=(0, 1)), angle)


@pytest.mark.parametrize("shape", [lambda n: (n + 5,), lambda n: (n - 1,), lambda n: (n, 1), lambda n: ()],
                         ids=["longer", "shorter", "column", "scalar"])
def test_apply_refuses_a_function_of_another_shape(line_space, shape):
    # unchecked, a longer function is cut short, a column broadcasts to
    # (n, n) and a shorter one is indexed past its end
    n = line_space.n
    f = np.zeros(shape(n))
    with pytest.raises(ValueError, match=re.escape(f"function of shape {f.shape} for {n} points")):
        line_translation(line_space, 0.5).apply(f)


@pytest.mark.parametrize("kwargs", [{"angle": 1.0, "steps": 3}, {}])
def test_circle_rotation_takes_exactly_one_of_angle_and_steps(kwargs):
    circle = rl.builtin_space("circle", count=12)
    got = f"got angle={kwargs.get('angle')!r}, steps={kwargs.get('steps')!r}"
    with pytest.raises(ValueError, match=f"circle_rotation needs one of angle and steps, {got}"):
        circle_rotation(circle, **kwargs)


def test_unbounded_weight_rejected(line_space):
    n = line_space.n
    idx = np.arange(n)
    with pytest.raises(ValueError, match="positive and finite"):
        rl.WeightedComposition(line_space, np.full(n, np.inf), idx, idx)


def test_remark25_map_measures_its_round_trip_defects_once(remark_space, monkeypatch):
    # the measured defects are both the declared ones and the constructor's
    # check, so each map gathers them once
    calls = []
    measure = operators._roundtrip_defects
    monkeypatch.setattr(operators, "_roundtrip_defects",
                        lambda space, fwd, bwd, **at: calls.append(len(fwd)) or measure(space, fwd, bwd, **at))
    seq = remark25_sequence(remark_space)
    assert calls == [1] * len(seq) == [1] * remark_space.metric_form["n_max"]
    assert seq[-1].allowed_defects  # row n_max's truncation edge


def test_remark25_maps_measure_round_trips_at_every_point_they_move(remark_space, monkeypatch):
    # a remark25 map measures round trips only at the points its maps move,
    # and finds there what the whole array holds
    seen = []
    measure = operators._roundtrip_defects

    def spy(space, fwd, bwd, at=None):
        seen.append((space, fwd, bwd, at))
        return measure(space, fwd, bwd, at=at)

    monkeypatch.setattr(operators, "_roundtrip_defects", spy)
    ops = remark25_sequence(remark_space)
    assert len(seen) == len(ops)
    for op, (space, fwd, bwd, at) in zip(ops, seen):
        idx = np.arange(space.n)
        assert np.isin(np.flatnonzero((fwd[0] != idx) | (bwd[0] != idx)), at).all(), op.label
        assert measure(space, fwd, bwd)[0] == measure(space, fwd, bwd, at=at)[0] == op.allowed_defects, op.label


@pytest.mark.parametrize("bad", [True, 2.5, 0, -1, "3", None])
def test_group_refuses_a_word_cap_that_is_not_an_integer_at_least_1(line_space, bad):
    gen = identity(line_space)
    with pytest.raises(ValueError, match=re.escape(f"group word_cap must be an integer >= 1, got {bad!r}")):
        rl.GroupSpec((gen,), word_cap=bad)
    assert rl.GroupSpec((gen,), word_cap=np.int64(3)).word_cap == 3


@pytest.mark.parametrize("bad", [0, -1, 2.5, True, "4"])
def test_onepoint_swap_group_refuses_a_bad_count_by_name(bad):
    sp = rl.builtin_space("onepoint01N", n_max=6)
    with pytest.raises(ValueError, match=re.escape(f"group count must be an integer >= 1, got {bad!r}")):
        onepoint_swap_group(sp, count=bad)
    # the count is checked before the space, as the scenario loader checks it
    with pytest.raises(ValueError, match=re.escape(f"group count must be an integer >= 1, got {bad!r}")):
        onepoint_swap_group(rl.builtin_space("circle", count=6), count=bad)
    assert len(onepoint_swap_group(sp).generators) == 6
    assert len(onepoint_swap_group(sp, count=2).generators) == 2
    assert len(onepoint_swap_group(sp, count=6).generators) == 6
    # a count above n_max is refused, not clipped
    with pytest.raises(ValueError, match=re.escape("group count must be at most the space's n_max 6, got 9")):
        onepoint_swap_group(sp, count=9)
