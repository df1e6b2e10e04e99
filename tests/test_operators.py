import dataclasses
import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renormlab as rl
from group_oracles import op_key
from renormlab import cli, operators
from renormlab import space as space_mod
from renormlab.operators import (
    ConditionReport,
    SOTVerdict,
    _roundtrip_defects,
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
    assert operators._roundtrip_defects(s, fwd, np.arange(s.n)) == frozenset({s.index(f"(0,{k})")})


@pytest.mark.parametrize("which,entry", [("forward", -8), ("forward", 8), ("backward", -1), ("backward", 8)])
def test_operator_refuses_a_map_entry_outside_the_space(which, entry):
    # a negative entry wrapped to a point from the end (-8 read point 0 of
    # an 8-point circle), and n escaped as an IndexError from the round trip
    circ = rl.builtin_space("circle", count=8)
    maps = {"forward": np.arange(8), "backward": np.arange(8)}
    maps[which][7] = entry
    with pytest.raises(ValueError, match=re.escape(f"{which} map sends point 'c007' to {entry}, outside 0..7")):
        rl.WeightedComposition(circ, np.ones(8), maps["forward"], maps["backward"])


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
    idx = np.arange(space.n)
    gap = np.maximum(space.metric.pair(backward[forward], idx), space.metric.pair(forward[backward], idx))
    return frozenset(np.flatnonzero(gap > space.resolution + space._resolution_tol).tolist())


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
    # a matrix twin given a diagonal dust up to the constructor's 1e-12,
    # above a resolution of 1e-13, which the constructor sets to 0
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
        got = [operators._roundtrip_defects(sp, f, b) for f, b in zip(fwd, bwd)]
        assert got == [_roundtrip_defects_everywhere(sp, f, b) for f, b in zip(fwd, bwd)], label
        if label == "matrix twin":
            # the dust is gone, so the identity displaces no point
            assert not np.diagonal(sp.dmat).any() and got[0] == frozenset()
        if "scrambled" in label:
            assert any(got), label


@pytest.mark.parametrize("n_max", [3, 4, 7, 50])
def test_remark25_maps_and_inverses_declare_their_measured_defects(n_max):
    # the inverse's round trips are the map's in the other order, so the
    # map's defects are the inverse's measured ones
    sp = rl.builtin_space("remark25", n_max=n_max)
    for g in remark25_sequence(sp):
        defects = _roundtrip_defects_everywhere(sp, g.forward, g.backward)
        assert g.allowed_defects == defects
        assert _roundtrip_defects_everywhere(sp, g.backward, g.forward) == defects
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


def test_equicontinuity_refuses_an_empty_grid_by_name():
    # numpy's max over no deltas once raised "zero-size array to reduction
    # operation maximum which has no identity"
    sp, seq, _, tail = _remark25_gallery_inputs()
    maps = [g.backward for g in seq]
    for grid in ((), []):
        with pytest.raises(ValueError, match="^nonempty moduli grid required$"):
            check_local_equicontinuity(maps, tail, grid, sp)


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


def _line_case():
    """Clamped translations of a small line, whose declared edge defects
    the maps carry, shrinking onto a non-identity translation; the limit's
    backward map is not injective at the edge, so its preimages of the
    compacts repeat points."""
    line = rl.builtin_space("line", step=0.25, window=(-3, 3))
    seq = [line_translation(line, c) for c in (1.5, 1.0, 0.75, 0.5, 0.25, 0.25, -0.25, 0.25, 0.25)]
    windows = [line.compact(range(12 - m, 13 + m), f"W{m}") for m in (0, 2, 5)]
    return line, seq, line_translation(line, 0.25), windows + list(line.exhaustion)


def _diagonal_twin():
    """A matrix-form twin of remark25 at n_max 7 given a diagonal dust up
    to the constructor's 1e-12, which the constructor sets to 0."""
    sp = rl.builtin_space("remark25", n_max=7)
    dmat = sp.dmat.copy()
    np.fill_diagonal(dmat, np.random.default_rng(3).choice([0.0, 5e-13, 1e-12], size=sp.n))
    return sp, dataclasses.replace(sp, dmat=dmat, metric_form={"form": "matrix"})


def _on(space, g):
    return operators.WeightedComposition(space, g.weight, g.forward, g.backward, allowed_defects=g.allowed_defects)


def _remark25_diagonal_case():
    """The moved-limit remark25 case on the diagonal twin, read at eps down
    to 1e-13, below the dust it was given."""
    sp, twin = _diagonal_twin()
    _, seq, limit, nested = _remark25_moved_limit_case()
    return twin, [_on(twin, g) for g in seq], _on(twin, limit), [twin.compact(K.members, K.label) for K in nested]


_SOT_CASES = [_remark25_case(), _remark25_moved_limit_case(), _rotation_case(), _onepoint_case(),
              _remark25_matrix_case(), _line_case(), _remark25_diagonal_case()]


def _first(seq, stages):
    """The first stages of a sequence: a list's prefix, or a patch
    sequence's, cut from its arrays."""
    if not isinstance(seq, operators._PatchSequence):
        return seq[:stages]
    end = seq.start[stages]
    return operators._PatchSequence(seq.space, seq.start[:stages + 1], seq.at[:end], seq.weight[:end],
                                    seq.forward[:end], seq.backward[:end], seq.labels[:stages],
                                    seq.defects[:stages])


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
    eps = draw(st.sampled_from([1e-13, 1e-9, 0.01, 0.1, 0.2, 0.3, 0.6, 1.5]))
    return _first(seq, stages), limit, K_list, eps


@given(_sot_inputs())
@settings(max_examples=200, deadline=None)
def test_sot_matches_per_compact_reference(inputs):
    seq, limit, K_list, eps = inputs
    assert check_sot_convergence(seq, limit, K_list, eps) == sot_reference(seq, limit, K_list, eps)


def _sot_counting_moreover(monkeypatch, seq, limit, K_list, eps):
    """The SOT verdict with the labels of the compacts on which the
    "moreover" check ran ``check_local_equicontinuity``, in call order,
    and the most calls its runs allow: 2 + ceil(log2 len(run)) a run."""
    probed, real = [], operators.check_local_equicontinuity

    def counted(maps, K, grid, space):
        probed.append(K.label)
        return real(maps, K, grid, space)

    with monkeypatch.context() as patch:
        patch.setattr(operators, "check_local_equicontinuity", counted)
        verdict = check_sot_convergence(seq, limit, K_list, eps)
    _, runs = space_mod._nested_runs(K_list, limit.space.n)
    allowed = sum(2 + math.ceil(math.log2(end - first)) for first, end, _, _ in runs)
    return verdict, probed, allowed


def test_moreover_bisects_for_the_first_compact_that_fails(monkeypatch):
    # a swap of x = 15 and x = -15 maps 14.75 and 15, a step apart, 29.75
    # apart: the inverse family fails from [-15,15], the 15th of the line's
    # 20 nested compacts, on; the first and last compacts are read, then
    # four more, not all 20
    line = rl.builtin_space("line", step=0.25, window=(-20, 20))
    fwd = np.arange(line.n)
    a, b = line.index("x+15"), line.index("x-15")
    fwd[[a, b]] = b, a
    swap = operators.WeightedComposition(line, np.ones(line.n), fwd, fwd.copy(), label="swap")
    args = ([swap] * 3, identity(line), list(line.exhaustion), 0.5)
    verdict, probed, allowed = _sot_counting_moreover(monkeypatch, *args)
    assert verdict == sot_reference(*args)
    assert verdict.moreover_detail.startswith("inverse family not equicontinuous on [-15,15]: ")
    assert probed == ["[-1,1]", "[-20,20]", "[-11,11]", "[-16,16]", "[-14,14]", "[-15,15]"]
    assert len(probed) <= allowed == 7


def test_moreover_reads_two_compacts_of_a_run_that_passes(monkeypatch):
    # eval --check sot with the trivial group: the identity family is
    # equicontinuous on every compact, so only the first and the last of
    # the 30 are read
    sp = rl.builtin_space("remark25", n_max=30)
    args = ([identity(sp)] * 2, identity(sp), list(sp.exhaustion), 0.01)
    verdict, probed, allowed = _sot_counting_moreover(monkeypatch, *args)
    assert verdict == sot_reference(*args) and verdict.moreover_applicable
    assert probed == ["K1", "K30"] and allowed == 7


@pytest.mark.parametrize("case", range(len(_SOT_CASES)))
@pytest.mark.parametrize("order", ["nested", "reversed", "repeated"])
def test_moreover_reads_at_most_its_runs_bound(monkeypatch, case, order):
    sp, seq, limit, nested = _SOT_CASES[case]
    K_list = {"nested": nested, "reversed": nested[::-1], "repeated": [K for K in nested for _ in (0, 1)]}[order]
    for eps in (1e-9, 0.01, 0.3):
        verdict, probed, allowed = _sot_counting_moreover(monkeypatch, seq, limit, K_list, eps)
        assert verdict == sot_reference(seq, limit, K_list, eps), eps
        assert len(probed) <= allowed, (eps, probed)


@pytest.mark.parametrize("n_max", [2, 7, 50])
def test_onepoint_swaps_round_trip_exactly(n_max):
    # each swap is declared exact, so its round trips are not measured:
    # measuring them finds none
    sp = rl.builtin_space("onepoint01N", n_max=n_max)
    for n in range(1, n_max + 1):
        g = onepoint_swap(sp, n)
        assert _roundtrip_defects(sp, g.forward, g.backward) == frozenset()
        assert g.allowed_defects == frozenset() and g.backward.tobytes() == g.forward.tobytes()


def test_sot_on_the_diagonal_twin_converges_for_a_constant_sequence():
    # the constructor sets the twin's diagonal dust to 0, so its matrix is
    # the closed form's, bit for bit; a constant sequence agrees with its
    # limit everywhere, so at eps 1e-13, below the dust, it converges on
    # the twin as on the closed form, and the full read agrees
    sp, twin = _diagonal_twin()
    assert twin.dmat.tobytes() == sp.dmat.tobytes()
    closed = remark25_map(sp, 3)
    limit = _on(twin, closed)
    args = ([limit] * 4, limit, list(twin.exhaustion), 1e-13)
    expected = sot_reference(*args)
    assert expected.converges
    assert check_sot_convergence(*args) == expected
    assert check_sot_convergence([closed] * 4, closed, list(sp.exhaustion), 1e-13) == expected


def test_sot_refuses_an_empty_compact_list():
    sp, seq, _, _ = _remark25_gallery_inputs()
    with pytest.raises(ValueError, match=re.escape("empty compact list")):
        check_sot_convergence(seq, identity(sp), [], 0.01)


@pytest.mark.parametrize("form", ["patches", "operators", "one stage"])
def test_sot_refuses_a_stage_on_another_space(form):
    # a sequence on remark25 at n_max 8 against a limit at n_max 7 was read
    # past the smaller space's arrays (an IndexError) before
    small, big = rl.builtin_space("remark25", n_max=7), rl.builtin_space("remark25", n_max=8)
    seq, what = remark25_sequence(big), "the sequence"
    if form == "operators":
        seq, what = list(seq), "stage 1"
    elif form == "one stage":
        seq, what = [remark25_map(small, 1), remark25_map(small, 2), remark25_map(big, 3)], "stage 3"
    with pytest.raises(ValueError, match=re.escape(
            f"{what} acts on space 'remark25' (73 points), not on the limit's space 'remark25' (57 points)")):
        check_sot_convergence(seq, identity(small), list(small.exhaustion), 0.01)


def test_sot_refuses_a_compact_outside_the_limits_space():
    small, big = rl.builtin_space("remark25", n_max=7), rl.builtin_space("remark25", n_max=8)
    with pytest.raises(ValueError, match=re.escape(
            "compact 'K8' has a member outside the limit's space 'remark25' (57 points)")):
        check_sot_convergence(remark25_sequence(small), identity(small),
                              [small.exhaustion[0], big.exhaustion[-1]], 0.01)


def test_equicontinuity_refuses_maps_and_compacts_off_its_space():
    small, big = rl.builtin_space("remark25", n_max=7), rl.builtin_space("remark25", n_max=8)
    tail = small.compact([small.index(f"(0,{i})") for i in range(3, 8)], "tail")
    cases = [
        ([g.backward for g in remark25_sequence(big)], tail,
         "map 0 has shape (73,), not the (57,) of space 'remark25'"),
        (remark25_sequence(big).inverse(), tail,
         "the family acts on space 'remark25' (73 points), not on the given space 'remark25' (57 points)"),
        ([np.arange(small.n), np.full(small.n, 70)], tail,
         "map 1 sends a point of 'tail' outside space 'remark25' (57 points)"),
        ([np.arange(small.n)], big.exhaustion[-1],
         "compact 'K8' has a member outside space 'remark25' (57 points)"),
    ]
    for maps, K, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            check_local_equicontinuity(maps, K, (0.5,), small)


def test_remark25_sequence_holds_the_maps_as_patches(remark_space):
    # each stage, read whole, is remark25_map, and each stage of the
    # inverse is its invert; the deviations and the images of a compact are
    # what the whole operators give
    seq = remark25_sequence(remark_space)
    assert isinstance(seq, operators._PatchSequence) and len(seq) == 50
    assert seq.at.size == 50 * 51  # 2 (n_max - n + 1) points per map
    x = np.random.default_rng(2).normal(size=remark_space.n)
    cols = remark_space.exhaustion[4].members
    dense = [remark25_map(remark_space, n) for n in range(1, 51)]
    for got, want in ((seq, dense), (seq.inverse(), [invert(h) for h in dense])):
        for g, h in zip(got, want):
            assert g.label == h.label and g.allowed_defects == h.allowed_defects
            for field in ("weight", "forward", "backward"):
                assert np.array_equal(getattr(g, field), getattr(h, field)), (g.label, field)
        assert np.array_equal(got.images(cols), np.stack([h.forward[cols] for h in want]))
    assert seq.deviations(x).tolist() == [float(np.max(np.abs(h.apply(x) - x))) for h in dense]
    assert [g.label for g in seq[3:40:5]] == [h.label for h in dense[3:40:5]]
    with pytest.raises(IndexError):
        seq[50]


def test_patch_inverse_reads_the_weight_at_the_preimage():
    # weighted rotations move every point, so each inverse weight
    # 1 / a(b(x)) is read at another moved point
    circ = rl.builtin_space("circle", count=12)
    w = 1.0 + np.arange(12) / 12
    ops = [compose(multiplication(circ, np.roll(w, r)), circle_rotation(circ, steps=r)) for r in (1, 5)]
    ops.append(identity(circ))
    for g, h in zip(operators._stages(ops, circ).inverse(), map(invert, ops)):
        assert g.label == h.label
        for field in ("weight", "forward", "backward"):
            assert np.array_equal(getattr(g, field), getattr(h, field)), (g.label, field)


def test_sot_gallery_builds_no_stage_operator(monkeypatch):
    # the check, the explicit function's gaps and the equicontinuity table
    # read the patches; no stage is built as a whole operator
    def refuse(self, i):
        raise AssertionError(f"stage {i} built as a whole operator")

    monkeypatch.setattr(operators._PatchSequence, "__getitem__", refuse)
    assert cli.task_sot_gallery(rl.builtin_space("remark25", n_max=60), 0.01)["ok"]


def test_sot_gallery_holds_no_stages_by_points_array():
    # at n_max 120 (14,521 points) one (n_max, n) index array is 13.9 MB;
    # the whole task peaks near 5.6 MB traced, about half of it one block of
    # pair distances of an equicontinuity table
    sp = rl.builtin_space("remark25", n_max=120)
    cli.task_sot_gallery(rl.builtin_space("remark25", n_max=10), 0.01)  # first-call caches outside the trace
    tracemalloc.start()
    try:
        report = cli.task_sot_gallery(sp, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["ok"]
    assert peak < 8_000_000


def equicontinuity_reference(maps, K, moduli_grid, space):
    """The per-member checker: every member's full (|K|, |K|) block of
    image distances, and the least source distance over its separated
    pairs, first in row-major order."""
    maps = [np.asarray(f, dtype=np.intp) for f in maps]
    karr = K.members
    src = space.metric.cross(karr, karr)
    grid = tuple(sorted(set(float(e) for e in moduli_grid)))
    min_grid_delta = min(grid) if grid else 0.0
    table, witnesses, slack = [], [], 1e-12
    for eps in grid:
        best_delta, witness = math.inf, None
        for mi, mp in enumerate(maps):
            img = space.metric.cross(mp[karr], mp[karr])
            mask = img >= eps + slack
            np.fill_diagonal(mask, False)
            if mask.any():
                cand = src[mask].min()
                if cand < best_delta:
                    best_delta = float(cand)
                    pos = np.nonzero(mask)
                    which = int(np.argmin(src[mask]))
                    witness = (mi, space.points[int(karr[pos[0][which]])], space.points[int(karr[pos[1][which]])])
        table.append((eps, best_delta))
        if best_delta < min_grid_delta - slack and witness is not None:
            witnesses.append((eps, witness))
    return operators.EquicontinuityReport(table=table, witnesses=witnesses)


def _equicontinuity_families():
    """(space, maps as the check reads them, the same maps as arrays)."""
    r25 = rl.builtin_space("remark25", n_max=9)
    seq = remark25_sequence(r25)
    circ = rl.builtin_space("circle", count=24)
    line = rl.builtin_space("line", step=0.25, window=(-3, 3))
    _, twin = _diagonal_twin()
    scrambled = np.random.default_rng(8).integers(0, twin.n, size=(6, twin.n))
    onepoint = rl.builtin_space("onepoint01N", n_max=6)
    words = onepoint_swap_group(onepoint, word_cap=2).word_table()[0]
    rotations = [circle_rotation(circ, steps=s).forward for s in (0, 1, 3, 7)]
    translations = [line_translation(line, c).forward for c in (-1.0, 0.5, 2.0)]
    dense = [g.backward for g in seq]
    constants = [np.full(line.n, c) for c in (0, 7)]  # they separate no pair
    return [(r25, seq.inverse(), dense), (r25, dense, dense), (circ, rotations, rotations),
            (line, translations, translations), (twin, scrambled, scrambled),
            (onepoint, words, words), (line, constants, constants)]


_EQUICONTINUITY_FAMILIES = _equicontinuity_families()


@st.composite
def _equicontinuity_inputs(draw):
    sp, maps, arrays = draw(st.sampled_from(_EQUICONTINUITY_FAMILIES))
    if draw(st.booleans()):
        K = draw(st.sampled_from(sp.exhaustion))
    else:
        K = sp.compact(draw(st.sets(st.integers(0, sp.n - 1), min_size=1, max_size=30)), "S")
    grid = draw(st.lists(st.sampled_from([1e-13, 0.01, 0.1, 0.25, 0.3, 0.5, 1.0, 2.0]), min_size=1, max_size=3))
    return sp, maps, arrays, K, grid, draw(st.sampled_from([1, 100, 1000, operators._PAIR_BLOCK]))


@given(_equicontinuity_inputs())
@settings(max_examples=200, deadline=None)
def test_equicontinuity_matches_the_per_member_reference(inputs):
    # blocks of one row, of a few rows and the default, so a tie group
    # spans blocks
    sp, maps, arrays, K, grid, block = inputs
    with mock.patch.object(operators, "_PAIR_BLOCK", block):
        got = check_local_equicontinuity(maps, K, grid, sp)
    assert got == equicontinuity_reference(arrays, K, grid, sp)


def test_equicontinuity_holds_no_pairs_by_pairs_array():
    # on a 2,000-point compact one (|K|, |K|) array of distances is 32 MB;
    # constant maps separate no pair, so every pair is read, and an
    # isometry separates only pairs at least eps apart
    circ = rl.builtin_space("circle", count=2000)
    K = circ.top_exhaustion
    step = 2 * math.pi / 2000
    for maps, low, high in (([np.zeros(circ.n, dtype=np.intp)], math.inf, math.inf),
                            ([circle_rotation(circ, steps=3).forward], 0.1, 0.1 + step)):
        tracemalloc.start()
        try:
            report = check_local_equicontinuity(maps, K, (0.1,), circ)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.equicontinuous and peak < 8_000_000
        assert low <= report.table[0][1] <= high


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
    # Metric.set_distances on remark25: row blocks of 1 row, of a few rows,
    # and the default block, none of which divides n
    if gather_bytes is not None:
        monkeypatch.setattr(space_mod, "_GATHER_BYTES", gather_bytes)
    K_list = _repeated_run(remark_space)
    limit = remark25_map(remark_space, 3)
    sets = [limit.backward[K.members] for K in K_list]
    # each set is swept on its own, and the map keeps every compact in size
    for s in sets:
        rows = max(1, space_mod._GATHER_BYTES // (8 * np.unique(s).size))
        assert rows == 1 or remark_space.n % rows != 0
    table = remark_space.metric.set_distances(np.arange(remark_space.n), sets)
    for k, s in enumerate(sets):
        direct = remark_space.dmat[:, np.unique(s)].min(axis=1)
        assert table[:, k].tobytes() == direct.tobytes(), k


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
    w1 = [op_key(w) for w in g1.words()]
    w2 = [op_key(w) for w in g2.words()]
    assert w1 == w2
    assert len(w1) == 1 + 6 + 15  # identity, swaps, unordered pairs


def _words_loop(group, cap):
    # the enumeration that composed every (word, generator) pair before
    # deduplicating by key
    e = identity(group.space)
    out, seen, frontier = [e], {op_key(e)}, [e]
    for _ in range(cap):
        nxt = []
        for w in frontier:
            for g in group.generators:
                c = compose(w, g)
                if op_key(c) not in seen:
                    seen.add(op_key(c))
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
        assert [op_key(w) for w in fast] == [op_key(w) for w in slow], name
        assert [w.allowed_defects for w in fast] == [w.allowed_defects for w in slow], name
        assert [w.form for w in fast] == [w.form for w in slow], name
        # each word declares the round-trip defects of its own maps
        assert all(w.allowed_defects == operators._roundtrip_defects(w.space, w.forward, w.backward)
                   for w in fast), name
        assert all(np.array_equal(a.backward, b.backward) for a, b in zip(fast, slow)), name


def _refuse_measurement(*args):
    raise AssertionError("round trip measured")


def _measurements(monkeypatch):
    # the maps of every round-trip measurement from here on
    calls = []
    measure = operators._roundtrip_defects
    monkeypatch.setattr(operators, "_roundtrip_defects",
                        lambda space, fwd, bwd: calls.append((fwd, bwd)) or measure(space, fwd, bwd))
    return calls


def test_words_measure_each_new_composite_once(onepoint_space, monkeypatch):
    # the table is built without a measurement; words() measures each
    # word's own round trips once, as it builds the word's object, and a
    # repeat call measures none
    group = onepoint_swap_group(onepoint_space, word_cap=2)
    group.word_table()
    calls = _measurements(monkeypatch)
    words = group.words()
    assert len(words) == 1 + 50 + 50 * 49 // 2  # identity, swaps, unordered pairs
    assert len(calls) == len(words)
    assert all(np.array_equal(f, w.forward) and np.array_equal(b, w.backward) for (f, b), w in zip(calls, words))
    assert group.words() is words and len(calls) == len(words)


def test_building_a_table_measures_no_round_trip(rotation_group, onepoint_space, line_space, product_space,
                                                 monkeypatch):
    # every level is built with measurement refused: plain composites, and
    # rotations and translations re-snapped from their composed forms
    circ = product_space.factors[0]
    groups = {
        "rot12": (rotation_group.generators, 6),
        "50 swaps": (onepoint_swap_group(onepoint_space).generators, 2),
        "line translations": ((line_translation(line_space, 0.5),), 4),
        "circle rotations": ((circle_rotation(circ, steps=1), circle_rotation(circ, steps=5)), 3),
        "remark25 maps": (tuple(remark25_sequence(rl.builtin_space("remark25", n_max=7))), 2),
    }
    next_level = operators._next_level

    def unmeasured(*args):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(operators, "_roundtrip_defects", _refuse_measurement)
            return next_level(*args)

    monkeypatch.setattr(operators, "_next_level", unmeasured)
    for name, (gens, cap) in groups.items():
        group = rl.GroupSpec(gens, word_cap=cap)
        assert len(group.word_table()[0]) > len(group.generators), name


def test_compose_measures_its_product_once(product_space, line_space, onepoint_space, remark_space, monkeypatch):
    # a plain, a re-snapped, a clamped and a truncated product: one
    # measurement each, of the product's own maps, which it declares
    circ = product_space.factors[0]
    pairs = [(onepoint_swap(onepoint_space, 1), onepoint_swap(onepoint_space, 2)),
             (circle_rotation(circ, steps=5), circle_rotation(circ, steps=-2)),
             (line_translation(line_space, 0.5), line_translation(line_space, 7.25)),
             (remark25_map(remark_space, 3), invert(remark25_map(remark_space, 5)))]
    measure = operators._roundtrip_defects
    for h, g in pairs:
        with pytest.MonkeyPatch.context() as m:
            calls = _measurements(m)
            c = compose(h, g)
        assert len(calls) == 1, c.label
        assert np.array_equal(calls[0][0], c.forward) and np.array_equal(calls[0][1], c.backward), c.label
        assert c.allowed_defects == measure(c.space, c.forward, c.backward), c.label
    assert c.allowed_defects


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


def test_lift_carries_declared_defects_to_the_product():
    # a clamped translation's edge points, lifted to every product point
    # over them, on either side
    prod = rl.builtin_space("circle_x_interval")
    circ, seg = prod.factors
    shift = line_translation(seg, 0.4)
    assert shift.allowed_defects
    right = lift(shift, prod, "right")
    assert right.allowed_defects == {k * seg.n + j for k in range(circ.n) for j in shift.allowed_defects}
    assert len(right.allowed_defects) == 576
    left = lift(shift, rl.product(seg, circ), "left")
    assert left.allowed_defects == {i * circ.n + l for i in shift.allowed_defects for l in range(circ.n)}
    assert lift(circle_rotation(circ, steps=4), prod, "left").allowed_defects == frozenset()


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
    # a map declares its defects in closed form, so building the sequence
    # measures nothing; the word object of each map measures its own round
    # trips once, and finds what the map declared
    calls = _measurements(monkeypatch)
    seq = remark25_sequence(remark_space)
    assert calls == [] and len(seq) == remark_space.metric_form["n_max"]
    group = rl.GroupSpec(tuple(seq), word_cap=1)
    group.word_table()
    calls.clear()
    words = group.words()
    # the identity, then each map and each inverse
    assert len(calls) == len(words) == 1 + 2 * len(seq)
    assert all(np.array_equal(f, w.forward) and np.array_equal(b, w.backward) for (f, b), w in zip(calls, words))
    assert [w.allowed_defects for w in words[1:]] == [g.allowed_defects for g in seq] * 2
    assert seq[-1].allowed_defects  # row n_max's truncation edge


def test_remark25_maps_measure_round_trips_at_every_point_they_move(remark_space):
    # a remark25 map's round trip displaces only points its maps move, and
    # the measurement, which reads only those, finds what the whole array
    # holds: the declared truncation edge
    idx = np.arange(remark_space.n)
    for op in remark25_sequence(remark_space):
        moved = np.flatnonzero((op.forward != idx) | (op.backward != idx))
        everywhere = _roundtrip_defects_everywhere(remark_space, op.forward, op.backward)
        assert np.isin(sorted(everywhere), moved).all(), op.label
        assert operators._roundtrip_defects(remark_space, op.forward, op.backward) == everywhere, op.label
        assert everywhere == op.allowed_defects, op.label


@pytest.mark.parametrize("n_max", [3, 4, 7, 50, 101])
def test_remark25_maps_declare_their_truncation_edge_unmeasured(n_max, monkeypatch):
    # each map declares the point (n, n_max) in closed form, measuring
    # nothing, and that is the set its round trips measure
    sp = rl.builtin_space("remark25", n_max=n_max)
    measure = operators._roundtrip_defects
    monkeypatch.setattr(operators, "_roundtrip_defects", _refuse_measurement)
    for n, g in enumerate(remark25_sequence(sp), start=1):
        assert g.allowed_defects == {sp.index(f"({n},{n_max})")} == measure(sp, g.forward, g.backward), g.label


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
