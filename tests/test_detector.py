import itertools
import re

import numpy as np
import pytest

import renormlab as rl
from renormlab.detector import IsometryVerdict, TupleCheck, WeightReport, certify, check_weight_one
from renormlab.norm import build_matrix, solve_unit
from renormlab.operators import (
    circle_rotation,
    compose,
    identity,
    interval_flip,
    lift,
    line_translation,
    multiplication,
    WeightedComposition,
)
from renormlab.orbits import equivalent
from renormlab.tuples import TupleIndex


def test_certify_refuses_an_operator_on_another_space():
    circle12 = rl.builtin_space("circle", count=12)
    cfg = rl.build_config(circle12, rl.GroupSpec.trivial(circle12), C=1.1, depth=3)
    with pytest.raises(ValueError, match=re.escape(
            "operator acts on space 'circle' (6 points), not on the config's space 'circle' (12 points)")):
        certify(circle_rotation(rl.builtin_space("circle", count=6), steps=1), cfg)
    # an operator on a separately built equal circle acts on this one
    assert certify(identity(rl.builtin_space("circle", count=12)), cfg).verdict == "certified-in-G"


def test_adjacent_swaps_on_the_line_certify_however_their_distance_rounds(line_cfg):
    # x_{k+1} - x_k rounds above 0.01 for some k and not for others; every
    # swap of two neighbours off the tested base points is the same map
    space = line_cfg.space
    ks = np.arange(4, space.n - 1)  # the first 4 base points are x_0..x_3
    assert set(line_cfg.base_points[:4]) == {0, 1, 2, 3}
    gaps = space.metric.pair(ks, ks + 1)
    above, below = ks[gaps > 0.01], ks[gaps <= 0.01]
    assert above.size and below.size
    for k in [*above[::60], *below[::150]]:
        fwd = np.arange(space.n)
        fwd[[k, k + 1]] = [k + 1, k]
        T = WeightedComposition(space, np.ones(space.n), fwd, fwd.copy())
        assert certify(T, line_cfg).verdict == "certified-in-G", space.points[k]


def test_weight_report_generator(product_cfg):
    g = product_cfg.group.generators[0]
    rep = check_weight_one(g, product_cfg)
    assert rep.weight_ok
    assert rep.max_weight_deviation == 0.0 and rep.weight_witness is None


def test_weight_report_multiplication(line_cfg):
    T = multiplication(line_cfg.space, 1.2)
    rep = check_weight_one(T, line_cfg)
    assert not rep.weight_ok
    assert rep.max_weight_deviation == pytest.approx(0.2)
    assert rep.weight_witness is not None


def test_weight_report_translation_defers_to_fingerprints(line_cfg):
    T = line_translation(line_cfg.space, 0.3)
    rep = check_weight_one(T, line_cfg)
    assert rep.weight_ok
    # the weight passes, so the rejection rests on a base tuple's fingerprint
    assert certify(T, line_cfg).witness["kind"] == "fingerprint"


def test_fingerprint_class_invariant(product_cfg):
    g = product_cfg.group.generators[0]
    t = product_cfg.base_tuple(1, 2)
    moved = tuple(int(g.forward[p]) for p in t.points)
    slots = product_cfg.classify_slots(moved, tol=0)
    s = TupleIndex(1, tuple(x[1] for x in slots), moved)
    assert np.array_equal(solve_unit(build_matrix(t, product_cfg)), solve_unit(build_matrix(s, product_cfg)))


def test_fingerprint_singleton(line_cfg):
    t = TupleIndex(5, (0,), (line_cfg.base_points[4],))
    fp = solve_unit(build_matrix(t, line_cfg))
    assert fp.shape == (1,)
    assert fp[0] == pytest.approx(1 / line_cfg.lam(5))


def test_fingerprints_distinct_classes_differ_in_head(product_cfg):
    t0 = product_cfg.tuple_index(1, (0, 0))
    t1 = product_cfg.tuple_index(1, (0, 1))
    fp0 = solve_unit(build_matrix(t0, product_cfg))
    fp1 = solve_unit(build_matrix(t1, product_cfg))
    assert fp0[1] == fp1[1]
    assert abs(fp0[0] - fp1[0]) > 1e-9


def test_certify_identity(line_cfg):
    verdict = certify(identity(line_cfg.space), line_cfg, test_depth=4)
    assert verdict.verdict == "certified-in-G"
    assert verdict.approx_group_element[1] == 0.0


def test_certify_translation_rejected_with_reproducible_witness(line_cfg):
    T = line_translation(line_cfg.space, 0.3)
    v1 = certify(T, line_cfg, test_depth=4)
    v2 = certify(T, line_cfg, test_depth=4)
    assert v1.verdict == "rejected"
    assert v1.witness == v2.witness
    assert v1.witness["kind"] == "fingerprint"
    # the mismatch is re-checkable from the witness's point ids alone
    assert v1.witness["outcome"] == "window-mismatch"
    assert _recheck_witness(v1.witness, T, line_cfg) == "window-mismatch"


def _recheck_witness(witness, T, cfg):
    # the outcome of a fingerprint witness, recomputed from its point ids:
    # the tuple is a base tuple, the image is T's image of it, and the
    # image's slots and canonical key decide the rest
    space = cfg.space
    t = [space.index(p) for p in witness["tuple"]]
    img = [space.index(p) for p in witness["image"]]
    assert t == list(cfg.base_points[: len(t)])
    assert img == T.forward[t].tolist()
    slots = cfg.classify_slots(img)
    if any(s is None for s in slots) or [s[0] for s in slots] != list(range(slots[0][0], slots[0][0] + len(t))):
        return "off-orbit"
    if slots[0][0] != 1:
        return "window-mismatch"
    return "same-class" if cfg.registry.canonical_key(img) == cfg.registry.canonical_key(t) else "class-mismatch"


def test_certify_all_generator_words(product_cfg):
    g = product_cfg.group.generators[0]
    gi = product_cfg.group.generators[1]
    word = identity(product_cfg.space)
    for k in range(1, 5):
        word = compose(word, g)
        assert certify(word, product_cfg, test_depth=4).verdict == "certified-in-G"
    word = identity(product_cfg.space)
    for k in range(1, 5):
        word = compose(word, gi)
        assert certify(word, product_cfg, test_depth=4).verdict == "certified-in-G"


def test_soundness_every_enumerated_word_certified(product_cfg):
    for w in product_cfg.group.words():
        assert certify(w, product_cfg, test_depth=3).verdict == "certified-in-G"


def test_certify_rotation_flip_rejected(product_cfg):
    space = product_cfg.space
    circ, seg = space.factors
    rot = lift(circle_rotation(circ, steps=4), space, "left")
    flip = lift(interval_flip(seg), space, "right")
    verdict = certify(compose(rot, flip), product_cfg, test_depth=4)
    assert verdict.verdict == "rejected"
    assert verdict.witness["kind"] == "fingerprint"


def test_certify_multiplication_rejected_on_weight(line_cfg):
    verdict = certify(multiplication(line_cfg.space, 1.2), line_cfg, test_depth=3)
    assert verdict.verdict == "rejected"
    assert verdict.witness["kind"] == "weight"


def test_no_inconclusive_on_acceptance_scenarios(line_cfg, product_cfg):
    space = product_cfg.space
    circ, seg = space.factors
    candidates = [
        (line_cfg, identity(line_cfg.space)),
        (line_cfg, line_translation(line_cfg.space, 0.3)),
        (product_cfg, product_cfg.group.generators[0]),
        (product_cfg, compose(lift(circle_rotation(circ, steps=4), space, "left"),
                              lift(interval_flip(seg), space, "right"))),
    ]
    for cfg, T in candidates:
        assert certify(T, cfg, test_depth=4).verdict != "inconclusive"


def test_verdict_invariant_under_certified_composition(product_cfg):
    space = product_cfg.space
    circ, seg = space.factors
    rotflip = compose(lift(circle_rotation(circ, steps=4), space, "left"),
                      lift(interval_flip(seg), space, "right"))
    words = product_cfg.group.words()
    rng = np.random.default_rng(17)
    for _ in range(20):
        w = words[int(rng.integers(0, len(words)))]
        base = rotflip if rng.integers(0, 2) else product_cfg.group.generators[0]
        expected = certify(base, product_cfg, test_depth=3).verdict
        got = certify(compose(base, w), product_cfg, test_depth=3).verdict
        assert got == expected


@pytest.mark.parametrize("name", ["product_cfg", "line_cfg"])
def test_points_equivalent_to_a_base_point_have_a_slot(name, request):
    # why certify needs no comparison system: an image point equivalent to a
    # base slot lies within resolution of a word image of that base, which
    # the base orbit enumerates, so a slot-less image fails head or tail
    # equivalence
    cfg = request.getfixturevalue(name)
    res = cfg.space.resolution
    hits = 0
    for b in cfg.base_points[:4]:
        for p in range(cfg.space.n):
            if equivalent((p,), (b,), cfg.group):
                hits += 1
                assert cfg.slot_dist[p] <= 2 * res, (name, cfg.space.points[p])
    assert hits >= 4


def _corrupt(T, p, q, scale):
    # T with the images of p and q swapped and the weight at p scaled: a
    # homeomorphism still, but base orbits need not map into themselves
    swap = np.arange(T.space.n)
    swap[[p, q]] = [q, p]
    weight = T.weight.copy()
    weight[p] *= scale
    defects = T.allowed_defects | {int(swap[i]) for i in T.allowed_defects}
    return WeightedComposition(T.space, weight, T.forward[swap], swap[T.backward],
                               label=f"{T.label} corrupted", allowed_defects=defects)


def _certify_per_depth(T, cfg, test_depth=4):
    # the certify that one key per side replaced: per depth, two classify
    # calls, which register the classes they miss, so cfg must be a fork
    space = cfg.space
    word_tol = space.resolution + space._resolution_tol
    test_depth = min(test_depth, cfg.base_count)
    dev = np.abs(T.weight - 1.0)
    weight = WeightReport(weight_ok=dev.max() <= 1e-9, max_weight_deviation=float(dev.max()),
                          weight_witness=space.points[int(dev.argmax())] if dev.max() > 1e-9 else None)
    checks = []
    witness = None
    if not weight.weight_ok:
        witness = {"kind": "weight", "point": weight.weight_witness, "deviation": weight.max_weight_deviation}
    for n in range(1, test_depth):
        t = cfg.base_tuple(1, n)
        img = tuple(int(T.forward[p]) for p in t.points)
        img_ids = tuple(space.points[p] for p in img)
        t_ids = tuple(space.points[p] for p in t.points)
        slots = cfg.classify_slots(img)
        # the window the image occupies, read from slots at the same sample point
        on_window = (all(s is not None for s in slots)
                     and [s[0] for s in slots] == list(range(slots[0][0], slots[0][0] + len(slots))))
        ti = TupleIndex(slots[0][0], tuple(s[1] for s in slots), img) if on_window else None
        if ti is not None and ti.start == 1:
            info_t = cfg.registry.classify(t.start, t.points)
            info_s = cfg.registry.classify(ti.start, ti.points)
            if info_t.m == info_s.m and info_t.ordinal == info_s.ordinal:
                check = TupleCheck(t_ids, img_ids, "same-class")
            else:
                rep_s = [space.points[p] for p in info_s.representative]
                rep_t = [space.points[p] for p in info_t.representative]
                check = TupleCheck(t_ids, img_ids, "class-mismatch",
                                   detail=f"image lies in the class of {rep_s}, not of {rep_t}")
        elif ti is not None:
            check = TupleCheck(t_ids, img_ids, "window-mismatch",
                               detail=f"image occupies base window {ti.start}..{ti.start + n} instead of 1..{n + 1}")
        elif all(s is not None for s in slots):
            check = TupleCheck(t_ids, img_ids, "off-orbit",
                               detail=f"image slots land in base orbits {[s[0] for s in slots]}, not a consecutive window")
        else:
            missing = [img_ids[j] for j, s in enumerate(slots) if s is None]
            check = TupleCheck(t_ids, img_ids, "off-orbit",
                               detail=f"image points {missing} lie outside every enumerated base orbit")
        checks.append(check)
        if not check.ok and witness is None:
            witness = {"kind": "fingerprint", "tuple": check.tuple_points, "image": check.image_points,
                       "outcome": check.outcome, "detail": check.detail}
    base_pts = np.asarray(cfg.base_points[:test_depth], dtype=np.intp)
    dists = space.dmat[cfg.registry.word_maps[:, base_pts], T.forward[base_pts]].max(axis=1)
    best = int(dists.argmin())
    # the matched word must also agree with T on every sample point
    agree = space.dmat[cfg.registry.word_maps[best], T.forward].max() <= word_tol
    word_matched = float(dists[best]) <= word_tol and weight.weight_ok and agree
    if witness is not None:
        verdict = "rejected"
    elif word_matched and all(c.ok for c in checks):
        verdict = "certified-in-G"
    else:
        verdict = "inconclusive"
    return IsometryVerdict(
        verdict=verdict, weight=weight, orbit_checks=checks,
        approx_group_element=(cfg.group.words()[best].label or "word", float(dists[best])),
        caps={"test_depth": test_depth, "word_cap": cfg.group.word_cap, "word_tol": word_tol,
              "note": "certified-in-G means: within tolerance of a word of the capped length"},
        witness=witness,
    )


def _sending(space, moves, label):
    # a weight-one point permutation with forward[src] = dst for each move
    forward = np.arange(space.n)
    for src, dst in moves:
        j = int(np.flatnonzero(forward == dst)[0])
        forward[[src, j]] = forward[[j, src]]
    return WeightedComposition(space, np.ones(space.n), forward, np.argsort(forward), label=label)


def _certify_cases(cfg):
    space = cfg.space
    if not space.factors:
        return [identity(space), line_translation(space, 0.3), multiplication(space, 1.2),
                _corrupt(identity(space), cfg.base_points[1], cfg.base_points[2], 1.0)]
    circ, seg = space.factors
    g, gi = cfg.group.generators[:2]
    rotflip = compose(lift(circle_rotation(circ, steps=4), space, "left"), lift(interval_flip(seg), space, "right"))
    b = cfg.base_points
    orbit = cfg.orbit_of_base
    return [
        identity(space), g, gi, compose(g, g), compose(compose(g, g), gi), rotflip,
        _corrupt(g, b[0], b[1], 1.0), _corrupt(rotflip, b[2], 5, 1.3),
        _corrupt(identity(space), b[-1], space.n - 1, 0.7),
        # off the group's grid: a one-step rotation and a flip
        lift(circle_rotation(circ, steps=1), space, "left"), lift(interval_flip(seg), space, "right"),
        # the base tuple moves one window up, with mixed orbit labels, so
        # the image tuple starts at base 2 and the two sides have classes
        # the registry lacks in the windows they share
        _sending(space, [(b[i], orbit(i + 2)[i % 3]) for i in range(6)], "shift"),
        # same window, mixed labels: class mismatches past the depth
        _sending(space, [(b[i], orbit(i + 1)[(i * i) % 5]) for i in range(6)], "relabel"),
        # a consecutive image prefix, then a jump
        _sending(space, [(b[0], orbit(3)[1]), (b[1], orbit(4)[0]), (b[2], orbit(9)[2]), (b[3], orbit(10)[0])],
                 "prefix"),
    ]


@pytest.mark.parametrize("name", ["product_cfg", "product_word_capped_cfg", "line_cfg"])
def test_one_key_per_side_matches_per_depth_certify(name, request, fork):
    cfg = request.getfixturevalue(name)
    outcomes = set()
    for T in _certify_cases(cfg):
        for depth in range(1, 7):
            new = fork(cfg)
            expected = _certify_per_depth(T, fork(cfg), depth)
            assert certify(T, new, test_depth=depth) == expected, (T.label, depth)
            assert new.registry.all_classes() == cfg.registry.all_classes(), (T.label, depth)
            outcomes |= {c.outcome for c in expected.orbit_checks}
    if name == "product_cfg":
        assert outcomes == {"same-class", "class-mismatch", "window-mismatch", "off-orbit"}


@pytest.mark.parametrize("name", ["product_cfg", "line_cfg"])
def test_certify_reads_word_labels_from_the_word_table(name, request, monkeypatch):
    # the approximating word's label is the word table's, and no word
    # object is built to read it
    cfg = request.getfixturevalue(name)
    cases = [*_certify_cases(cfg), *cfg.group.words()]
    expected = [certify(T, cfg) for T in cases]

    def refuse(self):
        raise AssertionError("certify built the word objects")

    monkeypatch.setattr(rl.GroupSpec, "words", refuse)
    for T, want in zip(cases, expected):
        got = certify(T, cfg)
        assert (got.verdict, got.approx_group_element) == (want.verdict, want.approx_group_element), T.label


@pytest.mark.parametrize("name", ["product_cfg", "product_word_capped_cfg", "line_cfg"])
def test_certify_never_writes_the_registry(name, request, fork):
    # every call on one config, the group's own words included
    cfg = fork(request.getfixturevalue(name))
    before = cfg.registry.all_classes()
    for T in [*_certify_cases(cfg), *cfg.group.words()]:
        for depth in range(1, 7):
            certify(T, cfg, test_depth=depth)
            assert cfg.registry.all_classes() == before, (T.label, depth)


def test_shifted_tuple_registers_no_class(product_cfg, fork):
    # the image starts at base 2, and past the depth neither side's class
    # is registered in the windows they share: certify reads keys only
    cfg = fork(product_cfg)
    shift = next(T for T in _certify_cases(cfg) if T.label == "shift")
    verdict = certify(shift, cfg, test_depth=6)
    assert [c.outcome for c in verdict.orbit_checks] == ["window-mismatch"] * 5
    assert cfg.registry.all_classes() == product_cfg.registry.all_classes()


def test_class_mismatch_names_both_canonical_representatives(product_cfg):
    # same window, mixed labels: the detail's representatives are the
    # canonical keys of the base prefix and of the image prefix
    cfg = product_cfg
    space = cfg.space
    relabel = next(T for T in _certify_cases(cfg) if T.label == "relabel")
    verdict = certify(relabel, cfg, test_depth=6)
    mismatches = [c for c in verdict.orbit_checks if c.outcome == "class-mismatch"]
    assert mismatches and verdict.witness["outcome"] == "class-mismatch"
    assert _recheck_witness(verdict.witness, relabel, cfg) == "class-mismatch"
    for check in mismatches:
        rep_s, rep_t = ([space.points[p] for p in cfg.registry.canonical_key([space.index(i) for i in ids])]
                        for ids in (check.image_points, check.tuple_points))
        assert rep_s != rep_t
        assert check.detail == f"image lies in the class of {rep_s}, not of {rep_t}"


def _isometry_census(space):
    # the 192 metric isometries of circle_x_interval(48, 16), by index
    # arithmetic: point (j, l) has index j * levels + l, and each map pairs
    # a circle rotation or reflection j -> s j + r with the identity or the
    # flip l -> levels - 1 - l of the interval
    count, levels = space.factors[0].n, space.factors[1].n
    j, l = np.divmod(np.arange(space.n), levels)
    maps = []
    for s, r, flip in itertools.product((1, -1), range(count), (False, True)):
        fc = (s * np.arange(count) + r) % count
        fs = np.arange(levels)[::-1] if flip else np.arange(levels)
        maps.append(((s, r, flip), fc[j] * levels + fs[l], fc, fs))
    return maps


@pytest.mark.parametrize("name", ["product_cfg", "product_word_capped_cfg", "line_cfg"])
def test_a_certified_map_matches_a_word_on_every_point(name, request, fork):
    cfg = fork(request.getfixturevalue(name))
    space = cfg.space
    tol = 2 * space.resolution
    cases = [*_certify_cases(cfg), *cfg.group.words()]
    if space.factors:
        # the reflections that match a rotation on the first base points
        cases += [WeightedComposition(space, np.ones(space.n), fwd, np.argsort(fwd))
                  for (s, r, flip), fwd, _, _ in _isometry_census(space) if s == -1 and r % 4 == 0]
    certified = 0
    for T in cases:
        verdict = certify(T, cfg)
        if verdict.verdict == "certified-in-G":
            certified += 1
            gaps = space.dmat[cfg.registry.word_maps, T.forward].max(axis=1)
            assert gaps.min() <= tol, T.label
    assert certified > 0


def test_isometry_census_certifies_exactly_the_group(product_cfg, fork):
    # a reflection j -> r - j with r = 0 mod 4 sends the base points where
    # the rotation by r does, so only the full-sample word match tells them
    # apart
    cfg = fork(product_cfg)
    space = cfg.space
    circ, seg = space.factors
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, space.n, size=(2, 2000))
    certified = []
    for (s, r, flip), forward, fc, fs in _isometry_census(space):
        # an isometry of each factor is one of the max metric, checked in
        # full on the factors and spot-checked on the product
        assert np.abs(circ.dmat[np.ix_(fc, fc)] - circ.dmat).max() <= 1e-9
        assert np.abs(seg.dmat[np.ix_(fs, fs)] - seg.dmat).max() <= 1e-9
        a, b = pairs
        assert np.abs(space.dmat[forward[a], forward[b]] - space.dmat[a, b]).max() <= 1e-9
        T = WeightedComposition(space, np.ones(space.n), forward, np.argsort(forward))
        verdict = certify(T, cfg)
        if verdict.verdict == "certified-in-G":
            certified.append((s, r, flip))
        else:
            assert verdict.verdict in ("rejected", "inconclusive")
    assert sorted(certified) == [(1, r, False) for r in range(0, 48, 4)]


@pytest.mark.parametrize("name, counts, twelfths", [
    ("product_cfg", (12, 168, 12), range(12)),
    # a word list capped at 4 reaches 9 of the 12 rotations: those by 5, 6
    # and 7 twelfths of a turn lie in G but are rejected, which here means
    # "not an isometry of the configured norm"
    ("product_word_capped_cfg", (9, 174, 9), [0, 1, 2, 3, 4, 8, 9, 10, 11]),
])
def test_isometry_census_verdicts(name, counts, twelfths, request):
    # every verdict of the 192-map census: the rotations by a word certify,
    # the reflections j -> r - j that match such a rotation on the base
    # points stay inconclusive (ROADMAP item 6's norm witness is to move
    # them to rejected), and every other map is rejected with a fingerprint
    # witness that re-checks
    cfg = request.getfixturevalue(name)
    space = cfg.space
    verdicts = {}
    for key, forward, _, _ in _isometry_census(space):
        T = WeightedComposition(space, np.ones(space.n), forward, np.argsort(forward))
        verdict = certify(T, cfg)
        verdicts[key] = verdict.verdict
        if verdict.verdict == "rejected":
            assert verdict.witness["kind"] == "fingerprint", key
            assert _recheck_witness(verdict.witness, T, cfg) == verdict.witness["outcome"], key
        else:
            assert verdict.witness is None, key
    got = tuple(sum(v == kind for v in verdicts.values()) for kind in ("certified-in-G", "rejected", "inconclusive"))
    assert got == counts
    for k in twelfths:
        assert verdicts[1, 4 * k, False] == "certified-in-G" and verdicts[-1, 4 * k, False] == "inconclusive"


@pytest.mark.parametrize("bad", [0, -1, 2.5, 4.0, "4", True, None])
def test_certify_rejects_a_bad_test_depth(product_cfg, bad):
    with pytest.raises(ValueError, match="test_depth must be an integer >= 1"):
        certify(product_cfg.group.generators[0], product_cfg, test_depth=bad)


def test_certify_accepts_numpy_integer_test_depth(product_cfg):
    verdict = certify(product_cfg.group.generators[0], product_cfg, test_depth=np.int64(3))
    assert verdict.caps["test_depth"] == 3 and type(verdict.caps["test_depth"]) is int
