import numpy as np
import pytest

from renormlab.detector import WeightReport, certify, check_weight_one, fingerprint
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


def test_weight_report_generator(product_cfg):
    g = product_cfg.group.generators[0]
    rep = check_weight_one(g, product_cfg)
    assert rep.weight_ok
    assert rep.max_weight_deviation == 0.0
    assert all(ok for _, ok, _ in rep.orbit_containment)


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
    # base orbits are singletons and the translation moves them
    assert any(not ok for _, ok, _ in rep.orbit_containment)


def test_fingerprint_class_invariant(product_cfg):
    g = product_cfg.group.generators[0]
    t = product_cfg.base_tuple(1, 2)
    moved = tuple(int(g.forward[p]) for p in t.points)
    slots = product_cfg.classify_slots(moved, tol=0)
    s = TupleIndex(1, tuple(x[1] for x in slots), moved)
    assert np.array_equal(fingerprint(t, product_cfg), fingerprint(s, product_cfg))


def test_fingerprint_singleton(line_cfg):
    t = TupleIndex(5, (0,), (line_cfg.base_points[4],))
    fp = fingerprint(t, line_cfg)
    assert fp.shape == (1,)
    assert fp[0] == pytest.approx(1 / line_cfg.lam(5))


def test_fingerprints_distinct_classes_differ_in_head(product_cfg):
    t0 = product_cfg.tuple_index(1, (0, 0))
    t1 = product_cfg.tuple_index(1, (0, 1))
    fp0 = fingerprint(t0, product_cfg)
    fp1 = fingerprint(t1, product_cfg)
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
    # the mismatch is re-checkable: the image window differs from the base window
    first = next(c for c in v1.orbit_checks if c.mismatch)
    assert first.outcome in ("window-mismatch", "class-mismatch", "off-orbit")
    assert first.fingerprint != first.image_fingerprint


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
    circ, seg = space.aux["a"], space.aux["b"]
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
    circ, seg = space.aux["a"], space.aux["b"]
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
    circ, seg = space.aux["a"], space.aux["b"]
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


def _check_weight_one_by_orbit(T, cfg, tol=1e-9):
    # the per-orbit np.ix_ gather and the per-call lambda list that the one
    # block-diagonal gather replaced
    dev = np.abs(T.weight - 1.0)
    max_dev = float(dev.max())
    inv_lam = np.array([1.0 / cfg.lam(i) for i in range(1, cfg.base_count + 1)])
    off_orbit = (cfg.slot_dist > cfg.space._resolution_tol) | (inv_lam[cfg.slot_base - 1] == 1.0)
    paired = off_orbit & off_orbit[T.forward]
    checked = int(paired.sum())
    containment = []
    for bi, enum in enumerate(cfg.orbit_enums, start=1):
        pts = np.asarray(enum, dtype=np.intp)
        escape = float(cfg.space.dmat[np.ix_(T.forward[pts], pts)].min(axis=1).max())
        containment.append((bi, escape <= 2 * cfg.space.resolution, escape))
    return WeightReport(
        weight_ok=max_dev <= tol,
        max_weight_deviation=max_dev,
        weight_witness=cfg.space.points[int(dev.argmax())] if max_dev > tol else None,
        dual_ratio_deviation=float(dev[paired].max()) if checked else None,
        dual_points_checked=checked,
        orbit_containment=containment,
    )


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


def test_block_diagonal_containment_matches_per_orbit_loop(product_cfg, line_cfg):
    space = product_cfg.space
    circ, seg = space.aux["a"], space.aux["b"]
    g = product_cfg.group.generators[0]
    rotflip = compose(lift(circle_rotation(circ, steps=4), space, "left"), lift(interval_flip(seg), space, "right"))
    b = product_cfg.base_points
    cases = [(product_cfg, T) for T in (identity(space), g, rotflip, compose(g, g),
                                         _corrupt(g, b[0], b[1], 1.0), _corrupt(rotflip, b[2], 5, 1.3),
                                         _corrupt(identity(space), b[-1], space.n - 1, 0.7))]
    lb = line_cfg.base_points
    lspace = line_cfg.space
    cases += [(line_cfg, T) for T in (identity(lspace), line_translation(lspace, 0.3), multiplication(lspace, 1.2),
                                      _corrupt(identity(lspace), lb[0], lb[3], 1.0),
                                      _corrupt(line_translation(lspace, 0.3), lb[1], lspace.n // 2, 2.0))]
    for cfg, T in cases:
        rep = check_weight_one(T, cfg)
        assert rep == _check_weight_one_by_orbit(T, cfg), T.label
    escapes = [e for cfg, T in cases for _, ok, e in check_weight_one(T, cfg).orbit_containment if not ok]
    assert escapes and min(escapes) > 0
