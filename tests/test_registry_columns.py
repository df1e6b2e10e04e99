"""The columnar class registry against the row-at-a-time code it replaced.

The oracles below are the single-row lexsort key and the verifier that read
ClassInfo objects and re-keyed every representative prefix through the
``lookup_rows`` oracle.  On word lists closed under composition a prefix of a
canonical key is its own key, so both verifiers must give the same report,
violation order included; on capped word lists only the new one reads the
chain the norm sums (see ``test_plan_weights_are_the_prefix_classes_of_each_key``).
"""

import copy
import hashlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renormlab as rl
from key_oracles import canonical_keys, lookup_rows, set_class
from renormlab import tuples
from renormlab.tuples import (
    ClassInfo,
    ClassRegistry,
    enumerate_window,
    enumeration_index,
    enumeration_tail,
    verify_bmap,
)


def _canonical_key_lexsort(registry, points):
    # the single-row key that one lexsort over the word axis gave
    return tuple(canonical_keys(registry, np.asarray(points, dtype=np.intp)[None])[0].tolist())


def _verify_bmap_batched(bc, depth, registry):
    # the verifier that read ClassInfo objects and re-keyed each prefix
    report: dict = {"depth": depth, "violations": [], "checked": 0}
    if not bc.tail_sum() < bc.budget():
        report["violations"].append(("property3", "geometric tail exceeds budget"))

    classes = registry.all_classes()
    windows = {m: enumerate_window(m) for m in {m for m, _ in classes}}
    in_depth = {m for m, w in windows.items() if w.end <= depth or w.n == 1}
    by_m: dict = {}
    for m, info in classes:
        if m in in_depth:
            by_m.setdefault(m, []).append(info)

    for m, infos in sorted(by_m.items()):
        w = windows[m]
        cm = 3 * m
        if 3 * enumeration_index(w.start, w.n) != cm:
            report["violations"].append(("property2", f"window {w} code mismatch"))
        exps = [info.exponent.as_integer_ratio() for info in sorted(infos, key=lambda i: i.ordinal)]
        for (pa, qa), (pb, qb) in zip(exps, exps[1:]):
            if not pa * qb < pb * qa:
                report["violations"].append(("property4", f"window m={m}: exponents not strictly increasing"))
        for info in infos:
            report["checked"] += 1
            p, q = info.exponent.as_integer_ratio()
            if not ((cm - 1) * q <= p <= cm * q):
                report["violations"].append(("property4", f"m={m} ordinal {info.ordinal}: exponent outside [c-1, c]"))
            if p >= cm * q:
                report["violations"].append(("property4", f"m={m} ordinal {info.ordinal}: supremum attained without declaration"))
            if p < (3 * w.end - 4) * q:
                report["violations"].append(("property5", f"m={m} ordinal {info.ordinal}: exponent below 3(i+n)-4"))
        seen_exponents = {}
        for info in infos:
            k = info.exponent.as_integer_ratio()
            prev = seen_exponents.get(k)
            if prev is not None:
                report["violations"].append(("property1", f"m={m}: classes {prev} and {info.ordinal} share a weight"))
            seen_exponents[k] = info.ordinal

    rep_index = {(m, info.representative): info for m, info in classes}
    by_len: dict = {}
    for m, rep in rep_index:
        by_len.setdefault(len(rep), []).append((m, rep))
    subs: dict = {key: [] for key in rep_index}
    for size, keys in by_len.items():
        reps = np.array([rep for _, rep in keys], dtype=np.intp).reshape(len(keys), size)
        starts = [windows[m].start for m, _ in keys]
        for k in range(1, size):
            for key, sub in zip(keys, lookup_rows(registry, starts, reps[:, : k + 1])):
                subs[key].append(sub)

    for (m, rep), info in rep_index.items():
        if windows[m].n < 2 or m not in in_depth:
            continue
        pinfo = subs[(m, rep)][-2]
        if pinfo is None:
            report["violations"].append(("property6", f"m={m} ordinal {info.ordinal}: prefix class not registered"))
            continue
        (p, q), (pp, pq) = info.exponent.as_integer_ratio(), pinfo.exponent.as_integer_ratio()
        if not p * pq > (pp + pq) * q:
            report["violations"].append(
                ("property6", f"m={m} ordinal {info.ordinal}: extension does not exceed L * base weight")
            )

    recip = {id(info): bc.inv_L_pow(info.exponent) for _, info in classes}
    heads = {m: bc.lam(w.start) for m, w in windows.items()}
    tails = {m: enumeration_tail(bc, m) for m in windows}
    report["checked"] += len(rep_index)
    for (m, rep), info in sorted(rep_index.items()):
        chain = subs[(m, rep)]
        if any(sub is None for sub in chain):
            report["violations"].append(("property7", f"m={m} ordinal {info.ordinal}: prefix class not registered"))
            continue
        total = heads[m]
        for sub in chain:
            total += recip[id(sub)]
        total += tails[m]
        if not total < bc.C:
            report["violations"].append(("property7", f"m={m} ordinal {info.ordinal}: budget exceeded ({total})"))

    report["ok"] = not report["violations"]
    return report


@pytest.fixture(scope="module")
def product_depth5_cfg(product_space, rotation_group):
    return rl.build_config(product_space, rotation_group, C=1.1, depth=5)


@pytest.fixture(scope="module")
def word_cap_cfgs(product_space, rotation_group):
    # 1, 2 and 3 generator powers: word lists far from closed under composition
    return {cap: rl.build_config(product_space, rl.GroupSpec(rotation_group.generators, word_cap=cap),
                                 C=1.1, depth=4)
            for cap in (1, 2, 3)}


# ----------------------------------------------------------------------
# keys


@st.composite
def _word_maps_and_points(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    index = st.integers(min_value=0, max_value=n - 1)
    maps = draw(st.lists(st.lists(index, min_size=n, max_size=n), min_size=1, max_size=6))
    points = draw(st.lists(index, min_size=1, max_size=6))
    return np.asarray(maps), tuple(points)


@given(_word_maps_and_points())
@settings(max_examples=300)
def test_image_table_key_matches_single_row_lexsort(case):
    maps, points = case
    registry = ClassRegistry(maps)
    key = registry.canonical_key(points)
    assert key == _canonical_key_lexsort(registry, points)
    assert all(type(i) is int for i in key)
    # the prefix identity the verifier and the plan build rely on
    for k in range(1, len(points) + 1):
        assert registry.canonical_key(points[:k]) == key[:k]


# ----------------------------------------------------------------------
# the verifier against its oracle


@pytest.mark.parametrize("name", ["product_cfg", "product_word_capped_cfg", "line_cfg", "product_depth5_cfg"])
def test_verify_bmap_matches_batched_oracle_at_depths_3_to_5(name, request):
    cfg = request.getfixturevalue(name)
    for depth in (3, 4, 5):
        report = verify_bmap(cfg.bc, depth, cfg.registry)
        assert report == _verify_bmap_batched(cfg.bc, depth, cfg.registry), (name, depth)
        assert report["checked"] > len(cfg.registry)


def _info(registry, m, ordinal):
    (info,) = [i for window, i in registry.all_classes() if window == m and i.ordinal == ordinal]
    return info


def _without(registry, m, ordinal):
    # a registry with one class deleted: the others registered again in
    # window order, each with its old fields
    out = ClassRegistry(registry.word_maps)
    for mm, info in registry.all_classes():
        if (mm, info.ordinal) != (m, ordinal):
            set_class(out._infos[out._register(mm, info.representative)], info.ordinal, info.exponent)
    return out


def _swap_ordinals(registry, m, a, b):
    x, y = _info(registry, m, a), _info(registry, m, b)
    set_class(x, ordinal=b)
    set_class(y, ordinal=a)


def _corruptions(cfg):
    """(label, registry) pairs: copies of the config's registry, each
    broken in one way, and one broken in every way at once."""
    def swapped(reg):
        _swap_ordinals(reg, 3, 1, 2)

    def out_of_range(reg):
        set_class(_info(reg, 1, 2), exponent=Fraction(4))

    def undeclared(reg):
        set_class(_info(reg, 3, 2), exponent=Fraction(9))

    def below_estimate(reg):
        set_class(_info(reg, 6, 1), exponent=Fraction(1))

    def repeated(reg):
        set_class(_info(reg, 1, 3), exponent=_info(reg, 1, 1).exponent)

    edits = {"swapped ordinals": swapped, "out-of-range exponent": out_of_range,
             "undeclared attained": undeclared, "below 3(i+n)-4": below_estimate,
             "repeated weight": repeated}
    cases = []
    everything = _without(cfg.registry, 2, 1)
    for label, edit in edits.items():
        reg = copy.deepcopy(cfg.registry)
        try:
            edit(reg)
        except ValueError:  # the window holds too few classes
            continue
        edit(everything)
        cases.append((label, reg))
    cases.append(("deleted prefix class", _without(cfg.registry, 1, 1)))
    cases.append(("all at once", everything))
    return cases


@pytest.mark.parametrize("name, shared", [("product_cfg", "1"), ("line_cfg", "")])
def test_verify_bmap_matches_oracle_on_corrupted_registries(name, shared, request):
    # a line window holds one class, so no weight there can be shared
    cfg = request.getfixturevalue(name)
    tags = set()
    for label, reg in _corruptions(cfg):
        report = verify_bmap(cfg.bc, cfg.depth, reg)
        assert report == _verify_bmap_batched(cfg.bc, cfg.depth, reg), label
        assert not report["ok"], label
        tags |= {tag for tag, _ in report["violations"]}
    assert tags == {f"property{i}" for i in "4567" + shared}


def test_verify_bmap_reads_deleted_prefix_as_unregistered(product_cfg):
    reg = _without(product_cfg.registry, 1, 1)
    report = verify_bmap(product_cfg.bc, product_cfg.depth, reg)
    assert {tag for tag, _ in report["violations"]} == {"property6", "property7"}
    assert all("prefix class not registered" in text for _, text in report["violations"])


def test_verify_bmap_matches_oracle_on_python_integers(product_cfg):
    # an exponent whose pair overflows int64 products takes the object path
    reg = copy.deepcopy(product_cfg.registry)
    big = 2**40
    set_class(_info(reg, 3, 2), exponent=Fraction(9 * big - 1, big))
    p, q = _info(reg, 3, 2).ratio
    assert p * q >= tuples._INT64_BOUND
    report = verify_bmap(product_cfg.bc, product_cfg.depth, reg)
    assert report == _verify_bmap_batched(product_cfg.bc, product_cfg.depth, reg)
    assert ("property4", "window m=3: exponents not strictly increasing") in report["violations"]
    # and every case above, with the int64 path switched off
    with mock.patch.object(tuples, "_INT64_BOUND", 0):
        for label, reg in [("clean", product_cfg.registry), *_corruptions(product_cfg)]:
            report = verify_bmap(product_cfg.bc, product_cfg.depth, reg)
            assert report == _verify_bmap_batched(product_cfg.bc, product_cfg.depth, reg), label


def test_verify_bmap_on_an_empty_registry():
    report = verify_bmap(tuples.choose_parameters(1.1), 4, ClassRegistry([np.arange(3)]))
    assert report == {"depth": 4, "violations": [], "checked": 0, "ok": True}


# ----------------------------------------------------------------------
# columns, views and plan weights


def test_class_views_read_their_row_only():
    reg = ClassRegistry([np.arange(10)])
    first = reg.classify(1, (0, 1))
    second = reg.classify(1, (0, 2))
    assert reg.classify(1, (0, 1)) is first and len(reg) == 2
    assert (first.ratio, first.exponent) == ((2, 1), Fraction(2))
    assert (second.ratio, second.exponent) == ((5, 2), Fraction(5, 2))  # 3 - 1/2, below c_1
    third = reg.classify(2, (0, 3))  # m = 2: exponent 6 - 1/1
    fourth = reg.classify(2, (0, 4))
    assert fourth.ratio == (11, 2) and fourth.exponent == Fraction(11, 2)
    for name in ("m", "ordinal", "exponent", "ratio", "representative"):
        with pytest.raises(AttributeError):
            setattr(fourth, name, getattr(third, name))
    assert fourth.ordinal == 2 and (reg._p[3], reg._q[3]) == (11, 2)
    # the test writer changes the row, and every view of it
    set_class(third, ordinal=7, exponent=Fraction(22, 4))
    (_, moved), _ = [c for c in reg.all_classes() if c[0] == 2]
    assert moved.ratio == (11, 2) and moved.ordinal == 7
    assert third != fourth and copy.deepcopy(reg).all_classes() == reg.all_classes()
    assert repr(first) == "ClassInfo(m=1, ordinal=1, exponent=Fraction(2, 1), representative=(0, 1))"
    assert isinstance(first, ClassInfo) and first.__hash__ is None


def test_to_records_writes_each_exponent_as_its_fraction(product_cfg):
    records = list(product_cfg.registry.to_records(product_cfg.space.points))
    infos = product_cfg.registry.all_classes()
    assert len(records) == len(infos) == len(product_cfg.registry)
    assert [r["exponent"] for r in records] == [str(info.exponent) for _, info in infos]
    assert "/" in records[1]["exponent"]


# sha256 over the C-order bytes of every plan's weights, plan by plan, as
# the row-at-a-time registry gave them
WEIGHT_DIGESTS = {
    "line_cfg": "333640731639e1cd3241a88821919f3fd49fa681392526050f16f416d7ad9cbc",
    "product_cfg": "067b900a3ed7a14bca52266ac7219019ead06c2bb5fc86d51788126fb7cec0e2",
    "product_word_capped_cfg": "ae9e70d04576581e0e4614ba000c8ef909845191707ddf243fb1039d51f9795a",
    "product_depth5_cfg": "5604396b57063facb46ea7bafb93ee3d813cfe013f653f7ef08134d921d78c97",
}


@pytest.mark.parametrize("name", sorted(WEIGHT_DIGESTS))
def test_plan_weights_are_bitwise_unchanged(name, request):
    cfg = request.getfixturevalue(name)
    digest = hashlib.sha256()
    for plan in cfg.plans:
        digest.update(plan.weights.tobytes(order="C"))
    assert digest.hexdigest() == WEIGHT_DIGESTS[name]


def test_capped_word_lists_build(word_cap_cfgs):
    # the prefix chains of these registries exist only as rep[:k+1]:
    # re-keying a prefix applies a word twice, which leaves the capped list
    assert {cap: len(cfg.registry) for cap, cfg in word_cap_cfgs.items()} == {1: 3294, 2: 5334, 3: 6813}
    for cfg in word_cap_cfgs.values():
        assert cfg.bmap_report["ok"]
        assert verify_bmap(cfg.bc, cfg.depth, cfg.registry) == cfg.bmap_report


def _prefix_weights_hold(cfg):
    registry, bc = cfg.registry, cfg.bc
    for plan in cfg.plans[1:]:
        starts = plan.starts.tolist()
        keys = canonical_keys(registry, plan.idx).tolist()
        assert plan.weights[:, 0].tolist() == [bc.lam(s) for s in starts]
        for k in range(1, plan.n + 1):
            ms = {s: enumeration_index(s, k) for s in set(starts)}
            infos = [registry._infos[registry._index[ms[s], tuple(key[: k + 1])]]
                     for s, key in zip(starts, keys)]
            assert plan.weights[:, k].tolist() == [bc.inv_L_pow(info.exponent) for info in infos], (plan.n, k)


@pytest.mark.parametrize("name", ["product_cfg", "product_word_capped_cfg", "line_cfg"])
def test_plan_weights_are_the_prefix_classes_of_each_key(name, request):
    _prefix_weights_hold(request.getfixturevalue(name))


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_capped_plan_weights_are_the_prefix_classes_of_each_key(cap, word_cap_cfgs):
    _prefix_weights_hold(word_cap_cfgs[cap])
