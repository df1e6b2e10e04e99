import copy
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from key_oracles import KEY_BLOCK, canonical_keys, lookup_rows, set_class
from renormlab import tuples
from renormlab.tuples import (
    ClassRegistry,
    TupleIndex,
    Window,
    choose_parameters,
    enumerate_window,
    enumeration_index,
    enumeration_tail,
    exceptional_classes,
    verify_bmap,
)


def test_enumeration_first_rows():
    expected = {1: (1, 2), 2: (2, 3), 3: (1, 2, 3), 4: (3, 4), 5: (2, 3, 4), 6: (1, 2, 3, 4)}
    for m, idx in expected.items():
        assert enumerate_window(m).indices() == idx


def test_enumeration_round_trip_to_1e4():
    for m in range(1, 10_001):
        w = enumerate_window(m)
        assert enumeration_index(w.start, w.n) == m


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200)
def test_enumeration_round_trip_property(m):
    w = enumerate_window(m)
    assert enumeration_index(w.start, w.n) == m


def _row_search_window(m):
    # the linear row search that the isqrt closed form replaced
    r = 1
    while r * (r + 1) // 2 < m:
        r += 1
    j = m - r * (r - 1) // 2
    return Window(start=r + 1 - j, length=j + 1)


@given(st.integers(min_value=1, max_value=10**7))
@settings(max_examples=200)
def test_enumerate_window_matches_row_search(m):
    assert enumerate_window(m) == _row_search_window(m)


def test_enumeration_monotone_in_window_order():
    # windows (p..p+q) with q <= n and p <= i never come after (i..i+n)
    windows = [enumerate_window(m) for m in range(1, 1001)]
    index = {w.indices(): m for m, w in enumerate(windows, start=1)}
    for m, w in enumerate(windows, start=1):
        i, n = w.start, w.n
        for q in range(1, n + 1):
            for p in range(1, i + 1):
                ell = index.get(tuple(range(p, p + q + 1)))
                if ell is not None:
                    assert ell <= m


def test_c_value_examples():
    # the comparability code c = 3m of a window (start, n)
    assert 3 * enumeration_index(1, 1) == 3
    assert 3 * enumeration_index(1, 2) == 9
    assert 3 * enumeration_index(4, 2) == 36  # (4, 5, 6) is window 12


def test_window_validation():
    with pytest.raises(ValueError):
        Window(start=0, length=2)
    with pytest.raises(ValueError):
        Window(start=1, length=1)
    with pytest.raises(ValueError):
        enumerate_window(0)


def test_registry_window_index_matches_enumeration_index():
    reg = ClassRegistry([np.arange(12)])
    for start in range(1, 7):
        for n in range(1, 6):
            points = tuple(range(n + 1))
            m = enumeration_index(start, n)
            assert reg.classify(start, points).m == m
            assert reg.prefix_classes(start, points)[-1].m == m
    for start, points, message in ((0, (0, 1), "start must be >= 1"), (1, (0,), "length must be >= 2")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            reg.classify(start, points)
        with pytest.raises(ValueError, match=f"^{message}$"):
            reg.prefix_classes(start, points)
        with pytest.raises(ValueError, match=f"^{message}$"):
            enumeration_index(start, len(points) - 1)


def test_choose_parameters_examples():
    bc = choose_parameters(1.1)
    assert bc.L == 22 and bc.lam(1) == pytest.approx(1.05)
    assert choose_parameters(1.01).L == 202
    with pytest.raises(ValueError):
        choose_parameters(1.2)
    with pytest.raises(ValueError):
        choose_parameters(1.0)


@given(st.floats(min_value=1.001, max_value=1.1))
@settings(max_examples=50)
def test_choose_parameters_tail_inside_budget(C):
    bc = choose_parameters(C)
    assert bc.L > 9
    assert bc.tail_sum() < bc.budget()
    # minimality: one step down violates the budget (or crosses 9)
    if bc.L > 10:
        assert Fraction(1, bc.L - 2) >= bc.budget()


def test_registry_first_class_exponent():
    reg = ClassRegistry([np.arange(10)])
    info = reg.classify(1, (0, 1))
    assert info.m == 1 and info.ordinal == 1
    assert info.exponent == Fraction(2)  # c_1 - 1 = 3 - 1


def test_registry_ordinals_increase_and_stay_below_sup():
    reg = ClassRegistry([np.arange(10)])
    exps = [reg.classify(1, (0, k)).exponent for k in range(1, 6)]
    assert all(a < b for a, b in zip(exps, exps[1:]))
    assert all(Fraction(2) <= e < Fraction(3) for e in exps)


def test_registry_canonical_key_orbit_invariant():
    # composition-closed word set: the full 3-cycle group on {0,1,2}
    cyc = np.arange(6)
    cyc[[0, 1, 2]] = [1, 2, 0]
    cyc2 = cyc[cyc]
    reg = ClassRegistry([np.arange(6), cyc, cyc2])
    a = reg.classify(1, (0, 3))
    b = reg.classify(1, (1, 3))
    assert (a.m, a.ordinal) == (b.m, b.ordinal)
    c = reg.classify(1, (4, 3))
    assert c.ordinal != a.ordinal


def _canonical_key_loop(word_maps, points):
    # the per-word loop that the stacked word-map gather replaced
    pts = np.asarray(points, dtype=np.intp)
    best = None
    for w in word_maps:
        img = tuple(int(i) for i in np.asarray(w)[pts])
        if best is None or img < best:
            best = img
    return best


@st.composite
def _word_maps_and_points(draw):
    # arbitrary index maps: the word set need not be closed under composition
    n = draw(st.integers(min_value=1, max_value=12))
    index = st.integers(min_value=0, max_value=n - 1)
    maps = draw(st.lists(st.lists(index, min_size=n, max_size=n), min_size=1, max_size=6))
    points = draw(st.lists(index, min_size=1, max_size=6))
    return [np.asarray(m) for m in maps], tuple(points)


@given(_word_maps_and_points())
@settings(max_examples=200)
def test_canonical_key_matches_per_word_loop(case):
    maps, points = case
    key = ClassRegistry(maps).canonical_key(points)
    assert key == _canonical_key_loop(maps, points)
    assert all(type(i) is int for i in key)


@st.composite
def _word_maps_and_rows(draw):
    # a (T, k) block with repeated rows over arbitrary index maps
    n = draw(st.integers(min_value=1, max_value=12))
    index = st.integers(min_value=0, max_value=n - 1)
    maps = draw(st.lists(st.lists(index, min_size=n, max_size=n), min_size=1, max_size=6))
    k = draw(st.integers(min_value=1, max_value=6))
    distinct = draw(st.lists(st.lists(index, min_size=k, max_size=k), min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=30))
    block = draw(st.integers(min_value=1, max_value=40))
    return [np.asarray(m) for m in maps], np.asarray(rows, dtype=np.intp), block


@given(_word_maps_and_rows())
@settings(max_examples=300)
def test_canonical_keys_match_per_word_loop(case):
    maps, rows, block = case
    reg = ClassRegistry(maps)
    expected = [_canonical_key_loop(maps, row) for row in rows]
    # a small block size splits the rows over several lexsorts
    for size in (KEY_BLOCK, block):
        keys = canonical_keys(reg, rows, size)
        assert keys.shape == rows.shape
        assert [tuple(key) for key in keys.tolist()] == expected
    assert [reg.canonical_key(row) for row in rows.tolist()] == expected


def test_b_value_property5_spot():
    # window (2,3,4): m = 5, c = 15, so every exponent is >= 14 >= 3*4 - 4
    reg = ClassRegistry([np.arange(10)])
    t = TupleIndex(2, (0, 0, 0), (4, 5, 6))
    k = reg.classify(t.start, t.points).exponent
    assert k >= 3 * 4 - 4
    assert k == Fraction(14)


def _verify_bmap_reference(bc, depth, registry):
    # the verifier that looked up every prefix of every representative
    # one tuple at a time
    def lookup(start, points):
        return lookup_rows(registry, [start], np.array([points]))[0]

    report = {"depth": depth, "violations": [], "checked": 0}
    if not bc.tail_sum() < bc.budget():
        report["violations"].append(("property3", "geometric tail exceeds budget"))
    by_m = {}
    for m, info in registry.all_classes():
        w = enumerate_window(m)
        if w.end > depth and w.n > 1:
            continue
        by_m.setdefault(m, []).append(info)
    for m, infos in sorted(by_m.items()):
        w = enumerate_window(m)
        cm = 3 * m
        if 3 * enumeration_index(w.start, w.n) != cm:
            report["violations"].append(("property2", f"window {w} code mismatch"))
        exps = [info.exponent for info in sorted(infos, key=lambda i: i.ordinal)]
        for a, b in zip(exps, exps[1:]):
            if not a < b:
                report["violations"].append(("property4", f"window m={m}: exponents not strictly increasing"))
        for info in infos:
            report["checked"] += 1
            k = info.exponent
            if not (Fraction(cm - 1) <= k <= Fraction(cm)):
                report["violations"].append(("property4", f"m={m} ordinal {info.ordinal}: exponent outside [c-1, c]"))
            if k >= Fraction(cm):
                report["violations"].append(("property4", f"m={m} ordinal {info.ordinal}: supremum attained without declaration"))
            if k < 3 * w.end - 4:
                report["violations"].append(("property5", f"m={m} ordinal {info.ordinal}: exponent below 3(i+n)-4"))
        seen_exponents = {}
        for info in infos:
            prev = seen_exponents.get(info.exponent)
            if prev is not None:
                report["violations"].append(("property1", f"m={m}: classes {prev} and {info.ordinal} share a weight"))
            seen_exponents[info.exponent] = info.ordinal
    rep_index = {(m, info.representative): info for m, info in registry.all_classes()}
    for (m, rep), info in rep_index.items():
        w = enumerate_window(m)
        if w.n < 2 or (w.end > depth and w.n > 1):
            continue
        pinfo = lookup(w.start, rep[:-1])
        if pinfo is None:
            report["violations"].append(("property6", f"m={m} ordinal {info.ordinal}: prefix class not registered"))
        elif not info.exponent > pinfo.exponent + 1:
            report["violations"].append(
                ("property6", f"m={m} ordinal {info.ordinal}: extension does not exceed L * base weight")
            )
    for (m, rep), info in sorted(rep_index.items()):
        w = enumerate_window(m)
        subs = [lookup(w.start, rep[: k + 1]) for k in range(1, w.n + 1)]
        report["checked"] += 1
        if any(sub is None for sub in subs):
            report["violations"].append(("property7", f"m={m} ordinal {info.ordinal}: prefix class not registered"))
            continue
        total = bc.lam(w.start)
        for sub in subs:
            total += bc.inv_L_pow(sub.exponent)
        total += enumeration_tail(bc, m)
        if not total < bc.C:
            report["violations"].append(("property7", f"m={m} ordinal {info.ordinal}: budget exceeded ({total})"))
    report["ok"] = not report["violations"]
    return report


@pytest.mark.parametrize("name", ["product_cfg", "line_cfg", "product_word_capped_cfg", "product_capped_cfg"])
def test_verify_bmap_matches_per_tuple_reference(name, request):
    cfg = request.getfixturevalue(name)
    for depth in (cfg.depth, cfg.depth - 1):
        report = verify_bmap(cfg.bc, depth, cfg.registry)
        assert report == _verify_bmap_reference(cfg.bc, depth, cfg.registry)
    assert report["checked"] > 0


def _corrupt(registry, m, ordinal, exponent):
    for window, info in registry.all_classes():
        if window == m and info.ordinal == ordinal:
            set_class(info, exponent=exponent)


def test_verify_bmap_matches_reference_on_corrupted_registries(product_cfg):
    bc = choose_parameters(1.1)
    dup = ClassRegistry([np.arange(10)])
    dup.classify(1, (0, 1))
    set_class(dup.classify(1, (0, 2)), exponent=Fraction(2))
    orphan = ClassRegistry([np.arange(10)])
    orphan.classify(1, (0, 1, 2))
    cases = [(dup, 3), (orphan, 3)]
    # on a copy of a built registry: a pair exponent of 0 breaks the budget
    # (7), one of 7.6 the one-step growth of its extensions (6); others
    # leave [c-1, c] (4), undercut 3(i+n)-4 (5), or repeat a weight (1)
    for m, ordinal, exponent in [(1, 1, Fraction(0)), (1, 1, Fraction(38, 5)), (3, 2, Fraction(9)),
                                 (3, 3, Fraction(19, 2)), (6, 1, Fraction(1)), (6, 1, Fraction(15, 2)),
                                 (5, 3, Fraction(29, 2)), (6, 4, Fraction(35, 2))]:
        reg = copy.deepcopy(product_cfg.registry)
        _corrupt(reg, m, ordinal, exponent)
        cases.append((reg, product_cfg.depth))
    tags = set()
    for reg, depth in cases:
        report = verify_bmap(bc, depth, reg)
        assert report == _verify_bmap_reference(bc, depth, reg)
        assert not report["ok"]
        tags |= {tag for tag, _ in report["violations"]}
    assert tags == {"property1", "property4", "property5", "property6", "property7"}


def test_verify_bmap_passes_on_line(line_cfg):
    report = verify_bmap(line_cfg.bc, line_cfg.depth, line_cfg.registry)
    assert report["ok"], report["violations"][:5]


def test_verify_bmap_passes_on_product(product_cfg):
    report = verify_bmap(product_cfg.bc, product_cfg.depth, product_cfg.registry)
    assert report["ok"], report["violations"][:5]


def test_verify_bmap_detects_duplicate_exponent():
    reg = ClassRegistry([np.arange(10)])
    reg.classify(1, (0, 1))
    corrupt = reg.classify(1, (0, 2))
    set_class(corrupt, exponent=Fraction(2))  # collide with the first class
    bc = choose_parameters(1.1)
    report = verify_bmap(bc, 3, reg)
    assert not report["ok"]
    assert any(tag == "property1" for tag, _ in report["violations"])


def test_verify_bmap_reads_registry_only():
    # a 3-slot class whose 2-slot prefix was never registered
    reg = ClassRegistry([np.arange(10)])
    reg.classify(1, (0, 1, 2))
    before = list(reg.to_records(range(10)))
    report = verify_bmap(choose_parameters(1.1), 3, reg)
    assert list(reg.to_records(range(10))) == before
    assert not report["ok"]
    assert {tag for tag, _ in report["violations"]} == {"property6", "property7"}
    assert all("prefix class not registered" in msg for _, msg in report["violations"])


def test_verify_bmap_property6_spot(line_cfg):
    reg = line_cfg.registry
    pair = reg.classify(1, line_cfg.base_tuple(1, 1).points)
    triple = reg.classify(1, line_cfg.base_tuple(1, 2).points)
    assert triple.exponent > pair.exponent + 1


def test_enumeration_tail_certificate():
    bc = choose_parameters(1.1)
    tail = enumeration_tail(bc, 15)
    direct = sum(bc.L ** -(3 * m - 1) for m in range(16, 60))
    assert direct <= tail <= direct * (1 + 1e-8)


def test_exceptional_classes_single_class_empty(line_cfg):
    t = line_cfg.base_tuple(1, 2)
    assert exceptional_classes(t, 1, 1, line_cfg.registry) == []
    assert exceptional_classes(t, 2, 1, line_cfg.registry) == []


def test_exceptional_classes_smaller_b_listed():
    reg = ClassRegistry([np.arange(10)])
    first = reg.classify(2, (5, 6))      # ordinal 1, exponent c-1
    second = reg.classify(2, (5, 7))     # ordinal 2, larger exponent
    t = TupleIndex(2, (0, 0), (5, 7))    # the tuple in the *second* class
    exc = exceptional_classes(t, 2, 1, reg)
    assert [e.ordinal for e in exc] == [first.ordinal]


def _exceptional_classes_by_classify(t, p, q, registry):
    # the version that classified the sub-tuple, registering its class when new
    i, n = t.start, t.n
    if not (i <= p and p + q <= i + n and q >= 1):
        raise ValueError("exceptional window out of range")
    if p == i + n:
        raise ValueError("exceptional window must start before the tuple end")
    sub = t.segment(p - i, p - i + q)
    own = registry.classify(sub.start, sub.points)
    m = enumeration_index(p, q)
    return [info for window, info in registry.all_classes() if window == m and info.exponent < own.exponent]


def _fork(registry):
    # a registry with the same word maps and its own copy of the class columns
    fork = copy.copy(registry)
    for name in ("_m", "_ordinal", "_p", "_q", "_rep", "_infos"):
        setattr(fork, name, list(getattr(registry, name)))
    fork._index = dict(registry._index)
    fork._by_window = {m: list(rows) for m, rows in registry._by_window.items()}
    return fork


@pytest.mark.parametrize("name", ["product_cfg", "product_capped_cfg", "product_word_capped_cfg", "line_cfg"])
def test_exceptional_classes_match_the_classify_oracle(name, request):
    # tuples over windows inside and past the depth, every sub-window of
    # each; the oracle runs on a fork, so it may register.  Labels past
    # product_capped_cfg's gamma_cap give unregistered sub-tuples in
    # windows that hold classes
    cfg = request.getfixturevalue(name)
    registry, size = cfg.registry, len(cfg.registry)
    rng = np.random.default_rng(7)
    registered = listed = 0
    for start in range(1, cfg.depth + 2):
        for n in range(1, cfg.depth + 1):
            for _ in range(2):
                gammas = [int(rng.integers(len(cfg.orbit_of_base(start + j)))) for j in range(n + 1)]
                t = cfg.tuple_index(start, gammas)
                for p in range(start, start + n):
                    for q in range(1, start + n - p + 1):
                        fork = _fork(registry)
                        expected = _exceptional_classes_by_classify(t, p, q, fork)
                        assert exceptional_classes(t, p, q, registry) == expected, (t, p, q)
                        registered += len(fork) > size
                        listed += len(fork) > size and len(expected) > 0
    assert len(registry) == size
    assert registered > 0  # some sub-tuples had no registered class
    assert listed > 0 or name != "product_capped_cfg"


def test_exceptional_classes_bounds():
    reg = ClassRegistry([np.arange(10)])
    t = TupleIndex(1, (0, 0), (0, 1))
    with pytest.raises(ValueError):
        exceptional_classes(t, 2, 1, reg)


# ----------------------------------------------------------------------
# the array forms against their scalar rules


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("C", [1.1, 1.05, 1.001])
def test_class_recips_are_bitwise_class_recip(C):
    bc = tuples.choose_parameters(C)
    rng = np.random.default_rng(57)
    edge = 745.0 / math.log(bc.L)  # the underflow edge x ln L = 745
    pairs = [(3 * m * o - 1, o) for m in range(1, 60) for o in range(1, 40)]
    pairs += [(int(p), int(q)) for p, q in rng.integers(1, 2**31, size=(500, 2))]
    big = 2**60  # p and q above 2^53: Python's division rounds once, a float division would twice
    pairs += [(int(edge * big) + k, big) for k in range(-300, 300, 7)]
    pairs += [(int(edge * 2**40) * 2**20 + k, 2**60 + 3) for k in range(-40, 40)]
    pairs += [(2**53 + 1, 3), (2**64 + 1, 2**54 + 1), (10**30 + 7, 10**28 + 1)]
    # exponents 2..200 from pairs above 2^54, where converting p and q to
    # floats before dividing moves about a third of the weights
    q_big = [int(q) + 2**54 for q in rng.integers(0, 2**54, size=300)]
    pairs += [(q * int(k) + int(r) % q, q) for q, k, r in zip(q_big, rng.integers(2, 200, size=300),
                                                             rng.integers(0, 2**62, size=300))]
    pairs += [(q * math.floor(edge) + k, q) for q in (1, 7, 2**20) for k in range(-3 * q, 3 * q + 1, max(1, q // 4))]
    p, q = map(list, zip(*pairs))
    want = [bc.class_recip(a, b) for a, b in pairs]
    assert _bits(bc.class_recips(p, q)) == _bits(want)
    assert 0.0 in want and min(w for w in want if w) < 1e-300  # both sides of the edge
    # the float form around the edge, 40 ulps each way
    x = [edge]
    for toward in (0.0, math.inf):
        v = edge
        for _ in range(40):
            v = math.nextafter(v, toward)
            x.append(v)
    want = [bc.inv_L_pow(v) for v in x]
    assert {w == 0.0 for w in want} == {True, False}
    p, q = zip(*(v.as_integer_ratio() for v in x))  # each float exactly, as p / q
    assert _bits(bc.class_recips(np.array(p, dtype=object), np.array(q, dtype=object))) == _bits(want)
    assert _bits(bc.class_recips([], [])) == []


def test_enumeration_tail_of_an_array_is_bitwise_the_scalar_tail():
    bc = tuples.choose_parameters(1.1)
    ms = np.array([1, 2, 3, 10, 70, 79, 80, 81, 82, 200, 10**6, 2**40], dtype=np.int64)
    got = tuples.enumeration_tail(bc, ms)
    assert _bits(got) == _bits([tuples.enumeration_tail(bc, int(m)) for m in ms])
    assert got[0] > 0 and got[-1] == 0.0


def test_windows_of_an_index_array_are_enumerate_window():
    rng = np.random.default_rng(5)
    ms = np.concatenate([np.arange(1, 20001), rng.integers(1, 2**50 - 1, size=20000)])
    # the first and last index of rows near the float square root's limit
    r = np.array([2**25 - 1, 2**25, 2**25 + 1, 47453132, 2**25 * 1.4], dtype=np.int64)
    ms = np.concatenate([ms, r * (r - 1) // 2 + 1, r * (r + 1) // 2, r * (r + 1) // 2 - 1]).astype(np.int64)
    assert (8 * ms + 1 < 2**53).all()
    starts, ns = tuples._windows(ms)
    want = [(w.start, w.n) for w in map(tuples.enumerate_window, ms.tolist())]
    assert list(zip(starts.tolist(), ns.tolist())) == want
