import dataclasses
import math

import numpy as np
import pytest

import renormlab as rl
from renormlab import bounded
from renormlab.bounded import conjugate, group_norm, m_weight
from renormlab.operators import GroupSpec, WeightedComposition, circle_rotation, identity


def test_isometric_group_gives_sup_norm():
    circ = rl.builtin_space("circle", count=24)
    G = GroupSpec((circle_rotation(circ, steps=2),), word_cap=4)
    bgn = m_weight(G)
    assert np.all(bgn.m == 1.0)
    assert bgn.C_G == 1.0
    assert bgn.flagged == []
    x = np.ones(circ.n)
    res = group_norm(x, bgn)
    assert res.value == 1.0 and res.agree


def test_swap_group_extremal_weight(onepoint_space, swap_group):
    bgn = m_weight(swap_group)
    n_max = onepoint_space.metric_form["n_max"]
    assert bgn.m[onepoint_space.index("inf")] == 1.0
    for n in range(1, n_max + 1):
        assert bgn.m[onepoint_space.index(f"(1,{n})")] == 0.5
        assert bgn.m[onepoint_space.index(f"(0,{n})")] == 1.0
    assert bgn.flagged == ["inf"]
    assert bgn.C_G == 2.0
    assert np.all(bgn.m >= 1.0 / bgn.C_G)
    assert np.all(bgn.m <= 1.0)


def _single_generator_group(word_cap):
    """A one-generator bounded non-isometric group on a [0,1] grid: the map
    expands the first quarter threefold and its weight peaks at 2 inside the
    squeezed middle band."""
    seg = rl.builtin_space("line", step=1 / 64, window=(0, 1))
    coords = seg.metric.x
    n = seg.n

    def phi(t):
        return 3 * t if t <= 0.25 else (t + 2) / 3

    def phi_inv(s):
        return s / 3 if s <= 0.75 else 3 * s - 2

    fwd = np.array([int(round(phi(c) * 64)) for c in coords], dtype=np.intp)
    bwd = np.array([int(round(phi_inv(c) * 64)) for c in coords], dtype=np.intp)
    a = np.interp(coords, [0.0, 0.25, 0.375, 0.5, 1.0], [1.0, 1.0, 2.0, 1.0, 1.0])
    idx = np.arange(n)
    gap = np.maximum(seg.dmat[bwd[fwd], idx], seg.dmat[fwd[bwd], idx])
    defects = frozenset(int(i) for i in np.nonzero(gap > 2 * seg.resolution)[0])
    g = WeightedComposition(seg, a, fwd, bwd, label="expander", allowed_defects=defects)
    return GroupSpec((g,), word_cap=word_cap, label="one-gen")


def test_single_generator_trace_monotone():
    G = _single_generator_group(word_cap=4)
    bgn = m_weight(G)
    mins = [v for _, v in bgn.cap_trace]
    assert all(b <= a + 1e-15 for a, b in zip(mins, mins[1:]))
    assert np.all(bgn.m <= 1.0)  # identity is a word


def test_group_norm_swap_bump(onepoint_space, swap_group):
    bgn = m_weight(swap_group)
    x = np.zeros(onepoint_space.n)
    x[onepoint_space.index("(1,9)")] = 1.0
    res = group_norm(x, bgn)
    assert res.value == 2.0
    assert res.sup_over_words == 2.0
    assert res.agree


def test_group_norm_ratio_window(onepoint_space, swap_group):
    bgn = m_weight(swap_group)
    rng = np.random.default_rng(23)
    for _ in range(25):
        x = rng.uniform(-1, 1, size=onepoint_space.n)
        sup = float(np.max(np.abs(x)))
        res = group_norm(x, bgn)
        assert sup / bgn.C_G - 1e-12 <= res.value <= bgn.C_G * sup + 1e-12


def test_group_norm_word_sup_matches_per_word_loop(onepoint_space, swap_group):
    bgn = m_weight(swap_group)
    words = swap_group.words()
    rng = np.random.default_rng(37)
    for k in range(40):
        x = rng.uniform(-1, 1, size=onepoint_space.n)
        if k % 2:  # sparse bumps put the sup on a single swapped pair
            x *= rng.uniform(size=onepoint_space.n) < 0.05
        per_word = max(float(np.max(np.abs(w.apply(x)))) for w in words)
        assert group_norm(x, bgn).sup_over_words == per_word


def test_group_norm_lattice_monotone(onepoint_space, swap_group):
    bgn = m_weight(swap_group)
    rng = np.random.default_rng(29)
    for _ in range(25):
        y = rng.uniform(-1, 1, size=onepoint_space.n)
        x = y * rng.uniform(0, 1, size=onepoint_space.n)  # |x| <= |y|
        assert group_norm(x, bgn).value <= group_norm(y, bgn).value + 1e-15


def test_conjugate_isometric_group_unchanged():
    circ = rl.builtin_space("circle", count=24)
    G = GroupSpec((circle_rotation(circ, steps=3),), word_cap=3)
    bgn = m_weight(G)
    g = G.generators[0]
    cg = conjugate(g, bgn)
    assert np.array_equal(cg.forward, g.forward)
    assert np.allclose(cg.weight, g.weight)


def test_conjugate_swap_is_weight_one(onepoint_space, swap_group):
    bgn = m_weight(swap_group)
    for n in (1, 4, 50):
        g = swap_group.generators[n - 1]
        cg = conjugate(g, bgn)
        assert np.allclose(cg.weight, 1.0)
        i0 = onepoint_space.index(f"(0,{n})")
        i1 = onepoint_space.index(f"(1,{n})")
        assert cg.forward[i0] == i1 and cg.forward[i1] == i0


def test_conjugate_is_homomorphism(onepoint_space, swap_group):
    from renormlab.operators import compose
    bgn = m_weight(swap_group)
    g, h = swap_group.generators[2], swap_group.generators[7]
    lhs = conjugate(compose(g, h), bgn)
    rhs = compose(conjugate(g, bgn), conjugate(h, bgn))
    assert np.array_equal(lhs.forward, rhs.forward)
    assert np.allclose(lhs.weight, rhs.weight, atol=1e-14)


def test_conjugate_sup_isometric_on_random_functions(onepoint_space, swap_group):
    bgn = m_weight(swap_group)
    rng = np.random.default_rng(31)
    cg = conjugate(swap_group.generators[10], bgn)
    for _ in range(50):
        f = rng.uniform(-1, 1, size=onepoint_space.n)
        assert abs(np.max(np.abs(cg.apply(f))) - np.max(np.abs(f))) <= 1e-12


def test_conjugate_accepts_an_operator_on_an_equal_space_and_refuses_others():
    line = rl.builtin_space("line", step=0.5, window=(0, 1))
    twin = dataclasses.replace(line, metric_form={"form": "matrix"})
    rotations = m_weight(GroupSpec((circle_rotation(rl.builtin_space("circle", count=12), steps=1),), word_cap=2))
    trivial = m_weight(GroupSpec.trivial(line))
    for g, bgn in ((circle_rotation(rl.builtin_space("circle", count=12), steps=3), rotations),
                   (identity(rl.builtin_space("line", step=0.5, window=(0, 1))), trivial)):
        out = conjugate(g, bgn)
        assert np.array_equal(out.forward, g.forward) and np.all(out.weight == 1.0)
    for g, bgn in ((circle_rotation(rl.builtin_space("circle", count=24), steps=2), rotations),
                   (identity(twin), trivial)):
        with pytest.raises(ValueError, match="operator and group act on different spaces"):
            conjugate(g, bgn)


@pytest.mark.parametrize("block", [None, 101 * 7, 101 * 1275, 1])
def test_group_norm_blocks_equal_the_direct_formula(onepoint_space, swap_group, monkeypatch, block):
    # the default block, 7 rows (1,276 is no multiple of 7), all rows but
    # one, and one row per block
    if block is not None:
        monkeypatch.setattr(bounded, "_NORM_BLOCK", block)
    bgn = m_weight(swap_group)
    forward, weight = swap_group.word_table()
    rows = max(1, bounded._NORM_BLOCK // onepoint_space.n)
    assert rows == 1 or len(forward) % rows != 0
    rng = np.random.default_rng(41)
    for k in range(12):
        x = rng.uniform(-1, 1, size=onepoint_space.n) * (rng.uniform(size=onepoint_space.n) < 0.1 * k)
        direct = np.max(np.abs(weight * x[forward]))
        assert np.float64(group_norm(x, bgn).sup_over_words).tobytes() == direct.tobytes()
    x[3] = np.nan  # a NaN in x is the sup, as it is the direct formula's
    assert math.isnan(np.max(np.abs(weight * x[forward])))
    assert math.isnan(group_norm(x, bgn).sup_over_words)
