"""Bounded groups of lattice isomorphisms: extremal weight and conjugation.

For a bounded group the pointwise infimum m of the word weights turns the
sup norm into the group norm via ``|x|_G = |x / m|_inf``, and conjugating
by the multiplication operator of 1/m makes every group element a sup-norm
isometry.  Continuity of m can fail at accumulation points; the checker
flags exactly the non-isolated points whose sampled jump is large.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .operators import GroupSpec, WeightedComposition
from .space import same_space

log = logging.getLogger(__name__)

__all__ = ["BoundedGroupNorm", "m_weight", "group_norm", "conjugate"]


@dataclass
class BoundedGroupNorm:
    """Extremal weight data for a bounded group at a word cap."""

    group: GroupSpec
    m: np.ndarray            # pointwise inf of word weights
    m_G: np.ndarray          # 1 / m
    s: np.ndarray            # [z]: largest weight any word carries into point z
    C_G: float               # max over words of sup weight
    cap_trace: list[tuple[int, float]]   # (cap, min over sample of m at that cap)
    flagged: list[str]       # non-isolated points with a large sampled jump


def _image_weight(forward: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The largest weight that the maps ``forward`` (rows of n points, one
    row or many) carry into each of the n points, 0 where none lands."""
    s = np.zeros(forward.shape[-1])
    np.maximum.at(s, forward.ravel(), weight.ravel())
    return s


def m_weight(group: GroupSpec) -> BoundedGroupNorm:
    """Pointwise infimum of the enumerated word weights, with a continuity
    report.

    The infimum over the full group is approximated by words up to the
    group's word cap; the per-cap trace is monotone and reported so the
    stabilization is visible.  A point is flagged when m moves by at least 0.25
    within ``space._same_point_tol`` of it.  Discontinuity flags are restricted to
    non-isolated points: at sample scale only those can witness a genuine
    jump of m.

    The word table is read once: its column minima are m, its row minima
    give the trace at every cap (the words of length <= c are a prefix of
    the rows), and its weights grouped by image point give the column s
    that ``group_norm`` reads in place of the table.
    """
    space = group.space
    forward, weights = group.word_table()
    m = weights.min(axis=0)
    prefix_min = np.minimum.accumulate(weights.min(axis=1))
    trace = [(c, float(prefix_min[len(group.word_table(c)[0]) - 1]))
             for c in range(1, group.word_cap + 1)]
    s = _image_weight(forward, weights)

    radius = space._same_point_tol
    flagged = []
    idx = np.arange(space.n)
    for p in np.flatnonzero(~space.isolated).tolist():
        row = space.metric.pair(p, idx)
        near = np.nonzero((row <= radius) & (row > 0))[0]
        if near.size and float(np.max(np.abs(m[near] - m[p]))) >= 0.25:
            flagged.append(space.points[p])

    return BoundedGroupNorm(
        group=group,
        m=m,
        m_G=1.0 / m,
        s=s,
        C_G=float(s.max()),
        cap_trace=trace,
        flagged=flagged,
    )


@dataclass
class GroupNormResult:
    value: float          # |m_G * x|_inf
    sup_over_words: float
    agree: bool


def group_norm(x: np.ndarray, bgn: BoundedGroupNorm) -> GroupNormResult:
    """The weighted sup norm together with the direct sup over enumerated
    words; for word sets closed under inversion the two agree exactly.

    The direct sup ``max |weight * x[forward]|`` is read per image point as
    ``max |s * x|``, the same float: weights are positive, so
    ``|fl(a x)| = fl(a |x|)``, which is monotone in a, and the largest
    weight into a point gives that point's largest product.  Equal values
    agree, infinite ones included; an ``x`` holding NaN never agrees."""
    x = np.asarray(x, dtype=float)
    if x.shape != bgn.s.shape:
        raise ValueError(f"function of shape {x.shape} for {bgn.s.size} points")
    value = float(np.max(np.abs(bgn.m_G * x)))
    sup_words = float(np.max(bgn.s * np.abs(x)))
    return GroupNormResult(value=value, sup_over_words=sup_words,
                           agree=value == sup_words or abs(value - sup_words) <= 1e-12 * max(1.0, value))


def conjugate(g: WeightedComposition, bgn: BoundedGroupNorm) -> WeightedComposition:
    """Conjugation by the extremal-weight multiplication operator.

    The conjugated weight is ``m_G * a_g / (m_G o phi_g)``; where the
    extremal weight is continuous this is a sup-norm isometry.  The sup of
    ``a * (f o phi)`` is ``max s |f|`` for the largest weight s carried into
    each point, so ``max |s - 1|`` is asserted to be 0 (within 1e-12).
    Flagged discontinuities downgrade the assertion to a warning.
    """
    if not same_space(g.space, bgn.group.space):
        raise ValueError("operator and group act on different spaces")
    weight = bgn.m_G * g.weight / bgn.m_G[g.forward]
    out = WeightedComposition(
        space=g.space,
        weight=weight,
        forward=g.forward.copy(),
        backward=g.backward.copy(),
        label=f"conj({g.label})" if g.label else "conj",
        allowed_defects=g.allowed_defects,
    )
    worst = float(np.max(np.abs(_image_weight(out.forward, out.weight) - 1.0)))
    if bgn.flagged:
        if worst > 1e-12:
            log.warning(
                "conjugated operator deviates from isometry by %g; extremal "
                "weight is flagged discontinuous at %s", worst, bgn.flagged[:3],
            )
    elif worst > 1e-12:
        raise AssertionError(f"conjugated operator is not a sup-norm isometry ({worst})")
    return out
