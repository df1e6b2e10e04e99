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

log = logging.getLogger(__name__)

__all__ = ["BoundedGroupNorm", "m_weight", "group_norm", "conjugate"]


@dataclass
class BoundedGroupNorm:
    """Extremal weight data for a bounded group at a word cap."""

    group: GroupSpec
    m: np.ndarray            # pointwise inf of word weights
    m_G: np.ndarray          # 1 / m
    C_G: float               # max over words of sup weight
    cap_trace: list[tuple[int, float]]   # (cap, min over sample of m at that cap)
    flagged: list[str]       # non-isolated points with a large sampled jump
    growth_warning: bool


def m_weight(group: GroupSpec, word_cap: int | None = None) -> BoundedGroupNorm:
    """Pointwise infimum of the enumerated word weights, with a continuity
    report.

    The infimum over the full group is approximated by words up to the cap;
    the per-cap trace is monotone and reported so the stabilization is
    visible.  A point is flagged when m moves by at least 0.25 within
    ``2 * resolution`` of it.  Discontinuity flags are restricted to
    non-isolated points: at sample scale only those can witness a genuine
    jump of m.
    """
    space = group.space
    cap = group.word_cap if word_cap is None else word_cap
    weights = group.word_table(cap)[1]
    if not np.all(np.isfinite(weights)):
        raise ValueError("unbounded group at cap: non-finite word weight")
    m = weights.min(axis=0)
    trace = [(c, float(group.word_table(c)[1].min())) for c in range(1, cap + 1)]
    growth = len(trace) >= 2 and trace[-1][1] < trace[-2][1] - 1e-12

    radius = 2 * space.resolution
    flagged = []
    for p in range(space.n):
        if space.isolated[p]:
            continue
        near = np.nonzero((space.dmat[p] <= radius) & (space.dmat[p] > 0))[0]
        if near.size and float(np.max(np.abs(m[near] - m[p]))) >= 0.25:
            flagged.append(space.points[p])

    return BoundedGroupNorm(
        group=group,
        m=m,
        m_G=1.0 / m,
        C_G=float(weights.max()),
        cap_trace=trace,
        flagged=flagged,
        growth_warning=growth,
    )


@dataclass
class GroupNormResult:
    value: float          # |m_G * x|_inf
    sup_over_words: float
    agree: bool


def group_norm(x: np.ndarray, bgn: BoundedGroupNorm) -> GroupNormResult:
    """The weighted sup norm together with the direct sup over enumerated
    words; for word sets closed under inversion the two agree exactly."""
    x = np.asarray(x, dtype=float)
    value = float(np.max(np.abs(bgn.m_G * x)))
    forward, weight = bgn.group.word_table()
    sup_words = float(np.max(np.abs(weight * x[forward])))
    return GroupNormResult(value=value, sup_over_words=sup_words,
                           agree=abs(value - sup_words) <= 1e-12 * max(1.0, value))


def conjugate(g: WeightedComposition, bgn: BoundedGroupNorm) -> WeightedComposition:
    """Conjugation by the extremal-weight multiplication operator.

    The conjugated weight is ``m_G * a_g / (m_G o phi_g)``; where the
    extremal weight is continuous this is a sup-norm isometry, asserted on
    a deterministic battery of test functions.  Flagged discontinuities
    downgrade the assertion to a warning.
    """
    if g.space is not bgn.group.space:
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
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(8):
        f = rng.uniform(-1.0, 1.0, size=g.space.n)
        worst = max(worst, abs(float(np.max(np.abs(out.apply(f)))) - float(np.max(np.abs(f)))))
    if bgn.flagged:
        if worst > 1e-12:
            log.warning(
                "conjugated operator deviates from isometry by %g; extremal "
                "weight is flagged discontinuous at %s", worst, bgn.flagged[:3],
            )
    elif worst > 1e-12:
        raise AssertionError(f"conjugated operator is not a sup-norm isometry ({worst})")
    return out
