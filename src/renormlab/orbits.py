"""Orbit closures of a group action at sample scale.

Tuples of sample points are acted on diagonally by group words.  Orbit
samples are the distinct exact index images (operators store index maps),
and orbit-closure membership is tested in the max metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import GroupSpec
from .space import SampledSpace, _integer

__all__ = [
    "OrbitClosure",
    "orbit_closure",
    "equivalent",
    "select_dense_points",
]


@dataclass(frozen=True)
class OrbitClosure:
    """Sampled orbit of a tuple: all word images up to ``word_cap``."""

    base: tuple[int, ...]
    samples: tuple[tuple[int, ...], ...]
    word_cap: int
    window_clipped: bool

    def __len__(self) -> int:
        return len(self.samples)


def orbit_closure(group: GroupSpec, t: Sequence[int]) -> OrbitClosure:
    """The distinct images of the tuple under the group's words, sorted;
    row 0 of the word table is the identity, so the tuple is one of them."""
    base = tuple(int(i) for i in t)
    images = group.word_table()[0][:, base]  # row w is word w's image
    rows = images[np.lexsort(images.T[::-1])] if base else images[:1]  # tuple order; () is its own image
    distinct = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
    defects = list(frozenset().union(*(g.allowed_defects for g in group.generators)))
    return OrbitClosure(base=base, samples=tuple(map(tuple, distinct.tolist())),
                        word_cap=group.word_cap, window_clipped=bool(np.isin(images, defects).any()))


def equivalent(s: Sequence[int], t: Sequence[int], group: GroupSpec) -> bool:
    """True iff some image of t under the group's full word list (the word
    table's columns at t, the identity's row 0 included) lies strictly
    within ``_resolution_tol`` of s in the max metric: one snap's error, so
    distinct grid neighbors, at twice it, stay inequivalent."""
    if len(s) != len(t):
        raise ValueError("length mismatch")
    if not t:
        return True  # () is its own one image, as in orbit_closure
    space = group.space
    images = group.word_table()[0][:, list(t)]
    return bool(space.metric.pair(images, list(s)).max(axis=1).min() < space._resolution_tol)


def select_dense_points(
    space: SampledSpace,
    group: GroupSpec,
    count: int | None = None,
) -> tuple[list[int], list[dict]]:
    """Greedy selection of base points, each off the sampled orbits of the
    points picked before it.

    The dense reference sequence is the sample enumeration itself.  Step i
    picks the point closest to the reference point within radius
    ``max(2^-i, resolution)`` whose distance to the sampled orbit of every
    earlier pick, over the group's full word list, is at least 1e-9; ties
    break by point index.  Only that is checked.  A pick's sampled orbit is
    its word-table column, the orbit ``build_config`` enumerates.  When the
    word list is closed under composition, a shared orbit entry would make
    the later pick a word image of the earlier one, so the orbits are
    pairwise disjoint; a capped word list can reach an earlier orbit from a
    later pick.  With ``count=None`` the selection runs until
    candidates are exhausted, and stops once every point lies within 1e-9
    of a picked orbit; an explicit count raises when unreachable.

    Returns the selected indices and the per-step audit trail.
    """
    if count is not None:
        _integer(count, "count", 1)
    n = space.n
    dmat = space.dmat
    table = group.word_table()[0]
    chosen: list[int] = []
    audit: list[dict] = []
    # distance from each sample point to the union of selected orbit samples
    orbit_dist = np.full(n, np.inf)
    target = count if count is not None else n
    step = 0
    for ref in range(n):
        if len(chosen) >= target:
            break
        step += 1
        radius = max(2.0 ** (-step), space.resolution)
        d = np.where(orbit_dist >= 1e-9, dmat[ref], np.inf)
        pick = int(d.argmin())  # the nearest unblocked point, ties by index
        if d[pick] > radius + 1e-15:
            if count is not None:
                raise ValueError(
                    f"resolution too coarse for disjointness at step {step}"
                )
            continue
        chosen.append(pick)
        orbit = list(dict.fromkeys(table[:, pick].tolist()))
        orbit_dist = np.minimum(orbit_dist, dmat[:, orbit].min(axis=1))
        audit.append({
            "step": step,
            "reference": space.points[ref],
            "selected": space.points[pick],
            "distance": float(dmat[ref, pick]),
            "radius": radius,
        })
        if not (orbit_dist >= 1e-9).any():
            break  # every point is blocked, so no later step picks
    if count is not None and len(chosen) < count:
        raise ValueError(
            f"resolution too coarse for disjointness at step {step + 1}"
        )
    return chosen, audit
