"""Orbit closures of a group action at sample scale.

Tuples of sample points are acted on diagonally by group words.  Orbit
samples are the distinct exact index images (operators store index maps),
and orbit-closure membership is tested in the max metric.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import GroupSpec
from .space import SampledSpace

log = logging.getLogger(__name__)

__all__ = [
    "OrbitClosure",
    "orbit_closure",
    "equivalent",
    "equivalent_report",
    "select_dense_points",
]


@dataclass(frozen=True)
class OrbitClosure:
    """Sampled orbit of a tuple: all word images up to ``word_cap``."""

    base: tuple[int, ...]
    samples: tuple[tuple[int, ...], ...]
    word_cap: int
    window_clipped: bool = False

    def __len__(self) -> int:
        return len(self.samples)


def orbit_closure(group: GroupSpec, t: Sequence[int]) -> OrbitClosure:
    """The distinct images of the tuple under the group's words, the tuple
    itself included, sorted."""
    base = tuple(int(i) for i in t)
    images = group.word_table()[0][:, base].tolist()  # row w is word w's image
    defects = frozenset().union(*(g.allowed_defects for g in group.generators))
    return OrbitClosure(
        base=base,
        samples=tuple(sorted({*map(tuple, images), base})),
        word_cap=group.word_cap,
        window_clipped=any(not defects.isdisjoint(img) for img in images),
    )


def _min_distance_to_orbit(space: SampledSpace, s: Sequence[int], orb: OrbitClosure) -> float:
    return float(space.dmat[np.asarray(orb.samples), np.asarray(s)].max(axis=1).min())


def equivalent_report(s: Sequence[int], t: Sequence[int], group: GroupSpec) -> dict:
    """Both one-sided orbit-membership tests with their distances, over the
    group's full word list.

    One-sided testing decides the symmetric relation on the ideal space; a
    disagreement here is a resolution artifact and is logged.  The
    tolerance is the one-snap error bound (the resolution itself, plus the
    float error of a distance); distinct grid neighbors sit at twice that
    and stay inequivalent.
    """
    if len(s) != len(t):
        raise ValueError("length mismatch")
    space = group.space
    tol = space._resolution_tol
    orb_t = orbit_closure(group, t)
    orb_s = orbit_closure(group, s)
    d_fwd = _min_distance_to_orbit(space, s, orb_t)
    d_rev = _min_distance_to_orbit(space, t, orb_s)
    fwd = d_fwd < tol
    rev = d_rev < tol
    if fwd != rev:
        log.warning(
            "one-sided orbit tests disagree at tolerance %g (fwd=%s rev=%s); "
            "resolution artifact",
            tol, fwd, rev,
        )
    return {
        "equivalent": fwd,
        "forward": fwd,
        "reverse": rev,
        "agree": fwd == rev,
        "d_forward": d_fwd,
        "d_reverse": d_rev,
        "tol": tol,
    }


def equivalent(s: Sequence[int], t: Sequence[int], group: GroupSpec) -> bool:
    """True iff some sampled orbit element of t lies strictly within the
    resolution of s in the max metric (the one-sided membership test of
    :func:`equivalent_report`)."""
    return equivalent_report(s, t, group)["equivalent"]


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
        cand = np.nonzero(dmat[ref] <= radius + 1e-15)[0]
        cand = cand[np.lexsort((cand, dmat[ref][cand]))]
        pick = None
        for c in cand:
            if orbit_dist[c] >= 1e-9:
                pick = int(c)
                break
        if pick is None:
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
