"""Certify whether a weighted composition is an isometry of the renormed
space.

The criterion is executable: the weight must be one, and each tested base
tuple's image must lie in the tuple's class, compared by canonical key (the
smallest word image) in the registry's own terms but without writing to
it.  A mismatch is a witness of kind ``fingerprint`` that names the tuple,
its image and, for a class mismatch, both classes' representatives as
point ids.  A candidate is certified only when an enumerated group word
matches its point map on every sample point; inconclusive is a
first-class outcome at finite caps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norm import RenormConfig
from .operators import WeightedComposition
from .space import _acts_on, _integer

__all__ = [
    "WeightReport",
    "TupleCheck",
    "IsometryVerdict",
    "check_weight_one",
    "certify",
]


@dataclass
class WeightReport:
    weight_ok: bool
    max_weight_deviation: float
    weight_witness: str | None


@dataclass
class TupleCheck:
    tuple_points: tuple[str, ...]
    image_points: tuple[str, ...]
    outcome: str  # same-class | class-mismatch | window-mismatch | off-orbit
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == "same-class"


@dataclass
class IsometryVerdict:
    verdict: str  # certified-in-G | rejected | inconclusive
    weight: WeightReport
    orbit_checks: list[TupleCheck]
    approx_group_element: tuple[str, float] | None
    caps: dict
    witness: dict | None


def check_weight_one(T: WeightedComposition, cfg: RenormConfig) -> WeightReport:
    """Examine the candidate weight against one at tolerance 1e-9."""
    tol = 1e-9
    dev = np.abs(T.weight - 1.0)
    max_dev = float(dev.max())
    witness = cfg.space.points[int(dev.argmax())] if max_dev > tol else None
    return WeightReport(weight_ok=max_dev <= tol, max_weight_deviation=max_dev, weight_witness=witness)


def _orbit_checks(T: WeightedComposition, cfg: RenormConfig, depth: int) -> list[TupleCheck]:
    """Class checks of the base tuples (1, n), n = 1..depth - 1.

    A tuple's class in its window is its canonical key, and a prefix's key
    is the prefix of the key, so each side is keyed once: the longest base
    tuple, and the longest image prefix that sits on consecutive base
    indices.  The image of the base tuple (1, n) is a prefix of the longest
    image, so it occupies a window exactly when that prefix does, with the
    same start.  The registry is only read.
    """
    space = cfg.space
    t = cfg.base_tuple(1, depth - 1).points
    img = tuple(int(p) for p in T.forward[list(t)])
    slots = cfg.classify_slots(img)
    # the longest image prefix whose slots sit on consecutive base indices
    size = 0
    while size < len(slots) and slots[size] is not None and slots[size][0] == slots[0][0] + size:
        size += 1
    key_t = cfg.registry.canonical_key(t)
    key_s = cfg.registry.canonical_key(img[:size]) if size > 1 else ()

    checks: list[TupleCheck] = []
    for n in range(1, depth):
        t_ids = tuple(space.points[p] for p in t[: n + 1])
        img_ids = tuple(space.points[p] for p in img[: n + 1])
        if n < size:
            start = slots[0][0]
            if start != 1:
                check = TupleCheck(
                    t_ids, img_ids, "window-mismatch",
                    detail=f"image occupies base window {start}..{start + n} instead of 1..{n + 1}",
                )
            elif key_s[: n + 1] == key_t[: n + 1]:
                check = TupleCheck(t_ids, img_ids, "same-class")
            else:
                rep_s = [space.points[p] for p in key_s[: n + 1]]
                rep_t = [space.points[p] for p in key_t[: n + 1]]
                check = TupleCheck(
                    t_ids, img_ids, "class-mismatch",
                    detail=f"image lies in the class of {rep_s}, not of {rep_t}",
                )
        elif all(s is not None for s in slots[: n + 1]):
            check = TupleCheck(
                t_ids, img_ids, "off-orbit",
                detail=f"image slots land in base orbits {[s[0] for s in slots[: n + 1]]}, not a consecutive window",
            )
        else:
            # no comparison system applies: a point equivalent to a base slot
            # lies within resolution of a base-orbit entry, so a slot-less
            # image fails head or tail equivalence
            missing = [img_ids[j] for j, s in enumerate(slots[: n + 1]) if s is None]
            check = TupleCheck(
                t_ids, img_ids, "off-orbit",
                detail=f"image points {missing} lie outside every enumerated base orbit",
            )
        checks.append(check)
    return checks


def certify(
    T: WeightedComposition,
    cfg: RenormConfig,
    test_depth: int = 4,
) -> IsometryVerdict:
    """Full isometry check: weight, orbit preservation on base tuples by
    canonical class key, and an explicit approximating group word.

    certified-in-G means a word of length at most the group's cap matches
    the candidate map on every sample point, within the same-point rule
    ``space._same_point_tol`` (``caps["word_tol"]``).  The word is
    the first nearest one on the tested base points (``approx_group_element``);
    its index map is compared with the candidate's, and distances are read
    only where the two differ.  rejected verdicts always carry a
    re-checkable witness; everything else is inconclusive.  ``test_depth``
    must be an integer >= 1; it is capped at the number of base points.
    """
    _integer(test_depth, "test_depth", 1)
    space = cfg.space
    _acts_on(T.space, space, "operator")
    word_tol = space._same_point_tol
    test_depth = min(int(test_depth), cfg.base_count)
    weight = check_weight_one(T, cfg)

    witness: dict | None = None
    if not weight.weight_ok:
        witness = {
            "kind": "weight",
            "point": weight.weight_witness,
            "deviation": weight.max_weight_deviation,
        }
    checks = _orbit_checks(T, cfg, test_depth) if test_depth > 1 else []
    first = next((c for c in checks if not c.ok), None)
    if first is not None and witness is None:
        witness = {
            "kind": "fingerprint",
            "tuple": first.tuple_points,
            "image": first.image_points,
            "outcome": first.outcome,
            "detail": first.detail,
        }

    # registry row k is the k-th group word, the word table's row k; the
    # first nearest word wins
    base_pts = np.asarray(cfg.base_points[:test_depth], dtype=np.intp)
    dists = space.metric.pair(cfg.registry.word_maps[:, base_pts], T.forward[base_pts]).max(axis=1)
    best = int(dists.argmin())
    best_dist = float(dists[best])
    word = cfg.registry.word_maps[best]
    off = np.flatnonzero(word != T.forward)
    word_matched = (
        best_dist <= word_tol
        and weight.weight_ok
        and bool((space.metric.pair(word[off], T.forward[off]) <= word_tol).all())
    )
    approx = (cfg.group._table.labels[best] or "word", best_dist)

    if witness is not None:
        verdict = "rejected"
    elif word_matched and all(c.ok for c in checks):
        verdict = "certified-in-G"
    else:
        verdict = "inconclusive"
    return IsometryVerdict(
        verdict=verdict,
        weight=weight,
        orbit_checks=checks,
        approx_group_element=approx,
        caps={
            "test_depth": test_depth,
            "word_cap": cfg.group.word_cap,
            "word_tol": word_tol,
            "note": "certified-in-G means: within tolerance of a word of the capped length",
        },
        witness=witness,
    )
