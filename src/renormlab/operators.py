"""Weighted-composition operators and convergence checkers.

An operator acts on sampled functions as ``(Tf)(y) = a(y) * f(phi(y))``
with a positive weight ``a`` and a point map ``phi`` stored as explicit
sample-index assignments (plus an optional closed-form tag so that word
composition can re-snap from the exact form instead of compounding
nearest-sample errors).
"""

from __future__ import annotations

import logging
import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .space import CompactSet, SampledSpace

log = logging.getLogger(__name__)

__all__ = [
    "WeightedComposition",
    "GroupSpec",
    "compose",
    "invert",
    "identity",
    "multiplication",
    "line_translation",
    "circle_rotation",
    "interval_flip",
    "lift",
    "remark25_map",
    "onepoint_swap",
    "remark25_sequence",
    "onepoint_swap_group",
    "check_sot_convergence",
    "check_local_equicontinuity",
    "pointwise_implies_sot",
    "SOTVerdict",
    "ConditionReport",
    "EquicontinuityReport",
]


@dataclass(eq=False)
class WeightedComposition:
    """Operator ``f -> weight * (f o forward)`` on a sampled space.

    ``forward`` and ``backward`` are index maps approximating a
    homeomorphism and its inverse; round trips must stay within
    ``2 * resolution`` except at declared truncation-edge defects.
    """

    space: SampledSpace
    weight: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    label: str = ""
    form: dict | None = None
    allowed_defects: frozenset = frozenset()
    # round-trip defects already measured on these maps, if any
    measured_defects: InitVar[frozenset | None] = None

    def __post_init__(self, measured_defects):
        n = self.space.n
        self.weight = np.asarray(self.weight, dtype=float)
        self.forward = np.asarray(self.forward, dtype=np.intp)
        self.backward = np.asarray(self.backward, dtype=np.intp)
        if self.weight.shape != (n,) or self.forward.shape != (n,) or self.backward.shape != (n,):
            raise ValueError("operator arrays must match the space size")
        if not (np.isfinite(self.weight) & (self.weight > 0)).all():
            raise _weight_error(self.space, self.weight)
        if measured_defects is None:
            measured_defects = _roundtrip_defects(self.space, self.forward[None], self.backward[None])[0]
        stray = sorted(i for i in measured_defects if i not in self.allowed_defects)
        if stray:
            pid = self.space.points[stray[0]]
            raise ValueError(
                f"map round trip displaces {len(stray)} points beyond 2*resolution "
                f"(first: {pid}); declare truncation-edge defects explicitly"
            )

    @property
    def is_weight_one(self) -> bool:
        return bool(np.max(np.abs(self.weight - 1.0)) <= 1e-12)

    def apply(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        return self.weight * f[self.forward]

    def key(self) -> bytes:
        return _map_key(self.forward, self.weight)

    def __repr__(self) -> str:
        return f"WeightedComposition({self.label or 'op'!r} on {self.space.name})"


def _map_key(forward: np.ndarray, weight: np.ndarray) -> bytes:
    """Dedupe key of an operator: its point map and its rounded weight."""
    return forward.tobytes() + np.round(weight, 12).tobytes()


def _roundtrip_defects(space: SampledSpace, forward: np.ndarray, backward: np.ndarray) -> list[frozenset[int]]:
    """For each row of the ``(B, n)`` index maps, the points that a round
    trip through the row's two maps, in either order, displaces by more
    than ``2 * resolution``; all rows are measured in one gather."""
    n = space.n
    # flat indices: entry j of row r of a (B, n) array is at r * n + j
    offsets = (np.arange(len(forward)) * n)[:, None]
    idx = np.arange(n)
    gap = np.maximum(space.dmat[backward.ravel()[forward + offsets], idx],
                     space.dmat[forward.ravel()[backward + offsets], idx])
    far = gap > 2 * space.resolution + 1e-12
    out = [frozenset()] * len(gap)
    for r in np.flatnonzero(far.any(axis=1)).tolist():
        out[r] = frozenset(np.flatnonzero(far[r]).tolist())
    return out


def _snapped(space: SampledSpace, form: dict | None, label: str) -> WeightedComposition | None:
    """The product re-snapped from a composed rotation or translation form,
    or None when the form is neither."""
    if form is not None and form.get("kind") == "rotation":
        return circle_rotation(space, angle=form["angle"], label=label)
    if form is not None and form.get("kind") == "translation":
        return line_translation(space, form["offset"], label=label)
    return None


def _weight_error(space: SampledSpace, weight: np.ndarray) -> ValueError:
    bad = np.flatnonzero(~(np.isfinite(weight) & (weight > 0)))
    return ValueError(f"weight {weight[bad[0]]} at point "
                      f"{space.points[bad[0]]!r}: must be positive and finite")


def _product_label(h: str, g: str) -> str:
    return f"{h}*{g}" if (h and g) else (h or g)


def _composite(h: WeightedComposition, g: WeightedComposition, weight: np.ndarray,
               forward: np.ndarray, form: dict | None) -> WeightedComposition:
    # snapping errors of non-isometric maps amplify under composition; the
    # composite declares its own round-trip defects, measured once
    backward = h.backward[g.backward]
    new_defects = _roundtrip_defects(h.space, forward[None], backward[None])[0]
    return WeightedComposition(
        space=h.space,
        weight=weight,
        forward=forward,
        backward=backward,
        label=_product_label(h.label, g.label),
        form=form,
        allowed_defects=h.allowed_defects | g.allowed_defects | new_defects,
        measured_defects=new_defects,
    )


def compose(h: WeightedComposition, g: WeightedComposition) -> WeightedComposition:
    """The product ``hg`` acting as ``f -> h(g(f))``.

    The point map composes as ``phi_g o phi_h`` and the weight as
    ``a_h * (a_g o phi_h)``.  When both operands carry compatible rotation
    or translation forms, the composite map is re-snapped from the summed
    form so that long words do not accumulate grid error.
    """
    if h.space is not g.space:
        raise ValueError("mismatched spaces")
    form = _compose_forms(h.form, g.form)
    snapped = _snapped(h.space, form, f"{h.label}*{g.label}")
    if snapped is not None:
        return snapped
    return _composite(h, g, h.weight * g.weight[h.forward], g.forward[h.forward], form)


def invert(g: WeightedComposition) -> WeightedComposition:
    """Inverse operator: weight ``1 / (a o phi^{-1})`` over the inverse map."""
    form = None
    if g.form is not None and g.form.get("kind") == "identity":
        form = dict(g.form)
    if g.form is not None and g.form.get("kind") == "rotation":
        form = {"kind": "rotation", "angle": -g.form["angle"]}
    if g.form is not None and g.form.get("kind") == "translation":
        form = {"kind": "translation", "offset": -g.form["offset"]}
    return WeightedComposition(
        space=g.space,
        weight=1.0 / g.weight[g.backward],
        forward=g.backward,
        backward=g.forward,
        label=f"{g.label}^-1" if g.label else "",
        form=form,
        allowed_defects=g.allowed_defects,
    )


def _compose_forms(fh: dict | None, fg: dict | None) -> dict | None:
    if not fh or not fg:
        return None
    if fh.get("kind") == "identity":
        return dict(fg)
    if fg.get("kind") == "identity":
        return dict(fh)
    if fh.get("kind") == "rotation" and fg.get("kind") == "rotation":
        return {"kind": "rotation", "angle": fh["angle"] + fg["angle"]}
    if fh.get("kind") == "translation" and fg.get("kind") == "translation":
        return {"kind": "translation", "offset": fh["offset"] + fg["offset"]}
    return None


# ----------------------------------------------------------------------
# concrete operator constructors


def identity(space: SampledSpace, label: str = "id") -> WeightedComposition:
    idx = np.arange(space.n)
    return WeightedComposition(space, np.ones(space.n), idx, idx, label=label,
                               form={"kind": "identity"})


def multiplication(space: SampledSpace, weight, label: str = "mult") -> WeightedComposition:
    w = np.full(space.n, float(weight)) if np.isscalar(weight) else np.asarray(weight, float)
    idx = np.arange(space.n)
    return WeightedComposition(space, w, idx, idx, label=label)


def line_translation(space: SampledSpace, offset: float, label: str = "") -> WeightedComposition:
    """Translation ``t -> t + offset`` snapped to the grid, clamped at the
    window edges (edge points are declared defects of the truncation)."""
    aux = space.aux
    if aux.get("kind") != "line":
        raise ValueError("line_translation requires a line space")
    coords, step = aux["coords"], aux["step"]
    n = space.n
    shift = int(round(offset / step))
    idx = np.arange(n)
    fwd = np.clip(idx + shift, 0, n - 1)
    bwd = np.clip(idx - shift, 0, n - 1)
    edge = set(np.nonzero((idx + shift > n - 1) | (idx + shift < 0)
                          | (idx - shift > n - 1) | (idx - shift < 0))[0].tolist())
    return WeightedComposition(
        space, np.ones(n), fwd, bwd,
        label=label or f"shift{offset:+g}",
        form={"kind": "translation", "offset": shift * step},
        allowed_defects=frozenset(int(i) for i in edge),
    )


def circle_rotation(space: SampledSpace, angle: float | None = None,
                    steps: int | None = None, label: str = "") -> WeightedComposition:
    aux = space.aux
    if aux.get("kind") != "circle":
        raise ValueError("circle_rotation requires a circle space")
    n = aux["count"]
    if steps is None:
        if angle is None:
            raise ValueError("need angle or steps")
        exact_angle = angle
    else:
        exact_angle = steps * 2 * math.pi / n
    shift = int(round(exact_angle / (2 * math.pi / n)))
    idx = np.arange(n)
    fwd = (idx + shift) % n
    bwd = (idx - shift) % n
    return WeightedComposition(
        space, np.ones(n), fwd, bwd,
        label=label or f"rot{exact_angle:+.4g}",
        form={"kind": "rotation", "angle": exact_angle},
    )


def interval_flip(space: SampledSpace, label: str = "flip") -> WeightedComposition:
    """The involution ``s -> 1 - s`` on a [0, 1] grid (exact on uniform grids)."""
    aux = space.aux
    if aux.get("kind") != "line":
        raise ValueError("interval_flip requires a line space")
    n = space.n
    idx = np.arange(n)
    fwd = (n - 1) - idx
    return WeightedComposition(space, np.ones(n), fwd, fwd.copy(), label=label)


def lift(op: WeightedComposition, prod: SampledSpace, side: str = "left",
         label: str = "") -> WeightedComposition:
    """Lift an operator on a factor to a product space, acting trivially on
    the other factor: ``psi(k, l) = (phi(k), l)`` for a left lift."""
    aux = prod.aux
    if aux.get("kind") != "product":
        raise ValueError("lift target must be a product space")
    a, b = aux["a"], aux["b"]
    na, nb = a.n, b.n
    if side == "left":
        if op.space is not a:
            raise ValueError("operator does not act on the left factor")
        fwd = (op.forward[:, None] * nb + np.arange(nb)[None, :]).ravel()
        bwd = (op.backward[:, None] * nb + np.arange(nb)[None, :]).ravel()
        w = np.repeat(op.weight, nb)
    elif side == "right":
        if op.space is not b:
            raise ValueError("operator does not act on the right factor")
        base = np.arange(na)[:, None] * nb
        fwd = (base + op.forward[None, :]).ravel()
        bwd = (base + op.backward[None, :]).ravel()
        w = np.tile(op.weight, na)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return WeightedComposition(prod, w, fwd, bwd, label=label or f"{op.label}@{side}")


def remark25_map(space: SampledSpace, n: int) -> WeightedComposition:
    """The n-th counterexample map on the two-part space.

    Column action: (0, i) -> (0, i+1) for i >= n, with (0, n_max) snapped to
    (0, inf); row n walks toward the column: (n, n) -> (0, n) and
    (n, i) -> (n, i-1) for i > n.  All other points are fixed.  The
    truncation edge of row n cannot be modeled bijectively and is declared
    as a defect.
    """
    aux = space.aux
    if aux.get("kind") != "remark25":
        raise ValueError("remark25_map requires the remark25 space")
    n_max = aux["n_max"]
    if not 1 <= n <= n_max:
        raise ValueError("map index out of range")
    N = space.n
    fwd = np.arange(N)
    bwd = np.arange(N)

    def col(x: int) -> int:
        return x - 1  # (0, x) for x in 1..n_max

    inf_idx = n_max  # (0, inf)

    def row(i: int, j: int) -> int:
        return (n_max + 1) + (i - 1) * n_max + (j - 1)

    for i in range(n, n_max):
        fwd[col(i)] = col(i + 1)
    fwd[col(n_max)] = inf_idx  # ideal image (0, n_max + 1) snaps to (0, inf)
    fwd[row(n, n)] = col(n)
    for i in range(n + 1, n_max + 1):
        fwd[row(n, i)] = row(n, i - 1)

    for i in range(n + 1, n_max + 1):
        bwd[col(i)] = col(i - 1)
    bwd[col(n)] = row(n, n)
    for i in range(n, n_max):
        bwd[row(n, i)] = row(n, i + 1)
    # bwd[row(n, n_max)] stays put: the ideal preimage (n, n_max + 1) has no
    # nearby sample point; the resulting round-trip defects at the truncation
    # edge are measured and declared
    return WeightedComposition(
        space, np.ones(N), fwd, bwd, label=f"phi_{n}",
        allowed_defects=_roundtrip_defects(space, fwd[None], bwd[None])[0],
    )


def onepoint_swap(space: SampledSpace, n: int) -> WeightedComposition:
    """Self-inverse swap (0, n) <-> (1, n) with weight 2 at (0, n) and 1/2 at
    (1, n); the lone non-isometric generator family of the compactified
    two-row space."""
    aux = space.aux
    if aux.get("kind") != "onepoint01N":
        raise ValueError("onepoint_swap requires the onepoint01N space")
    n_max = aux["n_max"]
    if not 1 <= n <= n_max:
        raise ValueError("swap index out of range")
    N = space.n
    i0 = n - 1            # (0, n)
    i1 = n_max + n - 1    # (1, n)
    fwd = np.arange(N)
    fwd[i0], fwd[i1] = i1, i0
    w = np.ones(N)
    w[i0] = 2.0
    w[i1] = 0.5
    return WeightedComposition(space, w, fwd, fwd.copy(), label=f"g_{n}")


def remark25_sequence(space: SampledSpace, count: int | None = None) -> list[WeightedComposition]:
    n_max = space.aux["n_max"]
    count = count or n_max
    return [remark25_map(space, n) for n in range(1, min(count, n_max) + 1)]


def onepoint_swap_group(space: SampledSpace, word_cap: int = 2,
                        count: int | None = None) -> "GroupSpec":
    n_max = space.aux["n_max"]
    count = count or n_max
    gens = [onepoint_swap(space, n) for n in range(1, min(count, n_max) + 1)]
    return GroupSpec(tuple(gens), word_cap=word_cap, label="onepoint-swaps")


# ----------------------------------------------------------------------
# groups as generator lists with word enumeration


# entries of one (block, n) array of candidate words in _next_level: 256 KB
# of int64, so a level's temporaries stay bounded however wide its frontier
_WORD_BLOCK = 1 << 15


class _WordRows(NamedTuple):
    """Words as table rows: point maps, weights and inverse maps as
    ``(W, n)`` arrays, with each row's label, form and declared defects."""

    forward: np.ndarray
    weight: np.ndarray
    backward: np.ndarray
    labels: list[str]
    forms: list[dict | None]
    allowed: list[frozenset]

    @classmethod
    def of(cls, ops: Sequence[WeightedComposition]) -> "_WordRows":
        return cls(np.stack([g.forward for g in ops]), np.stack([g.weight for g in ops]),
                   np.stack([g.backward for g in ops]), [g.label for g in ops],
                   [g.form for g in ops], [g.allowed_defects for g in ops])

    @classmethod
    def concat(cls, parts: Sequence["_WordRows"]) -> "_WordRows":
        return cls(*(np.concatenate([p[f] for p in parts]) for f in range(3)),
                   *([x for p in parts for x in p[f]] for f in range(3, 6)))


def _next_level(space: SampledSpace, frontier: _WordRows, gens: _WordRows, seen: set[bytes]) -> _WordRows:
    """The words that extend a frontier word by one generator and whose
    keys are not in ``seen``, first occurrences in (frontier word,
    generator) order; ``seen`` grows by their keys.

    Candidates are taken in blocks of about ``_WORD_BLOCK`` entries per
    array: one gather composes the block's point maps and weights, and its
    keys (``_map_key`` of every row) come from one buffer.  A pair whose
    composed form is a rotation or translation is re-snapped from it
    (``_snapped``) and keyed as built.  A kept composite must have a
    positive finite weight, or the first such word raises as its
    ``WeightedComposition`` would; the round-trip defects of the kept
    composites are measured in one gather and declared.
    """
    n, K = space.n, len(gens.labels)
    total = len(frontier.labels) * K
    step = max(1, _WORD_BLOCK // n)
    parts = [_WordRows(frontier.forward[:0], frontier.weight[:0], frontier.backward[:0], [], [], [])]
    for a in range(0, total, step):
        h_idx, g_idx = np.divmod(np.arange(a, min(a + step, total)), K)
        # flat indices into the generator rows: entry j of row g is at g * n + j
        at = frontier.forward[h_idx] + (g_idx * n)[:, None]
        fwd = np.take(gens.forward, at)
        wt = frontier.weight[h_idx] * np.take(gens.weight, at)
        valid = (np.isfinite(wt) & (wt > 0)).all(axis=1)
        keys = np.concatenate([fwd.view(np.uint8), np.round(wt, 12).view(np.uint8)], axis=1)
        width, keys = keys.shape[1], keys.tobytes()
        keep, forms, snaps = [], [], {}
        for j, (h, g) in enumerate(zip(h_idx.tolist(), g_idx.tolist())):
            form = _compose_forms(frontier.forms[h], gens.forms[g])
            c = None if form is None else _snapped(space, form, f"{frontier.labels[h]}*{gens.labels[g]}")
            key = keys[j * width:(j + 1) * width] if c is None else c.key()
            if key in seen:
                continue
            seen.add(key)
            if c is None and not valid[j]:
                raise _weight_error(space, wt[j])
            if c is not None:
                snaps[len(keep)] = c
            keep.append(j)
            forms.append(form)
        h_idx, g_idx = h_idx[keep], g_idx[keep]
        fwd, wt = fwd[keep], wt[keep]
        bwd = np.take(frontier.backward, gens.backward[g_idx] + (h_idx * n)[:, None])
        for r, c in snaps.items():
            fwd[r], wt[r], bwd[r] = c.forward, c.weight, c.backward
        plain = [r for r in range(len(keep)) if r not in snaps]
        measured = iter(_roundtrip_defects(space, fwd[plain], bwd[plain]))
        labels, allowed = [], []
        for r, (h, g) in enumerate(zip(h_idx.tolist(), g_idx.tolist())):
            c = snaps.get(r)
            if c is None:
                labels.append(_product_label(frontier.labels[h], gens.labels[g]))
                allowed.append(frontier.allowed[h] | gens.allowed[g] | next(measured))
            else:
                labels.append(c.label)
                forms[r] = c.form
                allowed.append(c.allowed_defects)
        parts.append(_WordRows(fwd, wt, bwd, labels, forms, allowed))
    return _WordRows.concat(parts)


@dataclass(eq=False)
class GroupSpec:
    """A group given by generators, enumerated as words up to ``word_cap``.

    The generator list is closed under formal inversion on construction.
    ``closure_tag`` records a declared (not proved) relative SOT-closedness;
    the checker treats it as evidence only.
    """

    generators: tuple[WeightedComposition, ...]
    word_cap: int
    closure_tag: bool = False
    label: str = ""

    def __post_init__(self):
        if self.word_cap < 1:
            raise ValueError("word_cap must be at least 1")
        gens = list(self.generators)
        keys = {g.key() for g in gens}
        for g in list(gens):
            gi = invert(g)
            if gi.key() not in keys:
                gens.append(gi)
                keys.add(gi.key())
        self.generators = tuple(gens)
        self._table: _WordRows | None = None
        self._counts: list[int] = []  # [c]: rows of the words of length <= c
        self._words: list[list[WeightedComposition]] | None = None  # [c]: length <= c

    @property
    def space(self) -> SampledSpace:
        if not self.generators:
            raise ValueError("empty group")
        return self.generators[0].space

    @classmethod
    def trivial(cls, space: SampledSpace, word_cap: int = 1) -> "GroupSpec":
        return cls((identity(space),), word_cap=word_cap, closure_tag=True, label="trivial")

    def _cap(self, cap: int | None) -> int:
        """The checked cap; the word table is built on first use, breadth
        first, one level per ``_next_level`` call."""
        cap = self.word_cap if cap is None else cap
        if not 0 <= cap <= self.word_cap:
            raise ValueError(f"word cap {cap} outside 0..word_cap {self.word_cap}")
        if self._table is None:
            space = self.space
            if any(g.space is not space for g in self.generators):
                raise ValueError("mismatched spaces")
            e = identity(space)
            gens = _WordRows.of(self.generators)
            seen = {e.key()}
            levels = [_WordRows.of([e])]
            counts = [1]
            for _ in range(self.word_cap):
                levels.append(_next_level(space, levels[-1], gens, seen))
                counts.append(counts[-1] + len(levels[-1].labels))
            self._table, self._counts = _WordRows.concat(levels), counts
        return cap

    def words(self, cap: int | None = None) -> list[WeightedComposition]:
        """All distinct words of length <= cap (at most ``word_cap``),
        breadth first, identity first.

        Deduplication is by (forward map, rounded weight), so the list is a
        deterministic enumeration of the sampled subgroup.  The words are
        enumerated once, as the rows of ``word_table``; their operator
        objects are built on the first call, each cap's list is a prefix of
        the full one, and repeat calls return the same list object.
        """
        cap = self._cap(cap)
        if self._words is None:
            t = self._table
            # the objects share one copy of the table, not the table itself;
            # each row's defects were measured and declared as it was built
            fwd, wt, bwd = t.forward.copy(), t.weight.copy(), t.backward.copy()
            full = [WeightedComposition(self.space, wt[r], fwd[r], bwd[r], label=label, form=form,
                                        allowed_defects=allowed, measured_defects=allowed)
                    for r, (label, form, allowed) in enumerate(zip(t.labels, t.forms, t.allowed))]
            self._words = [full[:count] for count in self._counts[:-1]] + [full]
        return self._words[cap]

    def word_table(self, cap: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Point maps and weights of ``words(cap)`` as ``(W, n)`` arrays,
        row w for word w: prefix views of the one table."""
        cap = self._cap(cap)
        count = self._counts[cap]
        return self._table.forward[:count], self._table.weight[:count]


# ----------------------------------------------------------------------
# convergence and equicontinuity checkers


@dataclass
class ConditionReport:
    name: str
    passed: bool
    thresholds: dict
    witness: tuple | None  # (n, K label, point id)
    detail: str = ""


@dataclass
class SOTVerdict:
    converges: bool
    conditions: list[ConditionReport]
    weight_bound: float
    moreover_applicable: bool
    moreover_detail: str
    horizon: int


def _tail_threshold(violations: Sequence[int], horizon: int) -> int | None:
    """Smallest N such that stages N..horizon are violation-free, or None
    when the final stage itself violates (no clean tail in horizon)."""
    if not violations:
        return 1
    last = max(violations)
    if last >= horizon:
        return None
    return last + 1


# bytes of the distance matrix one gather of _preimage_distances takes: a
# block of rows times the columns of one run of compacts
_GATHER_BYTES = 1 << 18


def _preimage_distances(dmat: np.ndarray, backward: np.ndarray, karrs: Sequence[np.ndarray]) -> np.ndarray:
    """The (n, len(karrs)) table whose column k is the distance from every
    point to ``backward[karrs[k]]``: the min of ``dmat`` over those columns.

    The compacts ``karrs`` split into maximal nested runs.  Within a run
    each compact's columns contain the previous compact's, so each compact
    adds only its fresh columns; a compact whose columns do not contain the
    previous ones starts a new run with all of its own.  The fresh columns
    of a run are concatenated once, and each block of rows (about
    ``_GATHER_BYTES``) is gathered at them, reduced to one min per compact
    with ``reduceat`` and folded along the run with ``accumulate``.  A
    compact with no fresh column (a repeat) carries the previous compact's
    column.  Every entry is a min over the same columns as a direct
    ``dmat[:, cols].min(axis=1)``, so the table is exact.
    """
    n = len(dmat)
    table = np.empty((n, len(karrs)))
    runs: list[tuple[int, list[np.ndarray]]] = []  # (first k, fresh columns per compact)
    reached = np.zeros(n, dtype=bool)  # columns of the previous compact
    for k, karr in enumerate(karrs):
        mask = np.zeros(n, dtype=bool)
        mask[backward[karr]] = True
        if k == 0 or (reached & ~mask).any():  # not nested: a new run
            runs.append((k, []))
            reached = np.zeros(n, dtype=bool)
        runs[-1][1].append(np.flatnonzero(mask & ~reached))
        reached = mask
    for k0, segments in runs:
        sizes = np.array([seg.size for seg in segments])
        cols = np.concatenate(segments)
        starts = (np.cumsum(sizes) - sizes)[sizes > 0]
        # reduced column of each compact: its own, or a repeat's predecessor's
        carry = np.cumsum(sizes > 0) - 1
        rows = max(1, _GATHER_BYTES // (8 * cols.size))
        for r in range(0, n, rows):
            mins = np.minimum.reduceat(np.take(dmat[r:r + rows], cols, axis=1), starts, axis=1)
            np.minimum.accumulate(mins, axis=1, out=mins)
            table[r:r + rows, k0:k0 + len(segments)] = mins[:, carry]
    return table


def check_sot_convergence(
    seq: Sequence[WeightedComposition],
    limit: WeightedComposition,
    K_list: Sequence[CompactSet],
    eps: float,
) -> SOTVerdict:
    """Sample-scale test of strong-operator convergence of a sequence of
    weighted compositions against the three uniform conditions: forward maps
    converge uniformly on each compact, weights converge uniformly on each
    compact, and inverse images of each compact eventually stay within its
    eps-fattened preimage.

    Only sequences are tested (bounded operator families on a separable
    sample are sequentially separable, so nothing is lost at this scale).
    A condition passes when every compact has a violation-free terminal run
    within the sampled horizon; the reported witness is the earliest
    violating (stage, compact, point) otherwise.

    The distance to the limit's preimage of K is a min over the columns
    ``limit.backward[K]`` of the distance matrix; all of them come from one
    row-major sweep of that matrix (see ``_preimage_distances``).  The stages
    of one compact are checked in one gather.
    """
    if not seq:
        raise ValueError("empty operator sequence")
    space = limit.space
    weight_bound = max(float(g.weight.max()) for g in seq)
    if not math.isfinite(weight_bound):
        raise ValueError("uniform boundedness violated")
    horizon = len(seq)

    reports = []
    # per condition, each violating compact's first violating stage
    witnesses: dict[str, list[tuple]] = {"phi_uniform": [], "weight_uniform": [], "inverse_images": []}
    thresholds: dict[str, dict] = {"phi_uniform": {}, "weight_uniform": {}, "inverse_images": {}}

    # (stage, point) gap fields over the whole space; per-compact checks
    # reduce to column gathers against these
    gap_phi = space.dmat[np.stack([g.forward for g in seq]), limit.forward]
    gap_w = np.abs(np.stack([g.weight for g in seq]) - limit.weight)
    backward = np.stack([g.backward for g in seq])

    karrs = [K.as_array() for K in K_list]
    dist_to_inv = _preimage_distances(space.dmat, limit.backward, karrs)
    # each compact's (stage, member) gathers reuse two buffers, so no compact
    # maps and faults in fresh pages.  mode="wrap" writes straight into them
    # (the default mode copies through a temporary); it changes no result,
    # as every index is in range: _preimage_distances has indexed by each
    # karr, and operators index by their backward maps when built
    size = horizon * max((karr.size for karr in karrs), default=0)
    vals, pts = np.empty(size), np.empty(size, dtype=np.intp)
    for k, (K, karr) in enumerate(zip(K_list, karrs)):
        shape, m = (horizon, karr.size), horizon * karr.size
        out = vals[:m].reshape(shape)
        images = np.take(backward, karr, axis=1, out=pts[:m].reshape(shape), mode="wrap")
        for name, field, at, axis in (("phi_uniform", gap_phi, karr, 1),
                                      ("weight_uniform", gap_w, karr, 1),
                                      ("inverse_images", dist_to_inv[:, k], images, None)):
            gap = np.take(field, at, axis=axis, out=out, mode="wrap")
            worst = gap.argmax(axis=1)  # the first largest gap of each stage
            stages = np.flatnonzero(gap[np.arange(len(gap)), worst] > eps)
            if stages.size:
                # a compact's witnesses share its label and differ in stage,
                # so its least is its first violating stage
                s = int(stages[0])
                witnesses[name].append((s + 1, K.label, space.points[int(karr[worst[s]])]))
            thresholds[name][K.label] = _tail_threshold((stages + 1).tolist(), horizon)

    for name in ("phi_uniform", "weight_uniform", "inverse_images"):
        th = thresholds[name]
        passed = all(v is not None for v in th.values())
        first_witness = min(witnesses[name]) if (not passed and witnesses[name]) else None
        reports.append(ConditionReport(name=name, passed=passed, thresholds=th, witness=first_witness))

    inv_maps = [g.backward for g in seq]
    moreover = True
    moreover_detail = "inverse family locally equicontinuous on all supplied compacts"
    for K in K_list:
        eq = check_local_equicontinuity(inv_maps, K, (eps,), space)
        if eq.witnesses:
            moreover = False
            g_i, s, t = eq.witnesses[0][1]
            moreover_detail = (
                f"inverse family not equicontinuous on {K.label or 'K'}: "
                f"member {g_i} maps {s},{t} apart"
            )
            break

    overall = all(r.passed for r in reports)
    return SOTVerdict(
        converges=overall,
        conditions=reports,
        weight_bound=weight_bound,
        moreover_applicable=moreover,
        moreover_detail=moreover_detail,
        horizon=horizon,
    )


@dataclass
class EquicontinuityReport:
    table: list[tuple[float, float]]          # (eps, largest valid delta); inf when unconstrained
    witnesses: list[tuple[float, tuple]]      # (eps, (member, point s, point t)) when no grid delta works
    grid: tuple[float, ...]

    @property
    def equicontinuous(self) -> bool:
        return not self.witnesses


def check_local_equicontinuity(
    maps: Sequence[np.ndarray],
    K: CompactSet,
    moduli_grid: Sequence[float],
    space: SampledSpace,
) -> EquicontinuityReport:
    """Per epsilon on the grid, the largest sample-scale delta valid for all
    family members on K, or a witness (member, s, t) with d(s,t) below every
    grid delta while d(member s, member t) >= eps.

    ``maps`` holds the members' point maps on ``space`` as index arrays
    (``[g.forward for g in family]`` for operators).
    """
    if len(maps) == 0:
        raise ValueError("nonempty family required")
    maps = [np.asarray(f, dtype=np.intp) for f in maps]
    karr = K.as_array()
    src = space.dmat[np.ix_(karr, karr)]
    grid = tuple(sorted(set(float(e) for e in moduli_grid)))
    min_grid_delta = min(grid) if grid else 0.0

    table = []
    witnesses = []
    slack = 1e-12  # grid coordinates carry float dust; do not count it
    for eps in grid:
        best_delta = math.inf
        witness = None
        for mi, mp in enumerate(maps):
            img = space.dmat[np.ix_(mp[karr], mp[karr])]
            mask = img >= eps + slack
            np.fill_diagonal(mask, False)
            if mask.any():
                cand = src[mask].min()
                if cand < best_delta:
                    best_delta = float(cand)
                    pos = np.nonzero(mask)
                    which = int(np.argmin(src[mask]))
                    s = int(karr[pos[0][which]])
                    t = int(karr[pos[1][which]])
                    witness = (mi, space.points[s], space.points[t])
        table.append((eps, best_delta))
        if best_delta < min_grid_delta - slack and witness is not None:
            witnesses.append((eps, witness))
    return EquicontinuityReport(table=table, witnesses=witnesses, grid=grid)


def pointwise_implies_sot(
    group: GroupSpec,
    seq: Sequence[WeightedComposition],
    limit: WeightedComposition,
    eps: float = 1e-2,
    moduli_grid: Sequence[float] = (0.5, 0.25, 0.1),
) -> dict:
    """Check that pointwise convergence of the maps and SOT convergence agree,
    under the local-equicontinuity hypothesis on the group family.

    Raises when the hypothesis fails, naming the witness: the equivalence is
    exactly what breaks without it.
    """
    space = group.space
    forward = group.word_table()[0]
    for K in space.exhaustion:
        eq = check_local_equicontinuity(forward, K, moduli_grid, space)
        if eq.witnesses:
            _, (mi, s, t) = eq.witnesses[0]
            raise ValueError(
                f"group family not locally equicontinuous on {K.label or 'K'}: "
                f"word {mi} separates {s} and {t}"
            )
    horizon = len(seq)
    viol = []
    for n0, g in enumerate(seq, start=1):
        gap = space.dmat[g.forward, limit.forward].max()
        if gap > eps:
            viol.append(n0)
    pw_threshold = _tail_threshold(viol, horizon)
    pointwise = pw_threshold is not None
    sot = check_sot_convergence(seq, limit, list(space.exhaustion), eps)
    return {
        "pointwise": pointwise,
        "pointwise_threshold": pw_threshold,
        "sot": sot.converges,
        "equivalence_held": pointwise == sot.converges,
        "sot_verdict": sot,
    }
