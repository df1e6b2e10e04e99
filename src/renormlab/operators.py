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
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .space import CompactSet, Metric, SampledSpace, _finite, same_space

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
    "SOTVerdict",
    "ConditionReport",
    "EquicontinuityReport",
]


@dataclass(eq=False)
class WeightedComposition:
    """Operator ``f -> weight * (f o forward)`` on a sampled space.

    ``forward`` and ``backward`` are index maps approximating a
    homeomorphism and its inverse; round trips must stay within
    ``2 * resolution``, plus relative float slack, except at declared
    truncation-edge defects.
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

    def apply(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.space.n,):
            raise ValueError(f"function of shape {f.shape} for {self.space.n} points")
        return self.weight * f[self.forward]

    def key(self) -> bytes:
        return next(_map_key(self.forward[None], self.weight[None]))

    def __repr__(self) -> str:
        return f"WeightedComposition({self.label or 'op'!r} on {self.space.name})"


def _map_key(forward: np.ndarray, weight: np.ndarray) -> Iterator[bytes]:
    """Dedupe keys of the rows of ``(B, n)`` point maps and weights: each
    row's map bytes, then its weight's bytes rounded to 12 decimals, one
    bytes object per row, cut from one buffer as it is read.  Holding a
    block's keys at once fragments the heap so that later large temporaries
    (``bounded.group_norm``'s) page-fault on every call."""
    keys = np.concatenate([forward, np.round(weight, 12).view(np.intp)], axis=1).view(np.uint8)
    width, buf = keys.shape[1], keys.tobytes()
    return (buf[j:j + width] for j in range(0, len(buf), width))


def _roundtrip_defects(space: SampledSpace, forward: np.ndarray, backward: np.ndarray) -> list[frozenset[int]]:
    """For each row of the ``(B, n)`` index maps, the points that a round
    trip through the row's two maps, in either order, displaces by more
    than ``2 * resolution`` plus the relative float slack of
    ``_resolution_tol``; all rows are measured in one gather."""
    n = space.n
    # flat indices: entry j of row r of a (B, n) array is at r * n + j
    offsets = (np.arange(len(forward)) * n)[:, None]
    idx = np.arange(n)
    gap = np.maximum(space.metric.pair(backward.ravel()[forward + offsets], idx),
                     space.metric.pair(forward.ravel()[backward + offsets], idx))
    far = gap > space.resolution + space._resolution_tol
    out = [frozenset()] * len(gap)
    for r in np.flatnonzero(far.any(axis=1)).tolist():
        out[r] = frozenset(np.flatnonzero(far[r]).tolist())
    return out


def _snapped(space: SampledSpace, form: dict | None) -> WeightedComposition | None:
    """The product re-snapped from a composed rotation or translation form,
    or None when the form is neither."""
    if form is not None and form.get("kind") == "rotation":
        return circle_rotation(space, angle=form["angle"])
    if form is not None and form.get("kind") == "translation":
        return line_translation(space, form["offset"])
    return None


def _weight_error(space: SampledSpace, weight: np.ndarray) -> ValueError:
    bad = np.flatnonzero(~(np.isfinite(weight) & (weight > 0)))
    return ValueError(f"weight {weight[bad[0]]} at point "
                      f"{space.points[bad[0]]!r}: must be positive and finite")


def _product_label(h: str, g: str) -> str:
    return f"{h}*{g}" if (h and g) else (h or g)


def compose(h: WeightedComposition, g: WeightedComposition) -> WeightedComposition:
    """The product ``hg`` acting as ``f -> h(g(f))``.

    The point map composes as ``phi_g o phi_h`` and the weight as
    ``a_h * (a_g o phi_h)``.  When both operands carry compatible rotation
    or translation forms, the composite map is re-snapped from the summed
    form so that long words do not accumulate grid error.  The product is
    the one word of a level of the word table (``_next_level``) whose
    frontier is ``h`` and whose generator is ``g``.
    """
    if not same_space(h.space, g.space):
        raise ValueError("mismatched spaces")
    return _next_level(h.space, _WordRows.of([h]), _WordRows.of([g]), set()).operator(h.space, 0)


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


def _tag(space: SampledSpace, form: str, refusal: str) -> dict:
    """The space's metric tag, which says what the space is; a ValueError
    with ``refusal`` when it is not of the given form."""
    if space.metric_form.get("form") != form:
        raise ValueError(refusal)
    return space.metric_form


def identity(space: SampledSpace) -> WeightedComposition:
    idx = np.arange(space.n)
    return WeightedComposition(space, np.ones(space.n), idx, idx, label="id",
                               form={"kind": "identity"})


def multiplication(space: SampledSpace, weight) -> WeightedComposition:
    w = np.full(space.n, float(weight)) if np.isscalar(weight) else np.asarray(weight, float)
    idx = np.arange(space.n)
    return WeightedComposition(space, w, idx, idx, label="mult")


def line_translation(space: SampledSpace, offset: float) -> WeightedComposition:
    """Translation ``t -> t + offset`` snapped to the grid, clamped at the
    window edges (edge points are declared defects of the truncation)."""
    step = _tag(space, "line", "line_translation requires a line space")["step"]
    if not _finite(offset):
        raise ValueError(f"line_translation offset must be a finite number, got {offset!r}")
    n = space.n
    shift = int(round(offset / step))
    idx = np.arange(n)
    fwd = np.clip(idx + shift, 0, n - 1)
    bwd = np.clip(idx - shift, 0, n - 1)
    edge = set(np.nonzero((idx + shift > n - 1) | (idx + shift < 0)
                          | (idx - shift > n - 1) | (idx - shift < 0))[0].tolist())
    return WeightedComposition(
        space, np.ones(n), fwd, bwd,
        label=f"shift{offset:+g}",
        form={"kind": "translation", "offset": shift * step},
        allowed_defects=frozenset(int(i) for i in edge),
    )


def circle_rotation(space: SampledSpace, angle: float | None = None,
                    steps: int | None = None) -> WeightedComposition:
    n = _tag(space, "circle", "circle_rotation requires a circle space")["count"]
    if (angle is None) == (steps is None):
        raise ValueError(f"circle_rotation needs one of angle and steps, "
                         f"got angle={angle!r}, steps={steps!r}")
    if steps is None:
        if not _finite(angle):
            raise ValueError(f"circle_rotation angle must be a finite number, got {angle!r}")
        exact_angle = angle
    else:
        exact_angle = steps * 2 * math.pi / n
    shift = int(round(exact_angle / (2 * math.pi / n)))
    idx = np.arange(n)
    fwd = (idx + shift) % n
    bwd = (idx - shift) % n
    return WeightedComposition(
        space, np.ones(n), fwd, bwd,
        label=f"rot{exact_angle:+.4g}",
        form={"kind": "rotation", "angle": exact_angle},
    )


def interval_flip(space: SampledSpace) -> WeightedComposition:
    """The involution ``s -> 1 - s`` on a [0, 1] grid (exact on uniform grids)."""
    _tag(space, "line", "interval_flip requires a line space")
    n = space.n
    idx = np.arange(n)
    fwd = (n - 1) - idx
    return WeightedComposition(space, np.ones(n), fwd, fwd.copy(), label="flip")


def lift(op: WeightedComposition, prod: SampledSpace, side: str = "left") -> WeightedComposition:
    """Lift an operator on a factor to a product space, acting trivially on
    the other factor: ``psi(k, l) = (phi(k), l)`` for a left lift."""
    if not prod.factors:
        raise ValueError("lift target must be a product space with its factor spaces")
    a, b = prod.factors
    na, nb = a.n, b.n
    if side == "left":
        if not same_space(op.space, a):
            raise ValueError("operator does not act on the left factor")
        fwd = (op.forward[:, None] * nb + np.arange(nb)[None, :]).ravel()
        bwd = (op.backward[:, None] * nb + np.arange(nb)[None, :]).ravel()
        w = np.repeat(op.weight, nb)
    elif side == "right":
        if not same_space(op.space, b):
            raise ValueError("operator does not act on the right factor")
        base = np.arange(na)[:, None] * nb
        fwd = (base + op.forward[None, :]).ravel()
        bwd = (base + op.backward[None, :]).ravel()
        w = np.tile(op.weight, na)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return WeightedComposition(prod, w, fwd, bwd, label=f"{op.label}@{side}")


def remark25_map(space: SampledSpace, n: int) -> WeightedComposition:
    """The n-th counterexample map on the two-part space.

    Column action: (0, i) -> (0, i+1) for i >= n, with (0, n_max) snapped to
    (0, inf); row n walks toward the column: (n, n) -> (0, n) and
    (n, i) -> (n, i-1) for i > n.  All other points are fixed.  The
    truncation edge of row n cannot be modeled bijectively and is declared
    as a defect.
    """
    n_max = _tag(space, "remark25", "remark25_map requires the remark25 space")["n_max"]
    if not 1 <= n <= n_max:
        raise ValueError("map index out of range")
    N = space.n
    fwd, bwd = np.arange(N), np.arange(N)
    # (0, x) is at index x - 1 and (0, inf) at n_max; row n's (n, j) is at row[j - 1]
    row = np.arange(n_max + 1, N).reshape(n_max, n_max)[n - 1]
    # (0, i) -> (0, i+1) for i >= n; the ideal image (0, n_max + 1) of
    # (0, n_max) snaps to (0, inf)
    fwd[n - 1:n_max] = np.arange(n, n_max + 1)
    fwd[row[n - 1]] = n - 1  # (n, n) -> (0, n)
    fwd[row[n:]] = row[n - 1:-1]  # (n, i) -> (n, i-1) for i > n

    bwd[n:n_max] = np.arange(n - 1, n_max - 1)  # (0, i) -> (0, i-1) for i > n
    bwd[n - 1] = row[n - 1]  # (0, n) -> (n, n)
    bwd[row[n - 1:-1]] = row[n:]  # (n, i) -> (n, i+1) for n <= i < n_max
    # (n, n_max) stays put: its ideal preimage (n, n_max + 1) has no nearby
    # sample point; the resulting round-trip defects at the truncation edge
    # are measured and declared
    defects = _roundtrip_defects(space, fwd[None], bwd[None])[0]
    return WeightedComposition(space, np.ones(N), fwd, bwd, label=f"phi_{n}",
                               allowed_defects=defects, measured_defects=defects)


def onepoint_swap(space: SampledSpace, n: int) -> WeightedComposition:
    """Self-inverse swap (0, n) <-> (1, n) with weight 2 at (0, n) and 1/2 at
    (1, n); the lone non-isometric generator family of the compactified
    two-row space."""
    n_max = _tag(space, "onepoint01N", "onepoint_swap requires the onepoint01N space")["n_max"]
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


def remark25_sequence(space: SampledSpace) -> list[WeightedComposition]:
    n_max = _tag(space, "remark25", "remark25_sequence requires the remark25 space")["n_max"]
    return [remark25_map(space, n) for n in range(1, n_max + 1)]


def onepoint_swap_group(space: SampledSpace, word_cap: int = 2,
                        count: int | None = None) -> "GroupSpec":
    n_max = _tag(space, "onepoint01N", "onepoint_swap_group requires the onepoint01N space")["n_max"]
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
        arrays = {f: np.concatenate([getattr(p, f) for p in parts]) for f in ("forward", "weight", "backward")}
        lists = {f: [x for p in parts for x in getattr(p, f)] for f in ("labels", "forms", "allowed")}
        return cls(**arrays, **lists)

    def operator(self, space: SampledSpace, r: int) -> WeightedComposition:
        """Row r as an operator on its arrays; the row's defects were
        measured and declared as it was built."""
        return WeightedComposition(space, self.weight[r], self.forward[r], self.backward[r],
                                   label=self.labels[r], form=self.forms[r],
                                   allowed_defects=self.allowed[r], measured_defects=self.allowed[r])


def _next_level(space: SampledSpace, frontier: _WordRows, gens: _WordRows, seen: set[bytes]) -> _WordRows:
    """The words that extend a frontier word by one generator and whose
    keys are not in ``seen``, first occurrences in (frontier word,
    generator) order; ``seen`` grows by their keys.

    Candidates are taken in blocks of about ``_WORD_BLOCK`` entries per
    array: one gather composes the block's point maps and weights, and one
    ``_map_key`` call keys its rows.  A pair whose composed form is a
    rotation or translation is re-snapped from it (``_snapped``) and keyed
    as built.  A kept composite must have a positive finite weight, or the
    first such word raises as its ``WeightedComposition`` would; the
    round-trip defects of the kept composites are measured in one gather
    and declared.  Every word is labelled ``_product_label`` of its
    frontier word's and its generator's labels.
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
        keep, forms, snaps = [], [], {}
        for j, (h, g, key) in enumerate(zip(h_idx.tolist(), g_idx.tolist(), _map_key(fwd, wt))):
            form = _compose_forms(frontier.forms[h], gens.forms[g])
            c = None if form is None else _snapped(space, form)
            key = key if c is None else c.key()
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
            labels.append(_product_label(frontier.labels[h], gens.labels[g]))
            c = snaps.get(r)
            if c is None:
                allowed.append(frontier.allowed[h] | gens.allowed[g] | next(measured))
            else:
                forms[r] = c.form
                allowed.append(c.allowed_defects)
        parts.append(_WordRows(fwd, wt, bwd, labels, forms, allowed))
    return _WordRows.concat(parts)


@dataclass(eq=False)
class GroupSpec:
    """A group given by generators, enumerated as words up to ``word_cap``.

    The generator list is closed under formal inversion on construction.
    """

    generators: tuple[WeightedComposition, ...]
    word_cap: int
    label: str = ""

    def __post_init__(self):
        if self.word_cap < 1:
            raise ValueError("word_cap must be at least 1")
        if not self.generators:
            raise ValueError("a group needs at least one generator")
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
        self._words: list[WeightedComposition] | None = None

    @property
    def space(self) -> SampledSpace:
        return self.generators[0].space

    @classmethod
    def trivial(cls, space: SampledSpace) -> "GroupSpec":
        return cls((identity(space),), word_cap=1, label="trivial")

    def _cap(self, cap: int | None) -> int:
        """The checked cap; the word table is built on first use, breadth
        first, one level per ``_next_level`` call."""
        cap = self.word_cap if cap is None else cap
        if not 0 <= cap <= self.word_cap:
            raise ValueError(f"word cap {cap} outside 0..word_cap {self.word_cap}")
        if self._table is None:
            space = self.space
            if not all(same_space(g.space, space) for g in self.generators):
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

    def words(self) -> list[WeightedComposition]:
        """All distinct words of length <= ``word_cap``, breadth first,
        identity first.

        Deduplication is by (forward map, rounded weight), so the list is a
        deterministic enumeration of the sampled subgroup.  The words are
        enumerated once, as the rows of ``word_table``; their operator
        objects are built on the first call, and repeat calls return the
        same list object.
        """
        self._cap(None)
        if self._words is None:
            t = self._table
            # the objects share one copy of the table, not the table itself
            copy = t._replace(forward=t.forward.copy(), weight=t.weight.copy(), backward=t.backward.copy())
            self._words = [copy.operator(self.space, r) for r in range(len(t.labels))]
        return self._words

    def word_table(self, cap: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Point maps and weights of the words of length <= cap (at most
        ``word_cap``) as ``(W, n)`` arrays, row w for word w: prefix views
        of the one table."""
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


@dataclass
class SOTVerdict:
    converges: bool
    conditions: list[ConditionReport]
    weight_bound: float
    moreover_applicable: bool
    moreover_detail: str


def _tail_threshold(violations: Sequence[int], horizon: int) -> int | None:
    """Smallest N such that stages N..horizon are violation-free, or None
    when the final stage itself violates (no clean tail in horizon)."""
    if not violations:
        return 1
    last = max(violations)
    if last >= horizon:
        return None
    return last + 1


# bytes of one distance block of _preimage_distances: a block of rows times
# the columns of one run of compacts
_GATHER_BYTES = 1 << 18


def _preimage_distances(metric: Metric, backward: np.ndarray, karrs: Sequence[np.ndarray]) -> np.ndarray:
    """The (n, len(karrs)) table whose column k is the distance from every
    point to ``backward[karrs[k]]``: the min of the distances to those
    points.

    The compacts ``karrs`` split into maximal nested runs.  Within a run
    each compact's columns contain the previous compact's, so each compact
    adds only its fresh columns; a compact whose columns do not contain the
    previous ones starts a new run with all of its own.  The fresh columns
    of a run are concatenated once, and each block of rows (about
    ``_GATHER_BYTES``) is computed at them as in ``metric.cross``, reduced to
    one min per compact with ``reduceat`` and folded along the run with
    ``accumulate``.  Every block is written into one buffer per call, so no
    block maps and faults in fresh pages.  A compact with no fresh column
    (a repeat) carries the previous compact's column.  Every entry is a min
    over the same columns as a direct ``dmat[:, cols].min(axis=1)``, so the
    table is exact.
    """
    n = metric.n
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
    # a block is at most _GATHER_BYTES, or one row of at most n columns
    buf = np.empty(max(min(_GATHER_BYTES // 8, n * n), n))
    idx = np.arange(n)
    for k0, segments in runs:
        sizes = np.array([seg.size for seg in segments])
        cols = np.concatenate(segments)
        starts = (np.cumsum(sizes) - sizes)[sizes > 0]
        # reduced column of each compact: its own, or a repeat's predecessor's
        carry = np.cumsum(sizes > 0) - 1
        rows = max(1, _GATHER_BYTES // (8 * cols.size))
        for r in range(0, n, rows):
            block = idx[r:r + rows]
            out = buf[:block.size * cols.size].reshape(block.size, cols.size)
            mins = np.minimum.reduceat(metric._cross(block, cols, out), starts, axis=1)
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

    The distance to the limit's preimage of K is a min over the points
    ``limit.backward[K]``; all of them come from one sweep of row blocks of
    the metric (see ``_preimage_distances``).  The stages of one compact are
    checked in one gather.
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
    gap_phi = space.metric.pair(np.stack([g.forward for g in seq]), limit.forward)
    gap_w = np.abs(np.stack([g.weight for g in seq]) - limit.weight)
    backward = np.stack([g.backward for g in seq])

    karrs = [K.members for K in K_list]
    dist_to_inv = _preimage_distances(space.metric, limit.backward, karrs)
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
    )


@dataclass
class EquicontinuityReport:
    table: list[tuple[float, float]]          # (eps, largest valid delta); inf when unconstrained
    witnesses: list[tuple[float, tuple]]      # (eps, (member, point s, point t)) when no grid delta works

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
    karr = K.members
    src = space.metric.cross(karr, karr)
    grid = tuple(sorted(set(float(e) for e in moduli_grid)))
    min_grid_delta = min(grid) if grid else 0.0

    table = []
    witnesses = []
    slack = 1e-12  # grid coordinates carry float dust; do not count it
    for eps in grid:
        best_delta = math.inf
        witness = None
        for mi, mp in enumerate(maps):
            img = space.metric.cross(mp[karr], mp[karr])
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
    return EquicontinuityReport(table=table, witnesses=witnesses)
