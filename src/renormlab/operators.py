"""Weighted-composition operators and convergence checkers.

An operator acts on sampled functions as ``(Tf)(y) = a(y) * f(phi(y))``
with a positive weight ``a`` and a point map ``phi`` stored as explicit
sample-index assignments (plus an optional closed-form tag so that word
composition can re-snap from the exact form instead of compounding
nearest-sample errors).
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections import abc
from dataclasses import InitVar, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .space import (CompactSet, SampledSpace, _acts_on, _finite, _integer, _nested_runs, _positive,
                    same_space)

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
    homeomorphism and its inverse; a round trip must return every point to
    the same sample point, within ``space._same_point_tol``, except at
    declared truncation-edge defects.  Every entry of either map is a point
    index, in 0..n-1.
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
        for name, m in (("forward", self.forward), ("backward", self.backward)):
            u = m.view(np.uintp)  # a negative entry reads as a huge unsigned one
            if u.max() >= n:
                i = int((u >= n).argmax())
                raise ValueError(f"{name} map sends point {self.space.points[i]!r} to {m[i]}, "
                                 f"outside 0..{n - 1}")
        if not (np.isfinite(self.weight) & (self.weight > 0)).all():
            raise _weight_error(self.space, self.weight)
        if measured_defects is None:
            measured_defects = _roundtrip_defects(self.space, self.forward, self.backward)
        stray = sorted(i for i in measured_defects if i not in self.allowed_defects)
        if stray:
            pid = self.space.points[stray[0]]
            raise ValueError(
                f"map round trip displaces {len(stray)} points beyond 2*resolution plus rounding "
                f"(first: {pid}); declare truncation-edge defects explicitly"
            )

    def apply(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.space.n,):
            raise ValueError(f"function of shape {f.shape} for {self.space.n} points")
        return self.weight * f[self.forward]

    def key(self) -> bytes:
        return _key_rows(self.forward[None], self.weight[None]).tobytes()

    def __repr__(self) -> str:
        return f"WeightedComposition({self.label or 'op'!r} on {self.space.name})"


def _key_rows(forward: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Dedupe keys of the rows of ``(B, n)`` point maps and weights as
    ``(B, 2n)`` integers: each row's map, then its weight rounded to 12
    decimals read as int64.  A row's bytes are its operator's ``key()``, so
    keys compare as those bytes do: NaN equals its own bits, and -0.0 is not
    0.0."""
    return np.concatenate([forward, np.round(weight, 12).view(np.intp)], axis=1)


@functools.lru_cache(maxsize=8)
def _fingerprint_vector(width: int) -> np.ndarray:
    """The fixed pseudo-random ``uint64`` vector that fingerprints key rows
    of the given width: SHAKE-128 output of a fixed string, read-only.
    Building the vector with ``np.random`` would import that module inside
    ``build_config``, which otherwise never does."""
    return np.frombuffer(hashlib.shake_128(b"renormlab word keys").digest(8 * width), dtype=np.uint64)


def _fingerprints(forward: np.ndarray, rounded: np.ndarray) -> np.ndarray:
    """One 64-bit fingerprint per row of ``(B, n)`` point maps and weights
    already rounded to 12 decimals: the dot product of the row's
    ``_key_rows`` integers with a fixed random vector, wrapping modulo 2^64
    (Karp and Rabin, "Efficient randomized pattern-matching algorithms",
    1987), taken over the map and the rounded weight apart, so no key row
    is built.  Equal keys have equal fingerprints; two distinct keys rarely
    do, and ``_next_level`` confirms every equal pair on the keys
    themselves."""
    n = forward.shape[1]
    vec = _fingerprint_vector(2 * n)
    return forward.view(np.uint64) @ vec[:n] + rounded.view(np.uint64) @ vec[n:]


def _roundtrip_defects(space: SampledSpace, forward: np.ndarray, backward: np.ndarray) -> frozenset[int]:
    """The points that a round trip through the ``(n,)`` index maps, in
    either order, displaces off the same sample point: by more than
    ``space._same_point_tol``.

    A point that both round trips return to itself is displaced by
    d(i, i) = 0, so distances are read only where a round trip moves a
    point."""
    idx = np.arange(space.n)
    there, back = backward[forward], forward[backward]
    at = np.flatnonzero((there != idx) | (back != idx))
    if not len(at):  # every round trip is exact: no distance to read
        return frozenset()
    gap = np.maximum(space.metric.pair(there[at], at), space.metric.pair(back[at], at))
    return frozenset(at[gap > space._same_point_tol].tolist())


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
    frontier is ``h``, whose generator is ``g`` and whose table is empty.
    """
    if not same_space(h.space, g.space):
        raise ValueError("mismatched spaces")
    frontier = _WordRows.of([h])
    return _next_level(h.space, frontier, _WordRows.of([g]), frontier.rows(0, 0)).operator(h.space, 0)


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
        # g's round trips in the other order: g's measured defects, which
        # its allowed ones hold
        measured_defects=g.allowed_defects,
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
    edge = frozenset(np.flatnonzero((idx + shift > n - 1) | (idx + shift < 0)
                                    | (idx - shift > n - 1) | (idx - shift < 0)).tolist())
    # a round trip returns every point off the clamped edge to itself, so
    # no measurement can find a defect outside it
    return WeightedComposition(
        space, np.ones(n), fwd, bwd,
        label=f"shift{offset:+g}",
        form={"kind": "translation", "offset": shift * step},
        allowed_defects=edge,
        measured_defects=edge,
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
    # the two maps are inverse permutations: every round trip is exact
    return WeightedComposition(
        space, np.ones(n), fwd, bwd,
        label=f"rot{exact_angle:+.4g}",
        form={"kind": "rotation", "angle": exact_angle},
        measured_defects=frozenset(),
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
    the other factor: ``psi(k, l) = (phi(k), l)`` for a left lift.  Each
    declared defect of the operand declares every product point over it."""
    if not prod.factors:
        raise ValueError("lift target must be a product space with its factor spaces")
    a, b = prod.factors
    na, nb = a.n, b.n
    if side == "left":
        if not same_space(op.space, a):
            raise ValueError("operator does not act on the left factor")
        cells = lambda i: (i[:, None] * nb + np.arange(nb)).ravel()  # (i, l) for every l
        w = np.repeat(op.weight, nb)
    elif side == "right":
        if not same_space(op.space, b):
            raise ValueError("operator does not act on the right factor")
        cells = lambda j: (np.arange(na)[:, None] * nb + j).ravel()  # (k, j) for every k
        w = np.tile(op.weight, na)
    else:
        raise ValueError("side must be 'left' or 'right'")
    defects = cells(np.array(sorted(op.allowed_defects), dtype=np.intp))
    return WeightedComposition(prod, w, cells(op.forward), cells(op.backward), label=f"{op.label}@{side}",
                               allowed_defects=frozenset(defects.tolist()))


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
    return _remark25_patches(space, n_max, [n])[0]


def _remark25_patches(space: SampledSpace, n_max: int, ns: Sequence[int]) -> "_PatchSequence":
    """The counterexample maps ``ns`` as patches: map n moves (0, n..n_max)
    and (n, n..n_max), and declares its truncation edge (n, n_max)."""
    parts = []
    for n in ns:
        col = np.arange(n - 1, n_max)  # (0, x) is at index x - 1 and (0, inf) at n_max
        row = n_max + 1 + (n - 1) * n_max + col  # (n, x) is at n_max + 1 + (n - 1) n_max + x - 1
        # forward: (0, i) -> (0, i+1), the ideal image (0, n_max + 1) of (0,
        # n_max) snapped to (0, inf); (n, n) -> (0, n) and (n, i) -> (n, i-1)
        forward = np.concatenate([col + 1, [n - 1], row[:-1]])
        # backward: (0, n) -> (n, n), (0, i) -> (0, i-1) for i > n and (n,
        # i) -> (n, i+1) for i < n_max.  (n, n_max) stays put: its ideal
        # preimage (n, n_max + 1) has no nearby sample point, so the round
        # trip through the backward map first sends it to (n, n_max - 1), or
        # to (0, n_max) when n = n_max, at distance 1: the one round-trip
        # defect, the truncation edge, declared
        backward = np.concatenate([row[:1], col[:-1], row[1:], row[-1:]])
        parts.append((np.concatenate([col, row]), forward, backward))
    at, forward, backward = (np.concatenate(a) for a in zip(*parts))
    start = np.concatenate([[0], np.cumsum([p[0].size for p in parts])])
    return _PatchSequence(space, start, at, np.ones(at.size), forward, backward,
                          [f"phi_{n}" for n in ns], [frozenset({n_max + n * n_max}) for n in ns])


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


def remark25_sequence(space: SampledSpace) -> Sequence[WeightedComposition]:
    """The maps ``remark25_map(space, n)`` for n = 1..n_max, held as patches:
    each moves 2 (n_max - n + 1) points, so the sequence holds about n
    entries in all, and builds a map only where it is read."""
    n_max = _tag(space, "remark25", "remark25_sequence requires the remark25 space")["n_max"]
    return _remark25_patches(space, n_max, range(1, n_max + 1))


class _PatchSequence(abc.Sequence):
    """Operators on one space, each the identity plus the points it moves,
    in one batch: stage s moves the points ``at[start[s]:start[s + 1]]``
    (sorted), with ``weight``, ``forward`` and ``backward`` there, and
    fixes every other point with weight 1.

    A stage is built as a ``WeightedComposition`` only where it is read
    (``seq[s]``, or a list of them for a slice), declaring ``defects[s]``
    as its measured round-trip defects, so a sequence of operators that
    each move few points holds no (stages, n) array.  The convergence
    checks read the batch itself."""

    def __init__(self, space: SampledSpace, start: np.ndarray, at: np.ndarray, weight: np.ndarray,
                 forward: np.ndarray, backward: np.ndarray, labels: list[str], defects: list[frozenset]):
        self.space, self.start, self.at = space, start, at
        self.weight, self.forward, self.backward = weight, forward, backward
        self.labels, self.defects = labels, defects

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):  # a list of the stages, as remark25_sequence once returned
            return [self[s] for s in range(len(self))[i]]
        s = range(len(self))[i]
        cut, n = slice(self.start[s], self.start[s + 1]), self.space.n
        weight, forward, backward = np.ones(n), np.arange(n), np.arange(n)
        for out, values in ((weight, self.weight), (forward, self.forward), (backward, self.backward)):
            out[self.at[cut]] = values[cut]
        return WeightedComposition(self.space, weight, forward, backward, label=self.labels[s],
                                   allowed_defects=self.defects[s], measured_defects=self.defects[s])

    def stage(self) -> np.ndarray:
        """The stage of each moved point."""
        return np.repeat(np.arange(len(self)), np.diff(self.start))

    def keys(self, points: np.ndarray) -> np.ndarray:
        """The keys stage * n + p, one per moved point, of its stage and
        the entry p of ``points`` there; ``keys(at)`` is sorted."""
        return self.stage() * self.space.n + points

    def deviations(self, x: np.ndarray) -> np.ndarray:
        """Each stage's sup over the points of |T_s x - x|, read where it
        moves a point: at any other point T_s x - x is 0."""
        out = np.zeros(len(self))
        np.maximum.at(out, self.stage(), np.abs(self.weight * x[self.forward] - x[self.at]))
        return out

    def inverse(self) -> "_PatchSequence":
        """The stages' inverses, as ``invert`` gives them, on the same
        points: weight ``1 / (a o b)`` and the two maps swapped.  The weight
        at b(x) is the stage's where it moves b(x), and 1 elsewhere."""
        key, pre = self.keys(self.at), self.keys(self.backward)
        held = _holds(key, pre)
        weight = np.ones(self.at.size)
        weight[held] = self.weight[np.searchsorted(key, pre[held])]
        return _PatchSequence(self.space, self.start, self.at, 1.0 / weight, self.backward, self.forward,
                              [f"{label}^-1" if label else "" for label in self.labels], self.defects)

    def images(self, cols: np.ndarray) -> np.ndarray:
        """The (stages, len(cols)) images of the sorted index array ``cols``
        under the forward maps: one scatter of the moved points that it
        holds."""
        out = np.tile(cols, (len(self), 1))
        held = _holds(cols, self.at)
        out[self.stage()[held], np.searchsorted(cols, self.at[held])] = self.forward[held]
        return out


def onepoint_swap_group(space: SampledSpace, word_cap: int = 2,
                        count: int | None = None) -> "GroupSpec":
    if count is not None:
        _integer(count, "group count", 1)
    n_max = _tag(space, "onepoint01N", "onepoint_swap_group requires the onepoint01N space")["n_max"]
    if count is not None and count > n_max:
        raise ValueError(f"group count must be at most the space's n_max {n_max}, got {count}")
    gens = [onepoint_swap(space, n) for n in range(1, (count or n_max) + 1)]
    return GroupSpec(tuple(gens), word_cap=word_cap, label="onepoint-swaps")


# ----------------------------------------------------------------------
# groups as generator lists with word enumeration


# entries of one (block, n) array of candidate words in _next_level: 256 KB
# of int64, so a level's temporaries stay bounded however wide its frontier
_WORD_BLOCK = 1 << 15


class _WordRows(NamedTuple):
    """Words as table rows: point maps, weights and inverse maps as
    ``(W, n)`` arrays, with each row's label and form, and the fingerprint
    of each row's key (``_fingerprints``)."""

    forward: np.ndarray
    weight: np.ndarray
    backward: np.ndarray
    labels: list[str]
    forms: list[dict | None]
    fp: np.ndarray

    @classmethod
    def of(cls, ops: Sequence[WeightedComposition]) -> "_WordRows":
        forward, weight = np.stack([g.forward for g in ops]), np.stack([g.weight for g in ops])
        return cls(forward, weight, np.stack([g.backward for g in ops]), [g.label for g in ops],
                   [g.form for g in ops], _fingerprints(forward, np.round(weight, 12)))

    def rows(self, start: int, stop: int | None = None) -> "_WordRows":
        """Rows start..stop as views of the arrays."""
        return _WordRows(*(field[start:stop] for field in self))

    def operator(self, space: SampledSpace, r: int) -> WeightedComposition:
        """Row r as an operator on its arrays, declaring the round-trip
        defects of its own maps, measured once here."""
        defects = _roundtrip_defects(space, self.forward[r], self.backward[r])
        return WeightedComposition(space, self.weight[r], self.forward[r], self.backward[r],
                                   label=self.labels[r], form=self.forms[r],
                                   allowed_defects=defects, measured_defects=defects)


def _first_entries(fps: np.ndarray) -> np.ndarray:
    """For each entry, the index of the first entry with its fingerprint,
    from one stable sort."""
    order = np.argsort(fps, kind="stable")
    ordered = fps[order]
    head = np.ones(len(fps), dtype=bool)  # where a run of equal fingerprints starts
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    first = np.empty_like(order)
    first[order] = order[head][np.cumsum(head) - 1]
    return first


def _next_level(space: SampledSpace, frontier: _WordRows, gens: _WordRows, table: _WordRows) -> _WordRows:
    """``table`` followed by the words that extend a frontier word by one
    generator and whose keys are not in it, first occurrences in (frontier
    word, generator) order.

    Only pairs whose operands both carry a form are visited one by one:
    one whose forms compose to a rotation or translation is re-snapped
    from the composed form (``_snapped``) and keyed as built.  Candidates
    are composed in blocks of about ``_WORD_BLOCK`` array entries, one
    gather of point maps and weights each, and fingerprinted.  One stable
    sort of the table's fingerprints followed by the candidates' picks the
    first entry of each fingerprint; every later entry is compared with it
    on the full keys, and the entries of a fingerprint that holds unequal
    keys are deduplicated on their keys instead, so a collision merges no
    words.  The kept candidates are then gathered once, inverse maps
    included.  A kept composite must have a positive finite weight, or the
    first such word raises as its ``WeightedComposition`` would.  No round
    trip is measured here: a row's operator measures its own
    (``_WordRows.operator``).
    Every word is labelled ``_product_label`` of its frontier word's and
    its generator's labels.
    """
    n, K, S = space.n, len(gens.labels), len(table.labels)
    total = len(frontier.labels) * K
    step = max(1, min(_WORD_BLOCK // n, total))
    both = np.flatnonzero(np.logical_and.outer(np.array([bool(f) for f in frontier.forms], dtype=bool),
                                               np.array([bool(f) for f in gens.forms], dtype=bool)))
    forms, snaps = {}, {}
    for j in both.tolist():
        forms[j] = _compose_forms(frontier.forms[j // K], gens.forms[j % K])
        c = _snapped(space, forms[j])
        if c is not None:
            snaps[j] = c
    snapped = np.fromiter(snaps, dtype=np.intp, count=len(snaps))
    # one set of block buffers serves every block of the call: flat indices,
    # point maps, weights, and rounded weights, which composed also uses to
    # gather the frontier's weights.  Fresh (block, n) arrays per block
    # would be mapped and trimmed by the allocator again and again
    at, maps = np.empty((2, step, n), dtype=np.intp)
    weights, rounded = np.empty((2, step, n))

    def composed(idx: np.ndarray, out: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
        # the candidates' point maps and weights, and inverse maps when out
        # holds a third array, written to out; the re-snapped ones as built
        h, g = np.divmod(idx, K)
        flat, scratch = at[:len(idx)], rounded[:len(idx)]
        # flat indices into the generator rows (entry j of row g is at
        # g * n + j).  Every index here and below is in range, and
        # mode="wrap" gathers straight into out where the default mode
        # copies through a temporary
        np.take(frontier.forward, h, axis=0, out=flat, mode="wrap")
        flat += (g * n)[:, None]
        np.take(gens.forward, flat, out=out[0], mode="wrap")
        np.take(gens.weight, flat, out=out[1], mode="wrap")
        np.multiply(np.take(frontier.weight, h, axis=0, out=scratch, mode="wrap"), out[1], out=out[1])
        if len(out) > 2:
            np.take(gens.backward, g, axis=0, out=flat, mode="wrap")
            flat += (h * n)[:, None]
            np.take(frontier.backward, flat, out=out[2], mode="wrap")
        for r in np.flatnonzero(np.isin(idx, snapped)).tolist() if snaps else ():
            c = snaps[int(idx[r])]
            for rows, built in zip(out, (c.forward, c.weight, c.backward)):
                rows[r] = built
        return out

    def extended(kept: np.ndarray) -> list[np.ndarray]:
        # the table's arrays followed by the kept candidates' rows
        out = [np.empty((S + len(kept), n), dtype=a.dtype) for a in (table.forward, table.weight, table.backward)]
        for rows, old in zip(out, (table.forward, table.weight, table.backward)):
            rows[:S] = old
        for a in range(0, len(kept), step):
            composed(kept[a:a + step], [rows[S + a:S + a + step] for rows in out])
        return out

    fp = np.empty(total, dtype=np.uint64)
    for a in range(0, total, step):
        b = min(step, total - a)
        f, w = composed(np.arange(a, a + b), (maps[:b], weights[:b]))
        fp[a:a + b] = _fingerprints(f, np.round(w, 12, out=rounded[:b]))
    fps = np.concatenate([table.fp, fp])
    # each candidate's first fingerprint-equal entry: a table row, or S + a candidate
    first = _first_entries(fps)[S:]
    kept = np.flatnonzero(first == np.arange(S, S + total))
    forward, weight, backward = extended(kept)

    dup = np.flatnonzero(first != np.arange(S, S + total))
    # the first entry's row in the extended table
    row = np.where(first[dup] < S, first[dup], S + np.searchsorted(kept, first[dup] - S))
    same = np.ones(len(dup), dtype=bool)
    for a in range(0, len(dup), step):
        r = row[a:a + step]
        b = len(r)
        f, w = composed(dup[a:a + b], (maps[:b], weights[:b]))
        np.round(w, 12, out=rounded[:b])
        same[a:a + b] = (f == np.take(forward, r, axis=0, out=at[:b], mode="wrap")).all(axis=1)
        # rounded holds the candidates' weights now, so w takes the first entries'
        np.round(np.take(weight, r, axis=0, out=w, mode="wrap"), 12, out=w)
        same[a:a + b] &= (rounded[:b].view(np.intp) == w.view(np.intp)).all(axis=1)
    if not same.all():
        # a fingerprint collision: the entries of every fingerprint that
        # holds unequal keys are deduplicated on their keys, first occurrences
        clash = np.isin(fps, fp[dup[~same]])
        old, cand = np.flatnonzero(clash[:S]), np.flatnonzero(clash[S:])
        keys = [_key_rows(table.forward[old], table.weight[old])]
        for a in range(0, len(cand), step):
            c = cand[a:a + step]
            keys.append(_key_rows(*composed(c, (maps[:len(c)], weights[:len(c)]))))
        firsts = np.unique(np.concatenate(keys), axis=0, return_index=True)[1]
        kept = np.union1d(kept[~clash[S:][kept]], cand[firsts[firsts >= len(old)] - len(old)])
        forward, weight, backward = extended(kept)

    valid = (np.isfinite(weight[S:]) & (weight[S:] > 0)).all(axis=1)
    if not valid.all():
        raise _weight_error(space, weight[S + np.argmin(valid)])
    hk, gk = np.divmod(kept, K)
    fl, gl = frontier.labels, gens.labels
    labels = [_product_label(fl[h], gl[g]) for h, g in zip(hk.tolist(), gk.tolist())]
    row_forms = [None] * len(kept)
    for r in np.flatnonzero(np.isin(kept, both)).tolist() if forms else ():
        j = int(kept[r])
        row_forms[r] = snaps[j].form if j in snaps else forms[j]
    return _WordRows(forward, weight, backward, table.labels + labels, table.forms + row_forms,
                     np.concatenate([table.fp, fp[kept]]))


@dataclass(eq=False)
class GroupSpec:
    """A group given by generators, enumerated as words up to ``word_cap``.

    The generator list is closed under formal inversion on construction.
    """

    generators: tuple[WeightedComposition, ...]
    word_cap: int
    label: str = ""

    def __post_init__(self):
        _integer(self.word_cap, "group word_cap", 1)
        if not self.generators:
            raise ValueError("a group needs at least one generator")
        if not all(same_space(g.space, self.space) for g in self.generators):
            raise ValueError("mismatched spaces")
        gens = list(self.generators)
        keys = {g.key() for g in gens}
        for g in list(gens):
            gi = invert(g)
            if gi.key() not in keys:
                gens.append(gi)
                keys.add(gi.key())
        self.generators = tuple(gens)
        self._table: _WordRows | None = None
        self._words: list[WeightedComposition] | None = None

    @property
    def space(self) -> SampledSpace:
        return self.generators[0].space

    @classmethod
    def trivial(cls, space: SampledSpace) -> "GroupSpec":
        return cls((identity(space),), word_cap=1, label="trivial")

    def _rows(self) -> _WordRows:
        """The word table, built breadth first on first use, one ``_next_level`` per level."""
        if self._table is None:
            space = self.space
            gens = _WordRows.of(self.generators)
            table, start = _WordRows.of([identity(space)]), 0
            for _ in range(self.word_cap):
                # the frontier is the last level's rows
                frontier, start = table.rows(start), len(table.labels)
                table = _next_level(space, frontier, gens, table)
            self._table = table
        return self._table

    def words(self) -> list[WeightedComposition]:
        """All distinct words of length <= ``word_cap``, breadth first,
        identity first.

        Deduplication is by (forward map, rounded weight), so the list is a
        deterministic enumeration of the sampled subgroup.  The words are
        enumerated once, as the rows of ``word_table``; their operator
        objects are built on the first call, each declaring the round-trip
        defects of its own maps, and repeat calls return the same list
        object.
        """
        t = self._rows()
        if self._words is None:
            # the objects share one copy of the table, not the table itself
            copy = t._replace(forward=t.forward.copy(), weight=t.weight.copy(), backward=t.backward.copy())
            self._words = [copy.operator(self.space, r) for r in range(len(t.labels))]
        return self._words

    def word_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Point maps and weights of the words of length <= ``word_cap`` as
        ``(W, n)`` arrays, row w for word w."""
        t = self._rows()
        return t.forward, t.weight


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


def _holds(members: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether the sorted index array ``members`` holds each of ``values``."""
    if not members.size:
        return np.zeros(values.shape, dtype=bool)
    return members[np.minimum(np.searchsorted(members, values), members.size - 1)] == values


def _covered(stage: np.ndarray, lo: np.ndarray, hi: np.ndarray, horizon: int, width: int) -> np.ndarray:
    """The (horizon, width) mask of the compacts 0..width-1 of a run that
    each stage covers with the interval [lo[i], hi[i]) of some entry i of
    its own: a difference array per stage, +1 at each nonempty interval's
    start and -1 at its stop, summed along the row."""
    keep = lo < hi
    at, size = stage[keep] * (width + 1), horizon * (width + 1)
    diff = np.bincount(at + lo[keep], minlength=size) - np.bincount(at + hi[keep], minlength=size)
    return np.cumsum(diff.reshape(horizon, width + 1), axis=1)[:, :width] > 0


def _stages(seq: Sequence[WeightedComposition], space: SampledSpace) -> _PatchSequence:
    """A sequence of operators as patches on ``space``, read from a list's
    (n,) arrays where a map or the weight is not the identity's; a
    ValueError names the first stage on another space."""
    if isinstance(seq, _PatchSequence):
        _acts_on(seq.space, space, "the sequence", "the limit's")
        return seq
    for s, g in enumerate(seq):
        _acts_on(g.space, space, f"stage {s + 1}", "the limit's")
    idx = np.arange(space.n)
    moved = [np.flatnonzero((g.forward != idx) | (g.backward != idx) | (g.weight != 1.0)) for g in seq]
    arrays = (np.concatenate([getattr(g, f)[m] for g, m in zip(seq, moved)]) for f in ("weight", "forward", "backward"))
    return _PatchSequence(space, np.concatenate([[0], np.cumsum([m.size for m in moved])]), np.concatenate(moved),
                          *arrays, [g.label for g in seq], [g.allowed_defects for g in seq])


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
    violating (stage, compact, point) otherwise.  An empty sequence or
    compact list, a stage on another space than the limit's and a compact
    with a member outside it are refused by name.

    **Only the points where a stage differs from the limit are read.**  A
    stage and the limit agree at x when their forward maps, weights and
    backward maps do.  Then x has gap d(phi(x), phi(x)) = 0 on the first
    condition and 0 on the second, and its preimage ``limit.backward[x]``
    lies in S_k = ``limit.backward[K_k]`` for every compact that holds x, at
    distance d(y, y) = 0 from it: no condition can fail at x.  So the
    verdict, the thresholds and the witnesses over those difference sets
    are exactly those over the whole compacts.  A stage is read as patches
    (``_PatchSequence``): the difference set lies in the points it or the
    limit moves, so a sequence of maps that each move few points costs
    O(points moved), however large the compacts.

    The compacts split into maximal nested runs (``space._nested_runs``),
    which give e(x), the first compact of the run that holds x.  Within a
    run K_k grows, so S_k grows with it and d(y, S_k) does not increase with
    k; F(y), the first compact with d(y, S_k) <= eps, is read only at the
    preimages of the read points (``Metric._far_counts``, in closed form on
    the dyadic spaces).  Stage s then violates on compact k

    - ``inverse_images`` for each read point x whose preimage b_s(x) is too
      far, exactly the compacts in [e(x), F(b_s(x)));
    - ``phi_uniform`` and ``weight_uniform`` for each read point x whose gap
      exceeds eps, every compact from e(x) on.

    A difference array per stage (``_covered``) turns these intervals
    into the compacts each stage violates.  The thresholds read only each
    compact's last violating stage; the witness is the first largest gap,
    in ``members`` order, at the earliest (stage, compact): a violating
    compact's largest gap exceeds eps, which no unread point's does, so it
    is the read point of least index with the largest gap there.
    """
    if not seq:
        raise ValueError("empty operator sequence")
    _positive(eps, "eps")
    if not K_list:
        raise ValueError("empty compact list: the convergence check needs at least one compact")
    space, metric = limit.space, limit.space.metric
    n = space.n
    stages = _stages(seq, space)
    karrs = [K.members for K in K_list]
    for K in K_list:
        if K.members[0] < 0 or K.members[-1] >= n:
            raise ValueError(f"compact {K.label!r} has a member outside the limit's space "
                             f"{space.name!r} ({n} points)")
    horizon = len(stages)
    # a stage that fixes some point has weight 1 there
    weight_bound = max(float(stages.weight.max(initial=-math.inf)),
                       1.0 if (np.diff(stages.start) < n).any() else -math.inf)
    if not math.isfinite(weight_bound):
        raise ValueError("uniform boundedness violated")

    # the points looked at in every stage besides those it moves: those the
    # limit moves, where the two may differ
    idx = np.arange(n)
    always = (limit.forward != idx) | (limit.backward != idx) | (limit.weight != 1.0)
    # each stage's moved points, then the others looked at, as the identity
    # moves them, in (stage, point) order
    key = stages.keys(stages.at)
    extra = (np.arange(horizon)[:, None] * n + np.flatnonzero(always)).ravel()
    extra = extra[~_holds(key, extra)]
    order = np.argsort(np.concatenate([key, extra]), kind="stable")
    s, x = np.divmod(np.concatenate([key, extra])[order], n)
    fw, wt, bw = (np.concatenate([values, fixed])[order] for values, fixed in
                  ((stages.forward, extra % n), (stages.weight, np.ones(extra.size)), (stages.backward, extra % n)))
    read = (fw != limit.forward[x]) | (wt != limit.weight[x]) | (bw != limit.backward[x])
    s, x, fw, wt, bw = s[read], x[read], fw[read], wt[read], bw[read]
    gaps = (metric.pair(fw, limit.forward[x]), np.abs(wt - limit.weight[x]))

    # per condition and compact, the first and the last violating stage
    # (from 0); horizon and -1 when none
    first = np.full((3, len(karrs)), horizon)
    last = np.full((3, len(karrs)), -1)
    for k0, k1, enter in _nested_runs(karrs, n):
        width, top = k1 - k0, karrs[k1 - 1]  # the run's last compact holds all of it
        held = enter[x] < k1  # the read points in the run
        e, y = enter[x[held]] - k0, bw[held]
        ys = np.sort(y)
        ys = ys[np.diff(ys, prepend=-1) != 0]
        far = metric._far_counts(ys, limit.backward[top], enter[top] - k0, width, eps) if ys.size else ys
        stops = (np.where(gaps[0][held] > eps, width, e), np.where(gaps[1][held] > eps, width, e),
                 far[np.searchsorted(ys, y)])
        for c, stop in enumerate(stops):
            hit = _covered(s[held], e, stop, horizon, width)
            seen = hit.any(axis=0)
            first[c, k0:k1] = np.where(seen, hit.argmax(axis=0), horizon)
            last[c, k0:k1] = np.where(seen, horizon - 1 - hit[::-1].argmax(axis=0), -1)

    reports = []
    bounds = np.searchsorted(s, np.arange(horizon + 1))  # stage t's read points: bounds[t]:bounds[t + 1]
    for c, name in enumerate(("phi_uniform", "weight_uniform", "inverse_images")):
        th = {K.label: _tail_threshold([] if t < 0 else [t + 1], horizon)
              for K, t in zip(K_list, last[c].tolist())}
        passed = all(v is not None for v in th.values())
        witness = None
        if not passed:
            # the least witness is at the earliest stage, then at the least
            # label among its compacts
            t = int(first[c].min())
            ks = np.flatnonzero(first[c] == t).tolist()
            label = min(K_list[k].label for k in ks)
            at = slice(bounds[t], bounds[t + 1])
            points = []
            for k in (k for k in ks if K_list[k].label == label):
                held = _holds(karrs[k], x[at])
                gap = (gaps[c][at][held] if c < 2
                       else metric.set_distances(bw[at][held], [limit.backward[karrs[k]]])[:, 0])
                points.append(space.points[int(x[at][held][gap.argmax()])])
            witness = (t + 1, label, min(points))
        reports.append(ConditionReport(name=name, passed=passed, thresholds=th, witness=witness))

    inv_maps = stages.inverse()
    moreover = True
    moreover_detail = "inverse family locally equicontinuous on all supplied compacts"
    for K in K_list:
        eq = check_local_equicontinuity(inv_maps, K, (eps,), space)
        if eq.witnesses:
            moreover = False
            g_i, p, q = eq.witnesses[0][1]
            moreover_detail = (
                f"inverse family not equicontinuous on {K.label or 'K'}: "
                f"member {g_i} maps {p},{q} apart"
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


def _images(maps, K: CompactSet, space: SampledSpace) -> np.ndarray:
    """The (members, |K|) images of K's points under a family's point maps:
    one gather from index arrays, or one scatter of the forward maps of
    operators held as patches (``_PatchSequence.images``)."""
    if isinstance(maps, _PatchSequence):
        _acts_on(maps.space, space, "the family", "the given")
        return maps.images(K.members)
    rows = [np.asarray(f) for f in maps]
    bad = next((m for m, f in enumerate(rows) if f.shape != (space.n,)), None)
    if bad is not None:
        raise ValueError(f"map {bad} has shape {rows[bad].shape}, not the ({space.n},) "
                         f"of space {space.name!r}")
    images = np.stack([f[K.members] for f in rows]).astype(np.intp, copy=False)
    out = np.flatnonzero(((images < 0) | (images >= space.n)).any(axis=1))
    if out.size:
        raise ValueError(f"map {out[0]} sends a point of {K.label!r} outside space {space.name!r} "
                         f"({space.n} points)")
    return images


# image distances of one block of rows of _least_separated, unless one row
# holds more: 512 KB of float64
_PAIR_BLOCK = 1 << 16


def _least_separated(images: np.ndarray, thresholds: Sequence[float], karr: np.ndarray,
                     space: SampledSpace) -> list[tuple[float, tuple | None]]:
    """For each threshold thr, the least d(s, t) over the distinct points s,
    t of ``karr`` that some member (a row of ``images``, their images) maps
    at least thr apart, with its witness (member, s, t): the first member
    that does at that distance, at its first such pair in row-major order;
    (inf, None) when no member separates any pair.

    A first sweep reads each point's distance to its nearest other point.
    The second reads the rows of K in blocks, those with the nearest point
    first, each block's image distances once for all the thresholds, and
    stops at the first row whose nearest point is farther than every
    threshold's least separated pair so far.  So a family that separates
    close pairs, as a non-equicontinuous one does, stops after a few
    blocks, and one that separates no pair reads every pair once, as a
    per-member sweep does, with one more sweep of the distances in K.  As
    the rows are read out of order, the witness is the least (member, s,
    t) at the least distance."""
    metric, k = space.metric, karr.size
    step = max(1, _PAIR_BLOCK // (len(images) * k))

    def block(rows: np.ndarray) -> np.ndarray:
        d = metric.cross(karr[rows], karr)
        d[np.arange(rows.size), rows] = math.inf  # a point and itself are no pair
        return d

    height = max(1, _PAIR_BLOCK // k)  # the first sweep reads no image
    nearest = np.concatenate([block(np.arange(a, min(a + height, k))).min(axis=1) for a in range(0, k, height)])
    order = np.argsort(nearest, kind="stable")
    # the least separated distance so far: at first the largest float, so
    # the diagonal's inf is never read
    best = np.full(len(thresholds), np.finfo(float).max)
    found: list[tuple | None] = [None] * len(thresholds)  # (member, s, t), positions in karr
    for a in range(0, k, step):
        rows = order[a:a + step]
        if nearest[rows[0]] > best.max():
            break
        d = block(rows).ravel()
        far = metric.pair(images[:, rows, None], images[:, None, :]).reshape(len(images), -1)
        reach = far.max(axis=0)  # a member separates a pair at thr exactly when reach >= thr
        for i, thr in enumerate(thresholds):
            hit = np.flatnonzero((reach >= thr) & (d <= best[i]))
            if not hit.size:
                continue
            low = d[hit].min()
            if low < best[i]:
                best[i], found[i] = low, None
            hit = hit[d[hit] == low]
            member = (far[:, hit] >= thr).argmax(axis=0)  # each pair's first member
            least = min(zip(member.tolist(), rows[hit // k].tolist(), (hit % k).tolist()))
            if found[i] is None or least < found[i]:
                found[i] = least
    return [(math.inf, None) if f is None
            else (float(b), (f[0], space.points[karr[f[1]]], space.points[karr[f[2]]]))
            for b, f in zip(best, found)]


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
    (``[g.forward for g in family]`` for operators), or operators held as
    patches (``remark25_sequence``), whose forward maps are read; a map of
    another size, an image outside the space and a member of K outside it
    are refused by name.  The maps are read on ``K.members`` only, in one
    gather (``_images``).  The delta of an eps is the least d(s, t) over
    the distinct s, t in K that some member maps at least eps apart
    (``_least_separated``), and its witness the first member that does at
    that distance, at its first such pair in row-major order.
    """
    if len(maps) == 0:
        raise ValueError("nonempty family required")
    for eps in moduli_grid:
        _positive(eps, "moduli grid eps")
    karr = K.members
    if karr[0] < 0 or karr[-1] >= space.n:
        raise ValueError(f"compact {K.label!r} has a member outside space {space.name!r} ({space.n} points)")
    images = _images(maps, K, space)
    grid = tuple(sorted(set(float(e) for e in moduli_grid)))
    min_grid_delta = min(grid) if grid else 0.0

    table = []
    witnesses = []
    slack = 1e-12  # grid coordinates carry float dust; do not count it
    for eps, (best_delta, witness) in zip(grid, _least_separated(images, [e + slack for e in grid], karr, space)):
        table.append((eps, best_delta))
        if best_delta < min_grid_delta - slack and witness is not None:
            witnesses.append((eps, witness))
    return EquicontinuityReport(table=table, witnesses=witnesses)
