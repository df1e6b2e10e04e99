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
from dataclasses import InitVar, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .space import CompactSet, SampledSpace, _Dense, _finite, _integer, _positive, same_space

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
    the same sample point, within ``resolution + space._resolution_tol``,
    except at declared truncation-edge defects.
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


def _fingerprints(forward: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """One 64-bit fingerprint per row of ``(B, n)`` point maps and weights:
    the dot product of the row's ``_key_rows`` integers with a fixed random
    vector, wrapping modulo 2^64 (Karp and Rabin, "Efficient randomized
    pattern-matching algorithms", 1987), taken over the map and the rounded
    weight apart, so no key row is built.  Equal keys have equal
    fingerprints; two distinct keys rarely do, and ``_next_level`` confirms
    every equal pair on the keys themselves."""
    n = forward.shape[1]
    vec = _fingerprint_vector(2 * n)
    return forward.view(np.uint64) @ vec[:n] + np.round(weight, 12).view(np.uint64) @ vec[n:]


def _roundtrip_defects(space: SampledSpace, forward: np.ndarray, backward: np.ndarray) -> frozenset[int]:
    """The points that a round trip through the ``(n,)`` index maps, in
    either order, displaces by more than ``resolution + _resolution_tol``,
    off the same sample point.

    A point that both round trips return to itself is displaced by d(i, i),
    which is 0 in every closed form, so distances are read only where a
    round trip moves a point, and on a matrix-form space also where the
    diagonal is not 0."""
    idx = np.arange(space.n)
    there, back = backward[forward], forward[backward]
    moved = (there != idx) | (back != idx)
    if isinstance(space.metric, _Dense):
        moved |= space.metric.pair(idx, idx) != 0
    at = np.flatnonzero(moved)
    if not len(at):  # every round trip is exact: no distance to read
        return frozenset()
    gap = np.maximum(space.metric.pair(there[at], at), space.metric.pair(back[at], at))
    return frozenset(at[gap > space.resolution + space._resolution_tol].tolist())


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
    # sample point, so the round trip through the backward map first sends
    # it to (n, n_max - 1), or to (0, n_max) when n = n_max, at distance 1:
    # the one round-trip defect, the truncation edge, declared
    defects = frozenset({int(row[-1])})
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
                   [g.form for g in ops], _fingerprints(forward, weight))

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
    step = max(1, _WORD_BLOCK // n)
    both = np.flatnonzero(np.logical_and.outer(np.array([bool(f) for f in frontier.forms], dtype=bool),
                                               np.array([bool(f) for f in gens.forms], dtype=bool)))
    forms, snaps = {}, {}
    for j in both.tolist():
        forms[j] = _compose_forms(frontier.forms[j // K], gens.forms[j % K])
        c = _snapped(space, forms[j])
        if c is not None:
            snaps[j] = c
    snapped = np.fromiter(snaps, dtype=np.intp, count=len(snaps))

    def composed(idx: np.ndarray, out: Sequence[np.ndarray] | None = None) -> Sequence[np.ndarray]:
        # the candidates' point maps and weights, and inverse maps when out
        # holds a third array, written to out; the re-snapped ones as built
        h, g = np.divmod(idx, K)
        if out is None:
            out = np.empty((len(idx), n), dtype=np.intp), np.empty((len(idx), n))
        # flat indices into the generator rows (entry j of row g is at
        # g * n + j); every index is in range, and mode="wrap" gathers
        # straight into out where the default mode copies through a temporary
        at = frontier.forward[h] + (g * n)[:, None]
        np.take(gens.forward, at, out=out[0], mode="wrap")
        np.multiply(frontier.weight[h], np.take(gens.weight, at, out=out[1], mode="wrap"), out=out[1])
        if len(out) > 2:
            np.take(frontier.backward, gens.backward[g] + (h * n)[:, None], out=out[2], mode="wrap")
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
        fp[a:a + step] = _fingerprints(*composed(np.arange(a, min(a + step, total))))
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
        f, w = composed(dup[a:a + step])
        r = row[a:a + step]
        same[a:a + step] = ((f == forward[r]).all(axis=1)
                            & (np.round(w, 12).view(np.intp) == np.round(weight[r], 12).view(np.intp)).all(axis=1))
    if not same.all():
        # a fingerprint collision: the entries of every fingerprint that
        # holds unequal keys are deduplicated on their keys, first occurrences
        clash = np.isin(fps, fp[dup[~same]])
        old, cand = np.flatnonzero(clash[:S]), np.flatnonzero(clash[S:])
        keys = np.concatenate([_key_rows(table.forward[old], table.weight[old]), _key_rows(*composed(cand))])
        firsts = np.unique(keys, axis=0, return_index=True)[1]
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
            gens = _WordRows.of(self.generators)
            table, counts, start = _WordRows.of([identity(space)]), [1], 0
            for _ in range(self.word_cap):
                # the frontier is the last level's rows
                frontier, start = table.rows(start), len(table.labels)
                table = _next_level(space, frontier, gens, table)
                counts.append(len(table.labels))
            self._table, self._counts = table, counts
        return cap

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


# entries of one (stages, members) block of check_sot_convergence's fields:
# 64 KB of float64, under glibc's default 128 KB mmap threshold, so a block's
# temporaries reuse heap pages where larger ones would map and fault in fresh
# pages (3,055 minor faults per check on the shipped remark25 gallery at 2 MB
# blocks, 383 at 64 KB)
_STAGE_BLOCK = 1 << 13


def _nested_runs(karrs: Sequence[np.ndarray], n: int) -> list[tuple[int, int]]:
    """(first, end) of each maximal run of compacts, of an n-point space, in
    which every compact contains the one before; a compact that does not
    starts a new run."""
    starts, held = [0], np.zeros(n, dtype=bool)
    for k in range(1, len(karrs)):
        held[karrs[k]] = True
        if not held[karrs[k - 1]].all():
            starts.append(k)
        held[karrs[k]] = False
    return list(zip(starts, starts[1:] + [len(karrs)]))


def _covered(start: np.ndarray, stop: np.ndarray, width: int) -> np.ndarray:
    """The (B, width) mask of the compacts 0..width-1 of a run that row b
    covers with some interval [start[j], stop[b, j]): a difference array per
    row, +1 at each nonempty interval's start and -1 at its stop, summed
    along the row."""
    flat = np.flatnonzero(start < stop)  # a 2-D nonzero scans many times slower
    rows, cols = np.divmod(flat, start.size)
    at, size = rows * (width + 1), len(stop) * (width + 1)
    diff = (np.bincount(at + start[cols], minlength=size)
            - np.bincount(at + stop.ravel()[flat], minlength=size))
    return np.cumsum(diff.reshape(len(stop), width + 1), axis=1)[:, :width] > 0


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

    The distance to the limit's preimage S_k = ``limit.backward[K_k]`` of
    each compact is a column of ``metric.set_distances``.  The compacts
    split into maximal nested runs (``_nested_runs``), each checked in
    blocks of stages over the points of its last compact, with no gather
    per compact.  Within a run K_k grows, so S_k grows with it, and the
    column d(., S_k), a min over a superset of the same floats, does not
    increase with k.  With e(x) the first compact of the run that holds x
    and F(y) the first with d(y, S_k) <= eps, stage s violates on compact k

    - ``inverse_images`` for each point x whose preimage b_s(x) is too far,
      exactly the compacts in [e(x), F(b_s(x)));
    - ``phi_uniform`` and ``weight_uniform`` for each point x whose gap
      exceeds eps, every compact from e(x) on.

    One difference array per stage (``_covered``) turns these intervals
    into the compacts each stage violates.  The thresholds read only each
    compact's last violating stage; the witness is the first largest gap,
    in ``members`` order, at the earliest (stage, compact), computed there.
    """
    if not seq:
        raise ValueError("empty operator sequence")
    _positive(eps, "eps")
    space, metric = limit.space, limit.space.metric
    weight_bound = max(float(g.weight.max()) for g in seq)
    if not math.isfinite(weight_bound):
        raise ValueError("uniform boundedness violated")
    horizon = len(seq)

    karrs = [K.members for K in K_list]
    table = metric.set_distances([limit.backward[karr] for karr in karrs])
    # per condition and compact, the first and the last violating stage
    # (from 0); horizon and -1 when none
    first = np.full((3, len(karrs)), horizon)
    last = np.full((3, len(karrs)), -1)
    for k0, k1 in _nested_runs(karrs, space.n):
        width, top = k1 - k0, karrs[k1 - 1]  # the run's last compact holds all of it
        enter = np.empty(space.n, dtype=np.intp)
        for k in range(k1 - 1, k0 - 1, -1):
            enter[karrs[k]] = k - k0
        enter = enter[top]  # e(x), from the run's first compact
        reach = np.count_nonzero(table[:, k0:k1] > eps, axis=1)  # F(y), as the columns fall
        step, fwd_lim, wt_lim = max(1, _STAGE_BLOCK // top.size), limit.forward[top], limit.weight[top]
        for a in range(0, horizon, step):
            block = seq[a:a + step]
            fwd = np.stack([g.forward[top] for g in block])
            wt = np.stack([g.weight[top] for g in block])
            bwd = np.stack([g.backward[top] for g in block])
            stops = (np.where(metric.pair(fwd, fwd_lim) > eps, width, enter),
                     np.where(np.abs(wt - wt_lim) > eps, width, enter),
                     reach[bwd])
            stages = np.arange(a, a + len(block))[:, None]
            for c, stop in enumerate(stops):
                hit = _covered(enter, stop, width)
                np.minimum(first[c, k0:k1], np.where(hit, stages, horizon).min(axis=0), out=first[c, k0:k1])
                np.maximum(last[c, k0:k1], np.where(hit, stages, -1).max(axis=0), out=last[c, k0:k1])

    reports = []
    for c, name in enumerate(("phi_uniform", "weight_uniform", "inverse_images")):
        th = {K.label: _tail_threshold([] if s < 0 else [s + 1], horizon)
              for K, s in zip(K_list, last[c].tolist())}
        passed = all(v is not None for v in th.values())
        witness = None
        if not passed:
            # the least witness is at the earliest stage, among its compacts
            s = int(first[c].min())
            g, candidates = seq[s], []
            for k in np.flatnonzero(first[c] == s).tolist():
                at = karrs[k]
                gap = (metric.pair(g.forward[at], limit.forward[at]) if c == 0
                       else np.abs(g.weight[at] - limit.weight[at]) if c == 1
                       else table[g.backward[at], k])
                candidates.append((s + 1, K_list[k].label, space.points[int(at[gap.argmax()])]))
            witness = min(candidates)
        reports.append(ConditionReport(name=name, passed=passed, thresholds=th, witness=witness))

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
    for eps in moduli_grid:
        _positive(eps, "moduli grid eps")
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
