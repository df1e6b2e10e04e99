"""Consecutive-window enumeration and the orbit-class weight maps.

Windows (i, i+1, ..., i+n) of positive integers are enumerated in a
triangular layout: row r holds (r, r+1), (r-1, ..., r+1), ..., (1, ..., r+1)
left to right.  The enumeration index m of a window fixes its comparability
code c = 3m, and each orbit-equivalence class of tuples over a window gets
an exponent k in [c-1, c]; the class weight is b = L^k with L chosen so
that the geometric tail sum stays below the norm budget C - lambda_1.

Exponents are kept as exact rationals, integer pairs p/q in lowest terms;
all weight comparisons happen on exponents, and only the reciprocals 1/b
enter floating-point sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Window",
    "enumerate_window",
    "enumeration_index",
    "BCAssignment",
    "choose_parameters",
    "TupleIndex",
    "ClassRegistry",
    "ClassInfo",
    "verify_bmap",
    "exceptional_classes",
    "enumeration_tail",
]

@dataclass(frozen=True)
class Window:
    """The consecutive index block (start, start+1, ..., start+length-1)."""

    start: int
    length: int

    def __post_init__(self):
        _check_window(self.start, self.length)

    @property
    def n(self) -> int:
        return self.length - 1

    @property
    def end(self) -> int:
        return self.start + self.n

    def indices(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.end + 1))


def enumerate_window(m: int) -> Window:
    """The m-th window of the triangular layout (1-based)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    # row r holds r windows; rows 1..r-1 hold r(r-1)/2 of them, so r is the
    # smallest row with r(r+1)/2 >= m
    r = (math.isqrt(8 * m + 1) - 1) // 2
    if r * (r + 1) // 2 < m:
        r += 1
    j = m - r * (r - 1) // 2  # position within row, 1-based
    start = r + 1 - j
    length = j + 1
    return Window(start=start, length=length)


def _check_window(start: int, length: int) -> None:
    if start < 1:
        raise ValueError("start must be >= 1")
    if length < 2:
        raise ValueError("length must be >= 2")


def enumeration_index(start: int, n: int) -> int:
    """Enumeration index of the window (start, ..., start + n), checked as
    a :class:`Window` is, without building one; :func:`enumerate_window`
    is its exact inverse."""
    _check_window(start, n + 1)
    r = start + n - 1
    return r * (r - 1) // 2 + n


@dataclass(frozen=True)
class BCAssignment:
    """Norm budget parameters: C, the lambda sequence, and the base L.

    lambda_i = 1 + (C-1) * 2^-i decreases to 1 with lambda_1 < C, and L is
    the smallest integer above 9 whose geometric tail 1/(L-1) stays below
    C - lambda_1.  The budget comparison is exact: C is read as the decimal
    it was written as.
    """

    C: float
    L: int
    C_exact: Fraction

    def lam(self, i: int) -> float:
        if i < 1:
            raise ValueError("lambda index must be >= 1")
        return 1.0 + (self.C - 1.0) * 2.0 ** (-i)

    def budget(self) -> Fraction:
        """C - lambda_1, exactly."""
        return (self.C_exact - 1) / 2

    def tail_sum(self) -> Fraction:
        return Fraction(1, self.L - 1)

    def inv_L_pow(self, exponent: Fraction | float) -> float:
        """L^-exponent as a float; underflows to 0 harmlessly."""
        x = float(exponent)
        if x * math.log(self.L) > 745.0:
            return 0.0
        return math.pow(self.L, -x)

    def class_recip(self, p: int, q: int) -> float:
        """The reciprocal weight L^-(p/q) of the class whose exponent is the
        integer pair (p, q); p / q rounds once, as float(Fraction) does."""
        return self.inv_L_pow(p / q)


def choose_parameters(C: float) -> BCAssignment:
    """Smallest integer L > 9 with sum_{n>=1} L^-n < C - lambda_1."""
    c_exact = Fraction(C).limit_denominator(10**9) if math.isfinite(C) else None
    if c_exact is None or not (1 < c_exact <= Fraction(11, 10)):
        raise ValueError(f"C must lie in (1, 1.1], got {C}")
    budget = (c_exact - 1) / 2  # C - lambda_1
    L = 10
    while Fraction(1, L - 1) >= budget:
        L += 1
    return BCAssignment(C=C, L=L, C_exact=c_exact)


@dataclass(frozen=True)
class TupleIndex:
    """A tuple over a window: per-slot orbit labels and resolved points.

    ``gammas[j]`` indexes into the enumerated orbit of the (start+j)-th base
    point; ``points`` are the resolved sample indices.
    """

    start: int
    gammas: tuple[int, ...]
    points: tuple[int, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.points):
            raise ValueError("gammas and points length mismatch")
        if len(self.points) < 1:
            raise ValueError("empty tuple")

    @property
    def n(self) -> int:
        return len(self.points) - 1

    def segment(self, a: int, b: int) -> "TupleIndex":
        """The restriction to slots a..b (start index shifts accordingly)."""
        return TupleIndex(self.start + a, self.gammas[a : b + 1], self.points[a : b + 1])


class ClassInfo:
    """One registered class: a read-only view of its row in the registry's
    columns.  ``exponent`` is built from the row's integer pair on each read.
    """

    __slots__ = ("_registry", "_row")

    def __init__(self, registry: "ClassRegistry", row: int):
        self._registry = registry
        self._row = row

    @property
    def m(self) -> int:
        return self._registry._m[self._row]

    @property
    def representative(self) -> tuple[int, ...]:
        return self._registry._rep[self._row]

    @property
    def ordinal(self) -> int:
        return self._registry._ordinal[self._row]

    @property
    def ratio(self) -> tuple[int, int]:
        """The exponent as integers (p, q) in lowest terms with q > 0."""
        return self._registry._p[self._row], self._registry._q[self._row]

    @property
    def exponent(self) -> Fraction:
        return Fraction(*self.ratio)

    def _fields(self) -> tuple:
        return self.m, self.ordinal, self.exponent, self.representative

    def __eq__(self, other):
        if not isinstance(other, ClassInfo):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        m, ordinal, exponent, rep = self._fields()
        return f"ClassInfo(m={m}, ordinal={ordinal}, exponent={exponent!r}, representative={rep})"


class ClassRegistry:
    """Lazily discovered orbit-equivalence classes of window tuples.

    Classes are keyed by the canonical orbit representative: the
    lexicographically smallest word image of the tuple under the group's
    enumerated words.  The key is exactly class-constant when the word list
    is closed under composition (finite groups enumerated to their closure);
    for capped word lists it is the G'-at-cap approximation, which is the
    declared semantics of every downstream claim.  Ordinals are assigned in
    first-query order, which is deterministic given the construction order,
    so the exponent k_m^i = c_m - 1/i is a stable function across runs; it
    stays below c_m, which no class attains.

    The classes are stored as columns, one row per class in registration
    order: window index m, ordinal, the exponent as the integer pair
    (3m*ordinal - 1, ordinal) and the representative.  A prefix of a
    lexicographically smallest word image is the smallest image of the
    prefix, for any word list, so the class of a representative's prefix
    rep[:k+1] is read by that key alone.
    The same identity is the only way a key is derived from another: a
    tuple's prefixes read their classes from its key
    (:meth:`prefix_classes`), and a one-point extension's key is its
    parent's plus one entry (:meth:`extend_keys`).
    """

    def __init__(self, word_maps: np.ndarray):
        # (W, n): row w maps every sample index to its image under word w;
        # a group's word table is read as given
        self.word_maps = np.asarray(word_maps, dtype=np.intp)
        # the W word images of every sample point, for one-row keys
        self._images = self.word_maps.T.tolist()
        self._m: list[int] = []
        self._ordinal: list[int] = []
        self._p: list[int] = []
        self._q: list[int] = []
        self._rep: list[tuple[int, ...]] = []
        # the view classify returns for each row, one per class
        self._infos: list[ClassInfo] = []
        self._index: dict[tuple[int, tuple[int, ...]], int] = {}  # (m, key) -> row
        self._by_window: dict[int, list[int]] = {}  # m -> rows, in registration order

    def __len__(self) -> int:
        return len(self._m)

    def canonical_key(self, points: Sequence[int]) -> tuple[int, ...]:
        """The smallest of the W word images of one tuple, read from the
        per-point image table."""
        images = self._images
        return min(zip(*[images[p] for p in points]))

    def extend_keys(self, points: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One level of keys by the prefix identity.

        Row t extends a tuple whose key is its image under every word w
        with ``words[w, t]`` set by the point ``points[t]``: the extension's
        key is the parent's plus the smallest image of that point under
        those words, and the words attaining it are the extension's.  A
        head point extends the empty tuple, whose words are all of them.
        Returns the new key entry of each row and the (W, T) bool mask of
        the extensions' words, which is ``words`` updated in place.
        """
        points = np.asarray(points, dtype=np.intp)
        image = np.empty(len(points), dtype=np.intp)
        same = np.empty(len(points), dtype=bool)
        best = np.full(len(points), np.iinfo(np.intp).max, dtype=np.intp)
        # one word at a time into one buffer: no (W, T) image array
        for w, row in enumerate(self.word_maps):
            np.minimum(best, row.take(points, out=image, mode="clip"), out=best, where=words[w])
        for w, row in enumerate(self.word_maps):
            words[w] &= np.equal(row.take(points, out=image, mode="clip"), best, out=same)
        return best, words

    def prefix_classes(self, start: int, points: Sequence[int]) -> list[ClassInfo | None]:
        """The registered class of each prefix points[:k+1], k = 1..n, over
        the window (start, k), or None; read from the one key of the whole
        tuple, never registering."""
        _check_window(start, len(points))
        key = self.canonical_key(points)
        found = [self._index.get((enumeration_index(start, k), key[:k + 1])) for k in range(1, len(points))]
        return [None if row is None else self._infos[row] for row in found]

    def classify(self, start: int, points: Sequence[int]) -> ClassInfo:
        """Class of a window tuple, auto-registering new classes."""
        key = enumeration_index(start, len(points) - 1), self.canonical_key(points)
        row = self._index.get(key)
        if row is None:
            row = self._register(*key)
        return self._infos[row]

    def _register(self, m: int, rep: tuple[int, ...]) -> int:
        rows = self._by_window.setdefault(m, [])
        ordinal = len(rows) + 1
        row = len(self._m)
        self._m.append(m)
        self._ordinal.append(ordinal)
        self._p.append(3 * m * ordinal - 1)
        self._q.append(ordinal)
        self._rep.append(rep)
        self._infos.append(ClassInfo(self, row))
        self._index[m, rep] = row
        rows.append(row)
        return row

    def _rows(self) -> list[int]:
        """Every row, by window index and in registration order within one."""
        return [row for m in sorted(self._by_window) for row in self._by_window[m]]

    def all_classes(self) -> list[tuple[int, ClassInfo]]:
        return [(self._m[row], self._infos[row]) for row in self._rows()]

    def to_records(self, points: Sequence[str]) -> Iterator[dict]:
        """One record per class, its representative as the given point ids,
        built as they are read."""
        return ({
            "m": self._m[row],
            "ordinal": self._ordinal[row],
            "representative": [points[i] for i in self._rep[row]],
            # the pair is in lowest terms, so this is str(Fraction(p, q))
            "exponent": f"{self._p[row]}/{self._q[row]}" if self._q[row] != 1 else str(self._p[row]),
            # no class attains c_m; the key keeps saved reports byte-identical
            "attained": False,
        } for row in self._rows())


def enumeration_tail(bc: BCAssignment, beyond_m: int) -> float:
    """Certified bound on sum over enumeration indices m' > beyond_m of
    L^-(3m'-1) (each later window weight is at least L^(3m'-1)).

    A relative pad absorbs the float rounding of the geometric closed form,
    keeping the bound on the safe side.
    """
    first = bc.inv_L_pow(3 * (beyond_m + 1) - 1)
    return first / (1.0 - bc.L ** (-3)) * (1.0 + 1e-9)


# int64 holds every product the exact checks form while
# (max|p| + max q + 3 max m) * max q stays below this bound
_INT64_BOUND = 2**62


def verify_bmap(
    bc: BCAssignment,
    depth: int,
    registry: ClassRegistry,
) -> dict:
    """Exhaustive check of the weight-map properties on the registered
    classes at the given depth, with a certified geometric tail for the
    budget property.

    Checked exactly on exponents: class/visit injectivity per window (1),
    window coding (2), exponent range and strict growth per window (4),
    the lower estimate 3(i+n)-4 (5), and the one-step growth b' > L b (6).
    The budget property (7) is checked as lambda_i + finite prefix sums +
    tail < C for every registered tuple.

    The checks run as array passes over the registry's columns: exact
    integer comparisons of the exponent pairs, in int64 while every product
    fits and on Python integers otherwise.  The prefix classes of a
    representative rep are the classes keyed rep[:k+1]; the budget sums
    add them in the order head, prefixes from the shortest, tail.  The
    registry is only read: a prefix class that properties 6 and 7 need but
    that is not registered counts as a violation.
    """
    report: dict = {"depth": depth, "violations": [], "checked": 0}
    violations = report["violations"]
    if not bc.tail_sum() < bc.budget():
        violations.append(("property3", "geometric tail exceeds budget"))
    rows = registry._rows()
    R = len(rows)
    if R == 0:
        report["ok"] = not violations
        return report

    # positions 0..R-1 follow all_classes(): by window, then registration
    # order; position R stands for a missing class
    ms = sorted(registry._by_window)
    wins = [enumerate_window(m) for m in ms]
    sizes = [len(registry._by_window[m]) for m in ms]
    M = np.repeat(np.array(ms, dtype=np.int64), sizes)
    N = np.repeat([w.n for w in wins], sizes)
    end = np.repeat(np.array([w.end for w in wins], dtype=np.int64), sizes)
    inside = [w.end <= depth or w.n == 1 for w in wins]
    in_depth = np.repeat(inside, sizes)
    fits = (max(map(abs, registry._p)) + max(registry._q) + 3 * ms[-1]) * max(registry._q) < _INT64_BOUND
    exact = np.int64 if fits else object
    at = np.array(rows + rows[:1], dtype=np.intp)  # the missing class reads any row
    P = np.array(registry._p, dtype=exact)[at]
    Q = np.array(registry._q, dtype=exact)[at]
    ordinal = np.array(registry._ordinal, dtype=np.int64)[at]

    # properties 2, 4, 5 and 1 on the windows inside the depth, as
    # (m, section, position, check, tag, message) in report order
    found = []
    for m, w, keep in zip(ms, wins, inside):
        if keep and enumeration_index(w.start, w.n) != m:
            found.append((m, 0, 0, 0, "property2", f"window {w} code mismatch"))
    d = np.flatnonzero(in_depth)
    Pd, Qd, cm = P[d], Q[d], 3 * M[d]
    # strict growth along each window's classes by ordinal
    g = d[np.lexsort((ordinal[d], M[d]))]
    a, b = g[:-1], g[1:]
    for k in np.flatnonzero((M[a] == M[b]) & ~(P[a] * Q[b] < P[b] * Q[a])).tolist():
        m = int(M[a[k]])
        found.append((m, 1, 0, 0, "property4", f"window m={m}: exponents not strictly increasing"))
    flags = np.stack([
        ~(((cm - 1) * Qd <= Pd) & (Pd <= cm * Qd)),
        Pd >= cm * Qd,
        Pd < (3 * end[d] - 4) * Qd,
    ], axis=1)
    texts = [("property4", "exponent outside [c-1, c]"),
             ("property4", "supremum attained without declaration"),
             ("property5", "exponent below 3(i+n)-4")]
    for k, check in zip(*(i.tolist() for i in np.nonzero(flags))):
        r = int(d[k])
        m = int(M[r])
        tag, text = texts[check]
        found.append((m, 2, r, check, tag, f"m={m} ordinal {int(ordinal[r])}: {text}"))
    # equal exponents in a window: each repeat names the latest earlier one
    s = d[np.lexsort((Q[d], P[d], M[d]))]
    a, b = s[:-1], s[1:]
    for k in np.flatnonzero((M[a] == M[b]) & (P[a] == P[b]) & (Q[a] == Q[b])).tolist():
        r = int(b[k])
        m = int(M[r])
        found.append((m, 3, r, 0, "property1",
                      f"m={m}: classes {int(ordinal[a[k]])} and {int(ordinal[r])} share a weight"))
    found.sort(key=lambda v: v[:4])
    violations.extend(v[4:] for v in found)
    report["checked"] += len(d)

    # the position of each class's one-slot-shorter prefix class, read by
    # its key rep[:-1]; pairs have none
    position = np.empty(len(registry._m) + 1, dtype=np.intp)
    position[rows] = np.arange(R)
    position[-1] = R
    parent = np.full(R + 1, R, dtype=np.intp)
    index, reps = registry._index, registry._rep
    offset = 0
    for m, w, size in zip(ms, wins, sizes):
        if w.n >= 2:
            pm = enumeration_index(w.start, w.n - 1)
            block = registry._by_window[m]
            parent[offset:offset + size] = position[[index.get((pm, reps[r][:-1]), -1) for r in block]]
        offset += size

    # property 6: one-slot extensions grow by strictly more than one L power
    six = np.flatnonzero(in_depth & (N >= 2))
    pp = parent[six]
    missing = pp == R
    weak = ~(P[six] * Q[pp] > (P[pp] + Q[pp]) * Q[six])  # not k > k' + 1
    for k in np.flatnonzero(missing | weak).tolist():
        r = int(six[k])
        why = "prefix class not registered" if missing[k] else "extension does not exceed L * base weight"
        violations.append(("property6", f"m={int(M[r])} ordinal {int(ordinal[r])}: {why}"))

    # property 7: budget along every class's prefix chain, rep[:k+1] for
    # k = 1..n; the deepest prefix window is the class's own, so the tail
    # starts beyond m.  Violations are reported by (m, representative)
    recip = np.array([bc.class_recip(p, q) for p, q in zip(P.tolist(), Q.tolist())])
    head = np.repeat([bc.lam(w.start) for w in wins], sizes)
    tail = np.repeat([enumeration_tail(bc, m) for m in ms], sizes)
    late = []
    for n in sorted(set(N.tolist())):
        own = np.flatnonzero(N == n)
        chain = [own]
        for _ in range(n - 1):
            chain.append(parent[chain[-1]])
        total = head[own]
        for sub in reversed(chain):
            total = total + recip[sub]
        total = total + tail[own]
        broken = np.any(np.stack(chain) == R, axis=0)
        for k in np.flatnonzero(broken | ~(total < bc.C)).tolist():
            r = int(own[k])
            why = "prefix class not registered" if broken[k] else f"budget exceeded ({float(total[k])})"
            late.append(((int(M[r]), reps[rows[r]]), f"m={int(M[r])} ordinal {int(ordinal[r])}: {why}"))
    late.sort(key=lambda v: v[0])
    violations.extend(("property7", text) for _, text in late)
    report["checked"] += R

    report["ok"] = not violations
    return report


def exceptional_classes(t: TupleIndex, p: int, q: int, registry: ClassRegistry) -> list[ClassInfo]:
    """Registered classes over the window (p, ..., p+q) whose weight
    undercuts the weight of t's matching sub-tuple: b(class) < b(sub-tuple).

    The registry is only read: the sub-tuple's class is read by its key.
    A sub-tuple whose class is not registered would take the window's next
    ordinal, whose exponent exceeds every registered one, so then every
    class of the window counts."""
    i, n = t.start, t.n
    if not (i <= p and p + q <= i + n and q >= 1):
        raise ValueError("exceptional window out of range")
    if p == i + n:
        raise ValueError("exceptional window must start before the tuple end")
    sub = t.segment(p - i, p - i + q)
    own = registry.prefix_classes(sub.start, sub.points)[-1]
    infos = [registry._infos[row] for row in registry._by_window.get(enumeration_index(p, q), ())]
    return infos if own is None else [info for info in infos if info.exponent < own.exponent]
