"""Consecutive-window enumeration and the orbit-class weight maps.

Windows (i, i+1, ..., i+n) of positive integers are enumerated in a
triangular layout: row r holds (r, r+1), (r-1, ..., r+1), ..., (1, ..., r+1)
left to right.  The enumeration index m of a window fixes its comparability
code c = 3m, and each orbit-equivalence class of tuples over a window gets
an exponent k in [c-1, c]; the class weight is b = L^k with L chosen so
that the geometric tail sum stays below the norm budget C - lambda_1.

Exponents are kept as exact rationals; all weight comparisons happen on
exponents, and only the reciprocals 1/b enter floating-point sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "Window",
    "enumerate_window",
    "enumeration_index",
    "window_of",
    "c_value",
    "BCAssignment",
    "choose_parameters",
    "TupleIndex",
    "ClassRegistry",
    "ClassInfo",
    "verify_bmap",
    "exceptional_classes",
    "enumeration_tail",
]

# int64 entries in one (W, block, k) word-image array: 256 KB.  Freeing
# larger temporaries raises glibc's dynamic mmap threshold, so later blocks
# come from the heap and stay resident
_KEY_BLOCK = 1 << 15


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


def _window_index(start: int, n: int) -> int:
    """Enumeration index of the window (start, ..., start + n), checked as
    a :class:`Window` is, without building one."""
    _check_window(start, n + 1)
    r = start + n - 1
    return r * (r - 1) // 2 + n


def enumeration_index(w: Window) -> int:
    """Inverse of :func:`enumerate_window` (exact)."""
    return _window_index(w.start, w.n)


def window_of(start: int, n: int) -> Window:
    return Window(start=start, length=n + 1)


def c_value(w: Window) -> int:
    """Comparability code 3m; equal exactly on equal windows."""
    return 3 * enumeration_index(w)


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

    @property
    def window(self) -> Window:
        return window_of(self.start, self.n)

    def segment(self, a: int, b: int) -> "TupleIndex":
        """The restriction to slots a..b (start index shifts accordingly)."""
        return TupleIndex(self.start + a, self.gammas[a : b + 1], self.points[a : b + 1])


@dataclass
class ClassInfo:
    m: int
    ordinal: int
    exponent: Fraction
    representative: tuple[int, ...]
    attained: bool = False  # True when the finite-family rule assigned c_m


class ClassRegistry:
    """Lazily discovered orbit-equivalence classes of window tuples.

    Classes are keyed by the canonical orbit representative: the
    lexicographically smallest word image of the tuple under the group's
    enumerated words.  The key is exactly class-constant when the word list
    is closed under composition (finite groups enumerated to their closure);
    for capped word lists it is the G'-at-cap approximation, which is the
    declared semantics of every downstream claim.  Ordinals are assigned in
    first-query order, which is deterministic given the construction order,
    so the exponent k_m^i = c_m - 1/i is a stable function across runs.  A
    family declared complete assigns exactly c_m to its last class.
    """

    def __init__(self, word_maps: np.ndarray, declared_totals: dict[int, int] | None = None):
        # (W, n): row w maps every sample index to its image under word w;
        # a group's word table is read as given
        self.word_maps = np.asarray(word_maps, dtype=np.intp)
        self.declared_totals = dict(declared_totals or {})
        self._by_key: dict[tuple[int, tuple[int, ...]], ClassInfo] = {}
        self._by_window: dict[int, list[ClassInfo]] = {}

    def canonical_keys(self, rows: np.ndarray) -> np.ndarray:
        """Canonical keys of a (T, k) block of point rows, as a (T, k) array.

        Row t's key is its image under the first word whose image is the
        lexicographic minimum, found by one lexsort over the word axis.
        Rows are sorted in blocks whose (W, block, k) images stay near 256 KB.
        """
        rows = np.asarray(rows, dtype=np.intp)
        T, k = rows.shape
        step = max(1, _KEY_BLOCK // (len(self.word_maps) * k))
        best = np.empty(T, dtype=np.intp)
        for a in range(0, T, step):
            images = self.word_maps[:, rows[a:a + step]]  # (W, t, k)
            # lexsort's last key is the primary one, so column 0 goes last
            best[a:a + step] = np.lexsort(images.transpose(2, 1, 0)[::-1], axis=-1)[:, 0]
        return self.word_maps[best[:, None], rows]

    def canonical_key(self, points: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.canonical_keys(np.asarray(points, dtype=np.intp)[None])[0].tolist())

    def _key(self, start: int, points: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        return _window_index(start, len(points) - 1), self.canonical_key(points)

    def classify(self, start: int, points: Sequence[int]) -> ClassInfo:
        """Class of a window tuple, auto-registering new classes."""
        key = self._key(start, points)
        info = self._by_key.get(key)
        if info is not None:
            return info
        m = key[0]
        ordinal = len(self._by_window.get(m, ())) + 1
        cm = 3 * m
        total = self.declared_totals.get(m)
        if total is not None and ordinal == total:
            exponent = Fraction(cm)
            attained = True
        else:
            exponent = Fraction(cm) - Fraction(1, ordinal)
            attained = False
        info = ClassInfo(m=m, ordinal=ordinal, exponent=exponent,
                         representative=key[1], attained=attained)
        self._by_key[key] = info
        self._by_window.setdefault(m, []).append(info)
        return info

    def lookup_rows(self, starts: Sequence[int], rows: np.ndarray) -> list[ClassInfo | None]:
        """Registered class of each window tuple of a (T, k) block, row t
        starting at base index starts[t], or None; never registers."""
        rows = np.asarray(rows, dtype=np.intp)
        n = rows.shape[1] - 1
        m_of = {s: _window_index(s, n) for s in set(starts)}
        keys = self.canonical_keys(rows).tolist()
        return [self._by_key.get((m_of[s], tuple(key))) for s, key in zip(starts, keys)]

    def classes_for_window(self, w: Window) -> list[ClassInfo]:
        return list(self._by_window.get(enumeration_index(w), ()))

    def all_classes(self) -> list[tuple[int, ClassInfo]]:
        out = []
        for m in sorted(self._by_window):
            for info in self._by_window[m]:
                out.append((m, info))
        return out

    def to_records(self, points: Sequence[str]) -> list[dict]:
        """One record per class, its representative as the given point ids."""
        recs = []
        for m, info in self.all_classes():
            recs.append({
                "m": m,
                "ordinal": info.ordinal,
                "representative": [points[i] for i in info.representative],
                "exponent": str(info.exponent),
                "attained": info.attained,
            })
        return recs


def enumeration_tail(bc: BCAssignment, beyond_m: int) -> float:
    """Certified bound on sum over enumeration indices m' > beyond_m of
    L^-(3m'-1) (each later window weight is at least L^(3m'-1)).

    A relative pad absorbs the float rounding of the geometric closed form,
    keeping the bound on the safe side.
    """
    first = bc.inv_L_pow(3 * (beyond_m + 1) - 1)
    return first / (1.0 - bc.L ** (-3)) * (1.0 + 1e-9)


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

    The registry is only read: a prefix class that properties 6 and 7 need
    but that is not registered counts as a violation.
    """
    report: dict = {"depth": depth, "violations": [], "checked": 0}
    if not bc.tail_sum() < bc.budget():
        report["violations"].append(("property3", "geometric tail exceeds budget"))

    classes = registry.all_classes()
    windows = {m: enumerate_window(m) for m in {m for m, _ in classes}}
    # windows beyond depth participate only in property 7 sums
    in_depth = {m for m, w in windows.items() if w.end <= depth or w.n == 1}
    by_m: dict[int, list[ClassInfo]] = {}
    for m, info in classes:
        if m in in_depth:
            by_m.setdefault(m, []).append(info)

    # an exponent's integer ratio p/q is in lowest terms with q > 0, so exact
    # comparisons are integer cross products and equal exponents have equal
    # ratios
    for m, infos in sorted(by_m.items()):
        w = windows[m]
        cm = 3 * m
        if c_value(w) != cm:
            report["violations"].append(("property2", f"window {w} code mismatch"))
        exps = [info.exponent.as_integer_ratio() for info in sorted(infos, key=lambda i: i.ordinal)]
        for (pa, qa), (pb, qb) in zip(exps, exps[1:]):
            if not pa * qb < pb * qa:
                report["violations"].append(("property4", f"window m={m}: exponents not strictly increasing"))
        for info in infos:
            report["checked"] += 1
            p, q = info.exponent.as_integer_ratio()
            if not ((cm - 1) * q <= p <= cm * q):
                report["violations"].append(("property4", f"m={m} ordinal {info.ordinal}: exponent outside [c-1, c]"))
            if (not info.attained) and p >= cm * q:
                report["violations"].append(("property4", f"m={m} ordinal {info.ordinal}: supremum attained without declaration"))
            if p < (3 * w.end - 4) * q:
                report["violations"].append(("property5", f"m={m} ordinal {info.ordinal}: exponent below 3(i+n)-4"))
        seen_exponents = {}
        for info in infos:
            k = info.exponent.as_integer_ratio()
            prev = seen_exponents.get(k)
            if prev is not None:
                report["violations"].append(("property1", f"m={m}: classes {prev} and {info.ordinal} share a weight"))
            seen_exponents[k] = info.ordinal

    # the prefix classes of every representative, rep[:k+1] for k = 1..n,
    # keyed in one block per representative length and prefix length
    rep_index = {(m, info.representative): info for m, info in classes}
    by_len: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for m, rep in rep_index:
        by_len.setdefault(len(rep), []).append((m, rep))
    subs: dict[tuple[int, tuple[int, ...]], list] = {key: [] for key in rep_index}
    for size, keys in by_len.items():
        reps = np.array([rep for _, rep in keys], dtype=np.intp).reshape(len(keys), size)
        starts = [windows[m].start for m, _ in keys]
        for k in range(1, size):
            for key, sub in zip(keys, registry.lookup_rows(starts, reps[:, : k + 1])):
                subs[key].append(sub)

    # property 6: one-slot extensions grow by strictly more than one L power
    for (m, rep), info in rep_index.items():
        if windows[m].n < 2 or m not in in_depth:
            continue
        pinfo = subs[(m, rep)][-2]
        if pinfo is None:
            report["violations"].append(("property6", f"m={m} ordinal {info.ordinal}: prefix class not registered"))
            continue
        (p, q), (pp, pq) = info.exponent.as_integer_ratio(), pinfo.exponent.as_integer_ratio()
        if not p * pq > (pp + pq) * q:  # k > k' + 1
            report["violations"].append(
                ("property6", f"m={m} ordinal {info.ordinal}: extension does not exceed L * base weight")
            )

    # property 7: budget along every registered tuple's prefix chain; the
    # deepest prefix window is the tuple's own, so the tail starts beyond m
    recip = {id(info): bc.inv_L_pow(info.exponent) for _, info in classes}
    heads = {m: bc.lam(w.start) for m, w in windows.items()}
    tails = {m: enumeration_tail(bc, m) for m in windows}
    report["checked"] += len(rep_index)
    for (m, rep), info in sorted(rep_index.items()):
        chain = subs[(m, rep)]
        if any(sub is None for sub in chain):
            report["violations"].append(("property7", f"m={m} ordinal {info.ordinal}: prefix class not registered"))
            continue
        total = heads[m]
        for sub in chain:
            total += recip[id(sub)]
        total += tails[m]
        if not total < bc.C:
            report["violations"].append(("property7", f"m={m} ordinal {info.ordinal}: budget exceeded ({total})"))

    report["ok"] = not report["violations"]
    return report


def exceptional_classes(t: TupleIndex, p: int, q: int, registry: ClassRegistry) -> list[ClassInfo]:
    """Registered classes over the window (p, ..., p+q) whose weight
    undercuts the weight of t's matching sub-tuple: b(class) < b(sub-tuple)."""
    i, n = t.start, t.n
    if not (i <= p and p + q <= i + n and q >= 1):
        raise ValueError("exceptional window out of range")
    if p == i + n:
        raise ValueError("exceptional window must start before the tuple end")
    sub = t.segment(p - i, p - i + q)
    sub_info = registry.classify(sub.start, sub.points)
    return [info for info in registry.classes_for_window(window_of(p, q)) if info.exponent < sub_info.exponent]
