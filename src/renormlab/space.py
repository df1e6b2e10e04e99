"""Finite point samples of locally compact metric spaces.

A :class:`SampledSpace` is a finite, desk-scale stand-in for a locally
compact Polish space: a tuple of point ids, a metric on them, a nested
compact exhaustion, and a declared ``resolution`` bounding how far an
unmodeled point of the ideal space can sit from the sample.  All
downstream tolerances are stated in terms of ``resolution``.

The metric is a :class:`Metric`: distances on demand.  A closed-form
metric computes them from O(n) coordinates; a matrix-form one wraps its
checked matrix.  ``space.dmat``, the full matrix, exists only once a
reader asks for it.

Compactness at sample scale is a proxy: a set counts as compact when it is
contained in an exhaustion element.  Reports carry this caveat verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CompactSet",
    "Metric",
    "SampledSpace",
    "builtin_space",
    "product",
    "same_space",
    "validate_metric",
    "BUILTIN_NAMES",
]

@dataclass(frozen=True, eq=False)
class CompactSet:
    """A labeled subset of sample indices standing in for a compact set.

    ``members`` is a sorted, duplicate-free, read-only ``np.intp`` array,
    built once from any iterable of integers (tuple, list, range, set or
    array).  A member that is not an integer (a float, a bool, a string),
    or one no index can hold, is refused with a ValueError naming it.
    Arrays do not compare as booleans, so compact sets have no ``==``."""

    members: np.ndarray
    label: str = ""

    def __post_init__(self):
        values = self.members
        if not (isinstance(values, np.ndarray) and values.dtype.kind == "i"):
            values = values.tolist() if isinstance(values, np.ndarray) else list(values)
            for v in values:
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise ValueError(f"compact set member {v!r} is not an integer")
        try:
            members = np.array(values, dtype=np.intp).ravel()  # a copy: the caller's array stays as it is
        except OverflowError:
            lim = np.iinfo(np.intp)
            big = next(v for v in values if not lim.min <= v <= lim.max)
            raise ValueError(f"compact set member {big!r} is out of range") from None
        if (members[1:] <= members[:-1]).any():  # not strictly increasing
            members = np.unique(members)
        if members.size == 0:
            raise ValueError("empty compact set")
        members.flags.writeable = False
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return self.members.size


@dataclass(frozen=True, eq=False)
class SampledSpace:
    """Finite sample of a locally compact Polish space, immutable: the
    constructor's checks on the metric hold for the life of the space.

    Attributes:
        name: short human-readable tag.
        points: point ids (strings), index position is the canonical index.
        dmat: full (n, n) distance matrix, read-only.  Given only with a
            matrix ``metric_form``; a closed-form space is built with None
            and computes the matrix from its metric on first read.
        exhaustion: increasing compact subsets whose union is the sample.
        resolution: max distance from any ideal point of the modeled space
            to the sample (a declared, conservative bound).
        isolated: per-point flag, True when the underlying (ideal) space has
            an isolated point there.
        metric_form: serializable description of the metric (closed-form tag
            with parameters, or "matrix"): what the space is.  Its kind and
            parameters are read from here and nowhere else.
        factors: a product's two factor spaces, as ``product`` sets them,
            whose tags must be the product tag's ``a`` and ``b``; () for any
            other space.

    The constructor also sets ``metric``, the :class:`Metric` that computes
    the distances.
    """

    name: str
    points: tuple[str, ...]
    dmat: np.ndarray | None
    exhaustion: tuple[CompactSet, ...]
    resolution: float
    isolated: np.ndarray
    metric_form: dict
    factors: tuple[SampledSpace, ...] = ()

    def __post_init__(self):
        n = len(self.points)
        index = {p: i for i, p in enumerate(self.points)}  # the last position of each id
        if len(index) != n:
            first = next(i for i, p in enumerate(self.points) if index[p] != i)
            raise ValueError(f"duplicate point id {self.points[first]!r} at positions "
                             f"{first} and {index[self.points[first]]}")
        object.__setattr__(self, "_index", index)
        form = self.metric_form
        if self.factors and (form.get("form") != "product"
                             or [f.metric_form for f in self.factors] != [form.get("a"), form.get("b")]):
            raise ValueError("factor spaces must carry the product tag's 'a' and 'b'")
        metric = _closed_form(form, self.factors)
        if metric is not None:
            if self.dmat is not None:
                raise ValueError(f"metric tag {form.get('form')!r} builds its own "
                                 "distance matrix; pass dmat=None")
            if metric.n != n:
                raise ValueError(f"metric tag has {metric.n} points, the sample {n}")
        else:
            dmat = np.array(self.dmat, dtype=float)  # the caller's array stays writeable
            if dmat.shape != (n, n):
                raise ValueError("distance matrix shape mismatch")
            metric = _Dense(dmat)
        metric._certify(self.points)
        # dmat is not stored: a read goes to __getattr__, which asks the metric
        object.__setattr__(self, "metric", metric)
        object.__delattr__(self, "dmat")
        if not self.resolution > 0:
            raise ValueError("resolution must be positive")
        object.__setattr__(self, "isolated", np.asarray(self.isolated, dtype=bool))
        if self.isolated.shape != (n,):
            raise ValueError("isolated flag shape mismatch")
        if not self.exhaustion:
            raise ValueError("exhaustion must be nonempty")
        prev = np.empty(0, dtype=np.intp)
        for ks in self.exhaustion:
            cur = ks.members  # sorted and unique
            if not np.isin(prev, cur, assume_unique=True).all():
                raise ValueError("exhaustion sets are not nested")
            if cur[-1] >= n or cur[0] < 0:
                raise ValueError("exhaustion member out of range")
            prev = cur
        if prev.size != n:  # n distinct members in range(n) are all of it
            raise ValueError("exhaustion does not cover the sample")

    def __getattr__(self, name: str):
        # only reached for names not set on the instance: dmat, which the
        # metric builds once, on first read
        if name == "dmat":
            return self.metric.dense
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, point_id: str) -> int:
        try:
            return self._index[point_id]
        except KeyError:
            raise ValueError(f"unknown point id {point_id!r} in space {self.name!r}") from None

    def compact(self, members: Iterable[int], label: str = "") -> CompactSet:
        ks = CompactSet(members, label)
        if ks.members[0] < 0 or ks.members[-1] >= self.n:
            raise ValueError("compact set member outside space")
        return ks

    @property
    def top_exhaustion(self) -> CompactSet:
        return self.exhaustion[-1]

    @cached_property
    def _resolution_tol(self) -> float:
        """Default tolerance for "within resolution": the resolution plus
        the float error of a computed distance.  That error scales with the
        distances, so the slack is 8 eps max d, as in the closed-form metric
        certificate; an absolute slack would swamp a resolution below it."""
        return self.resolution + 8 * float(np.finfo(float).eps) * self.metric.diameter

    def __repr__(self) -> str:  # short: spaces can hold thousands of points
        return f"SampledSpace({self.name!r}, n={self.n}, resolution={self.resolution})"


# edge of the square tiles the constructor compares: a pair of 256 x 256 float64
# tiles (1 MB) stays in cache while one of them is read in transposed order
_SYMMETRY_TILE = 256


def _tile_walk(dmat: np.ndarray, points: Sequence[str]) -> None:
    """The constructor's checks on a given matrix: finite, symmetric (at
    1e-12), zero diagonal, distinct points apart; a ValueError names the
    first failure.

    One walk over the tile d[I, J] and its mirror d[J, I].T for every pair
    of index ranges I <= J checks finiteness and symmetry and counts the
    entries <= 0; no full transpose is read.  A non-finite entry outranks an
    asymmetry met in an earlier tile, so the walk goes on past one."""
    n = len(dmat)
    symmetric, nonpositive, step = True, 0, _SYMMETRY_TILE
    for lo, hi in ((i, j) for i in range(0, n, step) for j in range(i, n, step)):
        a, b = dmat[lo:lo + step, hi:hi + step], dmat[hi:hi + step, lo:lo + step].T
        tiles = (a,) if lo == hi else (a, b)
        ends = [end(t) for t in tiles for end in (np.min, np.max)]
        if not np.isfinite(ends).all():
            i, j = np.argwhere(~np.isfinite(dmat))[0]
            raise ValueError(f"non-finite distance {dmat[i, j]} between points "
                             f"{points[i]!r} and {points[j]!r}")
        # exactly or, where that fails, allclose in both directions (its
        # tolerance scales with the second argument)
        symmetric = symmetric and (np.array_equal(a, b) or (
            np.allclose(a, b, atol=1e-12) and np.allclose(b, a, atol=1e-12)))
        if min(ends) <= 0:
            nonpositive += sum(np.count_nonzero(t <= 0) for t in tiles)
    if not symmetric:
        raise ValueError("metric not symmetric on the sample")
    diag = np.diag(dmat)
    if np.any(np.abs(diag) > 1e-12):
        raise ValueError("metric has nonzero diagonal")
    # an off-diagonal entry <= 0 exists iff there are more such entries than
    # on the diagonal
    if nonpositive > np.count_nonzero(diag <= 0):
        raise ValueError("distinct sample points at zero distance")


class Metric:
    """The distances of an n-point sample, computed where a reader asks.

    ``pair(I, J)`` is d(I, J) elementwise over broadcast index arrays,
    ``cross(I, J)`` the block d(I[:, None], J[None, :]), ``diameter`` the
    largest distance and ``dense`` the full (n, n) matrix, built on first
    read and read-only.  A closed-form metric computes every entry from
    O(n) coordinate arrays, bitwise equal to the entry of its ``dense``; the
    matrix-form metric wraps the matrix that the constructor checked.
    """

    n: int

    def pair(self, I, J) -> np.ndarray:
        I, J = np.asarray(I), np.asarray(J)
        return self._pair(I, J, np.empty(np.broadcast_shapes(I.shape, J.shape)))

    def cross(self, I, J) -> np.ndarray:
        I, J = np.asarray(I), np.asarray(J)
        return self._cross(I, J, np.empty((I.size, J.size)))

    def _cross(self, I: np.ndarray, J: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``cross(I, J)`` written into ``out``, for a reader that reuses one buffer."""
        return self._pair(I[:, None], J[None, :], out)

    def _pair(self, I: np.ndarray, J: np.ndarray, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def diameter(self) -> float:
        """The largest distance, bitwise ``dense.max()``.  This default
        scans blocks of rows, so no matrix is held."""
        idx, step = np.arange(self.n), _SYMMETRY_TILE
        return max(float(self.cross(idx[r:r + step], idx).max()) for r in range(0, self.n, step))

    @cached_property
    def dense(self) -> np.ndarray:
        d = self._matrix()
        d.flags.writeable = False
        return d

    def _matrix(self) -> np.ndarray:
        idx = np.arange(self.n)
        return self.cross(idx, idx)

    def _certify(self, points: Sequence[str]) -> None:
        """The tile walk's checks for a closed-form metric, from O(n) data
        and with the walk's messages.  Symmetry and the zero diagonal hold
        by each formula.  A non-finite entry exists iff row 0 holds one, so
        the walk's first one (in row-major order) is row 0's first: a
        circle or dyadic entry is always finite; a line's coordinates are
        nondecreasing, so fl(x_j - x_0) >= fl(x_j - x_i) for i <= j; and a
        product's entry is non-finite iff a factor's is."""
        row = self.pair(0, np.arange(self.n))
        bad = np.flatnonzero(~np.isfinite(row))
        if bad.size:
            raise ValueError(f"non-finite distance {row[bad[0]]} between points "
                             f"{points[0]!r} and {points[bad[0]]!r}")
        if not self._apart():
            raise ValueError("distinct sample points at zero distance")

    def _apart(self) -> bool:
        """Whether every two distinct points are at a positive distance."""
        raise NotImplementedError


class _Dense(Metric):
    """A given (n, n) matrix; its certificate is the tile walk."""

    def __init__(self, matrix: np.ndarray):
        matrix.flags.writeable = False
        self.values, self.n = matrix, len(matrix)

    def _pair(self, I, J, out):
        out[...] = self.values[I, J]
        return out

    @cached_property
    def diameter(self) -> float:
        return float(self.values.max())

    def _matrix(self) -> np.ndarray:
        return self.values

    def _certify(self, points: Sequence[str]) -> None:
        _tile_walk(self.values, points)


class _Max(Metric):
    """The max metric on a product whose point (ia, ib) has index ia * nb + ib."""

    def __init__(self, a: Metric, b: Metric):
        self.a, self.b, self.n = a, b, a.n * b.n

    def _pair(self, I, J, out):
        ia, ib = np.divmod(I, self.b.n)
        ja, jb = np.divmod(J, self.b.n)
        return np.maximum(self.a.pair(ia, ja), self.b.pair(ib, jb), out=out)

    @cached_property
    def diameter(self) -> float:
        return max(self.a.diameter, self.b.diameter)

    def _matrix(self) -> np.ndarray:
        # from the factors' own matrices, each built at most once
        na, nb = self.a.n, self.b.n
        out = np.empty((na, nb, na, nb))
        np.maximum(self.a.dense[:, None, :, None], self.b.dense[None, :, None, :], out=out)
        return out.reshape(self.n, self.n)

    def _apart(self) -> bool:
        return self.a._apart() and self.b._apart()


def same_space(a: SampledSpace, b: SampledSpace) -> bool:
    """Whether ``a`` and ``b`` are the same space, the one rule by which
    spaces are compared: equal point ids (a direct constructor call may give
    a closed-form tag any) and tags, and for a space with no closed form
    equal matrix bytes.  The tag says which, so both metrics are or neither is."""
    if a is b:
        return True
    if a.points != b.points or a.metric_form != b.metric_form:
        return False
    return not isinstance(a.metric, _Dense) or np.array_equal(a.dmat.view(np.uint64), b.dmat.view(np.uint64))


def _acts_on(space: SampledSpace, target: SampledSpace, what: str) -> None:
    """Refuse a ``what`` (group or operator) on ``space`` where one on the
    config's space ``target`` is needed, naming both spaces and their sizes."""
    if not same_space(space, target):
        raise ValueError(f"{what} acts on space {space.name!r} ({space.n} points), "
                         f"not on the config's space {target.name!r} ({target.n} points)")


def product(a: SampledSpace, b: SampledSpace, name: str | None = None) -> SampledSpace:
    """Cartesian product with the max metric; exhaustion is the product of
    exhaustions, resolution the max of resolutions."""
    na, nb = a.n, b.n
    ids = tuple(f"{pa}|{pb}" for pa in a.points for pb in b.points)
    form = {"form": "product", "a": a.metric_form, "b": b.metric_form}
    depth = max(len(a.exhaustion), len(b.exhaustion))
    exhaustion = []
    for m in range(depth):
        ka = a.exhaustion[min(m, len(a.exhaustion) - 1)]
        kb = b.exhaustion[min(m, len(b.exhaustion) - 1)]
        members = ka.members[:, None] * nb + kb.members  # row-major, so already sorted
        exhaustion.append(CompactSet(members.ravel(), label=f"{ka.label}x{kb.label}"))
    isolated = np.repeat(a.isolated, nb) & np.tile(b.isolated, na)
    return SampledSpace(
        name=name or f"{a.name}x{b.name}",
        points=ids,
        # with two closed-form factors the product's metric composes theirs
        dmat=None if _closed_form(form, (a, b)) is not None else _Max(a.metric, b.metric).dense,
        exhaustion=tuple(exhaustion),
        resolution=max(a.resolution, b.resolution),
        isolated=isolated,
        metric_form=form,
        factors=(a, b),
    )


# ----------------------------------------------------------------------
# closed-form kinds: each is one Metric subclass.  Its constructor takes the
# tag, checks the params it reads (so a builtin, a space file and a direct
# constructor call meet the same checks), computes the O(n) coordinates and
# keeps the canonical tag.  ``_pair`` is the only copy of its formula: it
# works elementwise on broadcast index arrays and writes into ``out``, so a
# pair, a block and the full matrix come from the same arithmetic.
# ``_layout()`` gives the sample's point ids, exhaustion, resolution and
# isolated flags.  ``_KINDS`` is the one place a kind name is dispatched


def _integer(value, name: str, least: int) -> int:
    """A param that must be an integer >= least, or an input error naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _finite(value) -> bool:
    return isinstance(value, (int, float, np.number)) and not isinstance(value, bool) and math.isfinite(value)


def _distinct(x: np.ndarray) -> bool:
    return bool((np.diff(np.sort(x)) > 0).all())


class _Line(Metric):
    """|x_i - x_j| on the grid x = lo + step * k of the window [lo, hi]."""

    def __init__(self, form: dict):
        step, window = form["step"], form["window"]
        if not (_finite(step) and step > 0):
            raise ValueError(f"line step must be a finite number > 0, got {step!r}")
        if not (isinstance(window, (list, tuple)) and len(window) == 2 and all(map(_finite, window))
                and window[0] < window[1]):
            raise ValueError(f"line window must be two finite numbers lo < hi, got {window!r}")
        lo, hi = window
        self.x = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
        self.n, self.tag = len(self.x), {"form": "line", "step": step, "window": [lo, hi]}

    def _pair(self, I, J, out):
        np.subtract(self.x[I], self.x[J], out=out)
        return np.abs(out, out=out)

    @cached_property
    def diameter(self) -> float:
        # fl is monotone, so no difference of two coordinates rounds above
        # fl(max - min)
        return float(self.x.max() - self.x.min())

    def _apart(self) -> bool:
        # distinct floats have a nonzero difference
        return _distinct(self.x)

    def _layout(self) -> dict:
        lo, hi = self.tag["window"]
        enter = _line_entries(np.abs(self.x), max(abs(lo), abs(hi)))
        # one set per distinct member set, labelled with the first m that reaches it
        exhaustion = [CompactSet(np.flatnonzero(enter <= m), label=f"[-{m},{m}]")
                      for m in map(int, sorted(set(enter[np.isfinite(enter)].tolist())))]
        if not exhaustion or len(exhaustion[-1]) != self.n:
            exhaustion.append(CompactSet(np.arange(self.n), label="window"))
        return dict(points=tuple(f"x{c:+.6g}" for c in self.x), exhaustion=tuple(exhaustion),
                    resolution=self.tag["step"] / 2,  # every ideal window point is within half a step
                    isolated=np.zeros(self.n, dtype=bool))


def _line_entries(radii: np.ndarray, bound: float) -> np.ndarray:
    """For each point at |x| = radius, the first m = 1, 2, ..., up to the
    first m >= bound, with radius <= min(m, bound) + 1e-12: the set
    [-m, m] of the line's exhaustion that first holds it; inf when none
    does.  Below k = ceil(radius) - 1 no m holds the point, and k + 1 does
    unless the bound caps it, so only k and k + 1 are tried."""
    last = max(1, math.ceil(bound))
    k = np.clip(np.ceil(radii) - 1, 1, last)
    enter = np.full(radii.shape, np.inf)
    for m in (np.minimum(k + 1, last), k):  # the second try, k, wins where both hold
        hit = radii <= np.minimum(m, bound) + 1e-12
        enter[hit] = m[hit]
    return enter


class _Circle(Metric):
    """Arc length min(|a_i - a_j|, 2 pi - |a_i - a_j|) between count equally
    spaced angles a."""

    def __init__(self, form: dict):
        count = _integer(form["count"], "circle count", 3)
        self.x = 2 * math.pi * np.arange(count) / count
        self.n, self.tag = count, {"form": "circle", "count": count}

    def _pair(self, I, J, out):
        d = np.abs(np.subtract(self.x[I], self.x[J], out=out), out=out)
        return np.minimum(d, 2 * math.pi - d, out=d)

    def _apart(self) -> bool:
        # two distinct angles in [0, 2 pi) are less than 2 pi apart
        return _distinct(self.x)

    def _layout(self) -> dict:
        return dict(points=tuple(f"c{k:03d}" for k in range(self.n)),
                    exhaustion=(CompactSet(np.arange(self.n), label="circle"),),
                    resolution=math.pi / self.n,  # half the arc spacing
                    isolated=np.zeros(self.n, dtype=bool))


class _Dyadic(Metric):
    """2^-min(level_i, level_j) between distinct points, and 1 when either
    point is in remark25's isolated block: ``max(q_i, q_j)`` with q =
    2^-level (q = 1 on the block), and 0 where I == J.  That is exact: 2^-x
    is decreasing, so ``max(2^-a, 2^-b)`` is the very float ``2^-min(a, b)``
    (0 at level inf), and a pair with an isolated point gets ``max(1, q <=
    1/2) = 1``.  Level inf marks the lone accumulation point."""

    def __init__(self, level: np.ndarray, block: np.ndarray | None = None):
        self.level, self.n = level, len(level)
        self.q = np.power(2.0, np.negative(level))
        if block is not None:
            self.q[block] = 1.0

    def _pair(self, I, J, out):
        np.maximum(self.q[I], self.q[J], out=out)
        np.copyto(out, 0.0, where=I == J)
        return out

    @cached_property
    def diameter(self) -> float:
        # the largest q is the distance from its point to any other
        return float(self.q.max())

    def _apart(self) -> bool:
        # q >= 0, so max(q_i, q_j) is 0 only where both are
        return np.count_nonzero(self.q == 0) <= 1


class _Remark25(_Dyadic):
    """Two-part space: a column of pairs (0, x) for x in 1..n_max plus a
    point at infinity, and an n_max-by-n_max block of isolated pairs (i, j).

    Metric: d((0,x),(0,y)) = 2^{-min(x,y)}; any pair involving a point with
    first coordinate >= 1 is at distance 1.  Compact subsets of the ideal
    space are finite sets joined with a terminal segment of the column, so
    the exhaustion grows the isolated block while always carrying the column.
    """

    def __init__(self, form: dict):
        n_max = _integer(form["n_max"], "remark25 n_max", 3)
        # first and second coordinates: the column (0, 1..n_max), (0, inf),
        # then the block (i, j) row by row
        ks = np.arange(1.0, n_max + 1)
        self.first = np.concatenate([np.zeros(n_max + 1), np.repeat(ks, n_max)])
        super().__init__(np.concatenate([ks, [math.inf], np.tile(ks, n_max)]), self.first >= 1)
        self.tag = {"form": "remark25", "n_max": n_max}

    def _layout(self) -> dict:
        n_max = self.tag["n_max"]
        # K_m is the column plus the block's (i, j) for i, j <= m: grid[i - 1, j - 1]
        column, grid = np.arange(n_max + 1), np.arange(n_max + 1, self.n).reshape(n_max, n_max)
        exhaustion = tuple(CompactSet(np.concatenate([column, grid[:m, :m].ravel()]), label=f"K{m}")
                           for m in range(1, n_max + 1))
        return dict(points=tuple(f"({a:g},{b:g})" for a, b in zip(self.first.tolist(), self.level.tolist())),
                    exhaustion=exhaustion, resolution=2.0 ** (-n_max),
                    isolated=np.isfinite(self.level))


class _Onepoint01N(_Dyadic):
    """One-point compactification of {0,1} x N, truncated at n_max.

    Metric: d((i,k),(j,m)) = 2^{-min(k,m)} for distinct points and
    d((i,k), inf) = 2^{-k}.  The whole space is compact.
    """

    def __init__(self, form: dict):
        n_max = _integer(form["n_max"], "onepoint01N n_max", 2)
        ks = np.arange(1.0, n_max + 1)
        super().__init__(np.concatenate([ks, ks, [math.inf]]))  # (0, k), (1, k), then inf
        self.tag = {"form": "onepoint01N", "n_max": n_max}

    def _layout(self) -> dict:
        n_max = self.tag["n_max"]
        ids = [f"({i},{k})" for i in (0, 1) for k in range(1, n_max + 1)] + ["inf"]
        return dict(points=tuple(ids), exhaustion=(CompactSet(np.arange(self.n), label="all"),),
                    resolution=2.0 ** (-n_max), isolated=np.isfinite(self.level))


_KINDS = {"line": _Line, "circle": _Circle, "remark25": _Remark25, "onepoint01N": _Onepoint01N}


def _closed_form(form: dict, factors: Sequence[SampledSpace] = ()) -> Metric | None:
    """The metric of a closed-form tag, made from the tag's parameters; a
    product with its factor spaces (whose tags are the product tag's parts)
    composes their metrics.  None for any other tag."""
    kind = form.get("form")
    if kind == "product":
        a, b = (f.metric for f in factors) if factors else (_closed_form(form[k]) for k in "ab")
        return None if any(m is None or isinstance(m, _Dense) for m in (a, b)) else _Max(a, b)
    return _KINDS[kind](form) if isinstance(kind, str) and kind in _KINDS else None


def _from_tag(form: dict, name: str | None) -> SampledSpace:
    """The space of a closed-form tag; a product without a name is named after its factors."""
    kind = form.get("form")
    if kind == "product":  # equal factors (plane) share one factor space
        a, b = _from_tag(form["a"], None), _from_tag(form["b"], None)
        return product(a, a if same_space(a, b) else b, name)
    metric = _closed_form(form)
    if metric is None:
        raise ValueError(f"unknown metric form {kind!r}")
    return SampledSpace(name=name or kind, dmat=None, metric_form=metric.tag, **metric._layout())


# the params of each builtin space with their defaults; any other key is an
# input error
_BUILTIN_PARAMS = {
    "line": {"step": 0.01, "window": (-10.0, 10.0)},
    "circle": {"count": 64},
    "plane": {"step": 0.25, "window": (-2.0, 2.0)},
    "remark25": {"n_max": 50},
    "onepoint01N": {"n_max": 50},
    "circle_x_interval": {"count": 48, "levels": 16},
}
BUILTIN_NAMES = tuple(_BUILTIN_PARAMS)


def builtin_space(name: str, **params) -> SampledSpace:
    """Gallery of concrete spaces at configurable resolution; the names and
    params are the keys of ``_BUILTIN_PARAMS``.  An unknown param, or a bad
    value, is refused before any matrix is built."""
    if name not in _BUILTIN_PARAMS:
        raise ValueError(f"unknown builtin space: {name!r}")
    unknown = sorted(set(params) - set(_BUILTIN_PARAMS[name]))
    if unknown:
        raise ValueError(f"builtin space {name!r}: unknown param {unknown[0]!r}; "
                         f"it takes {', '.join(_BUILTIN_PARAMS[name])}")
    values = {**_BUILTIN_PARAMS[name], **params}
    if name in ("line", "plane"):
        axis = {"form": "line", **values}
        form = axis if name == "line" else {"form": "product", "a": axis, "b": axis}
    elif name == "circle_x_interval":
        levels = _integer(values["levels"], "circle_x_interval levels", 2)
        form = {"form": "product", "a": {"form": "circle", "count": values["count"]},
                "b": {"form": "line", "step": 1.0 / (levels - 1), "window": [0.0, 1.0]}}
    else:
        form = {"form": name, **values}
    return _from_tag(form, name)


def validate_metric(space: SampledSpace) -> dict:
    """Check metric axioms on the sample.

    Symmetry (at 1e-12) and identity of indiscernibles are the
    constructor's checks, which hold for the life of the immutable space,
    so ``symmetric`` and ``identity`` are reported from it.  The triangle
    inequality is checked in one of three modes, each at tolerance 1e-9:

    - ``"closed-form"``, when ``metric_form`` is a line, circle, remark25
      or onepoint01N tag, or a max-product of these: every distance is
      computed from the tag's formula F, so ``formula_defect = max |d -
      F|`` is 0.  F is a metric in exact arithmetic, and rounding moves
      each entry by at most 2 eps max F, so every triangle gap ``d(i, j) -
      d(i, k) - d(k, j)`` on the sample is at most ``triangle_gap_bound =
      8 * eps * max d`` (``max d`` is the metric's ``diameter``).  The
      triangle inequality is certified when that bound is at most the
      tolerance; no triple is examined and no matrix is built.
    - ``"exhaustive"``: all n^3 triples, when n <= 2500.
    - ``"random"``: 100,000 random triples, seed 0, otherwise.
    """
    tol = 1e-9
    n = space.n
    report = {"n": n, "symmetric": True, "identity": True}
    if not isinstance(space.metric, _Dense):
        bound = 8 * float(np.finfo(float).eps) * space.metric.diameter
        report.update(mode="closed-form", formula=space.metric_form, formula_defect=0.0,
                      triangle_gap_bound=bound, triples_checked=0, triangle_ok=bound <= tol,
                      ok=bound <= tol)
        return report
    d = space.dmat
    exhaustive = n <= 2500
    report["mode"] = "exhaustive" if exhaustive else "random"
    worst = -math.inf
    witness = None
    if exhaustive:
        for k in range(n):
            via = d[:, k][:, None] + d[k, :][None, :]
            gap = d - via
            m = float(gap.max())
            if m > worst:
                worst = m
                i, j = np.unravel_index(int(gap.argmax()), gap.shape)
                witness = (int(i), int(j), k)
        report["triples_checked"] = n * n * n
    else:
        idx = np.random.default_rng(0).integers(0, n, size=(100_000, 3))
        gap = d[idx[:, 0], idx[:, 1]] - (d[idx[:, 0], idx[:, 2]] + d[idx[:, 2], idx[:, 1]])
        pos = int(gap.argmax())
        worst = float(gap[pos])
        witness = tuple(int(v) for v in idx[pos])
        report["triples_checked"] = len(idx)
    report["triangle_ok"] = bool(worst <= tol)
    report["worst_triangle_gap"] = worst
    report["worst_triple"] = witness
    report["ok"] = report["triangle_ok"]
    return report
