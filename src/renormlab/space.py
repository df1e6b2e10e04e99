"""Finite point samples of locally compact metric spaces.

A :class:`SampledSpace` is a finite, desk-scale stand-in for a locally
compact Polish space: a tuple of point ids, a metric on them, a nested
compact exhaustion, and a declared ``resolution`` bounding how far an
unmodeled point of the ideal space can sit from the sample.  All
downstream tolerances are stated in terms of ``resolution``.

The metric is a :class:`Metric`: distances on demand, as pairs, blocks,
rows and balls.  A closed-form metric computes them from O(n) coordinates;
a matrix-form one wraps its checked matrix, made exactly symmetric with
a zero diagonal.  ``space.dmat``, the full matrix, exists only once a
reader asks for it; the library reads it only on a matrix-form space.

Compactness at sample scale is a proxy: a set counts as compact when it is
contained in an exhaustion element.  Reports carry this caveat verbatim.
Every space states its exhaustion by its entries, the first compact that
holds each point, and builds a compact's member array only where a
reader asks for it.
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


class _Entered(CompactSet):
    """Compact k of an exhaustion stated by its entries: the points i with
    ``enter[i] <= k``, where the (n,) array ``enter``, shared by every
    compact of the exhaustion, holds the first compact that holds each
    point.  Its ``members`` are built on first read, so an exhaustion of
    many large compacts holds O(n) indices until a reader asks for them."""

    def __init__(self, enter: np.ndarray, k: int, label: str):
        object.__setattr__(self, "enter", enter)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "label", label)

    @cached_property
    def members(self) -> np.ndarray:
        members = np.flatnonzero(self.enter <= self.k)
        members.flags.writeable = False
        return members


def _exhaustion(enter: np.ndarray, labels: Sequence[str]) -> tuple[CompactSet, ...]:
    """The nested compacts 0..len(labels)-1 whose entries are ``enter``
    (the first compact that holds each point), read-only and shared."""
    enter = np.asarray(enter, dtype=np.intp)
    enter.flags.writeable = False
    return tuple(_Entered(enter, k, label) for k, label in enumerate(labels))


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
        exhaustion: increasing compact subsets whose union is the sample,
            given by members or by entries, checked as one nested run
            (``_nested_runs``) and held as one (n,) entry array
            (``_exhaustion``).
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
        index = dict(zip(self.points, range(n)))  # the last position of each id
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
        # compact k's nesting in compact k + 1 is checked before k + 1's
        # range: the walk stops at the first compact out of range
        bad, runs = _nested_runs(self.exhaustion, n)
        first, _, enter, top = next(runs)  # the last run
        if first:
            raise ValueError("exhaustion sets are not nested")
        if bad < len(self.exhaustion):
            raise ValueError("exhaustion member out of range")
        if top.size != n:  # n distinct members in range(n) are all of it
            raise ValueError("exhaustion does not cover the sample")
        object.__setattr__(self, "exhaustion", _exhaustion(enter, [K.label for K in self.exhaustion]))

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
        """Tolerance of "within the resolution": resolution plus the metric's
        ``rounding``."""
        return self.resolution + self.metric.rounding

    @cached_property
    def _same_point_tol(self) -> float:
        """The same-point rule: two points within ``resolution +
        _resolution_tol`` count as the same sample point (a round trip, a
        certified word's image, a weight's continuity)."""
        return self.resolution + self._resolution_tol

    def __repr__(self) -> str:  # short: spaces can hold thousands of points
        return f"SampledSpace({self.name!r}, n={self.n}, resolution={self.resolution})"


# edge of the square tiles the constructor compares: a pair of 256 x 256 float64
# tiles (1 MB) stays in cache while one of them is read in transposed order
_SYMMETRY_TILE = 256

# bytes of one distance block of Metric._blocks: a block of rows times the
# columns asked for
_GATHER_BYTES = 1 << 18


def _tile_walk(dmat: np.ndarray, points: Sequence[str]) -> None:
    """The constructor's checks on a given matrix, which they then make
    exact: finite, symmetric (``allclose`` at atol 1e-12 plus rtol 1e-5,
    both ways), zero diagonal (|d(x, x)| <= 1e-12), distinct points apart;
    a ValueError names the first failure.  An accepted matrix is written
    over in place as the metric it stands for: each skewed pair becomes the
    mean of its two entries and the diagonal 0, and every entry that is
    already symmetric keeps its bits.

    One walk over the tile d[I, J] and its mirror d[J, I].T for every pair
    of index ranges I <= J checks finiteness and symmetry, counts the
    entries <= 0 and averages a tile pair that differs; no full transpose
    is read.  A non-finite entry outranks an asymmetry met in an earlier
    tile, so the walk goes on past one."""
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
        if min(ends) <= 0:  # counted as given: a mean never makes a refused matrix pass
            nonpositive += sum(np.count_nonzero(t <= 0) for t in tiles)
        if np.array_equal(a, b):
            continue
        # allclose in both directions (its tolerance scales with the second
        # argument), then each differing pair gets its mean, which halves
        # before adding so no finite pair overflows
        symmetric = symmetric and all(np.allclose(x, y, rtol=1e-5, atol=1e-12) for x, y in ((a, b), (b, a)))
        skew, mean = a != b, a / 2 + b / 2
        np.copyto(a, mean, where=skew)
        np.copyto(b, mean, where=skew)
    if not symmetric:
        raise ValueError("metric not symmetric on the sample")
    diag = np.diag(dmat)
    if np.any(np.abs(diag) > 1e-12):
        raise ValueError("metric has nonzero diagonal")
    # an off-diagonal entry <= 0 exists iff there are more such entries than
    # on the diagonal
    if nonpositive > np.count_nonzero(diag <= 0):
        raise ValueError("distinct sample points at zero distance")
    dust = np.flatnonzero(diag)
    if dust.size:  # only dust is written: a matrix with none is left as it is
        dmat[dust, dust] = 0.0


class Metric:
    """The distances of an n-point sample, computed where a reader asks.

    ``pair(I, J)`` is d(I, J) elementwise over broadcast index arrays,
    ``cross(I, J)`` the block d(I[:, None], J[None, :]), ``row(i)`` the
    distances from point i to every point, ``ball(centres, r)`` the points
    strictly within r of some centre, ``set_distances`` the distances from
    every point to each of a list of sets, ``nearest(I, J)`` each point of I's
    nearest point in J, ``diameter`` the largest distance, ``separation`` the
    least distance of distinct points (or a lower bound, per kind) and
    ``dense`` the full (n, n) matrix, built on first read and read-only.
    Every metric is exactly symmetric with d(i, i) = 0.
    A closed-form metric computes every entry from O(n) coordinate arrays,
    bitwise equal to the entry of its ``dense``; the matrix-form metric
    wraps the matrix that the constructor checked and made exact.  No
    reader in the library builds a closed form's ``dense``: only a
    matrix-form space's checks and ``io.space_to_dict`` read a matrix.
    """

    n: int

    def pair(self, I, J) -> np.ndarray:
        I, J = np.asarray(I), np.asarray(J)
        return self._pair(I, J, np.empty(np.broadcast(I, J).shape))

    def row(self, i: int) -> np.ndarray:
        """d(i, j) for every point j, bitwise ``dense[i]``."""
        return self.pair(i, np.arange(self.n))

    def ball(self, centres, r: float) -> np.ndarray:
        """The sorted indices of the points j with d(c, j) < r for some
        centre c (one index or an index array): bitwise
        ``np.flatnonzero((dense[centres] < r).any(axis=0))``, so a whole
        orbit is one call.  This default tests whole rows, in blocks of about
        ``_GATHER_BYTES``."""
        centres = np.asarray(centres, dtype=np.intp).ravel()
        idx, rows = np.arange(self.n), max(1, _GATHER_BYTES // (8 * self.n))
        near = np.zeros(self.n, dtype=bool)
        for s in range(0, len(centres), rows):
            near |= (self.cross(centres[s:s + rows], idx) < r).any(axis=0)
        return np.flatnonzero(near)

    def cross(self, I, J) -> np.ndarray:
        I, J = np.asarray(I), np.asarray(J)
        return self._cross(I, J, np.empty((I.size, J.size)))

    def _cross(self, I: np.ndarray, J: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``cross(I, J)`` written into ``out``, for a reader that reuses one buffer."""
        return self._pair(I[:, None], J[None, :], out)

    def _pair(self, I: np.ndarray, J: np.ndarray, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def set_distances(self, points, sets: Sequence[np.ndarray]) -> np.ndarray:
        """The (len(points), len(sets)) table whose column k is the distance
        from each of ``points`` (an index array) to the points ``sets[k]``
        (a nonempty index array; repeats allowed): the min of the distances
        to them, bitwise a direct ``dense[points][:, sets[k]].min(axis=1)``.

        This default computes each column in ``_blocks``, all written into
        one buffer.  The min is exact, so the table is too."""
        points = np.asarray(points, dtype=np.intp)
        sets = [np.asarray(s, dtype=np.intp) for s in sets]
        table = np.empty((points.size, len(sets)))
        buf = np.empty(max([_GATHER_BYTES // 8] + [s.size for s in sets]))
        for k, s in enumerate(sets):
            for rows, block in self._blocks(points, s, buf):
                table[rows, k] = block.min(axis=1)
        return table

    def _far_counts(self, points: np.ndarray, members: np.ndarray, enter: np.ndarray,
                    width: int, eps: float) -> np.ndarray:
        """For the nested sets S_0 <= ... <= S_{width-1}, where S_k holds
        ``members[i]`` for each i with ``enter[i] <= k`` (S_0 nonempty), the
        number of sets farther than eps from each of ``points``: as S_k
        grows, d(y, S_k) does not increase, so that is the first k with
        d(y, S_k) <= eps.

        This default reads d(y, S_k) as the running min over k of the
        distances to the members that enter at k (``set_distances`` of those
        groups, inf for a group with none), which is exactly the min over
        S_k, in blocks of points of about ``_GATHER_BYTES``."""
        order = np.argsort(enter, kind="stable")
        groups = np.split(members[order], np.searchsorted(enter[order], np.arange(1, width)))
        filled = [k for k, g in enumerate(groups) if g.size]
        counts = np.empty(len(points), dtype=np.intp)
        rows = max(1, _GATHER_BYTES // (8 * width))
        for r in range(0, len(points), rows):
            table = np.full((len(points[r:r + rows]), width), np.inf)
            table[:, filled] = self.set_distances(points[r:r + rows], [groups[k] for k in filled])
            np.minimum.accumulate(table, axis=1, out=table)
            counts[r:r + rows] = np.count_nonzero(table > eps, axis=1)
        return counts

    def nearest(self, I, J) -> np.ndarray:
        """For each point of ``I``, the position in ``J`` of its nearest
        point, the first on ties: bitwise ``dense[I][:, J].argmin(axis=1)``,
        computed in ``_blocks``."""
        I, J = np.asarray(I, dtype=np.intp), np.asarray(J, dtype=np.intp)
        out = np.empty(I.size, dtype=np.intp)
        buf = np.empty(max(_GATHER_BYTES // 8, J.size))
        for rows, block in self._blocks(I, J, buf):
            out[rows] = block.argmin(axis=1)
        return out

    def _blocks(self, I: np.ndarray, J: np.ndarray, buf: np.ndarray):
        """The block ``cross(I, J)`` as (row slice, block) pairs: a block is
        the rows of about ``_GATHER_BYTES``, or one row, written into
        ``buf``, so no block maps and faults in fresh pages."""
        rows = max(1, _GATHER_BYTES // (8 * J.size))
        for r in range(0, I.size, rows):
            block = I[r:r + rows]
            out = buf[:block.size * J.size].reshape(block.size, J.size)
            yield slice(r, r + rows), self._cross(block, J, out)

    @cached_property
    def diameter(self) -> float:
        """The largest distance, bitwise ``dense.max()``.  This default
        scans blocks of rows, so no matrix is held."""
        idx, step = np.arange(self.n), _SYMMETRY_TILE
        return max(float(self.cross(idx[r:r + step], idx).max()) for r in range(0, self.n, step))

    @property
    def rounding(self) -> float:
        """The float slack of a distance test, and a bound on every computed triangle
        gap: 8 eps per unit of ``diameter``, as each entry is within 2 eps max d of exact."""
        return 8 * float(np.finfo(float).eps) * self.diameter

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
        if not self.separation > 0:
            raise ValueError("distinct sample points at zero distance")


class _Dense(Metric):
    """A given (n, n) matrix, the constructor's own copy; its certificate
    is the tile walk, which makes it exactly symmetric with a zero diagonal
    and then leaves it read-only."""

    def __init__(self, matrix: np.ndarray):
        self.values, self.n = matrix, len(matrix)

    def _pair(self, I, J, out):
        out[...] = self.values[I, J]
        return out

    @cached_property
    def diameter(self) -> float:
        return float(self.values.max())

    @cached_property
    def separation(self) -> float:
        return float(self.values[~np.eye(self.n, dtype=bool)].min(initial=np.inf))

    def _matrix(self) -> np.ndarray:
        return self.values

    def _certify(self, points: Sequence[str]) -> None:
        _tile_walk(self.values, points)
        self.values.flags.writeable = False


class _Max(Metric):
    """The max metric on a product whose point (ia, ib) has index ia * nb + ib."""

    def __init__(self, a: Metric, b: Metric):
        self.a, self.b, self.n = a, b, a.n * b.n

    def _pair(self, I, J, out):
        ia, ib = np.divmod(I, self.b.n)
        ja, jb = np.divmod(J, self.b.n)
        self.a._pair(ia, ja, out)
        return np.maximum(out, self.b._pair(ib, jb, np.empty(out.shape)), out=out)

    def _cross(self, I, J, out):
        # each factor's block over all of its rows, gathered at the rows'
        # factor indices: no index arithmetic per entry
        ia, ib = np.divmod(I, self.b.n)
        ja, jb = np.divmod(J, self.b.n)
        a, b = self.a.cross(np.arange(self.a.n), ja), self.b.cross(np.arange(self.b.n), jb)
        return np.maximum(a[ia], b[ib], out=out)

    def row(self, i: int) -> np.ndarray:
        ia, ib = divmod(int(i), self.b.n)
        return np.maximum.outer(self.a.row(ia), self.b.row(ib)).ravel()

    def ball(self, centres, r):
        # max(da, db) < r iff da < r and db < r: each centre's ball is the
        # product of its factor balls, read from the factors' rows.  Point
        # (i, j) is in the union when some centre has both, so when the
        # (na, nb) product of the ball masks counts it (exact in float64)
        ia, ib = np.divmod(np.asarray(centres, dtype=np.intp).ravel(), self.b.n)
        near_a = self.a.cross(ia, np.arange(self.a.n)) < r
        near_b = self.b.cross(ib, np.arange(self.b.n)) < r
        return np.flatnonzero(near_a.T.astype(float) @ near_b)

    @cached_property
    def diameter(self) -> float:
        return max(self.a.diameter, self.b.diameter)

    @cached_property
    def separation(self) -> float:
        # distinct points differ in a factor, and the max is at least its distance
        return min(self.a.separation, self.b.separation)

    def _matrix(self) -> np.ndarray:
        # from the factors' own matrices, each built at most once
        na, nb = self.a.n, self.b.n
        out = np.empty((na, nb, na, nb))
        np.maximum(self.a.dense[:, None, :, None], self.b.dense[None, :, None, :], out=out)
        return out.reshape(self.n, self.n)



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


def _acts_on(space: SampledSpace, target: SampledSpace, what: str, whose: str = "the config's") -> None:
    """Refuse a ``what`` (group, operator, stage or map) on ``space`` where
    one on ``whose`` space ``target`` is needed, naming both spaces and
    their sizes."""
    if not same_space(space, target):
        raise ValueError(f"{what} acts on space {space.name!r} ({space.n} points), "
                         f"not on {whose} space {target.name!r} ({target.n} points)")


def _nested_runs(compacts: Sequence[CompactSet], n: int):
    """The nonempty list ``compacts`` of an n-point space as maximal runs
    in which every compact holds the one before: ``(bad, runs)``.  ``bad``
    is the first compact with a member outside range(n), len(compacts) when
    none; ``runs`` yields ``(first, end, enter, top)`` for each run of the
    compacts up to ``bad`` (its members in range), the last run first.
    ``top`` is the sorted members of the run's last compact; ``enter[x]``,
    for x in ``top``, is the first compact of the run that holds x, and
    any other point reads ``end`` or more.

    The compacts k0, k0 + 1, ... of one exhaustion stated by its entries
    are one run, read from those in O(n) with no member array built.  Any
    other list is walked from the last compact to the first, stamping each
    compact's members with its position, so before compact k is stamped,
    its members all read k + 1 exactly when compact k + 1 holds them.
    ``enter`` is then one (n,) array that the walk goes on stamping: read
    it before taking the next run."""
    head, end = compacts[0], len(compacts)
    if all(isinstance(K, _Entered) and K.enter is head.enter and K.k == head.k + j
           for j, K in enumerate(compacts)) and head.enter.shape == (n,):
        enter = head.enter if head.k == 0 else np.maximum(head.enter - head.k, 0)
        return end, iter([(0, end, enter, np.flatnonzero(enter < end))])
    karrs = [K.members for K in compacts]  # each sorted and unique
    bad = next((k for k, m in enumerate(karrs) if m[0] < 0 or m[-1] >= n), end)
    if bad < end:
        karrs = karrs[:bad] + [karrs[bad][(karrs[bad] >= 0) & (karrs[bad] < n)]]

    def walk():
        end = len(karrs)
        enter = np.full(n, end, dtype=np.intp)
        for k in range(end - 1, -1, -1):
            if k + 1 < end and not (enter[karrs[k]] == k + 1).all():
                yield k + 1, end, enter, karrs[end - 1]
                end = k + 1
            enter[karrs[k]] = k
        yield 0, end, enter, karrs[end - 1]
    return bad, walk()


def product(a: SampledSpace, b: SampledSpace, name: str | None = None) -> SampledSpace:
    """Cartesian product with the max metric; exhaustion is the product of
    exhaustions, resolution the max of resolutions.  Compact m holds (i, j)
    when each factor's compact min(m, last) does, that is when both entries
    are at most m: a point's entry is the larger of its factors'."""
    na, nb = a.n, b.n
    ids = tuple(f"{pa}|{pb}" for pa in a.points for pb in b.points)
    form = {"form": "product", "a": a.metric_form, "b": b.metric_form}
    ka, kb = a.exhaustion, b.exhaustion
    labels = [f"{ka[min(m, len(ka) - 1)].label}x{kb[min(m, len(kb) - 1)].label}"
              for m in range(max(len(ka), len(kb)))]
    isolated = np.repeat(a.isolated, nb) & np.tile(b.isolated, na)
    return SampledSpace(
        name=name or f"{a.name}x{b.name}",
        points=ids,
        # with two closed-form factors the product's metric composes theirs
        dmat=None if _closed_form(form, (a, b)) is not None else _Max(a.metric, b.metric).dense,
        # row-major: point (ia, ib) has index ia * nb + ib
        exhaustion=_exhaustion(np.maximum.outer(ka[0].enter, kb[0].enter).ravel(), labels),
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


def _integer(value, name: str, least: int | None = None, error: type = ValueError) -> int:
    """A param that must be an integer, >= least unless least is None, or an
    input error naming it (a ValueError unless ``error`` says which)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (least is not None and value < least):
        raise error(f"{name} must be an integer{'' if least is None else f' >= {least}'}, got {value!r}")
    return value


def _finite(value) -> bool:
    return isinstance(value, (int, float, np.number)) and not isinstance(value, bool) and math.isfinite(value)


def _positive(value, name: str):
    """A param that must be a finite number > 0 (NaN fails), or an input
    error naming it."""
    if not (_finite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    return value


# relative slack of a coordinate range query, well above the few roundings
# of a distance and of the range's bounds
_SLACK = 16 * float(np.finfo(float).eps)


class _Sorted(Metric):
    """A kind whose balls are index ranges of sorted coordinates
    ``_coords``, where point j sits at the positions j mod n and its own
    coordinate is ``x[j]``.  A centre's candidates are the positions whose
    coordinates lie within r of its own, plus a slack of ``_SLACK`` per unit
    of ``_reach`` (the largest coordinate) that covers every rounding of a
    distance and of the bounds, at most n of them; each is then tested."""

    x: np.ndarray
    _coords: np.ndarray
    _reach: float

    def ball(self, centres, r):
        centres, n, r = np.asarray(centres, dtype=np.intp).ravel(), self.n, float(r)
        slack, search = r + _SLACK * (self._reach + r), self._coords.searchsorted
        c = self.x[centres]
        lo = search(c - slack)
        lengths = np.maximum(np.minimum(search(c + slack, "right"), lo + n) - lo, 0)
        owner = np.repeat(centres, lengths)
        cand = (np.arange(owner.size) + np.repeat(lo - np.cumsum(lengths) + lengths, lengths)) % n
        idx = np.sort(cand[self.pair(owner, cand) < r])
        return idx[np.diff(idx, prepend=-1) != 0]

    @cached_property
    def separation(self) -> float:
        # fl is monotone, so no distinct points are computed closer than the
        # least computed gap of neighbours, nor is a circle's wrapped arc
        # 2 pi - d shorter than at d = x[-1] - x[0]: exact on a line
        return min(float(np.diff(self.x, append=np.inf).min()), self._turn - float(self.x[-1] - self.x[0]))


class _Line(_Sorted):
    """|x_i - x_j| on the grid x = lo + step * k of the window [lo, hi]."""

    _turn = math.inf  # the length past which an arc wraps: none on a line

    def __init__(self, form: dict):
        step, window = form["step"], form["window"]
        _positive(step, "line step")
        if not (isinstance(window, (list, tuple)) and len(window) == 2 and all(map(_finite, window))
                and window[0] < window[1]):
            raise ValueError(f"line window must be two finite numbers lo < hi, got {window!r}")
        lo, hi = window
        self.x = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
        self.n, self.tag = len(self.x), {"form": "line", "step": step, "window": [lo, hi]}
        self._coords, self._reach = self.x, float(np.abs(self.x).max())  # nondecreasing: fl is monotone

    def _pair(self, I, J, out):
        np.subtract(self.x[I], self.x[J], out=out)
        return np.abs(out, out=out)

    @cached_property
    def diameter(self) -> float:
        # fl is monotone, so no difference of two coordinates rounds above
        # fl(max - min)
        return float(self.x.max() - self.x.min())


    def _layout(self) -> dict:
        lo, hi = self.tag["window"]
        first_m = _line_entries(np.abs(self.x), max(abs(lo), abs(hi)))
        # one set per distinct member set, labelled with the first m that
        # reaches it, then the whole window when some point is in none
        ms = sorted(set(first_m[np.isfinite(first_m)].tolist()))  # np.unique would import numpy.ma
        labels = [f"[-{m},{m}]" for m in map(int, ms)]
        if not labels or np.isinf(first_m).any():
            labels.append("window")
        return dict(points=tuple(map("x{:+.6g}".format, self.x.tolist())),
                    exhaustion=_exhaustion(np.searchsorted(ms, first_m), labels),
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


class _Circle(_Sorted):
    """Arc length min(|a_i - a_j|, 2 pi - |a_i - a_j|) between count equally
    spaced angles a."""

    _turn = 2 * math.pi

    def __init__(self, form: dict):
        count = _integer(form["count"], "circle count", 3)
        self.x = 2 * math.pi * np.arange(count) / count
        self.n, self.tag = count, {"form": "circle", "count": count}
        # the angles a turn down, as they are and a turn up: an arc shorter
        # than a turn, wrapped or not, is one range of positions
        self._coords, self._reach = np.concatenate([self.x - 2 * math.pi, self.x, self.x + 2 * math.pi]), 4 * math.pi

    def _pair(self, I, J, out):
        d = np.abs(np.subtract(self.x[I], self.x[J], out=out), out=out)
        return np.minimum(d, 2 * math.pi - d, out=d)


    def _layout(self) -> dict:
        return dict(points=tuple(f"c{k:03d}" for k in range(self.n)),
                    exhaustion=_exhaustion(np.zeros(self.n), ["circle"]),
                    resolution=math.pi / self.n,  # half the arc spacing
                    isolated=np.zeros(self.n, dtype=bool))


class _Dyadic(Metric):
    """2^-min(level_i, level_j) between distinct points, and 1 when either
    point is in remark25's isolated block: ``max(q_i, q_j)`` with q =
    2^-level (q = 1 on the block), and 0 where I == J.  That is exact: 2^-x
    is decreasing, so ``max(2^-a, 2^-b)`` is the very float ``2^-min(a, b)``
    (0 at level inf), and a pair with an isolated point gets ``max(1, q <=
    1/2) = 1``.  Level inf marks the lone accumulation point."""

    rounding = 0.0  # every distance is exact, so fl(d(i, j) - fl(d(i, k) + d(k, j))) <= 0

    def __init__(self, level: np.ndarray, block: np.ndarray | None = None):
        self.level, self.n = level, len(level)
        self.q = np.power(2.0, np.negative(level))
        if block is not None:
            self.q[block] = 1.0

    @staticmethod
    def _n_max(form: dict, kind: str, least: int) -> int:
        """The tag's n_max: at most 1074, since 2^-1075 is 0.0 and two points
        of the deepest level would be at zero distance."""
        n_max = _integer(form["n_max"], f"{kind} n_max", least)
        if n_max > 1074:
            raise ValueError(f"{kind} n_max must be at most 1074, where 2^-n_max is the least positive float, "
                             f"got {n_max}")
        return n_max

    def _pair(self, I, J, out):
        np.maximum(self.q[I], self.q[J], out=out)
        np.copyto(out, 0.0, where=I == J)
        return out

    def _far_counts(self, points, members, enter, width, eps):
        """Closed form, O(n + len(members)): d(y, S_k) is 0 from the first
        set that holds y on, and ``max(q_y, min q[S_k])`` before it, the min
        of ``max(q_y, q_j)`` over j in S_k, since ``max(q_y, .)`` is
        monotone.  ``min q[S_k]``, the running min of the q of
        the members entering at each k, does not increase, so it exceeds
        eps on the first c sets exactly; a point with q_y > eps is then far
        from every set before its first, and any other point from the first
        c of those."""
        first = np.full(self.n, width, dtype=np.intp)
        np.minimum.at(first, members, enter)
        low = np.full(width, np.inf)
        np.minimum.at(low, enter, self.q[members])
        c = np.count_nonzero(np.minimum.accumulate(low) > eps)
        held = first[points]
        return np.where(self.q[points] > eps, held, np.minimum(held, c))

    @cached_property
    def diameter(self) -> float:
        # the largest q is the distance from its point to any other
        return float(self.q.max())

    @cached_property
    def separation(self) -> float:
        # max(q_i, q_j) over distinct points is least at the two smallest q
        return float(np.partition(self.q, 1)[1])


class _Remark25(_Dyadic):
    """Two-part space: a column of pairs (0, x) for x in 1..n_max plus a
    point at infinity, and an n_max-by-n_max block of isolated pairs (i, j).

    Metric: d((0,x),(0,y)) = 2^{-min(x,y)}; any pair involving a point with
    first coordinate >= 1 is at distance 1.  Compact subsets of the ideal
    space are finite sets joined with a terminal segment of the column, so
    the exhaustion grows the isolated block while always carrying the column.
    """

    def __init__(self, form: dict):
        n_max = self._n_max(form, "remark25", 3)
        # first and second coordinates: the column (0, 1..n_max), (0, inf),
        # then the block (i, j) row by row
        ks = np.arange(1.0, n_max + 1)
        self.first = np.concatenate([np.zeros(n_max + 1), np.repeat(ks, n_max)])
        super().__init__(np.concatenate([ks, [math.inf], np.tile(ks, n_max)]), self.first >= 1)
        self.tag = {"form": "remark25", "n_max": n_max}

    def _layout(self) -> dict:
        n_max = self.tag["n_max"]
        # K_m is the column plus the block's (i, j) for i, j <= m: the
        # column enters at K_1, compact 0, and (i, j) at K_max(i, j)
        i = np.arange(n_max)
        enter = np.concatenate([np.zeros(n_max + 1, dtype=np.intp), np.maximum.outer(i, i).ravel()])
        exhaustion = _exhaustion(enter, [f"K{m}" for m in range(1, n_max + 1)])
        # the ids f"({first:g},{level:g})" of the coordinates, from integers:
        # the same strings while n_max < 10**6, where :g would switch to
        # exponent form
        ks = [str(k) for k in range(1, n_max + 1)]
        points = (*(f"(0,{k})" for k in ks), "(0,inf)", *(f"({i},{j})" for i in ks for j in ks))
        return dict(points=points, exhaustion=exhaustion, resolution=2.0 ** (-n_max),
                    isolated=np.isfinite(self.level))


class _Onepoint01N(_Dyadic):
    """One-point compactification of {0,1} x N, truncated at n_max.

    Metric: d((i,k),(j,m)) = 2^{-min(k,m)} for distinct points and
    d((i,k), inf) = 2^{-k}.  The whole space is compact.
    """

    def __init__(self, form: dict):
        n_max = self._n_max(form, "onepoint01N", 2)
        ks = np.arange(1.0, n_max + 1)
        super().__init__(np.concatenate([ks, ks, [math.inf]]))  # (0, k), (1, k), then inf
        self.tag = {"form": "onepoint01N", "n_max": n_max}

    def _layout(self) -> dict:
        n_max = self.tag["n_max"]
        ids = [f"({i},{k})" for i in (0, 1) for k in range(1, n_max + 1)] + ["inf"]
        return dict(points=tuple(ids), exhaustion=_exhaustion(np.zeros(self.n), ["all"]),
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

    Symmetry (atol 1e-12 plus rtol 1e-5, then averaged, so exact) and
    identity of indiscernibles are the constructor's checks, which hold for
    the life of the immutable space, so ``symmetric`` and ``identity`` are
    reported from it.  The triangle inequality is checked in one of three
    modes, each at tolerance 1e-9:

    - ``"closed-form"``, when ``metric_form`` is a line, circle, remark25
      or onepoint01N tag, or a max-product of these: every distance is
      computed from the tag's formula F, so ``formula_defect = max |d -
      F|`` is 0.  F is a metric in exact arithmetic, so every triangle gap
      ``d(i, j) - d(i, k) - d(k, j)`` on the sample is at most
      ``triangle_gap_bound``, the metric's ``rounding`` (0 on the exact
      dyadic kinds).  The triangle inequality is certified when that bound
      is at most the tolerance; no triple is examined and no matrix is built.
    - ``"exhaustive"``: all n^3 triples, when n <= 2500.
    - ``"random"``: 100,000 random triples, seed 0, otherwise.
    """
    tol = 1e-9
    n = space.n
    report = {"n": n, "symmetric": True, "identity": True}
    if not isinstance(space.metric, _Dense):
        bound = space.metric.rounding
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
