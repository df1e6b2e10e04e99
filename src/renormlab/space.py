"""Finite point samples of locally compact metric spaces.

A :class:`SampledSpace` is a finite, desk-scale stand-in for a locally
compact Polish space: a tuple of point ids, a full distance matrix, a
nested compact exhaustion, and a declared ``resolution`` bounding how far
an unmodeled point of the ideal space can sit from the sample.  All
downstream tolerances are stated in terms of ``resolution``.

Compactness at sample scale is a proxy: a set counts as compact when it is
contained in an exhaustion element.  Reports carry this caveat verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "CompactSet",
    "SampledSpace",
    "builtin_space",
    "product",
    "validate_metric",
    "BUILTIN_NAMES",
]

BUILTIN_NAMES = ("line", "circle", "plane", "remark25", "onepoint01N", "circle_x_interval")


@dataclass(frozen=True)
class CompactSet:
    """A labeled subset of sample indices standing in for a compact set."""

    members: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("empty compact set")
        if list(self.members) != sorted(set(self.members)):
            object.__setattr__(self, "members", tuple(sorted(set(self.members))))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.members, dtype=np.intp)

    def __contains__(self, idx: int) -> bool:
        return idx in set(self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(eq=False)
class SampledSpace:
    """Finite sample of a locally compact Polish space.

    Attributes:
        name: short human-readable tag.
        points: point ids (strings), index position is the canonical index.
        dmat: full (n, n) distance matrix.
        exhaustion: increasing compact subsets whose union is the sample.
        resolution: max distance from any ideal point of the modeled space
            to the sample (a declared, conservative bound).
        isolated: per-point flag, True when the underlying (ideal) space has
            an isolated point there.
        metric_form: serializable description of the metric (closed-form tag
            with parameters, or "matrix").
        aux: non-serialized construction metadata (coordinates, factors).
    """

    name: str
    points: tuple[str, ...]
    dmat: np.ndarray
    exhaustion: tuple[CompactSet, ...]
    resolution: float
    isolated: np.ndarray
    metric_form: dict
    aux: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n = len(self.points)
        if len(set(self.points)) != n:
            raise ValueError("duplicate point ids")
        self.dmat = np.asarray(self.dmat, dtype=float)
        if self.dmat.shape != (n, n):
            raise ValueError("distance matrix shape mismatch")
        # one walk over the mirrored tile pairs checks finiteness and
        # symmetry and counts the entries <= 0; a non-finite entry outranks
        # an asymmetry met in an earlier tile, so the walk goes on past one
        symmetric, nonpositive = True, 0
        for a, b, diagonal in _mirror_tiles(self.dmat):
            tiles = (a,) if diagonal else (a, b)
            ends = [end(t) for t in tiles for end in (np.min, np.max)]
            if not np.isfinite(ends).all():
                i, j = np.argwhere(~np.isfinite(self.dmat))[0]
                raise ValueError(f"non-finite distance {self.dmat[i, j]} between points "
                                 f"{self.points[i]!r} and {self.points[j]!r}")
            symmetric = symmetric and _tiles_close(a, b, 1e-12)
            if min(ends) <= 0:
                nonpositive += sum(np.count_nonzero(t <= 0) for t in tiles)
        if not symmetric:
            raise ValueError("metric not symmetric on the sample")
        diag = np.diag(self.dmat)
        if np.any(np.abs(diag) > 1e-12):
            raise ValueError("metric has nonzero diagonal")
        # an off-diagonal entry <= 0 exists iff there are more such entries
        # than on the diagonal
        if nonpositive > np.count_nonzero(diag <= 0):
            raise ValueError("distinct sample points at zero distance")
        if not self.resolution > 0:
            raise ValueError("resolution must be positive")
        self.isolated = np.asarray(self.isolated, dtype=bool)
        if self.isolated.shape != (n,):
            raise ValueError("isolated flag shape mismatch")
        if not self.exhaustion:
            raise ValueError("exhaustion must be nonempty")
        prev: set[int] = set()
        for ks in self.exhaustion:
            cur = set(ks.members)
            if not prev <= cur:
                raise ValueError("exhaustion sets are not nested")
            if max(cur) >= n or min(cur) < 0:
                raise ValueError("exhaustion member out of range")
            prev = cur
        if prev != set(range(n)):
            raise ValueError("exhaustion does not cover the sample")
        self._index = {p: i for i, p in enumerate(self.points)}

    @property
    def n(self) -> int:
        return len(self.points)

    def d(self, i: int, j: int) -> float:
        return float(self.dmat[i, j])

    def index(self, point_id: str) -> int:
        try:
            return self._index[point_id]
        except KeyError:
            raise ValueError(f"unknown point id {point_id!r} in space {self.name!r}") from None

    def compact(self, members: Iterable[int], label: str = "") -> CompactSet:
        ms = tuple(sorted(set(int(m) for m in members)))
        if not ms:
            raise ValueError("empty compact set")
        if ms[0] < 0 or ms[-1] >= self.n:
            raise ValueError("compact set member outside space")
        return CompactSet(ms, label)

    @property
    def top_exhaustion(self) -> CompactSet:
        return self.exhaustion[-1]

    @cached_property
    def _resolution_tol(self) -> float:
        """Default tolerance for "within resolution": the resolution plus
        the float error of a computed distance.  That error scales with the
        distances, so the slack is 8 eps max d, as in the closed-form metric
        certificate; an absolute slack would swamp a resolution below it."""
        return self.resolution + 8 * float(np.finfo(float).eps) * float(self.dmat.max())

    def __repr__(self) -> str:  # short: spaces can hold thousands of points
        return f"SampledSpace({self.name!r}, n={self.n}, resolution={self.resolution})"


# edge of the square tiles _symmetric compares: a pair of 256 x 256 float64
# tiles (1 MB) stays in cache while one of them is read in transposed order
_SYMMETRY_TILE = 256


def _mirror_tiles(d: np.ndarray):
    """The tile ``d[I, J]`` with its mirror ``d[J, I].T`` for every pair of
    index ranges I <= J of edge ``_SYMMETRY_TILE``, and whether I = J (the
    mirror of a diagonal tile is its own transpose).  The tiles and the
    mirrors of the off-diagonal ones cover ``d`` once; no full transpose
    is read."""
    n = len(d)
    step = _SYMMETRY_TILE
    for i in range(0, n, step):
        for j in range(i, n, step):
            yield d[i:i + step, j:j + step], d[j:j + step, i:i + step].T, i == j


def _tiles_close(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """A tile against its mirror, first exactly and, only where that fails,
    with ``allclose`` in both directions (its tolerance scales with the
    second argument, and the full check compares the pair (i, j) once as
    ``d[i, j]`` against ``d[j, i]`` and once the other way round)."""
    return np.array_equal(a, b) or (np.allclose(a, b, atol=atol) and np.allclose(b, a, atol=atol))


def _symmetric(d: np.ndarray, atol: float) -> bool:
    """``np.allclose(d, d.T, atol=atol)``, tile by tile, with no n^2
    temporary."""
    return all(_tiles_close(a, b, atol) for a, b, _ in _mirror_tiles(d))


def product(a: SampledSpace, b: SampledSpace, name: str | None = None) -> SampledSpace:
    """Cartesian product with the max metric; exhaustion is the product of
    exhaustions, resolution the max of resolutions."""
    na, nb = a.n, b.n
    ids = tuple(f"{pa}|{pb}" for pa in a.points for pb in b.points)
    dmat = _max_dist(a.dmat, b.dmat)
    depth = max(len(a.exhaustion), len(b.exhaustion))
    exhaustion = []
    for m in range(depth):
        ka = a.exhaustion[min(m, len(a.exhaustion) - 1)]
        kb = b.exhaustion[min(m, len(b.exhaustion) - 1)]
        members = [ia * nb + ib for ia in ka.members for ib in kb.members]
        exhaustion.append(CompactSet(tuple(sorted(members)), label=f"{ka.label}x{kb.label}"))
    isolated = np.repeat(a.isolated, nb) & np.tile(b.isolated, na)
    return SampledSpace(
        name=name or f"{a.name}x{b.name}",
        points=ids,
        dmat=dmat,
        exhaustion=tuple(exhaustion),
        resolution=max(a.resolution, b.resolution),
        isolated=isolated,
        metric_form={"form": "product", "a": a.metric_form, "b": b.metric_form},
        aux={"kind": "product", "a": a, "b": b},
    )


# ----------------------------------------------------------------------
# closed-form metrics: the coordinate and distance helpers below are the only
# copy of each formula, shared by the constructors and by the certificate in
# validate_metric


def _line_coords(step: float, window) -> np.ndarray:
    lo, hi = window
    if not (step > 0 and hi > lo):
        raise ValueError("bad line parameters")
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


def _line_dist(coords: np.ndarray) -> np.ndarray:
    """|x_i - x_j|."""
    d = np.subtract.outer(coords, coords)
    return np.abs(d, out=d)


def _circle_angles(count: int) -> np.ndarray:
    if count < 3:
        raise ValueError("circle needs at least 3 points")
    return 2 * math.pi * np.arange(count) / count


def _circle_dist(angles: np.ndarray) -> np.ndarray:
    """Arc length min(|a_i - a_j|, 2 pi - |a_i - a_j|)."""
    d = _line_dist(angles)
    return np.minimum(d, 2 * math.pi - d, out=d)


def _remark25_coords(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second coordinates: the column (0, 1..n_max), (0, inf),
    then the block (i, j) row by row."""
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    ks = np.arange(1.0, n_max + 1)
    first = np.concatenate([np.zeros(n_max + 1), np.repeat(ks, n_max)])
    second = np.concatenate([ks, [math.inf], np.tile(ks, n_max)])
    return first, second


def _onepoint01N_levels(n_max: int) -> np.ndarray:
    """Level k of (0, k) and (1, k), then inf for the point at infinity."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    ks = np.arange(1.0, n_max + 1)
    return np.concatenate([ks, ks, [math.inf]])


def _dyadic_dist(level: np.ndarray, first: np.ndarray | None = None) -> np.ndarray:
    """2^-min(level_i, level_j) between distinct points, and 1 when either
    point has a first coordinate >= 1 (remark25's isolated block).

    One n^2 pass: with ``q = 2^-level``, and ``q = 1`` on the isolated
    block, the matrix is ``max(q_i, q_j)`` off the diagonal.  That is exact:
    2^-x is decreasing, so ``max(2^-a, 2^-b)`` is the very float
    ``2^-min(a, b)`` (0 at level inf), and a pair with an isolated point
    gets ``max(1, q <= 1/2) = 1``."""
    q = np.power(2.0, np.negative(level))
    if first is not None:
        q[first >= 1] = 1.0
    d = np.maximum.outer(q, q)
    np.fill_diagonal(d, 0.0)
    return d


def _max_dist(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Max metric on a product whose point (ia, ib) has index ia * nb + ib."""
    na, nb = len(da), len(db)
    return np.maximum(da[:, None, :, None], db[None, :, None, :]).reshape(na * nb, na * nb)


def _formula(form: dict) -> tuple[int, Callable[[], np.ndarray]] | None:
    """(point count, distance-matrix builder) of a closed-form metric tag,
    made from the tag's parameters alone; None for any other tag."""
    kind = form.get("form")
    if kind == "line":
        x = _line_coords(form["step"], form["window"])
        return len(x), lambda: _line_dist(x)
    if kind == "circle":
        x = _circle_angles(form["count"])
        return len(x), lambda: _circle_dist(x)
    if kind == "remark25":
        first, second = _remark25_coords(form["n_max"])
        return len(first), lambda: _dyadic_dist(second, first)
    if kind == "onepoint01N":
        x = _onepoint01N_levels(form["n_max"])
        return len(x), lambda: _dyadic_dist(x)
    if kind == "product":
        fa, fb = _formula(form["a"]), _formula(form["b"])
        if fa is not None and fb is not None:
            return fa[0] * fb[0], lambda: _max_dist(fa[1](), fb[1]())
    return None


def _line(step: float = 0.01, window: tuple[float, float] = (-10.0, 10.0), name: str = "line") -> SampledSpace:
    lo, hi = window
    coords = _line_coords(step, window)
    count = len(coords)
    ids = tuple(f"x{c:+.6g}" for c in coords)
    dmat = _line_dist(coords)
    bound = max(abs(lo), abs(hi))
    exhaustion = []
    m = 1
    while True:
        members = np.nonzero(np.abs(coords) <= min(m, bound) + 1e-12)[0]
        if members.size:
            exhaustion.append(CompactSet(tuple(int(i) for i in members), label=f"[-{m},{m}]"))
        if m >= bound:
            break
        m += 1
    if not exhaustion or len(exhaustion[-1]) != count:
        exhaustion.append(CompactSet(tuple(range(count)), label="window"))
    return SampledSpace(
        name=name,
        points=ids,
        dmat=dmat,
        exhaustion=tuple(exhaustion),
        resolution=step / 2,  # every ideal window point is within half a step
        isolated=np.zeros(count, dtype=bool),
        metric_form={"form": "line", "step": step, "window": [lo, hi]},
        aux={"kind": "line", "coords": coords, "step": step, "window": (lo, hi)},
    )


def _circle(count: int = 64, name: str = "circle") -> SampledSpace:
    angles = _circle_angles(count)
    ids = tuple(f"c{k:03d}" for k in range(count))
    dmat = _circle_dist(angles)
    return SampledSpace(
        name=name,
        points=ids,
        dmat=dmat,
        exhaustion=(CompactSet(tuple(range(count)), label="circle"),),
        resolution=math.pi / count,  # half the arc spacing
        isolated=np.zeros(count, dtype=bool),
        metric_form={"form": "circle", "count": count},
        aux={"kind": "circle", "angles": angles, "count": count},
    )


def _remark25(n_max: int = 50) -> SampledSpace:
    """Two-part space: a column of pairs (0, x) for x in 1..n_max plus a
    point at infinity, and an n_max-by-n_max block of isolated pairs (i, j).

    Metric: d((0,x),(0,y)) = 2^{-min(x,y)}; any pair involving a point with
    first coordinate >= 1 is at distance 1.  Compact subsets of the ideal
    space are finite sets joined with a terminal segment of the column, so
    the exhaustion grows the isolated block while always carrying the column.
    """
    a, s = _remark25_coords(n_max)
    ids = [f"(0,{x})" for x in range(1, n_max + 1)] + ["(0,inf)"]
    ids += [f"({i},{j})" for i in range(1, n_max + 1) for j in range(1, n_max + 1)]
    n = len(ids)
    dmat = _dyadic_dist(s, a)
    column = list(range(n_max + 1))
    exhaustion = []
    for m in range(1, n_max + 1):
        block = [
            (n_max + 1) + (i - 1) * n_max + (j - 1)
            for i in range(1, m + 1)
            for j in range(1, m + 1)
        ]
        exhaustion.append(CompactSet(tuple(sorted(column + block)), label=f"K{m}"))
    isolated = np.ones(n, dtype=bool)
    isolated[n_max] = False  # (0, inf) is the lone accumulation point
    return SampledSpace(
        name="remark25",
        points=tuple(ids),
        dmat=dmat,
        exhaustion=tuple(exhaustion),
        resolution=2.0 ** (-n_max),
        isolated=isolated,
        metric_form={"form": "remark25", "n_max": n_max},
        aux={"kind": "remark25", "n_max": n_max, "first": a, "second": s},
    )


def _onepoint01N(n_max: int = 50) -> SampledSpace:
    """One-point compactification of {0,1} x N, truncated at n_max.

    Metric: d((i,k),(j,m)) = 2^{-min(k,m)} for distinct points and
    d((i,k), inf) = 2^{-k}.  The whole space is compact.
    """
    kv = _onepoint01N_levels(n_max)
    ids = [f"({i},{k})" for i in (0, 1) for k in range(1, n_max + 1)] + ["inf"]
    n = len(ids)
    dmat = _dyadic_dist(kv)
    isolated = np.ones(n, dtype=bool)
    isolated[-1] = False
    return SampledSpace(
        name="onepoint01N",
        points=tuple(ids),
        dmat=dmat,
        exhaustion=(CompactSet(tuple(range(n)), label="all"),),
        resolution=2.0 ** (-n_max),
        isolated=isolated,
        metric_form={"form": "onepoint01N", "n_max": n_max},
        aux={"kind": "onepoint01N", "n_max": n_max, "level": kv},
    )


def builtin_space(name: str, **params) -> SampledSpace:
    """Gallery of concrete spaces at configurable resolution.

    Names: line, circle, plane, remark25, onepoint01N, circle_x_interval.
    """
    if name == "line":
        return _line(
            step=params.get("step", params.get("resolution", 0.01)),
            window=tuple(params.get("window", (-10.0, 10.0))),
        )
    if name == "circle":
        return _circle(count=params.get("count", 64))
    if name == "plane":
        axis = _line(
            step=params.get("step", params.get("resolution", 0.25)),
            window=tuple(params.get("window", (-2.0, 2.0))),
        )
        return product(axis, axis, name="plane")
    if name == "remark25":
        return _remark25(n_max=params.get("n_max", 50))
    if name == "onepoint01N":
        return _onepoint01N(n_max=params.get("n_max", 50))
    if name == "circle_x_interval":
        circ = _circle(count=params.get("count", 48))
        seg = _line(
            step=1.0 / (params.get("levels", 16) - 1),
            window=(0.0, 1.0),
            name="interval",
        )
        return product(circ, seg, name="circle_x_interval")
    raise ValueError(f"unknown builtin space: {name!r}")


def validate_metric(space: SampledSpace) -> dict:
    """Check metric axioms on the sample.

    Symmetry and identity of indiscernibles are always checked in full.  The
    triangle inequality is checked in one of three modes, each at tolerance
    1e-9:

    - ``"closed-form"``, when ``metric_form`` is a line, circle, remark25
      or onepoint01N tag, or a max-product of these, whose formula has n
      points: the formula matrix F is rebuilt from the tag's parameters
      alone and compared with the sample in O(n^2).  F is a metric in exact
      arithmetic, and rounding moves each entry by at most 2 eps max F, so
      every triangle gap ``d(i, j) - d(i, k) - d(k, j)`` on the sample is at
      most ``triangle_gap_bound = 3 * formula_defect + 8 * eps * max(max d,
      max F)`` with ``formula_defect = max |dmat - F|``.  The triangle
      inequality is certified when that bound is at most the tolerance; no
      triple is examined.
    - ``"exhaustive"``: all n^3 triples, when n <= 2500.
    - ``"random"``: 100,000 random triples, seed 0, otherwise.
    """
    tol = 1e-9
    d = space.dmat
    n = space.n
    report = {
        "n": n,
        "symmetric": _symmetric(d, tol),
        "identity": bool(np.all(np.abs(np.diag(d)) <= tol)),
    }
    formula = _formula(space.metric_form)
    if formula is not None and formula[0] == n:
        f = formula[1]()
        scale = max(float(d.max()), float(f.max()))
        defect = float(np.abs(np.subtract(d, f, out=f), out=f).max())
        bound = 3 * defect + 8 * float(np.finfo(float).eps) * scale
        report.update(mode="closed-form", formula=space.metric_form, formula_defect=defect,
                      triangle_gap_bound=bound, triples_checked=0, triangle_ok=bound <= tol)
        report["ok"] = report["symmetric"] and report["identity"] and report["triangle_ok"]
        return report
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
    report["ok"] = report["symmetric"] and report["identity"] and report["triangle_ok"]
    return report
