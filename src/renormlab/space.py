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


@dataclass(frozen=True, eq=False)
class SampledSpace:
    """Finite sample of a locally compact Polish space, immutable: the
    constructor's checks on ``dmat`` hold for the life of the space.

    Attributes:
        name: short human-readable tag.
        points: point ids (strings), index position is the canonical index.
        dmat: full (n, n) distance matrix, read-only.  None with a
            closed-form ``metric_form``, whose formula builds it.
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
    dmat: np.ndarray | None
    exhaustion: tuple[CompactSet, ...]
    resolution: float
    isolated: np.ndarray
    metric_form: dict
    aux: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n = len(self.points)
        if len(set(self.points)) != n:
            raise ValueError("duplicate point ids")
        formula = _formula(self.metric_form)
        if formula is not None:
            if self.dmat is not None:
                raise ValueError(f"metric tag {self.metric_form.get('form')!r} builds its own "
                                 "distance matrix; pass dmat=None")
            if formula[0] != n:
                raise ValueError(f"metric tag has {formula[0]} points, the sample {n}")
            dmat = formula[1]()
        else:
            dmat = np.array(self.dmat, dtype=float)  # the caller's array stays writeable
        dmat.flags.writeable = False
        object.__setattr__(self, "dmat", dmat)
        if dmat.shape != (n, n):
            raise ValueError("distance matrix shape mismatch")
        # one walk over the tile d[I, J] and its mirror d[J, I].T for every
        # pair of index ranges I <= J checks finiteness and symmetry and
        # counts the entries <= 0; no full transpose is read.  A non-finite
        # entry outranks an asymmetry met in an earlier tile, so the walk
        # goes on past one
        symmetric, nonpositive, step = True, 0, _SYMMETRY_TILE
        for lo, hi in ((i, j) for i in range(0, n, step) for j in range(i, n, step)):
            a, b = dmat[lo:lo + step, hi:hi + step], dmat[hi:hi + step, lo:lo + step].T
            tiles = (a,) if lo == hi else (a, b)
            ends = [end(t) for t in tiles for end in (np.min, np.max)]
            if not np.isfinite(ends).all():
                i, j = np.argwhere(~np.isfinite(dmat))[0]
                raise ValueError(f"non-finite distance {dmat[i, j]} between points "
                                 f"{self.points[i]!r} and {self.points[j]!r}")
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
        # an off-diagonal entry <= 0 exists iff there are more such entries
        # than on the diagonal
        if nonpositive > np.count_nonzero(diag <= 0):
            raise ValueError("distinct sample points at zero distance")
        if not self.resolution > 0:
            raise ValueError("resolution must be positive")
        object.__setattr__(self, "isolated", np.asarray(self.isolated, dtype=bool))
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
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})

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


# edge of the square tiles the constructor compares: a pair of 256 x 256 float64
# tiles (1 MB) stays in cache while one of them is read in transposed order
_SYMMETRY_TILE = 256


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
        members = [ia * nb + ib for ia in ka.members for ib in kb.members]
        exhaustion.append(CompactSet(tuple(sorted(members)), label=f"{ka.label}x{kb.label}"))
    isolated = np.repeat(a.isolated, nb) & np.tile(b.isolated, na)
    return SampledSpace(
        name=name or f"{a.name}x{b.name}",
        points=ids,
        # the tag of two closed-form factors builds the matrix itself
        dmat=None if _formula(form) is not None else _max_dist(a.dmat, b.dmat),
        exhaustion=tuple(exhaustion),
        resolution=max(a.resolution, b.resolution),
        isolated=isolated,
        metric_form=form,
        aux={"kind": "product", "a": a, "b": b},
    )


# ----------------------------------------------------------------------
# closed-form metrics: the coordinate and distance helpers below are the only
# copy of each formula; the SampledSpace constructor builds a closed-form
# space's matrix through _formula, once.  Each coordinate helper checks the
# tag params it reads, so a builtin, a space file and a direct constructor
# call meet the same checks


def _integer(value, name: str, least: int) -> int:
    """A param that must be an integer >= least, or an input error naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _finite(value) -> bool:
    return isinstance(value, (int, float, np.number)) and not isinstance(value, bool) and math.isfinite(value)


def _line_coords(step: float, window) -> np.ndarray:
    if not (_finite(step) and step > 0):
        raise ValueError(f"line step must be a finite number > 0, got {step!r}")
    if not (isinstance(window, (list, tuple)) and len(window) == 2 and all(map(_finite, window))
            and window[0] < window[1]):
        raise ValueError(f"line window must be two finite numbers lo < hi, got {window!r}")
    lo, hi = window
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


def _line_dist(coords: np.ndarray) -> np.ndarray:
    """|x_i - x_j|."""
    d = np.subtract.outer(coords, coords)
    return np.abs(d, out=d)


def _circle_angles(count: int) -> np.ndarray:
    count = _integer(count, "circle count", 3)
    return 2 * math.pi * np.arange(count) / count


def _circle_dist(angles: np.ndarray) -> np.ndarray:
    """Arc length min(|a_i - a_j|, 2 pi - |a_i - a_j|)."""
    d = _line_dist(angles)
    return np.minimum(d, 2 * math.pi - d, out=d)


def _remark25_coords(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second coordinates: the column (0, 1..n_max), (0, inf),
    then the block (i, j) row by row."""
    n_max = _integer(n_max, "remark25 n_max", 3)
    ks = np.arange(1.0, n_max + 1)
    first = np.concatenate([np.zeros(n_max + 1), np.repeat(ks, n_max)])
    second = np.concatenate([ks, [math.inf], np.tile(ks, n_max)])
    return first, second


def _onepoint01N_levels(n_max: int) -> np.ndarray:
    """Level k of (0, k) and (1, k), then inf for the point at infinity."""
    n_max = _integer(n_max, "onepoint01N n_max", 2)
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


def _line(step: float, window: tuple[float, float], name: str) -> SampledSpace:
    coords = _line_coords(step, window)
    lo, hi = window
    count = len(coords)
    ids = tuple(f"x{c:+.6g}" for c in coords)
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
        dmat=None,
        exhaustion=tuple(exhaustion),
        resolution=step / 2,  # every ideal window point is within half a step
        isolated=np.zeros(count, dtype=bool),
        metric_form={"form": "line", "step": step, "window": [lo, hi]},
        aux={"kind": "line", "coords": coords, "step": step, "window": (lo, hi)},
    )


def _circle(count: int, name: str) -> SampledSpace:
    angles = _circle_angles(count)
    ids = tuple(f"c{k:03d}" for k in range(count))
    return SampledSpace(
        name=name,
        points=ids,
        dmat=None,
        exhaustion=(CompactSet(tuple(range(count)), label="circle"),),
        resolution=math.pi / count,  # half the arc spacing
        isolated=np.zeros(count, dtype=bool),
        metric_form={"form": "circle", "count": count},
        aux={"kind": "circle", "angles": angles, "count": count},
    )


def _remark25(n_max: int, name: str) -> SampledSpace:
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
        name=name,
        points=tuple(ids),
        dmat=None,
        exhaustion=tuple(exhaustion),
        resolution=2.0 ** (-n_max),
        isolated=isolated,
        metric_form={"form": "remark25", "n_max": n_max},
        aux={"kind": "remark25", "n_max": n_max, "first": a, "second": s},
    )


def _onepoint01N(n_max: int, name: str) -> SampledSpace:
    """One-point compactification of {0,1} x N, truncated at n_max.

    Metric: d((i,k),(j,m)) = 2^{-min(k,m)} for distinct points and
    d((i,k), inf) = 2^{-k}.  The whole space is compact.
    """
    kv = _onepoint01N_levels(n_max)
    ids = [f"({i},{k})" for i in (0, 1) for k in range(1, n_max + 1)] + ["inf"]
    n = len(ids)
    isolated = np.ones(n, dtype=bool)
    isolated[-1] = False
    return SampledSpace(
        name=name,
        points=tuple(ids),
        dmat=None,
        exhaustion=(CompactSet(tuple(range(n)), label="all"),),
        resolution=2.0 ** (-n_max),
        isolated=isolated,
        metric_form={"form": "onepoint01N", "n_max": n_max},
        aux={"kind": "onepoint01N", "n_max": n_max, "level": kv},
    )


def _from_tag(form: dict, name: str | None) -> SampledSpace:
    """The space of a closed-form tag; a product without a name is named after its factors."""
    kind = form.get("form")
    if kind == "line":
        return _line(form["step"], form["window"], name or "line")
    if kind == "circle":
        return _circle(form["count"], name or "circle")
    if kind == "remark25":
        return _remark25(form["n_max"], name or "remark25")
    if kind == "onepoint01N":
        return _onepoint01N(form["n_max"], name or "onepoint01N")
    if kind == "product":  # equal factors (plane) share one factor space
        a = _from_tag(form["a"], None)
        return product(a, a if form["b"] == form["a"] else _from_tag(form["b"], None), name)
    raise ValueError(f"unknown metric form {kind!r}")


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
      or onepoint01N tag, or a max-product of these: the constructor built
      the matrix from the tag's formula F, so ``formula_defect = max |dmat
      - F|`` is 0.  F is a metric in exact arithmetic, and rounding moves
      each entry by at most 2 eps max F, so every triangle gap ``d(i, j) -
      d(i, k) - d(k, j)`` on the sample is at most ``triangle_gap_bound =
      8 * eps * max d``.  The triangle inequality is certified when that
      bound is at most the tolerance; no triple is examined.
    - ``"exhaustive"``: all n^3 triples, when n <= 2500.
    - ``"random"``: 100,000 random triples, seed 0, otherwise.
    """
    tol = 1e-9
    d = space.dmat
    n = space.n
    report = {"n": n, "symmetric": True, "identity": True}
    if _formula(space.metric_form) is not None:
        bound = 8 * float(np.finfo(float).eps) * float(d.max())
        report.update(mode="closed-form", formula=space.metric_form, formula_defect=0.0,
                      triangle_gap_bound=bound, triples_checked=0, triangle_ok=bound <= tol,
                      ok=bound <= tol)
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
    report["ok"] = report["triangle_ok"]
    return report
