"""The renorming engine: seminorm ensemble, certified sup, and dual solves.

The new norm is the sup of seminorms indexed by window tuples over the base
points: the head slot is weighted by lambda_i and each later slot by the
reciprocal class weight of the tuple's prefix.  The engine enumerates every
consecutive pair at every base index plus all windows up to the truncation
depth, so the computed sup dominates the plain sup norm whenever the base
orbits cover the sample; omitted deeper windows are covered by a certified
geometric tail on enumeration indices.

Dual norms of atomic combinations reduce to unit solutions of upper
triangular systems whose strictly-upper entries are reciprocal class
weights; back substitution keeps every entry inside [4/5, 1].
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .operators import GroupSpec
from .orbits import select_dense_points
from .space import SampledSpace, _acts_on, _integer, _positive
from .tuples import (
    BCAssignment,
    ClassRegistry,
    TupleIndex,
    choose_parameters,
    enumeration_tail,
    exceptional_classes,
    verify_bmap,
)

__all__ = [
    "TriangularSystem",
    "solve_unit",
    "RenormConfig",
    "build_config",
    "TupleBudgetError",
    "rho",
    "triple_norm",
    "gamma_cap_trace",
    "NormResult",
    "build_matrix",
    "dual_norm_delta",
    "dual_norm_atoms",
    "WitnessSpec",
    "witness_function",
    "witness_for_tuple",
    "find_cutoff",
]

_ZETA_MARGIN = 1e-12


def _zeta_column_bound(col: int) -> float:
    """Hypothesis bound for strictly-upper entries in 0-based column col."""
    return 9.0 ** (4 - 3 * (col + 1))


@functools.lru_cache(maxsize=64)
def _system_masks(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lower triangle, diagonal included, of an s x s system, the bound
    of every strictly-upper entry (infinite elsewhere), and the largest
    value each entry may hold: its bound above the diagonal, 0 on and below
    it; read-only."""
    lower = np.tri(s, dtype=bool)
    bound = np.full((s, s), np.inf)
    for k in range(1, s):
        bound[:k, k] = _zeta_column_bound(k) + _ZETA_MARGIN
    high = np.where(lower, 0.0, bound)
    lower.flags.writeable = bound.flags.writeable = high.flags.writeable = False
    return lower, bound, high


@dataclass
class TriangularSystem:
    """Upper triangular system with near-one diagonal.

    ``lambdas`` is the diagonal (decreasing, inside [1, 1.1]); ``zeta`` holds
    the strictly-upper entries, column k bounded by 9^(4-3(k+1)) in 0-based
    indexing, which is the classical column bound after the index shift.
    """

    lambdas: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.zeta = np.asarray(self.zeta, dtype=float)
        s = self.size
        if self.zeta.shape != (s, s):
            raise ValueError("zeta shape mismatch")
        lower, bound, high = _system_masks(s)
        lam = self.lambdas.tolist()
        # a valid system passes in one range check of zeta and one pass over
        # the diagonal (NaN fails every comparison); only a system that
        # fails them is scanned rule by rule, for the first broken rule
        if (np.logical_and.reduce((self.zeta >= 0) & (self.zeta <= high), axis=None)
                and all(1.0 <= b <= 1.1 + _ZETA_MARGIN and b - a <= _ZETA_MARGIN
                        for a, b in zip(lam[:1] + lam, lam))):
            return
        lam = self.lambdas
        if self.zeta[lower].any():  # any entry != 0, NaN included
            raise ValueError("zeta must be strictly upper triangular")
        off = np.flatnonzero(~((lam >= 1.0) & (lam <= 1.1 + _ZETA_MARGIN)))  # NaN fails too
        if off.size:
            raise ValueError(f"diagonal must lie in [1, 1.1]: entry {off[0]} is {lam[off[0]]}")
        if (lam[1:] - lam[:-1] > _ZETA_MARGIN).any():
            raise ValueError("diagonal must be non-increasing")
        negative = np.argwhere(~(self.zeta >= 0))  # NaN fails too
        if negative.size:
            j, k = negative[0]
            raise ValueError(f"zeta entries must be nonnegative: entry ({j}, {k}) is {self.zeta[j, k]}")
        over = self.zeta > bound
        if over.any():
            raise ValueError(
                f"zeta bound violation in column {int(over.any(axis=0).argmax())}: "
                "entries exceed the hypothesis bound (is L <= 9?)"
            )

    @property
    def size(self) -> int:
        return len(self.lambdas)

    def matrix(self) -> np.ndarray:
        return np.diag(self.lambdas) + self.zeta


def solve_unit(T: TriangularSystem) -> np.ndarray:
    """Back substitution for the unit right-hand side.

    Entries are asserted to land in [4/5, 1]; anything else indicates the
    hypothesis bounds were violated upstream.
    """
    s = T.size
    z = np.zeros(s)
    for k in range(s - 1, -1, -1):
        acc = 1.0 - float(T.zeta[k, k + 1 : s] @ z[k + 1 :])
        z[k] = acc / T.lambdas[k]
        if not (0.8 - _ZETA_MARGIN <= z[k] <= 1.0 + _ZETA_MARGIN):
            raise ValueError(f"hypothesis violation at index {k}: entry {z[k]}")
    return z


# ----------------------------------------------------------------------
# configuration: base points, orbit enumerations, tuple plans


# the most window tuples a configuration may enumerate
MAX_TUPLES = 2_000_000


class TupleBudgetError(ValueError):
    """The window tuples of a configuration exceed ``MAX_TUPLES``, or its
    gamma_cap admits none."""


@dataclass
class WindowPlan:
    """Vectorized evaluation block: all enumerated tuples of one length.

    Row r is the tuple starting at base index ``starts[r]`` with orbit
    labels ``gammas[r]``; the weight row holds lambda_start followed by the
    reciprocal class weights of the prefixes.
    """

    n: int
    starts: np.ndarray   # (T,) base start indices
    gammas: np.ndarray   # (T, n+1) orbit labels
    idx: np.ndarray      # (T, n+1) sample indices
    weights: np.ndarray  # (T, n+1) lambda / reciprocal weights
    # (T,) the row of the level below that row r extends by its last slot:
    # of the head table for plans 0 and 1 (plan 0 adds no slot, and its
    # rows are the head table's last ones), of plan n-1 for n >= 2; None on
    # the head table itself.  Nondecreasing on plans 1, 2, ..., so the
    # children of a row are one range of rows
    parent: np.ndarray | None = field(repr=False)
    # (T,) the largest orbit label of each row, at least its parent's; read
    # by gamma_cap_trace alone
    top: np.ndarray = field(init=False, repr=False)
    # the largest weight of the last slot, which bounds the level's terms
    last_max: float = field(init=False, repr=False)
    # the last slot's columns of idx and weights, as views: contiguous on
    # the plans that ``_extend`` stores column-major
    _last_idx: np.ndarray = field(init=False, repr=False)
    _last_weight: np.ndarray = field(init=False, repr=False)
    # on plans 1, 2, ...: the children of row p of the level below are the
    # child_count[p] rows from child_start[p], and the rows of that level
    # past len(child_count) have none; child_rank is 0, 1, ... up to the
    # most children of one row.  None on the head table and plan 0
    child_start: np.ndarray | None = field(init=False, repr=False)
    child_count: np.ndarray | None = field(init=False, repr=False)
    child_rank: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        self.top = self.gammas.max(axis=1)
        self._last_idx, self._last_weight = self.idx[:, -1], self.weights[:, -1]
        self.last_max = float(self._last_weight.max())
        self.child_start = self.child_count = self.child_rank = None
        if self.n >= 1:
            edges = self.parent.searchsorted(np.arange(self.parent[-1] + 2))
            self.child_start, self.child_count = edges[:-1], np.diff(edges)
            self.child_rank = np.arange(self.child_count.max())

    @property
    def count(self) -> int:
        return self.idx.shape[0]


@dataclass(eq=False)
class RenormConfig:
    """Everything needed to evaluate the seminorm ensemble and its duals."""

    space: SampledSpace
    group: GroupSpec
    bc: BCAssignment
    depth: int
    gamma_cap: int | None
    base_points: tuple[int, ...]
    orbit_enums: tuple[tuple[int, ...], ...]
    registry: ClassRegistry
    plans: list[WindowPlan]
    coverage_defect: float
    selection_audit: list
    bmap_report: dict
    gamma_capped: bool
    # nearest base-orbit slot of every sample point: distance, 1-based base
    # index and orbit label; ties go to the lowest base, then to the label
    slot_dist: np.ndarray = field(repr=False)
    slot_base: np.ndarray = field(repr=False)
    slot_gamma: np.ndarray = field(repr=False)
    # the head slot of every start: the root level of the plan rows' prefix tree
    heads: WindowPlan = field(repr=False)

    def lam(self, i: int) -> float:
        return self.bc.lam(i)

    @functools.cached_property
    def _lambdas(self) -> np.ndarray:
        """lambda_i at position i - 1 for every base index i, the head table's
        first weight of each start; read-only, as systems hold slices of it."""
        row = self.heads.weights[self.heads.starts.searchsorted(np.arange(1, self.base_count + 1)), 0]
        row.flags.writeable = False
        return row

    @functools.cached_property
    def _tree(self) -> tuple:
        """What both walks, ``_max_walk`` and ``gamma_cap_trace``'s, read of
        the plans, bound once: the head table's last-slot columns, its row
        count, plan 0's offset in it and plan 0; per deeper plan, how many
        rows of the level above have children in it and the plan; each
        deeper plan's ``last_max``."""
        heads, (plan0, *deeper) = self.heads, self.plans
        return (heads._last_idx, heads._last_weight, heads.count, heads.count - plan0.count, plan0,
                tuple((len(plan.child_count), plan) for plan in deeper), tuple(plan.last_max for plan in deeper))

    @functools.cached_property
    def _truncation_tail(self) -> float:
        """The geometric tail of the window weights beyond the enumeration
        index of the last in-depth window; the same on every call."""
        return enumeration_tail(self.bc, self.depth * (self.depth - 1) // 2)

    @property
    def base_count(self) -> int:
        return len(self.base_points)

    def orbit_of_base(self, i: int) -> tuple[int, ...]:
        """Enumerated orbit of the i-th base point (1-based i)."""
        return self.orbit_enums[i - 1]

    def tuple_index(self, start: int, gammas: Sequence[int]) -> TupleIndex:
        if not 1 <= start <= start + len(gammas) - 1 <= self.base_count:
            raise ValueError(f"window of {len(gammas)} bases from base {start} "
                             f"outside bases 1..{self.base_count}")
        pts = []
        for j, g in enumerate(gammas):
            enum = self.orbit_of_base(start + j)
            if not 0 <= g < len(enum):
                raise ValueError(f"gamma label {g} outside enumerated orbit of base {start + j}")
            pts.append(enum[g])
        return TupleIndex(start=start, gammas=tuple(int(g) for g in gammas), points=tuple(pts))

    def base_tuple(self, start: int, n: int) -> TupleIndex:
        return self.tuple_index(start, (0,) * (n + 1))

    def classify_slots(self, points: Sequence[int], tol: float | None = None):
        """Per-slot labels of the nearest base-orbit slot within tol, by default
        the same-point rule: (base index, gamma) or None."""
        tol = self.space._same_point_tol if tol is None else tol
        return [
            (int(self.slot_base[p]), int(self.slot_gamma[p])) if self.slot_dist[p] <= tol else None
            for p in points
        ]

    def window_tuple(self, points: Sequence[int]) -> TupleIndex | None:
        """The window tuple the points occupy: each point must be a base-orbit
        slot itself; None when a point is not one or the slots' base indices
        are not consecutive."""
        slots = self.classify_slots(points, 0)
        if any(s is None for s in slots):
            return None
        start = slots[0][0]
        if [s[0] for s in slots] != list(range(start, start + len(slots))):
            return None
        return TupleIndex(start, tuple(s[1] for s in slots), tuple(int(p) for p in points))

    def provenance(self) -> dict:
        return {
            "C": self.bc.C,
            "L": self.bc.L,
            "lambda_rule": "1 + (C-1) * 2^-i",
            # the text predates the one rule; kept so saved reports stay byte-identical
            "class_exponent_rule": "3m - 1/ordinal (last class of a declared-finite family gets 3m)",
            "depth": self.depth,
            "gamma_cap": self.gamma_cap,
            "word_cap": self.group.word_cap,
            "base_count": self.base_count,
            "coverage_defect": self.coverage_defect,
            "resolution": self.space.resolution,
        }


def _labels(sizes: np.ndarray) -> np.ndarray:
    """The labels 0, 1, ..., r - 1 of every size r, concatenated."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _extend(block: np.ndarray, parent: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Rows ``block[parent]`` with the column ``last`` appended, stored
    column-major so that evaluation reads every last column contiguously;
    gathered column by column, with no row-major copy of the block."""
    out = np.empty((len(parent), block.shape[1] + 1), dtype=block.dtype, order="F")
    for j in range(block.shape[1]):
        out[:, j] = block[:, j].take(parent)
    out[:, -1] = last
    return out


def _dense(values: np.ndarray) -> np.ndarray:
    """The rank of each value among the distinct values."""
    return np.unique(values, return_inverse=True)[1]


def _class_weights(registry: ClassRegistry, bc: BCAssignment, starts: np.ndarray,
                   idx: np.ndarray, cls: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Reciprocal class weight of every full row of a plan block.

    Rows of one class share ``cls``, and ``rank`` orders the rows by
    (start, idx).  Each class is classified once, through its smallest-rank
    row and in rank order, which is the order a scan over each window's
    sorted rows first meets the classes in; so new classes get the same
    ordinals as that scan gives them.
    """
    head = np.full(int(cls.max()) + 1, len(rank))
    np.minimum.at(head, cls, rank)
    row_of = np.empty_like(rank)
    row_of[rank] = np.arange(len(rank))
    rows = row_of[np.sort(head)]
    infos = [registry.classify(start, row) for start, row in zip(starts[rows].tolist(), idx[rows].tolist())]
    recip = np.empty(len(head))
    recip[cls[rows]] = bc.class_recips(*np.array([info.ratio for info in infos]).T)
    return recip[cls]


def build_config(
    space: SampledSpace,
    group: GroupSpec,
    C: float = 1.1,
    depth: int = 6,
    gamma_cap: int | None = None,
    base_count: int | None = None,
) -> RenormConfig:
    """Select base points, enumerate orbits and window tuples, populate the
    class registry, and verify the weight-map properties at depth."""
    _integer(depth, "depth", 2)
    if base_count is not None:
        _integer(base_count, "base_count", depth)
    if gamma_cap is not None:  # a cap that admits no tuple is a budget error
        _integer(gamma_cap, "gamma_cap", 1, TupleBudgetError)
    bc = choose_parameters(C)
    _acts_on(group.space, space, "group")
    base, audit = select_dense_points(space, group, count=base_count)
    if len(base) < depth:
        raise ValueError(f"only {len(base)} base points selectable; depth {depth} needs at least that many")
    registry = ClassRegistry(group.word_table()[0])
    # each base orbit lists its distinct word images in word order
    orbit_enums = [tuple(dict.fromkeys(col)) for col in registry.word_maps[:, list(base)].T.tolist()]

    # tuples vary the last slot fastest over the capped orbit sizes; plan 0
    # is the bare head term of the last base index, whose pair partner lies
    # beyond the sampled window, plan 1 every consecutive pair, and plan
    # n >= 2 the windows (start, n) inside the depth.  The pair family
    # makes the sup dominate the plain sup norm wherever the base orbits
    # cover the sample.
    B = len(base)
    lengths = np.array([len(e) for e in orbit_enums], dtype=np.intp)
    sizes = lengths if gamma_cap is None else np.minimum(lengths, gamma_cap)
    gamma_capped = bool((sizes < lengths).any())
    last_start = {1: B - 1, **{n: depth - n for n in range(2, depth)}}
    counts = sizes.tolist()  # Python integers: no product overflows
    total = counts[-1] + sum(map(operator.mul, counts, counts[1:])) + sum(
        math.prod(counts[s - 1 : s + n]) for n in range(2, depth) for s in range(1, depth - n + 1))
    if total > MAX_TUPLES:
        raise TupleBudgetError(
            f"tuple budget exceeded: depth {depth} with gamma_cap {gamma_cap} enumerates "
            f"{total} window tuples, more than max_tuples {MAX_TUPLES}; lower depth or gamma_cap"
        )

    # orbit label g of base i (1-based) is the point flat[offset[i - 1] + g]
    flat = np.fromiter(itertools.chain.from_iterable(orbit_enums), dtype=np.intp)
    offset = np.cumsum(lengths) - lengths
    lams = np.array([bc.lam(i) for i in range(1, B + 1)])
    # level 0, the head table: the head slot of every start
    starts = np.repeat(np.arange(1, B + 1, dtype=np.intp), sizes)
    gam = _labels(sizes)[:, None]
    idx = flat[offset[starts - 1] + gam[:, 0]][:, None]
    weights = lams[starts - 1][:, None]
    heads = WindowPlan(n=0, starts=starts, gammas=gam, idx=idx, weights=weights, parent=None)
    head = np.flatnonzero(starts == B)
    plans = [WindowPlan(n=0, starts=starts[head], gammas=gam[head], idx=idx[head],
                        weights=weights[head], parent=head)]
    # the level state: the words whose image of each row is its key, the
    # row's class among the (start, key) pairs, and its rank in (start,
    # idx) order, each level refined from its parent's
    N = space.n
    words = np.ones((len(registry.word_maps), len(idx)), dtype=bool)
    entry, words = registry.extend_keys(idx[:, 0], words)
    cls = _dense(starts * N + entry)
    rank = _dense(starts * N + idx[:, 0])
    for n, last in last_start.items():
        # window (start, n) repeats every row of its parent window (start,
        # n-1) once per label of its new last slot
        keep = int(np.searchsorted(starts, last, side="right"))
        reps = sizes[starts[:keep] + n - 1]
        parent = np.repeat(np.arange(keep), reps)
        starts = starts[parent]
        g = _labels(reps)
        gam = _extend(gam, parent, g)
        idx = _extend(idx, parent, flat[offset[starts + n - 1] + g])
        entry, words = registry.extend_keys(idx[:, -1], words[:, parent])
        cls = _dense(cls[parent] * N + entry)
        rank = _dense(rank[parent] * N + idx[:, -1])
        weights = _extend(weights, parent, _class_weights(registry, bc, starts, idx, cls, rank))
        plans.append(WindowPlan(n=n, starts=starts, gammas=gam, idx=idx, weights=weights, parent=parent))
    del words, entry, cls, rank

    # each orbit point keeps its first slot; columns in slot order make the
    # first nearest column the nearest slot under the tie rule
    order = np.argsort(flat, kind="stable")  # flat lists the slots in order
    first = np.sort(order[np.diff(flat[order], prepend=-1) != 0])
    cols, slots = flat[first], np.column_stack([np.repeat(np.arange(1, B + 1), lengths), _labels(lengths)])[first]
    # an orbit point is its own nearest slot, since the space keeps distinct
    # points at positive distance; only the other rows are computed
    nearest = np.full(space.n, -1, dtype=np.intp)
    nearest[cols] = np.arange(len(cols))
    rest = np.flatnonzero(nearest < 0)
    nearest[rest] = space.metric.nearest(rest, cols)
    slot_dist = space.metric.pair(np.arange(space.n), cols[nearest])
    coverage_defect = float(slot_dist.max())

    report = verify_bmap(bc, depth, registry)
    if not report["ok"]:
        raise ValueError(f"weight-map verification failed: {report['violations'][:3]}")

    return RenormConfig(
        space=space,
        group=group,
        bc=bc,
        depth=depth,
        gamma_cap=gamma_cap,
        base_points=tuple(base),
        orbit_enums=tuple(orbit_enums),
        registry=registry,
        plans=plans,
        coverage_defect=coverage_defect,
        selection_audit=audit,
        bmap_report=report,
        gamma_capped=gamma_capped,
        slot_dist=slot_dist,
        slot_base=slots[nearest, 0],
        slot_gamma=slots[nearest, 1],
        heads=heads,
    )


# ----------------------------------------------------------------------
# seminorms and the certified sup


def rho(t: TupleIndex, x: np.ndarray, cfg: RenormConfig) -> float:
    """Head slot weighted by lambda_start plus reciprocal-weighted tail."""
    x = np.asarray(x, dtype=float)
    total = cfg.lam(t.start) * abs(float(x[t.points[0]]))
    for k in range(1, t.n + 1):
        info = cfg.registry.classify(t.start, t.points[: k + 1])
        total += abs(float(x[t.points[k]])) * cfg.bc.class_recip(*info.ratio)
    return total


@dataclass
class NormResult:
    value: float
    truncation_bound: float
    argmax_window: tuple[int, int]
    argmax_gammas: tuple[int, ...]
    argmax_points: tuple[str, ...]
    gamma_capped: bool
    coverage_defect: float

    @property
    def upper(self) -> float:
        return self.value + self.truncation_bound


def _abs_values(x: np.ndarray, cfg: RenormConfig) -> tuple[np.ndarray, float]:
    """|x| and its max, for an x holding one finite value per sample point."""
    x = np.asarray(x, dtype=float)
    points = cfg.space.points
    if x.shape != (len(points),):
        first = points[x.size] if x.ndim == 1 and x.size < len(points) else None
        raise ValueError(f"function of shape {x.shape} for {len(points)} points; "
                         f"first point without a value: {first!r}")
    ax = np.abs(x)
    sup = ax.item(ax.argmax())  # NaN or inf exactly when some value is
    if not math.isfinite(sup):
        bad = np.flatnonzero(~np.isfinite(x))[0]
        raise ValueError(f"non-finite value {x[bad]} at point {points[bad]!r}")
    return ax, sup


def _floor(need: float, steps: Sequence[float]) -> float:
    """A value at or below the least v >= 0 whose chain of the non-negative
    ``steps``, fl(...fl(fl(v + s_1) + s_2)... + s_k) added left to right,
    reaches ``need``, a float or inf: no v below it reaches.

    The chain never decreases in v, as IEEE rounding is monotone, and never
    drops below v, so when the float just below the need falls short, the
    need itself is that least value, exactly.  Otherwise each add of the
    chain is fl(a + s) <= (a + s)(1 + eps/2) for a, s >= 0, so a v below
    need (1 - m) - sum(steps)(1 + m), m = 4(k + 1) eps over k steps, keeps
    every partial sum below the need, this bound's own rounding included.
    A need of inf reads as the largest float, which no such sum reaches,
    so no chain from below the bound overflows.
    """
    v = math.nextafter(need, 0.0)
    for s in steps:
        v += s
    if v < need:
        return need
    m = 4 * (len(steps) + 1) * sys.float_info.epsilon
    return min(need, sys.float_info.max) * (1 - m) - sum(steps) * (1 + m)


_NONE = np.empty(0, dtype=np.intp)


def _kept(vals: np.ndarray, need: float, steps: Sequence[float], most: float) -> np.ndarray:
    """The parents, as positions in ``vals``, at or above the floor of
    ``need`` over ``steps`` (``_floor``), none when ``most`` bounds the
    values below it: no parent below the floor has a chain reaching it."""
    floor = _floor(need, steps)
    return _NONE if most < floor else (vals >= floor).nonzero()[0]


def _children(ax: np.ndarray, plan: WindowPlan, rows, keep: np.ndarray, vals: np.ndarray):
    """The rows of ``plan`` that extend the parents ``rows[keep]`` of the
    level above, ascending, and their values, each its parent's value in
    ``vals`` plus its last slot's term.  One parent's children are one
    range of rows, sliced and returned as a ``range``; several parents'
    are gathered."""
    if keep.size == 1:
        k = keep.item()
        lo, parent = plan.child_start.item(rows[k]), rows[k]
        rows = range(lo, lo + plan.child_count.item(parent))
        term = ax.take(plan._last_idx[lo:rows.stop])
        term *= plan._last_weight[lo:rows.stop]
        term += vals[k]
        return rows, term
    parents = keep + rows.start if type(rows) is range else rows.take(keep)
    count = plan.child_count.take(parents)
    kids = plan.child_start.take(parents)[:, None] + plan.child_rank
    rows = kids[plan.child_rank < count[:, None]]
    term = ax.take(plan._last_idx.take(rows))
    term *= plan._last_weight.take(rows)
    term += vals.take(keep).repeat(count)
    return rows, term


def _max_walk(ax: np.ndarray, cfg: RenormConfig, sup: float) -> tuple[float, WindowPlan, int]:
    """The one-cap walk of ``triple_norm``: walk the plan rows' prefix tree
    node by node, a level computing only the children of the parents that
    can still beat the running max.  ``ax`` holds |x| and ``sup`` its max.
    Returns the max over the full tree's rows, and the first plan and the
    first row in it holding that max, recorded as the walk reaches them.

    A row's value is its parent's plus its last slot's term, so every row
    sums left to right, as ``rho`` does, and no row is below its parent.
    The head table is computed whole, plan 0 being its last rows, and each
    head is a row of plan 0 or has a child with the label 0, so the largest
    head value starts the running max.  Rounding is monotone, so no
    descendant of a parent of value v exceeds the chain fl(fl(sup w_n) +
    ...) from v down to the deepest plan, w_n each plan's largest last-slot
    weight.  A descendant matters when it beats the running max, or ties it
    at the head table when no row of plan 0 holds it (deeper, a row of an
    earlier plan holds it).  Each level compares the parents' values with a
    floor at or below the least v whose chain reaches the need (``_kept``):
    a parent kept in excess only adds rows that cannot matter.  So the
    value and the first argmax are bit-identical to the full tree's.
    """
    idx, weight, count, offset, plan, deeper, maxes = cfg._tree
    vals = ax.take(idx)
    vals *= weight
    # the largest value of the level above, the head table first
    best = level = vals.item(vals.argmax())
    first = vals[offset:]
    pos = int(first.argmax())
    value = first.item(pos)
    # what a descendant must reach to matter: above the running max, or
    # level with it where no row of plan 0 holds it
    need = best if best > value else math.nextafter(value, math.inf)
    steps = [sup * m for m in maxes]
    # the computed rows of the level above, as parents: the head table first
    rows = range(count)
    for i, (ends, below) in enumerate(deeper):
        # the parents with children are the rows before ends
        have = min(rows.stop, ends) - rows.start if type(rows) is range else int(rows.searchsorted(ends))
        if have <= 0:
            break
        keep = _kept(vals[:have], need, steps[i:], level)
        if not keep.size:
            break
        rows, vals = _children(ax, below, rows, keep, vals)
        j = vals.argmax()
        level = vals.item(j)
        if level > value:
            value, plan, pos = level, below, int(rows[j])
        if level > best:
            best = level
        need = math.nextafter(best, math.inf)
    return value, plan, pos


def triple_norm(x: np.ndarray, cfg: RenormConfig) -> NormResult:
    """Max of the seminorms over the enumerated tuples, with an additive
    certificate for the omitted deeper windows.

    The plans are evaluated node by node down the prefix tree by the
    one-cap walk (``_max_walk``), which computes a parent's children only
    while the bound on its descendants can still beat the running max.
    The value and the argmax, the first plan and then the first row
    holding the max, are bit-identical to the full tree's.

    The certificate sums the geometric tail of window weights beyond the
    enumeration index of the last in-depth window; when orbit enumerations
    were gamma-capped the tail does not cover the missing labels and the
    result is flagged instead.
    """
    ax, sup = _abs_values(x, cfg)
    value, plan, pos = _max_walk(ax, cfg, sup)
    start = plan.starts.item(pos)
    points = cfg.space.points
    return NormResult(
        value=value,
        truncation_bound=sup * cfg._truncation_tail,
        argmax_window=(start, start + plan.n),
        argmax_gammas=tuple(plan.gammas[pos].tolist()),
        argmax_points=tuple([points[i] for i in plan.idx[pos].tolist()]),
        gamma_capped=cfg.gamma_capped,
        coverage_defect=cfg.coverage_defect,
    )


def gamma_cap_trace(x: np.ndarray, cfg: RenormConfig, caps: Sequence[int]) -> list[tuple[int, float]]:
    """Norm value as a function of the orbit-label cap.

    No closed-form tail over orbit labels exists, so sensitivity is reported
    instead of a certificate: the trace restricts the enumerated family to
    tuples whose labels all sit below each cap.  A cap of 0 or below holds
    no row, and one above every label holds them all.

    The walk is ``_max_walk``'s with a running max and a need per cap, every
    cap at once.  Each computed row carries its slot, the first cap above
    its largest label, and answers to that cap's need, the least among the
    caps it is below; a row above every cap needs inf.  A row's largest
    label is at least its parent's, so a parent keeps its children while
    its chain, added per row, reaches its slot's need.  A cap where |x|
    vanishes on the head table's points below it, the only points its rows
    reach, holds 0.0; such caps come first and settle at once, and their
    rows answer to the first live cap.  ``sup``, the largest |x| below the
    last cap, bounds the live caps' rows.  Every cap's value is
    bit-identical to the max over the full tree's rows below it.
    """
    for cap in caps:
        _integer(cap, "gamma cap")
    ax = _abs_values(x, cfg)[0]
    caps = sorted({int(cap) for cap in caps})
    idx, weight, count, _, _, deeper, maxes = cfg._tree
    top = cfg.heads.top
    head = ax.take(idx)
    # every label is below the head count, so a cap clipped to it keeps its rows
    at = [min(cap, count) for cap in caps]
    settled = bisect.bisect_right(at, top.min(where=head > 0, initial=count))
    live = at[settled:]
    if not live:
        return [(cap, 0.0) for cap in caps]
    # label -> slot; the labels from the last cap on clip to the slot past it
    table = np.array(live).searchsorted(np.arange(live[-1] + 1), side="right")
    slot = table.take(top, mode="clip")
    sup = head.max(where=slot < len(live), initial=0.0)
    steps = [sup * m for m in maxes]
    vals = head * weight
    # the max of each slot's rows, then the running max below each cap
    most = np.full(len(live) + 1, -math.inf)
    np.maximum.at(most, slot, vals)
    best = np.maximum.accumulate(most)
    rows = range(count)
    for i, (ends, plan) in enumerate(deeper):
        have = min(rows.stop, ends) - rows.start if type(rows) is range else int(rows.searchsorted(ends))
        if have <= 0:
            break
        bound = vals[:have] + steps[i]
        for s in steps[i + 1:]:
            bound += s
        need = np.nextafter(best, math.inf)
        need[-1] = math.inf
        keep = (bound >= need.take(slot[:have])).nonzero()[0]
        if not keep.size:
            break
        rows, vals = _children(ax, plan, rows, keep, vals)
        slot = table.take(plan.top[rows.start:rows.stop] if type(rows) is range else plan.top.take(rows), mode="clip")
        most.fill(-math.inf)
        np.maximum.at(most, slot, vals)
        best = np.maximum(best, np.maximum.accumulate(most))
    return list(zip(caps, [0.0] * settled + best[:-1].tolist()))


# ----------------------------------------------------------------------
# dual machinery


def build_matrix(t: TupleIndex, cfg: RenormConfig) -> TriangularSystem:
    """Triangular system whose row k carries lambda_{start+k} on the diagonal
    and the reciprocal weights of the tuple's inner segments above it.

    Segment (j, k) is a prefix of the suffix t[j:], so its class is read
    from that suffix's one key.  A segment the registry lacks registers
    through ``classify`` in (j, k) order; every segment lies in its own
    window, so neither the read nor that order can move an ordinal.
    """
    s = t.n + 1
    if 1 <= t.start <= t.start + t.n <= cfg.base_count:
        lambdas = cfg._lambdas[t.start - 1 : t.start + t.n]
    else:  # past the last base, or below the first, lam itself answers
        lambdas = np.array([cfg.lam(t.start + k) for k in range(s)])
    zeta = np.zeros((s, s))
    registry = cfg.registry
    for j in range(s - 1):
        found = registry.prefix_classes(t.start + j, t.points[j:])
        for k, info in enumerate(found, start=j + 1):
            if info is None:
                info = registry.classify(t.start + j, t.points[j : k + 1])
            zeta[j, k] = cfg.bc.class_recip(*info.ratio)
    return TriangularSystem(lambdas=lambdas, zeta=zeta)


def dual_norm_delta(point: int, cfg: RenormConfig) -> float:
    """Dual norm of a unit atom: 1/lambda_i when the nearest base-orbit slot
    within the space's resolution tolerance belongs to the i-th base point,
    1 off every enumerated base orbit."""
    (hit,) = cfg.classify_slots((point,), cfg.space._resolution_tol)
    return 1.0 if hit is None else 1.0 / cfg.lam(hit[0])


def dual_norm_atoms(
    t: TupleIndex,
    beta: Sequence[float],
    cfg: RenormConfig,
) -> tuple[float, np.ndarray]:
    """Dual norm of a beta-weighted atomic combination over a window tuple.

    A point tuple on a consecutive base window resolves to its
    TupleIndex through :meth:`RenormConfig.window_tuple`; equivalent
    tuples share the solution vector.

    Returns (value, fingerprint): the value is beta . a(t), and the
    fingerprint a(t) is the unit solution of the tuple's system.
    """
    beta = np.asarray(beta, dtype=float)
    # NaN fails both comparisons, and an empty beta passes to the length check
    if beta.size and not (beta.min() >= 0.8 - _ZETA_MARGIN and beta.max() <= 1.0 + _ZETA_MARGIN):
        raise ValueError(f"beta {beta.tolist()} outside the [4/5, 1] window")
    if beta.shape != (t.n + 1,):
        raise ValueError("beta length mismatch")
    a = solve_unit(build_matrix(t, cfg))
    return float(beta @ a), a


# ----------------------------------------------------------------------
# witness bumps

# the slack of a witness bump's cutoff, and of the lower bound it gives a
# unit atom's dual norm
WITNESS_EPS = 0.02


@dataclass
class WitnessSpec:
    """Targets and radii for a sum of tent functions with prescribed peaks,
    target k at slot k of the reference tuple."""

    targets: tuple[tuple[int, float], ...]
    ball_radii: tuple[float, ...]
    cutoff_M: int
    tuple_ref: TupleIndex

    def __post_init__(self):
        if len(self.targets) != len(self.ball_radii):
            raise ValueError("radii count mismatch")
        if len(self.targets) != self.tuple_ref.n + 1:
            raise ValueError("one target per slot of the reference tuple required")
        for r in self.ball_radii:
            _positive(r, "ball radius")


def find_cutoff(cfg: RenormConfig, end: int, eps: float) -> int:
    """Smallest M beyond the window end with
    lambda_M + L^(3-M) < min(lambda_{end+1}, 1 + eps)."""
    target = min(cfg.lam(end + 1), 1.0 + eps)
    for M in range(end + 1, cfg.base_count + 1):
        if cfg.lam(M) + cfg.bc.L ** (3.0 - M) < target:
            return M
    raise ValueError("no feasible cutoff within the selected base points")


def _support(space: SampledSpace, target: int, radius: float) -> np.ndarray:
    return space.metric.ball(target, radius - 1e-15)


def witness_function(spec: WitnessSpec, cfg: RenormConfig) -> tuple[np.ndarray, dict]:
    """Tent functions peaking at the targets with prescribed values, zero
    outside the balls; the avoidance restrictions are checked and audited.

    Restriction one: each support avoids every enumerated base orbit with
    index up to the cutoff other than its own slot.  Restriction two: no
    exceptional orbit threads the supports of the reference tuple.
    """
    space = cfg.space
    audit: dict = {"cutoff_M": spec.cutoff_M, "r1_checked": 0, "r2_checked": 0}
    supports = [_support(space, p, r) for (p, _), r in zip(spec.targets, spec.ball_radii)]
    for a in range(len(supports)):
        for b in range(a + 1, len(supports)):
            if np.intersect1d(supports[a], supports[b], assume_unique=True).size:  # ball outputs: sorted, unique
                raise ValueError(f"supports of targets {a} and {b} overlap")
    t = spec.tuple_ref
    for k, ((p, _), sup) in enumerate(zip(spec.targets, supports)):
        for j in range(1, min(spec.cutoff_M, cfg.base_count) + 1):
            if j == t.start + k:
                continue
            orbit = set(cfg.orbit_of_base(j))
            audit["r1_checked"] += 1
            hit = orbit.intersection(int(i) for i in sup)
            if hit:
                raise ValueError(
                    f"infeasible avoidance: support of target {k} meets the "
                    f"orbit of base point {j} at {space.points[next(iter(hit))]}"
                )
    sup_sets = [set(int(v) for v in s) for s in supports]
    for p in range(t.start, t.start + t.n):
        for q in range(1, t.start + t.n - p + 1):
            for info in exceptional_classes(t, p, q, cfg.registry):
                audit["r2_checked"] += 1
                for pts in cfg.registry.word_maps[:, list(info.representative)].tolist():
                    if all(pts[j] in sup_sets[p - t.start + j] for j in range(q + 1)):
                        raise ValueError(
                            f"infeasible avoidance: exceptional orbit (m={info.m}, "
                            f"ordinal {info.ordinal}) threads the supports at ({p},{q})"
                        )
    x = np.zeros(space.n)
    for ((p, u), r, sup) in zip(spec.targets, spec.ball_radii, supports):
        tent = u * np.maximum(0.0, 1.0 - space.metric.pair(p, sup) / r)
        x[sup] = np.maximum(x[sup], tent)
        x[p] = u
    audit["targets"] = [(space.points[p], u) for p, u in spec.targets]
    audit["radii"] = list(spec.ball_radii)
    return x, audit


def witness_for_tuple(t: TupleIndex, cfg: RenormConfig, values: Sequence[float]) -> WitnessSpec:
    """Feasible witness spec for a window tuple: radii shrink to clear the
    forbidden orbits and the other targets, floored at the resolution; the
    cutoff is ``find_cutoff`` at ``WITNESS_EPS``."""
    if len(values) != t.n + 1:
        raise ValueError("one value per slot required")
    M = find_cutoff(cfg, t.start + t.n, WITNESS_EPS)
    space = cfg.space
    radii = []
    for k, p in enumerate(t.points):
        limit = math.inf
        row = space.metric.row(p)
        for j in range(1, min(M, cfg.base_count) + 1):
            if j == t.start + k:
                continue
            orbit = list(cfg.orbit_of_base(j))
            limit = min(limit, float(row[orbit].min()))
        for other in t.points:
            if other != p:
                limit = min(limit, float(row[other]))
        if limit < space.resolution - 1e-15:
            raise ValueError(
                f"resolution too coarse: target {space.points[p]} cannot clear "
                "the forbidden orbits"
            )
        radii.append(min(limit, 4 * space.resolution))
    return WitnessSpec(
        targets=tuple((int(p), float(u)) for p, u in zip(t.points, values)),
        ball_radii=tuple(radii),
        cutoff_M=M,
        tuple_ref=t,
    )
