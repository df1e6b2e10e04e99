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

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .operators import GroupSpec
from .orbits import select_dense_points
from .space import SampledSpace, _acts_on, _integer
from .tuples import (
    BCAssignment,
    ClassRegistry,
    TupleIndex,
    choose_parameters,
    enumeration_tail,
    exceptional_classes,
    verify_bmap,
)

log = logging.getLogger(__name__)

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
def _system_masks(s: int) -> tuple[np.ndarray, np.ndarray]:
    """The lower triangle, diagonal included, of an s x s system, and the
    bound of every strictly-upper entry (infinite elsewhere); read-only."""
    lower = np.tri(s, dtype=bool)
    bound = np.full((s, s), np.inf)
    for k in range(1, s):
        bound[:k, k] = _zeta_column_bound(k) + _ZETA_MARGIN
    lower.flags.writeable = bound.flags.writeable = False
    return lower, bound


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
        lower, bound = _system_masks(s)
        lam = self.lambdas
        if self.zeta[lower].any():  # any entry != 0, NaN included
            raise ValueError("zeta must be strictly upper triangular")
        if (lam < 1.0).any() or (lam > 1.1 + _ZETA_MARGIN).any():
            raise ValueError("diagonal must lie in [1, 1.1]")
        if (lam[..., 1:] - lam[..., :-1] > _ZETA_MARGIN).any():
            raise ValueError("diagonal must be non-increasing")
        if (self.zeta < 0).any():
            raise ValueError("zeta entries must be nonnegative")
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
    # of the head table for plans 0 and 1 (plan 0 adds no slot), of plan
    # n-1 for n >= 2; None on the head table itself
    parent: np.ndarray | None = field(repr=False)
    # the rows sorted stably by their largest orbit label, the distinct
    # labels ascending, and where each label's rows start in that order:
    # the rows below a cap are a prefix of it
    cap_order: np.ndarray = field(init=False, repr=False)
    cap_labels: np.ndarray = field(init=False, repr=False)
    cap_starts: np.ndarray = field(init=False, repr=False)
    # the largest weight of the last slot, which bounds the level's terms
    last_max: float = field(init=False, repr=False)

    def __post_init__(self):
        top = self.gammas.max(axis=1)
        self.cap_order = np.argsort(top, kind="stable")
        self.cap_labels, self.cap_starts = np.unique(top[self.cap_order], return_index=True)
        self.last_max = float(self.weights[:, -1].max())

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
    # 1 / lambda_i of every base point (0-based)
    inv_lam: np.ndarray = field(repr=False)
    # the block-diagonal pairs of base-orbit points: sample indices of the
    # pairs' row and column points, where each row point's pairs start, and
    # where each orbit's row points start
    orbit_pairs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    def lam(self, i: int) -> float:
        return self.bc.lam(i)

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
        """Per-slot labels of the nearest base-orbit slot within tol:
        (base index, gamma) or None."""
        tol = 2 * self.space.resolution if tol is None else tol
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
    recip = np.empty(len(head))
    for c, start, row in zip(cls[rows].tolist(), starts[rows].tolist(), idx[rows].tolist()):
        p, q = registry.classify(start, row).ratio
        recip[c] = bc.inv_L_pow(p / q)  # p / q rounds once, as float(Fraction) does
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
    if gamma_cap is not None and (isinstance(gamma_cap, bool)
                                  or not isinstance(gamma_cap, (int, np.integer)) or gamma_cap < 1):
        raise TupleBudgetError(f"gamma_cap must be None or an integer >= 1, got {gamma_cap!r}")
    bc = choose_parameters(C)
    _acts_on(group.space, space, "group")
    base, audit = select_dense_points(space, group, count=base_count)
    if len(base) < depth:
        raise ValueError(
            f"only {len(base)} base points selectable; depth {depth} needs at least that many"
        )
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
    total = int(sizes[B - 1]) + sum(
        math.prod(int(r) for r in sizes[s - 1 : s + n])
        for n, last in last_start.items() for s in range(1, last + 1)
    )
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

    # row r of base orbit b pairs its r-th point with every point of b
    row_len = np.repeat(lengths, lengths)
    row_start = np.cumsum(row_len) - row_len
    pair_cols = flat[np.repeat(np.repeat(offset, lengths), row_len) + _labels(row_len)]
    orbit_pairs = (np.repeat(flat, row_len), pair_cols, row_start, offset)

    # each orbit point keeps its first slot; columns in slot order make the
    # first nearest column the nearest slot under the tie rule
    first_slot: dict[int, tuple[int, int]] = {}
    for bi, enum in enumerate(orbit_enums, start=1):
        for gpos, p in enumerate(enum):
            first_slot.setdefault(p, (bi, gpos))
    cols = np.asarray(list(first_slot), dtype=np.intp)
    slots = np.asarray(list(first_slot.values()), dtype=np.intp)
    # an orbit point is its own nearest slot, since the space keeps distinct
    # points at positive distance; only the other rows are gathered
    nearest = np.full(space.n, -1, dtype=np.intp)
    nearest[cols] = np.arange(len(cols))
    rest = np.flatnonzero(nearest < 0)
    nearest[rest] = space.dmat[np.ix_(rest, cols)].argmin(axis=1)
    slot_dist = space.dmat[np.arange(space.n), cols[nearest]]
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
        inv_lam=1.0 / lams,
        orbit_pairs=orbit_pairs,
    )


# ----------------------------------------------------------------------
# seminorms and the certified sup


def rho(t: TupleIndex, x: np.ndarray, cfg: RenormConfig) -> float:
    """Head slot weighted by lambda_start plus reciprocal-weighted tail."""
    x = np.asarray(x, dtype=float)
    total = cfg.lam(t.start) * abs(float(x[t.points[0]]))
    for k in range(1, t.n + 1):
        p, q = cfg.registry.classify(t.start, t.points[: k + 1]).ratio
        total += abs(float(x[t.points[k]])) * cfg.bc.inv_L_pow(p / q)
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
    sup = float(ax.max())  # NaN or inf exactly when some value is
    if not math.isfinite(sup):
        bad = np.flatnonzero(~np.isfinite(x))[0]
        raise ValueError(f"non-finite value {x[bad]} at point {points[bad]!r}")
    return ax, sup


def _walk(ax: np.ndarray, sup: float, cfg: RenormConfig, level_max):
    """Walk the plan rows' prefix tree level by level, as deep as a level
    can still raise the running max.

    ``sup`` is the max of ``ax``, the absolute values of the function.
    ``level_max(plan, values)`` reduces one level to what the caller
    maximises, a numpy scalar or an array compared elementwise; the head
    table, the parent level of plan 1, goes through it too.  Returns the
    visited plans in plan order as (plan, values, level max), and the
    largest of those maxima.

    A row's value is its parent's plus the term of its last slot,
    fl(fl(|x_last| w) + v_parent), so every row sums left to right, as
    ``rho`` does.  IEEE rounding is monotone on non-negative operands, so
    no row of plan n exceeds B_n = fl(fl(sup|x| w_n) + B_{n-1}), where w_n
    is the plan's largest last-slot weight and B_{n-1} the max of the
    parent level, or that level's own B when it is not visited.  The chain
    only grows, so once its end at the deepest plan is at most the running
    max, no row from the current level down can exceed that max.
    """
    heads = cfg.heads
    vals = heads.weights[:, 0] * ax.take(heads.idx[:, 0])
    plan0, *deeper = cfg.plans
    first = vals.take(plan0.parent)
    best = level_max(plan0, first)
    levels = [(plan0, first, best)]
    below = level_max(heads, vals)
    for i, plan in enumerate(deeper):
        bound = below
        for later in deeper[i:]:
            bound = sup * later.last_max + bound
        if (bound <= best).all():
            break
        term = ax.take(plan.idx[:, -1])
        term *= plan.weights[:, -1]
        term += vals.take(plan.parent)
        vals = term
        below = level_max(plan, vals)
        best = np.maximum(best, below)
        levels.append((plan, vals, below))
    return levels, best


def triple_norm(x: np.ndarray, cfg: RenormConfig) -> NormResult:
    """Max of the seminorms over the enumerated tuples, with an additive
    certificate for the omitted deeper windows.

    The plans are evaluated level by level down the prefix tree and only as
    deep as a level can still beat the running max.  Rounding is monotone
    on non-negative operands, so fl(fl(sup|x| w_n) + B), with w_n plan n's
    largest last-slot weight and B the parent level's max, bounds every
    row of plan n as it is computed; chained down to the deepest plan, a
    bound at most the running max rules out every deeper row.  The first
    plan, then the first row, holding the max wins, so skipped rows, which
    can at most tie, never move the argmax.

    The certificate sums the geometric tail of window weights beyond the
    enumeration index of the last in-depth window; when orbit enumerations
    were gamma-capped the tail does not cover the missing labels and the
    result is flagged instead.
    """
    ax, sup = _abs_values(x, cfg)
    levels, best = _walk(ax, sup, cfg, lambda plan, vals: vals.max())
    plan, vals = next((plan, vals) for plan, vals, top in levels if top == best)
    pos = int(vals.argmax())
    ell_depth = cfg.depth * (cfg.depth - 1) // 2
    bound = sup * enumeration_tail(cfg.bc, ell_depth)
    start = int(plan.starts[pos])
    return NormResult(
        value=float(best),
        truncation_bound=bound,
        argmax_window=(start, start + plan.n),
        argmax_gammas=tuple(int(g) for g in plan.gammas[pos]),
        argmax_points=tuple(cfg.space.points[int(i)] for i in plan.idx[pos]),
        gamma_capped=cfg.gamma_capped,
        coverage_defect=cfg.coverage_defect,
    )


def gamma_cap_trace(x: np.ndarray, cfg: RenormConfig, caps: Sequence[int]) -> list[tuple[int, float]]:
    """Norm value as a function of the orbit-label cap.

    No closed-form tail over orbit labels exists, so sensitivity is reported
    instead of a certificate: the trace restricts the enumerated family to
    tuples whose labels all sit below each cap.

    The walk is ``triple_norm``'s, per cap.  A row's largest label is at
    least its parent's, so a row below a cap extends a parent below it, and
    the monotone-rounding bound chained from the parent level's max below
    the cap bounds every deeper row below it.  The walk stops once that
    bound is at most the running max of every cap.
    """
    ax, sup = _abs_values(x, cfg)
    caps = sorted(set(int(c) for c in caps))
    # a cap past the largest label keeps every row
    hi = int(cfg.heads.cap_labels[-1]) + 1
    at = np.array([min(max(c, 0), hi) for c in caps], dtype=np.intp)

    def below_caps(plan: WindowPlan, vals: np.ndarray) -> np.ndarray:
        # the max of each largest label's rows, then of all rows up to it
        upto = np.maximum.accumulate(np.maximum.reduceat(vals.take(plan.cap_order), plan.cap_starts))
        k = np.searchsorted(plan.cap_labels, at)  # the labels below each cap
        return np.where(k > 0, upto.take(k - 1), -math.inf)

    best = _walk(ax, sup, cfg, below_caps)[1]
    return [(cap, v if v > -math.inf else 0.0) for cap, v in zip(caps, best.tolist())]


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
    lambdas = np.array([cfg.lam(t.start + k) for k in range(s)])
    zeta = np.zeros((s, s))
    registry = cfg.registry
    for j in range(s - 1):
        found = registry.prefix_classes(t.start + j, t.points[j:])
        for k, info in enumerate(found, start=j + 1):
            if info is None:
                info = registry.classify(t.start + j, t.points[j : k + 1])
            p, q = info.ratio
            zeta[j, k] = cfg.bc.inv_L_pow(p / q)
    return TriangularSystem(lambdas=lambdas, zeta=zeta)


def dual_norm_delta(point: int, cfg: RenormConfig) -> float:
    """Dual norm of a unit atom: 1/lambda_i when the nearest base-orbit slot
    within the space's resolution tolerance belongs to the i-th base point,
    1 off every enumerated base orbit."""
    (hit,) = cfg.classify_slots((point,), cfg.space._resolution_tol)
    return 1.0 if hit is None else float(cfg.inv_lam[hit[0] - 1])


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
    if not np.all((beta >= 0.8 - _ZETA_MARGIN) & (beta <= 1.0 + _ZETA_MARGIN)):
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
    """Targets and radii for a sum of tent functions with prescribed peaks."""

    targets: tuple[tuple[int, float], ...]
    ball_radii: tuple[float, ...]
    cutoff_M: int
    tuple_ref: TupleIndex | None = None

    def __post_init__(self):
        if len(self.targets) != len(self.ball_radii):
            raise ValueError("radii count mismatch")
        if any(r <= 0 for r in self.ball_radii):
            raise ValueError("radii must be positive")


def find_cutoff(cfg: RenormConfig, end: int, eps: float) -> int:
    """Smallest M beyond the window end with
    lambda_M + L^(3-M) < min(lambda_{end+1}, 1 + eps)."""
    target = min(cfg.lam(end + 1), 1.0 + eps)
    for M in range(end + 1, cfg.base_count + 1):
        if cfg.lam(M) + cfg.bc.L ** (3.0 - M) < target:
            return M
    raise ValueError("no feasible cutoff within the selected base points")


def _support(space: SampledSpace, target: int, radius: float) -> np.ndarray:
    return np.nonzero(space.dmat[target] < radius - 1e-15)[0]


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
            if np.intersect1d(supports[a], supports[b]).size:
                raise ValueError(f"supports of targets {a} and {b} overlap")
    slot_of = {}
    if spec.tuple_ref is not None:
        slot_of = {k: spec.tuple_ref.start + k for k in range(spec.tuple_ref.n + 1)}
    for k, ((p, _), sup) in enumerate(zip(spec.targets, supports)):
        own = slot_of.get(k)
        for j in range(1, min(spec.cutoff_M, cfg.base_count) + 1):
            if own is not None and j == own:
                continue
            orbit = set(cfg.orbit_of_base(j))
            audit["r1_checked"] += 1
            hit = orbit.intersection(int(i) for i in sup)
            if hit:
                raise ValueError(
                    f"infeasible avoidance: support of target {k} meets the "
                    f"orbit of base point {j} at {space.points[next(iter(hit))]}"
                )
    if spec.tuple_ref is not None:
        t = spec.tuple_ref
        sup_sets = [set(int(v) for v in s) for s in supports]
        for p in range(t.start, t.start + t.n):
            for q in range(1, t.start + t.n - p + 1):
                for info in exceptional_classes(t, p, q, cfg.registry):
                    audit["r2_checked"] += 1
                    for pts in cfg.registry.word_maps[:, list(info.representative)].tolist():
                        if all(
                            pts[j] in sup_sets[p - t.start + j]
                            for j in range(q + 1)
                        ):
                            raise ValueError(
                                f"infeasible avoidance: exceptional orbit (m={info.m}, "
                                f"ordinal {info.ordinal}) threads the supports at ({p},{q})"
                            )
    x = np.zeros(space.n)
    for ((p, u), r, sup) in zip(spec.targets, spec.ball_radii, supports):
        tent = u * np.maximum(0.0, 1.0 - space.dmat[p, sup] / r)
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
        for j in range(1, min(M, cfg.base_count) + 1):
            if j == t.start + k:
                continue
            orbit = list(cfg.orbit_of_base(j))
            limit = min(limit, float(space.dmat[p, orbit].min()))
        for other in t.points:
            if other != p:
                limit = min(limit, float(space.dmat[p, other]))
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
