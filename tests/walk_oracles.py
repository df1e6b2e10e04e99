"""The caps-strategy walk that ``triple_norm``'s one-cap walk replaced,
kept as a test oracle.

``walk`` is the prefix-tree walk as it once served both queries, over a
caps strategy; ``AllRows`` is its one cap above every orbit label, the cap
``triple_norm`` maximised over.  ``triple_norm_by_levels`` runs that walk,
reads the first argmax off its levels afterwards, as ``triple_norm`` once
did, and returns the result with the levels that computed a row.
"""

import math
from typing import Sequence

import numpy as np

from renormlab.norm import NormResult, _abs_values, _floor


class AllRows:
    """One cap above every orbit label.  The walk's per-cap numbers are
    floats, and ``sup`` bounds |x| on the head table's points."""

    labelled = False  # whether the walk must track each row's largest label

    def __init__(self, sup: float):
        self.sup = sup

    higher = staticmethod(max)

    @staticmethod
    def peak(vals: np.ndarray, top: None) -> float:
        return float(vals[vals.argmax()])

    def head_peak(self, vals: np.ndarray) -> float:
        return self.peak(vals, None)

    @staticmethod
    def above(value: float) -> float:
        return math.nextafter(value, math.inf)

    @staticmethod
    def keep(vals: np.ndarray, need: float, steps: Sequence[float], top: None) -> np.ndarray:
        # one floor for every row: no row below it has a chain that reaches the need
        return (vals >= _floor(need, steps)).nonzero()[0]


def walk(ax, cfg, caps):
    """The levels that computed a row, in plan order, as (plan, rows,
    values, max per cap) with the rows ascending (a ``range`` when they
    are one parent's children), and per cap the max over the full tree's
    rows below it."""
    heads = cfg.heads
    vals = ax.take(heads._last_idx)
    vals *= heads._last_weight
    top = heads.top if caps.labelled else None
    best = caps.head_peak(vals)
    plan0, *deeper = cfg.plans
    first = vals[-plan0.count:]
    held = caps.peak(first, plan0.top)
    levels = [(plan0, range(plan0.count), first, held)]
    need = caps.higher(best, caps.above(held))
    steps = [caps.sup * plan.last_max for plan in deeper]
    rows = range(heads.count)
    for i, plan in enumerate(deeper):
        ends = len(plan.child_count)
        have = min(rows.stop, ends) - rows.start if type(rows) is range else int(rows.searchsorted(ends))
        if have <= 0:
            break
        keep = caps.keep(vals[:have], need, steps[i:], None if top is None else top[:have])
        if not keep.size:
            break
        if keep.size == 1:
            k = keep.item()
            lo = int(plan.child_start[rows[k]])
            rows = range(lo, lo + int(plan.child_count[rows[k]]))
            term = ax.take(plan._last_idx[lo:rows.stop])
            term *= plan._last_weight[lo:rows.stop]
            term += vals[k]
            if top is not None:
                top = plan.top[lo:rows.stop]
        else:
            parents = keep + rows.start if type(rows) is range else rows.take(keep)
            count = plan.child_count.take(parents)
            kids = plan.child_start.take(parents)[:, None] + plan.child_rank
            rows = kids[plan.child_rank < count[:, None]]
            term = ax.take(plan._last_idx.take(rows))
            term *= plan._last_weight.take(rows)
            term += vals.take(keep).repeat(count)
            if top is not None:
                top = plan.top.take(rows)
        vals = term
        level = caps.peak(vals, top)
        best = caps.higher(best, level)
        need = caps.above(best)
        levels.append((plan, rows, vals, level))
    return levels, best


def triple_norm_by_levels(x, cfg):
    """``triple_norm`` through ``walk`` with ``AllRows``: the result, and
    the levels that computed a row."""
    ax, sup = _abs_values(x, cfg)
    levels, value = walk(ax, cfg, AllRows(sup))
    for plan, rows, vals, most in levels:
        if most == value:
            break
    pos = int(rows[vals.argmax()])
    start = int(plan.starts[pos])
    points = cfg.space.points
    res = NormResult(
        value=value,
        truncation_bound=sup * cfg._truncation_tail,
        argmax_window=(start, start + plan.n),
        argmax_gammas=tuple(plan.gammas[pos].tolist()),
        argmax_points=tuple([points[i] for i in plan.idx[pos].tolist()]),
        gamma_capped=cfg.gamma_capped,
        coverage_defect=cfg.coverage_defect,
    )
    return res, levels
