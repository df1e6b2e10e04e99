"""The build path's stages as they were before their array passes, kept
as test oracles.

``select_dense_points`` blocks the 1e-9 ball of every pick's orbit with
one ball query, whatever the metric's separation; ``verify_bmap_by_window``
builds one :class:`Window` per window index, reads each prefix class by one
dict lookup per window and each class weight, lambda and tail by one
scalar call.  The library's forms must give the same picks, audit and
violation lists, in order.
"""

import numpy as np

from renormlab.space import _integer
from renormlab.tuples import enumerate_window, enumeration_index, enumeration_tail


def select_dense_points(space, group, count=None):
    """The greedy selection with every pick blocking
    ``metric.ball(orbit, 1e-9)``, one ball query per step."""
    n = space.n
    if count is not None:
        _integer(count, "count", 1)
        if count > n:
            raise ValueError(f"count {count} exceeds the {n} points of space {space.name!r}")
    metric = space.metric
    table = group.word_table()[0]
    chosen: list[int] = []
    audit: list[dict] = []
    # the points within 1e-9 of a selected orbit sample, and how many
    blocked = np.zeros(n, dtype=bool)
    nblocked = 0
    target = count if count is not None else n
    step = 0
    for ref in range(n):
        if len(chosen) >= target:
            break
        step += 1
        radius = max(2.0 ** (-step), space.resolution)
        if not blocked[ref]:
            pick, dist = ref, 0.0
        else:
            # d <= radius + 1e-15 exactly when d < the next float above it
            cand = metric.ball(ref, np.nextafter(radius + 1e-15, np.inf))
            cand = cand[~blocked[cand]]
            if not cand.size:
                if count is not None:
                    raise ValueError(
                        f"resolution too coarse for disjointness at step {step}"
                    )
                continue
            d = metric.pair(ref, cand)
            k = int(d.argmin())  # the nearest unblocked point, ties by index
            pick, dist = int(cand[k]), float(d[k])
        chosen.append(pick)
        near = metric.ball(table[:, pick], 1e-9)
        nblocked += int(np.count_nonzero(~blocked[near]))
        blocked[near] = True
        audit.append({
            "step": step,
            "reference": space.points[ref],
            "selected": space.points[pick],
            "distance": dist,
            "radius": radius,
        })
        if nblocked == n:
            break  # every point is blocked, so no later step picks
    if count is not None and len(chosen) < count:
        raise ValueError(
            f"resolution too coarse for disjointness at step {step + 1}"
        )
    return chosen, audit


# int64 holds every product the exact checks form while
# (max|p| + max q + 3 max m) * max q stays below this bound
_INT64_BOUND = 2**62


def verify_bmap_by_window(bc, depth, registry):
    """The verifier that built one Window per window index and read each
    class weight through the scalar ``class_recip``."""
    report: dict = {"depth": depth, "violations": [], "checked": 0}
    violations = report["violations"]
    if not bc.tail_sum() < bc.budget():
        violations.append(("property3", "geometric tail exceeds budget"))
    rows = [row for m in sorted(registry._by_window) for row in registry._by_window[m]]
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
