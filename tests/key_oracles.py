"""The block-lexsort key path that the prefix identity replaced, kept as
test oracles, and the one writer of a registry's class columns.

``canonical_keys`` keys every row of a (T, k) block from scratch, with one
lexsort over the word axis per block of rows; ``lookup_rows`` reads each
row's registered class through those keys; ``last_slot_weights`` is the
plan build's per-level class weights and ``build_system_by_lookup`` the
dual system build that keyed every row and segment that way.
"""

from fractions import Fraction

import numpy as np

from renormlab.norm import TriangularSystem
from renormlab.tuples import enumeration_index

# int64 entries in one (W, block, k) word-image array: 256 KB
KEY_BLOCK = 1 << 15


def canonical_keys(registry, rows, block=KEY_BLOCK):
    """Canonical keys of a (T, k) block of point rows, as a (T, k) array:
    row t's image under the first word whose image is the lexicographic
    minimum, found by one lexsort over the word axis per block."""
    rows = np.asarray(rows, dtype=np.intp)
    T, k = rows.shape
    step = max(1, block // (len(registry.word_maps) * k))
    best = np.empty(T, dtype=np.intp)
    for a in range(0, T, step):
        images = registry.word_maps[:, rows[a:a + step]]  # (W, t, k)
        # lexsort's last key is the primary one, so column 0 goes last
        best[a:a + step] = np.lexsort(images.transpose(2, 1, 0)[::-1], axis=-1)[:, 0]
    return registry.word_maps[best[:, None], rows]


def lookup_rows(registry, starts, rows):
    """Registered class of each window tuple of a (T, k) block, row t
    starting at base index starts[t], or None; never registers."""
    rows = np.asarray(rows, dtype=np.intp)
    n = rows.shape[1] - 1
    m_of = {s: enumeration_index(s, n) for s in set(starts)}
    keys = canonical_keys(registry, rows).tolist()
    found = [registry._index.get((m_of[s], tuple(key))) for s, key in zip(starts, keys)]
    return [None if row is None else registry._infos[row] for row in found]


def last_slot_weights(registry, bc, starts, idx):
    """Reciprocal class weight of every full row of a plan block: rows
    grouped by (start, canonical key), each group classified once, window by
    window in the order of its lexicographically smallest row."""
    T, k = idx.shape
    if T == 0:
        return np.empty(0)
    keys = canonical_keys(registry, idx)
    # rows by (start, key, row): each group's first row is its smallest
    order = np.lexsort((*idx.T[::-1], *keys.T[::-1], starts))
    skeys = keys[order]
    sstarts = starts[order]
    first = np.ones(T, dtype=bool)
    first[1:] = (sstarts[1:] != sstarts[:-1]) | (skeys[1:] != skeys[:-1]).any(axis=1)
    group = np.cumsum(first) - 1
    heads = order[first]
    recip = np.empty(len(heads))
    seq = np.lexsort((*idx[heads].T[::-1], starts[heads]))
    rows = heads[seq]
    for g, start, row in zip(seq.tolist(), starts[rows].tolist(), idx[rows].tolist()):
        p, q = registry.classify(start, row).ratio
        recip[g] = bc.inv_L_pow(p / q)
    out = np.empty(T)
    out[order] = recip[group]
    return out


def build_system_by_lookup(t, cfg):
    """The tuple's triangular system with its segment classes read by one
    batched lookup per segment length, and the missing ones classified in
    (j, k) order."""
    s = t.n + 1
    lambdas = np.array([cfg.lam(t.start + k) for k in range(s)])
    zeta = np.zeros((s, s))
    registry = cfg.registry
    pts = t.points
    classes = {}
    for d in range(1, s):
        rows = np.array([pts[j : j + d + 1] for j in range(s - d)], dtype=np.intp)
        found = lookup_rows(registry, range(t.start, t.start + s - d), rows)
        classes.update(((j, j + d), info) for j, info in enumerate(found))
    for j in range(s):
        for k in range(j + 1, s):
            info = classes[j, k]
            if info is None:
                seg = t.segment(j, k)
                info = classes[j, k] = registry.classify(seg.start, seg.points)
            p, q = info.ratio
            zeta[j, k] = cfg.bc.inv_L_pow(p / q)
    return TriangularSystem(lambdas=lambdas, zeta=zeta)


def set_class(info, ordinal=None, exponent=None):
    """Write the registry row behind a read-only class view: how a test
    corrupts a registry for verify_bmap to find."""
    registry, row = info._registry, info._row
    if ordinal is not None:
        registry._ordinal[row] = ordinal
    if exponent is not None:
        registry._p[row], registry._q[row] = Fraction(exponent).as_integer_ratio()
