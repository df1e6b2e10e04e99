"""The per-generator paths that the keyed closure of a group's generators
replaced, kept as test oracles.

``op_key`` is an operator's dedupe key, the bytes of its one
``_key_rows`` row; ``close_by_inverting`` closes a generator list under
formal inversion as ``GroupSpec`` once did, building and keying every
generator's ``invert`` one at a time.
"""

from renormlab.operators import _key_rows, invert


def op_key(g) -> bytes:
    """The key of operator ``g``: its point map, then its weight rounded to
    12 decimals, as bytes."""
    return _key_rows(g.forward[None], g.weight[None]).tobytes()


def close_by_inverting(generators) -> tuple:
    """``generators`` followed by each one's formal inverse that the list
    lacks, unless the generator is itself some generator's formal inverse."""
    gens = list(generators)
    own = [op_key(g) for g in gens]
    inverses = [invert(g) for g in gens]
    inverse_keys = [op_key(gi) for gi in inverses]
    keys, formal = set(own), set(inverse_keys)
    for key, gi, gi_key in zip(own, inverses, inverse_keys):
        if key not in formal and gi_key not in keys:
            gens.append(gi)
            keys.add(gi_key)
    return tuple(gens)
