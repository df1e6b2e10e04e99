"""Structured-text (JSON) round trips for spaces, operators, groups,
functions, and class registries.

Spaces serialize as a closed-form tag with parameters (builtins and
products of builtins), as a product tag with each factor's own document
under ``a`` and ``b`` (a product with a matrix factor), or as an explicit
matrix with the resolution, isolated points and exhaustion members; the
first two hold only the name, points and metric, as the reader rebuilds
the rest.  Operators carry the weight as a constant or vector and the maps
as point-id lists.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import space as space_mod
from .operators import GroupSpec, WeightedComposition
from .space import CompactSet, SampledSpace

__all__ = [
    "space_to_dict", "space_from_dict", "load_space", "save_space",
    "operator_to_dict", "operator_from_dict", "load_operator", "save_operator",
    "group_to_dict", "group_from_dict", "load_group", "save_group",
    "function_to_dict", "function_from_dict", "load_function", "save_function",
    "dump_json",
]


def dump_json(obj, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def space_to_dict(space: SampledSpace) -> dict:
    doc = {"name": space.name, "points": list(space.points)}
    # a tag with a closed-form formula is reconstructible from its parameters,
    # a product from its factors, so neither document holds what the space
    # rebuilds: its resolution, isolated points and exhaustion
    if not isinstance(space.metric, space_mod._Dense):
        doc["metric"] = space.metric_form
    elif space.factors:
        doc["metric"] = {"form": "product", "a": space_to_dict(space.factors[0]),
                         "b": space_to_dict(space.factors[1])}
    else:
        doc["resolution"] = space.resolution
        doc["isolated"] = [bool(b) for b in space.isolated]
        doc["exhaustion"] = [{"label": ks.label, "members": ks.members.tolist()} for ks in space.exhaustion]
        # exact: JSON writes each float64 by repr, which reads back bit for bit
        doc["metric"] = {"form": "matrix", "values": space.dmat.tolist()}
    return doc


def space_from_dict(doc: dict) -> SampledSpace:
    metric = doc["metric"]
    if metric.get("form") != "matrix":
        if metric.get("form") == "product" and "metric" in metric["a"]:  # the factors' own documents
            kind = "product"
            space = space_mod.product(space_from_dict(metric["a"]), space_from_dict(metric["b"]), doc.get("name"))
        else:
            kind, space = "closed-form", space_mod._from_tag(metric, doc.get("name"))
        if list(space.points) != list(doc["points"]):
            raise ValueError(f"{kind} space does not reproduce the stored points")
        return space
    points = tuple(doc["points"])
    exhaustion = tuple(CompactSet(e["members"], e.get("label", "")) for e in doc["exhaustion"])
    return SampledSpace(
        name=doc.get("name", "space"),
        points=points,
        dmat=np.asarray(metric["values"], dtype=float),
        exhaustion=exhaustion,
        resolution=float(doc["resolution"]),
        isolated=np.asarray(doc["isolated"], dtype=bool),
        metric_form={"form": "matrix"},
    )


def operator_to_dict(op: WeightedComposition) -> dict:
    w = op.weight
    weight = {"form": "const", "value": float(w[0])} if np.all(w == w[0]) else {
        "form": "vector", "values": w.tolist(),
    }
    return {
        "label": op.label,
        "weight": weight,
        "forward": [op.space.points[i] for i in op.forward],
        "backward": [op.space.points[i] for i in op.backward],
        "form": op.form,
        "allowed_defects": sorted(op.space.points[i] for i in op.allowed_defects),
    }


def operator_from_dict(doc: dict, space: SampledSpace) -> WeightedComposition:
    wdoc = doc["weight"]
    if wdoc["form"] == "const":
        weight = np.full(space.n, float(wdoc["value"]))
    else:
        weight = np.asarray(wdoc["values"], dtype=float)
    fwd = np.asarray([space.index(p) for p in doc["forward"]], dtype=np.intp)
    bwd = np.asarray([space.index(p) for p in doc["backward"]], dtype=np.intp)
    defects = frozenset(space.index(p) for p in doc.get("allowed_defects", []))
    return WeightedComposition(
        space=space, weight=weight, forward=fwd, backward=bwd,
        label=doc.get("label", ""), form=doc.get("form"), allowed_defects=defects,
    )


def group_to_dict(group: GroupSpec) -> dict:
    return {
        "label": group.label,
        "word_cap": group.word_cap,
        "generators": [operator_to_dict(g) for g in group.generators],
    }


def group_from_dict(doc: dict, space: SampledSpace) -> GroupSpec:
    gens = tuple(operator_from_dict(g, space) for g in doc["generators"])
    return GroupSpec(
        generators=gens,
        word_cap=doc["word_cap"],
        label=doc.get("label", ""),
    )


def function_to_dict(space: SampledSpace, values: np.ndarray) -> dict:
    return {"values": {p: float(v) for p, v in zip(space.points, values)}}


def function_from_dict(doc: dict, space: SampledSpace) -> np.ndarray:
    """Sample values in point order; every point needs a finite value."""
    vals = doc["values"]
    if isinstance(vals, dict):
        for p in vals:
            space.index(p)  # an unknown id fails here, named
        missing = [p for p in space.points if p not in vals]
        if missing:
            raise ValueError(f"no value for point {missing[0]!r}")
        x = np.asarray([vals[p] for p in space.points], dtype=float)
    else:
        x = np.asarray(vals, dtype=float)
        if x.shape != (space.n,):
            raise ValueError(f"{x.size} values for {space.n} points")
    bad = np.nonzero(~np.isfinite(x))[0]
    if bad.size:
        raise ValueError(f"non-finite value {x[bad[0]]} at point {space.points[bad[0]]!r}")
    return x


def _load(kind: str, path: str | Path, parse):
    """Parse a JSON file, naming the file in any error its contents raise."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except KeyError as exc:
        raise ValueError(f"{kind} file {path}: missing field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{kind} file {path}: {exc}") from None


def load_space(path: str | Path) -> SampledSpace:
    return _load("space", path, space_from_dict)


def save_space(space: SampledSpace, path: str | Path) -> None:
    dump_json(space_to_dict(space), path)


def load_operator(path: str | Path, space: SampledSpace) -> WeightedComposition:
    return _load("operator", path, lambda doc: operator_from_dict(doc, space))


def save_operator(op: WeightedComposition, path: str | Path) -> None:
    dump_json(operator_to_dict(op), path)


def load_group(path: str | Path, space: SampledSpace) -> GroupSpec:
    return _load("group", path, lambda doc: group_from_dict(doc, space))


def save_group(group: GroupSpec, path: str | Path) -> None:
    dump_json(group_to_dict(group), path)


def load_function(path: str | Path, space: SampledSpace) -> np.ndarray:
    return _load("function", path, lambda doc: function_from_dict(doc, space))


def save_function(space: SampledSpace, values: np.ndarray, path: str | Path) -> None:
    dump_json(function_to_dict(space, values), path)
