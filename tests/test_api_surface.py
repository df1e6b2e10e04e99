"""The surface of the public API.

Every defaulted parameter of a public function, public method or public
class constructor defined in a ``renormlab`` module is an option that tests
must cover; a constructor's options, generated dataclass ones included, are
named ``module.Class(param)``.  The table below is the whole set; a new
option fails here until it is added on purpose.

Every public function or method must also have a caller in ``src/``,
``scripts/`` or ``perfbench/``, outside its own body, or an entry with its
reason in ``UNREACHED``.  Likewise every public property must be read there
outside its own body, and every dataclass field must be read there at all,
or have an entry with its reason in ``UNREAD``.  Both checks match by name.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import renormlab

ROOT = Path(__file__).resolve().parent.parent

OPTIONS = {
    "cli.main(argv)",
    "cli.run(seed)",
    "detector.TupleCheck(detail)",
    "detector.certify(test_depth)",
    "norm.RenormConfig.classify_slots(tol)",
    "norm.build_config(C)",
    "norm.build_config(base_count)",
    "norm.build_config(depth)",
    "norm.build_config(gamma_cap)",
    "operators.GroupSpec(label)",
    "operators.WeightedComposition(allowed_defects)",
    "operators.WeightedComposition(form)",
    "operators.WeightedComposition(label)",
    "operators.WeightedComposition(measured_defects)",
    "operators.circle_rotation(angle)",
    "operators.circle_rotation(steps)",
    "operators.lift(side)",
    "operators.onepoint_swap_group(count)",
    "operators.onepoint_swap_group(word_cap)",
    "orbits.select_dense_points(count)",
    "space.CompactSet(label)",
    "space.SampledSpace(factors)",
    "space.SampledSpace.compact(label)",
    "space.product(name)",
}


# public functions and methods that nothing outside tests/ calls, and why
# each stays
UNREACHED = {
    "io.save_space": "a README-documented JSON writer; tests/test_io_cli.py writes fixtures with it",
    "io.save_operator": "a README-documented JSON writer; tests/test_io_cli.py writes fixtures with it",
    "io.save_group": "a README-documented JSON writer; tests/test_io_cli.py writes fixtures with it",
    "io.save_function": "a README-documented JSON writer; tests/test_io_cli.py writes fixtures with it",
    "tuples.Window.indices": "the window's index block, which tests read as an oracle",
    "norm.TriangularSystem.matrix": "the dense system, which tests read as an oracle",
    "operators.remark25_map": "one counterexample map as an operator, as README documents; remark25_sequence "
                              "holds the same maps as patches, and tests compare the two",
    "operators.WeightedComposition.apply": "an operator's action on a sampled function, as README documents; the "
                                           "gallery reads it at the moved points only (_PatchSequence.deviations), "
                                           "and tests compare the two",
}


# public properties and dataclass fields that nothing outside tests/ reads,
# and why each stays
UNREAD = {
    "norm.NormResult.upper": "the upper end of the norm sandwich value <= true <= value + bound",
    "bounded.GroupNormResult.sup_over_words": "the direct sup over the group's words, read from the column s, which "
                                              "agree compares with value",
    "bounded.GroupNormResult.agree": "whether one function's two norm formulas agree; the bounded suite decides "
                                     "every function at once from m_G and s with the same rule (bounded._agree)",
    "norm.RenormConfig.bmap_report": "the build's verify_bmap result, which the verify-bmap task will return (ROADMAP 1(b))",
}


def public_objects():
    """(module name, name, object) of every public function and class
    defined in a renormlab module."""
    for info in pkgutil.iter_modules(renormlab.__path__):
        mod = importlib.import_module(f"renormlab.{info.name}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and getattr(obj, "__module__", None) == mod.__name__:
                yield info.name, name, obj


def public_functions():
    """(module.name or module.Class.name, function) of every public function
    and method defined in a renormlab module."""
    for module, name, obj in public_objects():
        if inspect.isfunction(obj):
            yield f"{module}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)  # static and class methods
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{module}.{name}.{attr}", fn


def public_attributes():
    """(module.Class.name, is a field) of every public property and every
    dataclass field of a class defined in a renormlab module."""
    for module, name, obj in public_objects():
        if not inspect.isclass(obj):
            continue
        for attr, member in vars(obj).items():
            if not attr.startswith("_") and isinstance(member, property):
                yield f"{module}.{name}.{attr}", False
        if dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                if not f.name.startswith("_"):
                    yield f"{module}.{name}.{f.name}", True


def public_constructors():
    """(module.Class, __init__) of every public class defined in a
    renormlab module that defines its own constructor."""
    for module, name, obj in public_objects():
        if inspect.isclass(obj) and "__init__" in vars(obj):
            yield f"{module}.{name}", obj.__init__


def public_options() -> set[str]:
    return {f"{qualname}({p.name})" for qualname, fn in (*public_functions(), *public_constructors())
            for p in inspect.signature(fn).parameters.values() if p.default is not p.empty}


def references() -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """Where each name is read in src/, scripts/ and perfbench/: as an
    attribute, and as a bare name, each mapped to the scopes it is read in
    (``module.Class.function`` in the library, the file path elsewhere).
    Only reads count: a name that is only bound or stored, such as a
    dataclass field, calls nothing.  perfbench wraps library functions by
    name, so its strings count as attribute reads."""
    attrs: dict[str, set[str]] = {}
    names: dict[str, set[str]] = {}
    for path in sorted(p for top in ("src", "scripts", "perfbench") for p in (ROOT / top).rglob("*.py")):
        rel = path.relative_to(ROOT)
        by_string = rel.parts[0] == "perfbench"

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}"
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.setdefault(node.id, set()).add(scope)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.setdefault(node.attr, set()).add(scope)
            elif by_string and isinstance(node, ast.Constant) and isinstance(node.value, str):
                for part in node.value.split("."):
                    attrs.setdefault(part, set()).add(scope)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text()), path.stem if rel.parts[:2] == ("src", "renormlab") else str(rel))
    return attrs, names


def test_public_options_match_the_table():
    found = public_options()
    assert sorted(found - OPTIONS) == [], "new options: add them to OPTIONS on purpose"
    assert sorted(OPTIONS - found) == [], "removed options: drop them from OPTIONS"
    assert len(OPTIONS) == 24


def test_every_public_function_has_a_caller():
    attrs, names = references()
    unreached = []
    for qualname, _ in public_functions():
        name = qualname.rsplit(".", 1)[1]
        scopes = set(attrs.get(name, ()))
        if qualname.count(".") == 1:  # a module function can be called by its bare name
            scopes |= names.get(name, set())
        if not any(s != qualname and not s.startswith(qualname + ".") for s in scopes):
            unreached.append(qualname)
    assert sorted(unreached) == sorted(UNREACHED), "call the name, retire it, or add it to UNREACHED with a reason"


def test_every_public_attribute_is_read():
    # a property is read outside its own body; a field anywhere, its own
    # class included
    attrs, _ = references()
    unread = []
    for qualname, is_field in public_attributes():
        scopes = attrs.get(qualname.rsplit(".", 1)[1], set())
        if not any(is_field or (s != qualname and not s.startswith(qualname + ".")) for s in scopes):
            unread.append(qualname)
    assert sorted(unread) == sorted(UNREAD), "read the name, retire it, or add it to UNREAD with a reason"
