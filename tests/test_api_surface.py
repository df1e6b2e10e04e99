"""The surface of the public API.

Every defaulted parameter of a public function or public method defined in
a ``renormlab`` module is an option that tests must cover.  The table below
is the whole set; a new option fails here until it is added on purpose.

Every public function or method must also have a caller in ``src/``,
``scripts/`` or ``perfbench/``, outside its own body, or an entry with its
reason in ``UNREACHED``.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import renormlab

ROOT = Path(__file__).resolve().parent.parent

OPTIONS = {
    "cli.main(argv)",
    "cli.run(seed)",
    "detector.certify(test_depth)",
    "norm.RenormConfig.classify_slots(tol)",
    "norm.build_config(C)",
    "norm.build_config(base_count)",
    "norm.build_config(depth)",
    "norm.build_config(gamma_cap)",
    "norm.solve_unit(size)",
    "operators.GroupSpec.word_table(cap)",
    "operators.circle_rotation(angle)",
    "operators.circle_rotation(label)",
    "operators.circle_rotation(steps)",
    "operators.lift(side)",
    "operators.line_translation(label)",
    "operators.onepoint_swap_group(count)",
    "operators.onepoint_swap_group(word_cap)",
    "orbits.select_dense_points(count)",
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
    "space.SampledSpace.d": "the one-pair distance that tests read as an oracle",
    "tuples.Window.indices": "the window's index block, which tests read as an oracle",
    "norm.TriangularSystem.matrix": "the dense system, which tests read as an oracle",
}


def public_functions():
    """(module.name or module.Class.name, function) of every public function
    and method defined in a renormlab module."""
    for info in pkgutil.iter_modules(renormlab.__path__):
        mod = importlib.import_module(f"renormlab.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)  # static and class methods
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield f"{info.name}.{name}.{attr}", fn


def public_options() -> set[str]:
    return {f"{qualname}({p.name})" for qualname, fn in public_functions()
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
    assert len(OPTIONS) == 20


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
