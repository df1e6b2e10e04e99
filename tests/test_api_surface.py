"""The option surface of the public API.

Every defaulted parameter of a public function or public method defined in
a ``renormlab`` module is an option that tests must cover.  The table below
is the whole set; a new option fails here until it is added on purpose.
"""

import importlib
import inspect
import pkgutil

import renormlab

OPTIONS = {
    "bounded.m_weight(word_cap)",
    "cli.main(argv)",
    "cli.make_operator(group)",
    "cli.random_piecewise_linear(knots)",
    "cli.run(seed)",
    "detector.certify(test_depth)",
    "norm.RenormConfig.classify_slots(tol)",
    "norm.RenormConfig.window_tuple(tol)",
    "norm.build_config(C)",
    "norm.build_config(base_count)",
    "norm.build_config(depth)",
    "norm.build_config(gamma_cap)",
    "norm.build_config(max_tuples)",
    "norm.dual_norm_delta(tol)",
    "norm.solve_unit(size)",
    "norm.witness_for_tuple(eps)",
    "operators.GroupSpec.trivial(word_cap)",
    "operators.GroupSpec.word_table(cap)",
    "operators.GroupSpec.words(cap)",
    "operators.circle_rotation(angle)",
    "operators.circle_rotation(label)",
    "operators.circle_rotation(steps)",
    "operators.identity(label)",
    "operators.interval_flip(label)",
    "operators.lift(label)",
    "operators.lift(side)",
    "operators.line_translation(label)",
    "operators.multiplication(label)",
    "operators.onepoint_swap_group(count)",
    "operators.onepoint_swap_group(word_cap)",
    "operators.pointwise_implies_sot(eps)",
    "operators.pointwise_implies_sot(moduli_grid)",
    "operators.remark25_sequence(count)",
    "orbits.orbit_closure(cap)",
    "orbits.select_dense_points(count)",
    "space.SampledSpace.compact(label)",
    "space.product(name)",
    "tuples.ClassRegistry.to_records(points)",
    "tuples.exceptional_classes(eps)",
}


def _defaulted(qualname, fn):
    return {f"{qualname}({p.name})" for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty}


def public_options() -> set[str]:
    found = set()
    for info in pkgutil.iter_modules(renormlab.__path__):
        mod = importlib.import_module(f"renormlab.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found |= _defaulted(f"{info.name}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)  # static and class methods
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        found |= _defaulted(f"{info.name}.{name}.{attr}", fn)
    return found


def test_public_options_match_the_table():
    found = public_options()
    assert sorted(found - OPTIONS) == [], "new options: add them to OPTIONS on purpose"
    assert sorted(OPTIONS - found) == [], "removed options: drop them from OPTIONS"
    assert len(OPTIONS) == 39
