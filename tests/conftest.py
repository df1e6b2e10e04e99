import copy
import dataclasses

import pytest

import renormlab as rl
from renormlab.operators import circle_rotation, lift, onepoint_swap_group


@pytest.fixture(scope="session")
def line_space():
    return rl.builtin_space("line", step=0.01, window=(-10, 10))


@pytest.fixture(scope="session")
def line_cfg(line_space):
    group = rl.GroupSpec.trivial(line_space)
    return rl.build_config(line_space, group, C=1.1, depth=6)


@pytest.fixture(scope="session")
def product_space():
    return rl.builtin_space("circle_x_interval", count=48, levels=16)


@pytest.fixture(scope="session")
def rotation_group(product_space):
    circ = product_space.factors[0]
    gen = circle_rotation(circ, steps=circ.metric_form["count"] // 12)
    gen.label = "rot2pi/12"
    return rl.GroupSpec((lift(gen, product_space, "left"),), word_cap=6, label="rot12")


@pytest.fixture(scope="session")
def product_cfg(product_space, rotation_group):
    return rl.build_config(product_space, rotation_group, C=1.1, depth=4)


@pytest.fixture(scope="session")
def product_capped_cfg(product_space, rotation_group):
    return rl.build_config(product_space, rotation_group, C=1.1, depth=4, gamma_cap=5)


@pytest.fixture(scope="session")
def product_word_capped_cfg(product_space, rotation_group):
    # 9 of the 12 rotations: a word list that is not closed under composition
    group = rl.GroupSpec(rotation_group.generators, word_cap=4, label="rot12-cap4")
    return rl.build_config(product_space, group, C=1.1, depth=4)


@pytest.fixture(scope="session")
def remark_space():
    return rl.builtin_space("remark25", n_max=50)


@pytest.fixture(scope="session")
def onepoint_space():
    return rl.builtin_space("onepoint01N", n_max=50)


@pytest.fixture(scope="session")
def swap_group(onepoint_space):
    return onepoint_swap_group(onepoint_space, word_cap=2)


@pytest.fixture(scope="session")
def fork():
    """A copy of a configuration whose class registry can grow apart from
    the original's; registered classes are never mutated, so they are shared."""
    def fork(cfg):
        registry = copy.copy(cfg.registry)
        for column in ("_m", "_ordinal", "_p", "_q", "_rep", "_infos"):
            setattr(registry, column, list(getattr(registry, column)))
        registry._index = dict(registry._index)
        registry._by_window = {m: list(rows) for m, rows in registry._by_window.items()}
        return dataclasses.replace(cfg, registry=registry)
    return fork
