"""Finite-resolution lattice renormings of C0(X).

Sampled spaces, weighted-composition operators, orbit machinery, the
window/class weight maps, the renorming norm with certified truncation,
dual-norm triangular solves, an isometry detector, and the bounded-group
reduction, plus a scenario-driven CLI (``renorm-lab``).
"""

from .space import CompactSet, SampledSpace, builtin_space, product, validate_metric
from .operators import (
    GroupSpec,
    WeightedComposition,
    check_local_equicontinuity,
    check_sot_convergence,
    compose,
    identity,
    invert,
)
from .orbits import OrbitClosure, equivalent, orbit_closure, select_dense_points
from .tuples import (
    BCAssignment,
    ClassRegistry,
    TupleIndex,
    Window,
    choose_parameters,
    enumerate_window,
    enumeration_index,
    exceptional_classes,
    verify_bmap,
)
from .norm import (
    RenormConfig,
    TriangularSystem,
    WitnessSpec,
    build_config,
    build_matrix,
    dual_norm_atoms,
    dual_norm_delta,
    gamma_cap_trace,
    rho,
    solve_unit,
    triple_norm,
    witness_for_tuple,
    witness_function,
)
from .detector import IsometryVerdict, certify, check_weight_one
from .bounded import BoundedGroupNorm, conjugate, group_norm, m_weight

__version__ = "0.1.0"
