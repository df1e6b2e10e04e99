"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Each test pins the tolerances stated in the contract; runtime-bounded
criteria build their configurations inside the timed region.
"""

import itertools
import time

import numpy as np
import pytest
import scipy.optimize

import renormlab as rl
from renormlab.bounded import conjugate, group_norm, m_weight
from renormlab.cli import random_piecewise_linear
from renormlab.detector import certify
from renormlab.norm import (
    TriangularSystem,
    build_matrix,
    dual_norm_atoms,
    solve_unit,
    triple_norm,
    witness_for_tuple,
    witness_function,
)
from renormlab.operators import (
    check_sot_convergence,
    circle_rotation,
    compose,
    identity,
    interval_flip,
    lift,
    line_translation,
    remark25_sequence,
)
from renormlab.tuples import verify_bmap


def _report(n, detail):
    print(f"\nACCEPTANCE {n} PASS - {detail}")


def lipschitz_constant(space, x):
    diff = np.abs(x[:, None] - x[None, :])
    d = space.dmat + np.eye(space.n)
    return float((diff / d).max())


def test_criterion_1_bmap_suite():
    t0 = time.perf_counter()
    line = rl.builtin_space("line", step=0.01, window=(-10, 10))
    cfg_line = rl.build_config(line, rl.GroupSpec.trivial(line), C=1.1, depth=6)
    assert cfg_line.bc.L == 22
    assert cfg_line.bc.lam(1) == pytest.approx(1.05)
    rep_line = verify_bmap(cfg_line.bc, 6, cfg_line.registry)
    assert rep_line["ok"], rep_line["violations"][:3]

    prod = rl.builtin_space("circle_x_interval", count=48, levels=16)
    circ = prod.factors[0]
    gen = lift(circle_rotation(circ, steps=4), prod, "left")
    rot = rl.GroupSpec((gen,), word_cap=6)
    cfg_rot = rl.build_config(prod, rot, C=1.1, depth=6, gamma_cap=2)
    rep_rot = verify_bmap(cfg_rot.bc, 6, cfg_rot.registry)
    assert rep_rot["ok"], rep_rot["violations"][:3]
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0, f"bmap suite took {elapsed:.1f}s"
    checked = rep_line["checked"] + rep_rot["checked"]
    _report(1, f"weight-map properties 1,2,4,5,6,7 on {checked} checks in {elapsed:.1f}s")


def _dual_decompose(beta, T: TriangularSystem) -> np.ndarray:
    """Forward substitution expressing beta over the system rows: the
    coefficients alpha with T.matrix().T @ alpha = beta."""
    alpha = np.zeros(T.size)
    for k in range(T.size):
        alpha[k] = (beta[k] - float(alpha[:k] @ T.zeta[:k, k])) / T.lambdas[k]
    return alpha


def test_criterion_2_triangular_suite():
    rng = np.random.default_rng(12345)
    worst_res = 0.0
    worst_dual_res = 0.0
    worst_identity = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        lam = np.sort(rng.uniform(1.0 + 1e-4, 1.1 - 1e-4, size=n))[::-1]
        zeta = np.zeros((n, n))
        for j in range(1, n):
            zeta[:j, j] = rng.uniform(0.0, 9.0 ** (4 - 3 * (j + 1)), size=j)
        T = TriangularSystem(lambdas=lam, zeta=zeta)
        z = solve_unit(T)
        assert np.all(z >= 0.8) and np.all(z <= 1.0)
        worst_res = max(worst_res, float(np.max(np.abs(T.matrix() @ z - 1.0))))
        beta = rng.uniform(0.8, 1.2, size=n)
        alpha = _dual_decompose(beta, T)
        assert np.all(alpha >= 0.0) and np.all(alpha < 2.0)
        worst_dual_res = max(worst_dual_res, float(np.max(np.abs(T.matrix().T @ alpha - beta))))
        worst_identity = max(worst_identity, abs(float(beta @ z) - float(alpha.sum())))
    assert worst_res <= 1e-12
    assert worst_dual_res <= 1e-12
    assert worst_identity <= 1e-10
    _report(2, f"1000 systems: residuals {worst_res:.1e}/{worst_dual_res:.1e}, "
               f"pairing identity gap {worst_identity:.1e}")


def test_criterion_3_norm_sandwich():
    t0 = time.perf_counter()
    line = rl.builtin_space("line", step=0.01, window=(-10, 10))
    cfg = rl.build_config(line, rl.GroupSpec.trivial(line), C=1.1, depth=6)
    rng = np.random.default_rng(777)
    worst_bound = 0.0
    for _ in range(200):
        x = random_piecewise_linear(line, rng)
        sup = float(np.max(np.abs(x)))
        if sup == 0:
            continue
        res = triple_norm(x, cfg)
        assert sup <= res.value
        assert res.value <= 1.1 * sup
        worst_bound = max(worst_bound, res.truncation_bound / sup)
    assert worst_bound <= 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"sandwich suite took {elapsed:.1f}s"
    _report(3, f"200 functions sandwiched, relative truncation bound {worst_bound:.1e}, "
               f"{elapsed:.1f}s")


def test_criterion_4_g_invariance(product_cfg):
    cfg = product_cfg
    space = cfg.space
    rng = np.random.default_rng(4242)
    worst = 0.0
    for g in cfg.group.generators:
        for _ in range(50):
            x = random_piecewise_linear(space, rng)
            gx = g.apply(x)
            rx = triple_norm(x, cfg)
            rgx = triple_norm(gx, cfg)
            allowance = (2 * lipschitz_constant(space, x) * 2 * space.resolution
                         + 2 * rx.truncation_bound)
            gap = abs(rgx.value - rx.value)
            worst = max(worst, gap)
            assert gap <= allowance
    _report(4, f"rotation generators preserve the norm; worst gap {worst:.1e}")


def _brute_force_dual_lower(cfg, t, betas):
    """Bump-family maximization of beta . x(t) / |x| over tent heights."""
    heights_axis = np.linspace(0.8, 1.0, 5)
    evaluations = []
    for u in itertools.product(heights_axis, repeat=t.n + 1):
        spec = witness_for_tuple(t, cfg, u)
        x, _ = witness_function(spec, cfg)
        evaluations.append((np.asarray(u), triple_norm(x, cfg).value))
    lowers = []
    for beta in betas:
        best_u, best = None, 0.0
        for u, nrm in evaluations:
            val = float(beta @ u) / nrm
            if val > best:
                best, best_u = val, u
        # refine locally around the best grid point
        axes = [np.clip(np.linspace(v - 0.025, v + 0.025, 5), 0.8, 1.0) for v in best_u]
        for u in itertools.product(*axes):
            spec = witness_for_tuple(t, cfg, u)
            x, _ = witness_function(spec, cfg)
            val = float(beta @ np.asarray(u)) / triple_norm(x, cfg).value
            best = max(best, val)
        lowers.append(best)
    return lowers


def _lp_dual_upper(T: TriangularSystem, beta: np.ndarray) -> float:
    """Independent linear-programming bound: maximize beta . u subject to
    every system row applied to u staying at most one."""
    res = scipy.optimize.linprog(
        c=-beta,
        A_ub=T.matrix(),
        b_ub=np.ones(T.size),
        bounds=[(0, None)] * T.size,
        method="highs",
    )
    assert res.success
    return float(-res.fun)


def test_criterion_5_dual_oracle(line_cfg):
    cfg = line_cfg
    tuples = [cfg.base_tuple(i, 1) for i in range(1, 13)]
    tuples += [cfg.base_tuple(i, 2) for i in range(1, 9)]
    assert len(tuples) == 20
    worst_gap = 0.0
    for t in tuples:
        T = build_matrix(t, cfg)
        beta_grid = [np.full(t.n + 1, b) for b in np.linspace(0.8, 1.0, 5)]
        lowers = _brute_force_dual_lower(cfg, t, beta_grid)
        for beta, lower in zip(beta_grid, lowers):
            value, _ = dual_norm_atoms(t, beta, cfg)
            upper = _lp_dual_upper(T, beta)
            assert value <= upper + 1e-7, (value, upper)
            assert lower <= value + 1e-9
            gap = (value - lower) / value
            worst_gap = max(worst_gap, gap)
            assert gap <= 0.05, (t.points, beta[0], value, lower)
    _report(5, f"20 tuples x 5 betas: brute-force lower within {worst_gap:.2%}, "
               "never above the LP upper bound")


def test_criterion_6_sot_counterexample(remark_space):
    space = remark_space
    seq = remark25_sequence(space)
    assert len(seq) == 50
    # the top exhaustion element is the whole truncated sample, whose
    # convergence threshold sits beyond the sampled horizon by construction;
    # the gallery checks the exhaustion compacts with in-horizon thresholds
    K_list = list(space.exhaustion[:-1])
    verdict = check_sot_convergence(seq, identity(space), K_list, 0.01)
    cond = {c.name: c for c in verdict.conditions}
    assert cond["phi_uniform"].passed
    assert all(v is not None for v in cond["phi_uniform"].thresholds.values())
    assert not cond["inverse_images"].passed
    assert cond["inverse_images"].witness is not None
    assert not verdict.converges
    x = np.array([p.startswith("(0,") for p in space.points], dtype=float)  # the column
    gaps = [float(np.max(np.abs(g.apply(x) - x))) for g in seq]
    assert gaps == [1.0] * 50
    _report(6, f"uniform maps pass on {len(K_list)} compacts, inverse-image "
               f"condition fails with witness {cond['inverse_images'].witness}, "
               "explicit function gap is exactly 1 at every stage")


def test_criterion_7_bounded_group_example(onepoint_space, swap_group):
    space = onepoint_space
    bgn = m_weight(swap_group)
    assert bgn.m[space.index("inf")] == 1.0
    for n in range(1, space.metric_form["n_max"] + 1):
        assert bgn.m[space.index(f"(1,{n})")] == 0.5
    assert "inf" in bgn.flagged
    rng = np.random.default_rng(99)
    worst = 0.0
    for n in (1, 17, 50):
        cg = conjugate(swap_group.generators[n - 1], bgn)
        for _ in range(50):
            f = rng.uniform(-1, 1, size=space.n)
            worst = max(worst, abs(float(np.max(np.abs(cg.apply(f))))
                                   - float(np.max(np.abs(f)))))
    assert worst <= 1e-12
    agree = all(group_norm(rng.uniform(-1, 1, size=space.n), bgn).agree
                for _ in range(20))
    assert agree
    _report(7, f"extremal weight exact, infinity flagged, conjugates isometric "
               f"to {worst:.1e}, both norm formulas agree exactly")


def test_criterion_8_detector(line_cfg, product_cfg):
    verdicts = []
    v = certify(identity(line_cfg.space), line_cfg, test_depth=4)
    assert v.verdict == "certified-in-G"
    verdicts.append(v)
    v1 = certify(line_translation(line_cfg.space, 0.3), line_cfg, test_depth=4)
    v2 = certify(line_translation(line_cfg.space, 0.3), line_cfg, test_depth=4)
    assert v1.verdict == "rejected" and v1.witness == v2.witness
    assert v1.witness["kind"] == "fingerprint"
    verdicts.append(v1)

    g, gi = product_cfg.group.generators[0], product_cfg.group.generators[1]
    for base in (g, gi):
        word = identity(product_cfg.space)
        for _ in range(4):
            word = compose(word, base)
            v = certify(word, product_cfg, test_depth=4)
            assert v.verdict == "certified-in-G"
            verdicts.append(v)
    space = product_cfg.space
    circ, seg = space.factors
    rotflip = compose(lift(circle_rotation(circ, steps=4), space, "left"),
                      lift(interval_flip(seg), space, "right"))
    v = certify(rotflip, product_cfg, test_depth=4)
    assert v.verdict == "rejected"
    verdicts.append(v)
    assert all(x.verdict != "inconclusive" for x in verdicts)
    _report(8, f"{len(verdicts)} candidates decided: identity and all words "
               "certified, translation and rotation+flip rejected with witnesses")
