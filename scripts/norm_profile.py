#!/usr/bin/env python3
"""Profile the renorming on the line: sandwich ratios and cap sensitivity.

Every norm and cap trace the script computes is also checked against a
full-tree evaluation, which computes every plan row: the line functions,
plus on the product config 20 seeded noise functions, the indicators of
100 seeded points and 100 seeded two-point functions, whose cap traces
are checked under the edge caps as well.  The script exits 1 on any
mismatch.  Last it prints the throughput on the product config:
calls/s of triple_norm and gamma_cap_trace over 200 seeded noise
functions, and of dual_norm_atoms over 200 seeded in-window tuples of 2
to 4 slots with weights in [4/5, 1], each the median of 5 timed passes.
No timing is checked.

Usage: python3 scripts/norm_profile.py [--functions 50] [--depth 6]
"""

import argparse
import statistics
import sys
import time

import numpy as np

import renormlab as rl
from renormlab.cli import random_piecewise_linear
from renormlab.norm import gamma_cap_trace
from renormlab.operators import circle_rotation, lift

CAPS = (1, 2, 3, 4, 6, 8, 12)
# caps that hold no row, a repeat, and a cap far above every label
EDGE_CAPS = (-1, 0, 1, 1, 5, 2**40)
NOISE_FUNCTIONS = 20
POINT_FUNCTIONS = 100  # indicators, and as many two-point functions
RATE_FUNCTIONS, RATE_PASSES = 200, 5


def full_tree(x, cfg):
    """The values of every row of every plan, each its parent's plus the
    term of its last slot, as the pruned walk adds them."""
    ax = np.abs(x)
    heads = cfg.heads
    vals = heads.weights[:, 0] * ax[heads.idx[:, 0]]
    out = [vals[cfg.plans[0].parent]]
    for plan in cfg.plans[1:]:
        vals = ax[plan.idx[:, -1]] * plan.weights[:, -1] + vals[plan.parent]
        out.append(vals)
    return out


def mismatches(x, cfg, cap_lists):
    """What of triple_norm and gamma_cap_trace, under each caps list,
    differs from the full tree."""
    values = full_tree(x, cfg)
    best = max(float(v.max()) for v in values)
    k = next(k for k, v in enumerate(values) if v.max() == best)  # the first plan, then the first row
    plan, pos = cfg.plans[k], int(values[k].argmax())
    start = int(plan.starts[pos])
    res = rl.triple_norm(x, cfg)
    found = []
    want = (best, (start, start + plan.n), tuple(plan.gammas[pos].tolist()))
    got = (res.value, res.argmax_window, res.argmax_gammas)
    if got != want:
        found.append(f"triple_norm {got} != full tree {want}")
    rows, top = np.concatenate(values), np.concatenate([p.top for p in cfg.plans])
    for caps in cap_lists:
        want = [(c, float(rows[top < c].max()) if (top < c).any() else 0.0) for c in sorted(set(caps))]
        got = gamma_cap_trace(x, cfg, caps)
        if got != want:
            found.append(f"gamma_cap_trace {got} != full tree {want}")
    return found


def throughput(evaluate, functions):
    """Functions per second of evaluate: the median over timed passes."""
    rates = []
    for _ in range(RATE_PASSES):
        t0 = time.perf_counter()
        for x in functions:
            evaluate(x)
        rates.append(len(functions) / (time.perf_counter() - t0))
    return statistics.median(rates)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--functions", type=int, default=50)
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    line = rl.builtin_space("line", step=0.01, window=(-10, 10))
    cfg = rl.build_config(line, rl.GroupSpec.trivial(line), C=1.1, depth=args.depth)
    print(f"config: {cfg.provenance()}")
    rng = np.random.default_rng(args.seed)
    ratios, failed, checked = [], [], 0
    for _ in range(args.functions):
        x = random_piecewise_linear(line, rng)
        sup = float(np.max(np.abs(x)))
        res = rl.triple_norm(x, cfg)
        ratios.append(res.value / sup)
        failed += mismatches(x, cfg, (CAPS,))
        checked += 1
    ratios = np.asarray(ratios)
    print(f"value / sup over {args.functions} functions: "
          f"min {ratios.min():.6f}  mean {ratios.mean():.6f}  max {ratios.max():.6f}")

    prod = rl.builtin_space("circle_x_interval", count=48, levels=16)
    gen = lift(circle_rotation(prod.factors[0], steps=4), prod, "left")
    group = rl.GroupSpec((gen,), word_cap=6)
    pcfg = rl.build_config(prod, group, C=1.1, depth=4)
    x = rng.uniform(-1, 1, size=prod.n)
    print("orbit-label cap sensitivity on the product space:")
    for cap, value in gamma_cap_trace(x, pcfg, caps=CAPS):
        print(f"  cap {cap:>2}: {value:.9f}")
    noise = np.random.default_rng([args.seed, 1])
    checks = [x, *(noise.uniform(-1, 1, size=prod.n) for _ in range(NOISE_FUNCTIONS))]
    for points in [*noise.choice(prod.n, size=(POINT_FUNCTIONS, 1)),
                   *(noise.choice(prod.n, size=2, replace=False) for _ in range(POINT_FUNCTIONS))]:
        x = np.zeros(prod.n)
        x[points] = noise.uniform(0.5, 1.0, size=len(points))
        checks.append(x)
    for x in checks:
        failed += mismatches(x, pcfg, (CAPS, EDGE_CAPS))
        checked += 1

    print(f"full-tree check: {checked} functions, {len(failed)} mismatches")
    for message in failed[:10]:
        print(f"  {message}")

    rate_rng = np.random.default_rng([args.seed, 2])
    functions = [rate_rng.uniform(-1, 1, size=prod.n) for _ in range(RATE_FUNCTIONS)]
    tuples = []
    for _ in range(RATE_FUNCTIONS):
        # a window of n + 1 slots inside the enumerated plans, as the benchmark draws them
        n = int(rate_rng.integers(1, 4))
        start = int(rate_rng.integers(1, (pcfg.base_count - 1 if n == 1 else pcfg.depth - n) + 1))
        gammas = [int(rate_rng.integers(len(pcfg.orbit_of_base(start + j)))) for j in range(n + 1)]
        tuples.append((pcfg.tuple_index(start, gammas), rate_rng.uniform(0.8, 1.0, size=n + 1)))
    print(f"on the product config, calls/s (median of {RATE_PASSES} passes over {RATE_FUNCTIONS} "
          f"noise functions or in-window tuples):")
    print(f"  triple_norm      {throughput(lambda x: rl.triple_norm(x, pcfg), functions):>9,.0f}")
    print(f"  gamma_cap_trace  {throughput(lambda x: gamma_cap_trace(x, pcfg, CAPS), functions):>9,.0f}")
    print(f"  dual_norm_atoms  {throughput(lambda t: rl.dual_norm_atoms(*t, pcfg), tuples):>9,.0f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
