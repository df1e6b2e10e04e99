#!/usr/bin/env python3
"""Profile the renorming on the line: sandwich ratios and cap sensitivity.

Usage: python3 scripts/norm_profile.py [--functions 50] [--depth 6]
"""

import argparse

import numpy as np

import renormlab as rl
from renormlab.cli import random_piecewise_linear
from renormlab.norm import gamma_cap_trace


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
    ratios = []
    for _ in range(args.functions):
        x = random_piecewise_linear(line, rng)
        sup = float(np.max(np.abs(x)))
        res = rl.triple_norm(x, cfg)
        ratios.append(res.value / sup)
    ratios = np.asarray(ratios)
    print(f"value / sup over {args.functions} functions: "
          f"min {ratios.min():.6f}  mean {ratios.mean():.6f}  max {ratios.max():.6f}")

    prod = rl.builtin_space("circle_x_interval", count=48, levels=16)
    from renormlab.operators import circle_rotation, lift
    gen = lift(circle_rotation(prod.factors[0], steps=4), prod, "left")
    group = rl.GroupSpec((gen,), word_cap=6)
    pcfg = rl.build_config(prod, group, C=1.1, depth=4)
    x = rng.uniform(-1, 1, size=prod.n)
    print("orbit-label cap sensitivity on the product space:")
    for cap, value in gamma_cap_trace(x, pcfg, caps=(1, 2, 3, 4, 6, 8, 12)):
        print(f"  cap {cap:>2}: {value:.9f}")


if __name__ == "__main__":
    main()
