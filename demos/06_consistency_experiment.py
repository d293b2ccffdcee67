#!/usr/bin/env python3
"""
A desk-scale consistency experiment, end to end.

Samples graphs over a grid of sizes, estimates the order on each, and
summarizes recovery rates.  Every byte of output is determined by the
config and master seed; the same experiment is available from the shell as
`ktsbm consistency --config ... --out ...`.
"""

import tempfile
from pathlib import Path

from ktsbm.experiments import ExperimentConfig, run_consistency, write_outputs

config = ExperimentConfig(
    k0=2,
    pi0=(0.5, 0.5),
    P0=((0.9, 0.1), (0.1, 0.9)),
    regime="dense",
    n_grid=(6, 8, 10),
    trials=60,
    epsilon=1.0,
    k_max=4,
    kt_method="exact",
    master_seed=31415,
)

print("running", config.trials, "trials per size on n_grid =", config.n_grid, "...")
records = run_consistency(config, threads=4, log=None)

print()
print(f"{'n':>4} {'frac k_hat=k0':>14} {'under':>7} {'over':>6}")
for n in config.n_grid:
    rs = [r for r in records if r.n == n]
    correct = sum(r.k_hat == config.k0 for r in rs) / len(rs)
    under = sum(r.k_hat < config.k0 for r in rs) / len(rs)
    over = sum(r.k_hat > config.k0 for r in rs) / len(rs)
    print(f"{n:>4} {correct:>14.2f} {under:>7.2f} {over:>6.2f}")

with tempfile.TemporaryDirectory(prefix="ktsbm_demo_") as out:
    paths = write_outputs(config, records, Path(out))
    print()
    print("CSV artifacts (deterministic given the config):")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    print()
    print("head of trials.csv:")
    print("\n".join(paths["trials"].read_text().splitlines()[:4]))
