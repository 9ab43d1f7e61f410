#!/usr/bin/env python3
"""Reproduce the noiseless theory column: mean clone fidelity per clone
count, from exact sweeps of every circuit variant known for M = 2..10.

Usage: python scripts/theory_table.py [--grid N]
"""

import argparse
import time

from teleclone import TelecloningVariant, shrinking_factor, theoretical_fidelity
from teleclone.exceptions import CircuitError
from teleclone.experiment import ExperimentConfig, run_experiment
from teleclone.telecloning import check_variant


def _known(m):
    """The variants with a circuit for M clones."""
    for variant in TelecloningVariant:
        try:
            check_variant(m, variant)
        except CircuitError:
            continue
        yield variant


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid", type=int, default=10,
                    help="grid side (default 10 -> 100 states)")
    args = ap.parse_args()

    print(f"{'M':>3} {'variant':<24} {'sim mean':>12} {'bound':>10} "
          f"{'|diff|':>9} {'eta':>8} {'time':>7}")
    for m in range(2, 11):
        for variant in _known(m):
            t0 = time.time()
            cfg = ExperimentConfig(m=m, variant=variant, n_psi=args.grid,
                                   n_phi=args.grid, mode="exact")
            rec = run_experiment(cfg)
            mean = rec.aggregate["overall_mean_fidelity"]
            bound = theoretical_fidelity(1, m)
            print(f"{m:>3} {variant.value:<24} {mean:>12.9f} {bound:>10.6f} "
                  f"{abs(mean - bound):>9.2e} {shrinking_factor(1, m):>8.4f} "
                  f"{time.time() - t0:>6.1f}s")


if __name__ == "__main__":
    main()
