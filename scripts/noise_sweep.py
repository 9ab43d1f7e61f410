#!/usr/bin/env python3
"""Noise sweeps of the mean clone fidelity, each point one exact-mode
``run_experiment`` sweep over a grid of messages, whose record gives the
means.

The default sweep varies the depolarizing probability for the M=2
ancilla-free circuit (density-matrix evolution, no sampling noise).

``--curve`` runs the clone-count curve instead: the optimized resource at
M=2..10 on layout 0, with and without dynamical decoupling, under
depolarizing 0.001 (one-qubit) and 0.01 (cx), readout flip 0.02 and
amplitude damping 0.002. Up to M=4 the prep is evolved exactly; past the
density cap its response is the mean of K prep trajectories, and the
standard error printed is the mean of the clones' standard errors over those
trajectories, a bound on that of the mean over clones (0 and K=0 when
exact).

Usage: python scripts/noise_sweep.py [--out sweep.csv] [--grid N] [--curve]
"""

import argparse
import sys

import numpy as np

from teleclone import NoiseModel, TelecloningVariant
from teleclone.experiment import ExperimentConfig, run_experiment

PROBS = [0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
CURVE_NOISE = NoiseModel(depolarizing_1q=0.001, depolarizing_2q=0.01, readout_flip=0.02,
                         amplitude_damping_idle=0.002)


def depolarizing_sweep(grid: int) -> list[str]:
    lines = ["p,mean_fidelity,mean_bloch_magnitude"]
    for p in PROBS:
        record = run_experiment(ExperimentConfig(
            m=2, variant=TelecloningVariant.NO_ANCILLA, n_psi=grid, n_phi=grid,
            noise=NoiseModel(depolarizing_1q=p, depolarizing_2q=p)))
        fid = record.aggregate["overall_mean_fidelity"]
        mag = np.mean([c["bloch_magnitude"] for point in record.results
                       for c in point["clones"]])
        lines.append(f"{p},{fid:.6f},{mag:.6f}")
        print(f"p={p:<6} mean fidelity {fid:.4f}", file=sys.stderr)
    return lines


def clone_count_curve(grid: int) -> list[str]:
    lines = ["m,dd,mean_fidelity,se,trajectories"]
    for m in range(2, 11):
        for dd in (False, True):
            agg = run_experiment(ExperimentConfig(
                m=m, variant=TelecloningVariant.WITH_ANCILLA_OPTIMIZED, n_psi=grid,
                n_phi=grid, layout_index=0, dd=dd, noise=CURVE_NOISE)).aggregate
            fid = agg["overall_mean_fidelity"]
            se = np.mean([row.get("mean_fidelity_se", 0.0) for row in agg["per_clone"]])
            k = agg.get("trajectories", 0)
            lines.append(f"{m},{int(dd)},{fid:.6f},{se:.6f},{k}")
            print(f"M={m:<2} dd={'on ' if dd else 'off'} mean fidelity {fid:.4f} "
                  f"+- {se:.4f} (K={k})", file=sys.stderr)
    return lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None, help="write CSV here (stdout otherwise)")
    ap.add_argument("--grid", type=int, default=4, help="message grid side")
    ap.add_argument("--curve", action="store_true",
                    help="the M=2..10 curve with and without decoupling")
    args = ap.parse_args()

    lines = clone_count_curve(args.grid) if args.curve else depolarizing_sweep(args.grid)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
