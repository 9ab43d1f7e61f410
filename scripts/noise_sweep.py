#!/usr/bin/env python3
"""Depolarizing-noise sweep: mean clone fidelity vs error probability, for
the M=2 ancilla-free circuit (density-matrix evolution, no sampling noise).
Each noise level is one exact-mode ``run_experiment`` sweep over a grid of
messages, whose record gives the means.

Usage: python scripts/noise_sweep.py [--out sweep.csv] [--grid N]
"""

import argparse
import sys

import numpy as np

from teleclone import NoiseModel, TelecloningVariant
from teleclone.experiment import ExperimentConfig, run_experiment

PROBS = [0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None, help="write CSV here (stdout otherwise)")
    ap.add_argument("--grid", type=int, default=4, help="message grid side")
    args = ap.parse_args()

    lines = ["p,mean_fidelity,mean_bloch_magnitude"]
    for p in PROBS:
        record = run_experiment(ExperimentConfig(
            m=2, variant=TelecloningVariant.NO_ANCILLA, n_psi=args.grid, n_phi=args.grid,
            noise=NoiseModel(depolarizing_1q=p, depolarizing_2q=p)))
        fid = record.aggregate["overall_mean_fidelity"]
        mag = np.mean([c["bloch_magnitude"] for point in record.results
                       for c in point["clones"]])
        lines.append(f"{p},{fid:.6f},{mag:.6f}")
        print(f"p={p:<6} mean fidelity {fid:.4f}", file=sys.stderr)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
