#!/usr/bin/env python3
"""Depolarizing-noise sweep: mean clone fidelity vs error probability, for
the M=2 ancilla-free circuit (density-matrix evolution, no sampling noise).
Each noise level compiles one noisy clone response, contracted per message.

Usage: python scripts/noise_sweep.py [--out sweep.csv]
"""

import argparse
import sys

import numpy as np

from teleclone import (MessageState, NoiseModel, TelecloningVariant,
                       build_protocol_circuit, clone_metrics)
from teleclone.simulator import apply_response, compile_response, message_state

PROBS = [0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None, help="write CSV here (stdout otherwise)")
    ap.add_argument("--grid", type=int, default=4, help="message grid side")
    args = ap.parse_args()

    messages = [MessageState(p, f)
                for p in np.linspace(0, np.pi, args.grid)
                for f in np.linspace(0, 2 * np.pi, args.grid)]
    lines = ["p,mean_fidelity,mean_bloch_magnitude"]
    for p in PROBS:
        noise = NoiseModel(depolarizing_1q=p, depolarizing_2q=p)
        fids, mags = [], []
        circuits = [build_protocol_circuit(2, TelecloningVariant.NO_ANCILLA, msg)
                    for msg in messages]
        (response,) = compile_response(circuits[:1], noise)
        for msg, circ in zip(messages, circuits):
            for rho in apply_response(response, message_state(circ, noise)):
                met = clone_metrics(rho, msg.bloch())
                fids.append(met.fidelity_to_message)
                mags.append(met.bloch_magnitude)
        lines.append(f"{p},{np.mean(fids):.6f},{np.mean(mags):.6f}")
        print(f"p={p:<6} mean fidelity {np.mean(fids):.4f}", file=sys.stderr)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
