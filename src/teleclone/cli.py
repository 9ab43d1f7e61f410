"""Command line interface: build circuits, run sweeps, analyze records,
export OpenQASM. Exit codes: 0 success, 1 configuration error, 2 a sweep
finished with failed grid points."""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
import zlib
from pathlib import Path

from . import __version__
from .circuit import from_json, to_json
from .exceptions import ConfigError, TelecloneError
from .experiment import (ExperimentConfig, ExperimentRecord, _durations, _transform_for,
                         emit_bloch, emit_heatmap, run_experiment)
from .qasm import export_extensions, export_qasm
from .telecloning import (BASIS_CHOICES, MessageState, TelecloningVariant,
                          build_protocol_circuit, with_tomography)
# The layers that a sweep imports load here, not when it needs them, because
# bench/traced_cli.py lists the loaded modules before it wraps their
# functions. With no bytecode cached, this order gave a bench workload's CLI
# run the lowest peak memory: hardware first adds 0.3-0.4 MB, hardware last
# up to 0.1 MB, and analysis first 1.8 MB.
from . import simulator, hardware, analysis, tomography  # noqa: F401

_VARIANTS = {v.value: v for v in TelecloningVariant}


def _add_build(sub):
    p = sub.add_parser("build", help="build one protocol circuit")
    p.add_argument("--m", type=int, required=True, help="number of clones")
    p.add_argument("--variant", choices=sorted(_VARIANTS), required=True)
    p.add_argument("--psi", type=float, default=0.0, help="message RY angle")
    p.add_argument("--phi", type=float, default=0.0, help="message RZ angle")
    p.add_argument("--basis", choices=BASIS_CHOICES, default="none",
                   help="tomography basis applied to the clones")
    p.add_argument("--layout-index", type=int, default=None,
                   help="map to a device layout (0..6) and the native gateset")
    p.add_argument("--dd", choices=("on", "off"), default="off",
                   help="pad idle windows with X-X pairs (requires a layout)")
    p.add_argument("--durations", type=Path, default=None,
                   help="JSON duration table for scheduling")
    p.add_argument("--out", type=Path, default=None,
                   help="write circuit JSON here (stdout otherwise)")


def _cmd_build(args) -> int:
    durations = None if args.durations is None else _durations(
        json.loads(args.durations.read_text()))
    config = ExperimentConfig(m=args.m, variant=_VARIANTS[args.variant],
                              layout_index=args.layout_index, dd=args.dd == "on",
                              durations=durations)
    circuit = _transform_for(config)(build_protocol_circuit(
        config.m, config.variant, MessageState(args.psi, args.phi), tomo_basis=args.basis))
    text = to_json(circuit)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


def _add_run(sub):
    p = sub.add_parser("run", help="run a message-state sweep from a config")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, default=Path("runs"))


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json_dict(json.loads(args.config.read_text()))
    record = run_experiment(config)
    config_json = json.dumps(config.to_json_dict(), sort_keys=True,
                             separators=(",", ":"))
    digest = f"{zlib.crc32(config_json.encode()):08x}"
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out = _fresh_dir(args.out_dir, f"{stamp}-{digest}")
    (out / "config.json").write_text(config_json + "\n")
    (out / "record.json").write_text(record.to_json() + "\n")
    for k in range(config.m):
        (out / f"heatmap-clone{k}.csv").write_text(emit_heatmap(record, k))
    (out / "bloch.json").write_text(emit_bloch(record) + "\n")
    circ_dir = out / "circuits"
    circ_dir.mkdir(exist_ok=True)
    none = build_protocol_circuit(config.m, config.variant, MessageState(0.0, 0.0))
    tomo = [with_tomography(none, basis) for basis in BASIS_CHOICES]
    for basis, text in zip(BASIS_CHOICES, export_extensions(none, tomo)):
        (circ_dir / f"protocol-{basis}.qasm").write_text(text)
    failed = record.aggregate["n_failed"]
    print(f"wrote {out}")
    _print_summary(record)
    return 2 if failed else 0


def _fresh_dir(parent: Path, name: str) -> Path:
    """Create parent/name, or parent/name-2, name-3, ... when it is taken.
    Each mkdir is exclusive, so two runs never share a directory."""
    parent.mkdir(parents=True, exist_ok=True)
    for k in itertools.count(1):
        out = parent / (name if k == 1 else f"{name}-{k}")
        try:
            out.mkdir()
        except FileExistsError:
            continue
        return out


def _print_summary(record: ExperimentRecord):
    agg = record.aggregate
    cfg = record.config
    print(f"m={cfg.m} variant={cfg.variant.value} mode={cfg.mode} "
          f"points={agg['n_points']} failed={agg['n_failed']}")
    if agg["overall_mean_fidelity"] is not None:
        print(f"mean clone fidelity: {agg['overall_mean_fidelity']:.6f} "
              f"(std {agg['overall_std_fidelity']:.2e})")
        for k, row in enumerate(agg["per_clone"]):
            print(f"  clone {k}: {row['mean_fidelity']:.6f}")


def _add_analyze(sub):
    p = sub.add_parser("analyze", help="summarize a record.json")
    p.add_argument("record", type=Path)


def _cmd_analyze(args) -> int:
    record = ExperimentRecord.from_json(args.record.read_text())
    from .analysis import shrinking_factor, theoretical_fidelity
    cfg = record.config
    _print_summary(record)
    theory = theoretical_fidelity(1, cfg.m)
    eta = shrinking_factor(1, cfg.m)
    agg = record.aggregate
    if agg["overall_mean_fidelity"] is not None:
        print(f"theory bound: {theory:.6f} "
              f"(delta {agg['overall_mean_fidelity'] - theory:+.3e})")
    mags, angs = [], []
    for point in record.results:
        for clone in point["clones"]:
            mags.append(clone["bloch_magnitude"])
            angs.append(clone["bloch_angle_error"])
    if mags:
        import numpy as np
        print(f"bloch magnitude: mean {np.mean(mags):.6f} (eta {eta:.6f}), "
              f"max angle error {max(angs):.3e} rad")
    return 0


def _add_export(sub):
    p = sub.add_parser("export", help="export a circuit JSON to OpenQASM 3")
    p.add_argument("--circuit", type=Path, required=True)
    p.add_argument("--format", choices=("qasm", "json"), default="qasm")
    p.add_argument("--out", type=Path, default=None)


def _cmd_export(args) -> int:
    circuit = from_json(args.circuit.read_text())
    text = export_qasm(circuit) if args.format == "qasm" else to_json(circuit) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="teleclone",
        description="telecloning circuits: build, simulate, verify")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_build(sub)
    _add_run(sub)
    _add_analyze(sub)
    _add_export(sub)
    args = parser.parse_args(argv)
    handlers = {"build": _cmd_build, "run": _cmd_run,
                "analyze": _cmd_analyze, "export": _cmd_export}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (TelecloneError, OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError,
            MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
