"""Command-line front end with reproducible seeds and machine-readable outputs.

Exit codes: 0 success, 2 usage error, 3 config/validation error, 4 runtime
error. Every run writes a manifest (config hash, seed, versions) sufficient to
reproduce its outputs bit-exactly.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, experiments, io as oio, sensing
from .channel import ScenarioError

OUT_ENV = "OBFUSENSE_OUT"


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, args, config_path=None, seed=None, extra=None):
    manifest = {
        "schema_version": oio.SCHEMA_VERSION,
        "tool": "obfusense",
        "version": __version__,
        "numpy_version": np.__version__,
        "python_version": ".".join(str(v) for v in sys.version_info[:3]),
        "command": args.command,
        "arguments": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seed": seed,
        "config_sha256": _sha256(config_path) if config_path else None,
    }
    if extra:
        manifest.update(extra)
    with open(out_dir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")


def _load(args):
    scenario, cfg = oio.load_scenario(args.config)
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
    return scenario, cfg


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_values(text: str):
    """Comma list (1,2,3) or start:stop:step range (32:256:32, inclusive)."""
    if ":" in text:
        start, stop, step_ = (float(v) for v in text.split(":"))
        if step_ <= 0:
            raise ValueError("range step must be > 0")
        n = int(round((stop - start) / step_))
        values = [start + i * step_ for i in range(n + 1) if start + i * step_ <= stop + 1e-9]
        if not values:
            raise ValueError(f"--values {text!r}: range stop below start gives no values")
        return values
    return [float(v) for v in text.split(",")]


def cmd_simulate(args):
    scenario, cfg = _load(args)
    motion = {"none": None, "walk": cfg.walk, "reflector": cfg.reflector}[args.motion]
    person = cfg.person() if args.motion == "walk" else None
    obs, frames = experiments.run_session(
        scenario, args.defense == "on", motion, args.duration, window_s=cfg.window_s,
        stream=args.stream, person_template=person, keep_frames=True, **cfg.settings())
    out = _out_dir(args)
    oio.export_trace(frames, out / "trace.csv",
                     oio.TraceHeader(scenario.n_subcarriers, scenario.n_rx, scenario.n_tx,
                                     scenario.sample_rate))
    oio.export_observation(obs, out / "observation.csv")
    _write_manifest(out, args, config_path=args.config, seed=scenario.seed)
    print(f"wrote {out / 'trace.csv'} and {out / 'observation.csv'}")
    return 0


def cmd_attack(args):
    reference = oio.load_observation(args.reference)
    motion = oio.load_observation(args.motion)
    report = sensing.attack_report(reference, motion,
                                   c=None if args.max_ref else args.C, use_max=args.max_ref)
    provenance = {
        "reference": str(args.reference),
        "reference_sha256": _sha256(args.reference),
        "motion": str(args.motion),
        "motion_sha256": _sha256(args.motion),
        "threshold_rule": "max_reference" if args.max_ref else f"median+{args.C}*mad",
    }
    out = _out_dir(args)
    oio.export_report(report, out / "report.json", provenance)
    _write_manifest(out, args)
    print(f"threshold={report.threshold:.6g} detection_rate={report.detection_rate:.4f} "
          f"fpr={report.fpr:.4f} auc={report.auc:.4f}")
    return 0


def cmd_coverage(args):
    scenario, cfg = _load(args)
    try:
        nx, ny = oio.parse_grid(args.grid)
    except ValueError as exc:
        raise ValueError(f"--grid: {exc}") from None
    grid = experiments.coverage_grid_positions(scenario, nx, ny)
    result = experiments.run_coverage_grid(
        scenario, grid, args.defense == "on", cfg.c,
        reference_s=args.reference_s if args.reference_s is not None else cfg.reference_s,
        session_s=args.session_s, rpm=cfg.reflector.rpm,
        reflector_gain_db=cfg.reflector.peak_scatter_gain_db, window_s=cfg.window_s,
        n_select=cfg.n_select, jobs=args.jobs, **cfg.settings())
    out = _out_dir(args)
    with open(out / "coverage.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# schema_version={oio.SCHEMA_VERSION}\n")
        fh.write("x,y,detection_rate,detection_rate_maxref\n")
        for pos, r, rm in zip(result.positions, result.rates, result.rates_maxref):
            fh.write(f"{repr(float(pos[0]))},{repr(float(pos[1]))},{repr(float(r))},{repr(float(rm))}\n")
    summary = {
        "schema_version": oio.SCHEMA_VERSION,
        "threshold": result.threshold,
        "threshold_maxref": result.threshold_maxref,
        "c": result.c,
        "defense": args.defense,
        "rates": [float(v) for v in result.rates],
        "rates_maxref": [float(v) for v in result.rates_maxref],
        "meta": {k: (v if not isinstance(v, (list, np.ndarray)) else list(map(int, v)))
                 for k, v in result.meta.items()},
    }
    with open(out / "coverage.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_manifest(out, args, config_path=args.config, seed=scenario.seed)
    print(f"wrote {out / 'coverage.csv'} ({len(result.rates)} positions)")
    return 0


def _write_sweep_csv(result, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# schema_version={oio.SCHEMA_VERSION}\n")
        fh.write("sweep_var,value,stat,number\n")
        for cell in result.cells:
            for stat in ("median", "p01", "p99", "threshold"):
                fh.write(f"{result.sweep_var},{repr(float(cell.value))},{stat},"
                         f"{repr(float(getattr(cell, stat)))}\n")


def cmd_sweep(args):
    scenario, cfg = _load(args)
    values = _parse_values(args.values)
    kwargs = dict(c=cfg.c, window_s=cfg.window_s, session_s=args.duration, **cfg.settings())
    if args.var == "size":
        result = experiments.sweep_irs_size(scenario, [int(v) for v in values], **kwargs)
    elif args.var == "distance":
        result = experiments.sweep_irs_distance(scenario, values, **kwargs)
    else:
        result = experiments.sweep_irs_orientation(scenario, values, **kwargs)
    out = _out_dir(args)
    _write_sweep_csv(result, out / "sweep.csv")
    _write_manifest(out, args, config_path=args.config, seed=scenario.seed,
                    extra={"sweep_var": result.sweep_var, "cells": len(result.cells)})
    print(f"wrote {out / 'sweep.csv'} ({len(result.cells)} cells)")
    return 0


def cmd_paramstudy(args):
    scenario, cfg = _load(args)
    r_values = [float(v) for v in args.R.split(",")]
    p_values = [float(v) for v in args.P.split(",")]
    cells = experiments.parameter_study(scenario, r_values, p_values, args.duration,
                                        c=cfg.c, window_s=cfg.window_s,
                                        update_rate=cfg.update_rate)
    out = _out_dir(args)
    with open(out / "paramstudy.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# schema_version={oio.SCHEMA_VERSION}\n")
        fh.write("progression_rate,hold_prob,median,mad,threshold,euclidean_norm,coherence_time_s\n")
        for cell in cells:
            fh.write(",".join(repr(float(v)) for v in (
                cell.progression_rate, cell.hold_prob, cell.median, cell.mad,
                cell.threshold, cell.euclidean_norm, cell.coherence_time_s)) + "\n")
    _write_manifest(out, args, config_path=args.config, seed=scenario.seed,
                    extra={"cells": len(cells)})
    print(f"wrote {out / 'paramstudy.csv'} ({len(cells)} cells)")
    return 0


def cmd_ingest(args):
    frames, header = oio.ingest_trace(args.trace)
    if not len(frames):
        raise oio.IngestError(f"{args.trace}: no frames")
    obs = sensing.observe(frames, args.window, header.sample_rate)
    out = _out_dir(args)
    oio.export_observation(obs, out / "observation.csv")
    _write_manifest(out, args, extra={"trace_sha256": _sha256(args.trace)})
    print(f"wrote {out / 'observation.csv'} ({len(obs)} samples)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obfusense",
        description="Simulate passive Wi-Fi motion sensing and surface-based channel obfuscation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="scenario config file")
            p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV} or .)")

    p = sub.add_parser("simulate", help="generate one session trace + observation")
    add_common(p)
    p.add_argument("--motion", choices=["none", "walk", "reflector"], default="none")
    p.add_argument("--defense", choices=["on", "off"], default="off")
    p.add_argument("--duration", type=float, required=True, help="session length, seconds")
    p.add_argument("--stream", type=int, default=0, help="session sub-stream id")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("attack", help="threshold + detection report from observation files")
    add_common(p, needs_config=False)
    p.add_argument("--reference", required=True)
    p.add_argument("--motion", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--C", type=float, default=11.0, help="conservativeness factor")
    group.add_argument("--max-ref", action="store_true", help="use max of the reference as threshold")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("coverage", help="rotating-reflector detection-rate map")
    add_common(p)
    p.add_argument("--grid", default="5x4", help="NXxNY grid of reflector positions")
    p.add_argument("--defense", choices=["on", "off"], default="off")
    p.add_argument("--reference-s", type=float, default=None)
    p.add_argument("--session-s", type=float, default=60.0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("sweep", help="surface size / distance / orientation sweeps")
    add_common(p)
    p.add_argument("--var", choices=["size", "distance", "orientation"], required=True)
    p.add_argument("--values", required=True, help="comma list or start:stop:step")
    p.add_argument("--duration", type=float, default=120.0, help="seconds per cell")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("paramstudy", help="scheduler parameter grid")
    add_common(p)
    p.add_argument("--R", required=True, help="comma list of progression rates")
    p.add_argument("--P", required=True, help="comma list of hold probabilities")
    p.add_argument("--duration", type=float, default=120.0, help="seconds per cell")
    p.set_defaults(func=cmd_paramstudy)

    p = sub.add_parser("ingest", help="recompute an observation from a trace CSV")
    add_common(p, needs_config=False)
    p.add_argument("--trace", required=True)
    p.add_argument("--window", type=float, default=1.0, help="observation window, seconds")
    p.set_defaults(func=cmd_ingest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (oio.ConfigError, oio.IngestError, ScenarioError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
