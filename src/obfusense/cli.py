"""Command-line front end with reproducible seeds and machine-readable outputs.

Exit codes: 0 success, 2 usage error, 3 config/validation error, 4 runtime
error. Every run writes a manifest (config hash, seed, versions) sufficient to
reproduce its outputs bit-exactly.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import astuple, fields, replace
from pathlib import Path

# One BLAS thread, as the benchmark measures the CLI, unless the user sets a count: a BLAS
# reads these when numpy is first imported, below. The library leaves the environment alone.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import __version__, experiments, io as oio, sensing  # noqa: E402
from .channel import ScenarioError  # noqa: E402

OUT_ENV = "OBFUSENSE_OUT"
MAX_RANGE_VALUES = 10_000


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, args, config_path=None, seed=None, extra=None):
    manifest = {
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
    oio.write_json(out_dir / "manifest.json", manifest)


def _load(args):
    """(scenario, config) with --seed applied; a ValueError naming experiment.reference_s or
    the first session-length flag given (--duration, --session-s, --reference-s) that
    experiments.check_session rejects."""
    scenario, cfg = oio.load_scenario(args.config)
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
    with _flag("experiment.reference_s"):
        experiments.check_session(scenario, cfg.reference_s, cfg.window_s)
    for name in ("duration", "session_s", "reference_s"):
        if getattr(args, name, None) is not None:
            with _flag("--" + name.replace("_", "-")):
                experiments.check_session(scenario, getattr(args, name), cfg.window_s)
    return scenario, cfg


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


@contextmanager
def _flag(name: str | dict):
    """Prefix a ValueError raised inside the block with the flag it came from: name, or from a
    {field: flag} dict the flag of the field its message starts with (io._named's rule)."""
    try:
        yield
    except ValueError as exc:
        flag = name.get(str(exc).split(" ", 1)[0]) if isinstance(name, dict) else name
        raise (ValueError(f"{flag}: {exc}") if flag else exc) from None


def _parse_values(text: str):
    """Comma list (1,2,3) or start:stop:step range (32:256:32, inclusive) of finite
    numbers; a range gives at most MAX_RANGE_VALUES values, checked before any is built."""
    if ":" in text:
        if text.count(":") != 2:
            raise ValueError(f"range {text!r} must be start:stop:step")
        start, stop, step_ = (float(v) for v in text.split(":"))
        if not all(map(math.isfinite, (start, stop, step_))):
            raise ValueError(f"range {text!r}: start, stop and step must be finite")
        if step_ <= 0:
            raise ValueError("range step must be > 0")
        span = (stop - start) / step_
        if span < 0:
            raise ValueError(f"range {text!r}: stop below start gives no values")
        if span >= MAX_RANGE_VALUES:
            raise ValueError(f"range {text!r} gives more than {MAX_RANGE_VALUES} values")
        return [start + i * step_ for i in range(round(span) + 1) if start + i * step_ <= stop + 1e-9]
    return [float(v) for v in text.split(",")]


def cmd_simulate(args):
    scenario, cfg = _load(args)
    motion = {"none": None, "walk": cfg.walk, "reflector": cfg.reflector}[args.motion]
    person = cfg.person() if args.motion == "walk" else None
    with _flag({"stream": "--stream"}):
        obs, frames = experiments.run_session(
            scenario, args.defense == "on", motion, args.duration, window_s=cfg.window_s,
            stream=args.stream, person_template=person, keep_frames=True, **cfg.settings())
    out = _out_dir(args)
    oio.export_trace(frames, out / "trace.csv", scenario.sample_rate)
    oio.export_observation(obs, out / "observation.csv")
    _write_manifest(out, args, config_path=args.config, seed=scenario.seed)
    print(f"wrote {out / 'trace.csv'} and {out / 'observation.csv'}")
    return 0


def cmd_attack(args):
    with _flag("--C"):
        oio.ExperimentConfig(c=args.C)  # the config's rule for experiment.c
    reference = oio.load_observation(args.reference)
    motion = oio.load_observation(args.motion)
    threshold = (sensing.max_threshold(reference) if args.max_ref
                 else sensing.calibrate_threshold(reference, args.C))
    if not math.isfinite(threshold):
        raise ValueError(f"--C: threshold median + {args.C:g} * MAD overflows to {threshold}")
    report = sensing.attack_report(reference, motion, threshold)
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
    with _flag("--grid"):
        grid = experiments.coverage_grid_positions(scenario, *oio.parse_grid(args.grid),
                                                   session_s=args.session_s)
    with _flag({"jobs": "--jobs"}):
        result = experiments.run_coverage_grid(
            scenario, grid, args.defense == "on", cfg.c,
            reference_s=args.reference_s if args.reference_s is not None else cfg.reference_s,
            session_s=args.session_s, rpm=cfg.reflector.rpm,
            reflector_gain_db=cfg.reflector.peak_scatter_gain_db, window_s=cfg.window_s,
            n_select=cfg.n_select, jobs=args.jobs, **cfg.settings())
    out = _out_dir(args)
    oio.write_csv(out / "coverage.csv", ("x", "y", "detection_rate", "detection_rate_maxref"),
                  np.column_stack((result.positions, result.rates, result.rates_maxref)))
    summary = {
        "threshold": result.threshold,
        "threshold_maxref": result.threshold_maxref,
        "c": result.c,
        "defense": args.defense,
        "rates": [float(v) for v in result.rates],
        "rates_maxref": [float(v) for v in result.rates_maxref],
        "meta": {k: (v if not isinstance(v, (list, np.ndarray)) else list(map(int, v)))
                 for k, v in result.meta.items()},
    }
    oio.write_json(out / "coverage.json", summary)
    _write_manifest(out, args, config_path=args.config, seed=scenario.seed)
    print(f"wrote {out / 'coverage.csv'} ({len(result.rates)} positions)")
    return 0


def cmd_sweep(args):
    scenario, cfg = _load(args)
    with _flag("--values"):
        values = _parse_values(args.values)
        experiments.sweep_sessions(scenario, args.var, values)
    result = experiments.sweep(scenario, args.var, values, c=cfg.c, window_s=cfg.window_s,
                               session_s=args.duration, **cfg.settings())
    out = _out_dir(args)
    oio.write_csv(out / "sweep.csv", ("sweep_var", "value", "stat", "number"),
                  ((result.sweep_var, cell.value, stat, getattr(cell, stat))
                   for cell in result.cells for stat in ("median", "p01", "p99", "threshold")))
    _write_manifest(out, args, config_path=args.config, seed=scenario.seed,
                    extra={"sweep_var": result.sweep_var, "cells": len(result.cells)})
    print(f"wrote {out / 'sweep.csv'} ({len(result.cells)} cells)")
    return 0


def cmd_paramstudy(args):
    scenario, cfg = _load(args)
    with _flag("--R"):
        r_values = [float(v) for v in args.R.split(",")]
    with _flag("--P"):
        p_values = [float(v) for v in args.P.split(",")]
    with _flag({"progression_rate": "--R", "hold_prob": "--P"}):
        cells = experiments.parameter_study(scenario, r_values, p_values, args.duration,
                                            c=cfg.c, window_s=cfg.window_s,
                                            update_rate=cfg.update_rate)
    out = _out_dir(args)
    oio.write_csv(out / "paramstudy.csv", [f.name for f in fields(experiments.ParamStudyCell)],
                  map(astuple, cells))
    _write_manifest(out, args, config_path=args.config, seed=scenario.seed,
                    extra={"cells": len(cells)})
    print(f"wrote {out / 'paramstudy.csv'} ({len(cells)} cells)")
    return 0


def cmd_ingest(args):
    with _flag("--window"):
        oio.ExperimentConfig(window_s=args.window)  # the config's rule for experiment.window_s
    frames, sample_rate = oio.ingest_trace(args.trace)
    if not len(frames):
        raise oio.IngestError(f"{args.trace}: no frames")
    with _flag("--window"):
        obs = sensing.observe(frames, args.window, sample_rate)
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
    p.add_argument("--values", required=True,
                   help=f"comma list or start:stop:step (at most {MAX_RANGE_VALUES} values)")
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
