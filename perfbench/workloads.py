"""The benchmark's workloads: fixed inputs, one timed iteration, output checks.

A workload is built once per run from a `Context` (the freshly imported
obfusense modules, the scenario loaded from the benchmark's config file and a
FrameSimulator for it). `run()` is the timed part and calls only public
obfusense names; `outcome()` turns its raw result into the values compared
against stored expectations, invariants that hold for every seed and a sha256
over all outputs for the run-to-run identity check. Every iteration of a run
repeats the same inputs, so every iteration must reproduce the same digest.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Context:
    mods: object           # namespace of obfusense modules: channel, irs, ...
    scenario: object
    cfg: object            # obfusense.io.ExperimentConfig
    sim: object            # FrameSimulator built in set-up
    cfg_path: Path
    workdir: Path


@dataclass
class Outcome:
    values: dict           # named results compared with expected.json
    checks: list           # (name, ok) invariants that hold for any seed
    digest: str            # sha256 over every output
    counts: dict = field(default_factory=dict)  # counts read from output files


def _frames(duration_s: float, sample_rate: float) -> int:
    return int(round(duration_s * sample_rate))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _finite_positive(x) -> bool:
    return math.isfinite(x) and x > 0.0


def _unit_interval(x) -> bool:
    return 0.0 <= x <= 1.0


class WalkDetect:
    """README "Library use" flow, defense off then on: reference and
    subcarrier selection, a walk with a person, threshold, detection, ROC."""

    name = "walk_detect"
    reference_s = 6.0
    walk_s = 6.0

    def __init__(self, ctx: Context):
        self.ctx = ctx
        cfg = ctx.cfg
        self.walk = cfg.walk
        self.person = ctx.mods.channel.PersonState(
            position=(0.0, 0.0), scatter_gain_db=cfg.scatter_gain_db,
            blocking_radius=cfg.blocking_radius, blocking_depth_db=cfg.blocking_depth_db)
        self.alg = dict(progression_rate=cfg.progression_rate, hold_prob=cfg.hold_prob,
                        update_rate=cfg.update_rate)
        fs = ctx.scenario.sample_rate
        self.frames = 2 * (_frames(self.reference_s, fs) + _frames(self.walk_s, fs))

    def run(self):
        ex, sn = self.ctx.mods.experiments, self.ctx.mods.sensing
        scn, cfg, sim = self.ctx.scenario, self.ctx.cfg, self.ctx.sim
        out = {}
        for defense in (False, True):
            ref, subs = ex.reference_and_selection(
                scn, defense, self.reference_s, n_select=cfg.n_select, window_s=cfg.window_s,
                stream=0, simulator=sim, **self.alg)
            obs = ex.run_session(scn, defense, self.walk, self.walk_s, window_s=cfg.window_s,
                                 subcarriers=subs, stream=1, person_template=self.person,
                                 simulator=sim, **self.alg)
            u = sn.calibrate_threshold(ref, cfg.c)
            rate = sn.detect(obs, u).detection_rate
            auc = sn.roc(obs, ref).auc
            out["on" if defense else "off"] = (ref, subs, obs, u, rate, auc)
        return out

    def outcome(self, raw) -> Outcome:
        fs = self.ctx.scenario.sample_rate
        n_w = int(round(self.ctx.cfg.window_s * fs))
        values, checks, parts = {}, [], []
        for key, (ref, subs, obs, u, rate, auc) in raw.items():
            values.update({f"{key}.subcarriers": list(subs), f"{key}.threshold": u,
                           f"{key}.detection_rate": rate, f"{key}.auc": auc,
                           f"{key}.reference_mean": float(ref.values.mean()),
                           f"{key}.walk_mean": float(obs.values.mean())})
            checks += [
                (f"{key}.threshold finite > 0", _finite_positive(u)),
                (f"{key}.detection_rate in [0, 1]", _unit_interval(rate)),
                (f"{key}.auc in [0, 1]", _unit_interval(auc)),
                (f"{key}.selected subcarrier count", len(subs) == self.ctx.cfg.n_select),
                (f"{key}.observation length",
                 len(obs) == _frames(self.walk_s, fs) - n_w + 1
                 and len(ref) == _frames(self.reference_s, fs) - n_w + 1),
            ]
            parts += [ref.values, obs.values, subs, u, rate, auc,
                      obs.meta["irs_change_frames"], ref.meta["irs_change_frames"]]
        return Outcome(values, checks, _digest(*parts))


class DefenseGrid:
    """Scheduler parameter grid including hold_prob = 0, plus a defended
    rotating-reflector coverage grid run in-process (jobs=1)."""

    name = "defense_grid"
    r_values = (0.025, 0.05)
    p_values = (0.0, 0.6)
    cell_s = 5.0
    grid = (2, 1)
    reference_s = 5.0
    session_s = 5.0

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.positions = ctx.mods.experiments.coverage_grid_positions(ctx.scenario, *self.grid)
        fs = ctx.scenario.sample_rate
        n_cells = len(self.r_values) * len(self.p_values)
        self.frames = (n_cells * _frames(self.cell_s, fs) + _frames(self.reference_s, fs)
                       + len(self.positions) * _frames(self.session_s, fs))

    def run(self):
        ex = self.ctx.mods.experiments
        scn, cfg = self.ctx.scenario, self.ctx.cfg
        cells = ex.parameter_study(scn, self.r_values, self.p_values, self.cell_s, c=cfg.c,
                                   window_s=cfg.window_s, update_rate=cfg.update_rate)
        cov = ex.run_coverage_grid(
            scn, self.positions, True, cfg.c, reference_s=self.reference_s,
            session_s=self.session_s, window_s=cfg.window_s, n_select=cfg.n_select,
            progression_rate=cfg.progression_rate, hold_prob=cfg.hold_prob,
            update_rate=cfg.update_rate, jobs=1)
        return cells, cov

    def outcome(self, raw) -> Outcome:
        cells, cov = raw
        values, checks = {}, []
        fields = ("median", "mad", "threshold", "euclidean_norm", "coherence_time_s")
        for cell in cells:
            key = f"ps.r{cell.progression_rate}.p{cell.hold_prob}"
            for name in fields:
                values[f"{key}.{name}"] = getattr(cell, name)
            checks.append((f"{key} finite > 0",
                           all(_finite_positive(getattr(cell, n)) for n in fields)))
        checks.append(("paramstudy cell count",
                       len(cells) == len(self.r_values) * len(self.p_values)))
        values.update({"cov.threshold": cov.threshold, "cov.threshold_maxref": cov.threshold_maxref,
                       "cov.rates": [float(r) for r in cov.rates],
                       "cov.rates_maxref": [float(r) for r in cov.rates_maxref]})
        checks += [
            ("cov thresholds finite > 0",
             _finite_positive(cov.threshold) and _finite_positive(cov.threshold_maxref)),
            ("cov rates in [0, 1]", all(_unit_interval(float(r))
                                        for r in np.concatenate([cov.rates, cov.rates_maxref]))),
            ("cov position count", len(cov.rates) == len(self.positions)),
        ]
        return Outcome(values, checks, _digest(json.dumps(values, sort_keys=True)))


class TraceRoundtrip:
    """In-process CLI: simulate a defended reference and a defended walk
    (each writes trace.csv), ingest the walk trace, attack the ingested
    observation with the reference."""

    name = "trace_roundtrip"
    reference_s = 1.2
    walk_s = 1.5
    _META_LINES = 5  # "# key=value" lines that export_trace writes

    def __init__(self, ctx: Context):
        self.ctx = ctx
        w = ctx.workdir
        self.dirs = {name: w / name for name in ("reference", "walk", "ingest", "attack")}
        cfg = str(ctx.cfg_path)
        self.commands = [
            ["simulate", "--config", cfg, "--motion", "none", "--defense", "on",
             "--duration", repr(self.reference_s), "--out", str(self.dirs["reference"])],
            ["simulate", "--config", cfg, "--motion", "walk", "--defense", "on",
             "--duration", repr(self.walk_s), "--stream", "1", "--out", str(self.dirs["walk"])],
            ["ingest", "--trace", str(self.dirs["walk"] / "trace.csv"),
             "--out", str(self.dirs["ingest"])],
            ["attack", "--reference", str(self.dirs["reference"] / "observation.csv"),
             "--motion", str(self.dirs["ingest"] / "observation.csv"),
             "--C", repr(ctx.cfg.c), "--out", str(self.dirs["attack"])],
        ]
        scn = ctx.scenario
        self.frames = (_frames(self.reference_s, scn.sample_rate)
                       + _frames(self.walk_s, scn.sample_rate))
        self.components = scn.n_subcarriers * scn.n_rx * scn.n_tx

    def run(self):
        cli = self.ctx.mods.cli
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in self.commands]

    def outcome(self, codes) -> Outcome:
        checks = [(f"exit code of {argv[0]} #{i}", rc == 0)
                  for i, (argv, rc) in enumerate(zip(self.commands, codes))]
        files = sorted(p for d in self.dirs.values() if d.is_dir() for p in d.iterdir())
        blobs = {p.relative_to(self.ctx.workdir).as_posix(): p.read_bytes() for p in files}
        traces = [blobs.get(f"{d}/trace.csv", b"") for d in ("reference", "walk")]
        rows = [t.count(b"\n") - self._META_LINES - 1 for t in traces]
        walk_obs = blobs.get("walk/observation.csv")
        checks += [
            ("ingest observation.csv byte-identical to simulate's",
             walk_obs is not None and walk_obs == blobs.get("ingest/observation.csv")),
            ("trace rows = frames x components",
             sum(rows) == self.frames * self.components),
        ]
        values = {"trace.rows": sum(rows)}
        if "attack/report.json" in blobs:
            report = json.loads(blobs["attack/report.json"])
            values.update({f"attack.{k}": report[k]
                           for k in ("threshold", "detection_rate", "fpr", "auc")})
            checks.append(("attack auc in [0, 1]", _unit_interval(report["auc"])))
        digest = _digest(*(hashlib.sha256(b).hexdigest() + name for name, b in blobs.items()))
        counts = {"io.trace_rows": sum(rows), "io.trace_bytes": sum(len(t) for t in traces),
                  "ingest_bytes": len(traces[1]), "observe_cells": rows[1]}
        return Outcome(values, checks, digest, counts)


WORKLOADS = {w.name: w for w in (WalkDetect, DefenseGrid, TraceRoundtrip)}
