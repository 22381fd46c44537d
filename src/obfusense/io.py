"""Config parsing, CSI trace export/ingest, and result serialization.

Three documented schemas, all versioned:
  - trace CSV: `# key=value` header lines, then `t,k,rx,tx,re,im` rows over a
    complete (t, k, rx, tx) lattice in canonical order;
  - observation CSV: `t_seconds,sigma_bar` rows plus sample-rate/window header
    lines;
  - report JSON: threshold, rates, ROC points, AUC, provenance.
Floats serialize via repr (shortest round-trip), so export -> ingest -> export
is byte-identical.
"""
from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import CsiFrame, Scenario, ScenarioError, _unit, rect_room
from .experiments import RotatingReflector, Trajectory
from .sensing import DetectionReport, ObservationSeries

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Bad scenario/experiment configuration file."""


class IngestError(ValueError):
    """Malformed or incomplete trace file."""


@dataclass
class ExperimentConfig:
    """Knobs outside the physical scenario: defense, protocol, and motion."""

    progression_rate: float = 0.05
    hold_prob: float = 0.6
    update_rate: float = 20.0
    c: float = 11.0
    reference_s: float = 180.0
    window_s: float = 1.0
    n_select: int = 28
    walk: Trajectory | None = None
    reflector: RotatingReflector | None = None
    blocking_radius: float = 0.4
    blocking_depth_db: float = 10.0
    scatter_gain_db: float = -5.0


def default_scenario(seed: int = 1, snr_db: float = 30.0) -> Scenario:
    """Office-sized room with the surface beside the anchor, facing the eve side."""
    anchor = (1.2, 2.75)
    eve = (6.3, 2.75)
    irs_pos = _default_irs_pos(anchor)
    normal = _bisector_normal(irs_pos, anchor, eve)
    return Scenario(anchor_pos=anchor, eve_pos=eve, room=rect_room(7.5, 5.5),
                    irs_pos=irs_pos, irs_normal=normal, snr_db=snr_db, seed=seed)


def default_walk() -> Trajectory:
    """Slow patrol back and forth across the anchor-eve line."""
    return Trajectory(waypoints=[(4.0, 2.15), (4.0, 3.35)], speed=0.45)


def _default_irs_pos(anchor, distance: float = 0.3):
    d = _unit((-1.0, 1.0))
    return (anchor[0] + distance * d[0], anchor[1] + distance * d[1])


def _bisector_normal(irs_pos, anchor, eve):
    to_anchor = _unit((anchor[0] - irs_pos[0], anchor[1] - irs_pos[1]))
    to_eve = _unit((eve[0] - irs_pos[0], eve[1] - irs_pos[1]))
    n = _unit(to_anchor + to_eve)
    return (float(n[0]), float(n[1]))


# ---------------------------------------------------------------------------
# Scenario configuration files (INI sections)

_KNOWN_KEYS = {
    "room": {"walls"},
    "anchor": {"position"},
    "eavesdropper": {"position"},
    "irs": {"position", "normal", "elements", "grid", "panel_size"},
    "radio": {"carrier_freq_hz", "n_subcarriers", "subcarrier_spacing_hz", "n_tx", "n_rx",
              "antenna_spacing_m", "sample_rate", "snr_db", "wall_reflection_loss_db"},
    "defense": {"progression_rate", "hold_probability", "update_rate"},
    "experiment": {"seed", "reference_s", "window_s", "n_select", "c",
                   "walk_waypoints", "walk_speed", "walk_dwell",
                   "reflector_position", "reflector_rpm", "reflector_gain_db",
                   "blocking_radius", "blocking_depth_db", "scatter_gain_db"},
}


def _parse_point(text: str, key: str):
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected two coordinates, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse_walls(text: str):
    walls = []
    for line in text.strip().splitlines():
        parts = line.replace(",", " ").split()
        if len(parts) != 4:
            raise ConfigError(f"room.walls: each line needs x1 y1 x2 y2, got {line!r}")
        x1, y1, x2, y2 = (float(v) for v in parts)
        walls.append(((x1, y1), (x2, y2)))
    return walls


def _parse_points_list(text: str, key: str):
    pts = []
    for line in text.strip().splitlines():
        pts.append(_parse_point(line, key))
    return pts


def _get(parser, section, key, cast, default, errors):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        errors.append(f"{section}.{key}: {exc}")
        return default


def load_scenario(path):
    """Parse a scenario config file; returns (Scenario, ExperimentConfig).

    Unknown sections or keys are rejected; omitted keys fall back to the
    documented defaults.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise
    except configparser.Error as exc:
        line = getattr(exc, "lineno", "?")
        raise ConfigError(f"{path}: parse error at line {line}: {exc.message}") from None

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    errors: list = []
    get = lambda s, k, cast, dflt: _get(parser, s, k, cast, dflt, errors)

    anchor = get("anchor", "position", lambda v: _parse_point(v, "anchor.position"), None)
    eve = get("eavesdropper", "position", lambda v: _parse_point(v, "eavesdropper.position"), None)
    if anchor is None:
        raise ConfigError("anchor.position is required")
    if eve is None:
        raise ConfigError("eavesdropper.position is required")

    walls = get("room", "walls", _parse_walls, rect_room(7.5, 5.5))

    irs_pos = get("irs", "position", lambda v: _parse_point(v, "irs.position"), _default_irs_pos(anchor))
    if parser.has_option("irs", "normal") and parser.get("irs", "normal").strip() != "auto":
        normal = _parse_point(parser.get("irs", "normal"), "irs.normal")
        norm = math.hypot(normal[0], normal[1])
        if norm < 1e-12:
            raise ConfigError("irs.normal: zero vector")
        normal = (normal[0] / norm, normal[1] / norm)
    else:
        normal = _bisector_normal(irs_pos, anchor, eve)

    grid_text = get("irs", "grid", str, "16x16")
    try:
        nx, ny = (int(v) for v in grid_text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"irs.grid: expected NXxNY, got {grid_text!r}") from None
    elements = get("irs", "elements", int, nx * ny)
    if elements != nx * ny:
        raise ConfigError(f"irs.elements={elements} does not match grid {nx}x{ny}")
    panel = get("irs", "panel_size", lambda v: _parse_point(v, "irs.panel_size"), (0.43, 0.35))

    spacing = get("radio", "antenna_spacing_m", float, None)
    seed = get("experiment", "seed", int, 1)

    if errors:
        raise ConfigError("; ".join(errors))

    try:
        scenario = Scenario(
            anchor_pos=anchor,
            eve_pos=eve,
            room=walls,
            irs_pos=irs_pos,
            irs_normal=normal,
            irs_grid=(nx, ny),
            irs_panel=panel,
            n_tx=get("radio", "n_tx", int, 3),
            n_rx=get("radio", "n_rx", int, 3),
            antenna_spacing=spacing,
            carrier_freq=get("radio", "carrier_freq_hz", float, 5.32e9),
            n_subcarriers=get("radio", "n_subcarriers", int, 56),
            subcarrier_spacing=get("radio", "subcarrier_spacing_hz", float, 312.5e3),
            sample_rate=get("radio", "sample_rate", float, 70.0),
            snr_db=get("radio", "snr_db", float, 30.0),
            wall_reflection_loss_db=get("radio", "wall_reflection_loss_db", float, 6.0),
            seed=seed,
        )
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from None
    if errors:
        raise ConfigError("; ".join(errors))

    walk = None
    if parser.has_option("experiment", "walk_waypoints"):
        walk = Trajectory(
            waypoints=_parse_points_list(parser.get("experiment", "walk_waypoints"),
                                         "experiment.walk_waypoints"),
            speed=get("experiment", "walk_speed", float, 0.45),
            dwell=get("experiment", "walk_dwell", float, 0.0),
        )
    else:
        walk = default_walk()
    reflector = None
    if parser.has_option("experiment", "reflector_position"):
        reflector = RotatingReflector(
            position=_parse_point(parser.get("experiment", "reflector_position"),
                                  "experiment.reflector_position"),
            rpm=get("experiment", "reflector_rpm", float, 20.0),
            peak_scatter_gain_db=get("experiment", "reflector_gain_db", float, 15.0),
        )

    cfg = ExperimentConfig(
        progression_rate=get("defense", "progression_rate", float, 0.05),
        hold_prob=get("defense", "hold_probability", float, 0.6),
        update_rate=get("defense", "update_rate", float, 20.0),
        c=get("experiment", "c", float, 11.0),
        reference_s=get("experiment", "reference_s", float, 180.0),
        window_s=get("experiment", "window_s", float, 1.0),
        n_select=get("experiment", "n_select", int, 28),
        walk=walk,
        reflector=reflector,
        blocking_radius=get("experiment", "blocking_radius", float, 0.4),
        blocking_depth_db=get("experiment", "blocking_depth_db", float, 10.0),
        scatter_gain_db=get("experiment", "scatter_gain_db", float, -5.0),
    )
    if errors:
        raise ConfigError("; ".join(errors))
    if not (0.0 < cfg.progression_rate <= 0.5):
        raise ConfigError("defense.progression_rate must be in (0, 0.5]")
    if not (0.0 <= cfg.hold_prob < 1.0):
        raise ConfigError("defense.hold_probability must be in [0, 1)")
    if cfg.n_select < 1 or cfg.n_select > scenario.n_subcarriers:
        raise ConfigError("experiment.n_select out of range")
    return scenario, cfg


# ---------------------------------------------------------------------------
# Trace CSV

@dataclass
class TraceHeader:
    n_subcarriers: int
    n_rx: int
    n_tx: int
    sample_rate: float = 70.0


def export_trace(frames, path, header: TraceHeader | None = None):
    """Write frames as the canonical trace CSV (rows sorted by t, k, rx, tx)."""
    frames = list(frames)
    if not frames:
        raise ValueError("no frames to export")
    shape = frames[0].values.shape
    hdr = header or TraceHeader(n_subcarriers=shape[0], n_rx=shape[1], n_tx=shape[2])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        fh.write(f"# n_subcarriers={hdr.n_subcarriers}\n")
        fh.write(f"# n_rx={hdr.n_rx}\n")
        fh.write(f"# n_tx={hdr.n_tx}\n")
        fh.write(f"# sample_rate={repr(float(hdr.sample_rate))}\n")
        fh.write("t,k,rx,tx,re,im\n")
        for f in frames:
            v = f.values
            for k in range(hdr.n_subcarriers):
                for rx in range(hdr.n_rx):
                    for tx in range(hdr.n_tx):
                        z = v[k, rx, tx]
                        fh.write(f"{f.t_index},{k},{rx},{tx},{repr(float(z.real))},{repr(float(z.imag))}\n")


def _read_meta_lines(fh):
    meta = {}
    pos = fh.tell()
    line = fh.readline()
    while line.startswith("#"):
        body = line[1:].strip()
        if "=" in body:
            key, val = body.split("=", 1)
            meta[key.strip()] = val.strip()
        pos = fh.tell()
        line = fh.readline()
    fh.seek(pos)
    return meta


def _check_schema(meta: dict, path):
    try:
        major = int(float(meta.get("schema_version", "1")))
    except ValueError:
        raise IngestError(f"{path}: bad schema_version {meta.get('schema_version')!r}") from None
    if major > SCHEMA_VERSION:
        raise IngestError(f"{path}: schema_version {major} is newer than supported {SCHEMA_VERSION}")


def read_trace_header(path) -> TraceHeader:
    """Dimensions and sample rate from a trace CSV's `# key=value` lines."""
    with open(path, "r", encoding="utf-8") as fh:
        meta = _read_meta_lines(fh)
    _check_schema(meta, path)
    try:
        return TraceHeader(n_subcarriers=int(meta["n_subcarriers"]), n_rx=int(meta["n_rx"]),
                           n_tx=int(meta["n_tx"]), sample_rate=float(meta["sample_rate"]))
    except KeyError as exc:
        raise IngestError(f"{path}: missing header key {exc}") from None


def ingest_trace(path, header: TraceHeader | None = None):
    """Yield CsiFrames from a trace CSV.

    Without `header`, the file's own header is used (see read_trace_header).
    The (t, k, rx, tx) lattice must be complete for every frame and frame
    indices must not go backwards; row order inside one frame is free.
    """
    header = header or read_trace_header(path)
    with open(path, "r", encoding="utf-8") as fh:
        _check_schema(_read_meta_lines(fh), path)
        first = fh.readline().strip()
        if first != "t,k,rx,tx,re,im":
            raise IngestError(f"{path}: expected header row 't,k,rx,tx,re,im', got {first!r}")
        yield from _frames_from_rows(fh, header, path)


def _frames_from_rows(fh, header: TraceHeader, path):
    shape = (header.n_subcarriers, header.n_rx, header.n_tx)
    current_t = None
    values = None
    seen = None

    def flush():
        missing = np.argwhere(~seen)
        if missing.size:
            k, rx, tx = missing[0]
            raise IngestError(f"{path}: frame t={current_t} missing cell (k={k}, rx={rx}, tx={tx})")
        return CsiFrame(t_index=current_t, values=values)

    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise IngestError(f"{path}: malformed row {line!r}")
        t, k, rx, tx = (int(parts[i]) for i in range(4))
        re, im = float(parts[4]), float(parts[5])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise IngestError(f"{path}: non-finite value at t={t}")
        if not (0 <= k < shape[0] and 0 <= rx < shape[1] and 0 <= tx < shape[2]):
            raise IngestError(f"{path}: index (k={k}, rx={rx}, tx={tx}) outside header dimensions")
        if current_t is None or t != current_t:
            if current_t is not None:
                if t < current_t:
                    raise IngestError(f"{path}: frame index goes backwards at t={t}")
                yield flush()
            current_t = t
            values = np.zeros(shape, dtype=complex)
            seen = np.zeros(shape, dtype=bool)
        if seen[k, rx, tx]:
            raise IngestError(f"{path}: duplicate cell (t={t}, k={k}, rx={rx}, tx={tx})")
        values[k, rx, tx] = complex(re, im)
        seen[k, rx, tx] = True
    if current_t is not None:
        yield flush()


# ---------------------------------------------------------------------------
# Observation CSV

def export_observation(obs: ObservationSeries, path):
    n_w = int(round(obs.window_s * obs.sample_rate))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        fh.write(f"# sample_rate={repr(float(obs.sample_rate))}\n")
        fh.write(f"# window_s={repr(float(obs.window_s))}\n")
        fh.write("t_seconds,sigma_bar\n")
        for i, v in enumerate(obs.values):
            t = (i + n_w - 1) / obs.sample_rate
            fh.write(f"{repr(t)},{repr(float(v))}\n")


def load_observation(path) -> ObservationSeries:
    with open(path, "r", encoding="utf-8") as fh:
        meta = _read_meta_lines(fh)
        _check_schema(meta, path)
        first = fh.readline().strip()
        if first != "t_seconds,sigma_bar":
            raise IngestError(f"{path}: expected header row 't_seconds,sigma_bar', got {first!r}")
        values = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise IngestError(f"{path}: malformed row {line!r}")
            values.append(float(parts[1]))
    return ObservationSeries(values=np.asarray(values), sample_rate=float(meta.get("sample_rate", 70.0)),
                             window_s=float(meta.get("window_s", 1.0)), meta={"path": str(path)})


# ---------------------------------------------------------------------------
# Report JSON

def report_to_dict(report: DetectionReport, provenance: dict | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "threshold": report.threshold,
        "detection_rate": report.detection_rate,
        "tpr": report.tpr,
        "fpr": report.fpr,
        "roc": [[float(f), float(t)] for f, t in (report.roc_points or [])],
        "auc": report.auc,
        "provenance": dict(provenance or {}),
    }


def export_report(report, path, provenance: dict | None = None):
    """Write a detection report (DetectionReport or an already-built dict)."""
    if isinstance(report, DetectionReport):
        doc = report_to_dict(report, provenance)
    else:
        doc = dict(report)
        doc.setdefault("schema_version", SCHEMA_VERSION)
        if provenance:
            doc["provenance"] = dict(provenance)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    major = int(doc.get("schema_version", 1))
    if major > SCHEMA_VERSION:
        raise IngestError(f"{path}: schema_version {major} is newer than supported {SCHEMA_VERSION}")
    return doc
