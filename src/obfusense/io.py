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
import os
import re
import warnings
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .channel import PersonState, Scenario, _unit, check_surface_size, rect_room
from .experiments import RotatingReflector, Trajectory, check_update_rate
from .irs import SchedulerParams
from .sensing import DetectionReport, ObservationSeries

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Bad scenario/experiment configuration file."""


class IngestError(ValueError):
    """Malformed or incomplete trace file."""


@dataclass
class ExperimentConfig(SchedulerParams):
    """Knobs outside the physical scenario: scheduler (inherited), protocol, and motion."""

    c: float = 11.0
    reference_s: float = 180.0
    window_s: float = 1.0
    n_select: int = 28
    walk: Trajectory | None = None
    reflector: RotatingReflector | None = None
    blocking_radius: float = 0.4
    blocking_depth_db: float = 10.0
    scatter_gain_db: float = -5.0

    def __post_init__(self):
        super().__post_init__()
        if not (0 <= self.c < math.inf):
            raise ValueError(f"c must be finite and >= 0, got {self.c!r}")
        for name in ("reference_s", "window_s"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        self.person()  # PersonState checks the blocking and scatter parameters

    def person(self) -> PersonState:
        """Walking-person template with the configured blocking and scatter parameters."""
        return PersonState(position=(0.0, 0.0), scatter_gain_db=self.scatter_gain_db,
                           blocking_radius=self.blocking_radius,
                           blocking_depth_db=self.blocking_depth_db)


def default_scenario(seed: int = 1, snr_db: float = 30.0) -> Scenario:
    """Office-sized room with the surface beside the anchor, facing the eve side."""
    return _placed_scenario(anchor_pos=(1.2, 2.75), eve_pos=(6.3, 2.75), snr_db=snr_db, seed=seed)


def default_walk() -> Trajectory:
    """Slow patrol back and forth across the anchor-eve line."""
    return Trajectory(waypoints=[(4.0, 2.15), (4.0, 3.35)], speed=0.45)


def _placed_scenario(**fields) -> Scenario:
    """Scenario whose room defaults to a 7.5 x 5.5 m rectangle and whose surface
    defaults to 0.3 m beside the anchor, facing the bisector of the anchor and
    eve directions (also when only irs_normal is None)."""
    anchor, eve = fields["anchor_pos"], fields["eve_pos"]
    fields.setdefault("room", rect_room(7.5, 5.5))
    d = _unit((-1.0, 1.0))
    irs = fields.setdefault("irs_pos", (anchor[0] + 0.3 * d[0], anchor[1] + 0.3 * d[1]))
    if fields.get("irs_normal") is None:
        n = _unit(_unit((anchor[0] - irs[0], anchor[1] - irs[1]))
                  + _unit((eve[0] - irs[0], eve[1] - irs[1])))
        fields["irs_normal"] = (float(n[0]), float(n[1]))
    return Scenario(**fields)


# ---------------------------------------------------------------------------
# Scenario configuration files (INI sections)

def _parse_point(text: str):
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"expected two coordinates, got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _parse_walls(text: str):
    walls = []
    for line in text.strip().splitlines():
        parts = line.replace(",", " ").split()
        if len(parts) != 4:
            raise ValueError(f"each line needs x1 y1 x2 y2, got {line!r}")
        x1, y1, x2, y2 = (float(v) for v in parts)
        walls.append(((x1, y1), (x2, y2)))
    return walls


def _parse_normal(text: str):
    """A unit vector, or None for "auto" (the bisector of the anchor and eve directions)."""
    if text.strip() == "auto":
        return None
    x, y = _parse_point(text)
    norm = math.hypot(x, y)
    if norm < 1e-12:
        raise ValueError("zero vector")
    return (x / norm, y / norm)


def parse_grid(text: str):
    """(NX, NY) from "NXxNY", both >= 1."""
    try:
        nx, ny = (int(v) for v in text.lower().split("x"))
        if nx >= 1 and ny >= 1:
            return nx, ny
    except ValueError:
        pass
    raise ValueError(f"expected NXxNY with NX, NY >= 1, got {text!r}")


# section -> key -> (object, field, parser). A key left out keeps the field's
# default; Scenario.n_elements is not a field, only a check on the grid.
_KEYS = {
    "room": {"walls": (Scenario, "room", _parse_walls)},
    "anchor": {"position": (Scenario, "anchor_pos", _parse_point)},
    "eavesdropper": {"position": (Scenario, "eve_pos", _parse_point)},
    "irs": {
        "position": (Scenario, "irs_pos", _parse_point),
        "normal": (Scenario, "irs_normal", _parse_normal),
        "elements": (Scenario, "n_elements", int),
        "grid": (Scenario, "irs_grid", parse_grid),
        "panel_size": (Scenario, "irs_panel", _parse_point),
    },
    "radio": {
        "carrier_freq_hz": (Scenario, "carrier_freq", float),
        "n_subcarriers": (Scenario, "n_subcarriers", int),
        "subcarrier_spacing_hz": (Scenario, "subcarrier_spacing", float),
        "n_tx": (Scenario, "n_tx", int),
        "n_rx": (Scenario, "n_rx", int),
        "antenna_spacing_m": (Scenario, "antenna_spacing", float),
        "sample_rate": (Scenario, "sample_rate", float),
        "snr_db": (Scenario, "snr_db", float),
        "wall_reflection_loss_db": (Scenario, "wall_reflection_loss_db", float),
    },
    "defense": {
        "progression_rate": (ExperimentConfig, "progression_rate", float),
        "hold_probability": (ExperimentConfig, "hold_prob", float),
        "update_rate": (ExperimentConfig, "update_rate", float),
    },
    "experiment": {
        "seed": (Scenario, "seed", int),
        "reference_s": (ExperimentConfig, "reference_s", float),
        "window_s": (ExperimentConfig, "window_s", float),
        "n_select": (ExperimentConfig, "n_select", int),
        "c": (ExperimentConfig, "c", float),
        "walk_waypoints": (Trajectory, "waypoints",
                           lambda text: [_parse_point(ln) for ln in text.strip().splitlines()]),
        "walk_speed": (Trajectory, "speed", float),
        "walk_dwell": (Trajectory, "dwell", float),
        "reflector_position": (RotatingReflector, "position", _parse_point),
        "reflector_rpm": (RotatingReflector, "rpm", float),
        "reflector_gain_db": (RotatingReflector, "peak_scatter_gain_db", float),
        "blocking_radius": (ExperimentConfig, "blocking_radius", float),
        "blocking_depth_db": (ExperimentConfig, "blocking_depth_db", float),
        "scatter_gain_db": (ExperimentConfig, "scatter_gain_db", float),
    },
}


def load_scenario(path):
    """Parse a scenario config file; returns (Scenario, ExperimentConfig).

    Values are literal (no `%` interpolation). Unknown sections or keys are
    rejected. Omitted keys keep the dataclass defaults, except for the room and
    surface placement (see _placed_scenario), the walk (default_walk) and the
    reflector position (midway between anchor and eve).
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", "?")
        raise ConfigError(f"{path}: parse error at line {line}: {exc.message}") from None

    values = {cls: {} for cls in (Scenario, ExperimentConfig, Trajectory, RotatingReflector)}
    errors = []
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            cls, name, parse = _KEYS[section][key]
            try:
                values[cls][name] = parse(parser.get(section, key))
            except ValueError as exc:
                errors.append(f"{section}.{key}: {exc}")
    if errors:
        raise ConfigError("; ".join(errors))

    scn = values[Scenario]
    for name, key in (("anchor_pos", "anchor.position"), ("eve_pos", "eavesdropper.position")):
        if name not in scn:
            raise ConfigError(f"{key} is required")
    anchor, eve = scn["anchor_pos"], scn["eve_pos"]
    elements = scn.pop("n_elements", None)
    midpoint = ((anchor[0] + eve[0]) / 2, (anchor[1] + eve[1]) / 2)
    try:
        scenario = _placed_scenario(**scn)
        cfg = ExperimentConfig(
            walk=replace(default_walk(), **values[Trajectory]),
            reflector=RotatingReflector(**{"position": midpoint, **values[RotatingReflector]}),
            **values[ExperimentConfig])
        check_update_rate(cfg.update_rate, scenario.sample_rate)
        check_surface_size(scenario)
    except ValueError as exc:
        raise ConfigError(_named(str(exc))) from None
    if elements is not None and elements != scenario.n_elements:
        raise ConfigError(f"irs.elements={elements} does not match grid "
                          f"{scenario.irs_grid[0]}x{scenario.irs_grid[1]}")
    if cfg.n_select < 1 or cfg.n_select > scenario.n_subcarriers:
        raise ConfigError("experiment.n_select out of range")
    return scenario, cfg


def _named(message: str) -> str:
    """A dataclass check's message, prefixed with the config key of the field it starts with."""
    field = message.split(" ", 1)[0]
    keys = [f"{section}.{key}" for section, table in _KEYS.items()
            for key, (_, name, _) in table.items() if name == field]
    return f"{keys[0]}: {message}" if keys else message


# ---------------------------------------------------------------------------
# CSV preamble, shared by the trace, observation and result CSVs

def _write_preamble(fh, meta: dict, columns):
    """`# schema_version`, a `# key=value` line per meta item (values already
    formatted), then the column row."""
    fh.write(f"# schema_version={SCHEMA_VERSION}\n")
    fh.writelines(f"# {key}={value}\n" for key, value in meta.items())
    fh.write(",".join(columns) + "\n")


def _read_preamble(fh, path, columns) -> dict:
    """The `# key=value` lines as text, after checking the schema version and that
    the column row is `columns`; leaves fh at the first data row."""
    meta = {}
    line = fh.readline()
    while line.startswith("#"):
        key, eq, value = line[1:].partition("=")
        if eq:
            meta[key.strip()] = value.strip()
        line = fh.readline()
    _check_schema(meta.get("schema_version", 1), path)
    expected = ",".join(columns)
    if line.strip() != expected:
        raise IngestError(f"{path}: expected header row {expected!r}, got {line.strip()!r}")
    return meta


def _check_schema(version, path):
    """Reject a schema_version (text or number) that is not a major this reader knows."""
    try:
        major = int(float(version))
    except (TypeError, ValueError, OverflowError):
        raise IngestError(f"{path}: bad schema_version {version!r}") from None
    if major > SCHEMA_VERSION:
        raise IngestError(f"{path}: schema_version {major} is newer than supported {SCHEMA_VERSION}")


def _header_value(meta: dict, path, key, parse=float):
    """meta[key] parsed, finite and > 0 (an integer >= 1 for parse=int); an
    IngestError naming the file and the key otherwise."""
    if key not in meta:
        raise IngestError(f"{path}: missing header key {key!r}")
    try:
        value = parse(meta[key])
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        rule = "an integer >= 1" if parse is int else "finite and > 0"
        raise IngestError(f"{path}: header key {key}={meta[key]!r} must be {rule}")
    return value


# ---------------------------------------------------------------------------
# Trace CSV

_TRACE_DIMS = ("n_subcarriers", "n_rx", "n_tx")
_TRACE_COLUMNS = ("t", "k", "rx", "tx", "re", "im")


def export_trace(values, path, sample_rate: float = 70.0):
    """Write a (T, K, n_rx, n_tx) array as the canonical trace CSV: row i is frame t = i,
    cells in (k, rx, tx) order. The header's dimensions are the array's."""
    values = np.asarray(values, dtype=complex)
    if values.ndim != 4 or not values.shape[0]:
        raise ValueError(f"expected a (T, K, n_rx, n_tx) array with T >= 1, got shape {values.shape}")
    shape = values.shape[1:]
    cells = [f"{k},{rx},{tx}," for k, rx, tx in np.ndindex(shape)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_preamble(fh, dict(zip(_TRACE_DIMS, shape), sample_rate=repr(float(sample_rate))),
                        _TRACE_COLUMNS)
        for t, v in enumerate(values.reshape(values.shape[0], -1)):
            fh.write("".join([f"{t},{c}{real},{imag}\n" for c, real, imag in zip(
                cells, map(repr, v.real.tolist()), map(repr, v.imag.tolist()))]))


def ingest_trace(path):
    """Read a trace CSV; returns (values (T, K, n_rx, n_tx), sample_rate).

    The header's dimensions must be integers >= 1 and its sample_rate finite
    and > 0. Before anything is allocated, the rows after the header must have
    room for one frame: a 12-byte row `0,0,0,0,0,0` a cell, less the last
    newline. The (t, k, rx, tx) lattice must be complete for every frame and
    frame indices must not go backwards; row order inside one frame is free.
    Row i of values is the i-th frame in the file. Canonical files
    (export_trace's rows) are parsed in blocks of whole frames; any other file
    is re-read row by row, which accepts the same files, returns the same
    values and names the first bad row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        meta = _read_preamble(fh, path, _TRACE_COLUMNS)
        shape = tuple(_header_value(meta, path, key, int) for key in _TRACE_DIMS)
        sample_rate = _header_value(meta, path, "sample_rate")
        start, size = fh.tell(), os.fstat(fh.fileno()).st_size
        need = 12 * math.prod(shape) - 1
        if size - start < need:
            raise IngestError(f"{path}: header dimensions {shape} need {need} bytes of rows for "
                              f"one frame; the {size}-byte file has {size - start} after its header")
        values = _frames_from_blocks(fh, shape)
        if values is None:
            fh.seek(start)
            frames = list(_frames_from_rows(fh, shape, path))
            values = np.stack(frames) if frames else np.zeros((0, *shape), dtype=complex)
    return values, sample_rate


# Rows of a canonical block: four unsigned indices and two plain decimal
# numbers. np.fromstring ignores line ends, so this is what keeps a short row
# and a long row from re-aligning into two valid ones; possessive quantifiers
# make a mismatch fail without backtracking.
_CANONICAL_ROWS = re.compile(
    r"(?:[0-9]++,[0-9]++,[0-9]++,[0-9]++,[-+.0-9eE]++,[-+.0-9eE]++\n)*+")
_BLOCK_ROWS = 8192


def _frames_from_blocks(fh, shape):
    """Frames t = 0, 1, ... with cells in canonical order, parsed a block of whole
    frames at a time; None as soon as a block is not exactly that."""
    n_cells = math.prod(shape)
    block_rows = max(1, _BLOCK_ROWS // n_cells) * n_cells
    lattice = np.indices(shape).reshape(3, -1).T
    blocks, n_frames = [], 0
    while text := "".join(islice(fh, block_rows)):
        if not _CANONICAL_ROWS.fullmatch(text):
            return None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.fromstring(text.replace("\n", ","), sep=",")
        except (ValueError, Warning):
            return None
        if rows.size % (6 * n_cells):
            return None
        rows = rows.reshape(-1, n_cells, 6)
        t = np.arange(n_frames, n_frames + rows.shape[0])[:, None]
        if not ((rows[:, :, 0] == t).all() and (rows[:, :, 1:4] == lattice).all()
                and np.isfinite(rows[:, :, 4:]).all()):
            return None
        block = np.empty(rows.shape[:2], dtype=complex)
        block.real, block.imag = rows[:, :, 4], rows[:, :, 5]
        blocks.append(block)
        n_frames += rows.shape[0]
    return np.concatenate(blocks or [np.zeros((0, n_cells), dtype=complex)]).reshape(-1, *shape)


def _frames_from_rows(fh, shape, path):
    current_t = None
    values = None
    seen = None

    def flush():
        missing = np.argwhere(~seen)
        if missing.size:
            k, rx, tx = missing[0]
            raise IngestError(f"{path}: frame t={current_t} missing cell (k={k}, rx={rx}, tx={tx})")
        return values

    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise IngestError(f"{path}: malformed row {line!r}")
        try:
            t, k, rx, tx = (int(parts[i]) for i in range(4))
            re, im = float(parts[4]), float(parts[5])
        except ValueError as exc:
            raise IngestError(f"{path}: bad number in row {line!r}: {exc}") from None
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
# Observation and result CSVs

def write_csv(path, columns, rows, meta=None):
    """Write the preamble (each meta value as repr(float)), then one line per row:
    a str cell as is, any other as repr(float)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_preamble(fh, {key: repr(float(value)) for key, value in (meta or {}).items()},
                        columns)
        fh.writelines(",".join(c if isinstance(c, str) else repr(float(c)) for c in row) + "\n"
                      for row in rows)


def export_observation(obs: ObservationSeries, path):
    n_w = int(round(obs.window_s * obs.sample_rate))
    write_csv(path, ("t_seconds", "sigma_bar"),
              (((i + n_w - 1) / obs.sample_rate, v) for i, v in enumerate(obs.values)),
              meta={"sample_rate": obs.sample_rate, "window_s": obs.window_s})


def load_observation(path) -> ObservationSeries:
    """Read an observation CSV; the header must give sample_rate and window_s.

    Each row's t_seconds must sit on the lattice (i + n_w - 1) / sample_rate
    that export_observation writes, within 1e-9 s.
    """
    with open(path, "r", encoding="utf-8") as fh:
        meta = _read_preamble(fh, path, ("t_seconds", "sigma_bar"))
        sample_rate, window_s = (_header_value(meta, path, key)
                                 for key in ("sample_rate", "window_s"))
        n_w = int(round(window_s * sample_rate))
        values = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise IngestError(f"{path}: malformed row {line!r}")
            try:
                t, v = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise IngestError(f"{path}: bad number in row {line!r}: {exc}") from None
            expected = (len(values) + n_w - 1) / sample_rate
            if not abs(t - expected) <= 1e-9:
                raise IngestError(f"{path}: row {line!r}: t_seconds {t!r} is off the lattice, "
                                  f"expected {expected!r}")
            values.append(v)
    try:
        return ObservationSeries(values=np.asarray(values), sample_rate=sample_rate,
                                 window_s=window_s, meta={"path": str(path)})
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# JSON: report, coverage summary and manifest

def write_json(path, doc: dict):
    """Write doc as sorted, indented JSON with a trailing newline, stamped with
    schema_version unless doc carries its own."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, **doc}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def report_to_dict(report: DetectionReport, provenance: dict | None = None) -> dict:
    return {
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
        if provenance:
            doc["provenance"] = dict(provenance)
    write_json(path, doc)


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise IngestError(f"{path}: top level is not a JSON object")
    _check_schema(doc.get("schema_version", 1), path)
    return doc
