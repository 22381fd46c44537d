"""Config parsing, CSI trace export/ingest, and result serialization.

Three documented schemas, all versioned:
  - trace CSV: `# key=value` header lines, then `t,k,rx,tx,re,im` rows over a
    complete (t, k, rx, tx) lattice, written in canonical order; ingest reads
    them in one np.loadtxt pass, in any order within a frame, and names the
    first fault;
  - observation CSV: `t_seconds,sigma_bar` rows plus sample-rate/window header
    lines;
  - report JSON: threshold, rates, ROC points, AUC, provenance.
Floats serialize via repr (shortest round-trip), so export -> ingest -> export
is byte-identical.
"""
from __future__ import annotations

import configparser
import contextlib
import itertools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channel import (PersonState, RotatingReflector, Scenario, ScenarioError, Trajectory, _unit,
                      build_static_paths, check_surface_size, element_legs, grid_layout, in_room,
                      point_segment_distances, rect_room, scatter_paths)
from .irs import SchedulerParams
from .sensing import DetectionReport, ObservationSeries, window_samples

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
        try:
            n = _unit(_unit((anchor[0] - irs[0], anchor[1] - irs[1]))
                      + _unit((eve[0] - irs[0], eve[1] - irs[1])))
        except ScenarioError:  # the surface on an endpoint or on the line between them
            raise ScenarioError(f"irs_pos {irs!r} leaves the auto normal undefined") from None
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


@contextlib.contextmanager
def _utf8(path, error):
    """path opened as UTF-8 text; a byte that does not decode raises error, naming path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x}") from None


def load_scenario(path):
    """Parse a scenario config file; returns (Scenario, ExperimentConfig).

    Values are literal (no `%` interpolation). Unknown sections or keys are
    rejected. Omitted keys keep the dataclass defaults, except for the room and
    surface placement (see _placed_scenario), the walk (default_walk) and the
    reflector position (midway between anchor and eve). The frame engine's rules for
    what may not sit on the anchor or the eavesdropper fail here, under the key.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with _utf8(path, ConfigError) as fh:
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
        cfg.check_update_rate(scenario.sample_rate)
        window_samples(cfg.window_s, scenario.sample_rate)  # at least 2 samples
        check_surface_size(scenario)
    except ValueError as exc:
        raise ConfigError(_named(str(exc))) from None
    if elements is not None and elements != scenario.n_elements:
        raise ConfigError(f"irs.elements={elements} does not match grid "
                          f"{scenario.irs_grid[0]}x{scenario.irs_grid[1]}")
    if cfg.n_select < 1 or cfg.n_select > scenario.n_subcarriers:
        raise ConfigError("experiment.n_select out of range")
    for key, rule in (  # the engine's rules for what may not sit on an endpoint
            ("eavesdropper.position", lambda: build_static_paths(scenario)),
            ("irs.position", lambda: element_legs(scenario, grid_layout(scenario))),
            ("experiment.reflector_position",
             lambda: scatter_paths(scenario, [cfg.reflector.position], 1.0))):
        try:
            rule()
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    legs = np.asarray(cfg.walk.waypoints, dtype=float)
    if not in_room(scenario, legs):
        raise ConfigError("experiment.walk_waypoints: a waypoint falls outside the room")
    if point_segment_distances(np.array([anchor, eve]), legs[:-1], legs[1:]).min() < 1e-9:
        raise ConfigError("experiment.walk_waypoints: the walk passes within 1e-9 m of an endpoint")
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
    """Write a (T, K, n_rx, n_tx) array as the canonical trace CSV: trace_writer, fed once."""
    values = np.asarray(values, dtype=complex)
    with trace_writer(path, values.shape[1:], sample_rate) as write:
        write(values)


@contextlib.contextmanager
def trace_writer(path, shape: tuple, sample_rate: float = 70.0):
    """Yield write(chunk), which writes a complex (T', *shape) array, T' >= 1, as the trace's next
    T' frames. The first chunk makes the directory and path + ".part", which replaces path when
    the block exits cleanly; a block that raises removes it and leaves path as it was."""
    part, fh, t = f"{os.fspath(path)}.part", None, 0
    with contextlib.ExitStack() as files:
        def write(chunk):
            nonlocal fh, t
            if chunk.ndim != 4 or chunk.shape[1:] != tuple(shape) or not len(chunk):
                raise ValueError(f"expected a (T, K, n_rx, n_tx) array with T >= 1 and (K, n_rx, "
                                 f"n_tx) = {shape}, got shape {chunk.shape}")
            if fh is None:
                os.makedirs(os.path.dirname(part) or ".", exist_ok=True)
                fh = files.enter_context(open(part, "w", encoding="utf-8", newline="\n"))
                _write_preamble(fh, dict(zip(_TRACE_DIMS, shape),
                                         sample_rate=repr(float(sample_rate))), _TRACE_COLUMNS)
            t = _write_trace_rows(fh, chunk, t)
        try:
            yield write
            if fh is not None:
                fh.close()
                os.replace(part, path)
        except BaseException:
            if fh is not None:
                fh.close()
                os.remove(part)
            raise


def _write_trace_rows(fh, values, t0: int) -> int:
    """Write values (T, K, n_rx, n_tx) as the rows of frames t0 .. t0 + T - 1; returns t0 + T."""
    cells = [f"{k},{rx},{tx}," for k, rx, tx in np.ndindex(values.shape[1:])]
    for t, v in enumerate(values.reshape(len(values), -1), t0):
        fh.write("".join([f"{t},{c}{real},{imag}\n" for c, real, imag in zip(
            cells, map(repr, v.real.tolist()), map(repr, v.imag.tolist()))]))
    return t0 + len(values)


def ingest_trace(path):
    """Read a trace CSV; returns (values (T, K, n_rx, n_tx), sample_rate).

    The header's dimensions must be integers >= 1 and its sample_rate finite
    and > 0. Before anything is allocated, the rows after the header must have
    room for one frame: a 12-byte row `0,0,0,0,0,0` a cell, less the last
    newline. The (t, k, rx, tx) lattice must be complete for every frame and
    frame indices must not go backwards; row order inside one frame is free.
    Row i of values is the i-th frame in the file. The rows are read once
    (_read_rows) and checked at once; only when a check fails does _fault find the
    first fault for the IngestError.
    """
    with _utf8(path, IngestError) as fh:
        meta = _read_preamble(fh, path, _TRACE_COLUMNS)
        shape = tuple(_header_value(meta, path, key, int) for key in _TRACE_DIMS)
        sample_rate = _header_value(meta, path, "sample_rate")
        start, size = fh.tell(), os.fstat(fh.fileno()).st_size
        need = 12 * math.prod(shape) - 1
        if size - start < need:
            raise IngestError(f"{path}: header dimensions {shape} need {need} bytes of rows for "
                              f"one frame; the {size}-byte file has {size - start} after its header")
        rows = _read_rows(fh, path, [("index", np.int32, 4), ("value", float, 2)])
    index, value = rows["index"], rows["value"].view(complex)[:, 0]
    with contextlib.suppress(ValueError):  # a cell outside shape, or rows short of whole frames
        cells = np.ravel_multi_index(tuple(index[:, 1:].T), shape)
        t = index[:, 0].reshape(-1, math.prod(shape))
        if (t == t[:, :1]).all() and (t[1:, 0] > t[:-1, 0]).all():  # one t a frame, rising
            cells.reshape(t.shape)[:] += np.arange(0, cells.size, t.shape[1])[:, None]
            values = np.full(cells.size, np.nan, dtype=complex)  # a cell no row sets is not finite
            values[cells] = value
            if np.isfinite(values).all():
                return values.reshape(-1, *shape), sample_rate
    raise IngestError(f"{path}: {_fault(index, value, shape)}")


def _read_rows(fh, path, dtype):
    """The rows after the preamble, from one np.loadtxt call (none for blank lines only); a
    row it refuses raises an IngestError with its message, the row restated as its line (_line)."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(fh, delimiter=",", comments=None, ndmin=1, dtype=dtype)
    except ValueError as exc:  # loadtxt counts rows from 1 for a wrong field count, else from 0
        text = str(exc).removesuffix("; use `usecols` to select a subset and avoid this error")
        from_one = " columns but " in text
        text = re.sub(r"at row (\d+)(?!.*at row)",  # the last: a refused field may hold the words
                      lambda m: f"at line {_line(fh, int(m[1]) - from_one)}", text)
        raise IngestError(f"{path}: {text}") from None


def _line(fh, row: int) -> int:
    """The line number (from 1) in fh of data row `row` (from 0; no empty line is a row)."""
    fh.seek(0)
    lines = enumerate(fh, 1)
    next(n for n, text in lines if not text.startswith("#"))  # the preamble ends at the column row
    return next(itertools.islice((n for n, text in lines if text != "\n"), row, None))


def _fault(index, value, shape) -> str:
    """The first fault of rows that ingest_trace rejects. Row by row in file order, a frame being a
    run of equal t: a non-finite value, a cell outside shape, t going back, a missing cell in the
    frame the row ends, a cell already in the row's frame; then a missing cell in the last frame."""
    t, n, n_cells = index[:, 0], len(index), math.prod(shape)
    cells = np.ravel_multi_index(tuple(index[:, 1:].T), shape, mode="clip")
    frame = np.r_[0, np.cumsum(t[1:] != t[:-1])]
    ends = np.r_[np.flatnonzero(np.diff(frame)) + 1, n]  # the row after each frame
    faults = np.zeros((5, n + 1), dtype=bool)  # [check, row], one column past the last row
    faults[0, :n] = ~np.isfinite(value)
    faults[1, :n] = ((index[:, 1:] < 0) | (index[:, 1:] >= shape)).any(axis=1)
    faults[2, 1:n] = t[1:] < t[:-1]
    faults[3, ends] = np.diff(np.r_[0, ends]) != n_cells
    faults[4, :n] = True  # then cleared on the first row of each (frame, cell)
    faults[4, np.unique(frame * n_cells + cells, return_index=True)[1]] = False
    i = faults.any(axis=0).argmax()
    check = faults[:, i].argmax()
    t_i, k, rx, tx = index[min(i, n - 1)]
    if check == 3:  # the first cell that the frame ending before row i lacks
        seen = np.bincount(cells[np.searchsorted(frame, frame[i - 1]):i], minlength=n_cells)
        t_i, (k, rx, tx) = t[i - 1], np.unravel_index(seen.argmin(), shape)
    return (f"non-finite value at t={t_i}",
            f"index (k={k}, rx={rx}, tx={tx}) outside header dimensions",
            f"frame index goes backwards at t={t_i}",
            f"frame t={t_i} missing cell (k={k}, rx={rx}, tx={tx})",
            f"duplicate cell (t={t_i}, k={k}, rx={rx}, tx={tx})")[check]


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
    n_w = window_samples(obs.window_s, obs.sample_rate)
    write_csv(path, ("t_seconds", "sigma_bar"),
              (((i + n_w - 1) / obs.sample_rate, v) for i, v in enumerate(obs.values)),
              meta={"sample_rate": obs.sample_rate, "window_s": obs.window_s})


def load_observation(path) -> ObservationSeries:
    """Read an observation CSV; the header must give sample_rate and window_s.

    Each row i (from 0) must have its t_seconds on the lattice (i + n_w - 1) /
    sample_rate that export_observation writes, within 1e-9 s; n_w is
    sensing.window_samples. The rows are read once (_read_rows).
    """
    with _utf8(path, IngestError) as fh:
        meta = _read_preamble(fh, path, ("t_seconds", "sigma_bar"))
        sample_rate, window_s = (_header_value(meta, path, key)
                                 for key in ("sample_rate", "window_s"))
        try:
            n_w = window_samples(window_s, sample_rate)
        except ValueError as exc:
            raise IngestError(f"{path}: {exc}") from None
        rows = _read_rows(fh, path, [("t", float), ("v", float)])
        expected = (np.arange(len(rows)) + (n_w - 1)) / sample_rate
        off = ~(np.abs(rows["t"] - expected) <= 1e-9)
        if off.any():
            i = off.argmax()
            raise IngestError(f"{path}: line {_line(fh, i)}: t_seconds {float(rows['t'][i])!r} is "
                              f"off the lattice, expected {float(expected[i])!r}")
    try:
        return ObservationSeries(values=rows["v"].copy(), sample_rate=sample_rate,
                                 window_s=window_s, meta={"path": str(path)})
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# JSON: report, coverage summary and manifest

def write_json(path, doc: dict):
    """Write doc as sorted, indented JSON with a trailing newline, stamped with
    schema_version unless doc carries its own; NaN or inf raise ValueError, no file."""
    text = json.dumps({"schema_version": SCHEMA_VERSION, **doc}, sort_keys=True, indent=2,
                      allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def export_report(report: DetectionReport, path, provenance: dict | None = None):
    """Write a detection report: threshold, rates, ROC points, AUC and provenance."""
    write_json(path, {
        "threshold": report.threshold,
        "detection_rate": report.detection_rate,
        "tpr": report.tpr,
        "fpr": report.fpr,
        "roc": [[float(f), float(t)] for f, t in (report.roc_points or [])],
        "auc": report.auc,
        "provenance": dict(provenance or {}),
    })
