import configparser
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obfusense import channel as ch
from obfusense import cli
from obfusense import io as oio
from obfusense import sensing as sn

import oracle as orc


FULL_CONFIG = """\
[room]
walls =
    0 0 7.5 0
    7.5 0 7.5 5.5
    7.5 5.5 0 5.5
    0 5.5 0 0

[anchor]
position = 1.2 2.75

[eavesdropper]
position = 6.3 2.75

[irs]
position = 0.99 2.96
normal = auto
elements = 256
grid = 16x16
panel_size = 0.43 0.35

[radio]
carrier_freq_hz = 5.32e9
n_subcarriers = 56
n_tx = 3
n_rx = 3
sample_rate = 70
snr_db = 30
wall_reflection_loss_db = 6

[defense]
progression_rate = 0.05
hold_probability = 0.6
update_rate = 20

[experiment]
seed = 7
reference_s = 180
window_s = 1.0
n_select = 28
c = 11
"""


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def not_utf8(path):
    """The error a reader gives for a file ending in the bytes ff fe."""
    return f"^{re.escape(str(path))}: not UTF-8 text: byte 0xff$"


# --- load_scenario ---------------------------------------------------------

def test_minimal_config_applies_defaults(minimal_config):
    scenario, cfg = oio.load_scenario(minimal_config)
    assert scenario.seed == 42
    assert scenario.n_subcarriers == 56
    assert scenario.n_tx == scenario.n_rx == 3
    assert scenario.carrier_freq == 5.32e9
    assert scenario.sample_rate == 70.0
    assert len(scenario.room) == 4
    assert scenario.irs_pos is not None
    assert np.hypot(*scenario.irs_normal) == pytest.approx(1.0)
    assert cfg.progression_rate == 0.05
    assert cfg.hold_prob == 0.6
    assert cfg.update_rate == 20.0
    assert cfg.c == 11.0
    assert cfg.reference_s == 180.0
    assert cfg.n_select == 28


def test_full_config_roundtrip_values(tmp_path):
    scenario, cfg = oio.load_scenario(write(tmp_path, FULL_CONFIG))
    assert scenario.n_elements == 256
    layout = ch.grid_layout(scenario)
    assert len(layout) == 256
    assert scenario.irs_panel == (0.43, 0.35)


def test_surface_size_checked_against_physical_memory(tmp_path, monkeypatch):
    path = write(tmp_path, FULL_CONFIG)
    scenario, _ = oio.load_scenario(path)
    # 16 bytes x 256 elements x 56 subcarriers x (3 x 3 + 4) tensor and amplitude entries
    need = 16 * 256 * 56 * 13
    monkeypatch.setattr(ch, "_physical_memory", lambda: float(need))
    assert oio.load_scenario(path)[0] == scenario
    monkeypatch.setattr(ch, "_physical_memory", lambda: float(need - 1))
    with pytest.raises(oio.ConfigError, match=r"^irs\.grid: irs_grid 16x16 needs"):
        oio.load_scenario(path)
    # a scenario without a surface builds no surface tensors, whatever its grid
    ch.check_surface_size(ch.Scenario(anchor_pos=(0.0, 0.0), eve_pos=(1.0, 0.0)))


def test_negative_snr_accepted_negative_subcarriers_rejected(tmp_path):
    ok = FULL_CONFIG.replace("snr_db = 30", "snr_db = -10")
    scenario, _ = oio.load_scenario(write(tmp_path, ok))
    assert scenario.snr_db == -10.0
    bad = FULL_CONFIG.replace("n_subcarriers = 56", "n_subcarriers = -3")
    with pytest.raises(oio.ConfigError):
        oio.load_scenario(write(tmp_path, bad, "bad.cfg"))


def test_unknown_key_rejected_by_name(tmp_path):
    text = FULL_CONFIG + "\n[radio]\nbogus_knob = 1\n"
    # configparser forbids duplicate sections; embed into the existing one instead
    text = FULL_CONFIG.replace("snr_db = 30", "snr_db = 30\nbogus_knob = 1")
    with pytest.raises(oio.ConfigError, match="bogus_knob"):
        oio.load_scenario(write(tmp_path, text))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(oio.ConfigError, match="mystery"):
        oio.load_scenario(write(tmp_path, FULL_CONFIG + "\n[mystery]\nx = 1\n"))


def test_parse_error_reports_line(tmp_path):
    with pytest.raises(oio.ConfigError, match="line"):
        oio.load_scenario(write(tmp_path, "[anchor\nposition = 0 0\n"))


def test_config_not_utf8_names_file(tmp_path):
    path = write(tmp_path, FULL_CONFIG)
    path.write_bytes(path.read_bytes() + b"\xff\xfe")
    with pytest.raises(oio.ConfigError, match=not_utf8(path)):
        oio.load_scenario(path)


def test_large_grid_config_loads_under_a_mebibyte(tmp_path):
    """A 64x64 surface is checked against the endpoints without building its 4096 paths."""
    path = write(tmp_path, _edited_config("irs", "grid", "64x64").replace("elements = 256",
                                                                         "elements = 4096"))
    tracemalloc.start()
    try:
        scenario, _ = oio.load_scenario(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scenario.n_elements == 4096
    assert peak < 1 << 20


def test_grid_mismatch_rejected(tmp_path):
    bad = FULL_CONFIG.replace("elements = 256", "elements = 200")
    with pytest.raises(oio.ConfigError, match="grid"):
        oio.load_scenario(write(tmp_path, bad))


def test_missing_required_position(tmp_path):
    with pytest.raises(oio.ConfigError, match="anchor.position"):
        oio.load_scenario(write(tmp_path, "[eavesdropper]\nposition = 1 1\n"))


@pytest.mark.parametrize("line, key", [
    ("walk_speed = nan", "experiment.walk_speed"),
    ("reflector_rpm = nan", "experiment.reflector_rpm"),
    ("blocking_radius = nan", "experiment.blocking_radius"),
    ("c = nan", "experiment.c"),
    ("reference_s = -5", "experiment.reference_s"),
    ("[defense]\nupdate_rate = 7001", "defense.update_rate"),
    ("walk_speed = 50%", "experiment.walk_speed"),  # values are literal: no % interpolation
    ("c = %(foo)s", "experiment.c"),
])
def test_invalid_experiment_value_names_key(tmp_path, minimal_config, line, key):
    text = minimal_config.read_text() + line + "\n"
    with pytest.raises(oio.ConfigError, match=key):
        oio.load_scenario(write(tmp_path, text, "bad.cfg"))


def test_walk_defaults_and_override(tmp_path):
    _, cfg = oio.load_scenario(write(tmp_path, FULL_CONFIG))
    assert cfg.walk is not None
    text = FULL_CONFIG.replace(
        "c = 11", "c = 11\nwalk_waypoints =\n    1 1\n    2 2\nwalk_speed = 1.5")
    _, cfg2 = oio.load_scenario(write(tmp_path, text, "walk.cfg"))
    assert cfg2.walk.speed == 1.5
    assert len(cfg2.walk.waypoints) == 2


def test_walk_speed_applies_to_default_waypoints(tmp_path):
    _, cfg = oio.load_scenario(write(tmp_path, FULL_CONFIG + "walk_speed = 0.9\n"))
    assert cfg.walk.speed == 0.9
    assert cfg.walk.waypoints == oio.default_walk().waypoints


def test_reflector_keys_without_position(tmp_path):
    _, cfg = oio.load_scenario(write(tmp_path, FULL_CONFIG + "reflector_rpm = 40\n"))
    assert cfg.reflector.rpm == 40.0
    assert cfg.reflector.peak_scatter_gain_db == 15.0
    assert cfg.reflector.position == (3.75, 2.75)  # anchor-eve midpoint


def test_default_reflector_is_midpoint(minimal_config):
    scenario, cfg = oio.load_scenario(minimal_config)
    assert cfg.reflector.position == ((1.2 + 6.3) / 2, 2.75)
    assert cfg.reflector.rpm == 20.0


@pytest.mark.parametrize("sections, message", [
    ("[irs]\nposition = 1.2 2.75\n",
     "irs.position: irs_pos (1.2, 2.75) leaves the auto normal undefined"),
    ("[irs]\nposition = 6.3 2.75\n",
     "irs.position: irs_pos (6.3, 2.75) leaves the auto normal undefined"),
    ("[irs]\nposition = 1.2 2.75\nnormal = 1 0\ngrid = 1x1\n",
     "irs.position: surface element coincides with an endpoint"),
    ("[experiment]\nreflector_position = 1.2 2.75\n",
     "experiment.reflector_position: scatter point coincides with an endpoint"),
    ("[experiment]\nreflector_position = 6.3 2.75\n",
     "experiment.reflector_position: scatter point coincides with an endpoint"),
    ("[experiment]\nwalk_waypoints =\n    0.5 2.75\n    3 2.75\n",
     "experiment.walk_waypoints: the walk passes within 1e-9 m of an endpoint"),
    ("[experiment]\nwalk_waypoints =\n    5 1\n    6.3 2.75\n    5 4\n",
     "experiment.walk_waypoints: the walk passes within 1e-9 m of an endpoint"),
], ids=["irs-on-anchor", "irs-on-eve", "irs-element-on-anchor", "reflector-on-anchor",
        "reflector-on-eve", "walk-through-anchor", "walk-vertex-on-eve"])
def test_geometry_on_an_endpoint_named_at_load(tmp_path, sections, message):
    """What the engine rejects on the anchor or the eavesdropper fails at load under its key."""
    path = write(tmp_path, "[anchor]\nposition = 1.2 2.75\n[eavesdropper]\nposition = 6.3 2.75\n"
                 + sections)
    with pytest.raises(oio.ConfigError) as info:
        oio.load_scenario(path)
    assert str(info.value) == message


def test_anchor_on_eavesdropper_named_at_load(tmp_path):
    path = write(tmp_path, "[anchor]\nposition = 1 1\n[eavesdropper]\nposition = 1 1\n")
    with pytest.raises(oio.ConfigError, match="^eavesdropper.position: anchor and eavesdropper "
                       "positions coincide$"):
        oio.load_scenario(path)


def _edited_config(section, key, value):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(FULL_CONFIG)
    parser.set(section, key, value)
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


@pytest.mark.parametrize("section, key", [(section, key) for section, table in oio._KEYS.items()
                                          for key in table])
@settings(max_examples=15)
@given(value=st.text(alphabet="0123456789.-+eEx%(),;# na", max_size=12))
def test_config_single_key_edit_loads_or_raises_config_error(section, key, value):
    """Any one key of a valid config set to any short text loads or raises ConfigError,
    never another exception, and loading allocates under 1 MiB."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.cfg"
        path.write_text(_edited_config(section, key, value))
        tracemalloc.start()
        try:
            oio.load_scenario(path)
        except oio.ConfigError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    assert peak < 1 << 20


# --- trace CSV -------------------------------------------------------------

def small_frames(n=3, k=2, rx=1, tx=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, k, rx, tx)) + 1j * rng.normal(size=(n, k, rx, tx))


def test_trace_roundtrip_values(tmp_path):
    frames = small_frames()
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    back, _ = oio.ingest_trace(path)
    assert len(back) == len(frames)
    for i, b in enumerate(back):  # row i of the ingested array is frame t = i
        assert np.array_equal(frames[i], b)


def test_trace_reexport_byte_identical(tmp_path):
    frames = small_frames(n=5, k=3, rx=2, tx=2, seed=1)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    oio.export_trace(frames, p1)
    oio.export_trace(oio.ingest_trace(p1)[0], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_trace_not_utf8_names_file(tmp_path):
    path = tmp_path / "trace.csv"
    oio.export_trace(small_frames(), path)
    path.write_bytes(path.read_bytes() + b"\xff\xfe")
    with pytest.raises(oio.IngestError, match=not_utf8(path)):
        oio.ingest_trace(path)


def test_trace_shuffled_rows_within_frame(tmp_path):
    frames = small_frames(n=2, k=2, rx=2, tx=1, seed=2)
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    lines = path.read_text().splitlines()
    head, rows = lines[:6], lines[6:]
    per_frame = len(rows) // 2
    shuffled = rows[:per_frame][::-1] + rows[per_frame:][::-1]
    path.write_text("\n".join(head + shuffled) + "\n")
    back, _ = oio.ingest_trace(path)
    for a, b in zip(frames, back):
        assert np.array_equal(a, b)


def test_trace_missing_cell_names_gap(tmp_path):
    frames = small_frames(n=2, k=2, rx=1, tx=1, seed=3)
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    lines = path.read_text().splitlines()
    dropped = [ln for ln in lines if not ln.startswith("1,1,0,0")]
    path.write_text("\n".join(dropped) + "\n")
    with pytest.raises(oio.IngestError, match=r"t=1 missing cell \(k=1"):
        oio.ingest_trace(path)


def test_trace_nonmonotone_t_rejected(tmp_path):
    frames = small_frames(n=3, k=1, rx=1, tx=1, seed=4)
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    lines = path.read_text().splitlines()
    lines[6:] = lines[6:][::-1]  # frames now descend in t
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(oio.IngestError, match="backwards"):
        oio.ingest_trace(path)


def test_trace_duplicate_cell_rejected(tmp_path):
    frames = small_frames(n=1, k=1, rx=1, tx=1, seed=5)
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    with open(path, "a") as fh:
        fh.write("0,0,0,0,1.0,2.0\n")
    with pytest.raises(oio.IngestError, match="duplicate"):
        oio.ingest_trace(path)


def test_trace_newer_schema_rejected(tmp_path):
    frames = small_frames(n=1, k=1, rx=1, tx=1)
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    text = path.read_text().replace("schema_version=1", "schema_version=2")
    path.write_text(text)
    with pytest.raises(oio.IngestError, match="newer"):
        oio.ingest_trace(path)


def test_trace_missing_sample_rate_named(tmp_path):
    path = tmp_path / "trace.csv"
    oio.export_trace(small_frames(n=2, k=1, rx=1, tx=1), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if not ln.startswith("# sample_rate=")))
    with pytest.raises(oio.IngestError, match="missing header key 'sample_rate'"):
        oio.ingest_trace(path)
    with pytest.raises(oio.IngestError, match="sample_rate"):
        oio.ingest_trace(path)


@pytest.mark.parametrize("key, value, message", [
    ("sample_rate", "inf", "header key sample_rate='inf' must be finite and > 0"),
    ("sample_rate", "nan", "header key sample_rate='nan' must be finite and > 0"),
    ("sample_rate", "abc", "header key sample_rate='abc' must be finite and > 0"),
    ("sample_rate", "0.0", "header key sample_rate='0.0' must be finite and > 0"),
    ("n_subcarriers", "x", "header key n_subcarriers='x' must be an integer >= 1"),
    ("n_subcarriers", "0", "header key n_subcarriers='0' must be an integer >= 1"),
    ("n_rx", "1.5", "header key n_rx='1.5' must be an integer >= 1"),
    ("n_tx", "-1", "header key n_tx='-1' must be an integer >= 1"),
    ("schema_version", "inf", "bad schema_version 'inf'"),
])
def test_trace_bad_header_value_names_file_and_key(tmp_path, key, value, message):
    path = tmp_path / "trace.csv"
    oio.export_trace(small_frames(n=1, k=1, rx=1, tx=1), path)
    path.write_text(re.sub(rf"^# {key}=.*$", f"# {key}={value}", path.read_text(), flags=re.M))
    with pytest.raises(oio.IngestError, match=re.escape(f"{path}: {message}")):
        oio.ingest_trace(path)


def _trace_file(path, dims, rows):
    head = ["# schema_version=1", *(f"# {key}={n}" for key, n in zip(oio._TRACE_DIMS, dims)),
            "# sample_rate=70.0", "t,k,rx,tx,re,im"]
    path.write_text("".join(line + "\n" for line in head + rows))
    return path.stat().st_size


@pytest.mark.parametrize("dims, rows", [((10**6, 10**6, 1), ["0,0,0,0,1.0,2.0"]),
                                        ((1, 1, 1), [])])  # a header-only file
def test_trace_header_sized_against_file(tmp_path, dims, rows):
    path = tmp_path / "trace.csv"
    size = _trace_file(path, dims, rows)
    need = 12 * math.prod(dims) - 1
    tracemalloc.start()
    try:
        with pytest.raises(oio.IngestError, match=re.escape(
                f"{path}: header dimensions {dims} need {need} bytes of rows for one frame; "
                f"the {size}-byte file")):
            oio.ingest_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_trace_of_blank_lines_has_no_frames(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    _trace_file(path, (1, 1, 1), [""] * 11)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        back, _ = oio.ingest_trace(path)
    assert back.shape == (0, 1, 1, 1) and not caught
    assert cli.main(["ingest", "--trace", str(path), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"error: {path}: no frames\n"


def test_trace_shortest_frame_accepted(tmp_path):
    path = tmp_path / "trace.csv"
    _trace_file(path, (1, 1, 1), [])
    with open(path, "a") as fh:
        fh.write("0,0,0,0,0,0")  # 11 bytes: one cell, no final newline
    back, _ = oio.ingest_trace(path)
    assert back.shape == (1, 1, 1, 1)


@pytest.mark.parametrize("row, message", [  # the first three are np.loadtxt's texts, at the file's line
    ("0,0,0,0,1.0", "the dtype passed requires 6 columns but 5 were found at line 7"),
    ("0,0,0,0,1.0,abc", "could not convert string 'abc' to float64 at line 7, column 6."),
    ("0.5,0,0,0,1.0,2.0", "could not convert string '0.5' to int32 at line 7, column 1."),
    ("0,0,0,0,nan,1.0", "non-finite value at t=0"),
    ("0,5,0,0,1.0,2.0", "index (k=5, rx=0, tx=0) outside header dimensions"),
], ids=["0,0,0,0,1.0-malformed row", "0,0,0,0,1.0,abc-row '0,0,0,0,1.0,abc'",
        "0.5,0,0,0,1.0,2.0-row '0.5,0,0,0,1.0,2.0'", "0,0,0,0,nan,1.0-non-finite",
        "0,5,0,0,1.0,2.0-outside header"])
def test_trace_bad_row_named(tmp_path, row, message):
    path = tmp_path / "trace.csv"
    oio.export_trace(small_frames(n=1, k=1, rx=1, tx=1), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:6] + [row]) + "\n")
    with pytest.raises(oio.IngestError, match=f"^{re.escape(f'{path}: {message}')}"):
        oio.ingest_trace(path)


@pytest.mark.parametrize("row, message", [
    ("0,0,0,0,1.0", "the dtype passed requires 6 columns but 5 were found at line 10;"),
    ("0,0,0,0,1.0,abc", "could not convert string 'abc' to float64 at line 10, column 6."),
    ("0,0,0,0,1.0,at row 1", "could not convert string 'at row 1' to float64 at line 10,"),
], ids=["field count", "conversion", "field naming a row"])
def test_trace_bad_row_after_blank_lines_names_its_line(tmp_path, row, message):
    """np.loadtxt counts rows without the empty lines, from 1 for a wrong field count and from
    0 otherwise; the error names the row's line in the file either way."""
    path = tmp_path / "trace.csv"
    oio.export_trace(small_frames(n=2, k=1, rx=1, tx=1), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:6] + ["", lines[6], "", row]) + "\n")  # row on line 10
    with pytest.raises(oio.IngestError, match=f"^{re.escape(f'{path}: {message}')}"):
        oio.ingest_trace(path)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308]


@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3),
                       st.integers(1, 3)),
       data=st.data())
def test_trace_roundtrip_property(shape, data):
    n = 2 * math.prod(shape)
    flat = data.draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS),
                                        st.floats(allow_nan=False, allow_infinity=False)),
                              min_size=n, max_size=n))
    values = np.empty(shape, dtype=complex)
    values.real = np.reshape(flat[:n // 2], shape)
    values.imag = np.reshape(flat[n // 2:], shape)
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        oio.export_trace(values, p1)
        back, sample_rate = oio.ingest_trace(p1)
        assert back.shape == values.shape
        assert back.tobytes() == values.tobytes()  # bit-identical, signed zeros included
        oio.export_trace(back, p2, sample_rate)
        assert p1.read_bytes() == p2.read_bytes()


# 455 * 2 * 3 = 2730 cells per frame: row 8189 ends frame t = 2 and row 8190 starts t = 3.
LONG_SHAPE, SEAM = (4, 455, 2, 3), 8190


def _trace_rows(tmp_path, shape):
    path = tmp_path / "trace.csv"
    oio.export_trace(small_frames(*shape, seed=9), path)
    lines = path.read_text().splitlines()
    return path, lines[:6], lines[6:]


def _set_field(row, i, text):
    fields = row.split(",")
    fields[i] = text
    return ",".join(fields)


def _split_5_7(rows, i):
    fields = (rows[i] + "," + rows[i + 1]).split(",")
    return rows[:i] + [",".join(fields[:5]), ",".join(fields[5:])] + rows[i + 2:]


def _relabel_frame(rows, first, n_cells, t):
    return rows[:first] + [_set_field(r, 0, str(t)) for r in rows[first:first + n_cells]] \
        + rows[first + n_cells:]


def _swap(rows, i):
    rows = list(rows)
    rows[i], rows[i + 1] = rows[i + 1], rows[i]
    return rows


MUTATIONS = {
    "drop row": lambda rows, i: rows[:i] + rows[i + 1:],
    "duplicate row": lambda rows, i: rows[:i + 1] + rows[i:],
    "split into 5 + 7 fields": _split_5_7,
    "index 1.0": lambda rows, i: rows[:i] + [_set_field(rows[i], 0, "1.0")] + rows[i + 1:],
    "index 1e0": lambda rows, i: rows[:i] + [_set_field(rows[i], 2, "1e0")] + rows[i + 1:],
    "index +1": lambda rows, i: rows[:i] + [_set_field(rows[i], 0, "+" + rows[i].split(",")[0])]
    + rows[i + 1:],
    "index 0-padded": lambda rows, i: rows[:i]
    + [_set_field(rows[i], 1, "0" + rows[i].split(",")[1])] + rows[i + 1:],
    "trailing comma": lambda rows, i: rows[:i] + [rows[i] + ","] + rows[i + 1:],
    "blank line": lambda rows, i: rows[:i] + [""] + rows[i:],
    "nan value": lambda rows, i: rows[:i] + [_set_field(rows[i], 4, "nan")] + rows[i + 1:],
    "inf value": lambda rows, i: rows[:i] + [_set_field(rows[i], 5, "inf")] + rows[i + 1:],
    "overflowing value": lambda rows, i: rows[:i] + [_set_field(rows[i], 5, "-1e999")]
    + rows[i + 1:],
    "hex value": lambda rows, i: rows[:i] + [_set_field(rows[i], 4, "0x1p3")] + rows[i + 1:],
    "long decimal value": lambda rows, i: rows[:i]
    + [_set_field(rows[i], 4, "0.1000000000000000055511151231257827021181583404541015625e1")]
    + rows[i + 1:],
    "swap rows in frame": lambda rows, i: _swap(rows, i - 2),
    "index of the next row": lambda rows, i: rows[:i]
    + [",".join(rows[i + 1].split(",")[:4] + rows[i].split(",")[4:])] + rows[i + 1:],
    # spellings int() and float() take and np.loadtxt refuses, or reads otherwise
    "whitespace-only line": lambda rows, i: rows[:i] + [" \t "] + rows[i:],
    "index 0_t": lambda rows, i: rows[:i] + [_set_field(rows[i], 0, "0_" + rows[i].split(",")[0])]
    + rows[i + 1:],
    "value 1_0": lambda rows, i: rows[:i] + [_set_field(rows[i], 4, "1_0")] + rows[i + 1:],
    "t = 2**31 from here on": lambda rows, i: rows[:i]
    + [_set_field(r, 0, str(2**31)) for r in rows[i:]],
    "index in non-ASCII digits": lambda rows, i: rows[:i] + [_set_field(rows[i], 1, "".join(
        chr(0x660 + int(c)) for c in rows[i].split(",")[1]))] + rows[i + 1:],
    "# inside a value": lambda rows, i: rows[:i]
    + [_set_field(rows[i], 5, rows[i].split(",")[5] + "#1")] + rows[i + 1:],
}
# the mutations that leave a file the reference reads and np.loadtxt refuses
REFUSED_SPELLINGS = ("whitespace-only line", "index 0_t", "value 1_0", "t = 2**31 from here on",
                     "index in non-ASCII digits")


def _per_row(path):
    """Reference result: the oracle's row-by-row reader on the whole file."""
    with open(path, encoding="utf-8") as fh:
        meta = oio._read_preamble(fh, path, oio._TRACE_COLUMNS)
        shape = tuple(int(meta[key]) for key in oio._TRACE_DIMS)
        frames = list(orc.frames_from_rows(fh, shape, path))
    return np.stack(frames) if frames else np.zeros((0, *shape), dtype=complex)


def _outcome(read, path):
    try:
        values = read(path)
    except oio.IngestError as exc:
        return "error", str(exc)
    return "values", values.shape, values.tobytes()


def _holds_refused_spelling(path):
    """Whether the rows spell something as int() and float() do and np.loadtxt does not: a
    whitespace-only line, a `_` digit separator, a non-ASCII digit or an index of 2**31 or
    more in size."""
    lines = path.read_text(encoding="utf-8").partition("t,k,rx,tx,re,im\n")[2].split("\n")

    def huge(field):
        try:
            return abs(int(field)) >= 2**31
        except ValueError:
            return False

    return any(line.isspace() or "_" in line or not line.isascii()
               or any(map(huge, line.split(",")[:4])) for line in lines)


def _assert_same_as_rows(path):
    """ingest gives the reference reader's values or its fault text, unless np.loadtxt refuses
    a row: its message then follows the path, and the reference rejects the file too or
    reads a spelling that no writer uses. Returns ingest's outcome."""
    got = _outcome(lambda p: oio.ingest_trace(p)[0], path)
    expected = _outcome(_per_row, path)
    if got[0] == "error" and " at line " in got[1]:
        assert got[1].startswith(f"{path}: ")
        assert expected[0] == "error" or _holds_refused_spelling(path)
    else:
        assert got == expected
    return got


@pytest.mark.parametrize("name", MUTATIONS)
@pytest.mark.parametrize("shape, row", [((3, 2, 2, 1), 6), (LONG_SHAPE, SEAM - 1),
                                        (LONG_SHAPE, SEAM)])
def test_ingest_matches_row_parser_under_mutation(tmp_path, name, shape, row):
    path, head, rows = _trace_rows(tmp_path, shape)
    path.write_text("\n".join(head + MUTATIONS[name](rows, row)) + "\n", encoding="utf-8")
    got = _assert_same_as_rows(path)
    if name in REFUSED_SPELLINGS:
        assert got[0] == "error" and " at line " in got[1]


@pytest.mark.parametrize("t", [1, 4, 2])  # backwards, a gap, a repeated t
def test_ingest_matches_row_parser_on_relabelled_frame(tmp_path, t):
    path, head, rows = _trace_rows(tmp_path, LONG_SHAPE)
    n_cells = math.prod(LONG_SHAPE[1:])
    path.write_text("\n".join(head + _relabel_frame(rows, 3 * n_cells, n_cells, t)) + "\n")
    _assert_same_as_rows(path)


def test_ingest_without_final_newline_matches_row_parser(tmp_path):
    path, head, rows = _trace_rows(tmp_path, (3, 2, 2, 1))
    path.write_text("\n".join(head + rows))
    _assert_same_as_rows(path)


@pytest.mark.parametrize("edit, end", [
    (lambda rows: [r for f in (0, 4, 8) for r in rows[f:f + 4][::-1]], "\n"),  # shuffled
    (lambda rows: _relabel_frame(rows, 8, 4, 5), "\n"),  # t = 0, 1, 5
    (lambda rows: rows[:5] + [""] + rows[5:], "\n"),  # a blank line
    (lambda rows: rows[:4] + [_set_field(rows[4], 0, "+1")] + rows[5:], "\n"),
    (lambda rows: rows, ""),  # no final newline
], ids=["shuffled", "gap in t", "blank line", "index +1", "no final newline"])
def test_ingest_reads_non_canonical_trace_without_row_parser(tmp_path, edit, end):
    path, head, rows = _trace_rows(tmp_path, (3, 2, 2, 1))
    path.write_text("\n".join(head + edit(rows)) + end)
    expected = _outcome(_per_row, path)
    assert expected[0] == "values"
    assert _outcome(lambda p: oio.ingest_trace(p)[0], path) == expected


_MUTANT_CHARS = st.sampled_from([*"0123456789,.+-e_ \t\n\r\x0c", "nan", "inf", "#", '"'])


@settings(max_examples=100)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
       edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                st.sampled_from(["replace", "insert", "delete"]), _MUTANT_CHARS),
                      min_size=1, max_size=4))
def test_ingest_matches_row_parser_under_character_mutation(shape, edits):
    """Characters of the rows replaced, inserted or deleted: ingest agrees with the row-by-row
    reference reader (see _assert_same_as_rows)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        oio.export_trace(small_frames(*shape, seed=3), path)
        head, _, text = path.read_text().partition("t,k,rx,tx,re,im\n")
        for where, op, chars in edits:
            i = int(where * len(text))
            text = text[:i] + ("" if op == "delete" else chars) + text[i + (op != "insert"):]
        path.write_text(head + "t,k,rx,tx,re,im\n" + text)
        _assert_same_as_rows(path)


def test_ingest_canonical_trace_skips_row_parser(tmp_path):
    frames = small_frames(*LONG_SHAPE, seed=9)
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    back, _ = oio.ingest_trace(path)
    assert back.tobytes() == frames.tobytes()


class _CountingHandle:
    """A text file handle that counts the lines read through it."""

    def __init__(self, fh):
        self.fh, self.lines = fh, 0

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __iter__(self):
        return self

    def __next__(self):
        line = self.readline()
        if not line:
            raise StopIteration
        return line

    def readline(self, *args):
        line = self.fh.readline(*args)
        self.lines += bool(line)
        return line


@pytest.mark.parametrize("kind", ["trace", "trace with a nan last value", "observation"])
def test_rows_are_read_once(tmp_path, monkeypatch, kind):
    path = tmp_path / "data.csv"
    if kind == "observation":
        oio.export_observation(sn.ObservationSeries(values=np.linspace(0.1, 0.5, 40),
                                                    sample_rate=70.0, window_s=1.0), path)
    else:
        oio.export_trace(small_frames(*LONG_SHAPE[:3], 1, seed=9), path)
    if "nan" in kind:
        path.write_text(path.read_text()[:-1].rpartition(",")[0] + ",nan\n")
    handles, utf8 = [], oio._utf8

    @contextmanager
    def counting(*args):
        with utf8(*args) as fh:
            handles.append(_CountingHandle(fh))
            yield handles[-1]

    monkeypatch.setattr(oio, "_utf8", counting)
    read = oio.load_observation if kind == "observation" else oio.ingest_trace
    if "nan" in kind:
        with pytest.raises(oio.IngestError, match=re.escape(f"{path}: non-finite value at t=3")):
            read(path)
    else:
        read(path)
    assert [h.lines for h in handles] == [len(path.read_text().splitlines())]


# --- observation CSV -------------------------------------------------------

def test_observation_export_row_count(tmp_path):
    obs = sn.ObservationSeries(values=np.linspace(0, 1, 11), sample_rate=70.0, window_s=1.0)
    path = tmp_path / "obs.csv"
    oio.export_observation(obs, path)
    lines = path.read_text().splitlines()
    assert lines[3] == "t_seconds,sigma_bar"
    assert len(lines) == 4 + 11


def test_observation_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(7)
    obs = sn.ObservationSeries(values=rng.uniform(size=200) * 1e-4, sample_rate=70.0,
                               window_s=1.0)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    oio.export_observation(obs, p1)
    back = oio.load_observation(p1)
    assert np.array_equal(back.values, obs.values)
    assert back.sample_rate == obs.sample_rate
    assert back.window_s == obs.window_s
    oio.export_observation(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def write_observation(tmp_path, n=5):
    obs = sn.ObservationSeries(values=np.linspace(0.1, 0.5, n), sample_rate=70.0, window_s=1.0)
    path = tmp_path / "obs.csv"
    oio.export_observation(obs, path)
    return path


@pytest.mark.parametrize("key", ["sample_rate", "window_s"])
def test_observation_missing_header_key(tmp_path, key):
    path = write_observation(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if not ln.startswith(f"# {key}=")))
    with pytest.raises(oio.IngestError, match=f"missing header key '{key}'"):
        oio.load_observation(path)


def test_observation_not_utf8_names_file(tmp_path):
    path = write_observation(tmp_path)
    path.write_bytes(path.read_bytes() + b"\xff\xfe")
    with pytest.raises(oio.IngestError, match=not_utf8(path)):
        oio.load_observation(path)


@pytest.mark.parametrize("t, message", [
    ("0.5", "line 6: t_seconds 0.5 is off the lattice, expected 1.0"),
    ("1.0000001", "line 6: t_seconds 1.0000001 is off the lattice, expected 1.0"),
    ("x", "could not convert string 'x' to float64 at line 6, column 1."),  # np.loadtxt's text
], ids=["0.5", "1.0000001", "x"])
def test_observation_bad_t_seconds_row_named(tmp_path, t, message):
    path = write_observation(tmp_path)
    lines = path.read_text().splitlines()
    lines[5] = f"{t},0.2"  # second data row, whose t_seconds must be 70/70 = 1.0
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(oio.IngestError, match=f"^{re.escape(f'{path}: {message}')}$"):
        oio.load_observation(path)


@pytest.mark.parametrize("t, message", [
    ("0.5", "line 8: t_seconds 0.5 is off the lattice, expected 1.0"),
    ("x", "could not convert string 'x' to float64 at line 8, column 1."),
], ids=["lattice", "conversion"])
def test_observation_bad_row_after_blank_lines_names_its_line(tmp_path, t, message):
    path = write_observation(tmp_path)
    lines = path.read_text().splitlines()
    lines[5:6] = ["", "", f"{t},0.2"]  # the second data row, now on line 8
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(oio.IngestError, match=f"^{re.escape(f'{path}: {message}')}$"):
        oio.load_observation(path)


# --- report JSON -----------------------------------------------------------

def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise oio.IngestError(f"{path}: top level is not a JSON object")
    oio._check_schema(doc.get("schema_version", 1), path)
    return doc


def test_report_empty_roc_is_empty_array(tmp_path):
    rep = sn.DetectionReport(threshold=0.5, detection_rate=0.0, roc_points=None)
    path = tmp_path / "report.json"
    oio.export_report(rep, path, provenance={"seed": 1})
    doc = json.loads(path.read_text())
    assert doc["roc"] == []
    assert doc["provenance"]["seed"] == 1
    assert doc["schema_version"] == 1


def test_report_reexport_identical(tmp_path):
    ref = np.linspace(0.1, 0.4, 50)
    rep = sn.attack_report(ref, np.linspace(0.3, 0.9, 50), sn.calibrate_threshold(ref, 3.0))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    oio.export_report(rep, p1, provenance={"seed": 9, "config_hash": "ab"})
    doc = load_report(p1)
    oio.write_json(p2, doc)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_write_json_rejects_non_finite_numbers(tmp_path, value):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        oio.write_json(path, {"threshold": value})
    assert not path.exists()


def test_report_newer_schema_rejected(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(oio.IngestError, match="newer"):
        load_report(path)


def test_report_not_an_object_rejected(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("[]")
    with pytest.raises(oio.IngestError, match="r.json: top level is not a JSON object"):
        load_report(path)


# --- format pins: the exact bytes of each writer -------------------------

FORMAT_PINS = {
    "trace": (lambda p: oio.export_trace(np.array([[[[1.5 - 0.25j]]]]), p),
              "# schema_version=1\n# n_subcarriers=1\n# n_rx=1\n# n_tx=1\n# sample_rate=70.0\n"
              "t,k,rx,tx,re,im\n0,0,0,0,1.5,-0.25\n"),
    "observation": (lambda p: oio.export_observation(sn.ObservationSeries(
        values=[0.5, 0.25, 1e-05], sample_rate=2.0, window_s=1.0), p),
        "# schema_version=1\n# sample_rate=2.0\n# window_s=1.0\nt_seconds,sigma_bar\n"
        "0.5,0.5\n1.0,0.25\n1.5,1e-05\n"),
    "report": (lambda p: oio.export_report(sn.DetectionReport(
        threshold=0.5, detection_rate=0.75, tpr=0.75, fpr=0.0, roc_points=[(0.0, 0.0), (1.0, 1.0)],
        auc=0.875), p, provenance={"seed": 1}),
        '{\n  "auc": 0.875,\n  "detection_rate": 0.75,\n  "fpr": 0.0,\n  "provenance": {\n'
        '    "seed": 1\n  },\n  "roc": [\n    [\n      0.0,\n      0.0\n    ],\n    [\n'
        '      1.0,\n      1.0\n    ]\n  ],\n  "schema_version": 1,\n  "threshold": 0.5,\n'
        '  "tpr": 0.75\n}\n'),
    "json": (lambda p: oio.write_json(p, {"b": [1, 2.5], "a": None}),
             '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ],\n  "schema_version": 1\n}\n'),
    "json with its own version": (lambda p: oio.write_json(p, {"schema_version": 2}),
                                  '{\n  "schema_version": 2\n}\n'),
}


@pytest.mark.parametrize("name", FORMAT_PINS)
def test_writer_format_pinned(tmp_path, name):
    write, text = FORMAT_PINS[name]
    path = tmp_path / "out"
    write(path)
    assert path.read_bytes() == text.encode()


def test_default_scenario_is_valid():
    scn = oio.default_scenario(seed=11)
    assert np.hypot(*scn.irs_normal) == pytest.approx(1.0, abs=1e-12)
    paths = ch.build_static_paths(scn)
    assert np.any(paths.kind == ch.LOS)
    assert len(ch.build_irs_paths(scn, ch.grid_layout(scn))) == 256
