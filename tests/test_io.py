import json

import numpy as np
import pytest

from obfusense import channel as ch
from obfusense import io as oio
from obfusense import sensing as sn


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


# --- trace CSV -------------------------------------------------------------

def small_frames(n=3, k=2, rx=1, tx=1, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(n, k, rx, tx)) + 1j * rng.normal(size=(n, k, rx, tx))
    return [ch.CsiFrame(t_index=i, values=vals[i]) for i in range(n)]


def test_trace_roundtrip_values(tmp_path):
    frames = small_frames()
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    back = list(oio.ingest_trace(path))
    assert len(back) == len(frames)
    for a, b in zip(frames, back):
        assert a.t_index == b.t_index
        assert np.array_equal(a.values, b.values)


def test_trace_reexport_byte_identical(tmp_path):
    frames = small_frames(n=5, k=3, rx=2, tx=2, seed=1)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    oio.export_trace(frames, p1)
    oio.export_trace(list(oio.ingest_trace(p1)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_trace_shuffled_rows_within_frame(tmp_path):
    frames = small_frames(n=2, k=2, rx=2, tx=1, seed=2)
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    lines = path.read_text().splitlines()
    head, rows = lines[:6], lines[6:]
    per_frame = len(rows) // 2
    shuffled = rows[:per_frame][::-1] + rows[per_frame:][::-1]
    path.write_text("\n".join(head + shuffled) + "\n")
    back = list(oio.ingest_trace(path))
    for a, b in zip(frames, back):
        assert np.array_equal(a.values, b.values)


def test_trace_missing_cell_names_gap(tmp_path):
    frames = small_frames(n=2, k=2, rx=1, tx=1, seed=3)
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    lines = path.read_text().splitlines()
    dropped = [ln for ln in lines if not ln.startswith("1,1,0,0")]
    path.write_text("\n".join(dropped) + "\n")
    with pytest.raises(oio.IngestError, match=r"t=1 missing cell \(k=1"):
        list(oio.ingest_trace(path))


def test_trace_nonmonotone_t_rejected(tmp_path):
    frames = small_frames(n=3, k=1, rx=1, tx=1, seed=4)
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    lines = path.read_text().splitlines()
    lines[6:] = lines[6:][::-1]  # frames now descend in t
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(oio.IngestError, match="backwards"):
        list(oio.ingest_trace(path))


def test_trace_duplicate_cell_rejected(tmp_path):
    frames = small_frames(n=1, k=1, rx=1, tx=1, seed=5)
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    with open(path, "a") as fh:
        fh.write("0,0,0,0,1.0,2.0\n")
    with pytest.raises(oio.IngestError, match="duplicate"):
        list(oio.ingest_trace(path))


def test_trace_newer_schema_rejected(tmp_path):
    frames = small_frames(n=1, k=1, rx=1, tx=1)
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    text = path.read_text().replace("schema_version=1", "schema_version=2")
    path.write_text(text)
    with pytest.raises(oio.IngestError, match="newer"):
        list(oio.ingest_trace(path))


def test_trace_header_override(tmp_path):
    frames = small_frames(n=2, k=2, rx=1, tx=1, seed=6)
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path)
    hdr = oio.TraceHeader(n_subcarriers=2, n_rx=1, n_tx=1, sample_rate=50.0)
    back = list(oio.ingest_trace(path, header=hdr))
    assert len(back) == 2


def test_trace_missing_sample_rate_named(tmp_path):
    path = tmp_path / "trace.csv"
    oio.export_trace(small_frames(n=2, k=1, rx=1, tx=1), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if not ln.startswith("# sample_rate=")))
    with pytest.raises(oio.IngestError, match="missing header key 'sample_rate'"):
        oio.read_trace_header(path)
    with pytest.raises(oio.IngestError, match="sample_rate"):
        list(oio.ingest_trace(path))


@pytest.mark.parametrize("row, message", [
    ("0,0,0,0,1.0", "malformed row"),
    ("0,0,0,0,nan,1.0", "non-finite"),
    ("0,5,0,0,1.0,2.0", "outside header"),
    ("0,0,0,0,1.0,abc", r"row '0,0,0,0,1.0,abc'"),
    ("0.5,0,0,0,1.0,2.0", r"row '0.5,0,0,0,1.0,2.0'"),
])
def test_trace_bad_row_named(tmp_path, row, message):
    path = tmp_path / "trace.csv"
    oio.export_trace(small_frames(n=1, k=1, rx=1, tx=1), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:6] + [row]) + "\n")
    with pytest.raises(oio.IngestError, match=message):
        list(oio.ingest_trace(path))


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


@pytest.mark.parametrize("t", ["0.5", "1.0000001", "x"])
def test_observation_bad_t_seconds_row_named(tmp_path, t):
    path = write_observation(tmp_path)
    lines = path.read_text().splitlines()
    lines[5] = f"{t},0.2"  # second data row, whose t_seconds must be 70/70 = 1.0
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(oio.IngestError, match=f"row '{t},0.2'"):
        oio.load_observation(path)


# --- report JSON -----------------------------------------------------------

def test_report_empty_roc_is_empty_array(tmp_path):
    rep = sn.DetectionReport(threshold=0.5, detection_rate=0.0, roc_points=None)
    path = tmp_path / "report.json"
    oio.export_report(rep, path, provenance={"seed": 1})
    doc = json.loads(path.read_text())
    assert doc["roc"] == []
    assert doc["provenance"]["seed"] == 1
    assert doc["schema_version"] == 1


def test_report_reexport_identical(tmp_path):
    rep = sn.attack_report(np.linspace(0.1, 0.4, 50), np.linspace(0.3, 0.9, 50), c=3.0)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    oio.export_report(rep, p1, provenance={"seed": 9, "config_hash": "ab"})
    doc = oio.load_report(p1)
    oio.export_report(doc, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_newer_schema_rejected(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(oio.IngestError, match="newer"):
        oio.load_report(path)


def test_default_scenario_is_valid():
    scn = oio.default_scenario(seed=11)
    assert np.hypot(*scn.irs_normal) == pytest.approx(1.0, abs=1e-12)
    paths = ch.build_static_paths(scn)
    assert any(p.kind == ch.LOS for p in paths)
    assert len(ch.build_irs_paths(scn, ch.grid_layout(scn))) == 256
