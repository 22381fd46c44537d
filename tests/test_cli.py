import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import SRC, run_cli
from obfusense import channel, cli, experiments
from obfusense import io as oio
from obfusense import sensing as sn


def invoke(*args):
    return cli.main([str(a) for a in args])


def read_bytes_map(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_simulate_noiseless_static_observation_is_zero(tmp_path, minimal_config):
    quiet = tmp_path / "quiet.cfg"
    quiet.write_text(minimal_config.read_text() + "\n[radio]\nsnr_db = inf\n")
    out = tmp_path / "out"
    assert invoke("simulate", "--config", quiet, "--motion", "none", "--defense", "off",
                  "--duration", 2, "--out", out) == 0
    obs = oio.load_observation(out / "observation.csv")
    assert np.array_equal(obs.values, np.zeros(len(obs)))


def test_simulate_deterministic_outputs(tmp_path, minimal_config):
    out = tmp_path / "run"
    args = ("simulate", "--config", minimal_config, "--motion", "walk",
            "--defense", "on", "--duration", 2, "--seed", 7, "--out", out)
    assert invoke(*args) == 0
    first = read_bytes_map(out)
    assert invoke(*args) == 0
    assert read_bytes_map(out) == first


def test_simulate_short_duration_precondition(tmp_path, minimal_config):
    rc = invoke("simulate", "--config", minimal_config, "--motion", "none",
                "--defense", "off", "--duration", 0.5, "--out", tmp_path / "x")
    assert rc == 3


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--duration", "2"])  # missing --config
    assert exc.value.code == 2


def test_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[anchor]\nposition = 0 0\n[eavesdropper]\nposition = 0 0\n")
    rc = invoke("simulate", "--config", cfg, "--motion", "none", "--defense", "off",
                "--duration", 2, "--out", tmp_path / "x")
    assert rc == 3


def test_walk_waypoint_outside_the_room_exits_3_naming_the_key(tmp_path, minimal_config, capsys):
    """The walk obeys the surface's rule: its points lie in the room walls' bounding box."""
    cfg = tmp_path / "far_walk.cfg"
    cfg.write_text(minimal_config.read_text()
                   + "walk_waypoints =\n    4 2.15\n    40 2.15\n")
    assert invoke("simulate", "--config", cfg, "--motion", "walk", "--defense", "off",
                  "--duration", 2, "--out", tmp_path / "x") == 3
    assert capsys.readouterr().err == ("error: experiment.walk_waypoints: "
                                       "a waypoint falls outside the room\n")
    assert not (tmp_path / "x").exists()


def test_attack_reference_equals_motion(tmp_path, minimal_config):
    out = tmp_path / "sim"
    invoke("simulate", "--config", minimal_config, "--motion", "none", "--defense", "off",
           "--duration", 4, "--out", out)
    atk = tmp_path / "atk"
    assert invoke("attack", "--reference", out / "observation.csv",
                  "--motion", out / "observation.csv", "--C", 11, "--out", atk) == 0
    doc = json.loads((atk / "report.json").read_text())
    assert doc["auc"] == pytest.approx(0.5, abs=0.02)


def test_attack_threshold_monotone_in_c(tmp_path, minimal_config):
    sim = tmp_path / "sim"
    invoke("simulate", "--config", minimal_config, "--motion", "none", "--defense", "off",
           "--duration", 4, "--out", sim)
    sim2 = tmp_path / "sim2"
    invoke("simulate", "--config", minimal_config, "--motion", "walk", "--defense", "off",
           "--duration", 4, "--stream", 1, "--out", sim2)
    thresholds = {}
    for c in (1, 11):
        out = tmp_path / f"atk{c}"
        invoke("attack", "--reference", sim / "observation.csv",
               "--motion", sim2 / "observation.csv", "--C", c, "--out", out)
        thresholds[c] = json.loads((out / "report.json").read_text())["threshold"]
    assert thresholds[11] >= thresholds[1]


def test_attack_max_ref_zero_fpr(tmp_path, minimal_config):
    sim = tmp_path / "sim"
    invoke("simulate", "--config", minimal_config, "--motion", "none", "--defense", "off",
           "--duration", 4, "--out", sim)
    out = tmp_path / "atk"
    assert invoke("attack", "--reference", sim / "observation.csv",
                  "--motion", sim / "observation.csv", "--max-ref", "--out", out) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["fpr"] == 0.0
    assert doc["provenance"]["threshold_rule"] == "max_reference"


def test_coverage_grid_row_count(tmp_path, minimal_config):
    out = tmp_path / "cov"
    assert invoke("coverage", "--config", minimal_config, "--grid", "3x2", "--defense", "off",
                  "--reference-s", 4, "--session-s", 3, "--out", out) == 0
    lines = (out / "coverage.csv").read_text().splitlines()
    assert lines[1] == "x,y,detection_rate,detection_rate_maxref"
    assert len(lines) == 2 + 6


@pytest.mark.parametrize("session_s, message", [
    ("nan", "--session-s: duration_s must be finite and > 0, got nan"),
    ("0.5", "session shorter than the observation window"),
], ids=["nan", "short"])
def test_coverage_bad_session_exits_3_before_synthesis(tmp_path, minimal_config, capsys,
                                                        monkeypatch, session_s, message):
    monkeypatch.setattr(channel.FrameSimulator, "frame",
                        lambda *a, **kw: pytest.fail("a frame was synthesised"))
    assert invoke("coverage", "--config", minimal_config, "--grid", "2x1", "--session-s",
                  session_s, "--out", tmp_path / "cov") == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "cov").exists()


def test_config_reference_s_under_one_window_named_before_synthesis(tmp_path, minimal_config,
                                                                    capsys, monkeypatch):
    monkeypatch.setattr(channel.FrameSimulator, "__init__",
                        lambda *a, **kw: pytest.fail("a simulator was built"))
    cfg = tmp_path / "short_reference.cfg"
    cfg.write_text(minimal_config.read_text().replace("seed = 42", "seed = 42\nreference_s = 0.5"))
    assert invoke("coverage", "--config", cfg, "--grid", "2x1", "--session-s", 3,
                  "--out", tmp_path / "cov") == 3
    assert capsys.readouterr().err == ("error: experiment.reference_s: "
                                       "session shorter than the observation window\n")
    assert not (tmp_path / "cov").exists()


@pytest.mark.parametrize("command", [
    ("simulate", "--duration", 30),
    ("paramstudy", "--R", "0.05", "--P", "0.6", "--duration", 30),
    ("sweep", "--var", "size", "--values", "256", "--duration", 30),
], ids=lambda c: c[0])
def test_config_window_under_2_samples_exits_3_before_synthesis(tmp_path, minimal_config, capsys,
                                                                 monkeypatch, command):
    monkeypatch.setattr(channel.FrameSimulator, "frame",
                        lambda *a, **kw: pytest.fail("a frame was synthesised"))
    cfg = tmp_path / "short_window.cfg"
    cfg.write_text(minimal_config.read_text().replace("seed = 42", "seed = 42\nwindow_s = 0.01"))
    assert invoke(*command, "--config", cfg, "--out", tmp_path / "x") == 3
    assert capsys.readouterr().err.startswith(
        "error: experiment.window_s: window_s 0.01 s gives n_w = 1 at sample_rate 70")
    assert not (tmp_path / "x").exists()


def test_sweep_size_cells(tmp_path, minimal_config):
    out = tmp_path / "sweep"
    assert invoke("sweep", "--config", minimal_config, "--var", "size",
                  "--values", "32:256:32", "--duration", 2, "--out", out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    values = {ln.split(",")[1] for ln in lines[2:]}
    assert len(values) == 8  # 32..256 step 32
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cells"] == 8


def test_sweep_empty_range_rejected(tmp_path, minimal_config, capsys):
    out = tmp_path / "sweep"
    assert invoke("sweep", "--config", minimal_config, "--var", "size",
                  "--values", "5:1:1", "--out", out) == 3
    assert "gives no values" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "--values", "1,,2"),
    ("sweep", "--values", "a:b:c"),
    ("sweep", "--values", "1:2"),
    ("sweep", "--values", "0:inf:1"),
    ("paramstudy", "--R", "0.05,x"),
    ("paramstudy", "--P", "x"),
])
def test_bad_value_list_names_flag(tmp_path, minimal_config, capsys, command, flag, value):
    extra = {"sweep": ["--var", "size"], "paramstudy": ["--R", "0.05", "--P", "0.5"]}[command]
    out = tmp_path / "out"
    assert invoke(command, "--config", minimal_config, *extra, flag, value, "--out", out) == 3
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not out.exists()



@pytest.mark.parametrize("r, p, message", [
    ("0.05", "0,1.5", "--P: hold_prob must be in [0, 1), got 1.5"),
    ("0.9", "0.6", "--R: progression_rate must be in (0, 0.5], got 0.9"),
], ids=["P", "R"])
def test_paramstudy_checks_every_cell_before_synthesis(tmp_path, minimal_config, capsys,
                                                      monkeypatch, r, p, message):
    monkeypatch.setattr(channel.FrameSimulator, "frame",
                        lambda *a, **kw: pytest.fail("a frame was synthesised"))
    out = tmp_path / "ps"
    assert invoke("paramstudy", "--config", minimal_config, "--R", r, "--P", p,
                  "--duration", 2, "--out", out) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_checks_every_value_before_its_first_session(tmp_path, minimal_config, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(experiments, "run_session", lambda *a, **kw: pytest.fail("a session ran"))
    out = tmp_path / "sweep"
    assert invoke("sweep", "--config", minimal_config, "--var", "size", "--values", "64,999",
                  "--duration", 2, "--out", out) == 3
    assert capsys.readouterr().err.startswith("error: --values: active count 999 out of range")
    assert not out.exists()


@pytest.mark.parametrize("var, values, message", [
    ("size", "1:2", "range '1:2' must be start:stop:step"),
    ("size", "1:2:3:4", "range '1:2:3:4' must be start:stop:step"),
    ("size", "64,inf", "sweep value inf is not finite"),
    ("orientation", "inf", "sweep value inf is not finite"),
    ("distance", "nan", "sweep value nan is not finite"),
], ids=["two-part range", "four-part range", "size inf", "orientation inf", "distance nan"])
def test_sweep_values_errors_are_clear(tmp_path, minimal_config, capsys, var, values, message):
    out = tmp_path / "sweep"
    assert invoke("sweep", "--config", minimal_config, "--var", var, "--values", values,
                  "--out", out) == 3
    assert capsys.readouterr().err == f"error: --values: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["0:inf:1", "nan:1:1", "0:1:inf", "-inf:0:1"])
def test_range_values_must_be_finite(text):
    with pytest.raises(ValueError, match="must be finite"):
        cli._parse_values(text)


def test_range_values_capped():
    assert len(cli._parse_values(f"0:{cli.MAX_RANGE_VALUES - 1}:1")) == cli.MAX_RANGE_VALUES
    with pytest.raises(ValueError, match=f"more than {cli.MAX_RANGE_VALUES} values"):
        cli._parse_values(f"0:{cli.MAX_RANGE_VALUES}:1")
    with pytest.raises(ValueError, match=f"more than {cli.MAX_RANGE_VALUES} values"):
        cli._parse_values("0:20000:1")


@pytest.mark.parametrize("c", ["nan", "-inf", "-5"])
def test_attack_bad_c_names_flag(tmp_path, capsys, c):
    obs = tmp_path / "observation.csv"
    oio.export_observation(sn.ObservationSeries(values=np.linspace(0.1, 0.5, 20),
                                                sample_rate=10.0, window_s=1.0), obs)
    out = tmp_path / "atk"
    assert invoke("attack", "--reference", obs, "--motion", obs, f"--C={c}", "--out", out) == 3
    assert capsys.readouterr().err.startswith("error: --C: c must be finite and >= 0")
    assert not out.exists()


def test_attack_non_finite_threshold_names_flag(tmp_path, capsys):
    # median + C * MAD overflows for a huge finite C; JSON has no Infinity
    obs = tmp_path / "observation.csv"
    oio.export_observation(sn.ObservationSeries(values=np.linspace(1.0, 10.0, 30),
                                                sample_rate=10.0, window_s=1.0), obs)
    out = tmp_path / "atk"
    assert invoke("attack", "--reference", obs, "--motion", obs, "--C", "1e308",
                  "--out", out) == 3
    assert capsys.readouterr().err.startswith("error: --C: threshold median + 1e+308 * MAD")
    assert not out.exists()


@pytest.mark.parametrize("window_s, message", [
    (1e308, "line 5: t_seconds -0.014285714285714285 is off the lattice"),  # n_w = 2 ** 62,
    # not int(inf)
    (0.001, "window_s 0.001 s gives n_w = 0 at sample_rate 70"),
], ids=["huge", "under_2_samples"])
def test_attack_observation_window_follows_window_rule(tmp_path, capsys, window_s, message):
    obs = tmp_path / "observation.csv"
    # rows on the lattice (i + n_w - 1) / 70 that n_w = 0 gives
    oio.write_csv(obs, ("t_seconds", "sigma_bar"),
                  [((i - 1) / 70.0, 0.1 * (i + 1)) for i in range(5)],
                  meta={"sample_rate": 70.0, "window_s": window_s})
    out = tmp_path / "atk"
    assert invoke("attack", "--reference", obs, "--motion", obs, "--out", out) == 3
    assert capsys.readouterr().err.startswith(f"error: {obs}: {message}")
    assert not out.exists()


def test_coverage_jobs_below_one_rejected(tmp_path, minimal_config, capsys):
    assert invoke("coverage", "--config", minimal_config, "--jobs", 0,
                  "--out", tmp_path / "cov") == 3
    assert "jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [
    (("simulate", "--duration", 2, "--stream", -1),
     "--stream: stream must be an integer >= 0, got -1"),
    (("coverage", "--jobs", 0), "--jobs: jobs must be >= 1, got 0"),
], ids=["stream", "jobs"])
def test_bad_stream_or_jobs_named_before_synthesis(tmp_path, minimal_config, capsys, monkeypatch,
                                                   command, message):
    monkeypatch.setattr(channel.FrameSimulator, "__init__",
                        lambda *a, **kw: pytest.fail("a simulator was built"))
    out = tmp_path / "out"
    assert invoke(*command, "--config", minimal_config, "--out", out) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("grid", ["3", "0x2"])
def test_coverage_bad_grid_names_flag(tmp_path, minimal_config, capsys, grid):
    assert invoke("coverage", "--config", minimal_config, "--grid", grid,
                  "--out", tmp_path / "cov") == 3
    err = capsys.readouterr().err
    assert "--grid" in err and "NXxNY" in err


def test_coverage_grid_over_memory_exits_3_naming_grid(tmp_path, minimal_config, capsys):
    assert invoke("coverage", "--config", minimal_config, "--grid", "100000x100000",
                  "--out", tmp_path / "cov") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --grid: grid 100000x100000 of 60 s sessions needs")
    assert not (tmp_path / "cov").exists()


def test_coverage_uses_config_reflector(tmp_path, minimal_config, monkeypatch):
    cfg = tmp_path / "rpm.cfg"
    cfg.write_text(minimal_config.read_text() + "reflector_rpm = 40\n")
    seen = {}
    real = experiments.run_coverage_grid

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_coverage_grid", spy)
    assert invoke("coverage", "--config", cfg, "--grid", "1x1", "--reference-s", 1.5,
                  "--session-s", 1.5, "--out", tmp_path / "cov") == 0
    assert seen["rpm"] == 40.0
    assert seen["reflector_gain_db"] == 15.0


@pytest.mark.parametrize("edit", [
    ("[experiment]", "[irs]\npanel_size = 0 -1\n\n[experiment]"),
    ("position = 1.2 2.75", "position = nan 2.75"),
    ("[experiment]", "[irs]\nnormal = nan 1\n\n[experiment]"),
    ("[experiment]", "[radio]\nsample_rate = nan\n\n[experiment]"),
    ("[experiment]", "[radio]\ncarrier_freq_hz = nan\n\n[experiment]"),
    ("[experiment]", "[radio]\nsnr_db = nan\n\n[experiment]"),
    ("[experiment]", "[radio]\nsnr_db = -inf\n\n[experiment]"),
    ("[experiment]", "[defense]\nupdate_rate = 0\n\n[experiment]"),
    ("[experiment]", "[defense]\nupdate_rate = 1e9\n\n[experiment]"),
    ("seed = 42", "seed = 42\nwalk_speed = nan"),
    ("seed = 42", "seed = 42\nwalk_dwell = nan"),
    ("seed = 42", "seed = 42\nreflector_rpm = nan"),
    ("seed = 42", "seed = 42\nblocking_radius = nan"),
    ("seed = 42", "seed = 42\nblocking_depth_db = nan"),
    ("seed = 42", "seed = 42\nscatter_gain_db = nan"),
    ("seed = 42", "seed = 42\nc = nan"),
    ("seed = 42", "seed = 42\nwindow_s = nan"),
    ("seed = 42", "seed = 42\nreference_s = -5"),
])
def test_invalid_config_value_exits_3(tmp_path, minimal_config, edit):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(minimal_config.read_text().replace(*edit))
    assert invoke("simulate", "--config", cfg, "--motion", "none", "--defense", "off",
                  "--duration", 2, "--out", tmp_path / "x") == 3
    assert not (tmp_path / "x").exists()


def test_simulate_duration_over_memory_exits_3(tmp_path, minimal_config, capsys):
    assert invoke("simulate", "--config", minimal_config, "--motion", "none", "--defense", "off",
                  "--duration", 1e12, "--out", tmp_path / "x") == 3
    assert "duration 1e+12 s needs" in capsys.readouterr().err


def test_surface_over_memory_exits_3_naming_grid(tmp_path, minimal_config, capsys, monkeypatch):
    # the default 16x16 surface's tensors take about 3 MB; pretend the machine has 1 MB
    monkeypatch.setattr(channel, "_physical_memory", lambda: float(2 ** 20))
    assert invoke("simulate", "--config", minimal_config, "--motion", "none", "--defense", "off",
                  "--duration", 2, "--out", tmp_path / "x") == 3
    assert capsys.readouterr().err.startswith("error: irs.grid: irs_grid 16x16 needs")
    assert not (tmp_path / "x").exists()


def test_rejected_simulate_leaves_no_out_dir(tmp_path, minimal_config):
    assert invoke("simulate", "--config", minimal_config, "--motion", "none", "--defense", "off",
                  "--duration", 1e12, "--out", tmp_path / "x") == 3
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_simulate_non_finite_duration_named(tmp_path, minimal_config, capsys, value):
    assert invoke("simulate", "--config", minimal_config, "--motion", "none", "--defense", "off",
                  "--duration", value, "--out", tmp_path / "x") == 3
    assert "duration_s must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_ingest_non_finite_window_named(tmp_path, capsys, monkeypatch, value):
    trace = tmp_path / "trace.csv"
    oio.export_trace(np.ones((4, 2, 1, 1), dtype=complex), trace)
    monkeypatch.setattr(oio, "ingest_trace", lambda path: pytest.fail("the trace was read"))
    assert invoke("ingest", "--trace", trace, "--window", value, "--out", tmp_path / "ing") == 3
    assert "window_s must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "ing").exists()


@pytest.mark.parametrize("command, message", [
    (("coverage", "--reference-s", "nan"), "--reference-s: duration_s must be finite and > 0"),
    (("simulate", "--duration", 0.5), "--duration: session shorter than the observation window"),
    (("sweep", "--var", "size", "--values", "256", "--duration", 0.5),
     "--duration: session shorter than the observation window"),
    (("paramstudy", "--R", "0.05", "--P", "0.6", "--duration", 0.5),
     "--duration: session shorter than the observation window"),
    (("ingest", "--window", 0.01), "--window: window_s 0.01 s gives n_w = 1 at sample_rate 70"),
    (("ingest", "--window", 30), "--window: 280 frames shorter than window of 2100"),
], ids=["coverage_reference", "simulate", "sweep", "paramstudy",
        "ingest_under_2_samples", "ingest_over_trace"])
def test_bad_session_length_names_flag(tmp_path, minimal_config, capsys, monkeypatch, command,
                                       message):
    monkeypatch.setattr(channel.FrameSimulator, "frame",
                        lambda *a, **kw: pytest.fail("a frame was synthesised"))
    if command[0] == "ingest":
        source = ("--trace", tmp_path / "trace.csv")
        oio.export_trace(np.ones((280, 2, 1, 1), dtype=complex), source[1])  # 4 s at 70 Hz
    else:
        source = ("--config", minimal_config)
    assert invoke(*command, *source, "--out", tmp_path / "x") == 3
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "x").exists()


def test_ingest_trace_without_sample_rate_rejected(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    frames = np.stack([np.full((2, 1, 1), 1.0 + i, dtype=complex) for i in range(4)])
    oio.export_trace(frames, trace)
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(ln for ln in lines if not ln.startswith("# sample_rate=")))
    assert invoke("ingest", "--trace", trace, "--out", tmp_path / "ing") == 3
    assert "missing header key 'sample_rate'" in capsys.readouterr().err


def test_ingest_trace_with_infinite_sample_rate_rejected(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    oio.export_trace(np.ones((4, 2, 1, 1), dtype=complex), trace)
    trace.write_text(trace.read_text().replace("# sample_rate=70.0", "# sample_rate=inf"))
    assert invoke("ingest", "--trace", trace, "--out", tmp_path / "ing") == 3
    assert f"{trace}: header key sample_rate='inf' must be finite and > 0" \
        in capsys.readouterr().err


def test_paramstudy_cartesian_product(tmp_path, minimal_config):
    out = tmp_path / "ps"
    assert invoke("paramstudy", "--config", minimal_config, "--R", "0.025,0.05",
                  "--P", "0,0.4,0.6", "--duration", 2, "--out", out) == 0
    lines = (out / "paramstudy.csv").read_text().splitlines()
    assert len(lines) == 2 + 6


def test_ingest_matches_simulated_observation(tmp_path, minimal_config):
    sim = tmp_path / "sim"
    invoke("simulate", "--config", minimal_config, "--motion", "none", "--defense", "on",
           "--duration", 3, "--out", sim)
    ing = tmp_path / "ing"
    assert invoke("ingest", "--trace", sim / "trace.csv", "--out", ing) == 0
    assert (sim / "observation.csv").read_bytes() == (ing / "observation.csv").read_bytes()


def test_manifest_contents(tmp_path, minimal_config):
    out = tmp_path / "sim"
    invoke("simulate", "--config", minimal_config, "--motion", "none", "--defense", "off",
           "--duration", 2, "--out", out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 42
    assert len(manifest["config_sha256"]) == 64
    assert manifest["version"]


def test_cli_subprocess_smoke(tmp_path, minimal_config):
    rc, stdout, stderr = run_cli(["simulate", "--config", minimal_config, "--motion", "none",
                                  "--defense", "off", "--duration", "2",
                                  "--out", tmp_path / "sp"])
    assert rc == 0, stderr
    assert (tmp_path / "sp" / "observation.csv").exists()
    rc, _, _ = run_cli(["nonsense"])
    assert rc == 2


# The child imports the CLI as `obfusense` does at start-up and prints OpenBLAS's thread count,
# read as perfbench/run.py reads it ("none" when numpy's OpenBLAS is not found).
_BLAS_THREADS_CHILD = """
import ctypes
from pathlib import Path
import obfusense.cli
import numpy as np
libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            print(fn())
            raise SystemExit
print("none")
"""
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cli_blas_threads(**env_vars):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_vars, PYTHONPATH=os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_CHILD], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "none":
        pytest.skip("numpy's BLAS is not an OpenBLAS whose thread count can be read")
    return int(proc.stdout)


def test_cli_runs_one_blas_thread_by_default():
    assert cli_blas_threads() == 1


def test_cli_keeps_the_blas_thread_count_the_user_sets():
    assert cli_blas_threads(OPENBLAS_NUM_THREADS="2") == min(2, os.cpu_count())


def test_readme_commands_parse():
    """Every README line that runs the CLI parses with the CLI's own parser."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [ln for ln in readme.read_text().splitlines() if ln.startswith("obfusense ")]
    assert len(lines) == 11
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
