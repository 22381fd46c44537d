import json

import numpy as np
import pytest

from conftest import run_cli
from obfusense import cli, experiments
from obfusense import io as oio


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


def test_coverage_jobs_below_one_rejected(tmp_path, minimal_config, capsys):
    assert invoke("coverage", "--config", minimal_config, "--jobs", 0,
                  "--out", tmp_path / "cov") == 3
    assert "jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["3", "0x2"])
def test_coverage_bad_grid_names_flag(tmp_path, minimal_config, capsys, grid):
    assert invoke("coverage", "--config", minimal_config, "--grid", grid,
                  "--out", tmp_path / "cov") == 3
    err = capsys.readouterr().err
    assert "--grid" in err and "NXxNY" in err


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
def test_ingest_non_finite_window_named(tmp_path, capsys, value):
    trace = tmp_path / "trace.csv"
    oio.export_trace(np.ones((4, 2, 1, 1), dtype=complex), trace)
    assert invoke("ingest", "--trace", trace, "--window", value, "--out", tmp_path / "ing") == 3
    assert "window_s must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "ing").exists()


def test_ingest_trace_without_sample_rate_rejected(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    frames = np.stack([np.full((2, 1, 1), 1.0 + i, dtype=complex) for i in range(4)])
    oio.export_trace(frames, trace)
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(ln for ln in lines if not ln.startswith("# sample_rate=")))
    assert invoke("ingest", "--trace", trace, "--out", tmp_path / "ing") == 3
    assert "missing header key 'sample_rate'" in capsys.readouterr().err


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
