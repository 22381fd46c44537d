"""Golden values: short fixed runs pinned to committed numbers.

Every case uses the default scenario with seed 1 and short durations. The
committed values in goldens.json were produced by this file's `compute()`;
a change that means to alter numbers regenerates them with

    PYTHONPATH=src python tests/golden/test_goldens.py --write

and says why. Comparison is at rtol 1e-12 with no absolute slack, so every
stored quantity is positive (magnitudes, observation values, rates,
thresholds) or an exact integer.
"""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from obfusense import cli, experiments
from obfusense import io as oio

GOLDEN = Path(__file__).with_name("goldens.json")
RTOL = 1e-12

CONFIG = """\
[anchor]
position = 1.2 2.75

[eavesdropper]
position = 6.3 2.75
"""

SIMULATE = {
    "walk_on": ("walk", "on"),
    "walk_off": ("walk", "off"),
    "reflector_on": ("reflector", "on"),
}


def _simulate(tmp: Path, motion: str, defense: str) -> dict:
    """One `simulate` run; trace summarised as |H| means per frame and per component."""
    cfg = tmp / "scenario.cfg"
    cfg.write_text(CONFIG)
    out = tmp / f"{motion}_{defense}"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["simulate", "--config", str(cfg), "--seed", "1", "--motion", motion,
                       "--defense", defense, "--duration", "2", "--out", str(out)])
    assert rc == 0
    mags = np.abs(oio.ingest_trace(out / "trace.csv")[0])
    mags = mags.reshape(mags.shape[0], -1)
    return {
        "observation": oio.load_observation(out / "observation.csv").values,
        "frame_mean_mag": mags.mean(axis=1),
        "component_mean_mag": mags.mean(axis=0),
    }


def compute() -> dict:
    scenario = oio.default_scenario(seed=1)
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (motion, defense) in SIMULATE.items():
            cases[f"simulate_{name}"] = _simulate(Path(tmp), motion, defense)

    ref, subs = experiments.reference_and_selection(scenario, True, 3.0, n_select=28)
    cases["selection"] = {"subcarriers": subs, "reference": ref.values}

    grid = experiments.coverage_grid_positions(scenario, 2, 2)
    cov = experiments.run_coverage_grid(scenario, grid, True, reference_s=3.0, session_s=2.0)
    cases["coverage_2x2"] = {"rates": cov.rates, "rates_maxref": cov.rates_maxref,
                             "thresholds": [cov.threshold, cov.threshold_maxref]}

    sweep = experiments.sweep_irs_size(scenario, [64, 256], session_s=2.0)
    cases["sweep_size"] = {stat: [getattr(c, stat) for c in sweep.cells]
                           for stat in ("median", "p01", "p99", "threshold")}

    cells = experiments.parameter_study(scenario, [0.05], [0.0, 0.6], 2.0)
    cases["paramstudy_1x2"] = {stat: [getattr(c, stat) for c in cells]
                               for stat in ("median", "mad", "threshold", "euclidean_norm",
                                            "coherence_time_s")}
    return {case: {k: np.asarray(v).tolist() for k, v in arrays.items()}
            for case, arrays in cases.items()}


@pytest.fixture(scope="module")
def computed():
    return compute()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", ["simulate_walk_on", "simulate_walk_off", "simulate_reflector_on",
                                  "selection", "coverage_2x2", "sweep_size", "paramstudy_1x2"])
def test_golden(case, computed, golden):
    assert computed[case].keys() == golden[case].keys()
    for key, want in golden[case].items():
        np.testing.assert_allclose(np.asarray(computed[case][key]), np.asarray(want),
                                   rtol=RTOL, atol=0, err_msg=f"{case}.{key}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_goldens.py --write")
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
