"""Acceptance gate: one pass/fail line per criterion (run with pytest -s).

Absolute sensing performance is environment-specific, so the gate checks
exact formula-level behavior where it is pinned and qualitative trends
elsewhere, on the packaged default scenario with fixed seeds.
"""
import math
import time

import numpy as np
import pytest

from conftest import MINIMAL_CONFIG, run_cli
from obfusense import channel as ch
from obfusense import experiments as ex
from obfusense import io as oio
from obfusense import irs as ir
from obfusense import sensing as sn

SEEDS = (1, 2, 3, 4, 5)
CANONICAL = 1


def announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def spearman(x, y):
    rx = np.argsort(np.argsort(np.asarray(x, dtype=float))).astype(float)
    ry = np.argsort(np.argsort(np.asarray(y, dtype=float))).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.dot(rx, ry) / np.sqrt(np.dot(rx, rx) * np.dot(ry, ry)))


def brute_force_observe(arr, n_w):
    t = arr.shape[0]
    mags = np.abs(arr.transpose(0, 1, 3, 2).reshape(t, -1))
    out = np.zeros(t - n_w + 1)
    for ti in range(n_w - 1, t):
        acc = 0.0
        for n in range(mags.shape[1]):
            win = mags[ti - n_w + 1:ti + 1, n]
            mean = win.sum() / n_w
            acc += math.sqrt(((win - mean) ** 2).sum() / n_w)
        out[ti - n_w + 1] = acc / mags.shape[1]
    return out


@pytest.fixture(scope="module")
def walk_data():
    """Paired walk/reference/holdout sessions for criteria 6-8."""
    data = {"sessions": {}, "runtimes": {}}
    walk = oio.default_walk()
    person = ch.PersonState(position=(0.0, 0.0))
    for seed in SEEDS:
        scn = oio.default_scenario(seed=seed)
        ref_s = 180.0 if seed == CANONICAL else 60.0
        t0 = time.perf_counter()
        per_seed = {}
        for defense in (False, True):
            sim = ch.FrameSimulator(scn)
            ref, subs = ex.reference_and_selection(scn, defense, ref_s, stream=0, simulator=sim)
            obs = ex.run_session(scn, defense, walk, 60.0, subcarriers=subs, stream=1,
                                 person_template=person, simulator=sim)
            entry = {"ref": ref, "obs": obs, "u": sn.calibrate_threshold(ref, 11.0)}
            if seed == CANONICAL:
                entry["holdout"] = ex.run_session(scn, defense, None, 60.0, subcarriers=subs,
                                                  stream=2, simulator=sim)
            per_seed[defense] = entry
        n_w = sn.window_samples(1.0, scn.sample_rate)
        xy = per_seed[False]["obs"].meta["person_xy"]
        per_seed["mask"] = ex.window_any(ex.blocked_flags(scn, xy, person.blocking_radius), n_w)
        data["sessions"][seed] = per_seed
        data["runtimes"][seed] = time.perf_counter() - t0
    return data


def test_criterion_01_sliding_std_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        t = int(rng.integers(4, 51))
        k = int(rng.integers(1, 5))
        n_rx = int(rng.integers(1, 3))
        n_tx = int(rng.integers(1, 3))
        arr = rng.normal(size=(t, k, n_rx, n_tx)) + 1j * rng.normal(size=(t, k, n_rx, n_tx))
        n_w = int(rng.integers(2, t + 1))
        frames = [ch.CsiFrame(i, arr[i]) for i in range(t)]
        got = sn.observe(frames, n_w / 70.0, 70.0).values
        want = brute_force_observe(arr, n_w)
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    elapsed = time.perf_counter() - t0
    announce(1, "sliding-std oracle", worst < 1e-12 and elapsed < 5.0,
             f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_threshold_formula():
    exact = sn.calibrate_threshold([1, 2, 3, 4, 5], 1.0)
    rng = np.random.default_rng(1002)
    monotone = True
    for _ in range(100):
        ref = rng.uniform(0, 1, size=int(rng.integers(3, 60)))
        cs = np.sort(rng.uniform(0, 20, size=6))
        us = [sn.calibrate_threshold(ref, c) for c in cs]
        monotone = monotone and bool(np.all(np.diff(us) >= 0))
    announce(2, "threshold formula", exact == 4.0 and monotone,
             f"u([1..5], C=1) = {exact}, monotone over 100 series: {monotone}")


def test_criterion_03_inversion_identity():
    scn = oio.default_scenario(seed=7, snr_db=float("inf"))
    static = ch.build_static_paths(scn)
    irsp = ch.build_irs_paths(scn, ch.grid_layout(scn))
    h0 = ch.channel_response(static, irsp, ir.IrsConfig(np.zeros(256, np.uint8)),
                             None, scn, 0).values
    h1 = ch.channel_response(static, irsp, ir.IrsConfig(np.ones(256, np.uint8)),
                             None, scn, 0).values
    henv = ch.channel_response(static, irsp, None, None, scn, 0).values
    err = float(np.max(np.abs(h0 + h1 - 2 * henv)))
    announce(3, "inversion identity", err < 1e-10, f"max abs err {err:.2e}")


def test_criterion_04_scheduler_structure():
    state = ir.initial_state(256, np.random.default_rng(1004), progression_rate=0.05,
                             hold_prob=0.0)
    deltas = []
    for _ in range(1000):
        prev = state.cfg
        state, changed = ir.step(state)
        assert changed
        deltas.append(ir.hamming_distance(state.cfg, prev))
    alternates = deltas == [13, 256] * 500

    state = ir.initial_state(256, np.random.default_rng(1005), progression_rate=0.05,
                             hold_prob=0.6)
    held = 0
    n = 100_000
    for _ in range(n):
        state, changed = ir.step(state)
        held += not changed
    frac = held / n
    announce(4, "scheduler structure", alternates and abs(frac - 0.6) <= 0.01,
             f"deltas alternate 13/256: {alternates}, held fraction {frac:.4f}")


def test_criterion_05_hamming_trace_shape():
    t0 = time.perf_counter()
    n_ens = 500
    disabled = ir.hamming_trace(256, 40, n_ens, progression_rate=0.5, hold_prob=0.0,
                                seed=1006, include_inversion=False)
    # the expectation is monotone; at equilibrium per-run distances are
    # binomial (std 8), so allow dips of 4 standard errors of the mean diff
    slack = 4.0 * 8.0 * math.sqrt(2.0 / n_ens)
    monotone = bool(np.all(np.diff(disabled) >= -slack))
    saturates = bool(np.all(disabled < 128 * 1.05) and disabled[-1] > 120)

    # with inversion, branch separation is transient (distance to the start
    # mean-reverts to M/2), so the windows cover the pre-mixing regime the
    # trace is about: 16 executed steps at P_hold = 0
    enabled = ir.hamming_trace(256, 16, 500, progression_rate=0.05, hold_prob=0.0,
                               seed=1007, include_inversion=True)
    windows_ok = True
    for j in range(1, len(enabled) - 9):
        win = enabled[j:j + 10]
        windows_ok = windows_ok and bool(win.min() < 64) and bool(win.max() > 192)
    elapsed = time.perf_counter() - t0
    announce(5, "hamming-trace shape",
             monotone and saturates and windows_ok and elapsed < 30.0,
             f"monotone={monotone}, saturates={saturates} (tail {disabled[-1]:.1f}), "
             f"windows={windows_ok}, {elapsed:.1f}s")


def test_criterion_06_attack_without_defense(walk_data):
    d = walk_data["sessions"][CANONICAL]
    mask = d["mask"]
    off = d[False]
    rate = float((off["obs"].values[mask] > off["u"]).mean())
    fpr = float((off["holdout"].values > off["u"]).mean())
    runtime = walk_data["runtimes"][CANONICAL]
    announce(6, "attack works without defense",
             rate >= 0.9 and fpr == 0.0 and runtime < 60.0,
             f"crossing detection rate {rate:.3f}, holdout FPR {fpr}, {runtime:.1f}s")


def test_criterion_07_defense_suppresses_detection(walk_data):
    d = walk_data["sessions"][CANONICAL]
    mask = d["mask"]
    on, off = d[True], d[False]
    rate = float((on["obs"].values[mask] > on["u"]).mean())
    ratio = on["u"] / off["u"]
    announce(7, "defense suppresses detection", rate <= 0.1 and ratio >= 5.0,
             f"defended detection rate {rate:.3f}, threshold ratio {ratio:.1f}x")


def test_criterion_08_roc_degradation(walk_data):
    aucs_off = []
    aucs_on = []
    for seed in SEEDS:
        d = walk_data["sessions"][seed]
        aucs_off.append(sn.roc(d[False]["obs"], d[False]["ref"]).auc)
        aucs_on.append(sn.roc(d[True]["obs"], d[True]["ref"]).auc)
    mean_off = float(np.mean(aucs_off))
    mean_on = float(np.mean(aucs_on))
    announce(8, "roc degradation", mean_off >= 0.90 and mean_on <= 0.70,
             f"mean AUC off {mean_off:.3f}, on {mean_on:.3f}")


def test_criterion_09_size_monotonicity():
    counts = list(range(32, 257, 32))
    rhos = []
    for seed in SEEDS:
        scn = oio.default_scenario(seed=seed)
        res = ex.sweep_irs_size(scn, counts, session_s=40.0)
        rhos.append(spearman(res.values, res.medians))
    mean_rho = float(np.mean(rhos))
    announce(9, "size monotonicity", mean_rho >= 0.9,
             f"mean Spearman {mean_rho:.3f} over seeds {[round(r, 2) for r in rhos]}")


def test_criterion_10_distance_decay():
    wins = 0
    medians = []
    for seed in SEEDS:
        scn = oio.default_scenario(seed=seed)
        res = ex.sweep_irs_distance(scn, [0.15, 1.5], session_s=30.0)
        wins += res.cells[0].median > res.cells[1].median
        medians.append((res.cells[0].median, res.cells[1].median))
    announce(10, "distance decay", wins >= 4,
             f"near > far in {wins}/5 seeds, e.g. {medians[0][0]:.2e} vs {medians[0][1]:.2e}")


def test_criterion_11_orientation():
    wins = 0
    back_positive = True
    for seed in SEEDS:
        scn = oio.default_scenario(seed=seed)
        res = ex.sweep_irs_orientation(scn, [0.0, 180.0], session_s=30.0)
        wins += res.cells[0].median >= res.cells[1].median
        back_positive = back_positive and res.cells[1].median > 0.0
    announce(11, "orientation", wins >= 4 and back_positive,
             f"front >= back in {wins}/5 seeds, back median positive: {back_positive}")


def test_criterion_12_parameter_band():
    ok_seeds = 0
    details = []
    for seed in (1, 2, 3):
        scn = oio.default_scenario(seed=seed)
        cells = ex.parameter_study(scn, [0.025, 0.05], [0.4, 0.6], 30.0)
        in_band = sum(0.5 <= c.coherence_time_s <= 3.0 for c in cells)
        details.append(in_band)
        ok_seeds += in_band >= 3
    announce(12, "parameter-study coherence band", ok_seeds == 3,
             f"cells in [0.5s, 3.0s] per seed: {details} of 4")


def test_criterion_13_cli_determinism(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(MINIMAL_CONFIG)

    def rerun_identical(name, args, out_dir):
        rc1, _, err1 = run_cli(args)
        assert rc1 == 0, f"{name}: {err1}"
        first = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        rc2, _, err2 = run_cli(args)
        assert rc2 == 0, f"{name}: {err2}"
        second = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return first == second

    sim = tmp_path / "sim"
    ok = rerun_identical("simulate", ["simulate", "--config", cfg, "--motion", "walk",
                                      "--defense", "on", "--duration", "3", "--seed", "7",
                                      "--out", sim], sim)
    atk = tmp_path / "atk"
    ok &= rerun_identical("attack", ["attack", "--reference", sim / "observation.csv",
                                     "--motion", sim / "observation.csv", "--C", "11",
                                     "--out", atk], atk)
    cov = tmp_path / "cov"
    ok &= rerun_identical("coverage", ["coverage", "--config", cfg, "--grid", "2x2",
                                       "--defense", "on", "--reference-s", "4",
                                       "--session-s", "3", "--seed", "7", "--out", cov], cov)
    swp = tmp_path / "swp"
    ok &= rerun_identical("sweep", ["sweep", "--config", cfg, "--var", "size",
                                    "--values", "64,256", "--duration", "3", "--seed", "7",
                                    "--out", swp], swp)
    ps = tmp_path / "ps"
    ok &= rerun_identical("paramstudy", ["paramstudy", "--config", cfg, "--R", "0.05",
                                         "--P", "0.6", "--duration", "3", "--seed", "7",
                                         "--out", ps], ps)
    ing = tmp_path / "ing"
    ok &= rerun_identical("ingest", ["ingest", "--trace", sim / "trace.csv",
                                     "--out", ing], ing)
    announce(13, "cli determinism", ok, "six subcommands rerun byte-identical")


def test_criterion_14_io_roundtrip(tmp_path):
    scn = oio.default_scenario(seed=4)
    obs, frames = ex.run_session(scn, True, None, 5.0, keep_frames=True)
    path = tmp_path / "trace.csv"
    oio.export_trace(frames, path, oio.TraceHeader(scn.n_subcarriers, scn.n_rx, scn.n_tx,
                                                   scn.sample_rate))
    back, _ = oio.ingest_trace(path)
    recomputed = sn.observe(back, obs.window_s, scn.sample_rate)
    exact = np.array_equal(recomputed.values, obs.values)
    announce(14, "io round trip", exact,
             f"{len(obs)} observation samples recomputed exactly from the exported trace")
