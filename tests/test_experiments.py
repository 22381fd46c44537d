import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obfusense import channel as ch
from obfusense import experiments as ex
from obfusense import io as oio
from obfusense import irs as ir
from obfusense import sensing as sn

import oracle as orc


def quiet_scenario(seed=3, **kw):
    scn = oio.default_scenario(seed=seed)
    if kw:
        from dataclasses import replace
        scn = replace(scn, **kw)
    return scn


# --- scheduler keywords ----------------------------------------------------

def test_reference_and_selection_misspelled_scheduler_keyword():
    with pytest.raises(TypeError, match="hold_probabilty"):
        ex.reference_and_selection(quiet_scenario(), True, 2.0, hold_probabilty=0.0)


def test_run_session_validates_scheduler_with_defense_off():
    with pytest.raises(ValueError, match="hold_prob"):
        ex.run_session(quiet_scenario(), False, None, 2.0, hold_prob=1.0)


def test_schedule_rejects_over_100_ticks_per_frame(monkeypatch):
    monkeypatch.setattr(ir, "step", lambda state: pytest.fail("scheduler stepped"))
    with pytest.raises(ValueError, match="update_rate must be at most 100 ticks per frame"):
        ex.run_session(quiet_scenario(), True, None, 2.0, update_rate=1e9)
    with pytest.raises(ValueError, match="update_rate"):
        ex._schedule(4, True, np.arange(2) / 70.0, 70.0, ir.SchedulerParams(update_rate=7000.001),
                     None, np.random.default_rng(0))


def test_schedule_accepts_100_ticks_per_frame():
    configs, cfg_index, _ = ex._schedule(4, True, np.arange(2) / 70.0, 70.0,
                                         ir.SchedulerParams(update_rate=7000.0, hold_prob=0.0),
                                         None, np.random.default_rng(0))
    assert configs.shape == (2, 4) and list(cfg_index) == [0, 1]


def test_session_larger_than_memory_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="duration 1e\\+12 s needs"):
            ex.run_session(quiet_scenario(), False, None, 1e12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


# --- Trajectory ------------------------------------------------------------

def test_trajectory_validation():
    with pytest.raises(ValueError):
        ex.Trajectory(waypoints=[(0, 0)])
    with pytest.raises(ValueError):
        ex.Trajectory(waypoints=[(0, 0), (1, 0)], speed=0.0)
    with pytest.raises(ValueError):
        ex.Trajectory(waypoints=[(0, 0), (0, 0)])
    with pytest.raises(ValueError, match="waypoints must be finite"):
        ex.Trajectory(waypoints=[(0, 0), (float("nan"), 1)])
    with pytest.raises(ValueError, match="dwell must be finite"):
        ex.Trajectory(waypoints=[(0, 0), (1, 0)], dwell=float("inf"))


def test_trajectory_pingpong():
    walk = ex.Trajectory(waypoints=[(0.0, 0.0), (2.0, 0.0)], speed=1.0)
    pos, moving = walk.locate(0.0)
    assert np.allclose(pos, [0, 0]) and moving
    pos, _ = walk.locate(1.0)
    assert np.allclose(pos, [1.0, 0.0])
    pos, _ = walk.locate(3.0)  # heading back
    assert np.allclose(pos, [1.0, 0.0])
    pos, _ = walk.locate(4.0)  # full cycle
    assert np.allclose(pos, [0.0, 0.0])


def test_trajectory_dwell():
    walk = ex.Trajectory(waypoints=[(0.0, 0.0), (1.0, 0.0)], speed=1.0, dwell=0.5)
    pos, moving = walk.locate(0.25)
    assert np.allclose(pos, [0, 0]) and not moving
    pos, moving = walk.locate(1.0)
    assert np.allclose(pos, [0.5, 0.0]) and moving
    pos, moving = walk.locate(1.7)
    assert np.allclose(pos, [1.0, 0.0]) and not moving


@st.composite
def trajectories(draw):
    """Polylines of 2 to 5 waypoints on a coarse lattice, with and without dwell."""
    points = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                           min_size=2, max_size=5).filter(
        lambda p: all(a != b for a, b in zip(p, p[1:]))))
    scale = draw(st.sampled_from([1.0, 0.35, 1.7]))
    return ex.Trajectory(waypoints=[(x * scale, y * scale) for x, y in points],
                         speed=draw(st.sampled_from([0.45, 1.0, 1.3, 3.0])),
                         dwell=draw(st.sampled_from([0.0, 0.0, 0.5, 1.25])))


@given(walk=trajectories(), extra=st.lists(st.floats(0.0, 200.0), max_size=20))
def test_positions_match_scalar_locate(walk, extra):
    leg = walk.pass_length / walk.speed
    cycle = 2.0 * (leg + walk.dwell)
    out = walk.dwell + walk._cum / walk.speed  # reaching each waypoint, outbound
    back = 2.0 * walk.dwell + leg + (walk.pass_length - walk._cum) / walk.speed  # and back
    edges = np.concatenate([[walk.dwell, walk.dwell + leg, 2.0 * walk.dwell + leg],
                            out, back, cycle * np.arange(1, 5), out + cycle])
    # each boundary, the time just before it, then arbitrary and frame times
    times = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0), extra, np.arange(140) / 70.0])
    pos, moving = walk.positions(times)
    assert pos.shape == (len(times), 2) and moving.shape == (len(times),)
    for i, t in enumerate(times.tolist()):
        want_pos, want_moving = orc.locate(walk, t)
        assert pos[i].tobytes() == want_pos.tobytes() and moving[i] == want_moving
        got_pos, got_moving = walk.locate(t)
        assert got_pos.tobytes() == want_pos.tobytes() and got_moving is want_moving


@given(rpm=st.floats(0.5, 600.0), gain_db=st.floats(-40.0, 40.0) | st.just(-math.inf),
       times=st.lists(st.floats(0.0, 3600.0), min_size=1, max_size=40))
def test_factors_match_factor(rpm, gain_db, times):
    refl = ex.RotatingReflector(position=(1.0, 2.0), rpm=rpm, peak_scatter_gain_db=gain_db)
    got = refl.factors(times)
    assert got.shape == (len(times),)
    assert got.tobytes() == np.array([refl.factor(t) for t in times]).tobytes()
    # the scalar-math formula, up to the last bits of cos and sin
    want = np.array([orc.reflector_factor(refl, t) for t in times])
    assert np.allclose(got, want, rtol=0.0, atol=4e-16 * 10.0 ** (gain_db / 20.0))


def test_reflector_modulation():
    refl = ex.RotatingReflector(position=(1.0, 1.0), rpm=30.0, peak_scatter_gain_db=0.0)
    assert refl.factor(0.0) == pytest.approx(1.0)
    assert abs(refl.factor(1.0)) == pytest.approx(1.0)  # half turn: |cos(pi)| = 1
    assert abs(refl.factor(0.5)) == pytest.approx(0.0, abs=1e-12)  # quarter turn
    with pytest.raises(ValueError):
        ex.RotatingReflector(position=(0, 0), rpm=0.0)
    with pytest.raises(ValueError, match="rpm must be finite"):
        ex.RotatingReflector(position=(0, 0), rpm=float("nan"))
    with pytest.raises(ValueError, match="position must be finite"):
        ex.RotatingReflector(position=(float("inf"), 0))
    with pytest.raises(ValueError, match="below \\+inf"):
        ex.RotatingReflector(position=(0, 0), peak_scatter_gain_db=float("inf"))
    silent = ex.RotatingReflector(position=(0, 0), peak_scatter_gain_db=float("-inf"))
    assert silent.factor(0.3) == 0


# --- coherence_time --------------------------------------------------------

def test_coherence_time_white_noise():
    rng = np.random.default_rng(0)
    x = rng.normal(size=4000)
    assert ex.coherence_time(x, 70.0) == pytest.approx(1 / 70.0)


def test_coherence_time_slow_cosine():
    fs = 100.0
    period = 8.0
    t = np.arange(0, 64.0, 1 / fs)
    x = np.cos(2 * np.pi * t / period)
    # normalized autocorrelation of a cosine crosses 0.5 at period / 6
    assert ex.coherence_time(x, fs) == pytest.approx(period / 6, rel=0.05)


def test_coherence_time_constant_rejected():
    with pytest.raises(ValueError):
        ex.coherence_time(np.ones(100), 70.0)


def test_coherence_time_bounded_by_duration():
    # mean-removed autocorrelations average negative over lags, so every
    # non-constant series decorrelates eventually; duration is the hard cap
    x = np.linspace(0.0, 1.0, 50)
    out = ex.coherence_time(x, 10.0)
    assert 0 < out <= 5.0


# --- run_session -----------------------------------------------------------

def test_static_noiseless_session_is_zero():
    scn = quiet_scenario(snr_db=float("inf"))
    obs = ex.run_session(scn, False, None, 3.0)
    assert np.array_equal(obs.values, np.zeros(len(obs)))


def test_defense_changes_inside_window_drive_observation():
    scn = quiet_scenario(snr_db=float("inf"))
    obs = ex.run_session(scn, True, None, 6.0, hold_prob=0.0)
    assert np.all(obs.values > 0)  # a change falls inside every window at P_hold = 0

    # with long holds, windows that saw no change sit at the numerical floor,
    # orders of magnitude below any window containing a configuration change
    obs2 = ex.run_session(scn, True, None, 6.0, hold_prob=0.97, stream=4)
    n_w = sn.window_samples(1.0, scn.sample_rate)
    changes = np.zeros(obs2.meta["n_frames"], dtype=bool)
    changes[obs2.meta["irs_change_frames"]] = True
    # a window shows variation only when it straddles a change boundary,
    # i.e. the change lands strictly after the window's first frame
    straddles = np.array([changes[j + 1:j + n_w].any()
                          for j in range(len(changes) - n_w + 1)])
    assert straddles.any() and (~straddles).any()
    scale = np.median(obs2.values[straddles])
    assert obs2.values[~straddles].max() < 1e-6 * scale
    assert np.all(obs2.values[straddles] > 1e-3 * scale)


def test_session_shorter_than_window_rejected():
    scn = quiet_scenario()
    with pytest.raises(ValueError):
        ex.run_session(scn, False, None, 0.5)


def test_defense_without_surface_rejected():
    scn = quiet_scenario()
    from dataclasses import replace
    bare = replace(scn, irs_pos=None, irs_normal=None)
    with pytest.raises(ch.ScenarioError):
        ex.run_session(bare, True, None, 3.0)


def test_session_determinism():
    scn = quiet_scenario()
    a = ex.run_session(scn, True, None, 3.0, stream=1)
    b = ex.run_session(scn, True, None, 3.0, stream=1)
    c = ex.run_session(scn, True, None, 3.0, stream=2)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_paired_streams_share_noise():
    # defense on/off with identical stream ids: noiseless parts differ but the
    # noise draws align, keeping comparisons paired
    scn = quiet_scenario(snr_db=float("inf"))
    off = ex.run_session(scn, False, None, 3.0, stream=7)
    on = ex.run_session(scn, True, None, 3.0, stream=7)
    assert np.array_equal(off.values, np.zeros(len(off)))
    assert np.any(on.values > 0)


def test_walk_session_metadata():
    scn = quiet_scenario()
    walk = ex.Trajectory(waypoints=[(4.0, 2.0), (4.0, 3.5)], speed=1.0)
    obs = ex.run_session(scn, False, walk, 3.0, person_template=ch.PersonState(position=(0, 0)))
    assert obs.meta["person_xy"].shape == (obs.meta["n_frames"], 2)
    assert obs.meta["moving"].all()


# --- scheduler pass --------------------------------------------------------

@given(data=st.data(), n_elements=st.integers(1, 48), n_frames=st.integers(1, 120),
       sample_rate=st.floats(1.0, 100.0), rate_share=st.floats(0.01, 1.0),
       progression_rate=st.floats(0.0, 0.5, exclude_min=True), hold_prob=st.floats(0.0, 0.9),
       defense_on=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_schedule_changes_alternate_rand_and_flip(data, n_elements, n_frames, sample_rate,
                                                  rate_share, progression_rate, hold_prob,
                                                  defense_on, seed):
    # at most one tick per frame, so every executed step starts its own configuration
    active = data.draw(st.none() | st.sets(st.integers(0, n_elements - 1)))
    params = ir.SchedulerParams(progression_rate=progression_rate, hold_prob=hold_prob,
                                update_rate=rate_share * sample_rate)
    times = np.arange(n_frames) / sample_rate
    configs, cfg_index, change_frames = ex._schedule(
        n_elements, defense_on, times, sample_rate, params, active, np.random.default_rng(seed))
    assert len(configs) == 1 + len(change_frames) <= n_frames
    assert cfg_index.shape == (n_frames,)
    on = np.zeros(n_elements, dtype=bool)
    on[list(range(n_elements)) if active is None else sorted(active)] = True
    assert np.all(configs[:, ~on] == configs[0, ~on])  # inactive elements never change
    n_active = int(on.sum())
    for k in range(len(configs) - 1):
        differ = int(np.count_nonzero(configs[k + 1] != configs[k]))
        assert differ == (math.ceil(progression_rate * n_active) if k % 2 == 0 else n_active)


# --- frame engine against the per-frame oracle ------------------------------

def oracle_frames(scn, motion, duration_s, stream, person=None, **scheduler):
    """Noiseless reference frames, one channel_response per frame, with the
    scheduler stepped tick by tick on the session's surface stream."""
    params = ir.SchedulerParams(**scheduler)
    static = orc.records(ch.build_static_paths(scn), scn)
    irsp = orc.records(ch.build_irs_paths(scn, ch.grid_layout(scn)), scn)
    rng = ex._irs_rng(scn, stream)
    state = ir.IrsAlgState(bits=rng.integers(0, 2, size=scn.n_elements, dtype=np.uint8),
                           rng=rng, **params.settings())
    out, tick = [], 1
    for i in range(int(round(duration_s * scn.sample_rate))):
        t = i / scn.sample_rate
        while tick / params.update_rate <= t + 1e-12:
            ir.step(state)
            tick += 1
        if isinstance(motion, ex.Trajectory):
            pos, _ = motion.locate(t)
            here = replace(person, position=(float(pos[0]), float(pos[1])))
            out.append(orc.channel_response(static, irsp, state.bits, here, scn, i).values)
        else:
            unit = orc.path_response(orc.scatter_path(scn, motion.position, 1.0), scn)
            out.append(orc.channel_response(static, irsp, state.bits, None, scn, i).values
                       + motion.factor(t) * unit)
    return np.array(out)


@pytest.mark.parametrize("kind", ["walk", "reflector"])
def test_defended_session_matches_per_frame_oracle(kind):
    scn = quiet_scenario(snr_db=float("inf"))
    person = ch.PersonState(position=(0.0, 0.0))
    motion = (ex.Trajectory(waypoints=[(4.0, 2.15), (4.0, 3.35)], speed=0.45) if kind == "walk"
              else ex.RotatingReflector(position=(3.75, 2.75)))
    _, got = ex.run_session(scn, True, motion, 1.5, stream=2, person_template=person,
                            keep_frames=True, hold_prob=0.0)
    want = oracle_frames(scn, motion, 1.5, 2, person, hold_prob=0.0)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=1e-18)


WALK = ex.Trajectory(waypoints=[(4.0, 2.15), (4.0, 3.35)], speed=0.45)


def test_chunked_noise_matches_per_frame_draws():
    # a session longer than one engine chunk draws the same noise stream as
    # one (real, imaginary) pair of draws per frame; the walk and the reflector
    # run more chunks than the noise ring has buffers, the last one partial
    scn = quiet_scenario(snr_db=20.0)
    for motion, n_frames in [(None, ex.FRAME_CHUNK + 60), (WALK, 3 * ex.FRAME_CHUNK + 5),
                             (ex.RotatingReflector(position=(3.75, 2.75)), 3 * ex.FRAME_CHUNK + 5)]:
        duration = n_frames / scn.sample_rate
        _, noisy = ex.run_session(scn, True, motion, duration, stream=5, keep_frames=True)
        _, clean = ex.run_session(replace(scn, snr_db=float("inf")), True, motion, duration,
                                  stream=5, keep_frames=True)
        assert noisy.shape[0] > ex.FRAME_CHUNK
        sigma = ch.FrameSimulator(scn).noise_std / math.sqrt(2.0)
        rng = ex._noise_rng(scn, 5)
        shape = noisy.shape[1:]
        draws = np.array([sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                          for _ in range(noisy.shape[0])])
        assert np.array_equal(noisy, clean + draws)


def test_noise_worker_joined_after_session():
    before = threading.active_count()
    ex.run_session(quiet_scenario(), True, WALK, 3.0, stream=1)
    assert threading.active_count() == before


def test_noise_worker_joined_when_synthesis_raises():
    # the walk starts on the anchor, so the first chunk's scatter path is degenerate
    scn = quiet_scenario()
    walk = ex.Trajectory(waypoints=[scn.anchor_pos, (4.0, 2.75)])
    before = threading.active_count()
    with pytest.raises(ch.ScenarioError, match="scatter point coincides with an endpoint"):
        ex.run_session(scn, True, walk, 3.0)
    assert threading.active_count() == before


def test_noise_worker_error_reaches_caller(monkeypatch):
    raised = []

    def fail(self, rng, out):
        raised.append(RuntimeError("noise draw failed"))
        raise raised[-1]

    monkeypatch.setattr(ch.FrameSimulator, "noise", fail)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="noise draw failed") as err:
        ex.run_session(quiet_scenario(), True, WALK, 3.0)
    assert err.value is raised[0]
    assert threading.active_count() == before


def test_noiseless_session_draws_no_noise(monkeypatch):
    calls = []
    monkeypatch.setattr(ch.FrameSimulator, "noise", lambda self, rng, out: calls.append(1))
    ex.run_session(quiet_scenario(snr_db=float("inf")), True, WALK, 3.0)
    assert calls == []


# --- sweeps ----------------------------------------------------------------

def test_sweep_size_zero_elements_noiseless():
    scn = quiet_scenario(snr_db=float("inf"))
    res = ex.sweep(scn, "size", [0], session_s=3.0)
    assert res.cells[0].median == 0.0


def test_sweep_size_full_count_equals_plain_session():
    scn = quiet_scenario()
    res = ex.sweep(scn, "size", [256], session_s=3.0, stream=5)
    plain = ex.run_session(scn, True, None, 3.0, stream=5)
    assert res.cells[0].median == np.median(plain.values)
    assert res.cells[0].threshold == sn.calibrate_threshold(plain, 11.0)


def test_sweep_cells_ordered_percentiles():
    scn = quiet_scenario()
    res = ex.sweep(scn, "size", [64, 128], session_s=3.0)
    for cell in res.cells:
        assert cell.p01 <= cell.median <= cell.p99


def test_sweep_distance_single_value():
    scn = quiet_scenario()
    res = ex.sweep(scn, "distance", [0.3], session_s=3.0)
    assert len(res.cells) == 1
    assert res.sweep_var == "distance_m"


def test_sweep_distance_outside_room_rejected():
    scn = quiet_scenario()
    with pytest.raises(ch.ScenarioError):
        ex.sweep(scn, "distance", [50.0], session_s=3.0)


def test_sweep_unknown_variable_rejected():
    with pytest.raises(ValueError, match="sweep variable must be one of size, distance, "
                                         "orientation, got 'height'"):
        ex.sweep(quiet_scenario(), "height", [1.0], session_s=3.0)


def test_irs_gain_halves_when_leg_product_doubles():
    # scaling the whole geometry by sqrt(2) doubles d1*d2 while keeping every
    # obliquity cosine, so the product path loss halves the element gain
    s = np.sqrt(2.0)
    base = dict(room=[], n_tx=1, n_rx=1, snr_db=float("inf"), seed=1)
    s1 = ch.Scenario(anchor_pos=(0.0, 0.0), eve_pos=(6.0, 0.0),
                     irs_pos=(1.0, 1.0), irs_normal=(0.0, -1.0), **base)
    s2 = ch.Scenario(anchor_pos=(0.0, 0.0), eve_pos=(6.0 * s, 0.0),
                     irs_pos=(s, s), irs_normal=(0.0, -1.0), **base)
    g1 = orc.records(ch.build_irs_paths(s1, ch.IrsLayout(np.array([[1.0, 1.0]]), np.zeros(1))),
                     s1)[0]
    g2 = orc.records(ch.build_irs_paths(s2, ch.IrsLayout(np.array([[s, s]]), np.zeros(1))), s2)[0]
    assert abs(g1.base_gain) == pytest.approx(2.0 * abs(g2.base_gain), rel=1e-12)


def test_sweep_orientation_empty():
    scn = quiet_scenario()
    res = ex.sweep(scn, "orientation", [], session_s=3.0)
    assert res.cells == []


def test_sweep_orientation_front_beats_back():
    scn = quiet_scenario()
    res = ex.sweep(scn, "orientation", [0.0, 180.0], session_s=10.0)
    assert res.cells[0].median >= res.cells[1].median
    assert res.cells[1].median > 0.0


# --- parameter study -------------------------------------------------------

def test_parameter_study_grid():
    scn = quiet_scenario()
    cells = ex.parameter_study(scn, [0.05], [0.0, 0.6], 6.0)
    assert len(cells) == 2
    assert all(c.median >= 0 and c.mad >= 0 and c.euclidean_norm >= 0 for c in cells)


def test_parameter_study_rare_changes_shrink_observation():
    scn = quiet_scenario()
    cells = ex.parameter_study(scn, [0.05], [0.4, 0.99], 10.0)
    assert cells[1].median < cells[0].median
    assert cells[1].euclidean_norm < cells[0].euclidean_norm


def test_parameter_study_zero_length_rejected():
    scn = quiet_scenario()
    with pytest.raises(ValueError):
        ex.parameter_study(scn, [0.05], [0.4], 0.0)
    with pytest.raises(ValueError):
        ex.parameter_study(scn, [], [0.4], 6.0)


# --- coverage grid ---------------------------------------------------------

def test_coverage_grid_shapes_and_rates():
    scn = quiet_scenario()
    grid = ex.coverage_grid_positions(scn, 2, 2)
    assert grid.shape == (4, 2)
    result = ex.run_coverage_grid(scn, grid, False, reference_s=4.0, session_s=3.0)
    assert result.rates.shape == (4,)
    assert np.all((result.rates >= 0) & (result.rates <= 1))
    assert np.all((result.rates_maxref >= 0) & (result.rates_maxref <= 1))


def test_coverage_grid_bounded_by_physical_memory(monkeypatch):
    scn = quiet_scenario()
    need = 8 * 3 * 2 * 4200  # cells x frames of a 60 s session at 70 Hz x float64
    monkeypatch.setattr(ch, "_physical_memory", lambda: float(need))
    assert ex.coverage_grid_positions(scn, 3, 2, session_s=60.0).shape == (6, 2)
    monkeypatch.setattr(ch, "_physical_memory", lambda: float(need - 1))
    with pytest.raises(ValueError, match=r"^grid 3x2 of 60 s sessions needs"):
        ex.coverage_grid_positions(scn, 3, 2, session_s=60.0)
    assert ex.coverage_grid_positions(scn, 3, 2, session_s=59.99).shape == (6, 2)


def test_coverage_grid_empty_rejected():
    scn = quiet_scenario()
    with pytest.raises(ValueError):
        ex.run_coverage_grid(scn, [], False)


@pytest.mark.parametrize("cpus, want", [(8, 3), (2, 2)])
def test_coverage_pool_size_clamped(monkeypatch, cpus, want):
    """The pool gets min(jobs, cells, CPUs) workers; a stand-in pool runs cells in-process."""
    import concurrent.futures
    import os

    seen = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            seen.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(ex, "_worker_sim", None)  # the in-process initializer sets it
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    grid = [(3.0, 2.0), (4.0, 2.0), (5.0, 2.0)]
    ex.run_coverage_grid(quiet_scenario(), grid, False, reference_s=1.5, session_s=1.5, jobs=64)
    assert seen == [want]


def test_coverage_real_pool_matches_in_process(monkeypatch):
    """Two worker processes, each handed the reference's simulator, give the
    result of running the cells in-process."""
    import concurrent.futures
    import os

    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    scn, grid = quiet_scenario(), [(3.75, 2.75), (6.8, 4.9)]
    serial = ex.run_coverage_grid(scn, grid, False, reference_s=3.0, session_s=3.0, jobs=1)
    pooled = ex.run_coverage_grid(scn, grid, False, reference_s=3.0, session_s=3.0, jobs=2)
    assert started == [2]
    assert 0.0 < serial.rates_maxref.max() and serial.rates_maxref.min() < 1.0
    for name in ("positions", "rates", "rates_maxref"):
        assert np.array_equal(getattr(pooled, name), getattr(serial, name)), name
    for name in ("threshold", "threshold_maxref", "c", "meta"):
        assert getattr(pooled, name) == getattr(serial, name), name


def test_coverage_silent_reflector_never_detected():
    scn = quiet_scenario()
    grid = [(3.75, 2.75), (2.0, 4.0)]
    result = ex.run_coverage_grid(scn, grid, False, reference_s=6.0, session_s=5.0,
                                  reflector_gain_db=float("-inf"))
    assert np.array_equal(result.rates, np.zeros(2))


def test_coverage_on_los_detected_off_los_not():
    scn = quiet_scenario()
    result = ex.run_coverage_grid(scn, [(3.75, 2.75), (6.8, 4.9)], False,
                                  reference_s=20.0, session_s=15.0)
    assert result.rates[0] > 0.9
    assert result.rates[1] < 0.1


def test_coverage_defense_reduces_rates():
    scn = quiet_scenario()
    grid = [(3.75, 2.75), (2.5, 2.2)]
    off = ex.run_coverage_grid(scn, grid, False, reference_s=15.0, session_s=10.0)
    on = ex.run_coverage_grid(scn, grid, True, reference_s=15.0, session_s=10.0)
    assert np.all(on.rates <= off.rates)


# --- helpers ---------------------------------------------------------------

def test_blocked_flags_and_window_any():
    scn = quiet_scenario()
    positions = np.array([[4.0, 2.75], [4.0, 2.80], [4.0, 5.0]])
    flags = orc.blocked_flags(scn, positions, 0.4)
    assert flags.tolist() == [True, True, False]
    assert orc.window_any(np.array([False, True, False, False]), 2).tolist() == [True, True, False]


def test_coverage_pool_sends_the_simulator_once_per_worker(monkeypatch):
    """Cells carry only their own arguments: with more cells than workers the
    simulator is still pickled at most once per worker."""
    import os

    pickled = []
    reduce_ex = ch.FrameSimulator.__reduce_ex__

    def counting_reduce_ex(self, protocol):
        pickled.append(protocol)
        return reduce_ex(self, protocol)

    monkeypatch.setattr(ch.FrameSimulator, "__reduce_ex__", counting_reduce_ex)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    grid = [(3.0, 2.0), (4.0, 2.0), (5.0, 2.0), (6.0, 2.0)]
    result = ex.run_coverage_grid(quiet_scenario(), grid, False, reference_s=1.5,
                                  session_s=1.5, jobs=2)
    assert result.rates.shape == (4,)
    assert len(pickled) <= 2
