import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obfusense import channel as ch
from obfusense import cli
from obfusense import experiments as ex
from obfusense import io as oio
from obfusense import irs as ir
from obfusense import sensing as sn

import oracle as orc
from conftest import SRC


def quiet_scenario(seed=3, **kw):
    scn = oio.default_scenario(seed=seed)
    if kw:
        from dataclasses import replace
        scn = replace(scn, **kw)
    return scn


def with_frames(run, *args, **kw):
    """(run(*args, sink=..., **kw), the complex frames its sink got, joined in frame order)."""
    chunks = []
    result = run(*args, sink=lambda h: chunks.append(h.copy()), **kw)
    return result, np.concatenate(chunks)


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


@pytest.mark.parametrize("sink", [None, lambda h: None], ids=["no_sink", "sink"])
def test_selected_session_memory_guard_counts_h_once(monkeypatch, sink):
    """With n_select = k < K the session holds the full band's |H| once, with or without a sink:
    the guard rejects it just below those bytes, before any frame, and it runs at 1.25 times
    them."""
    scn = quiet_scenario()
    sim = ch.FrameSimulator(scn)  # built first: its surface check needs more than the session
    k = scn.n_subcarriers // 2
    holds = 2 * 70 * scn.n_subcarriers * scn.n_rx * scn.n_tx * 8
    with monkeypatch.context() as m:
        m.setattr(ch, "_physical_memory", lambda: 0.999 * holds)
        m.setattr(ch.FrameSimulator, "frame",
                  lambda *a, **kw: pytest.fail("a frame was synthesised"))
        with pytest.raises(ValueError, match=r"^duration 2 s needs"):
            ex.session(scn, False, None, 2.0, n_select=k, sink=sink, simulator=sim)
    monkeypatch.setattr(ch, "_physical_memory", lambda: 1.25 * holds)
    rec = ex.session(scn, False, None, 2.0, n_select=k, sink=sink, simulator=sim)
    assert len(rec.subcarriers) == k and len(rec.observation) == 140 - 70 + 1


def test_selected_reference_holds_h_once():
    """A 60 s reference that selects 28 of 56 subcarriers, on a simulator built beforehand,
    peaks under 23 MiB: its 16.2 MiB of full-band |H|, within which the selection moves, plus
    the noise ring and the sensing scratch (25.0 MiB when the selection was a copy)."""
    scn = quiet_scenario()
    sim = ch.FrameSimulator(scn)
    tracemalloc.start()
    try:
        ex.reference_and_selection(scn, False, 60.0, n_select=28, simulator=sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 23 * 2 ** 20


def test_unselected_session_guard_counts_its_frames_not_h(monkeypatch):
    """Without n_select a session holds no |H|: memory for half its |H| runs it, and memory
    just below its per-frame arrays rejects it before any frame."""
    scn = quiet_scenario()
    sim = ch.FrameSimulator(scn)
    monkeypatch.setattr(ch, "_physical_memory",
                        lambda: 0.5 * 140 * scn.n_subcarriers * scn.n_rx * scn.n_tx * 8)
    assert len(ex.session(scn, True, WALK, 2.0, simulator=sim).observation) == 140 - 70 + 1
    monkeypatch.setattr(ch, "_physical_memory", lambda: 0.999 * 140 * ex._FRAME_BYTES)
    monkeypatch.setattr(ch.FrameSimulator, "frame",
                        lambda *a, **kw: pytest.fail("a frame was synthesised"))
    with pytest.raises(ValueError, match=r"^duration 2 s needs"):
        ex.session(scn, True, WALK, 2.0, simulator=sim)


@pytest.mark.parametrize("kind", ["reflector_28", "walk_full_band"])
def test_session_memory_is_a_few_chunks_not_the_session(kind):
    """A 60 s defended reflector cell at 28 subcarriers and a 60 s defended full-band walk, each
    on a simulator built beforehand, peak under 7 MiB: the noise ring, one chunk and the
    observer's block, not |H| (12.9 and 19.8 MiB when every session held it)."""
    scn = quiet_scenario(seed=1)
    sim = ch.FrameSimulator(scn)
    motion, subs = ((ch.RotatingReflector(position=(3.75, 2.75)), list(range(0, 56, 2)))
                    if kind == "reflector_28" else (WALK, None))
    tracemalloc.start()
    try:
        ex.run_session(scn, True, motion, 60.0, subcarriers=subs, stream=1, simulator=sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2 ** 20


# --- Trajectory ------------------------------------------------------------

def test_trajectory_validation():
    with pytest.raises(ValueError):
        ch.Trajectory(waypoints=[(0, 0)])
    with pytest.raises(ValueError):
        ch.Trajectory(waypoints=[(0, 0), (1, 0)], speed=0.0)
    with pytest.raises(ValueError):
        ch.Trajectory(waypoints=[(0, 0), (0, 0)])
    with pytest.raises(ValueError, match="waypoints must be finite"):
        ch.Trajectory(waypoints=[(0, 0), (float("nan"), 1)])
    with pytest.raises(ValueError, match="dwell must be finite"):
        ch.Trajectory(waypoints=[(0, 0), (1, 0)], dwell=float("inf"))


def test_trajectory_pingpong():
    walk = ch.Trajectory(waypoints=[(0.0, 0.0), (2.0, 0.0)], speed=1.0)
    pos, moving = walk.positions([0.0, 1.0, 3.0, 4.0])  # 3.0 heading back, 4.0 a full cycle
    assert np.allclose(pos, [[0, 0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]) and moving[0]


def test_trajectory_dwell():
    walk = ch.Trajectory(waypoints=[(0.0, 0.0), (1.0, 0.0)], speed=1.0, dwell=0.5)
    pos, moving = walk.positions([0.25, 1.0, 1.7])
    assert np.allclose(pos, [[0, 0], [0.5, 0.0], [1.0, 0.0]])
    assert moving.tolist() == [False, True, False]


@st.composite
def trajectories(draw):
    """Polylines of 2 to 5 waypoints on a coarse lattice, with and without dwell."""
    points = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                           min_size=2, max_size=5).filter(
        lambda p: all(a != b for a, b in zip(p, p[1:]))))
    scale = draw(st.sampled_from([1.0, 0.35, 1.7]))
    return ch.Trajectory(waypoints=[(x * scale, y * scale) for x, y in points],
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
        got_pos, got_moving = walk.positions([t])
        assert got_pos[0].tobytes() == want_pos.tobytes() and bool(got_moving[0]) is want_moving


@given(rpm=st.floats(0.5, 600.0), gain_db=st.floats(-40.0, 40.0) | st.just(-math.inf),
       times=st.lists(st.floats(0.0, 3600.0), min_size=1, max_size=40))
def test_factors_match_factor(rpm, gain_db, times):
    refl = ch.RotatingReflector(position=(1.0, 2.0), rpm=rpm, peak_scatter_gain_db=gain_db)
    got = refl.factors(times)
    assert got.shape == (len(times),)
    assert got.tobytes() == np.array([refl.factors([t])[0] for t in times]).tobytes()
    # the scalar-math formula, up to the last bits of cos and sin
    want = np.array([orc.reflector_factor(refl, t) for t in times])
    assert np.allclose(got, want, rtol=0.0, atol=4e-16 * 10.0 ** (gain_db / 20.0))


def test_reflector_modulation():
    refl = ch.RotatingReflector(position=(1.0, 1.0), rpm=30.0, peak_scatter_gain_db=0.0)
    start, half, quarter = refl.factors([0.0, 1.0, 0.5])
    assert start == pytest.approx(1.0)
    assert abs(half) == pytest.approx(1.0)  # half turn: |cos(pi)| = 1
    assert abs(quarter) == pytest.approx(0.0, abs=1e-12)  # quarter turn
    with pytest.raises(ValueError):
        ch.RotatingReflector(position=(0, 0), rpm=0.0)
    with pytest.raises(ValueError, match="rpm must be finite"):
        ch.RotatingReflector(position=(0, 0), rpm=float("nan"))
    with pytest.raises(ValueError, match="position must be finite"):
        ch.RotatingReflector(position=(float("inf"), 0))
    with pytest.raises(ValueError, match="below \\+inf"):
        ch.RotatingReflector(position=(0, 0), peak_scatter_gain_db=float("inf"))
    silent = ch.RotatingReflector(position=(0, 0), peak_scatter_gain_db=float("-inf"))
    assert silent.factors([0.3])[0] == 0


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


SESSIONS = {
    "run_session": lambda scn, s, w, **kw: ex.run_session(scn, True, None, s, window_s=w, **kw),
    "reference_and_selection": lambda scn, s, w, **kw: ex.reference_and_selection(
        scn, True, s, window_s=w, **kw),
    "parameter_study": lambda scn, s, w, **kw: ex.parameter_study(
        scn, [0.05], [0.0, 0.6], s, window_s=w, **kw),
    "sweep_size": lambda scn, s, w, **kw: ex.sweep(
        scn, "size", [64, 256], session_s=s, window_s=w, **kw),
    "sweep_distance": lambda scn, s, w, **kw: ex.sweep(
        scn, "distance", [0.3, 0.6], session_s=s, window_s=w, **kw),
    "run_coverage_grid": lambda scn, s, w, **kw: ex.run_coverage_grid(
        scn, [(3.0, 2.0)], True, reference_s=s, session_s=s, window_s=w, **kw),
}
STREAMED = [s for s in SESSIONS if s != "run_coverage_grid"]
CHECKED = [  # (id, sessions, duration_s, window_s, session and "scenario" keywords, message)
    ("window", SESSIONS, 20.0, 0.01, {}, r"^window_s 0.01 s gives n_w = 1 at sample_rate 70"),
    ("duration", SESSIONS, math.inf, 1.0, {}, r"^duration_s must be finite and > 0, got inf"),
    ("short", SESSIONS, 0.5, 1.0, {}, r"^session shorter than the observation window"),
    ("huge_window", SESSIONS, 20.0, 1e308, {}, r"^session shorter than the observation window"),
    ("n_select", ["reference_and_selection", "run_coverage_grid"], 3.0, 1.0, {"n_select": 0},
     r"^k=0 out of range for 56 subcarriers$"),
    ("stream", STREAMED, 3.0, 1.0, {"stream": -1}, r"^stream must be an integer >= 0, got -1$"),
    ("fractional_stream", STREAMED, 3.0, 1.0, {"stream": 1.5},
     r"^stream must be an integer >= 0, got 1.5$"),
    ("update_rate", SESSIONS, 3.0, 1.0, {"update_rate": 1e9},
     r"^update_rate must be at most 100 ticks per frame"),
    ("no_surface", ["run_session", "reference_and_selection", "parameter_study",
                    "run_coverage_grid"], 3.0, 1.0,
     {"scenario": {"irs_pos": None, "irs_normal": None}}, r"^defense requested"),
]


@pytest.mark.parametrize("session, duration_s, window_s, keywords, message", [
    pytest.param(s, d, w, kw, m, id=f"{i}-{s}") for i, sessions, d, w, kw, m in CHECKED
    for s in sessions])
def test_session_inputs_checked_before_synthesis(monkeypatch, session, duration_s, window_s,
                                                 keywords, message):
    monkeypatch.setattr(ch.FrameSimulator, "__init__",
                        lambda *a, **kw: pytest.fail("a simulator was built"))
    monkeypatch.setattr(ch.FrameSimulator, "frame",
                        lambda *a, **kw: pytest.fail("a frame was synthesised"))
    keywords = dict(keywords)
    scn = quiet_scenario(**keywords.pop("scenario", {}))
    with pytest.raises(ValueError, match=message):
        SESSIONS[session](scn, duration_s, window_s, **keywords)


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
    walk = ch.Trajectory(waypoints=[(4.0, 2.0), (4.0, 3.5)], speed=1.0)
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
        if isinstance(motion, ch.Trajectory):
            pos = motion.positions([t])[0][0]
            here = replace(person, position=(float(pos[0]), float(pos[1])))
            out.append(orc.channel_response(static, irsp, state.bits, here, scn, i).values)
        else:
            unit = orc.path_response(orc.scatter_path(scn, motion.position, 1.0), scn)
            out.append(orc.channel_response(static, irsp, state.bits, None, scn, i).values
                       + motion.factors([t])[0] * unit)
    return np.array(out)


@pytest.mark.parametrize("kind", ["walk", "reflector"])
def test_defended_session_matches_per_frame_oracle(kind):
    scn = quiet_scenario(snr_db=float("inf"))
    person = ch.PersonState(position=(0.0, 0.0))
    motion = (ch.Trajectory(waypoints=[(4.0, 2.15), (4.0, 3.35)], speed=0.45) if kind == "walk"
              else ch.RotatingReflector(position=(3.75, 2.75)))
    _, got = with_frames(ex.run_session, scn, True, motion, 1.5, stream=2,
                         person_template=person, hold_prob=0.0)
    want = oracle_frames(scn, motion, 1.5, 2, person, hold_prob=0.0)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=1e-18)


WALK = ch.Trajectory(waypoints=[(4.0, 2.15), (4.0, 3.35)], speed=0.45)


def test_chunked_noise_matches_per_frame_draws():
    # a session longer than one engine chunk draws the same noise stream as
    # one (real, imaginary) pair of draws per frame; the walk and the reflector
    # run more chunks than the noise ring has buffers, the last one partial
    scn = quiet_scenario(snr_db=20.0)
    for motion, n_frames in [(None, ex.FRAME_CHUNK + 60), (WALK, 3 * ex.FRAME_CHUNK + 5),
                             (ch.RotatingReflector(position=(3.75, 2.75)), 3 * ex.FRAME_CHUNK + 5)]:
        duration = n_frames / scn.sample_rate
        _, noisy = with_frames(ex.run_session, scn, True, motion, duration, stream=5)
        _, clean = with_frames(ex.run_session, replace(scn, snr_db=float("inf")), True, motion,
                               duration, stream=5)
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
    walk = ch.Trajectory(waypoints=[scn.anchor_pos, (4.0, 2.75)])
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


# --- sessions restricted to the eavesdropper's subcarriers -------------------

# Unsorted subsets with both band edges. The engine pads every surface product to a
# multiple of 8 real columns, so both subsets are held to the full band's bytes.
SUBS_28 = [int(k) for k in np.random.default_rng(4).permutation(56)[:28]]
SUBS_6 = [40, 3, 17, 55, 0, 22]


@pytest.mark.parametrize("motion", [None, WALK, ch.RotatingReflector(position=(3.75, 2.75))],
                         ids=["none", "walk", "reflector"])
@pytest.mark.parametrize("defense", [False, True])
def test_restricted_session_matches_full_band(motion, defense):
    # noisy, three full chunks and a partial one: every value as the full band's
    scn = quiet_scenario(snr_db=20.0)
    sim = ch.FrameSimulator(scn)
    n_frames = 3 * ex.FRAME_CHUNK + 5
    duration = n_frames / scn.sample_rate
    kw = dict(stream=5, person_template=None, active_elements=None, simulator=sim)
    _, full_frames = with_frames(ex.session, scn, defense, motion, duration, **kw)
    full = np.abs(full_frames)
    def same(a, b):
        return a.tobytes() == b.tobytes()

    for subs in (SUBS_28, SUBS_6):
        _, frames = with_frames(ex.session, scn, defense, motion, duration, subcarriers=subs,
                                **kw)
        mags = np.abs(frames)
        assert mags.shape == frames.shape == (n_frames, len(subs), 3, 3)
        assert same(mags, full[:, subs])
        assert same(frames, full_frames[:, subs])
        obs = ex.run_session(scn, defense, motion, duration, subcarriers=subs, stream=5,
                             simulator=sim)
        want = sn.observe(full[:, subs], 1.0, scn.sample_rate)
        assert same(obs.values, want.values)
        assert obs.meta["subcarriers"] == subs


def test_restricted_walk_synthesises_only_its_subcarriers(monkeypatch):
    # every scatter tensor and every surface product of the session is len(subs) wide
    widths = []
    scatter_tensors, frame = ch.scatter_tensors, ch.FrameSimulator.frame

    def recorded_scatter(*args, **kw):
        unit = scatter_tensors(*args, **kw)
        widths.append(unit.shape[1])
        return unit

    def recorded_frames(self, *args, **kw):
        widths.append(self._g_irs.shape[1] // (2 * 9))
        widths.append(self._g_env.shape[1] // (2 * 9))
        return frame(self, *args, **kw)

    monkeypatch.setattr(ch, "scatter_tensors", recorded_scatter)
    monkeypatch.setattr(ch.FrameSimulator, "frame", recorded_frames)
    scn = quiet_scenario()
    subs = list(range(0, 56, 2))
    ex.run_session(scn, True, WALK, 2 * ex.FRAME_CHUNK / scn.sample_rate, subcarriers=subs,
                   person_template=ch.PersonState(position=(0.0, 0.0)))
    assert len(widths) == 6 and set(widths) == {len(subs)}


@pytest.mark.parametrize("subs, message", [
    ([-1, 0], "subcarrier -1 is not a distinct integer in \\[0, 56\\)"),
    ([55, 55], "subcarrier 55 is not a distinct integer"),
    ([1.7], "subcarrier 1.7 is not a distinct integer"),
    ([56], "subcarrier 56 is not a distinct integer in \\[0, 56\\)"),
    ([], "subcarriers must name at least one subcarrier"),
], ids=["negative", "repeated", "float", "past_end", "empty"])
def test_run_session_rejects_bad_subcarriers_before_synthesis(monkeypatch, subs, message):
    monkeypatch.setattr(ex, "FrameSimulator", lambda *a, **kw: pytest.fail("synthesised"))
    with pytest.raises(ValueError, match=message):
        ex.run_session(quiet_scenario(), True, WALK, 2.0, subcarriers=subs)


def test_every_subset_width_matches_full_band_bit_for_bit():
    # a random unsorted subset of each width 1..56, with and without a person's blocking
    scn = quiet_scenario(snr_db=20.0)
    sim = ch.FrameSimulator(scn)
    rng = np.random.default_rng(8)
    for motion in (None, WALK):
        _, full_frames = with_frames(ex.session, scn, True, motion, 1.0, stream=3,
                                     simulator=sim)
        for width in range(1, 57):
            subs = [int(k) for k in rng.permutation(56)[:width]]
            rec, frames = with_frames(ex.session, scn, True, motion, 1.0, subcarriers=subs,
                                      stream=3, simulator=sim)
            assert frames.tobytes() == full_frames[:, subs].tobytes(), (motion, subs)
            want = sn.observe(full_frames[:, subs], 1.0, scn.sample_rate)
            assert rec.observation.values.tobytes() == want.values.tobytes(), (motion, subs)


# The child runs a defended 2 s walk restricted to SUBS_6 and a full-band one with
# 30 subcarriers, and prints the sha256 of each session's frames.
_THREADS_CHILD = """
import hashlib
from dataclasses import replace
from obfusense import channel, experiments, io
scn = io.default_scenario(seed=3)
walk = channel.Trajectory(waypoints=[(4.0, 2.15), (4.0, 3.35)], speed=0.45)
for s, subs in [(scn, %r), (replace(scn, n_subcarriers=30), None)]:
    digest = hashlib.sha256()
    experiments.run_session(s, True, walk, 2.0, subcarriers=subs,
                            sink=lambda h: digest.update(h.tobytes()))
    print(digest.hexdigest())
""" % SUBS_6


def test_frames_identical_at_one_and_two_blas_threads():
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _THREADS_CHILD], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.split())
    assert len(hashes[0]) == 2 and hashes[0] == hashes[1]


# --- the session record -------------------------------------------------------

def test_session_record_schedule_matches_change_frames():
    scn = quiet_scenario()
    rec = ex.session(scn, True, WALK, 6.0, stream=2, hold_prob=0.5)
    n = rec.observation.meta["n_frames"]
    assert rec.times.shape == rec.cfg_index.shape == (n,)
    assert np.array_equal(rec.times, np.arange(n) / scn.sample_rate)
    per_frame = rec.configs[rec.cfg_index]
    changed = np.flatnonzero(np.any(per_frame[1:] != per_frame[:-1], axis=1)) + 1
    assert len(rec.change_frames) > 0
    assert list(changed) == rec.change_frames == rec.observation.meta["irs_change_frames"]
    assert rec.person_xy.shape == (n, 2) and rec.moving.shape == (n,)
    assert rec.person_xy is rec.observation.meta["person_xy"]
    assert rec.subcarriers == list(range(scn.n_subcarriers))
    assert len(rec.observation) == n - 70 + 1
    assert "subcarriers" not in rec.observation.meta


def test_session_record_without_motion_has_no_person():
    rec = ex.session(quiet_scenario(), False, None, 2.0)
    assert rec.person_xy is None and rec.moving is None
    assert rec.change_frames == [] and len(rec.configs) == 1


@pytest.mark.parametrize("subs", [None, SUBS_6], ids=["full", "subset"])
def test_session_record_frames_give_observation_bit_for_bit(subs):
    scn = quiet_scenario()
    rec, frames = with_frames(ex.session, scn, True, WALK, 2.0, subcarriers=subs)
    assert frames.shape == (140, len(rec.subcarriers), 3, 3)
    want = sn.observe(frames, 1.0, scn.sample_rate)
    assert rec.observation.values.tobytes() == want.values.tobytes()
    if subs is not None:
        assert rec.subcarriers == subs == rec.observation.meta["subcarriers"]


@pytest.mark.parametrize("n_select", [1, 28, 55])
def test_selected_session_is_the_full_band_at_its_subcarriers(n_select):
    """n_select feeds the observer the selected columns of the session's full-band |H|, 64
    frames at a time: the observation equals the full band's at those subcarriers, to the bit,
    over three full chunks and a partial one. The sink gets the full band, as synthesised."""
    scn = quiet_scenario(snr_db=20.0)
    sim = ch.FrameSimulator(scn)
    duration = (3 * ex.FRAME_CHUNK + 5) / scn.sample_rate
    kw = dict(stream=4, simulator=sim)
    _, full_frames = with_frames(ex.session, scn, True, None, duration, **kw)
    rec, frames = with_frames(ex.session, scn, True, None, duration, n_select=n_select, **kw)
    subs = rec.subcarriers
    full = np.abs(full_frames)
    assert subs == sn.select_subcarriers(full, n_select) and len(subs) == n_select
    assert frames.shape == full_frames.shape  # the full band
    assert frames[:, subs].tobytes() == full_frames[:, subs].tobytes()
    want = sn.observe(full[:, subs], 1.0, scn.sample_rate)
    assert rec.observation.values.tobytes() == want.values.tobytes()


def test_session_n_select_equals_reference_and_selection():
    scn = quiet_scenario()
    rec = ex.session(scn, True, None, 3.0, n_select=28, stream=1)
    obs, subs = ex.reference_and_selection(scn, True, 3.0, n_select=28, stream=1)
    assert rec.subcarriers == subs and len(subs) == 28
    assert rec.observation.values.tobytes() == obs.values.tobytes()
    assert rec.observation.meta == obs.meta


def test_wrappers_call_session_once_and_not_each_other(monkeypatch):
    calls = []
    session = ex.session

    def counted(*args, **kw):
        calls.append(kw.get("n_select"))
        return session(*args, **kw)

    monkeypatch.setattr(ex, "session", counted)
    monkeypatch.setattr(ex, "run_session", lambda *a, **kw: pytest.fail("run_session called"))
    scn = quiet_scenario()
    obs, subs = ex.reference_and_selection(scn, True, 2.0, n_select=None)
    assert calls == [scn.n_subcarriers] and subs == list(range(scn.n_subcarriers))
    monkeypatch.undo()
    monkeypatch.setattr(ex, "session", counted)
    monkeypatch.setattr(ex, "reference_and_selection",
                        lambda *a, **kw: pytest.fail("reference_and_selection called"))
    ex.run_session(scn, True, None, 2.0, subcarriers=subs[:4])
    assert calls == [scn.n_subcarriers, None]


def test_session_rejects_subcarriers_with_n_select_before_synthesis(monkeypatch):
    monkeypatch.setattr(ex, "FrameSimulator", lambda *a, **kw: pytest.fail("synthesised"))
    with pytest.raises(ValueError, match="give subcarriers or n_select, not both"):
        ex.session(quiet_scenario(), True, None, 2.0, subcarriers=[0, 1], n_select=2)


_FS = oio.default_scenario().sample_rate


def _simulate(tmp_path, minimal_config):
    assert cli.main(["simulate", "--config", str(minimal_config), "--motion", "walk",
                     "--defense", "on", "--duration", "2", "--out", str(tmp_path)]) == 0


# each entry: the run, then the durations of its sessions in seconds
_STUDIES = {
    "cli simulate": (_simulate, [2.0]),
    "parameter_study 2x1": (lambda *_: ex.parameter_study(oio.default_scenario(), [0.05, 0.1],
                                                          [0.6], 2.0), [2.0, 2.0]),
    "sweep size": (lambda *_: ex.sweep(oio.default_scenario(), "size", [0, 4], session_s=2.0),
                   [2.0, 2.0]),
    "sweep distance": (lambda *_: ex.sweep(oio.default_scenario(), "distance", [0.3, 0.5],
                                           session_s=2.0), [2.0, 2.0]),
    "coverage jobs=1": (lambda *_: ex.run_coverage_grid(
        oio.default_scenario(), [(3.0, 2.0), (4.5, 3.5)], True, reference_s=3.0, session_s=2.0,
        jobs=1), [3.0, 2.0, 2.0]),
}


@pytest.mark.parametrize("study", _STUDIES)
def test_every_session_enters_one_wrapper_once(tmp_path, minimal_config, monkeypatch, study):
    """Each session runs inside exactly one run_session or reference_and_selection call, and
    the wrappers' observations count every frame the input durations imply: what a benchmark
    counts by wrapping those two names."""
    session, depth, depths, frames = ex.session, [0], [], []

    def counted_session(*args, **kw):
        depths.append(depth[0])
        return session(*args, **kw)

    def wrap(original):
        def wrapper(*args, **kw):
            depth[0] += 1
            try:
                result = original(*args, **kw)
            finally:
                depth[0] -= 1
            frames.append((result[0] if isinstance(result, tuple) else result).meta["n_frames"])
            return result
        return wrapper

    monkeypatch.setattr(ex, "session", counted_session)
    for name in ("run_session", "reference_and_selection"):
        monkeypatch.setattr(ex, name, wrap(getattr(ex, name)))
    run, durations = _STUDIES[study]
    run(tmp_path, minimal_config)
    assert depths == [1] * len(durations)
    assert len(frames) == len(durations)
    assert sum(frames) == sum(round(d * _FS) for d in durations)


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


def test_sweep_orientation_outside_room_rejected_before_its_session(monkeypatch):
    scn = quiet_scenario()
    far = (scn.anchor_pos[0] + 3.0, scn.anchor_pos[1])  # orbits to x = -1.8 m at 180 degrees
    monkeypatch.setattr(ex, "run_session", lambda *a, **kw: pytest.fail("a session ran"))
    with pytest.raises(ch.ScenarioError, match=r"^surface at orientation 180.0 deg falls outside"):
        ex.sweep(replace(scn, irs_pos=far), "orientation", [180.0], session_s=3.0)


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


def test_parameter_study_takes_generators():
    scn = quiet_scenario()
    cells = ex.parameter_study(scn, (r for r in [0.05]), (p for p in [0.0, 0.6]), 2.0)
    assert [(c.progression_rate, c.hold_prob) for c in cells] == [(0.05, 0.0), (0.05, 0.6)]


def test_parameter_study_zero_length_rejected():
    scn = quiet_scenario()
    with pytest.raises(ValueError):
        ex.parameter_study(scn, [0.05], [0.4], 0.0)
    with pytest.raises(ValueError):
        ex.parameter_study(scn, [], [0.4], 6.0)



# --- a study's shared noise draw -------------------------------------------

# each entry: the study on a scenario, its sessions, and their duration in seconds
_SHARED_STUDIES = {
    "parameter_study 2x2": (lambda scn: ex.parameter_study(scn, [0.025, 0.05], [0.0, 0.6], 2.0),
                            4, 2.0),
    "sweep size x3": (lambda scn: ex.sweep(scn, "size", [0, 64, 256], session_s=2.0, stream=3),
                      3, 2.0),
}


def _record_noise(monkeypatch):
    """Patch FrameSimulator.noise to record each filled array and the thread that filled it."""
    noise, calls = ch.FrameSimulator.noise, []

    def recorded(self, rng, out):
        calls.append((out, threading.current_thread()))
        return noise(self, rng, out)

    monkeypatch.setattr(ch.FrameSimulator, "noise", recorded)
    return calls


@pytest.mark.parametrize("study", _SHARED_STUDIES)
def test_study_draws_its_noise_once_and_each_cell_matches_its_own_session(monkeypatch, study):
    run, n_sessions, duration = _SHARED_STUDIES[study]
    scn = quiet_scenario()
    run_session, cells = ex.run_session, []

    def recorded(*args, **kw):
        cells.append((args, kw, run_session(*args, **kw)))
        return cells[-1][2]

    monkeypatch.setattr(ex, "run_session", recorded)
    calls = _record_noise(monkeypatch)
    run(scn)
    assert len(calls) == 1 and len(cells) == n_sessions
    (shared, thread), = calls
    assert thread is threading.main_thread() and not shared.flags.writeable
    stream = cells[0][1]["stream"]
    fresh = ch.FrameSimulator(scn).noise(ex._noise_rng(scn, stream), np.empty(shared.shape))
    assert shared.shape[0] == round(duration * _FS) and np.array_equal(shared, fresh)
    monkeypatch.undo()
    for args, kw, obs in cells:
        assert kw["noise"] is shared
        own = {k: v for k, v in kw.items() if k not in ("noise", "simulator")}
        assert np.array_equal(obs.values, ex.run_session(*args, **own).values)


def test_one_cell_study_draws_on_its_worker_and_noiseless_study_draws_nothing(monkeypatch):
    calls = _record_noise(monkeypatch)
    ex.parameter_study(quiet_scenario(), [0.05], [0.6], 2.0)
    assert calls and all(t is not threading.main_thread() for _, t in calls)
    calls.clear()
    ex.parameter_study(quiet_scenario(snr_db=float("inf")), [0.05], [0.0, 0.6], 2.0)
    ex.sweep(quiet_scenario(snr_db=float("inf")), "size", [0, 256], session_s=2.0)
    assert calls == []


@pytest.mark.parametrize("scn, shape, message", [
    (quiet_scenario(), (139, 2, 56, 3, 3), r"^noise has shape \(139, 2, 56, 3, 3\), not \(140,"),
    (quiet_scenario(), (140, 2, 28, 3, 3), r"^noise has shape \(140, 2, 28, 3, 3\), not \(140,"),
    (quiet_scenario(snr_db=float("inf")), (140, 2, 56, 3, 3),
     r"^noise given for a noiseless scenario"),
], ids=["frames", "band", "noiseless"])
def test_session_rejects_wrong_noise_before_any_frame(monkeypatch, scn, shape, message):
    monkeypatch.setattr(ch.FrameSimulator, "frame",
                        lambda *a, **kw: pytest.fail("a frame was synthesised"))
    with pytest.raises(ValueError, match=message):
        ex.session(scn, True, None, 2.0, noise=np.zeros(shape))


@pytest.mark.parametrize("run", [
    lambda scn: ex.parameter_study(scn, [0.05], [0.0, 0.6], 6.0),
    lambda scn: ex.sweep(scn, "size", [64, 256], session_s=6.0),
], ids=["parameter_study 1x2", "sweep size x2"])
def test_study_memory_guard_counts_the_shared_noise(monkeypatch, run):
    """A study holds its noise (16 B per full-band cell) beside a session's |H| (8 B): memory
    for 16 B per cell runs each session alone, but not the study."""
    scn = quiet_scenario()
    cells = round(6.0 * _FS) * scn.n_subcarriers * scn.n_rx * scn.n_tx
    monkeypatch.setattr(ch, "_physical_memory", lambda: float(16 * cells))
    monkeypatch.setattr(ch.FrameSimulator, "__init__",
                        lambda *a, **kw: pytest.fail("a simulator was built"))
    monkeypatch.setattr(ch.FrameSimulator, "frame",
                        lambda *a, **kw: pytest.fail("a frame was synthesised"))
    with pytest.raises(ValueError, match=r"^duration 6 s needs"):
        run(scn)

# --- coverage grid ---------------------------------------------------------

def test_coverage_grid_shapes_and_rates():
    scn = quiet_scenario()
    grid = ex.coverage_grid_positions(scn, 2, 2)
    assert grid.shape == (4, 2)
    result = ex.run_coverage_grid(scn, grid, False, reference_s=4.0, session_s=3.0)
    assert result.rates.shape == (4,)
    assert np.all((result.rates >= 0) & (result.rates <= 1))
    assert np.all((result.rates_maxref >= 0) & (result.rates_maxref <= 1))


@pytest.mark.parametrize("width, height, margin", [(3.0, 0.5, 0.75), (3.0, 1.2, 0.75),
                                                    (1.4, 5.5, 0.75), (7.5, 5.5, -0.1)],
                         ids=["outside", "backwards", "narrow_x", "negative"])
def test_coverage_grid_margin_must_leave_an_interior(width, height, margin):
    """A margin over half the room on an axis would put positions outside it (0.5 m: y = 0.75
    and -0.25) or run the rows backwards (1.2 m); a negative one puts them outside."""
    scn = replace(quiet_scenario(), room=ch.rect_room(width, height))
    with pytest.raises(ValueError, match=rf"^margin {margin:g} m must be >= 0 and at most half "
                                         rf"of each side of the {width:g} x {height:g} m room$"):
        ex.coverage_grid_positions(scn, 2, 2, margin)
    line = ex.coverage_grid_positions(replace(scn, room=ch.rect_room(3.0, 1.5)), 2, 2)
    assert np.array_equal(line[:, 1], [0.75] * 4)  # exactly half: one row, in the room


def test_coverage_grid_bounded_by_physical_memory(monkeypatch):
    scn = quiet_scenario()
    need = 8 * 3 * 2 * 4200  # cells x frames of a 60 s session at 70 Hz x float64
    monkeypatch.setattr(ch, "_physical_memory", lambda: float(need))
    assert ex.coverage_grid_positions(scn, 3, 2, session_s=60.0).shape == (6, 2)
    monkeypatch.setattr(ch, "_physical_memory", lambda: float(need - 1))
    with pytest.raises(ValueError, match=r"^grid 3x2 of 60 s sessions needs"):
        ex.coverage_grid_positions(scn, 3, 2, session_s=60.0)
    assert ex.coverage_grid_positions(scn, 3, 2, session_s=59.99).shape == (6, 2)
    with pytest.raises(ValueError, match=r"^grid 3x2 of nan s sessions needs nan GiB"):
        ex.coverage_grid_positions(scn, 3, 2, session_s=math.nan)


@pytest.mark.parametrize("session_s, message", [
    (math.nan, r"^duration_s must be finite and > 0, got nan"),
    (0.5, r"^session shorter than the observation window"),
], ids=["nan", "short"])
def test_coverage_grid_checks_sessions_before_the_reference(monkeypatch, session_s, message):
    monkeypatch.setattr(ch.FrameSimulator, "frame",
                        lambda *a, **kw: pytest.fail("a frame was synthesised"))
    with pytest.raises(ValueError, match=message):
        ex.run_coverage_grid(quiet_scenario(), [(3.0, 2.0)], False, reference_s=2.0,
                             session_s=session_s)


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
