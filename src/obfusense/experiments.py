"""Session orchestration: walks, rotating reflectors, coverage grids, sweeps.

Every session derives its noise and surface-configuration streams from
(scenario.seed, stream id), so defense-on/off comparisons with the same
stream id share identical environment noise.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import channel
from . import irs as irsmod
from . import sensing
from .channel import FrameSimulator, PersonState, Scenario, ScenarioError

_NOISE_STREAM = 11
_IRS_STREAM = 23
_SUBSET_STREAM = 37
_worker_sim = None  # a coverage pool worker's simulator, set once by _set_worker_sim

# Frames per FrameSimulator.frame call. A person's blocking step holds
# (frames x distinct route segments) arrays, which grow with the panel's columns,
# not its elements; 64 frames keep a chunk under the rest of a session's memory
# up to a 64x64 surface, and larger chunks synthesise no faster. The noise ring
# holds NOISE_AHEAD + 1 chunks, 0.5 MB each with 56 subcarriers and 3x3 antennas.
FRAME_CHUNK = 64
NOISE_AHEAD = 2


@dataclass
class SweepCell:
    value: float
    median: float
    p01: float
    p99: float
    threshold: float


@dataclass
class SweepResult:
    sweep_var: str
    cells: list

    @property
    def values(self):
        return [c.value for c in self.cells]

    @property
    def medians(self):
        return [c.median for c in self.cells]


@dataclass
class ParamStudyCell:
    progression_rate: float
    hold_prob: float
    median: float
    mad: float
    threshold: float
    euclidean_norm: float
    coherence_time_s: float


@dataclass
class CoverageResult:
    positions: np.ndarray
    rates: np.ndarray
    rates_maxref: np.ndarray
    threshold: float
    threshold_maxref: float
    c: float
    meta: dict = field(default_factory=dict)


def _noise_rng(scenario: Scenario, stream: int) -> np.random.Generator:
    return np.random.default_rng((scenario.seed, _NOISE_STREAM, stream))


def _irs_rng(scenario: Scenario, stream: int) -> np.random.Generator:
    return np.random.default_rng((scenario.seed, _IRS_STREAM, stream))


def check_session(scenario: Scenario, duration_s: float, window_s: float) -> None:
    """ValueError unless duration_s is finite and > 0 and its frames cover one
    observation window of window_s (sensing.window_samples)."""
    if not (0 < duration_s < math.inf):
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s!r}")
    n_w = sensing.window_samples(window_s, scenario.sample_rate)
    if np.round(duration_s * scenario.sample_rate) < n_w:  # inf frames hold any window
        raise ValueError("session shorter than the observation window")


def _schedule(n_elements, defense_on, times, sample_rate, scheduler: irsmod.SchedulerParams,
              active_elements, rng_irs):
    """Scheduler pass: (configs (C, M), cfg_index (T,), change frames).

    Tick k >= 1 lands on the first frame i with k / update_rate <= times[i] +
    1e-12 and steps the scheduler once, drawing from rng_irs in tick order.
    configs holds the int8 coefficients of each frame that starts a new
    configuration (a later change on the same frame supersedes an earlier
    one, so C <= T); frame i uses row cfg_index[i].
    """
    scheduler.check_update_rate(sample_rate)  # plan() runs it first; this guards direct calls
    full_bits = rng_irs.integers(0, 2, size=n_elements, dtype=np.uint8)
    coeffs = irsmod.coefficients(full_bits)
    configs, change_frames = {0: coeffs.copy()}, []  # first frame -> coefficients
    active = (np.arange(n_elements) if active_elements is None
              else np.asarray(sorted(active_elements), dtype=int))
    if defense_on and active.size:
        state = irsmod.IrsAlgState(bits=full_bits[active], rng=rng_irs, **scheduler.settings())
        t = times + 1e-12
        tick = 1
        while tick / scheduler.update_rate <= t[-1]:
            if irsmod.step(state):
                i = int(np.searchsorted(t, tick / scheduler.update_rate))
                coeffs[active] = irsmod.coefficients(state.bits)
                change_frames.append(i)
                configs[i] = coeffs.copy()
            tick += 1
    cfg_index = np.searchsorted(list(configs), np.arange(len(times)), side="right") - 1
    return np.array(list(configs.values())), cfg_index, change_frames


def plan(scenario: Scenario, defense_on: bool, duration_s: float, *, window_s: float = 1.0,
         subcarriers=None, n_select: int | None = None, stream: int = 0,
         keep_frames: bool = False, **scheduler):
    """(n_frames, subcarriers as ints or None, irs.SchedulerParams) of session() on these inputs,
    all checked here: session() and each study's cells run this before any simulator or draw."""
    if subcarriers is not None and n_select is not None:
        raise ValueError("give subcarriers or n_select, not both")
    if n_select is not None and n_select < 1:  # sensing.select_subcarriers' rule, before synthesis
        raise ValueError(f"k={n_select} out of range for {scenario.n_subcarriers} subcarriers")
    check_session(scenario, duration_s, window_s)
    if not isinstance(stream, (int, np.integer)) or stream < 0:  # as the seed sequences need
        raise ValueError(f"stream must be an integer >= 0, got {stream!r}")
    if subcarriers is not None:
        subcarriers = sensing.check_subcarriers(subcarriers, scenario.n_subcarriers)
    scheduler = irsmod.SchedulerParams(**scheduler)
    scheduler.check_update_rate(scenario.sample_rate)
    if defense_on and scenario.irs_pos is None:
        raise ScenarioError("defense requested but the scenario has no reflecting surface")
    width = scenario.n_subcarriers if subcarriers is None else len(subcarriers)
    # float64 |H| (selection moves within it), plus the complex128 frames and their selected copy
    copies = 1 + (n_select / width if n_select is not None and n_select < width else 0)
    channel.check_memory(duration_s * scenario.sample_rate * (width * scenario.n_rx * scenario.n_tx)
                         * (8 + (16 * copies if keep_frames else 0)), f"duration {duration_s:g} s")
    return int(round(duration_s * scenario.sample_rate)), subcarriers, scheduler


@dataclass
class Session:
    """A session at its observed subcarriers (mags[:, i] is subcarriers[i]) and its schedule."""
    observation: sensing.ObservationSeries
    subcarriers: list
    times: np.ndarray
    mags: np.ndarray  # (T, K', n_rx, n_tx)
    frames: np.ndarray | None  # complex, as mags; kept with keep_frames only
    configs: np.ndarray  # (C, M) int8 coefficients
    cfg_index: np.ndarray  # (T,): frame i uses configs[cfg_index[i]]
    change_frames: list
    person_xy: np.ndarray | None  # (T, 2) and moving (T,) for a walk, else None
    moving: np.ndarray | None


def session(scenario: Scenario, defense_on: bool, motion, duration_s: float, *,
            window_s: float = 1.0, subcarriers=None, n_select: int | None = None, stream: int = 0,
            person_template: PersonState | None = None, keep_frames: bool = False,
            simulator: FrameSimulator | None = None, active_elements=None, noise=None,
            **scheduler) -> Session:
    """One eavesdropping session and its record; plan() checks every input before the simulator.

    motion is None, a Trajectory or a RotatingReflector. With defense_on the surface scheduler
    (the irs.SchedulerParams keywords, validated even with the defense off) ticks at update_rate;
    off, the surface stays at its random initial configuration. The eavesdropper observes the
    given subcarriers (only those are synthesised), the n_select best (sensing.select_subcarriers;
    all K when n_select >= K), or all K. A worker thread draws the noise NOISE_AHEAD chunks ahead,
    unless noise holds the whole stream's draw (n_frames, 2, K, n_rx, n_tx) at full band.
    """
    n_frames, subcarriers, scheduler = plan(
        scenario, defense_on, duration_s, window_s=window_s, subcarriers=subcarriers,
        n_select=n_select, stream=stream, keep_frames=keep_frames, **scheduler)
    subs = slice(None) if subcarriers is None else np.asarray(subcarriers, dtype=int)
    sim = simulator if simulator is not None else FrameSimulator(scenario)
    if noise is not None and not sim.noise_std:
        raise ValueError("noise given for a noiseless scenario")
    if noise is not None and noise.shape != (n_frames, 2) + sim.h_env.shape:
        raise ValueError(f"noise has shape {noise.shape}, not {(n_frames, 2) + sim.h_env.shape}")

    rng = _noise_rng(scenario, stream)
    # allocated here, not on the worker, which would take a malloc arena of its own
    ring = (np.empty((NOISE_AHEAD + 1, FRAME_CHUNK, 2) + sim.h_env.shape)
            if sim.noise_std and noise is None else None)
    with ThreadPoolExecutor(1) as pool:
        def draw(j):  # chunk j's noise, into the slot that chunk j - NOISE_AHEAD - 1 freed
            if ring is not None and j * FRAME_CHUNK < n_frames:
                return pool.submit(sim.noise, rng, ring[j % len(ring), :n_frames - j * FRAME_CHUNK])
        draws = [draw(j) for j in range(NOISE_AHEAD)]
        times = np.arange(n_frames) / scenario.sample_rate
        configs, cfg_index, change_frames = _schedule(sim.n_elements, defense_on, times,
                                                      scenario.sample_rate, scheduler,
                                                      active_elements, _irs_rng(scenario, stream))

        person = person_xy = moving = factors = None
        if isinstance(motion, channel.Trajectory):
            person = person_template or PersonState(position=(0.0, 0.0))
            person_xy, moving = motion.positions(times)
        elif isinstance(motion, channel.RotatingReflector):
            factors = motion.factors(times)
            unit = channel.scatter_tensors(scenario, [motion.position], subcarriers)

        synth = sim if subcarriers is None else sim.at_subcarriers(subs)
        buf = np.empty((n_frames,) + sensing._component_order(synth.h_env[None]).shape[1:])
        mags = sensing._component_order(buf)  # |H| as (T, K', n_rx, n_tx); sensing reads buf's rows
        frames = np.empty(mags.shape, dtype=complex) if keep_frames else None
        for j, a in enumerate(range(0, n_frames, FRAME_CHUNK)):
            draws.append(draw(j + NOISE_AHEAD))
            b = min(a + FRAME_CHUNK, n_frames)
            first = cfg_index[a]
            z = (noise[a:b] if noise is not None
                 else None if draws[j] is None else draws[j].result())
            h = synth.frame(configs[first:cfg_index[b - 1] + 1], cfg_index[a:b] - first,
                            person=person, positions=None if person is None else person_xy[a:b],
                            scatters=() if factors is None else ((unit, factors[a:b]),),
                            noise=None if z is None else z[:, :, subs])
            if keep_frames:
                frames[a:b] = h
            np.abs(h, out=mags[a:b])
    del ring, draws, synth, h, z  # the synthesis buffers go before selection and observe run
    meta = dict(seed=scenario.seed, stream=stream, defense_on=bool(defense_on),
                duration_s=float(duration_s), n_frames=n_frames, irs_change_frames=change_frames)
    if person is not None:
        meta.update(moving=moving, person_xy=person_xy)
    band = list(range(scenario.n_subcarriers))
    if n_select is not None:
        subcarriers = band if n_select >= len(band) else sensing.select_subcarriers(mags, n_select)
    if n_select is not None and n_select < len(band):  # the selection moves to the front of |H|
        kept = np.ndarray(buf[:, :n_select].shape, buffer=buf)
        for a in range(0, n_frames, FRAME_CHUNK):  # rows ascend: a block lands on rows read
            kept[a:a + FRAME_CHUNK] = buf[a:a + FRAME_CHUNK, subcarriers]
        mags = sensing._component_order(kept)
        frames = None if frames is None else frames[:, subcarriers]
    if subcarriers is not None:
        meta["subcarriers"] = subcarriers
    obs = sensing.observe(mags, window_s, scenario.sample_rate, meta=meta)
    return Session(obs, band if subcarriers is None else subcarriers, times, mags, frames,
                   configs, cfg_index, change_frames, person_xy, moving)


def run_session(scenario: Scenario, defense_on: bool, motion, duration_s: float, *,
                window_s: float = 1.0, subcarriers=None, stream: int = 0,
                person_template: PersonState | None = None, active_elements=None,
                simulator: FrameSimulator | None = None, keep_frames: bool = False, noise=None,
                **scheduler):
    """session()'s observation, or (observation, frames) with keep_frames."""
    rec = session(scenario, defense_on, motion, duration_s, window_s=window_s, stream=stream,
                  subcarriers=subcarriers, person_template=person_template, simulator=simulator,
                  active_elements=active_elements, keep_frames=keep_frames, noise=noise,
                  **scheduler)
    return (rec.observation, rec.frames) if keep_frames else rec.observation


def reference_and_selection(scenario: Scenario, defense_on: bool, reference_s: float, *,
                            n_select: int | None = 28, window_s: float = 1.0, stream: int = 0,
                            simulator: FrameSimulator | None = None, **scheduler):
    """No-motion reference observation plus the frozen subcarrier selection (all when None)."""
    rec = session(scenario, defense_on, None, reference_s, window_s=window_s, stream=stream,
                  n_select=scenario.n_subcarriers if n_select is None else n_select,
                  simulator=simulator, **scheduler)
    return rec.observation, rec.subcarriers


def _study_simulator(scenario: Scenario, duration_s: float, stream: int, sessions: int):
    """A study's one simulator and one read-only draw of stream's noise (None for one session or a
    noiseless scenario), held for the whole study: 16 B per full-band cell beside a session's 8 B
    of |H|, checked against physical memory before the simulator is built."""
    shape = (int(round(duration_s * scenario.sample_rate)), 2, scenario.n_subcarriers,
             scenario.n_rx, scenario.n_tx)
    shared = sessions > 1 and not math.isinf(scenario.snr_db)  # channel.noise_std's rule
    if shared:
        channel.check_memory(12 * math.prod(shape), f"duration {duration_s:g} s")  # 24 B a cell
    sim = FrameSimulator(scenario)
    if not (shared and sim.noise_std):  # noise_std also underflows to 0 at a huge finite snr_db
        return sim, None
    noise = sim.noise(_noise_rng(scenario, stream), np.empty(shape))
    noise.flags.writeable = False
    return sim, noise


def _check_in_room(scenario: Scenario, pos, where: str) -> None:
    """ScenarioError unless the surface at pos (2,) is channel.in_room."""
    if not channel.in_room(scenario, pos):
        raise ScenarioError(f"surface at {where} falls outside the room")


def coverage_grid_positions(scenario: Scenario, nx: int = 5, ny: int = 4,
                            margin: float = 0.75, *, session_s: float = 60.0) -> np.ndarray:
    """Uniform nx-by-ny grid over the room interior; ValueError when the
    observations of its session_s sessions (8 B per frame) exceed physical memory."""
    channel.check_memory(8.0 * nx * ny * np.round(session_s * scenario.sample_rate),
                         f"grid {nx}x{ny} of {session_s:g} s sessions")
    lo, hi = channel.room_box(scenario)
    x = np.linspace(lo[0] + margin, hi[0] - margin, nx)
    y = np.linspace(lo[1] + margin, hi[1] - margin, ny)
    return np.array([(xi, yi) for yi in y for xi in x])


def run_coverage_grid(scenario: Scenario, grid, defense_on: bool, c: float = 11.0, *,
                      reference_s: float = 180.0, session_s: float = 60.0,
                      rpm: float = channel.RotatingReflector.rpm,
                      reflector_gain_db: float = channel.RotatingReflector.peak_scatter_gain_db,
                      window_s: float = 1.0, n_select: int | None = 28, jobs: int = 1,
                      **scheduler) -> CoverageResult:
    """Detection-rate map for a rotating reflector at each grid position.

    One reference calibration, then one session per position; rates are
    reported for the median+C*MAD threshold and for the max-of-reference
    variant. Cells run in min(jobs, cells, CPU count) worker processes; every
    cell reuses the reference's simulator.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid is empty")
    plan(scenario, defense_on, reference_s, window_s=window_s, n_select=n_select, **scheduler)
    plan(scenario, defense_on, session_s, window_s=window_s, **scheduler,  # a cell, as selected
         subcarriers=None if n_select is None else range(min(n_select, scenario.n_subcarriers)))
    sim = FrameSimulator(scenario)
    ref_obs, subs = reference_and_selection(scenario, defense_on, reference_s,
                                            n_select=n_select, window_s=window_s, stream=0,
                                            simulator=sim, **scheduler)
    u = sensing.calibrate_threshold(ref_obs, c)
    u_max = sensing.max_threshold(ref_obs)

    args = [(defense_on, tuple(pos), rpm, reflector_gain_db, session_s, window_s,
             subs, 100 + i, scheduler) for i, pos in enumerate(grid)]
    workers = min(jobs, len(args), os.cpu_count() or 1)
    if workers > 1:  # imported here: at module level it adds ~20 ms to every CLI command
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers, initializer=_set_worker_sim, initargs=(sim,)) as pool:
            observations = list(pool.map(_coverage_cell, args))
    else:
        observations = [_coverage_cell(a, sim) for a in args]

    rates = np.array([sensing.detect(o, u).detection_rate for o in observations])
    rates_max = np.array([sensing.detect(o, u_max).detection_rate for o in observations])
    return CoverageResult(positions=grid, rates=rates, rates_maxref=rates_max, threshold=u,
                          threshold_maxref=u_max, c=c,
                          meta={"reference_s": reference_s, "session_s": session_s,
                                "defense_on": defense_on, "seed": scenario.seed,
                                "subcarriers": subs})


def _set_worker_sim(sim):
    global _worker_sim
    _worker_sim = sim


def _coverage_cell(args, sim=None):
    (defense_on, pos, rpm, gain_db, session_s, window_s, subs, stream, scheduler) = args
    sim = _worker_sim if sim is None else sim
    reflector = channel.RotatingReflector(position=pos, rpm=rpm, peak_scatter_gain_db=gain_db)
    return run_session(sim.scenario, defense_on, reflector, session_s, window_s=window_s,
                       subcarriers=subs, stream=stream, simulator=sim, **scheduler)


def _sweep_cell_stats(value, obs, c=11.0) -> SweepCell:
    p01, med, p99 = np.percentile(obs.values, [1.0, 50.0, 99.0])
    return SweepCell(value=float(value), median=float(med), p01=float(p01), p99=float(p99),
                     threshold=sensing.calibrate_threshold(obs, c))


_SWEEP_VARS = {"size": "active_elements", "distance": "distance_m", "orientation": "angle_deg"}


def sweep(scenario: Scenario, var: str, values, *, session_s: float = 120.0, c: float = 11.0,
          window_s: float = 1.0, stream: int = 0, **scheduler) -> SweepResult:
    """Obfuscation strength versus one surface variable, one defended session per value.

    var "size": the number of actively scheduled elements (values truncated
    to integers). Inactive elements stay frozen at their initial random bits;
    the active subset for each count is drawn once from a count-keyed stream.
    var "distance": metres from the anchor along the anchor->surface axis.
    var "orientation": degrees the surface orbits the anchor. The panel and
    its normal rotate rigidly around the anchor; 0 degrees is the scenario's
    own placement (facing the eavesdropper side).
    Only the size sweep leaves the geometry alone, so only it reuses one simulator and
    draws the sessions' shared noise stream once.
    """
    planned = sweep_sessions(scenario, var, values)
    for _, scn, session in planned:
        plan(scn, session["defense_on"], session_s, window_s=window_s, stream=stream, **scheduler)
    sim = noise = None
    if var == "size":
        sim, noise = _study_simulator(scenario, session_s, stream, len(planned))
    cells = []
    for value, scn, session in planned:
        obs = run_session(scn, motion=None, duration_s=session_s, window_s=window_s,
                          stream=stream, simulator=sim, noise=noise, **session, **scheduler)
        cells.append(_sweep_cell_stats(value, obs, c))
    return SweepResult(sweep_var=_SWEEP_VARS[var], cells=cells)


def sweep_sessions(scenario: Scenario, var: str, values) -> list:
    """(value, scenario, session keywords) for each sweep value, every value checked before
    any session runs: a ValueError or ScenarioError names the first bad one. See sweep."""
    if var not in _SWEEP_VARS:
        raise ValueError(f"sweep variable must be one of {', '.join(_SWEEP_VARS)}, got {var!r}")
    if var != "size":
        if scenario.irs_pos is None:
            raise ScenarioError("scenario has no reflecting surface")
        anchor = np.asarray(scenario.anchor_pos, dtype=float)
        offset = np.asarray(scenario.irs_pos, dtype=float) - anchor
        dist = np.hypot(offset[0], offset[1])
        if dist < 1e-9:
            raise ScenarioError("surface sits on the anchor; "
                                f"{'axis' if var == 'distance' else 'orientation'} undefined")
        radial = offset / dist
    m = scenario.n_elements if scenario.irs_pos is not None else 0
    planned = []
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"sweep value {value} is not finite")
        scn, session = scenario, {"defense_on": True}
        if var == "size":
            value = int(value)
            if value < 0 or value > m:
                raise ValueError(f"active count {value} out of range for {m} elements")
            active = None  # identical code path to a plain defense-on session
            if value < m:
                pick_rng = np.random.default_rng((scenario.seed, _SUBSET_STREAM, value))
                active = np.sort(pick_rng.choice(m, size=value, replace=False))
            session = {"defense_on": value > 0, "active_elements": active}
        elif var == "distance":
            if value <= 0:
                raise ValueError("distances must be > 0")
            pos = anchor + float(value) * radial
            _check_in_room(scenario, pos, f"distance {value} m")
            scn = replace(scenario, irs_pos=(float(pos[0]), float(pos[1])))
        else:
            a = math.radians(float(value))
            rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            pos = anchor + dist * (rot @ radial)
            nrm = rot @ np.asarray(scenario.irs_normal, dtype=float)
            nrm = nrm / np.hypot(nrm[0], nrm[1])
            _check_in_room(scenario, pos, f"orientation {value} deg")
            scn = replace(scenario, irs_pos=(float(pos[0]), float(pos[1])),
                          irs_normal=(float(nrm[0]), float(nrm[1])))
        planned.append((value, scn, session))
    return planned


def coherence_time(series, sample_rate: float) -> float:
    """Smallest lag (seconds) where the normalized autocorrelation drops below 0.5.

    Returns the series duration when the autocorrelation never drops that far.
    """
    x = np.asarray(series, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ValueError("series too short for a coherence time")
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise ValueError("constant series has no defined coherence time")
    for tau in range(1, n):
        rho = float(np.dot(x[:-tau], x[tau:])) / denom
        if rho < 0.5:
            return tau / sample_rate
    return n / sample_rate


def parameter_study(scenario: Scenario, r_values, p_values, duration_s: float, *,
                    c: float = 11.0, window_s: float = 1.0, stream: int = 0,
                    update_rate: float = irsmod.SchedulerParams.update_rate) -> list:
    """Scheduler parameter grid: observation statistics per (rate, hold) cell.

    plan() checks every cell before the simulator. The cells share one simulator and one draw of
    stream's noise, so they differ only in the surface."""
    p_values = list(p_values)  # read once per rate
    grid = [dict(progression_rate=float(r), hold_prob=float(p), update_rate=update_rate)
            for r in r_values for p in p_values]
    if not grid:
        raise ValueError("parameter grids must be non-empty")
    for cell in grid:
        plan(scenario, True, duration_s, window_s=window_s, stream=stream, **cell)
    sim, noise = _study_simulator(scenario, duration_s, stream, len(grid))
    cells = []
    for cell in grid:
        obs = run_session(scenario, True, None, duration_s, window_s=window_s, stream=stream,
                          simulator=sim, noise=noise, **cell)
        med = float(np.median(obs.values))
        mad = float(np.median(np.abs(obs.values - med)))
        cells.append(ParamStudyCell(
            progression_rate=cell["progression_rate"], hold_prob=cell["hold_prob"], median=med,
            mad=mad, threshold=sensing.calibrate_threshold(obs, c),
            euclidean_norm=float(np.linalg.norm(obs.values)),
            coherence_time_s=coherence_time(obs.values, scenario.sample_rate)))
    return cells
