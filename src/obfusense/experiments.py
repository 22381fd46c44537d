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

# Frames per FrameSimulator.frames call. A person's blocking step holds
# (frames x distinct route segments) arrays, which grow with the panel's columns,
# not its elements; 64 frames keep a chunk under the rest of a session's memory
# up to a 64x64 surface, and larger chunks synthesise no faster. The noise ring
# holds NOISE_AHEAD + 1 chunks, 0.5 MB each with 56 subcarriers and 3x3 antennas.
FRAME_CHUNK = 64
NOISE_AHEAD = 2


@dataclass
class Trajectory:
    """Patrol between waypoints at constant speed, pausing at the endpoints.

    The walk ping-pongs along the waypoint polyline for as long as a session
    runs; dwell is the pause at each end of a pass.
    """

    waypoints: list
    speed: float = 1.0
    dwell: float = 0.0

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("trajectory needs at least 2 waypoints")
        if not (0 < self.speed < math.inf):
            raise ValueError(f"speed must be finite and > 0, got {self.speed!r}")
        if not (0 <= self.dwell < math.inf):
            raise ValueError(f"dwell must be finite and >= 0, got {self.dwell!r}")
        pts = np.asarray(self.waypoints, dtype=float)
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"waypoints must be finite, got {self.waypoints!r}")
        seg = np.diff(pts, axis=0)
        self._pts = pts
        self._cum = np.concatenate([[0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))])
        if np.any(np.diff(self._cum) == 0):  # also a leg too short to lengthen the pass
            raise ValueError("repeated consecutive waypoints")

    @property
    def pass_length(self) -> float:
        return float(self._cum[-1])

    def positions(self, times):
        """Positions (T, 2) and moving flags (T,) at times (T,) of the ping-pong patrol."""
        leg_t = self.pass_length / self.speed
        tc = np.mod(np.asarray(times, dtype=float), 2.0 * (leg_t + self.dwell))
        out = tc - self.dwell  # time into the outbound leg
        far = out - leg_t  # time since reaching the far end
        start, outbound = tc < self.dwell, out < leg_t
        end = ~outbound & (far < self.dwell)
        s = np.where(outbound, self.speed * out, self.pass_length - self.speed * (far - self.dwell))
        s = np.minimum(np.maximum(s, 0.0), self.pass_length)  # distance along the polyline
        i = np.minimum(np.searchsorted(self._cum, s, side="right") - 1, len(self._cum) - 2)
        frac = (s - self._cum[i]) / (self._cum[i + 1] - self._cum[i])
        pos = self._pts[i] + frac[:, None] * (self._pts[i + 1] - self._pts[i])
        pos[start], pos[end] = self._pts[0], self._pts[-1]
        return pos, ~(start | end)

    def locate(self, t: float):
        """(position, moving) at time t: positions() at one time."""
        pos, moving = self.positions([t])
        return pos[0], bool(moving[0])


@dataclass
class RotatingReflector:
    """Point source of repeatable motion: an amplitude/phase-modulated bounce.

    The default peak gain is well above the human-scatter default; a rotating
    metal sheet reflects far more strongly than a body.
    """

    position: tuple
    rpm: float = 20.0
    peak_scatter_gain_db: float = 15.0

    def __post_init__(self):
        if not (0 < self.rpm < math.inf):
            raise ValueError(f"rpm must be finite and > 0, got {self.rpm!r}")
        if not np.all(np.isfinite(self.position)):
            raise ValueError(f"position must be finite, got {self.position!r}")
        if not (self.peak_scatter_gain_db < math.inf):  # -inf is a silent reflector
            raise ValueError(f"peak_scatter_gain_db must be below +inf, got "
                             f"{self.peak_scatter_gain_db!r}")

    def factors(self, times) -> np.ndarray:
        """Complex bounce factors (T,) at times (T,): the peak gain times cos(theta) e^(j theta)."""
        theta = 2.0 * math.pi * (self.rpm / 60.0) * np.asarray(times, dtype=float)
        cos = np.cos(theta)
        return 10.0 ** (self.peak_scatter_gain_db / 20.0) * cos * (cos + 1j * np.sin(theta))

    def factor(self, t: float) -> complex:
        """factors() at one time."""
        return complex(self.factors([t])[0])


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


def check_update_rate(update_rate: float, sample_rate: float) -> None:
    """Raise ValueError above 100 scheduler ticks per frame.

    The scheduler pass steps once per tick in Python, so its time grows with
    the ticks per frame; a finite but huge rate would otherwise run for days.
    """
    if update_rate > 100 * sample_rate:
        raise ValueError(f"update_rate must be at most 100 ticks per frame ({100 * sample_rate:g} "
                         f"at sample_rate {sample_rate:g}), got {update_rate:g}")


def _schedule(n_elements, defense_on, times, sample_rate, scheduler: irsmod.SchedulerParams,
              active_elements, rng_irs):
    """Scheduler pass: (configs (C, M), cfg_index (T,), change frames).

    Tick k >= 1 lands on the first frame i with k / update_rate <= times[i] +
    1e-12 and steps the scheduler once, drawing from rng_irs in tick order.
    configs holds the int8 coefficients of each frame that starts a new
    configuration (a later change on the same frame supersedes an earlier
    one, so C <= T); frame i uses row cfg_index[i].
    """
    check_update_rate(scheduler.update_rate, sample_rate)
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


def _session_magnitudes(scenario, defense_on, motion, duration_s,
                        scheduler: irsmod.SchedulerParams, *, stream, person_template,
                        active_elements, simulator, keep_frames=False):
    """Simulate one session; returns (|H| of shape (T, K, n_rx, n_tx), meta, frames_or_None).

    A scheduler pass and a motion pass turn the session into per-frame arrays; the
    frame engine synthesises FRAME_CHUNK frames per call while one worker thread,
    joined before the session ends, draws the noise stream NOISE_AHEAD chunks ahead.
    """
    cells = scenario.n_subcarriers * scenario.n_rx * scenario.n_tx
    # float64 |H|, plus the complex128 frames when they are kept
    need = duration_s * scenario.sample_rate * cells * (24 if keep_frames else 8)
    memory = channel._physical_memory()
    if not need <= memory:  # also rejects a NaN or infinite duration
        raise ValueError(f"duration {duration_s:g} s needs {need / 2**30:.3g} GiB for its "
                         f"frames, more than the {memory / 2**30:.3g} GiB of physical memory")
    n_frames = int(round(duration_s * scenario.sample_rate))
    if n_frames < 1:
        raise ValueError("session produces no frames")
    sim = simulator if simulator is not None else FrameSimulator(scenario)
    if defense_on and sim.n_elements == 0:
        raise ScenarioError("defense requested but the scenario has no reflecting surface")

    rng = _noise_rng(scenario, stream)
    shape = (n_frames, scenario.n_subcarriers, scenario.n_rx, scenario.n_tx)
    # allocated here, not on the worker, which would take a malloc arena of its own
    ring = np.empty((NOISE_AHEAD + 1, FRAME_CHUNK, 2) + shape[1:]) if sim.noise_std > 0 else None
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
        if isinstance(motion, Trajectory):
            person = person_template or PersonState(position=(0.0, 0.0))
            person_xy, moving = motion.positions(times)
        elif isinstance(motion, RotatingReflector):
            factors = motion.factors(times)
            unit = channel.scatter_tensors(scenario, [motion.position])

        mags = np.empty(shape)
        frames = np.empty(shape, dtype=complex) if keep_frames else None
        for j, a in enumerate(range(0, n_frames, FRAME_CHUNK)):
            draws.append(draw(j + NOISE_AHEAD))
            b = min(a + FRAME_CHUNK, n_frames)
            first = cfg_index[a]
            h = sim.frames(configs[first:cfg_index[b - 1] + 1], cfg_index[a:b] - first,
                           person=person, positions=None if person is None else person_xy[a:b],
                           scatters=() if factors is None else ((unit, factors[a:b]),),
                           noise=None if draws[j] is None else draws[j].result())
            if keep_frames:
                frames[a:b] = h
            np.abs(h, out=mags[a:b])

    meta = {
        "seed": scenario.seed,
        "stream": stream,
        "defense_on": bool(defense_on),
        "duration_s": float(duration_s),
        "n_frames": n_frames,
        "irs_change_frames": change_frames,
    }
    if person is not None:
        meta["moving"] = moving
        meta["person_xy"] = person_xy
    return mags, meta, frames


def run_session(scenario: Scenario, defense_on: bool, motion, duration_s: float, *,
                window_s: float = 1.0, subcarriers=None, stream: int = 0,
                person_template: PersonState | None = None, active_elements=None,
                simulator: FrameSimulator | None = None, keep_frames: bool = False,
                **scheduler):
    """One eavesdropping session; returns the adversarial observation.

    motion is None, a Trajectory, or a RotatingReflector. With defense_on the
    surface scheduler advances at update_rate and holds between ticks; off, the
    surface stays frozen at its random initial configuration. scheduler holds
    the irs.SchedulerParams keywords, validated even when the defense is off.
    keep_frames also returns the raw frame array.
    """
    if not (0 < duration_s < math.inf):
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s!r}")
    params = irsmod.SchedulerParams(**scheduler)
    n_w = sensing.window_samples(window_s, scenario.sample_rate)
    if int(round(duration_s * scenario.sample_rate)) < max(n_w, 2):
        raise ValueError("session shorter than the observation window")
    mags, meta, frames = _session_magnitudes(
        scenario, defense_on, motion, duration_s, params, stream=stream,
        person_template=person_template, active_elements=active_elements,
        simulator=simulator, keep_frames=keep_frames)
    if subcarriers is not None:
        meta["subcarriers"] = [int(k) for k in subcarriers]
    obs = sensing.observe(mags, window_s, scenario.sample_rate, subcarriers, meta=meta)
    if keep_frames:
        return obs, frames
    return obs


def reference_and_selection(scenario: Scenario, defense_on: bool, reference_s: float, *,
                            n_select: int | None = 28, window_s: float = 1.0, stream: int = 0,
                            simulator: FrameSimulator | None = None, **scheduler):
    """No-motion reference observation plus the frozen subcarrier selection."""
    mags, meta, _ = _session_magnitudes(
        scenario, defense_on, None, reference_s, irsmod.SchedulerParams(**scheduler),
        stream=stream, person_template=None, active_elements=None, simulator=simulator)
    if n_select is None or n_select >= scenario.n_subcarriers:
        subs = list(range(scenario.n_subcarriers))
    else:
        subs = sensing.select_subcarriers(mags, n_select)
    meta["subcarriers"] = subs
    obs = sensing.observe(mags, window_s, scenario.sample_rate, subs, meta=meta)
    return obs, subs


def coverage_grid_positions(scenario: Scenario, nx: int = 5, ny: int = 4,
                            margin: float = 0.75, *, session_s: float = 60.0) -> np.ndarray:
    """Uniform nx-by-ny grid over the room interior; ValueError when the
    observations of its session_s sessions (8 B per frame) exceed physical memory."""
    need = 8.0 * nx * ny * np.round(session_s * scenario.sample_rate)
    memory = channel._physical_memory()
    if need > memory:
        raise ValueError(f"grid {nx}x{ny} of {session_s:g} s sessions needs {need / 2**30:.3g} "
                         f"GiB, more than the {memory / 2**30:.3g} GiB of physical memory")
    if scenario.room:
        pts = np.asarray([p for w in scenario.room for p in w], dtype=float)
    else:
        pts = np.asarray([scenario.anchor_pos, scenario.eve_pos], dtype=float)
    x = np.linspace(pts[:, 0].min() + margin, pts[:, 0].max() - margin, nx)
    y = np.linspace(pts[:, 1].min() + margin, pts[:, 1].max() - margin, ny)
    return np.array([(xi, yi) for yi in y for xi in x])


def run_coverage_grid(scenario: Scenario, grid, defense_on: bool, c: float = 11.0, *,
                      reference_s: float = 180.0, session_s: float = 60.0,
                      rpm: float = RotatingReflector.rpm,
                      reflector_gain_db: float = RotatingReflector.peak_scatter_gain_db,
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
    sim = FrameSimulator(scenario)
    ref_obs, subs = reference_and_selection(scenario, defense_on, reference_s,
                                            n_select=n_select, window_s=window_s, stream=0,
                                            simulator=sim, **scheduler)
    u = sensing.calibrate_threshold(ref_obs, c)
    u_max = sensing.max_threshold(ref_obs)

    args = [(defense_on, tuple(pos), rpm, reflector_gain_db, session_s, window_s,
             subs, 100 + i, scheduler) for i, pos in enumerate(grid)]
    workers = min(jobs, len(args), os.cpu_count() or 1)
    if workers > 1:
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
    reflector = RotatingReflector(position=pos, rpm=rpm, peak_scatter_gain_db=gain_db)
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
    Only the size sweep leaves the geometry alone, so only it reuses one simulator.
    """
    if var not in _SWEEP_VARS:
        raise ValueError(f"sweep variable must be one of {', '.join(_SWEEP_VARS)}, got {var!r}")
    if var == "size":
        sim = FrameSimulator(scenario)
        m = sim.n_elements
    else:
        if scenario.irs_pos is None:
            raise ScenarioError("scenario has no reflecting surface")
        anchor = np.asarray(scenario.anchor_pos, dtype=float)
        offset = np.asarray(scenario.irs_pos, dtype=float) - anchor
        dist = np.hypot(offset[0], offset[1])
        if dist < 1e-9:
            raise ScenarioError("surface sits on the anchor; "
                                f"{'axis' if var == 'distance' else 'orientation'} undefined")
        radial = offset / dist
    cells = []
    for value in values:
        scn, session = scenario, {"defense_on": True}
        if var == "size":
            value = int(value)
            if value < 0 or value > m:
                raise ValueError(f"active count {value} out of range for {m} elements")
            active = None  # identical code path to a plain defense-on session
            if value < m:
                pick_rng = np.random.default_rng((scenario.seed, _SUBSET_STREAM, value))
                active = np.sort(pick_rng.choice(m, size=value, replace=False))
            session = {"defense_on": value > 0, "active_elements": active, "simulator": sim}
        elif var == "distance":
            if value <= 0:
                raise ValueError("distances must be > 0")
            pos = anchor + float(value) * radial
            if scenario.room:
                pts = np.asarray([p for w in scenario.room for p in w], dtype=float)
                if not np.all((pts.min(axis=0) <= pos) & (pos <= pts.max(axis=0))):
                    raise ScenarioError(f"surface at distance {value} m falls outside the room")
            scn = replace(scenario, irs_pos=(float(pos[0]), float(pos[1])))
        else:
            a = math.radians(float(value))
            rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            pos = anchor + dist * (rot @ radial)
            nrm = rot @ np.asarray(scenario.irs_normal, dtype=float)
            nrm = nrm / np.hypot(nrm[0], nrm[1])
            scn = replace(scenario, irs_pos=(float(pos[0]), float(pos[1])),
                          irs_normal=(float(nrm[0]), float(nrm[1])))
        obs = run_session(scn, motion=None, duration_s=session_s, window_s=window_s,
                          stream=stream, **session, **scheduler)
        cells.append(_sweep_cell_stats(value, obs, c))
    return SweepResult(sweep_var=_SWEEP_VARS[var], cells=cells)


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
    """Scheduler parameter grid: observation statistics per (rate, hold) cell."""
    if len(list(r_values)) == 0 or len(list(p_values)) == 0:
        raise ValueError("parameter grids must be non-empty")
    sim = FrameSimulator(scenario)
    cells = []
    for r in r_values:
        for p in p_values:
            obs = run_session(scenario, True, None, duration_s, window_s=window_s,
                              stream=stream, simulator=sim, progression_rate=float(r),
                              hold_prob=float(p), update_rate=update_rate)
            med = float(np.median(obs.values))
            mad = float(np.median(np.abs(obs.values - med)))
            cells.append(ParamStudyCell(
                progression_rate=float(r), hold_prob=float(p), median=med, mad=mad,
                threshold=sensing.calibrate_threshold(obs, c),
                euclidean_norm=float(np.linalg.norm(obs.values)),
                coherence_time_s=coherence_time(obs.values, scenario.sample_rate)))
    return cells
