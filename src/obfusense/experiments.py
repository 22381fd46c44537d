"""Session orchestration: walks, rotating reflectors, coverage grids, sweeps.

Every session derives its noise and surface-configuration streams from
(scenario.seed, stream id), so defense-on/off comparisons with the same
stream id share identical environment noise.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import irs as irsmod
from . import sensing
from .channel import FrameSimulator, PersonState, Scenario, ScenarioError, point_segment_distances

_NOISE_STREAM = 11
_IRS_STREAM = 23
_SUBSET_STREAM = 37

# Frames per FrameSimulator.frames call. A person's blocking step holds
# (frames x route segments) arrays, so the working set grows with the surface;
# 64 frames keep it under the rest of a session's memory up to a 64x64 surface,
# and larger chunks synthesise no faster.
FRAME_CHUNK = 64


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
        seglen = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(seglen == 0):
            raise ValueError("repeated consecutive waypoints")
        self._pts = pts
        self._cum = np.concatenate([[0.0], np.cumsum(seglen)])

    @property
    def pass_length(self) -> float:
        return float(self._cum[-1])

    def locate(self, t: float):
        """(position, moving) at time t of the ping-pong patrol."""
        leg_t = self.pass_length / self.speed
        cycle = 2.0 * (leg_t + self.dwell)
        tc = t % cycle
        if tc < self.dwell:
            return self._pts[0].copy(), False
        tc -= self.dwell
        if tc < leg_t:
            return self._at_distance(self.speed * tc), True
        tc -= leg_t
        if tc < self.dwell:
            return self._pts[-1].copy(), False
        tc -= self.dwell
        return self._at_distance(self.pass_length - self.speed * tc), True

    def _at_distance(self, s: float) -> np.ndarray:
        s = min(max(s, 0.0), self.pass_length)
        i = int(np.searchsorted(self._cum, s, side="right")) - 1
        i = min(i, len(self._cum) - 2)
        seg = self._pts[i + 1] - self._pts[i]
        seglen = self._cum[i + 1] - self._cum[i]
        frac = 0.0 if seglen == 0 else (s - self._cum[i]) / seglen
        return self._pts[i] + frac * seg


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

    def factor(self, t: float) -> complex:
        theta = 2.0 * math.pi * (self.rpm / 60.0) * t
        return 10.0 ** (self.peak_scatter_gain_db / 20.0) * math.cos(theta) * complex(math.cos(theta), math.sin(theta))


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
    coeffs = full_bits.astype(np.int8) * 2 - 1
    configs, change_frames = {0: coeffs.copy()}, []  # first frame -> coefficients
    active = (np.arange(n_elements) if active_elements is None
              else np.asarray(sorted(active_elements), dtype=int))
    if defense_on and active.size:
        state = irsmod.IrsAlgState(cfg=irsmod.IrsConfig(full_bits[active].copy()),
                                   rng=rng_irs, **scheduler.settings())
        t = times + 1e-12
        tick = 1
        while tick / scheduler.update_rate <= t[-1]:
            state, changed = irsmod.step(state)
            if changed:
                i = int(np.searchsorted(t, tick / scheduler.update_rate))
                coeffs[active] = state.cfg.bits.astype(np.int8) * 2 - 1
                change_frames.append(i)
                configs[i] = coeffs.copy()
            tick += 1
    cfg_index = np.searchsorted(list(configs), np.arange(len(times)), side="right") - 1
    return np.array(list(configs.values())), cfg_index, change_frames


def _physical_memory() -> float:
    """Bytes of physical memory; inf where the platform does not report it."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def _session_magnitudes(scenario, defense_on, motion, duration_s,
                        scheduler: irsmod.SchedulerParams, *, stream, person_template,
                        active_elements, simulator, keep_frames=False):
    """Simulate one session; returns (|H| of shape (T, K, n_rx, n_tx), meta, frames_or_None).

    A scheduler pass and a motion pass turn the session into per-frame arrays;
    the frame engine then synthesises FRAME_CHUNK frames per call.
    """
    cells = scenario.n_subcarriers * scenario.n_rx * scenario.n_tx
    # float64 |H|, plus the complex128 frames when they are kept
    need = duration_s * scenario.sample_rate * cells * (24 if keep_frames else 8)
    memory = _physical_memory()
    if not need <= memory:  # also rejects a NaN or infinite duration
        raise ValueError(f"duration {duration_s:g} s needs {need / 2**30:.3g} GiB for its "
                         f"frames, more than the {memory / 2**30:.3g} GiB of physical memory")
    n_frames = int(round(duration_s * scenario.sample_rate))
    if n_frames < 1:
        raise ValueError("session produces no frames")
    sim = simulator if simulator is not None else FrameSimulator(scenario)
    if defense_on and sim.n_elements == 0:
        raise ScenarioError("defense requested but the scenario has no reflecting surface")

    rng_noise = _noise_rng(scenario, stream)
    times = np.arange(n_frames) / scenario.sample_rate
    configs, cfg_index, change_frames = _schedule(sim.n_elements, defense_on, times,
                                                  scenario.sample_rate, scheduler,
                                                  active_elements, _irs_rng(scenario, stream))

    person = person_xy = moving = factors = None
    if isinstance(motion, Trajectory):
        person = person_template if person_template is not None else PersonState(position=(0.0, 0.0))
        person_xy, moving = (np.array(v) for v in zip(*map(motion.locate, times.tolist())))
    elif isinstance(motion, RotatingReflector):
        factors = np.array([motion.factor(t) for t in times.tolist()])

    shape = (n_frames, scenario.n_subcarriers, scenario.n_rx, scenario.n_tx)
    mags = np.empty(shape)
    frames = np.empty(shape, dtype=complex) if keep_frames else None
    for a in range(0, n_frames, FRAME_CHUNK):
        b = min(a + FRAME_CHUNK, n_frames)
        first = cfg_index[a]
        h = sim.frames(configs[first:cfg_index[b - 1] + 1], cfg_index[a:b] - first,
                       person=person, positions=None if person is None else person_xy[a:b],
                       scatters=() if factors is None else ((motion.position, factors[a:b]),),
                       rng=rng_noise)
        if keep_frames:
            frames[a:b] = h
        mags[a:b] = np.abs(h)

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
                            margin: float = 0.75) -> np.ndarray:
    """Uniform nx-by-ny grid over the room interior."""
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
    variant. Cells run in min(jobs, cells, CPU count) worker processes.
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

    args = [(scenario, defense_on, tuple(pos), rpm, reflector_gain_db, session_s, window_s,
             subs, 100 + i, scheduler) for i, pos in enumerate(grid)]
    workers = min(jobs, len(args), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            observations = list(pool.map(_coverage_cell, args))
    else:
        observations = [_coverage_cell(a) for a in args]

    rates = np.array([sensing.detect(o, u).detection_rate for o in observations])
    rates_max = np.array([sensing.detect(o, u_max).detection_rate for o in observations])
    return CoverageResult(positions=grid, rates=rates, rates_maxref=rates_max, threshold=u,
                          threshold_maxref=u_max, c=c,
                          meta={"reference_s": reference_s, "session_s": session_s,
                                "defense_on": defense_on, "seed": scenario.seed,
                                "subcarriers": subs})


def _coverage_cell(args):
    (scenario, defense_on, pos, rpm, gain_db, session_s, window_s, subs, stream, scheduler) = args
    reflector = RotatingReflector(position=pos, rpm=rpm, peak_scatter_gain_db=gain_db)
    return run_session(scenario, defense_on, reflector, session_s, window_s=window_s,
                       subcarriers=subs, stream=stream, **scheduler)


def _sweep_cell_stats(value, obs, c=11.0) -> SweepCell:
    p01, med, p99 = np.percentile(obs.values, [1.0, 50.0, 99.0])
    return SweepCell(value=float(value), median=float(med), p01=float(p01), p99=float(p99),
                     threshold=sensing.calibrate_threshold(obs, c))


def sweep_irs_size(scenario: Scenario, active_counts, *, session_s: float = 120.0,
                   c: float = 11.0, window_s: float = 1.0, stream: int = 0,
                   **scheduler) -> SweepResult:
    """Obfuscation strength versus the number of actively scheduled elements.

    Inactive elements stay frozen at their initial random bits; the active
    subset for each count is drawn once from a count-keyed stream.
    """
    sim = FrameSimulator(scenario)
    m = sim.n_elements
    cells = []
    for count in active_counts:
        count = int(count)
        if count < 0 or count > m:
            raise ValueError(f"active count {count} out of range for {m} elements")
        if count == m:
            active = None  # identical code path to a plain defense-on session
        else:
            pick_rng = np.random.default_rng((scenario.seed, _SUBSET_STREAM, count))
            active = np.sort(pick_rng.choice(m, size=count, replace=False))
        obs = run_session(scenario, count > 0, None, session_s, window_s=window_s, stream=stream,
                          active_elements=active, simulator=sim, **scheduler)
        cells.append(_sweep_cell_stats(count, obs, c))
    return SweepResult(sweep_var="active_elements", cells=cells)


def _room_bbox(scenario: Scenario):
    pts = np.asarray([p for w in scenario.room for p in w], dtype=float)
    return pts[:, 0].min(), pts[:, 0].max(), pts[:, 1].min(), pts[:, 1].max()


def sweep_irs_distance(scenario: Scenario, distances, *, session_s: float = 120.0,
                       c: float = 11.0, window_s: float = 1.0, stream: int = 0,
                       **scheduler) -> SweepResult:
    """Obfuscation strength versus surface distance along the anchor->surface axis."""
    if scenario.irs_pos is None:
        raise ScenarioError("scenario has no reflecting surface")
    anchor = np.asarray(scenario.anchor_pos, dtype=float)
    axis = np.asarray(scenario.irs_pos, dtype=float) - anchor
    norm = np.hypot(axis[0], axis[1])
    if norm < 1e-9:
        raise ScenarioError("surface sits on the anchor; axis undefined")
    axis = axis / norm
    cells = []
    for d in distances:
        if d <= 0:
            raise ValueError("distances must be > 0")
        pos = anchor + float(d) * axis
        if scenario.room:
            x0, x1, y0, y1 = _room_bbox(scenario)
            if not (x0 <= pos[0] <= x1 and y0 <= pos[1] <= y1):
                raise ScenarioError(f"surface at distance {d} m falls outside the room")
        scn = replace(scenario, irs_pos=(float(pos[0]), float(pos[1])))
        obs = run_session(scn, True, None, session_s, window_s=window_s, stream=stream,
                          **scheduler)
        cells.append(_sweep_cell_stats(d, obs, c))
    return SweepResult(sweep_var="distance_m", cells=cells)


def sweep_irs_orientation(scenario: Scenario, angles_deg, *, session_s: float = 60.0,
                          c: float = 11.0, window_s: float = 1.0, stream: int = 0,
                          **scheduler) -> SweepResult:
    """Obfuscation strength as the surface orbits the anchor.

    The panel and its normal rotate rigidly around the anchor; 0 degrees is
    the scenario's own placement (facing the eavesdropper side).
    """
    if scenario.irs_pos is None:
        raise ScenarioError("scenario has no reflecting surface")
    anchor = np.asarray(scenario.anchor_pos, dtype=float)
    offset = np.asarray(scenario.irs_pos, dtype=float) - anchor
    dist = np.hypot(offset[0], offset[1])
    if dist < 1e-9:
        raise ScenarioError("surface sits on the anchor; orientation undefined")
    radial = offset / dist
    normal = np.asarray(scenario.irs_normal, dtype=float)
    cells = []
    for ang in angles_deg:
        a = math.radians(float(ang))
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        pos = anchor + dist * (rot @ radial)
        nrm = rot @ normal
        nrm = nrm / np.hypot(nrm[0], nrm[1])
        scn = replace(scenario, irs_pos=(float(pos[0]), float(pos[1])),
                      irs_normal=(float(nrm[0]), float(nrm[1])))
        obs = run_session(scn, True, None, session_s, window_s=window_s, stream=stream,
                          **scheduler)
        cells.append(_sweep_cell_stats(ang, obs, c))
    return SweepResult(sweep_var="angle_deg", cells=cells)


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


def blocked_flags(scenario: Scenario, positions: np.ndarray, radius: float) -> np.ndarray:
    """Per-frame flags: person within `radius` of the anchor-eve segment."""
    return point_segment_distances(np.asarray(positions, dtype=float),
                                   np.array([scenario.anchor_pos], dtype=float),
                                   np.array([scenario.eve_pos], dtype=float))[:, 0] <= radius


def window_any(flags: np.ndarray, n_w: int) -> np.ndarray:
    """Observation-sample flags: any frame flag inside each trailing window."""
    c = np.concatenate([[0], np.cumsum(flags.astype(int))])
    return (c[n_w:] - c[:-n_w]) > 0
