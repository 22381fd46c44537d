"""Geometric multipath channel simulator for indoor Wi-Fi sensing studies.

Rooms are 2D wall-segment layouts. The anchor-to-eavesdropper channel is a sum
of a line-of-sight ray, first-order specular wall reflections (image method),
per-element reflecting-surface bounces, and an optional human scatter bounce.
Frames are MIMO-OFDM channel estimates with calibrated additive noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

C_LIGHT = 299_792_458.0

# Path kinds
LOS = "los"
WALL = "wall"
IRS = "irs"
SCATTER = "scatter"

# Sub-stream tag for per-frame noise generators (see frame_noise_rng).
_NOISE_TAG = 0x0E


class ScenarioError(ValueError):
    """Geometrically or physically invalid scenario."""


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.hypot(v[0], v[1]))
    if n < 1e-12:
        raise ScenarioError("zero-length direction vector")
    return v / n


def _perp(v) -> np.ndarray:
    return np.array([-v[1], v[0]], dtype=float)


def rect_room(width: float, height: float) -> list:
    """Four wall segments of an axis-aligned rectangle with corner at (0, 0)."""
    return [
        ((0.0, 0.0), (width, 0.0)),
        ((width, 0.0), (width, height)),
        ((width, height), (0.0, height)),
        ((0.0, height), (0.0, 0.0)),
    ]


@dataclass
class Scenario:
    """Static description of one room / radio setup.

    Geometry is 2D (meters). The reflecting surface is a flat panel whose
    element grid spans `irs_panel` (width x height); the panel width lies in
    the room plane along the tangent of `irs_normal`, panel rows carry an
    out-of-plane height offset so all elements have distinct path lengths.
    """

    anchor_pos: tuple
    eve_pos: tuple
    room: list = field(default_factory=list)
    irs_pos: tuple | None = None
    irs_normal: tuple | None = None
    irs_grid: tuple = (16, 16)
    irs_panel: tuple = (0.43, 0.35)
    n_tx: int = 3
    n_rx: int = 3
    antenna_spacing: float | None = None  # None -> half wavelength
    carrier_freq: float = 5.32e9
    n_subcarriers: int = 56
    subcarrier_spacing: float = 312.5e3
    sample_rate: float = 70.0
    snr_db: float = 30.0
    wall_reflection_loss_db: float = 6.0
    seed: int = 1

    def __post_init__(self):
        for name in ("anchor_pos", "eve_pos", "room", "irs_pos", "irs_normal", "irs_panel",
                     "antenna_spacing", "carrier_freq", "subcarrier_spacing", "sample_rate",
                     "wall_reflection_loss_db"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ScenarioError(f"{name} must be finite, got {value!r}")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ScenarioError(f"snr_db must be finite or +inf, got {self.snr_db!r}")
        if self.n_tx < 1 or self.n_rx < 1:
            raise ScenarioError("antenna counts must be >= 1")
        if self.n_subcarriers < 1:
            raise ScenarioError("n_subcarriers must be >= 1")
        if self.sample_rate <= 0:
            raise ScenarioError("sample_rate must be > 0")
        if self.carrier_freq <= 0:
            raise ScenarioError("carrier_freq must be > 0")
        if self.subcarrier_spacing <= 0:
            raise ScenarioError("subcarrier_spacing must be > 0")
        if not isinstance(self.seed, int) or self.seed < 0 or self.seed >= 2 ** 64:
            raise ScenarioError("seed must be an unsigned 64-bit integer")
        if (self.irs_pos is None) != (self.irs_normal is None):
            raise ScenarioError("irs_pos and irs_normal must be given together")
        if self.irs_normal is not None:
            n = math.hypot(self.irs_normal[0], self.irs_normal[1])
            if abs(n - 1.0) > 1e-9:
                raise ScenarioError("irs_normal must have unit norm")
        if self.irs_grid[0] < 1 or self.irs_grid[1] < 1:
            raise ScenarioError("irs_grid counts must be >= 1")
        if self.irs_panel[0] <= 0 or self.irs_panel[1] <= 0:
            raise ScenarioError(f"irs_panel sizes must be > 0, got {self.irs_panel!r}")

    @property
    def wavelength(self) -> float:
        return C_LIGHT / self.carrier_freq

    @property
    def spacing(self) -> float:
        return self.antenna_spacing if self.antenna_spacing is not None else self.wavelength / 2.0

    @property
    def n_elements(self) -> int:
        return self.irs_grid[0] * self.irs_grid[1]

    def subcarrier_freqs(self) -> np.ndarray:
        k = np.arange(self.n_subcarriers, dtype=float)
        return self.carrier_freq + (k - self.n_subcarriers / 2.0) * self.subcarrier_spacing


@dataclass
class PersonState:
    """Position and RF interaction parameters of one person in the room."""

    position: tuple
    present: bool = True
    scatter_gain_db: float = -5.0
    blocking_radius: float = 0.4
    blocking_depth_db: float = 10.0

    def __post_init__(self):
        if not (0 < self.blocking_radius < math.inf):
            raise ScenarioError(
                f"blocking_radius must be finite and > 0, got {self.blocking_radius!r}")
        if not (0 <= self.blocking_depth_db < math.inf):
            raise ScenarioError(
                f"blocking_depth_db must be finite and >= 0, got {self.blocking_depth_db!r}")
        if not (self.scatter_gain_db < math.inf):  # -inf scatters nothing
            raise ScenarioError(f"scatter_gain_db must be below +inf, got {self.scatter_gain_db!r}")


@dataclass
class Path:
    """One propagation route with its frequency-dependent complex gain.

    Its gain at frequency f is
    amp_coeff * (c/f)**lambda_exp * exp(-2j*pi*f*length/c), so amp_coeff
    carries every frequency-independent factor (reflection loss, obliquity
    cosines, product path-loss denominator, scatter scaling).
    """

    kind: str
    segment_points: np.ndarray  # (n, 2) route vertices, anchor first, eve last
    length: float
    amp_coeff: complex
    lambda_exp: int
    base_gain: complex = 0.0 + 0.0j  # gain evaluated at the carrier frequency
    blocked_atten: float = 1.0
    element: int | None = None


class PathSet:
    """Ordered collection of propagation paths."""

    def __init__(self, paths):
        self.paths = list(paths)

    def __len__(self):
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __getitem__(self, i):
        return self.paths[i]


@dataclass
class CsiFrame:
    """One channel estimate: complex values indexed (subcarrier, rx, tx)."""

    t_index: int
    values: np.ndarray


@dataclass
class IrsLayout:
    """World-frame element coordinates of the reflecting surface.

    `heights` are out-of-plane offsets; they lengthen both legs of each
    element path but do not move the 2D route used for blocking geometry.
    """

    positions: np.ndarray  # (M, 2)
    heights: np.ndarray    # (M,)

    def __len__(self):
        return self.positions.shape[0]


def grid_layout(scenario: Scenario) -> IrsLayout:
    """Element layout for the scenario's panel grid, centered on irs_pos."""
    if scenario.irs_pos is None:
        raise ScenarioError("scenario has no reflecting surface")
    nx, ny = scenario.irs_grid
    width, height = scenario.irs_panel
    tangent = _perp(_unit(scenario.irs_normal))
    u = ((np.arange(nx) + 0.5) / nx - 0.5) * width
    v = ((np.arange(ny) + 0.5) / ny - 0.5) * height
    pos = np.empty((nx * ny, 2))
    hgt = np.empty(nx * ny)
    center = np.asarray(scenario.irs_pos, dtype=float)
    for i in range(ny):
        for j in range(nx):
            m = i * nx + j
            pos[m] = center + u[j] * tangent
            hgt[m] = v[i]
    return IrsLayout(positions=pos, heights=hgt)


# ---------------------------------------------------------------------------
# 2D segment geometry

_EPS = 1e-9


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, c) -> bool:
    return (min(a[0], b[0]) - _EPS <= c[0] <= max(a[0], b[0]) + _EPS
            and min(a[1], b[1]) - _EPS <= c[1] <= max(a[1], b[1]) + _EPS)


def _segments_intersect(p1, p2, q1, q2) -> bool:
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    scale = max(abs(p2[0] - p1[0]), abs(p2[1] - p1[1]), abs(q2[0] - q1[0]), abs(q2[1] - q1[1]), 1.0)
    tol = _EPS * scale
    if abs(d1) <= tol and _on_segment(q1, q2, p1):
        return True
    if abs(d2) <= tol and _on_segment(q1, q2, p2):
        return True
    if abs(d3) <= tol and _on_segment(p1, p2, q1):
        return True
    if abs(d4) <= tol and _on_segment(p1, p2, q2):
        return True
    return False


def _mirror(p, a, b) -> np.ndarray:
    d = _unit(np.asarray(b) - np.asarray(a))
    ap = np.asarray(p, dtype=float) - np.asarray(a, dtype=float)
    along = np.dot(ap, d) * d
    return np.asarray(a, dtype=float) + along - (ap - along)


def _reflection_point(anchor, eve, a, b):
    """Specular bounce point of anchor->wall->eve, or None if geometry invalid."""
    s1 = _orient(a, b, anchor)
    s2 = _orient(a, b, eve)
    if abs(s1) < _EPS or abs(s2) < _EPS or (s1 > 0) != (s2 > 0):
        return None
    img = _mirror(anchor, a, b)
    r = np.asarray(eve, dtype=float) - img
    s = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < _EPS:
        return None
    w = np.asarray(a, dtype=float) - img
    t = (w[0] * s[1] - w[1] * s[0]) / denom
    u = (w[0] * r[1] - w[1] * r[0]) / denom
    if not (_EPS < t < 1.0 - _EPS and _EPS < u < 1.0 - _EPS):
        return None
    return img + t * r


# ---------------------------------------------------------------------------
# Path construction

def build_static_paths(scenario: Scenario) -> PathSet:
    """LOS (when unobstructed) plus one first-order bounce per wall segment."""
    anchor = np.asarray(scenario.anchor_pos, dtype=float)
    eve = np.asarray(scenario.eve_pos, dtype=float)
    if np.hypot(*(anchor - eve)) < 1e-9:
        raise ScenarioError("anchor and eavesdropper positions coincide")
    fc = scenario.carrier_freq
    lam = scenario.wavelength
    paths = []

    blocked = any(_segments_intersect(anchor, eve, np.asarray(w[0], float), np.asarray(w[1], float))
                  for w in scenario.room)
    if not blocked:
        d = float(np.hypot(*(eve - anchor)))
        amp = 1.0 / (4.0 * np.pi * d)
        paths.append(Path(
            kind=LOS,
            segment_points=np.array([anchor, eve]),
            length=d,
            amp_coeff=complex(amp),
            lambda_exp=1,
            base_gain=complex(amp) * lam * np.exp(-2j * np.pi * fc * d / C_LIGHT),
        ))

    gamma = 10.0 ** (-scenario.wall_reflection_loss_db / 20.0)
    for a, b in scenario.room:
        pt = _reflection_point(anchor, eve, np.asarray(a, float), np.asarray(b, float))
        if pt is None:
            continue
        d = float(np.hypot(*(pt - anchor)) + np.hypot(*(eve - pt)))
        amp = gamma / (4.0 * np.pi * d)
        paths.append(Path(
            kind=WALL,
            segment_points=np.array([anchor, pt, eve]),
            length=d,
            amp_coeff=complex(amp),
            lambda_exp=1,
            base_gain=complex(amp) * lam * np.exp(-2j * np.pi * fc * d / C_LIGHT),
        ))
    return PathSet(paths)


def build_irs_paths(scenario: Scenario, irs_layout: IrsLayout) -> PathSet:
    """One element path per surface element, anchor -> element -> eve.

    Gain is the product path loss lambda^2 / ((4 pi)^2 d1 d2) with cosine
    obliquity factors for incidence and departure; elements facing away from
    an endpoint keep their path with zero gain.
    """
    anchor = np.asarray(scenario.anchor_pos, dtype=float)
    eve = np.asarray(scenario.eve_pos, dtype=float)
    normal = np.asarray(scenario.irs_normal, dtype=float)
    fc = scenario.carrier_freq
    lam = scenario.wavelength
    paths = []
    for m in range(len(irs_layout)):
        elem = irs_layout.positions[m]
        h = float(irs_layout.heights[m])
        v1 = anchor - elem
        v2 = eve - elem
        d1 = float(math.sqrt(v1[0] ** 2 + v1[1] ** 2 + h * h))
        d2 = float(math.sqrt(v2[0] ** 2 + v2[1] ** 2 + h * h))
        if d1 < 1e-9 or d2 < 1e-9:
            raise ScenarioError("surface element coincides with an endpoint")
        cos1 = max(0.0, float(np.dot(normal, v1)) / d1)
        cos2 = max(0.0, float(np.dot(normal, v2)) / d2)
        length = d1 + d2
        amp = cos1 * cos2 / ((4.0 * np.pi) ** 2 * d1 * d2)
        paths.append(Path(
            kind=IRS,
            segment_points=np.array([anchor, elem, eve]),
            length=length,
            amp_coeff=complex(amp),
            lambda_exp=2,
            base_gain=complex(amp) * lam ** 2 * np.exp(-2j * np.pi * fc * length / C_LIGHT),
            element=m,
        ))
    return PathSet(paths)


def scatter_path(scenario: Scenario, position, gain_factor: complex) -> Path:
    """Single-bounce scatter route anchor -> position -> eve.

    `gain_factor` scales the product path loss; it may be complex (used for
    modulated reflectors).
    """
    anchor = np.asarray(scenario.anchor_pos, dtype=float)
    eve = np.asarray(scenario.eve_pos, dtype=float)
    p = np.asarray(position, dtype=float)
    d1 = float(np.hypot(*(p - anchor)))
    d2 = float(np.hypot(*(eve - p)))
    if d1 < 1e-9 or d2 < 1e-9:
        raise ScenarioError("scatter point coincides with an endpoint")
    length = d1 + d2
    amp = complex(gain_factor) / ((4.0 * np.pi) ** 2 * d1 * d2)
    return Path(
        kind=SCATTER,
        segment_points=np.array([anchor, p, eve]),
        length=length,
        amp_coeff=amp,
        lambda_exp=2,
        base_gain=amp * scenario.wavelength ** 2
        * np.exp(-2j * np.pi * scenario.carrier_freq * length / C_LIGHT),
    )


def _blocking_atten(path: Path, person: PersonState) -> float:
    pts = path.segment_points
    dmin = point_segment_distances(np.array([person.position], dtype=float), pts[:-1], pts[1:]).min()
    if dmin >= person.blocking_radius:
        return 1.0
    s = 1.0 - dmin / person.blocking_radius
    return 10.0 ** (-person.blocking_depth_db * s / 20.0)


def apply_motion(paths: PathSet, person: PersonState | None, scenario: Scenario) -> PathSet:
    """Attenuate paths blocked by the person and append their scatter path.

    Attenuation ramps linearly inside the blocking radius, reaching the full
    blocking depth on the route itself.
    """
    if person is None or not person.present:
        return PathSet([replace(p, blocked_atten=1.0) for p in paths])
    out = [replace(p, blocked_atten=_blocking_atten(p, person)) for p in paths]
    out.append(scatter_path(scenario, person.position, 10.0 ** (person.scatter_gain_db / 20.0)))
    return PathSet(out)


# ---------------------------------------------------------------------------
# Frame synthesis

def _antenna_projections(scenario: Scenario):
    """Scalar antenna offsets along the array axis (perpendicular to the LOS)."""
    axis = _perp(_unit(np.asarray(scenario.eve_pos, float) - np.asarray(scenario.anchor_pos, float)))
    otx = (np.arange(scenario.n_tx) - (scenario.n_tx - 1) / 2.0) * scenario.spacing
    orx = (np.arange(scenario.n_rx) - (scenario.n_rx - 1) / 2.0) * scenario.spacing
    return axis, otx, orx


def _path_tensors(paths, scenario: Scenario) -> np.ndarray:
    """Per-path response tensor G[p, k, rx, tx] before weights/attenuation."""
    routes = [p.segment_points for p in paths]
    return _tensors(np.array([p.length for p in paths]),
                    np.array([p.amp_coeff for p in paths], dtype=complex),
                    np.array([p.lambda_exp for p in paths]),
                    np.array([_unit(r[1] - r[0]) for r in routes]).reshape(-1, 2),
                    np.array([_unit(r[-1] - r[-2]) for r in routes]).reshape(-1, 2), scenario)


def _tensors(lengths, amps, lexp, dep, arr, scenario: Scenario) -> np.ndarray:
    """Response tensors G[p, k, rx, tx] from per-path arrays: route length,
    frequency-independent complex amplitude, wavelength exponent, and unit
    departure and arrival directions (P, 2).

    Antenna offsets perturb each path's length through far-field projection
    onto the departure and arrival directions.
    """
    freqs = scenario.subcarrier_freqs()
    lam = C_LIGHT / freqs
    axis, otx, orx = _antenna_projections(scenario)
    proj_dep = dep @ axis
    proj_arr = arr @ axis

    # effective length per (path, rx, tx)
    d = (lengths[:, None, None]
         + proj_arr[:, None, None] * orx[None, :, None]
         - proj_dep[:, None, None] * otx[None, None, :])
    phase = np.exp(-2j * np.pi / C_LIGHT * freqs[None, :, None, None] * d[:, None, :, :])
    ampk = amps[:, None] * np.where(lexp[:, None] == 1, lam[None, :], lam[None, :] ** 2)
    return ampk[:, :, None, None] * phase


def _scatter_tensors(scenario: Scenario, positions) -> np.ndarray:
    """Unit-gain scatter responses (T, K, n_rx, n_tx) for bounces at positions
    (T, 2): _path_tensors of scatter_path(scenario, position, 1.0) for each."""
    to_p = positions - np.asarray(scenario.anchor_pos, dtype=float)
    to_eve = np.asarray(scenario.eve_pos, dtype=float) - positions
    d1 = np.hypot(to_p[:, 0], to_p[:, 1])
    d2 = np.hypot(to_eve[:, 0], to_eve[:, 1])
    if np.any(d1 < 1e-9) or np.any(d2 < 1e-9):
        raise ScenarioError("scatter point coincides with an endpoint")
    amps = (1.0 / ((4.0 * np.pi) ** 2 * d1 * d2)).astype(complex)
    return _tensors(d1 + d2, amps, np.full(len(d1), 2), to_p / d1[:, None],
                    to_eve / d2[:, None], scenario)


def point_segment_distances(points, seg_a, seg_b) -> np.ndarray:
    """Distances (T, S) from points (T, 2) to the segments seg_a -> seg_b (S, 2)."""
    ab = seg_b - seg_a
    den = np.einsum("ij,ij->i", ab, ab)
    apx = points[:, :1] - seg_a[:, 0]
    apy = points[:, 1:] - seg_a[:, 1]
    t = np.clip((apx * ab[:, 0] + apy * ab[:, 1]) / np.where(den == 0, 1.0, den), 0.0, 1.0)
    return np.hypot(points[:, :1] - (seg_a[:, 0] + t * ab[:, 0]),
                    points[:, 1:] - (seg_a[:, 1] + t * ab[:, 1]))


def _sum_response(paths, weights, scenario: Scenario) -> np.ndarray:
    g = _path_tensors(paths, scenario)
    w = np.asarray(weights, dtype=complex)
    return np.tensordot(w, g, axes=(0, 0))


def frame_noise_rng(seed: int, t_index: int) -> np.random.Generator:
    """Canonical per-frame noise generator; keyed so frames replay exactly."""
    return np.random.default_rng((seed, _NOISE_TAG, t_index))


def noise_std(scenario: Scenario, h_env: np.ndarray) -> float:
    """Per-entry complex noise std calibrated on h_env, the noiseless
    unblocked, surface-off frame (K, n_rx, n_tx)."""
    if math.isinf(scenario.snr_db):
        return 0.0
    p_sig = float(np.mean(np.abs(h_env) ** 2))
    return math.sqrt(p_sig * 10.0 ** (-scenario.snr_db / 10.0))


def channel_response(static_paths: PathSet, irs_paths: PathSet, irs_config, person,
                     scenario: Scenario, t_index: int) -> CsiFrame:
    """One noisy MIMO-OFDM frame for the given environment and surface state.

    irs_config maps bits {0,1} to reflection coefficients {-1,+1}; None turns
    the surface contribution off (zero coefficients). The noise stream is
    derived from (scenario.seed, t_index), so a frame regenerates bit-identically.
    """
    from .irs import map_config  # local import to avoid a module cycle

    irs_list = list(irs_paths) if irs_paths is not None else []
    n_elem = sum(1 for p in irs_list if p.kind == IRS)
    if irs_config is not None and len(irs_config.bits) != n_elem:
        raise ValueError(
            f"surface config length {len(irs_config.bits)} does not match {n_elem} element paths")

    moved = apply_motion(PathSet(list(static_paths) + irs_list), person, scenario)
    coeffs = map_config(irs_config) if irs_config is not None else None
    weights = np.empty(len(moved), dtype=complex)
    for i, p in enumerate(moved):
        if p.kind == IRS:
            weights[i] = 0.0 if coeffs is None else coeffs[p.element]
        else:
            weights[i] = 1.0
        weights[i] *= p.blocked_atten
    values = _sum_response(list(moved), weights, scenario)

    if not math.isinf(scenario.snr_db):
        sigma = noise_std(scenario, _sum_response(list(static_paths), np.ones(len(static_paths)),
                                                  scenario))
        rng = frame_noise_rng(scenario.seed, t_index)
        shape = values.shape
        values = values + (sigma / math.sqrt(2.0)) * (rng.standard_normal(shape)
                                                      + 1j * rng.standard_normal(shape))
    if not np.all(np.isfinite(values)):
        raise ScenarioError("non-finite channel values")
    return CsiFrame(t_index=t_index, values=values)


class FrameSimulator:
    """Array frame engine for long frame streams.

    Produces frames equal to channel_response() for the same inputs, but
    builds the path tensors and segment geometry once and synthesises many
    frames per call.
    """

    def __init__(self, scenario: Scenario, static_paths: PathSet | None = None,
                 irs_paths: PathSet | None = None):
        self.scenario = scenario
        env = list(static_paths if static_paths is not None else build_static_paths(scenario))
        if irs_paths is None and scenario.irs_pos is not None:
            irs_paths = build_irs_paths(scenario, grid_layout(scenario))
        irs = list(irs_paths if irs_paths is not None else [])
        self._g_env = _path_tensors(env, scenario)
        self._g_irs = _path_tensors(irs, scenario)
        self._irs_elements = np.array([p.element for p in irs], dtype=int)
        self._n_env = len(env)
        self.n_elements = len(irs)
        self.h_env = np.tensordot(np.ones(len(env), dtype=complex), self._g_env, axes=(0, 0))
        self.noise_std = noise_std(scenario, self.h_env)

        # route segments of every path, environment first; path i owns the
        # segments from _seg_start[i] up to the next path's start
        routes = [p.segment_points for p in env + irs]
        self._seg_a = np.concatenate([r[:-1] for r in routes] + [np.zeros((0, 2))])
        self._seg_b = np.concatenate([r[1:] for r in routes] + [np.zeros((0, 2))])
        self._seg_start = np.cumsum([0] + [len(r) - 1 for r in routes])[:-1]

    def _attenuations(self, person: PersonState, positions) -> np.ndarray:
        """Blocking attenuation (T, paths) with the person at each of positions (T, 2)."""
        dmin = np.minimum.reduceat(point_segment_distances(positions, self._seg_a, self._seg_b),
                                   self._seg_start, axis=1)
        s = np.clip(1.0 - dmin / person.blocking_radius, 0.0, 1.0)
        return np.where(s > 0.0, 10.0 ** (-person.blocking_depth_db * s / 20.0), 1.0)

    def frames(self, configs, cfg_index, *, person: PersonState | None = None, positions=None,
               scatters=(), rng=None) -> np.ndarray:
        """Channel values (T, K, n_rx, n_tx) for T frames.

        configs: distinct per-element reflection coefficient vectors (C, M),
        +-1 and 0 for inactive, or None for surface off; cfg_index (T,) gives
        each frame's row and fixes T. person: blocking and scatter parameters
        of a person standing at positions (T, 2), or None. scatters:
        (position, factors (T,)) extras, e.g. a modulated rotating reflector.
        Noise is one draw of shape (T, 2, K, n_rx, n_tx) from rng, the same
        stream as T single-frame draws of the real and then the imaginary part.
        """
        n = len(cfg_index)
        if configs is not None and configs.shape[1] != self.n_elements:
            raise ValueError(
                f"coefficient vector length {configs.shape[1]} != {self.n_elements} elements")
        if self.noise_std > 0.0 and rng is None:
            raise ValueError("rng required for noisy frames")
        if person is not None:
            atten = self._attenuations(person, positions)
            h = np.tensordot(atten[:, :self._n_env].astype(complex), self._g_env, axes=(1, 0))
            if configs is not None:
                w = configs[cfg_index][:, self._irs_elements] * atten[:, self._n_env:]
                h = h + np.tensordot(w.astype(complex), self._g_irs, axes=(1, 0))
            gain = 10.0 ** (person.scatter_gain_db / 20.0)
            h = h + gain * _scatter_tensors(self.scenario, positions)
        elif configs is not None:
            h_irs = np.stack([np.tensordot(c.astype(complex), self._g_irs, axes=(0, 0))
                              for c in configs])
            h = self.h_env + h_irs[cfg_index]
        else:
            h = np.repeat(self.h_env[None], n, axis=0)
        for position, factors in scatters:
            unit = _scatter_tensors(self.scenario, np.array([position], dtype=float))
            h = h + np.asarray(factors, dtype=complex)[:, None, None, None] * unit
        if self.noise_std > 0.0:
            z = rng.standard_normal((n, 2) + self.h_env.shape)
            h = h + (self.noise_std / math.sqrt(2.0)) * (z[:, 0] + 1j * z[:, 1])
        return h

    def frame(self, coeffs: np.ndarray | None = None, person: PersonState | None = None,
              scatters=(), rng=None) -> np.ndarray:
        """Channel values (K, n_rx, n_tx) for one frame: frames() with T = 1.

        coeffs: per-element reflection coefficients (+-1 and 0 for inactive),
        or None for surface off. scatters: (position, complex_factor) extras.
        """
        present = person is not None and person.present
        return self.frames(None if coeffs is None else np.asarray(coeffs, dtype=float)[None],
                           np.zeros(1, dtype=int), person=person if present else None,
                           positions=np.array([person.position], dtype=float) if present else None,
                           scatters=[(position, [factor]) for position, factor in scatters],
                           rng=rng)[0]
