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
        if self.blocking_radius <= 0:
            raise ScenarioError("blocking_radius must be > 0")
        if self.blocking_depth_db < 0:
            raise ScenarioError("blocking_depth_db must be >= 0")


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


def _point_segment_distance(p, a, b) -> float:
    ab = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    ap = np.asarray(p, dtype=float) - np.asarray(a, dtype=float)
    den = float(np.dot(ab, ab))
    t = 0.0 if den == 0.0 else float(np.clip(np.dot(ap, ab) / den, 0.0, 1.0))
    closest = np.asarray(a, dtype=float) + t * ab
    return float(np.hypot(p[0] - closest[0], p[1] - closest[1]))


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
    dmin = min(_point_segment_distance(person.position, pts[i], pts[i + 1])
               for i in range(len(pts) - 1))
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
    """Per-path response tensor G[p, k, rx, tx] before weights/attenuation.

    Antenna offsets perturb each path's length through far-field projection
    onto the departure and arrival directions.
    """
    n_p = len(paths)
    freqs = scenario.subcarrier_freqs()
    lam = C_LIGHT / freqs
    axis, otx, orx = _antenna_projections(scenario)

    lengths = np.array([p.length for p in paths])
    amps = np.array([p.amp_coeff for p in paths], dtype=complex)
    lexp = np.array([p.lambda_exp for p in paths])

    dep = np.empty((n_p, 2))
    arr = np.empty((n_p, 2))
    for i, p in enumerate(paths):
        pts = p.segment_points
        dep[i] = _unit(pts[1] - pts[0])
        arr[i] = _unit(pts[-1] - pts[-2])
    proj_dep = dep @ axis
    proj_arr = arr @ axis

    # effective length per (path, rx, tx)
    d = (lengths[:, None, None]
         + proj_arr[:, None, None] * orx[None, :, None]
         - proj_dep[:, None, None] * otx[None, None, :])
    phase = np.exp(-2j * np.pi / C_LIGHT * freqs[None, :, None, None] * d[:, None, :, :])
    ampk = amps[:, None] * np.where(lexp[:, None] == 1, lam[None, :], lam[None, :] ** 2)
    return ampk[:, :, None, None] * phase


def _sum_response(paths, weights, scenario: Scenario) -> np.ndarray:
    if len(paths) == 0:
        return np.zeros((scenario.n_subcarriers, scenario.n_rx, scenario.n_tx), dtype=complex)
    g = _path_tensors(paths, scenario)
    w = np.asarray(weights, dtype=complex)
    return np.tensordot(w, g, axes=(0, 0))


def frame_noise_rng(seed: int, t_index: int) -> np.random.Generator:
    """Canonical per-frame noise generator; keyed so frames replay exactly."""
    return np.random.default_rng((seed, _NOISE_TAG, t_index))


def noise_std(scenario: Scenario, static_paths: PathSet) -> float:
    """Per-entry complex noise std calibrated on the unblocked, surface-off frame."""
    if math.isinf(scenario.snr_db):
        return 0.0
    h_env = _sum_response(list(static_paths), np.ones(len(static_paths)), scenario)
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
        sigma = noise_std(scenario, static_paths)
        rng = frame_noise_rng(scenario.seed, t_index)
        shape = values.shape
        values = values + (sigma / math.sqrt(2.0)) * (rng.standard_normal(shape)
                                                      + 1j * rng.standard_normal(shape))
    if not np.all(np.isfinite(values)):
        raise ScenarioError("non-finite channel values")
    return CsiFrame(t_index=t_index, values=values)


class FrameSimulator:
    """Precomputed fast path for generating long frame streams.

    Produces frames identical to channel_response() for the same inputs but
    amortizes path-tensor construction and segment geometry across a session.
    """

    def __init__(self, scenario: Scenario, static_paths: PathSet | None = None,
                 irs_paths: PathSet | None = None):
        self.scenario = scenario
        self.static_paths = static_paths if static_paths is not None else build_static_paths(scenario)
        if irs_paths is None and scenario.irs_pos is not None:
            irs_paths = build_irs_paths(scenario, grid_layout(scenario))
        self.irs_paths = irs_paths if irs_paths is not None else PathSet([])

        env = list(self.static_paths)
        irs = list(self.irs_paths)
        self._g_env = _path_tensors(env, scenario) if env else None
        self._g_irs = _path_tensors(irs, scenario) if irs else None
        self._irs_elements = np.array([p.element for p in irs], dtype=int) if irs else np.empty(0, int)
        self.n_elements = len(irs)
        self.h_env = (np.tensordot(np.ones(len(env), dtype=complex), self._g_env, axes=(0, 0))
                      if env else np.zeros((scenario.n_subcarriers, scenario.n_rx, scenario.n_tx),
                                           dtype=complex))
        self.noise_std = noise_std(scenario, self.static_paths)

        self._seg_a, self._seg_b, self._seg_path = self._segment_arrays(env + irs)
        self._n_env = len(env)
        self._scatter_cache = {}
        self._irs_coeff_cache = None
        self._h_irs_cache = None

    @staticmethod
    def _segment_arrays(paths):
        seg_a, seg_b, seg_path = [], [], []
        for i, p in enumerate(paths):
            pts = p.segment_points
            for j in range(len(pts) - 1):
                seg_a.append(pts[j])
                seg_b.append(pts[j + 1])
                seg_path.append(i)
        if not seg_a:
            return np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0, dtype=int)
        return np.asarray(seg_a), np.asarray(seg_b), np.asarray(seg_path, dtype=int)

    def _attenuations(self, person: PersonState) -> np.ndarray:
        n_paths = self._n_env + self.n_elements
        atten = np.ones(n_paths)
        if self._seg_a.shape[0] == 0:
            return atten
        p = np.asarray(person.position, dtype=float)
        ab = self._seg_b - self._seg_a
        ap = p[None, :] - self._seg_a
        den = np.einsum("ij,ij->i", ab, ab)
        t = np.clip(np.einsum("ij,ij->i", ap, ab) / np.where(den == 0, 1.0, den), 0.0, 1.0)
        closest = self._seg_a + t[:, None] * ab
        d = np.hypot(p[0] - closest[:, 0], p[1] - closest[:, 1])
        dmin = np.full(n_paths, np.inf)
        np.minimum.at(dmin, self._seg_path, d)
        s = np.clip(1.0 - dmin / person.blocking_radius, 0.0, 1.0)
        blocked = s > 0.0
        atten[blocked] = 10.0 ** (-person.blocking_depth_db * s[blocked] / 20.0)
        return atten

    def scatter_tensor(self, position) -> np.ndarray:
        """Unit-gain scatter response for a bounce at `position` (cached)."""
        key = (round(float(position[0]), 12), round(float(position[1]), 12))
        cached = self._scatter_cache.get(key)
        if cached is None:
            path = scatter_path(self.scenario, position, 1.0)
            cached = _path_tensors([path], self.scenario)[0]
            if len(self._scatter_cache) > 64:
                self._scatter_cache.clear()
            self._scatter_cache[key] = cached
        return cached

    def _h_irs(self, coeffs: np.ndarray) -> np.ndarray:
        if self._irs_coeff_cache is not None and np.array_equal(coeffs, self._irs_coeff_cache):
            return self._h_irs_cache
        h = np.tensordot(coeffs.astype(complex), self._g_irs, axes=(0, 0))
        self._irs_coeff_cache = coeffs.copy()
        self._h_irs_cache = h
        return h

    def frame(self, coeffs: np.ndarray | None = None, person: PersonState | None = None,
              scatters=(), rng=None) -> np.ndarray:
        """Channel values (K, n_rx, n_tx) for one frame.

        coeffs: per-element reflection coefficients (+-1 and 0 for inactive),
        or None for surface off. scatters: (position, complex_factor) extras,
        e.g. a modulated rotating reflector.
        """
        if coeffs is not None and len(coeffs) != self.n_elements:
            raise ValueError(f"coefficient vector length {len(coeffs)} != {self.n_elements} elements")
        if person is not None and person.present:
            atten = self._attenuations(person)
            h = np.tensordot(atten[:self._n_env].astype(complex), self._g_env, axes=(0, 0)) \
                if self._n_env else np.zeros_like(self.h_env)
            if self.n_elements and coeffs is not None:
                w = coeffs[self._irs_elements] * atten[self._n_env:]
                h = h + np.tensordot(w.astype(complex), self._g_irs, axes=(0, 0))
            factor = 10.0 ** (person.scatter_gain_db / 20.0)
            h = h + factor * self.scatter_tensor(person.position)
        else:
            h = self.h_env
            if self.n_elements and coeffs is not None:
                h = h + self._h_irs(np.asarray(coeffs, dtype=float))
        for position, factor in scatters:
            h = h + complex(factor) * self.scatter_tensor(position)
        if self.noise_std > 0.0:
            if rng is None:
                raise ValueError("rng required for noisy frames")
            shape = h.shape
            h = h + (self.noise_std / math.sqrt(2.0)) * (rng.standard_normal(shape)
                                                         + 1j * rng.standard_normal(shape))
        elif h is self.h_env:
            h = h.copy()
        return h
