"""Geometric multipath channel simulator for indoor Wi-Fi sensing studies.

Rooms are 2D wall-segment layouts. The anchor-to-eavesdropper channel is a sum
of a line-of-sight ray, first-order specular wall reflections (image method),
per-element reflecting-surface bounces, and an optional human scatter bounce.
Frames are MIMO-OFDM channel estimates with calibrated additive noise. The
moving scene, a walking person (Trajectory) or a rotating reflector, lives here.
"""
from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

C_LIGHT = 299_792_458.0

# Path kinds
LOS = "los"
WALL = "wall"
IRS = "irs"
SCATTER = "scatter"


class ScenarioError(ValueError):
    """Geometrically or physically invalid scenario."""


def _unit(v) -> np.ndarray:
    """v (..., 2) scaled to unit length along its last axis."""
    v = np.asarray(v, dtype=float)
    n = np.hypot(v[..., 0], v[..., 1])
    if np.any(n < 1e-12):
        raise ScenarioError("zero-length direction vector")
    return v / n[..., None]


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


def room_box(scenario: Scenario):
    """Lower and upper corners (2,) of the room walls' bounding box; of the anchor and the
    eavesdropper when the scenario has no walls."""
    pts = np.asarray([p for w in scenario.room for p in w] if scenario.room
                     else [scenario.anchor_pos, scenario.eve_pos], dtype=float)
    return pts.min(axis=0), pts.max(axis=0)


def in_room(scenario: Scenario, points) -> bool:
    """Whether every point (..., 2) lies in the room walls' bounding box; a scenario
    without walls takes any point."""
    lo, hi = room_box(scenario)
    return not scenario.room or bool(np.all((lo <= points) & (points <= hi)))


@dataclass
class PersonState:
    """RF interaction parameters of one person in the room.

    position is ignored: sessions and FrameSimulator.frame take the person's
    positions as an array, one row per frame.
    """

    position: tuple
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


@dataclass
class Paths:
    """Propagation paths as arrays, one row per path.

    Path p's gain at frequency f is
    amp[p] * (c/f)**lambda_exp[p] * exp(-2j*pi*f*length[p]/c), so amp carries
    every frequency-independent factor (reflection loss, obliquity cosines,
    product path-loss denominator, scatter scaling). dep and arr are the unit
    directions of the route's first and last segments. The route of path p is
    anchor -> via[p] -> eve; a LOS path's via is the anchor.
    """

    kind: np.ndarray        # (P,) LOS, WALL, IRS or SCATTER
    length: np.ndarray      # (P,)
    amp: np.ndarray         # (P,) complex
    lambda_exp: np.ndarray  # (P,)
    dep: np.ndarray         # (P, 2)
    arr: np.ndarray         # (P, 2)
    via: np.ndarray         # (P, 2)

    def __len__(self):
        return self.length.shape[0]


def _routes(kind: str, length, amp, lambda_exp: int, points) -> Paths:
    """Paths along routes of equal vertex count, points (P, 2 or 3, 2): anchor, [via,] eve."""
    p = points.shape[0]
    return Paths(kind=np.full(p, kind), length=np.asarray(length, dtype=float),
                 amp=np.asarray(amp, dtype=complex), lambda_exp=np.full(p, lambda_exp),
                 dep=_unit(points[:, 1] - points[:, 0]), arr=_unit(points[:, -1] - points[:, -2]),
                 via=points[:, -2])


def _join(first: Paths, second: Paths) -> Paths:
    """The rows of first, then those of second."""
    return Paths(**{f.name: np.concatenate([getattr(first, f.name), getattr(second, f.name)])
                    for f in fields(Paths)})


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
    """Element layout for the scenario's panel grid, centered on irs_pos.

    Element m = i * nx + j sits in row i and column j of the grid.
    """
    if scenario.irs_pos is None:
        raise ScenarioError("scenario has no reflecting surface")
    nx, ny = scenario.irs_grid
    width, height = scenario.irs_panel
    tangent = _perp(_unit(scenario.irs_normal))
    u = ((np.arange(nx) + 0.5) / nx - 0.5) * width
    v = ((np.arange(ny) + 0.5) / ny - 0.5) * height
    center = np.asarray(scenario.irs_pos, dtype=float)
    return IrsLayout(positions=center + np.tile(u, ny)[:, None] * tangent,
                     heights=np.repeat(v, nx))


# ---------------------------------------------------------------------------
# 2D segment geometry, each function over an array of walls a -> b (W, 2)

_EPS = 1e-9


def _orient(a, b, c) -> np.ndarray:
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _on_segment(a, b, c) -> np.ndarray:
    lo, hi = np.minimum(a, b) - _EPS, np.maximum(a, b) + _EPS
    return np.all((lo <= c) & (c <= hi), axis=-1)


def _crossed(p1, p2, a, b) -> np.ndarray:
    """Whether the segment p1 -> p2 touches each wall."""
    d1 = _orient(a, b, p1)
    d2 = _orient(a, b, p2)
    d3 = _orient(p1, p2, a)
    d4 = _orient(p1, p2, b)
    proper = (((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
              & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0))
    tol = _EPS * np.maximum(np.abs(p2 - p1).max(), np.maximum(np.abs(b - a).max(axis=1), 1.0))
    return (proper | ((np.abs(d1) <= tol) & _on_segment(a, b, p1))
            | ((np.abs(d2) <= tol) & _on_segment(a, b, p2))
            | ((np.abs(d3) <= tol) & _on_segment(p1, p2, a))
            | ((np.abs(d4) <= tol) & _on_segment(p1, p2, b)))


def _reflection_points(anchor, eve, a, b):
    """Specular bounce points of anchor -> wall -> eve (W, 2), and a mask (W,)
    of the walls whose bounce lies strictly inside them, both ends on one side."""
    s1 = _orient(a, b, anchor)
    s2 = _orient(a, b, eve)
    s = b - a
    with np.errstate(divide="ignore", invalid="ignore"):  # masked walls may divide by 0
        d = s / np.hypot(s[:, 0], s[:, 1])[:, None]
        ap = anchor - a
        along = np.vecdot(ap, d)[:, None] * d
        img = a + along - (ap - along)  # anchor mirrored in the wall line
        r = eve - img
        denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
        w = a - img
        t = (w[:, 0] * s[:, 1] - w[:, 1] * s[:, 0]) / denom
        u = (w[:, 0] * r[:, 1] - w[:, 1] * r[:, 0]) / denom
        ok = ((np.abs(s1) >= _EPS) & (np.abs(s2) >= _EPS) & ((s1 > 0) == (s2 > 0))
              & (np.abs(denom) >= _EPS)
              & (_EPS < t) & (t < 1.0 - _EPS) & (_EPS < u) & (u < 1.0 - _EPS))
        return img + t[:, None] * r, ok


# ---------------------------------------------------------------------------
# Path construction

def _endpoints(scenario: Scenario):
    return np.asarray(scenario.anchor_pos, dtype=float), np.asarray(scenario.eve_pos, dtype=float)


def _bounces(anchor, eve, points) -> np.ndarray:
    """Routes anchor -> points[p] -> eve as vertex arrays (P, 3, 2)."""
    return np.stack(np.broadcast_arrays(anchor, points, eve), axis=1)


def build_static_paths(scenario: Scenario) -> Paths:
    """LOS (when unobstructed) plus one first-order bounce per wall segment."""
    anchor, eve = _endpoints(scenario)
    if np.hypot(*(anchor - eve)) < 1e-9:
        raise ScenarioError("anchor and eavesdropper positions coincide")
    walls = np.asarray(scenario.room, dtype=float).reshape(-1, 2, 2)
    a, b = walls[:, 0], walls[:, 1]
    los = np.array([[anchor, eve]])[[not _crossed(anchor, eve, a, b).any()]]
    d = np.hypot(*(los[:, 1] - los[:, 0]).T)
    los = _routes(LOS, d, 1.0 / (4.0 * np.pi * d), 1, los)

    pts, ok = _reflection_points(anchor, eve, a, b)
    pts = pts[ok]
    to_pt, to_eve = pts - anchor, eve - pts
    d = np.hypot(to_pt[:, 0], to_pt[:, 1]) + np.hypot(to_eve[:, 0], to_eve[:, 1])
    gamma = 10.0 ** (-scenario.wall_reflection_loss_db / 20.0)
    return _join(los, _routes(WALL, d, gamma / (4.0 * np.pi * d), 1, _bounces(anchor, eve, pts)))


def element_legs(scenario: Scenario, irs_layout: IrsLayout):
    """(v1, v2, d1, d2): each element's 2D vectors (M, 2) to the anchor and to the eavesdropper
    and their lengths (M,) with the element's height; ScenarioError if one is under 1e-9 m."""
    hh = irs_layout.heights * irs_layout.heights
    v1, v2 = (p - irs_layout.positions for p in _endpoints(scenario))
    d1, d2 = (np.sqrt(v[:, 0] ** 2 + v[:, 1] ** 2 + hh) for v in (v1, v2))
    if np.any(d1 < 1e-9) or np.any(d2 < 1e-9):
        raise ScenarioError("surface element coincides with an endpoint")
    return v1, v2, d1, d2


def build_irs_paths(scenario: Scenario, irs_layout: IrsLayout) -> Paths:
    """One element path per surface element, anchor -> element -> eve; row m is element m.

    Gain is the product path loss lambda^2 / ((4 pi)^2 d1 d2) with cosine
    obliquity factors for incidence and departure; elements facing away from
    an endpoint keep their path with zero gain.
    """
    normal = np.asarray(scenario.irs_normal, dtype=float)
    v1, v2, d1, d2 = element_legs(scenario, irs_layout)
    # vecdot rounds as np.dot of one element's vectors does; @, einsum and
    # (v * n).sum(1) differ in the last bit, which moves every trace byte
    cos1 = np.maximum(0.0, np.vecdot(v1, normal) / d1)
    cos2 = np.maximum(0.0, np.vecdot(v2, normal) / d2)
    amp = cos1 * cos2 / ((4.0 * np.pi) ** 2 * d1 * d2)
    return _routes(IRS, d1 + d2, amp, 2, _bounces(*_endpoints(scenario), irs_layout.positions))


def scatter_paths(scenario: Scenario, positions, gains) -> Paths:
    """Single-bounce scatter routes anchor -> position -> eve, one per row of
    positions (T, 2).

    `gains` (scalar or (T,)) scale the product path loss; they may be complex
    (used for modulated reflectors).
    """
    anchor, eve = _endpoints(scenario)
    positions = np.asarray(positions, dtype=float)
    to_p = positions - anchor
    to_eve = eve - positions
    d1 = np.hypot(to_p[:, 0], to_p[:, 1])
    d2 = np.hypot(to_eve[:, 0], to_eve[:, 1])
    if np.any(d1 < 1e-9) or np.any(d2 < 1e-9):
        raise ScenarioError("scatter point coincides with an endpoint")
    amp = np.asarray(gains, dtype=complex) / ((4.0 * np.pi) ** 2 * d1 * d2)
    return _routes(SCATTER, d1 + d2, amp, 2, _bounces(anchor, eve, positions))


# ---------------------------------------------------------------------------
# Frame synthesis

def _antenna_projections(scenario: Scenario):
    """Scalar antenna offsets along the array axis (perpendicular to the LOS)."""
    axis = _perp(_unit(np.asarray(scenario.eve_pos, float) - np.asarray(scenario.anchor_pos, float)))
    otx = (np.arange(scenario.n_tx) - (scenario.n_tx - 1) / 2.0) * scenario.spacing
    orx = (np.arange(scenario.n_rx) - (scenario.n_rx - 1) / 2.0) * scenario.spacing
    return axis, otx, orx


def _tensors(paths: Paths, scenario: Scenario, subcarriers=None) -> np.ndarray:
    """Per-path response tensors G[p, k, rx, tx] before weights and attenuation.

    Antenna offsets perturb each path's length through far-field projection
    onto the departure and arrival directions.
    """
    freqs = scenario.subcarrier_freqs()[slice(None) if subcarriers is None else subcarriers]
    lam = C_LIGHT / freqs
    axis, otx, orx = _antenna_projections(scenario)
    proj_dep = paths.dep @ axis
    proj_arr = paths.arr @ axis

    # effective length per (path, rx, tx)
    d = (paths.length[:, None, None]
         + proj_arr[:, None, None] * orx[None, :, None]
         - proj_dep[:, None, None] * otx[None, None, :])
    # exp(1j * theta): the real phase theta goes into g.imag, then its cos and sin
    g = np.empty((len(paths), len(freqs)) + d.shape[1:], dtype=complex)
    theta = np.multiply((-2.0 * np.pi / C_LIGHT * freqs)[:, None, None], d[:, None], out=g.imag)
    np.cos(theta, out=g.real)
    np.sin(theta, out=theta)
    ampk = paths.amp[:, None] * np.where(paths.lambda_exp[:, None] == 1, lam[None, :],
                                         lam[None, :] ** 2)
    return np.multiply(ampk[:, :, None, None], g, out=g)


def scatter_tensors(scenario: Scenario, positions, subcarriers=None) -> np.ndarray:
    """Unit-gain scatter responses (T, K, n_rx, n_tx) at positions (T, 2), K all or given."""
    return _tensors(scatter_paths(scenario, positions, 1.0), scenario, subcarriers)


def point_segment_distances(points, a, b) -> np.ndarray:
    """Distances (T, S) from points (T, 2) to the segments a -> b (S, 2)."""
    ab = b - a
    den = np.einsum("ij,ij->i", ab, ab)
    apx = points[:, :1] - a[:, 0]
    apy = points[:, 1:] - a[:, 1]
    t = np.clip((apx * ab[:, 0] + apy * ab[:, 1]) / np.where(den == 0, 1.0, den), 0.0, 1.0)
    return np.hypot(points[:, :1] - (a[:, 0] + t * ab[:, 0]),
                    points[:, 1:] - (a[:, 1] + t * ab[:, 1]))


def noise_std(scenario: Scenario, h_env: np.ndarray) -> float:
    """Per-entry complex noise std calibrated on h_env, the noiseless
    unblocked, surface-off frame (K, n_rx, n_tx)."""
    if math.isinf(scenario.snr_db):
        return 0.0
    p_sig = float(np.mean(np.abs(h_env) ** 2))
    return math.sqrt(p_sig * 10.0 ** (-scenario.snr_db / 10.0))


def _physical_memory() -> float:
    """Bytes of physical memory; inf where the platform does not report it."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def check_memory(need: float, subject: str) -> None:
    """Raise ValueError, its message starting with subject, unless need bytes fit in
    physical memory; a NaN need does not fit."""
    memory = _physical_memory()
    if not need <= memory:
        raise ValueError(f"{subject} needs {need / 2**30:.3g} GiB, more than the "
                         f"{memory / 2**30:.3g} GiB of physical memory")


def check_surface_size(scenario: Scenario) -> None:
    """Raise ValueError when the surface's response tensors would not fit in
    physical memory.

    Building them holds the complex (M, K, n_rx, n_tx) tensor (its imaginary
    half first holds the real phase) and 64 B per (element, subcarrier) for
    the amplitudes: 1.44 times the tensor with 3x3 antennas; tracemalloc
    measured 1.37 for a whole FrameSimulator build on a 16x16 surface.
    """
    if scenario.irs_pos is not None:
        check_memory(16 * scenario.n_elements * scenario.n_subcarriers
                     * (scenario.n_rx * scenario.n_tx + 4),
                     f"irs_grid {scenario.irs_grid[0]}x{scenario.irs_grid[1]}")


def _padded(g: np.ndarray) -> np.ndarray:
    """g (paths, columns) with zero columns appended up to a multiple of 8. A BLAS sends the
    columns past its kernel width through edge kernels, picked by how its threads split the
    columns, so an unpadded product can round differently at another thread count."""
    pad = -g.shape[1] % 8
    return np.pad(g, ((0, 0), (0, pad))) if pad else g


class FrameSimulator:
    """Array frame engine for long frame streams.

    Builds the path tensors and routes once; frame() synthesises T frames per
    call. Blocking is measured once per distinct 2D route (one per panel
    column), then indexed out.
    """

    def __init__(self, scenario: Scenario):
        check_surface_size(scenario)
        self.scenario = scenario
        env = build_static_paths(scenario)
        irs = (build_irs_paths(scenario, grid_layout(scenario)) if scenario.irs_pos is not None
               else _routes(IRS, (), (), 2, np.empty((0, 3, 2))))
        g_env = _tensors(env, scenario)
        self._n_env = len(env)
        self.n_elements = len(irs)
        # distinct routes: the environment's, then one per element position; _route: path -> route
        xy, column = np.unique(irs.via, axis=0, return_inverse=True)
        self._via = np.concatenate([env.via, xy])
        self._anchor, self._eve = (np.broadcast_to(p, self._via.shape) for p in _endpoints(scenario))
        self._route = np.concatenate([np.arange(len(env)), len(env) + column])
        self.h_env = np.tensordot(np.ones(len(env), dtype=complex), g_env, axes=(0, 0))
        self.noise_std = noise_std(scenario, self.h_env)
        # real (paths, 2 * K * n_rx * n_tx) views, _padded: real weights @ view = the complex sum
        self._g_env, self._g_irs = (_padded(g.reshape(len(g), self.h_env.size).view(float))
                                    for g in (g_env, _tensors(irs, scenario)))
        self.subcarriers = None  # all of them

    def at_subcarriers(self, subcarriers) -> FrameSimulator:
        """This simulator at the given distinct subcarriers only, each value as at full width;
        paths, routes and noise_std (the full band's calibration) are shared."""
        sub = copy.copy(self)
        sub.subcarriers = subs = np.asarray(subcarriers, dtype=int)
        sub.h_env = self.h_env[subs]
        sub._g_env, sub._g_irs = (_padded(g[:, :2 * self.h_env.size].view(complex)
                                          .reshape((len(g),) + self.h_env.shape)
                                          .take(subs, axis=1).reshape(len(g), -1).view(float))
                                  for g in (self._g_env, self._g_irs))
        return sub

    def _attenuations(self, person: PersonState, positions) -> np.ndarray:
        """Blocking attenuation (T, paths) with the person at each of positions (T, 2)."""
        dmin = np.minimum(point_segment_distances(positions, self._anchor, self._via),
                          point_segment_distances(positions, self._via, self._eve))
        s = np.clip(1.0 - dmin / person.blocking_radius, 0.0, 1.0)
        att = np.where(s > 0.0, 10.0 ** (-person.blocking_depth_db * s / 20.0), 1.0)
        return att[:, self._route]

    def noise(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill out (T, 2, K, n_rx, n_tx) in place: T one-frame draws of complex std noise_std."""
        rng.standard_normal(out=out)
        out *= self.noise_std / math.sqrt(2.0)
        return out

    def frame(self, configs, cfg_index, *, person: PersonState | None = None, positions=None,
              scatters=(), noise=None) -> np.ndarray:
        """Channel values (T, K, n_rx, n_tx) for T frames at this simulator's K subcarriers.

        configs: distinct per-element reflection coefficient vectors (C, M),
        +-1 and 0 for inactive (all zeros: surface off); cfg_index (T,) gives
        each frame's row and fixes T. person: blocking and scatter parameters
        of a person standing at positions (T, 2), or None. scatters:
        (scatter_tensors(scenario, [position]), factors (T,)) extras, e.g. a rotating reflector.
        noise: a noise() array (T, 2, K, n_rx, n_tx) added as the real and
        imaginary parts, or None for noiseless frames.
        """
        n = len(cfg_index)
        if configs.shape[1] != self.n_elements:
            raise ValueError(
                f"coefficient vector length {configs.shape[1]} != {self.n_elements} elements")
        shape, width = self.h_env.shape, 2 * self.h_env.size  # _padded's columns are cut off
        if person is not None:
            atten = self._attenuations(person, positions)
            h = atten[:, :self._n_env] @ self._g_env
            h += (configs[cfg_index] * atten[:, self._n_env:]) @ self._g_irs
            h = h[:, :width].view(complex).reshape((n,) + shape)
            scatter = scatter_tensors(self.scenario, positions, self.subcarriers)
            scatter *= 10.0 ** (person.scatter_gain_db / 20.0)
            h += scatter
        else:
            h = (configs @ self._g_irs)[:, :width].view(complex).reshape((len(configs),) + shape)
            h += self.h_env  # once per configuration, before the frames repeat them
            h = h[cfg_index]
        for unit, factors in scatters:
            h += np.asarray(factors, dtype=complex)[:, None, None, None] * unit
        if noise is not None:
            h.real += noise[:, 0]
            h.imag += noise[:, 1]
        return h
