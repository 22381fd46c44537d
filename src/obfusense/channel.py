"""Geometric multipath channel simulator for indoor Wi-Fi sensing studies.

Rooms are 2D wall-segment layouts. The anchor-to-eavesdropper channel is a sum
of a line-of-sight ray, first-order specular wall reflections (image method),
per-element reflecting-surface bounces, and an optional human scatter bounce.
Frames are MIMO-OFDM channel estimates with calibrated additive noise.
"""
from __future__ import annotations

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
class Paths:
    """Propagation paths as arrays, one row per path.

    Path p's gain at frequency f is
    amp[p] * (c/f)**lambda_exp[p] * exp(-2j*pi*f*length[p]/c), so amp carries
    every frequency-independent factor (reflection loss, obliquity cosines,
    product path-loss denominator, scatter scaling). dep and arr are the unit
    directions of the route's first and last segments. The route of path p is
    the segments seg_a[i] -> seg_b[i] from seg_start[p] up to the next path's
    start: one segment for LOS, two for every bounce.
    """

    kind: np.ndarray        # (P,) LOS, WALL, IRS or SCATTER
    length: np.ndarray      # (P,)
    amp: np.ndarray         # (P,) complex
    lambda_exp: np.ndarray  # (P,)
    dep: np.ndarray         # (P, 2)
    arr: np.ndarray         # (P, 2)
    seg_a: np.ndarray       # (S, 2)
    seg_b: np.ndarray       # (S, 2)
    seg_start: np.ndarray   # (P,)

    def __len__(self):
        return self.length.shape[0]


def _units(v) -> np.ndarray:
    n = np.hypot(v[:, 0], v[:, 1])
    if np.any(n < 1e-12):
        raise ScenarioError("zero-length direction vector")
    return v / n[:, None]


def _routes(kind: str, length, amp, lambda_exp: int, points) -> Paths:
    """Paths along routes of equal vertex count, points (P, n, 2), anchor first."""
    p, n = points.shape[:2]
    return Paths(kind=np.full(p, kind), length=np.asarray(length, dtype=float),
                 amp=np.asarray(amp, dtype=complex), lambda_exp=np.full(p, lambda_exp),
                 dep=_units(points[:, 1] - points[:, 0]), arr=_units(points[:, -1] - points[:, -2]),
                 seg_a=points[:, :-1].reshape(-1, 2), seg_b=points[:, 1:].reshape(-1, 2),
                 seg_start=np.arange(p) * (n - 1))


def _join(first: Paths, second: Paths) -> Paths:
    """The rows of first, then those of second."""
    parts = {f.name: np.concatenate([getattr(first, f.name), getattr(second, f.name)])
             for f in fields(Paths)}
    parts["seg_start"][len(first):] += len(first.seg_a)
    return Paths(**parts)


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


def build_irs_paths(scenario: Scenario, irs_layout: IrsLayout) -> Paths:
    """One element path per surface element, anchor -> element -> eve; row m is element m.

    Gain is the product path loss lambda^2 / ((4 pi)^2 d1 d2) with cosine
    obliquity factors for incidence and departure; elements facing away from
    an endpoint keep their path with zero gain.
    """
    anchor, eve = _endpoints(scenario)
    normal = np.asarray(scenario.irs_normal, dtype=float)
    elem = irs_layout.positions
    hh = irs_layout.heights * irs_layout.heights
    v1 = anchor - elem
    v2 = eve - elem
    d1 = np.sqrt(v1[:, 0] ** 2 + v1[:, 1] ** 2 + hh)
    d2 = np.sqrt(v2[:, 0] ** 2 + v2[:, 1] ** 2 + hh)
    if np.any(d1 < 1e-9) or np.any(d2 < 1e-9):
        raise ScenarioError("surface element coincides with an endpoint")
    # vecdot rounds as np.dot of one element's vectors does; @, einsum and
    # (v * n).sum(1) differ in the last bit, which moves every trace byte
    cos1 = np.maximum(0.0, np.vecdot(v1, normal) / d1)
    cos2 = np.maximum(0.0, np.vecdot(v2, normal) / d2)
    amp = cos1 * cos2 / ((4.0 * np.pi) ** 2 * d1 * d2)
    return _routes(IRS, d1 + d2, amp, 2, _bounces(anchor, eve, elem))


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


def _tensors(paths: Paths, scenario: Scenario) -> np.ndarray:
    """Per-path response tensors G[p, k, rx, tx] before weights and attenuation.

    Antenna offsets perturb each path's length through far-field projection
    onto the departure and arrival directions.
    """
    freqs = scenario.subcarrier_freqs()
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


def scatter_tensors(scenario: Scenario, positions) -> np.ndarray:
    """Unit-gain scatter responses (T, K, n_rx, n_tx) for bounces at positions (T, 2)."""
    return _tensors(scatter_paths(scenario, positions, 1.0), scenario)


def point_segment_distances(points, seg_a, seg_b) -> np.ndarray:
    """Distances (T, S) from points (T, 2) to the segments seg_a -> seg_b (S, 2)."""
    ab = seg_b - seg_a
    den = np.einsum("ij,ij->i", ab, ab)
    apx = points[:, :1] - seg_a[:, 0]
    apy = points[:, 1:] - seg_a[:, 1]
    t = np.clip((apx * ab[:, 0] + apy * ab[:, 1]) / np.where(den == 0, 1.0, den), 0.0, 1.0)
    return np.hypot(points[:, :1] - (seg_a[:, 0] + t * ab[:, 0]),
                    points[:, 1:] - (seg_a[:, 1] + t * ab[:, 1]))


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


def check_surface_size(scenario: Scenario) -> None:
    """Raise ValueError when the surface's response tensors would not fit in
    physical memory.

    Building them holds the complex (M, K, n_rx, n_tx) tensor (its imaginary
    half first holds the real phase) and 64 B per (element, subcarrier) for
    the amplitudes: 1.44 times the tensor with 3x3 antennas; tracemalloc
    measured 1.37 for a whole FrameSimulator build on a 16x16 surface.
    """
    if scenario.irs_pos is None:
        return
    need = 16 * scenario.n_elements * scenario.n_subcarriers * (scenario.n_rx * scenario.n_tx + 4)
    memory = _physical_memory()
    if need > memory:
        raise ValueError(f"irs_grid {scenario.irs_grid[0]}x{scenario.irs_grid[1]} needs "
                         f"{need / 2**30:.3g} GiB for its surface tensors, more than the "
                         f"{memory / 2**30:.3g} GiB of physical memory")


class FrameSimulator:
    """Array frame engine for long frame streams.

    Builds the path tensors and route segments once and synthesises many
    frames per call. `paths` holds the environment's paths (build_static_paths)
    followed by one path per surface element (build_irs_paths). Blocking is
    measured once per distinct 2D route (one per panel column), then indexed out.
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
        self.paths = _join(env, irs)
        # distinct routes: the environment's, then one per element position; _route: path -> route
        xy, column = np.unique(irs.seg_b[::2], axis=0, return_inverse=True)
        elem = _bounces(*_endpoints(scenario), xy)
        self._seg_a = np.concatenate([env.seg_a, elem[:, :-1].reshape(-1, 2)])
        self._seg_b = np.concatenate([env.seg_b, elem[:, 1:].reshape(-1, 2)])
        self._seg_start = np.concatenate([env.seg_start, len(env.seg_a) + 2 * np.arange(len(xy))])
        self._route = np.concatenate([np.arange(len(env)), len(env) + column])
        self.h_env = np.tensordot(np.ones(len(env), dtype=complex), g_env, axes=(0, 0))
        self.noise_std = noise_std(scenario, self.h_env)
        # real (paths, 2 * K * n_rx * n_tx) views: real weights @ view = the complex sum
        self._g_env = g_env.reshape(len(env), self.h_env.size).view(float)
        self._g_irs = _tensors(irs, scenario).reshape(len(irs), self.h_env.size).view(float)

    def _attenuations(self, person: PersonState, positions) -> np.ndarray:
        """Blocking attenuation (T, paths) with the person at each of positions (T, 2)."""
        dmin = np.minimum.reduceat(point_segment_distances(positions, self._seg_a, self._seg_b),
                                   self._seg_start, axis=1)
        s = np.clip(1.0 - dmin / person.blocking_radius, 0.0, 1.0)
        att = np.where(s > 0.0, 10.0 ** (-person.blocking_depth_db * s / 20.0), 1.0)
        return att[:, self._route]

    def noise(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill out (T, 2, K, n_rx, n_tx) in place: T one-frame draws of complex std noise_std."""
        rng.standard_normal(out=out)
        out *= self.noise_std / math.sqrt(2.0)
        return out

    def frames(self, configs, cfg_index, *, person: PersonState | None = None, positions=None,
               scatters=(), noise=None) -> np.ndarray:
        """Channel values (T, K, n_rx, n_tx) for T frames.

        configs: distinct per-element reflection coefficient vectors (C, M),
        +-1 and 0 for inactive, or None for surface off; cfg_index (T,) gives
        each frame's row and fixes T. person: blocking and scatter parameters
        of a person standing at positions (T, 2), or None. scatters:
        (scatter_tensors(scenario, [position]), factors (T,)) extras, e.g. a rotating reflector.
        noise: a noise() array (T, 2, K, n_rx, n_tx) added as the real and
        imaginary parts, or None for noiseless frames.
        """
        n = len(cfg_index)
        if configs is not None and configs.shape[1] != self.n_elements:
            raise ValueError(
                f"coefficient vector length {configs.shape[1]} != {self.n_elements} elements")
        shape = self.h_env.shape
        if person is not None:
            atten = self._attenuations(person, positions)
            h = atten[:, :self._n_env] @ self._g_env
            if configs is not None:
                h += (configs[cfg_index] * atten[:, self._n_env:]) @ self._g_irs
            h = h.view(complex).reshape((n,) + shape)
            scatter = scatter_tensors(self.scenario, positions)
            scatter *= 10.0 ** (person.scatter_gain_db / 20.0)
            h += scatter
        elif configs is not None:
            h = (configs @ self._g_irs).view(complex).reshape((len(configs),) + shape)[cfg_index]
            h += self.h_env
        else:
            h = np.repeat(self.h_env[None], n, axis=0)
        for unit, factors in scatters:
            h += np.asarray(factors, dtype=complex)[:, None, None, None] * unit
        if noise is not None:
            h.real += noise[:, 0]
            h.imag += noise[:, 1]
        return h

    def frame(self, coeffs: np.ndarray | None = None, person: PersonState | None = None,
              scatters=(), rng=None) -> np.ndarray:
        """Channel values (K, n_rx, n_tx) for one frame: frames() with T = 1.

        coeffs: per-element reflection coefficients (+-1 and 0 for inactive),
        or None for surface off. scatters: (position, complex_factor) extras.
        rng: the noise stream, or None for a noiseless frame.
        """
        present = person is not None and person.present
        return self.frames(None if coeffs is None else np.asarray(coeffs, dtype=float)[None],
                           np.zeros(1, dtype=int), person=person if present else None,
                           positions=np.array([person.position], dtype=float) if present else None,
                           scatters=[(scatter_tensors(self.scenario, [position]), [factor])
                                     for position, factor in scatters],
                           noise=None if rng is None or self.noise_std == 0.0
                           else self.noise(rng, np.empty((1, 2) + self.h_env.shape)))[0]
