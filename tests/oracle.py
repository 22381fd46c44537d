"""Reference models for the tests: the per-path channel, small scheduler helpers, a
brute-force observation and a row-by-row trace reader.

The channel oracle keeps one `Path` record per propagation path and forms a
frame as the literal weighted sum of the paths' responses, one path at a time.
The array frame engine (channel.FrameSimulator) must agree with it; the
physics-identity, engine-against-oracle and criterion tests compare the two.
The trace reader parses one row at a time with Python's int and float and
stops at the first fault; io.ingest_trace must agree with it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from obfusense import channel as ch
from obfusense import irs as ir
from obfusense.io import IngestError
from obfusense import sensing as sn

# Sub-stream tag for per-frame noise generators (see frame_noise_rng).
_NOISE_TAG = 0x0E


@dataclass
class Path:
    """One propagation route with its frequency-dependent complex gain.

    Its gain at frequency f is
    amp_coeff * (c/f)**lambda_exp * exp(-2j*pi*f*length/c).
    """

    kind: str
    segment_points: np.ndarray  # (n, 2) route vertices, anchor first, eve last
    length: float
    amp_coeff: complex
    lambda_exp: int
    base_gain: complex = 0.0 + 0.0j  # gain evaluated at the carrier frequency
    blocked_atten: float = 1.0
    element: int | None = None


@dataclass
class CsiFrame:
    """One channel estimate: complex values indexed (subcarrier, rx, tx)."""

    t_index: int
    values: np.ndarray


def records(paths: ch.Paths, scenario: ch.Scenario) -> list:
    """One Path per row of paths; a surface path's element is its row."""
    anchor, eve = np.asarray(scenario.anchor_pos, float), np.asarray(scenario.eve_pos, float)
    out = []
    for i in range(len(paths)):
        kind, length, amp = str(paths.kind[i]), float(paths.length[i]), complex(paths.amp[i])
        lexp = int(paths.lambda_exp[i])
        out.append(Path(
            kind=kind,
            segment_points=np.array([anchor, eve] if kind == ch.LOS
                                    else [anchor, paths.via[i], eve]),
            length=length,
            amp_coeff=amp,
            lambda_exp=lexp,
            base_gain=amp * scenario.wavelength ** lexp
            * np.exp(-2j * np.pi * scenario.carrier_freq * length / ch.C_LIGHT),
            element=i if kind == ch.IRS else None,
        ))
    return out


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, c) -> bool:
    return (min(a[0], b[0]) - ch._EPS <= c[0] <= max(a[0], b[0]) + ch._EPS
            and min(a[1], b[1]) - ch._EPS <= c[1] <= max(a[1], b[1]) + ch._EPS)


def _segments_intersect(p1, p2, q1, q2) -> bool:
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 and d2 and d3 and d4:
        return True
    scale = max(abs(p2[0] - p1[0]), abs(p2[1] - p1[1]), abs(q2[0] - q1[0]), abs(q2[1] - q1[1]), 1.0)
    tol = ch._EPS * scale
    return ((abs(d1) <= tol and _on_segment(q1, q2, p1))
            or (abs(d2) <= tol and _on_segment(q1, q2, p2))
            or (abs(d3) <= tol and _on_segment(p1, p2, q1))
            or (abs(d4) <= tol and _on_segment(p1, p2, q2)))


def _reflection_point(anchor, eve, a, b):
    """Specular bounce point of anchor->wall->eve, or None if geometry invalid."""
    s1, s2 = _orient(a, b, anchor), _orient(a, b, eve)
    if abs(s1) < ch._EPS or abs(s2) < ch._EPS or (s1 > 0) != (s2 > 0):
        return None
    d = ch._unit(b - a)
    ap = anchor - a
    along = np.dot(ap, d) * d
    img = a + along - (ap - along)
    r, s, w = eve - img, b - a, a - img
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < ch._EPS:
        return None
    t = (w[0] * s[1] - w[1] * s[0]) / denom
    u = (w[0] * r[1] - w[1] * r[0]) / denom
    if not (ch._EPS < t < 1.0 - ch._EPS and ch._EPS < u < 1.0 - ch._EPS):
        return None
    return img + t * r


def static_routes(scenario: ch.Scenario) -> list:
    """Route vertices of the LOS (when no wall touches it) and of each wall
    bounce, wall by wall: the image method one segment at a time."""
    anchor, eve = np.asarray(scenario.anchor_pos, float), np.asarray(scenario.eve_pos, float)
    walls = [(np.asarray(a, float), np.asarray(b, float)) for a, b in scenario.room]
    blocked = any(_segments_intersect(anchor, eve, a, b) for a, b in walls)
    routes = [] if blocked else [[anchor, eve]]
    for a, b in walls:
        pt = _reflection_point(anchor, eve, a, b)
        if pt is not None:
            routes.append([anchor, pt, eve])
    return [np.array(r) for r in routes]


def scatter_path(scenario: ch.Scenario, position, gain_factor: complex) -> Path:
    """Single-bounce scatter route anchor -> position -> eve."""
    return records(ch.scatter_paths(scenario, [position], gain_factor), scenario)[0]


def _blocking_atten(path: Path, person: ch.PersonState) -> float:
    pts = path.segment_points
    dmin = ch.point_segment_distances(np.array([person.position], dtype=float),
                                      pts[:-1], pts[1:]).min()
    if dmin >= person.blocking_radius:
        return 1.0
    s = 1.0 - dmin / person.blocking_radius
    return 10.0 ** (-person.blocking_depth_db * s / 20.0)


def apply_motion(paths, person: ch.PersonState | None, scenario: ch.Scenario) -> list:
    """Attenuate paths blocked by the person and append their scatter path.

    Attenuation ramps linearly inside the blocking radius, reaching the full
    blocking depth on the route itself.
    """
    if person is None:
        return [replace(p, blocked_atten=1.0) for p in paths]
    out = [replace(p, blocked_atten=_blocking_atten(p, person)) for p in paths]
    out.append(scatter_path(scenario, person.position, 10.0 ** (person.scatter_gain_db / 20.0)))
    return out


def path_response(path: Path, scenario: ch.Scenario) -> np.ndarray:
    """Response G[k, rx, tx] of one path; antenna offsets perturb its length
    through far-field projection onto its departure and arrival directions."""
    freqs = scenario.subcarrier_freqs()
    axis, otx, orx = ch._antenna_projections(scenario)
    pts = path.segment_points
    dep = ch._unit(pts[1] - pts[0]) @ axis
    arr = ch._unit(pts[-1] - pts[-2]) @ axis
    d = path.length + arr * orx[:, None] - dep * otx[None, :]
    amp = path.amp_coeff * (ch.C_LIGHT / freqs) ** path.lambda_exp
    return amp[:, None, None] * np.exp(-2j * np.pi / ch.C_LIGHT * freqs[:, None, None] * d)


def _sum_response(paths, weights, scenario: ch.Scenario) -> np.ndarray:
    shape = (scenario.n_subcarriers, scenario.n_rx, scenario.n_tx)
    return sum((w * path_response(p, scenario) for p, w in zip(paths, weights)),
               np.zeros(shape, dtype=complex))


def frame_noise_rng(seed: int, t_index: int) -> np.random.Generator:
    """Canonical per-frame noise generator; keyed so frames replay exactly."""
    return np.random.default_rng((seed, _NOISE_TAG, t_index))


def channel_response(static_paths, irs_paths, irs_bits, person, scenario: ch.Scenario,
                     t_index: int) -> CsiFrame:
    """One noisy MIMO-OFDM frame for the given environment and surface state.

    static_paths and irs_paths are lists of Path. irs_bits are the element
    bits {0,1}, mapped to reflection coefficients {-1,+1}; None turns the
    surface contribution off (zero coefficients). The noise stream is derived
    from (scenario.seed, t_index), so a frame regenerates bit-identically.
    """
    n_elem = sum(1 for p in irs_paths if p.kind == ch.IRS)
    if irs_bits is not None and len(irs_bits) != n_elem:
        raise ValueError(
            f"surface config length {len(irs_bits)} does not match {n_elem} element paths")

    moved = apply_motion(list(static_paths) + list(irs_paths), person, scenario)
    coeffs = ir.coefficients(irs_bits) if irs_bits is not None else None
    weights = np.empty(len(moved), dtype=complex)
    for i, p in enumerate(moved):
        if p.kind == ch.IRS:
            weights[i] = 0.0 if coeffs is None else coeffs[p.element]
        else:
            weights[i] = 1.0
        weights[i] *= p.blocked_atten
    values = _sum_response(moved, weights, scenario)

    if not math.isinf(scenario.snr_db):
        sigma = ch.noise_std(scenario, _sum_response(static_paths, np.ones(len(static_paths)),
                                                     scenario))
        rng = frame_noise_rng(scenario.seed, t_index)
        shape = values.shape
        values = values + (sigma / math.sqrt(2.0)) * (rng.standard_normal(shape)
                                                      + 1j * rng.standard_normal(shape))
    if not np.all(np.isfinite(values)):
        raise ch.ScenarioError("non-finite channel values")
    return CsiFrame(t_index=t_index, values=values)


# ---------------------------------------------------------------------------
# Motion, one time at a time

def locate(walk, t: float):
    """(position, moving) of a Trajectory at time t, one phase of the patrol
    after another: dwell at the start, outbound leg, dwell at the end, return."""
    def at_distance(s):
        s = min(max(s, 0.0), walk.pass_length)
        i = min(int(np.searchsorted(walk._cum, s, side="right")) - 1, len(walk._cum) - 2)
        seglen = walk._cum[i + 1] - walk._cum[i]
        frac = 0.0 if seglen == 0 else (s - walk._cum[i]) / seglen
        return walk._pts[i] + frac * (walk._pts[i + 1] - walk._pts[i])

    leg_t = walk.pass_length / walk.speed
    tc = t % (2.0 * (leg_t + walk.dwell))
    if tc < walk.dwell:
        return walk._pts[0].copy(), False
    tc -= walk.dwell
    if tc < leg_t:
        return at_distance(walk.speed * tc), True
    tc -= leg_t
    if tc < walk.dwell:
        return walk._pts[-1].copy(), False
    tc -= walk.dwell
    return at_distance(walk.pass_length - walk.speed * tc), True


def reflector_factor(reflector, t: float) -> complex:
    """A RotatingReflector's complex bounce factor at time t, in scalar math."""
    theta = 2.0 * math.pi * (reflector.rpm / 60.0) * t
    return (10.0 ** (reflector.peak_scatter_gain_db / 20.0) * math.cos(theta)
            * complex(math.cos(theta), math.sin(theta)))


# ---------------------------------------------------------------------------
# Scheduler and session helpers

def map_coefficient(bit: int) -> float:
    """Element reflection coefficient: bit 0 -> -1, bit 1 -> +1."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    return -1.0 if bit == 0 else 1.0


def initial_state(m: int, rng: np.random.Generator, **scheduler) -> ir.IrsAlgState:
    """Fresh scheduler state with a uniformly random starting configuration."""
    return ir.IrsAlgState(bits=rng.integers(0, 2, size=m, dtype=np.uint8), rng=rng, **scheduler)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Number of elements whose bits differ between two configurations."""
    if len(a) != len(b):
        raise ValueError(f"config lengths differ: {len(a)} vs {len(b)}")
    return int(np.count_nonzero(a != b))


def hamming_trace(m: int, n_steps: int, n_ensemble: int, *, hold_prob: float = 0.0,
                  seed: int = 0, include_inversion: bool = True, **scheduler) -> np.ndarray:
    """Ensemble-mean Hamming distance to the starting configuration per tick.

    Every tick steps (hold_prob 0) unless told otherwise. Returns n_steps + 1
    values; index 0 is the distance at the start (zero).
    """
    if n_ensemble < 1:
        raise ValueError("n_ensemble must be >= 1")
    totals = np.zeros(n_steps + 1)
    for run in range(n_ensemble):
        rng = np.random.default_rng((seed, run))
        state = initial_state(m, rng, hold_prob=hold_prob, **scheduler)
        start = state.bits.copy()
        for t in range(1, n_steps + 1):
            ir.step(state, disable_inversion=not include_inversion)
            totals[t] += hamming_distance(state.bits, start)
    return totals / n_ensemble


def serialize_config(bits: np.ndarray) -> str:
    """Hex rendering of the configuration word (little-endian bit order)."""
    return np.packbits(bits, bitorder="little").tobytes().hex()


def blocked_flags(scenario: ch.Scenario, positions: np.ndarray, radius: float) -> np.ndarray:
    """Per-frame flags: person within `radius` of the anchor-eve segment."""
    return ch.point_segment_distances(np.asarray(positions, dtype=float),
                                      np.array([scenario.anchor_pos], dtype=float),
                                      np.array([scenario.eve_pos], dtype=float))[:, 0] <= radius


def window_any(flags: np.ndarray, n_w: int) -> np.ndarray:
    """Observation-sample flags: any frame flag inside each trailing window."""
    c = np.concatenate([[0], np.cumsum(flags.astype(int))])
    return (c[n_w:] - c[:-n_w]) > 0


def sliding_std(series, n_w: int) -> np.ndarray:
    """Trailing-window population standard deviation of a 1-D series, through the
    engine's column-wise sliding std."""
    x = np.asarray(series, dtype=float)
    if n_w < 2:
        raise ValueError("window must cover at least 2 samples")
    if x.shape[0] < n_w:
        raise ValueError(f"series length {x.shape[0]} shorter than window {n_w}")
    return np.concatenate([std[:, 0] for std in sn._sliding_stds(x[:, None], n_w, np.positive)])


def brute_force_observe(arr, n_w: int) -> np.ndarray:
    """sensing.observe of frames arr (T, K, n_rx, n_tx) with an n_w-sample window, as a
    literal double loop: per-component windowed population std, then the mean."""
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


def trace_rows(fh, path, n_fields):
    """(line, fields) for each non-blank line of fh, stripped and split at commas; an
    IngestError naming the first line with another number of fields."""
    for line in filter(None, map(str.strip, fh)):
        parts = line.split(",")
        if len(parts) != n_fields:
            raise IngestError(f"{path}: malformed row {line!r}")
        yield line, parts


def frames_from_rows(fh, shape, path):
    """Trace frames row by row with Python's int and float; an IngestError names the first
    fault."""
    current_t = values = seen = None

    def flush():
        missing = np.argwhere(~seen)
        if missing.size:
            k, rx, tx = missing[0]
            raise IngestError(f"{path}: frame t={current_t} missing cell (k={k}, rx={rx}, tx={tx})")
        return values

    for line, parts in trace_rows(fh, path, 6):
        try:
            t, k, rx, tx, re, im = *map(int, parts[:4]), *map(float, parts[4:])
        except ValueError as exc:
            raise IngestError(f"{path}: bad number in row {line!r}: {exc}") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise IngestError(f"{path}: non-finite value at t={t}")
        if not (0 <= k < shape[0] and 0 <= rx < shape[1] and 0 <= tx < shape[2]):
            raise IngestError(f"{path}: index (k={k}, rx={rx}, tx={tx}) outside header dimensions")
        if current_t is None or t != current_t:
            if current_t is not None:
                if t < current_t:
                    raise IngestError(f"{path}: frame index goes backwards at t={t}")
                yield flush()
            current_t = t
            values = np.zeros(shape, dtype=complex)
            seen = np.zeros(shape, dtype=bool)
        if seen[k, rx, tx]:
            raise IngestError(f"{path}: duplicate cell (t={t}, k={k}, rx={rx}, tx={tx})")
        values[k, rx, tx] = complex(re, im)
        seen[k, rx, tx] = True
    if current_t is not None:
        yield flush()
