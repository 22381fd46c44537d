"""Passive eavesdropper pipeline: CSI magnitudes to motion decisions.

Per-component trailing-window standard deviations of channel magnitudes are
averaged across subcarriers and antenna pairs into a single observation
series; thresholds come from a reference measurement (median + C * MAD, or
its maximum), and ROC/AUC quantify separability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import CsiFrame


@dataclass
class ObservationSeries:
    """Observation values over time plus the provenance needed to reuse them."""

    values: np.ndarray
    sample_rate: float
    window_s: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size and (not np.all(np.isfinite(self.values)) or np.any(self.values < 0)):
            raise ValueError("observation values must be finite and non-negative")

    def __len__(self):
        return self.values.shape[0]


@dataclass
class DetectionReport:
    threshold: float
    decisions: np.ndarray | None = None
    detection_rate: float | None = None
    tpr: float | None = None
    fpr: float | None = None
    roc_points: list | None = None
    auc: float | None = None


def _series_values(obs) -> np.ndarray:
    if isinstance(obs, ObservationSeries):
        return obs.values
    return np.asarray(obs, dtype=float)


def _component_order(arr: np.ndarray) -> np.ndarray:
    """(time, K, n_rx, n_tx) array as (time, components), contiguous.

    Component n = k * (n_rx * n_tx) + tx * n_rx + rx: subcarrier-major with
    column-major antenna matrices. No other code fixes this order.
    """
    # contiguous layout keeps downstream reductions bit-reproducible
    return np.ascontiguousarray(arr.transpose(0, 1, 3, 2)).reshape(arr.shape[0], -1)


def vectorize(frame: CsiFrame) -> np.ndarray:
    """Flatten one frame into component order, like one row of magnitude_matrix."""
    return _component_order(frame.values[None])[0]


def stack_frames(frames) -> np.ndarray:
    """Frames as a (time, K, n_rx, n_tx) array; an array passes through as is."""
    if isinstance(frames, np.ndarray):
        return frames
    return np.stack([f.values for f in frames])


def magnitude_matrix(frames) -> np.ndarray:
    """Per-component magnitude time series, shape (time, K * n_rx * n_tx).

    Frames may be complex or magnitudes already: |x| of a magnitude is itself.
    """
    return np.abs(_component_order(stack_frames(frames)))


def select_subcarriers(reference_frames, k: int) -> list:
    """Indices of the k subcarriers whose magnitude series co-vary the most.

    Each subcarrier's magnitude series (averaged over spatial channels) is
    scored by its mean Pearson correlation to all other subcarriers; the k
    best win, ties broken toward lower indices. Zero-variance series
    correlate as 0 by definition. Frames may be complex or magnitudes.
    """
    arr = stack_frames(reference_frames)
    if arr.shape[0] < 2:
        raise ValueError("need at least 2 reference frames")
    n_sub = arr.shape[1]
    if not (1 <= k <= n_sub):
        raise ValueError(f"k={k} out of range for {n_sub} subcarriers")
    series = magnitude_matrix(arr).reshape(arr.shape[0], n_sub, -1).mean(axis=2)  # (time, K)
    centered = series - series.mean(axis=0, keepdims=True)
    norms = np.sqrt((centered ** 2).sum(axis=0))
    safe = np.where(norms > 0, norms, 1.0)
    unit = centered / safe
    corr = unit.T @ unit
    corr[norms == 0, :] = 0.0
    corr[:, norms == 0] = 0.0
    np.fill_diagonal(corr, 0.0)
    scores = corr.sum(axis=1) / max(n_sub - 1, 1)
    order = np.lexsort((np.arange(n_sub), -scores))
    return sorted(int(i) for i in order[:k])


def sliding_std(series, n_w: int) -> np.ndarray:
    """Trailing-window population standard deviation of a 1-D series."""
    x = np.asarray(series, dtype=float)
    if n_w < 2:
        raise ValueError("window must cover at least 2 samples")
    if x.shape[0] < n_w:
        raise ValueError(f"series length {x.shape[0]} shorter than window {n_w}")
    return _sliding_std_columns(x[:, None], n_w)[:, 0]


def _sliding_std_columns(x: np.ndarray, n_w: int) -> np.ndarray:
    """Column-wise trailing-window population std of a (time, components) matrix.

    O(T) per column. Windows are taken in blocks of n_w. A block's 2 n_w - 1
    samples are centred on its sample n_w - 1, which every window of the
    block contains, so a constant column gives exactly 0 and slow drift adds
    little to the sums; each window's variance comes from prefix sums of the
    centred values and their squares. A window is ill-conditioned where the
    block's prefix sum of squares up to its last sample exceeds
    1e3 * n_w * var, as after a step inside the block; such windows are
    recomputed by the two-pass formula (subtract the window's own mean, then
    average the squared deviations).
    """
    x = np.asarray(x, dtype=float)
    n, m = x.shape
    n_win = n - n_w + 1
    out = np.empty((n_win, m))
    windows = np.lib.stride_tricks.sliding_window_view(x, n_w, axis=0)  # (n_win, m, n_w)
    c1 = np.zeros((2 * n_w, m))
    c2 = np.zeros((2 * n_w, m))
    for a in range(0, n_win, n_w):
        nb = min(n_w, n_win - a)
        seg = x[a:a + nb + n_w - 1] - x[a + n_w - 1]
        np.cumsum(seg, axis=0, out=c1[1:nb + n_w])
        np.cumsum(seg * seg, axis=0, out=c2[1:nb + n_w])
        s1 = c1[n_w:nb + n_w] - c1[:nb]
        var = (c2[n_w:nb + n_w] - c2[:nb] - s1 * s1 / n_w) / n_w
        ti, ji = np.nonzero(c2[n_w:nb + n_w] > 1e3 * n_w * var)
        if ti.size:
            w = windows[a + ti, ji]
            dev = w - w.mean(axis=1, keepdims=True)
            var[ti, ji] = np.einsum("iw,iw->i", dev, dev) / n_w
        out[a:a + nb] = np.sqrt(np.maximum(var, 0.0))
    return out


def window_samples(window_s: float, sample_rate: float) -> int:
    if not (0 < window_s < math.inf):
        raise ValueError(f"window_s must be finite and > 0, got {window_s!r}")
    return int(round(window_s * sample_rate))


def observe(frames, window_s: float, sample_rate: float, subcarriers=None,
            meta: dict | None = None) -> ObservationSeries:
    """Averaged trailing-window magnitude deviation over all components.

    Frames may be complex or magnitudes; phase is discarded. Each component's
    magnitude series is run through the sliding standard deviation and the
    component mean is the observation.
    """
    arr = stack_frames(frames)
    if subcarriers is not None:
        arr = arr[:, np.asarray(subcarriers, dtype=int), :, :]
    n_w = window_samples(window_s, sample_rate)
    if n_w < 2:
        raise ValueError("window must cover at least 2 samples")
    mags = magnitude_matrix(arr)
    if mags.shape[0] < n_w:
        raise ValueError(f"{mags.shape[0]} frames shorter than window of {n_w}")
    values = _sliding_std_columns(mags, n_w).mean(axis=1)
    return ObservationSeries(values=values, sample_rate=sample_rate, window_s=window_s,
                             meta=dict(meta or {}))


def calibrate_threshold(reference, c: float) -> float:
    """Median + c * MAD of the reference observation (MAD unscaled)."""
    x = _series_values(reference)
    if x.size == 0:
        raise ValueError("reference observation is empty")
    med = float(np.median(x))
    mad = float(np.median(np.abs(x - med)))
    return med + c * mad


def max_threshold(reference) -> float:
    """Maximum of the reference observation: zero false positives on it."""
    x = _series_values(reference)
    if x.size == 0:
        raise ValueError("reference observation is empty")
    return float(np.max(x))


def detect(obs, threshold: float) -> DetectionReport:
    """Strict-inequality threshold decisions and their rate."""
    x = _series_values(obs)
    if x.size == 0:
        raise ValueError("observation is empty")
    decisions = x > threshold
    return DetectionReport(threshold=float(threshold), decisions=decisions,
                           detection_rate=float(decisions.mean()))


def roc(obs_motion, obs_reference) -> DetectionReport:
    """ROC sweep over all observed values; AUC by trapezoidal integration."""
    motion = np.sort(_series_values(obs_motion))
    ref = np.sort(_series_values(obs_reference))
    if motion.size == 0 or ref.size == 0:
        raise ValueError("both observation series must be non-empty")
    thresholds = np.unique(np.concatenate([motion, ref]))[::-1]
    tprs = np.concatenate([[0.0], (motion.size - np.searchsorted(motion, thresholds, side="right"))
                           / motion.size, [1.0]])
    fprs = np.concatenate([[0.0], (ref.size - np.searchsorted(ref, thresholds, side="right"))
                           / ref.size, [1.0]])
    points = list(zip(fprs.tolist(), tprs.tolist()))
    auc = float(np.trapezoid(tprs, fprs))
    return DetectionReport(threshold=float("nan"), roc_points=points, auc=auc)


def attack_report(reference, motion, c: float | None = None, use_max: bool = False) -> DetectionReport:
    """Full detection report: threshold from the reference, rates, ROC, AUC."""
    if use_max:
        u = max_threshold(reference)
    elif c is not None:
        u = calibrate_threshold(reference, c)
    else:
        raise ValueError("either c or use_max must be given")
    on_motion = detect(motion, u)
    on_ref = detect(reference, u)
    curve = roc(motion, reference)
    return DetectionReport(threshold=u, decisions=on_motion.decisions,
                           detection_rate=on_motion.detection_rate,
                           tpr=on_motion.detection_rate, fpr=on_ref.detection_rate,
                           roc_points=curve.roc_points, auc=curve.auc)
