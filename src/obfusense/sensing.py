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
    """A (time, K, n_rx, n_tx) array as a view whose rows, in C order, run through the components.

    Component n = k * (n_rx * n_tx) + tx * n_rx + rx: subcarrier-major with column-major antenna
    matrices. No other code fixes this order; session lays out |H| through this self-inverse view.
    """
    return arr.transpose(0, 1, 3, 2)


def magnitude_matrix(frames, out=None) -> np.ndarray:
    """Per-component magnitude time series (time, K * n_rx * n_tx) of a (time, K, n_rx, n_tx)
    array, written into out (a contiguous float array of that shape) when given.

    Frames may be complex or magnitudes already: |x| of a magnitude is itself.
    """
    arr = _component_order(np.asarray(frames))
    out = np.empty((arr.shape[0], math.prod(arr.shape[1:]))) if out is None else out
    return np.abs(arr, out=out.reshape(arr.shape)).reshape(out.shape)


def _row_blocks(x, step: int, size: int, rows=magnitude_matrix):
    """rows(x[a:a + size], out) for a = 0, step, 2 step, ... while a + size - step < len(x);
    out is one float buffer for every block (magnitude_matrix: the block's |H| components). A
    float64 x whose component order is C-contiguous (as session writes |H|) and that has no sign
    bit set is its own magnitude matrix, bit for bit: its blocks are then views, with no buffer."""
    n_buf = min(size, len(x))
    if rows is magnitude_matrix and x.dtype == float and _component_order(x).flags.c_contiguous:
        flat = _component_order(x).reshape(len(x), -1)
        if flat.view(np.int64).min(initial=0) >= 0:
            x, rows, n_buf = flat, lambda block, out: block, 0
    buf = np.empty((n_buf, math.prod(x.shape[1:])))
    for a in range(0, len(x) - size + step, step):
        block = x[a:a + size]
        yield rows(block, buf[:len(block)])


def select_subcarriers(reference_frames, k: int) -> list:
    """Indices of the k subcarriers whose magnitude series co-vary the most.

    Each subcarrier's magnitude series (averaged over spatial channels) is
    scored by its mean Pearson correlation to all other subcarriers; the k
    best win, ties broken toward lower indices. Zero-variance series
    correlate as 0 by definition. Frames may be complex or magnitudes.
    """
    arr = np.asarray(reference_frames)
    if arr.shape[0] < 2:
        raise ValueError("need at least 2 reference frames")
    n_sub = arr.shape[1]
    if not (1 <= k <= n_sub):
        raise ValueError(f"k={k} out of range for {n_sub} subcarriers")
    series = np.concatenate([mags.reshape(len(mags), n_sub, -1).mean(axis=2)  # (time, K)
                             for mags in _row_blocks(arr, 256, 256)])
    centered = series - series.mean(axis=0, keepdims=True)
    norms = np.sqrt((centered ** 2).sum(axis=0))
    unit = centered / np.where(norms > 0, norms, 1.0)
    corr = unit.T @ unit
    corr[np.logical_or.outer(norms == 0, norms == 0)] = 0.0
    np.fill_diagonal(corr, 0.0)
    scores = corr.sum(axis=1) / max(n_sub - 1, 1)
    order = np.lexsort((np.arange(n_sub), -scores))
    return sorted(int(i) for i in order[:k])


def _sliding_stds(x, n_w: int, rows=magnitude_matrix):
    """Column-wise trailing-window population stds of the (time, m) matrix rows(x), yielded
    for one block of n_w windows after another (see _row_blocks).

    O(T) per column. A block's 2 n_w - 1 samples are centred on its sample
    n_w - 1, which every window of the block contains, so a constant column
    gives exactly 0 and slow drift adds little to the sums; each window's
    variance comes from prefix sums of the centred values and their squares.
    A window is ill-conditioned where the block's prefix sum of squares up to
    its last sample exceeds 1e3 * n_w * var, as after a step inside the block;
    such windows are recomputed by the two-pass formula (subtract the window's
    own mean, then average the squared deviations).
    """
    # One scratch allocation per call, carved into c (prefix sums of seg, then of seg ** 2; row
    # 0 stays 0), the centred block seg and s1. Three separate buffers give the same values but
    # left a heap layout that slowed the frame synthesis after them (perfbench defense_grid).
    k = min(2 * n_w - 1, len(x))
    scratch = np.empty((3 * n_w + k, math.prod(x.shape[1:])))
    c, seg_buf, s1_buf = scratch[:2 * n_w], scratch[2 * n_w:2 * n_w + k], scratch[2 * n_w + k:]
    c[0] = 0.0
    mask_buf = np.empty(s1_buf.shape, dtype=bool)
    for block in _row_blocks(x, n_w, 2 * n_w - 1, rows):
        nb = len(block) - n_w + 1
        seg = np.subtract(block, block[n_w - 1], out=seg_buf[:len(block)])
        np.cumsum(seg, axis=0, out=c[1:nb + n_w])
        s1 = np.subtract(c[n_w:nb + n_w], c[:nb], out=s1_buf[:nb])
        np.cumsum(np.square(seg, out=seg), axis=0, out=c[1:nb + n_w])
        var = c[n_w:nb + n_w] - c[:nb]  # a fresh array per block: callers may keep it
        np.divide(np.multiply(s1, s1, out=s1), n_w, out=s1)
        np.divide(np.subtract(var, s1, out=var), n_w, out=var)
        thr = np.multiply(1e3 * n_w, var, out=s1)
        if (mask := np.greater(c[n_w:nb + n_w], thr, out=mask_buf[:nb])).any():
            ti, ji = np.nonzero(mask)
            w = np.lib.stride_tricks.sliding_window_view(block, n_w, axis=0)[ti, ji]
            dev = w - w.mean(axis=1, keepdims=True)
            var[ti, ji] = np.einsum("iw,iw->i", dev, dev) / n_w
        yield np.sqrt(np.maximum(var, 0.0, out=var), out=var)


def window_samples(window_s: float, sample_rate: float) -> int:
    """Samples n_w = round(window_s * sample_rate) of the observation window; ValueError
    unless window_s is finite and > 0 and n_w >= 2 (a std over one sample is always 0)."""
    if not (0 < window_s < math.inf):
        raise ValueError(f"window_s must be finite and > 0, got {window_s!r}")
    n_w = int(round(min(window_s * sample_rate, 2.0 ** 62)))  # longer than any session
    if n_w < 2:
        raise ValueError(f"window_s {window_s:g} s gives n_w = {n_w} at sample_rate "
                         f"{sample_rate:g}; a window must cover at least 2 samples")
    return n_w


def check_subcarriers(subcarriers, n_subcarriers: int) -> list:
    """subcarriers as a list of ints; ValueError naming the first entry that is not a
    distinct integer in [0, n_subcarriers), or when there is none."""
    subs = []
    for k in subcarriers:
        if not hasattr(k, "__index__") or not 0 <= k < n_subcarriers or k in subs:
            raise ValueError(f"subcarrier {k} is not a distinct integer in [0, {n_subcarriers})")
        subs.append(k.__index__())
    if not subs:
        raise ValueError("subcarriers must name at least one subcarrier")
    return subs


def observe(frames, window_s: float, sample_rate: float,
            meta: dict | None = None) -> ObservationSeries:
    """Averaged trailing-window magnitude deviation over all components.

    Frames may be complex or magnitudes; phase is discarded. Each component's
    magnitude series is run through the sliding standard deviation and the
    component mean is the observation.
    """
    n_w = window_samples(window_s, sample_rate)
    arr = np.asarray(frames)
    if arr.shape[0] < n_w:
        raise ValueError(f"{arr.shape[0]} frames shorter than window of {n_w}")
    values = np.concatenate([std.mean(axis=1) for std in _sliding_stds(arr, n_w)])
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


def attack_report(reference, motion, threshold: float) -> DetectionReport:
    """Full detection report at a threshold taken from the reference (calibrate_threshold
    or max_threshold): rates on motion and reference, ROC, AUC."""
    on_motion = detect(motion, threshold)
    on_ref = detect(reference, threshold)
    curve = roc(motion, reference)
    return DetectionReport(threshold=threshold, decisions=on_motion.decisions,
                           detection_rate=on_motion.detection_rate,
                           tpr=on_motion.detection_rate, fpr=on_ref.detection_rate,
                           roc_points=curve.roc_points, auc=curve.auc)
