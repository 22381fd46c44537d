import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obfusense import sensing as sn

import oracle as orc


# --- component order -------------------------------------------------------

def test_component_order_single_entry():
    v = np.array([[[3 + 4j]]])
    assert np.array_equal(sn._component_order(v[None]).ravel(), [3 + 4j])


def test_component_order_length():
    v = np.zeros((28, 3, 3), dtype=complex)
    assert sn.magnitude_matrix(v[None])[0].shape == (252,)


def test_component_order_ordering():
    # marker at k=1 (0-based), rx=0, tx=0 must land at index 1 * 9 + 0
    v = np.zeros((3, 3, 3), dtype=complex)
    v[1, 0, 0] = 7.0
    out = sn.magnitude_matrix(v[None])[0]
    assert out[9] == 7.0
    # column-major inside one subcarrier: (rx=1, tx=0) precedes (rx=0, tx=1)
    v2 = np.zeros((1, 2, 2), dtype=complex)
    v2[0, 1, 0] = 1.0
    v2[0, 0, 1] = 2.0
    out2 = sn._component_order(v2[None]).ravel()
    assert out2[1] == 1.0 and out2[2] == 2.0


# --- select_subcarriers ----------------------------------------------------

def test_select_identical_series_tiebreak():
    rng = np.random.default_rng(0)
    base = rng.uniform(1, 2, size=50)
    arr = np.repeat(base[:, None, None, None], 8, axis=1).astype(complex)
    picked = sn.select_subcarriers(arr, 5)
    assert picked == [0, 1, 2, 3, 4]


def test_select_excludes_noise_subcarrier():
    rng = np.random.default_rng(1)
    base = rng.uniform(1, 2, size=200)
    arr = np.repeat(base[:, None], 8, axis=1)
    arr[:, 3] = rng.uniform(1, 2, size=200)  # independent noise series
    frames = arr[:, :, None, None].astype(complex)
    picked = sn.select_subcarriers(frames, 7)
    assert 3 not in picked
    assert len(picked) == 7
    # brute-force correlation oracle agrees on the loser
    corr = np.corrcoef(arr.T)
    np.fill_diagonal(corr, 0.0)
    assert np.argmin(corr.sum(axis=1)) == 3


def test_select_all_returns_sorted():
    rng = np.random.default_rng(2)
    arr = rng.uniform(1, 2, size=(30, 6, 1, 1)).astype(complex)
    assert sn.select_subcarriers(arr, 6) == list(range(6))


def test_select_constant_series_scores_zero():
    rng = np.random.default_rng(3)
    base = rng.uniform(1, 2, size=40)
    arr = np.repeat(base[:, None], 4, axis=1).astype(complex)
    arr[:, 2] = 1.5  # zero variance scores 0, the co-varying rest score ~1
    frames = arr[:, :, None, None]
    picked = sn.select_subcarriers(frames, 3)
    assert picked == [0, 1, 3]


def select_full_matrix(frames, k):
    """select_subcarriers' scores, from the whole (time, components) |H| matrix at once."""
    n_sub = frames.shape[1]
    series = sn.magnitude_matrix(frames).reshape(len(frames), n_sub, -1).mean(axis=2)
    centered = series - series.mean(axis=0, keepdims=True)
    norms = np.sqrt((centered ** 2).sum(axis=0))
    unit = centered / np.where(norms > 0, norms, 1.0)
    corr = unit.T @ unit
    corr[norms == 0, :] = 0.0
    corr[:, norms == 0] = 0.0
    np.fill_diagonal(corr, 0.0)
    scores = corr.sum(axis=1) / max(n_sub - 1, 1)
    return sorted(int(i) for i in np.lexsort((np.arange(n_sub), -scores))[:k])


@pytest.mark.parametrize("t", [2, 255, 257, 700])
def test_select_matches_full_matrix_reference(t):
    # one shared series plus subcarrier noise of growing amplitude, over row blocks of 256
    rng = np.random.default_rng(t)
    base = rng.uniform(1.0, 2.0, size=(t, 1, 1, 1))
    amp = np.linspace(0.1, 2.0, 12)[None, :, None, None]
    frames = base + amp * (rng.normal(size=(t, 12, 2, 3)) + 1j * rng.normal(size=(t, 12, 2, 3)))
    for k in (1, 5, 12):
        assert sn.select_subcarriers(frames, k) == select_full_matrix(frames, k)
        assert sn.select_subcarriers(np.abs(frames), k) == select_full_matrix(frames, k)


# --- sliding_std -----------------------------------------------------------

def test_sliding_std_constant_is_zero():
    out = orc.sliding_std(np.full(100, 3.7), 10)
    assert np.array_equal(out, np.zeros(91))


def test_sliding_std_hand_example():
    assert np.allclose(orc.sliding_std([0, 0, 2, 2], 2), [0, 1, 0])


def test_sliding_std_alternating_limit():
    a = 0.75
    series = a * (-1.0) ** np.arange(400)
    out = orc.sliding_std(series, 200)
    assert np.allclose(out, a, rtol=1e-12)


def test_sliding_std_short_series_rejected():
    with pytest.raises(ValueError):
        orc.sliding_std([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        orc.sliding_std([1.0, 2.0, 3.0], 1)


def test_sliding_std_nonnegative_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        w = int(rng.integers(2, n + 1))
        x = rng.normal(size=n) * 10.0 ** float(rng.integers(-6, 3))
        out = orc.sliding_std(x, w)
        assert np.all(out >= 0)
        assert out.shape == (n - w + 1,)


def test_sliding_std_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(4, 50))
        w = int(rng.integers(2, n + 1))
        x = rng.uniform(0.5, 1.5, size=n)
        brute = np.array([np.std(x[i:i + w]) for i in range(n - w + 1)])
        assert np.allclose(orc.sliding_std(x, w), brute, rtol=1e-12)


def test_sliding_std_step_matches_per_window_std():
    # a FLIP-like step of 1e4 noise stds, off the 70-sample block grid
    rng = np.random.default_rng(15)
    for step in (2101, 2135, 2169):
        x = np.where(np.arange(4200) < step, 1.0, 11.0) + 1e-3 * rng.normal(size=4200)
        want = np.array([np.std(x[i:i + 70]) for i in range(4200 - 70 + 1)])
        np.testing.assert_allclose(orc.sliding_std(x, 70), want, rtol=1e-12, atol=0)


@st.composite
def step_columns(draw, max_t=150, cols=None):
    """(x, n_w): piecewise-constant columns plus noise at a random magnitude scale."""
    t = draw(st.integers(2, max_t))
    n_w = draw(st.integers(2, t))
    cols = cols or draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.integers(-6, 6))
    noise = 10.0 ** -draw(st.integers(1, 4))
    n_steps = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = rng.uniform(1.0, 10.0, size=(n_steps + 1, cols))
    edges = np.sort(rng.integers(0, t, size=(n_steps, 1, cols)), axis=0)
    segment = (np.arange(t)[None, :, None] >= edges).sum(axis=0)  # (t, cols)
    x = np.take_along_axis(levels, segment, axis=0) + noise * rng.normal(size=(t, cols))
    return scale * np.abs(x), n_w


@given(step_columns())
def test_sliding_std_property_matches_brute_force(case):
    x, n_w = case
    for col in x.T:
        want = orc.brute_force_observe(col[:, None, None, None], n_w)
        np.testing.assert_allclose(orc.sliding_std(col, n_w), want, rtol=1e-12, atol=0)


# --- observe ---------------------------------------------------------------

def test_observe_static_channel_is_zero():
    arr = np.ones((50, 2, 2, 2), dtype=complex) * (0.3 - 0.4j)
    obs = sn.observe(arr, 0.1, 70.0)
    assert np.array_equal(obs.values, np.zeros(50 - 7 + 1))


def test_observe_single_component_equals_sliding_std():
    rng = np.random.default_rng(6)
    x = rng.uniform(0.5, 2.0, size=80)
    arr = x[:, None, None, None].astype(complex)
    obs = sn.observe(arr, 10 / 70, 70.0)
    assert np.allclose(obs.values, orc.sliding_std(x, 10), rtol=1e-12)


def test_observe_two_components_mean():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.5, 2.0, size=60)
    b = rng.uniform(0.5, 2.0, size=60)
    arr = np.stack([a, b], axis=1)[:, :, None, None].astype(complex)
    obs = sn.observe(arr, 8 / 70, 70.0)
    expected = (orc.sliding_std(a, 8) + orc.sliding_std(b, 8)) / 2
    assert np.allclose(obs.values, expected, rtol=1e-12)


def test_observe_matches_brute_force_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        t = int(rng.integers(8, 40))
        k = int(rng.integers(1, 4))
        arr = (rng.normal(size=(t, k, 2, 2)) + 1j * rng.normal(size=(t, k, 2, 2)))
        n_w = int(rng.integers(2, t + 1))
        obs = sn.observe(arr, n_w / 70.0, 70.0)
        assert np.allclose(obs.values, orc.brute_force_observe(arr, n_w), rtol=1e-12)


@given(st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2)), st.data())
def test_observe_property_matches_brute_force(shape, data):
    x, n_w = data.draw(step_columns(max_t=80, cols=int(np.prod(shape))))
    phase = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).uniform(
        0, 2 * np.pi, size=x.shape)
    arr = (x * np.exp(1j * phase)).reshape(x.shape[0], *shape)
    obs = sn.observe(arr, n_w / 70.0, 70.0)
    np.testing.assert_allclose(obs.values, orc.brute_force_observe(arr, n_w), rtol=1e-12,
                               atol=0)


@pytest.mark.parametrize("t, n_w, step, magnitudes", [
    (503, 70, None, False), (503, 70, 251, False), (503, 70, 251, True), (300, 7, 150, False),
    (70, 70, None, False), (71, 70, 35, True), (2, 2, None, False)])
def test_observe_is_component_mean_of_column_stds(t, n_w, step, magnitudes):
    """observe reads |H| one block of windows at a time; its values are, to the bit, the
    component mean of each column's sliding std, over full and partial blocks."""
    rng = np.random.default_rng(t + n_w)
    frames = rng.normal(size=(t, 3, 2, 3)) + 1j * rng.normal(size=(t, 3, 2, 3))
    if step is not None:  # a jump of 1e4 noise stds, whose windows take the two-pass formula
        frames = 1e-3 * frames + np.where(np.arange(t) < step, 1.0, 11.0)[:, None, None, None]
    if magnitudes:
        frames = np.abs(frames)
    mags = sn.magnitude_matrix(frames)
    want = np.stack([orc.sliding_std(col, n_w) for col in mags.T], axis=1).mean(axis=1)
    assert np.array_equal(sn.observe(frames, n_w / 70.0, 70.0).values, want)


def test_observe_memory_is_one_block_not_the_session():
    """A 60 s full-band |H| array (16 MB) is observed in under 3 MiB above its input, half the
    band in under 1.5 MiB, each within 10% of what a 10 s array takes: the memory grows with
    n_w, not with time."""
    rng = np.random.default_rng(16)
    for n_sub, bound in ((56, 3 << 20), (28, 1.5 * 2 ** 20)):
        peaks = []
        for seconds in (10, 60):
            mags = rng.uniform(1.0, 2.0, size=(70 * seconds, n_sub, 3, 3))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                sn.observe(mags, 1.0, 70.0)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] < bound, n_sub
        assert peaks[1] <= 1.1 * peaks[0], n_sub


# --- |H| in session layout ------------------------------------------------------

def session_layout(mags):
    """mags (T, K, n_rx, n_tx) as experiments.session holds |H|: a view of a buffer whose C order
    is the component order."""
    view = sn._component_order(np.ascontiguousarray(sn._component_order(mags)))
    assert not view.flags.c_contiguous and sn._component_order(view).flags.c_contiguous
    return view


@pytest.mark.parametrize("t, n_w, step, constant", [
    (503, 70, None, False), (503, 70, 251, False), (503, 70, 251, True), (300, 7, 150, False),
    (70, 70, None, False), (71, 70, 35, True), (2, 2, None, True)])
def test_session_layout_read_in_place_bit_for_bit(t, n_w, step, constant):
    """observe and select_subcarriers read |H| in session layout in place, and give to the bit
    what they give for a C-order copy: fallback windows, partial last blocks (of n_w and of
    256 rows), T = n_w and constant columns."""
    rng = np.random.default_rng(t + n_w)
    mags = rng.uniform(0.5, 2.0, size=(t, 4, 2, 3))
    if step is not None:  # a jump of 1e4 noise stds, whose windows take the two-pass formula
        mags = 1e-3 * mags + np.where(np.arange(t) < step, 1.0, 11.0)[:, None, None, None]
    if constant:  # one constant column, and a subcarrier whose series has no variance
        mags[:, 0, 1, 2] = 0.7
        mags[:, 2] = 1.3
    view, copy = session_layout(mags), mags.copy()
    assert (sn.observe(view, n_w / 70.0, 70.0).values.tobytes()
            == sn.observe(copy, n_w / 70.0, 70.0).values.tobytes())
    for k in (1, 2, 4):
        assert sn.select_subcarriers(view, k) == sn.select_subcarriers(copy, k)


@pytest.mark.parametrize("entry", [-0.8, -0.0], ids=["negative", "negative_zero"])
def test_session_layout_with_a_sign_bit_is_read_as_its_magnitude(entry):
    """A real input with an entry whose sign bit is set is read as |x|, as it always was."""
    rng = np.random.default_rng(17)
    mags = rng.uniform(0.5, 2.0, size=(150, 4, 2, 3))
    mags[40, 2, 1, 0] = entry
    view, magnitude = session_layout(mags), np.abs(mags)  # C order: read through a copy
    assert (sn.observe(view, 0.5, 70.0).values.tobytes()
            == sn.observe(magnitude, 0.5, 70.0).values.tobytes())
    for k in (1, 2):
        assert sn.select_subcarriers(view, k) == sn.select_subcarriers(magnitude, k)


def test_observe_reads_session_layout_without_a_block_buffer():
    """observe of |H| in session layout takes its row blocks as views: it peaks at least 0.9 of
    a block buffer ((2 n_w - 1) rows of |H|) under the same values in C order."""
    mags = np.random.default_rng(18).uniform(1.0, 2.0, size=(700, 28, 3, 3))
    peaks = []
    for x in (mags, session_layout(mags)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sn.observe(x, 1.0, 70.0)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] - 0.9 * (2 * 70 - 1) * 28 * 9 * 8


NOT_DISTINCT_IN_4 = "is not a distinct integer in \\[0, 4\\)"
BAD_SUBCARRIERS = [([-1, 0], "subcarrier -1 " + NOT_DISTINCT_IN_4),
                   ([3, 3], "subcarrier 3 " + NOT_DISTINCT_IN_4),
                   ([1.7], "subcarrier 1.7 " + NOT_DISTINCT_IN_4),
                   ([4], "subcarrier 4 " + NOT_DISTINCT_IN_4),
                   ([], "at least one subcarrier")]


@pytest.mark.parametrize("subs, message", BAD_SUBCARRIERS,
                         ids=["negative", "repeated", "float", "past_end", "empty"])
def test_observe_rejects_bad_subcarriers(subs, message):
    with pytest.raises(ValueError, match=message):
        sn.check_subcarriers(subs, 4)


def test_check_subcarriers_keeps_order_as_ints():
    assert sn.check_subcarriers(np.array([3, 0, 2]), 4) == [3, 0, 2]
    assert all(type(k) is int for k in sn.check_subcarriers(np.array([3, 0]), 4))


def test_observation_series_rejects_negatives():
    with pytest.raises(ValueError):
        sn.ObservationSeries(values=np.array([0.1, -0.2]), sample_rate=70.0, window_s=1.0)


# --- thresholds ------------------------------------------------------------

def test_calibrate_threshold_examples():
    assert sn.calibrate_threshold([1, 1, 1], 11.0) == 1.0
    assert sn.calibrate_threshold([1, 2, 3, 4, 5], 1.0) == 4.0
    ref = [0.4, 0.9, 0.2, 0.7]
    assert sn.calibrate_threshold(ref, 0.0) == np.median(ref)


def test_calibrate_threshold_monotone_in_c():
    rng = np.random.default_rng(10)
    for _ in range(50):
        ref = rng.uniform(0, 1, size=int(rng.integers(3, 40)))
        cs = np.sort(rng.uniform(0, 20, size=5))
        us = [sn.calibrate_threshold(ref, c) for c in cs]
        assert np.all(np.diff(us) >= 0)


def test_max_threshold():
    assert sn.max_threshold([0.1, 0.5, 0.3]) == 0.5
    assert sn.max_threshold([0.0, 0.0]) == 0.0
    assert sn.max_threshold([0.1, 9.9, 0.2]) == 9.9


# --- detect / roc ----------------------------------------------------------

def test_detect_examples():
    rep = sn.detect([1.0, 2.0, 3.0], 2.0)
    assert np.array_equal(rep.decisions, [False, False, True])
    assert rep.detection_rate == pytest.approx(1 / 3)
    assert sn.detect([1.0, 2.0, 3.0], -1.0).detection_rate == 1.0
    assert sn.detect([1.0, 2.0, 3.0], 3.0).detection_rate == 0.0  # strict inequality


def test_roc_perfect_separation():
    rep = sn.roc([10.0, 11.0, 12.0], [1.0, 2.0, 3.0])
    assert rep.auc == pytest.approx(1.0)


def test_roc_identical_distributions():
    rng = np.random.default_rng(11)
    x = rng.uniform(size=500)
    rep = sn.roc(x, x)
    assert rep.auc == pytest.approx(0.5, abs=0.01)


def test_roc_two_point_enumeration():
    rep = sn.roc([0.0, 1.0], [0.0, 1.0])
    assert (0.0, 0.0) in rep.roc_points
    assert (0.5, 0.5) in rep.roc_points
    assert (1.0, 1.0) in rep.roc_points
    assert rep.auc == pytest.approx(0.5)


def test_roc_monotone_points_and_transform_invariance():
    rng = np.random.default_rng(12)
    motion = rng.normal(1.0, 0.3, size=300) ** 2
    ref = rng.normal(0.5, 0.3, size=200) ** 2
    rep = sn.roc(motion, ref)
    fprs = np.array([p[0] for p in rep.roc_points])
    tprs = np.array([p[1] for p in rep.roc_points])
    assert np.all(np.diff(fprs) >= 0)
    assert np.all(np.diff(tprs) >= 0)
    transformed = sn.roc(np.sqrt(motion), np.sqrt(ref))  # strictly monotone map
    assert transformed.auc == pytest.approx(rep.auc, rel=1e-12)


def test_scale_equivariance():
    rng = np.random.default_rng(13)
    arr = (rng.normal(size=(60, 2, 2, 2)) + 1j * rng.normal(size=(60, 2, 2, 2)))
    a = 3.7
    obs = sn.observe(arr, 10 / 70, 70.0)
    obs_scaled = sn.observe(a * arr, 10 / 70, 70.0)
    assert np.allclose(obs_scaled.values, a * obs.values, rtol=1e-12)
    u = sn.calibrate_threshold(obs, 11.0)
    u_scaled = sn.calibrate_threshold(obs_scaled, 11.0)
    assert u_scaled == pytest.approx(a * u, rel=1e-12)
    assert np.array_equal(sn.detect(obs_scaled, u_scaled).decisions,
                          sn.detect(obs, u).decisions)


def test_attack_report_composition():
    rng = np.random.default_rng(14)
    ref = rng.uniform(0.0, 1.0, size=400)
    motion = rng.uniform(0.5, 2.0, size=400)
    rep = sn.attack_report(ref, motion, sn.calibrate_threshold(ref, 11.0))
    assert rep.threshold == sn.calibrate_threshold(ref, 11.0)
    assert rep.tpr == rep.detection_rate
    assert 0.0 <= rep.auc <= 1.0
    rep_max = sn.attack_report(ref, motion, sn.max_threshold(ref))
    assert rep_max.fpr == 0.0  # max threshold yields zero reference false positives
