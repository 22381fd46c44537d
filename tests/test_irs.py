import math

import numpy as np
import pytest

from obfusense import irs as ir

import oracle as orc


def fresh_state(m=256, r=0.05, p_hold=0.0, seed=0):
    return orc.initial_state(m, np.random.default_rng(seed), progression_rate=r, hold_prob=p_hold)


def test_map_coefficient():
    assert orc.map_coefficient(0) == -1.0
    assert orc.map_coefficient(1) == 1.0
    for b in (0, 1):
        assert orc.map_coefficient(b) * orc.map_coefficient(b) == 1.0
    with pytest.raises(ValueError):
        orc.map_coefficient(2)


def test_coefficients_vectorized():
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    assert np.array_equal(ir.coefficients(bits), [-1.0, 1.0, 1.0, -1.0])


def test_config_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ir.IrsAlgState(bits=np.array([0, 2], dtype=np.uint8), rng=rng)
    with pytest.raises(ValueError):
        ir.IrsAlgState(bits=np.zeros(4, np.uint8), rng=rng, progression_rate=0.6)
    with pytest.raises(ValueError):
        ir.IrsAlgState(bits=np.zeros(4, np.uint8), rng=rng, hold_prob=1.0)


def test_state_without_rng_is_type_error():
    # an unseeded fallback stream would be the one draw the session seed does not fix
    with pytest.raises(TypeError, match="rng"):
        ir.IrsAlgState(bits=np.zeros(4, np.uint8))


def test_step_never_writes_into_the_callers_bits():
    bits = np.random.default_rng(2).integers(0, 2, size=64, dtype=np.uint8)
    before = bits.copy()
    state = ir.IrsAlgState(bits=bits, rng=np.random.default_rng(3), hold_prob=0.0)
    for _ in range(6):
        assert ir.step(state)
    assert np.array_equal(bits, before)
    assert not np.array_equal(state.bits, before)
    assert not np.shares_memory(state.bits, bits)


def test_step_changes_state_in_place_and_returns_bool():
    state = fresh_state(m=32, seed=4)
    bits = state.bits
    changed = ir.step(state)
    assert changed is True
    assert state.bits is bits
    assert state.next_state == ir.FLIP


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_scheduler_params_rejects_update_rate(rate):
    with pytest.raises(ValueError, match="update_rate"):
        ir.SchedulerParams(update_rate=rate)


def test_scheduler_params_misspelled_keyword_is_type_error():
    with pytest.raises(TypeError, match="hold_probabilty"):
        ir.SchedulerParams(hold_probabilty=0.0)


def test_step_alternates_rand_and_flip():
    state = fresh_state()
    deltas = []
    for _ in range(12):
        prev = state.bits.copy()
        changed = ir.step(state)
        assert changed
        deltas.append(orc.hamming_distance(state.bits, prev))
    assert deltas == [13, 256] * 6  # ceil(0.05 * 256) = 13 alternating with full flips


def test_rand_flips_exact_distinct_count():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = int(rng.integers(2, 400))
        r = float(rng.uniform(1.0 / m, 0.5))
        state = orc.initial_state(m, np.random.default_rng(int(rng.integers(1 << 30))),
                                  progression_rate=r, hold_prob=0.0)
        prev = state.bits.copy()
        ir.step(state)
        assert orc.hamming_distance(state.bits, prev) == math.ceil(r * m)


def test_rand_then_flip_distance_property():
    # after an executed RAND then FLIP, distance to the pre-RAND config is M - ceil(R*M)
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = int(rng.integers(4, 300))
        r = float(rng.uniform(1.0 / m, 0.5))
        state = orc.initial_state(m, np.random.default_rng(int(rng.integers(1 << 30))),
                                  progression_rate=r, hold_prob=0.0)
        start = state.bits.copy()
        ir.step(state)  # RAND
        ir.step(state)  # FLIP
        assert orc.hamming_distance(state.bits, start) == m - math.ceil(r * m)


def test_flip_involution():
    state = ir.IrsAlgState(bits=np.array([1, 0, 1, 1, 0], np.uint8),
                           next_state=ir.FLIP, hold_prob=0.0,
                           rng=np.random.default_rng(0))
    start = state.bits.copy()
    ir.step(state)
    again = ir.IrsAlgState(bits=state.bits, next_state=ir.FLIP, hold_prob=0.0, rng=state.rng)
    ir.step(again)
    assert np.array_equal(again.bits, start)


def test_hold_keeps_config_and_state():
    state = fresh_state(p_hold=0.999999, seed=5)
    before_bits = state.bits.copy()
    before_state = state.next_state
    changed = ir.step(state)
    assert not changed
    assert np.array_equal(state.bits, before_bits)
    assert state.next_state == before_state


def test_hold_fraction_monte_carlo():
    # spec example: P_hold = 1 - eps, change fraction ~ eps within 3 sigma binomial
    eps = 0.02
    state = fresh_state(p_hold=1.0 - eps, seed=11)
    n = 100_000
    changed = 0
    for _ in range(n):
        changed += ir.step(state)
    sigma = math.sqrt(eps * (1 - eps) / n)
    assert abs(changed / n - eps) < 3 * sigma


def test_determinism_under_fixed_seed():
    a = fresh_state(seed=9, p_hold=0.4)
    b = fresh_state(seed=9, p_hold=0.4)
    for _ in range(200):
        ca = ir.step(a)
        cb = ir.step(b)
        assert ca == cb
        assert np.array_equal(a.bits, b.bits)


def test_hamming_distance_basics():
    m = 256
    zero = np.zeros(m, np.uint8)
    one = np.ones(m, np.uint8)
    assert orc.hamming_distance(zero, one) == m
    assert orc.hamming_distance(zero, zero) == 0
    flipped = zero.copy()
    flipped[:13] ^= 1
    assert orc.hamming_distance(zero, flipped) == 13
    with pytest.raises(ValueError):
        orc.hamming_distance(zero, np.zeros(8, np.uint8))


def test_hamming_trace_zero_steps():
    trace = orc.hamming_trace(64, 0, 4, seed=1)
    assert np.array_equal(trace, [0.0])


def test_hamming_trace_saturates_without_inversion():
    trace = orc.hamming_trace(256, 30, 200, progression_rate=0.5, hold_prob=0.0,
                             seed=2, include_inversion=False)
    assert trace[0] == 0.0
    assert abs(trace[-1] - 128.0) < 5.0  # random-walk equilibrium at M/2


def test_hamming_trace_alternates_with_inversion():
    trace = orc.hamming_trace(256, 8, 100, progression_rate=0.05, hold_prob=0.0,
                             seed=2, include_inversion=True)
    assert np.allclose(trace[1], 13.0)  # first executed step is exactly the RAND count
    # every FLIP mirrors the previous distance exactly: d -> M - d
    assert np.allclose(trace[2::2], 256.0 - trace[1:-1:2])
    assert trace[1:].min() < 64 and trace[1:].max() > 192


def test_serialize_config_little_endian_hex():
    bits = np.array([1, 0, 0, 0, 0, 0, 0, 0, 1, 1], np.uint8)
    assert orc.serialize_config(bits) == "0103"
