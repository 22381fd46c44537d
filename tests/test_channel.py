import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from obfusense import channel as ch
from obfusense import io as oio
from obfusense import irs as ir

import oracle as orc

C = ch.C_LIGHT


def simple_scenario(**kw):
    base = dict(anchor_pos=(0.0, 0.0), eve_pos=(5.0, 0.0), room=[], n_tx=1, n_rx=1,
                snr_db=float("inf"), seed=3)
    base.update(kw)
    return ch.Scenario(**base)


def test_scenario_validation():
    with pytest.raises(ch.ScenarioError):
        simple_scenario(n_tx=0)
    with pytest.raises(ch.ScenarioError):
        simple_scenario(n_subcarriers=0)
    with pytest.raises(ch.ScenarioError):
        simple_scenario(sample_rate=0.0)
    with pytest.raises(ch.ScenarioError):
        simple_scenario(seed=-1)
    with pytest.raises(ch.ScenarioError):
        simple_scenario(irs_pos=(1, 1), irs_normal=(1.0, 0.5))  # not unit norm
    simple_scenario(irs_pos=(1, 1), irs_normal=(0.0, 1.0))


NAN = float("nan")


@pytest.mark.parametrize("field, value", [
    ("irs_panel", (0.0, -1.0)),
    ("anchor_pos", (NAN, 0.0)),
    ("irs_normal", (NAN, NAN)),
    ("sample_rate", NAN),
    ("carrier_freq", NAN),
    ("snr_db", NAN),
    ("snr_db", float("-inf")),
    ("room", [((0.0, 0.0), (float("inf"), 0.0))]),
])
def test_scenario_rejects_non_finite_and_non_positive(field, value):
    kw = {"irs_pos": (1.0, 1.0), "irs_normal": (0.0, 1.0), field: value}
    with pytest.raises(ch.ScenarioError, match=field):
        simple_scenario(**kw)


@pytest.mark.parametrize("snr_db", [float("inf"), -10.0])
def test_scenario_accepts_infinite_or_negative_snr(snr_db):
    assert simple_scenario(snr_db=snr_db).snr_db == snr_db


def test_los_only():
    scn = simple_scenario()
    paths = orc.records(ch.build_static_paths(scn), scn)
    assert len(paths) == 1
    assert paths[0].kind == ch.LOS
    assert paths[0].length == pytest.approx(5.0, abs=0)


def test_wall_reflection_image_geometry():
    # wall parallel to the LOS at 2 m offset; image method gives the length by hand
    scn = simple_scenario(room=[((-1.0, 2.0), (6.0, 2.0))])
    paths = orc.records(ch.build_static_paths(scn), scn)
    assert len(paths) == 2
    refl = [p for p in paths if p.kind == ch.WALL][0]
    assert refl.length == pytest.approx(2.0 * np.sqrt(2.5 ** 2 + 2.0 ** 2), rel=1e-12)
    # bounce point sits at the midpoint of the wall's footprint
    assert refl.segment_points[1] == pytest.approx([2.5, 2.0])


def test_wall_crossing_blocks_los():
    scn = simple_scenario(room=[((2.5, -1.0), (2.5, 1.0))])
    paths = orc.records(ch.build_static_paths(scn), scn)
    assert all(p.kind != ch.LOS for p in paths)
    # that wall cannot produce a same-side reflection either
    assert len(paths) == 0


def test_wall_behind_no_reflection():
    # anchor and eve on opposite sides of the wall line: no specular bounce
    scn = simple_scenario(anchor_pos=(0.0, -1.0), eve_pos=(5.0, 1.0),
                          room=[((2.0, 0.0), (3.0, 0.0))])
    paths = orc.records(ch.build_static_paths(scn), scn)
    assert [p.kind for p in paths] == []


# points of a 5 x 5 lattice make walls that touch the endpoints, overlap and
# run collinear with the LOS or with each other
lattice = st.integers(0, 4).map(float)
point = st.tuples(lattice, lattice)


@given(room=st.lists(st.tuples(point, point), max_size=6), anchor=point, eve=point)
# a wall through the anchor, through eve, ending on the LOS from either end
@example(room=[((1.0, 0.0), (1.0, 2.0))], anchor=(1.0, 1.0), eve=(3.0, 1.0))
@example(room=[((3.0, 0.0), (3.0, 2.0))], anchor=(1.0, 1.0), eve=(3.0, 1.0))
@example(room=[((2.0, 1.0), (2.0, 3.0))], anchor=(1.0, 1.0), eve=(3.0, 1.0))
@example(room=[((2.0, 3.0), (2.0, 1.0))], anchor=(1.0, 1.0), eve=(3.0, 1.0))
# the specular point on either end of a wall
@example(room=[((2.0, 2.0), (4.0, 2.0)), ((0.0, 2.0), (2.0, 2.0))], anchor=(1.0, 1.0),
         eve=(3.0, 1.0))
def test_static_paths_match_wall_by_wall_image_method(room, anchor, eve):
    if anchor == eve:
        return
    scn = simple_scenario(anchor_pos=anchor, eve_pos=eve, room=room)
    want = orc.static_routes(scn)
    got = orc.records(ch.build_static_paths(scn), scn)
    assert [len(p.segment_points) for p in got] == [len(r) for r in want]
    for p, route in zip(got, want):
        assert p.kind == (ch.LOS if len(route) == 2 else ch.WALL)
        assert np.array_equal(p.segment_points, route)


def test_degenerate_geometry_rejected():
    with pytest.raises(ch.ScenarioError):
        ch.build_static_paths(simple_scenario(eve_pos=(0.0, 0.0)))


def test_los_base_gain_formula():
    scn = simple_scenario()
    p = orc.records(ch.build_static_paths(scn), scn)[0]
    lam = scn.wavelength
    expected = lam / (4 * np.pi * 5.0) * np.exp(-2j * np.pi * scn.carrier_freq * 5.0 / C)
    assert p.base_gain == pytest.approx(expected, rel=1e-12)


def test_wall_gain_includes_reflection_loss():
    scn = simple_scenario(room=[((-1.0, 2.0), (6.0, 2.0))], wall_reflection_loss_db=6.0)
    refl = [p for p in orc.records(ch.build_static_paths(scn), scn) if p.kind == ch.WALL][0]
    gamma = 10 ** (-6.0 / 20.0)
    assert abs(refl.base_gain) == pytest.approx(
        gamma * scn.wavelength / (4 * np.pi * refl.length), rel=1e-12)


def test_irs_midpoint_element():
    scn = simple_scenario(irs_pos=(2.5, 0.0), irs_normal=(-1.0, 0.0))
    layout = ch.IrsLayout(positions=np.array([[2.5, 0.0]]), heights=np.zeros(1))
    paths = orc.records(ch.build_irs_paths(scn, layout), scn)
    assert len(paths) == 1
    p = paths[0]
    assert p.length == pytest.approx(5.0, rel=1e-12)  # d1 + d2 equals the LOS length
    # hand evaluation: cos toward the anchor is 1, toward eve max(0, -1) = 0
    d1 = d2 = 2.5
    expected_mag = scn.wavelength ** 2 * 1.0 * 0.0 / ((4 * np.pi) ** 2 * d1 * d2)
    assert abs(p.base_gain) == pytest.approx(expected_mag, abs=1e-18)


def test_irs_offset_element_hand_formula():
    scn = simple_scenario(eve_pos=(4.0, 0.0), irs_pos=(2.0, 1.0), irs_normal=(0.0, -1.0))
    layout = ch.IrsLayout(positions=np.array([[2.0, 1.0]]), heights=np.zeros(1))
    p = orc.records(ch.build_irs_paths(scn, layout), scn)[0]
    d1 = np.sqrt(4.0 + 1.0)
    d2 = np.sqrt(4.0 + 1.0)
    cos1 = 1.0 / np.sqrt(5.0)
    cos2 = 1.0 / np.sqrt(5.0)
    expected = (cos1 * cos2 / ((4 * np.pi) ** 2 * d1 * d2)) * scn.wavelength ** 2 \
        * np.exp(-2j * np.pi * scn.carrier_freq * (d1 + d2) / C)
    assert p.base_gain == pytest.approx(expected, rel=1e-12)


def test_irs_element_height_lengthens_path():
    scn = simple_scenario(eve_pos=(4.0, 0.0), irs_pos=(2.0, 1.0), irs_normal=(0.0, -1.0))
    layout = ch.IrsLayout(positions=np.array([[2.0, 1.0]]), heights=np.array([0.1]))
    p = orc.records(ch.build_irs_paths(scn, layout), scn)[0]
    assert p.length == pytest.approx(2 * np.sqrt(5.0 + 0.01), rel=1e-12)


def test_irs_orthogonal_normal_zero_gain():
    # normal orthogonal to both arrival directions -> |gain| = 0, path kept
    scn = simple_scenario(irs_pos=(2.5, 0.0), irs_normal=(0.0, 1.0))
    layout = ch.IrsLayout(positions=np.array([[2.5, 0.0]]), heights=np.zeros(1))
    paths = orc.records(ch.build_irs_paths(scn, layout), scn)
    assert len(paths) == 1
    assert abs(paths[0].base_gain) == 0.0


def test_irs_grid_cardinality():
    scn = oio.default_scenario(seed=1)
    layout = ch.grid_layout(scn)
    paths = orc.records(ch.build_irs_paths(scn, layout), scn)
    assert len(paths) == 256
    assert sorted(p.element for p in paths) == list(range(256))
    # panel footprint spans the configured width along the tangent
    extent = layout.positions.max(axis=0) - layout.positions.min(axis=0)
    assert np.hypot(*extent) == pytest.approx(0.43 * 15 / 16, rel=1e-9)
    assert layout.heights.max() - layout.heights.min() == pytest.approx(0.35 * 15 / 16, rel=1e-9)


def test_apply_motion_absent_is_identity():
    scn = simple_scenario(room=[((-1.0, 2.0), (6.0, 2.0))])
    paths = orc.records(ch.build_static_paths(scn), scn)
    person = ch.PersonState(position=(2.5, 0.0), present=False)
    out = orc.apply_motion(paths, person, scn)
    assert len(out) == len(paths)
    assert all(p.blocked_atten == 1.0 for p in out)
    assert all(p.kind != ch.SCATTER for p in out)


def test_apply_motion_blocking_depth_on_route():
    scn = simple_scenario()
    paths = orc.records(ch.build_static_paths(scn), scn)
    person = ch.PersonState(position=(2.5, 0.0), blocking_depth_db=10.0)
    out = orc.apply_motion(paths, person, scn)
    los = [p for p in out if p.kind == ch.LOS][0]
    assert los.blocked_atten == pytest.approx(10 ** (-10 / 20), rel=1e-12)  # ~0.3162


def test_apply_motion_linear_ramp():
    scn = simple_scenario()
    paths = orc.records(ch.build_static_paths(scn), scn)
    person = ch.PersonState(position=(2.5, 0.2), blocking_radius=0.4, blocking_depth_db=10.0)
    out = orc.apply_motion(paths, person, scn)
    los = [p for p in out if p.kind == ch.LOS][0]
    s = 1.0 - 0.2 / 0.4
    assert los.blocked_atten == pytest.approx(10 ** (-10.0 * s / 20.0), rel=1e-12)


def test_apply_motion_far_person_only_scatters():
    scn = simple_scenario()
    paths = orc.records(ch.build_static_paths(scn), scn)
    person = ch.PersonState(position=(2.5, 4.0), blocking_radius=0.4)
    out = orc.apply_motion(paths, person, scn)
    assert all(p.blocked_atten == 1.0 for p in out if p.kind != ch.SCATTER)
    scat = [p for p in out if p.kind == ch.SCATTER]
    assert len(scat) == 1
    d1 = np.hypot(2.5, 4.0)
    d2 = np.hypot(2.5, 4.0)
    expected = 10 ** (-5 / 20) * scn.wavelength ** 2 / ((4 * np.pi) ** 2 * d1 * d2)
    assert abs(scat[0].base_gain) == pytest.approx(expected, rel=1e-12)


def test_single_los_magnitude_all_subcarriers():
    scn = simple_scenario(n_subcarriers=8)
    paths = orc.records(ch.build_static_paths(scn), scn)
    frame = orc.channel_response(paths, [], None, None, scn, 0)
    lam_k = C / scn.subcarrier_freqs()
    assert np.allclose(np.abs(frame.values[:, 0, 0]), lam_k / (4 * np.pi * 5.0), rtol=1e-13)


def test_inversion_identity():
    scn = oio.default_scenario(seed=7, snr_db=float("inf"))
    static = orc.records(ch.build_static_paths(scn), scn)
    irsp = orc.records(ch.build_irs_paths(scn, ch.grid_layout(scn)), scn)
    h0 = orc.channel_response(static, irsp, np.zeros(256, np.uint8), None, scn, 0).values
    h1 = orc.channel_response(static, irsp, np.ones(256, np.uint8), None, scn, 0).values
    henv = orc.channel_response(static, irsp, None, None, scn, 0).values
    assert np.max(np.abs(h0 + h1 - 2 * henv)) < 1e-10


def test_config_length_mismatch_rejected():
    scn = oio.default_scenario(seed=7, snr_db=float("inf"))
    static = orc.records(ch.build_static_paths(scn), scn)
    irsp = orc.records(ch.build_irs_paths(scn, ch.grid_layout(scn)), scn)
    with pytest.raises(ValueError, match="does not match"):
        orc.channel_response(static, irsp, np.zeros(8, np.uint8), None, scn, 0)


def test_frame_determinism_same_seed_and_index():
    scn = simple_scenario(snr_db=20.0, n_subcarriers=4)
    paths = orc.records(ch.build_static_paths(scn), scn)
    a = orc.channel_response(paths, [], None, None, scn, 5).values
    b = orc.channel_response(paths, [], None, None, scn, 5).values
    c = orc.channel_response(paths, [], None, None, scn, 6).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_superposition():
    scn = simple_scenario(room=[((-1.0, 2.0), (6.0, 2.0)), ((-1.0, -3.0), (6.0, -3.0))],
                          n_tx=2, n_rx=2)
    paths = orc.records(ch.build_static_paths(scn), scn)
    assert len(paths) >= 3
    half_a, half_b = paths[:2], paths[2:]
    full = orc.channel_response(paths, [], None, None, scn, 0).values
    part_a = orc.channel_response(half_a, [], None, None, scn, 0).values
    part_b = orc.channel_response(half_b, [], None, None, scn, 0).values
    assert np.allclose(full, part_a + part_b, rtol=1e-12)


def test_pathloss_halves_when_distance_doubles():
    near_scn, far_scn = simple_scenario(eve_pos=(2.0, 0.0)), simple_scenario(eve_pos=(4.0, 0.0))
    near = orc.channel_response(orc.records(ch.build_static_paths(near_scn), near_scn),
                                [], None, None, near_scn, 0)
    far = orc.channel_response(orc.records(ch.build_static_paths(far_scn), far_scn),
                               [], None, None, far_scn, 0)
    assert np.allclose(np.abs(near.values), 2 * np.abs(far.values), rtol=1e-12)


def test_noise_calibration_matches_snr():
    scn = ch.Scenario(anchor_pos=(0, 0), eve_pos=(4, 0), room=[((-1, 1.5), (5, 1.5))],
                      n_tx=1, n_rx=1, n_subcarriers=4, snr_db=20.0, seed=9)
    sim = ch.FrameSimulator(scn)
    rng = np.random.default_rng(1)
    h0 = sim.h_env
    acc = 0.0
    n = 100_000
    for _ in range(n):
        acc += np.mean(np.abs(sim.frame(rng=rng) - h0) ** 2)
    snr_emp = 10 * np.log10(np.mean(np.abs(h0) ** 2) / (acc / n))
    assert abs(snr_emp - 20.0) < 0.5


def test_simulator_matches_channel_response():
    scn = oio.default_scenario(seed=5, snr_db=float("inf"))
    static = orc.records(ch.build_static_paths(scn), scn)
    irsp = orc.records(ch.build_irs_paths(scn, ch.grid_layout(scn)), scn)
    sim = ch.FrameSimulator(scn)
    rng = np.random.default_rng(0)
    for _ in range(5):
        bits = rng.integers(0, 2, 256).astype(np.uint8)
        person = ch.PersonState(position=(float(rng.uniform(1, 6)), float(rng.uniform(0.5, 5))))
        ref = orc.channel_response(static, irsp, bits, person, scn, 0).values
        fast = sim.frame(coeffs=ir.coefficients(bits), person=person)
        assert np.allclose(fast, ref, rtol=1e-12, atol=1e-18)


def test_scatter_path_modulation_factor_is_complex():
    scn = simple_scenario()
    p = orc.scatter_path(scn, (2.0, 1.0), 0.5j)
    assert p.kind == ch.SCATTER
    # the complex factor's phase rides on the frequency-independent coefficient
    assert np.angle(p.amp_coeff) == pytest.approx(np.pi / 2, rel=1e-9)
    d1 = np.hypot(2.0, 1.0)
    d2 = np.hypot(3.0, 1.0)
    assert abs(p.amp_coeff) == pytest.approx(0.5 / ((4 * np.pi) ** 2 * d1 * d2), rel=1e-12)


def _oracle_frame(scn, bits, person, position=None):
    """channel_response for surface bits (None: surface off) with the person at position."""
    static = orc.records(ch.build_static_paths(scn), scn)
    irsp = ([] if scn.irs_pos is None
            else orc.records(ch.build_irs_paths(scn, ch.grid_layout(scn)), scn))
    here = None if person is None else replace(person, position=tuple(position))
    cfg = None if bits is None else np.asarray(bits, dtype=np.uint8)
    return orc.channel_response(static, irsp, cfg, here, scn, 0).values


def test_frames_without_person_match_oracle_per_configuration():
    scn = oio.default_scenario(seed=5, snr_db=float("inf"))
    sim = ch.FrameSimulator(scn)
    bits = np.random.default_rng(4).integers(0, 2, size=(4, 256)).astype(np.uint8)
    cfg_index = np.array([0, 2, 2, 1, 3, 0, 3])
    got = sim.frames(bits.astype(np.int8) * 2 - 1, cfg_index)
    assert got.shape == (7, 56, 3, 3)
    for t, c in enumerate(cfg_index):
        assert np.allclose(got[t], _oracle_frame(scn, bits[c], None), rtol=1e-12, atol=1e-18)


def test_frames_add_noise_as_real_and_imaginary_parts():
    scn = oio.default_scenario(seed=5)
    sim = ch.FrameSimulator(scn)
    configs = np.random.default_rng(4).choice([-1, 1], size=(2, 256)).astype(np.int8)
    cfg_index = np.array([0, 1, 1, 0])
    person = ch.PersonState(position=(0.0, 0.0))
    positions = np.array([[3.0, 2.5], [3.2, 2.6], [3.4, 2.7], [3.6, 2.8]])
    z = sim.noise(np.random.default_rng(2), np.empty((4, 2) + sim.h_env.shape))
    got = sim.frames(configs, cfg_index, person=person, positions=positions, noise=z)
    clean = sim.frames(configs, cfg_index, person=person, positions=positions)
    assert np.array_equal(got, clean + (z[:, 0] + 1j * z[:, 1]))


@pytest.mark.parametrize("grid", [None, (1, 1)])
@pytest.mark.parametrize("with_person", [False, True])
def test_frames_on_tiny_surfaces_match_oracle(grid, with_person):
    base = oio.default_scenario(seed=6, snr_db=float("inf"))
    scn = (replace(base, irs_pos=None, irs_normal=None) if grid is None
           else replace(base, irs_grid=grid))
    sim = ch.FrameSimulator(scn)
    assert sim.n_elements == (0 if grid is None else 1)
    bits = np.array([[1], [0]], dtype=np.uint8)[:, :sim.n_elements]
    cfg_index = np.array([0, 1, 1])
    person = ch.PersonState(position=(0.0, 0.0)) if with_person else None
    positions = np.array([[3.0, 2.5], [3.75, 2.75], [5.5, 1.0]])  # the second on the LOS
    got = sim.frames(bits.astype(np.int8) * 2 - 1, cfg_index, person=person,
                     positions=positions if with_person else None)
    for t, c in enumerate(cfg_index):
        want = _oracle_frame(scn, None if grid is None else bits[c], person, positions[t])
        assert np.allclose(got[t], want, rtol=1e-12, atol=1e-18)


@pytest.mark.parametrize("grid", [(16, 16), (7, 3), (1, 1), None])
def test_blocking_on_distinct_routes_matches_per_path_oracle(grid):
    base = oio.default_scenario(seed=6, snr_db=float("inf"))
    scn = (replace(base, irs_pos=None, irs_normal=None) if grid is None
           else replace(base, irs_grid=grid))
    sim = ch.FrameSimulator(scn)
    person = ch.PersonState(position=(0.0, 0.0))
    # a line across the fan of element -> eavesdropper routes, near the surface
    positions = np.column_stack([np.full(40, 1.6), np.linspace(2.2, 3.9, 40)])
    got = sim._attenuations(person, positions)
    paths = orc.records(sim.paths, scn)
    want = np.array([[orc._blocking_atten(p, replace(person, position=tuple(xy))) for p in paths]
                     for xy in positions])
    assert np.array_equal(got < 1.0, want < 1.0)
    # the distances agree exactly; the oracle's scalar 10 ** x may round 1 ulp
    # away from numpy's vectorised power
    assert np.allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)
    # bit for bit, the same array arithmetic on every path's own route
    p = sim.paths
    d = np.minimum.reduceat(ch.point_segment_distances(positions, p.seg_a, p.seg_b),
                            p.seg_start, axis=1)
    s = np.clip(1.0 - d / person.blocking_radius, 0.0, 1.0)
    assert np.array_equal(got, np.where(s > 0.0, 10.0 ** (-person.blocking_depth_db * s / 20.0),
                                        1.0))
    if grid is None:
        return
    assert np.unique(sim._route[-sim.n_elements:]).size == grid[0]  # one route per column
    elem = got[:, -sim.n_elements:]
    if grid[0] > 1:  # a wrong route index would move some of these rows
        assert np.any(np.any(elem < 1.0, axis=1) & np.any(elem == 1.0, axis=1))
    else:
        assert np.any(elem < 1.0) and np.any(elem == 1.0)


def test_blocking_memory_grows_with_routes_not_elements():
    """On a 64x64 surface (4096 element paths, 64 distinct routes) the blocking
    step's peak memory stays near its own (T, paths) result."""
    sim = ch.FrameSimulator(replace(oio.default_scenario(seed=1), irs_grid=(64, 64)))
    person = ch.PersonState(position=(0.0, 0.0))
    positions = np.column_stack([np.linspace(1.5, 6.0, 64), np.full(64, 2.9)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        att = sim._attenuations(person, positions)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert att.shape == (64, len(sim.paths))
    assert peak <= 3 * att.nbytes


def test_tensors_match_complex_exponential():
    scn = replace(oio.default_scenario(seed=2), n_tx=2, n_rx=4, irs_grid=(8, 5))
    paths = ch._join(ch._join(ch.build_static_paths(scn),
                              ch.build_irs_paths(scn, ch.grid_layout(scn))),
                     ch.scatter_paths(scn, [(2.0, 3.0), (4.1, 1.7)], [0.5j, -1.0 + 2.0j]))
    freqs = scn.subcarrier_freqs()
    axis, otx, orx = ch._antenna_projections(scn)
    d = (paths.length[:, None, None] + (paths.arr @ axis)[:, None, None] * orx[:, None]
         - (paths.dep @ axis)[:, None, None] * otx[None, :])
    amp = paths.amp[:, None] * (C / freqs[None, :]) ** paths.lambda_exp[:, None]
    want = amp[:, :, None, None] * np.exp(-2j * np.pi / C * freqs[None, :, None, None]
                                          * d[:, None])
    # exact on some CPUs; cos and sin need not round as exp does everywhere
    assert np.allclose(ch._tensors(paths, scn), want, rtol=1e-14, atol=0.0)


def test_simulator_checks_surface_size_before_building(monkeypatch):
    scn = oio.default_scenario(seed=1)
    need = 16 * 256 * 56 * (3 * 3 + 4)
    real_tensors = ch._tensors

    def no_tensors(*args):
        raise AssertionError("a tensor was built before the size check")

    monkeypatch.setattr(ch, "_tensors", no_tensors)
    monkeypatch.setattr(ch, "_physical_memory", lambda: float(need - 1))
    with pytest.raises(ValueError, match=r"^irs_grid 16x16 needs"):
        ch.FrameSimulator(scn)
    monkeypatch.setattr(ch, "_tensors", real_tensors)
    monkeypatch.setattr(ch, "_physical_memory", lambda: float(need))
    assert ch.FrameSimulator(scn).n_elements == 256
    # without a surface nothing is checked
    monkeypatch.setattr(ch, "_physical_memory", lambda: 0.0)
    assert ch.FrameSimulator(replace(scn, irs_pos=None, irs_normal=None)).n_elements == 0


def test_surface_size_estimate_covers_measured_peak():
    scn = oio.default_scenario(seed=1)
    ch.FrameSimulator(scn)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ch.FrameSimulator(scn)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 256 * 56 * (3 * 3 + 4)
