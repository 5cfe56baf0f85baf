"""Channel simulator: steering vectors, ray tracing, CSI synthesis."""

import cmath
import logging
import math

import numpy as np
import pytest

from mimoloc.channel import (
    ArrayConfig,
    Blocker,
    Environment,
    OfdmConfig,
    Path,
    Reflector,
    array_response,
    format_environment,
    parse_environment,
    quantize_delay,
    segments_intersect,
    synthesize_csi,
    trace_paths,
)
from mimoloc.errors import DelayOverflow, FormatError, ZeroDistance

ARRAY = ArrayConfig(n_antennas=8, wavelength=0.1)
OFDM = OfdmConfig(n_subcarriers=16, bandwidth=20e6)


def make_path(aoa=math.pi / 2, gain=1.0 + 0j, sampled_delay=0, v_c=299792458.0):
    delay = sampled_delay / OFDM.bandwidth
    return Path(
        aoa=aoa,
        delay=delay,
        sampled_delay=sampled_delay,
        gain=gain,
        path_length=delay * v_c if delay > 0 else 1.0,
        cluster_id=0,
        is_los=True,
    )


class TestArrayResponse:
    def test_broadside_is_all_ones(self):
        e = array_response(math.pi / 2, ARRAY)
        np.testing.assert_allclose(e, np.ones(8), atol=1e-12)

    def test_endfire_two_elements(self):
        # aoa = 0, d = lambda/2: element 1 phase is -pi.
        e = array_response(0.0, ArrayConfig(n_antennas=2, wavelength=0.1))
        np.testing.assert_allclose(e, [1.0, -1.0], atol=1e-12)

    def test_pi_third_matches_direct_evaluation(self):
        # Oracle: evaluate the per-element phase definition scalar by scalar.
        cfg = ArrayConfig(n_antennas=4, wavelength=0.06)
        e = array_response(math.pi / 3, cfg)
        for q in range(4):
            expected = cmath.exp(
                -1j * 2 * math.pi * q * cfg.element_spacing
                * math.cos(math.pi / 3) / cfg.wavelength
            )
            assert abs(e[q] - expected) < 1e-12

    def test_unit_magnitude_and_constant_phase_step(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            aoa = rng.uniform(0.05, math.pi - 0.05)
            e = array_response(aoa, ARRAY)
            np.testing.assert_allclose(np.abs(e), 1.0, atol=1e-12)
            steps = np.angle(e[1:] / e[:-1])
            assert np.ptp(steps) < 1e-9


class TestQuantizeDelay:
    OFDM_UNIT = OfdmConfig(n_subcarriers=64, bandwidth=1.0)

    def test_values(self):
        assert quantize_delay(0.0, self.OFDM_UNIT) == 0
        assert quantize_delay(3.2, self.OFDM_UNIT) == 3
        assert quantize_delay(3.7, self.OFDM_UNIT) == 4

    def test_ties_round_to_even(self):
        assert quantize_delay(2.5, self.OFDM_UNIT) == 2
        assert quantize_delay(3.5, self.OFDM_UNIT) == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            quantize_delay(-1.0, self.OFDM_UNIT)


class TestTracePaths:
    def test_free_space_single_los(self):
        env = Environment(bs_position=(0.0, 0.0))
        paths = trace_paths(env, (10.0, 0.0), ARRAY, OFDM)
        assert len(paths) == 1
        p = paths[0]
        assert p.is_los and p.cluster_id == 0
        assert p.path_length == pytest.approx(10.0)
        assert p.delay == pytest.approx(10.0 / env.speed_of_light)
        # default array axis is +y, user sits along +x: broadside arrival
        assert p.aoa == pytest.approx(math.pi / 2)
        expected_amp = ARRAY.wavelength / (4 * math.pi * 10.0)
        assert abs(p.gain) == pytest.approx(expected_amp, rel=1e-12)
        expected_phase = cmath.exp(-2j * math.pi * 10.0 / ARRAY.wavelength)
        assert p.gain / abs(p.gain) == pytest.approx(expected_phase, rel=1e-9)

    def test_blocker_removes_los(self):
        env = Environment(
            bs_position=(0.0, 0.0),
            blockers=(Blocker((5.0, -1.0), (5.0, 1.0)),),
        )
        assert trace_paths(env, (10.0, 0.0), ARRAY, OFDM) == []

    def test_mirror_wall_geometry(self):
        # BS (0,0), user (4,0), wall y=3: image across the wall at distance
        # sqrt(4^2 + 6^2) = sqrt(52), specular point (2, 3).
        env = Environment(
            bs_position=(0.0, 0.0),
            reflectors=(Reflector((-10.0, 3.0), (10.0, 3.0), 0.6),),
        )
        paths = trace_paths(env, (4.0, 0.0), ARRAY, OFDM)
        assert len(paths) == 2
        los, nlos = paths[0], paths[1]
        assert los.is_los
        assert nlos.path_length == pytest.approx(math.sqrt(52.0), rel=1e-12)
        assert abs(nlos.gain) == pytest.approx(
            0.6 * ARRAY.wavelength / (4 * math.pi * math.sqrt(52.0)), rel=1e-12
        )
        # arrival direction is toward the specular point (2, 3)
        expected_aoa = math.acos(
            np.dot([0.0, 1.0], [2.0, 3.0]) / math.sqrt(13.0)
        )
        assert nlos.aoa == pytest.approx(expected_aoa, rel=1e-12)

    def test_specular_point_must_lie_on_segment(self):
        env = Environment(
            bs_position=(0.0, 0.0),
            reflectors=(Reflector((5.0, 3.0), (6.0, 3.0), 0.6),),
        )
        paths = trace_paths(env, (4.0, 0.0), ARRAY, OFDM)
        assert len(paths) == 1 and paths[0].is_los

    def test_reflection_needs_same_side(self):
        env = Environment(
            bs_position=(0.0, 0.0),
            reflectors=(Reflector((-10.0, 3.0), (10.0, 3.0), 0.6),),
        )
        paths = trace_paths(env, (4.0, 6.0), ARRAY, OFDM)
        assert all(p.is_los for p in paths)

    def test_blocked_reflection_leg(self):
        wall = Reflector((-10.0, 3.0), (10.0, 3.0), 0.6)
        # blocker across the bs->specular leg
        env = Environment(
            bs_position=(0.0, 0.0),
            reflectors=(wall,),
            blockers=(Blocker((0.5, 2.0), (3.0, 2.0)),),
        )
        paths = trace_paths(env, (4.0, 0.0), ARRAY, OFDM)
        assert [p.cluster_id for p in paths] == [0]

    def test_sorted_by_descending_gain(self):
        env = Environment(
            bs_position=(0.0, 0.0),
            reflectors=(Reflector((-30.0, 3.0), (30.0, 3.0), 0.9),),
        )
        rng = np.random.default_rng(3)
        for _ in range(20):
            user = (rng.uniform(2.0, 12.0), rng.uniform(-2.0, 2.0))
            paths = trace_paths(env, user, ARRAY, OFDM)
            gains = [abs(p.gain) for p in paths]
            assert gains == sorted(gains, reverse=True)

    def test_zero_distance_rejected(self):
        env = Environment(bs_position=(1.0, 2.0))
        with pytest.raises(ZeroDistance):
            trace_paths(env, (1.0, 2.0), ARRAY, OFDM)

    def test_delay_overflow_dropped_with_counter(self, caplog):
        narrow = OfdmConfig(n_subcarriers=4, bandwidth=200e6)
        # 10 m -> 33 ns -> bin 7 >= 4: dropped
        env = Environment(bs_position=(0.0, 0.0))
        with caplog.at_level(logging.DEBUG, logger="mimoloc.channel"):
            assert trace_paths(env, (10.0, 0.0), ARRAY, narrow) == []
        assert [r.getMessage() for r in caplog.records] == [
            "dropped path with sampled delay 7 (cluster 0)"]


class TestSynthesizeCsi:
    def test_empty_paths_zero_matrix(self):
        h = synthesize_csi([], ARRAY, OFDM)
        assert h.shape == (8, 16)
        assert not np.any(h)

    def test_single_broadside_zero_delay_all_ones(self):
        h = synthesize_csi([make_path()], ARRAY, OFDM)
        np.testing.assert_allclose(h, np.ones((8, 16)), atol=1e-12)

    def test_additivity(self):
        p1 = make_path(aoa=1.0, gain=0.5 + 0.1j, sampled_delay=3)
        p2 = make_path(aoa=2.0, gain=0.1 - 0.2j, sampled_delay=7)
        h = synthesize_csi([p1, p2], ARRAY, OFDM)
        h_sum = synthesize_csi([p1], ARRAY, OFDM) + synthesize_csi([p2], ARRAY, OFDM)
        np.testing.assert_allclose(h, h_sum, rtol=1e-12)

    def test_single_path_energy(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = rng.uniform(0.1, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            p = make_path(
                aoa=rng.uniform(0.1, np.pi - 0.1),
                gain=complex(g),
                sampled_delay=int(rng.integers(0, 16)),
            )
            h = synthesize_csi([p], ARRAY, OFDM)
            energy = np.linalg.norm(h) ** 2
            assert energy == pytest.approx(8 * 16 * abs(g) ** 2, rel=1e-12)

    def test_delay_out_of_window_raises(self):
        with pytest.raises(DelayOverflow):
            synthesize_csi([make_path(sampled_delay=16)], ARRAY, OFDM)


def _random_environment(rng):
    reflectors = []
    for _ in range(int(rng.integers(1, 4))):
        cx, cy = rng.uniform(-20, 20, size=2)
        dx, dy = rng.uniform(-8, 8, size=2)
        if dx == 0 and dy == 0:
            dx = 1.0
        reflectors.append(
            Reflector((cx - dx, cy - dy), (cx + dx, cy + dy), rng.uniform(0.3, 1.0))
        )
    return Environment(bs_position=(0.0, 0.0), reflectors=tuple(reflectors))


class TestMotionBounds:
    """Small user moves perturb delay and angle by bounded amounts."""

    WIDE = OfdmConfig(n_subcarriers=64, bandwidth=20e6)

    def test_delay_shift_bounded_by_move(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(50):
            env = _random_environment(rng)
            user = rng.uniform(2.0, 15.0, size=2)
            delta = rng.uniform(0.01, 0.5)
            step = delta * _unit(rng)
            before = {p.cluster_id: p for p in trace_paths(env, user, ARRAY, self.WIDE)}
            after = {
                p.cluster_id: p
                for p in trace_paths(env, user + step, ARRAY, self.WIDE)
            }
            for cid in before.keys() & after.keys():
                dt = abs(after[cid].delay - before[cid].delay)
                assert dt <= delta / env.speed_of_light * (1 + 1e-9)
                assert abs(after[cid].sampled_delay - before[cid].sampled_delay) <= 1
                checked += 1
        assert checked > 30

    def test_angle_shift_bounded_by_relative_move(self):
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(50):
            env = _random_environment(rng)
            user = rng.uniform(2.0, 15.0, size=2)
            before = {p.cluster_id: p for p in trace_paths(env, user, ARRAY, self.WIDE)}
            if not before:
                continue
            min_len = min(p.path_length for p in before.values())
            delta = 1e-3 * min_len
            after = {
                p.cluster_id: p
                for p in trace_paths(env, user + delta * _unit(rng), ARRAY, self.WIDE)
            }
            for cid in before.keys() & after.keys():
                dtheta = abs(after[cid].aoa - before[cid].aoa)
                assert dtheta <= 1.1 * delta / before[cid].path_length
                checked += 1
        assert checked > 30

    def test_blockage_only_removes_paths(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            env = _random_environment(rng)
            user = rng.uniform(2.0, 15.0, size=2)
            before = {p.cluster_id for p in trace_paths(env, user, ARRAY, self.WIDE)}
            cx, cy = rng.uniform(-15, 15, size=2)
            dx, dy = rng.uniform(-5, 5, size=2)
            blocked_env = Environment(
                bs_position=env.bs_position,
                reflectors=env.reflectors,
                blockers=(Blocker((cx - dx, cy - dy), (cx + dx or 1.0, cy + dy)),),
            )
            after = {
                p.cluster_id for p in trace_paths(blocked_env, user, ARRAY, self.WIDE)
            }
            assert after <= before


def _unit(rng):
    ang = rng.uniform(0, 2 * np.pi)
    return np.array([np.cos(ang), np.sin(ang)])


class TestSegmentsIntersect:
    def test_crossing(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_touching_endpoint(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))


class TestEnvironmentFiles:
    ENV = Environment(
        bs_position=(0.0, 0.0),
        array_axis=math.pi / 2,
        reflectors=(Reflector((-10.0, 3.0), (10.0, 3.0), 0.6),),
        blockers=(Blocker((5.0, -1.0), (5.0, 1.0)),),
        speed_of_light=3.0e8,
    )

    def test_round_trip(self):
        env2 = parse_environment(format_environment(self.ENV))
        assert env2 == self.ENV

    def test_comments_and_blanks_skipped(self):
        text = "# hello\n\nbs_position = 1.0 2.0  # inline\n"
        env = parse_environment(text)
        assert env.bs_position == (1.0, 2.0)

    @pytest.mark.parametrize(
        "text",
        [
            "array_axis = 1.0",  # missing bs_position
            "bs_position = 1.0",  # wrong arity
            "bs_position = a b",  # non-numeric
            "bs_position = 0 0\nwall = 1 2 3 4",  # unknown key
            "bs_position = 0 0\nreflector = 1 2 3 4",  # reflector arity
            "just words",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            parse_environment(text)
