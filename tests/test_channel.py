"""Channel simulator: steering vectors, ray tracing, CSI synthesis."""

import cmath
import logging
import math

import numpy as np
import pytest

import oracles
from mimoloc.channel import (
    ArrayConfig,
    Blocker,
    Environment,
    OfdmConfig,
    Paths,
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
from mimoloc.experiment import rich_environment, sparse_environment

ARRAY = ArrayConfig(n_antennas=8, wavelength=0.1)
OFDM = OfdmConfig(n_subcarriers=16, bandwidth=20e6)


def make_path(aoa=math.pi / 2, gain=1.0 + 0j, sampled_delay=0):
    """One hand-made path, for ``make_paths``."""
    return oracles.Ray(aoa=aoa, sampled_delay=sampled_delay, gain=gain,
                       length=1.0, cluster=0)


def make_paths(*rows):
    """A ``Paths`` record with one row per argument, each a list of
    ``make_path`` paths filled in from column 0 on, in list order."""
    n, k = len(rows), max(map(len, rows), default=0)
    fields = {name: np.zeros((n, k), dtype) for name, dtype in (
        ("aoa", float), ("sampled_delay", np.int64), ("gain", complex),
        ("length", float), ("cluster", np.int64), ("valid", bool))}
    for i, row in enumerate(rows):
        for j, path in enumerate(row):
            for name, value in path._asdict().items():
                fields[name][i, j] = value
            fields["valid"][i, j] = True
    return Paths(**fields)


def row_paths(paths, row):
    """One row of a ``Paths`` record as a path list, the inverse of
    ``make_paths``: its valid entries in column order."""
    return [oracles.Ray(*(getattr(paths, name)[row, j].item()
                          for name in oracles.Ray._fields))
            for j in np.flatnonzero(paths.valid[row])]


def clusters(paths, row=0):
    """Cluster ids of one row's paths, in column order."""
    return paths.cluster[row][paths.valid[row]].tolist()


def by_cluster(paths):
    """Column of each path of a one-row record, keyed by cluster id."""
    return {int(paths.cluster[0, j]): j for j in np.flatnonzero(paths.valid[0])}


class TestConfigValidation:
    @pytest.mark.parametrize("make", [
        lambda: ArrayConfig(8, 0.0),
        lambda: ArrayConfig(8, -0.1),
        lambda: ArrayConfig(8, math.nan),
        lambda: ArrayConfig(8, math.inf),
        lambda: ArrayConfig(8, 0.1, element_spacing=0.0),
        lambda: ArrayConfig(8, 0.1, element_spacing=math.nan),
        lambda: ArrayConfig(8, 0.1, element_spacing=math.inf),
        lambda: OfdmConfig(16, 0.0),
        lambda: OfdmConfig(16, math.nan),
        lambda: OfdmConfig(16, math.inf),
    ], ids=["wavelength-0", "wavelength-negative", "wavelength-nan",
            "wavelength-inf", "spacing-0", "spacing-nan", "spacing-inf",
            "bandwidth-0", "bandwidth-nan", "bandwidth-inf"])
    def test_rejects_a_value_that_is_not_finite_and_positive(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: ArrayConfig(0, 0.1),
        lambda: ArrayConfig(16.5, 0.1),
        lambda: ArrayConfig(16.0, 0.1),
        lambda: ArrayConfig(True, 0.1),
        lambda: OfdmConfig(0, 1e6),
        lambda: OfdmConfig(8.5, 1e6),
        lambda: OfdmConfig(False, 1e6),
    ], ids=["antennas-0", "antennas-fraction", "antennas-float",
            "antennas-bool", "subcarriers-0", "subcarriers-fraction",
            "subcarriers-bool"])
    def test_rejects_a_count_that_is_not_a_positive_integer(self, make):
        with pytest.raises(ValueError, match="n_antennas|n_subcarriers"):
            make()


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
        assert len(paths) == 1 and paths.valid.tolist() == [[True]]
        assert clusters(paths) == [0]
        assert paths.length[0, 0] == pytest.approx(10.0)
        assert paths.sampled_delay[0, 0] == quantize_delay(
            10.0 / env.speed_of_light, OFDM)
        # default array axis is +y, user sits along +x: broadside arrival
        assert paths.aoa[0, 0] == pytest.approx(math.pi / 2)
        gain = complex(paths.gain[0, 0])
        expected_amp = ARRAY.wavelength / (4 * math.pi * 10.0)
        assert abs(gain) == pytest.approx(expected_amp, rel=1e-12)
        expected_phase = cmath.exp(-2j * math.pi * 10.0 / ARRAY.wavelength)
        assert gain / abs(gain) == pytest.approx(expected_phase, rel=1e-9)

    def test_blocker_removes_los(self):
        env = Environment(
            bs_position=(0.0, 0.0),
            blockers=(Blocker((5.0, -1.0), (5.0, 1.0)),),
        )
        paths = trace_paths(env, (10.0, 0.0), ARRAY, OFDM)
        assert len(paths) == 1 and not paths.valid.any()

    def test_mirror_wall_geometry(self):
        # BS (0,0), user (4,0), wall y=3: image across the wall at distance
        # sqrt(4^2 + 6^2) = sqrt(52), specular point (2, 3).
        env = Environment(
            bs_position=(0.0, 0.0),
            reflectors=(Reflector((-10.0, 3.0), (10.0, 3.0), 0.6),),
        )
        paths = trace_paths(env, (4.0, 0.0), ARRAY, OFDM)
        assert clusters(paths) == [0, 1]
        assert paths.length[0, 1] == pytest.approx(math.sqrt(52.0), rel=1e-12)
        assert abs(complex(paths.gain[0, 1])) == pytest.approx(
            0.6 * ARRAY.wavelength / (4 * math.pi * math.sqrt(52.0)), rel=1e-12
        )
        # arrival direction is toward the specular point (2, 3)
        expected_aoa = math.acos(
            np.dot([0.0, 1.0], [2.0, 3.0]) / math.sqrt(13.0)
        )
        assert paths.aoa[0, 1] == pytest.approx(expected_aoa, rel=1e-12)

    def test_specular_point_must_lie_on_segment(self):
        env = Environment(
            bs_position=(0.0, 0.0),
            reflectors=(Reflector((5.0, 3.0), (6.0, 3.0), 0.6),),
        )
        assert clusters(trace_paths(env, (4.0, 0.0), ARRAY, OFDM)) == [0]

    def test_reflection_needs_same_side(self):
        env = Environment(
            bs_position=(0.0, 0.0),
            reflectors=(Reflector((-10.0, 3.0), (10.0, 3.0), 0.6),),
        )
        paths = trace_paths(env, (4.0, 6.0), ARRAY, OFDM)
        assert set(clusters(paths)) <= {0}

    def test_blocked_reflection_leg(self):
        wall = Reflector((-10.0, 3.0), (10.0, 3.0), 0.6)
        # blocker across the bs->specular leg
        env = Environment(
            bs_position=(0.0, 0.0),
            reflectors=(wall,),
            blockers=(Blocker((0.5, 2.0), (3.0, 2.0)),),
        )
        assert clusters(trace_paths(env, (4.0, 0.0), ARRAY, OFDM)) == [0]

    def test_sorted_by_descending_gain(self):
        env = Environment(
            bs_position=(0.0, 0.0),
            reflectors=(Reflector((-30.0, 3.0), (30.0, 3.0), 0.9),),
        )
        rng = np.random.default_rng(3)
        for _ in range(20):
            user = (rng.uniform(2.0, 12.0), rng.uniform(-2.0, 2.0))
            paths = trace_paths(env, user, ARRAY, OFDM)
            gains = [abs(g) for g in paths.gain[0][paths.valid[0]].tolist()]
            assert gains == sorted(gains, reverse=True)

    def test_rows_hold_paths_first_strongest_first(self):
        # the record's row order is what distortion relies on: column 0
        # is a row's strongest path, column 1 its second strongest
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(20):
            env = _random_environment(rng)
            users = rng.uniform(-15.0, 15.0, size=(30, 2))
            paths = trace_paths(env, users, ARRAY, TestMotionBounds.WIDE)
            for i in range(len(paths)):
                m = int(paths.valid[i].sum())
                assert paths.valid[i, :m].all()
                keys = [(-abs(g), c) for g, c in zip(
                    paths.gain[i, :m].tolist(), paths.cluster[i, :m].tolist())]
                assert keys == sorted(keys)
                checked += m > 1
        assert checked > 100
        # mirror-image walls: two reflections of the same gain, in cluster
        # order whichever wall is listed first
        walls = (Reflector((-10.0, -3.0), (10.0, -3.0), 0.6),
                 Reflector((-10.0, 3.0), (10.0, 3.0), 0.6))
        for listed in (walls, walls[::-1]):
            env = Environment(bs_position=(0.0, 0.0), reflectors=listed)
            paths = trace_paths(env, (4.0, 0.0), ARRAY, OFDM)
            assert clusters(paths) == [0, 1, 2]
            assert paths.gain[0, 1] == paths.gain[0, 2]

    def test_zero_distance_rejected(self):
        env = Environment(bs_position=(1.0, 2.0))
        with pytest.raises(ZeroDistance):
            trace_paths(env, (1.0, 2.0), ARRAY, OFDM)

    def test_delay_overflow_dropped_with_counter(self, caplog):
        narrow = OfdmConfig(n_subcarriers=4, bandwidth=200e6)
        # 10 m -> 33 ns -> bin 7 >= 4: dropped
        env = Environment(bs_position=(0.0, 0.0))
        with caplog.at_level(logging.DEBUG, logger="mimoloc.channel"):
            assert not trace_paths(env, (10.0, 0.0), ARRAY, narrow).valid.any()
        assert [r.getMessage() for r in caplog.records] == [
            "dropped path with sampled delay 7 (cluster 0)"]

    def test_stack_logs_each_drop_in_position_order(self, caplog):
        narrow = OfdmConfig(n_subcarriers=4, bandwidth=200e6)
        env = Environment(
            bs_position=(0.0, 0.0),
            reflectors=(Reflector((-30.0, 3.0), (30.0, 3.0), 0.6),),
        )
        # 10 m and 12 m direct (bins 7, 8); reflections sqrt(136) and
        # sqrt(180) m (bins 8, 9): every path of both positions is dropped
        with caplog.at_level(logging.DEBUG, logger="mimoloc.channel"):
            paths = trace_paths(env, [(10.0, 0.0), (12.0, 0.0)], ARRAY,
                                narrow)
        assert len(paths) == 2 and not paths.valid.any()
        assert [r.getMessage() for r in caplog.records] == [
            "dropped path with sampled delay 7 (cluster 0)",
            "dropped path with sampled delay 8 (cluster 1)",
            "dropped path with sampled delay 8 (cluster 0)",
            "dropped path with sampled delay 9 (cluster 1)",
        ]

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_stack_holding_the_base_station_rejected(self, where):
        env = Environment(bs_position=(1.0, 2.0))
        users = np.array([(3.0, 2.0), (1.0, 5.0), (4.0, 4.0), (2.0, 1.0),
                          (0.0, 0.0)])
        users[where] = env.bs_position
        with pytest.raises(ZeroDistance):
            trace_paths(env, users, ARRAY, OFDM)

    def test_stack_rows_equal_single_calls(self):
        env = rich_environment()
        users = np.random.default_rng(5).uniform(-1.0, 15.0, size=(40, 2))
        paths = trace_paths(env, users, ARRAY, OFDM)
        assert len(paths) == 40
        for i, user in enumerate(users):
            alone = trace_paths(env, user, ARRAY, OFDM)
            assert len(alone) == 1
            oracles.assert_same_paths(paths, i, row_paths(alone, 0))

    def test_empty_stack(self):
        env = sparse_environment()
        paths = trace_paths(env, np.zeros((0, 2)), ARRAY, OFDM)
        assert len(paths) == 0
        assert paths.valid.shape == (0, 1 + len(env.reflectors))


def _blocked_environment():
    # LOS and both legs of the wall's reflection are cut for parts of the
    # grid, a blocker end touches a ray exactly, and one blocker lies on
    # the x axis, collinear with the direct rays of users on it; the
    # zero-length wall reflects nothing
    return parse_environment(
        "bs_position = 0 0\n"
        "reflector = -20 6 20 6 0.9\n"
        "reflector = 12 -20 12 20 0.7\n"
        "reflector = 8 8 8 8 0.5\n"
        "blocker = 3 1 3 2.5      # LOS for users beyond x = 3 at y 1..2.5\n"
        "blocker = 1 4 2 4        # bs -> specular leg off the y = 6 wall\n"
        "blocker = 5 5 7 5        # specular -> user leg off the y = 6 wall\n"
        "blocker = 10 -3 11 -3    # specular -> user leg off the x = 12 wall\n"
        "blocker = 4 -1 4 -2      # end touches the ray to (8, -2)\n"
        "blocker = 6 0 7 0        # collinear with the direct rays on y = 0\n"
    )


class TestStackedTraceMatchesScalarOracle:
    """Every row of a stacked trace equals the old one-position tracer."""

    @staticmethod
    def check(env, users, array=ARRAY, ofdm=OFDM):
        paths = trace_paths(env, np.asarray(users, dtype=float), array, ofdm)
        assert len(paths) == len(users)
        for i, user in enumerate(users):
            oracles.assert_same_paths(
                paths, i, oracles.trace_paths(env, user, array, ofdm))
        return paths

    @pytest.mark.parametrize("env", [sparse_environment(), rich_environment()],
                             ids=["sparse", "rich"])
    def test_random_off_grid_points(self, env):
        users = np.random.default_rng(17).uniform(-3.0, 18.0, size=(300, 2))
        assert self.check(env, users).valid.sum() > 300

    def test_blockers_from_an_environment_file(self):
        env = _blocked_environment()
        xs, ys = np.meshgrid(np.arange(1.0, 11.5, 0.5), np.arange(-4.0, 5.5, 0.5))
        users = np.stack([xs.ravel(), ys.ravel()], axis=1)
        users = users[np.any(users != 0.0, axis=1)]
        self.check(env, users)
        open_env = Environment(bs_position=env.bs_position,
                               reflectors=env.reflectors)
        for blk in env.blockers:
            # each blocker alone removes a path somewhere on the grid
            alone = Environment(bs_position=env.bs_position,
                                reflectors=env.reflectors, blockers=(blk,))
            assert any(
                len(oracles.trace_paths(alone, u, ARRAY, OFDM))
                < len(oracles.trace_paths(open_env, u, ARRAY, OFDM))
                for u in users), blk

    def test_touching_and_collinear_blockers(self):
        env = _blocked_environment()
        # the ray to (8, -2) passes (4, -1), the blocker's end point; the
        # ray to (9, 0) runs along the collinear blocker
        for user in ((8.0, -2.0), (9.0, 0.0)):
            assert 0 not in clusters(self.check(env, [user]))
        # short of the collinear blocker, the ray is clear
        assert 0 in clusters(self.check(env, [(5.0, 0.0)]))

    def test_user_or_base_station_on_a_reflector_line(self):
        wall = Reflector((-10.0, 3.0), (10.0, 3.0), 0.6)
        env = Environment(bs_position=(0.0, 0.0), reflectors=(wall,))
        paths = self.check(env, [(4.0, 3.0), (4.0, 0.0)])
        assert clusters(paths, 0) == [0]
        assert clusters(paths, 1) == [0, 1]
        on_line = Environment(bs_position=(0.0, 3.0), reflectors=(wall,))
        assert clusters(self.check(on_line, [(4.0, 0.0)])) == [0]

    def test_ray_parallel_to_the_wall(self):
        # both ends sit a rounding error off the wall line, so the ray to
        # the mirror image runs exactly parallel to the wall (denom == 0)
        a, b = np.array([0.4, 2.7]), np.array([-0.2, 1.5])
        bs, user = np.array([-0.71, 0.48]), np.array([1.176, 4.252])
        side_bs, side_user = oracles._cross(a, b, bs), oracles._cross(a, b, user)
        assert side_bs != 0.0 and side_user != 0.0
        assert (side_bs > 0) == (side_user > 0)
        d_ray = oracles._reflect_point(user, a, b) - bs
        assert oracles._cross((0.0, 0.0), b - a, d_ray) == 0.0
        env = Environment(bs_position=tuple(bs),
                          reflectors=(Reflector(tuple(a), tuple(b), 0.5),))
        assert clusters(self.check(env, [user])) == [0]

    def test_narrow_band_drops_match(self, caplog):
        # a 1.2 us window: the long reflections overflow it, the short
        # paths stay
        narrow = OfdmConfig(n_subcarriers=8, bandwidth=100e6)
        env = rich_environment()
        users = np.random.default_rng(3).uniform(-1.0, 15.0, size=(60, 2))
        with caplog.at_level(logging.DEBUG, logger="mimoloc.channel"):
            paths = trace_paths(env, users, ARRAY, narrow)
            stacked = [r.getMessage() for r in caplog.records]
            caplog.clear()
            want = [oracles.trace_paths(env, u, ARRAY, narrow) for u in users]
            scalar = [r.getMessage() for r in caplog.records]
        for i, w in enumerate(want):
            oracles.assert_same_paths(paths, i, w)
        assert stacked == scalar
        assert stacked and paths.valid[:, 0].all()


class TestSynthesizeCsi:
    def test_empty_paths_zero_matrix(self):
        h = synthesize_csi(make_paths([]), ARRAY, OFDM)
        assert h.shape == (1, 8, 16)
        assert not np.any(h)

    def test_single_broadside_zero_delay_all_ones(self):
        h = synthesize_csi(make_paths([make_path()]), ARRAY, OFDM)
        np.testing.assert_allclose(h, np.ones((1, 8, 16)), atol=1e-12)

    def test_additivity(self):
        p1 = make_path(aoa=1.0, gain=0.5 + 0.1j, sampled_delay=3)
        p2 = make_path(aoa=2.0, gain=0.1 - 0.2j, sampled_delay=7)
        h = synthesize_csi(make_paths([p1, p2]), ARRAY, OFDM)
        h_sum = (synthesize_csi(make_paths([p1]), ARRAY, OFDM)
                 + synthesize_csi(make_paths([p2]), ARRAY, OFDM))
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
            h = synthesize_csi(make_paths([p]), ARRAY, OFDM)
            energy = np.linalg.norm(h) ** 2
            assert energy == pytest.approx(8 * 16 * abs(g) ** 2, rel=1e-12)

    def test_delay_out_of_window_raises(self):
        with pytest.raises(DelayOverflow):
            synthesize_csi(make_paths([make_path(sampled_delay=16)]), ARRAY, OFDM)

    def test_delay_out_of_window_in_a_stack_raises(self):
        good = [make_path(sampled_delay=3)]
        for bad in (16, -1):
            with pytest.raises(DelayOverflow, match=f"sampled delay {bad} "):
                synthesize_csi(
                    make_paths(good, [], good + [make_path(sampled_delay=bad)]),
                    ARRAY, OFDM)
        # an entry that holds no path is never read
        paths = make_paths(good, [])
        paths.sampled_delay[1, 0] = 16
        assert not np.any(synthesize_csi(paths, ARRAY, OFDM)[1])

    def test_stack_equals_scalar_oracle(self):
        env = rich_environment()
        users = np.random.default_rng(9).uniform(-1.0, 15.0, size=(50, 2))
        paths = trace_paths(env, users, ARRAY, OFDM)
        paths.valid[7] = False  # a lost link inside the stack
        paths.valid[11, 0] = False  # a path missing ahead of others
        h = synthesize_csi(paths, ARRAY, OFDM)
        assert h.shape == (50, 8, 16)
        for i, hi in enumerate(h):
            row = row_paths(paths, i)
            want = oracles.synthesize_csi(row, ARRAY, OFDM)
            assert np.array_equal(hi, want)
            assert np.array_equal(
                synthesize_csi(make_paths(row), ARRAY, OFDM)[0], want)
        assert not np.any(h[7])

    def test_stack_of_empty_lists(self):
        h = synthesize_csi(make_paths([], []), ARRAY, OFDM)
        assert h.shape == (2, 8, 16) and not np.any(h)


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
            p0 = trace_paths(env, user, ARRAY, self.WIDE)
            p1 = trace_paths(env, user + step, ARRAY, self.WIDE)
            before, after = by_cluster(p0), by_cluster(p1)
            for cid in before.keys() & after.keys():
                i, j = before[cid], after[cid]
                dt = abs(p1.length[0, j] / env.speed_of_light
                         - p0.length[0, i] / env.speed_of_light)
                assert dt <= delta / env.speed_of_light * (1 + 1e-9)
                assert abs(int(p1.sampled_delay[0, j])
                           - int(p0.sampled_delay[0, i])) <= 1
                checked += 1
        assert checked > 30

    def test_angle_shift_bounded_by_relative_move(self):
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(50):
            env = _random_environment(rng)
            user = rng.uniform(2.0, 15.0, size=2)
            p0 = trace_paths(env, user, ARRAY, self.WIDE)
            before = by_cluster(p0)
            if not before:
                continue
            min_len = p0.length[p0.valid].min()
            delta = 1e-3 * min_len
            p1 = trace_paths(env, user + delta * _unit(rng), ARRAY, self.WIDE)
            after = by_cluster(p1)
            for cid in before.keys() & after.keys():
                i, j = before[cid], after[cid]
                dtheta = abs(p1.aoa[0, j] - p0.aoa[0, i])
                assert dtheta <= 1.1 * delta / p0.length[0, i]
                checked += 1
        assert checked > 30

    def test_blockage_only_removes_paths(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            env = _random_environment(rng)
            user = rng.uniform(2.0, 15.0, size=2)
            before = set(clusters(trace_paths(env, user, ARRAY, self.WIDE)))
            cx, cy = rng.uniform(-15, 15, size=2)
            dx, dy = rng.uniform(-5, 5, size=2)
            blocked_env = Environment(
                bs_position=env.bs_position,
                reflectors=env.reflectors,
                blockers=(Blocker((cx - dx, cy - dy), (cx + dx or 1.0, cy + dy)),),
            )
            after = set(clusters(trace_paths(blocked_env, user, ARRAY,
                                             self.WIDE)))
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

    def test_collinear(self):
        assert segments_intersect((0, 0), (4, 0), (3, 0), (6, 0))
        assert not segments_intersect((0, 0), (2, 0), (3, 0), (6, 0))

    def test_array_call_equals_element_calls(self):
        rng = np.random.default_rng(4)
        # small integer coordinates make touching and collinear cases common
        pts = rng.integers(-3, 4, size=(4, 500, 2)).astype(float)
        pts[:, :100] += rng.uniform(-1, 1, size=(4, 100, 2))
        got = segments_intersect(*pts)
        assert got.shape == (500,) and got.dtype == bool
        want = [oracles.segments_intersect(*(p[i] for p in pts))
                for i in range(500)]
        assert got.tolist() == want
        assert 50 < sum(want) < 450
        for i in range(0, 500, 25):
            assert segments_intersect(*(p[i] for p in pts)) == want[i]

    def test_broadcasts_one_segment_against_many(self):
        ends = np.array([(2.0, 2.0), (2.0, -2.0), (0.5, 0.5), (1.0, 1.0)])
        got = segments_intersect((0.0, 0.0), ends, (1.0, 0.0), (1.0, 3.0))
        assert got.tolist() == [True, False, False, True]


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
            "bs_position = 0 0\nreflector = 0 6 17 6 1.5",  # coefficient > 1
            "bs_position = 0 0\nreflector = 0 6 17 6 nan",  # NaN coefficient
            "bs_position = 0 0\nspeed_of_light = -3e8",
            "bs_position = 0 0\nspeed_of_light = 0",
            "bs_position = 0 0\narray_axis = inf",
            "bs_position = nan 0",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            parse_environment(text)
