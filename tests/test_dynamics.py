"""Walks, distortion scenarios, and sequence generation."""

import math
from collections import Counter

import numpy as np
import pytest

import oracles
from mimoloc.adp import build_dft_pair, similarity
from mimoloc.channel import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    Environment,
    OfdmConfig,
    Reflector,
)
from mimoloc.dynamics import (
    DistortionKind,
    DistortionScenario,
    WalkMode,
    _distort,
    generate_sequence,
    random_walk,
)
from mimoloc.errors import NotEnoughPaths
from mimoloc.fingerprint import GridSpec, build_db

from test_channel import make_path, make_paths, row_paths

ARRAY = ArrayConfig(n_antennas=8, wavelength=0.1)
OFDM = OfdmConfig(n_subcarriers=8, bandwidth=20e6)
ENV = Environment(
    bs_position=(0.0, 0.0),
    reflectors=(Reflector((-30.0, 8.0), (30.0, 8.0), 0.8),),
)
GRID = GridSpec(origin=(6.0, -2.0), spacing=0.5, n_rows=4, n_cols=4)


class TestRandomWalk:
    def test_same_seed_same_walk(self):
        w1 = random_walk(GRID, WalkMode.MODE2, 20, 42)
        w2 = random_walk(GRID, WalkMode.MODE2, 20, 42)
        np.testing.assert_array_equal(w1.cells, w2.cells)

    def test_stays_on_grid_and_adjacent(self):
        for seed in range(60):
            for mode in WalkMode:
                w = random_walk(GRID, mode, 25, seed)
                assert len(w.cells) == 25
                assert (w.cells[:, 0] >= 0).all() and (w.cells[:, 0] < 4).all()
                assert (w.cells[:, 1] >= 0).all() and (w.cells[:, 1] < 4).all()
                steps = np.abs(np.diff(w.cells, axis=0)).sum(axis=1)
                assert (steps == 1).all()

    def test_mode1_straight_until_boundary(self):
        grid = GridSpec(origin=(0.0, 0.0), spacing=1.0, n_rows=1, n_cols=12)
        w = random_walk(grid, WalkMode.MODE1, 6, 1)
        cols = w.cells[:, 1]
        assert all(cols[i + 1] == cols[i] + 1 for i in range(5))

    def test_mode1_heading_changes_only_at_boundary(self):
        for seed in range(40):
            w = random_walk(GRID, WalkMode.MODE1, 30, seed)
            diffs = [tuple(d) for d in np.diff(w.cells, axis=0)]
            for i in range(1, len(diffs)):
                if diffs[i] != diffs[i - 1]:
                    r, c = w.cells[i]
                    nr, nc = r + diffs[i - 1][0], c + diffs[i - 1][1]
                    assert not (0 <= nr < 4 and 0 <= nc < 4)

    def test_mode2_interior_direction_frequencies_uniform(self):
        grid = GridSpec(origin=(0.0, 0.0), spacing=1.0, n_rows=30, n_cols=30)
        w = random_walk(grid, WalkMode.MODE2, 2000, 0)
        steps = np.diff(w.cells, axis=0)
        counts = Counter(
            tuple(steps[i])
            for i in range(len(steps))
            if 0 < w.cells[i][0] < 29 and 0 < w.cells[i][1] < 29
        )
        total = sum(counts.values())
        assert len(counts) == 4
        for n in counts.values():
            assert abs(n / total - 0.25) < 0.05

    def test_positions_in_meters(self):
        w = random_walk(GRID, WalkMode.MODE1, 5, 3)
        pos = w.positions()
        np.testing.assert_allclose(
            pos[0],
            [6.0 + w.cells[0, 1] * 0.5, -2.0 + w.cells[0, 0] * 0.5],
        )

    def test_positions_are_grid_points_bit_for_bit(self):
        grid = GridSpec(origin=(6.3, -2.1), spacing=0.37, n_rows=3, n_cols=7)
        points = grid.all_positions()
        for seed in range(5):
            for mode in WalkMode:
                w = random_walk(grid, mode, 30, seed)
                for (row, col), pos in zip(w.cells, w.positions()):
                    assert np.array_equal(pos, points[row * grid.n_cols + col])


def distort(paths, kind, start=0, rng_seed=0):
    return _distort(paths, DistortionScenario(kind, rng_seed=rng_seed), start,
                    OFDM, SPEED_OF_LIGHT)


class TestDistortionScenario:
    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf, 1e5])
    @pytest.mark.parametrize("kind", list(DistortionKind))
    def test_unusable_addition_level_refused(self, kind, level):
        # a level is checked whatever the kind, so a scenario that exists
        # is one whose level could be used
        with pytest.raises(ValueError, match="addition_level_db"):
            DistortionScenario(kind, addition_level_db=level)

    def test_level_of_100_db_accepted(self):
        scenario = DistortionScenario(DistortionKind.NLOS_ADDITION,
                                      addition_level_db=100.0)
        assert scenario.addition_level_db == 100.0


class TestDistortPaths:
    def make_pair(self):
        return [
            make_path(aoa=1.0, gain=1.0 + 0j, sampled_delay=1),
            make_path(aoa=2.0, gain=0.3 + 0j, sampled_delay=3),
        ]

    def test_los_blockage_removes_strongest(self):
        pair = self.make_pair()
        out = distort(make_paths(pair, pair, pair), DistortionKind.LOS_BLOCKAGE,
                      start=1)
        assert row_paths(out, 0) == pair  # before the onset
        for row in (1, 2):
            left = row_paths(out, row)
            assert len(left) == 1 and abs(left[0].gain) == pytest.approx(0.3)

    def test_nlos_blockage_removes_second(self):
        pair = self.make_pair()
        out = distort(make_paths(pair, pair, pair), DistortionKind.NLOS_BLOCKAGE,
                      start=1)
        assert row_paths(out, 0) == pair  # before the onset
        for row in (1, 2):
            left = row_paths(out, row)
            assert len(left) == 1 and abs(left[0].gain) == pytest.approx(1.0)

    def test_single_path_los_blockage_empties(self):
        out = distort(make_paths([make_path()]), DistortionKind.LOS_BLOCKAGE)
        assert len(out) == 1 and not out.valid.any()

    def test_not_enough_paths(self):
        with pytest.raises(NotEnoughPaths):
            distort(make_paths([]), DistortionKind.LOS_BLOCKAGE)
        with pytest.raises(NotEnoughPaths):
            distort(make_paths([make_path()]), DistortionKind.NLOS_BLOCKAGE)
        with pytest.raises(NotEnoughPaths):
            distort(make_paths([]), DistortionKind.NLOS_ADDITION)
        # any distorted row too short for a blockage fails it; addition
        # needs a reference path in the first distorted row only
        pair, one = self.make_pair(), [make_path()]
        with pytest.raises(NotEnoughPaths):
            distort(make_paths(pair, []), DistortionKind.LOS_BLOCKAGE, 1)
        with pytest.raises(NotEnoughPaths):
            distort(make_paths(pair, pair, one), DistortionKind.NLOS_BLOCKAGE, 1)
        with pytest.raises(NotEnoughPaths):
            distort(make_paths(pair, [], pair), DistortionKind.NLOS_ADDITION, 1)
        distort(make_paths([], pair), DistortionKind.LOS_BLOCKAGE, 1)
        distort(make_paths(one, pair), DistortionKind.NLOS_BLOCKAGE, 1)
        distort(make_paths(pair, one, []), DistortionKind.NLOS_ADDITION, 1)

    def test_addition_level(self):
        pair = self.make_pair()
        out = distort(make_paths(pair, pair, pair), DistortionKind.NLOS_ADDITION,
                      start=1, rng_seed=4)
        assert out.valid.shape == (3, 3)
        assert out.valid[:, 2].tolist() == [False, True, True]
        assert row_paths(out, 0) == pair
        foreground = row_paths(out, 1)[-1]
        assert row_paths(out, 2) == pair + [foreground]
        # -6 dB below the strongest gain of 1.0
        assert abs(foreground.gain) == pytest.approx(10 ** (-6 / 20), rel=1e-12)
        assert abs(abs(foreground.gain) - 0.5012) < 1e-3
        assert 0.0 < foreground.aoa < math.pi
        assert 0 <= foreground.sampled_delay < 8
        assert foreground.cluster == -1
        # the first distorted row alone sets the magnitude
        weak = [make_path(gain=0.5 + 0j)]
        out = distort(make_paths(pair, weak, pair), DistortionKind.NLOS_ADDITION,
                      start=1, rng_seed=4)
        assert abs(out.gain[2, 2]) == pytest.approx(
            0.5 * 10 ** (-6 / 20), rel=1e-12)

    def test_input_never_mutated(self):
        paths = make_paths(self.make_pair(), self.make_pair())
        snapshot = {k: v.copy() for k, v in vars(paths).items()}
        for kind in DistortionKind:
            distort(paths, kind, rng_seed=1)
            for k, v in vars(paths).items():
                assert np.array_equal(v, snapshot[k]), (kind, k)

    def test_composition_counts(self):
        paths = make_paths([
            make_path(gain=1.0 + 0j),
            make_path(gain=0.5 + 0j, sampled_delay=2),
            make_path(gain=0.2 + 0j, sampled_delay=4),
        ])
        blocked = distort(paths, DistortionKind.LOS_BLOCKAGE)
        full = distort(blocked, DistortionKind.NLOS_ADDITION, rng_seed=2)
        assert full.valid.sum() == paths.valid.sum() - 1 + 1
        # the foreground is set from the strongest path left, 0.5
        assert abs(full.gain[0, -1]) == pytest.approx(
            0.5 * 10 ** (-6 / 20), rel=1e-12)

    def test_foreground_draw_deterministic(self):
        f1 = distort(make_paths([make_path()]), DistortionKind.NLOS_ADDITION,
                     rng_seed=9)
        f2 = distort(make_paths([make_path()]), DistortionKind.NLOS_ADDITION,
                     rng_seed=9)
        assert row_paths(f1, 0) == row_paths(f2, 0)
        f3 = distort(make_paths([make_path(gain=0.1j)]),
                     DistortionKind.NLOS_ADDITION, rng_seed=9)
        for name in ("aoa", "sampled_delay"):
            assert getattr(f3, name)[0, 1] == getattr(f1, name)[0, 1]
        assert np.angle(f3.gain[0, 1]) == pytest.approx(np.angle(f1.gain[0, 1]))
        assert abs(f3.gain[0, 1]) == pytest.approx(0.1 * abs(f1.gain[0, 1]))


class TestGenerateSequence:
    DFT = build_dft_pair(8, 8)

    def walk(self, seed=7, length=12):
        return random_walk(GRID, WalkMode.MODE1, length, seed)

    def test_undistorted_matches_db_bit_exact(self):
        db = build_db(ENV, GRID, ARRAY, OFDM)
        walk = self.walk()
        seq = generate_sequence(ENV, walk, None, 0, ARRAY, OFDM, dft=self.DFT)
        assert len(seq) == 12 and seq.mode is WalkMode.MODE1
        assert seq.adps.dtype == np.float32 and not seq.distorted.any()
        assert seq.adps.any(axis=(1, 2)).all()
        np.testing.assert_array_equal(seq.positions, walk.positions())
        idx = walk.cells[:, 0] * GRID.n_cols + walk.cells[:, 1]
        np.testing.assert_array_equal(seq.adps, db.adps[idx])

    @pytest.mark.parametrize("kind", list(DistortionKind))
    def test_frames_match_scalar_oracle(self, kind):
        walk = self.walk()
        scenario = DistortionScenario(kind, rng_seed=3)
        seq = generate_sequence(ENV, walk, scenario, 6, ARRAY, OFDM, dft=self.DFT)
        foreground = None
        for i, (adp, pos) in enumerate(zip(seq.adps, walk.positions())):
            paths = oracles.trace_paths(ENV, pos, ARRAY, OFDM)
            if i >= 6:
                if kind is DistortionKind.NLOS_ADDITION and foreground is None:
                    foreground = oracles.foreground_ray(
                        scenario, paths, OFDM, ENV.speed_of_light)
                paths = oracles.distort(paths, scenario, foreground)
            csi = oracles.synthesize_csi(paths, ARRAY, OFDM)
            want = np.abs(self.DFT.v.conj().T @ csi @ self.DFT.f)
            assert np.array_equal(adp, want.astype("<f4"))

    def test_blockage_lowers_energy_from_distort_from(self):
        walk = self.walk()
        clean = generate_sequence(ENV, walk, None, 0, ARRAY, OFDM, dft=self.DFT)
        scenario = DistortionScenario(DistortionKind.LOS_BLOCKAGE)
        seq = generate_sequence(ENV, walk, scenario, 6, ARRAY, OFDM, dft=self.DFT)
        assert seq.distorted.tolist() == [i >= 6 for i in range(12)]
        np.testing.assert_array_equal(seq.adps[:6], clean.adps[:6])
        for adp, clean_adp in zip(seq.adps[6:], clean.adps[6:]):
            assert np.linalg.norm(adp) < np.linalg.norm(clean_adp)

    def test_addition_changes_distorted_frames(self):
        walk = self.walk()
        clean = generate_sequence(ENV, walk, None, 0, ARRAY, OFDM, dft=self.DFT)
        scenario = DistortionScenario(DistortionKind.NLOS_ADDITION, rng_seed=3)
        seq = generate_sequence(ENV, walk, scenario, 6, ARRAY, OFDM, dft=self.DFT)
        for i in range(6, 12):
            s = similarity(seq.adps[i], clean.adps[i])
            assert s < 1.0 - 1e-6

    def test_blocking_the_only_path_loses_link(self):
        free = Environment(bs_position=(0.0, 0.0))
        scenario = DistortionScenario(DistortionKind.LOS_BLOCKAGE)
        seq = generate_sequence(
            free, self.walk(), scenario, 6, ARRAY, OFDM, dft=self.DFT
        )
        lost_link = ~seq.adps.any(axis=(1, 2))
        assert lost_link.tolist() == [i >= 6 for i in range(12)]

    def test_frozen_foreground_constant_across_frames(self):
        free = Environment(bs_position=(0.0, 0.0))
        scenario = DistortionScenario(DistortionKind.NLOS_ADDITION, rng_seed=11)
        seq = generate_sequence(
            free, self.walk(), scenario, 4, ARRAY, OFDM, dft=self.DFT
        )
        bins = {self._secondary_peak(adp) for adp in seq.adps[4:]}
        assert len(bins) == 1

    @staticmethod
    def _secondary_peak(adp):
        masked = adp.astype(np.float64).copy()
        r, c = np.unravel_index(np.argmax(masked), masked.shape)
        masked[max(0, r - 1): r + 2, max(0, c - 1): c + 2] = 0.0
        return np.unravel_index(np.argmax(masked), masked.shape)

    def test_deterministic(self):
        scenario = DistortionScenario(DistortionKind.NLOS_ADDITION, rng_seed=5)
        a = generate_sequence(ENV, self.walk(), scenario, 6, ARRAY, OFDM, dft=self.DFT)
        b = generate_sequence(ENV, self.walk(), scenario, 6, ARRAY, OFDM, dft=self.DFT)
        np.testing.assert_array_equal(a.adps, b.adps)
