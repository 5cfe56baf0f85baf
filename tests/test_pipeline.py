"""Detection verdicts, recovery fusion, and whole-sequence runs."""

import math

import numpy as np
import oracles
import pytest

from mimoloc import pipeline as pipeline_module
from mimoloc import predictor as predictor_module
from mimoloc.adp import adp_from_csi, build_dft_pair, similarity
from mimoloc.channel import (
    ArrayConfig,
    Environment,
    OfdmConfig,
    Reflector,
    synthesize_csi,
    trace_paths,
)
from mimoloc.dynamics import (
    DistortionKind,
    DistortionScenario,
    WalkMode,
    _distort,
    generate_sequence,
    random_walk,
)
from mimoloc.errors import (
    DimensionMismatch,
    EmptyNeighborhood,
    LengthMismatch,
    ZeroAdp,
)
from mimoloc.experiment import ExperimentConfig, database_for
from mimoloc.fingerprint import (
    FingerprintDb,
    GridSpec,
    build_db,
    neighbor_indices_within,
)
from mimoloc.pipeline import (
    VERDICTS,
    Thresholds,
    Verdict,
    calibrate_similarity_floor,
    default_thresholds,
    detect_distorted,
    locate_each,
    neighbors_each,
    recover_and_locate,
    run_sequence,
    score_lists,
)
from mimoloc.predictor import PeakTrackingPredictor

ARRAY = ArrayConfig(n_antennas=16, wavelength=0.1)
OFDM = OfdmConfig(n_subcarriers=16, bandwidth=50e6)
DFT = build_dft_pair(16, 16)
ENV = Environment(
    bs_position=(0.0, 0.0),
    reflectors=(
        Reflector((2.0, 4.0), (12.0, 4.0), 0.9),
        Reflector((12.0, -6.0), (12.0, 6.0), 0.85),
    ),
)
GRID = GridSpec(origin=(6.0, -2.0), spacing=0.25, n_rows=16, n_cols=16)
POINTS = GRID.all_positions()


@pytest.fixture(scope="module")
def db():
    return build_db(ENV, GRID, ARRAY, OFDM, seed=0)


@pytest.fixture(scope="module")
def thresholds(db):
    return default_thresholds(GRID, calibrate_similarity_floor(db))


def nn_localizer(db):
    """Closest database entry by profile similarity; exact on clean frames.

    Like the package's localizers, it takes one profile or a stack.
    """

    def locate_one(adp):
        sims = np.array(
            [similarity(adp, a) if np.any(a) else -1.0 for a in db.adps]
        )
        return db.positions[int(np.argmax(sims))]

    def localize(adps):
        adps = np.asarray(adps)
        if adps.ndim == 2:
            return locate_one(adps)
        return np.stack([locate_one(a) for a in adps])

    return localize


def frame_at(position, scenario=None):
    paths = trace_paths(ENV, np.asarray(position, float), ARRAY, OFDM)
    if scenario is not None:
        paths = _distort(paths, scenario, 0, OFDM, ENV.speed_of_light)
    return adp_from_csi(synthesize_csi(paths, ARRAY, OFDM), DFT)[0]


class TestThresholds:
    def test_default_radii_follow_grid_pitch(self):
        thr = default_thresholds(GRID, 0.9)
        assert thr.neighborhood_radius == pytest.approx(0.75)
        assert thr.recovery_radius == pytest.approx(0.5)
        assert thr.similarity_floor == 0.9

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Thresholds(-1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            Thresholds(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            Thresholds(1.0, 1.5, 1.0)
        for radius in (math.nan, math.inf):
            with pytest.raises(ValueError):
                Thresholds(radius, 0.5, 1.0)
            with pytest.raises(ValueError):
                Thresholds(1.0, 0.5, radius)


class TestCalibration:
    def test_floor_is_high_on_a_dense_grid(self, db):
        floor = calibrate_similarity_floor(db)
        assert 0.9 < floor < 1.0

    def test_identical_profiles_calibrate_to_one(self):
        tiny = GridSpec(origin=(0.0, 0.0), spacing=1.0, n_rows=2, n_cols=2)
        adp = np.zeros((4, 4, 4), dtype=np.float32)
        adp[:, 1, 2] = 1.0
        copies = FingerprintDb(tiny, tiny.all_positions(), adp)
        assert calibrate_similarity_floor(copies) == pytest.approx(1.0)

    def test_no_neighbors_in_range_raises(self):
        single = GridSpec(origin=(6.0, -2.0), spacing=0.25, n_rows=1, n_cols=1)
        with pytest.raises(EmptyNeighborhood):
            calibrate_similarity_floor(build_db(ENV, single, ARRAY, OFDM))


class TestDetection:
    def test_zero_frame_is_lost_link(self, db, thresholds):
        det = detect_distorted(np.zeros((16, 16)), None, db, thresholds)
        assert det.verdict is Verdict.LOST_LINK
        assert det.best_similarity == 0.0

    def test_clean_frame_is_accurate(self, db, thresholds):
        point = POINTS[7 * GRID.n_cols + 9]
        frame = frame_at(point)
        det = detect_distorted(frame, nn_localizer(db)(frame), db, thresholds)
        assert det.verdict is Verdict.ACCURATE
        assert det.best_similarity > 0.999

    @pytest.mark.parametrize("kind", list(DistortionKind))
    def test_distorted_frame_is_flagged(self, db, thresholds, kind):
        point = POINTS[7 * GRID.n_cols + 9]
        scen = DistortionScenario(kind=kind, addition_level_db=-1.0,
                                  rng_seed=3)
        frame = frame_at(point, scen)
        det = detect_distorted(frame, nn_localizer(db)(frame), db,
                               thresholds)
        assert det.verdict is Verdict.DISTORTED

    def test_faint_addition_is_waved_through(self, db, thresholds):
        point = POINTS[7 * GRID.n_cols + 9]
        scen = DistortionScenario(kind=DistortionKind.NLOS_ADDITION,
                                  addition_level_db=-30.0, rng_seed=3)
        frame = frame_at(point, scen)
        det = detect_distorted(frame, nn_localizer(db)(frame), db,
                               thresholds)
        assert det.verdict is Verdict.ACCURATE

    def test_verdict_survives_frame_scaling(self, db, thresholds):
        loc = nn_localizer(db)
        clean = frame_at(POINTS[3 * GRID.n_cols + 3])
        blocked = frame_at(
            POINTS[3 * GRID.n_cols + 3],
            DistortionScenario(kind=DistortionKind.LOS_BLOCKAGE),
        )
        for frame in (clean, blocked):
            base = detect_distorted(frame, loc(frame), db, thresholds)
            scaled = detect_distorted(3.0 * frame, loc(3.0 * frame), db,
                                      thresholds)
            assert scaled.verdict is base.verdict
            assert scaled.best_similarity == pytest.approx(base.best_similarity)

    def test_no_neighbors_means_distorted(self, db, thresholds):
        det = detect_distorted(frame_at(POINTS[2 * GRID.n_cols + 2]),
                               np.array([1000.0, 1000.0]), db, thresholds)
        assert det.verdict is Verdict.DISTORTED
        assert det.best_similarity == 0.0


class TestRecovery:
    def test_two_candidate_midpoint(self, db, thresholds):
        # shrink the recovery radius so exactly one database entry competes
        # with the prediction, both with similarity one: a clean midpoint
        point_index = 5 * GRID.n_cols + 5
        point = db.positions[point_index]
        entry = np.asarray(db.adps[point_index], dtype=np.float64)
        elsewhere = np.array([7.5, 0.5])
        thr = Thresholds(thresholds.neighborhood_radius,
                         thresholds.similarity_floor, 0.1 * GRID.spacing)
        rec = recover_and_locate(entry, entry, elsewhere, point, db, thr)
        assert np.allclose(rec.position, (point + elsewhere) / 2.0, atol=1e-9)
        assert np.allclose(rec.adp, entry, atol=1e-9)
        assert rec.prediction_weight == pytest.approx(0.5, abs=1e-9)

    def test_unrelated_frame_weights_neighbors_uniformly(self):
        # one-hot database profiles and a measured frame on a pixel no
        # candidate uses: every similarity is zero, so the weights fall
        # back to uniform and the fused position is the cross centroid
        tiny = GridSpec(origin=(0.0, 0.0), spacing=1.0, n_rows=3, n_cols=3)
        adps = np.zeros((9, 4, 4), dtype="<f4")
        for i in range(9):
            adps[i, i // 4, i % 4] = 1.0
        tiny_db = FingerprintDb(grid=tiny, positions=tiny.all_positions(),
                                adps=adps)
        measured = np.zeros((4, 4))
        measured[3, 3] = 1.0
        thr = Thresholds(1.0, 0.5, 1.0)
        rec = recover_and_locate(measured, np.zeros((4, 4)), None,
                                 tiny.all_positions()[4], tiny_db, thr)
        assert np.allclose(rec.position, tiny.all_positions()[4], atol=1e-12)
        # the five cross entries within the radius, in equal parts
        cross = [1, 3, 4, 5, 7]
        assert np.allclose(rec.adp, adps[cross].mean(axis=0), atol=1e-12)
        assert rec.prediction_weight == 0.0

    def test_lost_link_falls_back_to_prediction(self, db, thresholds):
        point_index = 5 * GRID.n_cols + 5
        point = db.positions[point_index]
        entry = np.asarray(db.adps[point_index], dtype=np.float64)
        rec = recover_and_locate(np.zeros((16, 16)), entry,
                                 nn_localizer(db)(entry), point, db,
                                 thresholds)
        assert np.allclose(rec.position, point, atol=1e-12)
        assert np.allclose(rec.adp, entry, atol=1e-12)
        assert rec.prediction_weight == 1.0

    def test_nothing_to_fuse_raises(self, db, thresholds):
        zero = np.zeros((16, 16))
        with pytest.raises(EmptyNeighborhood):
            recover_and_locate(zero, zero, None, None, db, thresholds)
        with pytest.raises(EmptyNeighborhood):
            recover_and_locate(frame_at(POINTS[4 * GRID.n_cols + 4]), zero,
                               None, None, db, thresholds)

    def test_fused_position_stays_in_candidate_hull(self, db, thresholds):
        rng = np.random.default_rng(9)
        tracker = PeakTrackingPredictor()
        for _ in range(10):
            row, col = rng.integers(2, 14, size=2)
            point = POINTS[row * GRID.n_cols + col]
            history = [frame_at(point)] * 3
            measured = frame_at(
                point, DistortionScenario(kind=DistortionKind.LOS_BLOCKAGE))
            predicted = tracker(np.stack(history)[None])[0]
            rec = recover_and_locate(measured, predicted,
                                     nn_localizer(db)(predicted), point, db,
                                     thresholds)
            lo = point - thresholds.recovery_radius - 1e-9
            hi = point + thresholds.recovery_radius + 1e-9
            assert np.all(rec.position >= lo) and np.all(rec.position <= hi)
            assert 0.0 <= rec.prediction_weight <= 1.0


class TestStackedKernel:
    """The stacked scoring kernel gives each frame what the one-frame
    functions give it alone."""

    @pytest.fixture(scope="class")
    def rich_db(self):
        # a 40x40 database with a few zero prints, so that the lists have
        # many lengths and skip entries
        db = database_for(ExperimentConfig(environment="rich"))
        adps = db.adps.copy()
        adps[[0, 41, 700, 701, 1599]] = 0.0
        return FingerprintDb(db.grid, db.positions, adps)

    @staticmethod
    def centers(db, rng, n):
        x0, y0, x1, y1 = db.grid.extent()
        off_grid = rng.uniform((x0 - 1, y0 - 1), (x1 + 1, y1 + 1), (n, 2))
        on_grid = db.positions[rng.choice(len(db.positions), n)]
        return np.concatenate([off_grid, on_grid, [[np.nan, np.nan]]])

    def test_neighbors_each_equals_one_center_at_a_time(self, rich_db):
        rng = np.random.default_rng(0)
        centers = self.centers(rich_db, rng, 60)
        for radius in (0.0, 0.3, 3.0 * rich_db.grid.spacing, 2.5):
            lists = neighbors_each(rich_db, centers, radius)
            assert len(lists) == len(centers)
            for center, got in zip(centers, lists):
                want = neighbor_indices_within(rich_db, center, radius)
                want = want[~rich_db.zero_flags[want]]
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            neighbors_each(rich_db, centers, -1.0)

    def test_score_lists_equals_similarity(self, rich_db):
        rng = np.random.default_rng(1)
        usable = np.flatnonzero(~rich_db.zero_flags)
        frames = (rich_db.adps[rng.choice(usable, 121)]
                  * rng.uniform(0.5, 2.0, (121, 1, 1)))
        frames[::7] += rng.random(frames[::7].shape)  # distorted frames
        lists = neighbors_each(rich_db, self.centers(rich_db, rng, 60),
                               3.0 * rich_db.grid.spacing)
        lists[::5] = [np.sort(rng.choice(usable, rng.integers(0, 130),
                                         replace=False))
                      for _ in lists[::5]]
        assert len({len(idx) for idx in lists}) > 10
        got = score_lists(frames, lists, rich_db.adps, rich_db.norms)
        for frame, idx, sims in zip(frames, lists, got):
            assert np.array_equal(sims, similarity(frame, rich_db.adps[idx]))

    def test_score_lists_errors(self, rich_db):
        frame = rich_db.adps[5:6]
        with pytest.raises(ZeroAdp):
            score_lists(frame, [[0, 5]], rich_db.adps, rich_db.norms)
        with pytest.raises(ZeroAdp):
            score_lists(np.zeros_like(frame), [[]], rich_db.adps,
                        rich_db.norms)
        with pytest.raises(DimensionMismatch):
            score_lists(frame[:, :-1], [[5]], rich_db.adps, rich_db.norms)


def walk_sequence(scenario, distort_from, seed, length=12):
    walk = random_walk(GRID, WalkMode.MODE2, length, seed)
    return generate_sequence(ENV, walk, scenario, distort_from, ARRAY, OFDM)


def verdicts(est):
    """Walk 0's verdicts, as ``Verdict`` members."""
    return [VERDICTS[v] for v in est.verdict[0]]


class TestRunSequence:
    def test_clean_sequence_tracks_exactly(self, db, thresholds):
        seq = walk_sequence(None, 0, [200, 0])
        est = run_sequence([seq.adps], nn_localizer(db), db, thresholds,
                           PeakTrackingPredictor())
        assert all(v is Verdict.ACCURATE for v in verdicts(est))
        assert (oracles.sources(est) == "measured").all()
        assert np.allclose(est.position[0], seq.positions)
        assert np.array_equal(est.position, est.measured_position)

    def test_blocked_tail_is_recovered(self, db, thresholds):
        scen = DistortionScenario(kind=DistortionKind.LOS_BLOCKAGE, rng_seed=5)
        seq = walk_sequence(scen, 5, [200, 0])
        est = run_sequence([seq.adps], nn_localizer(db), db, thresholds,
                           PeakTrackingPredictor())
        (source,), truth = oracles.sources(est), seq.positions
        assert (source[:5] == "measured").all()
        assert np.allclose(est.position[0, :5], truth[:5])
        assert (source[5:] == "recovered").all()
        assert all(v is Verdict.DISTORTED for v in verdicts(est)[5:])
        assert (np.linalg.norm(est.position[0, 5:] - truth[5:], axis=1)
                < 1.5).all()
        assert not np.isnan(est.predicted_position[0, 5:]).any()

    def test_deterministic(self, db, thresholds):
        scen = DistortionScenario(kind=DistortionKind.NLOS_ADDITION, rng_seed=2)
        seq = walk_sequence(scen, 4, [200, 2])
        runs = [
            run_sequence([seq.adps], nn_localizer(db), db, thresholds,
                         PeakTrackingPredictor())
            for _ in range(2)
        ]
        oracles.assert_same_estimates(*runs)

    def test_distorted_first_frame_falls_back(self, db, thresholds):
        scen = DistortionScenario(kind=DistortionKind.LOS_BLOCKAGE, rng_seed=1)
        seq = walk_sequence(scen, 0, [200, 3])
        est = run_sequence([seq.adps], nn_localizer(db), db, thresholds,
                           PeakTrackingPredictor())
        (source,) = oracles.sources(est)
        assert source[0] == "fallback"
        assert verdicts(est)[0] is Verdict.DISTORTED
        assert np.array_equal(est.position[0, 0], est.measured_position[0, 0])
        assert np.isnan(est.predicted_position[0, 0]).all()
        assert (source[1:] == "recovered").all()

    def test_lost_link_first_frame_raises(self, thresholds):
        free = Environment(bs_position=(0.0, 0.0))
        tiny = GridSpec(origin=(6.0, -2.0), spacing=0.25, n_rows=2, n_cols=2)
        free_db = build_db(free, tiny, ARRAY, OFDM, seed=0)
        walk = random_walk(tiny, WalkMode.MODE2, 6, 0)
        scen = DistortionScenario(kind=DistortionKind.LOS_BLOCKAGE)
        seq = generate_sequence(free, walk, scen, 0, ARRAY, OFDM)
        thr = default_thresholds(tiny, calibrate_similarity_floor(free_db))
        with pytest.raises(EmptyNeighborhood):
            run_sequence([seq.adps], nn_localizer(free_db), free_db, thr,
                         PeakTrackingPredictor())

    def test_lost_link_mid_sequence_is_recovered(self, thresholds):
        free = Environment(bs_position=(0.0, 0.0))
        tiny = GridSpec(origin=(6.0, -2.0), spacing=0.25, n_rows=3, n_cols=3)
        free_db = build_db(free, tiny, ARRAY, OFDM, seed=0)
        walk = random_walk(tiny, WalkMode.MODE2, 8, 1)
        scen = DistortionScenario(kind=DistortionKind.LOS_BLOCKAGE)
        seq = generate_sequence(free, walk, scen, 4, ARRAY, OFDM)
        assert (~seq.adps[4:].any(axis=(1, 2))).any()  # a lost link
        thr = default_thresholds(tiny, calibrate_similarity_floor(free_db))
        est = run_sequence([seq.adps], nn_localizer(free_db), free_db, thr,
                           PeakTrackingPredictor())
        assert all(v is Verdict.LOST_LINK for v in verdicts(est)[4:])
        assert (oracles.sources(est)[0, 4:] == "recovered").all()
        assert np.isfinite(est.position[0, 4:]).all()
        assert np.isnan(est.measured_position[0, 4:]).all()

    @staticmethod
    def count_localizations(adps, db, thresholds):
        """(profiles localized, frames with energy, nonzero predictions,
        estimates) of one run."""
        localize = nn_localizer(db)
        tracker = PeakTrackingPredictor()
        calls, nonzero = [], []

        def counting_localizer(stack):
            calls.append(len(stack))
            return localize(stack)

        def predictor(histories):
            out = tracker(histories)
            nonzero.extend(bool(np.any(p)) for p in out)
            return out

        est = run_sequence([adps], counting_localizer, db, thresholds,
                           predictor)
        detected = sum(bool(np.any(a)) for a in adps)
        return sum(calls), detected, sum(nonzero), est

    def test_each_prediction_localized_once(self, db, thresholds):
        # detection localizes every frame with energy and the prediction
        # is localized once; recovery reuses that fix
        scen = DistortionScenario(kind=DistortionKind.LOS_BLOCKAGE, rng_seed=5)
        seq = walk_sequence(scen, 5, [200, 0])
        calls, detected, predictions, est = self.count_localizations(
            seq.adps, db, thresholds)
        assert (oracles.sources(est) == "recovered").sum() == 7
        assert calls == detected + predictions

    def test_lost_link_frames_are_not_localized(self, thresholds):
        free = Environment(bs_position=(0.0, 0.0))
        tiny = GridSpec(origin=(6.0, -2.0), spacing=0.25, n_rows=3, n_cols=3)
        free_db = build_db(free, tiny, ARRAY, OFDM, seed=0)
        walk = random_walk(tiny, WalkMode.MODE2, 8, 1)
        scen = DistortionScenario(kind=DistortionKind.LOS_BLOCKAGE)
        seq = generate_sequence(free, walk, scen, 4, ARRAY, OFDM)
        thr = default_thresholds(tiny, calibrate_similarity_floor(free_db))
        calls, detected, predictions, est = self.count_localizations(
            seq.adps, free_db, thr)
        assert detected < est.verdict.size
        assert calls == detected + predictions


class TestLocateEach:
    @staticmethod
    def recording_localizer(calls):
        def localize(frames):
            calls.append(frames.copy())
            return np.stack([frames[:, 0, 0], frames.sum(axis=(1, 2))],
                            axis=1)
        return localize

    def test_zero_frames_get_nan_rows_in_one_call(self):
        frames = np.random.default_rng(0).random((5, 3, 4)) + 0.5
        frames[[1, 3]] = 0.0
        calls = []
        fixes = locate_each(self.recording_localizer(calls), frames)
        (located,) = calls
        assert np.array_equal(located, frames[[0, 2, 4]])
        assert fixes.shape == (5, 2) and fixes.dtype == np.float64
        assert np.isnan(fixes[[1, 3]]).all()
        assert np.array_equal(fixes[[0, 2, 4]], np.stack(
            [located[:, 0, 0], located.sum(axis=(1, 2))], axis=1))

    def test_all_zero_stack_calls_nothing(self):
        calls = []
        fixes = locate_each(self.recording_localizer(calls),
                            np.zeros((3, 3, 4)))
        assert calls == []
        assert fixes.shape == (3, 2) and np.isnan(fixes).all()


def lockstep_walks():
    """Six walks of one length: clean, blocked, added-path, a repeat of the
    first (so that every frame is shared within a step) and two more."""
    block = DistortionScenario(kind=DistortionKind.LOS_BLOCKAGE, rng_seed=5)
    add = DistortionScenario(kind=DistortionKind.NLOS_ADDITION, rng_seed=2)
    seqs = [walk_sequence(None, 0, [300, 0]),
            walk_sequence(block, 5, [300, 1]),
            walk_sequence(add, 4, [300, 2]),
            walk_sequence(None, 0, [300, 0]),
            walk_sequence(block, 0, [300, 3]),
            walk_sequence(add, 7, [300, 4])]
    return [seq.adps for seq in seqs]


class TestLockstep:
    """Walks stepped together get the estimates each gets alone."""

    def test_equals_one_walk_at_a_time(self, db, thresholds):
        walks = lockstep_walks()
        est = run_sequence(walks, nn_localizer(db), db, thresholds,
                           PeakTrackingPredictor())
        assert est.verdict.shape == (len(walks), len(walks[0]))
        source = oracles.sources(est)
        assert set(source.ravel()) == {"measured", "recovered", "fallback"}
        measured = source == "measured"
        assert np.array_equal(est.position[measured],
                              est.measured_position[measured])
        for i, adps in enumerate(walks):
            oracles.assert_same_estimates(
                oracles.walk_of(est, i),
                oracles.run_sequence(adps, nn_localizer(db), db, thresholds,
                                     PeakTrackingPredictor()))

    def test_one_detection_per_step(self, db, thresholds, monkeypatch):
        # per step: the stack of histories, and the frames of each
        # detect_peaks call made in it
        steps = []
        tracker = PeakTrackingPredictor()
        detect = predictor_module.detect_peaks

        def counting_detect(frames, *args):
            steps[-1][1].append(np.array(frames))
            return detect(frames, *args)

        def predictor(histories):
            steps.append((histories, []))
            return tracker(histories)

        monkeypatch.setattr(predictor_module, "detect_peaks",
                            counting_detect)
        walks = lockstep_walks()
        run_sequence(walks, nn_localizer(db), db, thresholds, predictor)
        assert len(steps) == len(walks[0]) - 1
        for t, (histories, detected) in enumerate(steps, start=1):
            n_t, n_c = histories.shape[2:]
            assert histories.shape[:2] == (len(walks), min(t, 4))
            # one call over all n x T frames of the step
            (frames,) = detected
            assert np.array_equal(frames, histories.reshape(-1, n_t, n_c))

    @pytest.mark.parametrize("history_length", [1, 2, 4])
    def test_histories_are_windows_of_the_fed_profiles(
            self, db, thresholds, monkeypatch, history_length):
        # the fed profiles, rebuilt here: each walk as measured, with the
        # frames recovery rebuilt in their place
        walks = lockstep_walks()
        fed = np.array(walks, dtype=np.float64)
        assert fed.shape[1] > history_length
        recover = pipeline_module.recover_each
        tracker = PeakTrackingPredictor()
        histories, rebuilt = [], []

        def recording_recover(*args):
            positions, fused, weights = recover(*args)
            rebuilt.append((len(histories), fused))
            return positions, fused, weights

        def predictor(stack):
            assert not stack.flags.writeable
            histories.append(np.array(stack))
            return tracker(stack)

        monkeypatch.setattr(pipeline_module, "recover_each",
                            recording_recover)
        est = run_sequence(walks, nn_localizer(db), db, thresholds,
                           predictor, history_length=history_length)
        measured = fed.copy()
        for t, fused in rebuilt:  # one recovery per step, after step t's call
            fed[est.verdict[:, t] != pipeline_module.ACCURATE, t] = fused
        # frames rebuilt before the last step feed later histories
        assert min(t for t, _ in rebuilt) < fed.shape[1] - 1
        assert not np.array_equal(fed, measured)
        assert len(histories) == fed.shape[1] - 1
        for t, got in enumerate(histories, start=1):
            assert got.shape[1] == min(t, history_length)
            assert np.array_equal(got, fed[:, t - got.shape[1]:t])

    def test_one_localizer_call_per_step(self, db, thresholds):
        # step 0 locates its measured frames, every later step its
        # measured frames with energy stacked with its nonzero
        # predictions. At step 6 walk 1's link is lost and the
        # predictions from walk 0's clean frame 5 (walks 0 and 3) are all
        # zero, so both halves of that stack skip rows
        walks = np.stack(lockstep_walks())
        walks[1, 6] = 0.0
        mark = walks[0, 5]
        localize, tracker = nn_localizer(db), PeakTrackingPredictor()
        calls, predictions = [], []

        def counting_localizer(stack):
            calls.append(len(stack))
            return localize(stack)

        def predictor(histories):
            out = tracker(histories)
            out[(histories[:, -1] == mark).all(axis=(1, 2))] = 0.0
            predictions.append(out)
            return out

        est = run_sequence(walks, counting_localizer, db, thresholds,
                           predictor)
        steps = [np.zeros((0,) + walks.shape[2:])] + predictions
        assert calls == [
            np.count_nonzero(np.concatenate([walks[:, t], p]).any(
                axis=(1, 2))) for t, p in enumerate(steps)]
        assert calls[6] == 2 * len(walks) - 3
        assert est.verdict[1, 6] == pipeline_module.LOST_LINK
        assert np.isnan(est.predicted_position[[0, 3], 6]).all()
        for i, adps in enumerate(walks):
            oracles.assert_same_estimates(
                oracles.walk_of(est, i),
                oracles.run_sequence(adps, localize, db, thresholds,
                                     predictor))

    @pytest.mark.parametrize("cut", [np.s_[:-1], np.s_[:, :-1]],
                             ids=["walks", "antennas"])
    def test_misshapen_prediction_raises(self, db, thresholds, cut):
        tracker = PeakTrackingPredictor()

        def predictor(histories):
            return tracker(histories)[cut]

        with pytest.raises(DimensionMismatch):
            run_sequence(lockstep_walks(), nn_localizer(db), db, thresholds,
                         predictor)

    def test_a_walk_stack_equals_its_list(self, db, thresholds):
        walks = lockstep_walks()
        runs = [run_sequence(w, nn_localizer(db), db, thresholds,
                             PeakTrackingPredictor())
                for w in (walks, np.stack(walks))]
        oracles.assert_same_estimates(*runs)

    @pytest.mark.parametrize("history_length", [0, -1, 1.5, True])
    def test_bad_history_length_raises_before_any_call(
            self, db, thresholds, history_length):
        calls = []

        def localizer(frames):
            calls.append(frames)
            return nn_localizer(db)(frames)

        with pytest.raises(ValueError, match="history_length"):
            run_sequence(lockstep_walks(), localizer, db, thresholds,
                         PeakTrackingPredictor(),
                         history_length=history_length)
        assert calls == []

    def test_no_walks_and_unequal_walks(self, db, thresholds):
        est = run_sequence([], nn_localizer(db), db, thresholds,
                           PeakTrackingPredictor())
        assert est.position.shape == (0, 0, 2)
        assert est.verdict.shape == (0, 0) and est.verdict.dtype == np.int8
        adps = walk_sequence(None, 0, [300, 0]).adps
        with pytest.raises(LengthMismatch):
            run_sequence([adps, adps[:-1]], nn_localizer(db), db,
                         thresholds, PeakTrackingPredictor())
