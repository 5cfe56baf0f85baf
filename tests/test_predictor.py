"""Peak detection, tracking, and next-frame prediction."""

import math

import numpy as np
import oracles
import pytest

from mimoloc.adp import adp_from_csi, build_dft_pair, gaussian_bumps, similarity
from mimoloc.channel import (
    ArrayConfig,
    Environment,
    OfdmConfig,
    Reflector,
    synthesize_csi,
    trace_paths,
)
from mimoloc.container import write_checkpoint
from mimoloc.dynamics import WalkMode, random_walk
from mimoloc.errors import (
    DimensionMismatch,
    DivergedLoss,
    EmptyHistory,
    FormatError,
    LengthMismatch,
    TruncatedFile,
    VersionError,
)
from mimoloc.fingerprint import GridSpec
from mimoloc import predictor as predictor_module
from mimoloc.neural import TrainConfig
from mimoloc.predictor import (
    MAX_PEAKS,
    PREDICTOR_MAGIC,
    PREDICTOR_VERSION,
    ConvRecurrentPredictor,
    PeakTrackingPredictor,
    _loss_and_grads,
    _step_columns,
    detect_peaks,
    load_predictor,
    save_predictor,
    train_predictor,
)

ARRAY = ArrayConfig(n_antennas=16, wavelength=0.1)
OFDM = OfdmConfig(n_subcarriers=16, bandwidth=50e6)
DFT = build_dft_pair(16, 16)
FREE_SPACE = Environment(bs_position=(0.0, 0.0))


def bumps(shape, centers, amps, sigma=0.5):
    return oracles.gaussian_profile(shape, centers, amps, sigma)


def adp_at(position):
    paths = trace_paths(FREE_SPACE, np.asarray(position, dtype=float), ARRAY, OFDM)
    return adp_from_csi(synthesize_csi(paths, ARRAY, OFDM), DFT)[0]


def frame_peaks(frame):
    """The peaks ``detect_peaks`` keeps in one frame, strongest first."""
    fields = detect_peaks(np.asarray(frame)[None])
    return [oracles.Peak(*p) for p in zip(*(f[0].tolist() for f in fields))]


def predict_one(predictor, history):
    """A predictor's next frame for one history, as a stack of one."""
    return predictor(np.asarray(history, dtype=np.float64)[None])[0]


# the tracker's module constants, by the names of the reference's fields
SETTINGS = ("max_peaks", "gate", "max_misses", "sigma", "min_amplitude")


@pytest.fixture
def settings(monkeypatch):
    """``settings(**changed)`` sets the tracker's module constants to their
    values at the start of the test, updated by ``changed``, and returns
    all five as ``oracles.ReferencePeakTrackingPredictor`` takes them."""
    start = {name: getattr(predictor_module, name.upper())
             for name in SETTINGS}

    def use(**changed):
        values = dict(start, **changed)
        for name, value in values.items():
            monkeypatch.setattr(predictor_module, name.upper(), value)
        return values
    return use


class TestDetectPeaks:
    def test_isolated_pixel(self):
        a = np.zeros((8, 8))
        a[3, 5] = 2.0
        peaks = frame_peaks(a)
        assert len(peaks) == 1
        assert peaks[0] == (3.0, 5.0, 2.0)

    def test_subpixel_refinement(self):
        a = bumps((16, 16), [(5.4, 7.3)], [1.0])
        (peak,) = frame_peaks(a)
        assert abs(peak.angle_bin - 5.4) < 0.1
        assert abs(peak.delay_bin - 7.3) < 0.1

    def test_sorted_strongest_first(self):
        a = bumps((16, 16), [(2.0, 2.0), (10.0, 12.0)], [0.5, 1.0])
        peaks = frame_peaks(a)
        assert [round(p.angle_bin) for p in peaks] == [10, 2]
        assert peaks[0].amplitude > peaks[1].amplitude

    def test_ties_broken_by_position(self):
        a = np.zeros((12, 12))
        a[6, 9] = 1.0
        a[2, 3] = 1.0
        peaks = frame_peaks(a)
        assert (peaks[0].angle_bin, peaks[0].delay_bin) == (2.0, 3.0)

    def test_max_peaks_keeps_strongest(self):
        # ten isolated maxima, four bins apart (cyclically too)
        spots = [(z, q) for z in (1, 5, 9, 13) for q in (2, 6, 10, 14)][:10]
        a = np.zeros((16, 16))
        for amp, (z, q) in enumerate(spots, start=1):
            a[z, q] = amp
        assert MAX_PEAKS == 8
        assert frame_peaks(a) == [(*spots[amp - 1], float(amp))
                                  for amp in range(10, 2, -1)]

    def test_min_amplitude_filters(self):
        # a strict maximum at the floor of 0.0 is no peak
        a = np.full((8, 8), -1.0)
        a[3, 5] = 0.0
        assert frame_peaks(a) == []

    def test_wraparound_peak(self):
        a = bumps((16, 16), [(0.3, 15.6)], [1.0])
        (peak,) = frame_peaks(a)
        assert abs(peak.angle_bin - 0.3) < 0.1
        assert abs(peak.delay_bin - 15.6) < 0.1

    def test_zero_frame_has_no_peaks(self):
        assert frame_peaks(np.zeros((8, 8))) == []

    def test_plateau_is_not_a_peak(self):
        a = np.zeros((8, 8))
        a[3, 5] = a[3, 6] = 1.0
        assert frame_peaks(a) == []

    def test_translation_consistency(self):
        a = bumps((16, 16), [(4.2, 6.7), (11.6, 2.1)], [1.0, 0.7])
        rolled = np.roll(a, (5, 7), axis=(0, 1))
        base = frame_peaks(a)
        shifted = frame_peaks(rolled)
        assert len(base) == len(shifted)
        for p, s in zip(base, shifted):
            assert s.angle_bin == pytest.approx((p.angle_bin + 5) % 16, abs=1e-9)
            assert s.delay_bin == pytest.approx((p.delay_bin + 7) % 16, abs=1e-9)
            assert s.amplitude == pytest.approx(p.amplitude)

    def test_rejects_other_than_frame_or_stack(self):
        for shape in [(5,), (2, 3, 4, 5)]:
            with pytest.raises(DimensionMismatch):
                detect_peaks(np.zeros(shape))

    @pytest.mark.parametrize("kwargs", [{}, {"max_peaks": 2},
                                        {"min_amplitude": 0.5}])
    def test_stack_rows_are_frame_lists(self, kwargs, settings):
        rng = np.random.default_rng(8)
        frames = rng.uniform(0.0, 1.0, size=(7, 9, 11))
        frames[2] = np.round(frames[2], 1)
        frames[4] = 0.0
        assert_same_peaks(frames, settings(**kwargs))

    def test_empty_stack(self):
        got = detect_peaks(np.zeros((0, 8, 8)))
        assert all(field.shape == (0, 0) for field in got)

    def test_rejects_a_single_frame(self):
        with pytest.raises(DimensionMismatch):
            detect_peaks(np.zeros((8, 8)))

    @pytest.mark.parametrize("max_peaks", [0, -1, 2.5, True, "8"])
    def test_rejects_max_peaks_below_one(self, max_peaks):
        # the peak count is the constant MAX_PEAKS, so every value of the
        # old parameter, in range or not, is now an unknown argument
        a = bumps((16, 16), [(2, 2), (8, 8), (13, 4)], [0.3, 1.0, 0.6])
        with pytest.raises(TypeError, match="max_peaks"):
            detect_peaks(a[None], max_peaks=max_peaks)


class TestPeakTracking:
    @pytest.mark.parametrize("field, value", [
        ("max_peaks", 0), ("max_peaks", -1), ("max_peaks", 2.0),
        ("max_misses", 0), ("max_misses", -2),
        ("gate", 0.0), ("gate", -1.0), ("gate", math.nan),
        ("gate", math.inf), ("gate", "3"),
        ("sigma", 0.0), ("sigma", math.nan), ("sigma", math.inf)])
    def test_rejects_bad_parameters(self, field, value):
        # the tracker's settings are module constants, so it takes none
        with pytest.raises(TypeError, match=field):
            PeakTrackingPredictor(**{field: value})

    def test_static_history_reproduces_frame(self):
        frame = bumps((16, 16), [(4.0, 6.0), (10.0, 12.0)], [1.0, 0.6])
        pred = predict_one(PeakTrackingPredictor(), [frame] * 4)
        assert similarity(pred, frame) > 0.99

    def test_moving_peak_extrapolated(self):
        frames = [bumps((16, 16), [(2.0 + t, 3.0 + t)], [1.0]) for t in range(4)]
        pred = predict_one(PeakTrackingPredictor(), frames)
        z, q = np.unravel_index(np.argmax(pred), pred.shape)
        assert (z, q) == (6, 7)

    def test_subpixel_velocity(self):
        frames = [
            bumps((16, 16), [(3.0 + 0.4 * t, 4.0 + 0.2 * t)], [1.0])
            for t in range(5)
        ]
        pred = predict_one(PeakTrackingPredictor(), frames)
        peak = frame_peaks(pred)[0]
        assert abs(peak.angle_bin - 5.0) < 0.15
        assert abs(peak.delay_bin - 5.0) < 0.15

    def test_amplitude_trend_extrapolated(self):
        amps = [1.0, 0.8, 0.6, 0.4]
        frames = [bumps((16, 16), [(5.0, 5.0)], [a]) for a in amps]
        pred = predict_one(PeakTrackingPredictor(), frames)
        assert pred[5, 5] == pytest.approx(0.2, abs=1e-9)

    def test_amplitude_clamped_at_zero(self):
        frames = [bumps((16, 16), [(5.0, 5.0)], [a]) for a in (1.0, 0.4)]
        pred = predict_one(PeakTrackingPredictor(), frames)
        assert np.all(pred == 0.0)

    def test_zero_history_gives_zero_frame(self):
        pred = PeakTrackingPredictor()(np.zeros((1, 3, 8, 8)))
        assert pred.shape == (1, 8, 8)
        assert np.all(pred == 0.0)

    def test_empty_history_raises(self):
        with pytest.raises(EmptyHistory):
            PeakTrackingPredictor()(np.zeros((1, 0, 8, 8)))
        with pytest.raises(EmptyHistory):
            PeakTrackingPredictor()(np.zeros((3, 0, 8, 8)))

    def test_stale_track_dropped(self):
        both = bumps((16, 16), [(3.0, 3.0), (10.0, 12.0)], [1.0, 0.8])
        only_a = bumps((16, 16), [(3.0, 3.0)], [1.0])
        pred = predict_one(PeakTrackingPredictor(),
                           [both, both, only_a, only_a, only_a])
        assert pred[3, 3] == pytest.approx(1.0, abs=1e-6)
        assert pred[10, 12] < 1e-8

    def test_single_miss_recovers(self):
        both = bumps((16, 16), [(3.0, 3.0), (10.0, 12.0)], [1.0, 0.8])
        only_a = bumps((16, 16), [(3.0, 3.0)], [1.0])
        pred = predict_one(PeakTrackingPredictor(), [both, both, only_a, both])
        assert pred[10, 12] == pytest.approx(0.8, abs=1e-6)

    def test_translation_equivariance(self):
        frames = [
            bumps((16, 16), [(2.25 + t, 3.5 + 0.25 * t), (9.0, 1.25)], [1.0, 0.5])
            for t in range(3)
        ]
        rolled = [np.roll(f, (5, 7), axis=(0, 1)) for f in frames]
        tracker = PeakTrackingPredictor()
        assert np.allclose(
            predict_one(tracker, rolled),
            np.roll(predict_one(tracker, frames), (5, 7), axis=(0, 1)),
            atol=1e-12,
        )

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        frames = rng.uniform(0, 1, size=(1, 4, 16, 16))
        tracker = PeakTrackingPredictor()
        assert np.array_equal(tracker(frames), tracker(frames))

    def test_mismatched_frame_shapes_raise(self):
        with pytest.raises(DimensionMismatch):
            PeakTrackingPredictor()([[np.zeros((8, 8)), np.zeros((8, 9))]])

    def test_beats_persistence_on_coarse_walks(self):
        # grid spacing comparable to one delay bin, so peaks move visibly
        grid = GridSpec(origin=(12.0, -24.0), spacing=6.0, n_rows=8, n_cols=8)
        tracker = PeakTrackingPredictor()
        wins = total = 0
        for s in range(10):
            walk = random_walk(grid, WalkMode.MODE2, 16, [7, s])
            adps = [adp_at(p) for p in walk.positions()]
            for t in range(4, len(adps)):
                history = adps[t - 4:t]
                pred_sim = similarity(predict_one(tracker, history), adps[t])
                stay_sim = similarity(history[-1], adps[t])
                wins += pred_sim > stay_sim
                total += 1
        assert wins / total >= 0.6

    def test_resynthesis_fidelity_single_path(self):
        rng = np.random.default_rng(0)
        sims = []
        for _ in range(30):
            r = rng.uniform(5, 80)
            theta = rng.uniform(0.2, np.pi - 0.2)
            a = adp_at((r * np.cos(theta), r * np.sin(theta)))
            peaks = frame_peaks(a)
            centers = np.array([(p.angle_bin, p.delay_bin) for p in peaks])
            amps = np.array([p.amplitude for p in peaks])
            sims.append(similarity(
                a, oracles.gaussian_profile(a.shape, centers, amps, 0.5)))
        assert np.mean(sims) > 0.9
        assert np.min(sims) > 0.8


MULTIPATH = Environment(
    bs_position=(0.0, 0.0),
    reflectors=(Reflector((2.0, 4.0), (12.0, 4.0), 0.9),
                Reflector((12.0, -6.0), (12.0, 6.0), 0.85)),
)


def assert_same_peaks(frames, values):
    """``detect_peaks`` of an (F, n_t, n_c) stack is the reference's peak
    list of each frame, padded with NaN, to the bit."""
    lists = [oracles.detect_peaks(f, values["max_peaks"],
                                  values["min_amplitude"]) for f in frames]
    want = np.full((3, len(lists), max(map(len, lists), default=0)), np.nan)
    for row, peaks in enumerate(lists):
        want[:, row, :len(peaks)] = np.array(peaks, dtype=float).T.reshape(3, -1)
    assert np.array_equal(np.array(detect_peaks(frames)), want,
                          equal_nan=True)


def walk_frames(seed, env=MULTIPATH, length=16):
    grid = GridSpec(origin=(6.0, -2.0), spacing=0.5, n_rows=8, n_cols=8)
    walk = random_walk(grid, WalkMode.MODE2, length, [11, seed])
    return list(adp_from_csi(synthesize_csi(
        trace_paths(env, walk.positions(), ARRAY, OFDM), ARRAY, OFDM), DFT))


@pytest.mark.parametrize("predictor,dtype", [
    (PeakTrackingPredictor(), np.float64),
    (ConvRecurrentPredictor(16, 16), np.float32)],
    ids=["peak-track", "conv-recurrent"])
def test_empty_stack_gives_empty_stack(predictor, dtype):
    # each predictor keeps its own precision: the learned one is float32
    got = predictor(np.zeros((0, 3, 16, 16)))
    assert got.shape == (0, 16, 16) and got.dtype == dtype


@pytest.mark.parametrize("predictor", [PeakTrackingPredictor(),
                                       ConvRecurrentPredictor(16, 16)],
                         ids=["peak-track", "conv-recurrent"])
def test_one_history_is_no_stack(predictor):
    history = np.zeros((4, 16, 16))
    for one in (history, list(history)):
        with pytest.raises(DimensionMismatch):
            predictor(one)


def moving_bump_stack(rng, n, frames):
    """n histories of moving, fading Gaussian bumps on 16x16; about a fifth
    of the frames rounded to 0.1 (plateaus, ties) and a twentieth zeroed."""
    stack = np.empty((n, frames, 16, 16))
    for history in stack:
        k = int(rng.integers(1, 5))
        start = rng.uniform(0.0, 16.0, size=(k, 2))
        velocity = rng.uniform(-1.5, 1.5, size=(k, 2))
        amps = rng.uniform(0.2, 1.0, size=k)
        fade = rng.uniform(-0.3, 0.3, size=k)
        sigma = float(rng.uniform(0.4, 1.2))
        for t, frame in enumerate(history):
            frame[:] = oracles.gaussian_profile(
                (16, 16), (start + velocity * t) % 16, np.abs(amps + fade * t),
                sigma)
            u = rng.uniform()
            if u < 0.2:
                frame[:] = np.round(frame, 1)
            elif u < 0.25:
                frame[:] = 0.0
    return stack


def assert_rows_match_reference(stack, **settings):
    """Each row of the tracker's prediction for ``stack`` is the
    reference's for its history, at the given settings."""
    got = PeakTrackingPredictor()(stack)
    assert got.shape == (len(stack),) + stack.shape[2:]
    reference = oracles.ReferencePeakTrackingPredictor(**settings)
    for row, history in zip(got, stack):
        assert row.tobytes() == reference(history).tobytes()


class TestMatchesReference:
    """The vectorized detector, the stacked tracker and the one-exp
    resynthesis against the forms they replaced, bit for bit."""

    @pytest.mark.parametrize("kwargs", [{}, {"gate": 1.0},
                                        {"max_misses": 1}, {"max_peaks": 3}])
    def test_random_stacks(self, kwargs, settings):
        values = settings(**kwargs)
        rng = np.random.default_rng(10)
        for _ in range(300):
            stack = moving_bump_stack(rng, int(rng.integers(1, 12)),
                                      int(rng.integers(1, 6)))
            assert_rows_match_reference(stack, **values)

    def test_equidistant_tracks(self):
        # a peak halfway between two tracks joins the one opened last
        rng = np.random.default_rng(11)
        stack = np.zeros((24, 3, 16, 16))
        for history in stack:
            z, q = rng.integers(0, 16, size=2)
            dz, dq = rng.choice([-2, -1, 0, 1, 2], size=2)
            if dz == dq == 0:
                dz = 1
            history[0, (z - dz) % 16, (q - dq) % 16] = rng.uniform(0.5, 1.0)
            history[0, (z + dz) % 16, (q + dq) % 16] = rng.uniform(0.5, 1.0)
            history[1:, z, q] = rng.uniform(0.5, 1.0)
        assert_rows_match_reference(stack[:, :2])
        assert_rows_match_reference(stack)
        two = np.zeros((2, 16, 16))
        two[0, 4, 4], two[0, 4, 8], two[1, 4, 6] = 1.0, 0.5, 0.8
        pred = predict_one(PeakTrackingPredictor(), two)
        # (4, 8) moved on to (4, 4), where the missed (4, 4) holds still
        assert pred[4, 4] == pytest.approx(1.1 + 1.0)
        assert pred[4, 8] < 1e-6

    def test_hypot_at_the_gate(self, settings):
        # A track at (4, 4) and, one frame later, a peak whose offset from
        # it np.hypot and math.hypot round apart. With the gate at the
        # smaller of the two, np.hypot alone would decide the match the
        # other way.
        rng = np.random.default_rng(12)
        traps = []
        while len(traps) < 12:
            a, b = rng.uniform(0.05, 0.95, size=2)
            later = np.zeros((16, 16))
            later[5, 6], later[6, 6], later[5, 7] = 1.0, a, b
            (peak,) = frame_peaks(later)
            dz = oracles._wrap(peak.angle_bin - 4.0, 16)
            dq = oracles._wrap(peak.delay_bin - 4.0, 16)
            fast, exact = float(np.hypot(dz, dq)), math.hypot(dz, dq)
            if fast != exact:
                traps.append((later, min(fast, exact)))
        first = np.zeros((16, 16))
        first[4, 4] = 1.0
        stack = np.stack([[first, later] for later, _ in traps])
        for later, gate in traps:
            assert_rows_match_reference(stack, **settings(gate=gate))

    @pytest.mark.parametrize("max_peaks, floor", [(8, 0.0), (3, 0.0),
                                                  (8, 0.2)])
    def test_detect_peaks_on_measured_profiles(self, max_peaks, floor,
                                               settings):
        frames = walk_frames(0) + [adp_at(p) for p in
                                   [(5.0, 1.0), (30.0, -20.0), (3.0, 9.0)]]
        for frame in frames:
            values = settings(max_peaks=max_peaks,
                              min_amplitude=floor * frame.max())
            assert frame_peaks(frame)
            assert_same_peaks(frame[None], values)

    @pytest.mark.parametrize("kwargs", [
        {}, {"max_peaks": 3}, {"min_amplitude": 0.5}])
    def test_detect_peaks_on_random_frames(self, kwargs, settings):
        values = settings(**kwargs)
        rng = np.random.default_rng(21)
        for _ in range(200):
            shape = tuple(int(n) for n in rng.integers(1, 18, size=2))
            frame = rng.uniform(0.0, 1.0, size=shape)
            # coarse levels make plateaus and ties between peaks
            assert_same_peaks(np.stack([frame, np.round(frame, 1)]), values)

    def test_detect_peaks_edge_cases(self, settings):
        wrapped = bumps((16, 16), [(0.3, 15.6), (15.7, 8.0), (8.0, 0.0)],
                        [1.0, 0.7, 0.4])
        plateau = np.zeros((8, 8))
        plateau[3, 5] = plateau[3, 6] = 1.0
        plateau[6, 1] = 0.5
        corners = np.zeros((6, 7))
        corners[0, 0] = corners[5, 6] = 2.0
        for frame in (wrapped, plateau, corners, np.zeros((8, 8)),
                      np.ones((1, 1)), np.zeros((0, 5)), np.zeros((5, 0))):
            for kwargs in ({}, {"max_peaks": 3}, {"min_amplitude": 0.45}):
                assert_same_peaks(frame[None], settings(**kwargs))
        settings()
        assert len(frame_peaks(wrapped)) == 3
        assert frame_peaks(np.zeros((8, 8))) == []

    def test_gaussian_profile(self):
        """Each image of ``gaussian_bumps`` is the reference profile of
        its one bump, to the bit."""
        rng = np.random.default_rng(22)
        for k in range(13):
            shape = tuple(int(n) for n in rng.integers(1, 20, size=2))
            centers = rng.uniform(-4.0, 24.0, size=(k, 2))
            amps = rng.uniform(0.0, 2.0, size=k)
            sigma = float(rng.uniform(0.3, 2.0))
            got = gaussian_bumps(shape, centers, amps, sigma)
            assert got.dtype == np.float64 and got.shape == (k, *shape)
            for image, center, amp in zip(got, centers, amps):
                assert np.array_equal(image, oracles.gaussian_profile(
                    shape, center[None], [amp], sigma))

    def test_tracker_reused_over_a_walk(self):
        frames = walk_frames(1, length=14)
        # a held position and a frame that comes back make windows that
        # repeat a frame
        frames[5] = frames[4].copy()
        frames[9] = frames[7].copy()
        reused = PeakTrackingPredictor()
        for t in range(1, len(frames)):
            window = frames[max(0, t - 4):t]
            pred = predict_one(reused, window)
            assert np.array_equal(
                pred, predict_one(PeakTrackingPredictor(), window))
            assert np.array_equal(
                pred, oracles.ReferencePeakTrackingPredictor()(window))
        odd = [frames[2], frames[3], frames[2], frames[2]]
        assert np.array_equal(predict_one(reused, odd),
                              predict_one(PeakTrackingPredictor(), odd))

    def test_memo_tells_shapes_apart(self):
        # the same bytes laid out as 8x8 and as 4x16 are different frames
        flat = bumps((8, 8), [(2.0, 3.0), (6.0, 6.0)], [1.0, 0.5]).ravel()
        tracker = PeakTrackingPredictor()
        tracker(flat.reshape(1, 1, 8, 8))
        tall = flat.reshape(1, 1, 4, 16)
        assert np.array_equal(tracker(tall), PeakTrackingPredictor()(tall))

    def test_stack_equals_single_predictions(self):
        frames = walk_frames(3, length=9)
        frames[6] = frames[2].copy()
        histories = np.stack([frames[i:i + 4] for i in range(6)])
        tracker = PeakTrackingPredictor()
        for _ in range(2):  # a second step is worked afresh
            got = tracker(histories)
            for row, history in zip(got, histories):
                want = oracles.ReferencePeakTrackingPredictor()(history)
                assert row.tobytes() == want.tobytes()

    def test_memo_takes_no_part_in_equality(self):
        used = PeakTrackingPredictor()
        used(bumps((8, 8), [(2.0, 3.0)], [1.0])[None, None])
        assert used == PeakTrackingPredictor()
        assert hash(used) == hash(PeakTrackingPredictor())
        assert repr(used) == repr(PeakTrackingPredictor())


def fit_config(epochs, learning_rate=0.2, seed=0):
    """Training settings for the predictor: batches of 8, as in a run."""
    return TrainConfig(epochs=epochs, batch_size=8,
                       learning_rate=learning_rate, seed=seed)


def moving_bump_sequences(n_seq=5, length=6, shape=(8, 8)):
    g = np.random.default_rng(3)
    seqs = []
    for _ in range(n_seq):
        z0, q0 = g.uniform(0, shape[0], 2)
        vz, vq = g.uniform(-1.0, 1.0, 2)
        frames = [
            bumps(shape, [((z0 + vz * t) % shape[0], (q0 + vq * t) % shape[1])],
                  [1.0], sigma=0.7)
            for t in range(length)
        ]
        seqs.append(np.stack(frames))
    return seqs


class TestConvRecurrent:
    def test_bptt_gradients_match_finite_differences(self):
        # float32 rounding of the loss would swamp a 1e-6 step, so the
        # check runs on float64 parameters and data; the BPTT buffers
        # follow the input's dtype
        model = ConvRecurrentPredictor(6, 5, hidden_channels=2, seed=1)
        for layer in (model._xh, model._hh, model._out):
            layer.w, layer.b = layer.w.astype(np.float64), layer.b.astype(
                np.float64)
        x = np.random.default_rng(4).uniform(0, 1, size=(2, 3, 6, 5))
        xcols = _step_columns(model, x)  # data: no parameter moves them
        _, grads = _loss_and_grads(model, x, xcols)
        for pi, p in enumerate(model.parameters()):
            flat = p.reshape(-1)
            for j in range(0, flat.size, max(flat.size // 5, 1)):
                old = flat[j]
                flat[j] = old + 1e-6
                lp, _ = _loss_and_grads(model, x, xcols)
                flat[j] = old - 1e-6
                lm, _ = _loss_and_grads(model, x, xcols)
                flat[j] = old
                fd = (lp - lm) / 2e-6
                an = grads[pi].reshape(-1)[j]
                assert abs(fd - an) <= 1e-5 * max(abs(fd) + abs(an), 1e-3)

    def test_overfits_moving_bumps(self):
        seqs = moving_bump_sequences()
        stacked = np.stack(seqs)
        stacked /= stacked.max()
        persistence_mse = float(np.mean((stacked[:, 1:] - stacked[:, :-1]) ** 2))
        model = ConvRecurrentPredictor(8, 8, hidden_channels=8, seed=0)
        losses = train_predictor(
            model, seqs, fit_config(200, learning_rate=1.0)
        )
        assert losses[-1] < 0.5 * losses[0]
        assert losses[-1] < persistence_mse

    def test_prediction_shape_and_scale(self):
        seqs = moving_bump_sequences()
        model = ConvRecurrentPredictor(8, 8, hidden_channels=4, seed=0)
        train_predictor(model, seqs, fit_config(5))
        assert model.scale == pytest.approx(float(np.stack(seqs).max()))
        pred = model.predict(seqs[0][None, :4])
        assert pred.shape == (1, 8, 8)
        assert np.all(pred >= 0.0)

    def test_training_leaves_its_input_alone(self):
        # a peak well above 1, so scaling the data in place would show
        seqs = 3.0 * np.stack(moving_bump_sequences(n_seq=3, length=4))
        before = seqs.copy()
        model = ConvRecurrentPredictor(8, 8, hidden_channels=2, seed=0)
        train_predictor(model, seqs, fit_config(2))
        assert model.scale > 1.0
        assert np.array_equal(seqs, before)

    def test_training_deterministic(self):
        seqs = moving_bump_sequences(n_seq=3, length=4)
        cfg = fit_config(10, seed=7)
        models = []
        for _ in range(2):
            m = ConvRecurrentPredictor(8, 8, hidden_channels=4, seed=2)
            train_predictor(m, seqs, cfg)
            models.append(m)
        for a, b in zip(models[0].parameters(), models[1].parameters()):
            assert np.array_equal(a, b)

    def test_diverged_loss(self):
        seqs = moving_bump_sequences(n_seq=2, length=4)
        model = ConvRecurrentPredictor(8, 8, hidden_channels=4, seed=0)
        # a float32 weight: large enough that the loss overflows
        model._out.w *= 1e30
        with pytest.raises(DivergedLoss):
            train_predictor(model, seqs, fit_config(3))

    def test_stack_equals_single_predictions(self):
        seqs = moving_bump_sequences(n_seq=9, length=6)
        model = ConvRecurrentPredictor(8, 8, hidden_channels=4, seed=0)
        train_predictor(model, seqs, fit_config(3))
        histories = np.stack(seqs)[:, :4]
        got = model(histories)
        assert got.shape == (9, 8, 8)
        for row, history in zip(got, histories):
            assert row.tobytes() == predict_one(model, history).tobytes()
        assert all(conv._cache is None
                   for conv in (model._xh, model._hh, model._out))

    def test_empty_history_raises(self):
        with pytest.raises(EmptyHistory):
            ConvRecurrentPredictor(8, 8)(np.zeros((1, 0, 8, 8)))
        with pytest.raises(EmptyHistory):
            ConvRecurrentPredictor(8, 8)(np.zeros((3, 0, 8, 8)))

    def test_wrong_frame_shape_raises(self):
        with pytest.raises(DimensionMismatch):
            ConvRecurrentPredictor(8, 8)(np.zeros((1, 1, 8, 9)))

    def test_mixed_sequence_lengths_raise(self):
        with pytest.raises(LengthMismatch):
            train_predictor(
                ConvRecurrentPredictor(8, 8),
                [np.zeros((4, 8, 8)), np.zeros((5, 8, 8))], fit_config(1),
            )

    def test_single_frame_sequences_raise(self):
        with pytest.raises(LengthMismatch):
            train_predictor(ConvRecurrentPredictor(8, 8),
                            [np.zeros((1, 8, 8))], fit_config(1))

    def test_no_sequences_raise(self):
        with pytest.raises(EmptyHistory):
            train_predictor(ConvRecurrentPredictor(8, 8), [], fit_config(1))

    def test_all_zero_training_set_keeps_unit_scale(self):
        model = ConvRecurrentPredictor(8, 8, hidden_channels=2, seed=0)
        losses = train_predictor(
            model, [np.zeros((3, 8, 8))], fit_config(3)
        )
        assert model.scale == 1.0
        assert np.all(np.isfinite(losses))


class TestCheckpoints:
    def test_conv_recurrent_round_trip(self, tmp_path):
        seqs = moving_bump_sequences(n_seq=2, length=4)
        model = ConvRecurrentPredictor(8, 8, hidden_channels=4, seed=3)
        train_predictor(model, seqs, fit_config(5))
        path = tmp_path / "pred.ckpt"
        save_predictor(model, path)
        loaded = load_predictor(path)
        again = tmp_path / "pred2.ckpt"
        save_predictor(loaded, again)
        assert path.read_bytes() == again.read_bytes()
        assert loaded.scale == model.scale
        history = seqs[0][None, :3]
        assert np.array_equal(loaded.predict(history), model.predict(history))

    def test_peak_tracker_has_no_checkpoint(self, tmp_path):
        path = tmp_path / "tracker.ckpt"
        with pytest.raises(FormatError, match="PeakTrackingPredictor"):
            save_predictor(PeakTrackingPredictor(), path)
        assert not path.exists()

    def test_peak_track_header_is_unknown(self, tmp_path):
        # the header an earlier version wrote for the tracker
        header = {"kind": "peak-track", "max_peaks": 8, "gate": 3.0,
                  "max_misses": 2, "sigma": 0.5, "min_amplitude": 0.0}
        path = tmp_path / "tracker.ckpt"
        write_checkpoint(path, PREDICTOR_MAGIC, PREDICTOR_VERSION, header, [])
        with pytest.raises(FormatError, match="peak-track"):
            load_predictor(path)

    @pytest.mark.parametrize("field, value", [
        ("max_peaks", -1), ("max_misses", 0), ("gate", None), ("gate", -3.0),
        ("sigma", 0.0)])
    def test_tracker_header_out_of_range(self, tmp_path, field, value):
        # a tracker header is an unknown kind, whatever its fields hold
        header = {"kind": "peak-track", "max_peaks": 8, "gate": 3.0,
                  "max_misses": 2, "sigma": 0.5, "min_amplitude": 0.0}
        path = tmp_path / "tracker.ckpt"
        write_checkpoint(path, PREDICTOR_MAGIC, PREDICTOR_VERSION,
                         dict(header, **{field: value}), [])
        with pytest.raises(FormatError, match="peak-track"):
            load_predictor(path)

    @pytest.mark.parametrize("field, value", [
        ("scale", "abc"), ("scale", 0), ("scale", -1.0), ("scale", None),
        ("hidden_channels", 0), ("n_antennas", 0), ("n_subcarriers", 2.5),
        ("n_antennas", True), ("seed", True)])
    def test_recurrent_header_out_of_range(self, tmp_path, field, value):
        model = ConvRecurrentPredictor(4, 4, hidden_channels=2, seed=0)
        path = tmp_path / "recurrent.ckpt"
        write_checkpoint(path, PREDICTOR_MAGIC, PREDICTOR_VERSION,
                         dict(model.spec(), **{field: value}),
                         model.parameters())
        with pytest.raises(FormatError, match=field):
            load_predictor(path)

    @pytest.mark.parametrize("hidden,k", [(1, 1), (2, 3), (8, 3), (3, 5)])
    def test_weight_count_is_the_parameter_count(self, hidden, k):
        # the count load_predictor checks before it builds anything
        model = ConvRecurrentPredictor(4, 4, hidden_channels=hidden,
                                       kernel_size=k)
        assert predictor_module._weight_count(hidden, k) == sum(
            p.size for p in model.parameters())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"JUNK" + bytes(8))
        with pytest.raises(FormatError):
            load_predictor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        save_predictor(ConvRecurrentPredictor(4, 4, hidden_channels=2), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            load_predictor(path)

    def test_truncated_weights(self, tmp_path):
        model = ConvRecurrentPredictor(8, 8, hidden_channels=2, seed=0)
        path = tmp_path / "trunc.ckpt"
        save_predictor(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(TruncatedFile):
            load_predictor(path)

    def test_trailing_bytes(self, tmp_path):
        model = ConvRecurrentPredictor(8, 8, hidden_channels=2, seed=0)
        path = tmp_path / "extra.ckpt"
        save_predictor(model, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            load_predictor(path)
