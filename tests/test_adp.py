"""Angle-delay transform: unitarity, peak placement, similarity."""

import math

import numpy as np
import pytest
from oracles import angle_bin_of_aoa, direct_adp

from mimoloc.adp import (
    adp_from_csi,
    build_dft_pair,
    gaussian_bumps,
    similarity,
)
from mimoloc.channel import ArrayConfig, OfdmConfig, synthesize_csi
from mimoloc.errors import DimensionMismatch, ZeroAdp

from test_channel import make_path, make_paths

ARRAY = ArrayConfig(n_antennas=16, wavelength=0.1)
OFDM = OfdmConfig(n_subcarriers=16, bandwidth=20e6)
DFT = build_dft_pair(16, 16)


class TestDftPair:
    def test_v_first_row_constant(self):
        np.testing.assert_allclose(DFT.v[0], np.full(16, 0.25), atol=1e-12)

    def test_both_factors_unitary(self):
        for m in (DFT.v, DFT.f):
            np.testing.assert_allclose(
                m.conj().T @ m, np.eye(16), atol=1e-12
            )

    def test_f_sign_convention(self):
        # hand value: F[1, 1] for 4 subcarriers is exp(2j*pi/4)/2 = j/2
        pair = build_dft_pair(4, 4)
        assert pair.f[1, 1] == pytest.approx(0.5j, abs=1e-12)

    @pytest.mark.parametrize("dims", [(0, 4), (4, 0), (2.5, 4), (4, 2.5),
                                      (4.0, 4), (True, 4)])
    def test_bad_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="n_antennas|n_subcarriers"):
            build_dft_pair(*dims)


class TestAdpFromCsi:
    def test_zero_csi_zero_profile(self):
        a = adp_from_csi(np.zeros((16, 16), dtype=complex), DFT)
        assert not np.any(a)

    def test_energy_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            a = adp_from_csi(h, DFT)
            assert np.linalg.norm(a) == pytest.approx(
                np.linalg.norm(h), rel=1e-9
            )

    def test_broadside_path_peak_position(self):
        # broadside aoa -> middle angle row; delay bin 5 -> column 5
        h = synthesize_csi(make_paths([make_path(aoa=math.pi / 2, sampled_delay=5)]),
                           ARRAY, OFDM)[0]
        a = adp_from_csi(h, DFT)
        assert np.unravel_index(np.argmax(a), a.shape) == (8, 5)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            a = adp_from_csi(h, build_dft_pair(8, 8))
            np.testing.assert_allclose(a, direct_adp(h), atol=1e-9)

    def test_single_path_argmax_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            aoa = rng.uniform(0.1, math.pi - 0.1)
            n = int(rng.integers(0, 16))
            h = synthesize_csi(make_paths([make_path(aoa=aoa, sampled_delay=n)]),
                               ARRAY, OFDM)[0]
            a = adp_from_csi(h, DFT)
            fast = np.unravel_index(np.argmax(a), a.shape)
            ref = direct_adp(h)
            slow = np.unravel_index(np.argmax(ref), ref.shape)
            assert fast == slow
            assert fast[1] == n

    def test_angle_bin_prediction(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(40):
            aoa = rng.uniform(0.1, math.pi - 0.1)
            u = 16 * (0.5 + ARRAY.element_spacing * math.cos(aoa) / ARRAY.wavelength)
            if abs(u - round(u)) > 0.4:  # skip near-ambiguous midpoints
                continue
            h = synthesize_csi(make_paths([make_path(aoa=aoa, sampled_delay=3)]),
                               ARRAY, OFDM)[0]
            a = adp_from_csi(h, DFT)
            row = np.unravel_index(np.argmax(a), a.shape)[0]
            assert row == angle_bin_of_aoa(
                aoa, 16, ARRAY.element_spacing, ARRAY.wavelength
            )
            checked += 1
        assert checked > 20

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            adp_from_csi(np.zeros((8, 16), dtype=complex), DFT)

    @pytest.mark.parametrize("shape", [(3, 8, 16), (2, 3, 16, 16), (16,)])
    def test_stack_shape_mismatch_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            adp_from_csi(np.zeros(shape, dtype=complex), DFT)

    def test_stack_equals_single_calls(self):
        rng = np.random.default_rng(10)
        h = rng.standard_normal((20, 16, 16)) + 1j * rng.standard_normal((20, 16, 16))
        a = adp_from_csi(h, DFT)
        assert a.shape == (20, 16, 16)
        for ai, hi in zip(a, h):
            assert np.array_equal(ai, adp_from_csi(hi, DFT))


class TestSimilarity:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 1, size=(16, 16))
        assert similarity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(0, 1, size=(16, 16))
        assert similarity(a, 2.0 * a) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports_zero(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        a[0, 0] = 1.0
        b[3, 3] = 2.0
        assert similarity(a, b) == 0.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = rng.uniform(0, 1, size=(8, 8))
            b = rng.uniform(0, 1, size=(8, 8))
            s = similarity(a, b)
            assert 0.0 <= s <= 1.0
            assert s == pytest.approx(similarity(b, a), abs=1e-12)

    def test_zero_profile_raises(self):
        a = np.ones((4, 4))
        with pytest.raises(ZeroAdp):
            similarity(a, np.zeros((4, 4)))
        with pytest.raises(ZeroAdp):
            similarity(np.zeros((4, 4)), a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            similarity(np.ones((4, 4)), np.ones((4, 5)))


class TestStackedSimilarity:
    """A stack of profiles gives the scalar similarity of each row."""

    def test_matches_scalar_row_by_row(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(0, 1, size=(16, 16))
        stack = rng.uniform(0, 1, size=(40, 16, 16)).astype(np.float32)
        stack[3] = a  # self-similarity, clipped at one
        stack[5] = 0.0
        stack[5, 0, 0] = 1.0  # nearly disjoint support
        sims = similarity(a, stack)
        assert isinstance(sims, np.ndarray)
        assert sims.shape == (40,) and sims.dtype == np.float64
        for row, value in zip(stack, sims):
            assert abs(value - similarity(a, row)) <= 1e-12
            b = row.astype(np.float64)
            direct = np.sum(a * b) / math.sqrt(np.sum(a * a) * np.sum(b * b))
            assert abs(value - min(direct, 1.0)) <= 1e-12
        assert np.all((sims >= 0.0) & (sims <= 1.0))

    def test_single_profile_still_gives_a_float(self):
        a = np.ones((4, 4))
        assert type(similarity(a, 2.0 * a)) is float

    def test_empty_stack_gives_empty_array(self):
        assert similarity(np.ones((4, 4)), np.ones((0, 4, 4))).shape == (0,)

    def test_zero_row_raises(self):
        stack = np.ones((3, 4, 4))
        stack[1] = 0.0
        with pytest.raises(ZeroAdp):
            similarity(np.ones((4, 4)), stack)

    def test_zero_reference_raises(self):
        with pytest.raises(ZeroAdp):
            similarity(np.zeros((4, 4)), np.ones((3, 4, 4)))

    @pytest.mark.parametrize("shape", [(3, 4, 5), (3, 5, 4), (2, 3, 4, 4)])
    def test_shape_mismatch_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            similarity(np.ones((4, 4)), np.ones(shape))


class TestGaussianProfile:
    def test_peak_at_center(self):
        (img,) = gaussian_bumps((16, 16), np.array([[5.0, 9.0]]), np.array([2.0]), 0.7)
        assert np.unravel_index(np.argmax(img), img.shape) == (5, 9)
        assert img.max() == pytest.approx(2.0)

    def test_wraps_cyclically(self):
        (img,) = gaussian_bumps((16, 16), np.array([[0.0, 0.0]]), np.array([1.0]), 1.0)
        # mass spills across both edges symmetrically
        assert img[15, 0] == pytest.approx(img[1, 0], rel=1e-12)
        assert img[0, 15] == pytest.approx(img[0, 1], rel=1e-12)

    def test_empty_centers(self):
        empty = gaussian_bumps((8, 8), np.zeros((0, 2)), np.zeros(0), 0.7)
        assert empty.shape == (0, 8, 8)
