"""Numeric identities the stacked scoring kernel and the layers rely on.

Detection, recovery, the threshold calibration and the classifier's
refinement score a stack of frames at once, and the reports stay bit for
bit those of scoring one frame at a time only because numpy and the BLAS
under it give these equalities. A numpy or BLAS change that breaks one of
them fails here, by name, before it shows up as a moved digest.
"""

import numpy as np
import pytest

from mimoloc.fingerprint import PRINT_BLOCK, FingerprintDb, GridSpec
from mimoloc.neural import Relu

KS = range(1, 131)  # list lengths, multiples of 4 and not
SIZES = (16, 64, 256)  # profile sizes of 4x4, 8x8 and 16x16


def prints(rng, *shape):
    """Nonnegative rows as the database stores them, widened to float64."""
    return rng.random(shape).astype(np.float32).astype(np.float64)


@pytest.mark.parametrize("size", SIZES)
def test_stacked_product_equals_each_rows_own_product(size):
    rng = np.random.default_rng(size)
    for k in KS:
        frames = rng.random((3, size))
        distinct = prints(rng, 3, k, size)
        shared = prints(rng, k, size)
        stacked = (distinct @ frames[:, :, None])[:, :, 0]
        broadcast = (shared @ frames[:, :, None])[:, :, 0]
        for j, frame in enumerate(frames):
            assert np.array_equal(stacked[j], distinct[j].copy() @ frame), k
            assert np.array_equal(broadcast[j], shared @ frame), k
            one = (distinct[j:j + 1] @ frame[None, :, None])[0, :, 0]
            assert np.array_equal(one, distinct[j].copy() @ frame), k


@pytest.mark.parametrize("size", SIZES)
def test_block_norms_equal_the_norms_of_any_subset(size):
    rng = np.random.default_rng(size)
    side = int(np.sqrt(size))
    grid = GridSpec(origin=(0.0, 0.0), spacing=1.0, n_rows=10, n_cols=20)
    adps = rng.random((grid.n_points, side, side)).astype(np.float32)
    assert grid.n_points > 2 * PRINT_BLOCK
    db = FingerprintDb(grid=grid, positions=grid.all_positions(), adps=adps)
    for n in (0, 1, 2, 5, 37, 130, grid.n_points):
        idx = np.sort(rng.choice(grid.n_points, size=n, replace=False))
        rows = db.adps[idx].astype(np.float64).reshape(n, size)
        assert np.array_equal(db.norms[idx], np.linalg.norm(rows, axis=1))


@pytest.mark.parametrize("size", SIZES)
def test_frame_norms_of_a_stack_equal_each_frames_own(size):
    frames = np.random.default_rng(size).random((7, size))
    norms = np.sqrt([f.dot(f) for f in frames])  # as stacked_similarity
    for frame, norm in zip(frames, norms):
        assert norm == np.linalg.norm(frame.copy())


def test_stacked_weighted_sums_equal_each_rows_own():
    rng = np.random.default_rng(3)
    for k in KS:
        w = rng.random((4, k))
        positions = rng.random((4, k, 2)) * 10.0
        fused = (w[:, None, :] @ positions)[:, 0]
        totals = w.sum(axis=-1)
        for j in range(len(w)):
            assert np.array_equal(fused[j], w[j].copy() @ positions[j]), k
            assert totals[j] == w[j].copy().sum(), k


def test_stacked_distances_equal_each_centers_own():
    rng = np.random.default_rng(4)
    points = rng.uniform(-5.0, 5.0, size=(300, 2))
    centers = rng.uniform(-5.0, 5.0, size=(9, 2))
    dx = points[:, 0] - centers[:, :1]  # as neighbors_each
    dy = points[:, 1] - centers[:, 1:]
    dist = np.sqrt(dx * dx + dy * dy)
    for center, row in zip(centers, dist):
        assert np.array_equal(row, np.linalg.norm(points - center, axis=1))


SPECIAL = np.array([np.nan, -np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324,
                    -5e-324, 1e-310, -1e-310, 1.0, -1.0])


@pytest.mark.parametrize("value", SPECIAL)
def test_relu_equals_where_at_every_position(value):
    # numpy's fmax keeps -0.0 in its scalar loop (short arrays and the
    # tail of long ones), so this covers every position up to 70
    relu = Relu()
    for n in range(1, 71):
        for p in range(n):
            x = np.ones(n)
            x[p] = value
            want = np.where(x > 0, x, 0.0)
            got = relu.forward(x, train=False)
            assert got.tobytes() == want.tobytes(), (n, p)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_relu_equals_where_on_a_batch_of_special_values():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((32, 8, 16, 16))
    x.flat[rng.choice(x.size, 4000, replace=False)] = np.resize(SPECIAL, 4000)
    for view in (x, x.transpose(0, 2, 3, 1), x[:, :, ::3]):
        want = np.where(view > 0, view, 0.0)
        got = Relu().forward(view, train=False)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))
