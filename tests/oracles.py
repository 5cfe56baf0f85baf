"""Independent reference implementations used to freeze expected values.

Most of this is written directly from the interface contracts with scalar
arithmetic, deliberately not reusing the package's vectorized code. The
reference layers and ``baseline_track`` are earlier, plainer forms of
package code, kept as the references their replacements must match bit
for bit.
"""

import cmath
import math

import numpy as np

from mimoloc.neural import Conv2d, MaxPool2x2


def direct_adp(csi: np.ndarray) -> np.ndarray:
    """Angle-delay image evaluated index by index from the definition."""
    n_t, n_c = csi.shape
    # scalar-built transform tables: conj(V[ant, z]) and F[l, q]
    vconj = [
        [
            cmath.exp(2j * math.pi * ant * (z - n_t / 2) / n_t) / math.sqrt(n_t)
            for z in range(n_t)
        ]
        for ant in range(n_t)
    ]
    f = [
        [cmath.exp(2j * math.pi * l * q / n_c) / math.sqrt(n_c) for q in range(n_c)]
        for l in range(n_c)
    ]
    out = np.zeros((n_t, n_c))
    for z in range(n_t):
        for q in range(n_c):
            acc = 0j
            for ant in range(n_t):
                vz = vconj[ant][z]
                for l in range(n_c):
                    acc += vz * csi[ant, l] * f[l][q]
            out[z, q] = abs(acc)
    return out


def reflect_across_line(p, a, b):
    """Mirror image of point p across the infinite line through a and b."""
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    fx, fy = ax + t * dx, ay + t * dy
    return (2 * fx - px, 2 * fy - py)


def wknn_centroid(positions, similarities):
    """Similarity-weighted centroid computed with plain Python sums."""
    total = float(sum(similarities))
    xs = sum(w * p[0] for w, p in zip(similarities, positions)) / total
    ys = sum(w * p[1] for w, p in zip(similarities, positions)) / total
    return (xs, ys)


def classifier_cell(position, extent, n_rows, n_cols):
    """Row-major cell of a point: truncate toward zero, then clamp."""
    x0, y0, x1, y1 = extent
    dx = (x1 - x0) / n_cols if x1 > x0 else 1.0
    dy = (y1 - y0) / n_rows if y1 > y0 else 1.0
    col = min(int((position[0] - x0) / dx), n_cols - 1)
    row = min(int((position[1] - y0) / dy), n_rows - 1)
    return max(0, row) * n_cols + max(0, col)


class ReferenceConv2d(Conv2d):
    """Conv2d by ``np.pad`` plus a ``sliding_window_view`` im2col copy."""

    def forward(self, x):
        k = self.kernel_size
        lo, hi = (0, 0) if self.padding == "valid" else ((k - 1) // 2, k // 2)
        xp = np.pad(x, ((0, 0), (0, 0), (lo, hi), (lo, hi)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        b, c, ho, wo = win.shape[:4]
        cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho, wo, c * k * k)
        wmat = self.w.reshape(self.out_channels, -1)
        y = cols @ wmat.T + self.b
        self._cache = (xp.shape, (lo, hi), cols)
        return y.transpose(0, 3, 1, 2)

    def backward(self, grad):
        xp_shape, (lo, hi), cols = self._cache
        k = self.kernel_size
        b, _, ho, wo = grad.shape
        gt = grad.transpose(0, 2, 3, 1)
        wmat = self.w.reshape(self.out_channels, -1)
        self.gw = np.tensordot(gt, cols, axes=([0, 1, 2], [0, 1, 2])).reshape(
            self.w.shape
        )
        self.gb = gt.sum(axis=(0, 1, 2))
        dcols = (gt @ wmat).reshape(b, ho, wo, xp_shape[1], k, k)
        dxp = np.zeros(xp_shape)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + ho, j:j + wo] += dcols[:, :, :, :, i, j].transpose(
                    0, 3, 1, 2
                )
        h, w = xp_shape[2] - lo - hi, xp_shape[3] - lo - hi
        return dxp[:, :, lo:lo + h, lo:lo + w]


class ReferenceMaxPool2x2(MaxPool2x2):
    """MaxPool2x2 by ``argmax`` over copied-out windows."""

    def forward(self, x):
        b, c, h, w = x.shape
        h2, w2 = h // 2, w // 2
        wins = (
            x[:, :, : h2 * 2, : w2 * 2]
            .reshape(b, c, h2, 2, w2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, h2, w2, 4)
        )
        idx = wins.argmax(axis=-1)
        y = np.take_along_axis(wins, idx[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, idx)
        return y

    def backward(self, grad):
        x_shape, idx = self._cache
        b, c, h, w = x_shape
        h2, w2 = h // 2, w // 2
        dwins = np.zeros((b, c, h2, w2, 4))
        np.put_along_axis(dwins, idx[..., None], grad[..., None], axis=-1)
        dx = np.zeros(x_shape)
        dx[:, :, : h2 * 2, : w2 * 2] = (
            dwins.reshape(b, c, h2, w2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, h2 * 2, w2 * 2)
        )
        return dx


def baseline_track(localizer, adps, fallback):
    """Localize every frame with a nonzero profile; a lost-link frame holds
    the previous fix, or ``fallback`` before any fix."""
    positions = []
    last = None
    for adp in adps:
        if np.any(adp):
            last = np.asarray(localizer(adp), dtype=float)
        elif last is None:
            last = np.asarray(fallback, dtype=float)
        positions.append(last)
    return np.stack(positions)
