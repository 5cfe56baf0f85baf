"""Independent reference implementations used to freeze expected values.

Everything here is written directly from the interface contracts with
scalar arithmetic, deliberately not reusing the package's vectorized code.
"""

import cmath
import math

import numpy as np


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
