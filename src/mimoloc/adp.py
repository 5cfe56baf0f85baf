"""Angle-delay profile transform and similarity.

A CSI matrix H maps to the nonnegative image A = |V^H H F| where V and F
are scaled DFT bases over the antenna and subcarrier axes. V carries a
half-aperture index offset so broadside arrivals land in the middle angle
row; F uses a positive exponent so a path with sampled delay n peaks in
column n. Both factors are unitary, hence the transform preserves
Frobenius energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroAdp, check_int


@dataclass(frozen=True)
class DftPair:
    """Precomputed transform factors for one (n_antennas, n_subcarriers)."""

    v: np.ndarray
    f: np.ndarray

    @property
    def n_antennas(self) -> int:
        return self.v.shape[0]

    @property
    def n_subcarriers(self) -> int:
        return self.f.shape[0]


def build_dft_pair(n_antennas: int, n_subcarriers: int) -> DftPair:
    """Build the unitary angle / delay DFT factors.

    V[z, q] = exp(-2j*pi*z*(q - n_antennas/2)/n_antennas) / sqrt(n_antennas)
    F[z, q] = exp(+2j*pi*z*q/n_subcarriers) / sqrt(n_subcarriers)

    Raises ValueError unless both dimensions are integers of at least 1.
    """
    check_int("n_antennas", n_antennas)
    check_int("n_subcarriers", n_subcarriers)
    z_t = np.arange(n_antennas)[:, None]
    q_t = np.arange(n_antennas)[None, :]
    v = np.exp(-2j * np.pi * z_t * (q_t - n_antennas / 2.0) / n_antennas)
    v /= np.sqrt(n_antennas)
    z_c = np.arange(n_subcarriers)[:, None]
    q_c = np.arange(n_subcarriers)[None, :]
    f = np.exp(2j * np.pi * z_c * q_c / n_subcarriers) / np.sqrt(n_subcarriers)
    return DftPair(v=v, f=f)


def adp_from_csi(csi: np.ndarray, dft: DftPair) -> np.ndarray:
    """Angle-delay profile |V^H @ csi @ F| as a float64 image.

    Rows index angle bins, columns index delay bins. Unitarity of both
    factors makes the Frobenius norm of the output equal that of the input.
    A stack of n CSI matrices gives the n profiles; the stacked product is
    the same to the bit as one matrix at a time.

    Raises:
        DimensionMismatch: if csi shape disagrees with the transform pair.
    """
    expected = (dft.n_antennas, dft.n_subcarriers)
    if csi.shape[-2:] != expected or csi.ndim not in (2, 3):
        raise DimensionMismatch(f"csi shape {csi.shape}, expected {expected}")
    return np.abs(dft.v.conj().T @ csi @ dft.f)


def gaussian_bumps(shape: tuple[int, int], centers: np.ndarray,
                   amplitudes: np.ndarray, sigma: float) -> np.ndarray:
    """Isotropic Gaussian bumps on a cyclic angle-delay canvas, one image
    per center.

    Both axes are DFT bins, so distances wrap: a bump near an edge spills
    onto the opposite edge. ``centers`` is a (k, 2) array in (row, col)
    bin coordinates, subpixel allowed, and ``amplitudes`` a (k,) array;
    returns (k, n_t, n_c) float64.
    """
    n_t, n_c = shape
    cz, cq = centers.T
    dz = (np.arange(n_t)[None, :, None] - cz[:, None, None] + n_t / 2.0) \
        % n_t - n_t / 2.0
    dq = (np.arange(n_c)[None, None, :] - cq[:, None, None] + n_c / 2.0) \
        % n_c - n_c / 2.0
    return amplitudes[:, None, None] * np.exp(
        -(dz * dz + dq * dq) / (2.0 * sigma * sigma))


def similarity(a: np.ndarray, b: np.ndarray):
    """Normalized correlation between angle-delay profiles.

    Defined as <vec(a), vec(b)> / (||a||_F * ||b||_F), which lands in
    [0, 1] for nonnegative images; the result is clipped to that interval
    to shed floating-point spill.

    ``b`` is either one profile shaped like ``a``, giving a float, or a
    stack of n such profiles, giving the n similarities as a float64
    array from a single matrix-vector product.

    Raises:
        ZeroAdp: if ``a`` or any profile in ``b`` has zero Frobenius norm
            (the lost-link signal upstream).
        DimensionMismatch: on shape disagreement.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if b.shape[b.ndim - a.ndim:] != a.shape or b.ndim - a.ndim not in (0, 1):
        raise DimensionMismatch(f"profile shapes {a.shape} vs {b.shape}")
    av = np.asarray(a, dtype=np.float64).ravel()
    bm = np.asarray(b, dtype=np.float64).reshape(-1, av.size)
    na = np.linalg.norm(av)
    nb = np.linalg.norm(bm, axis=1)
    if na == 0.0 or np.any(nb == 0.0):
        raise ZeroAdp("similarity against an all-zero profile")
    sims = np.clip(bm @ av / (na * nb), 0.0, 1.0)
    return float(sims[0]) if b.ndim == a.ndim else sims


def stacked_similarity(frames, rows, row_norms) -> np.ndarray:
    """``similarity`` of each of g frames against its own k rows.

    ``frames`` is (g, D) float64, one flattened profile per row; ``rows``
    is (g, k, D) float64, k rows for each frame, or (k, D) shared by every
    frame; ``row_norms`` holds the rows' norms, (g, k) or (k,), taken as
    ``similarity`` takes them (``FingerprintDb.norms`` for database
    prints). Each frame's k rows are one matrix-vector product of the stack, so row j
    of the (g, k) result is bit for bit ``similarity(frames[j], rows[j])``
    (tests/test_numerics.py pins the identities this rests on).

    Raises:
        ZeroAdp: if a frame or a row has zero norm.
    """
    # np.linalg.norm of one vector is sqrt(x.dot(x)), as similarity takes it
    frame_norms = np.sqrt([f.dot(f) for f in frames])
    if np.any(frame_norms == 0.0) or np.any(row_norms == 0.0):
        raise ZeroAdp("similarity against an all-zero profile")
    dots = (rows @ frames[:, :, None])[:, :, 0]
    return np.clip(dots / (frame_norms[:, None] * row_norms), 0.0, 1.0)
