"""Independent reference implementations used to freeze expected values.

Most of this is written directly from the interface contracts with scalar
arithmetic, deliberately not reusing the package's vectorized code. The
reference layers, the trainers that prepare every batch on their own
(``train``, ``train_predictor``), ``baseline_track``, ``detect_peaks``,
``gaussian_profile``, the reference peak tracker, ``run_sequence``, the
one-frame database scoring (``calibrate_similarity_floor``,
``detect_distorted``, ``recover_and_locate``, ``classify_then_wknn``) and
the scalar channel (``trace_paths``, ``synthesize_csi``, ``build_db_adps``,
``distort``) are earlier, plainer forms of package code, kept as the
references their replacements must match bit for bit. The reference
convolution's input gradient is the exception: it sums in a fixed order
with an emulated fused multiply-add (``fma``), so that it does not hang
on the order in which a BLAS kernel happens to sum.
"""

import cmath
import logging
import math
from collections import deque, namedtuple
from dataclasses import dataclass

import numpy as np

from mimoloc.adp import similarity
from mimoloc.dynamics import DistortionKind
from mimoloc.errors import DelayOverflow, EmptyNeighborhood, ZeroDistance
from mimoloc.fingerprint import neighbor_indices_within
from mimoloc.neural import (
    Conv2d,
    MaxPool2x2,
    Softmax,
    WknnResult,
    forward,
    print_cells,
    training_data,
)
from mimoloc.pipeline import (
    VERDICTS,
    DetectionResult,
    Estimates,
    RecoveryResult,
    Verdict,
)
from mimoloc.predictor import (
    GATE,
    MAX_MISSES,
    MAX_PEAKS,
    MIN_AMPLITUDE,
    SIGMA,
    _as_frame_array,
    _clone_conv,
)


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


def _two_sum(a, b):
    """s = a + b rounded, and the exact error of that rounding."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_product(a, b):
    """p = a * b rounded, and its exact error (Veltkamp's split)."""
    p = a * b
    ah = a * 134217729.0
    ah -= ah - a
    bh = b * 134217729.0
    bh -= bh - b
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _round_to_odd(s, err):
    """``s`` rounded to odd, given the error ``err`` of its rounding: where
    it is inexact and its last bit is even, the neighbor toward
    ``s + err``."""
    even = (s.view(np.int64) & 1) == 0
    return np.where((err != 0.0) & even, np.nextafter(s, s + err), s)


def fma(a, b, c):
    """``a * b + c`` rounded once, elementwise, as a fused multiply-add
    rounds it, in float32 or float64 by numpy's promotion of the three.

    A float32 product is exact in float64, and the sum rounded to odd in
    float64 then rounds to float32 as the exact sum would. A float64 one
    is Boldo and Melquiond's emulation: the exact product and the sum's
    exact error, their low parts summed and rounded to odd, then one
    rounding of the whole. Both hold for operands that neither overflow
    nor underflow.
    """
    dtype = np.result_type(a, b, c)
    a, b, c = (np.asarray(v, dtype=np.float64) for v in (a, b, c))
    if dtype == np.float32:
        return _round_to_odd(*_two_sum(a * b, c)).astype(np.float32)
    uh, ul = _two_product(a, b)
    th, tl = _two_sum(c, uh)
    return th + _round_to_odd(*_two_sum(tl, ul))


class ReferenceConv2d(Conv2d):
    """Conv2d by ``np.pad`` plus a ``sliding_window_view`` im2col copy,
    made C-contiguous as the layer's own columns are (at k = 1 the reshape
    alone is a strided view, which a one-column product sums in another
    order). It keeps its cache whether or not it trains.

    Its input gradient fixes the summation order: each output pixel's
    column gradient is a chain of fused multiply-adds over the output
    channels in order, from +0.0, as a BLAS kernel that sums them in order
    computes it, and each input pixel adds its taps' values in (row,
    column) order. So it does not depend on the gradient's memory layout
    at any dtype or width."""

    def columns(self, x):
        k = self.kernel_size
        lo, hi = (0, 0) if self.padding == "valid" else ((k - 1) // 2, k // 2)
        xp = np.pad(x, ((0, 0), (0, 0), (lo, hi), (lo, hi)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        b, c, ho, wo = win.shape[:4]
        return np.ascontiguousarray(
            win.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho, wo, c * k * k))

    def forward(self, x, train=True):
        cols = self.columns(x)
        wmat = self.w.reshape(self.out_channels, -1)
        y = cols @ wmat.T + self.b
        self._cache = cols
        return y.transpose(0, 3, 1, 2)

    def backward(self, grad, input_grad=True):
        # always computes the input gradient, as the old layer did; a
        # caller that passes input_grad=False discards it
        cols = self._cache
        k = self.kernel_size
        lo, hi = (0, 0) if self.padding == "valid" else ((k - 1) // 2, k // 2)
        b, _, ho, wo = grad.shape
        c = cols.shape[3] // (k * k)
        xp_shape = (b, c, ho + k - 1, wo + k - 1)
        gt = grad.transpose(0, 2, 3, 1)
        wmat = self.w.reshape(self.out_channels, -1)
        self.gw = np.tensordot(gt, cols, axes=([0, 1, 2], [0, 1, 2])).reshape(
            self.w.shape
        )
        self.gb = gt.sum(axis=(0, 1, 2))
        dcols = np.zeros((b, ho, wo, c * k * k), np.result_type(gt, wmat))
        for o in range(self.out_channels):
            dcols = fma(gt[..., o:o + 1], wmat[o], dcols)
        dcols = dcols.reshape(b, ho, wo, c, k, k)
        dxp = np.zeros(xp_shape, dtype=dcols.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + ho, j:j + wo] += dcols[:, :, :, :, i, j].transpose(
                    0, 3, 1, 2
                )
        h, w = xp_shape[2] - lo - hi, xp_shape[3] - lo - hi
        return dxp[:, :, lo:lo + h, lo:lo + w]


class ReferenceMaxPool2x2(MaxPool2x2):
    """MaxPool2x2 by ``argmax`` over copied-out windows. It keeps its cache
    whether or not it trains."""

    def forward(self, x, train=True):
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
        dwins = np.zeros((b, c, h2, w2, 4), dtype=grad.dtype)
        np.put_along_axis(dwins, idx[..., None], grad[..., None], axis=-1)
        dx = np.zeros(x_shape, dtype=grad.dtype)
        dx[:, :, : h2 * 2, : w2 * 2] = (
            dwins.reshape(b, c, h2, w2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, h2 * 2, w2 * 2)
        )
        return dx


# --- the trainers before their column cache --------------------------------

def _loss_and_grad(model, x, y):
    out = model.forward_batch(x)
    b = len(x)
    if model.head.kind == "regression":
        diff = out - y
        loss = float(np.sum(diff * diff) / b)
        model.backward_batch(2.0 * diff / b)
    else:
        p = out
        loss = float(-np.mean(np.log(p[np.arange(b), y] + 1e-12)))
        grad_logits = p.copy()
        grad_logits[np.arange(b), y] -= 1.0
        grad_logits /= b
        assert isinstance(model.layers[-1], Softmax)
        model.backward_batch(grad_logits, skip_top=1)
    return loss


def train(model, db, cfg):
    """``neural.train`` with every batch normalized, and its first layer's
    columns built, on its own by ``Model.forward_batch``."""
    extent = db.grid.extent()
    model.pos_offset = np.array([extent[0], extent[1]])
    model.pos_scale = np.array(
        [max(extent[2] - extent[0], 1e-12), max(extent[3] - extent[1], 1e-12)]
    )
    x, y = training_data(model, db)
    n = len(x)
    rng = np.random.default_rng(cfg.seed)
    velocity = [np.zeros_like(p) for p in model.parameters()]
    curve = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            sel = perm[start:start + cfg.batch_size]
            loss = _loss_and_grad(model, x[sel], y[sel])
            total += loss * len(sel)
            for p, g, v in zip(model.parameters(), model.gradients(),
                               velocity):
                if cfg.momentum > 0.0:
                    v *= cfg.momentum
                    v -= cfg.learning_rate * g
                    p += v
                else:
                    p -= cfg.learning_rate * g
        curve.append(total / n)
    return curve


def _predictor_loss_and_grads(model, x):
    # every layer builds its own columns at every step, the input layer
    # from that step's frames
    b, t_len, n_t, n_c = x.shape
    h = np.zeros((b, model.hidden_channels, n_t, n_c), dtype=x.dtype)
    steps = []
    preds = np.empty((b, t_len - 1, n_t, n_c), dtype=x.dtype)
    for t in range(t_len - 1):
        xh, hh, out = (_clone_conv(model._xh), _clone_conv(model._hh),
                       _clone_conv(model._out))
        h = np.tanh(xh.forward(x[:, t][:, None]) + hh.forward(h))
        pre_out = x[:, t][:, None] + out.forward(h)
        preds[:, t] = np.maximum(pre_out, 0.0)[:, 0]
        steps.append((xh, hh, out, h, pre_out))
    diff = preds - x[:, 1:]
    loss = float(np.mean(diff * diff))
    gpred = 2.0 * diff / diff.size
    grads = [np.zeros_like(p) for p in model.parameters()]
    gh_next = np.zeros_like(h)
    for t in reversed(range(t_len - 1)):
        xh, hh, out, h_t, pre_out = steps[t]
        g_out = gpred[:, t][:, None] * (pre_out > 0.0)
        gh = out.backward(g_out) + gh_next
        gpre = gh * (1.0 - h_t * h_t)
        xh.backward(gpre, input_grad=False)
        gh_next = hh.backward(gpre)
        for acc, g in zip(grads, [xh.gw, xh.gb, hh.gw, hh.gb, out.gw, out.gb]):
            acc += g
    return loss, grads


def train_predictor(model, sequences, config):
    """``predictor.train_predictor`` with the input layer's columns built
    at every step of every batch."""
    data = _as_frame_array(sequences)
    peak = float(data.max())
    model.scale = peak if peak > 0.0 else 1.0
    data /= model.scale
    n = len(data)
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    velocity = [np.zeros_like(p) for p in params]
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            sel = perm[start:start + config.batch_size]
            loss, grads = _predictor_loss_and_grads(model, data[sel])
            total += loss * len(sel)
            for i, (p, g) in enumerate(zip(params, grads)):
                if config.momentum > 0.0:
                    velocity[i] = config.momentum * velocity[i] \
                        - config.learning_rate * g
                    p += velocity[i]
                else:
                    p -= config.learning_rate * g
        history.append(total / n)
    return history


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


def angle_bin_of_aoa(aoa: float, n_antennas: int, element_spacing: float,
                     wavelength: float) -> int:
    """Nearest angle row for an arrival angle, matching the V convention.

    The continuous bin coordinate is n_antennas*(1/2 + d*cos(aoa)/wavelength);
    broadside therefore maps to row n_antennas/2.
    """
    u = n_antennas * (0.5 + element_spacing * np.cos(aoa) / wavelength)
    return int(round(u)) % n_antennas


# one local maximum, with subpixel bin coordinates
Peak = namedtuple("Peak", "angle_bin delay_bin amplitude")


def detect_peaks(adp, max_peaks=MAX_PEAKS, min_amplitude=MIN_AMPLITUDE):
    """``predictor.detect_peaks`` of one frame, as a list of ``Peak``s, by
    ``np.roll`` and a scalar 3x3 centroid."""
    a = np.asarray(adp, dtype=np.float64)
    n_t, n_c = a.shape
    is_max = a > min_amplitude
    for dz in (-1, 0, 1):
        for dq in (-1, 0, 1):
            if dz == 0 and dq == 0:
                continue
            is_max &= a > np.roll(a, (dz, dq), axis=(0, 1))
    peaks = []
    for z, q in zip(*np.nonzero(is_max)):
        num_z = num_q = den = 0.0
        for dz in (-1, 0, 1):
            for dq in (-1, 0, 1):
                w = a[(z + dz) % n_t, (q + dq) % n_c]
                den += w
                num_z += w * dz
                num_q += w * dq
        peaks.append(
            Peak(
                (z + num_z / den) % n_t,
                (q + num_q / den) % n_c,
                float(a[z, q]),
            )
        )
    peaks.sort(key=lambda p: (-p.amplitude, p.angle_bin, p.delay_bin))
    return peaks[:max_peaks]


def gaussian_profile(shape, centers, amplitudes, sigma):
    """Sum of isotropic Gaussian bumps on a cyclic canvas, one ``exp`` per
    bump, added in order: the reference for ``adp.gaussian_bumps`` image
    by image and for the tracker's resynthesis."""
    n_t, n_c = shape
    out = np.zeros(shape, dtype=np.float64)
    if len(centers) == 0:
        return out
    rows = np.arange(n_t)[:, None]
    cols = np.arange(n_c)[None, :]
    for (cz, cq), amp in zip(np.atleast_2d(centers), np.ravel(amplitudes)):
        dz = (rows - cz + n_t / 2.0) % n_t - n_t / 2.0
        dq = (cols - cq + n_c / 2.0) % n_c - n_c / 2.0
        out += amp * np.exp(-(dz * dz + dq * dq) / (2.0 * sigma * sigma))
    return out


def _wrap(delta, period):
    return (delta + period / 2.0) % period - period / 2.0


@dataclass
class _Track:
    # coordinates are unwrapped so straight motion across the seam stays
    # straight; they are reduced mod the grid only at resynthesis time
    times: list
    zs: list
    qs: list
    amps: list
    misses: int = 0

    def last(self):
        return self.times[-1], self.zs[-1], self.qs[-1], self.amps[-1]


@dataclass(frozen=True)
class ReferencePeakTrackingPredictor:
    """PeakTrackingPredictor as a scalar loop over the histories of a
    stack, their frames, and the (peak, track) pairs of each frame. It
    also takes one history, and its settings are fields, so tests can
    compare the tracker at other values of its module constants."""

    max_peaks: int = MAX_PEAKS
    gate: float = GATE
    max_misses: int = MAX_MISSES
    sigma: float = SIGMA
    min_amplitude: float = MIN_AMPLITUDE

    def __call__(self, history):
        return self.predict(history)

    def predict(self, history):
        if getattr(history, "ndim", None) == 4:
            return np.stack([self.predict(h) for h in history])
        frames = [np.asarray(f, dtype=np.float64) for f in history]
        n_t, n_c = frames[0].shape
        tracks = self._build_tracks(frames, n_t, n_c)
        t_next = len(frames)
        centers, amps = [], []
        for tr in tracks:
            t_last, z, q, amp = tr.last()
            if len(tr.times) >= 2:
                span = tr.times[-1] - tr.times[0]
                dt = t_next - t_last
                z = z + (tr.zs[-1] - tr.zs[0]) / span * dt
                q = q + (tr.qs[-1] - tr.qs[0]) / span * dt
                amp = amp + (tr.amps[-1] - tr.amps[0]) / span * dt
            centers.append((z % n_t, q % n_c))
            amps.append(max(amp, 0.0))
        return gaussian_profile(
            (n_t, n_c), np.array(centers).reshape(-1, 2), np.array(amps),
            self.sigma)

    def _build_tracks(self, frames, n_t, n_c):
        tracks = []
        for t, frame in enumerate(frames):
            detected = detect_peaks(frame, self.max_peaks, self.min_amplitude)
            taken = set()
            n_existing = len(tracks)
            for peak in detected:
                best, best_dist = None, self.gate
                for i, tr in enumerate(tracks[:n_existing]):
                    if i in taken:
                        continue
                    dz = _wrap(peak.angle_bin - (tr.zs[-1] % n_t), n_t)
                    dq = _wrap(peak.delay_bin - (tr.qs[-1] % n_c), n_c)
                    dist = math.hypot(dz, dq)
                    if dist <= best_dist:
                        best, best_dist = i, dist
                if best is None:
                    tracks.append(
                        _Track([t], [peak.angle_bin], [peak.delay_bin],
                               [peak.amplitude])
                    )
                else:
                    taken.add(best)
                    tr = tracks[best]
                    dz = _wrap(peak.angle_bin - (tr.zs[-1] % n_t), n_t)
                    dq = _wrap(peak.delay_bin - (tr.qs[-1] % n_c), n_c)
                    tr.times.append(t)
                    tr.zs.append(tr.zs[-1] + dz)
                    tr.qs.append(tr.qs[-1] + dq)
                    tr.amps.append(peak.amplitude)
                    tr.misses = 0
            survivors = []
            for tr in tracks:
                if tr.times[-1] != t:
                    tr.misses += 1
                if tr.misses < self.max_misses:
                    survivors.append(tr)
            tracks = survivors
        return tracks


# --- database scoring, one frame at a time ---------------------------------
# each frame is scored with its own ``similarity`` call against the prints
# ``neighbor_indices_within`` lists for it

def calibrate_similarity_floor(db):
    """``pipeline.calibrate_similarity_floor``, one grid point at a time."""
    radius = 3.0 * db.grid.spacing
    maxima = []
    for i in np.flatnonzero(~db.zero_flags):
        idx = neighbor_indices_within(db, db.positions[i], radius)
        idx = idx[(idx != i) & ~db.zero_flags[idx]]
        if idx.size == 0:
            continue
        maxima.append(similarity(db.adps[i], db.adps[idx]).max())
    if not maxima:
        raise EmptyNeighborhood("no grid point has a neighbor within the radius")
    return float(np.percentile(maxima, 1.0))


def detect_distorted(adp, position, db, thresholds):
    """``pipeline.detect_distorted`` for one frame."""
    frame = np.asarray(adp, dtype=np.float64)
    if not np.any(frame):
        return DetectionResult(Verdict.LOST_LINK, 0.0)
    idx = neighbor_indices_within(db, position, thresholds.neighborhood_radius)
    idx = idx[~db.zero_flags[idx]]
    best = float(np.max(similarity(frame, db.adps[idx]), initial=0.0))
    verdict = (Verdict.ACCURATE if best >= thresholds.similarity_floor
               else Verdict.DISTORTED)
    return DetectionResult(verdict, best)


def recover_and_locate(measured, predicted, predicted_position,
                       prev_position, db, thresholds):
    """``pipeline.recover_and_locate`` for one frame."""
    frame = np.asarray(measured, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    has_prediction = predicted_position is not None
    if has_prediction:
        predicted_position = np.asarray(predicted_position, dtype=float)
    if not np.any(frame):
        if not has_prediction:
            raise EmptyNeighborhood(
                "link lost and the prediction out of history is empty"
            )
        return RecoveryResult(predicted_position, predicted, 1.0)
    idx = np.empty(0, dtype=int)
    if prev_position is not None:
        idx = neighbor_indices_within(db, prev_position,
                                      thresholds.recovery_radius)
        idx = idx[~db.zero_flags[idx]]
    positions = db.positions[idx]
    adps = db.adps[idx].astype(np.float64)
    weights = similarity(frame, adps)
    if has_prediction:
        weights = np.append(weights, similarity(frame, predicted))
        positions = np.vstack([positions, predicted_position])
        adps = np.concatenate([adps, predicted[None]])
    if not weights.size:
        raise EmptyNeighborhood(
            "no database entries near the previous position and no usable "
            "prediction"
        )
    total = float(weights.sum())
    if total > 0.0:
        weights /= total
    else:
        weights = np.full(weights.size, 1.0 / weights.size)
    position = np.einsum("i,ij->j", weights, positions)
    fused = np.einsum("i,ijk->jk", weights, adps)
    prediction_weight = float(weights[-1]) if has_prediction else 0.0
    return RecoveryResult(position, fused, prediction_weight)


def classify_then_wknn(model, adp, db, k=3, probs=None, cells=None):
    """``neural.classify_then_wknn`` for one profile."""
    if probs is None:
        probs = forward(model, adp)
    usable, cell_of_print = cells if cells is not None else print_cells(
        model, db)
    members = usable[cell_of_print == int(np.argmax(probs))]
    used_fallback = False
    if len(members) == 0:
        members = usable
        used_fallback = True
    sims = similarity(adp, db.adps[members])
    order = np.lexsort((members, -sims))[: min(k, len(members))]
    chosen = members[order]
    w = sims[order]
    total = w.sum()
    w = w / total if total > 0 else np.full(len(w), 1.0 / len(w))
    position = w @ db.positions[chosen]
    return WknnResult(position, chosen, w, used_fallback)


class ReferenceWknnLocalizer:
    """``neural.ClassifierWknnLocalizer`` refining one profile at a time
    with the reference ``classify_then_wknn``."""

    def __init__(self, localizer):
        self.model = localizer.model
        self.db, self.k = localizer.db, localizer.k

    def __call__(self, adp):
        adps = np.asarray(adp)
        probs = forward(self.model, adps)
        if adps.ndim == 2:
            return classify_then_wknn(self.model, adps, self.db, self.k,
                                      probs).position
        return np.stack([classify_then_wknn(self.model, a, self.db, self.k,
                                            p).position
                         for a, p in zip(adps, probs)])


def run_sequence(adps, localizer, db, thresholds, predictor,
                 history_length=4):
    """``pipeline.run_sequence`` over one walk, frame by frame: one
    localizer call per frame with energy and per nonzero prediction, one
    predictor call per history, on a stack of one, and the reference
    ``detect_distorted`` and ``recover_and_locate``. Returns the one-walk
    ``Estimates`` record."""
    history = deque(maxlen=history_length)
    prev_position = None
    frames = []  # one Estimates-ordered tuple of fields per frame
    for t, adp in enumerate(adps):
        fix = localizer(adp) if np.any(adp) else None
        det = detect_distorted(adp, fix, db, thresholds)
        predicted = predictor(np.stack(history)[None])[0] if history else None
        predicted_position = None
        if predicted is not None and np.any(predicted):
            predicted_position = localizer(predicted)
        weight = 0.0
        if det.verdict is Verdict.ACCURATE:
            position = fix
            history.append(np.asarray(adp, dtype=np.float64))
        elif not history:
            if det.verdict is Verdict.LOST_LINK:
                raise EmptyNeighborhood(
                    f"frame {t}: link lost before any usable frame"
                )
            position = fix
            history.append(np.asarray(adp, dtype=np.float64))
        else:
            rec = recover_and_locate(adp, predicted, predicted_position,
                                     prev_position, db, thresholds)
            position = rec.position
            history.append(rec.adp)
            weight = rec.prediction_weight
        frames.append((position, fix, predicted_position,
                       VERDICTS.index(det.verdict), det.best_similarity,
                       weight))
        prev_position = position
    fields = list(zip(*frames))

    def fixes(column):
        return np.array([(math.nan, math.nan) if p is None else p
                         for p in column], dtype=np.float64).reshape(1, -1, 2)

    return Estimates(*map(fixes, fields[:3]),
                     np.array([fields[3]], dtype=np.int8),
                     np.array([fields[4]], dtype=np.float64),
                     np.array([fields[5]], dtype=np.float64))


def walk_of(est, i):
    """Walk ``i`` of an ``Estimates`` record, as a one-walk record."""
    return Estimates(*(field[i:i + 1] for field in est))


def sources(est):
    """Each frame's source, derived from its verdict as ``Estimates``
    says: "measured" where accurate, "fallback" where an untrusted frame
    is first, "recovered" elsewhere."""
    accurate = est.verdict == VERDICTS.index(Verdict.ACCURATE)
    first = np.arange(est.verdict.shape[1]) == 0
    return np.where(accurate, "measured",
                    np.where(first, "fallback", "recovered"))


def assert_same_estimates(got, want):
    """Two ``Estimates`` records are equal field by field: the same dtype,
    shape and values, NaN matching NaN."""
    assert type(got) is type(want)
    for name, a, b in zip(want._fields, got, want):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=True), name


# --- the scalar channel: one position, one path, one blocker at a time ------

_channel_log = logging.getLogger("mimoloc.channel")


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _within_bbox(p, a, b):
    return (
        min(a[0], b[0]) - 1e-12 <= p[0] <= max(a[0], b[0]) + 1e-12
        and min(a[1], b[1]) - 1e-12 <= p[1] <= max(a[1], b[1]) + 1e-12
    )


def segments_intersect(p1, p2, q1, q2):
    """Closed segments p1-p2 and q1-q2 share a point; one pair at a time."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _within_bbox(p1, q1, q2):
        return True
    if d2 == 0 and _within_bbox(p2, q1, q2):
        return True
    if d3 == 0 and _within_bbox(q1, p1, p2):
        return True
    if d4 == 0 and _within_bbox(q2, p1, p2):
        return True
    return False


def _reflect_point(p, a, b):
    d = b - a
    t = float(np.dot(p - a, d) / np.dot(d, d))
    foot = a + t * d
    return 2.0 * foot - p


def _segment_blocked(env, a, b):
    return any(segments_intersect(a, b, blk.p1, blk.p2) for blk in env.blockers)


def _aoa_from_axis(env, direction):
    axis = np.array([math.cos(env.array_axis), math.sin(env.array_axis)])
    u = direction / np.linalg.norm(direction)
    return float(math.acos(max(-1.0, min(1.0, float(np.dot(axis, u))))))


# one path of a path list, named as the fields of ``channel.Paths``
Ray = namedtuple("Ray", "aoa sampled_delay gain length cluster")


def trace_paths(env, user_position, array, ofdm):
    """``channel.trace_paths`` for one position, ray by ray, as a list."""
    user = np.asarray(user_position, dtype=float)
    bs = np.asarray(env.bs_position, dtype=float)
    if np.array_equal(user, bs):
        raise ZeroDistance("user position coincides with the base station")
    candidates = []
    if not _segment_blocked(env, bs, user):
        candidates.append((float(np.linalg.norm(user - bs)), user - bs, 1.0, 0))
    for i, ref in enumerate(env.reflectors):
        a = np.asarray(ref.p1, dtype=float)
        b = np.asarray(ref.p2, dtype=float)
        side_bs = _cross(a, b, bs)
        side_user = _cross(a, b, user)
        if side_bs == 0.0 or side_user == 0.0 or (side_bs > 0) != (side_user > 0):
            continue
        image = _reflect_point(user, a, b)
        d_wall = b - a
        d_ray = image - bs
        denom = _cross((0.0, 0.0), d_wall, d_ray)
        if denom == 0.0:
            continue
        t = _cross((0.0, 0.0), bs - a, d_ray) / denom
        if not 0.0 <= t <= 1.0:
            continue
        spec = a + t * d_wall
        if _segment_blocked(env, bs, spec) or _segment_blocked(env, spec, user):
            continue
        length = float(np.linalg.norm(image - bs))
        candidates.append((length, d_ray, ref.coefficient, i + 1))
    paths = []
    for length, direction, coeff, cluster in candidates:
        delay = length / env.speed_of_light
        n = int(round(delay / ofdm.sample_duration))
        if n >= ofdm.n_subcarriers:
            _channel_log.debug("dropped path with sampled delay %d (cluster %d)",
                               n, cluster)
            continue
        amplitude = coeff * array.wavelength / (4.0 * np.pi * length)
        gain = amplitude * np.exp(-2j * np.pi * length / array.wavelength)
        paths.append(Ray(
            aoa=_aoa_from_axis(env, direction),
            sampled_delay=n,
            gain=complex(gain),
            length=length,
            cluster=cluster,
        ))
    paths.sort(key=lambda p: (-abs(p.gain), p.cluster))
    return paths


def synthesize_csi(paths, array, ofdm):
    """``channel.synthesize_csi`` for one path list, one term at a time."""
    h = np.zeros((array.n_antennas, ofdm.n_subcarriers), dtype=np.complex128)
    q = np.arange(array.n_antennas)
    l = np.arange(ofdm.n_subcarriers)
    for p in paths:
        if not 0 <= p.sampled_delay < ofdm.n_subcarriers:
            raise DelayOverflow(
                f"sampled delay {p.sampled_delay} outside [0, {ofdm.n_subcarriers})"
            )
        phase = (-2.0 * np.pi * q * array.element_spacing * np.cos(p.aoa)
                 / array.wavelength)
        steering = np.exp(1j * phase)
        ramp = np.exp(-2j * np.pi * l * p.sampled_delay / ofdm.n_subcarriers)
        h += p.gain * np.outer(steering, ramp)
    return h


def foreground_ray(scenario, paths, ofdm, speed_of_light):
    """The foreign path an addition scenario injects: angle, delay bin and
    phase from the scenario seed, magnitude below the strongest path."""
    rng = np.random.default_rng(scenario.rng_seed)
    aoa = float(rng.uniform(0.0, np.pi))
    nbin = int(rng.integers(0, ofdm.n_subcarriers))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    magnitude = 10.0 ** (scenario.addition_level_db / 20.0) * max(
        abs(p.gain) for p in paths)
    return Ray(aoa, nbin, complex(magnitude * np.exp(1j * phase)),
               nbin * ofdm.sample_duration * speed_of_light, -1)


def distort(paths, scenario, foreground):
    """One frame's sorted path list under a scenario: blockage pops the
    strongest path or the second strongest, addition appends ``foreground``."""
    if scenario.kind is DistortionKind.NLOS_ADDITION:
        return paths + [foreground]
    rank = 0 if scenario.kind is DistortionKind.LOS_BLOCKAGE else 1
    return paths[:rank] + paths[rank + 1:]


def build_db_adps(env, grid, array, ofdm, dft):
    """``fingerprint.build_db``'s profiles, one grid point at a time."""
    positions = grid.all_positions()
    adps = np.zeros((grid.n_points, array.n_antennas, ofdm.n_subcarriers),
                    dtype="<f4")
    for i, pos in enumerate(positions):
        csi = synthesize_csi(trace_paths(env, pos, array, ofdm), array, ofdm)
        adps[i] = np.abs(dft.v.conj().T @ csi @ dft.f).astype("<f4")
    return adps


def assert_same_paths(got, row, want):
    """Row ``row`` of a ``channel.Paths`` record holds the path list
    ``want`` in its first columns, field by field, in order, type for type."""
    m = len(want)
    assert got.valid[row].tolist() == [True] * m + [False] * (
        got.valid.shape[1] - m)
    for name in Ray._fields:
        for a, b in zip(getattr(got, name)[row, :m].tolist(),
                        [getattr(w, name) for w in want]):
            assert type(a) is type(b) and repr(a) == repr(b), (name, a, b)
