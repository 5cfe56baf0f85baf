"""Next-frame prediction for angle-delay profile sequences.

As in video frame prediction, a stack of past frames goes in and the
next frame comes out. Both predictors take one float (n, frames, n_t,
n_c) stack of n equal-length histories and return the (n, n_t, n_c)
stack of their next frames; row i depends on history i alone, bit for
bit. A single history is a stack of one.

* ``PeakTrackingPredictor`` is model based, with fixed settings (the
  module constants below). It detects local maxima in each frame,
  associates them across frames into tracks, extrapolates every track
  one step, and repaints the frame as a sum of narrow Gaussian bumps,
  with ties and rounding settled exactly as the scalar rule for one
  history settles them.
* ``ConvRecurrentPredictor`` is learned. A small convolutional recurrent
  net, trained by backpropagation through time, emits the next frame as
  a residual correction on the latest one. It is the only predictor
  with a checkpoint.

Both axes of a profile are DFT bins, so peak coordinates, distances and
resynthesis all wrap cyclically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adp import gaussian_bumps
from .container import (
    check_weight_count,
    read_checkpoint,
    read_weights,
    write_checkpoint,
)
from .errors import (
    DimensionMismatch,
    EmptyHistory,
    FormatError,
    LengthMismatch,
    check_int,
    check_positive,
)
from .neural import Conv2d, TrainConfig, sgd

PREDICTOR_MAGIC = b"PRED"
PREDICTOR_VERSION = 1

# the peak tracker's settings
MAX_PEAKS = 8  # peaks kept per frame, strongest first
GATE = 3.0  # association radius, in bins
MAX_MISSES = 2  # unmatched frames in a row before a track is dropped
SIGMA = 0.5  # width of the resynthesis bumps, in bins
MIN_AMPLITUDE = 0.0  # detection floor: maxima at or below it are no peaks


class Peak(NamedTuple):
    """Local maxima of a stack of profiles, one (F, P) array per field."""

    angle_bin: np.ndarray
    delay_bin: np.ndarray
    amplitude: np.ndarray


# the cyclic 3x3 window in centroid summation order, center included
_NEIGHBORS = tuple((dz, dq) for dz in (-1, 0, 1) for dq in (-1, 0, 1))
# np.hypot and math.hypot, which defines the association rule, differ in
# the last bit now and then; a distance this close (relative) to another
# or to the gate is taken again with math.hypot
_HYPOT_TIE = 1e-12


def detect_peaks(frames) -> Peak:
    """Find strict local maxima over the cyclic 8-neighborhood.

    Maxima at or below ``MIN_AMPLITUDE`` are no peaks. Each maximum is
    refined to subpixel coordinates with an intensity centroid over its
    cyclic 3x3 window. Plateaus (exact ties with a neighbor) are not
    maxima, so an all-zero frame yields no peaks. A frame's peaks are
    sorted by descending amplitude, ties by angle then delay bin, and the
    first ``MAX_PEAKS`` are kept.

    Args:
        frames: an (F, n_t, n_c) stack of profiles; any real dtype.

    Returns:
        One ``Peak`` of three (F, P) float64 arrays, P the most peaks kept
        in any frame: row f holds frame f's peaks in sorted order, padded
        with NaN.

    Raises:
        DimensionMismatch: ``frames`` is not a 3D stack.
    """
    stack = np.asarray(frames, dtype=np.float64)
    if stack.ndim != 3:
        raise DimensionMismatch(
            f"expected an (F, n_t, n_c) stack, got shape {stack.shape}")
    n_f, n_t, n_c = stack.shape
    # cyclically padded by one bin; its shifted slices are the 8 neighbors
    padded = np.zeros((n_f, n_t + 2, n_c + 2))
    padded[:, 1:-1, 1:-1] = stack
    if stack.size:
        padded[:, 0, 1:-1], padded[:, -1, 1:-1] = stack[:, -1], stack[:, 0]
        padded[:, :, 0], padded[:, :, -1] = padded[:, :, -2], padded[:, :, 1]
    is_max = stack > MIN_AMPLITUDE
    for dz, dq in _NEIGHBORS:
        if dz or dq:
            is_max &= stack > padded[:, 1 + dz:1 + dz + n_t,
                                     1 + dq:1 + dq + n_c]
    fs, zs, qs = np.nonzero(is_max)
    flat = padded.reshape(-1)
    at = (fs * (n_t + 2) + zs + 1) * (n_c + 2) + qs + 1  # in padded
    num_z, num_q, den = np.zeros((3, zs.size))
    for dz, dq in _NEIGHBORS:
        w = flat[at + (dz * (n_c + 2) + dq)]
        den += w
        num_z += w * dz
        num_q += w * dq
    z = (zs + num_z / den) % n_t
    q = (qs + num_q / den) % n_c
    amp = flat[at]
    # by frame, then the stable sort on (-amplitude, angle, delay)
    order = np.lexsort((q, z, -amp, fs))
    fs, z, q, amp = fs[order], z[order], q[order], amp[order]
    counts = np.bincount(fs, minlength=n_f)
    rank = np.arange(fs.size) - (np.cumsum(counts) - counts)[fs]
    keep = rank < MAX_PEAKS
    fs, rank, z, q, amp = fs[keep], rank[keep], z[keep], q[keep], amp[keep]
    out = np.full((3, n_f, rank.max(initial=-1) + 1), np.nan)
    out[:, fs, rank] = z, q, amp
    return Peak(*out)


def _hypot(dz, dq, candidate):
    """Distances, as ``math.hypot`` would order the candidates of each row
    (last axis) among themselves and against ``GATE``."""
    dist = np.hypot(dz, dq)
    ranked = np.sort(np.where(candidate, dist, np.nan), axis=-1)  # NaN last
    near = ((np.diff(ranked, axis=-1) <= _HYPOT_TIE * ranked[..., 1:])
            .any(axis=-1) | (np.abs(ranked - GATE)
                             <= _HYPOT_TIE * GATE).any(axis=-1))
    for row in zip(*np.nonzero(near)):
        dist[row] = [math.hypot(z, q)
                     for z, q in zip(dz[row].tolist(), dq[row].tolist())]
    return dist


def _associate(pz, pq, pamp, shape):
    """Link the (n, frames, P) peaks, padded as ``detect_peaks`` pads
    them, into tracks: slot s of row i is the s-th track history i opened.

    Returns the first and last observation of every slot, as (4, n,
    slots) arrays of frame index, angle bin, delay bin and amplitude, and
    the (n, slots) mask of slots alive after the last frame. Coordinates
    are unwrapped, so straight motion across the seam stays straight.
    """
    n, n_frames, width = pz.shape
    n_t, n_c = shape
    rows = np.arange(n)
    first = np.zeros((4, n, n_frames * width))
    last = np.zeros_like(first)
    alive = np.zeros(first.shape[1:], dtype=bool)
    opened = np.zeros(n, dtype=np.int64)
    for t in range(n_frames):
        found = ~np.isnan(pamp[:, t])
        slot = np.full((n, width), -1)  # the track each peak joins
        k = opened.max(initial=0)
        if k:
            # wrapped offsets from every peak to every track, on the grid
            dz = (pz[:, t, :, None] - last[1, :, None, :k] % n_t
                  + n_t / 2.0) % n_t - n_t / 2.0
            dq = (pq[:, t, :, None] - last[2, :, None, :k] % n_c
                  + n_c / 2.0) % n_c - n_c / 2.0
            # candidates are the tracks alive before this frame
            candidate = alive[:, None, :k] & found[:, :, None]
            dist = _hypot(dz, dq, candidate)
            # a peak joins the last of its nearest candidates within the
            # gate (a scan keeping each dist <= the best so far); tracks
            # reversed so argmin finds it. Offsets are finite or NaN, so
            # only non-candidates cost inf.
            cost = np.where(candidate & (dist <= GATE), dist,
                            np.inf)[:, :, ::-1]
            for r in range(found.sum(axis=1).max()):  # strongest first
                j = cost[:, r].argmin(axis=1)
                i = np.nonzero(cost[rows, r, j] < np.inf)[0]
                cost[i, :, j[i]] = np.inf  # taken for the weaker peaks
                slot[i, r] = k - 1 - j[i]
            i, r = np.nonzero(slot >= 0)
            s = slot[i, r]
            last[:, i, s] = (np.full(i.size, t), last[1, i, s] + dz[i, r, s],
                             last[2, i, s] + dq[i, r, s], pamp[i, t, r])
        # unmatched peaks open tracks after the existing ones, in order
        new = found & (slot < 0)
        i, r = np.nonzero(new)
        s = (opened[:, None] + np.cumsum(new, axis=1) - 1)[i, r]
        first[:, i, s] = last[:, i, s] = (
            np.full(i.size, t), pz[i, t, r], pq[i, t, r], pamp[i, t, r])
        alive[i, s] = True
        opened += new.sum(axis=1)
        alive &= t - last[0] < MAX_MISSES  # frames missed in a row
    return first, last, alive


def _history_stack(histories):
    """The (n, frames, n_t, n_c) histories as float64, the tracker's dtype."""
    try:
        x = np.asarray(histories, dtype=np.float64)
    except ValueError as exc:  # frames of different shapes
        raise DimensionMismatch(f"frames differ in shape: {exc}") from exc
    if x.ndim != 4:
        raise DimensionMismatch(
            f"expected an (n, frames, n_t, n_c) stack, got shape {x.shape}")
    if x.shape[1] == 0:
        raise EmptyHistory("need at least one past frame")
    return x


@dataclass(frozen=True)
class PeakTrackingPredictor:
    """Track peaks across past frames and extrapolate them one step.

    Peaks are associated frame to frame greedily, strongest first, to the
    nearest live track within ``GATE`` bins (cyclic distance); of tracks
    at equal distance the one opened last wins, and a track opened in a
    frame is no candidate in it. A track that goes unmatched
    ``MAX_MISSES`` frames in a row is dropped. Each surviving track
    contributes one Gaussian bump of width ``SIGMA`` to the predicted
    frame, in the order the tracks were opened: position and amplitude
    are extrapolated linearly from the first and last observation (a
    single-observation track is held stationary), and amplitude is
    clamped at zero.

    The stack of histories is worked as one: one ``detect_peaks`` call
    over all its frames, then per frame index one distance tensor over
    every history's peaks and tracks and one masked argmin per peak rank,
    with the tracks in fixed slots under an alive mask. The settings are
    the module constants, so the tracker has no fields and no checkpoint;
    the prediction is a pure function of the history.
    """

    def __call__(self, histories) -> np.ndarray:
        return self.predict(histories)

    def predict(self, histories) -> np.ndarray:
        """The (n, n_t, n_c) next frames of an (n, frames, n_t, n_c)
        stack of histories."""
        x = _history_stack(histories)
        n, n_frames, n_t, n_c = x.shape
        peaks = detect_peaks(x.reshape(n * n_frames, n_t, n_c))
        pz, pq, pamp = (p.reshape(n, n_frames, p.shape[1]) for p in peaks)
        first, last, alive = _associate(pz, pq, pamp, (n_t, n_c))
        (t0, z0, q0, a0), (t1, z1, q1, a1) = first, last
        moved = t1 > t0  # seen more than once
        span = np.where(moved, t1 - t0, 1.0)
        dt = n_frames - t1
        z = np.where(moved, z1 + (z1 - z0) / span * dt, z1) % n_t
        q = np.where(moved, q1 + (q1 - q0) / span * dt, q1) % n_c
        amp = np.where(moved, a1 + (a1 - a0) / span * dt, a1)
        amp = np.where(0.0 > amp, 0.0, amp)  # max(amp, 0.0): keeps -0.0, NaN
        # each row's bumps added one track at a time, in slot order
        i, s = np.nonzero(alive)
        rank = np.arange(i.size) - np.searchsorted(i, i)
        centers = np.stack([z[i, s], q[i, s]], axis=1)
        amp = amp[i, s]
        out = np.zeros((n, n_t, n_c))
        for j in range(rank.max(initial=-1) + 1):
            pick = rank == j
            out[i[pick]] += gaussian_bumps((n_t, n_c), centers[pick],
                                           amp[pick], SIGMA)
        return out


# --- learned predictor ------------------------------------------------------

class ConvRecurrentPredictor:
    """Convolutional recurrent next-frame model.

    State update per frame: ``h = tanh(conv_xh(x) + conv_hh(h))`` with
    'same' padding throughout, so the hidden state keeps the profile
    geometry. The prediction is ``relu(x_last + conv_out(h))``, a residual
    correction on the latest frame; an untrained model therefore starts
    out close to persistence. Inputs are divided by a global scale fitted
    on the training set so tanh stays responsive. It is float32 throughout.

    Raises:
        ValueError: a size is not an integer of at least 1,
            ``kernel_size`` is even, or ``seed`` is not an integer of at
            least 0.
    """

    def __init__(self, n_antennas: int, n_subcarriers: int,
                 hidden_channels: int = 8, kernel_size: int = 3, seed: int = 0):
        for name, size in (("n_antennas", n_antennas),
                           ("n_subcarriers", n_subcarriers),
                           ("hidden_channels", hidden_channels)):
            check_int(name, size)
        check_int("seed", seed, least=0)
        if kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd")
        self.n_antennas = n_antennas
        self.n_subcarriers = n_subcarriers
        self.hidden_channels = hidden_channels
        self.kernel_size = kernel_size
        self.seed = seed
        self.scale = 1.0
        rng = np.random.default_rng(seed)
        layers = _layers(hidden_channels, kernel_size)
        for layer, channels in layers:
            layer.init_params((channels, n_antennas, n_subcarriers), rng)
        self._xh, self._hh, self._out = (layer for layer, _ in layers)

    def parameters(self):
        return [self._xh.w, self._xh.b, self._hh.w, self._hh.b,
                self._out.w, self._out.b]

    def spec(self) -> dict:
        return {
            "kind": "conv-recurrent",
            "n_antennas": self.n_antennas,
            "n_subcarriers": self.n_subcarriers,
            "hidden_channels": self.hidden_channels,
            "kernel_size": self.kernel_size,
            "seed": self.seed,
            "scale": self.scale,
        }

    def __call__(self, histories) -> np.ndarray:
        return self.predict(histories)

    def predict(self, histories) -> np.ndarray:
        """The (n, n_t, n_c) next frames of an (n, frames, n_t, n_c)
        stack of histories, in one recurrence."""
        shape = (self.n_antennas, self.n_subcarriers)
        x = _history_stack(histories)
        if x.shape[2:] != shape:
            raise DimensionMismatch(
                f"frames have shape {x.shape[2:]}, expected {shape}")
        x = x.astype(np.float32) / self.scale
        h = np.zeros((len(x), self.hidden_channels) + shape, dtype=np.float32)
        for t in range(x.shape[1]):
            h = np.tanh(self._xh.forward(x[:, t, None], train=False)
                        + self._hh.forward(h, train=False))
        out = np.maximum(x[:, -1, None] + self._out.forward(h, train=False),
                         0.0)[:, 0] * self.scale
        return out


def _layers(hidden_channels: int, kernel_size: int) -> list:
    """The input, recurrent and output convolutions of a
    ``ConvRecurrentPredictor``, each with the channel count it takes in."""
    return [(Conv2d(hidden_channels, kernel_size, "same"), 1),
            (Conv2d(hidden_channels, kernel_size, "same"), hidden_channels),
            (Conv2d(1, kernel_size, "same"), hidden_channels)]


def _weight_count(hidden_channels: int, kernel_size: int) -> int:
    """The number of weights in ``ConvRecurrentPredictor.parameters()``."""
    return sum(layer.n_weights((channels,))
               for layer, channels in _layers(hidden_channels, kernel_size))


def _clone_conv(proto: Conv2d) -> Conv2d:
    layer = Conv2d(proto.out_channels, proto.kernel_size, proto.padding)
    layer.w, layer.b = proto.w, proto.b
    return layer


def _step_columns(model: ConvRecurrentPredictor, x: np.ndarray) -> np.ndarray:
    """The input layer's column matrices of a (b, frames, n_t, n_c) batch
    of scaled sequences, one C-contiguous (b, n_t, n_c, k*k) block per
    input frame (each but the last, which is only a target): a
    (frames - 1, b, n_t, n_c, k*k) array."""
    b, t_len, n_t, n_c = x.shape
    inputs = x[:, :-1].transpose(1, 0, 2, 3).reshape(-1, 1, n_t, n_c)
    return model._xh.columns(inputs).reshape((t_len - 1, b, n_t, n_c, -1))


def _loss_and_grads(model: ConvRecurrentPredictor, x: np.ndarray,
                    xcols: np.ndarray):
    """Teacher-forced squared error over a batch of scaled sequences.

    ``x`` is (batch, frames, n_t, n_c), already divided by the model
    scale, and ``xcols`` its ``_step_columns``. Every frame after the
    first is a target for the prediction made from the frames before it.
    Each hidden state's column matrix is built once, and the output layer
    of its step and the recurrent layer of the next both run on it.
    Returns the mean loss and gradients in ``parameters()`` order.
    """
    b, t_len, n_t, n_c = x.shape
    h = np.zeros((b, model.hidden_channels, n_t, n_c), dtype=x.dtype)
    hcols = model._out.columns(h)
    steps = []
    preds = np.empty((b, t_len - 1, n_t, n_c), dtype=x.dtype)
    for t in range(t_len - 1):
        xh, hh, out = (_clone_conv(model._xh), _clone_conv(model._hh),
                       _clone_conv(model._out))
        h = np.tanh(xh.forward_columns(xcols[t]) + hh.forward_columns(hcols))
        hcols = out.columns(h)
        pre_out = x[:, t][:, None] + out.forward_columns(hcols)
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
        xh.backward(gpre, input_grad=False)  # its input is data
        # the gradient to the initial state, at t = 0, is never read
        gh_next = hh.backward(gpre, input_grad=t > 0)
        for acc, g in zip(grads, [xh.gw, xh.gb, hh.gw, hh.gb, out.gw, out.gb]):
            acc += g
    return loss, grads


def _as_frame_array(sequences) -> np.ndarray:
    """The (frames, n_t, n_c) walks stacked into a new float32 array."""
    arrays = [np.asarray(seq, dtype=np.float32) for seq in sequences]
    if not arrays:
        raise EmptyHistory("no training sequences")
    lengths = {a.shape for a in arrays}
    if len(lengths) != 1:
        raise LengthMismatch(f"mixed sequence shapes: {sorted(lengths)}")
    return np.stack(arrays)


def train_predictor(model: ConvRecurrentPredictor, sequences,
                    config: TrainConfig):
    """Fit the recurrent predictor on whole sequences with ``neural.sgd``.

    Sequences are (frames, n_t, n_c) arrays, such as the ``adps`` of a
    ``FrameSequence``; all must share one shape, and none is modified.
    Sets the model scale to the peak pixel of the training set, then
    descends the teacher-forced next-frame loss, one walk per example.
    The input layer's columns of
    every frame are built once for the whole call, and each batch gathers
    its rows: the same weights and losses as building them at every step.

    Returns:
        Mean training loss per epoch, in scaled units.

    Raises:
        DivergedLoss: if the loss stops being finite.
    """
    data = _as_frame_array(sequences)
    if data.shape[1] < 2:
        raise LengthMismatch("sequences must have at least two frames")
    peak = float(data.max())
    model.scale = peak if peak > 0.0 else 1.0
    data /= model.scale
    xcols = _step_columns(model, data)
    return sgd(model.parameters(), len(data),
               lambda sel: _loss_and_grads(model, data[sel], xcols[:, sel]),
               config)


# --- persistence -------------------------------------------------------------

def save_predictor(predictor: ConvRecurrentPredictor, path) -> None:
    """Write a trained predictor's checkpoint (JSON header plus float32
    weights). The peak tracker has fixed settings and no checkpoint.

    Raises:
        FormatError: ``predictor`` is not a ``ConvRecurrentPredictor``.
    """
    if not isinstance(predictor, ConvRecurrentPredictor):
        raise FormatError(f"cannot serialize a {type(predictor).__name__}")
    write_checkpoint(path, PREDICTOR_MAGIC, PREDICTOR_VERSION,
                     predictor.spec(), predictor.parameters())


def load_predictor(path) -> ConvRecurrentPredictor:
    """Rebuild a predictor saved by ``save_predictor``.

    The weight count that the header's ``hidden_channels`` and
    ``kernel_size`` imply is compared with the body before any weight is
    made.

    Raises:
        TruncatedFile: the file is cut short, or holds fewer weights than
            its header implies.
        FormatError: bad magic, trailing bytes, or a header that does not
            describe a ``ConvRecurrentPredictor``.
        VersionError: unsupported checkpoint version.
    """
    header, body = read_checkpoint(path, PREDICTOR_MAGIC, PREDICTOR_VERSION)
    kind = header.get("kind")
    if kind != "conv-recurrent":
        raise FormatError(f"unknown predictor kind {kind!r}")
    try:
        hidden, k = header["hidden_channels"], header["kernel_size"]
        check_int("hidden_channels", hidden)
        check_int("kernel_size", k)
        # the weight count the header implies, checked before any is made
        check_weight_count(body, _weight_count(hidden, k))
        predictor = ConvRecurrentPredictor(
            header["n_antennas"], header["n_subcarriers"],
            hidden_channels=hidden, kernel_size=k, seed=header["seed"])
        check_positive("scale", header["scale"])
        predictor.scale = header["scale"]
    except (LookupError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint header does not describe a "
                          f"predictor: {exc!r}") from exc
    read_weights(body, predictor.parameters())
    return predictor
