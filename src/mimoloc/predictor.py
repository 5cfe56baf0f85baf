"""Next-frame prediction for angle-delay profile sequences.

Two predictors share one calling convention: a history (a list of past
profiles) in, one predicted profile out; or a stack of equal-length
histories, one (n, frames, n_t, n_c) array, in, and the stack of their
predictions out, each row bit for bit its own history's prediction.

* ``PeakTrackingPredictor`` is model based. It detects local maxima in
  each frame, associates them across frames into tracks, extrapolates
  every track one step, and repaints the frame as a sum of narrow
  Gaussian bumps. A stack is worked in array passes over all histories
  at once: one detection call, then one association pass per frame
  index, with ties and rounding settled exactly as the scalar rule for
  one history settles them.
* ``ConvRecurrentPredictor`` is learned. A small convolutional recurrent
  net, trained by backpropagation through time, emits the next frame as
  a residual correction on the latest one.

Both axes of a profile are DFT bins, so peak coordinates, distances and
resynthesis all wrap cyclically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adp import gaussian_bumps
from .container import read_checkpoint, read_weights, write_checkpoint
from .errors import (
    DimensionMismatch,
    DivergedLoss,
    EmptyHistory,
    FormatError,
    LengthMismatch,
)
from .neural import Conv2d

PREDICTOR_MAGIC = b"PRED"
PREDICTOR_VERSION = 1


class Peak(NamedTuple):
    """One local maximum in a profile, with subpixel bin coordinates."""

    angle_bin: float
    delay_bin: float
    amplitude: float


# the cyclic 3x3 window in centroid summation order, center included
_NEIGHBORS = tuple((dz, dq) for dz in (-1, 0, 1) for dq in (-1, 0, 1))
# np.hypot and math.hypot, which defines the association rule, differ in
# the last bit now and then; a distance this close (relative) to another
# or to the gate is taken again with math.hypot
_HYPOT_TIE = 1e-12


def detect_peaks(adp, max_peaks: int = 8, min_amplitude: float = 0.0):
    """Find strict local maxima over the cyclic 8-neighborhood.

    Each maximum is refined to subpixel coordinates with an intensity
    centroid over its cyclic 3x3 window. Plateaus (exact ties with a
    neighbor) are not maxima, so an all-zero frame yields no peaks. A
    frame's peaks are sorted by descending amplitude, ties by coordinates,
    and the first ``max_peaks`` are kept.

    Args:
        adp: one 2D profile, or an (F, n_t, n_c) stack of them; any real
            dtype.
        max_peaks: keep at most this many per frame, strongest first;
            an integer of at least 1.
        min_amplitude: discard maxima at or below this pixel value.

    Returns:
        For one profile, its peaks as a list. For a stack, one ``Peak`` of
        three (F, P) float64 arrays, P the most peaks kept in any frame:
        row f holds frame f's peaks in list order, padded with NaN.

    Raises:
        ValueError: ``max_peaks`` is not an integer of at least 1.
    """
    _check_count("max_peaks", max_peaks)
    a = np.asarray(adp, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise DimensionMismatch(
            f"expected a 2D profile or a stack of them, got shape {a.shape}")
    stack = a if a.ndim == 3 else a[None]
    n_f, n_t, n_c = stack.shape
    # cyclically padded by one bin; its shifted slices are the 8 neighbors
    padded = np.zeros((n_f, n_t + 2, n_c + 2))
    padded[:, 1:-1, 1:-1] = stack
    if stack.size:
        padded[:, 0, 1:-1], padded[:, -1, 1:-1] = stack[:, -1], stack[:, 0]
        padded[:, :, 0], padded[:, :, -1] = padded[:, :, -2], padded[:, :, 1]
    is_max = stack > min_amplitude
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
    keep = rank < max_peaks
    fs, rank, z, q, amp = fs[keep], rank[keep], z[keep], q[keep], amp[keep]
    if a.ndim == 2:
        return [Peak(*p) for p in zip(z, q, amp.tolist())]
    out = np.full((3, n_f, rank.max(initial=-1) + 1), np.nan)
    out[:, fs, rank] = z, q, amp
    return Peak(*out)


def _check_count(name, value):
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ValueError(f"{name} must be an integer of at least 1, "
                         f"got {value!r}")


def _check_width(name, value):
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 < value < math.inf):
        raise ValueError(f"{name} must be finite and above 0, got {value!r}")


def _hypot(dz, dq, candidate, gate):
    """Distances, as ``math.hypot`` would order the candidates of each row
    (last axis) among themselves and against ``gate``."""
    dist = np.hypot(dz, dq)
    ranked = np.sort(np.where(candidate, dist, np.nan), axis=-1)  # NaN last
    near = ((np.diff(ranked, axis=-1) <= _HYPOT_TIE * ranked[..., 1:])
            .any(axis=-1) | (np.abs(ranked - gate)
                             <= _HYPOT_TIE * abs(gate)).any(axis=-1))
    for row in zip(*np.nonzero(near)):
        dist[row] = [math.hypot(z, q)
                     for z, q in zip(dz[row].tolist(), dq[row].tolist())]
    return dist


def _associate(pz, pq, pamp, shape, gate, max_misses):
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
            dist = _hypot(dz, dq, candidate, gate)
            # a peak joins the last of its nearest candidates within the
            # gate (a scan keeping each dist <= the best so far); tracks
            # reversed so argmin finds it. Offsets are finite or NaN, so
            # only non-candidates cost inf.
            cost = np.where(candidate & (dist <= gate), dist,
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
        alive &= t - last[0] < max_misses  # frames missed in a row
    return first, last, alive


def _history_stack(history):
    """One history (a list of frames) or a stack of them as one float64
    (n, frames, n_t, n_c) array, and whether it came as a stack."""
    stack = getattr(history, "ndim", None) == 4
    try:
        x = np.array(history if stack else [list(history)], dtype=np.float64)
    except ValueError as exc:  # frames of different shapes
        raise DimensionMismatch(f"frames differ in shape: {exc}") from exc
    if x.shape[1] == 0:
        raise EmptyHistory("need at least one past frame")
    if x.ndim != 4:
        raise DimensionMismatch(f"expected 2D frames, got {x.shape[2:]}")
    return x, stack


@dataclass(frozen=True)
class PeakTrackingPredictor:
    """Track peaks across past frames and extrapolate them one step.

    Peaks are associated frame to frame greedily, strongest first, to the
    nearest live track within ``gate`` bins (cyclic distance); of tracks
    at equal distance the one opened last wins, and a track opened in a
    frame is no candidate in it. A track that goes unmatched
    ``max_misses`` frames in a row is dropped. Each surviving track
    contributes one Gaussian bump to the predicted frame, in the order
    the tracks were opened: position and amplitude are extrapolated
    linearly from the first and last observation (a single-observation
    track is held stationary), and amplitude is clamped at zero.

    A stack of histories is worked as one (one history is a stack of
    one): one ``detect_peaks`` call over all its frames, then per frame
    index one distance tensor over every history's peaks and tracks and
    one masked argmin per peak rank, with the tracks in fixed slots under
    an alive mask. The prediction is a pure function of the history.

    Attributes:
        max_peaks: peaks kept per frame.
        gate: association radius in bins.
        max_misses: consecutive unmatched frames before a track is dropped.
        sigma: width of the resynthesis bumps, in bins.
        min_amplitude: detection floor passed to :func:`detect_peaks`.

    Raises:
        ValueError: ``max_peaks`` or ``max_misses`` is not an integer of at
            least 1, or ``gate`` or ``sigma`` is not finite and above 0.
    """

    max_peaks: int = 8
    gate: float = 3.0
    max_misses: int = 2
    sigma: float = 0.5
    min_amplitude: float = 0.0

    def __post_init__(self):
        _check_count("max_peaks", self.max_peaks)
        _check_count("max_misses", self.max_misses)
        _check_width("gate", self.gate)
        _check_width("sigma", self.sigma)

    def __call__(self, history) -> np.ndarray:
        return self.predict(history)

    def predict(self, history) -> np.ndarray:
        """Predict one history, or a stack of them in one pass."""
        x, stack = _history_stack(history)
        n, n_frames, n_t, n_c = x.shape
        peaks = detect_peaks(x.reshape(n * n_frames, n_t, n_c),
                             self.max_peaks, self.min_amplitude)
        pz, pq, pamp = (p.reshape(n, n_frames, p.shape[1]) for p in peaks)
        first, last, alive = _associate(pz, pq, pamp, (n_t, n_c), self.gate,
                                        self.max_misses)
        (t0, z0, q0, a0), (t1, z1, q1, a1) = first, last
        moved = t1 > t0  # seen more than once
        span = np.where(moved, t1 - t0, 1.0)
        dt = n_frames - t1
        z = np.where(moved, z1 + (z1 - z0) / span * dt, z1) % n_t
        q = np.where(moved, q1 + (q1 - q0) / span * dt, q1) % n_c
        amp = np.where(moved, a1 + (a1 - a0) / span * dt, a1)
        amp = np.where(0.0 > amp, 0.0, amp)  # max(amp, 0.0): keeps -0.0, NaN
        # each row's bumps added one track at a time, in slot order, as
        # gaussian_profile adds them
        i, s = np.nonzero(alive)
        rank = np.arange(i.size) - np.searchsorted(i, i)
        centers = np.stack([z[i, s], q[i, s]], axis=1)
        amp = amp[i, s]
        out = np.zeros((n, n_t, n_c))
        for j in range(rank.max(initial=-1) + 1):
            pick = rank == j
            out[i[pick]] += gaussian_bumps((n_t, n_c), centers[pick],
                                           amp[pick], self.sigma)
        return out if stack else out[0]


# --- learned predictor ------------------------------------------------------

class ConvRecurrentPredictor:
    """Convolutional recurrent next-frame model.

    State update per frame: ``h = tanh(conv_xh(x) + conv_hh(h))`` with
    'same' padding throughout, so the hidden state keeps the profile
    geometry. The prediction is ``relu(x_last + conv_out(h))``, a residual
    correction on the latest frame; an untrained model therefore starts
    out close to persistence. Inputs are divided by a global scale fitted
    on the training set so tanh stays responsive.
    """

    def __init__(self, n_antennas: int, n_subcarriers: int,
                 hidden_channels: int = 8, kernel_size: int = 3, seed: int = 0):
        if kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd")
        self.n_antennas = n_antennas
        self.n_subcarriers = n_subcarriers
        self.hidden_channels = hidden_channels
        self.kernel_size = kernel_size
        self.seed = seed
        self.scale = 1.0
        rng = np.random.default_rng(seed)
        self._xh = Conv2d(hidden_channels, kernel_size, "same")
        self._xh.init_params((1, n_antennas, n_subcarriers), rng)
        self._hh = Conv2d(hidden_channels, kernel_size, "same")
        self._hh.init_params((hidden_channels, n_antennas, n_subcarriers), rng)
        self._out = Conv2d(1, kernel_size, "same")
        self._out.init_params((hidden_channels, n_antennas, n_subcarriers), rng)

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

    def __call__(self, history) -> np.ndarray:
        return self.predict(history)

    def predict(self, history) -> np.ndarray:
        """Predict one history, or a stack of them in one recurrence."""
        shape = (self.n_antennas, self.n_subcarriers)
        x, stack = _history_stack(history)
        if x.shape[2:] != shape:
            raise DimensionMismatch(
                f"frames have shape {x.shape[2:]}, expected {shape}")
        x = x / self.scale
        h = np.zeros((len(x), self.hidden_channels) + shape)
        for t in range(x.shape[1]):
            h = np.tanh(self._xh.forward(x[:, t, None], train=False)
                        + self._hh.forward(h, train=False))
        out = np.maximum(x[:, -1, None] + self._out.forward(h, train=False),
                         0.0)[:, 0] * self.scale
        return out if stack else out[0]


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
    Returns the mean loss and gradients in ``parameters()`` order.
    """
    b, t_len, n_t, n_c = x.shape
    h = np.zeros((b, model.hidden_channels, n_t, n_c))
    steps = []
    preds = np.empty((b, t_len - 1, n_t, n_c))
    for t in range(t_len - 1):
        xh, hh, out = (_clone_conv(model._xh), _clone_conv(model._hh),
                       _clone_conv(model._out))
        h = np.tanh(xh.forward_columns(xcols[t]) + hh.forward(h))
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
        xh.backward(gpre, input_grad=False)  # its input is data
        gh_next = hh.backward(gpre)
        for acc, g in zip(grads, [xh.gw, xh.gb, hh.gw, hh.gb, out.gw, out.gb]):
            acc += g
    return loss, grads


@dataclass(frozen=True)
class PredictorTrainConfig:
    epochs: int = 60
    batch_size: int = 8
    learning_rate: float = 0.2
    momentum: float = 0.9
    seed: int = 0


def _as_frame_array(sequences) -> np.ndarray:
    arrays = []
    for seq in sequences:
        a = seq.adps() if hasattr(seq, "adps") else np.asarray(seq)
        arrays.append(np.asarray(a, dtype=np.float64))
    if not arrays:
        raise EmptyHistory("no training sequences")
    lengths = {a.shape for a in arrays}
    if len(lengths) != 1:
        raise LengthMismatch(f"mixed sequence shapes: {sorted(lengths)}")
    return np.stack(arrays)


def train_predictor(model: ConvRecurrentPredictor, sequences,
                    config: PredictorTrainConfig = PredictorTrainConfig()):
    """Fit the recurrent predictor on whole sequences.

    Sequences may be ``FrameSequence`` objects or plain (frames, n_t, n_c)
    arrays; all must share one shape. Sets the model scale to the peak
    pixel of the training set, then runs mini-batch gradient descent with
    momentum on the teacher-forced next-frame loss. The input layer's
    columns of every frame are built once for the whole call, and each
    batch gathers its rows: the same weights and losses as building them
    at every step.

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
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = _loss_and_grads(model, data[sel],
                                              xcols[:, sel])
            if not np.isfinite(loss):
                raise DivergedLoss(f"loss became {loss}")
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


# --- persistence -------------------------------------------------------------

def save_predictor(predictor, path) -> None:
    """Write a predictor checkpoint (JSON header plus float32 weights)."""
    if isinstance(predictor, PeakTrackingPredictor):
        header = {"kind": "peak-track",
                  "max_peaks": predictor.max_peaks,
                  "gate": predictor.gate,
                  "max_misses": predictor.max_misses,
                  "sigma": predictor.sigma,
                  "min_amplitude": predictor.min_amplitude}
        weights = []
    elif isinstance(predictor, ConvRecurrentPredictor):
        header = predictor.spec()
        weights = predictor.parameters()
    else:
        raise FormatError(f"cannot serialize a {type(predictor).__name__}")
    write_checkpoint(path, PREDICTOR_MAGIC, PREDICTOR_VERSION, header, weights)


def load_predictor(path):
    """Rebuild a predictor saved by ``save_predictor``.

    Raises:
        TruncatedFile: the file is cut short.
        FormatError: bad magic, trailing bytes, or a header that does not
            describe a predictor.
        VersionError: unsupported checkpoint version.
    """
    header, body = read_checkpoint(path, PREDICTOR_MAGIC, PREDICTOR_VERSION)
    kind = header.get("kind")
    weights = []
    try:
        if kind == "peak-track":
            predictor = PeakTrackingPredictor(
                max_peaks=header["max_peaks"], gate=header["gate"],
                max_misses=header["max_misses"], sigma=header["sigma"],
                min_amplitude=header["min_amplitude"])
        elif kind == "conv-recurrent":
            predictor = ConvRecurrentPredictor(
                header["n_antennas"], header["n_subcarriers"],
                hidden_channels=header["hidden_channels"],
                kernel_size=header["kernel_size"], seed=header["seed"])
            predictor.scale = header["scale"]
            weights = predictor.parameters()
        else:
            raise FormatError(f"unknown predictor kind {kind!r}")
    except (LookupError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint header does not describe a "
                          f"predictor: {exc!r}") from exc
    read_weights(body, weights)
    return predictor
