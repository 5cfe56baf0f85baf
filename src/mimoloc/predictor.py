"""Next-frame prediction for angle-delay profile sequences.

Two predictors share one calling convention: a history (a list of past
profiles) in, one predicted profile out; or a stack of equal-length
histories, one (n, frames, n_t, n_c) array, in, and the stack of their
predictions out, each row bit for bit its own history's prediction.

* ``PeakTrackingPredictor`` is model based. It detects local maxima in
  each frame, associates them across frames into tracks, extrapolates
  every track one step, and repaints the frame as a sum of narrow
  Gaussian bumps.
* ``ConvRecurrentPredictor`` is learned. A small convolutional recurrent
  net, trained by backpropagation through time, emits the next frame as
  a residual correction on the latest one.

Both axes of a profile are DFT bins, so peak coordinates, distances and
resynthesis all wrap cyclically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .adp import gaussian_profile
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


def detect_peaks(adp, max_peaks: int = 8, min_amplitude: float = 0.0) -> list[Peak]:
    """Find strict local maxima over the cyclic 8-neighborhood.

    Each maximum is refined to subpixel coordinates with an intensity
    centroid over its cyclic 3x3 window. Plateaus (exact ties with a
    neighbor) are not maxima, so an all-zero frame yields no peaks.

    Args:
        adp: 2D profile, any real dtype.
        max_peaks: keep at most this many, strongest first.
        min_amplitude: discard maxima at or below this pixel value.

    Returns:
        Peaks sorted by descending amplitude, ties by coordinates.
    """
    a = np.asarray(adp, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2D profile, got shape {a.shape}")
    n_t, n_c = a.shape
    # cyclically padded by one bin; its shifted slices are the 8 neighbors
    padded = np.concatenate([a[-1:], a, a[:1]])
    padded = np.concatenate([padded[:, -1:], padded, padded[:, :1]], axis=1)
    is_max = a > min_amplitude
    for dz, dq in _NEIGHBORS:
        if dz or dq:
            is_max &= a > padded[1 + dz:1 + dz + n_t, 1 + dq:1 + dq + n_c]
    zs, qs = np.nonzero(is_max)
    num_z = np.zeros(zs.size)
    num_q = np.zeros(zs.size)
    den = np.zeros(zs.size)
    for dz, dq in _NEIGHBORS:
        w = padded[zs + 1 + dz, qs + 1 + dq]
        den += w
        num_z += w * dz
        num_q += w * dq
    peaks = [
        Peak(z, q, amp) for z, q, amp in zip(
            (zs + num_z / den) % n_t, (qs + num_q / den) % n_c,
            a[zs, qs].tolist())
    ]
    peaks.sort(key=lambda p: (-p.amplitude, p.angle_bin, p.delay_bin))
    return peaks[:max_peaks]


def _wrap(delta: float, period: int) -> float:
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
class PeakTrackingPredictor:
    """Track peaks across past frames and extrapolate them one step.

    Peaks are associated frame to frame greedily, strongest first, to the
    nearest live track within ``gate`` bins (cyclic distance). A track
    that goes unmatched ``max_misses`` frames in a row is dropped. Each
    surviving track contributes one Gaussian bump to the predicted frame:
    position and amplitude are extrapolated linearly from the first and
    last observation (a single-observation track is held stationary), and
    amplitude is clamped at zero.

    The prediction is a pure function of the history. An instance keeps
    the peaks it detected in the frames of its last step, keyed by their
    bytes: a step is one call, of one history or of a stack of histories
    (which ``predict`` then takes one by one). A rolling history is thus
    detected one new frame per step, and a frame that several histories of
    a step share is detected once. The memo is replaced on every step and
    takes no part in equality.

    Attributes:
        max_peaks: peaks kept per frame.
        gate: association radius in bins.
        max_misses: consecutive unmatched frames before a track is dropped.
        sigma: width of the resynthesis bumps, in bins.
        min_amplitude: detection floor passed to :func:`detect_peaks`.
    """

    max_peaks: int = 8
    gate: float = 3.0
    max_misses: int = 2
    sigma: float = 0.5
    min_amplitude: float = 0.0
    _last_peaks: dict = field(default_factory=dict, init=False,
                              compare=False, repr=False)

    def __call__(self, history) -> np.ndarray:
        if getattr(history, "ndim", None) != 4:
            return self.predict(history)
        step = {}
        predictions = np.stack([self.predict(h, step) for h in history])
        self._last_peaks.clear()
        self._last_peaks.update(step)
        return predictions

    def predict(self, history, step=None) -> np.ndarray:
        """Predict one history. ``step``, a dict shared by the histories of
        one step, gathers their frames' peaks; without it the call is a
        step of its own."""
        frames = [np.asarray(f, dtype=np.float64) for f in history]
        if not frames:
            raise EmptyHistory("need at least one past frame")
        n_t, n_c = frames[0].shape
        tracks = self._build_tracks(frames, n_t, n_c, step)
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
            (n_t, n_c), np.array(centers).reshape(-1, 2), np.array(amps), self.sigma
        )

    def _detect(self, frames, step) -> list:
        """Peaks of every frame, detecting each distinct frame once."""
        keys = [(frame.shape, frame.tobytes()) for frame in frames]
        peaks = {} if step is None else step
        for key, frame in zip(keys, frames):
            if key not in peaks:
                known = self._last_peaks.get(key)
                peaks[key] = known if known is not None else detect_peaks(
                    frame, self.max_peaks, self.min_amplitude)
        if step is None:
            self._last_peaks.clear()
            self._last_peaks.update(peaks)
        return [peaks[key] for key in keys]

    def _build_tracks(self, frames, n_t, n_c, step=None) -> list[_Track]:
        for t, frame in enumerate(frames):
            if frame.shape != (n_t, n_c):
                raise DimensionMismatch(
                    f"frame {t} has shape {frame.shape}, expected {(n_t, n_c)}"
                )
        tracks: list[_Track] = []
        for t, detected in enumerate(self._detect(frames, step)):
            # tracks that existed before this frame, reduced onto the grid
            live = [(i, tr.zs[-1] % n_t, tr.qs[-1] % n_c)
                    for i, tr in enumerate(tracks)]
            taken = set()
            for peak in detected:
                best, best_dist, step = None, self.gate, None
                for i, z, q in live:
                    if i in taken:
                        continue
                    dz = _wrap(peak.angle_bin - z, n_t)
                    dq = _wrap(peak.delay_bin - q, n_c)
                    dist = math.hypot(dz, dq)
                    if dist <= best_dist:
                        best, best_dist, step = i, dist, (dz, dq)
                if best is None:
                    tracks.append(
                        _Track([t], [peak.angle_bin], [peak.delay_bin],
                               [peak.amplitude])
                    )
                else:
                    taken.add(best)
                    tr = tracks[best]
                    tr.times.append(t)
                    tr.zs.append(tr.zs[-1] + step[0])
                    tr.qs.append(tr.qs[-1] + step[1])
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
        stack = getattr(history, "ndim", None) == 4
        try:
            x = np.array(history if stack else [list(history)],
                         dtype=np.float64)
        except ValueError as exc:  # frames of different shapes
            raise DimensionMismatch(f"frames differ in shape: {exc}") from exc
        if x.shape[1] == 0:
            raise EmptyHistory("need at least one past frame")
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


def _loss_and_grads(model: ConvRecurrentPredictor, x: np.ndarray):
    """Teacher-forced squared error over a batch of scaled sequences.

    ``x`` is (batch, frames, n_t, n_c), already divided by the model
    scale. Every frame after the first is a target for the prediction
    made from the frames before it. Returns the mean loss and gradients
    in ``parameters()`` order.
    """
    b, t_len, n_t, n_c = x.shape
    h = np.zeros((b, model.hidden_channels, n_t, n_c))
    steps = []
    preds = np.empty((b, t_len - 1, n_t, n_c))
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
    momentum on the teacher-forced next-frame loss.

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
                loss, grads = _loss_and_grads(model, data[sel])
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
