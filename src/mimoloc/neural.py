"""From-scratch convolutional localizer on angle-delay profiles.

Minimal layer zoo (valid/same conv, 2x2 max pool, relu, flatten, dense,
softmax), batched float32 forward/backward, a checkpoint's precision, and
``sgd``: the one seeded mini-batch momentum loop that trains both localizer
heads and the recurrent predictor. Two heads: direct 2D regression on positions
normalized to the unit square, or classification over coarse cells followed by
a similarity-weighted k-nearest refinement inside the predicted cell.

No autograd framework on purpose: every backward pass is written against
the matching forward and is held to finite-difference checks in the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# perfbench's tracer wraps ``similarity`` here
from .adp import similarity, stacked_similarity  # noqa: F401
from .container import (
    check_weight_count,
    read_checkpoint,
    read_weights,
    write_checkpoint,
)
from .errors import DimensionMismatch, DivergedLoss, FormatError, check_int
from .fingerprint import FingerprintDb

CHECKPOINT_MAGIC = b"NNCK"
CHECKPOINT_VERSION = 1


# --- layers ---------------------------------------------------------------

class Layer:
    """What the layers share, with the defaults of a layer without weights.

    ``forward(x)`` keeps in ``_cache`` what ``backward`` needs.
    ``forward(x, train=False)`` is inference: it keeps nothing, and no row
    of its output depends on the other rows of the batch, so a batch of n
    gives the outputs of n batches of one, bit for bit.
    """

    _cache = None

    def out_shape(self, in_shape):
        return in_shape

    def init_params(self, in_shape, rng):
        pass

    def n_weights(self, in_shape) -> int:
        """How many weights the layer holds on an ``in_shape`` input."""
        return 0

    def parameters(self):
        return []

    def gradients(self):
        return []

    def forget(self) -> None:
        """Drop what the last training step left: activations, gradients."""
        self._cache = None


class WeightedLayer(Layer):
    """A layer with a float32 weight ``w`` of ``weight_shape(in_shape)``,
    a bias ``b`` per row of it, and their gradients."""

    w = b = gw = gb = None

    def weight_shape(self, in_shape) -> tuple:
        raise NotImplementedError

    def n_weights(self, in_shape) -> int:
        shape = self.weight_shape(in_shape)
        return math.prod(shape) + shape[0]

    def parameters(self):
        return [self.w, self.b]

    def gradients(self):
        return [self.gw, self.gb]

    def forget(self) -> None:
        self._cache = self.gw = self.gb = None

    def init_params(self, in_shape, rng: np.random.Generator) -> None:
        shape = self.weight_shape(in_shape)
        scale = 1.0 / np.sqrt(math.prod(shape[1:]))
        self.w = rng.uniform(-scale, scale, size=shape).astype(np.float32)
        self.b = np.zeros(shape[0], dtype=np.float32)


@functools.cache
def _column_index(c: int, h: int, w: int, k: int, lo: int,
                  hi: int) -> np.ndarray:
    """Where each column value of a (c, h, w) image lies in its flat copy.

    Entry (y, x, ci, i, j), in C order, is the flat position of input
    pixel (y + i - lo, x + j - lo) of channel ci, or ``c * h * w``, the
    slot of the trailing zero, where that pixel lies in the padding.
    Built once per shape and read-only, as every caller shares it.
    """
    ho, wo = h + lo + hi - k + 1, w + lo + hi - k + 1
    ci, i, j = np.indices((c, k, k)).reshape(3, -1)
    yy = np.arange(ho)[:, None, None] + (i - lo)
    xx = np.arange(wo)[None, :, None] + (j - lo)
    inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
    idx = np.where(inside, ci * (h * w) + yy * w + xx, c * h * w).ravel()
    idx.flags.writeable = False
    return idx


class Conv2d(WeightedLayer):
    """2D convolution, stride 1, 'valid' (default) or 'same' zero padding.

    'same' pads ``(k - 1) // 2`` before and ``k // 2`` after, so an even
    kernel pads one more at the bottom and right. The column matrix is one
    gather: each image is copied once into a flat buffer with one trailing
    zero, and a cached index per input shape (``_column_index``) picks
    every column value from it, the zero standing in for the padding. The
    input gradient is built tap by tap: the gradient is copied once, batch
    last, into an (out, ho*wo*b) plane, and for each tap in (row, column)
    order the tap's (c, out) weights times the plane are added into the
    input pixels the tap reaches, never into the padding. Outputs and
    gradients are bit-identical to a plain pad-and-window im2col whose
    input gradient sums each column value over the output channels in
    order, one fused multiply-add at a time, wherever the BLAS product
    here does the same, as at every float32 shape tested and at every
    float64 one but 16 output channels on a 3x3 'valid' kernel at batch
    1: the columns hold the same values in the same order, and each input
    pixel adds the same products in the same order to the same +0.0,
    where the sign of a zero product cannot show. Over one output channel
    the product is ``np.multiply``, one rounding of ``g * w`` as a
    contraction of length 1 is, and cheaper. A layer with one input
    channel agrees only to rounding: each tap's (1, out) weights times
    the plane run as a BLAS gemv, which does not sum the output channels
    in order. The input gradient is returned C-contiguous, since the
    memory order of an array can change the summation order of a later
    matrix product. A layer whose input is data skips its input gradient
    (``input_grad=False``) and fills only ``gw`` and ``gb``; its trainer
    builds the columns of the whole data set once (``columns``) and runs
    each batch's rows (``forward_columns``).
    """

    def __init__(self, out_channels: int, kernel_size: int, padding: str = "valid"):
        if padding not in ("valid", "same"):
            raise ValueError("padding must be 'valid' or 'same'")
        check_int("out_channels", out_channels)
        check_int("kernel_size", kernel_size)
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding

    def spec(self) -> dict:
        return {
            "kind": "conv2d",
            "out_channels": self.out_channels,
            "kernel_size": self.kernel_size,
            "padding": self.padding,
        }

    def out_shape(self, in_shape):
        c, h, w = in_shape
        k = self.kernel_size
        if self.padding == "valid":
            if h < k or w < k:
                raise DimensionMismatch(
                    f"conv kernel {k} larger than input {h}x{w}"
                )
            return (self.out_channels, h - k + 1, w - k + 1)
        return (self.out_channels, h, w)

    def weight_shape(self, in_shape) -> tuple:
        k = self.kernel_size
        return (self.out_channels, in_shape[0], k, k)

    def _pad(self):
        if self.padding == "valid":
            return 0, 0
        k = self.kernel_size
        return (k - 1) // 2, k // 2

    def columns(self, x: np.ndarray) -> np.ndarray:
        """The (b, ho, wo, c*k*k) column matrix of a (b, c, h, w) batch.

        Row (n, y, x) of it depends on image n alone, so the columns of a
        whole data set may be built once and any batch's rows gathered
        from them. It is a new C-contiguous array.
        """
        b, c, h, w = x.shape
        k = self.kernel_size
        lo, hi = self._pad()
        ho, wo = h + lo + hi - k + 1, w + lo + hi - k + 1
        flat = np.empty((b, c * h * w + 1), dtype=x.dtype)
        flat[:, :-1] = x.reshape(b, c * h * w)
        flat[:, -1] = 0.0
        # every index lies in [0, c*h*w], so "wrap" never wraps; it skips
        # the bounds check that the default "raise" makes
        cols = np.take(flat, _column_index(c, h, w, k, lo, hi), axis=1,
                       mode="wrap")
        return cols.reshape(b, ho, wo, c * k * k)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        return self.forward_columns(self.columns(x), train)

    def forward_columns(self, cols: np.ndarray,
                        train: bool = True) -> np.ndarray:
        """``forward`` of the batch whose column matrix is ``cols``."""
        wmat = self.w.reshape(self.out_channels, -1)
        # one product per output row of each image: a row's result never
        # depends on the batch around it
        y = cols @ wmat.T + self.b
        if train:
            self._cache = cols
        return y.transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray, input_grad: bool = True):
        cols = self._cache
        k = self.kernel_size
        lo, hi = self._pad()
        b, ho, wo = cols.shape[:3]
        c = cols.shape[3] // (k * k)
        gt = grad.transpose(0, 2, 3, 1)  # (B, H', W', out)
        self.gw = np.tensordot(gt, cols, axes=([0, 1, 2], [0, 1, 2])).reshape(
            self.w.shape
        )
        self.gb = gt.sum(axis=(0, 1, 2))
        if not input_grad:
            return None
        # tap (i, j) sends output pixel (y, x) to input pixel
        # (y + i - lo, x + j - lo); with the batch last, each product and
        # add runs over rows of (pixel, batch) values
        h, w = ho + k - 1 - lo - hi, wo + k - 1 - lo - hi
        g = np.ascontiguousarray(grad.transpose(1, 2, 3, 0)).reshape(
            self.out_channels, -1)
        # taps[i, j] is tap (i, j)'s (c, out) weights
        taps = np.ascontiguousarray(self.w.transpose(2, 3, 1, 0))
        product = np.multiply if self.out_channels == 1 else np.matmul
        dx = np.zeros((c, h, w, b), dtype=np.result_type(g, taps))
        for i in range(k):
            y0, y1 = max(i - lo, 0), min(i - lo + ho, h)
            ys = slice(y0 + lo - i, y1 + lo - i)
            for j in range(k):
                x0, x1 = max(j - lo, 0), min(j - lo + wo, w)
                xs = slice(x0 + lo - j, x1 + lo - j)
                p = product(taps[i, j], g).reshape(c, ho, wo, b)
                dx[:, y0:y1, x0:x1] += p[:, ys, xs]
        return np.ascontiguousarray(dx.transpose(3, 0, 1, 2))


def _pool_taps(x: np.ndarray, h2: int, w2: int) -> list:
    """Strided views of the four taps of every 2x2 window of ``x``, in
    row-major window order: top-left, top-right, bottom-left,
    bottom-right."""
    return [x[:, :, dy:2 * h2:2, dx:2 * w2:2] for dy in (0, 1) for dx in (0, 1)]


def _first_wins(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # True where a is at least b, or where a is NaN: a NaN counts as the
    # largest value, as in argmax
    return (a >= b) | (a != a)


def _select(mask: np.ndarray, a: np.ndarray, out: np.ndarray) -> None:
    # out[...] = np.where(mask, a, 0.0) bit for bit, for any float width:
    # a's bits ANDed with all ones or zeros, no branch to mispredict
    bits = np.dtype(f"i{a.itemsize}")
    np.bitwise_and(a.view(bits), -mask.astype(bits), out=out.view(bits))


class MaxPool2x2(Layer):
    """2x2 max pooling, stride 2; odd trailing rows/cols are dropped.

    The gradient of a window goes to one tap: the first maximal tap in
    row-major window order, a NaN counting as the largest value, which is
    the rule of ``argmax`` over the four taps. The forward pass takes pair
    maxima of the four strided taps, top pair, bottom pair, then the two
    pair maxima; the backward pass compares the same taps to route the
    gradient, so inference never builds the masks. Gradients are
    bit-identical to the ``argmax`` form, and so are outputs on any input
    without a negative zero (a ReLU output holds none): where zeros of
    both signs tie for a window's maximum, the sign of the output zero is
    the one ``np.maximum`` returns. Training keeps one layout: the input
    is a ``Relu``'s C-contiguous output, as are the gradient and ``dx``,
    since mixed layouts stop numpy from merging loops.
    """

    def spec(self) -> dict:
        return {"kind": "maxpool2x2"}

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if h < 2 or w < 2:
            raise DimensionMismatch(f"cannot pool {h}x{w} input")
        return (c, h // 2, w // 2)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        tl, tr, bl, br = _pool_taps(x, x.shape[2] // 2, x.shape[3] // 2)
        # later tap first: np.maximum returns its second operand on a tie
        top, bottom = np.maximum(tr, tl), np.maximum(br, bl)
        if train:
            self._cache = (x, top, bottom)
        return np.maximum(bottom, top)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, top, bottom = self._cache
        h2, w2 = grad.shape[2:]
        tl, tr, bl, br = _pool_taps(x, h2, w2)
        left_top, left_bottom = _first_wins(tl, tr), _first_wins(bl, br)
        top_wins = _first_wins(top, bottom)
        bottom_wins = ~top_wins
        dx = np.zeros(x.shape, dtype=grad.dtype)
        dtl, dtr, dbl, dbr = _pool_taps(dx, h2, w2)
        _select(top_wins & left_top, grad, dtl)
        _select(top_wins & ~left_top, grad, dtr)
        _select(bottom_wins & left_bottom, grad, dbl)
        _select(bottom_wins & ~left_bottom, grad, dbr)
        return dx


class Relu(Layer):
    """max(x, 0), a NaN giving +0.0. Training takes the input C-contiguous,
    the gradients' layout, since mixed layouts stop numpy from merging
    loops: a channels-last conv output made ``backward`` 10x slower."""

    def spec(self) -> dict:
        return {"kind": "relu"}

    def forward(self, x, train: bool = True):
        if train:
            x = np.ascontiguousarray(x)
            self._cache = x > 0
        # where(x > 0, x, 0) in two cheap passes: fmax maps NaN to +0.0,
        # and adding 0.0 turns the -0.0 that fmax keeps in its scalar tail
        # loop into +0.0
        out = np.fmax(x, 0.0)
        out += 0.0
        return out

    def backward(self, grad):
        return grad * self._cache


class Flatten(Layer):
    def spec(self) -> dict:
        return {"kind": "flatten"}

    def out_shape(self, in_shape):
        return (math.prod(in_shape),)

    def forward(self, x, train: bool = True):
        if train:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._cache)


class Dense(WeightedLayer):
    """Fully connected layer. Training takes one matrix product for the
    whole batch; inference takes one per row, since a blocked product over
    many rows may sum a row's terms in another order than it does for a
    single row."""

    def __init__(self, out_width: int):
        check_int("out_width", out_width)
        self.out_width = out_width

    def spec(self) -> dict:
        return {"kind": "dense", "out_width": self.out_width}

    def out_shape(self, in_shape):
        if len(in_shape) != 1:
            raise DimensionMismatch("dense layer needs a flat input")
        return (self.out_width,)

    def weight_shape(self, in_shape) -> tuple:
        return (self.out_width, in_shape[0])

    def forward(self, x, train: bool = True):
        if not train:
            return (x[:, None, :] @ self.w.T)[:, 0] + self.b
        self._cache = x
        return x @ self.w.T + self.b

    def backward(self, grad, input_grad: bool = True):
        self.gw = grad.T @ self._cache
        self.gb = grad.sum(axis=0)
        return grad @ self.w if input_grad else None


class Softmax(Layer):
    def spec(self) -> dict:
        return {"kind": "softmax"}

    def out_shape(self, in_shape):
        if len(in_shape) != 1:
            raise DimensionMismatch("softmax needs a flat input")
        return in_shape

    def forward(self, x, train: bool = True):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        if train:
            self._cache = p
        return p

    def backward(self, grad):
        p = self._cache
        return p * (grad - (grad * p).sum(axis=1, keepdims=True))


_LAYER_KINDS = {
    "conv2d": lambda s: Conv2d(s["out_channels"], s["kernel_size"], s["padding"]),
    "maxpool2x2": lambda s: MaxPool2x2(),
    "relu": lambda s: Relu(),
    "flatten": lambda s: Flatten(),
    "dense": lambda s: Dense(s["out_width"]),
    "softmax": lambda s: Softmax(),
}


# --- model ----------------------------------------------------------------

@dataclass(frozen=True)
class ClassifierGrid:
    """Coarse cell partition of the database extent for the classifier head."""

    n_rows: int
    n_cols: int

    def __post_init__(self):
        check_int("cells n_rows", self.n_rows)
        check_int("cells n_cols", self.n_cols)

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    def cell_of(self, position, extent):
        """Cell index of one (x, y) point, or an int array of the cell
        indices of every row of an (n, 2) array of points.

        Coordinates are truncated toward zero, then clamped into the grid.
        """
        x0, y0, x1, y1 = extent
        dx = (x1 - x0) / self.n_cols if x1 > x0 else 1.0
        dy = (y1 - y0) / self.n_rows if y1 > y0 else 1.0
        p = np.asarray(position, dtype=float)
        col = np.minimum(((p[..., 0] - x0) / dx).astype(int), self.n_cols - 1)
        row = np.minimum(((p[..., 1] - y0) / dy).astype(int), self.n_rows - 1)
        cell = np.maximum(0, row) * self.n_cols + np.maximum(0, col)
        return int(cell) if cell.ndim == 0 else cell


@dataclass(frozen=True)
class Head:
    """Output head: 'regression' to 2D coordinates or 'classification'
    over a ClassifierGrid of cells."""

    kind: str
    cells: ClassifierGrid | None = None

    def __post_init__(self):
        if self.kind not in ("regression", "classification"):
            raise ValueError("head kind must be regression or classification")
        if self.kind == "classification" and self.cells is None:
            raise ValueError("classification head needs a ClassifierGrid")

    @property
    def out_width(self) -> int:
        return 2 if self.kind == "regression" else self.cells.n_cells


class Model:
    """Layer stack plus head bookkeeping and position normalization."""

    def __init__(self, layers, input_shape, head: Head, seed: int,
                 normalize_input: bool = False):
        self.layers = layers
        self.input_shape = tuple(input_shape)  # (1, n_t, n_c)
        self.head = head
        self.seed = seed
        self.normalize_input = normalize_input
        self.pos_offset = np.zeros(2)
        self.pos_scale = np.ones(2)

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self):
        return [g for layer in self.layers for g in layer.gradients()]

    def forward_batch(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """The stack's output for a batch ``x``; ``train=False`` is
        inference (see ``Layer``)."""
        return self.forward_training(self.training_input(x), train)

    def training_input(self, x: np.ndarray) -> np.ndarray:
        """What ``forward_training`` takes for the input batch ``x``: the
        batch, normalized if the model normalizes its input, or, when the
        first layer is a ``Conv2d``, that batch's column matrix.

        A row of it depends on its own input row alone, so a training set
        is prepared once and each batch gathers its rows.
        """
        x = self._normalized(x)
        first = self.layers[0]
        return first.columns(x) if isinstance(first, Conv2d) else x

    def forward_training(self, x: np.ndarray,
                         train: bool = True) -> np.ndarray:
        """The stack's output for the batch whose ``training_input`` is
        ``x``. Training keeps ``Relu`` outputs C-contiguous, as gradients
        are, since mixed layouts stop numpy from merging loops."""
        # ``x`` is rebound at every layer, so inference frees the column
        # matrix once the first layer is done with it, as
        # ``Conv2d.forward`` does: held through the later layers, it made
        # inference on a batch of 30 profiles about 40% slower
        first = self.layers[0]
        x = (first.forward_columns(x, train) if isinstance(first, Conv2d)
             else first.forward(x, train))
        for layer in self.layers[1:]:
            x = layer.forward(x, train)
        return x

    def _normalized(self, x: np.ndarray) -> np.ndarray:
        # each row divided by its own peak magnitude, a zero row left zero
        if x.shape[1:] != self.input_shape:
            raise DimensionMismatch(
                f"input shape {x.shape[1:]}, expected {self.input_shape}"
            )
        if not self.normalize_input:
            return x
        peak = np.abs(x).max(axis=(1, 2, 3), keepdims=True)
        return np.divide(x, peak, out=x.copy(), where=peak > 0)

    def backward_batch(self, grad: np.ndarray, skip_top: int = 0) -> None:
        """Fill every layer's parameter gradients from ``grad``, the
        gradient at the output of the stack without its top ``skip_top``
        layers.

        The input is data, so nothing below the first layer with
        parameters is backpropagated, and that layer computes no input
        gradient.
        """
        layers = self.layers[:len(self.layers) - skip_top]
        first = next(i for i, layer in enumerate(layers) if layer.parameters())
        for layer in reversed(layers[first + 1:]):
            grad = layer.backward(grad)
        layers[first].backward(grad, input_grad=False)

    def normalize_positions(self, positions: np.ndarray) -> np.ndarray:
        return (positions - self.pos_offset) / self.pos_scale

    def denormalize_positions(self, coords: np.ndarray) -> np.ndarray:
        return coords * self.pos_scale + self.pos_offset


def _layer_chain(layer_specs: list[dict], input_shape: tuple,
                 head: Head) -> list:
    """(layer, its input shape) for each of ``layer_specs``, no weights
    made yet.

    Raises:
        DimensionMismatch: if shapes do not chain, or the final width does
            not match the head.
    """
    chain = []
    shape = tuple(input_shape)
    for spec in layer_specs:
        kind = spec.get("kind")
        if kind not in _LAYER_KINDS:
            raise ValueError(f"unknown layer kind {kind!r}")
        layer = _LAYER_KINDS[kind](spec)
        chain.append((layer, shape))
        shape = layer.out_shape(shape)  # validates
    if shape != (head.out_width,):
        raise DimensionMismatch(
            f"stack emits {shape}, head needs ({head.out_width},)"
        )
    return chain


def build_model(
    layer_specs: list[dict],
    input_shape: tuple[int, int, int],
    head: Head,
    seed: int = 0,
    normalize_input: bool = False,
) -> Model:
    """Instantiate a model and validate the whole dimension chain.

    Raises:
        DimensionMismatch: if shapes do not chain, or the final width does
            not match the head.
    """
    rng = np.random.default_rng(seed)
    chain = _layer_chain(layer_specs, input_shape, head)
    for layer, shape in chain:
        layer.init_params(shape, rng)
    return Model([layer for layer, _ in chain], input_shape, head, seed,
                 normalize_input)


def default_localizer_spec(n_t: int, n_c: int, head: Head) -> list[dict]:
    """Same-padded conv blocks with a single pool, then dense layers.

    Same padding with one pool keeps most of the spatial detail of the
    profile alive into the dense layers. At desk scale the informative
    part of a profile is the subpixel sidelobe structure around a couple
    of peaks, and stacked valid convolutions and pools average exactly
    that away (fits stall around twice the grid spacing).
    """
    spec: list[dict] = [
        {"kind": "conv2d", "out_channels": 8, "kernel_size": 3,
         "padding": "same"},
        {"kind": "relu"},
    ]
    if n_t >= 2 and n_c >= 2:
        spec.append({"kind": "maxpool2x2"})
    spec += [
        {"kind": "conv2d", "out_channels": 16, "kernel_size": 3,
         "padding": "same"},
        {"kind": "relu"},
        {"kind": "flatten"},
        {"kind": "dense", "out_width": 128},
        {"kind": "relu"},
        {"kind": "dense", "out_width": head.out_width},
    ]
    if head.kind == "classification":
        spec.append({"kind": "softmax"})
    return spec


def forward(model: Model, adp: np.ndarray) -> np.ndarray:
    """Inference on one profile (n_t, n_c), or on a stack (n, n_t, n_c).

    Regression heads return the denormalized 2D position estimate;
    classification heads return the cell probability vector; a stack gets
    one row per profile, bit for bit the output of its own single call.
    """
    x = np.asarray(adp, dtype=np.float32)
    out = model.forward_batch(x.reshape((-1, 1) + x.shape[-2:]), train=False)
    if model.head.kind == "regression":
        out = model.denormalize_positions(out)
    return out[0] if x.ndim == 2 else out


# --- training -------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    seed: int = 0


def sgd(params, n: int, loss_and_grads, cfg: TrainConfig) -> list[float]:
    """Seeded mini-batch SGD with momentum over ``n`` examples.

    Each epoch steps through a permutation of the examples, drawn from a
    generator seeded with ``cfg.seed``, in batches of ``cfg.batch_size``.
    ``loss_and_grads(sel)`` returns the mean loss over the examples
    ``sel`` and the gradients in ``params`` order; each parameter is then
    updated in place: ``v = momentum * v - learning_rate * g; p += v``.
    At momentum 0 this gives the weights of ``p -= learning_rate * g``.
    ``learning_rate * g`` goes into a scratch array made once per
    parameter, of its layout: the same roundings, no temporary per step.

    Returns:
        The per-epoch mean loss curve.

    Raises:
        DivergedLoss: on the first non-finite batch loss.
    """
    rng = np.random.default_rng(cfg.seed)
    velocity = [np.zeros_like(p) for p in params]
    scratch = [np.empty_like(p) for p in params]
    curve = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            sel = perm[start:start + cfg.batch_size]
            # overflow here just means the loss is about to be caught below
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = loss_and_grads(sel)
            if not np.isfinite(loss):
                raise DivergedLoss(f"loss became {loss}")
            total += loss * len(sel)
            for p, g, v, s in zip(params, grads, velocity, scratch):
                v *= cfg.momentum
                v -= np.multiply(g, cfg.learning_rate, out=s)
                p += v
        curve.append(total / n)
    return curve


def _loss_and_grads(model: Model, data, y):
    # ``data``: the batch's rows of the training set's ``training_input``;
    # returns the mean loss and the gradients in ``parameters()`` order
    out = model.forward_training(data)
    b = len(data)
    if model.head.kind == "regression":
        diff = out - y
        loss = float(np.sum(diff * diff) / b)
        model.backward_batch(2.0 * diff / b)
    else:
        # the stack ends in Softmax; cross-entropy gradient through it is
        # (p - onehot), pushed through the softmax backward as logits grad
        p = out
        eps = 1e-12
        loss = float(-np.mean(np.log(p[np.arange(b), y] + eps)))
        grad_logits = p.copy()
        grad_logits[np.arange(b), y] -= 1.0
        grad_logits /= b
        # invert the softmax layer: feed the logits-space gradient around it
        if not isinstance(model.layers[-1], Softmax):
            raise DimensionMismatch("classification stack must end in softmax")
        model.backward_batch(grad_logits, skip_top=1)
    return loss, model.gradients()


def training_data(model: Model, db: FingerprintDb):
    """(float32 inputs, targets) for a database, without zero profiles."""
    keep = ~db.zero_flags
    x = np.asarray(db.adps[keep], dtype=np.float32)[:, None, :, :]
    if model.head.kind == "regression":
        y = model.normalize_positions(db.positions[keep]).astype(np.float32)
    else:
        y = model.head.cells.cell_of(db.positions[keep], db.grid.extent())
    return x, y


def train(model: Model, db: FingerprintDb, cfg: TrainConfig) -> list[float]:
    """Fit the model to the fingerprint database with ``sgd``.

    Sets the model's position normalization from the database grid. The
    usable prints are normalized, and the first layer's columns built,
    once for the whole call (``Model.training_input``), and each batch
    gathers its rows: the same weights and losses as preparing every batch
    on its own. Returns the per-epoch mean loss curve. The trained model
    keeps no activations or gradients of its last step.

    Raises:
        DivergedLoss: on the first non-finite batch loss.
    """
    extent = db.grid.extent()
    model.pos_offset = np.array([extent[0], extent[1]])
    model.pos_scale = np.array(
        [max(extent[2] - extent[0], 1e-12), max(extent[3] - extent[1], 1e-12)]
    )
    x, y = training_data(model, db)
    n = len(x)
    if n == 0:
        raise ValueError("database has no usable fingerprints")
    data = model.training_input(x)
    curve = sgd(model.parameters(), n,
                lambda sel: _loss_and_grads(model, data[sel], y[sel]), cfg)
    for layer in model.layers:
        layer.forget()
    return curve


# --- classification + weighted k-nearest refinement -----------------------

class WknnResult(NamedTuple):
    position: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    used_fallback: bool


def print_cells(model: Model, db: FingerprintDb):
    """(indices of the usable prints, the classifier cell of each)."""
    usable = np.flatnonzero(~db.zero_flags)
    return usable, model.head.cells.cell_of(db.positions[usable],
                                            db.grid.extent())


def _wknn(adps, members, db: FingerprintDb, k: int):
    """Fuse, for each profile of a stack, the k prints of ``members`` most
    similar to it.

    One ``stacked_similarity`` product scores the whole (g, n_t, n_c)
    float64 stack against the members, the same rows for every profile.
    Returns (positions (g, 2), chosen prints (g, k'), weights (g, k')),
    k' = min(k, len(members)); row j is what profile j gets alone.
    """
    if adps.shape[1:] != db.adps.shape[1:]:
        raise DimensionMismatch(
            f"profile shapes {adps.shape[1:]} vs {db.adps.shape[1:]}")
    size = math.prod(db.adps.shape[1:])
    rows = db.adps[members].astype(np.float64).reshape(len(members), size)
    sims = stacked_similarity(adps.reshape(len(adps), size), rows,
                              db.norms[members])
    order = np.lexsort((np.broadcast_to(members, sims.shape), -sims),
                       axis=-1)[:, :min(k, len(members))]
    chosen = members[order]
    w = sims[np.arange(len(sims))[:, None], order]
    total = w.sum(axis=-1, keepdims=True)
    w = np.divide(w, total, out=np.full_like(w, 1.0 / w.shape[1]),
                  where=total > 0)
    return (w[:, None, :] @ db.positions[chosen])[:, 0], chosen, w


def classify_then_wknn(model: Model, adp: np.ndarray, db: FingerprintDb,
                       k: int = 3) -> WknnResult:
    """Pick the most likely cell, then fuse the k most similar prints in it.

    Weights are the similarities normalized to sum to one, so the estimate
    stays inside the convex hull of the selected fingerprints. A predicted
    cell with no usable fingerprint falls back to a whole-database search
    (flagged in the result). A zero total similarity degrades to uniform
    weights. The refinement is ``_wknn`` on a stack of one.
    """
    usable, cell_of_print = print_cells(model, db)
    members = usable[cell_of_print == int(np.argmax(forward(model, adp)))]
    used_fallback = len(members) == 0
    if used_fallback:
        members = usable
    position, chosen, w = _wknn(np.asarray(adp, dtype=np.float64)[None],
                                members, db, k)
    return WknnResult(position[0], chosen[0], w[0], used_fallback)


# --- localizer adapters ----------------------------------------------------
# a localizer maps one profile (n_t, n_c) to its position (2,), and a stack
# of profiles (n, n_t, n_c) to one position per profile (n, 2), each row
# bit for bit the position of its own single call

class RegressionLocalizer:
    """Callable adp -> position using a regression-head model.

    Outputs are clipped to the extent the model was fingerprinted on. A
    small network fed a profile far from anything it saw in training can
    extrapolate to coordinates several boxes away, and no deployment would
    report a fix outside the surveyed area.
    """

    def __init__(self, model: Model):
        if model.head.kind != "regression":
            raise ValueError("needs a regression head")
        self.model = model

    def __call__(self, adp: np.ndarray) -> np.ndarray:
        position = forward(self.model, adp)
        low = self.model.pos_offset
        return np.clip(position, low, low + self.model.pos_scale)


class ClassifierWknnLocalizer:
    """Callable adp -> position using cell classification + refinement.

    One forward pass classifies a whole stack, and the profiles that land
    in one cell are refined together, in one product against that cell's
    prints, or against every usable print when the cell has none (the
    fallback of ``classify_then_wknn``). The cell of every usable print is
    computed once.
    """

    def __init__(self, model: Model, db: FingerprintDb, k: int = 3):
        if model.head.kind != "classification":
            raise ValueError("needs a classification head")
        self.model = model
        self.db = db
        self.k = k
        self.cells = print_cells(model, db)

    def __call__(self, adp: np.ndarray) -> np.ndarray:
        adps = np.asarray(adp, dtype=np.float64)
        stack = adps.reshape((-1,) + adps.shape[-2:])
        probs = forward(self.model, stack)
        picked = np.argmax(probs, axis=1)
        usable, cell_of_print = self.cells
        out = np.empty((len(stack), 2))
        for cell in np.unique(picked):
            sel = np.flatnonzero(picked == cell)
            members = usable[cell_of_print == cell]
            if not len(members):
                members = usable
            out[sel] = _wknn(stack[sel], members, self.db, self.k)[0]
        return out[0] if adps.ndim == 2 else out


# --- checkpoints -----------------------------------------------------------

def save_model(model: Model, path) -> None:
    """Self-describing checkpoint: JSON header + little-endian f32 blobs."""
    header = {
        "layer_specs": [layer.spec() for layer in model.layers],
        "input_shape": list(model.input_shape),
        "head": {
            "kind": model.head.kind,
            "cells": (
                [model.head.cells.n_rows, model.head.cells.n_cols]
                if model.head.cells
                else None
            ),
        },
        "seed": model.seed,
        "normalize_input": model.normalize_input,
        "pos_offset": [float(v) for v in model.pos_offset],
        "pos_scale": [float(v) for v in model.pos_scale],
    }
    write_checkpoint(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header,
                     model.parameters())


def load_model(path) -> Model:
    """Rebuild a model saved by ``save_model``.

    The header is checked, and the weight count it implies compared with
    the body, before any weight is made.

    Raises:
        TruncatedFile: the file is cut short, or holds fewer weights than
            its header implies.
        FormatError: bad magic, trailing bytes, or a header that does not
            describe a model: a bad input size, layer size, classifier
            cell count, seed or ``normalize_input``, layers that do not
            chain from the input shape to the head, or a position
            normalization that is not two finite numbers (scales above
            0) per field.
        VersionError: unsupported checkpoint version.
    """
    header, body = read_checkpoint(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    try:
        check_int("seed", header["seed"], least=0)
        if not isinstance(header["normalize_input"], bool):
            raise ValueError("normalize_input must be true or false")
        for size in header["input_shape"]:
            check_int("input_shape", size)
        cells = header["head"]["cells"]
        head = Head(
            kind=header["head"]["kind"],
            cells=ClassifierGrid(cells[0], cells[1]) if cells else None,
        )
        input_shape = tuple(header["input_shape"])
        chain = _layer_chain(header["layer_specs"], input_shape, head)
        pos_offset = np.array(header["pos_offset"], dtype=float)
        pos_scale = np.array(header["pos_scale"], dtype=float)
        if (pos_offset.shape != (2,) or pos_scale.shape != (2,)
                or not np.isfinite(pos_offset).all()
                or not 0.0 < pos_scale.min() < np.inf):
            raise ValueError("pos_offset and pos_scale must each be two "
                             "finite numbers, pos_scale above 0")
    except (AttributeError, DimensionMismatch, LookupError, TypeError,
            ValueError) as exc:
        raise FormatError(f"checkpoint header does not describe a model: "
                          f"{exc!r}") from exc
    # the weight count the header implies, checked before any is made
    check_weight_count(body, sum(layer.n_weights(shape)
                                 for layer, shape in chain))
    model = build_model(header["layer_specs"], input_shape, head,
                        seed=header["seed"],
                        normalize_input=header["normalize_input"])
    model.pos_offset, model.pos_scale = pos_offset, pos_scale
    read_weights(body, model.parameters())
    return model
