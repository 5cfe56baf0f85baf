"""Layer-by-layer gradient checks and training behavior for the localizer."""

import pickle
from fractions import Fraction

import numpy as np
import oracles
import pytest
from oracles import ReferenceConv2d, ReferenceMaxPool2x2, classifier_cell

from mimoloc import neural, predictor
from mimoloc.container import read_checkpoint, write_checkpoint
from mimoloc.errors import (
    DimensionMismatch,
    DivergedLoss,
    FormatError,
    MimolocError,
    TruncatedFile,
)
from mimoloc.fingerprint import FingerprintDb, GridSpec
from mimoloc.neural import (
    CHECKPOINT_MAGIC,
    ClassifierGrid,
    ClassifierWknnLocalizer,
    Conv2d,
    Dense,
    Flatten,
    Head,
    Layer,
    MaxPool2x2,
    Model,
    RegressionLocalizer,
    Relu,
    Softmax,
    TrainConfig,
    WeightedLayer,
    build_model,
    classify_then_wknn,
    default_localizer_spec,
    forward,
    load_model,
    save_model,
    train,
)
from mimoloc.predictor import (
    PREDICTOR_MAGIC,
    ConvRecurrentPredictor,
    load_predictor,
    save_predictor,
    train_predictor,
)

RNG = np.random.default_rng(0)


def rel_err(a, b):
    denom = max(float(np.max(np.abs(a) + np.abs(b))), 1e-8)
    return float(np.max(np.abs(a - b))) / denom


def fd_input_grad(f, x, h=1e-4):
    g = np.zeros_like(x, dtype=float)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        hi = f()
        xf[i] = orig - h
        lo = f()
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * h)
    return g


def widen(layers):
    """Cast the layers' float32 weights to float64 for a finite-difference
    check: rounding a 1e-4 step to float32 would swamp it."""
    for layer in layers:
        if isinstance(layer, WeightedLayer):
            layer.w, layer.b = (layer.w.astype(np.float64),
                                layer.b.astype(np.float64))


def check_layer(layer, x, seed=1):
    """FD-check input and parameter gradients through a squared loss."""
    rng = np.random.default_rng(seed)
    layer.init_params(x.shape[1:], rng)
    widen([layer])
    target = rng.standard_normal(layer.forward(x).shape)

    def loss():
        return float(np.sum((layer.forward(x) - target) ** 2))

    out = layer.forward(x)
    dx = layer.backward(2.0 * (out - target))
    assert rel_err(dx, fd_input_grad(loss, x)) < 1e-4
    for p, g in zip(layer.parameters(), layer.gradients()):
        num = fd_input_grad(loss, p)
        assert rel_err(g, num) < 1e-4


class TestLayerGradients:
    def test_dense(self):
        check_layer(Dense(3), RNG.standard_normal((4, 5)))

    def test_dense_mse_gradient_closed_form(self):
        # single unit, single sample: dL/dw = 2*(pred - target)*x
        layer = Dense(1)
        x = np.array([[1.5, -2.0, 0.5]])
        layer.w = np.array([[0.3, 0.1, -0.2]])
        layer.b = np.zeros(1)
        target = 1.0
        pred = layer.forward(x)
        layer.backward(2.0 * (pred - target))
        np.testing.assert_allclose(layer.gw, 2.0 * (pred - target) * x)

    def test_conv_valid(self):
        check_layer(Conv2d(3, 3, "valid"), RNG.standard_normal((2, 2, 6, 6)))

    def test_conv_same(self):
        check_layer(Conv2d(2, 3, "same"), RNG.standard_normal((2, 2, 5, 5)))

    def test_conv_zero_input_zero_weight_grad(self):
        layer = Conv2d(2, 3)
        layer.init_params((1, 5, 5), np.random.default_rng(0))
        out = layer.forward(np.zeros((1, 1, 5, 5)))
        layer.backward(np.ones_like(out))
        assert not np.any(layer.gw)

    def test_relu(self):
        x = RNG.standard_normal((3, 4, 5, 5))
        x[np.abs(x) < 1e-2] = 0.5  # stay clear of the kink
        check_layer(Relu(), x)

    def test_maxpool(self):
        check_layer(MaxPool2x2(), RNG.standard_normal((2, 2, 6, 6)))

    def test_maxpool_forward_example(self):
        y = MaxPool2x2().forward(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert y.reshape(()) == 4.0

    def test_maxpool_odd_dims_floor(self):
        y = MaxPool2x2().forward(RNG.standard_normal((1, 1, 5, 7)))
        assert y.shape == (1, 1, 2, 3)

    def test_flatten(self):
        check_layer(Flatten(), RNG.standard_normal((2, 3, 4, 4)))

    def test_softmax(self):
        check_layer(Softmax(), RNG.standard_normal((4, 6)))

    def test_softmax_rows_normalized(self):
        p = Softmax().forward(RNG.standard_normal((5, 7)) * 10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all()


def layouts(a):
    """``a`` in C order, and the same values in channels-last memory, the
    order in which a conv output reaches the next layer."""
    return [a, np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


class TestKernelsMatchReference:
    """The layers against their plainer reference forms: equal to the bit."""

    # the one shape whose (3, 16) @ (16, 35) float64 tap products OpenBLAS
    # 0.3.31 sums out of channel order: 20 of its 189 input-gradient
    # values differ from the reference's fixed order, by 2.2e-16 at most
    OUT_OF_ORDER = {("valid", 3, 1, 16, np.float64)}

    @pytest.mark.parametrize("out_channels,dtype", [
        (1, np.float32), (4, np.float32), (4, np.float64), (16, np.float32),
        (16, np.float64)])
    @pytest.mark.parametrize("batch", [0, 1, 8, 32])
    @pytest.mark.parametrize("padding,k", [
        ("valid", 3), ("same", 3), ("valid", 2), ("same", 2),
        ("valid", 1), ("same", 1), ("valid", 5), ("same", 5)])
    def test_conv(self, padding, k, batch, out_channels, dtype):
        rng = np.random.default_rng(batch * 10 + k)
        layer = Conv2d(out_channels, k, padding)
        layer.init_params((3, 7, 9), rng)
        ref = ReferenceConv2d(out_channels, k, padding)
        ref.w, ref.b = layer.w, layer.b
        x = rng.standard_normal((batch, 3, 7, 9)).astype(dtype)
        lo, hi = layer._pad()
        in_order = ((padding, k, batch, out_channels, dtype)
                    not in self.OUT_OF_ORDER)
        # the gather index is shared by every call on this shape
        assert not neural._column_index(3, 7, 9, k, lo, hi).flags.writeable
        for xi in layouts(x):
            cols = layer.columns(xi)
            assert_same_bits(cols, ReferenceConv2d.columns(layer, xi))
            assert cols.flags.c_contiguous
            assert not np.shares_memory(cols, xi)
            y = layer.forward(xi)
            assert_same_bits(y, ref.forward(xi))
            for g in layouts(rng.standard_normal(y.shape).astype(dtype)):
                dx = layer.backward(g)
                if in_order:
                    assert_same_bits(dx, ref.backward(g))
                else:
                    np.testing.assert_allclose(dx, ref.backward(g), rtol=0,
                                               atol=1e-15)
                assert dx.flags.c_contiguous
                assert_same_bits(layer.gw, ref.gw)
                assert_same_bits(layer.gb, ref.gb)
                # a first layer skips its input gradient, and nothing else
                assert layer.backward(g, input_grad=False) is None
                assert_same_bits(layer.gw, ref.gw)
                assert_same_bits(layer.gb, ref.gb)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reference_fma_rounds_once(self, dtype):
        # the reference's fused multiply-add against exact rational
        # arithmetic, over operands whose exponents differ widely
        rng = np.random.default_rng(7)
        a, b, c = (rng.standard_normal(2000) * np.exp2(
            rng.integers(-40, 40, 2000)) for _ in range(3))
        a, b, c = a.astype(dtype), b.astype(dtype), c.astype(dtype)
        got = oracles.fma(a, b, c)
        assert got.dtype == dtype
        for x, y, z, r in zip(a, b, c, got):
            exact = Fraction(float(x)) * Fraction(float(y)) + Fraction(float(z))
            # no neighbor of the result lies nearer the exact value
            err = abs(Fraction(float(r)) - exact)
            for toward in (np.inf, -np.inf):
                neighbor = np.nextafter(r, dtype(toward))
                assert err <= abs(Fraction(float(neighbor)) - exact)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("out_channels", [1, 4, 16])
    def test_conv_input_grad_ignores_memory_layout(self, out_channels, dtype):
        # a conv output reaches the next layer channels-last, and its
        # gradient may come back in either order
        rng = np.random.default_rng(out_channels)
        layer = Conv2d(out_channels, 3, "same")
        layer.init_params((3, 7, 9), rng)
        layer.forward(rng.standard_normal((8, 3, 7, 9)).astype(dtype))
        c_order, channels_last = layouts(
            rng.standard_normal((8, out_channels, 7, 9)).astype(dtype))
        assert_same_bits(layer.backward(c_order), layer.backward(channels_last))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_conv_one_output_channel(self, k, padding, dtype):
        # the predictor's output layer: each tap's product over its one
        # channel is a plain multiply, where the reference makes a matrix
        # product of contraction length 1. The gradient is masked the way
        # the predictor masks it (pre_out > 0), so it holds zeros of both
        # signs
        rng = np.random.default_rng(k)
        layer = Conv2d(1, k, padding)
        layer.init_params((5, 7, 9), rng)
        layer.w = layer.w.astype(dtype)
        ref = ReferenceConv2d(1, k, padding)
        ref.w, ref.b = layer.w, layer.b
        x = rng.standard_normal((8, 5, 7, 9)).astype(dtype)
        y = layer.forward(x)
        assert_same_bits(y, ref.forward(x))
        g = rng.standard_normal(y.shape).astype(dtype) * (y > 0.0)
        g[g == 0.0] *= np.resize([1.0, -1.0], int(np.sum(g == 0.0)))
        assert np.signbit(g[g == 0.0]).any() and not np.signbit(g).all()
        for gi in layouts(g):
            got, want = layer.backward(gi), ref.backward(gi)
            assert_same_bits(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert got.flags.c_contiguous
            assert_same_bits(layer.gw, ref.gw)
            assert_same_bits(layer.gb, ref.gb)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("out_channels", [4, 16])
    @pytest.mark.parametrize("padding,k", [
        ("valid", 3), ("same", 3), ("valid", 1)])
    def test_conv_one_input_channel(self, padding, k, out_channels, dtype):
        # each tap's (1, out) weight row times the gradient plane runs as
        # a gemv, which does not sum the output channels in order, so the
        # input gradient equals the reference's only to rounding: within
        # twice the error bound of a sum of out + k * k terms, scaled by
        # the sum of the products' magnitudes
        rng = np.random.default_rng(out_channels + k)
        layer = Conv2d(out_channels, k, padding)
        layer.init_params((1, 7, 9), rng)
        ref = ReferenceConv2d(out_channels, k, padding)
        ref.w, ref.b = layer.w, layer.b
        x = rng.standard_normal((8, 1, 7, 9)).astype(dtype)
        y = layer.forward(x)
        assert_same_bits(y, ref.forward(x))
        g = rng.standard_normal(y.shape).astype(dtype)
        got, want = layer.backward(g), ref.backward(g)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert_same_bits(layer.gw, ref.gw)
        assert_same_bits(layer.gb, ref.gb)
        ref.w = np.abs(layer.w)
        magnitude = ref.backward(np.abs(g))
        bound = 2 * (out_channels + k * k) * np.finfo(got.dtype).eps
        assert (np.abs(got - want) <= bound * magnitude).all()

    @pytest.mark.parametrize("batch", [1, 8, 32])
    @pytest.mark.parametrize("h,w", [(8, 8), (7, 9)])
    @pytest.mark.parametrize("values", ["continuous", "ties"])
    def test_maxpool(self, values, h, w, batch):
        rng = np.random.default_rng(batch + h)
        if values == "ties":
            # three levels plus relu-style zeros: most windows tie
            x = np.maximum(rng.integers(-1, 3, size=(batch, 3, h, w)), 0.0)
        else:
            x = rng.standard_normal((batch, 3, h, w))
        layer, ref = MaxPool2x2(), ReferenceMaxPool2x2()
        for dtype in (np.float64, np.float32):
            for xi in layouts(x.astype(dtype)):
                y = layer.forward(xi)
                assert_same_bits(y, ref.forward(xi))
                g = rng.standard_normal(y.shape).astype(dtype)
                # a winning tap passes -0.0, NaN and inf on with their sign
                special = g.copy()
                special.flat[::2] = np.resize(
                    [-0.0, np.nan, -np.nan, np.inf, -np.inf, 0.0],
                    special.flat[::2].size)
                for gi in (g, special):
                    got, want = layer.backward(gi), ref.backward(gi)
                    assert_same_bits(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_maxpool_tie_goes_to_first_tap(self):
        layer = MaxPool2x2()
        x = np.array([[[[1.0, 2.0], [2.0, 2.0]]]])
        layer.forward(x)
        dx = layer.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(dx[0, 0], [[0.0, 1.0], [0.0, 0.0]])

    def test_maxpool_nan_wins_like_argmax(self):
        x = np.array([[[[1.0, np.nan], [3.0, np.nan]],
                       [[np.nan, 5.0], [2.0, 7.0]]]])
        layer, ref = MaxPool2x2(), ReferenceMaxPool2x2()
        y = layer.forward(x)
        assert np.isnan(y).all()
        assert_same_bits(y, ref.forward(x))
        g = np.array([[[[1.5]], [[-2.0]]]])
        assert_same_bits(layer.backward(g), ref.backward(g))

    @staticmethod
    def use_reference_layers(monkeypatch):
        # the trainers build a data layer's columns with ``columns`` and
        # run it with ``forward_columns``, so the reference columns too
        monkeypatch.setattr(Conv2d, "columns", ReferenceConv2d.columns)
        for cls, ref in ((Conv2d, ReferenceConv2d),
                         (MaxPool2x2, ReferenceMaxPool2x2)):
            monkeypatch.setattr(cls, "forward", ref.forward)
            monkeypatch.setattr(cls, "backward", ref.backward)

    @pytest.mark.parametrize("head", [
        Head("regression"), Head("classification", ClassifierGrid(2, 2))])
    def test_localizer_training(self, monkeypatch, head):
        db = synthetic_db(n_rows=4, n_cols=4)
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.1, seed=0)

        def fit():
            model = build_model(default_localizer_spec(8, 8, head), (1, 8, 8),
                                head, seed=3, normalize_input=True)
            return train(model, db, cfg), model.parameters()

        curve, params = fit()
        with monkeypatch.context() as m:
            self.use_reference_layers(m)
            ref_curve, ref_params = fit()
        assert curve == ref_curve
        for p, q in zip(params, ref_params):
            assert_same_bits(p, q)

    def test_predictor_training(self, monkeypatch):
        seqs = np.random.default_rng(4).uniform(0.0, 1.0, size=(2, 5, 8, 8))
        cfg = TrainConfig(epochs=2, batch_size=2, learning_rate=0.2, seed=0)

        def fit():
            model = ConvRecurrentPredictor(8, 8, seed=1)
            return train_predictor(model, seqs, cfg), model.parameters()

        history, params = fit()
        with monkeypatch.context() as m:
            self.use_reference_layers(m)
            ref_history, ref_params = fit()
        assert history == ref_history
        for p, q in zip(params, ref_params):
            assert_same_bits(p, q)

    def test_predictor_training_at_benchmark_shape(self, monkeypatch):
        # the benchmark's recurrent shape: 16x16 profiles, eight hidden
        # channels, batches of eight walks
        seqs = np.random.default_rng(8).uniform(0.0, 1.0, size=(8, 4, 16, 16))
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.2, seed=0)

        def fit():
            model = ConvRecurrentPredictor(16, 16, hidden_channels=8, seed=1)
            return train_predictor(model, seqs, cfg), model.parameters()

        history, params = fit()
        with monkeypatch.context() as m:
            self.use_reference_layers(m)
            ref_history, ref_params = fit()
        assert history == ref_history
        for p, q in zip(params, ref_params):
            assert_same_bits(p, q)


class TestColumnCache:
    """The trainers normalize the data and build the data layer's columns
    once per call, and each batch gathers its rows; the weights and loss
    curves are those of preparing every batch on its own
    (``oracles.train``, ``oracles.train_predictor``), to the bit. Both
    trainers run ``neural.sgd``'s one update rule, the oracles their own
    loops with a separate ``p -= learning_rate * g`` step at momentum 0,
    and the two agree at either momentum."""

    each_head = pytest.mark.parametrize("head", [
        Head("regression"), Head("classification", ClassifierGrid(2, 2))],
        ids=["regression", "classifier"])
    each_normalization = pytest.mark.parametrize("normalize", [True, False])

    @each_normalization
    @each_head
    def test_localizer_training(self, head, normalize, momentum=0.9):
        db = synthetic_db(n_rows=5, n_cols=5)
        adps = db.adps.copy()
        adps[7] = 0.0  # a zero-profile print, left out of training
        adps[::4] *= 37.0  # prints of other magnitudes, for normalization
        db = FingerprintDb(grid=db.grid, positions=db.positions, adps=adps)
        assert db.zero_flags.sum() == 1
        # 24 usable prints in batches of 10: the last batch holds 4
        cfg = TrainConfig(epochs=3, batch_size=10, learning_rate=0.05,
                          momentum=momentum, seed=2)
        models = [build_model(default_localizer_spec(8, 8, head), (1, 8, 8),
                              head, seed=3, normalize_input=normalize)
                  for _ in range(2)]
        curve = train(models[0], db, cfg)
        assert curve == oracles.train(models[1], db, cfg)
        got, want = models
        for p, q in zip(got.parameters(), want.parameters()):
            assert np.array_equal(p, q)
        assert np.array_equal(got.pos_offset, want.pos_offset)
        assert np.array_equal(got.pos_scale, want.pos_scale)

    @each_normalization
    @each_head
    def test_localizer_training_without_momentum(self, head, normalize):
        self.test_localizer_training(head, normalize, momentum=0.0)

    def test_stack_without_a_conv_layer(self):
        db = synthetic_db(n_rows=3, n_cols=3)
        head = Head("regression")
        specs = [{"kind": "flatten"}, {"kind": "dense", "out_width": 2}]
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.05, seed=0)
        models = [build_model(specs, (1, 8, 8), head, seed=1,
                              normalize_input=True) for _ in range(2)]
        assert train(models[0], db, cfg) == oracles.train(models[1], db, cfg)
        for p, q in zip(models[0].parameters(), models[1].parameters()):
            assert np.array_equal(p, q)

    def test_predictor_training(self, momentum=0.9):
        rng = np.random.default_rng(6)
        seqs = rng.uniform(0.0, 1.0, size=(5, 6, 8, 8))
        seqs[1, 2] = 0.0  # a dark frame
        # five walks in batches of two: the last batch holds one
        cfg = TrainConfig(epochs=3, batch_size=2, learning_rate=0.2,
                          momentum=momentum, seed=1)
        models = [ConvRecurrentPredictor(8, 8, seed=2) for _ in range(2)]
        history = train_predictor(models[0], seqs, cfg)
        assert history == oracles.train_predictor(models[1], seqs, cfg)
        assert models[0].scale == models[1].scale
        for p, q in zip(models[0].parameters(), models[1].parameters()):
            assert np.array_equal(p, q)

    def test_predictor_training_without_momentum(self):
        self.test_predictor_training(momentum=0.0)

    def test_predictor_builds_each_hidden_state_once(self, monkeypatch):
        # five steps: the zero state and five hidden states, each built
        # once for both the recurrent and the output layer
        model = ConvRecurrentPredictor(8, 8, seed=2)
        x = np.random.default_rng(5).uniform(0.0, 1.0, size=(2, 6, 8, 8))
        xcols = predictor._step_columns(model, x)
        calls, build = [], Conv2d.columns

        def counted(layer, inputs):
            calls.append(inputs.shape)
            return build(layer, inputs)

        monkeypatch.setattr(Conv2d, "columns", counted)
        predictor._loss_and_grads(model, x, xcols)
        assert calls == [(2, 8, 8, 8)] * 6


class TestFloat32:
    """Both heads and the recurrent predictor compute in float32, the
    precision of the stored profiles and of a checkpoint: nothing widens
    back to float64 in training, and a float64 input gives the output of
    its float32 values."""

    @pytest.mark.parametrize("head", [
        Head("regression"), Head("classification", ClassifierGrid(2, 2))],
        ids=["regression", "classifier"])
    def test_localizer(self, head):
        db = synthetic_db(n_rows=3, n_cols=3)
        model = build_model(default_localizer_spec(8, 8, head), (1, 8, 8),
                            head, seed=1, normalize_input=True)
        train(model, db, TrainConfig(epochs=2, batch_size=4, seed=0))
        assert {p.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        x, y = neural.training_data(model, db)
        data = model.training_input(x)
        assert data.dtype == np.float32
        _, grads = neural._loss_and_grads(model, data[:4], y[:4])
        assert {g.dtype for g in grads} == {np.dtype(np.float32)}
        # inference runs the float32 stack that training runs
        out = model.forward_batch(x, train=False)
        if head.kind == "regression":
            out = model.denormalize_positions(out)
        assert np.array_equal(forward(model, db.adps), out)
        assert np.array_equal(forward(model, db.adps.astype(np.float64)), out)

    def test_predictor(self):
        seqs = np.random.default_rng(2).uniform(0.0, 1.0, size=(3, 4, 8, 8))
        model = ConvRecurrentPredictor(8, 8, hidden_channels=2, seed=0)
        train_predictor(model, seqs, TrainConfig(epochs=2, batch_size=2,
                                                 seed=0))
        assert {p.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        data = predictor._as_frame_array(seqs) / model.scale
        assert data.dtype == np.float32
        _, grads = predictor._loss_and_grads(
            model, data, predictor._step_columns(model, data))
        assert {g.dtype for g in grads} == {np.dtype(np.float32)}
        seqs32 = seqs.astype(np.float32)
        got = model.predict(seqs32.astype(np.float64))
        assert got.dtype == np.float32
        assert np.array_equal(got, model.predict(seqs32))


class TestComposedGradients:
    def test_regression_stack(self):
        # the default stack shrunk to a finite-difference-friendly size:
        # both paddings, a pool, and two dense layers in one chain
        head = Head("regression")
        specs = [
            {"kind": "conv2d", "out_channels": 3, "kernel_size": 3,
             "padding": "same"},
            {"kind": "relu"},
            {"kind": "maxpool2x2"},
            {"kind": "conv2d", "out_channels": 4, "kernel_size": 3,
             "padding": "valid"},
            {"kind": "relu"},
            {"kind": "flatten"},
            {"kind": "dense", "out_width": 16},
            {"kind": "relu"},
            {"kind": "dense", "out_width": 2},
        ]
        model = build_model(specs, (1, 12, 12), head, seed=3)
        widen(model.layers)
        x = np.random.default_rng(4).uniform(0, 1, size=(2, 1, 12, 12))
        target = np.random.default_rng(5).uniform(0, 1, size=(2, 2))

        def loss():
            return float(np.mean(np.sum((model.forward_batch(x) - target) ** 2, 1)))

        out = model.forward_batch(x)
        model.backward_batch(2.0 * (out - target) / len(x))
        for p, g in zip(model.parameters(), model.gradients()):
            assert rel_err(g, fd_input_grad(loss, p)) < 1e-4

    def test_stack_without_a_conv_layer(self):
        # the input is data: backpropagation stops at the first layer with
        # parameters, here a dense layer behind a flatten
        head = Head("regression")
        specs = [{"kind": "flatten"}, {"kind": "dense", "out_width": 5},
                 {"kind": "relu"}, {"kind": "dense", "out_width": 2}]
        model = build_model(specs, (1, 3, 4), head, seed=8)
        widen(model.layers)
        x = np.random.default_rng(9).uniform(0, 1, size=(3, 1, 3, 4))
        target = np.random.default_rng(10).uniform(0, 1, size=(3, 2))

        def loss():
            return float(np.mean(np.sum((model.forward_batch(x) - target) ** 2, 1)))

        out = model.forward_batch(x)
        model.backward_batch(2.0 * (out - target) / len(x))
        for p, g in zip(model.parameters(), model.gradients()):
            assert rel_err(g, fd_input_grad(loss, p)) < 1e-4

    def test_classification_stack_cross_entropy(self):
        head = Head("classification", ClassifierGrid(2, 2))
        specs = [
            {"kind": "conv2d", "out_channels": 2, "kernel_size": 3, "padding": "valid"},
            {"kind": "relu"},
            {"kind": "maxpool2x2"},
            {"kind": "flatten"},
            {"kind": "dense", "out_width": 4},
            {"kind": "softmax"},
        ]
        model = build_model(specs, (1, 8, 8), head, seed=6)
        widen(model.layers)
        x = np.random.default_rng(7).uniform(0, 1, size=(3, 1, 8, 8))
        y = np.array([0, 3, 1])

        def loss():
            p = model.forward_batch(x)
            return float(-np.mean(np.log(p[np.arange(3), y] + 1e-12)))

        p = model.forward_batch(x)
        grad_logits = p.copy()
        grad_logits[np.arange(3), y] -= 1.0
        grad_logits /= 3
        g = grad_logits
        for layer in reversed(model.layers[:-1]):
            g = layer.backward(g)
        for p_, g_ in zip(model.parameters(), model.gradients()):
            assert rel_err(g_, fd_input_grad(loss, p_)) < 1e-4


class TestBuildModel:
    def test_shape_chain_validated(self):
        head = Head("regression")
        with pytest.raises(DimensionMismatch):
            build_model(
                [{"kind": "conv2d", "out_channels": 2, "kernel_size": 9,
                  "padding": "valid"}],
                (1, 4, 4),
                head,
            )
        with pytest.raises(DimensionMismatch):
            build_model(
                [{"kind": "flatten"}, {"kind": "dense", "out_width": 3}],
                (1, 4, 4),
                head,
            )

    def test_forward_checks_input_shape(self):
        head = Head("regression")
        model = build_model(
            [{"kind": "flatten"}, {"kind": "dense", "out_width": 2}],
            (1, 4, 4),
            head,
        )
        with pytest.raises(DimensionMismatch):
            forward(model, np.zeros((5, 5)))

    def test_same_seed_same_init(self):
        head = Head("regression")
        spec = default_localizer_spec(12, 12, head)
        m1 = build_model(spec, (1, 12, 12), head, seed=9)
        m2 = build_model(spec, (1, 12, 12), head, seed=9)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("head", [
        Head("regression"), Head("classification", ClassifierGrid(2, 2))],
        ids=["regression", "classifier"])
    def test_layers_count_their_weights(self, head):
        # the count a checkpoint loader checks before it builds anything
        spec = default_localizer_spec(12, 12, head)
        model = build_model(spec, (1, 12, 12), head, seed=9)
        shape, counted = (1, 12, 12), 0
        for layer in model.layers:
            counted += layer.n_weights(shape)
            shape = layer.out_shape(shape)
        assert counted == sum(p.size for p in model.parameters())

    def test_head_validation(self):
        with pytest.raises(ValueError):
            Head("classification")
        with pytest.raises(ValueError):
            Head("nonsense")


def synthetic_db(n_rows=2, n_cols=2, n_t=8, n_c=8, seed=1, spacing=1.0):
    grid = GridSpec(origin=(0.0, 0.0), spacing=spacing, n_rows=n_rows, n_cols=n_cols)
    rng = np.random.default_rng(seed)
    adps = rng.uniform(0.1, 1.0, size=(grid.n_points, n_t, n_c)).astype("<f4")
    return FingerprintDb(grid=grid, positions=grid.all_positions(), adps=adps)


class TestTraining:
    def small_regressor(self, db, seed=0):
        head = Head("regression")
        specs = [
            {"kind": "flatten"},
            {"kind": "dense", "out_width": 32},
            {"kind": "relu"},
            {"kind": "dense", "out_width": 2},
        ]
        return build_model(specs, (1, db.n_t, db.n_c), head, seed=seed)

    def test_overfits_four_points(self):
        db = synthetic_db()
        model = self.small_regressor(db)
        train(model, db, TrainConfig(epochs=300, batch_size=4, learning_rate=0.05,
                                     momentum=0.9, seed=0))
        preds = np.stack([forward(model, a) for a in db.adps])
        rmse = np.sqrt(np.mean(np.sum((preds - db.positions) ** 2, axis=1)))
        assert rmse < db.grid.spacing / 4

    def test_loss_curve_decreases(self):
        db = synthetic_db()
        model = self.small_regressor(db)
        curve = train(model, db, TrainConfig(epochs=50, batch_size=4,
                                             learning_rate=0.05, seed=0))
        assert len(curve) == 50
        assert curve[-1] < curve[0]

    def test_same_seed_identical_parameters(self):
        db = synthetic_db()
        cfg = TrainConfig(epochs=20, batch_size=2, learning_rate=0.05, seed=5)
        m1 = self.small_regressor(db, seed=2)
        m2 = self.small_regressor(db, seed=2)
        train(m1, db, cfg)
        train(m2, db, cfg)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1, p2)

    def test_diverged_loss_raises(self):
        db = synthetic_db()
        model = self.small_regressor(db)
        with pytest.raises(DivergedLoss):
            train(model, db, TrainConfig(epochs=50, batch_size=4,
                                         learning_rate=1e6, seed=0))

    def test_full_batch_order_invariance(self):
        db = synthetic_db(n_rows=3, n_cols=3)
        perm = np.random.default_rng(8).permutation(db.grid.n_points)
        db_shuffled = FingerprintDb(
            grid=db.grid, positions=db.positions[perm], adps=db.adps[perm]
        )
        cfg = TrainConfig(epochs=20, batch_size=db.grid.n_points,
                          learning_rate=0.05, momentum=0.0, seed=3)
        m1 = self.small_regressor(db, seed=4)
        m2 = self.small_regressor(db_shuffled, seed=4)
        c1 = train(m1, db, cfg)
        c2 = train(m2, db_shuffled, cfg)
        assert abs(c1[-1] - c2[-1]) <= 1e-6 * max(abs(c1[-1]), 1e-12)

    def test_classification_training_reduces_loss(self):
        db = synthetic_db(n_rows=4, n_cols=4)
        head = Head("classification", ClassifierGrid(2, 2))
        specs = [
            {"kind": "flatten"},
            {"kind": "dense", "out_width": 32},
            {"kind": "relu"},
            {"kind": "dense", "out_width": 4},
            {"kind": "softmax"},
        ]
        model = build_model(specs, (1, 8, 8), head, seed=1)
        curve = train(model, db, TrainConfig(epochs=60, batch_size=8,
                                             learning_rate=0.1, seed=0))
        assert curve[-1] < curve[0] / 2

    @pytest.mark.parametrize("momentum", [0.9, 0.0])
    def test_sgd_update_leaves_the_gradients_alone(self, momentum):
        # the scaled gradient goes into sgd's own scratch array, with the
        # roundings of ``v -= learning_rate * g``
        g = np.random.default_rng(6).standard_normal(5).astype(np.float32)
        given = g.copy()
        p = np.ones(5, dtype=np.float32)
        cfg = TrainConfig(epochs=3, batch_size=1, learning_rate=0.07,
                          momentum=momentum)
        neural.sgd([p], 2, lambda sel: (1.0, [g]), cfg)
        assert np.array_equal(g, given)
        want, v = np.ones(5, dtype=np.float32), np.zeros(5, dtype=np.float32)
        for _ in range(6):
            v *= momentum
            v -= 0.07 * g
            want += v
        assert_same_bits(p, want)

    @pytest.mark.parametrize("head", [
        Head("regression"), Head("classification", ClassifierGrid(2, 2))],
        ids=["regression", "classifier"])
    def test_relu_masks_and_gradients_share_one_layout(self, monkeypatch,
                                                       head):
        # a channels-last mask times a C-order gradient made the first
        # ReLU's backward 10x slower than two C-order operands
        seen = []
        backward = Relu.backward

        def spy(layer, grad):
            seen.append((layer._cache.flags.c_contiguous,
                         grad.flags.c_contiguous))
            return backward(layer, grad)

        monkeypatch.setattr(Relu, "backward", spy)
        db = synthetic_db(n_rows=3, n_cols=3)
        model = build_model(default_localizer_spec(8, 8, head), (1, 8, 8),
                            head, seed=1, normalize_input=True)
        train(model, db, TrainConfig(epochs=1, batch_size=9, seed=0))
        assert seen == [(True, True)] * 3


HEADS = [Head("regression"), Head("classification", ClassifierGrid(2, 2))]


def trained_localizer(head, db):
    """A default-stack localizer with input normalization, briefly trained."""
    model = build_model(default_localizer_spec(8, 8, head), (1, 8, 8), head,
                        seed=3, normalize_input=True)
    train(model, db, TrainConfig(epochs=3, batch_size=8, learning_rate=0.05,
                                 seed=0))
    if head.kind == "regression":
        return RegressionLocalizer(model)
    return ClassifierWknnLocalizer(model, db, k=3)


class TestInference:
    """A trained model holds only its parameters, and inference answers
    each row of a stack as it answers that row alone."""

    @pytest.mark.parametrize("head", HEADS, ids=["regression", "classifier"])
    def test_trained_model_keeps_no_activations(self, monkeypatch, head):
        db = synthetic_db(n_rows=4, n_cols=4)
        with monkeypatch.context() as m:
            for cls in (Layer, WeightedLayer):
                m.setattr(cls, "forget", lambda layer: None)
            kept = trained_localizer(head, db).model
        model = trained_localizer(head, db).model
        assert any(layer._cache is not None for layer in kept.layers)
        for layer in model.layers:
            assert layer._cache is None
            assert all(g is None for g in layer.gradients())
            arrays = [v for v in vars(layer).values()
                      if isinstance(v, np.ndarray)]
            assert all(any(a is p for p in layer.parameters())
                       for a in arrays)
        # forgetting leaves the parameters as training left them
        for p, q in zip(model.parameters(), kept.parameters()):
            assert_same_bits(p, q)
        weights = sum(p.nbytes for p in model.parameters())
        assert len(pickle.dumps(model)) < weights + 16384

    @pytest.mark.parametrize("head", HEADS, ids=["regression", "classifier"])
    def test_stack_equals_single_calls(self, head):
        db = synthetic_db(n_rows=4, n_cols=4)
        localizer = trained_localizer(head, db)
        rng = np.random.default_rng(7)
        frames = rng.uniform(0.0, 1.0, size=(37, 8, 8)).astype("<f4")
        frames[::5] *= 40.0  # input normalization at work
        got = forward(localizer.model, frames)
        assert_same_bits(got, np.stack([forward(localizer.model, f)
                                        for f in frames]))
        got = localizer(frames)
        assert got.shape == (37, 2)
        assert_same_bits(got, np.stack([localizer(f) for f in frames]))
        assert all(layer._cache is None for layer in localizer.model.layers)


def cells_of_each(cells, points, extent):
    """Cell of every point, the scalar and the array form checked against
    the scalar oracle."""
    ids = [cells.cell_of(p, extent) for p in points]
    assert all(type(i) is int for i in ids)
    assert ids == [classifier_cell(p, extent, cells.n_rows, cells.n_cols)
                   for p in points]
    batched = cells.cell_of(np.asarray(points, dtype=float), extent)
    assert batched.shape == (len(points),)
    assert batched.tolist() == ids
    return ids


class TestClassifierGrid:
    def test_every_point_maps_to_one_cell(self):
        db = synthetic_db(n_rows=5, n_cols=7)
        cells = ClassifierGrid(2, 3)
        extent = db.grid.extent()
        ids = cells_of_each(cells, db.positions, extent)
        assert min(ids) >= 0 and max(ids) < cells.n_cells
        # the extent corners land in the corner cells
        corners = [(extent[0], extent[1]), (extent[2], extent[1]),
                   (extent[0], extent[3]), (extent[2], extent[3])]
        assert cells_of_each(cells, corners, extent) == [0, 2, 3, 5]

    def test_points_outside_the_box_clamp_to_edge_cells(self):
        db = synthetic_db(n_rows=5, n_cols=7)
        cells = ClassifierGrid(2, 3)
        x0, y0, x1, y1 = db.grid.extent()
        outside = [(x0 - 0.3, y0 - 0.3), (x1 + 5.0, y1 + 5.0),
                   (x0 - 100.0, y1 + 0.01), (x1 + 0.01, y0 - 100.0),
                   ((x0 + x1) / 2, y0 - 1e-9), ((x0 + x1) / 2, y1 + 1e-9)]
        assert cells_of_each(cells, outside, (x0, y0, x1, y1)) == \
            [0, 5, 3, 2, 1, 4]

    def test_degenerate_single_row(self):
        grid = GridSpec(origin=(0, 0), spacing=1.0, n_rows=1, n_cols=4)
        extent = grid.extent()
        cells = ClassifierGrid(2, 2)
        for i in cells_of_each(cells, grid.all_positions(), extent):
            assert 0 <= i < 4


class ZeroModel(Model):
    """Classifier whose probabilities are uniform: argmax cell is 0."""


def zero_classifier(db, cells):
    head = Head("classification", cells)
    specs = [{"kind": "flatten"}, {"kind": "dense", "out_width": cells.n_cells},
             {"kind": "softmax"}]
    model = build_model(specs, (1, db.n_t, db.n_c), head, seed=0)
    model.layers[1].w[:] = 0.0
    model.layers[1].b[:] = 0.0
    return model


class TestClassifyThenWknn:
    def orthogonal_db(self):
        # disjoint-support profiles: similarity is exactly 0 across points
        grid = GridSpec(origin=(0.0, 0.0), spacing=1.0, n_rows=2, n_cols=2)
        adps = np.zeros((4, 8, 8), dtype="<f4")
        for i in range(4):
            adps[i, i, i] = 1.0
        return FingerprintDb(grid=grid, positions=grid.all_positions(), adps=adps)

    def test_exact_fingerprint_dominates(self):
        db = self.orthogonal_db()
        cells = ClassifierGrid(1, 1)  # one cell holding everything
        model = zero_classifier(db, cells)
        res = classify_then_wknn(model, db.adps[2], db, k=3)
        np.testing.assert_allclose(res.position, db.positions[2])
        assert not res.used_fallback

    def test_equal_similarities_average(self):
        grid = GridSpec(origin=(0.0, 0.0), spacing=1.0, n_rows=2, n_cols=2)
        adps = np.ones((4, 4, 4), dtype="<f4")
        db = FingerprintDb(grid=grid, positions=grid.all_positions(), adps=adps)
        model = zero_classifier(db, ClassifierGrid(1, 1))
        res = classify_then_wknn(model, np.ones((4, 4)), db, k=3)
        np.testing.assert_allclose(res.position, db.positions[:3].mean(axis=0))
        np.testing.assert_allclose(res.weights, 1 / 3)

    def test_single_point_cell(self):
        db = self.orthogonal_db()
        model = zero_classifier(db, ClassifierGrid(2, 2))
        # cell 0 holds only grid point (0, 0)
        res = classify_then_wknn(model, db.adps[1], db, k=3)
        np.testing.assert_allclose(res.position, db.positions[0])

    def test_empty_cell_falls_back(self):
        grid = GridSpec(origin=(0.0, 0.0), spacing=1.0, n_rows=2, n_cols=2)
        adps = np.zeros((4, 4, 4), dtype="<f4")
        adps[3, 2, 2] = 1.0  # only the far corner is usable
        db = FingerprintDb(grid=grid, positions=grid.all_positions(), adps=adps)
        model = zero_classifier(db, ClassifierGrid(2, 2))
        query = np.zeros((4, 4))
        query[2, 2] = 0.5
        res = classify_then_wknn(model, query, db, k=3)
        assert res.used_fallback
        np.testing.assert_allclose(res.position, db.positions[3])

    def test_weights_sum_to_one_and_hull(self):
        rng = np.random.default_rng(12)
        db = synthetic_db(n_rows=4, n_cols=4, seed=3)
        model = zero_classifier(db, ClassifierGrid(2, 2))
        for _ in range(50):
            query = rng.uniform(0, 1, size=(8, 8))
            res = classify_then_wknn(model, query, db, k=3)
            assert abs(res.weights.sum() - 1.0) < 1e-12
            chosen = db.positions[res.indices]
            assert (res.position >= chosen.min(axis=0) - 1e-12).all()
            assert (res.position <= chosen.max(axis=0) + 1e-12).all()


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        db = synthetic_db()
        head = Head("regression")
        model = build_model(
            default_localizer_spec(8, 8, head), (1, 8, 8), head, seed=2
        )
        train(model, db, TrainConfig(epochs=5, batch_size=4, learning_rate=0.01,
                                     seed=0))
        p1 = tmp_path / "m1.nnck"
        p2 = tmp_path / "m2.nnck"
        save_model(model, p1)
        loaded = load_model(p1)
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.input_shape == model.input_shape
        np.testing.assert_allclose(loaded.pos_offset, model.pos_offset)
        # the model is float32, as stored: the loaded one is the trained one
        query = db.adps[0]
        np.testing.assert_array_equal(forward(loaded, query),
                                      forward(model, query))

    def test_classification_head_round_trip(self, tmp_path):
        head = Head("classification", ClassifierGrid(2, 2))
        specs = [{"kind": "flatten"}, {"kind": "dense", "out_width": 4},
                 {"kind": "softmax"}]
        model = build_model(specs, (1, 4, 4), head, seed=1, normalize_input=True)
        path = tmp_path / "c.nnck"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.head.cells == ClassifierGrid(2, 2)
        assert loaded.normalize_input

    @pytest.mark.parametrize("field, value", [
        ("pos_scale", [1.0, 1.0, 1.0]), ("pos_scale", [0.0, 1.0]),
        ("pos_scale", [1.0, -2.0]), ("pos_scale", [1.0, None]),
        ("pos_offset", [0.0]), ("pos_offset", [0.0, None])])
    def test_position_normalization_out_of_range(self, tmp_path, field,
                                                 value):
        path = tmp_path / "m.nnck"
        save_small_classifier(path)
        header, _ = read_checkpoint(path, CHECKPOINT_MAGIC, 1)
        weights = load_model(path).parameters()
        write_checkpoint(path, CHECKPOINT_MAGIC, 1,
                         dict(header, **{field: value}), weights)
        with pytest.raises(FormatError, match="pos_"):
            load_model(path)

    @pytest.mark.parametrize("where, value", [
        (("layer_specs", 0, "out_channels"), 0),
        (("layer_specs", 0, "kernel_size"), 0),
        (("layer_specs", 3, "out_width"), 0),
        # one flipped byte: a zero input size once overflowed the init
        (("input_shape",), [0, 4, 4]),
        (("normalize_input",), "no"),
        (("seed",), True),
        # four cells either way, so the dense width still fits
        (("head", "cells"), [-2, -2]),
        (("head", "cells"), [True, 4])])
    def test_header_field_out_of_range(self, tmp_path, where, value):
        head = Head("classification", ClassifierGrid(2, 2))
        specs = [{"kind": "conv2d", "out_channels": 2, "kernel_size": 3,
                  "padding": "same"}, {"kind": "relu"}, {"kind": "flatten"},
                 {"kind": "dense", "out_width": 3},
                 {"kind": "dense", "out_width": 4}]
        model = build_model(specs, (1, 4, 4), head, seed=1)
        path = tmp_path / "m.nnck"
        save_model(model, path)
        header, _ = read_checkpoint(path, CHECKPOINT_MAGIC, 1)
        *keys, field = where
        owner = header
        for key in keys:
            owner = owner[key]
        owner[field] = value
        write_checkpoint(path, CHECKPOINT_MAGIC, 1, header, model.parameters())
        with pytest.raises(FormatError, match=field):
            load_model(path)


def save_small_classifier(path):
    head = Head("classification", ClassifierGrid(2, 2))
    specs = [{"kind": "flatten"}, {"kind": "dense", "out_width": 4},
             {"kind": "softmax"}]
    save_model(build_model(specs, (1, 4, 4), head, seed=1), path)


def save_small_recurrent(path):
    save_predictor(ConvRecurrentPredictor(4, 4, hidden_channels=2, seed=0),
                   path)


class TestCorruptCheckpoints:
    """A cut or malformed checkpoint surfaces as a typed package error."""

    @pytest.mark.parametrize("save,load", [
        (save_small_classifier, load_model),
        (save_small_recurrent, load_predictor),
    ], ids=["model", "predictor"])
    def test_every_cut_raises_a_package_error(self, tmp_path, save, load):
        full = tmp_path / "full.ckpt"
        save(full)
        raw = full.read_bytes()
        load(full)  # the uncut file loads
        cut = tmp_path / "cut.ckpt"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(MimolocError) as info:
                load(cut)
            assert isinstance(info.value, TruncatedFile), (size, info.value)

    @pytest.mark.parametrize("save,magic,load", [
        (save_small_classifier, CHECKPOINT_MAGIC, load_model),
        (save_small_recurrent, PREDICTOR_MAGIC, load_predictor),
    ], ids=["model", "predictor"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_is_a_format_error(self, tmp_path, save, magic,
                                                 load, value):
        # ReLU maps a NaN to 0, so a model would load and answer wrongly
        path = tmp_path / "w.ckpt"
        save(path)
        raw = bytearray(path.read_bytes())
        first = len(raw) - len(read_checkpoint(path, magic, 1)[1])
        raw[first:first + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="NaN or infinite"):
            load(path)

    @pytest.mark.parametrize("save,magic,load,field,value", [
        (save_small_classifier, CHECKPOINT_MAGIC, load_model,
         "input_shape", [1, 10_000_000, 16]),
        (save_small_classifier, CHECKPOINT_MAGIC, load_model,
         "layer_specs", [{"kind": "flatten"},
                         {"kind": "dense", "out_width": 10_000_000},
                         {"kind": "dense", "out_width": 4}]),
        (save_small_recurrent, PREDICTOR_MAGIC, load_predictor,
         "hidden_channels", 10_000_000),
        (save_small_recurrent, PREDICTOR_MAGIC, load_predictor,
         "kernel_size", 10_001),
    ], ids=["input-shape", "dense-width", "hidden-channels", "kernel-size"])
    def test_huge_sizes_fail_before_anything_is_built(
            self, tmp_path, monkeypatch, save, magic, load, field, value):
        # the header's sizes ask for gigabytes of weights: the weight
        # count they imply is compared with the body first, so nothing is
        # allocated and the error is the typed one
        path = tmp_path / "huge.ckpt"
        save(path)
        header, body = read_checkpoint(path, magic, 1)
        write_checkpoint(path, magic, 1, dict(header, **{field: value}),
                         [np.frombuffer(body, dtype="<f4")])

        def refuse(*args, **kwargs):
            raise AssertionError("a model was built before the size check")

        monkeypatch.setattr(neural, "build_model", refuse)
        monkeypatch.setattr(ConvRecurrentPredictor, "__init__", refuse)
        with pytest.raises(MimolocError) as info:
            load(path)
        assert isinstance(info.value, (TruncatedFile, FormatError))

    @pytest.mark.parametrize("magic,load", [
        (CHECKPOINT_MAGIC, load_model),
        (PREDICTOR_MAGIC, load_predictor),
    ], ids=["model", "predictor"])
    @pytest.mark.parametrize("header", [
        {}, {"kind": "conv-recurrent"}, {"head": {"kind": "regression"}},
        {"layer_specs": 3, "head": {"kind": "regression", "cells": None}},
        [1, 2],
        # every field present, but a dense layer cannot take a 1x4x4 input
        {"layer_specs": [{"kind": "dense", "out_width": 2}],
         "input_shape": [1, 4, 4], "head": {"kind": "regression",
                                            "cells": None},
         "seed": 0, "normalize_input": False, "pos_offset": [0.0, 0.0],
         "pos_scale": [1.0, 1.0]},
    ])
    def test_header_without_its_fields_is_a_format_error(self, tmp_path,
                                                         magic, load, header):
        path = tmp_path / "bad.ckpt"
        write_checkpoint(path, magic, 1, header, [])
        with pytest.raises(FormatError):
            load(path)


class TestInputNormalization:
    def test_scaling_input_does_not_change_output(self):
        head = Head("regression")
        model = build_model(
            default_localizer_spec(8, 8, head), (1, 8, 8), head, seed=0,
            normalize_input=True,
        )
        adp = np.random.default_rng(3).uniform(0, 1, size=(8, 8))
        # the model computes in float32: the scaled profile, normalized,
        # may differ from the plain one by an ulp per pixel, and the
        # outputs by float32 rounding (about 2e-9 here)
        np.testing.assert_allclose(
            forward(model, adp), forward(model, 7.5 * adp),
            atol=np.finfo(np.float32).eps
        )
