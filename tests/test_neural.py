"""Layer-by-layer gradient checks and training behavior for the localizer."""

import pickle

import numpy as np
import oracles
import pytest
from oracles import ReferenceConv2d, ReferenceMaxPool2x2, classifier_cell

from mimoloc.container import write_checkpoint
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
    PredictorTrainConfig,
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


def check_layer(layer, x, seed=1):
    """FD-check input and parameter gradients through a squared loss."""
    rng = np.random.default_rng(seed)
    layer.init_params(x.shape[1:], rng)
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

    @pytest.mark.parametrize("batch", [1, 8, 32])
    @pytest.mark.parametrize("padding,k", [("valid", 3), ("same", 3),
                                           ("valid", 2), ("same", 2)])
    def test_conv(self, padding, k, batch):
        rng = np.random.default_rng(batch * 10 + k)
        layer = Conv2d(4, k, padding)
        layer.init_params((3, 7, 9), rng)
        ref = ReferenceConv2d(4, k, padding)
        ref.w, ref.b = layer.w, layer.b
        x = rng.standard_normal((batch, 3, 7, 9))
        for xi in layouts(x):
            y = layer.forward(xi)
            assert_same_bits(y, ref.forward(xi))
            for g in layouts(rng.standard_normal(y.shape)):
                dx = layer.backward(g)
                assert_same_bits(dx, ref.backward(g))
                assert dx.flags.c_contiguous
                assert_same_bits(layer.gw, ref.gw)
                assert_same_bits(layer.gb, ref.gb)
                # a first layer skips its input gradient, and nothing else
                assert layer.backward(g, input_grad=False) is None
                assert_same_bits(layer.gw, ref.gw)
                assert_same_bits(layer.gb, ref.gb)

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
        for xi in layouts(x):
            y = layer.forward(xi)
            assert_same_bits(y, ref.forward(xi))
            g = rng.standard_normal(y.shape)
            assert_same_bits(layer.backward(g), ref.backward(g))

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
        cfg = PredictorTrainConfig(epochs=2, batch_size=2, seed=0)

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


class TestColumnCache:
    """The trainers normalize the data and build the data layer's columns
    once per call, and each batch gathers its rows; the weights and loss
    curves are those of preparing every batch on its own
    (``oracles.train``, ``oracles.train_predictor``), to the bit."""

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("head", [
        Head("regression"), Head("classification", ClassifierGrid(2, 2))],
        ids=["regression", "classifier"])
    def test_localizer_training(self, head, normalize):
        db = synthetic_db(n_rows=5, n_cols=5)
        adps = db.adps.copy()
        adps[7] = 0.0  # a zero-profile print, left out of training
        adps[::4] *= 37.0  # prints of other magnitudes, for normalization
        db = FingerprintDb(grid=db.grid, positions=db.positions, adps=adps)
        assert db.zero_flags.sum() == 1
        # 24 usable prints in batches of 10: the last batch holds 4
        cfg = TrainConfig(epochs=3, batch_size=10, learning_rate=0.05, seed=2)
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

    def test_predictor_training(self):
        rng = np.random.default_rng(6)
        seqs = rng.uniform(0.0, 1.0, size=(5, 6, 8, 8))
        seqs[1, 2] = 0.0  # a dark frame
        # five walks in batches of two: the last batch holds one
        cfg = PredictorTrainConfig(epochs=3, batch_size=2, seed=1)
        models = [ConvRecurrentPredictor(8, 8, seed=2) for _ in range(2)]
        history = train_predictor(models[0], seqs, cfg)
        assert history == oracles.train_predictor(models[1], seqs, cfg)
        assert models[0].scale == models[1].scale
        for p, q in zip(models[0].parameters(), models[1].parameters()):
            assert np.array_equal(p, q)


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
        # f32 storage: predictions agree to float32 precision
        query = db.adps[0]
        np.testing.assert_allclose(
            forward(loaded, query), forward(model, query), rtol=1e-4, atol=1e-4
        )

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

    @pytest.mark.parametrize("magic,load", [
        (CHECKPOINT_MAGIC, load_model),
        (PREDICTOR_MAGIC, load_predictor),
    ], ids=["model", "predictor"])
    @pytest.mark.parametrize("header", [
        {}, {"kind": "conv-recurrent"}, {"head": {"kind": "regression"}},
        {"layer_specs": 3, "head": {"kind": "regression", "cells": None}},
        [1, 2],
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
        np.testing.assert_allclose(
            forward(model, adp), forward(model, 7.5 * adp), atol=1e-12
        )
