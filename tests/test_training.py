"""Network initialization, forward pass, gradients, local SGD, evaluation."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from celtibero import (
    ACTIVATIONS,
    LabeledDataset,
    ModelWeights,
    ShapeMismatchError,
    TrainConfig,
    evaluate,
    gen_synthetic,
    init_model,
    predict,
    train_local,
)

from celtibero import data as data_module
from .conftest import layers_of
from .oracles import forward, loss_and_grad, per_layer_loss_and_grad, per_layer_train_local


def dense_model(*arrays):
    """Build a model from alternating weight matrices and bias vectors."""
    arrays = [np.asarray(arr, dtype=np.float64) for arr in arrays]
    return ModelWeights([a.shape for a in arrays], np.concatenate([a.ravel() for a in arrays]))


class TestTrainConfig:
    def test_zero_learning_rate_allowed(self):
        assert TrainConfig(learning_rate=0.0, batch_size=8).learning_rate == 0.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1, batch_size=8)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, batch_size=8, epochs=0)


class TestInitModel:
    def test_valid(self):
        model = init_model([np.int64(20), 16.0, 4], np.random.default_rng(3))
        assert model.shapes() == ((20, 16), (16,), (16, 4), (4,))
        assert model == init_model((20, 16, 4), np.random.default_rng(3))

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ((20, 4), "architecture needs input, at least one hidden, and output sizes"),
            ((20, 0, 4), "layer sizes must be positive, got (20, 0, 4)"),
        ],
    )
    def test_rejections(self, sizes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            init_model(sizes, np.random.default_rng(0))

    def test_alternating_matrix_bias_shapes(self):
        model = init_model((4, 3, 2), np.random.default_rng(0))
        assert model.shapes() == ((4, 3), (3,), (3, 2), (2,))

    def test_biases_start_at_zero(self):
        model = init_model((5, 4, 3), np.random.default_rng(0))
        assert np.all(layers_of(model)[1] == 0.0)
        assert np.all(layers_of(model)[3] == 0.0)

    def test_weights_within_fan_in_bound(self):
        model = init_model((4, 3, 2), np.random.default_rng(9))
        assert np.all(np.abs(layers_of(model)[0]) <= 1.0 / math.sqrt(4))
        assert np.all(np.abs(layers_of(model)[2]) <= 1.0 / math.sqrt(3))

    def test_deterministic_and_seed_sensitive(self):
        def drawn(seed):
            return init_model((4, 3, 2), np.random.default_rng(seed))

        assert drawn(5) == drawn(5)
        assert drawn(6) != drawn(5)

    def test_draws_one_uniform_matrix_per_layer_from_the_callers_generator(self):
        rng, replay = np.random.default_rng(4), np.random.default_rng(4)
        model = init_model((4, 3, 2), rng)
        assert np.array_equal(layers_of(model)[0], replay.uniform(-0.5, 0.5, (4, 3)).ravel())
        scale = 1.0 / math.sqrt(3)
        assert np.array_equal(layers_of(model)[2], replay.uniform(-scale, scale, (3, 2)).ravel())
        assert rng.random() == replay.random()


class TestForward:
    def test_probabilities_form_a_simplex(self):
        model = init_model((6, 5, 3), np.random.default_rng(1))
        rng = np.random.default_rng(2)
        for activation in ("relu", "tanh"):
            probs = forward(model, rng.uniform(size=6), activation)
            assert probs.shape == (3,)
            assert np.all(probs >= 0.0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_two_layer_network(self):
        model = dense_model(
            [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0],
            [[2.0, 0.0], [0.0, 2.0]], [0.0, 0.0],
        )
        probs = forward(model, [0.5, 0.25], "relu")
        expected_hot = 1.0 / (1.0 + math.exp(-0.5))  # softmax of logits (1.0, 0.5)
        assert probs[0] == pytest.approx(expected_hot, abs=1e-12)
        assert probs[1] == pytest.approx(1.0 - expected_hot, abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        model = dense_model([[1000.0, -1000.0]], [0.0, 0.0])
        probs = forward(model, [1.0])
        assert np.isfinite(probs).all()
        assert probs[0] == pytest.approx(1.0)

    def test_rejections(self):
        model = init_model((4, 3, 2), np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            forward(model, [0.1, 0.2, 0.3])
        lopsided = ModelWeights([(2, 2)], np.zeros(4))
        with pytest.raises(ShapeMismatchError):
            forward(lopsided, [0.1, 0.2])


class TestPredict:
    def test_matches_rowwise_forward(self):
        model = init_model((5, 4, 3), np.random.default_rng(7))
        # 9000 rows run past the 8192-row blocks prediction was once split into.
        for rows in (20, 9000):
            X = np.random.default_rng(8).uniform(size=(rows, 5))
            for activation in ("relu", "tanh"):
                batch = predict(model, X, activation)
                rowwise = [int(np.argmax(forward(model, row, activation))) for row in X]
                assert np.array_equal(batch, rowwise)

    def test_exact_ties_pick_lowest_class(self):
        model = dense_model(np.zeros((3, 4)), np.zeros(4))
        assert np.array_equal(predict(model, np.full((5, 3), 0.5)), np.zeros(5))

    def test_rejects_non_batch_input(self):
        model = init_model((3, 3, 2), np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            predict(model, np.zeros(3))

    def test_rejects_a_batch_of_another_width(self):
        model = init_model((3, 3, 2), np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError, match="^feature width 4, model expects 3$"):
            predict(model, np.zeros((2, 4)))

    def test_rejects_a_bias_that_does_not_match_its_matrix(self):
        model = ModelWeights([(3, 4), (5,)], np.zeros(17))
        message = "layers 0,1: expected a matrix followed by its bias, got dims (3, 4) and (5,)"
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(message)}$"):
            predict(model, np.zeros((2, 3)))

    def test_rejects_unknown_activation(self):
        # The activation is an argument of each call that runs the network.
        model = init_model((3, 3, 2), np.random.default_rng(0))
        data = LabeledDataset(np.zeros((2, 3)), [0, 1], 2)
        with pytest.raises(ValueError, match="activation must be one of"):
            predict(model, data.features, "sigmoid")
        with pytest.raises(ValueError, match="activation must be one of"):
            train_local(model, data, TrainConfig(0.1, 2), np.random.default_rng(0), "sigmoid")


class TestLossAndGrad:
    def test_gradients_match_central_differences(self):
        model = init_model((2, 3, 2), np.random.default_rng(11))
        rng = np.random.default_rng(12)
        X = rng.uniform(size=(4, 2))
        y = rng.integers(0, 2, size=4)
        _, grad = loss_and_grad(model, X, y, "tanh")
        h = 1e-6
        for k, vec in enumerate(layers_of(model)):
            for c in range(vec.size):
                def perturbed(delta):
                    vectors = [
                        v.copy() if j != k else _bump(v, c, delta)
                        for j, v in enumerate(layers_of(model))
                    ]
                    return ModelWeights(model.shapes(), np.concatenate(vectors))
                up, _ = loss_and_grad(perturbed(h), X, y, "tanh")
                down, _ = loss_and_grad(perturbed(-h), X, y, "tanh")
                numeric = (up - down) / (2 * h)
                assert layers_of(grad)[k][c] == pytest.approx(numeric, abs=1e-5)

    def test_uniform_prediction_loss_is_log_classes(self):
        model = dense_model(np.zeros((4, 3)), np.zeros(3))
        X = np.random.default_rng(13).uniform(size=(6, 4))
        loss, _ = loss_and_grad(model, X, [0, 1, 2, 0, 1, 2])
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        # Logits (1000, -1000): the log-softmax is (0, -2000), exactly.
        model = dense_model([[1000.0, -1000.0]], [0.0, 0.0])
        loss, grad = loss_and_grad(model, [[1.0]], [1])
        assert loss == 2000.0
        assert np.isfinite(grad.flat).all()

    def test_gradient_update_matches_model_layout(self):
        model = init_model((3, 4, 2), np.random.default_rng(14))
        _, grad = loss_and_grad(model, np.full((2, 3), 0.5), [0, 1])
        assert grad.shapes() == model.shapes()


def _bump(vec, index, delta):
    out = vec.copy()
    out[index] += delta
    return out


class TestTrainLocal:
    def make_data(self, seed=0, n=120):
        return gen_synthetic(3, n, 6, 3.0, np.random.default_rng(seed))

    def test_zero_learning_rate_is_identity(self):
        model = init_model((6, 5, 3), np.random.default_rng(15))
        rng = np.random.default_rng(0)
        trained = train_local(model, self.make_data(), TrainConfig(0.0, 16), rng)
        assert trained == model

    def test_bit_identical_retrain(self):
        model = init_model((6, 5, 3), np.random.default_rng(16))
        cfg, data = TrainConfig(0.1, 16, epochs=2), self.make_data(1)
        first = train_local(model, data, cfg, np.random.default_rng(21))
        assert train_local(model, data, cfg, np.random.default_rng(21)) == first

    def test_draws_one_permutation_per_epoch_from_the_callers_generator(self):
        model, data = init_model((6, 5, 3), np.random.default_rng(25)), self.make_data(5, n=40)
        rng, replay = np.random.default_rng(26), np.random.default_rng(26)
        train_local(model, data, TrainConfig(0.1, 16, epochs=3), rng)
        for _ in range(3):
            replay.permutation(data.n)
        assert rng.random() == replay.random()

    def test_loss_decreases(self):
        model = init_model((6, 5, 3), np.random.default_rng(17))
        data = self.make_data(2)
        rng = np.random.default_rng(0)
        trained = train_local(model, data, TrainConfig(0.1, 16, epochs=3), rng)
        before, _ = loss_and_grad(model, data.features, data.labels)
        after, _ = loss_and_grad(trained, data.features, data.labels)
        assert after < before

    def test_oversized_batch_clamps_to_dataset(self):
        model = init_model((6, 5, 3), np.random.default_rng(18))
        data = self.make_data(3, n=10)
        rng = np.random.default_rng(0)
        trained = train_local(model, data, TrainConfig(0.1, 1000, epochs=1), rng)
        assert trained != model

    def test_accuracy_improves_on_separable_data(self):
        model = init_model((6, 8, 3), np.random.default_rng(19))
        data = gen_synthetic(3, 600, 6, 4.0, np.random.default_rng(20))
        rng = np.random.default_rng(0)
        trained = train_local(model, data, TrainConfig(0.1, 32, epochs=10), rng)
        assert evaluate(trained, data).accuracy >= 0.95

    def test_input_model_not_mutated(self):
        model = init_model((6, 5, 3), np.random.default_rng(22))
        snapshot = [v.copy() for v in layers_of(model)]
        train_local(model, self.make_data(4), TrainConfig(0.1, 16), np.random.default_rng(0))
        assert all(np.array_equal(v, s) for v, s in zip(layers_of(model), snapshot))

    def test_rejects_width_mismatch(self):
        model = init_model((5, 4, 3), np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            train_local(model, self.make_data(), TrainConfig(0.1, 16), np.random.default_rng(0))


class TestPerLayerReference:
    """The flat trainer against the former per-layer one, which gathers each
    step's batch on its own, bit for bit."""

    @given(
        n=st.integers(1, 400),
        batch=st.integers(1, 64),
        width=st.integers(1, 784),
        hidden=st.lists(st.integers(1, 16), min_size=1, max_size=2),
        classes=st.integers(2, 10),
        activation=st.sampled_from(ACTIVATIONS),
        lr=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
        epochs=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        zero_features=st.booleans(),
        rows_around=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        gather_bytes=st.sampled_from([None, 1, 5000]),
    )
    @example(n=1, batch=64, width=784, hidden=[16, 16], classes=10, activation="relu",
             lr=0.0, epochs=2, seed=0, zero_features=False, rows_around=(0, 0),
             gather_bytes=None)
    @example(n=200, batch=1, width=1, hidden=[1], classes=2, activation="tanh",
             lr=0.5, epochs=1, seed=1, zero_features=False, rows_around=(0, 0),
             gather_bytes=None)
    # Every first relu input is exactly 0.0 (zero features, zero initial
    # biases), so the relu derivative meets signed zeros at every step.
    @example(n=37, batch=16, width=6, hidden=[8, 4], classes=3, activation="relu",
             lr=0.1, epochs=2, seed=2, zero_features=True, rows_around=(0, 0),
             gather_bytes=None)
    # A ragged last batch: 37 = 2 x 16 + 5.
    @example(n=37, batch=16, width=12, hidden=[8], classes=4, activation="tanh",
             lr=0.1, epochs=2, seed=3, zero_features=False, rows_around=(0, 0),
             gather_bytes=None)
    # MNIST width: 1 MiB blocks of 128 rows, then a last block of 16.
    @example(n=400, batch=64, width=784, hidden=[16], classes=10, activation="relu",
             lr=0.1, epochs=1, seed=4, zero_features=False, rows_around=(3, 2),
             gather_bytes=None)
    # One-row steps in blocks of 165 rows, the last of 69.
    @example(n=399, batch=1, width=784, hidden=[4], classes=10, activation="tanh",
             lr=0.1, epochs=1, seed=5, zero_features=False, rows_around=(1, 0),
             gather_bytes=None)
    # One-row steps through a 1 x 1 layer: np.matmul's gradient of that layer
    # is a sum from +0.0, so a -0.0 product comes out as +0.0.
    @example(n=1, batch=1, width=1, hidden=[1], classes=2, activation="relu",
             lr=0.0, epochs=1, seed=126, zero_features=False, rows_around=(0, 0),
             gather_bytes=None)
    @settings(max_examples=60, deadline=None)
    def test_train_local_and_loss_and_grad_match_bitwise(
        self, n, batch, width, hidden, classes, activation, lr, epochs, seed, zero_features,
        rows_around, gather_bytes,
    ):
        rng = np.random.default_rng(seed)
        features = rng.uniform(size=(n, width))  # drawn either way: the labels keep their draws
        if zero_features:
            features = np.zeros((n, width))
        data = LabeledDataset(features, rng.integers(0, classes, size=n), classes)
        model = init_model((width, *hidden, classes), np.random.default_rng(seed))
        cfg = TrainConfig(lr, batch, epochs)
        # The share as an experiment holds it: a block of rows of a larger
        # training matrix.
        before, after = rows_around
        matrix = np.vstack([np.full((before, width), 0.5), data.features, np.zeros((after, width))])
        share = LabeledDataset._owning(matrix[before : before + n], data.labels, classes)
        if gather_bytes is None:
            gather_bytes = data_module._ROW_BYTES
        with mock.patch.object(data_module, "_ROW_BYTES", gather_bytes):
            trained = train_local(model, share, cfg, np.random.default_rng(seed), activation)
        reference = per_layer_train_local(
            model, data, cfg, np.random.default_rng(seed), activation
        )
        assert trained.flat.tobytes() == reference.flat.tobytes()
        if lr == 0.0:
            assert trained.flat.tobytes() == model.flat.tobytes()
        loss, grad = loss_and_grad(trained, data.features, data.labels, activation)
        ref_loss, ref_grad = per_layer_loss_and_grad(
            trained, data.features, data.labels, activation
        )
        assert loss == ref_loss
        assert grad.shapes() == ref_grad.shapes()
        assert grad.flat.tobytes() == ref_grad.flat.tobytes()


class TestEvaluate:
    def test_hand_computed_per_class_accuracy(self):
        model = dense_model([[10.0, 0.0], [0.0, 10.0]], [0.0, 0.0])
        data = LabeledDataset(
            [[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]], [0, 1, 1, 1], 2
        )
        result = evaluate(model, data)
        assert result.accuracy == pytest.approx(0.75)
        assert result.per_class[0] == pytest.approx(1.0)
        assert result.per_class[1] == pytest.approx(2.0 / 3.0)

    def test_absent_classes_omitted(self):
        model = dense_model([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0]], [0.0, 0.0, 0.0])
        data = LabeledDataset([[0.9, 0.1], [0.1, 0.9]], [0, 1], 3)
        result = evaluate(model, data)
        assert set(result.per_class) == {0, 1}

    def test_count_weighted_per_class_mean_equals_accuracy(self):
        model = init_model((6, 5, 3), np.random.default_rng(23))
        data = gen_synthetic(3, 301, 6, 2.0, np.random.default_rng(24))
        result = evaluate(model, data)
        counts = np.bincount(data.labels, minlength=data.num_classes)
        weighted = sum(result.per_class[c] * counts[c] for c in result.per_class)
        assert weighted / data.n == pytest.approx(result.accuracy, abs=1e-12)