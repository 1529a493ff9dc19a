import numpy as np
import pytest

from conftest import build_random_model
from qsann import attention
from qsann.errors import ConfigurationError, EmptySequenceError
from qsann.model import (
    ModelConfig,
    QsannModel,
    forward,
    init_model,
    loss,
    parameter_count,
)


class TestConfig:
    def test_embed_dim(self):
        assert ModelConfig(2, 1, 1, 1).embed_dim == 6
        assert ModelConfig(4, 4, 5, 1).embed_dim == 24

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(2, 1, 1, 0)
        with pytest.raises(ConfigurationError):
            ModelConfig(2, 1, 1, 1, lam=-0.1)


class TestForward:
    def test_zero_head_gives_half(self, rng):
        model = build_random_model(rng)
        model.head_w[...] = 0.0
        model.head_b[...] = 0.0
        for ids in ([0], [1, 2], [3, 3, 4]):
            pred = forward(ids, model)
            assert pred.y_hat == 0.5
            assert pred.label == 1  # threshold convention: y_hat >= 0.5

    def test_single_token_pooling_is_identity(self, rng):
        model = build_random_model(rng)
        pred = forward([2], model)
        xs = model.embeddings.rows[[2]]
        outputs = attention.layer_forward(xs, model.layers[0], model.observables).outputs
        from qsann.model import sigmoid

        expected = sigmoid(float(model.head_w @ outputs[0] + model.head_b[0]))
        assert pred.y_hat == pytest.approx(expected, abs=1e-12)

    def test_permutation_invariance(self, rng):
        model = build_random_model(rng)
        ids = [1, 2, 3, 4]
        base = forward(ids, model).y_hat
        for _ in range(3):
            perm = list(rng.permutation(ids))
            assert forward(perm, model).y_hat == pytest.approx(base, abs=1e-12)

    def test_prediction_strictly_inside_unit_interval(self, rng):
        model = build_random_model(rng, scale=2.0)
        for ids in ([0, 1], [2], [3, 4, 1]):
            y = forward(ids, model).y_hat
            assert 0.0 < y < 1.0

    def test_attention_exported_per_layer(self, rng):
        model = build_random_model(rng, n_layers=2)
        pred = forward([1, 2], model)
        assert len(pred.attention) == 2
        assert pred.attention[0].coefficients.shape == (2, 2)

    def test_empty_sequence(self, rng):
        with pytest.raises(EmptySequenceError):
            forward([], build_random_model(rng))

    def test_unknown_token_id(self, rng):
        with pytest.raises(IndexError):
            forward([99], build_random_model(rng, vocab_size=5))

    def test_multilayer_single_token_finite(self, rng):
        model = build_random_model(rng, n_layers=3)
        assert np.isfinite(forward([1], model).y_hat)


class TestLoss:
    def test_perfect_predictions_zero(self, rng):
        model = build_random_model(rng)
        ids = [1, 2]
        y_hat = forward(ids, model).y_hat
        assert loss([(ids, y_hat)], model) == pytest.approx(0.0, abs=1e-15)

    def test_half_prediction_against_one(self, rng):
        model = build_random_model(rng)
        model.head_w[...] = 0.0
        model.head_b[...] = 0.0
        assert loss([([1, 2], 1)], model) == pytest.approx(0.125, abs=1e-15)

    def test_regularizers_add(self, rng):
        model = build_random_model(rng, lam=0.2, gamma=0.2)
        ids = [1, 2]
        d = model.config.embed_dim
        base_model = build_random_model(np.random.default_rng(12345))
        plain = loss([(ids, 1)], base_model)
        full = loss([(ids, 1)], model)
        expected_reg = 0.2 / (2 * d) * float(model.head_w @ model.head_w) + 0.2 / (
            2 * d
        ) * float(np.sum(model.embeddings.rows[ids] ** 2))
        assert full == pytest.approx(plain + expected_reg, abs=1e-12)

    def test_batch_size_invariance_of_regularizer(self, rng):
        # duplicating a sample must not change the loss
        model = build_random_model(rng, lam=0.3, gamma=0.4)
        sample = ([1, 2, 3], 1)
        assert loss([sample, sample], model) == pytest.approx(
            loss([sample], model), abs=1e-12
        )

    def test_non_negative(self, rng):
        model = build_random_model(rng, lam=0.1, gamma=0.1, scale=1.5)
        assert loss([([1], 0), ([2, 3], 1)], model) >= 0.0

    def test_empty_batch(self, rng):
        with pytest.raises(EmptySequenceError):
            loss([], build_random_model(rng))


class TestParameterCount:
    @pytest.mark.parametrize(
        "n,enc_depth,qkv_depth,layers,expected",
        [
            (2, 1, 1, 1, (18, 7, 25)),     # smallest two-qubit setting
            (4, 1, 1, 1, (36, 13, 49)),    # four qubits, depth-1 circuits
            (4, 4, 5, 1, (84, 25, 109)),   # deep encoder and deep q/k/v
            (4, 1, 2, 1, (48, 13, 61)),    # depth-2 q/k/v circuits
        ],
    )
    def test_reference_configurations(self, rng, n, enc_depth, qkv_depth, layers, expected):
        model = build_random_model(
            rng, n_qubits=n, enc_depth=enc_depth, qkv_depth=qkv_depth, n_layers=layers
        )
        assert parameter_count(model) == expected

    def test_embeddings_excluded(self, rng):
        small = build_random_model(rng, vocab_size=3)
        large = build_random_model(rng, vocab_size=300)
        assert parameter_count(small) == parameter_count(large)

    def test_layers_scale_qkv_count(self, rng):
        one = build_random_model(rng, n_layers=1)
        two = build_random_model(rng, n_layers=2)
        assert parameter_count(two)[0] == 2 * parameter_count(one)[0]


class TestModelValidation:
    def test_head_dimension_checked(self, rng):
        model = build_random_model(rng)
        with pytest.raises(ConfigurationError):
            QsannModel(
                config=model.config,
                layers=model.layers,
                head_w=np.zeros(5),
                head_b=np.zeros(1),
                embeddings=model.embeddings,
                observables=model.observables,
            )

    def test_init_model_shapes(self, rng):
        model = init_model(ModelConfig(2, 1, 1, 2), vocab_size=9, rng=rng)
        assert len(model.layers) == 2
        assert model.embeddings.rows.shape == (9, 6)
        assert model.head_b[0] == 0.0
